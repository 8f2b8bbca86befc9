//! The crash flight recorder: a bounded, lossy, always-on ring of
//! lifecycle events, dumped to a post-mortem file when something dies.
//!
//! The journal is lossless and opt-in; the flight recorder is the
//! opposite trade: it records *always* (even with tracing off), holds
//! only the last [`FLIGHT_CAPACITY`] events per shard (overwrite-oldest),
//! and its events are fixed-size — no allocation on the record path, so
//! it is safe on serving hot paths. When a worker panics, a rank dies,
//! or an error escapes `cuts serve`, [`postmortem`] writes the rings to
//! a JSON file so the first production failure is debuggable without a
//! re-run under `--trace-out`.
//!
//! The ring speaks the journal's vocabulary: a record is an
//! [`EventKind`], a name and up to [`FLIGHT_ARGS`] integer arguments by
//! key. [`crate::Trace`] feeds it: every instant of a [`LIFECYCLE`] kind
//! lands here whether or not the journal is on, so one call per
//! lifecycle event serves both recorders.
//!
//! Shards are keyed by the recording thread's [`lane`], so the dump
//! preserves per-lane program order and a reader can ask "what were the
//! last events on the lane/rank that failed".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::event::{Arg, EventKind};
use crate::journal::lane;
use crate::json::{Json, SchemaError, ToJson};

/// Ring shards (threads map in by `lane() % FLIGHT_SHARDS`).
pub const FLIGHT_SHARDS: usize = 16;

/// Events retained per shard before overwrite-oldest kicks in.
pub const FLIGHT_CAPACITY: usize = 512;

/// Integer arguments one record keeps (the first ones given).
pub const FLIGHT_ARGS: usize = 3;

/// The lifecycle kinds: [`crate::Trace`] instants of these kinds are
/// recorded in the ring as well as the journal.
pub const LIFECYCLE: [EventKind; 5] = [
    EventKind::Job,
    EventKind::Fault,
    EventKind::Chunk,
    EventKind::Donation,
    EventKind::Heartbeat,
];

/// One fixed-size recorded event. The ring holds `'static` names and
/// keys (`S = &'static str`); [`parse_dump`] reads them back owned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent<S = &'static str> {
    /// Global record order (fetch-add at record time).
    pub seq: u64,
    /// Microseconds since the recorder's epoch (process start of use).
    pub ts_us: u64,
    /// Taxonomy bucket, as in the journal.
    pub kind: EventKind,
    /// Event name, as in the journal (e.g. `"claim"`, `"commit"`).
    pub name: S,
    /// Distributed rank, when known.
    pub rank: Option<u32>,
    /// Recording thread's lane.
    pub lane: u32,
    /// Unsigned-integer arguments by key, in recording order.
    pub args: [Option<(S, u64)>; FLIGHT_ARGS],
}

impl<S: AsRef<str>> FlightEvent<S> {
    /// The recorded arguments, in order.
    pub fn args(&self) -> impl Iterator<Item = (&str, u64)> {
        self.args.iter().flatten().map(|(k, v)| (k.as_ref(), *v))
    }

    /// The argument recorded under `key`.
    pub fn arg(&self, key: &str) -> Option<u64> {
        self.args().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

impl<S: AsRef<str>> ToJson for FlightEvent<S> {
    fn to_json(&self) -> Json {
        let mut o = Json::obj([
            ("seq", Json::U64(self.seq)),
            ("ts_us", Json::U64(self.ts_us)),
            ("kind", Json::Str(self.kind.as_str().into())),
            ("name", Json::Str(self.name.as_ref().into())),
            ("lane", Json::U64(self.lane as u64)),
        ]);
        if let Some(r) = self.rank {
            o.set("rank", r);
        }
        o.set(
            "args",
            Json::obj(self.args().map(|(k, v)| (k, Json::U64(v)))),
        );
        o
    }
}

struct Ring {
    buf: Vec<FlightEvent>,
    next: usize,
    total: u64,
}

impl Ring {
    fn new() -> Self {
        Ring {
            buf: Vec::new(),
            next: 0,
            total: 0,
        }
    }

    fn push(&mut self, e: FlightEvent) {
        self.total += 1;
        if self.buf.len() < FLIGHT_CAPACITY {
            // One allocation of the whole ring on first use: growing by
            // doubling would leave about as much again resident.
            self.buf.reserve_exact(FLIGHT_CAPACITY - self.buf.len());
            self.buf.push(e);
        } else {
            self.buf[self.next] = e;
        }
        self.next = (self.next + 1) % FLIGHT_CAPACITY;
    }
}

/// The recorder: [`FLIGHT_SHARDS`] overwrite-oldest rings. Usually used
/// through the process-wide instance ([`recorder`]) so the dump on a
/// failure path sees events from every subsystem.
pub struct FlightRecorder {
    shards: Vec<Mutex<Ring>>,
    epoch: Instant,
    seq: AtomicU64,
    enabled: AtomicBool,
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl FlightRecorder {
    /// A fresh, enabled recorder.
    pub fn new() -> Self {
        FlightRecorder {
            shards: (0..FLIGHT_SHARDS)
                .map(|_| Mutex::new(Ring::new()))
                .collect(),
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            enabled: AtomicBool::new(true),
        }
    }

    /// Turns recording on or off (a single atomic flag; the disabled
    /// record path is one relaxed load).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Records an event on the calling thread's shard, keeping the first
    /// [`FLIGHT_ARGS`] unsigned-integer arguments. Fixed-size write, no
    /// allocation after the shard's first record.
    #[inline]
    pub fn record(
        &self,
        kind: EventKind,
        name: &'static str,
        rank: Option<u32>,
        args: &[(&'static str, Arg)],
    ) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let mut ints = args.iter().filter_map(|(k, v)| match v {
            Arg::U64(v) => Some((*k, *v)),
            _ => None,
        });
        let lane = lane();
        let e = FlightEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ts_us: self.epoch.elapsed().as_micros() as u64,
            kind,
            name,
            rank,
            lane,
            args: std::array::from_fn(|_| ints.next()),
        };
        self.shards[lane as usize % FLIGHT_SHARDS]
            .lock()
            .unwrap()
            .push(e);
    }

    /// Events recorded over the recorder's lifetime (including ones the
    /// rings have since overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().unwrap().total).sum()
    }

    /// Copies out every retained event, ordered by `seq`.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let mut all: Vec<FlightEvent> = self
            .shards
            .iter()
            .flat_map(|s| s.lock().unwrap().buf.clone())
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }

    /// The dump document: reason, retention stats, and the retained
    /// events in record order.
    pub fn dump_json(&self, reason: &str) -> Json {
        let events = self.snapshot();
        Json::obj([
            ("flight_recorder", Json::U64(1)),
            ("reason", Json::Str(reason.to_string())),
            (
                "dumped_ts_us",
                Json::U64(self.epoch.elapsed().as_micros() as u64),
            ),
            ("capacity_per_shard", Json::U64(FLIGHT_CAPACITY as u64)),
            ("shards", Json::U64(FLIGHT_SHARDS as u64)),
            ("total_recorded", Json::U64(self.total_recorded())),
            ("retained", Json::U64(events.len() as u64)),
            (
                "events",
                Json::Arr(events.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The process-wide recorder (created enabled on first use).
pub fn recorder() -> &'static FlightRecorder {
    GLOBAL.get_or_init(FlightRecorder::new)
}

/// Records on the process-wide recorder. [`crate::Trace`] instants of
/// the [`LIFECYCLE`] kinds arrive here on their own; call this directly
/// only for facts that are not such an instant.
#[inline]
pub fn record(
    kind: EventKind,
    name: &'static str,
    rank: Option<u32>,
    args: &[(&'static str, Arg)],
) {
    recorder().record(kind, name, rank, args);
}

/// Turns the process-wide recorder on or off.
pub fn set_enabled(on: bool) {
    recorder().set_enabled(on);
}

/// Dumps the process-wide recorder to a post-mortem file and returns
/// its path. The directory is `$CUTS_FLIGHT_DIR` when set, else the OS
/// temp dir; the file name carries the pid, a per-process sequence
/// number, and `reason`. Returns `None` if the write fails (a crash
/// path must not raise a second error).
pub fn postmortem(reason: &str) -> Option<std::path::PathBuf> {
    let dir = std::env::var_os("CUTS_FLIGHT_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let safe: String = reason
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect();
    let path = dir.join(format!(
        "cuts-postmortem-{}-{}-{}.json",
        std::process::id(),
        DUMP_SEQ.fetch_add(1, Ordering::Relaxed),
        safe
    ));
    std::fs::write(&path, recorder().dump_json(reason).render()).ok()?;
    Some(path)
}

/// Parses a dump file produced by [`postmortem`] (or the rendered
/// [`FlightRecorder::dump_json`]): returns the reason and the retained events.
pub fn parse_dump(text: &str) -> Result<(String, Vec<FlightEvent<String>>), SchemaError> {
    let doc = Json::parse(text)?;
    if doc.get("flight_recorder").and_then(Json::as_u64) != Some(1) {
        return Err(SchemaError::new("not a flight-recorder dump"));
    }
    let reason = doc
        .get("reason")
        .and_then(Json::as_str)
        .ok_or_else(|| SchemaError::new("missing reason"))?
        .to_string();
    let raw = doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or_else(|| SchemaError::new("missing events array"))?;
    let mut events = Vec::with_capacity(raw.len());
    for (i, e) in raw.iter().enumerate() {
        let field = |k: &str| {
            e.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| SchemaError::new(format!("event {i}: missing {k}")))
        };
        let text = |k: &str| {
            e.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| SchemaError::new(format!("event {i}: missing {k}")))
        };
        let kind_name = text("kind")?;
        let kind = EventKind::parse(kind_name)
            .ok_or_else(|| SchemaError::new(format!("event {i}: unknown kind '{kind_name}'")))?;
        let mut args: [Option<(String, u64)>; FLIGHT_ARGS] = Default::default();
        if let Some(Json::Obj(pairs)) = e.get("args") {
            if pairs.len() > FLIGHT_ARGS {
                return Err(SchemaError::new(format!("event {i}: too many args")));
            }
            for (slot, (k, v)) in args.iter_mut().zip(pairs) {
                let v = v.as_u64().ok_or_else(|| {
                    SchemaError::new(format!("event {i}: arg {k} not an integer"))
                })?;
                *slot = Some((k.clone(), v));
            }
        }
        events.push(FlightEvent {
            seq: field("seq")?,
            ts_us: field("ts_us")?,
            kind,
            name: text("name")?.to_string(),
            rank: e.get("rank").and_then(Json::as_u64).map(|r| r as u32),
            lane: field("lane")? as u32,
            args,
        });
    }
    let declared = doc.get("retained").and_then(Json::as_u64);
    if declared.is_some_and(|n| n != events.len() as u64) {
        return Err(SchemaError::new("retained count mismatch"));
    }
    Ok((reason, events))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn beat(r: &FlightRecorder, i: u64) {
        r.record(EventKind::Heartbeat, "busy", None, &[("i", Arg::U64(i))]);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = FlightRecorder::new();
        let n = (FLIGHT_CAPACITY + 100) as u64;
        for i in 0..n {
            beat(&r, i);
        }
        // Single thread → single shard: exactly FLIGHT_CAPACITY retained,
        // and they are the newest FLIGHT_CAPACITY records.
        let events = r.snapshot();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(r.total_recorded(), n);
        assert_eq!(
            events.first().unwrap().arg("i"),
            Some(n - FLIGHT_CAPACITY as u64)
        );
        assert_eq!(events.last().unwrap().arg("i"), Some(n - 1));
        // seq order is record order.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = FlightRecorder::new();
        r.set_enabled(false);
        beat(&r, 1);
        assert_eq!(r.total_recorded(), 0);
        assert!(r.snapshot().is_empty());
        r.set_enabled(true);
        beat(&r, 1);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn full_rings_stay_under_a_mebibyte() {
        let bytes = FLIGHT_SHARDS * FLIGHT_CAPACITY * std::mem::size_of::<FlightEvent>();
        assert!(bytes < 1 << 20, "{bytes} bytes");
    }

    #[test]
    fn keeps_the_first_integer_args() {
        let r = FlightRecorder::new();
        r.record(
            EventKind::Job,
            "complete",
            Some(1),
            &[
                ("job", Arg::U64(7)),
                ("queue_ms", Arg::F64(0.5)),
                ("rank", Arg::U64(1)),
                ("ok", Arg::U64(0)),
                ("lane", Arg::U64(3)),
            ],
        );
        let e = &r.snapshot()[0];
        let args: Vec<_> = e.args().collect();
        assert_eq!(args, [("job", 7), ("rank", 1), ("ok", 0)]);
    }

    #[test]
    fn dump_roundtrip() {
        let r = FlightRecorder::new();
        r.record(EventKind::Job, "submit", None, &[("job", Arg::U64(7))]);
        r.record(
            EventKind::Job,
            "complete",
            Some(2),
            &[("job", Arg::U64(7)), ("ok", Arg::U64(0))],
        );
        let text = r.dump_json("test-crash").render();
        let (reason, events) = parse_dump(&text).expect("dump parses");
        assert_eq!(reason, "test-crash");
        // Every field survives the round trip.
        let back: Vec<String> = events.iter().map(|e| e.to_json().render()).collect();
        let kept: Vec<String> = r.snapshot().iter().map(|e| e.to_json().render()).collect();
        assert_eq!(back, kept);
        assert_eq!(events[1].kind, EventKind::Job);
        assert_eq!(events[1].name, "complete");
        assert_eq!(events[1].rank, Some(2));
        assert_eq!(events[1].arg("ok"), Some(0));
    }

    #[test]
    fn parse_rejects_non_dumps() {
        assert!(parse_dump("{}").is_err());
        assert!(parse_dump("not json").is_err());
        let dump = |event: Json| {
            Json::obj([
                ("flight_recorder", Json::U64(1)),
                ("reason", Json::Str("x".into())),
                ("events", Json::Arr(vec![event])),
            ])
            .render()
        };
        let event = |kind: &str, args: Json| {
            Json::obj([
                ("seq", Json::U64(0)),
                ("ts_us", Json::U64(0)),
                ("kind", Json::Str(kind.into())),
                ("name", Json::Str("n".into())),
                ("lane", Json::U64(0)),
                ("args", args),
            ])
        };
        assert!(parse_dump(&dump(event("job", Json::obj([("a", 1u64)])))).is_ok());
        assert!(parse_dump(&dump(event("bogus", Json::obj([("a", 1u64)])))).is_err());
        assert!(parse_dump(&dump(event("job", Json::obj([("a", "x")])))).is_err());
        let four = Json::obj([("a", 1u64), ("b", 2), ("c", 3), ("d", 4)]);
        assert!(parse_dump(&dump(event("job", four))).is_err());
    }

    #[test]
    fn postmortem_writes_parseable_file() {
        record(EventKind::Heartbeat, "busy", None, &[]);
        let path = postmortem("unit-test").expect("dump written");
        let text = std::fs::read_to_string(&path).unwrap();
        let (reason, _) = parse_dump(&text).expect("file parses");
        assert_eq!(reason, "unit-test");
        let _ = std::fs::remove_file(path);
    }
}
