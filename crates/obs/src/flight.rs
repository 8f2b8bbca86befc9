//! The crash flight recorder: a bounded, lossy, always-on ring of typed
//! events, dumped to a post-mortem file when something dies.
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
//! Shards are keyed by the recording thread's [`lane`], so the dump
//! preserves per-lane program order and a reader can ask "what were the
//! last events on the lane/rank that failed".

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::journal::lane;
use crate::json::{Json, SchemaError, ToJson};

/// Ring shards (threads map in by `lane() % FLIGHT_SHARDS`).
pub const FLIGHT_SHARDS: usize = 16;

/// Events retained per shard before overwrite-oldest kicks in.
pub const FLIGHT_CAPACITY: usize = 512;

/// What happened. One variant per serving-critical lifecycle point;
/// coarse by design — the journal carries the full-fidelity story.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightCode {
    /// Serving tier accepted a job into its queue (`a` = job id).
    JobSubmit,
    /// Job admitted to a device lane (`a` = job id, `b` = device).
    JobAdmit,
    /// Job finished cleanly (`a` = job id, `b` = exec µs).
    JobComplete,
    /// Job finished with an error (`a` = job id).
    JobFail,
    /// In-place trie growth denied by the ledger (`a` = job id,
    /// `b` = target entries).
    GrowthDenied,
    /// A deadline-carrying job missed it (`a` = job id, `b` = overrun µs).
    DeadlineMiss,
    /// Device kernel launch retired (`a` = blocks, `b` = wall µs).
    KernelLaunch,
    /// An engine run started (`a` = rank or 0).
    RunStart,
    /// An engine run ended (`a` = matches).
    RunEnd,
    /// Distributed chunk committed (`a` = chunk id, `b` = matches).
    ChunkCommit,
    /// Chunk reclaimed from a dead or unresponsive rank (`a` = chunk id,
    /// `b` = dead rank).
    ChunkReclaim,
    /// Work donation (`a` = chunk id, `b` = peer rank).
    Donation,
    /// Liveness heartbeat.
    Heartbeat,
    /// An injected fault fired (`a` = fault-specific).
    Fault,
    /// A rank was declared dead (`a` = rank).
    RankDead,
    /// A scheduler-level error (`a` = job id when known).
    SchedErr,
    /// An error escaped the serving loop.
    ServeErr,
    /// Trie arena carved or grown (`a` = words).
    ArenaGrow,
    /// Job a dead rank had claimed, put back in the serving queue
    /// (`a` = job id, `b` = the dead rank).
    JobReadmit,
}

impl FlightCode {
    /// Every code, for exhaustive reporting.
    pub const ALL: [FlightCode; 19] = [
        FlightCode::JobSubmit,
        FlightCode::JobAdmit,
        FlightCode::JobComplete,
        FlightCode::JobFail,
        FlightCode::GrowthDenied,
        FlightCode::DeadlineMiss,
        FlightCode::KernelLaunch,
        FlightCode::RunStart,
        FlightCode::RunEnd,
        FlightCode::ChunkCommit,
        FlightCode::ChunkReclaim,
        FlightCode::Donation,
        FlightCode::Heartbeat,
        FlightCode::Fault,
        FlightCode::RankDead,
        FlightCode::SchedErr,
        FlightCode::ServeErr,
        FlightCode::ArenaGrow,
        FlightCode::JobReadmit,
    ];

    /// Stable snake_case name used in dump files.
    pub fn as_str(self) -> &'static str {
        match self {
            FlightCode::JobSubmit => "job_submit",
            FlightCode::JobAdmit => "job_admit",
            FlightCode::JobComplete => "job_complete",
            FlightCode::JobFail => "job_fail",
            FlightCode::GrowthDenied => "growth_denied",
            FlightCode::DeadlineMiss => "deadline_miss",
            FlightCode::KernelLaunch => "kernel_launch",
            FlightCode::RunStart => "run_start",
            FlightCode::RunEnd => "run_end",
            FlightCode::ChunkCommit => "chunk_commit",
            FlightCode::ChunkReclaim => "chunk_reclaim",
            FlightCode::Donation => "donation",
            FlightCode::Heartbeat => "heartbeat",
            FlightCode::Fault => "fault",
            FlightCode::RankDead => "rank_dead",
            FlightCode::SchedErr => "sched_err",
            FlightCode::ServeErr => "serve_err",
            FlightCode::ArenaGrow => "arena_grow",
            FlightCode::JobReadmit => "job_readmit",
        }
    }

    /// Parses a dump-file code name.
    pub fn parse(s: &str) -> Option<FlightCode> {
        FlightCode::ALL.iter().copied().find(|c| c.as_str() == s)
    }
}

/// One fixed-size recorded event. `a`/`b` are code-specific payloads
/// (see [`FlightCode`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlightEvent {
    /// Global record order (fetch-add at record time).
    pub seq: u64,
    /// Microseconds since the recorder's epoch (process start of use).
    pub ts_us: u64,
    /// What happened.
    pub code: FlightCode,
    /// Distributed rank, when known.
    pub rank: Option<u32>,
    /// Recording thread's lane.
    pub lane: u32,
    /// First payload word.
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

impl ToJson for FlightEvent {
    fn to_json(&self) -> Json {
        let mut o = Json::obj([
            ("seq", Json::U64(self.seq)),
            ("ts_us", Json::U64(self.ts_us)),
            ("code", Json::Str(self.code.as_str().into())),
            ("lane", Json::U64(self.lane as u64)),
            ("a", Json::U64(self.a)),
            ("b", Json::U64(self.b)),
        ]);
        if let Some(r) = self.rank {
            o.set("rank", r);
        }
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

    /// Whether records are being kept.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records an event on the calling thread's shard. Fixed-size write,
    /// no allocation once the ring is warm.
    #[inline]
    pub fn record(&self, code: FlightCode, rank: Option<u32>, a: u64, b: u64) {
        if !self.enabled.load(Ordering::Relaxed) {
            return;
        }
        let lane = lane();
        let e = FlightEvent {
            seq: self.seq.fetch_add(1, Ordering::Relaxed),
            ts_us: self.epoch.elapsed().as_micros() as u64,
            code,
            rank,
            lane,
            a,
            b,
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

    /// Writes [`FlightRecorder::dump_json`] to `path`.
    pub fn dump_to_file(&self, path: &std::path::Path, reason: &str) -> std::io::Result<()> {
        std::fs::write(path, self.dump_json(reason).render())
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("total_recorded", &self.total_recorded())
            .finish()
    }
}

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();
static DUMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// The process-wide recorder (created enabled on first use).
pub fn recorder() -> &'static FlightRecorder {
    GLOBAL.get_or_init(FlightRecorder::new)
}

/// Records on the process-wide recorder with no rank tag.
#[inline]
pub fn record(code: FlightCode, a: u64, b: u64) {
    recorder().record(code, None, a, b);
}

/// Records on the process-wide recorder with a rank tag.
#[inline]
pub fn record_rank(rank: u32, code: FlightCode, a: u64, b: u64) {
    recorder().record(code, Some(rank), a, b);
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
    recorder().dump_to_file(&path, reason).ok()?;
    Some(path)
}

/// Parses a dump file produced by [`FlightRecorder::dump_to_file`] /
/// [`postmortem`]: returns the reason and the retained events.
pub fn parse_dump(text: &str) -> Result<(String, Vec<FlightEvent>), SchemaError> {
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
        let code_name = e
            .get("code")
            .and_then(Json::as_str)
            .ok_or_else(|| SchemaError::new(format!("event {i}: missing code")))?;
        let code = FlightCode::parse(code_name)
            .ok_or_else(|| SchemaError::new(format!("event {i}: unknown code '{code_name}'")))?;
        events.push(FlightEvent {
            seq: field("seq")?,
            ts_us: field("ts_us")?,
            code,
            rank: e.get("rank").and_then(Json::as_u64).map(|r| r as u32),
            lane: field("lane")? as u32,
            a: field("a")?,
            b: field("b")?,
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

    #[test]
    fn code_names_unique_and_parse_back() {
        let mut names: Vec<_> = FlightCode::ALL.iter().map(|c| c.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FlightCode::ALL.len());
        for c in FlightCode::ALL {
            assert_eq!(FlightCode::parse(c.as_str()), Some(c));
        }
        assert_eq!(FlightCode::parse("nope"), None);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let r = FlightRecorder::new();
        let n = (FLIGHT_CAPACITY + 100) as u64;
        for i in 0..n {
            r.record(FlightCode::Heartbeat, None, i, 0);
        }
        // Single thread → single shard: exactly FLIGHT_CAPACITY retained,
        // and they are the newest FLIGHT_CAPACITY records.
        let events = r.snapshot();
        assert_eq!(events.len(), FLIGHT_CAPACITY);
        assert_eq!(r.total_recorded(), n);
        assert_eq!(events.first().unwrap().a, n - FLIGHT_CAPACITY as u64);
        assert_eq!(events.last().unwrap().a, n - 1);
        // seq order is record order.
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let r = FlightRecorder::new();
        r.set_enabled(false);
        r.record(FlightCode::Heartbeat, None, 1, 2);
        assert_eq!(r.total_recorded(), 0);
        assert!(r.snapshot().is_empty());
        r.set_enabled(true);
        r.record(FlightCode::Heartbeat, None, 1, 2);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn dump_roundtrip() {
        let r = FlightRecorder::new();
        r.record(FlightCode::JobSubmit, None, 7, 0);
        r.record(FlightCode::JobFail, Some(2), 7, 0);
        let text = r.dump_json("test-crash").render();
        let (reason, events) = parse_dump(&text).expect("dump parses");
        assert_eq!(reason, "test-crash");
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].code, FlightCode::JobFail);
        assert_eq!(events[1].rank, Some(2));
        assert_eq!(events[1].a, 7);
    }

    #[test]
    fn parse_rejects_non_dumps() {
        assert!(parse_dump("{}").is_err());
        assert!(parse_dump("not json").is_err());
        let bad = Json::obj([
            ("flight_recorder", Json::U64(1)),
            ("reason", Json::Str("x".into())),
            (
                "events",
                Json::Arr(vec![Json::obj([("code", Json::Str("bogus".into()))])]),
            ),
        ]);
        assert!(parse_dump(&bad.render()).is_err());
    }

    #[test]
    fn postmortem_writes_parseable_file() {
        record(FlightCode::Heartbeat, 1, 2);
        let path = postmortem("unit-test").expect("dump written");
        let text = std::fs::read_to_string(&path).unwrap();
        let (reason, _) = parse_dump(&text).expect("file parses");
        assert_eq!(reason, "unit-test");
        let _ = std::fs::remove_file(path);
    }
}
