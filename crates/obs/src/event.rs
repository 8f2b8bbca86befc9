//! Typed events: what the journal records.

use crate::json::{Json, ToJson};

/// Event taxonomy. One variant per subsystem concern; exporters use the
/// lowercase name as the chrome-trace category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EventKind {
    /// A device kernel launch (grid-level, or per-SM when per-block
    /// tracing is on).
    Kernel,
    /// One BFS level expansion step of the search.
    Level,
    /// Distributed chunk lifecycle: assign / process / commit / duplicate /
    /// reclaim.
    Chunk,
    /// Work donation between ranks (send and receive sides).
    Donation,
    /// Plan-cache activity: hit / build.
    Plan,
    /// Trie lifecycle: budget sizing, spill into chunked BFS-DFS.
    Trie,
    /// Liveness heartbeat broadcast.
    Heartbeat,
    /// An injected fault firing.
    Fault,
    /// A whole engine run (top-level span).
    Run,
    /// Serving-tier job lifecycle: submit / complete / readmit.
    Job,
    /// Plan-time kernel-policy decisions: per-level micro-kernel choice
    /// and the signature-prefilter verdict.
    Policy,
    /// Snapshot container activity: save / load of warm-start artifacts.
    Snapshot,
    /// Arena-slab allocator activity: carve / acquire / release /
    /// chain-grow / high-water.
    Arena,
    /// Batch-dynamic lifecycle: graph edge-batch application, per-query
    /// match deltas, and replica loss in a watch session.
    Batch,
}

impl EventKind {
    /// Every kind, for exhaustive reporting.
    pub const ALL: [EventKind; 14] = [
        EventKind::Kernel,
        EventKind::Level,
        EventKind::Chunk,
        EventKind::Donation,
        EventKind::Plan,
        EventKind::Trie,
        EventKind::Heartbeat,
        EventKind::Fault,
        EventKind::Run,
        EventKind::Job,
        EventKind::Policy,
        EventKind::Snapshot,
        EventKind::Arena,
        EventKind::Batch,
    ];

    /// Stable lowercase name (chrome-trace `cat`, JSONL `kind`).
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Kernel => "kernel",
            EventKind::Level => "level",
            EventKind::Chunk => "chunk",
            EventKind::Donation => "donation",
            EventKind::Plan => "plan",
            EventKind::Trie => "trie",
            EventKind::Heartbeat => "heartbeat",
            EventKind::Fault => "fault",
            EventKind::Run => "run",
            EventKind::Job => "job",
            EventKind::Policy => "policy",
            EventKind::Snapshot => "snapshot",
            EventKind::Arena => "arena",
            EventKind::Batch => "batch",
        }
    }

    /// Parses a stable name back into its kind.
    pub fn parse(s: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.as_str() == s)
    }
}

/// An event argument value. Kept small; string arguments allocate, so hot
/// paths should prefer numeric args.
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// Unsigned integer.
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Float.
    F64(f64),
    /// String (allocates — avoid on hot paths).
    Str(String),
}

impl From<&Arg> for Json {
    fn from(a: &Arg) -> Json {
        match a {
            Arg::U64(v) => Json::U64(*v),
            Arg::I64(v) => Json::I64(*v),
            Arg::F64(v) => Json::F64(*v),
            Arg::Str(s) => Json::Str(s.clone()),
        }
    }
}

/// A hardware-counter delta attached to a span: the mirror of
/// `cuts_gpu_sim::Counters`, duplicated here so the observability crate
/// stays at the bottom of the dependency graph (gpu-sim converts via
/// `From<Counters>`).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CounterDelta {
    /// Words read from global memory.
    pub dram_reads: u64,
    /// Words written to global memory.
    pub dram_writes: u64,
    /// Words read from shared memory.
    pub shmem_reads: u64,
    /// Words written to shared memory.
    pub shmem_writes: u64,
    /// Global atomics.
    pub atomics: u64,
    /// Dynamic instructions.
    pub instructions: u64,
    /// Warp-divergent branches.
    pub divergent_branches: u64,
    /// Kernel launches.
    pub kernel_launches: u64,
}

impl CounterDelta {
    /// True when every field is zero.
    pub fn is_zero(&self) -> bool {
        *self == CounterDelta::default()
    }
}

impl ToJson for CounterDelta {
    fn to_json(&self) -> Json {
        Json::obj([
            ("dram_reads", self.dram_reads),
            ("dram_writes", self.dram_writes),
            ("shmem_reads", self.shmem_reads),
            ("shmem_writes", self.shmem_writes),
            ("atomics", self.atomics),
            ("instructions", self.instructions),
            ("divergent_branches", self.divergent_branches),
            ("kernel_launches", self.kernel_launches),
        ])
    }
}

/// One recorded event. Spans carry `dur_us`; instants do not.
#[derive(Debug, Clone)]
pub struct Event {
    /// Global insertion sequence (total order tie-breaker).
    pub seq: u64,
    /// Microseconds since the journal's epoch.
    pub ts_us: u64,
    /// Span duration; `None` marks an instant event.
    pub dur_us: Option<u64>,
    /// Taxonomy bucket.
    pub kind: EventKind,
    /// Human-readable name (e.g. `"expand"`, `"level 3"`, `"commit"`).
    pub name: String,
    /// Distributed rank, when known.
    pub rank: Option<u32>,
    /// Display track within the rank (thread lane, or SM lane for
    /// per-block kernel events).
    pub lane: u32,
    /// Structured key/value arguments.
    pub args: Vec<(&'static str, Arg)>,
    /// Hardware-counter delta covered by this span.
    pub counters: Option<CounterDelta>,
}

impl Event {
    /// The event's argument by key.
    pub fn arg(&self, key: &str) -> Option<&Arg> {
        self.args.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }
}

impl ToJson for Event {
    fn to_json(&self) -> Json {
        let mut o = Json::obj([
            ("seq", Json::U64(self.seq)),
            ("ts_us", Json::U64(self.ts_us)),
            ("kind", Json::Str(self.kind.as_str().into())),
            ("name", Json::Str(self.name.clone())),
            ("lane", Json::U64(self.lane as u64)),
        ]);
        if let Some(d) = self.dur_us {
            o.set("dur_us", d);
        }
        if let Some(r) = self.rank {
            o.set("rank", r);
        }
        if !self.args.is_empty() {
            o.set(
                "args",
                Json::Obj(
                    self.args
                        .iter()
                        .map(|(k, v)| (k.to_string(), Json::from(v)))
                        .collect(),
                ),
            );
        }
        if let Some(c) = &self.counters {
            o.set("counters", c.to_json());
        }
        o
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_unique() {
        let mut names: Vec<_> = EventKind::ALL.iter().map(|k| k.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EventKind::ALL.len());
        for k in EventKind::ALL {
            assert_eq!(EventKind::parse(k.as_str()), Some(k));
        }
        assert_eq!(EventKind::parse("nope"), None);
    }

    #[test]
    fn event_json_shape() {
        let e = Event {
            seq: 1,
            ts_us: 10,
            dur_us: Some(5),
            kind: EventKind::Kernel,
            name: "expand".into(),
            rank: Some(2),
            lane: 3,
            args: vec![("blocks", Arg::U64(8))],
            counters: Some(CounterDelta {
                dram_reads: 4,
                ..Default::default()
            }),
        };
        let j = e.to_json();
        assert_eq!(j.get("kind").unwrap().as_str(), Some("kernel"));
        assert_eq!(j.get("dur_us").unwrap().as_u64(), Some(5));
        assert_eq!(
            j.get("args").unwrap().get("blocks").unwrap().as_u64(),
            Some(8)
        );
        assert_eq!(
            j.get("counters")
                .unwrap()
                .get("dram_reads")
                .unwrap()
                .as_u64(),
            Some(4)
        );
        // Renders to valid JSON.
        crate::json::Json::parse(&j.render()).unwrap();
    }
}
