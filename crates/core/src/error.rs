//! The workspace error hierarchy.
//!
//! [`EngineError`] stays the narrow per-run failure type; everything a
//! caller can see across the workspace converges on [`CutsError`], the
//! single `#[non_exhaustive]` top-level error with `From` conversions
//! from every layer (device, engine, wire, distributed runtime,
//! configuration, serving, graph parsing). No public API in the
//! workspace returns `String` or `Box<dyn Error>`.

use cuts_gpu_sim::DeviceError;
use cuts_graph::edgelist::ParseError;

/// Failures of a matching run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Device allocation or capacity failure — the paper's "-" entries.
    Device(DeviceError),
    /// The query has no vertices.
    EmptyQuery,
    /// The query is not (weakly) connected.
    DisconnectedQuery,
    /// Even a single partial path's expansion cannot fit in the remaining
    /// trie space: the instance is genuinely too large for this device.
    CapacityExhausted {
        /// Query depth reached before giving up.
        depth: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Device(e) => write!(f, "device error: {e}"),
            EngineError::EmptyQuery => write!(f, "query graph has no vertices"),
            EngineError::DisconnectedQuery => {
                write!(f, "query graph is disconnected; split components first")
            }
            EngineError::CapacityExhausted { depth } => {
                write!(
                    f,
                    "trie capacity exhausted at depth {depth} even with chunk size 1"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<DeviceError> for EngineError {
    fn from(e: DeviceError) -> Self {
        EngineError::Device(e)
    }
}

/// A configuration rejected at build time by [`crate::EngineConfig::validate`]
/// or one of the validating builders ([`crate::ServeConfig::builder`],
/// `DistConfig::builder`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A field value is out of its legal range.
    Invalid {
        /// The offending builder field.
        field: &'static str,
        /// Why the value is rejected.
        reason: &'static str,
    },
    /// The trie budget implied by the configuration does not fit the
    /// device's global memory.
    Budget {
        /// Words the configuration would need.
        required_words: usize,
        /// Words the device actually has.
        device_words: usize,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Invalid { field, reason } => {
                write!(f, "invalid config field `{field}`: {reason}")
            }
            ConfigError::Budget {
                required_words,
                device_words,
            } => write!(
                f,
                "config requires {required_words} words but the device has {device_words}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Job-submission failures surfaced by the serving tier ([`crate::serve`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchedError {
    /// The bounded submission queue is full — backpressure. Retry after
    /// draining some completions.
    Busy {
        /// Configured submission-queue capacity.
        capacity: usize,
    },
    /// The tier has stopped accepting jobs (its run scope ended).
    Closed,
    /// A deadline-bounded submission waited its whole budget without the
    /// queue draining (see [`crate::serve::ServeHandle::submit_wait_timeout`]). Distinct
    /// from [`SchedError::Busy`] — the caller *did* wait — so load-shed
    /// policies and CLI exit codes can react differently.
    Timeout {
        /// How long the submission waited, in milliseconds.
        waited_millis: u64,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Busy { capacity } => {
                write!(f, "submission queue full (capacity {capacity})")
            }
            SchedError::Closed => write!(f, "serving tier is closed to new jobs"),
            SchedError::Timeout { waited_millis } => {
                write!(
                    f,
                    "submission timed out after {waited_millis} ms of backpressure"
                )
            }
        }
    }
}

impl std::error::Error for SchedError {}

/// Errors from decoding a donated-work (`WORK`) payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Payload shorter than its header claims.
    Truncated,
    /// Header fields are internally inconsistent.
    Corrupt(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "payload truncated"),
            WireError::Corrupt(what) => write!(f, "payload corrupt: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Failures of the distributed runtime. Defined here (rather than in
/// `cuts-dist`) so the whole hierarchy converges on [`CutsError`]
/// without a dependency cycle; `cuts-dist` re-exports it as its worker
/// error type.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DistError {
    /// A rank's local engine failed.
    Engine(EngineError),
    /// A donated-work payload failed to decode.
    Wire(WireError),
    /// An injected crash fault fired (fault-plan testing).
    InjectedCrash {
        /// The rank that crashed.
        rank: usize,
        /// Chunks the rank completed before crashing. In the serving tier,
        /// the jobs the rank completed: its crash clock counts jobs admitted
        /// tier-wide, so this can differ from the plan's `C`.
        after_chunks: usize,
    },
    /// A rank's thread panicked.
    Panicked {
        /// The rank whose worker panicked.
        rank: usize,
    },
    /// A fault-plan spec string failed to parse.
    FaultSpec {
        /// The offending clause, verbatim.
        clause: String,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// A fault-plan clause names a rank outside the run's world size.
    RankOutOfRange {
        /// The out-of-range rank.
        rank: usize,
        /// World size of the run.
        ranks: usize,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Engine(e) => write!(f, "engine error: {e}"),
            DistError::Wire(e) => write!(f, "wire error: {e}"),
            DistError::InjectedCrash { rank, after_chunks } => {
                write!(
                    f,
                    "injected crash on rank {rank} after {after_chunks} chunks"
                )
            }
            DistError::Panicked { rank } => write!(f, "rank {rank} panicked"),
            DistError::FaultSpec { clause, reason } => {
                write!(f, "bad fault clause `{clause}`: {reason}")
            }
            DistError::RankOutOfRange { rank, ranks } => {
                write!(
                    f,
                    "fault plan names rank {rank}, but the run has {ranks} rank(s)"
                )
            }
        }
    }
}

impl std::error::Error for DistError {}

impl From<EngineError> for DistError {
    fn from(e: EngineError) -> Self {
        DistError::Engine(e)
    }
}

impl From<WireError> for DistError {
    fn from(e: WireError) -> Self {
        DistError::Wire(e)
    }
}

/// Failures of the snapshot container format ([`crate::snapshot`]).
/// Every decoder in that module returns one of these typed variants —
/// corrupt or hostile bytes must never panic or decode silently wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with the `CUTSNAP\0` magic.
    BadMagic,
    /// The container's format version is not the one this build reads
    /// (older or newer).
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
    },
    /// The payload ends before its headers say it should.
    Truncated,
    /// The section table's CRC-32 does not match its contents.
    TableChecksum,
    /// One section's CRC-32 does not match its payload.
    SectionChecksum {
        /// Four-byte ASCII tag of the failing section.
        section: [u8; 4],
    },
    /// A required section is absent from the table.
    MissingSection {
        /// Four-byte ASCII tag of the missing section.
        section: [u8; 4],
    },
    /// Section contents are internally inconsistent.
    Corrupt(&'static str),
    /// The snapshot was captured from a different graph state than the
    /// live graph it is being validated against (see
    /// `Snapshot::validate_for`) — its warm artifacts would silently
    /// describe stale data.
    StaleGraph {
        /// Fingerprint of the graph inside the snapshot.
        snapshot: u64,
        /// Fingerprint of the live graph.
        live: u64,
    },
}

/// Renders a section tag for error messages; non-ASCII bytes escaped.
fn tag_display(tag: &[u8; 4]) -> String {
    tag.iter()
        .flat_map(|&b| (b as char).escape_default())
        .collect()
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a cuts snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found } => {
                write!(f, "unsupported snapshot format version {found}")
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::TableChecksum => write!(f, "snapshot section table checksum mismatch"),
            SnapshotError::SectionChecksum { section } => {
                write!(
                    f,
                    "snapshot section `{}` checksum mismatch",
                    tag_display(section)
                )
            }
            SnapshotError::MissingSection { section } => {
                write!(f, "snapshot section `{}` missing", tag_display(section))
            }
            SnapshotError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
            SnapshotError::StaleGraph { snapshot, live } => write!(
                f,
                "snapshot is stale: captured from graph {snapshot:#018x}, live graph is {live:#018x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The unified top-level error: every fallible public operation in the
/// workspace converges here via `From`. Marked `#[non_exhaustive]` so
/// new failure classes can be added without a breaking release.
#[derive(Debug)]
#[non_exhaustive]
pub enum CutsError {
    /// A matching run failed.
    Engine(EngineError),
    /// A device operation failed outside an engine run.
    Device(DeviceError),
    /// A serialized payload failed to decode.
    Wire(WireError),
    /// The distributed runtime failed.
    Dist(DistError),
    /// A configuration was rejected at build time.
    Config(ConfigError),
    /// The serving tier rejected or abandoned a job.
    Sched(SchedError),
    /// An edge-list input failed to parse.
    Parse(ParseError),
    /// A snapshot container failed to decode.
    Snapshot(SnapshotError),
    /// A host-side I/O operation failed.
    Io {
        /// The path involved, when known.
        path: String,
        /// The underlying OS error, rendered.
        message: String,
    },
    /// A user-supplied value (CLI flag, manifest field, query spec) is
    /// not acceptable.
    Invalid {
        /// What kind of value was being parsed.
        what: &'static str,
        /// The value as given.
        given: String,
    },
    /// An engine cannot represent the instance at all — e.g. the Gunrock
    /// baseline's base-`|V_D|` path encoding overflowing 64 bits (§3).
    Unsupported {
        /// The mechanism that cannot cope.
        what: &'static str,
        /// Which limit the instance exceeds.
        detail: String,
    },
}

impl std::fmt::Display for CutsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CutsError::Engine(e) => write!(f, "{e}"),
            CutsError::Device(e) => write!(f, "device error: {e}"),
            CutsError::Wire(e) => write!(f, "wire error: {e}"),
            CutsError::Dist(e) => write!(f, "{e}"),
            CutsError::Config(e) => write!(f, "{e}"),
            CutsError::Sched(e) => write!(f, "{e}"),
            CutsError::Parse(e) => write!(f, "{e}"),
            CutsError::Snapshot(e) => write!(f, "{e}"),
            CutsError::Io { path, message } => {
                if path.is_empty() {
                    write!(f, "i/o error: {message}")
                } else {
                    write!(f, "i/o error on {path}: {message}")
                }
            }
            CutsError::Invalid { what, given } => write!(f, "invalid {what}: `{given}`"),
            CutsError::Unsupported { what, detail } => {
                write!(f, "{what} cannot represent this instance: {detail}")
            }
        }
    }
}

impl std::error::Error for CutsError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CutsError::Engine(e) => Some(e),
            CutsError::Device(e) => Some(e),
            CutsError::Wire(e) => Some(e),
            CutsError::Dist(e) => Some(e),
            CutsError::Config(e) => Some(e),
            CutsError::Sched(e) => Some(e),
            CutsError::Parse(e) => Some(e),
            CutsError::Snapshot(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for CutsError {
    fn from(e: EngineError) -> Self {
        CutsError::Engine(e)
    }
}

impl From<DeviceError> for CutsError {
    fn from(e: DeviceError) -> Self {
        CutsError::Device(e)
    }
}

impl From<WireError> for CutsError {
    fn from(e: WireError) -> Self {
        CutsError::Wire(e)
    }
}

impl From<DistError> for CutsError {
    fn from(e: DistError) -> Self {
        CutsError::Dist(e)
    }
}

impl From<ConfigError> for CutsError {
    fn from(e: ConfigError) -> Self {
        CutsError::Config(e)
    }
}

impl From<SchedError> for CutsError {
    fn from(e: SchedError) -> Self {
        CutsError::Sched(e)
    }
}

impl From<ParseError> for CutsError {
    fn from(e: ParseError) -> Self {
        CutsError::Parse(e)
    }
}

impl From<SnapshotError> for CutsError {
    fn from(e: SnapshotError) -> Self {
        CutsError::Snapshot(e)
    }
}

impl From<std::io::Error> for CutsError {
    fn from(e: std::io::Error) -> Self {
        CutsError::Io {
            path: String::new(),
            message: e.to_string(),
        }
    }
}

impl CutsError {
    /// An [`CutsError::Io`] annotated with the path involved.
    pub fn io(path: impl Into<String>, e: std::io::Error) -> Self {
        CutsError::Io {
            path: path.into(),
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cuts_error_from_every_layer() {
        let device = DeviceError::OutOfMemory {
            requested: 8,
            available: 0,
        };
        let cases: Vec<CutsError> = vec![
            EngineError::EmptyQuery.into(),
            device.into(),
            WireError::Truncated.into(),
            DistError::Panicked { rank: 2 }.into(),
            ConfigError::Invalid {
                field: "ranks",
                reason: "must be at least 1",
            }
            .into(),
            SchedError::Busy { capacity: 4 }.into(),
            std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into(),
        ];
        for e in &cases {
            assert!(!e.to_string().is_empty());
        }
        assert!(matches!(
            cases[3],
            CutsError::Dist(DistError::Panicked { rank: 2 })
        ));
        let io = CutsError::io("graph.txt", std::io::Error::other("boom"));
        assert!(io.to_string().contains("graph.txt"));
    }

    #[test]
    fn snapshot_error_display_and_from() {
        let cases = [
            SnapshotError::BadMagic,
            SnapshotError::UnsupportedVersion { found: 9 },
            SnapshotError::Truncated,
            SnapshotError::TableChecksum,
            SnapshotError::SectionChecksum { section: *b"PROF" },
            SnapshotError::MissingSection { section: *b"GRPH" },
            SnapshotError::Corrupt("bad plan"),
        ];
        for e in &cases {
            assert!(!e.to_string().is_empty());
            let top: CutsError = e.clone().into();
            assert!(matches!(top, CutsError::Snapshot(_)));
        }
        assert!(cases[4].to_string().contains("PROF"));
    }

    #[test]
    fn dist_error_display_and_from() {
        let e: DistError = EngineError::EmptyQuery.into();
        assert!(e.to_string().contains("engine error"));
        let e: DistError = WireError::Truncated.into();
        assert!(e.to_string().contains("wire error"));
        assert!(DistError::RankOutOfRange { rank: 5, ranks: 2 }
            .to_string()
            .contains("rank 5"));
        assert!(DistError::FaultSpec {
            clause: "bogus".into(),
            reason: "unknown kind",
        }
        .to_string()
        .contains("bogus"));
    }

    #[test]
    fn config_and_sched_display() {
        assert!(ConfigError::Budget {
            required_words: 100,
            device_words: 10,
        }
        .to_string()
        .contains("100"));
        assert!(SchedError::Busy { capacity: 7 }.to_string().contains("7"));
        assert!(SchedError::Closed.to_string().contains("closed"));
    }

    #[test]
    fn display_and_from() {
        let e: EngineError = DeviceError::OutOfMemory {
            requested: 1,
            available: 0,
        }
        .into();
        assert!(e.to_string().contains("device error"));
        assert!(EngineError::CapacityExhausted { depth: 3 }
            .to_string()
            .contains("depth 3"));
    }
}
