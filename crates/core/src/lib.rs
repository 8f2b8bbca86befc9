#![warn(missing_docs)]

//! The cuTS matching engine (§4 of the paper).
//!
//! Pipeline: compute a degree-greedy matching [`order`], filter the
//! level-0 candidate set (Definition 5), then repeatedly extend every
//! partial path by one query vertex — intersecting the adjacency lists of
//! its already-matched neighbours with one of the [`intersect`]
//! micro-kernels — writing results into the PA/CA trie with a single atomic
//! per path. When the trie cannot hold a full BFS level, the engine falls
//! back to the hybrid BFS-DFS strategy: the frontier is chunked (default
//! 512) and each chunk's subtree is explored to completion before its
//! scratch levels are reclaimed.
//!
//! Execution is split into two phases: a [`QueryPlan`] (immutable,
//! device-independent — built once per query/config/device-class) and an
//! [`ExecSession`] (device-bound, reusable — arena-backed trie slabs, scoped
//! counters, an LRU [`PlanCache`]). The session is the engine's one
//! entry point: `ExecSession::new(&device, config)`, then `run`.
//!
//! Semantics: all injective mappings `f : V_Q → V_D` with every query edge
//! mapped to a data edge (subgraph isomorphism *search*, Definition 4;
//! non-induced). A sequential CPU [`mod@reference`] matcher provides ground
//! truth for tests.

pub mod cache;
pub mod complexity;
pub mod config;
pub mod dynamic;
pub mod error;
pub mod fault;
pub mod intersect;
pub mod job;
pub mod kernels;
pub mod ledger;
pub mod order;
pub mod plan;
pub mod policy;
pub mod prelude;
pub mod reference;
pub mod result;
pub mod serve;
pub mod session;
pub mod snapshot;
pub mod watch;

pub use cache::{PlanCache, PlanCacheStats};
pub use config::{EngineConfig, IntersectStrategy, VirtualWarpPolicy};
pub use dynamic::{BatchOutcome, DynamicError, DynamicSession, MatchDelta, StandingQueryId};
pub use error::{
    ConfigError, CutsError, DistError, EngineError, SchedError, SnapshotError, WireError,
};
pub use fault::{CrashKind, FaultInjector, FaultPlan};
pub use job::{ClassSlo, Job, JobId, JobOutcome, SloReport, StatsSink};
pub use ledger::{AliveBoard, WorkId, WorkLedger};
pub use order::{BackEdge, Dir, MatchOrder, OrderPolicy};
pub use plan::{BudgetCheck, DeviceClass, LevelSchedule, PlanKey, QueryPlan};
pub use policy::{KernelPolicy, LevelDecision, LevelMethod};
pub use result::MatchResult;
pub use serve::{ServeConfig, ServeConfigBuilder, ServeReport, ServeStats, ServeTier};
pub use session::{ExecSession, MatchSink, SessionStats};
pub use snapshot::{Snapshot, SnapshotInfo, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use watch::{WatchSession, WatchUpdate, Watcher};
