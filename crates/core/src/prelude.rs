//! The one-line import for typical users of the engine:
//! `use cuts_core::prelude::*;` brings in the plan/session split
//! ([`ExecSession`] is the engine's one entry point), the serving tier
//! and its job types, the unified error type, and the engine and serving
//! configs — everything the README quick-starts use, and nothing obscure
//! enough to collide with caller names.

#![deny(missing_docs)]

pub use crate::config::{EngineConfig, IntersectStrategy};
pub use crate::error::{ConfigError, CutsError, EngineError, SchedError};
pub use crate::fault::FaultPlan;
pub use crate::job::{ClassSlo, Job, JobId, JobOutcome, SloReport};
pub use crate::plan::QueryPlan;
pub use crate::result::MatchResult;
pub use crate::serve::{ServeConfig, ServeConfigBuilder, ServeReport, ServeStats, ServeTier};
pub use crate::session::ExecSession;
pub use crate::snapshot::Snapshot;
