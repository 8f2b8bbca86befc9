#![warn(missing_docs)]

//! Unified tracing + profiling layer for the cuTS reproduction.
//!
//! The paper's evaluation is built on Nsight Compute counters and
//! per-node timelines; this crate is the reproduction's equivalent
//! substrate, shared by every other crate:
//!
//! * [`Trace`] / [`Span`] — a lightweight emission API over a monotonic
//!   clock with rank/lane tags and hardware-counter-delta attachment.
//!   A disabled `Trace` (the default) costs one `Option` check per call
//!   site and performs **zero** allocations.
//! * [`Journal`] — a lossless, lock-sharded recorder of typed [`Event`]s:
//!   kernel launches, per-level expansion steps, trie budget/spill,
//!   buffer-pool hits/misses, plan-cache hits, chunk lifecycle
//!   (assign/process/donate/commit/reclaim), heartbeats, and injected
//!   faults.
//! * [`export`] — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto; one process track per rank, one
//!   thread track per lane and per SM), flat JSONL, and a structural
//!   validator for tests.
//! * [`metrics`] — a Prometheus-style text snapshot.
//! * [`summary`] — [`JournalSummary`], the one pass over a drained
//!   journal that `cuts profile`, `--metrics-out` and the serve report
//!   render (kernel totals count launch spans only).
//! * [`registry`] — always-on serving metrics: lock-free lane-sharded
//!   counters, gauges, and log2-bucketed latency histograms with a
//!   zero-cost disabled path (the journal answers "what happened in
//!   this run"; the registry answers "what are my p99s right now").
//! * [`flight`] — the crash flight recorder: a bounded, lossy,
//!   overwrite-oldest ring in the journal's vocabulary, fed by every
//!   [`Trace`] instant of a lifecycle kind even when the journal is off,
//!   dumped to a post-mortem file on failure paths.
//! * [`json`] — the workspace's serde stand-in ([`ToJson`]) plus a small
//!   parser, so structured output is built from trees rather than
//!   hand-formatted strings.

pub mod event;
pub mod export;
pub mod flight;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod registry;
pub mod summary;
pub mod trace;

pub use event::{Arg, CounterDelta, Event, EventKind};
pub use export::{chrome_trace, jsonl, validate_chrome, ChromeSummary, SM_LANE_BASE};
pub use flight::{FlightEvent, FlightRecorder};
pub use journal::{lane, Journal};
pub use json::{Json, SchemaError, ToJson};
pub use metrics::{validate_exposition, Metric, MetricKind, MetricsSnapshot};
pub use registry::{Counter, Gauge, Hist, HistSnapshot, Registry};
pub use summary::{reuse_pct, JournalSummary, SpanTotals};
pub use trace::{Span, Trace, TraceConfig};
