#![warn(missing_docs)]

//! Distributed cuTS (§4.2): the first distributed subgraph-isomorphism
//! runtime for (simulated) GPUs.
//!
//! The paper's cluster is N single-V100 nodes over OpenMPI; here each
//! "node" is an OS thread owning its own simulated [`cuts_gpu_sim::Device`]
//! (its own memory budget and counters), and [`mpi`] provides the
//! message-passing substrate: ranked endpoints with tagged, non-blocking
//! sends over crossbeam channels, per-sender FIFO like MPI point-to-point.
//!
//! Work distribution follows Algorithm 3's chunked, fully asynchronous
//! design: no barrier between levels. Each rank processes its share of
//! root candidates as a queue of path-batch jobs; between jobs it polls
//! for `FREE` broadcasts and donates part of its queue to exactly one free
//! node through the claim/ack [`protocol`] ("only one busy node sends data
//! to a given free node, and a given busy node only sends data to one free
//! node"). A chunk is its root vertices: donated chunks travel as
//! root-id lists ([`protocol::WorkPayload`]), and the receiver resumes
//! each via [`cuts_core::ExecSession::run_seeded`].
//!
//! Beyond the paper, the runtime is fault-tolerant: [`cuts_core::fault`]
//! injects deterministic rank crashes, message drops, and delays; the
//! [`ChunkLedger`] — the generic [`cuts_core::ledger::WorkLedger`] over
//! root-vertex chunks — tracks chunk ownership so survivors reclaim a
//! dead rank's pending work; and any schedule that leaves one rank alive
//! completes with the exact fault-free match count (see `DESIGN.md` §7).

pub mod config;
pub mod metrics;
pub mod mpi;
pub mod protocol;
pub mod runner;
pub mod sync_runner;
pub mod worker;

pub use config::DistConfig;
pub use cuts_core::fault::{FaultInjector, FaultPlan};
pub use cuts_core::ledger::AliveBoard;
pub use metrics::{DistResult, RankMetrics, RecoveryStats};
pub use mpi::{Comm, Message};
pub use runner::run;
pub use sync_runner::{run_synchronous, SyncResult};
pub use worker::Partition;

/// Stable identity of one chunk of outer-loop work.
pub type ChunkId = cuts_core::ledger::WorkId;

/// Shared chunk-ownership and result store: the generic ledger with a
/// chunk's root vertices as its unit of work.
pub type ChunkLedger = cuts_core::ledger::WorkLedger<Vec<cuts_graph::VertexId>>;
