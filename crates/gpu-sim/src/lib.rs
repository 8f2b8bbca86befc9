#![warn(missing_docs)]

//! Software-simulated GPU execution substrate for the cuTS reproduction.
//!
//! The paper's engine is a set of CUDA kernels; this crate provides the
//! execution model those kernels assume, in plain Rust:
//!
//! * [`DeviceConfig`] — SM count, shared-memory size, global memory
//!   capacity, DRAM bandwidth and clock. Presets mirror the paper's two
//!   test machines ([`DeviceConfig::v100_like`],
//!   [`DeviceConfig::a100_like`]) with memory budgets scaled down
//!   proportionally (32 GB : 40 GB ratio preserved), so out-of-memory
//!   behaviour reproduces in shape.
//! * [`Device`] — owns capacity accounting and aggregated counters; its
//!   one grid launch, [`Device::launch_ordered`], runs a grid of thread
//!   blocks, one closure activation per block, whose blocks may append
//!   runs to a table (the search kernel's trie writes, a baseline's flat
//!   level). Blocks run in block-id order on the calling thread until a
//!   launch has run long enough to spread over the host cores the
//!   process-wide [`HostCores`] ledger has free; blocks then stage their
//!   runs and commit them in block-id order, so the table layout and
//!   every counter equal the in-order run's however many helper threads
//!   join or leave. [`Device::run_single_block`] runs a one-block kernel
//!   on the calling thread.
//! * [`Counters`] — Nsight-Compute-style hardware metrics: DRAM reads and
//!   writes, shared-memory traffic, atomics, executed instructions, warp
//!   divergence. §6 of the paper argues its speedup *through* these
//!   counters (200× DRAM reads, 34× shared-memory writes, 2× atomics, 7×
//!   instructions vs GSI), so the simulation keeps them first-class.
//! * [`GlobalBuffer`] — a device-resident word array supporting the
//!   paper's write pattern: reserve a range with one atomic, then fill it
//!   without synchronisation ("our strategy only requires an atomic
//!   operation to find the write location").
//! * [`CostModel`] — a roofline translation of counters into simulated
//!   kernel time, so "runtime" comparisons are architecture-scaled rather
//!   than host-scheduler noise.
//! * [`Arena`] — the memory discipline execution sessions run on: **one**
//!   device reservation per session (the *carve*), split into power-of-two
//!   slab classes tracked by lock-free `u64` bitmaps (`cuts-bitalloc`).
//!   Slab acquire/release is an O(1) CAS; trie storage grows by chaining
//!   another slab instead of reallocating, so a warm session performs
//!   zero device-allocator calls — asserted in tests and gated in CI.

pub mod arena;
pub mod buffer;
pub mod config;
pub mod cores;
pub mod cost;
pub mod counters;
pub mod device;
pub mod error;
pub mod ordered;
pub mod primitives;

pub use arena::{Arena, ArenaStats, ClassSpec, ClassStats, Slab};
pub use buffer::GlobalBuffer;
pub use config::DeviceConfig;
pub use cores::{Holding, HostCores};
pub use cost::{Bound, CostBreakdown, CostModel, SimTime};
pub use counters::{BlockCounters, CounterSink, Counters};
pub use device::{BlockCtx, Device};
pub use error::DeviceError;
pub use ordered::{RunOut, RunTarget, StagedRuns};
