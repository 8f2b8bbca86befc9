#![warn(missing_docs)]

//! # cuts — trie-based subgraph isomorphism, distributed, on a simulated GPU
//!
//! Facade crate re-exporting the whole cuTS reproduction workspace:
//!
//! * [`graph`] — CSR graphs, dataset generators, query-set enumeration.
//! * [`gpu`] — the simulated GPU substrate (devices, counters, memory).
//! * [`trie`] — the PA/CA trie, CSF, and the Table 1 storage-space model.
//! * [`engine`] — the cuTS matching engine.
//! * [`baseline`] — GSI-style / Gunrock-style / CPU baselines.
//! * [`dist`] — the distributed runtime and Algorithm-3 scheduler.
//!
//! ```
//! use cuts::prelude::*;
//!
//! let data = cuts::graph::generators::mesh2d(4, 4);
//! let query = cuts::graph::generators::chain(3);
//! let device = Device::new(DeviceConfig::test_small());
//! let session = ExecSession::new(&device, EngineConfig::default());
//! let result = session.run(&data, &query).unwrap();
//! assert!(result.num_matches > 0);
//! // Warm runs reuse the cached plan and the arena-chained trie slabs.
//! session.run(&data, &query).unwrap();
//! assert_eq!(session.stats().plans.hits, 1);
//! ```

pub use cuts_baseline as baseline;
pub use cuts_core as engine;
pub use cuts_dist as dist;
pub use cuts_gpu_sim as gpu;
pub use cuts_graph as graph;
pub use cuts_trie as trie;

/// Most-used types in one import.
pub mod prelude {
    pub use cuts_core::prelude::*;
    pub use cuts_core::SessionStats;
    pub use cuts_gpu_sim::{Device, DeviceConfig};
    pub use cuts_graph::{Dataset, Graph, GraphBuilder, Scale};
}
