#![warn(missing_docs)]

//! Graph substrate for the cuTS reproduction.
//!
//! This crate provides everything the matching engine needs from the "graph
//! world" of the paper:
//!
//! * [`Csr`] / [`Graph`] — compressed-sparse-row storage with both out- and
//!   in-adjacency, the representation §4.1.2 of the paper assumes ("Since we
//!   use the CSR data structure to represent the data graph, finding the
//!   neighbors ... can be done with O(1) time cost").
//! * [`GraphBuilder`] — edge-list ingestion with deduplication and
//!   symmetrisation of undirected inputs (Definition 1).
//! * [`batch`] — streaming mutation: validated edge insert/delete batches
//!   ([`EdgeBatch`]) applied in place with profile/fingerprint
//!   invalidation, returning the [`GraphDelta`] the incremental matcher
//!   consumes.
//! * [`edgelist`] — the SNAP text format the paper's datasets ship in.
//! * [`generators`] — synthetic graph families, including degree-skewed
//!   stand-ins for the six SNAP datasets of Table 2 (see [`datasets`]).
//! * [`query_gen`] — exact enumeration of the paper's query sets: all
//!   non-isomorphic connected graphs on 5/6/7 vertices, top-11 by edge count.
//! * [`components`] — weakly-connected-component labelling, the
//!   connectivity check for generated queries and data graphs.
//! * [`canonical`] — brute-force canonical forms for small graphs (exact for
//!   the ≤7-vertex query graphs), used for dedup and testing.

pub mod batch;
pub mod builder;
pub mod canonical;
pub mod components;
pub mod csr;
pub mod datasets;
pub mod edgelist;
pub mod generators;
pub mod graph;
pub mod labels;
pub mod profile;
pub mod query_gen;
pub mod stats;

pub use batch::{BatchError, EdgeBatch, GraphDelta};
pub use builder::GraphBuilder;
pub use csr::Csr;
pub use datasets::{Dataset, Scale};
pub use graph::{Graph, VertexId};
pub use profile::DataProfile;
pub use query_gen::{query_set, QueryGraph};
