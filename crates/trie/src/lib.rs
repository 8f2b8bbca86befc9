#![warn(missing_docs)]

//! The cuTS trie (§4.1.1) and the representations it is evaluated against.
//!
//! The paper's central data structure stores the set of partial match paths
//! as two flat device arrays: a **parent array (PA)** holding, for every
//! entry, the index of its parent entry in the previous level, and a
//! **candidate array (CA)** holding the matched data-graph vertex. A single
//! atomic fetch-add claims write space, so children of different parents
//! can interleave freely — the property that lets cuTS build levels in one
//! pass where CSF needs two.
//!
//! This crate provides:
//!
//! * [`PairTable`] — the PA/CA array pair with the shared atomic cursor.
//! * [`Trie`] — levels over a pair table, path extraction, chunking.
//! * [`HostTrie`] — a heap-side copy (seeded runs, verification, tests).
//! * [`csf`] — the Compressed Sparse Fibre representation of the same
//!   path set (the two-pass alternative of Figure 3(B)).
//! * [`space`] — word-exact storage accounting (Table 1, Figure 2(C)).

pub mod chunk;
pub mod csf;
pub mod space;
pub mod table;
pub mod trie;

pub use chunk::Chunks;
pub use table::{Counted, PairRange, PairTable};
pub use trie::{HostTrie, Trie, NO_PARENT};
