//! Dense-community search in a location-based social network — the
//! gowalla-style workload from the paper's evaluation: find all 4- and
//! 5-cliques (tightly-knit friend groups), the densest and therefore
//! hardest query graphs of Table 3.
//!
//! Also demonstrates the memory story: the same workload is run with flat
//! (GSI-style) storage and with the cuTS trie on an artificially small
//! device, showing the baseline OOM where the trie survives via hybrid
//! BFS-DFS chunking.
//!
//! ```sh
//! cargo run --release --example social_cliques
//! ```

use cuts::baseline::{CutsError, GsiEngine};
use cuts::graph::generators::clique;
use cuts::prelude::*;

fn main() {
    // gowalla-like stand-in, scaled down for an example binary.
    let social = Dataset::Gowalla.generate(Scale::Tiny);
    println!(
        "gowalla-like: {} vertices, {} arcs (max degree {})",
        social.num_vertices(),
        social.num_edges(),
        social.max_out_degree()
    );

    let device = Device::new(DeviceConfig::v100_like());
    let session = ExecSession::new(&device, EngineConfig::default());

    for k in [3usize, 4, 5] {
        let q = clique(k);
        match session.run(&social, &q) {
            Ok(r) => {
                let auts: u64 = (1..=k as u64).product();
                println!(
                    "K{k}: {:>12} embeddings ({:>10} distinct cliques), {:>9.2} sim-ms, chunked: {}",
                    r.num_matches,
                    r.num_matches / auts,
                    r.sim_millis,
                    r.used_chunking
                );
            }
            Err(e) => println!("K{k}: failed ({e})"),
        }
    }

    // Memory showdown on a deliberately tiny device.
    println!("\n--- memory-pressure comparison (tiny device) ---");
    let tiny = Device::new(DeviceConfig::test_small().with_global_mem_words(30_000));
    let q4 = clique(4);
    match GsiEngine::new(&tiny).run(&social, &q4) {
        Ok(r) => println!("GSI-style (flat storage): {} matches", r.num_matches),
        Err(e @ CutsError::Device(_)) => {
            println!("GSI-style (flat storage): FAILED — {e}")
        }
        Err(e) => println!("GSI-style: {e}"),
    }
    match ExecSession::new(&tiny, EngineConfig::default()).run(&social, &q4) {
        Ok(r) => println!(
            "cuTS (trie + chunking):   {} matches (chunked: {})",
            r.num_matches, r.used_chunking
        ),
        Err(e) => println!("cuTS: FAILED — {e}"),
    }
}
