//! Quickstart: count and list triangles in a small social-style graph.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use cuts::graph::generators::{clique, erdos_renyi};
use cuts::prelude::*;

fn main() {
    // A data graph: 200 people, ~800 friendships, plus one tight clique.
    let social = erdos_renyi(200, 800, 42);
    println!(
        "data graph: {} vertices, {} undirected edges",
        social.num_vertices(),
        social.num_input_edges()
    );

    // The query: a triangle.
    let triangle = clique(3);

    // A simulated device (paper-shaped: V100). The engine allocates its
    // PA/CA trie from the device's free memory, exactly like the paper.
    let device = Device::new(DeviceConfig::v100_like());
    let session = ExecSession::new(&device, EngineConfig::default());

    let result = session.run(&social, &triangle).expect("run failed");
    println!(
        "triangle embeddings: {} (each triangle counted once per automorphism: 6)",
        result.num_matches
    );
    println!("distinct triangles:  {}", result.num_matches / 6);
    println!("matching order:      {:?}", result.order);
    println!("partial paths/depth: {:?}", result.level_counts);
    println!(
        "trie storage: {} words (naive flat storage would need {})",
        result.cuts_words(),
        result.naive_words()
    );
    println!(
        "hardware counters: {} DRAM reads, {} atomics, {} instructions",
        result.counters.dram_reads, result.counters.atomics, result.counters.instructions
    );
    println!("simulated kernel time: {:.3} ms", result.sim_millis);

    // Enumerate a few concrete matches.
    println!("\nfirst five embeddings (query vertex -> data vertex):");
    let mut shown = 0;
    session
        .run_enumerate(&social, &triangle, &mut |m| {
            if shown < 5 {
                println!("  q0->{} q1->{} q2->{}", m[0], m[1], m[2]);
                shown += 1;
            }
        })
        .expect("enumeration failed");
}
