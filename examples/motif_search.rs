//! Network-motif census — the use case the paper's introduction motivates
//! (Milo et al., Science 2002: "network motifs characterize common
//! patterns in biological networks such as protein-protein interactions").
//!
//! Counts every connected 3- and 4-vertex motif in a synthetic
//! protein-interaction-style network and compares against a degree-matched
//! random rewiring, printing the over-representation ratio that defines a
//! motif.
//!
//! ```sh
//! cargo run --example motif_search
//! ```

use cuts::graph::canonical::automorphism_count;
use cuts::graph::generators::barabasi_albert;
use cuts::graph::generators::erdos_renyi;
use cuts::graph::query_gen::query_set;
use cuts::prelude::*;

fn main() {
    // "Protein interaction network": preferential attachment gives the
    // heavy-tailed degree distribution real PPI networks show.
    let ppi = barabasi_albert(400, 3, 7);
    // Null model: uniform random graph with the same size and edge budget
    // (the Milo et al. methodology uses degree-preserving rewiring; a
    // size-matched Erdős–Rényi graph is the standard simpler null).
    let null = erdos_renyi(ppi.num_vertices(), ppi.num_input_edges(), 99);

    let device = Device::new(DeviceConfig::a100_like());
    let session = ExecSession::new(&device, EngineConfig::default());

    println!(
        "motif census: {} vertices, {} edges",
        ppi.num_vertices(),
        ppi.num_input_edges()
    );
    println!(
        "{:<10} {:>6} {:>14} {:>14} {:>8}",
        "motif", "edges", "count(real)", "count(null)", "ratio"
    );

    for n in [3usize, 4] {
        // All connected n-vertex graphs, densest first.
        let motifs = query_set(n, 16);
        for m in &motifs {
            let auts = automorphism_count(&m.graph);
            let real = session.run(&ppi, &m.graph).expect("real run").num_matches / auts;
            let nullc = session.run(&null, &m.graph).expect("null run").num_matches / auts;
            let ratio = if nullc == 0 {
                f64::INFINITY
            } else {
                real as f64 / nullc as f64
            };
            println!(
                "{:<10} {:>6} {:>14} {:>14} {:>8.2}",
                m.name, m.num_edges, real, nullc, ratio
            );
        }
    }
    println!("\nratio >> 1 marks an over-represented subgraph: a network motif.");
}
