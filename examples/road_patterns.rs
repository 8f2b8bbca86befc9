//! Pattern search on road networks — the workload where the paper's
//! speedups are largest (geomean 329-430× on roadNet-PA/TX/CA): long
//! chains and cycles in a near-regular, low-degree planar-ish graph.
//!
//! Also exercises the Gunrock-style baseline: road networks have enough
//! vertices that its 64-bit path encoding starts refusing longer queries,
//! reproducing the paper's §3 scalability argument.
//!
//! ```sh
//! cargo run --release --example road_patterns
//! ```

use cuts::baseline::{CutsError, GunrockEngine};
use cuts::graph::generators::{chain, cycle};
use cuts::prelude::*;

fn main() {
    let road = Dataset::RoadNetCA.generate(Scale::Small);
    println!(
        "roadNet-CA-like: {} vertices, {} arcs, max degree {}\n",
        road.num_vertices(),
        road.num_edges(),
        road.max_out_degree()
    );

    let device = Device::new(DeviceConfig::v100_like());
    let session = ExecSession::new(&device, EngineConfig::default());

    println!(
        "{:<12} {:>14} {:>10} {:>12}",
        "pattern", "embeddings", "sim ms", "trie words"
    );
    for (name, q) in [
        ("chain-4", chain(4)),
        ("chain-6", chain(6)),
        ("chain-8", chain(8)),
        ("cycle-4", cycle(4)),
        ("cycle-6", cycle(6)),
    ] {
        match session.run(&road, &q) {
            Ok(r) => println!(
                "{:<12} {:>14} {:>10.3} {:>12}",
                name,
                r.num_matches,
                r.sim_millis,
                r.cuts_words()
            ),
            Err(e) => println!("{name:<12} failed: {e}"),
        }
    }

    // Gunrock's encoding wall: |V|^|Q| must stay below 2^64.
    println!(
        "\nGunrock-style encoding limit on this graph ({} vertices):",
        road.num_vertices()
    );
    let gunrock = GunrockEngine::new(&device);
    for k in [3usize, 4, 5, 6] {
        let q = chain(k);
        match gunrock.run(&road, &q) {
            Ok(r) => println!("  chain-{k}: ok, {} matches", r.num_matches),
            Err(CutsError::Unsupported { .. }) => {
                println!("  chain-{k}: UNSUPPORTED (encoding overflow)")
            }
            Err(e) => println!("  chain-{k}: failed ({e})"),
        }
    }
    println!("\ncuTS has no such limit: the trie addresses paths by parent links,");
    println!("so query size is bounded only by memory — the paper's §3 claim.");
}
