//! Figure 4: distributed speedup against a single node on the three big
//! data graphs (enron, gowalla, wikiTalk) for 2 and 4 simulated nodes.
//!
//! ```sh
//! CUTS_QUICK=1 cargo run -p cuts-bench --release --bin fig4
//! ```

use cuts_bench::{fig4_rows, quick_from_env, scale_from_env};

fn main() {
    let scale = scale_from_env();
    println!("Figure 4 — speedup vs single node (V100-shaped ranks, scale {scale:?})\n");
    println!(
        "{:<10} {:<6} {:>12} {:>14} {:>10} {:>10}",
        "dataset", "query", "matches", "1-node sim-ms", "2-node", "4-node"
    );
    for r in fig4_rows(scale, quick_from_env()) {
        println!(
            "{:<10} {:<6} {:>12} {:>14.3} {:>9.2}x {:>9.2}x",
            r.dataset, r.query, r.matches, r.base_sim_ms, r.speedup[0], r.speedup[1]
        );
    }
    println!("\npaper's shape: close to 2x on two nodes, close to 3.1x on four nodes,");
    println!("with occasional superlinear cases from better cache behaviour.");
}
