//! Table 1: storage-space comparison, naive flat paths vs the cuTS trie,
//! on the enron dataset with a fully-connected 5-vertex query.
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin table1
//! CUTS_SCALE=small cargo run -p cuts-bench --release --bin table1
//! ```

use cuts_bench::{scale_from_env, Machine};
use cuts_core::{EngineConfig, ExecSession};
use cuts_gpu_sim::Device;
use cuts_graph::generators::clique;
use cuts_graph::Dataset;
use cuts_trie::space::LevelCounts;

fn main() {
    let scale = scale_from_env();
    let data = Dataset::Enron.generate(scale);
    let query = clique(5);
    println!(
        "Table 1 — storage comparison, enron-like @ {scale:?} ({} vertices, {} arcs), 5-clique query\n",
        data.num_vertices(),
        data.num_edges()
    );

    let device = Device::new(Machine::V100.device_config(scale));
    let result = ExecSession::new(&device, EngineConfig::default())
        .run(&data, &query)
        .expect("table1 run failed");
    let counts = LevelCounts(result.level_counts.clone());

    println!(
        "{:>5} {:>14} {:>16} {:>14} {:>14} {:>12}",
        "depth", "paths", "naive (words)", "cuts (words)", "csf (words)", "ratio"
    );
    for row in counts.report() {
        println!(
            "{:>5} {:>14} {:>16} {:>14} {:>14} {:>12.6}",
            row.depth,
            row.paths,
            row.naive_words,
            row.cuts_words,
            row.csf_words,
            row.compression_ratio
        );
    }

    println!("\nPaper's Table 1 (full-scale enron) for comparison:");
    println!("depth  naive             ours            ratio");
    println!("1      16514             33028           0.5");
    println!("2      631318            647832          0.974509");
    println!("3      13485244          9217116         1.463065");
    println!("4      237996028         121472508       1.959258");
    println!("5      3723609628        1515717948      2.456664");
    println!("\nExpected shape: ratio < 1 at depth 1-2, grows monotonically past 1 by depth 3+.");
}
