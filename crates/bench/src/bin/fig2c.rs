//! Figure 2(C): path-count and storage growth for the chain query on the
//! 4×4 mesh — the worked example motivating the trie.
//!
//! The figure's table (16 / 48 / 96 / 192 candidates) is an illustration
//! assuming a uniform branching factor of 2; this binary prints both the
//! illustration and the exactly-measured counts from the engine (which
//! enforce the degree filter and injectivity).
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin fig2c
//! ```

use cuts_core::{EngineConfig, ExecSession};
use cuts_gpu_sim::{Device, DeviceConfig};
use cuts_graph::generators::{chain, mesh2d};

fn main() {
    let data = mesh2d(4, 4);
    let query = chain(4);
    let device = Device::new(DeviceConfig::test_small());
    let r = ExecSession::new(&device, EngineConfig::default())
        .run(&data, &query)
        .expect("fig2c run failed");

    println!("Figure 2(C) — 4x4 mesh data graph, 4-vertex chain query\n");
    println!(
        "{:>6} {:>22} {:>20} {:>24}",
        "depth", "candidates (measured)", "naive words (|P|*l)", "figure's illustration"
    );
    let illustration = [(16u64, 16u64), (48, 96), (96, 288), (192, 768)];
    for (l, &paths) in r.level_counts.iter().enumerate() {
        let naive = paths * (l as u64 + 1);
        let (ip, iw) = illustration[l];
        println!(
            "{:>6} {:>22} {:>20} {:>14} / {:>7}",
            l + 1,
            paths,
            naive,
            ip,
            iw
        );
    }
    println!("\ntotal matches: {}", r.num_matches);
    println!(
        "trie words: {}   naive cumulative words: {}",
        r.cuts_words(),
        r.naive_words()
    );
}
