//! Ablation 6 (§4.1.2): hybrid BFS-DFS chunk size. The paper found 512
//! empirically best: small chunks fit bigger instances but starve the
//! device of parallel work; big chunks reintroduce the memory wall.
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin ablation_chunk
//! ```

use cuts_bench::{scale_from_env, Machine};
use cuts_core::{EngineConfig, ExecSession};
use cuts_gpu_sim::Device;
use cuts_graph::generators::clique;
use cuts_graph::Dataset;

fn main() {
    let scale = scale_from_env();
    let data = Dataset::Gowalla.generate(scale);
    // Constrain memory so chunking actually engages.
    let base = Machine::V100.device_config(scale);
    let constrained = base
        .clone()
        .with_global_mem_words(base.global_mem_words / 1024);
    println!("Ablation: chunk size on gowalla-like @ {scale:?}, K5, memory/1024 => chunked mode\n");
    println!(
        "{:>8} {:>12} {:>10} {:>16} {:>12}",
        "chunk", "matches", "chunked", "kernel launches", "sim ms"
    );
    for chunk in [64usize, 128, 256, 512, 1024, 4096] {
        let device = Device::new(constrained.clone());
        let session = ExecSession::new(&device, EngineConfig::default().with_chunk_size(chunk));
        match session.run(&data, &clique(5)) {
            Ok(r) => println!(
                "{:>8} {:>12} {:>10} {:>16} {:>12.3}",
                chunk, r.num_matches, r.used_chunking, r.counters.kernel_launches, r.sim_millis
            ),
            Err(e) => println!("{:>8} failed: {e}", chunk),
        }
    }
    println!("\nexpected: all sizes agree on the count; small chunks multiply kernel");
    println!("launches (fixed cost each), huge chunks risk capacity failures.");
}
