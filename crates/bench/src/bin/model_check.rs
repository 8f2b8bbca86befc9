//! §5 model validation: fit the complexity model's σ from a measured run
//! and compare its per-depth path-count predictions against measurements
//! across datasets and query depths.
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin model_check
//! ```

use cuts_bench::{scale_from_env, Machine};
use cuts_core::complexity::ComplexityModel;
use cuts_core::{EngineConfig, ExecSession};
use cuts_gpu_sim::Device;
use cuts_graph::generators::clique;
use cuts_graph::Dataset;

fn main() {
    let scale = scale_from_env();
    println!("§5 complexity-model validation (scale {scale:?})\n");
    println!(
        "{:<12} {:<6} {:>8} {:>9} | {:>14} {:>14} {:>8}",
        "dataset", "query", "δ", "σ (fit)", "paths measured", "paths model", "ratio"
    );
    for ds in [Dataset::Enron, Dataset::Gowalla, Dataset::RoadNetPA] {
        let data = ds.generate(scale);
        for k in [3usize, 4, 5] {
            let device = Device::new(Machine::V100.device_config(scale));
            let query = clique(k);
            let Ok(r) = ExecSession::new(&device, EngineConfig::default()).run(&data, &query)
            else {
                println!("{:<12} K{k}: failed", ds.name());
                continue;
            };
            let delta = data.max_out_degree() as f64;
            let sigma = ComplexityModel::fit_sigma(&r.level_counts, delta);
            let model = ComplexityModel {
                data_vertices: data.num_vertices() as f64,
                query_vertices: k,
                max_degree: delta,
                sigma,
            };
            let p1 = r.level_counts[0] as f64;
            let measured: f64 = r.level_counts.iter().map(|&c| c as f64).sum();
            let predicted: f64 = (1..=k).map(|l| model.paths_at_depth_from(p1, l)).sum();
            println!(
                "{:<12} K{:<5} {:>8} {:>9.4} | {:>14.0} {:>14.0} {:>8.2}",
                ds.name(),
                k,
                delta,
                sigma,
                measured,
                predicted,
                predicted / measured
            );
        }
    }
    println!("\nratio ≈ 1 means the geometric model of Eq. 1-2 captures the growth;");
    println!("the fit σ quantifies per-level pruning (degree filter + injectivity).");
}
