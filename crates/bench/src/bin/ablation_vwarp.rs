//! Ablation 4 (§4.1.2): virtual-warp sizing. Full 32-wide warps idle most
//! lanes on low-degree graphs (the GPSM/GSI pathology); the single-bin
//! average-degree policy recovers the wasted slots.
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin ablation_vwarp
//! ```

use cuts_bench::{scale_from_env, Machine};
use cuts_core::{EngineConfig, ExecSession, VirtualWarpPolicy};
use cuts_gpu_sim::Device;
use cuts_graph::generators::clique;
use cuts_graph::Dataset;

fn main() {
    let scale = scale_from_env();
    println!("Ablation: virtual warp width (query K4, scale {scale:?})\n");
    println!(
        "{:<12} {:>8} | {:>16} {:>16} {:>12}",
        "dataset", "policy", "instructions", "divergences", "sim ms"
    );
    for ds in [Dataset::RoadNetPA, Dataset::RoadNetCA, Dataset::Enron] {
        let data = ds.generate(scale);
        let policies: [(&str, VirtualWarpPolicy); 4] = [
            ("auto", VirtualWarpPolicy::AvgDegree),
            ("w=1", VirtualWarpPolicy::Fixed(1)),
            ("w=8", VirtualWarpPolicy::Fixed(8)),
            ("w=32", VirtualWarpPolicy::Fixed(32)),
        ];
        for (label, p) in policies {
            let device = Device::new(Machine::V100.device_config(scale));
            let session = ExecSession::new(&device, EngineConfig::default().with_virtual_warp(p));
            match session.run(&data, &clique(4)) {
                Ok(r) => println!(
                    "{:<12} {:>8} | {:>16} {:>16} {:>12.3}",
                    ds.name(),
                    label,
                    r.counters.instructions,
                    r.counters.divergent_branches,
                    r.sim_millis
                ),
                Err(e) => println!("{:<12} {:>8} | failed: {e}", ds.name(), label),
            }
        }
        println!();
    }
    println!("expected: w=32 inflates instructions via masked-lane idling on the");
    println!("road networks (avg degree < 3); auto matches the best fixed width.");
}
