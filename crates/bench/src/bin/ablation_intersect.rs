//! Ablation 3 (§4.1.3): intersection micro-kernel choice — always-c,
//! always-p, always-bitmap, and the plan-time auto policy cuTS ships.
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin ablation_intersect
//! ```

use cuts_bench::{scale_from_env, Machine};
use cuts_core::{EngineConfig, ExecSession, IntersectStrategy};
use cuts_gpu_sim::Device;
use cuts_graph::generators::{clique, cycle};
use cuts_graph::Dataset;

fn main() {
    let scale = scale_from_env();
    println!("Ablation: intersection strategy (scale {scale:?})\n");
    println!(
        "{:<12} {:<6} {:>14} {:>14} {:>14} {:>14} | {:>9} {:>9} {:>9} {:>9}",
        "dataset",
        "query",
        "c-only dram",
        "p-only dram",
        "bitmap dram",
        "auto dram",
        "c ms",
        "p ms",
        "b ms",
        "auto ms"
    );

    for ds in [Dataset::Enron, Dataset::Gowalla, Dataset::RoadNetPA] {
        let data = ds.generate(scale);
        for (qname, q) in [("K4", clique(4)), ("C5", cycle(5))] {
            let mut dram = Vec::new();
            let mut ms = Vec::new();
            for strat in [
                IntersectStrategy::CIntersection,
                IntersectStrategy::PIntersection,
                IntersectStrategy::Bitmap,
                IntersectStrategy::Auto,
            ] {
                let device = Device::new(Machine::V100.device_config(scale));
                let session =
                    ExecSession::new(&device, EngineConfig::default().with_intersect(strat));
                match session.run(&data, &q) {
                    Ok(r) => {
                        dram.push(format!("{}", r.counters.dram_total()));
                        ms.push(format!("{:.3}", r.sim_millis));
                    }
                    Err(_) => {
                        dram.push("-".into());
                        ms.push("-".into());
                    }
                }
            }
            println!(
                "{:<12} {:<6} {:>14} {:>14} {:>14} {:>14} | {:>9} {:>9} {:>9} {:>9}",
                ds.name(),
                qname,
                dram[0],
                dram[1],
                dram[2],
                dram[3],
                ms[0],
                ms[1],
                ms[2],
                ms[3]
            );
        }
    }
    println!("\nexpected: auto tracks the best fixed arm per dataset; p wins when the");
    println!("running buffer is small relative to the other adjacency lists.");
}
