//! Table 3: single-node results — GSI-style baseline vs cuTS on both
//! machine shapes, 33 queries × 6 datasets, "GSI ; cuTS" per cell with "-"
//! for failures, followed by the case counts and geomean speedups the
//! paper headlines, plus the §6 hardware-metric ratios (pass `--metrics`).
//!
//! ```sh
//! cargo run -p cuts-bench --release --bin table3 -- --quick
//! cargo run -p cuts-bench --release --bin table3 -- --metrics
//! ```
//!
//! `--quick` (equivalently `CUTS_QUICK=1`) shrinks the sweep so the table
//! finishes in seconds; CI runs it as a smoke test.

use cuts_baseline::GsiEngine;
use cuts_bench::{cell, datasets, geomean, query_sizes, scale_from_env, Machine};
use cuts_core::{EngineConfig, ExecSession};
use cuts_gpu_sim::{Counters, Device};
use cuts_graph::query_gen::query_set;
use cuts_graph::Graph;

struct Outcome {
    gsi_ms: Option<f64>,
    cuts_ms: Option<f64>,
    gsi_counters: Option<Counters>,
    cuts_counters: Option<Counters>,
}

fn run_case(machine: Machine, data: &Graph, query: &Graph, scale: cuts_graph::Scale) -> Outcome {
    // Fresh devices per engine: each engine gets the whole memory budget,
    // like separate processes on the real machine.
    let gsi_dev = Device::new(machine.device_config(scale));
    let gsi = GsiEngine::new(&gsi_dev).run(data, query).ok();
    let cuts_dev = Device::new(machine.device_config(scale));
    let cuts = ExecSession::new(&cuts_dev, EngineConfig::default())
        .run(data, query)
        .ok();
    Outcome {
        gsi_ms: gsi.as_ref().map(|r| r.sim_millis),
        cuts_ms: cuts.as_ref().map(|r| r.sim_millis),
        gsi_counters: gsi.map(|r| r.counters),
        cuts_counters: cuts.map(|r| r.counters),
    }
}

fn main() {
    let metrics = std::env::args().any(|a| a == "--metrics");
    let scale = scale_from_env();
    let dss = datasets();
    let queries: Vec<_> = query_sizes()
        .into_iter()
        .flat_map(|n| query_set(n, 11))
        .collect();
    let graphs: Vec<_> = dss.iter().map(|ds| (ds, ds.generate(scale))).collect();

    for machine in [Machine::A100, Machine::V100] {
        println!(
            "\n=== Table 3 on {} (scale {scale:?}) — cells are \"GSI ; cuTS\" in simulated ms ===\n",
            machine.name()
        );
        print!("{:<8}", "query");
        for (ds, _) in &graphs {
            print!(" {:>22}", ds.name());
        }
        println!();

        let mut gsi_ok = 0usize;
        let mut cuts_ok = 0usize;
        let mut speedups: Vec<f64> = Vec::new();
        let mut road_speedups: Vec<f64> = Vec::new();
        let mut agg_gsi = Counters::default();
        let mut agg_cuts = Counters::default();

        for q in &queries {
            print!("{:<8}", q.name);
            for (ds, g) in &graphs {
                let o = run_case(machine, g, &q.graph, scale);
                if o.gsi_ms.is_some() {
                    gsi_ok += 1;
                }
                if o.cuts_ms.is_some() {
                    cuts_ok += 1;
                }
                if let (Some(gm), Some(cm)) = (o.gsi_ms, o.cuts_ms) {
                    if cm > 0.0 {
                        let s = gm / cm;
                        speedups.push(s);
                        if ds.name().starts_with("roadNet") {
                            road_speedups.push(s);
                        }
                    }
                }
                if let (Some(gc), Some(cc)) = (o.gsi_counters, o.cuts_counters) {
                    agg_gsi += gc;
                    agg_cuts += cc;
                }
                print!(" {:>10} ; {:>9}", cell(o.gsi_ms), cell(o.cuts_ms));
            }
            println!();
        }

        let total = queries.len() * graphs.len();
        println!("\ncases completed: cuTS {cuts_ok}/{total}, GSI {gsi_ok}/{total}");
        if let Some(g) = geomean(&speedups) {
            println!(
                "geomean speedup (both-completed cases): {g:.1}x over {} cases",
                speedups.len()
            );
        }
        if let Some(g) = geomean(&road_speedups) {
            println!("geomean speedup on road networks:       {g:.1}x");
        }
        println!(
            "paper ({}): cuTS {} cases vs GSI 99; road-network geomeans {}",
            machine.name(),
            if machine == Machine::A100 { 164 } else { 154 },
            if machine == Machine::A100 {
                "329x / 430x / 407x (PA/TX/CA)"
            } else {
                "250x / 314x / 387x (PA/TX/CA)"
            }
        );

        if metrics {
            println!(
                "\n§6 hardware-metric ratios (GSI / cuTS), aggregated over both-completed cases:"
            );
            // ratio_str, not ratio + {:.1}: a zero cuTS denominator must
            // print as "inf", never format f64::INFINITY into the table.
            println!(
                "  DRAM reads {}x | DRAM writes {}x | shmem writes {}x | shmem reads {}x | atomics {}x | instructions {}x",
                Counters::ratio_str(agg_gsi.dram_reads, agg_cuts.dram_reads),
                Counters::ratio_str(agg_gsi.dram_writes, agg_cuts.dram_writes),
                Counters::ratio_str(agg_gsi.shmem_writes, agg_cuts.shmem_writes),
                Counters::ratio_str(agg_gsi.shmem_reads, agg_cuts.shmem_reads),
                Counters::ratio_str(agg_gsi.atomics, agg_cuts.atomics),
                Counters::ratio_str(agg_gsi.instructions, agg_cuts.instructions),
            );
            println!("  paper reports: up to 200x DRAM reads, 34x shmem writes, 7x shmem reads, 2x atomics, 7x instructions");
        }
    }
}
