#![warn(missing_docs)]

//! Shared harness utilities for the table/figure regeneration binaries.
//!
//! Every binary honours two environment variables:
//!
//! * `CUTS_SCALE` — `tiny` (default), `small`, `medium`, `paper`: the
//!   proportional dataset scale (see [`cuts_graph::Scale`]). Device memory
//!   budgets scale along with the data so the OOM *shape* of Table 3 is
//!   preserved at every scale.
//! * `CUTS_QUICK` — when set to `1`, restricts query suites (drops the
//!   7-vertex set) so a full table finishes in seconds. Passing `--quick`
//!   on the command line is equivalent (used by the CI smoke step).

use cuts_dist::DistConfig;
use cuts_gpu_sim::DeviceConfig;
use cuts_graph::query_gen::query_set;
use cuts_graph::{Dataset, Scale};

/// Which of the paper's two machines a run models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Machine {
    /// Nvidia A100-shaped (108 SMs, 40 GB).
    A100,
    /// Nvidia V100-shaped (84 SMs, 32 GB).
    V100,
}

impl Machine {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Machine::A100 => "A100",
            Machine::V100 => "V100",
        }
    }

    /// Paper global-memory capacity in words (40 GB / 32 GB over 4-byte
    /// words).
    fn paper_words(self) -> f64 {
        match self {
            Machine::A100 => 10.0 * (1u64 << 30) as f64,
            Machine::V100 => 8.0 * (1u64 << 30) as f64,
        }
    }

    /// Device config with memory scaled to the dataset scale, so the
    /// memory:data ratio matches the paper's machines.
    ///
    /// Caveat: intermediate-result volume grows *superlinearly* with graph
    /// size on heavy-tailed graphs (|P_l| is dominated by δ_max^l and the
    /// max degree shrinks with the stand-in), so down-scaled runs are
    /// relatively light on memory and the paper's "-" failures disappear.
    /// Set `CUTS_MEM_DIV=<n>` to divide the budget and restore the
    /// memory-pressure regime (EXPERIMENTS.md uses 512 at tiny scale).
    pub fn device_config(self, scale: Scale) -> DeviceConfig {
        let base = match self {
            Machine::A100 => DeviceConfig::a100_like(),
            Machine::V100 => DeviceConfig::v100_like(),
        };
        let div: f64 = std::env::var("CUTS_MEM_DIV")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1.0);
        let words = (self.paper_words() * scale.factor() / div.max(1.0)) as usize;
        base.with_global_mem_words(words.max(1 << 14))
    }
}

/// Reads `CUTS_SCALE` (default tiny).
pub fn scale_from_env() -> Scale {
    match std::env::var("CUTS_SCALE").as_deref() {
        Ok("paper") => Scale::Paper,
        Ok("medium") => Scale::Medium,
        Ok("small") => Scale::Small,
        _ => Scale::Tiny,
    }
}

/// Quick mode: `CUTS_QUICK=1` in the environment or `--quick` on the
/// command line (the CI smoke step uses the flag form).
pub fn quick_from_env() -> bool {
    std::env::var("CUTS_QUICK").as_deref() == Ok("1") || std::env::args().any(|a| a == "--quick")
}

/// Query-vertex counts to sweep: `[5, 6, 7]`, or `[5]` in quick mode.
pub fn query_sizes() -> Vec<usize> {
    if quick_from_env() {
        vec![5]
    } else {
        vec![5, 6, 7]
    }
}

/// Datasets to sweep (all six; quick mode keeps the three smallest).
pub fn datasets() -> Vec<Dataset> {
    if quick_from_env() {
        vec![Dataset::Enron, Dataset::RoadNetPA, Dataset::Gowalla]
    } else {
        Dataset::ALL.to_vec()
    }
}

/// Geometric mean of strictly-positive values; `None` when empty.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let log_sum: f64 = xs.iter().map(|&x| x.max(f64::MIN_POSITIVE).ln()).sum();
    Some((log_sum / xs.len() as f64).exp())
}

/// One Figure 4 case: a big data graph × query, its single-node
/// simulated makespan and its 2- and 4-node speedups.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Dataset name.
    pub dataset: &'static str,
    /// Query name.
    pub query: String,
    /// Match count (asserted equal at every node count).
    pub matches: u64,
    /// Single-node makespan, simulated ms.
    pub base_sim_ms: f64,
    /// Speedup over one node at 2 and at 4 nodes.
    pub speedup: [f64; 2],
}

/// Figure 4's sweep: `cuts_dist::run` on V100-shaped ranks (the paper's
/// distributed nodes, §6.1) with chunk 64, over the three big data
/// graphs and the 4-vertex queries (quick) or 5-vertex queries.
pub fn fig4_rows(scale: Scale, quick: bool) -> Vec<Fig4Row> {
    let config = DistConfig {
        device: Machine::V100.device_config(scale),
        dist_chunk: 64,
        ..Default::default()
    };
    let (n, k) = if quick { (4, 2) } else { (5, 3) };
    let queries = query_set(n, k);
    let mut rows = Vec::new();
    for ds in Dataset::BIG {
        let data = ds.generate(scale);
        for q in &queries {
            let r1 = cuts_dist::run(&data, &q.graph, 1, &config).expect("1-node");
            let base = r1.makespan_sim_millis();
            let speedup = [2usize, 4].map(|ranks| {
                let r = cuts_dist::run(&data, &q.graph, ranks, &config).expect("multi-node");
                assert_eq!(r.total_matches, r1.total_matches, "count drift");
                base / r.makespan_sim_millis()
            });
            rows.push(Fig4Row {
                dataset: ds.name(),
                query: q.name.clone(),
                matches: r1.total_matches,
                base_sim_ms: base,
                speedup,
            });
        }
    }
    rows
}

/// Formats a milliseconds-or-failure cell like the paper's Table 3.
pub fn cell(v: Option<f64>) -> String {
    match v {
        Some(ms) => format!("{ms:.3}"),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_basics() {
        assert!(geomean(&[]).is_none());
        let g = geomean(&[1.0, 100.0]).unwrap();
        assert!((g - 10.0).abs() < 1e-9);
    }

    #[test]
    fn device_memory_tracks_scale() {
        let tiny = Machine::V100.device_config(Scale::Tiny);
        let small = Machine::V100.device_config(Scale::Small);
        assert!(small.global_mem_words > tiny.global_mem_words);
        // Tiny V100: 8 Gwords / 256 = 32 Mwords — the preset's default.
        assert_eq!(tiny.global_mem_words, 32 << 20);
    }

    #[test]
    fn a100_has_more_memory_than_v100() {
        let a = Machine::A100.device_config(Scale::Tiny);
        let v = Machine::V100.device_config(Scale::Tiny);
        assert!(a.global_mem_words > v.global_mem_words);
        assert_eq!(Machine::A100.name(), "A100");
        assert_eq!(a.name, "sim-A100");
    }

    #[test]
    fn cell_formatting() {
        assert_eq!(cell(Some(1.5)), "1.500");
        assert_eq!(cell(None), "-");
    }
}
