//! The §5 path-count model: partial paths per depth (Equation 2), the
//! quantity the paper's work and space bounds sum over.
//!
//! The model's inputs are measurable graph quantities — `|V_D|`, the
//! maximum degree `δ`, the per-level survival ratio `σ` — so plans can
//! estimate a query's trie size ([`crate::QueryPlan::space_estimate`])
//! and tests can fit `σ` from a real run's level counts and check that
//! the model brackets the measured paths.

/// Model parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ComplexityModel {
    /// Data-graph vertices `|V_D|`.
    pub data_vertices: f64,
    /// Query-graph vertices `|V_Q|`.
    pub query_vertices: usize,
    /// Maximum out-degree of the data graph (the paper's δ).
    pub max_degree: f64,
    /// Ratio of valid paths to total candidate paths per level (σ ≤ 1).
    pub sigma: f64,
}

impl ComplexityModel {
    /// Estimated partial paths at depth `l ≥ 1`:
    /// `|P_l| = |V_D| · σ₀ · (δσ)^{l-1}` with `σ₀` folded into σ.
    pub fn paths_at_depth(&self, l: usize) -> f64 {
        assert!(l >= 1);
        self.data_vertices * self.sigma * (self.max_degree * self.sigma).powi(l as i32 - 1)
    }

    /// Equation 2 anchored at a *measured* `|P_1|` (separating the paper's
    /// σ₀ — the root filter rate — from the per-level σ):
    /// `|P_l| = |P_1| · (δσ)^{l-1}`.
    pub fn paths_at_depth_from(&self, p1: f64, l: usize) -> f64 {
        assert!(l >= 1);
        p1 * (self.max_degree * self.sigma).powi(l as i32 - 1)
    }

    /// Fits σ from measured per-level path counts (least-squares over the
    /// per-level growth ratios `|P_{l+1}| / (|P_l| · δ)`), the way the
    /// model-validation tests calibrate themselves.
    pub fn fit_sigma(level_counts: &[u64], max_degree: f64) -> f64 {
        let ratios: Vec<f64> = level_counts
            .windows(2)
            .filter(|w| w[0] > 0)
            .map(|w| w[1] as f64 / (w[0] as f64 * max_degree))
            .collect();
        if ratios.is_empty() {
            return 1.0;
        }
        (ratios.iter().sum::<f64>() / ratios.len() as f64).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ComplexityModel {
        ComplexityModel {
            data_vertices: 1000.0,
            query_vertices: 5,
            max_degree: 8.0,
            sigma: 0.5,
        }
    }

    #[test]
    fn paths_growth_geometric() {
        let m = model();
        // |P_1| = 500, growth factor δσ = 4.
        assert!((m.paths_at_depth(1) - 500.0).abs() < 1e-9);
        assert!((m.paths_at_depth(2) - 2000.0).abs() < 1e-9);
        assert!((m.paths_at_depth(4) / m.paths_at_depth(3) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn fit_sigma_recovers_synthetic() {
        // Counts generated with δ = 10, σ = 0.3.
        let counts = [300u64, 900, 2700, 8100];
        let s = ComplexityModel::fit_sigma(&counts, 10.0);
        assert!((s - 0.3).abs() < 1e-9);
        assert_eq!(ComplexityModel::fit_sigma(&[], 10.0), 1.0);
    }

    #[test]
    fn model_brackets_measured_run() {
        // Calibrate on a real engine run and check the model predicts the
        // work within an order of magnitude.
        use cuts_graph::generators::erdos_renyi;
        let data = erdos_renyi(300, 1800, 5);
        let query = cuts_graph::generators::clique(4);
        let device = cuts_gpu_sim::Device::new(cuts_gpu_sim::DeviceConfig::test_small());
        let r = crate::ExecSession::new(&device, crate::EngineConfig::default())
            .run(&data, &query)
            .unwrap();
        let delta = data.max_out_degree() as f64;
        let sigma = ComplexityModel::fit_sigma(&r.level_counts, delta);
        let m = ComplexityModel {
            data_vertices: data.num_vertices() as f64,
            query_vertices: 4,
            max_degree: delta,
            sigma,
        };
        // Total generated paths is the natural "work" proxy.
        let measured: f64 = r.level_counts.iter().map(|&c| c as f64).sum();
        let predicted: f64 = (1..=4).map(|l| m.paths_at_depth(l)).sum();
        let ratio = predicted / measured;
        assert!(
            (0.1..10.0).contains(&ratio),
            "model off by more than 10x: {ratio}"
        );
    }
}
