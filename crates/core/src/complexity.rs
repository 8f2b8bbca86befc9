//! The §5 time-complexity model: closed-form work estimates for the
//! sequential, single-GPU, and multi-GPU settings, parameterised exactly
//! as the paper's Equation 6 and the paragraphs that follow it.
//!
//! The model's inputs are measurable graph quantities — `|V_D|`, the
//! maximum degree `δ`, the per-level survival ratio `σ` — so tests can
//! fit `σ` from a real run's level counts and check that the model
//! brackets the measured work.

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

    /// Equation 6, summed exactly: sequential work
    /// `O(|V_D|) + O(|P_1|·δ) + Σ_{l=3}^{|V_Q|} O(|P_{l-1}|·(l−1)·δ)`.
    pub fn sequential_work(&self) -> f64 {
        let n = self.query_vertices;
        let mut work = self.data_vertices; // level-0 scan
        if n >= 2 {
            work += self.paths_at_depth(1) * self.max_degree;
        }
        for l in 3..=n {
            work += self.paths_at_depth(l - 1) * (l as f64 - 1.0) * self.max_degree;
        }
        work
    }

    /// The paper's simplified closed form:
    /// `O(|V_D| · |V_Q| · δ^{|V_Q|})` (dominant term, σ ≤ 1 dropped).
    pub fn sequential_work_simplified(&self) -> f64 {
        self.data_vertices
            * self.query_vertices as f64
            * self.max_degree.powi(self.query_vertices as i32)
    }

    /// Single-GPU work: sequential work divided by the SM parallelism
    /// (`p_complexity = s_complexity / n_SMP`), assuming the scheduler
    /// balances thread blocks across SMs.
    pub fn single_gpu_work(&self, num_sms: usize) -> f64 {
        self.sequential_work() / num_sms as f64
    }

    /// Multi-GPU work under the worst-case donation bound the paper
    /// derives: every GPU first does `W_min`, then half of the remaining
    /// spread is recovered: `O(W_min + (W_max − W_min)/2)`.
    pub fn multi_gpu_work_bound(w_min: f64, w_max: f64) -> f64 {
        assert!(w_max >= w_min);
        w_min + (w_max - w_min) / 2.0
    }

    /// Perfectly-balanced multi-GPU work:
    /// `m_complexity = p_complexity / n_GPU`.
    pub fn multi_gpu_work(&self, num_sms: usize, num_gpus: usize) -> f64 {
        self.single_gpu_work(num_sms) / num_gpus as f64
    }

    /// Communication bound: `O(S_max)` words, where `S_max` is the
    /// largest per-node trie (Equation 5's space bound, exact sum).
    pub fn communication_bound(&self) -> f64 {
        let ds = self.max_degree * self.sigma;
        let p1 = self.paths_at_depth(1);
        if (ds - 1.0).abs() < 1e-12 {
            p1 * self.query_vertices as f64
        } else {
            p1 * (ds.powi(self.query_vertices as i32) - 1.0) / (ds - 1.0)
        }
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
    fn sequential_work_dominated_by_last_level() {
        let m = model();
        let full = m.sequential_work();
        let last = m.paths_at_depth(4) * 4.0 * 8.0;
        assert!(
            last / full > 0.5,
            "deepest level dominates: {last} of {full}"
        );
        // The simplified bound is an over-estimate (σ dropped).
        assert!(m.sequential_work_simplified() >= full);
    }

    #[test]
    fn parallel_scalings_divide() {
        let m = model();
        let seq = m.sequential_work();
        assert!((m.single_gpu_work(84) - seq / 84.0).abs() < 1e-9);
        assert!((m.multi_gpu_work(84, 4) - seq / 336.0).abs() < 1e-9);
    }

    #[test]
    fn donation_bound_between_extremes() {
        let b = ComplexityModel::multi_gpu_work_bound(10.0, 30.0);
        assert!((b - 20.0).abs() < 1e-12);
        assert_eq!(ComplexityModel::multi_gpu_work_bound(5.0, 5.0), 5.0);
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

    #[test]
    fn communication_bound_is_space_bound() {
        let m = model();
        // Equation 5's exact geometric sum with p1 = 500, ds = 4, l = 5.
        let expect = 500.0 * (4f64.powi(5) - 1.0) / 3.0;
        assert!((m.communication_bound() - expect).abs() < 1e-6);
    }
}
