//! Word-exact storage accounting and the closed-form space model.
//!
//! Table 1 of the paper compares, per partial-path depth, "naive storage"
//! against "our storage" on enron with a 5-clique query. Reverse-engineering
//! its rows fixes the accounting conventions precisely:
//!
//! * naive(l)  = Σ_{i ≤ l} i · |P_i|   (every level keeps full flat paths)
//! * cuts(l)   = Σ_{i ≤ l} 2 · |P_i|   (one PA word + one CA word per entry)
//!
//! e.g. depth 1: naive = |P_1| = 16514, cuts = 2·|P_1| = 33028, ratio 0.5 —
//! exactly the first Table 1 row. [`LevelCounts`] implements both, plus the
//! CSF cost. The growth model of Equation 2 that estimates `|P_l|` before
//! a run is `cuts_core::complexity`.

/// Per-level partial-path counts `|P_1| … |P_L|`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelCounts(pub Vec<u64>);

/// One row of a Table 1-style storage report.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceRow {
    /// Partial-path depth (1-based, like the paper).
    pub depth: usize,
    /// Paths at this depth.
    pub paths: u64,
    /// Naive cumulative words.
    pub naive_words: u64,
    /// cuTS cumulative words.
    pub cuts_words: u64,
    /// CSF cumulative words.
    pub csf_words: u64,
    /// naive / cuts (the paper's "compression ratio" column).
    pub compression_ratio: f64,
}

impl LevelCounts {
    /// Naive cumulative words through depth `l` (1-based).
    pub fn naive_words(&self, l: usize) -> u64 {
        (1..=l).map(|i| i as u64 * self.0[i - 1]).sum()
    }

    /// cuTS cumulative words through depth `l`.
    pub fn cuts_words(&self, l: usize) -> u64 {
        (1..=l).map(|i| 2 * self.0[i - 1]).sum()
    }

    /// CSF cumulative words through depth `l`: one node-id word per entry
    /// plus an index array of `|P_i| + 1` for every non-leaf level.
    pub fn csf_words(&self, l: usize) -> u64 {
        let ids: u64 = (1..=l).map(|i| self.0[i - 1]).sum();
        let index: u64 = (1..l).map(|i| self.0[i - 1] + 1).sum();
        ids + index
    }

    /// Compression ratio naive/cuts at depth `l` (Table 1's last column).
    /// An unsatisfiable query stores zero cuts words (`|P_1| = 0`); the
    /// ratio is reported as 0 then, never NaN — `report()` rows and the
    /// `cuts space` table/JSON render this value directly.
    pub fn compression_ratio(&self, l: usize) -> f64 {
        let cuts = self.cuts_words(l);
        if cuts == 0 {
            0.0
        } else {
            self.naive_words(l) as f64 / cuts as f64
        }
    }

    /// Full report, one row per depth.
    pub fn report(&self) -> Vec<SpaceRow> {
        (1..=self.0.len())
            .map(|l| SpaceRow {
                depth: l,
                paths: self.0[l - 1],
                naive_words: self.naive_words(l),
                cuts_words: self.cuts_words(l),
                csf_words: self.csf_words(l),
                compression_ratio: self.compression_ratio(l),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-level counts reverse-engineered from Table 1 (enron + 5-clique):
    /// they reproduce every cell of the table exactly.
    fn table1_counts() -> LevelCounts {
        LevelCounts(vec![16_514, 307_402, 4_284_642, 56_127_696, 697_122_720])
    }

    #[test]
    fn unsatisfiable_query_ratio_is_zero_not_nan() {
        // |P_1| = 0: an unsatisfiable query stores nothing, so
        // cuts_words(l) = 0 for every depth. The ratio must render as 0
        // (the old division produced NaN, which leaked into report()
        // rows and the `cuts space` table/JSON).
        let c = LevelCounts(vec![0, 0, 0]);
        for l in 1..=3 {
            let r = c.compression_ratio(l);
            assert!(r.is_finite(), "depth {l} ratio must be finite");
            assert_eq!(r, 0.0);
        }
        for row in c.report() {
            assert!(row.compression_ratio.is_finite());
            assert_eq!(row.compression_ratio, 0.0);
        }
    }

    #[test]
    fn table1_naive_column() {
        let c = table1_counts();
        assert_eq!(c.naive_words(1), 16_514);
        assert_eq!(c.naive_words(2), 631_318);
        assert_eq!(c.naive_words(3), 13_485_244);
        assert_eq!(c.naive_words(4), 237_996_028);
        assert_eq!(c.naive_words(5), 3_723_609_628);
    }

    #[test]
    fn table1_cuts_column() {
        let c = table1_counts();
        assert_eq!(c.cuts_words(1), 33_028);
        assert_eq!(c.cuts_words(2), 647_832);
        assert_eq!(c.cuts_words(3), 9_217_116);
        assert_eq!(c.cuts_words(4), 121_472_508);
        assert_eq!(c.cuts_words(5), 1_515_717_948);
    }

    #[test]
    fn table1_compression_ratios() {
        let c = table1_counts();
        let expect = [0.5, 0.974_509, 1.463_065, 1.959_258, 2.456_664];
        for (l, e) in expect.iter().enumerate() {
            let r = c.compression_ratio(l + 1);
            assert!((r - e).abs() < 1e-4, "depth {}: {r} vs {e}", l + 1);
        }
    }

    #[test]
    fn csf_is_smaller_than_cuts() {
        let c = table1_counts();
        for l in 1..=5 {
            assert!(c.csf_words(l) < c.cuts_words(l));
        }
    }

    #[test]
    fn report_shape() {
        let rows = table1_counts().report();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[2].depth, 3);
        assert_eq!(rows[2].naive_words, 13_485_244);
    }
}
