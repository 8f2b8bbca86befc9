//! Run results and statistics.

use cuts_gpu_sim::Counters;
use cuts_obs::{Json, ToJson};
use cuts_trie::space::LevelCounts;

/// Outcome of a successful matching run.
#[derive(Debug, Clone)]
pub struct MatchResult {
    /// Number of embeddings (injective, edge-preserving mappings) found.
    pub num_matches: u64,
    /// Total partial paths per depth (`|P_1| … |P_{|V_Q|}|`), accumulated
    /// across chunks in hybrid mode — the inputs to the Table 1 space
    /// accounting.
    pub level_counts: Vec<u64>,
    /// Device hardware counters for the run.
    pub counters: Counters,
    /// Roofline-model simulated kernel time in milliseconds.
    pub sim_millis: f64,
    /// Host wall time of the simulation (measures the simulator, not the
    /// modelled device; reported for completeness only).
    pub wall_millis: f64,
    /// Whether the run had to fall back to hybrid BFS-DFS chunking.
    pub used_chunking: bool,
    /// The matching order used (query vertex per depth).
    pub order: Vec<u32>,
}

impl MatchResult {
    /// Space accounting view of the per-depth path counts.
    pub fn space(&self) -> LevelCounts {
        LevelCounts(self.level_counts.clone())
    }

    /// Peak naive-storage words the same run would have needed (Table 1's
    /// first column for this workload).
    pub fn naive_words(&self) -> u64 {
        self.space().naive_words(self.level_counts.len())
    }

    /// Trie words this run needed.
    pub fn cuts_words(&self) -> u64 {
        self.space().cuts_words(self.level_counts.len())
    }

    /// A canonical byte encoding of the run's *semantic* outcome: the
    /// match count, per-level path counts, and matching order. Timing
    /// fields, hardware counters, and the chunking flag are excluded —
    /// they legitimately differ between executions that are semantically
    /// identical (e.g. a serial loop vs. the serving tier, which sizes trie
    /// capacity per job). Two runs are equivalent iff these bytes match.
    pub fn canonical_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * (2 + self.level_counts.len()) + 4 * self.order.len());
        out.extend_from_slice(&self.num_matches.to_le_bytes());
        out.extend_from_slice(&(self.level_counts.len() as u64).to_le_bytes());
        for &c in &self.level_counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        for &q in &self.order {
            out.extend_from_slice(&q.to_le_bytes());
        }
        out
    }
}

impl ToJson for MatchResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("num_matches", Json::U64(self.num_matches)),
            (
                "level_counts",
                Json::Arr(self.level_counts.iter().map(|&c| Json::U64(c)).collect()),
            ),
            (
                "order",
                Json::Arr(self.order.iter().map(|&q| Json::U64(q as u64)).collect()),
            ),
            ("used_chunking", Json::Bool(self.used_chunking)),
            ("sim_millis", Json::F64(self.sim_millis)),
            ("wall_millis", Json::F64(self.wall_millis)),
            ("naive_words", Json::U64(self.naive_words())),
            ("cuts_words", Json::U64(self.cuts_words())),
            ("counters", self.counters.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn space_views() {
        let r = MatchResult {
            num_matches: 3,
            level_counts: vec![4, 3],
            counters: Counters::default(),
            sim_millis: 0.0,
            wall_millis: 0.0,
            used_chunking: false,
            order: vec![0, 1],
        };
        assert_eq!(r.naive_words(), 4 + 2 * 3);
        assert_eq!(r.cuts_words(), 2 * (4 + 3));
    }
}
