//! Per-rank and aggregate metrics for the distributed runs (Figures 4-5).

use cuts_gpu_sim::Counters;
use cuts_obs::{Json, ToJson};

/// Metrics for one rank.
#[derive(Debug, Clone, Default)]
pub struct RankMetrics {
    /// Rank id.
    pub rank: usize,
    /// Matches this rank completed (its own partition plus donations).
    pub matches: u64,
    /// Simulated device-busy time (roofline ms, summed over jobs) — the
    /// per-node "T1…T4" bars of Figure 5.
    pub busy_sim_millis: f64,
    /// Host wall time spent inside kernels/jobs.
    pub busy_wall_millis: f64,
    /// Jobs processed (initial partition chunks + received donations).
    pub jobs_processed: usize,
    /// Donations this rank sent (as the busy side of the protocol).
    pub donations_sent: usize,
    /// Donations this rank received (as the free side).
    pub donations_received: usize,
    /// Messages this rank sent (all tags).
    pub messages_sent: u64,
    /// Payload bytes this rank sent.
    pub bytes_sent: u64,
    /// Chunks this rank reclaimed from crashed or unresponsive peers.
    pub chunks_reassigned: usize,
    /// Donated chunks this rank received (or recomputed) that were
    /// already committed elsewhere — discarded by the at-least-once
    /// dedup, never double-counted.
    pub duplicate_chunks: usize,
    /// Query plans built on this rank (1 in steady state: the session
    /// plans once and reuses across chunks, donations, and replays).
    pub plan_builds: u64,
    /// Jobs that reused the rank's cached plan.
    pub plan_reuses: u64,
    /// Trie slab acquisitions served from the rank's arena — every trie
    /// this rank ran on after the one-time carve, none of which touched
    /// the device allocator.
    pub buffer_reuses: u64,
    /// Messages from this rank eaten by fault injection.
    pub messages_dropped: u64,
    /// Messages from this rank delayed by fault injection.
    pub messages_delayed: u64,
    /// True when this rank crashed (injected fault or panic) and its
    /// remaining work was recovered by the survivors.
    pub lost: bool,
    /// Aggregated device counters across all jobs.
    pub counters: Counters,
}

impl ToJson for RankMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("rank", Json::U64(self.rank as u64)),
            ("matches", Json::U64(self.matches)),
            ("busy_sim_millis", Json::F64(self.busy_sim_millis)),
            ("busy_wall_millis", Json::F64(self.busy_wall_millis)),
            ("jobs_processed", Json::U64(self.jobs_processed as u64)),
            ("donations_sent", Json::U64(self.donations_sent as u64)),
            (
                "donations_received",
                Json::U64(self.donations_received as u64),
            ),
            ("messages_sent", Json::U64(self.messages_sent)),
            ("bytes_sent", Json::U64(self.bytes_sent)),
            (
                "chunks_reassigned",
                Json::U64(self.chunks_reassigned as u64),
            ),
            ("duplicate_chunks", Json::U64(self.duplicate_chunks as u64)),
            ("plan_builds", Json::U64(self.plan_builds)),
            ("plan_reuses", Json::U64(self.plan_reuses)),
            ("buffer_reuses", Json::U64(self.buffer_reuses)),
            ("messages_dropped", Json::U64(self.messages_dropped)),
            ("messages_delayed", Json::U64(self.messages_delayed)),
            ("lost", Json::Bool(self.lost)),
            ("counters", self.counters.to_json()),
        ])
    }
}

/// Aggregate fault-recovery metrics for a run. All-zero in a fault-free
/// run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryStats {
    /// Ranks that crashed during the run.
    pub ranks_lost: usize,
    /// Which ranks crashed.
    pub lost_ranks: Vec<usize>,
    /// Chunks re-homed from crashed/unresponsive ranks to survivors.
    pub chunks_reassigned: usize,
    /// Chunks whose results arrived more than once and were deduplicated.
    pub duplicate_chunks: usize,
    /// Messages eaten by fault injection (sum over ranks).
    pub messages_dropped: u64,
    /// Messages delayed by fault injection (sum over ranks).
    pub messages_delayed: u64,
    /// Wall milliseconds from the first rank loss until every outstanding
    /// chunk was re-committed; 0 when no rank was lost.
    pub recovery_millis: f64,
}

impl RecoveryStats {
    /// True when the run saw no faults at all.
    pub fn is_clean(&self) -> bool {
        *self == RecoveryStats::default()
    }
}

impl ToJson for RecoveryStats {
    fn to_json(&self) -> Json {
        Json::obj([
            ("ranks_lost", Json::U64(self.ranks_lost as u64)),
            (
                "lost_ranks",
                Json::Arr(
                    self.lost_ranks
                        .iter()
                        .map(|&r| Json::U64(r as u64))
                        .collect(),
                ),
            ),
            (
                "chunks_reassigned",
                Json::U64(self.chunks_reassigned as u64),
            ),
            ("duplicate_chunks", Json::U64(self.duplicate_chunks as u64)),
            ("messages_dropped", Json::U64(self.messages_dropped)),
            ("messages_delayed", Json::U64(self.messages_delayed)),
            ("recovery_millis", Json::F64(self.recovery_millis)),
            ("clean", Json::Bool(self.is_clean())),
        ])
    }
}

/// Outcome of a distributed run.
#[derive(Debug, Clone)]
pub struct DistResult {
    /// Total matches across all ranks.
    pub total_matches: u64,
    /// Per-rank metrics, indexed by rank.
    pub per_rank: Vec<RankMetrics>,
    /// End-to-end wall time of the whole run.
    pub wall_millis: f64,
    /// Fault-recovery metrics (all-zero when nothing failed).
    pub recovery: RecoveryStats,
    /// Path of the flight-recorder post-mortem written when the first
    /// rank died, if any did.
    pub postmortem: Option<String>,
}

impl DistResult {
    /// Slowest rank's simulated busy time — the distributed makespan that
    /// Figure 4 speedups are computed from.
    pub fn makespan_sim_millis(&self) -> f64 {
        self.per_rank
            .iter()
            .map(|r| r.busy_sim_millis)
            .fold(0.0, f64::max)
    }

    /// Load-balance ratio: min/max busy time over ranks (1.0 = perfect,
    /// the Figure 5 claim is that this stays high).
    pub fn balance_ratio(&self) -> f64 {
        let max = self.makespan_sim_millis();
        if max == 0.0 {
            return 1.0;
        }
        let min = self
            .per_rank
            .iter()
            .map(|r| r.busy_sim_millis)
            .fold(f64::INFINITY, f64::min);
        min / max
    }
}

impl ToJson for DistResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("total_matches", Json::U64(self.total_matches)),
            ("wall_millis", Json::F64(self.wall_millis)),
            ("makespan_sim_millis", Json::F64(self.makespan_sim_millis())),
            ("balance_ratio", Json::F64(self.balance_ratio())),
            (
                "per_rank",
                Json::Arr(self.per_rank.iter().map(ToJson::to_json).collect()),
            ),
            ("recovery", self.recovery.to_json()),
            (
                "postmortem",
                self.postmortem.clone().map_or(Json::Null, Json::Str),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rk(rank: usize, busy: f64) -> RankMetrics {
        RankMetrics {
            rank,
            busy_sim_millis: busy,
            ..Default::default()
        }
    }

    #[test]
    fn makespan_and_balance() {
        let r = DistResult {
            total_matches: 0,
            per_rank: vec![rk(0, 10.0), rk(1, 8.0), rk(2, 9.0)],
            wall_millis: 0.0,
            recovery: RecoveryStats::default(),
            postmortem: None,
        };
        assert!((r.makespan_sim_millis() - 10.0).abs() < 1e-12);
        assert!((r.balance_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn degenerate_zero_load() {
        let r = DistResult {
            total_matches: 0,
            per_rank: vec![rk(0, 0.0)],
            wall_millis: 0.0,
            recovery: RecoveryStats::default(),
            postmortem: None,
        };
        assert_eq!(r.balance_ratio(), 1.0);
    }

    #[test]
    fn recovery_stats_cleanliness() {
        assert!(RecoveryStats::default().is_clean());
        let dirty = RecoveryStats {
            messages_dropped: 1,
            ..Default::default()
        };
        assert!(!dirty.is_clean());
    }
}
