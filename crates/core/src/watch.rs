//! Continuous-query subscriptions over the serving tier.
//!
//! [`ServeTier::watch`] turns a tier into a batch-dynamic server: every
//! rank holds a replica [`DynamicSession`] of the live graph, standing
//! queries are registered on all replicas, and each applied
//! [`EdgeBatch`] is served by the lowest-numbered live rank (the
//! *primary*), which fans the resulting [`MatchDelta`]s out to
//! subscribed [`Watcher`]s. Surviving ranks replay every batch, so when
//! the tier's [`FaultPlan`](crate::FaultPlan) kills the primary —
//! the crash clock is the number of batches a rank has served, mirroring
//! the serve tier's chunk clock — the next live rank takes over with
//! byte-identical standing state and the delta stream continues without
//! a gap or a reset.
//!
//! SLO accounting covers per-delta latencies: each delta is committed to
//! the tier-style `Telemetry` under class `watch/q<id>` with the
//! fan-out wait as queue time and the simulated cost of the anchored
//! expansions as execution time, so [`WatchSession::slo`] reports the same per-class
//! quantiles `cuts serve` emits.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::time::Instant;

use cuts_gpu_sim::Counters;
use cuts_graph::{EdgeBatch, Graph};
use cuts_obs::{Arg, EventKind};

use crate::config::EngineConfig;
use crate::dynamic::{DynamicError, DynamicSession, MatchDelta, StandingQueryId};
use crate::error::{CutsError, EngineError};
use crate::fault::CrashFault;
use crate::job::{JobId, JobOutcome, SloReport, Telemetry};
use crate::result::MatchResult;
use crate::serve::ServeTier;

/// One fanned-out delta as a subscriber sees it.
#[derive(Debug, Clone)]
pub struct WatchUpdate {
    /// 1-based sequence number of the batch that produced this delta.
    pub batch: u64,
    /// Rank that served the batch (changes on failover).
    pub rank: usize,
    /// The match delta itself.
    pub delta: MatchDelta,
}

/// Receiving end of a subscription: yields one [`WatchUpdate`] per
/// applied batch, in order.
#[derive(Debug)]
pub struct Watcher {
    /// The standing query this watcher follows.
    pub query: StandingQueryId,
    rx: Receiver<WatchUpdate>,
}

impl Watcher {
    /// Drains every update delivered so far.
    pub fn drain(&self) -> Vec<WatchUpdate> {
        self.rx.try_iter().collect()
    }
}

/// A serving tier in batch-dynamic mode. Built by [`ServeTier::watch`];
/// holds one graph replica per rank plus the subscription registry.
pub struct WatchSession<'t> {
    tier: &'t ServeTier,
    replicas: Vec<DynamicSession<'t>>,
    alive: Vec<bool>,
    crashes: Vec<CrashFault>,
    /// Batches applied so far — the failover crash clock.
    applied: u64,
    telem: Telemetry,
    subs: Vec<Vec<Sender<WatchUpdate>>>,
    lost_ranks: u64,
}

impl ServeTier {
    /// Enters batch-dynamic mode over `graph`: every rank gets a
    /// replica session on its first device. The tier's fault plan,
    /// telemetry switch and stats sink all apply to the watch session.
    pub fn watch(&self, graph: Graph) -> WatchSession<'_> {
        let cfg = self.config();
        let replicas: Vec<DynamicSession<'_>> = self
            .rank_devices()
            .iter()
            .map(|devs| DynamicSession::new(&devs[0], EngineConfig::default(), graph.clone()))
            .collect();
        let ranks = replicas.len();
        WatchSession {
            tier: self,
            replicas,
            alive: vec![true; ranks],
            crashes: cfg.fault_plan().resolve(ranks).crashes,
            applied: 0,
            telem: Telemetry::with(cfg.telemetry_enabled(), cfg.stats_every(), cfg.stats_sink()),
            subs: Vec::new(),
            lost_ranks: 0,
        }
    }
}

impl WatchSession<'_> {
    /// Registers `query` as a standing query on every live replica and
    /// subscribes to its delta stream.
    pub fn subscribe(&mut self, query: &Graph) -> Result<Watcher, EngineError> {
        let mut id = None;
        for (r, replica) in self.replicas.iter_mut().enumerate() {
            if !self.alive[r] {
                continue;
            }
            let qid = replica.register(query)?;
            // Replicas register in lockstep, so ids agree across ranks.
            debug_assert!(id.is_none_or(|prev| prev == qid));
            id = Some(qid);
        }
        let id = id.expect("a validated tier always has a live rank");
        let (tx, rx) = channel();
        while self.subs.len() <= id.0 {
            self.subs.push(Vec::new());
        }
        self.subs[id.0].push(tx);
        Ok(Watcher { query: id, rx })
    }

    /// The standing query's current match set, read from the primary.
    pub fn match_set(
        &self,
        id: StandingQueryId,
    ) -> std::collections::BTreeSet<Vec<cuts_graph::VertexId>> {
        self.replicas[self.primary().expect("a live rank")].match_set(id)
    }

    /// Ground truth from the primary: full recompute over the live graph.
    pub fn recompute(
        &self,
        id: StandingQueryId,
    ) -> Result<std::collections::BTreeSet<Vec<cuts_graph::VertexId>>, EngineError> {
        self.replicas[self.primary().expect("a live rank")].recompute(id)
    }

    /// Lowest-numbered live rank, if any.
    pub fn primary(&self) -> Option<usize> {
        self.alive.iter().position(|&a| a)
    }

    /// Live rank count.
    pub fn live_ranks(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Ranks lost to the fault plan so far.
    pub fn lost_ranks(&self) -> u64 {
        self.lost_ranks
    }

    /// Per-class SLO quantiles over every delta committed so far.
    pub fn slo(&self) -> SloReport {
        self.telem.slo()
    }

    /// Applies `batch` tier-wide: the fault plan's crash clock advances
    /// (a rank with `after_chunks == n` dies before serving its
    /// `(n+1)`-th batch), every surviving replica replays the batch, and
    /// the primary's deltas are fanned out to watchers and committed to
    /// the SLO ledger. Returns the primary's deltas in registration
    /// order.
    pub fn apply_batch(&mut self, batch: &EdgeBatch) -> Result<Vec<MatchDelta>, CutsError> {
        let start = Instant::now();
        let trace = self.tier.serve_trace();
        // Crash boundary: batches already served is the chunk clock.
        for c in &self.crashes {
            if self.alive[c.rank] && (c.after_chunks as u64) <= self.applied {
                self.alive[c.rank] = false;
                self.lost_ranks += 1;
                trace.instant_with(
                    EventKind::Batch,
                    "rank_lost",
                    &[
                        ("rank", Arg::U64(c.rank as u64)),
                        ("batch", Arg::U64(self.applied)),
                    ],
                );
            }
        }
        let primary = self.primary().ok_or(CutsError::Invalid {
            what: "fault_plan",
            given: "every rank dead before batch".to_string(),
        })?;
        let mut primary_deltas = None;
        for r in 0..self.replicas.len() {
            if !self.alive[r] {
                continue;
            }
            let out = self.replicas[r].apply_batch(batch).map_err(|e| match e {
                DynamicError::Batch(b) => CutsError::Invalid {
                    what: "edge_batch",
                    given: b.to_string(),
                },
                DynamicError::Engine(e) => CutsError::Engine(e),
            })?;
            if r == primary {
                primary_deltas = Some(out.deltas);
            }
        }
        let deltas = primary_deltas.expect("primary is alive and was replayed");
        self.applied += 1;
        let queue_millis = start.elapsed().as_secs_f64() * 1e3;
        for d in &deltas {
            let class = format!("watch/q{}", d.query.0);
            let outcome = JobOutcome {
                id: JobId(self.applied * 1000 + d.query.0 as u64),
                name: Some(class.clone()),
                device: primary,
                lane: 0,
                queue_millis,
                exec_millis: d.sim_millis,
                // Entries the delta's anchored runs built and returned.
                trie_entries: d.released_entries,
                result: Ok(MatchResult {
                    num_matches: d.len() as u64,
                    level_counts: Vec::new(),
                    counters: Counters::default(),
                    sim_millis: d.sim_millis,
                    wall_millis: queue_millis,
                    used_chunking: false,
                    order: Vec::new(),
                }),
            };
            self.telem.on_finish(trace, &class, None, &outcome);
            if let Some(subs) = self.subs.get(d.query.0) {
                for tx in subs {
                    let _ = tx.send(WatchUpdate {
                        batch: self.applied,
                        rank: primary,
                        delta: d.clone(),
                    });
                }
            }
        }
        self.telem.maybe_emit(self.applied);
        Ok(deltas)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::serve::ServeConfig;
    use cuts_gpu_sim::DeviceConfig;
    use cuts_graph::generators::{clique, mesh2d};
    use std::collections::BTreeSet;

    fn tier(ranks: usize, fault: Option<FaultPlan>) -> ServeTier {
        let mut b = ServeConfig::builder()
            .ranks(ranks)
            .lanes(1)
            .device_config(DeviceConfig::test_small());
        if let Some(f) = fault {
            b = b.fault_plan(f);
        }
        ServeTier::new(b.build().unwrap())
    }

    #[test]
    fn watcher_sees_every_delta_and_slo_fills() {
        let t = tier(2, None);
        let mut w = t.watch(mesh2d(2, 3));
        let watcher = w.subscribe(&clique(3)).unwrap();
        let mut b = EdgeBatch::new();
        b.insert(0, 4);
        w.apply_batch(&b).unwrap();
        let mut b = EdgeBatch::new();
        b.delete(0, 4);
        w.apply_batch(&b).unwrap();

        let updates = watcher.drain();
        assert_eq!(updates.len(), 2);
        assert_eq!(updates[0].delta.added.len(), 12);
        assert_eq!(updates[1].delta.removed.len(), 12);
        assert_eq!(w.match_set(watcher.query).len(), 0);

        let slo = w.slo();
        let c = slo.class("watch/q0").expect("watch class accounted");
        assert_eq!(c.completed, 2);
    }

    #[test]
    fn failover_keeps_delta_stream_seamless() {
        // Rank 0 dies after serving one batch; rank 1 takes over.
        let plan = FaultPlan::parse("crash:0@1").unwrap();
        let t = tier(2, Some(plan));
        let mut w = t.watch(mesh2d(2, 3));
        let watcher = w.subscribe(&clique(3)).unwrap();
        let mut folded: BTreeSet<Vec<u32>> = BTreeSet::new();

        let edits: [(bool, u32, u32); 3] = [(true, 0, 4), (false, 0, 4), (true, 1, 3)];
        for (add, u, v) in edits {
            let mut b = EdgeBatch::new();
            if add {
                b.insert(u, v);
            } else {
                b.delete(u, v);
            }
            w.apply_batch(&b).unwrap();
        }
        assert_eq!(w.live_ranks(), 1);
        assert_eq!(w.lost_ranks(), 1);
        assert_eq!(w.primary(), Some(1));

        let updates = watcher.drain();
        assert_eq!(updates.len(), 3);
        assert_eq!(updates[0].rank, 0);
        assert_eq!(updates[1].rank, 1, "failover before the second batch");
        for u in &updates {
            for r in &u.delta.removed {
                assert!(folded.remove(r));
            }
            for a in &u.delta.added {
                assert!(folded.insert(a.clone()));
            }
        }
        assert_eq!(folded, w.recompute(watcher.query).unwrap());
    }
}
