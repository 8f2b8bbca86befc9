//! Deterministic fault injection for the distributed runtime and the
//! serving tier.
//!
//! A [`FaultPlan`] is a *schedule*, not a probability: it names exactly
//! which rank crashes at which work boundary and which point-to-point
//! messages are dropped or delayed (by per-edge send ordinal). Running
//! the same plan twice injects exactly the same faults, which is what
//! lets the recovery test suite assert bit-identical match counts.
//!
//! Plans come from three places: the compact text schema parsed by
//! [`FaultPlan::parse`] (the CLI's `--fault-plan`), the seeded generator
//! [`FaultPlan::seeded`] (property-style sweeps), or literal
//! construction in tests. The [`FaultInjector`] is the runtime half:
//! one shared instance per universe, consulted by the simulated
//! transport on every send and by workers at every work boundary —
//! chunk commits in the distributed runtime (`cuts-dist`), job commits
//! in [`crate::serve`].

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::error::DistError;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// How an injected process failure manifests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashKind {
    /// Worker returns an error (clean fail-stop).
    Error,
    /// Worker thread panics (tests the unwind/join recovery path).
    Panic,
}

/// A scheduled rank failure at a chunk boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashFault {
    /// Rank that fails.
    pub rank: usize,
    /// Boundary at which it fails: just before processing its
    /// `(after_chunks + 1)`-th chunk (0 = before any work).
    pub after_chunks: usize,
    /// Failure mode.
    pub kind: CrashKind,
}

/// A scheduled message drop: the `nth` message (1-based) sent from
/// `from` to `to` vanishes in transit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DropFault {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// 1-based ordinal among all messages `from` sends to `to`.
    pub nth: u64,
}

/// A scheduled message delay: the `nth` message from `from` to `to` is
/// delivered `millis` late.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DelayFault {
    /// Sending rank.
    pub from: usize,
    /// Receiving rank.
    pub to: usize,
    /// 1-based ordinal among all messages `from` sends to `to`.
    pub nth: u64,
    /// Added latency in milliseconds.
    pub millis: u64,
}

/// A deterministic schedule of injected faults.
///
/// Text schema (comma-separated clauses, parsed by [`FaultPlan::parse`]):
///
/// ```text
/// crash:R@C        rank R fails (error) before its (C+1)-th chunk
/// panic:R@C        rank R panics before its (C+1)-th chunk
/// drop:A->B@N      the N-th message from rank A to rank B is dropped
/// delay:A->B@N+MS  the N-th message from A to B arrives MS ms late
/// seed:S           shorthand: merge in FaultPlan::seeded(S, ranks)
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Scheduled rank failures.
    pub crashes: Vec<CrashFault>,
    /// Scheduled message drops.
    pub drops: Vec<DropFault>,
    /// Scheduled message delays.
    pub delays: Vec<DelayFault>,
    /// Seed recorded when the plan came from [`FaultPlan::seeded`] or a
    /// `seed:` clause (resolved against the actual rank count at run
    /// start; purely informational otherwise).
    pub seed: Option<u64>,
}

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.crashes.is_empty()
            && self.drops.is_empty()
            && self.delays.is_empty()
            && self.seed.is_none()
    }

    /// Parses the text schema (see type docs). Whitespace around clauses
    /// is ignored; an empty string is the empty plan.
    pub fn parse(spec: &str) -> Result<FaultPlan, DistError> {
        let bad = |clause: &str, reason: &'static str| DistError::FaultSpec {
            clause: clause.to_string(),
            reason,
        };
        let mut plan = FaultPlan::default();
        for clause in spec.split(',').map(str::trim).filter(|c| !c.is_empty()) {
            let (kind, rest) = clause
                .split_once(':')
                .ok_or_else(|| bad(clause, "missing `:`"))?;
            match kind {
                "crash" | "panic" => {
                    let (r, c) = rest
                        .split_once('@')
                        .ok_or_else(|| bad(clause, "expected R@C"))?;
                    plan.crashes.push(CrashFault {
                        rank: parse_num(r, clause)?,
                        after_chunks: parse_num(c, clause)?,
                        kind: if kind == "crash" {
                            CrashKind::Error
                        } else {
                            CrashKind::Panic
                        },
                    });
                }
                "drop" => {
                    let (edge, n) = rest
                        .split_once('@')
                        .ok_or_else(|| bad(clause, "expected A->B@N"))?;
                    let (a, b) = parse_edge(edge, clause)?;
                    plan.drops.push(DropFault {
                        from: a,
                        to: b,
                        nth: parse_num(n, clause)?,
                    });
                }
                "delay" => {
                    let (edge, tail) = rest
                        .split_once('@')
                        .ok_or_else(|| bad(clause, "expected A->B@N+MS"))?;
                    let (a, b) = parse_edge(edge, clause)?;
                    let (n, ms) = tail
                        .split_once('+')
                        .ok_or_else(|| bad(clause, "expected N+MS after @"))?;
                    plan.delays.push(DelayFault {
                        from: a,
                        to: b,
                        nth: parse_num(n, clause)?,
                        millis: parse_num(ms, clause)?,
                    });
                }
                "seed" => plan.seed = Some(parse_num(rest, clause)?),
                _ => return Err(bad(clause, "unknown fault kind")),
            }
        }
        Ok(plan)
    }

    /// Deterministic pseudo-random plan for `ranks` ranks: between one
    /// and `ranks - 1` non-overlapping crash victims (never rank-count
    /// many, so a survivor always exists), plus a handful of early drops
    /// and delays. Same `(seed, ranks)` ⇒ identical plan.
    pub fn seeded(seed: u64, ranks: usize) -> FaultPlan {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xFA17_1A17);
        let mut plan = FaultPlan {
            seed: Some(seed),
            ..Default::default()
        };
        if ranks < 2 {
            return plan; // nothing survivable to inject
        }
        let victims = rng.random_range(1..ranks);
        let mut ranks_left: Vec<usize> = (0..ranks).collect();
        for _ in 0..victims {
            let i = rng.random_range(0..ranks_left.len());
            plan.crashes.push(CrashFault {
                rank: ranks_left.swap_remove(i),
                after_chunks: rng.random_range(0..4usize),
                kind: if rng.random_bool(0.25) {
                    CrashKind::Panic
                } else {
                    CrashKind::Error
                },
            });
        }
        for _ in 0..rng.random_range(0..4usize) {
            let from = rng.random_range(0..ranks);
            let mut to = rng.random_range(0..ranks);
            if to == from {
                to = (to + 1) % ranks;
            }
            plan.drops.push(DropFault {
                from,
                to,
                nth: rng.random_range(1..6u64),
            });
        }
        for _ in 0..rng.random_range(0..3usize) {
            let from = rng.random_range(0..ranks);
            let mut to = rng.random_range(0..ranks);
            if to == from {
                to = (to + 1) % ranks;
            }
            plan.delays.push(DelayFault {
                from,
                to,
                nth: rng.random_range(1..4u64),
                millis: rng.random_range(5..25u64),
            });
        }
        plan
    }

    /// Resolves `seed:` shorthand against the actual rank count and
    /// drops faults referencing out-of-range ranks.
    pub fn resolve(&self, ranks: usize) -> FaultPlan {
        let mut plan = self.clone();
        if let Some(seed) = plan.seed {
            let generated = FaultPlan::seeded(seed, ranks);
            plan.crashes.extend(generated.crashes);
            plan.drops.extend(generated.drops);
            plan.delays.extend(generated.delays);
        }
        plan.crashes.retain(|c| c.rank < ranks);
        plan.drops.retain(|d| d.from < ranks && d.to < ranks);
        plan.delays.retain(|d| d.from < ranks && d.to < ranks);
        plan
    }

    /// Errors if any explicit clause references a rank outside
    /// `0..ranks` — a typo'd rank would otherwise make the clause a
    /// silent no-op (see [`FaultPlan::resolve`]). Seeded clauses are
    /// generated in-range and need no check.
    pub fn check_ranks(&self, ranks: usize) -> Result<(), DistError> {
        let bad = |r: usize| r >= ranks;
        for c in &self.crashes {
            if bad(c.rank) {
                return Err(DistError::RankOutOfRange {
                    rank: c.rank,
                    ranks,
                });
            }
        }
        for (from, to) in self
            .drops
            .iter()
            .map(|d| (d.from, d.to))
            .chain(self.delays.iter().map(|d| (d.from, d.to)))
        {
            if bad(from) || bad(to) {
                let rank = if bad(from) { from } else { to };
                return Err(DistError::RankOutOfRange { rank, ranks });
            }
        }
        Ok(())
    }

    /// Number of distinct ranks this plan crashes.
    pub fn distinct_victims(&self) -> usize {
        let mut ranks: Vec<usize> = self.crashes.iter().map(|c| c.rank).collect();
        ranks.sort_unstable();
        ranks.dedup();
        ranks.len()
    }
}

fn parse_num<T: std::str::FromStr>(s: &str, clause: &str) -> Result<T, DistError> {
    s.trim().parse().map_err(|_| DistError::FaultSpec {
        clause: clause.to_string(),
        reason: "bad number",
    })
}

fn parse_edge(s: &str, clause: &str) -> Result<(usize, usize), DistError> {
    let (a, b) = s.split_once("->").ok_or_else(|| DistError::FaultSpec {
        clause: clause.to_string(),
        reason: "expected A->B",
    })?;
    Ok((parse_num(a, clause)?, parse_num(b, clause)?))
}

/// What the injector decides about one outgoing message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendFate {
    /// Deliver normally.
    Deliver,
    /// Silently discard.
    Drop,
    /// Deliver after the added latency.
    Delay(Duration),
}

/// Runtime state of a fault plan: per-edge send ordinals plus injected
/// fault counters. One shared instance per universe.
#[derive(Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
    ranks: usize,
    /// `ranks × ranks` matrix of messages sent per directed edge.
    sent: Vec<AtomicU64>,
    /// Per-sender counts of injector-dropped messages.
    dropped: Vec<AtomicU64>,
    /// Per-sender counts of injector-delayed messages.
    delayed: Vec<AtomicU64>,
}

impl FaultInjector {
    /// Builds the injector for a resolved plan over `ranks` ranks.
    pub fn new(plan: FaultPlan, ranks: usize) -> Self {
        let plan = plan.resolve(ranks);
        FaultInjector {
            plan,
            ranks,
            sent: (0..ranks * ranks).map(|_| AtomicU64::new(0)).collect(),
            dropped: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
            delayed: (0..ranks).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// The resolved plan in force.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Decides the fate of the next `from → to` message and advances the
    /// edge ordinal. Deterministic given the send sequence.
    pub fn on_send(&self, from: usize, to: usize) -> SendFate {
        let nth = self.sent[from * self.ranks + to].fetch_add(1, Ordering::Relaxed) + 1;
        if self
            .plan
            .drops
            .iter()
            .any(|d| d.from == from && d.to == to && d.nth == nth)
        {
            self.dropped[from].fetch_add(1, Ordering::Relaxed);
            return SendFate::Drop;
        }
        if let Some(d) = self
            .plan
            .delays
            .iter()
            .find(|d| d.from == from && d.to == to && d.nth == nth)
        {
            self.delayed[from].fetch_add(1, Ordering::Relaxed);
            return SendFate::Delay(Duration::from_millis(d.millis));
        }
        SendFate::Deliver
    }

    /// Whether `rank` is scheduled to fail at the boundary where it has
    /// completed `chunks_done` chunks.
    pub fn should_crash(&self, rank: usize, chunks_done: usize) -> Option<CrashKind> {
        self.plan
            .crashes
            .iter()
            .find(|c| c.rank == rank && c.after_chunks == chunks_done)
            .map(|c| c.kind)
    }

    /// Like [`Self::should_crash`], but fires once `clock` has reached
    /// *at least* the scheduled count. The serving tier's clock is the
    /// number of jobs admitted tier-wide, not `rank`'s own completions:
    /// several admissions can land between two of the rank's boundary
    /// checks, and the `<=` form cannot miss its trigger.
    pub fn should_crash_by(&self, rank: usize, clock: usize) -> Option<CrashKind> {
        self.plan
            .crashes
            .iter()
            .find(|c| c.rank == rank && c.after_chunks <= clock)
            .map(|c| c.kind)
    }

    /// Messages from `rank` the injector has dropped so far.
    pub fn messages_dropped(&self, rank: usize) -> u64 {
        self.dropped[rank].load(Ordering::Relaxed)
    }

    /// Messages from `rank` the injector has delayed so far.
    pub fn messages_delayed(&self, rank: usize) -> u64 {
        self.delayed[rank].load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_full_schema() {
        let p = FaultPlan::parse("crash:1@2, panic:0@0, drop:0->2@5, delay:2->1@1+20").unwrap();
        assert_eq!(
            p.crashes,
            vec![
                CrashFault {
                    rank: 1,
                    after_chunks: 2,
                    kind: CrashKind::Error
                },
                CrashFault {
                    rank: 0,
                    after_chunks: 0,
                    kind: CrashKind::Panic
                },
            ]
        );
        assert_eq!(
            p.drops,
            vec![DropFault {
                from: 0,
                to: 2,
                nth: 5
            }]
        );
        assert_eq!(
            p.delays,
            vec![DelayFault {
                from: 2,
                to: 1,
                nth: 1,
                millis: 20
            }]
        );
        assert!(p.seed.is_none());
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "crash:1",
            "drop:0-2@5",
            "delay:0->1@3",
            "warp:1@1",
            "crash:x@1",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "{bad}");
        }
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(matches!(
            FaultPlan::parse("warp:1@1").unwrap_err(),
            DistError::FaultSpec {
                reason: "unknown fault kind",
                ..
            }
        ));
        assert!(matches!(
            FaultPlan::parse("crash:x@1").unwrap_err(),
            DistError::FaultSpec {
                reason: "bad number",
                ..
            }
        ));
    }

    #[test]
    fn check_ranks_is_typed() {
        let p = FaultPlan::parse("crash:3@0").unwrap();
        assert!(p.check_ranks(4).is_ok());
        assert_eq!(
            p.check_ranks(2).unwrap_err(),
            DistError::RankOutOfRange { rank: 3, ranks: 2 }
        );
        let p = FaultPlan::parse("drop:0->5@1").unwrap();
        assert_eq!(
            p.check_ranks(2).unwrap_err(),
            DistError::RankOutOfRange { rank: 5, ranks: 2 }
        );
    }

    #[test]
    fn seeded_is_deterministic_and_survivable() {
        for seed in 0..50 {
            for ranks in [2usize, 4, 8] {
                let a = FaultPlan::seeded(seed, ranks);
                let b = FaultPlan::seeded(seed, ranks);
                assert_eq!(a, b);
                assert!(a.distinct_victims() < ranks, "seed {seed} ranks {ranks}");
            }
        }
    }

    #[test]
    fn seed_clause_resolves() {
        let p = FaultPlan::parse("seed:7").unwrap();
        assert!(p.crashes.is_empty());
        let resolved = p.resolve(4);
        assert_eq!(resolved.crashes, FaultPlan::seeded(7, 4).crashes);
    }

    #[test]
    fn resolve_discards_out_of_range() {
        let p = FaultPlan::parse("crash:9@0, drop:0->9@1, delay:9->0@1+5").unwrap();
        let r = p.resolve(2);
        assert!(r.crashes.is_empty() && r.drops.is_empty() && r.delays.is_empty());
    }

    #[test]
    fn injector_fires_on_exact_ordinal() {
        let inj = FaultInjector::new(FaultPlan::parse("drop:0->1@2, delay:0->1@3+10").unwrap(), 2);
        assert_eq!(inj.on_send(0, 1), SendFate::Deliver);
        assert_eq!(inj.on_send(0, 1), SendFate::Drop);
        assert_eq!(
            inj.on_send(0, 1),
            SendFate::Delay(Duration::from_millis(10))
        );
        assert_eq!(inj.on_send(0, 1), SendFate::Deliver);
        // Other edges unaffected.
        assert_eq!(inj.on_send(1, 0), SendFate::Deliver);
        assert_eq!(inj.messages_dropped(0), 1);
        assert_eq!(inj.messages_delayed(0), 1);
    }

    #[test]
    fn crash_boundary_lookup() {
        let inj = FaultInjector::new(FaultPlan::parse("crash:1@2, panic:0@0").unwrap(), 2);
        assert_eq!(inj.should_crash(1, 2), Some(CrashKind::Error));
        assert_eq!(inj.should_crash(0, 0), Some(CrashKind::Panic));
        assert_eq!(inj.should_crash(1, 1), None);
        assert_eq!(inj.should_crash(0, 1), None);
    }
}
