//! Per-rank worker: Algorithm 3's chunked outer loop with asynchronous
//! donation at chunk boundaries, hardened against rank crashes and
//! message loss.
//!
//! Fault tolerance rests on three mechanisms:
//!
//! 1. **The chunk ledger** ([`crate::ChunkLedger`]): every chunk
//!    of work is registered before any rank starts, every hand-off is a
//!    ledger transfer, and every result is an idempotent per-chunk
//!    commit. `total_matches` is the ledger sum, so duplicated or
//!    re-executed chunks can never change the count.
//! 2. **Liveness tracking**: thread exit flips the [`AliveBoard`]
//!    (authoritative, like an MPI launcher seeing a process die), and
//!    [`tag::HEARTBEAT`] broadcasts keep the [`StatusBoard`]'s
//!    last-heard clocks fresh so *unresponsive* ranks are detected too.
//! 3. **Reclaim**: an idle rank that waits out `rank_timeout` claims
//!    every pending chunk owned by a dead or silent rank (and any chunk
//!    homed to itself whose `WORK` message was lost) and processes it
//!    locally. Because commits deduplicate, reclaiming too eagerly
//!    costs only wasted cycles, never correctness.
//!
//! Termination is ledger-driven — a worker exits when every registered
//! chunk has committed — rather than the all-peers-free consensus of the
//! bare protocol, which a single lost `FREE` broadcast would hang.

use std::collections::VecDeque;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use bytes::Bytes;

use cuts_core::error::WireError;
use cuts_core::fault::{CrashKind, FaultInjector};
use cuts_core::{ExecSession, MatchOrder};
use cuts_gpu_sim::Device;
use cuts_graph::{Graph, VertexId};
use cuts_obs::{Arg, EventKind, Trace};
use cuts_trie::HostTrie;

use crate::config::DistConfig;
use crate::metrics::RankMetrics;
use crate::mpi::{Comm, Message, Rank};
use crate::protocol::{tag, Chunk, Status, StatusBoard, WorkPayload};
use crate::{AliveBoard, ChunkId, ChunkLedger};

/// Interval between heartbeat broadcasts from each worker's main loop,
/// refreshing peers' liveness views even when no protocol traffic flows
/// (well inside the default 50 ms `rank_timeout`).
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(10);

/// Longest a rank blocks on its mailbox before it re-checks the ledger,
/// its claim deadline and its heartbeat: while it waits for a claim's
/// answer, and while it is idle. A finished run wakes idle peers at once
/// with [`tag::DONE`], so this bounds only how late a lost message is
/// noticed.
const POLL_WAIT: Duration = Duration::from_millis(5);

/// How root candidates are split across ranks at start-up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Partition {
    /// Interleaved assignment (the default; statistically balanced).
    RoundRobin,
    /// Contiguous blocks (id-order locality; imbalanced on skewed graphs —
    /// the ablation case that makes the donation protocol visibly work).
    Block,
    /// Everything to rank 0 (worst case; a pure donation stress test).
    AllToRankZero,
}

/// Worker failures: the distributed-runtime error defined in
/// `cuts-core` so the whole workspace converges on `CutsError`. The
/// alias keeps the historical name this crate's API grew up with.
pub use cuts_core::error::DistError as WorkerError;

/// State every worker of a universe shares.
#[derive(Clone)]
pub struct Shared {
    /// Chunk ownership/result ledger.
    pub ledger: Arc<ChunkLedger>,
    /// Rank liveness flags.
    pub alive: Arc<AliveBoard>,
    /// Fault injector (`None` = fault-free run).
    pub injector: Option<Arc<FaultInjector>>,
    /// Start-up barrier: every rank registers its initial chunks before
    /// any rank may observe `all_completed`, so an early-idle rank can
    /// never conclude the run is over while peers are still registering.
    pub barrier: Arc<Barrier>,
    /// Trace handle the whole universe emits into; each worker derives a
    /// rank-tagged view. Disabled unless built via [`Shared::with_trace`].
    pub trace: Trace,
}

impl Shared {
    /// Fresh shared state for a universe of `ranks` workers.
    pub fn new(ranks: usize, injector: Option<Arc<FaultInjector>>) -> Self {
        Self::with_trace(ranks, injector, Trace::disabled())
    }

    /// Shared state whose workers record into `trace`'s journal.
    pub fn with_trace(ranks: usize, injector: Option<Arc<FaultInjector>>, trace: Trace) -> Self {
        Shared {
            ledger: Arc::new(ChunkLedger::new()),
            alive: Arc::new(AliveBoard::new(ranks)),
            injector,
            barrier: Arc::new(Barrier::new(ranks)),
            trace,
        }
    }
}

enum Idle {
    Work(Vec<Chunk>),
    Done,
}

/// Root candidates of `plan`'s first query vertex, in vertex order: the
/// set Algorithm 3 deals out to ranks in chunks.
pub(crate) fn root_candidates(data: &Graph, plan: &MatchOrder) -> Vec<VertexId> {
    (0..data.num_vertices() as VertexId)
        .filter(|&v| {
            data.degree_dominates(v, plan.q_out[0], plan.q_in[0])
                && cuts_core::order::label_ok(data, v, plan.q_label[0])
        })
        .collect()
}

/// One rank's execution state. The simulated device and its
/// [`ExecSession`] are created inside [`Worker::run`]: the session plans
/// the query once per rank and chains its tries over one arena carve, so
/// every chunk — initial partition, received donation, or fault-recovery
/// replay — reuses the same plan and device storage.
pub struct Worker<'a> {
    comm: Comm,
    config: DistConfig,
    data: &'a Graph,
    query: &'a Graph,
    board: StatusBoard,
    metrics: RankMetrics,
    shared: Shared,
    /// Rank-tagged view of the shared trace.
    trace: Trace,
    /// Chunks this rank has committed (the crash-boundary clock).
    chunks_done: usize,
    last_heartbeat: Instant,
}

impl<'a> Worker<'a> {
    /// Builds a worker owning its own simulated device.
    pub fn new(
        comm: Comm,
        config: DistConfig,
        data: &'a Graph,
        query: &'a Graph,
        shared: Shared,
    ) -> Self {
        let rank = comm.rank();
        let size = comm.size();
        let trace = shared.trace.with_rank(rank);
        Worker {
            comm,
            config,
            data,
            query,
            board: StatusBoard::new(size, rank),
            metrics: RankMetrics {
                rank,
                ..Default::default()
            },
            shared,
            trace,
            chunks_done: 0,
            // Back-dated so the first tick fires immediately: every rank
            // announces itself even on runs shorter than one interval.
            last_heartbeat: Instant::now() - HEARTBEAT_INTERVAL,
        }
    }

    /// Initial jobs: this rank's share of the root candidate set under
    /// `plan`'s order, split into chunks of at most `dist_chunk` roots
    /// (§4.2 `init_match(Q, D, rank)`).
    fn initial_jobs(&self, plan: &MatchOrder) -> VecDeque<Vec<VertexId>> {
        let rank = self.comm.rank();
        let size = self.comm.size();
        let all = root_candidates(self.data, plan);
        let mine: Vec<VertexId> = match self.config.partition {
            Partition::RoundRobin => all
                .into_iter()
                .enumerate()
                .filter(|&(i, _)| i % size == rank)
                .map(|(_, v)| v)
                .collect(),
            Partition::Block => {
                let per = all.len().div_ceil(size).max(1);
                all.chunks(per)
                    .nth(rank)
                    .map(|c| c.to_vec())
                    .unwrap_or_default()
            }
            Partition::AllToRankZero => {
                if rank == 0 {
                    all
                } else {
                    Vec::new()
                }
            }
        };
        mine.chunks(self.config.dist_chunk)
            .map(|c| c.to_vec())
            .collect()
    }

    /// Runs the rank to completion, returning its match count and metrics.
    pub fn run(mut self) -> Result<(u64, RankMetrics), WorkerError> {
        // One device and one session per rank: the session plans the query
        // once and carves its trie arena once, so every chunk this rank
        // processes — including donations and recovery replays — runs
        // without new device allocations.
        let mut device = Device::new(self.config.device.clone());
        device.set_trace(self.trace.clone());
        // The rank holds a host core while it has work; an idle rank
        // lends its core to the launches of the ranks still busy.
        let mut core = Some(device.cores().hold());
        let session = ExecSession::new(&device, self.config.engine.clone());
        // Register this rank's chunks, then rendezvous: all chunks of all
        // ranks must be in the ledger before anyone can observe
        // `all_completed` (even on error, reach the barrier first so the
        // others aren't stranded).
        let jobs = session
            .plan_for(self.query)
            .map(|plan| self.initial_jobs(&plan.order));
        let mut queue: VecDeque<Chunk> = VecDeque::new();
        if let Ok(jobs) = &jobs {
            for roots in jobs {
                let id = self.shared.ledger.new_id();
                self.shared.ledger.register(id, self.comm.rank(), roots);
                self.trace.instant_with(
                    EventKind::Chunk,
                    "assign",
                    &[
                        ("id", Arg::U64(id)),
                        ("paths", Arg::U64(roots.len() as u64)),
                    ],
                );
                queue.push_back(Chunk {
                    id,
                    roots: roots.clone(),
                });
            }
        }
        // Ranks that start with nothing announce FREE *before* the
        // rendezvous: the barrier then guarantees their announcement is
        // already in every peer's inbox when work begins, so a loaded
        // rank observes them on its first poll and donation does not
        // race against how fast the warm session drains the queue.
        if jobs.is_ok() && queue.is_empty() && self.comm.size() > 1 {
            self.comm.broadcast_others(tag::FREE, Bytes::new());
        }
        self.shared.barrier.wait();
        jobs?;

        let mut total = 0u64;
        loop {
            while let Some(chunk) = queue.pop_front() {
                self.check_crash()?;
                self.heartbeat_tick(Status::Busy);
                self.poll_messages(&mut queue);
                self.maybe_donate(&mut queue);
                let n = self.process_job(&session, &chunk.roots)?;
                self.commit_chunk(chunk.id, n, &mut total);
            }
            // Queue drained: a due crash fires even after the run's last chunk.
            self.check_crash()?;
            if self.shared.ledger.all_completed() {
                break;
            }
            self.comm.broadcast_others(tag::FREE, Bytes::new());
            drop(core.take());
            let idle = self.idle_loop()?;
            core = Some(device.cores().hold());
            match idle {
                Idle::Work(chunks) => queue.extend(chunks),
                Idle::Done => break,
            }
        }
        drop(core);
        // Idle peers learn the run is over now, not at their next poll.
        self.comm.broadcast_others(tag::DONE, Bytes::new());
        self.metrics.matches = total;
        self.metrics.messages_sent = self.comm.stats().messages_sent();
        self.metrics.bytes_sent = self.comm.stats().bytes_sent();
        let s = session.stats();
        self.metrics.plan_builds = s.plans.misses;
        self.metrics.plan_reuses = s.plans.hits;
        self.metrics.buffer_reuses = s.arena.map(|a| a.slab_acquires()).unwrap_or(0);
        Ok((total, self.metrics))
    }

    /// Fires this rank's scheduled crash, if one is due at the current
    /// chunk boundary.
    fn check_crash(&self) -> Result<(), WorkerError> {
        let Some(inj) = &self.shared.injector else {
            return Ok(());
        };
        match inj.should_crash(self.comm.rank(), self.chunks_done) {
            Some(CrashKind::Panic) => {
                self.trace.instant_with(
                    EventKind::Fault,
                    "panic",
                    &[("after_chunks", Arg::U64(self.chunks_done as u64))],
                );
                panic!(
                    "injected fault: rank {} panics after {} chunks",
                    self.comm.rank(),
                    self.chunks_done
                )
            }
            Some(CrashKind::Error) => {
                self.trace.instant_with(
                    EventKind::Fault,
                    "crash",
                    &[("after_chunks", Arg::U64(self.chunks_done as u64))],
                );
                Err(WorkerError::InjectedCrash {
                    rank: self.comm.rank(),
                    after_chunks: self.chunks_done,
                })
            }
            None => Ok(()),
        }
    }

    /// Broadcasts a heartbeat when [`HEARTBEAT_INTERVAL`] has elapsed.
    fn heartbeat_tick(&mut self, status: Status) {
        if self.last_heartbeat.elapsed() >= HEARTBEAT_INTERVAL {
            self.comm
                .broadcast_others(tag::HEARTBEAT, Bytes::from(vec![status.to_byte()]));
            self.trace.instant(
                EventKind::Heartbeat,
                match status {
                    Status::Free => "free",
                    Status::Busy => "busy",
                },
            );
            self.last_heartbeat = Instant::now();
        }
    }

    /// Commits a processed chunk; duplicates (already committed by a
    /// peer) are counted but never re-summed.
    fn commit_chunk(&mut self, id: ChunkId, matches: u64, total: &mut u64) {
        if self.shared.ledger.commit(id, matches) {
            *total += matches;
            self.chunks_done += 1;
            self.trace.instant_with(
                EventKind::Chunk,
                "commit",
                &[("id", Arg::U64(id)), ("matches", Arg::U64(matches))],
            );
        } else {
            self.metrics.duplicate_chunks += 1;
            self.trace
                .instant_with(EventKind::Chunk, "duplicate", &[("id", Arg::U64(id))]);
        }
    }

    /// Runs one chunk to completion through the rank's shared session,
    /// seeded with a one-level trie of its roots.
    fn process_job(
        &mut self,
        session: &ExecSession<'_>,
        roots: &[VertexId],
    ) -> Result<u64, WorkerError> {
        if roots.is_empty() {
            return Ok(0);
        }
        let r = session.run_seeded(self.data, self.query, &HostTrie::from_roots(roots))?;
        self.metrics.busy_sim_millis += r.sim_millis;
        self.metrics.busy_wall_millis += r.wall_millis;
        self.metrics.counters += r.counters;
        self.metrics.jobs_processed += 1;
        if self.config.pacing > 0.0 {
            // Align the host timeline with the simulated device timeline
            // so FREE/donation timing reflects modelled cost.
            std::thread::sleep(Duration::from_secs_f64(
                r.sim_millis * self.config.pacing / 1000.0,
            ));
        }
        Ok(r.num_matches)
    }

    /// Integrates a WORK payload, discarding chunks the ledger says are
    /// already committed (at-least-once duplicates). A root that is not
    /// a vertex of the data graph makes the whole payload corrupt.
    fn accept_work(&mut self, payload: Bytes) -> Result<Vec<Chunk>, WireError> {
        let w = WorkPayload::decode(payload)?;
        let n = self.data.num_vertices();
        if w.jobs
            .iter()
            .flat_map(|c| &c.roots)
            .any(|&v| v as usize >= n)
        {
            return Err(WireError::Corrupt("donated root is not a data vertex"));
        }
        self.metrics.donations_received += 1;
        self.trace.instant_with(
            EventKind::Donation,
            "receive",
            &[("chunks", Arg::U64(w.jobs.len() as u64))],
        );
        let mut fresh = Vec::new();
        for chunk in w.jobs {
            if self.shared.ledger.transfer(chunk.id, self.comm.rank()) {
                fresh.push(chunk);
            } else {
                self.metrics.duplicate_chunks += 1;
            }
        }
        Ok(fresh)
    }

    /// Handles the peer traffic every loop treats alike: status
    /// broadcasts and heartbeats update the board, a CLAIM is refused,
    /// and stray WORK is accepted. Returns the fresh chunks of stray
    /// work (empty for every other message).
    fn on_peer_message(&mut self, m: Message) -> Vec<Chunk> {
        match m.tag {
            tag::FREE => self.board.mark_free(m.from),
            tag::BUSY => self.board.mark_busy(m.from),
            tag::HEARTBEAT => self.note_heartbeat(m.from, &m.payload),
            tag::CLAIM => self.comm.send(m.from, tag::NACK, Bytes::new()),
            tag::WORK => return self.accept_work(m.payload).unwrap_or_default(),
            _ => {}
        }
        Vec::new()
    }

    /// Drains the mailbox while busy.
    fn poll_messages(&mut self, queue: &mut VecDeque<Chunk>) {
        while let Some(m) = self.comm.try_recv() {
            self.board.mark_heard(m.from);
            queue.extend(self.on_peer_message(m));
        }
    }

    /// Applies a heartbeat's carried status.
    fn note_heartbeat(&mut self, from: Rank, payload: &Bytes) {
        match payload.first().map(|&b| Status::from_byte(b)) {
            Some(Status::Free) => self.board.mark_free(from),
            _ => self.board.mark_busy(from),
        }
    }

    /// If a peer is free and we hold spare jobs, pair with it (claim →
    /// ack → work) and donate the back half of the queue. The wait for
    /// the claim's resolution is bounded by `rank_timeout`: a dead or
    /// partitioned target must not wedge the donor.
    fn maybe_donate(&mut self, queue: &mut VecDeque<Chunk>) {
        if queue.len() < 2 {
            return;
        }
        let Some(target) = self.board.first_free_peer(self.config.rank_timeout) else {
            return;
        };
        if !self.shared.alive.is_alive(target) {
            self.board.mark_busy(target);
            return;
        }
        self.comm.send(target, tag::CLAIM, Bytes::new());
        let deadline = Instant::now() + self.config.rank_timeout;
        loop {
            if Instant::now() >= deadline {
                // Claim unresolved (peer died, or the CLAIM/answer was
                // lost): stop waiting and keep the work ourselves.
                self.board.mark_busy(target);
                return;
            }
            let Some(m) = self.comm.recv_timeout(POLL_WAIT) else {
                continue;
            };
            self.board.mark_heard(m.from);
            match m.tag {
                tag::ACK if m.from == target => {
                    let donate = queue.len() / 2;
                    let jobs: Vec<Chunk> = (0..donate).filter_map(|_| queue.pop_back()).collect();
                    // Re-home in the ledger before the wire send: if the
                    // WORK message is then lost, the chunks are owned by
                    // the (idle) target, which reclaims its own orphans
                    // after the timeout.
                    for dc in &jobs {
                        self.shared.ledger.transfer(dc.id, target);
                    }
                    self.trace.instant_with(
                        EventKind::Donation,
                        "send",
                        &[
                            ("target", Arg::U64(target as u64)),
                            ("chunks", Arg::U64(jobs.len() as u64)),
                        ],
                    );
                    let payload = WorkPayload { jobs }.encode();
                    self.comm.send(target, tag::WORK, payload);
                    self.board.mark_busy(target);
                    self.metrics.donations_sent += 1;
                    return;
                }
                tag::NACK if m.from == target => {
                    self.board.mark_busy(target);
                    return;
                }
                // Every chunk has committed: no peer will answer a claim.
                tag::DONE if self.shared.ledger.all_completed() => {
                    self.board.mark_busy(target);
                    return;
                }
                _ => queue.extend(self.on_peer_message(m)),
            }
        }
    }

    /// Idle loop of a free rank: grant the first claim, wait for its
    /// work, reclaim orphaned chunks once peers time out, or exit when
    /// the ledger is complete.
    fn idle_loop(&mut self) -> Result<Idle, WorkerError> {
        let me = self.comm.rank();
        let mut reserved: Option<(Rank, Instant)> = None;
        let mut last_reclaim = Instant::now();
        loop {
            if self.shared.ledger.all_completed() {
                return Ok(Idle::Done);
            }
            self.heartbeat_tick(Status::Free);
            if let Some((_, since)) = reserved {
                if since.elapsed() >= self.config.rank_timeout {
                    // The granted donor never delivered (it died, or its
                    // WORK was lost): reopen for other claimants. Any
                    // chunks it managed to transfer to us are picked up
                    // by the reclaim below.
                    reserved = None;
                }
            }
            // While unreserved and past the timeout, sweep the ledger for
            // orphans: chunks owned by dead or silent ranks, or homed to
            // us by a donation whose WORK message vanished. (While
            // reserved, a transfer to us is *expected* — don't race it.)
            //
            // The detector is armed only under an active fault plan: the
            // simulated transport is otherwise lossless and no rank dies
            // mid-run, so reclaim could only ever fire spuriously — e.g.
            // a rank descheduled mid-chunk on an oversubscribed host
            // looks stale without being lost. Keeping the detector cold
            // in clean runs makes "fault-free ⇒ zero recovery metrics"
            // hold under arbitrary scheduler jitter.
            let detector_armed = self.shared.injector.is_some();
            if detector_armed
                && reserved.is_none()
                && last_reclaim.elapsed() >= self.config.rank_timeout
            {
                let claimed = self.shared.ledger.reclaim(me, |owner| {
                    !self.shared.alive.is_alive(owner)
                        || self.board.is_stale(owner, self.config.rank_timeout)
                });
                last_reclaim = Instant::now();
                if !claimed.is_empty() {
                    self.metrics.chunks_reassigned += claimed.len();
                    self.trace.instant_with(
                        EventKind::Chunk,
                        "reclaim",
                        &[("chunks", Arg::U64(claimed.len() as u64))],
                    );
                    self.comm.broadcast_others(tag::BUSY, Bytes::new());
                    return Ok(Idle::Work(
                        claimed
                            .into_iter()
                            .map(|(id, roots)| Chunk { id, roots })
                            .collect(),
                    ));
                }
            }
            let Some(m) = self.comm.recv_timeout(POLL_WAIT) else {
                continue;
            };
            self.board.mark_heard(m.from);
            match m.tag {
                tag::DONE if self.shared.ledger.all_completed() => return Ok(Idle::Done),
                tag::CLAIM => {
                    if reserved.is_none() {
                        reserved = Some((m.from, Instant::now()));
                        self.comm.send(m.from, tag::ACK, Bytes::new());
                        // Everyone else must stop targeting us.
                        self.comm.broadcast_others(tag::BUSY, Bytes::new());
                    } else {
                        self.comm.send(m.from, tag::NACK, Bytes::new());
                    }
                }
                tag::WORK => {
                    let fresh = self.accept_work(m.payload)?;
                    self.board.mark_busy(me);
                    return Ok(Idle::Work(fresh));
                }
                _ => {
                    self.on_peer_message(m);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuts_gpu_sim::DeviceConfig;

    fn worker<'a>(
        comm: Comm,
        config: DistConfig,
        data: &'a Graph,
        query: &'a Graph,
        ranks: usize,
    ) -> Worker<'a> {
        Worker::new(comm, config, data, query, Shared::new(ranks, None))
    }

    #[test]
    fn initial_jobs_round_robin_partition() {
        let data = cuts_graph::generators::clique(6);
        let query = cuts_graph::generators::clique(3);
        let comms = Comm::universe(2);
        let mut sizes = Vec::new();
        for comm in comms {
            let w = worker(
                comm,
                DistConfig {
                    device: DeviceConfig::test_small(),
                    dist_chunk: 2,
                    ..Default::default()
                },
                &data,
                &query,
                2,
            );
            let jobs = w.initial_jobs(&MatchOrder::compute(&query).unwrap());
            let paths: usize = jobs.iter().map(|j| j.len()).sum();
            sizes.push(paths);
        }
        assert_eq!(sizes, vec![3, 3]);
    }

    #[test]
    fn initial_jobs_all_to_rank_zero() {
        let data = cuts_graph::generators::clique(5);
        let query = cuts_graph::generators::clique(3);
        let comms = Comm::universe(2);
        let mut all = Vec::new();
        for comm in comms {
            let w = worker(
                comm,
                DistConfig {
                    device: DeviceConfig::test_small(),
                    dist_chunk: 1,
                    partition: Partition::AllToRankZero,
                    ..Default::default()
                },
                &data,
                &query,
                2,
            );
            all.push(w.initial_jobs(&MatchOrder::compute(&query).unwrap()).len());
        }
        assert_eq!(all, vec![5, 0]);
    }

    #[test]
    fn block_partition_contiguous() {
        let data = cuts_graph::generators::clique(7);
        let query = cuts_graph::generators::clique(3);
        let comms = Comm::universe(2);
        let mut firsts = Vec::new();
        for comm in comms {
            let w = worker(
                comm,
                DistConfig {
                    device: DeviceConfig::test_small(),
                    dist_chunk: 64,
                    partition: Partition::Block,
                    ..Default::default()
                },
                &data,
                &query,
                2,
            );
            let jobs = w.initial_jobs(&MatchOrder::compute(&query).unwrap());
            let first = jobs.front().map(|j| j[0]).unwrap_or(u32::MAX);
            firsts.push(first);
        }
        // Rank 0 starts at vertex 0, rank 1 at the split point 4.
        assert_eq!(firsts, vec![0, 4]);
    }

    #[test]
    fn accept_work_rejects_a_root_outside_the_data_graph() {
        let data = cuts_graph::generators::clique(4);
        let query = cuts_graph::generators::clique(3);
        let mut comms = Comm::universe(1);
        let config = DistConfig {
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        let mut w = worker(comms.pop().unwrap(), config, &data, &query, 1);
        let id = w.shared.ledger.new_id();
        w.shared.ledger.register(id, 0, &vec![1, 3]);
        let payload = |last| {
            WorkPayload {
                jobs: vec![Chunk {
                    id,
                    roots: vec![1, last],
                }],
            }
            .encode()
        };
        assert_eq!(
            w.accept_work(payload(4)).err(),
            Some(WireError::Corrupt("donated root is not a data vertex"))
        );
        assert_eq!(w.metrics.donations_received, 0);
        let fresh = w.accept_work(payload(3)).unwrap();
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].roots, vec![1, 3]);
    }

    #[test]
    fn idle_loop_returns_done_on_done_once_the_ledger_is_complete() {
        let data = cuts_graph::generators::clique(4);
        let query = cuts_graph::generators::clique(3);
        let mut comms = Comm::universe(2);
        let peer = comms.pop().unwrap();
        let config = DistConfig {
            device: DeviceConfig::test_small(),
            ..Default::default()
        };
        let mut w = worker(comms.pop().unwrap(), config, &data, &query, 2);
        let ledger = Arc::clone(&w.shared.ledger);
        let id = ledger.new_id();
        ledger.register(id, 1, &vec![0]);
        let sender = std::thread::spawn(move || {
            // A DONE before the last commit does not end the wait.
            peer.send(0, tag::DONE, Bytes::new());
            std::thread::sleep(3 * POLL_WAIT);
            ledger.commit(id, 1);
            peer.send(0, tag::DONE, Bytes::new());
        });
        assert!(matches!(w.idle_loop(), Ok(Idle::Done)));
        sender.join().unwrap();
    }

    #[test]
    fn injected_crash_error_surfaces() {
        use cuts_core::fault::FaultPlan;
        let data = cuts_graph::generators::clique(4);
        let query = cuts_graph::generators::clique(3);
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::parse("crash:0@0").unwrap(),
            1,
        ));
        let mut comms = Comm::universe(1);
        let w = Worker::new(
            comms.pop().unwrap(),
            DistConfig {
                device: DeviceConfig::test_small(),
                ..Default::default()
            },
            &data,
            &query,
            Shared::new(1, Some(inj)),
        );
        match w.run() {
            Err(WorkerError::InjectedCrash {
                rank: 0,
                after_chunks: 0,
            }) => {}
            other => panic!("expected injected crash, got {other:?}"),
        }
    }
}
