//! The asynchronous work-donation protocol of §4.2, hardened for the
//! fault model of the recovery layer.
//!
//! States and messages: a rank that drains its job queue broadcasts
//! [`tag::FREE`] and enters the idle loop. A busy rank holding spare jobs
//! that learns of a free peer sends [`tag::CLAIM`]; the free peer grants
//! the *first* claim with [`tag::ACK`] (broadcasting [`tag::BUSY`] so no
//! one else targets it) and refuses the rest with [`tag::NACK`]. The
//! granted claimant ships a [`tag::WORK`] payload — whole chunks, each
//! its ledger id and its root vertices — and both continue.
//!
//! Fault hardening changes two things relative to the bare paper
//! protocol. First, every rank periodically broadcasts [`tag::HEARTBEAT`]
//! carrying its current status byte, and the [`StatusBoard`] remembers
//! *when* each peer was last heard from — a peer silent past the
//! configured rank-timeout is treated as unresponsive and its pending
//! chunks become reclaimable. Second, termination no longer relies on
//! the all-peers-free consensus (a single lost FREE broadcast would hang
//! it); workers exit when the shared
//! [`ChunkLedger`](crate::ChunkLedger) reports every registered
//! chunk committed, which is monotone and immune to message loss. A
//! rank that exits broadcasts [`tag::DONE`] so idle peers re-check the
//! ledger at once; a lost DONE delays a peer's exit by one poll, never
//! the result.

use std::time::{Duration, Instant};

use bytes::{Buf, BufMut, Bytes, BytesMut};
use cuts_core::error::WireError;
use cuts_graph::VertexId;

use crate::ChunkId;

/// Message tags.
pub mod tag {
    /// "I have finished all my work."
    pub const FREE: u32 = 1;
    /// "I have work again" (sent when a free rank accepts a claim).
    pub const BUSY: u32 = 2;
    /// "May I send you part of my queue?"
    pub const CLAIM: u32 = 3;
    /// Claim granted.
    pub const ACK: u32 = 4;
    /// Claim refused (already granted to someone else / no longer free).
    pub const NACK: u32 = 5;
    /// Donated work: a [`super::WorkPayload`].
    pub const WORK: u32 = 6;
    /// Liveness beacon: one status byte (0 = busy, 1 = free).
    pub const HEARTBEAT: u32 = 7;
    /// "Every chunk has committed; I have exited": wakes idle peers.
    /// Only the idle and claim loops act on it.
    pub const DONE: u32 = 8;
}

/// Peer status as tracked from FREE/BUSY broadcasts and heartbeats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Processing or holding work.
    Busy,
    /// Announced an empty queue.
    Free,
}

impl Status {
    /// Wire byte for heartbeat payloads.
    pub fn to_byte(self) -> u8 {
        match self {
            Status::Busy => 0,
            Status::Free => 1,
        }
    }

    /// Parses a heartbeat status byte (unknown bytes read as busy, the
    /// conservative choice).
    pub fn from_byte(b: u8) -> Status {
        if b == 1 {
            Status::Free
        } else {
            Status::Busy
        }
    }
}

/// Status and liveness vector over all ranks.
#[derive(Debug, Clone)]
pub struct StatusBoard {
    status: Vec<Status>,
    /// When each peer was last heard from (any message).
    last_heard: Vec<Instant>,
    me: usize,
}

impl StatusBoard {
    /// All ranks start busy (everyone owns an initial partition) and
    /// freshly heard-from.
    pub fn new(size: usize, me: usize) -> Self {
        StatusBoard {
            status: vec![Status::Busy; size],
            last_heard: vec![Instant::now(); size],
            me,
        }
    }

    /// Records a FREE broadcast.
    pub fn mark_free(&mut self, rank: usize) {
        self.status[rank] = Status::Free;
        self.mark_heard(rank);
    }

    /// Records a BUSY broadcast (or a granted/forwarded claim).
    pub fn mark_busy(&mut self, rank: usize) {
        self.status[rank] = Status::Busy;
        self.mark_heard(rank);
    }

    /// Refreshes `rank`'s liveness clock (call on *every* received
    /// message, whatever the tag).
    pub fn mark_heard(&mut self, rank: usize) {
        self.last_heard[rank] = Instant::now();
    }

    /// True when nothing has been heard from `rank` for at least
    /// `timeout`. Never true for ourselves.
    pub fn is_stale(&self, rank: usize, timeout: Duration) -> bool {
        rank != self.me && self.last_heard[rank].elapsed() >= timeout
    }

    /// Some free peer, if any (lowest rank first for determinism).
    /// Peers silent past `timeout` are skipped — claiming toward a dead
    /// rank wastes the donation.
    pub fn first_free_peer(&self, timeout: Duration) -> Option<usize> {
        self.status
            .iter()
            .enumerate()
            .find(|&(r, &s)| r != self.me && s == Status::Free && !self.is_stale(r, timeout))
            .map(|(r, _)| r)
    }
}

/// One chunk of Algorithm 3's outer loop: its ledger identity plus its
/// root vertices (first-level candidates). A rank's queue holds these,
/// and a [`WorkPayload`] carries them whole. Carrying the id on the wire
/// is what makes donation at-least-once safe — a receiver consults the
/// ledger and discards already-committed duplicates instead of
/// double-counting them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Ledger chunk id.
    pub id: ChunkId,
    /// The chunk's root vertices.
    pub roots: Vec<VertexId>,
}

/// A donated batch of whole, unstarted chunks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkPayload {
    /// Donated chunks.
    pub jobs: Vec<Chunk>,
}

/// Wire bytes of a chunk header: `id u64 · n u32`.
const CHUNK_HEADER: usize = 12;

impl WorkPayload {
    /// Encodes: `[count u32, (id u64, n u32, root u32 × n)…]`.
    pub fn encode(&self) -> Bytes {
        let roots: usize = self.jobs.iter().map(|j| j.roots.len()).sum();
        let mut b = BytesMut::with_capacity(4 + CHUNK_HEADER * self.jobs.len() + 4 * roots);
        b.put_u32_le(self.jobs.len() as u32);
        for job in &self.jobs {
            b.put_u64_le(job.id);
            b.put_u32_le(job.roots.len() as u32);
            for &v in &job.roots {
                b.put_u32_le(v);
            }
        }
        b.freeze()
    }

    /// Decodes [`WorkPayload::encode`] output. Counts come off the wire,
    /// so every allocation is bounded by the bytes actually left: a
    /// hostile count is [`WireError::Truncated`], never a huge
    /// reservation.
    pub fn decode(mut buf: Bytes) -> Result<WorkPayload, WireError> {
        if buf.remaining() < 4 {
            return Err(WireError::Truncated);
        }
        let count = buf.get_u32_le() as usize;
        let mut jobs = Vec::with_capacity(count.min(buf.remaining() / CHUNK_HEADER));
        for _ in 0..count {
            if buf.remaining() < CHUNK_HEADER {
                return Err(WireError::Truncated);
            }
            let id = buf.get_u64_le();
            let n = buf.get_u32_le() as usize;
            if buf.remaining() / 4 < n {
                return Err(WireError::Truncated);
            }
            let roots = (0..n).map(|_| buf.get_u32_le()).collect();
            jobs.push(Chunk { id, roots });
        }
        if buf.remaining() != 0 {
            return Err(WireError::Corrupt("trailing bytes after the last chunk"));
        }
        Ok(WorkPayload { jobs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: Duration = Duration::from_secs(3600);

    #[test]
    fn status_board_lifecycle() {
        let mut b = StatusBoard::new(3, 1);
        assert!(b.first_free_peer(T).is_none());
        b.mark_free(2);
        assert_eq!(b.first_free_peer(T), Some(2));
        b.mark_free(0);
        assert_eq!(b.first_free_peer(T), Some(0));
        b.mark_busy(0);
        assert_eq!(b.first_free_peer(T), Some(2));
    }

    #[test]
    fn staleness_tracks_silence() {
        let mut b = StatusBoard::new(2, 0);
        assert!(!b.is_stale(1, Duration::from_millis(20)));
        std::thread::sleep(Duration::from_millis(25));
        assert!(b.is_stale(1, Duration::from_millis(20)));
        assert!(
            !b.is_stale(0, Duration::from_millis(0)),
            "never stale to self"
        );
        b.mark_heard(1);
        assert!(!b.is_stale(1, Duration::from_millis(20)));
    }

    #[test]
    fn stale_free_peer_not_targeted() {
        let mut b = StatusBoard::new(3, 0);
        b.mark_free(1);
        b.mark_free(2);
        std::thread::sleep(Duration::from_millis(5));
        b.mark_heard(2);
        // Rank 1 went silent longer than the timeout; rank 2 is fresh.
        assert_eq!(b.first_free_peer(Duration::from_millis(4)), Some(2));
    }

    #[test]
    fn status_byte_roundtrip() {
        for s in [Status::Busy, Status::Free] {
            assert_eq!(Status::from_byte(s.to_byte()), s);
        }
        assert_eq!(Status::from_byte(77), Status::Busy);
    }

    #[test]
    fn work_payload_roundtrip() {
        let jobs = vec![
            Chunk {
                id: 3,
                roots: vec![1, 2, 7],
            },
            Chunk {
                id: u64::MAX,
                roots: vec![9],
            },
            Chunk {
                id: 0,
                roots: Vec::new(),
            },
        ];
        let p = WorkPayload { jobs: jobs.clone() };
        let decoded = WorkPayload::decode(p.encode()).unwrap();
        assert_eq!(decoded.jobs, jobs);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let p = WorkPayload {
            jobs: vec![Chunk {
                id: 1,
                roots: vec![4, 5],
            }],
        };
        let mut raw = p.encode().to_vec();
        raw.push(0);
        assert_eq!(
            WorkPayload::decode(Bytes::from(raw)),
            Err(WireError::Corrupt("trailing bytes after the last chunk"))
        );
    }

    #[test]
    fn truncated_payload_rejected() {
        let p = WorkPayload {
            jobs: vec![Chunk {
                id: 42,
                roots: vec![1, 2],
            }],
        };
        let enc = p.encode();
        for cut in [2, 6, 11, enc.len() - 3] {
            assert!(WorkPayload::decode(enc.slice(0..cut)).is_err(), "cut {cut}");
        }
    }
}
