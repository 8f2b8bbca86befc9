//! Simulated MPI: ranked endpoints, tagged non-blocking point-to-point
//! messages, broadcast, probe — the subset §4.2's "mini asynchronous
//! protocol built on top of the MPI framework" needs.
//!
//! Fault injection hooks in here: a universe built with
//! [`Comm::universe_with_faults`] consults the shared
//! [`FaultInjector`] on every send, which
//! may silently discard the message (a lossy interconnect / dead NIC) or
//! stamp it with a future due-time (congestion). Delayed messages are
//! buffered on the receiving endpoint and surface only once due, so the
//! *reordering* a real network produces is visible to the protocol.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};

use cuts_core::fault::{FaultInjector, SendFate};

/// Rank identifier.
pub type Rank = usize;

/// A tagged message.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sending rank.
    pub from: Rank,
    /// Application tag.
    pub tag: u32,
    /// Opaque payload.
    pub payload: Bytes,
}

/// Wire envelope: a message plus the instant it becomes visible to the
/// receiver (later than "now" only for injector-delayed messages).
#[derive(Debug)]
struct Envelope {
    msg: Message,
    due: Instant,
}

/// Per-rank traffic statistics.
#[derive(Debug, Default)]
pub struct CommStats {
    messages_sent: AtomicU64,
    bytes_sent: AtomicU64,
}

impl CommStats {
    /// Messages sent by this rank (counting injector-dropped ones: the
    /// sender did the work of sending).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Payload bytes sent by this rank.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent.load(Ordering::Relaxed)
    }
}

/// One rank's communicator endpoint.
pub struct Comm {
    rank: Rank,
    senders: Vec<Sender<Envelope>>,
    receiver: Receiver<Envelope>,
    /// Arrived-but-not-yet-due envelopes (only delayed messages linger).
    pending: Mutex<VecDeque<Envelope>>,
    stats: Arc<CommStats>,
    injector: Option<Arc<FaultInjector>>,
}

impl Comm {
    /// Creates a fully-connected fault-free universe of `n` ranks.
    pub fn universe(n: usize) -> Vec<Comm> {
        Comm::universe_with_faults(n, None)
    }

    /// Creates a fully-connected universe whose sends pass through the
    /// given fault injector (`None` = fault-free).
    pub fn universe_with_faults(n: usize, injector: Option<Arc<FaultInjector>>) -> Vec<Comm> {
        assert!(n >= 1);
        let mut senders = Vec::with_capacity(n);
        let mut receivers = Vec::with_capacity(n);
        for _ in 0..n {
            let (s, r) = unbounded();
            senders.push(s);
            receivers.push(r);
        }
        receivers
            .into_iter()
            .enumerate()
            .map(|(rank, receiver)| Comm {
                rank,
                senders: senders.clone(),
                receiver,
                pending: Mutex::new(VecDeque::new()),
                stats: Arc::new(CommStats::default()),
                injector: injector.clone(),
            })
            .collect()
    }

    /// This endpoint's rank.
    pub fn rank(&self) -> Rank {
        self.rank
    }

    /// Universe size.
    pub fn size(&self) -> usize {
        self.senders.len()
    }

    /// Traffic statistics handle.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Non-blocking tagged send (`MPI_Isend` with guaranteed buffering).
    /// Subject to fault injection: the message may be silently dropped
    /// or delivered late.
    pub fn send(&self, to: Rank, tag: u32, payload: Bytes) {
        self.stats.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_sent
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        let due = match self.injector.as_deref().map(|i| i.on_send(self.rank, to)) {
            Some(SendFate::Drop) => return,
            Some(SendFate::Delay(d)) => Instant::now() + d,
            Some(SendFate::Deliver) | None => Instant::now(),
        };
        // A send to a finished (dropped) rank is discarded, like an MPI
        // process that has left the communicator after consensus.
        let _ = self.senders[to].send(Envelope {
            msg: Message {
                from: self.rank,
                tag,
                payload,
            },
            due,
        });
    }

    /// Sends to every other rank (the §4.2 "broadcasts a message to all
    /// other nodes").
    pub fn broadcast_others(&self, tag: u32, payload: Bytes) {
        for to in 0..self.size() {
            if to != self.rank {
                self.send(to, tag, payload.clone());
            }
        }
    }

    /// Non-blocking probe+receive (`MPI_Iprobe` + `MPI_Recv`): first
    /// *due* message, if any.
    pub fn try_recv(&self) -> Option<Message> {
        let mut pending = self.pending.lock().unwrap();
        while let Ok(env) = self.receiver.try_recv() {
            pending.push_back(env);
        }
        let now = Instant::now();
        let idx = pending.iter().position(|e| e.due <= now)?;
        pending.remove(idx).map(|e| e.msg)
    }

    /// Blocking receive with timeout (idle-node wait loop).
    pub fn recv_timeout(&self, d: Duration) -> Option<Message> {
        let deadline = Instant::now() + d;
        loop {
            if let Some(m) = self.try_recv() {
                return Some(m);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            // Wait for a fresh arrival, but wake early if a buffered
            // delayed message comes due first.
            let mut wait = deadline - now;
            if let Some(due) = self.pending.lock().unwrap().iter().map(|e| e.due).min() {
                wait = wait.min(
                    due.saturating_duration_since(now)
                        .max(Duration::from_micros(100)),
                );
            }
            match self.receiver.recv_timeout(wait) {
                Ok(env) => self.pending.lock().unwrap().push_back(env),
                Err(_) => continue, // timed out (or no senders left): re-check due/deadline
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuts_core::fault::FaultPlan;

    #[test]
    fn point_to_point_fifo_per_sender() {
        let mut u = Comm::universe(2);
        let b = u.pop().unwrap();
        let a = u.pop().unwrap();
        for i in 0..10u32 {
            a.send(1, i, Bytes::new());
        }
        for i in 0..10u32 {
            let m = b.try_recv().unwrap();
            assert_eq!(m.tag, i);
            assert_eq!(m.from, 0);
        }
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn broadcast_reaches_all_but_self() {
        let u = Comm::universe(3);
        u[0].broadcast_others(7, Bytes::from_static(b"x"));
        assert!(u[0].try_recv().is_none());
        assert_eq!(u[1].try_recv().unwrap().tag, 7);
        assert_eq!(u[2].try_recv().unwrap().tag, 7);
    }

    #[test]
    fn stats_count_traffic() {
        let u = Comm::universe(2);
        u[0].send(1, 1, Bytes::from_static(b"abcd"));
        u[0].send(1, 2, Bytes::from_static(b"ef"));
        assert_eq!(u[0].stats().messages_sent(), 2);
        assert_eq!(u[0].stats().bytes_sent(), 6);
    }

    #[test]
    fn cross_thread_delivery() {
        let mut u = Comm::universe(2);
        let b = u.pop().unwrap();
        let a = u.pop().unwrap();
        std::thread::scope(|s| {
            s.spawn(move || {
                a.send(1, 42, Bytes::from_static(b"hello"));
            });
            let m = b.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(m.tag, 42);
            assert_eq!(&m.payload[..], b"hello");
        });
    }

    #[test]
    fn send_to_dropped_rank_is_discarded() {
        let mut u = Comm::universe(2);
        let _b = u.pop(); // rank 1 endpoint dropped
        let a = u.pop().unwrap();
        a.send(1, 1, Bytes::new()); // must not panic
    }

    #[test]
    fn injected_drop_eats_exact_message() {
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::parse("drop:0->1@2").unwrap(),
            2,
        ));
        let u = Comm::universe_with_faults(2, Some(inj.clone()));
        u[0].send(1, 10, Bytes::new());
        u[0].send(1, 11, Bytes::new()); // dropped
        u[0].send(1, 12, Bytes::new());
        assert_eq!(u[1].try_recv().unwrap().tag, 10);
        assert_eq!(u[1].try_recv().unwrap().tag, 12);
        assert!(u[1].try_recv().is_none());
        assert_eq!(inj.messages_dropped(0), 1);
        // The sender still counts its send attempts.
        assert_eq!(u[0].stats().messages_sent(), 3);
    }

    #[test]
    fn injected_delay_holds_message_until_due() {
        let inj = Arc::new(FaultInjector::new(
            FaultPlan::parse("delay:0->1@1+30").unwrap(),
            2,
        ));
        let u = Comm::universe_with_faults(2, Some(inj));
        u[0].send(1, 5, Bytes::new()); // delayed 30ms
        u[0].send(1, 6, Bytes::new()); // prompt — overtakes the delayed one
        assert_eq!(u[1].try_recv().unwrap().tag, 6);
        assert!(u[1].try_recv().is_none(), "delayed message not yet due");
        let m = u[1].recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(m.tag, 5);
    }
}
