//! Concurrency-correctness stress tests for the lock-sharded journal.
//!
//! `loom` is not available in this dependency-free workspace, so the
//! journal's guarantees are pinned with a heavily threaded stress run
//! instead: many threads hammer one journal concurrently and the test
//! asserts the two properties the sharding design promises — **no event
//! is ever lost** and **one thread's events never interleave out of
//! program order** (per-lane sequence numbers stay strictly increasing
//! after the global sort).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use cuts_obs::{Arg, EventKind, Trace};

const THREADS: usize = 8;
const EVENTS_PER_THREAD: usize = 2_000;

#[test]
fn concurrent_emission_loses_nothing_and_keeps_per_thread_order() {
    let trace = Trace::enabled();
    let go = Arc::new(AtomicBool::new(false));

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let trace = trace.clone();
            let go = Arc::clone(&go);
            s.spawn(move || {
                while !go.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                for i in 0..EVENTS_PER_THREAD {
                    // Mix instants and spans, as real instrumentation does.
                    if i % 3 == 0 {
                        let mut span = trace.span(EventKind::Kernel, "stress");
                        span.arg("thread", Arg::U64(t as u64));
                        span.arg("i", Arg::U64(i as u64));
                    } else {
                        trace.instant_with(
                            EventKind::Chunk,
                            "stress",
                            &[("thread", Arg::U64(t as u64)), ("i", Arg::U64(i as u64))],
                        );
                    }
                }
            });
        }
        go.store(true, Ordering::Release);
    });

    let events = trace.journal().unwrap().drain_sorted();
    assert_eq!(
        events.len(),
        THREADS * EVENTS_PER_THREAD,
        "lossless: every emitted event must be recorded"
    );

    // Global sequence numbers are unique.
    let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), THREADS * EVENTS_PER_THREAD);

    // Per-thread program order survives the global (ts, seq) sort: for
    // each emitting thread, the payload index `i` must be increasing.
    // (Spans are recorded at drop, i.e. still in program order.)
    let mut last_i = vec![None::<u64>; THREADS + 64];
    let mut per_thread = vec![0usize; THREADS + 64];
    for e in &events {
        let (Some(Arg::U64(t)), Some(Arg::U64(i))) = (e.arg("thread"), e.arg("i")) else {
            panic!("missing payload args");
        };
        let t = *t as usize;
        per_thread[t] += 1;
        if let Some(prev) = last_i[t] {
            assert!(
                *i > prev,
                "thread {t}: event i={i} observed after i={prev} — interleaved"
            );
        }
        last_i[t] = Some(*i);
    }
    for (t, &n) in per_thread.iter().take(THREADS).enumerate() {
        assert_eq!(n, EVENTS_PER_THREAD, "thread {t} lost events");
    }
}

#[test]
fn concurrent_drain_and_record_is_safe() {
    // Drains racing with recorders must never panic or corrupt events;
    // every event ends up in exactly one drain (or the final sweep).
    let trace = Trace::enabled();
    let journal = Arc::clone(trace.journal().unwrap());
    let total: usize = std::thread::scope(|s| {
        let writers: Vec<_> = (0..4)
            .map(|t| {
                let trace = trace.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        trace.instant_with(
                            EventKind::Arena,
                            "acquire",
                            &[("thread", Arg::U64(t)), ("i", Arg::U64(i))],
                        );
                    }
                })
            })
            .collect();
        let reader = {
            let journal = Arc::clone(&journal);
            s.spawn(move || {
                let mut collected = 0usize;
                for _ in 0..50 {
                    collected += journal.drain_sorted().len();
                    std::thread::yield_now();
                }
                collected
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        reader.join().unwrap()
    });
    let rest = journal.drain_sorted().len();
    assert_eq!(total + rest, 4 * 500);
}
