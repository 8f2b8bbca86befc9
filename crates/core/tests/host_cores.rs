//! Helpers that join and leave mid-run change nothing: a warm session
//! on a device whose two-core ledger has a second holder that keeps
//! taking its core and giving it back — so helpers join launches when
//! it lets go and yield when it takes the core again — observes the
//! same tries, `MatchResult`s, embedding streams and counters as the
//! same session on one core.
//!
//! ```sh
//! cargo test --release -p cuts-core --test host_cores
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

use cuts_core::prelude::*;
use cuts_gpu_sim::{Counters, Device, DeviceConfig};
use cuts_graph::datasets::{Dataset, Scale};
use cuts_graph::generators::{clique, cycle};
use cuts_graph::Graph;
use cuts_obs::{Arg, EventKind, Trace};

/// Everything a run reports except its host wall time.
#[derive(Debug, PartialEq)]
struct Observed {
    canonical: Vec<u8>,
    level_counts: Vec<u64>,
    counters: Counters,
    /// FNV-1a of the embedding stream, in the order the trie emits it.
    stream: u64,
}

/// Runs the jobs on a device with a ledger of `cores` cores, while a
/// second holder toggles its core every `toggle` (never, if `None`).
/// Returns what the runs observed and the helpers the launches had.
fn run(jobs: &[(&Graph, Graph)], cores: usize, toggle: Option<Duration>) -> (Vec<Observed>, u64) {
    let mut d = Device::new(DeviceConfig::v100_like());
    d.set_host_threads(cores);
    let trace = Trace::enabled();
    d.set_trace(trace.clone());
    let session = ExecSession::new(&d, EngineConfig::default());
    let done = AtomicBool::new(false);
    let observed = std::thread::scope(|s| {
        if let Some(every) = toggle {
            let (d, done) = (&d, &done);
            s.spawn(move || {
                while !done.load(Ordering::Acquire) {
                    let core = d.cores().hold();
                    std::thread::sleep(every);
                    drop(core);
                    std::thread::sleep(every);
                }
            });
        }
        let observed: Vec<Observed> = jobs
            .iter()
            .map(|(data, query)| {
                let mut h: u64 = 0xcbf2_9ce4_8422_2325;
                let r = session
                    .run_enumerate(data, query, &mut |m: &[u32]| {
                        for b in m.iter().flat_map(|w| w.to_le_bytes()) {
                            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
                        }
                    })
                    .unwrap();
                Observed {
                    canonical: r.canonical_bytes(),
                    level_counts: r.level_counts.clone(),
                    counters: r.counters,
                    stream: h,
                }
            })
            .collect();
        done.store(true, Ordering::Release);
        observed
    });
    assert_eq!(d.cores().held(), 0, "every core was given back");
    let helpers = trace
        .journal()
        .unwrap()
        .drain_sorted()
        .iter()
        .filter(|e| e.kind == EventKind::Kernel)
        .filter_map(|e| match e.arg("threads") {
            Some(Arg::U64(t)) => Some(t - 1),
            _ => None,
        })
        .sum();
    (observed, helpers)
}

#[test]
fn helpers_joining_and_yielding_mid_run_change_nothing() {
    let gowalla = Dataset::Gowalla.generate(Scale::Tiny);
    let wiki = Dataset::WikiTalk.generate(Scale::Tiny);
    let jobs = [
        (&gowalla, clique(4)),
        (&gowalla, cycle(4)),
        (&wiki, clique(4)),
    ];
    let (want, helpers) = run(&jobs, 1, None);
    assert_eq!(helpers, 0, "a one-core ledger lends no core");
    // Helpers start late on a loaded host: repeat, comparing every
    // attempt, until one run had helpers.
    for _ in 0..20 {
        let (got, helpers) = run(&jobs, 2, Some(Duration::from_micros(300)));
        assert_eq!(want, got);
        if helpers > 0 {
            return;
        }
    }
    panic!("no launch gained a helper in 20 attempts");
}
