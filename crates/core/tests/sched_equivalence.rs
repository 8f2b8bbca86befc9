//! Job-stream semantics on a single-rank `ServeTier`: lane-count
//! equivalence with the serial loop, starvation-freedom under an
//! adversarial priority mix, arena discipline, and the memory-admission
//! invariant.

use std::time::Duration;

use cuts_core::job::Job;
use cuts_core::prelude::*;
use cuts_gpu_sim::DeviceConfig;
use cuts_graph::generators;

/// A mixed stream: cheap and expensive jobs, repeated queries (plan-cache
/// hits), one under-estimated job that forces the growth-retry path, and
/// one unplannable job that must fail identically everywhere.
fn job_mix() -> Vec<Job> {
    let mesh = std::sync::Arc::new(generators::mesh2d(8, 8));
    let er = std::sync::Arc::new(generators::erdos_renyi(64, 200, 1));
    let tricky = std::sync::Arc::new(generators::erdos_renyi(48, 140, 7));
    let clique3 = std::sync::Arc::new(generators::clique(3));
    let chain4 = std::sync::Arc::new(generators::chain(4));
    let chain5 = std::sync::Arc::new(generators::chain(5));
    let disconnected = std::sync::Arc::new(cuts_graph::Graph::undirected(4, &[(0, 1), (2, 3)]));
    let mut jobs = Vec::new();
    for i in 0..4 {
        jobs.push(Job::new(mesh.clone(), clique3.clone()).with_priority(i));
    }
    for _ in 0..3 {
        jobs.push(Job::new(er.clone(), chain4.clone()));
    }
    // Undershoots the §5 estimate: exercises deterministic trie growth.
    jobs.push(Job::new(tricky.clone(), chain5.clone()));
    jobs.push(Job::new(mesh.clone(), chain4.clone()).with_deadline(Duration::from_millis(50)));
    jobs.push(Job::new(er, clique3).with_name("last"));
    jobs.push(Job::new(mesh, disconnected).with_name("unplannable"));
    jobs
}

/// A one-rank tier: the single-node serving case.
fn tier(builder: ServeConfigBuilder) -> ServeTier {
    ServeTier::new(builder.ranks(1).build().unwrap())
}

#[test]
fn lane_counts_are_byte_identical_to_serial() {
    let jobs = job_mix();
    let serial = tier(ServeConfig::builder()).run_serial(&jobs).unwrap();
    assert_eq!(serial.outcomes.len(), jobs.len());
    assert_eq!(serial.stats.failed, 1); // only the unplannable job

    for lanes in [1usize, 2, 4] {
        let report = tier(ServeConfig::builder().lanes(lanes))
            .run_stream(&jobs)
            .unwrap();
        assert_eq!(report.outcomes.len(), jobs.len(), "{lanes} lanes");
        assert_eq!(report.stats.failed, 1, "{lanes} lanes");
        for (a, b) in serial.outcomes.iter().zip(&report.outcomes) {
            assert_eq!(a.id, b.id);
            assert_eq!(
                a.trie_entries, b.trie_entries,
                "job {:?} sized differently at {lanes} lanes",
                a.id
            );
            match (&a.result, &b.result) {
                (Ok(x), Ok(y)) => assert_eq!(
                    x.canonical_bytes(),
                    y.canonical_bytes(),
                    "job {:?} diverged at {lanes} lanes",
                    a.id
                ),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("outcome kind diverged at {lanes} lanes: {a:?} vs {b:?}"),
            }
        }
    }
}

/// An adversarial mix: one low-priority job submitted first, then a
/// steady stream of fresh high-priority jobs. With aging enabled the old
/// job's score grows past any static priority, so it is picked up long
/// before the stream drains; with aging effectively disabled it waits for
/// the whole stream.
///
/// Each job's service time comes from the simulated clock: pacing is sized
/// so every job sleeps `SERVICE_MS`, ten times the 1 ms submit stagger,
/// so the queue stays backed up whatever the build profile or host speed.
#[test]
fn aging_prevents_priority_starvation() {
    const SERVICE_MS: f64 = 10.0;
    let data = std::sync::Arc::new(generators::erdos_renyi(32, 120, 5));
    let clique = std::sync::Arc::new(generators::clique(3));
    let probe = tier(ServeConfig::builder())
        .run_serial(&[Job::new(data.clone(), clique.clone())])
        .unwrap();
    let sim_millis = probe.outcomes[0].result.as_ref().unwrap().sim_millis;
    assert!(sim_millis > 0.0);
    let pacing = SERVICE_MS / sim_millis;

    let run_with = |aging: Duration| -> (f64, f64) {
        let tier = tier(
            ServeConfig::builder()
                .lanes(1)
                .queue_capacity(128)
                .aging(aging)
                .pacing(pacing),
        );
        let report = tier
            .run(|h| {
                // Pre-load enough high-priority work that the lone lane
                // is busy and its inbox non-empty before the victim
                // arrives — it can never be claimed from an empty queue.
                for _ in 0..6 {
                    h.submit_wait(Job::new(data.clone(), clique.clone()).with_priority(2));
                }
                h.submit_wait(
                    Job::new(data.clone(), clique.clone())
                        .with_priority(-2)
                        .with_name("victim"),
                );
                // Staggered arrivals: each newcomer is fresher than the
                // victim, so only aging can ever rank the victim first.
                for _ in 0..30 {
                    h.submit_wait(Job::new(data.clone(), clique.clone()).with_priority(2));
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(())
            })
            .unwrap();
        let victim = report
            .outcomes
            .iter()
            .find(|o| o.name.as_deref() == Some("victim"))
            .expect("victim completes");
        assert!(victim.result.is_ok());
        (victim.queue_millis, report.wall_millis)
    };

    let (aged_wait, _) = run_with(Duration::from_millis(1));
    let (starved_wait, starved_wall) = run_with(Duration::from_secs(3600));
    // Without aging the victim is picked last — its wait is essentially
    // the whole stream; with 1 ms aging it overtakes fresh arrivals.
    assert!(
        starved_wait > 0.5 * starved_wall,
        "victim should drain last without aging: waited {starved_wait:.1} of {starved_wall:.1} ms"
    );
    assert!(
        aged_wait * 1.5 < starved_wait,
        "aging should rescue the victim: {aged_wait:.1} ms vs {starved_wait:.1} ms"
    );
}

/// Arena discipline end to end: `run` carves every device's arena before
/// the submit closure starts, and from then on a full stream — repeated
/// four times, including the growth-retry job — must be served purely by
/// slab recycling, with not one further call into the device allocator.
#[test]
fn warm_stream_performs_zero_device_allocations() {
    use std::sync::atomic::{AtomicU64, Ordering};

    let jobs = job_mix();
    let tier = tier(ServeConfig::builder().lanes(2).devices_per_rank(2));
    let carved = AtomicU64::new(0);
    let report = tier
        .run(|h| {
            carved.store(
                tier.devices().map(|d| d.alloc_calls()).sum(),
                Ordering::SeqCst,
            );
            for _ in 0..4 {
                for job in jobs.iter().cloned() {
                    h.submit_wait(job);
                }
            }
            Ok(())
        })
        .unwrap();

    let carved = carved.load(Ordering::SeqCst);
    assert!(carved > 0, "carving the arenas must allocate");
    let after: u64 = tier.devices().map(|d| d.alloc_calls()).sum();
    assert_eq!(
        after, carved,
        "warm stream must not touch the device allocator"
    );
    // The stream itself behaved normally (only the unplannable job fails).
    assert_eq!(report.stats.failed, 4);
    assert_eq!(
        report.stats.completed + report.stats.failed,
        4 * jobs.len() as u64
    );
}

/// Memory-aware admission: a device with a tiny budget, fed jobs whose
/// estimates clamp to most of the budget, must hold them back (not fail
/// them) and keep the reservation ledger inside the budget at all times.
#[test]
fn admission_never_exceeds_the_budget() {
    let device = DeviceConfig::test_small().with_global_mem_words(1 << 16);
    let jobs = {
        let big_data = std::sync::Arc::new(generators::erdos_renyi(128, 1024, 3));
        let small_data = std::sync::Arc::new(generators::mesh2d(4, 4));
        let clique4 = std::sync::Arc::new(generators::clique(4));
        let clique3 = std::sync::Arc::new(generators::clique(3));
        let mut jobs = Vec::new();
        for _ in 0..4 {
            jobs.push(Job::new(big_data.clone(), clique4.clone()).with_name("big"));
            jobs.push(Job::new(small_data.clone(), clique3.clone()));
        }
        jobs
    };
    let report = tier(
        ServeConfig::builder()
            .device_config(device)
            .lanes(2)
            .pacing(10.0),
    )
    .run_stream(&jobs)
    .unwrap();
    eprintln!(
        "stats: peak={:?} budget={:?} failed={} entries={:?}",
        report.stats.peak_reserved_words,
        report.stats.budget_words,
        report.stats.failed,
        report
            .outcomes
            .iter()
            .map(|o| o.trie_entries)
            .collect::<Vec<_>>()
    );
    assert_eq!(report.stats.completed, jobs.len() as u64);
    for (peak, budget) in report
        .stats
        .peak_reserved_words
        .iter()
        .zip(&report.stats.budget_words)
    {
        assert!(
            peak <= budget,
            "reservation ledger overshot: {peak} > {budget}"
        );
    }
    // The big jobs cannot share the device: one big job's reservation is
    // more than half the budget, so the stream really hit the budget. A
    // chain of `e` entries reserves at least `2e` words (PA + CA) unless
    // it saturates at the whole budget.
    let budget = report.stats.budget_words[0];
    let big_entries = report
        .outcomes
        .iter()
        .filter(|o| o.name.as_deref() == Some("big"))
        .map(|o| o.trie_entries)
        .max()
        .unwrap();
    assert!(
        2 * big_entries > budget / 2,
        "big job reserves {} of {budget} words: the budget was never binding",
        2 * big_entries
    );
}
