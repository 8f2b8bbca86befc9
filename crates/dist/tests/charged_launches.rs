//! Every simulated launch a rank makes is charged to that rank, and
//! chunks run whole: on a traced fault-free run, each rank's `kernel`
//! spans equal its `kernel_launches` counter, and every assigned chunk
//! commits exactly once under its own id (no chunk is ever replaced by
//! children). Reclaim is disarmed without a fault plan, so both counts
//! are deterministic.
//!
//! ```sh
//! cargo test --release -p cuts-dist --test charged_launches
//! ```

use cuts_dist::{run, DistConfig};
use cuts_gpu_sim::DeviceConfig;
use cuts_graph::generators::{barabasi_albert, clique};
use cuts_obs::{EventKind, Trace};

#[test]
fn every_launch_is_charged_and_chunks_are_never_split() {
    let data = barabasi_albert(300, 4, 7);
    let query = clique(4);
    for ranks in [2usize, 4] {
        let trace = Trace::enabled();
        let config = DistConfig {
            device: DeviceConfig::test_small(),
            dist_chunk: 8,
            trace: trace.clone(),
            ..Default::default()
        };
        let r = run(&data, &query, ranks, &config).unwrap();
        assert!(r.total_matches > 0);
        assert!(r.recovery.is_clean(), "{:?}", r.recovery);

        let events = trace.journal().unwrap().snapshot_sorted();
        for m in &r.per_rank {
            let spans = events
                .iter()
                .filter(|e| {
                    e.kind == EventKind::Kernel
                        && e.dur_us.is_some()
                        && e.rank == Some(m.rank as u32)
                })
                .count() as u64;
            assert_eq!(
                spans, m.counters.kernel_launches,
                "ranks={ranks}: rank {} journals {spans} kernel spans but is charged {}",
                m.rank, m.counters.kernel_launches
            );
        }
        let chunk_events = |name: &str| {
            events
                .iter()
                .filter(|e| e.kind == EventKind::Chunk && e.name == name)
                .count()
        };
        assert!(chunk_events("assign") > 0);
        assert_eq!(
            chunk_events("commit"),
            chunk_events("assign"),
            "ranks={ranks}: every assigned chunk commits once"
        );
    }
}
