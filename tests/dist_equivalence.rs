//! Cross-rank count-equivalence matrix: the distributed runtime must
//! report exactly the single-node `ExecSession` count for every
//! combination of rank count × partition strategy × data graph. This is
//! the paper's Table 6 property ("the distributed implementation finds
//! the same embeddings") as an exhaustive grid.

use cuts::dist::{run, DistConfig, Partition};
use cuts::graph::generators::{barabasi_albert, clique, cycle, erdos_renyi, mesh2d};
use cuts::graph::Graph;
use cuts::prelude::*;

fn single_node_count(data: &Graph, query: &Graph) -> u64 {
    let device = Device::new(DeviceConfig::test_small());
    ExecSession::new(&device, EngineConfig::default())
        .run(data, query)
        .unwrap()
        .num_matches
}

fn cfg(partition: Partition) -> DistConfig {
    DistConfig {
        device: DeviceConfig::test_small(),
        dist_chunk: 8,
        partition,
        ..Default::default()
    }
}

fn grid_graphs() -> Vec<(&'static str, Graph, Graph)> {
    vec![
        ("erdos-renyi/triangle", erdos_renyi(60, 240, 17), clique(3)),
        (
            "barabasi-albert/triangle",
            barabasi_albert(70, 3, 9),
            clique(3),
        ),
        ("mesh/4-cycle", mesh2d(8, 8), cycle(4)),
    ]
}

#[test]
fn counts_equal_single_node_across_ranks_and_partitions() {
    for (name, data, query) in grid_graphs() {
        let want = single_node_count(&data, &query);
        assert!(want > 0, "{name}: degenerate workload");
        for partition in [
            Partition::RoundRobin,
            Partition::Block,
            Partition::AllToRankZero,
        ] {
            for ranks in [1usize, 2, 4, 8] {
                let r = run(&data, &query, ranks, &cfg(partition))
                    .unwrap_or_else(|e| panic!("{name}, {partition:?}, ranks {ranks}: {e}"));
                assert_eq!(
                    r.total_matches, want,
                    "{name}, {partition:?}, ranks {ranks}"
                );
                assert_eq!(r.per_rank.len(), ranks);
                assert!(
                    r.recovery.is_clean(),
                    "{name}, {partition:?}, ranks {ranks}: fault-free run reported recovery {:?}",
                    r.recovery
                );
            }
        }
    }
}

#[test]
fn per_rank_matches_sum_to_total_in_clean_runs() {
    // In a fault-free run nothing is duplicated or lost, so the per-rank
    // match counts partition the total exactly.
    let data = erdos_renyi(60, 240, 17);
    let query = clique(3);
    for ranks in [2usize, 4, 8] {
        let r = run(&data, &query, ranks, &cfg(Partition::RoundRobin)).unwrap();
        let sum: u64 = r.per_rank.iter().map(|m| m.matches).sum();
        assert_eq!(sum, r.total_matches, "ranks {ranks}");
    }
}
