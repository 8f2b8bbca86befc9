//! A symmetric (undirected) query over directed data is matched by its
//! directed closure: both arcs of every query edge must be present in the
//! data. The engine's embeddings must equal the reference matcher's under
//! both order policies, through the session entry points and the serving
//! tier alike.
//!
//! ```sh
//! cargo test --release -p cuts-core --test directed_closure
//! ```

use std::collections::BTreeSet;
use std::sync::Arc;

use cuts_core::reference::enumerate_embeddings;
use cuts_core::{EngineConfig, ExecSession, Job, OrderPolicy, ServeConfig, ServeTier};
use cuts_gpu_sim::{Device, DeviceConfig};
use cuts_graph::generators::{chain, clique, cycle, erdos_renyi, star};
use cuts_graph::{Graph, VertexId};

/// Each edge of a random undirected graph as one arc (low id to high id),
/// a third of them reciprocated, so symmetric patterns exist only where
/// arcs run both ways.
fn directed_data() -> Graph {
    let arcs: Vec<(VertexId, VertexId)> = erdos_renyi(40, 200, 5)
        .edges()
        .filter(|&(u, v)| u < v || (u + v) % 3 == 0)
        .collect();
    Graph::directed(40, &arcs)
}

fn queries() -> Vec<(&'static str, Graph)> {
    vec![
        ("triangle", clique(3)),
        ("cycle4", cycle(4)),
        ("chain3", chain(3)),
        ("star4", star(4)),
    ]
}

fn reference(data: &Graph, query: &Graph) -> BTreeSet<Vec<VertexId>> {
    let mut want = BTreeSet::new();
    enumerate_embeddings(data, query, &mut |m| {
        want.insert(m.to_vec());
    });
    want
}

#[test]
fn symmetric_queries_on_directed_data_match_the_reference() {
    let data = directed_data();
    assert!(!data.is_symmetric());
    let mut nonzero = 0;
    for policy in [OrderPolicy::DegreeGreedy, OrderPolicy::IdBfs] {
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default().with_order_policy(policy));
        for (name, query) in queries() {
            let want = reference(&data, &query);
            nonzero += usize::from(!want.is_empty());
            let mut got = BTreeSet::new();
            let r = session
                .run_enumerate(&data, &query, &mut |m| {
                    got.insert(m.to_vec());
                })
                .unwrap();
            assert_eq!(got, want, "{name} under {policy:?}: embeddings");
            assert_eq!(r.num_matches, want.len() as u64, "{name}: enumerate count");
            let count = session.run(&data, &query).unwrap().num_matches;
            assert_eq!(count, want.len() as u64, "{name} under {policy:?}: run");
            let plan = session.plan_over(&data, &query).unwrap();
            let with_plan = session.run_with_plan(&plan, &data).unwrap();
            assert_eq!(with_plan.num_matches, count, "{name}: run_with_plan");
        }
    }
    assert!(
        nonzero > 0,
        "premise: some pattern survives on reciprocal arcs"
    );
}

#[test]
fn symmetric_data_keeps_its_plan() {
    // Over symmetric data the plan lookup returns the query's own plan:
    // one constraint per undirected edge, one cache entry.
    let device = Device::new(DeviceConfig::test_small());
    let session = ExecSession::new(&device, EngineConfig::default());
    let plain = session.plan_for(&clique(3)).unwrap();
    let over = session
        .plan_over(&erdos_renyi(40, 200, 5), &clique(3))
        .unwrap();
    assert!(Arc::ptr_eq(&plain, &over));
    assert_eq!(over.order.back_edges[2].len(), 2);
    // Over directed data it is the closure: both arcs per edge, same
    // order, its own cache entry.
    let closure = session.plan_over(&directed_data(), &clique(3)).unwrap();
    assert_eq!(closure.order.order, plain.order.order);
    assert_eq!(closure.order.back_edges[2].len(), 4);
    assert_ne!(closure.key, plain.key);
}

#[test]
fn serving_tier_matches_the_reference_on_directed_data() {
    let data = Arc::new(directed_data());
    let jobs: Vec<Job> = queries()
        .into_iter()
        .map(|(_, q)| Job::new(Arc::clone(&data), Arc::new(q)))
        .collect();
    let cfg = ServeConfig::builder()
        .ranks(1)
        .lanes(1)
        .device_config(DeviceConfig::test_small())
        .build()
        .unwrap();
    let report = ServeTier::new(cfg).run_serial(&jobs).unwrap();
    for (job, outcome) in jobs.iter().zip(&report.outcomes) {
        let want = reference(&data, &job.query).len() as u64;
        assert_eq!(outcome.result.as_ref().unwrap().num_matches, want);
    }
}
