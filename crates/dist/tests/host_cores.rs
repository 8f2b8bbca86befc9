//! Every rank of a distributed run holds a core of the process-wide
//! host-core ledger while it has work. The hold is released when the
//! rank exits, and also when its thread unwinds: after a run in which a
//! rank panics, no core stays held. One test per process, so nothing
//! else holds a core of the ledger meanwhile.
//!
//! ```sh
//! cargo test --release -p cuts-dist --test host_cores
//! ```

use std::time::Duration;

use cuts_core::fault::FaultPlan;
use cuts_dist::{run, DistConfig};
use cuts_gpu_sim::{DeviceConfig, HostCores};
use cuts_graph::generators::{clique, erdos_renyi};

#[test]
fn ranks_give_their_cores_back_even_when_one_panics() {
    let data = erdos_renyi(60, 240, 17);
    let query = clique(3);
    let mut config = DistConfig {
        device: DeviceConfig::test_small(),
        dist_chunk: 8,
        rank_timeout: Duration::from_millis(40),
        ..Default::default()
    };
    let clean = run(&data, &query, 3, &config).unwrap();
    assert_eq!(HostCores::process().held(), 0);

    config.fault_plan = FaultPlan::parse("panic:0@2").unwrap();
    let r = run(&data, &query, 3, &config).unwrap();
    assert_eq!(r.total_matches, clean.total_matches);
    assert_eq!(r.recovery.lost_ranks, vec![0], "rank 0 panicked");
    assert_eq!(
        HostCores::process().held(),
        0,
        "the panicking rank's hold unwound"
    );
}
