//! Serving-tier equivalence suite: serving a job stream from one queue
//! shared by simulated multi-GPU ranks must be a pure throughput
//! optimisation. Every rank × lane shape produces per-job results
//! byte-identical to a serial drain, and a rank killed mid-stream loses
//! no jobs — the jobs it had claimed go back in the queue and are
//! finished by the survivors.

use cuts::engine::job::parse_manifest;
use cuts::prelude::*;

/// A mixed stream: several query shapes, repeats, priorities, and
/// classes, so the lanes' claims actually have choices to make.
const MANIFEST: &str = "\
mesh:4x4 clique:3 repeat=3 class=gold
mesh:4x4 chain:3 priority=2
er:24:60:7 cycle:4 name=ring repeat=2
mesh:3x3 clique:3 class=steel
er:20:50:3 chain:4
";

fn tier(ranks: usize, lanes: usize) -> ServeTier {
    ServeTier::new(
        ServeConfig::builder()
            .ranks(ranks)
            .devices_per_rank(1)
            .lanes(lanes)
            .device_config(DeviceConfig::test_small())
            .telemetry(false)
            .build()
            .unwrap(),
    )
}

fn assert_byte_identical(serial: &ServeReport, report: &ServeReport, shape: &str) {
    assert_eq!(
        report.outcomes.len(),
        serial.outcomes.len(),
        "{shape}: outcome count"
    );
    for (a, b) in serial.outcomes.iter().zip(&report.outcomes) {
        match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => assert_eq!(
                x.canonical_bytes(),
                y.canonical_bytes(),
                "{shape}: job {} diverged from the serial baseline",
                a.id.0
            ),
            (Err(_), Err(_)) => {}
            _ => panic!("{shape}: job {} ok/err status diverged", a.id.0),
        }
    }
}

#[test]
fn every_rank_lane_shape_is_byte_identical_to_serial() {
    let jobs = parse_manifest(MANIFEST).unwrap();
    let serial = tier(1, 1).run_serial(&jobs).unwrap();
    assert_eq!(serial.outcomes.len(), jobs.len());
    for ranks in [1usize, 2, 4] {
        for lanes in [1usize, 2, 4] {
            let report = tier(ranks, lanes).run_stream(&jobs).unwrap();
            let shape = format!("{ranks} rank(s) x {lanes} lane(s)");
            assert_eq!(report.stats.submitted, jobs.len() as u64, "{shape}");
            assert_eq!(
                report.stats.completed + report.stats.failed,
                jobs.len() as u64,
                "{shape}: every job reaches a terminal state"
            );
            assert!(report.stats.lost_ranks.is_empty(), "{shape}: clean run");
            assert_byte_identical(&serial, &report, &shape);
        }
    }
}

#[test]
fn killing_a_rank_mid_stream_loses_no_jobs() {
    let jobs = parse_manifest(MANIFEST).unwrap();
    let serial = tier(1, 1).run_serial(&jobs).unwrap();
    // Pacing keeps every job on-device for a few milliseconds, so the
    // kill lands mid-stream. The crash clock counts admitted jobs, so
    // the victim dies however fast idle peers drain the stream.
    let config = ServeConfig::builder()
        .ranks(3)
        .lanes(2)
        .device_config(DeviceConfig::test_small())
        .pacing(50.0)
        .fault_plan(FaultPlan::parse("crash:1@1").unwrap())
        .telemetry(false)
        .build()
        .unwrap();
    let report = ServeTier::new(config).run_stream(&jobs).unwrap();
    // The victim actually died, and nothing fell through the cracks: one
    // terminal outcome per submitted job, byte-identical to serial.
    assert_eq!(report.stats.lost_ranks, vec![1], "fault plan fired");
    assert_eq!(report.stats.submitted, jobs.len() as u64);
    assert_eq!(
        report.stats.completed + report.stats.failed,
        jobs.len() as u64,
        "zero lost jobs after the crash"
    );
    assert_byte_identical(&serial, &report, "kill-a-rank");
    // The dead rank cannot be the one that finished the stream.
    let done: u64 = report.stats.per_rank_jobs.iter().sum();
    assert_eq!(done, jobs.len() as u64);
    assert!(
        report.stats.per_rank_jobs[0] + report.stats.per_rank_jobs[2] > 0,
        "survivors committed the recovered work"
    );
}

#[test]
fn panicking_rank_is_contained_and_recovered() {
    let jobs = parse_manifest(MANIFEST).unwrap();
    let serial = tier(1, 1).run_serial(&jobs).unwrap();
    let config = ServeConfig::builder()
        .ranks(2)
        .lanes(2)
        .device_config(DeviceConfig::test_small())
        .pacing(50.0)
        .fault_plan(FaultPlan::parse("panic:0@1").unwrap())
        .telemetry(false)
        .build()
        .unwrap();
    let report = ServeTier::new(config).run_stream(&jobs).unwrap();
    assert_eq!(report.stats.lost_ranks, vec![0]);
    assert_eq!(
        report.stats.completed + report.stats.failed,
        jobs.len() as u64
    );
    assert_byte_identical(&serial, &report, "panic-a-rank");
}
