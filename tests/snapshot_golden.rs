//! Golden-fixture stability: two tiny snapshot containers are checked in
//! under `tests/fixtures/`, and the encoder must keep reproducing them
//! byte for byte. A drift here means old snapshots in the field would be
//! rejected (or worse, misread) by new builds — the test fails loudly
//! with upgrade instructions instead of letting that slip through.
//!
//! Regenerate intentionally with:
//! `CUTS_REGEN_FIXTURES=1 cargo test --test snapshot_golden`
//!
//! `mesh3x3-unlabeled.v1.snap` is the same fixture as written by the
//! version-1 format (which carried a fifth, `CSFS`, section); it is kept
//! to show that old files are refused by version, not misread.

use std::path::PathBuf;

use cuts::engine::{Snapshot, SnapshotError};
use cuts::graph::generators::{chain, clique, erdos_renyi, mesh2d};
use cuts::graph::Graph;
use cuts::prelude::*;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Deterministic builder: plans every query on a `test` device with the
/// default engine config.
fn build_fixture(data: Graph, queries: &[Graph]) -> Snapshot {
    let device = Device::new(DeviceConfig::test_small());
    let session = ExecSession::new(&device, EngineConfig::default());
    for q in queries {
        session.plan_for(q).unwrap();
    }
    Snapshot::capture(&data, &session)
}

fn unlabeled_fixture() -> Snapshot {
    build_fixture(mesh2d(3, 3), &[chain(3), clique(3)])
}

fn labeled_fixture() -> Snapshot {
    let labels = |n: usize| (0..n as u32).map(|v| v % 3).collect::<Vec<_>>();
    let data = erdos_renyi(12, 30, 7).with_labels(labels(12));
    let q = chain(3).with_labels(labels(3));
    build_fixture(data, &[q])
}

fn check_fixture(name: &str, snap: &Snapshot) {
    let path = fixture_path(name);
    let encoded = snap.encode();
    if std::env::var_os("CUTS_REGEN_FIXTURES").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &encoded).unwrap();
        eprintln!("regenerated {}", path.display());
        return;
    }
    let golden = std::fs::read(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {}: {e}\n\
             Generate it with `CUTS_REGEN_FIXTURES=1 cargo test --test snapshot_golden`.",
            path.display()
        )
    });
    // The stored container must still decode and re-encode byte-stably
    // regardless of whether the live encoder drifted.
    let decoded = Snapshot::decode(&golden).unwrap_or_else(|e| {
        panic!(
            "golden fixture {} no longer decodes: {e}\n\
             This build cannot read snapshots written by the build that produced the\n\
             fixture — a wire-format compatibility break. If the format change is\n\
             intentional, bump SNAPSHOT_VERSION in crates/core/src/snapshot.rs, add a\n\
             versioning note to DESIGN.md \u{a7}12, and regenerate the fixtures with\n\
             `CUTS_REGEN_FIXTURES=1 cargo test --test snapshot_golden`.",
            path.display()
        )
    });
    assert_eq!(
        decoded.encode(),
        golden,
        "golden fixture {} decodes but does not re-encode byte-identically",
        path.display()
    );
    assert_eq!(
        encoded,
        golden,
        "the encoder no longer reproduces golden fixture {} byte for byte.\n\
         If you changed the wire format (or anything feeding it: fingerprint hashing,\n\
         plan construction, profile layout) intentionally: bump SNAPSHOT_VERSION in\n\
         crates/core/src/snapshot.rs, document the change in DESIGN.md \u{a7}12, and\n\
         regenerate with `CUTS_REGEN_FIXTURES=1 cargo test --test snapshot_golden`.\n\
         If not, this is a silent compatibility regression: snapshots written by\n\
         released builds would stop loading. Fix the encoder instead.",
        path.display()
    );
}

#[test]
fn golden_unlabeled_snapshot_is_stable() {
    check_fixture("mesh3x3-unlabeled.snap", &unlabeled_fixture());
}

#[test]
fn golden_labeled_snapshot_is_stable() {
    check_fixture("er12-labeled.snap", &labeled_fixture());
}

#[test]
fn version_one_snapshot_is_refused() {
    let v1 = std::fs::read(fixture_path("mesh3x3-unlabeled.v1.snap")).unwrap();
    assert_eq!(
        Snapshot::decode(&v1).unwrap_err(),
        SnapshotError::UnsupportedVersion { found: 1 }
    );
}
