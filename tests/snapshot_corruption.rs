//! Deterministic corruption harness for the snapshot container: every
//! mutation — single-bit flips over the whole file, truncation at every
//! byte boundary, a shuffled section table, a version bump, trailing
//! garbage — must surface as a typed [`SnapshotError`], never a panic and
//! never a silently-wrong decode. Every byte of a well-formed container
//! is covered by the magic, the version check, the table CRC, or a
//! per-section CRC, so there is no position where a flip may pass.

use cuts::engine::snapshot::{crc32, Snapshot, SECTION_TAGS, SNAPSHOT_VERSION};
use cuts::engine::SnapshotError;
use cuts::graph::generators::{chain, clique, mesh2d};
use cuts::prelude::*;

/// A small container exercising every section with a non-empty payload.
fn sample_bytes() -> Vec<u8> {
    let data = mesh2d(4, 4);
    let device = Device::new(DeviceConfig::test_small());
    let session = ExecSession::new(&device, EngineConfig::default());
    session.run(&data, &clique(3)).unwrap();
    session.run(&data, &chain(3)).unwrap();
    Snapshot::capture(&data, &session).encode()
}

/// Layout constants mirrored from the spec (DESIGN.md §12).
const TABLE_START: usize = 20;
const TABLE_ENTRY: usize = 24;

#[test]
fn every_single_bit_flip_is_rejected() {
    let good = sample_bytes();
    assert!(Snapshot::decode(&good).is_ok());
    for pos in 0..good.len() {
        // One varying bit per byte keeps the sweep linear while still
        // touching every bit index; the header gets all eight.
        let bits: &[u8] = if pos < TABLE_START + SECTION_TAGS.len() * TABLE_ENTRY {
            &[0, 1, 2, 3, 4, 5, 6, 7]
        } else {
            &[(pos % 8) as u8]
        };
        for &bit in bits {
            let mut bad = good.clone();
            bad[pos] ^= 1 << bit;
            let err = Snapshot::decode(&bad)
                .expect_err(&format!("flip of bit {bit} at byte {pos} must be rejected"));
            // The decode already proved the error is typed; inspection
            // must reject the same mutation.
            let _ = format!("{err}");
            assert!(
                cuts::engine::snapshot::inspect(&bad).is_err(),
                "inspect accepted bit {bit} flipped at byte {pos}"
            );
        }
    }
}

#[test]
fn truncation_at_every_byte_boundary_is_rejected() {
    let good = sample_bytes();
    for len in 0..good.len() {
        let err = Snapshot::decode(&good[..len])
            .expect_err(&format!("prefix of {len} byte(s) must be rejected"));
        let _ = format!("{err}");
    }
    // Trailing bytes beyond the last section are corruption too.
    let mut long = good.clone();
    long.push(0);
    assert!(matches!(
        Snapshot::decode(&long),
        Err(SnapshotError::Corrupt(_))
    ));
}

#[test]
fn bad_magic_and_version_bump_are_typed() {
    let good = sample_bytes();
    let mut bad = good.clone();
    bad[0] = b'X';
    assert!(matches!(
        Snapshot::decode(&bad),
        Err(SnapshotError::BadMagic)
    ));

    // A future format version must be refused up front, before any
    // payload is trusted.
    let mut future = good.clone();
    future[8..12].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_le_bytes());
    assert!(matches!(
        Snapshot::decode(&future),
        Err(SnapshotError::UnsupportedVersion { found }) if found == SNAPSHOT_VERSION + 1
    ));
}

#[test]
fn shuffled_section_table_is_rejected() {
    let good = sample_bytes();
    let entries = SECTION_TAGS.len();
    // Swap every pair of table entries, repair the table CRC so the
    // mutation survives the checksum, and require the ordering check to
    // catch it.
    for a in 0..entries {
        for b in (a + 1)..entries {
            let mut bad = good.clone();
            let (ra, rb) = (
                TABLE_START + a * TABLE_ENTRY..TABLE_START + (a + 1) * TABLE_ENTRY,
                TABLE_START + b * TABLE_ENTRY..TABLE_START + (b + 1) * TABLE_ENTRY,
            );
            let ea: Vec<u8> = bad[ra.clone()].to_vec();
            let eb: Vec<u8> = bad[rb.clone()].to_vec();
            bad[ra].copy_from_slice(&eb);
            bad[rb].copy_from_slice(&ea);
            let table = bad[TABLE_START..TABLE_START + entries * TABLE_ENTRY].to_vec();
            bad[16..20].copy_from_slice(&crc32(&table).to_le_bytes());
            let err = Snapshot::decode(&bad).expect_err(&format!(
                "swapped table entries {a} and {b} must be rejected"
            ));
            assert!(
                matches!(
                    err,
                    SnapshotError::Corrupt(_) | SnapshotError::MissingSection { .. }
                ),
                "swap {a}<->{b}: unexpected error {err}"
            );
        }
    }

    // An unknown tag (CRC repaired likewise) is a missing section.
    let mut bad = good.clone();
    bad[TABLE_START..TABLE_START + 4].copy_from_slice(b"WAT?");
    let table = bad[TABLE_START..TABLE_START + entries * TABLE_ENTRY].to_vec();
    bad[16..20].copy_from_slice(&crc32(&table).to_le_bytes());
    assert!(matches!(
        Snapshot::decode(&bad),
        Err(SnapshotError::MissingSection { .. })
    ));
}

#[test]
fn payload_flip_names_the_damaged_section() {
    let good = sample_bytes();
    // Flip the last byte of the file: it belongs to the final (PLNS)
    // section's payload, so the error must name that section.
    let mut bad = good.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0x80;
    match Snapshot::decode(&bad) {
        Err(SnapshotError::SectionChecksum { section }) => {
            assert_eq!(&section, b"PLNS");
        }
        other => panic!("expected a section checksum failure, got {other:?}"),
    }
}
