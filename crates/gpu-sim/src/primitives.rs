//! Device-style collective primitives with counter accounting.
//!
//! Two-pass engines lean on these: GSI's join counts per-path results,
//! runs an **exclusive scan** over the counts to get write offsets, and
//! scatters. The scan models the standard work-efficient implementation
//! (Blelloch scan: ~2n ops over shared memory plus one global read and
//! write per element) so that engines built on it incur honest traffic.

use crate::counters::BlockCounters;

/// Exclusive prefix sum: returns `n + 1` offsets with `out[0] = 0` and
/// `out[n]` = total. Charges one global read and write per element plus
/// the ~2n shared-memory ops of a work-efficient scan.
pub fn exclusive_scan(ctr: &mut BlockCounters, input: &[u32]) -> Vec<u32> {
    let n = input.len();
    ctr.dram_read_coalesced(n);
    ctr.shmem_write(n);
    ctr.shmem_read(n);
    ctr.alu(2 * n);
    ctr.dram_write(n + 1);
    let mut out = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    out.push(0);
    for &x in input {
        acc += x;
        out.push(acc);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scan_offsets() {
        let mut ctr = BlockCounters::default();
        let out = exclusive_scan(&mut ctr, &[3, 0, 5, 2]);
        assert_eq!(out, vec![0, 3, 3, 8, 10]);
        assert_eq!(ctr.c.dram_reads, 4);
        assert_eq!(ctr.c.dram_writes, 5);
        assert!(ctr.c.shmem_writes >= 4);
    }

    #[test]
    fn scan_empty() {
        let mut ctr = BlockCounters::default();
        assert_eq!(exclusive_scan(&mut ctr, &[]), vec![0]);
    }
}
