//! Paper-shape direction gates, computed by the same library functions
//! the figure binaries print.
//!
//! Figure 4: no quick-set case is slower at more nodes than at one. The
//! paper claims close to 2× on two nodes and 3.1× on four; the stand-ins
//! do not yet reach that on every dataset (EXPERIMENTS.md), so only the
//! direction is asserted here.
//!
//! ```sh
//! cargo test --release -p cuts-bench --test paper_shape
//! ```

use cuts_bench::fig4_rows;
use cuts_graph::Scale;

#[test]
fn fig4_more_nodes_are_never_slower() {
    let rows = fig4_rows(Scale::Tiny, true);
    assert!(!rows.is_empty());
    for r in &rows {
        assert!(r.matches > 0, "{r:?}");
        for (nodes, s) in [2, 4].into_iter().zip(r.speedup) {
            assert!(
                s > 1.0,
                "{} {}: {nodes}-node speedup {s:.2}x is not above 1x ({r:?})",
                r.dataset,
                r.query
            );
        }
    }
}
