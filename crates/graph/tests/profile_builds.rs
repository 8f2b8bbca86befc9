//! A profiled live graph is never re-profiled: batches patch the cached
//! profile in place. Alone in its test binary because
//! [`profile_builds`] is a process-wide counter that any concurrently
//! running test building a profile would move.

use cuts_graph::generators::mesh2d;
use cuts_graph::profile::{profile_builds, DataProfile};
use cuts_graph::EdgeBatch;

#[test]
fn batches_on_a_profiled_graph_build_no_profile() {
    let mut g = mesh2d(6, 6);
    g.profile();
    let builds = profile_builds();
    for i in 0..8u32 {
        // Diagonals across the mesh, then their removal.
        let (u, v) = (i % 5 * 6 + i / 5, i % 5 * 6 + i / 5 + 7);
        let mut batch = EdgeBatch::new();
        batch.insert(u, v);
        g.apply_batch(&batch).unwrap();
        g.profile();
        g.apply_batch(&batch.inverse()).unwrap();
        g.profile();
    }
    assert_eq!(profile_builds(), builds, "a batch re-profiled the graph");
    assert_eq!(*g.profile(), DataProfile::build(&g));
}
