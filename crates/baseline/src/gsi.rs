//! GSI-style engine (Zeng et al., ICDE'20) on the simulated device.
//!
//! Differs from cuTS in exactly the mechanisms the paper credits for its
//! speedup (§3, §6):
//!
//! 1. **Query ordering** — id-order BFS instead of degree-greedy (GSI
//!    orders by label frequency; the paper's unlabelled benchmark leaves it
//!    with an arbitrary order, and §6 attributes up-to-785× candidate
//!    inflation to this).
//! 2. **Two-pass expansion** — pass 1 computes every intersection to count
//!    results, pass 2 recomputes them to write at prefix-summed offsets:
//!    double compute and double read traffic.
//! 3. **Flat full-path storage** — a depth-`d` level costs `d` words per
//!    path (vs the trie's 2), and parent+child levels must coexist during
//!    expansion, so big cases exhaust memory: the paper's GSI "-" entries.
//! 4. **Full 32-wide warps per candidate** — thread idling on low-degree
//!    graphs.
//! 5. **No chunking fallback** — overflow is a hard failure.

use std::time::Instant;

use cuts_core::intersect::{c_intersection, constraint_list};
use cuts_core::{CutsError, MatchOrder, MatchResult};
use cuts_gpu_sim::{CostModel, CounterSink, Device, GlobalBuffer};
use cuts_graph::{Graph, VertexId};

/// GSI engine tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct GsiConfig {
    /// Grid-size cap per kernel.
    pub max_blocks: usize,
}

impl Default for GsiConfig {
    fn default() -> Self {
        GsiConfig { max_blocks: 256 }
    }
}

/// The GSI-style baseline engine.
pub struct GsiEngine<'d> {
    device: &'d Device,
    config: GsiConfig,
}

impl<'d> GsiEngine<'d> {
    /// Engine with default configuration.
    pub fn new(device: &'d Device) -> Self {
        GsiEngine {
            device,
            config: GsiConfig::default(),
        }
    }

    /// Engine with explicit configuration.
    pub fn with_config(device: &'d Device, config: GsiConfig) -> Self {
        GsiEngine { device, config }
    }

    /// GSI's query ordering. On labelled inputs it uses the mechanism the
    /// literature describes (QuickSI/GSI, §3: "access the vertex with the
    /// most infrequent label"): start from the query vertex whose label is
    /// rarest in the data graph, then grow connected, always taking the
    /// rarest-label frontier vertex. On unlabelled inputs it degrades to
    /// id-order BFS — the behaviour the cuTS paper's benchmark exposes.
    fn query_order(query: &Graph, data: &Graph) -> Vec<VertexId> {
        let n = query.num_vertices();
        // Data-side label frequencies (only meaningful when both labelled).
        let freq = |v: VertexId| -> u64 {
            match (query.label(v), data.is_labeled()) {
                (Some(lq), true) => (0..data.num_vertices() as VertexId)
                    .filter(|&d| data.label(d) == Some(lq))
                    .count() as u64,
                _ => u64::MAX, // unlabelled: all ties -> id order
            }
        };
        let freqs: Vec<u64> = (0..n as VertexId).map(freq).collect();
        let mut order = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        while order.len() < n {
            let next = (0..n as VertexId)
                .filter(|&v| !visited[v as usize])
                .filter(|&v| {
                    order.is_empty()
                        || query
                            .out_neighbors(v)
                            .iter()
                            .chain(query.in_neighbors(v))
                            .any(|&w| visited[w as usize])
                })
                .min_by_key(|&v| (freqs[v as usize], v))
                .unwrap_or_else(|| {
                    (0..n as VertexId)
                        .find(|&v| !visited[v as usize])
                        .expect("vertices remain")
                });
            visited[next as usize] = true;
            order.push(next);
        }
        order
    }

    /// Counts all embeddings of a connected `query` in `data`.
    pub fn run(&self, data: &Graph, query: &Graph) -> Result<MatchResult, CutsError> {
        let wall_start = Instant::now();
        let sink = CounterSink::install();
        let plan = MatchOrder::from_order(query, Self::query_order(query, data))?;
        let n = plan.len();
        let mut level_counts = vec![0u64; n];

        // Level 0: degree filter into a flat 1-word-per-path buffer.
        let nd = data.num_vertices();
        let roots: Vec<VertexId> = (0..nd as VertexId)
            .filter(|&v| {
                data.degree_dominates(v, plan.q_out[0], plan.q_in[0])
                    && cuts_core::order::label_ok(data, v, plan.q_label[0])
            })
            .collect();
        self.device.run_single_block("gsi_filter", |ctx| {
            ctx.counters.dram_read_coalesced(2 * nd);
            ctx.counters.alu(2 * nd);
            ctx.counters.dram_write(roots.len());
        });
        let mut cur = self.device.alloc_buffer(roots.len().max(1))?;
        {
            let r = cur.reserve(roots.len()).expect("sized exactly");
            r.write_slice(&roots);
        }
        let mut cur_count = roots.len();
        level_counts[0] = cur_count as u64;

        #[allow(clippy::needless_range_loop)] // pos indexes several parallel plan arrays
        for pos in 1..n {
            if cur_count == 0 {
                break;
            }
            let depth = pos; // current paths have `depth` vertices
            let blocks = self.config.max_blocks.min(cur_count).max(1);

            // ---- Pass 1: count survivors per path. Both passes write at
            // offsets reserved before the launch, so each passes its buffer
            // as a target it never appends to. ----
            let counts_buf = self.device.alloc_buffer(cur_count)?;
            let counts_res = counts_buf.reserve(cur_count).expect("sized exactly");
            self.device
                .launch_ordered("gsi_count", blocks, &counts_buf, |ctx, _| {
                    let mut path = Vec::with_capacity(depth);
                    let mut i = ctx.block_id;
                    while i < cur_count {
                        read_path(&cur, i, depth, &mut path, &mut ctx.counters);
                        let kept = expand_one(data, &plan, pos, &path, &mut ctx.counters);
                        // GSI coordinates its bins with an atomic per path.
                        ctx.counters.atomic();
                        counts_res.write(i, kept.len() as u32);
                        ctx.counters.dram_write(1);
                        i += ctx.num_blocks;
                    }
                    Ok(())
                })?;

            // ---- Prefix sum over counts (device scan primitive). ----
            let counts_host: Vec<u32> = (0..cur_count).map(|i| counts_buf.get(i)).collect();
            let offsets = self.device.run_single_block("gsi_scan", |ctx| {
                cuts_gpu_sim::primitives::exclusive_scan(&mut ctx.counters, &counts_host)
            });
            let next_count = offsets[cur_count] as usize;
            level_counts[pos] = next_count as u64;

            // ---- Allocate the next flat level: (depth+1) words/path. ----
            let next = self
                .device
                .alloc_buffer((next_count * (depth + 1)).max(1))?;
            let next_res = next
                .reserve(next_count * (depth + 1))
                .expect("sized exactly");

            // ---- Pass 2: recompute everything, write at offsets. ----
            self.device
                .launch_ordered("gsi_write", blocks, &next, |ctx, _| {
                    let mut path = Vec::with_capacity(depth);
                    let mut i = ctx.block_id;
                    while i < cur_count {
                        read_path(&cur, i, depth, &mut path, &mut ctx.counters);
                        let kept = expand_one(data, &plan, pos, &path, &mut ctx.counters);
                        ctx.counters.atomic();
                        let base = offsets[i] as usize * (depth + 1);
                        for (k, &c) in kept.iter().enumerate() {
                            let row = base + k * (depth + 1);
                            for (l, &v) in path.iter().enumerate() {
                                next_res.write(row + l, v);
                            }
                            next_res.write(row + depth, c);
                            ctx.counters.dram_write(depth + 1);
                        }
                        i += ctx.num_blocks;
                    }
                    Ok(())
                })?;

            drop(counts_buf);
            cur = next;
            cur_count = next_count;
        }

        let num_matches = level_counts[n - 1];
        let counters = sink.snapshot();
        let sim_millis = CostModel::default().millis(&counters, self.device.config());
        Ok(MatchResult {
            num_matches,
            level_counts,
            counters,
            sim_millis,
            wall_millis: wall_start.elapsed().as_secs_f64() * 1e3,
            used_chunking: false,
            order: plan.order.clone(),
        })
    }
}

/// Reads path `i` of a flat depth-`d` level (coalesced row read).
fn read_path(
    buf: &GlobalBuffer,
    i: usize,
    depth: usize,
    path: &mut Vec<VertexId>,
    ctr: &mut cuts_gpu_sim::BlockCounters,
) {
    path.clear();
    ctr.dram_read_coalesced(depth);
    for l in 0..depth {
        path.push(buf.get(i * depth + l));
    }
}

/// Candidate generation for one path: full-warp c-intersection, degree
/// filter, injectivity — GSI's join step.
fn expand_one(
    data: &Graph,
    plan: &MatchOrder,
    pos: usize,
    path: &[VertexId],
    ctr: &mut cuts_gpu_sim::BlockCounters,
) -> Vec<VertexId> {
    let back = &plan.back_edges[pos];
    let mut lists: Vec<&[VertexId]> = Vec::with_capacity(back.len());
    for be in back {
        lists.push(constraint_list(data, path[be.pos], be.dir));
    }
    lists.sort_unstable_by_key(|l| l.len());
    let mut scratch = Vec::new();
    // Full 32-wide warp: the thread-idling configuration.
    c_intersection(&lists, 32, ctr, &mut scratch);
    let mut out = Vec::new();
    for &c in &scratch {
        ctr.dram_read_coalesced(2);
        ctr.alu(2);
        if !data.degree_dominates(c, plan.q_out[pos], plan.q_in[pos]) {
            continue;
        }
        if !cuts_core::order::label_ok(data, c, plan.q_label[pos]) {
            continue;
        }
        ctr.shmem_read(path.len());
        if path.contains(&c) {
            continue;
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuts_core::{reference, EngineConfig, ExecSession};
    use cuts_gpu_sim::{DeviceConfig, DeviceError};
    use cuts_graph::generators::{chain, clique, cycle, erdos_renyi, mesh2d};

    #[test]
    fn counts_match_reference() {
        let device = Device::new(DeviceConfig::test_small());
        let gsi = GsiEngine::new(&device);
        let mesh = mesh2d(4, 4);
        let er = erdos_renyi(40, 120, 3);
        for q in [chain(3), clique(3), cycle(4), clique(4)] {
            assert_eq!(
                gsi.run(&mesh, &q).unwrap().num_matches,
                reference::count_embeddings(&mesh, &q)
            );
            assert_eq!(
                gsi.run(&er, &q).unwrap().num_matches,
                reference::count_embeddings(&er, &q)
            );
        }
    }

    #[test]
    fn unlabeled_order_is_id_first() {
        let data = mesh2d(2, 2);
        let o = GsiEngine::query_order(&chain(4), &data);
        assert_eq!(o, vec![0, 1, 2, 3]);
    }

    #[test]
    fn labeled_order_starts_at_rarest_label() {
        // Data: label 9 appears once, label 0 everywhere else.
        let data = mesh2d(3, 3).with_labels(vec![0, 0, 0, 0, 9, 0, 0, 0, 0]);
        // Query chain 0-1-2 with the rare label on vertex 2.
        let q = chain(3).with_labels(vec![0, 0, 9]);
        let o = GsiEngine::query_order(&q, &data);
        assert_eq!(o[0], 2, "root should carry the rarest label");
        // Connectivity maintained: 1 must precede 0.
        assert_eq!(o, vec![2, 1, 0]);
    }

    #[test]
    fn gsi_moves_more_data_than_cuts() {
        let device = Device::new(DeviceConfig::test_small());
        let data = erdos_renyi(120, 900, 7);
        let query = clique(4);
        let gsi = GsiEngine::new(&device).run(&data, &query).unwrap();
        let cuts = ExecSession::new(&device, EngineConfig::default())
            .run(&data, &query)
            .unwrap();
        assert_eq!(gsi.num_matches, cuts.num_matches);
        assert!(
            gsi.counters.dram_reads > cuts.counters.dram_reads,
            "gsi {} vs cuts {}",
            gsi.counters.dram_reads,
            cuts.counters.dram_reads
        );
        assert!(gsi.counters.instructions > cuts.counters.instructions);
        assert!(gsi.sim_millis > cuts.sim_millis);
    }

    #[test]
    fn gsi_fails_where_cuts_chunks() {
        // Memory small enough that flat storage overflows but the trie,
        // with chunking, finishes.
        let data = erdos_renyi(150, 1200, 13);
        let query = chain(5);
        // 60k words: GSI's flat |P_2| level alone needs ~115k, but the
        // trie plus chunking fits comfortably.
        let small = Device::new(DeviceConfig::test_small().with_global_mem_words(60_000));
        let gsi = GsiEngine::new(&small).run(&data, &query);
        assert!(
            matches!(gsi, Err(CutsError::Device(DeviceError::OutOfMemory { .. }))),
            "expected GSI OOM, got {gsi:?}"
        );
        let cuts = ExecSession::new(&small, EngineConfig::default())
            .run(&data, &query)
            .unwrap();
        assert!(cuts.num_matches > 0);
    }

    #[test]
    fn empty_result_handled() {
        let device = Device::new(DeviceConfig::test_small());
        let gsi = GsiEngine::new(&device);
        let r = gsi.run(&mesh2d(3, 3), &clique(5)).unwrap();
        assert_eq!(r.num_matches, 0);
    }
}
