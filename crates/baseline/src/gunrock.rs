//! Gunrock-style subgraph matching (§3): partial paths are encoded into a
//! single 64-bit integer (base-`|V_D|` positional encoding), processed
//! pass by pass through global memory.
//!
//! Storage is 2 words per path regardless of depth — more compact than a
//! flat table — but the scheme requires `|V_D|^{|V_Q|} < 2^64`: "consider a
//! data graph with a million nodes; Gunrock can only support query graphs
//! with a maximum of four vertices". [`GunrockEngine::run`] surfaces that
//! limit as [`CutsError::Unsupported`], which is how the harness
//! reproduces Gunrock's unsupported cases.

use std::time::Instant;

use cuts_core::intersect::{c_intersection, constraint_list};
use cuts_core::{MatchOrder, MatchResult};
use cuts_gpu_sim::{CostModel, CounterSink, Device, GlobalBuffer};
use cuts_graph::{Graph, VertexId};

use cuts_core::CutsError;

/// The Gunrock-style baseline engine.
pub struct GunrockEngine<'d> {
    device: &'d Device,
    max_blocks: usize,
}

impl<'d> GunrockEngine<'d> {
    /// Engine with the default grid cap.
    pub fn new(device: &'d Device) -> Self {
        GunrockEngine {
            device,
            max_blocks: 256,
        }
    }

    /// Checks the encoding constraint `|V_D|^{|V_Q|} < 2^64`.
    pub fn encoding_fits(data_vertices: usize, query_vertices: usize) -> bool {
        let mut acc: u128 = 1;
        for _ in 0..query_vertices {
            acc = acc.saturating_mul(data_vertices.max(1) as u128);
            if acc >= (1u128 << 64) {
                return false;
            }
        }
        true
    }

    /// Counts all embeddings of a connected `query` in `data`.
    pub fn run(&self, data: &Graph, query: &Graph) -> Result<MatchResult, CutsError> {
        let wall_start = Instant::now();
        let nd = data.num_vertices();
        let nq = query.num_vertices();
        if !Self::encoding_fits(nd, nq) {
            return Err(CutsError::Unsupported {
                what: "gunrock path encoding",
                detail: format!("{nd}^{nq} exceeds 2^64"),
            });
        }
        let sink = CounterSink::install();
        let plan = MatchOrder::compute(query)?;
        let n = plan.len();
        let base = nd.max(1) as u64;
        let mut level_counts = vec![0u64; n];

        // Level 0 (one pass, encoded).
        let roots: Vec<VertexId> = (0..nd as VertexId)
            .filter(|&v| {
                data.degree_dominates(v, plan.q_out[0], plan.q_in[0])
                    && cuts_core::order::label_ok(data, v, plan.q_label[0])
            })
            .collect();
        self.device.run_single_block("gunrock_filter", |ctx| {
            ctx.counters.dram_read_coalesced(2 * nd);
            ctx.counters.alu(2 * nd);
            ctx.counters.dram_write(2 * roots.len());
        });
        let mut cur = encode_level(
            self.device,
            &roots.iter().map(|&v| v as u64).collect::<Vec<_>>(),
        )?;
        let mut cur_count = roots.len();
        level_counts[0] = cur_count as u64;

        #[allow(clippy::needless_range_loop)] // pos indexes several parallel plan arrays
        for pos in 1..n {
            if cur_count == 0 {
                break;
            }
            // Each pass writes into a fresh buffer claimed by atomic cursor
            // (single-pass, like cuTS, but every path must be decoded from
            // and re-encoded to global memory).
            let next = self.device.alloc_buffer(
                (self.device.free_words() / 2).max(2), // generous: 2 words/path
            )?;
            let blocks = self.max_blocks.min(cur_count).max(1);
            let depth = pos;
            self.device
                .launch_ordered("gunrock_expand", blocks, &next, |ctx, out| {
                    let mut path: Vec<VertexId> = Vec::with_capacity(depth);
                    let mut cands: Vec<VertexId> = Vec::new();
                    let mut i = ctx.block_id;
                    while i < cur_count {
                        // Load and decode the 64-bit code (2 words + `depth`
                        // div/mod pairs of ALU work).
                        ctx.counters.dram_read_coalesced(2);
                        let code = read_u64(&cur, i);
                        decode_path(code, base, depth, &mut path);
                        ctx.counters.alu(2 * depth);

                        let back = &plan.back_edges[pos];
                        let mut lists = Vec::with_capacity(back.len());
                        for be in back {
                            lists.push(constraint_list(data, path[be.pos], be.dir));
                        }
                        lists.sort_unstable_by_key(|l| l.ids.len());
                        c_intersection(&lists, 32, &mut ctx.counters, &mut cands);

                        // The kept paths' codes, low word first.
                        let mut words: Vec<u32> = Vec::new();
                        for &c in &cands {
                            ctx.counters.dram_read_coalesced(2);
                            ctx.counters.alu(2);
                            if !data.degree_dominates(c, plan.q_out[pos], plan.q_in[pos])
                                || !cuts_core::order::label_ok(data, c, plan.q_label[pos])
                            {
                                continue;
                            }
                            ctx.counters.alu(depth);
                            if path.contains(&c) {
                                continue;
                            }
                            // Re-encode: code + c * base^depth.
                            let grown = code + c as u64 * base.pow(depth as u32);
                            words.extend([grown as u32, (grown >> 32) as u32]);
                            ctx.counters.alu(2);
                        }
                        if !words.is_empty() {
                            ctx.counters.atomic();
                            out.append(i as u32, &words)?;
                            ctx.counters.dram_write(words.len());
                        }
                        i += ctx.num_blocks;
                    }
                    Ok(())
                })?;
            cur_count = next.len() / 2;
            level_counts[pos] = cur_count as u64;
            cur = next;
        }

        let counters = sink.snapshot();
        let sim_millis = CostModel::default().millis(&counters, self.device.config());
        Ok(MatchResult {
            num_matches: level_counts[n - 1],
            level_counts,
            counters,
            sim_millis,
            wall_millis: wall_start.elapsed().as_secs_f64() * 1e3,
            used_chunking: false,
            order: plan.order.clone(),
        })
    }
}

fn encode_level(device: &Device, codes: &[u64]) -> Result<GlobalBuffer, CutsError> {
    let buf = device.alloc_buffer((2 * codes.len()).max(2))?;
    let r = buf.reserve(2 * codes.len()).expect("sized exactly");
    for (i, &c) in codes.iter().enumerate() {
        r.write(2 * i, c as u32);
        r.write(2 * i + 1, (c >> 32) as u32);
    }
    Ok(buf)
}

fn read_u64(buf: &GlobalBuffer, i: usize) -> u64 {
    buf.get(2 * i) as u64 | ((buf.get(2 * i + 1) as u64) << 32)
}

fn decode_path(code: u64, base: u64, depth: usize, out: &mut Vec<VertexId>) {
    out.clear();
    let mut c = code;
    for _ in 0..depth {
        out.push((c % base) as VertexId);
        c /= base;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuts_core::reference;
    use cuts_gpu_sim::DeviceConfig;
    use cuts_graph::generators::{chain, clique, cycle, erdos_renyi, mesh2d};

    #[test]
    fn encoding_limit_matches_paper_example() {
        // 10^18 < 2^64 < 10^24: a million-vertex graph encodes paths of
        // 3 query vertices but not of 4. (The paper says such a graph
        // supports queries of up to four vertices.)
        assert!(GunrockEngine::encoding_fits(1_000_000, 3));
        assert!(!GunrockEngine::encoding_fits(1_000_000, 4));
        assert!(GunrockEngine::encoding_fits(100, 9));
        assert!(!GunrockEngine::encoding_fits(1 << 17, 4));
    }

    #[test]
    fn counts_match_reference() {
        let device = Device::new(DeviceConfig::test_small());
        let eng = GunrockEngine::new(&device);
        let mesh = mesh2d(4, 4);
        let er = erdos_renyi(40, 120, 3);
        for q in [chain(3), clique(3), cycle(4)] {
            assert_eq!(
                eng.run(&mesh, &q).unwrap().num_matches,
                reference::count_embeddings(&mesh, &q)
            );
            assert_eq!(
                eng.run(&er, &q).unwrap().num_matches,
                reference::count_embeddings(&er, &q)
            );
        }
    }

    #[test]
    fn decode_inverts_encode() {
        let base = 97u64;
        let path = [5u32, 80, 3, 42];
        let mut code = 0u64;
        for (l, &v) in path.iter().enumerate() {
            code += v as u64 * base.pow(l as u32);
        }
        let mut out = Vec::new();
        decode_path(code, base, 4, &mut out);
        assert_eq!(out, path);
    }

    #[test]
    fn overflow_reported_before_running() {
        // A "paper-scale" vertex count with a 5-vertex query must refuse.
        let device = Device::new(DeviceConfig::test_small());
        let eng = GunrockEngine::new(&device);
        // Build a tiny graph but lie about nothing: use an actual graph
        // with many vertices and no edges; the check fires on |V| alone.
        let big = Graph::undirected(1 << 16, &[]);
        let q = clique(4);
        match eng.run(&big, &q) {
            Err(CutsError::Unsupported { what, detail }) => {
                assert_eq!(what, "gunrock path encoding");
                assert!(detail.contains("^4"));
            }
            other => panic!("expected overflow, got {other:?}"),
        }
    }
}
