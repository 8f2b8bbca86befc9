//! Versioned snapshot container: cold-start artifacts on disk.
//!
//! A snapshot persists everything a serving process rebuilds from
//! scratch on every start today — the data graph with its
//! [`DataProfile`] (degree deciles + packed signatures) and the
//! [`crate::PlanCache`]'s [`QueryPlan`]s keyed by their existing
//! [`crate::PlanKey`] fingerprints — in one checksummed binary file.
//! [`crate::ExecSession::from_snapshot`] restores a device-bound session
//! from it with **zero** plan builds and **zero** re-profiling.
//!
//! The normative wire-format specification lives in DESIGN.md §12; the
//! layout in brief (all integers little-endian):
//!
//! ```text
//! [0,  8)   magic "CUTSNAP\0"
//! [8,  12)  format version (currently 2)
//! [12, 16)  section count
//! [16, 20)  CRC-32 of the section table
//! [20, 20 + 24·count)  section table: tag[4] · offset u64 · len u64 · crc u32
//! then the payloads, contiguous, in table order; the file ends exactly
//! at the last section's end.
//! ```
//!
//! Sections appear in the fixed order `META`, `GRPH`, `PROF`, `PLNS`,
//! each covered by its own CRC-32 (IEEE). Every byte of the file
//! is covered by a check: decoders return typed [`SnapshotError`]s on
//! bad magic, unsupported versions, checksum mismatches, truncation, or
//! inconsistent contents — never a panic, never a silently-wrong decode.

use std::path::Path;
use std::sync::{Arc, Mutex};

use cuts_graph::profile::{DataProfile, DegreeBucketStats};
use cuts_graph::{Csr, Graph};
use cuts_obs::{Arg, EventKind};

use crate::config::{EngineConfig, IntersectStrategy, VirtualWarpPolicy};
use crate::error::{CutsError, SnapshotError};
use crate::order::{BackEdge, Dir, MatchOrder, OrderPolicy};
use crate::plan::{fingerprint_config, DeviceClass, LevelSchedule, PlanKey, QueryPlan};
use crate::session::ExecSession;

/// Leading magic bytes of every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"CUTSNAP\0";

/// The container format version this build writes and reads.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Fixed section order of a version-2 snapshot.
pub const SECTION_TAGS: [[u8; 4]; 4] = [*b"META", *b"GRPH", *b"PROF", *b"PLNS"];

/// Byte offset where the section table starts.
const TABLE_START: usize = 20;

/// Bytes per section-table entry: tag + offset + len + crc.
const TABLE_ENTRY: usize = 24;

/// Sanity cap on the device-class name length (bounds the leak of
/// interning unknown names).
const MAX_NAME_LEN: usize = 256;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected). Hand-rolled: the workspace vendors no
// checksum crate. Slicing-by-8 keeps the checksum off the warm-start
// critical path — it processes eight input bytes per table round instead
// of one, which matters because every payload byte is CRC-covered and the
// snapshot read re-verifies the whole file.
// ---------------------------------------------------------------------------

const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = tables[0][(prev & 0xFF) as usize] ^ (prev >> 8);
            i += 1;
        }
        t += 1;
    }
    tables
};

/// CRC-32 (IEEE) of `bytes` — the per-section and table checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for ch in &mut chunks {
        let lo = c ^ u32::from_le_bytes(ch[0..4].try_into().expect("4 bytes"));
        let hi = u32::from_le_bytes(ch[4..8].try_into().expect("4 bytes"));
        c = CRC_TABLES[7][(lo & 0xFF) as usize]
            ^ CRC_TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[4][(lo >> 24) as usize]
            ^ CRC_TABLES[3][(hi & 0xFF) as usize]
            ^ CRC_TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ CRC_TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ CRC_TABLES[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Little-endian primitives.
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a section payload.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.buf.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A wire `u64` that must fit a host `usize`.
    fn size(&mut self) -> Result<usize, SnapshotError> {
        self.u64()?
            .try_into()
            .map_err(|_| SnapshotError::Corrupt("size overflows this platform"))
    }

    /// A wire flag that must be exactly 0 or 1.
    fn flag(&mut self) -> Result<bool, SnapshotError> {
        match self.u32()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("flag out of range")),
        }
    }

    /// `n` consecutive `u32`s; the length is checked against the
    /// remaining payload *before* allocating.
    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, SnapshotError> {
        let bytes = n
            .checked_mul(4)
            .ok_or(SnapshotError::Corrupt("array size overflows"))?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// `n` consecutive `u64`s, bounds-checked before allocation.
    fn u64s(&mut self, n: usize) -> Result<Vec<u64>, SnapshotError> {
        let bytes = n
            .checked_mul(8)
            .ok_or(SnapshotError::Corrupt("array size overflows"))?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
            .collect())
    }

    fn finish(&self) -> Result<(), SnapshotError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt("trailing bytes in section"))
        }
    }
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_flag(out: &mut Vec<u8>, v: bool) {
    put_u32(out, v as u32);
}

// ---------------------------------------------------------------------------
// Device-class name interning: `DeviceClass.name` is `&'static str`, so a
// decoded name must live forever. Known simulator models resolve to their
// compiled-in literals; unknown names are leaked once per distinct string
// (bounded by MAX_NAME_LEN and the set of snapshots a process opens).
// ---------------------------------------------------------------------------

fn intern_device_name(name: &str) -> &'static str {
    const KNOWN: [&str; 3] = ["sim-V100", "sim-A100", "sim-test"];
    if let Some(&k) = KNOWN.iter().find(|&&k| k == name) {
        return k;
    }
    static EXTRA: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut extra = EXTRA.lock().unwrap();
    if let Some(&e) = extra.iter().find(|&&e| e == name) {
        return e;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    extra.push(leaked);
    leaked
}

// ---------------------------------------------------------------------------
// Section codecs. Public so the proptest suite can fuzz each one in
// isolation; the container calls the same functions.
// ---------------------------------------------------------------------------

/// Encodes a [`DataProfile`] (the `PROF` section payload).
pub fn encode_profile(p: &DataProfile) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + 4 + 2 * (44 + 8) + 8 + 8 * p.signatures.len());
    put_u64(&mut out, p.vertices as u64);
    put_flag(&mut out, p.labeled);
    for stats in [&p.out_degrees, &p.in_degrees] {
        for &d in &stats.deciles {
            put_u32(&mut out, d);
        }
        put_u64(&mut out, stats.avg.to_bits());
    }
    put_u64(&mut out, p.signatures.len() as u64);
    for &s in &p.signatures {
        put_u64(&mut out, s);
    }
    out
}

/// Decodes [`encode_profile`] output.
pub fn decode_profile(bytes: &[u8]) -> Result<DataProfile, SnapshotError> {
    let mut r = Reader::new(bytes);
    let p = read_profile(&mut r)?;
    r.finish()?;
    Ok(p)
}

fn read_profile(r: &mut Reader<'_>) -> Result<DataProfile, SnapshotError> {
    let vertices = r.size()?;
    let labeled = r.flag()?;
    let mut stats = [DegreeBucketStats {
        deciles: [0; 11],
        avg: 0.0,
    }; 2];
    for s in &mut stats {
        let deciles = r.u32s(11)?;
        s.deciles = deciles.try_into().expect("exactly 11 deciles");
        s.avg = r.f64()?;
        if !s.avg.is_finite() || s.avg < 0.0 {
            return Err(SnapshotError::Corrupt("degree average out of range"));
        }
    }
    let sig_count = r.size()?;
    if sig_count != vertices {
        return Err(SnapshotError::Corrupt("one signature per vertex required"));
    }
    let signatures = r.u64s(sig_count)?;
    Ok(DataProfile {
        out_degrees: stats[0],
        in_degrees: stats[1],
        signatures,
        vertices,
        labeled,
    })
}

/// Encodes a [`Graph`] (the `GRPH` section payload): the out-adjacency
/// CSR verbatim — per-vertex degrees followed by the sorted target
/// array — so decoding is bulk little-endian reads plus validation, with
/// no edge-list detour and no sorting. This is what makes warm start
/// effectively zero-copy: the wire layout *is* the runtime layout.
pub fn encode_graph(g: &Graph) -> Vec<u8> {
    let csr = g.out_csr();
    let offsets = csr.offsets();
    let mut out =
        Vec::with_capacity(8 + 4 + 4 + 8 + 4 * (g.num_vertices() * 2 + csr.targets().len()));
    put_u64(&mut out, g.num_vertices() as u64);
    put_flag(&mut out, g.is_symmetric());
    put_flag(&mut out, g.is_labeled());
    put_u64(&mut out, csr.targets().len() as u64);
    for w in offsets.windows(2) {
        put_u32(&mut out, (w[1] - w[0]) as u32);
    }
    out.extend(csr.targets().iter().flat_map(|t| t.to_le_bytes()));
    if g.is_labeled() {
        for v in 0..g.num_vertices() as u32 {
            put_u32(&mut out, g.label(v).expect("labeled graph"));
        }
    }
    out
}

/// Decodes [`encode_graph`] output. Every CSR invariant is re-verified
/// (degree sum, monotone offsets, strictly ascending rows, in-range
/// targets, no self-loops, and — for symmetric graphs — that the
/// adjacency equals its own transpose), so a decoded graph is
/// structurally indistinguishable from one the generators built.
pub fn decode_graph(bytes: &[u8]) -> Result<Graph, SnapshotError> {
    let mut r = Reader::new(bytes);
    let n = r.size()?;
    let symmetric = r.flag()?;
    let labeled = r.flag()?;
    let arcs = r.size()?;
    let degrees = r.u32s(n)?;
    let mut offsets = Vec::with_capacity(n + 1);
    let mut total = 0u64;
    offsets.push(0u64);
    for &d in &degrees {
        total += d as u64;
        offsets.push(total);
    }
    if total != arcs as u64 {
        return Err(SnapshotError::Corrupt(
            "degree sum disagrees with arc count",
        ));
    }
    let targets = r.u32s(arcs)?;
    let csr = Csr::from_sorted_parts(offsets, targets).map_err(SnapshotError::Corrupt)?;
    let g = Graph::from_out_csr(csr, symmetric).map_err(SnapshotError::Corrupt)?;
    let g = if labeled {
        g.with_labels(r.u32s(n)?)
    } else {
        g
    };
    r.finish()?;
    Ok(g)
}

fn write_config(out: &mut Vec<u8>, c: &EngineConfig) {
    put_u32(
        out,
        match c.order_policy {
            OrderPolicy::DegreeGreedy => 0,
            OrderPolicy::IdBfs => 1,
        },
    );
    put_u64(out, c.chunk_size as u64);
    put_u64(out, c.trie_fraction.to_bits());
    put_u32(
        out,
        match c.intersect {
            IntersectStrategy::Auto => 0,
            IntersectStrategy::CIntersection => 1,
            IntersectStrategy::PIntersection => 2,
            IntersectStrategy::Bitmap => 3,
        },
    );
    put_flag(out, c.signature_prefilter);
    put_flag(out, c.randomize_placement);
    match c.virtual_warp {
        VirtualWarpPolicy::AvgDegree => {
            put_u32(out, 0);
            put_u64(out, 0);
        }
        VirtualWarpPolicy::Fixed(w) => {
            put_u32(out, 1);
            put_u64(out, w as u64);
        }
    }
    put_u64(out, c.max_blocks as u64);
    put_u64(out, c.seed);
}

fn read_config(r: &mut Reader<'_>) -> Result<EngineConfig, SnapshotError> {
    let order_policy = match r.u32()? {
        0 => OrderPolicy::DegreeGreedy,
        1 => OrderPolicy::IdBfs,
        _ => return Err(SnapshotError::Corrupt("unknown order policy")),
    };
    let chunk_size = r.size()?;
    let trie_fraction = r.f64()?;
    let intersect = match r.u32()? {
        0 => IntersectStrategy::Auto,
        1 => IntersectStrategy::CIntersection,
        2 => IntersectStrategy::PIntersection,
        3 => IntersectStrategy::Bitmap,
        _ => return Err(SnapshotError::Corrupt("unknown intersect strategy")),
    };
    let signature_prefilter = r.flag()?;
    let randomize_placement = r.flag()?;
    let vw_tag = r.u32()?;
    let vw_width = r.size()?;
    let virtual_warp = match vw_tag {
        0 if vw_width == 0 => VirtualWarpPolicy::AvgDegree,
        1 if vw_width >= 1 => VirtualWarpPolicy::Fixed(vw_width),
        _ => return Err(SnapshotError::Corrupt("bad virtual-warp policy")),
    };
    let max_blocks = r.size()?;
    let seed = r.u64()?;
    if chunk_size == 0 || max_blocks == 0 {
        return Err(SnapshotError::Corrupt("config sizes must be positive"));
    }
    if !(trie_fraction.is_finite() && trie_fraction > 0.0 && trie_fraction <= 1.0) {
        return Err(SnapshotError::Corrupt("trie fraction out of range"));
    }
    Ok(EngineConfig {
        order_policy,
        chunk_size,
        trie_fraction,
        intersect,
        signature_prefilter,
        randomize_placement,
        virtual_warp,
        max_blocks,
        seed,
    })
}

/// Encodes one [`QueryPlan`] record (one element of the `PLNS` section).
pub fn encode_plan(p: &QueryPlan) -> Vec<u8> {
    let mut out = Vec::new();
    put_u64(&mut out, p.key.query);
    put_u64(&mut out, p.key.config);
    put_u64(&mut out, p.key.device_class);
    let n = p.order.len();
    put_u32(&mut out, n as u32);
    for &q in &p.order.order {
        put_u32(&mut out, q);
    }
    for level in &p.order.back_edges {
        put_u32(&mut out, level.len() as u32);
        for e in level {
            put_u32(&mut out, e.pos as u32);
            put_u32(&mut out, matches!(e.dir, Dir::In) as u32);
        }
    }
    for &d in &p.order.q_out {
        put_u32(&mut out, d);
    }
    for &d in &p.order.q_in {
        put_u32(&mut out, d);
    }
    for &l in &p.order.q_label {
        put_flag(&mut out, l.is_some());
        put_u32(&mut out, l.unwrap_or(0));
    }
    write_config(&mut out, &p.config);
    let name = p.device_class.name.as_bytes();
    put_u32(&mut out, name.len() as u32);
    out.extend_from_slice(name);
    put_u64(&mut out, p.device_class.num_sms as u64);
    put_u64(&mut out, p.device_class.shared_mem_words_per_block as u64);
    put_u64(&mut out, p.device_class.global_mem_words as u64);
    put_u64(&mut out, p.trie_entries_budget as u64);
    put_u64(&mut out, p.root_signature);
    put_flag(&mut out, p.query_labeled);
    out
}

/// Decodes one [`encode_plan`] record, revalidating every structural
/// invariant and both recomputable fingerprint components of the stored
/// [`PlanKey`] (the query fingerprint cannot be rechecked without the
/// query graph; it is covered by the section CRC).
pub fn decode_plan(bytes: &[u8]) -> Result<QueryPlan, SnapshotError> {
    let mut r = Reader::new(bytes);
    let p = read_plan(&mut r)?;
    r.finish()?;
    Ok(p)
}

fn read_plan(r: &mut Reader<'_>) -> Result<QueryPlan, SnapshotError> {
    let key = PlanKey {
        query: r.u64()?,
        config: r.u64()?,
        device_class: r.u64()?,
    };
    let n = r.u32()? as usize;
    if n == 0 {
        return Err(SnapshotError::Corrupt("empty plan"));
    }
    let order = r.u32s(n)?;
    let mut position = vec![usize::MAX; n];
    for (l, &q) in order.iter().enumerate() {
        let q = q as usize;
        if q >= n || position[q] != usize::MAX {
            return Err(SnapshotError::Corrupt("order is not a permutation"));
        }
        position[q] = l;
    }
    let mut back_edges = Vec::with_capacity(n);
    for l in 0..n {
        let count = r.u32()? as usize;
        if (l == 0) != (count == 0) {
            return Err(SnapshotError::Corrupt(
                "back-edge counts violate connectivity",
            ));
        }
        let mut level = Vec::new();
        for _ in 0..count {
            let pos = r.u32()? as usize;
            if pos >= l {
                return Err(SnapshotError::Corrupt("back edge not backward"));
            }
            let dir = match r.u32()? {
                0 => Dir::Out,
                1 => Dir::In,
                _ => return Err(SnapshotError::Corrupt("unknown edge direction")),
            };
            level.push(BackEdge { pos, dir });
        }
        back_edges.push(level);
    }
    let q_out = r.u32s(n)?;
    let q_in = r.u32s(n)?;
    let mut q_label = Vec::with_capacity(n);
    for _ in 0..n {
        let present = r.flag()?;
        let value = r.u32()?;
        if !present && value != 0 {
            return Err(SnapshotError::Corrupt("absent label carries a value"));
        }
        q_label.push(present.then_some(value));
    }
    let config = read_config(r)?;
    let name_len = r.u32()? as usize;
    if name_len > MAX_NAME_LEN {
        return Err(SnapshotError::Corrupt("device name too long"));
    }
    let name_bytes = r.take(name_len)?;
    let name = std::str::from_utf8(name_bytes)
        .map_err(|_| SnapshotError::Corrupt("device name not utf-8"))?;
    let device_class = DeviceClass {
        name: intern_device_name(name),
        num_sms: r.size()?,
        shared_mem_words_per_block: r.size()?,
        global_mem_words: r.size()?,
    };
    let trie_entries_budget = r.size()?;
    let root_signature = r.u64()?;
    let query_labeled = r.flag()?;
    if query_labeled != q_label.iter().all(|l| l.is_some())
        || (!query_labeled && q_label.iter().any(|l| l.is_some()))
    {
        return Err(SnapshotError::Corrupt("label flags inconsistent"));
    }
    // Both recomputable key components must match what was stored.
    if fingerprint_config(&config) != key.config {
        return Err(SnapshotError::Corrupt("config fingerprint mismatch"));
    }
    if device_class.fingerprint() != key.device_class {
        return Err(SnapshotError::Corrupt("device-class fingerprint mismatch"));
    }
    // The budget is a pure function of class and config — recompute it.
    let expect_budget =
        ((device_class.global_mem_words as f64 * config.trie_fraction) / 2.0) as usize;
    if trie_entries_budget != expect_budget || trie_entries_budget == 0 {
        return Err(SnapshotError::Corrupt("trie budget mismatch"));
    }
    // The schedule is derived, not stored: rebuild it exactly as
    // `QueryPlan::build` does.
    let schedule = (1..n)
        .map(|pos| LevelSchedule {
            pos,
            constraints: back_edges[pos].len(),
            strategy: config.intersect,
        })
        .collect();
    Ok(QueryPlan {
        order: MatchOrder {
            order,
            position,
            back_edges,
            q_out,
            q_in,
            q_label,
        },
        schedule,
        config,
        device_class,
        trie_entries_budget,
        root_signature,
        query_labeled,
        key,
    })
}

fn encode_plans(plans: &[Arc<QueryPlan>]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, plans.len() as u32);
    for p in plans {
        out.extend_from_slice(&encode_plan(p));
    }
    out
}

fn decode_plans(bytes: &[u8]) -> Result<Vec<Arc<QueryPlan>>, SnapshotError> {
    let mut r = Reader::new(bytes);
    let count = r.u32()? as usize;
    let mut plans = Vec::new();
    for _ in 0..count {
        plans.push(Arc::new(read_plan(&mut r)?));
    }
    r.finish()?;
    Ok(plans)
}

// ---------------------------------------------------------------------------
// META section + container assembly.
// ---------------------------------------------------------------------------

struct Meta {
    vertices: u64,
    arcs: u64,
    symmetric: bool,
    labeled: bool,
    plan_count: u32,
}

fn encode_meta(m: &Meta) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    put_u64(&mut out, m.vertices);
    put_u64(&mut out, m.arcs);
    put_flag(&mut out, m.symmetric);
    put_flag(&mut out, m.labeled);
    put_u32(&mut out, m.plan_count);
    out
}

fn decode_meta(bytes: &[u8]) -> Result<Meta, SnapshotError> {
    let mut r = Reader::new(bytes);
    let m = Meta {
        vertices: r.u64()?,
        arcs: r.u64()?,
        symmetric: r.flag()?,
        labeled: r.flag()?,
        plan_count: r.u32()?,
    };
    r.finish()?;
    Ok(m)
}

/// A verified section: its table tag and its payload slice.
type Sections<'a> = Vec<(&'a [u8; 4], &'a [u8])>;

/// Parses the container header and table, verifying magic, version, both
/// checksum layers, canonical section order, contiguity, and exact file
/// length. Returns each section's payload slice.
fn parse_container(bytes: &[u8]) -> Result<Sections<'_>, SnapshotError> {
    if bytes.len() < SNAPSHOT_MAGIC.len() {
        return Err(SnapshotError::Truncated);
    }
    if bytes[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < TABLE_START {
        return Err(SnapshotError::Truncated);
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes")) as usize;
    if count != SECTION_TAGS.len() {
        return Err(SnapshotError::Corrupt("unexpected section count"));
    }
    let table_crc = u32::from_le_bytes(bytes[16..20].try_into().expect("4 bytes"));
    let table_end = TABLE_START + count * TABLE_ENTRY;
    if bytes.len() < table_end {
        return Err(SnapshotError::Truncated);
    }
    let table = &bytes[TABLE_START..table_end];
    if crc32(table) != table_crc {
        return Err(SnapshotError::TableChecksum);
    }
    let mut sections = Vec::with_capacity(count);
    let mut cursor = table_end as u64;
    for (i, entry) in table.chunks_exact(TABLE_ENTRY).enumerate() {
        let tag: &[u8; 4] = entry[..4].try_into().expect("4 bytes");
        let offset = u64::from_le_bytes(entry[4..12].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(entry[12..20].try_into().expect("8 bytes"));
        let crc = u32::from_le_bytes(entry[20..24].try_into().expect("4 bytes"));
        if tag != &SECTION_TAGS[i] {
            // Distinguish a reordered table from a genuinely absent tag.
            if SECTION_TAGS.iter().any(|t| t == tag) {
                return Err(SnapshotError::Corrupt("section table out of order"));
            }
            return Err(SnapshotError::MissingSection {
                section: SECTION_TAGS[i],
            });
        }
        if offset != cursor {
            return Err(SnapshotError::Corrupt("sections not contiguous"));
        }
        let end = offset
            .checked_add(len)
            .ok_or(SnapshotError::Corrupt("section bounds overflow"))?;
        if end > bytes.len() as u64 {
            return Err(SnapshotError::Truncated);
        }
        let payload = &bytes[offset as usize..end as usize];
        if crc32(payload) != crc {
            return Err(SnapshotError::SectionChecksum { section: *tag });
        }
        sections.push((tag, payload));
        cursor = end;
    }
    if cursor != bytes.len() as u64 {
        return Err(SnapshotError::Corrupt("trailing bytes after last section"));
    }
    Ok(sections)
}

// ---------------------------------------------------------------------------
// The snapshot value itself.
// ---------------------------------------------------------------------------

/// An in-memory snapshot: a data graph with its cached profile and the
/// plans a session built for it.
#[derive(Debug, Clone)]
pub struct Snapshot {
    graph: Graph,
    plans: Vec<Arc<QueryPlan>>,
}

impl Snapshot {
    /// A snapshot of `data` alone (profile computed now if not cached);
    /// no plans.
    pub fn new(data: &Graph) -> Snapshot {
        let _ = data.profile();
        Snapshot {
            graph: data.clone(),
            plans: Vec::new(),
        }
    }

    /// Captures `data` plus every plan `session` currently retains,
    /// emitting a `snapshot`/`save` trace event on the session's device.
    pub fn capture(data: &Graph, session: &ExecSession<'_>) -> Snapshot {
        let mut snap = Snapshot::new(data);
        snap.plans = session.cached_plans();
        session.device().trace().instant_with(
            EventKind::Snapshot,
            "save",
            &[
                ("plans", Arg::U64(snap.plans.len() as u64)),
                ("vertices", Arg::U64(data.num_vertices() as u64)),
            ],
        );
        snap
    }

    /// The snapshotted data graph (profile pre-installed: calling
    /// [`Graph::profile`] on it never re-profiles).
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Guards a warm start against a graph that has moved on: fails with
    /// [`SnapshotError::StaleGraph`] unless `live` has the same
    /// version-inclusive [`Graph::fingerprint`] as the snapshotted
    /// graph. Because the fingerprint hashes the mutation version along
    /// with the CSR bytes, a batch followed by its exact inverse still
    /// invalidates older snapshots — no edit history is consulted.
    ///
    /// The check is for snapshots held in memory by the process that
    /// captured them (the serving warm-start path). A snapshot decoded
    /// from disk carries version 0 — the wire format predates versioning
    /// — so it validates only against a live graph that has never been
    /// batch-mutated; validation is conservative, never falsely fresh.
    pub fn validate_for(&self, live: &Graph) -> Result<(), SnapshotError> {
        let snapshot = self.graph.fingerprint();
        let live = live.fingerprint();
        if snapshot != live {
            return Err(SnapshotError::StaleGraph { snapshot, live });
        }
        Ok(())
    }

    /// The persisted plans, in cache order (least recently used first).
    pub fn plans(&self) -> &[Arc<QueryPlan>] {
        &self.plans
    }

    /// Serializes to the version-2 container format. Canonical: decoding
    /// and re-encoding reproduces the bytes exactly.
    pub fn encode(&self) -> Vec<u8> {
        let meta = Meta {
            vertices: self.graph.num_vertices() as u64,
            arcs: self.graph.num_edges() as u64,
            symmetric: self.graph.is_symmetric(),
            labeled: self.graph.is_labeled(),
            plan_count: self.plans.len() as u32,
        };
        let sections: [([u8; 4], Vec<u8>); 4] = [
            (*b"META", encode_meta(&meta)),
            (*b"GRPH", encode_graph(&self.graph)),
            (*b"PROF", encode_profile(&self.graph.profile())),
            (*b"PLNS", encode_plans(&self.plans)),
        ];
        let mut table = Vec::with_capacity(sections.len() * TABLE_ENTRY);
        let mut offset = (TABLE_START + sections.len() * TABLE_ENTRY) as u64;
        for (tag, payload) in &sections {
            table.extend_from_slice(tag);
            put_u64(&mut table, offset);
            put_u64(&mut table, payload.len() as u64);
            put_u32(&mut table, crc32(payload));
            offset += payload.len() as u64;
        }
        let mut out = Vec::with_capacity(offset as usize);
        out.extend_from_slice(&SNAPSHOT_MAGIC);
        put_u32(&mut out, SNAPSHOT_VERSION);
        put_u32(&mut out, sections.len() as u32);
        put_u32(&mut out, crc32(&table));
        out.extend_from_slice(&table);
        for (_, payload) in &sections {
            out.extend_from_slice(payload);
        }
        out
    }

    /// Decodes a container, verifying every checksum and structural
    /// invariant, and installs the decoded profile into the graph's
    /// cache (so no consumer ever re-profiles it).
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
        let sections = parse_container(bytes)?;
        let meta = decode_meta(sections[0].1)?;
        let graph = decode_graph(sections[1].1)?;
        let profile = decode_profile(sections[2].1)?;
        let plans = decode_plans(sections[3].1)?;
        if profile.vertices != graph.num_vertices() || profile.labeled != graph.is_labeled() {
            return Err(SnapshotError::Corrupt("profile does not match graph"));
        }
        if meta.vertices != graph.num_vertices() as u64
            || meta.arcs != graph.num_edges() as u64
            || meta.symmetric != graph.is_symmetric()
            || meta.labeled != graph.is_labeled()
            || meta.plan_count as usize != plans.len()
        {
            return Err(SnapshotError::Corrupt("meta disagrees with sections"));
        }
        let graph = graph.with_cached_profile(Arc::new(profile));
        Ok(Snapshot { graph, plans })
    }

    /// Writes the encoded snapshot to `path`.
    pub fn write_to(&self, path: impl AsRef<Path>) -> Result<(), CutsError> {
        let path = path.as_ref();
        std::fs::write(path, self.encode())
            .map_err(|e| CutsError::io(path.display().to_string(), e))
    }

    /// Reads and decodes a snapshot file.
    pub fn read_from(path: impl AsRef<Path>) -> Result<Snapshot, CutsError> {
        let path = path.as_ref();
        let bytes =
            std::fs::read(path).map_err(|e| CutsError::io(path.display().to_string(), e))?;
        Ok(Snapshot::decode(&bytes)?)
    }
}

/// One section-table row, as [`inspect`] reports it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Four-byte ASCII tag.
    pub tag: [u8; 4],
    /// Payload length in bytes.
    pub len: u64,
    /// Payload CRC-32 (already verified).
    pub crc: u32,
}

/// Header-level description of a snapshot (`cuts snapshot inspect`).
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotInfo {
    /// Container format version.
    pub version: u32,
    /// Verified sections in file order.
    pub sections: Vec<SectionInfo>,
    /// Data-graph vertex count.
    pub vertices: u64,
    /// Data-graph stored-arc count.
    pub arcs: u64,
    /// Whether the data graph was symmetrised from an undirected input.
    pub symmetric: bool,
    /// Whether the data graph carries vertex labels.
    pub labeled: bool,
    /// Persisted plan count.
    pub plans: u32,
    /// Total file size in bytes.
    pub total_bytes: u64,
}

/// Verifies the container (magic, version, all checksums) and summarises
/// it from the table and `META` section without decoding the payloads.
pub fn inspect(bytes: &[u8]) -> Result<SnapshotInfo, SnapshotError> {
    let sections = parse_container(bytes)?;
    let meta = decode_meta(sections[0].1)?;
    Ok(SnapshotInfo {
        version: SNAPSHOT_VERSION,
        sections: sections
            .iter()
            .map(|(tag, payload)| SectionInfo {
                tag: **tag,
                len: payload.len() as u64,
                crc: crc32(payload),
            })
            .collect(),
        vertices: meta.vertices,
        arcs: meta.arcs,
        symmetric: meta.symmetric,
        labeled: meta.labeled,
        plans: meta.plan_count,
        total_bytes: bytes.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cuts_gpu_sim::{Device, DeviceConfig};
    use cuts_graph::generators::{clique, erdos_renyi, mesh2d};

    fn sample_snapshot() -> Snapshot {
        let data = mesh2d(4, 4);
        let device = Device::new(DeviceConfig::test_small());
        let session = ExecSession::new(&device, EngineConfig::default());
        session.run(&data, &clique(3)).unwrap();
        session
            .run(&data, &cuts_graph::generators::chain(3))
            .unwrap();
        Snapshot::capture(&data, &session)
    }

    #[test]
    fn crc32_known_vectors() {
        // The IEEE check value: CRC-32 of "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn container_roundtrip_and_byte_stability() {
        let snap = sample_snapshot();
        let enc = snap.encode();
        let back = Snapshot::decode(&enc).unwrap();
        assert_eq!(back.plans().len(), 2);
        assert_eq!(back.graph().num_vertices(), 16);
        for (a, b) in snap.plans().iter().zip(back.plans()) {
            assert_eq!(**a, **b);
        }
        assert_eq!(back.encode(), enc, "decode→encode must be byte-stable");
    }

    #[test]
    fn decoded_profile_is_installed_not_rebuilt() {
        let snap = sample_snapshot();
        let back = Snapshot::decode(&snap.encode()).unwrap();
        let before = cuts_graph::profile::profile_builds();
        let p = back.graph().profile();
        assert_eq!(cuts_graph::profile::profile_builds(), before);
        assert_eq!(*p, *snap.graph().profile());
    }

    #[test]
    fn labeled_directed_graph_roundtrip() {
        let g =
            Graph::directed(5, &[(0, 1), (1, 2), (3, 1), (4, 0)]).with_labels(vec![0, 1, 2, 0, 1]);
        let back = decode_graph(&encode_graph(&g)).unwrap();
        assert_eq!(back.num_vertices(), 5);
        assert!(!back.is_symmetric());
        assert_eq!(back.label(2), Some(2));
        assert!(back.has_edge(3, 1) && !back.has_edge(1, 3));
        assert_eq!(encode_graph(&back), encode_graph(&g));
    }

    #[test]
    fn profile_codec_roundtrip() {
        let g = erdos_renyi(40, 120, 5);
        let p = g.profile();
        let back = decode_profile(&encode_profile(&p)).unwrap();
        assert_eq!(back, *p);
    }

    #[test]
    fn plan_codec_rejects_tampered_fingerprints() {
        let snap = sample_snapshot();
        let mut rec = encode_plan(&snap.plans()[0]);
        // Flip a bit in the stored config fingerprint (bytes 8..16).
        rec[8] ^= 1;
        assert_eq!(
            decode_plan(&rec),
            Err(SnapshotError::Corrupt("config fingerprint mismatch"))
        );
    }

    #[test]
    fn every_prefix_of_a_container_errors() {
        let enc = sample_snapshot().encode();
        for cut in 0..enc.len() {
            assert!(Snapshot::decode(&enc[..cut]).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn bad_magic_and_version_are_typed() {
        let enc = sample_snapshot().encode();
        let mut bad = enc.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            Snapshot::decode(&bad),
            Err(SnapshotError::BadMagic)
        ));
        let mut bumped = enc.clone();
        bumped[8..12].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bumped),
            Err(SnapshotError::UnsupportedVersion { found: 3 })
        ));
    }

    #[test]
    fn inspect_summarises_without_decoding() {
        let snap = sample_snapshot();
        let info = inspect(&snap.encode()).unwrap();
        assert_eq!(info.version, 2);
        assert_eq!(info.vertices, 16);
        assert_eq!(info.plans, 2);
        assert!(info.symmetric);
        assert!(!info.labeled);
        let tags: Vec<[u8; 4]> = info.sections.iter().map(|s| s.tag).collect();
        assert_eq!(tags, SECTION_TAGS.to_vec());
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("cuts-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.snap");
        let snap = sample_snapshot();
        snap.write_to(&path).unwrap();
        let back = Snapshot::read_from(&path).unwrap();
        assert_eq!(back.encode(), snap.encode());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = Snapshot::read_from("/nonexistent/cuts.snap").unwrap_err();
        assert!(matches!(err, CutsError::Io { .. }));
    }

    #[test]
    fn validate_for_rejects_batch_mutated_graph() {
        use cuts_graph::EdgeBatch;
        let mut data = erdos_renyi(30, 80, 5);
        let snap = Snapshot::new(&data);
        snap.validate_for(&data).unwrap();

        // Mutate: the snapshot must now be rejected.
        let (u, v) = {
            let mut pick = (0, 1);
            'outer: for a in 0..30u32 {
                for b in (a + 1)..30u32 {
                    if !data.has_edge(a, b) {
                        pick = (a, b);
                        break 'outer;
                    }
                }
            }
            pick
        };
        let mut b = EdgeBatch::new();
        b.insert(u, v);
        data.apply_batch(&b).unwrap();
        let err = snap.validate_for(&data).unwrap_err();
        assert!(matches!(err, SnapshotError::StaleGraph { .. }));

        // Exact inverse restores the CSR bytes but not the version, so
        // the stale verdict sticks — no history is needed to be safe.
        let mut b = EdgeBatch::new();
        b.delete(u, v);
        data.apply_batch(&b).unwrap();
        assert!(matches!(
            snap.validate_for(&data),
            Err(SnapshotError::StaleGraph { .. })
        ));

        // A snapshot captured *after* the edits validates.
        let fresh = Snapshot::new(&data);
        fresh.validate_for(&data).unwrap();
    }
}
