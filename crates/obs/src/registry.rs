//! Always-on serving metrics: lock-free sharded counters, gauges, and
//! log2-bucketed latency histograms.
//!
//! The [`Journal`](crate::Journal) answers "what happened in this run" —
//! it is lossless, allocates per event, and is meant to be switched on
//! for a profiling session. A [`Registry`] answers "what are my p99s
//! right now": every instrument is a fixed block of atomics, recording
//! is a handful of relaxed `fetch_add`s on a per-lane shard (tens of
//! nanoseconds, no locks, no allocation), and the data is safe to leave
//! on under production traffic forever.
//!
//! Handles ([`Counter`], [`Gauge`], [`Hist`]) are cheap clones of an
//! `Option<Arc<_>>`; a disabled registry hands out empty handles whose
//! record methods are a single `Option` check — the same zero-cost
//! disabled contract as [`Trace`](crate::Trace).
//!
//! Histograms are log2-bucketed with [`HIST_SUB_BUCKETS`] linear
//! sub-buckets per octave, so a reported quantile is off by at most one
//! sub-bucket width (≤ 25% relative error, and exact below
//! [`HIST_SUB_BUCKETS`]); the oracle tests in `tests/histogram.rs` pin
//! the bound down.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::journal::lane;
use crate::json::{Json, ToJson};
use crate::metrics::{MetricKind, MetricsSnapshot};

/// Number of atomic shards per instrument. Threads pick
/// `lane() % SHARDS`, so concurrent recorders almost never hit the same
/// cache line.
pub const REGISTRY_SHARDS: usize = 8;

/// Linear sub-buckets per power-of-two octave (2 significant bits).
pub const HIST_SUB_BUCKETS: usize = 1 << HIST_SUB_BITS;

const HIST_SUB_BITS: u32 = 2;

/// Total histogram buckets: values `0..HIST_SUB_BUCKETS` get exact
/// buckets, then `HIST_SUB_BUCKETS` buckets per octave for octaves
/// `HIST_SUB_BITS..=63`, covering all of `u64`.
pub const HIST_BUCKETS: usize = (64 - HIST_SUB_BITS as usize + 1) * HIST_SUB_BUCKETS;

/// The bucket a value lands in.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < HIST_SUB_BUCKETS as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros();
    let sub = ((v >> (msb - HIST_SUB_BITS)) & (HIST_SUB_BUCKETS as u64 - 1)) as usize;
    ((msb - HIST_SUB_BITS) as usize + 1) * HIST_SUB_BUCKETS + sub
}

/// Inclusive upper bound of a bucket (what quantiles report).
pub fn bucket_upper(idx: usize) -> u64 {
    if idx < HIST_SUB_BUCKETS {
        return idx as u64;
    }
    let octave = (idx / HIST_SUB_BUCKETS - 1) as u32 + HIST_SUB_BITS;
    let sub = (idx % HIST_SUB_BUCKETS) as u64;
    let width = 1u64 << (octave - HIST_SUB_BITS);
    // The topmost bucket's exclusive bound is 2^64; wrapping arithmetic
    // yields the correct inclusive u64::MAX there.
    (1u64 << octave)
        .wrapping_add((sub + 1).wrapping_mul(width))
        .wrapping_sub(1)
}

#[repr(align(64))]
struct PaddedAtomic(AtomicU64);

impl Default for PaddedAtomic {
    fn default() -> Self {
        PaddedAtomic(AtomicU64::new(0))
    }
}

fn label_vec(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    labels
        .iter()
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

#[derive(Debug)]
struct Meta {
    name: String,
    labels: Vec<(String, String)>,
    help: &'static str,
}

struct CounterCore {
    meta: Meta,
    shards: [PaddedAtomic; REGISTRY_SHARDS],
}

/// A monotonically increasing, lane-sharded counter. Disabled handles
/// (from [`Registry::disabled`] or `Counter::default()`) are free.
#[derive(Clone, Default)]
pub struct Counter(Option<Arc<CounterCore>>);

impl Counter {
    /// Adds `n`. One relaxed `fetch_add` on the calling lane's shard.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.shards[lane() as usize % REGISTRY_SHARDS]
                .0
                .fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total (sums the shards).
    pub fn get(&self) -> u64 {
        self.0.as_ref().map_or(0, |c| {
            c.shards.iter().map(|s| s.0.load(Ordering::Relaxed)).sum()
        })
    }

    /// Whether records go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Counter")
            .field("value", &self.get())
            .finish()
    }
}

struct GaugeCore {
    meta: Meta,
    bits: AtomicU64,
}

/// A last-value-wins gauge storing an `f64`. Writes are a single
/// relaxed store.
#[derive(Clone, Default)]
pub struct Gauge(Option<Arc<GaugeCore>>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.bits.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0.0 when disabled).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map_or(0.0, |g| f64::from_bits(g.bits.load(Ordering::Relaxed)))
    }

    /// Whether records go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gauge").field("value", &self.get()).finish()
    }
}

struct HistShard {
    buckets: Box<[AtomicU64; HIST_BUCKETS]>,
    sum: AtomicU64,
    _pad: [u8; 0],
}

impl Default for HistShard {
    fn default() -> Self {
        let buckets: Vec<AtomicU64> = (0..HIST_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        HistShard {
            buckets: buckets.into_boxed_slice().try_into().ok().unwrap(),
            sum: AtomicU64::new(0),
            _pad: [],
        }
    }
}

struct HistCore {
    meta: Meta,
    shards: [HistShard; REGISTRY_SHARDS],
}

impl HistCore {
    fn counts(&self) -> Vec<u64> {
        let mut out = vec![0u64; HIST_BUCKETS];
        for shard in &self.shards {
            for (o, b) in out.iter_mut().zip(shard.buckets.iter()) {
                *o += b.load(Ordering::Relaxed);
            }
        }
        out
    }
}

/// An immutable, merged view of a histogram at one instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    sum: u64,
}

impl HistSnapshot {
    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// The value at quantile `q` in `[0, 1]`: the upper bound of the
    /// bucket holding the `ceil(q·count)`-th smallest sample. `None` on
    /// an empty histogram.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_upper(idx));
            }
        }
        Some(bucket_upper(HIST_BUCKETS - 1))
    }

    /// Mean of recorded values (0.0 when empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum as f64 / n as f64
        }
    }
}

/// A lane-sharded log2 histogram. Recording is two relaxed
/// `fetch_add`s (bucket + sum) on the calling lane's shard.
#[derive(Clone, Default)]
pub struct Hist(Option<Arc<HistCore>>);

impl Hist {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            let shard = &h.shards[lane() as usize % REGISTRY_SHARDS];
            shard.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
            shard.sum.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Merged view across shards.
    pub fn snapshot(&self) -> HistSnapshot {
        match &self.0 {
            Some(h) => HistSnapshot {
                counts: h.counts(),
                sum: h.shards.iter().map(|s| s.sum.load(Ordering::Relaxed)).sum(),
            },
            None => HistSnapshot {
                counts: vec![0; HIST_BUCKETS],
                sum: 0,
            },
        }
    }

    /// Total recorded samples.
    pub fn count(&self) -> u64 {
        self.snapshot().count()
    }

    /// Convenience: [`HistSnapshot::quantile`] on a fresh snapshot.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }

    /// Whether records go anywhere.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist")
            .field("count", &self.count())
            .finish()
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<Vec<Arc<CounterCore>>>,
    gauges: Mutex<Vec<Arc<GaugeCore>>>,
    hists: Mutex<Vec<Arc<HistCore>>>,
}

/// A set of named instruments. Cloning shares the underlying storage;
/// a disabled registry ([`Registry::disabled`], also `Default`) hands
/// out no-op handles and records nothing.
///
/// Instrument lookup (`counter` / `gauge` / `histogram`) takes a lock
/// and is meant for setup paths — hold the returned handle across the
/// hot loop instead of re-resolving per record.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Arc<RegistryInner>>,
}

impl Registry {
    /// A recording registry.
    pub fn enabled() -> Self {
        Registry {
            inner: Some(Arc::new(RegistryInner::default())),
        }
    }

    /// The no-op registry (same as `Registry::default()`).
    pub fn disabled() -> Self {
        Registry::default()
    }

    /// Enabled or disabled, per `on`.
    pub fn with_enabled(on: bool) -> Self {
        if on {
            Registry::enabled()
        } else {
            Registry::disabled()
        }
    }

    /// Whether instruments record.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Gets or creates the counter `name{labels}`.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)], help: &'static str) -> Counter {
        let Some(inner) = &self.inner else {
            return Counter::default();
        };
        let labels = label_vec(labels);
        let mut list = inner.counters.lock().unwrap();
        if let Some(c) = list
            .iter()
            .find(|c| c.meta.name == name && c.meta.labels == labels)
        {
            return Counter(Some(Arc::clone(c)));
        }
        let core = Arc::new(CounterCore {
            meta: Meta {
                name: name.to_string(),
                labels,
                help,
            },
            shards: Default::default(),
        });
        list.push(Arc::clone(&core));
        Counter(Some(core))
    }

    /// Gets or creates the gauge `name{labels}`.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)], help: &'static str) -> Gauge {
        let Some(inner) = &self.inner else {
            return Gauge::default();
        };
        let labels = label_vec(labels);
        let mut list = inner.gauges.lock().unwrap();
        if let Some(g) = list
            .iter()
            .find(|g| g.meta.name == name && g.meta.labels == labels)
        {
            return Gauge(Some(Arc::clone(g)));
        }
        let core = Arc::new(GaugeCore {
            meta: Meta {
                name: name.to_string(),
                labels,
                help,
            },
            bits: AtomicU64::new(0f64.to_bits()),
        });
        list.push(Arc::clone(&core));
        Gauge(Some(core))
    }

    /// Gets or creates the histogram `name{labels}`.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], help: &'static str) -> Hist {
        let Some(inner) = &self.inner else {
            return Hist::default();
        };
        let labels = label_vec(labels);
        let mut list = inner.hists.lock().unwrap();
        if let Some(h) = list
            .iter()
            .find(|h| h.meta.name == name && h.meta.labels == labels)
        {
            return Hist(Some(Arc::clone(h)));
        }
        let core = Arc::new(HistCore {
            meta: Meta {
                name: name.to_string(),
                labels,
                help,
            },
            shards: Default::default(),
        });
        list.push(Arc::clone(&core));
        Hist(Some(core))
    }

    /// Renders every instrument into a typed Prometheus snapshot.
    /// Histograms export as summaries: `quantile`-labelled samples plus
    /// `_sum` / `_count`.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::new();
        let Some(inner) = &self.inner else {
            return snap;
        };
        for c in inner.counters.lock().unwrap().iter() {
            let labels: Vec<(&str, &str)> = c
                .meta
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            snap.push_typed(
                &c.meta.name,
                &labels,
                Counter(Some(Arc::clone(c))).get() as f64,
                MetricKind::Counter,
                c.meta.help,
            );
        }
        for g in inner.gauges.lock().unwrap().iter() {
            let labels: Vec<(&str, &str)> = g
                .meta
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            snap.push_typed(
                &g.meta.name,
                &labels,
                f64::from_bits(g.bits.load(Ordering::Relaxed)),
                MetricKind::Gauge,
                g.meta.help,
            );
        }
        for h in inner.hists.lock().unwrap().iter() {
            let hist = Hist(Some(Arc::clone(h)));
            let s = hist.snapshot();
            let base: Vec<(&str, &str)> = h
                .meta
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            for (q, qs) in [
                (0.5, "0.5"),
                (0.95, "0.95"),
                (0.99, "0.99"),
                (0.999, "0.999"),
            ] {
                let mut labels = base.clone();
                labels.push(("quantile", qs));
                snap.push_typed(
                    &h.meta.name,
                    &labels,
                    s.quantile(q).unwrap_or(0) as f64,
                    MetricKind::Summary,
                    h.meta.help,
                );
            }
            snap.push_typed(
                &format!("{}_sum", h.meta.name),
                &base,
                s.sum() as f64,
                MetricKind::Summary,
                h.meta.help,
            );
            snap.push_typed(
                &format!("{}_count", h.meta.name),
                &base,
                s.count() as f64,
                MetricKind::Summary,
                h.meta.help,
            );
        }
        snap
    }

    /// A compact JSON view of every instrument (the `--stats-every`
    /// snapshot payload): counters and gauges by name, histograms as
    /// `{count, sum, p50, p95, p99, p999}`.
    pub fn to_json(&self) -> Json {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut hists = Vec::new();
        if let Some(inner) = &self.inner {
            for c in inner.counters.lock().unwrap().iter() {
                let mut o = meta_json(&c.meta);
                o.set("value", Counter(Some(Arc::clone(c))).get());
                counters.push(o);
            }
            for g in inner.gauges.lock().unwrap().iter() {
                let mut o = meta_json(&g.meta);
                o.set("value", f64::from_bits(g.bits.load(Ordering::Relaxed)));
                gauges.push(o);
            }
            for h in inner.hists.lock().unwrap().iter() {
                let s = Hist(Some(Arc::clone(h))).snapshot();
                let mut o = meta_json(&h.meta);
                o.set("count", s.count());
                o.set("sum", s.sum());
                o.set("p50", s.quantile(0.5).unwrap_or(0));
                o.set("p95", s.quantile(0.95).unwrap_or(0));
                o.set("p99", s.quantile(0.99).unwrap_or(0));
                o.set("p999", s.quantile(0.999).unwrap_or(0));
                hists.push(o);
            }
        }
        Json::obj([
            ("enabled", Json::Bool(self.is_enabled())),
            ("counters", Json::Arr(counters)),
            ("gauges", Json::Arr(gauges)),
            ("histograms", Json::Arr(hists)),
        ])
    }
}

fn meta_json(meta: &Meta) -> Json {
    let mut o = Json::obj([("name", Json::Str(meta.name.clone()))]);
    if !meta.labels.is_empty() {
        o.set(
            "labels",
            Json::Obj(
                meta.labels
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        );
    }
    o
}

impl ToJson for Registry {
    fn to_json(&self) -> Json {
        Registry::to_json(self)
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_monotone_and_bounded() {
        let mut last = 0usize;
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            5,
            7,
            8,
            15,
            16,
            100,
            1000,
            1 << 20,
            u64::MAX,
        ] {
            let idx = bucket_index(v);
            assert!(idx >= last, "index not monotone at {v}");
            assert!(idx < HIST_BUCKETS);
            assert!(bucket_upper(idx) >= v, "upper bound below value at {v}");
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn small_values_exact() {
        for v in 0..8u64 {
            assert_eq!(bucket_upper(bucket_index(v)), v);
        }
    }

    #[test]
    fn bucket_relative_error_bounded() {
        for shift in 3..63u32 {
            for off in [0u64, 1, 7] {
                let v = (1u64 << shift) + off;
                let up = bucket_upper(bucket_index(v));
                assert!(up >= v);
                // Reported value overshoots by at most one sub-bucket
                // width: 2^(msb-2), i.e. 25% of the value.
                assert!(
                    (up - v) as f64 <= v as f64 * 0.25,
                    "error too large at {v}: reported {up}"
                );
            }
        }
    }

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::enabled();
        let c = r.counter("cuts_test_total", &[("k", "v")], "test");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same (name, labels) resolves to the same storage.
        assert_eq!(r.counter("cuts_test_total", &[("k", "v")], "test").get(), 5);
        let g = r.gauge("cuts_test_gauge", &[], "test");
        g.set(2.5);
        assert_eq!(g.get(), 2.5);
    }

    #[test]
    fn disabled_registry_is_noop() {
        let r = Registry::disabled();
        let c = r.counter("c", &[], "h");
        let g = r.gauge("g", &[], "h");
        let h = r.histogram("h", &[], "h");
        c.inc();
        g.set(1.0);
        h.record(42);
        assert!(!c.is_enabled() && !g.is_enabled() && !h.is_enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        assert!(r.snapshot().is_empty());
    }

    #[test]
    fn histogram_quantiles() {
        let r = Registry::enabled();
        let h = r.histogram("lat", &[], "test");
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.sum(), 5050);
        let p50 = s.quantile(0.5).unwrap();
        // True p50 is 50; bucket upper bound may overshoot by ≤ 25%.
        assert!((50..=63).contains(&p50), "p50 = {p50}");
        assert!(s.quantile(1.0).unwrap() >= 100);
    }

    #[test]
    fn prometheus_snapshot_is_typed() {
        let r = Registry::enabled();
        r.counter("cuts_jobs_total", &[], "jobs").add(3);
        r.histogram("cuts_wait_us", &[("class", "bulk")], "waits")
            .record(10);
        let text = r.snapshot().render();
        assert!(text.contains("# TYPE cuts_jobs_total counter"));
        assert!(text.contains("# TYPE cuts_wait_us summary"));
        assert!(text.contains("cuts_wait_us{class=\"bulk\",quantile=\"0.99\"}"));
        assert!(text.contains("cuts_wait_us_count{class=\"bulk\"} 1"));
    }
}
