//! The emission handle: [`Trace`] and the RAII [`Span`] guard.
//!
//! A `Trace` is a cheap, cloneable handle that is either **disabled**
//! (the default — it holds no journal, and every emission method returns
//! without allocating) or **enabled** (it holds an `Arc<Journal>`).
//! Either way it stamps events with an optional rank tag. Names and
//! argument vectors are only materialised on the enabled branch, so
//! instrumented hot paths allocate nothing when tracing is off — a
//! property the test in `cuts-dist/tests/trace_export.rs` pins down.
//!
//! Instants of the [`flight::LIFECYCLE`] kinds (job, fault, chunk,
//! donation, heartbeat) also land in the always-on flight ring, enabled
//! journal or not: one call records a lifecycle event in both places.

use std::sync::Arc;

use crate::event::{Arg, CounterDelta, Event, EventKind};
use crate::flight;
use crate::journal::{lane, Journal};

/// Tracing configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceConfig {
    /// Emit one kernel span per simulated thread block, on a per-SM lane
    /// (`chrome://tracing` shows one track per SM). Off by default: grids
    /// can be large and this multiplies event volume by the block count.
    /// A traced grid runs every block on the launching thread, in block
    /// order, so the block spans nest inside its kernel span.
    pub per_block: bool,
}

/// A cloneable tracing handle; disabled unless built via
/// [`Trace::enabled`] / [`Trace::with_config`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    journal: Option<Arc<Journal>>,
    rank: Option<u32>,
    config: TraceConfig,
}

impl Trace {
    /// The no-op handle (same as `Trace::default()`).
    pub fn disabled() -> Self {
        Trace::default()
    }

    /// A recording handle over a fresh journal.
    pub fn enabled() -> Self {
        Self::with_config(TraceConfig::default())
    }

    /// A recording handle with explicit configuration.
    pub fn with_config(config: TraceConfig) -> Self {
        Trace {
            journal: Some(Arc::new(Journal::new())),
            rank: None,
            config,
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// The tracing configuration.
    pub fn config(&self) -> TraceConfig {
        self.config
    }

    /// The underlying journal, when enabled.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// A handle stamping every event with `rank` (shares the journal).
    pub fn with_rank(&self, rank: usize) -> Trace {
        Trace {
            journal: self.journal.clone(),
            rank: Some(rank as u32),
            config: self.config,
        }
    }

    /// The rank tag, if set.
    pub fn rank(&self) -> Option<u32> {
        self.rank
    }

    /// Records an instant event.
    pub fn instant(&self, kind: EventKind, name: &'static str) {
        self.instant_with(kind, name, &[]);
    }

    /// Records an instant event with arguments. `args` is borrowed so the
    /// disabled path copies nothing. A [`flight::LIFECYCLE`] kind is also
    /// recorded in the flight ring, with this handle's rank tag.
    pub fn instant_with(&self, kind: EventKind, name: &'static str, args: &[(&'static str, Arg)]) {
        if flight::LIFECYCLE.contains(&kind) {
            flight::record(kind, name, self.rank, args);
        }
        let Some(journal) = &self.journal else {
            return;
        };
        journal.record(Event {
            seq: 0,
            ts_us: journal.now_us(),
            dur_us: None,
            kind,
            name: name.to_string(),
            rank: self.rank,
            lane: lane(),
            args: args.to_vec(),
            counters: None,
        });
    }

    /// Opens a span; the returned guard records one event (with duration)
    /// when finished or dropped. Disabled traces return a no-op guard.
    pub fn span(&self, kind: EventKind, name: &str) -> Span {
        let Some(journal) = &self.journal else {
            return Span { inner: None };
        };
        Span {
            inner: Some(SpanInner {
                journal: Arc::clone(journal),
                start_us: journal.now_us(),
                kind,
                name: name.to_string(),
                rank: self.rank,
                lane_override: None,
                args: Vec::new(),
                counters: None,
            }),
        }
    }
}

struct SpanInner {
    journal: Arc<Journal>,
    start_us: u64,
    kind: EventKind,
    name: String,
    rank: Option<u32>,
    lane_override: Option<u32>,
    args: Vec<(&'static str, Arg)>,
    counters: Option<CounterDelta>,
}

/// RAII span guard: emits a single duration event on drop (or explicit
/// [`Span::finish`]). All mutators are no-ops on a disabled guard.
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// Whether this guard will record an event (false on disabled traces).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Attaches an argument.
    pub fn arg(&mut self, key: &'static str, value: Arg) {
        if let Some(inner) = &mut self.inner {
            inner.args.push((key, value));
        }
    }

    /// Attaches (or replaces) the span's hardware-counter delta.
    pub fn counters(&mut self, delta: CounterDelta) {
        if let Some(inner) = &mut self.inner {
            inner.counters = Some(delta);
        }
    }

    /// Overrides the display lane (per-SM kernel tracks).
    pub fn lane(&mut self, lane: u32) {
        if let Some(inner) = &mut self.inner {
            inner.lane_override = Some(lane);
        }
    }

    /// Ends the span now (drop does the same).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end = inner.journal.now_us();
        inner.journal.record(Event {
            seq: 0,
            ts_us: inner.start_us,
            dur_us: Some(end.saturating_sub(inner.start_us)),
            kind: inner.kind,
            name: inner.name,
            rank: inner.rank,
            lane: inner.lane_override.unwrap_or_else(lane),
            args: inner.args,
            counters: inner.counters,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        assert!(t.journal().is_none());
        t.instant(EventKind::Heartbeat, "beat");
        let mut s = t.span(EventKind::Run, "run");
        assert!(!s.is_recording());
        s.arg("k", Arg::U64(1));
        s.counters(CounterDelta::default());
        s.finish();
        // Nothing observable happened; there is no journal to inspect,
        // which is precisely the zero-allocation guarantee.
    }

    #[test]
    fn span_records_duration_and_payload() {
        let t = Trace::enabled();
        {
            let mut s = t.span(EventKind::Kernel, "expand");
            s.arg("blocks", Arg::U64(4));
            s.counters(CounterDelta {
                atomics: 2,
                ..Default::default()
            });
        }
        let events = t.journal().unwrap().drain_sorted();
        assert_eq!(events.len(), 1);
        let e = &events[0];
        assert_eq!(e.kind, EventKind::Kernel);
        assert_eq!(e.name, "expand");
        assert!(e.dur_us.is_some());
        assert_eq!(e.counters.unwrap().atomics, 2);
        assert!(matches!(e.arg("blocks"), Some(Arg::U64(4))));
    }

    #[test]
    fn rank_tag_propagates() {
        let t = Trace::enabled();
        let r2 = t.with_rank(2);
        r2.instant(EventKind::Heartbeat, "beat");
        t.instant(EventKind::Heartbeat, "beat");
        let events = t.journal().unwrap().drain_sorted();
        assert_eq!(events.len(), 2, "rank handle shares the journal");
        assert!(events.iter().any(|e| e.rank == Some(2)));
        assert!(events.iter().any(|e| e.rank.is_none()));
    }

    #[test]
    fn lane_override_applies() {
        let t = Trace::enabled();
        {
            let mut s = t.span(EventKind::Kernel, "block");
            s.lane(1007);
        }
        let events = t.journal().unwrap().drain_sorted();
        assert_eq!(events[0].lane, 1007);
    }
}
