//! The traced rounds: spans recorded by the benchmark around every call
//! it makes into a layer, the chrome-trace artifact, and per-layer self
//! time.
//!
//! Span names are `<layer>.<call>`. Events carry no parent id, so
//! nesting comes from interval containment on the benchmark's own
//! thread; a span's self time is its duration minus the part its
//! children cover.

use std::collections::BTreeMap;
use std::path::Path;

use cuts_obs::{chrome_trace, validate_chrome, Event, EventKind, Span, Trace};

/// The benchmark's span recorder. A span is recorded only in a traced
/// round; elsewhere the guard is `None` and costs nothing.
pub struct Tracer {
    trace: Trace,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            trace: Trace::enabled(),
        }
    }

    pub fn span(&self, on: bool, kind: EventKind, name: &str) -> Option<Span> {
        on.then(|| self.trace.span(kind, name))
    }

    /// Every recorded event, in time order.
    pub fn events(&self) -> Vec<Event> {
        self.trace
            .journal()
            .map(|j| j.snapshot_sorted())
            .unwrap_or_default()
    }
}

/// Self time per layer, in ms. Every span comes from the benchmark's
/// own thread, so the spans nest by interval containment.
pub fn self_times(events: &[Event]) -> BTreeMap<String, f64> {
    let mut spans: Vec<(u64, u64, &str)> = events
        .iter()
        .filter_map(|e| e.dur_us.map(|d| (e.ts_us, d, e.name.as_str())))
        .collect();
    // Parents first: earlier start, then longer duration.
    spans.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
    let mut covered = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for i in 0..spans.len() {
        let (start, dur, _) = spans[i];
        while let Some(&top) = stack.last() {
            if spans[top].0 + spans[top].1 >= start + dur {
                break;
            }
            stack.pop();
        }
        if let Some(&parent) = stack.last() {
            covered[parent] += spans[i].1;
        }
        stack.push(i);
    }
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    for (i, &(_, dur, name)) in spans.iter().enumerate() {
        let layer = name.split('.').next().unwrap_or(name);
        *out.entry(layer.to_string()).or_default() += dur.saturating_sub(covered[i]) as f64 / 1e3;
    }
    out
}

/// Events per validated piece of the chrome trace. `validate_chrome`'s
/// parser re-checks the UTF-8 of the rest of its input for every string
/// character, so its time grows with the square of the text: the 19,000
/// spans of a traced `serve-light` run took over a minute in one piece.
const VALIDATE_PIECE: usize = 256;

/// Writes the chrome trace to `path`, checks it with the exporter's own
/// validator, and returns the number of spans it holds. The exporter
/// renders each event on its own (a span as its `B` entry directly
/// followed by its `E`), so the trace is validated in pieces of
/// `VALIDATE_PIECE` events, each exported and checked alone.
pub fn write_chrome(events: &[Event], path: &Path) -> Result<usize, String> {
    let mut spans = 0;
    for piece in events.chunks(VALIDATE_PIECE) {
        let summary = validate_chrome(&chrome_trace(piece))
            .map_err(|e| format!("chrome trace invalid: {e:?}"))?;
        spans += summary.spans;
    }
    let text = chrome_trace(events);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(spans)
}

/// Prints the per-layer self-time table.
pub fn print_self_table(self_ms: &BTreeMap<String, f64>) {
    let total: f64 = self_ms.values().sum();
    eprintln!("per-layer self time (traced rounds):");
    eprintln!("  {:<10} {:>12} {:>8}", "layer", "self_ms", "share");
    for (layer, v) in self_ms {
        let share = if total > 0.0 { v / total } else { 0.0 };
        eprintln!("  {layer:<10} {v:>12.3} {:>7.1}%", share * 100.0);
    }
}
