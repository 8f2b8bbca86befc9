//! The flight ring is fed by `Trace` instants of the lifecycle kinds,
//! whether the journal is on or not, and by nothing else a trace emits.
//!
//! The ring is process-wide, so these tests share one lock: the
//! `set_enabled(false)` test would otherwise hide another test's records.
//! Each test finds its own records by a unique argument value.

use std::sync::Mutex;

use cuts_obs::flight::{self, FlightEvent, LIFECYCLE};
use cuts_obs::{Arg, EventKind, Trace};

static RING: Mutex<()> = Mutex::new(());

fn tagged(tag: u64) -> Vec<FlightEvent> {
    flight::recorder()
        .snapshot()
        .into_iter()
        .filter(|e| e.args().any(|(_, v)| v == tag))
        .collect()
}

#[test]
fn lifecycle_instant_on_a_disabled_trace_lands_in_the_ring() {
    let _ring = RING.lock().unwrap();
    let tag = 0xfeed_0001;
    let t = Trace::disabled().with_rank(3);
    t.instant_with(
        EventKind::Job,
        "claim",
        &[
            ("job", Arg::U64(tag)),
            ("rank", Arg::U64(3)),
            ("device", Arg::U64(6)),
        ],
    );
    assert!(t.journal().is_none());
    let got = tagged(tag);
    assert_eq!(got.len(), 1, "{got:?}");
    let e = &got[0];
    assert_eq!((e.kind, e.name, e.rank), (EventKind::Job, "claim", Some(3)));
    let args: Vec<_> = e.args().collect();
    assert_eq!(args, [("job", tag), ("rank", 3), ("device", 6)]);
}

#[test]
fn every_lifecycle_kind_feeds_the_ring_and_no_other_does() {
    let _ring = RING.lock().unwrap();
    let tag = 0xfeed_0002;
    let t = Trace::enabled();
    for kind in EventKind::ALL {
        t.instant_with(kind, "probe", &[("tag", Arg::U64(tag))]);
    }
    let mut kinds: Vec<_> = tagged(tag).into_iter().map(|e| e.kind).collect();
    kinds.sort();
    let mut want = LIFECYCLE.to_vec();
    want.sort();
    assert_eq!(kinds, want);
    // The journal still sees every instant.
    assert_eq!(
        t.journal().unwrap().snapshot_sorted().len(),
        EventKind::ALL.len()
    );
    for kind in [EventKind::Arena, EventKind::Level, EventKind::Policy] {
        assert!(!LIFECYCLE.contains(&kind));
    }
}

#[test]
fn spans_never_feed_the_ring() {
    let _ring = RING.lock().unwrap();
    let tag = 0xfeed_0003;
    let t = Trace::enabled();
    let mut s = t.span(EventKind::Job, "bench.job");
    s.arg("tag", Arg::U64(tag));
    s.finish();
    assert!(tagged(tag).is_empty());
}

#[test]
fn disabling_the_recorder_stops_both_kinds_of_push() {
    let _ring = RING.lock().unwrap();
    let tag = 0xfeed_0004;
    let push_both = || {
        Trace::disabled().instant_with(EventKind::Fault, "crash", &[("tag", Arg::U64(tag))]);
        flight::record(EventKind::Kernel, "launch", None, &[("tag", Arg::U64(tag))]);
    };
    flight::set_enabled(false);
    let before = flight::recorder().total_recorded();
    push_both();
    let after = flight::recorder().total_recorded();
    flight::set_enabled(true);
    assert_eq!(before, after);
    assert!(tagged(tag).is_empty());
    push_both();
    assert_eq!(tagged(tag).len(), 2);
}
