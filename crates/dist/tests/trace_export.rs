//! Golden-file tests for the tracing layer: end-to-end runs (single-node
//! engine, 1-rank and 4-rank distributed) must export well-formed Chrome
//! `trace_event` JSON — balanced `B`/`E` pairs, required fields, one
//! process track per rank — with a rich event-kind census and per-span
//! hardware-counter deltas. And the whole layer must be free when off:
//! a disabled `Trace` holds no journal, journals nothing, and leaves the
//! match results identical to an untraced run.

use cuts_core::{EngineConfig, ExecSession};
use cuts_dist::{run, DistConfig, Partition};
use cuts_gpu_sim::{Device, DeviceConfig};
use cuts_graph::generators::{barabasi_albert, clique, erdos_renyi};
use cuts_obs::{chrome_trace, jsonl, validate_chrome, EventKind, Json, Trace, TraceConfig};

fn cfg() -> DistConfig {
    DistConfig {
        device: DeviceConfig::test_small(),
        dist_chunk: 8,
        ..Default::default()
    }
}

#[test]
fn single_node_trace_exports_valid_chrome_json() {
    let trace = Trace::enabled();
    let data = erdos_renyi(60, 240, 17);
    let query = clique(3);
    let mut device = Device::new(DeviceConfig::test_small());
    device.set_trace(trace.clone());
    let r = ExecSession::new(&device, EngineConfig::default())
        .run(&data, &query)
        .unwrap();
    assert!(r.num_matches > 0);

    let events = trace.journal().unwrap().snapshot_sorted();
    let text = chrome_trace(&events);
    let s = validate_chrome(&text).unwrap();
    assert!(s.spans > 0 && s.instants > 0, "{s:?}");
    // Per-span hardware-counter deltas survive export (kernel spans).
    assert!(s.counter_spans > 0, "{s:?}");
    // Single-node: everything on the "local" process track (pid 0).
    assert_eq!(s.pids.iter().copied().collect::<Vec<_>>(), vec![0]);
    // Engine + device instrumentation alone yields a rich census.
    for cat in ["arena", "kernel", "level", "plan", "run", "trie"] {
        assert!(s.categories.contains(cat), "missing {cat}: {s:?}");
    }
}

#[test]
fn distributed_trace_exports_valid_chrome_json_across_ranks() {
    let data = barabasi_albert(80, 3, 7);
    let query = clique(3);
    for ranks in [1, 4] {
        let trace = Trace::enabled();
        let mut c = cfg();
        if ranks > 1 {
            // Skew the initial partition so donations (and their events)
            // actually happen.
            c.partition = Partition::AllToRankZero;
            c.dist_chunk = 4;
        }
        c.trace = trace.clone();
        let r = run(&data, &query, ranks, &c).unwrap();
        assert!(r.total_matches > 0);

        let events = trace.journal().unwrap().snapshot_sorted();
        let text = chrome_trace(&events);
        let s = validate_chrome(&text).unwrap();
        assert!(s.counter_spans > 0, "ranks={ranks}: {s:?}");
        // One process per rank plus the local driver lane for the
        // enclosing `distributed` span: pids {0, 1..=ranks}.
        assert_eq!(s.pids.len(), ranks + 1, "ranks={ranks}: {s:?}");
        assert!(s.pids.contains(&0) && s.pids.contains(&(ranks as u64)));
        // The acceptance bar: at least six distinct event kinds.
        assert!(
            s.categories.len() >= 6,
            "ranks={ranks}: only {:?}",
            s.categories
        );
        for cat in ["chunk", "kernel", "level", "run"] {
            assert!(s.categories.contains(cat), "ranks={ranks}: missing {cat}");
        }
        if ranks > 1 {
            assert!(s.categories.contains("donation"), "{:?}", s.categories);
            assert!(s.categories.contains("heartbeat"), "{:?}", s.categories);
        }
    }
}

#[test]
fn jsonl_export_is_line_delimited_parseable_json() {
    let trace = Trace::enabled();
    let data = erdos_renyi(50, 200, 23);
    let c = DistConfig {
        trace: trace.clone(),
        ..cfg()
    };
    run(&data, &clique(3), 2, &c).unwrap();
    let events = trace.journal().unwrap().snapshot_sorted();
    let text = jsonl(&events);
    let lines: Vec<_> = text.lines().collect();
    assert_eq!(lines.len(), events.len());
    for line in &lines {
        let o = Json::parse(line).expect(line);
        for key in ["kind", "name", "ts_us"] {
            assert!(o.get(key).is_some(), "{line}");
        }
    }
}

#[test]
fn disabled_tracing_is_free_and_changes_nothing() {
    let data = erdos_renyi(60, 240, 17);
    let query = clique(3);

    // Zero-overhead contract: a disabled trace holds no journal, and its
    // spans never record — the instrumentation call sites allocate
    // nothing on this path.
    let off = Trace::disabled();
    assert!(off.journal().is_none());
    assert!(!off.span(EventKind::Run, "run").is_recording());
    off.instant(EventKind::Heartbeat, "free"); // reaches the flight ring only

    // Single node: traced and untraced runs agree on every deterministic
    // output field (wall_millis is host time and may differ).
    let plain_dev = Device::new(DeviceConfig::test_small());
    let plain = ExecSession::new(&plain_dev, EngineConfig::default())
        .run(&data, &query)
        .unwrap();
    let traced = Trace::with_config(TraceConfig { per_block: true });
    let mut traced_dev = Device::new(DeviceConfig::test_small());
    traced_dev.set_trace(traced.clone());
    let t = ExecSession::new(&traced_dev, EngineConfig::default())
        .run(&data, &query)
        .unwrap();
    assert_eq!(plain.num_matches, t.num_matches);
    assert_eq!(plain.level_counts, t.level_counts);
    assert_eq!(plain.order, t.order);
    assert_eq!(plain.used_chunking, t.used_chunking);
    assert_eq!(plain.counters, t.counters);
    assert!(!traced.journal().unwrap().snapshot_sorted().is_empty());

    // Distributed: the config's trace defaults to disabled; a recording
    // trace must not perturb the counts.
    let a = run(&data, &query, 2, &cfg()).unwrap();
    let on = Trace::enabled();
    let traced_cfg = DistConfig {
        trace: on.clone(),
        ..cfg()
    };
    let b = run(&data, &query, 2, &traced_cfg).unwrap();
    assert_eq!(a.total_matches, b.total_matches);
    assert_eq!(a.recovery.is_clean(), b.recovery.is_clean());
}
