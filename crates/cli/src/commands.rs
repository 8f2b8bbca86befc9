//! Command implementations.

use cuts_baseline::{vf2, GsiEngine, GunrockEngine};
use cuts_core::prelude::*;
use cuts_core::{job, IntersectStrategy, SessionStats};
use cuts_dist::{run as dist_run, DistConfig, FaultPlan, Partition};
use cuts_gpu_sim::{Device, DeviceConfig};
use cuts_graph::generators::{chain, clique, cycle, star};
use cuts_graph::labels::{degree_band_labels, random_labels, zipf_labels};
use cuts_graph::stats::{degree_histogram, stats};
use cuts_graph::{edgelist, query_set, Dataset, EdgeBatch, Graph, Scale, VertexId};
use cuts_obs::flight::{self, FlightEvent};
use cuts_obs::{
    chrome_trace, jsonl, reuse_pct, EventKind, JournalSummary, Json, ToJson, Trace, TraceConfig,
};

use crate::args::{Command, DataSource, MatchOpts, ServeOpts, SnapshotBuildOpts, WatchOpts, USAGE};
use std::borrow::Cow;
use std::io::{self, Write};
use std::sync::Arc;

/// Top-level command error: the workspace's unified [`CutsError`].
pub type CmdError = CutsError;

/// Shorthand for flag/spec rejections.
fn invalid(what: &'static str, given: impl Into<String>) -> CmdError {
    CutsError::Invalid {
        what,
        given: given.into(),
    }
}

/// Executes a parsed command.
pub fn run(cmd: Command) -> Result<(), CmdError> {
    match cmd {
        Command::Help => {
            println!("{USAGE}");
            Ok(())
        }
        Command::Queries { n, top } => {
            for q in query_set(n, top) {
                let edges: Vec<_> = q.graph.edges().filter(|(u, v)| u < v).collect();
                println!("{}: {} edges {:?}", q.name, q.num_edges, edges);
            }
            Ok(())
        }
        Command::Stats { data, directed } => {
            let g = load(&data, directed)?;
            let s = stats(&g);
            println!("vertices:        {}", s.vertices);
            println!("arcs:            {}", s.arcs);
            println!("input edges:     {}", s.input_edges);
            println!("max out-degree:  {}", s.max_out_degree);
            println!("max in-degree:   {}", s.max_in_degree);
            println!("avg out-degree:  {:.3}", s.avg_out_degree);
            println!("p99 out-degree:  {}", s.p99_out_degree);
            let hist = degree_histogram(&g);
            println!("degree histogram (pow-2 buckets): {hist:?}");
            Ok(())
        }
        Command::Match(opts) => run_match(&opts, false),
        Command::Profile(opts) => run_match(&opts, true),
        Command::Serve(opts) => match run_serve(&opts) {
            Ok(()) => Ok(()),
            Err(e) => {
                // Any error escaping serve is a serving incident: freeze
                // the recorder's last events for post-mortem analysis.
                Trace::disabled().instant(EventKind::Fault, "serve_error");
                if let Some(p) = flight::postmortem("serve_error") {
                    eprintln!("flight recorder: post-mortem written to {}", p.display());
                }
                Err(e)
            }
        },
        Command::Watch(opts) => run_watch(&opts),
        Command::SnapshotBuild(opts) => run_snapshot_build(&opts),
        Command::SnapshotInspect { path } => run_snapshot_inspect(&path),
        Command::Top { path } => run_top(&path),
        Command::Flight { path } => run_flight(&path),
    }
}

/// Resolves a data source into a graph.
fn load(src: &DataSource, directed: bool) -> Result<Graph, CmdError> {
    match src {
        DataSource::File(path) => Ok(if directed {
            edgelist::load_directed(path)?
        } else {
            edgelist::load_undirected(path)?
        }),
        DataSource::Dataset { name, scale } => {
            let ds = Dataset::ALL
                .into_iter()
                .find(|d| d.name().eq_ignore_ascii_case(name))
                .ok_or_else(|| invalid("dataset", name.to_lowercase()))?;
            let sc = match scale.as_str() {
                "tiny" => Scale::Tiny,
                "small" => Scale::Small,
                "medium" => Scale::Medium,
                "paper" => Scale::Paper,
                other => return Err(invalid("scale", other)),
            };
            Ok(ds.generate(sc))
        }
        // Decode the stored graph (profile included); `directed` is
        // ignored — orientation travels inside the container.
        DataSource::Snapshot(path) => Ok(Snapshot::read_from(path)?.graph().clone()),
    }
}

/// Parses a query spec (`clique:K` etc. or a file path).
fn load_query(spec: &str, directed: bool) -> Result<Graph, CmdError> {
    if let Some((kind, k)) = spec.split_once(':') {
        let k: usize = k.parse().map_err(|_| invalid("query size", spec))?;
        if !(1..=12).contains(&k) {
            return Err(invalid("query size (must be 1..=12)", spec));
        }
        return Ok(match kind {
            "clique" => clique(k),
            "chain" => chain(k),
            "cycle" => cycle(k),
            "star" => star(k),
            other => return Err(invalid("query kind", other)),
        });
    }
    load(&DataSource::File(spec.to_string()), directed)
}

fn device_config(name: &str) -> Result<DeviceConfig, CmdError> {
    Ok(match name {
        "v100" => DeviceConfig::v100_like(),
        "a100" => DeviceConfig::a100_like(),
        "test" => DeviceConfig::test_small(),
        other => return Err(invalid("device", other)),
    })
}

/// Attaches labels per the `--labels` spec to both graphs (same label
/// alphabet, deterministic seeds).
fn apply_labels(spec: &str, data: Graph, query: Graph) -> Result<(Graph, Graph), CmdError> {
    let nd = data.num_vertices();
    let nq = query.num_vertices();
    let (dl, ql) = if let Some((kind, k)) = spec.split_once(':') {
        let k: u32 = k.parse().map_err(|_| invalid("label count", spec))?;
        if k == 0 {
            return Err(invalid("label count (must be positive)", spec));
        }
        match kind {
            "random" => (random_labels(nd, k, 11), random_labels(nq, k, 13)),
            "zipf" => (zipf_labels(nd, k, 11), zipf_labels(nq, k, 13)),
            other => return Err(invalid("label scheme", other)),
        }
    } else if spec == "bands" {
        (degree_band_labels(&data, 8), degree_band_labels(&query, 8))
    } else {
        return Err(invalid("label spec", spec));
    };
    Ok((data.with_labels(dl), query.with_labels(ql)))
}

/// Maps the `--partition` flag to the worker enum.
fn partition_of(spec: &str) -> Result<Partition, CmdError> {
    Ok(match spec {
        "round-robin" => Partition::RoundRobin,
        "block" => Partition::Block,
        "all-to-zero" => Partition::AllToRankZero,
        other => return Err(invalid("partition", other)),
    })
}

fn intersect_of(spec: &str) -> Result<IntersectStrategy, CmdError> {
    Ok(match spec {
        "auto" => IntersectStrategy::Auto,
        "c" => IntersectStrategy::CIntersection,
        "p" => IntersectStrategy::PIntersection,
        "bitmap" => IntersectStrategy::Bitmap,
        other => return Err(invalid("intersect", other)),
    })
}

/// `cuts match` / `cuts profile`. With `--snapshot` the container
/// supplies the data graph (its profile installed, so ingestion and
/// profiling are skipped) and its persisted plans seed the session's
/// cache, so a query planned at build time runs with zero plan builds.
fn run_match(opts: &MatchOpts, profile: bool) -> Result<(), CmdError> {
    let snap = match &opts.data {
        DataSource::Snapshot(path) => Some((path, Snapshot::read_from(path)?)),
        _ => None,
    };
    let (data, query) = match &snap {
        Some((path, snap)) => {
            let query = load_query(&opts.query, false)?;
            println!(
                "snapshot: {} vertices / {} arcs, {} plan(s) from {path}",
                snap.graph().num_vertices(),
                snap.graph().num_edges(),
                snap.plans().len()
            );
            (Cow::Borrowed(snap.graph()), query)
        }
        None => {
            let mut data = load(&opts.data, opts.directed)?;
            let mut query = load_query(&opts.query, opts.directed)?;
            if let Some(spec) = &opts.labels {
                (data, query) = apply_labels(spec, data, query)?;
            }
            println!(
                "data: {} vertices / {} arcs; query: {} vertices / {} arcs",
                data.num_vertices(),
                data.num_edges(),
                query.num_vertices(),
                query.num_edges()
            );
            (Cow::Owned(data), query)
        }
    };
    let dev_cfg = device_config(&opts.device)?;
    let engine_cfg = EngineConfig::default()
        .with_chunk_size(opts.chunk)
        .with_intersect(intersect_of(&opts.intersect)?)
        .with_signature_prefilter(!opts.no_prefilter);
    // `profile` always records; `match` only when an output asks for it.
    let trace = if profile || opts.trace_out.is_some() || opts.metrics_out.is_some() {
        Trace::with_config(TraceConfig {
            per_block: opts.trace_per_block,
        })
    } else {
        Trace::disabled()
    };

    if opts.ranks > 1 {
        if opts.engine != "cuts" {
            return Err(invalid("engine for --ranks > 1 (cuts only)", &opts.engine));
        }
        let mut builder = DistConfig::builder()
            .device(dev_cfg)
            .engine(engine_cfg)
            .dist_chunk(opts.chunk)
            .trace(trace.clone())
            .for_ranks(opts.ranks);
        if let Some(spec) = &opts.partition {
            builder = builder.partition(partition_of(spec)?);
        }
        if let Some(spec) = &opts.fault_plan {
            builder = builder.fault_plan(FaultPlan::parse(spec)?);
        }
        if let Some(ms) = opts.rank_timeout_ms {
            builder = builder.rank_timeout(std::time::Duration::from_millis(ms));
        }
        let r = dist_run(&data, &query, opts.ranks, &builder.build()?)?;
        if opts.output == "json" {
            println!("{}", r.to_json().render());
            return finish_trace(&trace, opts, profile, r.total_matches);
        }
        println!("matches: {}", r.total_matches);
        println!(
            "makespan: {:.3} sim-ms over {} ranks (balance {:.2})",
            r.makespan_sim_millis(),
            opts.ranks,
            r.balance_ratio()
        );
        for m in &r.per_rank {
            if m.lost {
                println!(
                    "  rank {}: LOST (work recovered by surviving ranks)",
                    m.rank
                );
                continue;
            }
            println!(
                "  rank {}: {:>10} matches, {:>8.3} sim-ms, {} jobs, {}/{} donations out/in, {} plan build(s) / {} reuse(s)",
                m.rank,
                m.matches,
                m.busy_sim_millis,
                m.jobs_processed,
                m.donations_sent,
                m.donations_received,
                m.plan_builds,
                m.plan_reuses
            );
        }
        if !r.recovery.is_clean() {
            println!(
                "recovery: {} rank(s) lost {:?}, {} chunk(s) reassigned, {} duplicate(s) discarded",
                r.recovery.ranks_lost,
                r.recovery.lost_ranks,
                r.recovery.chunks_reassigned,
                r.recovery.duplicate_chunks
            );
            println!(
                "          {} message(s) dropped, {} delayed; recovered in {:.1} ms",
                r.recovery.messages_dropped,
                r.recovery.messages_delayed,
                r.recovery.recovery_millis
            );
        }
        return finish_trace(&trace, opts, profile, r.total_matches);
    }

    // The distributed builder validates its engine config; this path
    // has no builder, so a bad value is a typed error here.
    engine_cfg.validate(dev_cfg.global_mem_words)?;
    if opts.engine == "vf2" {
        let start = std::time::Instant::now();
        let count = vf2::count(&data, &query);
        println!("matches: {count}");
        println!("cpu wall: {:.3} ms", start.elapsed().as_secs_f64() * 1e3);
        return finish_trace(&trace, opts, profile, count);
    }
    let mut device = Device::new(dev_cfg);
    device.set_trace(trace.clone());
    let (r, stats) = match opts.engine.as_str() {
        "cuts" => {
            let session = match &snap {
                Some((_, snap)) => ExecSession::from_snapshot(&device, engine_cfg, snap),
                None => ExecSession::with_cache_capacity(&device, engine_cfg, opts.plan_cache),
            };
            let r = if opts.enumerate > 0 {
                let mut shown = 0usize;
                session.run_enumerate(&data, &query, &mut |m| {
                    if shown < opts.enumerate {
                        println!("  {m:?}");
                        shown += 1;
                    }
                })?
            } else {
                session.run(&data, &query)?
            };
            (r, Some(session.stats()))
        }
        "gsi" => (GsiEngine::new(&device).run(&data, &query)?, None),
        "gunrock" => (GunrockEngine::new(&device).run(&data, &query)?, None),
        other => return Err(invalid("engine", other)),
    };
    report(&r, stats.as_ref(), &opts.output)?;
    finish_trace(&trace, opts, profile, r.num_matches)
}

/// `cuts snapshot build`: profile a graph, plan each query spec, and
/// persist everything as one versioned, checksummed container.
fn run_snapshot_build(opts: &SnapshotBuildOpts) -> Result<(), CmdError> {
    let data = load(&opts.data, opts.directed)?;
    println!(
        "data: {} vertices / {} arcs",
        data.num_vertices(),
        data.num_edges()
    );
    let dev_cfg = device_config(&opts.device)?;
    let device = Device::new(dev_cfg);
    // The cache must hold every requested plan; capture() persists its
    // contents.
    let session = ExecSession::with_cache_capacity(
        &device,
        EngineConfig::default(),
        16usize.max(opts.queries.len()),
    );
    for spec in &opts.queries {
        let q = load_query(spec, opts.directed)?;
        let plan = session.plan_over(&data, &q)?;
        println!(
            "  planned {spec}: {} level(s), query key {:#018x}",
            plan.len(),
            plan.key.query
        );
    }
    Snapshot::capture(&data, &session).write_to(&opts.out)?;
    // Re-read and verify: a snapshot we cannot inspect is not a snapshot.
    let bytes = std::fs::read(&opts.out).map_err(|e| CutsError::io(&opts.out, e))?;
    let info = cuts_core::snapshot::inspect(&bytes)?;
    println!(
        "snapshot: {} plan(s), {} byte(s) -> {}",
        info.plans, info.total_bytes, opts.out
    );
    Ok(())
}

/// `cuts snapshot inspect`: verify every checksum and describe the
/// container without decoding its payloads.
fn run_snapshot_inspect(path: &str) -> Result<(), CmdError> {
    let bytes = std::fs::read(path).map_err(|e| CutsError::io(path, e))?;
    let info = cuts_core::snapshot::inspect(&bytes)?;
    println!("snapshot: {path}");
    println!("  version:  {}", info.version);
    println!(
        "  graph:    {} vertices / {} arcs ({}, {})",
        info.vertices,
        info.arcs,
        if info.symmetric {
            "undirected"
        } else {
            "directed"
        },
        if info.labeled { "labeled" } else { "unlabeled" }
    );
    println!("  plans:    {}", info.plans);
    println!("  size:     {} byte(s)", info.total_bytes);
    println!("  sections (all checksums verified):");
    for s in &info.sections {
        let tag = std::str::from_utf8(&s.tag).unwrap_or("????");
        println!("    {tag}  {:>8} byte(s)  crc {:#010x}", s.len, s.crc);
    }
    Ok(())
}

/// `cuts serve`: drain a job manifest through the multi-rank serving
/// tier and a serial baseline, report throughput and tail latency, and
/// verify the two executions are byte-identical per job.
fn run_serve(opts: &ServeOpts) -> Result<(), CmdError> {
    let text = std::fs::read_to_string(&opts.jobs).map_err(|e| CutsError::io(&opts.jobs, e))?;
    let mut jobs = job::parse_manifest(&text)?;
    if opts.quick {
        jobs.truncate(jobs.len().div_ceil(2));
    }
    if jobs.is_empty() {
        return Err(invalid("job manifest (no jobs)", &opts.jobs));
    }
    // Warm start: every job matches against the snapshot's graph (whose
    // profile is already installed) and persisted plans seed every rank
    // session's cache.
    let mut warm_plans = Vec::new();
    if let Some(path) = &opts.snapshot {
        let snap = Snapshot::read_from(path)?;
        let shared = Arc::new(snap.graph().clone());
        for job in &mut jobs {
            job.data = Arc::clone(&shared);
        }
        warm_plans = snap.plans().to_vec();
        println!(
            "snapshot: {path} supplies the data graph for all {} job(s); {} plan(s) loaded",
            jobs.len(),
            warm_plans.len()
        );
    }
    // Job lifecycle events (submit/readmit/complete) feed
    // the queue-vs-execution breakdown at the end of the run.
    let trace = Trace::enabled();
    let mut builder = ServeConfig::builder()
        .ranks(opts.ranks)
        .devices_per_rank(opts.devices)
        .lanes(opts.lanes)
        .device_config(device_config(&opts.device)?)
        .queue_capacity(opts.queue)
        .aging(std::time::Duration::from_millis(opts.aging_ms))
        .pacing(opts.pacing)
        .warm_plans(warm_plans)
        .trace(trace.clone())
        .stats_every(opts.stats_every);
    if let Some(spec) = &opts.fault_plan {
        builder = builder.fault_plan(FaultPlan::parse(spec)?);
    }
    if let Some(path) = &opts.stats_out {
        let file = std::fs::File::create(path).map_err(|e| CutsError::io(path, e))?;
        let file = std::sync::Mutex::new(file);
        builder = builder.stats_sink(move |line| {
            use std::io::Write;
            if let Ok(mut f) = file.lock() {
                let _ = writeln!(f, "{line}");
            }
        });
    } else if opts.stats_every > 0 {
        builder = builder.stats_sink(|line| println!("stats: {line}"));
    }
    let tier = ServeTier::new(builder.build()?);
    println!(
        "serve: {} job(s) from {} across {} rank(s) x {} device(s) x {} lane(s)",
        jobs.len(),
        opts.jobs,
        opts.ranks,
        opts.devices,
        opts.lanes
    );

    let serial = tier.run_serial(&jobs)?;
    let timeout = opts.submit_timeout_ms;
    let report = tier.run(|h| {
        for job in jobs.iter().cloned() {
            match timeout {
                // Block until the tier has queue space.
                None => {
                    h.submit_wait(job);
                }
                // Fail fast: a full queue is a typed Busy error (exit 3).
                Some(0) => {
                    h.submit(job)?;
                }
                // Bounded wait: exhaustion is a typed Timeout (exit 4).
                Some(ms) => {
                    h.submit_wait_timeout(job, std::time::Duration::from_millis(ms))?;
                }
            }
        }
        Ok(())
    })?;

    // The tier must be a pure throughput optimisation: per-job results
    // byte-identical to the serial loop at any rank/lane count, even
    // when a fault plan killed ranks mid-stream.
    let mismatched = serial
        .outcomes
        .iter()
        .zip(&report.outcomes)
        .filter(|(a, b)| match (&a.result, &b.result) {
            (Ok(x), Ok(y)) => x.canonical_bytes() != y.canonical_bytes(),
            (Err(_), Err(_)) => false,
            _ => true,
        })
        .count();
    let speedup = if serial.wall_millis > 0.0 {
        report.jobs_per_sec() / serial.jobs_per_sec().max(f64::MIN_POSITIVE)
    } else {
        1.0
    };

    if opts.output == "json" {
        let root = Json::obj([
            ("jobs", Json::U64(jobs.len() as u64)),
            ("ranks", Json::U64(opts.ranks as u64)),
            ("devices", Json::U64(opts.devices as u64)),
            ("lanes", Json::U64(opts.lanes as u64)),
            ("serial", serial.to_json()),
            ("serve", report.to_json()),
            ("speedup", Json::F64(speedup)),
            ("mismatched_jobs", Json::U64(mismatched as u64)),
        ]);
        println!("{}", root.render());
    } else {
        let fmt_pct = |r: &ServeReport, p: f64| {
            let mut v: Vec<f64> = r
                .outcomes
                .iter()
                .map(|o| o.queue_millis + o.exec_millis)
                .collect();
            if v.is_empty() {
                return "-".to_string();
            }
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let idx = ((p / 100.0) * (v.len() - 1) as f64).round() as usize;
            format!("{:.3}", v[idx])
        };
        println!(
            "serial:    {:>8.2} jobs/s  ({:.3} ms wall)",
            serial.jobs_per_sec(),
            serial.wall_millis
        );
        println!(
            "serve:     {:>8.2} jobs/s  ({:.3} ms wall)  speedup {:.2}x",
            report.jobs_per_sec(),
            report.wall_millis,
            speedup
        );
        println!(
            "latency:   p50 {} ms   p99 {} ms (queue + execution)",
            fmt_pct(&report, 50.0),
            fmt_pct(&report, 99.0)
        );
        let s = &report.stats;
        println!(
            "stats:     {} completed / {} failed; {} readmitted",
            s.completed, s.failed, s.readmitted
        );
        if !s.lost_ranks.is_empty() {
            println!(
                "faults:    rank(s) {:?} lost mid-stream; the jobs they had claimed went back to the queue",
                s.lost_ranks
            );
        }
        for (r, n) in s.per_rank_jobs.iter().enumerate() {
            println!("rank {r}:    {n} job(s) committed");
        }
        for (d, (&peak, &budget)) in s
            .peak_reserved_words
            .iter()
            .zip(&s.budget_words)
            .enumerate()
        {
            println!(
                "device {d}:  peak {} of {} budget words reserved ({:.1}%)",
                peak,
                budget,
                100.0 * peak as f64 / budget.max(1) as f64
            );
        }
        print!("{}", slo_table(&report.slo));
        if let Some(p) = &report.postmortem {
            println!("postmortem: {p}  (inspect with `cuts flight`)");
        }
        if mismatched > 0 {
            println!("WARNING: {mismatched} job(s) differ from the serial baseline");
        } else {
            println!(
                "verify:    all {} job result(s) match the serial baseline",
                jobs.len()
            );
        }
        if let Some(journal) = trace.journal() {
            print!(
                "{}",
                JournalSummary::from_events(&journal.snapshot_sorted())
            );
        }
    }
    // One exposition from both registries: per-run job SLO metrics and
    // the tier-lifetime kernel wall-time histograms.
    if let Some(path) = &opts.metrics_out {
        let mut snap = report.telemetry.snapshot();
        snap.extend(&tier.kernel_telemetry().snapshot());
        std::fs::write(path, snap.render()).map_err(|e| CutsError::io(path, e))?;
        println!("metrics: written to {path}");
    }
    if mismatched > 0 {
        return Err(invalid(
            "serve/serial divergence (jobs differing)",
            mismatched.to_string(),
        ));
    }
    Ok(())
}

/// Parses a batch file: one edit per line (`+ u v` inserts the edge,
/// `- u v` deletes it), `---` commits the batch so far, `#` starts a
/// comment. A trailing unterminated batch commits too; empty batches
/// are dropped.
fn parse_batches(text: &str) -> Result<Vec<EdgeBatch>, CmdError> {
    let mut batches = Vec::new();
    let mut cur = EdgeBatch::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line == "---" {
            if !cur.is_empty() {
                batches.push(std::mem::take(&mut cur));
            }
            continue;
        }
        let bad = || invalid("batch line", format!("{}: {}", lineno + 1, raw.trim()));
        let mut parts = line.split_whitespace();
        let op = parts.next().ok_or_else(bad)?;
        let u: VertexId = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        let v: VertexId = parts.next().ok_or_else(bad)?.parse().map_err(|_| bad())?;
        if parts.next().is_some() {
            return Err(bad());
        }
        match op {
            "+" => cur.insert(u, v),
            "-" => cur.delete(u, v),
            _ => return Err(bad()),
        };
    }
    if !cur.is_empty() {
        batches.push(cur);
    }
    Ok(batches)
}

fn run_watch(opts: &WatchOpts) -> Result<(), CmdError> {
    let graph = load(&opts.data, opts.directed)?;
    let text =
        std::fs::read_to_string(&opts.batches).map_err(|e| CutsError::io(&opts.batches, e))?;
    let batches = parse_batches(&text)?;
    if batches.is_empty() {
        return Err(invalid("batch file (no edits)", &opts.batches));
    }

    // A watch tier replicates the live state across ranks so the delta
    // stream survives rank loss; lanes are irrelevant (batches are the
    // unit of work, not jobs).
    let mut builder = ServeConfig::builder()
        .ranks(opts.ranks)
        .lanes(1)
        .device_config(device_config(&opts.device)?);
    if let Some(spec) = &opts.fault_plan {
        builder = builder.fault_plan(FaultPlan::parse(spec)?);
    }
    let tier = ServeTier::new(builder.build()?);
    let mut live = tier.watch(graph);
    let mut watchers = Vec::new();
    for spec in &opts.queries {
        let q = load_query(spec, opts.directed)?;
        watchers.push(live.subscribe(&q)?);
    }
    let json = opts.output == "json";
    if !json {
        println!(
            "watch: {} standing query(ies), {} batch(es), {} rank(s)",
            watchers.len(),
            batches.len(),
            opts.ranks
        );
    }

    let mut added = vec![0u64; watchers.len()];
    let mut removed = vec![0u64; watchers.len()];
    let mut updates_json = Vec::new();
    for batch in &batches {
        live.apply_batch(batch)?;
        for w in &watchers {
            for u in w.drain() {
                let q = u.delta.query.0;
                added[q] += u.delta.added.len() as u64;
                removed[q] += u.delta.removed.len() as u64;
                if json {
                    updates_json.push(Json::obj([
                        ("batch", Json::U64(u.batch)),
                        ("rank", Json::U64(u.rank as u64)),
                        ("query", Json::Str(opts.queries[q].clone())),
                        ("added", Json::U64(u.delta.added.len() as u64)),
                        ("removed", Json::U64(u.delta.removed.len() as u64)),
                        ("dirty_roots", Json::U64(u.delta.dirty_roots as u64)),
                        ("reseeded", Json::U64(u.delta.reseeded as u64)),
                        ("released", Json::U64(u.delta.released_entries as u64)),
                    ]));
                } else {
                    println!(
                        "batch {:>3}  rank {}  {:<12} +{} -{}  ({} arcs anchored, {} seeds, {} trie entries)",
                        u.batch,
                        u.rank,
                        opts.queries[q],
                        u.delta.added.len(),
                        u.delta.removed.len(),
                        u.delta.dirty_roots,
                        u.delta.reseeded,
                        u.delta.released_entries
                    );
                }
            }
        }
    }

    // The incremental path must land on exactly the state a cold run
    // over the final graph produces.
    let mut mismatched = 0usize;
    for w in &watchers {
        if live.match_set(w.query) != live.recompute(w.query)? {
            mismatched += 1;
        }
    }

    if json {
        let queries = Json::arr(opts.queries.iter().enumerate().map(|(i, spec)| {
            Json::obj([
                ("query", Json::Str(spec.clone())),
                (
                    "matches",
                    Json::U64(live.match_set(watchers[i].query).len() as u64),
                ),
                ("added", Json::U64(added[i])),
                ("removed", Json::U64(removed[i])),
            ])
        }));
        let root = Json::obj([
            ("batches", Json::U64(batches.len() as u64)),
            ("ranks", Json::U64(opts.ranks as u64)),
            ("lost_ranks", Json::U64(live.lost_ranks())),
            ("queries", queries),
            ("updates", Json::Arr(updates_json)),
            ("slo", live.slo().to_json()),
            ("verified", Json::Bool(mismatched == 0)),
        ]);
        println!("{}", root.render());
    } else {
        for (i, spec) in opts.queries.iter().enumerate() {
            println!(
                "{:<12} {} match(es) after {} batch(es)  (+{} / -{} streamed)",
                spec,
                live.match_set(watchers[i].query).len(),
                batches.len(),
                added[i],
                removed[i]
            );
        }
        if live.lost_ranks() > 0 {
            println!(
                "faults:    {} rank(s) lost mid-stream; {} still live",
                live.lost_ranks(),
                live.live_ranks()
            );
        }
        print!("{}", slo_table(&live.slo()));
        if mismatched == 0 {
            println!(
                "verify:    all {} standing quer{} match a full recompute",
                watchers.len(),
                if watchers.len() == 1 { "y" } else { "ies" }
            );
        }
    }
    if mismatched > 0 {
        return Err(invalid(
            "watch/recompute divergence (queries differing)",
            mismatched.to_string(),
        ));
    }
    Ok(())
}

/// The per-class SLO block of the serve report: one line per job class
/// with completion counts, queue/exec tail quantiles, and deadline
/// accounting. Empty (no header) when telemetry was off or no job ran.
fn slo_table(slo: &cuts_core::SloReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if slo.classes.is_empty() {
        return out;
    }
    let _ = writeln!(
        out,
        "slo:       {:<12} {:>5} {:>5}  {:>21}  {:>21}  {:>9}",
        "class", "ok", "fail", "queue p50/p95/p99 us", "exec p50/p95/p99 us", "ddl hit/miss"
    );
    for c in &slo.classes {
        let _ = writeln!(
            out,
            "           {:<12} {:>5} {:>5}  {:>21}  {:>21}  {:>6}/{}",
            c.class,
            c.completed,
            c.failed,
            format!("{}/{}/{}", c.queue_us[0], c.queue_us[1], c.queue_us[2]),
            format!("{}/{}/{}", c.exec_us[0], c.exec_us[1], c.exec_us[2]),
            c.deadline_hits,
            c.deadline_misses
        );
    }
    out
}

/// `cuts top`: renders the rolling snapshots a serve run wrote (one
/// JSON object per line, `--stats-every`/`--stats-out`) as a table.
fn run_top(path: &str) -> Result<(), CmdError> {
    let text = std::fs::read_to_string(path).map_err(|e| CutsError::io(path, e))?;
    let mut rows = 0usize;
    println!(
        "{:>8} {:>10} {:>7}  per-class ok/fail, queue/exec p99 us",
        "finished", "wall ms", "denied"
    );
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let j = Json::parse(line).map_err(|e| {
            invalid(
                "stats line (expected --stats-out JSON lines)",
                format!("{path}:{}: {}", i + 1, e.message()),
            )
        })?;
        let u = |key: &str| j.get(key).and_then(Json::as_u64).unwrap_or(0);
        let wall = j.get("wall_millis").and_then(Json::as_f64).unwrap_or(0.0);
        let mut classes = String::new();
        if let Some(arr) = j
            .get("slo")
            .and_then(|s| s.get("classes"))
            .and_then(Json::as_arr)
        {
            for c in arr {
                let g = |key: &str| c.get(key).and_then(Json::as_u64).unwrap_or(0);
                let name = c.get("class").and_then(Json::as_str).unwrap_or("?");
                classes.push_str(&format!(
                    "  {name} {}/{} q{} e{}",
                    g("completed"),
                    g("failed"),
                    g("queue_p99_us"),
                    g("exec_p99_us")
                ));
            }
        }
        println!(
            "{:>8} {:>10.3} {:>7}{classes}",
            u("finished"),
            wall,
            u("growth_denials")
        );
        rows += 1;
    }
    if rows == 0 {
        println!("no snapshots recorded (run serve with --stats-every <n> --stats-out {path})");
    }
    Ok(())
}

/// `cuts flight`: validate a post-mortem dump and summarise what the
/// recorder saw — an event census by `kind/name` plus the tail of the
/// timeline. A reader that closes stdout early (`| head`) ends the
/// output quietly.
fn run_flight(path: &str) -> Result<(), CmdError> {
    let text = std::fs::read_to_string(path).map_err(|e| CutsError::io(path, e))?;
    let (reason, mut events) = flight::parse_dump(&text)
        .map_err(|e| invalid("flight dump", format!("{path}: {}", e.message())))?;
    events.sort_by_key(|e| e.seq);
    until_closed(write_flight(
        &mut io::stdout().lock(),
        path,
        &reason,
        &events,
    ))
}

fn write_flight(
    out: &mut impl Write,
    path: &str,
    reason: &str,
    events: &[FlightEvent<String>],
) -> io::Result<()> {
    writeln!(out, "flight dump: {path}")?;
    writeln!(out, "  reason:  {reason}")?;
    writeln!(out, "  events:  {}", events.len())?;
    let what = |e: &FlightEvent<String>| format!("{}/{}", e.kind.as_str(), e.name);
    let mut census: std::collections::BTreeMap<String, u64> = Default::default();
    for e in events {
        *census.entry(what(e)).or_default() += 1;
    }
    writeln!(out, "  by kind/name:")?;
    for (what, n) in &census {
        writeln!(out, "    {what:<22} {n:>6}")?;
    }
    const TAIL: usize = 16;
    writeln!(out, "  last {} event(s):", events.len().min(TAIL))?;
    for e in &events[events.len().saturating_sub(TAIL)..] {
        let rank = e.rank.map_or("-".to_string(), |r| r.to_string());
        let args: Vec<String> = e.args().map(|(k, v)| format!("{k}={v}")).collect();
        writeln!(
            out,
            "    seq {:>6}  +{:>10} us  rank {rank:>2} lane {:>3}  {:<20} {}",
            e.seq,
            e.ts_us,
            e.lane,
            what(e),
            args.join(" ")
        )?;
    }
    Ok(())
}

/// Maps a write to stdout: a closed reader (`BrokenPipe`) ends the
/// output without an error, any other failure is one.
fn until_closed(written: io::Result<()>) -> Result<(), CmdError> {
    match written {
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => Ok(()),
        other => other.map_err(|e| CutsError::io("stdout", e)),
    }
}

/// Drains the journal and writes the requested artifacts: the trace file
/// (`--trace-out`), the metrics snapshot (`--metrics-out`), and — for the
/// `profile` subcommand — a per-kernel / per-level breakdown on stdout.
fn finish_trace(
    trace: &Trace,
    opts: &MatchOpts,
    profile: bool,
    matches: u64,
) -> Result<(), CmdError> {
    let Some(journal) = trace.journal() else {
        return Ok(());
    };
    let events = journal.snapshot_sorted();
    if let Some(path) = &opts.trace_out {
        let text = match opts.trace_format.as_str() {
            "jsonl" => jsonl(&events),
            _ => chrome_trace(&events),
        };
        std::fs::write(path, text).map_err(|e| CutsError::io(path, e))?;
        println!("trace: {} event(s) written to {path}", events.len());
    }
    let summary = JournalSummary::from_events(&events);
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, summary.metrics(matches).render())
            .map_err(|e| CutsError::io(path, e))?;
        println!("metrics: written to {path}");
    }
    if profile {
        print!("{summary}");
    }
    Ok(())
}

/// Prints a match result: as one JSON tree (session stats, when
/// available, attached as a `"session"` object) or as text.
fn report(r: &MatchResult, stats: Option<&SessionStats>, output: &str) -> Result<(), CmdError> {
    match output {
        "json" => {
            let mut root = r.to_json();
            if let Some(s) = stats {
                root.set("session", s.to_json());
            }
            println!("{}", root.render());
            return Ok(());
        }
        "text" => {}
        other => return Err(invalid("output format", other)),
    }
    println!("matches: {}", r.num_matches);
    println!("paths/depth: {:?}", r.level_counts);
    println!(
        "storage: {} trie words (naive would be {})",
        r.cuts_words(),
        r.naive_words()
    );
    println!(
        "counters: {} dram reads / {} writes, {} atomics, {} instructions",
        r.counters.dram_reads, r.counters.dram_writes, r.counters.atomics, r.counters.instructions
    );
    println!(
        "simulated: {:.3} ms   (host wall {:.3} ms; chunked: {})",
        r.sim_millis, r.wall_millis, r.used_chunking
    );
    if let Some(s) = stats {
        match &s.arena {
            Some(a) => println!(
                "plan: {} built / {} cache hit(s) ({} reused); arena: {} carve(s), {} slab acquire(s), {} words high water",
                s.plans.misses,
                s.plans.hits,
                reuse_pct(s.plans.hits, s.plans.misses),
                a.device_allocs,
                a.slab_acquires(),
                a.high_water_words(),
            ),
            None => println!(
                "plan: {} built / {} cache hit(s) ({} reused); arena: not carved",
                s.plans.misses,
                s.plans.hits,
                reuse_pct(s.plans.hits, s.plans.misses),
            ),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_specs_parse() {
        assert_eq!(load_query("clique:4", false).unwrap().num_vertices(), 4);
        assert_eq!(load_query("chain:6", false).unwrap().num_input_edges(), 5);
        assert!(load_query("hexagon:4", false).is_err());
        assert!(load_query("clique:99", false).is_err());
    }

    #[test]
    fn dataset_names_resolve() {
        let src = DataSource::Dataset {
            name: "roadnet-ca".into(),
            scale: "tiny".into(),
        };
        let g = load(&src, false).unwrap();
        assert!(g.num_vertices() > 100);
        let bad = DataSource::Dataset {
            name: "nope".into(),
            scale: "tiny".into(),
        };
        assert!(load(&bad, false).is_err());
    }

    #[test]
    fn device_names_resolve() {
        assert_eq!(device_config("a100").unwrap().num_sms, 108);
        assert!(device_config("h100").is_err());
    }

    #[test]
    fn end_to_end_match_command() {
        let opts = MatchOpts {
            data: DataSource::Dataset {
                name: "enron".into(),
                scale: "tiny".into(),
            },
            query: "clique:3".into(),
            directed: false,
            device: "test".into(),
            engine: "cuts".into(),
            ranks: 1,
            enumerate: 0,
            chunk: 512,
            labels: None,
            output: "text".into(),
            plan_cache: 16,
            fault_plan: None,
            rank_timeout_ms: None,
            partition: None,
            trace_out: None,
            trace_format: "chrome".into(),
            trace_per_block: false,
            metrics_out: None,
            intersect: "auto".into(),
            no_prefilter: false,
        };
        run_match(&opts, false).unwrap();
        // Distributed path too.
        let opts = MatchOpts { ranks: 2, ..opts };
        run_match(&opts, false).unwrap();
        // Every pinned micro-kernel arm must run end to end.
        for arm in ["c", "p", "bitmap"] {
            let opts = MatchOpts {
                ranks: 1,
                intersect: arm.into(),
                no_prefilter: true,
                ..opts.clone()
            };
            run_match(&opts, false).unwrap();
        }
    }

    #[test]
    fn end_to_end_serve_command() {
        let dir = std::env::temp_dir().join("cuts_cli_serve_test");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("jobs.txt");
        std::fs::write(
            &manifest,
            "mesh:4x4 clique:3 repeat=3\nmesh:4x4 chain:3 priority=2\ner:24:60:7 cycle:4 name=ring\n",
        )
        .unwrap();
        let opts = ServeOpts {
            jobs: manifest.to_string_lossy().into_owned(),
            ranks: 1,
            devices: 1,
            lanes: 2,
            queue: 16,
            aging_ms: 5,
            pacing: 0.0,
            device: "test".into(),
            output: "json".into(),
            snapshot: None,
            stats_every: 0,
            stats_out: None,
            metrics_out: None,
            fault_plan: None,
            submit_timeout_ms: None,
            quick: false,
        };
        run_serve(&opts).unwrap();
        // A manifest with no jobs is a typed error, not a panic.
        std::fs::write(&manifest, "# comments only\n").unwrap();
        assert!(matches!(run_serve(&opts), Err(CutsError::Invalid { .. })));
    }

    #[test]
    fn serve_multi_rank_survives_a_rank_crash() {
        let dir = std::env::temp_dir().join("cuts_cli_serve_ranks_test");
        std::fs::create_dir_all(&dir).unwrap();
        let manifest = dir.join("jobs.txt");
        std::fs::write(
            &manifest,
            "mesh:4x4 clique:3 repeat=4\nmesh:4x4 chain:3 repeat=3\ner:24:60:7 cycle:4 name=ring\n",
        )
        .unwrap();
        // Two ranks, one dies after its first job: the stream must still
        // drain completely, byte-identical to the serial baseline (the
        // in-command verify fails the run otherwise).
        run_serve(&ServeOpts {
            jobs: manifest.to_string_lossy().into_owned(),
            ranks: 2,
            devices: 1,
            lanes: 2,
            queue: 16,
            aging_ms: 5,
            pacing: 20.0,
            device: "test".into(),
            output: "json".into(),
            snapshot: None,
            stats_every: 0,
            stats_out: None,
            metrics_out: None,
            fault_plan: Some("crash:1@1".into()),
            submit_timeout_ms: None,
            quick: false,
        })
        .unwrap();
        // A bounded submit wait on an uncontended queue also drains fine.
        run_serve(&ServeOpts {
            jobs: manifest.to_string_lossy().into_owned(),
            ranks: 2,
            devices: 1,
            lanes: 1,
            queue: 16,
            aging_ms: 5,
            pacing: 0.0,
            device: "test".into(),
            output: "text".into(),
            snapshot: None,
            stats_every: 0,
            stats_out: None,
            metrics_out: None,
            fault_plan: None,
            submit_timeout_ms: Some(5_000),
            quick: false,
        })
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_telemetry_artifacts_end_to_end() {
        let dir = std::env::temp_dir().join("cuts_cli_serve_telemetry_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Post-mortems land here instead of the shared temp dir so the
        // test can enumerate exactly what this run produced.
        std::env::set_var("CUTS_FLIGHT_DIR", &dir);
        let manifest = dir.join("jobs.txt");
        // The er:6:3:1 query is disconnected (6 vertices, 3 edges), so
        // both the serial baseline and the scheduled run fail that job —
        // which must trip the flight recorder's post-mortem dump.
        std::fs::write(
            &manifest,
            "mesh:4x4 clique:3 repeat=4 class=gold\nmesh:4x4 chain:3 class=steel\nmesh:3x3 er:6:3:1 name=bad\n",
        )
        .unwrap();
        let stats_path = dir.join("stats.jsonl");
        let metrics_path = dir.join("metrics.prom");
        run_serve(&ServeOpts {
            jobs: manifest.to_string_lossy().into_owned(),
            ranks: 1,
            devices: 1,
            lanes: 2,
            queue: 16,
            aging_ms: 5,
            pacing: 0.0,
            device: "test".into(),
            output: "text".into(),
            snapshot: None,
            stats_every: 2,
            stats_out: Some(stats_path.to_string_lossy().into_owned()),
            metrics_out: Some(metrics_path.to_string_lossy().into_owned()),
            fault_plan: None,
            submit_timeout_ms: None,
            quick: false,
        })
        .unwrap();
        std::env::remove_var("CUTS_FLIGHT_DIR");
        // Rolling snapshots: JSON lines that `cuts top` renders.
        let stats = std::fs::read_to_string(&stats_path).unwrap();
        assert!(!stats.trim().is_empty(), "rolling snapshots written");
        for line in stats.lines() {
            let j = Json::parse(line).unwrap();
            assert!(j.get("finished").is_some());
            assert!(j.get("slo").is_some());
        }
        run_top(&stats_path.to_string_lossy()).unwrap();
        // Merged exposition: job SLO histograms and kernel wall-time
        // histograms in one scrape, parseable by a real scraper.
        let prom = std::fs::read_to_string(&metrics_path).unwrap();
        cuts_obs::validate_exposition(&prom).unwrap();
        assert!(prom.contains("cuts_job_queue_us"));
        assert!(prom.contains("cuts_job_exec_us"));
        assert!(prom.contains("cuts_kernel_wall_us"));
        assert!(prom.contains("class=\"gold\""));
        // The failed job produced a parseable post-mortem dump.
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("cuts-postmortem-"))
            })
            .collect();
        assert!(!dumps.is_empty(), "job failure wrote a post-mortem dump");
        // Tests running alongside may drop their own post-mortems (a dead
        // rank's) here while the variable is set: take this run's by its
        // reason.
        let (dump, reason, events) = dumps
            .iter()
            .filter_map(|p| {
                let text = std::fs::read_to_string(p).ok()?;
                let (reason, events) = flight::parse_dump(&text).ok()?;
                Some((p, reason, events))
            })
            .find(|(_, reason, _)| reason == "job_failure")
            .expect("a job_failure post-mortem among the dumps");
        assert_eq!(reason, "job_failure");
        assert!(events.iter().any(|e| {
            (e.kind, e.name.as_str(), e.arg("ok")) == (EventKind::Job, "complete", Some(0))
        }));
        run_flight(&dump.to_string_lossy()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A writer whose reader has gone away, or that fails otherwise.
    struct Failing(io::ErrorKind);

    impl Write for Failing {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Err(self.0.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn flight_output_ends_quietly_on_a_closed_pipe() {
        let r = flight::FlightRecorder::new();
        r.record(EventKind::Job, "submit", None, &[]);
        let (_, events) = flight::parse_dump(&r.dump_json("test").render()).unwrap();
        let mut text = Vec::new();
        write_flight(&mut text, "d.json", "test", &events).unwrap();
        let text = String::from_utf8(text).unwrap();
        assert!(text.contains("job/submit"), "{text}");
        let closed = write_flight(&mut Failing(io::ErrorKind::BrokenPipe), "d", "t", &events);
        assert!(until_closed(closed).is_ok());
        let full = write_flight(&mut Failing(io::ErrorKind::StorageFull), "d", "t", &events);
        assert!(matches!(until_closed(full), Err(CutsError::Io { .. })));
    }

    #[test]
    fn top_rejects_garbage_and_flight_rejects_non_dumps() {
        let dir = std::env::temp_dir().join("cuts_cli_top_flight_test");
        std::fs::create_dir_all(&dir).unwrap();
        let bad = dir.join("bad.jsonl");
        std::fs::write(&bad, "not json\n").unwrap();
        assert!(matches!(
            run_top(&bad.to_string_lossy()),
            Err(CutsError::Invalid { .. })
        ));
        assert!(matches!(
            run_flight(&bad.to_string_lossy()),
            Err(CutsError::Invalid { .. })
        ));
        // An empty snapshot file renders the hint, not an error.
        let empty = dir.join("empty.jsonl");
        std::fs::write(&empty, "").unwrap();
        run_top(&empty.to_string_lossy()).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn parse_batches_splits_on_separators_and_rejects_garbage() {
        let text = "\
# warm-up edits
+ 0 4   # diagonal
+ 1 5
---
- 0 4
---
+ 2 6\n";
        let batches = parse_batches(text).unwrap();
        assert_eq!(batches.len(), 3, "trailing unterminated batch commits");
        assert_eq!(batches[0].inserts(), &[(0, 4), (1, 5)]);
        assert_eq!(batches[1].deletes(), &[(0, 4)]);
        assert_eq!(batches[2].inserts(), &[(2, 6)]);
        // Comment-only input and doubled separators produce no batches.
        assert!(parse_batches("# nothing\n---\n---\n").unwrap().is_empty());
        // Malformed lines report their line number.
        for bad in ["* 1 2", "+ 1", "+ 1 2 3", "+ x 2"] {
            let err = parse_batches(bad).unwrap_err();
            assert!(
                matches!(
                    err,
                    CutsError::Invalid {
                        what: "batch line",
                        ..
                    }
                ),
                "{bad}: {err}"
            );
        }
    }

    #[test]
    fn watch_end_to_end_streams_deltas_and_verifies() {
        let dir = std::env::temp_dir().join("cuts_cli_watch_test");
        std::fs::create_dir_all(&dir).unwrap();
        let graph = dir.join("mesh.txt");
        // 2x3 mesh: vertices 0..6, no triangles until the diagonal lands.
        std::fs::write(&graph, "0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n").unwrap();
        let edits = dir.join("edits.txt");
        std::fs::write(&edits, "+ 0 4\n---\n- 0 4\n").unwrap();
        let opts = WatchOpts {
            data: DataSource::File(graph.to_string_lossy().into_owned()),
            queries: vec!["clique:3".into()],
            batches: edits.to_string_lossy().into_owned(),
            ranks: 2,
            directed: false,
            device: "test".into(),
            output: "json".into(),
            fault_plan: Some("crash:0@1".into()),
        };
        run_watch(&opts).unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn slo_table_renders_classes() {
        assert_eq!(slo_table(&cuts_core::SloReport::default()), "");
        let slo = cuts_core::SloReport {
            classes: vec![cuts_core::ClassSlo {
                class: "gold".into(),
                completed: 4,
                failed: 1,
                queue_us: [10, 20, 30],
                exec_us: [100, 200, 300],
                deadline_hits: 3,
                deadline_misses: 1,
            }],
        };
        let table = slo_table(&slo);
        assert!(table.contains("gold"));
        assert!(table.contains("10/20/30"));
        assert!(table.contains("100/200/300"));
    }

    #[test]
    fn end_to_end_snapshot_commands() {
        let dir = std::env::temp_dir().join("cuts_cli_snapshot_test");
        std::fs::create_dir_all(&dir).unwrap();
        let out = dir.join("warm.snap").to_string_lossy().into_owned();
        run_snapshot_build(&SnapshotBuildOpts {
            data: DataSource::Dataset {
                name: "enron".into(),
                scale: "tiny".into(),
            },
            out: out.clone(),
            queries: vec!["clique:3".into(), "chain:3".into()],
            device: "test".into(),
            directed: false,
        })
        .unwrap();
        run_snapshot_inspect(&out).unwrap();
        // Warm match: graph and plan come from the container.
        let opts = MatchOpts {
            data: DataSource::Snapshot(out.clone()),
            query: "clique:3".into(),
            directed: false,
            device: "test".into(),
            engine: "cuts".into(),
            ranks: 1,
            enumerate: 0,
            chunk: 512,
            labels: None,
            output: "text".into(),
            plan_cache: 16,
            fault_plan: None,
            rank_timeout_ms: None,
            partition: None,
            trace_out: None,
            trace_format: "chrome".into(),
            trace_per_block: false,
            metrics_out: None,
            intersect: "auto".into(),
            no_prefilter: false,
        };
        run_match(&opts, false).unwrap();
        // `stats` resolves the snapshot source too.
        run(Command::Stats {
            data: DataSource::Snapshot(out.clone()),
            directed: false,
        })
        .unwrap();
        // Warm serve: every job runs against the snapshot's graph.
        let manifest = dir.join("jobs.txt");
        std::fs::write(&manifest, "mesh:4x4 clique:3 repeat=2\nmesh:4x4 chain:3\n").unwrap();
        run_serve(&ServeOpts {
            jobs: manifest.to_string_lossy().into_owned(),
            ranks: 1,
            devices: 1,
            lanes: 2,
            queue: 16,
            aging_ms: 5,
            pacing: 0.0,
            device: "test".into(),
            output: "json".into(),
            snapshot: Some(out.clone()),
            stats_every: 0,
            stats_out: None,
            metrics_out: None,
            fault_plan: None,
            submit_timeout_ms: None,
            quick: false,
        })
        .unwrap();
        // A corrupt container surfaces as a typed snapshot error.
        let mut bytes = std::fs::read(&out).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let bad = dir.join("bad.snap").to_string_lossy().into_owned();
        std::fs::write(&bad, &bytes).unwrap();
        assert!(matches!(
            run_snapshot_inspect(&bad),
            Err(CutsError::Snapshot(_))
        ));
    }

    /// The single-device path has no config builder; a bad engine value
    /// is a typed error, not a panic inside `EngineConfig`.
    #[test]
    fn single_device_match_validates_engine_config() {
        let opts = MatchOpts {
            data: DataSource::Dataset {
                name: "enron".into(),
                scale: "tiny".into(),
            },
            query: "clique:3".into(),
            directed: false,
            device: "test".into(),
            engine: "cuts".into(),
            ranks: 1,
            enumerate: 0,
            chunk: 0,
            labels: None,
            output: "text".into(),
            plan_cache: 16,
            fault_plan: None,
            rank_timeout_ms: None,
            partition: None,
            trace_out: None,
            trace_format: "chrome".into(),
            trace_per_block: false,
            metrics_out: None,
            intersect: "auto".into(),
            no_prefilter: false,
        };
        assert!(matches!(
            run_match(&opts, false),
            Err(CutsError::Config(ConfigError::Invalid {
                field: "chunk_size",
                ..
            }))
        ));
    }

    #[test]
    fn end_to_end_match_with_fault_plan() {
        let mut opts = MatchOpts {
            data: DataSource::Dataset {
                name: "enron".into(),
                scale: "tiny".into(),
            },
            query: "clique:3".into(),
            directed: false,
            device: "test".into(),
            engine: "cuts".into(),
            ranks: 2,
            enumerate: 0,
            chunk: 64,
            labels: None,
            output: "text".into(),
            plan_cache: 16,
            fault_plan: Some("crash:1@0, drop:0->1@2".into()),
            rank_timeout_ms: Some(40),
            partition: None,
            trace_out: None,
            trace_format: "chrome".into(),
            trace_per_block: false,
            metrics_out: None,
            intersect: "auto".into(),
            no_prefilter: false,
        };
        run_match(&opts, false).unwrap();
        // The distributed config goes through its validating builder:
        // values it refuses never reach a run.
        opts.rank_timeout_ms = Some(0);
        assert!(matches!(
            run_match(&opts, false),
            Err(CutsError::Config(ConfigError::Invalid {
                field: "rank_timeout",
                ..
            }))
        ));
        opts.rank_timeout_ms = Some(40);
        opts.fault_plan = Some("crash:2@0".into());
        assert!(run_match(&opts, false).is_err(), "rank 2 of 2 is refused");
    }
}
