//! Hand-rolled argument parsing (no CLI dependency).

/// Usage text.
pub const USAGE: &str = "\
cuts — trie-based subgraph isomorphism on a simulated multi-GPU system

USAGE:
  cuts stats   (<edgelist> | --dataset <name> [--scale <s>]) [--directed]
  cuts match   (<edgelist> | --dataset <name> [--scale <s>]) --query <spec>
               [--directed] [--device v100|a100|test] [--engine cuts|gsi|gunrock|vf2]
               [--ranks <n>] [--enumerate <n>] [--chunk <n>] [--plan-cache <n>]
               [--intersect auto|c|p|bitmap] [--no-prefilter]
               [--partition round-robin|block|all-to-zero]
               [--fault-plan <plan>] [--rank-timeout <ms>]
               [--trace-out <path>] [--trace-format chrome|jsonl]
               [--trace-per-block] [--metrics-out <path>]
  cuts profile (same options as match; cuts engine only) — runs with
               tracing on and prints a per-level / per-kernel breakdown
  cuts serve   --jobs <manifest> [--ranks <n>] [--devices <n>] [--lanes <k>]
               [--queue <n>] [--aging <ms>] [--pacing <f>]
               [--device v100|a100|test] [--output text|json]
               [--fault-plan <plan>] [--submit-timeout <ms>]
               [--snapshot <path>] [--stats-every <jobs>]
               [--stats-out <path>] [--metrics-out <path>] [--quick]
  cuts watch   (<edgelist> | --dataset <name> [--scale <s>]) --query <spec[,spec...]>
               --batches <file> [--ranks <n>] [--directed]
               [--device v100|a100|test] [--output text|json]
               [--fault-plan <plan>]
  cuts top     <metrics.jsonl> — renders the rolling snapshots a serve
               run wrote via --stats-every/--stats-out as a table
  cuts flight  <dump.json> — validates and summarises a flight-recorder
               post-mortem dump
  cuts snapshot build (<edgelist> | --dataset <name> [--scale <s>])
               --out <path> [--queries <spec,spec,...>] [--directed]
               [--device v100|a100|test]
  cuts snapshot inspect <path>
  cuts queries [--n <vertices>] [--top <k>]
  cuts help

QUERY SPECS:   clique:K  chain:K  cycle:K  star:K  or a path to an edge list
DATASETS:      enron gowalla roadnet-pa roadnet-tx roadnet-ca wikitalk
SCALES:        tiny small medium paper (default tiny)
LABELS:        --labels random:K | zipf:K | bands  (attach vertex labels to
               both graphs; labelled matching requires label equality)
OUTPUT:        --output text | json (match subcommand)
PLAN CACHE:    --plan-cache <n> bounds the session's LRU of built query
               plans (default 16; 0 disables caching)
INTERSECT:     --intersect pins the intersection micro-kernel (c, p, or
               bitmap) or lets the plan-time policy pick per level from
               data-graph degree statistics (auto, the default);
               --no-prefilter disables the signature index that prunes
               root candidates before the degree test. Results are
               identical across all settings — only counters move
PARTITION:     how root candidates split across ranks (default round-robin;
               all-to-zero stresses the donation protocol)
TRACING:       --trace-out writes the run's event journal: chrome format
               loads in chrome://tracing or https://ui.perfetto.dev, jsonl
               is one event object per line; --trace-per-block adds one
               kernel span per simulated block on per-SM tracks (every
               grid then runs on the calling thread alone);
               --metrics-out writes a Prometheus-style text snapshot
FAULT PLANS:   comma-separated clauses injected into the distributed run:
               crash:R@C panic:R@C drop:A->B@N delay:A->B@N+MS seed:S
               (requires --ranks > 1; --rank-timeout tunes failure detection)
SERVING:       --jobs is a manifest: one `<data> <query> [key=val...]` job
               per line (specs clique:K chain:K cycle:K star:K mesh:WxH
               er:N:M:SEED; options priority= deadline_ms= name= repeat=;
               `#` comments). serve drains it through the serving tier
               and a serial baseline, reporting throughput and p50/p99
               latency; --ranks spreads the stream over simulated
               multi-GPU ranks (idle lanes of every rank pull from one
               queue, a crashed rank's jobs go back in it for the
               survivors); --fault-plan injects
               crash:R@C / panic:R@C mid-stream (rank R dies once C
               jobs are admitted; needs --ranks > 1);
               --queue bounds admission, --submit-timeout bounds the wait
               for queue space (0 = fail fast; full queue exits 3 on
               busy, 4 on timeout), --aging tunes anti-starvation,
               --pacing stretches simulated time onto the host clock
MONITORING:    serving telemetry is always on: serve prints a per-class
               SLO table (queue/exec p50/p95/p99, deadline hit/miss) and
               --metrics-out writes the merged Prometheus exposition
               (job + kernel registries). --stats-every N emits a rolling
               JSON snapshot every N finished jobs — to stdout, or as
               JSON lines to --stats-out for `cuts top`. On a failed job,
               a dead rank, or any error escaping serve, the flight
               recorder dumps its last events to a post-mortem file
               (directory $CUTS_FLIGHT_DIR, default temp); inspect it
               with `cuts flight`
WATCHING:      `watch` serves standing queries over a live graph: each
               --query spec subscribes, then the --batches file streams
               edge edits. One edit per line — `+ u v` inserts, `- u v`
               deletes, `---` commits the batch (`#` comments; a final
               unterminated batch commits too). Each batch is matched
               incrementally (only embeddings that use an edited edge
               are enumerated, seeded from those edges) and the
               per-query match deltas print as they stream; the final match sets are verified
               against a full recompute. --ranks replicates the live
               state for failover and --fault-plan kills ranks on batch
               boundaries (crash:R@C = rank R dies before its (C+1)-th
               batch; needs --ranks > 1); the delta stream continues
               from a surviving rank. The SLO table covers per-delta
               latencies under class watch/q<i>
SNAPSHOTS:     `snapshot build` profiles a data graph, plans each --queries
               spec, and writes a versioned, checksummed container.
               `snapshot inspect` verifies every checksum
               and prints the section table. `match --snapshot <path>` and
               `serve --snapshot <path>` warm-start from a container: the
               graph and its profile come from the file (no ingestion, no
               re-profiling) and persisted plans seed the plan cache, so
               repeat queries run with zero plan builds. Plans transfer
               only when the engine flags and --device match the ones used
               at build time; others are re-planned on first sight";

/// Where the data graph comes from.
#[derive(Debug, Clone, PartialEq)]
pub enum DataSource {
    /// Load from a SNAP edge-list file.
    File(String),
    /// Generate a named stand-in at a scale.
    Dataset { name: String, scale: String },
    /// Restore from a snapshot container (`--snapshot <path>`): graph,
    /// profile, and cached plans all come from the file.
    Snapshot(String),
}

/// Parsed `match` options.
#[derive(Debug, Clone, PartialEq)]
pub struct MatchOpts {
    pub data: DataSource,
    pub query: String,
    pub directed: bool,
    pub device: String,
    pub engine: String,
    pub ranks: usize,
    pub enumerate: usize,
    pub chunk: usize,
    pub labels: Option<String>,
    pub output: String,
    /// Plan-cache capacity of the execution session (0 disables).
    pub plan_cache: usize,
    /// Fault schedule for the distributed runtime (text schema of
    /// `cuts_dist::FaultPlan::parse`).
    pub fault_plan: Option<String>,
    /// Failure-detection timeout in milliseconds.
    pub rank_timeout_ms: Option<u64>,
    /// Root-candidate partition strategy for distributed runs.
    pub partition: Option<String>,
    /// Write the run's event journal here.
    pub trace_out: Option<String>,
    /// Journal format: `chrome` (trace_event JSON) or `jsonl`.
    pub trace_format: String,
    /// Emit one kernel span per simulated block (per-SM tracks); every
    /// grid then runs on the calling thread.
    pub trace_per_block: bool,
    /// Write a Prometheus-style metrics snapshot here.
    pub metrics_out: Option<String>,
    /// Intersection micro-kernel: `auto`, `c`, `p`, or `bitmap`.
    pub intersect: String,
    /// Disable the signature prefilter on root candidates.
    pub no_prefilter: bool,
}

/// Parsed `serve` options.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOpts {
    /// Path to the job manifest.
    pub jobs: String,
    /// Simulated multi-GPU ranks the stream is routed across.
    pub ranks: usize,
    /// Simulated devices to schedule across (per rank when --ranks > 1).
    pub devices: usize,
    /// Worker lanes per device.
    pub lanes: usize,
    /// Bounded submission-queue capacity.
    pub queue: usize,
    /// Aging constant in milliseconds (anti-starvation).
    pub aging_ms: u64,
    /// Host pacing factor (sleep `sim_millis × pacing` per job).
    pub pacing: f64,
    /// Device model name (v100|a100|test).
    pub device: String,
    /// Report format: text | json.
    pub output: String,
    /// Warm-start container: every job's data graph is replaced by the
    /// snapshot's graph and persisted plans seed each worker session.
    pub snapshot: Option<String>,
    /// Emit a rolling stats snapshot every N finished jobs (0 = off).
    pub stats_every: u64,
    /// Where rolling snapshots go, one JSON line each (stdout when
    /// unset). Feed the file to `cuts top`.
    pub stats_out: Option<String>,
    /// Write the merged Prometheus exposition (job SLO + kernel
    /// registries) here after the run.
    pub metrics_out: Option<String>,
    /// Fault schedule injected mid-stream (text schema of
    /// `FaultPlan::parse`); requires --ranks > 1.
    pub fault_plan: Option<String>,
    /// Bound on the per-job wait for queue space, milliseconds. 0 means
    /// fail fast (exit 3 on a full queue); a positive value exits 4 when
    /// the queue never drains in time. Unset blocks indefinitely.
    pub submit_timeout_ms: Option<u64>,
    /// Halve the job stream (CI smoke runs).
    pub quick: bool,
}

/// Parsed `watch` options.
#[derive(Debug, Clone, PartialEq)]
pub struct WatchOpts {
    /// The live data graph's starting state.
    pub data: DataSource,
    /// Standing query specs (comma-separated on the CLI).
    pub queries: Vec<String>,
    /// Path to the edge-batch file (`+ u v` / `- u v` / `---`).
    pub batches: String,
    /// Replicated ranks serving the delta stream (failover capacity).
    pub ranks: usize,
    /// Load the data graph as directed.
    pub directed: bool,
    /// Device model name (v100|a100|test).
    pub device: String,
    /// Report format: text | json.
    pub output: String,
    /// Fault schedule (crashes keyed on batch boundaries); requires
    /// --ranks > 1.
    pub fault_plan: Option<String>,
}

/// Parsed `snapshot build` options.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotBuildOpts {
    /// Graph to profile and persist.
    pub data: DataSource,
    /// Output path for the container.
    pub out: String,
    /// Query specs to plan ahead of time (comma-separated on the CLI).
    pub queries: Vec<String>,
    /// Device model the plans are built for (v100|a100|test).
    pub device: String,
    /// Load the data graph as directed.
    pub directed: bool,
}

/// A parsed command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    Stats {
        data: DataSource,
        directed: bool,
    },
    Match(Box<MatchOpts>),
    /// `match` with tracing forced on and a profile report at the end.
    Profile(Box<MatchOpts>),
    /// Drain a job manifest through the serving tier.
    Serve(ServeOpts),
    /// Stream edge batches at standing queries, matching incrementally.
    Watch(WatchOpts),
    /// Build a snapshot container from a graph and query specs.
    SnapshotBuild(SnapshotBuildOpts),
    /// Verify a container's checksums and describe its sections.
    SnapshotInspect {
        path: String,
    },
    /// Render a serve run's rolling snapshots (JSON lines) as a table.
    Top {
        path: String,
    },
    /// Validate and summarise a flight-recorder post-mortem dump.
    Flight {
        path: String,
    },
    Queries {
        n: usize,
        top: usize,
    },
    Help,
}

fn take_value<'a>(flag: &str, it: &mut std::slice::Iter<'a, String>) -> Result<&'a str, String> {
    it.next()
        .map(|s| s.as_str())
        .ok_or_else(|| format!("{flag} requires a value"))
}

/// Takes a flag's value and parses it; a value that does not parse is
/// `"{flag}: bad {what}"`.
fn take_parsed<T: std::str::FromStr>(
    flag: &str,
    it: &mut std::slice::Iter<'_, String>,
    what: &str,
) -> Result<T, String> {
    take_value(flag, it)?
        .parse()
        .map_err(|_| format!("{flag}: bad {what}"))
}

/// The single positional path of `cmd` (no flags).
fn one_path(cmd: &str, rest: &[String]) -> Result<String, String> {
    match rest {
        [] => Err(format!("{cmd} requires a path")),
        [flag, ..] if flag.starts_with("--") => Err(format!("{cmd} takes one path, got {flag}")),
        [path] => Ok(path.clone()),
        [_, extra, ..] => Err(format!("{cmd} takes one path, got {extra}")),
    }
}

/// Parses argv (without the program name).
pub fn parse(argv: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = argv.split_first() else {
        return Err("missing subcommand".into());
    };
    match sub.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "queries" => {
            let mut n = 5usize;
            let mut top = 11usize;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--n" => n = take_parsed("--n", &mut it, "number")?,
                    "--top" => top = take_parsed("--top", &mut it, "number")?,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if !(2..=7).contains(&n) {
                return Err("--n must be in 2..=7".into());
            }
            Ok(Command::Queries { n, top })
        }
        "stats" => {
            let mut src = Source::default();
            let mut directed = false;
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--directed" => directed = true,
                    other if src.take(other, &mut it)? => {}
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            let data = src.finish()?;
            Ok(Command::Stats { data, directed })
        }
        "serve" => {
            let mut opts = ServeOpts {
                jobs: String::new(),
                ranks: 1,
                devices: 1,
                lanes: 4,
                queue: 64,
                aging_ms: 5,
                pacing: 0.0,
                device: "v100".into(),
                output: "text".into(),
                snapshot: None,
                stats_every: 0,
                stats_out: None,
                metrics_out: None,
                fault_plan: None,
                submit_timeout_ms: None,
                quick: false,
            };
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--jobs" => opts.jobs = take_value("--jobs", &mut it)?.to_string(),
                    "--ranks" => opts.ranks = take_parsed("--ranks", &mut it, "number")?,
                    "--fault-plan" => {
                        opts.fault_plan = Some(take_value("--fault-plan", &mut it)?.to_string())
                    }
                    "--submit-timeout" => {
                        opts.submit_timeout_ms = Some(take_parsed(
                            "--submit-timeout",
                            &mut it,
                            "number of milliseconds",
                        )?)
                    }
                    "--devices" => opts.devices = take_parsed("--devices", &mut it, "number")?,
                    "--lanes" => opts.lanes = take_parsed("--lanes", &mut it, "number")?,
                    "--queue" => opts.queue = take_parsed("--queue", &mut it, "number")?,
                    "--aging" => {
                        opts.aging_ms = take_parsed("--aging", &mut it, "number of milliseconds")?
                    }
                    "--pacing" => opts.pacing = take_parsed("--pacing", &mut it, "number")?,
                    "--device" => opts.device = take_value("--device", &mut it)?.to_string(),
                    "--output" => opts.output = take_value("--output", &mut it)?.to_string(),
                    "--snapshot" => {
                        opts.snapshot = Some(take_value("--snapshot", &mut it)?.to_string())
                    }
                    "--stats-every" => {
                        opts.stats_every = take_parsed("--stats-every", &mut it, "number of jobs")?
                    }
                    "--stats-out" => {
                        opts.stats_out = Some(take_value("--stats-out", &mut it)?.to_string())
                    }
                    "--metrics-out" => {
                        opts.metrics_out = Some(take_value("--metrics-out", &mut it)?.to_string())
                    }
                    "--quick" => opts.quick = true,
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            if opts.jobs.is_empty() {
                return Err("serve requires --jobs".into());
            }
            if opts.ranks == 0 || opts.devices == 0 || opts.lanes == 0 || opts.queue == 0 {
                return Err("--ranks, --devices, --lanes, and --queue must be at least 1".into());
            }
            if opts.fault_plan.is_some() && opts.ranks < 2 {
                return Err("--fault-plan requires --ranks > 1".into());
            }
            if !matches!(opts.output.as_str(), "text" | "json") {
                return Err("--output must be text or json".into());
            }
            if opts.stats_out.is_some() && opts.stats_every == 0 {
                return Err("--stats-out requires --stats-every > 0".into());
            }
            Ok(Command::Serve(opts))
        }
        "watch" => {
            let mut src = Source::default();
            let mut opts = WatchOpts {
                data: Source::UNSET,
                queries: Vec::new(),
                batches: String::new(),
                ranks: 1,
                directed: false,
                device: "v100".into(),
                output: "text".into(),
                fault_plan: None,
            };
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--query" => {
                        opts.queries = take_value("--query", &mut it)?
                            .split(',')
                            .map(str::to_string)
                            .collect()
                    }
                    "--batches" => opts.batches = take_value("--batches", &mut it)?.to_string(),
                    "--ranks" => opts.ranks = take_parsed("--ranks", &mut it, "number")?,
                    "--directed" => opts.directed = true,
                    "--device" => opts.device = take_value("--device", &mut it)?.to_string(),
                    "--output" => opts.output = take_value("--output", &mut it)?.to_string(),
                    "--fault-plan" => {
                        opts.fault_plan = Some(take_value("--fault-plan", &mut it)?.to_string())
                    }
                    other if src.take(other, &mut it)? => {}
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            opts.data = src.finish()?;
            if opts.queries.is_empty() || opts.queries.iter().any(String::is_empty) {
                return Err("watch requires --query with at least one spec".into());
            }
            if opts.batches.is_empty() {
                return Err("watch requires --batches".into());
            }
            if opts.ranks == 0 {
                return Err("--ranks must be at least 1".into());
            }
            if opts.fault_plan.is_some() && opts.ranks < 2 {
                return Err("--fault-plan requires --ranks > 1".into());
            }
            if !matches!(opts.output.as_str(), "text" | "json") {
                return Err("--output must be text or json".into());
            }
            Ok(Command::Watch(opts))
        }
        "top" | "flight" => {
            let path = one_path(sub, rest)?;
            Ok(if sub == "top" {
                Command::Top { path }
            } else {
                Command::Flight { path }
            })
        }
        "snapshot" => {
            let Some((verb, rest)) = rest.split_first() else {
                return Err("snapshot requires a verb: build or inspect".into());
            };
            match verb.as_str() {
                "build" => {
                    let mut src = Source::default();
                    let mut opts = SnapshotBuildOpts {
                        data: Source::UNSET,
                        out: String::new(),
                        queries: Vec::new(),
                        device: "v100".into(),
                        directed: false,
                    };
                    let mut it = rest.iter();
                    while let Some(a) = it.next() {
                        match a.as_str() {
                            "--out" => opts.out = take_value("--out", &mut it)?.to_string(),
                            "--queries" => {
                                opts.queries = take_value("--queries", &mut it)?
                                    .split(',')
                                    .map(|s| s.trim().to_string())
                                    .filter(|s| !s.is_empty())
                                    .collect()
                            }
                            "--device" => {
                                opts.device = take_value("--device", &mut it)?.to_string()
                            }
                            "--directed" => opts.directed = true,
                            other if src.take(other, &mut it)? => {}
                            other => return Err(format!("unknown flag {other}")),
                        }
                    }
                    opts.data = src.finish()?;
                    if matches!(opts.data, DataSource::Snapshot(_)) {
                        return Err("snapshot build takes a graph source, not --snapshot".into());
                    }
                    if opts.out.is_empty() {
                        return Err("snapshot build requires --out".into());
                    }
                    Ok(Command::SnapshotBuild(opts))
                }
                "inspect" => Ok(Command::SnapshotInspect {
                    path: one_path("snapshot inspect", rest)?,
                }),
                other => Err(format!("unknown snapshot verb {other} (build|inspect)")),
            }
        }
        "match" | "profile" => {
            let mut src = Source::default();
            let mut opts = MatchOpts {
                data: Source::UNSET,
                query: String::new(),
                directed: false,
                device: "v100".into(),
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
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--query" => opts.query = take_value("--query", &mut it)?.to_string(),
                    "--directed" => opts.directed = true,
                    "--device" => opts.device = take_value("--device", &mut it)?.to_string(),
                    "--engine" => opts.engine = take_value("--engine", &mut it)?.to_string(),
                    "--ranks" => opts.ranks = take_parsed("--ranks", &mut it, "number")?,
                    "--enumerate" => {
                        opts.enumerate = take_parsed("--enumerate", &mut it, "number")?
                    }
                    "--chunk" => opts.chunk = take_parsed("--chunk", &mut it, "number")?,
                    "--plan-cache" => {
                        opts.plan_cache = take_parsed("--plan-cache", &mut it, "number")?
                    }
                    "--labels" => opts.labels = Some(take_value("--labels", &mut it)?.to_string()),
                    "--output" => opts.output = take_value("--output", &mut it)?.to_string(),
                    "--fault-plan" => {
                        opts.fault_plan = Some(take_value("--fault-plan", &mut it)?.to_string())
                    }
                    "--rank-timeout" => {
                        opts.rank_timeout_ms = Some(take_parsed(
                            "--rank-timeout",
                            &mut it,
                            "number of milliseconds",
                        )?)
                    }
                    "--partition" => {
                        opts.partition = Some(take_value("--partition", &mut it)?.to_string())
                    }
                    "--trace-out" => {
                        opts.trace_out = Some(take_value("--trace-out", &mut it)?.to_string())
                    }
                    "--trace-format" => {
                        opts.trace_format = take_value("--trace-format", &mut it)?.to_string()
                    }
                    "--trace-per-block" => opts.trace_per_block = true,
                    "--metrics-out" => {
                        opts.metrics_out = Some(take_value("--metrics-out", &mut it)?.to_string())
                    }
                    "--intersect" => {
                        opts.intersect = take_value("--intersect", &mut it)?.to_string()
                    }
                    "--no-prefilter" => opts.no_prefilter = true,
                    other if src.take(other, &mut it)? => {}
                    other => return Err(format!("unknown flag {other}")),
                }
            }
            opts.data = src.finish()?;
            if opts.query.is_empty() {
                return Err(format!("{sub} requires --query"));
            }
            if opts.ranks == 0 {
                return Err("--ranks must be at least 1".into());
            }
            if opts.chunk == 0 {
                return Err("--chunk must be at least 1".into());
            }
            if opts.fault_plan.is_some() && opts.ranks < 2 {
                return Err("--fault-plan requires --ranks > 1".into());
            }
            if !matches!(opts.output.as_str(), "text" | "json") {
                return Err("--output must be text or json".into());
            }
            if !matches!(opts.trace_format.as_str(), "chrome" | "jsonl") {
                return Err("--trace-format must be chrome or jsonl".into());
            }
            if let Some(p) = &opts.partition {
                if !matches!(p.as_str(), "round-robin" | "block" | "all-to-zero") {
                    return Err("--partition must be round-robin, block, or all-to-zero".into());
                }
            }
            if !matches!(opts.intersect.as_str(), "auto" | "c" | "p" | "bitmap") {
                return Err("--intersect must be auto, c, p, or bitmap".into());
            }
            if matches!(opts.data, DataSource::Snapshot(_)) {
                // The graph (and its orientation and labels) is baked into
                // the container; only the single-device cuts engine can
                // consume the seeded plan cache.
                if opts.engine != "cuts" {
                    return Err("--snapshot supports only --engine cuts".into());
                }
                if opts.ranks != 1 {
                    return Err("--snapshot requires --ranks 1".into());
                }
                if opts.labels.is_some() {
                    return Err("--snapshot conflicts with --labels (labels are stored)".into());
                }
                if opts.directed {
                    return Err(
                        "--snapshot conflicts with --directed (orientation is stored)".into(),
                    );
                }
            }
            if sub == "profile" {
                if opts.engine != "cuts" {
                    return Err("profile supports only --engine cuts".into());
                }
                Ok(Command::Profile(Box::new(opts)))
            } else {
                Ok(Command::Match(Box::new(opts)))
            }
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

/// A command's data source as its flag loop meets it: a bare path,
/// `--dataset` (with `--scale`), or `--snapshot`.
#[derive(Default)]
struct Source {
    path: Option<String>,
    dataset: Option<String>,
    scale: Option<String>,
    snapshot: Option<String>,
}

impl Source {
    /// What a command's options hold until [`Source::finish`] runs.
    const UNSET: DataSource = DataSource::File(String::new());

    /// Takes `arg`, and its value from `it`, when it gives the source: a
    /// source flag or a bare word. False for any other flag, which the
    /// command's own flag loop decides.
    fn take(&mut self, arg: &str, it: &mut std::slice::Iter<'_, String>) -> Result<bool, String> {
        let slot = match arg {
            "--dataset" => &mut self.dataset,
            "--scale" => &mut self.scale,
            "--snapshot" => &mut self.snapshot,
            flag if flag.starts_with("--") => return Ok(false),
            path => match self.path {
                None => {
                    self.path = Some(path.to_string());
                    return Ok(true);
                }
                Some(_) => return Err(format!("unexpected argument {path}")),
            },
        };
        *slot = Some(take_value(arg, it)?.to_string());
        Ok(true)
    }

    /// The source given: exactly one of a path, a dataset or a snapshot.
    fn finish(self) -> Result<DataSource, String> {
        let scale = self.scale.unwrap_or_else(|| "tiny".into());
        match (self.path, self.dataset, self.snapshot) {
            (Some(p), None, None) => Ok(DataSource::File(p)),
            (None, Some(name), None) => Ok(DataSource::Dataset { name, scale }),
            (None, None, Some(p)) => Ok(DataSource::Snapshot(p)),
            (None, None, None) => {
                Err("missing data graph (file path, --dataset, or --snapshot)".into())
            }
            _ => Err("give exactly one of: a file path, --dataset, or --snapshot".into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_match_with_file() {
        let c = parse(&argv("match graph.txt --query clique:4 --ranks 2")).unwrap();
        match c {
            Command::Match(o) => {
                assert_eq!(o.data, DataSource::File("graph.txt".into()));
                assert_eq!(o.query, "clique:4");
                assert_eq!(o.ranks, 2);
                assert_eq!(o.device, "v100");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_match_with_dataset() {
        let c = parse(&argv(
            "match --dataset enron --scale small --query chain:5 --engine gsi --device a100",
        ))
        .unwrap();
        match c {
            Command::Match(o) => {
                assert_eq!(
                    o.data,
                    DataSource::Dataset {
                        name: "enron".into(),
                        scale: "small".into()
                    }
                );
                assert_eq!(o.engine, "gsi");
                assert_eq!(o.device, "a100");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_watch() {
        let c = parse(&argv(
            "watch g.txt --query clique:3,chain:4 --batches edits.txt --ranks 2 \
             --fault-plan crash:0@1 --device test --output json",
        ))
        .unwrap();
        match c {
            Command::Watch(o) => {
                assert_eq!(o.data, DataSource::File("g.txt".into()));
                assert_eq!(
                    o.queries,
                    vec!["clique:3".to_string(), "chain:4".to_string()]
                );
                assert_eq!(o.batches, "edits.txt");
                assert_eq!(o.ranks, 2);
                assert_eq!(o.fault_plan.as_deref(), Some("crash:0@1"));
                assert_eq!(o.device, "test");
                assert_eq!(o.output, "json");
                assert!(!o.directed);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn watch_rejects_bad_combinations() {
        // Both --query and --batches are mandatory.
        assert!(parse(&argv("watch g.txt --batches b.txt")).is_err());
        assert!(parse(&argv("watch g.txt --query clique:3")).is_err());
        // Fault injection needs a surviving rank to fail over to.
        assert!(parse(&argv(
            "watch g.txt --query clique:3 --batches b.txt --fault-plan crash:0@1"
        ))
        .is_err());
        assert!(parse(&argv(
            "watch g.txt --query clique:3 --batches b.txt --output yaml"
        ))
        .is_err());
    }

    #[test]
    fn parses_labels_and_output() {
        let c = parse(&argv(
            "match g.txt --query clique:3 --labels zipf:4 --output json",
        ))
        .unwrap();
        match c {
            Command::Match(o) => {
                assert_eq!(o.labels.as_deref(), Some("zipf:4"));
                assert_eq!(o.output, "json");
            }
            other => panic!("{other:?}"),
        }
        // Unknown formats fail at parse time, on one rank or many.
        for cmd in [
            "match g.txt --query clique:3 --output xml",
            "match g.txt --query clique:3 --ranks 2 --output xml",
            "profile g.txt --query clique:3 --output yaml",
        ] {
            assert_eq!(
                parse(&argv(cmd)).unwrap_err(),
                "--output must be text or json",
                "{cmd}"
            );
        }
    }

    #[test]
    fn parses_plan_cache() {
        let c = parse(&argv("match g.txt --query clique:3 --plan-cache 0")).unwrap();
        match c {
            Command::Match(o) => assert_eq!(o.plan_cache, 0),
            other => panic!("{other:?}"),
        }
        // Default.
        let c = parse(&argv("match g.txt --query clique:3")).unwrap();
        match c {
            Command::Match(o) => assert_eq!(o.plan_cache, 16),
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("match g.txt --query clique:3 --plan-cache x")).is_err());
    }

    #[test]
    fn rejects_missing_query() {
        assert!(parse(&argv("match graph.txt")).is_err());
    }

    #[test]
    fn parses_intersect_and_prefilter_flags() {
        for arm in ["auto", "c", "p", "bitmap"] {
            let c = parse(&argv(&format!(
                "match g.txt --query clique:3 --intersect {arm}"
            )))
            .unwrap();
            match c {
                Command::Match(o) => assert_eq!(o.intersect, arm),
                other => panic!("{other:?}"),
            }
        }
        // Defaults: auto with the prefilter on.
        let c = parse(&argv("match g.txt --query clique:3 --no-prefilter")).unwrap();
        match c {
            Command::Match(o) => {
                assert_eq!(o.intersect, "auto");
                assert!(o.no_prefilter);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("match g.txt --query clique:3 --intersect adaptive")).is_err());
    }

    #[test]
    fn parses_fault_plan_and_rank_timeout() {
        let c = parse(&argv(
            "match g.txt --query clique:3 --ranks 4 --fault-plan crash:1@2,drop:0->2@3 --rank-timeout 80",
        ))
        .unwrap();
        match c {
            Command::Match(o) => {
                assert_eq!(o.fault_plan.as_deref(), Some("crash:1@2,drop:0->2@3"));
                assert_eq!(o.rank_timeout_ms, Some(80));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fault_plan_requires_multiple_ranks() {
        assert!(parse(&argv("match g.txt --query clique:3 --fault-plan crash:0@0")).is_err());
        assert!(parse(&argv("match g.txt --query clique:3 --rank-timeout")).is_err());
        // A zero chunk is a usage error on one rank and on many.
        for extra in ["", " --ranks 2"] {
            let line = format!("match g.txt --query clique:3 --chunk 0{extra}");
            assert_eq!(
                parse(&argv(&line)).unwrap_err(),
                "--chunk must be at least 1"
            );
        }
    }

    #[test]
    fn parses_trace_and_partition_flags() {
        let c = parse(&argv(
            "match g.txt --query clique:3 --trace-out t.json --trace-format jsonl \
             --trace-per-block --metrics-out m.prom --ranks 4 --partition all-to-zero",
        ))
        .unwrap();
        match c {
            Command::Match(o) => {
                assert_eq!(o.trace_out.as_deref(), Some("t.json"));
                assert_eq!(o.trace_format, "jsonl");
                assert!(o.trace_per_block);
                assert_eq!(o.metrics_out.as_deref(), Some("m.prom"));
                assert_eq!(o.partition.as_deref(), Some("all-to-zero"));
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("match g.txt --query clique:3 --trace-format xml")).is_err());
        assert!(parse(&argv("match g.txt --query clique:3 --partition nope")).is_err());
    }

    #[test]
    fn parses_profile_subcommand() {
        let c = parse(&argv("profile g.txt --query clique:3 --ranks 4")).unwrap();
        match c {
            Command::Profile(o) => {
                assert_eq!(o.query, "clique:3");
                assert_eq!(o.ranks, 4);
                assert_eq!(o.trace_format, "chrome");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("profile g.txt --query clique:3 --engine vf2")).is_err());
        assert!(parse(&argv("profile g.txt")).is_err());
    }

    #[test]
    fn parses_serve_subcommand() {
        let c = parse(&argv(
            "serve --jobs demo.jobs --devices 2 --lanes 4 --queue 32 --aging 10 --pacing 1.5",
        ))
        .unwrap();
        match c {
            Command::Serve(o) => {
                assert_eq!(o.jobs, "demo.jobs");
                assert_eq!(o.devices, 2);
                assert_eq!(o.lanes, 4);
                assert_eq!(o.queue, 32);
                assert_eq!(o.aging_ms, 10);
                assert!((o.pacing - 1.5).abs() < 1e-12);
                assert_eq!(o.device, "v100");
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve")).is_err(), "requires --jobs");
        assert!(parse(&argv("serve --jobs j --lanes 0")).is_err());
        assert!(parse(&argv("serve --jobs j --output xml")).is_err());
    }

    #[test]
    fn rejects_both_sources() {
        assert!(parse(&argv("stats graph.txt --dataset enron")).is_err());
        assert!(parse(&argv("stats graph.txt --snapshot s.snap")).is_err());
        assert!(parse(&argv(
            "match --dataset enron --snapshot s.snap --query clique:3"
        ))
        .is_err());
    }

    #[test]
    fn parses_snapshot_build() {
        let c = parse(&argv(
            "snapshot build --dataset enron --out warm.snap --queries clique:3,chain:4 \
             --device test",
        ))
        .unwrap();
        match c {
            Command::SnapshotBuild(o) => {
                assert_eq!(
                    o.data,
                    DataSource::Dataset {
                        name: "enron".into(),
                        scale: "tiny".into()
                    }
                );
                assert_eq!(o.out, "warm.snap");
                assert_eq!(
                    o.queries,
                    vec!["clique:3".to_string(), "chain:4".to_string()]
                );
                assert_eq!(o.device, "test");
                assert!(!o.directed);
            }
            other => panic!("{other:?}"),
        }
        // --out is mandatory; --store-tries is not a flag; a source is needed.
        assert!(parse(&argv("snapshot build --dataset enron")).is_err());
        assert!(parse(&argv(
            "snapshot build --dataset enron --out s --queries clique:3 --store-tries"
        ))
        .is_err());
        assert!(parse(&argv("snapshot build --out s")).is_err());
        assert!(parse(&argv("snapshot build --snapshot a.snap --out s")).is_err());
        assert!(parse(&argv("snapshot")).is_err());
        assert!(parse(&argv("snapshot frobnicate")).is_err());
    }

    #[test]
    fn parses_snapshot_inspect() {
        assert_eq!(
            parse(&argv("snapshot inspect warm.snap")).unwrap(),
            Command::SnapshotInspect {
                path: "warm.snap".into()
            }
        );
        assert!(parse(&argv("snapshot inspect")).is_err());
        assert!(parse(&argv("snapshot inspect a.snap b.snap")).is_err());
        assert!(parse(&argv("snapshot inspect --flag a.snap")).is_err());
    }

    #[test]
    fn parses_match_snapshot_source() {
        let c = parse(&argv("match --snapshot warm.snap --query clique:3")).unwrap();
        match c {
            Command::Match(o) => {
                assert_eq!(o.data, DataSource::Snapshot("warm.snap".into()));
                assert_eq!(o.query, "clique:3");
            }
            other => panic!("{other:?}"),
        }
        // The snapshot pins engine, ranks, orientation, and labels.
        for bad in [
            "match --snapshot s --query clique:3 --engine gsi",
            "match --snapshot s --query clique:3 --ranks 2",
            "match --snapshot s --query clique:3 --labels zipf:4",
            "match --snapshot s --query clique:3 --directed",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn parses_serve_stats_flags() {
        let c = parse(&argv(
            "serve --jobs j --stats-every 10 --stats-out s.jsonl --metrics-out m.prom",
        ))
        .unwrap();
        match c {
            Command::Serve(o) => {
                assert_eq!(o.stats_every, 10);
                assert_eq!(o.stats_out.as_deref(), Some("s.jsonl"));
                assert_eq!(o.metrics_out.as_deref(), Some("m.prom"));
            }
            other => panic!("{other:?}"),
        }
        // Defaults: telemetry is always on, rolling emission off.
        match parse(&argv("serve --jobs j")).unwrap() {
            Command::Serve(o) => {
                assert_eq!(o.stats_every, 0);
                assert_eq!(o.stats_out, None);
                assert_eq!(o.metrics_out, None);
            }
            other => panic!("{other:?}"),
        }
        // A snapshot file with no emission cadence would stay empty.
        assert!(parse(&argv("serve --jobs j --stats-out s.jsonl")).is_err());
        assert!(parse(&argv("serve --jobs j --stats-every x")).is_err());
    }

    #[test]
    fn parses_top_and_flight() {
        assert_eq!(
            parse(&argv("top metrics.jsonl")).unwrap(),
            Command::Top {
                path: "metrics.jsonl".into()
            }
        );
        assert_eq!(
            parse(&argv("flight dump.json")).unwrap(),
            Command::Flight {
                path: "dump.json".into()
            }
        );
        assert!(parse(&argv("top")).is_err());
        assert!(parse(&argv("flight a.json b.json")).is_err());
        assert!(parse(&argv("top --flag p")).is_err());
    }

    #[test]
    fn parses_serve_ranks_and_fault_plan() {
        let c = parse(&argv(
            "serve --jobs j --ranks 4 --fault-plan crash:2@1 --submit-timeout 250 --quick",
        ))
        .unwrap();
        match c {
            Command::Serve(o) => {
                assert_eq!(o.ranks, 4);
                assert_eq!(o.fault_plan.as_deref(), Some("crash:2@1"));
                assert_eq!(o.submit_timeout_ms, Some(250));
                assert!(o.quick);
            }
            other => panic!("{other:?}"),
        }
        // Defaults: one rank, no faults, block indefinitely, full stream.
        match parse(&argv("serve --jobs j")).unwrap() {
            Command::Serve(o) => {
                assert_eq!(o.ranks, 1);
                assert_eq!(o.fault_plan, None);
                assert_eq!(o.submit_timeout_ms, None);
                assert!(!o.quick);
            }
            other => panic!("{other:?}"),
        }
        assert!(parse(&argv("serve --jobs j --ranks 0")).is_err());
        assert!(parse(&argv("serve --jobs j --fault-plan crash:0@0")).is_err());
        assert!(parse(&argv("serve --jobs j --submit-timeout x")).is_err());
    }

    #[test]
    fn parses_serve_snapshot_flag() {
        let c = parse(&argv("serve --jobs demo.jobs --snapshot warm.snap")).unwrap();
        match c {
            Command::Serve(o) => assert_eq!(o.snapshot.as_deref(), Some("warm.snap")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_queries_bounds() {
        assert_eq!(
            parse(&argv("queries --n 6 --top 4")).unwrap(),
            Command::Queries { n: 6, top: 4 }
        );
        assert!(parse(&argv("queries --n 9")).is_err());
    }

    #[test]
    fn help_variants() {
        for h in ["help", "--help", "-h"] {
            assert_eq!(parse(&argv(h)).unwrap(), Command::Help);
        }
    }

    /// Every numeric flag names itself and what it expected.
    #[test]
    fn bad_numbers_name_their_flag() {
        for (cmd, msg) in [
            ("queries --n x", "--n: bad number"),
            ("queries --top x", "--top: bad number"),
            ("serve --jobs j --ranks x", "--ranks: bad number"),
            ("serve --jobs j --devices x", "--devices: bad number"),
            ("serve --jobs j --lanes x", "--lanes: bad number"),
            ("serve --jobs j --queue x", "--queue: bad number"),
            ("serve --jobs j --pacing x", "--pacing: bad number"),
            (
                "serve --jobs j --aging x",
                "--aging: bad number of milliseconds",
            ),
            (
                "serve --jobs j --submit-timeout x",
                "--submit-timeout: bad number of milliseconds",
            ),
            (
                "serve --jobs j --stats-every x",
                "--stats-every: bad number of jobs",
            ),
            ("watch g --query clique:3 --ranks x", "--ranks: bad number"),
            ("match g --query clique:3 --ranks x", "--ranks: bad number"),
            (
                "match g --query clique:3 --enumerate x",
                "--enumerate: bad number",
            ),
            ("match g --query clique:3 --chunk x", "--chunk: bad number"),
            (
                "match g --query clique:3 --plan-cache x",
                "--plan-cache: bad number",
            ),
            (
                "match g --query clique:3 --rank-timeout x",
                "--rank-timeout: bad number of milliseconds",
            ),
            ("queries --n", "--n requires a value"),
        ] {
            assert_eq!(parse(&argv(cmd)).unwrap_err(), msg, "{cmd}");
        }
    }

    #[test]
    fn path_commands_name_the_offending_argument() {
        for (cmd, msg) in [
            ("top", "top requires a path"),
            ("flight a b", "flight takes one path, got b"),
            ("top --flag p", "top takes one path, got --flag"),
            ("snapshot inspect", "snapshot inspect requires a path"),
            (
                "snapshot inspect a --x",
                "snapshot inspect takes one path, got --x",
            ),
        ] {
            assert_eq!(parse(&argv(cmd)).unwrap_err(), msg, "{cmd}");
        }
    }

    #[test]
    fn a_flag_value_before_the_source_is_not_the_path() {
        for cmd in [
            "profile --device v100 --dataset enron --query clique:3",
            "profile --dataset enron --device v100 --query clique:3",
        ] {
            match parse(&argv(cmd)).unwrap() {
                Command::Profile(o) => {
                    let enron = DataSource::Dataset {
                        name: "enron".into(),
                        scale: "tiny".into(),
                    };
                    assert_eq!((o.data, o.device.as_str()), (enron, "v100"), "{cmd}");
                }
                other => panic!("{cmd}: {other:?}"),
            }
        }
        // A bare word after a flag's value, or after a switch, is the path.
        for cmd in [
            "match --device test graph.txt --query clique:3",
            "match --no-prefilter graph.txt --query clique:3",
            "stats --directed graph.txt",
            "watch --ranks 2 graph.txt --query clique:3 --batches b.txt",
            "snapshot build --device test graph.txt --out w.snap",
        ] {
            let data = match parse(&argv(cmd)).unwrap() {
                Command::Match(o) => o.data,
                Command::Stats { data, .. } => data,
                Command::Watch(o) => o.data,
                Command::SnapshotBuild(o) => o.data,
                other => panic!("{cmd}: {other:?}"),
            };
            assert_eq!(data, DataSource::File("graph.txt".into()), "{cmd}");
        }
        // An unknown flag before the path is named, not taken for one
        // with the path as its value.
        assert_eq!(
            parse(&argv("match --frobnicate g.txt --query clique:3")).unwrap_err(),
            "unknown flag --frobnicate"
        );
        for cmd in [
            "match graph.txt --dataset enron --query clique:3",
            "match --device v100 --dataset enron --snapshot w.snap --query clique:3",
        ] {
            assert_eq!(
                parse(&argv(cmd)).unwrap_err(),
                "give exactly one of: a file path, --dataset, or --snapshot",
                "{cmd}"
            );
        }
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(parse(&argv("match g.txt --query clique:3 --frobnicate")).is_err());
        assert!(parse(&argv("bogus")).is_err());
        assert!(parse(&[]).is_err());
    }
}
