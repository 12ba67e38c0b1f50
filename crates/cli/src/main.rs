//! `streamtune` — command-line interface for the StreamTune reproduction.
//!
//! Subcommands:
//!
//! * `pretrain --out bundle.json [--jobs N] [--seed S] [--engine flink|timely]`
//!   — generate a history corpus on the simulated cluster and pre-train the
//!   clustered GNN encoders; writes the serialized [`Pretrained`] bundle.
//! * `tune --bundle bundle.json --query <name> [--multiplier M]
//!   [--backend sim|replay:<trace.json>|flink:<url>|ingest:<dump.jsonl>]
//!   [--record <trace.json>]`
//!   — load a bundle and tune a named workload online, printing the
//!   per-operator recommendation. `--backend` parses into the daemon's
//!   `BackendSpec` and opens through the same `BackendSpec::open`
//!   constructor as `serve` jobs: `replay:<path>` drives the tuner from a
//!   recorded trace instead of the simulator; `flink:<url>` tunes a live
//!   job through the Flink REST connector; `ingest:<path>` admits the
//!   deployment recorded in a JSONL metrics dump (nothing is tuned, so
//!   `--chaos` is refused); `--record` captures a simulator session into a
//!   trace file for later replay.
//! * `ingest --input dump.jsonl [--out trace.json] [--window SECS]
//!   [--sources a,b] [--max-parallelism N] [--engine flink|timely]`
//!   — stream a JSONL metrics dump into a replayable trace plus a
//!   monitor-ready rate schedule, reporting how many rows were kept,
//!   skipped or malformed.
//! * `inspect --bundle bundle.json` — summarize a bundle (clusters, warm-up
//!   sizes, encoder losses).
//! * `workloads` — list the named workloads usable with `tune`.
//! * `serve [--store DIR] [--listen ADDR] [--threads N] [--jobs N]
//!   [--seed S] [--engine flink|timely] [--fast] [--ledger-cap N]
//!   [--monitor-interval SECS]` — run the long-lived tuning daemon: load
//!   the model store (or pre-train and persist it, warm-started from any
//!   persisted GED-cache snapshot), resume any journaled jobs that a
//!   previous process died holding, then answer the line-delimited JSON
//!   control protocol (`submit`/`status`/`recommend`/`cancel`/`watch`/
//!   `unwatch`/`drift_status`/`tick`/`health`/`metrics`/`snapshot`/
//!   `drain`/`trace`/`explain`/`metrics_history`/`shutdown`) on
//!   stdin/stdout, or on a TCP listener with `--listen` — one session per
//!   client, with `--monitor-interval` running the background drift
//!   monitor between accepts. `--ledger-cap N` (default 256) bounds the
//!   daemon's memory of past work: after every drain only the newest N
//!   decision records are kept (what `explain` answers from), and a
//!   snapshot keeps only the newest N finished jobs in `jobs.json`.
//!   Overload knobs: `--session-cap` bounds
//!   concurrent sessions and `--request-deadline` bounds the wait for the
//!   daemon lock; excess load is shed with a structured `overloaded`
//!   response carrying `--retry-after-ms`. On SIGTERM the daemon drains:
//!   it stops accepting, finishes in-flight work and flushes the store,
//!   bounded by `--drain-timeout`. The `--slo-*` flags set alarm
//!   thresholds over the `health` counters (`off` disables one).
//!   Observability knobs: `--metrics-listen ADDR` serves the telemetry
//!   registry as Prometheus text on `GET /metrics` (JSON on
//!   `/metrics.json`) from a thread that never touches the daemon lock,
//!   and `--trace-log FILE` appends every structured event as one JSONL
//!   line (`--trace-log-cap BYTES` rotates the file at that size so a
//!   long-lived daemon never fills the disk). Both are strictly
//!   observational — tuning outcomes are bit-identical with or without
//!   them.
//! * `client --connect ADDR [--script FILE]` — send protocol lines (from
//!   the script file or stdin) to a serving daemon and print each response.
//! * `trace --connect ADDR [--label VERB] [--export FILE]` — fetch the
//!   flight recorder's newest complete span tree from a serving daemon
//!   (optionally the newest whose root is labeled `VERB`), print it
//!   indented by causal depth, and with `--export` write it as Chrome
//!   trace-event JSON (loadable in `chrome://tracing` or Perfetto).
//! * `top --connect METRICS_ADDR [--interval SECS] [--iterations N]
//!   [--once]` — poll a daemon's `/metrics/history.json` endpoint (the
//!   `--metrics-listen` address) and print each new frame: per-verb
//!   request-rate deltas and latency quantiles over the last interval.
//! * `monitor --query NAME [--multiplier M] [--shift-to M2] [--shift-at T]
//!   [--ticks N] [--seed S] [--store DIR] [--fast]` — an in-process
//!   demonstration of the observe→detect→adapt loop: tune a job, watch it
//!   with a scripted rate shift, tick the monitor and report the
//!   automatic re-tune.
//!
//! The default backend is the simulated cluster (see DESIGN.md §1); every
//! tuner runs through the backend-agnostic `ExecutionBackend` API, so the
//! same commands also drive the Flink REST connector (`--backend
//! flink:<url>`). Fault knobs apply everywhere: `--retry-attempts` /
//! `--retry-backoff` bound the transient-fault retry loop, and `--chaos
//! <seed>` injects a deterministic fault storm (on `serve`/`monitor` it
//! wraps the tuning run of every `sim` job, seeded `chaos ^ job seed`).

use std::io::{BufRead, BufReader, Write};
use std::process::ExitCode;
use streamtune_backend::{
    ChaosBackend, EngineMode, ExecutionBackend, FaultPlan, RetryPolicy, RetryStats, TraceRecorder,
    TuneOutcome, TuningSession,
};
use streamtune_baselines::Tuner;
use streamtune_connect::{ingest_file, IngestConfig};
use streamtune_core::{
    Parallelism, PretrainConfig, Pretrained, Pretrainer, StreamTune, TuneConfig,
};
use streamtune_serve::{
    BackendSpec, DriftReport, ModelStore, Request, Response, Server, ServerConfig, TcpConfig,
};
use streamtune_workloads::history::HistoryGenerator;
use streamtune_workloads::named_workloads;
use streamtune_workloads::rates::Engine;

mod args;
mod error;
mod flight;
use args::Args;
use error::CliError;

fn cmd_workloads() -> ExitCode {
    println!("available workloads (use with `tune --query <name>`):");
    for w in named_workloads(Engine::Flink) {
        println!(
            "  {:<16} {} operator(s), {} source(s), Wu {:?}",
            w.name,
            w.flow.num_ops(),
            w.flow.num_sources(),
            w.wu
        );
    }
    ExitCode::SUCCESS
}

fn cmd_pretrain(args: &Args) -> Result<(), CliError> {
    let out = args.required("out")?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let jobs: usize = args.parse_or("jobs", 60)?;
    let engine = args.engine()?;
    eprintln!("generating {jobs}-job corpus (seed {seed})…");
    let mut gen = HistoryGenerator::new(seed).with_jobs(jobs);
    gen.engine = engine;
    let corpus = gen.generate(&engine.sim_cluster(seed));
    eprintln!("pre-training on {} runs…", corpus.len());
    let config = if args.flag("fast") {
        PretrainConfig::fast()
    } else {
        PretrainConfig::default()
    };
    let pre = Pretrainer::new(config).run(&corpus);
    let json = serde_json::to_string(&pre).map_err(|e| CliError::Serde {
        context: "serialize bundle".to_string(),
        message: e.to_string(),
    })?;
    std::fs::write(&out, json).map_err(|e| CliError::Io {
        path: out.clone(),
        message: e.to_string(),
    })?;
    eprintln!(
        "wrote {} cluster(s), {} warm-up points → {out}",
        pre.clusters.len(),
        pre.total_warmup_points()
    );
    Ok(())
}

fn load_bundle(args: &Args) -> Result<Pretrained, CliError> {
    let path = args.required("bundle")?;
    let data = std::fs::read_to_string(&path).map_err(|e| CliError::Io {
        path: path.clone(),
        message: e.to_string(),
    })?;
    let mut bundle: Pretrained = serde_json::from_str(&data).map_err(|e| CliError::Serde {
        context: format!("parse {path}"),
        message: e.to_string(),
    })?;
    bundle.end_training();
    Ok(bundle)
}

/// The `--backend` selection: the simulator, a recorded trace, a live
/// Flink REST endpoint, or a JSONL metrics dump.
fn backend_spec(args: &Args) -> Result<BackendSpec, CliError> {
    let spec = match args.optional("backend") {
        None => return Ok(BackendSpec::Sim),
        Some(spec) => spec,
    };
    if spec == "sim" {
        return Ok(BackendSpec::Sim);
    }
    let choice = [
        ("replay:", BackendSpec::Replay as fn(String) -> BackendSpec),
        ("flink:", BackendSpec::Flink),
        ("ingest:", BackendSpec::Ingest),
    ]
    .iter()
    .find_map(|(prefix, make)| {
        spec.strip_prefix(prefix)
            .filter(|rest| !rest.is_empty())
            .map(|rest| make(rest.to_string()))
    });
    choice.ok_or_else(|| {
        CliError::Usage(format!(
            "--backend must be `sim`, `replay:<trace.json>`, `flink:<url>` or \
             `ingest:<dump.jsonl>`, got `{spec}`"
        ))
    })
}

/// Fold `--retry-attempts` / `--retry-backoff` over a base policy.
fn retry_policy(args: &Args, base: RetryPolicy) -> Result<RetryPolicy, CliError> {
    let policy = RetryPolicy {
        max_attempts: args.parse_or("retry-attempts", base.max_attempts)?,
        base_backoff_minutes: args.parse_or("retry-backoff", base.base_backoff_minutes)?,
    };
    if policy.max_attempts == 0 {
        return Err(CliError::Usage(
            "--retry-attempts must be at least 1 (1 = no retry)".to_string(),
        ));
    }
    if !policy.base_backoff_minutes.is_finite() || policy.base_backoff_minutes < 0.0 {
        return Err(CliError::Usage(format!(
            "--retry-backoff must be a finite non-negative number of minutes, got {}",
            policy.base_backoff_minutes
        )));
    }
    Ok(policy)
}

/// The optional `--chaos <seed>` fault-injection knob.
fn chaos_seed(args: &Args) -> Result<Option<u64>, CliError> {
    match args.optional("chaos") {
        None => Ok(None),
        Some(s) => s
            .parse::<u64>()
            .map(Some)
            .map_err(|e| CliError::Usage(format!("--chaos {s}: {e}"))),
    }
}

/// Tell the user what the retry loop absorbed, if anything.
fn report_faults(stats: &RetryStats) {
    if stats.any_faults() {
        eprintln!(
            "faults: {} transient absorbed over {} retry(ies) ({:.1} min virtual backoff), \
             {} exhausted, {} permanent",
            stats.transient_faults,
            stats.retries,
            stats.backoff_minutes,
            stats.exhausted,
            stats.permanent_failures
        );
    }
}

fn cmd_tune(args: &Args) -> Result<(), CliError> {
    let pre = load_bundle(args)?;
    let query = args.required("query")?;
    let multiplier: f64 = args.parse_or("multiplier", 10.0)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let engine = args.engine()?;
    let workload = named_workloads(engine)
        .into_iter()
        .find(|w| w.name == query)
        .ok_or(CliError::UnknownWorkload {
            query: query.clone(),
        })?;
    let flow = workload.at(multiplier);

    let retry = retry_policy(args, RetryPolicy::default())?;
    let chaos = chaos_seed(args)?;
    let record_path = args.optional("record");
    let spec = backend_spec(args)?;
    if record_path.is_some() && spec != BackendSpec::Sim {
        return Err(CliError::Usage(
            "--record is only meaningful with --backend sim (other backends are already \
             recorded or live)"
                .to_string(),
        ));
    }
    if record_path.is_some() && chaos.is_some() {
        return Err(CliError::Usage(
            "--chaos cannot be combined with --record: traces record clean deployments".to_string(),
        ));
    }
    if let BackendSpec::Ingest(path) = &spec {
        if chaos.is_some() {
            return Err(CliError::Usage(
                "--chaos cannot be combined with --backend ingest: an ingested deployment \
                 is admitted, not tuned"
                    .to_string(),
            ));
        }
        // A dump records one fixed deployment per window — there is
        // nothing for a tuner to explore, so admit what the dump's engine
        // actually ran (the serve daemon does the same).
        let report = ingest_file(path, &ingest_config(args)?)?;
        let outcome = report.admitted();
        if outcome.final_assignment.len() != flow.num_ops() {
            return Err(CliError::Usage(format!(
                "ingested dump has {} operator(s) but workload `{query}` has {}",
                outcome.final_assignment.len(),
                flow.num_ops()
            )));
        }
        print_outcome(&query, multiplier, &flow, &outcome);
        println!(
            "admitted the deployment recorded across {} window(s) of {path}",
            report.stats.windows
        );
        return Ok(());
    }

    let mut backend = spec.open(engine, seed)?;
    if let BackendSpec::Flink(url) = &spec {
        eprintln!("connected to {url}");
    }
    let backend = backend.as_mut();
    let tune = |backend: &mut dyn ExecutionBackend| -> Result<_, CliError> {
        let mut tuner = StreamTune::new(&pre, TuneConfig::default());
        let mut session = TuningSession::new(backend, &flow).with_retry(retry);
        let outcome = tuner.tune(&mut session)?;
        Ok((
            outcome,
            session.retry_stats(),
            session.parallelism_trace().len(),
        ))
    };
    let (outcome, stats, deployments) = match (&record_path, chaos) {
        (Some(path), _) => {
            let mut recorder = TraceRecorder::new(backend);
            let result = tune(&mut recorder)?;
            recorder.into_log().save(path)?;
            eprintln!("trace recorded → {path}");
            result
        }
        (None, Some(chaos)) => tune(&mut ChaosBackend::new(backend, FaultPlan::transient(chaos)))?,
        (None, None) => tune(backend)?,
    };
    print_outcome(&query, multiplier, &flow, &outcome);
    match &spec {
        BackendSpec::Sim => {
            // Score the recommendation against the simulator's ground truth.
            let rep = engine
                .sim_cluster(seed)
                .simulate(&flow, &outcome.final_assignment);
            println!(
                "sustains sources: {:.1}%",
                rep.observation.throughput_scale * 100.0
            );
        }
        BackendSpec::Replay(path) => {
            println!("replayed {deployments} recorded deployment(s) from {path}")
        }
        _ => {}
    }
    report_faults(&stats);
    Ok(())
}

/// Build an [`IngestConfig`] from the shared dump-reading knobs.
fn ingest_config(args: &Args) -> Result<IngestConfig, CliError> {
    let base = IngestConfig::default();
    let window_secs: f64 = args.parse_or("window", base.window_secs)?;
    if !window_secs.is_finite() || window_secs <= 0.0 {
        return Err(CliError::Usage(format!(
            "--window must be a positive number of seconds, got {window_secs}"
        )));
    }
    Ok(IngestConfig {
        window_secs,
        max_parallelism: args.parse_or("max-parallelism", base.max_parallelism)?,
        engine: match args.engine()? {
            Engine::Flink => EngineMode::Flink,
            Engine::Timely => EngineMode::Timely,
        },
        source_operators: match args.optional("sources") {
            Some(sources) => sources
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect(),
            None => base.source_operators.clone(),
        },
        reconfig_wait_minutes: base.reconfig_wait_minutes,
    })
}

/// `streamtune ingest` — stream a JSONL metrics dump into a replayable
/// trace and a monitor-ready rate schedule.
fn cmd_ingest(args: &Args) -> Result<(), CliError> {
    let input = args.required("input")?;
    let report = ingest_file(&input, &ingest_config(args)?)?;
    let s = &report.stats;
    println!(
        "{input}: {} window(s) from {} row(s) ({} line(s) read)",
        s.windows, s.rows, s.lines
    );
    let skipped = s.bad_lines + s.late_rows + s.duplicate_rows + s.unknown_operator_rows;
    if skipped > 0 {
        println!(
            "skipped: {} malformed line(s), {} late row(s), {} duplicate(s), \
             {} for unknown operator(s)",
            s.bad_lines, s.late_rows, s.duplicate_rows, s.unknown_operator_rows
        );
    }
    println!("operators: {}", report.operators.join(", "));
    let lo = report
        .schedule
        .iter()
        .cloned()
        .fold(f64::INFINITY, f64::min);
    let hi = report
        .schedule
        .iter()
        .cloned()
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "rate schedule: {lo:.2}×–{hi:.2}× of the first window \
         (feed to `monitor` / the serve `watch` verb)"
    );
    if let Some(out) = args.optional("out") {
        report.log.save(&out)?;
        eprintln!("replayable trace → {out}");
    }
    Ok(())
}

fn print_outcome(
    query: &str,
    multiplier: f64,
    flow: &streamtune_dataflow::Dataflow,
    outcome: &TuneOutcome,
) {
    println!("{query} @ {multiplier}×Wu:");
    for (op, d) in outcome.final_assignment.iter() {
        println!("  {:<20} parallelism {d}", flow.op_name(op));
    }
    println!(
        "total {} | reconfigurations {} | simulated tuning time {:.0} min",
        outcome.final_assignment.total(),
        outcome.reconfigurations,
        outcome.elapsed_minutes
    );
}

/// The `--threads` selection for the serve worker pool (default `Auto`).
fn parallelism_choice(args: &Args) -> Result<Parallelism, CliError> {
    match args.optional("threads") {
        None => Ok(Parallelism::Auto),
        Some(t) => t
            .parse::<usize>()
            .map(Parallelism::Fixed)
            .map_err(|e| CliError::Usage(format!("--threads {t}: {e}"))),
    }
}

/// Build the `ServerConfig` common to `serve` and `monitor`.
fn server_config(args: &Args) -> Result<ServerConfig, CliError> {
    let parallelism = parallelism_choice(args)?;
    let mut config = if args.flag("fast") {
        ServerConfig::fast()
    } else {
        ServerConfig::default()
    }
    .with_parallelism(parallelism);
    config.ledger_cap = args.parse_or("ledger-cap", config.ledger_cap)?;
    config.retry = retry_policy(args, config.retry)?;
    config.chaos = chaos_seed(args)?;
    config.slo = slo_policy(args, config.slo)?;
    Ok(config)
}

/// Fold the `--slo-*` alarm thresholds over the default policy. A
/// threshold of `off` disables that alarm; absent flags keep the default.
fn slo_policy(
    args: &Args,
    base: streamtune_serve::SloPolicy,
) -> Result<streamtune_serve::SloPolicy, CliError> {
    fn threshold<T: std::str::FromStr>(
        args: &Args,
        key: &str,
        base: Option<T>,
    ) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        match args.optional(key) {
            None => Ok(base),
            Some(s) if s == "off" => Ok(None),
            Some(s) => s
                .parse::<T>()
                .map(Some)
                .map_err(|e| CliError::Usage(format!("--{key} {s}: {e} (or `off`)"))),
        }
    }
    let policy = streamtune_serve::SloPolicy {
        max_retry_rate: threshold(args, "slo-retry-rate", base.max_retry_rate)?,
        max_degraded_watches: threshold(args, "slo-degraded-watches", base.max_degraded_watches)?,
        max_poll_failures: threshold(args, "slo-poll-failures", base.max_poll_failures)?,
        max_handler_panics: threshold(args, "slo-handler-panics", base.max_handler_panics)?,
    };
    if policy
        .max_retry_rate
        .is_some_and(|r| !r.is_finite() || r < 0.0)
    {
        return Err(CliError::Usage(
            "--slo-retry-rate must be a finite non-negative rate (or `off`)".to_string(),
        ));
    }
    Ok(policy)
}

/// Parse a `--key SECS` duration flag (positive seconds, fractions ok).
fn duration_secs(
    args: &Args,
    key: &str,
    base: std::time::Duration,
) -> Result<std::time::Duration, CliError> {
    match args.optional(key) {
        None => Ok(base),
        Some(secs) => {
            let value = secs
                .parse::<f64>()
                .map_err(|e| CliError::Usage(format!("--{key} {secs}: {e}")))?;
            if !value.is_finite() || value <= 0.0 {
                return Err(CliError::Usage(format!(
                    "--{key} must be a positive number of seconds, got {secs}"
                )));
            }
            Ok(std::time::Duration::from_secs_f64(value))
        }
    }
}

/// Bootstrap a server over the simulated cluster (shared by `serve` and
/// `monitor`).
fn bootstrap_server(args: &Args) -> Result<Server, CliError> {
    let seed: u64 = args.parse_or("seed", 42)?;
    let jobs: usize = args.parse_or("jobs", 60)?;
    let engine = args.engine()?;
    let store = args.optional("store").map(ModelStore::new);
    let config = server_config(args)?;

    let (server, report) = Server::bootstrap(store, config, || {
        eprintln!("generating {jobs}-job corpus (seed {seed})…");
        let mut gen = HistoryGenerator::new(seed).with_jobs(jobs);
        gen.engine = engine;
        let corpus = gen.generate(&engine.sim_cluster(seed));
        eprintln!("pre-training on {} runs…", corpus.len());
        corpus
    })?;
    eprintln!(
        "model ready: {} cluster(s), {} warm-up points ({}{}{})",
        server.pretrained().clusters.len(),
        server.pretrained().total_warmup_points(),
        if report.loaded_from_store {
            "loaded from store, no retraining"
        } else if report.warm_started {
            "pre-trained warm-started from the persisted GED cache"
        } else {
            "pre-trained cold"
        },
        if report.restored_jobs > 0 {
            format!("; {} job(s) restored", report.restored_jobs)
        } else {
            String::new()
        },
        if report.resumed_jobs > 0 {
            format!(
                "; {} interrupted job(s) resumed from the journal",
                report.resumed_jobs
            )
        } else {
            String::new()
        },
    );
    Ok(server)
}

/// Build the [`TcpConfig`] for `serve --listen` from the admission-control
/// and drain knobs.
fn tcp_config(args: &Args) -> Result<TcpConfig, CliError> {
    let base = TcpConfig::default();
    let session_cap: usize = args.parse_or("session-cap", base.session_cap)?;
    if session_cap == 0 {
        return Err(CliError::Usage(
            "--session-cap must be at least 1".to_string(),
        ));
    }
    let monitor_interval = match args.optional("monitor-interval") {
        Some(_) => Some(duration_secs(
            args,
            "monitor-interval",
            std::time::Duration::from_secs(1),
        )?),
        None => None,
    };
    Ok(TcpConfig {
        session_cap,
        request_deadline: duration_secs(args, "request-deadline", base.request_deadline)?,
        retry_after_ms: args.parse_or("retry-after-ms", base.retry_after_ms)?,
        drain_timeout: duration_secs(args, "drain-timeout", base.drain_timeout)?,
        monitor_interval,
    })
}

fn cmd_serve(args: &Args) -> Result<(), CliError> {
    // Telemetry wiring comes first so bootstrap events (store recovery,
    // pretrain phase timings) land in the trace log and on stderr. The
    // daemon echoes operational (info-level) events; libraries keep the
    // quieter warn default.
    streamtune_telemetry::events().set_echo_level(Some(streamtune_telemetry::Level::Info));
    match (args.optional("trace-log"), args.optional("trace-log-cap")) {
        // Size-capped sink: rotate `path` → `path.1` at the cap, so a
        // long-lived daemon holds at most ~2×cap bytes of trace output.
        // Rotation needs to own the byte count, so the live file is
        // truncated at startup (the uncapped sink appends instead).
        (Some(path), Some(cap)) => {
            let cap: u64 = cap
                .parse()
                .map_err(|e| CliError::Usage(format!("--trace-log-cap {cap}: {e}")))?;
            if cap == 0 {
                return Err(CliError::Usage(
                    "--trace-log-cap must be a positive number of bytes".to_string(),
                ));
            }
            let writer = streamtune_telemetry::RotatingWriter::create(&path, cap).map_err(|e| {
                CliError::Io {
                    path: path.clone(),
                    message: e.to_string(),
                }
            })?;
            streamtune_telemetry::events().set_writer(Box::new(writer));
            eprintln!("tracing events to {path} (JSONL, rotating at {cap} bytes)");
        }
        (Some(path), None) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(|e| CliError::Io {
                    path: path.clone(),
                    message: e.to_string(),
                })?;
            streamtune_telemetry::events().set_writer(Box::new(file));
            eprintln!("tracing events to {path} (JSONL)");
        }
        (None, Some(_)) => {
            return Err(CliError::Usage(
                "--trace-log-cap needs --trace-log FILE to cap".to_string(),
            ));
        }
        (None, None) => {}
    }
    // Held for the daemon's lifetime: dropping it would stop the scraper.
    let _metrics_endpoint = match args.optional("metrics-listen") {
        Some(addr) => {
            let endpoint =
                streamtune_serve::spawn_metrics_endpoint(&addr).map_err(|e| CliError::Io {
                    path: addr.clone(),
                    message: e.to_string(),
                })?;
            // Resolved address, for scripts binding port 0.
            eprintln!(
                "metrics on http://{}/metrics (Prometheus text) and /metrics.json",
                endpoint.local_addr()
            );
            Some(endpoint)
        }
        None => None,
    };
    let mut server = bootstrap_server(args)?;
    match args.optional("listen") {
        Some(addr) => {
            let listener = std::net::TcpListener::bind(&addr).map_err(|e| CliError::Io {
                path: addr.clone(),
                message: e.to_string(),
            })?;
            let config = tcp_config(args)?;
            // Print the *resolved* address: `--listen 127.0.0.1:0` binds an
            // ephemeral port, and scripts need to know which one.
            let resolved = listener
                .local_addr()
                .map(|a| a.to_string())
                .unwrap_or(addr.clone());
            eprintln!(
                "listening on {resolved} — send line-delimited JSON requests \
                 (one session per client, at most {} concurrent{})",
                config.session_cap,
                if config.monitor_interval.is_some() {
                    ", background drift monitor running"
                } else {
                    ""
                }
            );
            let server = std::sync::Mutex::new(server);
            Server::serve_tcp(&server, &listener, config)?;
        }
        None => {
            eprintln!("serving line-delimited JSON on stdin/stdout");
            let stdin = std::io::stdin();
            server.serve(stdin.lock(), std::io::stdout())?;
        }
    }
    streamtune_telemetry::events().flush();
    eprintln!("server stopped");
    Ok(())
}

/// `streamtune monitor` — drive the observe→detect→adapt loop in-process:
/// tune one job, watch it with a scripted rate shift, tick the monitor,
/// and report what the adaptation policy did.
fn cmd_monitor(args: &Args) -> Result<(), CliError> {
    let query = args.required("query")?;
    let multiplier: f64 = args.parse_or("multiplier", 5.0)?;
    let shift_to: f64 = args.parse_or("shift-to", multiplier * 1.6)?;
    let shift_at: u64 = args.parse_or("shift-at", 10)?;
    let ticks: u64 = args.parse_or("ticks", 40)?;
    let seed: u64 = args.parse_or("seed", 42)?;
    let engine = args.engine()?;
    let mut server = bootstrap_server(args)?;

    let expect_ok = |response: Response| -> Result<Response, CliError> {
        match response {
            Response::Error { message } => Err(CliError::Usage(message)),
            other => Ok(other),
        }
    };
    let spec = streamtune_serve::JobSpec {
        name: "watched".to_string(),
        query: query.clone(),
        multiplier,
        seed,
        engine,
        backend: BackendSpec::Sim,
    };
    expect_ok(server.handle(&Request::Submit(spec)).0)?;
    let schedule: Vec<f64> = std::iter::repeat_n(multiplier, shift_at as usize)
        .chain([shift_to])
        .collect();
    eprintln!(
        "watching `{query}` at {multiplier}×Wu; the environment shifts to {shift_to}×Wu at \
         tick {shift_at}"
    );
    match expect_ok(
        server
            .handle(&Request::Watch {
                job: "watched".to_string(),
                schedule: Some(schedule),
            })
            .0,
    )? {
        Response::Watching { covered, .. } => {
            if !covered {
                eprintln!("DAG structure is uncovered — the first tick will grow the corpus");
            }
        }
        other => eprintln!("unexpected watch response: {other:?}"),
    }
    let Response::Ticked(report) = expect_ok(server.handle(&Request::Tick { steps: ticks }).0)?
    else {
        return Err(CliError::Usage("tick did not report".to_string()));
    };
    println!(
        "{} tick(s), {} adaptation(s):",
        report.steps,
        report.events.len()
    );
    for event in &report.events {
        println!("  {} [{}] {}", event.job, event.kind, event.detail);
    }
    if let Response::Drift(DriftReport { watches, alarms }) =
        expect_ok(server.handle(&Request::DriftStatus).0)?
    {
        for l in watches {
            println!(
                "  {}: {} after {} tick(s) — multiplier {}, {} trigger(s), {} re-tune(s)",
                l.job, l.class, l.ticks, l.multiplier, l.triggers, l.retunes
            );
        }
        for a in alarms {
            println!(
                "  ALARM {}: {} ≥ {} — {}",
                a.alarm, a.value, a.threshold, a.detail
            );
        }
    }
    Ok(())
}

fn cmd_client(args: &Args) -> Result<(), CliError> {
    let addr = args.required("connect")?;
    let io_err = |path: &str, e: std::io::Error| CliError::Io {
        path: path.to_string(),
        message: e.to_string(),
    };
    let stream = std::net::TcpStream::connect(&addr).map_err(|e| io_err(&addr, e))?;
    // One write per request on a no-delay socket: the request never waits
    // in Nagle's buffer for the daemon's delayed ACK.
    stream.set_nodelay(true).map_err(|e| io_err(&addr, e))?;
    let mut responses = BufReader::new(stream.try_clone().map_err(|e| io_err(&addr, e))?);
    let mut requests_out = stream;
    let requests: Box<dyn BufRead> = match args.optional("script") {
        Some(path) => Box::new(BufReader::new(
            std::fs::File::open(&path).map_err(|e| io_err(&path, e))?,
        )),
        None => Box::new(BufReader::new(std::io::stdin())),
    };
    for line in requests.lines() {
        let line = line.map_err(|e| io_err("request input", e))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        requests_out
            .write_all(format!("{trimmed}\n").as_bytes())
            .map_err(|e| io_err(&addr, e))?;
        let mut response = String::new();
        let n = responses
            .read_line(&mut response)
            .map_err(|e| io_err(&addr, e))?;
        if n == 0 {
            eprintln!("server closed the connection");
            break;
        }
        print!("{response}");
    }
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), CliError> {
    let pre = load_bundle(args)?;
    println!(
        "bundle: {} cluster(s){}",
        pre.clusters.len(),
        if pre.global_fallback {
            " (global fallback)"
        } else {
            ""
        }
    );
    for (i, c) in pre.clusters.iter().enumerate() {
        println!(
            "  cluster {i}: center {} node(s) / {} edge(s), {} warm-up point(s), final loss {:.4}, {} parameters",
            c.center.num_nodes(),
            c.center.num_edges(),
            c.warmup.len(),
            c.final_loss,
            c.encoder.num_parameters()
        );
    }
    Ok(())
}

fn usage() -> &'static str {
    "usage: streamtune <command> [--key value]...\n\
     commands:\n\
       pretrain  --out FILE [--jobs N] [--seed S] [--engine flink|timely] [--fast]\n\
       tune      --bundle FILE --query NAME [--multiplier M] [--seed S] [--engine flink|timely]\n\
                 [--backend sim|replay:TRACE|flink:URL|ingest:DUMP] [--record TRACE]\n\
                 [--retry-attempts N] [--retry-backoff MIN] [--chaos SEED]\n\
       ingest    --input DUMP [--out TRACE] [--window SECS] [--sources a,b]\n\
                 [--max-parallelism N] [--engine flink|timely]\n\
       inspect   --bundle FILE\n\
       workloads\n\
       serve     [--store DIR] [--listen ADDR] [--threads N] [--jobs N] [--seed S]\n\
                 [--engine flink|timely] [--fast] [--ledger-cap N] [--monitor-interval SECS]\n\
                 [--retry-attempts N] [--retry-backoff MIN] [--chaos SEED]\n\
                 [--session-cap N] [--request-deadline SECS] [--retry-after-ms MS]\n\
                 [--drain-timeout SECS] [--slo-retry-rate R|off] [--slo-degraded-watches N|off]\n\
                 [--slo-poll-failures N|off] [--slo-handler-panics N|off]\n\
                 [--metrics-listen ADDR] [--trace-log FILE] [--trace-log-cap BYTES]\n\
       client    --connect ADDR [--script FILE]\n\
       trace     --connect ADDR [--label VERB] [--export FILE]\n\
       top       --connect METRICS_ADDR [--interval SECS] [--iterations N] [--once]\n\
       monitor   --query NAME [--multiplier M] [--shift-to M2] [--shift-at T] [--ticks N]\n\
                 [--seed S] [--store DIR] [--fast]\n\
                 [--retry-attempts N] [--retry-backoff MIN] [--chaos SEED]"
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = Args::parse(&argv[1..]);
    let result = match cmd.as_str() {
        "workloads" => return cmd_workloads(),
        "pretrain" => cmd_pretrain(&args),
        "tune" => cmd_tune(&args),
        "ingest" => cmd_ingest(&args),
        "inspect" => cmd_inspect(&args),
        "serve" => cmd_serve(&args),
        "client" => cmd_client(&args),
        "monitor" => cmd_monitor(&args),
        "trace" => flight::cmd_trace(&args),
        "top" => flight::cmd_top(&args),
        "-h" | "--help" | "help" => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        other => Err(CliError::Usage(format!(
            "unknown command '{other}'\n{}",
            usage()
        ))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
