//! The tuning daemon: bootstrap, protocol dispatch, monitoring, transports.
//!
//! A [`Server`] owns the shared model corpus ([`Pretrained`] + live
//! [`GedCache`] + the execution-history corpus it was trained on), the
//! [`JobManager`], the drift [`Monitor`] and (optionally) a
//! [`ModelStore`]. It speaks the line-delimited protocol over any
//! `BufRead`/`Write` pair — stdin/stdout, an in-process byte buffer
//! (tests, examples) — and over TCP with **one session per client**: each
//! connection gets its own thread over the shared server state, so a slow
//! or crashing client never blocks (let alone kills) the daemon.
//!
//! The observe→detect→adapt loop runs through [`Server::tick_monitor`]:
//! each tick polls every watched job (deterministic
//! [`Parallelism`](streamtune_ged::Parallelism) fan-out), classifies
//! drift, and applies the adaptation policy — a rate drift re-tunes the
//! affected job through the job manager (bit-identical to a manual
//! re-submit at the shifted rate); a structure drift appends the unseen
//! DAG to the corpus, re-pretrains *warm* over the GED cache (cached
//! pairs never search again), atomically swaps the model and re-assigns
//! every live job. Ticks are driven by the `tick` protocol verb
//! (scripted, deterministic) or by the TCP transport's background
//! monitor interval (wall-clock cadence; the decisions stay
//! deterministic, only *when* they happen varies).

use crate::error::ServeError;
use crate::job::{panic_message, Job, JobManager, JobResult, JobState};
use crate::protocol::{
    parse_request, render_response, AlarmLine, BackendSpec, DriftEventLine, DriftReport,
    HealthReport, JobHealthLine, Recommendation, Request, Response, StatusReport, TickReport,
};
use crate::store::ModelStore;
use serde::Serialize;
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, TryLockError};
use std::time::{Duration, Instant};
use streamtune_backend::RetryPolicy;
use streamtune_core::{PretrainConfig, Pretrained, Pretrainer};
use streamtune_ged::{Bound, GedCache, Parallelism};
use streamtune_monitor::{
    grow_and_pretrain, grow_records, structure_distance, DriftEvent, Monitor, MonitorConfig,
    WatchSpec,
};
use streamtune_telemetry::{emit, Level};
use streamtune_workloads::find_workload;
use streamtune_workloads::history::ExecutionRecord;

use crate::expose::ServeMetrics;

/// Server settings beyond the model itself.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Pre-training configuration — used for the bootstrap cold path *and*
    /// for every incremental re-pretrain on a grown corpus.
    pub pretrain: PretrainConfig,
    /// Worker pool width for job drains and monitor ticks (any value is
    /// bit-identical; only wall-clock changes).
    pub parallelism: Parallelism,
    /// Ledger rotation: at most this many terminal jobs are kept (oldest
    /// dropped first) when snapshotting, so `jobs.json` stays bounded on
    /// long-lived daemons. The same cap bounds the in-memory decision
    /// audit trail after every drain (newest records kept), so
    /// `decisions.json` and `explain` see the same trail with or without a
    /// snapshot in between.
    pub ledger_cap: usize,
    /// Drift-monitor settings.
    pub monitor: MonitorConfig,
    /// Execution records synthesized per structure-drifted DAG before the
    /// incremental re-pretrain.
    pub grow_runs: usize,
    /// Retry policy every drained job's tuning session runs under
    /// (transient backend faults are absorbed deterministically before
    /// they can fail a job).
    pub retry: RetryPolicy,
    /// Fault-drill mode: when set, the tuning run of every `sim` job runs
    /// on deterministic transient fault injection seeded by
    /// `chaos ^ job seed` (the job's spec, journal and ledger still say
    /// `sim`, and `watch` polls the plain simulator). The storms sit inside
    /// the retry budget, so recommendations are bit-identical to a
    /// drill-free daemon — the knob exercises the fault path, it does not
    /// change answers.
    pub chaos: Option<u64>,
    /// SLO thresholds over the daemon's fault counters; crossing one
    /// raises an alarm line in `health` and `drift_status`.
    pub slo: SloPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            pretrain: PretrainConfig::default(),
            parallelism: Parallelism::Auto,
            ledger_cap: 256,
            monitor: MonitorConfig::default(),
            grow_runs: 2,
            retry: RetryPolicy::default(),
            chaos: None,
            slo: SloPolicy::default(),
        }
    }
}

/// SLO thresholds over [`HealthReport`] counters. Each threshold is
/// inclusive — the alarm raises once the observed value reaches it — and
/// `None` disables that alarm. Alarms are *stateless* projections of the
/// counters: `health` and `drift_status` recompute them on every read, and
/// [`Server::tick_monitor`] reports transitions (`alarm-raised` /
/// `alarm-cleared`) as drift events, so scripted drills observe them
/// deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct SloPolicy {
    /// Alarm when the mean retries-per-job across all admitted jobs (and
    /// their monitor streams) reaches this.
    pub max_retry_rate: Option<f64>,
    /// Alarm when this many watched jobs are simultaneously degraded.
    pub max_degraded_watches: Option<u64>,
    /// Alarm when cumulative monitor poll failures reach this.
    pub max_poll_failures: Option<u64>,
    /// Alarm when cumulative contained handler panics reach this.
    pub max_handler_panics: Option<u64>,
}

impl Default for SloPolicy {
    fn default() -> Self {
        SloPolicy {
            max_retry_rate: None,
            max_degraded_watches: Some(1),
            max_poll_failures: None,
            max_handler_panics: Some(1),
        }
    }
}

impl SloPolicy {
    /// Evaluate every configured threshold against the current counters,
    /// in fixed policy order (deterministic output).
    fn alarms(
        &self,
        jobs: &[JobHealthLine],
        degraded_watches: u64,
        poll_failures: u64,
        handler_panics: u64,
    ) -> Vec<AlarmLine> {
        let mut alarms = Vec::new();
        if let Some(threshold) = self.max_retry_rate {
            let retries: u64 = jobs.iter().map(|j| j.retries).sum();
            let value = retries as f64 / jobs.len().max(1) as f64;
            if !jobs.is_empty() && value >= threshold {
                alarms.push(AlarmLine {
                    alarm: "retry-rate".to_string(),
                    value,
                    threshold,
                    detail: format!("{retries} retries across {} job(s)", jobs.len()),
                });
            }
        }
        if let Some(threshold) = self.max_degraded_watches {
            if degraded_watches >= threshold {
                alarms.push(AlarmLine {
                    alarm: "degraded-watches".to_string(),
                    value: degraded_watches as f64,
                    threshold: threshold as f64,
                    detail: format!("{degraded_watches} watched job(s) degraded"),
                });
            }
        }
        if let Some(threshold) = self.max_poll_failures {
            if poll_failures >= threshold {
                alarms.push(AlarmLine {
                    alarm: "poll-failures".to_string(),
                    value: poll_failures as f64,
                    threshold: threshold as f64,
                    detail: format!("{poll_failures} monitor poll(s) failed past retries"),
                });
            }
        }
        if let Some(threshold) = self.max_handler_panics {
            if handler_panics >= threshold {
                alarms.push(AlarmLine {
                    alarm: "handler-panics".to_string(),
                    value: handler_panics as f64,
                    threshold: threshold as f64,
                    detail: format!("{handler_panics} request handler panic(s) contained"),
                });
            }
        }
        alarms
    }
}

/// TCP front-end counters, updated *outside* the server lock: admission
/// control must keep counting (and shedding) even while a slow request
/// holds the lock — that contention is exactly the overload it measures.
#[derive(Debug, Default)]
pub struct TcpCounters {
    /// Connections refused at the session cap.
    pub sessions_shed: AtomicU64,
    /// Requests shed because the per-request deadline expired.
    pub deadlines_expired: AtomicU64,
    /// Request lines refused for exceeding [`MAX_LINE_BYTES`].
    pub oversized_lines: AtomicU64,
}

/// TCP transport settings: admission control, deadlines, drain budget and
/// the background monitor cadence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpConfig {
    /// Concurrent client sessions admitted; connections past the cap get
    /// one `overloaded` response and are closed.
    pub session_cap: usize,
    /// How long one request may wait for the shared server before it is
    /// shed with an `overloaded` response (the session stays open).
    pub request_deadline: Duration,
    /// Backoff hint carried in `overloaded` responses.
    pub retry_after_ms: u64,
    /// How long a SIGTERM-triggered drain may wait for the server lock
    /// before the daemon exits without draining (the epoch journal still
    /// covers in-flight work).
    pub drain_timeout: Duration,
    /// Background monitor tick cadence (`None` disables).
    pub monitor_interval: Option<Duration>,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            session_cap: 64,
            request_deadline: Duration::from_secs(30),
            retry_after_ms: 250,
            drain_timeout: Duration::from_secs(30),
            monitor_interval: None,
        }
    }
}

impl ServerConfig {
    /// A reduced-cost configuration for tests and examples.
    pub fn fast() -> Self {
        ServerConfig {
            pretrain: PretrainConfig::fast(),
            ..ServerConfig::default()
        }
    }

    /// Same config with `parallelism` (worker pool + monitor fan-out).
    pub fn with_parallelism(mut self, parallelism: Parallelism) -> Self {
        self.parallelism = parallelism;
        self.monitor.parallelism = parallelism;
        self
    }
}

/// Largest `steps` one `tick` request may take (bounds how long a single
/// request can hold the shared server state).
pub const MAX_TICK_STEPS: u64 = 100_000;

/// How a [`Server`] came to own its model (for operator logging).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapReport {
    /// The model was loaded from the store — no retraining happened.
    pub loaded_from_store: bool,
    /// Pre-training ran warm-started from a persisted GED-cache snapshot.
    pub warm_started: bool,
    /// Jobs restored from the persisted ledger.
    pub restored_jobs: usize,
    /// Jobs re-queued from epoch journals a dead process left mid-tune
    /// (they resume from their last journaled epoch on the next drain).
    pub resumed_jobs: usize,
    /// Corrupt store artifacts quarantined (and, where possible, replaced
    /// from backups) during bootstrap instead of refusing to boot.
    pub store_recoveries: usize,
}

/// Daemon-level fault counters surfaced by the `health` verb.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HealthCounters {
    /// Corrupt store artifacts quarantined/recovered at bootstrap.
    pub store_recoveries: u64,
    /// Poisoned server locks recovered instead of propagating the panic.
    pub lock_recoveries: u64,
    /// Request handlers (or background monitor ticks) that panicked and
    /// were contained.
    pub handler_panics: u64,
}

/// The long-running tuning daemon.
#[derive(Debug)]
pub struct Server {
    manager: JobManager,
    cache: GedCache,
    store: Option<ModelStore>,
    corpus: Vec<ExecutionRecord>,
    monitor: Monitor,
    config: ServerConfig,
    health: HealthCounters,
    /// Shared with the TCP front end (cloned out before the accept loop)
    /// so shed/deadline/oversized counting never needs the server lock.
    tcp: Arc<TcpCounters>,
    /// Alarm names raised as of the last monitor tick, for
    /// `alarm-raised`/`alarm-cleared` transition events.
    active_alarms: Vec<String>,
}

impl Server {
    /// A server over an already-built model. `cache` is the GED cache the
    /// model was trained through (snapshotted on the `snapshot` verb);
    /// `corpus` is the history it was trained on (grown on structure
    /// drift); `store` enables `snapshot` and restart-resume.
    pub fn new(
        pretrained: Pretrained,
        cache: GedCache,
        store: Option<ModelStore>,
        corpus: Vec<ExecutionRecord>,
        config: ServerConfig,
    ) -> Self {
        crate::expose::register_build_info(config.parallelism);
        Server {
            manager: JobManager::new(pretrained, config.parallelism)
                .with_retry(config.retry)
                .with_chaos(config.chaos)
                .with_journal_dir(store.as_ref().map(|s| s.journal_dir())),
            cache,
            store,
            corpus,
            monitor: Monitor::new(config.monitor.clone()),
            config,
            health: HealthCounters::default(),
            tcp: Arc::new(TcpCounters::default()),
            active_alarms: Vec::new(),
        }
    }

    /// Build a server from the store when possible, pre-training only on
    /// a store miss.
    ///
    /// * Store has a model → load it (plus cache snapshot, corpus and job
    ///   ledger); **no retraining**.
    /// * Store has only a GED-cache snapshot (e.g. a prior run was
    ///   interrupted after clustering) → pre-train warm-started from it.
    /// * Otherwise → cold pre-train. With a store configured, the fresh
    ///   model, cache and corpus are persisted immediately.
    ///
    /// **Corrupt artifacts never block the boot**: a damaged `model.json`
    /// is quarantined and the rotated `model.json.bak` promoted in its
    /// place (falling through to a cold pre-train only when both are
    /// gone); damaged cache/corpus/ledger files are quarantined and
    /// treated as absent. Every recovery is logged to stderr and counted
    /// in [`BootstrapReport::store_recoveries`] and the `health` verb.
    ///
    /// `corpus_recipe` supplies the pre-training history and is only
    /// invoked on a store miss, so a warm start never pays corpus
    /// generation; `config.pretrain` governs both the cold path and every
    /// later incremental re-pretrain.
    pub fn bootstrap(
        store: Option<ModelStore>,
        config: ServerConfig,
        corpus_recipe: impl FnOnce() -> Vec<ExecutionRecord>,
    ) -> Result<(Self, BootstrapReport), ServeError> {
        let mut recoveries: Vec<String> = Vec::new();
        let mut recovered_model = None;
        if let Some(store) = &store {
            let recovery = store.recover_model()?;
            recoveries.extend(recovery.events);
            recovered_model = recovery.model;
        }
        if let Some(pretrained) = recovered_model {
            let store = store.as_ref().expect("a recovered model implies a store");
            let (snapshot, event) = store.read_or_quarantine(&store.ged_cache_path())?;
            recoveries.extend(event);
            let cache = match snapshot {
                Some(snapshot) => GedCache::from_snapshot(snapshot)?,
                None => GedCache::new(Bound::LabelSet, pretrained.ged_cap),
            };
            let (corpus, event) = store.read_or_quarantine(&store.corpus_path())?;
            recoveries.extend(event);
            let (ledger, event) =
                store.read_or_quarantine::<Vec<crate::job::PersistedJob>>(&store.jobs_path())?;
            recoveries.extend(event);
            let ledger = ledger.unwrap_or_default();
            let restored_jobs = ledger.len();
            let (decisions, event) =
                store.read_or_quarantine::<Vec<crate::DecisionRecord>>(&store.decisions_path())?;
            recoveries.extend(event);
            for event in &recoveries {
                emit(
                    Level::Warn,
                    "serve.store",
                    format!("store recovery: {event}"),
                );
            }
            let store_recoveries = recoveries.len();
            let mut server = Server::new(
                pretrained,
                cache,
                Some(store.clone()),
                corpus.unwrap_or_default(),
                config,
            );
            server.manager.restore(ledger)?;
            server
                .manager
                .restore_decisions(decisions.unwrap_or_default());
            // Epoch journals left by a process that died mid-tune (or
            // between admission and snapshot) re-queue their jobs with the
            // journaled prefix attached — the next drain replays it.
            let resumed_jobs = server.manager.recover_journals();
            server.health.store_recoveries = store_recoveries as u64;
            return Ok((
                server,
                BootstrapReport {
                    loaded_from_store: true,
                    warm_started: false,
                    restored_jobs,
                    resumed_jobs,
                    store_recoveries,
                },
            ));
        }
        let corpus = corpus_recipe();
        let snapshot = if let Some(store) = &store {
            let (snapshot, event) = store.read_or_quarantine(&store.ged_cache_path())?;
            recoveries.extend(event);
            snapshot
        } else {
            None
        };
        let warm_started = snapshot.is_some();
        let mut cache = match snapshot {
            Some(snapshot) => GedCache::from_snapshot(snapshot)?,
            None => GedCache::new(Bound::LabelSet, config.pretrain.cluster.ged_cap),
        };
        let pretrained =
            Pretrainer::new(config.pretrain.clone()).run_with_cache(&corpus, &mut cache);
        if let Some(store) = &store {
            store.save_model(&pretrained)?;
            store.save_ged_cache(&cache.snapshot())?;
            store.save_corpus(&corpus)?;
            // A fresh model invalidates any ledger left by a previous
            // model epoch (e.g. the operator deleted model.json to force
            // a retrain): without this, the next restart would resurrect
            // results computed under the old model as if they were new.
            store.save_jobs(&[])?;
            // The same goes for epoch journals: they recorded runs under
            // the previous model and would only replay-diverge.
            let _ = std::fs::remove_dir_all(store.journal_dir());
        }
        for event in &recoveries {
            emit(
                Level::Warn,
                "serve.store",
                format!("store recovery: {event}"),
            );
        }
        let store_recoveries = recoveries.len();
        let mut server = Server::new(pretrained, cache, store, corpus, config);
        server.health.store_recoveries = store_recoveries as u64;
        Ok((
            server,
            BootstrapReport {
                loaded_from_store: false,
                warm_started,
                restored_jobs: 0,
                resumed_jobs: 0,
                store_recoveries,
            },
        ))
    }

    /// The shared model corpus.
    pub fn pretrained(&self) -> &Pretrained {
        self.manager.pretrained()
    }

    /// The job manager (for in-process drivers and tests).
    pub fn manager(&self) -> &JobManager {
        &self.manager
    }

    /// The drift monitor (for in-process drivers and tests).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The execution-history corpus the live model was trained on.
    pub fn corpus(&self) -> &[ExecutionRecord] {
        &self.corpus
    }

    /// Drain every queued job, stamp the daemon cache's provenance
    /// counters into the decisions that run produced, and trim the audit
    /// trail to the newest `ledger_cap` records. The annotation is
    /// post-hoc by design: run workers share the corpus read-only and
    /// never see the server's [`GedCache`], so the counters describe the
    /// cache at decision-publication time — deterministic inputs only,
    /// nothing fed back into tuning.
    fn drain_jobs(&mut self) {
        self.manager.drain();
        self.manager
            .annotate_cache(self.cache.stats(), self.cache.len() as u64);
        self.manager.trim_decisions(self.config.ledger_cap);
    }

    /// Persist model, GED cache, corpus, (rotated) job ledger and the
    /// decision audit trail.
    fn snapshot(&mut self) -> Result<String, ServeError> {
        // Drain first so the ledger only holds terminal states (the drain
        // also trims the audit trail); compact so the ledger stays bounded
        // on long-lived daemons.
        self.drain_jobs();
        self.manager.compact(self.config.ledger_cap);
        let store = self.store.as_ref().ok_or(ServeError::NoStore)?;
        store.save_model(self.manager.pretrained())?;
        store.save_ged_cache(&self.cache.snapshot())?;
        store.save_corpus(&self.corpus)?;
        store.save_jobs(&self.manager.persistable())?;
        store.save_decisions(self.manager.decisions())?;
        // Every result the journals were protecting is now in the ledger;
        // journals for terminal jobs are dead weight.
        self.manager.sweep_journals();
        Ok(store.dir().display().to_string())
    }

    /// The admitted job `name`.
    fn known_job(&self, name: &str) -> Result<&Job, ServeError> {
        self.manager
            .job(name)
            .ok_or_else(|| ServeError::UnknownJob {
                name: name.to_string(),
            })
    }

    /// The admitted job `name` and its result, which only a job that ran
    /// to completion has.
    fn finished_job(&self, name: &str) -> Result<(&Job, &JobResult), ServeError> {
        let job = self.known_job(name)?;
        match &job.state {
            JobState::Done(result) => Ok((job, result)),
            other => Err(ServeError::NoResult {
                name: name.to_string(),
                state: other.name().to_string(),
            }),
        }
    }

    /// Register a finished job with the drift monitor. Returns whether its
    /// DAG structure is covered by the pre-trained corpus.
    fn watch_job(&mut self, name: &str, schedule: Option<Vec<f64>>) -> Result<bool, ServeError> {
        self.drain_jobs();
        let (job, result) = self.finished_job(name)?;
        if matches!(job.spec.backend, BackendSpec::Replay(_)) {
            return Err(ServeError::NotWatchable {
                name: name.to_string(),
            });
        }
        let spec = job.spec.clone();
        let assignment = result.outcome.final_assignment.clone();
        let workload =
            find_workload(&spec.query, spec.engine).ok_or_else(|| ServeError::UnknownWorkload {
                query: spec.query.clone(),
            })?;
        let flow = workload.at(spec.multiplier);
        let distance = structure_distance(&mut self.cache, &flow, self.manager.pretrained());
        let covered = distance <= self.config.monitor.detector.structure_tau;
        // The monitor polls a freshly opened backend of the job's own spec:
        // the same seeded cluster (a chaos job keeps its fault plan; the
        // stream's retry loop and the monitor's degrade policy absorb it),
        // a new connection to a live job, or a dump replayed from its first
        // window. Monitor epochs are disjoint from tuning epochs, so the
        // readings are fresh. The chaos drill wraps tuning runs only.
        let backend = spec
            .backend
            .open(spec.engine, spec.seed)
            .map_err(|e| ServeError::Io {
                context: format!(
                    "open the {} backend to watch `{}`",
                    spec.backend.name(),
                    spec.name
                ),
                message: e.to_string(),
            })?;
        self.monitor.watch(
            WatchSpec {
                name: spec.name,
                workload,
                multiplier: spec.multiplier,
                schedule,
                assignment,
                structure_covered: covered,
            },
            backend,
        )?;
        Ok(covered)
    }

    /// Re-tune `job` at `multiplier` through the job manager and tell the
    /// monitor about the new deployment. The re-tune re-runs the job as a
    /// pure function of `(pretrained, spec)`, so it is bit-identical to a
    /// manual re-submit at the same rate.
    fn retune(&mut self, job: &str, multiplier: f64) -> Result<(), ServeError> {
        let mut spec = self.known_job(job)?.spec.clone();
        spec.multiplier = multiplier;
        self.manager.resubmit(spec)?;
        self.drain_jobs();
        let (_, result) = self.finished_job(job)?;
        let assignment = result.outcome.final_assignment.clone();
        self.monitor.on_retuned(job, assignment, multiplier)?;
        Ok(())
    }

    /// Grow the corpus to cover `job`'s DAG, re-pretrain warm, swap the
    /// model in, re-assign live jobs and re-tune the drifted job under
    /// the new model. Returns a human-readable summary.
    fn grow_for(&mut self, job: &str) -> Result<String, ServeError> {
        if self.corpus.is_empty() {
            return Err(ServeError::NoCorpus);
        }
        let spec = self.known_job(job)?.spec.clone();
        let workload =
            find_workload(&spec.query, spec.engine).ok_or_else(|| ServeError::UnknownWorkload {
                query: spec.query.clone(),
            })?;
        let new_records = grow_records(&workload, spec.engine, spec.seed, self.config.grow_runs);
        let (pretrained, report) = grow_and_pretrain(
            &self.config.pretrain,
            &mut self.corpus,
            new_records,
            &mut self.cache,
        );
        let reassigned = self.manager.swap_pretrained(pretrained);
        self.monitor.mark_structure_covered(job)?;
        self.retune(job, spec.multiplier)?;
        if let Some(store) = &self.store {
            store.save_model(self.manager.pretrained())?;
            store.save_ged_cache(&self.cache.snapshot())?;
            store.save_corpus(&self.corpus)?;
        }
        Ok(format!(
            "corpus grew by {} to {} record(s); warm re-pretrain ran {} A* search(es) into {} \
             cluster(s); {} job(s) re-assigned",
            report.added_records,
            report.corpus_records,
            report.new_searches,
            report.clusters,
            reassigned
        ))
    }

    /// Apply the adaptation policy to one detected drift.
    fn apply_drift(&mut self, event: DriftEvent) -> DriftEventLine {
        match event {
            DriftEvent::RateDrift {
                job,
                from_multiplier,
                to_multiplier,
            } => {
                let detail = match self.retune(&job, to_multiplier) {
                    Ok(()) => {
                        format!("re-tuned at {from_multiplier} → {to_multiplier}×Wu")
                    }
                    Err(e) => format!("re-tune failed: {e}"),
                };
                DriftEventLine {
                    job,
                    kind: "rate-drift".to_string(),
                    detail,
                }
            }
            DriftEvent::StructureDrift { job } => {
                let detail = match self.grow_for(&job) {
                    Ok(summary) => summary,
                    Err(e) => format!("incremental re-pretrain failed: {e}"),
                };
                DriftEventLine {
                    job,
                    kind: "structure-drift".to_string(),
                    detail,
                }
            }
            DriftEvent::PollFailed { job, message } => DriftEventLine {
                job,
                kind: "poll-failed".to_string(),
                detail: message,
            },
            DriftEvent::Degraded { job, message } => DriftEventLine {
                job,
                kind: "degraded".to_string(),
                detail: message,
            },
            DriftEvent::Recovered { job } => DriftEventLine {
                job,
                kind: "recovered".to_string(),
                detail: "backend answering again; drift detection resumed".to_string(),
            },
        }
    }

    /// Assemble the fault-tolerance ledger for the `health` verb. Pure
    /// observability: reads counters, runs nothing, perturbs nothing.
    fn health_report(&self) -> HealthReport {
        let jobs: Vec<JobHealthLine> = self
            .manager
            .jobs()
            .iter()
            .map(|j| {
                // A watched job's monitor stream retries independently of
                // the tuning runs; its counters belong to the same job.
                let mut retry = j.retry();
                if let Some(stream) = self.monitor.stream_retry_stats(&j.spec.name) {
                    retry.absorb(&stream);
                }
                JobHealthLine {
                    job: j.spec.name.clone(),
                    state: j.state.name().to_string(),
                    transient_faults: retry.transient_faults,
                    retries: retry.retries,
                    exhausted: retry.exhausted,
                    permanent_failures: retry.permanent_failures,
                    backoff_minutes: retry.backoff_minutes,
                }
            })
            .collect();
        let drift = self.monitor.status();
        let degraded_watches = drift.iter().filter(|line| line.degraded).count() as u64;
        let poll_failures = drift.iter().map(|line| line.poll_failures).sum();
        let alarms = self.config.slo.alarms(
            &jobs,
            degraded_watches,
            poll_failures,
            self.health.handler_panics,
        );
        HealthReport {
            version: env!("CARGO_PKG_VERSION").to_string(),
            uptime_seconds: crate::expose::uptime_seconds(),
            parallelism: crate::expose::parallelism_label(self.config.parallelism),
            jobs,
            watched: drift.len() as u64,
            degraded_watches,
            poll_failures,
            store_recoveries: self.health.store_recoveries,
            lock_recoveries: self.health.lock_recoveries,
            handler_panics: self.health.handler_panics,
            sessions_shed: self.tcp.sessions_shed.load(Ordering::Relaxed),
            deadlines_expired: self.tcp.deadlines_expired.load(Ordering::Relaxed),
            oversized_lines: self.tcp.oversized_lines.load(Ordering::Relaxed),
            alarms,
        }
    }

    /// Advance the monitor by `steps` observe→detect→adapt ticks,
    /// applying the adaptation policy to every detected drift.
    pub fn tick_monitor(&mut self, steps: u64) -> TickReport {
        // A child under the `tick` verb's request span, a root of its own
        // when the background loop drives the tick.
        let mut span =
            streamtune_telemetry::span_or_root("monitor_tick", "serve.monitor", "monitor_tick");
        span.add_field("steps", steps);
        let mut events = Vec::new();
        for _ in 0..steps {
            for event in self.monitor.tick() {
                events.push(self.apply_drift(event));
            }
        }
        // Every tick also lands one metrics-history frame, so the delta
        // ring advances at the monitor cadence without any scraper.
        crate::expose::record_history_frame();
        // SLO alarm transitions ride the tick stream: the alarms
        // themselves are stateless projections of the counters, so only
        // the *edges* need announcing.
        let alarms = self.health_report().alarms;
        for alarm in &alarms {
            if !self.active_alarms.contains(&alarm.alarm) {
                events.push(DriftEventLine {
                    job: "daemon".to_string(),
                    kind: "alarm-raised".to_string(),
                    detail: format!(
                        "{}: {} reached threshold {} ({})",
                        alarm.alarm, alarm.value, alarm.threshold, alarm.detail
                    ),
                });
            }
        }
        for name in &self.active_alarms {
            if !alarms.iter().any(|a| &a.alarm == name) {
                events.push(DriftEventLine {
                    job: "daemon".to_string(),
                    kind: "alarm-cleared".to_string(),
                    detail: format!("{name}: back under threshold"),
                });
            }
        }
        self.active_alarms = alarms.into_iter().map(|a| a.alarm).collect();
        TickReport {
            steps,
            watched: self.monitor.watched() as u64,
            events,
        }
    }

    /// Serve one request. Returns the response and whether the server
    /// should stop after sending it. Every request lands in the per-verb
    /// `streamtune_requests_total` / `streamtune_request_duration_nanoseconds`
    /// series — recording is observational, the response is computed first.
    pub fn handle(&mut self, request: &Request) -> (Response, bool) {
        let started = Instant::now();
        // Nested under the transport's dispatch span over TCP; the root
        // of its own trace over stdio / in-process buffers.
        let _span = streamtune_telemetry::span_or_root(
            request.verb(),
            "serve.handle",
            format!("handle:{}", request.verb()),
        );
        let response = self.answer(request).unwrap_or_else(|e| Response::Error {
            message: e.to_string(),
        });
        ServeMetrics::get().record_request(request.verb(), started.elapsed());
        (
            response,
            matches!(request, Request::Shutdown | Request::Drain),
        )
    }

    /// The reply to one request; a [`ServeError`] becomes its `error` reply.
    fn answer(&mut self, request: &Request) -> Result<Response, ServeError> {
        Ok(match request {
            Request::Submit(spec) => Response::Submitted {
                job: spec.name.clone(),
                cluster: self.manager.submit(spec.clone())?,
            },
            Request::Status => {
                self.drain_jobs();
                Response::Status(StatusReport {
                    jobs: self.manager.status_lines(),
                    store: self.store.as_ref().map(|s| s.stats()),
                })
            }
            Request::Recommend { job } => {
                self.drain_jobs();
                let (j, result) = self.finished_job(job)?;
                Response::Recommendation(Recommendation {
                    job: job.clone(),
                    query: j.spec.query.clone(),
                    cluster: result.cluster,
                    op_names: result.op_names.to_vec(),
                    degrees: result.outcome.final_assignment.as_slice().to_vec(),
                    total: result.outcome.final_assignment.total(),
                    reconfigurations: result.outcome.reconfigurations,
                    backpressure_events: result.outcome.backpressure_events,
                    elapsed_minutes: result.outcome.elapsed_minutes,
                    iterations: result.outcome.iterations,
                    converged: result.outcome.converged,
                })
            }
            Request::Cancel { job } => {
                self.manager.cancel(job)?;
                Response::Cancelled { job: job.clone() }
            }
            Request::Watch { job, schedule } => Response::Watching {
                job: job.clone(),
                covered: self.watch_job(job, schedule.clone())?,
            },
            Request::Unwatch { job } => {
                self.monitor.unwatch(job)?;
                Response::Unwatched { job: job.clone() }
            }
            Request::DriftStatus => Response::Drift(DriftReport {
                watches: self.monitor.status(),
                alarms: self.health_report().alarms,
            }),
            Request::Health => Response::Health(self.health_report()),
            Request::Metrics => Response::Metrics(crate::expose::metrics_value()),
            // One request must not hold the shared server lock for an
            // unbounded time: a huge (or fat-fingered) steps value would
            // freeze every other client and the background loop.
            Request::Tick { steps } if *steps > MAX_TICK_STEPS => Response::Error {
                message: format!(
                    "tick steps {steps} exceeds the per-request cap {MAX_TICK_STEPS} \
                     (send several smaller ticks instead)"
                ),
            },
            Request::Tick { steps } => Response::Ticked(self.tick_monitor(*steps)),
            Request::Snapshot => Response::Snapshotted {
                dir: self.snapshot()?,
            },
            // Graceful drain: finish every queued job (journaling as it
            // goes), flush the store when one is configured, then stop.
            // Storeless daemons still drain — their results just live only
            // in the reply stream.
            Request::Drain => {
                let dir = match self.snapshot() {
                    Ok(dir) => Some(dir),
                    Err(ServeError::NoStore) => {
                        self.drain_jobs();
                        None
                    }
                    Err(e) => {
                        return Ok(Response::Error {
                            message: format!("drain: {e}"),
                        })
                    }
                };
                Response::Draining {
                    jobs: self.manager.jobs().len() as u64,
                    dir,
                }
            }
            // Flight-recorder verbs: read the global trace store, the
            // decision trail and the metrics-history ring. All three are
            // raw JSON payloads (forward-compatible, like `metrics`).
            Request::Trace { label } => {
                Response::Trace(crate::expose::trace_value(label.as_deref()))
            }
            Request::Explain { job } => {
                // Drain first: an `explain` right after `submit` should
                // answer for the run it implies, like `recommend` does.
                self.drain_jobs();
                match self.manager.decision_for(job) {
                    Some(decision) => Response::Explained(decision.serialize()),
                    None => Response::Error {
                        message: format!(
                            "no decision recorded for job `{job}` (it never completed a \
                             tuning run, or the trail was compacted past it)"
                        ),
                    },
                }
            }
            Request::MetricsHistory => {
                // Each read appends a frame first, so scripted stdio
                // sessions (no endpoint, no background ticks) still see
                // their own interval.
                crate::expose::record_history_frame();
                Response::MetricsHistory(crate::expose::history_value())
            }
            Request::Shutdown => Response::ShuttingDown,
        })
    }

    /// Serve line-delimited requests from `input`, writing one response
    /// line each to `output`, until `shutdown`, end of input, or an I/O
    /// failure. Blank lines and `#` comment lines are skipped (so scripts
    /// can be annotated). Returns whether `shutdown` was received.
    pub fn serve(
        &mut self,
        input: impl BufRead,
        mut output: impl Write,
    ) -> Result<bool, ServeError> {
        let io_err = |context: &str, e: std::io::Error| ServeError::Io {
            context: context.to_string(),
            message: e.to_string(),
        };
        for line in input.lines() {
            let line = line.map_err(|e| io_err("read request", e))?;
            let Some((response, stop)) = answer_line(&line, |request| self.handle(request)) else {
                continue;
            };
            write_reply(&mut output, &response).map_err(|e| io_err("write response", e))?;
            if stop {
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Serve TCP connections **concurrently**: every accepted client gets
    /// its own session thread over the shared server state (one request is
    /// handled at a time under the lock; the parallelism lives in the
    /// worker pool under `drain` and the monitor fan-out, where it is
    /// deterministic). A connection-level failure — a client resetting the
    /// socket mid-session, a broken pipe on the response, half a line at
    /// disconnect — ends only that connection (logged to stderr); the
    /// daemon keeps accepting. Only a broken *listener* is fatal. Returns
    /// once any client sends `shutdown` or `drain`.
    ///
    /// **Admission control** (see [`TcpConfig`]): at most `session_cap`
    /// concurrent sessions; a connection past the cap receives one
    /// structured `overloaded` response (with a retry-after hint) and is
    /// closed — the daemon sheds load instead of queueing it without
    /// bound. A request that cannot take the shared server lock within
    /// `request_deadline` is likewise answered `overloaded` (the session
    /// survives). Both are counted in `health` without touching the
    /// server lock.
    ///
    /// **Background monitor**: with `monitor_interval` set, the accept
    /// loop takes one observe→detect→adapt tick whenever the interval
    /// elapses (logging applied adaptations to stderr).
    ///
    /// **Graceful drain**: a SIGTERM (Unix) behaves like a `drain` verb
    /// from the outside: stop accepting, finish and journal in-flight
    /// work, flush the store, exit. If the server lock cannot be taken
    /// within `drain_timeout` (a wedged handler), the daemon exits
    /// without draining — the epoch journal still covers every observed
    /// epoch, so a restart resumes rather than recomputes.
    pub fn serve_tcp(
        server: &Mutex<Server>,
        listener: &TcpListener,
        config: TcpConfig,
    ) -> Result<(), ServeError> {
        listener.set_nonblocking(true).map_err(|e| ServeError::Io {
            context: "set listener nonblocking".to_string(),
            message: e.to_string(),
        })?;
        install_sigterm_handler();
        let tcp = lock_server(server, None)
            .expect("an unbounded wait takes the lock")
            .tcp
            .clone();
        let shutdown = AtomicBool::new(false);
        let sessions = AtomicUsize::new(0);
        let mut last_tick = Instant::now();
        let mut fatal: Option<ServeError> = None;
        std::thread::scope(|scope| {
            while !shutdown.load(Ordering::SeqCst) {
                if sigterm_pending() {
                    emit(
                        Level::Warn,
                        "serve.tcp",
                        "SIGTERM: draining (finish + journal in-flight work, flush store)",
                    );
                    drain_on_term(server, config.drain_timeout);
                    shutdown.store(true, Ordering::SeqCst);
                    break;
                }
                match listener.accept() {
                    Ok((mut stream, peer)) => {
                        // The cap counts *admitted* sessions; shed beyond
                        // it with a structured response, never silence.
                        if sessions.load(Ordering::SeqCst) >= config.session_cap {
                            tcp.sessions_shed.fetch_add(1, Ordering::Relaxed);
                            let response = Response::Overloaded {
                                retry_after_ms: config.retry_after_ms,
                                reason: "session-cap".to_string(),
                            };
                            let _ = write_reply(&mut stream, &response);
                            continue;
                        }
                        sessions.fetch_add(1, Ordering::SeqCst);
                        let peer = peer.to_string();
                        let shutdown = &shutdown;
                        let sessions = &sessions;
                        let tcp = &tcp;
                        scope.spawn(move || {
                            if let Err(e) = serve_connection(server, stream, shutdown, tcp, &config)
                            {
                                emit(
                                    Level::Warn,
                                    "serve.tcp",
                                    format!("connection from {peer} ended: {e}"),
                                );
                            }
                            sessions.fetch_sub(1, Ordering::SeqCst);
                        });
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if let Some(interval) = config.monitor_interval {
                            if last_tick.elapsed() >= interval {
                                last_tick = Instant::now();
                                background_tick(server);
                            }
                        }
                        std::thread::sleep(Duration::from_millis(20));
                    }
                    Err(e) => {
                        fatal = Some(ServeError::Io {
                            context: "accept connection".to_string(),
                            message: e.to_string(),
                        });
                        shutdown.store(true, Ordering::SeqCst);
                    }
                }
            }
        });
        match fatal {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

/// One background monitor tick, its applied adaptations logged to stderr
/// and a panic contained.
fn background_tick(server: &Mutex<Server>) {
    let mut guard = lock_server(server, None).expect("an unbounded wait takes the lock");
    match contain(&mut guard, |server| server.tick_monitor(1)) {
        Ok(report) => {
            for event in &report.events {
                emit(
                    Level::Info,
                    "serve.monitor",
                    format!("{} [{}] {}", event.job, event.kind, event.detail),
                );
            }
        }
        Err(message) => emit(
            Level::Error,
            "serve.monitor",
            format!("background tick panicked (contained): {message}"),
        ),
    }
}

/// Run the drain sequence for a SIGTERM, waiting at most `timeout` for
/// the server lock. A lock that never frees means a wedged handler; the
/// journal already holds every observed epoch, so exiting without the
/// final flush loses nothing that matters.
fn drain_on_term(server: &Mutex<Server>, timeout: Duration) {
    let Some(mut guard) = lock_server(server, Some(timeout)) else {
        emit(
            Level::Error,
            "serve.tcp",
            format!(
                "SIGTERM drain: server lock still held after {timeout:?}; exiting on the journal"
            ),
        );
        return;
    };
    let (response, _) = guard.handle(&Request::Drain);
    emit(
        Level::Warn,
        "serve.tcp",
        format!("SIGTERM drain: {}", render_response(&response)),
    );
}

#[cfg(unix)]
mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the signal handler, consumed by the accept loop.
    static TERM: AtomicBool = AtomicBool::new(false);

    /// Only async-signal-safe work here: set a flag and return.
    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        // `signal(2)` via libc (already linked by std on Unix): the
        // workspace is dependency-free, so no signal-handling crate.
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
        }
    }

    pub fn pending() -> bool {
        TERM.swap(false, Ordering::SeqCst)
    }
}

/// Install the SIGTERM→drain flag handler (no-op off Unix).
fn install_sigterm_handler() {
    #[cfg(unix)]
    sigterm::install();
}

/// Whether a SIGTERM arrived since the last check (always false off Unix).
fn sigterm_pending() -> bool {
    #[cfg(unix)]
    return sigterm::pending();
    #[cfg(not(unix))]
    false
}

/// Largest request line a connection may send (bytes, newline excluded).
/// A client streaming an endless line would otherwise grow the session
/// buffer without bound; at the cap the daemon answers with an error and
/// closes only that connection.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// Lock the shared server — the only place the server mutex is taken.
///
/// With `patience`, the lock is polled every millisecond instead of
/// blocked on, and `None` comes back once `patience` has passed without
/// it; without, the wait is unbounded and always ends with the lock.
/// Every taken lock records its wait in the lock-wait histogram.
///
/// A poisoned lock is *recovered*. The lock only poisons if a panic
/// escaped while it was held; request handlers and background ticks run
/// under [`contain`], so poison here means a panic escaped some unguarded
/// path. The state itself is still consistent enough to serve (handlers
/// mutate through `&mut self` in small steps and jobs are independent),
/// and a daemon that answers `error` beats one that unwinds every
/// connection thread — so recover, count it, and keep serving.
fn lock_server(
    server: &Mutex<Server>,
    patience: Option<Duration>,
) -> Option<MutexGuard<'_, Server>> {
    let start = Instant::now();
    let locked = match patience {
        None => server.lock(),
        Some(patience) => loop {
            match server.try_lock() {
                Ok(guard) => break Ok(guard),
                Err(TryLockError::Poisoned(poisoned)) => break Err(poisoned),
                Err(TryLockError::WouldBlock) if start.elapsed() >= patience => return None,
                Err(TryLockError::WouldBlock) => std::thread::sleep(Duration::from_millis(1)),
            }
        },
    };
    let guard = locked.unwrap_or_else(|poisoned| {
        server.clear_poison();
        let mut guard = poisoned.into_inner();
        guard.health.lock_recoveries += 1;
        emit(
            Level::Error,
            "serve.lock",
            "server lock was poisoned; recovered and serving on",
        );
        guard
    });
    ServeMetrics::get().record_lock_wait(start.elapsed());
    Some(guard)
}

/// Run `work` on the locked server, containing a panic: it is counted in
/// `handler_panics` and its message comes back as the error. Because the
/// guard outlives the `catch_unwind` closure, the lock is then released
/// normally — not poisoned.
fn contain<T>(server: &mut Server, work: impl FnOnce(&mut Server) -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| work(server))).map_err(|payload| {
        server.health.handler_panics += 1;
        panic_message(payload.as_ref()).to_string()
    })
}

/// Answer one request line: trim it, skip it (`None`) when blank or a `#`
/// comment, else parse it and hand the request to `answer` — or reply
/// `bad request` when it does not parse. The stdio and TCP transports
/// both serve their lines through here.
fn answer_line(
    line: &str,
    answer: impl FnOnce(&Request) -> (Response, bool),
) -> Option<(Response, bool)> {
    let line = line.trim();
    if line.is_empty() || line.starts_with('#') {
        return None;
    }
    Some(match parse_request(line) {
        Ok(request) => answer(&request),
        Err(e) => (
            Response::Error {
                message: format!("bad request: {e}"),
            },
            false,
        ),
    })
}

/// Dispatch one parsed TCP request under the shared lock, waiting for it
/// at most `request_deadline`: a request that cannot be served in time is
/// shed with an `overloaded` response (counted in `tcp`), so one slow
/// drain cannot stack every other session behind it without bound. A
/// handler panic becomes an `error` response.
fn dispatch(
    server: &Mutex<Server>,
    request: &Request,
    tcp: &TcpCounters,
    config: &TcpConfig,
) -> (Response, bool) {
    // One trace per TCP request, labeled by verb: the lock wait and the
    // handler (and everything the handler fans out to) nest under it.
    let _root = streamtune_telemetry::root_span(request.verb(), "serve.dispatch", "dispatch");
    let lock_span = streamtune_telemetry::child_span("serve.dispatch", "lock_acquire");
    let Some(mut guard) = lock_server(server, Some(config.request_deadline)) else {
        tcp.deadlines_expired.fetch_add(1, Ordering::Relaxed);
        return (
            Response::Overloaded {
                retry_after_ms: config.retry_after_ms,
                reason: "deadline".to_string(),
            },
            false,
        );
    };
    // Close the lock-wait span before the handler runs: the handler's
    // span is a *sibling* of the wait, not its child.
    drop(lock_span);
    contain(&mut guard, |server| server.handle(request)).unwrap_or_else(|message| {
        (
            Response::Error {
                message: format!("internal error: request handler panicked: {message}"),
            },
            false,
        )
    })
}

/// Send `response` as one protocol line: render, append the newline, then
/// one `write_all` and one `flush`. A reply written in two parts would
/// leave its second part in Nagle's buffer until the client's delayed ACK
/// (~40 ms per request); one write on a `TCP_NODELAY` socket goes out at
/// once.
fn write_reply(out: &mut impl Write, response: &Response) -> std::io::Result<()> {
    let mut line = render_response(response);
    line.push('\n');
    out.write_all(line.as_bytes())?;
    out.flush()
}

/// One client session over the shared server. Reads with a short timeout
/// so the thread notices a daemon-wide shutdown even while its client is
/// idle; partial lines survive timeouts (the buffer accumulates until the
/// newline arrives), but only up to [`MAX_LINE_BYTES`].
fn serve_connection(
    server: &Mutex<Server>,
    stream: TcpStream,
    shutdown: &AtomicBool,
    tcp: &TcpCounters,
    config: &TcpConfig,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    let mut buf = String::new();
    let refuse_oversized = |writer: &mut TcpStream, got: usize| -> std::io::Result<()> {
        tcp.oversized_lines.fetch_add(1, Ordering::Relaxed);
        let response = Response::Error {
            message: format!(
                "request line exceeds {MAX_LINE_BYTES} bytes (got at least {got}); \
                 closing connection"
            ),
        };
        write_reply(writer, &response)
    };
    loop {
        match reader.read_line(&mut buf) {
            Ok(0) => return Ok(()), // client disconnected
            Ok(_) => {
                if buf.len() > MAX_LINE_BYTES {
                    return refuse_oversized(&mut writer, buf.len());
                }
                let reply = answer_line(&buf, |request| dispatch(server, request, tcp, config));
                buf.clear();
                let Some((response, stop)) = reply else {
                    continue;
                };
                write_reply(&mut writer, &response)?;
                if stop {
                    shutdown.store(true, Ordering::SeqCst);
                    return Ok(());
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                // `read_line` appends whatever arrived before the timeout,
                // so an endless unterminated line grows `buf` here too.
                if buf.len() > MAX_LINE_BYTES {
                    return refuse_oversized(&mut writer, buf.len());
                }
                if shutdown.load(Ordering::SeqCst) {
                    return Ok(());
                }
            }
            Err(e) => return Err(e),
        }
    }
}
