//! # StreamTune (reproduction)
//!
//! Facade crate re-exporting the whole StreamTune reproduction workspace:
//! an adaptive parallelism tuner for stream processing systems following
//! *"Learning from the Past: Adaptive Parallelism Tuning for Stream
//! Processing Systems"* (ICDE 2025), together with the backend-agnostic
//! execution API, the simulated DSPS substrate, baseline tuners (DS2,
//! ContTune, ZeroTune), workloads (Nexmark, PQP) and the model/GNN/GED
//! machinery it builds on.
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`backend`] | `streamtune-backend` | [`ExecutionBackend`](backend::ExecutionBackend) trait, [`TuningSession`](backend::TuningSession), [`Tuner`](backend::Tuner), trace record/replay, error types |
//! | [`dataflow`] | `streamtune-dataflow` | logical DAG model, Table I features |
//! | [`sim`] | `streamtune-sim` | Flink-/Timely-mode DSPS simulator (`SimCluster`, an `ExecutionBackend`) |
//! | [`nn`] | `streamtune-nn` | dense NN + GNN encoder (Eq. 1–3) |
//! | [`ged`] | `streamtune-ged` | graph edit distance + similarity search |
//! | [`cluster`] | `streamtune-cluster` | GED k-means, similarity centers |
//! | [`model`] | `streamtune-model` | monotonic SVM / GBDT / NN heads |
//! | [`core`] | `streamtune-core` | Algorithms 1–2: pre-train + online tune |
//! | [`baselines`] | `streamtune-baselines` | DS2, ContTune, ZeroTune |
//! | [`workloads`] | `streamtune-workloads` | Nexmark, PQP, rate patterns, histories |
//! | [`serve`] | `streamtune-serve` | tuning daemon: model store, job manager, control protocol |
//! | [`monitor`] | `streamtune-monitor` | drift detection: metric streams, CUSUM detectors, corpus growth |
//! | [`connect`] | `streamtune-connect` | real-engine bridge: Flink REST connector backend, streaming JSONL trace ingestion |
//! | [`telemetry`] | `streamtune-telemetry` | metrics registry (counters, gauges, log₂-bucket histograms), structured events, Prometheus exposition |
//!
//! Tuners never name a concrete engine: they drive deployments through a
//! [`TuningSession`](backend::TuningSession) over
//! `&mut dyn ExecutionBackend`. The simulator is one backend;
//! [`ReplayBackend`](backend::ReplayBackend) (canned metrics from a
//! recorded [`TraceLog`](backend::TraceLog)) is another; real-engine
//! connectors slot in the same way.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs`; the short version:
//!
//! ```no_run
//! use streamtune::backend::{Tuner, TuningSession};
//! use streamtune::prelude::*;
//! use streamtune::workloads::history::HistoryGenerator;
//! use streamtune::workloads::rates::Engine;
//!
//! // 1. A simulated cluster plus an execution-history corpus on it.
//! let mut cluster = SimCluster::flink_defaults(42);
//! let corpus = HistoryGenerator::new(7).with_jobs(40).generate(&cluster);
//! // 2. Pre-train clustered GNN encoders offline.
//! let pretrained = Pretrainer::new(PretrainConfig::fast()).run(&corpus);
//! // 3. Tune a target job online through the backend-agnostic session.
//! let mut job = nexmark::q5(Engine::Flink);
//! job.set_multiplier(10.0);
//! let mut session = TuningSession::new(&mut cluster, &job.flow);
//! let mut tuner = StreamTune::new(&pretrained, TuneConfig::default());
//! let outcome = tuner.tune(&mut session).expect("tuning failed");
//! println!("final parallelism: {}", outcome.final_assignment.total());
//! ```
//!
//! To tune against canned production metrics instead of the simulator,
//! record a session with [`TraceRecorder`](backend::TraceRecorder) and
//! replay it:
//!
//! ```no_run
//! use streamtune::backend::{ReplayBackend, TraceRecorder, Tuner, TuningSession};
//! # use streamtune::prelude::*;
//! # use streamtune::workloads::rates::Engine;
//! # fn tune_on(backend: &mut dyn streamtune::backend::ExecutionBackend) {}
//! let mut recorder = TraceRecorder::new(SimCluster::flink_defaults(42));
//! tune_on(&mut recorder); // any tuning run through a TuningSession
//! let log = recorder.into_log();
//! log.save("trace.json").unwrap();
//! let mut replay = ReplayBackend::from_file("trace.json").unwrap();
//! tune_on(&mut replay); // same observations, no simulator in the loop
//! ```
//!
//! ## Performance
//!
//! The offline pretrain → online tune hot path is engineered around four
//! mechanisms, all parity-tested against their reference implementations
//! (`tests/perf_parity.rs`):
//!
//! * **Sparse message passing** — GNN neighbour aggregation runs as CSR
//!   `spmm` over predecessor/successor lists
//!   ([`nn::sparse::CsrAdj`](nn::CsrAdj)) instead of dense `n × n`
//!   matmuls, bit-identical to the dense path (kept behind
//!   [`GnnConfig::dense_messages`](nn::GnnConfig) for tests/ablation).
//! * **Allocation-free kernels** — the autodiff [`Tape`](nn::Tape) pools
//!   every value/gradient/temporary buffer (`Tape::reset` recycles them
//!   between samples), matrix kernels work in place
//!   (`matmul_into`/`matmul_nt_into`/`matmul_tn_into`/`axpy`), and the
//!   matmul+bias+ReLU trio is fused into one tape node, so the tape does
//!   no per-step heap allocation in steady state.
//! * **Corpus-level GED cache** — [`ged::GedCache`] interns distinct DAG
//!   structures (duplicates collapse to multiplicity weights) and memoizes
//!   every capped A\* distance under the canonical pair, including
//!   one-sided bounds from threshold-pruned similarity queries. The k-means
//!   in [`cluster`] reuses one cache across farthest-first seeding, every
//!   assignment/update step and the whole elbow sweep, which is run
//!   incrementally (k grows from the converged k−1 centers) so the per-k
//!   inertia curve is non-increasing by construction.
//! * **Scoped-thread fan-out** — pairwise GED batches and the independent
//!   per-cluster training loops run under [`ged::Parallelism`]
//!   (`Auto`/`Serial`/`Fixed(n)`, on [`ClusterConfig`](cluster::ClusterConfig)
//!   and [`PretrainConfig`](core::PretrainConfig)) via `std::thread::scope`.
//!   Fan-out only partitions work — results are stitched in input order, so
//!   every thread count is bit-identical.
//!
//! Run `cargo run --release -p streamtune-bench --bin bench` to regenerate
//! `BENCH_pretrain.json` / `BENCH_recommend.json` (checked in to track the
//! perf trajectory), and `cargo bench -p streamtune-bench` for the kernel
//! micro-benchmarks. On the reference container (1 core), this PR took the
//! Fig. 9b 800-DAG pre-training sweep point from 20.8 s to 2.5 s (≈ 8×)
//! and the steady-state similarity-center update from ~810 µs to ~4.4 µs.
//!
//! ## Serving
//!
//! [`serve`] turns the library into a long-running system: `streamtune
//! serve` loads (or builds and persists) a **model store** — the
//! [`Pretrained`](core::Pretrained) bundle (superseded models rotate to
//! `model.json.bak`), a warm-start
//! [`GedCacheSnapshot`](ged::GedCacheSnapshot), the training corpus and
//! the rotated completed-job ledger, each in a versioned, FNV-checksummed
//! JSON envelope — and then answers a **line-delimited JSON control
//! protocol** (`submit`, `status`, `recommend`, `cancel`, `watch`,
//! `unwatch`, `drift_status`, `tick`, `health`, `snapshot`, `drain`,
//! `shutdown`) on stdin/stdout or a TCP listener (`--listen`), with
//! `streamtune client` as the matching pipe. TCP connections are served
//! **concurrently — one session per client** over the shared
//! [`JobManager`](serve::JobManager), bounded by an admission cap
//! (excess connections are shed with a structured `overloaded` +
//! retry-after response) and a per-request deadline; a client
//! disconnecting (cleanly or mid-line) never takes the daemon down. Many named jobs share the one
//! pre-trained corpus: each is placed once, at admission — its GED to
//! every cluster center
//! ([`Pretrained::center_distances`](core::Pretrained::center_distances)),
//! whose nearest center picks the cluster its tune and its audit record
//! reuse — and runs against
//! its *own* backend on the deterministic
//! [`Parallelism`](ged::Parallelism) worker pool, so any thread count and
//! any submission interleaving produce bit-identical per-job outcomes
//! (proven in `tests/serve_concurrency.rs`). A `snapshot`/restart/`status`
//! cycle resumes from the store without retraining, and `status` reports
//! store artifact sizes so rotation/compaction are observable. See
//! `examples/serve_quickstart.rs` for an in-process session.
//!
//! ## Monitoring — the offline → serve → monitor pipeline
//!
//! [`monitor`] closes the paper's loop: tune *once* offline, serve
//! recommendations online, then keep them good as workloads drift —
//! without ever re-running the offline phase from scratch.
//!
//! 1. **Offline** — `streamtune pretrain` (or
//!    [`Server::bootstrap`](serve::Server::bootstrap) on a store miss)
//!    builds the clustered GNN corpus and fills the
//!    [`GedCache`](ged::GedCache).
//! 2. **Serve** — jobs are submitted, assigned and tuned; results are
//!    answered from the shared model.
//! 3. **Monitor** — `watch` registers a finished job with the
//!    [`Monitor`](monitor::Monitor): a [`MetricStream`](monitor::MetricStream)
//!    polls the job's backend every tick into per-operator ring-buffer
//!    windows, and a CUSUM [`DriftDetector`](monitor::DriftDetector)
//!    (slack + hysteresis + cooldown: constant rates never trigger, a
//!    step triggers exactly once) classifies the job as `Stable`,
//!    `RateDrift` or `StructureDrift`. The adaptation policy then acts:
//!    * **rate drift** → the job is automatically re-tuned through
//!      [`JobManager::resubmit`](serve::JobManager::resubmit) at the
//!      estimated (quantized) multiplier — bit-identical to a manual
//!      re-submit at the shifted rate;
//!    * **structure drift** (DAG uncovered by the corpus, via
//!      [`structure_distance`](monitor::structure_distance)) → fresh
//!      execution records are appended and the model **re-pretrains
//!      warm** over the live GED cache
//!      ([`Pretrainer::run_with_cache`](core::Pretrainer::run_with_cache):
//!      zero A\* searches for already-cached pairs, bit-identical to a
//!      cold pre-train on the grown corpus), then the
//!      [`Pretrained`](core::Pretrained) bundle is swapped atomically,
//!      live jobs re-assigned, and the superseded model rotated to
//!      `model.json.bak`.
//!
//! Every decision is deterministic under [`Parallelism`](ged::Parallelism)
//! — monitor ticks fan watched jobs out over scoped threads and detector
//! state is bit-identical for any thread count (`tests/monitor_drift.rs`,
//! `tests/monitor_adaptation.rs`). Ticks are driven by the `tick` verb
//! (scripted) or by `streamtune serve --listen … --monitor-interval S`
//! (background wall-clock loop). `streamtune monitor` and
//! `examples/monitor_quickstart.rs` demonstrate a scripted mid-run rate
//! shift being detected and automatically re-tuned.
//!
//! ## Connecting to a real engine
//!
//! [`connect`] is the bridge out of the simulator. The pipeline has a
//! live lane and an offline lane, both ending in the same
//! backend-agnostic tuning/monitoring machinery:
//!
//! 1. **Live** — [`FlinkBackend`](connect::FlinkBackend) implements
//!    [`ExecutionBackend`](backend::ExecutionBackend) over the Flink REST
//!    surface (an in-repo HTTP/1.1 client; no new dependencies): it
//!    discovers the running job's vertices and matches them to
//!    [`Dataflow`](dataflow::Dataflow) operators by name, rescales
//!    through the parallelism-overrides endpoint, and assembles
//!    busy-time/records-per-second gauges into validated
//!    [`Observation`](backend::Observation)s. `streamtune tune --backend
//!    flink:<url>` (or a `{"flink": "<url>"}` job spec on the daemon)
//!    tunes that job exactly like a simulated one.
//! 2. **Faults compose** — transport errors, 5xx bursts and rescale
//!    races classify as *transient* `BackendError`s, a `null` gauge read
//!    mid-restart becomes the transient `CorruptObservation`, and
//!    malformed endpoints are permanent. The PR 6 machinery —
//!    [`RetryPolicy`](backend::RetryPolicy), degrade states,
//!    [`ChaosBackend`](backend::ChaosBackend) wrapping — applies to the
//!    connector unchanged, and `tests/connect_flink.rs` proves a tune
//!    over the scriptable [`MockFlinkServer`](connect::MockFlinkServer)
//!    is *bitwise* identical to the `SimCluster` run it fronts, faults
//!    or no faults.
//! 3. **Offline** — [`connect::ingest`](mod@connect::ingest) streams multi-million-row JSONL
//!    metric dumps (line at a time, per-operator accumulators, bounded
//!    memory) into replayable [`TraceLog`](backend::TraceLog)s plus
//!    monitor-ready rate schedules. `streamtune ingest --input dump.jsonl
//!    --out trace.json` then `--backend ingest:<dump>` / `replay:<trace>`
//!    turn `ReplayBackend` + `streamtune monitor` into a "what would the
//!    tuner have done" analysis over production traffic
//!    (`examples/ingest_replay.rs` walks the whole lane).
//!
//! ## Fault tolerance
//!
//! The daemon is built to keep serving through backend faults, handler
//! panics and torn writes — and every failure scenario is *replayable*:
//!
//! * **Fault model** — [`ChaosBackend`](backend::ChaosBackend) wraps any
//!   `ExecutionBackend` and injects faults from a seeded, fully
//!   deterministic [`FaultPlan`](backend::FaultPlan): transient I/O
//!   errors, failed deploys, NaN observations (per backend call, capped
//!   at `max_burst` consecutive), stale observations and crash-at-epoch
//!   (per deployment epoch). Every decision is a pure function of
//!   `(seed, fault domain, index)` — no RNG state, no wall clock.
//! * **Retry, then degrade** — [`BackendError`](backend::BackendError)s
//!   classify as transient or permanent
//!   ([`FaultClass`](backend::FaultClass));
//!   [`TuningSession`](backend::TuningSession) and
//!   [`MetricStream`](monitor::MetricStream) retry transient faults at
//!   the *same* epoch under a bounded
//!   [`RetryPolicy`](backend::RetryPolicy) with **virtual** backoff
//!   (accounted in [`RetryStats`](backend::RetryStats), never slept).
//!   Because backends key measurement noise on the epoch and retries
//!   never touch tuning bookkeeping, a run whose transient faults fit
//!   the retry budget produces **bit-identical** `TuneOutcome`s to a
//!   fault-free run — across `Serial` and `Fixed(n)` pools alike
//!   (`tests/chaos_faults.rs`, CI `chaos` job under multiple seed sets).
//!   A backend sick past the budget leaves the job `Degraded` (distinct
//!   from `Failed`) in `status`, flips its watch to `degraded` in
//!   `drift_status`, and recovers with an explicit event when polls
//!   succeed again; injected crashes are contained per job and per
//!   request (`catch_unwind`), and poisoned server locks are cleared and
//!   counted, never fatal (`tests/serve_tcp.rs` drives slowloris,
//!   mid-request disconnect and oversized-line clients).
//! * **Crash-safe store** — artifact writes are write-temp → `fsync` →
//!   atomic rename → parent-dir `fsync`; boot routes through
//!   [`ModelStore::recover_model`](serve::ModelStore::recover_model),
//!   which quarantines a corrupt `model.json` as `model.json.corrupt`
//!   and promotes `model.json.bak` in its place. A crash-consistency
//!   sweep truncating the envelope at every byte offset proves recovery
//!   always lands on the old or the new committed state, never garbage
//!   (`tests/serve_store.rs`).
//! * **Epoch-journaled resumption** — while a job tunes, every deployed
//!   epoch is appended to a sealed, `fsync`ed per-job journal
//!   ([`serve::journal`]); on restart,
//!   [`Server::bootstrap`](serve::Server::bootstrap) replays surviving
//!   journals and *resumes* interrupted jobs after the journaled prefix,
//!   landing on a `TuneOutcome` **bit-identical** to an uninterrupted
//!   run. A SIGKILL at any byte resumes-or-restarts, never serves
//!   garbage: proven by a byte-level truncation sweep
//!   (`tests/serve_store.rs`) and a child-process SIGKILL drill against
//!   the built binary (`crates/cli/tests/kill_drill.rs`, CI `kill-drill`
//!   job across seed sets and thread counts).
//! * **Graceful drain & admission control** — the `drain` verb (or
//!   `SIGTERM`) stops accepting sessions, finishes and journals
//!   in-flight work and flushes the store within `--drain-timeout`;
//!   under overload the TCP front door sheds connections past
//!   `--session-cap` and requests stuck past `--request-deadline` with
//!   structured `overloaded` (retry-after) responses while admitted
//!   sessions complete (`tests/serve_tcp.rs` flood drill).
//! * **SLO alarms** — [`SloPolicy`](serve::SloPolicy) thresholds
//!   (`--slo-retry-rate`, `--slo-degraded-watches`,
//!   `--slo-poll-failures`, `--slo-handler-panics`) project alarm lines
//!   from the live health counters; `health`/`drift_status` carry the
//!   active alarms and monitor ticks emit `alarm-raised` /
//!   `alarm-cleared` edge events. Epoch-windowed fault phases
//!   ([`FaultPlan::with_phase`](backend::FaultPlan::with_phase)) script
//!   a deterministic outage → degrade → alarm → recover → clear drill
//!   (`tests/chaos_faults.rs`).
//! * **Observability** — the `health` verb reports build/runtime info
//!   plus per-job fault/retry counters, degraded watches, poll failures,
//!   store recoveries, lock recoveries, contained handler panics, shed
//!   sessions, expired deadlines, oversized request lines and active SLO
//!   alarms ([`HealthReport`](serve::HealthReport)); the [`telemetry`]
//!   layer below adds metrics and tracing.
//!
//! ## Observability
//!
//! [`telemetry`] is a dependency-free metrics/tracing layer threaded
//! through the whole stack, and **strictly observational**: handles are
//! relaxed atomics behind a name-indexed [`Registry`](telemetry::Registry),
//! nothing reads back into tuning, and chaos-seeded runs with telemetry
//! enabled are bit-identical to runs with it disabled
//! ([`telemetry::set_enabled`], proven in `tests/telemetry.rs`).
//!
//! * **Metrics** — [`Counter`](telemetry::Counter),
//!   [`Gauge`](telemetry::Gauge) and fixed log₂-bucket
//!   [`Histogram`](telemetry::Histogram)s (64 buckets covering all of
//!   `u64`, allocation-free recording, mergeable
//!   [`HistogramSnapshot`](telemetry::HistogramSnapshot)s with
//!   deterministic quantile estimates). The stack pre-registers per-verb
//!   request latency and lock-wait histograms (serve), monitor tick
//!   durations and drift-event counts, retry/backoff timings (backend),
//!   GED cache hit/miss/filtered counters with a hit-ratio gauge, and
//!   pretrain phase timings (core).
//! * **Events & spans** — leveled structured events in a bounded ring
//!   ([`EventLog`](telemetry::EventLog)), optionally streamed as JSONL
//!   (`streamtune serve --trace-log FILE`, size-capped with
//!   `--trace-log-cap BYTES` via [`telemetry::RotatingWriter`], which
//!   rotates the live file to `FILE.1`) and echoed to stderr at or
//!   above a threshold; an event raised inside a causal span (see the
//!   flight recorder below) carries its trace and span ids. The daemon's
//!   former bare `eprintln!` lines
//!   (store recovery, SIGTERM drain, connection errors, monitor
//!   adaptations) are all events now.
//! * **Exposition** — the `metrics` protocol verb returns the registry
//!   as JSON over the control connection; `streamtune serve
//!   --metrics-listen ADDR` serves Prometheus text format 0.0.4 on
//!   `GET /metrics` (JSON on `/metrics.json`, history frames on
//!   `/metrics/history.json`) from an off-thread endpoint that never
//!   touches the daemon lock ([`serve::spawn_metrics_endpoint`]),
//!   validated in CI by the in-repo checker
//!   [`telemetry::check_prometheus`]. `health` carries
//!   `streamtune_build_info`-style version/uptime/parallelism fields.
//! * **Flight recorder** — causal tracing, a decision audit trail and a
//!   metrics time-series ring, all read-only views over state the
//!   daemon records anyway:
//!   * *span trees* — every request dispatch opens a trace
//!     ([`telemetry::trace`]): lock wait, handler, job drains, tuning
//!     epochs and backend deploys (including retries) become
//!     parent/child spans, stitched across worker threads, kept in a
//!     bounded in-memory [`TraceStore`](telemetry::trace::TraceStore).
//!     The `trace` protocol verb ([`serve::trace_value`]) returns the
//!     newest complete tree plus a pre-rendered Chrome trace-event JSON
//!     export; `streamtune trace --connect ADDR [--label VERB]
//!     [--export FILE]` prints the tree and writes the export for
//!     chrome://tracing or Perfetto.
//!   * *decision audit* — every recommendation is explained by a
//!     persisted [`DecisionRecord`](serve::DecisionRecord): DAG
//!     signature, cluster assignment with per-center distances, model
//!     generation, GED-cache provenance, chosen degrees and the
//!     rejected candidate assignments. The `explain <job>` verb serves
//!     it across daemon restarts (`tests/flight_recorder.rs`).
//!   * *metrics history* — a fixed-capacity ring of periodic
//!     registry-snapshot deltas ([`telemetry::history`](mod@telemetry::history), frames of
//!     counter deltas, gauge values and histogram quantiles) behind the
//!     `metrics_history` verb ([`serve::history_value`]) and
//!     `GET /metrics/history.json`; `streamtune top --connect
//!     METRICS_ADDR` renders new frames live. Chaos-seeded runs with
//!     tracing and audit enabled stay bit-identical to runs with
//!     telemetry off (`tests/telemetry.rs`).

pub use streamtune_backend as backend;
pub use streamtune_baselines as baselines;
pub use streamtune_cluster as cluster;
pub use streamtune_connect as connect;
pub use streamtune_core as core;
pub use streamtune_dataflow as dataflow;
pub use streamtune_ged as ged;
pub use streamtune_model as model;
pub use streamtune_monitor as monitor;
pub use streamtune_nn as nn;
pub use streamtune_serve as serve;
pub use streamtune_sim as sim;
pub use streamtune_telemetry as telemetry;
pub use streamtune_workloads as workloads;

/// Convenience prelude with the most common entry points.
pub mod prelude {
    pub use streamtune_backend::{
        BackendError, ExecutionBackend, ReplayBackend, TraceLog, TraceRecorder, TuneError,
        TuneOutcome, Tuner, TuningSession,
    };
    pub use streamtune_baselines::{ContTune, Ds2, ZeroTune};
    pub use streamtune_core::{PretrainConfig, Pretrainer, StreamTune, TuneConfig};
    pub use streamtune_dataflow::{Dataflow, DataflowBuilder, Operator, ParallelismAssignment};
    pub use streamtune_monitor::{DriftClass, DriftDetector, DriftEvent, MetricStream, Monitor};
    pub use streamtune_serve::{
        BackendSpec, JobSpec, ModelStore, Request, Response, Server, ServerConfig, StoreError,
    };
    pub use streamtune_sim::{SimCluster, SimulationReport};
    pub use streamtune_workloads::{find_workload, named_workloads, nexmark, pqp, rates};
}
