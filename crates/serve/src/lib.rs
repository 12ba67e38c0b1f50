//! `streamtune-serve` — the long-running tuning service.
//!
//! The paper's end state is an *online* tuner: one pre-trained model
//! corpus serving recommendation requests for many concurrently running
//! stream jobs, re-tuning them as their workloads drift. This crate turns
//! the workspace's library pieces into that system:
//!
//! * [`store`] — the **persistent model store**: the serialized
//!   [`Pretrained`](streamtune_core::Pretrained) bundle (superseded models
//!   rotate to `model.json.bak`), a warm-start
//!   [`GedCacheSnapshot`](streamtune_ged::GedCacheSnapshot), the training
//!   corpus (so the model can grow) and the rotated completed-job ledger,
//!   each wrapped in a versioned, FNV-checksummed envelope (unknown future
//!   fields tolerated; corruption is an explicit error, never a panic);
//! * [`job`] — the **job manager**: admits named jobs, assigns each to
//!   its cluster at admission, and drains queued jobs in deterministic
//!   [`Parallelism`](streamtune_ged::Parallelism) batches — every job
//!   owns its backend and fine-tuning state, so any thread count and any
//!   submission interleaving produce bit-identical per-job outcomes.
//!   Monitor-triggered re-tunes go through [`JobManager::resubmit`] and
//!   are bit-identical to manual re-submits at the shifted rate; model
//!   swaps go through [`JobManager::swap_pretrained`]. Jobs with no
//!   memory share each cluster's first-iteration `M_f`
//!   ([`WarmFits`](streamtune_core::WarmFits), fitted once per model),
//!   which changes no decision;
//! * [`protocol`] — the **line-delimited JSON control protocol**
//!   (`submit` / `status` / `recommend` / `cancel` / `watch` / `unwatch` /
//!   `drift_status` / `tick` / `health` / `metrics` / `snapshot` /
//!   `drain` / `trace` / `explain` / `metrics_history` / `shutdown`),
//!   identical over stdio, in-process buffers and TCP. A job's
//!   [`BackendSpec`] names its backend family, and [`BackendSpec::open`]
//!   is the one constructor of job backends: the tuning run, the `watch`
//!   poll and the CLI's `tune` all open through it, each keeping its own
//!   policy around it (the chaos drill, `--chaos`/`--record`, which
//!   failures degrade);
//! * [`decision`] — the **decision audit trail**: every recommendation
//!   captures a [`DecisionRecord`] (DAG signature, cluster assignment and
//!   center distances, model generation, GED-cache provenance, chosen
//!   degrees and rejected candidates), persisted in the store and served
//!   by the `explain` verb across restarts;
//! * [`expose`] — **telemetry exposition**: per-verb request counters and
//!   latency histograms, lock-wait timings, the `metrics` verb's JSON
//!   payload, the `trace` verb's span trees ([`expose::trace_value`],
//!   with a pre-rendered Chrome trace-event export), the
//!   `metrics_history` frames ([`expose::history_value`]) and a
//!   Prometheus text scrape endpoint
//!   ([`expose::spawn_metrics_endpoint`], the CLI's `--metrics-listen`,
//!   which also serves `/metrics/history.json`) served off-thread so
//!   scrapers never touch the server lock;
//! * [`journal`] — the **epoch-granular job journal**: every tuning
//!   deployment is appended (sealed, `fsync`ed) to a per-job append-only
//!   file as it happens, so a process killed mid-tune resumes from the
//!   last journaled epoch on restart;
//! * [`server`] — the daemon: [`Server::bootstrap`] loads the store (no
//!   retraining) or pre-trains (warm-started from any persisted GED
//!   cache) and persists; [`Server::serve_tcp`] serves **one session per
//!   client** over the shared state and doubles as the background monitor
//!   loop; [`Server::tick_monitor`] runs the observe→detect→adapt cycle —
//!   rate drifts re-tune through the job manager, structure drifts grow
//!   the corpus and warm re-pretrain (see `streamtune-monitor`).
//!
//! # Fault tolerance
//!
//! The daemon is built to keep serving through backend faults, handler
//! panics and torn writes — deterministically, so failure scenarios are
//! reproducible test cases:
//!
//! * **Deterministic fault injection** — a job may run on
//!   [`BackendSpec::Chaos`], wrapping the simulator in a
//!   [`ChaosBackend`](streamtune_backend::ChaosBackend) driven by a
//!   seeded [`FaultPlan`](streamtune_backend::FaultPlan): transient I/O
//!   errors, failed deploys, NaN observations, stale epochs and
//!   crash-at-epoch, all pure functions of the plan seed. The daemon-wide
//!   drill ([`ServerConfig::chaos`]) runs every `sim` job's tuning run as
//!   a transient `Chaos` one.
//! * **Retry, then degrade** — transient backend faults are retried at
//!   the *same* epoch under a bounded
//!   [`RetryPolicy`](streamtune_backend::RetryPolicy) with virtual
//!   (never slept) backoff, so a run with absorbed transient faults
//!   yields a **bit-identical** [`JobResult`] to a fault-free run. A
//!   backend that stays sick past the retry budget leaves the job
//!   [`JobState::Degraded`] — distinct from [`JobState::Failed`] — and a
//!   watched stream that cannot be polled flips its drift status line to
//!   `degraded` until the backend answers again. Injected crashes are
//!   contained per job (`catch_unwind` inside the drain worker) and per
//!   request (handler panics become `error` responses); poisoned server
//!   locks are cleared and counted, never fatal.
//! * **Crash-safe store** — every artifact write is
//!   write-temp → `fsync` → atomic rename (plus a parent-directory
//!   `fsync`), so a crash at any byte leaves either the old or the new
//!   artifact, never garbage. On boot, [`Server::bootstrap`] routes
//!   through [`ModelStore::recover_model`]: a corrupt `model.json` is
//!   quarantined to `model.json.corrupt` and the `.bak` rotation is
//!   promoted in its place; corrupt warm-start artifacts are quarantined
//!   and rebuilt.
//! * **Epoch-journaled resumption** — while a journalable job tunes,
//!   every deployed epoch's `(assignment, report)` is appended to its
//!   [`journal`] file (seal → append → `sync_data`), and
//!   [`Server::bootstrap`] replays surviving journals: an interrupted
//!   job is re-admitted and its tune *resumes* after the journaled
//!   prefix via a replay-then-live [`JournaledBackend`], producing a
//!   `TuneOutcome` **bit-identical** to an uninterrupted run. Torn or
//!   tampered journal tails are dropped at the last sealed line, so a
//!   SIGKILL at any byte resumes-or-restarts, never serves garbage
//!   (`tests/serve_store.rs` truncation sweep,
//!   `crates/cli/tests/kill_drill.rs` child-process SIGKILL drill, CI
//!   `kill-drill` job).
//! * **Graceful drain** — the `drain` protocol verb (and `SIGTERM` on a
//!   TCP daemon) stops accepting new sessions, finishes and journals
//!   in-flight work, flushes the store snapshot within
//!   [`TcpConfig::drain_timeout`] and exits cleanly; a restart on the
//!   drained store answers `recommend` without re-running anything.
//! * **Admission control** — [`Server::serve_tcp`] bounds live
//!   sessions at [`TcpConfig::session_cap`] (excess connections get a
//!   structured [`Response::Overloaded`] with a `retry_after_ms` hint,
//!   then are closed) and sheds requests whose session waited past
//!   [`TcpConfig::request_deadline`] for the server lock — the session
//!   survives and the shed is counted, so a flood degrades service
//!   *predictably* instead of queueing unboundedly.
//! * **SLO alarms** — a configurable [`SloPolicy`] projects alarm lines
//!   from the live health counters (monitor retry rate, degraded
//!   watches, poll failures, contained handler panics); alarms surface
//!   in `health` and `drift_status`, and monitor ticks emit
//!   `alarm-raised` / `alarm-cleared` events on edges — exercised
//!   deterministically by epoch-windowed
//!   [`FaultPlan::with_phase`](streamtune_backend::FaultPlan::with_phase)
//!   outage drills (`tests/chaos_faults.rs`).
//! * **Observability** — the `health` protocol verb reports build info
//!   (crate version, uptime, configured parallelism), per-job
//!   fault/retry counters ([`JobHealthLine`]) plus daemon-wide degraded
//!   watches, store recoveries, lock recoveries, contained handler
//!   panics, shed sessions, expired deadlines, oversized request lines
//!   and active SLO alarms ([`HealthReport`], [`HealthCounters`],
//!   [`TcpCounters`]). The `metrics` verb (and the HTTP scrape endpoint
//!   on `--metrics-listen`) exposes the `streamtune-telemetry` registry —
//!   per-verb request latency histograms, lock-wait timings, monitor
//!   tick durations, drift-event counts, retry/backoff timings, GED
//!   cache hit rates and pretrain phase timings. Telemetry is strictly
//!   observational: tuning outcomes with it enabled are bit-identical
//!   to runs with it disabled.
//! * **Flight recorder** — the `trace` verb returns the newest complete
//!   causal span tree (request dispatch → lock wait → handler → job
//!   drain → tune → backend deploys, stitched across worker threads)
//!   with a Chrome trace-event rendering for Perfetto; `explain <job>`
//!   replays the decision audit record behind a recommendation; and
//!   `metrics_history` (or `GET /metrics/history.json`) serves the
//!   sliding window of registry-snapshot deltas that `streamtune top`
//!   renders live. All three are read-only views over state the daemon
//!   records anyway — bit-identity with tracing enabled is part of the
//!   telemetry test suite.
//!
//! The CLI front ends are `streamtune serve`, `streamtune client`,
//! `streamtune trace`, `streamtune top` and `streamtune monitor`;
//! `examples/serve_quickstart.rs` and `examples/monitor_quickstart.rs`
//! drive in-process servers.

pub mod decision;
pub mod error;
pub mod expose;
pub mod job;
pub mod journal;
pub mod protocol;
pub mod server;
pub mod store;

pub use decision::DecisionRecord;
pub use error::ServeError;
pub use expose::{
    history_value, metrics_value, prometheus_text, record_history_frame, spawn_metrics_endpoint,
    trace_value, ServeMetrics,
};
pub use job::{Job, JobManager, JobResult, JobState, PersistedJob};
pub use journal::{
    create_journal, journal_file_name, load_journal, JournaledBackend, LoadedJournal,
};
pub use protocol::{
    parse_request, render_response, AlarmLine, BackendSpec, DriftEventLine, DriftReport,
    HealthReport, JobHealthLine, JobSpec, JobStatusLine, Recommendation, Request, Response,
    StatusReport, TickReport,
};
pub use server::{
    BootstrapReport, HealthCounters, Server, ServerConfig, SloPolicy, TcpConfig, TcpCounters,
    MAX_LINE_BYTES,
};
pub use store::{
    fnv1a64, read_envelope, write_envelope, ModelRecovery, ModelStore, StoreError, StoreStats,
};
