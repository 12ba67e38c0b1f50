//! The line-delimited JSON control protocol.
//!
//! One request per line in, one response per line out — over stdin/stdout
//! or a TCP connection, the framing is identical. Each reply goes out as
//! one `write_all` (line and newline together), on a `TCP_NODELAY` socket
//! for TCP sessions, so no part of it waits on the client's delayed ACK.
//! Verbs are lowercase on the wire. Every codec here is derived: the
//! `#[serde(...)]` attributes (`rename_all = "snake_case"`, `rename`,
//! `default`, `skip_serializing_if`) spell the protocol's names, so the
//! wire form is read off the type definitions below. A bare verb and its
//! tagged form with an empty payload are one request when every payload
//! field is optional (`"trace"` ≡ `{"trace": {}}`):
//!
//! | request | wire form |
//! |---|---|
//! | submit | `{"submit": {"name": "j1", "query": "nexmark-q5", "multiplier": 10.0, "seed": 42, "engine": "flink", "backend": "sim"}}` |
//! | status | `"status"` |
//! | recommend | `{"recommend": {"job": "j1"}}` |
//! | cancel | `{"cancel": {"job": "j1"}}` |
//! | watch | `{"watch": {"job": "j1", "schedule": [10.0, 10.0, 14.0]}}` (`schedule` optional) |
//! | unwatch | `{"unwatch": {"job": "j1"}}` |
//! | drift_status | `"drift_status"` |
//! | health | `"health"` |
//! | metrics | `"metrics"` |
//! | tick | `{"tick": {"steps": 5}}` |
//! | snapshot | `"snapshot"` |
//! | drain | `"drain"` |
//! | trace | `"trace"` or `{"trace": {"label": "recommend"}}` (`label` optional) |
//! | explain | `{"explain": {"job": "j1"}}` |
//! | metrics_history | `"metrics_history"` |
//! | shutdown | `"shutdown"` |
//!
//! Responses mirror the shape: `{"submitted": {...}}`,
//! `{"status": {"jobs": [...], "store": {...}|null}}`,
//! `{"recommendation": {...}}`, `{"cancelled": {...}}`,
//! `{"watching": {...}}`, `{"unwatched": {...}}`,
//! `{"drift": {"watches": [...], "alarms": [...]}}`,
//! `{"health": {...}}`, `{"metrics": {...}}`, `{"ticked": {...}}`,
//! `{"snapshotted": {...}}`, `{"draining": {...}}`, `{"trace": {...}}`,
//! `{"explained": {...}}`, `{"metrics_history": {...}}`,
//! `"shutting-down"`, `{"error": {...}}`. The flight-recorder payloads
//! (`trace`, `explained`, `metrics_history`) are raw JSON values like
//! `metrics`: their schemas grow release to release and clients should
//! not need a protocol bump to read new fields. Unknown
//! verbs and malformed lines produce an `error` response, never a dropped
//! connection — including request lines past the server's size cap, which
//! are answered with an `error` (and counted in `health`) before the
//! connection closes.
//!
//! Two responses exist only on the server's initiative:
//!
//! * `{"overloaded": {"retry_after_ms": ..., "reason": ...}}` — admission
//!   control shed the connection (session cap) or the request (per-request
//!   deadline); the client should back off and retry;
//! * `{"draining": {"jobs": ..., "dir": ...|null}}` — the reply to `drain`
//!   (and the effect of SIGTERM): in-flight jobs were finished and
//!   journaled, the store flushed, and the server stops accepting work.

use serde::{Deserialize, Error, Serialize, Value};
use streamtune_backend::{BackendError, ChaosBackend, ExecutionBackend, FaultPlan, ReplayBackend};
use streamtune_connect::{ingest_file, FlinkBackend, IngestConfig};
use streamtune_monitor::DriftStatusLine;
use streamtune_workloads::rates::Engine;

use crate::store::StoreStats;

/// Which execution backend a job tunes against.
//
// `Chaos` boxes its `FaultPlan`: the plan carries its phase windows
// inline, and every admitted job keeps a spec, so an inline plan would
// size every `sim` job's spec for the rare chaos one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum BackendSpec {
    /// The deterministic simulated cluster (seeded per job).
    Sim,
    /// Replay of a recorded trace file (canned production metrics).
    Replay(String),
    /// The simulated cluster wrapped in deterministic fault injection —
    /// the same job, plus the failures of the carried [`FaultPlan`].
    Chaos(Box<FaultPlan>),
    /// A live Flink REST endpoint (`http://host:port`): the job tunes the
    /// cluster's RUNNING job through the connector.
    Flink(String),
    /// A JSONL metric dump ingested into a replayable trace. The job's
    /// "tuning" admits the deployment the dump ran at — its
    /// recommendation is the recorded assignment — and a `watch` replays
    /// the dump's windows through the drift monitor.
    Ingest(String),
}

impl BackendSpec {
    /// The backend family's lowercase name, as stored in decision records.
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Sim => "sim",
            BackendSpec::Replay(_) => "replay",
            BackendSpec::Chaos(_) => "chaos",
            BackendSpec::Flink(_) => "flink",
            BackendSpec::Ingest(_) => "ingest",
        }
    }

    /// Open the backend this spec names, for a job on `engine` seeded
    /// `seed`: the engine's simulated cluster (`Sim`), wrapped in the
    /// carried fault plan (`Chaos`); the recorded trace (`Replay`); a fresh
    /// connection to the REST endpoint (`Flink`); or a replay of the dump's
    /// windows from the first (`Ingest`, read with the default
    /// [`IngestConfig`]).
    ///
    /// This is the one constructor of job backends. Callers keep their own
    /// policy around it: which open failures degrade a job rather than fail
    /// it, the daemon's chaos drill, the CLI's `--chaos` and `--record`
    /// wrappers, and admitting (not tuning) ingested deployments.
    pub fn open(
        &self,
        engine: Engine,
        seed: u64,
    ) -> Result<Box<dyn ExecutionBackend + Send>, BackendError> {
        Ok(match self {
            BackendSpec::Sim => Box::new(engine.sim_cluster(seed)),
            BackendSpec::Chaos(plan) => {
                Box::new(ChaosBackend::new(engine.sim_cluster(seed), **plan))
            }
            BackendSpec::Replay(path) => Box::new(ReplayBackend::from_file(path)?),
            BackendSpec::Flink(url) => Box::new(FlinkBackend::connect(url)?),
            BackendSpec::Ingest(path) => Box::new(ReplayBackend::new(
                ingest_file(path, &IngestConfig::default())?.log,
            )),
        })
    }
}

/// Everything needed to admit and run one named tuning job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Unique job name (the handle for `status`/`recommend`/`cancel`).
    pub name: String,
    /// Named workload to tune (see `streamtune workloads`).
    pub query: String,
    /// Source-rate multiplier (`m × Wu`).
    pub multiplier: f64,
    /// Seed of the job's own backend.
    pub seed: u64,
    /// Engine dialect of the job's backend.
    pub engine: Engine,
    /// Which backend the job tunes against.
    pub backend: BackendSpec,
}

/// One protocol request.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Request {
    /// Admit a new named job.
    Submit(JobSpec),
    /// Report every admitted job's state (runs pending jobs first).
    Status,
    /// Report one job's recommendation (runs pending jobs first).
    Recommend {
        /// The job's name.
        job: String,
    },
    /// Cancel a still-queued job.
    Cancel {
        /// The job's name.
        job: String,
    },
    /// Start live drift monitoring of a finished job.
    Watch {
        /// The job's name.
        job: String,
        /// Environment rate script: one multiplier per monitor tick, the
        /// last entry holding; `None` keeps the submitted rate.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        schedule: Option<Vec<f64>>,
    },
    /// Stop monitoring a job.
    Unwatch {
        /// The job's name.
        job: String,
    },
    /// Report every watched job's drift classification.
    DriftStatus,
    /// Report fault-tolerance health: per-job retry counters, degraded
    /// flags, store recovery events and daemon-level panic/lock counters.
    Health,
    /// Dump the telemetry registry (counters, gauges, latency histograms)
    /// as a JSON object — the same series the Prometheus scrape endpoint
    /// exposes, over the control protocol instead of HTTP.
    Metrics,
    /// Advance the monitor by `steps` observe→detect→adapt ticks.
    Tick {
        /// Ticks to take.
        steps: u64,
    },
    /// Persist the model store (model, GED cache, corpus, job ledger).
    Snapshot,
    /// Graceful shutdown: finish and persist in-flight work, then stop —
    /// what SIGTERM triggers from the outside.
    Drain,
    /// Report the newest complete span tree the flight recorder holds —
    /// optionally filtered to traces whose root was labeled `label`
    /// (a wire verb such as `"recommend"`).
    Trace {
        /// Root-span label filter; `None` returns the newest trace.
        #[serde(default, skip_serializing_if = "Option::is_none")]
        label: Option<String>,
    },
    /// Report one finished job's decision audit record: the model inputs,
    /// cluster assignment, cache provenance and rejected candidates
    /// behind its recommendation.
    Explain {
        /// The job's name.
        job: String,
    },
    /// Dump the metrics time-series history ring: per-interval counter
    /// deltas, gauge values and histogram quantiles (the same frames the
    /// `/metrics/history.json` endpoint serves).
    MetricsHistory,
    /// Stop the server after responding.
    Shutdown,
}

impl Request {
    /// The lowercase wire verb, e.g. for labeling per-verb metrics.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Submit(_) => "submit",
            Request::Status => "status",
            Request::Recommend { .. } => "recommend",
            Request::Cancel { .. } => "cancel",
            Request::Watch { .. } => "watch",
            Request::Unwatch { .. } => "unwatch",
            Request::DriftStatus => "drift_status",
            Request::Health => "health",
            Request::Metrics => "metrics",
            Request::Tick { .. } => "tick",
            Request::Snapshot => "snapshot",
            Request::Drain => "drain",
            Request::Trace { .. } => "trace",
            Request::Explain { .. } => "explain",
            Request::MetricsHistory => "metrics_history",
            Request::Shutdown => "shutdown",
        }
    }
}

/// One job's line in a `status` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatusLine {
    /// Job name.
    pub name: String,
    /// Workload it tunes.
    pub query: String,
    /// `"queued"`, `"done"`, `"failed"`, `"degraded"` or `"cancelled"`.
    pub state: String,
    /// Cluster the job was assigned to at admission.
    pub cluster: usize,
    /// Automatic re-tunes applied to the job so far.
    pub retunes: u32,
    /// Failure message when `state == "failed"`.
    pub detail: Option<String>,
}

/// The payload of a `status` response: the job table plus store health.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatusReport {
    /// One line per admitted job, in admission order.
    pub jobs: Vec<JobStatusLine>,
    /// Store artifact sizes (absent without a configured store).
    pub store: Option<StoreStats>,
}

/// One applied adaptation in a `ticked` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftEventLine {
    /// The affected job.
    pub job: String,
    /// `"rate-drift"`, `"structure-drift"`, `"poll-failed"`,
    /// `"degraded"`, `"recovered"`, `"alarm-raised"` or
    /// `"alarm-cleared"`.
    pub kind: String,
    /// What the adaptation did (or why it could not).
    pub detail: String,
}

/// The payload of a `ticked` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TickReport {
    /// Ticks taken.
    pub steps: u64,
    /// Jobs currently watched.
    pub watched: u64,
    /// Adaptations applied during these ticks, in detection order.
    pub events: Vec<DriftEventLine>,
}

/// One job's line in a `health` response: what its retry loops absorbed
/// or gave up on across every run (initial tune plus re-tunes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobHealthLine {
    /// Job name.
    pub job: String,
    /// Current lifecycle state (`"degraded"` ⇔ transient faults outlasted
    /// the retry budget on the last run).
    pub state: String,
    /// Transient backend faults seen (including the retried-away ones).
    pub transient_faults: u64,
    /// Retries taken in response.
    pub retries: u64,
    /// Times the retry budget ran out and the fault surfaced.
    pub exhausted: u64,
    /// Non-retryable backend failures.
    pub permanent_failures: u64,
    /// Virtual backoff minutes accumulated (never billed to outcomes).
    pub backoff_minutes: f64,
}

/// One raised SLO alarm in a `health` or `drift` response: a watched
/// fault counter crossed its configured threshold.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AlarmLine {
    /// Which SLO fired: `"retry-rate"`, `"degraded-watches"`,
    /// `"poll-failures"` or `"handler-panics"`.
    pub alarm: String,
    /// The observed value that crossed the threshold.
    pub value: f64,
    /// The configured threshold.
    pub threshold: f64,
    /// Human-readable context (what to look at).
    pub detail: String,
}

/// The payload of a `health` response: the daemon's fault-tolerance
/// ledger. Everything here is *observability only* — none of it feeds
/// back into tuning decisions, so reading it never perturbs outcomes.
/// Fields marked `default` arrived after the first release: `health`
/// payloads from older daemons (a newer `streamtune client` against an
/// older daemon) read them as zero or empty.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// Daemon crate version (`CARGO_PKG_VERSION` at build time).
    #[serde(default)]
    pub version: String,
    /// Whole seconds since the daemon's telemetry clock started.
    #[serde(default)]
    pub uptime_seconds: u64,
    /// Configured worker-pool parallelism (`"auto"`, `"serial"` or a
    /// fixed width) — the knob that never changes answers, only wall
    /// clock.
    #[serde(default)]
    pub parallelism: String,
    /// One line per admitted job, in admission order.
    pub jobs: Vec<JobHealthLine>,
    /// Jobs currently watched by the drift monitor.
    pub watched: u64,
    /// Watched jobs currently degraded (backend persistently failing).
    pub degraded_watches: u64,
    /// Monitor polls that failed even after retries, across all watches.
    pub poll_failures: u64,
    /// Corrupt store artifacts quarantined and recovered at bootstrap.
    pub store_recoveries: u64,
    /// Poisoned server locks recovered (a handler panicked mid-request).
    pub lock_recoveries: u64,
    /// Request handlers that panicked and were converted to `error`
    /// responses instead of killing the connection or daemon.
    pub handler_panics: u64,
    /// TCP sessions shed by admission control (session cap reached).
    #[serde(default)]
    pub sessions_shed: u64,
    /// Requests shed because the per-request deadline expired while the
    /// server was busy.
    #[serde(default)]
    pub deadlines_expired: u64,
    /// Request lines refused for exceeding the line-size cap.
    #[serde(default)]
    pub oversized_lines: u64,
    /// SLO alarms currently raised, in policy order.
    #[serde(default)]
    pub alarms: Vec<AlarmLine>,
}

/// The payload of a `recommendation` response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recommendation {
    /// Job name.
    pub job: String,
    /// Workload it tuned.
    pub query: String,
    /// Cluster whose model served the job.
    pub cluster: usize,
    /// Operator names, in [`degrees`](Self::degrees) order.
    pub op_names: Vec<String>,
    /// Recommended per-operator parallelism.
    pub degrees: Vec<u32>,
    /// Total parallelism.
    pub total: u64,
    /// Reconfigurations the tuning run performed.
    pub reconfigurations: u32,
    /// Deployments that exhibited job-level backpressure.
    pub backpressure_events: u32,
    /// Simulated minutes the tuning run took.
    pub elapsed_minutes: f64,
    /// Tuning iterations executed.
    pub iterations: u32,
    /// Whether the tuner reached its own convergence criterion.
    pub converged: bool,
}

/// The payload of a `drift` response.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DriftReport {
    /// One line per watched job.
    pub watches: Vec<DriftStatusLine>,
    /// SLO alarms currently raised.
    pub alarms: Vec<AlarmLine>,
}

// Hand-written for one legacy shape: daemons that predate SLO alarms sent
// `drift` as a bare array of watch lines.
impl Deserialize for DriftReport {
    fn deserialize(v: &Value) -> Result<Self, Error> {
        if let Value::Array(_) = v {
            return Ok(DriftReport {
                watches: Vec::deserialize(v)?,
                alarms: Vec::new(),
            });
        }
        Ok(DriftReport {
            watches: Vec::deserialize(v.field("watches")?)?,
            alarms: Vec::deserialize(v.field("alarms")?)?,
        })
    }
}

/// One protocol response.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Response {
    /// A job was admitted.
    Submitted {
        /// The job's name.
        job: String,
        /// Cluster the job was assigned to.
        cluster: usize,
    },
    /// All admitted jobs plus store health.
    Status(StatusReport),
    /// One job's tuning result.
    Recommendation(Recommendation),
    /// A queued job was cancelled.
    Cancelled {
        /// The job's name.
        job: String,
    },
    /// A job is now being monitored for drift.
    Watching {
        /// The job's name.
        job: String,
        /// Whether its DAG structure is covered by the pre-trained corpus
        /// (`false` ⇒ the first tick will grow the corpus).
        covered: bool,
    },
    /// A job is no longer monitored.
    Unwatched {
        /// The job's name.
        job: String,
    },
    /// Drift classification of every watched job, plus raised SLO alarms.
    Drift(DriftReport),
    /// The daemon's fault-tolerance ledger.
    Health(HealthReport),
    /// The telemetry registry as a JSON object (see the `metrics` verb).
    /// Kept as a raw [`Value`]: the series set grows release to release,
    /// and clients should not need a protocol bump to read new ones.
    Metrics(Value),
    /// The monitor advanced.
    Ticked(TickReport),
    /// The model store was persisted.
    Snapshotted {
        /// Directory the store was written to.
        dir: String,
    },
    /// The server finished a graceful drain: in-flight jobs ran (and were
    /// journaled), the store was flushed, no further work is accepted.
    Draining {
        /// Jobs in a terminal state after the drain.
        jobs: u64,
        /// Store directory flushed to (`None` without a configured store).
        dir: Option<String>,
    },
    /// One recorded span tree (or `{"found": false, ...}` when the flight
    /// recorder holds no matching complete trace). Raw [`Value`] for the
    /// same forward-compatibility reason as `Metrics`.
    Trace(Value),
    /// One job's decision audit record. Raw [`Value`]: the record schema
    /// (see `decision.rs`) gains fields release to release.
    Explained(Value),
    /// The metrics history ring as ordered frames. Raw [`Value`].
    MetricsHistory(Value),
    /// Admission control shed this connection or request; back off for
    /// `retry_after_ms` and retry.
    Overloaded {
        /// Suggested client backoff before retrying.
        retry_after_ms: u64,
        /// `"session-cap"` or `"deadline"`.
        reason: String,
    },
    /// The server acknowledges shutdown.
    #[serde(rename = "shutting-down")]
    ShuttingDown,
    /// The request could not be served.
    Error {
        /// Why.
        message: String,
    },
}

/// Parse one request line.
pub fn parse_request(line: &str) -> Result<Request, Error> {
    serde_json::from_str(line)
}

/// Render one response line (no trailing newline).
pub fn render_response(response: &Response) -> String {
    serde_json::to_string(response).expect("responses always serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> JobSpec {
        JobSpec {
            name: "j1".to_string(),
            query: "nexmark-q5".to_string(),
            multiplier: 10.0,
            seed: 42,
            engine: Engine::Flink,
            backend: BackendSpec::Sim,
        }
    }

    /// One request per wire verb, in [`crate::expose::VERBS`] order (a verb
    /// with several payload shapes appears once per shape).
    fn roundtrip_requests() -> Vec<Request> {
        let chaos_spec = JobSpec {
            backend: BackendSpec::Chaos(Box::new(FaultPlan::transient(9).with_crash_at(4))),
            ..spec()
        };
        let flink_spec = JobSpec {
            backend: BackendSpec::Flink("http://127.0.0.1:8081".to_string()),
            ..spec()
        };
        let ingest_spec = JobSpec {
            backend: BackendSpec::Ingest("dumps/metrics.jsonl".to_string()),
            ..spec()
        };
        vec![
            Request::Submit(spec()),
            Request::Submit(chaos_spec),
            Request::Submit(flink_spec),
            Request::Submit(ingest_spec),
            Request::Status,
            Request::Recommend {
                job: "j1".to_string(),
            },
            Request::Cancel {
                job: "j1".to_string(),
            },
            Request::Watch {
                job: "j1".to_string(),
                schedule: Some(vec![10.0, 10.0, 14.0]),
            },
            Request::Watch {
                job: "j1".to_string(),
                schedule: None,
            },
            Request::Unwatch {
                job: "j1".to_string(),
            },
            Request::DriftStatus,
            Request::Health,
            Request::Metrics,
            Request::Tick { steps: 25 },
            Request::Snapshot,
            Request::Drain,
            Request::Trace { label: None },
            Request::Trace {
                label: Some("recommend".to_string()),
            },
            Request::Explain {
                job: "j1".to_string(),
            },
            Request::MetricsHistory,
            Request::Shutdown,
        ]
    }

    #[test]
    fn requests_roundtrip_through_the_wire_format() {
        for r in roundtrip_requests() {
            let line = serde_json::to_string(&r).unwrap();
            assert_eq!(parse_request(&line).unwrap(), r, "{line}");
        }
    }

    #[test]
    fn verb_table_verb_names_and_wire_tags_agree() {
        use crate::expose::VERBS;
        // Each verb parses, bare or with its minimal payload, to a request
        // that names itself by that verb.
        for verb in VERBS {
            let line = match verb {
                "submit" => format!("{{\"submit\":{}}}", serde_json::to_string(&spec()).unwrap()),
                "recommend" | "cancel" | "watch" | "unwatch" | "explain" => {
                    format!("{{\"{verb}\":{{\"job\":\"j1\"}}}}")
                }
                "tick" => "{\"tick\":{\"steps\":1}}".to_string(),
                bare => format!("\"{bare}\""),
            };
            let request = parse_request(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(request.verb(), verb, "{line}");
        }
        // The round-trip list covers every verb once, in table order, and
        // each request's wire tag is its verb.
        let mut covered: Vec<&str> = roundtrip_requests().iter().map(Request::verb).collect();
        covered.dedup();
        assert_eq!(covered, VERBS);
        for r in roundtrip_requests() {
            let value: Value = serde_json::from_str(&serde_json::to_string(&r).unwrap()).unwrap();
            assert_eq!(value.variant().unwrap().0, r.verb());
        }
    }

    #[test]
    fn connector_backends_use_single_key_wire_forms() {
        let flink = BackendSpec::Flink("http://127.0.0.1:8081".to_string());
        let ingest = BackendSpec::Ingest("dumps/metrics.jsonl".to_string());
        assert_eq!(
            serde_json::to_string(&flink).unwrap(),
            "{\"flink\":\"http://127.0.0.1:8081\"}"
        );
        assert_eq!(
            serde_json::to_string(&ingest).unwrap(),
            "{\"ingest\":\"dumps/metrics.jsonl\"}"
        );
    }

    #[test]
    fn wire_verbs_are_lowercase() {
        let line = serde_json::to_string(&Request::Submit(spec())).unwrap();
        assert!(line.starts_with("{\"submit\":"), "{line}");
        assert!(
            line.contains("\"engine\":\"flink\""),
            "engines are lowercase on the wire like every other token: {line}"
        );
        assert_eq!(
            serde_json::to_string(&Request::Status).unwrap(),
            "\"status\""
        );
        assert_eq!(
            serde_json::to_string(&Request::Shutdown).unwrap(),
            "\"shutdown\""
        );
        let line = render_response(&Response::ShuttingDown);
        assert_eq!(line, "\"shutting-down\"");
    }

    #[test]
    fn handwritten_requests_parse() {
        let r = parse_request(
            "{\"submit\": {\"name\": \"a\", \"query\": \"nexmark-q1\", \"multiplier\": 5.0, \
             \"seed\": 7, \"engine\": \"timely\", \"backend\": {\"replay\": \"t.json\"}}}",
        )
        .unwrap();
        match r {
            Request::Submit(s) => {
                assert_eq!(s.engine, Engine::Timely);
                assert_eq!(s.backend, BackendSpec::Replay("t.json".to_string()));
            }
            other => panic!("expected submit, got {other:?}"),
        }
        assert!(parse_request("\"reboot\"").is_err());
        assert!(parse_request("{\"recommend\": {}}").is_err());
        assert!(parse_request("not json").is_err());
        // Monitor verbs: schedule optional, steps required.
        match parse_request("{\"watch\": {\"job\": \"a\"}}").unwrap() {
            Request::Watch { job, schedule } => {
                assert_eq!(job, "a");
                assert_eq!(schedule, None);
            }
            other => panic!("expected watch, got {other:?}"),
        }
        assert_eq!(
            parse_request("\"drift_status\"").unwrap(),
            Request::DriftStatus
        );
        assert_eq!(parse_request("\"health\"").unwrap(), Request::Health);
        assert_eq!(parse_request("\"metrics\"").unwrap(), Request::Metrics);
        assert!(parse_request("{\"tick\": {}}").is_err());
        // Flight-recorder verbs: trace takes an optional label filter and
        // accepts both the bare and the tagged wire forms.
        assert_eq!(
            parse_request("\"trace\"").unwrap(),
            Request::Trace { label: None }
        );
        assert_eq!(
            parse_request("{\"trace\": {\"label\": \"recommend\"}}").unwrap(),
            Request::Trace {
                label: Some("recommend".to_string())
            }
        );
        assert_eq!(
            parse_request("{\"trace\": {}}").unwrap(),
            Request::Trace { label: None }
        );
        assert_eq!(
            parse_request("{\"explain\": {\"job\": \"a\"}}").unwrap(),
            Request::Explain {
                job: "a".to_string()
            }
        );
        assert!(parse_request("{\"explain\": {}}").is_err());
        assert_eq!(
            parse_request("\"metrics_history\"").unwrap(),
            Request::MetricsHistory
        );
        // A hand-written chaos backend spec parses into a full fault plan.
        let r = parse_request(
            "{\"submit\": {\"name\": \"c\", \"query\": \"nexmark-q1\", \"multiplier\": 5.0, \
             \"seed\": 7, \"engine\": \"flink\", \"backend\": {\"chaos\": {\"seed\": 3, \
             \"io_rate\": 0.2, \"deploy_fail_rate\": 0.1, \"nan_rate\": 0.0, \
             \"stale_rate\": 0.0, \"max_burst\": 2, \"crash_epoch\": null}}}}",
        )
        .unwrap();
        match r {
            Request::Submit(s) => match s.backend {
                BackendSpec::Chaos(plan) => {
                    assert_eq!(plan.seed, 3);
                    assert_eq!(plan.io_rate, 0.2);
                    assert_eq!(plan.crash_epoch, None);
                }
                other => panic!("expected chaos backend, got {other:?}"),
            },
            other => panic!("expected submit, got {other:?}"),
        }
    }

    #[test]
    fn responses_roundtrip() {
        let responses = [
            Response::Submitted {
                job: "j".to_string(),
                cluster: 2,
            },
            Response::Status(StatusReport {
                jobs: vec![JobStatusLine {
                    name: "j".to_string(),
                    query: "nexmark-q2".to_string(),
                    state: "done".to_string(),
                    cluster: 0,
                    retunes: 3,
                    detail: None,
                }],
                store: Some(StoreStats {
                    model_bytes: 1024,
                    model_backup_bytes: 0,
                    ged_cache_bytes: 99,
                    corpus_bytes: 12_345,
                    jobs_bytes: 7,
                }),
            }),
            Response::Status(StatusReport {
                jobs: Vec::new(),
                store: None,
            }),
            Response::Cancelled {
                job: "j".to_string(),
            },
            Response::Watching {
                job: "j".to_string(),
                covered: false,
            },
            Response::Unwatched {
                job: "j".to_string(),
            },
            Response::Drift(DriftReport {
                watches: vec![streamtune_monitor::DriftStatusLine {
                    job: "j".to_string(),
                    class: "rate-drift".to_string(),
                    ticks: 40,
                    multiplier: 10.0,
                    baseline: 700e3,
                    triggers: 1,
                    retunes: 1,
                    degraded: false,
                    poll_failures: 2,
                }],
                alarms: vec![AlarmLine {
                    alarm: "degraded-watches".to_string(),
                    value: 1.0,
                    threshold: 1.0,
                    detail: "1 watched job degraded".to_string(),
                }],
            }),
            Response::Health(HealthReport {
                version: "0.5.0".to_string(),
                uptime_seconds: 12,
                parallelism: "fixed(4)".to_string(),
                jobs: vec![JobHealthLine {
                    job: "j".to_string(),
                    state: "degraded".to_string(),
                    transient_faults: 9,
                    retries: 6,
                    exhausted: 1,
                    permanent_failures: 0,
                    backoff_minutes: 3.5,
                }],
                watched: 1,
                degraded_watches: 1,
                poll_failures: 4,
                store_recoveries: 1,
                lock_recoveries: 0,
                handler_panics: 2,
                sessions_shed: 3,
                deadlines_expired: 1,
                oversized_lines: 2,
                alarms: vec![AlarmLine {
                    alarm: "retry-rate".to_string(),
                    value: 0.75,
                    threshold: 0.5,
                    detail: "6 retries over 8 deploys".to_string(),
                }],
            }),
            Response::Ticked(TickReport {
                steps: 5,
                watched: 2,
                events: vec![DriftEventLine {
                    job: "j".to_string(),
                    kind: "rate-drift".to_string(),
                    detail: "re-tuned 10 → 14".to_string(),
                }],
            }),
            Response::Metrics(Value::Object(vec![(
                "streamtune_requests_total".to_string(),
                Value::U64(7),
            )])),
            Response::Snapshotted {
                dir: "/tmp/store".to_string(),
            },
            Response::Draining {
                jobs: 4,
                dir: Some("/tmp/store".to_string()),
            },
            Response::Draining { jobs: 0, dir: None },
            Response::Trace(Value::Object(vec![
                ("found".to_string(), Value::Bool(true)),
                ("label".to_string(), Value::String("recommend".to_string())),
                ("spans".to_string(), Value::Array(Vec::new())),
            ])),
            Response::Explained(Value::Object(vec![(
                "job".to_string(),
                Value::String("j".to_string()),
            )])),
            Response::MetricsHistory(Value::Object(vec![(
                "frames".to_string(),
                Value::Array(Vec::new()),
            )])),
            Response::Overloaded {
                retry_after_ms: 250,
                reason: "session-cap".to_string(),
            },
            Response::ShuttingDown,
            Response::Error {
                message: "nope".to_string(),
            },
        ];
        for r in responses {
            let line = render_response(&r);
            let back: Response = serde_json::from_str(&line).unwrap();
            assert_eq!(back, r, "{line}");
        }
    }

    #[test]
    fn legacy_payloads_from_older_daemons_still_parse() {
        // Pre-alarm daemons sent `drift` as a bare array of watch lines.
        let legacy = "{\"drift\": []}";
        assert_eq!(
            serde_json::from_str::<Response>(legacy).unwrap(),
            Response::Drift(DriftReport {
                watches: Vec::new(),
                alarms: Vec::new(),
            })
        );
        // And `health` without admission-control counters or alarms.
        let legacy = "{\"health\": {\"jobs\": [], \"watched\": 0, \
             \"degraded_watches\": 0, \"poll_failures\": 0, \
             \"store_recoveries\": 0, \"lock_recoveries\": 0, \
             \"handler_panics\": 0}}";
        match serde_json::from_str::<Response>(legacy).unwrap() {
            Response::Health(report) => {
                assert_eq!(report.sessions_shed, 0);
                assert_eq!(report.deadlines_expired, 0);
                assert_eq!(report.oversized_lines, 0);
                assert!(report.alarms.is_empty());
                // Build/runtime info arrived after admission control;
                // pre-telemetry daemons send none of it.
                assert_eq!(report.version, "");
                assert_eq!(report.uptime_seconds, 0);
                assert_eq!(report.parallelism, "");
            }
            other => panic!("expected health, got {other:?}"),
        }
    }
}
