//! Golden wire and artifact fixtures.
//!
//! `tests/golden/wire.txt` pins the exact bytes of every protocol
//! message, job spec, fault plan, ledger row and sealed journal line this
//! build writes, and the FNV-1a 64 of every store artifact a fixed
//! fast-config daemon persists. It also carries two input lists: legacy
//! spellings that must keep parsing (with the canonical bytes they
//! re-encode to) and malformed inputs that must keep failing. Any codec
//! change shows up as a line diff against the fixture.
//!
//! Each fixture line is `<kind>\t<name>\t<bytes>`; `accept` lines read
//! `accept\t<decoder>/<name>\t<input>\t<re-encoded>` and `reject` lines
//! end in `rejected`.

use std::path::Path;
use streamtune::backend::{FaultPlan, FaultRates, RetryStats};
use streamtune::core::Parallelism;
use streamtune::dataflow::ParallelismAssignment;
use streamtune::monitor::DriftStatusLine;
use streamtune::prelude::*;
use streamtune::serve::{
    create_journal, fnv1a64, load_journal, parse_request, render_response, AlarmLine,
    DriftEventLine, DriftReport, HealthReport, JobHealthLine, JobState, JobStatusLine,
    JournaledBackend, PersistedJob, Recommendation, StatusReport, StoreStats, TickReport,
};
use streamtune::workloads::history::HistoryGenerator;
use streamtune::workloads::rates::Engine;

const GOLDEN: &str = include_str!("golden/wire.txt");

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

fn with_backend(backend: BackendSpec) -> JobSpec {
    JobSpec { backend, ..spec() }
}

fn phased_plan() -> FaultPlan {
    FaultPlan::transient(9)
        .with_stale(0.05)
        .with_phase(10, 20, FaultRates::outage())
        .with_phase(
            1_000_000,
            1_000_050,
            FaultRates {
                nan_rate: 0.5,
                ..FaultRates::none()
            },
        )
}

fn specs() -> Vec<(&'static str, JobSpec)> {
    vec![
        ("sim", spec()),
        (
            "replay",
            with_backend(BackendSpec::Replay("t.json".to_string())),
        ),
        (
            "chaos",
            with_backend(BackendSpec::Chaos(Box::new(
                FaultPlan::transient(9).with_crash_at(4),
            ))),
        ),
        (
            "chaos-phased",
            with_backend(BackendSpec::Chaos(Box::new(phased_plan()))),
        ),
        (
            "flink",
            with_backend(BackendSpec::Flink("http://127.0.0.1:8081".to_string())),
        ),
        (
            "ingest",
            with_backend(BackendSpec::Ingest("dumps/metrics.jsonl".to_string())),
        ),
        (
            "timely",
            JobSpec {
                engine: Engine::Timely,
                ..spec()
            },
        ),
    ]
}

/// Every request variant of the protocol round-trip tests.
fn requests() -> Vec<(&'static str, Request)> {
    let job = || "j1".to_string();
    let mut out: Vec<(&'static str, Request)> = specs()
        .into_iter()
        .map(|(name, s)| (name, Request::Submit(s)))
        .collect();
    out.extend([
        ("status", Request::Status),
        ("recommend", Request::Recommend { job: job() }),
        ("cancel", Request::Cancel { job: job() }),
        (
            "watch-schedule",
            Request::Watch {
                job: job(),
                schedule: Some(vec![10.0, 10.0, 14.0]),
            },
        ),
        (
            "watch",
            Request::Watch {
                job: job(),
                schedule: None,
            },
        ),
        ("unwatch", Request::Unwatch { job: job() }),
        ("drift_status", Request::DriftStatus),
        ("health", Request::Health),
        ("metrics", Request::Metrics),
        ("tick", Request::Tick { steps: 25 }),
        ("snapshot", Request::Snapshot),
        ("drain", Request::Drain),
        ("trace", Request::Trace { label: None }),
        (
            "trace-label",
            Request::Trace {
                label: Some("recommend".to_string()),
            },
        ),
        ("explain", Request::Explain { job: job() }),
        ("metrics_history", Request::MetricsHistory),
        ("shutdown", Request::Shutdown),
    ]);
    out
}

fn obj(entries: &[(&str, serde_json::Value)]) -> serde_json::Value {
    serde_json::Value::Object(
        entries
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

fn drift_line() -> DriftStatusLine {
    DriftStatusLine {
        job: "j".to_string(),
        class: "rate-drift".to_string(),
        ticks: 40,
        multiplier: 10.0,
        baseline: 700e3,
        triggers: 1,
        retunes: 1,
        degraded: false,
        poll_failures: 2,
    }
}

fn alarm(name: &str, value: f64, threshold: f64, detail: &str) -> AlarmLine {
    AlarmLine {
        alarm: name.to_string(),
        value,
        threshold,
        detail: detail.to_string(),
    }
}

/// Every response variant of the protocol round-trip tests.
fn responses() -> Vec<(&'static str, Response)> {
    use serde_json::Value;
    let j = || "j".to_string();
    vec![
        (
            "submitted",
            Response::Submitted {
                job: j(),
                cluster: 2,
            },
        ),
        (
            "status",
            Response::Status(StatusReport {
                jobs: vec![JobStatusLine {
                    name: j(),
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
        ),
        (
            "status-empty",
            Response::Status(StatusReport {
                jobs: Vec::new(),
                store: None,
            }),
        ),
        (
            "recommendation",
            Response::Recommendation(Recommendation {
                job: j(),
                query: "nexmark-q1".to_string(),
                cluster: 1,
                op_names: vec!["source".to_string(), "sink".to_string()],
                degrees: vec![3, 1],
                total: 4,
                reconfigurations: 2,
                backpressure_events: 1,
                elapsed_minutes: 12.5,
                iterations: 3,
                converged: true,
            }),
        ),
        ("cancelled", Response::Cancelled { job: j() }),
        (
            "watching",
            Response::Watching {
                job: j(),
                covered: false,
            },
        ),
        ("unwatched", Response::Unwatched { job: j() }),
        (
            "drift",
            Response::Drift(DriftReport {
                watches: vec![drift_line()],
                alarms: vec![alarm(
                    "degraded-watches",
                    1.0,
                    1.0,
                    "1 watched job degraded",
                )],
            }),
        ),
        (
            "health",
            Response::Health(HealthReport {
                version: "0.5.0".to_string(),
                uptime_seconds: 12,
                parallelism: "fixed(4)".to_string(),
                jobs: vec![JobHealthLine {
                    job: j(),
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
                alarms: vec![alarm("retry-rate", 0.75, 0.5, "6 retries over 8 deploys")],
            }),
        ),
        (
            "ticked",
            Response::Ticked(TickReport {
                steps: 5,
                watched: 2,
                events: vec![DriftEventLine {
                    job: j(),
                    kind: "rate-drift".to_string(),
                    detail: "re-tuned 10 → 14".to_string(),
                }],
            }),
        ),
        (
            "metrics",
            Response::Metrics(obj(&[("streamtune_requests_total", Value::U64(7))])),
        ),
        (
            "snapshotted",
            Response::Snapshotted {
                dir: "/tmp/store".to_string(),
            },
        ),
        (
            "draining",
            Response::Draining {
                jobs: 4,
                dir: Some("/tmp/store".to_string()),
            },
        ),
        (
            "draining-no-store",
            Response::Draining { jobs: 0, dir: None },
        ),
        (
            "trace",
            Response::Trace(obj(&[
                ("found", Value::Bool(true)),
                ("label", Value::String("recommend".to_string())),
                ("spans", Value::Array(Vec::new())),
            ])),
        ),
        (
            "explained",
            Response::Explained(obj(&[("job", Value::String("j".to_string()))])),
        ),
        (
            "metrics_history",
            Response::MetricsHistory(obj(&[("frames", Value::Array(Vec::new()))])),
        ),
        (
            "overloaded",
            Response::Overloaded {
                retry_after_ms: 250,
                reason: "session-cap".to_string(),
            },
        ),
        ("shutting-down", Response::ShuttingDown),
        (
            "error",
            Response::Error {
                message: "nope".to_string(),
            },
        ),
    ]
}

fn persisted_jobs() -> Vec<(&'static str, PersistedJob)> {
    vec![
        (
            "failed-with-retries",
            PersistedJob {
                spec: with_backend(BackendSpec::Chaos(Box::new(phased_plan()))),
                cluster: 1,
                state: JobState::Failed("tuning run panicked: crash".to_string()),
                retunes: 2,
                retry: RetryStats {
                    transient_faults: 9,
                    retries: 6,
                    exhausted: 1,
                    permanent_failures: 0,
                    backoff_minutes: 3.5,
                },
            },
        ),
        (
            "cancelled",
            PersistedJob {
                spec: spec(),
                cluster: 0,
                state: JobState::Cancelled,
                retunes: 0,
                retry: RetryStats::default(),
            },
        ),
    ]
}

const SPEC_JSON: &str = "{\"name\":\"old\",\"query\":\"nexmark-q1\",\"multiplier\":5.0,\
                         \"seed\":7,\"engine\":\"flink\",\"backend\":\"sim\"}";

/// Legacy and hand-typed inputs that must keep parsing: `(decoder, name,
/// input)`.
fn accepted() -> Vec<(&'static str, &'static str, String)> {
    let plan_no_phases = "{\"seed\":3,\"io_rate\":0.2,\"deploy_fail_rate\":0.1,\
                          \"nan_rate\":0.0,\"stale_rate\":0.0,\"max_burst\":2,\
                          \"crash_epoch\":null}";
    vec![
        ("engine", "capitalized-flink", "\"Flink\"".to_string()),
        ("engine", "capitalized-timely", "\"Timely\"".to_string()),
        ("engine", "lowercase-timely", "\"timely\"".to_string()),
        (
            "persisted_job",
            "no-retunes-no-retry",
            format!("{{\"spec\":{SPEC_JSON},\"cluster\":1,\"state\":\"Cancelled\"}}"),
        ),
        (
            "persisted_job",
            "no-retry",
            format!(
                "{{\"spec\":{SPEC_JSON},\"cluster\":0,\"state\":{{\"Failed\":\"boom\"}},\
                 \"retunes\":2}}"
            ),
        ),
        (
            "response",
            "health-without-admission-counters",
            "{\"health\": {\"jobs\": [], \"watched\": 0, \"degraded_watches\": 0, \
             \"poll_failures\": 0, \"store_recoveries\": 0, \"lock_recoveries\": 0, \
             \"handler_panics\": 0}}"
                .to_string(),
        ),
        (
            "response",
            "drift-bare-array",
            "{\"drift\": []}".to_string(),
        ),
        (
            "response",
            "drift-bare-array-with-line",
            format!(
                "{{\"drift\":[{}]}}",
                serde_json::to_string(&drift_line()).unwrap()
            ),
        ),
        ("fault_plan", "no-phases", plan_no_phases.to_string()),
        (
            "fault_plan",
            "empty-phases",
            plan_no_phases.replace("null}", "null,\"phases\":[]}"),
        ),
        (
            "request",
            "trace-empty-payload",
            "{\"trace\":{}}".to_string(),
        ),
        ("request", "trace-bare", "\"trace\"".to_string()),
        (
            "request",
            "watch-without-schedule",
            "{\"watch\": {\"job\": \"a\"}}".to_string(),
        ),
        (
            "request",
            "recommend-extra-field",
            "{\"recommend\": {\"job\": \"a\", \"verbose\": true}}".to_string(),
        ),
        (
            "request",
            "submit-capitalized-engine",
            "{\"submit\": {\"name\": \"a\", \"query\": \"nexmark-q1\", \"multiplier\": 5, \
             \"seed\": 7, \"engine\": \"Timely\", \"backend\": {\"replay\": \"t.json\"}}}"
                .to_string(),
        ),
        (
            "request",
            "submit-chaos-without-phases",
            format!(
                "{{\"submit\": {{\"name\": \"c\", \"query\": \"nexmark-q1\", \
                 \"multiplier\": 5.0, \"seed\": 7, \"engine\": \"flink\", \
                 \"backend\": {{\"chaos\": {plan_no_phases}}}}}}}"
            ),
        ),
    ]
}

/// Malformed inputs that must keep failing: `(decoder, name, input)`.
fn rejected() -> Vec<(&'static str, &'static str, String)> {
    let phase = "{\"start_epoch\":1,\"end_epoch\":2,\"faults\":{\"io_rate\":1.0,\
                 \"deploy_fail_rate\":0.0,\"nan_rate\":0.0,\"stale_rate\":0.0}}";
    let plan = |phases: &str| {
        format!(
            "{{\"seed\":3,\"io_rate\":0.0,\"deploy_fail_rate\":0.0,\"nan_rate\":0.0,\
             \"stale_rate\":0.0,\"max_burst\":2,\"crash_epoch\":null{phases}}}"
        )
    };
    let submit = |backend: &str| {
        format!(
            "{{\"submit\": {{\"name\": \"a\", \"query\": \"nexmark-q1\", \
             \"multiplier\": 5.0, \"seed\": 7, \"engine\": \"flink\", \"backend\": {backend}}}}}"
        )
    };
    vec![
        ("request", "unknown-verb", "\"reboot\"".to_string()),
        (
            "request",
            "recommend-without-job",
            "{\"recommend\":{}}".to_string(),
        ),
        ("request", "tick-without-steps", "{\"tick\":{}}".to_string()),
        (
            "request",
            "explain-without-job",
            "{\"explain\":{}}".to_string(),
        ),
        ("request", "submit-bare", "\"submit\"".to_string()),
        ("request", "watch-bare", "\"watch\"".to_string()),
        ("request", "not-json", "not json".to_string()),
        (
            "request",
            "two-keys",
            "{\"status\":1,\"health\":2}".to_string(),
        ),
        ("request", "backend-unknown", submit("\"k8s\"")),
        ("request", "backend-replay-bare", submit("\"replay\"")),
        (
            "request",
            "engine-unknown",
            submit("\"sim\"").replace("flink", "spark"),
        ),
        ("engine", "unknown", "\"spark\"".to_string()),
        ("engine", "tagged", "{\"flink\":{}}".to_string()),
        ("response", "unknown-response", "\"bogus\"".to_string()),
        (
            "response",
            "drift-without-alarms",
            "{\"drift\":{\"watches\":[]}}".to_string(),
        ),
        ("response", "metrics-bare", "\"metrics\"".to_string()),
        (
            "fault_plan",
            "five-phases",
            plan(&format!(",\"phases\":[{}]", [phase; 5].join(","))),
        ),
        ("fault_plan", "null-phases", plan(",\"phases\":null")),
        (
            "fault_plan",
            "no-crash-epoch",
            plan("").replace(",\"crash_epoch\":null", ""),
        ),
        (
            "persisted_job",
            "missing-spec",
            "{\"cluster\":0,\"state\":\"Cancelled\"}".to_string(),
        ),
    ]
}

/// Decode `input` with the named decoder and re-encode it canonically.
fn reencode(decoder: &str, input: &str) -> Result<String, serde_json::Error> {
    fn via<T: serde::Serialize + serde::Deserialize>(
        input: &str,
    ) -> Result<String, serde_json::Error> {
        serde_json::from_str::<T>(input).and_then(|v| serde_json::to_string(&v))
    }
    match decoder {
        "request" => via::<Request>(input),
        "response" => via::<Response>(input),
        "engine" => via::<Engine>(input),
        "fault_plan" => via::<FaultPlan>(input),
        "persisted_job" => via::<PersistedJob>(input),
        other => panic!("no decoder named {other}"),
    }
}

/// A sealed journal header plus one sealed entry line, written by the
/// journal itself around one simulated deploy.
fn journal_lines(dir: &Path) -> Vec<String> {
    let spec = with_backend(BackendSpec::Chaos(Box::new(phased_plan())));
    let path = dir.join("golden.journal");
    create_journal(&path, &spec).expect("create journal");
    let flow = find_workload("nexmark-q1", Engine::Flink)
        .expect("known workload")
        .at(4.0);
    let assignment = ParallelismAssignment::uniform(&flow, 2);
    let mut sim = SimCluster::flink_defaults(42);
    let mut journaled = JournaledBackend::resume(&mut sim, &spec, path.clone(), Vec::new());
    journaled
        .deploy(&flow, &assignment, 1)
        .expect("simulated deploy succeeds");
    let text = std::fs::read_to_string(&path).expect("read journal");
    text.lines().map(str::to_string).collect()
}

/// FNV-1a 64 of each store artifact a fixed fast-config daemon writes
/// after tuning three jobs and snapshotting. The decision trail's only
/// wall-clock field is zeroed (and the file re-written) before hashing.
fn artifact_hashes(dir: &Path) -> Vec<(&'static str, u64)> {
    let store = ModelStore::new(dir.join("store"));
    let (mut server, _) = Server::bootstrap(
        Some(store.clone()),
        ServerConfig::fast().with_parallelism(Parallelism::Serial),
        || {
            let cluster = SimCluster::flink_defaults(71);
            HistoryGenerator::new(71).with_jobs(14).generate(&cluster)
        },
    )
    .expect("bootstrap succeeds");
    let jobs = [
        ("alpha", "nexmark-q1", 10.0, BackendSpec::Sim),
        ("beta", "nexmark-q5", 8.0, BackendSpec::Sim),
        (
            "gamma",
            "pqp-linear-3",
            12.0,
            BackendSpec::Chaos(Box::new(phased_plan())),
        ),
    ];
    for (seed, (name, query, multiplier, backend)) in jobs.into_iter().enumerate() {
        let spec = JobSpec {
            name: name.to_string(),
            query: query.to_string(),
            multiplier,
            seed: 11 + seed as u64,
            engine: Engine::Flink,
            backend,
        };
        let (reply, _) = server.handle(&Request::Submit(spec));
        assert!(matches!(reply, Response::Submitted { .. }), "{reply:?}");
    }
    let (reply, _) = server.handle(&Request::Snapshot);
    assert!(matches!(reply, Response::Snapshotted { .. }), "{reply:?}");

    let mut decisions = store.load_decisions().expect("load decisions");
    assert_eq!(decisions.len(), 3);
    for d in &mut decisions {
        d.ts_millis = 0;
    }
    store.save_decisions(&decisions).expect("save decisions");

    let hash = |path: std::path::PathBuf| {
        let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_well_below_the_nesting_limit(&bytes, &path.display().to_string());
        fnv1a64(&bytes)
    };
    vec![
        ("model.json", hash(store.model_path())),
        ("gedcache.json", hash(store.ged_cache_path())),
        ("jobs.json", hash(store.jobs_path())),
        ("decisions.json", hash(store.decisions_path())),
    ]
}

/// Deepest array/object nesting of JSON text (brackets inside strings
/// do not count).
fn nesting_depth(bytes: &[u8]) -> usize {
    let (mut depth, mut deepest, mut in_string, mut escaped) = (0usize, 0, false, false);
    for &b in bytes {
        match (in_string, b) {
            (true, _) if escaped => escaped = false,
            (true, b'\\') => escaped = true,
            (true, b'"') | (false, b'"') => in_string = !in_string,
            (false, b'[' | b'{') => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            (false, b']' | b'}') => depth = depth.saturating_sub(1),
            _ => {}
        }
    }
    deepest
}

/// Everything this build writes must parse back with room to spare under
/// the parser's nesting limit.
fn assert_well_below_the_nesting_limit(bytes: &[u8], what: &str) {
    let depth = nesting_depth(bytes);
    assert!(
        depth <= serde_json::MAX_DEPTH / 8,
        "{what} nests {depth} levels deep (limit {})",
        serde_json::MAX_DEPTH
    );
}

fn enc<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("serializes")
}

/// Render the full fixture report for this build.
fn report(dir: &Path) -> String {
    let mut lines = Vec::new();
    let mut push = |kind: &str, name: &str, bytes: String| {
        assert!(!bytes.contains('\n'), "one line per entry: {bytes}");
        assert_well_below_the_nesting_limit(bytes.as_bytes(), name);
        lines.push(format!("{kind}\t{name}\t{bytes}"));
    };
    for (name, r) in requests() {
        let line = enc(&r);
        assert_eq!(parse_request(&line).expect("parses back"), r, "{line}");
        push("request", name, line);
    }
    for (name, r) in responses() {
        let line = render_response(&r);
        let back: Response = serde_json::from_str(&line).expect("parses back");
        assert_eq!(back, r, "{line}");
        push("response", name, line);
    }
    for (name, s) in specs() {
        push("job_spec", name, enc(&s));
    }
    for (name, plan) in [
        ("quiet", FaultPlan::quiet(1)),
        ("transient-crash", FaultPlan::transient(9).with_crash_at(4)),
        ("phased", phased_plan()),
    ] {
        push("fault_plan", name, enc(&plan));
    }
    for (name, job) in persisted_jobs() {
        push("persisted_job", name, enc(&job));
    }
    let journal = journal_lines(dir);
    assert_eq!(journal.len(), 2, "one header and one entry");
    push("journal", "header", journal[0].clone());
    push("journal", "entry", journal[1].clone());
    for (decoder, name, input) in accepted() {
        let canonical = reencode(decoder, &input)
            .unwrap_or_else(|e| panic!("{decoder}/{name} must parse: {e}"));
        push(
            "accept",
            &format!("{decoder}/{name}"),
            format!("{input}\t{canonical}"),
        );
    }
    for (decoder, name, input) in rejected() {
        assert!(
            reencode(decoder, &input).is_err(),
            "{decoder}/{name} must be rejected: {input}"
        );
        push(
            "reject",
            &format!("{decoder}/{name}"),
            format!("{input}\trejected"),
        );
    }
    for (file, hash) in artifact_hashes(dir) {
        push("artifact_fnv1a64", file, format!("{hash:016x}"));
    }
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

#[test]
fn wire_and_artifact_bytes_match_the_golden_fixture() {
    let dir = std::env::temp_dir().join(format!("streamtune-wire-golden-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let actual = report(&dir);
    std::fs::remove_dir_all(&dir).ok();
    if actual != GOLDEN {
        let out = std::env::temp_dir().join("wire_golden.actual.txt");
        std::fs::write(&out, &actual).ok();
        let (line, (want, got)) = GOLDEN
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (w, g))| w != g)
            .map(|(i, pair)| (i + 1, pair))
            .unwrap_or((0, ("<length differs>", "<length differs>")));
        panic!(
            "wire bytes drifted from tests/golden/wire.txt at line {line}\n  \
             want: {want}\n   got: {got}\n(full report written to {})",
            out.display()
        );
    }
}

/// The encoded payload of every fixture line (accept inputs included).
fn golden_payloads() -> Vec<&'static str> {
    GOLDEN
        .lines()
        .filter(|line| !line.starts_with("artifact_"))
        .filter_map(|line| line.split('\t').nth(2))
        .collect()
}

proptest::proptest! {
    #![proptest_config(proptest::ProptestConfig::with_cases(1000))]

    /// Byte-level mutations of the golden lines — truncation, a flipped
    /// byte, a splice of another line, deep nesting — never panic or abort
    /// a decoder of untrusted bytes: each returns `Ok` or `Err`.
    #[test]
    fn decoders_never_panic_on_mutated_golden_lines(
        line in 0usize..1_000,
        other in 0usize..1_000,
        op in 0u8..4,
        at in 0usize..100_000,
        from in 0usize..100_000,
        len in 1usize..64,
        bits in 1u8..255,
        depth in 100usize..20_000,
    ) {
        let payloads = golden_payloads();
        let base = payloads[line % payloads.len()].as_bytes();
        let donor = payloads[other % payloads.len()].as_bytes();
        let at = at % (base.len() + 1);
        let mut bytes = base.to_vec();
        match op {
            0 => bytes.truncate(at),
            1 => {
                if let Some(b) = bytes.get_mut(at) {
                    *b ^= bits;
                }
            }
            2 => {
                let from = from % donor.len();
                let piece = &donor[from..(from + len).min(donor.len())];
                bytes.splice(at..at, piece.iter().copied());
            }
            _ => {
                let opener: &[u8] = if bits % 2 == 0 { b"[" } else { b"{\"a\":" };
                bytes.splice(at..at, opener.repeat(depth));
            }
        }
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_request(&text);
        let _ = serde_json::from_str::<Response>(&text);
        let _ = serde_json::from_str::<PersistedJob>(&text);
        let _ = serde_json::from_str::<FaultPlan>(&text);

        // The journal reader, with the mutated line as its header and as
        // its first entry.
        let path = std::env::temp_dir().join(format!(
            "streamtune-wire-fuzz-{}.journal",
            std::process::id()
        ));
        let header = payloads.iter().find(|p| p.contains("streamtune-job-journal")).unwrap();
        for file in [[&bytes[..], b"\n", header.as_bytes()].concat(),
                     [header.as_bytes(), b"\n", &bytes[..]].concat()] {
            std::fs::write(&path, file).expect("write scratch journal");
            let _ = load_journal(&path);
        }
        std::fs::remove_file(&path).ok();
    }
}
