//! Every backend family through the daemon: a job's `BackendSpec` decides
//! what its tuning run and its `watch` poll against, and how a backend
//! that cannot be opened ends the job.
//!
//! * `flink` — a job tuned through the REST connector against the in-repo
//!   mock JobManager ends `done` with the same outcome as the same spec on
//!   `sim`; an unreachable endpoint ends `degraded` (sick, not wrong);
//! * `ingest` — a job over a JSONL dump admits the dump's recorded
//!   deployment and can be watched; a workload whose operator count does
//!   not match the dump ends `failed`;
//! * `replay` — a recorded trace tunes, but cannot be watched live;
//! * a recording that cannot be read — a missing `ingest` dump or
//!   `replay` trace — ends `failed`: re-reading it does not heal it;
//! * the daemon-wide chaos drill wraps `sim` tuning runs only: the spec,
//!   the decision record and the watch poll stay plain `sim`.

use streamtune::backend::{TraceRecorder, Tuner, TuningSession};
use streamtune::connect::{ingest_file, IngestConfig, MockFlinkServer};
use streamtune::core::Parallelism;
use streamtune::prelude::*;
use streamtune::serve::{JobState, Request, Response, ServerConfig};
use streamtune::workloads::history::HistoryGenerator;
use streamtune::workloads::rates::Engine;

const DEMO_DUMP: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/examples/data/ingest_demo.jsonl"
);

fn server_with(config: ServerConfig) -> Server {
    let (server, _) = Server::bootstrap(None, config.with_parallelism(Parallelism::Serial), || {
        let cluster = SimCluster::flink_defaults(91);
        HistoryGenerator::new(91).with_jobs(12).generate(&cluster)
    })
    .expect("bootstrap succeeds");
    server
}

fn server() -> Server {
    server_with(ServerConfig::fast())
}

fn spec(name: &str, query: &str, multiplier: f64, seed: u64, backend: BackendSpec) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        query: query.to_string(),
        multiplier,
        seed,
        engine: Engine::Flink,
        backend,
    }
}

fn submit(server: &mut Server, spec: JobSpec) {
    let name = spec.name.clone();
    match server.handle(&Request::Submit(spec)).0 {
        Response::Submitted { job, .. } => assert_eq!(job, name),
        other => panic!("submit {name}: {other:?}"),
    }
}

/// Drain the queue and return `name`'s terminal state.
fn state_of(server: &mut Server, name: &str) -> JobState {
    assert!(matches!(
        server.handle(&Request::Status).0,
        Response::Status(_)
    ));
    server
        .manager()
        .job(name)
        .expect("job admitted")
        .state
        .clone()
}

fn done(server: &mut Server, name: &str) -> TuneOutcome {
    match state_of(server, name) {
        JobState::Done(result) => result.outcome,
        other => panic!("job {name}: expected done, got {other:?}"),
    }
}

fn watch(server: &mut Server, name: &str) -> Response {
    server
        .handle(&Request::Watch {
            job: name.to_string(),
            schedule: None,
        })
        .0
}

#[test]
fn flink_job_against_the_mock_matches_the_same_spec_on_sim() {
    let mut server = server();
    let (query, multiplier, seed) = ("nexmark-q5", 8.0, 17);
    let flow = find_workload(query, Engine::Flink)
        .expect("named workload")
        .at(multiplier);
    let mock = MockFlinkServer::start(SimCluster::flink_defaults(seed), flow).expect("mock starts");
    submit(
        &mut server,
        spec(
            "live",
            query,
            multiplier,
            seed,
            BackendSpec::Flink(mock.url()),
        ),
    );
    submit(
        &mut server,
        spec("twin", query, multiplier, seed, BackendSpec::Sim),
    );
    let live = done(&mut server, "live");
    let twin = done(&mut server, "twin");
    assert_eq!(live.final_assignment, twin.final_assignment);
    assert_eq!(live, twin, "the connector run is bit-identical to sim");
    assert!(mock.requests() > 0, "the tune reached the mock");
}

#[test]
fn unreachable_flink_endpoint_degrades_the_job() {
    let mut server = server();
    submit(
        &mut server,
        spec(
            "gone",
            "nexmark-q1",
            6.0,
            3,
            BackendSpec::Flink("http://127.0.0.1:1".to_string()),
        ),
    );
    match state_of(&mut server, "gone") {
        JobState::Degraded(message) => {
            assert!(
                message.contains("flink"),
                "detail names the backend: {message}"
            )
        }
        other => panic!("expected degraded, got {other:?}"),
    }
}

#[test]
fn ingest_job_admits_the_recorded_deployment_and_is_watchable() {
    let mut server = server();
    let report = ingest_file(DEMO_DUMP, &IngestConfig::default()).expect("demo dump ingests");
    let recorded = report
        .log
        .deploys
        .last()
        .expect("at least one window")
        .assignment
        .clone();
    assert_eq!(recorded.len(), 5, "the demo dump has five operators");
    submit(
        &mut server,
        spec(
            "dump",
            "pqp-2way-0",
            1.0,
            21,
            BackendSpec::Ingest(DEMO_DUMP.to_string()),
        ),
    );
    let outcome = done(&mut server, "dump");
    assert_eq!(outcome.final_assignment, recorded);
    assert_eq!(outcome.reconfigurations, 0, "admitted, not tuned");
    assert_eq!(outcome.iterations as usize, report.log.deploys.len());
    match server
        .handle(&Request::Recommend {
            job: "dump".to_string(),
        })
        .0
    {
        Response::Recommendation(rec) => {
            assert_eq!(rec.degrees, recorded.as_slice());
            assert_eq!(rec.op_names, report.operators);
        }
        other => panic!("expected recommendation, got {other:?}"),
    }
    assert!(
        matches!(watch(&mut server, "dump"), Response::Watching { .. }),
        "an ingested job replays its dump under the monitor"
    );
    assert!(matches!(
        server.handle(&Request::Tick { steps: 3 }).0,
        Response::Ticked(_)
    ));
}

#[test]
fn ingest_job_with_a_mismatched_workload_fails() {
    let mut server = server();
    submit(
        &mut server,
        spec(
            "wrong",
            "nexmark-q1",
            1.0,
            21,
            BackendSpec::Ingest(DEMO_DUMP.to_string()),
        ),
    );
    match state_of(&mut server, "wrong") {
        JobState::Failed(message) => assert!(
            message.contains("ingested dump has 5 operators"),
            "detail names the mismatch: {message}"
        ),
        other => panic!("expected failed, got {other:?}"),
    }
}

#[test]
fn unreadable_recordings_fail_the_job() {
    let mut server = server();
    for (name, backend) in [
        ("dump", BackendSpec::Ingest("/no/such.jsonl".to_string())),
        ("trace", BackendSpec::Replay("/no/such.json".to_string())),
    ] {
        submit(&mut server, spec(name, "pqp-2way-0", 1.0, 21, backend));
        match state_of(&mut server, name) {
            JobState::Failed(message) => assert!(
                message.contains("/no/such"),
                "detail names the path: {message}"
            ),
            other => panic!("{name}: expected failed, got {other:?}"),
        }
    }
}

#[test]
fn replay_job_tunes_but_cannot_be_watched() {
    let (query, multiplier, seed) = ("nexmark-q2", 6.0, 5);
    let flow = find_workload(query, Engine::Flink)
        .expect("named workload")
        .at(multiplier);
    let mut server = server();
    submit(
        &mut server,
        spec("source", query, multiplier, seed, BackendSpec::Sim),
    );
    let reference = done(&mut server, "source");

    // Record the same tune in process (the daemon shares each cluster's
    // warm fit, which changes no decision).
    let mut recorder = TraceRecorder::new(SimCluster::flink_defaults(seed));
    let mut tuner = StreamTune::new(server.pretrained(), TuneConfig::default());
    let mut session = TuningSession::new(&mut recorder, &flow);
    assert_eq!(tuner.tune(&mut session).expect("tunes"), reference);
    drop(session);
    let path = std::env::temp_dir().join(format!(
        "streamtune-serve-backends-{}.trace.json",
        std::process::id()
    ));
    let path = path.to_str().expect("UTF-8 temp path").to_string();
    recorder.into_log().save(&path).expect("trace saves");

    submit(
        &mut server,
        spec(
            "replayed",
            query,
            multiplier,
            seed,
            BackendSpec::Replay(path.clone()),
        ),
    );
    assert_eq!(done(&mut server, "replayed"), reference);
    match watch(&mut server, "replayed") {
        Response::Error { message } => assert!(
            message.contains("replayed trace and cannot be watched"),
            "NotWatchable: {message}"
        ),
        other => panic!("expected an error, got {other:?}"),
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn chaos_drill_wraps_sim_tuning_runs_only() {
    let mut clean = server();
    let mut drilled = server_with(ServerConfig {
        chaos: Some(9),
        ..ServerConfig::fast()
    });
    for server in [&mut clean, &mut drilled] {
        submit(server, spec("j", "pqp-linear-3", 12.0, 5, BackendSpec::Sim));
    }
    assert_eq!(
        done(&mut drilled, "j"),
        done(&mut clean, "j"),
        "absorbed drill faults change no decision"
    );
    // The spec and its audit record still say `sim`.
    let job = drilled.manager().job("j").expect("admitted");
    assert_eq!(job.spec.backend, BackendSpec::Sim);
    let decision = drilled.manager().decision_for("j").expect("recorded");
    assert_eq!(decision.backend, "sim");
    let faults = |server: &mut Server| match server.handle(&Request::Health).0 {
        Response::Health(health) => health.jobs[0].transient_faults,
        other => panic!("expected health, got {other:?}"),
    };
    let tuning_faults = faults(&mut drilled);
    assert!(tuning_faults > 0, "the drill fired on the tuning run");
    // The watch polls the plain simulator: ticking adds no faults.
    assert!(matches!(
        watch(&mut drilled, "j"),
        Response::Watching { .. }
    ));
    assert!(matches!(
        drilled.handle(&Request::Tick { steps: 10 }).0,
        Response::Ticked(_)
    ));
    assert_eq!(faults(&mut drilled), tuning_faults);
}
