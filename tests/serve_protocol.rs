//! End-to-end protocol coverage: a scripted session against an in-process
//! server submits three jobs, reads recommendations identical to
//! equivalent single-process tuning sessions, snapshots the store, and a
//! restarted server resumes from it without retraining.

use std::io::Cursor;
use streamtune::backend::{Tuner, TuningSession};
use streamtune::core::Parallelism;
use streamtune::prelude::*;
use streamtune::serve::{Response, ServerConfig};
use streamtune::workloads::history::HistoryGenerator;
use streamtune::workloads::rates::Engine;

fn temp_store(name: &str) -> ModelStore {
    let dir =
        std::env::temp_dir().join(format!("streamtune-proto-it-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ModelStore::new(dir)
}

fn recipe() -> Vec<streamtune::workloads::history::ExecutionRecord> {
    let cluster = SimCluster::flink_defaults(71);
    HistoryGenerator::new(71).with_jobs(14).generate(&cluster)
}

fn config(parallelism: Parallelism) -> ServerConfig {
    ServerConfig::fast().with_parallelism(parallelism)
}

/// Run `script` against `server`, returning one parsed response per line.
fn run_script(server: &mut Server, script: &str) -> Vec<Response> {
    let mut out = Vec::new();
    server
        .serve(Cursor::new(script.to_string()), &mut out)
        .expect("serve succeeds");
    String::from_utf8(out)
        .expect("UTF-8 responses")
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid response line"))
        .collect()
}

const JOBS: [(&str, &str, f64, u64); 3] = [
    ("alpha", "nexmark-q1", 10.0, 11),
    ("beta", "nexmark-q5", 8.0, 12),
    ("gamma", "nexmark-q3", 6.0, 13),
];

fn submit_lines() -> String {
    JOBS.iter()
        .map(|(name, query, multiplier, seed)| {
            format!(
                "{{\"submit\": {{\"name\": \"{name}\", \"query\": \"{query}\", \
                 \"multiplier\": {multiplier:?}, \"seed\": {seed}, \"engine\": \"flink\", \
                 \"backend\": \"sim\"}}}}\n"
            )
        })
        .collect()
}

#[test]
fn scripted_session_matches_single_process_tuning_and_survives_restart() {
    let store = temp_store("e2e");

    // --- Session 1: fresh bootstrap (pre-trains, persists the model). ---
    let (mut server, report) =
        Server::bootstrap(Some(store.clone()), config(Parallelism::Fixed(4)), recipe)
            .expect("bootstrap succeeds");
    assert!(!report.loaded_from_store);

    let mut script = submit_lines();
    for (name, ..) in JOBS {
        script.push_str(&format!("{{\"recommend\": {{\"job\": \"{name}\"}}}}\n"));
    }
    script.push_str("\"snapshot\"\n\"shutdown\"\n");
    let responses = run_script(&mut server, &script);
    assert_eq!(responses.len(), 3 + 3 + 2);

    // Submissions are admitted.
    for (r, (name, ..)) in responses[..3].iter().zip(JOBS) {
        match r {
            Response::Submitted { job, .. } => assert_eq!(job, name),
            other => panic!("expected submitted, got {other:?}"),
        }
    }
    // Recommendations equal the single-process equivalents, bit for bit.
    let pre = server.pretrained().clone();
    for (r, (name, query, multiplier, seed)) in responses[3..6].iter().zip(JOBS) {
        let Response::Recommendation(rec) = r else {
            panic!("expected recommendation for {name}, got {r:?}");
        };
        let flow = find_workload(query, Engine::Flink)
            .expect("known workload")
            .at(multiplier);
        let mut cluster = SimCluster::flink_defaults(seed);
        let mut session = TuningSession::new(&mut cluster, &flow);
        let mut tuner = StreamTune::new(&pre, TuneConfig::default());
        let solo = tuner.tune(&mut session).expect("tuning succeeds");
        assert_eq!(rec.job, name);
        assert_eq!(
            rec.degrees,
            solo.final_assignment.as_slice().to_vec(),
            "served degrees for {name} must equal the single-process session"
        );
        assert_eq!(rec.reconfigurations, solo.reconfigurations);
        assert_eq!(rec.total, solo.final_assignment.total());
    }
    assert!(matches!(responses[6], Response::Snapshotted { .. }));
    assert!(matches!(responses[7], Response::ShuttingDown));

    // --- Session 2: restart resumes from the store without retraining. ---
    let (mut restarted, report) =
        Server::bootstrap(Some(store.clone()), config(Parallelism::Fixed(4)), || {
            unreachable!("restart must not retrain")
        })
        .expect("restart succeeds");
    assert!(report.loaded_from_store);
    assert_eq!(report.restored_jobs, 3);

    let responses = run_script(&mut restarted, "\"status\"\n\"shutdown\"\n");
    let Response::Status(status) = &responses[0] else {
        panic!("expected status, got {:?}", responses[0]);
    };
    assert_eq!(status.jobs.len(), 3);
    for (line, (name, query, ..)) in status.jobs.iter().zip(JOBS) {
        assert_eq!(line.name, name);
        assert_eq!(line.query, query);
        assert_eq!(line.state, "done");
    }
    let stats = status.store.as_ref().expect("store stats present");
    assert!(stats.model_bytes > 0);
    assert!(stats.corpus_bytes > 0, "corpus must be persisted");
    assert!(stats.jobs_bytes > 0);
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn forced_retrain_invalidates_the_stale_job_ledger() {
    let store = temp_store("retrain");

    // Session 1: train, run a job, snapshot (model + ledger on disk).
    let (mut server, _) =
        Server::bootstrap(Some(store.clone()), config(Parallelism::Serial), recipe)
            .expect("bootstrap succeeds");
    let mut script = submit_lines();
    script.push_str("\"snapshot\"\n\"shutdown\"\n");
    run_script(&mut server, &script);
    assert!(store.has_jobs());

    // The operator forces a retrain by deleting the model artifact.
    std::fs::remove_file(store.model_path()).expect("delete model");

    // Session 2: cold bootstrap must clear the old model epoch's ledger…
    let (_server, report) =
        Server::bootstrap(Some(store.clone()), config(Parallelism::Serial), recipe)
            .expect("retrain succeeds");
    assert!(!report.loaded_from_store);
    assert_eq!(report.restored_jobs, 0);

    // …so a restart does not resurrect results computed under the old
    // model, and the old names are free to resubmit.
    let (mut restarted, report) =
        Server::bootstrap(Some(store.clone()), config(Parallelism::Serial), || {
            unreachable!("restart must not retrain")
        })
        .expect("restart succeeds");
    assert!(report.loaded_from_store);
    assert_eq!(report.restored_jobs, 0);
    let responses = run_script(&mut restarted, &submit_lines());
    for r in &responses {
        assert!(matches!(r, Response::Submitted { .. }), "got {r:?}");
    }
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn protocol_errors_keep_the_server_alive() {
    let (mut server, _) =
        Server::bootstrap(None, config(Parallelism::Serial), recipe).expect("bootstrap succeeds");
    let script = "\
        this is not json\n\
        \"reboot\"\n\
        {\"recommend\": {\"job\": \"ghost\"}}\n\
        {\"cancel\": {\"job\": \"ghost\"}}\n\
        \"snapshot\"\n\
        {\"watch\": {\"job\": \"ghost\"}}\n\
        {\"unwatch\": {\"job\": \"ghost\"}}\n\
        {\"tick\": {\"steps\": 100001}}\n\
        {\"explain\": {\"job\": \"ghost\"}}\n\
        \"status\"\n";
    let responses = run_script(&mut server, script);
    assert_eq!(responses.len(), 10);
    // Bad line, unknown verb, unknown job (four times), snapshot without a
    // store, an over-cap tick and an unexplained job all answer with
    // errors, each with its exact text…
    let messages: Vec<&str> = responses[..9]
        .iter()
        .map(|r| match r {
            Response::Error { message } => message.as_str(),
            other => panic!("expected an error, got {other:?}"),
        })
        .collect();
    assert_eq!(
        messages,
        [
            "bad request: unexpected Some('t') at offset 0",
            "bad request: unknown variant `reboot`, expected one of `submit`, `status`, \
             `recommend`, `cancel`, `watch`, `unwatch`, `drift_status`, `health`, `metrics`, \
             `tick`, `snapshot`, `drain`, `trace`, `explain`, `metrics_history`, `shutdown`",
            "no job named `ghost`",
            "no job named `ghost`",
            "no model store configured (start the server with --store)",
            "no job named `ghost`",
            "job `ghost` is not watched",
            "tick steps 100001 exceeds the per-request cap 100000 (send several smaller ticks \
             instead)",
            "no decision recorded for job `ghost` (it never completed a tuning run, or the \
             trail was compacted past it)",
        ]
    );
    // …and the server still serves real requests afterwards.
    match &responses[9] {
        Response::Status(status) => {
            assert!(status.jobs.is_empty());
            assert!(status.store.is_none(), "no store configured");
        }
        other => panic!("expected status, got {other:?}"),
    }
}

#[test]
fn cancel_and_duplicate_submissions_behave() {
    let (mut server, _) =
        Server::bootstrap(None, config(Parallelism::Serial), recipe).expect("bootstrap succeeds");
    let script = format!(
        "{submits}{dup}{cancel}\"status\"\n",
        submits = submit_lines(),
        dup = "{\"submit\": {\"name\": \"alpha\", \"query\": \"nexmark-q2\", \
               \"multiplier\": 4.0, \"seed\": 9, \"engine\": \"flink\", \"backend\": \"sim\"}}\n",
        cancel = "{\"cancel\": {\"job\": \"beta\"}}\n",
    );
    let responses = run_script(&mut server, &script);
    assert!(
        matches!(responses[3], Response::Error { .. }),
        "duplicate name"
    );
    assert!(matches!(responses[4], Response::Cancelled { .. }));
    let Response::Status(status) = &responses[5] else {
        panic!("expected status");
    };
    let states: Vec<&str> = status.jobs.iter().map(|l| l.state.as_str()).collect();
    assert_eq!(states, ["done", "cancelled", "done"]);
}
