//! `streamtune tune` against the *built binary*, once per backend family
//! it can open: a simulator run recorded with `--record` replays to the
//! same recommendation through `--backend replay:`, `--backend ingest:`
//! admits the dump's recorded deployment, and contradictory or malformed
//! backend options exit non-zero with a usage error.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::OnceLock;
use streamtune_connect::{ingest_file, IngestConfig};

const DEMO_DUMP: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/data/ingest_demo.jsonl"
);

/// A per-process scratch directory.
fn scratch() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("streamtune-tune-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    })
}

fn streamtune(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_streamtune"))
        .args(args)
        .output()
        .expect("run streamtune")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A tiny pre-trained bundle, built once per test process.
fn bundle() -> &'static str {
    static BUNDLE: OnceLock<String> = OnceLock::new();
    BUNDLE.get_or_init(|| {
        let path = scratch().join("bundle.json");
        let path = path.to_str().expect("UTF-8 path").to_string();
        let out = streamtune(&[
            "pretrain", "--out", &path, "--jobs", "12", "--seed", "5", "--fast",
        ]);
        assert!(out.status.success(), "pretrain: {}", text(&out.stderr));
        path
    })
}

/// Run `tune` on the bundle with `extra` arguments.
fn tune(extra: &[&str]) -> Output {
    let mut args = vec!["tune", "--bundle", bundle()];
    args.extend_from_slice(extra);
    streamtune(&args)
}

/// The per-operator recommendation lines of a `tune` run.
fn recommendation(out: &Output) -> Vec<String> {
    assert!(out.status.success(), "tune failed: {}", text(&out.stderr));
    text(&out.stdout)
        .lines()
        .filter(|l| l.contains(" parallelism "))
        .map(str::to_string)
        .collect()
}

/// Assert `out` is a usage error whose message contains `needle`.
fn assert_usage(out: &Output, needle: &str) {
    let stderr = text(&out.stderr);
    assert!(!out.status.success(), "expected failure, stderr: {stderr}");
    assert!(
        stderr.contains(needle),
        "expected a usage error naming `{needle}`, got: {stderr}"
    );
}

#[test]
fn recorded_sim_session_replays_to_the_same_recommendation() {
    let trace = scratch().join("q5.trace.json");
    let trace = trace.to_str().expect("UTF-8 path");
    let query = ["--query", "nexmark-q5", "--multiplier", "8", "--seed", "3"];
    let mut record = query.to_vec();
    record.extend(["--backend", "sim", "--record", trace]);
    let recorded = tune(&record);
    let sim = recommendation(&recorded);
    assert_eq!(sim.len(), 3, "nexmark-q5 has three operators: {sim:?}");
    assert!(text(&recorded.stdout).contains("sustains sources"));

    let replay_arg = format!("replay:{trace}");
    let mut replay = query.to_vec();
    replay.extend(["--backend", &replay_arg]);
    let replayed = tune(&replay);
    assert_eq!(recommendation(&replayed), sim);
    assert!(text(&replayed.stdout).contains("replayed "));
}

#[test]
fn ingest_backend_admits_the_recorded_deployment() {
    let report = ingest_file(DEMO_DUMP, &IngestConfig::default()).expect("demo dump ingests");
    let recorded = &report.log.deploys.last().expect("a window").assignment;
    let backend = format!("ingest:{DEMO_DUMP}");
    let out = tune(&[
        "--query",
        "pqp-2way-0",
        "--multiplier",
        "1",
        "--backend",
        &backend,
    ]);
    let lines = recommendation(&out);
    let degrees: Vec<u32> = lines
        .iter()
        .map(|l| {
            l.rsplit(' ')
                .next()
                .and_then(|d| d.parse().ok())
                .expect("a degree")
        })
        .collect();
    assert_eq!(degrees, recorded.as_slice());
    assert!(text(&out.stdout).contains("admitted the deployment recorded"));
}

#[test]
fn malformed_or_contradictory_backends_are_usage_errors() {
    let query = ["--query", "nexmark-q1"];
    let mut bogus = query.to_vec();
    bogus.extend(["--backend", "bogus"]);
    assert_usage(&tune(&bogus), "--backend must be");

    let trace = scratch().join("unused.trace.json");
    let trace = trace.to_str().expect("UTF-8 path");
    let backend = format!("ingest:{DEMO_DUMP}");
    let mut record = query.to_vec();
    record.extend(["--backend", &backend, "--record", trace]);
    assert_usage(&tune(&record), "--record is only meaningful");
    assert!(!Path::new(trace).exists(), "nothing was recorded");
}

#[test]
fn chaos_on_an_admitted_ingest_deployment_is_a_usage_error() {
    // An ingested deployment is admitted, not tuned: a fault storm would
    // have nothing to act on, so the flag is refused instead of ignored.
    let backend = format!("ingest:{DEMO_DUMP}");
    let out = tune(&[
        "--query",
        "pqp-2way-0",
        "--multiplier",
        "1",
        "--backend",
        &backend,
        "--chaos",
        "3",
    ]);
    assert_usage(&out, "--chaos cannot be combined with --backend ingest");
    assert!(out.stdout.is_empty(), "nothing was admitted");
}
