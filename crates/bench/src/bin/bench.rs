//! BENCH — the perf-trajectory runner.
//!
//! Runs the two headline workloads of the paper's cost evaluation on this
//! machine and emits machine-readable results to the repository root:
//!
//! * `BENCH_pretrain.json` — the Fig. 9b offline pre-training cost sweep
//!   (corpus size vs wall-clock seconds);
//! * `BENCH_recommend.json` — the Fig. 9a online recommendation time per
//!   tuning iteration across the PQP template families and methods;
//! * `BENCH_serve.json` — per-verb daemon request latency (p50/p99 read
//!   from the `streamtune-telemetry` histograms after a scripted flood
//!   against an in-process `Server`): the read verbs, then `submit`
//!   (admission and placement of jobs that no later verb drains).
//!
//! Both files are meant to be checked in whenever the hot path changes, so
//! the performance trajectory of the repository is tracked in-tree. Seeds
//! and workloads are fixed; only the timings vary between machines.
//!
//! `--check` runs only the serve flood and compares its per-verb p99
//! latencies against the checked-in `BENCH_serve.json`, exiting non-zero
//! on a >3× regression — the CI `bench-check` step. An absolute floor
//! keeps sub-noise latencies (tens of nanoseconds, where a 3× ratio is
//! all scheduler jitter) from failing the build.
//!
//! Usage: `cargo run --release -p streamtune-bench --bin bench [-- --fast | --check]`

use serde::Serialize;
use std::time::Instant;
use streamtune_bench::harness::{
    is_fast, pretraining_costs, print_table, recommendation_times, PretrainPoint, RecommendRow,
    PRETRAIN_SEED, RECOMMEND_SEED,
};
use streamtune_sim::SimCluster;
use streamtune_workloads::history::HistoryGenerator;

#[derive(Serialize)]
struct PretrainBench {
    workload: &'static str,
    seed: u64,
    points: Vec<PretrainPoint>,
    total_seconds: f64,
}

#[derive(Serialize)]
struct RecommendBench {
    workload: &'static str,
    seed: u64,
    rows: Vec<RecommendRow>,
}

fn write_root_json<T: Serialize>(name: &str, value: &T) {
    match serde_json::to_string_pretty(value) {
        Ok(s) => match std::fs::write(name, s + "\n") {
            Ok(()) => println!("[written {name}]"),
            Err(e) => eprintln!("warning: cannot write {name}: {e}"),
        },
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

fn bench_pretrain(fast: bool) -> PretrainBench {
    let total = Instant::now();
    let points = pretraining_costs(fast);
    PretrainBench {
        workload: "fig9b_pretraining_cost",
        seed: PRETRAIN_SEED,
        points,
        total_seconds: total.elapsed().as_secs_f64(),
    }
}

fn bench_recommend(fast: bool) -> RecommendBench {
    RecommendBench {
        workload: "fig9a_recommendation_time",
        seed: RECOMMEND_SEED,
        rows: recommendation_times(fast),
    }
}

#[derive(Serialize)]
struct ServeRow {
    verb: String,
    requests: u64,
    p50_seconds: f64,
    p99_seconds: f64,
    mean_seconds: f64,
}

#[derive(Serialize)]
struct ServeBench {
    workload: &'static str,
    seed: u64,
    rows: Vec<ServeRow>,
}

fn bench_serve(fast: bool) -> ServeBench {
    use streamtune_serve::{BackendSpec, JobSpec, Request, Response, Server, ServerConfig};
    use streamtune_telemetry::MetricValue;
    use streamtune_workloads::{named_workloads, rates::Engine};

    let seed = 91u64;
    let flood = if fast { 500u64 } else { 5_000 };
    // At most one submit per distinct DAG structure (9 in the catalog)
    // runs a GED pass; 2,000 submits keep those under 1% of the samples,
    // so p99 measures a placement served by the memo. The count is the
    // same with and without `--fast`, so `--check` compares like with
    // like (the ledger's growth steps also land in the tail).
    let submits = 2_000u64;
    let (mut server, _) = Server::bootstrap(
        None,
        ServerConfig::fast().with_parallelism(streamtune_core::Parallelism::Serial),
        || {
            let cluster = SimCluster::flink_defaults(seed);
            HistoryGenerator::new(seed).with_jobs(12).generate(&cluster)
        },
    )
    .expect("bootstrap succeeds");
    // A couple of tuned jobs so `recommend`/`status` answer real state.
    for (name, job_seed) in [("bench-a", 1u64), ("bench-b", 2)] {
        let line = format!(
            "{{\"submit\": {{\"name\": \"{name}\", \"query\": \"nexmark-q1\", \
             \"multiplier\": 6.0, \"seed\": {job_seed}, \"engine\": \"flink\", \
             \"backend\": \"sim\"}}}}"
        );
        server.handle(&streamtune_serve::parse_request(&line).expect("valid submit"));
    }
    // Scripted flood over the read verbs; latencies accumulate in the
    // telemetry histograms the daemon itself exposes, so this doubles as
    // a check that the scrape numbers are trustworthy.
    let verbs: Vec<(&str, Request)> = vec![
        ("status", Request::Status),
        (
            "recommend",
            Request::Recommend {
                job: "bench-a".to_string(),
            },
        ),
        ("drift_status", Request::DriftStatus),
        ("health", Request::Health),
        ("metrics", Request::Metrics),
    ];
    for (_, request) in &verbs {
        for _ in 0..flood {
            server.handle(request);
        }
    }
    // Fresh jobs with unique names, cycling over the named queries. They
    // come after the read floods because the read verbs drain the queue:
    // every submit measures admission alone, with no tuning run.
    let queries: Vec<String> = named_workloads(Engine::Flink)
        .into_iter()
        .map(|w| w.name)
        .collect();
    let submit_requests: Vec<Request> = (0..submits)
        .zip(queries.iter().cycle())
        .map(|(i, query)| {
            Request::Submit(JobSpec {
                name: format!("flood-{i}"),
                query: query.clone(),
                multiplier: 6.0,
                seed: i,
                engine: Engine::Flink,
                backend: BackendSpec::Sim,
            })
        })
        .collect();
    for request in &submit_requests {
        let (reply, _) = server.handle(request);
        assert!(
            matches!(reply, Response::Submitted { .. }),
            "flood submit refused: {reply:?}"
        );
    }
    let snapshot = streamtune_telemetry::global().snapshot();
    let mut rows = Vec::new();
    let mut table = Vec::new();
    let measured = verbs.iter().map(|(verb, _)| *verb).chain(["submit"]);
    for verb in measured {
        let series = snapshot
            .find("streamtune_request_duration_nanoseconds", &[("verb", verb)])
            .expect("flooded verb has a latency histogram");
        let MetricValue::Histogram(ref hist) = series.value else {
            panic!("latency series is a histogram");
        };
        let (p50, p99, mean) = (hist.quantile(0.5), hist.quantile(0.99), hist.mean());
        table.push(vec![
            verb.to_string(),
            format!("{}", hist.count),
            format!("{:.1} µs", p50 / 1e3),
            format!("{:.1} µs", p99 / 1e3),
        ]);
        rows.push(ServeRow {
            verb: verb.to_string(),
            requests: hist.count,
            p50_seconds: p50 / 1e9,
            p99_seconds: p99 / 1e9,
            mean_seconds: mean / 1e9,
        });
    }
    print_table(
        "BENCH — serve request latency (telemetry histograms)",
        &["verb", "requests", "p50", "p99"],
        &table,
    );
    ServeBench {
        workload: "serve_request_latency",
        seed,
        rows,
    }
}

/// p99 regressions beyond this ratio over the checked-in baseline fail
/// `--check`.
const CHECK_P99_RATIO: f64 = 3.0;

/// Absolute p99 budget floor: a verb whose p99 stays under this many
/// seconds never fails the check, however it compares to the baseline —
/// at sub-floor scales the measurement is timer/scheduler noise, not code.
const CHECK_P99_FLOOR_SECONDS: f64 = 20e-6;

/// Compare a fresh serve flood against the checked-in `BENCH_serve.json`.
/// Every baseline verb must be present in the fresh run and stay within
/// `max(baseline_p99 × CHECK_P99_RATIO, CHECK_P99_FLOOR_SECONDS)`.
fn check_serve_regressions(current: &ServeBench) -> Result<(), String> {
    let raw = std::fs::read_to_string("BENCH_serve.json")
        .map_err(|e| format!("cannot read checked-in BENCH_serve.json: {e}"))?;
    let baseline: serde_json::Value = serde_json::from_str(&raw)
        .map_err(|e| format!("checked-in BENCH_serve.json does not parse: {e}"))?;
    let rows = match baseline.field("rows") {
        Ok(serde_json::Value::Array(rows)) => rows,
        _ => return Err("checked-in BENCH_serve.json carries no `rows` array".to_string()),
    };
    let mut failures = Vec::new();
    let mut checked = 0usize;
    for row in rows {
        let verb = match row.field("verb") {
            Ok(serde_json::Value::String(v)) => v.clone(),
            _ => return Err("baseline row without a `verb` string".to_string()),
        };
        let base_p99 = match row.field("p99_seconds") {
            Ok(serde_json::Value::F64(s)) => *s,
            Ok(serde_json::Value::U64(s)) => *s as f64,
            _ => {
                return Err(format!(
                    "baseline row `{verb}` without a numeric p99_seconds"
                ))
            }
        };
        let Some(now) = current.rows.iter().find(|r| r.verb == verb) else {
            failures.push(format!(
                "verb `{verb}` is in the baseline but was not measured"
            ));
            continue;
        };
        let budget = (base_p99 * CHECK_P99_RATIO).max(CHECK_P99_FLOOR_SECONDS);
        let verdict = if now.p99_seconds > budget {
            failures.push(format!(
                "verb `{verb}` p99 regressed: {:.1}µs now vs {:.1}µs baseline \
                 (budget {:.1}µs = max({CHECK_P99_RATIO}× baseline, {:.0}µs floor))",
                now.p99_seconds * 1e6,
                base_p99 * 1e6,
                budget * 1e6,
                CHECK_P99_FLOOR_SECONDS * 1e6,
            ));
            "REGRESSED"
        } else {
            "ok"
        };
        println!(
            "check {verb:<16} p99 {:>10.1}µs  baseline {:>10.1}µs  budget {:>10.1}µs  {verdict}",
            now.p99_seconds * 1e6,
            base_p99 * 1e6,
            budget * 1e6,
        );
        checked += 1;
    }
    if checked == 0 {
        return Err("checked-in BENCH_serve.json carries no verb rows to check".to_string());
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("\n"))
    }
}

fn main() {
    let fast = is_fast();
    if std::env::args().any(|a| a == "--check") {
        // Regression gate: fast flood, no files written, non-zero exit on
        // a p99 blow-up against the checked-in baseline.
        let serve = bench_serve(true);
        match check_serve_regressions(&serve) {
            Ok(()) => {
                println!("\nBENCH check passed: serve p99s within budget of BENCH_serve.json.");
                return;
            }
            Err(message) => {
                eprintln!("\nBENCH check FAILED:\n{message}");
                std::process::exit(1);
            }
        }
    }
    let pretrain = bench_pretrain(fast);
    write_root_json("BENCH_pretrain.json", &pretrain);
    let recommend = bench_recommend(fast);
    write_root_json("BENCH_recommend.json", &recommend);
    let serve = bench_serve(fast);
    write_root_json("BENCH_serve.json", &serve);
    println!(
        "\nBENCH complete: pretrain sweep {:.2}s total.",
        pretrain.total_seconds
    );
}
