//! End-to-end and per-layer benchmark of StreamTune.
//!
//! ```text
//! e2ebench --workload fresh_jobs|reads_under_tuning
//!          --seed N --seconds S --trace 0|1 --daemon PATH --out-dir DIR
//! ```
//!
//! Both workloads drive `streamtune serve` (at `--daemon`) over TCP
//! loopback; the traced run adds in-process probes of each layer and of
//! the paper's rate schedule. Every served recommendation is checked
//! against an in-process tune of the same spec. The report lists each
//! metric with its unit and sample count; the last line is one JSON object
//! with every metric the run measured (`run.py` keeps the ones
//! `BENCHMARK.json` names). `--trace 1` adds the per-layer metrics. Exit
//! status: 0 when every output was correct, 1 on a mismatch or failed
//! operation, 2 when the run could not be made, 3 when an open-loop run
//! fell behind.

mod daemon;
mod fresh;
mod jobs;
mod layers;
mod pace;
mod reads;
mod schedule;
mod serving;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The end-to-end figures the report always names, `n/a` where the
/// workload does not define them.
const REPORTED: [&str; 10] = [
    "setup_s",
    "peak_rss_mb",
    "failed_ratio",
    "ttr_p50_ms",
    "ttr_p90_ms",
    "read_p50_ms",
    "read_p95_ms",
    "par_over_oracle",
    "reconfigs_per_tune",
    "backpressure_per_tune",
];

/// What one run was asked to do.
pub struct Ctx {
    /// Seed of every input.
    pub seed: u64,
    /// How long the workload measures.
    pub seconds: f64,
    /// Traced run: spans on, and the per-layer probes.
    pub trace: bool,
    /// The `streamtune` binary.
    pub daemon: PathBuf,
    /// Where logs and the span file go.
    pub out: PathBuf,
}

/// One measured figure.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    /// The value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Samples behind it.
    pub n: usize,
}

/// What a run measured and whether its outputs were right.
#[derive(Default)]
pub struct Report {
    /// Figures by name.
    pub metrics: BTreeMap<String, Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or gave a wrong answer.
    pub failed: u64,
    /// The first failures, for the log.
    pub errors: Vec<String>,
    /// Human-readable lines printed before the metrics.
    pub notes: Vec<String>,
    /// Why the run does not count, when it does not.
    pub invalid: Option<String>,
}

impl Report {
    /// Record a figure.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, n: usize) {
        self.metrics
            .insert(name.to_string(), Metric { value, unit, n });
    }

    /// Count one operation; an `Err` is a failure. Returns whether it passed.
    pub fn attempt(&mut self, outcome: Result<(), String>) -> bool {
        self.attempted += 1;
        match outcome {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                if self.errors.len() < 20 {
                    self.errors.push(e);
                }
                false
            }
        }
    }

    /// A line for the human-readable report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

fn parse_args() -> Result<(String, Ctx), String> {
    let mut workload = None;
    let mut ctx = Ctx {
        seed: 0,
        seconds: 0.0,
        trace: false,
        daemon: PathBuf::new(),
        out: PathBuf::new(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => ctx.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => ctx.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => ctx.trace = value == "1",
            "--daemon" => ctx.daemon = PathBuf::from(value),
            "--out-dir" => ctx.out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if ctx.seconds <= 0.0 || ctx.out.as_os_str().is_empty() {
        return Err("--seconds and --out-dir are required".to_string());
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok((workload, ctx))
}

/// The result line: every measured metric, non-finite values as `null`.
fn result_json(report: &Report, correct: bool) -> String {
    let fields: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, m)| {
            let value = if m.value.is_finite() {
                m.value.to_string()
            } else {
                "null".to_string()
            };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    )
}

fn main() -> ExitCode {
    let (workload, ctx) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out) {
        eprintln!("e2ebench: {}: {e}", ctx.out.display());
        return ExitCode::from(2);
    }
    let mut tracer = spans::Tracer::new(ctx.trace);
    let outcome = match workload.as_str() {
        "fresh_jobs" => fresh::run(&ctx, &mut tracer),
        "reads_under_tuning" => reads::run(&ctx, &mut tracer),
        other => Err(format!("unknown workload {other}")),
    };
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("e2ebench: {workload}: {e}");
            return ExitCode::from(2);
        }
    };
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.put(
        "failed_ratio",
        failed_ratio,
        "ratio",
        report.attempted as usize,
    );

    println!(
        "workload {workload} seed {} seconds {}",
        ctx.seed, ctx.seconds
    );
    for line in &report.notes {
        println!("{line}");
    }
    let line =
        |name: &str, m: &Metric| println!("  {name:<30} {:>14.4} {:<6} n={}", m.value, m.unit, m.n);
    for name in REPORTED {
        match report.metrics.get(name) {
            Some(m) => line(name, m),
            None => println!(
                "  {name:<30} {:>14} {:<6} (not defined on {workload})",
                "n/a", ""
            ),
        }
    }
    for (name, m) in report
        .metrics
        .iter()
        .filter(|(n, _)| !REPORTED.contains(&n.as_str()))
    {
        line(name, m);
    }
    if ctx.trace {
        println!("self time by span (total ms / self ms / count):");
        for (name, t) in tracer.self_times() {
            println!(
                "  {name:<30} {:>12.3} {:>12.3} {:>6}",
                t.total_ms, t.self_ms, t.count
            );
        }
        let path = ctx.out.join(format!("spans-{workload}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("e2ebench: {}: {e}", path.display()),
        }
    }
    for e in &report.errors {
        eprintln!("e2ebench: FAILED: {e}");
    }
    if let Some(why) = &report.invalid {
        eprintln!("e2ebench: run invalid: {why}");
        return ExitCode::from(3);
    }
    let correct = report.failed == 0;
    println!("{}", result_json(&report, correct));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
