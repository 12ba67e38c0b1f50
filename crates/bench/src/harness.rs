//! Shared experiment harness: environment setup, method dispatch, the
//! periodic-schedule runner, the Fig. 9 cost measurements, and
//! table/JSON reporting.

use serde::Serialize;
use std::time::Instant;
use streamtune_backend::{ExecutionBackend, TuneError, TuneOutcome, TuningSession};
use streamtune_baselines::{ContTune, Ds2, Tuner, ZeroTune, ZeroTuneConfig};
use streamtune_core::{ModelKind, PretrainConfig, Pretrained, Pretrainer, StreamTune, TuneConfig};
use streamtune_sim::SimCluster;
use streamtune_workloads::history::{ExecutionRecord, HistoryGenerator};
use streamtune_workloads::{pqp, rates, Workload};

/// The tuning methods compared throughout the evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// DS2 (linear scaling).
    Ds2,
    /// ContTune (conservative BO).
    ContTune,
    /// StreamTune with a given fine-tuning model.
    StreamTune(ModelKind),
    /// ZeroTune (one-shot GNN cost model).
    ZeroTune,
}

impl Method {
    /// Display name matching the paper's figures.
    pub fn name(self) -> String {
        match self {
            Method::Ds2 => "DS2".into(),
            Method::ContTune => "ContTune".into(),
            Method::StreamTune(ModelKind::Xgboost) => "StreamTune".into(),
            Method::StreamTune(k) => format!("StreamTune-{}", k.name()),
            Method::ZeroTune => "ZeroTune".into(),
        }
    }

    /// The paper's default comparison set.
    pub fn paper_set() -> Vec<Method> {
        vec![
            Method::Ds2,
            Method::ContTune,
            Method::StreamTune(ModelKind::Xgboost),
            Method::ZeroTune,
        ]
    }
}

/// A fully prepared experiment environment: one simulated cluster, one
/// history corpus generated on it, StreamTune pre-trained, ZeroTune's
/// training corpus shared.
pub struct ExperimentEnv {
    /// The cluster every deployment runs on.
    pub cluster: SimCluster,
    /// The execution-history corpus.
    pub corpus: Vec<ExecutionRecord>,
    /// StreamTune's pre-trained bundle.
    pub pretrained: Pretrained,
    /// ZeroTune's model configuration (trained per tuner instance).
    pub zerotune_config: ZeroTuneConfig,
}

impl ExperimentEnv {
    /// Build the standard Flink-mode environment.
    pub fn flink(seed: u64, jobs: usize, fast: bool) -> Self {
        Self::with_cluster(SimCluster::flink_defaults(seed), seed, jobs, fast, None)
    }

    /// Build the Timely-mode environment.
    pub fn timely(seed: u64, jobs: usize, fast: bool) -> Self {
        Self::with_cluster(SimCluster::timely_defaults(seed), seed, jobs, fast, None)
    }

    /// Build with a hold-out workload excluded from the corpus (Fig. 7b).
    pub fn flink_excluding(seed: u64, jobs: usize, fast: bool, exclude: &str) -> Self {
        Self::with_cluster(
            SimCluster::flink_defaults(seed),
            seed,
            jobs,
            fast,
            Some(exclude.to_string()),
        )
    }

    fn with_cluster(
        cluster: SimCluster,
        seed: u64,
        jobs: usize,
        fast: bool,
        exclude: Option<String>,
    ) -> Self {
        let engine = match cluster.mode {
            streamtune_sim::EngineMode::Flink => rates::Engine::Flink,
            streamtune_sim::EngineMode::Timely => rates::Engine::Timely,
        };
        let mut gen = HistoryGenerator::new(seed)
            .with_jobs(jobs)
            .with_runs_per_job(2);
        gen.engine = engine;
        if let Some(x) = exclude {
            gen = gen.excluding(x);
        }
        let corpus = gen.generate(&cluster);
        let cfg = if fast {
            PretrainConfig::fast()
        } else {
            PretrainConfig::default()
        };
        let pretrained = Pretrainer::new(cfg).run(&corpus);
        ExperimentEnv {
            cluster,
            corpus,
            pretrained,
            zerotune_config: ZeroTuneConfig::default(),
        }
    }

    /// Instantiate a fresh tuner for `method` (ZeroTune trains its model
    /// from the environment's corpus).
    pub fn make_tuner(&self, method: Method) -> Box<dyn Tuner + '_> {
        match method {
            Method::Ds2 => Box::new(Ds2::default()),
            Method::ContTune => Box::new(ContTune::default()),
            Method::StreamTune(kind) => Box::new(StreamTune::new(
                &self.pretrained,
                TuneConfig {
                    model: kind,
                    ..Default::default()
                },
            )),
            Method::ZeroTune => {
                Box::new(ZeroTune::train(&self.corpus, self.zerotune_config.clone()))
            }
        }
    }

    /// A fresh backend instance for driving sessions: deployments need
    /// `&mut`, and cloning the simulated cluster preserves its ground truth
    /// (everything is derived from the seed), so every caller gets an
    /// identical, independent substrate.
    pub fn backend(&self) -> SimCluster {
        self.cluster.clone()
    }

    /// One-shot tuning of `workload` at `multiplier × Wu` with a fresh
    /// tuner and session on a fresh backend.
    pub fn tune_once(
        &self,
        method: Method,
        workload: &Workload,
        multiplier: f64,
    ) -> Result<TuneOutcome, TuneError> {
        let mut backend = self.backend();
        self.tune_once_on(&mut backend, method, workload, multiplier)
    }

    /// One-shot tuning against an arbitrary execution backend (replayed
    /// traces, recorders, future engine connectors).
    pub fn tune_once_on(
        &self,
        backend: &mut dyn ExecutionBackend,
        method: Method,
        workload: &Workload,
        multiplier: f64,
    ) -> Result<TuneOutcome, TuneError> {
        let flow = workload.at(multiplier);
        let mut tuner = self.make_tuner(method);
        let mut session = TuningSession::new(backend, &flow);
        tuner.tune(&mut session)
    }
}

/// Per-rate-change statistics from a schedule run.
#[derive(Debug, Clone, Serialize)]
pub struct ChangeStats {
    /// Rate multiplier of this change.
    pub multiplier: f64,
    /// Reconfigurations used by this tuning process.
    pub reconfigurations: u32,
    /// Backpressure occurrences during this tuning process.
    pub backpressure_events: u32,
    /// Minutes of simulated tuning time.
    pub minutes: f64,
    /// Total parallelism after this tuning process.
    pub total_parallelism: u64,
    /// CPU utilization after each deployment of this process.
    pub cpu_trace: Vec<f64>,
}

/// Aggregate statistics over a full periodic schedule (§V-A: 120 changes).
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleStats {
    /// Method name.
    pub method: String,
    /// Workload name.
    pub workload: String,
    /// Per-change records.
    pub changes: Vec<ChangeStats>,
}

impl ScheduleStats {
    /// Average reconfigurations per tuning process (Fig. 7a).
    pub fn avg_reconfigurations(&self) -> f64 {
        self.changes
            .iter()
            .map(|c| f64::from(c.reconfigurations))
            .sum::<f64>()
            / self.changes.len().max(1) as f64
    }

    /// Total backpressure occurrences (Table III).
    pub fn total_backpressure(&self) -> u32 {
        self.changes.iter().map(|c| c.backpressure_events).sum()
    }

    /// Total parallelism after the last change at multiplier `m` (Fig. 6).
    pub fn parallelism_at_multiplier(&self, m: f64) -> Option<u64> {
        self.changes
            .iter()
            .rev()
            .find(|c| (c.multiplier - m).abs() < 1e-9)
            .map(|c| c.total_parallelism)
    }

    /// Mean simulated tuning minutes per change (Fig. 7b metric).
    pub fn avg_minutes(&self) -> f64 {
        self.changes.iter().map(|c| c.minutes).sum::<f64>() / self.changes.len().max(1) as f64
    }
}

/// Drive one tuner through a schedule of source-rate multipliers on one
/// workload, keeping the deployment warm between changes (a long-running
/// job whose sources fluctuate, §V-A).
pub fn run_schedule(
    env: &ExperimentEnv,
    method: Method,
    workload: &Workload,
    schedule: &[f64],
) -> Result<ScheduleStats, TuneError> {
    let mut backend = env.backend();
    let mut tuner = env.make_tuner(method);
    let mut current: Option<streamtune_dataflow::ParallelismAssignment> = None;
    let mut changes = Vec::with_capacity(schedule.len());
    for (k, &m) in schedule.iter().enumerate() {
        let flow = workload.at(m);
        let mut session = match current.take() {
            Some(asg) => TuningSession::with_initial(&mut backend, &flow, asg, (k * 1000) as u64),
            None => TuningSession::new(&mut backend, &flow),
        };
        let outcome = tuner.tune(&mut session)?;
        changes.push(ChangeStats {
            multiplier: m,
            reconfigurations: outcome.reconfigurations,
            backpressure_events: outcome.backpressure_events,
            minutes: outcome.elapsed_minutes,
            total_parallelism: outcome.final_assignment.total(),
            cpu_trace: session.cpu_trace().to_vec(),
        });
        current = Some(outcome.final_assignment);
    }
    Ok(ScheduleStats {
        method: method.name(),
        workload: workload.name.clone(),
        changes,
    })
}

/// Seed of the Fig. 9a recommendation-time measurement.
pub const RECOMMEND_SEED: u64 = 19;

/// One cell of the Fig. 9a measurement.
#[derive(Debug, Clone, Serialize)]
pub struct RecommendRow {
    /// PQP template family.
    pub template: String,
    /// Tuning method.
    pub method: String,
    /// Mean wall-clock seconds per tuning iteration.
    pub avg_recommendation_seconds: f64,
}

/// The Fig. 9a workload: wall-clock recommendation time of StreamTune,
/// DS2 and ContTune per tuning iteration on each PQP template family at
/// 10 × Wu, one fresh tuner and backend per query. The simulated deploys
/// are effectively free, so the wall clock is the decision path (model
/// fits and recommendation searches). Prints the table and returns the
/// rows, template-major in method order.
pub fn recommendation_times(fast: bool) -> Vec<RecommendRow> {
    let env = ExperimentEnv::flink(RECOMMEND_SEED, if fast { 48 } else { 80 }, fast);
    let methods = [
        Method::StreamTune(ModelKind::Xgboost),
        Method::Ds2,
        Method::ContTune,
    ];
    let per_template: Vec<(&str, Vec<Workload>)> = vec![
        ("linear", pqp::linear_queries()),
        ("2-way-join", pqp::two_way_join_queries()),
        ("3-way-join", pqp::three_way_join_queries()),
    ];
    let queries_per_template = if fast { 3 } else { 8 };
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (name, queries) in &per_template {
        let mut cells = vec![name.to_string()];
        for &m in &methods {
            let mut total = 0.0;
            let mut count = 0u32;
            for w in queries.iter().take(queries_per_template) {
                let flow = w.at(10.0);
                let mut backend = env.backend();
                let mut tuner = env.make_tuner(m);
                let mut session = TuningSession::new(&mut backend, &flow);
                let start = Instant::now();
                let outcome = tuner.tune(&mut session).expect("tuning succeeds");
                total += start.elapsed().as_secs_f64();
                count += outcome.iterations.max(1);
            }
            let avg = total / f64::from(count.max(1));
            cells.push(format!("{:.1} ms", avg * 1e3));
            rows.push(RecommendRow {
                template: name.to_string(),
                method: m.name(),
                avg_recommendation_seconds: avg,
            });
        }
        table.push(cells);
    }
    print_table(
        "Fig. 9a — Average recommendation time per tuning iteration (measured)",
        &["template", "StreamTune", "DS2", "ContTune"],
        &table,
    );
    rows
}

/// Seed of the Fig. 9b pre-training cost sweep.
pub const PRETRAIN_SEED: u64 = 23;

/// One corpus size of the Fig. 9b sweep.
#[derive(Debug, Clone, Serialize)]
pub struct PretrainPoint {
    /// DAG runs in the corpus.
    pub num_dags: usize,
    /// Distinct DAG structures among them.
    pub distinct_structures: usize,
    /// Clusters the pre-training found.
    pub clusters: usize,
    /// Wall-clock seconds of the pre-training run alone.
    pub seconds: f64,
}

/// The Fig. 9b workload: time fast-config pre-training on history corpora
/// of growing size (corpus generation and structure counting are not
/// timed). Prints the table and returns one point per size, smallest
/// first.
pub fn pretraining_costs(fast: bool) -> Vec<PretrainPoint> {
    use streamtune_dataflow::GraphSignature;
    use streamtune_ged::{Bound, GedCache, GraphView};
    let sizes: &[usize] = if fast {
        &[20, 40, 80]
    } else {
        &[50, 100, 200, 400, 800]
    };
    let cluster = SimCluster::flink_defaults(PRETRAIN_SEED);
    let mut points = Vec::new();
    let mut table = Vec::new();
    for &n in sizes {
        let corpus = HistoryGenerator::new(PRETRAIN_SEED)
            .with_jobs(n / 2)
            .with_runs_per_job(2)
            .generate(&cluster);
        let distinct = {
            let mut cache = GedCache::new(Bound::LabelSet, 24);
            for r in &corpus {
                cache.intern(&GraphView::of(&r.flow), &GraphSignature::of(&r.flow));
            }
            cache.len()
        };
        let start = Instant::now();
        let pre = Pretrainer::new(PretrainConfig::fast()).run(&corpus);
        let seconds = start.elapsed().as_secs_f64();
        table.push(vec![
            format!("{}", corpus.len()),
            format!("{distinct}"),
            format!("{}", pre.clusters.len()),
            format!("{seconds:.2}s"),
        ]);
        points.push(PretrainPoint {
            num_dags: corpus.len(),
            distinct_structures: distinct,
            clusters: pre.clusters.len(),
            seconds,
        });
    }
    print_table(
        "Fig. 9b — Pre-training time vs corpus size (measured)",
        &["# DAG runs", "distinct", "clusters", "time"],
        &table,
    );
    points
}

/// Print a fixed-width table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len().saturating_sub(1)))
    );
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Write a JSON result file under `results/` (best effort).
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = std::path::Path::new("results");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warning: cannot create results dir: {e}");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(value) {
        Ok(s) => {
            if let Err(e) = std::fs::write(&path, s) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            } else {
                println!("[results written to {}]", path.display());
            }
        }
        Err(e) => eprintln!("warning: cannot serialize {name}: {e}"),
    }
}

/// The eight evaluation workloads of Fig. 6/7a/Table III: five Nexmark
/// queries plus one representative per PQP template family.
pub fn paper_workloads(engine: rates::Engine) -> Vec<Workload> {
    use streamtune_workloads::{nexmark, pqp};
    vec![
        nexmark::q1(engine),
        nexmark::q2(engine),
        nexmark::q3(engine),
        nexmark::q5(engine),
        nexmark::q8(engine),
        pqp::linear_query(0),
        pqp::two_way_join_query(0),
        pqp::three_way_join_query(0),
    ]
}

/// `--fast` flag helper for experiment binaries: reduced schedules and
/// corpus sizes so every binary also runs quickly in CI.
pub fn is_fast() -> bool {
    std::env::args().any(|a| a == "--fast")
}

/// Schedule used by binaries: the paper's 120 changes, or 12 with `--fast`.
pub fn schedule(fast: bool, seed: u64) -> Vec<f64> {
    let full = rates::full_schedule(seed);
    if fast {
        full.into_iter().take(20).collect()
    } else {
        full
    }
}
