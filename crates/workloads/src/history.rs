//! Execution-history generation — the substitute for a production
//! cluster's accumulated past runs (paper §II-A "Dataflow Execution
//! Histories", §V-A "Pre-training Setup").
//!
//! Following the paper's setup: source rates are drawn uniformly from
//! `(1 Wu, 10 Wu)`, parallelism degrees uniformly from `[1, 60]` per
//! operator, and each deployment is executed (here: simulated) and its
//! observation recorded. The node-count mix of the corpus follows the
//! paper's Fig. 5 distribution.

use crate::rates::Engine;
use crate::{nexmark, pqp, splitmix, Workload};
use serde::{Deserialize, Serialize};
use streamtune_dataflow::{
    AggregateClass, AggregateFunction, Dataflow, DataflowBuilder, JoinKeyClass, Operator,
    ParallelismAssignment, WindowPolicy, WindowType,
};
use streamtune_sim::{Observation, SimCluster};

/// One historical run of one streaming job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionRecord {
    /// The job's dataflow, with the source rates of this run.
    pub flow: Dataflow,
    /// The parallelism it ran at.
    pub assignment: ParallelismAssignment,
    /// What the engine's metrics showed.
    pub observation: Observation,
}

/// Fig. 5 node-count distribution of the pre-training corpus:
/// `(num_ops, fraction)`.
pub const FIG5_DISTRIBUTION: [(usize, f64); 9] = [
    (2, 0.0656),
    (3, 0.0820),
    (4, 0.0820),
    (5, 0.1148),
    (6, 0.1311),
    (7, 0.1639),
    (8, 0.1967),
    (9, 0.1311),
    (10, 0.0328),
];

struct Rng64 {
    state: u64,
}

impl Rng64 {
    fn new(seed: u64) -> Self {
        Rng64 {
            state: splitmix(seed ^ 0xD15EA5E),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = splitmix(self.state);
        self.state
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform integer in `[lo, hi]`: favors small values, matching the
    /// borderline deployments real clusters actually accumulate (and
    /// yielding informative bottleneck labels far more often than uniform
    /// sampling does).
    fn log_range_u32(&mut self, lo: u32, hi: u32) -> u32 {
        let (a, b) = (f64::from(lo).ln(), f64::from(hi + 1).ln());
        let v = (a + self.unit() * (b - a)).exp();
        (v.floor() as u32).clamp(lo, hi)
    }

    fn range_f(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// A randomized streaming job with `n_ops` operators, shaped like the
/// paper's corpus (chains plus occasional join fan-ins), used to fill the
/// Fig. 5 node-count distribution beyond the named benchmarks.
pub fn random_query(seed: u64, n_ops: usize) -> Workload {
    assert!((2..=16).contains(&n_ops));
    let mut rng = Rng64::new(seed);
    let name = format!("hist-{seed}-{n_ops}");
    let mut b = DataflowBuilder::new(&name);
    let wu = rng.range_f(20e3, 900e3);
    // Join-shaped when large enough and the coin says so.
    let join_shape = n_ops >= 5 && rng.unit() < 0.45;
    let mid_op = |rng: &mut Rng64, w: u32| -> Operator {
        match rng.next() % 5 {
            0 => Operator::map(w, w),
            1 => Operator::filter(rng.range_f(0.2, 0.9), w, w),
            2 => Operator::flatmap(rng.range_f(1.0, 2.0), w, w),
            3 => Operator::window_aggregate(
                AggregateFunction::Sum,
                AggregateClass::Int,
                JoinKeyClass::Int,
                WindowType::Tumbling,
                WindowPolicy::Time,
                rng.range_f(10.0, 120.0),
                0.0,
                rng.range_f(0.05, 0.4),
            ),
            _ => Operator::aggregate(
                AggregateFunction::Avg,
                AggregateClass::Float,
                JoinKeyClass::Int,
                rng.range_f(0.1, 0.6),
            ),
        }
    };
    let width = [32u32, 64, 128][(rng.next() % 3) as usize];
    let mut wu_list = vec![wu];
    if join_shape {
        let s1 = b.add_source("left", wu);
        let wu2 = rng.range_f(20e3, 900e3);
        wu_list.push(wu2);
        let s2 = b.add_source("right", wu2);
        let f1 = b.add_op("f-l", Operator::filter(rng.range_f(0.3, 0.9), width, width));
        let f2 = b.add_op("f-r", Operator::filter(rng.range_f(0.3, 0.9), width, width));
        b.connect_source(s1, f1);
        b.connect_source(s2, f2);
        let join = b.add_op(
            "join",
            Operator::window_join(
                JoinKeyClass::Int,
                WindowType::Tumbling,
                WindowPolicy::Time,
                rng.range_f(10.0, 60.0),
                0.0,
                rng.range_f(0.8, 1.8),
            ),
        );
        b.connect(f1, join);
        b.connect(f2, join);
        let mut prev = join;
        // f1, f2 and join are 3 ops; append n_ops - 3 more, ending in a sink.
        for i in 0..n_ops.saturating_sub(3) {
            let op = if i + 4 == n_ops {
                Operator::sink(32)
            } else {
                mid_op(&mut rng, width)
            };
            let id = b.add_op(format!("op{i}"), op);
            b.connect(prev, id);
            prev = id;
        }
    } else {
        let s = b.add_source("events", wu);
        let mut prev = None;
        for i in 0..n_ops {
            let op = if i + 1 == n_ops {
                Operator::sink(32)
            } else {
                mid_op(&mut rng, width)
            };
            let id = b.add_op(format!("op{i}"), op);
            match prev {
                None => {
                    b.connect_source(s, id);
                }
                Some(p) => {
                    b.connect(p, id);
                }
            }
            prev = Some(id);
        }
    }
    Workload::new(name, b.build().expect("valid random query"), wu_list)
}

/// Generates execution-history corpora on a simulated cluster.
#[derive(Debug, Clone)]
pub struct HistoryGenerator {
    /// RNG seed.
    pub seed: u64,
    /// Number of jobs (each job is run once at a random rate/parallelism;
    /// use `runs_per_job` for repeated runs).
    pub num_jobs: usize,
    /// Runs per job at independently random rates/parallelisms.
    pub runs_per_job: usize,
    /// Include the named Nexmark queries in the pool.
    pub include_nexmark: bool,
    /// Include the PQP templates in the pool.
    pub include_pqp: bool,
    /// Engine whose Table II units to use for named queries.
    pub engine: Engine,
    /// Workload names excluded from the pool (hold-out, paper §V-D).
    pub exclude: Vec<String>,
    /// Maximum parallelism sampled per operator (paper: `[1, 60]`).
    pub max_parallelism: u32,
}

impl HistoryGenerator {
    /// Defaults matching the paper's pre-training setup.
    pub fn new(seed: u64) -> Self {
        HistoryGenerator {
            seed,
            num_jobs: 60,
            runs_per_job: 2,
            include_nexmark: true,
            include_pqp: true,
            engine: Engine::Flink,
            exclude: Vec::new(),
            max_parallelism: 60,
        }
    }

    /// Set the number of jobs.
    pub fn with_jobs(mut self, n: usize) -> Self {
        self.num_jobs = n;
        self
    }

    /// Set runs per job.
    pub fn with_runs_per_job(mut self, n: usize) -> Self {
        self.runs_per_job = n.max(1);
        self
    }

    /// Exclude a workload by name (hold-out).
    pub fn excluding(mut self, name: impl Into<String>) -> Self {
        self.exclude.push(name.into());
        self
    }

    /// The job pool: named benchmarks plus Fig. 5-distributed random jobs.
    pub fn job_pool(&self) -> Vec<Workload> {
        let mut pool = Vec::new();
        if self.include_nexmark {
            pool.extend(nexmark::all(self.engine));
        }
        if self.include_pqp {
            pool.extend(pqp::linear_queries());
            pool.extend(pqp::two_way_join_queries());
            pool.extend(pqp::three_way_join_queries());
        }
        pool.retain(|w| !self.exclude.contains(&w.name));
        // Top up with random jobs following the Fig. 5 node-count mix.
        let mut rng = Rng64::new(self.seed);
        let mut i = 0u64;
        while pool.len() < self.num_jobs {
            let u = rng.unit();
            let mut acc = 0.0;
            let mut n_ops = 6;
            for &(n, frac) in &FIG5_DISTRIBUTION {
                acc += frac;
                if u <= acc {
                    n_ops = n;
                    break;
                }
            }
            pool.push(random_query(self.seed.wrapping_add(i * 7919), n_ops));
            i += 1;
        }
        pool.truncate(self.num_jobs);
        pool
    }

    /// Generate the corpus on `cluster`.
    pub fn generate(&self, cluster: &SimCluster) -> Vec<ExecutionRecord> {
        let pool = self.job_pool();
        let mut rng = Rng64::new(self.seed ^ 0xFEED);
        let mut out = Vec::with_capacity(pool.len() * self.runs_per_job);
        for (ji, w) in pool.iter().enumerate() {
            for run in 0..self.runs_per_job {
                // Rates uniform in (1 Wu, 10 Wu) — §V-A.
                let mult = rng.range_f(1.0, 10.0);
                let flow = w.at(mult);
                let degrees: Vec<u32> = (0..flow.num_ops())
                    .map(|_| rng.log_range_u32(1, self.max_parallelism))
                    .collect();
                let assignment = ParallelismAssignment::from_vec(degrees);
                let report = cluster.simulate_at(&flow, &assignment, (ji * 131 + run) as u64);
                out.push(ExecutionRecord {
                    flow,
                    assignment,
                    observation: report.observation,
                });
            }
        }
        out
    }
}

/// Synthesize `runs` execution records for one workload on `cluster`,
/// sampling rates and parallelisms exactly the way corpus generation does
/// (rates uniform in `(1 Wu, 10 Wu)`, log-uniform degrees in
/// `[1, max_parallelism]`). This is the *incremental corpus growth*
/// primitive: when a live job's DAG is structurally uncovered by the
/// pre-trained corpus, its records are appended and the model is
/// re-pretrained warm — only pairs involving the new structure pay A\*.
/// Deterministic in `(workload, cluster, seed, runs)`.
pub fn record_runs(
    cluster: &SimCluster,
    workload: &Workload,
    seed: u64,
    runs: usize,
    max_parallelism: u32,
) -> Vec<ExecutionRecord> {
    let mut rng = Rng64::new(seed ^ 0xFEED);
    let mut out = Vec::with_capacity(runs);
    for run in 0..runs {
        let mult = rng.range_f(1.0, 10.0);
        let flow = workload.at(mult);
        let degrees: Vec<u32> = (0..flow.num_ops())
            .map(|_| rng.log_range_u32(1, max_parallelism))
            .collect();
        let assignment = ParallelismAssignment::from_vec(degrees);
        let report = cluster.simulate_at(&flow, &assignment, (seed ^ run as u64) & 0xFFFF);
        out.push(ExecutionRecord {
            flow,
            assignment,
            observation: report.observation,
        });
    }
    out
}

/// Node-count histogram of a corpus (Fig. 5 reproduction).
pub fn node_count_histogram(records: &[ExecutionRecord]) -> Vec<(usize, usize)> {
    let mut counts = std::collections::BTreeMap::new();
    for r in records {
        *counts.entry(r.flow.num_ops()).or_insert(0usize) += 1;
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_volume() {
        let cluster = SimCluster::flink_defaults(7);
        let recs = HistoryGenerator::new(7)
            .with_jobs(20)
            .with_runs_per_job(3)
            .generate(&cluster);
        assert_eq!(recs.len(), 60);
    }

    #[test]
    fn rates_within_1_to_10_wu() {
        let cluster = SimCluster::flink_defaults(7);
        let gen = HistoryGenerator::new(9).with_jobs(10);
        let pool = gen.job_pool();
        let recs = gen.generate(&cluster);
        for (r, w) in recs
            .iter()
            .zip(pool.iter().flat_map(|w| std::iter::repeat_n(w, 2)))
        {
            for (s, &wu) in r.flow.sources().iter().zip(&w.wu) {
                let m = s.rate / wu;
                assert!((0.99..=10.01).contains(&m), "multiplier {m}");
            }
        }
    }

    #[test]
    fn parallelisms_within_1_to_60() {
        let cluster = SimCluster::flink_defaults(7);
        let recs = HistoryGenerator::new(3).with_jobs(15).generate(&cluster);
        for r in &recs {
            for (_, d) in r.assignment.iter() {
                assert!((1..=60).contains(&d));
            }
        }
    }

    #[test]
    fn excluding_removes_job() {
        let gen = HistoryGenerator::new(1)
            .with_jobs(70)
            .excluding("pqp-2way-0");
        assert!(gen.job_pool().iter().all(|w| w.name != "pqp-2way-0"));
    }

    #[test]
    fn deterministic_by_seed() {
        let cluster = SimCluster::flink_defaults(7);
        let a = HistoryGenerator::new(5).with_jobs(8).generate(&cluster);
        let b = HistoryGenerator::new(5).with_jobs(8).generate(&cluster);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].assignment, b[0].assignment);
    }

    #[test]
    fn random_query_is_valid_and_sized() {
        for n in 2..=10 {
            let w = random_query(n as u64 * 13, n);
            assert_eq!(w.flow.num_ops(), n, "requested {n} ops");
        }
    }

    #[test]
    fn record_runs_is_deterministic_and_in_range() {
        let cluster = SimCluster::flink_defaults(19);
        let w = crate::nexmark::q5(Engine::Flink);
        let a = record_runs(&cluster, &w, 77, 3, 60);
        let b = record_runs(&cluster, &w, 77, 3, 60);
        assert_eq!(a, b, "same inputs must grow identical records");
        assert_eq!(a.len(), 3);
        for r in &a {
            let m = r.flow.sources()[0].rate / w.wu[0];
            assert!((0.99..=10.01).contains(&m), "multiplier {m}");
            for (_, d) in r.assignment.iter() {
                assert!((1..=60).contains(&d));
            }
        }
        assert_ne!(
            record_runs(&cluster, &w, 78, 3, 60)[0].assignment,
            a[0].assignment,
            "different seeds must sample differently"
        );
    }

    #[test]
    fn histogram_covers_fig5_range() {
        let cluster = SimCluster::flink_defaults(7);
        let recs = HistoryGenerator::new(11)
            .with_jobs(120)
            .with_runs_per_job(1)
            .generate(&cluster);
        let hist = node_count_histogram(&recs);
        let sizes: Vec<usize> = hist.iter().map(|&(n, _)| n).collect();
        // The corpus must span the small-to-large range of Fig. 5.
        assert!(sizes.iter().any(|&n| n <= 3));
        assert!(sizes.iter().any(|&n| n >= 8));
    }
}
