//! Seeded job specs, the in-process reference every served recommendation
//! is checked against, and the paper's quality figures.

use std::time::{Duration, Instant};

use streamtune_backend::{RetryPolicy, Tuner, TuningSession};
use streamtune_core::{Pretrained, StreamTune, TuneConfig};
use streamtune_serve::{BackendSpec, JobSpec, Recommendation, Server, ServerConfig};
use streamtune_sim::SimCluster;
use streamtune_workloads::history::HistoryGenerator;
use streamtune_workloads::rates::Engine;
use streamtune_workloads::{named_workloads, Workload};

/// The daemon's CLI defaults: corpus seed and size.
pub const CORPUS_SEED: u64 = 42;
/// Jobs in the daemon's default pre-training corpus.
pub const CORPUS_JOBS: usize = 60;

/// SplitMix64: a tiny seeded generator, so inputs depend on the seed only.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every named workload (Nexmark + PQP), as the daemon resolves them.
pub fn catalog() -> Vec<Workload> {
    named_workloads(Engine::Flink)
}

/// The catalog entry called `name`.
pub fn workload<'a>(catalog: &'a [Workload], name: &str) -> Result<&'a Workload, String> {
    catalog
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    let mut state = seed;
    for i in (1..n).rev() {
        state = mix(state);
        v.swap(i, (state % (i as u64 + 1)) as usize);
    }
    v
}

/// The `i`-th job of a seeded stream. Jobs come in blocks of one job per
/// catalog entry: each block visits every named workload once, in a seeded
/// order, at multipliers spread evenly over `[1, 10]` (one per stratum, in
/// another seeded order; two decimals, so they round-trip the wire
/// exactly). Stratifying keeps the mix, and so the figures, alike across
/// seeds. Each job has its own backend seed; each name prefix is its own
/// stream.
pub fn job(seed: u64, prefix: &str, i: u64, catalog: &[Workload]) -> JobSpec {
    let seed = prefix.bytes().fold(seed, |h, b| mix(h ^ u64::from(b)));
    let n = catalog.len();
    let (block, slot) = (i / n as u64, (i % n as u64) as usize);
    let block_seed = mix(seed ^ mix(block.wrapping_add(0xB10C)));
    let workload = permutation(block_seed, n)[slot];
    let stratum = permutation(mix(block_seed), n)[slot] as u64;
    let r = mix(seed ^ mix(i.wrapping_add(0x5EED)));
    let cents = 100 + 900 * (stratum * 1000 + r % 1000) / (n as u64 * 1000);
    JobSpec {
        name: format!("{prefix}{i}"),
        query: catalog[workload].name.clone(),
        multiplier: cents as f64 / 100.0,
        seed: (r >> 32) % 100_000,
        engine: Engine::Flink,
        backend: BackendSpec::Sim,
    }
}

/// The daemon's default corpus, generated exactly as `streamtune serve`
/// generates it.
pub fn corpus() -> Vec<streamtune_workloads::history::ExecutionRecord> {
    HistoryGenerator::new(CORPUS_SEED)
        .with_jobs(CORPUS_JOBS)
        .generate(&SimCluster::flink_defaults(CORPUS_SEED))
}

/// An in-process server bootstrapped exactly like the daemon, and the
/// seconds its corpus generation took.
pub fn reference_server() -> Result<(Server, f64), String> {
    let mut corpus_s = 0.0;
    let (server, _) = Server::bootstrap(None, ServerConfig::default(), || {
        let start = Instant::now();
        let c = corpus();
        corpus_s = start.elapsed().as_secs_f64();
        c
    })
    .map_err(|e| format!("reference bootstrap: {e}"))?;
    Ok((server, corpus_s))
}

/// What an in-process `StreamTune::tune` of one spec produced.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Final per-operator parallelism.
    pub degrees: Vec<u32>,
    /// Reconfigurations.
    pub reconfigurations: u32,
    /// Tuning iterations.
    pub iterations: u32,
    /// Operators in the flow.
    pub n_ops: usize,
    /// Total of the simulator's oracle assignment.
    pub oracle_total: u64,
    /// Wall time of `tune`.
    pub tune: Duration,
    /// Deployments the session made.
    pub deploys: usize,
}

/// Tune `spec` in process on a fresh simulated cluster, the way the daemon
/// runs a `sim` job.
pub fn reference(
    pretrained: &Pretrained,
    catalog: &[Workload],
    spec: &JobSpec,
) -> Result<Reference, String> {
    let flow = workload(catalog, &spec.query)?.at(spec.multiplier);
    let mut backend = SimCluster::flink_defaults(spec.seed);
    let oracle_total = backend
        .oracle_assignment(&flow)
        .ok_or_else(|| format!("{}: no oracle assignment", spec.name))?
        .total();
    let mut tuner = StreamTune::new(pretrained, TuneConfig::default());
    let mut session = TuningSession::new(&mut backend, &flow).with_retry(RetryPolicy::default());
    let start = Instant::now();
    let outcome = tuner
        .tune(&mut session)
        .map_err(|e| format!("{}: TuneError {e}", spec.name))?;
    let tune = start.elapsed();
    Ok(Reference {
        degrees: outcome.final_assignment.as_slice().to_vec(),
        reconfigurations: outcome.reconfigurations,
        iterations: outcome.iterations,
        n_ops: flow.num_ops(),
        oracle_total,
        tune,
        deploys: session.parallelism_trace().len(),
    })
}

/// A served recommendation must equal the in-process tune of its spec.
pub fn check(rec: &Recommendation, want: &Reference) -> Result<(), String> {
    if rec.degrees.len() != want.n_ops {
        return Err(format!(
            "{}: {} degrees for a {}-operator flow",
            rec.job,
            rec.degrees.len(),
            want.n_ops
        ));
    }
    if rec.degrees != want.degrees
        || rec.reconfigurations != want.reconfigurations
        || rec.iterations != want.iterations
    {
        return Err(format!(
            "{}: served degrees {:?} / {} reconfigs / {} iterations, in process {:?} / {} / {}",
            rec.job,
            rec.degrees,
            rec.reconfigurations,
            rec.iterations,
            want.degrees,
            want.reconfigurations,
            want.iterations
        ));
    }
    Ok(())
}

/// The paper's quality figures over a set of finished tunes.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    total: u64,
    oracle: u64,
    reconfigs: u64,
    backpressure: u64,
    tunes: u64,
}

impl Quality {
    /// Add one tune's outcome.
    pub fn add(&mut self, total: u64, oracle: u64, reconfigs: u32, backpressure: u32) {
        self.total += total;
        self.oracle += oracle;
        self.reconfigs += u64::from(reconfigs);
        self.backpressure += u64::from(backpressure);
        self.tunes += 1;
    }

    /// Tunes added.
    pub fn tunes(&self) -> usize {
        self.tunes as usize
    }

    /// Σ recommended total ÷ Σ oracle total (Fig. 6).
    pub fn par_over_oracle(&self) -> f64 {
        self.total as f64 / self.oracle as f64
    }

    /// Mean reconfigurations per tune (Fig. 7a).
    pub fn reconfigs_per_tune(&self) -> f64 {
        self.reconfigs as f64 / self.tunes as f64
    }

    /// Mean backpressured deployments per tune (Table III).
    pub fn backpressure_per_tune(&self) -> f64 {
        self.backpressure as f64 / self.tunes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_block_visits_every_workload_once_across_the_rate_range() {
        let catalog = catalog();
        let n = catalog.len() as u64;
        let block: Vec<JobSpec> = (n..2 * n).map(|i| job(7, "j", i, &catalog)).collect();
        let mut names: Vec<&str> = block.iter().map(|s| s.query.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), catalog.len());
        let mut m: Vec<f64> = block.iter().map(|s| s.multiplier).collect();
        m.sort_by(f64::total_cmp);
        assert!(m[0] >= 1.0 && m[m.len() - 1] < 10.0);
        // One multiplier per stratum of width 9/n.
        for (k, v) in m.iter().enumerate() {
            let lo = 1.0 + 9.0 * k as f64 / n as f64;
            assert!(
                *v >= lo - 0.01 && *v < lo + 9.0 / n as f64 + 0.01,
                "{k}: {v}"
            );
        }
    }

    #[test]
    fn the_same_seed_gives_the_same_jobs() {
        let catalog = catalog();
        assert_eq!(job(3, "j", 5, &catalog), job(3, "j", 5, &catalog));
        let a: Vec<_> = (0..20).map(|i| job(3, "j", i, &catalog).query).collect();
        let b: Vec<_> = (0..20).map(|i| job(4, "j", i, &catalog).query).collect();
        assert_ne!(a, b);
    }
}
