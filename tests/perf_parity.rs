//! Parity tests for the performance layer: every fast path (CSR sparse
//! message passing, scoped-thread fan-out, the corpus-level GED cache)
//! must produce results identical to its reference path. Speed may change;
//! numbers may not.

use rand::SeedableRng;
use streamtune::cluster::{cluster_dags, ClusterConfig};
use streamtune::core::{Parallelism, PretrainConfig, Pretrainer};
use streamtune::dataflow::{FeatureEncoder, GraphSignature};
use streamtune::ged::GraphView;
use streamtune::nn::{GnnConfig, GnnEncoder, GraphSample};
use streamtune::prelude::*;
use streamtune::workloads::history::{ExecutionRecord, HistoryGenerator};

fn corpus(seed: u64, jobs: usize) -> Vec<ExecutionRecord> {
    let cluster = SimCluster::flink_defaults(seed);
    HistoryGenerator::new(seed)
        .with_jobs(jobs)
        .with_runs_per_job(2)
        .generate(&cluster)
}

fn max_abs_diff(a: &streamtune::nn::Matrix, b: &streamtune::nn::Matrix) -> f64 {
    assert_eq!(a.shape(), b.shape());
    a.data()
        .iter()
        .zip(b.data())
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[test]
fn dense_and_csr_message_passing_agree_within_1e12() {
    // Same seed → same initial weights; the dense n×n matmul path and the
    // CSR spmm path must stay within 1e-12 through inference *and* a full
    // training trajectory (in practice they are bit-identical).
    let records = corpus(41, 12);
    let features = FeatureEncoder::default();
    let samples: Vec<GraphSample> = records
        .iter()
        .take(8)
        .map(|r| {
            let n = r.flow.num_ops();
            GraphSample::from_dataflow(&r.flow, &features, r.assignment.as_slice(), &vec![0.0; n])
        })
        .collect();
    let mut labeled: Vec<GraphSample> = samples.clone();
    for s in &mut labeled {
        for (i, l) in s.labels.iter_mut().enumerate() {
            *l = f64::from(i % 2 == 0);
        }
    }
    let mk = |dense: bool| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        GnnEncoder::new(
            GnnConfig {
                dense_messages: dense,
                hidden_dim: 16,
                message_passing_steps: 2,
                ..Default::default()
            },
            &mut rng,
        )
    };
    let mut dense = mk(true);
    let mut sparse = mk(false);
    for s in &samples {
        assert!(max_abs_diff(&dense.embed_agnostic(s), &sparse.embed_agnostic(s)) < 1e-12);
        assert!(max_abs_diff(&dense.embed_aware(s), &sparse.embed_aware(s)) < 1e-12);
    }
    for _ in 0..10 {
        let ld = dense.train_step(&labeled);
        let ls = sparse.train_step(&labeled);
        assert!((ld - ls).abs() < 1e-12, "losses diverged: {ld} vs {ls}");
    }
    for s in &samples {
        assert!(
            max_abs_diff(&dense.predict_bottleneck(s), &sparse.predict_bottleneck(s)) < 1e-12,
            "post-training predictions diverged"
        );
    }
}

#[test]
fn serial_and_parallel_clustering_produce_identical_results() {
    let records = corpus(43, 24);
    let graphs: Vec<(GraphView, GraphSignature)> = records
        .iter()
        .map(|r| (GraphView::of(&r.flow), GraphSignature::of(&r.flow)))
        .collect();
    let run = |par: Parallelism| {
        cluster_dags(
            &graphs,
            &ClusterConfig {
                parallelism: par,
                ..Default::default()
            },
        )
    };
    let serial = run(Parallelism::Serial);
    for threads in [2, 4, 32] {
        let parallel = run(Parallelism::Fixed(threads));
        assert_eq!(
            parallel.assignments, serial.assignments,
            "threads {threads}"
        );
        assert_eq!(parallel.centers, serial.centers, "threads {threads}");
        assert_eq!(parallel.inertia, serial.inertia, "threads {threads}");
    }
}

#[test]
fn serial_and_parallel_pretraining_produce_identical_models() {
    let records = corpus(47, 16);
    let run = |par: Parallelism| {
        let mut cfg = PretrainConfig::fast();
        cfg.parallelism = par;
        cfg.cluster.parallelism = par;
        Pretrainer::new(cfg).run(&records)
    };
    let serial = run(Parallelism::Serial);
    let parallel = run(Parallelism::Fixed(4));
    assert_eq!(serial.clusters.len(), parallel.clusters.len());
    // Whole-model comparison (weights, warm-up sets, centers) via the
    // serialized form — any drift in any field fails.
    let a = serde_json::to_string(&serial).expect("serializable");
    let b = serde_json::to_string(&parallel).expect("serializable");
    assert_eq!(
        a, b,
        "serial and scoped-thread pre-training must be bit-identical"
    );
}

// ---- the shared warm-up fit ------------------------------------------------

use streamtune::core::Pretrained;
use streamtune::serve::{JobManager, JobState};
use streamtune::workloads::rates::Engine;

/// What the daemon reports of one tune: the outcome (degrees,
/// reconfigurations, iterations, …) and the rejected candidate totals.
type Tuned = (TuneOutcome, Vec<u64>);

fn warm_fit_pretrained(seed: u64) -> Pretrained {
    let cluster = SimCluster::flink_defaults(seed);
    let records = HistoryGenerator::new(seed)
        .with_jobs(12)
        .with_runs_per_job(2)
        .generate(&cluster);
    Pretrainer::new(PretrainConfig::fast()).run(&records)
}

/// Every named workload at multipliers 1, 5.5 and 10, each with its own
/// backend seed.
fn every_workload_spec() -> Vec<JobSpec> {
    let mut specs = Vec::new();
    for (w, workload) in named_workloads(Engine::Flink).iter().enumerate() {
        for (m, multiplier) in [1.0, 5.5, 10.0].into_iter().enumerate() {
            specs.push(JobSpec {
                name: format!("{}@{multiplier}", workload.name),
                query: workload.name.clone(),
                multiplier,
                seed: 1000 + 3 * w as u64 + m as u64,
                engine: Engine::Flink,
                backend: BackendSpec::Sim,
            });
        }
    }
    specs
}

/// A plain `StreamTune::new` tune of `spec` — no shared fit — on the
/// spec's own simulated cluster.
fn reference_tune(pre: &Pretrained, spec: &JobSpec) -> Tuned {
    let flow = find_workload(&spec.query, spec.engine)
        .expect("named workload")
        .at(spec.multiplier);
    let mut sim = SimCluster::flink_defaults(spec.seed);
    let mut session = TuningSession::new(&mut sim, &flow);
    let outcome = StreamTune::new(pre, TuneConfig::default())
        .tune(&mut session)
        .expect("reference tune succeeds");
    let trace = session.parallelism_trace();
    (outcome, trace[..trace.len() - 1].to_vec())
}

/// What `mgr` recorded for finished job `name`.
fn drained(mgr: &JobManager, name: &str) -> Tuned {
    let outcome = match &mgr.job(name).expect("admitted").state {
        JobState::Done(result) => result.outcome.clone(),
        other => panic!("job {name} did not finish: {other:?}"),
    };
    let decision = mgr.decision_for(name).expect("decision recorded");
    assert_eq!(decision.iterations, outcome.iterations, "{name}");
    assert_eq!(
        decision.degrees,
        outcome.final_assignment.as_slice(),
        "{name}"
    );
    (outcome, decision.rejected.clone())
}

#[test]
fn shared_warm_fits_drain_bit_identical_to_fresh_tunes() {
    let pre = warm_fit_pretrained(53);
    let specs = every_workload_spec();
    let reference: Vec<Tuned> = specs.iter().map(|s| reference_tune(&pre, s)).collect();
    // Fixed(4) races several jobs of one cluster on the same lazy fit.
    for par in [Parallelism::Serial, Parallelism::Fixed(4)] {
        let mut mgr = JobManager::new(pre.clone(), par);
        for spec in &specs {
            mgr.submit(spec.clone()).expect("submit");
        }
        assert_eq!(
            mgr.warm_fits().filled(),
            0,
            "fits fill lazily, not at admission"
        );
        mgr.drain();
        assert!(
            mgr.warm_fits().filled() > 0,
            "the drain used the shared fits"
        );
        for (spec, expected) in specs.iter().zip(&reference) {
            assert_eq!(
                &drained(&mgr, &spec.name),
                expected,
                "{} on {par:?}",
                spec.name
            );
        }
    }
}

#[test]
fn resubmit_after_swap_pretrained_matches_a_fresh_manager() {
    let old = warm_fit_pretrained(59);
    let new = warm_fit_pretrained(67);
    let specs: Vec<JobSpec> = every_workload_spec().into_iter().step_by(7).collect();
    let mut mgr = JobManager::new(old, Parallelism::Serial);
    for spec in &specs {
        mgr.submit(spec.clone()).expect("submit");
    }
    mgr.drain();
    mgr.swap_pretrained(new.clone());
    assert_eq!(
        mgr.warm_fits().filled(),
        0,
        "a new model starts with no fits"
    );
    for spec in &specs {
        mgr.resubmit(spec.clone()).expect("resubmit");
    }
    mgr.drain();

    let mut fresh = JobManager::new(new, Parallelism::Serial);
    for spec in &specs {
        fresh.submit(spec.clone()).expect("submit");
    }
    fresh.drain();
    for spec in &specs {
        assert_eq!(
            drained(&mgr, &spec.name),
            drained(&fresh, &spec.name),
            "{}",
            spec.name
        );
    }
}
