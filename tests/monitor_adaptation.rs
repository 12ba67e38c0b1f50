//! The observe→detect→adapt loop end to end (the acceptance contract):
//! a scripted mid-run rate shift is detected and automatically re-tuned
//! through the `JobManager`, converging to the same `TuneOutcome` as a
//! manual re-submit at the shifted rate; an unseen DAG triggers a warm
//! incremental re-pretrain that skips every already-cached A\* pair and
//! yields a model bit-identical to a cold pre-train on the grown corpus.

use streamtune::core::{Parallelism, PretrainConfig, Pretrainer};
use streamtune::ged::{Bound, GedCache};
use streamtune::monitor::{grow_and_pretrain, grow_records};
use streamtune::prelude::*;
use streamtune::serve::{DriftReport, JobState, Request, Response, ServerConfig};
use streamtune::workloads::history::{ExecutionRecord, HistoryGenerator};
use streamtune::workloads::rates::Engine;

fn recipe(seed: u64, jobs: usize) -> Vec<ExecutionRecord> {
    let cluster = SimCluster::flink_defaults(seed);
    HistoryGenerator::new(seed)
        .with_jobs(jobs)
        .generate(&cluster)
}

fn spec(name: &str, query: &str, multiplier: f64, seed: u64) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        query: query.to_string(),
        multiplier,
        seed,
        engine: Engine::Flink,
        backend: BackendSpec::Sim,
    }
}

fn done_outcome(server: &Server, name: &str) -> TuneOutcome {
    match &server.manager().job(name).expect("job admitted").state {
        JobState::Done(r) => r.outcome.clone(),
        other => panic!("job {name} not done: {other:?}"),
    }
}

#[test]
fn mid_run_rate_shift_retunes_to_the_manual_resubmit_outcome() {
    let config = ServerConfig::fast().with_parallelism(Parallelism::Fixed(4));
    let (mut server, _) =
        Server::bootstrap(None, config, || recipe(81, 14)).expect("bootstrap succeeds");

    // A job tuned at 5×Wu, then watched under a schedule that shifts the
    // environment to 10×Wu mid-run.
    server
        .handle(&Request::Submit(spec("pipeline", "nexmark-q1", 5.0, 21)))
        .0
        .no_error();
    server.handle(&Request::Status).0.no_error(); // drains the queue
    let schedule: Vec<f64> = std::iter::repeat_n(5.0, 10).chain([10.0]).collect();
    let before = done_outcome(&server, "pipeline");
    match server
        .handle(&Request::Watch {
            job: "pipeline".to_string(),
            schedule: Some(schedule),
        })
        .0
    {
        Response::Watching { covered, .. } => assert!(covered, "nexmark-q1 is in the corpus"),
        other => panic!("expected watching, got {other:?}"),
    }

    // Tick until the shift is detected and adapted.
    let report = server.tick_monitor(40);
    assert_eq!(
        report.events.len(),
        1,
        "one shift, one adaptation: {:?}",
        report.events
    );
    assert_eq!(report.events[0].kind, "rate-drift");
    assert!(
        report.events[0].detail.contains("re-tuned at 5 → 10×Wu"),
        "estimated multiplier must recover the scripted shift exactly: {}",
        report.events[0].detail
    );

    // The job was re-tuned in place through the JobManager.
    let job = server.manager().job("pipeline").expect("still admitted");
    assert_eq!(job.retunes, 1);
    assert_eq!(job.spec.multiplier, 10.0);
    let auto = done_outcome(&server, "pipeline");
    assert_ne!(
        auto, before,
        "the shifted rate must change the tuning outcome"
    );

    // Converges to the same TuneOutcome as a manual re-submit at the
    // shifted rate, bit for bit.
    server
        .handle(&Request::Submit(spec("manual", "nexmark-q1", 10.0, 21)))
        .0
        .no_error();
    server.handle(&Request::Status).0.no_error(); // drains the queue
    assert_eq!(done_outcome(&server, "manual"), auto);

    // No further drift at the held level; the status reflects the retune.
    let report = server.tick_monitor(40);
    assert!(
        report.events.is_empty(),
        "stable after adaptation: {:?}",
        report.events
    );
    let Response::Drift(DriftReport { watches: lines, .. }) =
        server.handle(&Request::DriftStatus).0
    else {
        panic!("expected drift status");
    };
    assert_eq!(lines.len(), 1);
    assert_eq!(lines[0].retunes, 1);
    assert_eq!(lines[0].multiplier, 10.0);
    assert_eq!(lines[0].triggers, 1);
}

#[test]
fn unseen_dag_grows_corpus_swaps_model_and_rotates_the_store() {
    let dir = std::env::temp_dir().join(format!("streamtune-adapt-it-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let store = ModelStore::new(&dir);
    // A small corpus (named benchmarks only up to 10 jobs) leaves the
    // 3-way-join PQP shapes structurally uncovered.
    let config = ServerConfig::fast().with_parallelism(Parallelism::Serial);
    let (mut server, _) = Server::bootstrap(Some(store.clone()), config, || recipe(83, 10))
        .expect("bootstrap succeeds");
    let corpus_before = server.corpus().len();
    let clusters_before = server.pretrained().clusters.len();

    server
        .handle(&Request::Submit(spec("newdag", "pqp-3way-7", 6.0, 31)))
        .0
        .no_error();
    match server
        .handle(&Request::Watch {
            job: "newdag".to_string(),
            schedule: None,
        })
        .0
    {
        Response::Watching { covered, .. } => {
            assert!(!covered, "pqp-3way-7 must be uncovered by the small corpus")
        }
        other => panic!("expected watching, got {other:?}"),
    }

    // The first tick grows the corpus, warm re-pretrains, swaps the model
    // in and re-tunes the job under it.
    let report = server.tick_monitor(1);
    assert_eq!(report.events.len(), 1);
    assert_eq!(report.events[0].kind, "structure-drift");
    assert!(
        report.events[0].detail.contains("corpus grew"),
        "{}",
        report.events[0].detail
    );
    assert!(server.corpus().len() > corpus_before);
    let job = server.manager().job("newdag").expect("still admitted");
    assert_eq!(
        job.retunes, 1,
        "the drifted job is re-tuned under the new model"
    );
    assert!(matches!(job.state, JobState::Done(_)));

    // The swapped model is bit-identical to a cold pre-train on the grown
    // corpus (the soundness contract of the warm path).
    let mut cold_cache = GedCache::new(Bound::LabelSet, PretrainConfig::fast().cluster.ged_cap);
    let cold =
        Pretrainer::new(PretrainConfig::fast()).run_with_cache(server.corpus(), &mut cold_cache);
    let live = server.pretrained();
    assert_eq!(live.clusters.len(), cold.clusters.len());
    for (a, b) in live.clusters.iter().zip(&cold.clusters) {
        assert_eq!(a.center, b.center);
        assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
        assert_eq!(a.warmup, b.warmup);
    }
    let _ = clusters_before;

    // The superseded model rotated to .bak; the grown artifacts persisted.
    assert!(
        store.model_backup_path().is_file(),
        "the pre-growth model must rotate to model.json.bak"
    );
    let reloaded = store.load_model().expect("swapped model persisted");
    assert_eq!(reloaded.clusters.len(), live.clusters.len());

    // Once grown, the structure is covered: no more structure events.
    let report = server.tick_monitor(5);
    assert!(report.events.is_empty(), "{:?}", report.events);
    let Response::Drift(DriftReport { watches: lines, .. }) =
        server.handle(&Request::DriftStatus).0
    else {
        panic!("expected drift status");
    };
    assert_ne!(lines[0].class, "structure-drift");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_incremental_repretrain_skips_every_cached_pair() {
    // API-level statement of the acceptance criterion: growing the corpus
    // and re-pretraining over the warm cache performs zero A* searches
    // for already-cached pairs — re-running the *same* grown corpus over
    // the same cache searches exactly zero times, and the incremental run
    // searches strictly less than a cold run on the grown corpus.
    let config = PretrainConfig::fast();
    let mut corpus = recipe(85, 12);
    let mut cache = GedCache::new(Bound::LabelSet, config.cluster.ged_cap);
    let _base = Pretrainer::new(config.clone()).run_with_cache(&corpus, &mut cache);
    let base_searches = cache.stats().searches;
    assert!(base_searches > 0);

    let unseen = streamtune::workloads::pqp::three_way_join_queries().remove(3);
    let new_records = grow_records(&unseen, Engine::Flink, 17, 2);
    let grown_cold: Vec<ExecutionRecord> = corpus
        .iter()
        .cloned()
        .chain(new_records.iter().cloned())
        .collect();
    let (warm_model, growth) = grow_and_pretrain(&config, &mut corpus, new_records, &mut cache);

    // Cold reference on the grown corpus.
    let mut cold_cache = GedCache::new(Bound::LabelSet, config.cluster.ged_cap);
    let cold_model = Pretrainer::new(config.clone()).run_with_cache(&grown_cold, &mut cold_cache);
    assert!(
        growth.new_searches < cold_cache.stats().searches,
        "incremental ({}) must search less than cold ({})",
        growth.new_searches,
        cold_cache.stats().searches
    );
    for (a, b) in warm_model.clusters.iter().zip(&cold_model.clusters) {
        assert_eq!(a.center, b.center);
        assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
        assert_eq!(a.warmup, b.warmup);
    }

    // Every pair the grown clustering needs is now cached: a repeat run
    // searches exactly zero times.
    let searches_before = cache.stats().searches;
    let again = Pretrainer::new(config).run_with_cache(&corpus, &mut cache);
    assert_eq!(
        cache.stats().searches - searches_before,
        0,
        "already-cached pairs must never hit A* again"
    );
    assert_eq!(again.clusters.len(), warm_model.clusters.len());
}

/// Small helper: fail the test on an `error` response.
trait NoError {
    fn no_error(self);
}

impl NoError for Response {
    fn no_error(self) {
        if let Response::Error { message } = self {
            panic!("unexpected protocol error: {message}");
        }
    }
}
