//! Deterministic fault injection, end to end: the same `FaultPlan` seed
//! yields bit-identical retry traces, degradation decisions and
//! `TuneOutcome`s across `Serial` and `Fixed(4)` parallelism; transient
//! fault storms that fit the retry budget leave outcomes bit-identical
//! to fault-free runs; exhausted backends degrade (visibly in `status`,
//! `drift_status` and `health`) instead of failing drains or monitor
//! ticks.
//!
//! The CI `chaos` job runs this suite under several seed sets via the
//! `CHAOS_SEEDS` env var (comma-separated `u64`s; default `7,23,41`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use streamtune::backend::{ChaosBackend, ExecutionBackend, FaultPlan, RetryStats, TuningSession};
use streamtune::core::Parallelism;
use streamtune::dataflow::ParallelismAssignment;
use streamtune::monitor::{DriftEvent, Monitor, MonitorConfig, WatchSpec};
use streamtune::prelude::*;
use streamtune::serve::{DriftReport, JobManager, JobResult, JobSpec, JobState, ServerConfig};
use streamtune::workloads::history::HistoryGenerator;
use streamtune::workloads::nexmark;
use streamtune::workloads::rates::Engine;

fn chaos_seeds() -> Vec<u64> {
    match std::env::var("CHAOS_SEEDS") {
        Ok(list) => list
            .split(',')
            .map(|t| t.trim().parse().expect("CHAOS_SEEDS must be u64s"))
            .collect(),
        Err(_) => vec![7, 23, 41],
    }
}

fn pretrained(seed: u64) -> streamtune::core::Pretrained {
    let cluster = SimCluster::flink_defaults(seed);
    let corpus = HistoryGenerator::new(seed).with_jobs(12).generate(&cluster);
    Pretrainer::new(PretrainConfig::fast()).run(&corpus)
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

/// An aggressive but fully absorbable fault storm: nearly every backend
/// call faults, but the burst cap (2) sits below the default retry
/// budget (4 attempts), so every deploy reaches a clean call.
fn absorbable_plan(seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::transient(seed);
    plan.io_rate = 0.9;
    plan
}

/// Drain the three reference jobs and return `(result, retry)` per job.
fn run_jobs(
    pre: &streamtune::core::Pretrained,
    parallelism: Parallelism,
    plan: Option<FaultPlan>,
) -> Vec<(JobResult, RetryStats)> {
    let mut mgr = JobManager::new(pre.clone(), parallelism);
    for (i, (query, multiplier)) in [
        ("nexmark-q1", 6.0),
        ("nexmark-q2", 5.0),
        ("nexmark-q5", 8.0),
    ]
    .iter()
    .enumerate()
    {
        let backend = match plan {
            Some(plan) => BackendSpec::Chaos(Box::new(plan)),
            None => BackendSpec::Sim,
        };
        mgr.submit(spec(
            &format!("job-{i}"),
            query,
            *multiplier,
            i as u64 + 1,
            backend,
        ))
        .expect("submit");
    }
    mgr.drain();
    mgr.jobs()
        .iter()
        .map(|j| match &j.state {
            JobState::Done(result) => (result.clone(), j.retry()),
            other => panic!("expected Done for {}, got {other:?}", j.spec.name),
        })
        .collect()
}

#[test]
fn same_fault_seed_is_bit_identical_across_parallelism_and_matches_fault_free() {
    let pre = pretrained(91);
    let clean = run_jobs(&pre, Parallelism::Serial, None);
    for seed in chaos_seeds() {
        let plan = absorbable_plan(seed);
        let serial = run_jobs(&pre, Parallelism::Serial, Some(plan));
        let pooled = run_jobs(&pre, Parallelism::Fixed(4), Some(plan));
        // Same plan seed ⇒ bit-identical outcomes *and* retry traces,
        // whatever the worker pool width.
        assert_eq!(serial, pooled, "seed {seed}: Serial vs Fixed(4) diverged");
        let mut faults = 0;
        for ((result, retry), (clean_result, _)) in serial.iter().zip(&clean) {
            // Absorbed transient faults never perturb the outcome.
            assert_eq!(
                result, clean_result,
                "seed {seed}: fault-storm outcome diverged from fault-free"
            );
            assert_eq!(retry.exhausted, 0, "seed {seed}: budget must suffice");
            assert_eq!(retry.permanent_failures, 0);
            faults += retry.transient_faults;
        }
        assert!(faults > 0, "seed {seed}: the plan must actually fire");
    }
}

#[test]
fn retry_traces_replay_identically_at_the_session_level() {
    // The same plan seed against the same flow replays the exact same
    // fault sequence: sessions are the unit the invariant composes from.
    for seed in chaos_seeds() {
        let flow = nexmark::q2(Engine::Flink).flow;
        let trace = |_: ()| {
            let mut backend =
                ChaosBackend::new(SimCluster::flink_defaults(3), absorbable_plan(seed));
            let mut session = TuningSession::new(&mut backend, &flow);
            let assignment = ParallelismAssignment::uniform(&flow, 8);
            for _ in 0..6 {
                session.deploy(&assignment).expect("absorbed");
            }
            (session.retry_stats(), backend.counters())
        };
        let (first_stats, first_counters) = trace(());
        let (again_stats, again_counters) = trace(());
        assert_eq!(first_stats, again_stats, "seed {seed}: retry trace drifted");
        assert_eq!(
            first_counters, again_counters,
            "seed {seed}: fault counters drifted"
        );
        assert!(first_stats.transient_faults > 0);
        assert!(first_stats.retries > 0);
    }
}

fn tiny_server() -> Server {
    let (server, _) = Server::bootstrap(
        None,
        ServerConfig::fast().with_parallelism(Parallelism::Serial),
        || {
            let cluster = SimCluster::flink_defaults(91);
            HistoryGenerator::new(91).with_jobs(12).generate(&cluster)
        },
    )
    .expect("bootstrap succeeds");
    server
}

#[test]
fn exhausted_backends_degrade_in_status_and_health() {
    let mut server = tiny_server();
    // Every call faults and the burst never closes: the retry budget is
    // guaranteed to run out.
    let mut sick_plan = FaultPlan::quiet(5).with_max_burst(u32::MAX);
    sick_plan.io_rate = 1.0;
    for request in [
        Request::Submit(spec(
            "sick",
            "nexmark-q1",
            6.0,
            1,
            BackendSpec::Chaos(Box::new(sick_plan)),
        )),
        Request::Submit(spec("healthy", "nexmark-q2", 5.0, 2, BackendSpec::Sim)),
    ] {
        assert!(matches!(
            server.handle(&request).0,
            Response::Submitted { .. }
        ));
    }

    // `status` drains and shows the degraded job with its detail — the
    // sick backend broke neither the drain nor its neighbor.
    match server.handle(&Request::Status).0 {
        Response::Status(status) => {
            let sick = &status.jobs[0];
            assert_eq!(sick.state, "degraded");
            assert!(
                sick.detail.as_deref().unwrap_or("").contains("I/O"),
                "detail names the fault: {:?}",
                sick.detail
            );
            assert_eq!(status.jobs[1].state, "done");
        }
        other => panic!("expected status, got {other:?}"),
    }

    // `health` carries the per-job retry ledger and daemon counters.
    match server.handle(&Request::Health).0 {
        Response::Health(health) => {
            let sick = &health.jobs[0];
            assert_eq!(sick.state, "degraded");
            assert!(sick.exhausted > 0);
            assert!(sick.transient_faults > 0);
            let healthy = &health.jobs[1];
            assert_eq!(healthy.state, "done");
            assert_eq!(healthy.transient_faults, 0);
            assert_eq!(health.watched, 0);
            assert_eq!(health.degraded_watches, 0);
            assert_eq!(health.store_recoveries, 0);
            assert_eq!(health.lock_recoveries, 0);
            assert_eq!(health.handler_panics, 0);
        }
        other => panic!("expected health, got {other:?}"),
    }
}

#[test]
fn watched_chaos_job_merges_stream_retries_into_health() {
    let mut server = tiny_server();
    let plan = absorbable_plan(23);
    // Chaos twin and clean twin of the same job: the server-path outcome
    // must be identical (the invariant holds through submit/recommend).
    for request in [
        Request::Submit(spec(
            "flaky",
            "nexmark-q2",
            5.0,
            4,
            BackendSpec::Chaos(Box::new(plan)),
        )),
        Request::Submit(spec("clean", "nexmark-q2", 5.0, 4, BackendSpec::Sim)),
    ] {
        assert!(matches!(
            server.handle(&request).0,
            Response::Submitted { .. }
        ));
    }
    let degrees = |server: &mut Server, job: &str| match server
        .handle(&Request::Recommend {
            job: job.to_string(),
        })
        .0
    {
        Response::Recommendation(rec) => rec.degrees,
        other => panic!("expected recommendation, got {other:?}"),
    };
    assert_eq!(
        degrees(&mut server, "flaky"),
        degrees(&mut server, "clean"),
        "absorbed faults must not change the recommendation"
    );

    let faults_before = match server.handle(&Request::Health).0 {
        Response::Health(health) => {
            let line = &health.jobs[0];
            assert_eq!(line.job, "flaky");
            assert!(line.transient_faults > 0, "tuning-phase faults recorded");
            line.transient_faults
        }
        other => panic!("expected health, got {other:?}"),
    };

    // Watch the chaos job: the monitor polls through the same fault plan
    // and must absorb its storms too.
    assert!(matches!(
        server
            .handle(&Request::Watch {
                job: "flaky".to_string(),
                schedule: None,
            })
            .0,
        Response::Watching { .. }
    ));
    assert!(matches!(
        server.handle(&Request::Tick { steps: 3 }).0,
        Response::Ticked(_)
    ));
    match server.handle(&Request::DriftStatus).0 {
        Response::Drift(DriftReport { watches: lines, .. }) => {
            assert_eq!(lines.len(), 1);
            assert!(!lines[0].degraded, "absorbed faults must not degrade");
            assert_eq!(lines[0].poll_failures, 0);
        }
        other => panic!("expected drift status, got {other:?}"),
    }
    match server.handle(&Request::Health).0 {
        Response::Health(health) => {
            assert_eq!(health.watched, 1);
            assert_eq!(health.degraded_watches, 0);
            assert_eq!(health.poll_failures, 0);
            assert!(
                health.jobs[0].transient_faults > faults_before,
                "stream-phase faults merge into the job's health line"
            );
        }
        other => panic!("expected health, got {other:?}"),
    }
}

/// A backend that is a hopeless `ChaosBackend` until healed, then a
/// clean simulator: drives the monitor's degrade → recover lifecycle
/// with real injected faults.
struct SwitchableBackend {
    healed: Arc<AtomicBool>,
    sick: ChaosBackend<SimCluster>,
    clean: SimCluster,
}

impl ExecutionBackend for SwitchableBackend {
    fn engine_mode(&self) -> streamtune::backend::EngineMode {
        self.clean.engine_mode()
    }

    fn constraints(&self) -> streamtune::backend::BackendConstraints {
        self.clean.constraints()
    }

    fn deploy(
        &mut self,
        flow: &streamtune::dataflow::Dataflow,
        assignment: &ParallelismAssignment,
        epoch: u64,
    ) -> Result<streamtune::sim::SimulationReport, BackendError> {
        if self.healed.load(Ordering::SeqCst) {
            self.clean.deploy(flow, assignment, epoch)
        } else {
            self.sick.deploy(flow, assignment, epoch)
        }
    }

    fn epoch_latencies(
        &mut self,
        flow: &streamtune::dataflow::Dataflow,
        assignment: &ParallelismAssignment,
        epochs: usize,
    ) -> Result<Vec<f64>, BackendError> {
        if self.healed.load(Ordering::SeqCst) {
            ExecutionBackend::epoch_latencies(&mut self.clean, flow, assignment, epochs)
        } else {
            self.sick.epoch_latencies(flow, assignment, epochs)
        }
    }
}

#[test]
fn chaos_monitor_degrades_then_recovers() {
    let mut plan = FaultPlan::quiet(9).with_max_burst(u32::MAX);
    plan.io_rate = 1.0;
    let healed = Arc::new(AtomicBool::new(false));
    let backend = SwitchableBackend {
        healed: Arc::clone(&healed),
        sick: ChaosBackend::new(SimCluster::flink_defaults(17), plan),
        clean: SimCluster::flink_defaults(17),
    };

    let mut monitor = Monitor::new(MonitorConfig {
        parallelism: Parallelism::Serial,
        ..MonitorConfig::default()
    });
    let workload = nexmark::q5(Engine::Flink);
    let flow = workload.at(6.0);
    monitor
        .watch(
            WatchSpec {
                name: "flaky".to_string(),
                assignment: ParallelismAssignment::uniform(&flow, 20),
                workload,
                multiplier: 6.0,
                schedule: None,
                structure_covered: true,
            },
            Box::new(backend),
        )
        .expect("watch succeeds");

    // Hopeless backend: polls fail past the stream's retries until the
    // consecutive-failure threshold flips the watch to degraded.
    let mut degraded_at = None;
    for tick in 0..10 {
        let events = monitor.tick();
        if events
            .iter()
            .any(|e| matches!(e, DriftEvent::Degraded { job, .. } if job == "flaky"))
        {
            degraded_at = Some(tick);
            break;
        }
    }
    assert!(degraded_at.is_some(), "the watch must degrade");
    let status = monitor.status();
    assert!(status[0].degraded);
    assert_eq!(status[0].class, "degraded");
    assert!(status[0].poll_failures > 0);
    let stats = monitor.stream_retry_stats("flaky").expect("watched");
    assert!(stats.transient_faults > 0);
    assert!(stats.exhausted > 0);

    // Heal the backend: the next successful poll announces recovery and
    // drift detection resumes.
    healed.store(true, Ordering::SeqCst);
    let mut recovered = false;
    for _ in 0..5 {
        let events = monitor.tick();
        if events
            .iter()
            .any(|e| matches!(e, DriftEvent::Recovered { job } if job == "flaky"))
        {
            recovered = true;
            break;
        }
    }
    assert!(recovered, "a healed backend must announce recovery");
    assert!(!monitor.status()[0].degraded);
}

#[test]
fn epoch_windowed_outage_degrades_raises_the_slo_alarm_then_recovers() {
    use streamtune::backend::FaultRates;
    use streamtune::monitor::MONITOR_EPOCH_BASE;

    // The ROADMAP's "clean tune, then sick monitor" drill: a quiet plan
    // whose only faults live in an epoch window over the monitor's polls.
    // Tuning epochs are small, so the tune is clean; polls 2..6 all fault
    // past the retry budget; poll 6 is clean again.
    let plan = FaultPlan::quiet(31).with_max_burst(u32::MAX).with_phase(
        MONITOR_EPOCH_BASE + 2,
        MONITOR_EPOCH_BASE + 6,
        FaultRates::outage(),
    );

    let drill = || {
        let mut server = tiny_server();
        for request in [
            Request::Submit(spec(
                "drill",
                "nexmark-q2",
                5.0,
                4,
                BackendSpec::Chaos(Box::new(plan)),
            )),
            Request::Submit(spec("twin", "nexmark-q2", 5.0, 4, BackendSpec::Sim)),
        ] {
            assert!(matches!(
                server.handle(&request).0,
                Response::Submitted { .. }
            ));
        }
        // Clean tune: the windowed outage never touches tuning epochs.
        let degrees = |server: &mut Server, job: &str| match server
            .handle(&Request::Recommend {
                job: job.to_string(),
            })
            .0
        {
            Response::Recommendation(rec) => rec.degrees,
            other => panic!("expected recommendation, got {other:?}"),
        };
        assert_eq!(
            degrees(&mut server, "drill"),
            degrees(&mut server, "twin"),
            "the pre-window tune must be bit-identical to a fault-free twin"
        );
        assert!(matches!(
            server
                .handle(&Request::Watch {
                    job: "drill".to_string(),
                    schedule: None,
                })
                .0,
            Response::Watching { .. }
        ));

        // Tick one poll at a time and collect every event edge.
        let mut events = Vec::new();
        for _ in 0..12 {
            match server.handle(&Request::Tick { steps: 1 }).0 {
                Response::Ticked(report) => {
                    for e in report.events {
                        events.push((e.job, e.kind, e.detail));
                    }
                }
                other => panic!("expected tick report, got {other:?}"),
            }
            // The SLO alarm is visible in `health` and `drift_status`
            // exactly while a watch is degraded (default threshold: 1).
            let degraded = match server.handle(&Request::Health).0 {
                Response::Health(health) => {
                    assert_eq!(
                        health.alarms.iter().any(|a| a.alarm == "degraded-watches"),
                        health.degraded_watches >= 1,
                        "alarm must track the degraded-watch counter"
                    );
                    health.degraded_watches
                }
                other => panic!("expected health, got {other:?}"),
            };
            match server.handle(&Request::DriftStatus).0 {
                Response::Drift(DriftReport { alarms, .. }) => {
                    assert_eq!(
                        alarms.iter().any(|a| a.alarm == "degraded-watches"),
                        degraded >= 1
                    );
                }
                other => panic!("expected drift status, got {other:?}"),
            }
        }
        (events, degrees(&mut server, "drill"))
    };

    let (events, degrees) = drill();
    let kinds: Vec<&str> = events.iter().map(|(_, kind, _)| kind.as_str()).collect();
    let position = |kind: &str| {
        kinds
            .iter()
            .position(|k| *k == kind)
            .unwrap_or_else(|| panic!("expected a {kind} event, got {kinds:?}"))
    };
    // The lifecycle reads in order: failing polls, degradation, the SLO
    // alarm raised by the same tick, then recovery and the alarm clearing.
    let degraded_at = position("degraded");
    assert!(position("poll-failed") < degraded_at);
    let raised_at = position("alarm-raised");
    assert!(raised_at >= degraded_at);
    assert!(
        events[raised_at].0 == "daemon" && events[raised_at].2.contains("degraded-watches"),
        "the alarm edge names its threshold: {:?}",
        events[raised_at]
    );
    let recovered_at = position("recovered");
    assert!(
        recovered_at > degraded_at,
        "the window must end on schedule"
    );
    let cleared_at = position("alarm-cleared");
    assert!(cleared_at >= recovered_at);
    assert!(
        !kinds.contains(&"rate-drift"),
        "an outage is not a workload drift: {kinds:?}"
    );

    // The whole drill is a pure function of the plan: replay it.
    let (again, degrees_again) = drill();
    assert_eq!(events, again, "the drill must replay bit-identically");
    assert_eq!(degrees, degrees_again);
}
