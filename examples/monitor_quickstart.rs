//! Monitor quickstart: the observe→detect→adapt loop in one process.
//!
//! A job is tuned at 5×Wu, then *watched*: the monitor polls its backend
//! every tick while the scripted environment shifts the source rate to
//! 10×Wu mid-run. The CUSUM detector spots the change point, estimates the
//! shifted multiplier from the dashboard rates alone, and the adaptation
//! policy re-tunes the job through the job manager — producing exactly
//! the recommendation a manual re-submit at the shifted rate would.
//!
//! ```sh
//! cargo run --release --example monitor_quickstart
//! ```
//!
//! The same verbs (`watch` / `tick` / `drift_status`) work over
//! `streamtune serve --listen ADDR`, and `streamtune monitor` wraps this
//! whole flow in one CLI command.

use streamtune::core::Parallelism;
use streamtune::prelude::*;
use streamtune::serve::{DriftReport, JobState, Request, ServerConfig};
use streamtune::workloads::history::HistoryGenerator;
use streamtune::workloads::rates::Engine;

fn main() {
    // 1. Bootstrap an in-process server (fast pre-train, no store).
    println!("pre-training…");
    let config = ServerConfig::fast().with_parallelism(Parallelism::Auto);
    let (mut server, _) = Server::bootstrap(None, config, || {
        let cluster = SimCluster::flink_defaults(81);
        HistoryGenerator::new(81).with_jobs(14).generate(&cluster)
    })
    .expect("bootstrap failed");
    println!("  {} cluster(s) ready", server.pretrained().clusters.len());

    // 2. Tune a job at 5×Wu.
    let spec = JobSpec {
        name: "checkout".to_string(),
        query: "nexmark-q1".to_string(),
        multiplier: 5.0,
        seed: 21,
        engine: Engine::Flink,
        backend: BackendSpec::Sim,
    };
    server.handle(&Request::Submit(spec));
    server.handle(&Request::Status); // drain the queue
    let degrees_before = match &server.manager().job("checkout").unwrap().state {
        JobState::Done(r) => r.outcome.final_assignment.clone(),
        other => panic!("job not tuned: {other:?}"),
    };
    println!(
        "tuned `checkout` at 5×Wu → total parallelism {}",
        degrees_before.total()
    );

    // 3. Watch it under a scripted rate shift: ten quiet ticks, then the
    //    environment jumps to 10×Wu (the monitor only sees the dashboard).
    let schedule: Vec<f64> = std::iter::repeat_n(5.0, 10).chain([10.0]).collect();
    server.handle(&Request::Watch {
        job: "checkout".to_string(),
        schedule: Some(schedule),
    });
    println!("watching `checkout`; the source rate will shift to 10×Wu at tick 10…");

    // 4. Tick the monitor until the drift is detected and adapted.
    let report = server.tick_monitor(30);
    for event in &report.events {
        println!("  tick event: [{}] {}", event.kind, event.detail);
    }
    assert_eq!(
        report.events.len(),
        1,
        "the shift fires exactly one adaptation"
    );

    // 5. The job was automatically re-tuned — identical to a manual
    //    re-submit at the shifted rate.
    let job = server.manager().job("checkout").unwrap();
    let JobState::Done(result) = &job.state else {
        panic!("job not re-tuned: {:?}", job.state)
    };
    println!(
        "auto re-tune #{} at {}×Wu → total parallelism {} (was {})",
        job.retunes,
        job.spec.multiplier,
        result.outcome.final_assignment.total(),
        degrees_before.total()
    );
    assert_eq!(job.retunes, 1);
    assert_eq!(job.spec.multiplier, 10.0);
    assert_ne!(result.outcome.final_assignment, degrees_before);

    // 6. Drift status: one stable, re-baselined watch.
    if let streamtune::serve::Response::Drift(DriftReport { watches: lines, .. }) =
        server.handle(&Request::DriftStatus).0
    {
        for l in lines {
            println!(
                "drift status: {} is {} after {} tick(s), {} trigger(s), {} re-tune(s)",
                l.job, l.class, l.ticks, l.triggers, l.retunes
            );
        }
    }
    println!("done — the loop closed without any manual re-submit");
}
