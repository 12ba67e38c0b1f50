//! `fresh_jobs`: one connection, closed loop. Each job is `submit`ted and
//! then `recommend`ed, so every recommend drains the queue and tunes: the
//! `M_f` fit and the per-request reply dominate, with no lock contention.

use std::time::Instant;

use crate::daemon::{Conn, Metrics};
use crate::jobs::{self, Quality};
use crate::serving::{self, Traced, Verifier};
use crate::spans::Tracer;
use crate::{layers, pace, stats, Ctx, Report};

/// Jobs every run makes, however fast they go. The quality figures are
/// taken over the whole blocks of the job stream among these (each named
/// workload equally often), so they repeat at a fixed seed and vary less
/// across seeds.
pub const MIN_JOBS: u64 = 200;

/// Run the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let catalog = jobs::catalog();
    let daemon = serving::start_daemon(ctx, &mut report)?;
    let mut conn = Conn::connect(&daemon.addr)?;
    let boot = ctx.trace.then(|| Metrics::fetch(&mut conn)).transpose()?;
    if ctx.trace {
        conn.recorded = Some(Vec::new());
    }

    let start = Instant::now();
    let mut runs = Vec::new();
    let mut i = 0;
    while i < MIN_JOBS || start.elapsed().as_secs_f64() < ctx.seconds {
        // The traced run records every other job, to measure its own cost.
        tracer.set_on(ctx.trace && i % 2 == 0);
        let spec = jobs::job(ctx.seed, "f", i, &catalog);
        runs.push(serving::submit_recommend(&mut conn, &spec, tracer));
        i += 1;
    }
    let secs = start.elapsed().as_secs_f64();
    tracer.set_on(ctx.trace);

    let mut probe = Vec::new();
    let mut traced = None;
    if let Some(boot) = boot {
        let recorded = conn.recorded.take().unwrap_or_default();
        let after = Metrics::fetch(&mut conn)?;
        let finished: Vec<String> = runs
            .iter()
            .filter(|r| r.result.is_ok())
            .map(|r| r.spec.name.clone())
            .collect();
        probe = serving::read_probe(&mut conn, &finished, tracer);
        let after_reads = Metrics::fetch(&mut conn)?;
        let window = layers::Window {
            before: boot.clone(),
            after,
            after_reads,
            rtt_ms: runs
                .iter()
                .flat_map(|r| [r.submit_ms, r.recommend_ms])
                .collect(),
            reads: 0,
            secs,
        };
        traced = Some(Traced {
            boot,
            window,
            recorded,
        });
    }
    report.put("peak_rss_mb", daemon.peak_rss_mb()?, "MB", 1);
    drop(conn);
    daemon.shutdown()?;

    let specs: Vec<_> = runs.iter().map(|r| r.spec.clone()).collect();
    let mut verifier = Verifier::new(&catalog, &specs)?;
    let mut quality = Quality::default();
    let quality_jobs = MIN_JOBS as usize / catalog.len() * catalog.len();
    let mut ttr = Vec::new();
    for (k, run) in runs.iter().enumerate() {
        report.attempted += 1; // the `submit`; `check` counts the `recommend`
        if verifier.check(&run.result, &mut report) {
            ttr.push(run.submit_ms + run.recommend_ms);
            if k < quality_jobs {
                verifier.add_quality(run.result.as_ref().expect("checked"), &mut quality);
            }
        }
    }
    for (_, reply) in &probe {
        verifier.check(reply, &mut report);
    }
    report.put("ttr_p50_ms", stats::median(&ttr), "ms", ttr.len());
    report.put("ttr_p90_ms", stats::tail(&ttr, 0.90)?, "ms", ttr.len());
    serving::put_quality(&mut report, &quality);
    report.note(format!("{} jobs in {secs:.1} s", runs.len()));
    if let Some(traced) = traced {
        let lock_wait_ms = serving::daemon_layers(
            ctx,
            &mut report,
            tracer,
            &traced,
            &mut verifier,
            &catalog,
            &specs,
            &ttr,
        )?;
        let tune_ms: Vec<f64> = verifier
            .tunes(&specs)
            .iter()
            .map(|r| pace::ms(r.tune))
            .collect();
        layers::account(&mut report, stats::mean(&tune_ms), lock_wait_ms);
    }
    Ok(report)
}
