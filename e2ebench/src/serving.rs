//! Pieces shared by the two daemon workloads: daemon set-up, one job's
//! `submit` + `recommend`, the traced read probe, and checking every
//! served recommendation against the in-process reference.

use std::collections::HashMap;
use std::time::Instant;

use streamtune_serve::{JobSpec, Recommendation, Request, Response};
use streamtune_workloads::Workload;

use crate::daemon::{Conn, Daemon, Metrics};
use crate::jobs::{self, Quality, Reference};
use crate::pace::ms;
use crate::spans::Tracer;
use crate::{layers, schedule, stats, Ctx, Report};

/// Daemon start-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;
/// Recommends of finished jobs the traced run sends after the workload.
pub const READ_PROBE: usize = 40;

/// Start the daemon [`SETUP_REPS`] times in a row, report the median
/// start-up time as `setup_s`, and keep the last one running.
pub fn start_daemon(ctx: &Ctx, report: &mut Report) -> Result<Daemon, String> {
    let mut times = Vec::new();
    let mut running: Option<Daemon> = None;
    for k in 0..SETUP_REPS {
        if let Some(d) = running.take() {
            d.shutdown()?;
        }
        let d = Daemon::spawn(&ctx.daemon, &ctx.out.join(format!("daemon-{k}.log")))?;
        times.push(d.setup_s);
        running = Some(d);
    }
    report.put("setup_s", stats::median(&times), "s", times.len());
    Ok(running.expect("SETUP_REPS > 0"))
}

/// One job as a client sees it.
pub struct JobRun {
    /// The spec submitted.
    pub spec: JobSpec,
    /// `submit` round trip, ms.
    pub submit_ms: f64,
    /// `recommend` round trip, ms.
    pub recommend_ms: f64,
    /// The recommendation, or what went wrong.
    pub result: Result<Recommendation, String>,
}

fn refused(verb: &str, other: Response) -> String {
    match other {
        Response::Overloaded { reason, .. } => format!("{verb}: overloaded ({reason})"),
        Response::Error { message } => format!("{verb}: {message}"),
        other => format!("{verb}: unexpected reply {other:?}"),
    }
}

/// `submit` a spec, then `recommend` it, each round trip timed (and
/// recorded as a span when tracing).
pub fn submit_recommend(conn: &mut Conn, spec: &JobSpec, tracer: &mut Tracer) -> JobRun {
    let mut run = JobRun {
        spec: spec.clone(),
        submit_ms: 0.0,
        recommend_ms: 0.0,
        result: Err(String::new()),
    };
    let span = tracer.open("serve.submit");
    let start = Instant::now();
    let submitted = conn.call(&Request::Submit(spec.clone()));
    run.submit_ms = ms(start.elapsed());
    tracer.close(span);
    match submitted {
        Ok(Response::Submitted { .. }) => {}
        Ok(other) => {
            run.result = Err(refused("submit", other));
            return run;
        }
        Err(e) => {
            run.result = Err(format!("submit: {e}"));
            return run;
        }
    }
    run.result = recommend(
        conn,
        &spec.name,
        tracer,
        "serve.recommend",
        &mut run.recommend_ms,
    );
    run
}

/// `recommend` one job, storing its round trip in `rtt_ms`.
pub fn recommend(
    conn: &mut Conn,
    job: &str,
    tracer: &mut Tracer,
    span_name: &str,
    rtt_ms: &mut f64,
) -> Result<Recommendation, String> {
    let span = tracer.open(span_name);
    let start = Instant::now();
    let reply = conn.call(&Request::Recommend {
        job: job.to_string(),
    });
    *rtt_ms = ms(start.elapsed());
    tracer.close(span);
    match reply {
        Ok(Response::Recommendation(rec)) => Ok(rec),
        Ok(other) => Err(refused("recommend", other)),
        Err(e) => Err(format!("recommend: {e}")),
    }
}

/// Closed-loop recommends of finished jobs, round trips in ms; each reply
/// is returned for checking.
pub fn read_probe(
    conn: &mut Conn,
    finished: &[String],
    tracer: &mut Tracer,
) -> Vec<(f64, Result<Recommendation, String>)> {
    (0..READ_PROBE)
        .map(|k| {
            let mut rtt = 0.0;
            let r = recommend(
                conn,
                &finished[k % finished.len()],
                tracer,
                "serve.read",
                &mut rtt,
            );
            (rtt, r)
        })
        .collect()
}

/// Reference results by job name for `specs`, plus the reference server's
/// corpus-generation time.
pub struct Verifier {
    /// Reference by job name.
    pub refs: HashMap<String, Result<Reference, String>>,
    /// The reference server (bootstrapped like the daemon).
    pub server: streamtune_serve::Server,
    /// Seconds the reference corpus took to generate.
    pub corpus_s: f64,
}

impl Verifier {
    /// Bootstrap the reference and tune every spec in process.
    pub fn new(catalog: &[Workload], specs: &[JobSpec]) -> Result<Self, String> {
        let (server, corpus_s) = jobs::reference_server()?;
        // One tune at a time, as the daemon ran them, so `core.tune_ms`
        // compares with its handler time.
        let refs = specs
            .iter()
            .map(|s| {
                (
                    s.name.clone(),
                    jobs::reference(server.pretrained(), catalog, s),
                )
            })
            .collect();
        Ok(Verifier {
            refs,
            server,
            corpus_s,
        })
    }

    /// The successful references of `specs`, in order.
    pub fn tunes(&self, specs: &[JobSpec]) -> Vec<&Reference> {
        specs
            .iter()
            .filter_map(|s| self.refs.get(&s.name).and_then(|r| r.as_ref().ok()))
            .collect()
    }

    /// Check one served reply; failures are counted in `report`.
    pub fn check(&self, reply: &Result<Recommendation, String>, report: &mut Report) -> bool {
        let outcome =
            reply
                .as_ref()
                .map_err(Clone::clone)
                .and_then(|rec| match self.refs.get(&rec.job) {
                    Some(Ok(want)) => jobs::check(rec, want),
                    Some(Err(e)) => Err(e.clone()),
                    None => Err(format!("{}: no reference", rec.job)),
                });
        report.attempt(outcome)
    }

    /// Add a served job's outcome to `quality`.
    pub fn add_quality(&self, rec: &Recommendation, quality: &mut Quality) {
        if let Some(Ok(want)) = self.refs.get(&rec.job) {
            quality.add(
                rec.total,
                want.oracle_total,
                rec.reconfigurations,
                rec.backpressure_events,
            );
        }
    }
}

/// Report the quality metrics every workload shares.
pub fn put_quality(report: &mut Report, quality: &Quality) {
    let n = quality.tunes();
    report.put("par_over_oracle", quality.par_over_oracle(), "ratio", n);
    report.put(
        "reconfigs_per_tune",
        quality.reconfigs_per_tune(),
        "count",
        n,
    );
    report.put(
        "backpressure_per_tune",
        quality.backpressure_per_tune(),
        "count",
        n,
    );
}

/// Split `samples` into the ones taken with spans on (even positions) and
/// off (odd positions).
pub fn interleaved(samples: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let on = samples.iter().step_by(2).copied().collect();
    let off = samples.iter().skip(1).step_by(2).copied().collect();
    (on, off)
}

/// What a traced daemon run collected for its per-layer figures.
pub struct Traced {
    /// Daemon telemetry right after start-up.
    pub boot: Metrics,
    /// The measured window.
    pub window: layers::Window,
    /// Request and reply lines of the window.
    pub recorded: Vec<(String, String)>,
}

/// The traced run's per-layer figures: start-up (from `boot`), daemon-side
/// telemetry, wire (de)serialisation, fresh-session tunes of the run's
/// jobs, the in-process probes, the rate-schedule probe and the span
/// recorder's overhead on `ttr`. Returns the mean lock wait per request, ms.
#[allow(clippy::too_many_arguments)]
pub fn daemon_layers(
    ctx: &Ctx,
    report: &mut Report,
    tracer: &mut Tracer,
    traced: &Traced,
    verifier: &mut Verifier,
    catalog: &[Workload],
    specs: &[JobSpec],
    ttr: &[f64],
) -> Result<f64, String> {
    layers::setup(report, &traced.boot);
    report.put("workloads.corpus_s", verifier.corpus_s, "s", 1);
    let lock_wait_ms = layers::serve_side(report, tracer, &traced.window);
    layers::wire(report, tracer, &traced.recorded)?;
    let refs = verifier.tunes(specs);
    layers::fresh_tunes(report, tracer, &refs);
    let (on, off) = interleaved(ttr);
    layers::trace_overhead(report, &on, &off);
    layers::in_process(
        report,
        tracer,
        &mut verifier.server,
        catalog,
        &layers::sample(specs),
    )?;
    schedule::probe(
        ctx.seed,
        verifier.server.pretrained(),
        catalog,
        report,
        tracer,
    )?;
    Ok(lock_wait_ms)
}
