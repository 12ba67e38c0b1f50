//! Per-layer figures for the traced run. Each in-process probe times one
//! public function of one crate as a span; the daemon-side figures come
//! from its own telemetry (`metrics` verb), taken before and after the
//! measured requests.

use std::hint::black_box;
use std::time::Instant;

use streamtune_backend::ExecutionBackend;
use streamtune_core::pretrain::{rate_feature, PRETRAIN_PHASES};
use streamtune_core::{ModelKind, TuneConfig};
use streamtune_dataflow::ParallelismAssignment;
use streamtune_model::recommend_min_parallelism_at;
use streamtune_nn::GraphSample;
use streamtune_serve::{parse_request, render_response, JobSpec, Request, Response, Server};
use streamtune_sim::SimCluster;
use streamtune_workloads::Workload;

use crate::daemon::{Hist, Metrics};
use crate::jobs::{self, Reference};
use crate::spans::Tracer;
use crate::stats::{mean, median};
use crate::Report;

/// Specs the in-process probes visit (spread over the run's jobs).
pub const SAMPLE: usize = 30;
/// Repetitions of the recorded lines when timing (de)serialisation.
const WIRE_REPS: usize = 20;

/// Up to [`SAMPLE`] specs spread evenly over `specs`.
pub fn sample(specs: &[JobSpec]) -> Vec<JobSpec> {
    let step = specs.len().div_ceil(SAMPLE).max(1);
    specs.iter().step_by(step).cloned().collect()
}

/// Report the median of the spans named `span` as `metric`, in the unit
/// its name ends with (`_us`, else ms).
fn put_span(report: &mut Report, tracer: &Tracer, span: &str, metric: &str) {
    let (scale, unit) = if metric.ends_with("_us") {
        (1e3, "us")
    } else {
        (1.0, "ms")
    };
    let samples = tracer.ms(span);
    report.put(metric, median(&samples) * scale, unit, samples.len());
}

/// Time assignment, embedding, the `M_f` fit, the min-parallelism search,
/// a backend deploy and the in-process serve path on each spec.
pub fn in_process(
    report: &mut Report,
    tracer: &mut Tracer,
    server: &mut Server,
    catalog: &[Workload],
    specs: &[JobSpec],
) -> Result<(), String> {
    let pretrained = server.pretrained().clone();
    let config = TuneConfig::default();
    let mut fit_points = Vec::new();
    for spec in specs {
        let flow = jobs::workload(catalog, &spec.query)?.at(spec.multiplier);
        let n = flow.num_ops();
        let (_, model) = tracer.time("core.assign", || pretrained.assign(&flow));
        tracer.time("core.center_distances", || {
            pretrained.center_distances(&flow)
        });
        let graph =
            GraphSample::from_dataflow(&flow, &pretrained.features, &vec![1; n], &vec![-1.0; n]);
        let embedding = tracer.time("nn.embed", || model.encoder.embed_agnostic(&graph));
        // The first iteration's dataset: the cluster's warm-up points, capped.
        let dataset: Vec<_> = model
            .warmup
            .iter()
            .take(config.max_warmup_points)
            .cloned()
            .collect();
        fit_points.push(dataset.len() as f64);
        let mut mf = ModelKind::Xgboost.build();
        tracer.time("model.fit", || mf.fit(&dataset));
        let mut sim = SimCluster::flink_defaults(spec.seed);
        let p_max = sim.constraints().max_parallelism;
        let demand = streamtune_sim::rates::demand_rates(&flow);
        for i in 0..n {
            let mut h = embedding.row(i).to_vec();
            h.push(rate_feature(demand.input[i]));
            tracer.time("model.search", || {
                recommend_min_parallelism_at(mf.as_ref(), &h, p_max, config.safety_threshold)
            });
        }
        let assignment = ParallelismAssignment::uniform(&flow, 4);
        tracer
            .time("backend.deploy", || sim.deploy(&flow, &assignment, 1))
            .map_err(|e| format!("deploy {}: {e}", spec.query))?;
        let mut own = spec.clone();
        own.name = format!("inproc-{}", spec.name);
        let job = own.name.clone();
        let (submitted, _) = tracer.time("serve.submit_inproc", || {
            server.handle(&Request::Submit(own))
        });
        let (recommended, _) = tracer.time("serve.first_recommend_inproc", || {
            server.handle(&Request::Recommend { job })
        });
        if !matches!(submitted, Response::Submitted { .. })
            || !matches!(recommended, Response::Recommendation(_))
        {
            return Err(format!(
                "in-process serve of {}: {recommended:?}",
                spec.name
            ));
        }
    }
    for (span, metric) in [
        ("core.assign", "core.assign_us"),
        ("core.center_distances", "core.center_distances_us"),
        ("nn.embed", "nn.embed_us"),
        ("model.fit", "model.fit_ms"),
        ("model.search", "model.search_us"),
        ("backend.deploy", "backend.deploy_us"),
        ("serve.submit_inproc", "serve.submit_us"),
        ("serve.first_recommend_inproc", "serve.first_recommend_ms"),
    ] {
        put_span(report, tracer, span, metric);
    }
    report.put(
        "model.fit_points",
        mean(&fit_points),
        "count",
        fit_points.len(),
    );
    Ok(())
}

/// `core.tune_ms`, iterations and deploys per tune from fresh-session tunes.
pub fn fresh_tunes(report: &mut Report, tracer: &mut Tracer, tunes: &[&Reference]) {
    let origin = Instant::now();
    for r in tunes {
        tracer.add("core.tune", origin, r.tune);
    }
    let n = tunes.len();
    put_span(report, tracer, "core.tune", "core.tune_ms");
    let it: Vec<f64> = tunes.iter().map(|r| f64::from(r.iterations)).collect();
    report.put("core.iterations_per_tune", mean(&it), "count", n);
    let deploys: Vec<f64> = tunes.iter().map(|r| r.deploys as f64).collect();
    report.put("backend.deploys_per_tune", mean(&deploys), "count", n);
}

/// The pre-training phases and the GED cache, from the daemon's telemetry
/// right after start-up.
pub fn setup(report: &mut Report, metrics: &Metrics) {
    for phase in PRETRAIN_PHASES {
        let h = metrics.hist(
            "streamtune_pretrain_phase_duration_nanoseconds",
            Some(("phase", phase)),
        );
        report.put(
            &format!("core.pretrain_{phase}_s"),
            h.mean() / 1e9,
            "s",
            h.count as usize,
        );
    }
    for (name, series) in [
        ("ged.cache_hits", "streamtune_ged_cache_hits_total"),
        ("ged.cache_misses", "streamtune_ged_cache_misses_total"),
    ] {
        report.put(name, metrics.value(series), "count", 1);
    }
}

/// Time `parse_request` and `render_response` on recorded wire lines.
pub fn wire(
    report: &mut Report,
    tracer: &mut Tracer,
    recorded: &[(String, String)],
) -> Result<(), String> {
    let replies: Vec<Response> = recorded
        .iter()
        .map(|(_, reply)| serde_json::from_str(reply).map_err(|e| format!("reply {reply}: {e}")))
        .collect::<Result<_, _>>()?;
    let calls = (WIRE_REPS * recorded.len()) as f64;
    let span = tracer.open("serve.parse");
    let start = Instant::now();
    for _ in 0..WIRE_REPS {
        for (request, _) in recorded {
            black_box(parse_request(black_box(request)).map_err(|e| e.to_string())?);
        }
    }
    report.put(
        "serve.parse_us",
        start.elapsed().as_secs_f64() * 1e6 / calls,
        "us",
        recorded.len(),
    );
    tracer.close(span);
    let span = tracer.open("serve.render");
    let start = Instant::now();
    for _ in 0..WIRE_REPS {
        for reply in &replies {
            black_box(render_response(black_box(reply)));
        }
    }
    report.put(
        "serve.render_us",
        start.elapsed().as_secs_f64() * 1e6 / calls,
        "us",
        replies.len(),
    );
    tracer.close(span);
    Ok(())
}

/// What the client saw of the daemon over the measured window.
pub struct Window {
    /// Daemon telemetry before the window.
    pub before: Metrics,
    /// ... after it.
    pub after: Metrics,
    /// ... after the read probe that follows it.
    pub after_reads: Metrics,
    /// Send-to-reply time of every request in the window, ms.
    pub rtt_ms: Vec<f64>,
    /// Of those, recommends of already finished jobs.
    pub reads: usize,
    /// Window length, s.
    pub secs: f64,
}

fn verb(m: &Metrics, verb: &str) -> Hist {
    m.hist(
        "streamtune_request_duration_nanoseconds",
        Some(("verb", verb)),
    )
}

fn lock_wait(m: &Metrics) -> Hist {
    m.hist("streamtune_lock_wait_nanoseconds", None)
}

/// Daemon-side figures: handler time per verb, lock wait and occupancy,
/// and transport (client round trip minus handler time and lock wait).
/// Returns the mean lock wait per request, ms.
pub fn serve_side(report: &mut Report, tracer: &Tracer, w: &Window) -> f64 {
    for verb in ["submit", "recommend", "read"] {
        put_span(
            report,
            tracer,
            &format!("serve.{verb}"),
            &format!("serve.rtt_{verb}_ms"),
        );
    }
    let submit = verb(&w.after, "submit").since(&verb(&w.before, "submit"));
    let recommend = verb(&w.after, "recommend").since(&verb(&w.before, "recommend"));
    let status = verb(&w.after, "status").since(&verb(&w.before, "status"));
    let read = verb(&w.after_reads, "recommend").since(&verb(&w.after, "recommend"));
    let waited = lock_wait(&w.after).since(&lock_wait(&w.before));
    // Reads inside the window cost what the probe's reads cost; the rest
    // of the window's recommend time is first recommends (tunes).
    let first_count = recommend.count.saturating_sub(w.reads as u64).max(1);
    let first_ns = (recommend.sum - w.reads as f64 * read.mean()).max(0.0);
    report.put(
        "serve.handler_submit_us",
        submit.mean() / 1e3,
        "us",
        submit.count as usize,
    );
    report.put(
        "serve.handler_recommend_us",
        first_ns / first_count as f64 / 1e3,
        "us",
        first_count as usize,
    );
    report.put(
        "serve.handler_read_us",
        read.mean() / 1e3,
        "us",
        read.count as usize,
    );
    let handled_ns = submit.sum + recommend.sum + status.sum;
    let n = w.rtt_ms.len();
    let transport = (w.rtt_ms.iter().sum::<f64>() - (handled_ns + waited.sum) / 1e6) / n as f64;
    report.put("serve.transport_ms", transport, "ms", n);
    let lock = lock_wait(&w.after_reads);
    report.put(
        "serve.lock_wait_p50_us",
        lock.p50 / 1e3,
        "us",
        lock.count as usize,
    );
    report.put(
        "serve.lock_wait_p99_ms",
        lock.p99 / 1e6,
        "ms",
        lock.count as usize,
    );
    report.put(
        "serve.lock_held_pct",
        handled_ns / 1e9 / w.secs * 100.0,
        "%",
        n,
    );
    waited.mean() / 1e6
}

/// Split the median `ttr` into transport, the tune itself and the rest of
/// the serve path (handler time beyond the tune, plus lock wait), as
/// shares of the median, and say how much of it they explain.
pub fn account(report: &mut Report, tune_ms: f64, lock_wait_ms: f64) {
    let get = |name: &str| report.metrics.get(name).map_or(f64::NAN, |m| m.value);
    let ttr = get("ttr_p50_ms");
    let transport = 2.0 * get("serve.transport_ms");
    let handler = get("serve.handler_submit_us") / 1e3 + get("serve.handler_recommend_us") / 1e3;
    let rest = handler - tune_ms + 2.0 * lock_wait_ms;
    let explained = transport + tune_ms + rest;
    let pct = |v: f64| v / ttr * 100.0;
    report.note(format!(
        "layer accounting of median ttr {ttr:.2} ms: serve.transport {transport:.2} ms ({:.1}%), \
         core.tune {tune_ms:.2} ms ({:.1}%), rest of serve path {rest:.2} ms ({:.1}%); \
         explained {:.1}% ({})",
        pct(transport),
        pct(tune_ms),
        pct(rest),
        pct(explained),
        if (explained / ttr - 1.0).abs() <= 0.1 {
            "within a tenth"
        } else {
            "NOT within a tenth"
        }
    ));
}

/// Recorder overhead: median of the traced operations over the untraced
/// ones (interleaved), as a percentage.
pub fn trace_overhead(report: &mut Report, traced: &[f64], untraced: &[f64]) {
    report.put(
        "telemetry.trace_overhead_pct",
        (median(traced) / median(untraced) - 1.0) * 100.0,
        "%",
        traced.len() + untraced.len(),
    );
}
