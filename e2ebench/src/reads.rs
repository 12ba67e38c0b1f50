//! `reads_under_tuning`: two connections, open loop. A submitter sends
//! `submit` + `recommend` for fresh jobs at a fixed job rate while a
//! reader sends `recommend` (and about one `status` in ten) for jobs
//! finished during warm-up at a fixed read rate. A read does almost no
//! work, so its latency is transport plus waiting for the server lock
//! behind the submitter's tunes. Every latency is timed from its due time.

use std::time::{Duration, Instant};

use streamtune_serve::{Recommendation, Request, Response};

use crate::daemon::{Conn, Metrics};
use crate::jobs::{self, Quality};
use crate::pace::{self, ms, Pacer};
use crate::serving::{self, JobRun, Traced, Verifier};
use crate::spans::Tracer;
use crate::{layers, stats, Ctx, Report};

/// Jobs finished before the window opens; the reader reads these.
pub const WARM_JOBS: u64 = 10;
/// Fresh jobs per second: tunes then hold the server lock for roughly a
/// fifth to a third of the time.
pub const JOB_RATE: f64 = 5.0;
/// Reads per second: sustainable even when every reply stalls ~44 ms.
pub const READ_RATE: f64 = 10.0;
/// Fresh jobs at least, in whole blocks of the job stream (one job per
/// named workload), so `ttr_p90_ms` has ten samples beyond it. The quality
/// figures are taken over these blocks.
const MIN_BLOCKS: usize = 2;
/// One read in this many is a `status`.
const STATUS_EVERY: u64 = 10;

/// One open-loop fresh job.
struct OpenJob {
    run: JobRun,
    /// Due time to `recommend` reply, ms.
    ttr_ms: f64,
    late_ms: f64,
}

/// One open-loop read.
struct Read {
    /// Due time to reply, ms.
    latency_ms: f64,
    /// Send to reply, ms.
    rtt_ms: f64,
    late_ms: f64,
    /// `None` for a `status`.
    reply: Option<Result<Recommendation, String>>,
    status_ok: Result<(), String>,
}

fn read(conn: &mut Conn, k: u64, seed: u64, finished: &[String], tracer: &mut Tracer) -> Read {
    let mut out = Read {
        latency_ms: 0.0,
        rtt_ms: 0.0,
        late_ms: 0.0,
        reply: None,
        status_ok: Ok(()),
    };
    if k % STATUS_EVERY == STATUS_EVERY - 1 {
        let span = tracer.open("serve.status");
        let start = Instant::now();
        out.status_ok = match conn.call(&Request::Status) {
            Ok(Response::Status(s)) if s.jobs.len() >= finished.len() => Ok(()),
            Ok(other) => Err(format!("status: unexpected reply {other:?}")),
            Err(e) => Err(format!("status: {e}")),
        };
        out.rtt_ms = ms(start.elapsed());
        tracer.close(span);
    } else {
        let job = &finished[(jobs::mix(seed ^ k) % finished.len() as u64) as usize];
        out.reply = Some(serving::recommend(
            conn,
            job,
            tracer,
            "serve.read",
            &mut out.rtt_ms,
        ));
    }
    out
}

/// Run the workload.
pub fn run(ctx: &Ctx, tracer: &mut Tracer) -> Result<Report, String> {
    let mut report = Report::default();
    let catalog = jobs::catalog();
    let daemon = serving::start_daemon(ctx, &mut report)?;
    let mut reader = Conn::connect(&daemon.addr)?;
    let mut submitter = Conn::connect(&daemon.addr)?;
    let boot = ctx.trace.then(|| Metrics::fetch(&mut reader)).transpose()?;

    let mut quiet = Tracer::new(false);
    let warm: Vec<JobRun> = (0..WARM_JOBS)
        .map(|i| {
            serving::submit_recommend(
                &mut submitter,
                &jobs::job(ctx.seed, "w", i, &catalog),
                &mut quiet,
            )
        })
        .collect();
    let finished: Vec<String> = warm
        .iter()
        .filter(|r| r.result.is_ok())
        .map(|r| r.spec.name.clone())
        .collect();
    if finished.is_empty() {
        return Err("no warm-up job finished".to_string());
    }
    let before = ctx.trace.then(|| Metrics::fetch(&mut reader)).transpose()?;
    if ctx.trace {
        reader.recorded = Some(Vec::new());
        submitter.recorded = Some(Vec::new());
    }

    // Long enough for MIN_BLOCKS of fresh jobs, whatever `--seconds` says.
    let secs = ctx
        .seconds
        .max((MIN_BLOCKS * catalog.len()) as f64 / JOB_RATE);
    let start = Instant::now() + Duration::from_millis(20);
    let job_pacer = Pacer::new(start, JOB_RATE, secs);
    let read_pacer = Pacer::new(start, READ_RATE, secs);
    let mut sub_tracer = tracer.fork();
    let (opens, reads) = std::thread::scope(|scope| {
        let catalog = &catalog;
        let submitter = &mut submitter;
        let sub_tracer = &mut sub_tracer;
        let handle = scope.spawn(move || {
            (0..job_pacer.count())
                .map(|k| {
                    let (due, late_ms) = job_pacer.wait(k);
                    sub_tracer.set_on(ctx.trace && k % 2 == 0);
                    let spec = jobs::job(ctx.seed, "s", k, catalog);
                    let run = serving::submit_recommend(submitter, &spec, sub_tracer);
                    OpenJob {
                        run,
                        ttr_ms: ms(due.elapsed()),
                        late_ms,
                    }
                })
                .collect::<Vec<_>>()
        });
        let reads: Vec<Read> = (0..read_pacer.count())
            .map(|k| {
                let (due, late_ms) = read_pacer.wait(k);
                tracer.set_on(ctx.trace && k % 2 == 0);
                let mut r = read(&mut reader, k, ctx.seed, &finished, tracer);
                r.latency_ms = ms(due.elapsed());
                r.late_ms = late_ms;
                r
            })
            .collect();
        (handle.join().expect("submitter thread"), reads)
    });
    let window_s = start.elapsed().as_secs_f64();
    tracer.set_on(ctx.trace);
    sub_tracer.set_on(ctx.trace);
    tracer.merge(sub_tracer);

    let mut probe = Vec::new();
    let mut traced = None;
    if let (Some(boot), Some(before)) = (boot, before) {
        let mut recorded = submitter.recorded.take().unwrap_or_default();
        recorded.extend(reader.recorded.take().unwrap_or_default());
        let after = Metrics::fetch(&mut reader)?;
        probe = serving::read_probe(&mut reader, &finished, tracer);
        let after_reads = Metrics::fetch(&mut reader)?;
        let mut rtt_ms: Vec<f64> = opens
            .iter()
            .flat_map(|o| [o.run.submit_ms, o.run.recommend_ms])
            .collect();
        rtt_ms.extend(reads.iter().map(|r| r.rtt_ms));
        let window = layers::Window {
            before,
            after,
            after_reads,
            rtt_ms,
            reads: reads.iter().filter(|r| r.reply.is_some()).count(),
            secs: window_s,
        };
        traced = Some(Traced {
            boot,
            window,
            recorded,
        });
    }
    report.put("peak_rss_mb", daemon.peak_rss_mb()?, "MB", 1);
    drop((reader, submitter));
    daemon.shutdown()?;

    let specs: Vec<_> = warm
        .iter()
        .map(|r| r.spec.clone())
        .chain(opens.iter().map(|o| o.run.spec.clone()))
        .collect();
    let mut verifier = Verifier::new(&catalog, &specs)?;
    for w in &warm {
        report.attempted += 1;
        verifier.check(&w.result, &mut report);
    }
    let mut quality = Quality::default();
    let mut ttr = Vec::new();
    for (k, o) in opens.iter().enumerate() {
        report.attempted += 1;
        if verifier.check(&o.run.result, &mut report) {
            ttr.push(o.ttr_ms);
            if k < MIN_BLOCKS * catalog.len() {
                verifier.add_quality(o.run.result.as_ref().expect("checked"), &mut quality);
            }
        }
    }
    let mut read_ms = Vec::new();
    for r in &reads {
        let ok = match &r.reply {
            Some(reply) => verifier.check(reply, &mut report),
            None => report.attempt(r.status_ok.clone()),
        };
        if ok {
            read_ms.push(r.latency_ms);
        }
    }
    for (_, reply) in &probe {
        verifier.check(reply, &mut report);
    }
    report.put("ttr_p50_ms", stats::median(&ttr), "ms", ttr.len());
    report.put("ttr_p90_ms", stats::tail(&ttr, 0.90)?, "ms", ttr.len());
    report.put("read_p50_ms", stats::median(&read_ms), "ms", read_ms.len());
    report.put(
        "read_p95_ms",
        stats::tail(&read_ms, 0.95)?,
        "ms",
        read_ms.len(),
    );
    serving::put_quality(&mut report, &quality);

    // Open-loop accounting: how late requests went out, and whether the
    // generator kept up (lateness must not grow over the run).
    let job_late: Vec<f64> = opens.iter().map(|o| o.late_ms).collect();
    let read_late: Vec<f64> = reads.iter().map(|r| r.late_ms).collect();
    let all_late: Vec<f64> = job_late.iter().chain(&read_late).copied().collect();
    if let Some((q, v)) = stats::capped_tail(&all_late, 0.99) {
        report.note(format!(
            "gen_late_p99_ms {v:.3} ms (p{:.1} of {} sends: the highest percentile with {} beyond it)",
            q * 100.0,
            all_late.len(),
            stats::MIN_BEYOND
        ));
    }
    for (what, late) in [("job", &job_late), ("read", &read_late)] {
        if pace::lateness_grew(late) {
            report.invalid = Some(format!(
                "{what} lateness grew by more than {} ms from the first quarter to the last",
                pace::LATENESS_GROWTH_MS
            ));
        }
    }
    report.note(format!(
        "{} jobs at {JOB_RATE}/s and {} reads at {READ_RATE}/s over {window_s:.1} s",
        opens.len(),
        reads.len()
    ));
    if let Some(traced) = traced {
        serving::daemon_layers(
            ctx,
            &mut report,
            tracer,
            &traced,
            &mut verifier,
            &catalog,
            &specs,
            &ttr,
        )?;
    }
    Ok(report)
}
