//! The rate-schedule probe of the traced run: the library in process, no
//! daemon. One long-running job per query is driven through the paper's
//! 120-change rate schedule (`rates::full_schedule(seed)`) by one
//! `StreamTune` that lives across the changes, on the simulated cluster the
//! corpus was recorded on, the deployment carrying over from one change to
//! the next as in the evaluation harness. The job's feedback memory grows,
//! so the fit's dataset and the retune time grow over the schedule. It
//! also gives the paper's Fig. 6 / 7a / Table III figures.

use std::time::Instant;

use streamtune_backend::{ExecutionBackend, Tuner, TuningSession};
use streamtune_core::{Pretrained, StreamTune, TuneConfig};
use streamtune_sim::SimCluster;
use streamtune_workloads::rates;
use streamtune_workloads::Workload;

use crate::jobs::{self, Quality};
use crate::pace::ms;
use crate::spans::Tracer;
use crate::stats::{mean, median, tail};
use crate::Report;

/// The schedule's jobs: the paper's 3-way join and one Nexmark query.
pub const QUERIES: [&str; 2] = ["pqp-3way-0", "nexmark-q3"];
/// Retunes at each end of a job's schedule compared by
/// `core.retune_first20_ms` and `core.retune_last20_ms`.
const ENDS: usize = 20;

/// Drive every query through the schedule once and report the retune
/// figures; a change that fails or gives a malformed deployment counts as
/// a failed operation.
pub fn probe(
    seed: u64,
    pretrained: &Pretrained,
    catalog: &[Workload],
    report: &mut Report,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let schedule = rates::full_schedule(seed);
    let mut quality = Quality::default();
    let (mut all, mut first, mut last, mut memory) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for query in QUERIES {
        let workload = jobs::workload(catalog, query)?;
        let mut backend = SimCluster::flink_defaults(jobs::CORPUS_SEED);
        let p_max = backend.constraints().max_parallelism;
        let mut tuner = StreamTune::new(pretrained, TuneConfig::default());
        let mut current = None;
        let mut retunes = Vec::new();
        for (k, &multiplier) in schedule.iter().enumerate() {
            let flow = workload.at(multiplier);
            let oracle = backend.oracle_assignment(&flow).map(|a| a.total());
            let mut session = match current.take() {
                Some(asg) => {
                    TuningSession::with_initial(&mut backend, &flow, asg, (k * 1000) as u64)
                }
                None => TuningSession::new(&mut backend, &flow),
            };
            let span = tracer.open("core.retune");
            let start = Instant::now();
            let result = tuner.tune(&mut session);
            retunes.push(ms(start.elapsed()));
            tracer.close(span);
            let checked = result
                .map_err(|e| format!("{query} change {k}: TuneError {e}"))
                .and_then(|out| {
                    let degrees = out.final_assignment.as_slice();
                    if degrees.len() != flow.num_ops()
                        || degrees.iter().any(|&d| d < 1 || d > p_max)
                    {
                        return Err(format!(
                            "{query} change {k}: degrees {degrees:?} for {} operators",
                            flow.num_ops()
                        ));
                    }
                    let oracle = oracle.ok_or(format!("{query} change {k}: no oracle"))?;
                    Ok((out, oracle))
                });
            if let Ok((out, oracle)) = &checked {
                quality.add(
                    out.final_assignment.total(),
                    *oracle,
                    out.reconfigurations,
                    out.backpressure_events,
                );
            }
            current = checked
                .as_ref()
                .ok()
                .map(|(out, _)| out.final_assignment.clone());
            report.attempt(checked.map(|_| ()));
        }
        let k = ENDS.min(retunes.len());
        first.extend_from_slice(&retunes[..k]);
        last.extend_from_slice(&retunes[retunes.len() - k..]);
        all.extend(retunes);
        memory.push(tuner.job_memory_len(workload.at(1.0).name()) as f64);
    }
    let n = all.len();
    report.put("core.retune_p50_ms", median(&all), "ms", n);
    report.put("core.retune_p90_ms", tail(&all, 0.90)?, "ms", n);
    report.put("core.retune_first20_ms", median(&first), "ms", first.len());
    report.put("core.retune_last20_ms", median(&last), "ms", last.len());
    report.put("core.memory_points", mean(&memory), "count", memory.len());
    let t = quality.tunes();
    report.put(
        "core.schedule_par_over_oracle",
        quality.par_over_oracle(),
        "ratio",
        t,
    );
    report.put(
        "core.schedule_reconfigs_per_tune",
        quality.reconfigs_per_tune(),
        "count",
        t,
    );
    report.put(
        "core.schedule_backpressure_per_tune",
        quality.backpressure_per_tune(),
        "count",
        t,
    );
    report.note(format!(
        "rate schedule: {} changes x {:?} in process, seed {seed}",
        schedule.len(),
        QUERIES
    ));
    Ok(())
}
