//! Algorithm 2 — online parallelism tuning.
//!
//! Given a pre-trained [`Pretrained`] bundle and a tuning session, the
//! tuner (1) takes the target DAG's cluster — [`Tuner::tune`] assigns the
//! nearest center, [`StreamTune::tune_in_cluster`] takes one the caller
//! already chose, as the daemon does at admission — (2) seeds a
//! fine-tuning dataset from the cluster's warm-up points, then (3)
//! iterates: fit the monotonic model `M_f`, recommend for every operator
//! (in topological order) the smallest parallelism predicted
//! non-bottleneck, redeploy, collect Algorithm 1 feedback into the
//! dataset, and stop when the recommendation stabilizes without
//! backpressure.
//!
//! # The shared first fit
//!
//! A job the tuner has no memory of enters its first iteration with the
//! fit set `warmup[..max_warmup_points]` of its cluster, the same for
//! every such job of that cluster. [`WarmFits`] holds that fit once per
//! cluster: it is filled lazily by the first tune that needs it (a
//! [`OnceLock`], so concurrent tunes of one cluster fit it once) and
//! read by every later one. Any other iteration refits privately on a fit
//! set built just before the fit, in the same order as always — warm-up,
//! remembered memory, then each feedback point repeated
//! `feedback_weight` times. Every model fits from scratch and
//! deterministically, so a tune with the shared fit makes bit-identical
//! decisions to one without it.
//!
//! Every fit an iteration uses shows as a `fit` span under `core.tune`:
//! its `shared` field reads `hit` when the shared fit served it without
//! fitting and `miss` when the span fitted a model. The shared lookups
//! alone are counted in `streamtune_warm_fit_total{outcome}`.

use crate::label::bottleneck_labels;
use crate::pretrain::Pretrained;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;
use streamtune_backend::{TuneError, TuneOutcome, Tuner, TuningSession};
use streamtune_model::{
    recommend_min_parallelism_at, BottleneckClassifier, GbdtConfig, MonotonicGbdt, MonotonicSvm,
    NnClassifier, NnConfig, SvmConfig, TrainPoint,
};
use streamtune_nn::GraphSample;

/// Which fine-tuning model family to use (paper §IV-B, Fig. 11a ablation).
///
/// The paper's headline experiments use the SVM head; its ablation finds
/// SVM ≈ XGBoost. Our from-scratch SVM approximation calibrates worse than
/// our monotone GBDT on this substrate, so this reproduction defaults to
/// `Xgboost` (recorded in EXPERIMENTS.md); `Svm` remains available and is
/// exercised by the Fig. 11a ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelKind {
    /// Monotonic SVM (the paper's default in §V-C).
    Svm,
    /// Monotonic gradient-boosted trees (the paper's XGBoost).
    Xgboost,
    /// Unconstrained neural network (ablation baseline).
    Nn,
}

impl ModelKind {
    /// Instantiate the classifier.
    pub fn build(self) -> Box<dyn BottleneckClassifier> {
        match self {
            ModelKind::Svm => Box::new(MonotonicSvm::new(SvmConfig::default())),
            ModelKind::Xgboost => Box::new(MonotonicGbdt::new(GbdtConfig::default())),
            ModelKind::Nn => Box::new(NnClassifier::new(NnConfig::default())),
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            ModelKind::Svm => "SVM",
            ModelKind::Xgboost => "XGBoost",
            ModelKind::Nn => "NN",
        }
    }
}

/// Online tuning configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TuneConfig {
    /// Fine-tuning model family.
    pub model: ModelKind,
    /// Iteration cap (safety net; the loop normally stops on stability).
    pub max_iterations: u32,
    /// Algorithm 1 labeling thresholds for the feedback loop.
    pub label: crate::label::LabelConfig,
    /// Cap on warm-up points taken from the cluster (keeps refits cheap).
    pub max_warmup_points: usize,
    /// Replication factor for online feedback points: the target job's own
    /// observations must outweigh the coarse warm-up prior, so each ΔT
    /// point enters the dataset this many times.
    pub feedback_weight: usize,
    /// Decision threshold of the min-parallelism search: accept `p` once
    /// `P(bottleneck) < safety_threshold`. Below 0.5 = conservative margin
    /// against under-provisioning (paper Table III: zero occurrences).
    pub safety_threshold: f64,
    /// Cap on remembered per-job feedback points across tune calls.
    pub max_job_memory: usize,
    /// Enable the sound bound/probe/pad guard rails around the model's
    /// recommendation. Disabled by the Fig. 11a ablation to isolate the
    /// prediction layer itself.
    pub guards: bool,
}

impl Default for TuneConfig {
    fn default() -> Self {
        TuneConfig {
            model: ModelKind::Xgboost,
            max_iterations: 15,
            label: crate::label::LabelConfig::default(),
            max_warmup_points: 600,
            feedback_weight: 10,
            safety_threshold: 0.35,
            max_job_memory: 1500,
            guards: true,
        }
    }
}

/// The StreamTune online tuner.
///
/// Keep one instance alive per long-running job: the fine-tuned prediction
/// layer's feedback dataset persists across `tune` calls (keyed by job
/// name), so repeated source-rate changes are answered from accumulated
/// knowledge with few reconfigurations (paper §III: "runtime feedback is
/// collected to refine the prediction layer").
pub struct StreamTune<'a> {
    pretrained: &'a Pretrained,
    config: TuneConfig,
    /// Per-cluster first-iteration fits shared with other tuners, if any.
    warm: Option<&'a WarmFits>,
    jobs: std::collections::HashMap<String, JobState>,
}

/// Each cluster's `M_f` fitted on its capped warm-up set — the model the
/// first iteration of every memoryless tune fits — filled lazily and
/// shared read-only by every tuner handed it (see the module doc).
///
/// Build one per [`Pretrained`] and rebuild it whenever the bundle
/// changes: a cell is indexed by cluster, not tied to the bundle.
pub struct WarmFits {
    model: ModelKind,
    max_warmup_points: usize,
    cells: Vec<OnceLock<Box<dyn BottleneckClassifier>>>,
}

impl std::fmt::Debug for WarmFits {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WarmFits")
            .field("model", &self.model)
            .field("max_warmup_points", &self.max_warmup_points)
            .field("clusters", &self.cells.len())
            .field("filled", &self.filled())
            .finish()
    }
}

impl WarmFits {
    /// Empty cells for every cluster of `pretrained`, to be filled with
    /// `config`'s model family on `config`'s warm-up cap.
    pub fn new(pretrained: &Pretrained, config: &TuneConfig) -> Self {
        warm_fit_counters();
        WarmFits {
            model: config.model,
            max_warmup_points: config.max_warmup_points,
            cells: (0..pretrained.clusters.len())
                .map(|_| OnceLock::new())
                .collect(),
        }
    }

    /// How many clusters' fits have been computed so far.
    pub fn filled(&self) -> usize {
        self.cells.iter().filter(|c| c.get().is_some()).count()
    }

    /// Whether these fits are the ones a tuner with `config` would make.
    fn serves(&self, config: &TuneConfig) -> bool {
        self.model == config.model && self.max_warmup_points == config.max_warmup_points
    }

    /// The fit of `cluster` on `warmup` (already capped), fitting it on
    /// first use.
    fn get_or_fit(
        &self,
        cluster: usize,
        warmup: &[TrainPoint],
    ) -> Option<&dyn BottleneckClassifier> {
        let cell = self.cells.get(cluster)?;
        let mut span = streamtune_telemetry::child_span("core.tune", "fit");
        let mut fitted = false;
        let model = cell.get_or_init(|| {
            fitted = true;
            fit_model(self.model, warmup)
        });
        span.add_field("shared", if fitted { "miss" } else { "hit" });
        span.add_field("points", warmup.len());
        let (hits, misses) = warm_fit_counters();
        if fitted { misses } else { hits }.inc();
        Some(model.as_ref())
    }
}

/// A fresh `kind` model fitted on `data`.
fn fit_model(kind: ModelKind, data: &[TrainPoint]) -> Box<dyn BottleneckClassifier> {
    let mut mf = kind.build();
    mf.fit(data);
    mf
}

/// `streamtune_warm_fit_total{outcome}`: shared warm-up fit lookups that
/// found the fit ready (`hit`) or computed it (`miss`). Observational.
fn warm_fit_counters() -> &'static (streamtune_telemetry::Counter, streamtune_telemetry::Counter) {
    static CELL: OnceLock<(streamtune_telemetry::Counter, streamtune_telemetry::Counter)> =
        OnceLock::new();
    CELL.get_or_init(|| {
        let r = streamtune_telemetry::global();
        let help = "Shared warm-up M_f lookups by first tuning iterations, by outcome (hit: already fitted; miss: fitted by this lookup).";
        (
            r.counter_with("streamtune_warm_fit_total", help, &[("outcome", "hit")]),
            r.counter_with("streamtune_warm_fit_total", help, &[("outcome", "miss")]),
        )
    })
}

/// Persistent per-job knowledge across tuning processes.
#[derive(Debug, Clone, Default)]
struct JobState {
    /// Remembered `M_f` feedback points.
    memory: Vec<TrainPoint>,
    /// Per-operator certified threshold intervals, indexed by the
    /// operator's demand rate: `(rate, lower, upper)`. Thresholds are
    /// monotone in the demand rate, so bounds transfer across rates:
    /// a lower bound observed at a smaller rate and an upper bound observed
    /// at a larger rate both remain sound.
    bounds: Vec<Vec<(f64, u32, u32)>>,
}

impl JobState {
    /// Sound initial `(lower, upper, certified)` for operator `i` at
    /// demand `rate`, given all recorded intervals.
    fn initial_bounds(&self, i: usize, rate: f64, p_max: u32) -> (u32, u32, bool) {
        let mut lb = 1u32;
        let mut ub = p_max;
        let mut certified = false;
        if let Some(entries) = self.bounds.get(i) {
            for &(r, l, u) in entries {
                if r <= rate * (1.0 + 1e-9) {
                    lb = lb.max(l);
                }
                if r >= rate * (1.0 - 1e-9) {
                    ub = ub.min(u);
                    if u < p_max {
                        certified = true;
                    }
                }
            }
        }
        (lb, ub.max(lb), certified)
    }

    /// Record the interval learned for operator `i` at `rate`.
    fn record(&mut self, i: usize, rate: f64, lb: u32, ub: u32) {
        if self.bounds.len() <= i {
            self.bounds.resize(i + 1, Vec::new());
        }
        let entries = &mut self.bounds[i];
        for e in entries.iter_mut() {
            if (e.0 - rate).abs() <= rate.abs() * 1e-9 {
                e.1 = e.1.max(lb);
                e.2 = e.2.min(ub).max(e.1);
                return;
            }
        }
        entries.push((rate, lb, ub));
    }
}

impl<'a> StreamTune<'a> {
    /// New tuner over a pre-trained bundle.
    pub fn new(pretrained: &'a Pretrained, config: TuneConfig) -> Self {
        StreamTune {
            pretrained,
            config,
            warm: None,
            jobs: std::collections::HashMap::new(),
        }
    }

    /// Serve memoryless first iterations from `warm` (builder-style).
    /// `warm` must have been built for the same bundle; fits made for a
    /// different model family or warm-up cap are ignored. Decisions are
    /// identical with or without it.
    pub fn with_warm_fits(mut self, warm: &'a WarmFits) -> Self {
        self.warm = warm.serves(&self.config).then_some(warm);
        self
    }

    /// Accumulated feedback points for a job (for tests/inspection).
    pub fn job_memory_len(&self, job: &str) -> usize {
        self.jobs.get(job).map_or(0, |j| j.memory.len())
    }

    /// Parallelism-agnostic per-operator embeddings of the session's flow
    /// at its *current* source rates, with the input-rate feature appended
    /// (see [`crate::pretrain::rate_feature`]). The per-operator demand is
    /// derived from the logical query's source rates and selectivities —
    /// the same number the engine's dashboard reports as the input rate.
    fn embeddings_inner(
        &self,
        flow: &streamtune_dataflow::Dataflow,
        cluster: usize,
    ) -> Vec<Vec<f64>> {
        let dummy_p = vec![1u32; flow.num_ops()];
        let labels = vec![-1.0; flow.num_ops()];
        let sample = GraphSample::from_dataflow(flow, &self.pretrained.features, &dummy_p, &labels);
        let emb = self.pretrained.clusters[cluster]
            .encoder
            .embed_agnostic(&sample);
        let demand = streamtune_sim::rates::demand_rates(flow);
        (0..flow.num_ops())
            .map(|i| {
                let mut e = emb.row(i).to_vec();
                e.push(crate::pretrain::rate_feature(demand.input[i]));
                e
            })
            .collect()
    }
}

/// The `M_f` fit set of one iteration (Algorithm 2, lines 3 and 11):
/// the capped warm-up points, the job's remembered feedback, then this
/// tune's feedback with each point repeated `feedback_weight` times.
fn fit_set(
    warmup: &[TrainPoint],
    memory: &[TrainPoint],
    feedback: &[TrainPoint],
    feedback_weight: usize,
) -> Vec<TrainPoint> {
    let weight = feedback_weight.max(1);
    let mut dataset = Vec::with_capacity(warmup.len() + memory.len() + feedback.len() * weight);
    dataset.extend_from_slice(warmup);
    dataset.extend_from_slice(memory);
    for point in feedback {
        dataset.extend(std::iter::repeat_n(point, weight).cloned());
    }
    dataset
}

impl Tuner for StreamTune<'_> {
    fn name(&self) -> &str {
        "StreamTune"
    }

    /// Lines 1–2: the nearest cluster, then tune in it.
    fn tune(&mut self, session: &mut TuningSession<'_>) -> Result<TuneOutcome, TuneError> {
        let cluster = {
            let mut span = streamtune_telemetry::child_span("core.tune", "assign_cluster");
            let (cluster, _) = self.pretrained.assign(session.flow());
            span.add_field("cluster", cluster);
            cluster
        };
        self.tune_in_cluster(session, cluster)
    }
}

impl StreamTune<'_> {
    /// Algorithm 2 from line 3 on: tune the session's job with the encoder
    /// and warm-up set of `cluster` (an index into
    /// [`Pretrained::clusters`]). [`Tuner::tune`] is this call after a
    /// nearest-center assignment.
    ///
    /// # Panics
    ///
    /// If `cluster` is not a cluster of the tuner's bundle.
    pub fn tune_in_cluster(
        &mut self,
        session: &mut TuningSession<'_>,
        cluster: usize,
    ) -> Result<TuneOutcome, TuneError> {
        let flow = session.flow().clone();
        let flow = &flow;
        let p_max = session.max_parallelism();
        let model = &self.pretrained.clusters[cluster];
        // Line 3: warm-up dataset, plus the job's remembered feedback from
        // earlier tuning processes (the persistent fine-tuned layer). The
        // fit set is assembled only when a refit needs it (`fit_set`).
        let warmup = &model.warmup[..model.warmup.len().min(self.config.max_warmup_points)];
        let embeddings = self.embeddings_inner(session.flow(), cluster);
        let demand = streamtune_sim::rates::demand_rates(flow);
        let job_state = self.jobs.entry(flow.name().to_string()).or_default();
        let mut session_feedback: Vec<TrainPoint> = Vec::new();

        let mut current: Option<streamtune_dataflow::ParallelismAssignment> = None;
        let mut last_backpressure = true;
        let mut iterations = 0u32;
        let mut converged = false;
        let mut best_good: Option<streamtune_dataflow::ParallelismAssignment> = None;
        // Sound per-operator bounds on the bottleneck threshold, implied by
        // the monotonic system behaviour the model is constrained to: a
        // bottleneck observed at p ⇒ the threshold exceeds p (lower bound);
        // a non-bottleneck label in a backpressure-free deployment at p ⇒
        // p suffices (upper bound). The model interpolates *within* these
        // bounds, which guarantees progress even when the pre-trained prior
        // is off for an out-of-distribution job.
        // Bounds are seeded from the job's recorded intervals at other
        // rates (sound by rate-monotonicity of the thresholds).
        let n_ops = flow.num_ops();
        let mut lower = vec![1u32; n_ops];
        let mut upper = vec![p_max; n_ops];
        let mut certified = vec![false; n_ops];
        for i in 0..n_ops {
            let (lb, ub, cert) = job_state.initial_bounds(i, demand.input[i], p_max);
            lower[i] = lb;
            upper[i] = ub;
            certified[i] = cert;
        }
        // Geometric probe floor applied after a fresh bottleneck label when
        // the model still under-predicts (the fine-tuning analogue of
        // ContTune's Big step); cleared once the operator stops hurting.
        let mut probe = vec![0u32; n_ops];

        while iterations < self.config.max_iterations {
            iterations += 1;
            // Line 5: fit the monotonic model.
            let mut degrees = Vec::with_capacity(n_ops);
            let memoryless = job_state.memory.is_empty() && session_feedback.is_empty();
            if memoryless && warmup.is_empty() {
                // No knowledge at all: be conservative, start at 1.
                degrees = vec![1; n_ops];
            } else {
                let shared = match self.warm {
                    Some(warm) if memoryless => warm.get_or_fit(cluster, warmup),
                    _ => None,
                };
                let private;
                let mf = match shared {
                    Some(mf) => mf,
                    None => {
                        let dataset = fit_set(
                            warmup,
                            &job_state.memory,
                            &session_feedback,
                            self.config.feedback_weight,
                        );
                        let mut span = streamtune_telemetry::child_span("core.tune", "fit");
                        span.add_field("shared", "miss");
                        span.add_field("points", dataset.len());
                        private = fit_model(self.config.model, &dataset);
                        private.as_ref()
                    }
                };
                // Lines 6–9: recommend per operator in topological order.
                let mut by_op = vec![1u32; n_ops];
                for &op in flow.topo_order() {
                    let i = op.index();
                    let h = &embeddings[i];
                    let mut rec =
                        recommend_min_parallelism_at(mf, h, p_max, self.config.safety_threshold)
                            .unwrap_or(p_max);
                    // First visit to this operating point: add a safety pad
                    // so exploration starts from the safe side (the paper's
                    // StreamTune records zero backpressure occurrences).
                    if self.config.guards {
                        if !certified[i] {
                            rec = rec.saturating_add(2 + rec / 5).min(p_max);
                        }
                        let hi = upper[i].max(lower[i]);
                        by_op[i] = rec.max(probe[i]).clamp(lower[i], hi);
                    } else {
                        by_op[i] = rec;
                    }
                }
                degrees.extend_from_slice(&by_op);
            }
            let assignment = streamtune_dataflow::ParallelismAssignment::from_vec(degrees);

            // The paper's do-while stops when the recommendation no longer
            // differs from the current deployment.
            if current.as_ref() == Some(&assignment) {
                if !last_backpressure {
                    converged = true;
                }
                // Identical recommendation under persistent backpressure is
                // a stuck state (conflicting labels); stop rather than
                // burning monitoring intervals — the fallback below and the
                // next rate change recover.
                if !last_backpressure || iterations >= 3 {
                    break;
                }
            }

            // Line 10: redeploy and monitor.
            let obs = session.deploy(&assignment)?;
            last_backpressure = obs.job_backpressure;
            // Line 11: ΔT feedback.
            let labels = bottleneck_labels(flow, &obs, &self.config.label);
            probe = vec![0u32; n_ops];
            for (i, &l) in labels.iter().enumerate() {
                if l < 0.0 {
                    continue;
                }
                let deployed = assignment.degree(streamtune_dataflow::OpId::new(i));
                if l == 1.0 {
                    lower[i] = lower[i].max(deployed.saturating_add(1)).min(p_max);
                    // Jump toward the known-safe side: midpoint of the
                    // certified interval if one exists, else double.
                    // Conflicting noisy labels can momentarily leave
                    // lower > upper; resolve toward the safe (higher) side.
                    let hi = upper[i].max(lower[i]);
                    probe[i] = if upper[i] < p_max {
                        deployed.saturating_add(hi).div_ceil(2).clamp(lower[i], hi)
                    } else {
                        (deployed.saturating_mul(2)).min(p_max)
                    };
                } else if !obs.job_backpressure {
                    // Only backpressure-free observations certify an upper
                    // bound: under backpressure the operator saw throttled
                    // rates, so its 0-label says nothing about full load.
                    upper[i] = upper[i].min(deployed).max(lower[i]);
                }
                // Truthful feedback: a 0-label during backpressure only
                // certifies the throttled rate the operator actually saw,
                // so pair it with that rate's embedding, not full demand.
                let point = if l == 0.0 && obs.job_backpressure {
                    let mut e = embeddings[i].clone();
                    let throttled = obs.per_op[i].processed_rate;
                    *e.last_mut().expect("rate feature present") =
                        crate::pretrain::rate_feature(throttled);
                    TrainPoint {
                        embedding: e,
                        parallelism: deployed,
                        bottleneck: false,
                    }
                } else {
                    TrainPoint {
                        embedding: embeddings[i].clone(),
                        parallelism: deployed,
                        bottleneck: l == 1.0,
                    }
                };
                session_feedback.push(point);
            }
            if !obs.job_backpressure {
                best_good = Some(assignment.clone());
                // Paper: the iterative process ends once no job-level
                // backpressure is observed for the streaming job.
                current = Some(assignment);
                converged = true;
                break;
            }
            current = Some(assignment);
        }

        // Safety net: never leave the job backpressured. If the loop ended
        // on a backpressured deployment, fall back to the last certified
        // backpressure-free assignment (re-deploying it).
        let mut final_assignment = current
            .or_else(|| session.current_assignment().cloned())
            .unwrap_or_else(|| streamtune_dataflow::ParallelismAssignment::uniform(flow, 1));
        if last_backpressure {
            if let Some(good) = best_good {
                session.deploy(&good)?;
                final_assignment = good;
            }
        }
        // Persist this session's feedback and certified intervals for the
        // job's next rate change.
        let job_state = self.jobs.entry(flow.name().to_string()).or_default();
        job_state.memory.extend(session_feedback);
        let cap = self.config.max_job_memory;
        if job_state.memory.len() > cap {
            let excess = job_state.memory.len() - cap;
            job_state.memory.drain(..excess);
        }
        for i in 0..n_ops {
            // Upper bounds are only certified by a backpressure-free final
            // deployment; record what this session actually established.
            let ub = if last_backpressure { p_max } else { upper[i] };
            job_state.record(i, demand.input[i], lower[i], ub);
        }
        Ok(session.outcome(final_assignment, iterations, converged))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pretrain::{PretrainConfig, Pretrainer};
    use streamtune_sim::SimCluster;
    use streamtune_workloads::history::HistoryGenerator;
    use streamtune_workloads::{nexmark, rates::Engine};

    fn pretrained_on(cluster: &SimCluster, seed: u64, jobs: usize) -> Pretrained {
        let corpus = HistoryGenerator::new(seed)
            .with_jobs(jobs)
            .with_runs_per_job(3)
            .generate(cluster);
        Pretrainer::new(PretrainConfig::fast()).run(&corpus)
    }

    #[test]
    fn tunes_q1_to_backpressure_free() {
        let mut cluster = SimCluster::flink_defaults(21);
        let pre = pretrained_on(&cluster, 21, 14);
        let mut w = nexmark::q1(Engine::Flink);
        w.set_multiplier(10.0);
        let mut session = TuningSession::new(&mut cluster, &w.flow);
        let mut tuner = StreamTune::new(&pre, TuneConfig::default());
        let outcome = tuner.tune(&mut session).expect("tuning succeeds");
        // The final deployment must sustain the sources.
        let rep = cluster.simulate(&w.flow, &outcome.final_assignment);
        assert!(
            rep.backpressure_free(),
            "final assignment still backpressured: {:?}",
            outcome.final_assignment
        );
        assert!(outcome.iterations >= 1);
    }

    #[test]
    fn tune_is_tune_in_cluster_at_the_nearest_center() {
        let cluster = SimCluster::flink_defaults(21);
        let pre = pretrained_on(&cluster, 21, 14);
        let mut w = nexmark::q1(Engine::Flink);
        w.set_multiplier(10.0);
        let run = |placed: Option<usize>| {
            let mut backend = cluster.clone();
            let mut session = TuningSession::new(&mut backend, &w.flow);
            let mut tuner = StreamTune::new(&pre, TuneConfig::default());
            match placed {
                Some(c) => tuner.tune_in_cluster(&mut session, c),
                None => tuner.tune(&mut session),
            }
            .expect("tuning succeeds")
        };
        assert_eq!(run(Some(pre.assign(&w.flow).0)), run(None));
    }

    #[test]
    fn final_parallelism_not_wildly_overprovisioned() {
        let mut cluster = SimCluster::flink_defaults(23);
        let pre = pretrained_on(&cluster, 23, 14);
        let mut w = nexmark::q2(Engine::Flink);
        w.set_multiplier(10.0);
        let oracle = cluster.oracle_assignment(&w.flow).expect("sustainable");
        let mut session = TuningSession::new(&mut cluster, &w.flow);
        let mut tuner = StreamTune::new(&pre, TuneConfig::default());
        let outcome = tuner.tune(&mut session).expect("tuning succeeds");
        let rep = cluster.simulate(&w.flow, &outcome.final_assignment);
        assert!(rep.backpressure_free());
        assert!(
            outcome.final_assignment.total() <= oracle.total() * 4,
            "StreamTune {} vs oracle {}",
            outcome.final_assignment.total(),
            oracle.total()
        );
    }

    #[test]
    fn gbdt_variant_also_converges() {
        let mut cluster = SimCluster::flink_defaults(29);
        let pre = pretrained_on(&cluster, 29, 12);
        let mut w = nexmark::q1(Engine::Flink);
        w.set_multiplier(5.0);
        let mut session = TuningSession::new(&mut cluster, &w.flow);
        let mut tuner = StreamTune::new(
            &pre,
            TuneConfig {
                model: ModelKind::Xgboost,
                ..Default::default()
            },
        );
        let outcome = tuner.tune(&mut session).expect("tuning succeeds");
        let rep = cluster.simulate(&w.flow, &outcome.final_assignment);
        assert!(rep.backpressure_free());
    }

    #[test]
    fn iteration_cap_respected() {
        let mut cluster = SimCluster::flink_defaults(31);
        let pre = pretrained_on(&cluster, 31, 10);
        let mut w = nexmark::q5(Engine::Flink);
        w.set_multiplier(10.0);
        let mut session = TuningSession::new(&mut cluster, &w.flow);
        let mut tuner = StreamTune::new(
            &pre,
            TuneConfig {
                max_iterations: 2,
                ..Default::default()
            },
        );
        let outcome = tuner.tune(&mut session).expect("tuning succeeds");
        assert!(outcome.iterations <= 2);
        // +1 allows the best-known-good fallback redeploy at loop exit.
        assert!(outcome.reconfigurations <= 3);
    }

    /// Tune `flow_at(m)` for each multiplier in turn on one long-lived
    /// tuner (so later tunes run with the job's memory).
    fn tune_schedule(
        pre: &Pretrained,
        warm: Option<&WarmFits>,
        config: TuneConfig,
        multipliers: &[f64],
    ) -> Vec<TuneOutcome> {
        let mut tuner = StreamTune::new(pre, config);
        if let Some(warm) = warm {
            tuner = tuner.with_warm_fits(warm);
        }
        let mut cluster = SimCluster::flink_defaults(37);
        multipliers
            .iter()
            .map(|&m| {
                let mut w = nexmark::q5(Engine::Flink);
                w.set_multiplier(m);
                let mut session = TuningSession::new(&mut cluster, &w.flow);
                tuner.tune(&mut session).expect("tuning succeeds")
            })
            .collect()
    }

    #[test]
    fn shared_warm_fit_matches_fresh_fits_with_and_without_memory() {
        let cluster = SimCluster::flink_defaults(37);
        let pre = pretrained_on(&cluster, 37, 12);
        let config = TuneConfig::default();
        let warm = WarmFits::new(&pre, &config);
        // The first tune is memoryless (served by the shared fit); the
        // later ones run with the job's memory and refit privately.
        let schedule = [4.0, 9.0, 6.0];
        let fresh = tune_schedule(&pre, None, config.clone(), &schedule);
        let shared = tune_schedule(&pre, Some(&warm), config.clone(), &schedule);
        assert_eq!(shared, fresh);
        assert_eq!(warm.filled(), 1, "only the memoryless tune fills a fit");
        // A second job of the same cluster reads the now-filled fit.
        let again = tune_schedule(&pre, Some(&warm), config, &schedule);
        assert_eq!(again, fresh);
        assert_eq!(warm.filled(), 1);
    }

    #[test]
    fn warm_fits_for_another_model_family_are_ignored() {
        let cluster = SimCluster::flink_defaults(41);
        let pre = pretrained_on(&cluster, 41, 10);
        let warm = WarmFits::new(&pre, &TuneConfig::default());
        let svm = TuneConfig {
            model: ModelKind::Svm,
            ..TuneConfig::default()
        };
        let fresh = tune_schedule(&pre, None, svm.clone(), &[7.0]);
        let shared = tune_schedule(&pre, Some(&warm), svm, &[7.0]);
        assert_eq!(shared, fresh);
        assert_eq!(warm.filled(), 0, "an SVM tuner never reads GBDT fits");
    }

    #[test]
    fn model_kind_names() {
        assert_eq!(ModelKind::Svm.name(), "SVM");
        assert_eq!(ModelKind::Xgboost.name(), "XGBoost");
        assert_eq!(ModelKind::Nn.name(), "NN");
    }
}
