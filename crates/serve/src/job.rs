//! The job manager: admission, deterministic batch execution, ledger.
//!
//! Jobs are *independent by construction*: every job owns its backend
//! (opened from its spec by [`BackendSpec::open`]) and its own
//! `StreamTune` fine-tuning state, while the [`Pretrained`] corpus is
//! shared read-only. A job is placed when it is queued: one
//! nearest-center GED pass over its flow gives its distance to every
//! cluster center, and the nearest center is its cluster. The pass
//! depends only on the DAG's structure, so it runs once per structure
//! under each model and later jobs of that structure reuse its distances.
//! The run tunes in that cluster and copies the distances into its
//! decision record without a GED pass of its own; a model swap places
//! every job again.
//! Placement and run are both pure functions of `(pretrained, spec)`,
//! which is what makes the worker-pool fan-out deterministic: any thread
//! count ([`Parallelism`]) and any submission interleaving produce
//! bit-identical per-job outcomes. The one thing runs share besides the
//! corpus is [`WarmFits`]: each cluster's first-iteration model, a
//! deterministic function of the corpus, fitted by whichever run needs it
//! first.
//!
//! Execution is batched, not streamed: `submit` only admits and places
//! the job; the first verb that needs results (`status`, `recommend`,
//! `snapshot`) drains every queued job in one deterministic
//! [`parallel_map`] batch. `cancel` removes a job that has not been
//! drained yet.

use crate::decision::{self, DecisionRecord};
use crate::error::ServeError;
use crate::journal::{journal_file_name, JournaledBackend};
use crate::protocol::{BackendSpec, JobSpec, JobStatusLine};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use streamtune_backend::{
    ExecutionBackend, FaultPlan, RetryPolicy, RetryStats, TraceEntry, TuneError, TuneOutcome,
    TuningSession,
};
use streamtune_connect::{ingest_file, IngestConfig};
use streamtune_core::{Pretrained, StreamTune, TuneConfig, WarmFits};
use streamtune_dataflow::OperatorKind;
use streamtune_ged::{parallel_map, GedCacheStats, GraphView, Parallelism};
use streamtune_workloads::find_workload;

/// A finished job's tuning result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// Cluster whose model served the job.
    pub cluster: usize,
    /// The tuning outcome.
    pub outcome: TuneOutcome,
    /// Operator names, aligned with the outcome's assignment. Jobs with
    /// the same operator list share one allocation.
    pub op_names: Arc<[String]>,
}

/// Lifecycle state of an admitted job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobState {
    /// Admitted, not yet drained onto the worker pool.
    Queued,
    /// Ran to completion.
    Done(JobResult),
    /// The tuning run failed (message preserved).
    Failed(String),
    /// The tuning run failed on *transient* backend faults that outlasted
    /// the retry budget: the job itself is fine, its backend is sick. A
    /// re-submit (or monitor-triggered re-tune) retries from scratch;
    /// meanwhile the job stays visible instead of masquerading as broken.
    Degraded(String),
    /// Cancelled before it ran.
    Cancelled,
}

impl JobState {
    /// Short state name for `status` lines.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
            JobState::Degraded(_) => "degraded",
            JobState::Cancelled => "cancelled",
        }
    }
}

/// One admitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// The submitted spec (re-tunes replace the multiplier in place).
    pub spec: JobSpec,
    /// Cluster whose center is nearest the job's flow under the live
    /// model: chosen when the job is queued, re-chosen on a model swap.
    pub cluster: usize,
    /// Current lifecycle state.
    pub state: JobState,
    /// Times the job has been automatically re-tuned (monitor-triggered
    /// [`JobManager::resubmit`]s).
    pub retunes: u32,
    /// What the job's retry loops absorbed or gave up on, accumulated
    /// over every run (initial tune plus re-tunes); `None` while every
    /// counter is zero. Read it through [`Job::retry`].
    pub retry: Option<Box<RetryStats>>,
}

impl Job {
    /// The job's accumulated retry counters (all zero if none).
    pub fn retry(&self) -> RetryStats {
        self.retry.as_deref().copied().unwrap_or_default()
    }
}

/// Boxed retry counters, or `None` when they are all zero.
fn boxed_retry(retry: RetryStats) -> Option<Box<RetryStats>> {
    (retry != RetryStats::default()).then(|| Box::new(retry))
}

/// A job as persisted in the store's ledger (`jobs.json`). Queued jobs
/// never appear: a snapshot drains first, so every persisted state is
/// terminal. Ledgers written before re-tunes (no `retunes`) or before the
/// fault-tolerance layer (no `retry`) still restore, with zero values — a
/// daemon upgrade must never strand an operator's store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PersistedJob {
    /// The submitted spec.
    pub spec: JobSpec,
    /// Cluster assigned at admission.
    pub cluster: usize,
    /// Terminal state.
    pub state: JobState,
    /// Automatic re-tunes applied over the job's lifetime.
    #[serde(default)]
    pub retunes: u32,
    /// Accumulated retry counters over the job's lifetime.
    #[serde(default)]
    pub retry: RetryStats,
}

/// What one run of a job produced: its new terminal state, what the
/// retry loop absorbed along the way, and (for completed tuning runs)
/// the decision audit record explaining the recommendation.
struct RunReport {
    state: JobState,
    retry: RetryStats,
    decision: Option<DecisionRecord>,
}

/// Best-effort text of a panic payload (panics carry `&str` or `String`
/// in practice).
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// What admission leaves a queued job for its next drain, which consumes
/// it. Every queued job has one; a drained or cancelled job has none, so
/// per-run state lives here rather than in every ledger entry.
#[derive(Debug)]
struct Admission {
    /// Capped GED from the job's flow to every cluster center of the live
    /// model, in cluster order; [`Job::cluster`] is its argmin. Copied
    /// into the run's [`DecisionRecord`].
    distances: Vec<usize>,
    /// Journaled epochs recovered at bootstrap, replayed instead of
    /// re-tuned (empty unless the job resumes a dead process's run).
    resume: Vec<TraceEntry>,
    /// Why the run happens (one of the [`decision::trigger`] names),
    /// copied into its [`DecisionRecord`].
    trigger: &'static str,
}

impl Default for Admission {
    fn default() -> Self {
        Admission {
            distances: Vec::new(),
            resume: Vec::new(),
            trigger: decision::trigger::SUBMIT,
        }
    }
}

/// One queued job's run, gathered before the drain fans out: its ledger
/// position, spec, placement and journal (`None` when journaling is off
/// or the backend cannot resume).
struct RunInput<'a> {
    index: usize,
    spec: &'a JobSpec,
    cluster: usize,
    admission: Admission,
    journal: Option<PathBuf>,
}

/// Whether a spec's backend is journal/resume-capable: deterministic
/// in-process backends only. Replay and ingest jobs re-run from their
/// own recordings; a live Flink tune cannot be replayed into the past.
fn journalable(spec: &JobSpec) -> bool {
    matches!(spec.backend, BackendSpec::Sim | BackendSpec::Chaos(_))
}

/// What every run of one drain shares: the model and its generation, its
/// shared warm-up fits (which change no decision) and the daemon-wide run
/// policy.
#[derive(Clone, Copy)]
struct RunEnv<'a> {
    pretrained: &'a Pretrained,
    generation: u64,
    warm: &'a WarmFits,
    retry: RetryPolicy,
    chaos: Option<u64>,
}

/// Run one job to completion — a pure function of `(pretrained, spec,
/// retry)` and the job's placement. The run tunes in the cluster chosen
/// when the job was queued and copies that placement's center distances
/// into its decision record: it runs no GED pass of its own.
///
/// Never panics: a panicking backend (e.g. a
/// [`ChaosBackend`](streamtune_backend::ChaosBackend) crash
/// epoch) is caught *here*, inside the worker closure, and becomes a
/// `Failed` state — it must not unwind through [`parallel_map`], which
/// would take the whole drain (and the server lock) down with it.
fn run_job(env: RunEnv<'_>, run: &RunInput<'_>) -> RunReport {
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job_inner(env, run))) {
        Ok(report) => report,
        Err(payload) => RunReport {
            state: JobState::Failed(format!(
                "tuning run panicked: {}",
                panic_message(payload.as_ref())
            )),
            retry: RetryStats::default(),
            decision: None,
        },
    }
}

fn run_job_inner(env: RunEnv<'_>, run: &RunInput<'_>) -> RunReport {
    let RunEnv {
        pretrained,
        generation,
        warm,
        retry,
        chaos,
    } = env;
    let (spec, cluster, admission) = (run.spec, run.cluster, &run.admission);
    let failed = |message: String| RunReport {
        state: JobState::Failed(message),
        retry: RetryStats::default(),
        decision: None,
    };
    let degraded = |message: String| RunReport {
        state: JobState::Degraded(message),
        retry: RetryStats::default(),
        decision: None,
    };
    let Some(workload) = find_workload(&spec.query, spec.engine) else {
        return failed(format!("unknown workload `{}`", spec.query));
    };
    let flow = workload.at(spec.multiplier);
    // An ingested dump is a record of a deployment that already ran:
    // there is nothing to tune, so the job *admits* that deployment — its
    // recommendation is the recorded assignment — and `watch` replays the
    // dump's windows through the drift monitor.
    if let BackendSpec::Ingest(path) = &spec.backend {
        // A dump that cannot be read fails the job whatever the error:
        // re-reading a missing or malformed file does not heal it.
        let report = match ingest_file(path, &IngestConfig::default()) {
            Ok(report) => report,
            Err(e) => return failed(format!("ingest {path}: {e}")),
        };
        // The workload must match the dump's shape: the monitor later
        // polls the replayed windows through the workload's flow, and a
        // silent mismatch there would hand one job's metrics to another's
        // detector.
        let outcome = report.admitted();
        if outcome.final_assignment.len() != flow.num_ops() {
            return failed(format!(
                "ingested dump has {} operators but the job's workload has {}",
                outcome.final_assignment.len(),
                flow.num_ops()
            ));
        }
        return RunReport {
            state: JobState::Done(JobResult {
                cluster,
                outcome,
                op_names: report.operators.into(),
            }),
            retry: RetryStats::default(),
            // Admissions of a past run are not decisions the daemon made:
            // there is nothing to explain.
            decision: None,
        };
    }
    // The daemon-wide chaos seed (a fault drill) runs `sim` tuning runs on
    // transient fault injection; the storms sit inside the default retry
    // budget, so outcomes are unchanged. The spec itself stays `sim`.
    let drill;
    let backend_spec = match (&spec.backend, chaos) {
        (BackendSpec::Sim, Some(seed)) => {
            drill = BackendSpec::Chaos(Box::new(FaultPlan::transient(seed ^ spec.seed)));
            &drill
        }
        (backend, _) => backend,
    };
    let mut backend = match backend_spec.open(spec.engine, spec.seed) {
        Ok(backend) => backend,
        // A cluster that cannot be reached right now is sick, not wrong:
        // degrade so a re-submit retries once it is back.
        Err(e) if matches!(spec.backend, BackendSpec::Flink(_)) => {
            let message = format!("flink backend: {e}");
            return if e.is_transient() {
                degraded(message)
            } else {
                failed(message)
            };
        }
        Err(e) => return failed(e.to_string()),
    };
    let mut tuner = StreamTune::new(pretrained, TuneConfig::default()).with_warm_fits(warm);
    // The journal layer sits between the session and the (possibly
    // chaos-wrapped) backend: journaled epochs replay without touching
    // the live stack; fresh epochs are recorded and fsync'd before the
    // tuner acts on them, so a `kill -9` resumes from the last epoch.
    let mut journaled;
    let backend: &mut dyn ExecutionBackend = match &run.journal {
        Some(path) => {
            journaled = JournaledBackend::resume(
                backend.as_mut(),
                spec,
                path.clone(),
                admission.resume.clone(),
            );
            &mut journaled
        }
        None => backend.as_mut(),
    };
    let mut session = TuningSession::new(backend, &flow).with_retry(retry);
    let result = {
        let _span = streamtune_telemetry::child_span("serve.job", "tune");
        tuner.tune_in_cluster(&mut session, cluster)
    };
    let retry = session.retry_stats();
    // Every total the session deployed, in order; all but the last are
    // the decision record's rejected candidates.
    let trace_totals = session.parallelism_trace().to_vec();
    let (state, decision) = match result {
        Ok(outcome) => {
            let op_names: Vec<String> = outcome
                .final_assignment
                .iter()
                .map(|(op, _)| flow.op_name(op).to_string())
                .collect();
            let view = streamtune_ged::GraphView::of(&flow);
            let decision = DecisionRecord {
                job: spec.name.clone(),
                trigger: admission.trigger.to_string(),
                query: spec.query.clone(),
                multiplier: spec.multiplier,
                seed: spec.seed,
                backend: spec.backend.name().to_string(),
                dag_ops: flow.num_ops() as u64,
                dag_edges: view.edges.len() as u64,
                dag_signature: decision::signature_hash(&streamtune_dataflow::GraphSignature::of(
                    &flow,
                )),
                cluster: cluster as u64,
                clusters: pretrained.clusters.len() as u64,
                global_fallback: pretrained.global_fallback,
                center_distances: admission.distances.iter().map(|&d| d as u64).collect(),
                model_generation: generation,
                // Cache provenance is daemon-wide, not per-run: the server
                // fills these in post-drain via `annotate_cache`.
                cache_lookups: 0,
                cache_searches: 0,
                cache_filtered: 0,
                cache_structures: 0,
                op_names: op_names.clone(),
                degrees: outcome.final_assignment.as_slice().to_vec(),
                total: outcome.final_assignment.total(),
                rejected: trace_totals[..trace_totals.len().saturating_sub(1)].to_vec(),
                iterations: outcome.iterations,
                converged: outcome.converged,
                retries: retry.retries,
                ts_millis: decision::unix_millis(),
            };
            (
                JobState::Done(JobResult {
                    cluster,
                    outcome,
                    op_names: op_names.into(),
                }),
                Some(decision),
            )
        }
        // Transient faults that outlasted the retry budget mean the
        // *backend* is sick, not the job: degrade instead of failing so
        // operators (and the monitor) can tell the two apart.
        Err(TuneError::Backend(e)) if e.is_transient() => (JobState::Degraded(e.to_string()), None),
        Err(e) => (JobState::Failed(e.to_string()), None),
    };
    RunReport {
        state,
        retry,
        decision,
    }
}

/// A DAG structure as GED sees it: the node labels and directed edges of
/// its [`GraphView`].
type Structure = (Vec<OperatorKind>, Vec<(usize, usize)>);

/// The live model's placements, memoized per DAG structure. A job's
/// center distances are a function of its flow's [`Structure`] alone —
/// not of its name, rates or seed — so one GED pass per structure serves
/// every later job of it. The memo holds at most one entry per structure
/// of the named-workload catalog (61 workloads, 9 structures), the only
/// flows a job can name, so it needs no bound. It is tied to the centers
/// of the model it was filled under: replace it whenever the model
/// changes.
#[derive(Debug, Default)]
struct Placements {
    /// Capped GED to every cluster center, in cluster order, by structure.
    by_structure: HashMap<Structure, Vec<usize>>,
    /// GED passes run to fill the memo (its misses).
    computed: u64,
}

impl Placements {
    /// Place `spec` on `pretrained`, the model the memo was filled under:
    /// the job's center distances — from the memo, or from one
    /// nearest-center GED pass on the first job of its structure — and
    /// their argmin, ties going to the lower index as in
    /// [`Pretrained::assign`].
    fn place(
        &mut self,
        pretrained: &Pretrained,
        spec: &JobSpec,
    ) -> Result<(usize, Vec<usize>), ServeError> {
        let workload =
            find_workload(&spec.query, spec.engine).ok_or_else(|| ServeError::UnknownWorkload {
                query: spec.query.clone(),
            })?;
        let mut span = streamtune_telemetry::child_span("serve.job", "assign_cluster");
        let (hits, misses) = placement_counters();
        // Rates do not enter the structure: the catalog flow at 1 Wu has
        // the same view as the job's flow at its multiplier.
        let view = GraphView::of(&workload.flow);
        let distances = match self.by_structure.entry((view.labels, view.edges)) {
            Entry::Occupied(entry) => {
                span.add_field("memo", "hit");
                hits.inc();
                entry.get().clone()
            }
            Entry::Vacant(entry) => {
                span.add_field("memo", "miss");
                misses.inc();
                self.computed += 1;
                entry
                    .insert(pretrained.center_distances(&workload.flow))
                    .clone()
            }
        };
        let (cluster, _) = distances
            .iter()
            .enumerate()
            .min_by_key(|&(c, &d)| (d, c))
            .expect("a model has at least one cluster");
        span.add_field("cluster", cluster);
        Ok((cluster, distances))
    }
}

/// `streamtune_placement_total{outcome}`: job placements served by the
/// memo (`hit`) or by a GED pass (`miss`). Observational.
fn placement_counters() -> &'static (streamtune_telemetry::Counter, streamtune_telemetry::Counter) {
    static CELL: OnceLock<(streamtune_telemetry::Counter, streamtune_telemetry::Counter)> =
        OnceLock::new();
    CELL.get_or_init(|| {
        let r = streamtune_telemetry::global();
        let help = "Job placements on the live model, by outcome (hit: center distances reused for the DAG structure; miss: computed by a GED pass).";
        (
            r.counter_with("streamtune_placement_total", help, &[("outcome", "hit")]),
            r.counter_with("streamtune_placement_total", help, &[("outcome", "miss")]),
        )
    })
}

/// Job positions keyed by a 32-bit hash of the job name, so the ledger
/// stores each name once (in its spec) and an index entry takes 8 bytes.
/// Colliding names take the next free key (linear probing); positions are
/// only removed by a full [`NameIndex::rebuild`], so probe chains never
/// break.
#[derive(Debug, Default)]
struct NameIndex(HashMap<u32, u32>);

impl NameIndex {
    /// The probe start for `name`: the low half of its FNV-1a 64 hash.
    fn key(name: &str) -> u32 {
        crate::store::fnv1a64(name.as_bytes()) as u32
    }

    /// Where `name` sits in `jobs`.
    fn find(&self, jobs: &[Job], name: &str) -> Option<usize> {
        self.find_from(Self::key(name), jobs, name)
    }

    /// [`NameIndex::find`], probing from `key`.
    fn find_from(&self, mut key: u32, jobs: &[Job], name: &str) -> Option<usize> {
        loop {
            let i = *self.0.get(&key)? as usize;
            if jobs[i].spec.name == name {
                return Some(i);
            }
            key = key.wrapping_add(1);
        }
    }

    /// Record that `name` (not yet indexed) sits at `position`.
    fn insert(&mut self, name: &str, position: usize) {
        self.insert_from(Self::key(name), position);
    }

    /// [`NameIndex::insert`], probing from `key`.
    fn insert_from(&mut self, mut key: u32, position: usize) {
        let position = u32::try_from(position).expect("the ledger holds fewer than 2^32 jobs");
        while self.0.contains_key(&key) {
            key = key.wrapping_add(1);
        }
        self.0.insert(key, position);
    }

    /// Re-index `jobs` from scratch.
    fn rebuild(&mut self, jobs: &[Job]) {
        self.0.clear();
        for (i, job) in jobs.iter().enumerate() {
            self.insert(&job.spec.name, i);
        }
    }
}

/// Admits named jobs against one shared pre-trained corpus and drains
/// them in deterministic parallel batches.
#[derive(Debug)]
pub struct JobManager {
    pretrained: Pretrained,
    /// The first-iteration `M_f` of each cluster of `pretrained`, fitted
    /// lazily by the first drained job that needs it.
    warm: WarmFits,
    /// Center distances of `pretrained` per DAG structure (labels and
    /// edges), filled by admissions: finite, since jobs name workloads of
    /// the fixed catalog, and replaced on every model swap.
    placements: Placements,
    parallelism: Parallelism,
    retry: RetryPolicy,
    chaos: Option<u64>,
    jobs: Vec<Job>,
    index: NameIndex,
    /// Every distinct operator-name list of a finished job, so results
    /// share one copy per list.
    op_lists: HashSet<Arc<[String]>>,
    /// Where per-job epoch journals live (`None` disables journaling —
    /// in-memory daemons and unit tests).
    journal_dir: Option<PathBuf>,
    /// Each queued job's [`Admission`], by job name, consumed by the drain
    /// that runs the job.
    admissions: HashMap<String, Admission>,
    /// Model-store generation: 0 for the bootstrap model, bumped on every
    /// [`JobManager::swap_pretrained`]. Stamped into decision records so
    /// `explain` can tell which model served a recommendation.
    generation: u64,
    /// The decision audit trail, in completion order (restored records
    /// first, then one per completed run).
    decisions: Vec<DecisionRecord>,
    /// Records below this index already carry their GED-cache provenance
    /// ([`JobManager::annotate_cache`] high-water mark).
    annotated: usize,
}

impl JobManager {
    /// A manager over `pretrained`, draining on `parallelism` workers.
    pub fn new(pretrained: Pretrained, parallelism: Parallelism) -> Self {
        placement_counters();
        JobManager {
            warm: WarmFits::new(&pretrained, &TuneConfig::default()),
            placements: Placements::default(),
            pretrained,
            parallelism,
            retry: RetryPolicy::default(),
            chaos: None,
            jobs: Vec::new(),
            index: NameIndex::default(),
            op_lists: HashSet::new(),
            journal_dir: None,
            admissions: HashMap::new(),
            generation: 0,
            decisions: Vec::new(),
            annotated: 0,
        }
    }

    /// Replace the retry policy every drained job runs under
    /// (builder-style).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Run drains in fault-drill mode: the tuning run of every `sim` job
    /// runs on deterministic transient fault injection seeded by
    /// `chaos ^ job seed` (builder-style; `None` disables).
    pub fn with_chaos(mut self, chaos: Option<u64>) -> Self {
        self.chaos = chaos;
        self
    }

    /// Enable epoch journaling under `dir` (builder-style). Journalable
    /// jobs drained afterwards append every observed epoch to a fsync'd
    /// per-job journal, and [`JobManager::recover_journals`] can re-admit
    /// jobs a dead process left mid-tune.
    pub fn with_journal_dir(mut self, dir: Option<PathBuf>) -> Self {
        self.journal_dir = dir;
        self
    }

    /// The journal file for `spec`, if journaling is enabled and the
    /// spec's backend supports resumption.
    fn journal_path(&self, spec: &JobSpec) -> Option<PathBuf> {
        match &self.journal_dir {
            Some(dir) if journalable(spec) => Some(dir.join(journal_file_name(&spec.name))),
            _ => None,
        }
    }

    /// The shared pre-trained corpus.
    pub fn pretrained(&self) -> &Pretrained {
        &self.pretrained
    }

    /// All admitted jobs, in admission order.
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The shared first-iteration fits of the live model.
    pub fn warm_fits(&self) -> &WarmFits {
        &self.warm
    }

    /// Nearest-center GED passes admissions ran under the live model: one
    /// per distinct DAG structure placed since the model was loaded.
    pub fn placements_computed(&self) -> u64 {
        self.placements.computed
    }

    /// Look up a job by name.
    pub fn job(&self, name: &str) -> Option<&Job> {
        self.position(name).map(|i| &self.jobs[i])
    }

    /// Where job `name` sits in the ledger.
    fn position(&self, name: &str) -> Option<usize> {
        self.index.find(&self.jobs, name)
    }

    /// Place `spec` and queue it: in place of the job at `at` (a re-run,
    /// counted as a re-tune) or as a new job (its name must be free).
    /// `resume` is `None` for a fresh run, which starts a new journal —
    /// best-effort: a journal that cannot be written never blocks
    /// admission, the job runs unjournaled — and the recovered prefix for
    /// a run resumed from a dead process's journal, which is kept.
    fn enqueue(
        &mut self,
        spec: JobSpec,
        at: Option<usize>,
        trigger: &'static str,
        resume: Option<Vec<TraceEntry>>,
    ) -> Result<usize, ServeError> {
        let (cluster, distances) = self.placements.place(&self.pretrained, &spec)?;
        if let (None, Some(path)) = (&resume, self.journal_path(&spec)) {
            let _ = crate::journal::create_journal(&path, &spec);
        }
        let resume = resume.unwrap_or_default();
        self.admissions.insert(
            spec.name.clone(),
            Admission {
                distances,
                resume,
                trigger,
            },
        );
        match at {
            Some(i) => {
                let job = &mut self.jobs[i];
                job.spec = spec;
                job.cluster = cluster;
                job.state = JobState::Queued;
                job.retunes += 1;
            }
            None => {
                self.index.insert(&spec.name, self.jobs.len());
                self.jobs.push(Job {
                    spec,
                    cluster,
                    state: JobState::Queued,
                    retunes: 0,
                    retry: None,
                });
            }
        }
        Ok(cluster)
    }

    /// `state` with its operator-name list replaced by the shared copy.
    fn interned(&mut self, mut state: JobState) -> JobState {
        if let JobState::Done(result) = &mut state {
            match self.op_lists.get(&result.op_names) {
                Some(shared) => result.op_names = Arc::clone(shared),
                None => {
                    self.op_lists.insert(Arc::clone(&result.op_names));
                }
            }
        }
        state
    }

    /// Number of jobs still queued.
    pub fn queued(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.state == JobState::Queued)
            .count()
    }

    /// Admit a job: validate its workload, place it (its cluster and the
    /// distances to every center, memoized per DAG structure: only the
    /// first job of a structure runs a GED pass), start its journal and
    /// queue it. Returns the cluster.
    pub fn submit(&mut self, spec: JobSpec) -> Result<usize, ServeError> {
        if self.position(&spec.name).is_some() {
            return Err(ServeError::DuplicateJob { name: spec.name });
        }
        self.enqueue(spec, None, decision::trigger::SUBMIT, None)
    }

    /// Re-tune an existing job in place: replace its spec (typically the
    /// same job at a shifted multiplier), place it again and queue it.
    /// The run is a fresh one under a new spec — a new journal, no
    /// recovered prefix — so the next drain runs it exactly like a fresh
    /// submission, and an automatic re-tune is bit-identical to manually
    /// re-submitting at the new rate.
    pub fn resubmit(&mut self, spec: JobSpec) -> Result<usize, ServeError> {
        let i = self
            .position(&spec.name)
            .ok_or_else(|| ServeError::UnknownJob {
                name: spec.name.clone(),
            })?;
        self.enqueue(spec, Some(i), decision::trigger::RETUNE, None)
    }

    /// Swap in a new pre-trained corpus (e.g. after an incremental warm
    /// re-pretrain on a grown corpus) and place every job again under the
    /// new model, queued jobs' center distances included, so their runs
    /// tune and record under the model that serves them. Completed
    /// results are kept — they were computed under the model of their
    /// epoch — but their cluster labels now reflect the live model. The
    /// placement memo starts empty under the new centers.
    /// Returns how many jobs changed cluster.
    pub fn swap_pretrained(&mut self, pretrained: Pretrained) -> usize {
        self.warm = WarmFits::new(&pretrained, &TuneConfig::default());
        self.placements = Placements::default();
        self.pretrained = pretrained;
        self.generation += 1;
        let mut changed = 0;
        for i in 0..self.jobs.len() {
            let Ok((cluster, distances)) =
                self.placements.place(&self.pretrained, &self.jobs[i].spec)
            else {
                continue;
            };
            let job = &mut self.jobs[i];
            if let Some(admission) = self.admissions.get_mut(&job.spec.name) {
                admission.distances = distances;
            }
            if cluster != job.cluster {
                job.cluster = cluster;
                changed += 1;
            }
        }
        changed
    }

    /// Ledger rotation for long-lived daemons: keep at most `cap` jobs in
    /// *terminal* states, dropping the oldest first (queued jobs are never
    /// touched). Dropped names become reusable. Returns how many jobs were
    /// dropped.
    pub fn compact(&mut self, cap: usize) -> usize {
        let terminal = self
            .jobs
            .iter()
            .filter(|j| j.state != JobState::Queued)
            .count();
        if terminal <= cap {
            return 0;
        }
        let mut to_drop = terminal - cap;
        let mut kept = Vec::with_capacity(self.jobs.len() - to_drop);
        for job in self.jobs.drain(..) {
            if to_drop > 0 && job.state != JobState::Queued {
                to_drop -= 1;
            } else {
                kept.push(job);
            }
        }
        self.jobs = kept;
        self.index.rebuild(&self.jobs);
        // Drop operator lists no kept job shares any more.
        self.op_lists.retain(|names| Arc::strong_count(names) > 1);
        terminal - cap
    }

    /// Audit-trail rotation: keep the newest `cap` decision records. The
    /// server calls this after every drain, so the trail stays bounded on
    /// long-lived daemons whether or not they ever snapshot.
    pub(crate) fn trim_decisions(&mut self, cap: usize) {
        if self.decisions.len() > cap {
            let drop = self.decisions.len() - cap;
            self.decisions.drain(..drop);
            self.annotated = self.annotated.saturating_sub(drop);
        }
    }

    /// Cancel a still-queued job.
    pub fn cancel(&mut self, name: &str) -> Result<(), ServeError> {
        let i = self.position(name).ok_or_else(|| ServeError::UnknownJob {
            name: name.to_string(),
        })?;
        match self.jobs[i].state {
            JobState::Queued => {
                self.jobs[i].state = JobState::Cancelled;
                self.admissions.remove(name);
                Ok(())
            }
            ref other => Err(ServeError::NotQueued {
                name: name.to_string(),
                state: other.name().to_string(),
            }),
        }
    }

    /// Run every queued job on the worker pool. One batch, results
    /// stitched back in admission order; each job is a pure function of
    /// the shared corpus and its own spec, so any [`Parallelism`] and any
    /// prior submission interleaving yield identical per-job states.
    pub fn drain(&mut self) {
        // Each queued job's run inputs, consuming its admission.
        let mut runs = Vec::new();
        for (index, job) in self.jobs.iter().enumerate() {
            if job.state == JobState::Queued {
                runs.push(RunInput {
                    index,
                    spec: &job.spec,
                    cluster: job.cluster,
                    admission: self.admissions.remove(&job.spec.name).unwrap_or_default(),
                    journal: self.journal_path(&job.spec),
                });
            }
        }
        if runs.is_empty() {
            return;
        }
        let env = RunEnv {
            pretrained: &self.pretrained,
            generation: self.generation,
            warm: &self.warm,
            retry: self.retry,
            chaos: self.chaos,
        };
        // One span covers the whole batch; its context is re-attached
        // inside every worker so per-job spans nest under it even when
        // they run on pool threads.
        let mut drain_span = streamtune_telemetry::child_span("serve.job", "drain");
        drain_span.add_field("queued", runs.len());
        let drain_ctx = drain_span.ctx();
        let results = parallel_map(self.parallelism, &runs, |run| {
            let _attached = streamtune_telemetry::trace::attach(drain_ctx);
            let mut job_span =
                streamtune_telemetry::child_span("serve.job", format!("run_job:{}", run.spec.name));
            job_span.add_field("query", &run.spec.query);
            (run.index, run_job(env, run))
        });
        for (i, report) in results {
            self.jobs[i].state = self.interned(report.state);
            if report.retry != RetryStats::default() {
                self.jobs[i]
                    .retry
                    .get_or_insert_with(Box::default)
                    .absorb(&report.retry);
            }
            if let Some(decision) = report.decision {
                self.decisions.push(decision);
            }
        }
    }

    /// The decision audit trail, oldest first (restored records, then one
    /// per completed run).
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// The most recent decision recorded for `name`, if any run of that
    /// job ever completed.
    pub fn decision_for(&self, name: &str) -> Option<&DecisionRecord> {
        self.decisions.iter().rev().find(|d| d.job == name)
    }

    /// Prepend a persisted audit trail (server restart). Restored records
    /// already carry their cache provenance, so the annotation watermark
    /// skips them.
    pub fn restore_decisions(&mut self, decisions: Vec<DecisionRecord>) {
        self.decisions = decisions;
        self.annotated = self.decisions.len();
    }

    /// Fill the daemon-wide GED-cache provenance into every decision
    /// recorded since the last call. Run workers cannot see the server's
    /// cache (it lives outside the manager), so the server calls this
    /// right after each drain — the counters are the cache's state at
    /// decision-publication time.
    pub fn annotate_cache(&mut self, stats: GedCacheStats, structures: u64) {
        for d in &mut self.decisions[self.annotated..] {
            d.cache_lookups = stats.lookups;
            d.cache_searches = stats.searches;
            d.cache_filtered = stats.filtered;
            d.cache_structures = structures;
        }
        self.annotated = self.decisions.len();
    }

    /// One `status` line per job, in admission order.
    pub fn status_lines(&self) -> Vec<JobStatusLine> {
        self.jobs
            .iter()
            .map(|j| JobStatusLine {
                name: j.spec.name.clone(),
                query: j.spec.query.clone(),
                state: j.state.name().to_string(),
                cluster: j.cluster,
                retunes: j.retunes,
                detail: match &j.state {
                    JobState::Failed(message) | JobState::Degraded(message) => {
                        Some(message.clone())
                    }
                    _ => None,
                },
            })
            .collect()
    }

    /// The ledger to persist: every job in a terminal state (callers
    /// drain first, so normally all of them).
    pub fn persistable(&self) -> Vec<PersistedJob> {
        self.jobs
            .iter()
            .filter(|j| j.state != JobState::Queued)
            .map(|j| PersistedJob {
                spec: j.spec.clone(),
                cluster: j.cluster,
                state: j.state.clone(),
                retunes: j.retunes,
                retry: j.retry(),
            })
            .collect()
    }

    /// Re-admit a persisted ledger (server restart). Duplicate names in
    /// the ledger are rejected the same way `submit` rejects them.
    pub fn restore(&mut self, jobs: Vec<PersistedJob>) -> Result<(), ServeError> {
        for p in jobs {
            if self.position(&p.spec.name).is_some() {
                return Err(ServeError::DuplicateJob { name: p.spec.name });
            }
            self.index.insert(&p.spec.name, self.jobs.len());
            let state = self.interned(p.state);
            self.jobs.push(Job {
                spec: p.spec,
                cluster: p.cluster,
                state,
                retunes: p.retunes,
                retry: boxed_retry(p.retry),
            });
        }
        Ok(())
    }

    /// Scan the journal directory for epoch journals a dead process left
    /// behind and decide, per journal, whether it is resumable work or a
    /// leftover:
    ///
    /// * journal spec matches a *terminal* ledger entry → the result the
    ///   journal was building already landed in `jobs.json`; delete it;
    /// * journal spec matches a queued job → attach the prefix so the
    ///   next drain replays instead of re-tuning;
    /// * job unknown, or its ledger spec differs → the process died
    ///   between admission (or re-submit) and snapshot: re-admit under
    ///   the journaled spec with the prefix attached;
    /// * unreadable or corrupt journal → delete; nothing resumable.
    ///
    /// Deterministic: journals are processed in sorted file-name order.
    /// Returns how many jobs were queued for resumption.
    pub fn recover_journals(&mut self) -> usize {
        let Some(dir) = self.journal_dir.clone() else {
            return 0;
        };
        let Ok(entries) = std::fs::read_dir(&dir) else {
            return 0;
        };
        let mut paths: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.extension()
                    .is_some_and(|e| e == crate::journal::JOURNAL_EXT)
            })
            .collect();
        paths.sort();
        let mut resumed = 0;
        for path in paths {
            let Ok(Some(loaded)) = crate::journal::load_journal(&path) else {
                let _ = std::fs::remove_file(&path);
                continue;
            };
            match self.position(&loaded.spec.name) {
                Some(i) if self.jobs[i].spec == loaded.spec => {
                    if self.jobs[i].state == JobState::Queued {
                        self.admissions.entry(loaded.spec.name).or_default().resume =
                            loaded.entries;
                        resumed += 1;
                    } else {
                        // The run this journal recorded finished and its
                        // result is in the ledger; the journal is stale.
                        let _ = std::fs::remove_file(&path);
                    }
                }
                at => {
                    // The ledger never saw this (version of the) job: the
                    // process died after admitting it but before any
                    // snapshot. Re-admit under the journaled spec, keeping
                    // the journal and its recorded epochs.
                    let resume = Some(loaded.entries);
                    if self
                        .enqueue(loaded.spec, at, decision::trigger::RESUME, resume)
                        .is_ok()
                    {
                        resumed += 1;
                    } else {
                        let _ = std::fs::remove_file(&path);
                    }
                }
            }
        }
        resumed
    }

    /// Delete journals that no longer back a queued job. Called after a
    /// snapshot persists the ledger — at that point every terminal job's
    /// result lives in `jobs.json` and its journal is dead weight.
    /// Best-effort: a sweep that cannot delete changes nothing.
    pub fn sweep_journals(&self) {
        let Some(dir) = &self.journal_dir else {
            return;
        };
        let live: std::collections::HashSet<String> = self
            .jobs
            .iter()
            .filter(|j| j.state == JobState::Queued && journalable(&j.spec))
            .map(|j| journal_file_name(&j.spec.name))
            .collect();
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let keep = path
                .extension()
                .is_none_or(|e| e != crate::journal::JOURNAL_EXT)
                || path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| live.contains(n));
            if !keep {
                let _ = std::fs::remove_file(&path);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamtune_core::{PretrainConfig, Pretrainer};
    use streamtune_sim::SimCluster;
    use streamtune_workloads::history::HistoryGenerator;
    use streamtune_workloads::rates::Engine;

    fn small_pretrained(seed: u64) -> Pretrained {
        let cluster = SimCluster::flink_defaults(seed);
        let corpus = HistoryGenerator::new(seed).with_jobs(12).generate(&cluster);
        Pretrainer::new(PretrainConfig::fast()).run(&corpus)
    }

    fn spec(name: &str, query: &str, seed: u64) -> JobSpec {
        JobSpec {
            name: name.to_string(),
            query: query.to_string(),
            multiplier: 8.0,
            seed,
            engine: Engine::Flink,
            backend: BackendSpec::Sim,
        }
    }

    #[test]
    fn submit_validates_and_assigns_clusters() {
        let mut mgr = JobManager::new(small_pretrained(3), Parallelism::Serial);
        let cluster = mgr.submit(spec("a", "nexmark-q1", 1)).unwrap();
        assert!(cluster < mgr.pretrained().clusters.len());
        assert!(matches!(
            mgr.submit(spec("a", "nexmark-q2", 1)),
            Err(ServeError::DuplicateJob { .. })
        ));
        assert!(matches!(
            mgr.submit(spec("b", "no-such-query", 1)),
            Err(ServeError::UnknownWorkload { .. })
        ));
        assert_eq!(mgr.queued(), 1);
    }

    #[test]
    fn cancel_only_hits_queued_jobs() {
        let mut mgr = JobManager::new(small_pretrained(5), Parallelism::Serial);
        mgr.submit(spec("a", "nexmark-q1", 1)).unwrap();
        mgr.submit(spec("b", "nexmark-q2", 2)).unwrap();
        mgr.cancel("a").unwrap();
        assert!(matches!(mgr.cancel("a"), Err(ServeError::NotQueued { .. })));
        mgr.drain();
        assert!(matches!(mgr.cancel("b"), Err(ServeError::NotQueued { .. })));
        assert!(matches!(
            mgr.cancel("zz"),
            Err(ServeError::UnknownJob { .. })
        ));
        assert_eq!(mgr.job("a").unwrap().state, JobState::Cancelled);
        assert!(matches!(mgr.job("b").unwrap().state, JobState::Done(_)));
    }

    #[test]
    fn resubmit_requeues_in_place_and_matches_fresh_submission() {
        let pre = small_pretrained(9);
        let mut mgr = JobManager::new(pre.clone(), Parallelism::Serial);
        mgr.submit(spec("a", "nexmark-q1", 1)).unwrap();
        mgr.drain();
        let first = match &mgr.job("a").unwrap().state {
            JobState::Done(r) => r.clone(),
            other => panic!("expected Done, got {other:?}"),
        };

        // Re-tune at a shifted multiplier.
        let mut shifted = spec("a", "nexmark-q1", 1);
        shifted.multiplier = 12.0;
        mgr.resubmit(shifted.clone()).unwrap();
        assert_eq!(mgr.job("a").unwrap().state, JobState::Queued);
        assert_eq!(mgr.job("a").unwrap().retunes, 1);
        mgr.drain();
        let retuned = match &mgr.job("a").unwrap().state {
            JobState::Done(r) => r.clone(),
            other => panic!("expected Done, got {other:?}"),
        };
        assert_ne!(first.outcome, retuned.outcome, "the rate shift must matter");

        // Bit-identical to a manual fresh submission at the shifted rate.
        let mut manual = JobManager::new(pre, Parallelism::Serial);
        let mut fresh = shifted;
        fresh.name = "manual".to_string();
        manual.submit(fresh).unwrap();
        manual.drain();
        match &manual.job("manual").unwrap().state {
            JobState::Done(r) => assert_eq!(r.outcome, retuned.outcome),
            other => panic!("expected Done, got {other:?}"),
        }

        // Resubmitting an unknown name is an error.
        assert!(matches!(
            mgr.resubmit(spec("ghost", "nexmark-q1", 1)),
            Err(ServeError::UnknownJob { .. })
        ));
    }

    #[test]
    fn admitted_jobs_stay_small() {
        // The daemon keeps every admitted job, so per-job size is ledger
        // footprint. A large inline field in a rare variant (a fault plan
        // with its phase windows is ~280 B) would size every plain `sim`
        // job for it: keep such payloads boxed.
        assert!(
            std::mem::size_of::<JobSpec>() <= 128,
            "JobSpec is {} B",
            std::mem::size_of::<JobSpec>()
        );
        assert!(
            std::mem::size_of::<Job>() <= 192,
            "Job is {} B",
            std::mem::size_of::<Job>()
        );
    }

    #[test]
    fn name_index_probes_past_colliding_keys() {
        let job = |name: &str| Job {
            spec: spec(name, "nexmark-q1", 1),
            cluster: 0,
            state: JobState::Queued,
            retunes: 0,
            retry: None,
        };
        let jobs = vec![job("a"), job("b"), job("c")];
        // Three names whose hashes all land on the last key: the probe
        // wraps around to 0 and 1.
        let mut index = NameIndex::default();
        for i in 0..jobs.len() {
            index.insert_from(u32::MAX, i);
        }
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(index.find_from(u32::MAX, &jobs, &job.spec.name), Some(i));
        }
        assert_eq!(index.find_from(u32::MAX, &jobs, "d"), None);
        // A rebuild re-keys every job by its own hash.
        index.rebuild(&jobs);
        for (i, job) in jobs.iter().enumerate() {
            assert_eq!(index.find(&jobs, &job.spec.name), Some(i));
        }
    }

    #[test]
    fn compact_drops_oldest_terminal_jobs_and_frees_names() {
        let mut mgr = JobManager::new(small_pretrained(11), Parallelism::Serial);
        for (i, q) in ["nexmark-q1", "nexmark-q2", "nexmark-q5"]
            .iter()
            .enumerate()
        {
            mgr.submit(spec(&format!("j{i}"), q, i as u64)).unwrap();
        }
        mgr.drain();
        mgr.submit(spec("queued", "nexmark-q1", 9)).unwrap();
        assert_eq!(mgr.compact(2), 1, "three terminal, cap two");
        assert!(mgr.job("j0").is_none(), "oldest terminal job dropped");
        assert!(mgr.job("j1").is_some());
        assert!(mgr.job("queued").is_some(), "queued jobs are untouched");
        assert_eq!(mgr.compact(2), 0, "already within cap");
        // The dropped name is reusable.
        mgr.submit(spec("j0", "nexmark-q2", 3)).unwrap();
        // The index stayed consistent through the rebuild.
        assert_eq!(mgr.job("j1").unwrap().spec.name, "j1");
    }

    #[test]
    fn pre_retune_ledgers_still_restore() {
        use serde::{Deserialize, Serialize, Value};
        let job = PersistedJob {
            spec: spec("old", "nexmark-q1", 1),
            cluster: 2,
            state: JobState::Cancelled,
            retunes: 3,
            retry: RetryStats {
                transient_faults: 2,
                retries: 2,
                ..RetryStats::default()
            },
        };
        // A ledger written by a build that predates re-tunes and retry
        // accounting has neither field; it must load with zero defaults,
        // not error.
        let Value::Object(fields) = job.serialize() else {
            panic!("jobs serialize to objects")
        };
        let legacy = Value::Object(
            fields
                .into_iter()
                .filter(|(k, _)| k != "retunes" && k != "retry")
                .collect(),
        );
        let restored = PersistedJob::deserialize(&legacy).expect("legacy ledger loads");
        assert_eq!(restored.retunes, 0);
        assert_eq!(restored.retry, RetryStats::default());
        assert_eq!(restored.spec, job.spec);
        assert_eq!(restored.state, job.state);
        // The current format round-trips exactly.
        let back = PersistedJob::deserialize(&job.serialize()).expect("current format loads");
        assert_eq!(back, job);
    }

    #[test]
    fn chaos_jobs_with_transient_faults_match_clean_runs_bitwise() {
        use streamtune_backend::FaultPlan;
        let pre = small_pretrained(13);
        let mut clean = JobManager::new(pre.clone(), Parallelism::Serial);
        clean.submit(spec("j", "nexmark-q2", 4)).unwrap();
        clean.drain();
        let clean_result = match &clean.job("j").unwrap().state {
            JobState::Done(r) => r.clone(),
            other => panic!("expected Done, got {other:?}"),
        };

        let mut chaotic = JobManager::new(pre, Parallelism::Serial);
        let mut chaos_spec = spec("j", "nexmark-q2", 4);
        // Near-certain per-call faults, but the burst cap (2) sits below
        // the default retry budget (4 attempts): every deploy reaches a
        // clean call, so the fault storm must be fully absorbed.
        let mut plan = FaultPlan::transient(23);
        plan.io_rate = 0.9;
        chaos_spec.backend = BackendSpec::Chaos(Box::new(plan));
        chaotic.submit(chaos_spec).unwrap();
        chaotic.drain();
        let job = chaotic.job("j").unwrap();
        match &job.state {
            JobState::Done(r) => assert_eq!(
                r, &clean_result,
                "absorbed transient faults must not perturb the outcome"
            ),
            other => panic!("expected Done, got {other:?}"),
        }
        assert!(
            job.retry().transient_faults > 0,
            "the transient plan must have fired during the run"
        );
        assert_eq!(job.retry().exhausted, 0);
    }

    #[test]
    fn exhausted_transient_faults_degrade_not_fail() {
        use streamtune_backend::FaultPlan;
        let mut mgr = JobManager::new(small_pretrained(13), Parallelism::Serial)
            .with_retry(RetryPolicy::none());
        // Every call faults and the burst never closes: with retries
        // disabled the very first deploy surfaces a transient error.
        let mut plan = FaultPlan::quiet(1).with_max_burst(u32::MAX);
        plan.io_rate = 1.0;
        let mut sick = spec("sick", "nexmark-q1", 2);
        sick.backend = BackendSpec::Chaos(Box::new(plan));
        mgr.submit(sick).unwrap();
        mgr.drain();
        let job = mgr.job("sick").unwrap();
        match &job.state {
            JobState::Degraded(message) => {
                assert!(message.contains("I/O"), "degraded detail names the fault")
            }
            other => panic!("expected Degraded, got {other:?}"),
        }
        assert_eq!(job.state.name(), "degraded");
        assert!(job.retry().exhausted > 0);
        // Degraded is terminal: status carries the detail, cancel refuses.
        let line = &mgr.status_lines()[0];
        assert_eq!(line.state, "degraded");
        assert!(line.detail.is_some());
        assert!(matches!(
            mgr.cancel("sick"),
            Err(ServeError::NotQueued { .. })
        ));
    }

    #[test]
    fn injected_crash_fails_the_job_not_the_drain() {
        use streamtune_backend::FaultPlan;
        let mut mgr = JobManager::new(small_pretrained(13), Parallelism::Fixed(2));
        // Crash epoch 1 fires on the first deploy of the tuning session
        // (the session advances its epoch to 1 before deploying).
        let mut crasher = spec("crasher", "nexmark-q1", 2);
        crasher.backend = BackendSpec::Chaos(Box::new(FaultPlan::quiet(1).with_crash_at(1)));
        mgr.submit(crasher).unwrap();
        mgr.submit(spec("bystander", "nexmark-q2", 3)).unwrap();
        mgr.drain();
        match &mgr.job("crasher").unwrap().state {
            JobState::Failed(message) => assert!(
                message.contains("panicked") && message.contains("injected crash"),
                "panic payload must reach the failure detail: {message}"
            ),
            other => panic!("expected Failed, got {other:?}"),
        }
        assert!(
            matches!(mgr.job("bystander").unwrap().state, JobState::Done(_)),
            "a crashing job must not take the batch down"
        );
    }

    #[test]
    fn swap_pretrained_reassigns_jobs() {
        let mut mgr = JobManager::new(small_pretrained(3), Parallelism::Serial);
        mgr.submit(spec("a", "nexmark-q1", 1)).unwrap();
        mgr.drain();
        let swapped = small_pretrained(4);
        let expected = {
            let w = find_workload("nexmark-q1", Engine::Flink).unwrap();
            swapped.assign(&w.at(8.0)).0
        };
        mgr.swap_pretrained(swapped);
        assert_eq!(mgr.job("a").unwrap().cluster, expected);
        assert!(matches!(mgr.job("a").unwrap().state, JobState::Done(_)));
    }

    /// Every named workload's DAG structure, deduplicated.
    fn named_structures() -> HashSet<Structure> {
        streamtune_workloads::named_workloads(Engine::Flink)
            .iter()
            .map(|w| {
                let view = GraphView::of(&w.flow);
                (view.labels, view.edges)
            })
            .collect()
    }

    /// Submit every named workload at `multipliers` and check each job's
    /// placement against a fresh GED pass of `pre`.
    fn submit_every_named_workload(mgr: &mut JobManager, pre: &Pretrained, multipliers: &[f64]) {
        for &multiplier in multipliers {
            for w in streamtune_workloads::named_workloads(Engine::Flink) {
                let mut job = spec(&format!("{}@{multiplier}", w.name), &w.name, 1);
                job.multiplier = multiplier;
                let flow = w.at(multiplier);
                let cluster = mgr.submit(job.clone()).unwrap();
                assert_eq!(cluster, pre.assign(&flow).0, "{}", job.name);
                assert_eq!(
                    mgr.admissions[&job.name].distances,
                    pre.center_distances(&flow),
                    "{}",
                    job.name
                );
            }
        }
    }

    #[test]
    fn placement_runs_one_ged_pass_per_dag_structure() {
        let pre = small_pretrained(3);
        let mut mgr = JobManager::new(pre.clone(), Parallelism::Serial);
        for i in 0..6 {
            let mut job = spec(&format!("q5-{i}"), "nexmark-q5", i);
            job.multiplier = 1.0 + i as f64;
            mgr.submit(job).unwrap();
        }
        assert_eq!(mgr.placements_computed(), 1, "one query, one structure");
        submit_every_named_workload(&mut mgr, &pre, &[1.0, 10.0]);
        assert_eq!(
            mgr.placements_computed(),
            named_structures().len() as u64,
            "one GED pass per distinct structure"
        );
    }

    #[test]
    fn swap_pretrained_replaces_the_placement_memo() {
        let mut mgr = JobManager::new(small_pretrained(3), Parallelism::Serial);
        mgr.submit(spec("queued", "nexmark-q5", 1)).unwrap();
        submit_every_named_workload(&mut mgr, &small_pretrained(3), &[8.0]);
        let swapped = {
            let cluster = SimCluster::flink_defaults(4);
            let corpus = HistoryGenerator::new(4).with_jobs(20).generate(&cluster);
            Pretrainer::new(PretrainConfig::fast()).run(&corpus)
        };
        mgr.swap_pretrained(swapped.clone());
        // Re-placing the ledger under the new centers ran one pass per
        // structure, and later admissions are placed on the new model.
        let structures = named_structures().len() as u64;
        assert_eq!(mgr.placements_computed(), structures);
        let flow = find_workload("nexmark-q5", Engine::Flink).unwrap().at(8.0);
        assert_eq!(
            mgr.admissions["queued"].distances,
            swapped.center_distances(&flow)
        );
        submit_every_named_workload(&mut mgr, &swapped, &[2.5]);
        assert_eq!(mgr.placements_computed(), structures);
    }

    #[test]
    fn a_job_queued_across_a_model_swap_runs_on_the_new_placement() {
        let mut mgr = JobManager::new(small_pretrained(3), Parallelism::Serial);
        mgr.submit(spec("q", "nexmark-q5", 1)).unwrap();
        let flow = find_workload("nexmark-q5", Engine::Flink).unwrap().at(8.0);
        // A model pre-trained on a larger corpus has other centers.
        let swapped = {
            let cluster = SimCluster::flink_defaults(4);
            let corpus = HistoryGenerator::new(4).with_jobs(20).generate(&cluster);
            Pretrainer::new(PretrainConfig::fast()).run(&corpus)
        };
        let distances = swapped.center_distances(&flow);
        let nearest = distances.iter().min().unwrap();
        let cluster = distances.iter().position(|d| d == nearest).unwrap();
        assert_ne!(mgr.pretrained().center_distances(&flow), distances);
        assert_ne!(mgr.job("q").unwrap().cluster, cluster);
        mgr.swap_pretrained(swapped);
        mgr.drain();
        let record = mgr.decision_for("q").expect("the run was recorded");
        assert_eq!(record.model_generation, 1);
        assert_eq!(record.cluster, cluster as u64);
        let recorded: Vec<usize> = record
            .center_distances
            .iter()
            .map(|&d| d as usize)
            .collect();
        assert_eq!(recorded, distances);
        match &mgr.job("q").unwrap().state {
            JobState::Done(r) => assert_eq!(r.cluster, cluster),
            other => panic!("expected Done, got {other:?}"),
        }
    }

    fn temp_journal_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "streamtune-job-journal-{}-{name}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn interrupted_jobs_resume_bit_identical_from_the_journal() {
        let pre = small_pretrained(17);
        let dir = temp_journal_dir("resume");

        // Uninterrupted run, fully journaled.
        let mut full =
            JobManager::new(pre.clone(), Parallelism::Serial).with_journal_dir(Some(dir.clone()));
        full.submit(spec("j", "nexmark-q2", 6)).unwrap();
        full.drain();
        let uninterrupted = match &full.job("j").unwrap().state {
            JobState::Done(r) => r.clone(),
            other => panic!("expected Done, got {other:?}"),
        };
        let path = dir.join(journal_file_name("j"));
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines.len() >= 3,
            "a multi-epoch tune journals several entries, got {}",
            lines.len()
        );

        // "Kill" the process after the first journaled epoch: keep header
        // plus one entry, exactly the bytes an interrupted run leaves.
        for cut in [1, lines.len() / 2, lines.len() - 1] {
            let mut torn = lines[..=cut].join("\n");
            torn.push('\n');
            std::fs::write(&path, &torn).unwrap();

            // A fresh manager (restart): nothing in the ledger, so the
            // journal alone must re-admit and resume the job.
            let mut resumed = JobManager::new(pre.clone(), Parallelism::Serial)
                .with_journal_dir(Some(dir.clone()));
            assert_eq!(resumed.recover_journals(), 1);
            assert_eq!(resumed.job("j").unwrap().state, JobState::Queued);
            resumed.drain();
            match &resumed.job("j").unwrap().state {
                JobState::Done(r) => assert_eq!(
                    r, &uninterrupted,
                    "resume from a {cut}-line prefix must be bit-identical"
                ),
                other => panic!("expected Done, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_journals_skips_terminal_jobs_and_readmits_changed_specs() {
        let pre = small_pretrained(19);
        let dir = temp_journal_dir("recover");
        let mut mgr =
            JobManager::new(pre.clone(), Parallelism::Serial).with_journal_dir(Some(dir.clone()));
        mgr.submit(spec("done", "nexmark-q1", 1)).unwrap();
        mgr.drain();
        let ledger = mgr.persistable();
        let done_journal = dir.join(journal_file_name("done"));
        assert!(done_journal.is_file(), "drained job left its journal");

        // A second journal whose spec the ledger never saw (the process
        // died after a re-submit at a shifted multiplier).
        let mut shifted = spec("done", "nexmark-q1", 1);
        shifted.multiplier = 12.0;
        let shifted_path = dir.join("shifted.journal");
        crate::journal::create_journal(&shifted_path, &shifted).unwrap();

        // And one unreadable journal.
        let junk = dir.join("junk.journal");
        std::fs::write(&junk, "garbage\n").unwrap();

        let mut restarted =
            JobManager::new(pre, Parallelism::Serial).with_journal_dir(Some(dir.clone()));
        restarted.restore(ledger).unwrap();
        // The shifted-spec journal wins: "done" re-queues under the new
        // spec; the junk journal is deleted; nothing else resumes.
        assert_eq!(restarted.recover_journals(), 1);
        let job = restarted.job("done").unwrap();
        assert_eq!(job.state, JobState::Queued);
        assert_eq!(job.spec.multiplier, 12.0);
        assert_eq!(job.retunes, 1, "an interrupted re-submit counts");
        assert!(!junk.is_file(), "unreadable journals are deleted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recover_journals_deletes_stale_terminal_journals() {
        let pre = small_pretrained(19);
        let dir = temp_journal_dir("stale");
        let mut mgr =
            JobManager::new(pre.clone(), Parallelism::Serial).with_journal_dir(Some(dir.clone()));
        mgr.submit(spec("done", "nexmark-q1", 1)).unwrap();
        mgr.drain();
        let ledger = mgr.persistable();
        let path = dir.join(journal_file_name("done"));
        assert!(path.is_file());

        // Restart with the *same* spec terminal in the ledger: the journal
        // protected a result that already landed, so it is swept.
        let mut restarted =
            JobManager::new(pre, Parallelism::Serial).with_journal_dir(Some(dir.clone()));
        restarted.restore(ledger).unwrap();
        assert_eq!(restarted.recover_journals(), 0);
        assert!(!path.is_file(), "stale journal deleted at recovery");
        assert!(matches!(
            restarted.job("done").unwrap().state,
            JobState::Done(_)
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_journals_keeps_only_queued_jobs() {
        let dir = temp_journal_dir("sweep");
        let mut mgr = JobManager::new(small_pretrained(21), Parallelism::Serial)
            .with_journal_dir(Some(dir.clone()));
        mgr.submit(spec("ran", "nexmark-q1", 1)).unwrap();
        mgr.drain();
        mgr.submit(spec("pending", "nexmark-q2", 2)).unwrap();
        mgr.sweep_journals();
        assert!(
            !dir.join(journal_file_name("ran")).is_file(),
            "terminal job's journal swept"
        );
        assert!(
            dir.join(journal_file_name("pending")).is_file(),
            "queued job's journal kept"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn drain_failures_are_recorded_not_fatal() {
        let mut mgr = JobManager::new(small_pretrained(7), Parallelism::Serial);
        mgr.submit(spec("good", "nexmark-q1", 1)).unwrap();
        // A replay job whose trace file does not exist fails cleanly.
        let mut bad = spec("bad", "nexmark-q2", 1);
        bad.backend = BackendSpec::Replay("/nonexistent/trace.json".to_string());
        mgr.submit(bad).unwrap();
        mgr.drain();
        assert!(matches!(mgr.job("good").unwrap().state, JobState::Done(_)));
        match &mgr.job("bad").unwrap().state {
            JobState::Failed(message) => assert!(message.contains("trace")),
            other => panic!("expected Failed, got {other:?}"),
        }
        // The ledger round-trips both terminal states.
        let mut fresh = JobManager::new(small_pretrained(7), Parallelism::Serial);
        fresh.restore(mgr.persistable()).unwrap();
        assert_eq!(fresh.status_lines(), mgr.status_lines());
    }
}
