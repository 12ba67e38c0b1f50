//! Deterministic fault injection: [`ChaosBackend`] wraps any
//! [`ExecutionBackend`] and injects failures from a seeded [`FaultPlan`].
//!
//! Every fault decision is a pure function of `(plan.seed, fault domain,
//! call index or epoch)` via a splitmix64 finalizer — no RNG state, no
//! wall clock — so a failure scenario is a *reproducible test case*: the
//! same plan produces the same faults at the same points regardless of
//! thread count, retry interleaving or host.
//!
//! Two fault families with different keys:
//!
//! * **Per-call faults** (transient I/O errors, failed deploys, NaN
//!   observations) are keyed on the backend *call index* and capped at
//!   [`FaultPlan::max_burst`] consecutive injections. A retry loop
//!   re-invoking `deploy` at the same epoch therefore sees a clean call
//!   within the burst cap — and because the wrapped backend keys its
//!   measurement noise on the epoch, the post-retry observation is
//!   bit-identical to what a fault-free run would have seen.
//! * **Per-epoch faults** (stale observations, crash-at-epoch) are keyed
//!   on the deployment epoch: a stale epoch silently re-serves the last
//!   successful report (metrics dashboards lag reality), and the crash
//!   epoch panics mid-deploy to exercise lock-poisoning and
//!   `catch_unwind` recovery upstream.

use crate::error::BackendError;
use crate::observation::{EngineMode, SimulationReport};
use crate::session::{BackendConstraints, ExecutionBackend};
use serde::{Deserialize, Serialize, Value};
use streamtune_dataflow::{Dataflow, ParallelismAssignment};

/// Fault-domain salts: each fault type draws from its own deterministic
/// stream so the rates are independent.
const DOMAIN_IO: u64 = 0x10;
const DOMAIN_DEPLOY: u64 = 0x20;
const DOMAIN_NAN: u64 = 0x30;
const DOMAIN_STALE: u64 = 0x40;

/// splitmix64 finalizer over (seed, domain, index).
fn mix(seed: u64, domain: u64, index: u64) -> u64 {
    let mut z = seed
        ^ domain.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ index.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in [0, 1) from the (seed, domain, index) stream.
fn unit(seed: u64, domain: u64, index: u64) -> f64 {
    (mix(seed, domain, index) >> 11) as f64 / (1u64 << 53) as f64
}

/// The four per-decision fault probabilities a plan (or one of its phase
/// windows) applies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultRates {
    /// Probability a backend call fails with a transient I/O error.
    pub io_rate: f64,
    /// Probability a backend call fails as a mid-flight deploy failure.
    pub deploy_fail_rate: f64,
    /// Probability a backend call returns a NaN-corrupted observation.
    pub nan_rate: f64,
    /// Probability an *epoch* re-serves the previous (stale) report.
    pub stale_rate: f64,
}

impl FaultRates {
    /// No faults at all.
    pub fn none() -> Self {
        FaultRates {
            io_rate: 0.0,
            deploy_fail_rate: 0.0,
            nan_rate: 0.0,
            stale_rate: 0.0,
        }
    }

    /// A hard outage: every backend call fails with a transient I/O
    /// error. Combined with a high `max_burst` this exhausts any bounded
    /// retry budget — the "sick monitor" half of a phased drill.
    pub fn outage() -> Self {
        FaultRates {
            io_rate: 1.0,
            ..FaultRates::none()
        }
    }
}

/// An epoch window during which a plan's base rates are replaced.
///
/// Windows are half-open (`start_epoch <= epoch < end_epoch`) and keyed
/// on the *deployment epoch*, so a window over tuning epochs leaves
/// monitor polls (which start at a disjoint epoch base) untouched and
/// vice versa — the "clean tune, then sick monitor" drill is two
/// disjoint windows.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPhase {
    /// First epoch (inclusive) the override applies to.
    pub start_epoch: u64,
    /// First epoch (exclusive) past the override.
    pub end_epoch: u64,
    /// Rates in force inside the window.
    pub faults: FaultRates,
}

/// Maximum phase windows one plan can carry (keeps [`FaultPlan`] `Copy`).
pub const MAX_FAULT_PHASES: usize = 4;

/// A plan's epoch windows, held inline so [`FaultPlan`] stays `Copy`. On
/// the wire it is the list of present phases, in order.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FaultPhases([Option<FaultPhase>; MAX_FAULT_PHASES]);

impl FaultPhases {
    /// The present phases, in order.
    pub fn iter(&self) -> impl Iterator<Item = &FaultPhase> {
        self.0.iter().flatten()
    }

    /// Whether no phase window is set.
    pub fn is_empty(&self) -> bool {
        self.iter().next().is_none()
    }
}

impl Serialize for FaultPhases {
    fn serialize(&self) -> Value {
        Value::Array(self.iter().map(Serialize::serialize).collect())
    }
}

impl Deserialize for FaultPhases {
    fn deserialize(v: &Value) -> Result<Self, serde::Error> {
        let list = Vec::<FaultPhase>::deserialize(v)?;
        if list.len() > MAX_FAULT_PHASES {
            return Err(serde::Error::custom(format!(
                "fault plan carries {} phases; at most {MAX_FAULT_PHASES} supported",
                list.len()
            )));
        }
        let mut phases = FaultPhases::default();
        for (slot, phase) in phases.0.iter_mut().zip(list) {
            *slot = Some(phase);
        }
        Ok(phases)
    }
}

/// A seeded, fully deterministic fault schedule.
///
/// Rates are per-decision probabilities; `max_burst` caps *consecutive*
/// per-call faults so a bounded retry loop (attempts > `max_burst`)
/// always reaches a clean call. Up to [`MAX_FAULT_PHASES`] epoch windows
/// ([`FaultPlan::with_phase`]) override the base rates while the deploy
/// epoch is inside them. Plans serialize, so a failure scenario can ride
/// in a job spec or a test fixture; plans without phase windows carry no
/// `phases` key (as plans written before windows existed).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed of every fault stream.
    pub seed: u64,
    /// Probability a backend call fails with a transient I/O error.
    pub io_rate: f64,
    /// Probability a backend call fails as a mid-flight deploy failure.
    pub deploy_fail_rate: f64,
    /// Probability a backend call returns a NaN-corrupted observation.
    pub nan_rate: f64,
    /// Probability an *epoch* re-serves the previous (stale) report.
    pub stale_rate: f64,
    /// Maximum consecutive per-call faults before one call is let through.
    pub max_burst: u32,
    /// Panic mid-deploy at this epoch, if set (crash injection).
    pub crash_epoch: Option<u64>,
    /// Epoch windows overriding the base rates (first match wins).
    #[serde(default, skip_serializing_if = "FaultPhases::is_empty")]
    pub phases: FaultPhases,
}

impl FaultPlan {
    /// A quiet plan: no faults, but fully wired (useful as a baseline).
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            seed,
            io_rate: 0.0,
            deploy_fail_rate: 0.0,
            nan_rate: 0.0,
            stale_rate: 0.0,
            max_burst: 2,
            crash_epoch: None,
            phases: FaultPhases::default(),
        }
    }

    /// A transient-only plan: I/O errors, deploy failures and NaN
    /// observations that a retry policy with more attempts than
    /// `max_burst` absorbs completely — the determinism-under-faults
    /// invariant says tuning outcomes under this plan are bit-identical
    /// to fault-free runs.
    pub fn transient(seed: u64) -> Self {
        FaultPlan {
            io_rate: 0.2,
            deploy_fail_rate: 0.15,
            nan_rate: 0.1,
            ..FaultPlan::quiet(seed)
        }
    }

    /// Set the stale-observation rate.
    pub fn with_stale(mut self, rate: f64) -> Self {
        self.stale_rate = rate;
        self
    }

    /// Set the crash epoch.
    pub fn with_crash_at(mut self, epoch: u64) -> Self {
        self.crash_epoch = Some(epoch);
        self
    }

    /// Set the consecutive-fault cap.
    pub fn with_max_burst(mut self, max_burst: u32) -> Self {
        self.max_burst = max_burst;
        self
    }

    /// Add an epoch window `[start_epoch, end_epoch)` during which
    /// `faults` replace the base rates — the ROADMAP-named "clean tune,
    /// then sick monitor" drill is a quiet base plus an outage window
    /// over the monitor epochs.
    ///
    /// # Panics
    ///
    /// If the window is empty or more than [`MAX_FAULT_PHASES`] windows
    /// are added.
    pub fn with_phase(mut self, start_epoch: u64, end_epoch: u64, faults: FaultRates) -> Self {
        assert!(
            start_epoch < end_epoch,
            "fault phase window must be non-empty"
        );
        let slot = self
            .phases
            .0
            .iter_mut()
            .find(|slot| slot.is_none())
            .unwrap_or_else(|| panic!("a fault plan holds at most {MAX_FAULT_PHASES} phases"));
        *slot = Some(FaultPhase {
            start_epoch,
            end_epoch,
            faults,
        });
        self
    }

    /// The rates in force at `epoch`: the first phase window containing
    /// it, or the plan's base rates.
    pub fn rates_at(&self, epoch: u64) -> FaultRates {
        for phase in self.phases.iter() {
            if epoch >= phase.start_epoch && epoch < phase.end_epoch {
                return phase.faults;
            }
        }
        FaultRates {
            io_rate: self.io_rate,
            deploy_fail_rate: self.deploy_fail_rate,
            nan_rate: self.nan_rate,
            stale_rate: self.stale_rate,
        }
    }

    /// Whether this plan injects only transient (retryable) faults.
    pub fn transient_only(&self) -> bool {
        self.stale_rate == 0.0
            && self.crash_epoch.is_none()
            && self.phases.iter().all(|p| p.faults.stale_rate == 0.0)
    }
}

/// Counters of everything a [`ChaosBackend`] injected or withheld.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultCounters {
    /// Injected transient I/O errors.
    pub io_errors: u64,
    /// Injected mid-flight deploy failures.
    pub deploy_failures: u64,
    /// Injected NaN-corrupted observations.
    pub nan_observations: u64,
    /// Epochs served a stale (previous) report.
    pub stale_epochs: u64,
    /// Faults withheld because the consecutive-burst cap was reached.
    pub suppressed: u64,
}

impl FaultCounters {
    /// Total faults injected (suppressions excluded).
    pub fn injected(&self) -> u64 {
        self.io_errors + self.deploy_failures + self.nan_observations + self.stale_epochs
    }
}

/// Wraps a backend and injects faults per a [`FaultPlan`].
#[derive(Debug)]
pub struct ChaosBackend<B: ExecutionBackend> {
    inner: B,
    plan: FaultPlan,
    calls: u64,
    consecutive: u32,
    last_report: Option<SimulationReport>,
    counters: FaultCounters,
}

impl<B: ExecutionBackend> ChaosBackend<B> {
    /// Wrap `inner`, injecting faults from `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> Self {
        ChaosBackend {
            inner,
            plan,
            calls: 0,
            consecutive: 0,
            last_report: None,
            counters: FaultCounters::default(),
        }
    }

    /// The fault schedule.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// What has been injected so far.
    pub fn counters(&self) -> FaultCounters {
        self.counters
    }

    /// Borrow the wrapped backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Unwrap, discarding the chaos layer.
    pub fn into_inner(self) -> B {
        self.inner
    }

    /// Poison NaNs into an otherwise valid report (per-op rates and the
    /// job-level throughput), as a scraper racing a restarting dashboard
    /// would see.
    fn corrupt(report: &mut SimulationReport) {
        for op in &mut report.observation.per_op {
            op.processed_rate = f64::NAN;
            op.observed_per_instance_rate = f64::NAN;
        }
        report.observation.throughput_scale = f64::NAN;
    }
}

impl<B: ExecutionBackend> ExecutionBackend for ChaosBackend<B> {
    fn engine_mode(&self) -> EngineMode {
        self.inner.engine_mode()
    }

    fn constraints(&self) -> BackendConstraints {
        self.inner.constraints()
    }

    fn deploy(
        &mut self,
        flow: &Dataflow,
        assignment: &ParallelismAssignment,
        epoch: u64,
    ) -> Result<SimulationReport, BackendError> {
        if self.plan.crash_epoch == Some(epoch) {
            panic!("chaos: injected crash at epoch {epoch}");
        }
        self.calls += 1;
        let call = self.calls;
        let seed = self.plan.seed;
        let rates = self.plan.rates_at(epoch);
        let burst_open = self.consecutive < self.plan.max_burst;

        // Per-call transient faults, in a fixed decision order. The
        // *rates* come from the epoch's phase window (if any); the draws
        // stay keyed on the call index so retry attempts at one epoch see
        // independent decisions.
        if unit(seed, DOMAIN_IO, call) < rates.io_rate {
            if burst_open {
                self.consecutive += 1;
                self.counters.io_errors += 1;
                return Err(BackendError::Io {
                    context: "chaos".to_string(),
                    message: format!("injected transient I/O fault (backend call {call})"),
                });
            }
            self.counters.suppressed += 1;
        } else if unit(seed, DOMAIN_DEPLOY, call) < rates.deploy_fail_rate {
            if burst_open {
                self.consecutive += 1;
                self.counters.deploy_failures += 1;
                return Err(BackendError::DeployFailed { epoch });
            }
            self.counters.suppressed += 1;
        }

        // Stale epochs re-serve the previous successful report without
        // consulting the backend (the dashboard lags reality). Keyed on
        // the epoch so a retry loop cannot "fix" staleness — it is not an
        // error, just an old truth.
        if unit(seed, DOMAIN_STALE, epoch) < rates.stale_rate {
            if let Some(previous) = &self.last_report {
                self.counters.stale_epochs += 1;
                self.consecutive = 0;
                return Ok(previous.clone());
            }
        }

        let report = self.inner.deploy(flow, assignment, epoch)?;
        if unit(seed, DOMAIN_NAN, call) < rates.nan_rate {
            if burst_open {
                self.consecutive += 1;
                self.counters.nan_observations += 1;
                let mut corrupted = report;
                Self::corrupt(&mut corrupted);
                // Deliberately not remembered as `last_report`: stale
                // epochs replay truths, not corruptions.
                return Ok(corrupted);
            }
            self.counters.suppressed += 1;
        }
        self.consecutive = 0;
        self.last_report = Some(report.clone());
        Ok(report)
    }

    fn epoch_latencies(
        &mut self,
        flow: &Dataflow,
        assignment: &ParallelismAssignment,
        epochs: usize,
    ) -> Result<Vec<f64>, BackendError> {
        self.inner.epoch_latencies(flow, assignment, epochs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observation::Observation;

    struct StubBackend {
        deploys: u64,
    }

    fn stub_report(epoch: u64) -> SimulationReport {
        SimulationReport {
            observation: Observation {
                mode: EngineMode::Flink,
                per_op: Vec::new(),
                job_backpressure: false,
                throughput_scale: 1.0 / (epoch as f64 + 1.0),
                cpu_utilization: 0.5,
                total_parallelism: 1,
            },
            true_pa: vec![1.0],
            demand_input: vec![1.0],
            saturated: vec![false],
        }
    }

    impl ExecutionBackend for StubBackend {
        fn engine_mode(&self) -> EngineMode {
            EngineMode::Flink
        }

        fn constraints(&self) -> BackendConstraints {
            BackendConstraints {
                max_parallelism: 8,
                reconfig_wait_minutes: 10.0,
            }
        }

        fn deploy(
            &mut self,
            _flow: &Dataflow,
            _assignment: &ParallelismAssignment,
            epoch: u64,
        ) -> Result<SimulationReport, BackendError> {
            self.deploys += 1;
            Ok(stub_report(epoch))
        }

        fn epoch_latencies(
            &mut self,
            _flow: &Dataflow,
            _assignment: &ParallelismAssignment,
            _epochs: usize,
        ) -> Result<Vec<f64>, BackendError> {
            Err(BackendError::Unsupported {
                what: "latencies".to_string(),
            })
        }
    }

    fn tiny_flow() -> Dataflow {
        use streamtune_dataflow::{DataflowBuilder, Operator};
        let mut b = DataflowBuilder::new("chaos-test");
        let s = b.add_source("s", 100.0);
        let m = b.add_op("m", Operator::map(8, 8));
        b.connect_source(s, m);
        b.build().unwrap()
    }

    /// Drive `n` deploys through a chaos wrapper, recording the per-call
    /// outcome as a compact trace string.
    fn fault_trace(plan: FaultPlan, n: u64) -> (String, FaultCounters) {
        let flow = tiny_flow();
        let a = ParallelismAssignment::from_vec(vec![1]);
        let mut chaos = ChaosBackend::new(StubBackend { deploys: 0 }, plan);
        let mut trace = String::new();
        for epoch in 1..=n {
            trace.push(match chaos.deploy(&flow, &a, epoch) {
                Ok(r) if r.observation.throughput_scale.is_nan() => 'n',
                Ok(_) => '.',
                Err(BackendError::Io { .. }) => 'i',
                Err(BackendError::DeployFailed { .. }) => 'd',
                Err(_) => '?',
            });
        }
        (trace, chaos.counters())
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let plan = FaultPlan::transient(7).with_stale(0.1);
        let (a, ca) = fault_trace(plan, 64);
        let (b, cb) = fault_trace(plan, 64);
        assert_eq!(a, b, "same plan must inject the same faults");
        assert_eq!(ca, cb);
        assert!(ca.injected() > 0, "rates this high must fire in 64 calls");
    }

    #[test]
    fn different_seeds_inject_differently() {
        let (a, _) = fault_trace(FaultPlan::transient(1), 64);
        let (b, _) = fault_trace(FaultPlan::transient(2), 64);
        assert_ne!(a, b, "seeds must steer the schedule");
    }

    #[test]
    fn burst_cap_bounds_consecutive_faults() {
        let mut plan = FaultPlan::quiet(3).with_max_burst(2);
        plan.io_rate = 1.0; // every call wants to fault
        let (trace, counters) = fault_trace(plan, 9);
        assert_eq!(trace, "ii.ii.ii.", "every third call must be clean");
        assert_eq!(counters.io_errors, 6);
        assert_eq!(counters.suppressed, 3);
    }

    #[test]
    fn stale_epoch_reserves_previous_report() {
        let flow = tiny_flow();
        let a = ParallelismAssignment::from_vec(vec![1]);
        let mut plan = FaultPlan::quiet(11);
        plan.stale_rate = 1.0; // every epoch after the first is stale
        let mut chaos = ChaosBackend::new(StubBackend { deploys: 0 }, plan);
        let first = chaos.deploy(&flow, &a, 1).unwrap();
        let second = chaos.deploy(&flow, &a, 2).unwrap();
        assert_eq!(
            first.observation.throughput_scale.to_bits(),
            second.observation.throughput_scale.to_bits(),
            "stale epoch must re-serve the first report"
        );
        assert_eq!(chaos.counters().stale_epochs, 1);
        assert_eq!(chaos.inner().deploys, 1, "stale epochs skip the backend");
    }

    #[test]
    fn crash_epoch_panics() {
        let flow = tiny_flow();
        let a = ParallelismAssignment::from_vec(vec![1]);
        let plan = FaultPlan::quiet(5).with_crash_at(3);
        let mut chaos = ChaosBackend::new(StubBackend { deploys: 0 }, plan);
        assert!(chaos.deploy(&flow, &a, 1).is_ok());
        assert!(chaos.deploy(&flow, &a, 2).is_ok());
        let crash = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = chaos.deploy(&flow, &a, 3);
        }));
        assert!(crash.is_err(), "epoch 3 must panic");
    }

    #[test]
    fn plan_roundtrips_through_serde() {
        let plan = FaultPlan::transient(42).with_crash_at(17);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn phase_window_overrides_base_rates() {
        // Quiet base, hard outage during epochs [4, 7): exactly those
        // three calls fault, everything outside the window is clean.
        let plan =
            FaultPlan::quiet(13)
                .with_max_burst(u32::MAX)
                .with_phase(4, 7, FaultRates::outage());
        let (trace, counters) = fault_trace(plan, 9);
        assert_eq!(trace, "...iii...", "outage must match the window exactly");
        assert_eq!(counters.io_errors, 3);
        assert_eq!(counters.suppressed, 0);
    }

    #[test]
    fn phases_are_half_open_and_first_match_wins() {
        let calm = FaultRates::none();
        let plan = FaultPlan::transient(99)
            .with_phase(10, 20, calm)
            .with_phase(15, 30, FaultRates::outage());
        assert_eq!(plan.rates_at(9), plan.rates_at(u64::MAX), "base outside");
        assert_eq!(plan.rates_at(10), calm, "start is inclusive");
        assert_eq!(plan.rates_at(19), calm, "first window wins the overlap");
        assert_eq!(plan.rates_at(20), FaultRates::outage(), "end is exclusive");
    }

    #[test]
    fn phased_plans_ride_the_wire_and_legacy_plans_parse() {
        let plan = FaultPlan::quiet(7)
            .with_phase(100, 200, FaultRates::outage())
            .with_phase(300, 400, FaultRates::none());
        let json = serde_json::to_string(&plan).unwrap();
        assert!(json.contains("\"phases\""));
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);

        // A phase-free plan serializes without the key (the pre-phase
        // wire form), and that legacy form parses to empty phases.
        let legacy = serde_json::to_string(&FaultPlan::transient(5)).unwrap();
        assert!(!legacy.contains("phases"));
        let back: FaultPlan = serde_json::from_str(&legacy).unwrap();
        assert_eq!(back, FaultPlan::transient(5));
    }

    #[test]
    fn transient_only_accounts_for_phase_rates() {
        let base = FaultPlan::transient(3);
        assert!(base.transient_only());
        assert!(base.with_phase(5, 9, FaultRates::outage()).transient_only());
        let stale_phase = FaultRates {
            stale_rate: 0.5,
            ..FaultRates::none()
        };
        assert!(!base.with_phase(5, 9, stale_phase).transient_only());
    }
}
