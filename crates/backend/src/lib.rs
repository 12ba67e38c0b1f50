//! Backend-agnostic execution API for parallelism tuning.
//!
//! The paper tunes *real engines* (Apache Flink and Timely Dataflow); this
//! workspace historically tuned only the simulator, with every tuner
//! hard-wired to `SimCluster`. This crate breaks that coupling: an
//! execution backend — simulator, trace replayer, or (eventually) a real
//! engine connector — is anything implementing [`ExecutionBackend`], and
//! tuners drive deployments only through a [`TuningSession`] over
//! `&mut dyn ExecutionBackend`.
//!
//! The crate owns everything a tuner can see or produce:
//!
//! * the observation model ([`Observation`], [`OpObservation`],
//!   [`SimulationReport`], [`EngineMode`]) — moved here from the simulator
//!   so that observations are engine-neutral dashboard signals, not
//!   simulator internals;
//! * the [`ExecutionBackend`] trait and its [`BackendConstraints`];
//! * [`TuningSession`] bookkeeping (reconfiguration counting, stabilization
//!   time, CPU traces) and the [`Tuner`] trait with [`TuneOutcome`];
//! * error types ([`BackendError`], [`TuneError`]) so deployment failures
//!   surface as `Result`s instead of panics;
//! * two first-class backends that need no simulator:
//!   [`TraceRecorder`], which wraps any backend and captures a
//!   serializable [`TraceLog`], and [`ReplayBackend`], which serves
//!   observations back out of such a log — canned production metrics,
//!   no engine in the loop;
//! * the fault-tolerance layer: [`ChaosBackend`] injects deterministic,
//!   seeded faults from a [`FaultPlan`] (transient I/O errors, failed
//!   deploys, NaN/stale observations, crash-at-epoch), errors classify
//!   as transient vs permanent ([`FaultClass`]), and sessions absorb
//!   transient faults through a [`RetryPolicy`] with deterministic
//!   virtual backoff — without perturbing the tuning outcome.

pub mod chaos;
pub mod error;
pub mod observation;
pub mod retry;
pub mod session;
pub mod trace;

pub use chaos::{
    ChaosBackend, FaultCounters, FaultPhase, FaultPhases, FaultPlan, FaultRates, MAX_FAULT_PHASES,
};
pub use error::{BackendError, FaultClass, TuneError};
pub use observation::{
    EngineMode, Observation, OpObservation, SimulationReport, BACKPRESSURE_VISIBILITY,
};
pub use retry::{RetryPolicy, RetryStats};
pub use session::{BackendConstraints, ExecutionBackend, TuneOutcome, Tuner, TuningSession};
pub use trace::{ReplayBackend, TraceEntry, TraceFlowInfo, TraceLog, TraceRecorder};
