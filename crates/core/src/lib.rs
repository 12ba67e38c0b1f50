//! StreamTune core: the pre-training + fine-tuning parallelism tuner.
//!
//! This crate is the paper's primary contribution:
//!
//! * [`label`] — Algorithm 1, systematic operator-level bottleneck labeling
//!   from engine metrics;
//! * [`pretrain`] — the offline phase: GED-cluster the execution-history
//!   corpus, pre-train one GNN encoder per cluster on bottleneck
//!   classification, and materialize per-cluster warm-up datasets;
//! * [`tune`] — Algorithm 2, the online phase: nearest-cluster assignment,
//!   monotonic fine-tuning model over parallelism-agnostic embeddings, and
//!   topological-order per-operator minimum-parallelism recommendation with
//!   redeploy-and-feedback iteration.

pub mod label;
pub mod pretrain;
pub mod tune;

pub use label::{bottleneck_labels, LabelConfig};
pub use pretrain::{PretrainConfig, Pretrained, Pretrainer};
pub use streamtune_ged::Parallelism;
pub use tune::{ModelKind, StreamTune, TuneConfig, WarmFits};
