//! Evaluation workloads (paper §V-A).
//!
//! * [`nexmark`] — logical DAGs for Nexmark Q1, Q2, Q3, Q5 and Q8, the
//!   queries used throughout the paper's evaluation;
//! * [`pqp`] — the PQP synthetic query templates from ZeroTune: Linear (8
//!   queries), 2-way-join (16) and 3-way-join (32);
//! * [`rates`] — Table II source-rate units and the periodic source-rate
//!   pattern (a fixed 10-step cycle, replicated and permuted into 120 rate
//!   changes per query);
//! * [`history`] — the execution-history generator that substitutes for a
//!   production cluster's past runs: randomized queries deployed at random
//!   rates and parallelisms on the simulator, recorded with observations.
//!
//! Source-rate calibration: the paper's absolute `Wu` values reflect the
//! authors' per-core throughputs. We keep the *relative* Table II structure
//! but scale the PQP units so the `10 Wu` operating point exercises the
//! same total-parallelism region (≈ 10–60) as paper Fig. 6 — documented in
//! `DESIGN.md` §1 and `EXPERIMENTS.md`.

pub mod history;
pub mod nexmark;
pub mod pqp;
pub mod rates;

use serde::{Deserialize, Serialize};
use streamtune_dataflow::{Dataflow, DataflowBuilder, Operator, SourceId};

/// A named workload: a logical dataflow plus its per-source rate units
/// (`Wu`, records/second at multiplier 1).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Workload {
    /// Query name (e.g. "nexmark-q5").
    pub name: String,
    /// The logical dataflow (source rates initialized at `1 Wu`).
    pub flow: Dataflow,
    /// `Wu` per source, in source-id order.
    pub wu: Vec<f64>,
}

impl Workload {
    /// Construct, initializing every source at `1 Wu`.
    pub fn new(name: impl Into<String>, mut flow: Dataflow, wu: Vec<f64>) -> Self {
        assert_eq!(flow.num_sources(), wu.len(), "one Wu per source");
        for (i, &u) in wu.iter().enumerate() {
            flow.set_source_rate(SourceId::new(i), u);
        }
        Workload {
            name: name.into(),
            flow,
            wu,
        }
    }

    /// Set every source to `multiplier × Wu` (the paper's `m·Wu` points).
    pub fn set_multiplier(&mut self, multiplier: f64) {
        assert!(multiplier >= 0.0);
        let rates: Vec<f64> = self.wu.iter().map(|u| u * multiplier).collect();
        self.flow.set_all_source_rates(&rates);
    }

    /// A clone of the dataflow at `multiplier × Wu`.
    pub fn at(&self, multiplier: f64) -> Dataflow {
        let mut w = self.clone();
        w.set_multiplier(multiplier);
        w.flow
    }

    /// A linear pipeline workload: one source feeding `op_names` chained
    /// in order, the last operator a sink.
    ///
    /// This is the shape of an ingested metrics dump — a scraper records
    /// per-operator rows but no edges, and production pipelines are
    /// overwhelmingly chains — so the trace ingester's callers use this
    /// to give the monitor a logical flow matching the dump's operators.
    /// Per-operator work is uniform (the ingested observations carry the
    /// real rates; the weights only matter if the flow is re-simulated).
    ///
    /// # Panics
    ///
    /// Panics if `op_names` is empty or `base_rate` is not positive.
    pub fn linear(name: impl Into<String>, op_names: &[String], base_rate: f64) -> Self {
        assert!(
            !op_names.is_empty(),
            "a pipeline needs at least one operator"
        );
        assert!(base_rate > 0.0, "source rate must be positive");
        let name = name.into();
        let mut b = DataflowBuilder::new(&name);
        let source = b.add_source("events", 1.0);
        let mut prev = None;
        for (i, op) in op_names.iter().enumerate() {
            let id = if i + 1 == op_names.len() {
                b.add_op(op, Operator::sink(48))
            } else {
                b.add_op(op, Operator::map(48, 48))
            };
            match prev {
                None => {
                    b.connect_source(source, id);
                }
                Some(p) => {
                    b.connect(p, id);
                }
            }
            prev = Some(id);
        }
        let flow = b.build().expect("a chain is always a valid dataflow");
        Workload::new(name, flow, vec![base_rate])
    }
}

/// Every named workload usable by name (CLI `--query`, serve-protocol
/// `submit`): the Nexmark queries for `engine` plus the full PQP family.
pub fn named_workloads(engine: rates::Engine) -> Vec<Workload> {
    let mut v = nexmark::all(engine);
    v.extend(pqp::linear_queries());
    v.extend(pqp::two_way_join_queries());
    v.extend(pqp::three_way_join_queries());
    v
}

/// Look up one named workload, `None` when the name is unknown.
pub fn find_workload(name: &str, engine: rates::Engine) -> Option<Workload> {
    named_workloads(engine).into_iter().find(|w| w.name == name)
}

/// The splitmix64 finalizer: the crate's seeded generators (history
/// runs, PQP parameters, rate sequences) step their state through it.
pub(crate) fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_workloads_are_unique_and_findable() {
        let all = named_workloads(rates::Engine::Flink);
        assert!(all.len() >= 5 + 8 + 16 + 32);
        let mut names: Vec<&str> = all.iter().map(|w| w.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "workload names must be unique");
        assert!(find_workload("nexmark-q5", rates::Engine::Flink).is_some());
        assert!(find_workload("no-such-query", rates::Engine::Flink).is_none());
    }

    #[test]
    fn multiplier_scales_all_sources() {
        let mut w = nexmark::q3(rates::Engine::Flink);
        w.set_multiplier(10.0);
        let total: f64 = w.flow.sources().iter().map(|s| s.rate).sum();
        let expected: f64 = w.wu.iter().map(|u| u * 10.0).sum();
        assert!((total - expected).abs() < 1e-6);
    }

    #[test]
    fn linear_builds_a_chain_with_a_sink_tail() {
        let names: Vec<String> = ["src", "mid", "out"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let w = Workload::linear("dump", &names, 500.0);
        assert_eq!(w.flow.num_ops(), 3);
        assert_eq!(w.flow.num_sources(), 1);
        assert_eq!(w.wu, vec![500.0]);
        for (i, name) in names.iter().enumerate() {
            assert_eq!(w.flow.op_name(streamtune_dataflow::OpId::new(i)), name);
        }
        // At 2×Wu the single source offers 1000 records/second.
        let flow = w.at(2.0);
        assert!((flow.sources()[0].rate - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn at_does_not_mutate_original() {
        let w = nexmark::q1(rates::Engine::Flink);
        let _high = w.at(10.0);
        assert_eq!(w.flow.sources()[0].rate, w.wu[0]);
    }
}
