//! Logical dataflow DAG model for the StreamTune reproduction.
//!
//! This crate defines the *logical* Directed Acyclic Graph abstraction used
//! throughout the workspace (paper §II-A): operators with the static feature
//! set of Table I, external data sources with source rates, directed edges
//! carrying data dependencies, and the feature encoding (one-hot
//! categorical plus min-max numeric scaling) that forms the initial node
//! vectors `h_v^(0)` of the GNN encoder (paper §IV-A, "Initial Feature
//! Vector Construction").
//!
//! Parallelism is deliberately **not** part of the [`Dataflow`] — it is a
//! dynamic feature handled separately by the tuners (paper §III, "Strategy
//! for Handling Operator Parallelism"). A concrete deployment is expressed
//! as a [`ParallelismAssignment`] next to the graph.

pub mod builder;
pub mod features;
pub mod graph;
pub mod op;
pub mod signature;

pub use builder::DataflowBuilder;
pub use features::{encode_operator, FeatureEncoder, FEATURE_DIM};
pub use graph::{Dataflow, DataflowError, Edge, OpId, SourceId};
pub use op::{
    AggregateClass, AggregateFunction, DataSource, JoinKeyClass, Operator, OperatorKind,
    StaticFeatures, TupleDataType, WindowPolicy, WindowType,
};
pub use signature::GraphSignature;

/// A per-operator parallelism assignment for one deployment of a dataflow.
///
/// Indexed by [`OpId`] position; `degrees[op.index()]` is the parallelism of
/// that operator. Degrees are ≥ 1.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct ParallelismAssignment {
    /// A boxed slice, not a `Vec`: an assignment never changes length,
    /// and the daemon keeps one per finished job.
    degrees: Box<[u32]>,
}

/// A degree vector that cannot form a valid [`ParallelismAssignment`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentError {
    /// A degree of 0 at the given operator index (degrees are ≥ 1).
    ZeroDegree {
        /// Position of the offending degree.
        index: usize,
    },
}

impl std::fmt::Display for AssignmentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AssignmentError::ZeroDegree { index } => write!(
                f,
                "parallelism degrees must be >= 1 (degree 0 at operator index {index})"
            ),
        }
    }
}

impl std::error::Error for AssignmentError {}

impl ParallelismAssignment {
    /// Uniform assignment of `p` for every operator of `dataflow`.
    ///
    /// Panics when `p` is 0; use [`Self::try_from_vec`] for a fallible path.
    pub fn uniform(dataflow: &Dataflow, p: u32) -> Self {
        Self::try_from_vec(vec![p; dataflow.num_ops()]).expect("parallelism degrees must be >= 1")
    }

    /// Build from an explicit degree vector (one entry per operator).
    ///
    /// Panics on a zero degree; use [`Self::try_from_vec`] for a fallible path.
    pub fn from_vec(degrees: Vec<u32>) -> Self {
        Self::try_from_vec(degrees).expect("parallelism degrees must be >= 1")
    }

    /// Build from an explicit degree vector, rejecting zero degrees with an
    /// [`AssignmentError`] instead of panicking.
    pub fn try_from_vec(degrees: Vec<u32>) -> Result<Self, AssignmentError> {
        match degrees.iter().position(|&d| d == 0) {
            Some(index) => Err(AssignmentError::ZeroDegree { index }),
            None => Ok(Self {
                degrees: degrees.into_boxed_slice(),
            }),
        }
    }

    /// Parallelism of operator `op`.
    pub fn degree(&self, op: OpId) -> u32 {
        self.degrees[op.index()]
    }

    /// Set the parallelism of operator `op`.
    pub fn set_degree(&mut self, op: OpId, p: u32) {
        assert!(p >= 1, "parallelism degrees must be >= 1");
        self.degrees[op.index()] = p;
    }

    /// Number of operators covered by this assignment.
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// True when the assignment covers no operators.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }

    /// Sum of all degrees — the "total parallelism" metric of paper Fig. 6.
    pub fn total(&self) -> u64 {
        self.degrees.iter().map(|&d| u64::from(d)).sum()
    }

    /// Iterate `(OpId, degree)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (OpId, u32)> + '_ {
        self.degrees
            .iter()
            .enumerate()
            .map(|(i, &d)| (OpId::new(i), d))
    }

    /// The raw degree slice.
    pub fn as_slice(&self) -> &[u32] {
        &self.degrees
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_op_flow() -> Dataflow {
        let mut b = DataflowBuilder::new("t");
        let s = b.add_source("src", 1000.0);
        let f = b.add_op("filter", Operator::filter(0.5, 8, 8));
        let m = b.add_op("map", Operator::map(8, 8));
        b.connect_source(s, f);
        b.connect(f, m);
        b.build().unwrap()
    }

    #[test]
    fn uniform_assignment_covers_all_ops() {
        let g = two_op_flow();
        let p = ParallelismAssignment::uniform(&g, 4);
        assert_eq!(p.len(), 2);
        assert_eq!(p.total(), 8);
        for (_, d) in p.iter() {
            assert_eq!(d, 4);
        }
    }

    #[test]
    fn set_degree_roundtrip() {
        let g = two_op_flow();
        let mut p = ParallelismAssignment::uniform(&g, 1);
        let op = g.op_ids().next().unwrap();
        p.set_degree(op, 17);
        assert_eq!(p.degree(op), 17);
        assert_eq!(p.total(), 18);
    }

    #[test]
    #[should_panic(expected = "parallelism degrees must be >= 1")]
    fn zero_degree_rejected() {
        ParallelismAssignment::from_vec(vec![1, 0]);
    }

    #[test]
    fn try_from_vec_reports_offending_index() {
        assert_eq!(
            ParallelismAssignment::try_from_vec(vec![2, 0, 3]),
            Err(AssignmentError::ZeroDegree { index: 1 })
        );
        let ok = ParallelismAssignment::try_from_vec(vec![2, 1, 3]).unwrap();
        assert_eq!(ok.total(), 6);
    }
}
