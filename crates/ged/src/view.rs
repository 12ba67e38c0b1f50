//! Lightweight labeled-digraph view used by the GED machinery.
//!
//! GED only needs node labels (operator kinds) and directed edges; carrying
//! the full [`Dataflow`] through the A\* search would be wasteful.

use serde::{Deserialize, Serialize};
use streamtune_dataflow::{Dataflow, GraphSignature, OperatorKind};

/// Edge relation between an unordered node pair, from the perspective of
/// the pair `(lo, hi)` with `lo < hi`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PairEdge {
    /// No edge in either direction.
    None,
    /// Edge `lo → hi`.
    Forward,
    /// Edge `hi → lo`.
    Backward,
}

/// A directed graph with [`OperatorKind`] node labels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GraphView {
    /// Node labels.
    pub labels: Vec<OperatorKind>,
    /// Directed edges `(from, to)` by node index.
    pub edges: Vec<(usize, usize)>,
    /// Dense adjacency for O(1) pair queries: `adj[a][b]` = edge `a → b`.
    adj: Vec<Vec<bool>>,
}

impl GraphView {
    /// Build a view from labels and edges.
    pub fn new(labels: Vec<OperatorKind>, edges: Vec<(usize, usize)>) -> Self {
        let n = labels.len();
        let mut adj = vec![vec![false; n]; n];
        for &(a, b) in &edges {
            assert!(a < n && b < n, "edge endpoint out of range");
            assert!(a != b, "self loops not allowed");
            adj[a][b] = true;
        }
        GraphView { labels, edges, adj }
    }

    /// Extract the view of a dataflow DAG.
    pub fn of(flow: &Dataflow) -> Self {
        let labels = flow.ops().map(|(_, o)| o.kind()).collect();
        let edges = flow
            .edges()
            .iter()
            .map(|e| (e.from.index(), e.to.index()))
            .collect();
        GraphView::new(labels, edges)
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Is there an edge `a → b`?
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a][b]
    }

    /// Edge relation of the unordered pair `{a, b}` (`a != b`), reported
    /// relative to the ordering of the *arguments*: `Forward` = `a → b`.
    pub fn pair_edge(&self, a: usize, b: usize) -> PairEdge {
        if self.adj[a][b] {
            PairEdge::Forward
        } else if self.adj[b][a] {
            PairEdge::Backward
        } else {
            PairEdge::None
        }
    }

    /// Total degree (in + out) of node `i`.
    pub fn degree(&self, i: usize) -> usize {
        let n = self.num_nodes();
        let mut d = 0;
        for j in 0..n {
            if self.adj[i][j] {
                d += 1;
            }
            if self.adj[j][i] {
                d += 1;
            }
        }
        d
    }

    /// The [`GraphSignature`] of this view — identical to
    /// [`GraphSignature::of`] on the dataflow the view was extracted from,
    /// so views interned from a flow and views restored from a snapshot
    /// (e.g. persisted cluster centers) index into the same
    /// [`crate::GedCache`] buckets.
    pub fn signature(&self) -> GraphSignature {
        let mut kinds = self.labels.clone();
        kinds.sort();
        let n = self.num_nodes();
        let mut indeg = vec![0usize; n];
        let mut outdeg = vec![0usize; n];
        for &(a, b) in &self.edges {
            outdeg[a] += 1;
            indeg[b] += 1;
        }
        let mut degrees: Vec<(u8, u8)> = (0..n)
            .map(|i| {
                (
                    u8::try_from(indeg[i].min(255)).unwrap(),
                    u8::try_from(outdeg[i].min(255)).unwrap(),
                )
            })
            .collect();
        degrees.sort();
        let mut edge_kinds: Vec<(OperatorKind, OperatorKind)> = self
            .edges
            .iter()
            .map(|&(a, b)| (self.labels[a], self.labels[b]))
            .collect();
        edge_kinds.sort();
        GraphSignature {
            num_ops: n,
            num_edges: self.edges.len(),
            kinds,
            degrees,
            edge_kinds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamtune_dataflow::{DataflowBuilder, Operator};

    #[test]
    fn view_of_dataflow_preserves_structure() {
        let mut b = DataflowBuilder::new("v");
        let s = b.add_source("s", 1.0);
        let f = b.add_op("f", Operator::filter(0.5, 8, 8));
        let m = b.add_op("m", Operator::map(8, 8));
        let k = b.add_op("k", Operator::sink(8));
        b.connect_source(s, f);
        b.connect(f, m);
        b.connect(m, k);
        let v = GraphView::of(&b.build().unwrap());
        assert_eq!(v.num_nodes(), 3);
        assert_eq!(v.num_edges(), 2);
        assert_eq!(v.labels[0], OperatorKind::Filter);
        assert!(v.has_edge(0, 1));
        assert!(!v.has_edge(1, 0));
    }

    #[test]
    fn pair_edge_orientation() {
        let v = GraphView::new(vec![OperatorKind::Map, OperatorKind::Sink], vec![(0, 1)]);
        assert_eq!(v.pair_edge(0, 1), PairEdge::Forward);
        assert_eq!(v.pair_edge(1, 0), PairEdge::Backward);
    }

    #[test]
    fn degree_counts_both_directions() {
        let v = GraphView::new(
            vec![OperatorKind::Map, OperatorKind::Map, OperatorKind::Sink],
            vec![(0, 1), (1, 2)],
        );
        assert_eq!(v.degree(0), 1);
        assert_eq!(v.degree(1), 2);
        assert_eq!(v.degree(2), 1);
    }

    #[test]
    #[should_panic(expected = "self loops not allowed")]
    fn self_loop_rejected() {
        GraphView::new(vec![OperatorKind::Map], vec![(0, 0)]);
    }

    #[test]
    fn view_signature_matches_dataflow_signature() {
        let mut b = DataflowBuilder::new("sig");
        let s = b.add_source("s", 1.0);
        let f = b.add_op("f", Operator::filter(0.5, 8, 8));
        let m = b.add_op("m", Operator::map(8, 8));
        let k = b.add_op("k", Operator::sink(8));
        b.connect_source(s, f);
        b.connect(f, m);
        b.connect(m, k);
        let flow = b.build().unwrap();
        assert_eq!(
            GraphView::of(&flow).signature(),
            streamtune_dataflow::GraphSignature::of(&flow)
        );
    }
}
