//! Gradient-boosted decision trees with a monotone constraint on the
//! parallelism feature (the paper's XGBoost variant, §IV-B).
//!
//! Standard second-order gradient boosting with logistic loss. The
//! monotonicity requirement — predictions non-increasing in parallelism —
//! is enforced exactly as described in the paper:
//!
//! * **split rejection**: a candidate split on the constrained feature
//!   whose left/right leaf values would violate the decreasing order gets
//!   gain `−∞` and is never taken;
//! * **leaf clamping**: each subtree carries a `[lo, hi]` value interval;
//!   after a constrained split at midpoint `m`, the low-parallelism side
//!   may only produce values in `[m, hi]` and the high-parallelism side in
//!   `[lo, m]`, so the order holds across the whole ensemble.
//!
//! Split search is XGBoost's exact greedy algorithm over presorted
//! columns (Chen & Guestrin, KDD'16). Each fit copies the feature values
//! into one column-major matrix (`cols[f·n + i]`), which the presort, the
//! scan and the partitions read, and sorts the point indices once per
//! feature, stably by value, so ties fall in point-index order. Every
//! tree node owns one contiguous range of that order per feature, plus a
//! range of its point indices in ascending order; a chosen split
//! evaluates `value ≤ threshold` once per point into a mask and stably
//! partitions the node's ranges into its children's by it. The result is
//! bit-identical to sorting each node's points per feature: a stable sort
//! by value then index, filtered to a node's points, *is* that node's
//! stable sort, so the scan visits the same candidates in the same order
//! with the same running sums, and the gradient sums still run in
//! ascending index order.
//!
//! A feature that takes one value over a node's points (a dead ReLU unit,
//! or a column constant on one side of an earlier split) offers no
//! candidate, so the scan skips it and the split leaves its order
//! unpartitioned; see `node_constant` for why that stays exact, signed
//! zeros included.

use crate::{BottleneckClassifier, TrainPoint};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// GBDT hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GbdtConfig {
    /// Boosting rounds (trees).
    pub rounds: usize,
    /// Maximum tree depth.
    pub max_depth: usize,
    /// Shrinkage (learning rate).
    pub lr: f64,
    /// L2 regularization on leaf values.
    pub lambda: f64,
    /// Minimum samples per leaf.
    pub min_samples_leaf: usize,
    /// Minimum split gain.
    pub min_gain: f64,
    /// Cap on the positive-class weight (XGBoost `scale_pos_weight`).
    pub scale_pos_weight_cap: f64,
}

impl Default for GbdtConfig {
    fn default() -> Self {
        GbdtConfig {
            rounds: 40,
            max_depth: 3,
            lr: 0.3,
            lambda: 1.0,
            min_samples_leaf: 2,
            min_gain: 1e-6,
            scale_pos_weight_cap: 25.0,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: usize,
        right: usize,
    },
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Tree {
    nodes: Vec<Node>,
}

impl Tree {
    fn predict(&self, x: &[f64]) -> f64 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf(v) => return *v,
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    i = if x[*feature] <= *threshold {
                        *left
                    } else {
                        *right
                    };
                }
            }
        }
    }
}

/// The monotone-constrained GBDT classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonotonicGbdt {
    config: GbdtConfig,
    trees: Vec<Tree>,
    base_score: f64,
    /// Index of the monotone-decreasing feature (the parallelism column —
    /// always the last input dimension).
    constrained: usize,
    fitted: bool,
}

/// Per-fit split-search workspace. Each column is sorted once per fit;
/// every node owns one contiguous range, at the same offsets, in `rows`
/// and in each feature's slice of `order`.
struct Presorted {
    n: usize,
    dim: usize,
    /// Feature values, column-major: feature `f` of point `i` is at
    /// `f * n + i`.
    cols: Vec<f64>,
    /// Per feature, the point indices stably sorted by value (ties by index).
    sorted: Vec<u32>,
    /// Working copy of `sorted`, reset per tree and stably partitioned per
    /// split, so a node's range is its points in (value, index) order.
    order: Vec<u32>,
    /// Point indices, ascending within each node's range.
    rows: Vec<u32>,
    /// Per point, the side of the split being applied (`true` = left).
    goes_left: Vec<bool>,
    /// Spill buffer of the stable partition.
    scratch: Vec<u32>,
}

impl Presorted {
    fn new(data: &[TrainPoint]) -> Self {
        let n = data.len();
        let n32 = u32::try_from(n).expect("dataset fits u32 point indices");
        let dim = data[0].embedding.len() + 1;
        assert!(
            data.iter().all(|p| p.embedding.len() == dim - 1),
            "every point needs an embedding of the same length"
        );
        let mut cols = Vec::with_capacity(n * dim);
        for f in 0..dim {
            cols.extend(data.iter().map(|p| p.feature(f)));
        }
        let mut sorted = Vec::with_capacity(n * dim);
        for col in cols.chunks_exact(n) {
            let start = sorted.len();
            sorted.extend(0..n32);
            sorted[start..].sort_by(|&a, &b| {
                col[a as usize]
                    .partial_cmp(&col[b as usize])
                    .expect("feature values are not NaN")
            });
        }
        Presorted {
            n,
            dim,
            cols,
            order: sorted.clone(),
            sorted,
            rows: (0..n32).collect(),
            goes_left: vec![false; n],
            scratch: vec![0; n],
        }
    }

    /// Feature `f`'s values, indexed by point.
    fn column(&self, f: usize) -> &[f64] {
        &self.cols[f * self.n..(f + 1) * self.n]
    }

    /// Restore the root layout: every point in one range.
    fn reset(&mut self) {
        self.order.copy_from_slice(&self.sorted);
        for (k, r) in self.rows.iter_mut().enumerate() {
            *r = k as u32;
        }
    }

    /// Record each of the node's points' side of the split
    /// `feature ≤ threshold` (the test `Tree::predict` applies) in
    /// `goes_left`, then stably partition the node's `range` of `rows` by
    /// it; returns the left count.
    fn partition_rows(&mut self, range: Range<usize>, feature: usize, threshold: f64) -> usize {
        let col = &self.cols[feature * self.n..(feature + 1) * self.n];
        for &i in &self.rows[range.clone()] {
            self.goes_left[i as usize] = col[i as usize] <= threshold;
        }
        stable_partition(&mut self.rows[range], &mut self.scratch, &self.goes_left)
    }

    /// The split `partition_rows` recorded, applied to the node's range in
    /// every feature's order. A feature constant over the range is left
    /// as it is: see [`node_constant`].
    fn partition_orders(&mut self, range: Range<usize>) {
        let orders = self.order.chunks_exact_mut(self.n);
        for (col, order) in self.cols.chunks_exact(self.n).zip(orders) {
            let node = &mut order[range.clone()];
            if !node_constant(col, node) {
                stable_partition(node, &mut self.scratch, &self.goes_left);
            }
        }
    }
}

/// Whether a feature takes one value over a node's range of its order:
/// the range is sorted by value, so its first and last values are equal
/// exactly when all are. Signed zeros count as one value, as in the scan:
/// `-0.0 == 0.0` under both `==` and `partial_cmp`, so a zero-valued
/// column of mixed signs offers no split either.
///
/// A constant range has no split candidate, and the split search skips
/// it. Its order is not partitioned at a split either: each child's
/// slice then holds some of the parent's points rather than its own, but
/// all share the one value, so the slice still tests constant and is
/// never scanned, in the child or below.
fn node_constant(col: &[f64], node: &[u32]) -> bool {
    col[node[0] as usize] == col[node[node.len() - 1] as usize]
}

/// Stable in-place partition of `arr` by `goes_left[i]`: points going
/// left keep their order at the front, the rest keep theirs behind.
/// Returns the left count. Branchless: each index is written to both the
/// left slot and the spill slot, and only the left counter's advance
/// depends on the side.
fn stable_partition(arr: &mut [u32], scratch: &mut [u32], goes_left: &[bool]) -> usize {
    let mut l = 0;
    for k in 0..arr.len() {
        let i = arr[k];
        arr[l] = i;
        scratch[k - l] = i;
        l += usize::from(goes_left[i as usize]);
    }
    let r = arr.len() - l;
    arr[l..].copy_from_slice(&scratch[..r]);
    l
}

struct TreeBuilder<'a> {
    presorted: &'a mut Presorted,
    /// Per point, the loss gradient and hessian.
    grad_hess: &'a [[f64; 2]],
    /// Training scores, advanced by each leaf's value as the leaf is made.
    scores: &'a mut [f64],
    cfg: &'a GbdtConfig,
    constrained: usize,
    nodes: Vec<Node>,
}

impl TreeBuilder<'_> {
    fn leaf_value(&self, g: f64, h: f64, lo: f64, hi: f64) -> f64 {
        (-g / (h + self.cfg.lambda)).clamp(lo, hi)
    }

    fn is_leaf(&self, depth: usize, len: usize) -> bool {
        depth >= self.cfg.max_depth || len < 2 * self.cfg.min_samples_leaf
    }

    /// Gradient and hessian sums over `rows[range]`, in ascending index order.
    fn sums(&self, range: Range<usize>) -> (f64, f64) {
        let rows = &self.presorted.rows[range];
        let g = rows.iter().map(|&i| self.grad_hess[i as usize][0]).sum();
        let h = rows.iter().map(|&i| self.grad_hess[i as usize][1]).sum();
        (g, h)
    }

    fn make_leaf(
        &mut self,
        range: Range<usize>,
        (g, h): (f64, f64),
        (lo, hi): (f64, f64),
    ) -> usize {
        let value = self.leaf_value(g, h, lo, hi) * self.cfg.lr;
        for &i in &self.presorted.rows[range] {
            self.scores[i as usize] += value;
        }
        self.nodes.push(Node::Leaf(value));
        self.nodes.len() - 1
    }

    /// Greedy exact split search over the node's presorted ranges:
    /// `(gain, feature, threshold)` of the best admissible split.
    fn best_split(
        &self,
        range: Range<usize>,
        (g, h): (f64, f64),
        (lo, hi): (f64, f64),
    ) -> Option<(f64, usize, f64)> {
        let GbdtConfig {
            lambda,
            min_samples_leaf,
            min_gain,
            ..
        } = *self.cfg;
        let parent_score = g * g / (h + lambda);
        let len = range.len();
        let n = self.presorted.n;
        let mut best: Option<(f64, usize, f64)> = None;
        for f in 0..self.presorted.dim {
            let col = self.presorted.column(f);
            let node_order = &self.presorted.order[f * n + range.start..f * n + range.end];
            if node_constant(col, node_order) {
                continue;
            }
            let mut gl = 0.0;
            let mut hl = 0.0;
            let mut xn = col[node_order[0] as usize];
            for (k, pair) in node_order.windows(2).enumerate() {
                let [gk, hk] = self.grad_hess[pair[0] as usize];
                gl += gk;
                hl += hk;
                let xv = xn;
                xn = col[pair[1] as usize];
                if xv == xn {
                    continue; // cannot split between equal values
                }
                let nl = k + 1;
                let nr = len - nl;
                if nl < min_samples_leaf || nr < min_samples_leaf {
                    continue;
                }
                let gr = g - gl;
                let hr = h - hl;
                let gain = gl * gl / (hl + lambda) + gr * gr / (hr + lambda) - parent_score;
                if gain <= min_gain {
                    continue;
                }
                if f == self.constrained {
                    // Split rejection: decreasing constraint requires the
                    // low-parallelism (left) value ≥ high-parallelism value.
                    let wl = self.leaf_value(gl, hl, lo, hi);
                    let wr = self.leaf_value(gr, hr, lo, hi);
                    if wl < wr {
                        continue; // gain = −∞
                    }
                }
                if best.map(|(bg, _, _)| gain > bg).unwrap_or(true) {
                    best = Some((gain, f, (xv + xn) / 2.0));
                }
            }
        }
        best
    }

    /// Grow the subtree over `rows[range]`, whose gradient and hessian sums
    /// are `sums`, with leaf values clamped to `bounds`.
    fn build(
        &mut self,
        range: Range<usize>,
        depth: usize,
        bounds: (f64, f64),
        sums: (f64, f64),
    ) -> usize {
        if self.is_leaf(depth, range.len()) {
            return self.make_leaf(range, sums, bounds);
        }
        let Some((_, feature, threshold)) = self.best_split(range.clone(), sums, bounds) else {
            return self.make_leaf(range, sums, bounds);
        };

        let nl = self
            .presorted
            .partition_rows(range.clone(), feature, threshold);
        let mid = range.start + nl;
        // Children that are leaves never scan, so their order ranges are
        // never read: skip the per-feature partitions.
        if !(self.is_leaf(depth + 1, nl) && self.is_leaf(depth + 1, range.len() - nl)) {
            self.presorted.partition_orders(range.clone());
        }
        let left_sums = self.sums(range.start..mid);
        let right_sums = self.sums(mid..range.end);

        // Child value intervals: clamp around the midpoint for constrained
        // splits, inherit otherwise.
        let (lo, hi) = bounds;
        let (left_bounds, right_bounds) = if feature == self.constrained {
            let wl = self.leaf_value(left_sums.0, left_sums.1, lo, hi);
            let wr = self.leaf_value(right_sums.0, right_sums.1, lo, hi);
            let m = (wl + wr) / 2.0;
            ((m, hi), (lo, m))
        } else {
            (bounds, bounds)
        };

        let placeholder = self.nodes.len();
        self.nodes.push(Node::Leaf(0.0)); // replaced below
        let left = self.build(range.start..mid, depth + 1, left_bounds, left_sums);
        let right = self.build(mid..range.end, depth + 1, right_bounds, right_sums);
        self.nodes[placeholder] = Node::Split {
            feature,
            threshold,
            left,
            right,
        };
        placeholder
    }
}

impl MonotonicGbdt {
    /// Fresh, unfitted model.
    pub fn new(config: GbdtConfig) -> Self {
        MonotonicGbdt {
            config,
            trees: Vec::new(),
            base_score: 0.0,
            constrained: 0,
            fitted: false,
        }
    }

    /// Number of trees in the fitted ensemble.
    pub fn num_trees(&self) -> usize {
        self.trees.len()
    }

    fn raw_score(&self, x: &[f64]) -> f64 {
        self.base_score + self.trees.iter().map(|t| t.predict(x)).sum::<f64>()
    }
}

fn sigmoid(z: f64) -> f64 {
    1.0 / (1.0 + (-z).exp())
}

impl BottleneckClassifier for MonotonicGbdt {
    fn fit(&mut self, data: &[TrainPoint]) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let mut presorted = Presorted::new(data);
        let n = data.len();
        let ys: Vec<f64> = data
            .iter()
            .map(|p| if p.bottleneck { 1.0 } else { 0.0 })
            .collect();
        self.constrained = presorted.dim - 1;
        let pos = ys.iter().sum::<f64>() / ys.len() as f64;
        let p0 = pos.clamp(0.01, 0.99);
        self.base_score = (p0 / (1.0 - p0)).ln();
        self.trees.clear();

        let mut scores = vec![self.base_score; n];
        let mut grad_hess = vec![[0.0; 2]; n];
        // Class balancing (XGBoost's scale_pos_weight): bottleneck labels
        // are the rare minority; without it the ensemble ignores them.
        let pos_count = ys.iter().filter(|&&y| y > 0.5).count().max(1) as f64;
        let spw = ((ys.len() as f64 - pos_count) / pos_count)
            .clamp(1.0, self.config.scale_pos_weight_cap.max(1.0));
        for _ in 0..self.config.rounds {
            for i in 0..n {
                let p = sigmoid(scores[i]);
                let w = if ys[i] > 0.5 { spw } else { 1.0 };
                grad_hess[i] = [w * (p - ys[i]), (w * p * (1.0 - p)).max(1e-9)];
            }
            presorted.reset();
            let mut builder = TreeBuilder {
                presorted: &mut presorted,
                grad_hess: &grad_hess,
                scores: &mut scores,
                cfg: &self.config,
                constrained: self.constrained,
                nodes: Vec::new(),
            };
            let sums = builder.sums(0..n);
            let root = builder.build(0..n, 0, (f64::NEG_INFINITY, f64::INFINITY), sums);
            debug_assert_eq!(root, 0);
            self.trees.push(Tree {
                nodes: builder.nodes,
            });
        }
        self.fitted = true;
    }

    fn predict_proba(&self, embedding: &[f64], parallelism: u32) -> f64 {
        assert!(self.fitted, "predict before fit");
        let x = crate::assemble_input(embedding, parallelism);
        sigmoid(self.raw_score(&x))
    }

    fn is_monotonic(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{accuracy, recommend_min_parallelism, verify_monotonic};

    fn threshold_data(thresholds: &[(f64, u32)]) -> Vec<TrainPoint> {
        let mut data = Vec::new();
        for &(emb, thresh) in thresholds {
            for p in 1..=60 {
                data.push(TrainPoint {
                    embedding: vec![emb, emb * emb],
                    parallelism: p,
                    bottleneck: p < thresh,
                });
            }
        }
        data
    }

    #[test]
    fn learns_threshold_accurately() {
        let data = threshold_data(&[(0.2, 12), (0.8, 35)]);
        let mut m = MonotonicGbdt::new(GbdtConfig::default());
        m.fit(&data);
        assert!(accuracy(&m, &data) > 0.95, "acc {}", accuracy(&m, &data));
        assert_eq!(m.num_trees(), 40);
    }

    #[test]
    fn predictions_are_monotonic_in_parallelism() {
        let data = threshold_data(&[(0.2, 12), (0.8, 35), (0.5, 20)]);
        let mut m = MonotonicGbdt::new(GbdtConfig::default());
        m.fit(&data);
        // Probe both training embeddings and unseen ones.
        let probes = vec![
            vec![0.2, 0.04],
            vec![0.8, 0.64],
            vec![0.5, 0.25],
            vec![0.35, 0.1225],
            vec![0.65, 0.4225],
        ];
        assert!(verify_monotonic(&m, &probes, 100));
    }

    #[test]
    fn recommendation_close_to_true_threshold() {
        let data = threshold_data(&[(0.2, 12), (0.8, 35)]);
        let mut m = MonotonicGbdt::new(GbdtConfig::default());
        m.fit(&data);
        let r1 = recommend_min_parallelism(&m, &[0.2, 0.04], 100).unwrap();
        let r2 = recommend_min_parallelism(&m, &[0.8, 0.64], 100).unwrap();
        assert!((10..=14).contains(&r1), "r1 = {r1}");
        assert!((32..=38).contains(&r2), "r2 = {r2}");
    }

    #[test]
    fn interpolates_between_seen_embeddings_monotonically() {
        let data = threshold_data(&[(0.1, 8), (0.9, 40)]);
        let mut m = MonotonicGbdt::new(GbdtConfig::default());
        m.fit(&data);
        let r_mid = recommend_min_parallelism(&m, &[0.5, 0.25], 100).unwrap();
        assert!((6..=42).contains(&r_mid), "r_mid = {r_mid}");
    }

    #[test]
    fn all_one_class_predicts_that_class() {
        let data: Vec<TrainPoint> = (1..=20)
            .map(|p| TrainPoint {
                embedding: vec![0.3, 0.3],
                parallelism: p,
                bottleneck: false,
            })
            .collect();
        let mut m = MonotonicGbdt::new(GbdtConfig::default());
        m.fit(&data);
        assert!(!m.predict(&[0.3, 0.3], 5));
    }

    #[test]
    fn handles_tiny_dataset() {
        let data = vec![
            TrainPoint {
                embedding: vec![0.5, 0.5],
                parallelism: 1,
                bottleneck: true,
            },
            TrainPoint {
                embedding: vec![0.5, 0.5],
                parallelism: 50,
                bottleneck: false,
            },
        ];
        let mut m = MonotonicGbdt::new(GbdtConfig::default());
        m.fit(&data);
        // Even with 2 points the monotone order must hold.
        assert!(m.predict_proba(&[0.5, 0.5], 1) >= m.predict_proba(&[0.5, 0.5], 50));
    }
}
