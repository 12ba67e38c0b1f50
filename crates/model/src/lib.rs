//! The fine-tuning model family `M_f` (paper §IV-B).
//!
//! Online, StreamTune fits a lightweight classifier over
//! `x = [h, p]` — a parallelism-agnostic operator embedding `h` plus a
//! candidate parallelism `p` — predicting `P(bottleneck | x)`. The paper
//! requires `M_f` to be **monotonic**: `P` non-increasing in `p`, because
//! raising an operator's parallelism always raises its processing ability.
//!
//! Three implementations:
//!
//! * [`MonotonicSvm`] — linear(-ised) SVM with the constraint `w_p ≤ 0`
//!   enforced by projection (Eq. 5), optionally over random Fourier
//!   features of `h` (the kernel trick);
//! * [`MonotonicGbdt`] — gradient-boosted trees with monotone-constrained
//!   splits and leaf clamping, the paper's XGBoost variant;
//! * [`NnClassifier`] — an *unconstrained* MLP, the ablation baseline of
//!   Fig. 11a that is allowed to violate monotonicity.
//!
//! [`recommend_min_parallelism`] performs Algorithm 2's line-8 search
//! `min { p ≤ p_max | M_f(h, p) = 0 }`, by binary search when the model is
//! monotonic and by linear scan otherwise.

pub mod gbdt;
pub mod nnhead;
pub mod rff;
pub mod svm;

pub use gbdt::{GbdtConfig, MonotonicGbdt};
pub use nnhead::{NnClassifier, NnConfig};
pub use rff::RandomFourierFeatures;
pub use svm::{MonotonicSvm, SvmConfig};

use serde::{Deserialize, Serialize};

/// Parallelism normalization constant shared with the GNN FUSE layer.
pub use streamtune_nn::PARALLELISM_NORM;

/// One supervised example for `M_f`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainPoint {
    /// Parallelism-agnostic operator embedding `h`.
    pub embedding: Vec<f64>,
    /// Deployed parallelism degree.
    pub parallelism: u32,
    /// Observed bottleneck indicator (true = class 1 = bottleneck).
    pub bottleneck: bool,
}

impl TrainPoint {
    /// Feature `f` of the model input `[h…, p / PARALLELISM_NORM]`,
    /// without building the input vector.
    pub(crate) fn feature(&self, f: usize) -> f64 {
        match self.embedding.get(f) {
            Some(&v) => v,
            None => parallelism_feature(self.parallelism),
        }
    }
}

/// Build the model input `[h…, p / PARALLELISM_NORM]` from an embedding
/// and a parallelism.
pub fn assemble_input(embedding: &[f64], parallelism: u32) -> Vec<f64> {
    let mut v = Vec::with_capacity(embedding.len() + 1);
    v.extend_from_slice(embedding);
    v.push(parallelism_feature(parallelism));
    v
}

/// The last model input: the parallelism, normalized.
fn parallelism_feature(parallelism: u32) -> f64 {
    f64::from(parallelism) / PARALLELISM_NORM
}

/// A bottleneck classifier over `(embedding, parallelism)` inputs.
///
/// `Send + Sync` so one fitted model can serve tunes on several worker
/// threads at once (the tuner's shared warm-up fit).
pub trait BottleneckClassifier: Send + Sync {
    /// Fit on labeled points (refit from scratch each call — the warm-up
    /// dataset plus accumulated feedback is small).
    fn fit(&mut self, data: &[TrainPoint]);

    /// `P(bottleneck | h, p)` in `[0, 1]`.
    fn predict_proba(&self, embedding: &[f64], parallelism: u32) -> f64;

    /// Hard decision at 0.5.
    fn predict(&self, embedding: &[f64], parallelism: u32) -> bool {
        self.predict_proba(embedding, parallelism) >= 0.5
    }

    /// Whether the model structurally guarantees monotonicity in `p`.
    fn is_monotonic(&self) -> bool;
}

/// Algorithm 2 line 8: the smallest `p ≤ p_max` the model predicts
/// non-bottleneck, or `None` if every candidate is predicted bottleneck.
///
/// Monotonic models admit binary search (paper: "this search can be
/// implemented as a binary search"); non-monotonic models fall back to the
/// literal linear scan — which is exactly what makes the NN ablation
/// unreliable (a spuriously-low `p` can look non-bottleneck).
pub fn recommend_min_parallelism(
    model: &dyn BottleneckClassifier,
    embedding: &[f64],
    p_max: u32,
) -> Option<u32> {
    recommend_min_parallelism_at(model, embedding, p_max, 0.5)
}

/// [`recommend_min_parallelism`] with an explicit decision threshold:
/// accept `p` once `P(bottleneck | h, p) < threshold`. Thresholds below
/// 0.5 trade a little extra parallelism for a safety margin against
/// under-provisioning (StreamTune never triggers backpressure in the
/// paper's Table III).
pub fn recommend_min_parallelism_at(
    model: &dyn BottleneckClassifier,
    embedding: &[f64],
    p_max: u32,
    threshold: f64,
) -> Option<u32> {
    assert!(p_max >= 1);
    assert!((0.0..=1.0).contains(&threshold));
    let is_bottleneck = |p: u32| model.predict_proba(embedding, p) >= threshold;
    if model.is_monotonic() {
        if is_bottleneck(p_max) {
            return None; // even max parallelism predicted bottleneck
        }
        let (mut lo, mut hi) = (1u32, p_max);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if is_bottleneck(mid) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    } else {
        (1..=p_max).find(|&p| !is_bottleneck(p))
    }
}

/// Fraction of points a fitted model classifies correctly.
pub fn accuracy(model: &dyn BottleneckClassifier, data: &[TrainPoint]) -> f64 {
    if data.is_empty() {
        return 1.0;
    }
    let correct = data
        .iter()
        .filter(|pt| model.predict(&pt.embedding, pt.parallelism) == pt.bottleneck)
        .count();
    correct as f64 / data.len() as f64
}

/// Check monotonicity empirically on a grid: for every embedding in
/// `probes`, `P(bottleneck)` must be non-increasing as `p` sweeps 1..=p_max.
pub fn verify_monotonic(model: &dyn BottleneckClassifier, probes: &[Vec<f64>], p_max: u32) -> bool {
    for h in probes {
        let mut prev = f64::INFINITY;
        for p in 1..=p_max {
            let prob = model.predict_proba(h, p);
            if prob > prev + 1e-9 {
                return false;
            }
            prev = prob;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-written monotonic stub: bottleneck iff p < threshold stored
    /// in embedding[0].
    struct Stub;
    impl BottleneckClassifier for Stub {
        fn fit(&mut self, _data: &[TrainPoint]) {}
        fn predict_proba(&self, embedding: &[f64], parallelism: u32) -> f64 {
            if f64::from(parallelism) < embedding[0] {
                0.9
            } else {
                0.1
            }
        }
        fn is_monotonic(&self) -> bool {
            true
        }
    }

    #[test]
    fn binary_search_finds_threshold() {
        let m = Stub;
        assert_eq!(recommend_min_parallelism(&m, &[7.0], 100), Some(7));
        assert_eq!(recommend_min_parallelism(&m, &[1.0], 100), Some(1));
        assert_eq!(recommend_min_parallelism(&m, &[100.5], 100), None);
    }

    /// Non-monotonic stub: claims non-bottleneck at exactly p = 2 only.
    struct Bumpy;
    impl BottleneckClassifier for Bumpy {
        fn fit(&mut self, _data: &[TrainPoint]) {}
        fn predict_proba(&self, _e: &[f64], p: u32) -> f64 {
            if p == 2 || p >= 10 {
                0.0
            } else {
                1.0
            }
        }
        fn is_monotonic(&self) -> bool {
            false
        }
    }

    #[test]
    fn linear_scan_hits_spurious_dip() {
        // The non-monotonic path finds the spurious p=2 — the failure mode
        // the paper's constraint exists to prevent.
        assert_eq!(recommend_min_parallelism(&Bumpy, &[0.0], 100), Some(2));
        assert!(!verify_monotonic(&Bumpy, &[vec![0.0]], 12));
    }

    #[test]
    fn assemble_input_normalizes() {
        let v = assemble_input(&[1.0, 2.0], 50);
        assert_eq!(v, vec![1.0, 2.0, 0.5]);
    }

    #[test]
    fn stub_is_monotonic() {
        assert!(verify_monotonic(&Stub, &[vec![5.0], vec![50.0]], 100));
    }
}
