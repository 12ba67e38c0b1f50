//! Unconstrained neural-network classifier — the Fig. 11a ablation.
//!
//! A plain MLP over `[h, p]` with no monotonicity guarantee. The paper
//! shows (and our ablation bench reproduces) that without the constraint,
//! spurious low-parallelism "non-bottleneck" predictions slip through and
//! cause backpressure during tuning.

use crate::{BottleneckClassifier, TrainPoint};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use streamtune_nn::{Activation, AdamConfig, Bindings, Matrix, Mlp, ParamSet, Tape};

/// NN hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NnConfig {
    /// Hidden layer width.
    pub hidden: usize,
    /// Training epochs (full-batch Adam steps).
    pub epochs: usize,
    /// Adam settings.
    pub adam: AdamConfig,
    /// Initialization seed.
    pub seed: u64,
}

impl Default for NnConfig {
    fn default() -> Self {
        NnConfig {
            hidden: 16,
            epochs: 300,
            adam: AdamConfig {
                lr: 0.02,
                ..Default::default()
            },
            seed: 31,
        }
    }
}

/// The unconstrained MLP classifier.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NnClassifier {
    config: NnConfig,
    params: ParamSet,
    mlp: Option<Mlp>,
    feat_mean: Vec<f64>,
    feat_std: Vec<f64>,
}

impl NnClassifier {
    /// Fresh, unfitted model.
    pub fn new(config: NnConfig) -> Self {
        NnClassifier {
            config,
            params: ParamSet::new(),
            mlp: None,
            feat_mean: Vec::new(),
            feat_std: Vec::new(),
        }
    }

    fn standardized_input(&self, embedding: &[f64], parallelism: u32) -> Vec<f64> {
        let mut x: Vec<f64> = embedding
            .iter()
            .zip(self.feat_mean.iter().zip(&self.feat_std))
            .map(|(&v, (&m, &s))| (v - m) / s)
            .collect();
        x.push(f64::from(parallelism) / streamtune_nn::PARALLELISM_NORM);
        x
    }
}

impl BottleneckClassifier for NnClassifier {
    fn fit(&mut self, data: &[TrainPoint]) {
        assert!(!data.is_empty(), "cannot fit on an empty dataset");
        let dim = data[0].embedding.len() + 1;
        // Standardize embedding dims (tanh saturates on raw GNN scales).
        let n_pts = data.len() as f64;
        let edim = data[0].embedding.len();
        let mut mean = vec![0.0; edim];
        for pt in data {
            for (m, &x) in mean.iter_mut().zip(&pt.embedding) {
                *m += x / n_pts;
            }
        }
        let mut var = vec![0.0; edim];
        for pt in data {
            for ((v, &m), &x) in var.iter_mut().zip(&mean).zip(&pt.embedding) {
                *v += (x - m) * (x - m) / n_pts;
            }
        }
        self.feat_mean = mean;
        self.feat_std = var.into_iter().map(|v| v.sqrt().max(1e-6)).collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed);
        let mut params = ParamSet::new();
        let mlp = Mlp::new(
            &mut params,
            &[dim, self.config.hidden, 1],
            Activation::Tanh,
            Activation::Sigmoid,
            &mut rng,
        );
        let x = Matrix::from_rows(
            &data
                .iter()
                .map(|pt| self.standardized_input(&pt.embedding, pt.parallelism))
                .collect::<Vec<_>>(),
        );
        let y = Matrix::col_vector(
            &data
                .iter()
                .map(|p| if p.bottleneck { 1.0 } else { 0.0 })
                .collect::<Vec<_>>(),
        );
        let mask = Matrix::col_vector(&vec![1.0; data.len()]);
        for _ in 0..self.config.epochs {
            let mut tape = Tape::new();
            let mut bindings = Bindings::new();
            let xv = tape.leaf(x.clone());
            let pred = mlp.forward(&params, &mut tape, &mut bindings, xv);
            let (_, grad) = Tape::bce_grad(tape.value(pred), &y, &mask);
            tape.backward_from(pred, grad);
            params.adam_step(&tape, &bindings, &self.config.adam.clone());
        }
        params.end_training();
        self.params = params;
        self.mlp = Some(mlp);
    }

    fn predict_proba(&self, embedding: &[f64], parallelism: u32) -> f64 {
        let mlp = self.mlp.as_ref().expect("predict before fit");
        let x = Matrix::row_vector(&self.standardized_input(embedding, parallelism));
        mlp.infer(&self.params, &x).get(0, 0)
    }

    fn is_monotonic(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accuracy;

    fn threshold_data(thresholds: &[(f64, u32)]) -> Vec<TrainPoint> {
        let mut data = Vec::new();
        for &(emb, thresh) in thresholds {
            for p in (1..=60).step_by(2) {
                data.push(TrainPoint {
                    embedding: vec![emb, 1.0 - emb],
                    parallelism: p,
                    bottleneck: p < thresh,
                });
            }
        }
        data
    }

    #[test]
    fn fits_training_data() {
        let data = threshold_data(&[(0.2, 12), (0.8, 35)]);
        let mut m = NnClassifier::new(NnConfig::default());
        m.fit(&data);
        assert!(accuracy(&m, &data) > 0.85, "acc {}", accuracy(&m, &data));
    }

    #[test]
    fn reports_non_monotonic() {
        let m = NnClassifier::new(NnConfig::default());
        assert!(!m.is_monotonic());
    }

    #[test]
    #[should_panic(expected = "predict before fit")]
    fn predict_before_fit_panics() {
        let m = NnClassifier::new(NnConfig::default());
        let _ = m.predict_proba(&[0.0], 1);
    }
}
