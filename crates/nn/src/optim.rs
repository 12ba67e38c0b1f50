//! Parameter storage and optimizers (SGD, Adam).

use crate::matrix::Matrix;
use crate::tape::{Tape, Var};
use serde::{Deserialize, Serialize};

/// Handle to a trainable parameter inside a [`ParamSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParamId(usize);

/// A set of trainable parameters with Adam moment buffers.
///
/// The moments are training-only state: they are allocated as zeros on
/// the first [`ParamSet::adam_step`] and freed by
/// [`ParamSet::end_training`], and they are serialized only while they
/// exist, so a trained model that serves inference neither carries nor
/// writes them. A model written with moments still loads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamSet {
    values: Vec<Matrix>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    m: Vec<Matrix>,
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    v: Vec<Matrix>,
    step: u64,
}

impl Default for ParamSet {
    fn default() -> Self {
        Self::new()
    }
}

impl ParamSet {
    /// Empty set.
    pub fn new() -> Self {
        ParamSet {
            values: Vec::new(),
            m: Vec::new(),
            v: Vec::new(),
            step: 0,
        }
    }

    /// Register a parameter; returns its id.
    pub fn register(&mut self, value: Matrix) -> ParamId {
        self.values.push(value);
        ParamId(self.values.len() - 1)
    }

    /// Current value of a parameter.
    pub fn value(&self, id: ParamId) -> &Matrix {
        &self.values[id.0]
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar parameter count.
    pub fn num_scalars(&self) -> usize {
        self.values.iter().map(|m| m.data().len()).sum()
    }

    /// Bind a parameter into `tape` as a leaf (copied into a pooled tape
    /// buffer); record the binding for the optimizer step.
    pub fn bind(&self, id: ParamId, tape: &mut Tape, bindings: &mut Bindings) -> Var {
        let var = tape.leaf_copy(&self.values[id.0]);
        bindings.pairs.push((id, var));
        var
    }

    /// Free the Adam moments: the parameters only serve inference from
    /// here on. A later [`ParamSet::adam_step`] restarts them from zero
    /// (the step count, and so the bias correction, carries on).
    pub fn end_training(&mut self) {
        self.m = Vec::new();
        self.v = Vec::new();
    }

    /// Apply one Adam update from the gradients accumulated on `tape` for
    /// the bound parameters. Parameters without moments yet (the first
    /// step, or parameters registered since) start them at zero.
    pub fn adam_step(&mut self, tape: &Tape, bindings: &Bindings, cfg: &AdamConfig) {
        for moments in [&mut self.m, &mut self.v] {
            let have = moments.len();
            moments.extend(self.values[have..].iter().map(|p| {
                let (r, c) = p.shape();
                Matrix::zeros(r, c)
            }));
        }
        self.step += 1;
        let t = self.step as f64;
        let bc1 = 1.0 - cfg.beta1.powf(t);
        let bc2 = 1.0 - cfg.beta2.powf(t);
        for &(id, var) in &bindings.pairs {
            let i = id.0;
            let params = self.values[i].data_mut().iter_mut();
            let moments = self.m[i].data_mut().iter_mut().zip(self.v[i].data_mut());
            for ((x, (m, v)), &grad) in params.zip(moments).zip(tape.grad(var).data()) {
                *m = cfg.beta1 * *m + (1.0 - cfg.beta1) * grad;
                *v = cfg.beta2 * *v + (1.0 - cfg.beta2) * grad * grad;
                let mhat = *m / bc1;
                let vhat = *v / bc2;
                *x -= cfg.lr * mhat / (vhat.sqrt() + cfg.eps);
            }
        }
    }

    /// Plain SGD update (used by tests and the SVM head).
    pub fn sgd_step(&mut self, tape: &Tape, bindings: &Bindings, lr: f64) {
        for &(id, var) in &bindings.pairs {
            let g = tape.grad(var);
            let i = id.0;
            for k in 0..g.data().len() {
                self.values[i].data_mut()[k] -= lr * g.data()[k];
            }
        }
    }
}

/// Records which tape leaves correspond to which parameters in one forward.
#[derive(Debug, Default)]
pub struct Bindings {
    pairs: Vec<(ParamId, Var)>,
}

impl Bindings {
    /// Empty bindings for a fresh forward pass.
    pub fn new() -> Self {
        Bindings::default()
    }

    /// Clear for reuse across forward passes (keeps the allocation).
    pub fn clear(&mut self) {
        self.pairs.clear();
    }
}

/// Adam hyperparameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate.
    pub lr: f64,
    /// First-moment decay.
    pub beta1: f64,
    /// Second-moment decay.
    pub beta2: f64,
    /// Numerical floor.
    pub eps: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        AdamConfig {
            lr: 1e-2,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimize ‖x − target‖² with Adam; must converge.
    #[test]
    fn adam_minimizes_quadratic() {
        let mut params = ParamSet::new();
        let x = params.register(Matrix::row_vector(&[5.0, -3.0]));
        let target = Matrix::row_vector(&[1.0, 2.0]);
        let cfg = AdamConfig {
            lr: 0.1,
            ..Default::default()
        };
        for _ in 0..500 {
            let mut tape = Tape::new();
            let mut bindings = Bindings::new();
            let xv = params.bind(x, &mut tape, &mut bindings);
            let t = tape.leaf(target.clone());
            let d = tape.sub(xv, t);
            let sq = tape.mul(d, d);
            let ones = tape.leaf(Matrix::col_vector(&[1.0, 1.0]));
            let loss = tape.matmul(sq, ones);
            tape.backward_from(loss, Matrix::full(1, 1, 1.0));
            params.adam_step(&tape, &bindings, &cfg);
        }
        let v = params.value(x);
        assert!((v.get(0, 0) - 1.0).abs() < 1e-3, "{v:?}");
        assert!((v.get(0, 1) - 2.0).abs() < 1e-3, "{v:?}");
    }

    #[test]
    fn sgd_descends() {
        let mut params = ParamSet::new();
        let x = params.register(Matrix::row_vector(&[4.0]));
        for _ in 0..100 {
            let mut tape = Tape::new();
            let mut b = Bindings::new();
            let xv = params.bind(x, &mut tape, &mut b);
            let loss = tape.mul(xv, xv);
            tape.backward_from(loss, Matrix::full(1, 1, 1.0));
            params.sgd_step(&tape, &b, 0.1);
        }
        assert!(params.value(x).get(0, 0).abs() < 1e-3);
    }

    /// Moments exist only between the first step and `end_training`.
    #[test]
    fn moments_are_training_only_state() {
        let mut params = ParamSet::new();
        let x = params.register(Matrix::row_vector(&[4.0, -1.0]));
        assert!(!serde_json::to_string(&params).unwrap().contains("\"m\""));
        let step = |params: &mut ParamSet| {
            let mut tape = Tape::new();
            let mut b = Bindings::new();
            let xv = params.bind(x, &mut tape, &mut b);
            let loss = tape.mul(xv, xv);
            tape.backward_from(loss, Matrix::full(1, 2, 1.0));
            params.adam_step(&tape, &b, &AdamConfig::default());
        };
        step(&mut params);
        let trained = serde_json::to_string(&params).unwrap();
        assert!(trained.contains("\"m\"") && trained.contains("\"v\""));

        // A model written with moments loads with them; ending training
        // drops them and leaves the values alone.
        let mut loaded: ParamSet = serde_json::from_str(&trained).unwrap();
        assert_eq!(loaded, params);
        loaded.end_training();
        let served = serde_json::to_string(&loaded).unwrap();
        assert!(!served.contains("\"m\"") && !served.contains("\"v\""));
        assert_eq!(loaded.value(x), params.value(x));
        // Training can resume; the moments restart from zero.
        step(&mut loaded);
        assert_eq!(loaded.m.len(), 1);
    }

    #[test]
    fn param_registration_counts() {
        let mut p = ParamSet::new();
        assert!(p.is_empty());
        p.register(Matrix::zeros(2, 3));
        p.register(Matrix::zeros(1, 4));
        assert_eq!(p.len(), 2);
        assert_eq!(p.num_scalars(), 10);
    }
}
