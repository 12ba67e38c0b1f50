//! The GNN-based dataflow DAG encoder (paper §IV-A).
//!
//! Message passing follows Eq. 1–2 with separate aggregation over upstream
//! and downstream neighbours (data flows directionally, and bottleneck
//! status depends on both which operators feed you and which consume you):
//!
//! ```text
//! H^(t) = ReLU( H^(t-1) W_self + A_in H^(t-1) W_in + A_out H^(t-1) W_out + b )
//! ```
//!
//! where `A_in`/`A_out` are row-normalized predecessor/successor adjacency
//! matrices (mean aggregation). The parallelism-aware update (Eq. 3) is the
//! FUSE layer: `H'^(t) = ReLU([H^(t) ‖ p] W_f + b_f)`, keeping the hidden
//! dimensionality unchanged so the result re-enters message passing.
//!
//! The bottleneck head is a two-layer MLP with a sigmoid output (paper:
//! "two-layer Multilayer Perceptron with a sigmoid function").

use crate::matrix::Matrix;
use crate::mlp::{Activation, Mlp};
use crate::optim::{AdamConfig, Bindings, ParamId, ParamSet};
use crate::sparse::CsrAdj;
use crate::tape::{Tape, Var};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::rc::Rc;
use streamtune_dataflow::{Dataflow, FeatureEncoder};

/// Parallelism degrees are normalized by this constant before entering the
/// FUSE layer (the physical maximum of the paper's Flink testbed).
pub const PARALLELISM_NORM: f64 = 100.0;

/// One training/inference sample: a dataflow DAG lowered to matrices.
///
/// The adjacency is carried twice: dense `n × n` matrices (the reference
/// path, used by the parity tests and the Fig. 11-style ablations) and CSR
/// sparse forms (`csr_in`/`csr_out`, the production message-passing path —
/// DAGs have `O(n)` edges, so `spmm` beats the dense matmul by `n / degree`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GraphSample {
    /// Node features, `n × FEATURE_DIM`.
    pub features: Matrix,
    /// Row-normalized in-neighbour adjacency, `n × n`.
    pub a_in: Matrix,
    /// Row-normalized out-neighbour adjacency, `n × n`.
    pub a_out: Matrix,
    /// CSR form of [`GraphSample::a_in`] (sparse message-passing path).
    pub csr_in: CsrAdj,
    /// CSR form of [`GraphSample::a_out`].
    pub csr_out: CsrAdj,
    /// Per-node parallelism degrees (raw, ≥ 1). Used when training with the
    /// parallelism-aware path.
    pub parallelism: Vec<u32>,
    /// Bottleneck labels: 1.0 bottleneck, 0.0 not, -1.0 unlabeled (Alg. 1).
    pub labels: Vec<f64>,
}

impl GraphSample {
    /// Lower a [`Dataflow`] with known parallelism/labels into a sample.
    pub fn from_dataflow(
        flow: &Dataflow,
        encoder: &FeatureEncoder,
        parallelism: &[u32],
        labels: &[f64],
    ) -> Self {
        assert_eq!(parallelism.len(), flow.num_ops());
        assert_eq!(labels.len(), flow.num_ops());
        let rows = encoder.encode_dataflow(flow);
        let features = Matrix::from_rows(&rows);
        let (a_in, a_out) = adjacency_matrices(flow);
        let csr_in = CsrAdj::from_dense(&a_in);
        let csr_out = CsrAdj::from_dense(&a_out);
        GraphSample {
            features,
            a_in,
            a_out,
            csr_in,
            csr_out,
            parallelism: parallelism.to_vec(),
            labels: labels.to_vec(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.features.rows()
    }

    /// Mask of labeled nodes as an `n × 1` matrix.
    pub fn label_mask(&self) -> Matrix {
        Matrix::col_vector(
            &self
                .labels
                .iter()
                .map(|&l| if l < 0.0 { 0.0 } else { 1.0 })
                .collect::<Vec<_>>(),
        )
    }

    /// Targets with unlabeled entries zeroed, `n × 1`.
    pub fn label_targets(&self) -> Matrix {
        Matrix::col_vector(
            &self
                .labels
                .iter()
                .map(|&l| if l < 0.0 { 0.0 } else { l })
                .collect::<Vec<_>>(),
        )
    }

    /// Normalized parallelism column `n × 1`.
    pub fn parallelism_column(&self) -> Matrix {
        Matrix::col_vector(
            &self
                .parallelism
                .iter()
                .map(|&p| f64::from(p) / PARALLELISM_NORM)
                .collect::<Vec<_>>(),
        )
    }
}

/// Row-normalized predecessor and successor adjacency matrices of `flow`.
pub fn adjacency_matrices(flow: &Dataflow) -> (Matrix, Matrix) {
    let n = flow.num_ops();
    let mut a_in = Matrix::zeros(n, n);
    let mut a_out = Matrix::zeros(n, n);
    for op in flow.op_ids() {
        let preds = flow.preds(op);
        if !preds.is_empty() {
            let w = 1.0 / preds.len() as f64;
            for &p in preds {
                a_in.set(op.index(), p.index(), w);
            }
        }
        let succs = flow.succs(op);
        if !succs.is_empty() {
            let w = 1.0 / succs.len() as f64;
            for &s in succs {
                a_out.set(op.index(), s.index(), w);
            }
        }
    }
    (a_in, a_out)
}

/// Hyperparameters of the encoder.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GnnConfig {
    /// Input feature dimension (normally [`streamtune_dataflow::FEATURE_DIM`]).
    pub input_dim: usize,
    /// Hidden embedding dimension.
    pub hidden_dim: usize,
    /// Number of message-passing iterations `T`.
    pub message_passing_steps: usize,
    /// Adam settings for pre-training.
    pub adam: AdamConfig,
    /// Aggregate neighbour messages with dense `n × n` matmuls instead of
    /// CSR `spmm`. The two paths are bit-identical; dense exists for parity
    /// tests and ablation. Default: `false` (sparse).
    pub dense_messages: bool,
}

impl Default for GnnConfig {
    fn default() -> Self {
        GnnConfig {
            input_dim: streamtune_dataflow::FEATURE_DIM,
            hidden_dim: 32,
            message_passing_steps: 3,
            adam: AdamConfig::default(),
            dense_messages: false,
        }
    }
}

/// One message-passing layer's parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GnnLayer {
    w_self: ParamId,
    w_in: ParamId,
    w_out: ParamId,
    b: ParamId,
    /// FUSE parameters: `(hidden+1) × hidden` + bias.
    w_fuse: ParamId,
    b_fuse: ParamId,
}

/// The GNN-based encoder with its bottleneck prediction head.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GnnEncoder {
    /// Hyperparameters.
    pub config: GnnConfig,
    params: ParamSet,
    input_proj_w: ParamId,
    input_proj_b: ParamId,
    layers: Vec<GnnLayer>,
    head: Mlp,
}

impl GnnEncoder {
    /// Initialize a fresh encoder.
    pub fn new<R: Rng>(config: GnnConfig, rng: &mut R) -> Self {
        let mut params = ParamSet::new();
        let h = config.hidden_dim;
        let input_proj_w = params.register(Matrix::xavier(config.input_dim, h, rng));
        let input_proj_b = params.register(Matrix::zeros(1, h));
        let layers = (0..config.message_passing_steps)
            .map(|_| GnnLayer {
                w_self: params.register(Matrix::xavier(h, h, rng)),
                w_in: params.register(Matrix::xavier(h, h, rng)),
                w_out: params.register(Matrix::xavier(h, h, rng)),
                b: params.register(Matrix::zeros(1, h)),
                w_fuse: params.register(Matrix::xavier(h + 1, h, rng)),
                b_fuse: params.register(Matrix::zeros(1, h)),
            })
            .collect();
        // "Two-layer MLP with a sigmoid function" (paper §IV-A).
        let head = Mlp::new(
            &mut params,
            &[h, h / 2, 1],
            Activation::Relu,
            Activation::Sigmoid,
            rng,
        );
        GnnEncoder {
            config,
            params,
            input_proj_w,
            input_proj_b,
            layers,
            head,
        }
    }

    /// Embedding dimension.
    pub fn hidden_dim(&self) -> usize {
        self.config.hidden_dim
    }

    /// Number of scalar parameters.
    pub fn num_parameters(&self) -> usize {
        self.params.num_scalars()
    }

    /// Free the optimizer state ([`ParamSet::end_training`]): from here
    /// on the encoder only embeds and predicts.
    pub fn end_training(&mut self) {
        self.params.end_training();
    }

    /// Forward pass on the tape. When `with_parallelism` is true the FUSE
    /// update injects the sample's parallelism after every message-passing
    /// iteration (parallelism-aware); otherwise it is skipped entirely
    /// (parallelism-agnostic embeddings, used online).
    fn forward(
        &self,
        tape: &mut Tape,
        bindings: &mut Bindings,
        sample: &GraphSample,
        with_parallelism: bool,
    ) -> Var {
        let x = tape.leaf_copy(&sample.features);
        // Dense path binds the adjacencies as constant leaves; the sparse
        // path hands CSR constants straight to `spmm` (no n×n tape nodes).
        let dense_adj = if self.config.dense_messages {
            Some((tape.leaf_copy(&sample.a_in), tape.leaf_copy(&sample.a_out)))
        } else {
            None
        };
        let sparse_adj = if self.config.dense_messages {
            None
        } else {
            Some((
                Rc::new(sample.csr_in.clone()),
                Rc::new(sample.csr_out.clone()),
            ))
        };
        let pw = self.params.bind(self.input_proj_w, tape, bindings);
        let pb = self.params.bind(self.input_proj_b, tape, bindings);
        let mut h = tape.linear_bias_relu(x, pw, pb);
        let p_col = if with_parallelism {
            Some(tape.leaf(sample.parallelism_column()))
        } else {
            None
        };
        for layer in &self.layers {
            let w_self = self.params.bind(layer.w_self, tape, bindings);
            let w_in = self.params.bind(layer.w_in, tape, bindings);
            let w_out = self.params.bind(layer.w_out, tape, bindings);
            let b = self.params.bind(layer.b, tape, bindings);
            let own = tape.matmul(h, w_self);
            let (msg_in, msg_out) = match (&dense_adj, &sparse_adj) {
                (Some((a_in, a_out)), _) => (tape.matmul(*a_in, h), tape.matmul(*a_out, h)),
                (None, Some((c_in, c_out))) => (
                    tape.spmm(Rc::clone(c_in), h),
                    tape.spmm(Rc::clone(c_out), h),
                ),
                (None, None) => unreachable!("one adjacency form is always set"),
            };
            let agg_in = tape.matmul(msg_in, w_in);
            let agg_out = tape.matmul(msg_out, w_out);
            let s1 = tape.add(own, agg_in);
            let s2 = tape.add(s1, agg_out);
            h = tape.add_bias_relu(s2, b);
            if let Some(p) = p_col {
                // FUSE (Eq. 3): integrate parallelism, keep dimensionality.
                let wf = self.params.bind(layer.w_fuse, tape, bindings);
                let bf = self.params.bind(layer.b_fuse, tape, bindings);
                let cat = tape.concat_cols(h, p);
                h = tape.linear_bias_relu(cat, wf, bf);
            }
        }
        h
    }

    /// One supervised pre-training step on a batch of graphs; returns the
    /// mean BCE loss over labeled operators (paper's `L_total`). The tape
    /// and its buffers are reused across the whole batch.
    pub fn train_step(&mut self, batch: &[GraphSample]) -> f64 {
        assert!(!batch.is_empty());
        let mut total_loss = 0.0;
        let mut tape = Tape::new();
        let mut bindings = Bindings::new();
        let adam = self.config.adam.clone();
        for sample in batch {
            tape.reset();
            bindings.clear();
            let h = self.forward(&mut tape, &mut bindings, sample, true);
            let pred = self.head.forward(&self.params, &mut tape, &mut bindings, h);
            let (loss, grad) = Tape::bce_grad(
                tape.value(pred),
                &sample.label_targets(),
                &sample.label_mask(),
            );
            tape.backward_from(pred, grad);
            self.params.adam_step(&tape, &bindings, &adam);
            total_loss += loss;
        }
        total_loss / batch.len() as f64
    }

    /// Parallelism-agnostic operator embeddings, `n × hidden_dim`
    /// (Algorithm 2 line 7: `h_v` via `enc_c(G)`).
    pub fn embed_agnostic(&self, sample: &GraphSample) -> Matrix {
        let mut tape = Tape::new();
        self.embed_agnostic_with(&mut tape, sample).clone()
    }

    /// [`GnnEncoder::embed_agnostic`] reusing a caller-provided tape: the
    /// tape is reset and the embedding is borrowed from it, so batch
    /// embedding loops allocate nothing after the first call.
    pub fn embed_agnostic_with<'t>(&self, tape: &'t mut Tape, sample: &GraphSample) -> &'t Matrix {
        tape.reset();
        let mut bindings = Bindings::new();
        let h = self.forward(tape, &mut bindings, sample, false);
        tape.value(h)
    }

    /// Parallelism-aware embeddings (pre-training path).
    pub fn embed_aware(&self, sample: &GraphSample) -> Matrix {
        let mut tape = Tape::new();
        let mut bindings = Bindings::new();
        let h = self.forward(&mut tape, &mut bindings, sample, true);
        tape.value(h).clone()
    }

    /// Bottleneck probabilities per operator (`n × 1`), parallelism-aware.
    pub fn predict_bottleneck(&self, sample: &GraphSample) -> Matrix {
        let h = self.embed_aware(sample);
        self.head.infer(&self.params, &h)
    }

    /// Mean BCE loss of the current model over labeled operators of `batch`
    /// without updating parameters (validation).
    pub fn evaluate(&self, batch: &[GraphSample]) -> f64 {
        let mut total = 0.0;
        for sample in batch {
            let pred = self.predict_bottleneck(sample);
            let (loss, _) = Tape::bce_grad(&pred, &sample.label_targets(), &sample.label_mask());
            total += loss;
        }
        total / batch.len() as f64
    }

    /// Classification accuracy on labeled operators of `batch` at 0.5.
    pub fn accuracy(&self, batch: &[GraphSample]) -> f64 {
        let mut correct = 0usize;
        let mut total = 0usize;
        for sample in batch {
            let pred = self.predict_bottleneck(sample);
            for (i, &l) in sample.labels.iter().enumerate() {
                if l < 0.0 {
                    continue;
                }
                total += 1;
                let yhat = if pred.get(i, 0) >= 0.5 { 1.0 } else { 0.0 };
                if yhat == l {
                    correct += 1;
                }
            }
        }
        if total == 0 {
            return 1.0;
        }
        correct as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use streamtune_dataflow::{DataflowBuilder, Operator};

    fn tiny_flow(rate: f64) -> Dataflow {
        let mut b = DataflowBuilder::new(format!("gnn-test-{rate}"));
        let s = b.add_source("s", rate);
        let f = b.add_op("f", Operator::filter(0.5, 32, 32));
        let m = b.add_op("m", Operator::map(32, 32));
        let k = b.add_op("k", Operator::sink(32));
        b.connect_source(s, f);
        b.connect(f, m);
        b.connect(m, k);
        b.build().unwrap()
    }

    fn sample(rate: f64, parallelism: &[u32], labels: &[f64]) -> GraphSample {
        GraphSample::from_dataflow(
            &tiny_flow(rate),
            &FeatureEncoder::default(),
            parallelism,
            labels,
        )
    }

    #[test]
    fn adjacency_rows_are_normalized() {
        let flow = tiny_flow(100.0);
        let (a_in, a_out) = adjacency_matrices(&flow);
        for r in 0..flow.num_ops() {
            let in_sum: f64 = a_in.row(r).iter().sum();
            let out_sum: f64 = a_out.row(r).iter().sum();
            assert!(in_sum == 0.0 || (in_sum - 1.0).abs() < 1e-12);
            assert!(out_sum == 0.0 || (out_sum - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn embeddings_have_hidden_dim() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let enc = GnnEncoder::new(GnnConfig::default(), &mut rng);
        let s = sample(100.0, &[1, 1, 1], &[0.0, 0.0, 0.0]);
        let e = enc.embed_agnostic(&s);
        assert_eq!(e.shape(), (3, enc.hidden_dim()));
    }

    #[test]
    fn agnostic_embedding_ignores_parallelism() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let enc = GnnEncoder::new(GnnConfig::default(), &mut rng);
        let a = sample(100.0, &[1, 1, 1], &[0.0, 0.0, 0.0]);
        let b = sample(100.0, &[50, 50, 50], &[0.0, 0.0, 0.0]);
        assert_eq!(enc.embed_agnostic(&a), enc.embed_agnostic(&b));
        assert_ne!(enc.embed_aware(&a), enc.embed_aware(&b));
    }

    #[test]
    fn training_reduces_loss_on_separable_labels() {
        // Low parallelism → bottleneck(1), high parallelism → 0, with the
        // same structure: the FUSE path must pick up the signal.
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut enc = GnnEncoder::new(
            GnnConfig {
                hidden_dim: 16,
                message_passing_steps: 2,
                adam: AdamConfig {
                    lr: 0.02,
                    ..Default::default()
                },
                ..Default::default()
            },
            &mut rng,
        );
        let batch = vec![
            sample(1000.0, &[1, 1, 1], &[1.0, 1.0, -1.0]),
            sample(1000.0, &[40, 40, 40], &[0.0, 0.0, -1.0]),
            sample(2000.0, &[2, 2, 2], &[1.0, 1.0, -1.0]),
            sample(2000.0, &[60, 60, 60], &[0.0, 0.0, -1.0]),
        ];
        let first = enc.train_step(&batch);
        for _ in 0..120 {
            enc.train_step(&batch);
        }
        let last = enc.evaluate(&batch);
        assert!(last < first * 0.5, "loss {first} → {last} should halve");
        assert!(
            enc.accuracy(&batch) >= 0.75,
            "accuracy {}",
            enc.accuracy(&batch)
        );
    }

    #[test]
    fn unlabeled_operators_do_not_contribute() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let enc = GnnEncoder::new(GnnConfig::default(), &mut rng);
        let all_unlabeled = sample(100.0, &[1, 1, 1], &[-1.0, -1.0, -1.0]);
        let loss = enc.evaluate(&[all_unlabeled]);
        assert_eq!(loss, 0.0);
    }

    #[test]
    fn dense_and_sparse_message_passing_are_bit_identical() {
        // Same seed → same initial weights; the two adjacency forms must
        // produce the same embeddings, predictions and training trajectory.
        let mk = |dense: bool| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(21);
            GnnEncoder::new(
                GnnConfig {
                    dense_messages: dense,
                    hidden_dim: 16,
                    message_passing_steps: 2,
                    ..Default::default()
                },
                &mut rng,
            )
        };
        let mut dense = mk(true);
        let mut sparse = mk(false);
        let batch = vec![
            sample(1000.0, &[1, 2, 3], &[1.0, 0.0, -1.0]),
            sample(500.0, &[10, 20, 30], &[0.0, 1.0, 0.0]),
        ];
        for s in &batch {
            assert_eq!(dense.embed_agnostic(s), sparse.embed_agnostic(s));
            assert_eq!(dense.embed_aware(s), sparse.embed_aware(s));
            assert_eq!(dense.predict_bottleneck(s), sparse.predict_bottleneck(s));
        }
        for _ in 0..5 {
            let ld = dense.train_step(&batch);
            let ls = sparse.train_step(&batch);
            assert_eq!(ld, ls, "training losses must match exactly");
        }
        for s in &batch {
            assert_eq!(dense.predict_bottleneck(s), sparse.predict_bottleneck(s));
        }
    }

    #[test]
    fn structure_changes_embeddings() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let enc = GnnEncoder::new(GnnConfig::default(), &mut rng);
        let chain = sample(100.0, &[1, 1, 1], &[0.0; 3]);
        // Same ops, different wiring: f → {m, k} fan-out.
        let mut b = DataflowBuilder::new("gnn-test-100"); // same name → same features
        let s = b.add_source("s", 100.0);
        let f = b.add_op("f", Operator::filter(0.5, 32, 32));
        let m = b.add_op("m", Operator::map(32, 32));
        let k = b.add_op("k", Operator::sink(32));
        b.connect_source(s, f);
        b.connect(f, m);
        b.connect(f, k);
        let fanout_flow = b.build().unwrap();
        let fanout = GraphSample::from_dataflow(
            &fanout_flow,
            &FeatureEncoder::default(),
            &[1, 1, 1],
            &[0.0; 3],
        );
        assert_ne!(enc.embed_agnostic(&chain), enc.embed_agnostic(&fanout));
    }
}
