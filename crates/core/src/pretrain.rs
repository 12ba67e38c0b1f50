//! Offline pre-training (paper §IV-A, §IV-C).
//!
//! Pipeline: execution histories → Algorithm 1 labels → GED k-means over
//! the distinct DAG structures → one GNN encoder per cluster, trained on
//! operator-level bottleneck classification with parallelism-aware FUSE
//! updates → per-cluster warm-up datasets of `(agnostic embedding,
//! parallelism, label)` triples for the online phase.
//!
//! When the corpus is too small for meaningful clustering, the §VII
//! fallback applies: one *global* encoder trained on everything.

use crate::label::{bottleneck_labels, LabelConfig};
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use streamtune_cluster::{cluster_dags_cached, ClusterConfig};
use streamtune_dataflow::{Dataflow, FeatureEncoder, GraphSignature};
use streamtune_ged::{ged_with, parallel_map, Bound, GedCache, GraphView, Parallelism, StructId};
use streamtune_model::TrainPoint;
use streamtune_nn::{GnnConfig, GnnEncoder, GraphSample, Tape};
use streamtune_workloads::history::ExecutionRecord;

/// Log-normalization constant for the per-operator input-rate feature that
/// is appended to every `M_f` embedding: `ln(1 + rate) / ln(1 + 1e8)`.
///
/// The paper relies on message passing to propagate source rates into the
/// operator embeddings; a compact encoder does this imperfectly, so we
/// additionally expose the operator's *observed input rate* (the same
/// signal every Flink/Timely dashboard reports) as an explicit feature.
/// Documented as an implementation deviation in DESIGN.md §4.
pub const RATE_FEATURE_NORM: f64 = 18.420_680_743_952_367; // ln(1e8)

/// Normalized input-rate feature.
pub fn rate_feature(rate: f64) -> f64 {
    (1.0 + rate.max(0.0)).ln() / RATE_FEATURE_NORM
}

/// Pre-training configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PretrainConfig {
    /// GNN hyperparameters.
    pub gnn: GnnConfig,
    /// Clustering settings (k chosen by elbow by default).
    pub cluster: ClusterConfig,
    /// Training epochs over each cluster's sample set.
    pub epochs: usize,
    /// Algorithm 1 thresholds.
    pub label: LabelConfig,
    /// Minimum number of *distinct DAG structures* required to cluster at
    /// all; below this the §VII global-encoder fallback is used.
    pub min_structures_for_clustering: usize,
    /// Minimum warm-up points per cluster: sparse clusters are topped up
    /// with samples from the rest of the corpus (embedded by the cluster's
    /// own encoder) so the online model never starts blind.
    pub min_warmup_points: usize,
    /// Initialization seed.
    pub seed: u64,
    /// Worker threads for the independent per-cluster training loops (each
    /// cluster has its own seeded RNG, so any thread count is bit-identical).
    pub parallelism: Parallelism,
}

impl Default for PretrainConfig {
    fn default() -> Self {
        PretrainConfig {
            gnn: GnnConfig::default(),
            cluster: ClusterConfig::default(),
            epochs: 40,
            label: LabelConfig::default(),
            min_structures_for_clustering: 6,
            min_warmup_points: 150,
            seed: 1234,
            parallelism: Parallelism::Auto,
        }
    }
}

impl PretrainConfig {
    /// A reduced-cost configuration for tests and examples.
    pub fn fast() -> Self {
        PretrainConfig {
            gnn: GnnConfig {
                hidden_dim: 16,
                message_passing_steps: 2,
                ..Default::default()
            },
            cluster: ClusterConfig {
                k_max: 4,
                max_iters: 5,
                ..Default::default()
            },
            epochs: 15,
            ..Default::default()
        }
    }
}

/// One pre-trained cluster: its encoder and warm-up data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ClusterModel {
    /// The cluster's similarity-center DAG structure.
    pub center: GraphView,
    /// The pre-trained GNN encoder.
    pub encoder: GnnEncoder,
    /// Warm-up dataset: `(agnostic embedding, parallelism, label)` for every
    /// labeled operator of every member record (Algorithm 2, line 3).
    pub warmup: Vec<TrainPoint>,
    /// Final training loss of the encoder on its cluster.
    pub final_loss: f64,
}

/// The output of the offline phase.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Pretrained {
    /// One model per cluster (a single entry = the §VII global fallback).
    pub clusters: Vec<ClusterModel>,
    /// Whether the global fallback was used instead of clustering.
    pub global_fallback: bool,
    /// Feature encoder bounds shared by offline and online phases.
    pub features: FeatureEncoder,
    /// GED cap used for nearest-center assignment.
    pub ged_cap: usize,
}

impl Pretrained {
    /// Free every encoder's optimizer state. Freshly trained bundles hold
    /// none; a bundle written by an older build still carries it after
    /// loading, and a loaded bundle only embeds.
    pub fn end_training(&mut self) {
        for cluster in &mut self.clusters {
            cluster.encoder.end_training();
        }
    }

    /// Algorithm 2 line 1–2: assign a target DAG to its nearest cluster —
    /// the argmin of [`Self::center_distances`], ties going to the lower
    /// index — and return that cluster's model. Returns `(cluster index,
    /// model)`.
    pub fn assign(&self, flow: &Dataflow) -> (usize, &ClusterModel) {
        if self.clusters.len() == 1 {
            return (0, &self.clusters[0]);
        }
        let (idx, _) = self
            .center_distances(flow)
            .into_iter()
            .enumerate()
            .min_by_key(|&(c, d)| (d, c))
            .expect("a model has at least one cluster");
        (idx, &self.clusters[idx])
    }

    /// Total warm-up points across clusters.
    pub fn total_warmup_points(&self) -> usize {
        self.clusters.iter().map(|c| c.warmup.len()).sum()
    }

    /// Capped GED from a target DAG to every cluster center, in cluster
    /// order (distances above [`Self::ged_cap`] read `ged_cap + 1`).
    ///
    /// Pure: runs fresh threshold-pruned A\* searches against the stored
    /// centers without touching any [`GedCache`] memoization state, so
    /// audit-trail capture can never perturb later assignment decisions.
    /// The daemon's job manager (`streamtune-serve`) memoizes the result
    /// per DAG structure.
    pub fn center_distances(&self, flow: &Dataflow) -> Vec<usize> {
        let view = GraphView::of(flow);
        self.clusters
            .iter()
            .map(|c| ged_with(&view, &c.center, Bound::LabelSet, self.ged_cap).capped())
            .collect()
    }
}

/// Pretrain phase names, in pipeline order, as exposed on the
/// `streamtune_pretrain_phase_duration_nanoseconds{phase=...}` histogram.
pub const PRETRAIN_PHASES: [&str; 4] = ["label", "intern", "cluster", "train"];

/// Returns a recorder that logs one phase's elapsed wall-clock time into
/// the per-phase duration histogram and hands back the elapsed
/// nanoseconds. Timing is observational only: it never feeds back into
/// the pre-training pipeline.
fn phase_histogram() -> impl Fn(&str, std::time::Instant) -> u64 {
    |phase: &str, start: std::time::Instant| {
        let elapsed = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        streamtune_telemetry::global()
            .histogram_with(
                "streamtune_pretrain_phase_duration_nanoseconds",
                "Wall-clock duration of each offline pre-training phase.",
                &[("phase", phase)],
            )
            .record(elapsed);
        elapsed
    }
}

/// The offline pre-trainer.
#[derive(Debug, Clone)]
pub struct Pretrainer {
    config: PretrainConfig,
}

impl Pretrainer {
    /// New pre-trainer with `config`.
    pub fn new(config: PretrainConfig) -> Self {
        Pretrainer { config }
    }

    /// Label a corpus with Algorithm 1 and lower it to GNN samples.
    fn samples(&self, records: &[ExecutionRecord], features: &FeatureEncoder) -> Vec<GraphSample> {
        records
            .iter()
            .map(|r| {
                let labels = bottleneck_labels(&r.flow, &r.observation, &self.config.label);
                GraphSample::from_dataflow(&r.flow, features, r.assignment.as_slice(), &labels)
            })
            .collect()
    }

    /// Run the full offline phase on an execution-history corpus.
    ///
    /// Performance shape: distinct DAG structures are interned into one
    /// corpus-level [`GedCache`] (duplicates collapse to a multiplicity
    /// weight), the weighted GED k-means reuses that cache across its whole
    /// elbow sweep, and the independent per-cluster GNN training loops fan
    /// out over scoped worker threads. Every stage is bit-for-bit
    /// deterministic under a fixed seed regardless of thread count.
    pub fn run(&self, records: &[ExecutionRecord]) -> Pretrained {
        let mut cache = GedCache::new(Bound::LabelSet, self.config.cluster.ged_cap);
        self.run_with_cache(records, &mut cache)
    }

    /// [`Pretrainer::run`], but interning into (and memoizing through) a
    /// caller-owned [`GedCache`] — the warm-start path. A cache restored
    /// from a prior run's snapshot already holds every A\* fact the
    /// clustering sweep will ask for, so a repeated pre-training run does
    /// no GED searches at all; a cold (empty) cache makes this identical
    /// to [`Pretrainer::run`]. The cache may contain structures beyond
    /// this corpus (e.g. from an earlier, larger corpus): clustering is
    /// restricted to the structures this corpus actually interns, and
    /// memoized facts are sound regardless of the cap they were computed
    /// under (they are exact distances or proven lower bounds, escalated
    /// on demand).
    pub fn run_with_cache(&self, records: &[ExecutionRecord], cache: &mut GedCache) -> Pretrained {
        assert!(!records.is_empty(), "empty execution history");
        let phase_timer = phase_histogram();
        let features = FeatureEncoder::default();
        let phase_start = std::time::Instant::now();
        let samples = self.samples(records, &features);
        let label_elapsed = phase_timer("label", phase_start);

        // Intern distinct DAG structures (many records share a structure).
        let phase_start = std::time::Instant::now();
        let record_structure: Vec<StructId> = records
            .iter()
            .map(|r| cache.intern(&GraphView::of(&r.flow), &GraphSignature::of(&r.flow)))
            .collect();
        // This corpus' distinct structures, in interned-id order. With a
        // cold cache this is exactly 0..cache.len(); a warm cache may hold
        // foreign structures, which must not join the clustering.
        let mut distinct: Vec<StructId> = record_structure.clone();
        distinct.sort_unstable();
        distinct.dedup();
        let mut position = vec![usize::MAX; cache.len()];
        for (pos, &s) in distinct.iter().enumerate() {
            position[s] = pos;
        }
        let intern_elapsed = phase_timer("intern", phase_start);

        let phase_start = std::time::Instant::now();
        let use_clustering = distinct.len() >= self.config.min_structures_for_clustering;
        let (memberships, centers): (Vec<usize>, Vec<GraphView>) = if use_clustering {
            // Cluster the distinct structures, weighted by multiplicity.
            let mut weights = vec![0.0f64; distinct.len()];
            for &s in &record_structure {
                weights[position[s]] += 1.0;
            }
            let clustering = cluster_dags_cached(cache, &distinct, &weights, &self.config.cluster);
            let centers = clustering
                .centers
                .iter()
                .map(|&g| cache.graph(distinct[g]).clone())
                .collect();
            (
                record_structure
                    .iter()
                    .map(|&s| clustering.assignments[position[s]])
                    .collect(),
                centers,
            )
        } else {
            // §VII fallback: one global cluster centered on the first DAG.
            (
                vec![0; records.len()],
                vec![cache.graph(record_structure[0]).clone()],
            )
        };
        let cluster_elapsed = phase_timer("cluster", phase_start);

        // Per-cluster pre-training is embarrassingly parallel: every
        // cluster has its own RNG seeded from (seed, cluster index), so the
        // fan-out only partitions work and any thread count produces the
        // same encoders and warm-up sets.
        let phase_start = std::time::Instant::now();
        let cluster_indices: Vec<usize> = (0..centers.len()).collect();
        let clusters = parallel_map(self.config.parallelism, &cluster_indices, |&c| {
            self.train_cluster(c, &centers[c], &samples, &memberships, records)
        });
        let train_elapsed = phase_timer("train", phase_start);
        streamtune_telemetry::emit_with(
            streamtune_telemetry::Level::Debug,
            "core.pretrain",
            format!(
                "pre-trained {} cluster(s) over {} record(s)",
                clusters.len(),
                records.len()
            ),
            &[
                ("label_us", &(label_elapsed / 1_000).to_string()),
                ("intern_us", &(intern_elapsed / 1_000).to_string()),
                ("cluster_us", &(cluster_elapsed / 1_000).to_string()),
                ("train_us", &(train_elapsed / 1_000).to_string()),
            ],
        );

        Pretrained {
            clusters,
            global_fallback: !use_clustering,
            features,
            ged_cap: self.config.cluster.ged_cap,
        }
    }

    /// Train one cluster's encoder and harvest its warm-up dataset.
    fn train_cluster(
        &self,
        c: usize,
        center: &GraphView,
        samples: &[GraphSample],
        memberships: &[usize],
        records: &[ExecutionRecord],
    ) -> ClusterModel {
        let member_samples: Vec<GraphSample> = samples
            .iter()
            .zip(memberships)
            .filter(|&(_, &m)| m == c)
            .map(|(s, _)| s.clone())
            .collect();
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.config.seed.wrapping_add(c as u64));
        let mut encoder = GnnEncoder::new(self.config.gnn.clone(), &mut rng);
        let mut final_loss = 0.0;
        if !member_samples.is_empty() {
            for _ in 0..self.config.epochs {
                final_loss = encoder.train_step(&member_samples);
            }
        }
        encoder.end_training();
        // Warm-up dataset: agnostic embeddings + input-rate feature +
        // recorded (p, label). Sparse clusters are topped up with
        // non-member samples embedded by this cluster's encoder. One tape
        // is reused across all embeddings.
        let mut warmup = Vec::new();
        let mut tape = Tape::new();
        let harvest =
            |s: &GraphSample, rates: &[f64], tape: &mut Tape, warmup: &mut Vec<TrainPoint>| {
                let emb = encoder.embed_agnostic_with(tape, s);
                for (i, &l) in s.labels.iter().enumerate() {
                    if l < 0.0 {
                        continue;
                    }
                    let mut e = emb.row(i).to_vec();
                    e.push(rate_feature(rates[i]));
                    warmup.push(TrainPoint {
                        embedding: e,
                        parallelism: s.parallelism[i],
                        bottleneck: l == 1.0,
                    });
                }
            };
        // Truthful rate per labeled operator: a 0-label taken during a
        // backpressured run only certifies the operator at the
        // *throttled* rate it actually received; a 1-label (and any
        // label from a backpressure-free run) refers to the full
        // demand rate.
        let record_rates = |r: &ExecutionRecord| -> Vec<f64> {
            r.observation
                .per_op
                .iter()
                .map(|o| {
                    if r.observation.job_backpressure && !o.saturated {
                        o.processed_rate
                    } else {
                        o.input_rate
                    }
                })
                .collect()
        };
        for ((s, &m), r) in samples.iter().zip(memberships).zip(records) {
            if m == c {
                harvest(s, &record_rates(r), &mut tape, &mut warmup);
            }
        }
        if warmup.len() < self.config.min_warmup_points {
            for ((s, &m), r) in samples.iter().zip(memberships).zip(records) {
                if m != c {
                    harvest(s, &record_rates(r), &mut tape, &mut warmup);
                }
                if warmup.len() >= self.config.min_warmup_points {
                    break;
                }
            }
        }
        ClusterModel {
            center: center.clone(),
            encoder,
            warmup,
            final_loss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamtune_sim::SimCluster;
    use streamtune_workloads::history::HistoryGenerator;

    fn small_corpus(seed: u64, jobs: usize) -> Vec<ExecutionRecord> {
        let cluster = SimCluster::flink_defaults(seed);
        HistoryGenerator::new(seed)
            .with_jobs(jobs)
            .with_runs_per_job(2)
            .generate(&cluster)
    }

    #[test]
    fn pretraining_produces_clusters_and_warmup() {
        let corpus = small_corpus(3, 18);
        let pre = Pretrainer::new(PretrainConfig::fast()).run(&corpus);
        assert!(!pre.clusters.is_empty());
        assert!(
            pre.total_warmup_points() > 0,
            "histories must yield labeled warm-up points"
        );
        for c in &pre.clusters {
            assert!(c.final_loss.is_finite());
        }
    }

    #[test]
    fn global_fallback_on_tiny_corpus() {
        let cluster = SimCluster::flink_defaults(5);
        let corpus = HistoryGenerator::new(5)
            .with_jobs(3)
            .with_runs_per_job(4)
            .generate(&cluster);
        let mut cfg = PretrainConfig::fast();
        cfg.min_structures_for_clustering = 10;
        let pre = Pretrainer::new(cfg).run(&corpus);
        assert!(pre.global_fallback);
        assert_eq!(pre.clusters.len(), 1);
    }

    #[test]
    fn assign_returns_valid_cluster() {
        let corpus = small_corpus(7, 16);
        let pre = Pretrainer::new(PretrainConfig::fast()).run(&corpus);
        let target = streamtune_workloads::nexmark::q5(streamtune_workloads::rates::Engine::Flink);
        let (idx, model) = pre.assign(&target.flow);
        assert!(idx < pre.clusters.len());
        assert_eq!(model.encoder.hidden_dim(), 16);
        // The audit-trail helper agrees with the assignment: one capped
        // distance per center, minimized (ties to the lower index) at the
        // assigned cluster.
        let dists = pre.center_distances(&target.flow);
        assert_eq!(dists.len(), pre.clusters.len());
        let argmin = dists
            .iter()
            .enumerate()
            .min_by_key(|&(c, &d)| (d, c))
            .map(|(c, _)| c)
            .unwrap();
        assert_eq!(argmin, idx);
    }

    #[test]
    fn warmup_embedding_dims_match_encoder() {
        let corpus = small_corpus(9, 12);
        let pre = Pretrainer::new(PretrainConfig::fast()).run(&corpus);
        for c in &pre.clusters {
            for pt in &c.warmup {
                // hidden embedding + the appended input-rate feature
                assert_eq!(pt.embedding.len(), c.encoder.hidden_dim() + 1);
                assert!(pt.parallelism >= 1);
                let rate_feat = pt.embedding.last().unwrap();
                assert!((0.0..=1.2).contains(rate_feat));
            }
        }
    }

    #[test]
    fn run_with_cache_matches_run_and_warm_start_skips_searches() {
        let corpus = small_corpus(13, 16);
        let pretrainer = Pretrainer::new(PretrainConfig::fast());
        let cold = pretrainer.run(&corpus);

        // A fresh caller-owned cache reproduces `run` exactly.
        let mut cache = GedCache::new(Bound::LabelSet, PretrainConfig::fast().cluster.ged_cap);
        let first = pretrainer.run_with_cache(&corpus, &mut cache);
        assert_eq!(first.clusters.len(), cold.clusters.len());
        for (a, b) in first.clusters.iter().zip(&cold.clusters) {
            assert_eq!(a.center, b.center);
            assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
            assert_eq!(a.warmup, b.warmup);
        }
        let cold_searches = cache.stats().searches;
        assert!(cold_searches > 0, "clustering must have run A* searches");

        // Re-running on the warm cache does zero new searches and yields
        // the same model.
        let mut warm = GedCache::from_snapshot(cache.snapshot()).expect("valid snapshot");
        let again = pretrainer.run_with_cache(&corpus, &mut warm);
        assert_eq!(warm.stats().searches, 0, "warm start must not search");
        for (a, b) in again.clusters.iter().zip(&first.clusters) {
            assert_eq!(a.center, b.center);
            assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
        }
    }

    #[test]
    fn training_beats_chance_on_own_clusters() {
        // An untrained encoder sits near the chance BCE of ln 2 ≈ 0.693 on
        // its own members; after pre-training each cluster's final epoch
        // loss must be clearly below that on average.
        let corpus = small_corpus(11, 14);
        let trained = Pretrainer::new(PretrainConfig::fast()).run(&corpus);
        let mean_final: f64 = trained.clusters.iter().map(|c| c.final_loss).sum::<f64>()
            / trained.clusters.len() as f64;
        assert!(
            mean_final < 0.60,
            "mean per-cluster training loss {mean_final} should beat chance (0.693)"
        );
    }
}
