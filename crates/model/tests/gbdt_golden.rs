//! Golden bit-identity fixture for `MonotonicGbdt::fit`.
//!
//! Each case fits the GBDT on a seeded synthetic dataset and hashes the
//! serialized model (FNV-1a 64 of `serde_json::to_string`). The expected
//! hashes in `golden/gbdt_fit.txt` were recorded with the per-node-sort
//! split search (the `d34` cases, at the daemon's input dimension, with
//! the row-major presorted search that replaced it), so any change to
//! candidate order, summation order, tie handling or leaf clamping shows
//! up as a hash mismatch. To re-record after an intended change, copy the
//! `actual` table from the failure.

use streamtune_model::{BottleneckClassifier, GbdtConfig, MonotonicGbdt, TrainPoint};

const EXPECTED: &str = include_str!("golden/gbdt_fit.txt");

/// SplitMix64: a self-contained generator, so the datasets never change
/// with a dependency.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Clone, Copy)]
enum Labels {
    /// Threshold in `p` that rises with the embedding, plus 5% flips.
    Mixed,
    AllBottleneck,
    NoBottleneck,
}

struct Case {
    name: String,
    seed: u64,
    /// Model input dimension: embedding length + 1 (parallelism).
    d: usize,
    n: usize,
    /// Quantize embedding values to this many levels (ties), or continuous.
    levels: Option<u64>,
    /// Feedback points appended after the `n` warm-up points, each pushed
    /// 10 times in a row as the tuner does.
    feedback: usize,
    labels: Labels,
    /// Column edits applied to every point after the dataset is drawn.
    columns: Columns,
    config: GbdtConfig,
}

/// Column shapes the daemon's embeddings produce and the split search
/// must treat exactly: dead ReLU units, a column that is constant on one
/// side of a parallelism split, and signed zeros.
#[derive(Clone, Copy, Default)]
struct Columns {
    /// Embedding columns `5..5 + dead` read `0.0` for every point.
    dead: usize,
    /// Embedding column 3 reads `0.25` for every point with parallelism at
    /// most 30 and keeps its drawn value above.
    low_p_constant: bool,
    /// Embedding column 4 reads `-0.0` or `0.0` (by point index parity)
    /// wherever its drawn value is below one half.
    signed_zeros: bool,
}

impl Case {
    fn new(name: impl Into<String>, seed: u64, d: usize, n: usize) -> Self {
        Case {
            name: name.into(),
            seed,
            d,
            n,
            levels: None,
            feedback: 0,
            labels: Labels::Mixed,
            columns: Columns::default(),
            config: GbdtConfig::default(),
        }
    }

    fn point(&self, rng: &mut SplitMix) -> TrainPoint {
        let embedding: Vec<f64> = (0..self.d - 1)
            .map(|_| match self.levels {
                Some(l) => rng.below(l) as f64 / l as f64,
                None => rng.unit(),
            })
            .collect();
        let parallelism = 1 + rng.below(60) as u32;
        let bottleneck = match self.labels {
            Labels::Mixed => {
                let load: f64 = embedding.iter().take(3).sum::<f64>() / 3.0;
                let threshold = 5.0 + 45.0 * load;
                (f64::from(parallelism) < threshold) ^ (rng.unit() < 0.05)
            }
            Labels::AllBottleneck => true,
            Labels::NoBottleneck => false,
        };
        TrainPoint {
            embedding,
            parallelism,
            bottleneck,
        }
    }

    fn dataset(&self) -> Vec<TrainPoint> {
        let mut rng = SplitMix(self.seed);
        let mut data: Vec<TrainPoint> = (0..self.n).map(|_| self.point(&mut rng)).collect();
        for _ in 0..self.feedback {
            let p = self.point(&mut rng);
            data.extend(std::iter::repeat_n(p, 10));
        }
        let cols = self.columns;
        for (i, p) in data.iter_mut().enumerate() {
            if cols.dead > 0 {
                p.embedding[5..5 + cols.dead].fill(0.0);
            }
            if cols.low_p_constant && p.parallelism <= 30 {
                p.embedding[3] = 0.25;
            }
            if cols.signed_zeros && p.embedding[4] < 0.5 {
                p.embedding[4] = if i % 2 == 0 { -0.0 } else { 0.0 };
            }
        }
        data
    }
}

fn cases() -> Vec<Case> {
    let mut cases = Vec::new();
    // Small input dimensions, continuous values.
    for d in 1..=18 {
        cases.push(Case::new(
            format!("cont-d{d}"),
            100 + d as u64,
            d,
            30 + 9 * d,
        ));
    }
    // Tied feature values: few levels per embedding column.
    for (k, d) in [1, 2, 3, 4, 6, 9, 12, 15, 18].into_iter().enumerate() {
        let mut c = Case::new(format!("ties-d{d}"), 200 + d as u64, d, 60 + 5 * d);
        c.levels = Some(2 + k as u64 % 3);
        cases.push(c);
    }
    // Warm-up plus feedback replicated 10x, as `tune.rs` builds it.
    for (d, n, fb) in [
        (3, 40, 4),
        (6, 80, 9),
        (9, 120, 6),
        (12, 100, 12),
        (18, 150, 8),
    ] {
        let mut c = Case::new(format!("replicated-d{d}"), 300 + d as u64, d, n);
        c.feedback = fb;
        cases.push(c);
    }
    for (d, n, fb) in [(5, 60, 10), (18, 90, 5)] {
        let mut c = Case::new(format!("replicated-ties-d{d}"), 350 + d as u64, d, n);
        c.levels = Some(3);
        c.feedback = fb;
        cases.push(c);
    }
    // A single class.
    for (d, labels, tag) in [
        (1, Labels::AllBottleneck, "pos"),
        (1, Labels::NoBottleneck, "neg"),
        (18, Labels::AllBottleneck, "pos"),
        (18, Labels::NoBottleneck, "neg"),
    ] {
        let mut c = Case::new(format!("single-{tag}-d{d}"), 400 + d as u64, d, 50);
        c.labels = labels;
        cases.push(c);
    }
    // Tiny datasets around `2 * min_samples_leaf`.
    for (d, n) in [(1, 2), (2, 2), (18, 2), (4, 3), (4, 4), (4, 5)] {
        cases.push(Case::new(
            format!("tiny-n{n}-d{d}"),
            500 + (10 * n + d) as u64,
            d,
            n,
        ));
    }
    // Non-default shapes: shallow and deep trees, leaf sizes, few rounds.
    let base = GbdtConfig::default();
    let variants = [
        (
            "depth1",
            GbdtConfig {
                max_depth: 1,
                ..base.clone()
            },
        ),
        (
            "depth5",
            GbdtConfig {
                max_depth: 5,
                ..base.clone()
            },
        ),
        (
            "depth0",
            GbdtConfig {
                max_depth: 0,
                ..base.clone()
            },
        ),
        (
            "leaf1",
            GbdtConfig {
                min_samples_leaf: 1,
                ..base.clone()
            },
        ),
        (
            "leaf6",
            GbdtConfig {
                min_samples_leaf: 6,
                ..base.clone()
            },
        ),
        (
            "rounds7-spw",
            GbdtConfig {
                rounds: 7,
                scale_pos_weight_cap: 3.0,
                ..base
            },
        ),
    ];
    for (k, (tag, config)) in variants.into_iter().enumerate() {
        let d = 3 + 3 * k;
        let mut c = Case::new(format!("cfg-{tag}-d{d}"), 600 + k as u64, d, 90);
        c.levels = (k % 2 == 0).then_some(4);
        c.feedback = 3;
        c.config = config;
        cases.push(c);
    }
    // The daemon's input dimension: a 32-wide encoder, the rate feature
    // and the parallelism. Warm-up alone, and warm-up plus feedback.
    cases.push(Case::new("daemon-d34", 700, 34, 198));
    let mut c = Case::new("daemon-replicated-d34", 701, 34, 250);
    c.feedback = 6;
    cases.push(c);
    // Columns that are constant over a node's points: the scan has no
    // candidate there, at the root or below a parallelism split.
    let edits = [
        (
            "dead3",
            Columns {
                dead: 3,
                ..Columns::default()
            },
        ),
        (
            "low-p-constant",
            Columns {
                low_p_constant: true,
                ..Columns::default()
            },
        ),
        (
            "signed-zeros",
            Columns {
                signed_zeros: true,
                ..Columns::default()
            },
        ),
        (
            "all-edits",
            Columns {
                dead: 3,
                low_p_constant: true,
                signed_zeros: true,
            },
        ),
    ];
    for (k, (tag, columns)) in edits.into_iter().enumerate() {
        let mut c = Case::new(format!("{tag}-d34"), 710 + k as u64, 34, 250);
        c.feedback = 6;
        c.columns = columns;
        cases.push(c);
    }
    cases
}

#[test]
fn fit_reproduces_golden_hashes() {
    let mut actual = String::new();
    for case in cases() {
        let data = case.dataset();
        let mut model = MonotonicGbdt::new(case.config.clone());
        model.fit(&data);
        let json = serde_json::to_string(&model).expect("model serializes");
        actual.push_str(&format!(
            "{} {:016x}\n",
            case.name,
            fnv1a64(json.as_bytes())
        ));
    }
    assert!(
        actual == EXPECTED,
        "fitted models differ from the golden table; actual table:\n{actual}"
    );
}
