//! Criterion micro-benchmarks for the `M_f` model family: fit +
//! recommendation cost — the kernels behind Fig. 9a's recommendation-time
//! comparison and the Fig. 11a model ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use streamtune_model::{
    recommend_min_parallelism, BottleneckClassifier, GbdtConfig, MonotonicGbdt, MonotonicSvm,
    NnClassifier, NnConfig, SvmConfig, TrainPoint,
};

/// Daemon-shaped `M_f` training set: `warmup` points over a 33-wide
/// embedding (a 32-unit encoder with 3 dead ReLU units, plus the rate
/// feature), then `feedback` points each pushed 10 times, as a tune's
/// second-iteration refit builds it. Model input dimension 34.
fn dataset(warmup: usize, feedback: usize) -> Vec<TrainPoint> {
    let mut state = 0x5EEDu64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut point = || {
        let rate = (next() % 1000) as f64 / 1000.0;
        let kind = (next() % 4) as f64 / 4.0;
        let threshold = 1.0 + 40.0 * rate * (0.5 + kind);
        let p = 1 + (next() % 60) as u32;
        let mut embedding: Vec<f64> = (0..32)
            .map(|u| match u {
                0..=2 => 0.0, // dead ReLU units
                _ => kind * (next() % 1000) as f64 / 1000.0,
            })
            .collect();
        embedding.push(rate);
        TrainPoint {
            embedding,
            parallelism: p,
            bottleneck: f64::from(p) < threshold,
        }
    };
    let mut out: Vec<TrainPoint> = (0..warmup).map(|_| point()).collect();
    for _ in 0..feedback {
        let p = point();
        out.extend(std::iter::repeat_n(p, 10));
    }
    out
}

fn bench_fit(c: &mut Criterion) {
    let data = dataset(250, 6);
    let mut group = c.benchmark_group("model_fit_d34_310pts");
    group.sample_size(10);
    group.bench_function("svm", |b| {
        b.iter(|| {
            let mut m = MonotonicSvm::new(SvmConfig::default());
            m.fit(&data);
            black_box(m.parallelism_weight())
        })
    });
    group.bench_function("gbdt", |b| {
        b.iter(|| {
            let mut m = MonotonicGbdt::new(GbdtConfig::default());
            m.fit(&data);
            black_box(m.num_trees())
        })
    });
    group.bench_function("nn", |b| {
        b.iter(|| {
            let mut m = NnClassifier::new(NnConfig {
                epochs: 60,
                ..Default::default()
            });
            m.fit(&data);
            black_box(m.predict_proba(&data[0].embedding, 3))
        })
    });
    group.finish();
}

fn bench_recommend(c: &mut Criterion) {
    let data = dataset(250, 6);
    let mut svm = MonotonicSvm::new(SvmConfig::default());
    svm.fit(&data);
    let mut gbdt = MonotonicGbdt::new(GbdtConfig::default());
    gbdt.fit(&data);
    let probe = &data[7].embedding;
    let mut group = c.benchmark_group("recommend_min_parallelism");
    for (name, model) in [
        ("svm", &svm as &dyn BottleneckClassifier),
        ("gbdt", &gbdt as &dyn BottleneckClassifier),
    ] {
        group.bench_function(BenchmarkId::new("binary_search", name), |b| {
            b.iter(|| black_box(recommend_min_parallelism(model, probe, 100)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fit, bench_recommend);
criterion_main!(benches);
