//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, RngExt, SeedableRng};
use streamtune::dataflow::{
    DataflowBuilder, GraphSignature, Operator, OperatorKind, ParallelismAssignment,
};
use streamtune::ged::{ged_lsa, ged_with, Bound, GraphView};
use streamtune::model::{
    recommend_min_parallelism_at, verify_monotonic, BottleneckClassifier, GbdtConfig,
    MonotonicGbdt, TrainPoint,
};
use streamtune::sim::{PerfProfile, SimCluster};

/// A random small operator (kind index 0..9 mapped through helpers).
fn operator(kind_idx: usize, sel: f64) -> Operator {
    match kind_idx % 6 {
        0 => Operator::map(32, 32),
        1 => Operator::filter(sel.clamp(0.05, 1.0), 32, 32),
        2 => Operator::flatmap(1.0 + sel, 32, 32),
        3 => Operator::aggregate(
            streamtune::dataflow::AggregateFunction::Sum,
            streamtune::dataflow::AggregateClass::Int,
            streamtune::dataflow::JoinKeyClass::Int,
            sel.clamp(0.05, 1.0),
        ),
        4 => Operator::key_by(32),
        _ => Operator::sink(32),
    }
}

/// Build a random chain dataflow from a kind/selectivity spec.
fn chain_flow(name: &str, rate: f64, spec: &[(usize, f64)]) -> streamtune::dataflow::Dataflow {
    let mut b = DataflowBuilder::new(name);
    let s = b.add_source("src", rate);
    let mut prev = None;
    for (i, &(k, sel)) in spec.iter().enumerate() {
        let id = b.add_op(format!("op{i}"), operator(k, sel));
        match prev {
            None => {
                b.connect_source(s, id);
            }
            Some(p) => {
                b.connect(p, id);
            }
        }
        prev = Some(id);
    }
    b.build().expect("chain is always valid")
}

/// A seeded `M_f` training set: `n` points with `dim - 1` embedding
/// features quantized to `levels` values (ties), parallelism in 1..=60
/// (ties), noisy threshold labels, and the first `replicated` points
/// pushed 10 times each, as the tuner replicates feedback.
fn gbdt_dataset(
    seed: u64,
    n: usize,
    dim: usize,
    levels: u64,
    replicated: usize,
) -> Vec<TrainPoint> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = Vec::new();
    for k in 0..n {
        let embedding: Vec<f64> = (0..dim - 1)
            .map(|_| (rng.next_u64() % levels) as f64 / levels as f64)
            .collect();
        let parallelism = 1 + (rng.next_u64() % 60) as u32;
        let threshold = 4.0 + 50.0 * embedding.first().copied().unwrap_or(0.5);
        let point = TrainPoint {
            embedding,
            parallelism,
            bottleneck: (f64::from(parallelism) < threshold) ^ (rng.random() < 0.1),
        };
        let copies = if k < replicated { 10 } else { 1 };
        data.extend(std::iter::repeat_n(point, copies));
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// PA is strictly monotone in parallelism for every operator shape.
    #[test]
    fn pa_monotone(kind in 0usize..6, sel in 0.1f64..2.0, seed in 0u64..500) {
        let flow = chain_flow("pa-prop", 1000.0, &[(kind, sel)]);
        let prof = PerfProfile::with_seed(seed);
        let op = flow.op_ids().next().unwrap();
        let mut prev = 0.0;
        for p in 1..=40 {
            let pa = prof.pa(&flow, op, p);
            prop_assert!(pa > prev);
            prev = pa;
        }
    }

    /// Raising any operator's parallelism never reduces job throughput.
    #[test]
    fn more_parallelism_never_hurts(
        rate in 1.0e4f64..5.0e6,
        spec in proptest::collection::vec((0usize..6, 0.1f64..1.5), 1..5),
        bump_idx in 0usize..5,
    ) {
        let flow = chain_flow("throughput-prop", rate, &spec);
        let cluster = SimCluster::flink_defaults(7);
        let base = ParallelismAssignment::uniform(&flow, 2);
        let rep1 = cluster.simulate(&flow, &base);
        let mut bumped = base.clone();
        let ops: Vec<_> = flow.op_ids().collect();
        let op = ops[bump_idx % ops.len()];
        bumped.set_degree(op, 10);
        let rep2 = cluster.simulate(&flow, &bumped);
        prop_assert!(
            rep2.observation.throughput_scale >= rep1.observation.throughput_scale - 1e-12
        );
    }

    /// GED is symmetric, non-negative, zero on identical graphs, and the
    /// signature bound never exceeds the true distance.
    #[test]
    fn ged_metric_properties(
        spec_a in proptest::collection::vec((0usize..6, 0.2f64..1.0), 1..5),
        spec_b in proptest::collection::vec((0usize..6, 0.2f64..1.0), 1..5),
    ) {
        let fa = chain_flow("ged-a", 100.0, &spec_a);
        let fb = chain_flow("ged-b", 100.0, &spec_b);
        let (va, vb) = (GraphView::of(&fa), GraphView::of(&fb));
        let d_ab = ged_lsa(&va, &vb, usize::MAX).exact().unwrap();
        let d_ba = ged_lsa(&vb, &va, usize::MAX).exact().unwrap();
        prop_assert_eq!(d_ab, d_ba, "symmetry");
        prop_assert_eq!(ged_lsa(&va, &va.clone(), usize::MAX).exact().unwrap(), 0);
        let lb = GraphSignature::of(&fa).ged_lower_bound(&GraphSignature::of(&fb));
        prop_assert!(lb <= d_ab, "signature bound {} > GED {}", lb, d_ab);
    }

    /// Both A* bounds compute the same exact distance.
    #[test]
    fn ged_bounds_agree(
        spec_a in proptest::collection::vec((0usize..6, 0.2f64..1.0), 1..4),
        spec_b in proptest::collection::vec((0usize..6, 0.2f64..1.0), 1..4),
    ) {
        let fa = chain_flow("gb-a", 100.0, &spec_a);
        let fb = chain_flow("gb-b", 100.0, &spec_b);
        let (va, vb) = (GraphView::of(&fa), GraphView::of(&fb));
        let d1 = ged_with(&va, &vb, Bound::Trivial, usize::MAX).exact().unwrap();
        let d2 = ged_with(&va, &vb, Bound::LabelSet, usize::MAX).exact().unwrap();
        prop_assert_eq!(d1, d2);
    }

    /// GED triangle inequality on random chain triples.
    #[test]
    fn ged_triangle_inequality(
        spec_a in proptest::collection::vec((0usize..6, 0.2f64..1.0), 1..4),
        spec_b in proptest::collection::vec((0usize..6, 0.2f64..1.0), 1..4),
        spec_c in proptest::collection::vec((0usize..6, 0.2f64..1.0), 1..4),
    ) {
        let fa = chain_flow("tri-a", 100.0, &spec_a);
        let fb = chain_flow("tri-b", 100.0, &spec_b);
        let fc = chain_flow("tri-c", 100.0, &spec_c);
        let (va, vb, vc) = (GraphView::of(&fa), GraphView::of(&fb), GraphView::of(&fc));
        let ab = ged_lsa(&va, &vb, usize::MAX).exact().unwrap();
        let bc = ged_lsa(&vb, &vc, usize::MAX).exact().unwrap();
        let ac = ged_lsa(&va, &vc, usize::MAX).exact().unwrap();
        prop_assert!(ac <= ab + bc, "triangle violated: {} > {} + {}", ac, ab, bc);
    }

    /// The oracle assignment is minimal: it sustains, decrementing any
    /// operator breaks it.
    #[test]
    fn oracle_is_minimal(
        rate in 1.0e5f64..3.0e6,
        spec in proptest::collection::vec((0usize..6, 0.2f64..1.2), 1..4),
    ) {
        let flow = chain_flow("oracle-prop", rate, &spec);
        let cluster = SimCluster::flink_defaults(11);
        if let Some(oracle) = cluster.oracle_assignment(&flow) {
            prop_assert!(cluster.simulate(&flow, &oracle).backpressure_free());
            for op in flow.op_ids() {
                let d = oracle.degree(op);
                if d > 1 {
                    let mut worse = oracle.clone();
                    worse.set_degree(op, d - 1);
                    prop_assert!(!cluster.simulate(&flow, &worse).backpressure_free());
                }
            }
        }
    }

    /// Feature encoding is deterministic and kind-discriminating.
    #[test]
    fn encoding_deterministic(kind_a in 0usize..6, kind_b in 0usize..6, rate in 1.0f64..1e6) {
        let fa = chain_flow("enc-a", rate, &[(kind_a, 0.5)]);
        let fb = chain_flow("enc-b", rate, &[(kind_b, 0.5)]);
        let ea = streamtune::dataflow::encode_operator(&fa, fa.op_ids().next().unwrap());
        let eb = streamtune::dataflow::encode_operator(&fb, fb.op_ids().next().unwrap());
        let ka = fa.op(fa.op_ids().next().unwrap()).kind();
        let kb = fb.op(fb.op_ids().next().unwrap()).kind();
        if ka == kb {
            prop_assert_eq!(ea, eb);
        } else {
            prop_assert_ne!(ea, eb);
        }
    }

    /// Kind multiset is stable under graph identity.
    #[test]
    fn kind_multiset_sorted(spec in proptest::collection::vec((0usize..6, 0.2f64..1.0), 1..6)) {
        let flow = chain_flow("ms-prop", 100.0, &spec);
        let ms = flow.kind_multiset();
        let mut sorted = ms.clone();
        sorted.sort();
        prop_assert_eq!(ms, sorted);
    }

    /// The fitted GBDT is non-increasing in parallelism at training and
    /// unseen embeddings, on data with ties and replicated rows.
    #[test]
    fn gbdt_monotone_in_parallelism(
        seed in 0u64..1_000_000,
        n in 2usize..90,
        dim in 1usize..19,
        levels in 1u64..6,
        replicated in 0usize..8,
    ) {
        let data = gbdt_dataset(seed, n, dim, levels, replicated);
        let mut m = MonotonicGbdt::new(GbdtConfig::default());
        m.fit(&data);
        let mut probes: Vec<Vec<f64>> = data.iter().map(|p| p.embedding.clone()).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        probes.extend((0..4).map(|_| (0..dim - 1).map(|_| rng.random_range(-0.2..1.2)).collect()));
        prop_assert!(verify_monotonic(&m, &probes, 100), "fit is not monotone in p");
    }

    /// The binary search for the minimal parallelism equals a linear scan
    /// over `1..=p_max` at several thresholds.
    #[test]
    fn min_parallelism_search_matches_linear_scan(
        seed in 0u64..1_000_000,
        n in 2usize..90,
        dim in 1usize..19,
        levels in 1u64..6,
        replicated in 0usize..8,
        p_max in 1u32..120,
    ) {
        let data = gbdt_dataset(seed, n, dim, levels, replicated);
        let mut m = MonotonicGbdt::new(GbdtConfig::default());
        m.fit(&data);
        for point in data.iter().take(6) {
            let h = &point.embedding;
            for threshold in [0.05, 0.25, 0.5, 0.75, 0.95] {
                let linear = (1..=p_max).find(|&p| m.predict_proba(h, p) < threshold);
                let binary = recommend_min_parallelism_at(&m, h, p_max, threshold);
                prop_assert_eq!(binary, linear, "threshold {}", threshold);
            }
        }
    }
}

/// Non-proptest structural check kept here for locality: OperatorKind::ALL
/// round-trips through index().
#[test]
fn operator_kind_index_roundtrip() {
    for (i, k) in OperatorKind::ALL.iter().enumerate() {
        assert_eq!(k.index(), i);
    }
}
