//! PQP synthetic query templates (paper §V-A, from ZeroTune).
//!
//! Three template families with seeded parameter variation: Linear
//! (8 queries), 2-way-join (16) and 3-way-join (32). Parameters vary
//! window type/policy/length, filter selectivities and tuple widths, so
//! the family exercises a spread of operator dependencies as in the
//! original generator.

use crate::rates::pqp_unit;
use crate::{splitmix, Workload};
use streamtune_dataflow::{
    AggregateClass, AggregateFunction, DataflowBuilder, JoinKeyClass, Operator, WindowPolicy,
    WindowType,
};

struct Params {
    state: u64,
}

impl Params {
    fn new(seed: u64) -> Self {
        Params {
            state: splitmix(seed.wrapping_mul(0x9E37_79B9).wrapping_add(0xABCD)),
        }
    }

    fn next(&mut self) -> u64 {
        self.state = splitmix(self.state);
        self.state
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[(self.next() % options.len() as u64) as usize]
    }

    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() % 1000) as f64 / 1000.0 * (hi - lo)
    }
}

fn window(p: &mut Params) -> (WindowType, WindowPolicy, f64, f64) {
    let wt = p.pick(&[WindowType::Tumbling, WindowType::Sliding]);
    let wp = p.pick(&[WindowPolicy::Count, WindowPolicy::Time]);
    let len = p.range(10.0, 120.0);
    let slide = if wt == WindowType::Sliding {
        (len / p.range(2.0, 6.0)).max(1.0)
    } else {
        0.0
    };
    (wt, wp, len, slide)
}

fn agg_op(p: &mut Params, selectivity: f64) -> Operator {
    let (wt, wp, len, slide) = window(p);
    Operator::window_aggregate(
        p.pick(&[
            AggregateFunction::Min,
            AggregateFunction::Max,
            AggregateFunction::Avg,
            AggregateFunction::Sum,
            AggregateFunction::Count,
        ]),
        p.pick(&[AggregateClass::Int, AggregateClass::Float]),
        p.pick(&[JoinKeyClass::Int, JoinKeyClass::String]),
        wt,
        wp,
        len,
        slide,
        selectivity,
    )
}

fn join_op(p: &mut Params, selectivity: f64) -> Operator {
    let (wt, wp, len, slide) = window(p);
    Operator::window_join(
        p.pick(&[
            JoinKeyClass::Int,
            JoinKeyClass::String,
            JoinKeyClass::Composite,
        ]),
        wt,
        wp,
        len,
        slide,
        selectivity,
    )
}

/// One PQP Linear query: `source → filter [→ map] → window-agg → sink`.
pub fn linear_query(index: usize) -> Workload {
    let mut p = Params::new(index as u64);
    let wu = pqp_unit("linear");
    let name = format!("pqp-linear-{index}");
    let mut b = DataflowBuilder::new(&name);
    let s = b.add_source("events", wu);
    let width = p.pick(&[32u32, 64, 128]);
    let filter_sel = p.range(0.2, 0.8);
    let filter = b.add_op("filter", Operator::filter(filter_sel, width, width));
    b.connect_source(s, filter);
    let mut prev = filter;
    if index.is_multiple_of(2) {
        let map = b.add_op("map", Operator::map(width, width));
        b.connect(prev, map);
        prev = map;
    }
    let agg_sel = p.range(0.05, 0.3);
    let agg = b.add_op("window-agg", agg_op(&mut p, agg_sel));
    b.connect(prev, agg);
    let sink = b.add_op("sink", Operator::sink(32));
    b.connect(agg, sink);
    Workload::new(name, b.build().expect("valid linear query"), vec![wu])
}

/// One PQP 2-way-join query:
/// `2 × (source → filter) → window-join → window-agg → sink`.
pub fn two_way_join_query(index: usize) -> Workload {
    let mut p = Params::new(1000 + index as u64);
    let wu = pqp_unit("2-way-join");
    let name = format!("pqp-2way-{index}");
    let mut b = DataflowBuilder::new(&name);
    let s1 = b.add_source("left", wu);
    let s2 = b.add_source("right", wu);
    let w = p.pick(&[64u32, 128]);
    let (sel_l, sel_r) = (p.range(0.4, 0.9), p.range(0.4, 0.9));
    let f1 = b.add_op("filter-l", Operator::filter(sel_l, w, w));
    let f2 = b.add_op("filter-r", Operator::filter(sel_r, w, w));
    // Join selectivity > 1: window joins amplify (many matches per pane).
    let join_sel = p.range(1.0, 2.5);
    let join = b.add_op("join", join_op(&mut p, join_sel));
    let agg_sel = p.range(0.05, 0.3);
    let agg = b.add_op("agg", agg_op(&mut p, agg_sel));
    let sink = b.add_op("sink", Operator::sink(32));
    b.connect_source(s1, f1);
    b.connect_source(s2, f2);
    b.connect(f1, join);
    b.connect(f2, join);
    b.connect(join, agg);
    b.connect(agg, sink);
    Workload::new(name, b.build().expect("valid 2-way query"), vec![wu, wu])
}

/// One PQP 3-way-join query:
/// `3 × (source → filter) → join → join → window-agg → sink`.
pub fn three_way_join_query(index: usize) -> Workload {
    let mut p = Params::new(2000 + index as u64);
    let wu = pqp_unit("3-way-join");
    let name = format!("pqp-3way-{index}");
    let mut b = DataflowBuilder::new(&name);
    let s1 = b.add_source("a", wu);
    let s2 = b.add_source("b", wu);
    let s3 = b.add_source("c", wu);
    let w = p.pick(&[64u32, 128]);
    let (sa_, sb_, sc_) = (p.range(0.4, 0.9), p.range(0.4, 0.9), p.range(0.4, 0.9));
    let f1 = b.add_op("filter-a", Operator::filter(sa_, w, w));
    let f2 = b.add_op("filter-b", Operator::filter(sb_, w, w));
    let f3 = b.add_op("filter-c", Operator::filter(sc_, w, w));
    let j1_sel = p.range(1.0, 2.0);
    let j1 = b.add_op("join-ab", join_op(&mut p, j1_sel));
    let j2_sel = p.range(0.8, 1.8);
    let j2 = b.add_op("join-abc", join_op(&mut p, j2_sel));
    let agg_sel = p.range(0.05, 0.3);
    let agg = b.add_op("agg", agg_op(&mut p, agg_sel));
    let sink = b.add_op("sink", Operator::sink(32));
    b.connect_source(s1, f1);
    b.connect_source(s2, f2);
    b.connect_source(s3, f3);
    b.connect(f1, j1);
    b.connect(f2, j1);
    b.connect(j1, j2);
    b.connect(f3, j2);
    b.connect(j2, agg);
    b.connect(agg, sink);
    Workload::new(
        name,
        b.build().expect("valid 3-way query"),
        vec![wu, wu, wu],
    )
}

/// All 8 Linear queries (paper §V-A).
pub fn linear_queries() -> Vec<Workload> {
    (0..8).map(linear_query).collect()
}

/// All 16 2-way-join queries.
pub fn two_way_join_queries() -> Vec<Workload> {
    (0..16).map(two_way_join_query).collect()
}

/// All 32 3-way-join queries.
pub fn three_way_join_queries() -> Vec<Workload> {
    (0..32).map(three_way_join_query).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn template_counts_match_paper() {
        assert_eq!(linear_queries().len(), 8);
        assert_eq!(two_way_join_queries().len(), 16);
        assert_eq!(three_way_join_queries().len(), 32);
    }

    #[test]
    fn queries_are_deterministic() {
        let a = linear_query(3);
        let b = linear_query(3);
        assert_eq!(a.flow, b.flow);
    }

    #[test]
    fn queries_vary_by_index() {
        let a = two_way_join_query(0);
        let b = two_way_join_query(1);
        assert_ne!(a.flow, b.flow);
    }

    #[test]
    fn three_way_has_expected_shape() {
        let w = three_way_join_query(5);
        assert_eq!(w.flow.num_sources(), 3);
        assert_eq!(w.flow.num_ops(), 7); // 3 filters + 2 joins + agg + sink
        let joins = w.flow.ops().filter(|(_, o)| o.kind().is_binary()).count();
        assert_eq!(joins, 2);
    }

    #[test]
    fn linear_has_no_joins() {
        for w in linear_queries() {
            assert!(w.flow.ops().all(|(_, o)| !o.kind().is_binary()));
        }
    }

    #[test]
    fn node_counts_in_fig5_range() {
        for w in linear_queries()
            .into_iter()
            .chain(two_way_join_queries())
            .chain(three_way_join_queries())
        {
            let n = w.flow.num_ops();
            assert!((2..=10).contains(&n), "{} has {n} ops", w.name);
        }
    }
}
