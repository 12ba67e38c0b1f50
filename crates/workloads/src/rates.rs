//! Source-rate units (paper Table II) and the periodic rate pattern (§V-A).

use serde::{Deserialize, Serialize};
use streamtune_sim::SimCluster;

/// Which engine's rate units to use (Table II has separate columns).
///
/// Lowercase on the wire, like every protocol token (`"flink"`/`"timely"`,
/// the CLI's `--engine` spelling); the capitalized legacy spellings still
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum Engine {
    /// Apache Flink column.
    #[serde(alias = "Flink")]
    Flink,
    /// Timely Dataflow column.
    #[serde(alias = "Timely")]
    Timely,
}

impl Engine {
    /// The engine's default simulated cluster, seeded for one job or
    /// corpus.
    pub fn sim_cluster(self, seed: u64) -> SimCluster {
        match self {
            Engine::Flink => SimCluster::flink_defaults(seed),
            Engine::Timely => SimCluster::timely_defaults(seed),
        }
    }
}

/// Table II, Nexmark rows: `Wu` in records/second per source.
///
/// Returns `(bids, auctions, persons)` — zero when a query does not read
/// that stream.
pub fn nexmark_units(query: &str, engine: Engine) -> (f64, f64, f64) {
    match (query, engine) {
        ("q1", Engine::Flink) => (700e3, 0.0, 0.0),
        ("q1", Engine::Timely) => (9e6, 0.0, 0.0),
        ("q2", Engine::Flink) => (900e3, 0.0, 0.0),
        ("q2", Engine::Timely) => (9e6, 0.0, 0.0),
        ("q3", Engine::Flink) => (0.0, 200e3, 40e3),
        ("q3", Engine::Timely) => (0.0, 5e6, 5e6),
        ("q5", Engine::Flink) => (80e3, 0.0, 0.0),
        ("q5", Engine::Timely) => (10e6, 0.0, 0.0),
        ("q8", Engine::Flink) => (0.0, 100e3, 60e3),
        ("q8", Engine::Timely) => (0.0, 4e6, 4e6),
        _ => panic!("unknown Nexmark query/engine combination: {query}"),
    }
}

/// Table II, PQP rows (`Flink` column only in the paper), calibrated: the
/// paper's 5 K / 0.5 K / 0.25 K reflect their testbed's heavyweight PQP
/// operators; our simulator's per-core rates are higher, so we keep the
/// 20 : 2 : 1 ratio scaled ×100 to land in the same Fig. 6 parallelism
/// region (see `DESIGN.md` §1).
pub fn pqp_unit(template: &str) -> f64 {
    match template {
        "linear" => 500e3,
        "2-way-join" => 50e3,
        "3-way-join" => 25e3,
        _ => panic!("unknown PQP template: {template}"),
    }
}

/// The basic 10-step source-rate cycle of §V-A, in `Wu` multipliers.
pub const BASE_CYCLE: [f64; 10] = [3.0, 7.0, 4.0, 2.0, 1.0, 10.0, 8.0, 5.0, 6.0, 9.0];

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One 20-step periodic sequence: the base cycle replicated twice.
pub fn periodic_sequence() -> Vec<f64> {
    let mut v = BASE_CYCLE.to_vec();
    v.extend_from_slice(&BASE_CYCLE);
    v
}

/// A seeded permutation of the 20-step sequence (Fisher–Yates).
pub fn permuted_sequence(seed: u64) -> Vec<f64> {
    let mut v = periodic_sequence();
    let mut state = seed;
    for i in (1..v.len()).rev() {
        state = splitmix(state);
        let j = (state % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
    v
}

/// The full evaluation schedule of §V-A: six permutations of the 20-step
/// sequence → 120 source-rate changes per query.
pub fn full_schedule(seed: u64) -> Vec<f64> {
    (0..6)
        .flat_map(|k| permuted_sequence(seed.wrapping_add(k)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_has_120_changes() {
        let s = full_schedule(1);
        assert_eq!(s.len(), 120);
        assert!(s.iter().all(|&m| (1.0..=10.0).contains(&m)));
    }

    #[test]
    fn permutation_preserves_multiset() {
        let mut a = periodic_sequence();
        let mut b = permuted_sequence(99);
        a.sort_by(|x, y| x.partial_cmp(y).unwrap());
        b.sort_by(|x, y| x.partial_cmp(y).unwrap());
        assert_eq!(a, b);
    }

    #[test]
    fn permutations_differ_by_seed() {
        assert_ne!(permuted_sequence(1), permuted_sequence(2));
        assert_eq!(permuted_sequence(7), permuted_sequence(7));
    }

    #[test]
    fn table2_units_match_paper() {
        assert_eq!(nexmark_units("q1", Engine::Flink).0, 700e3);
        assert_eq!(nexmark_units("q5", Engine::Timely).0, 10e6);
        assert_eq!(nexmark_units("q8", Engine::Flink), (0.0, 100e3, 60e3));
        assert_eq!(pqp_unit("linear") / pqp_unit("3-way-join"), 20.0);
    }

    #[test]
    #[should_panic(expected = "unknown Nexmark query")]
    fn unknown_query_panics() {
        nexmark_units("q99", Engine::Flink);
    }
}
