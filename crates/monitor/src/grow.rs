//! Incremental corpus growth and warm re-pretraining.
//!
//! When a live job's DAG is structurally uncovered by the pre-trained
//! corpus (see [`crate::structure_distance`]), the adaptation policy
//! appends fresh execution records for it and re-pretrains *warm*: the
//! grown corpus is pushed through [`Pretrainer::run_with_cache`] over the
//! long-lived [`GedCache`], so every already-memoized pair answers from
//! the cache and only pairs involving the new structure pay an A\*
//! search. The result is bit-identical to a cold pre-train on the grown
//! corpus (cached facts are exact distances or sound lower bounds, and
//! interning preserves first-seen id order), which is what makes the
//! online model swap safe.

use streamtune_core::{PretrainConfig, Pretrained, Pretrainer};
use streamtune_ged::GedCache;
use streamtune_workloads::history::{record_runs, ExecutionRecord};
use streamtune_workloads::rates::Engine;
use streamtune_workloads::Workload;

/// Parallelism ceiling sampled for grown records (paper §V-A: `[1, 60]`).
pub const GROW_MAX_PARALLELISM: u32 = 60;

/// What an incremental re-pretrain did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GrowthReport {
    /// Records appended to the corpus.
    pub added_records: usize,
    /// Corpus size after growth.
    pub corpus_records: usize,
    /// A\* searches this re-pretrain actually ran (already-cached pairs
    /// never search, so this counts only pairs involving new structures).
    pub new_searches: u64,
    /// Clusters in the re-pretrained model.
    pub clusters: usize,
}

/// Synthesize `runs` execution records for `workload` on a fresh
/// deterministic simulated cluster — the substitute for observing the new
/// job in production long enough to label it.
pub fn grow_records(
    workload: &Workload,
    engine: Engine,
    seed: u64,
    runs: usize,
) -> Vec<ExecutionRecord> {
    let cluster = engine.sim_cluster(seed);
    record_runs(&cluster, workload, seed, runs, GROW_MAX_PARALLELISM)
}

/// Append `new_records` to `corpus` and re-pretrain warm over `cache`.
/// Returns the swapped-in model and a report of what it cost.
pub fn grow_and_pretrain(
    config: &PretrainConfig,
    corpus: &mut Vec<ExecutionRecord>,
    new_records: Vec<ExecutionRecord>,
    cache: &mut GedCache,
) -> (Pretrained, GrowthReport) {
    let added_records = new_records.len();
    corpus.extend(new_records);
    let searches_before = cache.stats().searches;
    let pretrained = Pretrainer::new(config.clone()).run_with_cache(corpus, cache);
    let report = GrowthReport {
        added_records,
        corpus_records: corpus.len(),
        new_searches: cache.stats().searches - searches_before,
        clusters: pretrained.clusters.len(),
    };
    (pretrained, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamtune_core::PretrainConfig;
    use streamtune_ged::Bound;
    use streamtune_sim::SimCluster;
    use streamtune_workloads::history::HistoryGenerator;
    use streamtune_workloads::{nexmark, pqp};

    fn base_corpus(seed: u64) -> Vec<ExecutionRecord> {
        let cluster = SimCluster::flink_defaults(seed);
        HistoryGenerator::new(seed).with_jobs(10).generate(&cluster)
    }

    #[test]
    fn warm_growth_matches_cold_pretrain_on_grown_corpus() {
        let config = PretrainConfig::fast();
        let mut corpus = base_corpus(41);
        let mut cache = GedCache::new(Bound::LabelSet, config.cluster.ged_cap);
        let _initial = Pretrainer::new(config.clone()).run_with_cache(&corpus, &mut cache);
        let base_searches = cache.stats().searches;

        // Grow with a structurally new workload and re-pretrain warm.
        let unseen = pqp::three_way_join_queries().remove(7);
        let new_records = grow_records(&unseen, Engine::Flink, 99, 2);
        let cold_corpus: Vec<ExecutionRecord> = corpus
            .iter()
            .cloned()
            .chain(new_records.iter().cloned())
            .collect();
        let (warm, report) = grow_and_pretrain(&config, &mut corpus, new_records, &mut cache);
        assert_eq!(report.added_records, 2);
        assert_eq!(report.corpus_records, cold_corpus.len());
        assert!(
            report.new_searches > 0,
            "a new structure must pay some A* searches"
        );

        // Cold pre-train on the grown corpus: bit-identical model, but it
        // re-pays every search the warm run answered from cache.
        let mut cold_cache = GedCache::new(Bound::LabelSet, config.cluster.ged_cap);
        let cold = Pretrainer::new(config.clone()).run_with_cache(&cold_corpus, &mut cold_cache);
        assert!(
            report.new_searches < cold_cache.stats().searches,
            "warm growth ({}) must search less than cold ({})",
            report.new_searches,
            cold_cache.stats().searches
        );
        assert_eq!(warm.clusters.len(), cold.clusters.len());
        for (w, c) in warm.clusters.iter().zip(&cold.clusters) {
            assert_eq!(w.center, c.center);
            assert_eq!(w.final_loss.to_bits(), c.final_loss.to_bits());
            assert_eq!(w.warmup, c.warmup);
        }

        // Re-running on the now-fully-warm cache pays nothing at all.
        let before = cache.stats().searches;
        let again = Pretrainer::new(config).run_with_cache(&corpus, &mut cache);
        assert_eq!(
            cache.stats().searches,
            before,
            "already-cached pairs must never search again"
        );
        assert_eq!(again.clusters.len(), warm.clusters.len());
        let _ = base_searches;
    }

    #[test]
    fn growth_is_deterministic() {
        let w = nexmark::q8(Engine::Flink);
        assert_eq!(
            grow_records(&w, Engine::Flink, 5, 3),
            grow_records(&w, Engine::Flink, 5, 3)
        );
    }
}
