//! The decision audit trail: one [`DecisionRecord`] per recommendation.
//!
//! Every time the daemon turns a job into a parallelism recommendation —
//! at first admission, on a monitor-driven re-tune, or when resuming a
//! journaled run after a crash — it records *why*: the input DAG's shape
//! and signature hash, which cluster the model assigned it to and how far
//! every center was, which model generation served it, the GED cache's
//! provenance counters at decision time, the chosen per-operator degrees
//! and every rejected candidate total the tuning loop walked through.
//!
//! The trail is **functional, not telemetry**: capture is always on and
//! built exclusively from deterministic inputs (per-instance
//! [`GedCacheStats`](streamtune_ged::GedCacheStats), and the pure
//! [`center_distances`](streamtune_core::Pretrained::center_distances)
//! A\* runs that placed the job's DAG structure under the live model,
//! reused for every job of that structure and never touching the GED
//! cache), so recording a decision
//! can never perturb the decision itself — tuning outcomes with auditing
//! compiled in are bit-identical to the pre-audit daemon. The only
//! wall-clock field, `ts_millis`, is observational and never compared.
//!
//! Records persist in the model store as `decisions.json` (same
//! checksummed envelope as the jobs ledger) and are served by the
//! `explain <job>` protocol verb across daemon restarts.

use serde::{Deserialize, Serialize};

/// Why a job's decision audit ran.
pub mod trigger {
    /// First admission via the `submit` verb.
    pub const SUBMIT: &str = "submit";
    /// Monitor- or operator-driven re-tune at a shifted rate.
    pub const RETUNE: &str = "retune";
    /// Journal recovery re-admitted the job after a crash.
    pub const RESUME: &str = "resume";
}

/// The full audit record behind one recommendation.
///
/// Serialized with derived serde (field names are the wire schema of the
/// `explained` response payload); readers should tolerate new fields —
/// the record grows release to release.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Job name the decision belongs to.
    pub job: String,
    /// What started the run: `"submit"`, `"retune"` or `"resume"`.
    pub trigger: String,
    /// Workload the job tunes.
    pub query: String,
    /// Source-rate multiplier the run used.
    pub multiplier: f64,
    /// Backend seed the run used.
    pub seed: u64,
    /// Backend family (`"sim"`, `"chaos"`, `"replay"`, `"flink"`,
    /// `"ingest"`).
    pub backend: String,
    /// Operators in the input DAG.
    pub dag_ops: u64,
    /// Edges in the input DAG.
    pub dag_edges: u64,
    /// FNV-1a 64 of the DAG's serialized [`GraphSignature`]
    /// (structurally identical DAGs hash identically).
    ///
    /// [`GraphSignature`]: streamtune_dataflow::GraphSignature
    pub dag_signature: u64,
    /// Cluster index the model assigned the DAG to.
    pub cluster: u64,
    /// Clusters in the serving model.
    pub clusters: u64,
    /// Whether the model is the §VII single-cluster global fallback.
    pub global_fallback: bool,
    /// Capped GED from the DAG to every cluster center, in cluster order
    /// (the assignment is the argmin; ties break to the lower index).
    pub center_distances: Vec<u64>,
    /// Model-store generation that served the decision: 0 for the
    /// bootstrap model, bumped on every model swap (corpus growth,
    /// re-pretrain).
    pub model_generation: u64,
    /// GED cache distance queries answered at decision time (cumulative,
    /// per daemon cache instance).
    pub cache_lookups: u64,
    /// A\* searches the cache actually ran (misses).
    pub cache_searches: u64,
    /// Queries the signature lower bound rejected without a search.
    pub cache_filtered: u64,
    /// Distinct DAG structures interned in the cache.
    pub cache_structures: u64,
    /// Operator names, in [`degrees`](Self::degrees) order.
    pub op_names: Vec<String>,
    /// Chosen per-operator parallelism.
    pub degrees: Vec<u32>,
    /// Chosen total parallelism.
    pub total: u64,
    /// Rejected candidate totals, in deployment order: every total the
    /// tuning loop deployed and moved past before settling on
    /// [`total`](Self::total).
    pub rejected: Vec<u64>,
    /// Tuning iterations executed.
    pub iterations: u32,
    /// Whether the tuner reached its own convergence criterion.
    pub converged: bool,
    /// Transient-fault retries absorbed during the run.
    pub retries: u64,
    /// Unix milliseconds at capture. Observational only — never part of
    /// any bit-identity comparison.
    pub ts_millis: u64,
}

/// FNV-1a 64 of a serialized graph signature: the stable structural hash
/// stored in [`DecisionRecord::dag_signature`].
pub fn signature_hash(sig: &streamtune_dataflow::GraphSignature) -> u64 {
    crate::store::fnv1a64(serde_json::to_string(sig).unwrap_or_default().as_bytes())
}

/// Unix milliseconds now (0 if the clock is before the epoch).
pub fn unix_millis() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> DecisionRecord {
        DecisionRecord {
            job: "a".to_string(),
            trigger: trigger::SUBMIT.to_string(),
            query: "nexmark-q1".to_string(),
            multiplier: 6.0,
            seed: 1,
            backend: "chaos".to_string(),
            dag_ops: 4,
            dag_edges: 3,
            dag_signature: 0xdead_beef,
            cluster: 1,
            clusters: 3,
            global_fallback: false,
            center_distances: vec![4, 0, 9],
            model_generation: 2,
            cache_lookups: 120,
            cache_searches: 14,
            cache_filtered: 30,
            cache_structures: 11,
            op_names: vec!["source".to_string(), "sink".to_string()],
            degrees: vec![2, 1],
            total: 3,
            rejected: vec![2, 6],
            iterations: 3,
            converged: true,
            retries: 1,
            ts_millis: 1_700_000_000_000,
        }
    }

    #[test]
    fn records_roundtrip_through_serde() {
        let r = record();
        let line = serde_json::to_string(&r).unwrap();
        let back: DecisionRecord = serde_json::from_str(&line).unwrap();
        assert_eq!(back, r, "{line}");
    }

    #[test]
    fn signature_hash_is_structural() {
        use streamtune_workloads::{nexmark, rates::Engine};
        let a = nexmark::q1(Engine::Flink);
        let b = nexmark::q1(Engine::Flink);
        let c = nexmark::q5(Engine::Flink);
        let sig = |w: &streamtune_workloads::Workload| {
            signature_hash(&streamtune_dataflow::GraphSignature::of(&w.flow))
        };
        assert_eq!(sig(&a), sig(&b), "identical structures hash identically");
        assert_ne!(sig(&a), sig(&c), "different structures hash apart");
    }
}
