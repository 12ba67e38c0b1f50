//! Model-store coverage: a persisted store reproduces the freshly trained
//! model bit-for-bit, warm-started pre-training matches a cold run, and
//! corrupted artifacts fail loudly instead of panicking.

use streamtune::backend::{Tuner, TuningSession};
use streamtune::ged::{Bound, GedCache};
use streamtune::prelude::*;
use streamtune::serve::StoreError;
use streamtune::workloads::history::HistoryGenerator;
use streamtune::workloads::rates::Engine;
use streamtune_workloads::history::ExecutionRecord;

fn temp_store(name: &str) -> ModelStore {
    let dir =
        std::env::temp_dir().join(format!("streamtune-store-it-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    ModelStore::new(dir)
}

fn small_corpus(seed: u64) -> Vec<ExecutionRecord> {
    let cluster = SimCluster::flink_defaults(seed);
    HistoryGenerator::new(seed).with_jobs(14).generate(&cluster)
}

/// Tune `query` at `multiplier` on a fresh seeded simulator.
fn recommend(
    pre: &streamtune::core::Pretrained,
    query: &str,
    multiplier: f64,
    seed: u64,
) -> Vec<u32> {
    let workload = find_workload(query, Engine::Flink).expect("known workload");
    let flow = workload.at(multiplier);
    let mut cluster = SimCluster::flink_defaults(seed);
    let mut session = TuningSession::new(&mut cluster, &flow);
    let mut tuner = StreamTune::new(pre, TuneConfig::default());
    let outcome = tuner.tune(&mut session).expect("tuning succeeds");
    outcome.final_assignment.as_slice().to_vec()
}

#[test]
fn persisted_model_yields_bit_identical_recommendations() {
    let corpus = small_corpus(51);
    let pretrainer = Pretrainer::new(PretrainConfig::fast());
    let mut cache = GedCache::new(Bound::LabelSet, PretrainConfig::fast().cluster.ged_cap);
    let fresh = pretrainer.run_with_cache(&corpus, &mut cache);

    let store = temp_store("roundtrip");
    store.save_model(&fresh).expect("save model");
    store.save_ged_cache(&cache.snapshot()).expect("save cache");
    let reloaded = store.load_model().expect("load model");

    for (query, seed) in [("nexmark-q1", 5), ("nexmark-q5", 6), ("pqp-linear-3", 7)] {
        assert_eq!(
            recommend(&fresh, query, 10.0, seed),
            recommend(&reloaded, query, 10.0, seed),
            "reloaded model must recommend identically for {query}"
        );
    }

    // The cache snapshot round-trips to an equal snapshot.
    let snap = store.load_ged_cache().expect("load cache");
    assert_eq!(snap, cache.snapshot());
    std::fs::remove_dir_all(store.dir()).ok();
}

/// `json` with Adam moments added to every encoder's parameter set, in
/// the layout builds that kept them wrote: `{"values":V,"m":M,"v":V2,
/// "step":N}`. The moments copy the values, which have their shapes.
fn with_legacy_moments(json: &str) -> String {
    let key = "\"params\":{\"values\":";
    let mut out = String::with_capacity(3 * json.len());
    let mut rest = json;
    while let Some(at) = rest.find(key) {
        let start = at + key.len();
        let bytes = rest.as_bytes();
        let mut depth = 0usize;
        let mut end = start;
        loop {
            match bytes[end] {
                b'[' => depth += 1,
                b']' => depth -= 1,
                _ => {}
            }
            end += 1;
            if depth == 0 {
                break;
            }
        }
        let values = &rest[start..end];
        out.push_str(&rest[..end]);
        out.push_str(&format!(",\"m\":{values},\"v\":{values}"));
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn legacy_model_with_optimizer_state_loads_and_tunes_identically() {
    let fresh = Pretrainer::new(PretrainConfig::fast()).run(&small_corpus(57));
    let fresh_json = serde_json::to_string(&fresh).expect("serialize");
    assert!(
        !fresh_json.contains("\"m\":"),
        "trained encoders keep no moments"
    );
    let legacy_json = with_legacy_moments(&fresh_json);
    let legacy: streamtune::core::Pretrained =
        serde_json::from_str(&legacy_json).expect("a model with moments parses");

    // Written as an older build wrote it: the moments reach the file.
    let store = temp_store("legacy-moments");
    store.save_model(&legacy).expect("save legacy model");
    let on_disk = std::fs::read_to_string(store.model_path()).expect("read model.json");
    assert!(on_disk.contains("\"m\":[") && on_disk.contains("\"v\":["));

    let loaded = store.load_model().expect("legacy model.json loads");
    assert_eq!(
        serde_json::to_string(&loaded).expect("serialize"),
        fresh_json,
        "loading drops the moments and nothing else"
    );
    for (query, seed) in [("nexmark-q1", 5), ("nexmark-q5", 6), ("pqp-linear-3", 7)] {
        assert_eq!(
            recommend(&legacy, query, 10.0, seed),
            recommend(&loaded, query, 10.0, seed),
            "a legacy model must recommend identically for {query}"
        );
        assert_eq!(
            recommend(&fresh, query, 10.0, seed),
            recommend(&loaded, query, 10.0, seed)
        );
    }
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn warm_started_pretraining_matches_cold_and_skips_searches() {
    let corpus = small_corpus(53);
    let pretrainer = Pretrainer::new(PretrainConfig::fast());

    let mut cold_cache = GedCache::new(Bound::LabelSet, PretrainConfig::fast().cluster.ged_cap);
    let cold = pretrainer.run_with_cache(&corpus, &mut cold_cache);
    assert!(cold_cache.stats().searches > 0);

    // Persist only the GED cache (a run interrupted before the model was
    // written), then pre-train again from the restored snapshot.
    let store = temp_store("warm");
    store
        .save_ged_cache(&cold_cache.snapshot())
        .expect("save cache");
    let mut warm_cache =
        GedCache::from_snapshot(store.load_ged_cache().expect("load")).expect("valid snapshot");
    let warm = pretrainer.run_with_cache(&corpus, &mut warm_cache);
    assert_eq!(
        warm_cache.stats().searches,
        0,
        "every A* fact must come from the snapshot"
    );

    // Same clusters, same models, same behaviour.
    assert_eq!(warm.clusters.len(), cold.clusters.len());
    for (w, c) in warm.clusters.iter().zip(&cold.clusters) {
        assert_eq!(w.center, c.center);
        assert_eq!(w.final_loss.to_bits(), c.final_loss.to_bits());
        assert_eq!(w.warmup, c.warmup);
    }
    assert_eq!(
        recommend(&warm, "nexmark-q2", 10.0, 9),
        recommend(&cold, "nexmark-q2", 10.0, 9),
    );
    std::fs::remove_dir_all(store.dir()).ok();
}

/// A deliberately minuscule model (global-fallback path, tiny encoder,
/// tiny warm-up set) so the byte-by-byte envelope sweep stays fast: the
/// sweep is quadratic in envelope size.
fn tiny_model(seed: u64) -> streamtune::core::Pretrained {
    let mut cfg = PretrainConfig::fast();
    cfg.min_structures_for_clustering = usize::MAX;
    cfg.gnn.hidden_dim = 4;
    cfg.gnn.message_passing_steps = 1;
    cfg.epochs = 2;
    cfg.min_warmup_points = 4;
    let cluster = SimCluster::flink_defaults(seed);
    let corpus = HistoryGenerator::new(seed).with_jobs(3).generate(&cluster);
    Pretrainer::new(cfg).run(&corpus)
}

#[test]
fn recover_model_falls_back_to_backup_and_quarantines() {
    let store = temp_store("recover");
    let old = tiny_model(61);
    let new = tiny_model(62);
    store.save_model(&old).expect("save old");
    store
        .save_model(&new)
        .expect("save new (rotates old to .bak)");
    let env_old = std::fs::read(store.model_backup_path()).expect("backup exists");
    let env_new = std::fs::read(store.model_path()).expect("model exists");
    assert_ne!(env_old, env_new, "distinct models must differ on disk");

    // Tear the live model mid-envelope; recovery must quarantine it and
    // promote the rotated backup byte-for-byte.
    std::fs::write(store.model_path(), &env_new[..env_new.len() / 2]).expect("tear");
    let recovery = store.recover_model().expect("recovery is not a hard error");
    assert!(recovery.model.is_some(), "the backup must boot the daemon");
    assert_eq!(
        std::fs::read(store.model_path()).expect("promoted model"),
        env_old,
        "model.json.bak is promoted without re-rendering"
    );
    let corrupt = store.dir().join("model.json.corrupt");
    assert!(
        corrupt.is_file(),
        "the torn envelope is kept for post-mortem"
    );
    assert!(
        !store.model_backup_path().exists(),
        "the promoted backup no longer exists under its old name"
    );
    assert!(
        recovery.events.iter().any(|e| e.contains("quarantined"))
            && recovery.events.iter().any(|e| e.contains("promoted")),
        "recovery narrates what it did: {:?}",
        recovery.events
    );

    // Both copies corrupt: quarantine everything, report no model (the
    // caller falls back to a cold pre-train), still no hard error.
    store.save_model(&new).expect("save again");
    std::fs::rename(store.model_path(), store.model_backup_path()).expect("plant bad bak");
    std::fs::write(store.model_backup_path(), b"{not an envelope").expect("corrupt bak");
    std::fs::write(store.model_path(), b"").expect("empty model");
    let recovery = store.recover_model().expect("still not a hard error");
    assert!(recovery.model.is_none());
    assert!(store.dir().join("model.json.corrupt").is_file());
    assert!(store.dir().join("model.json.bak.corrupt").is_file());
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn crash_consistency_truncation_sweep() {
    use streamtune::core::Parallelism;
    use streamtune::serve::ServerConfig;

    let store = temp_store("sweep");
    let old = tiny_model(63);
    let new = tiny_model(64);
    store.save_model(&old).expect("save old");
    store.save_model(&new).expect("save new");
    let env_old = std::fs::read(store.model_backup_path()).expect("backup exists");
    let env_new = std::fs::read(store.model_path()).expect("model exists");
    assert_ne!(env_old, env_new);

    // A crash can stop the model swap at *any* byte. For every truncation
    // offset of the new envelope, recovery must land on exactly the old
    // or the new committed state — never garbage, never a refusal.
    let corrupt = store.dir().join("model.json.corrupt");
    for k in 0..=env_new.len() {
        std::fs::write(store.model_backup_path(), &env_old).expect("reset backup");
        std::fs::write(store.model_path(), &env_new[..k]).expect("torn write");
        std::fs::remove_file(&corrupt).ok();

        let recovery = store
            .recover_model()
            .unwrap_or_else(|e| panic!("offset {k}: recovery hard-errored: {e}"));
        assert!(
            recovery.model.is_some(),
            "offset {k}: a committed model must survive"
        );
        let now = std::fs::read(store.model_path()).expect("model after recovery");
        if k < env_new.len() {
            // Torn write: the old envelope is promoted byte-for-byte and
            // the torn bytes are quarantined.
            assert_eq!(now, env_old, "offset {k}: old state must be restored");
            assert!(corrupt.is_file(), "offset {k}: torn bytes quarantined");
            assert!(!recovery.events.is_empty());
        } else {
            // The write completed: the new state stands untouched.
            assert_eq!(now, env_new);
            assert!(recovery.events.is_empty());
        }
    }

    // The daemon itself boots on representative torn states (recovery is
    // wired into bootstrap, not just the store API).
    for k in [0, env_new.len() / 2, env_new.len()] {
        std::fs::write(store.model_backup_path(), &env_old).expect("reset backup");
        std::fs::write(store.model_path(), &env_new[..k]).expect("torn write");
        std::fs::remove_file(&corrupt).ok();
        let (_server, report) = Server::bootstrap(
            Some(ModelStore::new(store.dir())),
            ServerConfig::fast().with_parallelism(Parallelism::Serial),
            || panic!("offset {k}: recovery must not retrain"),
        )
        .unwrap_or_else(|e| panic!("offset {k}: daemon refused to boot: {e}"));
        assert!(report.loaded_from_store);
        assert_eq!(report.store_recoveries > 0, k < env_new.len());
    }
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn corrupted_store_artifacts_error_loudly() {
    let corpus = small_corpus(57);
    let mut cfg = PretrainConfig::fast();
    cfg.min_structures_for_clustering = usize::MAX; // global fallback: tiny model
    let pre = Pretrainer::new(cfg).run(&corpus);

    let store = temp_store("corrupt");
    store.save_model(&pre).expect("save model");

    // Flip one payload byte: checksum mismatch, not a panic or a silently
    // wrong model.
    let path = store.model_path();
    let text = std::fs::read_to_string(&path).expect("read artifact");
    let tampered = text.replacen("\"ged_cap\":", "\"ged_cap_x\":", 1);
    assert_ne!(tampered, text, "tamper point must exist");
    std::fs::write(&path, tampered).expect("write tampered");
    match store.load_model() {
        Err(StoreError::ChecksumMismatch { .. }) => {}
        other => panic!("expected ChecksumMismatch, got {other:?}"),
    }

    // Truncation is a format error.
    std::fs::write(&path, &text[..text.len() / 2]).expect("write truncated");
    match store.load_model() {
        Err(StoreError::Format { .. }) => {}
        other => panic!("expected Format error, got {other:?}"),
    }
    std::fs::remove_dir_all(store.dir()).ok();
}

#[test]
fn journal_truncation_sweep_resumes_or_restarts_never_garbage() {
    use streamtune::core::Parallelism;
    use streamtune::serve::{journal_file_name, load_journal, Request, ServerConfig};

    let store = temp_store("journal-sweep");
    let boot = || {
        Server::bootstrap(
            Some(ModelStore::new(store.dir())),
            ServerConfig::fast().with_parallelism(Parallelism::Serial),
            || small_corpus(51),
        )
        .expect("bootstrap succeeds")
    };
    let degrees = |server: &mut Server| match server
        .handle(&Request::Recommend {
            job: "sweep".to_string(),
        })
        .0
    {
        Response::Recommendation(rec) => Some(rec.degrees),
        Response::Error { .. } => None,
        other => panic!("expected recommendation or error, got {other:?}"),
    };

    // The uninterrupted run: cold bootstrap persists the model, the
    // recommend drains the job, and the epoch journal it wrote survives
    // (journals are only swept at snapshot time).
    let (mut server, _) = boot();
    let spec = JobSpec {
        name: "sweep".to_string(),
        query: "pqp-linear-3".to_string(),
        multiplier: 12.0,
        seed: 5,
        engine: Engine::Flink,
        backend: BackendSpec::Sim,
    };
    assert!(matches!(
        server.handle(&Request::Submit(spec)).0,
        Response::Submitted { .. }
    ));
    let reference = degrees(&mut server).expect("the reference run tunes");
    drop(server);

    let journal_path = ModelStore::new(store.dir())
        .journal_dir()
        .join(journal_file_name("sweep"));
    let full_bytes = std::fs::read(&journal_path).expect("journal persisted");
    let full = load_journal(&journal_path)
        .expect("journal readable")
        .expect("journal has a valid header");
    assert!(full.entries.len() >= 2, "the run must journal its epochs");
    let header_len = full_bytes.iter().position(|b| *b == b'\n').expect("header") + 1;

    // A crash can stop the journal at *any* byte. Byte-by-byte, loading
    // the truncated journal yields exactly a prefix of the full entries
    // (torn tail records dropped) — or no journal while the header is
    // torn — never an error, never a mangled record.
    for k in 0..=full_bytes.len() {
        std::fs::write(&journal_path, &full_bytes[..k]).expect("torn write");
        match load_journal(&journal_path)
            .unwrap_or_else(|e| panic!("offset {k}: load refused: {e}"))
        {
            None => assert!(
                k + 1 < header_len,
                "offset {k}: a byte-complete sealed header must parse"
            ),
            Some(loaded) => {
                // A line missing only its newline is still byte-complete.
                assert!(k + 1 >= header_len);
                assert_eq!(loaded.spec.name, "sweep", "offset {k}");
                assert!(loaded.entries.len() <= full.entries.len(), "offset {k}");
                assert_eq!(
                    loaded.entries[..],
                    full.entries[..loaded.entries.len()],
                    "offset {k}: surviving records are an exact prefix"
                );
            }
        }
    }

    // The daemon itself boots on representative torn journals: a parseable
    // prefix resumes the job to a bit-identical outcome; a torn header
    // means the job was never durably admitted and is simply absent.
    for k in [
        0,
        1,
        header_len - 1,
        header_len,
        header_len + 1,
        full_bytes.len() / 2,
        full_bytes.len() - 1,
        full_bytes.len(),
    ] {
        std::fs::write(&journal_path, &full_bytes[..k]).expect("torn write");
        let (mut server, report) = boot();
        assert!(report.loaded_from_store, "offset {k}: no retraining");
        if k + 1 < header_len {
            assert_eq!(report.resumed_jobs, 0, "offset {k}");
            assert_eq!(degrees(&mut server), None, "offset {k}: job never admitted");
        } else {
            assert_eq!(report.resumed_jobs, 1, "offset {k}");
            assert_eq!(
                degrees(&mut server).as_deref(),
                Some(&reference[..]),
                "offset {k}: the resumed outcome must be bit-identical"
            );
        }
    }
    std::fs::remove_dir_all(store.dir()).ok();
}
