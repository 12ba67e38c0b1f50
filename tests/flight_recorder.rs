//! The flight recorder, end to end: a `recommend` request served over TCP
//! leaves a complete causal span tree (dispatch → lock wait → handler →
//! drain → per-job run → tune → backend deploy) retrievable via the
//! `trace` verb, and the job's one nearest-center GED pass shows in its
//! `submit` trace, not in the tune; the Chrome trace-event export is structurally valid
//! Perfetto input; `explain` reproduces a job's decision audit record
//! bit-for-bit across a daemon restart; and the `metrics_history` verb
//! serves ordered frames of registry deltas.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::{Mutex, MutexGuard};
use streamtune::core::Parallelism;
use streamtune::prelude::*;
use streamtune::serve::{Response, ServerConfig, TcpConfig};
use streamtune::workloads::history::HistoryGenerator;
use streamtune::workloads::rates::Engine;

/// The trace store and metrics history are process-wide; tests that read
/// them take this gate so they never observe each other's traces.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn server_with(store: Option<ModelStore>) -> Server {
    let (server, _) = Server::bootstrap(
        store,
        ServerConfig::fast().with_parallelism(Parallelism::Serial),
        || {
            let cluster = SimCluster::flink_defaults(91);
            HistoryGenerator::new(91).with_jobs(12).generate(&cluster)
        },
    )
    .expect("bootstrap succeeds");
    server
}

fn spec(name: &str) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        query: "nexmark-q1".to_string(),
        multiplier: 6.0,
        seed: 1,
        engine: Engine::Flink,
        backend: BackendSpec::Sim,
    }
}

/// A tiny line-oriented protocol client.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> Response {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send request");
        let mut response = String::new();
        self.reader.read_line(&mut response).expect("read response");
        serde_json::from_str(response.trim()).expect("valid response line")
    }
}

/// One span from the `trace` payload, flattened for assertions.
#[derive(Debug)]
struct FlatSpan {
    id: u64,
    parent: Option<u64>,
    target: String,
    name: String,
    fields: std::collections::HashMap<String, String>,
}

fn flatten_spans(trace: &serde_json::Value) -> Vec<FlatSpan> {
    let serde_json::Value::Array(spans) = trace.field("spans").expect("trace has spans") else {
        panic!("spans must be an array");
    };
    spans
        .iter()
        .map(|s| FlatSpan {
            id: match s.field("span").expect("span id") {
                serde_json::Value::U64(n) => *n,
                other => panic!("span id must be u64, got {other:?}"),
            },
            parent: match s.field("parent").expect("parent") {
                serde_json::Value::Null => None,
                serde_json::Value::U64(n) => Some(*n),
                other => panic!("parent must be null or u64, got {other:?}"),
            },
            target: match s.field("target").expect("target") {
                serde_json::Value::String(t) => t.clone(),
                other => panic!("target must be a string, got {other:?}"),
            },
            name: match s.field("name").expect("name") {
                serde_json::Value::String(n) => n.clone(),
                other => panic!("name must be a string, got {other:?}"),
            },
            fields: serde::Deserialize::deserialize(s.field("fields").expect("fields"))
                .expect("fields map names to text"),
        })
        .collect()
}

fn find<'a>(spans: &'a [FlatSpan], name: &str) -> &'a FlatSpan {
    spans
        .iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("span `{name}` missing from {spans:?}"))
}

#[test]
fn recommend_over_tcp_leaves_a_complete_span_tree_behind_the_trace_verb() {
    let _g = gate();
    streamtune::telemetry::trace::store().clear();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = Mutex::new(server_with(None));

    let (submit_payload, payload) = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| Server::serve_tcp(&server, &listener, TcpConfig::default()));
        let mut client = Client::connect(addr);
        assert!(matches!(
            client.request(
                "{\"submit\": {\"name\": \"flight\", \"query\": \"nexmark-q1\", \
                 \"multiplier\": 6.0, \"seed\": 1, \"engine\": \"flink\", \"backend\": \"sim\"}}"
            ),
            Response::Submitted { .. }
        ));
        assert!(matches!(
            client.request("{\"recommend\": {\"job\": \"flight\"}}"),
            Response::Recommendation(_)
        ));
        let Response::Trace(submit_payload) =
            client.request("{\"trace\": {\"label\": \"submit\"}}")
        else {
            panic!("expected trace response");
        };
        let Response::Trace(payload) = client.request("{\"trace\": {\"label\": \"recommend\"}}")
        else {
            panic!("expected trace response");
        };
        assert!(matches!(
            client.request("\"shutdown\""),
            Response::ShuttingDown
        ));
        drop(client);
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
        (submit_payload, payload)
    });

    // The recorder was on and saw the request.
    assert_eq!(
        payload.field("enabled").expect("enabled"),
        &serde_json::Value::Bool(true)
    );
    let trace = payload.field("trace").expect("a complete recommend trace");
    assert_eq!(
        trace.field("label").expect("label"),
        &serde_json::Value::String("recommend".to_string())
    );
    let spans = flatten_spans(trace);

    // The job is placed once, at admission: the nearest-center GED pass
    // runs under the submit handler and nowhere on the tune path.
    let submit_trace = submit_payload
        .field("trace")
        .expect("a complete submit trace");
    let submit_spans = flatten_spans(submit_trace);
    let placements: Vec<&FlatSpan> = submit_spans
        .iter()
        .filter(|s| s.name == "assign_cluster")
        .collect();
    assert_eq!(placements.len(), 1, "one GED placement per submit");
    let handle_submit = find(&submit_spans, "handle:submit");
    assert_eq!(placements[0].parent, Some(handle_submit.id));
    assert_eq!(placements[0].target, "serve.job");
    // The daemon's first job of a DAG structure runs the GED pass.
    assert_eq!(
        placements[0].fields.get("memo").map(String::as_str),
        Some("miss")
    );
    assert!(
        !spans.iter().any(|s| s.name == "assign_cluster"),
        "the tune reuses the admission placement: {spans:?}"
    );

    // The causal chain of one recommend request, root to leaf: the TCP
    // dispatcher's root span, the wait for the daemon lock (a *sibling*
    // of the handler — the handler's time must not be billed to the
    // wait), the handler, the job drain, the per-job worker (stitched
    // across the thread hop), the tuner, and inside it the `M_f` fit and
    // the backend deploys.
    let dispatch = find(&spans, "dispatch");
    assert_eq!(dispatch.parent, None, "dispatch is the root");
    assert_eq!(dispatch.target, "serve.dispatch");
    let lock = find(&spans, "lock_acquire");
    assert_eq!(lock.parent, Some(dispatch.id));
    let handle = find(&spans, "handle:recommend");
    assert_eq!(handle.parent, Some(dispatch.id));
    let drain = find(&spans, "drain");
    assert_eq!(drain.parent, Some(handle.id));
    assert_eq!(drain.target, "serve.job");
    let run = find(&spans, "run_job:flight");
    assert_eq!(run.parent, Some(drain.id), "worker span stitches to drain");
    let tune = find(&spans, "tune");
    assert_eq!(tune.parent, Some(run.id));
    // The daemon's first job of a cluster fills the shared warm-up fit.
    let fit = find(&spans, "fit");
    assert_eq!(fit.parent, Some(tune.id));
    assert_eq!(fit.target, "core.tune");
    assert_eq!(fit.fields.get("shared").map(String::as_str), Some("miss"));
    let deploy = find(&spans, "deploy");
    assert_eq!(deploy.parent, Some(tune.id));
    assert_eq!(deploy.target, "backend.session");

    // The same request is also the newest summary with a sane duration.
    let serde_json::Value::Array(summaries) = payload.field("traces").expect("summaries") else {
        panic!("traces must be an array");
    };
    assert!(!summaries.is_empty());
}

#[test]
fn chrome_trace_export_is_structurally_valid() {
    let _g = gate();
    streamtune::telemetry::trace::store().clear();
    let mut server = server_with(None);
    let (response, _) = server.handle(&Request::Submit(spec("chrome")));
    assert!(matches!(response, Response::Submitted { .. }));
    let (response, _) = server.handle(&Request::Recommend {
        job: "chrome".to_string(),
    });
    assert!(matches!(response, Response::Recommendation(_)));
    let (response, _) = server.handle(&Request::Trace {
        label: Some("recommend".to_string()),
    });
    let Response::Trace(payload) = response else {
        panic!("expected trace response");
    };
    let serde_json::Value::String(chrome) = payload.field("chrome").expect("chrome export") else {
        panic!("chrome export must be a string");
    };

    // The export must parse as standalone JSON with the Chrome
    // trace-event envelope: complete ("ph": "X") events carrying
    // microsecond timestamps/durations and pid/tid lanes — what
    // chrome://tracing and Perfetto load directly.
    let doc: serde_json::Value = serde_json::from_str(chrome).expect("chrome export parses");
    assert_eq!(
        doc.field("displayTimeUnit").expect("displayTimeUnit"),
        &serde_json::Value::String("ns".to_string())
    );
    let serde_json::Value::Array(events) = doc.field("traceEvents").expect("traceEvents") else {
        panic!("traceEvents must be an array");
    };
    assert!(!events.is_empty(), "at least the root span is exported");
    let mut names = Vec::new();
    for event in events {
        assert_eq!(
            event.field("ph").expect("phase"),
            &serde_json::Value::String("X".to_string()),
            "spans export as complete events"
        );
        for key in ["name", "cat", "ts", "dur", "pid", "tid"] {
            event
                .field(key)
                .unwrap_or_else(|_| panic!("event missing `{key}`"));
        }
        if let serde_json::Value::String(name) = event.field("name").expect("name") {
            names.push(name.clone());
        }
    }
    for expected in ["handle:recommend", "drain", "tune", "deploy"] {
        assert!(
            names.iter().any(|n| n == expected),
            "chrome export must carry `{expected}`, got {names:?}"
        );
    }
}

#[test]
fn explain_reproduces_the_decision_record_across_a_daemon_restart() {
    let _g = gate();
    let dir =
        std::env::temp_dir().join(format!("streamtune-flight-explain-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // First daemon lifetime: tune one job, read its audit record, persist.
    let mut server = server_with(Some(ModelStore::new(&dir)));
    let (response, _) = server.handle(&Request::Submit(spec("audited")));
    assert!(matches!(response, Response::Submitted { .. }));
    let (response, _) = server.handle(&Request::Recommend {
        job: "audited".to_string(),
    });
    let Response::Recommendation(recommendation) = response else {
        panic!("expected recommendation");
    };
    let (response, _) = server.handle(&Request::Explain {
        job: "audited".to_string(),
    });
    let Response::Explained(first) = response else {
        panic!("expected explained, got {response:?}");
    };
    let (response, _) = server.handle(&Request::Snapshot);
    assert!(matches!(response, Response::Snapshotted { .. }));
    drop(server);

    // The record is the full decision story, consistent with the
    // recommendation the client saw.
    let line = serde_json::to_string(&first).expect("payload renders");
    let record: streamtune::serve::DecisionRecord =
        serde_json::from_str(&line).expect("record parses");
    assert_eq!(record.job, "audited");
    assert_eq!(record.trigger, "submit");
    assert_eq!(record.backend, "sim");
    assert_eq!(record.query, "nexmark-q1");
    assert_eq!(record.degrees, recommendation.degrees);
    assert_eq!(record.total, recommendation.total);
    assert_eq!(record.cluster, recommendation.cluster as u64);
    assert_eq!(record.iterations, recommendation.iterations);
    assert!(
        record.center_distances.len() == record.clusters as usize,
        "one distance per cluster center"
    );
    assert_eq!(record.model_generation, 0, "bootstrap model served it");
    assert!(record.ts_millis > 0, "capture is wall-clock stamped");

    // Second lifetime on the same store: no retraining, and `explain`
    // answers from the persisted trail — bit-for-bit the same record.
    let mut restarted = server_with(Some(ModelStore::new(&dir)));
    let (response, _) = restarted.handle(&Request::Explain {
        job: "audited".to_string(),
    });
    let Response::Explained(second) = response else {
        panic!("expected explained after restart, got {response:?}");
    };
    assert_eq!(
        serde_json::to_string(&second).unwrap(),
        serde_json::to_string(&first).unwrap(),
        "the audit record survives the restart unchanged"
    );

    // A job that never completed a run has no record — and says so.
    let (response, _) = restarted.handle(&Request::Explain {
        job: "never-ran".to_string(),
    });
    assert!(matches!(response, Response::Error { .. }));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn ledger_cap_bounds_the_decision_trail_after_every_drain() {
    let _g = gate();
    let dir = std::env::temp_dir().join(format!("streamtune-flight-cap-{}", std::process::id()));
    let expected_dir = dir.join("expected");
    std::fs::remove_dir_all(&dir).ok();
    let config = ServerConfig {
        ledger_cap: 4,
        ..ServerConfig::fast().with_parallelism(Parallelism::Serial)
    };
    let (mut server, _) = Server::bootstrap(Some(ModelStore::new(&dir)), config, || {
        let cluster = SimCluster::flink_defaults(91);
        HistoryGenerator::new(91).with_jobs(12).generate(&cluster)
    })
    .expect("bootstrap succeeds");

    // Each job's record, read right after the drain that produced it: the
    // full trail an uncapped daemon would have kept.
    let mut trail = Vec::new();
    for i in 0..10 {
        let name = format!("j{i}");
        let (response, _) = server.handle(&Request::Submit(spec(&name)));
        assert!(matches!(response, Response::Submitted { .. }));
        let (response, _) = server.handle(&Request::Recommend { job: name.clone() });
        assert!(matches!(response, Response::Recommendation(_)));
        assert!(
            server.manager().decisions().len() <= 4,
            "trail holds {} records after drain {i}",
            server.manager().decisions().len()
        );
        let (response, _) = server.handle(&Request::Explain { job: name });
        let Response::Explained(value) = response else {
            panic!("the newest job explains itself, got {response:?}");
        };
        let line = serde_json::to_string(&value).expect("payload renders");
        let record: streamtune::serve::DecisionRecord =
            serde_json::from_str(&line).expect("record parses");
        trail.push(record);
    }
    // The oldest jobs answer as they would after a snapshot.
    let (response, _) = server.handle(&Request::Explain {
        job: "j0".to_string(),
    });
    assert!(matches!(response, Response::Error { .. }));

    // The snapshot persists exactly the newest `ledger_cap` records of the
    // full trail, byte for byte.
    let (response, _) = server.handle(&Request::Snapshot);
    assert!(matches!(response, Response::Snapshotted { .. }));
    ModelStore::new(&expected_dir)
        .save_decisions(&trail[6..])
        .expect("write expected trail");
    let written = std::fs::read(dir.join("decisions.json")).expect("decisions.json written");
    let expected = std::fs::read(expected_dir.join("decisions.json")).expect("expected trail");
    assert_eq!(
        written, expected,
        "decisions.json holds the newest four records"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn metrics_history_verb_serves_ordered_delta_frames() {
    let _g = gate();
    let mut server = server_with(None);
    let (_, _) = server.handle(&Request::Status);
    let (response, _) = server.handle(&Request::MetricsHistory);
    let Response::MetricsHistory(payload) = response else {
        panic!("expected metrics_history response");
    };
    assert_eq!(
        payload.field("enabled").expect("enabled"),
        &serde_json::Value::Bool(true)
    );
    let serde_json::Value::Array(frames) = payload.field("frames").expect("frames") else {
        panic!("frames must be an array");
    };
    // Each read appends its own frame first, so at least one exists, and
    // sequence numbers are strictly increasing oldest → newest.
    assert!(!frames.is_empty());
    let seqs: Vec<u64> = frames
        .iter()
        .map(|f| match f.field("seq").expect("seq") {
            serde_json::Value::U64(n) => *n,
            other => panic!("seq must be u64, got {other:?}"),
        })
        .collect();
    assert!(
        seqs.windows(2).all(|w| w[0] < w[1]),
        "frames are ordered: {seqs:?}"
    );
    // A second read sees a newer frame than the first.
    let (response, _) = server.handle(&Request::MetricsHistory);
    let Response::MetricsHistory(payload) = response else {
        panic!("expected metrics_history response");
    };
    let serde_json::Value::Array(frames) = payload.field("frames").expect("frames") else {
        panic!("frames must be an array");
    };
    let last = frames.last().expect("at least the new frame");
    match last.field("seq").expect("seq") {
        serde_json::Value::U64(n) => assert!(*n > *seqs.last().expect("first read had frames")),
        other => panic!("seq must be u64, got {other:?}"),
    }
}
