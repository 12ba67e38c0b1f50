//! The telemetry layer, end to end: histogram bucket boundaries and
//! merge algebra, concurrent recording parity across `Serial` and
//! `Fixed(4)`, Prometheus exposition validated by the in-repo checker,
//! the `metrics` protocol verb, the event ring/JSONL stream — and the
//! invariant everything else depends on: telemetry is *strictly
//! observational*, so chaos-seeded tuning with telemetry enabled is
//! bit-identical to the same run with telemetry disabled.

use std::io::Write;
use std::sync::{Arc, Mutex, MutexGuard};
use streamtune::backend::FaultPlan;
use streamtune::core::Parallelism;
use streamtune::prelude::*;
use streamtune::serve::{BackendSpec, JobSpec, Request, Response, ServerConfig};
use streamtune::telemetry::{
    bucket_index, bucket_lower_bound, bucket_upper_bound, check_prometheus, render_prometheus,
    EventLog, HistogramSnapshot, Level, Registry, HISTOGRAM_BUCKETS,
};
use streamtune::workloads::history::HistoryGenerator;
use streamtune::workloads::rates::Engine;

/// The global enabled flag and registry are process-wide; tests that
/// record or toggle them take this gate so they never observe each
/// other's state.
static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

#[test]
fn histogram_buckets_split_exactly_at_powers_of_two() {
    let _g = gate();
    // Bucket i holds [2^i, 2^(i+1)), bucket 0 additionally holds 0.
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 0);
    for i in 1..HISTOGRAM_BUCKETS {
        let lo = bucket_lower_bound(i);
        assert_eq!(bucket_index(lo), i, "lower bound of bucket {i}");
        assert_eq!(bucket_index(lo - 1), i - 1, "below bucket {i}");
        if let Some(hi) = bucket_upper_bound(i) {
            assert_eq!(bucket_index(hi), i, "upper bound of bucket {i}");
            assert_eq!(hi, bucket_lower_bound(i + 1) - 1, "buckets are adjacent");
        }
    }
    assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    // Recording lands where the boundaries say.
    let registry = Registry::new();
    let hist = registry.histogram("t_bounds_nanoseconds", "test");
    for v in [0, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
        hist.record(v);
    }
    let snap = hist.snapshot();
    assert_eq!(snap.count, 8);
    assert_eq!(snap.buckets[0], 2); // 0, 1
    assert_eq!(snap.buckets[1], 2); // 2, 3
    assert_eq!(snap.buckets[2], 1); // 4
    assert_eq!(snap.buckets[9], 1); // 1023
    assert_eq!(snap.buckets[10], 1); // 1024
    assert_eq!(snap.buckets[63], 1); // u64::MAX
}

#[test]
fn histogram_merge_is_associative_commutative_with_identity() {
    let mk = |values: &[u64]| {
        let registry = Registry::new();
        let h = registry.histogram("t_merge_nanoseconds", "test");
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    };
    let _g = gate();
    let a = mk(&[1, 5, 900]);
    let b = mk(&[2, 2, 1 << 40]);
    let c = mk(&[0, u64::MAX / 3]);

    let merged = |x: &HistogramSnapshot, y: &HistogramSnapshot| {
        let mut out = x.clone();
        out.merge(y);
        out
    };
    // (a ⊕ b) ⊕ c == a ⊕ (b ⊕ c), a ⊕ b == b ⊕ a, a ⊕ 0 == a.
    assert_eq!(
        merged(&merged(&a, &b), &c),
        merged(&a, &merged(&b, &c)),
        "associativity"
    );
    assert_eq!(merged(&a, &b), merged(&b, &a), "commutativity");
    assert_eq!(merged(&a, &HistogramSnapshot::empty()), a, "identity");
    // Quantiles of the merge are a pure function of the merged buckets.
    let all = merged(&merged(&a, &b), &c);
    assert_eq!(all.count, 8);
    assert!(all.quantile(0.5) >= 1.0);
    assert!(all.quantile(0.99) >= all.quantile(0.5));
}

#[test]
fn histogram_quantiles_survive_the_edge_cases() {
    let _g = gate();
    // Empty: every quantile is 0, not NaN or a panic.
    let empty = HistogramSnapshot::empty();
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(empty.quantile(q), 0.0, "empty histogram at q={q}");
    }
    // Out-of-range quantiles clamp instead of indexing out of bounds.
    let registry = Registry::new();
    let h = registry.histogram("t_edge_nanoseconds", "test");
    h.record(700);
    let single = h.snapshot();
    assert_eq!(single.quantile(-1.0), single.quantile(0.0));
    assert_eq!(single.quantile(2.0), single.quantile(1.0));
    // Single sample: every quantile stays inside the sample's bucket.
    let (lo, hi) = (
        bucket_lower_bound(bucket_index(700)) as f64,
        bucket_upper_bound(bucket_index(700)).expect("bounded bucket") as f64,
    );
    for q in [0.0, 0.5, 0.99, 1.0] {
        let v = single.quantile(q);
        assert!(
            (lo..=hi).contains(&v),
            "single-sample q={q} estimate {v} escapes [{lo}, {hi}]"
        );
    }
    // A sample in the unbounded top bucket: the estimate falls back to
    // the in-bucket mean — at or above the bucket floor, never infinite.
    let registry = Registry::new();
    let h = registry.histogram("t_top_nanoseconds", "test");
    let floor = bucket_lower_bound(HISTOGRAM_BUCKETS - 1);
    h.record(floor + 17);
    let top = h.snapshot();
    for q in [0.5, 0.99] {
        let v = top.quantile(q);
        assert!(v.is_finite() && v >= floor as f64, "top-bucket q={q} = {v}");
    }
}

#[test]
fn histogram_quantiles_stay_monotone_under_merge() {
    let _g = gate();
    // Merge deterministic pseudo-random shards pairwise; at every step
    // the quantile function of the merged snapshot must be monotone in q
    // (p50 ≤ p90 ≤ p99 ≤ p999) and bounded by the recorded extremes'
    // bucket range.
    let shard = |seed: u64| {
        let registry = Registry::new();
        let h = registry.histogram("t_mono_nanoseconds", "test");
        let mut x = seed.max(1);
        for _ in 0..257 {
            // xorshift64: cheap, deterministic, spread over many buckets.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Mask to 32 bits so the merged `sum` stays far from u64
            // overflow while still spreading across ~32 buckets.
            h.record((x >> (x % 50)) & 0xFFFF_FFFF);
        }
        h.snapshot()
    };
    let mut merged = HistogramSnapshot::empty();
    for seed in 1..=6u64 {
        merged.merge(&shard(seed));
        let qs: Vec<f64> = [0.5, 0.9, 0.99, 0.999]
            .iter()
            .map(|&q| merged.quantile(q))
            .collect();
        assert!(
            qs.windows(2).all(|w| w[0] <= w[1]),
            "quantiles must be monotone after merging seed {seed}: {qs:?}"
        );
    }
    assert_eq!(merged.count, 6 * 257);
}

#[test]
fn concurrent_recording_from_fixed_4_matches_serial_totals() {
    let _g = gate();
    let values: Vec<u64> = (0..4_000u64)
        .map(|i| i.wrapping_mul(2654435761) >> 16)
        .collect();
    let serial = {
        let registry = Registry::new();
        let h = registry.histogram("t_par_nanoseconds", "test");
        let c = registry.counter("t_par_total", "test");
        for &v in &values {
            h.record(v);
            c.inc();
        }
        (h.snapshot(), c.get())
    };
    let pooled = {
        let registry = Registry::new();
        let h = registry.histogram("t_par_nanoseconds", "test");
        let c = registry.counter("t_par_total", "test");
        std::thread::scope(|scope| {
            for chunk in values.chunks(values.len() / 4) {
                let h = h.clone();
                let c = c.clone();
                scope.spawn(move || {
                    for &v in chunk {
                        h.record(v);
                        c.inc();
                    }
                });
            }
        });
        // Writers quiesced at scope exit: the snapshot is exact.
        (h.snapshot(), c.get())
    };
    assert_eq!(serial, pooled, "4-thread recording must lose nothing");
}

fn spec(name: &str, query: &str, multiplier: f64, seed: u64, backend: BackendSpec) -> JobSpec {
    JobSpec {
        name: name.to_string(),
        query: query.to_string(),
        multiplier,
        seed,
        engine: Engine::Flink,
        backend,
    }
}

fn tiny_server_with(parallelism: Parallelism) -> Server {
    let (server, _) = Server::bootstrap(
        None,
        ServerConfig::fast().with_parallelism(parallelism),
        || {
            let cluster = SimCluster::flink_defaults(91);
            HistoryGenerator::new(91).with_jobs(12).generate(&cluster)
        },
    )
    .expect("bootstrap succeeds");
    server
}

fn tiny_server() -> Server {
    tiny_server_with(Parallelism::Serial)
}

/// Run a chaos-seeded submit → drain → recommend flow and return every
/// response line (the daemon's complete observable output).
fn chaos_run_with(parallelism: Parallelism) -> Vec<String> {
    let mut server = tiny_server_with(parallelism);
    let mut plan = FaultPlan::transient(23);
    plan.io_rate = 0.9;
    let mut lines = Vec::new();
    for request in [
        Request::Submit(spec(
            "a",
            "nexmark-q1",
            6.0,
            1,
            BackendSpec::Chaos(Box::new(plan)),
        )),
        Request::Submit(spec("b", "nexmark-q5", 8.0, 2, BackendSpec::Sim)),
        Request::Status,
        Request::Recommend {
            job: "a".to_string(),
        },
        Request::Recommend {
            job: "b".to_string(),
        },
    ] {
        let (response, _) = server.handle(&request);
        lines.push(streamtune::serve::render_response(&response));
    }
    lines
}

#[test]
fn tuning_with_telemetry_disabled_is_bit_identical_to_enabled() {
    let _g = gate();
    streamtune::telemetry::set_enabled(true);
    let with_telemetry = chaos_run_with(Parallelism::Serial);
    streamtune::telemetry::set_enabled(false);
    let without_telemetry = chaos_run_with(Parallelism::Serial);
    streamtune::telemetry::set_enabled(true);
    assert_eq!(
        with_telemetry, without_telemetry,
        "telemetry must be strictly observational"
    );
}

#[test]
fn tracing_and_audit_leave_chaos_outcomes_bit_identical_across_pools() {
    // The flight recorder widens the observational surface — causal span
    // trees through the drain workers, decision audit capture, metrics
    // history frames — and none of it may perturb answers: chaos-seeded
    // runs with tracing on equal runs with it off, on the serial pool and
    // on a 4-thread pool alike, and the pools equal each other.
    let _g = gate();
    streamtune::telemetry::set_enabled(true);
    let serial_traced = chaos_run_with(Parallelism::Serial);
    let fixed_traced = chaos_run_with(Parallelism::Fixed(4));
    streamtune::telemetry::set_enabled(false);
    let serial_dark = chaos_run_with(Parallelism::Serial);
    let fixed_dark = chaos_run_with(Parallelism::Fixed(4));
    streamtune::telemetry::set_enabled(true);
    assert_eq!(serial_traced, serial_dark, "tracing is observational");
    assert_eq!(fixed_traced, fixed_dark, "across thread pools too");
    assert_eq!(
        serial_traced, fixed_traced,
        "parallelism changes wall clock, never answers"
    );
}

#[test]
fn metrics_verb_and_prometheus_exposition_cover_the_core_series() {
    let _g = gate();
    streamtune::telemetry::set_enabled(true);
    let mut server = tiny_server();
    let (_, _) = server.handle(&Request::Status);
    let (_, _) = server.handle(&Request::Health);

    // The Prometheus rendering of the global registry passes the same
    // checker CI runs against the live scrape endpoint.
    let text = streamtune::serve::prometheus_text();
    check_prometheus(&text).expect("global exposition must validate");
    for series in [
        "streamtune_build_info",
        "streamtune_uptime_seconds",
        "streamtune_requests_total",
        "streamtune_request_duration_nanoseconds",
        "streamtune_pretrain_phase_duration_nanoseconds",
        "streamtune_ged_cache_hits_total",
        "streamtune_ged_cache_misses_total",
        "streamtune_warm_fit_total",
        "streamtune_placement_total",
    ] {
        assert!(text.contains(series), "exposition must carry {series}");
    }

    // The `metrics` verb answers the same registry as JSON.
    let (response, stop) = server.handle(&Request::Metrics);
    assert!(!stop);
    let Response::Metrics(value) = response else {
        panic!("expected metrics response");
    };
    let line = serde_json::to_string(&value).expect("metrics serialize");
    assert!(line.contains("streamtune_requests_total"), "{line}");
    assert!(
        line.contains("\"verb\":\"status\""),
        "per-verb labels must survive the JSON shape: {line}"
    );
    // And it roundtrips through the wire protocol like any response.
    let rendered = streamtune::serve::render_response(&Response::Metrics(value.clone()));
    let back: Response = serde_json::from_str(&rendered).expect("parse");
    assert_eq!(back, Response::Metrics(value));
}

#[test]
fn health_carries_build_and_runtime_info() {
    let _g = gate();
    let mut server = tiny_server();
    let (response, _) = server.handle(&Request::Health);
    let Response::Health(report) = response else {
        panic!("expected health response");
    };
    assert_eq!(report.version, env!("CARGO_PKG_VERSION"));
    assert_eq!(report.parallelism, "serial");
}

/// A `Write` handing everything to a shared buffer, standing in for a
/// `--trace-log` file.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn event_log_streams_jsonl_and_bounds_its_ring() {
    let _g = gate();
    streamtune::telemetry::set_enabled(true);
    let log = EventLog::new();
    log.set_echo_level(None);
    log.set_capacity(4);
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    log.set_writer(Box::new(buf.clone()));
    for i in 0..6 {
        log.emit_with(
            Level::Info,
            "test.events",
            format!("event {i}"),
            &[("i", &i.to_string())],
        );
    }
    log.flush();
    // The ring keeps the newest 4; the JSONL stream keeps everything.
    assert_eq!(log.len(), 4);
    assert_eq!(log.dropped(), 2);
    let bytes = buf.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("JSONL is UTF-8");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 6, "one JSONL line per event");
    for (i, line) in lines.iter().enumerate() {
        let value: serde_json::Value =
            serde_json::from_str(line).expect("every trace line parses as JSON");
        let line = serde_json::to_string(&value).expect("re-render");
        assert!(line.contains(&format!("event {i}")), "{line}");
        assert!(line.contains("\"level\":\"info\""), "{line}");
    }
    assert_eq!(log.write_errors(), 0);
}

#[test]
fn prometheus_checker_rejects_malformed_expositions() {
    // TYPE after a sample of the same metric.
    let bad = "streamtune_x_total 1\n# TYPE streamtune_x_total counter\n";
    assert!(check_prometheus(bad).is_err());
    // Duplicate series.
    let bad = "a_total 1\na_total 2\n";
    assert!(check_prometheus(bad).is_err());
    // Histogram whose +Inf bucket disagrees with its count.
    let bad =
        "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 5\n";
    assert!(check_prometheus(bad).is_err());
    // A healthy rendering still passes.
    let registry = Registry::new();
    registry.counter("good_total", "fine").inc();
    registry.histogram("good_nanoseconds", "fine").record(1_000);
    let _g = gate();
    let text = render_prometheus(&registry.snapshot());
    check_prometheus(&text).expect("rendered output validates");
}
