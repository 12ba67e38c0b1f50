//! Concurrent TCP transport: one session per client over the shared
//! `JobManager`; a client disconnecting (cleanly, mid-line, or after
//! garbage) never takes the daemon down; `shutdown` from any client stops
//! the accept loop.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Mutex;
use std::time::Duration;
use streamtune::core::Parallelism;
use streamtune::prelude::*;
use streamtune::serve::{Response, ServerConfig, TcpConfig};
use streamtune::workloads::history::HistoryGenerator;

fn server() -> Server {
    let (server, _) = Server::bootstrap(
        None,
        ServerConfig::fast().with_parallelism(Parallelism::Serial),
        || {
            let cluster = SimCluster::flink_defaults(91);
            HistoryGenerator::new(91).with_jobs(12).generate(&cluster)
        },
    )
    .expect("bootstrap succeeds");
    server
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

#[test]
fn concurrent_clients_share_the_daemon_and_disconnects_are_harmless() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = Mutex::new(server());

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| Server::serve_tcp(&server, &listener, TcpConfig::default()));

        // Client A: garbage, then half a line, then a hard disconnect.
        {
            let mut a = Client::connect(addr);
            assert!(matches!(
                a.request("this is not json"),
                Response::Error { .. }
            ));
            // Half a line (no newline), then drop the socket.
            write!(a.writer, "{{\"submit\": {{\"name\": \"torn").expect("send partial");
            a.writer.flush().expect("flush partial");
        }

        // Two clients interleave over the shared job manager.
        let mut b = Client::connect(addr);
        let mut c = Client::connect(addr);
        let submit = |name: &str, seed: u64| {
            format!(
                "{{\"submit\": {{\"name\": \"{name}\", \"query\": \"nexmark-q1\", \
                 \"multiplier\": 6.0, \"seed\": {seed}, \"engine\": \"flink\", \
                 \"backend\": \"sim\"}}}}"
            )
        };
        assert!(matches!(
            b.request(&submit("from-b", 1)),
            Response::Submitted { .. }
        ));
        assert!(matches!(
            c.request(&submit("from-c", 2)),
            Response::Submitted { .. }
        ));
        // B sees C's job and vice versa: one shared manager.
        match b.request("\"status\"") {
            Response::Status(status) => {
                let names: Vec<&str> = status.jobs.iter().map(|j| j.name.as_str()).collect();
                assert_eq!(names, ["from-b", "from-c"]);
                assert!(status.jobs.iter().all(|j| j.state == "done"));
            }
            other => panic!("expected status, got {other:?}"),
        }
        // Duplicate across connections is still rejected.
        assert!(matches!(
            c.request(&submit("from-b", 3)),
            Response::Error { .. }
        ));
        // C recommends a job submitted by B.
        match c.request("{\"recommend\": {\"job\": \"from-b\"}}") {
            Response::Recommendation(rec) => assert_eq!(rec.job, "from-b"),
            other => panic!("expected recommendation, got {other:?}"),
        }
        drop(b);

        // Any client may stop the daemon.
        assert!(matches!(c.request("\"shutdown\""), Response::ShuttingDown));
        drop(c);
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });

    // After shutdown the state is still inspectable in-process.
    let server = server.into_inner().expect("lock intact");
    assert_eq!(server.manager().jobs().len(), 2);
}

#[test]
fn hostile_clients_do_not_take_the_daemon_down() {
    use streamtune::serve::server::MAX_LINE_BYTES;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = Mutex::new(server());

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| Server::serve_tcp(&server, &listener, TcpConfig::default()));

        // Slowloris: a valid request dribbled one byte at a time, each gap
        // longer than the server's read timeout, so the partial line must
        // survive many timeout wakeups before the newline lands.
        let mut slow = Client::connect(addr);
        let sloth = scope.spawn(move || {
            for byte in b"\"status\"\n" {
                slow.writer.write_all(&[*byte]).expect("drip one byte");
                slow.writer.flush().expect("flush byte");
                std::thread::sleep(Duration::from_millis(120));
            }
            let mut line = String::new();
            slow.reader.read_line(&mut line).expect("slow response");
            serde_json::from_str::<Response>(line.trim()).expect("valid response line")
        });

        // While that line is still dribbling, a well-behaved client is
        // served immediately.
        let mut ok = Client::connect(addr);
        let submit = "{\"submit\": {\"name\": \"survivor\", \"query\": \"nexmark-q1\", \
                      \"multiplier\": 6.0, \"seed\": 1, \"engine\": \"flink\", \
                      \"backend\": \"sim\"}}";
        assert!(matches!(ok.request(submit), Response::Submitted { .. }));

        // Disconnect mid-request: a complete submit, then the socket drops
        // before the response is read. The daemon's failed reply write must
        // end only that connection — and the request itself was handled.
        {
            let mut rude = Client::connect(addr);
            writeln!(
                rude.writer,
                "{{\"submit\": {{\"name\": \"from-rude\", \"query\": \"nexmark-q2\", \
                 \"multiplier\": 5.0, \"seed\": 2, \"engine\": \"flink\", \
                 \"backend\": \"sim\"}}}}"
            )
            .expect("send rude request");
            rude.writer.flush().expect("flush rude request");
        }
        // The daemon reads buffered bytes even after the FIN; give it a
        // beat to drain them, then confirm the job landed.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            match ok.request("\"status\"") {
                Response::Status(status) => {
                    if status.jobs.iter().any(|j| j.name == "from-rude") {
                        break;
                    }
                }
                other => panic!("expected status, got {other:?}"),
            }
            assert!(
                std::time::Instant::now() < deadline,
                "rude client's request never reached the job manager"
            );
            std::thread::sleep(Duration::from_millis(50));
        }

        // Oversized single line (never a newline): the daemon answers with
        // an error naming the cap and closes only that connection.
        let mut big = Client::connect(addr);
        let chunk = vec![b'x'; 64 * 1024];
        let mut sent = 0;
        while sent <= MAX_LINE_BYTES + chunk.len() {
            big.writer.write_all(&chunk).expect("send oversized chunk");
            sent += chunk.len();
        }
        big.writer.flush().expect("flush oversized line");
        let mut line = String::new();
        big.reader.read_line(&mut line).expect("oversize response");
        match serde_json::from_str::<Response>(line.trim()).expect("valid response line") {
            Response::Error { message } => assert!(
                message.contains("exceeds"),
                "error names the line cap: {message}"
            ),
            other => panic!("expected error, got {other:?}"),
        }
        // The daemon closed the hostile connection (EOF or reset are both
        // fine — it just must not stay open).
        line.clear();
        assert!(matches!(big.reader.read_line(&mut line), Ok(0) | Err(_)));

        // The refusal is counted: `health` reports the oversized line.
        match ok.request("\"health\"") {
            Response::Health(health) => assert_eq!(health.oversized_lines, 1),
            other => panic!("expected health, got {other:?}"),
        }

        // The slowloris client was served its real answer all along.
        assert!(matches!(
            sloth.join().expect("sloth thread"),
            Response::Status(_)
        ));

        // And the daemon is still healthy enough to shut down on request.
        assert!(matches!(ok.request("\"shutdown\""), Response::ShuttingDown));
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });
}

#[test]
fn deeply_nested_line_is_an_error_and_the_daemon_keeps_serving() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = Mutex::new(server());

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| Server::serve_tcp(&server, &listener, TcpConfig::default()));

        // 10,000 open brackets: far under the line cap, far past the
        // parser's nesting limit. Parsed recursively on the session
        // thread's default stack, this used to overflow it and abort the
        // whole daemon.
        let mut hostile = Client::connect(addr);
        match hostile.request(&"[".repeat(10_000)) {
            Response::Error { message } => {
                assert!(
                    message.contains("nesting"),
                    "error names the limit: {message}"
                )
            }
            other => panic!("expected error, got {other:?}"),
        }
        drop(hostile);

        // A new connection is still served.
        let mut fresh = Client::connect(addr);
        assert!(matches!(fresh.request("\"health\""), Response::Health(_)));
        assert!(matches!(
            fresh.request("\"shutdown\""),
            Response::ShuttingDown
        ));
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });
}

#[test]
fn slow_client_does_not_block_others() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = Mutex::new(server());

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| Server::serve_tcp(&server, &listener, TcpConfig::default()));

        // An idle connection that never sends anything…
        let _lurker = TcpStream::connect(addr).expect("connect lurker");
        std::thread::sleep(Duration::from_millis(50));
        // …must not stop an active client from being served.
        let mut active = Client::connect(addr);
        match active.request("\"status\"") {
            Response::Status(status) => assert!(status.jobs.is_empty()),
            other => panic!("expected status, got {other:?}"),
        }
        assert!(matches!(
            active.request("\"shutdown\""),
            Response::ShuttingDown
        ));
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });
}

#[test]
fn closed_loop_round_trips_do_not_stall() {
    // A closed-loop client waits for each reply before it sends the next
    // request, so nothing of its own is in flight to carry an early ACK.
    // A reply the daemon writes in two parts leaves the second part in
    // Nagle's buffer until the client's delayed ACK fires (~40 ms on
    // Linux), once per request.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = Mutex::new(server());

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| Server::serve_tcp(&server, &listener, TcpConfig::default()));
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("client TCP_NODELAY");
        let mut client = Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
        };
        let mut round_trips: Vec<Duration> = (0..40)
            .map(|_| {
                let start = std::time::Instant::now();
                assert!(matches!(client.request("\"health\""), Response::Health(_)));
                start.elapsed()
            })
            .collect();
        // Stop the daemon before asserting: a panic inside the scope
        // would wait on the accept loop forever.
        assert!(matches!(
            client.request("\"shutdown\""),
            Response::ShuttingDown
        ));
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
        round_trips.sort();
        let median = round_trips[round_trips.len() / 2];
        assert!(
            median < Duration::from_millis(10),
            "median health round trip {median:?} (sorted: {round_trips:?})"
        );
    });
}

#[test]
fn overload_flood_sheds_exactly_the_excess_with_structured_responses() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = Mutex::new(server());
    const CAP: usize = 3;
    const EXCESS: usize = 20;
    let config = TcpConfig {
        session_cap: CAP,
        ..TcpConfig::default()
    };

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| Server::serve_tcp(&server, &listener, config));

        // Admit exactly CAP sessions, proving each is live (the round trip
        // guarantees its accept — and the session count — happened).
        let mut admitted: Vec<Client> = (0..CAP)
            .map(|i| {
                let mut c = Client::connect(addr);
                match c.request("\"status\"") {
                    Response::Status(_) => c,
                    other => panic!("admitted client {i}: expected status, got {other:?}"),
                }
            })
            .collect();

        // Flood: every connection past the cap gets one structured
        // `overloaded` (with the retry-after hint) and is closed.
        for i in 0..EXCESS {
            let mut shed = Client::connect(addr);
            let mut line = String::new();
            shed.reader
                .read_line(&mut line)
                .expect("shed response arrives unprompted");
            match serde_json::from_str::<Response>(line.trim()).expect("valid response line") {
                Response::Overloaded {
                    retry_after_ms,
                    reason,
                } => {
                    assert_eq!(reason, "session-cap", "flood client {i}");
                    assert_eq!(retry_after_ms, config.retry_after_ms);
                }
                other => panic!("flood client {i}: expected overloaded, got {other:?}"),
            }
            line.clear();
            assert!(
                matches!(shed.reader.read_line(&mut line), Ok(0) | Err(_)),
                "shed connections are closed, not queued"
            );
        }

        // Admitted sessions keep working through the flood: submit a job
        // and read its recommendation.
        let submit = "{\"submit\": {\"name\": \"survivor\", \"query\": \"nexmark-q1\", \
                      \"multiplier\": 6.0, \"seed\": 1, \"engine\": \"flink\", \
                      \"backend\": \"sim\"}}";
        assert!(matches!(
            admitted[0].request(submit),
            Response::Submitted { .. }
        ));
        match admitted[1].request("{\"recommend\": {\"job\": \"survivor\"}}") {
            Response::Recommendation(rec) => assert_eq!(rec.job, "survivor"),
            other => panic!("expected recommendation, got {other:?}"),
        }

        // The shed count is in `health` — exactly the excess, no more.
        match admitted[2].request("\"health\"") {
            Response::Health(health) => {
                assert_eq!(health.sessions_shed, EXCESS as u64);
                assert_eq!(health.deadlines_expired, 0);
            }
            other => panic!("expected health, got {other:?}"),
        }

        // Freed capacity is reusable: drop one session, the next connect
        // is admitted (poll briefly — the daemon decrements the session
        // count after the connection thread finishes).
        drop(admitted.pop());
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let mut last = loop {
            // Only shed connections speak unprompted; probe with a short
            // read timeout so an admitted (silent) session is recognized.
            let mut c = Client::connect(addr);
            c.reader
                .get_ref()
                .set_read_timeout(Some(Duration::from_millis(150)))
                .expect("set probe timeout");
            let mut line = String::new();
            match c.reader.read_line(&mut line) {
                Ok(n) if n > 0 => {
                    assert!(matches!(
                        serde_json::from_str::<Response>(line.trim()),
                        Ok(Response::Overloaded { .. })
                    ));
                    assert!(
                        std::time::Instant::now() < deadline,
                        "a freed slot must be reusable"
                    );
                    std::thread::sleep(Duration::from_millis(20));
                }
                _ => {
                    // Silence (timeout) or EOF-free stall: admitted.
                    c.reader
                        .get_ref()
                        .set_read_timeout(None)
                        .expect("clear probe timeout");
                    break c;
                }
            }
        };
        assert!(matches!(
            last.request("\"shutdown\""),
            Response::ShuttingDown
        ));
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });
}

#[test]
fn requests_past_the_deadline_are_shed_and_the_session_survives() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = Mutex::new(server());
    let config = TcpConfig {
        request_deadline: Duration::from_millis(100),
        ..TcpConfig::default()
    };

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| Server::serve_tcp(&server, &listener, config));
        let mut client = Client::connect(addr);
        assert!(matches!(client.request("\"status\""), Response::Status(_)));

        // Wedge the daemon: the test holds the server lock past the
        // request deadline while a client asks for work.
        {
            let guard = server.lock().expect("test holds the lock");
            match client.request("\"status\"") {
                Response::Overloaded {
                    reason,
                    retry_after_ms,
                } => {
                    assert_eq!(reason, "deadline");
                    assert_eq!(retry_after_ms, config.retry_after_ms);
                }
                other => panic!("expected overloaded, got {other:?}"),
            }
            drop(guard);
        }

        // The session survives the shed request and works once the lock
        // frees; the expiry is counted in `health`.
        match client.request("\"health\"") {
            Response::Health(health) => {
                assert_eq!(health.deadlines_expired, 1);
                assert_eq!(health.sessions_shed, 0);
            }
            other => panic!("expected health, got {other:?}"),
        }
        assert!(matches!(
            client.request("\"shutdown\""),
            Response::ShuttingDown
        ));
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });
}

/// One raw HTTP/1.0 GET against the scrape endpoint; returns
/// (status line, body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr).expect("connect scraper");
    write!(stream, "GET {path} HTTP/1.0\r\n\r\n").expect("send request");
    stream.flush().expect("flush request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("headers end");
    let status = head.lines().next().expect("status line").to_string();
    (status, body.to_string())
}

#[test]
fn metrics_endpoint_serves_valid_prometheus_text_alongside_the_protocol() {
    use streamtune::telemetry::check_prometheus;

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = Mutex::new(server());
    let endpoint =
        streamtune::serve::spawn_metrics_endpoint("127.0.0.1:0").expect("bind scrape endpoint");
    let scrape = endpoint.local_addr();

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| Server::serve_tcp(&server, &listener, TcpConfig::default()));
        let mut client = Client::connect(addr);
        assert!(matches!(
            client.request(
                "{\"submit\": {\"name\": \"observed\", \"query\": \"nexmark-q1\", \
                 \"multiplier\": 6.0, \"seed\": 1, \"engine\": \"flink\", \
                 \"backend\": \"sim\"}}"
            ),
            Response::Submitted { .. }
        ));

        // The Prometheus scrape runs off-thread while the daemon serves:
        // well-formed text, and the series the dashboards rely on.
        let (status, body) = http_get(scrape, "/metrics");
        assert!(status.contains("200"), "scrape status: {status}");
        check_prometheus(&body).expect("scrape output must validate");
        for series in [
            "streamtune_build_info",
            "streamtune_uptime_seconds",
            "streamtune_requests_total",
            "streamtune_request_duration_nanoseconds",
            "streamtune_lock_wait_nanoseconds",
        ] {
            assert!(body.contains(series), "scrape must carry {series}");
        }
        assert!(
            body.contains("verb=\"submit\""),
            "the TCP submit above must be visible in the scrape"
        );

        // The JSON mirror parses, and unknown paths 404.
        let (status, body) = http_get(scrape, "/metrics.json");
        assert!(status.contains("200"), "json status: {status}");
        serde_json::from_str::<serde_json::Value>(&body).expect("metrics.json parses");
        let (status, _) = http_get(scrape, "/nope");
        assert!(status.contains("404"), "unknown path: {status}");

        // The same registry answers the `metrics` protocol verb in-band.
        match client.request("\"metrics\"") {
            Response::Metrics(value) => {
                let line = serde_json::to_string(&value).expect("metrics serialize");
                assert!(line.contains("streamtune_requests_total"), "{line}");
            }
            other => panic!("expected metrics, got {other:?}"),
        }

        assert!(matches!(
            client.request("\"shutdown\""),
            Response::ShuttingDown
        ));
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });
}

#[test]
fn drain_verb_finishes_work_flushes_the_store_and_stops_the_daemon() {
    let dir = std::env::temp_dir().join(format!("streamtune-tcp-drain-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let (boot, _) = Server::bootstrap(
        Some(ModelStore::new(&dir)),
        ServerConfig::fast().with_parallelism(Parallelism::Serial),
        || {
            let cluster = SimCluster::flink_defaults(91);
            HistoryGenerator::new(91).with_jobs(12).generate(&cluster)
        },
    )
    .expect("bootstrap succeeds");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = Mutex::new(boot);

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| Server::serve_tcp(&server, &listener, TcpConfig::default()));
        let mut client = Client::connect(addr);
        // A queued job that only a drain will run.
        assert!(matches!(
            client.request(
                "{\"submit\": {\"name\": \"parting\", \"query\": \"nexmark-q2\", \
                 \"multiplier\": 5.0, \"seed\": 3, \"engine\": \"flink\", \
                 \"backend\": \"sim\"}}"
            ),
            Response::Submitted { .. }
        ));
        match client.request("\"drain\"") {
            Response::Draining { jobs, dir: stored } => {
                assert_eq!(jobs, 1);
                assert_eq!(stored.as_deref(), dir.to_str());
            }
            other => panic!("expected draining, got {other:?}"),
        }
        // Drain stops the accept loop like shutdown does.
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });

    // The flushed store restores the *finished* job: a fresh daemon
    // answers `recommend` without re-running anything.
    let (mut reborn, report) = Server::bootstrap(
        Some(ModelStore::new(&dir)),
        ServerConfig::fast().with_parallelism(Parallelism::Serial),
        || panic!("the drained store must boot without retraining"),
    )
    .expect("re-bootstrap succeeds");
    assert_eq!(report.restored_jobs, 1);
    match reborn
        .handle(&streamtune::serve::Request::Recommend {
            job: "parting".to_string(),
        })
        .0
    {
        Response::Recommendation(rec) => assert_eq!(rec.job, "parting"),
        other => panic!("expected recommendation, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_poisoned_server_lock_is_recovered_once_and_counted() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let server = Mutex::new(server());

    // A thread panics while it holds the server guard, poisoning the lock.
    std::thread::scope(|scope| {
        let holder = scope.spawn(|| {
            let _guard = server.lock().expect("lock is clean before the panic");
            panic!("poison the server lock on purpose");
        });
        assert!(holder.join().is_err(), "the holder panicked");
    });
    assert!(server.is_poisoned());

    std::thread::scope(|scope| {
        let daemon = scope.spawn(|| Server::serve_tcp(&server, &listener, TcpConfig::default()));
        let mut client = Client::connect(addr);
        // The first request after the poisoning is answered normally, and
        // the recovery is counted exactly once.
        match client.request("\"health\"") {
            Response::Health(health) => assert_eq!(health.lock_recoveries, 1),
            other => panic!("expected health, got {other:?}"),
        }
        // The lock is clean again: later requests neither fail nor count.
        match client.request("\"health\"") {
            Response::Health(health) => assert_eq!(health.lock_recoveries, 1),
            other => panic!("expected health, got {other:?}"),
        }
        assert!(matches!(client.request("\"status\""), Response::Status(_)));
        assert!(matches!(
            client.request("\"shutdown\""),
            Response::ShuttingDown
        ));
        daemon
            .join()
            .expect("daemon thread")
            .expect("daemon exits cleanly");
    });
    assert!(!server.is_poisoned());
}
