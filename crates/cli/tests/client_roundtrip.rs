//! Round-trip drill against the *built binary*: a 40-request `streamtune
//! client --script` session against `streamtune serve --listen` must get
//! 40 parseable replies well inside a second. Each request and each reply
//! is one write on a `TCP_NODELAY` socket; a request or reply written in
//! two parts waits for the peer's delayed ACK (~40 ms) instead.

#![cfg(unix)]

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use streamtune_serve::Response;

const REQUESTS: usize = 40;

/// The daemon process, killed on drop so a failed assertion never leaves
/// it running.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        self.0.kill().ok();
        self.0.wait().ok();
    }
}

/// Spawn the daemon and parse the resolved protocol address from its
/// startup log.
fn spawn_daemon() -> (Daemon, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_streamtune"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--fast",
            "--jobs",
            "12",
            "--seed",
            "91",
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn daemon");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let addr = loop {
        let mut line = String::new();
        let n = stderr.read_line(&mut line).expect("daemon startup log");
        assert!(n > 0, "daemon exited before listening");
        if let Some(rest) = line.trim().strip_prefix("listening on ") {
            break rest
                .split_whitespace()
                .next()
                .expect("resolved address")
                .to_string();
        }
    };
    // Keep draining stderr so the daemon never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while stderr.read_line(&mut sink).map(|n| n > 0).unwrap_or(false) {
            sink.clear();
        }
    });
    (Daemon(child), addr)
}

/// Run `streamtune client --connect addr --script <file>` over `script`;
/// returns its stdout and how long the session took.
fn run_client(addr: &str, script: &str) -> (String, Duration) {
    let path = std::env::temp_dir().join(format!(
        "streamtune-client-roundtrip-{}-{}.txt",
        std::process::id(),
        script.len()
    ));
    std::fs::write(&path, script).expect("write the script");
    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_streamtune"))
        .args(["client", "--connect", addr, "--script"])
        .arg(&path)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .expect("client runs");
    let elapsed = start.elapsed();
    std::fs::remove_file(&path).ok();
    assert!(
        output.status.success(),
        "client exited with {}",
        output.status
    );
    (
        String::from_utf8(output.stdout).expect("utf-8 replies"),
        elapsed,
    )
}

#[test]
fn scripted_client_session_round_trips_without_stalls() {
    let (mut daemon, addr) = spawn_daemon();

    let script = "\"health\"\n".repeat(REQUESTS);
    let (replies, elapsed) = run_client(&addr, &script);
    let parsed: Vec<Response> = replies
        .lines()
        .map(|line| serde_json::from_str(line).expect("valid response line"))
        .collect();
    assert_eq!(parsed.len(), REQUESTS, "one reply per request");
    assert!(
        parsed.iter().all(|r| matches!(r, Response::Health(_))),
        "every reply is a health report"
    );

    let (bye, _) = run_client(&addr, "\"shutdown\"\n");
    assert!(matches!(
        serde_json::from_str(bye.trim()).expect("valid shutdown reply"),
        Response::ShuttingDown
    ));
    let start = Instant::now();
    loop {
        match daemon.0.try_wait().expect("poll daemon") {
            Some(status) => {
                assert!(status.success(), "daemon exited with {status}");
                break;
            }
            None if start.elapsed() > Duration::from_secs(10) => {
                panic!("daemon did not exit after shutdown");
            }
            None => std::thread::sleep(Duration::from_millis(25)),
        }
    }

    assert!(
        elapsed < Duration::from_secs(1),
        "{REQUESTS}-request client session took {elapsed:?}"
    );
}
