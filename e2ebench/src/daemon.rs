//! The `streamtune serve` daemon as a child process, and a protocol client
//! that adds no stall of its own: `TCP_NODELAY` is set and each request
//! line goes out in one `write_all`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use serde::Value;
use streamtune_serve::{Request, Response};

/// How long the daemon may take to print its listening address.
const START_TIMEOUT: Duration = Duration::from_secs(120);
/// How long one reply may take before the request counts as timed out.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running daemon with its CLI defaults, listening on loopback.
pub struct Daemon {
    child: Child,
    /// The resolved `host:port` it listens on.
    pub addr: String,
    /// Spawn until the listening address was printed, in seconds.
    pub setup_s: f64,
}

impl Daemon {
    /// Spawn `bin serve --listen 127.0.0.1:0`, with stderr in `log`, and
    /// wait for the listening address.
    pub fn spawn(bin: &Path, log: &Path) -> Result<Daemon, String> {
        let stderr = std::fs::File::create(log).map_err(|e| format!("{}: {e}", log.display()))?;
        let start = Instant::now();
        let child = Command::new(bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            setup_s: 0.0,
        };
        loop {
            let text = std::fs::read_to_string(log).unwrap_or_default();
            if let Some(addr) = listening_addr(&text) {
                daemon.setup_s = start.elapsed().as_secs_f64();
                daemon.addr = addr;
                return Ok(daemon);
            }
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("daemon exited during start-up ({status}): {text}"));
            }
            if start.elapsed() > START_TIMEOUT {
                return Err(format!("daemon printed no address in {START_TIMEOUT:?}"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Peak resident set (`VmHWM`) so far, in MB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        text.lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Ask the daemon to shut down and wait until it has exited.
    pub fn shutdown(mut self) -> Result<(), String> {
        let asked = Conn::connect(&self.addr).and_then(|mut c| c.call(&Request::Shutdown));
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return asked.map(|_| ()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(e.to_string()),
            }
        }
        Err("daemon did not stop within 30 s of `shutdown`".to_string())
    }
}

/// The address in the daemon's `listening on ADDR …` line, once the whole
/// line is in `log`. The daemon's stderr is unbuffered, so the line lands
/// in several writes and a read can catch it cut before or inside ADDR.
fn listening_addr(log: &str) -> Option<String> {
    let rest = log.split("listening on ").nth(1)?;
    let (line, _) = rest.split_once('\n')?;
    let addr = line.split_whitespace().next()?;
    addr.parse::<std::net::SocketAddr>().ok()?;
    Some(addr.to_string())
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One protocol session.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    /// Every request and reply line, when recording.
    pub recorded: Option<Vec<(String, String)>>,
}

impl Conn {
    /// Connect with `TCP_NODELAY` and a reply timeout.
    pub fn connect(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Conn {
            reader,
            writer: stream,
            line: String::new(),
            recorded: None,
        })
    }

    /// Send one request and read its reply. Transport failures and
    /// timeouts are errors; protocol-level refusals come back as replies.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let mut line = serde_json::to_string(request).map_err(|e| e.to_string())?;
        line.push('\n');
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.line.clear();
        match self.reader.read_line(&mut self.line) {
            Ok(0) => return Err("daemon closed the connection".to_string()),
            Ok(_) => {}
            Err(e) => return Err(format!("reply: {e}")),
        }
        let reply = self.line.trim_end();
        if let Some(lines) = &mut self.recorded {
            lines.push((line.trim_end().to_string(), reply.to_string()));
        }
        serde_json::from_str(reply).map_err(|e| format!("unparsable reply `{reply}`: {e}"))
    }
}

/// The daemon's telemetry registry, from its `metrics` verb.
#[derive(Clone)]
pub struct Metrics(Value);

/// Count and sum of one histogram, with the daemon's interpolated p50/p99.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Hist {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values (ns for duration histograms).
    pub sum: f64,
    /// Median estimate.
    pub p50: f64,
    /// 99th-percentile estimate.
    pub p99: f64,
}

impl Hist {
    /// Mean of the recorded values.
    pub fn mean(&self) -> f64 {
        self.sum / self.count.max(1) as f64
    }

    /// The recordings made after `earlier` (count and sum only).
    pub fn since(&self, earlier: &Hist) -> Hist {
        Hist {
            count: self.count - earlier.count,
            sum: self.sum - earlier.sum,
            ..Hist::default()
        }
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

impl Metrics {
    /// Fetch the daemon's registry over `conn`.
    pub fn fetch(conn: &mut Conn) -> Result<Metrics, String> {
        match conn.call(&Request::Metrics)? {
            Response::Metrics(v) => Ok(Metrics(v)),
            other => Err(format!("`metrics` answered {other:?}")),
        }
    }

    fn series(&self, name: &str, label: Option<(&str, &str)>) -> Option<&Value> {
        let Ok(Value::Array(all)) = self.0.field("metrics") else {
            return None;
        };
        all.iter().find(|m| {
            matches!(m.field("name"), Ok(Value::String(n)) if n == name)
                && label.is_none_or(|(k, want)| {
                    matches!(m.field("labels").and_then(|l| l.field(k)),
                             Ok(Value::String(v)) if v == want)
                })
        })
    }

    /// A histogram series (zero when absent).
    pub fn hist(&self, name: &str, label: Option<(&str, &str)>) -> Hist {
        let Some(m) = self.series(name, label) else {
            return Hist::default();
        };
        let get = |k: &str| m.field(k).ok().and_then(number).unwrap_or(0.0);
        Hist {
            count: get("count") as u64,
            sum: get("sum"),
            p50: get("p50"),
            p99: get("p99"),
        }
    }

    /// A counter or gauge value (zero when absent).
    pub fn value(&self, name: &str) -> f64 {
        self.series(name, None)
            .and_then(|m| m.field("value").ok().and_then(number))
            .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::listening_addr;

    #[test]
    fn address_is_read_only_from_a_whole_line() {
        let line = "listening on 127.0.0.1:41235 — send line-delimited JSON requests\n";
        assert_eq!(listening_addr(line).as_deref(), Some("127.0.0.1:41235"));
        // Every cut of the line before its newline is not yet an address.
        for cut in 0..line.len() - 1 {
            if line.is_char_boundary(cut) {
                assert_eq!(listening_addr(&line[..cut]), None, "cut at {cut}");
            }
        }
        assert_eq!(listening_addr("listening on \n"), None);
    }
}
