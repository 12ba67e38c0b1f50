//! Flight-recorder subcommands: `streamtune trace` (span trees from a
//! serving daemon, optionally exported as Chrome trace-event JSON) and
//! `streamtune top` (a live view over the daemon's metrics-history ring).
//!
//! Both are read-only clients. `trace` speaks the line-delimited control
//! protocol (the `trace` verb) over TCP; `top` polls the HTTP metrics
//! endpoint (`--metrics-listen`) at `/metrics/history.json`, which never
//! touches the daemon lock — so watching a busy daemon is always safe.

use std::io::{BufRead, BufReader, Write};
use std::time::Duration;

use serde_json::Value;
use streamtune_connect::HttpClient;
use streamtune_serve::{Request, Response};

use crate::args::Args;
use crate::error::CliError;

fn io_err(path: &str, e: std::io::Error) -> CliError {
    CliError::Io {
        path: path.to_string(),
        message: e.to_string(),
    }
}

/// Send one protocol request to a serving daemon and parse the reply.
fn send_request(addr: &str, request: &Request) -> Result<Response, CliError> {
    let stream = std::net::TcpStream::connect(addr).map_err(|e| io_err(addr, e))?;
    stream.set_nodelay(true).map_err(|e| io_err(addr, e))?;
    let mut responses = BufReader::new(stream.try_clone().map_err(|e| io_err(addr, e))?);
    let mut requests_out = stream;
    let mut line = serde_json::to_string(request).map_err(|e| CliError::Serde {
        context: "serialize request".to_string(),
        message: e.to_string(),
    })?;
    line.push('\n');
    requests_out
        .write_all(line.as_bytes())
        .map_err(|e| io_err(addr, e))?;
    let mut response = String::new();
    let n = responses
        .read_line(&mut response)
        .map_err(|e| io_err(addr, e))?;
    if n == 0 {
        return Err(CliError::Usage(format!(
            "{addr}: server closed the connection without responding"
        )));
    }
    serde_json::from_str(&response).map_err(|e| CliError::Serde {
        context: format!("parse response from {addr}"),
        message: e.to_string(),
    })
}

// ---- lenient Value readers -------------------------------------------------
// The flight-recorder payloads are raw JSON values whose schemas grow
// release to release; a display client reads what it knows and shrugs at
// the rest instead of failing the whole command on one missing field.

fn get<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    v.field(name).ok()
}

fn str_of(v: &Value) -> &str {
    match v {
        Value::String(s) => s,
        _ => "",
    }
}

fn u64_of(v: &Value) -> u64 {
    match v {
        Value::U64(n) => *n,
        Value::I64(n) => *n as u64,
        Value::F64(f) => *f as u64,
        _ => 0,
    }
}

fn f64_of(v: &Value) -> f64 {
    match v {
        Value::U64(n) => *n as f64,
        Value::I64(n) => *n as f64,
        Value::F64(f) => *f,
        _ => 0.0,
    }
}

fn bool_of(v: &Value) -> bool {
    matches!(v, Value::Bool(true))
}

fn array_of(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        _ => &[],
    }
}

/// Render nanoseconds human-first: ns under a microsecond, then µs/ms/s.
fn fmt_nanos(nanos: u64) -> String {
    match nanos {
        n if n < 1_000 => format!("{n}ns"),
        n if n < 1_000_000 => format!("{:.1}µs", n as f64 / 1e3),
        n if n < 1_000_000_000 => format!("{:.2}ms", n as f64 / 1e6),
        n => format!("{:.2}s", n as f64 / 1e9),
    }
}

/// `{key=value, ...}` for a label object, empty string when unlabeled.
fn fmt_labels(labels: Option<&Value>) -> String {
    let Some(Value::Object(entries)) = labels else {
        return String::new();
    };
    if entries.is_empty() {
        return String::new();
    }
    let body: Vec<String> = entries
        .iter()
        .map(|(k, v)| format!("{k}={}", str_of(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

// ---- streamtune trace ------------------------------------------------------

/// Print one span and its children, indented by tree depth. Spans arrive
/// sorted by start offset, so sibling order is causal order.
fn print_span_tree(spans: &[Value], parent: Option<u64>, depth: usize) {
    for span in spans {
        let this_parent = get(span, "parent").and_then(|p| match p {
            Value::Null => None,
            other => Some(u64_of(other)),
        });
        if this_parent != parent {
            continue;
        }
        let fields = match get(span, "fields") {
            Some(Value::Object(entries)) if !entries.is_empty() => {
                let body: Vec<String> = entries
                    .iter()
                    .map(|(k, v)| format!("{k}={}", str_of(v)))
                    .collect();
                format!("  [{}]", body.join(" "))
            }
            _ => String::new(),
        };
        println!(
            "  {:indent$}{} ({})  {}{}",
            "",
            get(span, "name").map(str_of).unwrap_or("?"),
            get(span, "target").map(str_of).unwrap_or("?"),
            fmt_nanos(get(span, "duration_nanos").map(u64_of).unwrap_or(0)),
            fields,
            indent = depth * 2,
        );
        if let Some(id) = get(span, "span").map(u64_of) {
            print_span_tree(spans, Some(id), depth + 1);
        }
    }
}

/// `streamtune trace` — fetch the newest complete span tree from a
/// serving daemon (optionally filtered by root label), print it, and
/// optionally export it as Chrome trace-event JSON.
pub fn cmd_trace(args: &Args) -> Result<(), CliError> {
    let addr = args.required("connect")?;
    let label = args.optional("label");
    let export = args.optional("export");
    let payload = match send_request(
        &addr,
        &Request::Trace {
            label: label.clone(),
        },
    )? {
        Response::Trace(value) => value,
        Response::Error { message } => return Err(CliError::Usage(message)),
        other => {
            return Err(CliError::Usage(format!(
                "unexpected response to `trace`: {other:?}"
            )))
        }
    };

    if !get(&payload, "enabled").map(bool_of).unwrap_or(false) {
        eprintln!("note: telemetry is disabled on the daemon — no new traces are recorded");
    }
    let summaries = get(&payload, "traces").map(array_of).unwrap_or(&[]);
    println!("{} recorded trace(s) (newest first):", summaries.len());
    for t in summaries {
        println!(
            "  #{:<6} {:<16} {:>4} span(s)  {:>10}{}{}",
            get(t, "id").map(u64_of).unwrap_or(0),
            get(t, "label").map(str_of).unwrap_or("?"),
            get(t, "spans").map(u64_of).unwrap_or(0),
            fmt_nanos(get(t, "duration_nanos").map(u64_of).unwrap_or(0)),
            if get(t, "complete").map(bool_of).unwrap_or(false) {
                ""
            } else {
                "  (in flight)"
            },
            match get(t, "dropped").map(u64_of).unwrap_or(0) {
                0 => String::new(),
                n => format!("  ({n} span(s) dropped)"),
            },
        );
    }

    let Some(trace) = get(&payload, "trace") else {
        let wanted = label
            .as_deref()
            .map(|l| format!(" labeled `{l}`"))
            .unwrap_or_default();
        if export.is_some() {
            return Err(CliError::Usage(format!(
                "nothing to export: the flight recorder holds no complete trace{wanted}"
            )));
        }
        println!("no complete trace{wanted} to show");
        return Ok(());
    };
    println!(
        "\ntrace #{} `{}`:",
        get(trace, "id").map(u64_of).unwrap_or(0),
        get(trace, "label").map(str_of).unwrap_or("?"),
    );
    let spans = get(trace, "spans").map(array_of).unwrap_or(&[]);
    print_span_tree(spans, None, 0);
    if let Some(dropped) = get(trace, "dropped").map(u64_of).filter(|d| *d > 0) {
        println!("  … {dropped} span(s) dropped at the per-trace cap");
    }

    if let Some(path) = export {
        let chrome = get(&payload, "chrome").map(str_of).unwrap_or("");
        if chrome.is_empty() {
            return Err(CliError::Usage(
                "daemon sent a trace without a chrome export (older daemon?)".to_string(),
            ));
        }
        std::fs::write(&path, chrome).map_err(|e| io_err(&path, e))?;
        eprintln!("chrome trace-event JSON → {path} (load in chrome://tracing or Perfetto)");
    }
    Ok(())
}

// ---- streamtune top --------------------------------------------------------

/// Print one history frame: the interval's counter deltas, gauge values
/// and histogram quantiles, one line per series.
fn print_frame(frame: &Value) {
    let interval = get(frame, "interval_nanos").map(u64_of).unwrap_or(0);
    let series = get(frame, "series").map(array_of).unwrap_or(&[]);
    println!(
        "frame #{} (interval {}, {} series):",
        get(frame, "seq").map(u64_of).unwrap_or(0),
        fmt_nanos(interval),
        series.len(),
    );
    for s in series {
        let name = get(s, "name").map(str_of).unwrap_or("?");
        let series_name = format!("{name}{}", fmt_labels(get(s, "labels")));
        match get(s, "kind").map(str_of).unwrap_or("") {
            "counter" => println!(
                "  {series_name:<44} +{:<8} (total {})",
                get(s, "delta").map(u64_of).unwrap_or(0),
                get(s, "total").map(u64_of).unwrap_or(0),
            ),
            "gauge" => println!(
                "  {series_name:<44} {}",
                get(s, "value").map(f64_of).unwrap_or(0.0),
            ),
            "histogram" => println!(
                "  {series_name:<44} +{:<8} p50 {} | p99 {} (total {})",
                get(s, "count").map(u64_of).unwrap_or(0),
                fmt_nanos(get(s, "p50").map(f64_of).unwrap_or(0.0) as u64),
                fmt_nanos(get(s, "p99").map(f64_of).unwrap_or(0.0) as u64),
                get(s, "total_count").map(u64_of).unwrap_or(0),
            ),
            other => println!("  {series_name} (unknown kind `{other}`)"),
        }
    }
}

/// `streamtune top` — poll a daemon's `/metrics/history.json` endpoint
/// (the `--metrics-listen` address) and print each new frame: a live,
/// dependency-free view of per-verb rates and latency quantiles.
pub fn cmd_top(args: &Args) -> Result<(), CliError> {
    let addr = args.required("connect")?;
    let interval_secs: f64 = args.parse_or("interval", 2.0)?;
    if !interval_secs.is_finite() || interval_secs <= 0.0 {
        return Err(CliError::Usage(format!(
            "--interval must be a positive number of seconds, got {interval_secs}"
        )));
    }
    // `--once` prints the newest frame and exits (scripts/tests);
    // `--iterations 0` (the default) polls until interrupted.
    let iterations: u64 = if args.flag("once") {
        1
    } else {
        args.parse_or("iterations", 0)?
    };
    let client = HttpClient::new(Duration::from_secs(5));
    let mut shown = 0u64;
    let mut last_seq: Option<u64> = None;
    loop {
        let response = client
            .request("GET", &addr, "/metrics/history.json", None)
            .map_err(|e| io_err(&addr, e))?;
        if !response.is_success() {
            return Err(CliError::Usage(format!(
                "{addr}/metrics/history.json answered HTTP {} — is this the daemon's \
                 --metrics-listen address?",
                response.status
            )));
        }
        let payload: Value = serde_json::from_str(&response.body).map_err(|e| CliError::Serde {
            context: format!("parse history from {addr}"),
            message: e.to_string(),
        })?;
        if !get(&payload, "enabled").map(bool_of).unwrap_or(false) {
            eprintln!("note: telemetry is disabled on the daemon — history is frozen");
        }
        // Each scrape appends a frame server-side, so the newest frame is
        // this poll's interval; skip reprints if the daemon restarted the
        // endpoint between polls and re-served an already-shown frame.
        if let Some(frame) = get(&payload, "frames").map(array_of).unwrap_or(&[]).last() {
            let seq = get(frame, "seq").map(u64_of);
            if seq != last_seq {
                print_frame(frame);
                last_seq = seq;
            }
        } else {
            println!("no history frames yet");
        }
        shown += 1;
        if iterations != 0 && shown >= iterations {
            return Ok(());
        }
        std::thread::sleep(Duration::from_secs_f64(interval_secs));
    }
}
