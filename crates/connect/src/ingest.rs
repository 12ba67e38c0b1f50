//! Streaming JSONL metric-dump ingestion: multi-million-row production
//! dumps become [`TraceLog`]s and monitor-ready rate schedules in bounded
//! memory.
//!
//! The ingester reads one line at a time into a reused buffer and keeps
//! only the *current* time window's per-operator accumulators — memory is
//! O(operators), never O(rows) — so a dump can be arbitrarily large
//! (`tests/connect_ingest.rs` proves the bound with a counting reader).
//!
//! ## Row format
//!
//! One JSON object per line, one metric sample per operator per scrape:
//!
//! ```json
//! {"ts": 12.5, "operator": "source", "parallelism": 4,
//!  "records_in_per_sec": 1000.0, "records_out_per_sec": 995.0,
//!  "busy_ms": 450.0, "idle_ms": 550.0, "backpressured_ms": 0.0,
//!  "cpu_load": 0.45, "observed_rate": 260.0}
//! ```
//!
//! `cpu_load` and `observed_rate` are optional (derived from busy time
//! when absent). Malformed lines, out-of-order timestamps, duplicate
//! `(operator, ts)` rows and rows naming unknown operators are counted in
//! [`IngestStats`] and skipped — ingestion never panics, and a dump with
//! no valid rows at all is an error.
//!
//! ## Windowing
//!
//! Rows are bucketed into fixed `window_secs` windows by timestamp; each
//! completed window averages its per-operator samples into one
//! [`TraceEntry`] whose assignment is the last parallelism seen per
//! operator. The operator set is discovered during the *first* window and
//! fixed thereafter. The produced log carries `flow: None` — a hand-built
//! identity — so `ReplayBackend` serves it to any flow of matching shape,
//! which is exactly what `streamtune monitor` needs when it polls with
//! schedule-shifted rates.

use std::collections::HashMap;
use std::io::BufRead;

use streamtune_backend::{
    BackendConstraints, BackendError, EngineMode, Observation, OpObservation, SimulationReport,
    TraceEntry, TraceLog, TuneOutcome, BACKPRESSURE_VISIBILITY,
};
use streamtune_dataflow::{OpId, ParallelismAssignment};

/// Ingestion parameters.
#[derive(Debug, Clone)]
pub struct IngestConfig {
    /// Window length in seconds of dump time.
    pub window_secs: f64,
    /// Engine family recorded in the produced log.
    pub engine: EngineMode,
    /// Deployment limits recorded in the produced log.
    pub max_parallelism: u32,
    /// Stabilization wait recorded in the produced log.
    pub reconfig_wait_minutes: f64,
    /// Operators whose summed input rate forms the rate-schedule signal;
    /// empty means the first operator discovered (dumps list sources
    /// first by convention).
    pub source_operators: Vec<String>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            window_secs: 60.0,
            engine: EngineMode::Flink,
            max_parallelism: 100,
            reconfig_wait_minutes: 10.0,
            source_operators: Vec::new(),
        }
    }
}

/// Everything counted while streaming a dump.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Lines read (blank lines included).
    pub lines: u64,
    /// Rows accepted into a window.
    pub rows: u64,
    /// Lines that failed to parse or validate (bad JSON, missing fields,
    /// non-finite or negative values, zero parallelism).
    pub bad_lines: u64,
    /// Rows older than the window being accumulated (out of order).
    pub late_rows: u64,
    /// Exact `(operator, ts)` duplicates within a window.
    pub duplicate_rows: u64,
    /// Rows naming an operator not seen during the first window.
    pub unknown_operator_rows: u64,
    /// Windows flushed into trace entries.
    pub windows: u64,
}

/// The product of one ingestion run.
#[derive(Debug, Clone)]
pub struct IngestReport {
    /// Replayable trace: one entry per completed window, epochs counted
    /// from 1 in window order.
    pub log: TraceLog,
    /// Operator names, in discovery order (`OpId` order in the log).
    pub operators: Vec<String>,
    /// Per-window source-signal rates (records/second, absolute).
    pub rates: Vec<f64>,
    /// Per-window rate multipliers relative to the first window — feed
    /// this to `streamtune monitor` as a scripted schedule.
    pub schedule: Vec<f64>,
    /// Ingestion counters.
    pub stats: IngestStats,
}

impl IngestReport {
    /// The dump's recorded deployment admitted as a finished tuning: a
    /// dump records one fixed deployment per window, so there is nothing
    /// for a tuner to explore. The outcome is the last window's
    /// assignment with zero reconfigurations; callers check that it
    /// covers their workload's operators.
    pub fn admitted(&self) -> TuneOutcome {
        let entries = &self.log.deploys;
        let last = entries.last().expect("ingest yields at least one window");
        TuneOutcome {
            final_assignment: last.assignment.clone(),
            reconfigurations: 0,
            backpressure_events: entries
                .iter()
                .filter(|e| e.report.observation.job_backpressure)
                .count() as u32,
            elapsed_minutes: 0.0,
            iterations: entries.len() as u32,
            converged: true,
        }
    }
}

/// One parsed row.
struct Row {
    ts: f64,
    operator: String,
    parallelism: u32,
    input: f64,
    processed: f64,
    busy: f64,
    idle: f64,
    backpressured: f64,
    cpu: Option<f64>,
    observed: Option<f64>,
}

/// Per-operator accumulator for the current window (sums over samples).
#[derive(Debug, Clone, Default)]
struct OpAcc {
    count: u64,
    seen_ts: Vec<f64>,
    parallelism: u32,
    input: f64,
    processed: f64,
    busy: f64,
    idle: f64,
    backpressured: f64,
    cpu: f64,
    observed: f64,
}

/// Per-operator window averages (carried forward over gap windows).
#[derive(Debug, Clone, Copy)]
struct OpMeans {
    parallelism: u32,
    input: f64,
    processed: f64,
    busy: f64,
    idle: f64,
    backpressured: f64,
    cpu: f64,
    observed: f64,
}

/// Ingest a JSONL dump from any buffered reader.
pub fn ingest<R: BufRead>(
    mut reader: R,
    config: &IngestConfig,
) -> Result<IngestReport, BackendError> {
    let mut stats = IngestStats::default();
    let mut ops: Vec<String> = Vec::new();
    let mut op_index: HashMap<String, usize> = HashMap::new();
    let mut first_window = true;
    let mut current_window: Option<i64> = None;
    let mut accs: Vec<OpAcc> = Vec::new();
    let mut last_means: Vec<OpMeans> = Vec::new();
    let mut entries: Vec<TraceEntry> = Vec::new();

    let mut line = String::new();
    loop {
        line.clear();
        let read = reader.read_line(&mut line).map_err(|e| BackendError::Io {
            context: "read metric dump".to_string(),
            message: e.to_string(),
        })?;
        if read == 0 {
            break;
        }
        stats.lines += 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Some(row) = parse_row(trimmed) else {
            stats.bad_lines += 1;
            continue;
        };

        let window = (row.ts / config.window_secs).floor() as i64;
        match current_window {
            None => current_window = Some(window),
            Some(cur) if window < cur => {
                stats.late_rows += 1;
                continue;
            }
            Some(cur) if window > cur => {
                flush_window(
                    config,
                    &ops,
                    &mut accs,
                    &mut last_means,
                    &mut entries,
                    &mut stats,
                )?;
                first_window = false;
                current_window = Some(window);
            }
            Some(_) => {}
        }

        // Resolve the operator; discovery is open only during the first
        // window so every entry has the same shape.
        let index = match op_index.get(&row.operator) {
            Some(&i) => i,
            None if first_window => {
                let i = ops.len();
                ops.push(row.operator.clone());
                op_index.insert(row.operator.clone(), i);
                accs.push(OpAcc::default());
                i
            }
            None => {
                stats.unknown_operator_rows += 1;
                continue;
            }
        };
        if accs.len() < ops.len() {
            accs.resize(ops.len(), OpAcc::default());
        }
        let acc = &mut accs[index];
        if acc.seen_ts.contains(&row.ts) {
            stats.duplicate_rows += 1;
            continue;
        }
        acc.seen_ts.push(row.ts);
        acc.count += 1;
        acc.parallelism = row.parallelism;
        acc.input += row.input;
        acc.processed += row.processed;
        acc.busy += row.busy;
        acc.idle += row.idle;
        acc.backpressured += row.backpressured;
        acc.cpu += row.cpu.unwrap_or(row.busy / 1000.0);
        acc.observed += row.observed.unwrap_or_else(|| {
            // DS2-style useful-time rate: processed / busy fraction,
            // per parallel instance.
            let busy_frac = (row.busy / 1000.0).max(1e-6);
            row.processed / busy_frac / f64::from(row.parallelism)
        });
        stats.rows += 1;
    }

    // Final window.
    if current_window.is_some() {
        flush_window(
            config,
            &ops,
            &mut accs,
            &mut last_means,
            &mut entries,
            &mut stats,
        )?;
    }

    if entries.is_empty() {
        return Err(BackendError::Format {
            context: "ingest metric dump".to_string(),
            message: format!(
                "no valid rows ({} line(s), {} bad)",
                stats.lines, stats.bad_lines
            ),
        });
    }

    // Rate-schedule signal: summed input rate of the source operators.
    let source_indices: Vec<usize> = if config.source_operators.is_empty() {
        vec![0]
    } else {
        config
            .source_operators
            .iter()
            .map(|name| {
                op_index
                    .get(name)
                    .copied()
                    .ok_or_else(|| BackendError::Format {
                        context: "ingest rate schedule".to_string(),
                        message: format!("source operator `{name}` never appeared in the dump"),
                    })
            })
            .collect::<Result<_, _>>()?
    };
    let rates: Vec<f64> = entries
        .iter()
        .map(|e| {
            source_indices
                .iter()
                .map(|&i| e.report.observation.per_op[i].input_rate)
                .sum()
        })
        .collect();
    let base = rates[0];
    let schedule: Vec<f64> = rates
        .iter()
        .map(|&r| if base > 0.0 { r / base } else { 1.0 })
        .collect();

    let mut log = TraceLog::new(
        config.engine,
        BackendConstraints {
            max_parallelism: config.max_parallelism,
            reconfig_wait_minutes: config.reconfig_wait_minutes,
        },
    );
    log.deploys = entries;

    Ok(IngestReport {
        log,
        operators: ops,
        rates,
        schedule,
        stats,
    })
}

/// Ingest a JSONL dump from a file path.
pub fn ingest_file(path: &str, config: &IngestConfig) -> Result<IngestReport, BackendError> {
    let file = std::fs::File::open(path).map_err(|e| BackendError::Io {
        context: format!("open {path}"),
        message: e.to_string(),
    })?;
    ingest(std::io::BufReader::new(file), config)
}

fn parse_row(line: &str) -> Option<Row> {
    let v: serde::Value = serde_json::from_str(line).ok()?;
    let num = |name: &str| -> Option<f64> {
        match v.field(name).ok()? {
            serde::Value::F64(f) => Some(*f),
            serde::Value::U64(n) => Some(*n as f64),
            serde::Value::I64(n) => Some(*n as f64),
            _ => None,
        }
    };
    let rate = |name: &str| num(name).filter(|r| r.is_finite() && *r >= 0.0);
    let operator = match v.field("operator").ok()? {
        serde::Value::String(s) if !s.is_empty() => s.clone(),
        _ => return None,
    };
    let parallelism = match v.field("parallelism").ok()? {
        serde::Value::U64(n) if (1..=u64::from(u32::MAX)).contains(n) => *n as u32,
        _ => return None,
    };
    Some(Row {
        ts: num("ts").filter(|t| t.is_finite() && *t >= 0.0)?,
        operator,
        parallelism,
        input: rate("records_in_per_sec")?,
        processed: rate("records_out_per_sec")?,
        busy: rate("busy_ms")?,
        idle: rate("idle_ms")?,
        backpressured: rate("backpressured_ms")?,
        cpu: v.field("cpu_load").ok().and_then(|_| rate("cpu_load")),
        observed: v
            .field("observed_rate")
            .ok()
            .and_then(|_| rate("observed_rate")),
    })
}

fn flush_window(
    config: &IngestConfig,
    ops: &[String],
    accs: &mut [OpAcc],
    last_means: &mut Vec<OpMeans>,
    entries: &mut Vec<TraceEntry>,
    stats: &mut IngestStats,
) -> Result<(), BackendError> {
    // Mean over this window's samples; operators silent this window carry
    // their previous window's values (dashboards hold the last gauge).
    let mut means = Vec::with_capacity(ops.len());
    for (i, name) in ops.iter().enumerate() {
        let acc = &accs[i];
        if acc.count == 0 {
            match last_means.get(i) {
                Some(prev) => means.push(*prev),
                None => {
                    return Err(BackendError::Format {
                        context: "ingest metric dump".to_string(),
                        message: format!("operator `{name}` has no samples in its first window"),
                    })
                }
            }
        } else {
            let n = acc.count as f64;
            means.push(OpMeans {
                parallelism: acc.parallelism,
                input: acc.input / n,
                processed: acc.processed / n,
                busy: acc.busy / n,
                idle: acc.idle / n,
                backpressured: acc.backpressured / n,
                cpu: acc.cpu / n,
                observed: acc.observed / n,
            });
        }
    }

    let assignment = ParallelismAssignment::from_vec(means.iter().map(|m| m.parallelism).collect());
    let mut per_op = Vec::with_capacity(means.len());
    let mut true_pa = Vec::with_capacity(means.len());
    let mut demand_input = Vec::with_capacity(means.len());
    let mut saturated_v = Vec::with_capacity(means.len());
    let mut weighted_cpu = 0.0;
    for (i, m) in means.iter().enumerate() {
        let total_ms = m.busy + m.idle + m.backpressured;
        let flink_backpressured = m.backpressured > BACKPRESSURE_VISIBILITY * total_ms;
        let saturated = m.processed < m.input * (1.0 - 1e-9);
        per_op.push(OpObservation {
            op: OpId::new(i),
            parallelism: m.parallelism,
            input_rate: m.input,
            processed_rate: m.processed,
            busy_ms_per_sec: m.busy,
            idle_ms_per_sec: m.idle,
            backpressured_ms_per_sec: m.backpressured,
            observed_per_instance_rate: m.observed,
            cpu_load: m.cpu,
            flink_backpressured,
            timely_bottleneck: false,
            saturated,
        });
        let busy_frac = (m.busy / 1000.0).max(1e-6);
        true_pa.push(m.processed / busy_frac);
        demand_input.push(m.input);
        saturated_v.push(saturated);
        weighted_cpu += m.cpu * f64::from(m.parallelism);
    }
    let total_parallelism = assignment.total();
    let total_input: f64 = means.iter().map(|m| m.input).sum();
    let total_processed: f64 = means.iter().map(|m| m.processed).sum();
    let throughput_scale = if total_input > 0.0 {
        (total_processed / total_input).min(1.0)
    } else {
        1.0
    };
    let job_backpressure = per_op.iter().any(|o| o.flink_backpressured || o.saturated);
    let observation = Observation {
        mode: config.engine,
        per_op,
        job_backpressure,
        throughput_scale,
        cpu_utilization: if total_parallelism > 0 {
            weighted_cpu / total_parallelism as f64
        } else {
            0.0
        },
        total_parallelism,
    };
    // Windows only ever average finite inputs, but assert the contract the
    // replay consumers rely on.
    observation.validate()?;

    stats.windows += 1;
    entries.push(TraceEntry {
        epoch: stats.windows,
        assignment,
        report: SimulationReport {
            observation,
            true_pa,
            demand_input,
            saturated: saturated_v,
        },
    });

    *last_means = means;
    for acc in accs.iter_mut() {
        *acc = OpAcc::default();
    }
    Ok(())
}
