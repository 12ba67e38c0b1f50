//! Deterministic JSONL metric-dump generation — the test and example
//! counterpart of [`crate::ingest`](mod@crate::ingest).
//!
//! `write_dump` synthesizes the dump a production metrics scraper would
//! produce for a linear pipeline: per window, per sample tick, one row
//! per operator, with seeded jitter (splitmix64, no RNG state) and an
//! optional embedded rate drift. The generated stream drives the
//! ≥100k-row streaming-ingest tests and the checked-in example dump —
//! and documents the row schema by construction.

use std::io::{self, Write};

/// One pipeline stage of a generated dump.
#[derive(Debug, Clone)]
pub struct DumpOp {
    /// Operator name (must be JSON-string-safe; generated names are).
    pub name: String,
    /// Deployed parallelism, constant over the dump.
    pub parallelism: u32,
    /// Per-instance processing capacity, records/second.
    pub per_instance_rate: f64,
}

/// Shape of a generated dump.
#[derive(Debug, Clone)]
pub struct DumpSpec {
    /// Pipeline stages; the first is the source (rows appear in order).
    pub ops: Vec<DumpOp>,
    /// Number of time windows.
    pub windows: u64,
    /// Metric samples per window (scrapes).
    pub samples_per_window: u32,
    /// Window length in seconds.
    pub window_secs: f64,
    /// Offered source rate, records/second.
    pub base_rate: f64,
    /// From this window on, the offered rate is multiplied by
    /// `drift_factor` (the embedded drift the monitor should find).
    pub drift_at_window: Option<u64>,
    /// Rate multiplier after the drift point.
    pub drift_factor: f64,
    /// Relative jitter amplitude on the offered rate (e.g. 0.02).
    pub jitter: f64,
    /// Seed of the jitter stream.
    pub seed: u64,
}

impl DumpSpec {
    /// A small five-stage pipeline with a mid-dump rate drift.
    pub fn example(windows: u64, samples_per_window: u32) -> Self {
        DumpSpec {
            ops: vec![
                DumpOp {
                    name: "source".to_string(),
                    parallelism: 2,
                    per_instance_rate: 60_000.0,
                },
                DumpOp {
                    name: "parse".to_string(),
                    parallelism: 4,
                    per_instance_rate: 30_000.0,
                },
                DumpOp {
                    name: "filter".to_string(),
                    parallelism: 4,
                    per_instance_rate: 35_000.0,
                },
                DumpOp {
                    name: "join".to_string(),
                    parallelism: 6,
                    per_instance_rate: 20_000.0,
                },
                DumpOp {
                    name: "sink".to_string(),
                    parallelism: 2,
                    per_instance_rate: 80_000.0,
                },
            ],
            windows,
            samples_per_window,
            window_secs: 60.0,
            base_rate: 80_000.0,
            drift_at_window: Some(windows * 3 / 5),
            drift_factor: 1.6,
            jitter: 0.02,
            seed: 7,
        }
    }

    /// Rows this spec will produce.
    pub fn rows(&self) -> u64 {
        self.windows * u64::from(self.samples_per_window) * self.ops.len() as u64
    }
}

/// splitmix64 finalizer: the jitter stream is a pure function of
/// `(seed, window, sample, op)`.
fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in [-1, 1).
fn jitter_unit(seed: u64, a: u64, b: u64) -> f64 {
    ((mix(seed, a, b) >> 11) as f64 / (1u64 << 52) as f64) - 1.0
}

/// Write the dump to `w`; returns the number of rows written.
pub fn write_dump<W: Write>(w: &mut W, spec: &DumpSpec) -> io::Result<u64> {
    let mut rows = 0u64;
    let dt = spec.window_secs / f64::from(spec.samples_per_window);
    for window in 0..spec.windows {
        let drifted = spec.drift_at_window.is_some_and(|at| window >= at);
        let multiplier = if drifted { spec.drift_factor } else { 1.0 };
        for sample in 0..u64::from(spec.samples_per_window) {
            let ts = window as f64 * spec.window_secs + (sample as f64 + 0.5) * dt;
            let tick = window * u64::from(spec.samples_per_window) + sample;
            let mut input = spec.base_rate
                * multiplier
                * (1.0 + spec.jitter * jitter_unit(spec.seed, tick, u64::MAX));
            for (i, op) in spec.ops.iter().enumerate() {
                let capacity = op.per_instance_rate * f64::from(op.parallelism);
                let processed = input.min(capacity);
                let busy_frac = (input / capacity).min(1.0);
                let busy = busy_frac * 1000.0;
                let idle = 1000.0 - busy;
                let observed = op.per_instance_rate
                    * (1.0 + 0.5 * spec.jitter * jitter_unit(spec.seed, tick, i as u64));
                writeln!(
                    w,
                    "{{\"ts\":{ts:?},\"operator\":\"{}\",\"parallelism\":{},\"records_in_per_sec\":{input:?},\"records_out_per_sec\":{processed:?},\"busy_ms\":{busy:?},\"idle_ms\":{idle:?},\"backpressured_ms\":0.0,\"cpu_load\":{busy_frac:?},\"observed_rate\":{observed:?}}}",
                    op.name, op.parallelism
                )?;
                rows += 1;
                input = processed;
            }
        }
    }
    Ok(rows)
}

/// Write the dump to a file path.
pub fn write_dump_file(path: &str, spec: &DumpSpec) -> io::Result<u64> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(file);
    let rows = write_dump(&mut w, spec)?;
    w.flush()?;
    Ok(rows)
}
