//! Order statistics with an explicit sample-count rule for tails.
//!
//! A tail percentile is reported only when at least [`MIN_BEYOND`] samples
//! lie beyond it: with fewer, one outlier moves the figure from run to run.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let v = sorted(samples);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// 1-based nearest rank of percentile `q` (in `(0, 1)`) among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples lying beyond the nearest-rank percentile `q` of `n` samples.
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// Nearest-rank percentile `q` of `samples`, refused unless at least
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn tail(samples: &[f64], q: f64) -> Result<f64, String> {
    let n = samples.len();
    let past = beyond(n, q);
    if past < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {past} beyond it; at least {MIN_BEYOND} are needed",
            q * 100.0
        ));
    }
    Ok(sorted(samples)[rank(n, q) - 1])
}

/// The highest percentile up to `q` that still has [`MIN_BEYOND`] samples
/// beyond it, as `(percentile, value)`; `None` with too few samples.
pub fn capped_tail(samples: &[f64], q: f64) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= MIN_BEYOND {
        return None;
    }
    let r = rank(n, q).min(n - MIN_BEYOND);
    Some((r as f64 / n as f64, sorted(samples)[r - 1]))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled 1..=n, so the tests also cover the sort.
        (0..n).map(|i| ((i * 37) % n + 1) as f64).collect()
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: exactly ten lie beyond it.
        assert_eq!(beyond(100, 0.90), 10);
        assert_eq!(tail(&ramp(100), 0.90), Ok(90.0));
        // One sample fewer leaves only nine beyond.
        assert_eq!(beyond(99, 0.90), 9);
        assert!(tail(&ramp(99), 0.90).is_err());
        // p95 needs 200 samples, p99 needs 1000.
        assert_eq!(tail(&ramp(200), 0.95), Ok(190.0));
        assert!(tail(&ramp(199), 0.95).is_err());
        assert_eq!(tail(&ramp(1000), 0.99), Ok(990.0));
        assert!(tail(&ramp(999), 0.99).is_err());
    }

    #[test]
    fn refusal_names_the_counts() {
        let err = tail(&ramp(50), 0.90).unwrap_err();
        assert!(
            err.contains("50 samples") && err.contains("5 beyond"),
            "{err}"
        );
    }

    #[test]
    fn capped_tail_falls_back_to_the_highest_supported_percentile() {
        // 1000 samples support p99 itself.
        assert_eq!(capped_tail(&ramp(1000), 0.99), Some((0.99, 990.0)));
        // 250 samples: p96 is the highest with ten beyond.
        assert_eq!(capped_tail(&ramp(250), 0.99), Some((0.96, 240.0)));
        assert_eq!(beyond(250, 0.96), 10);
        assert_eq!(capped_tail(&ramp(10), 0.5), None);
    }

    #[test]
    fn empty_input_is_refused() {
        assert_eq!(beyond(0, 0.5), 0);
        assert!(tail(&[], 0.9).is_err());
    }
}
