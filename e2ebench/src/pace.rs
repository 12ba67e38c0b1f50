//! Open-loop pacing: requests fall due on a fixed schedule, whatever the
//! previous reply did, and each latency is timed from the due time. A
//! request that starts late because the previous one was still in flight
//! is charged for its wait, so a stalled daemon cannot hide behind a slow
//! generator (coordinated omission).

use std::time::{Duration, Instant};

/// How much the median lateness may rise from the first quarter of a run
/// to the last before the run counts as overloaded (a growing backlog).
pub const LATENESS_GROWTH_MS: f64 = 10.0;

/// A fixed-rate schedule of due times.
pub struct Pacer {
    start: Instant,
    rate: f64,
    count: u64,
}

impl Pacer {
    /// `rate` requests per second for `seconds`, the first due at `start`.
    pub fn new(start: Instant, rate: f64, seconds: f64) -> Self {
        Pacer {
            start,
            rate,
            count: (rate * seconds).floor() as u64,
        }
    }

    /// Requests in the whole schedule.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Due time of request `k`.
    pub fn due(&self, k: u64) -> Instant {
        self.start + Duration::from_secs_f64(k as f64 / self.rate)
    }

    /// Sleep until request `k` is due (no sleep when it is already late)
    /// and return its due time and how late it starts, in milliseconds.
    pub fn wait(&self, k: u64) -> (Instant, f64) {
        let due = self.due(k);
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        (due, ms(due.elapsed()))
    }
}

/// Milliseconds in a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Whether lateness grew over the run: the median of the last quarter of
/// the samples (in send order) exceeds the first quarter's by more than
/// [`LATENESS_GROWTH_MS`].
pub fn lateness_grew(late_ms: &[f64]) -> bool {
    let quarter = late_ms.len() / 4;
    if quarter == 0 {
        return false;
    }
    let first = crate::stats::median(&late_ms[..quarter]);
    let last = crate::stats::median(&late_ms[late_ms.len() - quarter..]);
    last - first > LATENESS_GROWTH_MS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn due_times_follow_the_rate_not_the_replies() {
        let start = Instant::now();
        let pacer = Pacer::new(start, 4.0, 2.5);
        assert_eq!(pacer.count(), 10);
        assert_eq!(pacer.due(0), start);
        assert_eq!(pacer.due(1) - start, Duration::from_millis(250));
        assert_eq!(pacer.due(8) - start, Duration::from_secs(2));
    }

    #[test]
    fn a_late_request_is_charged_from_its_due_time() {
        // The schedule began 50 ms ago, so request 0 is already late:
        // `wait` must return at once and report the 50 ms.
        let start = Instant::now() - Duration::from_millis(50);
        let pacer = Pacer::new(start, 10.0, 1.0);
        let before = Instant::now();
        let (due, late) = pacer.wait(0);
        assert!(before.elapsed() < Duration::from_millis(20));
        assert_eq!(due, start);
        assert!(late >= 50.0, "late {late}");
    }

    #[test]
    fn an_early_request_waits_for_its_due_time() {
        let start = Instant::now();
        let pacer = Pacer::new(start, 20.0, 1.0);
        let (due, late) = pacer.wait(1);
        assert_eq!(due - start, Duration::from_millis(50));
        assert!(Instant::now() >= due);
        assert!((0.0..20.0).contains(&late), "late {late}");
    }

    #[test]
    fn growing_lateness_is_detected() {
        let steady: Vec<f64> = (0..40).map(|i| (i % 3) as f64).collect();
        assert!(!lateness_grew(&steady));
        let backlog: Vec<f64> = (0..40).map(|i| i as f64 * 2.0).collect();
        assert!(lateness_grew(&backlog));
        // A single late request at the end is not a backlog.
        let mut blip = steady.clone();
        blip[39] = 500.0;
        assert!(!lateness_grew(&blip));
        assert!(!lateness_grew(&[100.0, 0.0]));
    }
}
