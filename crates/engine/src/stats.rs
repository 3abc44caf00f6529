//! Engine observability: operation counters and latency percentiles.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Shared mutable counters behind the engine (relaxed atomics; the
/// latency reservoir is a mutex because percentile extraction needs
/// the whole population).
pub(crate) struct StatsInner {
    pub(crate) started: Instant,
    pub(crate) submitted: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) keygen: AtomicU64,
    pub(crate) derive: AtomicU64,
    pub(crate) validate: AtomicU64,
    pub(crate) expired: AtomicU64,
    pub(crate) cancelled: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) batched_requests: AtomicU64,
    /// Jobs answered per worker, indexed by worker id.
    pub(crate) worker_completed: Vec<AtomicU64>,
    pub(crate) latencies_us: Mutex<Vec<u64>>,
    /// Telemetry span trees handed in by exiting workers (spans are
    /// thread-local, so each worker merges its tree here on shutdown).
    pub(crate) spans: Mutex<mpise_obs::SpanTree>,
}

impl StatsInner {
    pub(crate) fn new(workers: usize) -> Self {
        StatsInner {
            started: Instant::now(),
            submitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            keygen: AtomicU64::new(0),
            derive: AtomicU64::new(0),
            validate: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            cancelled: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_requests: AtomicU64::new(0),
            worker_completed: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            latencies_us: Mutex::new(Vec::new()),
            spans: Mutex::new(mpise_obs::SpanTree::default()),
        }
    }

    pub(crate) fn record_latency(&self, micros: u64) {
        self.latencies_us.lock().expect("stats lock").push(micros);
    }

    /// A copy of the retained latency population (microseconds).
    pub(crate) fn latencies(&self) -> Vec<u64> {
        self.latencies_us.lock().expect("stats lock").clone()
    }

    pub(crate) fn snapshot(&self, queue_depth: usize) -> EngineStats {
        let latencies = self.latencies_us.lock().expect("stats lock").clone();
        let completed = self.keygen.load(Ordering::Relaxed)
            + self.derive.load(Ordering::Relaxed)
            + self.validate.load(Ordering::Relaxed);
        let elapsed_secs = self.started.elapsed().as_secs_f64();
        EngineStats {
            submitted: self.submitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            completed,
            keygen: self.keygen.load(Ordering::Relaxed),
            derive: self.derive.load(Ordering::Relaxed),
            validate: self.validate.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            cancelled: self.cancelled.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_requests: self.batched_requests.load(Ordering::Relaxed),
            worker_completed: self
                .worker_completed
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
            queue_depth,
            p50_us: percentile(&latencies, 50.0),
            p99_us: percentile(&latencies, 99.0),
            max_us: latencies.iter().copied().max(),
            elapsed_secs,
            throughput_rps: if elapsed_secs > 0.0 {
                completed as f64 / elapsed_secs
            } else {
                0.0
            },
        }
    }
}

/// Nearest-rank percentile over the recorded latencies (`None` when the
/// series is empty — an idle engine has no latency, not a zero one).
fn percentile(samples: &[u64], pct: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// A point-in-time snapshot of the engine's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Submissions refused (queue closed or full on `try_submit`).
    pub rejected: u64,
    /// Requests answered with an outcome (`keygen + derive + validate`).
    pub completed: u64,
    /// Completed key generations.
    pub keygen: u64,
    /// Completed shared-secret derivations.
    pub derive: u64,
    /// Completed public-key validations.
    pub validate: u64,
    /// Requests that missed their deadline before a worker took them.
    pub expired: u64,
    /// Requests cancelled before a worker took them.
    pub cancelled: u64,
    /// Validation batches served by one `validate_many` call
    /// (including width-1 batches).
    pub batches: u64,
    /// Validation requests served through those batches.
    pub batched_requests: u64,
    /// Jobs answered per worker, indexed by worker id. Refusals count
    /// too, so the entries sum to `completed + expired + cancelled`.
    pub worker_completed: Vec<u64>,
    /// Requests queued but not yet claimed at snapshot time.
    pub queue_depth: usize,
    /// Median submit-to-response latency (microseconds); `None` until a
    /// first response exists.
    pub p50_us: Option<u64>,
    /// 99th-percentile submit-to-response latency (microseconds);
    /// `None` until a first response exists.
    pub p99_us: Option<u64>,
    /// Worst-case submit-to-response latency (microseconds); `None`
    /// until a first response exists.
    pub max_us: Option<u64>,
    /// Seconds since the engine started.
    pub elapsed_secs: f64,
    /// Completed requests per second since the engine started.
    pub throughput_rps: f64,
}

impl EngineStats {
    /// Mean lanes per validation batch; `None` on an idle engine (no
    /// batches ran, so there is no width to report — the old `1.0`
    /// placeholder read as a measured value).
    pub fn mean_batch_width(&self) -> Option<f64> {
        if self.batches == 0 {
            None
        } else {
            Some(self.batched_requests as f64 / self.batches as f64)
        }
    }
}

impl std::fmt::Display for EngineStats {
    fn fmt(&self, out: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            out,
            "requests: {} submitted, {} completed ({} keygen, {} derive, {} validate)",
            self.submitted, self.completed, self.keygen, self.derive, self.validate
        )?;
        writeln!(
            out,
            "dropped:  {} rejected, {} expired, {} cancelled; queue depth {}",
            self.rejected, self.expired, self.cancelled, self.queue_depth
        )?;
        match self.mean_batch_width() {
            Some(w) => writeln!(
                out,
                "batching: {} batches over {} validations (mean width {w:.2})",
                self.batches, self.batched_requests
            )?,
            None => writeln!(out, "batching: none")?,
        }
        let ms = |v: Option<u64>| match v {
            Some(us) => format!("{:.3} ms", us as f64 / 1e3),
            None => "n/a".to_owned(),
        };
        write!(
            out,
            "latency:  p50 {}, p99 {}, max {}; throughput {:.2} req/s over {:.2} s",
            ms(self.p50_us),
            ms(self.p99_us),
            ms(self.max_us),
            self.throughput_rps,
            self.elapsed_secs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50));
        assert_eq!(percentile(&samples, 99.0), Some(99));
        assert_eq!(percentile(&samples, 100.0), Some(100));
        assert_eq!(percentile(&[42], 50.0), Some(42));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn snapshot_aggregates() {
        let s = StatsInner::new(2);
        s.keygen.store(2, Ordering::Relaxed);
        s.validate.store(3, Ordering::Relaxed);
        s.record_latency(1000);
        s.record_latency(3000);
        let snap = s.snapshot(7);
        assert_eq!(snap.completed, 5);
        assert_eq!(snap.queue_depth, 7);
        assert_eq!(snap.p50_us, Some(1000));
        assert_eq!(snap.p99_us, Some(3000));
        assert!(snap.throughput_rps > 0.0);
    }

    #[test]
    fn idle_engine_reports_no_latency_or_batch_width() {
        // Regression: an idle engine used to report p50 = p99 = max = 0
        // and a fabricated mean batch width of 1.0, indistinguishable
        // from real measurements of a fast engine.
        let s = StatsInner::new(2);
        let snap = s.snapshot(0);
        assert_eq!(snap.p50_us, None);
        assert_eq!(snap.p99_us, None);
        assert_eq!(snap.max_us, None);
        assert_eq!(snap.mean_batch_width(), None);
        assert_eq!(snap.completed, 0);
        let text = snap.to_string();
        assert!(text.contains("batching: none"));
        assert!(text.contains("p50 n/a"));
    }

    #[test]
    fn batch_width_mean() {
        let s = StatsInner::new(1);
        s.batches.store(4, Ordering::Relaxed);
        s.batched_requests.store(10, Ordering::Relaxed);
        assert_eq!(s.snapshot(0).mean_batch_width(), Some(2.5));
    }

    #[test]
    fn display_is_stable() {
        let s = StatsInner::new(1);
        let text = s.snapshot(0).to_string();
        assert!(text.contains("requests:"));
        assert!(text.contains("latency:"));
    }
}
