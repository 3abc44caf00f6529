//! Engine observability: the engine's own `mpise-obs` registry, the
//! instrument handles the request path records into, and the
//! [`EngineStats`] snapshot read back from them.

use mpise_obs::metrics::{Counter, Gauge, Histogram, LATENCY_BUCKETS_US};
use mpise_obs::{Registry, SpanTree};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The engine's instruments: handles into its registry. Recording is
/// a relaxed atomic add (plus one `fetch_max` per response); the
/// registry lock is only taken to render an export.
pub(crate) struct StatsInner {
    pub(crate) registry: Arc<Registry>,
    started: Instant,
    pub(crate) submitted: Counter,
    pub(crate) rejected: Counter,
    pub(crate) keygen: Counter,
    pub(crate) derive: Counter,
    pub(crate) validate: Counter,
    /// Jobs answered per worker, indexed by worker id.
    pub(crate) worker_completed: Vec<Counter>,
    pub(crate) queue_depth: Gauge,
    latency_us: Histogram,
    /// Worst latency seen; quantiles are clamped to it, so a quantile
    /// in the open-ended top bucket still reads as a number.
    max_us: AtomicU64,
    /// Telemetry span trees handed in by exiting workers (spans are
    /// thread-local, so each worker merges its tree here on shutdown).
    pub(crate) spans: Mutex<SpanTree>,
}

impl StatsInner {
    pub(crate) fn new(workers: usize) -> Self {
        let registry = Arc::new(Registry::new());
        let r = &registry;
        let completed = |op| {
            r.counter(
                "mpise_engine_requests_completed_total",
                "Requests answered, by operation",
                &[("op", op)],
            )
        };
        StatsInner {
            started: Instant::now(),
            submitted: r.counter(
                "mpise_engine_requests_submitted_total",
                "Requests accepted into the queue",
                &[],
            ),
            rejected: r.counter(
                "mpise_engine_requests_rejected_total",
                "Submissions refused",
                &[],
            ),
            keygen: completed("keygen"),
            derive: completed("derive"),
            validate: completed("validate"),
            worker_completed: (0..workers)
                .map(|i| {
                    r.counter(
                        "mpise_engine_worker_completed_total",
                        "Jobs answered, by worker",
                        &[("worker", &i.to_string())],
                    )
                })
                .collect(),
            queue_depth: r.gauge(
                "mpise_engine_queue_depth",
                "Requests queued but not yet claimed",
                &[],
            ),
            latency_us: r.histogram(
                "mpise_engine_latency_us",
                "Submit-to-response latency (microseconds)",
                &[],
                &LATENCY_BUCKETS_US,
            ),
            max_us: AtomicU64::new(0),
            spans: Mutex::new(SpanTree::default()),
            registry,
        }
    }

    pub(crate) fn record_latency(&self, micros: u64) {
        self.max_us.fetch_max(micros, Ordering::Relaxed);
        self.latency_us.observe(micros as f64);
    }

    pub(crate) fn snapshot(&self, queue_depth: usize) -> EngineStats {
        let (keygen, derive, validate) =
            (self.keygen.get(), self.derive.get(), self.validate.get());
        let completed = keygen + derive + validate;
        let max_us = (self.latency_us.count() > 0).then(|| self.max_us.load(Ordering::Relaxed));
        let quantile = |q: f64| Some(self.latency_us.quantile(q)?.min(max_us? as f64) as u64);
        let elapsed_secs = self.started.elapsed().as_secs_f64();
        EngineStats {
            submitted: self.submitted.get(),
            rejected: self.rejected.get(),
            completed,
            keygen,
            derive,
            validate,
            worker_completed: self.worker_completed.iter().map(Counter::get).collect(),
            queue_depth,
            p50_us: quantile(0.50),
            p99_us: quantile(0.99),
            max_us,
            elapsed_secs,
            throughput_rps: if elapsed_secs > 0.0 {
                completed as f64 / elapsed_secs
            } else {
                0.0
            },
        }
    }
}

/// A point-in-time snapshot of the engine's counters.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineStats {
    /// Requests accepted into the queue.
    pub submitted: u64,
    /// Submissions refused, none of them queued: a submit after
    /// shutdown, or a keygen with a negative bound.
    pub rejected: u64,
    /// Requests answered with an outcome (`keygen + derive + validate`).
    pub completed: u64,
    /// Completed key generations.
    pub keygen: u64,
    /// Completed shared-secret derivations.
    pub derive: u64,
    /// Completed public-key validations.
    pub validate: u64,
    /// Jobs answered per worker, indexed by worker id. Every accepted
    /// job is answered with an outcome, so once the workers are idle
    /// the entries sum to `completed`.
    pub worker_completed: Vec<u64>,
    /// Requests queued but not yet claimed at snapshot time.
    pub queue_depth: usize,
    /// Median submit-to-response latency (microseconds); `None` until a
    /// first response exists. Read from the latency histogram: the
    /// upper bound of the bucket holding the median, clamped to
    /// `max_us`. That never underestimates, and overestimates by at
    /// most 2.5× (the widest bucket ratio); a value under the first
    /// bound (100 µs) reads as at most 100 µs.
    pub p50_us: Option<u64>,
    /// 99th-percentile submit-to-response latency (microseconds), read
    /// from the histogram like `p50_us`; `None` until a first response
    /// exists.
    pub p99_us: Option<u64>,
    /// Worst-case submit-to-response latency (microseconds); `None`
    /// until a first response exists.
    pub max_us: Option<u64>,
    /// Seconds since the engine started.
    pub elapsed_secs: f64,
    /// Completed requests per second since the engine started.
    pub throughput_rps: f64,
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
            "refused:  {} rejected; queue depth {}",
            self.rejected, self.queue_depth
        )?;
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
    fn snapshot_aggregates() {
        let s = StatsInner::new(2);
        s.keygen.add(2);
        s.validate.add(3);
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
        // Regression: an idle engine used to report p50 = p99 = max = 0,
        // indistinguishable from real measurements of a fast engine.
        let s = StatsInner::new(2);
        let snap = s.snapshot(0);
        assert_eq!(snap.p50_us, None);
        assert_eq!(snap.p99_us, None);
        assert_eq!(snap.max_us, None);
        assert_eq!(snap.completed, 0);
        let text = snap.to_string();
        assert!(text.contains("p50 n/a"));
    }

    #[test]
    fn display_is_stable() {
        let s = StatsInner::new(1);
        let text = s.snapshot(0).to_string();
        assert!(text.contains("requests:"));
        assert!(text.contains("latency:"));
    }
}
