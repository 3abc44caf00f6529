//! The metrics registry: counters, gauges and fixed-bucket histograms
//! with Prometheus-style labels, exported as Prometheus text format or
//! as part of the `mpise-obs/v1` JSON snapshot.
//!
//! Handles are cheap `Arc`-backed atomics, so hot paths increment
//! without touching the registry lock; the lock is only taken to
//! register a series or to render an export.
//!
//! # Examples
//!
//! ```
//! use mpise_obs::metrics::Registry;
//! let r = Registry::new();
//! let reqs = r.counter("requests_total", "Requests served", &[("kind", "validate")]);
//! reqs.add(3);
//! let depth = r.gauge("queue_depth", "Requests queued", &[]);
//! depth.set(7.0);
//! let text = r.render_prometheus();
//! assert!(text.contains("requests_total{kind=\"validate\"} 3"));
//! assert!(text.contains("queue_depth 7"));
//! ```

use crate::json::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotone counter handle.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle (an `f64` stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub(crate) fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Shared state of one histogram series.
#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the buckets (ascending; an implicit `+Inf`
    /// bucket follows).
    bounds: Vec<f64>,
    /// Per-bucket observation counts (len = bounds.len() + 1).
    buckets: Vec<AtomicU64>,
    /// Sum of observations × 1000 (fixed-point, so the atomic stays
    /// integral; Prometheus sums are floats and 1/1000 resolution is
    /// ample for microsecond latencies).
    sum_milli: AtomicU64,
    count: AtomicU64,
}

impl HistogramInner {
    /// Per-bucket counts, `+Inf` bucket last.
    fn counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    fn sum(&self) -> f64 {
        self.sum_milli.load(Ordering::Relaxed) as f64 / 1000.0
    }
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

/// Latency buckets in microseconds: the 1–2.5–5 series from 100 µs to
/// 10 s. Adjacent bounds are at most 2.5× apart, which is the
/// resolution of [`Histogram::quantile`] over them.
pub const LATENCY_BUCKETS_US: [f64; 16] = [
    100.0,
    250.0,
    500.0,
    1_000.0,
    2_500.0,
    5_000.0,
    10_000.0,
    25_000.0,
    50_000.0,
    100_000.0,
    250_000.0,
    500_000.0,
    1_000_000.0,
    2_500_000.0,
    5_000_000.0,
    10_000_000.0,
];

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let inner = &self.0;
        let idx = inner
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(inner.bounds.len());
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner
            .sum_milli
            .fetch_add((v * 1000.0).max(0.0) as u64, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by nearest rank over the bucket
    /// counts: the upper bound of the bucket holding the observation of
    /// rank `⌈q · count⌉`, `f64::INFINITY` when that is the `+Inf`
    /// bucket, and `None` when nothing was observed. The ranked
    /// observation lies in that bucket: at most the result and above
    /// the bound below it.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let inner = &self.0;
        let counts = inner.counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return None;
        }
        let rank = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        let bucket = counts
            .iter()
            .position(|n| {
                seen += n;
                seen >= rank
            })
            .expect("rank ≤ total");
        Some(inner.bounds.get(bucket).copied().unwrap_or(f64::INFINITY))
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn prometheus_type(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

#[derive(Debug, Clone)]
enum Series {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

#[derive(Debug)]
struct Family {
    help: String,
    kind: Kind,
    /// Series keyed by their label set, sorted by name.
    series: BTreeMap<Labels, Series>,
}

/// A series' `(name, value)` label pairs, sorted.
type Labels = Vec<(String, String)>;

/// A thread-safe registry of metric families. Each owner builds its
/// own (the engine keeps one per instance); there is no process-wide
/// registry.
#[derive(Debug, Default)]
pub struct Registry {
    families: Mutex<BTreeMap<String, Family>>,
}

fn label_key(labels: &[(&str, &str)]) -> Labels {
    let mut key: Labels = labels.iter().map(|&(k, v)| (k.into(), v.into())).collect();
    key.sort();
    key
}

/// Renders a label set plus an optional extra label as `{k="v",…}`
/// (empty when there are none).
fn render_labels(labels: &Labels, extra: Option<(&str, &str)>) -> String {
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(extra)
        .map(|(k, v)| format!("{k}=\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn series(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: impl FnOnce() -> Series,
    ) -> Series {
        let mut families = self.families.lock().expect("metrics registry lock");
        let family = families.entry(name.to_owned()).or_insert_with(|| Family {
            help: help.to_owned(),
            kind,
            series: BTreeMap::new(),
        });
        assert!(
            family.kind == kind,
            "metric `{name}` already registered as a {}",
            family.kind.prometheus_type()
        );
        family
            .series
            .entry(label_key(labels))
            .or_insert_with(make)
            .clone()
    }

    /// Registers (or retrieves) a counter series.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Counter {
        match self.series(name, help, labels, Kind::Counter, || {
            Series::Counter(Counter(Arc::new(AtomicU64::new(0))))
        }) {
            Series::Counter(c) => c,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or retrieves) a gauge series.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Gauge {
        match self.series(name, help, labels, Kind::Gauge, || {
            Series::Gauge(Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
        }) {
            Series::Gauge(g) => g,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Registers (or retrieves) a histogram series with the given
    /// ascending bucket bounds.
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[f64],
    ) -> Histogram {
        match self.series(name, help, labels, Kind::Histogram, || {
            Series::Histogram(Histogram(Arc::new(HistogramInner {
                bounds: bounds.to_vec(),
                buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
                sum_milli: AtomicU64::new(0),
                count: AtomicU64::new(0),
            })))
        }) {
            Series::Histogram(h) => h,
            _ => unreachable!("kind checked above"),
        }
    }

    /// Renders the registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("metrics registry lock");
        let mut out = String::new();
        for (name, family) in families.iter() {
            out.push_str(&format!("# HELP {name} {}\n", family.help));
            out.push_str(&format!(
                "# TYPE {name} {}\n",
                family.kind.prometheus_type()
            ));
            for (key, series) in &family.series {
                let labels = render_labels(key, None);
                match series {
                    Series::Counter(c) => {
                        out.push_str(&format!("{name}{labels} {}\n", c.get()));
                    }
                    Series::Gauge(g) => {
                        out.push_str(&format!("{name}{labels} {}\n", fmt_f64(g.get())));
                    }
                    Series::Histogram(h) => {
                        let bounds = h.0.bounds.iter().map(|b| fmt_f64(*b));
                        let mut cumulative = 0u64;
                        for (bound, n) in bounds.chain(["+Inf".to_owned()]).zip(h.0.counts()) {
                            cumulative += n;
                            let le = render_labels(key, Some(("le", &bound)));
                            out.push_str(&format!("{name}_bucket{le} {cumulative}\n"));
                        }
                        out.push_str(&format!("{name}_sum{labels} {}\n", fmt_f64(h.0.sum())));
                        out.push_str(&format!("{name}_count{labels} {}\n", h.count()));
                    }
                }
            }
        }
        out
    }

    /// The `"metrics"` array of the `mpise-obs/v1` snapshot.
    pub fn metrics_json(&self) -> Value {
        let families = self.families.lock().expect("metrics registry lock");
        families
            .iter()
            .map(|(name, family)| {
                let series = family.series.iter().map(|(key, series)| {
                    let labels =
                        Value::object(key.iter().map(|(k, v)| (k.as_str(), v.as_str().into())));
                    match series {
                        Series::Counter(c) => crate::object! { "labels": labels, "value": c.get() },
                        Series::Gauge(g) => crate::object! { "labels": labels, "value": g.get() },
                        Series::Histogram(h) => {
                            let bounds: Value = h.0.bounds.iter().copied().collect();
                            crate::object! {
                                "labels": labels, "bounds": bounds,
                                "buckets": h.0.counts().into_iter().collect::<Value>(),
                                "sum": h.0.sum(), "count": h.count(),
                            }
                        }
                    }
                });
                crate::object! {
                    "name": name.as_str(), "type": family.kind.prometheus_type(),
                    "help": family.help.as_str(), "series": series.collect::<Value>(),
                }
            })
            .collect()
    }
}

/// Renders an f64 the way Prometheus expects: integral values without
/// a trailing `.0`.
fn fmt_f64(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_render() {
        let r = Registry::new();
        let c = r.counter("reqs_total", "requests", &[("kind", "keygen")]);
        c.inc();
        c.add(2);
        assert_eq!(c.get(), 3);
        let g = r.gauge("depth", "queue depth", &[]);
        g.set(4.5);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE reqs_total counter"));
        assert!(text.contains("reqs_total{kind=\"keygen\"} 3"));
        assert!(text.contains("depth 4.5"));
    }

    #[test]
    fn same_series_shares_the_handle() {
        let r = Registry::new();
        let a = r.counter("c", "x", &[("w", "0")]);
        let b = r.counter("c", "x", &[("w", "0")]);
        a.inc();
        assert_eq!(b.get(), 1);
        // A different label set is a separate series.
        let other = r.counter("c", "x", &[("w", "1")]);
        assert_eq!(other.get(), 0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflict_panics() {
        let r = Registry::new();
        let _ = r.counter("m", "x", &[]);
        let _ = r.gauge("m", "x", &[]);
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_prometheus() {
        let r = Registry::new();
        let h = r.histogram("lat_us", "latency", &[], &[10.0, 100.0]);
        h.observe(5.0);
        h.observe(50.0);
        h.observe(500.0);
        assert_eq!(h.count(), 3);
        let text = r.render_prometheus();
        assert!(text.contains("lat_us_bucket{le=\"10\"} 1"));
        assert!(text.contains("lat_us_bucket{le=\"100\"} 2"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("lat_us_sum 555"));
        assert!(text.contains("lat_us_count 3"));
    }

    #[test]
    fn histogram_quantile_is_nearest_rank_over_buckets() {
        let r = Registry::new();
        let h = r.histogram("lat", "latency", &[], &[10.0, 100.0, 1000.0]);
        assert_eq!(h.quantile(0.5), None, "empty histogram");
        h.observe(42.0);
        assert_eq!(h.quantile(0.0), Some(100.0), "one sample");
        assert_eq!(h.quantile(0.5), Some(100.0));
        assert_eq!(h.quantile(1.0), Some(100.0));
        // 100 samples: 50 at 5, 49 at 500, one beyond the last bound.
        let h = r.histogram("lat2", "latency", &[], &[10.0, 100.0, 1000.0]);
        for _ in 0..50 {
            h.observe(5.0);
        }
        for _ in 0..49 {
            h.observe(500.0);
        }
        h.observe(5000.0);
        assert_eq!(h.quantile(0.50), Some(10.0));
        assert_eq!(h.quantile(0.51), Some(1000.0));
        assert_eq!(h.quantile(0.99), Some(1000.0));
        assert_eq!(h.quantile(1.0), Some(f64::INFINITY), "rank in +Inf");
        let mut last = 0.0;
        for i in 0..=100 {
            let v = h.quantile(f64::from(i) / 100.0).unwrap();
            assert!(v >= last, "quantile must not decrease in q");
            last = v;
        }
    }

    #[test]
    fn json_export_shape() {
        let r = Registry::new();
        r.counter("a_total", "a", &[("k", "v")]).inc();
        r.histogram("h", "h", &[], &[1.0]).observe(0.5);
        let json = crate::json::parse(&r.metrics_json().to_string()).expect("valid JSON");
        assert_eq!(json[0]["name"], Value::from("a_total"));
        assert_eq!(
            json[0]["series"][0]["labels"],
            Value::object([("k", "v".into())])
        );
        assert_eq!(json[1]["series"][0]["bounds"], [1.0].into_iter().collect());
        assert_eq!(json[1]["series"][0]["count"], Value::from(1u64));
    }

    #[test]
    fn label_order_is_canonical() {
        let key = label_key(&[("b", "2"), ("a", "1")]);
        assert_eq!(render_labels(&key, None), "{a=\"1\",b=\"2\"}");
        assert_eq!(render_labels(&label_key(&[]), None), "");
        assert_eq!(
            render_labels(&key, Some(("le", "+Inf"))),
            "{a=\"1\",b=\"2\",le=\"+Inf\"}"
        );
    }
}
