//! # mpise-obs — unified telemetry for the mpise workspace
//!
//! The paper's whole evaluation (§4, Tables 3–4) is an exercise in
//! *attributing* cycles: which kernel, which loop, which pipeline
//! stall. This crate is the one place that attribution lives for the
//! runtime crates (`sim`, `fp`, `csidh`, `engine`, `bench`):
//!
//! * **Spans** ([`span()`], [`SpanTree`]) — hierarchical, per-thread
//!   regions with wall-time plus simulated cycle/instret deltas
//!   charged by the simulator-backed layers ([`add_sim_cost`]), so a
//!   CSIDH action decomposes into its sample / cofactor / isogeny /
//!   normalize phases exactly like the paper's cost model;
//! * **Metrics** ([`metrics::Registry`]) — counters, gauges and
//!   fixed-bucket histograms with Prometheus labels, exported as
//!   Prometheus text ([`metrics::Registry::render_prometheus`]) or as
//!   the versioned [`Snapshot`] JSON (`mpise-obs/v1`). There is no
//!   process-wide registry: each owner builds one (the engine keeps
//!   one per instance and records into it directly), and histograms
//!   answer bucket-resolution quantiles
//!   ([`metrics::Histogram::quantile`]);
//! * **Provenance** ([`provenance::Provenance`]) — git commit, host
//!   and timestamp stamped into every artifact;
//! * **JSON** ([`json`]) — the [`Value`] every artifact writer builds,
//!   its strict parser and the per-schema key table;
//! * **Validation** ([`prom::validate`], [`json::check_artifact`], the
//!   `obscheck` binary) — the CI gate over the exported Prometheus
//!   text and every JSON artifact.
//!
//! The whole layer is **disabled by default**: every instrumentation
//! point is gated on one relaxed atomic ([`enabled`]), so the
//! instrumented hot paths cost one predictable branch when telemetry
//! is off. Binaries opt in with [`set_enabled`].
//!
//! The crate depends on `std` only — it sits below every runtime
//! crate in the workspace graph.

pub mod json;
pub mod metrics;
pub mod prom;
mod provenance;
pub mod span;
pub mod time;

pub use json::Value;
pub use metrics::Registry;
pub use provenance::Provenance;
pub use span::{add_sim_cost, span, take_spans, SpanGuard, SpanNode, SpanTree};

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether telemetry collection is on (off by default).
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry collection on or off, process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// FNV-1a 64-bit digest (no external hashing crates): the loadgen
/// payload digest and the kernel-word pins.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A complete `mpise-obs/v1` snapshot: provenance + metrics + span
/// forest, serialized by [`Snapshot::to_json`]. The exporter builds it
/// from its own registry and span forest (`loadgen --obs-out` uses the
/// loaded pass's engine registry and the merged worker spans).
#[derive(Debug)]
pub struct Snapshot {
    /// Run provenance.
    pub provenance: Provenance,
    /// Metrics array (from [`metrics::Registry::metrics_json`]).
    pub metrics: Value,
    /// The span forest.
    pub spans: SpanTree,
}

impl Snapshot {
    /// The versioned snapshot document.
    pub fn to_json(&self) -> Value {
        crate::object! {
            "schema": "mpise-obs/v1", "provenance": self.provenance.json(),
            "metrics": self.metrics.clone(), "spans": self.spans.to_json(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_versioned_and_shaped() {
        let snap = Snapshot {
            provenance: Provenance {
                git_commit: "deadbeef".to_owned(),
                host: "ci".to_owned(),
                timestamp: "2026-08-07T00:00:00Z".to_owned(),
                unix_secs: 1,
            },
            metrics: Value::Array(vec![]),
            spans: SpanTree::default(),
        };
        let json = json::parse(&snap.to_json().to_string()).expect("valid JSON");
        assert_eq!(json["schema"], Value::from("mpise-obs/v1"));
        assert_eq!(json["provenance"]["git_commit"], Value::from("deadbeef"));
        assert_eq!(json["metrics"], Value::Array(vec![]));
        assert_eq!(json["spans"], Value::Object(vec![]));
        assert_eq!(json::check_artifact(&json), Ok("mpise-obs/v1"));
    }

    #[test]
    fn fnv_digest_vectors() {
        assert_eq!(fnv1a64(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xAF63_DC4C_8601_EC8C);
    }
}
