//! Process-wide instrument registry and text exposition.
//!
//! Registration (name → `Arc` handle) is the cold path and sits behind
//! plain mutexes; every hot path holds a cached `Arc` (see the
//! `counter!`-family macros in the crate root). Labels are embedded in the
//! registered name in Prometheus text form — `server_queue_depth{svc="0"}`
//! — so exposition is a sort-and-print with no label model to maintain.

use crate::histogram::Histogram;
use crate::metrics::{Counter, FloatGauge, Gauge};
use crate::trace::TraceRing;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock};

/// Default trace-ring capacity (records, each `Copy` and ~100 bytes).
pub const TRACE_CAPACITY: usize = 4096;

/// The process-wide instrument registry.
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    float_gauges: Mutex<BTreeMap<String, Arc<FloatGauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    trace: TraceRing,
}

/// The global registry (created on first use).
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::new)
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            counters: Mutex::new(BTreeMap::new()),
            gauges: Mutex::new(BTreeMap::new()),
            float_gauges: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            trace: TraceRing::new(TRACE_CAPACITY),
        }
    }

    /// Gets or registers a counter. Cold path — cache the handle.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Gets or registers a gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Gets or registers a float gauge.
    pub fn float_gauge(&self, name: &str) -> Arc<FloatGauge> {
        let mut map = self.float_gauges.lock().unwrap();
        Arc::clone(map.entry(name.to_string()).or_default())
    }

    /// Gets or registers a histogram.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap();
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// The per-query trace ring.
    pub fn trace(&self) -> &TraceRing {
        &self.trace
    }

    /// Prometheus-style text exposition: one `name{label="v"} value` line
    /// per instrument, sorted by name. Histograms expand to
    /// `_count`/`_sum_ns`/`_p50_ns`/`_p95_ns`/`_p99_ns`/`_max_ns` series
    /// over their current window (suffixes are spliced before any `{`).
    pub fn expose(&self) -> String {
        let mut lines: Vec<String> = Vec::new();
        for (name, c) in self.counters.lock().unwrap().iter() {
            lines.push(format!("{name} {}", c.get()));
        }
        for (name, g) in self.gauges.lock().unwrap().iter() {
            lines.push(format!("{name} {}", g.get()));
        }
        for (name, g) in self.float_gauges.lock().unwrap().iter() {
            lines.push(format!("{name} {}", g.get()));
        }
        for (name, h) in self.histograms.lock().unwrap().iter() {
            let snap = h.snapshot();
            for (suffix, value) in [
                ("_count", snap.count),
                ("_sum_ns", snap.sum),
                ("_p50_ns", snap.percentile(0.50)),
                ("_p95_ns", snap.percentile(0.95)),
                ("_p99_ns", snap.percentile(0.99)),
                ("_max_ns", snap.max),
            ] {
                lines.push(format!("{} {value}", splice_suffix(name, suffix)));
            }
        }
        lines.sort();
        let mut out = String::with_capacity(lines.len() * 32);
        for line in lines {
            let _ = writeln!(out, "{line}");
        }
        out
    }
}

/// `server_latency{svc="0"}` + `_p50_ns` → `server_latency_p50_ns{svc="0"}`.
fn splice_suffix(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(brace) => format!("{}{suffix}{}", &name[..brace], &name[brace..]),
        None => format!("{name}{suffix}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_instrument() {
        let r = Registry::new();
        r.counter("x_total").add(3);
        r.counter("x_total").add(4);
        assert_eq!(r.counter("x_total").get(), 7);
        r.gauge("g").set(-2);
        assert_eq!(r.gauge("g").get(), -2);
        r.float_gauge("f").set(1.5);
        assert_eq!(r.float_gauge("f").get(), 1.5);
        r.histogram("h").record(10);
        assert_eq!(r.histogram("h").snapshot().count, 1);
    }

    #[test]
    fn exposition_is_sorted_text_with_labels() {
        let r = Registry::new();
        r.counter("b_total{svc=\"1\"}").add(2);
        r.counter("a_total").inc();
        r.gauge("queue_depth{svc=\"1\"}").set(5);
        r.histogram("lat{svc=\"1\"}").record(100);
        let text = r.expose();
        let lines: Vec<&str> = text.lines().collect();
        let mut sorted = lines.clone();
        sorted.sort();
        assert_eq!(lines, sorted, "exposition must be sorted");
        assert!(text.contains("a_total 1\n"));
        assert!(text.contains("b_total{svc=\"1\"} 2\n"));
        assert!(text.contains("queue_depth{svc=\"1\"} 5\n"));
        assert!(text.contains("lat_count{svc=\"1\"} 1\n"));
        assert!(text.contains("lat_max_ns{svc=\"1\"} 100\n"));
        assert!(text.contains("lat_p50_ns{svc=\"1\"} 100\n"));
    }

    #[test]
    fn global_registry_is_a_singleton() {
        registry().counter("registry_singleton_probe_total").inc();
        assert!(registry()
            .expose()
            .contains("registry_singleton_probe_total"));
    }

    #[test]
    fn trace_ring_reachable_from_registry() {
        let r = Registry::new();
        r.trace().record(crate::QueryTrace {
            seq: 0,
            attr: 9,
            admit: crate::AdmitOutcome::Queued,
            queue_wait_ns: 1,
            batch_len: 1,
            coalesce: crate::CoalesceKind::Solo,
            route: crate::TraceRoute::Locked,
            plan_version: 0,
            predicted_ns: 0,
            actual_ns: 0,
            crack_values: 0,
        });
        assert_eq!(r.trace().snapshot().len(), 1);
        assert_eq!(r.trace().snapshot()[0].attr, 9);
    }
}
