//! Metric registries: one per query, session or server, written by its
//! owner.

use crate::histogram::{HistogramSnapshot, LatencyHistogram};
use std::collections::BTreeMap;

/// A named bag of counters, gauges, and latency histograms.
///
/// One registry belongs to one owner — a query's [`TraceBuilder`], a
/// streaming session, a server — which records into it with plain
/// non-atomic writes. Work that runs on pool workers hands its counts back
/// with its result, and the owner adds them after the join, so no metric is
/// shared between threads.
///
/// [`TraceBuilder`]: crate::TraceBuilder
///
/// Names are kept in `BTreeMap`s so iteration — and therefore export and
/// wire encoding — is always in sorted order, independent of insertion
/// order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LatencyHistogram>,
}

impl MetricRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricRegistry::default()
    }

    /// Add `delta` to the named monotonic counter.
    pub fn add(&mut self, name: &str, delta: u64) {
        if let Some(slot) = self.counters.get_mut(name) {
            *slot += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// Set the named gauge to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Record a latency sample (nanoseconds) into the named histogram.
    pub fn record_ns(&mut self, name: &str, ns: u64) {
        if let Some(h) = self.histograms.get_mut(name) {
            h.record_ns(ns);
        } else {
            let mut h = LatencyHistogram::new();
            h.record_ns(ns);
            self.histograms.insert(name.to_string(), h);
        }
    }

    /// Record a latency sample from a [`std::time::Duration`].
    pub fn record(&mut self, name: &str, elapsed: std::time::Duration) {
        self.record_ns(name, u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Current value of a counter (0 when never written).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// The named histogram, if any sample was recorded.
    pub fn histogram(&self, name: &str) -> Option<&LatencyHistogram> {
        self.histograms.get(name)
    }

    /// All counters in name order.
    pub fn counter_entries(&self) -> Vec<(String, u64)> {
        self.counters.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    /// All gauges in name order.
    pub fn gauge_entries(&self) -> Vec<(String, f64)> {
        self.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect()
    }

    /// Snapshots of all histograms in name order.
    pub fn histogram_snapshots(&self) -> Vec<HistogramSnapshot> {
        self.histograms.iter().map(|(k, h)| h.snapshot(k)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_and_gauges_keep_the_last_value() {
        let mut r = MetricRegistry::new();
        r.add("tasks", 3);
        r.add("tasks", 2);
        r.add("steals", 1);
        r.set_gauge("staleness", 9.0);
        r.set_gauge("staleness", 2.0);
        assert_eq!(r.counter("tasks"), 5);
        assert_eq!(r.counter("steals"), 1);
        assert_eq!(r.counter("absent"), 0);
        assert_eq!(r.gauge("staleness"), Some(2.0));
        assert_eq!(r.gauge("absent"), None);
    }

    #[test]
    fn sorted_iteration_regardless_of_insertion() {
        let mut r = MetricRegistry::new();
        r.add("zeta", 1);
        r.add("alpha", 1);
        r.record_ns("m2", 5);
        r.record_ns("m1", 5);
        assert_eq!(
            r.counter_entries().iter().map(|(k, _)| k.as_str()).collect::<Vec<_>>(),
            vec!["alpha", "zeta"]
        );
        assert_eq!(
            r.histogram_snapshots().iter().map(|s| s.name.as_str()).collect::<Vec<_>>(),
            vec!["m1", "m2"]
        );
    }
}
