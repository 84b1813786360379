//! Log-bucketed latency histograms.

/// Number of power-of-two latency buckets. Bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds (bucket 0 also absorbs 0 ns), so the top
/// bucket starts at `2^47` ns ≈ 39 hours — far beyond any query stage.
pub const HISTOGRAM_BUCKETS: usize = 48;

/// A fixed-size, log₂-bucketed latency histogram.
///
/// Recording is two adds and a `leading_zeros`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    count: u64,
    sum_ns: u64,
    max_ns: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            count: 0,
            sum_ns: 0,
            max_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

fn bucket_index(ns: u64) -> usize {
    if ns == 0 {
        0
    } else {
        ((63 - ns.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Record one sample, in nanoseconds.
    pub fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_index(ns)] += 1;
    }

    /// Record one sample from a [`std::time::Duration`].
    pub fn record(&mut self, elapsed: std::time::Duration) {
        self.record_ns(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// Largest recorded sample in nanoseconds.
    pub fn max_ns(&self) -> u64 {
        self.max_ns
    }

    /// Mean sample in nanoseconds, or 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Upper bound (exclusive bucket edge) of the bucket containing the
    /// `q`-quantile, or `None` when the histogram is empty. `q` is clamped
    /// to `[0, 1]`. Resolution is one octave — good enough to spot a
    /// regression, cheap enough to keep on the hot path.
    pub fn quantile_upper_bound_ns(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(if i + 1 >= 64 { u64::MAX } else { 1u64 << (i + 1) });
            }
        }
        Some(u64::MAX)
    }

    /// A compact named snapshot (non-empty buckets only) for embedding in a
    /// [`QueryTrace`](crate::QueryTrace) and the wire format.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            count: self.count,
            sum_ns: self.sum_ns,
            max_ns: self.max_ns,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| (i as u32, c))
                .collect(),
        }
    }
}

/// A named, sparse histogram snapshot: `(log₂ lower-bound exponent, count)`
/// pairs in ascending exponent order. This is the form that rides on
/// [`QueryTrace`](crate::QueryTrace) and round-trips through `core::wire`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name, e.g. `"streaming_retrain_ns"`.
    pub name: String,
    /// Total recorded samples.
    pub count: u64,
    /// Sum of samples in nanoseconds.
    pub sum_ns: u64,
    /// Largest sample in nanoseconds.
    pub max_ns: u64,
    /// Non-empty buckets as `(exponent, count)`; bucket covers
    /// `[2^exponent, 2^(exponent+1))` ns.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean sample in nanoseconds, or 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        self.sum_ns.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 1);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(1023), 9);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn quantiles_report_bucket_upper_edges() {
        let mut h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record_ns(100); // bucket 6: [64, 128)
        }
        h.record_ns(1 << 20); // bucket 20
        assert_eq!(h.quantile_upper_bound_ns(0.5), Some(128));
        assert_eq!(h.quantile_upper_bound_ns(0.99), Some(128));
        assert_eq!(h.quantile_upper_bound_ns(1.0), Some(1 << 21));
        assert_eq!(LatencyHistogram::new().quantile_upper_bound_ns(0.5), None);
    }

    #[test]
    fn snapshot_mean_matches_histogram() {
        let mut h = LatencyHistogram::new();
        h.record_ns(100);
        h.record_ns(300);
        assert_eq!(h.mean_ns(), 200);
        assert_eq!(h.snapshot("x").mean_ns(), 200);
        // The snapshot keeps the count, sum, max and only non-empty buckets.
        let mut h = LatencyHistogram::new();
        for ns in [10, 1_000, 10, 1_000_000] {
            h.record_ns(ns);
        }
        assert_eq!(
            (h.count(), h.sum_ns(), h.max_ns()),
            (4, 1_001_020, 1_000_000)
        );
        let snap = h.snapshot("t");
        assert_eq!(
            (snap.count, snap.sum_ns, snap.max_ns),
            (4, 1_001_020, 1_000_000)
        );
        assert_eq!(snap.buckets, vec![(3, 2), (9, 1), (19, 1)]);
    }
}
