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
    pub(crate) fn new() -> Self {
        LatencyHistogram::default()
    }

    /// Record one sample, in nanoseconds.
    pub(crate) fn record_ns(&mut self, ns: u64) {
        self.count += 1;
        self.sum_ns = self.sum_ns.saturating_add(ns);
        self.max_ns = self.max_ns.max(ns);
        self.buckets[bucket_index(ns)] += 1;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples in nanoseconds (saturating).
    pub fn sum_ns(&self) -> u64 {
        self.sum_ns
    }

    /// A compact named snapshot (non-empty buckets only) for embedding in a
    /// [`QueryTrace`](crate::QueryTrace) and the wire format.
    pub(crate) fn snapshot(&self, name: &str) -> HistogramSnapshot {
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
    fn snapshot_mean_matches_histogram() {
        // The snapshot keeps the count, sum, max and only non-empty buckets.
        let mut h = LatencyHistogram::new();
        for ns in [10, 1_000, 10, 1_000_000] {
            h.record_ns(ns);
        }
        assert_eq!((h.count(), h.sum_ns(), h.max_ns), (4, 1_001_020, 1_000_000));
        let snap = h.snapshot("t");
        assert_eq!(
            (snap.count, snap.sum_ns, snap.max_ns),
            (4, 1_001_020, 1_000_000)
        );
        assert_eq!(snap.buckets, vec![(3, 2), (9, 1), (19, 1)]);
    }
}
