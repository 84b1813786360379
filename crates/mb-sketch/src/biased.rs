//! Per-tuple exponentially biased reservoir sampling (Aggarwal 2006).
//!
//! This is the "Every" baseline in Figure 5: the probability that an old item
//! survives decays with every arriving tuple, so the sample skews toward the
//! most recent points *by tuple count*. Under variable arrival rates this is
//! exactly the weakness the ADR fixes — a burst of tuples flushes history out
//! of the sample even if the burst lasted only a few seconds.

use crate::StreamSampler;
use mb_stats::rand_ext::SplitMix64;

/// Exponentially biased reservoir with per-tuple decay.
///
/// Implementation follows Aggarwal's biased reservoir scheme: with bias rate
/// `lambda`, the effective sample concentrates on roughly the last `1/lambda`
/// tuples. Each arrival is inserted with probability proportional to the
/// (bounded) fill fraction, replacing a random resident.
#[derive(Debug, Clone)]
pub struct PerTupleBiasedReservoir<T> {
    capacity: usize,
    lambda: f64,
    items: Vec<T>,
    rng: SplitMix64,
}

impl<T> PerTupleBiasedReservoir<T> {
    /// Create a biased reservoir of the given capacity and per-tuple bias
    /// rate `lambda ∈ (0, 1]`.
    pub fn new(capacity: usize, lambda: f64, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        assert!(
            lambda > 0.0 && lambda <= 1.0,
            "bias rate must be in (0, 1]"
        );
        PerTupleBiasedReservoir {
            capacity,
            lambda,
            items: Vec::with_capacity(capacity),
            rng: SplitMix64::new(seed),
        }
    }
}

impl<T> StreamSampler<T> for PerTupleBiasedReservoir<T> {
    fn observe_weighted(&mut self, item: T, _weight: f64) {
        // Aggarwal's scheme with p_in = capacity * lambda capped at 1: when
        // the reservoir represents a window of ~1/lambda tuples, each new
        // tuple replaces a uniformly random resident with this probability,
        // yielding an exponentially recency-biased sample per tuple.
        if self.items.len() < self.capacity {
            self.items.push(item);
            return;
        }
        let p_in = (self.capacity as f64 * self.lambda).min(1.0);
        if self.rng.next_f64() < p_in {
            let victim = self.rng.next_below(self.capacity);
            self.items[victim] = item;
        }
    }

    fn decay(&mut self) {
        // Decay is implicit (per tuple); nothing to do on an explicit call.
    }

    fn sample(&self) -> &[T] {
        &self.items
    }

    fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    #[test]
    fn stays_bounded() {
        let mut r = PerTupleBiasedReservoir::new(10, 0.01, 1);
        for i in 0..1000 {
            r.observe(i);
        }
        assert_eq!(r.len(), 10);
    }

    #[test]
    fn is_recency_biased() {
        // Stream 0..10_000; with lambda = 0.01 and capacity 100 the sample
        // should be dominated by recent values (mean well above the stream
        // midpoint), unlike a uniform reservoir.
        let mut r = PerTupleBiasedReservoir::new(100, 0.01, 3);
        for i in 0..10_000 {
            r.observe(i as f64);
        }
        let m = mean(r.sample());
        assert!(m > 7_000.0, "mean was {m}");
    }

    #[test]
    fn adapts_to_shift_quickly() {
        let mut r = PerTupleBiasedReservoir::new(100, 0.01, 5);
        for _ in 0..10_000 {
            r.observe(0.0);
        }
        for _ in 0..2_000 {
            r.observe(100.0);
        }
        assert!(mean(r.sample()) > 80.0);
    }

    #[test]
    #[should_panic(expected = "bias rate must be in (0, 1]")]
    fn rejects_invalid_lambda() {
        let _ = PerTupleBiasedReservoir::<f64>::new(10, 0.0, 1);
    }

    proptest! {
        #[test]
        fn capacity_invariant(capacity in 1usize..64, n in 0usize..2000, seed in 0u64..50) {
            let mut r = PerTupleBiasedReservoir::new(capacity, 0.01, seed);
            for i in 0..n {
                r.observe(i);
            }
            prop_assert!(r.len() <= capacity);
            prop_assert_eq!(r.len(), n.min(capacity));
        }
    }
}
