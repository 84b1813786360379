//! Classic uniform reservoir sampling (Vitter's Algorithm R).
//!
//! This is the non-adaptive baseline compared against the ADR in Figure 5:
//! it converges to a uniform sample over the *entire* history of the stream,
//! so it cannot track distribution shifts.

use crate::StreamSampler;
use mb_stats::rand_ext::SplitMix64;

/// Uniform reservoir sampler of fixed capacity.
#[derive(Debug, Clone)]
pub struct UniformReservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
    rng: SplitMix64,
}

impl<T> UniformReservoir<T> {
    /// Create a reservoir holding at most `capacity` items, with a seed for
    /// reproducible sampling decisions.
    pub fn new(capacity: usize, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        UniformReservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity),
            rng: SplitMix64::new(seed),
        }
    }
}

impl<T> StreamSampler<T> for UniformReservoir<T> {
    fn observe_weighted(&mut self, item: T, _weight: f64) {
        // Uniform reservoirs ignore weights: every observation counts once.
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
            return;
        }
        // Keep each observed item with probability capacity / seen.
        let j = (self.rng.next_u64() % self.seen) as usize;
        if j < self.capacity {
            self.items[j] = item;
        }
    }

    fn decay(&mut self) {
        // Uniform sampling has no decay; this is intentionally a no-op so the
        // baseline can be driven by the same harness as the ADR.
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

    #[test]
    fn fills_up_to_capacity_then_stays_bounded() {
        let mut r = UniformReservoir::new(10, 1);
        for i in 0..5 {
            r.observe(i);
        }
        assert_eq!(r.len(), 5);
        for i in 5..1000 {
            r.observe(i);
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.seen, 1000);
    }

    #[test]
    fn sample_is_subset_of_stream() {
        let mut r = UniformReservoir::new(20, 7);
        for i in 0..500u32 {
            r.observe(i);
        }
        for &x in r.sample() {
            assert!(x < 500);
        }
    }

    #[test]
    fn is_approximately_uniform() {
        // Insert 0..1000 into many independent reservoirs and check the mean
        // of retained values is near the stream mean (≈ 499.5): a uniform
        // sample has no recency bias.
        let mut total = 0.0;
        let mut count = 0usize;
        for seed in 0..200 {
            let mut r = UniformReservoir::new(10, seed);
            for i in 0..1000 {
                r.observe(i as f64);
            }
            total += r.sample().iter().sum::<f64>();
            count += r.len();
        }
        let mean = total / count as f64;
        assert!((mean - 499.5).abs() < 30.0, "mean was {mean}");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = UniformReservoir::<u32>::new(0, 1);
    }

    #[test]
    fn decay_is_noop() {
        let mut r = UniformReservoir::new(5, 3);
        for i in 0..5 {
            r.observe(i);
        }
        let before = r.sample().to_vec();
        r.decay();
        assert_eq!(r.sample(), &before[..]);
    }

    proptest! {
        #[test]
        fn never_exceeds_capacity(capacity in 1usize..50, n in 0usize..2000, seed in 0u64..100) {
            let mut r = UniformReservoir::new(capacity, seed);
            for i in 0..n {
                r.observe(i);
            }
            prop_assert!(r.len() <= capacity);
            prop_assert_eq!(r.len(), n.min(capacity));
        }
    }
}
