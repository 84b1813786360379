//! The Adaptable Damped Reservoir (ADR) — Algorithm 1 of the paper.
//!
//! The ADR is an exponentially damped reservoir sampler that decays over
//! *arbitrary* windows instead of per tuple. It keeps a running weight `cw`
//! of everything inserted so far; each new item is admitted with probability
//! `k / cw` (evicting a random resident), and a decay step simply multiplies
//! `cw` by `(1 − α)`. Because decay is decoupled from insertion, the caller
//! chooses the decay policy — per real-time period, per batch of tuples, or
//! anything else — which is what makes the sampler resilient to arrival-rate
//! spikes (Figure 5): a burst of tuples does not flush the reservoir the way
//! per-tuple damped samplers do.

use crate::StreamSampler;
use mb_stats::rand_ext::SplitMix64;

/// When to trigger an automatic decay step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecayPolicy {
    /// The caller invokes [`AdaptableDampedReservoir::decay`] manually (e.g.
    /// from a real-time timer). This is the paper's "time-based decay".
    Manual,
    /// Decay automatically after every `n` observed items ("batch-based
    /// decay" in the paper / Appendix A).
    EveryNItems(u64),
}

/// The Adaptable Damped Reservoir (Algorithm 1).
#[derive(Debug, Clone)]
pub struct AdaptableDampedReservoir<T> {
    capacity: usize,
    decay_rate: f64,
    policy: DecayPolicy,
    current_weight: f64,
    items: Vec<T>,
    items_since_decay: u64,
    rng: SplitMix64,
}

impl<T> AdaptableDampedReservoir<T> {
    /// Create an ADR with reservoir size `capacity` and decay rate
    /// `decay_rate ∈ [0, 1)`; each decay step multiplies the running weight
    /// by `1 − decay_rate`.
    pub fn new(capacity: usize, decay_rate: f64, policy: DecayPolicy, seed: u64) -> Self {
        assert!(capacity > 0, "reservoir capacity must be positive");
        assert!(
            (0.0..1.0).contains(&decay_rate),
            "decay rate must be in [0, 1)"
        );
        if let DecayPolicy::EveryNItems(n) = policy {
            assert!(n > 0, "batch decay period must be positive");
        }
        AdaptableDampedReservoir {
            capacity,
            decay_rate,
            policy,
            current_weight: 0.0,
            items: Vec::with_capacity(capacity),
            items_since_decay: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Clone the current sample out of the reservoir.
    pub(crate) fn snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.items.clone()
    }
}

impl<T> StreamSampler<T> for AdaptableDampedReservoir<T> {
    fn observe_weighted(&mut self, item: T, weight: f64) {
        assert!(weight > 0.0, "observation weight must be positive");
        self.current_weight += weight;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else {
            // Insert with probability k / cw, evicting a random resident.
            // "Overweight" items (k/cw > 1) are always retained — the min()
            // below keeps the probability well-formed in that regime.
            let p = (self.capacity as f64 / self.current_weight).min(1.0);
            if self.rng.next_f64() < p {
                let victim = self.rng.next_below(self.capacity);
                self.items[victim] = item;
            }
        }
        if let DecayPolicy::EveryNItems(n) = self.policy {
            self.items_since_decay += 1;
            if self.items_since_decay >= n {
                self.items_since_decay = 0;
                self.decay();
            }
        }
    }

    fn decay(&mut self) {
        self.current_weight *= 1.0 - self.decay_rate;
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
    fn fills_then_stays_bounded() {
        let mut adr = AdaptableDampedReservoir::new(50, 0.01, DecayPolicy::Manual, 1);
        for i in 0..1000 {
            adr.observe(i);
        }
        assert_eq!(adr.len(), 50);
    }

    #[test]
    fn decay_reduces_running_weight() {
        let mut adr = AdaptableDampedReservoir::new(10, 0.5, DecayPolicy::Manual, 1);
        for i in 0..100 {
            adr.observe(i);
        }
        let before = adr.current_weight;
        adr.decay();
        assert!((adr.current_weight - before * 0.5).abs() < 1e-9);
    }

    #[test]
    fn batch_policy_decays_automatically() {
        let mut manual = AdaptableDampedReservoir::new(10, 0.2, DecayPolicy::Manual, 1);
        let mut auto = AdaptableDampedReservoir::new(10, 0.2, DecayPolicy::EveryNItems(100), 1);
        for i in 0..1000 {
            manual.observe(i);
            auto.observe(i);
        }
        // The automatic policy has decayed 10 times; the manual one never.
        assert!(auto.current_weight < manual.current_weight);
    }

    #[test]
    fn adapts_to_distribution_shift_while_uniform_does_not() {
        // Core adaptivity property behind Figure 5: after a shift from values
        // ~0 to values ~100 with periodic decay, the ADR's reservoir mean
        // tracks the new regime much faster than a uniform reservoir.
        use crate::reservoir::UniformReservoir;
        let mut adr = AdaptableDampedReservoir::new(100, 0.5, DecayPolicy::EveryNItems(1000), 3);
        let mut uni = UniformReservoir::new(100, 3);
        for _ in 0..20_000 {
            adr.observe(0.0);
            uni.observe(0.0);
        }
        for _ in 0..20_000 {
            adr.observe(100.0);
            uni.observe(100.0);
        }
        let adr_mean = mean(adr.sample());
        let uni_mean = mean(uni.sample());
        assert!(adr_mean > 80.0, "ADR mean was {adr_mean}");
        assert!(uni_mean < 70.0, "uniform mean was {uni_mean}");
    }

    #[test]
    fn resists_arrival_rate_spike_better_than_per_tuple_decay() {
        // Second half of the Figure 5 story: a short 10x burst of noise
        // values should not take over the ADR sample (its decay is per
        // batch/time, not per tuple), while a per-tuple damped sampler
        // absorbs the burst almost completely.
        use crate::biased::PerTupleBiasedReservoir;
        // Steady state: 10k points of value 40, decaying every 1000 points
        // (simulating a time period at the normal arrival rate).
        let mut adr = AdaptableDampedReservoir::new(100, 0.1, DecayPolicy::Manual, 5);
        let mut biased = PerTupleBiasedReservoir::new(100, 0.001, 5);
        for _ in 0..10_000 {
            adr.observe(40.0);
            biased.observe(40.0);
        }
        adr.decay();
        // Burst: 20k noise points arriving within ONE decay period — the ADR
        // decays once (time-based), the per-tuple sampler decays 20k times.
        for _ in 0..20_000 {
            adr.observe(85.0);
            biased.observe(85.0);
        }
        adr.decay();
        let adr_mean = mean(adr.sample());
        let biased_mean = mean(biased.sample());
        assert!(
            biased_mean > 80.0,
            "per-tuple sampler should absorb the burst, mean was {biased_mean}"
        );
        assert!(
            adr_mean < biased_mean,
            "ADR ({adr_mean}) should retain more history than per-tuple ({biased_mean})"
        );
    }

    #[test]
    fn overweight_items_are_retained_under_extreme_decay() {
        // After extreme decay cw can fall below k; subsequent items must
        // still be inserted (probability clamps at 1) without panicking.
        let mut adr = AdaptableDampedReservoir::new(10, 0.99, DecayPolicy::Manual, 7);
        for i in 0..100 {
            adr.observe(i);
        }
        for _ in 0..10 {
            adr.decay();
        }
        assert!(adr.current_weight < 1.0);
        for i in 100..200 {
            adr.observe(i);
        }
        assert_eq!(adr.len(), 10);
        assert!(adr.current_weight > 0.0);
    }

    #[test]
    #[should_panic(expected = "decay rate must be in [0, 1)")]
    fn rejects_invalid_decay_rate() {
        let _ = AdaptableDampedReservoir::<f64>::new(10, 1.5, DecayPolicy::Manual, 1);
    }

    #[test]
    #[should_panic(expected = "observation weight must be positive")]
    fn rejects_nonpositive_weight() {
        let mut adr = AdaptableDampedReservoir::new(10, 0.1, DecayPolicy::Manual, 1);
        adr.observe_weighted(1.0, 0.0);
    }

    #[test]
    fn weighted_observations_accumulate_weight() {
        let mut adr = AdaptableDampedReservoir::new(10, 0.1, DecayPolicy::Manual, 1);
        adr.observe_weighted("a", 5.0);
        adr.observe_weighted("b", 2.5);
        assert!((adr.current_weight - 7.5).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn capacity_invariant_and_weight_positive(
            capacity in 1usize..64,
            n in 1usize..2000,
            decay_rate in 0.0f64..0.99,
            decay_every in 1u64..500,
            seed in 0u64..50,
        ) {
            let mut adr = AdaptableDampedReservoir::new(
                capacity, decay_rate, DecayPolicy::EveryNItems(decay_every), seed);
            for i in 0..n {
                adr.observe(i as f64);
            }
            prop_assert!(adr.len() <= capacity);
            prop_assert_eq!(adr.len(), n.min(capacity));
            prop_assert!(adr.current_weight >= 0.0);
            // Every retained item came from the stream.
            for &x in adr.sample() {
                prop_assert!(x >= 0.0 && x < n as f64);
            }
        }
    }
}
