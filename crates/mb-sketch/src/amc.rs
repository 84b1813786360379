#![warn(clippy::unwrap_used, clippy::expect_used)]
//! The Amortized Maintenance Counter (AMC) — Algorithm 3 of the paper.
//!
//! The AMC is a heavy-hitters sketch sitting at the opposite end of the
//! design space from SpaceSaving: it spends more memory to get **constant
//! time** updates (one hash-map operation per observation) and amortizes the
//! work of keeping the sketch small across an entire maintenance period.
//!
//! * `observe(i, c)`: if `i` is tracked, add `c` to its count; otherwise
//!   start tracking it at `w_i + c`, where `w_i` is the largest count
//!   discarded during the previous maintenance (so an untracked item's count
//!   can never be *under*-estimated by more than it could have accumulated
//!   unseen).
//! * `maintain()`: prune the map down to its stable size (the `1/ε` largest
//!   entries) and remember the largest discarded count as the new `w_i`.
//! * `decay(r)`: multiply every tracked count by `r` and run maintenance —
//!   this is the exponentially damped mode used by MDP's streaming
//!   explanation operator.
//!
//! With a stable size of `1/ε`, the estimate of any item's count is within
//! `εN` of its true (decayed) count, as in SpaceSaving, but the sketch may
//! temporarily grow between maintenance calls (bounded by the maintenance
//! period).

use crate::key_order::KeyOrderMap;
use crate::{FixedState, HeavyHitterSketch};
use std::hash::Hash;

/// Maintenance policy for the AMC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MaintenancePolicy {
    /// Run maintenance automatically after every `n` observations.
    EveryNObservations(u64),
    /// Run maintenance automatically when the sketch grows to `max` items.
    SizeBound(usize),
    /// The caller invokes `AmcSketch::maintain` explicitly (e.g. on a
    /// real-time timer), mirroring the ADR's manual decay policy.
    Manual,
}

/// The Amortized Maintenance Counter sketch.
#[derive(Debug, Clone)]
pub struct AmcSketch<T: Eq + Hash + Clone> {
    stable_size: usize,
    policy: MaintenancePolicy,
    counts: KeyOrderMap<T, f64, FixedState>,
    /// Largest count discarded at the previous maintenance (the `w_i` of
    /// Algorithm 3); new items are credited this much on first observation.
    discarded_weight: f64,
    observations_since_maintenance: u64,
    total_weight: f64,
}

impl<T: Eq + Hash + Clone> AmcSketch<T> {
    /// Create an AMC with the given stable size and an observation-count
    /// maintenance period (the configuration used in Figure 6).
    pub fn new(stable_size: usize, maintenance_period: u64) -> Self {
        Self::with_policy(
            stable_size,
            MaintenancePolicy::EveryNObservations(maintenance_period),
        )
    }

    /// Create an AMC with an explicit maintenance policy.
    pub fn with_policy(stable_size: usize, policy: MaintenancePolicy) -> Self {
        assert!(stable_size > 0, "stable size must be positive");
        if let MaintenancePolicy::EveryNObservations(n) = policy {
            assert!(n > 0, "maintenance period must be positive");
        }
        if let MaintenancePolicy::SizeBound(max) = policy {
            assert!(
                max >= stable_size,
                "size bound must be at least the stable size"
            );
        }
        AmcSketch {
            stable_size,
            policy,
            counts: KeyOrderMap::with_capacity_and_hasher(stable_size * 2, FixedState),
            discarded_weight: 0.0,
            observations_since_maintenance: 0,
            total_weight: 0.0,
        }
    }

    /// Prune the sketch down to its stable size, recording the largest
    /// discarded count. O(I log(1/ε)) via partial selection, amortized across
    /// the maintenance period.
    pub(crate) fn maintain(&mut self) {
        self.observations_since_maintenance = 0;
        if self.counts.len() <= self.stable_size {
            return;
        }
        // Select the stable_size largest counts; everything else is dropped.
        #[expect(
            clippy::disallowed_methods,
            reason = "re-sorted below, stably, so which equal-count entry survives the prune is \
                      drain order; the εN bound covers accuracy, not determinism, so the map \
                      hashes with fixed keys (FixedState) and that order is the same in every \
                      session and process"
        )]
        let mut entries: Vec<(T, f64)> = self.counts.drain_unordered().collect();
        crate::sort_entries_desc(&mut entries);
        let mut max_discarded: f64 = 0.0;
        for (idx, (key, count)) in entries.into_iter().enumerate() {
            if idx < self.stable_size {
                self.counts.insert(key, count);
            } else {
                max_discarded = max_discarded.max(count);
            }
        }
        self.discarded_weight = max_discarded;
    }

    /// Run maintenance if the configured policy says it is due.
    fn maybe_maintain(&mut self) {
        match self.policy {
            MaintenancePolicy::EveryNObservations(n) => {
                if self.observations_since_maintenance >= n {
                    self.maintain();
                }
            }
            MaintenancePolicy::SizeBound(max) => {
                if self.counts.len() > max {
                    self.maintain();
                }
            }
            MaintenancePolicy::Manual => {}
        }
    }
}

impl<T: Eq + Hash + Clone> HeavyHitterSketch<T> for AmcSketch<T> {
    fn observe_count(&mut self, item: T, count: f64) {
        assert!(count >= 0.0, "counts must be non-negative");
        self.total_weight += count;
        self.observations_since_maintenance += 1;
        match self.counts.get_mut(&item) {
            Some(existing) => *existing += count,
            None => {
                // New (or previously pruned) item: credit the discarded
                // weight so its count is never under-estimated by more than
                // what it could have accumulated while untracked.
                self.counts.insert(item, self.discarded_weight + count);
            }
        }
        self.maybe_maintain();
    }

    fn estimate(&self, item: &T) -> f64 {
        self.counts.get(item).copied().unwrap_or(0.0)
    }

    fn decay(&mut self, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "decay factor must be in [0, 1]"
        );
        #[expect(
            clippy::disallowed_methods,
            reason = "order-insensitive scaling: each count shrinks independently"
        )]
        for count in self.counts.values_mut_unordered() {
            *count *= factor;
        }
        self.discarded_weight *= factor;
        self.total_weight *= factor;
        // Algorithm 3: DECAY calls MAINTAIN.
        self.maintain();
    }

    #[expect(
        clippy::disallowed_methods,
        reason = "entries() is unordered by contract; report-bound consumers sort via \
                  sort_entries_desc"
    )]
    fn entries(&self) -> Vec<(T, f64)> {
        self.counts
            .iter_unordered()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    fn total_weight(&self) -> f64 {
        self.total_weight
    }

    fn tracked_items(&self) -> usize {
        self.counts.len()
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test code: exact counts to check the sketch against"
)]
mod tests {
    use super::*;
    use mb_stats::rand_ext::{SplitMix64, Zipf};
    use proptest::prelude::*;
    use std::collections::HashMap;

    #[test]
    fn exact_when_under_stable_size() {
        let mut amc = AmcSketch::new(100, 1000);
        for i in 0..50u32 {
            for _ in 0..=i {
                amc.observe(i);
            }
        }
        for i in 0..50u32 {
            assert_eq!(amc.estimate(&i), (i + 1) as f64);
        }
        assert_eq!(amc.estimate(&999), 0.0);
    }

    #[test]
    fn maintenance_prunes_to_stable_size() {
        let mut amc = AmcSketch::with_policy(10, MaintenancePolicy::Manual);
        for i in 0..100u32 {
            amc.observe_count(i, (i + 1) as f64);
        }
        assert_eq!(amc.tracked_items(), 100);
        amc.maintain();
        assert_eq!(amc.tracked_items(), 10);
        // The survivors are the 10 largest counts (91..=100).
        for i in 90..100u32 {
            assert!(amc.estimate(&i) > 0.0);
        }
        for i in 0..80u32 {
            assert_eq!(amc.estimate(&i), 0.0);
        }
        // The discarded weight is the largest pruned count (item 89 -> 90).
        assert_eq!(amc.discarded_weight, 90.0);
    }

    #[test]
    fn new_items_credited_discarded_weight() {
        let mut amc = AmcSketch::with_policy(2, MaintenancePolicy::Manual);
        amc.observe_count("a", 100.0);
        amc.observe_count("b", 50.0);
        amc.observe_count("c", 30.0);
        amc.maintain();
        assert_eq!(amc.discarded_weight, 30.0);
        // A new item is credited w_i + c, overestimating rather than
        // underestimating its true count.
        amc.observe_count("d", 1.0);
        assert_eq!(amc.estimate(&"d"), 31.0);
    }

    #[test]
    fn never_underestimates_overestimates_bounded() {
        // Error bound check against exact counts on a skewed stream: for any
        // item, exact <= estimate <= exact + max_discarded_so_far.
        let mut rng = SplitMix64::new(9);
        let zipf = Zipf::new(5000, 1.1);
        let mut amc = AmcSketch::new(100, 1_000);
        let mut exact: HashMap<usize, f64> = HashMap::new();
        let mut max_discarded: f64 = 0.0;
        for _ in 0..200_000 {
            let item = zipf.sample(&mut rng);
            amc.observe(item);
            *exact.entry(item).or_insert(0.0) += 1.0;
            max_discarded = max_discarded.max(amc.discarded_weight);
        }
        for (item, true_count) in &exact {
            let est = amc.estimate(item);
            if est > 0.0 {
                assert!(
                    est + 1e-9 >= *true_count,
                    "item {item}: estimate {est} under-estimates {true_count}"
                );
                assert!(
                    est <= *true_count + max_discarded + 1e-9,
                    "item {item}: estimate {est} exceeds {true_count} + {max_discarded}"
                );
            }
        }
        // Heavy hitters (top Zipf items) are tracked and accurately counted.
        let top = amc.estimate(&0);
        assert!(top > 0.0);
        assert!((top - exact[&0]).abs() / exact[&0] < 0.05);
    }

    #[test]
    fn decay_halves_counts_and_total() {
        let mut amc = AmcSketch::new(10, 1_000_000);
        for _ in 0..100 {
            amc.observe("x");
        }
        amc.decay(0.5);
        assert!((amc.estimate(&"x") - 50.0).abs() < 1e-9);
        assert!((amc.total_weight() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn size_bound_policy_caps_growth() {
        let mut amc = AmcSketch::with_policy(10, MaintenancePolicy::SizeBound(50));
        for i in 0..10_000u32 {
            amc.observe(i);
        }
        assert!(amc.tracked_items() <= 51);
    }

    #[test]
    fn observation_period_policy_triggers() {
        let mut amc = AmcSketch::new(5, 100);
        for i in 0..100u32 {
            amc.observe(i);
        }
        // Maintenance ran at observation 100, so at most stable size remain
        // (plus anything inserted after, but we stopped exactly at 100).
        assert!(amc.tracked_items() <= 5);
    }

    #[test]
    fn items_above_returns_heavy_hitters_only() {
        let mut amc = AmcSketch::new(100, 10_000);
        for _ in 0..500 {
            amc.observe("heavy".to_string());
        }
        for i in 0..50u32 {
            amc.observe(format!("light{i}"));
        }
        let hh = amc.items_above(100.0);
        assert_eq!(hh.len(), 1);
        assert_eq!(hh[0].0, "heavy");
    }

    #[test]
    #[should_panic(expected = "stable size must be positive")]
    fn zero_stable_size_panics() {
        let _ = AmcSketch::<u32>::new(0, 10);
    }

    #[test]
    #[should_panic(expected = "decay factor must be in [0, 1]")]
    fn invalid_decay_factor_panics() {
        let mut amc = AmcSketch::<u32>::new(10, 10);
        amc.observe(1);
        amc.decay(1.5);
    }

    proptest! {
        #[test]
        fn estimates_never_underestimate(
            items in prop::collection::vec(0u32..50, 1..2000),
            stable in 2usize..20,
            period in 10u64..500,
        ) {
            let mut amc = AmcSketch::new(stable, period);
            let mut exact: HashMap<u32, f64> = HashMap::new();
            for &item in &items {
                amc.observe(item);
                *exact.entry(item).or_insert(0.0) += 1.0;
            }
            for (item, true_count) in &exact {
                let est = amc.estimate(item);
                if est > 0.0 {
                    prop_assert!(est + 1e-9 >= *true_count);
                }
            }
            prop_assert!((amc.total_weight() - items.len() as f64).abs() < 1e-6);
        }
    }
}
