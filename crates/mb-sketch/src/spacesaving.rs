//! SpaceSaving heavy-hitters sketches (Metwally et al.) — the baselines the
//! AMC is compared against in Figure 6.
//!
//! Two variants are provided, matching the paper's "SSL" and "SSH" labels:
//!
//! * [`SpaceSavingList`] — the ordered-list implementation. Exact for
//!   integer counts in the classic formulation; with decayed (non-integer)
//!   counts each update must re-insert into the ordered list, which is why
//!   the paper observes `O(n²)`-ish behaviour under exponential decay.
//! * [`SpaceSavingHash`] — the hash + min-tracking implementation ("heap"
//!   variant): updates cost a hash lookup plus a periodic scan for the
//!   minimum-count entry when an eviction is needed.
//!
//! Both bound the sketch to exactly `1/ε` entries at all times (unlike AMC,
//! which may grow between maintenance calls) and guarantee estimates within
//! `εN` of true counts.

use crate::key_order::KeyOrderMap;
use crate::{FixedState, HeavyHitterSketch};
use std::hash::Hash;

/// Ordered-list SpaceSaving ("SSL" in Figure 6).
#[derive(Debug, Clone)]
pub struct SpaceSavingList<T: Eq + Hash + Clone> {
    capacity: usize,
    /// Entries kept sorted by descending count; the minimum is at the back.
    entries: Vec<(T, f64)>,
    /// Index from item to its position in `entries`.
    index: KeyOrderMap<T, usize>,
    total_weight: f64,
}

impl<T: Eq + Hash + Clone> SpaceSavingList<T> {
    /// Create a sketch tracking at most `capacity` (= 1/ε) items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SpaceSavingList {
            capacity,
            entries: Vec::with_capacity(capacity),
            index: KeyOrderMap::with_capacity_and_hasher(capacity, Default::default()),
            total_weight: 0.0,
        }
    }

    /// Restore descending order for the entry at `pos` after its count grew,
    /// by bubbling it toward the front. This list traversal is the cost the
    /// AMC's amortized maintenance avoids.
    fn bubble_up(&mut self, mut pos: usize) {
        while pos > 0 && self.entries[pos].1 > self.entries[pos - 1].1 {
            self.entries.swap(pos, pos - 1);
            let a = self.entries[pos].0.clone();
            let b = self.entries[pos - 1].0.clone();
            self.index.insert(a, pos);
            self.index.insert(b, pos - 1);
            pos -= 1;
        }
    }
}

impl<T: Eq + Hash + Clone> HeavyHitterSketch<T> for SpaceSavingList<T> {
    fn observe_count(&mut self, item: T, count: f64) {
        assert!(count >= 0.0, "counts must be non-negative");
        self.total_weight += count;
        if let Some(&pos) = self.index.get(&item) {
            self.entries[pos].1 += count;
            self.bubble_up(pos);
            return;
        }
        if self.entries.len() < self.capacity {
            self.entries.push((item.clone(), count));
            let pos = self.entries.len() - 1;
            self.index.insert(item, pos);
            self.bubble_up(pos);
            return;
        }
        // Evict the minimum-count entry (back of the list); the newcomer
        // inherits min + count, the classic SpaceSaving over-estimate.
        let back = self.entries.len() - 1;
        let (old_item, min_count) = self.entries[back].clone();
        self.index.remove(&old_item);
        self.entries[back] = (item.clone(), min_count + count);
        self.index.insert(item, back);
        self.bubble_up(back);
    }

    fn estimate(&self, item: &T) -> f64 {
        self.index
            .get(item)
            .map(|&pos| self.entries[pos].1)
            .unwrap_or(0.0)
    }

    fn decay(&mut self, factor: f64) {
        assert!(
            (0.0..=1.0).contains(&factor),
            "decay factor must be in [0, 1]"
        );
        for entry in self.entries.iter_mut() {
            entry.1 *= factor;
        }
        self.total_weight *= factor;
        // Relative order is preserved by a uniform decay, so no re-sort.
    }

    fn entries(&self) -> Vec<(T, f64)> {
        self.entries.clone()
    }

    fn total_weight(&self) -> f64 {
        self.total_weight
    }

    fn tracked_items(&self) -> usize {
        self.entries.len()
    }
}

/// Hash-based SpaceSaving ("SSH" in Figure 6).
///
/// Keeps counts in a hash map and finds the minimum entry by scanning when an
/// eviction is required. A heap would make the eviction `O(log k)` but every
/// count increase would then need a heap fix-up (`O(log k)` per update, the
/// cost the paper attributes to the heap variant); the scan keeps updates of
/// tracked items `O(1)` while making evictions `O(k)`, which is the same
/// asymptotic trade-off at the sketch sizes used in Figure 6.
#[derive(Debug, Clone)]
pub struct SpaceSavingHash<T: Eq + Hash + Clone> {
    capacity: usize,
    counts: KeyOrderMap<T, f64, FixedState>,
    total_weight: f64,
}

impl<T: Eq + Hash + Clone> SpaceSavingHash<T> {
    /// Create a sketch tracking at most `capacity` (= 1/ε) items.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        SpaceSavingHash {
            capacity,
            counts: KeyOrderMap::with_capacity_and_hasher(capacity, FixedState),
            total_weight: 0.0,
        }
    }
}

impl<T: Eq + Hash + Clone> HeavyHitterSketch<T> for SpaceSavingHash<T> {
    fn observe_count(&mut self, item: T, count: f64) {
        assert!(count >= 0.0, "counts must be non-negative");
        self.total_weight += count;
        if let Some(existing) = self.counts.get_mut(&item) {
            *existing += count;
            return;
        }
        if self.counts.len() < self.capacity {
            self.counts.insert(item, count);
            return;
        }
        // Evict the current minimum; newcomer inherits its count.
        #[expect(
            clippy::disallowed_methods,
            reason = "any minimal-count victim satisfies the SpaceSaving bound; SSH is a \
                      Figure 6 timing baseline"
        )]
        let (min_item, min_count) = self
            .counts
            .iter_unordered()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(k, v)| (k.clone(), *v))
            .expect("sketch is non-empty at capacity");
        self.counts.remove(&min_item);
        self.counts.insert(item, min_count + count);
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
        self.total_weight *= factor;
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
    reason = "test code: exact counts to check the sketches against"
)]
mod tests {
    use super::*;
    use mb_stats::rand_ext::{SplitMix64, Zipf};
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn zipf_stream(n: usize, support: usize, seed: u64) -> Vec<usize> {
        let mut rng = SplitMix64::new(seed);
        let zipf = Zipf::new(support, 1.1);
        (0..n).map(|_| zipf.sample(&mut rng)).collect()
    }

    #[test]
    fn list_exact_when_under_capacity() {
        let mut ss = SpaceSavingList::new(100);
        for i in 0..50u32 {
            for _ in 0..=i {
                ss.observe(i);
            }
        }
        for i in 0..50u32 {
            assert_eq!(ss.estimate(&i), (i + 1) as f64);
        }
    }

    #[test]
    fn hash_exact_when_under_capacity() {
        let mut ss = SpaceSavingHash::new(100);
        for i in 0..50u32 {
            for _ in 0..=i {
                ss.observe(i);
            }
        }
        for i in 0..50u32 {
            assert_eq!(ss.estimate(&i), (i + 1) as f64);
        }
    }

    #[test]
    fn list_maintains_descending_order_and_capacity() {
        let stream = zipf_stream(50_000, 1000, 3);
        let mut ss = SpaceSavingList::new(64);
        for &item in &stream {
            ss.observe(item);
        }
        assert_eq!(ss.tracked_items(), 64);
        let entries = ss.entries();
        for w in entries.windows(2) {
            assert!(w[0].1 >= w[1].1, "list out of order");
        }
    }

    #[test]
    fn both_variants_find_the_same_heavy_hitters() {
        let stream = zipf_stream(100_000, 5000, 7);
        let mut list = SpaceSavingList::new(100);
        let mut hash = SpaceSavingHash::new(100);
        let mut exact: HashMap<usize, f64> = HashMap::new();
        for &item in &stream {
            list.observe(item);
            hash.observe(item);
            *exact.entry(item).or_insert(0.0) += 1.0;
        }
        // The top-10 exact items must all be tracked by both sketches with
        // estimates at least their true count (SpaceSaving never
        // under-estimates a tracked item).
        let mut by_count: Vec<(usize, f64)> = exact.iter().map(|(k, v)| (*k, *v)).collect();
        by_count.sort_by(|a, b| b.1.total_cmp(&a.1));
        for &(item, true_count) in by_count.iter().take(10) {
            assert!(list.estimate(&item) + 1e-9 >= true_count);
            assert!(hash.estimate(&item) + 1e-9 >= true_count);
        }
    }

    #[test]
    fn error_bound_epsilon_n() {
        // Classic SpaceSaving guarantee: over-estimate of any item is at most
        // total_weight / capacity.
        let stream = zipf_stream(50_000, 2000, 11);
        let capacity = 200;
        let mut ss = SpaceSavingList::new(capacity);
        let mut exact: HashMap<usize, f64> = HashMap::new();
        for &item in &stream {
            ss.observe(item);
            *exact.entry(item).or_insert(0.0) += 1.0;
        }
        let bound = ss.total_weight() / capacity as f64;
        for (item, est) in ss.entries() {
            let true_count = exact.get(&item).copied().unwrap_or(0.0);
            assert!(est <= true_count + bound + 1e-9);
            assert!(est + 1e-9 >= true_count);
        }
    }

    #[test]
    fn decay_scales_counts() {
        let mut list = SpaceSavingList::new(10);
        let mut hash = SpaceSavingHash::new(10);
        for _ in 0..100 {
            list.observe("x");
            hash.observe("x");
        }
        list.decay(0.25);
        hash.decay(0.25);
        assert!((list.estimate(&"x") - 25.0).abs() < 1e-9);
        assert!((hash.estimate(&"x") - 25.0).abs() < 1e-9);
        assert!((list.total_weight() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let stream = zipf_stream(10_000, 500, 13);
        let mut list = SpaceSavingList::new(16);
        let mut hash = SpaceSavingHash::new(16);
        for &item in &stream {
            list.observe(item);
            hash.observe(item);
            assert!(list.tracked_items() <= 16);
            assert!(hash.tracked_items() <= 16);
        }
    }

    #[test]
    fn eviction_inherits_min_count() {
        let mut ss = SpaceSavingHash::new(2);
        ss.observe_count("a", 10.0);
        ss.observe_count("b", 5.0);
        ss.observe_count("c", 1.0); // evicts b (min = 5) -> c gets 6
        assert_eq!(ss.estimate(&"c"), 6.0);
        assert_eq!(ss.estimate(&"b"), 0.0);
        assert_eq!(ss.estimate(&"a"), 10.0);
    }

    proptest! {
        #[test]
        fn tracked_items_never_underestimated(
            items in prop::collection::vec(0u32..30, 1..1000),
            capacity in 2usize..20,
        ) {
            let mut list = SpaceSavingList::new(capacity);
            let mut hash = SpaceSavingHash::new(capacity);
            let mut exact: HashMap<u32, f64> = HashMap::new();
            for &item in &items {
                list.observe(item);
                hash.observe(item);
                *exact.entry(item).or_insert(0.0) += 1.0;
            }
            for (item, true_count) in &exact {
                let le = list.estimate(item);
                let he = hash.estimate(item);
                if le > 0.0 {
                    prop_assert!(le + 1e-9 >= *true_count);
                }
                if he > 0.0 {
                    prop_assert!(he + 1e-9 >= *true_count);
                }
            }
            prop_assert!(list.tracked_items() <= capacity);
            prop_assert!(hash.tracked_items() <= capacity);
        }
    }
}
