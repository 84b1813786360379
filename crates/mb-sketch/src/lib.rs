//! Streaming sketches and samplers for MacroBase-RS.
//!
//! This crate implements the paper's two novel data structures plus the
//! baselines they are evaluated against:
//!
//! * [`adr`] — the **Adaptable Damped Reservoir** (Algorithm 1), an
//!   exponentially damped reservoir sampler that decays over *arbitrary*
//!   windows (time- or batch-based) rather than per tuple.
//! * [`reservoir`] — classic uniform reservoir sampling (Vitter), the
//!   non-adaptive baseline in Figure 5.
//! * [`biased`] — per-tuple exponentially biased reservoir sampling
//!   (Aggarwal), the tuple-at-a-time decay baseline in Figure 5.
//! * [`amc`] — the **Amortized Maintenance Counter** (Algorithm 3), a
//!   heavy-hitters sketch with O(1) updates and amortized maintenance.
//! * [`spacesaving`] — the SpaceSaving heavy-hitters sketch in its list and
//!   hash/heap variants, the baselines of Figure 6.
//! * [`quantile`] — reservoir-backed streaming quantile estimation used for
//!   MDP's percentile threshold (Section 4.2).
//!
//! All heavy-hitter sketches implement [`HeavyHitterSketch`], and all
//! samplers implement [`StreamSampler`], so the classification and
//! explanation layers can swap implementations (this is how the Figure 5 and
//! Figure 6 comparisons are run).
//!
//! ## Example
//!
//! Track heavy hitters with the AMC sketch; estimates never underestimate
//! true counts:
//!
//! ```
//! use mb_sketch::amc::AmcSketch;
//! use mb_sketch::HeavyHitterSketch;
//!
//! let mut sketch = AmcSketch::new(10, 1_000);
//! for _ in 0..100 {
//!     sketch.observe("hot");
//! }
//! sketch.observe("cold");
//! assert!(sketch.estimate(&"hot") >= 100.0);
//! assert_eq!(sketch.items_above(50.0).len(), 1);
//! ```

#![warn(missing_docs)]

pub mod adr;
pub mod amc;
pub mod biased;
pub mod key_order;
pub mod quantile;
pub mod reservoir;
pub mod spacesaving;

use std::hash::{BuildHasher, Hash, Hasher};

/// The hasher behind the count maps of [`amc::AmcSketch`] and
/// [`spacesaving::SpaceSavingHash`]: fixed keys, so a map's iteration order — which [`amc::AmcSketch::maintain`] drains, and which
/// decides the survivor among equal counts — depends only on what was
/// inserted, the same in every session and every process.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FixedState;

impl BuildHasher for FixedState {
    type Hasher = FixedHasher;

    fn build_hasher(&self) -> FixedHasher {
        FixedHasher(0)
    }
}

/// [`FixedState`]'s hasher: each word is mixed in with a rotate, an xor and
/// a multiply, and the result folded once more so its low bits (a map's
/// bucket) depend on every input bit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FixedHasher(u64);

/// The golden-ratio multiplier.
const MIX: u64 = 0x9E37_79B9_7F4A_7C15;

impl FixedHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MIX);
    }
}

impl Hasher for FixedHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for chunk in &mut words {
            let mut word = [0; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let mut tail = [0; 8];
        let rest = words.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 56));
    }

    fn write_u8(&mut self, n: u8) {
        self.add(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        let wide = u128::from(self.0) * u128::from(MIX);
        (wide as u64) ^ ((wide >> 64) as u64)
    }
}

/// Sort `(item, count)` entries by descending count under a deterministic
/// total order: counts compare via [`f64::total_cmp`], a NaN count (of either
/// sign) sorts *after* every real count — an unknown weight must never outrank
/// a real heavy hitter — and the sort is stable, so equal counts keep their
/// input order (callers that append deterministically get an index tie-break
/// for free). This replaces the NaN-unsound
/// `partial_cmp(..).unwrap_or(Equal)` comparators, whose inconsistency could
/// scramble (or panic) the sort the moment a NaN slipped in.
pub(crate) fn sort_entries_desc<T>(entries: &mut [(T, f64)]) {
    entries.sort_by(|a, b| match (a.1.is_nan(), b.1.is_nan()) {
        (true, true) => std::cmp::Ordering::Equal,
        (true, false) => std::cmp::Ordering::Greater,
        (false, true) => std::cmp::Ordering::Less,
        (false, false) => b.1.total_cmp(&a.1),
    });
}

/// A streaming sampler over items of type `T`.
///
/// Samplers observe a (possibly weighted) stream and maintain a bounded
/// in-memory sample. Damped samplers additionally expose [`decay`], which
/// down-weights history; undamped samplers implement it as a no-op.
///
/// [`decay`]: StreamSampler::decay
pub trait StreamSampler<T> {
    /// Observe one item with unit weight.
    fn observe(&mut self, item: T) {
        self.observe_weighted(item, 1.0);
    }

    /// Observe one item with the given weight.
    fn observe_weighted(&mut self, item: T, weight: f64);

    /// Apply one decay step (meaning depends on the sampler's decay policy).
    fn decay(&mut self);

    /// The current sample contents.
    fn sample(&self) -> &[T];

    /// Maximum number of retained items.
    fn capacity(&self) -> usize;

    /// Number of items currently retained.
    fn len(&self) -> usize {
        self.sample().len()
    }

    /// Whether the sample is currently empty.
    fn is_empty(&self) -> bool {
        self.sample().is_empty()
    }
}

/// An approximate counter of item frequencies over a stream (heavy hitters).
///
/// Implementations guarantee that the estimated count of any item is within
/// an additive error bound of its true (possibly decayed) count; the bound
/// depends on the sketch and its configured size.
pub trait HeavyHitterSketch<T: Eq + Hash + Clone> {
    /// Observe one occurrence of `item`.
    fn observe(&mut self, item: T) {
        self.observe_count(item, 1.0);
    }

    /// Observe `count` occurrences of `item`.
    fn observe_count(&mut self, item: T, count: f64);

    /// Estimated (possibly decayed) count for `item`; `0.0` if never seen or
    /// since evicted.
    fn estimate(&self, item: &T) -> f64;

    /// Multiply all retained counts by `factor` (exponential damping).
    fn decay(&mut self, factor: f64);

    /// All currently tracked items with their estimated counts.
    fn entries(&self) -> Vec<(T, f64)>;

    /// Items whose estimated count is at least `threshold`, sorted by
    /// decreasing count.
    fn items_above(&self, threshold: f64) -> Vec<(T, f64)> {
        let mut out: Vec<(T, f64)> = self
            .entries()
            .into_iter()
            .filter(|(_, c)| *c >= threshold)
            .collect();
        crate::sort_entries_desc(&mut out);
        out
    }

    /// Total weight observed (after decay), used to turn counts into support
    /// fractions.
    fn total_weight(&self) -> f64;

    /// Number of items currently tracked by the sketch.
    fn tracked_items(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amc::AmcSketch;

    /// Regression for the NaN-unsound `partial_cmp(..).unwrap_or(Equal)`
    /// comparators: a NaN-weighted entry must sort *last* (never outranking a
    /// real count) and equal counts must keep their input order, independent
    /// of sort-implementation details.
    #[test]
    fn sort_entries_desc_is_nan_sound_and_stable() {
        let mut entries = vec![
            ("tie-first", 2.0),
            ("nan", f64::NAN),
            ("big", 9.0),
            ("tie-second", 2.0),
            ("neg-nan", -f64::NAN),
            ("small", 1.0),
        ];
        sort_entries_desc(&mut entries);
        let order: Vec<&str> = entries.iter().map(|e| e.0).collect();
        // Both NaN payloads land at the back; the 2.0 tie keeps input order
        // (index tie-break via stability).
        assert_eq!(
            order,
            vec!["big", "tie-first", "tie-second", "small", "nan", "neg-nan"]
        );
        // The comparator is a total order even across NaN: sorting the
        // reversed input yields the same ranking of real counts with NaNs
        // still last.
        let mut reversed = vec![
            ("small", 1.0),
            ("neg-nan", -f64::NAN),
            ("big", 9.0),
            ("nan", f64::NAN),
        ];
        sort_entries_desc(&mut reversed);
        let order: Vec<&str> = reversed.iter().map(|e| e.0).collect();
        assert_eq!(order[..2], ["big", "small"]);
        assert!(reversed[2].1.is_nan() && reversed[3].1.is_nan());
    }

    #[test]
    fn items_above_sorts_descending() {
        let mut sketch = AmcSketch::new(100, 1000);
        for _ in 0..5 {
            sketch.observe("a");
        }
        for _ in 0..10 {
            sketch.observe("b");
        }
        sketch.observe("c");
        let top = sketch.items_above(2.0);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, "b");
        assert_eq!(top[1].0, "a");
    }
}
