#![warn(clippy::unwrap_used, clippy::expect_used)]
//! Batch explanation: MacroBase's outlier-aware strategy (Algorithm 2) and
//! the naïve two-sided FPGrowth baseline it is compared against (Section 6.3).
//!
//! The optimized strategy exploits the cardinality imbalance between classes:
//! outliers are (by construction) ~1% of the stream, so it first finds
//! attribute values supported *in the outliers*, prunes them by risk ratio
//! using a single counting pass over the inliers restricted to those
//! candidates, mines combinations only over the outliers, and finally makes
//! one more restricted pass over the inliers to compute combination risk
//! ratios. The naïve baseline instead mines both classes in full.

use crate::items::ItemBatch;
use crate::risk_ratio::{risk_ratio_from_totals, Explanation, ExplanationStats};
use crate::ExplanationConfig;
use mb_fpgrowth::fptree::FpTree;
use mb_fpgrowth::{FrequentItemset, Item};
use mb_sketch::key_order::KeyOrderMap;

/// The outlier-aware batch explainer (Algorithm 2).
///
/// Its counting passes index scratch tables by item id, so a call costs 4 B
/// per id up to its largest outlier item id on top of its output. Every
/// in-tree caller passes [`AttributeEncoder`](crate::AttributeEncoder) ids,
/// which are dense from 0, and no wire or CSV boundary can supply an id.
#[derive(Debug, Clone)]
pub struct BatchExplainer {
    config: ExplanationConfig,
}

impl BatchExplainer {
    /// Create an explainer with the given thresholds.
    pub fn new(config: ExplanationConfig) -> Self {
        BatchExplainer { config }
    }

    /// Produce explanations for a batch of outlier and inlier transactions
    /// (each transaction is one point's encoded attribute items).
    pub fn explain(&self, outliers: &[Vec<Item>], inliers: &[Vec<Item>]) -> Vec<Explanation> {
        self.explain_weighted(
            walk(outliers.iter().map(|t| (t.as_slice(), 1.0))),
            &walk(inliers.iter().map(|t| (t.as_slice(), 1.0))),
            outliers.len() as f64,
            inliers.len() as f64,
        )
    }

    /// Produce explanations for one columnar batch of encoded rows, where
    /// `outlier(r)` says whether row `r` was labeled an outlier. Every row
    /// counts toward its class total (attribute-less rows included), exactly
    /// as [`explain`](BatchExplainer::explain) over split transaction lists.
    ///
    /// The two counting passes over the inliers run in contiguous row shards
    /// on the global pool, one per pool thread but none under 16,384 rows,
    /// and add their counts once; the counts are whole numbers, so the
    /// explanations are the same bits at any shard count.
    pub fn explain_labeled(
        &self,
        rows: &ItemBatch,
        outlier: impl Fn(usize) -> bool + Sync,
    ) -> Vec<Explanation> {
        let pool = mb_pool::global();
        let shards = (rows.len() / ROWS_PER_SHARD).clamp(1, pool.num_threads());
        self.explain_in_shards(rows, &outlier, pool, shards)
    }

    /// [`explain_labeled`](BatchExplainer::explain_labeled) with the inlier
    /// counting passes split into `shards` row ranges on `pool`.
    fn explain_in_shards(
        &self,
        rows: &ItemBatch,
        outlier: &(impl Fn(usize) -> bool + Sync),
        pool: &mb_pool::Pool,
        shards: usize,
    ) -> Vec<Explanation> {
        // The outliers (~1% of rows, walked twice) are gathered once; the
        // inliers are walked in place, by label.
        let outliers: Vec<&[Item]> = rows
            .iter()
            .enumerate()
            .filter(|&(r, _)| outlier(r))
            .map(|(_, row)| row)
            .collect();
        let inliers = InlierRows {
            rows,
            outlier,
            pool,
            shards,
        };
        self.explain_weighted(
            walk(outliers.iter().map(|&t| (t, 1.0))),
            inliers,
            outliers.len() as f64,
            (rows.len() - outliers.len()) as f64,
        )
    }

    /// The outlier-aware strategy over weighted, possibly pre-aggregated
    /// transactions: the outliers given as a walk, the inliers as a
    /// [`Class`]. `total_outliers` / `total_inliers` are passed explicitly
    /// because attribute-less points count toward class totals without
    /// appearing as transactions.
    fn explain_weighted(
        &self,
        outliers: impl Fn(Visit),
        inliers: impl Class + Copy,
        total_outliers: f64,
        total_inliers: f64,
    ) -> Vec<Explanation> {
        self.explain_weighted_impl(outliers, inliers, total_outliers, total_inliers, true)
    }

    /// `explain_weighted` with the risk-ratio-ceiling pruning made optional so
    /// tests can pin pruned ≡ unpruned. The ceiling for a (combination of)
    /// attribute value(s) with outlier support `s` is its risk ratio assuming
    /// zero inlier occurrences — `risk_ratio_from_totals(s, 0, to, ti)` —
    /// which bounds the actual ratio from above and is nondecreasing in `s`.
    /// Anything whose ceiling misses `min_risk_ratio` would be discarded by
    /// the final actual-ratio filter anyway, so pruning on the ceiling (at
    /// candidate selection and inside FP-growth, where extension support can
    /// only shrink) is output-identical by construction.
    fn explain_weighted_impl(
        &self,
        outliers: impl Fn(Visit),
        inliers: impl Class + Copy,
        total_outliers: f64,
        total_inliers: f64,
        prune: bool,
    ) -> Vec<Explanation> {
        if total_outliers <= 0.0 {
            return Vec::new();
        }
        let min_outlier_count = self.config.min_outlier_count(total_outliers);
        let min_risk_ratio = self.config.min_risk_ratio;
        let ceiling = |support: f64| {
            risk_ratio_from_totals(support, 0.0, total_outliers, total_inliers) >= min_risk_ratio
        };

        // Stage 1a: count single attribute values over the (small) outlier
        // set, keeping the supported ones. The table of every outlier value
        // is a call's largest scratch table, so it is dropped with this block.
        let candidates: Vec<(Item, f64)> = {
            let mut singles = SlotTable::default();
            outliers(&mut |transaction, _| transaction.iter().for_each(|&item| singles.add(item)));
            let counts = singles.count(&outliers);
            singles
                .items
                .into_iter()
                .zip(counts)
                .filter(|&(_, count)| count >= min_outlier_count && (!prune || ceiling(count)))
                .collect()
        };
        if candidates.is_empty() {
            return Vec::new();
        }

        // Stage 1b: one pass over the inliers counting ONLY the supported
        // candidates (this is the cardinality-aware pruning).
        let candidate_slots = SlotTable::of(candidates.iter().map(|&(item, _)| item));
        let candidate_inlier_counts = candidate_slots.count(inliers);

        // Stage 1c: filter candidates by single-item risk ratio.
        let surviving: Vec<Item> = candidates
            .iter()
            .zip(&candidate_inlier_counts)
            .filter(|&(&(_, ao), &ai)| {
                risk_ratio_from_totals(ao, ai, total_outliers, total_inliers) >= min_risk_ratio
            })
            .map(|(&(item, _), _)| item)
            .collect();
        if surviving.is_empty() {
            return Vec::new();
        }

        explain_combinations(
            &self.config,
            &surviving,
            (total_outliers, total_inliers),
            prune,
            &outliers,
            inliers,
            |item| Some(candidate_inlier_counts[candidate_slots.slot(item)?]),
        )
    }
}

/// What a walk feeds each `(transaction, weight)` of a class to.
type Visit<'a> = &'a mut dyn FnMut(&[Item], f64);

/// A class of weighted transactions as a walk that can be replayed: each
/// call feeds every `(transaction, weight)` of `class` to the visitor, in
/// order.
fn walk<'a>(class: impl Iterator<Item = (&'a [Item], f64)> + Clone) -> impl Fn(Visit) {
    move |visit| {
        class
            .clone()
            .for_each(|(transaction, weight)| visit(transaction, weight))
    }
}

/// Rows per inlier counting shard, at least: a labeled batch is counted in
/// one shard per pool thread, but never in shards smaller than this, so a
/// served request of a few thousand rows counts inline on its own thread.
const ROWS_PER_SHARD: usize = 16_384;

/// A transaction class as Algorithm 2's counting passes read it.
pub(crate) trait Class {
    /// Feed every transaction of the class to tallies `new_tally` makes and
    /// return their counts, one per slot, added element-wise over the
    /// tallies in order.
    fn count<T: Tally>(self, new_tally: impl Fn() -> T + Sync) -> Vec<f64>;
}

/// A walk is counted in one tally, in walk order: the streaming
/// explainer's decayed weights, whose sums depend on the order they are
/// added in, are counted this way.
impl<W: FnOnce(Visit)> Class for W {
    fn count<T: Tally>(self, new_tally: impl Fn() -> T + Sync) -> Vec<f64> {
        let mut tally = new_tally();
        self(&mut |transaction, weight| tally.add(transaction, weight));
        tally.into_counts()
    }
}

/// The inlier rows of a labeled batch, each of weight 1, counted in
/// `shards` contiguous row ranges on `pool`, a tally per range.
///
/// Every count is a whole number of rows, far below 2^53, so each partial
/// sum and their element-wise total are exact in `f64`: the counts are the
/// bits one walk over the rows gives, at any shard count.
struct InlierRows<'a, F> {
    rows: &'a ItemBatch,
    outlier: &'a F,
    pool: &'a mb_pool::Pool,
    shards: usize,
}

// By hand: a derive would ask `F: Clone` of the closure behind the reference.
impl<F> Clone for InlierRows<'_, F> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<F> Copy for InlierRows<'_, F> {}

impl<F: Fn(usize) -> bool + Sync> Class for InlierRows<'_, F> {
    fn count<T: Tally>(self, new_tally: impl Fn() -> T + Sync) -> Vec<f64> {
        let rows = self.rows.len();
        let per_shard = rows.div_ceil(self.shards.max(1)).max(1);
        let ranges: Vec<_> = (0..rows)
            .step_by(per_shard)
            .map(|start| start..(start + per_shard).min(rows))
            .collect();
        let tallies = self.pool.map_vec(ranges, |range| {
            let mut tally = new_tally();
            for r in range.filter(|&r| !(self.outlier)(r)) {
                tally.add(self.rows.row(r), 1.0);
            }
            tally.into_counts()
        });
        let mut tallies = tallies.into_iter();
        let mut counts = tallies
            .next()
            .unwrap_or_else(|| new_tally().into_counts());
        for shard in tallies {
            counts.iter_mut().zip(shard).for_each(|(sum, count)| *sum += count);
        }
        counts
    }
}

/// One walk's running counts in a counting pass.
pub(crate) trait Tally {
    /// Count one transaction of the given weight.
    fn add(&mut self, transaction: &[Item], weight: f64);
    /// The counts, one per slot of the pass's table.
    fn into_counts(self) -> Vec<f64>;
}

/// Marks an id the table does not hold.
const ABSENT: u32 = u32::MAX;

/// A dense item-id → slot table for Algorithm 2's counting passes. A lookup
/// is one array index where a sorted list took a binary search. It costs
/// 4 B per id up to the largest id it holds.
#[derive(Default)]
struct SlotTable {
    /// Item id → slot, or [`ABSENT`].
    slot_of: Vec<u32>,
    /// Slot → item id, in insertion order.
    items: Vec<Item>,
}

impl SlotTable {
    /// A table holding each of `items` once.
    fn of(items: impl IntoIterator<Item = Item>) -> Self {
        let mut table = SlotTable::default();
        items.into_iter().for_each(|item| table.add(item));
        table
    }

    /// Give `item` the next slot, unless it has one.
    fn add(&mut self, item: Item) {
        if self.slot(item).is_some() {
            return;
        }
        let id = item as usize;
        if id >= self.slot_of.len() {
            self.slot_of.resize(id + 1, ABSENT);
        }
        self.slot_of[id] = self.items.len() as u32;
        self.items.push(item);
    }

    fn slot(&self, item: Item) -> Option<usize> {
        match self.slot_of.get(item as usize) {
            Some(&slot) if slot != ABSENT => Some(slot as usize),
            _ => None,
        }
    }

    /// Per slot, the total weight of the transactions of `class` that
    /// contain its item. Each transaction adds its weight once.
    fn count(&self, class: impl Class) -> Vec<f64> {
        class.count(|| SlotTally {
            table: self,
            seen: Stamps::new(self.items.len()),
            counts: vec![0.0; self.items.len()],
        })
    }
}

/// Per slot, the last transaction that met it (transactions count from 1):
/// stands in for sorting and deduplicating every transaction.
struct Stamps {
    last: Vec<usize>,
    current: usize,
}

impl Stamps {
    fn new(slots: usize) -> Self {
        Stamps {
            last: vec![0; slots],
            current: 0,
        }
    }

    /// Start the next transaction.
    fn next(&mut self) {
        self.current += 1;
    }

    /// Whether the current transaction meets `slot` for the first time;
    /// marks it met.
    fn first(&mut self, slot: usize) -> bool {
        let first = self.last[slot] != self.current;
        self.last[slot] = self.current;
        first
    }
}

/// A [`SlotTable::count`] walk's counts.
struct SlotTally<'a> {
    table: &'a SlotTable,
    seen: Stamps,
    counts: Vec<f64>,
}

impl Tally for SlotTally<'_> {
    fn add(&mut self, transaction: &[Item], weight: f64) {
        self.seen.next();
        for &item in transaction {
            if let Some(slot) = self.table.slot(item) {
                if self.seen.first(slot) {
                    self.counts[slot] += weight;
                }
            }
        }
    }

    fn into_counts(self) -> Vec<f64> {
        self.counts
    }
}

/// Stages 2 and 3 of Algorithm 2, for the batch and the streaming explainer
/// alike: mine the outlier transactions restricted to `surviving` (the
/// attribute values whose own risk ratio passed), count the mined
/// combinations among the inlier transactions, and keep what clears the
/// risk-ratio threshold.
///
/// The outliers arrive as a walk — a function that feeds every weighted
/// transaction to the visitor it is given — so a caller holding a prefix tree
/// need not export it; the inliers as a [`Class`], which a walk is too. The
/// inliers are counted once, and only if the outliers produced a
/// combination. A mined single is scored against `single_inlier_count`;
/// `None` leaves it out, for a caller that reports single values from a
/// source of its own. `prune` turns the risk-ratio ceiling inside FP-growth
/// on (off only in tests, which pin it output-identical).
pub(crate) fn explain_combinations(
    config: &ExplanationConfig,
    surviving: &[Item],
    (total_outliers, total_inliers): (f64, f64),
    prune: bool,
    outliers: impl FnOnce(Visit),
    inliers: impl Class,
    single_inlier_count: impl Fn(Item) -> Option<f64>,
) -> Vec<Explanation> {
    let min_outlier_count = config.min_outlier_count(total_outliers);
    let ceiling = |support: f64| {
        risk_ratio_from_totals(support, 0.0, total_outliers, total_inliers)
            >= config.min_risk_ratio
    };

    // Stage 2: mine combinations over the outliers restricted to the
    // surviving attribute values.
    let surviving = SlotTable::of(surviving.iter().copied());
    let mut filtered_outliers: Vec<(Vec<Item>, f64)> = Vec::new();
    outliers(&mut |transaction, weight| {
        let items: Vec<Item> = transaction
            .iter()
            .copied()
            .filter(|&item| surviving.slot(item).is_some())
            .collect();
        if !items.is_empty() {
            filtered_outliers.push((items, weight));
        }
    });
    let tree = FpTree::from_weighted_transactions(&filtered_outliers, min_outlier_count);
    let mined: Vec<FrequentItemset> = if prune {
        tree.mine_with_bound(min_outlier_count, config.max_combination_size, ceiling)
    } else {
        tree.mine(min_outlier_count, config.max_combination_size)
    };

    // Stage 3: compute risk ratios; combinations (size >= 2) need one more
    // restricted pass over the inliers to obtain their inlier counts,
    // accumulated positionally alongside `combos`.
    let combos: Vec<&[Item]> = mined
        .iter()
        .filter(|m| m.len() >= 2)
        .map(|m| m.items.as_slice())
        .collect();
    let combo_inlier_counts = count_combinations(&combos, inliers);

    let mut explanations = Vec::new();
    let mut combo_pos = 0;
    for itemset in &mined {
        let ai = if itemset.len() == 1 {
            match single_inlier_count(itemset.items[0]) {
                Some(count) => count,
                None => continue,
            }
        } else {
            combo_pos += 1;
            combo_inlier_counts[combo_pos - 1]
        };
        let stats =
            ExplanationStats::from_counts(itemset.support, ai, total_outliers, total_inliers);
        if stats.risk_ratio >= config.min_risk_ratio {
            explanations.push(Explanation::new(itemset.items.clone(), stats));
        }
    }
    explanations
}

/// For each of `combos` (distinct, each sorted ascending), the total weight
/// of the transactions of `class` that contain it — the restricted inlier
/// pass of Algorithm 2. `class` is not counted at all when there is nothing
/// to count.
///
/// The combinations are laid out as a lexicographically sorted table, which
/// is a trie read by range: a transaction, cut down to the distinct items any
/// combination uses, descends it one matching prefix at a time
/// ([`add_contained`]). The cost per transaction follows the prefixes it
/// actually shares with the table — never `transactions × combinations`, and
/// never a sub-combination nobody asked about. Each count still accumulates
/// in transaction order.
fn count_combinations(combos: &[&[Item]], class: impl Class) -> Vec<f64> {
    if combos.is_empty() {
        return Vec::new();
    }
    let mut table: Vec<(&[Item], usize)> = combos
        .iter()
        .enumerate()
        .map(|(pos, &combo)| (combo, pos))
        .collect();
    table.sort_unstable();
    let table = CombinationTable {
        used: SlotTable::of(combos.iter().flat_map(|c| c.iter().copied())),
        shortest: combos.iter().map(|c| c.len()).min().unwrap_or(0),
        table,
    };
    class.count(|| CombinationTally {
        seen: Stamps::new(table.used.items.len()),
        present: Vec::new(),
        counts: vec![0.0; combos.len()],
        table: &table,
    })
}

/// [`count_combinations`]' read-only part: the sorted table, the items any
/// combination uses, and the shortest combination's length.
struct CombinationTable<'a> {
    table: Vec<(&'a [Item], usize)>,
    used: SlotTable,
    shortest: usize,
}

/// A [`count_combinations`] walk's counts, with its scratch.
struct CombinationTally<'t, 'a> {
    table: &'t CombinationTable<'a>,
    seen: Stamps,
    present: Vec<Item>,
    counts: Vec<f64>,
}

impl Tally for CombinationTally<'_, '_> {
    fn add(&mut self, transaction: &[Item], weight: f64) {
        let CombinationTally {
            table,
            seen,
            present,
            counts,
        } = self;
        seen.next();
        present.clear();
        present.extend(
            transaction
                .iter()
                .copied()
                .filter(|&item| table.used.slot(item).is_some_and(|slot| seen.first(slot))),
        );
        if present.len() < table.shortest {
            return;
        }
        present.sort_unstable();
        add_contained(&table.table, 0, present, weight, counts);
    }

    fn into_counts(self) -> Vec<f64> {
        self.counts
    }
}

/// Add `weight` to every combination of `table` contained in a transaction.
/// `table` holds the combinations that agree on their first `depth` items,
/// all of which the transaction has; `present` is what is left of the
/// transaction after the last of those items (sorted, distinct).
fn add_contained(
    mut table: &[(&[Item], usize)],
    depth: usize,
    present: &[Item],
    weight: f64,
    counts: &mut [f64],
) {
    for (i, &item) in present.iter().enumerate() {
        let skip = table.partition_point(|(combo, _)| combo[depth] < item);
        table = &table[skip..];
        let run = table.partition_point(|(combo, _)| combo[depth] == item);
        let (mut sharing, rest) = table.split_at(run);
        table = rest;
        // A combination that ends here sorts ahead of its own extensions.
        if let Some(&(combo, pos)) = sharing.first() {
            if combo.len() == depth + 1 {
                counts[pos] += weight;
                sharing = &sharing[1..];
            }
        }
        if !sharing.is_empty() {
            add_contained(sharing, depth + 1, &present[i + 1..], weight, counts);
        }
        if table.is_empty() {
            break;
        }
    }
}

/// The naïve baseline: mine outliers AND inliers in full with FPGrowth, then
/// join the results to compute risk ratios (Section 6.3 / "FP" in Table 5).
/// Functionally it reports the same high-risk-ratio combinations, but it
/// spends most of its time mining inlier patterns that are discarded.
pub fn naive_fpgrowth_explain(
    outliers: &[Vec<Item>],
    inliers: &[Vec<Item>],
    config: &ExplanationConfig,
) -> Vec<Explanation> {
    let total_outliers = outliers.len() as f64;
    let total_inliers = inliers.len() as f64;
    if outliers.is_empty() {
        return Vec::new();
    }
    let min_outlier_count = config.min_outlier_count(total_outliers);

    // Mine the outlier side.
    let outlier_tree = FpTree::from_transactions(outliers, min_outlier_count);
    let outlier_sets = outlier_tree.mine(min_outlier_count, config.max_combination_size);

    // Mine the inlier side in full at the same *relative* support — the
    // wasted work the optimized strategy avoids.
    let min_inlier_count = (config.min_support * total_inliers).max(1.0);
    let inlier_tree = FpTree::from_transactions(inliers, min_inlier_count);
    let inlier_sets = inlier_tree.mine(min_inlier_count, config.max_combination_size);
    let inlier_counts: KeyOrderMap<Vec<Item>, f64> = inlier_sets
        .into_iter()
        .map(|s| (s.items, s.support))
        .collect();

    let mut explanations = Vec::new();
    for itemset in outlier_sets {
        let ai = inlier_counts.get(&itemset.items).copied().unwrap_or(0.0);
        let stats =
            ExplanationStats::from_counts(itemset.support, ai, total_outliers, total_inliers);
        if stats.risk_ratio >= config.min_risk_ratio {
            explanations.push(Explanation::new(itemset.items, stats));
        }
    }
    explanations
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    reason = "test code: a set of the naive baseline's combinations, for membership only"
)]
mod tests {
    use super::*;
    use crate::risk_ratio::rank_explanations;
    use mb_stats::rand_ext::SplitMix64;

    /// Build a synthetic workload where outliers are dominated by the
    /// attribute pair (1, 2) (e.g. device type B264 + app version 2.26.3)
    /// while inliers draw attributes from a wide pool.
    fn planted_workload(
        n_outliers: usize,
        n_inliers: usize,
        planted_fraction: f64,
    ) -> (Vec<Vec<Item>>, Vec<Vec<Item>>) {
        let planted = (n_outliers as f64 * planted_fraction) as usize;
        let mut outliers = Vec::with_capacity(n_outliers);
        for i in 0..n_outliers {
            if i < planted {
                outliers.push(vec![1, 2, 100 + (i % 10) as Item]);
            } else {
                outliers.push(vec![
                    10 + (i % 5) as Item,
                    20 + (i % 7) as Item,
                    100 + (i % 10) as Item,
                ]);
            }
        }
        let mut inliers = Vec::with_capacity(n_inliers);
        for i in 0..n_inliers {
            inliers.push(vec![
                10 + (i % 5) as Item,
                20 + (i % 7) as Item,
                100 + (i % 10) as Item,
            ]);
        }
        (outliers, inliers)
    }

    #[test]
    fn empty_outliers_yield_no_explanations() {
        let explainer = BatchExplainer::new(ExplanationConfig::default());
        assert!(explainer.explain(&[], &[vec![1, 2]]).is_empty());
    }

    #[test]
    fn finds_planted_combination() {
        let (outliers, inliers) = planted_workload(1_000, 50_000, 0.8);
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        let mut explanations = explainer.explain(&outliers, &inliers);
        rank_explanations(&mut explanations);
        assert!(!explanations.is_empty());
        // The planted pair must be reported with a very high risk ratio (it
        // never occurs among inliers, but 20% of outliers lack it, so the
        // ratio is large and finite).
        let pair = explanations.iter().find(|e| e.items == vec![1, 2]);
        assert!(pair.is_some(), "pair not found in {explanations:?}");
        let pair = pair.unwrap();
        assert!(pair.stats.risk_ratio > 100.0);
        assert!((pair.stats.outlier_support - 0.8).abs() < 0.01);
        // Common attributes (100..110 appear in both classes equally) must NOT
        // be reported.
        assert!(explanations
            .iter()
            .all(|e| e.items.iter().all(|&i| i < 100)));
    }

    #[test]
    fn risk_ratio_threshold_filters_common_attributes() {
        // Attribute 7 occurs in 100% of outliers but also 100% of inliers: it
        // has overwhelming support yet a risk ratio near 1 and must be pruned.
        let outliers: Vec<Vec<Item>> = (0..100).map(|_| vec![7, 1]).collect();
        let inliers: Vec<Vec<Item>> = (0..10_000).map(|i| vec![7, (i % 50 + 10) as Item]).collect();
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        let explanations = explainer.explain(&outliers, &inliers);
        assert!(explanations.iter().any(|e| e.items == vec![1]));
        assert!(!explanations.iter().any(|e| e.items == vec![7]));
        // And the pair {1, 7} is only reported if every subset passes; item 7
        // fails the single-item ratio test, so the pair is not explored.
        assert!(!explanations.iter().any(|e| e.items == vec![1, 7]));
    }

    #[test]
    fn support_threshold_filters_rare_combinations() {
        let mut outliers: Vec<Vec<Item>> = (0..1_000).map(|_| vec![1]).collect();
        outliers.push(vec![55]); // a single occurrence, below 1% support
        let inliers: Vec<Vec<Item>> = (0..10_000).map(|i| vec![(i % 50 + 100) as Item]).collect();
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        let explanations = explainer.explain(&outliers, &inliers);
        assert!(explanations.iter().any(|e| e.items == vec![1]));
        assert!(!explanations.iter().any(|e| e.items == vec![55]));
    }

    #[test]
    fn max_combination_size_is_respected() {
        let outliers: Vec<Vec<Item>> = (0..100).map(|_| vec![1, 2, 3, 4]).collect();
        let inliers: Vec<Vec<Item>> = (0..1_000).map(|i| vec![(i % 20 + 10) as Item]).collect();
        let explainer =
            BatchExplainer::new(ExplanationConfig::new(0.01, 3.0).with_max_combination_size(2));
        let explanations = explainer.explain(&outliers, &inliers);
        assert!(explanations.iter().all(|e| e.items.len() <= 2));
        assert!(explanations.iter().any(|e| e.items.len() == 2));
    }

    #[test]
    fn agrees_with_naive_baseline_on_planted_workload() {
        let (outliers, inliers) = planted_workload(500, 5_000, 0.6);
        let config = ExplanationConfig::new(0.05, 3.0);
        let explainer = BatchExplainer::new(config);
        let mut optimized = explainer.explain(&outliers, &inliers);
        let mut naive = naive_fpgrowth_explain(&outliers, &inliers, &config);
        rank_explanations(&mut optimized);
        rank_explanations(&mut naive);
        // Both must report the planted pair and its two members at the top.
        for explanations in [&optimized, &naive] {
            assert!(explanations.iter().any(|e| e.items == vec![1]));
            assert!(explanations.iter().any(|e| e.items == vec![2]));
            assert!(explanations.iter().any(|e| e.items == vec![1, 2]));
        }
        // And the optimized strategy reports no combination the naive one
        // misses (it may legitimately report a superset because the naive
        // baseline only counts inlier combinations above the inlier support
        // threshold).
        let naive_keys: std::collections::HashSet<&Vec<Item>> =
            naive.iter().map(|e| &e.items).collect();
        let optimized_with_finite_rr = optimized
            .iter()
            .filter(|e| e.stats.risk_ratio.is_finite())
            .count();
        let overlap = optimized
            .iter()
            .filter(|e| naive_keys.contains(&e.items))
            .count();
        assert!(overlap >= optimized_with_finite_rr.min(naive.len()));
    }

    fn assert_same_explanations(mut a: Vec<Explanation>, mut b: Vec<Explanation>) {
        rank_explanations(&mut a);
        rank_explanations(&mut b);
        assert_eq!(
            a.len(),
            b.len(),
            "explanation sets differ in size: {a:?} vs {b:?}"
        );
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.items, y.items);
            assert!((x.stats.outlier_count - y.stats.outlier_count).abs() < 1e-9);
            assert!((x.stats.inlier_count - y.stats.inlier_count).abs() < 1e-9);
            let same_ratio = (x.stats.risk_ratio - y.stats.risk_ratio).abs() < 1e-9
                || (x.stats.risk_ratio.is_infinite() && y.stats.risk_ratio.is_infinite());
            assert!(same_ratio, "risk ratios differ: {x:?} vs {y:?}");
        }
    }

    #[test]
    fn degenerate_all_points_identical_reports_nothing() {
        // Every point (and there are no inliers) carries the same attributes:
        // there is no comparison group, so nothing is reportable.
        let outliers: Vec<Vec<Item>> = (0..100).map(|_| vec![1, 2]).collect();
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.1, 3.0));
        let explanations = explainer.explain(&outliers, &[]);
        assert!(explanations.is_empty());
    }

    #[test]
    fn explain_labeled_is_exactly_explain() {
        let (outliers, inliers) = planted_workload(1_000, 20_000, 0.8);
        // Interleave the classes into one columnar batch the way an executor
        // would see them, with a label predicate recovering the class.
        let mut batch = ItemBatch::new();
        let mut labels = Vec::new();
        let (mut oi, mut ii) = (0usize, 0usize);
        while oi < outliers.len() || ii < inliers.len() {
            if oi < outliers.len() {
                batch.push_row(&outliers[oi]);
                labels.push(true);
                oi += 1;
            }
            for _ in 0..20 {
                if ii < inliers.len() {
                    batch.push_row(&inliers[ii]);
                    labels.push(false);
                    ii += 1;
                }
            }
        }
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        assert_same_explanations(
            explainer.explain_labeled(&batch, |r| labels[r]),
            explainer.explain(&outliers, &inliers),
        );
    }

    #[test]
    fn pruned_equals_unpruned_on_planted_workload() {
        let (outliers, inliers) = planted_workload(1_000, 50_000, 0.8);
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        let wo: Vec<(&[Item], f64)> = outliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
        let wi: Vec<(&[Item], f64)> = inliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
        let (to, ti) = (outliers.len() as f64, inliers.len() as f64);
        let explain = |prune| {
            explainer.explain_weighted_impl(
                walk(wo.iter().copied()),
                &walk(wi.iter().copied()),
                to,
                ti,
                prune,
            )
        };
        assert_same_explanations(explain(true), explain(false));
    }

    /// Stages 1–3 as they were before the dense slot tables: a sorted
    /// candidate list binary-searched per item, per-transaction
    /// `sort_unstable` + `dedup`, and single counts gathered as
    /// `(item, weight)` pairs under a stable sort. Kept as the reference the
    /// counting passes must reproduce bit for bit.
    mod oracle {
        use super::super::add_contained;
        use crate::risk_ratio::{risk_ratio_from_totals, Explanation, ExplanationStats};
        use crate::ExplanationConfig;
        use mb_fpgrowth::fptree::FpTree;
        use mb_fpgrowth::{FrequentItemset, Item};

        pub(super) fn explain_weighted(
            config: &ExplanationConfig,
            outliers: &[(&[Item], f64)],
            inliers: &[(&[Item], f64)],
            (total_outliers, total_inliers): (f64, f64),
            prune: bool,
        ) -> Vec<Explanation> {
            if total_outliers <= 0.0 {
                return Vec::new();
            }
            let min_outlier_count = config.min_outlier_count(total_outliers);
            let ceiling = |support: f64| {
                risk_ratio_from_totals(support, 0.0, total_outliers, total_inliers)
                    >= config.min_risk_ratio
            };
            let mut outlier_pairs: Vec<(Item, f64)> = Vec::new();
            let mut seen: Vec<Item> = Vec::new();
            for (transaction, weight) in outliers {
                seen.clear();
                seen.extend_from_slice(transaction);
                seen.sort_unstable();
                seen.dedup();
                for &item in &seen {
                    outlier_pairs.push((item, *weight));
                }
            }
            outlier_pairs.sort_by_key(|&(item, _)| item);
            let mut outlier_singles: Vec<(Item, f64)> = Vec::new();
            for (item, weight) in outlier_pairs {
                match outlier_singles.last_mut() {
                    Some(last) if last.0 == item => last.1 += weight,
                    _ => outlier_singles.push((item, weight)),
                }
            }
            let candidates: Vec<(Item, f64)> = outlier_singles
                .iter()
                .copied()
                .filter(|&(_, count)| count >= min_outlier_count && (!prune || ceiling(count)))
                .collect();
            if candidates.is_empty() {
                return Vec::new();
            }
            let candidate_items: Vec<Item> = candidates.iter().map(|&(item, _)| item).collect();
            let mut candidate_inlier_counts: Vec<f64> = vec![0.0; candidates.len()];
            let mut seen_pos: Vec<usize> = Vec::new();
            for (transaction, weight) in inliers {
                seen_pos.clear();
                seen_pos.extend(
                    transaction
                        .iter()
                        .filter_map(|item| candidate_items.binary_search(item).ok()),
                );
                seen_pos.sort_unstable();
                seen_pos.dedup();
                for &pos in &seen_pos {
                    candidate_inlier_counts[pos] += weight;
                }
            }
            let surviving: Vec<Item> = candidates
                .iter()
                .enumerate()
                .filter(|&(pos, &(_, ao))| {
                    risk_ratio_from_totals(
                        ao,
                        candidate_inlier_counts[pos],
                        total_outliers,
                        total_inliers,
                    ) >= config.min_risk_ratio
                })
                .map(|(_, &(item, _))| item)
                .collect();
            if surviving.is_empty() {
                return Vec::new();
            }

            // Stage 2, with `surviving` binary-searched per item.
            let mut filtered_outliers: Vec<(Vec<Item>, f64)> = Vec::new();
            for &(transaction, weight) in outliers {
                let items: Vec<Item> = transaction
                    .iter()
                    .copied()
                    .filter(|item| surviving.binary_search(item).is_ok())
                    .collect();
                if !items.is_empty() {
                    filtered_outliers.push((items, weight));
                }
            }
            let tree = FpTree::from_weighted_transactions(&filtered_outliers, min_outlier_count);
            let mined: Vec<FrequentItemset> = if prune {
                tree.mine_with_bound(min_outlier_count, config.max_combination_size, ceiling)
            } else {
                tree.mine(min_outlier_count, config.max_combination_size)
            };

            // Stage 3.
            let combos: Vec<&[Item]> = mined
                .iter()
                .filter(|m| m.len() >= 2)
                .map(|m| m.items.as_slice())
                .collect();
            let combo_inlier_counts = count_combinations(&combos, inliers);
            let mut explanations = Vec::new();
            let mut combo_pos = 0;
            for itemset in &mined {
                let ai = if itemset.len() == 1 {
                    let pos = candidate_items.binary_search(&itemset.items[0]).unwrap();
                    candidate_inlier_counts[pos]
                } else {
                    combo_pos += 1;
                    combo_inlier_counts[combo_pos - 1]
                };
                let stats = ExplanationStats::from_counts(
                    itemset.support,
                    ai,
                    total_outliers,
                    total_inliers,
                );
                if stats.risk_ratio >= config.min_risk_ratio {
                    explanations.push(Explanation::new(itemset.items.clone(), stats));
                }
            }
            explanations
        }

        /// Stage 3's restricted pass, with `used` binary-searched per item
        /// and every transaction sorted and deduplicated.
        pub(super) fn count_combinations(
            combos: &[&[Item]],
            transactions: &[(&[Item], f64)],
        ) -> Vec<f64> {
            let mut counts = vec![0.0; combos.len()];
            if combos.is_empty() {
                return counts;
            }
            let mut table: Vec<(&[Item], usize)> = combos
                .iter()
                .enumerate()
                .map(|(pos, &combo)| (combo, pos))
                .collect();
            table.sort_unstable();
            let mut used: Vec<Item> = combos.iter().flat_map(|c| c.iter().copied()).collect();
            used.sort_unstable();
            used.dedup();
            let shortest = combos.iter().map(|c| c.len()).min().unwrap_or(0);
            let mut present: Vec<Item> = Vec::new();
            for &(transaction, weight) in transactions {
                present.clear();
                present.extend(
                    transaction
                        .iter()
                        .copied()
                        .filter(|item| used.binary_search(item).is_ok()),
                );
                if present.len() < shortest {
                    continue;
                }
                present.sort_unstable();
                present.dedup();
                add_contained(&table, 0, &present, weight, &mut counts);
            }
            counts
        }
    }

    /// Weighted transactions of one class.
    type Weighted = Vec<(Vec<Item>, f64)>;

    /// One generated case for the differential test: both classes' weighted
    /// transactions over a small palette of ids, their class totals, and a
    /// configuration. The case number picks the shape, so every shape the
    /// dense tables could get wrong recurs:
    /// * ids dense from 0, or sparse up to 2^16 or 2^24 (16M-slot tables);
    /// * outlier ids all above every inlier id, all below, or interleaved;
    /// * unit, decayed (`0.95^k`) or arbitrary weights;
    /// * empty transactions, duplicate items inside one transaction, and no
    ///   outliers, no inliers or neither.
    fn generated_case(case: u64) -> (Weighted, Weighted, (f64, f64), ExplanationConfig) {
        let mut rng = SplitMix64::new(0x5107 ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        // A 2^24-id table takes a while to fill in a debug build.
        let id_bound = match case % 16 {
            15 => 1 << 24,
            3 | 7 | 11 => 1 << 16,
            _ => 40,
        };
        let mut palette: Vec<Item> = (0..1 + rng.next_below(12))
            .map(|_| rng.next_below(id_bound) as Item)
            .collect();
        palette.sort_unstable();
        palette.dedup();
        // Which part of the palette each class draws from.
        let half = palette.len().div_ceil(2);
        let (low, high, all) = (
            &palette[..half],
            &palette[palette.len() - half..],
            &palette[..],
        );
        let (outlier_ids, inlier_ids) = match case % 3 {
            0 => (all, all),
            1 => (high, low),
            _ => (low, high),
        };
        let weight_mode = (case / 3) % 4;
        let weight = |rng: &mut SplitMix64| match weight_mode {
            0 => 1.0,
            1 => 0.95f64.powi(rng.next_below(60) as i32),
            2 => 0.001 + 50.0 * rng.next_f64(),
            _ => [1.0, 0.5, 0.95f64.powi(7), 3.25][rng.next_below(4)],
        };
        let class = |ids: &[Item], rows: usize, rng: &mut SplitMix64| -> Weighted {
            (0..rows)
                .map(|_| {
                    let len = rng.next_below(7);
                    let row = (0..len).map(|_| ids[rng.next_below(ids.len())]).collect();
                    (row, weight(rng))
                })
                .collect()
        };
        let outlier_rows = if case % 7 == 0 || case % 13 == 0 {
            0
        } else {
            1 + rng.next_below(40)
        };
        let inlier_rows = if case % 11 == 0 || case % 13 == 0 {
            0
        } else {
            1 + rng.next_below(200)
        };
        let outliers = class(outlier_ids, outlier_rows, &mut rng);
        let inliers = class(inlier_ids, inlier_rows, &mut rng);
        // Attribute-less points count toward the totals without appearing.
        let total = |class: &Weighted, rng: &mut SplitMix64| {
            class.iter().map(|(_, w)| w).sum::<f64>() + rng.next_below(3) as f64
        };
        let totals = (total(&outliers, &mut rng), total(&inliers, &mut rng));
        let config =
            ExplanationConfig::new(0.01 + 0.49 * rng.next_f64(), 1.0 + 9.0 * rng.next_f64())
                .with_max_combination_size(1 + rng.next_below(4));
        (outliers, inliers, totals, config)
    }

    fn assert_bit_identical(actual: &[Explanation], expected: &[Explanation], case: u64) {
        assert_eq!(
            actual.len(),
            expected.len(),
            "case {case}: {actual:?} vs {expected:?}"
        );
        for (a, e) in actual.iter().zip(expected) {
            assert_eq!(a.items, e.items, "case {case}");
            let bits = |x: &Explanation| {
                let s = &x.stats;
                [
                    s.outlier_count,
                    s.inlier_count,
                    s.outlier_support,
                    s.risk_ratio,
                    s.total_outliers,
                    s.total_inliers,
                ]
                .map(f64::to_bits)
            };
            assert_eq!(bits(a), bits(e), "case {case}: {a:?} vs {e:?}");
        }
    }

    // The counting passes against the oracle: same explanations, in the
    // same order, with the same bits, pruned and unpruned.
    #[test]
    fn counting_passes_equal_the_sorted_oracle() {
        let mut reported = 0;
        for case in 0..240 {
            let (outliers, inliers, totals, config) = generated_case(case);
            let wo: Vec<(&[Item], f64)> =
                outliers.iter().map(|(t, w)| (t.as_slice(), *w)).collect();
            let wi: Vec<(&[Item], f64)> = inliers.iter().map(|(t, w)| (t.as_slice(), *w)).collect();
            let explainer = BatchExplainer::new(config);
            for prune in [true, false] {
                let expected = oracle::explain_weighted(&config, &wo, &wi, totals, prune);
                let actual = explainer.explain_weighted_impl(
                    walk(wo.iter().copied()),
                    &walk(wi.iter().copied()),
                    totals.0,
                    totals.1,
                    prune,
                );
                assert_bit_identical(&actual, &expected, case);
                reported += expected.len();
            }
        }
        // The generator must reach the interesting part of the space.
        assert!(
            reported > 500,
            "only {reported} explanations across all cases"
        );
    }

    // Stage 3 alone, as the streaming explainer calls it: any combinations,
    // any weights, sparse ids.
    #[test]
    fn combination_counts_equal_the_sorted_oracle() {
        for case in 0..120 {
            let (outliers, inliers, _, _) = generated_case(case);
            let mut combos: Vec<Vec<Item>> = outliers
                .iter()
                .map(|(t, _)| {
                    let mut c = t.clone();
                    c.sort_unstable();
                    c.dedup();
                    c
                })
                .filter(|c| !c.is_empty())
                .collect();
            combos.sort();
            combos.dedup();
            combos.reverse();
            let asked: Vec<&[Item]> = combos.iter().map(Vec::as_slice).collect();
            let wi: Vec<(&[Item], f64)> = inliers.iter().map(|(t, w)| (t.as_slice(), *w)).collect();
            let expected = oracle::count_combinations(&asked, &wi);
            let actual = count_combinations(&asked, |visit: Visit| {
                wi.iter().for_each(|&(t, w)| visit(t, w))
            });
            let bits = |counts: &[f64]| counts.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&actual), bits(&expected), "case {case}");
        }
    }

    mod pruning_props {
        use super::*;
        use proptest::prelude::*;

        fn transactions(
            max_len: usize,
            universe: Item,
            max_txns: usize,
        ) -> impl Strategy<Value = Vec<Vec<Item>>> {
            prop::collection::vec(
                prop::collection::vec(0..universe, 0..max_len + 1),
                0..max_txns + 1,
            )
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            // The sorted-table descent adds a transaction's weight to exactly
            // the combinations a containment check per combination would —
            // with repeated items in transactions and combinations that are
            // prefixes of one another.
            #[test]
            fn counted_combinations_equal_a_containment_scan(
                raw_combos in transactions(4, 10, 30),
                inliers in transactions(7, 10, 120),
            ) {
                let mut combos: Vec<Vec<Item>> = raw_combos
                    .into_iter()
                    .map(|mut c| { c.sort_unstable(); c.dedup(); c })
                    .filter(|c| !c.is_empty())
                    .collect();
                combos.sort();
                combos.dedup();
                // Ask in an order that is not the table's.
                combos.reverse();
                let asked: Vec<&[Item]> = combos.iter().map(Vec::as_slice).collect();
                let counted = count_combinations(&asked, |visit: Visit| {
                    for (i, t) in inliers.iter().enumerate() {
                        visit(t, 1.0 + i as f64);
                    }
                });
                for (combo, count) in combos.iter().zip(&counted) {
                    let scanned: f64 = inliers
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| combo.iter().all(|item| t.contains(item)))
                        .map(|(i, _)| 1.0 + i as f64)
                        .sum();
                    prop_assert_eq!(*count, scanned);
                }
            }

            // The risk-ratio-ceiling pruning (candidate pre-filter + bounded
            // FP-growth descent) must be output-identical to the unpruned
            // pipeline on arbitrary transaction sets and thresholds.
            #[test]
            fn pruned_explanations_equal_unpruned(
                outliers in transactions(5, 12, 40),
                inliers in transactions(5, 12, 200),
                min_support in 0.01f64..0.5,
                min_risk_ratio in 1.0f64..10.0,
            ) {
                let explainer = BatchExplainer::new(
                    ExplanationConfig::new(min_support, min_risk_ratio),
                );
                let wo: Vec<(&[Item], f64)> =
                    outliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
                let wi: Vec<(&[Item], f64)> =
                    inliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
                let (to, ti) = (outliers.len() as f64, inliers.len() as f64);
                let explain = |prune| {
                    explainer.explain_weighted_impl(
                        walk(wo.iter().copied()),
                        &walk(wi.iter().copied()),
                        to,
                        ti,
                        prune,
                    )
                };
                assert_same_explanations(explain(true), explain(false));
            }
        }
    }

    /// One generated case for the sharded-count test: a labeled batch of
    /// ragged rows (empty ones and repeated items included) over ids dense
    /// from 0, and a configuration mining combinations of 2 and more. The
    /// case number picks the shape: every fourth batch holds a handful of
    /// rows (fewer than the shard counts tried), and some cases label no row
    /// or every row an outlier.
    fn generated_batch(case: u64) -> (ItemBatch, Vec<bool>, ExplanationConfig) {
        let mut rng = SplitMix64::new(0x5A4D ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let rows = if case % 4 == 1 {
            rng.next_below(8)
        } else {
            40 + rng.next_below(600)
        };
        let outlier_share = match case % 9 {
            0 => 0.0,
            4 => 1.0,
            _ => 0.05 + 0.3 * rng.next_f64(),
        };
        // Outliers lean on a few planted ids, so combinations clear support.
        let (planted, common) = (6, 30);
        let mut batch = ItemBatch::new();
        let mut labels = Vec::with_capacity(rows);
        for _ in 0..rows {
            let is_outlier = rng.next_f64() < outlier_share;
            for _ in 0..rng.next_below(7) {
                let item = if is_outlier && rng.next_below(3) > 0 {
                    rng.next_below(planted)
                } else {
                    planted + rng.next_below(common)
                };
                batch.push_item(item as Item);
            }
            batch.finish_row();
            labels.push(is_outlier);
        }
        let config =
            ExplanationConfig::new(0.01 + 0.2 * rng.next_f64(), 1.0 + 4.0 * rng.next_f64())
                .with_max_combination_size(2 + rng.next_below(3));
        (batch, labels, config)
    }

    // Counting the inliers in row shards and adding the shards' counts
    // gives the one-walk counts bit for bit, at any shard count — more
    // shards than rows included — and both equal `explain` over the
    // classes split into transaction lists.
    #[test]
    fn sharded_counts_equal_serial_counts() {
        let pool = mb_pool::Pool::new(4);
        let mut combinations = 0;
        for case in 0..160 {
            let (batch, labels, config) = generated_batch(case);
            let explainer = BatchExplainer::new(config);
            let outlier = |r: usize| labels[r];
            let one = explainer.explain_in_shards(&batch, &outlier, &pool, 1);
            let (outliers, inliers): (Vec<_>, Vec<_>) =
                batch.to_rows().into_iter().zip(&labels).partition(|(_, &o)| o);
            let split = |class: Vec<(Vec<Item>, &bool)>| -> Vec<Vec<Item>> {
                class.into_iter().map(|(row, _)| row).collect()
            };
            let serial = explainer.explain(&split(outliers), &split(inliers));
            assert_bit_identical(&one, &serial, case);
            for shards in 2..=16 {
                let sharded = explainer.explain_in_shards(&batch, &outlier, &pool, shards);
                assert_bit_identical(&sharded, &one, case);
            }
            combinations += one.iter().filter(|e| e.items.len() >= 2).count();
        }
        // The generator must reach Stage 3's combination counts.
        assert!(
            combinations > 100,
            "only {combinations} combinations across all cases"
        );
    }

    #[test]
    fn outliers_without_inliers_partial_support_is_reported() {
        // Half the outliers carry item 1; with no inliers the unexposed group
        // is the other outliers, so the risk ratio is finite but > 1 only if
        // the exposed rate exceeds the unexposed rate - here every exposed
        // point is an outlier and so is every unexposed one, giving ratio 1
        // and therefore no explanation. Add inliers lacking the item to get a
        // reportable ratio.
        let mut outliers: Vec<Vec<Item>> = (0..50).map(|_| vec![1, 2]).collect();
        outliers.extend((0..50).map(|_| vec![3, 4]));
        let inliers: Vec<Vec<Item>> = (0..1000).map(|_| vec![3, 4]).collect();
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.1, 3.0));
        let explanations = explainer.explain(&outliers, &inliers);
        assert!(explanations.iter().any(|e| e.items == vec![1, 2]));
        assert!(!explanations.iter().any(|e| e.items == vec![3, 4]));
    }
}
