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
use crate::partition::ExplainState;
use crate::risk_ratio::{risk_ratio_from_totals, Explanation, ExplanationStats};
use crate::ExplanationConfig;
use mb_fpgrowth::fptree::FpTree;
use mb_fpgrowth::{FrequentItemset, Item};
use std::collections::HashMap;

/// The outlier-aware batch explainer (Algorithm 2).
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
        let weighted_outliers: Vec<(&[Item], f64)> =
            outliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
        let weighted_inliers: Vec<(&[Item], f64)> =
            inliers.iter().map(|t| (t.as_slice(), 1.0)).collect();
        self.explain_weighted(
            &weighted_outliers,
            &weighted_inliers,
            outliers.len() as f64,
            inliers.len() as f64,
        )
    }

    /// Produce explanations for one columnar batch of encoded rows, where
    /// `outlier(r)` says whether row `r` was labeled an outlier. Every row
    /// counts toward its class total (attribute-less rows included), exactly
    /// as [`explain`](BatchExplainer::explain) over split transaction lists.
    pub fn explain_labeled(
        &self,
        rows: &ItemBatch,
        outlier: impl Fn(usize) -> bool,
    ) -> Vec<Explanation> {
        let mut outliers: Vec<(&[Item], f64)> = Vec::new();
        let mut inliers: Vec<(&[Item], f64)> = Vec::new();
        for (r, row) in rows.iter().enumerate() {
            if outlier(r) {
                outliers.push((row, 1.0));
            } else {
                inliers.push((row, 1.0));
            }
        }
        self.explain_weighted(
            &outliers,
            &inliers,
            outliers.len() as f64,
            inliers.len() as f64,
        )
    }

    /// Produce explanations from pre-render state — typically the merge of
    /// per-partition [`ExplainState`]s. Support and risk-ratio thresholds
    /// are applied to the *merged* counts, so the result is identical to
    /// explaining the concatenated partitions in one shot (no string-level
    /// union, no per-partition pruning).
    pub fn explain_state(&self, state: &ExplainState) -> Vec<Explanation> {
        let outliers = state.outlier_transactions();
        let inliers = state.inlier_transactions();
        let weighted_outliers: Vec<(&[Item], f64)> =
            outliers.iter().map(|(t, w)| (t.as_slice(), *w)).collect();
        let weighted_inliers: Vec<(&[Item], f64)> =
            inliers.iter().map(|(t, w)| (t.as_slice(), *w)).collect();
        self.explain_weighted(
            &weighted_outliers,
            &weighted_inliers,
            state.total_outliers(),
            state.total_inliers(),
        )
    }

    /// The outlier-aware strategy over weighted, possibly pre-aggregated
    /// transactions. `total_outliers`/`total_inliers` are passed explicitly
    /// because attribute-less points count toward class totals without
    /// appearing as transactions.
    fn explain_weighted(
        &self,
        outliers: &[(&[Item], f64)],
        inliers: &[(&[Item], f64)],
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
        outliers: &[(&[Item], f64)],
        inliers: &[(&[Item], f64)],
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
        // set. Per-item occurrences are gathered and aggregated by a stable
        // sort over (item, weight) pairs — within one item, weights still sum
        // in transaction order, so weighted totals are bit-identical to a
        // map-based accumulation.
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
        // Candidates stay sorted by item id, so every later membership test
        // is a binary search over this small vector — no hashing anywhere on
        // the inlier-scan hot path.
        let candidates: Vec<(Item, f64)> = outlier_singles
            .iter()
            .copied()
            .filter(|&(_, count)| count >= min_outlier_count && (!prune || ceiling(count)))
            .collect();
        if candidates.is_empty() {
            return Vec::new();
        }
        let candidate_items: Vec<Item> = candidates.iter().map(|&(item, _)| item).collect();

        // Stage 1b: one pass over the inliers counting ONLY the supported
        // candidates (this is the cardinality-aware pruning).
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

        // Stage 1c: filter candidates by single-item risk ratio (sorted
        // order is preserved).
        let surviving: Vec<Item> = candidates
            .iter()
            .enumerate()
            .filter(|&(pos, &(_, ao))| {
                risk_ratio_from_totals(
                    ao,
                    candidate_inlier_counts[pos],
                    total_outliers,
                    total_inliers,
                ) >= self.config.min_risk_ratio
            })
            .map(|(_, &(item, _))| item)
            .collect();
        if surviving.is_empty() {
            return Vec::new();
        }

        explain_combinations(
            &self.config,
            &surviving,
            (total_outliers, total_inliers),
            prune,
            |visit| outliers.iter().for_each(|&(t, weight)| visit(t, weight)),
            |visit| inliers.iter().for_each(|&(t, weight)| visit(t, weight)),
            |item| {
                let pos = candidate_items.binary_search(&item).ok()?;
                Some(candidate_inlier_counts[pos])
            },
        )
    }
}

/// Stages 2 and 3 of Algorithm 2, for the batch and the streaming explainer
/// alike: mine the outlier transactions restricted to `surviving` (sorted —
/// the attribute values whose own risk ratio passed), count the mined
/// combinations among the inlier transactions, and keep what clears the
/// risk-ratio threshold.
///
/// Both classes arrive as a walk — a function that feeds every weighted
/// transaction to the visitor it is given — so a caller holding a prefix tree
/// need not export it. The inliers are walked once, and only if the outliers
/// produced a combination. A mined single is scored against
/// `single_inlier_count`; `None` leaves it out, for a caller that reports
/// single values from a source of its own. `prune` turns the risk-ratio
/// ceiling inside FP-growth on (off only in tests, which pin it
/// output-identical).
pub(crate) fn explain_combinations(
    config: &ExplanationConfig,
    surviving: &[Item],
    (total_outliers, total_inliers): (f64, f64),
    prune: bool,
    outliers: impl FnOnce(&mut dyn FnMut(&[Item], f64)),
    inliers: impl FnOnce(&mut dyn FnMut(&[Item], f64)),
    single_inlier_count: impl Fn(Item) -> Option<f64>,
) -> Vec<Explanation> {
    let min_outlier_count = config.min_outlier_count(total_outliers);
    let ceiling = |support: f64| {
        risk_ratio_from_totals(support, 0.0, total_outliers, total_inliers)
            >= config.min_risk_ratio
    };

    // Stage 2: mine combinations over the outliers restricted to the
    // surviving attribute values.
    let mut filtered_outliers: Vec<(Vec<Item>, f64)> = Vec::new();
    outliers(&mut |transaction, weight| {
        let items: Vec<Item> = transaction
            .iter()
            .copied()
            .filter(|item| surviving.binary_search(item).is_ok())
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
/// of the transactions that contain it — the restricted inlier pass of
/// Algorithm 2. `transactions` is called once, with the visitor to feed, and
/// not at all when there is nothing to count.
///
/// The combinations are laid out as a lexicographically sorted table, which
/// is a trie read by range: a transaction, cut down to the items any
/// combination uses, descends it one matching prefix at a time
/// ([`add_contained`]). The cost per transaction follows the prefixes it
/// actually shares with the table — never `transactions × combinations`, and
/// never a sub-combination nobody asked about. Each count still accumulates
/// in transaction order.
fn count_combinations(
    combos: &[&[Item]],
    transactions: impl FnOnce(&mut dyn FnMut(&[Item], f64)),
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
    transactions(&mut |transaction, weight| {
        present.clear();
        present.extend(
            transaction
                .iter()
                .copied()
                .filter(|item| used.binary_search(item).is_ok()),
        );
        if present.len() < shortest {
            return;
        }
        present.sort_unstable();
        present.dedup();
        add_contained(&table, 0, &present, weight, &mut counts);
    });
    counts
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
    let inlier_counts: HashMap<Vec<Item>, f64> = inlier_sets
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
mod tests {
    use super::*;
    use crate::risk_ratio::rank_explanations;

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
    fn explain_state_is_exactly_explain() {
        let (outliers, inliers) = planted_workload(1_000, 20_000, 0.8);
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        let mut state = ExplainState::new();
        for t in &outliers {
            state.observe(t, true);
        }
        for t in &inliers {
            state.observe(t, false);
        }
        assert_same_explanations(
            explainer.explain_state(&state),
            explainer.explain(&outliers, &inliers),
        );
    }

    #[test]
    fn merged_partition_states_reproduce_one_shot_explanations() {
        use mb_sketch::Mergeable;
        let (outliers, inliers) = planted_workload(1_000, 20_000, 0.7);
        let explainer = BatchExplainer::new(ExplanationConfig::new(0.01, 3.0));
        // Scatter the classified stream over 4 partition states round-robin,
        // so per-partition supports are well below the global threshold.
        let mut states: Vec<ExplainState> = (0..4).map(|_| ExplainState::new()).collect();
        for (i, t) in outliers.iter().enumerate() {
            states[i % 4].observe(t, true);
        }
        for (i, t) in inliers.iter().enumerate() {
            states[i % 4].observe(t, false);
        }
        let mut merged = states.remove(0);
        for state in states {
            merged.merge(state);
        }
        assert_same_explanations(
            explainer.explain_state(&merged),
            explainer.explain(&outliers, &inliers),
        );
    }

    #[test]
    fn explain_state_on_empty_state_is_empty() {
        let explainer = BatchExplainer::new(ExplanationConfig::default());
        assert!(explainer.explain_state(&ExplainState::new()).is_empty());
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
        assert_same_explanations(
            explainer.explain_weighted_impl(&wo, &wi, to, ti, true),
            explainer.explain_weighted_impl(&wo, &wi, to, ti, false),
        );
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
                let counted = count_combinations(&asked, |visit| {
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
                let pruned = explainer.explain_weighted_impl(&wo, &wi, to, ti, true);
                let unpruned = explainer.explain_weighted_impl(&wo, &wi, to, ti, false);
                assert_same_explanations(pruned, unpruned);
            }
        }
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
