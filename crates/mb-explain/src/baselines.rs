//! Alternative explanation strategies used as baselines in the Table 5
//! runtime comparison: data cubing, decision trees, and Apriori.
//!
//! These are deliberately faithful-but-unoptimized reimplementations of the
//! approaches the paper compares against ("Cube" after Roy & Suciu's data
//! cube enumeration, "DT10"/"DT100" decision trees after Chen et al., and
//! "AP" Apriori itemset mining). They produce risk-ratio-filtered attribute
//! combinations like MacroBase does, but each spends time the cardinality-
//! aware strategy avoids: cubing enumerates every value combination, the
//! decision tree repeatedly rescans both classes while splitting, and Apriori
//! rescans the transactions once per itemset size on both classes.

use crate::risk_ratio::{Explanation, ExplanationStats};
use crate::ExplanationConfig;
use mb_fpgrowth::apriori::apriori;
use mb_fpgrowth::Item;
use std::collections::{BTreeMap, BTreeSet};

/// Data-cube explanation: enumerate every combination of up to
/// `config.max_combination_size` attribute *columns*, group both classes by
/// the projected value tuple, and report groups passing the support and
/// risk-ratio thresholds.
///
/// Transactions must be column-aligned: `transaction[c]` is the item encoding
/// the value of attribute column `c` (which is how
/// [`crate::encoder::AttributeEncoder::encode_point`] produces them).
pub fn cube_explain(
    outliers: &[Vec<Item>],
    inliers: &[Vec<Item>],
    config: &ExplanationConfig,
) -> Vec<Explanation> {
    let total_outliers = outliers.len() as f64;
    let total_inliers = inliers.len() as f64;
    if outliers.is_empty() {
        return Vec::new();
    }
    let num_columns = outliers.iter().map(|t| t.len()).max().unwrap_or(0);
    let min_outlier_count = (config.min_support * total_outliers).max(1.0);

    // Enumerate all non-empty column subsets up to the size bound.
    let mut column_subsets: Vec<Vec<usize>> = Vec::new();
    for mask in 1u64..(1 << num_columns.min(20)) {
        let subset: Vec<usize> = (0..num_columns)
            .filter(|c| mask & (1 << c) != 0)
            .collect();
        if subset.len() <= config.max_combination_size {
            column_subsets.push(subset);
        }
    }

    let mut explanations = Vec::new();
    for subset in &column_subsets {
        // Group both classes by the projected value tuple.
        let mut outlier_groups: BTreeMap<Vec<Item>, f64> = BTreeMap::new();
        for t in outliers {
            if let Some(key) = project(t, subset) {
                *outlier_groups.entry(key).or_insert(0.0) += 1.0;
            }
        }
        let mut inlier_groups: BTreeMap<Vec<Item>, f64> = BTreeMap::new();
        for t in inliers {
            if let Some(key) = project(t, subset) {
                *inlier_groups.entry(key).or_insert(0.0) += 1.0;
            }
        }
        // Emit groups in canonical key order, the map's own.
        for (key, ao) in outlier_groups {
            if ao < min_outlier_count {
                continue;
            }
            let ai = inlier_groups.get(&key).copied().unwrap_or(0.0);
            let stats = ExplanationStats::from_counts(ao, ai, total_outliers, total_inliers);
            if stats.risk_ratio >= config.min_risk_ratio {
                explanations.push(Explanation::new(key, stats));
            }
        }
    }
    explanations
}

fn project(transaction: &[Item], columns: &[usize]) -> Option<Vec<Item>> {
    let mut key = Vec::with_capacity(columns.len());
    for &c in columns {
        key.push(*transaction.get(c)?);
    }
    Some(key)
}

/// A node of the explanation decision tree.
#[derive(Debug, Clone)]
enum TreeNode {
    Leaf {
        outliers: f64,
        inliers: f64,
    },
    Split {
        item: Item,
        /// Subtree for transactions containing `item`.
        present: Box<TreeNode>,
        /// Subtree for transactions not containing `item`.
        absent: Box<TreeNode>,
    },
}

/// Decision-tree explanation ("DTx" in Table 5): greedily build a tree of
/// item-presence splits (maximizing information gain on the outlier/inlier
/// labels) up to `max_depth`, then report the item sets along root-to-leaf
/// paths whose leaves pass the support and risk-ratio thresholds.
pub fn decision_tree_explain(
    outliers: &[Vec<Item>],
    inliers: &[Vec<Item>],
    max_depth: usize,
    config: &ExplanationConfig,
) -> Vec<Explanation> {
    let total_outliers = outliers.len() as f64;
    let total_inliers = inliers.len() as f64;
    if outliers.is_empty() {
        return Vec::new();
    }
    let outlier_sets: Vec<BTreeSet<Item>> = outliers
        .iter()
        .map(|t| t.iter().copied().collect())
        .collect();
    let inlier_sets: Vec<BTreeSet<Item>> = inliers
        .iter()
        .map(|t| t.iter().copied().collect())
        .collect();
    let candidate_set: BTreeSet<Item> = outliers.iter().flatten().copied().collect();
    // Sorted candidate order makes gain-tie splits (and thus the whole
    // tree) deterministic.
    let candidates: Vec<Item> = candidate_set.into_iter().collect();

    let tree = build_tree(
        &outlier_sets.iter().collect::<Vec<_>>(),
        &inlier_sets.iter().collect::<Vec<_>>(),
        &candidates,
        max_depth,
    );

    let min_outlier_count = (config.min_support * total_outliers).max(1.0);
    let mut explanations = Vec::new();
    collect_paths(
        &tree,
        &mut Vec::new(),
        min_outlier_count,
        config.min_risk_ratio,
        total_outliers,
        total_inliers,
        &mut explanations,
    );
    explanations
}

fn entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        0.0
    } else {
        -p * p.log2() - (1.0 - p) * (1.0 - p).log2()
    }
}

fn build_tree(
    outliers: &[&BTreeSet<Item>],
    inliers: &[&BTreeSet<Item>],
    candidates: &[Item],
    depth_remaining: usize,
) -> TreeNode {
    let no = outliers.len() as f64;
    let ni = inliers.len() as f64;
    if depth_remaining == 0 || no == 0.0 || ni == 0.0 || candidates.is_empty() {
        return TreeNode::Leaf {
            outliers: no,
            inliers: ni,
        };
    }
    let parent_entropy = entropy(no / (no + ni));
    let mut best: Option<(f64, Item)> = None;
    for &item in candidates {
        let o_with = outliers.iter().filter(|s| s.contains(&item)).count() as f64;
        let i_with = inliers.iter().filter(|s| s.contains(&item)).count() as f64;
        let o_without = no - o_with;
        let i_without = ni - i_with;
        let n_with = o_with + i_with;
        let n_without = o_without + i_without;
        if n_with == 0.0 || n_without == 0.0 {
            continue;
        }
        let gain = parent_entropy
            - (n_with / (no + ni)) * entropy(o_with / n_with)
            - (n_without / (no + ni)) * entropy(o_without / n_without);
        if best.map(|(g, _)| gain > g).unwrap_or(gain > 1e-9) {
            best = Some((gain, item));
        }
    }
    let Some((_, split_item)) = best else {
        return TreeNode::Leaf {
            outliers: no,
            inliers: ni,
        };
    };
    let o_present: Vec<&BTreeSet<Item>> = outliers
        .iter()
        .copied()
        .filter(|s| s.contains(&split_item))
        .collect();
    let o_absent: Vec<&BTreeSet<Item>> = outliers
        .iter()
        .copied()
        .filter(|s| !s.contains(&split_item))
        .collect();
    let i_present: Vec<&BTreeSet<Item>> = inliers
        .iter()
        .copied()
        .filter(|s| s.contains(&split_item))
        .collect();
    let i_absent: Vec<&BTreeSet<Item>> = inliers
        .iter()
        .copied()
        .filter(|s| !s.contains(&split_item))
        .collect();
    let remaining: Vec<Item> = candidates
        .iter()
        .copied()
        .filter(|&c| c != split_item)
        .collect();
    TreeNode::Split {
        item: split_item,
        present: Box::new(build_tree(
            &o_present,
            &i_present,
            &remaining,
            depth_remaining - 1,
        )),
        absent: Box::new(build_tree(
            &o_absent,
            &i_absent,
            &remaining,
            depth_remaining - 1,
        )),
    }
}

fn collect_paths(
    node: &TreeNode,
    path: &mut Vec<Item>,
    min_outlier_count: f64,
    min_risk_ratio: f64,
    total_outliers: f64,
    total_inliers: f64,
    out: &mut Vec<Explanation>,
) {
    match node {
        TreeNode::Leaf { outliers, inliers } => {
            if path.is_empty() || *outliers < min_outlier_count {
                return;
            }
            let stats = ExplanationStats::from_counts(
                *outliers,
                *inliers,
                total_outliers,
                total_inliers,
            );
            if stats.risk_ratio >= min_risk_ratio {
                out.push(Explanation::new(path.clone(), stats));
            }
        }
        TreeNode::Split {
            item,
            present,
            absent,
        } => {
            path.push(*item);
            collect_paths(
                present,
                path,
                min_outlier_count,
                min_risk_ratio,
                total_outliers,
                total_inliers,
                out,
            );
            path.pop();
            // The "absent" branch describes points *lacking* the item; those
            // paths are not attribute combinations, so only recurse to find
            // further positive splits beneath it.
            collect_paths(
                absent,
                path,
                min_outlier_count,
                min_risk_ratio,
                total_outliers,
                total_inliers,
                out,
            );
        }
    }
}

/// Apriori-based explanation ("AP" in Table 5): mine the outlier transactions
/// with Apriori, mine the inlier transactions with Apriori at the same
/// relative support (the wasted work), join, and filter by risk ratio.
pub fn apriori_explain(
    outliers: &[Vec<Item>],
    inliers: &[Vec<Item>],
    config: &ExplanationConfig,
) -> Vec<Explanation> {
    let total_outliers = outliers.len() as f64;
    let total_inliers = inliers.len() as f64;
    if outliers.is_empty() {
        return Vec::new();
    }
    let min_outlier_count = (config.min_support * total_outliers).max(1.0);
    let outlier_sets = apriori(outliers, min_outlier_count, config.max_combination_size);
    let min_inlier_count = (config.min_support * total_inliers).max(1.0);
    let inlier_sets = apriori(inliers, min_inlier_count, config.max_combination_size);
    let inlier_counts: BTreeMap<Vec<Item>, f64> = inlier_sets
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
    use crate::batch::BatchExplainer;

    /// Column-aligned workload: column 0 is a device type, column 1 an app
    /// version, column 2 a user id bucket. Outliers are dominated by the
    /// (device=1, version=2) combination.
    fn planted_workload() -> (Vec<Vec<Item>>, Vec<Vec<Item>>) {
        let mut outliers = Vec::new();
        for i in 0..400 {
            if i % 5 != 0 {
                outliers.push(vec![1, 2, 100 + (i % 10) as Item]);
            } else {
                outliers.push(vec![10 + (i % 3) as Item, 20 + (i % 4) as Item, 100 + (i % 10) as Item]);
            }
        }
        let mut inliers = Vec::new();
        for i in 0..4_000 {
            inliers.push(vec![
                10 + (i % 3) as Item,
                20 + (i % 4) as Item,
                100 + (i % 10) as Item,
            ]);
        }
        (outliers, inliers)
    }

    #[test]
    fn cube_finds_planted_combination() {
        let (outliers, inliers) = planted_workload();
        let config = ExplanationConfig::new(0.05, 3.0);
        let explanations = cube_explain(&outliers, &inliers, &config);
        assert!(explanations.iter().any(|e| e.items == vec![1]));
        assert!(explanations.iter().any(|e| e.items == vec![1, 2]));
        // Shared user-id buckets must not be reported on their own.
        assert!(!explanations
            .iter()
            .any(|e| e.items.len() == 1 && e.items[0] >= 100));
    }

    #[test]
    fn cube_handles_empty_outliers() {
        let config = ExplanationConfig::default();
        assert!(cube_explain(&[], &[vec![1, 2]], &config).is_empty());
    }

    #[test]
    fn decision_tree_finds_planted_combination() {
        let (outliers, inliers) = planted_workload();
        let config = ExplanationConfig::new(0.05, 3.0);
        let explanations = decision_tree_explain(&outliers, &inliers, 10, &config);
        assert!(!explanations.is_empty());
        // The tree should split on the planted attributes; the top path must
        // contain item 1 and/or 2.
        assert!(explanations
            .iter()
            .any(|e| e.items.contains(&1) || e.items.contains(&2)));
        // Every reported path meets the risk ratio threshold.
        assert!(explanations
            .iter()
            .all(|e| e.stats.risk_ratio >= 3.0 || e.stats.risk_ratio.is_infinite()));
    }

    #[test]
    fn decision_tree_depth_zero_returns_nothing() {
        let (outliers, inliers) = planted_workload();
        let config = ExplanationConfig::new(0.05, 3.0);
        let explanations = decision_tree_explain(&outliers, &inliers, 0, &config);
        assert!(explanations.is_empty());
    }

    #[test]
    fn apriori_explainer_matches_macrobase_on_planted_workload() {
        let (outliers, inliers) = planted_workload();
        let config = ExplanationConfig::new(0.05, 3.0);
        let ap = apriori_explain(&outliers, &inliers, &config);
        let mb = BatchExplainer::new(config).explain(&outliers, &inliers);
        // Both must find the planted pair.
        assert!(ap.iter().any(|e| e.items == vec![1, 2]));
        assert!(mb.iter().any(|e| e.items == vec![1, 2]));
        // Support counts of the pair agree.
        let ap_pair = ap.iter().find(|e| e.items == vec![1, 2]).unwrap();
        let mb_pair = mb.iter().find(|e| e.items == vec![1, 2]).unwrap();
        assert!((ap_pair.stats.outlier_count - mb_pair.stats.outlier_count).abs() < 1e-9);
    }

    #[test]
    fn all_baselines_respect_risk_ratio_threshold() {
        let (outliers, inliers) = planted_workload();
        let config = ExplanationConfig::new(0.05, 3.0);
        for explanations in [
            cube_explain(&outliers, &inliers, &config),
            decision_tree_explain(&outliers, &inliers, 10, &config),
            apriori_explain(&outliers, &inliers, &config),
        ] {
            for e in &explanations {
                assert!(
                    e.stats.risk_ratio >= 3.0 || e.stats.risk_ratio.is_infinite(),
                    "explanation below threshold: {e:?}"
                );
            }
        }
    }
}
