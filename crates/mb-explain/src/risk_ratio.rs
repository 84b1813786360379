//! The relative risk ratio and explanation result types (Section 5.1).
//!
//! Given an attribute combination appearing `ao` times among outliers and
//! `ai` times among inliers, with `bo` other outliers and `bi` other inliers,
//! the risk ratio is
//!
//! ```text
//! risk ratio = (ao / (ao + ai)) / (bo / (bo + bi))
//! ```
//!
//! i.e. how much more likely a point carrying the combination is to be an
//! outlier than a point that does not carry it. MDP reports combinations
//! whose support among outliers and risk ratio both exceed user thresholds.

use mb_fpgrowth::Item;

/// Compute the relative risk ratio from the four contingency counts.
///
/// Edge cases (all arise in practice on small windows):
/// * no outlier occurrences (`ao == 0`) → 0 (nothing to report);
/// * no "unexposed" points at all (`bo + bi == 0`, i.e. every point carries
///   the combination) → 0 — with no comparison group the combination carries
///   no evidence of elevated risk and must not be reported;
/// * unexposed points exist but none of them is an outlier (`bo == 0`,
///   `bi > 0`) → `+∞` (the combination perfectly separates outliers).
pub fn risk_ratio(ao: f64, ai: f64, bo: f64, bi: f64) -> f64 {
    debug_assert!(ao >= 0.0 && ai >= 0.0 && bo >= 0.0 && bi >= 0.0);
    if ao <= 0.0 {
        return 0.0;
    }
    let exposed_rate = ao / (ao + ai);
    if bo + bi <= 0.0 {
        return 0.0;
    }
    if bo <= 0.0 {
        return f64::INFINITY;
    }
    let unexposed_rate = bo / (bo + bi);
    exposed_rate / unexposed_rate
}

/// Compute the risk ratio from total class sizes instead of complements:
/// `outlier_count`/`inlier_count` are the occurrences of the combination, and
/// `total_outliers`/`total_inliers` the class sizes.
pub(crate) fn risk_ratio_from_totals(
    outlier_count: f64,
    inlier_count: f64,
    total_outliers: f64,
    total_inliers: f64,
) -> f64 {
    let bo = (total_outliers - outlier_count).max(0.0);
    let bi = (total_inliers - inlier_count).max(0.0);
    risk_ratio(outlier_count, inlier_count, bo, bi)
}

/// Statistics attached to a reported explanation.
#[derive(Debug, Clone, PartialEq)]
pub struct ExplanationStats {
    /// Number of outlier points containing the combination (decayed count in
    /// streaming mode).
    pub outlier_count: f64,
    /// Number of inlier points containing the combination.
    pub inlier_count: f64,
    /// Support among outliers: `outlier_count / total_outliers`.
    pub outlier_support: f64,
    /// The relative risk ratio.
    pub risk_ratio: f64,
    /// Total outliers / inliers the counts are relative to.
    pub total_outliers: f64,
    /// Total inlier count the explanation was computed against.
    pub total_inliers: f64,
}

impl ExplanationStats {
    /// Compute stats from counts and totals.
    pub fn from_counts(
        outlier_count: f64,
        inlier_count: f64,
        total_outliers: f64,
        total_inliers: f64,
    ) -> Self {
        ExplanationStats {
            outlier_count,
            inlier_count,
            outlier_support: if total_outliers > 0.0 {
                outlier_count / total_outliers
            } else {
                0.0
            },
            risk_ratio: risk_ratio_from_totals(
                outlier_count,
                inlier_count,
                total_outliers,
                total_inliers,
            ),
            total_outliers,
            total_inliers,
        }
    }
}

/// One explanation: an attribute-value combination plus its statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// The attribute-value items in the combination (sorted ascending).
    pub items: Vec<Item>,
    /// Statistics supporting the explanation.
    pub stats: ExplanationStats,
}

impl Explanation {
    /// Create an explanation, normalizing item order.
    pub fn new(mut items: Vec<Item>, stats: ExplanationStats) -> Self {
        items.sort_unstable();
        Explanation { items, stats }
    }
}

/// Rank explanations for presentation (Section 3.2, stage 5): by descending
/// risk ratio, breaking ties by descending outlier support, then by items for
/// determinism.
pub fn rank_explanations(explanations: &mut [Explanation]) {
    explanations.sort_by(|a, b| {
        b.stats
            .risk_ratio
            .total_cmp(&a.stats.risk_ratio)
            .then_with(|| {
                b.stats
                    .outlier_support
                    .total_cmp(&a.stats.outlier_support)
            })
            .then_with(|| a.items.cmp(&b.items))
    });
}

/// Jaccard similarity between two explanation sets (used in Table 2 to
/// compare one-shot and streaming results): |A ∩ B| / |A ∪ B| over the sets
/// of reported item combinations.
pub fn jaccard_similarity(a: &[Explanation], b: &[Explanation]) -> f64 {
    use std::collections::HashSet;
    let set_a: HashSet<&[Item]> = a.iter().map(|e| e.items.as_slice()).collect();
    let set_b: HashSet<&[Item]> = b.iter().map(|e| e.items.as_slice()).collect();
    if set_a.is_empty() && set_b.is_empty() {
        return 1.0;
    }
    let intersection = set_a.intersection(&set_b).count() as f64;
    let union = set_a.union(&set_b).count() as f64;
    intersection / union
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_iphone_example() {
        // Section 5.1: 500 of 890 outliers are iPhone 6 (support 56.2%) but
        // 80191 of 90922 inliers are too -> risk ratio 0.1767.
        let ao = 500.0;
        let ai = 80191.0;
        let bo = 890.0 - 500.0;
        let bi = 90922.0 - 80191.0;
        let rr = risk_ratio(ao, ai, bo, bi);
        assert!((rr - 0.1767).abs() < 0.001, "risk ratio was {rr}");
        let stats = ExplanationStats::from_counts(500.0, 80191.0, 890.0, 90922.0);
        assert!((stats.outlier_support - 0.5618).abs() < 0.001);
        assert!((stats.risk_ratio - 0.1767).abs() < 0.001);
    }

    #[test]
    fn systemic_combination_has_high_ratio() {
        // A combination present in 60% of outliers but only 1% of inliers.
        let stats = ExplanationStats::from_counts(600.0, 1_000.0, 1_000.0, 100_000.0);
        assert!(stats.risk_ratio > 50.0);
        assert!((stats.outlier_support - 0.6).abs() < 1e-12);
    }

    #[test]
    fn edge_cases() {
        assert_eq!(risk_ratio(0.0, 0.0, 10.0, 10.0), 0.0);
        assert_eq!(risk_ratio(0.0, 5.0, 10.0, 10.0), 0.0);
        assert_eq!(risk_ratio(5.0, 0.0, 0.0, 10.0), f64::INFINITY);
        // Every point carries the combination: no comparison group, no evidence.
        assert_eq!(risk_ratio(5.0, 5.0, 0.0, 0.0), 0.0);
        // Plain 2x enrichment.
        let rr = risk_ratio(10.0, 10.0, 10.0, 30.0);
        assert!((rr - 2.0).abs() < 1e-12);
    }

    #[test]
    fn risk_ratio_from_totals_matches_direct() {
        let direct = risk_ratio(30.0, 70.0, 70.0, 930.0);
        let from_totals = risk_ratio_from_totals(30.0, 70.0, 100.0, 1000.0);
        assert!((direct - from_totals).abs() < 1e-12);
    }

    #[test]
    fn ranking_orders_by_ratio_then_support() {
        let mut explanations = vec![
            Explanation::new(
                vec![1],
                ExplanationStats::from_counts(10.0, 100.0, 100.0, 10_000.0),
            ),
            Explanation::new(
                vec![2],
                ExplanationStats::from_counts(90.0, 10.0, 100.0, 10_000.0),
            ),
            Explanation::new(
                vec![3],
                ExplanationStats::from_counts(50.0, 10.0, 100.0, 10_000.0),
            ),
        ];
        rank_explanations(&mut explanations);
        assert_eq!(explanations[0].items, vec![2]);
        assert_eq!(explanations[1].items, vec![3]);
        assert_eq!(explanations[2].items, vec![1]);
    }

    #[test]
    fn jaccard_of_identical_and_disjoint_sets() {
        let stats = ExplanationStats::from_counts(1.0, 0.0, 10.0, 100.0);
        let a = vec![
            Explanation::new(vec![1], stats.clone()),
            Explanation::new(vec![2], stats.clone()),
        ];
        let b = vec![
            Explanation::new(vec![1], stats.clone()),
            Explanation::new(vec![2], stats.clone()),
        ];
        assert_eq!(jaccard_similarity(&a, &b), 1.0);
        let c = vec![Explanation::new(vec![3], stats.clone())];
        assert_eq!(jaccard_similarity(&a, &c), 0.0);
        let partial = vec![Explanation::new(vec![1], stats)];
        assert!((jaccard_similarity(&a, &partial) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard_similarity(&[], &[]), 1.0);
    }

    #[test]
    fn explanation_normalizes_item_order() {
        let stats = ExplanationStats::from_counts(1.0, 0.0, 10.0, 100.0);
        let e = Explanation::new(vec![5, 1, 3], stats);
        assert_eq!(e.items, vec![1, 3, 5]);
    }
}
