//! The single shared implementation of accuracy metrics.
//!
//! Every accuracy number the repo reports — the `fig4`/`fig11` F1 curves,
//! the `table4` DBSherlock ranks, the end-to-end integration tests, and the
//! `quality_matrix` gate — funnels through this module, so "precision"
//! always means the same arithmetic.
//!
//! Two levels of evaluation:
//!
//! * **Point level** ([`point_metrics`]): which rows were labeled outliers
//!   vs. which rows were planted ([`GroundTruth::outlier_rows`] against
//!   [`MdpReport::outlier_rows`]).
//! * **Explanation level**: which attribute combinations were indicted.
//!   [`explanation_jaccard`] scores the whole reported set against the
//!   guilty set; `value_metrics` scores the named attribute *values*
//!   (the figure 4/11 device-F1 convention); [`truth_rank`] finds where the
//!   true cause landed in the ranking (the Table 4 convention).
//!
//! [`GroundTruth::outlier_rows`]: crate::GroundTruth::outlier_rows
//! [`MdpReport::outlier_rows`]: macrobase_core::types::MdpReport::outlier_rows

use macrobase_core::types::RenderedExplanation;
use std::collections::BTreeSet;

/// Confusion counts for a binary decision, with the derived rates.
///
/// Degenerate cases follow the fleet-diagnosis convention the repo has
/// always used: an empty prediction set has perfect precision (no false
/// alarms), an empty truth set has perfect recall (nothing to find), so
/// empty-vs-empty scores F1 = 1.0 and any one-sided emptiness scores 0.0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BinaryMetrics {
    /// Predicted positives that were actually planted.
    pub true_positives: usize,
    /// Predicted positives that were not planted.
    pub false_positives: usize,
    /// Planted positives that were not predicted.
    pub false_negatives: usize,
}

impl BinaryMetrics {
    /// Build from explicit confusion counts.
    pub(crate) fn from_counts(
        true_positives: usize,
        false_positives: usize,
        false_negatives: usize,
    ) -> Self {
        BinaryMetrics {
            true_positives,
            false_positives,
            false_negatives,
        }
    }

    /// `tp / (tp + fp)`; 1.0 when nothing was predicted.
    pub fn precision(&self) -> f64 {
        let predicted = self.true_positives + self.false_positives;
        if predicted == 0 {
            1.0
        } else {
            self.true_positives as f64 / predicted as f64
        }
    }

    /// `tp / (tp + fn)`; 1.0 when nothing was planted.
    pub fn recall(&self) -> f64 {
        let actual = self.true_positives + self.false_negatives;
        if actual == 0 {
            1.0
        } else {
            self.true_positives as f64 / actual as f64
        }
    }

    /// Harmonic mean of precision and recall; 0.0 when both are zero.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

/// Point-level confusion counts: predicted outlier rows vs. planted rows.
/// Both slices are treated as sets (duplicates ignored).
pub fn point_metrics(predicted_rows: &[usize], truth_rows: &[usize]) -> BinaryMetrics {
    let predicted: BTreeSet<usize> = predicted_rows.iter().copied().collect();
    let truth: BTreeSet<usize> = truth_rows.iter().copied().collect();
    let tp = predicted.intersection(&truth).count();
    BinaryMetrics::from_counts(tp, predicted.len() - tp, truth.len() - tp)
}

/// Set-level confusion counts over attribute values (or any strings):
/// reported values vs. ground-truth values, duplicates ignored.
pub(crate) fn value_metrics(reported: &[String], truth: &[String]) -> BinaryMetrics {
    let reported: BTreeSet<&String> = reported.iter().collect();
    let truth: BTreeSet<&String> = truth.iter().collect();
    let tp = reported.intersection(&truth).count();
    BinaryMetrics::from_counts(tp, reported.len() - tp, truth.len() - tp)
}

/// F1 of reported attribute values against ground truth — the `fig4`/
/// `fig11` device-F1 metric (previously `device_f1_score` in `mb-ingest`).
pub fn value_f1(reported: &[String], truth: &[String]) -> f64 {
    value_metrics(reported, truth).f1()
}

/// The value part (`after the first '='`) of a rendered attribute string,
/// or the whole string if it carries no column prefix.
pub(crate) fn attribute_value(attribute: &str) -> &str {
    attribute.split('=').nth(1).unwrap_or(attribute)
}

/// Every attribute value named by a set of explanations, in report order
/// (duplicates preserved; the metric functions de-duplicate).
pub fn reported_values(explanations: &[RenderedExplanation]) -> Vec<String> {
    explanations
        .iter()
        .flat_map(|e| e.attributes.iter())
        .map(|a| attribute_value(a).to_string())
        .collect()
}

/// The set of attribute combinations named by a set of explanations, each
/// combination sorted so ordering differences don't affect set identity.
pub fn combination_set(explanations: &[RenderedExplanation]) -> BTreeSet<Vec<String>> {
    explanations
        .iter()
        .map(|e| {
            let mut attrs = e.attributes.clone();
            attrs.sort();
            attrs
        })
        .collect()
}

/// Jaccard similarity between two sets of attribute combinations
/// (`|A ∩ B| / |A ∪ B|`; 1.0 when both are empty).
pub fn jaccard(a: &BTreeSet<Vec<String>>, b: &BTreeSet<Vec<String>>) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 1.0;
    }
    let intersection = a.intersection(b).count() as f64;
    let union = a.union(b).count() as f64;
    intersection / union
}

/// Jaccard similarity between a report's explanations and the guilty
/// combinations of a [`GroundTruth`](crate::GroundTruth) (each combination
/// is sorted before comparison).
pub fn explanation_jaccard(explanations: &[RenderedExplanation], truth: &[Vec<String>]) -> f64 {
    let reported = combination_set(explanations);
    let truth: BTreeSet<Vec<String>> = truth
        .iter()
        .map(|combo| {
            let mut combo = combo.clone();
            combo.sort();
            combo
        })
        .collect();
    jaccard(&reported, &truth)
}

/// 1-based rank of the first explanation naming the true cause (`None` if
/// absent) — the Table 4 / DBSherlock accuracy convention. An explanation
/// matches when any of its rendered attributes ends with `truth`.
pub fn truth_rank(explanations: &[RenderedExplanation], truth: &str) -> Option<usize> {
    explanations
        .iter()
        .position(|e| e.attributes.iter().any(|a| a.ends_with(truth)))
        .map(|idx| idx + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_explain::risk_ratio::ExplanationStats;

    fn explanation(attributes: &[&str]) -> RenderedExplanation {
        RenderedExplanation {
            attributes: attributes.iter().map(|s| s.to_string()).collect(),
            items: Vec::new(),
            stats: ExplanationStats {
                outlier_count: 1.0,
                inlier_count: 0.0,
                outlier_support: 1.0,
                risk_ratio: f64::INFINITY,
                total_outliers: 1.0,
                total_inliers: 1.0,
            },
        }
    }

    #[test]
    fn point_metrics_counts_confusion() {
        let m = point_metrics(&[1, 2, 3, 4], &[3, 4, 5]);
        assert_eq!(m, BinaryMetrics::from_counts(2, 2, 1));
        assert_eq!(m.precision(), 0.5);
        assert!((m.recall() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_cases_follow_the_device_f1_convention() {
        // Mirrors the retired mb_ingest::synthetic::device_f1_score tests.
        let truth = vec!["a".to_string(), "b".to_string()];
        assert_eq!(value_f1(&truth.clone(), &truth), 1.0);
        assert_eq!(value_f1(&[], &truth), 0.0);
        assert_eq!(value_f1(&["c".to_string()], &truth), 0.0);
        let partial = value_f1(&["a".to_string()], &truth);
        assert!(partial > 0.0 && partial < 1.0);
        assert_eq!(value_f1(&[], &[]), 1.0);
        assert_eq!(point_metrics(&[], &[]).f1(), 1.0);
        assert_eq!(point_metrics(&[1], &[]).f1(), 0.0);
    }

    #[test]
    fn value_extraction_strips_the_column_prefix() {
        assert_eq!(attribute_value("device=device_13"), "device_13");
        assert_eq!(attribute_value("bare_value"), "bare_value");
        let values = reported_values(&[explanation(&["device=device_13", "host=host_03"])]);
        assert_eq!(values, vec!["device_13".to_string(), "host_03".to_string()]);
    }

    #[test]
    fn jaccard_ignores_attribute_order_within_combinations() {
        let reported = [
            explanation(&["b=2", "a=1"]),
            explanation(&["c=3"]),
        ];
        let truth = vec![
            vec!["a=1".to_string(), "b=2".to_string()],
            vec!["d=4".to_string()],
        ];
        let score = explanation_jaccard(&reported, &truth);
        assert!((score - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(explanation_jaccard(&[], &[]), 1.0);
    }

    #[test]
    fn truth_rank_is_one_based_and_suffix_matched() {
        let explanations = [
            explanation(&["host=host_01"]),
            explanation(&["host=host_03"]),
        ];
        assert_eq!(truth_rank(&explanations, "host_03"), Some(2));
        assert_eq!(truth_rank(&explanations, "host_09"), None);
    }
}
