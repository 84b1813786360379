//! Rule-based (supervised) classification.
//!
//! Section 3.2 and the hybrid-supervision case study (Section 6.4) show users
//! complementing the unsupervised MDP classifier with explicit rules — "flag
//! every reading with power drain greater than 100 W", or "flag trips whose
//! externally computed quality score is below 0.3". A rule classifier
//! compares one metric against a constant; it produces labels without
//! training and is OR-ed with the unsupervised classifier's labels.

use crate::Label;

/// Comparison operator for a metric predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// Metric value strictly greater than the constant.
    GreaterThan,
    /// Metric value greater than or equal to the constant.
    GreaterOrEqual,
    /// Metric value strictly less than the constant.
    LessThan,
    /// Metric value less than or equal to the constant.
    LessOrEqual,
    /// Metric value equal to the constant (exact floating-point equality; use
    /// with discretized metrics).
    Equal,
}

/// A rule-based classifier: one comparison of one metric against a
/// constant, whose match produces an [`Label::Outlier`] label.
#[derive(Debug, Clone)]
pub struct RuleClassifier {
    metric_index: usize,
    comparison: Comparison,
    value: f64,
}

impl RuleClassifier {
    /// The rule "metric `metric_index` `comparison` `value`", e.g. metric 0
    /// greater than 100.
    pub fn single(metric_index: usize, comparison: Comparison, value: f64) -> Self {
        RuleClassifier {
            metric_index,
            comparison,
            value,
        }
    }

    /// Classify one metric vector. An out-of-range index or a non-finite
    /// value never flags (never flag on garbage).
    pub fn classify(&self, metrics: &[f64]) -> Label {
        let Some(&x) = metrics.get(self.metric_index) else {
            return Label::Inlier;
        };
        if !x.is_finite() {
            return Label::Inlier;
        }
        Label::from_outlier_flag(match self.comparison {
            Comparison::GreaterThan => x > self.value,
            Comparison::GreaterOrEqual => x >= self.value,
            Comparison::LessThan => x < self.value,
            Comparison::LessOrEqual => x <= self.value,
            Comparison::Equal => x == self.value,
        })
    }
}

/// Combine two labels with a logical OR (outlier wins) — the combinator used
/// by the hybrid-supervision pipeline in Section 6.4.
pub fn label_or(a: Label, b: Label) -> Label {
    Label::from_outlier_flag(a.is_outlier() || b.is_outlier())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(metric_index: usize, comparison: Comparison, value: f64, metrics: &[f64]) -> bool {
        RuleClassifier::single(metric_index, comparison, value)
            .classify(metrics)
            .is_outlier()
    }

    #[test]
    fn predicate_comparisons() {
        let metrics = [5.0, 10.0];
        assert!(flags(0, Comparison::GreaterThan, 4.0, &metrics));
        assert!(!flags(0, Comparison::GreaterThan, 5.0, &metrics));
        assert!(flags(0, Comparison::GreaterOrEqual, 5.0, &metrics));
        assert!(flags(1, Comparison::LessThan, 20.0, &metrics));
        assert!(!flags(1, Comparison::LessOrEqual, 9.0, &metrics));
        assert!(flags(1, Comparison::Equal, 10.0, &metrics));
    }

    #[test]
    fn predicate_handles_bad_input() {
        assert!(!flags(5, Comparison::GreaterThan, 0.0, &[1.0]));
        assert!(!flags(0, Comparison::GreaterThan, 0.0, &[f64::NAN]));
    }

    #[test]
    fn power_drain_rule_from_paper() {
        // "capture all readings with power drain greater than 100W"
        let rule = RuleClassifier::single(0, Comparison::GreaterThan, 100.0);
        assert_eq!(rule.classify(&[150.0]), Label::Outlier);
        assert_eq!(rule.classify(&[50.0]), Label::Inlier);
    }

    #[test]
    fn label_combinators() {
        assert_eq!(label_or(Label::Inlier, Label::Outlier), Label::Outlier);
        assert_eq!(label_or(Label::Inlier, Label::Inlier), Label::Inlier);
        assert_eq!(label_or(Label::Outlier, Label::Outlier), Label::Outlier);
    }
}
