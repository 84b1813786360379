//! Classification operators for MacroBase-RS (Section 4 of the paper).
//!
//! MacroBase's classification stage labels each point *outlier* or *inlier*
//! from its metrics. This crate provides the pieces the MDP pipeline
//! assembles (Figure 2, left half):
//!
//! * [`threshold`] — the exact percentile cutoff of a batch of scores
//!   (one-shot); the streaming classifier keeps its own over a damped
//!   reservoir of scores.
//! * [`rule`] — rule-based (supervised) classifiers for the hybrid
//!   supervision case study of Section 6.4.
//! * [`batch`] — one-shot classification: train a robust estimator on the
//!   whole batch, score everything, cut at the target percentile.
//! * [`streaming`] — streaming classification with ADR-based model
//!   retraining and ADR-based quantile maintenance.
//!
//! The estimators themselves (MAD, MCD, Z-score) come from `mb-stats`; this
//! crate layers training/thresholding policy on top of them.
//!
//! ## Example
//!
//! One-shot classification: wrap a robust estimator, train on the batch, and
//! cut at the target percentile:
//!
//! ```
//! use mb_classify::batch::{BatchClassifier, BatchClassifierConfig};
//! use mb_stats::mad::MadEstimator;
//!
//! // One metric per point, so the row-major buffer is one value per row.
//! let mut metrics: Vec<f64> = (0..100).map(|i| 10.0 + (i % 5) as f64).collect();
//! metrics.push(500.0); // one wild reading
//!
//! let mut classifier =
//!     BatchClassifier::new(MadEstimator::new(), BatchClassifierConfig::default());
//! let labels = classifier.classify_batch_flat(&metrics, 1).unwrap();
//! assert!(labels.last().unwrap().label.is_outlier());
//! ```

#![warn(missing_docs)]

pub mod batch;
pub mod rule;
pub mod streaming;
pub mod threshold;

/// The binary label assigned by MacroBase's default classifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    /// The point lies within the bulk of the distribution.
    Inlier,
    /// The point is statistically deviant (far from the bulk).
    Outlier,
}

impl Label {
    /// Whether this label is [`Label::Outlier`].
    pub fn is_outlier(self) -> bool {
        matches!(self, Label::Outlier)
    }

    /// Construct a label from an outlier flag.
    pub(crate) fn from_outlier_flag(is_outlier: bool) -> Self {
        if is_outlier {
            Label::Outlier
        } else {
            Label::Inlier
        }
    }
}

/// A scored, labeled classification outcome for one point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Classification {
    /// The outlier score assigned by the underlying estimator.
    pub score: f64,
    /// The label implied by the score and the active threshold.
    pub label: Label,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn label_round_trip() {
        assert!(Label::Outlier.is_outlier());
        assert!(!Label::Inlier.is_outlier());
        assert_eq!(Label::from_outlier_flag(true), Label::Outlier);
        assert_eq!(Label::from_outlier_flag(false), Label::Inlier);
    }
}
