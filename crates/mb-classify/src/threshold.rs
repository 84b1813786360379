//! Score thresholds: turning outlier scores into labels.
//!
//! MDP classifies the most extreme points by score percentile (Section 4.1):
//! "points with scores above the percentile-based cutoff are classified as
//! outliers". In one-shot mode the cutoff is computed exactly over the batch
//! of scores, here; in streaming mode the classifier maintains it
//! approximately over an ADR sample of recent scores (Section 4.2, see
//! [`crate::streaming`]).

use crate::{Classification, Label};
use mb_stats::univariate::quantile;
use mb_stats::Result;

/// A fixed threshold: scores at or above it are outliers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticThreshold {
    cutoff: f64,
}

impl StaticThreshold {
    /// Create a threshold at the given cutoff.
    pub fn new(cutoff: f64) -> Self {
        StaticThreshold { cutoff }
    }

    /// Compute the exact `percentile` (in `[0,1]`) cutoff of a batch of scores.
    pub fn from_scores(scores: &[f64], percentile: f64) -> Result<Self> {
        let cutoff = quantile(scores, percentile)?;
        Ok(StaticThreshold { cutoff })
    }

    /// The cutoff value.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }

    /// Classify a score against this threshold.
    pub fn classify(&self, score: f64) -> Classification {
        Classification {
            score,
            label: Label::from_outlier_flag(score >= self.cutoff),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::streaming::{StreamingClassifier, StreamingClassifierConfig, WARMUP_POINTS};
    use mb_stats::mad::MadEstimator;
    use mb_stats::rand_ext::{normal, SplitMix64};
    use mb_stats::StatsError;

    #[test]
    fn static_threshold_classifies() {
        let t = StaticThreshold::new(3.0);
        assert_eq!(t.classify(2.9).label, Label::Inlier);
        assert_eq!(t.classify(3.0).label, Label::Outlier);
        assert_eq!(t.classify(100.0).label, Label::Outlier);
        assert_eq!(t.classify(100.0).score, 100.0);
    }

    #[test]
    fn static_threshold_from_scores_hits_percentile() {
        let scores: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let t = StaticThreshold::from_scores(&scores, 0.99).unwrap();
        assert!((t.cutoff() - 989.01).abs() < 1.0);
        let outliers = scores.iter().filter(|&&s| t.classify(s).label.is_outlier()).count();
        assert!((10..=11).contains(&outliers));
    }

    #[test]
    fn static_threshold_empty_scores_errors() {
        assert!(matches!(
            StaticThreshold::from_scores(&[], 0.99),
            Err(StatsError::EmptyInput)
        ));
    }

    // The streaming cutoff is a percentile of the streaming classifier's
    // score ADR; these drive it through the classifier.

    #[test]
    fn streaming_threshold_flags_about_one_percent() {
        let config = StreamingClassifierConfig {
            reservoir_size: 20_000,
            decay_rate: 0.0,
            retrain_period: 50_000,
            ..StreamingClassifierConfig::default()
        };
        let mut c = StreamingClassifier::new(MadEstimator::new(), config).unwrap();
        let mut rng = SplitMix64::new(3);
        let n = 100_000;
        let outliers = (0..n)
            .filter(|_| c.observe(&[normal(&mut rng, 0.0, 1.0)]).label.is_outlier())
            .count();
        let fraction = outliers as f64 / n as f64;
        assert!(
            (0.005..0.02).contains(&fraction),
            "outlier fraction was {fraction}"
        );
    }

    #[test]
    fn streaming_threshold_starts_conservative() {
        // The model trains at the warm-up (the extreme point is scored);
        // the score reservoir then needs a warm-up of its own before any
        // point is labeled an outlier.
        let config = StreamingClassifierConfig::default();
        let mut c = StreamingClassifier::new(MadEstimator::new(), config).unwrap();
        let mut rng = SplitMix64::new(9);
        for _ in 0..WARMUP_POINTS {
            c.observe(&[normal(&mut rng, 0.0, 1.0)]);
        }
        let first = c.observe(&[1_000_000.0]);
        assert!(first.score > 100.0);
        assert_eq!(first.label, Label::Inlier);
        assert!(c.current_cutoff().is_some());
        for _ in 0..WARMUP_POINTS {
            c.observe(&[normal(&mut rng, 0.0, 1.0)]);
        }
        assert!(c.observe(&[1_000_000.0]).label.is_outlier());
    }

    #[test]
    fn invalid_percentile_rejected() {
        let config = StreamingClassifierConfig {
            target_percentile: 1.5,
            ..StreamingClassifierConfig::default()
        };
        assert!(StreamingClassifier::new(MadEstimator::new(), config).is_err());
    }
}
