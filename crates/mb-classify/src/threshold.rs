//! Score thresholds: turning outlier scores into labels.
//!
//! MDP classifies the most extreme points by score percentile (Section 4.1):
//! "points with scores above the percentile-based cutoff are classified as
//! outliers". In one-shot mode the cutoff is computed exactly over the batch
//! of scores; in streaming mode it is maintained approximately over an ADR
//! sample of recent scores, with a binomial drift check (Section 4.2,
//! footnote 4) that tells the caller when the threshold should be recomputed.

use crate::streaming::WARMUP_POINTS;
use crate::{Classification, Label};
use mb_sketch::quantile::AdrQuantileEstimator;
use mb_stats::confidence::binomial_proportion_interval;
use mb_stats::univariate::quantile;
use mb_stats::{Result, StatsError};

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

/// A streaming percentile threshold maintained over an ADR of scores.
///
/// Also tracks how many of the recently observed scores were classified as
/// outliers so that quantile drift can be detected: if the observed outlier
/// fraction's confidence interval excludes the target `1 - percentile`, the
/// threshold is stale.
#[derive(Debug, Clone)]
pub struct StreamingPercentileThreshold {
    estimator: AdrQuantileEstimator,
    percentile: f64,
    recent_total: u64,
    recent_outliers: u64,
}

impl StreamingPercentileThreshold {
    /// Create a streaming threshold at the given `percentile ∈ [0, 1]`.
    ///
    /// `capacity`, `decay_rate`, `refresh_period`, and `seed` configure the
    /// underlying score reservoir (see [`AdrQuantileEstimator`]). A
    /// `capacity` below [`WARMUP_POINTS`] is refused: the reservoir would
    /// never hold the warm-up, so no score would ever be labeled an outlier.
    pub fn new(
        percentile: f64,
        capacity: usize,
        decay_rate: f64,
        refresh_period: u64,
        seed: u64,
    ) -> Result<Self> {
        if capacity < WARMUP_POINTS {
            return Err(StatsError::InvalidParameter(format!(
                "score reservoir capacity must be at least {WARMUP_POINTS}, got {capacity}"
            )));
        }
        Ok(StreamingPercentileThreshold {
            estimator: AdrQuantileEstimator::new(
                percentile,
                capacity,
                decay_rate,
                refresh_period,
                seed,
            )?,
            percentile,
            recent_total: 0,
            recent_outliers: 0,
        })
    }

    /// Observe a score and classify it against the current threshold.
    ///
    /// Until [`WARMUP_POINTS`] scores have been observed the percentile
    /// estimate is too noisy to act on, so every point is conservatively
    /// labeled an inlier; the threshold is (re)computed once warm-up ends.
    pub fn observe_and_classify(&mut self, score: f64) -> Classification {
        self.estimator.observe(score);
        if self.estimator.sample_size() < WARMUP_POINTS {
            self.recent_total += 1;
            return Classification {
                score,
                label: Label::Inlier,
            };
        }
        if self.estimator.sample_size() == WARMUP_POINTS {
            // First usable sample: compute the initial cutoff now rather than
            // waiting out the refresh period.
            self.estimator.refresh();
        }
        let label = match self.estimator.threshold() {
            Ok(cutoff) => Label::from_outlier_flag(score >= cutoff),
            Err(_) => Label::Inlier,
        };
        self.recent_total += 1;
        if label.is_outlier() {
            self.recent_outliers += 1;
        }
        Classification { score, label }
    }

    /// The current cutoff, if one can be computed.
    pub fn cutoff(&mut self) -> Result<f64> {
        self.estimator.threshold()
    }

    /// Decay the underlying score reservoir (called at period boundaries).
    pub fn decay(&mut self) {
        self.estimator.decay();
    }

    /// Force a threshold recomputation from the current reservoir.
    pub fn refresh(&mut self) {
        self.estimator.refresh();
    }

    /// The target percentile.
    pub fn percentile(&self) -> f64 {
        self.percentile
    }

    /// Detect quantile drift: returns `true` when the observed outlier rate
    /// since the last [`reset_drift_window`] differs significantly (at the
    /// given confidence level) from the target rate `1 - percentile`.
    ///
    /// [`reset_drift_window`]: StreamingPercentileThreshold::reset_drift_window
    pub fn drift_detected(&self, confidence: f64) -> Result<bool> {
        if self.recent_total < 100 {
            // Not enough evidence either way.
            return Ok(false);
        }
        let interval =
            binomial_proportion_interval(self.recent_outliers, self.recent_total, confidence)?;
        let target = 1.0 - self.percentile;
        Ok(!interval.contains(target))
    }

    /// Reset the drift-detection counters (after acting on a drift signal).
    pub fn reset_drift_window(&mut self) {
        self.recent_total = 0;
        self.recent_outliers = 0;
    }

    /// Observed outlier fraction since the last drift-window reset.
    pub fn observed_outlier_fraction(&self) -> f64 {
        if self.recent_total == 0 {
            0.0
        } else {
            self.recent_outliers as f64 / self.recent_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn streaming_threshold_flags_about_one_percent() {
        let mut t = StreamingPercentileThreshold::new(0.99, 20_000, 0.0, 5_000, 1).unwrap();
        let mut rng = SplitMix64::new(3);
        let mut outliers = 0usize;
        let n = 100_000;
        for _ in 0..n {
            let c = t.observe_and_classify(normal(&mut rng, 0.0, 1.0).abs());
            if c.label.is_outlier() {
                outliers += 1;
            }
        }
        let fraction = outliers as f64 / n as f64;
        assert!(
            (0.005..0.02).contains(&fraction),
            "outlier fraction was {fraction}"
        );
    }

    #[test]
    fn streaming_threshold_starts_conservative() {
        let mut t = StreamingPercentileThreshold::new(0.99, 100, 0.0, 1000, 1).unwrap();
        // The very first observation has no threshold yet -> inlier.
        let c = t.observe_and_classify(1_000_000.0);
        assert_eq!(c.label, Label::Inlier);
    }

    #[test]
    fn drift_detection_fires_after_distribution_shift() {
        let mut t = StreamingPercentileThreshold::new(0.99, 5_000, 0.0, 1_000_000, 7).unwrap();
        let mut rng = SplitMix64::new(9);
        // Train the threshold on scores ~ |N(0,1)|.
        for _ in 0..20_000 {
            t.observe_and_classify(normal(&mut rng, 0.0, 1.0).abs());
        }
        t.refresh();
        t.reset_drift_window();
        assert!(!t.drift_detected(0.95).unwrap());
        // Shift: scores now ten times larger, so nearly everything exceeds the
        // stale cutoff. Use a huge refresh period so the cutoff stays stale.
        for _ in 0..5_000 {
            t.observe_and_classify(normal(&mut rng, 10.0, 1.0).abs());
        }
        assert!(t.drift_detected(0.95).unwrap());
        assert!(t.observed_outlier_fraction() > 0.5);
        t.reset_drift_window();
        assert!(!t.drift_detected(0.95).unwrap());
    }

    #[test]
    fn invalid_percentile_rejected() {
        assert!(StreamingPercentileThreshold::new(1.5, 100, 0.0, 10, 1).is_err());
    }
}
