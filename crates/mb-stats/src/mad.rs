#![warn(clippy::unwrap_used, clippy::expect_used)]
//! MAD-based robust univariate outlier scoring (Section 4.1).
//!
//! Given a univariate metric, the MAD estimator fits the sample median and
//! the Median Absolute Deviation and scores each point by its normalized
//! distance from the median — a robust analogue of the Z-score whose
//! breakdown point is 50% (a contaminating minority cannot move it).

use crate::univariate::median_absolute_deviation;
use crate::{Estimator, Result, StatsError};

/// Consistency constant making the MAD comparable to a standard deviation
/// under a normal distribution (1 / Φ⁻¹(3/4)).
pub(crate) const MAD_TO_SIGMA: f64 = 1.4826;

/// Floor applied to a zero MAD so constant-valued samples still produce
/// finite scores. Mirrors the "trimmed" fallback used by the reference
/// implementation: when more than half the sample is identical the MAD is
/// zero and every other point would otherwise score infinity.
const MIN_MAD: f64 = 1e-12;

/// Robust univariate outlier scorer based on the median and MAD.
#[derive(Debug, Clone, Default)]
pub struct MadEstimator {
    median: f64,
    scaled_mad: f64,
    trained: bool,
}

impl MadEstimator {
    /// Create an untrained estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fit directly from a univariate slice (what [`Estimator::train_flat`]
    /// runs on a one-wide sample).
    pub fn train_univariate(&mut self, sample: &[f64]) -> Result<()> {
        if sample.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        let (median, mad) = median_absolute_deviation(sample)?;
        self.median = median;
        self.scaled_mad = (mad * MAD_TO_SIGMA).max(MIN_MAD);
        self.trained = true;
        Ok(())
    }

    /// Score a single univariate value: `|x - median| / (1.4826 * MAD)`.
    pub fn score_value(&self, x: f64) -> Result<f64> {
        if !self.trained {
            return Err(StatsError::NotTrained);
        }
        Ok((x - self.median).abs() / self.scaled_mad)
    }
}

impl Estimator for MadEstimator {
    // Univariate: a flat dim-1 buffer is the value column, so the fit reads
    // it in place.
    fn train_flat(&mut self, flat: &[f64], dim: usize) -> Result<()> {
        crate::validate_sample(flat, dim)?;
        if dim != 1 {
            return Err(StatsError::DimensionMismatch {
                expected: 1,
                actual: dim,
            });
        }
        self.train_univariate(flat)
    }

    fn score(&self, metrics: &[f64]) -> Result<f64> {
        if metrics.len() != 1 {
            return Err(StatsError::DimensionMismatch {
                expected: 1,
                actual: metrics.len(),
            });
        }
        self.score_value(metrics[0])
    }

    // One branch-free pass over the flat buffer — same arithmetic as
    // `score_value` per element, without a `Result` round-trip per row.
    fn score_batch_flat(&self, flat: &[f64], dim: usize) -> Result<Vec<f64>> {
        if dim == 0 {
            return Err(StatsError::EmptyInput);
        }
        if dim != 1 {
            return Err(StatsError::DimensionMismatch {
                expected: 1,
                actual: dim,
            });
        }
        if !self.trained {
            return Err(StatsError::NotTrained);
        }
        Ok(flat
            .iter()
            .map(|x| (x - self.median).abs() / self.scaled_mad)
            .collect())
    }

    fn dimension(&self) -> Option<usize> {
        self.trained.then_some(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rand_ext::{normal, SplitMix64};
    use proptest::prelude::*;

    #[test]
    fn untrained_estimator_errors() {
        let est = MadEstimator::new();
        assert_eq!(est.score_value(1.0), Err(StatsError::NotTrained));
        assert_eq!(est.dimension(), None);
        assert!(!est.is_trained());
    }

    #[test]
    fn scores_center_low_tail_high() {
        let mut est = MadEstimator::new();
        let sample: Vec<f64> = (0..1001).map(|i| i as f64 / 100.0).collect(); // 0..10
        est.train_univariate(&sample).unwrap();
        let center = est.score_value(5.0).unwrap();
        let tail = est.score_value(30.0).unwrap();
        assert!(center < 0.1);
        assert!(tail > 5.0);
        assert!(tail > center);
    }

    #[test]
    fn robust_to_heavy_contamination() {
        // With 30% of points at an extreme value, the MAD estimator must stay
        // discriminative: typical inliers keep low scores and the
        // contaminating cluster keeps an extreme score. (A Z-score collapses
        // here — see `zscore::tests::not_robust_to_contamination_unlike_mad`.)
        let mut rng = SplitMix64::new(2);
        let mut data: Vec<f64> = (0..7000).map(|_| normal(&mut rng, 10.0, 1.0)).collect();
        data.extend((0..3000).map(|_| normal(&mut rng, 1000.0, 1.0)));
        let mut est = MadEstimator::new();
        est.train_univariate(&data).unwrap();

        assert!(est.score_value(10.0).unwrap() < 3.0);
        assert!(est.score_value(12.0).unwrap() < 5.0);
        assert!(est.score_value(1000.0).unwrap() > 50.0);
    }

    #[test]
    fn constant_sample_scores_finite() {
        let mut est = MadEstimator::new();
        est.train_univariate(&[5.0; 100]).unwrap();
        let same = est.score_value(5.0).unwrap();
        let other = est.score_value(6.0).unwrap();
        assert_eq!(same, 0.0);
        assert!(other.is_finite());
        assert!(other > 0.0);
    }

    #[test]
    fn estimator_trait_enforces_univariate() {
        let mut est = MadEstimator::new();
        assert!(matches!(
            est.train_flat(&[1.0, 2.0, 3.0, 4.0], 2),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn estimator_trait_round_trip() {
        let mut est = MadEstimator::new();
        let sample: Vec<f64> = (0..100).map(|i| i as f64).collect();
        est.train_flat(&sample, 1).unwrap();
        assert_eq!(est.dimension(), Some(1));
        assert!(est.score(&[50.0]).unwrap() < est.score(&[500.0]).unwrap());
        assert!(matches!(
            est.score(&[1.0, 2.0]),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn scaled_mad_matches_sigma_for_gaussian() {
        let mut rng = SplitMix64::new(77);
        let sample: Vec<f64> = (0..100_000).map(|_| normal(&mut rng, 0.0, 10.0)).collect();
        let mut est = MadEstimator::new();
        est.train_univariate(&sample).unwrap();
        let sigma_hat = est.scaled_mad;
        assert!((sigma_hat - 10.0).abs() < 0.3, "scaled MAD was {sigma_hat}");
    }

    proptest! {
        #[test]
        fn scores_are_nonnegative_and_zero_at_median(data in prop::collection::vec(-1e4f64..1e4, 3..200)) {
            let mut est = MadEstimator::new();
            est.train_univariate(&data).unwrap();
            let med = est.median;
            prop_assert!(est.score_value(med).unwrap().abs() < 1e-9);
            for &x in &data {
                prop_assert!(est.score_value(x).unwrap() >= 0.0);
            }
        }

        #[test]
        fn score_is_monotone_in_distance_from_median(data in prop::collection::vec(-1e4f64..1e4, 3..100), d1 in 0.0f64..100.0, d2 in 0.0f64..100.0) {
            let mut est = MadEstimator::new();
            est.train_univariate(&data).unwrap();
            let med = est.median;
            let (near, far) = if d1 < d2 { (d1, d2) } else { (d2, d1) };
            prop_assert!(est.score_value(med + near).unwrap() <= est.score_value(med + far).unwrap() + 1e-12);
        }
    }
}
