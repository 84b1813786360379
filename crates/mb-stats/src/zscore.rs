#![warn(clippy::unwrap_used, clippy::expect_used)]
//! Z-score estimator: the non-robust baseline of Figure 3.
//!
//! The Z-score measures how many standard deviations a point lies from the
//! sample mean. A single extreme value can move the mean and inflate the
//! standard deviation arbitrarily, so the Z-score loses discriminative power
//! as contamination grows — exactly the failure mode Figure 3 illustrates and
//! the reason MDP defaults to MAD/MCD instead.

use crate::univariate::{mean, population_std};
use crate::{Estimator, Result, StatsError};

/// Floor for a zero standard deviation, mirroring [`crate::mad::MadEstimator`].
const MIN_STD: f64 = 1e-12;

/// Classic mean/standard-deviation scorer over univariate metrics.
#[derive(Debug, Clone, Default)]
pub struct ZScoreEstimator {
    mean: f64,
    std: f64,
    trained: bool,
}

impl ZScoreEstimator {
    /// Create an untrained estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fit directly from a univariate slice.
    pub(crate) fn train_univariate(&mut self, sample: &[f64]) -> Result<()> {
        if sample.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if sample.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFinite);
        }
        self.mean = mean(sample)?;
        self.std = population_std(sample)?.max(MIN_STD);
        self.trained = true;
        Ok(())
    }

    /// Absolute Z-score of a single value.
    pub(crate) fn score_value(&self, x: f64) -> Result<f64> {
        if !self.trained {
            return Err(StatsError::NotTrained);
        }
        Ok((x - self.mean).abs() / self.std)
    }
}

impl Estimator for ZScoreEstimator {
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

    // One branch-free pass over the flat buffer (see
    // `MadEstimator::score_batch_flat`).
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
        Ok(flat.iter().map(|x| (x - self.mean).abs() / self.std).collect())
    }

    fn dimension(&self) -> Option<usize> {
        self.trained.then_some(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mad::MadEstimator;
    use crate::rand_ext::{normal, SplitMix64};

    #[test]
    fn untrained_errors() {
        assert_eq!(
            ZScoreEstimator::new().score_value(0.0),
            Err(StatsError::NotTrained)
        );
    }

    #[test]
    fn known_zscore() {
        let mut est = ZScoreEstimator::new();
        est.train_univariate(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
            .unwrap(); // mean 5, std 2
        assert!((est.score_value(9.0).unwrap() - 2.0).abs() < 1e-9);
        assert!((est.score_value(5.0).unwrap() - 0.0).abs() < 1e-9);
        assert!((est.score_value(1.0).unwrap() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn constant_sample_scores_finite() {
        let mut est = ZScoreEstimator::new();
        est.train_univariate(&[3.0; 50]).unwrap();
        assert!(est.score_value(4.0).unwrap().is_finite());
    }

    #[test]
    fn rejects_nan() {
        let mut est = ZScoreEstimator::new();
        assert_eq!(
            est.train_univariate(&[1.0, f64::NAN]),
            Err(StatsError::NonFinite)
        );
    }

    #[test]
    fn not_robust_to_contamination_unlike_mad() {
        // Reproduces the qualitative claim behind Figure 3: under 30%
        // contamination at an extreme location, the Z-score of a true outlier
        // collapses while the MAD score stays high.
        let mut rng = SplitMix64::new(5);
        let mut data: Vec<f64> = (0..7000).map(|_| normal(&mut rng, 0.0, 1.0)).collect();
        data.extend((0..3000).map(|_| normal(&mut rng, 1000.0, 1.0)));

        let mut z = ZScoreEstimator::new();
        z.train_univariate(&data).unwrap();
        let mut mad = MadEstimator::new();
        mad.train_univariate(&data).unwrap();

        let z_score_of_outlier = z.score_value(1000.0).unwrap();
        let mad_score_of_outlier = mad.score_value(1000.0).unwrap();
        assert!(
            z_score_of_outlier < 3.0,
            "z-score should be diluted, was {z_score_of_outlier}"
        );
        assert!(
            mad_score_of_outlier > 100.0,
            "MAD should stay discriminative, was {mad_score_of_outlier}"
        );
    }

    #[test]
    fn estimator_trait_dimension_checks() {
        let mut est = ZScoreEstimator::new();
        assert!(matches!(
            est.train_flat(&[1.0, 2.0], 2),
            Err(StatsError::DimensionMismatch { .. })
        ));
        est.train_flat(&[1.0, 2.0, 3.0], 1).unwrap();
        assert!(matches!(
            est.score(&[]),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }
}
