//! One-shot (batch) classification.
//!
//! In one-shot mode (Section 3.2, "operating modes"), MacroBase trains its
//! robust estimator on the whole batch (or a uniform sample of it — Figure 9
//! studies the accuracy/throughput trade-off of sampling), scores every
//! point, and cuts at the target percentile of the observed scores.

use crate::threshold::StaticThreshold;
use crate::Classification;
use mb_stats::{Estimator, Result, StatsError};

/// Configuration for the batch classifier.
#[derive(Debug, Clone, Copy)]
pub struct BatchClassifierConfig {
    /// Percentile of scores above which a point is an outlier (paper default
    /// 0.99, i.e. "target outlier percentile of 1%").
    pub target_percentile: f64,
    /// Optional cap on the number of points used for training. `None` trains
    /// on the full batch; `Some(k)` trains on an evenly strided sample of at
    /// most `k` points (Figure 9's "operating on samples"); [`fit_flat`]
    /// refuses `Some(0)`.
    ///
    /// [`fit_flat`]: BatchClassifier::fit_flat
    pub training_sample_size: Option<usize>,
}

impl Default for BatchClassifierConfig {
    fn default() -> Self {
        BatchClassifierConfig {
            target_percentile: 0.99,
            training_sample_size: None,
        }
    }
}

/// A batch classifier wrapping any [`Estimator`] (MAD, MCD, Z-score, ...).
#[derive(Debug, Clone)]
pub struct BatchClassifier<E: Estimator> {
    estimator: E,
    config: BatchClassifierConfig,
}

impl<E: Estimator> BatchClassifier<E> {
    /// Wrap an (untrained) estimator.
    pub fn new(estimator: E, config: BatchClassifierConfig) -> Self {
        BatchClassifier { estimator, config }
    }

    /// Train the estimator on a row-major metric buffer (`dim` values per
    /// row), honoring the configured training sample cap, without scoring or
    /// thresholding: a capped fit trains on every `stride`-th row
    /// (`stride = rows.div_ceil(k)`).
    ///
    /// This is the model half of [`classify_batch_flat`], split out so a
    /// fitted model can be kept and scored later: a query's model is this
    /// fit, then [`score_batch_flat`] over the batch and a
    /// [`StaticThreshold`] cut from those scores, and a pre-trained model
    /// scores further batches without refitting. The trained estimators are
    /// plain data, hence `Sync`, so one fit can be shared by reference.
    ///
    /// [`classify_batch_flat`]: BatchClassifier::classify_batch_flat
    /// [`score_batch_flat`]: BatchClassifier::score_batch_flat
    pub fn fit_flat(&mut self, flat: &[f64], dim: usize) -> Result<()> {
        if flat.is_empty() || dim == 0 {
            return Err(StatsError::EmptyInput);
        }
        if flat.len() % dim != 0 {
            return Err(StatsError::DimensionMismatch {
                expected: dim,
                actual: flat.len() % dim,
            });
        }
        if !(0.0..=1.0).contains(&self.config.target_percentile) {
            return Err(StatsError::InvalidParameter(format!(
                "target percentile must be in [0, 1], got {}",
                self.config.target_percentile
            )));
        }
        if self.config.training_sample_size == Some(0) {
            return Err(StatsError::InvalidParameter(
                "training sample size must be positive".to_string(),
            ));
        }
        let rows = flat.len() / dim;
        // A strided sample is copied into one contiguous buffer; the
        // full-batch case trains on the input directly.
        match self.config.training_sample_size {
            Some(k) if k < rows => {
                let stride = rows.div_ceil(k);
                let mut sample: Vec<f64> = Vec::with_capacity(rows.div_ceil(stride) * dim);
                for row in flat.chunks_exact(dim).step_by(stride) {
                    sample.extend_from_slice(row);
                }
                self.estimator.train_flat(&sample, dim)
            }
            _ => self.estimator.train_flat(flat, dim),
        }
    }

    /// Score a row-major metric buffer (`dim` values per row) with the
    /// fitted model through [`Estimator::score_batch_flat`], so estimators
    /// with a parallel bulk path (MCD's pool-scattered distance pass) use
    /// it. The scores are exactly what row-by-row [`Estimator::score`] on
    /// the fitted estimator returns, so a caller that scores one row at a
    /// time agrees with one that scores the batch.
    pub fn score_batch_flat(&self, flat: &[f64], dim: usize) -> Result<Vec<f64>> {
        self.estimator.score_batch_flat(flat, dim)
    }

    /// Train the estimator on a row-major metric buffer (`dim` values per
    /// row), score every row, and label it against the target percentile
    /// of those scores.
    ///
    /// Returns one [`Classification`] per row, in row order.
    pub fn classify_batch_flat(&mut self, flat: &[f64], dim: usize) -> Result<Vec<Classification>> {
        self.fit_flat(flat, dim)?;
        let scores: Vec<f64> = self.estimator.score_batch_flat(flat, dim)?;
        let threshold = StaticThreshold::from_scores(&scores, self.config.target_percentile)?;
        Ok(scores
            .into_iter()
            .map(|score| threshold.classify(score))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_stats::mad::MadEstimator;
    use mb_stats::mcd::McdEstimator;
    use mb_stats::rand_ext::{normal, SplitMix64};

    /// `n` one-wide rows drawn from N(mean, std_dev).
    fn univariate(rng: &mut SplitMix64, n: usize, mean: f64, std_dev: f64) -> Vec<f64> {
        (0..n).map(|_| normal(rng, mean, std_dev)).collect()
    }

    #[test]
    fn empty_batch_is_rejected() {
        let mut c = BatchClassifier::new(MadEstimator::new(), BatchClassifierConfig::default());
        assert!(matches!(
            c.classify_batch_flat(&[], 1),
            Err(StatsError::EmptyInput)
        ));
    }

    #[test]
    fn flags_about_the_target_fraction() {
        let mut rng = SplitMix64::new(1);
        let metrics = univariate(&mut rng, 10_000, 10.0, 2.0);
        let mut c = BatchClassifier::new(MadEstimator::new(), BatchClassifierConfig::default());
        let result = c.classify_batch_flat(&metrics, 1).unwrap();
        let outliers = result.iter().filter(|r| r.label.is_outlier()).count();
        let fraction = outliers as f64 / metrics.len() as f64;
        assert!((0.005..0.02).contains(&fraction), "fraction = {fraction}");
    }

    #[test]
    fn injected_anomalies_are_the_flagged_points() {
        let mut rng = SplitMix64::new(2);
        let mut metrics = univariate(&mut rng, 5_000, 10.0, 1.0);
        // 50 extreme points (1%) injected at known indices.
        for i in 0..50 {
            metrics[i * 100] = normal(&mut rng, 100.0, 1.0);
        }
        let mut c = BatchClassifier::new(
            MadEstimator::new(),
            BatchClassifierConfig {
                target_percentile: 0.99,
                training_sample_size: None,
            },
        );
        let result = c.classify_batch_flat(&metrics, 1).unwrap();
        let outlier_idx: Vec<usize> = (0..result.len())
            .filter(|&i| result[i].label.is_outlier())
            .collect();
        // All injected indices must be flagged.
        for i in 0..50 {
            assert!(
                outlier_idx.contains(&(i * 100)),
                "injected anomaly {} not flagged",
                i * 100
            );
        }
    }

    #[test]
    fn multivariate_mcd_classification() {
        let mut rng = SplitMix64::new(3);
        let mut metrics: Vec<f64> = (0..2_000)
            .flat_map(|_| [normal(&mut rng, 0.0, 1.0), normal(&mut rng, 0.0, 1.0)])
            .collect();
        for i in 0..20 {
            metrics[i * 200..i * 200 + 2].copy_from_slice(&[50.0, 50.0]);
        }
        let mut c = BatchClassifier::new(
            McdEstimator::with_defaults(),
            BatchClassifierConfig::default(),
        );
        let result = c.classify_batch_flat(&metrics, 2).unwrap();
        for i in 0..20 {
            assert!(result[i * 100].label.is_outlier());
        }
    }

    #[test]
    fn training_on_sample_still_classifies_well() {
        let mut rng = SplitMix64::new(4);
        let mut metrics = univariate(&mut rng, 20_000, 10.0, 1.0);
        for i in 0..200 {
            metrics[i * 100] = normal(&mut rng, 70.0, 1.0);
        }
        let mut c = BatchClassifier::new(
            MadEstimator::new(),
            BatchClassifierConfig {
                target_percentile: 0.99,
                training_sample_size: Some(500),
            },
        );
        let result = c.classify_batch_flat(&metrics, 1).unwrap();
        let flagged: Vec<usize> = result
            .iter()
            .enumerate()
            .filter(|(_, r)| r.label.is_outlier())
            .map(|(i, _)| i)
            .collect();
        let injected_found = (0..200).filter(|i| flagged.contains(&(i * 100))).count();
        assert!(injected_found >= 190, "found only {injected_found} of 200");
    }

    #[test]
    fn fit_then_broadcast_matches_classify_batch() {
        // A query's model is fit_flat, then score_batch_flat, then a
        // StaticThreshold cut from those scores: that sequence must label
        // every row exactly as classify_batch_flat does.
        let mut rng = SplitMix64::new(6);
        let mut metrics = univariate(&mut rng, 10_000, 10.0, 1.0);
        for i in 0..100 {
            metrics[i * 100] = normal(&mut rng, 60.0, 1.0);
        }
        let config = BatchClassifierConfig::default();
        let mut reference = BatchClassifier::new(MadEstimator::new(), config);
        let expected = reference.classify_batch_flat(&metrics, 1).unwrap();

        let mut model = BatchClassifier::new(MadEstimator::new(), config);
        model.fit_flat(&metrics, 1).unwrap();
        let scores = model.score_batch_flat(&metrics, 1).unwrap();
        let threshold =
            StaticThreshold::from_scores(&scores, config.target_percentile).unwrap();
        assert_eq!(scores.len(), expected.len());
        for (&score, expected) in scores.iter().zip(&expected) {
            assert_eq!(threshold.classify(score), *expected);
        }
    }

    #[test]
    fn score_batch_matches_score_point_for_mcd() {
        // The bulk path runs MCD's parallel distance pass; the streaming
        // path scores one row at a time and relies on the two agreeing.
        let mut rng = SplitMix64::new(7);
        let metrics: Vec<f64> = (0..4_000)
            .flat_map(|_| [normal(&mut rng, 0.0, 1.0), normal(&mut rng, 2.0, 1.0)])
            .collect();
        let mut c = BatchClassifier::new(
            McdEstimator::with_defaults(),
            BatchClassifierConfig::default(),
        );
        c.fit_flat(&metrics, 2).unwrap();
        let batch = c.score_batch_flat(&metrics, 2).unwrap();
        assert_eq!(batch.len(), 4_000);
        for (row, &s) in metrics.chunks_exact(2).zip(batch.iter()) {
            assert_eq!(s, c.estimator.score(row).unwrap());
        }
    }

    #[test]
    fn fit_rejects_empty_and_invalid_config() {
        let mut c = BatchClassifier::new(MadEstimator::new(), BatchClassifierConfig::default());
        assert!(matches!(c.fit_flat(&[], 1), Err(StatsError::EmptyInput)));
        let mut bad = BatchClassifier::new(
            MadEstimator::new(),
            BatchClassifierConfig {
                target_percentile: -1.0,
                training_sample_size: None,
            },
        );
        assert!(matches!(
            bad.fit_flat(&[1.0], 1),
            Err(StatsError::InvalidParameter(_))
        ));
        // A cap of zero points is refused, not read as "no cap".
        let mut zero = BatchClassifier::new(
            MadEstimator::new(),
            BatchClassifierConfig {
                target_percentile: 0.99,
                training_sample_size: Some(0),
            },
        );
        assert!(matches!(
            zero.fit_flat(&[1.0, 2.0, 3.0], 1),
            Err(StatsError::InvalidParameter(_))
        ));
    }

    #[test]
    fn fit_flat_and_train_flat_reject_a_ragged_batch_alike() {
        // Three values are not a whole number of two-wide rows.
        let ragged = StatsError::DimensionMismatch {
            expected: 2,
            actual: 1,
        };
        let mut classifier = BatchClassifier::new(
            McdEstimator::with_defaults(),
            BatchClassifierConfig::default(),
        );
        assert_eq!(classifier.fit_flat(&[1.0, 2.0, 3.0], 2), Err(ragged.clone()));
        assert_eq!(
            McdEstimator::with_defaults().train_flat(&[1.0, 2.0, 3.0], 2),
            Err(ragged)
        );
    }

    #[test]
    fn invalid_percentile_rejected() {
        let mut c = BatchClassifier::new(
            MadEstimator::new(),
            BatchClassifierConfig {
                target_percentile: 2.0,
                training_sample_size: None,
            },
        );
        assert!(matches!(
            c.classify_batch_flat(&[1.0, 2.0], 1),
            Err(StatsError::InvalidParameter(_))
        ));
    }
}
