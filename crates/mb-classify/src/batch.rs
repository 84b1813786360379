//! One-shot (batch) classification.
//!
//! In one-shot mode (Section 3.2, "operating modes"), MacroBase trains its
//! robust estimator on the whole batch (or a uniform sample of it — Figure 9
//! studies the accuracy/throughput trade-off of sampling), scores every
//! point, and cuts at the target percentile of the observed scores.

use crate::threshold::StaticThreshold;
use crate::{Classification, Label};
use mb_stats::{Estimator, Result, StatsError};

/// Configuration for the batch classifier.
#[derive(Debug, Clone, Copy)]
pub struct BatchClassifierConfig {
    /// Percentile of scores above which a point is an outlier (paper default
    /// 0.99, i.e. "target outlier percentile of 1%").
    pub target_percentile: f64,
    /// Optional cap on the number of points used for training. `None` trains
    /// on the full batch; `Some(k)` trains on an evenly strided sample of at
    /// most `k` points (Figure 9's "operating on samples").
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
    threshold: Option<StaticThreshold>,
}

impl<E: Estimator> BatchClassifier<E> {
    /// Wrap an (untrained) estimator.
    pub fn new(estimator: E, config: BatchClassifierConfig) -> Self {
        BatchClassifier {
            estimator,
            config,
            threshold: None,
        }
    }

    /// Train the estimator on `metrics` (honoring the configured training
    /// sample cap) without scoring or thresholding.
    ///
    /// This is the model half of [`classify_batch`], split out so a single
    /// globally fitted model can be broadcast to partitions: fit once, share
    /// the classifier by reference across threads (the trained estimators
    /// are plain data, hence `Sync`), and score with [`score_point`]. The
    /// threshold can then be derived from the *merged* partition scores and
    /// installed with [`set_threshold`].
    ///
    /// [`classify_batch`]: BatchClassifier::classify_batch
    /// [`score_point`]: BatchClassifier::score_point
    /// [`set_threshold`]: BatchClassifier::set_threshold
    pub fn fit(&mut self, metrics: &[Vec<f64>]) -> Result<()> {
        if metrics.is_empty() {
            return Err(StatsError::EmptyInput);
        }
        if !(0.0..=1.0).contains(&self.config.target_percentile) {
            return Err(StatsError::InvalidParameter(format!(
                "target percentile must be in [0, 1], got {}",
                self.config.target_percentile
            )));
        }
        // Train, optionally on a strided subsample.
        match self.config.training_sample_size {
            Some(k) if k > 0 && k < metrics.len() => {
                let stride = metrics.len().div_ceil(k);
                let sample: Vec<Vec<f64>> = metrics.iter().step_by(stride).cloned().collect();
                self.estimator.train(&sample)
            }
            _ => self.estimator.train(metrics),
        }
    }

    /// Train the estimator on `rows` metric vectors stored contiguously
    /// (row-major, `dim` values per row), honoring the configured training
    /// sample cap. The strided subsample is the same rows [`fit`] would
    /// select (`stride = rows.div_ceil(k)`, every `stride`-th row), so a
    /// flat caller trains exactly the model the row-major path trains.
    ///
    /// [`fit`]: BatchClassifier::fit
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
        let rows = flat.len() / dim;
        // Stay flat end to end: a strided sample is copied into one
        // contiguous buffer, the full-batch case trains on the input
        // directly, and `train_flat` only materializes row vectors for
        // estimators without a columnar fit.
        match self.config.training_sample_size {
            Some(k) if k > 0 && k < rows => {
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

    /// Score a single point with the fitted model, without classifying it
    /// (no threshold required, unlike [`classify_point`]).
    ///
    /// [`classify_point`]: BatchClassifier::classify_point
    pub fn score_point(&self, metrics: &[f64]) -> Result<f64> {
        self.estimator.score(metrics)
    }

    /// Score a batch of rows with the fitted model, one score per row in
    /// row order. Delegates to [`Estimator::score_batch`], so estimators
    /// with a parallel bulk path (MCD's pool-scattered distance pass) use
    /// it; the scores are exactly what row-by-row [`score_point`] returns,
    /// so partitioned callers can batch without perturbing results.
    ///
    /// [`score_point`]: BatchClassifier::score_point
    pub fn score_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        self.estimator.score_batch(rows)
    }

    /// Score `rows` metric vectors stored contiguously (row-major, `dim`
    /// values per row) through [`Estimator::score_batch_flat`] — the
    /// columnar twin of [`score_batch`], returning exactly the scores
    /// row-by-row [`score_point`] would.
    ///
    /// [`score_batch`]: BatchClassifier::score_batch
    /// [`score_point`]: BatchClassifier::score_point
    pub fn score_batch_flat(&self, flat: &[f64], dim: usize) -> Result<Vec<f64>> {
        self.estimator.score_batch_flat(flat, dim)
    }

    /// Train, threshold, score, and label a contiguous row-major metric
    /// buffer: the columnar twin of [`classify_batch`], producing identical
    /// classifications for the same rows.
    ///
    /// [`classify_batch`]: BatchClassifier::classify_batch
    pub fn classify_batch_flat(&mut self, flat: &[f64], dim: usize) -> Result<Vec<Classification>> {
        self.fit_flat(flat, dim)?;
        let scores: Vec<f64> = self.estimator.score_batch_flat(flat, dim)?;
        let threshold = StaticThreshold::from_scores(&scores, self.config.target_percentile)?;
        self.threshold = Some(threshold);
        Ok(scores
            .into_iter()
            .map(|score| threshold.classify(score))
            .collect())
    }

    /// Install an externally computed threshold — e.g. the global percentile
    /// cutoff of scores merged across partitions.
    pub fn set_threshold(&mut self, threshold: StaticThreshold) {
        self.threshold = Some(threshold);
    }

    /// Train the estimator and threshold, then score and label every point.
    ///
    /// Returns one [`Classification`] per input row, in input order.
    pub fn classify_batch(&mut self, metrics: &[Vec<f64>]) -> Result<Vec<Classification>> {
        self.fit(metrics)?;
        // Score everything through the estimator's bulk path (parallel for
        // MCD, a plain loop otherwise) — identical scores either way.
        let scores: Vec<f64> = self.estimator.score_batch(metrics)?;
        // Threshold at the target percentile of observed scores.
        let threshold = StaticThreshold::from_scores(&scores, self.config.target_percentile)?;
        self.threshold = Some(threshold);
        Ok(scores
            .into_iter()
            .map(|score| threshold.classify(score))
            .collect())
    }

    /// Score and label a single point using the model and threshold fitted by
    /// the last [`classify_batch`] call.
    ///
    /// [`classify_batch`]: BatchClassifier::classify_batch
    pub fn classify_point(&self, metrics: &[f64]) -> Result<Classification> {
        let threshold = self.threshold.ok_or(StatsError::NotTrained)?;
        let score = self.estimator.score(metrics)?;
        Ok(threshold.classify(score))
    }

    /// The trained threshold, if any.
    pub fn threshold(&self) -> Option<StaticThreshold> {
        self.threshold
    }

    /// Access the wrapped estimator.
    pub fn estimator(&self) -> &E {
        &self.estimator
    }

    /// Convenience: split classifications into (outlier indices, inlier indices).
    pub fn partition_indices(classifications: &[Classification]) -> (Vec<usize>, Vec<usize>) {
        let mut outliers = Vec::new();
        let mut inliers = Vec::new();
        for (idx, c) in classifications.iter().enumerate() {
            match c.label {
                Label::Outlier => outliers.push(idx),
                Label::Inlier => inliers.push(idx),
            }
        }
        (outliers, inliers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_stats::mad::MadEstimator;
    use mb_stats::mcd::McdEstimator;
    use mb_stats::rand_ext::{normal, SplitMix64};

    #[test]
    fn empty_batch_is_rejected() {
        let mut c = BatchClassifier::new(MadEstimator::new(), BatchClassifierConfig::default());
        assert!(matches!(
            c.classify_batch(&[]),
            Err(StatsError::EmptyInput)
        ));
    }

    #[test]
    fn flags_about_the_target_fraction() {
        let mut rng = SplitMix64::new(1);
        let metrics: Vec<Vec<f64>> = (0..10_000)
            .map(|_| vec![normal(&mut rng, 10.0, 2.0)])
            .collect();
        let mut c = BatchClassifier::new(MadEstimator::new(), BatchClassifierConfig::default());
        let result = c.classify_batch(&metrics).unwrap();
        let outliers = result.iter().filter(|r| r.label.is_outlier()).count();
        let fraction = outliers as f64 / metrics.len() as f64;
        assert!((0.005..0.02).contains(&fraction), "fraction = {fraction}");
    }

    #[test]
    fn injected_anomalies_are_the_flagged_points() {
        let mut rng = SplitMix64::new(2);
        let mut metrics: Vec<Vec<f64>> = (0..5_000)
            .map(|_| vec![normal(&mut rng, 10.0, 1.0)])
            .collect();
        // 50 extreme points (1%) injected at known indices.
        for i in 0..50 {
            metrics[i * 100] = vec![normal(&mut rng, 100.0, 1.0)];
        }
        let mut c = BatchClassifier::new(
            MadEstimator::new(),
            BatchClassifierConfig {
                target_percentile: 0.99,
                training_sample_size: None,
            },
        );
        let result = c.classify_batch(&metrics).unwrap();
        let (outlier_idx, _) = BatchClassifier::<MadEstimator>::partition_indices(&result);
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
        let mut metrics: Vec<Vec<f64>> = (0..2_000)
            .map(|_| vec![normal(&mut rng, 0.0, 1.0), normal(&mut rng, 0.0, 1.0)])
            .collect();
        for i in 0..20 {
            metrics[i * 100] = vec![50.0, 50.0];
        }
        let mut c = BatchClassifier::new(
            McdEstimator::with_defaults(),
            BatchClassifierConfig::default(),
        );
        let result = c.classify_batch(&metrics).unwrap();
        for i in 0..20 {
            assert!(result[i * 100].label.is_outlier());
        }
    }

    #[test]
    fn training_on_sample_still_classifies_well() {
        let mut rng = SplitMix64::new(4);
        let mut metrics: Vec<Vec<f64>> = (0..20_000)
            .map(|_| vec![normal(&mut rng, 10.0, 1.0)])
            .collect();
        for i in 0..200 {
            metrics[i * 100] = vec![normal(&mut rng, 70.0, 1.0)];
        }
        let mut c = BatchClassifier::new(
            MadEstimator::new(),
            BatchClassifierConfig {
                target_percentile: 0.99,
                training_sample_size: Some(500),
            },
        );
        let result = c.classify_batch(&metrics).unwrap();
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
        // The fit/score/set_threshold decomposition must reproduce
        // classify_batch exactly: same model, same scores, same labels.
        let mut rng = SplitMix64::new(6);
        let mut metrics: Vec<Vec<f64>> = (0..10_000)
            .map(|_| vec![normal(&mut rng, 10.0, 1.0)])
            .collect();
        for i in 0..100 {
            metrics[i * 100] = vec![normal(&mut rng, 60.0, 1.0)];
        }
        let config = BatchClassifierConfig::default();
        let mut reference = BatchClassifier::new(MadEstimator::new(), config);
        let expected = reference.classify_batch(&metrics).unwrap();

        let mut shared = BatchClassifier::new(MadEstimator::new(), config);
        shared.fit(&metrics).unwrap();
        // "Partitions" score against the shared model by reference.
        let shared_ref = &shared;
        let scores: Vec<f64> = metrics
            .iter()
            .map(|row| shared_ref.score_point(row).unwrap())
            .collect();
        let threshold =
            StaticThreshold::from_scores(&scores, config.target_percentile).unwrap();
        shared.set_threshold(threshold);
        assert_eq!(
            shared.threshold().unwrap().cutoff(),
            reference.threshold().unwrap().cutoff()
        );
        for (row, expected) in metrics.iter().zip(expected.iter()) {
            let got = shared.classify_point(row).unwrap();
            assert_eq!(got.label, expected.label);
            assert_eq!(got.score, expected.score);
        }
    }

    #[test]
    fn score_batch_matches_score_point_for_mcd() {
        // The bulk path runs MCD's parallel distance pass; partitioned
        // executors rely on it returning exactly the per-point scores.
        let mut rng = SplitMix64::new(7);
        let metrics: Vec<Vec<f64>> = (0..4_000)
            .map(|_| vec![normal(&mut rng, 0.0, 1.0), normal(&mut rng, 2.0, 1.0)])
            .collect();
        let mut c = BatchClassifier::new(
            McdEstimator::with_defaults(),
            BatchClassifierConfig::default(),
        );
        c.fit(&metrics).unwrap();
        let batch = c.score_batch(&metrics).unwrap();
        assert_eq!(batch.len(), metrics.len());
        for (row, &s) in metrics.iter().zip(batch.iter()) {
            assert_eq!(s, c.score_point(row).unwrap());
        }
    }

    #[test]
    fn classify_batch_flat_is_exactly_classify_batch() {
        // Including the strided training subsample: the flat path must pick
        // the same sample rows, hence the same model, scores, and labels.
        let mut rng = SplitMix64::new(8);
        let mut metrics: Vec<Vec<f64>> = (0..9_973)
            .map(|_| vec![normal(&mut rng, 10.0, 1.0)])
            .collect();
        for i in 0..90 {
            metrics[i * 110] = vec![normal(&mut rng, 70.0, 1.0)];
        }
        let config = BatchClassifierConfig {
            target_percentile: 0.99,
            training_sample_size: Some(701),
        };
        let mut rowwise = BatchClassifier::new(MadEstimator::new(), config);
        let expected = rowwise.classify_batch(&metrics).unwrap();

        let flat: Vec<f64> = metrics.iter().flatten().copied().collect();
        let mut columnar = BatchClassifier::new(MadEstimator::new(), config);
        let got = columnar.classify_batch_flat(&flat, 1).unwrap();

        assert_eq!(expected.len(), got.len());
        for (e, g) in expected.iter().zip(got.iter()) {
            assert_eq!(e.label, g.label);
            assert_eq!(e.score, g.score);
        }
        assert_eq!(
            rowwise.threshold().unwrap().cutoff(),
            columnar.threshold().unwrap().cutoff()
        );
    }

    #[test]
    fn fit_rejects_empty_and_invalid_config() {
        let mut c = BatchClassifier::new(MadEstimator::new(), BatchClassifierConfig::default());
        assert!(matches!(c.fit(&[]), Err(StatsError::EmptyInput)));
        let mut bad = BatchClassifier::new(
            MadEstimator::new(),
            BatchClassifierConfig {
                target_percentile: -1.0,
                training_sample_size: None,
            },
        );
        assert!(matches!(
            bad.fit(&[vec![1.0]]),
            Err(StatsError::InvalidParameter(_))
        ));
    }

    #[test]
    fn fit_and_fit_flat_reject_a_ragged_batch_alike() {
        // A two-wide batch whose last row has one value, as rows and flat.
        let ragged = StatsError::DimensionMismatch {
            expected: 2,
            actual: 1,
        };
        let classifier = || {
            BatchClassifier::new(
                McdEstimator::with_defaults(),
                BatchClassifierConfig::default(),
            )
        };
        assert_eq!(
            classifier().fit(&[vec![1.0, 2.0], vec![3.0]]),
            Err(ragged.clone())
        );
        assert_eq!(
            classifier().fit_flat(&[1.0, 2.0, 3.0], 2),
            Err(ragged.clone())
        );
        assert_eq!(
            McdEstimator::with_defaults().train_flat(&[1.0, 2.0, 3.0], 2),
            Err(ragged)
        );
    }

    #[test]
    fn classify_point_requires_prior_batch() {
        let c = BatchClassifier::new(MadEstimator::new(), BatchClassifierConfig::default());
        assert_eq!(c.classify_point(&[1.0]), Err(StatsError::NotTrained));
    }

    #[test]
    fn classify_point_after_batch() {
        let mut rng = SplitMix64::new(5);
        let metrics: Vec<Vec<f64>> = (0..5_000)
            .map(|_| vec![normal(&mut rng, 0.0, 1.0)])
            .collect();
        let mut c = BatchClassifier::new(MadEstimator::new(), BatchClassifierConfig::default());
        c.classify_batch(&metrics).unwrap();
        assert_eq!(c.classify_point(&[0.0]).unwrap().label, Label::Inlier);
        assert_eq!(c.classify_point(&[100.0]).unwrap().label, Label::Outlier);
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
            c.classify_batch(&[vec![1.0], vec![2.0]]),
            Err(StatsError::InvalidParameter(_))
        ));
    }
}
