#![warn(clippy::unwrap_used, clippy::expect_used)]
//! Streaming classification with ADR-based retraining (Section 4.2, the left
//! half of Figure 2).
//!
//! The streaming classifier maintains two Adaptable Damped Reservoirs:
//!
//! * an **input ADR** sampling recent metric vectors, from which the robust
//!   estimator (MAD or MCD) is periodically retrained, and
//! * a **score ADR** sampling recent outlier scores, from which the
//!   percentile threshold is periodically recomputed.
//!
//! Both reservoirs decay when the caller signals a period boundary (tuple- or
//! time-based), which is what lets the classifier adapt to distribution
//! shifts while staying resilient to arrival-rate spikes (Figure 5).

use crate::{Classification, Label};
use mb_sketch::adr::{AdaptableDampedReservoir, DecayPolicy};
use mb_sketch::quantile::AdrQuantileEstimator;
use mb_sketch::StreamSampler;
use mb_stats::{Estimator, Result, StatsError};

/// Points the input reservoir must hold before the first model training,
/// and scores the score reservoir must hold before a point is labeled an
/// outlier (one warm-up for both). A reservoir smaller than this never
/// fills to it, so [`StreamingClassifier::new`] refuses one.
pub const WARMUP_POINTS: usize = 100;

/// Configuration for the streaming classifier.
#[derive(Debug, Clone, Copy)]
pub struct StreamingClassifierConfig {
    /// Size of both the input (training) and the score reservoir, at least
    /// [`WARMUP_POINTS`]. Paper default: 10K.
    pub reservoir_size: usize,
    /// Decay rate applied to both reservoirs at each period boundary.
    /// Paper default: 0.01 every 100K points.
    pub decay_rate: f64,
    /// Retrain the model every this many observed points. The threshold is
    /// refreshed ten times as often.
    pub retrain_period: u64,
    /// Target score percentile above which points are outliers (default 0.99).
    pub target_percentile: f64,
    /// RNG seed for the reservoirs.
    pub seed: u64,
}

impl Default for StreamingClassifierConfig {
    fn default() -> Self {
        StreamingClassifierConfig {
            reservoir_size: 10_000,
            decay_rate: 0.01,
            retrain_period: 10_000,
            target_percentile: 0.99,
            seed: 0xACB7,
        }
    }
}

/// Streaming classifier wrapping any [`Estimator`].
#[derive(Debug, Clone)]
pub struct StreamingClassifier<E: Estimator> {
    estimator: E,
    config: StreamingClassifierConfig,
    input_reservoir: AdaptableDampedReservoir<Vec<f64>>,
    /// The reservoir's sample as one row-major buffer, the layout
    /// [`Estimator::train_flat`] reads; reused across retrains.
    training_rows: Vec<f64>,
    /// The score ADR: the percentile cutoff is recomputed from it every
    /// `retrain_period / 10` scores and at each period boundary.
    scores: AdrQuantileEstimator,
    points_since_retrain: u64,
    model_trained: bool,
}

impl<E: Estimator> StreamingClassifier<E> {
    /// Create a streaming classifier around an (untrained) estimator. A
    /// reservoir smaller than [`WARMUP_POINTS`] is refused: it could never
    /// hold enough points to train.
    pub fn new(estimator: E, config: StreamingClassifierConfig) -> Result<Self> {
        // Refused before either reservoir is built: the input reservoir
        // would take it (or, at 0, panic on it).
        if config.reservoir_size < WARMUP_POINTS {
            return Err(StatsError::InvalidParameter(format!(
                "reservoir size must be at least {WARMUP_POINTS}, got {}",
                config.reservoir_size
            )));
        }
        let scores = AdrQuantileEstimator::new(
            config.target_percentile,
            config.reservoir_size,
            config.decay_rate,
            (config.retrain_period / 10).max(1),
            config.seed.wrapping_add(1),
        )?;
        let input_reservoir = AdaptableDampedReservoir::new(
            config.reservoir_size,
            config.decay_rate,
            DecayPolicy::Manual,
            config.seed,
        );
        Ok(StreamingClassifier {
            estimator,
            config,
            input_reservoir,
            training_rows: Vec::new(),
            scores,
            points_since_retrain: 0,
            model_trained: false,
        })
    }

    /// Observe one point's metrics, retraining/refreshing as configured, and
    /// return its classification. Before the model is first trained (during
    /// warm-up) every point is labeled an inlier with score 0.
    pub fn observe(&mut self, metrics: &[f64]) -> Classification {
        self.points_since_retrain += 1;
        self.input_reservoir.observe(metrics.to_vec());

        // Initial training once enough points are buffered, then periodic
        // retraining on the damped reservoir.
        let due_for_training = if self.model_trained {
            self.points_since_retrain >= self.config.retrain_period
        } else {
            self.input_reservoir.len() >= WARMUP_POINTS
        };
        if due_for_training {
            self.retrain();
        }

        if !self.model_trained {
            return Classification {
                score: 0.0,
                label: Label::Inlier,
            };
        }
        match self.estimator.score(metrics) {
            Ok(score) => self.classify_score(score),
            Err(_) => Classification {
                score: 0.0,
                label: Label::Inlier,
            },
        }
    }

    /// Add a score to the score ADR and classify it against the current
    /// cutoff. Until [`WARMUP_POINTS`] scores are held the percentile
    /// estimate is too noisy to act on, so every point is labeled an
    /// inlier; the cutoff is computed as soon as the warm-up ends.
    fn classify_score(&mut self, score: f64) -> Classification {
        self.scores.observe(score);
        if self.scores.sample_size() < WARMUP_POINTS {
            return Classification {
                score,
                label: Label::Inlier,
            };
        }
        if self.scores.sample_size() == WARMUP_POINTS {
            // First usable sample: compute the initial cutoff now rather than
            // waiting out the refresh period.
            self.scores.refresh();
        }
        let label = match self.scores.threshold() {
            Ok(cutoff) => Label::from_outlier_flag(score >= cutoff),
            Err(_) => Label::Inlier,
        };
        Classification { score, label }
    }

    /// Force a model retrain from the current input reservoir. A sample the
    /// estimator rejects (empty, non-finite, points of differing widths)
    /// keeps the current model.
    pub(crate) fn retrain(&mut self) {
        self.points_since_retrain = 0;
        let sample = self.input_reservoir.sample();
        let Some(dim) = sample.first().map(Vec::len) else {
            return;
        };
        if sample.iter().any(|row| row.len() != dim) {
            return;
        }
        self.training_rows.clear();
        self.training_rows.extend(sample.iter().flatten());
        if self.estimator.train_flat(&self.training_rows, dim).is_ok() {
            self.model_trained = true;
        }
    }

    /// Signal a decay period boundary: both reservoirs are decayed, and the
    /// cutoff is recomputed from the decayed score reservoir.
    pub fn on_period_boundary(&mut self) {
        self.input_reservoir.decay();
        self.scores.decay();
        self.scores.refresh();
    }

    /// Points observed since the model was last (re)trained — the model
    /// staleness a monitoring layer wants to watch. Resets to 0 on every
    /// `StreamingClassifier::retrain`, including warm-up training.
    pub fn points_since_retrain(&self) -> u64 {
        self.points_since_retrain
    }

    /// The current score cutoff, if available.
    pub fn current_cutoff(&mut self) -> Option<f64> {
        self.scores.threshold().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_stats::mad::MadEstimator;
    use mb_stats::mcd::McdEstimator;
    use mb_stats::rand_ext::{normal, SplitMix64};

    fn test_config() -> StreamingClassifierConfig {
        StreamingClassifierConfig {
            reservoir_size: 2_000,
            decay_rate: 0.05,
            retrain_period: 2_000,
            target_percentile: 0.99,
            seed: 7,
        }
    }

    #[test]
    fn a_reservoir_below_the_warm_up_is_refused() {
        // It would never hold WARMUP_POINTS points, so the model would never
        // train and no point would ever be labeled an outlier.
        for reservoir_size in [0, 1, WARMUP_POINTS - 1] {
            let cfg = StreamingClassifierConfig {
                reservoir_size,
                ..test_config()
            };
            let refused = StreamingClassifier::new(MadEstimator::new(), cfg);
            assert!(
                matches!(refused, Err(StatsError::InvalidParameter(_))),
                "{reservoir_size}"
            );
        }
        let cfg = StreamingClassifierConfig {
            reservoir_size: WARMUP_POINTS,
            ..test_config()
        };
        let mut rng = SplitMix64::new(8);
        let mut c = StreamingClassifier::new(MadEstimator::new(), cfg).unwrap();
        for _ in 0..2_000 {
            c.observe(&[normal(&mut rng, 0.0, 1.0)]);
        }
        assert!(c.model_trained);
        assert!(c.observe(&[1_000.0]).label.is_outlier());
    }

    #[test]
    fn warmup_points_are_inliers() {
        let mut c = StreamingClassifier::new(MadEstimator::new(), test_config()).unwrap();
        for i in 0..10 {
            let r = c.observe(&[i as f64]);
            assert_eq!(r.label, Label::Inlier);
        }
        assert!(!c.model_trained);
    }

    #[test]
    fn trains_after_warmup_and_flags_extremes() {
        let mut rng = SplitMix64::new(1);
        let mut c = StreamingClassifier::new(MadEstimator::new(), test_config()).unwrap();
        for _ in 0..5_000 {
            c.observe(&[normal(&mut rng, 10.0, 1.0)]);
        }
        assert!(c.model_trained);
        let extreme = c.observe(&[1_000.0]);
        assert_eq!(extreme.label, Label::Outlier);
        assert!(extreme.score > 100.0);
        let typical = c.observe(&[10.0]);
        assert_eq!(typical.label, Label::Inlier);
    }

    #[test]
    fn outlier_rate_tracks_target_percentile() {
        let mut rng = SplitMix64::new(2);
        let mut c = StreamingClassifier::new(MadEstimator::new(), test_config()).unwrap();
        let n = 50_000;
        let mut outliers = 0usize;
        for i in 0..n {
            let r = c.observe(&[normal(&mut rng, 0.0, 1.0)]);
            if r.label.is_outlier() {
                outliers += 1;
            }
            if i % 10_000 == 9_999 {
                c.on_period_boundary();
            }
        }
        let fraction = outliers as f64 / n as f64;
        assert!((0.003..0.03).contains(&fraction), "fraction = {fraction}");
    }

    #[test]
    fn adapts_to_distribution_shift_after_retraining() {
        let mut rng = SplitMix64::new(3);
        let mut cfg = test_config();
        cfg.retrain_period = 1_000;
        cfg.decay_rate = 0.5;
        let mut c = StreamingClassifier::new(MadEstimator::new(), cfg).unwrap();
        // Regime 1: values around 10.
        for i in 0..10_000 {
            c.observe(&[normal(&mut rng, 10.0, 1.0)]);
            if i % 2_000 == 1_999 {
                c.on_period_boundary();
            }
        }
        // A value of 40 is extreme in regime 1.
        assert!(c.observe(&[40.0]).label.is_outlier());
        // Regime 2: every device moves to 40 (the Figure 5 "all devices shift"
        // scenario). After enough points and boundaries, 40 becomes normal.
        for i in 0..20_000 {
            c.observe(&[normal(&mut rng, 40.0, 1.0)]);
            if i % 2_000 == 1_999 {
                c.on_period_boundary();
            }
        }
        assert_eq!(c.observe(&[40.0]).label, Label::Inlier);
        // And a drop to -10 (D0's second anomaly in Figure 5) is now extreme.
        assert!(c.observe(&[-10.0]).label.is_outlier());
    }

    #[test]
    fn multivariate_streaming_with_mcd() {
        let mut rng = SplitMix64::new(4);
        let mut cfg = test_config();
        cfg.reservoir_size = 500;
        cfg.retrain_period = 5_000;
        let mut c =
            StreamingClassifier::new(McdEstimator::with_defaults(), cfg).unwrap();
        for _ in 0..3_000 {
            c.observe(&[normal(&mut rng, 0.0, 1.0), normal(&mut rng, 5.0, 2.0)]);
        }
        assert!(c.model_trained);
        assert!(c.observe(&[100.0, 100.0]).label.is_outlier());
        assert_eq!(c.observe(&[0.0, 5.0]).label, Label::Inlier);
    }

    #[test]
    fn a_reservoir_of_mixed_widths_does_not_train() {
        // Points of two widths have no row-major layout: a retrain over
        // them must fail as the estimator rejects ragged rows, not train on
        // the values re-cut at the first point's width.
        let mut c = StreamingClassifier::new(McdEstimator::with_defaults(), test_config()).unwrap();
        for i in 0..1_000 {
            let x = (i % 13) as f64;
            if i % 2 == 0 {
                c.observe(&[x, x * 0.5]);
            } else {
                c.observe(&[x, x * 0.5, 1.0, 2.0]);
            }
        }
        assert!(!c.model_trained);
    }

    #[test]
    fn cutoff_is_exposed() {
        let mut rng = SplitMix64::new(6);
        let mut c = StreamingClassifier::new(MadEstimator::new(), test_config()).unwrap();
        assert!(c.current_cutoff().is_none());
        for _ in 0..2_000 {
            c.observe(&[normal(&mut rng, 0.0, 1.0)]);
        }
        let cutoff = c.current_cutoff().unwrap();
        assert!(cutoff > 1.0 && cutoff < 10.0, "cutoff = {cutoff}");
    }
}
