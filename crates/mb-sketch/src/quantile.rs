//! Streaming quantile estimation via the ADR (Section 4.2).
//!
//! MDP classifies the points whose outlier scores exceed a target percentile
//! (e.g. the 99th). Rather than maintaining an exact streaming quantile
//! structure under exponential decay, MacroBase samples the *score stream*
//! into an ADR and periodically recomputes the quantile from the sample: an
//! ADR of ~20K scores gives a 1%-approximate quantile with 99% probability
//! (`O(1/ε² · log(1/δ))` sample complexity).

use crate::adr::{AdaptableDampedReservoir, DecayPolicy};
use crate::StreamSampler;
use mb_stats::univariate::quantile_in_place;
use mb_stats::{Result, StatsError};

/// Streaming quantile estimator backed by an Adaptable Damped Reservoir.
#[derive(Debug, Clone)]
pub struct AdrQuantileEstimator {
    reservoir: AdaptableDampedReservoir<f64>,
    quantile: f64,
    cached_threshold: Option<f64>,
    observations_since_refresh: u64,
    refresh_period: u64,
}

impl AdrQuantileEstimator {
    /// Create an estimator for the given `quantile ∈ [0, 1]`.
    ///
    /// * `capacity` — reservoir size (the paper uses 10K–20K).
    /// * `decay_rate` — exponential decay applied by [`decay`].
    /// * `refresh_period` — number of observations between automatic
    ///   recomputations of the cached threshold.
    ///
    /// [`decay`]: AdrQuantileEstimator::decay
    pub fn new(
        quantile: f64,
        capacity: usize,
        decay_rate: f64,
        refresh_period: u64,
        seed: u64,
    ) -> Result<Self> {
        if !(0.0..=1.0).contains(&quantile) {
            return Err(StatsError::InvalidParameter(format!(
                "quantile must be in [0, 1], got {quantile}"
            )));
        }
        if refresh_period == 0 {
            return Err(StatsError::InvalidParameter(
                "refresh period must be positive".to_string(),
            ));
        }
        Ok(AdrQuantileEstimator {
            reservoir: AdaptableDampedReservoir::new(
                capacity,
                decay_rate,
                DecayPolicy::Manual,
                seed,
            ),
            quantile,
            cached_threshold: None,
            observations_since_refresh: 0,
            refresh_period,
        })
    }

    /// Observe one score.
    pub fn observe(&mut self, score: f64) {
        if !score.is_finite() {
            // Non-finite scores (e.g. from degenerate models) are dropped
            // rather than poisoning the threshold.
            return;
        }
        self.reservoir.observe(score);
        self.observations_since_refresh += 1;
        if self.observations_since_refresh >= self.refresh_period {
            self.refresh();
        }
    }

    /// Apply one decay step to the underlying reservoir.
    pub fn decay(&mut self) {
        self.reservoir.decay();
    }

    /// Recompute the cached threshold from the current reservoir contents.
    pub fn refresh(&mut self) {
        self.observations_since_refresh = 0;
        if self.reservoir.is_empty() {
            self.cached_threshold = None;
            return;
        }
        let mut sample = self.reservoir.snapshot();
        self.cached_threshold = quantile_in_place(&mut sample, self.quantile).ok();
    }

    /// The current threshold estimate (refreshing lazily if none is cached).
    pub fn threshold(&mut self) -> Result<f64> {
        if self.cached_threshold.is_none() {
            self.refresh();
        }
        self.cached_threshold.ok_or(StatsError::EmptyInput)
    }

    /// Number of scores currently retained in the reservoir.
    pub fn sample_size(&self) -> usize {
        self.reservoir.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_stats::rand_ext::{normal, SplitMix64};

    #[test]
    fn rejects_invalid_parameters() {
        assert!(AdrQuantileEstimator::new(1.5, 100, 0.01, 10, 1).is_err());
        assert!(AdrQuantileEstimator::new(0.5, 100, 0.01, 0, 1).is_err());
    }

    #[test]
    fn empty_estimator_errors() {
        let mut est = AdrQuantileEstimator::new(0.99, 100, 0.01, 10, 1).unwrap();
        assert_eq!(est.threshold(), Err(StatsError::EmptyInput));
    }

    #[test]
    fn estimates_quantile_of_uniform_stream() {
        let mut est = AdrQuantileEstimator::new(0.99, 20_000, 0.0, 1_000, 1).unwrap();
        let mut rng = SplitMix64::new(5);
        for _ in 0..100_000 {
            est.observe(rng.next_f64());
        }
        let t = est.threshold().unwrap();
        assert!((t - 0.99).abs() < 0.01, "threshold was {t}");
    }

    #[test]
    fn estimates_quantile_of_gaussian_scores() {
        // 99th percentile of |N(0,1)| scores is ~2.576 (two-sided) — here we
        // use one-sided N(0,1), whose 99th percentile is ~2.326.
        let mut est = AdrQuantileEstimator::new(0.99, 20_000, 0.0, 5_000, 2).unwrap();
        let mut rng = SplitMix64::new(7);
        for _ in 0..200_000 {
            est.observe(normal(&mut rng, 0.0, 1.0));
        }
        let t = est.threshold().unwrap();
        assert!((t - 2.326).abs() < 0.15, "threshold was {t}");
    }

    #[test]
    fn ignores_non_finite_scores() {
        let mut est = AdrQuantileEstimator::new(0.5, 100, 0.0, 10, 3).unwrap();
        for i in 0..100 {
            est.observe(i as f64);
            est.observe(f64::NAN);
            est.observe(f64::INFINITY);
        }
        let t = est.threshold().unwrap();
        assert!(t.is_finite());
        assert!((t - 49.5).abs() < 10.0);
    }

    #[test]
    fn adapts_to_score_distribution_shift_with_decay() {
        let mut est = AdrQuantileEstimator::new(0.9, 2_000, 0.5, 500, 4).unwrap();
        let mut rng = SplitMix64::new(9);
        // Initial regime: scores around 1.
        for _ in 0..20_000 {
            est.observe(normal(&mut rng, 1.0, 0.1));
        }
        est.decay();
        let before = est.threshold().unwrap();
        // Shifted regime: scores around 10, with periodic decay.
        for i in 0..20_000 {
            est.observe(normal(&mut rng, 10.0, 0.1));
            if i % 2_000 == 0 {
                est.decay();
            }
        }
        est.refresh();
        let after = est.threshold().unwrap();
        assert!(before < 2.0, "before = {before}");
        assert!(after > 8.0, "after = {after}");
    }

    #[test]
    fn refresh_period_controls_staleness() {
        let mut est = AdrQuantileEstimator::new(0.5, 1_000, 0.0, 1_000_000, 5).unwrap();
        for i in 0..100 {
            est.observe(i as f64);
        }
        // Lazy refresh on first call...
        let t1 = est.threshold().unwrap();
        // ...then the cache does not move until refresh() even as new data arrives.
        for i in 1_000..2_000 {
            est.observe(i as f64);
        }
        assert_eq!(est.cached_threshold, Some(t1));
        est.refresh();
        assert!(est.cached_threshold.unwrap() > t1);
    }
}
