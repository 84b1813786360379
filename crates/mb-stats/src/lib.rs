//! Robust statistics and small dense linear algebra for MacroBase-RS.
//!
//! This crate provides the statistical substrate used by MacroBase's default
//! pipeline (MDP, Section 4 of the paper):
//!
//! * [`univariate`] — means, variances, medians, quantiles, and the Median
//!   Absolute Deviation (MAD).
//! * [`matrix`] — a small, dependency-free dense matrix type with the
//!   reusable factorizations FastMCD's C-step needs
//!   ([`matrix::LuFactors`], [`matrix::CholeskyFactors`]): factor once,
//!   derive solve/inverse/log-determinant from the shared factors.
//! * [`mad`] — the robust univariate outlier scorer based on median/MAD.
//! * [`mcd`] — the Minimum Covariance Determinant estimator (FastMCD) and
//!   Mahalanobis-distance scoring for multivariate metrics; starts
//!   converge on a nested subsample and one finalist is polished on the
//!   full sample, with starts, distance passes and subset covariances
//!   scattered on the shared `mb_pool`.
//! * [`zscore`] — the non-robust Z-score baseline used in Figure 3.
//! * [`rand_ext`] — in-repo Gaussian/exponential samplers (Box–Muller) so the
//!   workspace does not need `rand_distr`.
//! * [`confidence`] — risk-ratio confidence intervals, binomial proportion
//!   intervals, and Bonferroni correction (Appendix B).
//! * [`corrmax`] — the corr-max transformation used to attribute an MCD
//!   outlier score to individual metric dimensions (Appendix A).
//!
//! All estimators implement the common [`Estimator`] trait so the
//! classification layer can treat them uniformly.
//!
//! ## Example
//!
//! Train the robust MAD scorer on a univariate sample and score points;
//! values far from the median score much higher than values in the bulk:
//!
//! ```
//! use mb_stats::mad::MadEstimator;
//!
//! let mut est = MadEstimator::new();
//! est.train_univariate(&[9.0, 10.0, 10.5, 11.0, 10.2, 9.8, 10.1]).unwrap();
//! assert!(est.score_value(10.0).unwrap() < est.score_value(100.0).unwrap());
//! ```

#![warn(missing_docs)]

pub mod confidence;
pub mod corrmax;
pub mod mad;
pub mod matrix;
pub mod mcd;
pub mod rand_ext;
pub mod univariate;
pub mod zscore;

/// Errors produced by statistical estimators.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// The input sample was empty.
    EmptyInput,
    /// The input contained a non-finite value (NaN or infinity).
    NonFinite,
    /// Matrix dimensions were incompatible for the requested operation.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Actual dimension encountered.
        actual: usize,
    },
    /// A matrix required to be invertible was (numerically) singular.
    SingularMatrix,
    /// The estimator has not been trained yet.
    NotTrained,
    /// Not enough data points to fit the requested model.
    InsufficientData {
        /// Minimum number of points required.
        required: usize,
        /// Number of points provided.
        provided: usize,
    },
    /// A parameter was outside its valid range.
    InvalidParameter(String),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input sample is empty"),
            StatsError::NonFinite => write!(f, "input contains a non-finite value"),
            StatsError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            StatsError::SingularMatrix => write!(f, "matrix is singular"),
            StatsError::NotTrained => write!(f, "estimator has not been trained"),
            StatsError::InsufficientData { required, provided } => {
                write!(f, "insufficient data: need {required}, got {provided}")
            }
            StatsError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StatsError>;

/// A trainable scoring model over fixed-dimension metric vectors.
///
/// This is the contract used by MacroBase's classification stage: a model is
/// (re)trained on a sample of metric vectors (typically drawn from an
/// [ADR](https://docs.rs/mb-sketch) reservoir) and then assigns each incoming
/// point a non-negative *outlier score*; higher scores indicate points
/// farther from the bulk of the distribution.
pub trait Estimator {
    /// Fit the model to a sample of metric vectors.
    ///
    /// Every row of `sample` must have the same dimensionality. Returns an
    /// error when the sample is empty, contains non-finite values, or is too
    /// small/degenerate for the estimator.
    fn train(&mut self, sample: &[Vec<f64>]) -> Result<()>;

    /// Fit the estimator on a contiguous row-major sample (`dim` values per
    /// row) — the columnar counterpart of [`train`].
    ///
    /// The default materializes row vectors and delegates to [`train`];
    /// every estimator in this crate overrides it to fit straight off the
    /// flat buffer without per-row allocation. Must produce exactly the model
    /// [`train`] would fit on the same rows.
    ///
    /// [`train`]: Estimator::train
    fn train_flat(&mut self, flat: &[f64], dim: usize) -> Result<()> {
        if dim == 0 {
            return Err(StatsError::EmptyInput);
        }
        if flat.len() % dim != 0 {
            return Err(StatsError::DimensionMismatch {
                expected: dim,
                actual: flat.len() % dim,
            });
        }
        let rows: Vec<Vec<f64>> = flat.chunks_exact(dim).map(|row| row.to_vec()).collect();
        self.train(&rows)
    }

    /// Score a single metric vector. Requires a prior successful [`train`].
    ///
    /// [`train`]: Estimator::train
    fn score(&self, metrics: &[f64]) -> Result<f64>;

    /// Score many metric vectors, returning one score per row in row order.
    ///
    /// The default loops over [`score`]; estimators with a cheaper or
    /// parallel bulk path (e.g. MCD's pool-scattered Mahalanobis distance
    /// pass) override it. Implementations must return exactly the scores
    /// the row-by-row loop would, so callers can batch freely without
    /// perturbing results.
    ///
    /// [`score`]: Estimator::score
    fn score_batch(&self, rows: &[Vec<f64>]) -> Result<Vec<f64>> {
        rows.iter().map(|row| self.score(row)).collect()
    }

    /// Score many metric vectors stored contiguously (row-major, `dim` values
    /// per row), returning one score per row in row order.
    ///
    /// This is the columnar counterpart of [`score_batch`] used by the batch
    /// pipeline, which keeps metrics in one flat buffer instead of a
    /// `Vec<Vec<f64>>`. Must return exactly what scoring each `dim`-length
    /// chunk individually would.
    ///
    /// [`score_batch`]: Estimator::score_batch
    fn score_batch_flat(&self, flat: &[f64], dim: usize) -> Result<Vec<f64>> {
        if dim == 0 {
            return Err(StatsError::EmptyInput);
        }
        if flat.len() % dim != 0 {
            return Err(StatsError::DimensionMismatch {
                expected: dim,
                actual: flat.len() % dim,
            });
        }
        flat.chunks_exact(dim).map(|row| self.score(row)).collect()
    }

    /// Dimensionality the model was trained on, if trained.
    fn dimension(&self) -> Option<usize>;

    /// Whether the model has been trained and can score points.
    fn is_trained(&self) -> bool {
        self.dimension().is_some()
    }
}

/// Validate that a slice of metric rows is non-empty, rectangular, and finite.
pub(crate) fn validate_sample(sample: &[Vec<f64>]) -> Result<usize> {
    let first = sample.first().ok_or(StatsError::EmptyInput)?;
    let dim = first.len();
    if dim == 0 {
        return Err(StatsError::EmptyInput);
    }
    for row in sample {
        if row.len() != dim {
            return Err(StatsError::DimensionMismatch {
                expected: dim,
                actual: row.len(),
            });
        }
        if row.iter().any(|v| !v.is_finite()) {
            return Err(StatsError::NonFinite);
        }
    }
    Ok(dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_sample_rejects_empty() {
        assert_eq!(validate_sample(&[]), Err(StatsError::EmptyInput));
        assert_eq!(validate_sample(&[vec![]]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn validate_sample_rejects_ragged() {
        let sample = vec![vec![1.0, 2.0], vec![3.0]];
        assert!(matches!(
            validate_sample(&sample),
            Err(StatsError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn validate_sample_rejects_nan() {
        let sample = vec![vec![1.0, f64::NAN]];
        assert_eq!(validate_sample(&sample), Err(StatsError::NonFinite));
    }

    #[test]
    fn validate_sample_accepts_rectangular() {
        let sample = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        assert_eq!(validate_sample(&sample), Ok(2));
    }

    #[test]
    fn error_display_is_informative() {
        let e = StatsError::InsufficientData {
            required: 10,
            provided: 3,
        };
        assert!(e.to_string().contains("10"));
        assert!(e.to_string().contains("3"));
    }
}
