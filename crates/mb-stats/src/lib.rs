//! Robust statistics and small dense linear algebra for MacroBase-RS.
//!
//! This crate provides the statistical substrate used by MacroBase's default
//! pipeline (MDP, Section 4 of the paper):
//!
//! * [`univariate`] — means, variances, medians, quantiles, and the Median
//!   Absolute Deviation (MAD).
//! * [`matrix`] — a small, dependency-free dense matrix type and the one
//!   factorization FastMCD's C-step needs (Cholesky, with LU as the
//!   fallback): factor once, derive the inverse and the log-determinant
//!   from the shared factors.
//! * [`mad`] — the robust univariate outlier scorer based on median/MAD.
//! * [`mcd`] — the Minimum Covariance Determinant estimator (FastMCD) and
//!   Mahalanobis-distance scoring for multivariate metrics; starts
//!   converge on a nested subsample and one finalist is polished on the
//!   full sample, with starts, distance passes and subset covariances
//!   scattered on the shared `mb_pool`.
//! * [`zscore`] — the non-robust Z-score baseline used in Figure 3.
//! * [`rand_ext`] — in-repo Gaussian (Box–Muller) and Zipfian samplers so
//!   the workspace does not need `rand_distr`.
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
///
/// A sample or a batch is one row-major buffer: `dim` values per row, rows
/// back to back. That is the only layout the estimators read, and the one
/// the batch engines and the streaming classifier hold their metrics in.
pub trait Estimator {
    /// Fit the model to a row-major sample of `dim`-length rows.
    ///
    /// Returns an error when the sample is empty, its length is not a
    /// multiple of `dim`, it contains a non-finite value, or it is too
    /// small or degenerate for the estimator. A failed fit leaves a
    /// previously fitted model as it was.
    fn train_flat(&mut self, flat: &[f64], dim: usize) -> Result<()>;

    /// Score a single metric vector. Requires a prior successful
    /// [`train_flat`].
    ///
    /// [`train_flat`]: Estimator::train_flat
    fn score(&self, metrics: &[f64]) -> Result<f64>;

    /// Score a row-major batch of `dim`-length rows, returning one score per
    /// row in row order: exactly what [`score`] returns for each row, so
    /// callers can batch (and an estimator can scatter the pass on a pool)
    /// without perturbing results.
    ///
    /// [`score`]: Estimator::score
    fn score_batch_flat(&self, flat: &[f64], dim: usize) -> Result<Vec<f64>>;

    /// Dimensionality the model was trained on, if trained.
    fn dimension(&self) -> Option<usize>;

    /// Whether the model has been trained and can score points.
    fn is_trained(&self) -> bool {
        self.dimension().is_some()
    }
}

/// Validate a row-major sample of `dim`-length rows: non-empty, a whole
/// number of rows, and finite. Returns the row count. Every estimator's
/// [`Estimator::train_flat`] starts here.
pub(crate) fn validate_sample(flat: &[f64], dim: usize) -> Result<usize> {
    if flat.is_empty() || dim == 0 {
        return Err(StatsError::EmptyInput);
    }
    if flat.len() % dim != 0 {
        return Err(StatsError::DimensionMismatch {
            expected: dim,
            actual: flat.len() % dim,
        });
    }
    if flat.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    Ok(flat.len() / dim)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_sample_rejects_empty() {
        assert_eq!(validate_sample(&[], 2), Err(StatsError::EmptyInput));
        assert_eq!(validate_sample(&[1.0], 0), Err(StatsError::EmptyInput));
    }

    #[test]
    fn validate_sample_rejects_ragged() {
        // Five values are not a whole number of two-wide rows.
        assert_eq!(
            validate_sample(&[1.0, 2.0, 3.0, 4.0, 5.0], 2),
            Err(StatsError::DimensionMismatch {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn validate_sample_rejects_nan() {
        assert_eq!(validate_sample(&[1.0, f64::NAN], 2), Err(StatsError::NonFinite));
        assert_eq!(validate_sample(&[f64::INFINITY], 1), Err(StatsError::NonFinite));
    }

    #[test]
    fn validate_sample_accepts_rectangular() {
        assert_eq!(validate_sample(&[1.0, 2.0, 3.0, 4.0], 2), Ok(2));
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
