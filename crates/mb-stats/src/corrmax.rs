//! Attribution of a multivariate outlier score to individual metric
//! dimensions (the "corr-max" step of Appendix A).
//!
//! When the MCD classifier flags a point, operators want to know *which*
//! metrics drove the score (was it battery drain, or trip time?). The paper
//! cites the corr-max transformation of Garthwaite & Koch for decomposing a
//! quadratic form into per-variable contributions. We implement the standard
//! additive decomposition of the squared Mahalanobis distance,
//!
//! ```text
//! D²(x) = (x − µ)ᵀ C⁻¹ (x − µ) = Σ_i (x_i − µ_i) · [C⁻¹ (x − µ)]_i
//! ```
//!
//! whose terms sum exactly to the squared distance; each term is the
//! contribution of dimension `i` *including* its interactions with the other
//! dimensions through the precision matrix. Negative contributions are
//! possible for strongly correlated metrics and simply mean the dimension
//! pulled the point back toward the bulk.

use crate::matrix::Matrix;
use crate::{Result, StatsError};

/// Per-dimension contribution to a squared Mahalanobis distance.
#[derive(Debug, Clone, PartialEq)]
pub struct DimensionContribution {
    /// Index of the metric dimension.
    pub dimension: usize,
    /// Additive contribution to the squared distance.
    pub contribution: f64,
    /// Contribution as a fraction of the total squared distance
    /// (0 when the total is 0).
    pub fraction: f64,
}

/// Decompose the squared Mahalanobis distance of `x` (with location `mean`
/// and precision matrix `precision = C⁻¹`) into per-dimension contributions,
/// sorted by decreasing contribution.
pub fn mahalanobis_contributions(
    x: &[f64],
    mean: &[f64],
    precision: &Matrix,
) -> Result<Vec<DimensionContribution>> {
    let d = mean.len();
    if x.len() != d {
        return Err(StatsError::DimensionMismatch {
            expected: d,
            actual: x.len(),
        });
    }
    if precision.rows() != d || precision.cols() != d {
        return Err(StatsError::DimensionMismatch {
            expected: d,
            actual: precision.rows(),
        });
    }
    let centered: Vec<f64> = x.iter().zip(mean.iter()).map(|(a, b)| a - b).collect();
    let transformed = precision.matvec(&centered)?;
    let contributions: Vec<f64> = centered
        .iter()
        .zip(transformed.iter())
        .map(|(a, b)| a * b)
        .collect();
    let total: f64 = contributions.iter().sum();
    let mut out: Vec<DimensionContribution> = contributions
        .into_iter()
        .enumerate()
        .map(|(dimension, contribution)| DimensionContribution {
            dimension,
            contribution,
            fraction: if total.abs() > f64::EPSILON {
                contribution / total
            } else {
                0.0
            },
        })
        .collect();
    out.sort_by(|a, b| b.contribution.total_cmp(&a.contribution));
    Ok(out)
}

/// Convenience: the index of the dimension contributing most to the score.
pub fn dominant_dimension(x: &[f64], mean: &[f64], precision: &Matrix) -> Result<usize> {
    let contributions = mahalanobis_contributions(x, mean, precision)?;
    contributions
        .first()
        .map(|c| c.dimension)
        .ok_or(StatsError::EmptyInput)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mcd::McdEstimator;
    use crate::rand_ext::{normal, SplitMix64};
    use crate::Estimator;

    #[test]
    fn contributions_sum_to_squared_distance() {
        // Identity precision: contributions are just squared deviations.
        let precision = Matrix::identity(3);
        let mean = vec![0.0, 0.0, 0.0];
        let x = vec![3.0, 4.0, 0.0];
        let contributions = mahalanobis_contributions(&x, &mean, &precision).unwrap();
        let total: f64 = contributions.iter().map(|c| c.contribution).sum();
        assert!((total - 25.0).abs() < 1e-9);
        // Dimension 1 (value 4.0) dominates.
        assert_eq!(contributions[0].dimension, 1);
        assert!((contributions[0].contribution - 16.0).abs() < 1e-9);
        assert!((contributions[0].fraction - 16.0 / 25.0).abs() < 1e-9);
    }

    #[test]
    fn dimension_mismatch_is_rejected() {
        let precision = Matrix::identity(2);
        assert!(mahalanobis_contributions(&[1.0], &[0.0, 0.0], &precision).is_err());
        assert!(mahalanobis_contributions(&[1.0, 1.0], &[0.0], &precision).is_err());
    }

    #[test]
    fn zero_distance_has_zero_fractions() {
        let precision = Matrix::identity(2);
        let contributions =
            mahalanobis_contributions(&[1.0, 2.0], &[1.0, 2.0], &precision).unwrap();
        for c in contributions {
            assert_eq!(c.contribution, 0.0);
            assert_eq!(c.fraction, 0.0);
        }
    }

    #[test]
    fn agrees_with_mcd_score_and_identifies_anomalous_metric() {
        let mut rng = SplitMix64::new(99);
        // Two metrics: dimension 0 ~ N(0, 1), dimension 1 ~ N(50, 5).
        let sample: Vec<f64> = (0..1000)
            .flat_map(|_| [normal(&mut rng, 0.0, 1.0), normal(&mut rng, 50.0, 5.0)])
            .collect();
        let mut est = McdEstimator::with_defaults();
        est.train_flat(&sample, 2).unwrap();

        // A point anomalous only in dimension 1.
        let point = vec![0.1, 200.0];
        let d2 = est.squared_mahalanobis(&point).unwrap();
        let contributions = mahalanobis_contributions(
            &point,
            est.location().unwrap(),
            est.inverse_scatter().unwrap(),
        )
        .unwrap();
        let total: f64 = contributions.iter().map(|c| c.contribution).sum();
        assert!((total - d2).abs() / d2.max(1e-9) < 1e-6);
        assert_eq!(dominant_dimension(
            &point,
            est.location().unwrap(),
            est.inverse_scatter().unwrap()
        )
        .unwrap(), 1);
    }
}
