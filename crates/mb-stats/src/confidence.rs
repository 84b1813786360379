//! Confidence intervals.
//!
//! The percentile classifier detects quantile drift (Section 4.2, footnote
//! 4) with a Wilson interval on the binomial proportion of points it labels
//! outliers, built on the normal quantile function here.

use crate::{Result, StatsError};

/// Inverse of the standard normal CDF (quantile function) via the
/// Acklam/Beasley-Springer-Moro rational approximation; max absolute error
/// ~1.15e-9, far below what confidence reporting needs.
pub(crate) fn normal_quantile(p: f64) -> Result<f64> {
    if !(0.0..1.0).contains(&p) || p == 0.0 {
        return Err(StatsError::InvalidParameter(format!(
            "quantile probability must be in (0, 1), got {p}"
        )));
    }
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    Ok(x)
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower bound of the interval.
    pub lower: f64,
    /// Upper bound of the interval.
    pub upper: f64,
    /// Confidence level in `(0, 1)`, e.g. `0.95`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Whether the interval contains `value`.
    pub fn contains(&self, value: f64) -> bool {
        value >= self.lower && value <= self.upper
    }
}

/// Wilson score interval for a binomial proportion (`successes` out of
/// `trials`). Used to detect quantile drift: if the observed fraction of
/// points classified as outliers deviates significantly from the target
/// percentile, the classifier should recompute its threshold.
pub fn binomial_proportion_interval(
    successes: u64,
    trials: u64,
    level: f64,
) -> Result<ConfidenceInterval> {
    if trials == 0 {
        return Err(StatsError::EmptyInput);
    }
    if successes > trials {
        return Err(StatsError::InvalidParameter(format!(
            "successes ({successes}) cannot exceed trials ({trials})"
        )));
    }
    let z = normal_quantile(1.0 - (1.0 - level) / 2.0)?;
    let n = trials as f64;
    let p_hat = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p_hat + z2 / (2.0 * n)) / denom;
    let half = z * ((p_hat * (1.0 - p_hat) / n + z2 / (4.0 * n * n)).sqrt()) / denom;
    Ok(ConfidenceInterval {
        lower: (center - half).max(0.0),
        upper: (center + half).min(1.0),
        level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Standard normal cumulative distribution function, the oracle the
    /// quantile function is checked against.
    fn normal_cdf(x: f64) -> f64 {
        0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
    }

    /// Error function via the Abramowitz & Stegun 7.1.26 approximation
    /// (max error 1.5e-7).
    fn erf(x: f64) -> f64 {
        let sign = if x < 0.0 { -1.0 } else { 1.0 };
        let x = x.abs();
        let t = 1.0 / (1.0 + 0.3275911 * x);
        let y = 1.0
            - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
                + 0.254829592)
                * t
                * (-x * x).exp();
        sign * y
    }

    #[test]
    fn normal_quantile_known_values() {
        assert!((normal_quantile(0.5).unwrap() - 0.0).abs() < 1e-8);
        assert!((normal_quantile(0.975).unwrap() - 1.959964).abs() < 1e-4);
        assert!((normal_quantile(0.995).unwrap() - 2.575829).abs() < 1e-4);
        assert!((normal_quantile(0.025).unwrap() + 1.959964).abs() < 1e-4);
    }

    #[test]
    fn normal_quantile_rejects_bounds() {
        assert!(normal_quantile(0.0).is_err());
        assert!(normal_quantile(1.0).is_err());
        assert!(normal_quantile(-0.5).is_err());
    }

    #[test]
    fn normal_cdf_and_quantile_are_inverses() {
        for &p in &[0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let x = normal_quantile(p).unwrap();
            assert!((normal_cdf(x) - p).abs() < 1e-5, "p = {p}");
        }
    }

    #[test]
    fn wilson_interval_contains_true_proportion() {
        let ci = binomial_proportion_interval(10, 1000, 0.95).unwrap();
        assert!(ci.contains(0.01));
        assert!(!ci.contains(0.10));
        assert!(ci.lower >= 0.0 && ci.upper <= 1.0);
    }

    #[test]
    fn wilson_interval_edge_cases() {
        assert!(binomial_proportion_interval(0, 0, 0.95).is_err());
        assert!(binomial_proportion_interval(5, 3, 0.95).is_err());
        let all = binomial_proportion_interval(100, 100, 0.95).unwrap();
        assert!(all.upper <= 1.0);
        assert!(all.lower > 0.9);
        let none = binomial_proportion_interval(0, 100, 0.95).unwrap();
        assert!(none.lower >= 0.0);
        assert!(none.upper < 0.1);
    }
}
