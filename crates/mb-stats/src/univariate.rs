//! Univariate descriptive statistics: mean, variance, median, quantiles, MAD.
//!
//! The median and MAD here are the robust location/scatter estimates that
//! back MacroBase's default univariate classifier (Section 4.1). Selection
//! uses an in-place quickselect to stay `O(n)` on average; callers on the hot
//! path are expected to hand in scratch buffers they own so no per-point
//! allocation occurs.

use crate::{Result, StatsError};

/// Arithmetic mean of a sample. Returns an error on empty input.
pub(crate) fn mean(data: &[f64]) -> Result<f64> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Population variance (dividing by `n`). Returns an error on empty input.
pub(crate) fn population_variance(data: &[f64]) -> Result<f64> {
    let m = mean(data)?;
    Ok(data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / data.len() as f64)
}

/// Population standard deviation.
pub(crate) fn population_std(data: &[f64]) -> Result<f64> {
    Ok(population_variance(data)?.sqrt())
}

/// In-place quickselect: partially sorts `data` so that `data[k]` is the
/// element that would be at index `k` in fully sorted order.
///
/// Average `O(n)`; used by [`median_in_place`] and [`quantile_in_place`].
pub(crate) fn select_in_place(data: &mut [f64], k: usize) -> f64 {
    assert!(k < data.len(), "selection index out of range");
    let (mut lo, mut hi) = (0usize, data.len() - 1);
    // Deterministic median-of-three pivot selection keeps worst cases rare
    // without pulling in an RNG on the scoring hot path.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // Order data[lo], data[mid], data[hi] and use the median as pivot.
        if data[mid] < data[lo] {
            data.swap(mid, lo);
        }
        if data[hi] < data[lo] {
            data.swap(hi, lo);
        }
        if data[hi] < data[mid] {
            data.swap(hi, mid);
        }
        let pivot = data[mid];
        // Hoare partition.
        let (mut i, mut j) = (lo, hi);
        loop {
            while data[i] < pivot {
                i += 1;
            }
            while data[j] > pivot {
                j -= 1;
            }
            if i >= j {
                break;
            }
            data.swap(i, j);
            i += 1;
            j -= 1;
        }
        if k <= j {
            hi = j;
        } else {
            lo = j + 1;
        }
    }
    data[k]
}

/// Median of a sample, scrambling `data` in the process (no allocation).
///
/// For even-length samples this returns the average of the two central order
/// statistics, matching the textbook definition used by the paper.
pub(crate) fn median_in_place(data: &mut [f64]) -> Result<f64> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    let n = data.len();
    if n % 2 == 1 {
        Ok(select_in_place(data, n / 2))
    } else {
        let hi = select_in_place(data, n / 2);
        // The lower central element is the maximum of the left partition.
        let lo = data[..n / 2]
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        Ok((lo + hi) / 2.0)
    }
}

/// Quantile (`q` in `[0, 1]`) using linear interpolation between order
/// statistics, scrambling `data` in the process.
pub fn quantile_in_place(data: &mut [f64], q: f64) -> Result<f64> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter(format!(
            "quantile must be in [0, 1], got {q}"
        )));
    }
    let n = data.len();
    if n == 1 {
        return Ok(data[0]);
    }
    let pos = q * (n - 1) as f64;
    let lo_idx = pos.floor() as usize;
    let hi_idx = pos.ceil() as usize;
    let frac = pos - lo_idx as f64;
    if lo_idx == hi_idx {
        return Ok(select_in_place(data, lo_idx));
    }
    let hi = select_in_place(data, hi_idx);
    let lo = data[..hi_idx]
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    Ok(lo + frac * (hi - lo))
}

/// Quantile of a sample without modifying it (allocates a copy).
pub fn quantile(data: &[f64], q: f64) -> Result<f64> {
    let mut scratch = data.to_vec();
    quantile_in_place(&mut scratch, q)
}

/// Median Absolute Deviation: `median(|x_i - median(x)|)`.
///
/// Returns `(median, mad)`. The caller typically multiplies the MAD by the
/// consistency constant `1.4826` to make it comparable to a standard
/// deviation under normality; [`crate::mad::MadEstimator`] does this.
pub(crate) fn median_absolute_deviation(data: &[f64]) -> Result<(f64, f64)> {
    if data.is_empty() {
        return Err(StatsError::EmptyInput);
    }
    if data.iter().any(|v| !v.is_finite()) {
        return Err(StatsError::NonFinite);
    }
    let mut scratch = data.to_vec();
    let med = median_in_place(&mut scratch)?;
    for (slot, x) in scratch.iter_mut().zip(data.iter()) {
        *slot = (x - med).abs();
    }
    let mad = median_in_place(&mut scratch)?;
    Ok((med, mad))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    /// Median of a sample through [`median_in_place`] on a copy.
    fn median(data: &[f64]) -> Result<f64> {
        median_in_place(&mut data.to_vec())
    }

    #[test]
    fn mean_of_known_values() {
        assert_close(mean(&[1.0, 2.0, 3.0, 4.0]).unwrap(), 2.5, 1e-12);
    }

    #[test]
    fn mean_rejects_empty() {
        assert_eq!(mean(&[]), Err(StatsError::EmptyInput));
    }

    #[test]
    fn variance_of_known_values() {
        // Var([2, 4, 4, 4, 5, 5, 7, 9]) = 4 (population)
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_close(population_variance(&data).unwrap(), 4.0, 1e-12);
    }

    #[test]
    fn median_odd_and_even() {
        assert_close(median(&[3.0, 1.0, 2.0]).unwrap(), 2.0, 1e-12);
        assert_close(median(&[4.0, 1.0, 3.0, 2.0]).unwrap(), 2.5, 1e-12);
        assert_close(median(&[5.0]).unwrap(), 5.0, 1e-12);
    }

    #[test]
    fn median_with_duplicates() {
        assert_close(median(&[1.0, 1.0, 1.0, 1.0]).unwrap(), 1.0, 1e-12);
        assert_close(median(&[2.0, 2.0, 1.0]).unwrap(), 2.0, 1e-12);
    }

    #[test]
    fn quantile_interpolates() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_close(quantile(&data, 0.0).unwrap(), 1.0, 1e-12);
        assert_close(quantile(&data, 1.0).unwrap(), 5.0, 1e-12);
        assert_close(quantile(&data, 0.5).unwrap(), 3.0, 1e-12);
        assert_close(quantile(&data, 0.25).unwrap(), 2.0, 1e-12);
        assert_close(quantile(&data, 0.1).unwrap(), 1.4, 1e-12);
    }

    #[test]
    fn quantile_rejects_out_of_range() {
        assert!(matches!(
            quantile(&[1.0], 1.5),
            Err(StatsError::InvalidParameter(_))
        ));
    }

    #[test]
    fn mad_of_known_values() {
        // data: 1 1 2 2 4 6 9 -> median 2, abs dev: 1 1 0 0 2 4 7 -> MAD 1
        let data = [1.0, 1.0, 2.0, 2.0, 4.0, 6.0, 9.0];
        let (med, mad) = median_absolute_deviation(&data).unwrap();
        assert_close(med, 2.0, 1e-12);
        assert_close(mad, 1.0, 1e-12);
    }

    #[test]
    fn mad_rejects_nan() {
        assert_eq!(
            median_absolute_deviation(&[1.0, f64::NAN]),
            Err(StatsError::NonFinite)
        );
    }

    #[test]
    fn mad_resists_outliers() {
        // A single huge outlier should not move the MAD much, unlike the std.
        let clean = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8];
        let mut dirty = clean.to_vec();
        dirty.push(10_000.0);
        let (_, mad_clean) = median_absolute_deviation(&clean).unwrap();
        let (_, mad_dirty) = median_absolute_deviation(&dirty).unwrap();
        assert!((mad_dirty - mad_clean).abs() < 1.0);
        let std_clean = population_std(&clean).unwrap();
        let std_dirty = population_std(&dirty).unwrap();
        assert!(std_dirty > 100.0 * std_clean);
    }

    proptest! {
        #[test]
        fn select_matches_sort(mut data in prop::collection::vec(-1e6f64..1e6, 1..200), k_seed in 0usize..1000) {
            let k = k_seed % data.len();
            let mut sorted = data.clone();
            sorted.sort_by(|a, b| a.total_cmp(b));
            let got = select_in_place(&mut data, k);
            prop_assert_eq!(got, sorted[k]);
        }

        #[test]
        fn median_is_permutation_invariant(data in prop::collection::vec(-1e6f64..1e6, 1..100)) {
            let m1 = median(&data).unwrap();
            let mut rev = data.clone();
            rev.reverse();
            let m2 = median(&rev).unwrap();
            prop_assert!((m1 - m2).abs() < 1e-9);
        }

        #[test]
        fn median_translation_equivariant(data in prop::collection::vec(-1e3f64..1e3, 1..100), shift in -1e3f64..1e3) {
            let m1 = median(&data).unwrap();
            let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
            let m2 = median(&shifted).unwrap();
            prop_assert!((m1 + shift - m2).abs() < 1e-6);
        }

        #[test]
        fn mad_translation_invariant(data in prop::collection::vec(-1e3f64..1e3, 1..100), shift in -1e3f64..1e3) {
            let (_, mad1) = median_absolute_deviation(&data).unwrap();
            let shifted: Vec<f64> = data.iter().map(|x| x + shift).collect();
            let (_, mad2) = median_absolute_deviation(&shifted).unwrap();
            prop_assert!((mad1 - mad2).abs() < 1e-6);
        }

        #[test]
        fn quantile_is_monotone(data in prop::collection::vec(-1e6f64..1e6, 2..100)) {
            let q25 = quantile(&data, 0.25).unwrap();
            let q50 = quantile(&data, 0.50).unwrap();
            let q75 = quantile(&data, 0.75).unwrap();
            prop_assert!(q25 <= q50 + 1e-9);
            prop_assert!(q50 <= q75 + 1e-9);
        }
    }
}
