//! Dimensionality truncation.
//!
//! The electricity pipeline (Section 6.4) "truncates the transformed data to
//! a fixed number of dimensions" after the STFT; Figure 10 shows why — MCD
//! training cost grows with metric dimensionality, so keeping only the first
//! `k` coefficients is the simplest effective dimensionality reduction.

use crate::{Result, TransformError};

/// Keep only the first `k` metrics of each row, padding with zeros when a row
/// is shorter than `k` (so output dimensionality is always exactly `k`).
pub fn truncate_dimensions(rows: &[Vec<f64>], k: usize) -> Result<Vec<Vec<f64>>> {
    if k == 0 {
        return Err(TransformError::InvalidParameter(
            "target dimensionality must be positive".to_string(),
        ));
    }
    Ok(rows
        .iter()
        .map(|row| {
            let mut out: Vec<f64> = row.iter().copied().take(k).collect();
            out.resize(k, 0.0);
            out
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncate_keeps_prefix_and_pads() {
        let rows = vec![vec![1.0, 2.0, 3.0], vec![4.0]];
        let out = truncate_dimensions(&rows, 2).unwrap();
        assert_eq!(out[0], vec![1.0, 2.0]);
        assert_eq!(out[1], vec![4.0, 0.0]);
    }

    #[test]
    fn truncate_rejects_zero() {
        assert!(truncate_dimensions(&[vec![1.0]], 0).is_err());
    }
}
