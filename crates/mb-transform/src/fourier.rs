//! Discrete Fourier transform and Short-Time Fourier Transform features.
//!
//! The electricity-metering case study (Section 6.4) windows each device's
//! power readings into hour-long intervals, applies a discrete-time STFT to
//! each window, and keeps the lowest Fourier coefficients as metrics so that
//! an unmodified MDP can find devices/time-periods with unusual frequency
//! content. The transform here is a straightforward `O(n·k)` DFT — windows
//! are short (tens to hundreds of samples) and only the first `k`
//! coefficients are kept, so an FFT would add complexity without a measurable
//! win at these sizes.

use crate::{Result, TransformError};

/// Magnitudes of the first `num_coefficients` DFT coefficients of `signal`
/// (coefficient 0 is the DC component).
pub fn dft_magnitudes(signal: &[f64], num_coefficients: usize) -> Result<Vec<f64>> {
    if signal.is_empty() {
        return Err(TransformError::EmptyInput);
    }
    if num_coefficients == 0 {
        return Err(TransformError::InvalidParameter(
            "must request at least one coefficient".to_string(),
        ));
    }
    let n = signal.len();
    let k_max = num_coefficients.min(n);
    let mut out = Vec::with_capacity(num_coefficients);
    for k in 0..k_max {
        let mut re = 0.0;
        let mut im = 0.0;
        for (t, &x) in signal.iter().enumerate() {
            let angle = -2.0 * std::f64::consts::PI * (k * t) as f64 / n as f64;
            re += x * angle.cos();
            im += x * angle.sin();
        }
        out.push((re * re + im * im).sqrt());
    }
    // Pad with zeros when the window is shorter than the requested number of
    // coefficients so downstream metric vectors keep a fixed dimensionality.
    out.resize(num_coefficients, 0.0);
    Ok(out)
}

/// Settings of a Short-Time Fourier Transform: windows of `window_size`
/// samples, `hop` apart, each reduced to its first `num_coefficients`
/// [`dft_magnitudes`].
#[derive(Debug, Clone, Copy)]
pub struct StftConfig {
    /// Number of samples per window.
    pub window_size: usize,
    /// Hop between consecutive windows (<= window_size; equal means
    /// non-overlapping tumbling windows, as the case study uses).
    pub hop: usize,
    /// Number of (lowest) Fourier coefficient magnitudes to keep per window.
    pub num_coefficients: usize,
}

impl Default for StftConfig {
    fn default() -> Self {
        StftConfig {
            window_size: 60,
            hop: 60,
            num_coefficients: 20,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dc_component_of_constant_signal() {
        let signal = vec![3.0; 16];
        let mags = dft_magnitudes(&signal, 4).unwrap();
        assert!((mags[0] - 48.0).abs() < 1e-9); // n * value
        for &m in &mags[1..] {
            assert!(m.abs() < 1e-9);
        }
    }

    #[test]
    fn pure_sinusoid_concentrates_in_one_bin() {
        // A sinusoid at bin 3 of a 32-sample window.
        let n = 32;
        let signal: Vec<f64> = (0..n)
            .map(|t| (2.0 * std::f64::consts::PI * 3.0 * t as f64 / n as f64).sin())
            .collect();
        let mags = dft_magnitudes(&signal, 8).unwrap();
        let max_bin = mags
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap()
            .0;
        assert_eq!(max_bin, 3);
        assert!(mags[3] > 10.0 * mags[1].max(1e-12));
    }

    #[test]
    fn empty_and_invalid_inputs() {
        assert_eq!(dft_magnitudes(&[], 4), Err(TransformError::EmptyInput));
        assert!(matches!(
            dft_magnitudes(&[1.0], 0),
            Err(TransformError::InvalidParameter(_))
        ));
    }

    #[test]
    fn short_signal_pads_coefficients() {
        let mags = dft_magnitudes(&[1.0, 2.0], 5).unwrap();
        assert_eq!(mags.len(), 5);
        assert_eq!(mags[3], 0.0);
        assert_eq!(mags[4], 0.0);
    }

    #[test]
    fn stft_detects_anomalous_window() {
        // 9 quiet windows + 1 window with a strong oscillation: the anomalous
        // window's non-DC energy must dominate.
        let mut signal = vec![1.0; 640];
        for t in 0..64 {
            signal[320 + t] = 1.0 + 10.0 * (2.0 * std::f64::consts::PI * 8.0 * t as f64 / 64.0).sin();
        }
        let energy: Vec<f64> = signal
            .chunks_exact(64)
            .map(|w| {
                let coefficients = dft_magnitudes(w, 16).unwrap();
                coefficients[1..].iter().map(|c| c * c).sum::<f64>()
            })
            .collect();
        let anomalous = 320 / 64;
        for (i, &e) in energy.iter().enumerate() {
            if i != anomalous {
                assert!(energy[anomalous] > 100.0 * e.max(1e-9));
            }
        }
    }
}
