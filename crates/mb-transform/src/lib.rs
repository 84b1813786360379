//! Domain-specific feature transformation operators (Section 3.2, stage 2,
//! and the case studies of Section 6.4).
//!
//! Feature transforms sit between ingestion and classification: they rewrite
//! a point's metric vector (and possibly its attributes) without the rest of
//! the pipeline having to know anything about the domain. This crate provides
//! the transforms the paper's case studies use:
//!
//! * [`fourier`] — the discrete Fourier transform magnitudes that the
//!   electricity-metering pipeline's Short-Time Fourier Transform (STFT)
//!   keeps per window.
//! * [`window`] — tumbling windows that aggregate a stream of samples into
//!   per-window feature vectors tagged with time attributes.
//! * [`truncate`] — dimensionality truncation (keep the first `k` metrics).
//! * [`flow`] — a pure-Rust optical-flow-magnitude transform over frame
//!   pairs, standing in for the OpenCV transform of the video case study.
//!
//! ## Example
//!
//! Window a device's readings into hours and turn each window into a
//! fixed-length metric vector of its lowest Fourier coefficients:
//!
//! ```
//! use mb_transform::fourier::dft_magnitudes;
//! use mb_transform::window::TumblingWindower;
//!
//! let mut windower = TumblingWindower::new(3600);
//! for minute in 0..120u64 {
//!     windower.observe("fridge", minute * 60, 100.0 + (minute % 2) as f64);
//! }
//! let windows = windower.drain();
//! assert_eq!(windows.len(), 2);
//! let metrics = dft_magnitudes(&windows[0].values, 4).unwrap();
//! // The DC coefficient is the window's sum: 60 readings averaging 100.5.
//! assert!((metrics[0] - 60.0 * 100.5).abs() < 1e-9);
//! ```

#![warn(missing_docs)]

pub mod flow;
pub mod fourier;
pub mod truncate;
pub mod window;

/// Errors produced by feature transforms.
#[derive(Debug, Clone, PartialEq)]
pub enum TransformError {
    /// The input was empty where a non-empty series/frame was required.
    EmptyInput,
    /// Mismatched dimensions (e.g. frames of different sizes).
    DimensionMismatch {
        /// Expected size.
        expected: usize,
        /// Actual size.
        actual: usize,
    },
    /// A parameter was outside its valid range.
    InvalidParameter(String),
}

impl std::fmt::Display for TransformError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransformError::EmptyInput => write!(f, "input is empty"),
            TransformError::DimensionMismatch { expected, actual } => {
                write!(f, "dimension mismatch: expected {expected}, got {actual}")
            }
            TransformError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for TransformError {}

/// Convenience result alias for this crate.
pub(crate) type Result<T> = std::result::Result<T, TransformError>;
