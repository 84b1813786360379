//! Optical-flow-magnitude features over video frames.
//!
//! The video surveillance case study (Section 6.4) computes "the average
//! optical flow velocity between video frames" with OpenCV and feeds the
//! scalar into an unmodified MDP pipeline. OpenCV is out of scope for a pure
//! Rust workspace, so this module provides a block-matching flow estimator
//! over grayscale frames: for each block of the previous frame it searches a
//! small neighbourhood in the next frame for the best-matching displacement
//! and reports the mean displacement magnitude. On the synthetic
//! moving-blob frames used by the example and benches this exercises the same
//! pipeline path (frame pair → scalar motion metric → MDP) as the original.

use crate::{Result, TransformError};

/// A grayscale frame stored row-major with intensities in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    width: usize,
    height: usize,
    pixels: Vec<f64>,
}

impl Frame {
    /// Create a frame from row-major pixel data.
    pub(crate) fn new(width: usize, height: usize, pixels: Vec<f64>) -> Result<Self> {
        if width == 0 || height == 0 {
            return Err(TransformError::EmptyInput);
        }
        if pixels.len() != width * height {
            return Err(TransformError::DimensionMismatch {
                expected: width * height,
                actual: pixels.len(),
            });
        }
        Ok(Frame {
            width,
            height,
            pixels,
        })
    }

    /// Create an all-black frame.
    pub fn black(width: usize, height: usize) -> Result<Self> {
        Frame::new(width, height, vec![0.0; width * height])
    }

    /// Pixel intensity at `(x, y)`; out-of-bounds reads return 0.
    pub(crate) fn get(&self, x: isize, y: isize) -> f64 {
        if x < 0 || y < 0 || x as usize >= self.width || y as usize >= self.height {
            0.0
        } else {
            self.pixels[y as usize * self.width + x as usize]
        }
    }

    /// Set pixel intensity at `(x, y)` (ignored when out of bounds).
    pub(crate) fn set(&mut self, x: usize, y: usize, value: f64) {
        if x < self.width && y < self.height {
            self.pixels[y * self.width + x] = value;
        }
    }

    /// Draw a filled square blob of the given intensity (used by the
    /// synthetic video generator).
    pub fn draw_square(&mut self, x0: usize, y0: usize, size: usize, intensity: f64) {
        for y in y0..(y0 + size).min(self.height) {
            for x in x0..(x0 + size).min(self.width) {
                self.set(x, y, intensity);
            }
        }
    }
}

/// Configuration for the block-matching flow estimator.
#[derive(Debug, Clone, Copy)]
pub struct FlowConfig {
    /// Side length of the square blocks compared between frames.
    pub block_size: usize,
    /// Maximum displacement searched in each direction.
    pub search_radius: usize,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            block_size: 8,
            search_radius: 4,
        }
    }
}

/// Mean optical-flow magnitude between two frames via block matching.
///
/// Static blocks (those whose content does not change) contribute zero, so an
/// empty scene yields ~0 while motion yields a magnitude proportional to how
/// far the moving content travelled.
pub(crate) fn mean_flow_magnitude(
    previous: &Frame,
    current: &Frame,
    config: &FlowConfig,
) -> Result<f64> {
    if previous.width != current.width || previous.height != current.height {
        return Err(TransformError::DimensionMismatch {
            expected: previous.width * previous.height,
            actual: current.width * current.height,
        });
    }
    if config.block_size == 0 {
        return Err(TransformError::InvalidParameter(
            "block size must be positive".to_string(),
        ));
    }
    let bs = config.block_size;
    let radius = config.search_radius as isize;
    let mut total_magnitude = 0.0;
    let mut blocks = 0usize;

    let mut by = 0usize;
    while by + bs <= previous.height {
        let mut bx = 0usize;
        while bx + bs <= previous.width {
            // Skip blocks with no content in either frame: nothing to track.
            let has_content = (0..bs).any(|dy| {
                (0..bs).any(|dx| {
                    previous.get((bx + dx) as isize, (by + dy) as isize) > 0.05
                        || current.get((bx + dx) as isize, (by + dy) as isize) > 0.05
                })
            });
            if has_content {
                let mut best_cost = f64::INFINITY;
                let mut best_disp = (0isize, 0isize);
                for dy in -radius..=radius {
                    for dx in -radius..=radius {
                        let mut cost = 0.0;
                        for py in 0..bs {
                            for px in 0..bs {
                                let a = previous.get((bx + px) as isize, (by + py) as isize);
                                let b = current.get(
                                    (bx + px) as isize + dx,
                                    (by + py) as isize + dy,
                                );
                                cost += (a - b).abs();
                            }
                        }
                        // Prefer smaller displacements on ties so a static
                        // scene reports zero motion.
                        let tie_break = (dx * dx + dy * dy) as f64 * 1e-9;
                        if cost + tie_break < best_cost {
                            best_cost = cost + tie_break;
                            best_disp = (dx, dy);
                        }
                    }
                }
                let magnitude =
                    ((best_disp.0 * best_disp.0 + best_disp.1 * best_disp.1) as f64).sqrt();
                total_magnitude += magnitude;
                blocks += 1;
            }
            bx += bs;
        }
        by += bs;
    }
    if blocks == 0 {
        Ok(0.0)
    } else {
        Ok(total_magnitude / blocks as f64)
    }
}

/// Convenience: flow magnitudes for a whole sequence of frames (length
/// `frames.len() - 1`, empty for fewer than two frames).
pub fn flow_series(frames: &[Frame], config: &FlowConfig) -> Result<Vec<f64>> {
    if frames.len() < 2 {
        return Ok(Vec::new());
    }
    frames
        .windows(2)
        .map(|pair| mean_flow_magnitude(&pair[0], &pair[1], config))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame_with_square(x: usize, y: usize) -> Frame {
        let mut f = Frame::black(64, 64).unwrap();
        f.draw_square(x, y, 8, 1.0);
        f
    }

    #[test]
    fn frame_construction_and_access() {
        let f = Frame::new(2, 2, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        assert_eq!(f.get(0, 0), 0.1);
        assert_eq!(f.get(1, 1), 0.4);
        assert_eq!(f.get(-1, 0), 0.0);
        assert_eq!(f.get(5, 5), 0.0);
        assert!(Frame::new(2, 2, vec![0.0; 3]).is_err());
        assert!(Frame::new(0, 2, vec![]).is_err());
    }

    #[test]
    fn static_scene_has_zero_flow() {
        let a = frame_with_square(10, 10);
        let b = frame_with_square(10, 10);
        let flow = mean_flow_magnitude(&a, &b, &FlowConfig::default()).unwrap();
        assert!(flow.abs() < 1e-9);
    }

    #[test]
    fn empty_scene_has_zero_flow() {
        let a = Frame::black(32, 32).unwrap();
        let b = Frame::black(32, 32).unwrap();
        assert_eq!(
            mean_flow_magnitude(&a, &b, &FlowConfig::default()).unwrap(),
            0.0
        );
    }

    #[test]
    fn moving_blob_produces_flow_proportional_to_motion() {
        let a = frame_with_square(10, 10);
        let slow = frame_with_square(12, 10); // moved 2 px
        let fast = frame_with_square(14, 10); // moved 4 px
        let config = FlowConfig::default();
        let flow_slow = mean_flow_magnitude(&a, &slow, &config).unwrap();
        let flow_fast = mean_flow_magnitude(&a, &fast, &config).unwrap();
        assert!(flow_slow > 0.5);
        assert!(flow_fast > flow_slow);
    }

    #[test]
    fn mismatched_frames_rejected() {
        let a = Frame::black(16, 16).unwrap();
        let b = Frame::black(32, 32).unwrap();
        assert!(mean_flow_magnitude(&a, &b, &FlowConfig::default()).is_err());
    }

    #[test]
    fn flow_series_length() {
        let frames: Vec<Frame> = (0..5).map(|i| frame_with_square(10 + i * 2, 10)).collect();
        let series = flow_series(&frames, &FlowConfig::default()).unwrap();
        assert_eq!(series.len(), 4);
        assert!(series.iter().all(|&m| m > 0.0));
        assert!(flow_series(&frames[..1], &FlowConfig::default())
            .unwrap()
            .is_empty());
    }
}
