//! Level shift: one device in a fleet starts reporting a shifted metric.
//!
//! The canonical MacroBase motivating case (Section 1): hundreds of devices
//! report a univariate reading around a common baseline; one device's
//! anomalous readings sit a large, constant shift above it. MAD separates
//! the shifted mass cleanly, and the explainer should recover exactly the
//! guilty device.

use crate::{GeneratedScenario, GroundTruth, Scenario};
use macrobase_core::query::AnalysisConfig;
use macrobase_core::types::Point;
use mb_explain::ExplanationConfig;
use mb_stats::rand_ext::{normal, SplitMix64};

/// Configuration for the level-shift scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelShiftScenario {
    /// Total number of rows.
    pub num_points: usize,
    /// Number of devices in the fleet; healthy rows draw a device uniformly.
    pub num_devices: usize,
    /// Index (mod `num_devices`) of the device that misbehaves.
    pub guilty_device: usize,
    /// Fraction of rows planted as shifted anomalies.
    pub outlier_fraction: f64,
    /// Healthy metric mean.
    pub baseline_mean: f64,
    /// Healthy metric standard deviation.
    pub baseline_std: f64,
    /// Constant added to the guilty device's anomalous readings.
    pub shift: f64,
    /// RNG seed; the same seed always yields the same rows and truth.
    pub seed: u64,
}

impl Default for LevelShiftScenario {
    fn default() -> Self {
        LevelShiftScenario {
            num_points: 6_000,
            num_devices: 40,
            guilty_device: 13,
            outlier_fraction: 0.02,
            baseline_mean: 10.0,
            baseline_std: 2.0,
            shift: 45.0,
            seed: 0x1e7e_15f1,
        }
    }
}

impl LevelShiftScenario {
    fn guilty_value(&self) -> String {
        format!("device_{:02}", self.guilty_device % self.num_devices.max(1))
    }
}

impl Scenario for LevelShiftScenario {
    fn name(&self) -> &'static str {
        "level_shift"
    }

    fn analysis(&self) -> AnalysisConfig {
        AnalysisConfig {
            target_percentile: 1.0 - self.outlier_fraction,
            explanation: ExplanationConfig::new(0.1, 3.0),
            attribute_names: vec!["device".to_string()],
            retain_outlier_rows: true,
            ..AnalysisConfig::default()
        }
    }

    fn generate(&self) -> GeneratedScenario {
        let mut rng = SplitMix64::new(self.seed);
        let n = self.num_points;
        let devices = self.num_devices.max(1);
        let planted = ((n as f64) * self.outlier_fraction).round() as usize;
        let guilty = self.guilty_value();

        let mut points = Vec::with_capacity(n);
        let mut outlier_rows = Vec::with_capacity(planted);
        // Selection sampling (Knuth Algorithm S): exactly `planted` anomaly
        // rows, uniformly spread over the stream.
        let mut needed = planted;
        for row in 0..n {
            let remaining = n - row;
            if needed > 0 && rng.next_below(remaining) < needed {
                needed -= 1;
                outlier_rows.push(row);
                let value = normal(&mut rng, self.baseline_mean + self.shift, self.baseline_std);
                points.push(Point::simple(value, guilty.clone()));
            } else {
                let device = format!("device_{:02}", rng.next_below(devices));
                let value = normal(&mut rng, self.baseline_mean, self.baseline_std);
                points.push(Point::simple(value, device));
            }
        }

        GeneratedScenario {
            points,
            truth: GroundTruth {
                outlier_rows,
                guilty_attributes: vec![vec![format!("device={guilty}")]],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plants_exact_mass_on_the_guilty_device() {
        let scenario = LevelShiftScenario::default();
        let generated = scenario.generate();
        assert_eq!(generated.points.len(), 6_000);
        assert_eq!(generated.truth.outlier_rows.len(), 120);
        for &row in &generated.truth.outlier_rows {
            let point = &generated.points[row];
            assert_eq!(point.attributes[0], "device_13");
            assert!(point.metrics[0] > 30.0, "shifted value expected");
        }
        assert_eq!(
            generated.truth.guilty_attributes,
            vec![vec!["device=device_13".to_string()]]
        );
    }

    #[test]
    fn healthy_rows_stay_near_baseline() {
        let scenario = LevelShiftScenario::default();
        let generated = scenario.generate();
        let planted: std::collections::BTreeSet<usize> =
            generated.truth.outlier_rows.iter().copied().collect();
        for (row, point) in generated.points.iter().enumerate() {
            if !planted.contains(&row) {
                assert!(point.metrics[0] < 25.0, "row {row} unexpectedly shifted");
            }
        }
    }
}
