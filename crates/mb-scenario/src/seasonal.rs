//! Seasonal drift: spikes on top of a slowly oscillating baseline.
//!
//! Telemetry baselines are rarely flat — load breathes with a daily cycle.
//! Here every sensor tracks a shared sinusoidal baseline, and one sensor
//! occasionally spikes far above it. A robust global model must not mistake
//! the seasonal swing for anomalies (the oscillation stays well inside the
//! spike magnitude), and the adaptive streaming backend gets a workload
//! whose inlier distribution genuinely moves under it (Section 4's ADR
//! motivation).

use crate::{GeneratedScenario, GroundTruth, Scenario};
use macrobase_core::query::AnalysisConfig;
use macrobase_core::types::Point;
use mb_explain::ExplanationConfig;
use mb_stats::rand_ext::{normal, SplitMix64};

/// Configuration for the seasonal-drift scenario.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SeasonalDriftScenario {
    /// Total number of rows (time-ordered).
    pub num_points: usize,
    /// Number of sensors; healthy rows draw a sensor uniformly.
    pub num_sensors: usize,
    /// Index (mod `num_sensors`) of the sensor that spikes.
    pub guilty_sensor: usize,
    /// Rows per full seasonal cycle.
    pub period: usize,
    /// Level around which the baseline oscillates.
    pub base_level: f64,
    /// Peak amplitude of the seasonal oscillation.
    pub amplitude: f64,
    /// Standard deviation of per-row noise.
    pub noise_std: f64,
    /// Fraction of rows planted as spikes.
    pub outlier_fraction: f64,
    /// Height of a planted spike above the seasonal baseline.
    pub spike: f64,
    /// RNG seed; the same seed always yields the same rows and truth.
    pub seed: u64,
}

impl Default for SeasonalDriftScenario {
    fn default() -> Self {
        SeasonalDriftScenario {
            num_points: 6_000,
            num_sensors: 30,
            guilty_sensor: 7,
            period: 1_500,
            base_level: 20.0,
            amplitude: 4.0,
            noise_std: 1.0,
            outlier_fraction: 0.02,
            spike: 35.0,
            seed: 0x5ea_50a1,
        }
    }
}

impl SeasonalDriftScenario {
    fn guilty_value(&self) -> String {
        format!("sensor_{:02}", self.guilty_sensor % self.num_sensors.max(1))
    }
}

impl Scenario for SeasonalDriftScenario {
    fn name(&self) -> &'static str {
        "seasonal_drift"
    }

    fn analysis(&self) -> AnalysisConfig {
        AnalysisConfig {
            target_percentile: 1.0 - self.outlier_fraction,
            explanation: ExplanationConfig::new(0.1, 3.0),
            attribute_names: vec!["sensor".to_string()],
            retain_outlier_rows: true,
            ..AnalysisConfig::default()
        }
    }

    fn generate(&self) -> GeneratedScenario {
        let mut rng = SplitMix64::new(self.seed);
        let n = self.num_points;
        let sensors = self.num_sensors.max(1);
        let period = self.period.max(1) as f64;
        let planted = ((n as f64) * self.outlier_fraction).round() as usize;
        let guilty = self.guilty_value();

        let mut points = Vec::with_capacity(n);
        let mut outlier_rows = Vec::with_capacity(planted);
        let mut needed = planted;
        for row in 0..n {
            let phase = 2.0 * std::f64::consts::PI * row as f64 / period;
            let baseline = self.base_level + self.amplitude * phase.sin();
            let remaining = n - row;
            if needed > 0 && rng.next_below(remaining) < needed {
                needed -= 1;
                outlier_rows.push(row);
                let value = normal(&mut rng, baseline + self.spike, self.noise_std);
                points.push(Point::simple(value, guilty.clone()));
            } else {
                let sensor = format!("sensor_{:02}", rng.next_below(sensors));
                let value = normal(&mut rng, baseline, self.noise_std);
                points.push(Point::simple(value, sensor));
            }
        }

        GeneratedScenario {
            points,
            truth: GroundTruth {
                outlier_rows,
                guilty_attributes: vec![vec![format!("sensor={guilty}")]],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spikes_clear_the_seasonal_swing() {
        let scenario = SeasonalDriftScenario::default();
        let generated = scenario.generate();
        assert_eq!(generated.truth.outlier_rows.len(), 120);
        let planted: std::collections::HashSet<usize> =
            generated.truth.outlier_rows.iter().copied().collect();
        let healthy_max = generated
            .points
            .iter()
            .enumerate()
            .filter(|(row, _)| !planted.contains(row))
            .map(|(_, p)| p.metrics[0])
            .fold(f64::MIN, f64::max);
        let spike_min = generated
            .truth
            .outlier_rows
            .iter()
            .map(|&row| generated.points[row].metrics[0])
            .fold(f64::MAX, f64::min);
        assert!(
            spike_min > healthy_max + 5.0,
            "spikes ({spike_min:.1}) must clear the seasonal ceiling ({healthy_max:.1})"
        );
        for &row in &generated.truth.outlier_rows {
            assert_eq!(generated.points[row].attributes[0], "sensor_07");
        }
    }
}
