//! Correlated multi-metric failure: a DBSherlock-shaped incident window.
//!
//! Mirrors the OLTP post-mortem workloads of Table 4 (and the DBSherlock
//! comparison): a fleet of hosts reports several correlated counters — all
//! driven by a shared load factor — and during a contiguous failure window
//! one host's affected counters shift jointly by several sigma. Univariate
//! views are noisy here; the multivariate (MCD) path must use the counter
//! correlations to isolate the window, and the explainer should indict the
//! guilty host.

use crate::{GeneratedScenario, GroundTruth, Scenario};
use macrobase_core::query::AnalysisConfig;
use macrobase_core::types::Point;
use mb_explain::ExplanationConfig;
use mb_stats::rand_ext::{standard_normal, SplitMix64};

/// Configuration for the correlated multi-metric failure scenario.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CorrelatedFailureScenario {
    /// Number of hosts in the fleet.
    pub num_hosts: usize,
    /// Rows (time ticks) per host; total rows = `num_hosts * rows_per_host`.
    pub rows_per_host: usize,
    /// Number of correlated counters per row (the metric dimensionality).
    pub num_counters: usize,
    /// Index (mod `num_hosts`) of the host that fails.
    pub guilty_host: usize,
    /// Fraction of the guilty host's ticks inside the failure window.
    pub failure_fraction: f64,
    /// Joint shift applied to the affected counters, in per-counter sigmas.
    pub shift_sigmas: f64,
    /// RNG seed; the same seed always yields the same rows and truth.
    pub seed: u64,
}

impl Default for CorrelatedFailureScenario {
    fn default() -> Self {
        CorrelatedFailureScenario {
            num_hosts: 11,
            rows_per_host: 360,
            num_counters: 6,
            guilty_host: 3,
            failure_fraction: 0.25,
            shift_sigmas: 6.0,
            seed: 0xc0_11e1a7ed,
        }
    }
}

impl CorrelatedFailureScenario {
    fn guilty_value(&self) -> String {
        format!("host_{:02}", self.guilty_host % self.num_hosts.max(1))
    }

    fn counter_std(counter: usize) -> f64 {
        3.0 + counter as f64 * 0.5
    }

    fn window(&self) -> std::ops::Range<usize> {
        let len = ((self.rows_per_host as f64) * self.failure_fraction).round() as usize;
        let start = self.rows_per_host.saturating_sub(len) / 2;
        start..(start + len).min(self.rows_per_host)
    }
}

impl Scenario for CorrelatedFailureScenario {
    fn name(&self) -> &'static str {
        "correlated_failure"
    }

    fn analysis(&self) -> AnalysisConfig {
        let total = (self.num_hosts * self.rows_per_host).max(1);
        let planted = self.window().len();
        AnalysisConfig {
            target_percentile: 1.0 - planted as f64 / total as f64,
            explanation: ExplanationConfig::new(0.2, 3.0),
            attribute_names: vec!["host".to_string()],
            retain_outlier_rows: true,
            ..AnalysisConfig::default()
        }
    }

    fn generate(&self) -> GeneratedScenario {
        let mut rng = SplitMix64::new(self.seed);
        let hosts = self.num_hosts.max(1);
        let guilty_index = self.guilty_host % hosts;
        let guilty = self.guilty_value();
        let window = self.window();
        // The jointly shifted counters: the first half (at least one).
        let affected = (self.num_counters / 2).max(1);

        let mut points = Vec::with_capacity(hosts * self.rows_per_host);
        let mut outlier_rows = Vec::new();
        // Rows interleave hosts tick by tick (round-robin), the order a
        // fleet-wide collector would emit them in, so the failure window is
        // contiguous in time but spread across any partitioning of the rows.
        for tick in 0..self.rows_per_host {
            for host in 0..hosts {
                let failing = host == guilty_index && window.contains(&tick);
                // One latent load factor per row keeps the counters
                // correlated; the failure shifts the affected ones jointly.
                let load = standard_normal(&mut rng);
                let metrics: Vec<f64> = (0..self.num_counters)
                    .map(|counter| {
                        let std = Self::counter_std(counter);
                        let mean = 50.0 + 10.0 * counter as f64;
                        let noise = standard_normal(&mut rng);
                        let mut value = mean + std * (0.6 * load + 0.8 * noise);
                        if failing && counter < affected {
                            value += self.shift_sigmas * std;
                        }
                        value
                    })
                    .collect();
                if failing {
                    outlier_rows.push(points.len());
                }
                points.push(Point::new(metrics, vec![format!("host_{host:02}")]));
            }
        }

        GeneratedScenario {
            points,
            truth: GroundTruth {
                outlier_rows,
                guilty_attributes: vec![vec![format!("host={guilty}")]],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_window_is_contiguous_on_the_guilty_host() {
        let scenario = CorrelatedFailureScenario::default();
        let generated = scenario.generate();
        assert_eq!(generated.points.len(), 11 * 360);
        assert_eq!(generated.truth.outlier_rows.len(), 90);
        for &row in &generated.truth.outlier_rows {
            let point = &generated.points[row];
            assert_eq!(point.attributes[0], "host_03");
            assert_eq!(point.metrics.len(), 6);
        }
        // Consecutive planted rows are exactly one fleet round apart.
        for pair in generated.truth.outlier_rows.windows(2) {
            assert_eq!(pair[1] - pair[0], 11);
        }
    }

    #[test]
    fn shifted_counters_separate_from_healthy_ones() {
        let scenario = CorrelatedFailureScenario::default();
        let generated = scenario.generate();
        let planted: std::collections::BTreeSet<usize> =
            generated.truth.outlier_rows.iter().copied().collect();
        let mean = |rows: &mut dyn Iterator<Item = &Point>| {
            let mut sum = 0.0;
            let mut count = 0usize;
            for p in rows {
                sum += p.metrics[0];
                count += 1;
            }
            sum / count as f64
        };
        let healthy = mean(
            &mut generated
                .points
                .iter()
                .enumerate()
                .filter(|(row, _)| !planted.contains(row))
                .map(|(_, p)| p),
        );
        let failing = mean(
            &mut generated
                .points
                .iter()
                .enumerate()
                .filter(|(row, _)| planted.contains(row))
                .map(|(_, p)| p),
        );
        assert!(failing - healthy > 12.0, "counter 0 must shift ~6 sigma");
    }
}
