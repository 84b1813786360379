//! Self telemetry: MacroBase monitoring MacroBase.
//!
//! A recorded stream of the system's own per-stage latency telemetry (the
//! shape `mb-obs` exports: one row per stage sample, tagged with the stage
//! name and the worker that produced it) in which one pipeline stage
//! develops a latency regression. The metric is the sample's latency as a
//! multiple of that stage's rolling baseline, so healthy rows sit near 1.0
//! regardless of stage; regressed rows sit several multiples above. The
//! explainer should blame exactly the guilty stage — and *not* the workers,
//! which all observe the regression at equal rates.
//!
//! This is the observability layer's dogfood scenario: the attribute
//! vocabulary is `mb_obs::stage::ALL` itself, and recovering the planted
//! regression through the EWS pipeline is exactly the "monitor the monitor"
//! loop a deployment would run.

use crate::{GeneratedScenario, GroundTruth, Scenario};
use macrobase_core::query::AnalysisConfig;
use macrobase_core::types::Point;
use mb_explain::ExplanationConfig;
use mb_stats::rand_ext::{normal, SplitMix64};

/// Configuration for the self-telemetry scenario.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SelfTelemetryScenario {
    /// Total number of telemetry rows (stage latency samples).
    pub num_points: usize,
    /// Number of pool workers emitting samples; each row draws one
    /// uniformly, so no worker is guilty.
    pub num_workers: usize,
    /// Index into [`mb_obs::stage::ALL`] of the stage that regresses.
    pub guilty_stage: usize,
    /// Fraction of rows planted as regressed samples.
    pub outlier_fraction: f64,
    /// Healthy latency ratio standard deviation (mean is 1.0 by
    /// construction — a sample at baseline).
    pub baseline_std: f64,
    /// Mean latency ratio of regressed samples (multiples of baseline).
    pub regression_ratio: f64,
    /// Standard deviation of regressed samples.
    pub regression_std: f64,
    /// RNG seed; the same seed always yields the same rows and truth.
    pub seed: u64,
}

impl Default for SelfTelemetryScenario {
    fn default() -> Self {
        SelfTelemetryScenario {
            num_points: 6_000,
            num_workers: 8,
            // stage::ALL[3] == "score" — the stage a real regression most
            // often lands in (model scoring cost).
            guilty_stage: 3,
            outlier_fraction: 0.02,
            baseline_std: 0.06,
            regression_ratio: 6.0,
            regression_std: 0.5,
            seed: 0x0b5e_57a6,
        }
    }
}

impl SelfTelemetryScenario {
    fn guilty_value(&self) -> &'static str {
        mb_obs::stage::ALL[self.guilty_stage % mb_obs::stage::ALL.len()]
    }
}

impl Scenario for SelfTelemetryScenario {
    fn name(&self) -> &'static str {
        "self_telemetry"
    }

    fn analysis(&self) -> AnalysisConfig {
        AnalysisConfig {
            target_percentile: 1.0 - self.outlier_fraction,
            // Support 0.2 sits above any single stage×worker pair's share of
            // the outliers (~1/num_workers) but below the guilty stage's
            // (≈1.0), so the explanation is the stage alone.
            explanation: ExplanationConfig::new(0.2, 3.0),
            attribute_names: vec!["stage".to_string(), "worker".to_string()],
            retain_outlier_rows: true,
            ..AnalysisConfig::default()
        }
    }

    fn generate(&self) -> GeneratedScenario {
        let mut rng = SplitMix64::new(self.seed);
        let n = self.num_points;
        let workers = self.num_workers.max(1);
        let stages = mb_obs::stage::ALL;
        let planted = ((n as f64) * self.outlier_fraction).round() as usize;
        let guilty = self.guilty_value();

        let mut points = Vec::with_capacity(n);
        let mut outlier_rows = Vec::with_capacity(planted);
        // Selection sampling (Knuth Algorithm S): exactly `planted`
        // regressed samples, uniformly spread over the stream.
        let mut needed = planted;
        for row in 0..n {
            let remaining = n - row;
            let worker = format!("worker_{}", rng.next_below(workers));
            if needed > 0 && rng.next_below(remaining) < needed {
                needed -= 1;
                outlier_rows.push(row);
                let ratio = normal(&mut rng, self.regression_ratio, self.regression_std);
                points.push(Point::new(
                    vec![ratio],
                    vec![guilty.to_string(), worker],
                ));
            } else {
                let stage = stages[rng.next_below(stages.len())];
                let ratio = normal(&mut rng, 1.0, self.baseline_std);
                points.push(Point::new(
                    vec![ratio],
                    vec![stage.to_string(), worker],
                ));
            }
        }

        GeneratedScenario {
            points,
            truth: GroundTruth {
                outlier_rows,
                guilty_attributes: vec![vec![format!("stage={guilty}")]],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval;
    use macrobase_core::query::Executor;

    #[test]
    fn plants_exact_mass_on_the_guilty_stage() {
        let scenario = SelfTelemetryScenario::default();
        let generated = scenario.generate();
        assert_eq!(generated.points.len(), 6_000);
        assert_eq!(generated.truth.outlier_rows.len(), 120);
        for &row in &generated.truth.outlier_rows {
            let point = &generated.points[row];
            assert_eq!(point.attributes[0], "score");
            assert!(point.metrics[0] > 3.0, "regressed ratio expected");
        }
        assert_eq!(
            generated.truth.guilty_attributes,
            vec![vec!["stage=score".to_string()]]
        );
    }

    #[test]
    fn attribute_vocabulary_is_the_obs_stage_set() {
        let generated = SelfTelemetryScenario::default().generate();
        for point in &generated.points {
            assert!(
                mb_obs::stage::ALL.contains(&point.attributes[0].as_str()),
                "unknown stage {}",
                point.attributes[0]
            );
            assert!(point.attributes[1].starts_with("worker_"));
        }
    }

    #[test]
    fn ews_pipeline_recovers_the_regressed_stage() {
        // The dogfood loop: replay the recorded telemetry stream through the
        // streaming (EWS) executor and check the guilty stage is blamed.
        let scenario = SelfTelemetryScenario {
            num_points: 20_000,
            ..SelfTelemetryScenario::default()
        };
        let generated = scenario.generate();
        let mut query = scenario.query().unwrap();
        let report = query
            .execute(&Executor::streaming(), &generated.points)
            .unwrap();
        let jaccard = eval::explanation_jaccard(
            &report.explanations,
            &generated.truth.guilty_attributes,
        );
        assert!(
            jaccard > 0.0,
            "stage=score missing from {:?}",
            report.top_attributes(5)
        );
        assert!(
            report
                .explanations
                .first()
                .is_some_and(|e| e.attributes.iter().any(|a| a == "stage=score")),
            "top explanation should blame the regressed stage: {:?}",
            report.top_attributes(5)
        );
    }
}
