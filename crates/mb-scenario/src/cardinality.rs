//! Attribute-cardinality explosion: a guilty value hidden in a wide column.
//!
//! The explanation stage's hard case (Section 5): rows carry both a
//! low-cardinality column (`app`) and a high-cardinality one (`user`, one
//! value per few rows). One app misbehaves; individual users do not. The
//! encoder and FP-growth must digest thousands of distinct items, and the
//! support threshold must prune the long tail of singleton users so the
//! report indicts the app alone.

use crate::{GeneratedScenario, GroundTruth, Scenario};
use macrobase_core::query::AnalysisConfig;
use macrobase_core::types::Point;
use mb_explain::ExplanationConfig;
use mb_stats::rand_ext::{normal, SplitMix64};

/// Configuration for the attribute-cardinality-explosion scenario.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CardinalityExplosionScenario {
    /// Total number of rows.
    pub num_points: usize,
    /// Number of distinct apps (the low-cardinality column).
    pub num_apps: usize,
    /// Index (mod `num_apps`) of the app that misbehaves.
    pub guilty_app: usize,
    /// Distinct users per row of data: the user column's cardinality is
    /// `num_points / rows_per_user`, so it grows with the dataset.
    pub rows_per_user: usize,
    /// Fraction of rows planted as anomalies (all on the guilty app).
    pub outlier_fraction: f64,
    /// Healthy metric mean.
    pub baseline_mean: f64,
    /// Healthy metric standard deviation.
    pub baseline_std: f64,
    /// Mean of the guilty app's anomalous readings.
    pub anomaly_mean: f64,
    /// RNG seed; the same seed always yields the same rows and truth.
    pub seed: u64,
}

impl Default for CardinalityExplosionScenario {
    fn default() -> Self {
        CardinalityExplosionScenario {
            num_points: 6_000,
            num_apps: 24,
            guilty_app: 7,
            rows_per_user: 4,
            outlier_fraction: 0.02,
            baseline_mean: 10.0,
            baseline_std: 2.0,
            anomaly_mean: 60.0,
            seed: 0xca4d_1a11,
        }
    }
}

impl CardinalityExplosionScenario {
    fn guilty_value(&self) -> String {
        format!("app_{:02}", self.guilty_app % self.num_apps.max(1))
    }

    fn num_users(&self) -> usize {
        (self.num_points / self.rows_per_user.max(1)).max(1)
    }
}

impl Scenario for CardinalityExplosionScenario {
    fn name(&self) -> &'static str {
        "cardinality_explosion"
    }

    fn analysis(&self) -> AnalysisConfig {
        AnalysisConfig {
            target_percentile: 1.0 - self.outlier_fraction,
            explanation: ExplanationConfig::new(0.1, 3.0),
            attribute_names: vec!["app".to_string(), "user".to_string()],
            retain_outlier_rows: true,
            ..AnalysisConfig::default()
        }
    }

    fn generate(&self) -> GeneratedScenario {
        let mut rng = SplitMix64::new(self.seed);
        let n = self.num_points;
        let apps = self.num_apps.max(1);
        let users = self.num_users();
        let planted = ((n as f64) * self.outlier_fraction).round() as usize;
        let guilty = self.guilty_value();

        let mut points = Vec::with_capacity(n);
        let mut outlier_rows = Vec::with_capacity(planted);
        let mut needed = planted;
        for row in 0..n {
            // Every row gets a user from the wide column; anomalies share
            // the guilty app but NOT a common user, so only the app
            // combination has explanatory support.
            let user = format!("user_{}", rng.next_below(users));
            let remaining = n - row;
            if needed > 0 && rng.next_below(remaining) < needed {
                needed -= 1;
                outlier_rows.push(row);
                let value = normal(&mut rng, self.anomaly_mean, self.baseline_std);
                points.push(Point::new(vec![value], vec![guilty.clone(), user]));
            } else {
                let app = format!("app_{:02}", rng.next_below(apps));
                let value = normal(&mut rng, self.baseline_mean, self.baseline_std);
                points.push(Point::new(vec![value], vec![app, user]));
            }
        }

        GeneratedScenario {
            points,
            truth: GroundTruth {
                outlier_rows,
                guilty_attributes: vec![vec![format!("app={guilty}")]],
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn user_column_explodes_while_truth_stays_narrow() {
        let scenario = CardinalityExplosionScenario::default();
        let generated = scenario.generate();
        let users: BTreeSet<&String> = generated.points.iter().map(|p| &p.attributes[1]).collect();
        assert!(
            users.len() > 1_000,
            "expected >1000 distinct users, got {}",
            users.len()
        );
        assert_eq!(generated.truth.outlier_rows.len(), 120);
        for &row in &generated.truth.outlier_rows {
            assert_eq!(generated.points[row].attributes[0], "app_07");
        }
        // No single user dominates the planted anomalies, so the support
        // threshold can prune every user-level combination.
        let mut per_user: std::collections::BTreeMap<&String, usize> = Default::default();
        for &row in &generated.truth.outlier_rows {
            *per_user.entry(&generated.points[row].attributes[1]).or_default() += 1;
        }
        let max_share = per_user.values().copied().max().unwrap() as f64
            / generated.truth.outlier_rows.len() as f64;
        assert!(max_share < 0.1, "one user carries {max_share} of anomalies");
    }
}
