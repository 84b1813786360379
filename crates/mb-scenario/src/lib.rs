//! Labeled fault-injection scenarios and accuracy metrics for MacroBase-RS.
//!
//! The reproduction benchmarks in `mb-bench` mostly gate *throughput*; this
//! crate supplies the other half of the evaluation story: workloads with
//! **ground truth**, so precision/recall and explanation quality can be
//! regression-gated too. It provides:
//!
//! * [`Scenario`] — one trait over seeded, parameterized fault injectors.
//!   Each implementation emits a batch of [`Point`]s plus a [`GroundTruth`]
//!   (which rows were planted anomalies, which attribute combinations are
//!   guilty) and recommends the [`AnalysisConfig`] a diagnostician would run.
//! * Four generators spanning the failure modes in the paper's motivating
//!   deployments (Sections 1–2): [`LevelShiftScenario`] (a misbehaving
//!   device shifts its metric), `CorrelatedFailureScenario` (a
//!   DBSherlock-shaped multi-metric failure window on one host),
//!   `SeasonalDriftScenario` (spikes on top of a drifting seasonal
//!   baseline), and `CardinalityExplosionScenario` (a guilty value hiding
//!   in a high-cardinality attribute column) — plus
//!   `SelfTelemetryScenario`, the observability layer's dogfood workload:
//!   a recorded stream of the system's own per-stage latency telemetry with
//!   a planted stage regression.
//! * [`eval`] — the single shared implementation of point-level
//!   precision/recall/F1 and explanation-level Jaccard/rank metrics, used by
//!   the integration tests, the `fig4`/`fig11`/`table4` reproductions, and
//!   the `quality_matrix` accuracy harness.
//!
//! Generation is fully deterministic: every scenario owns a `seed` and draws
//! through [`mb_stats::rand_ext::SplitMix64`], so the corpus — and therefore
//! every accuracy metric computed over it — is byte-stable across runs and
//! thread counts.
//!
//! A [`GeneratedScenario`] is plain rows: run them through any executor as
//! a slice, or wrap them in a
//! [`VecIngestor`](macrobase_core::operator::VecIngestor) to drive
//! [`MdpQuery::execute_ingest`](macrobase_core::query::MdpQuery::execute_ingest).
//!
//! ```
//! use macrobase_core::query::Executor;
//! use mb_scenario::{eval, LevelShiftScenario, Scenario};
//!
//! let scenario = LevelShiftScenario::default();
//! let generated = scenario.generate();
//! let mut query = scenario.query().unwrap();
//! let report = query.execute(&Executor::OneShot, &generated.points).unwrap();
//!
//! let m = eval::point_metrics(&report.outlier_rows, &generated.truth.outlier_rows);
//! assert!(m.f1() > 0.95);
//! ```

#![warn(missing_docs)]

mod cardinality;
mod correlated;
pub mod eval;
pub mod level_shift;
mod seasonal;
mod self_telemetry;

use cardinality::CardinalityExplosionScenario;
use correlated::CorrelatedFailureScenario;
pub use level_shift::LevelShiftScenario;
use seasonal::SeasonalDriftScenario;
use self_telemetry::SelfTelemetryScenario;

use macrobase_core::query::{AnalysisConfig, MdpQuery};
use macrobase_core::types::Point;

/// The labels a scenario generator plants alongside its rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    /// Input-order indices of the rows planted as anomalies, ascending.
    pub outlier_rows: Vec<usize>,
    /// The guilty attribute combinations, rendered exactly as the MDP
    /// explainer renders them (`column=value` strings, sorted within each
    /// combination). Compare against
    /// [`MdpReport::explanations`](macrobase_core::types::MdpReport::explanations)
    /// with [`eval::explanation_jaccard`].
    pub guilty_attributes: Vec<Vec<String>>,
}

/// A generated scenario: the rows to analyze plus their ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratedScenario {
    /// The rows, in the input order the truth's indices refer to.
    pub points: Vec<Point>,
    /// What was planted.
    pub truth: GroundTruth,
}

/// A seeded, parameterized fault-injection workload with known ground truth.
///
/// Implementations are plain config structs: construct, adjust fields,
/// [`generate`](Scenario::generate). The same configuration always yields
/// the same rows and truth.
pub trait Scenario {
    /// Stable short name, used as the row key in accuracy reports.
    fn name(&self) -> &'static str;

    /// The analysis a diagnostician would run on this workload: estimator,
    /// target percentile matched to the planted outlier mass, explanation
    /// thresholds, and attribute column names. Always enables
    /// [`AnalysisConfig::retain_outlier_rows`] so point-level accuracy can
    /// be scored.
    fn analysis(&self) -> AnalysisConfig;

    /// Generate the rows and their ground truth.
    fn generate(&self) -> GeneratedScenario;

    /// Convenience: the recommended [`analysis`](Scenario::analysis) wrapped
    /// in an [`MdpQuery`], ready for any executor.
    fn query(&self) -> macrobase_core::Result<MdpQuery> {
        Ok(MdpQuery::new(self.analysis()))
    }
}

/// The standard corpus: one instance of every scenario at default parameters
/// with row counts multiplied by `scale` (min 1). `scale = 1` is sized for
/// per-PR CI; the nightly accuracy gate runs `scale = 10`.
pub fn standard_corpus(scale: usize) -> Vec<Box<dyn Scenario>> {
    let scale = scale.max(1);
    let mut level_shift = LevelShiftScenario::default();
    level_shift.num_points *= scale;
    let mut correlated = CorrelatedFailureScenario::default();
    correlated.rows_per_host *= scale;
    let mut seasonal = SeasonalDriftScenario::default();
    seasonal.num_points *= scale;
    seasonal.period *= scale;
    let mut cardinality = CardinalityExplosionScenario::default();
    cardinality.num_points *= scale;
    let mut self_telemetry = SelfTelemetryScenario::default();
    self_telemetry.num_points *= scale;
    vec![
        Box::new(level_shift),
        Box::new(correlated),
        Box::new(seasonal),
        Box::new(cardinality),
        Box::new(self_telemetry),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        for scenario in standard_corpus(1) {
            let a = scenario.generate();
            let b = scenario.generate();
            assert_eq!(a, b, "{} must be deterministic", scenario.name());
        }
    }

    #[test]
    fn corpus_truth_is_well_formed() {
        for scenario in standard_corpus(1) {
            let generated = scenario.generate();
            let n = generated.points.len();
            assert!(n > 0, "{} generated no rows", scenario.name());
            let rows = &generated.truth.outlier_rows;
            assert!(!rows.is_empty(), "{} planted no outliers", scenario.name());
            assert!(rows.windows(2).all(|w| w[0] < w[1]), "rows must ascend");
            assert!(*rows.last().unwrap() < n, "row index out of range");
            // Planted mass must match the recommended percentile cut to
            // within a percent of the population, or the scenario's own
            // query could never recover it.
            let mass = rows.len() as f64 / n as f64;
            let cut = 1.0 - scenario.analysis().target_percentile;
            assert!(
                (mass - cut).abs() < 0.01,
                "{}: planted mass {mass} vs percentile cut {cut}",
                scenario.name()
            );
            assert!(!generated.truth.guilty_attributes.is_empty());
            let analysis = scenario.analysis();
            assert!(analysis.retain_outlier_rows);
            for combo in &generated.truth.guilty_attributes {
                for attr in combo {
                    let column = attr.split('=').next().unwrap();
                    assert!(
                        analysis.attribute_names.iter().any(|c| c == column),
                        "{}: guilty attribute {attr} names unknown column",
                        scenario.name()
                    );
                }
            }
        }
    }
}
