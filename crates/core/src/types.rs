//! Core data types: points and explanation reports.

use mb_explain::risk_ratio::ExplanationStats;
use mb_fpgrowth::Item;

/// A MacroBase data point: real-valued metrics plus categorical attributes
/// (Table 1's `Point := (array<double> metrics, array<varchar> attributes)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Real-valued measurements used for classification.
    pub metrics: Vec<f64>,
    /// Categorical metadata used for explanation, one value per attribute
    /// column.
    pub attributes: Vec<String>,
}

impl Point {
    /// Create a point from metrics and attributes.
    pub fn new(metrics: Vec<f64>, attributes: Vec<String>) -> Self {
        Point {
            metrics,
            attributes,
        }
    }

    /// Create a point with a single metric and a single attribute (the shape
    /// of the paper's "simple" queries).
    pub fn simple(metric: f64, attribute: impl Into<String>) -> Self {
        Point {
            metrics: vec![metric],
            attributes: vec![attribute.into()],
        }
    }

    /// Metric dimensionality.
    pub(crate) fn dimension(&self) -> usize {
        self.metrics.len()
    }
}

/// One explanation rendered for presentation: decoded attribute strings plus
/// the raw items and statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RenderedExplanation {
    /// Human-readable `column=value` descriptions of the combination.
    pub attributes: Vec<String>,
    /// The raw encoded items (useful for programmatic consumers).
    pub items: Vec<Item>,
    /// Support / risk-ratio statistics.
    pub stats: ExplanationStats,
}

/// The output of an MDP query: ranked explanations plus summary statistics
/// about the run (Section 3.2, stage 5).
#[derive(Debug, Clone, PartialEq)]
pub struct MdpReport {
    /// Explanations ranked by risk ratio then support.
    pub explanations: Vec<RenderedExplanation>,
    /// Number of points processed.
    pub num_points: usize,
    /// Number of points classified as outliers.
    pub num_outliers: usize,
    /// The score threshold that separated outliers from inliers (if one was
    /// computed).
    pub score_cutoff: Option<f64>,
    /// Outlier scores of every processed point, in input order, when score
    /// retention is enabled (used for the Figure 7 CDF; empty otherwise).
    /// The naïve partitioned backend concatenates partition scores in input
    /// order.
    pub scores: Vec<f64>,
    /// Input-order indices of the points labeled outliers, when
    /// [`AnalysisConfig::retain_outlier_rows`] is enabled (empty otherwise).
    /// This is what labeled-workload accuracy harnesses score point-level
    /// precision/recall against. Every backend populates it in global input
    /// order; the naïve partitioned backend's *partition* reports carry
    /// partition-local indices (matching their partition-local scores).
    ///
    /// [`AnalysisConfig::retain_outlier_rows`]: crate::query::AnalysisConfig::retain_outlier_rows
    pub outlier_rows: Vec<usize>,
    /// Per-partition detail, populated only by the naïve partitioned
    /// backend: one full report per shared-nothing partition, in partition
    /// order (each with its own local score cutoff). `None` for the
    /// single-model backends, whose report is already global.
    pub partition_reports: Option<Vec<MdpReport>>,
    /// Telemetry recorded while this report was produced: per-stage wall
    /// times, row/batch movement, and merged engine counters. `None` unless
    /// the query ran with [`ObsConfig`] enabled (the default is off, keeping
    /// reports byte-identical to untraced runs). The naïve partitioned
    /// backend also attaches a per-partition trace to each entry of
    /// [`MdpReport::partition_reports`].
    ///
    /// [`ObsConfig`]: mb_obs::ObsConfig
    pub trace: Option<mb_obs::QueryTrace>,
}

impl MdpReport {
    /// Fraction of points classified as outliers.
    pub(crate) fn outlier_fraction(&self) -> f64 {
        if self.num_points == 0 {
            0.0
        } else {
            self.num_outliers as f64 / self.num_points as f64
        }
    }

    /// The attribute strings of the top-`k` explanations (presentation
    /// order), borrowed from the report — no per-explanation clone.
    pub fn top_attributes(&self, k: usize) -> Vec<&[String]> {
        self.explanations
            .iter()
            .take(k)
            .map(|e| e.attributes.as_slice())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_constructors() {
        let p = Point::new(vec![1.0, 2.0], vec!["a".to_string()]);
        assert_eq!(p.dimension(), 2);
        let s = Point::simple(3.0, "device_1");
        assert_eq!(s.dimension(), 1);
        assert_eq!(s.attributes, vec!["device_1"]);
    }

    #[test]
    fn report_outlier_fraction() {
        let report = MdpReport {
            explanations: vec![],
            num_points: 200,
            num_outliers: 2,
            score_cutoff: Some(3.0),
            scores: vec![],
            outlier_rows: vec![],
            partition_reports: None,
            trace: None,
        };
        assert!((report.outlier_fraction() - 0.01).abs() < 1e-12);
        let empty = MdpReport {
            explanations: vec![],
            num_points: 0,
            num_outliers: 0,
            score_cutoff: None,
            scores: vec![],
            outlier_rows: vec![],
            partition_reports: None,
            trace: None,
        };
        assert_eq!(empty.outlier_fraction(), 0.0);
    }
}
