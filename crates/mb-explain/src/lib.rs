//! Explanation operators for MacroBase-RS (Section 5 of the paper).
//!
//! Explanations are combinations of attribute values that are common among
//! outlier points but uncommon among inliers, measured by **support** (the
//! fraction of outliers containing the combination) and the **relative risk
//! ratio** (how much more likely a point with the combination is to be an
//! outlier than one without it).
//!
//! * [`encoder`] — dictionary encoding of (attribute column, value) pairs
//!   into dense item ids used by the itemset miners.
//! * `items` — the columnar [`ItemBatch`] transaction layout (flat item
//!   array + row offsets) the encode pass produces and the batch pipeline
//!   consumes, so strings stop flowing past ingestion.
//! * [`mod@risk_ratio`] — the risk-ratio statistic and explanation types.
//! * [`batch`] — the outlier-aware batch explanation strategy (Algorithm 2)
//!   plus the naïve "mine both sides with FPGrowth" baseline it is compared
//!   against in Section 6.3.
//! * [`streaming`] — the streaming explainer built from AMC sketches and
//!   M-CPS-trees (Figure 2, right half).
//! * [`baselines`] — data cubing, decision-tree, and Apriori explainers used
//!   in the Table 5 runtime comparison.
//!
//! ## Example
//!
//! Explain a set of outlier transactions against the inlier background; item
//! `7` dominates the outliers but never appears among inliers, so it is
//! reported:
//!
//! ```
//! use mb_explain::batch::BatchExplainer;
//! use mb_explain::ExplanationConfig;
//!
//! let outliers: Vec<Vec<u32>> = (0..50)
//!     .map(|i| if i % 10 == 0 { vec![1] } else { vec![7] })
//!     .collect();
//! let inliers: Vec<Vec<u32>> = (0..1_000).map(|i| vec![(i % 5) as u32 + 1]).collect();
//!
//! let explainer = BatchExplainer::new(ExplanationConfig::new(0.2, 3.0));
//! let explanations = explainer.explain(&outliers, &inliers);
//! assert!(explanations.iter().any(|e| e.items == vec![7]));
//! ```

#![warn(missing_docs)]

pub mod baselines;
pub mod batch;
pub mod encoder;
pub(crate) mod items;
pub mod risk_ratio;
pub mod streaming;

pub use encoder::AttributeEncoder;
pub use items::ItemBatch;
pub use risk_ratio::{risk_ratio, Explanation, ExplanationStats};

/// Parameters shared by every explanation strategy.
#[derive(Debug, Clone, Copy)]
pub struct ExplanationConfig {
    /// Minimum support: the fraction of *outlier* points that must contain an
    /// attribute combination for it to be reported (paper default 0.001,
    /// i.e. 0.1%).
    pub min_support: f64,
    /// Minimum relative risk ratio for a combination to be reported (paper
    /// default 3.0).
    pub min_risk_ratio: f64,
    /// Maximum number of attribute values per reported combination.
    pub max_combination_size: usize,
}

impl Default for ExplanationConfig {
    fn default() -> Self {
        ExplanationConfig {
            min_support: 0.001,
            min_risk_ratio: 3.0,
            max_combination_size: 3,
        }
    }
}

impl ExplanationConfig {
    /// Create a config with explicit support and risk-ratio thresholds.
    pub fn new(min_support: f64, min_risk_ratio: f64) -> Self {
        ExplanationConfig {
            min_support,
            min_risk_ratio,
            max_combination_size: 3,
        }
    }

    /// The outlier count a combination needs to be supported: `min_support`
    /// of the (possibly decayed) outlier total, and never less than one.
    pub(crate) fn min_outlier_count(&self, total_outliers: f64) -> f64 {
        (self.min_support * total_outliers).max(1.0)
    }

    /// Builder-style setter for the maximum combination size.
    pub fn with_max_combination_size(mut self, size: usize) -> Self {
        self.max_combination_size = size;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_matches_paper() {
        let cfg = ExplanationConfig::default();
        assert_eq!(cfg.min_support, 0.001);
        assert_eq!(cfg.min_risk_ratio, 3.0);
    }

    #[test]
    fn builder_setters() {
        let cfg = ExplanationConfig::new(0.01, 5.0).with_max_combination_size(2);
        assert_eq!(cfg.min_support, 0.01);
        assert_eq!(cfg.min_risk_ratio, 5.0);
        assert_eq!(cfg.max_combination_size, 2);
    }
}
