//! Canonical fingerprints for the shared model cache.
//!
//! Two submissions share a fitted model exactly when they would train the
//! same one: same estimator selection, same threshold percentile, same
//! training-sample cap, and the same metric columns. The fingerprint
//! therefore hashes the *model-relevant* slice of [`AnalysisConfig`] plus
//! every metric value — and deliberately ignores explanation thresholds,
//! attribute names, and retention flags, which shape the report but not the
//! model. Training is deterministic (pool-scattered FastMCD restarts merge
//! deterministically), so equal fingerprints really do mean bit-identical
//! models.

use macrobase_core::operator::EncodedBatch;
use macrobase_core::query::{AnalysisConfig, EstimatorKind};
use macrobase_core::types::Point;

/// Cache key for a fitted model: a 128-bit FNV-1a digest split into a
/// config half and a data half.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fingerprint {
    config: u64,
    data: u64,
}

const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write_u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }
}

fn estimator_tag(kind: EstimatorKind) -> u64 {
    match kind {
        EstimatorKind::Auto => 0,
        EstimatorKind::Mad => 1,
        EstimatorKind::Mcd => 2,
        EstimatorKind::ZScore => 3,
    }
}

impl Fingerprint {
    /// Fingerprint a (config, training batch) pair.
    pub fn compute(analysis: &AnalysisConfig, points: &[Point]) -> Fingerprint {
        let dim = points.first().map_or(0, |p| p.metrics.len());
        Fingerprint::digest(analysis, points.len(), dim, |data| {
            for point in points {
                for &metric in &point.metrics {
                    data.write_f64(metric);
                }
            }
        })
    }

    /// [`compute`](Fingerprint::compute) over a batch in columns: its flat
    /// metric buffer holds the same values in the same order, so the digest
    /// is the same.
    pub(crate) fn of_columns(analysis: &AnalysisConfig, batch: &EncodedBatch) -> Fingerprint {
        Fingerprint::digest(analysis, batch.len(), batch.dim, |data| {
            for &metric in &batch.metrics {
                data.write_f64(metric);
            }
        })
    }

    fn digest(
        analysis: &AnalysisConfig,
        rows: usize,
        dim: usize,
        metrics: impl FnOnce(&mut Fnv),
    ) -> Fingerprint {
        let mut config = Fnv::new();
        config.write_u64(estimator_tag(analysis.estimator));
        config.write_f64(analysis.target_percentile);
        match analysis.training_sample_size {
            Some(n) => {
                config.write_u64(1);
                config.write_u64(n as u64);
            }
            None => config.write_u64(0),
        }

        let mut data = Fnv::new();
        data.write_u64(rows as u64);
        data.write_u64(dim as u64);
        metrics(&mut data);
        Fingerprint {
            config: config.0,
            data: data.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macrobase_core::operator::ColumnarInput;
    use macrobase_core::query::Executor;

    fn points() -> Vec<Point> {
        (0..100)
            .map(|i| Point::simple(10.0 + (i % 7) as f64, format!("d{}", i % 5)))
            .collect()
    }

    #[test]
    fn model_irrelevant_knobs_do_not_change_the_fingerprint() {
        let base = AnalysisConfig::default();
        let mut cosmetic = AnalysisConfig::default();
        cosmetic.explanation.min_support = 0.5;
        cosmetic.attribute_names = vec!["device".to_string()];
        cosmetic.retain_scores = true;
        cosmetic.skip_explanation = true;
        let batch = points();
        assert_eq!(
            Fingerprint::compute(&base, &batch),
            Fingerprint::compute(&cosmetic, &batch)
        );
    }

    #[test]
    fn model_relevant_knobs_and_data_do_change_the_fingerprint() {
        let base = AnalysisConfig::default();
        let batch = points();
        let reference = Fingerprint::compute(&base, &batch);

        let mut percentile = base.clone();
        percentile.target_percentile = 0.95;
        assert_ne!(Fingerprint::compute(&percentile, &batch), reference);

        let mut estimator = base.clone();
        estimator.estimator = EstimatorKind::ZScore;
        assert_ne!(Fingerprint::compute(&estimator, &batch), reference);

        let mut sampled = base.clone();
        sampled.training_sample_size = Some(50);
        assert_ne!(Fingerprint::compute(&sampled, &batch), reference);

        let mut other_batch = batch.clone();
        other_batch[0].metrics[0] += 1.0;
        assert_ne!(Fingerprint::compute(&base, &other_batch), reference);

        // Attributes feed explanation, not the model.
        let mut relabeled = batch;
        relabeled[0].attributes[0] = "other".to_string();
        assert_eq!(Fingerprint::compute(&base, &relabeled), reference);
    }

    #[test]
    fn columns_fingerprint_as_their_points_do() {
        let analysis = AnalysisConfig::default();
        let mut batch = points();
        batch[3].metrics[0] = -0.0;
        batch[4].metrics[0] = f64::NAN;
        let columns = ColumnarInput::from_points(&analysis, &Executor::OneShot, &batch).unwrap();
        assert_eq!(
            Fingerprint::of_columns(&analysis, &columns.batch),
            Fingerprint::compute(&analysis, &batch)
        );
    }
}
