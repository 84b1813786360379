//! Simulated stand-ins for the six large-scale evaluation datasets of
//! Table 2 / Appendix D.
//!
//! The originals (CMT production telematics, Iowa liquor sales, Milan telecom
//! activity, US campaign expenditures, UK road accidents, candidate
//! disbursements) cannot be redistributed, so each is replaced by a synthetic
//! generator matching its **shape**: number of points, number of metrics and
//! attributes for the paper's "simple" and "complex" queries, and the
//! approximate cardinality of each attribute column. Each dataset plants a
//! small population of systemically anomalous points tied to specific
//! attribute values so that explanation quality is measurable. Row counts are
//! scaled by [`DatasetScale`] so experiments stay laptop-sized; the benches
//! report the scale they used.

use crate::Record;
use mb_stats::rand_ext::{normal, SplitMix64, Zipf};

/// Scale factor applied to the paper's row counts.
#[derive(Debug, Clone, Copy)]
pub struct DatasetScale {
    /// Divide the paper's row count by this factor (1 = full size).
    pub divisor: usize,
}

impl Default for DatasetScale {
    fn default() -> Self {
        // 100x smaller than the paper keeps every dataset under ~100K rows.
        DatasetScale { divisor: 100 }
    }
}

/// Identifiers for the six Table 2 datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetId {
    /// Iowa liquor sales ("Liquor", LS/LC).
    Liquor,
    /// Milan telecom activity ("Telecom", TS/TC).
    Telecom,
    /// US presidential campaign expenditures ("Campaign", ES/EC).
    Campaign,
    /// UK road accidents ("Accidents", AS/AC).
    Accidents,
    /// US House/Senate disbursements ("Disburse", FS/FC).
    Disburse,
    /// CMT telematics ("CMT", MS/MC).
    Cmt,
}

impl DatasetId {
    /// All six datasets in the order Table 2 lists them.
    pub fn all() -> [DatasetId; 6] {
        [
            DatasetId::Liquor,
            DatasetId::Telecom,
            DatasetId::Campaign,
            DatasetId::Accidents,
            DatasetId::Disburse,
            DatasetId::Cmt,
        ]
    }

    /// Short name used in tables (matches the paper).
    pub fn name(&self) -> &'static str {
        match self {
            DatasetId::Liquor => "Liquor",
            DatasetId::Telecom => "Telecom",
            DatasetId::Campaign => "Campaign",
            DatasetId::Accidents => "Accidents",
            DatasetId::Disburse => "Disburse",
            DatasetId::Cmt => "CMT",
        }
    }

    /// Query-name prefix (L, T, E, A, F, M as in Table 2).
    pub fn query_prefix(&self) -> &'static str {
        match self {
            DatasetId::Liquor => "L",
            DatasetId::Telecom => "T",
            DatasetId::Campaign => "E",
            DatasetId::Accidents => "A",
            DatasetId::Disburse => "F",
            DatasetId::Cmt => "M",
        }
    }
}

/// Static description of a dataset's shape (matching Table 2 / Appendix D).
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Which dataset this describes.
    pub id: DatasetId,
    /// Paper row count.
    pub paper_points: usize,
    /// Number of metrics in the complex query (the simple query always uses 1).
    pub complex_metrics: usize,
    /// Number of attributes in the complex query (the simple query always uses 1).
    pub complex_attributes: usize,
    /// Cardinality of each attribute column (first entry is the column used
    /// by the simple query).
    pub attribute_cardinalities: Vec<usize>,
}

/// Shape of each dataset, following Table 2's metric/attribute counts and
/// Appendix D's description of attribute cardinalities (e.g. Accidents has
/// only 9 weather conditions; Disburse has ~138K distinct recipients).
pub(crate) fn dataset_spec(id: DatasetId) -> DatasetSpec {
    match id {
        DatasetId::Liquor => DatasetSpec {
            id,
            paper_points: 3_050_000,
            complex_metrics: 2,
            complex_attributes: 4,
            attribute_cardinalities: vec![1_400, 120, 400, 3_000],
        },
        DatasetId::Telecom => DatasetSpec {
            id,
            paper_points: 10_000_000,
            complex_metrics: 5,
            complex_attributes: 2,
            attribute_cardinalities: vec![10_000, 65],
        },
        DatasetId::Campaign => DatasetSpec {
            id,
            paper_points: 10_000_000,
            complex_metrics: 1,
            complex_attributes: 5,
            attribute_cardinalities: vec![5_000, 900, 50, 12, 300],
        },
        DatasetId::Accidents => DatasetSpec {
            id,
            paper_points: 430_000,
            complex_metrics: 3,
            complex_attributes: 3,
            attribute_cardinalities: vec![9, 7, 50],
        },
        DatasetId::Disburse => DatasetSpec {
            id,
            paper_points: 3_480_000,
            complex_metrics: 1,
            complex_attributes: 6,
            attribute_cardinalities: vec![138_338 / 50, 2_000, 50, 12, 400, 30],
        },
        DatasetId::Cmt => DatasetSpec {
            id,
            paper_points: 10_000_000,
            complex_metrics: 7,
            complex_attributes: 6,
            attribute_cardinalities: vec![24_000 / 10, 500, 60, 40, 12, 200],
        },
    }
}

/// A generated dataset: records plus the attribute values that were planted
/// as systemically anomalous (for result-quality checks).
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    /// The dataset's shape description.
    pub spec: DatasetSpec,
    /// Generated rows: `complex_metrics` metrics and `complex_attributes`
    /// attribute columns each (simple queries use column 0 of each).
    pub records: Vec<Record>,
    /// The attribute values (column, value) planted to co-occur with
    /// anomalous metric readings.
    pub planted_attributes: Vec<(usize, String)>,
}

/// Generate a simulated dataset.
///
/// Roughly 1% of rows are anomalous: their metrics are shifted several
/// standard deviations and their first two attribute columns are drawn from a
/// small set of planted values (mimicking the "device type × app version"
/// style of systemic problem the paper describes).
pub fn generate_dataset(id: DatasetId, scale: DatasetScale, seed: u64) -> GeneratedDataset {
    let spec = dataset_spec(id);
    let num_points = (spec.paper_points / scale.divisor.max(1)).max(1_000);
    let mut rng = SplitMix64::new(seed ^ (id as u64).wrapping_mul(0x9E37_79B9));

    // Zipf-distributed attribute values per column (production attribute
    // frequencies are heavily skewed).
    let zipfs: Vec<Zipf> = spec
        .attribute_cardinalities
        .iter()
        .map(|&c| Zipf::new(c.max(2), 1.1))
        .collect();

    // Planted anomalous values: an uncommon value in each of the first two
    // attribute columns (or just the first if there is only one).
    let mut planted_attributes = vec![(0usize, "planted_0".to_string())];
    if spec.complex_attributes > 1 {
        planted_attributes.push((1usize, "planted_1".to_string()));
    }

    let mut records = Vec::with_capacity(num_points);
    for _ in 0..num_points {
        let is_anomalous = rng.next_f64() < 0.01;
        let mut metrics = Vec::with_capacity(spec.complex_metrics);
        for m in 0..spec.complex_metrics {
            let base = 50.0 + 10.0 * m as f64;
            let value = if is_anomalous {
                normal(&mut rng, base + 8.0 * 10.0, 10.0)
            } else {
                normal(&mut rng, base, 10.0)
            };
            metrics.push(value);
        }
        let mut attributes = Vec::with_capacity(spec.complex_attributes);
        for (col, zipf) in zipfs.iter().enumerate().take(spec.complex_attributes) {
            let planted_here = planted_attributes.iter().any(|(c, _)| *c == col);
            // 80% of anomalous rows carry the planted value in the planted
            // columns; everything else draws from the Zipf background.
            if is_anomalous && planted_here && rng.next_f64() < 0.8 {
                attributes.push(format!("planted_{col}"));
            } else {
                attributes.push(format!("a{col}_v{}", zipf.sample(&mut rng)));
            }
        }
        records.push(Record::new(metrics, attributes));
    }
    GeneratedDataset {
        spec,
        records,
        planted_attributes,
    }
}

/// Project a generated dataset down to the paper's "simple" query shape
/// (single metric, single attribute).
pub fn simple_query_view(dataset: &GeneratedDataset) -> Vec<Record> {
    dataset
        .records
        .iter()
        .map(|r| {
            Record::new(
                vec![r.metrics[0]],
                vec![r.attributes.first().cloned().unwrap_or_default()],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table2_arities() {
        let cmt = dataset_spec(DatasetId::Cmt);
        assert_eq!(cmt.complex_metrics, 7);
        assert_eq!(cmt.complex_attributes, 6);
        let telecom = dataset_spec(DatasetId::Telecom);
        assert_eq!(telecom.complex_metrics, 5);
        assert_eq!(telecom.complex_attributes, 2);
        let accidents = dataset_spec(DatasetId::Accidents);
        assert_eq!(accidents.attribute_cardinalities[0], 9);
        for id in DatasetId::all() {
            let spec = dataset_spec(id);
            assert_eq!(spec.attribute_cardinalities.len(), spec.complex_attributes);
        }
    }

    #[test]
    fn generation_respects_shape_and_scale() {
        let dataset = generate_dataset(
            DatasetId::Accidents,
            DatasetScale { divisor: 100 },
            1,
        );
        assert_eq!(dataset.records.len(), 4_300);
        for r in &dataset.records {
            assert_eq!(r.metrics.len(), 3);
            assert_eq!(r.attributes.len(), 3);
        }
    }

    #[test]
    fn planted_values_correlate_with_anomalous_metrics() {
        let dataset = generate_dataset(DatasetId::Liquor, DatasetScale { divisor: 100 }, 2);
        let planted: Vec<&Record> = dataset
            .records
            .iter()
            .filter(|r| r.attributes[0] == "planted_0")
            .collect();
        let background: Vec<&Record> = dataset
            .records
            .iter()
            .filter(|r| r.attributes[0] != "planted_0")
            .collect();
        assert!(!planted.is_empty());
        let mean = |rs: &[&Record]| {
            rs.iter().map(|r| r.metrics[0]).sum::<f64>() / rs.len() as f64
        };
        assert!(mean(&planted) > mean(&background) + 40.0);
        // Planted rows are rare (~1% of the data).
        assert!(planted.len() < dataset.records.len() / 20);
    }

    #[test]
    fn simple_view_has_one_metric_and_attribute() {
        let dataset = generate_dataset(DatasetId::Campaign, DatasetScale { divisor: 500 }, 3);
        let simple = simple_query_view(&dataset);
        assert_eq!(simple.len(), dataset.records.len());
        assert!(simple.iter().all(|r| r.metrics.len() == 1 && r.attributes.len() == 1));
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_dataset(DatasetId::Telecom, DatasetScale { divisor: 1000 }, 9);
        let b = generate_dataset(DatasetId::Telecom, DatasetScale { divisor: 1000 }, 9);
        assert_eq!(a.records, b.records);
    }

    #[test]
    fn query_prefixes_are_unique() {
        use std::collections::HashSet;
        let prefixes: HashSet<&str> = DatasetId::all().iter().map(|d| d.query_prefix()).collect();
        assert_eq!(prefixes.len(), 6);
    }
}
