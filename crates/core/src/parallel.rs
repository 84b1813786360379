//! The partitioning scaffold of the naïve partitioned backend
//! (`Executor::NaivePartitioned`, whose engine lives in
//! [`crate::executor`]): partition counts and contiguous chunks.

/// The partition count used when a caller passes `0`: one partition per
/// worker in the shared execution pool. This respects
/// [`mb_pool::configure_global_threads`] (and the harness `--threads`
/// flag) rather than blindly using the machine's core count:
/// over-partitioning beyond the pool costs the naïve mode accuracy for no
/// throughput.
pub fn default_num_partitions() -> usize {
    mb_pool::global().num_threads()
}

/// Resolve a caller-supplied partition count: `0` means "derive from
/// [`default_num_partitions`]".
pub(crate) fn resolve_num_partitions(num_partitions: usize) -> usize {
    if num_partitions == 0 {
        default_num_partitions()
    } else {
        num_partitions
    }
}

/// Split a slice into `num_partitions` contiguous chunks (the last may be
/// short).
pub(crate) fn partition_chunks<T>(items: &[T], num_partitions: usize) -> Vec<&[T]> {
    assert!(num_partitions > 0, "need at least one partition");
    let chunk_size = items.len().div_ceil(num_partitions);
    items.chunks(chunk_size.max(1)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AnalysisConfig, Executor, MdpQuery};
    use crate::types::{MdpReport, Point};
    use mb_explain::ExplanationConfig;

    fn workload(n: usize) -> Vec<Point> {
        let mut points: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    vec![10.0 + (i % 9) as f64 * 0.2],
                    vec![format!("device_{}", i % 60)],
                )
            })
            .collect();
        for i in 0..(n / 100) {
            points[i * 100] = Point::new(vec![400.0], vec!["device_bad".to_string()]);
        }
        points
    }

    fn config() -> AnalysisConfig {
        AnalysisConfig {
            explanation: ExplanationConfig::new(0.01, 3.0),
            attribute_names: vec!["device_id".to_string()],
            ..AnalysisConfig::default()
        }
    }

    fn run_naive(points: &[Point], partitions: usize) -> crate::Result<MdpReport> {
        MdpQuery::new(config()).execute(&Executor::NaivePartitioned { partitions }, points)
    }

    fn partition_count(report: &MdpReport) -> usize {
        report
            .partition_reports
            .as_ref()
            .expect("naive partitioned reports always carry partition detail")
            .len()
    }

    #[test]
    fn single_partition_matches_one_shot() {
        let points = workload(10_000);
        let partitioned = run_naive(&points, 1).unwrap();
        let direct = MdpQuery::new(config())
            .execute(&Executor::OneShot, &points)
            .unwrap();
        let partitions = partitioned.partition_reports.as_ref().unwrap();
        assert_eq!(partitions.len(), 1);
        assert_eq!(partitions[0].num_outliers, direct.num_outliers);
        assert_eq!(partitioned.explanations.len(), direct.explanations.len());
    }

    #[test]
    fn multiple_partitions_still_find_the_planted_device() {
        let points = workload(20_000);
        for num_partitions in [2, 4, 8] {
            let result = run_naive(&points, num_partitions).unwrap();
            assert_eq!(partition_count(&result), num_partitions);
            assert!(
                result
                    .explanations
                    .iter()
                    .any(|e| e.attributes.iter().any(|a| a.contains("device_bad"))),
                "device_bad missing with {num_partitions} partitions"
            );
            assert_eq!(result.num_points, 20_000);
        }
    }

    #[test]
    fn merged_explanations_are_deduplicated() {
        let points = workload(20_000);
        let result = run_naive(&points, 4).unwrap();
        let mut combos: Vec<&Vec<String>> =
            result.explanations.iter().map(|e| &e.attributes).collect();
        let before = combos.len();
        combos.sort();
        combos.dedup();
        assert_eq!(before, combos.len());
    }

    #[test]
    fn empty_input_is_rejected() {
        assert!(run_naive(&[], 4).is_err());
    }

    #[test]
    fn zero_partitions_derives_count_from_available_parallelism() {
        let points = workload(10_000);
        let result = run_naive(&points, 0).unwrap();
        assert_eq!(partition_count(&result), default_num_partitions());
    }
}
