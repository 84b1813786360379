//! Behaviour checks of coordinated partitioned execution (Section 6.4):
//! `Executor::Coordinated` keeps one shared model, one global threshold and
//! global support counts, so its answer must equal one-shot's at every
//! partition count. It runs the one-shot engine in [`crate::executor`].

#[cfg(test)]
mod tests {
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

    fn run_coordinated(
        points: &[Point],
        partitions: usize,
        config: &AnalysisConfig,
    ) -> crate::Result<MdpReport> {
        MdpQuery::new(config.clone()).execute(&Executor::Coordinated { partitions }, points)
    }

    fn attribute_sets(report: &MdpReport) -> Vec<Vec<String>> {
        let mut sets: Vec<Vec<String>> = report
            .explanations
            .iter()
            .map(|e| {
                let mut attrs = e.attributes.clone();
                attrs.sort();
                attrs
            })
            .collect();
        sets.sort();
        sets
    }

    #[test]
    fn coordinated_reproduces_one_shot_for_any_partition_count() {
        let points = workload(20_000);
        let one_shot = MdpQuery::new(config())
            .execute(&Executor::OneShot, &points)
            .unwrap();
        for num_partitions in [1, 2, 3, 4, 8] {
            let coordinated = run_coordinated(&points, num_partitions, &config()).unwrap();
            assert_eq!(coordinated.num_outliers, one_shot.num_outliers);
            assert_eq!(coordinated.score_cutoff, one_shot.score_cutoff);
            assert_eq!(
                attribute_sets(&coordinated),
                attribute_sets(&one_shot),
                "explanation sets diverged at {num_partitions} partitions"
            );
        }
    }

    #[test]
    fn coordinated_respects_skip_explanation_and_retain_scores() {
        let points = workload(5_000);
        let report = run_coordinated(
            &points,
            4,
            &AnalysisConfig {
                skip_explanation: true,
                retain_scores: true,
                ..config()
            },
        )
        .unwrap();
        assert!(report.explanations.is_empty());
        assert_eq!(report.scores.len(), 5_000);
        assert!(report.num_outliers > 0);
    }

    #[test]
    fn coordinated_rejects_empty_input() {
        assert!(run_coordinated(&[], 4, &config()).is_err());
    }

    #[test]
    fn zero_partitions_matches_explicit_partition_count() {
        // 0 = "one partition per core"; coordinated results are partition-
        // count-invariant, so auto must equal the single-partition report.
        let points = workload(5_000);
        let auto = run_coordinated(&points, 0, &config()).unwrap();
        let explicit = run_coordinated(&points, 1, &config()).unwrap();
        assert_eq!(auto.num_outliers, explicit.num_outliers);
        assert_eq!(auto.score_cutoff, explicit.score_cutoff);
        assert_eq!(attribute_sets(&auto), attribute_sets(&explicit));
    }

    #[test]
    fn more_partitions_than_points_still_works() {
        let points = workload(500);
        let report = run_coordinated(&points, 8, &config()).unwrap();
        assert_eq!(report.num_points, 500);
        assert!(report
            .explanations
            .iter()
            .any(|e| e.attributes.iter().any(|a| a.contains("device_bad"))));
    }
}
