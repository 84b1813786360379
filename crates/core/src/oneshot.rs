//! Behaviour checks of one-shot execution (Sections 4–5, "one-shot queries"
//! of Section 3.2): an [`MdpQuery`] run by `Executor::OneShot` over a stored
//! batch. The engine itself lives in [`crate::executor`].

#[cfg(test)]
mod tests {
    use crate::query::{AnalysisConfig, EstimatorKind, Executor, MdpQuery};
    use crate::types::Point;
    use crate::PipelineError;
    use mb_explain::ExplanationConfig;
    use mb_ingest::synthetic::{device_workload, DeviceWorkloadConfig};

    fn workload_points(num_points: usize, num_devices: usize) -> (Vec<Point>, Vec<String>) {
        let workload = device_workload(&DeviceWorkloadConfig {
            num_points,
            num_devices,
            outlying_device_fraction: 0.01,
            ..DeviceWorkloadConfig::default()
        });
        let points = workload
            .records
            .iter()
            .map(|r| Point::new(r.record.metrics.clone(), r.record.attributes.clone()))
            .collect();
        (points, workload.outlying_devices)
    }

    fn run(config: AnalysisConfig, points: &[Point]) -> crate::Result<crate::types::MdpReport> {
        MdpQuery::new(config).execute(&Executor::OneShot, points)
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(matches!(
            run(AnalysisConfig::default(), &[]),
            Err(PipelineError::EmptyInput)
        ));
    }

    #[test]
    fn inconsistent_dimensions_rejected() {
        let points = vec![
            Point::new(vec![1.0], vec!["a".to_string()]),
            Point::new(vec![1.0, 2.0], vec!["a".to_string()]),
        ];
        assert!(matches!(
            run(AnalysisConfig::default(), &points),
            Err(PipelineError::InconsistentDimensions { expected: 1, actual: 2 })
        ));
        // A ragged last row of a batch large enough to shard.
        let (mut points, _) = workload_points(5_000, 50);
        let dim = points[0].dimension();
        points.last_mut().unwrap().metrics.push(0.5);
        let error = run(AnalysisConfig::default(), &points).unwrap_err();
        assert!(matches!(
            error,
            PipelineError::InconsistentDimensions { expected, actual }
                if (expected, actual) == (dim, dim + 1)
        ));
    }

    #[test]
    fn recovers_misbehaving_devices_from_device_workload() {
        // The core end-to-end claim of Section 6.1: on the synthetic device
        // workload without noise, MDP's explanations identify exactly the
        // outlying devices.
        let (points, truth) = workload_points(40_000, 200);
        let report = run(
            AnalysisConfig {
                explanation: ExplanationConfig::new(0.01, 3.0),
                attribute_names: vec!["device_id".to_string()],
                ..AnalysisConfig::default()
            },
            &points,
        )
        .unwrap();
        assert!(report.num_outliers > 0);
        // Every ground-truth device appears among the explanations.
        let reported: Vec<String> = report
            .explanations
            .iter()
            .flat_map(|e| e.attributes.clone())
            .collect();
        for device in &truth {
            assert!(
                reported.iter().any(|r| r.ends_with(device.as_str())),
                "device {device} missing from explanations: {reported:?}"
            );
        }
    }

    #[test]
    fn outlier_fraction_tracks_percentile() {
        let (points, _) = workload_points(20_000, 100);
        let report = run(AnalysisConfig::default(), &points).unwrap();
        // ~1% of devices are outlying so slightly more than 1% of points are
        // flagged; the fraction must be in a sane band around the percentile.
        assert!(report.outlier_fraction() > 0.005);
        assert!(report.outlier_fraction() < 0.05);
        assert!(report.score_cutoff.unwrap() > 0.0);
    }

    #[test]
    fn skip_explanation_omits_explanations() {
        let (points, _) = workload_points(5_000, 50);
        let report = run(
            AnalysisConfig {
                skip_explanation: true,
                ..AnalysisConfig::default()
            },
            &points,
        )
        .unwrap();
        assert!(report.explanations.is_empty());
        assert!(report.num_outliers > 0);
    }

    #[test]
    fn retain_scores_keeps_per_point_scores() {
        let (points, _) = workload_points(2_000, 20);
        let report = run(
            AnalysisConfig {
                retain_scores: true,
                ..AnalysisConfig::default()
            },
            &points,
        )
        .unwrap();
        assert_eq!(report.scores.len(), 2_000);
        assert!(report.scores.iter().all(|s| s.is_finite()));
    }

    #[test]
    fn multivariate_auto_uses_mcd() {
        // Two metrics: MDP should pick MCD automatically and still flag the
        // planted multivariate anomalies.
        assert_eq!(EstimatorKind::Auto.resolve(2), EstimatorKind::Mcd);
        let mut points: Vec<Point> = (0..5_000)
            .map(|i| {
                Point::new(
                    vec![10.0 + (i % 7) as f64 * 0.1, 20.0 + (i % 5) as f64 * 0.1],
                    vec![format!("device_{}", i % 50)],
                )
            })
            .collect();
        for i in 0..50 {
            points[i * 100] = Point::new(vec![200.0, 300.0], vec!["device_bad".to_string()]);
        }
        let report = run(
            AnalysisConfig {
                explanation: ExplanationConfig::new(0.01, 3.0),
                ..AnalysisConfig::default()
            },
            &points,
        )
        .unwrap();
        assert!(report
            .explanations
            .iter()
            .any(|e| e.attributes.iter().any(|a| a.contains("device_bad"))));
    }

    #[test]
    fn zscore_estimator_can_be_forced() {
        let (points, _) = workload_points(5_000, 50);
        let report = run(
            AnalysisConfig {
                estimator: EstimatorKind::ZScore,
                ..AnalysisConfig::default()
            },
            &points,
        )
        .unwrap();
        assert!(report.num_outliers > 0);
    }
}
