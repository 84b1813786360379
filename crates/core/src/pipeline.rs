//! Behaviour checks of the full Table 1 dataflow built through
//! [`MdpQueryBuilder`]: a transformer chain, the unsupervised classifier, an
//! optional supervised rule ORed with it, and the explainer, run as one
//! query by `Executor::OneShot`.
//!
//! [`MdpQueryBuilder`]: crate::query::MdpQueryBuilder

#[cfg(test)]
mod tests {
    use crate::operator::{MapTransformer, Transformer};
    use crate::query::{Executor, MdpQuery};
    use crate::types::Point;
    use crate::PipelineError;
    use mb_classify::rule::{Comparison, RuleClassifier};
    use mb_explain::ExplanationConfig;

    fn background_points(n: usize) -> Vec<Point> {
        (0..n)
            .map(|i| {
                Point::new(
                    vec![10.0 + (i % 7) as f64 * 0.3],
                    vec![format!("device_{}", i % 40)],
                )
            })
            .collect()
    }

    #[test]
    fn builder_rejects_classifierless_pipeline() {
        let result = MdpQuery::builder().without_unsupervised().build();
        assert!(matches!(result, Err(PipelineError::MissingClassifier)));
    }

    #[test]
    fn default_pipeline_flags_extremes() {
        let mut points = background_points(10_000);
        for i in 0..100 {
            points[i * 100] = Point::new(vec![500.0], vec!["device_bad".to_string()]);
        }
        let mut query = MdpQuery::builder()
            .explanation(ExplanationConfig::new(0.01, 3.0))
            .attribute_names(vec!["device_id".to_string()])
            .build()
            .unwrap();
        let report = query.execute(&Executor::OneShot, &points).unwrap();
        assert_eq!(report.num_points, 10_000);
        assert!(report
            .explanations
            .iter()
            .any(|e| e.attributes.iter().any(|a| a.contains("device_bad"))));
    }

    #[test]
    fn transformer_runs_before_classification() {
        // A transform that squares the metric turns modest values (30) into
        // extremes (900) relative to the background (~100): if the transform
        // runs, device_hot must be explained.
        let mut points = background_points(5_000);
        for i in 0..50 {
            points[i * 100] = Point::new(vec![30.0], vec!["device_hot".to_string()]);
        }
        let mut query = MdpQuery::builder()
            .transform(Box::new(MapTransformer::new(|mut p: Point| {
                p.metrics[0] = p.metrics[0] * p.metrics[0];
                p
            })))
            .explanation(ExplanationConfig::new(0.01, 3.0))
            .build()
            .unwrap();
        let report = query.execute(&Executor::OneShot, &points).unwrap();
        assert!(report
            .explanations
            .iter()
            .any(|e| e.attributes.iter().any(|a| a.contains("device_hot"))));
    }

    #[test]
    fn hybrid_supervision_ors_rule_with_unsupervised() {
        // The rule flags metric > 100 even though such points are too few for
        // the percentile classifier to catch reliably; the hybrid query must
        // flag both the statistical extremes and the rule matches.
        let mut points = background_points(5_000);
        // 10 rule-only anomalies (value 150, device_rule).
        for i in 0..10 {
            points[i * 37] = Point::new(vec![150.0], vec!["device_rule".to_string()]);
        }
        let mut query = MdpQuery::builder()
            .supervised_rule(RuleClassifier::single(0, Comparison::GreaterThan, 100.0))
            .explanation(ExplanationConfig::new(0.0005, 3.0))
            .retain_outlier_rows()
            .build()
            .unwrap();
        let report = query.execute(&Executor::OneShot, &points).unwrap();
        // Every rule match is an outlier regardless of the percentile cutoff.
        for (row, point) in points.iter().enumerate() {
            if point.metrics[0] > 100.0 {
                assert!(report.outlier_rows.contains(&row), "rule match {row} not flagged");
            }
        }
        assert!(report
            .explanations
            .iter()
            .any(|e| e.attributes.iter().any(|a| a.contains("device_rule"))));
    }

    #[test]
    fn rule_only_pipeline_works() {
        let mut points = background_points(1_000);
        points[0] = Point::new(vec![1_000.0], vec!["device_x".to_string()]);
        let mut query = MdpQuery::builder()
            .without_unsupervised()
            .supervised_rule(RuleClassifier::single(0, Comparison::GreaterThan, 500.0))
            .retain_outlier_rows()
            .build()
            .unwrap();
        let report = query.execute(&Executor::OneShot, &points).unwrap();
        assert_eq!(report.num_outliers, 1);
        assert_eq!(report.outlier_rows, vec![0]);
    }

    #[test]
    fn empty_after_transform_is_an_error() {
        struct Emptying;
        impl Transformer for Emptying {
            fn transform(&mut self, _: Vec<Point>) -> Vec<Point> {
                Vec::new()
            }
        }
        let mut query = MdpQuery::builder()
            .transform(Box::new(Emptying))
            .build()
            .unwrap();
        assert!(matches!(
            query.execute(&Executor::OneShot, &background_points(10)),
            Err(PipelineError::EmptyInput)
        ));
    }
}
