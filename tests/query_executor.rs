//! The unified query surface, end to end: one `MdpQuery` must answer
//! *identically* — byte for byte — through the one-shot and coordinated
//! backends at any partition count, misconfigurations must surface as typed
//! errors, and every backend must accept any `Ingestor` source.

use macrobase::classify::rule::{Comparison, RuleClassifier};
use macrobase::core::operator::MapTransformer;
use macrobase::prelude::*;

fn workload(n: usize) -> Vec<Point> {
    let mut points: Vec<Point> = (0..n)
        .map(|i| {
            Point::new(
                vec![10.0 + (i % 9) as f64 * 0.2],
                vec![format!("device_{}", i % 60), format!("fw_{}", i % 3)],
            )
        })
        .collect();
    for i in 0..(n / 100) {
        points[i * 100] = Point::new(
            vec![21.0], // modest pre-transform; extreme once squared
            vec!["device_bad".to_string(), "fw_1".to_string()],
        );
    }
    points
}

/// The query under test: a transformer stage (squaring the metric), named
/// attributes, tight explanation thresholds, and retained scores so the
/// comparison covers every field of the report.
fn build_query() -> MdpQuery {
    MdpQuery::builder()
        .transform(Box::new(MapTransformer::new(|mut p: Point| {
            p.metrics[0] = p.metrics[0] * p.metrics[0];
            p
        })))
        .explanation(ExplanationConfig::new(0.01, 3.0))
        .attribute_names(vec!["device_id".to_string(), "firmware".to_string()])
        .retain_scores()
        .build()
        .unwrap()
}

/// Byte-identical comparison of two reports: every scalar, every retained
/// score, and the full ranked explanation sequence (attributes, items, and
/// exact statistics).
fn assert_reports_identical(a: &MdpReport, b: &MdpReport, context: &str) {
    assert_eq!(a.num_points, b.num_points, "num_points diverged: {context}");
    assert_eq!(
        a.num_outliers, b.num_outliers,
        "num_outliers diverged: {context}"
    );
    assert_eq!(
        a.score_cutoff, b.score_cutoff,
        "score_cutoff diverged: {context}"
    );
    assert_eq!(a.scores, b.scores, "scores diverged: {context}");
    assert_eq!(
        a.explanations, b.explanations,
        "explanation sequence diverged: {context}"
    );
}

#[test]
fn one_query_with_transformer_is_byte_identical_one_shot_vs_coordinated() {
    let points = workload(20_000);
    let reference = build_query()
        .execute(&Executor::OneShot, &points)
        .unwrap();
    // The transformed extreme must actually drive the report.
    assert!(reference.num_outliers > 0);
    assert!(reference
        .explanations
        .iter()
        .any(|e| e.attributes.iter().any(|a| a.contains("device_bad"))));

    for partitions in 1..=8 {
        let coordinated = build_query()
            .execute(&Executor::Coordinated { partitions }, &points)
            .unwrap();
        assert_reports_identical(
            &reference,
            &coordinated,
            &format!("{partitions} partitions"),
        );
    }
}

#[test]
fn hybrid_query_is_byte_identical_one_shot_vs_coordinated() {
    // Add a supervised rule on top of the transformer: the OR of percentile
    // and rule labels must still reconcile exactly across partitions.
    let build = || {
        MdpQuery::builder()
            .transform(Box::new(MapTransformer::new(|mut p: Point| {
                p.metrics[0] = p.metrics[0] * p.metrics[0];
                p
            })))
            .supervised_rule(RuleClassifier::single(0, Comparison::GreaterThan, 430.0))
            .explanation(ExplanationConfig::new(0.005, 3.0))
            .attribute_names(vec!["device_id".to_string(), "firmware".to_string()])
            .retain_scores()
            .build()
            .unwrap()
    };
    let points = workload(12_000);
    let reference = build().execute(&Executor::OneShot, &points).unwrap();
    assert!(reference.num_outliers > 0);
    for partitions in [1, 3, 5, 8] {
        let coordinated = build()
            .execute(&Executor::Coordinated { partitions }, &points)
            .unwrap();
        assert_reports_identical(
            &reference,
            &coordinated,
            &format!("hybrid, {partitions} partitions"),
        );
    }
}

#[test]
fn builder_misconfigurations_return_typed_errors() {
    // No classifier at all.
    assert!(matches!(
        MdpQuery::builder().without_unsupervised().build(),
        Err(PipelineError::MissingClassifier)
    ));
    // Percentile outside [0, 1].
    assert!(matches!(
        MdpQuery::builder().target_percentile(2.0).build(),
        Err(PipelineError::InvalidConfiguration(_))
    ));
    // Batch-only knobs on the streaming backend.
    let points = workload(500);
    let mut retained = MdpQuery::builder().retain_scores().build().unwrap();
    assert!(matches!(
        retained.execute(&Executor::streaming(), &points),
        Err(PipelineError::UnsupportedByBackend {
            feature: "retain_scores",
            backend: "streaming",
        })
    ));
    let mut sampled = MdpQuery::builder().training_sample_size(10).build().unwrap();
    assert!(matches!(
        sampled.execute(&Executor::streaming(), &points),
        Err(PipelineError::UnsupportedByBackend {
            feature: "training_sample_size",
            ..
        })
    ));
    // Transformer chains cannot run point-at-a-time in a streaming session.
    let windowed = MdpQuery::builder()
        .transform(Box::new(MapTransformer::new(|p: Point| p)))
        .build()
        .unwrap();
    assert!(matches!(
        windowed.into_streaming(&StreamingOptions::default()),
        Err(PipelineError::UnsupportedByBackend {
            feature: "transformer chain",
            ..
        })
    ));
    // Thresholds no executor can honour are refused by every batch
    // executor before it reads a row, naming the field, and by the builder.
    let mut bad = vec![
        (
            "training_sample_size",
            AnalysisConfig {
                training_sample_size: Some(0),
                ..AnalysisConfig::default()
            },
        ),
        (
            "min_risk_ratio",
            AnalysisConfig {
                explanation: ExplanationConfig::new(0.01, f64::NAN),
                ..AnalysisConfig::default()
            },
        ),
    ];
    for min_support in [2.0, -1.0, f64::NAN] {
        bad.push((
            "min_support",
            AnalysisConfig {
                explanation: ExplanationConfig::new(min_support, 3.0),
                ..AnalysisConfig::default()
            },
        ));
    }
    for (field, analysis) in bad {
        let names_field = |result: Result<MdpReport, PipelineError>| {
            matches!(result, Err(PipelineError::InvalidConfiguration(message))
                if message.contains(field))
        };
        for executor in [
            Executor::OneShot,
            Executor::Coordinated { partitions: 2 },
            Executor::NaivePartitioned { partitions: 2 },
        ] {
            let result = MdpQuery::new(analysis.clone()).execute(&executor, &points);
            assert!(names_field(result), "{field} on {}", executor.name());
        }
    }
    assert!(MdpQuery::builder().training_sample_size(0).build().is_err());
}

#[test]
fn every_backend_consumes_the_same_ingestor_fed_query() {
    let points = workload(6_000);
    let executors = [
        Executor::OneShot,
        Executor::Coordinated { partitions: 4 },
        Executor::NaivePartitioned { partitions: 4 },
        Executor::streaming(),
    ];
    for executor in &executors {
        let mut query = MdpQuery::builder()
            .explanation(ExplanationConfig::new(0.01, 3.0))
            .attribute_names(vec!["device_id".to_string(), "firmware".to_string()])
            .build()
            .unwrap();
        let mut source = VecIngestor::new(points.clone(), 777);
        let report = query.execute_ingest(executor, &mut source).unwrap();
        assert_eq!(report.num_points, 6_000, "{} lost points", executor.name());
        assert!(
            report.num_outliers > 0,
            "{} found no outliers",
            executor.name()
        );
    }
}

/// A source that yields 500 rows, an empty batch, then 500 more.
struct GappedIngestor {
    batches: std::vec::IntoIter<Vec<Point>>,
}

impl Ingestor for GappedIngestor {
    fn next_batch(&mut self) -> Result<Option<Vec<Point>>, PipelineError> {
        Ok(self.batches.next())
    }
}

#[test]
fn an_empty_batch_mid_stream_changes_no_columnar_report() {
    let points = workload(1_000);
    let build = || {
        MdpQuery::builder()
            .explanation(ExplanationConfig::new(0.01, 3.0))
            .attribute_names(vec!["device_id".to_string(), "firmware".to_string()])
            .retain_scores()
            .build()
            .unwrap()
    };
    let bytes = |report: MdpReport| macrobase::core::wire::report_to_string(&report);
    let expected = bytes(build().execute(&Executor::OneShot, &points).unwrap());
    for executor in [Executor::OneShot, Executor::Coordinated { partitions: 3 }] {
        let mut source = GappedIngestor {
            batches: vec![points[..500].to_vec(), Vec::new(), points[500..].to_vec()].into_iter(),
        };
        let report = build().execute_ingest(&executor, &mut source).unwrap();
        assert_eq!(bytes(report), expected, "{}", executor.name());
    }
}

/// `n` points of `dim` metrics over two attribute columns, with every 100th
/// point a planted extreme on `device_bad` and every 250th a modest bump on
/// `device_rule` that only a rule above 13 catches.
fn planted(n: usize, dim: usize) -> Vec<Point> {
    (0..n)
        .map(|i| {
            let (value, device) = if i % 100 == 0 {
                (400.0, "device_bad".to_string())
            } else if i % 250 == 7 {
                (14.0, "device_rule".to_string())
            } else {
                (10.0 + (i % 9) as f64 * 0.2, format!("device_{}", i % 60))
            };
            let metrics = (0..dim).map(|d| value + d as f64 * (i % 5) as f64 * 0.1).collect();
            Point::new(metrics, vec![device, format!("fw_{}", i % 3)])
        })
        .collect()
}

/// One query's report through every batch entry point, as wire bytes with
/// the trace stripped, each labelled with the entry point that made it.
fn reports_through_every_entry_point(
    build: &dyn Fn() -> MdpQuery,
    points: &[Point],
) -> Vec<(String, String)> {
    use macrobase::core::operator::ColumnarInput;
    use macrobase::core::wire::report_to_string;
    let bytes = |mut report: MdpReport| {
        report.trace = None;
        report_to_string(&report)
    };
    let mut reports = vec![(
        "execute(OneShot)".to_string(),
        bytes(build().execute(&Executor::OneShot, points).unwrap()),
    )];
    for batch_size in [1, 777] {
        for executor in [Executor::OneShot, Executor::Coordinated { partitions: 3 }] {
            let mut source = VecIngestor::new(points.to_vec(), batch_size);
            let report = build().execute_ingest(&executor, &mut source).unwrap();
            reports.push((
                format!("execute_ingest({}), batches of {batch_size}", executor.name()),
                bytes(report),
            ));
        }
    }
    let query = build();
    let model = query.train(points).unwrap();
    reports.push((
        "train + execute_with_model".to_string(),
        bytes(query.execute_with_model(&model, points).unwrap()),
    ));
    let mut input =
        ColumnarInput::from_points(query.analysis(), &Executor::OneShot, points).unwrap();
    let model = query.train_columns(&input.batch).unwrap();
    reports.push((
        "from_points + train_columns + execute_columns_with_model".to_string(),
        bytes(query.execute_columns_with_model(&model, &mut input).unwrap()),
    ));
    // Zero partitions means one per pool worker.
    for partitions in 0..=8 {
        let executor = Executor::Coordinated { partitions };
        reports.push((
            format!("execute(Coordinated {{ partitions: {partitions} }})"),
            bytes(build().execute(&executor, points).unwrap()),
        ));
    }
    reports
}

#[test]
fn every_batch_entry_point_gives_the_same_report_bytes() {
    fn rule() -> RuleClassifier {
        RuleClassifier::single(0, Comparison::GreaterThan, 13.0)
    }
    let base = || {
        MdpQuery::builder()
            .explanation(ExplanationConfig::new(0.01, 3.0))
            .attribute_names(vec!["device_id".to_string(), "firmware".to_string()])
    };
    // Each case: its name, the metric dimensionality, and what it adds to
    // the base query.
    type Shape = fn(MdpQueryBuilder) -> MdpQueryBuilder;
    let cases: [(&str, usize, Shape); 8] = [
        ("MAD", 1, |q| q),
        ("forced ZScore", 1, |q| q.estimator(EstimatorKind::ZScore)),
        ("2-d Auto (MCD)", 2, |q| q),
        ("hybrid rule", 1, |q| q.supervised_rule(rule())),
        ("rule-only", 1, |q| q.without_unsupervised().supervised_rule(rule())),
        ("skip_explanation", 1, |q| q.skip_explanation()),
        ("retain_scores + retain_outlier_rows", 1, |q| {
            q.retain_scores().retain_outlier_rows()
        }),
        ("traced", 1, |q| q.traced()),
    ];
    for (case, dim, shape) in cases {
        let points = planted(3_000, dim);
        let reports = reports_through_every_entry_point(&|| shape(base()).build().unwrap(), &points);
        let (reference_name, reference) = &reports[0];
        let report = macrobase::core::wire::report_from_str(reference).unwrap();
        // 1% of the rows are planted extremes; the 99th-percentile cut (and
        // a rule above 13) flags them, and not many more.
        assert!((30..150).contains(&report.num_outliers), "{case}: {} outliers", report.num_outliers);
        let names_planted = report
            .explanations
            .iter()
            .any(|e| e.attributes.iter().any(|a| a.contains("device_bad")));
        assert_eq!(names_planted, case != "skip_explanation", "{case}");
        if case == "retain_scores + retain_outlier_rows" {
            assert_eq!(report.scores.len(), 3_000);
            assert_eq!(report.outlier_rows.len(), report.num_outliers);
            // A row is an outlier exactly when its score reaches the cutoff.
            let cutoff = report.score_cutoff.unwrap();
            let at_or_above: Vec<usize> =
                (0..report.scores.len()).filter(|&r| report.scores[r] >= cutoff).collect();
            assert_eq!(report.outlier_rows, at_or_above, "{case}");
        }
        for (name, bytes) in &reports[1..] {
            assert_eq!(bytes, reference, "{case}: {name} differs from {reference_name}");
        }
    }
}

/// A NaN or infinite metric fails every batch path with the error an
/// uncapped fit raises: a capped fit never reads most rows and a
/// pre-trained model none of the batch, yet neither may score such a row.
#[test]
fn non_finite_metrics_fail_every_batch_and_streaming_path_as_the_uncapped_fit_does() {
    let outcome = |result: Result<MdpReport, PipelineError>| match result {
        Ok(report) => format!(
            "Ok: {} outliers, cutoff {:?}",
            report.num_outliers, report.score_cutoff
        ),
        Err(error) => error.to_string(),
    };
    let clean = planted(10_000, 1);
    let poisoned = |value: f64, every: usize| {
        let mut points = clean.clone();
        for point in points.iter_mut().skip(1).step_by(every) {
            point.metrics[0] = value;
        }
        points
    };
    let capped = || MdpQuery::builder().training_sample_size(100).build().unwrap();
    let clean_model = MdpQuery::with_defaults().train(&clean).unwrap();
    for points in [
        poisoned(f64::NAN, 10_000),
        poisoned(f64::NAN, 7),
        poisoned(f64::INFINITY, 10_000),
    ] {
        let expected = outcome(MdpQuery::with_defaults().execute(&Executor::OneShot, &points));
        assert!(expected.contains("non-finite"), "{expected}");
        for executor in [Executor::OneShot, Executor::Coordinated { partitions: 3 }] {
            let capped_report = capped().execute(&executor, &points);
            assert_eq!(outcome(capped_report), expected, "capped {}", executor.name());
        }
        let with_model = MdpQuery::with_defaults().execute_with_model(&clean_model, &points);
        assert_eq!(outcome(with_model), expected, "execute_with_model");
        let streaming = MdpQuery::with_defaults().execute(&Executor::streaming(), &points);
        assert_eq!(outcome(streaming), expected, "streaming");
    }
}

#[test]
fn naive_partitioned_report_carries_partition_detail_and_no_global_cutoff() {
    let points = workload(8_000);
    let mut query = MdpQuery::builder()
        .explanation(ExplanationConfig::new(0.01, 3.0))
        .attribute_names(vec!["device_id".to_string(), "firmware".to_string()])
        .retain_scores()
        .build()
        .unwrap();
    let report = query
        .execute(&Executor::NaivePartitioned { partitions: 4 }, &points)
        .unwrap();
    assert!(report.score_cutoff.is_none());
    // Retained scores concatenate across partitions in input order.
    assert_eq!(report.scores.len(), 8_000);
    let partitions = report.partition_reports.as_ref().unwrap();
    assert_eq!(partitions.len(), 4);
    assert!(partitions.iter().all(|p| p.score_cutoff.is_some()));
    assert_eq!(
        partitions.iter().map(|p| p.scores.len()).sum::<usize>(),
        8_000
    );
}
