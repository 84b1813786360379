//! Exponentially weighted streaming (EWS) MDP execution (Section 3.2's
//! "streaming queries", assembled from the ADR-trained classifier of
//! Section 4.2 and the AMC/M-CPS streaming explainer of Section 5.3).
//!
//! [`StreamingSession`] is the streaming engine: it observes points one at a
//! time and renders reports mid-stream, for adaptivity experiments and live
//! monitoring, and [`Executor::Streaming`](crate::query::Executor) runs a
//! session to the end of its input. Build sessions with
//! [`MdpQuery::into_streaming`](crate::query::MdpQuery::into_streaming).

use crate::executor::{render_explanations, QueryEstimator};
use crate::query::{AnalysisConfig, EstimatorKind, StreamingOptions};
use crate::types::{MdpReport, Point, RenderedExplanation};
use crate::{PipelineError, Result};
use mb_classify::rule::{label_or, RuleClassifier};
use mb_classify::streaming::{StreamingClassifier, StreamingClassifierConfig};
use mb_classify::Label;
use mb_explain::encoder::AttributeEncoder;
use mb_explain::streaming::{StreamingExplainer, StreamingExplainerConfig};
use mb_obs::{stage, MetricRegistry, QueryTrace, StageTimer, StageTrace};
use mb_stats::StatsError;

/// An incremental streaming execution of an
/// [`MdpQuery`](crate::query::MdpQuery): observe points one at a time,
/// force decay boundaries, and render reports mid-stream (the continuously
/// maintained view of Section 5.3). It is the streaming engine itself: an
/// ADR-trained classifier, the AMC + M-CPS explainer and per-point decay
/// bookkeeping. Obtain one with
/// [`MdpQuery::into_streaming`](crate::query::MdpQuery::into_streaming);
/// for run-to-completion streaming over an ingestor use
/// [`Executor::Streaming`](crate::query::Executor) instead.
pub struct StreamingSession {
    estimator: EstimatorKind,
    classifier_config: StreamingClassifierConfig,
    decay_period: u64,
    skip_explanation: bool,
    retain_outlier_rows: bool,
    rule: Option<RuleClassifier>,
    unsupervised: bool,
    /// Metric dimensionality locked in by the first accepted point. Later
    /// points are validated against it *before* any session state mutates,
    /// so a rejected point leaves counters, reservoirs, and explainer state
    /// untouched and the session remains usable.
    dim: Option<usize>,
    /// The classifier, built for the first accepted point's dimensionality;
    /// `None` until then, and always for a rule-only query.
    classifier: Option<StreamingClassifier<QueryEstimator>>,
    explainer: StreamingExplainer,
    encoder: AttributeEncoder,
    /// Reused per-point item buffer: the hot observe loop encodes into this
    /// instead of allocating a fresh `Vec<Item>` per point.
    encode_scratch: Vec<mb_fpgrowth::Item>,
    points_seen: u64,
    outliers_seen: u64,
    outlier_rows: Vec<usize>,
    points_since_decay: u64,
    /// Telemetry switch mirrored from [`AnalysisConfig::obs`]. When off
    /// (the default) the observe loop takes no clock reads and the report
    /// carries `trace: None`.
    obs_enabled: bool,
    /// Session-owned metric registry: per-tick retrain and decay latency
    /// histograms.
    metrics: MetricRegistry,
    /// Accumulated wall time inside [`StreamingSession::observe`].
    observe_wall_ns: u64,
    /// The `explain` span: wall time and count of the explanation renders
    /// [`StreamingSession::report`] has done, with the latest render's
    /// decayed outlier count in and explanations out.
    explain_span: StageTrace,
}

impl StreamingSession {
    pub(crate) fn new(
        analysis: &AnalysisConfig,
        options: &StreamingOptions,
        rule: Option<RuleClassifier>,
        unsupervised: bool,
    ) -> Self {
        let explainer = StreamingExplainer::new(StreamingExplainerConfig {
            explanation: analysis.explanation,
            decay_rate: options.decay_rate,
            amc_stable_size: options.reservoir_size,
            amc_maintenance_period: options.reservoir_size as u64,
        });
        let encoder = crate::executor::encoder_for(analysis);
        StreamingSession {
            estimator: analysis.estimator,
            classifier_config: StreamingClassifierConfig {
                input_reservoir_size: options.reservoir_size,
                score_reservoir_size: options.reservoir_size,
                decay_rate: options.decay_rate,
                retrain_period: options.retrain_period,
                target_percentile: analysis.target_percentile,
                threshold_refresh_period: (options.retrain_period / 10).max(1),
                warmup_points: 100,
                seed: options.seed,
            },
            decay_period: options.decay_period,
            skip_explanation: analysis.skip_explanation,
            retain_outlier_rows: analysis.retain_outlier_rows,
            rule,
            unsupervised,
            dim: None,
            classifier: None,
            explainer,
            encoder,
            encode_scratch: Vec::new(),
            points_seen: 0,
            outliers_seen: 0,
            outlier_rows: Vec::new(),
            points_since_decay: 0,
            obs_enabled: analysis.obs.is_enabled(),
            metrics: MetricRegistry::new(),
            observe_wall_ns: 0,
            explain_span: StageTrace {
                stage: stage::EXPLAIN.to_string(),
                wall_ns: 0,
                rows_in: 0,
                rows_out: 0,
                batches: 0,
            },
        }
    }

    /// Points since the model last (re)trained — 0 right after a retrain,
    /// so a tick ending at 0 is the tick that retrained.
    fn model_staleness(&self) -> u64 {
        self.classifier
            .as_ref()
            .map_or(0, StreamingClassifier::points_since_retrain)
    }

    /// Observe one point, returning its label.
    ///
    /// A point whose metric dimensionality disagrees with the first accepted
    /// point is rejected with a typed error *before* any session state
    /// mutates — counters, reservoirs, and explainer state are untouched and
    /// the session remains usable. So is a point with a NaN or infinite
    /// metric when the query has an unsupervised stage, with the error the
    /// batch executors return for such a metric; rule-only queries accept
    /// it, as the batch executors do.
    pub fn observe(&mut self, point: &Point) -> Result<Label> {
        // Validate before any counter or reservoir mutates: a rejected point
        // must leave the session exactly as it was.
        let dim = point.dimension();
        match self.dim {
            Some(expected) if expected != dim => {
                return Err(PipelineError::InconsistentDimensions {
                    expected,
                    actual: dim,
                });
            }
            None if dim == 0 => {
                return Err(PipelineError::InvalidConfiguration(
                    "streaming points need at least one metric".to_string(),
                ));
            }
            _ => {}
        }
        if self.unsupervised && !point.metrics.iter().all(|v| v.is_finite()) {
            return Err(StatsError::NonFinite.into());
        }
        self.dim = Some(dim);
        let tick_start = StageTimer::start_if(self.obs_enabled);
        self.points_seen += 1;
        self.points_since_decay += 1;

        let mut label = Label::Inlier;
        if self.unsupervised {
            if self.classifier.is_none() {
                let estimator = QueryEstimator::new(self.estimator, dim);
                self.classifier =
                    Some(StreamingClassifier::new(estimator, self.classifier_config)?);
            }
            // The branch above guarantees a classifier; the `if let` (rather
            // than an `expect`) keeps this executor hot path panic-free.
            if let Some(classifier) = self.classifier.as_mut() {
                label = classifier.observe(&point.metrics).label;
            }
        }
        if let Some(rule) = &self.rule {
            label = label_or(label, rule.classify(&point.metrics));
        }
        if label == Label::Outlier {
            self.outliers_seen += 1;
            if self.retain_outlier_rows {
                self.outlier_rows.push((self.points_seen - 1) as usize);
            }
        }

        if !self.skip_explanation {
            self.encoder
                .encode_point_into(&point.attributes, &mut self.encode_scratch);
            self.explainer
                .observe(&self.encode_scratch, label == Label::Outlier);
        }

        if self.points_since_decay >= self.decay_period {
            self.points_since_decay = 0;
            self.on_period_boundary();
        }
        if tick_start.is_running() {
            let tick_ns = tick_start.elapsed_ns();
            self.observe_wall_ns = self.observe_wall_ns.saturating_add(tick_ns);
            // The classifier resets its staleness counter inside a retrain,
            // so a tick that ends at staleness 0 is the tick that paid for
            // one — attribute its full latency to the retrain histogram.
            if self.unsupervised && self.model_staleness() == 0 {
                self.metrics.record_ns("retrain_ns", tick_ns);
            }
        }
        Ok(label)
    }

    /// Observe a batch of points, returning how many of them were labeled
    /// outliers. An empty batch is a no-op and returns `Ok(0)`. On a typed
    /// error the batch stops at the offending point: points observed before
    /// it remain counted, the offending point leaves no state behind, and
    /// the session can keep feeding.
    pub fn feed(&mut self, points: &[Point]) -> Result<u64> {
        let mut outliers = 0;
        for point in points {
            if self.observe(point)? == Label::Outlier {
                outliers += 1;
            }
        }
        Ok(outliers)
    }

    /// Force a decay period boundary (also triggered automatically every
    /// `decay_period` points).
    pub fn on_period_boundary(&mut self) {
        let decay_start = StageTimer::start_if(self.obs_enabled);
        if let Some(classifier) = self.classifier.as_mut() {
            classifier.on_period_boundary();
        }
        if !self.skip_explanation {
            self.explainer.on_window_boundary();
        }
        if decay_start.is_running() {
            self.metrics.record_ns("decay_ns", decay_start.elapsed_ns());
        }
    }

    /// Total points observed so far.
    pub fn points_seen(&self) -> u64 {
        self.points_seen
    }

    /// Total points labeled outlier so far.
    pub fn outliers_seen(&self) -> u64 {
        self.outliers_seen
    }

    /// Whether the underlying model has completed its warm-up training
    /// (always true for rule-only queries).
    pub fn is_trained(&self) -> bool {
        !self.unsupervised || self.classifier.as_ref().is_some_and(|c| c.is_trained())
    }

    /// Render the current explanations and counters as a report.
    pub fn report(&mut self) -> MdpReport {
        let explain_start = StageTimer::start_if(self.obs_enabled && !self.skip_explanation);
        let explanations: Vec<RenderedExplanation> = if self.skip_explanation {
            Vec::new()
        } else {
            render_explanations(&self.encoder, self.explainer.explain())
        };
        if explain_start.is_running() {
            let explain_ns = explain_start.elapsed_ns();
            self.metrics.record_ns("explain_ns", explain_ns);
            let span = &mut self.explain_span;
            span.wall_ns = span.wall_ns.saturating_add(explain_ns);
            span.rows_in = self.explainer.outlier_count().round() as u64;
            span.rows_out = explanations.len() as u64;
            span.batches += 1;
        }
        let cutoff = self.classifier.as_mut().and_then(|c| c.current_cutoff());
        MdpReport {
            explanations,
            num_points: self.points_seen as usize,
            num_outliers: self.outliers_seen as usize,
            score_cutoff: cutoff,
            scores: Vec::new(),
            outlier_rows: self.outlier_rows.clone(),
            partition_reports: None,
            trace: self.trace(),
        }
    }

    /// Render the session's accumulated telemetry as a [`QueryTrace`] —
    /// `None` when telemetry is off. Reports can be rendered mid-stream, so
    /// this snapshots rather than consumes: the session keeps accumulating.
    fn trace(&self) -> Option<QueryTrace> {
        if !self.obs_enabled {
            return None;
        }
        let mut registry = self.metrics.clone();
        registry.add("points", self.points_seen);
        registry.add("outliers", self.outliers_seen);
        registry.set_gauge("model_staleness", self.model_staleness() as f64);
        // Two spans: a streaming session scores point-at-a-time, so the
        // whole observe loop is its `score` stage; every report rendered so
        // far, this one included, is its `explain` stage.
        let mut stages = vec![StageTrace {
            stage: stage::SCORE.to_string(),
            wall_ns: self.observe_wall_ns,
            rows_in: self.points_seen,
            rows_out: self.outliers_seen,
            batches: 1,
        }];
        if self.explain_span.batches > 0 {
            stages.push(self.explain_span.clone());
        }
        Some(QueryTrace {
            executor: "streaming".to_string(),
            partitions: 1,
            stages,
            counters: registry.counter_entries(),
            gauges: registry.gauge_entries(),
            histograms: registry.histogram_snapshots(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Executor, MdpQuery, MdpQueryBuilder};
    use mb_explain::ExplanationConfig;
    use mb_ingest::synthetic::{device_workload, DeviceWorkloadConfig};

    fn test_options() -> StreamingOptions {
        StreamingOptions {
            reservoir_size: 2_000,
            decay_rate: 0.05,
            decay_period: 10_000,
            retrain_period: 5_000,
            ..StreamingOptions::default()
        }
    }

    fn test_query() -> MdpQueryBuilder {
        MdpQuery::builder()
            .explanation(ExplanationConfig::new(0.01, 3.0))
            .attribute_names(vec!["device_id".to_string()])
    }

    #[test]
    fn streaming_recovers_misbehaving_devices() {
        let workload = device_workload(&DeviceWorkloadConfig {
            num_points: 50_000,
            num_devices: 200,
            outlying_device_fraction: 0.01,
            ..DeviceWorkloadConfig::default()
        });
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        for r in &workload.records {
            let point = Point::new(r.record.metrics.clone(), r.record.attributes.clone());
            session.observe(&point).unwrap();
        }
        assert!(session.is_trained());
        assert!(session.outliers_seen() > 0);
        let report = session.report();
        let reported: Vec<String> = report
            .explanations
            .iter()
            .flat_map(|e| e.attributes.clone())
            .collect();
        for device in &workload.outlying_devices {
            assert!(
                reported.iter().any(|r| r.ends_with(device.as_str())),
                "device {device} missing from {reported:?}"
            );
        }
    }

    #[test]
    fn report_before_any_points_is_empty() {
        let mut session = MdpQuery::with_defaults()
            .into_streaming(&StreamingOptions::default())
            .unwrap();
        let report = session.report();
        assert_eq!(report.num_points, 0);
        assert!(report.explanations.is_empty());
        assert!(report.score_cutoff.is_none());
    }

    #[test]
    fn skip_explanation_mode_reports_counts_only() {
        let mut query = test_query().skip_explanation().build().unwrap();
        let points: Vec<Point> = (0..20_000)
            .map(|i| {
                let value = if i % 1_000 == 0 {
                    500.0
                } else {
                    10.0 + (i % 7) as f64
                };
                Point::simple(value, format!("d{}", i % 100))
            })
            .collect();
        let report = query
            .execute(
                &Executor::Streaming {
                    options: test_options(),
                },
                &points,
            )
            .unwrap();
        assert!(report.explanations.is_empty());
        assert!(report.num_outliers > 0);
        assert_eq!(report.num_points, 20_000);
    }

    #[test]
    fn multivariate_streaming_dispatches_to_mcd() {
        let mut options = test_options();
        options.reservoir_size = 500;
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&options)
            .unwrap();
        for i in 0..5_000 {
            let point = Point::new(
                vec![10.0 + (i % 5) as f64 * 0.1, 20.0 + (i % 3) as f64 * 0.1],
                vec![format!("host_{}", i % 10)],
            );
            session.observe(&point).unwrap();
        }
        assert!(session.is_trained());
        // An extreme multivariate point is flagged.
        let label = session
            .observe(&Point::new(
                vec![500.0, 500.0],
                vec!["host_bad".to_string()],
            ))
            .unwrap();
        assert_eq!(label, Label::Outlier);
    }

    #[test]
    fn explanations_favor_recent_behaviour_under_decay() {
        let mut options = test_options();
        options.decay_rate = 0.5;
        options.decay_period = 5_000;
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&options)
            .unwrap();
        // Phase 1: device_old misbehaves.
        for i in 0..20_000 {
            let (value, device) = if i % 100 == 0 {
                (500.0, "device_old".to_string())
            } else {
                (10.0 + (i % 7) as f64 * 0.1, format!("d{}", i % 50))
            };
            session.observe(&Point::simple(value, device)).unwrap();
        }
        // Phase 2: device_new misbehaves instead, for much longer.
        for i in 0..40_000 {
            let (value, device) = if i % 100 == 0 {
                (500.0, "device_new".to_string())
            } else {
                (10.0 + (i % 7) as f64 * 0.1, format!("d{}", i % 50))
            };
            session.observe(&Point::simple(value, device)).unwrap();
        }
        let report = session.report();
        let count_for = |needle: &str| {
            report
                .explanations
                .iter()
                .filter(|e| e.attributes.iter().any(|a| a.contains(needle)))
                .map(|e| e.stats.outlier_count)
                .fold(0.0, f64::max)
        };
        assert!(
            count_for("device_new") > count_for("device_old"),
            "decay should favor the recent offender: {report:?}"
        );
    }

    #[test]
    fn rule_ored_into_streaming_labels() {
        // A value far below the distribution is invisible to the MAD-percentile
        // classifier's upper tail but must be flagged by the rule.
        use mb_classify::rule::{Comparison, RuleClassifier};
        let mut session = test_query()
            .supervised_rule(RuleClassifier::single(0, Comparison::LessThan, 0.0))
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        for i in 0..2_000 {
            session
                .observe(&Point::simple(10.0 + (i % 7) as f64, "ok"))
                .unwrap();
        }
        let label = session.observe(&Point::simple(-5.0, "neg")).unwrap();
        assert_eq!(label, Label::Outlier);
    }

    #[test]
    fn session_survives_a_typed_error_with_state_untouched() {
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        for i in 0..1_000 {
            session
                .observe(&Point::simple(10.0 + (i % 7) as f64, format!("d{}", i % 10)))
                .unwrap();
        }
        let before = session.points_seen();

        // A point of the wrong dimensionality is a typed error...
        let err = session
            .observe(&Point::new(vec![1.0, 2.0], vec!["d0".to_string()]))
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::InconsistentDimensions {
                expected: 1,
                actual: 2
            }
        ));
        // ...that leaves no state behind: the offender was never counted.
        assert_eq!(session.points_seen(), before);

        // Feeding continues as if the bad point never arrived.
        let fed = session
            .feed(&[
                Point::simple(10.0, "d1"),
                Point::simple(11.0, "d2"),
            ])
            .unwrap();
        assert!(fed <= 2);
        assert_eq!(session.points_seen(), before + 2);

        // A mid-batch offender stops the batch but keeps its predecessors.
        let err = session
            .feed(&[
                Point::simple(10.0, "d3"),
                Point::new(Vec::new(), vec!["d4".to_string()]),
                Point::simple(12.0, "d5"),
            ])
            .unwrap_err();
        assert!(matches!(
            err,
            PipelineError::InconsistentDimensions {
                expected: 1,
                actual: 0
            }
        ));
        assert_eq!(session.points_seen(), before + 3);
    }

    #[test]
    fn a_non_finite_metric_is_rejected_and_leaves_no_trace() {
        let points: Vec<Point> = (0..12_000)
            .map(|i| {
                let value = if i % 150 == 0 { 400.0 } else { 10.0 + (i % 7) as f64 };
                Point::simple(value, format!("d{}", if i % 150 == 0 { 99 } else { i % 20 }))
            })
            .collect();
        let session = || test_query().build().unwrap().into_streaming(&test_options()).unwrap();
        let mut clean = session();
        clean.feed(&points).unwrap();

        // Poison points before the first accepted point, during warm-up and
        // mid-stream: each is the batch executors' error, and none is counted.
        let mut poisoned = session();
        let reject = |session: &mut StreamingSession, metrics: Vec<f64>| {
            let before = session.points_seen();
            let err = session
                .observe(&Point::new(metrics, vec!["d0".to_string()]))
                .unwrap_err();
            assert!(matches!(err, PipelineError::Stats(StatsError::NonFinite)), "{err}");
            assert_eq!(session.points_seen(), before);
        };
        // A two-wide poisoned first point does not lock in a dimensionality.
        reject(&mut poisoned, vec![f64::NAN, 1.0]);
        for (i, point) in points.iter().enumerate() {
            if [5, 500, 7_000].contains(&i) {
                for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                    reject(&mut poisoned, vec![bad]);
                }
            }
            poisoned.observe(point).unwrap();
        }
        assert_eq!(poisoned.points_seen(), 12_000);
        assert_eq!(poisoned.report(), clean.report());

        // A rule-only query has no estimator to poison and accepts the
        // point, as the batch executors do.
        use mb_classify::rule::{Comparison, RuleClassifier};
        let mut rule_only = test_query()
            .supervised_rule(RuleClassifier::single(0, Comparison::GreaterThan, 100.0))
            .without_unsupervised()
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        assert_eq!(rule_only.observe(&Point::simple(f64::NAN, "d0")).unwrap(), Label::Inlier);
        assert_eq!(rule_only.points_seen(), 1);
    }

    #[test]
    fn zero_dimensional_first_point_is_rejected() {
        let mut session = MdpQuery::with_defaults()
            .into_streaming(&StreamingOptions::default())
            .unwrap();
        let err = session
            .observe(&Point::new(Vec::new(), vec!["d0".to_string()]))
            .unwrap_err();
        assert!(matches!(err, PipelineError::InvalidConfiguration(_)));
        assert_eq!(session.points_seen(), 0);
        // The rejected point did not lock in a dimensionality.
        session.observe(&Point::simple(1.0, "d0")).unwrap();
        assert_eq!(session.points_seen(), 1);
    }

    #[test]
    fn empty_batch_feed_is_a_no_op() {
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        session.feed(&[]).unwrap();
        assert_eq!(session.points_seen(), 0);
        for i in 0..500 {
            session
                .observe(&Point::simple(10.0 + (i % 5) as f64, format!("d{}", i % 10)))
                .unwrap();
        }
        let before = session.report();
        assert_eq!(session.feed(&[]).unwrap(), 0);
        assert_eq!(session.points_seen(), 500);
        assert_eq!(session.report(), before);
    }

    #[test]
    fn report_is_stable_when_no_points_arrived_since_last_tick() {
        let mut session = test_query()
            .build()
            .unwrap()
            .into_streaming(&test_options())
            .unwrap();
        for i in 0..10_000 {
            let value = if i % 200 == 0 { 400.0 } else { 10.0 + (i % 7) as f64 };
            session
                .observe(&Point::simple(value, format!("d{}", i % 20)))
                .unwrap();
        }
        // Rendering is a snapshot of a continuously maintained view, not a
        // consuming drain: back-to-back reports with no intervening points
        // must be identical.
        let first = session.report();
        let second = session.report();
        assert_eq!(first, second);
        assert!(first.num_outliers > 0);
    }

    #[test]
    fn traced_report_adds_an_explain_span_and_changes_nothing_else() {
        let points: Vec<Point> = (0..12_000)
            .map(|i| {
                let value = if i % 150 == 0 { 400.0 } else { 10.0 + (i % 7) as f64 };
                Point::simple(value, format!("d{}", if i % 150 == 0 { 99 } else { i % 20 }))
            })
            .collect();
        let render = |traced: bool| {
            let builder = if traced { test_query().traced() } else { test_query() };
            let mut session = builder.build().unwrap().into_streaming(&test_options()).unwrap();
            session.feed(&points).unwrap();
            (session.report(), session.report())
        };
        let (plain, _) = render(false);
        let (mut first, second) = render(true);
        assert!(plain.trace.is_none());
        assert!(!plain.explanations.is_empty());

        let trace = first.trace.take().expect("trace populated");
        assert_eq!(
            crate::wire::report_to_string(&first),
            crate::wire::report_to_string(&plain)
        );
        let span = trace.stage(stage::EXPLAIN).expect("explain span");
        assert_eq!(span.batches, 1);
        assert_eq!(span.rows_out as usize, plain.explanations.len());
        assert!(span.rows_in > 0 && span.rows_in <= plain.num_outliers as u64);
        assert!(span.wall_ns > 0);
        assert_eq!(trace.histogram("explain_ns").expect("explain histogram").count, 1);
        // The span accumulates over a session's reports, like `score` does
        // over its points.
        let again = second.trace.expect("trace populated");
        assert_eq!(again.stage(stage::EXPLAIN).unwrap().batches, 2);
        assert_eq!(again.histogram("explain_ns").unwrap().count, 2);
    }
}
