#![warn(clippy::unwrap_used, clippy::expect_used)]
//! The batch execution core behind the [`Executor`] backends.
//!
//! One-shot execution is one engine over a
//! [`ColumnarInput`]: `train_model` fits the query's estimator, scores every
//! row once and cuts the percentile threshold; a shared tail labels the rows
//! (OR-ing in the query's supervised rule), explains them through
//! `explain_encoded`, and builds the report in `assemble_report`. Running
//! against a pre-trained [`FittedModel`] is the same tail after scoring
//! alone, so a batch scored against a model trained on itself reproduces the
//! one-shot report byte for byte.
//!
//! `Executor::Coordinated` runs this one-shot engine too: its invariants (one
//! shared model, one global threshold, global support counts) are what the
//! one-shot query already keeps, and the engine's own kernels (the sharded
//! encode, FastMCD's starts and distance pass, `explain_labeled`'s shards)
//! are where batch parallelism lives, so its partition count changes neither
//! the result nor the work. The naïve engine runs the one-shot engine per
//! partition and unions the rendered results.

use crate::operator::{check_columns, ColumnarInput};
use crate::parallel::{partition_chunks, resolve_num_partitions};
use crate::query::{AnalysisConfig, EstimatorKind, Executor};
use crate::types::{MdpReport, Point, RenderedExplanation};
use crate::{PipelineError, Result};
use mb_classify::batch::{BatchClassifier, BatchClassifierConfig};
use mb_classify::rule::{label_or, RuleClassifier};
use mb_classify::threshold::StaticThreshold;
use mb_classify::{Classification, Label};
use mb_explain::batch::BatchExplainer;
use mb_explain::encoder::AttributeEncoder;
use mb_explain::risk_ratio::rank_explanations;
use mb_explain::{Explanation, ExplanationConfig, ItemBatch};
use mb_obs::stage::Stage;
use mb_obs::{StageTimer, TraceBuilder};
use mb_stats::mad::MadEstimator;
use mb_stats::mcd::McdEstimator;
use mb_stats::zscore::ZScoreEstimator;
use mb_stats::{Estimator, StatsError};
use std::collections::BTreeMap;

/// Fold the global pool's activity delta since `before` into a trace's
/// registry (see [`mb_pool::Pool::total_stats`]). `before` is `Some` only
/// for traced top-level executions — per-partition sub-traces skip pool
/// deltas, which would otherwise double-count concurrent partitions.
fn record_pool_delta(trace: &mut TraceBuilder, before: Option<mb_pool::WorkerStats>) {
    let Some(before) = before else { return };
    let pool = mb_pool::global();
    let delta = pool.total_stats().since(&before);
    let registry = trace.registry();
    registry.add("pool_tasks", delta.tasks_executed);
    registry.add("pool_steals", delta.tasks_stolen);
    registry.add("pool_injector_pops", delta.injector_pops);
    registry.add("pool_idle_parks", delta.idle_parks);
    registry.set_gauge("pool_workers", pool.num_threads() as f64);
}

/// Snapshot the global pool's counters when tracing is on.
pub(crate) fn pool_snapshot(trace: &TraceBuilder) -> Option<mb_pool::WorkerStats> {
    trace
        .is_enabled()
        .then(|| mb_pool::global().total_stats())
}

/// The classifier/rule/flags slice of a query, borrowed for an execution.
#[derive(Clone, Copy)]
pub(crate) struct QueryParts<'a> {
    pub analysis: &'a AnalysisConfig,
    pub rule: Option<&'a RuleClassifier>,
    pub unsupervised: bool,
}

/// Validate that all points share one non-zero metric dimensionality;
/// returns it.
pub(crate) fn check_dimensions(points: &[Point]) -> Result<usize> {
    let dim = leading_dimension(points)?;
    for p in points {
        if p.dimension() != dim {
            return Err(PipelineError::InconsistentDimensions {
                expected: dim,
                actual: p.dimension(),
            });
        }
    }
    Ok(dim)
}

/// The first point's metric dimensionality, which every other point must
/// share: an error for no points or a first point without metrics.
pub(crate) fn leading_dimension(points: &[Point]) -> Result<usize> {
    let first = points.first().ok_or(PipelineError::EmptyInput)?;
    match first.dimension() {
        0 => Err(PipelineError::InvalidConfiguration(
            "points must have at least one metric".to_string(),
        )),
        dim => Ok(dim),
    }
}

/// Copy every point's metrics into one contiguous row-major buffer — the
/// layout the flat classifier/estimator paths consume. One allocation for
/// the whole batch instead of one clone per point.
pub(crate) fn flatten_metrics(points: &[Point], dim: usize) -> Vec<f64> {
    let mut flat = Vec::with_capacity(points.len() * dim);
    for p in points {
        flat.extend_from_slice(&p.metrics);
    }
    flat
}

/// The attribute encoder a query's analysis configuration asks for (named
/// columns when given, anonymous otherwise). Shared by every backend so the
/// selection rule cannot drift between batch and streaming engines.
pub(crate) fn encoder_for(analysis: &AnalysisConfig) -> AttributeEncoder {
    if analysis.attribute_names.is_empty() {
        AttributeEncoder::new()
    } else {
        AttributeEncoder::with_column_names(analysis.attribute_names.clone())
    }
}

/// Rank explanations and render their items against the dictionary that
/// minted them — how every engine, batch and streaming, turns mined
/// itemsets into a report's explanations.
pub(crate) fn render_explanations(
    encoder: &AttributeEncoder,
    mut explanations: Vec<Explanation>,
) -> Vec<RenderedExplanation> {
    rank_explanations(&mut explanations);
    explanations
        .into_iter()
        .map(|e| RenderedExplanation {
            attributes: encoder.describe(&e.items),
            items: e.items,
            stats: e.stats,
        })
        .collect()
}

/// Explain a labelled columnar batch and render it against its encoder.
fn explain_encoded(
    config: ExplanationConfig,
    encoder: &AttributeEncoder,
    batch: &ItemBatch,
    outlier: impl Fn(usize) -> bool + Sync,
) -> Vec<RenderedExplanation> {
    render_explanations(encoder, BatchExplainer::new(config).explain_labeled(batch, outlier))
}

/// The estimators a query can resolve to, behind one dispatch: the batch
/// engines fit and score it inside a [`BatchClassifier`], the streaming
/// engine retrains it inside a `StreamingClassifier`. Each call forwards to
/// the estimator's own flat entry point, so MCD keeps its pool-scattered
/// fit and distance pass.
#[derive(Debug, Clone)]
pub(crate) enum QueryEstimator {
    Mad(MadEstimator),
    Mcd(McdEstimator),
    ZScore(ZScoreEstimator),
}

impl QueryEstimator {
    /// The untrained estimator `kind` resolves to for `dim`-wide metrics.
    pub(crate) fn new(kind: EstimatorKind, dim: usize) -> Self {
        match kind.resolve(dim) {
            EstimatorKind::Mad => QueryEstimator::Mad(MadEstimator::new()),
            EstimatorKind::Mcd => QueryEstimator::Mcd(McdEstimator::with_defaults()),
            EstimatorKind::ZScore => QueryEstimator::ZScore(ZScoreEstimator::new()),
            EstimatorKind::Auto => unreachable!("resolve() eliminates Auto"),
        }
    }
}

impl Estimator for QueryEstimator {
    fn train_flat(&mut self, flat: &[f64], dim: usize) -> mb_stats::Result<()> {
        match self {
            QueryEstimator::Mad(e) => e.train_flat(flat, dim),
            QueryEstimator::Mcd(e) => e.train_flat(flat, dim),
            QueryEstimator::ZScore(e) => e.train_flat(flat, dim),
        }
    }

    fn score(&self, metrics: &[f64]) -> mb_stats::Result<f64> {
        match self {
            QueryEstimator::Mad(e) => e.score(metrics),
            QueryEstimator::Mcd(e) => e.score(metrics),
            QueryEstimator::ZScore(e) => e.score(metrics),
        }
    }

    fn score_batch_flat(&self, flat: &[f64], dim: usize) -> mb_stats::Result<Vec<f64>> {
        match self {
            QueryEstimator::Mad(e) => e.score_batch_flat(flat, dim),
            QueryEstimator::Mcd(e) => e.score_batch_flat(flat, dim),
            QueryEstimator::ZScore(e) => e.score_batch_flat(flat, dim),
        }
    }

    fn dimension(&self) -> Option<usize> {
        match self {
            QueryEstimator::Mad(e) => e.dimension(),
            QueryEstimator::Mcd(e) => e.dimension(),
            QueryEstimator::ZScore(e) => e.dimension(),
        }
    }
}

/// An immutable fitted classification model: the trained estimator plus the
/// percentile threshold cut over its training scores.
///
/// Produced by [`MdpQuery::train`](crate::query::MdpQuery::train) and
/// consumed by
/// [`MdpQuery::execute_with_model`](crate::query::MdpQuery::execute_with_model),
/// this is the unit a model cache shares across concurrent queries (the
/// `macrobase::serve` epoch-stamped snapshots): training is deterministic,
/// so scoring the training batch against its own fitted model reproduces the
/// one-shot report byte for byte, while the model itself is plain data —
/// `Send + Sync`, safe to publish behind an `Arc` and score from many
/// threads at once.
#[derive(Debug, Clone)]
pub struct FittedModel {
    /// The fitted estimator; `None` when the query declared no unsupervised
    /// stage, so labels come from the rule alone and there is no score
    /// distribution.
    classifier: Option<BatchClassifier<QueryEstimator>>,
    /// The percentile score cutoff fitted over the training batch (`None`
    /// for rule-only models, which have no score distribution).
    cutoff: Option<f64>,
    /// Metric dimensionality the model was trained on; scoring a batch of
    /// any other dimensionality is a typed error.
    dim: usize,
}

impl FittedModel {
    /// Whether the model carries a fitted unsupervised estimator (as opposed
    /// to labeling through a supervised rule alone).
    pub(crate) fn is_unsupervised(&self) -> bool {
        self.classifier.is_some()
    }

    /// Score a contiguous row-major metric buffer against the fitted
    /// estimator; `None` for rule-only models. Every batch path scores here,
    /// so this is where a NaN or infinite metric fails: a capped fit reads
    /// only its sample and a pre-trained model none of the batch, and
    /// either would otherwise score the row NaN and label it inlier.
    fn score_flat(&self, flat: &[f64], dim: usize) -> Result<Option<Vec<f64>>> {
        let Some(classifier) = &self.classifier else {
            return Ok(None);
        };
        // A fold, not `all`: with no early exit the loop read about 1.4x
        // faster (0.2 ms for 420K values, the MC-shaped batch).
        if !flat.iter().fold(true, |ok, v| ok & v.is_finite()) {
            return Err(StatsError::NonFinite.into());
        }
        Ok(Some(classifier.score_batch_flat(flat, dim)?))
    }
}

/// A batch's scores against a model (`None` under a rule-only model), with
/// the `score` span still open: [`label_rows`] closes it once every row
/// carries its label.
pub(crate) struct Scored {
    scores: Option<Vec<f64>>,
    timer: StageTimer,
}

/// Score a batch against a model, opening the `score` span.
fn score(model: &FittedModel, flat: &[f64], dim: usize, trace: &TraceBuilder) -> Result<Scored> {
    let timer = trace.start();
    Ok(Scored {
        scores: model.score_flat(flat, dim)?,
        timer,
    })
}

/// Train a query's model over a row-major metric buffer (`dim` values per
/// row, both already validated): the one fit → score → threshold sequence,
/// honouring the training-sample cap; a rule-only query fits nothing and
/// has no cutoff. The training batch's scores come back beside the model,
/// so one-shot execution labels them instead of scoring each row a second
/// time. `train` times the fit alone; the `score` span opened here stays
/// open for the label step.
pub(crate) fn train_model(
    parts: QueryParts<'_>,
    flat: &[f64],
    dim: usize,
    trace: &mut TraceBuilder,
) -> Result<(FittedModel, Scored)> {
    let (analysis, rows) = (parts.analysis, flat.len() / dim);
    let timer = trace.start();
    let classifier = if parts.unsupervised {
        let mut classifier = BatchClassifier::new(
            QueryEstimator::new(analysis.estimator, dim),
            BatchClassifierConfig {
                target_percentile: analysis.target_percentile,
                training_sample_size: analysis.training_sample_size,
            },
        );
        classifier.fit_flat(flat, dim)?;
        trace.finish_stage(timer, Stage::Train, rows, rows, 1);
        Some(classifier)
    } else {
        None
    };
    let mut model = FittedModel {
        classifier,
        cutoff: None,
        dim,
    };
    let scored = score(&model, flat, dim, trace)?;
    if let Some(scores) = &scored.scores {
        let threshold = StaticThreshold::from_scores(scores, parts.analysis.target_percentile)?;
        model.cutoff = Some(threshold.cutoff());
    }
    Ok((model, scored))
}

fn count_outliers(classifications: &[Classification]) -> usize {
    classifications
        .iter()
        .filter(|c| c.label.is_outlier())
        .count()
}

/// The label step every batch path shares: the percentile cutoff over the
/// scores (every row an inlier at score 0 without them), OR-ed with the
/// query's supervised rule over the flat rows. Closes the `score` span.
fn label_rows(
    parts: QueryParts<'_>,
    cutoff: Option<f64>,
    scored: Scored,
    flat: &[f64],
    dim: usize,
    trace: &mut TraceBuilder,
) -> Vec<Classification> {
    let rows = flat.len() / dim;
    let mut classifications: Vec<Classification> = match (scored.scores, cutoff) {
        (Some(scores), Some(cutoff)) => {
            let threshold = StaticThreshold::new(cutoff);
            scores
                .into_iter()
                .map(|score| threshold.classify(score))
                .collect()
        }
        _ => vec![
            Classification {
                score: 0.0,
                label: Label::Inlier,
            };
            rows
        ],
    };
    if let Some(rule) = parts.rule {
        for (classification, row) in classifications.iter_mut().zip(flat.chunks_exact(dim)) {
            classification.label = label_or(classification.label, rule.classify(row));
        }
    }
    if trace.is_enabled() {
        let outliers = count_outliers(&classifications);
        trace.finish_stage(scored.timer, Stage::Score, rows, outliers, 1);
    }
    classifications
}

/// Build the report of a labelled batch: the last step of every
/// single-model engine. Records the pool delta and finishes the trace.
fn assemble_report(
    analysis: &AnalysisConfig,
    classifications: &[Classification],
    score_cutoff: Option<f64>,
    explanations: Vec<RenderedExplanation>,
    mut trace: TraceBuilder,
    pool_before: Option<mb_pool::WorkerStats>,
) -> MdpReport {
    record_pool_delta(&mut trace, pool_before);
    MdpReport {
        explanations,
        num_points: classifications.len(),
        num_outliers: count_outliers(classifications),
        score_cutoff,
        scores: if analysis.retain_scores {
            classifications.iter().map(|c| c.score).collect()
        } else {
            Vec::new()
        },
        outlier_rows: if analysis.retain_outlier_rows {
            classifications
                .iter()
                .enumerate()
                .filter_map(|(row, c)| c.label.is_outlier().then_some(row))
                .collect()
        } else {
            Vec::new()
        },
        partition_reports: None,
        trace: trace.finish(),
    }
}

/// The one-shot engine: fit the query's model on the input's batch, then
/// the with-model engine's tail over the scores the fit produced. Records
/// into, and finishes, the input's trace.
pub(crate) fn train_and_execute(
    parts: QueryParts<'_>,
    input: &mut ColumnarInput,
) -> Result<MdpReport> {
    check_columns(&input.batch)?;
    let batch = &input.batch;
    let (model, scored) = train_model(parts, &batch.metrics, batch.dim, &mut input.trace)?;
    Ok(finish_one_shot(parts, &model, input, scored))
}

/// The with-model engine: score the input against a pre-trained model, then
/// label, explain and report exactly as [`train_and_execute`] does. Records
/// into, and finishes, the input's trace.
pub(crate) fn execute_with_model(
    parts: QueryParts<'_>,
    model: &FittedModel,
    input: &mut ColumnarInput,
) -> Result<MdpReport> {
    check_columns(&input.batch)?;
    let dim = input.batch.dim;
    if dim != model.dim {
        return Err(PipelineError::InconsistentDimensions {
            expected: model.dim,
            actual: dim,
        });
    }
    if model.is_unsupervised() != parts.unsupervised {
        return Err(PipelineError::InvalidConfiguration(
            "model and query disagree on the unsupervised classification stage".to_string(),
        ));
    }
    let scored = score(model, &input.batch.metrics, dim, &input.trace)?;
    Ok(finish_one_shot(parts, model, input, scored))
}

/// The shared tail of the one-shot and with-model engines: label, explain,
/// report.
fn finish_one_shot(
    parts: QueryParts<'_>,
    model: &FittedModel,
    input: &mut ColumnarInput,
    scored: Scored,
) -> MdpReport {
    let mut trace = std::mem::replace(&mut input.trace, TraceBuilder::disabled());
    let ColumnarInput {
        batch,
        encoder,
        pool_before,
        ..
    } = input;
    let classifications = label_rows(
        parts,
        model.cutoff,
        scored,
        &batch.metrics,
        batch.dim,
        &mut trace,
    );
    let explanations = if parts.analysis.skip_explanation {
        Vec::new()
    } else {
        let timer = trace.start();
        let explanations = explain_encoded(parts.analysis.explanation, encoder, &batch.items, |r| {
            classifications[r].label.is_outlier()
        });
        trace.finish_stage(timer, Stage::Explain, batch.len(), explanations.len(), 1);
        explanations
    };
    assemble_report(
        parts.analysis,
        &classifications,
        model.cutoff,
        explanations,
        trace,
        pool_before.take(),
    )
}

/// Union explanations across partition reports, deduplicating by the
/// rendered attribute combination (keep the highest risk ratio observed for
/// each), sorted by risk ratio.
pub(crate) fn merge_rendered_explanations(
    partition_reports: &[MdpReport],
) -> Vec<RenderedExplanation> {
    let mut merged: Vec<RenderedExplanation> = Vec::new();
    let mut by_combination: BTreeMap<Vec<String>, usize> = BTreeMap::new();
    for report in partition_reports {
        for e in &report.explanations {
            match by_combination.get(&e.attributes) {
                Some(&idx) => {
                    if e.stats.risk_ratio > merged[idx].stats.risk_ratio {
                        merged[idx].stats = e.stats.clone();
                    }
                }
                None => {
                    by_combination.insert(e.attributes.clone(), merged.len());
                    merged.push(e.clone());
                }
            }
        }
    }
    merged.sort_by(|a, b| {
        b.stats
            .risk_ratio
            .total_cmp(&a.stats.risk_ratio)
    });
    merged
}

/// The naïve shared-nothing engine (Appendix D, Figure 11): run the
/// one-shot engine independently per partition as pool tasks, union the
/// rendered explanations, and preserve the per-partition reports in
/// [`MdpReport::partition_reports`]. The unified report has no global score
/// cutoff (each partition cut its own — they live in the partition reports).
pub(crate) fn execute_naive(
    parts: QueryParts<'_>,
    points: &[Point],
    num_partitions: usize,
) -> Result<MdpReport> {
    if points.is_empty() {
        return Err(PipelineError::EmptyInput);
    }
    let num_partitions = resolve_num_partitions(num_partitions);
    let executor = Executor::NaivePartitioned {
        partitions: num_partitions,
    };
    let mut trace = TraceBuilder::new(parts.analysis.obs, executor.name());
    let pool_before = pool_snapshot(&trace);
    let chunks = partition_chunks(points, num_partitions);
    // Chunk sizes round up, so fewer chunks than asked for may run.
    trace.set_partitions(chunks.len());

    // Each partition is a one-shot query of its own, run as a pool task
    // that sees only its chunk. Partitions record their own traces but not
    // the pool delta: theirs would overlap, so only this top-level trace
    // snapshots the pool and task counts are not double-counted.
    let timer = trace.start();
    let results: Vec<Result<MdpReport>> = mb_pool::global().map_vec(chunks, |chunk| {
        let mut input = ColumnarInput::from_points(parts.analysis, &Executor::OneShot, chunk)?;
        input.pool_before = None;
        train_and_execute(parts, &mut input)
    });

    let mut partition_reports = Vec::with_capacity(results.len());
    for r in results {
        partition_reports.push(r?);
    }
    trace.finish_stage(
        timer,
        Stage::Execute,
        points.len(),
        points.len(),
        partition_reports.len(),
    );

    let timer = trace.start();
    let merged = merge_rendered_explanations(&partition_reports);
    let num_outliers = partition_reports.iter().map(|r| r.num_outliers).sum();
    let scores: Vec<f64> = if parts.analysis.retain_scores {
        partition_reports
            .iter()
            .flat_map(|r| r.scores.iter().copied())
            .collect()
    } else {
        Vec::new()
    };
    // Partition reports carry partition-local row indices; the unified
    // report rebases them onto global input order (chunks are contiguous
    // and in order, so the offset is the running point count).
    let outlier_rows: Vec<usize> = if parts.analysis.retain_outlier_rows {
        let mut rows = Vec::new();
        let mut offset = 0usize;
        for report in &partition_reports {
            rows.extend(report.outlier_rows.iter().map(|&row| offset + row));
            offset += report.num_points;
        }
        rows
    } else {
        Vec::new()
    };
    trace.finish_stage(
        timer,
        Stage::Merge,
        partition_reports.iter().map(|r| r.explanations.len()).sum(),
        merged.len(),
        partition_reports.len(),
    );
    record_pool_delta(&mut trace, pool_before);

    Ok(MdpReport {
        explanations: merged,
        num_points: points.len(),
        num_outliers,
        score_cutoff: None,
        scores,
        outlier_rows,
        partition_reports: Some(partition_reports),
        trace: trace.finish(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{Executor, MdpQuery};
    use mb_classify::rule::Comparison;
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

    fn query() -> MdpQuery {
        MdpQuery::builder()
            .explanation(ExplanationConfig::new(0.01, 3.0))
            .attribute_names(vec!["device_id".to_string()])
            .build()
            .unwrap()
    }

    #[test]
    fn query_estimator_fits_and_scores_the_bits_of_the_estimator_it_wraps() {
        // Past MCD's parallel distance grain, with a sample big enough for
        // its nested subsample: the dispatch must forward to each
        // estimator's own flat entry points, not to something equivalent.
        fn check<E: Estimator>(mut concrete: E, kind: EstimatorKind, flat: &[f64], dim: usize) {
            let mut dispatched = QueryEstimator::new(kind, dim);
            concrete.train_flat(flat, dim).unwrap();
            dispatched.train_flat(flat, dim).unwrap();
            assert_eq!(dispatched.dimension(), Some(dim));
            let bits = |scores: Vec<f64>| scores.into_iter().map(f64::to_bits).collect::<Vec<_>>();
            let expected = bits(concrete.score_batch_flat(flat, dim).unwrap());
            assert_eq!(
                bits(dispatched.score_batch_flat(flat, dim).unwrap()),
                expected,
                "{kind:?}"
            );
            let probe = &flat[..dim];
            assert_eq!(dispatched.score(probe), concrete.score(probe), "{kind:?}");
            // Errors are forwarded too.
            let poisoned = vec![f64::NAN; dim * 10];
            let error = QueryEstimator::new(kind, dim).train_flat(&poisoned, dim);
            assert_eq!(error, Err(StatsError::NonFinite), "{kind:?}");
        }
        let rows = 5_000;
        let mut state = 7u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 10.0
        };
        let univariate: Vec<f64> = (0..rows).map(|_| next()).collect();
        let multivariate: Vec<f64> = (0..rows * 3).map(|_| next()).collect();
        check(MadEstimator::new(), EstimatorKind::Mad, &univariate, 1);
        check(ZScoreEstimator::new(), EstimatorKind::ZScore, &univariate, 1);
        check(McdEstimator::with_defaults(), EstimatorKind::Mcd, &multivariate, 3);
        // `Auto` resolves by dimensionality, as the engines resolve it.
        check(MadEstimator::new(), EstimatorKind::Auto, &univariate, 1);
        check(McdEstimator::with_defaults(), EstimatorKind::Auto, &multivariate, 3);
    }

    #[test]
    fn hybrid_rule_is_ored_on_every_batch_backend() {
        // 10 rule-only anomalies (value 150) are too few for the percentile
        // classifier; the rule must flag them on every backend.
        let mut points = workload(5_000);
        for i in 0..10 {
            points[i * 37 + 1] = Point::new(vec![150.0], vec!["device_rule".to_string()]);
        }
        let build = || {
            MdpQuery::builder()
                .explanation(ExplanationConfig::new(0.0005, 3.0))
                .supervised_rule(RuleClassifier::single(0, Comparison::GreaterThan, 100.0))
                .build()
                .unwrap()
        };
        let reference = run(build(), &Executor::OneShot, &points).num_outliers;
        for executor in [
            Executor::Coordinated { partitions: 4 },
            Executor::NaivePartitioned { partitions: 4 },
        ] {
            let report = run(build(), &executor, &points);
            assert!(
                report.num_outliers >= 10,
                "{} dropped rule matches",
                executor.name()
            );
            if matches!(executor, Executor::Coordinated { .. }) {
                assert_eq!(report.num_outliers, reference);
            }
        }
    }

    #[test]
    fn naive_report_preserves_partition_detail() {
        let points = workload(8_000);
        let mut q = query();
        let report = q
            .execute(&Executor::NaivePartitioned { partitions: 4 }, &points)
            .unwrap();
        let partitions = report.partition_reports.as_ref().unwrap();
        assert_eq!(partitions.len(), 4);
        assert_eq!(
            partitions.iter().map(|r| r.num_points).sum::<usize>(),
            8_000
        );
        assert_eq!(
            partitions.iter().map(|r| r.num_outliers).sum::<usize>(),
            report.num_outliers
        );
        assert!(report.score_cutoff.is_none());
        assert!(partitions.iter().all(|r| r.score_cutoff.is_some()));

        // The union is deduplicated by combination and still names the
        // planted device at every fan-out.
        for partitions in [2, 4, 8] {
            let report = run(query(), &Executor::NaivePartitioned { partitions }, &points);
            let mut combinations: Vec<&Vec<String>> =
                report.explanations.iter().map(|e| &e.attributes).collect();
            let before = combinations.len();
            combinations.sort();
            combinations.dedup();
            assert_eq!(combinations.len(), before, "{partitions} partitions");
            assert!(
                report
                    .explanations
                    .iter()
                    .any(|e| e.attributes.iter().any(|a| a.contains("device_bad"))),
                "device_bad missing with {partitions} partitions"
            );
        }
        // One partition is the one-shot query; zero means one per pool
        // worker.
        let one = run(query(), &Executor::NaivePartitioned { partitions: 1 }, &points);
        let reference = run(query(), &Executor::OneShot, &points);
        assert_eq!(one.num_outliers, reference.num_outliers);
        assert_eq!(one.explanations, reference.explanations);
        let auto = run(query(), &Executor::NaivePartitioned { partitions: 0 }, &points);
        assert_eq!(
            auto.partition_reports.unwrap().len(),
            crate::parallel::default_num_partitions()
        );
        // Chunk sizes round up, so 30 partitions over 100 rows run 25: the
        // trace records the partitions that ran.
        let few = workload(100);
        let traced = run(
            traced_query(),
            &Executor::NaivePartitioned { partitions: 30 },
            &few,
        );
        let ran = traced.partition_reports.as_ref().unwrap().len();
        assert_eq!(ran, 25);
        assert_eq!(traced.trace.unwrap().partitions, ran as u64);
    }

    #[test]
    fn coordinated_matches_one_shot_through_the_new_engines() {
        let points = workload(10_000);
        let reference = run(query(), &Executor::OneShot, &points);
        for partitions in [1, 2, 4, 8] {
            let report = run(query(), &Executor::Coordinated { partitions }, &points);
            assert_eq!(report.num_outliers, reference.num_outliers);
            assert_eq!(report.score_cutoff, reference.score_cutoff);
            assert_eq!(report.explanations.len(), reference.explanations.len());
        }
        // More partitions than rows: the empty partitions drop out.
        let few = workload(5);
        let reference = run(query(), &Executor::OneShot, &few);
        assert_eq!(run(query(), &Executor::Coordinated { partitions: 8 }, &few), reference);
    }

    fn run(mut query: MdpQuery, executor: &Executor, points: &[Point]) -> MdpReport {
        query.execute(executor, points).unwrap()
    }

    fn traced_query() -> MdpQuery {
        MdpQuery::builder()
            .explanation(ExplanationConfig::new(0.01, 3.0))
            .attribute_names(vec!["device_id".to_string()])
            .traced()
            .build()
            .unwrap()
    }

    #[test]
    fn pretrained_model_reproduces_one_shot_byte_for_byte() {
        let points = workload(5_000);
        let reference = run(query(), &Executor::OneShot, &points);
        let q = query();
        let model = q.train(&points).unwrap();
        let report = q.execute_with_model(&model, &points).unwrap();
        assert_eq!(report, reference);
        assert_eq!(
            crate::wire::report_to_string(&report),
            crate::wire::report_to_string(&reference)
        );
        assert_eq!(model.cutoff, reference.score_cutoff);
        assert_eq!(model.dim, 1);
    }

    #[test]
    fn pretrained_model_honors_hybrid_rules_and_rule_only_queries() {
        let mut points = workload(5_000);
        for i in 0..10 {
            points[i * 37 + 1] = Point::new(vec![150.0], vec!["device_rule".to_string()]);
        }
        let hybrid = || {
            MdpQuery::builder()
                .explanation(ExplanationConfig::new(0.0005, 3.0))
                .supervised_rule(RuleClassifier::single(0, Comparison::GreaterThan, 100.0))
                .build()
                .unwrap()
        };
        let reference = run(hybrid(), &Executor::OneShot, &points);
        let q = hybrid();
        let model = q.train(&points).unwrap();
        assert_eq!(q.execute_with_model(&model, &points).unwrap(), reference);

        let rule_only = || {
            MdpQuery::builder()
                .without_unsupervised()
                .supervised_rule(RuleClassifier::single(0, Comparison::GreaterThan, 100.0))
                .build()
                .unwrap()
        };
        let reference = run(rule_only(), &Executor::OneShot, &points);
        let q = rule_only();
        let model = q.train(&points).unwrap();
        assert!(!model.is_unsupervised());
        assert_eq!(model.cutoff, None);
        assert_eq!(q.execute_with_model(&model, &points).unwrap(), reference);
    }

    #[test]
    fn pretrained_model_rejects_mismatched_batches() {
        let points = workload(2_000);
        let q = query();
        let model = q.train(&points).unwrap();
        let wide: Vec<Point> = (0..100)
            .map(|i| Point::new(vec![i as f64, 1.0], vec!["a".to_string()]))
            .collect();
        assert!(matches!(
            q.execute_with_model(&model, &wide),
            Err(PipelineError::InconsistentDimensions {
                expected: 1,
                actual: 2
            })
        ));
        let rule_only = MdpQuery::builder()
            .without_unsupervised()
            .supervised_rule(RuleClassifier::single(0, Comparison::GreaterThan, 100.0))
            .build()
            .unwrap();
        assert!(matches!(
            rule_only.execute_with_model(&model, &points),
            Err(PipelineError::InvalidConfiguration(_))
        ));
    }

    #[test]
    fn untraced_reports_carry_no_trace() {
        let points = workload(4_000);
        for executor in [
            Executor::OneShot,
            Executor::Coordinated { partitions: 2 },
            Executor::NaivePartitioned { partitions: 2 },
            Executor::streaming(),
        ] {
            let report = run(query(), &executor, &points);
            assert!(report.trace.is_none(), "{} traced by default", executor.name());
        }
    }

    /// Every span of `trace` carries a [`Stage`] spelling, including the
    /// ones the streaming engine builds without `finish_stage`.
    fn assert_stages_are_named(trace: &mb_obs::QueryTrace) {
        let names: Vec<&str> = Stage::ALL
            .into_iter()
            .chain([Stage::Execute])
            .map(Stage::as_str)
            .collect();
        for span in &trace.stages {
            assert!(
                names.contains(&span.stage.as_str()),
                "{}: {:?} is not a Stage",
                trace.executor,
                span.stage
            );
        }
    }

    #[test]
    fn tracing_populates_every_backend_and_changes_nothing_else() {
        let points = workload(4_000);
        for executor in [
            Executor::OneShot,
            Executor::Coordinated { partitions: 2 },
            Executor::NaivePartitioned { partitions: 2 },
            Executor::streaming(),
        ] {
            let untraced = run(query(), &executor, &points);
            let mut traced = run(traced_query(), &executor, &points);
            let trace = traced.trace.take().expect("trace populated");
            assert_eq!(trace.executor, executor.name());
            assert!(!trace.stages.is_empty(), "{} recorded no stages", executor.name());
            assert_stages_are_named(&trace);
            // Stripped of telemetry, the traced report is the untraced one.
            if let Some(partitions) = traced.partition_reports.as_mut() {
                for p in partitions {
                    let partition_trace = p.trace.take().expect("naive partition lost its trace");
                    assert_stages_are_named(&partition_trace);
                }
            }
            assert_eq!(traced, untraced, "{} result drifted under tracing", executor.name());
        }
    }

    #[test]
    fn coordinated_trace_counters_are_partition_invariant() {
        // Coordinated runs the one-shot engine under its own name: at every
        // partition count the score and explain stages are one pass over
        // every row.
        let points = workload(6_000);
        for partitions in [1, 2, 4] {
            let report = run(
                traced_query(),
                &Executor::Coordinated { partitions },
                &points,
            );
            let trace = report.trace.expect("trace populated");
            assert_eq!(trace.executor, "coordinated");
            let score = trace.stage("score").unwrap();
            assert_eq!((score.rows_in, score.batches), (6_000, 1));
            let explain = trace.stage("explain").unwrap();
            assert_eq!((explain.rows_in, explain.batches), (6_000, 1));
            assert!(trace.gauge("pool_workers").is_some());
            for name in ["train", "score", "encode", "explain"] {
                assert!(trace.stage(name).is_some(), "missing stage {name}");
            }
        }
    }

    #[test]
    fn one_shot_trace_records_the_pipeline_stages() {
        let points = workload(4_000);
        let report = run(traced_query(), &Executor::OneShot, &points);
        let trace = report.trace.expect("trace populated");
        assert_eq!(trace.executor, "one-shot");
        for name in ["train", "score", "encode", "explain"] {
            assert!(trace.stage(name).is_some(), "missing stage {name}");
        }
        // The metric copy rides the encode walk: one span over every row.
        assert!(trace.stage("flatten").is_none());
        assert_eq!(trace.stage("encode").unwrap().rows_in, 4_000);
        let score = trace.stage("score").unwrap();
        assert_eq!(score.rows_in, 4_000);
        assert_eq!(score.rows_out as usize, report.num_outliers);
    }

    #[test]
    fn streaming_trace_reports_staleness_and_tick_costs() {
        let points = workload(30_000);
        let report = run(traced_query(), &Executor::streaming(), &points);
        let trace = report.trace.expect("trace populated");
        assert_eq!(trace.executor, "streaming");
        assert_eq!(trace.counter("points"), 30_000);
        let score = trace.stage("score").unwrap();
        assert_eq!(score.rows_in, 30_000);
        assert!(score.wall_ns > 0);
        // Warm-up plus periodic retrains all land in the histogram.
        let retrains = trace.histogram("retrain_ns").expect("retrain histogram");
        assert!(retrains.count >= 1);
        assert!(trace.gauge("model_staleness").is_some());
    }
}
