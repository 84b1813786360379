//! Batch execution engines behind the [`Executor`](crate::query::Executor)
//! backends, built by driving the Table 1 operator traits.
//!
//! All three batch backends share two real operators:
//!
//! * [`MdpClassifier`] — the MDP classification stage as a
//!   [`Classifier`]: robust-estimator scoring at a percentile threshold,
//!   optionally OR-ed with a supervised [`RuleClassifier`] (hybrid
//!   supervision), or rule-only.
//! * [`MdpExplainer`] — the MDP explanation stage as an [`Explainer`]:
//!   dictionary attribute encoding feeding the cardinality-aware risk-ratio
//!   strategy (Algorithm 2), ranked and rendered.
//!
//! `execute_one_shot` composes exactly these two; the naïve partitioned
//! engine runs it per partition; the coordinated engine decomposes the
//! classifier into fit/score/threshold so one model can be broadcast and one
//! threshold cut over merged scores, and swaps the explainer's accumulation
//! for mergeable [`ExplainState`]s — reproducing the one-shot report exactly
//! at any partition count.

use crate::operator::{check_columns, Classifier, ColumnarInput, Explainer};
use crate::parallel::{partition_chunks, resolve_num_partitions, scatter};
use crate::query::{AnalysisConfig, EstimatorKind};
use crate::types::{MdpReport, Point, RenderedExplanation};
use crate::{PipelineError, Result};
use mb_classify::batch::{BatchClassifier, BatchClassifierConfig};
use mb_classify::rule::{label_or, RuleClassifier};
use mb_classify::threshold::StaticThreshold;
use mb_classify::{Classification, Label};
use mb_explain::batch::BatchExplainer;
use mb_explain::encoder::{encode_batch_parallel, AttributeEncoder};
use mb_explain::partition::ExplainState;
use mb_explain::risk_ratio::rank_explanations;
use mb_explain::{ItemBatch, Mergeable};
use mb_fpgrowth::Item;
use mb_obs::{stage, MetricRegistry, TraceBuilder};
use mb_stats::mad::MadEstimator;
use mb_stats::mcd::McdEstimator;
use mb_stats::zscore::ZScoreEstimator;
use mb_stats::Estimator;
use std::collections::HashMap;

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
    let first = points.first().ok_or(PipelineError::EmptyInput)?;
    let dim = first.dimension();
    if dim == 0 {
        return Err(PipelineError::InvalidConfiguration(
            "points must have at least one metric".to_string(),
        ));
    }
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

/// The MDP classification stage as a reusable [`Classifier`] operator:
/// unsupervised robust-estimator scoring cut at a percentile, a supervised
/// rule, or both OR-ed (hybrid supervision).
#[derive(Debug, Clone)]
pub struct MdpClassifier {
    estimator: EstimatorKind,
    config: BatchClassifierConfig,
    rule: Option<RuleClassifier>,
    unsupervised: bool,
    cutoff: Option<f64>,
}

impl MdpClassifier {
    /// An unsupervised classifier from an analysis configuration.
    pub fn from_analysis(analysis: &AnalysisConfig) -> Self {
        Self::with_rule(analysis, None, true)
    }

    /// A classifier with explicit stages; at least one of `rule` /
    /// `unsupervised` must be active (the query builder guarantees this).
    pub fn with_rule(
        analysis: &AnalysisConfig,
        rule: Option<RuleClassifier>,
        unsupervised: bool,
    ) -> Self {
        MdpClassifier {
            estimator: analysis.estimator,
            config: BatchClassifierConfig {
                target_percentile: analysis.target_percentile,
                training_sample_size: analysis.training_sample_size,
            },
            rule,
            unsupervised,
            cutoff: None,
        }
    }

    /// The percentile score cutoff fitted by the last
    /// [`classify`](Classifier::classify) call (`None` for rule-only
    /// classification, which has no score distribution).
    pub fn cutoff(&self) -> Option<f64> {
        self.cutoff
    }

    /// Fit, score, threshold, and label — the exact operation sequence of
    /// [`BatchClassifier::classify_batch_flat`], unrolled here so the train
    /// and score halves can be timed as separate trace stages. Results are
    /// identical to the composite call (same ops in the same order); the
    /// trace builder is inert unless the query enabled telemetry.
    fn classify_unsupervised<E: Estimator>(
        &mut self,
        estimator: E,
        flat: &[f64],
        dim: usize,
        trace: &mut TraceBuilder,
    ) -> Result<Vec<Classification>> {
        let rows = flat.len() / dim.max(1);
        let mut classifier = BatchClassifier::new(estimator, self.config);
        let timer = trace.start();
        classifier.fit_flat(flat, dim)?;
        trace.finish_stage(timer, stage::TRAIN, rows, rows, 1);
        let timer = trace.start();
        let scores = classifier.score_batch_flat(flat, dim)?;
        let threshold = StaticThreshold::from_scores(&scores, self.config.target_percentile)?;
        classifier.set_threshold(threshold);
        let classifications: Vec<Classification> = scores
            .into_iter()
            .map(|score| threshold.classify(score))
            .collect();
        if trace.is_enabled() {
            let outliers = classifications
                .iter()
                .filter(|c| c.label.is_outlier())
                .count();
            trace.finish_stage(timer, stage::SCORE, rows, outliers, 1);
        }
        self.cutoff = classifier.threshold().map(|t| t.cutoff());
        Ok(classifications)
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

impl MdpClassifier {
    /// Classify a contiguous row-major metric buffer (`dim` values per row):
    /// the columnar entry every batch path funnels through. Produces exactly
    /// the classifications the row-major [`Classifier::classify`] does.
    pub(crate) fn classify_flat(&mut self, flat: &[f64], dim: usize) -> Result<Vec<Classification>> {
        self.classify_flat_traced(flat, dim, &mut TraceBuilder::disabled())
    }

    /// [`classify_flat`](MdpClassifier::classify_flat) with train/score
    /// stage timing recorded on `trace` (inert when telemetry is off).
    pub(crate) fn classify_flat_traced(
        &mut self,
        flat: &[f64],
        dim: usize,
        trace: &mut TraceBuilder,
    ) -> Result<Vec<Classification>> {
        let mut classifications = if self.unsupervised {
            match self.estimator.resolve(dim) {
                EstimatorKind::Mad => {
                    self.classify_unsupervised(MadEstimator::new(), flat, dim, trace)?
                }
                EstimatorKind::ZScore => {
                    self.classify_unsupervised(ZScoreEstimator::new(), flat, dim, trace)?
                }
                EstimatorKind::Mcd => {
                    self.classify_unsupervised(McdEstimator::with_defaults(), flat, dim, trace)?
                }
                EstimatorKind::Auto => unreachable!("resolve() eliminates Auto"),
            }
        } else {
            self.cutoff = None;
            vec![
                Classification {
                    score: 0.0,
                    label: Label::Inlier,
                };
                flat.len() / dim
            ]
        };
        if let Some(rule) = &self.rule {
            for (classification, row) in classifications.iter_mut().zip(flat.chunks_exact(dim)) {
                classification.label = label_or(classification.label, rule.classify(row));
            }
        }
        Ok(classifications)
    }
}

impl Classifier for MdpClassifier {
    fn classify(&mut self, points: &[Point]) -> Result<Vec<Classification>> {
        let dim = check_dimensions(points)?;
        let flat = flatten_metrics(points, dim);
        self.classify_flat(&flat, dim)
    }
}

/// The MDP explanation stage as a reusable [`Explainer`] operator:
/// dictionary-encode attributes, split transactions by label, and run the
/// cardinality-aware risk-ratio strategy, ranked and rendered.
pub struct MdpExplainer {
    encoder: AttributeEncoder,
    config: mb_explain::ExplanationConfig,
    batch: ItemBatch,
    labels: Vec<bool>,
    scratch: Vec<Item>,
}

impl MdpExplainer {
    /// An explainer from an analysis configuration (thresholds + attribute
    /// column names).
    pub fn from_analysis(analysis: &AnalysisConfig) -> Self {
        MdpExplainer {
            encoder: encoder_for(analysis),
            config: analysis.explanation,
            batch: ItemBatch::new(),
            labels: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl Explainer for MdpExplainer {
    fn consume(&mut self, points: &[Point], classifications: &[Classification]) {
        // Accumulate into the columnar batch: one flat item array + offsets
        // plus a label per row, instead of one Vec per point. The encode
        // order (hence id assignment) is identical to the old per-point
        // push, so rendered explanations cannot drift.
        for (point, classification) in points.iter().zip(classifications) {
            self.encoder
                .encode_point_into(&point.attributes, &mut self.scratch);
            self.batch.push_row(&self.scratch);
            self.labels.push(classification.label.is_outlier());
        }
    }

    fn explanations(&mut self) -> Vec<RenderedExplanation> {
        let explainer = BatchExplainer::new(self.config);
        let labels = &self.labels;
        let mut explanations = explainer.explain_labeled(&self.batch, |r| labels[r]);
        rank_explanations(&mut explanations);
        explanations
            .into_iter()
            .map(|e| RenderedExplanation {
                attributes: self.encoder.describe(&e.items),
                items: e.items,
                stats: e.stats,
            })
            .collect()
    }
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

/// The one-shot engine: drive [`MdpClassifier`] then [`MdpExplainer`] over
/// the whole batch on the calling thread. Returns the per-point
/// classifications (for callers that need labeled points, e.g. the
/// deprecated `Pipeline::run`) alongside the unified report.
pub(crate) fn execute_one_shot(
    parts: QueryParts<'_>,
    points: &[Point],
) -> Result<(Vec<Classification>, MdpReport)> {
    execute_one_shot_impl(parts, points, true)
}

/// [`execute_one_shot`] with control over pool-counter recording: the naïve
/// engine runs this per partition concurrently, where per-partition global
/// pool deltas would overlap and double-count, so only top-level entries
/// pass `record_pool`.
fn execute_one_shot_impl(
    parts: QueryParts<'_>,
    points: &[Point],
    record_pool: bool,
) -> Result<(Vec<Classification>, MdpReport)> {
    let mut trace = TraceBuilder::new(parts.analysis.obs, "one-shot");
    let pool_before = if record_pool {
        pool_snapshot(&trace)
    } else {
        None
    };
    let dim = check_dimensions(points)?;
    let timer = trace.start();
    let flat = flatten_metrics(points, dim);
    trace.finish_stage(timer, "flatten", points.len(), points.len(), 1);
    let mut classifier =
        MdpClassifier::with_rule(parts.analysis, parts.rule.cloned(), parts.unsupervised);
    let classifications = classifier.classify_flat_traced(&flat, dim, &mut trace)?;
    let num_outliers = classifications
        .iter()
        .filter(|c| c.label.is_outlier())
        .count();

    let explanations = if parts.analysis.skip_explanation {
        Vec::new()
    } else {
        // Columnar explanation path: shard the encode pass across the pool
        // (the first-occurrence-ordered dictionary merge reproduces the ids
        // a serial pass assigns) and explain straight off the ItemBatch —
        // strings stop flowing past this point.
        let analysis = parts.analysis;
        let mut encoder = encoder_for(analysis);
        let attribute_rows: Vec<&[String]> =
            points.iter().map(|p| p.attributes.as_slice()).collect();
        let encode_shards = resolve_num_partitions(0);
        let timer = trace.start();
        let batch = encode_batch_parallel(
            &mut encoder,
            mb_pool::global(),
            &attribute_rows,
            encode_shards,
        );
        trace.finish_stage(timer, stage::ENCODE, points.len(), points.len(), encode_shards);
        let timer = trace.start();
        let explanations = explain_encoded(analysis, &encoder, &batch, &classifications);
        trace.finish_stage(timer, stage::EXPLAIN, points.len(), explanations.len(), 1);
        explanations
    };

    record_pool_delta(&mut trace, pool_before);
    let report = MdpReport {
        explanations,
        num_points: points.len(),
        num_outliers,
        score_cutoff: classifier.cutoff(),
        scores: if parts.analysis.retain_scores {
            classifications.iter().map(|c| c.score).collect()
        } else {
            Vec::new()
        },
        outlier_rows: if parts.analysis.retain_outlier_rows {
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
    };
    Ok((classifications, report))
}

/// Dispatch between the concrete fitted batch classifiers a
/// [`FittedModel`] can hold.
#[derive(Debug, Clone)]
enum FittedModelKind {
    Mad(BatchClassifier<MadEstimator>),
    Mcd(BatchClassifier<McdEstimator>),
    ZScore(BatchClassifier<ZScoreEstimator>),
    /// The query declared no unsupervised stage; labels come from the rule
    /// alone and there is no score distribution.
    RuleOnly,
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
    kind: FittedModelKind,
    cutoff: Option<f64>,
    dim: usize,
}

impl FittedModel {
    /// The percentile score cutoff fitted over the training batch (`None`
    /// for rule-only models, which have no score distribution).
    pub fn cutoff(&self) -> Option<f64> {
        self.cutoff
    }

    /// Metric dimensionality the model was trained on; scoring a batch of
    /// any other dimensionality is a typed error.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Whether the model carries a fitted unsupervised estimator (as opposed
    /// to labeling through a supervised rule alone).
    pub fn is_unsupervised(&self) -> bool {
        !matches!(self.kind, FittedModelKind::RuleOnly)
    }

    /// Score a contiguous row-major metric buffer against the fitted
    /// estimator; `None` for rule-only models.
    fn score_flat(&self, flat: &[f64], dim: usize) -> Result<Option<Vec<f64>>> {
        let scores = match &self.kind {
            FittedModelKind::Mad(c) => c.score_batch_flat(flat, dim)?,
            FittedModelKind::Mcd(c) => c.score_batch_flat(flat, dim)?,
            FittedModelKind::ZScore(c) => c.score_batch_flat(flat, dim)?,
            FittedModelKind::RuleOnly => return Ok(None),
        };
        Ok(Some(scores))
    }
}

/// Fit one estimator and cut its threshold — the exact fit → score →
/// threshold sequence of
/// [`MdpClassifier::classify_unsupervised`], so a model trained here and
/// applied to its own training batch labels every row identically.
fn fit_model<E: Estimator>(
    estimator: E,
    analysis: &AnalysisConfig,
    flat: &[f64],
    dim: usize,
) -> Result<(BatchClassifier<E>, f64)> {
    let mut classifier = BatchClassifier::new(
        estimator,
        BatchClassifierConfig {
            target_percentile: analysis.target_percentile,
            training_sample_size: analysis.training_sample_size,
        },
    );
    classifier.fit_flat(flat, dim)?;
    let scores = classifier.score_batch_flat(flat, dim)?;
    let threshold = StaticThreshold::from_scores(&scores, analysis.target_percentile)?;
    classifier.set_threshold(threshold);
    Ok((classifier, threshold.cutoff()))
}

/// Train a query's classification model over a row-major metric buffer
/// (`dim` values per row, both already validated) without classifying or
/// explaining anything: the fit half of the one-shot engine.
pub(crate) fn train_model(parts: QueryParts<'_>, flat: &[f64], dim: usize) -> Result<FittedModel> {
    if !parts.unsupervised {
        return Ok(FittedModel {
            kind: FittedModelKind::RuleOnly,
            cutoff: None,
            dim,
        });
    }
    let analysis = parts.analysis;
    let (kind, cutoff) = match analysis.estimator.resolve(dim) {
        EstimatorKind::Mad => {
            let (c, cutoff) = fit_model(MadEstimator::new(), analysis, flat, dim)?;
            (FittedModelKind::Mad(c), cutoff)
        }
        EstimatorKind::ZScore => {
            let (c, cutoff) = fit_model(ZScoreEstimator::new(), analysis, flat, dim)?;
            (FittedModelKind::ZScore(c), cutoff)
        }
        EstimatorKind::Mcd => {
            let (c, cutoff) = fit_model(McdEstimator::with_defaults(), analysis, flat, dim)?;
            (FittedModelKind::Mcd(c), cutoff)
        }
        EstimatorKind::Auto => unreachable!("resolve() eliminates Auto"),
    };
    Ok(FittedModel {
        kind,
        cutoff: Some(cutoff),
        dim,
    })
}

/// The one-shot engine with a pre-trained model over a columnar input:
/// score, threshold, rule-OR, and explain — exactly the operation sequence
/// of [`execute_one_shot`] minus the fit and the encode, so running a batch
/// against a model trained on that same batch reproduces the one-shot
/// report byte for byte. Records into, and finishes, the input's trace.
pub(crate) fn execute_one_shot_with_model(
    parts: QueryParts<'_>,
    model: &FittedModel,
    input: &mut ColumnarInput,
) -> Result<MdpReport> {
    let mut trace = std::mem::replace(&mut input.trace, TraceBuilder::disabled());
    let pool_before = input.pool_before.take();
    let ColumnarInput { batch, encoder, .. } = input;
    check_columns(batch)?;
    let (flat, dim, rows) = (batch.metrics.as_slice(), batch.dim, batch.len());
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

    let timer = trace.start();
    let mut classifications = match model.score_flat(flat, dim)? {
        Some(scores) => {
            let cutoff = model.cutoff.ok_or_else(|| {
                PipelineError::InvalidConfiguration(
                    "fitted model carries no score threshold".to_string(),
                )
            })?;
            let threshold = StaticThreshold::new(cutoff);
            scores
                .into_iter()
                .map(|score| threshold.classify(score))
                .collect()
        }
        None => vec![
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
    let num_outliers = classifications
        .iter()
        .filter(|c| c.label.is_outlier())
        .count();
    trace.finish_stage(timer, stage::SCORE, rows, num_outliers, 1);

    let explanations = if parts.analysis.skip_explanation {
        Vec::new()
    } else {
        let timer = trace.start();
        let explanations = explain_encoded(parts.analysis, encoder, &batch.items, &classifications);
        trace.finish_stage(timer, stage::EXPLAIN, rows, explanations.len(), 1);
        explanations
    };

    record_pool_delta(&mut trace, pool_before);
    Ok(MdpReport {
        explanations,
        num_points: rows,
        num_outliers,
        score_cutoff: if parts.unsupervised { model.cutoff } else { None },
        scores: if parts.analysis.retain_scores {
            classifications.iter().map(|c| c.score).collect()
        } else {
            Vec::new()
        },
        outlier_rows: if parts.analysis.retain_outlier_rows {
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
    })
}

/// Explain a labeled columnar batch and render against its encoder — the
/// shared tail of both one-shot entry points.
fn explain_encoded(
    analysis: &AnalysisConfig,
    encoder: &AttributeEncoder,
    batch: &ItemBatch,
    classifications: &[Classification],
) -> Vec<RenderedExplanation> {
    let explainer = BatchExplainer::new(analysis.explanation);
    let mut explanations =
        explainer.explain_labeled(batch, |r| classifications[r].label.is_outlier());
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

/// The one-shot engine over a pre-encoded columnar input: contiguous
/// row-major metrics plus the [`ItemBatch`] an ingestor produced against
/// the input's encoder. This is the zero-rematerialization fast path of
/// [`MdpQuery::execute_ingest`](crate::query::MdpQuery::execute_ingest) —
/// no `Point`s are ever built, yet the report is exactly what
/// materializing the source and running [`execute_one_shot`] produces
/// (same ids, same scores, same thresholds). The input's trace and pool
/// snapshot date from before ingestion, which may itself have run on the
/// pool.
pub(crate) fn execute_one_shot_encoded(
    parts: QueryParts<'_>,
    input: ColumnarInput,
) -> Result<MdpReport> {
    let ColumnarInput {
        batch,
        encoder,
        mut trace,
        pool_before,
    } = input;
    check_columns(&batch)?;
    let (flat, dim, items) = (batch.metrics.as_slice(), batch.dim, &batch.items);
    let mut classifier =
        MdpClassifier::with_rule(parts.analysis, parts.rule.cloned(), parts.unsupervised);
    let classifications = classifier.classify_flat_traced(flat, dim, &mut trace)?;
    let num_outliers = classifications
        .iter()
        .filter(|c| c.label.is_outlier())
        .count();

    let explanations = if parts.analysis.skip_explanation {
        Vec::new()
    } else {
        let timer = trace.start();
        let explanations = explain_encoded(parts.analysis, &encoder, items, &classifications);
        trace.finish_stage(timer, stage::EXPLAIN, items.len(), explanations.len(), 1);
        explanations
    };

    record_pool_delta(&mut trace, pool_before);
    Ok(MdpReport {
        explanations,
        num_points: items.len(),
        num_outliers,
        score_cutoff: classifier.cutoff(),
        scores: if parts.analysis.retain_scores {
            classifications.iter().map(|c| c.score).collect()
        } else {
            Vec::new()
        },
        outlier_rows: if parts.analysis.retain_outlier_rows {
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
    })
}

/// Fit once on the global batch, scatter the scoring pass, and cut one
/// threshold over the merged score vector.
///
/// The fit itself is no longer a serial section: FastMCD scatters its
/// training restarts as pool tasks (deterministic best-of-restarts merge,
/// so the model is a pure function of the batch and seed at any thread
/// count), and each partition's scoring below goes through the estimator's
/// bulk path — for MCD the parallel Mahalanobis distance pass — which
/// nests on the same pool. Both levels return exactly the per-row scores
/// of a serial loop, preserving coordinated ≡ one-shot byte equality.
fn coordinated_scores<E: Estimator + Sync>(
    estimator: E,
    flat: &[f64],
    dim: usize,
    num_partitions: usize,
    analysis: &AnalysisConfig,
    trace: &mut TraceBuilder,
) -> Result<(Vec<f64>, f64)> {
    let mut classifier = BatchClassifier::new(
        estimator,
        BatchClassifierConfig {
            target_percentile: analysis.target_percentile,
            training_sample_size: analysis.training_sample_size,
        },
    );
    let rows = flat.len() / dim;
    let timer = trace.start();
    classifier.fit_flat(flat, dim)?;
    trace.finish_stage(timer, stage::TRAIN, rows, rows, 1);

    // Scatter: partitions score communication-free against the shared model,
    // each over a row-aligned slice of the contiguous metric buffer. Chunk
    // boundaries cannot perturb results — each row's score is a pure
    // function of the shared model and that row. When tracing, each scatter
    // task carries its own registry shard (rows scored, tasks run) — the
    // thread-local half of the telemetry design, folded below with the same
    // `Mergeable` algebra the explanation states use.
    let chunk_rows = rows.div_ceil(num_partitions).max(1);
    let classifier_ref = &classifier;
    let tracing = trace.is_enabled();
    let timer = trace.start();
    let score_chunks: Vec<(mb_stats::Result<Vec<f64>>, MetricRegistry)> =
        scatter(flat.chunks(chunk_rows * dim).collect(), |chunk| {
            let scored = classifier_ref.score_batch_flat(chunk, dim);
            let mut shard = MetricRegistry::new();
            if tracing {
                shard.add("score_rows", (chunk.len() / dim) as u64);
                shard.add("score_tasks", 1);
            }
            (scored, shard)
        });
    let batches = score_chunks.len();
    let mut scores: Vec<f64> = Vec::with_capacity(rows);
    for (chunk, shard) in score_chunks {
        scores.extend(chunk?);
        trace.merge_registry(shard);
    }

    // Gather: one percentile threshold over the merged score vector.
    let threshold = StaticThreshold::from_scores(&scores, analysis.target_percentile)
        .map_err(PipelineError::from)?;
    trace.finish_stage(timer, stage::SCORE, rows, rows, batches);
    Ok((scores, threshold.cutoff()))
}

/// The coordinated partitioned engine: shared trained model, global score
/// threshold, merged pre-render explanation state. Produces exactly the
/// one-shot report for any partition count (see the module docs of
/// [`crate::coordinated`] for the design rationale).
pub(crate) fn execute_coordinated(
    parts: QueryParts<'_>,
    points: &[Point],
    num_partitions: usize,
) -> Result<MdpReport> {
    let num_partitions = resolve_num_partitions(num_partitions);
    let dim = check_dimensions(points)?;
    let analysis = parts.analysis;
    let mut trace = TraceBuilder::new(analysis.obs, "coordinated");
    trace.set_partitions(num_partitions);
    let pool_before = pool_snapshot(&trace);

    let (scores, cutoff) = if parts.unsupervised {
        let timer = trace.start();
        let flat = flatten_metrics(points, dim);
        trace.finish_stage(timer, "flatten", points.len(), points.len(), 1);
        let (scores, cutoff) = match analysis.estimator.resolve(dim) {
            EstimatorKind::Mad => coordinated_scores(
                MadEstimator::new(),
                &flat,
                dim,
                num_partitions,
                analysis,
                &mut trace,
            )?,
            EstimatorKind::ZScore => coordinated_scores(
                ZScoreEstimator::new(),
                &flat,
                dim,
                num_partitions,
                analysis,
                &mut trace,
            )?,
            EstimatorKind::Mcd => coordinated_scores(
                McdEstimator::with_defaults(),
                &flat,
                dim,
                num_partitions,
                analysis,
                &mut trace,
            )?,
            EstimatorKind::Auto => unreachable!("resolve() eliminates Auto"),
        };
        (scores, Some(cutoff))
    } else {
        (vec![0.0; points.len()], None)
    };

    // Label merge: percentile cutoff OR-ed with the supervised rule (the
    // rule evaluates per point, so it scatters alongside the scores).
    let labels: Vec<bool> = match (parts.rule, cutoff) {
        (None, Some(cutoff)) => scores.iter().map(|&s| s >= cutoff).collect(),
        (None, None) => return Err(PipelineError::MissingClassifier),
        (Some(rule), cutoff) => {
            let point_chunks = partition_chunks(points, num_partitions);
            let score_chunks = partition_chunks(&scores, num_partitions);
            let work: Vec<(&[Point], &[f64])> =
                point_chunks.into_iter().zip(score_chunks).collect();
            let label_chunks: Vec<Vec<bool>> = scatter(work, |(chunk, chunk_scores)| {
                chunk
                    .iter()
                    .zip(chunk_scores)
                    .map(|(point, &score)| {
                        cutoff.is_some_and(|c| score >= c)
                            || rule.classify(&point.metrics).is_outlier()
                    })
                    .collect()
            });
            label_chunks.concat()
        }
    };
    let num_outliers = labels.iter().filter(|&&outlier| outlier).count();

    let explanations = if analysis.skip_explanation {
        Vec::new()
    } else {
        // Encode attributes through one shared dictionary so item ids agree
        // across partitions (the naïve mode's per-partition encoders are why
        // it can only union rendered strings). The encode pass itself shards
        // across the pool; the first-occurrence-ordered dictionary merge
        // keeps the assigned ids identical to a serial pass, so this does
        // not perturb the one-shot-equivalence guarantee.
        let mut encoder = encoder_for(analysis);
        let attribute_rows: Vec<&[String]> =
            points.iter().map(|p| p.attributes.as_slice()).collect();
        let timer = trace.start();
        let batch = encode_batch_parallel(
            &mut encoder,
            mb_pool::global(),
            &attribute_rows,
            num_partitions,
        );
        trace.finish_stage(timer, stage::ENCODE, points.len(), batch.len(), num_partitions);

        // Scatter: per-partition pre-render explanation state over
        // contiguous row ranges of the columnar batch. When tracing, each
        // task also owns a metric-registry shard (rows observed, tasks run),
        // merged below alongside the explanation states themselves — both
        // ride the same coordination-free scatter/merge algebra.
        let chunk_rows = batch.len().div_ceil(num_partitions).max(1);
        let ranges: Vec<(usize, usize)> = (0..batch.len())
            .step_by(chunk_rows)
            .map(|start| (start, (start + chunk_rows).min(batch.len())))
            .collect();
        let (batch_ref, labels_ref) = (&batch, &labels);
        let tracing = trace.is_enabled();
        let timer = trace.start();
        let states: Vec<(ExplainState, MetricRegistry)> = scatter(ranges, |(start, end)| {
            let mut state = ExplainState::new();
            for (r, &label) in labels_ref.iter().enumerate().take(end).skip(start) {
                state.observe(batch_ref.row(r), label);
            }
            let mut shard = MetricRegistry::new();
            if tracing {
                shard.add("explain_rows", (end - start) as u64);
                shard.add("explain_tasks", 1);
            }
            (state, shard)
        });
        let explain_batches = states.len();

        // Gather: merge on items, then threshold on the merged counts.
        let mut merged = ExplainState::new();
        for (state, shard) in states {
            merged.merge(state);
            trace.merge_registry(shard);
        }
        let explainer = BatchExplainer::new(analysis.explanation);
        let mut explanations = explainer.explain_state(&merged);
        rank_explanations(&mut explanations);
        let rendered: Vec<RenderedExplanation> = explanations
            .into_iter()
            .map(|e| RenderedExplanation {
                attributes: encoder.describe(&e.items),
                items: e.items,
                stats: e.stats,
            })
            .collect();
        trace.finish_stage(
            timer,
            stage::EXPLAIN,
            points.len(),
            rendered.len(),
            explain_batches,
        );
        rendered
    };
    record_pool_delta(&mut trace, pool_before);

    Ok(MdpReport {
        explanations,
        num_points: points.len(),
        num_outliers,
        score_cutoff: cutoff,
        scores: if analysis.retain_scores {
            scores
        } else {
            Vec::new()
        },
        outlier_rows: if analysis.retain_outlier_rows {
            labels
                .iter()
                .enumerate()
                .filter_map(|(row, &outlier)| outlier.then_some(row))
                .collect()
        } else {
            Vec::new()
        },
        partition_reports: None,
        trace: trace.finish(),
    })
}

/// Union explanations across partition reports, deduplicating by the
/// rendered attribute combination (keep the highest risk ratio observed for
/// each), sorted by risk ratio.
pub(crate) fn merge_rendered_explanations(
    partition_reports: &[MdpReport],
) -> Vec<RenderedExplanation> {
    let mut merged: Vec<RenderedExplanation> = Vec::new();
    let mut by_combination: HashMap<Vec<String>, usize> = HashMap::new();
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
    let mut trace = TraceBuilder::new(parts.analysis.obs, "naive");
    trace.set_partitions(num_partitions);
    let pool_before = pool_snapshot(&trace);
    let chunks = partition_chunks(points, num_partitions);

    // Run each partition as its own pool task (shared-nothing: each gets its
    // own classifier and explainer and sees only its chunk). Sub-executions
    // record their own per-partition traces but skip the global pool delta —
    // only this top-level trace snapshots the pool, so task counts are not
    // double-counted.
    let timer = trace.start();
    let results: Vec<Result<(Vec<Classification>, MdpReport)>> =
        scatter(chunks, |chunk| execute_one_shot_impl(parts, chunk, false));

    let mut partition_reports = Vec::with_capacity(results.len());
    for r in results {
        partition_reports.push(r?.1);
    }
    trace.finish_stage(
        timer,
        "execute",
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
        stage::MERGE,
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
    fn classifier_operator_reports_cutoff_and_labels() {
        let points = workload(5_000);
        let mut classifier = MdpClassifier::from_analysis(query().analysis());
        let classifications = classifier.classify(&points).unwrap();
        assert_eq!(classifications.len(), 5_000);
        let cutoff = classifier.cutoff().unwrap();
        for c in &classifications {
            assert_eq!(c.label.is_outlier(), c.score >= cutoff);
        }
    }

    #[test]
    fn explainer_operator_renders_the_planted_device() {
        let points = workload(5_000);
        let mut classifier = MdpClassifier::from_analysis(query().analysis());
        let classifications = classifier.classify(&points).unwrap();
        let mut explainer = MdpExplainer::from_analysis(query().analysis());
        explainer.consume(&points, &classifications);
        let explanations = explainer.explanations();
        assert!(explanations
            .iter()
            .any(|e| e.attributes.iter().any(|a| a.contains("device_bad"))));
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
        assert_eq!(model.cutoff(), reference.score_cutoff);
        assert_eq!(model.dim(), 1);
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
        assert_eq!(model.cutoff(), None);
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
            assert!(!trace.stages.is_empty(), "{} recorded no stages", executor.name());
            // Stripped of telemetry, the traced report is the untraced one.
            if let Some(partitions) = traced.partition_reports.as_mut() {
                for p in partitions {
                    assert!(p.trace.is_some(), "naive partition lost its trace");
                    p.trace = None;
                }
            }
            assert_eq!(traced, untraced, "{} result drifted under tracing", executor.name());
        }
    }

    #[test]
    fn coordinated_trace_counters_are_partition_invariant() {
        // The scatter shards' merged row counters must equal the input size
        // at every fan-out — the partition-count analogue of the pool's
        // thread-count sum-equality test.
        let points = workload(6_000);
        for partitions in [1, 2, 4] {
            let report = run(
                traced_query(),
                &Executor::Coordinated { partitions },
                &points,
            );
            let trace = report.trace.expect("trace populated");
            assert_eq!(trace.executor, "coordinated");
            assert_eq!(trace.partitions, partitions as u64);
            assert_eq!(trace.counter("score_rows"), 6_000);
            assert_eq!(trace.counter("explain_rows"), 6_000);
            assert_eq!(trace.counter("score_tasks"), trace.stage("score").unwrap().batches);
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
        for name in ["flatten", "train", "score", "encode", "explain"] {
            assert!(trace.stage(name).is_some(), "missing stage {name}");
        }
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
