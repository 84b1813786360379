//! The unified MDP query surface: one [`MdpQuery`] specification, executed
//! by any [`Executor`] backend.
//!
//! The paper's core architectural claim (Section 3, Table 1) is that
//! MacroBase is *one* typed dataflow — `Ingestor → Transformer* →
//! Classifier → Explainer` — that the same query can execute one-shot,
//! streaming, or scaled out. This module is that claim made concrete:
//!
//! * [`AnalysisConfig`] holds the backend-independent *what* of a query:
//!   estimator selection, the target score percentile, explanation
//!   thresholds, attribute names, and report shaping flags.
//! * [`MdpQuery`] composes an [`AnalysisConfig`] with the optional
//!   transformer chain and classifier stages (unsupervised, rule-based, or
//!   both OR-ed — the hybrid supervision pattern).
//! * [`Executor`] names the *how*: [`Executor::OneShot`],
//!   [`Executor::Coordinated`], [`Executor::NaivePartitioned`], or
//!   [`Executor::Streaming`] (whose per-backend knobs live in
//!   [`StreamingOptions`]). Every backend consumes the same query — from a
//!   stored slice ([`MdpQuery::execute`]) or any [`Ingestor`]
//!   ([`MdpQuery::execute_ingest`]) — and returns one unified
//!   [`MdpReport`].
//!
//! Backend knobs live *in the executor*, not the query, so "streaming
//! knobs on a batch backend" is unrepresentable; the remaining
//! query/backend mismatches (score retention and training-sample caps have
//! no meaning on an unbounded stream, batch transformer chains would make
//! stream results depend on ingestion batching) surface as typed
//! [`PipelineError`] values rather than silent drift.
//!
//! ```
//! use macrobase_core::query::{AnalysisConfig, Executor, MdpQuery};
//! use macrobase_core::types::Point;
//!
//! let mut points: Vec<Point> = (0..2_000)
//!     .map(|i| Point::simple(10.0 + (i % 7) as f64 * 0.2, format!("device_{}", i % 20)))
//!     .collect();
//! for i in 0..20 {
//!     points[i * 100] = Point::simple(90.0, "device_13");
//! }
//!
//! let mut query = MdpQuery::new(AnalysisConfig::default());
//! let report = query.execute(&Executor::OneShot, &points).unwrap();
//! assert!(report.num_outliers > 0);
//!
//! // The same query scales out without changing its answer.
//! let mut query = MdpQuery::new(AnalysisConfig::default());
//! let scaled = query
//!     .execute(&Executor::Coordinated { partitions: 4 }, &points)
//!     .unwrap();
//! assert_eq!(scaled.num_outliers, report.num_outliers);
//! ```

use crate::executor::{
    check_dimensions, execute_naive, execute_with_model, flatten_metrics, train_and_execute,
    train_model, FittedModel, QueryParts,
};
use crate::operator::{check_columns, ColumnarInput, EncodedBatch, Ingestor, Transformer};
use crate::streaming::StreamingSession;
use crate::types::{MdpReport, Point};
use crate::{PipelineError, Result};
use mb_classify::rule::RuleClassifier;
use mb_classify::streaming::WARMUP_POINTS;
use mb_explain::ExplanationConfig;
use mb_obs::TraceBuilder;
use std::borrow::Cow;

/// Which robust estimator the classification stage uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// MAD for univariate queries, MCD for multivariate (the MDP default).
    Auto,
    /// Force MAD (univariate only).
    Mad,
    /// Force FastMCD.
    Mcd,
    /// Force the non-robust Z-score baseline (univariate only; used by the
    /// Figure 3 comparison).
    ZScore,
}

impl EstimatorKind {
    /// Resolve [`Auto`] to a concrete estimator for `dim`-dimensional
    /// metrics. This is THE selection rule — every executor (one-shot,
    /// partitioned, and streaming) dispatches through it so the modes
    /// cannot diverge.
    ///
    /// [`Auto`]: EstimatorKind::Auto
    pub(crate) fn resolve(self, dim: usize) -> EstimatorKind {
        match self {
            EstimatorKind::Auto => {
                if dim == 1 {
                    EstimatorKind::Mad
                } else {
                    EstimatorKind::Mcd
                }
            }
            concrete => concrete,
        }
    }
}

/// The backend-independent configuration of an MDP query: what to compute,
/// regardless of which [`Executor`] computes it.
#[derive(Debug, Clone)]
pub struct AnalysisConfig {
    /// Estimator selection.
    pub estimator: EstimatorKind,
    /// Score percentile above which points are outliers (paper default 0.99).
    pub target_percentile: f64,
    /// Explanation thresholds (support / risk ratio).
    pub explanation: ExplanationConfig,
    /// Optional cap on training sample size (Figure 9). Batch backends only;
    /// a cap of zero fails the fit.
    pub training_sample_size: Option<usize>,
    /// Optional human-readable attribute column names for rendered output.
    pub attribute_names: Vec<String>,
    /// Whether to retain every point's score in the report (Figure 7 needs
    /// this; large runs usually do not). Batch backends only.
    pub retain_scores: bool,
    /// Whether to retain the input-order indices of outlier-labeled points in
    /// [`MdpReport::outlier_rows`]. Labeled-workload accuracy harnesses (the
    /// `quality_matrix` scenario corpus) score point-level precision/recall
    /// against these. Supported on every backend — unlike full score
    /// retention, the retained state is bounded by the outlier count, so the
    /// streaming backend accepts it too.
    pub retain_outlier_rows: bool,
    /// Whether to skip explanation entirely (Table 2 reports throughput both
    /// with and without explanation).
    pub skip_explanation: bool,
    /// Telemetry switch. Off by default: reports carry `trace: None` and
    /// stay byte-identical to pre-telemetry output. When enabled, every
    /// backend attaches a [`mb_obs::QueryTrace`] (per-stage wall times,
    /// row/batch movement, merged pool and engine counters) to
    /// [`MdpReport::trace`].
    pub obs: mb_obs::ObsConfig,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            estimator: EstimatorKind::Auto,
            target_percentile: 0.99,
            explanation: ExplanationConfig::default(),
            training_sample_size: None,
            attribute_names: Vec::new(),
            retain_scores: false,
            retain_outlier_rows: false,
            skip_explanation: false,
            obs: mb_obs::ObsConfig::default(),
        }
    }
}

impl AnalysisConfig {
    /// Reject values no executor can run faithfully, naming the field: a
    /// percentile outside [0, 1], a training sample of zero points, a
    /// support outside [0, 1] and a NaN risk ratio. Every executor runs
    /// this before it touches a row, and a served submission before it is
    /// admitted.
    pub fn validate(&self) -> Result<()> {
        let invalid = |field: &str, rule: &str, got: &dyn std::fmt::Display| {
            Err(PipelineError::InvalidConfiguration(format!(
                "{field} must be {rule}, got {got}"
            )))
        };
        if !(0.0..=1.0).contains(&self.target_percentile) {
            return invalid("target_percentile", "in [0, 1]", &self.target_percentile);
        }
        if self.training_sample_size == Some(0) {
            return invalid("training_sample_size", "positive", &0);
        }
        let thresholds = &self.explanation;
        if !(0.0..=1.0).contains(&thresholds.min_support) {
            return invalid("min_support", "in [0, 1]", &thresholds.min_support);
        }
        if thresholds.min_risk_ratio.is_nan() {
            return invalid("min_risk_ratio", "a number", &thresholds.min_risk_ratio);
        }
        Ok(())
    }
}

/// Per-backend knobs of the streaming (EWS) executor: reservoir sizing and
/// decay cadence (Sections 4.2 and 5.3).
#[derive(Debug, Clone, PartialEq)]
pub struct StreamingOptions {
    /// Reservoir / sketch sizes (paper default 10K; at most 1,048,576). A
    /// query with an unsupervised stage needs at least
    /// [`WARMUP_POINTS`] (100), the classifier's warm-up; a rule-only query
    /// takes any size from 1.
    pub reservoir_size: usize,
    /// Decay rate applied at each period boundary (paper default 0.01).
    pub decay_rate: f64,
    /// Number of points between decay period boundaries (paper default 100K).
    pub decay_period: u64,
    /// Number of points between model retrainings.
    pub retrain_period: u64,
    /// RNG seed for the reservoirs.
    pub seed: u64,
}

impl Default for StreamingOptions {
    fn default() -> Self {
        StreamingOptions {
            reservoir_size: 10_000,
            decay_rate: 0.01,
            decay_period: 100_000,
            retrain_period: 10_000,
            seed: 0xE75,
        }
    }
}

/// The largest `reservoir_size` a streaming query accepts, 100× the paper's
/// 10K default. The reservoirs and the M-CPS trees' sketches allocate for it
/// up front, so an unbounded size off the wire would abort the process.
const MAX_RESERVOIR_SIZE: usize = 1 << 20;

impl StreamingOptions {
    /// Reject values the streaming engine's sketches and trees assert
    /// against (they arrive off the wire), naming the field.
    fn validate(&self) -> Result<()> {
        let invalid = |field: &str, rule: &str, got: &dyn std::fmt::Display| {
            Err(PipelineError::InvalidConfiguration(format!(
                "streaming option {field} must be {rule}, got {got}"
            )))
        };
        if !(1..=MAX_RESERVOIR_SIZE).contains(&self.reservoir_size) {
            let rule = format!("in [1, {MAX_RESERVOIR_SIZE}]");
            return invalid("reservoir_size", &rule, &self.reservoir_size);
        }
        if !(0.0..1.0).contains(&self.decay_rate) {
            return invalid("decay_rate", "in [0, 1)", &self.decay_rate);
        }
        if self.decay_period < 1 {
            return invalid("decay_period", "at least 1", &self.decay_period);
        }
        if self.retrain_period < 1 {
            return invalid("retrain_period", "at least 1", &self.retrain_period);
        }
        Ok(())
    }
}

/// An execution backend for an [`MdpQuery`]. All four modes consume the same
/// query and produce the same unified [`MdpReport`] shape.
#[derive(Debug, Clone, PartialEq)]
pub enum Executor {
    /// Run on the calling thread over the whole stored batch: the semantics
    /// reference every other mode is measured against.
    OneShot,
    /// Scale-out that coordinates on what the answer needs: one shared
    /// model, one global threshold and global support counts. On one box
    /// the one-shot engine already keeps all three and runs its kernels on
    /// the shared pool, so this variant runs the one-shot engine, and its
    /// report is the one-shot report at any partition count.
    Coordinated {
        /// Number of partitions, kept for the wire protocol and the
        /// scale-out harnesses; it changes neither the result nor the work.
        partitions: usize,
    },
    /// The paper's preliminary shared-nothing scale-out (Appendix D /
    /// Figure 11): independent per-partition queries whose *rendered*
    /// explanations are unioned. Fast, but accuracy degrades with partition
    /// count. The unified report carries the union; per-partition reports are
    /// preserved in [`MdpReport::partition_reports`].
    NaivePartitioned {
        /// Number of partitions; `0` means one per pool worker.
        partitions: usize,
    },
    /// Exponentially weighted streaming (EWS) execution: ADR-trained
    /// classifier, AMC + M-CPS explainer, decay period boundaries. Rows are
    /// labeled and written into the explainer in input order, in blocks:
    /// the labels of one block are computed while the explainer takes the
    /// block before it.
    Streaming {
        /// Reservoir sizing and decay cadence.
        options: StreamingOptions,
    },
}

impl Executor {
    /// Streaming executor with default (paper) knobs.
    pub fn streaming() -> Executor {
        Executor::Streaming {
            options: StreamingOptions::default(),
        }
    }

    /// Short backend name used in errors and logs.
    pub fn name(&self) -> &'static str {
        match self {
            Executor::OneShot => "one-shot",
            Executor::Coordinated { .. } => "coordinated",
            Executor::NaivePartitioned { .. } => "naive-partitioned",
            Executor::Streaming { .. } => "streaming",
        }
    }
}

/// A complete MDP query specification: analysis configuration, optional
/// transformer chain, and the classifier stages. Build one with
/// [`MdpQuery::builder`], then hand it to any [`Executor`].
pub struct MdpQuery {
    pub(crate) analysis: AnalysisConfig,
    pub(crate) transformers: Vec<Box<dyn Transformer>>,
    pub(crate) rule: Option<RuleClassifier>,
    pub(crate) unsupervised: bool,
}

impl MdpQuery {
    /// A query with the given analysis configuration, the unsupervised
    /// classifier, and no transformers (the common case).
    pub fn new(analysis: AnalysisConfig) -> Self {
        MdpQuery {
            analysis,
            transformers: Vec::new(),
            rule: None,
            unsupervised: true,
        }
    }

    /// A query with default (paper) parameters.
    pub fn with_defaults() -> Self {
        Self::new(AnalysisConfig::default())
    }

    /// Start building a query.
    pub fn builder() -> MdpQueryBuilder {
        MdpQueryBuilder::new()
    }

    /// The query's analysis configuration.
    pub fn analysis(&self) -> &AnalysisConfig {
        &self.analysis
    }

    pub(crate) fn parts(&self) -> QueryParts<'_> {
        QueryParts {
            analysis: &self.analysis,
            rule: self.rule.as_ref(),
            unsupervised: self.unsupervised,
        }
    }

    /// Reject query/backend combinations that cannot be executed faithfully.
    fn check_backend(&self, executor: &Executor) -> Result<()> {
        self.analysis.validate()?;
        if let Executor::Streaming { options } = executor {
            options.validate()?;
            // The streaming explainer's trees take support as a fraction of
            // the decayed stream and assert it is one.
            let min_support = self.analysis.explanation.min_support;
            if !(min_support > 0.0 && min_support < 1.0) {
                return Err(PipelineError::InvalidConfiguration(format!(
                    "streaming min_support must be in (0, 1), got {min_support}"
                )));
            }
            // The classifier trains once its reservoir holds the warm-up,
            // so a smaller reservoir would never label an outlier. A
            // rule-only query builds no classifier.
            if self.unsupervised && options.reservoir_size < WARMUP_POINTS {
                return Err(PipelineError::InvalidConfiguration(format!(
                    "streaming option reservoir_size must be at least {WARMUP_POINTS} \
                     for an unsupervised query, got {}",
                    options.reservoir_size
                )));
            }
            if self.analysis.retain_scores {
                return Err(PipelineError::UnsupportedByBackend {
                    feature: "retain_scores",
                    backend: executor.name(),
                });
            }
            if self.analysis.training_sample_size.is_some() {
                return Err(PipelineError::UnsupportedByBackend {
                    feature: "training_sample_size",
                    backend: executor.name(),
                });
            }
            // Transformers are batch operators: on an unbounded stream their
            // output would depend on how the source happens to batch the
            // input — silent drift from an ingestion knob. Rejecting them
            // keeps one semantics per query; apply stream transforms
            // upstream of ingestion or use a batch backend.
            if !self.transformers.is_empty() {
                return Err(PipelineError::UnsupportedByBackend {
                    feature: "transformer chain",
                    backend: executor.name(),
                });
            }
        }
        Ok(())
    }

    /// Run the transformer chain over a borrowed batch, cloning only when
    /// the query actually has transformers.
    fn transformed<'a>(&mut self, points: &'a [Point]) -> Cow<'a, [Point]> {
        if self.transformers.is_empty() {
            Cow::Borrowed(points)
        } else {
            Cow::Owned(self.transform_owned(points.to_vec()))
        }
    }

    fn transform_owned(&mut self, mut points: Vec<Point>) -> Vec<Point> {
        for t in self.transformers.iter_mut() {
            points = t.transform(points);
        }
        points
    }

    /// Dispatch an already-transformed batch to a batch backend: the
    /// naïve engine splits the rows, the others run the one-shot engine on
    /// them in columns.
    fn dispatch_batch(&self, executor: &Executor, input: &[Point]) -> Result<MdpReport> {
        if let Executor::NaivePartitioned { partitions } = executor {
            return execute_naive(self.parts(), input, *partitions);
        }
        let mut columns = ColumnarInput::new(&self.analysis, executor);
        columns.fill(&self.analysis, input)?;
        train_and_execute(self.parts(), &mut columns)
    }

    /// Execute the query over a stored batch of points.
    ///
    /// The transformer chain runs over the whole batch first (so windowed
    /// batch transformers see everything), then the chosen backend
    /// classifies and explains. The streaming backend rejects transformer
    /// chains with a typed error (their output would otherwise depend on
    /// batching). Takes `&mut self` because transformers are stateful.
    pub fn execute(&mut self, executor: &Executor, points: &[Point]) -> Result<MdpReport> {
        self.check_backend(executor)?;
        match executor {
            Executor::Streaming { options } => {
                if points.is_empty() {
                    return Err(PipelineError::EmptyInput);
                }
                let mut session = StreamingSession::new(
                    &self.analysis,
                    options,
                    self.rule.clone(),
                    self.unsupervised,
                );
                session.feed(points)?;
                Ok(session.report())
            }
            batch_executor => {
                let input = self.transformed(points);
                self.dispatch_batch(batch_executor, &input)
            }
        }
    }

    /// Execute the query over any [`Ingestor`] source.
    ///
    /// Batch backends materialize the source and behave exactly like
    /// [`execute`]; the streaming backend observes points incrementally,
    /// never holding the whole stream. Because a transformer chain's output
    /// would depend on how the source batches the stream, the streaming
    /// backend rejects it with a typed error — results never drift with an
    /// ingestion knob.
    ///
    /// [`execute`]: MdpQuery::execute
    pub fn execute_ingest(
        &mut self,
        executor: &Executor,
        source: &mut dyn Ingestor,
    ) -> Result<MdpReport> {
        self.check_backend(executor)?;
        match executor {
            Executor::Streaming { options } => {
                let mut session = StreamingSession::new(
                    &self.analysis,
                    options,
                    self.rule.clone(),
                    self.unsupervised,
                );
                let mut saw_points = false;
                while let Some(batch) = source.next_batch()? {
                    saw_points |= !batch.is_empty();
                    session.feed(&batch)?;
                }
                if !saw_points {
                    return Err(PipelineError::EmptyInput);
                }
                Ok(session.report())
            }
            // Without a transformer chain the one-shot engine (which
            // coordinated runs too) takes the columnar fast path: ingest
            // pre-encoded batches (metrics flat, attributes interned straight
            // into the query's dictionary) and never materialize a `Point`.
            // Encoding order equals ingestion order, so the report — ids,
            // scores, threshold, explanations — is exactly what the
            // materializing path below produces.
            Executor::OneShot | Executor::Coordinated { .. } if self.transformers.is_empty() => {
                let mut input = ColumnarInput::new(&self.analysis, executor);
                let timer = input.trace.start();
                let mut batches = 0usize;
                while let Some(batch) = source.next_encoded_batch(&mut input.encoder)? {
                    input.batch.append(batch)?;
                    batches += 1;
                }
                if input.batch.is_empty() {
                    return Err(PipelineError::EmptyInput);
                }
                // The fast path encodes *during* ingestion, so one span
                // covers both stages of the paper pipeline.
                let rows = input.batch.len();
                input
                    .trace
                    .finish_stage(timer, mb_obs::stage::Stage::Ingest, rows, rows, batches);
                train_and_execute(self.parts(), &mut input)
            }
            batch_executor => {
                let mut all = Vec::new();
                while let Some(batch) = source.next_batch()? {
                    all.extend(batch);
                }
                // The source's batches are already owned, so the transformer
                // chain runs in place — no second copy of the materialized
                // input.
                let all = self.transform_owned(all);
                self.dispatch_batch(batch_executor, &all)
            }
        }
    }

    /// The analysis is validated as every executor validates it. Transformer
    /// chains are stateful batch operators; a model fitted on one chain
    /// state would silently disagree with a fresh execution, so the
    /// train/score split rejects them with a typed error.
    fn check_model_compatible(&self) -> Result<()> {
        self.analysis.validate()?;
        if !self.transformers.is_empty() {
            return Err(PipelineError::UnsupportedByBackend {
                feature: "transformer chain",
                backend: "pre-trained model",
            });
        }
        Ok(())
    }

    /// Fit this query's classification model over a batch without
    /// classifying or explaining anything — the train half of the one-shot
    /// engine, split out so a model can be fitted once and shared (see
    /// [`FittedModel`]). An adaptor: the metrics are flattened and fitted
    /// as [`train_columns`] fits a batch's.
    ///
    /// Training is deterministic: the same query and batch always produce
    /// the same model, and [`execute_with_model`] over the training batch
    /// reproduces [`execute`] with [`Executor::OneShot`] byte for byte.
    /// Queries with transformer chains are rejected with a typed error.
    ///
    /// [`execute`]: MdpQuery::execute
    /// [`execute_with_model`]: MdpQuery::execute_with_model
    /// [`train_columns`]: MdpQuery::train_columns
    pub fn train(&self, points: &[Point]) -> Result<FittedModel> {
        self.check_model_compatible()?;
        let dim = check_dimensions(points)?;
        let flat = flatten_metrics(points, dim);
        let (model, _) = train_model(self.parts(), &flat, dim, &mut TraceBuilder::disabled())?;
        Ok(model)
    }

    /// [`train`](MdpQuery::train) over a columnar batch: only its metrics
    /// are read.
    pub fn train_columns(&self, batch: &EncodedBatch) -> Result<FittedModel> {
        self.check_model_compatible()?;
        check_columns(batch)?;
        let (model, _) =
            train_model(self.parts(), &batch.metrics, batch.dim, &mut TraceBuilder::disabled())?;
        Ok(model)
    }

    /// Execute one-shot classification and explanation against a
    /// pre-trained model instead of fitting one — the score half of the
    /// train/score split (see [`MdpQuery::train`]). An adaptor: the points
    /// are flattened and encoded ([`ColumnarInput::from_points`]) and run
    /// through the engine behind [`execute_columns_with_model`].
    ///
    /// The batch's dimensionality must match the model's, and the model's
    /// classification stages must match the query's (both unsupervised or
    /// both rule-only); mismatches are typed errors. Takes `&self`: with no
    /// transformer chain (rejected with a typed error) the query holds no
    /// mutable state, so one query can score many batches concurrently.
    ///
    /// [`execute_columns_with_model`]: MdpQuery::execute_columns_with_model
    pub fn execute_with_model(&self, model: &FittedModel, points: &[Point]) -> Result<MdpReport> {
        self.check_model_compatible()?;
        let mut input = ColumnarInput::from_points(&self.analysis, &Executor::OneShot, points)?;
        execute_with_model(self.parts(), model, &mut input)
    }

    /// [`execute_with_model`](MdpQuery::execute_with_model) over an input
    /// already in columns, whose items were interned into `input.encoder`.
    /// The report goes out with the input's trace, so a second call on the
    /// same input is untraced; the batch and encoder stay with the caller.
    pub fn execute_columns_with_model(
        &self,
        model: &FittedModel,
        input: &mut ColumnarInput,
    ) -> Result<MdpReport> {
        self.check_model_compatible()?;
        execute_with_model(self.parts(), model, input)
    }

    /// Turn the query into an incremental streaming session
    /// ([`StreamingSession`]): feed it points as they arrive and render
    /// reports mid-stream (adaptivity experiments, live monitoring).
    /// Consumes the query.
    ///
    /// Subject to the same typed compatibility checks as
    /// [`Executor::Streaming`]: score retention, training-sample caps, and
    /// transformer chains (batch operators cannot run point-at-a-time) are
    /// rejected.
    pub fn into_streaming(self, options: &StreamingOptions) -> Result<StreamingSession> {
        self.check_backend(&Executor::Streaming {
            options: options.clone(),
        })?;
        Ok(StreamingSession::new(
            &self.analysis,
            options,
            self.rule,
            self.unsupervised,
        ))
    }
}

impl std::fmt::Debug for MdpQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MdpQuery")
            .field("analysis", &self.analysis)
            .field("num_transformers", &self.transformers.len())
            .field("rule", &self.rule)
            .field("unsupervised", &self.unsupervised)
            .finish()
    }
}

/// Builder for [`MdpQuery`]. Validates the specification at
/// [`build`](MdpQueryBuilder::build) time so misconfigurations surface as
/// typed errors before any data is touched.
pub struct MdpQueryBuilder {
    analysis: AnalysisConfig,
    transformers: Vec<Box<dyn Transformer>>,
    rule: Option<RuleClassifier>,
    unsupervised: bool,
}

impl Default for MdpQueryBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl MdpQueryBuilder {
    /// Start with default analysis parameters and the unsupervised
    /// classifier enabled.
    pub(crate) fn new() -> Self {
        MdpQueryBuilder {
            analysis: AnalysisConfig::default(),
            transformers: Vec::new(),
            rule: None,
            unsupervised: true,
        }
    }

    /// Select the estimator.
    pub fn estimator(mut self, estimator: EstimatorKind) -> Self {
        self.analysis.estimator = estimator;
        self
    }

    /// Set the target outlier score percentile (in `[0, 1]`).
    pub fn target_percentile(mut self, percentile: f64) -> Self {
        self.analysis.target_percentile = percentile;
        self
    }

    /// Set the explanation thresholds.
    pub fn explanation(mut self, explanation: ExplanationConfig) -> Self {
        self.analysis.explanation = explanation;
        self
    }

    /// Name the attribute columns for rendered output.
    pub fn attribute_names(mut self, names: Vec<String>) -> Self {
        self.analysis.attribute_names = names;
        self
    }

    /// Cap the training sample size (Figure 9).
    pub fn training_sample_size(mut self, size: usize) -> Self {
        self.analysis.training_sample_size = Some(size);
        self
    }

    /// Retain every point's score in the report (Figure 7).
    pub fn retain_scores(mut self) -> Self {
        self.analysis.retain_scores = true;
        self
    }

    /// Retain the input-order indices of outlier-labeled points in
    /// [`MdpReport::outlier_rows`] (accuracy scoring against labeled
    /// ground truth). Supported on every backend.
    pub fn retain_outlier_rows(mut self) -> Self {
        self.analysis.retain_outlier_rows = true;
        self
    }

    /// Skip the explanation stage entirely (Table 2 throughput runs).
    pub fn skip_explanation(mut self) -> Self {
        self.analysis.skip_explanation = true;
        self
    }

    /// Set the telemetry switch ([`AnalysisConfig::obs`]).
    pub fn obs(mut self, obs: mb_obs::ObsConfig) -> Self {
        self.analysis.obs = obs;
        self
    }

    /// Enable telemetry: the report will carry a populated
    /// [`MdpReport::trace`].
    pub fn traced(self) -> Self {
        self.obs(mb_obs::ObsConfig::enabled())
    }

    /// Append a feature transformation stage (applied in insertion order).
    pub fn transform(mut self, transformer: Box<dyn Transformer>) -> Self {
        self.transformers.push(transformer);
        self
    }

    /// Add a supervised rule classifier whose outlier labels are OR-ed with
    /// the unsupervised classifier's (the hybrid supervision pattern).
    pub fn supervised_rule(mut self, rule: RuleClassifier) -> Self {
        self.rule = Some(rule);
        self
    }

    /// Disable the unsupervised classifier entirely (rule-only queries).
    pub fn without_unsupervised(mut self) -> Self {
        self.unsupervised = false;
        self
    }

    /// Validate and finish building.
    pub fn build(self) -> Result<MdpQuery> {
        if !self.unsupervised && self.rule.is_none() {
            return Err(PipelineError::MissingClassifier);
        }
        self.analysis.validate()?;
        Ok(MdpQuery {
            analysis: self.analysis,
            transformers: self.transformers,
            rule: self.rule,
            unsupervised: self.unsupervised,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::MapTransformer;
    use mb_classify::rule::{Comparison, RuleClassifier};

    fn planted_points(n: usize) -> Vec<Point> {
        let mut points: Vec<Point> = (0..n)
            .map(|i| {
                Point::new(
                    vec![10.0 + (i % 9) as f64 * 0.2],
                    vec![format!("device_{}", i % 40)],
                )
            })
            .collect();
        for i in 0..(n / 100) {
            points[i * 100] = Point::new(vec![400.0], vec!["device_bad".to_string()]);
        }
        points
    }

    #[test]
    fn builder_rejects_classifierless_query() {
        let result = MdpQuery::builder().without_unsupervised().build();
        assert!(matches!(result, Err(PipelineError::MissingClassifier)));
    }

    #[test]
    fn builder_rejects_invalid_percentile() {
        let result = MdpQuery::builder().target_percentile(1.5).build();
        assert!(matches!(
            result,
            Err(PipelineError::InvalidConfiguration(_))
        ));
    }

    #[test]
    fn streaming_backend_rejects_batch_only_knobs() {
        let points = planted_points(1_000);
        let mut query = MdpQuery::builder().retain_scores().build().unwrap();
        assert!(matches!(
            query.execute(&Executor::streaming(), &points),
            Err(PipelineError::UnsupportedByBackend {
                feature: "retain_scores",
                ..
            })
        ));
        let mut query = MdpQuery::builder()
            .training_sample_size(100)
            .build()
            .unwrap();
        assert!(matches!(
            query.execute(&Executor::streaming(), &points),
            Err(PipelineError::UnsupportedByBackend {
                feature: "training_sample_size",
                ..
            })
        ));
    }

    #[test]
    fn invalid_streaming_options_are_typed_errors_naming_the_field() {
        let base = StreamingOptions::default;
        let cases = [
            ("reservoir_size", StreamingOptions { reservoir_size: 0, ..base() }),
            ("reservoir_size", StreamingOptions { reservoir_size: 99, ..base() }),
            ("reservoir_size", StreamingOptions { reservoir_size: (1 << 20) + 1, ..base() }),
            ("reservoir_size", StreamingOptions { reservoir_size: usize::MAX, ..base() }),
            ("decay_rate", StreamingOptions { decay_rate: 1.5, ..base() }),
            ("decay_rate", StreamingOptions { decay_rate: 1.0, ..base() }),
            ("decay_rate", StreamingOptions { decay_rate: -0.1, ..base() }),
            ("decay_rate", StreamingOptions { decay_rate: f64::NAN, ..base() }),
            ("decay_period", StreamingOptions { decay_period: 0, ..base() }),
            ("retrain_period", StreamingOptions { retrain_period: 0, ..base() }),
        ];
        let points = planted_points(500);
        for (field, options) in cases {
            let names_field = |result: Result<()>| match result {
                Err(PipelineError::InvalidConfiguration(message)) => message.contains(field),
                _ => false,
            };
            let session = MdpQuery::with_defaults().into_streaming(&options);
            assert!(names_field(session.map(|_| ())), "into_streaming, {field}");
            let executor = Executor::Streaming { options };
            let report = MdpQuery::with_defaults().execute(&executor, &points);
            assert!(names_field(report.map(|_| ())), "execute, {field}");
        }
        // The edges of the valid ranges are accepted.
        let edge = StreamingOptions {
            reservoir_size: 100,
            decay_rate: 0.0,
            decay_period: 1,
            retrain_period: 1,
            ..base()
        };
        assert!(MdpQuery::with_defaults().into_streaming(&edge).is_ok());
        // A rule-only query builds no classifier, so it needs no warm-up:
        // a one-point reservoir still opens and labels by its rule.
        let tiny = StreamingOptions {
            reservoir_size: 1,
            ..base()
        };
        let rule_only = MdpQuery::builder()
            .without_unsupervised()
            .supervised_rule(RuleClassifier::single(0, Comparison::GreaterThan, 100.0))
            .build()
            .unwrap();
        let mut session = rule_only.into_streaming(&tiny).unwrap();
        let label = session.observe(&Point::simple(150.0, "a")).unwrap();
        assert_eq!(label, crate::Label::Outlier);

        for min_support in [0.0, 1.0, f64::NAN] {
            let query = MdpQuery::new(AnalysisConfig {
                explanation: ExplanationConfig::new(min_support, 3.0),
                ..AnalysisConfig::default()
            });
            assert!(matches!(
                query.into_streaming(&base()),
                Err(PipelineError::InvalidConfiguration(message)) if message.contains("min_support")
            ));
        }
    }

    #[test]
    fn a_streaming_target_percentile_outside_the_unit_interval_is_refused_up_front() {
        let points = planted_points(500);
        for percentile in [1.5, -0.1, f64::NAN] {
            let query = || {
                MdpQuery::new(AnalysisConfig {
                    target_percentile: percentile,
                    ..AnalysisConfig::default()
                })
            };
            let names_field = |result: Result<()>| {
                matches!(result, Err(PipelineError::InvalidConfiguration(message))
                    if message.contains("target_percentile"))
            };
            let session = query().into_streaming(&StreamingOptions::default());
            assert!(
                names_field(session.map(|_| ())),
                "into_streaming, {percentile}"
            );
            let report = query().execute(&Executor::streaming(), &points);
            assert!(names_field(report.map(|_| ())), "execute, {percentile}");
        }
        // The edges are accepted, and a session at one takes points.
        for percentile in [0.0, 1.0] {
            let analysis = AnalysisConfig {
                target_percentile: percentile,
                ..AnalysisConfig::default()
            };
            let mut session = MdpQuery::new(analysis)
                .into_streaming(&StreamingOptions::default())
                .unwrap();
            session.feed(&points).unwrap();
            assert_eq!(session.points_seen(), 500);
        }
    }

    #[test]
    fn streaming_session_rejects_transformer_chains() {
        let query = MdpQuery::builder()
            .transform(Box::new(MapTransformer::new(|p: Point| p)))
            .build()
            .unwrap();
        assert!(matches!(
            query.into_streaming(&StreamingOptions::default()),
            Err(PipelineError::UnsupportedByBackend {
                feature: "transformer chain",
                ..
            })
        ));
    }

    #[test]
    fn all_four_executors_accept_the_same_query() {
        let points = planted_points(5_000);
        let executors = [
            Executor::OneShot,
            Executor::Coordinated { partitions: 4 },
            Executor::NaivePartitioned { partitions: 4 },
            Executor::streaming(),
        ];
        for executor in &executors {
            let mut query = MdpQuery::with_defaults();
            let report = query.execute(executor, &points).unwrap();
            assert_eq!(report.num_points, 5_000, "{} lost points", executor.name());
            assert!(
                report.num_outliers > 0,
                "{} found no outliers",
                executor.name()
            );
        }
    }

    #[test]
    fn empty_input_is_an_error_on_every_backend() {
        for executor in [
            Executor::OneShot,
            Executor::Coordinated { partitions: 2 },
            Executor::NaivePartitioned { partitions: 2 },
            Executor::streaming(),
        ] {
            let mut query = MdpQuery::with_defaults();
            assert!(
                matches!(query.execute(&executor, &[]), Err(PipelineError::EmptyInput)),
                "{} accepted empty input",
                executor.name()
            );
        }
        // So is a batch a transformer empties, and a ragged batch is typed
        // too, on every batch backend.
        let ragged = vec![
            Point::new(vec![1.0], vec!["a".to_string()]),
            Point::new(vec![1.0, 2.0], vec!["a".to_string()]),
        ];
        struct Emptying;
        impl Transformer for Emptying {
            fn transform(&mut self, _: Vec<Point>) -> Vec<Point> {
                Vec::new()
            }
        }
        for executor in [
            Executor::OneShot,
            Executor::Coordinated { partitions: 1 },
            Executor::NaivePartitioned { partitions: 1 },
        ] {
            let mut emptied = MdpQuery::builder()
                .transform(Box::new(Emptying))
                .build()
                .unwrap();
            assert!(
                matches!(
                    emptied.execute(&executor, &planted_points(10)),
                    Err(PipelineError::EmptyInput)
                ),
                "{} accepted an emptied batch",
                executor.name()
            );
            assert!(
                matches!(
                    MdpQuery::with_defaults().execute(&executor, &ragged),
                    Err(PipelineError::InconsistentDimensions {
                        expected: 1,
                        actual: 2
                    })
                ),
                "{} accepted ragged metrics",
                executor.name()
            );
        }
    }

    #[test]
    fn rule_only_query_runs_on_batch_backends() {
        let mut points = planted_points(1_000);
        points[0] = Point::new(vec![1_000.0], vec!["device_x".to_string()]);
        for executor in [
            Executor::OneShot,
            Executor::Coordinated { partitions: 3 },
            Executor::NaivePartitioned { partitions: 3 },
        ] {
            let mut query = MdpQuery::builder()
                .without_unsupervised()
                .supervised_rule(RuleClassifier::single(0, Comparison::GreaterThan, 500.0))
                .build()
                .unwrap();
            let report = query.execute(&executor, &points).unwrap();
            // 10 planted 400.0 points fail the rule; only the 1000.0 one hits.
            assert_eq!(
                report.num_outliers,
                1,
                "{} mislabeled rule-only outliers",
                executor.name()
            );
            assert_eq!(report.score_cutoff, None);
        }
    }

    #[test]
    fn transformer_chain_runs_before_classification() {
        // Squaring turns modest values (30 -> 900) into extremes relative to
        // the squared background (~100): the transform must run for
        // device_hot to be explained.
        let mut points: Vec<Point> = (0..5_000)
            .map(|i| {
                Point::new(
                    vec![10.0 + (i % 7) as f64 * 0.3],
                    vec![format!("device_{}", i % 40)],
                )
            })
            .collect();
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
    fn mid_stream_ingestion_failure_fails_the_query() {
        // A source that errors after one batch must fail the query loudly,
        // not produce a report over the truncated prefix.
        struct FlakySource {
            yielded: bool,
        }
        impl crate::operator::Ingestor for FlakySource {
            fn next_batch(&mut self) -> crate::Result<Option<Vec<Point>>> {
                if self.yielded {
                    Err(PipelineError::Ingest("disk on fire".into()))
                } else {
                    self.yielded = true;
                    Ok(Some(planted_points(500)))
                }
            }
        }
        for executor in [Executor::OneShot, Executor::streaming()] {
            let mut query = MdpQuery::with_defaults();
            let mut source = FlakySource { yielded: false };
            assert!(
                matches!(
                    query.execute_ingest(&executor, &mut source),
                    Err(PipelineError::Ingest(_))
                ),
                "{} swallowed the ingestion failure",
                executor.name()
            );
        }
    }

    #[test]
    fn ingestor_and_slice_execution_agree() {
        use crate::operator::VecIngestor;
        let points = planted_points(4_000);
        let mut by_slice = MdpQuery::with_defaults();
        let slice_report = by_slice.execute(&Executor::OneShot, &points).unwrap();
        let mut by_ingest = MdpQuery::with_defaults();
        let mut source = VecIngestor::new(points, 512);
        let ingest_report = by_ingest
            .execute_ingest(&Executor::OneShot, &mut source)
            .unwrap();
        assert_eq!(slice_report.num_outliers, ingest_report.num_outliers);
        assert_eq!(slice_report.score_cutoff, ingest_report.score_cutoff);
        assert_eq!(
            slice_report.explanations.len(),
            ingest_report.explanations.len()
        );
    }
}
