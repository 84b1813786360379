//! The layer run (`--trace 1`): a stopwatch around calls into each crate's
//! public functions, on the workload's own inputs.
//!
//! Spans are taken here, from outside the layers; the program's own
//! `QueryTrace` is read too (the `core.trace_*` rows) but nothing inside the
//! crates is instrumented by this package. Every metric is produced for
//! every workload — the probes run on that workload's rows and shape — so
//! `mb-stats.train_ms` is MAD over 1M×1 on `csv_simple`, FastMCD over 250K×7
//! on `mem_mcd`, and FastMCD over 5K×3 on `serve_mixed`.
//!
//! The hand-assembled parse → encode → fit → score → threshold → explain
//! must reach the outlier count and explanations of the query it decomposes;
//! that, and every other cross-check below, is an operation that can fail.

use crate::gen::{RowGen, WIDE};
use crate::serve::{self, Plan, Planned, RESIDENT};
use crate::stats::{median, now, percentile, timed};
use crate::workloads::{self, Kind, Spec};
use crate::{Args, Ctx};
use macrobase_core::parallel::default_num_partitions;
use macrobase_core::query::{AnalysisConfig, Executor};
use macrobase_core::types::{MdpReport, Point};
use macrobase_core::wire::{points_from_json, points_to_json, report_to_string};
use mb_classify::batch::{BatchClassifier, BatchClassifierConfig};
use mb_classify::streaming::{StreamingClassifier, StreamingClassifierConfig};
use mb_classify::threshold::StaticThreshold;
use mb_explain::batch::BatchExplainer;
use mb_explain::encoder::{encode_batch_parallel, AttributeEncoder};
use mb_explain::risk_ratio::rank_explanations;
use mb_explain::streaming::StreamingExplainer;
use mb_explain::ItemBatch;
use mb_fpgrowth::fptree::FpTree;
use mb_fpgrowth::mcps::McpsTree;
use mb_fpgrowth::Item;
use mb_ingest::csv::{CsvQuery, CsvReader};
use mb_serve::{Fingerprint, JobStatus, Priority, QuerySpec, ServeConfig, Server};
use mb_sketch::adr::{AdaptableDampedReservoir, DecayPolicy};
use mb_sketch::amc::AmcSketch;
use mb_sketch::quantile::AdrQuantileEstimator;
use mb_sketch::{HeavyHitterSketch, StreamSampler};
use mb_stats::mad::MadEstimator;
use mb_stats::mcd::McdEstimator;
use mb_stats::Estimator;
use std::fs::File;
use std::hint::black_box;
use std::io::BufReader;
use std::process::Command;
use std::time::Duration;

/// Every per-layer metric with its unit, in ledger order. `BENCHMARK.json`
/// lists the same names (a unit test keeps the two in step).
pub const METRICS: &[(&str, &str)] = &[
    ("mb-ingest.csv_ns_per_row", "ns"),
    ("mb-ingest.csv_mb_per_s", "MB/s"),
    ("mb-ingest.csv_wide_ns_per_row", "ns"),
    ("mb-explain.encode_ns_per_row", "ns"),
    ("mb-explain.encode_parallel_ns_per_row", "ns"),
    ("mb-explain.batch_explain_ms", "ms"),
    ("mb-explain.itemsets_out", "count"),
    ("mb-explain.stream_observe_ns", "ns"),
    ("mb-explain.stream_explain_ms", "ms"),
    ("mb-fpgrowth.fptree_build_ms", "ms"),
    ("mb-fpgrowth.fptree_mine_ms", "ms"),
    ("mb-fpgrowth.fptree_nodes", "count"),
    ("mb-fpgrowth.mcps_insert_ns", "ns"),
    ("mb-fpgrowth.mcps_mine_ms", "ms"),
    ("mb-fpgrowth.mcps_nodes", "count"),
    ("mb-sketch.amc_observe_ns", "ns"),
    ("mb-sketch.adr_insert_ns", "ns"),
    ("mb-sketch.quantile_observe_ns", "ns"),
    ("mb-stats.train_ms", "ms"),
    ("mb-stats.score_ns_per_row", "ns"),
    ("mb-classify.classify_ns_per_row", "ns"),
    ("mb-classify.threshold_ms", "ms"),
    ("mb-classify.stream_observe_ns", "ns"),
    ("core.wire_points_decode_ns_per_point", "ns"),
    ("core.wire_report_encode_us", "us"),
    ("core.query_ms", "ms"),
    ("core.glue_share", "ratio"),
    ("core.coordinated_ratio", "ratio"),
    ("core.single_thread_ratio", "ratio"),
    ("core.trace_flatten_ms", "ms"),
    ("core.trace_ingest_ms", "ms"),
    ("core.trace_encode_ms", "ms"),
    ("core.trace_train_ms", "ms"),
    ("core.trace_score_ms", "ms"),
    ("core.trace_explain_ms", "ms"),
    ("core.trace_merge_ms", "ms"),
    ("core.trace_coverage", "ratio"),
    ("mb-obs.trace_overhead_pct", "%"),
    ("mb-pool.tasks", "count"),
    ("mb-pool.steals", "events"),
    ("mb-pool.idle_parks", "events"),
    ("mb-serve.inproc_hit_ms", "ms"),
    ("mb-serve.inproc_miss_ms", "ms"),
    ("mb-serve.handle_line_hit_ms", "ms"),
    ("mb-serve.fingerprint_ns_per_point", "ns"),
    ("mb-serve.queue_wait_mean_us", "us"),
    ("mb-serve.exec_mean_ms", "ms"),
    ("mb-serve.hit_p50_ms", "ms"),
    ("mb-serve.miss_p50_ms", "ms"),
    ("mb-serve.latency_p95_ms", "ms"),
    ("mb-serve.latency_p99_ms", "ms"),
    ("mb-serve.cache_hits", "count"),
    ("mb-serve.cache_misses", "count"),
    ("mb-serve.model_trainings", "count"),
];

/// CSV rows parsed by workloads that do not query a file.
const CSV_PROBE_ROWS: usize = 200_000;
/// Rows pushed through the per-point streaming structures.
const STREAM_PROBE_ROWS: usize = 100_000;
/// Points per request in the serving probes of non-serving workloads.
const SERVE_PROBE_ROWS: usize = 5_000;
/// Requests of the windowed in-process probe.
const SERVE_PROBE_REQUESTS: usize = 60;
const SERVE_PROBE_DEPTH: usize = 4;
/// Requests sent to the binary, a fixed number so its counters repeat
/// exactly; p95 has ten samples beyond it.
const BINARY_PROBE_REQUESTS: usize = 200;
/// A probe repeats until its share of `--seconds` is spent, within these
/// limits: the first repetition of anything runs cold, so never fewer than
/// three.
const MIN_REPS: usize = 3;
const MAX_REPS: usize = 15;

pub struct LayerRun {
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

struct Recorder {
    values: Vec<(&'static str, f64)>,
    checks: u64,
    failed: u64,
    /// Seconds one probe may spend repeating itself.
    budget_s: f64,
}

impl Recorder {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.checks += 1;
        if !ok {
            self.failed += 1;
            eprintln!("benchmark: layer check failed: {what}");
        }
    }

    /// Repeat `rep`, which times its own measured part: the median of those
    /// seconds, and what the last repetition produced.
    fn probe<T>(
        &self,
        mut rep: impl FnMut() -> Result<(f64, T), String>,
    ) -> Result<(f64, T), String> {
        let start = now();
        let mut walls = Vec::new();
        loop {
            let (wall, out) = rep()?;
            walls.push(wall);
            let spent = start.elapsed().as_secs_f64() >= self.budget_s;
            if walls.len() >= MAX_REPS || (spent && walls.len() >= MIN_REPS) {
                return Ok((median(&walls), out));
            }
        }
    }

    /// [`probe`](Recorder::probe) for a repetition that is measured whole.
    fn time<T>(&self, mut f: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
        self.probe(|| {
            let (wall, out) = timed(&mut f);
            Ok((wall, out?))
        })
    }

    /// Every declared metric exactly once, in declaration order.
    fn finish(self) -> Result<LayerRun, String> {
        let mut metrics = Vec::new();
        for &(name, unit) in METRICS {
            let mut found = self.values.iter().filter(|(n, _)| *n == name);
            match (found.next(), found.next()) {
                (Some(&(_, value)), None) => metrics.push((name, value, unit)),
                _ => return Err(format!("layer metric {name} not recorded exactly once")),
            }
        }
        if metrics.len() != self.values.len() {
            return Err("an undeclared layer metric was recorded".to_string());
        }
        Ok(LayerRun {
            metrics,
            attempted: self.checks,
            failed: self.failed,
        })
    }
}

/// The rows a workload's probes run on: its first slice, which is what one
/// query (or stream, or request) reads.
fn layer_points(spec: &Spec, ctx: &Ctx) -> Vec<Point> {
    RowGen::new(ctx.seed).points(spec.scaled_rows(ctx), spec.shape)
}

fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The one-shot query the layer run decomposes: the CSV path for
/// `csv_simple`, the in-memory path for everything else.
fn query_report(
    spec: &Spec,
    ctx: &Ctx,
    analysis: &AnalysisConfig,
    points: &[Point],
) -> Result<MdpReport, String> {
    if spec.kind == Kind::CsvSimple {
        workloads::csv_report(spec, ctx, 0, analysis)
    } else {
        workloads::mem_report(analysis, &Executor::OneShot, points)
    }
}

fn parse_csv(path: &std::path::Path, query: &CsvQuery) -> Result<usize, String> {
    let mut reader =
        CsvReader::new(BufReader::new(File::open(path).map_err(err)?), query).map_err(err)?;
    let mut rows = 0;
    while let Some(record) = reader.next_record().map_err(err)? {
        black_box(&record);
        rows += 1;
    }
    Ok(rows)
}

/// `mb-ingest`: `CsvReader::next_record` over the workload's file — the real
/// one for `csv_simple`, a prefix of the same table otherwise. Returns the
/// seconds the projected parse takes per row.
fn ingest_layer(spec: &Spec, ctx: &Ctx, rows: usize, rec: &mut Recorder) -> Result<f64, String> {
    let path = workloads::csv_path(spec, ctx, 0);
    let megabytes = std::fs::metadata(&path).map_err(err)?.len() as f64 / 1e6;
    let wide = CsvQuery::new(WIDE.metric_columns(), WIDE.attribute_columns());
    let (projected, parsed) = rec.time(|| parse_csv(&path, &spec.csv_query()))?;
    let (all, parsed_wide) = rec.time(|| parse_csv(&path, &wide))?;
    rec.check("csv parse row count", parsed == rows && parsed_wide == rows);
    rec.set("mb-ingest.csv_ns_per_row", projected / rows as f64 * 1e9);
    rec.set("mb-ingest.csv_mb_per_s", megabytes / projected);
    rec.set("mb-ingest.csv_wide_ns_per_row", all / rows as f64 * 1e9);
    Ok(projected / rows as f64)
}

/// What the hand-assembled batch pipeline produced, for the cross-checks
/// and for the streaming probes that replay its labels.
struct Decomposed {
    batch: ItemBatch,
    flat: Vec<f64>,
    scores: Vec<f64>,
    outlier: Vec<bool>,
    explanations: Vec<Vec<String>>,
    /// Seconds of timed layer calls the in-memory query makes.
    layer_sum_s: f64,
    /// Seconds of the serial encode, which the CSV path uses instead.
    encode_serial_s: f64,
    encode_parallel_s: f64,
}

/// `mb-explain` encode, `mb-stats`, `mb-classify`, `mb-explain` batch and
/// `mb-fpgrowth` FP-tree, in the order the one-shot engine calls them.
fn batch_layers<E: Estimator>(
    make: impl Fn() -> E,
    analysis: &AnalysisConfig,
    points: &[Point],
    rec: &mut Recorder,
) -> Result<Decomposed, String> {
    let rows = points.len();
    let dim = points[0].metrics.len();
    let per_row_ns = |seconds: f64| seconds / rows as f64 * 1e9;
    let new_encoder = || AttributeEncoder::with_column_names(analysis.attribute_names.clone());

    // Encode, serially (the CSV ingest path) and sharded (the Point path).
    let (encode_serial_s, (encoder, batch)) = rec.probe(|| {
        let mut encoder = new_encoder();
        let mut batch = ItemBatch::with_capacity(rows, points[0].attributes.len());
        let mut scratch = Vec::new();
        let (wall, ()) = timed(|| {
            for p in points {
                encoder.encode_point_into(&p.attributes, &mut scratch);
                batch.push_row(&scratch);
            }
        });
        Ok((wall, (encoder, batch)))
    })?;
    let attribute_rows: Vec<&[String]> = points.iter().map(|p| p.attributes.as_slice()).collect();
    let (encode_parallel_s, sharded) = rec.probe(|| {
        let mut encoder = new_encoder();
        Ok(timed(|| {
            encode_batch_parallel(
                &mut encoder,
                mb_pool::global(),
                &attribute_rows,
                default_num_partitions(),
            )
        }))
    })?;
    rec.check("sharded encode equals serial encode", sharded == batch);
    rec.set("mb-explain.encode_ns_per_row", per_row_ns(encode_serial_s));
    rec.set(
        "mb-explain.encode_parallel_ns_per_row",
        per_row_ns(encode_parallel_s),
    );

    // Fit, score, threshold.
    let flat: Vec<f64> = points
        .iter()
        .flat_map(|p| p.metrics.iter().copied())
        .collect();
    let (train_s, estimator) = rec.probe(|| {
        let mut estimator = make();
        let (wall, outcome) = timed(|| estimator.train_flat(&flat, dim));
        outcome.map_err(err)?;
        Ok((wall, estimator))
    })?;
    let (score_s, scores) = rec.time(|| estimator.score_batch_flat(&flat, dim).map_err(err))?;
    let (threshold_s, threshold) = rec
        .time(|| StaticThreshold::from_scores(&scores, analysis.target_percentile).map_err(err))?;
    let outlier: Vec<bool> = scores
        .iter()
        .map(|&s| threshold.classify(s).label.is_outlier())
        .collect();
    let outliers = outlier.iter().filter(|&&o| o).count();
    rec.set("mb-stats.train_ms", train_s * 1e3);
    rec.set("mb-stats.score_ns_per_row", per_row_ns(score_s));
    rec.set("mb-classify.threshold_ms", threshold_s * 1e3);

    // The composite call the three steps above unroll.
    let config = BatchClassifierConfig {
        target_percentile: analysis.target_percentile,
        training_sample_size: analysis.training_sample_size,
    };
    let (classify_s, labels) = rec.probe(|| {
        let mut classifier = BatchClassifier::new(make(), config);
        let (wall, labels) = timed(|| classifier.classify_batch_flat(&flat, dim));
        Ok((wall, labels.map_err(err)?))
    })?;
    rec.check(
        "classify_batch_flat outliers equal unrolled steps",
        labels.iter().filter(|c| c.label.is_outlier()).count() == outliers,
    );
    rec.set("mb-classify.classify_ns_per_row", per_row_ns(classify_s));

    // Explain.
    let explainer = BatchExplainer::new(analysis.explanation);
    let (explain_s, explanations) = rec.time(|| {
        let mut explanations = explainer.explain_labeled(&batch, |r| outlier[r]);
        rank_explanations(&mut explanations);
        Ok(explanations)
    })?;
    rec.set("mb-explain.batch_explain_ms", explain_s * 1e3);
    rec.set("mb-explain.itemsets_out", explanations.len() as f64);

    // The FP-tree the explainer builds over the outlier transactions.
    let transactions: Vec<Vec<Item>> = batch
        .iter()
        .zip(&outlier)
        .filter(|(_, &o)| o)
        .map(|(row, _)| row.to_vec())
        .collect();
    let min_count = (analysis.explanation.min_support * outliers as f64).max(1.0);
    let (build_s, tree) = rec.time(|| Ok(FpTree::from_transactions(&transactions, min_count)))?;
    let (mine_s, _) =
        rec.time(|| Ok(tree.mine(min_count, analysis.explanation.max_combination_size)))?;
    rec.set("mb-fpgrowth.fptree_build_ms", build_s * 1e3);
    rec.set("mb-fpgrowth.fptree_mine_ms", mine_s * 1e3);
    rec.set("mb-fpgrowth.fptree_nodes", tree.node_count() as f64);

    Ok(Decomposed {
        explanations: explanations
            .iter()
            .map(|e| encoder.describe(&e.items))
            .collect(),
        batch,
        flat,
        scores,
        outlier,
        layer_sum_s: train_s + score_s + threshold_s + explain_s,
        encode_serial_s,
        encode_parallel_s,
    })
}

/// The per-point structures the streaming engine writes into: `mb-sketch`,
/// the M-CPS tree, the streaming explainer and the streaming classifier.
fn stream_layers<E: Estimator>(
    make: impl Fn() -> E,
    dim: usize,
    d: &Decomposed,
    rec: &mut Recorder,
) -> Result<(), String> {
    let rows = d.batch.len().min(STREAM_PROBE_ROWS);
    let per_row_ns = |seconds: f64| seconds / rows as f64 * 1e9;
    let max_size = mb_explain::ExplanationConfig::default().max_combination_size;

    let (observe_s, mut explainer) = rec.probe(|| {
        let mut e = StreamingExplainer::with_defaults();
        let (wall, ()) = timed(|| {
            for r in 0..rows {
                e.observe(d.batch.row(r), d.outlier[r]);
            }
        });
        Ok((wall, e))
    })?;
    explainer.on_window_boundary();
    let (explain_s, _) = rec.time(|| Ok(explainer.explain()))?;
    rec.set("mb-explain.stream_observe_ns", per_row_ns(observe_s));
    rec.set("mb-explain.stream_explain_ms", explain_s * 1e3);

    let (insert_s, mut tree) = rec.probe(|| {
        let mut t = McpsTree::with_defaults();
        let (wall, ()) = timed(|| {
            for r in 0..rows {
                t.insert(d.batch.row(r));
            }
        });
        Ok((wall, t))
    })?;
    tree.on_window_boundary();
    let (mine_s, _) = rec.time(|| Ok(tree.mine(max_size)))?;
    rec.set("mb-fpgrowth.mcps_insert_ns", per_row_ns(insert_s));
    rec.set("mb-fpgrowth.mcps_mine_ms", mine_s * 1e3);
    rec.set("mb-fpgrowth.mcps_nodes", tree.node_count() as f64);

    let items: Vec<Item> = (0..rows)
        .flat_map(|r| d.batch.row(r).iter().copied())
        .collect();
    let (amc_s, _) = rec.probe(|| {
        let mut sketch: AmcSketch<Item> = AmcSketch::new(10_000, 10_000);
        let (wall, ()) = timed(|| {
            for &item in &items {
                sketch.observe(item);
            }
        });
        Ok((wall, sketch))
    })?;
    rec.set("mb-sketch.amc_observe_ns", amc_s / items.len() as f64 * 1e9);

    let scores = &d.scores[..rows];
    let (adr_s, _) = rec.probe(|| {
        let mut reservoir: AdaptableDampedReservoir<f64> =
            AdaptableDampedReservoir::new(10_000, 0.01, DecayPolicy::Manual, 0xE75);
        let (wall, ()) = timed(|| {
            for &s in scores {
                reservoir.observe(s);
            }
        });
        Ok((wall, reservoir))
    })?;
    rec.set("mb-sketch.adr_insert_ns", per_row_ns(adr_s));

    let (quantile_s, _) = rec.probe(|| {
        let mut estimator =
            AdrQuantileEstimator::new(0.99, 10_000, 0.01, 1_000, 0xE75).map_err(err)?;
        let (wall, ()) = timed(|| {
            for &s in scores {
                estimator.observe(s);
            }
        });
        Ok((wall, estimator))
    })?;
    rec.set("mb-sketch.quantile_observe_ns", per_row_ns(quantile_s));

    let (classify_s, _) = rec.probe(|| {
        let mut classifier =
            StreamingClassifier::new(make(), StreamingClassifierConfig::default()).map_err(err)?;
        let (wall, ()) = timed(|| {
            for row in d.flat.chunks_exact(dim).take(rows) {
                black_box(classifier.observe(row));
            }
        });
        Ok((wall, classifier))
    })?;
    rec.set("mb-classify.stream_observe_ns", per_row_ns(classify_s));
    Ok(())
}

fn stage_ms(report: &MdpReport, stage: &str) -> f64 {
    report
        .trace
        .as_ref()
        .and_then(|t| t.stage(stage))
        .map_or(0.0, |s| s.wall_ns as f64 / 1e6)
}

fn without_trace(mut report: MdpReport) -> String {
    report.trace = None;
    report_to_string(&report)
}

/// `core`, `mb-obs` and `mb-pool`: the whole query, untraced and traced,
/// one-shot and coordinated, on two pool threads and (in a child) on one.
fn executor_layers(
    spec: &Spec,
    ctx: &Ctx,
    points: &[Point],
    d: &Decomposed,
    parse_s_per_row: f64,
    rec: &mut Recorder,
) -> Result<MdpReport, String> {
    let analysis = spec.analysis();
    let traced = AnalysisConfig {
        obs: mb_obs::ObsConfig::enabled(),
        ..analysis.clone()
    };
    let (query_s, report) = rec.time(|| query_report(spec, ctx, &analysis, points))?;
    // The traced run also keeps the last repetition's own wall: its stage
    // times are compared with the wall they were recorded in.
    let (traced_s, (traced_last_s, traced_report)) = rec.probe(|| {
        let (wall, report) = timed(|| query_report(spec, ctx, &traced, points));
        Ok((wall, (wall, report?)))
    })?;
    let reference = report_to_string(&report);
    rec.check(
        "traced report equals untraced report",
        without_trace(traced_report.clone()) == reference,
    );
    rec.check(
        "hand-assembled outlier count equals the query's",
        d.outlier.iter().filter(|&&o| o).count() == report.num_outliers,
    );
    let query_explanations: Vec<Vec<String>> = report
        .explanations
        .iter()
        .map(|e| e.attributes.clone())
        .collect();
    rec.check(
        "hand-assembled explanations equal the query's",
        d.explanations == query_explanations,
    );
    rec.check(
        "query names the planted value",
        crate::names_planted(&report),
    );

    // What the executor adds on top of the layer calls it makes: the CSV
    // path parses and encodes serially, the Point path encodes in shards.
    let layer_sum_s = d.layer_sum_s
        + if spec.kind == Kind::CsvSimple {
            parse_s_per_row * points.len() as f64 + d.encode_serial_s
        } else {
            d.encode_parallel_s
        };
    rec.set("core.query_ms", query_s * 1e3);
    rec.set("core.glue_share", (query_s - layer_sum_s) / query_s);

    let trace = traced_report
        .trace
        .as_ref()
        .ok_or("traced run carries no trace")?;
    for (metric, stage) in [
        ("core.trace_flatten_ms", "flatten"),
        ("core.trace_ingest_ms", mb_obs::stage::INGEST),
        ("core.trace_encode_ms", mb_obs::stage::ENCODE),
        ("core.trace_train_ms", mb_obs::stage::TRAIN),
        ("core.trace_score_ms", mb_obs::stage::SCORE),
        ("core.trace_explain_ms", mb_obs::stage::EXPLAIN),
        ("core.trace_merge_ms", mb_obs::stage::MERGE),
    ] {
        rec.set(metric, stage_ms(&traced_report, stage));
    }
    // Stage times over the wall of the run they were recorded in.
    rec.set(
        "core.trace_coverage",
        trace.total_stage_ns() as f64 / 1e9 / traced_last_s,
    );
    rec.set(
        "mb-obs.trace_overhead_pct",
        (traced_s - query_s) / query_s * 100.0,
    );
    rec.set("mb-pool.tasks", trace.counter("pool_tasks") as f64);
    rec.set("mb-pool.steals", trace.counter("pool_steals") as f64);
    rec.set(
        "mb-pool.idle_parks",
        trace.counter("pool_idle_parks") as f64,
    );

    // Coordinated against one-shot, both over the in-memory rows.
    let coordinated = Executor::Coordinated { partitions: 0 };
    let one_shot_s = if spec.kind == Kind::CsvSimple {
        rec.time(|| workloads::mem_report(&analysis, &Executor::OneShot, points))?
            .0
    } else {
        query_s
    };
    let (coordinated_s, coordinated_report) =
        rec.time(|| workloads::mem_report(&analysis, &coordinated, points))?;
    rec.check(
        "coordinated report equals one-shot report",
        report_to_string(&coordinated_report) == reference,
    );
    rec.set("core.coordinated_ratio", coordinated_s / one_shot_s);

    // The same in-memory query with a one-thread pool, which needs a
    // process of its own: the pool is sized once per process.
    let exe = std::env::current_exe().map_err(err)?;
    let mut child = Command::new(exe);
    child
        .args(["query-wall", "--workload", spec.name, "--threads", "1"])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--seconds", &ctx.seconds.to_string()])
        .arg("--data-dir")
        .arg(&ctx.data_dir)
        .arg("--mb-serve")
        .arg(&ctx.mb_serve);
    if ctx.divisor != 1 {
        child.arg("--smoke");
    }
    let output = child.output().map_err(err)?;
    let single_s: f64 = String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|_| "the one-thread child printed no wall time".to_string())?;
    rec.set("core.single_thread_ratio", single_s / one_shot_s);
    Ok(report)
}

/// The hidden `query-wall` subcommand: median seconds of the workload's
/// in-memory one-shot query at `--threads`.
pub fn query_wall(args: &Args) -> Result<bool, String> {
    let ctx = args.ctx()?;
    let spec = args.spec()?;
    mb_pool::configure_global_threads(args.parsed("--threads", 1)?).map_err(err)?;
    let points = layer_points(spec, &ctx);
    let analysis = spec.analysis();
    let rec = new_recorder(&ctx);
    let (wall, _) = rec.time(|| workloads::mem_report(&analysis, &Executor::OneShot, &points))?;
    println!("{wall}");
    Ok(true)
}

/// `core::wire`: what a served request decodes and a served report encodes.
fn wire_layers(points: &[Point], report: &MdpReport, rec: &mut Recorder) -> Result<(), String> {
    let sample = &points[..points.len().min(SERVE_PROBE_ROWS)];
    let text = points_to_json(sample).to_string();
    let (decode_s, decoded) = rec.time(|| {
        let value = serde_json::from_str(&text).map_err(err)?;
        points_from_json(&value, "points").map_err(err)
    })?;
    rec.check("decoded points equal encoded points", decoded == sample);
    rec.set(
        "core.wire_points_decode_ns_per_point",
        decode_s / sample.len() as f64 * 1e9,
    );
    // One encode is microseconds; time a hundred.
    let (encode_s, ()) = rec.probe(|| {
        let (wall, ()) = timed(|| {
            for _ in 0..100 {
                black_box(report_to_string(black_box(report)));
            }
        });
        Ok((wall / 100.0, ()))
    })?;
    rec.set("core.wire_report_encode_us", encode_s * 1e6);
    Ok(())
}

/// Submit → poll(done) → close against the in-process server; returns the
/// seconds from submit to done and the finished job.
fn inproc_request(
    server: &Server,
    id: &str,
    analysis: &AnalysisConfig,
    points: Vec<Point>,
) -> Result<(f64, mb_serve::JobResult), String> {
    let spec = QuerySpec {
        analysis: analysis.clone(),
        executor: Executor::OneShot,
    };
    let (wall, status) = timed(|| {
        server
            .submit(id, spec, points, Priority::Normal)
            .map_err(err)?;
        server.poll(id, Some(Duration::from_secs(60))).map_err(err)
    });
    let JobStatus::Done(result) = status? else {
        return Err(format!("in-process job {id} did not finish"));
    };
    server.close(id).map_err(err)?;
    Ok((wall, *result))
}

fn new_server() -> Server {
    Server::start(ServeConfig {
        workers: 2,
        ..ServeConfig::default()
    })
}

fn histogram_totals(server: &Server, name: &str) -> (f64, f64) {
    server
        .stats()
        .histogram(name)
        .map_or((0.0, 0.0), |h| (h.count() as f64, h.sum_ns() as f64))
}

/// `mb-serve`: the same requests in process without JSON, in process with
/// JSON, and through the real binary's pipe — the gaps are wire and pipe cost.
fn serve_layers(spec: &Spec, ctx: &Ctx, rec: &mut Recorder) -> Result<(), String> {
    let rows = if spec.kind == Kind::ServeMixed {
        spec.scaled_rows(ctx)
    } else {
        workloads::scaled(SERVE_PROBE_ROWS, ctx)
    };
    let payloads = workloads::serve_payloads(spec, ctx, rows);
    let analysis = &payloads.analysis;
    let resident = Planned {
        resident: 0,
        perturb: None,
    };
    let resident_points = payloads.points_of(resident);

    let (fingerprint_s, _) = rec.time(|| Ok(Fingerprint::compute(analysis, &resident_points)))?;
    rec.set(
        "mb-serve.fingerprint_ns_per_point",
        fingerprint_s / rows as f64 * 1e9,
    );

    // Depth 1, in process.
    let server = new_server();
    let mut ids = 0..;
    let mut next_id = || format!("p{}", ids.next().expect("unbounded"));
    let (_, first) = inproc_request(&server, &next_id(), analysis, resident_points.clone())?;
    rec.check(
        "in-process report equals standalone report",
        report_to_string(&first.report) == payloads.standalone_report(resident)?,
    );
    let (hit_s, _) =
        rec.probe(|| inproc_request(&server, &next_id(), analysis, resident_points.clone()))?;
    let mut fresh = 1u64..;
    let (miss_s, _) = rec.probe(|| {
        let planned = Planned {
            resident: 0,
            perturb: fresh.next(),
        };
        inproc_request(&server, &next_id(), analysis, payloads.points_of(planned))
    })?;
    let (line_s, ()) = rec.probe(|| {
        let id = next_id();
        let submit = payloads.submit_line(&id, resident);
        let poll = serve::poll_line(&id);
        let (wall, done) = timed(|| {
            black_box(mb_serve::handle_line(&server, &submit));
            mb_serve::handle_line(&server, &poll)
        });
        black_box(mb_serve::handle_line(&server, &serve::close_line(&id)));
        if done.contains("\"state\":\"done\"") {
            Ok((wall, ()))
        } else {
            Err(format!("handle_line poll did not finish: {done}"))
        }
    })?;
    rec.set("mb-serve.inproc_hit_ms", hit_s * 1e3);
    rec.set("mb-serve.inproc_miss_ms", miss_s * 1e3);
    rec.set("mb-serve.handle_line_hit_ms", line_s * 1e3);
    drop(server);

    // A window in flight, in process: the server's own queue-wait and
    // execution histograms (the wire `stats` op does not export them).
    let server = new_server();
    for k in 0..RESIDENT {
        let planned = Planned {
            resident: k,
            perturb: None,
        };
        inproc_request(
            &server,
            &format!("w{k}"),
            analysis,
            payloads.points_of(planned),
        )?;
    }
    let before = (
        histogram_totals(&server, "queue_wait_ns"),
        histogram_totals(&server, "exec_ns"),
    );
    let mut plan = Plan::new(ctx.seed);
    let query = QuerySpec {
        analysis: analysis.clone(),
        executor: Executor::OneShot,
    };
    let mut window = std::collections::VecDeque::new();
    let mut finish_oldest = |window: &mut std::collections::VecDeque<String>| {
        let Some(id) = window.pop_front() else {
            return Ok(());
        };
        let status = server
            .poll(&id, Some(Duration::from_secs(60)))
            .map_err(err)?;
        rec.check(
            "windowed in-process job finished",
            matches!(status, JobStatus::Done(_)),
        );
        server.close(&id).map(|_| ()).map_err(err)
    };
    for n in 0..SERVE_PROBE_REQUESTS {
        if window.len() == SERVE_PROBE_DEPTH {
            finish_oldest(&mut window)?;
        }
        let id = format!("d{n}");
        let points = payloads.points_of(plan.next_request());
        server
            .submit(&id, query.clone(), points, Priority::Normal)
            .map_err(err)?;
        window.push_back(id);
    }
    while !window.is_empty() {
        finish_oldest(&mut window)?;
    }
    let mean_ns = |name: &str, (count0, sum0): (f64, f64)| {
        let (count, sum) = histogram_totals(&server, name);
        (sum - sum0) / (count - count0).max(1.0)
    };
    rec.set(
        "mb-serve.queue_wait_mean_us",
        mean_ns("queue_wait_ns", before.0) / 1e3,
    );
    rec.set("mb-serve.exec_mean_ms", mean_ns("exec_ns", before.1) / 1e6);
    drop(server);

    // The real binary, a fixed number of requests one at a time.
    let (mut child, warm) = workloads::serve_warm(ctx, &payloads)?;
    let mut plan = Plan::new(ctx.seed);
    let served = serve::drive(&mut child, &payloads, "l", 1, |sent, _| {
        (sent < BINARY_PROBE_REQUESTS).then(|| plan.next_request())
    })
    .map_err(err)?;
    let stats = serve::stats_counters(&mut child).map_err(err)?;
    rec.check("mb_serve exits cleanly", child.shutdown().map_err(err)?);
    let resident_reports = payloads.resident_reports()?;
    for s in warm.iter().chain(&served) {
        let expected = match s.planned.perturb {
            None | Some(0) => resident_reports[s.planned.resident].clone(),
            Some(_) => payloads.standalone_report(s.planned)?,
        };
        rec.check(
            "served report equals standalone report",
            serve::check_served(s, rows, Some(&expected)),
        );
    }
    let latencies = |miss: bool| -> Vec<f64> {
        served
            .iter()
            .filter(|s| s.planned.perturb.is_some() == miss)
            .map(|s| s.latency_s)
            .collect()
    };
    let all: Vec<f64> = served.iter().map(|s| s.latency_s).collect();
    rec.set("mb-serve.hit_p50_ms", median(&latencies(false)) * 1e3);
    rec.set("mb-serve.miss_p50_ms", median(&latencies(true)) * 1e3);
    rec.set("mb-serve.latency_p95_ms", percentile(&all, 95.0) * 1e3);
    rec.set("mb-serve.latency_p99_ms", percentile(&all, 99.0) * 1e3);
    let counter = |name: &str| {
        stats
            .as_object()
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.as_object())
            .and_then(|c| c.get(name))
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0)
    };
    rec.set("mb-serve.cache_hits", counter("cache_hits"));
    rec.set("mb-serve.cache_misses", counter("cache_misses"));
    rec.set("mb-serve.model_trainings", counter("model_trainings"));
    let planned_misses = served
        .iter()
        .filter(|s| s.planned.perturb.is_some())
        .count();
    rec.check(
        "cache counters match the planned sequence",
        counter("cache_misses") as usize == RESIDENT + planned_misses
            && counter("cache_hits") as usize == served.len() - planned_misses,
    );
    Ok(())
}

fn new_recorder(ctx: &Ctx) -> Recorder {
    Recorder {
        values: Vec::new(),
        checks: 0,
        failed: 0,
        budget_s: ctx.seconds / 50.0,
    }
}

/// The estimator-generic middle of the run.
fn estimator_layers<E: Estimator>(
    make: impl Fn() -> E + Copy,
    spec: &Spec,
    points: &[Point],
    rec: &mut Recorder,
) -> Result<Decomposed, String> {
    let d = batch_layers(make, &spec.analysis(), points, rec)?;
    stream_layers(make, spec.shape.metrics, &d, rec)?;
    Ok(d)
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Result<LayerRun, String> {
    let mut rec = new_recorder(ctx);
    let points = layer_points(spec, ctx);
    let csv_rows = if spec.kind == Kind::CsvSimple {
        points.len()
    } else {
        points.len().min(CSV_PROBE_ROWS)
    };
    workloads::write_csv_file(spec, ctx, 0, &mut RowGen::new(ctx.seed), csv_rows)?;
    let parse_s_per_row = ingest_layer(spec, ctx, csv_rows, &mut rec)?;
    // `EstimatorKind::Auto`, as the engine resolves it.
    let d = if spec.shape.metrics == 1 {
        estimator_layers(MadEstimator::new, spec, &points, &mut rec)?
    } else {
        estimator_layers(McdEstimator::with_defaults, spec, &points, &mut rec)?
    };
    let report = executor_layers(spec, ctx, &points, &d, parse_s_per_row, &mut rec)?;
    wire_layers(&points, &report, &mut rec)?;
    serve_layers(spec, ctx, &mut rec)?;
    rec.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let declared = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let declared = declared.as_object().unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            let serde_json::Value::Array(items) = declared.get(key).unwrap() else {
                panic!("{key} is not an array");
            };
            items
                .iter()
                .map(|m| {
                    let m = m.as_object().unwrap();
                    let field =
                        |k: &str| m.get(k).and_then(|v| v.as_str()).unwrap_or("").to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let ours: Vec<(String, String)> = METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), ours);
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let specs: Vec<String> = workloads::SPECS
            .iter()
            .map(|s| s.name.to_string())
            .collect();
        assert_eq!(workloads, specs);
    }
}
