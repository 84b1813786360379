#![warn(clippy::unwrap_used, clippy::expect_used)]
//! Wire (de)serialization of [`MdpReport`] over the vendored `serde_json`.
//!
//! A report crosses a process boundary — an `mb-serve` response — as JSON;
//! this module is the report half of that protocol: [`report_to_json`] /
//! [`report_from_json`] convert a full [`MdpReport`] — explanations with
//! items and statistics, counters, retained scores and outlier rows, and
//! recursive partition detail — to and from a [`serde_json::Value`], and
//! [`report_to_string`] / [`report_from_str`] do the same against JSON text.
//!
//! The encoding is loss-free for every representable report: non-finite
//! statistics (an infinite risk ratio is routine when a combination never
//! occurs among inliers) are encoded as the strings `"Infinity"`,
//! `"-Infinity"`, and `"NaN"` because JSON numbers cannot carry them. `NaN`
//! round-trips structurally but compares unequal to itself, as always.
//!
//! ```
//! use macrobase_core::query::{Executor, MdpQuery};
//! use macrobase_core::types::Point;
//! use macrobase_core::wire::{report_from_str, report_to_string};
//!
//! let mut points: Vec<Point> = (0..2_000)
//!     .map(|i| Point::simple(10.0 + (i % 7) as f64 * 0.2, format!("d{}", i % 20)))
//!     .collect();
//! for i in 0..20 {
//!     points[i * 100] = Point::simple(90.0, "d13");
//! }
//! let mut query = MdpQuery::with_defaults();
//! let report = query.execute(&Executor::OneShot, &points).unwrap();
//! let decoded = report_from_str(&report_to_string(&report)).unwrap();
//! assert_eq!(decoded, report);
//! ```

use crate::operator::{check_columns, ColumnarInput};
use crate::query::{AnalysisConfig, EstimatorKind, Executor, StreamingOptions};
use crate::types::{MdpReport, Point, RenderedExplanation};
use mb_explain::risk_ratio::ExplanationStats;
use mb_fpgrowth::Item;
use mb_obs::{HistogramSnapshot, QueryTrace, StageTimer, StageTrace};
use serde_json::{Map, ParseError, Value};
use std::borrow::Cow;

/// Error produced when decoding a report from JSON that does not match the
/// wire schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Dotted path of the field that failed to decode (e.g.
    /// `explanations[2].stats.risk_ratio`).
    pub field: String,
    /// What went wrong.
    pub message: String,
}

impl WireError {
    fn new(field: impl Into<String>, message: impl Into<String>) -> Self {
        WireError {
            field: field.into(),
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error at {}: {}", self.field, self.message)
    }
}

impl std::error::Error for WireError {}

/// Encode an `f64`, representing non-finite values (JSON has no NaN or
/// infinities) as the strings `"Infinity"` / `"-Infinity"` / `"NaN"`.
fn f64_to_value(v: f64) -> Value {
    if v.is_finite() {
        Value::from(v)
    } else if v.is_nan() {
        Value::String("NaN".to_string())
    } else if v > 0.0 {
        Value::String("Infinity".to_string())
    } else {
        Value::String("-Infinity".to_string())
    }
}

/// The inverse of [`f64_to_value`]'s string spellings.
fn non_finite(name: &str) -> Option<f64> {
    match name {
        "Infinity" => Some(f64::INFINITY),
        "-Infinity" => Some(f64::NEG_INFINITY),
        "NaN" => Some(f64::NAN),
        _ => None,
    }
}

fn number_value(value: &Value) -> Option<f64> {
    value
        .as_f64()
        .or_else(|| value.as_str().and_then(non_finite))
}

fn f64_from_value(value: &Value, field: &str) -> Result<f64, WireError> {
    number_value(value).ok_or_else(|| WireError::new(field, "expected a number"))
}

fn usize_from_value(value: &Value, field: &str) -> Result<usize, WireError> {
    let n = value
        .as_f64()
        .ok_or_else(|| WireError::new(field, "expected an integer"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(WireError::new(field, "expected a non-negative integer"));
    }
    Ok(n as usize)
}

fn u64_from_value(value: &Value, field: &str) -> Result<u64, WireError> {
    let n = value
        .as_f64()
        .ok_or_else(|| WireError::new(field, "expected an integer"))?;
    if n < 0.0 || n.fract() != 0.0 {
        return Err(WireError::new(field, "expected a non-negative integer"));
    }
    Ok(n as u64)
}

fn string_from_value(value: &Value, field: &str) -> Result<String, WireError> {
    value
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| WireError::new(field, "expected a string"))
}

fn array<'a>(value: &'a Value, field: &str) -> Result<&'a [Value], WireError> {
    match value {
        Value::Array(items) => Ok(items),
        _ => Err(WireError::new(field, "expected an array")),
    }
}

fn field<'a>(map: &'a Map, field_name: &str, context: &str) -> Result<&'a Value, WireError> {
    map.get(field_name)
        .ok_or_else(|| WireError::new(format!("{context}{field_name}"), "missing field"))
}

/// Fail loudly on keys outside the schema: a misspelled field would
/// otherwise be silently ignored and its intended value silently replaced
/// by a default, which is exactly the failure mode a wire protocol must
/// surface.
fn reject_unknown_keys(map: &Map, allowed: &[&str], context: &str) -> Result<(), WireError> {
    for (key, _) in map.iter() {
        if !allowed.contains(&key.as_str()) {
            return Err(WireError::new(
                format!("{context}.{key}"),
                "unknown field",
            ));
        }
    }
    Ok(())
}

fn bool_from_value(value: &Value, field: &str) -> Result<bool, WireError> {
    match value {
        Value::Bool(b) => Ok(*b),
        _ => Err(WireError::new(field, "expected a boolean")),
    }
}

fn stats_to_json(stats: &ExplanationStats) -> Value {
    let mut map = Map::new();
    map.insert("outlier_count".to_string(), f64_to_value(stats.outlier_count));
    map.insert("inlier_count".to_string(), f64_to_value(stats.inlier_count));
    map.insert(
        "outlier_support".to_string(),
        f64_to_value(stats.outlier_support),
    );
    map.insert("risk_ratio".to_string(), f64_to_value(stats.risk_ratio));
    map.insert(
        "total_outliers".to_string(),
        f64_to_value(stats.total_outliers),
    );
    map.insert(
        "total_inliers".to_string(),
        f64_to_value(stats.total_inliers),
    );
    Value::Object(map)
}

fn stats_from_json(value: &Value, context: &str) -> Result<ExplanationStats, WireError> {
    let map = value
        .as_object()
        .ok_or_else(|| WireError::new(context, "expected a stats object"))?;
    let get = |name: &str| -> Result<f64, WireError> {
        f64_from_value(
            field(map, name, &format!("{context}."))?,
            &format!("{context}.{name}"),
        )
    };
    Ok(ExplanationStats {
        outlier_count: get("outlier_count")?,
        inlier_count: get("inlier_count")?,
        outlier_support: get("outlier_support")?,
        risk_ratio: get("risk_ratio")?,
        total_outliers: get("total_outliers")?,
        total_inliers: get("total_inliers")?,
    })
}

fn explanation_to_json(explanation: &RenderedExplanation) -> Value {
    let mut map = Map::new();
    map.insert(
        "attributes".to_string(),
        Value::Array(
            explanation
                .attributes
                .iter()
                .map(|a| Value::String(a.clone()))
                .collect(),
        ),
    );
    map.insert(
        "items".to_string(),
        Value::Array(explanation.items.iter().map(|&i| Value::from(i)).collect()),
    );
    map.insert("stats".to_string(), stats_to_json(&explanation.stats));
    Value::Object(map)
}

fn explanation_from_json(
    value: &Value,
    context: &str,
) -> Result<RenderedExplanation, WireError> {
    let map = value
        .as_object()
        .ok_or_else(|| WireError::new(context, "expected an explanation object"))?;
    let attributes = array(
        field(map, "attributes", &format!("{context}."))?,
        &format!("{context}.attributes"),
    )?
    .iter()
    .enumerate()
    .map(|(i, v)| {
        v.as_str()
            .map(str::to_string)
            .ok_or_else(|| WireError::new(format!("{context}.attributes[{i}]"), "expected a string"))
    })
    .collect::<Result<Vec<String>, WireError>>()?;
    let items = array(
        field(map, "items", &format!("{context}."))?,
        &format!("{context}.items"),
    )?
    .iter()
    .enumerate()
    .map(|(i, v)| {
        let item_field = format!("{context}.items[{i}]");
        let n = usize_from_value(v, &item_field)?;
        Item::try_from(n).map_err(|_| WireError::new(item_field, "item id out of range"))
    })
    .collect::<Result<Vec<Item>, WireError>>()?;
    let stats = stats_from_json(
        field(map, "stats", &format!("{context}."))?,
        &format!("{context}.stats"),
    )?;
    Ok(RenderedExplanation {
        attributes,
        items,
        stats,
    })
}

fn stage_to_json(stage: &StageTrace) -> Value {
    let mut map = Map::new();
    map.insert("stage".to_string(), Value::String(stage.stage.clone()));
    map.insert("wall_ns".to_string(), Value::from(stage.wall_ns));
    map.insert("rows_in".to_string(), Value::from(stage.rows_in));
    map.insert("rows_out".to_string(), Value::from(stage.rows_out));
    map.insert("batches".to_string(), Value::from(stage.batches));
    Value::Object(map)
}

fn stage_from_json(value: &Value, context: &str) -> Result<StageTrace, WireError> {
    let map = value
        .as_object()
        .ok_or_else(|| WireError::new(context, "expected a stage object"))?;
    let prefix = format!("{context}.");
    let get = |name: &str| -> Result<u64, WireError> {
        u64_from_value(field(map, name, &prefix)?, &format!("{context}.{name}"))
    };
    Ok(StageTrace {
        stage: string_from_value(field(map, "stage", &prefix)?, &format!("{context}.stage"))?,
        wall_ns: get("wall_ns")?,
        rows_in: get("rows_in")?,
        rows_out: get("rows_out")?,
        batches: get("batches")?,
    })
}

fn histogram_to_json(snapshot: &HistogramSnapshot) -> Value {
    let mut map = Map::new();
    map.insert("name".to_string(), Value::String(snapshot.name.clone()));
    map.insert("count".to_string(), Value::from(snapshot.count));
    map.insert("sum_ns".to_string(), Value::from(snapshot.sum_ns));
    map.insert("max_ns".to_string(), Value::from(snapshot.max_ns));
    map.insert(
        "buckets".to_string(),
        Value::Array(
            snapshot
                .buckets
                .iter()
                .map(|&(exp, count)| {
                    Value::Array(vec![Value::from(exp), Value::from(count)])
                })
                .collect(),
        ),
    );
    Value::Object(map)
}

fn histogram_from_json(value: &Value, context: &str) -> Result<HistogramSnapshot, WireError> {
    let map = value
        .as_object()
        .ok_or_else(|| WireError::new(context, "expected a histogram object"))?;
    let prefix = format!("{context}.");
    let buckets = array(
        field(map, "buckets", &prefix)?,
        &format!("{context}.buckets"),
    )?
    .iter()
    .enumerate()
    .map(|(i, v)| {
        let bucket_field = format!("{context}.buckets[{i}]");
        let pair = array(v, &bucket_field)?;
        if pair.len() != 2 {
            return Err(WireError::new(bucket_field, "expected an [exponent, count] pair"));
        }
        let exp = u64_from_value(&pair[0], &format!("{bucket_field}[0]"))?;
        let exp = u32::try_from(exp)
            .map_err(|_| WireError::new(format!("{bucket_field}[0]"), "exponent out of range"))?;
        let count = u64_from_value(&pair[1], &format!("{bucket_field}[1]"))?;
        Ok((exp, count))
    })
    .collect::<Result<Vec<(u32, u64)>, WireError>>()?;
    Ok(HistogramSnapshot {
        name: string_from_value(field(map, "name", &prefix)?, &format!("{context}.name"))?,
        count: u64_from_value(field(map, "count", &prefix)?, &format!("{context}.count"))?,
        sum_ns: u64_from_value(field(map, "sum_ns", &prefix)?, &format!("{context}.sum_ns"))?,
        max_ns: u64_from_value(field(map, "max_ns", &prefix)?, &format!("{context}.max_ns"))?,
        buckets,
    })
}

/// A trace in the layout a report embeds it in: one object with the
/// executor, the partitions, the stages, counters and gauges as
/// `[name, value]` pairs (a non-finite gauge as `"Infinity"`, `"-Infinity"`
/// or `"NaN"`), and the histograms.
pub fn trace_to_json(trace: &QueryTrace) -> Value {
    let mut map = Map::new();
    map.insert("executor".to_string(), Value::String(trace.executor.clone()));
    map.insert("partitions".to_string(), Value::from(trace.partitions));
    map.insert(
        "stages".to_string(),
        Value::Array(trace.stages.iter().map(stage_to_json).collect()),
    );
    map.insert(
        "counters".to_string(),
        Value::Array(
            trace
                .counters
                .iter()
                .map(|(name, v)| {
                    Value::Array(vec![Value::String(name.clone()), Value::from(*v)])
                })
                .collect(),
        ),
    );
    map.insert(
        "gauges".to_string(),
        Value::Array(
            trace
                .gauges
                .iter()
                .map(|(name, v)| {
                    Value::Array(vec![Value::String(name.clone()), f64_to_value(*v)])
                })
                .collect(),
        ),
    );
    map.insert(
        "histograms".to_string(),
        Value::Array(trace.histograms.iter().map(histogram_to_json).collect()),
    );
    Value::Object(map)
}

fn trace_from_json(value: &Value, context: &str) -> Result<QueryTrace, WireError> {
    let map = value
        .as_object()
        .ok_or_else(|| WireError::new(context, "expected a trace object"))?;
    let prefix = format!("{context}.");
    let stages = array(field(map, "stages", &prefix)?, &format!("{context}.stages"))?
        .iter()
        .enumerate()
        .map(|(i, v)| stage_from_json(v, &format!("{context}.stages[{i}]")))
        .collect::<Result<Vec<StageTrace>, WireError>>()?;
    let counters = array(
        field(map, "counters", &prefix)?,
        &format!("{context}.counters"),
    )?
    .iter()
    .enumerate()
    .map(|(i, v)| {
        let pair_field = format!("{context}.counters[{i}]");
        let pair = array(v, &pair_field)?;
        if pair.len() != 2 {
            return Err(WireError::new(pair_field, "expected a [name, value] pair"));
        }
        Ok((
            string_from_value(&pair[0], &format!("{pair_field}[0]"))?,
            u64_from_value(&pair[1], &format!("{pair_field}[1]"))?,
        ))
    })
    .collect::<Result<Vec<(String, u64)>, WireError>>()?;
    let gauges = array(field(map, "gauges", &prefix)?, &format!("{context}.gauges"))?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let pair_field = format!("{context}.gauges[{i}]");
            let pair = array(v, &pair_field)?;
            if pair.len() != 2 {
                return Err(WireError::new(pair_field, "expected a [name, value] pair"));
            }
            Ok((
                string_from_value(&pair[0], &format!("{pair_field}[0]"))?,
                f64_from_value(&pair[1], &format!("{pair_field}[1]"))?,
            ))
        })
        .collect::<Result<Vec<(String, f64)>, WireError>>()?;
    let histograms = array(
        field(map, "histograms", &prefix)?,
        &format!("{context}.histograms"),
    )?
    .iter()
    .enumerate()
    .map(|(i, v)| histogram_from_json(v, &format!("{context}.histograms[{i}]")))
    .collect::<Result<Vec<HistogramSnapshot>, WireError>>()?;
    Ok(QueryTrace {
        executor: string_from_value(
            field(map, "executor", &prefix)?,
            &format!("{context}.executor"),
        )?,
        partitions: u64_from_value(
            field(map, "partitions", &prefix)?,
            &format!("{context}.partitions"),
        )?,
        stages,
        counters,
        gauges,
        histograms,
    })
}

/// Encode a report (including recursive partition detail) as a JSON value.
pub fn report_to_json(report: &MdpReport) -> Value {
    let mut map = Map::new();
    map.insert("num_points".to_string(), Value::from(report.num_points));
    map.insert("num_outliers".to_string(), Value::from(report.num_outliers));
    map.insert(
        "score_cutoff".to_string(),
        match report.score_cutoff {
            Some(cutoff) => f64_to_value(cutoff),
            None => Value::Null,
        },
    );
    map.insert(
        "scores".to_string(),
        Value::Array(report.scores.iter().map(|&s| f64_to_value(s)).collect()),
    );
    map.insert(
        "outlier_rows".to_string(),
        Value::Array(report.outlier_rows.iter().map(|&r| Value::from(r)).collect()),
    );
    map.insert(
        "explanations".to_string(),
        Value::Array(report.explanations.iter().map(explanation_to_json).collect()),
    );
    map.insert(
        "partition_reports".to_string(),
        match &report.partition_reports {
            Some(reports) => Value::Array(reports.iter().map(report_to_json).collect()),
            None => Value::Null,
        },
    );
    map.insert(
        "trace".to_string(),
        match &report.trace {
            Some(trace) => trace_to_json(trace),
            None => Value::Null,
        },
    );
    Value::Object(map)
}

/// Decode a report from a JSON value produced by [`report_to_json`].
pub fn report_from_json(value: &Value) -> Result<MdpReport, WireError> {
    report_from_json_at(value, "report")
}

const REPORT_KEYS: &[&str] = &[
    "num_points",
    "num_outliers",
    "score_cutoff",
    "scores",
    "outlier_rows",
    "explanations",
    "partition_reports",
    "trace",
];

fn report_from_json_at(value: &Value, context: &str) -> Result<MdpReport, WireError> {
    let map = value
        .as_object()
        .ok_or_else(|| WireError::new(context, "expected a report object"))?;
    reject_unknown_keys(map, REPORT_KEYS, context)?;
    let prefix = format!("{context}.");
    let num_points = usize_from_value(
        field(map, "num_points", &prefix)?,
        &format!("{context}.num_points"),
    )?;
    let num_outliers = usize_from_value(
        field(map, "num_outliers", &prefix)?,
        &format!("{context}.num_outliers"),
    )?;
    let score_cutoff = match field(map, "score_cutoff", &prefix)? {
        Value::Null => None,
        other => Some(f64_from_value(other, &format!("{context}.score_cutoff"))?),
    };
    let scores = array(field(map, "scores", &prefix)?, &format!("{context}.scores"))?
        .iter()
        .enumerate()
        .map(|(i, v)| f64_from_value(v, &format!("{context}.scores[{i}]")))
        .collect::<Result<Vec<f64>, WireError>>()?;
    let outlier_rows = array(
        field(map, "outlier_rows", &prefix)?,
        &format!("{context}.outlier_rows"),
    )?
    .iter()
    .enumerate()
    .map(|(i, v)| usize_from_value(v, &format!("{context}.outlier_rows[{i}]")))
    .collect::<Result<Vec<usize>, WireError>>()?;
    let explanations = array(
        field(map, "explanations", &prefix)?,
        &format!("{context}.explanations"),
    )?
    .iter()
    .enumerate()
    .map(|(i, v)| explanation_from_json(v, &format!("{context}.explanations[{i}]")))
    .collect::<Result<Vec<RenderedExplanation>, WireError>>()?;
    let partition_reports = match field(map, "partition_reports", &prefix)? {
        Value::Null => None,
        other => Some(
            array(other, &format!("{context}.partition_reports"))?
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    report_from_json_at(v, &format!("{context}.partition_reports[{i}]"))
                })
                .collect::<Result<Vec<MdpReport>, WireError>>()?,
        ),
    };
    let trace = match field(map, "trace", &prefix)? {
        Value::Null => None,
        other => Some(trace_from_json(other, &format!("{context}.trace"))?),
    };
    Ok(MdpReport {
        explanations,
        num_points,
        num_outliers,
        score_cutoff,
        scores,
        outlier_rows,
        partition_reports,
        trace,
    })
}

/// Encode a report as JSON text.
pub fn report_to_string(report: &MdpReport) -> String {
    report_to_json(report).to_string()
}

/// Decode a report from JSON text produced by [`report_to_string`].
pub fn report_from_str(text: &str) -> Result<MdpReport, WireError> {
    let value = serde_json::from_str(text)
        .map_err(|e| WireError::new("report", format!("malformed JSON: {e}")))?;
    report_from_json(&value)
}

// ---------------------------------------------------------------------------
// Request half of the protocol: analysis configs, executors, and points.
// These are what a client sends to `mb-serve`; the report codecs above are
// what it gets back.
// ---------------------------------------------------------------------------

/// Encode a [`Point`] as `{"metrics": [...], "attributes": [...]}`.
pub fn point_to_json(point: &Point) -> Value {
    let mut map = Map::new();
    map.insert(
        "metrics".to_string(),
        Value::Array(point.metrics.iter().map(|&m| f64_to_value(m)).collect()),
    );
    map.insert(
        "attributes".to_string(),
        Value::Array(
            point
                .attributes
                .iter()
                .map(|a| Value::String(a.clone()))
                .collect(),
        ),
    );
    Value::Object(map)
}

/// What is wrong with one point object. Field labels are built from it only
/// when a decode fails, so the success path formats nothing.
#[derive(Debug)]
enum PointFault {
    NotObject,
    Unknown(String),
    Duplicate(&'static str),
    Missing(&'static str),
    NotArray(&'static str),
    /// Element `index` of `metrics` (not a number) or `attributes` (not a
    /// string).
    Element(&'static str, usize),
}

impl PointFault {
    fn at(self, point: &str) -> WireError {
        match self {
            PointFault::NotObject => WireError::new(point, "expected a point object"),
            PointFault::Unknown(key) => WireError::new(format!("{point}.{key}"), "unknown field"),
            PointFault::Duplicate(key) => {
                WireError::new(format!("{point}.{key}"), "duplicate field")
            }
            PointFault::Missing(key) => WireError::new(format!("{point}.{key}"), "missing field"),
            PointFault::NotArray(key) => {
                WireError::new(format!("{point}.{key}"), "expected an array")
            }
            PointFault::Element(key, index) => WireError::new(
                format!("{point}.{key}[{index}]"),
                if key == METRICS {
                    "expected a number"
                } else {
                    "expected a string"
                },
            ),
        }
    }
}

/// What is wrong with a `points` array: not an array, or the first bad
/// point.
#[derive(Debug)]
enum PointsFault {
    NotArray,
    Point(usize, PointFault),
}

impl PointsFault {
    fn at(self, context: &str) -> WireError {
        match self {
            PointsFault::NotArray => WireError::new(context, "expected an array"),
            PointsFault::Point(index, fault) => fault.at(&format!("{context}[{index}]")),
        }
    }
}

const METRICS: &str = "metrics";
const ATTRIBUTES: &str = "attributes";

fn point_value(value: &Value) -> Result<Point, PointFault> {
    let map = value.as_object().ok_or(PointFault::NotObject)?;
    if let Some((key, _)) = map
        .iter()
        .find(|(key, _)| *key != METRICS && *key != ATTRIBUTES)
    {
        return Err(PointFault::Unknown(key.clone()));
    }
    let elements = |key: &'static str| match map.get(key) {
        None => Err(PointFault::Missing(key)),
        Some(Value::Array(items)) => Ok(items),
        Some(_) => Err(PointFault::NotArray(key)),
    };
    let metrics = elements(METRICS)?
        .iter()
        .enumerate()
        .map(|(i, v)| number_value(v).ok_or(PointFault::Element(METRICS, i)))
        .collect::<Result<Vec<f64>, PointFault>>()?;
    let attributes = elements(ATTRIBUTES)?
        .iter()
        .enumerate()
        .map(|(i, v)| {
            v.as_str()
                .map(str::to_string)
                .ok_or(PointFault::Element(ATTRIBUTES, i))
        })
        .collect::<Result<Vec<String>, PointFault>>()?;
    Ok(Point::new(metrics, attributes))
}

/// Encode a batch of points as a JSON array.
pub fn points_to_json(points: &[Point]) -> Value {
    Value::Array(points.iter().map(point_to_json).collect())
}

/// Decode a batch of points from a JSON array of point objects, each as
/// [`point_to_json`] encodes it. Unknown keys are a typed error.
pub fn points_from_json(value: &Value, context: &str) -> Result<Vec<Point>, WireError> {
    let Value::Array(items) = value else {
        return Err(PointsFault::NotArray.at(context));
    };
    items
        .iter()
        .enumerate()
        .map(|(i, v)| point_value(v).map_err(|fault| PointsFault::Point(i, fault).at(context)))
        .collect()
}

fn estimator_name(kind: EstimatorKind) -> &'static str {
    match kind {
        EstimatorKind::Auto => "auto",
        EstimatorKind::Mad => "mad",
        EstimatorKind::Mcd => "mcd",
        EstimatorKind::ZScore => "zscore",
    }
}

const ANALYSIS_KEYS: &[&str] = &[
    "estimator",
    "target_percentile",
    "min_support",
    "min_risk_ratio",
    "max_combination_size",
    "training_sample_size",
    "attribute_names",
    "retain_scores",
    "retain_outlier_rows",
    "skip_explanation",
    "traced",
];

/// Encode an [`AnalysisConfig`] as a flat JSON object. Explanation
/// thresholds are flattened (`min_support`, `min_risk_ratio`,
/// `max_combination_size`) and the telemetry switch travels as the boolean
/// `traced`.
pub fn analysis_to_json(analysis: &AnalysisConfig) -> Value {
    let mut map = Map::new();
    map.insert(
        "estimator".to_string(),
        Value::String(estimator_name(analysis.estimator).to_string()),
    );
    map.insert(
        "target_percentile".to_string(),
        f64_to_value(analysis.target_percentile),
    );
    map.insert(
        "min_support".to_string(),
        f64_to_value(analysis.explanation.min_support),
    );
    map.insert(
        "min_risk_ratio".to_string(),
        f64_to_value(analysis.explanation.min_risk_ratio),
    );
    map.insert(
        "max_combination_size".to_string(),
        Value::from(analysis.explanation.max_combination_size),
    );
    map.insert(
        "training_sample_size".to_string(),
        match analysis.training_sample_size {
            Some(n) => Value::from(n),
            None => Value::Null,
        },
    );
    map.insert(
        "attribute_names".to_string(),
        Value::Array(
            analysis
                .attribute_names
                .iter()
                .map(|n| Value::String(n.clone()))
                .collect(),
        ),
    );
    map.insert(
        "retain_scores".to_string(),
        Value::Bool(analysis.retain_scores),
    );
    map.insert(
        "retain_outlier_rows".to_string(),
        Value::Bool(analysis.retain_outlier_rows),
    );
    map.insert(
        "skip_explanation".to_string(),
        Value::Bool(analysis.skip_explanation),
    );
    map.insert("traced".to_string(), Value::Bool(analysis.obs.enabled));
    Value::Object(map)
}

/// Decode an [`AnalysisConfig`] from the encoding of [`analysis_to_json`].
/// Every field is optional and falls back to [`AnalysisConfig::default`];
/// unknown keys are a typed error so a misspelled knob cannot silently
/// leave its default in place.
pub fn analysis_from_json(value: &Value, context: &str) -> Result<AnalysisConfig, WireError> {
    let map = value
        .as_object()
        .ok_or_else(|| WireError::new(context, "expected an analysis object"))?;
    reject_unknown_keys(map, ANALYSIS_KEYS, context)?;
    let mut analysis = AnalysisConfig::default();
    if let Some(v) = map.get("estimator") {
        let name = string_from_value(v, &format!("{context}.estimator"))?;
        analysis.estimator = match name.as_str() {
            "auto" => EstimatorKind::Auto,
            "mad" => EstimatorKind::Mad,
            "mcd" => EstimatorKind::Mcd,
            "zscore" => EstimatorKind::ZScore,
            _ => {
                return Err(WireError::new(
                    format!("{context}.estimator"),
                    "expected one of auto, mad, mcd, zscore",
                ))
            }
        };
    }
    if let Some(v) = map.get("target_percentile") {
        analysis.target_percentile = f64_from_value(v, &format!("{context}.target_percentile"))?;
    }
    if let Some(v) = map.get("min_support") {
        analysis.explanation.min_support = f64_from_value(v, &format!("{context}.min_support"))?;
    }
    if let Some(v) = map.get("min_risk_ratio") {
        analysis.explanation.min_risk_ratio =
            f64_from_value(v, &format!("{context}.min_risk_ratio"))?;
    }
    if let Some(v) = map.get("max_combination_size") {
        analysis.explanation.max_combination_size =
            usize_from_value(v, &format!("{context}.max_combination_size"))?;
    }
    if let Some(v) = map.get("training_sample_size") {
        analysis.training_sample_size = match v {
            Value::Null => None,
            other => Some(usize_from_value(
                other,
                &format!("{context}.training_sample_size"),
            )?),
        };
    }
    if let Some(v) = map.get("attribute_names") {
        analysis.attribute_names = array(v, &format!("{context}.attribute_names"))?
            .iter()
            .enumerate()
            .map(|(i, v)| {
                v.as_str().map(str::to_string).ok_or_else(|| {
                    WireError::new(format!("{context}.attribute_names[{i}]"), "expected a string")
                })
            })
            .collect::<Result<Vec<String>, WireError>>()?;
    }
    if let Some(v) = map.get("retain_scores") {
        analysis.retain_scores = bool_from_value(v, &format!("{context}.retain_scores"))?;
    }
    if let Some(v) = map.get("retain_outlier_rows") {
        analysis.retain_outlier_rows =
            bool_from_value(v, &format!("{context}.retain_outlier_rows"))?;
    }
    if let Some(v) = map.get("skip_explanation") {
        analysis.skip_explanation = bool_from_value(v, &format!("{context}.skip_explanation"))?;
    }
    if let Some(v) = map.get("traced") {
        analysis.obs.enabled = bool_from_value(v, &format!("{context}.traced"))?;
    }
    Ok(analysis)
}

/// Decode an [`Executor`] from a JSON object with a `mode` discriminator
/// (`one_shot`, `coordinated`, `naive`, `streaming`) and per-mode knobs.
/// Knobs are optional (falling back to the mode's defaults), but a knob
/// that does not belong to the declared mode — or any unknown key — is a
/// typed error.
pub fn executor_from_json(value: &Value, context: &str) -> Result<Executor, WireError> {
    let map = value
        .as_object()
        .ok_or_else(|| WireError::new(context, "expected an executor object"))?;
    let prefix = format!("{context}.");
    let mode = string_from_value(field(map, "mode", &prefix)?, &format!("{context}.mode"))?;
    match mode.as_str() {
        "one_shot" => {
            reject_unknown_keys(map, &["mode"], context)?;
            Ok(Executor::OneShot)
        }
        "coordinated" | "naive" => {
            reject_unknown_keys(map, &["mode", "partitions"], context)?;
            let partitions = match map.get("partitions") {
                Some(v) => usize_from_value(v, &format!("{context}.partitions"))?,
                None => 0,
            };
            if mode == "coordinated" {
                Ok(Executor::Coordinated { partitions })
            } else {
                Ok(Executor::NaivePartitioned { partitions })
            }
        }
        "streaming" => {
            reject_unknown_keys(
                map,
                &[
                    "mode",
                    "reservoir_size",
                    "decay_rate",
                    "decay_period",
                    "retrain_period",
                    "seed",
                ],
                context,
            )?;
            let mut options = StreamingOptions::default();
            if let Some(v) = map.get("reservoir_size") {
                options.reservoir_size = usize_from_value(v, &format!("{context}.reservoir_size"))?;
            }
            if let Some(v) = map.get("decay_rate") {
                options.decay_rate = f64_from_value(v, &format!("{context}.decay_rate"))?;
            }
            if let Some(v) = map.get("decay_period") {
                options.decay_period = u64_from_value(v, &format!("{context}.decay_period"))?;
            }
            if let Some(v) = map.get("retrain_period") {
                options.retrain_period = u64_from_value(v, &format!("{context}.retrain_period"))?;
            }
            if let Some(v) = map.get("seed") {
                options.seed = u64_from_value(v, &format!("{context}.seed"))?;
            }
            Ok(Executor::Streaming { options })
        }
        _ => Err(WireError::new(
            format!("{context}.mode"),
            "expected one of one_shot, coordinated, naive, streaming",
        )),
    }
}

// ---------------------------------------------------------------------------
// The byte scanner. A served request is one line of JSON and its `points`
// array is nearly all of it; building a `Value` tree for that array, then a
// `Point` per row, cost more than scoring the rows. The scanner reads the
// text once and accepts exactly what `serde_json::from_str` followed by the
// `Value` codecs above accepts — the same grammar, number conversions,
// `ParseError` offsets and messages, and `WireError` fields. A request's
// `points` member is decoded in the pass that splits the line, into a form
// that waits for the line's other members before it becomes columns or
// points.
// ---------------------------------------------------------------------------

/// Nesting deeper than this is refused as malformed, with serde_json's own
/// limit and message. The `Value` parser recurses once per level, so on
/// hostile input nested a few hundred thousand deep it overflows its stack.
const MAX_DEPTH: usize = 128;

/// The member name a decode's schema fault is reported at.
const POINTS: &str = "points";

/// A `points` array decoded as a request line is split
/// ([`ObjectReader::points`]), in a form that depends on no other member of
/// the line: every row's metrics end to end, every row's attribute values
/// end to end (borrowed from the line unless the value holds an escape),
/// where each row ends, and the first schema fault. The caller finishes it
/// once the rest of the line is known — into the columns a one-shot query
/// runs over ([`DecodedPoints::into_columns`]) or into [`Point`]s
/// (`Vec::<Point>::try_from`). A schema fault is a [`WireError`] at
/// `points` from either.
#[derive(Debug)]
pub struct DecodedPoints<'a> {
    metrics: Vec<f64>,
    attributes: Vec<Cow<'a, str>>,
    /// Per row: where its metrics, and its attribute values, end.
    ends: Vec<(usize, usize)>,
    fault: Option<PointsFault>,
    /// Started when the decode began: a traced query's ingest span runs
    /// from here.
    timer: StageTimer,
}

impl<'a> DecodedPoints<'a> {
    /// An empty decode, its clock started now. The clock is read whether
    /// or not the query turns out to be traced, because the member that
    /// says so may come after `points`.
    fn started() -> Self {
        DecodedPoints {
            metrics: Vec::new(),
            attributes: Vec::new(),
            ends: Vec::new(),
            fault: None,
            timer: StageTimer::start_if(true),
        }
    }

    fn metric(&mut self, value: f64) {
        self.metrics.push(value);
    }

    fn attribute(&mut self, value: Cow<'a, str>) {
        self.attributes.push(value);
    }

    fn end_point(&mut self) {
        self.ends.push((self.metrics.len(), self.attributes.len()));
    }

    fn checked(self) -> Result<Self, WireError> {
        match self.fault {
            Some(fault) => Err(fault.at(POINTS)),
            None => Ok(self),
        }
    }

    /// The rows in columns for a query `executor` will run over `analysis`
    /// (see [`ColumnarInput::new`]): metrics into the flat buffer as
    /// they are, attributes interned into the query's dictionary row by
    /// row, column by column — the ids a serial `encode_point` pass assigns
    /// — or, for a query that skips explanation, only counted. The trace's
    /// ingest span runs from the start of the decode to the end of the
    /// interning. The inner error is the one the one-shot engine gives
    /// these rows, in its order: no rows, no metrics, then ragged; ragged
    /// rows are not interned.
    pub fn into_columns(
        self,
        analysis: &AnalysisConfig,
        executor: &Executor,
    ) -> Result<crate::Result<ColumnarInput>, WireError> {
        let DecodedPoints {
            metrics,
            attributes,
            ends,
            timer,
            ..
        } = self.checked()?;
        let mut dims = ends.iter().scan(0, |start, &(end, _)| {
            let dim = end - *start;
            *start = end;
            Some(dim)
        });
        let first_dim = dims.next().unwrap_or(0);
        if let Some(actual) = dims.find(|&dim| dim != first_dim) {
            if first_dim > 0 {
                return Ok(Err(crate::PipelineError::InconsistentDimensions {
                    expected: first_dim,
                    actual,
                }));
            }
        }
        let mut input = ColumnarInput::new(analysis, executor);
        let batch = &mut input.batch;
        batch.metrics = metrics;
        batch.dim = first_dim;
        let mut start = 0;
        for &(_, end) in &ends {
            if !analysis.skip_explanation {
                for (column, value) in attributes[start..end].iter().enumerate() {
                    batch.items.push_item(input.encoder.encode(column, value));
                }
            }
            batch.items.finish_row();
            start = end;
        }
        if let Err(e) = check_columns(batch) {
            return Ok(Err(e));
        }
        let rows = batch.len();
        input
            .trace
            .finish_stage(timer, mb_obs::stage::Stage::Ingest, rows, rows, 1);
        Ok(Ok(input))
    }
}

/// The rows as [`Point`]s, for feeds and the partitioned and streaming
/// executors: one allocation per row's metrics and per attribute value
/// borrowed from the line.
impl TryFrom<DecodedPoints<'_>> for Vec<Point> {
    type Error = WireError;

    fn try_from(decoded: DecodedPoints<'_>) -> Result<Self, WireError> {
        let decoded = decoded.checked()?;
        let mut attributes = decoded.attributes.into_iter();
        let (mut metrics_start, mut attributes_start) = (0, 0);
        Ok(decoded
            .ends
            .iter()
            .map(|&(metrics_end, attributes_end)| {
                let point = Point::new(
                    decoded.metrics[metrics_start..metrics_end].to_vec(),
                    attributes
                        .by_ref()
                        .take(attributes_end - attributes_start)
                        .map(Cow::into_owned)
                        .collect(),
                );
                (metrics_start, attributes_start) = (metrics_end, attributes_end);
                point
            })
            .collect())
    }
}

/// The fields of one point object seen so far, and what was wrong with
/// them.
#[derive(Default)]
struct PointFields {
    unknown: Option<String>,
    duplicate: Option<&'static str>,
    metrics: Field,
    attributes: Field,
}

#[derive(Default)]
struct Field {
    seen: bool,
    fault: Option<PointFault>,
}

impl PointFields {
    fn clean(&self) -> bool {
        self.unknown.is_none()
            && self.duplicate.is_none()
            && self.metrics.fault.is_none()
            && self.attributes.fault.is_none()
    }

    /// The fault [`points_from_json`] reports for the point, whatever
    /// order the fields came in: the first unknown key, then `metrics`,
    /// then `attributes`.
    fn fault(self) -> Option<PointFault> {
        if let Some(key) = self.unknown {
            return Some(PointFault::Unknown(key));
        }
        if let Some(key) = self.duplicate {
            return Some(PointFault::Duplicate(key));
        }
        for (key, field) in [(METRICS, self.metrics), (ATTRIBUTES, self.attributes)] {
            if !field.seen {
                return Some(PointFault::Missing(key));
            }
            if field.fault.is_some() {
                return field.fault;
            }
        }
        None
    }
}

const LOW_BITS: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = 0x8080_8080_8080_8080;

/// The high bit of each byte of `word` that equals `byte`, and possibly of
/// bytes after the first such one: exact up to and including the lowest.
fn has_byte(word: u64, byte: u8) -> u64 {
    let x = word ^ (LOW_BITS * u64::from(byte));
    x.wrapping_sub(LOW_BITS) & !x & HIGH_BITS
}

/// The high bit of each byte of `word` that is not an ASCII digit.
fn non_digits(word: u64) -> u64 {
    let x = word ^ (LOW_BITS * u64::from(b'0'));
    // A byte is a digit when it is now below 10: adding 0x76 to its low
    // seven bits sets the high bit exactly when it is 10 or more, with no
    // carry into the next byte.
    (((x & !HIGH_BITS) + LOW_BITS * 0x76) | x) & HIGH_BITS
}

/// The length of the run of bytes from `start` that `keep` accepts, eight
/// bytes at a time: `stops` marks (at least the lowest of) the bytes of a
/// little-endian word that end the run.
fn run(bytes: &[u8], start: usize, stops: impl Fn(u64) -> u64, keep: impl Fn(u8) -> bool) -> usize {
    let rest = bytes.get(start..).unwrap_or_default();
    let mut n = 0;
    while let Some(chunk) = rest.get(n..n + 8).and_then(|c| <[u8; 8]>::try_from(c).ok()) {
        let stop = stops(u64::from_le_bytes(chunk));
        if stop != 0 {
            return n + stop.trailing_zeros() as usize / 8;
        }
        n += 8;
    }
    n + rest
        .get(n..)
        .unwrap_or_default()
        .iter()
        .take_while(|&&c| keep(c))
        .count()
}

struct Scanner<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Containers open around the value being read.
    depth: usize,
}

impl<'a> Scanner<'a> {
    fn new(text: &'a str) -> Self {
        Scanner {
            text,
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    fn error(&self, message: &str) -> ParseError {
        ParseError {
            offset: self.pos,
            message: message.to_string(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_whitespace(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn consume(&mut self, byte: u8) -> Result<(), ParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    /// The end of the document: only whitespace may follow.
    fn finish(&mut self) -> Result<(), ParseError> {
        self.skip_whitespace();
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.error("trailing characters after JSON document"))
        }
    }

    /// `text[start..pos]`. The scanner stops only on ASCII bytes or at the
    /// end, which are always character boundaries.
    fn slice(&self, start: usize) -> Result<&'a str, ParseError> {
        self.text
            .get(start..self.pos)
            .ok_or_else(|| self.error("invalid UTF-8 in string"))
    }

    fn literal(&mut self, literal: &str) -> Result<(), ParseError> {
        if self
            .bytes
            .get(self.pos..)
            .is_some_and(|rest| rest.starts_with(literal.as_bytes()))
        {
            self.pos += literal.len();
            Ok(())
        } else {
            Err(self.error(&format!("expected '{literal}'")))
        }
    }

    /// Past a run of string bytes that need no unescaping.
    fn skip_plain(&mut self) {
        self.pos += run(
            self.bytes,
            self.pos,
            |word| has_byte(word, b'"') | has_byte(word, b'\\'),
            |c| c != b'"' && c != b'\\',
        );
    }

    /// The character the backslash escape at `pos` stands for.
    fn escape(&mut self) -> Result<char, ParseError> {
        self.pos += 1;
        let escape = self
            .peek()
            .ok_or_else(|| self.error("unterminated escape"))?;
        self.pos += 1;
        Ok(match escape {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{0008}',
            b'f' => '\u{000C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let hex = self
                    .bytes
                    .get(self.pos..self.pos + 4)
                    .ok_or_else(|| self.error("truncated \\u escape"))?;
                // `from_str_radix`, quirks and all (it takes a leading `+`),
                // because that is what the parser calls.
                let code = std::str::from_utf8(hex)
                    .ok()
                    .and_then(|hex| u32::from_str_radix(hex, 16).ok())
                    .ok_or_else(|| self.error("invalid \\u escape"))?;
                self.pos += 4;
                char::from_u32(code)
                    .ok_or_else(|| self.error("\\u escape is not a scalar value"))?
            }
            _ => return Err(self.error("unknown escape character")),
        })
    }

    /// A string, borrowed from the text unless it holds an escape.
    fn string(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.consume(b'"')?;
        let start = self.pos;
        self.skip_plain();
        if self.peek() == Some(b'"') {
            let plain = self.slice(start)?;
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = String::from(self.slice(start)?);
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(_) => out.push(self.escape()?),
                None => return Err(self.error("unterminated string")),
            }
            let start = self.pos;
            self.skip_plain();
            out.push_str(self.slice(start)?);
        }
    }

    fn skip_string(&mut self) -> Result<(), ParseError> {
        self.consume(b'"')?;
        loop {
            self.skip_plain();
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(_) => {
                    self.escape()?;
                }
                None => return Err(self.error("unterminated string")),
            }
        }
    }

    fn digits(&mut self) -> usize {
        let digits = run(self.bytes, self.pos, non_digits, |c| c.is_ascii_digit());
        self.pos += digits;
        digits
    }

    /// Past a number token as the parser delimits it: `-`? digits, then an
    /// optional fraction and exponent. Returns where it starts, whether it
    /// is a float, and whether `str::parse` accepts it — some digit before
    /// the exponent, and one after the exponent's sign.
    fn number_token(&mut self) -> (usize, bool, bool) {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut mantissa = self.digits();
        let mut is_float = false;
        let mut exponent = true;
        if self.peek() == Some(b'.') {
            is_float = true;
            self.pos += 1;
            mantissa += self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            is_float = true;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            exponent = self.digits() > 0;
        }
        (start, is_float, mantissa > 0 && exponent)
    }

    fn skip_number(&mut self) -> Result<(), ParseError> {
        let (_, _, valid) = self.number_token();
        if valid {
            Ok(())
        } else {
            Err(self.error("invalid number"))
        }
    }

    /// A number as `Value::as_f64` reads the parser's: integers go through
    /// `i64`, then `u64`, before `f64`, so `-0` is `+0.0`.
    fn number(&mut self) -> Result<f64, ParseError> {
        let (start, is_float, _) = self.number_token();
        let text = self.slice(start)?;
        if !is_float {
            if let Ok(i) = text.parse::<i64>() {
                return Ok(i as f64);
            }
            if let Ok(u) = text.parse::<u64>() {
                return Ok(u as f64);
            }
        }
        text.parse::<f64>()
            .map_err(|_| self.error("invalid number"))
    }

    /// A member's key and colon, up to its value.
    fn skip_key(&mut self) -> Result<(), ParseError> {
        self.skip_whitespace();
        self.skip_string()?;
        self.skip_whitespace();
        self.consume(b':')?;
        self.skip_whitespace();
        Ok(())
    }

    /// Past one value, validating it as the parser would and building
    /// nothing. Iterative, with `depth` more containers open around it than
    /// around the value the scanner was set to read.
    fn skip_value(&mut self, depth: usize) -> Result<(), ParseError> {
        let mut open: Vec<u8> = Vec::new();
        loop {
            match self.peek() {
                Some(c @ (b'{' | b'[')) => {
                    if self.depth + depth + open.len() >= MAX_DEPTH {
                        return Err(self.error("recursion limit exceeded"));
                    }
                    let close = if c == b'{' { b'}' } else { b']' };
                    self.pos += 1;
                    self.skip_whitespace();
                    if self.peek() != Some(close) {
                        open.push(close);
                        if close == b'}' {
                            self.skip_key()?;
                        }
                        continue;
                    }
                    self.pos += 1;
                }
                Some(b'"') => self.skip_string()?,
                Some(b't') => self.literal("true")?,
                Some(b'f') => self.literal("false")?,
                Some(b'n') => self.literal("null")?,
                Some(b'-' | b'0'..=b'9') => self.skip_number()?,
                _ => return Err(self.error("expected a JSON value")),
            }
            // A value ended: close containers until one continues.
            loop {
                let Some(&close) = open.last() else {
                    return Ok(());
                };
                self.skip_whitespace();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        if close == b'}' {
                            self.skip_key()?;
                        } else {
                            self.skip_whitespace();
                        }
                        break;
                    }
                    Some(c) if c == close => {
                        self.pos += 1;
                        open.pop();
                    }
                    _ => return Err(self.separator_error(close)),
                }
            }
        }
    }

    fn separator_error(&self, close: u8) -> ParseError {
        self.error(if close == b'}' {
            "expected ',' or '}' in object"
        } else {
            "expected ',' or ']' in array"
        })
    }

    /// After an element or member: past a `,` (`true`) or the closing byte
    /// (`false`).
    fn next_or_close(&mut self, close: u8) -> Result<bool, ParseError> {
        self.skip_whitespace();
        match self.peek() {
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            Some(c) if c == close => {
                self.pos += 1;
                Ok(false)
            }
            _ => Err(self.separator_error(close)),
        }
    }

    /// Past the opening byte of a container and its whitespace; `false` if
    /// it closes right away.
    fn open(&mut self, close: u8) -> bool {
        self.pos += 1;
        self.skip_whitespace();
        if self.peek() == Some(close) {
            self.pos += 1;
            false
        } else {
            true
        }
    }

    /// A `points` value into `rows`. Returns the first schema fault only
    /// once the whole value has been checked, because a syntax error
    /// anywhere wins when `from_str` runs first.
    fn points(&mut self, rows: &mut DecodedPoints<'a>) -> Result<Option<PointsFault>, ParseError> {
        if self.peek() != Some(b'[') {
            self.skip_value(0)?;
            return Ok(Some(PointsFault::NotArray));
        }
        let mut fault = None;
        let mut more = self.open(b']');
        let mut index = 0;
        while more {
            self.skip_whitespace();
            if fault.is_none() && self.peek() == Some(b'{') {
                fault = self.point(rows)?.map(|f| PointsFault::Point(index, f));
            } else {
                self.skip_value(1)?;
                fault.get_or_insert(PointsFault::Point(index, PointFault::NotObject));
            }
            more = self.next_or_close(b']')?;
            index += 1;
        }
        Ok(fault)
    }

    /// One point object, fields in either order; `None` if it went into
    /// `rows` whole.
    fn point(&mut self, rows: &mut DecodedPoints<'a>) -> Result<Option<PointFault>, ParseError> {
        let mut fields = PointFields::default();
        let mut more = self.open(b'}');
        while more {
            self.skip_whitespace();
            let key = self.string()?;
            self.skip_whitespace();
            self.consume(b':')?;
            self.skip_whitespace();
            let live = fields.clean();
            match key.as_ref() {
                METRICS if !fields.metrics.seen => {
                    fields.metrics = self.elements(METRICS, live, rows)?;
                }
                ATTRIBUTES if !fields.attributes.seen => {
                    fields.attributes = self.elements(ATTRIBUTES, live, rows)?;
                }
                METRICS | ATTRIBUTES => {
                    fields.duplicate.get_or_insert(if key == METRICS {
                        METRICS
                    } else {
                        ATTRIBUTES
                    });
                    self.skip_value(2)?;
                }
                _ => {
                    if fields.unknown.is_none() {
                        fields.unknown = Some(key.into_owned());
                    }
                    self.skip_value(2)?;
                }
            }
            more = self.next_or_close(b'}')?;
        }
        let fault = fields.fault();
        if fault.is_none() {
            rows.end_point();
        }
        Ok(fault)
    }

    /// The `metrics` or `attributes` array of a point, its elements written
    /// to `rows` while `live` and the array is sound.
    fn elements(
        &mut self,
        key: &'static str,
        live: bool,
        rows: &mut DecodedPoints<'a>,
    ) -> Result<Field, ParseError> {
        let mut field = Field {
            seen: true,
            fault: None,
        };
        if self.peek() != Some(b'[') {
            self.skip_value(2)?;
            field.fault = Some(PointFault::NotArray(key));
            return Ok(field);
        }
        let mut more = self.open(b']');
        let mut index = 0;
        while more {
            self.skip_whitespace();
            let write = live && field.fault.is_none();
            let sound = match (key, self.peek()) {
                (METRICS, Some(b'-' | b'0'..=b'9')) => {
                    let value = self.number()?;
                    if write {
                        rows.metric(value);
                    }
                    true
                }
                (METRICS, Some(b'"')) => match non_finite(&self.string()?) {
                    Some(value) => {
                        if write {
                            rows.metric(value);
                        }
                        true
                    }
                    None => false,
                },
                (_, Some(b'"')) => {
                    let value = self.string()?;
                    if write {
                        rows.attribute(value);
                    }
                    true
                }
                _ => {
                    self.skip_value(3)?;
                    false
                }
            };
            if !sound && field.fault.is_none() {
                field.fault = Some(PointFault::Element(key, index));
            }
            more = self.next_or_close(b']')?;
            index += 1;
        }
        Ok(field)
    }
}

/// Reads a JSON object member by member, checking the whole text exactly as
/// `serde_json::from_str` checks it (the same [`ParseError`]), and yielding
/// each value as its raw text ([`ObjectReader::value`]) or, for a `points`
/// array, decoded in the same pass ([`ObjectReader::points`]). A request
/// line is split with this: its `points` bytes are scanned once, whatever
/// order the members come in, and no `Value` is built for them.
pub struct ObjectReader<'a> {
    scanner: Scanner<'a>,
    /// Whether a member's value was read since the last key.
    after_value: bool,
    /// Whether another member follows.
    more: bool,
}

impl<'a> ObjectReader<'a> {
    /// A reader at the first member, or `None` (once the whole document
    /// has been checked) if it is some other value than an object.
    pub fn new(text: &'a str) -> Result<Option<Self>, ParseError> {
        let mut scanner = Scanner::new(text);
        scanner.skip_whitespace();
        if scanner.peek() != Some(b'{') {
            scanner.skip_value(0)?;
            scanner.finish()?;
            return Ok(None);
        }
        let more = scanner.open(b'}');
        scanner.depth = 1;
        Ok(Some(ObjectReader {
            scanner,
            after_value: false,
            more,
        }))
    }

    /// The next member's key, to be followed by reading its value; `None`
    /// once the object, and the document, have ended.
    pub fn next_key(&mut self) -> Result<Option<Cow<'a, str>>, ParseError> {
        let scanner = &mut self.scanner;
        if std::mem::take(&mut self.after_value) {
            self.more = scanner.next_or_close(b'}')?;
        }
        if !self.more {
            scanner.finish()?;
            return Ok(None);
        }
        scanner.skip_whitespace();
        let key = scanner.string()?;
        scanner.skip_whitespace();
        scanner.consume(b':')?;
        scanner.skip_whitespace();
        Ok(Some(key))
    }

    /// Skip the current member's value, returning its text.
    pub fn value(&mut self) -> Result<&'a str, ParseError> {
        let start = self.scanner.pos;
        self.scanner.skip_value(0)?;
        self.after_value = true;
        self.scanner.slice(start)
    }

    /// Decode the current member's value as a `points` array, checking it
    /// as [`ObjectReader::value`] does — at the line's own offsets and
    /// depth, so a syntax error is the same [`ParseError`] — and keeping
    /// the rows in place of the text. A value that is not a sound array of
    /// points is not an error here: its fault waits in the decode, for the
    /// caller to report after the line's other members.
    pub fn points(&mut self) -> Result<DecodedPoints<'a>, ParseError> {
        let mut rows = DecodedPoints::started();
        rows.fault = self.scanner.points(&mut rows)?;
        self.after_value = true;
        Ok(rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mb_explain::AttributeEncoder;

    fn sample_report() -> MdpReport {
        MdpReport {
            explanations: vec![RenderedExplanation {
                attributes: vec!["device=d\"13\"".to_string(), "version=2.6".to_string()],
                items: vec![0, 7],
                stats: ExplanationStats {
                    outlier_count: 60.0,
                    inlier_count: 0.0,
                    outlier_support: 0.6,
                    risk_ratio: f64::INFINITY,
                    total_outliers: 100.0,
                    total_inliers: 9_900.0,
                },
            }],
            num_points: 10_000,
            num_outliers: 100,
            score_cutoff: Some(3.25),
            scores: vec![0.5, 12.75, 0.125],
            outlier_rows: vec![1, 4_096],
            partition_reports: None,
            trace: None,
        }
    }

    /// Encode an [`Executor`] as [`executor_from_json`] reads it: the
    /// round-trip tests' encoder.
    fn executor_to_json(executor: &Executor) -> Value {
        let mut map = Map::new();
        match executor {
            Executor::OneShot => {
                map.insert("mode".to_string(), Value::String("one_shot".to_string()));
            }
            Executor::Coordinated { partitions } => {
                map.insert("mode".to_string(), Value::String("coordinated".to_string()));
                map.insert("partitions".to_string(), Value::from(*partitions));
            }
            Executor::NaivePartitioned { partitions } => {
                map.insert("mode".to_string(), Value::String("naive".to_string()));
                map.insert("partitions".to_string(), Value::from(*partitions));
            }
            Executor::Streaming { options } => {
                map.insert("mode".to_string(), Value::String("streaming".to_string()));
                map.insert(
                    "reservoir_size".to_string(),
                    Value::from(options.reservoir_size),
                );
                map.insert("decay_rate".to_string(), f64_to_value(options.decay_rate));
                map.insert("decay_period".to_string(), Value::from(options.decay_period));
                map.insert(
                    "retrain_period".to_string(),
                    Value::from(options.retrain_period),
                );
                map.insert("seed".to_string(), Value::from(options.seed));
            }
        }
        Value::Object(map)
    }

    #[test]
    fn report_round_trips_through_text() {
        let report = sample_report();
        let decoded = report_from_str(&report_to_string(&report)).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn partition_detail_round_trips_recursively() {
        let mut outer = sample_report();
        let mut inner = sample_report();
        inner.partition_reports = None;
        inner.score_cutoff = None;
        outer.partition_reports = Some(vec![inner.clone(), inner]);
        let decoded = report_from_str(&report_to_string(&outer)).unwrap();
        assert_eq!(decoded, outer);
    }

    #[test]
    fn non_finite_statistics_survive_the_wire() {
        let mut report = sample_report();
        report.explanations[0].stats.risk_ratio = f64::NEG_INFINITY;
        let decoded = report_from_str(&report_to_string(&report)).unwrap();
        assert_eq!(
            decoded.explanations[0].stats.risk_ratio,
            f64::NEG_INFINITY
        );
    }

    #[test]
    fn misspelled_report_field_is_a_typed_error() {
        // Regression: unknown top-level keys used to be silently ignored, so
        // a typo like `num_outlier` produced a decode that dropped the value.
        let mut value = report_to_json(&sample_report());
        let map = value.as_object_mut().unwrap();
        let count = map.get("num_outliers").unwrap().clone();
        map.insert("num_outlier".to_string(), count);
        let err = report_from_json(&value).unwrap_err();
        assert_eq!(err.field, "report.num_outlier");
        assert_eq!(err.message, "unknown field");
    }

    #[test]
    fn analysis_config_round_trips() {
        let analysis = AnalysisConfig {
            estimator: EstimatorKind::Mcd,
            target_percentile: 0.95,
            explanation: mb_explain::ExplanationConfig {
                min_support: 0.01,
                min_risk_ratio: 5.0,
                max_combination_size: 2,
            },
            training_sample_size: Some(1_000),
            attribute_names: vec!["device".to_string()],
            retain_scores: true,
            retain_outlier_rows: true,
            obs: mb_obs::ObsConfig { enabled: true },
            ..AnalysisConfig::default()
        };
        let decoded = analysis_from_json(&analysis_to_json(&analysis), "analysis").unwrap();
        assert_eq!(decoded.estimator, analysis.estimator);
        assert_eq!(decoded.target_percentile, analysis.target_percentile);
        assert_eq!(decoded.explanation.min_support, analysis.explanation.min_support);
        assert_eq!(
            decoded.explanation.max_combination_size,
            analysis.explanation.max_combination_size
        );
        assert_eq!(decoded.training_sample_size, analysis.training_sample_size);
        assert_eq!(decoded.attribute_names, analysis.attribute_names);
        assert!(decoded.retain_scores && decoded.retain_outlier_rows);
        assert!(decoded.obs.enabled);

        // An empty object decodes to the defaults.
        let defaults =
            analysis_from_json(&Value::Object(Map::new()), "analysis").unwrap();
        assert_eq!(defaults.estimator, EstimatorKind::Auto);
        assert_eq!(defaults.target_percentile, 0.99);
        assert!(!defaults.obs.enabled);
    }

    #[test]
    fn misspelled_analysis_knob_is_a_typed_error() {
        let mut map = Map::new();
        map.insert("target_percentil".to_string(), Value::from(0.9));
        let err = analysis_from_json(&Value::Object(map), "analysis").unwrap_err();
        assert_eq!(err.field, "analysis.target_percentil");
        assert_eq!(err.message, "unknown field");
    }

    #[test]
    fn executor_round_trips_and_rejects_foreign_knobs() {
        for executor in [
            Executor::OneShot,
            Executor::Coordinated { partitions: 4 },
            Executor::NaivePartitioned { partitions: 2 },
            Executor::Streaming {
                options: StreamingOptions {
                    reservoir_size: 500,
                    decay_rate: 0.05,
                    decay_period: 1_000,
                    retrain_period: 250,
                    seed: 7,
                },
            },
        ] {
            let decoded =
                executor_from_json(&executor_to_json(&executor), "executor").unwrap();
            assert_eq!(decoded, executor);
        }

        // A streaming knob on a one-shot executor fails loudly.
        let mut map = Map::new();
        map.insert("mode".to_string(), Value::String("one_shot".to_string()));
        map.insert("reservoir_size".to_string(), Value::from(100usize));
        let err = executor_from_json(&Value::Object(map), "executor").unwrap_err();
        assert_eq!(err.field, "executor.reservoir_size");
        assert_eq!(err.message, "unknown field");
    }

    #[test]
    fn points_round_trip_including_non_finite_metrics() {
        let points = vec![
            Point::new(vec![1.0, f64::INFINITY], vec!["a".to_string(), "b".to_string()]),
            Point::new(vec![-2.5, 0.0], vec!["c".to_string(), "d".to_string()]),
        ];
        let decoded = points_from_json(&points_to_json(&points), "points").unwrap();
        assert_eq!(decoded, points);

        let mut map = Map::new();
        map.insert("metric".to_string(), Value::Array(vec![]));
        let err = points_from_json(&Value::Array(vec![Value::Object(map)]), "points").unwrap_err();
        assert_eq!(err.field, "points[0].metric");
        assert_eq!(err.message, "unknown field");
    }

    #[test]
    fn decode_errors_name_the_failing_field() {
        let mut value = report_to_json(&sample_report());
        value
            .as_object_mut()
            .unwrap()
            .insert("num_outliers".to_string(), Value::String("many".to_string()));
        let err = report_from_json(&value).unwrap_err();
        assert_eq!(err.field, "report.num_outliers");

        let err = report_from_str("{}").unwrap_err();
        assert!(err.field.starts_with("report."), "{err}");
        assert_eq!(err.message, "missing field");
    }

    // -----------------------------------------------------------------------
    // The byte scanner against `serde_json::from_str` + the `Value` codecs.
    // -----------------------------------------------------------------------

    /// A small deterministic generator (xorshift64*), so every case is
    /// reproducible from its seed.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn chance(&mut self, percent: usize) -> bool {
            self.below(100) < percent
        }

        fn pick<'a>(&mut self, choices: &[&'a str]) -> &'a str {
            choices[self.below(choices.len())]
        }

        fn ws(&mut self) -> &'static str {
            self.pick(&["", "", "", " ", "\n", "\t\r ", "  "])
        }
    }

    fn number_text(g: &mut Gen) -> String {
        match g.below(4) {
            0 => g
                .pick(&[
                    "0",
                    "-0",
                    "-0.0",
                    "0.0",
                    "1e3",
                    "1E-2",
                    "-12.5e+1",
                    "2.5E+0",
                    "9007199254740993",
                    "-9007199254740993",
                    "9223372036854775807",
                    "9223372036854775808",
                    "-9223372036854775809",
                    "18446744073709551615",
                    "18446744073709551616",
                    "123456789012345678901234567890",
                    "1e400",
                    "-1e400",
                    "4.9e-324",
                    "1e-400",
                    "\"Infinity\"",
                    "\"-Infinity\"",
                    "\"NaN\"",
                    "\"\\u004eaN\"",
                    "01",
                    "-007",
                    "1.",
                    "1.e5",
                    "-.5",
                ])
                .to_string(),
            1 => format!("{}", g.next() as i64 >> g.below(64)),
            2 => format!("{:e}", (g.next() % 1_000_000) as f64 / 977.0),
            _ => format!("{}", (g.next() % 100_000_000) as f64 / 4_096.0 - 9_000.0),
        }
    }

    fn attribute_text(g: &mut Gen) -> String {
        if g.chance(70) {
            return format!("\"v{}\"", g.below(6));
        }
        g.pick(&[
            "\"\"",
            "\"b\\\"c\"",
            "\"\\u0041\"",
            "\"\\u00e9x\"",
            "\"é✓\"",
            "\"\\/\\b\\f\\n\\r\\t\"",
            "\"a\\\\\"",
            "\"\\u+041\"",
        ])
        .to_string()
    }

    fn key_text(g: &mut Gen, key: &str) -> String {
        if g.chance(90) {
            return format!("\"{key}\"");
        }
        // The same key spelled through escapes.
        let mut out = String::from("\"");
        for c in key.chars() {
            if g.chance(50) {
                out.push_str(&format!("\\u{:04x}", c as u32));
            } else {
                out.push(c);
            }
        }
        out.push('"');
        out
    }

    /// One generated `points` text, and whether some point names a field
    /// twice (the one place the scanner may differ on purpose).
    fn points_text(g: &mut Gen) -> (String, bool) {
        if g.chance(2) {
            return (
                g.pick(&["{}", "1", "null", "\"points\"", " true "])
                    .to_string(),
                false,
            );
        }
        let rows = g.below(6);
        let dim = if g.chance(10) { g.below(3) } else { 2 };
        let mut duplicate = false;
        let mut points = Vec::new();
        for _ in 0..rows {
            if g.chance(2) {
                points.push(g.pick(&["1", "[]", "null", "\"p\""]).to_string());
                continue;
            }
            let dim = if g.chance(5) { dim + 1 } else { dim };
            let metrics: Vec<String> = (0..dim)
                .map(|_| {
                    if g.chance(3) {
                        g.pick(&["true", "null", "[1]", "{}", "\"x\"", "\"Infinityy\""])
                            .to_string()
                    } else {
                        number_text(g)
                    }
                })
                .collect();
            let attributes: Vec<String> = (0..2)
                .map(|_| {
                    if g.chance(3) {
                        g.pick(&["1", "null", "[]", "{\"a\":1}"]).to_string()
                    } else {
                        attribute_text(g)
                    }
                })
                .collect();
            let array = |g: &mut Gen, items: &[String]| {
                let sep = format!(",{}", g.ws());
                format!("[{}{}{}]", g.ws(), items.join(&sep), g.ws())
            };
            let metrics_value = if g.chance(2) {
                "1".to_string()
            } else {
                array(g, &metrics)
            };
            let attributes_value = array(g, &attributes);
            let mut members = vec![
                (key_text(g, "metrics"), metrics_value),
                (key_text(g, "attributes"), attributes_value),
            ];
            match g.below(40) {
                0 => members.push(("\"metric\"".to_string(), "[]".to_string())),
                1 => members.insert(0, ("\"x\"".to_string(), "{\"y\":[1]}".to_string())),
                2 => {
                    members.remove(g.below(2));
                }
                3 => {
                    duplicate = true;
                    let again = members[g.below(2)].clone();
                    members.push(again);
                }
                _ => {}
            }
            if g.chance(50) {
                members.reverse();
            }
            let body: Vec<String> = members
                .into_iter()
                .map(|(k, v)| format!("{k}{}:{}{v}", g.ws(), g.ws()))
                .collect();
            let sep = format!(",{}", g.ws());
            points.push(format!("{{{}{}{}}}", g.ws(), body.join(&sep), g.ws()));
        }
        let sep = format!(",{}", g.ws());
        (
            format!(
                "{}[{}{}{}]{}",
                g.ws(),
                g.ws(),
                points.join(&sep),
                g.ws(),
                g.ws()
            ),
            duplicate,
        )
    }

    /// Replace, insert, or delete a few characters, favoring the ones JSON
    /// syntax turns on.
    fn mutate(g: &mut Gen, text: &str) -> String {
        let mut chars: Vec<char> = text.chars().collect();
        for _ in 0..1 + g.below(3) {
            let at = g.below(chars.len() + 1);
            let c = g
                .pick(&[
                    "{", "}", "[", "]", "\"", ",", ":", "\\", " ", "-", ".", "0", "e", "t", "u",
                    "é",
                ])
                .chars()
                .next()
                .unwrap();
            match g.below(3) {
                0 if at < chars.len() => chars[at] = c,
                1 => chars.insert(at, c),
                _ if at < chars.len() => {
                    chars.remove(at);
                }
                _ => {}
            }
        }
        chars.into_iter().collect()
    }

    /// A standalone `points` text as the one member of a request line.
    fn line_of(text: &str) -> String {
        format!("{{\"points\":{text}}}")
    }

    fn malformed(e: ParseError) -> WireError {
        WireError::new("points", format!("malformed JSON: {e}"))
    }

    /// What `serde_json::from_str` then [`points_from_json`] make of
    /// `text` as the `points` member of a line.
    fn oracle(text: &str) -> Result<Vec<Point>, WireError> {
        let value: Value = serde_json::from_str(&line_of(text)).map_err(malformed)?;
        points_from_json(value.as_object().unwrap().get("points").unwrap(), "points")
    }

    /// `line`'s (last) `points` member decoded as a server decodes it: in
    /// the pass that splits the line; `None` without one.
    fn decoded_points(line: &str) -> Result<Option<DecodedPoints<'_>>, ParseError> {
        let Some(mut reader) = ObjectReader::new(line)? else {
            return Ok(None);
        };
        let mut points = None;
        while let Some(key) = reader.next_key()? {
            if key == "points" {
                points = Some(reader.points()?);
            } else {
                reader.value()?;
            }
        }
        Ok(points)
    }

    /// `text` decoded as the `points` member of a line, then finished.
    fn decode<T>(
        text: &str,
        finish: impl FnOnce(DecodedPoints<'_>) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        let line = line_of(text);
        finish(decoded_points(&line).map_err(malformed)?.unwrap())
    }

    fn rows(text: &str) -> Result<Vec<Point>, WireError> {
        decode(text, |points| Vec::try_from(points))
    }

    fn columns(
        text: &str,
        analysis: &AnalysisConfig,
    ) -> Result<crate::Result<ColumnarInput>, WireError> {
        decode(text, |points| {
            points.into_columns(analysis, &Executor::OneShot)
        })
    }

    /// Points compared by metric bits, so `NaN` equals itself.
    type Exact<'a> = Result<Vec<(Vec<u64>, &'a [String])>, &'a WireError>;

    fn exactly(decoded: &Result<Vec<Point>, WireError>) -> Exact<'_> {
        decoded.as_ref().map(|points| {
            points
                .iter()
                .map(|p| {
                    (
                        p.metrics.iter().map(|m| m.to_bits()).collect(),
                        p.attributes.as_slice(),
                    )
                })
                .collect()
        })
    }

    fn metric_bits(points: &[Point]) -> Vec<u64> {
        points
            .iter()
            .flat_map(|p| p.metrics.iter().map(|m| m.to_bits()))
            .collect()
    }

    /// Both finishes of the decode of `text`: the points must equal the
    /// oracle's, and the columns must hold the oracle's metric bits and the
    /// item ids of a serial `encode_point` pass, or fail with the row-form
    /// engine's shape error.
    fn check_against_oracle(text: &str, duplicate: bool) {
        let expected = oracle(text);
        let rows = rows(text);
        let columns = columns(text, &AnalysisConfig::default());
        if duplicate && rows.as_ref().is_err_and(|e| e.message == "duplicate field") {
            assert!(columns.is_err(), "{text}");
            return;
        }
        assert_eq!(exactly(&rows), exactly(&expected), "{text}");
        let Ok(points) = expected else {
            assert_eq!(columns.err(), rows.err(), "{text}");
            return;
        };
        let shape = columns.unwrap_or_else(|e| panic!("{text}: {e}"));
        let standalone = crate::executor::check_dimensions(&points);
        assert_eq!(
            shape.as_ref().map(|_| ()).map_err(|e| e.to_string()),
            standalone.as_ref().map(|_| ()).map_err(|e| e.to_string()),
            "{text}"
        );
        let (Ok(input), Ok(dim)) = (shape, standalone) else {
            return;
        };
        let batch_bits: Vec<u64> = input.batch.metrics.iter().map(|m| m.to_bits()).collect();
        assert_eq!(batch_bits, metric_bits(&points), "{text}");
        let mut encoder = AttributeEncoder::new();
        let items: Vec<Vec<Item>> = points
            .iter()
            .map(|p| encoder.encode_point(&p.attributes))
            .collect();
        assert_eq!(input.batch.items.to_rows(), items, "{text}");
        assert_eq!(input.encoder.cardinality(), encoder.cardinality());
        assert_eq!(input.batch.dim, dim);
    }

    #[test]
    fn scanner_decodes_generated_points_exactly_as_the_value_path() {
        let mut g = Gen(0x5EED_0001);
        for _ in 0..4_000 {
            let (text, duplicate) = points_text(&mut g);
            check_against_oracle(&text, duplicate);
            let mutated = mutate(&mut g, &text);
            check_against_oracle(&mutated, duplicate);
        }
    }

    #[test]
    fn a_query_that_skips_explanation_gets_counted_rows_and_no_dictionary() {
        let text = "[{\"metrics\":[1,2],\"attributes\":[\"a\",\"b\"]},\
                    {\"metrics\":[3,4],\"attributes\":[\"a\",\"c\"]}]";
        let skip = AnalysisConfig {
            skip_explanation: true,
            ..AnalysisConfig::default()
        };
        let full = columns(text, &AnalysisConfig::default()).unwrap().unwrap();
        let scanned = columns(text, &skip).unwrap().unwrap();
        let points = rows(text).unwrap();
        let adapted = ColumnarInput::from_points(&skip, &Executor::OneShot, &points).unwrap();
        for input in [&scanned, &adapted] {
            assert_eq!(input.batch.metrics, full.batch.metrics);
            assert_eq!(input.batch.dim, 2);
            assert_eq!(input.batch.items.to_rows(), vec![Vec::<Item>::new(); 2]);
            assert_eq!(input.encoder.cardinality(), 0);
        }
        assert_eq!(full.encoder.cardinality(), 3);
    }

    #[test]
    fn every_truncation_of_a_small_line_fails_as_the_value_path_does() {
        let line = " [ {\"metrics\" : [1.5, -0, 1e3, \"NaN\"], \"attributes\":[\"a\\\"b\", \"\\u00e9\"]},\n\
                    {\"attributes\":[\"c\",\"d\"],\"m\\u0065trics\":[-2.5E-3,18446744073709551616,\"-Infinity\",7]} ] ";
        assert!(oracle(line).is_ok());
        for end in (0..=line.len()).filter(|&end| line.is_char_boundary(end)) {
            check_against_oracle(&line[..end], false);
        }
    }

    #[test]
    fn negative_zero_integers_and_huge_numbers_convert_as_the_value_path() {
        let text = "[{\"metrics\":[-0,-0.0,9007199254740993,18446744073709551616,\
                    -9223372036854775809,1e400],\"attributes\":[]}]";
        let points = rows(text).unwrap();
        let m = &points[0].metrics;
        assert_eq!(
            m[0].to_bits(),
            0.0f64.to_bits(),
            "-0 is an integer, so +0.0"
        );
        assert_eq!(m[1].to_bits(), (-0.0f64).to_bits());
        assert_eq!(m[2], 9_007_199_254_740_992.0);
        assert_eq!(m[3], 18_446_744_073_709_551_616.0);
        assert_eq!(m[4], -9_223_372_036_854_775_808.0);
        assert_eq!(m[5], f64::INFINITY);
        assert_eq!(exactly(&oracle(text)), exactly(&Ok(points)));
    }

    #[test]
    fn duplicate_fields_are_refused_by_name() {
        let err = rows("[{\"metrics\":[1],\"attributes\":[],\"metrics\":[2]}]").unwrap_err();
        assert_eq!(err, WireError::new("points[0].metrics", "duplicate field"));
        // An unknown key still wins, as it does on the `Value` path.
        let err =
            rows("[{\"metrics\":[1],\"x\":0,\"metrics\":[2],\"attributes\":[]}]").unwrap_err();
        assert_eq!(err, WireError::new("points[0].x", "unknown field"));
    }

    #[test]
    fn the_number_scan_accepts_exactly_what_str_parse_does() {
        // Every token over this alphabet up to five bytes long that starts
        // the way the parser dispatches a number.
        let alphabet = b"-05.eE+";
        let mut tokens = vec![String::new()];
        let mut all = Vec::new();
        for _ in 0..5 {
            let mut next = Vec::new();
            for t in &tokens {
                for &c in alphabet {
                    let mut t = t.clone();
                    t.push(c as char);
                    next.push(t);
                }
            }
            all.extend(next.iter().cloned());
            tokens = next;
        }
        for token in all.iter().filter(|t| t.starts_with(['-', '0', '5'])) {
            let mut parse = Scanner::new(token);
            let parsed = parse.number().map(|_| parse.pos);
            let mut skip = Scanner::new(token);
            let skipped = skip.skip_number().map(|()| skip.pos);
            assert_eq!(parsed, skipped, "{token:?}");
        }
    }

    /// An object's members as the `Value` map keeps them — first-occurrence
    /// order, last value — read with [`ObjectReader`].
    fn object_members(text: &str) -> Result<Option<Vec<(String, &str)>>, ParseError> {
        let Some(mut reader) = ObjectReader::new(text)? else {
            return Ok(None);
        };
        let mut members: Vec<(String, &str)> = Vec::new();
        while let Some(key) = reader.next_key()? {
            let value = reader.value()?;
            match members.iter_mut().find(|(k, _)| k.as_str() == key.as_ref()) {
                Some(member) => member.1 = value,
                None => members.push((key.into_owned(), value)),
            }
        }
        Ok(Some(members))
    }

    #[test]
    fn the_object_reader_splits_exactly_what_from_str_parses() {
        let mut g = Gen(0x5EED_0002);
        let mut lines: Vec<(String, bool)> = [
            "{\"a\":1,\"b\":[2,{\"c\":null}],\"a\":\"x\"}",
            " {} ",
            "[1,2]",
            "{\"op\":\"submit\"} x",
            "{\"points\":[1],\"op\":\"submit\",\"points\":[]}",
        ]
        .map(|line| (line.to_string(), false))
        .into();
        for _ in 0..2_000 {
            let (points, duplicate) = points_text(&mut g);
            let line = format!(
                "{{{}\"op\"{}:\"submit\",{}\"analysis\":{{\"traced\":true}},\"p\\u006fints\":{points},\"id\":\"q\"}}",
                g.ws(),
                g.ws(),
                g.ws()
            );
            lines.push((mutate(&mut g, &line), duplicate));
            lines.push((line, duplicate));
        }
        for (line, duplicate) in &lines {
            let expected = serde_json::from_str(line);
            let split = object_members(line);
            // The split that decodes `points` in the same pass.
            let decoded = decoded_points(line).map(|points| points.map(Vec::<Point>::try_from));
            match (expected, split) {
                (Err(e), got) => {
                    assert_eq!(got, Err(e.clone()), "{line}");
                    assert_eq!(decoded.err(), Some(e), "{line}");
                }
                (Ok(Value::Object(map)), Ok(Some(members))) => {
                    let keys: Vec<&String> = map.iter().map(|(k, _)| k).collect();
                    assert_eq!(keys, members.iter().map(|(k, _)| k).collect::<Vec<_>>());
                    for (key, text) in members {
                        assert_eq!(
                            serde_json::from_str(text).as_ref(),
                            Ok(map.get(&key).unwrap())
                        );
                    }
                    let decoded = decoded.unwrap_or_else(|e| panic!("{line}: {e}"));
                    let points = map.get("points").map(|p| points_from_json(p, "points"));
                    if *duplicate
                        && decoded.as_ref().is_some_and(|d| {
                            d.as_ref().is_err_and(|e| e.message == "duplicate field")
                        })
                    {
                        continue;
                    }
                    assert_eq!(
                        decoded.as_ref().map(exactly),
                        points.as_ref().map(exactly),
                        "{line}"
                    );
                }
                (Ok(Value::Object(_)), got) => panic!("{line}: {got:?}"),
                (Ok(_), got) => {
                    assert_eq!(got, Ok(None), "{line}");
                    assert!(matches!(decoded, Ok(None)), "{line}");
                }
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic_and_deep_nesting_is_refused() {
        let mut g = Gen(0x5EED_0003);
        let pool = [
            "{", "}", "[", "]", "\"", ",", ":", "\\", "u", "0", "9", "-", "e", ".", " ", "t", "n",
            "é",
        ];
        for _ in 0..20_000 {
            let text: String = (0..g.below(24)).map(|_| g.pick(&pool)).collect();
            check_against_oracle(&text, false);
            let _ = object_members(&text);
        }
        let deep = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
        let err = object_members(&deep).unwrap_err();
        assert_eq!(err.message, "recursion limit exceeded");
        let deep_member = format!("{{\"points\":{deep}}}");
        let err = object_members(&deep_member).unwrap_err();
        assert_eq!(err.message, "recursion limit exceeded");
        // Decoded in the split, the member is refused at the same byte.
        assert_eq!(decoded_points(&deep_member).err(), Some(err));
        let err = rows(&deep).unwrap_err();
        assert!(err.message.contains("recursion limit exceeded"), "{err}");
        // Within the limit, nesting is an ordinary schema error.
        let nested = format!(
            "[{{\"metrics\":[{}1{}],\"attributes\":[]}}]",
            "[".repeat(100),
            "]".repeat(100)
        );
        check_against_oracle(&nested, false);
    }
}
