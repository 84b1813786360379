//! JSON-lines export of query traces over the vendored `serde_json`.
//!
//! [`trace_to_json_lines`] flattens a [`QueryTrace`] into one small object
//! per line — the format the reproduction binaries print under `--trace`
//! (prefixed `TRACE: `), easy to grep and to ship to a log collector. A
//! non-finite gauge prints as Rust's `to_string` of it (`"inf"`, `"NaN"`).
//! `core::wire` embeds a trace in a report in a layout of its own: one
//! object, counters as `[name, value]` pairs, a non-finite gauge as
//! `"Infinity"`.

use crate::histogram::HistogramSnapshot;
use crate::trace::{QueryTrace, StageTrace};
use serde_json::{json, Map, Value};

fn finite(value: f64) -> Value {
    if value.is_finite() {
        Value::from(value)
    } else {
        Value::from(value.to_string())
    }
}

fn stage_json(stage: &StageTrace) -> Value {
    json!({
        "stage": stage.stage,
        "wall_ns": stage.wall_ns,
        "rows_in": stage.rows_in,
        "rows_out": stage.rows_out,
        "batches": stage.batches,
    })
}

fn histogram_json(snapshot: &HistogramSnapshot) -> Value {
    let buckets: Vec<Value> = snapshot
        .buckets
        .iter()
        .map(|&(exp, count)| Value::Array(vec![Value::from(exp), Value::from(count)]))
        .collect();
    json!({
        "name": snapshot.name,
        "count": snapshot.count,
        "sum_ns": snapshot.sum_ns,
        "max_ns": snapshot.max_ns,
        "buckets": Value::Array(buckets),
    })
}

/// Flatten a trace into JSON-lines: one object per stage, counter, gauge,
/// and histogram, each tagged with `kind` and the executor name. Returns
/// the lines joined with `\n` (no trailing newline).
pub fn trace_to_json_lines(trace: &QueryTrace) -> String {
    let mut lines = Vec::new();
    for stage in &trace.stages {
        let mut row = stage_json(stage);
        annotate(&mut row, trace, "stage");
        lines.push(row.to_string());
    }
    for (name, value) in &trace.counters {
        let mut row = json!({"name": name, "value": Value::from(*value)});
        annotate(&mut row, trace, "counter");
        lines.push(row.to_string());
    }
    for (name, value) in &trace.gauges {
        let mut row = json!({"name": name, "value": finite(*value)});
        annotate(&mut row, trace, "gauge");
        lines.push(row.to_string());
    }
    for snapshot in &trace.histograms {
        let mut row = histogram_json(snapshot);
        annotate(&mut row, trace, "histogram");
        lines.push(row.to_string());
    }
    lines.join("\n")
}

/// Prefix `kind` and `executor` keys onto a flat row, keeping them first in
/// the emitted object for scannability.
fn annotate(row: &mut Value, trace: &QueryTrace, kind: &str) {
    let mut tagged = Map::new();
    tagged.insert("kind".to_string(), Value::from(kind));
    tagged.insert("executor".to_string(), Value::from(trace.executor.as_str()));
    if let Some(fields) = row.as_object() {
        for (k, v) in fields.iter() {
            tagged.insert(k.clone(), v.clone());
        }
    }
    *row = Value::Object(tagged);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ObsConfig, TraceBuilder};

    fn sample_trace() -> QueryTrace {
        let mut tb = TraceBuilder::new(ObsConfig::enabled(), "streaming");
        let t = tb.start();
        tb.finish_stage(t, "score", 1000, 20, 1);
        tb.registry().add("points", 1000);
        tb.registry().set_gauge("staleness", 150.0);
        tb.registry().record_ns("retrain_ns", 4096);
        tb.finish().unwrap()
    }

    #[test]
    fn json_lines_tag_each_row() {
        let lines = trace_to_json_lines(&sample_trace());
        let rows: Vec<Value> = lines
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(rows.len(), 4); // stage + counter + gauge + histogram
        let kinds: Vec<&str> = rows
            .iter()
            .map(|r| r.as_object().unwrap().get("kind").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(kinds, vec!["stage", "counter", "gauge", "histogram"]);
        let value = |row: &Value| row.as_object().unwrap().get("value").unwrap().as_f64();
        assert_eq!(value(&rows[1]), Some(1000.0));
        assert_eq!(value(&rows[2]), Some(150.0));
        for row in &rows {
            assert_eq!(
                row.as_object().unwrap().get("executor").unwrap().as_str(),
                Some("streaming")
            );
        }
    }

    #[test]
    fn non_finite_gauges_export_as_strings() {
        assert_eq!(finite(f64::INFINITY).as_str(), Some("inf"));
        assert_eq!(finite(2.5).as_f64(), Some(2.5));
    }
}
