#![warn(clippy::unwrap_used, clippy::expect_used)]
//! The JSON-lines wire front end: one request object per line in, one
//! response object per line out.
//!
//! Requests carry an `"op"` discriminator — `submit`, `poll`, `feed`,
//! `close`, `stats`, `retrain` — and op-specific fields; analysis configs,
//! executors, points, and reports all use the `core::wire` codecs, so a
//! report on the wire is byte-identical to `report_to_string` of the same
//! standalone run. Unknown ops *and unknown top-level keys* are typed
//! errors: a misspelled field never silently falls back to a default.
//!
//! A line is split member by member by the `core::wire` byte scanner, which
//! checks the whole line as the JSON parser would. The small members (`op`,
//! `id`, `priority`, `analysis`, `executor`, `wait_ms`) are parsed into
//! `Value`s; the `points` array never is. It is decoded in the same pass
//! that splits the line, whatever order the members come in, into a form
//! that depends on no other member. Once `analysis` and `executor` are
//! known, a one-shot submission's rows are interned from it into the
//! columns its job runs over; a feed or another executor gets `Point`s.
//! A line that names `points` twice is decoded twice, and the last value
//! is used, as the JSON parser keeps it.
//!
//! Responses always carry `"ok"`. Failures look like
//! `{"ok":false,"error":{"kind":...,"message":...}}`; the kinds are
//! `malformed`, `protocol`, `unknown_op`, `saturated`, `duplicate_id`,
//! `unknown_id`, `bad_request`, and `query`.

use crate::cache::CacheOutcome;
use crate::scheduler::Priority;
use crate::server::{Closed, JobStatus, QuerySpec, ServeError, Server};
use crate::state::JobInput;
use macrobase_core::query::Executor;
use macrobase_core::types::Point;
use macrobase_core::wire::{
    analysis_from_json, executor_from_json, report_to_json, DecodedPoints, ObjectReader,
};
use serde_json::{Map, Value};
use std::io::{BufRead, Write};

fn error_response(kind: &str, message: impl Into<String>) -> Value {
    let mut error = Map::new();
    error.insert("kind".to_string(), Value::String(kind.to_string()));
    error.insert("message".to_string(), Value::String(message.into()));
    let mut map = Map::new();
    map.insert("ok".to_string(), Value::Bool(false));
    map.insert("error".to_string(), Value::Object(error));
    Value::Object(map)
}

fn serve_error_response(err: ServeError) -> Value {
    let kind = match &err {
        ServeError::Saturated(_) => "saturated",
        ServeError::DuplicateId(_) => "duplicate_id",
        ServeError::UnknownId(_) => "unknown_id",
        ServeError::BadRequest(_) => "bad_request",
        ServeError::Query(_) => "query",
    };
    error_response(kind, err.to_string())
}

fn ok_response(op: &str, id: Option<&str>) -> Map {
    let mut map = Map::new();
    map.insert("ok".to_string(), Value::Bool(true));
    map.insert("op".to_string(), Value::String(op.to_string()));
    if let Some(id) = id {
        map.insert("id".to_string(), Value::String(id.to_string()));
    }
    map
}

/// A request line split into its members: each kept as raw text until a
/// handler asks for it, and `points` decoded. A repeated key keeps its
/// first position and its last value, as the `Value` map does.
struct Request<'a> {
    /// Every member's key in order, with its text (empty for `points`).
    members: Vec<(String, &'a str)>,
    points: Option<DecodedPoints<'a>>,
}

impl<'a> Request<'a> {
    /// Read a line; `None` if it is some other JSON value than an object.
    fn read(line: &'a str) -> Result<Option<Request<'a>>, serde_json::ParseError> {
        let Some(mut reader) = ObjectReader::new(line)? else {
            return Ok(None);
        };
        let mut members: Vec<(String, &'a str)> = Vec::new();
        let mut points = None;
        while let Some(key) = reader.next_key()? {
            let text = if key == "points" {
                points = Some(reader.points()?);
                ""
            } else {
                reader.value()?
            };
            match members.iter_mut().find(|(k, _)| k.as_str() == key.as_ref()) {
                Some(member) => member.1 = text,
                None => members.push((key.into_owned(), text)),
            }
        }
        Ok(Some(Request { members, points }))
    }

    fn raw(&self, key: &str) -> Option<&'a str> {
        self.members
            .iter()
            .find(|(k, _)| k == key)
            .map(|&(_, text)| text)
    }

    /// A small member as a `Value`, through the same parser as ever. Its
    /// text was checked when the line was split, so this does not fail.
    fn get(&self, key: &str) -> Result<Option<Value>, Value> {
        self.raw(key)
            .map(|text| {
                serde_json::from_str(text)
                    .map_err(|e| error_response("malformed", format!("malformed JSON: {e}")))
            })
            .transpose()
    }
}

fn check_keys(request: &Request<'_>, allowed: &[&str]) -> Result<(), Value> {
    for (key, _) in &request.members {
        if !allowed.contains(&key.as_str()) {
            return Err(error_response(
                "protocol",
                format!("unknown field {key:?} in request"),
            ));
        }
    }
    Ok(())
}

fn required_id(request: &Request<'_>) -> Result<String, Value> {
    match request.get("id")? {
        Some(Value::String(id)) => Ok(id),
        Some(_) => Err(error_response("protocol", "id must be a string")),
        None => Err(error_response("protocol", "missing field id")),
    }
}

fn protocol_error(e: impl std::fmt::Display) -> Value {
    error_response("protocol", e.to_string())
}

/// Handle one request line, returning the response line (no trailing
/// newline). Never panics on malformed input: every failure is an error
/// response.
pub fn handle_line(server: &Server, line: &str) -> String {
    handle_value(server, line).to_string()
}

fn handle_value(server: &Server, line: &str) -> Value {
    let mut request = match Request::read(line) {
        Ok(Some(request)) => request,
        Ok(None) => return error_response("malformed", "request must be a JSON object"),
        Err(e) => return error_response("malformed", format!("malformed JSON: {e}")),
    };
    let op = match request.get("op") {
        Ok(Some(Value::String(op))) => op,
        Ok(Some(_)) => return error_response("protocol", "op must be a string"),
        Ok(None) => return error_response("protocol", "missing field op"),
        Err(response) => return response,
    };
    let result = match op.as_str() {
        "submit" => handle_submit(server, &mut request),
        "poll" => handle_poll(server, &request),
        "feed" => handle_feed(server, &mut request),
        "close" => handle_close(server, &request),
        "retrain" => handle_retrain(server, &request),
        "stats" => handle_stats(server, &request),
        _ => Err(error_response(
            "unknown_op",
            format!("unknown op {op:?}; expected submit, poll, feed, close, retrain, or stats"),
        )),
    };
    match result {
        Ok(response) | Err(response) => response,
    }
}

fn handle_submit(server: &Server, request: &mut Request<'_>) -> Result<Value, Value> {
    check_keys(
        request,
        &["op", "id", "priority", "analysis", "executor", "points"],
    )?;
    let id = required_id(request)?;
    let priority = match request.get("priority")? {
        None => Priority::Normal,
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| error_response("protocol", "priority must be a string"))?;
            Priority::parse(name).ok_or_else(|| {
                error_response("protocol", "priority must be one of high, normal, low")
            })?
        }
    };
    let analysis = match request.get("analysis")? {
        Some(v) => analysis_from_json(&v, "analysis").map_err(protocol_error)?,
        None => Default::default(),
    };
    let executor = match request.get("executor")? {
        Some(v) => executor_from_json(&v, "executor").map_err(protocol_error)?,
        None => Executor::OneShot,
    };
    let spec = QuerySpec { analysis, executor };

    // A streaming executor with no inline points opens a session to feed;
    // everything else is a batch job over the supplied points — in columns
    // for the model table, as rows for the other executors.
    let input = match request.points.take() {
        Some(points) if spec.uses_model_table() => Some(JobInput::columns(
            points
                .into_columns(&spec.analysis, &spec.executor)
                .map_err(protocol_error)?,
        )),
        Some(points) => Some(JobInput::Rows(Ok(
            Vec::try_from(points).map_err(protocol_error)?
        ))),
        None => None,
    };
    let state = match input {
        None => {
            if !matches!(spec.executor, Executor::Streaming { .. }) {
                return Err(error_response(
                    "protocol",
                    "missing field points (only streaming submissions may omit them)",
                ));
            }
            server.open_session(&id, spec).map(|()| "session")
        }
        Some(input) => server
            .submit_input(&id, spec, input, priority)
            .map(|()| "queued"),
    };
    let mut response = ok_response("submit", Some(&id));
    let state = state.map_err(serve_error_response)?;
    response.insert("state".to_string(), Value::from(state));
    Ok(Value::Object(response))
}

fn handle_poll(server: &Server, request: &Request<'_>) -> Result<Value, Value> {
    check_keys(request, &["op", "id", "wait_ms"])?;
    let id = required_id(request)?;
    let wait = match request.get("wait_ms")? {
        None => None,
        Some(v) => {
            let ms = v
                .as_f64()
                .filter(|ms| *ms >= 0.0 && ms.fract() == 0.0)
                .ok_or_else(|| {
                    error_response("protocol", "wait_ms must be a non-negative integer")
                })?;
            Some(std::time::Duration::from_millis(ms as u64))
        }
    };
    match server.poll(&id, wait) {
        Ok(status) => {
            let mut response = ok_response("poll", Some(&id));
            let state = match &status {
                JobStatus::Queued => "queued",
                JobStatus::Running => "running",
                JobStatus::Cancelled => "cancelled",
                JobStatus::Failed(_) => "failed",
                JobStatus::Done(_) => "done",
            };
            response.insert("state".to_string(), Value::from(state));
            match status {
                JobStatus::Failed(message) => {
                    response.insert("message".to_string(), Value::String(message));
                }
                JobStatus::Done(result) => {
                    let epoch = result.model_epoch.map_or(Value::Null, Value::from);
                    let cache = result.cache.map_or(Value::Null, |cache| {
                        Value::from(match cache {
                            CacheOutcome::Hit => "hit",
                            CacheOutcome::Miss => "miss",
                        })
                    });
                    response.insert("model_epoch".to_string(), epoch);
                    response.insert("model_cache".to_string(), cache);
                    response.insert("report".to_string(), report_to_json(&result.report));
                }
                JobStatus::Queued | JobStatus::Running | JobStatus::Cancelled => {}
            }
            Ok(Value::Object(response))
        }
        // Not a job: a poll against an open session renders its snapshot.
        Err(ServeError::UnknownId(_)) => match server.session_report(&id) {
            Ok(report) => {
                let mut response = ok_response("poll", Some(&id));
                response.insert("state".to_string(), Value::String("session".to_string()));
                response.insert("report".to_string(), report_to_json(&report));
                Ok(Value::Object(response))
            }
            Err(e) => Err(serve_error_response(e)),
        },
        Err(e) => Err(serve_error_response(e)),
    }
}

fn handle_feed(server: &Server, request: &mut Request<'_>) -> Result<Value, Value> {
    check_keys(request, &["op", "id", "points"])?;
    let id = required_id(request)?;
    let points = request
        .points
        .take()
        .ok_or_else(|| error_response("protocol", "missing field points"))?;
    let points = Vec::<Point>::try_from(points).map_err(protocol_error)?;
    let summary = server.feed(&id, &points).map_err(serve_error_response)?;
    let mut response = ok_response("feed", Some(&id));
    for (key, count) in [
        ("points", summary.points),
        ("outliers", summary.outliers),
        ("total_points", summary.total_points),
        ("total_outliers", summary.total_outliers),
    ] {
        response.insert(key.to_string(), Value::from(count));
    }
    Ok(Value::Object(response))
}

fn handle_close(server: &Server, request: &Request<'_>) -> Result<Value, Value> {
    check_keys(request, &["op", "id"])?;
    let id = required_id(request)?;
    let closed = server.close(&id).map_err(serve_error_response)?;
    let mut response = ok_response("close", Some(&id));
    let closed = match closed {
        Closed::Job => "job",
        Closed::Session => "session",
    };
    response.insert("closed".to_string(), Value::from(closed));
    Ok(Value::Object(response))
}

fn handle_retrain(server: &Server, request: &Request<'_>) -> Result<Value, Value> {
    check_keys(request, &["op", "id"])?;
    let id = required_id(request)?;
    server.retrain(&id).map_err(serve_error_response)?;
    Ok(Value::Object(ok_response("retrain", Some(&id))))
}

fn handle_stats(server: &Server, request: &Request<'_>) -> Result<Value, Value> {
    check_keys(request, &["op"])?;
    let registry = server.stats();
    let mut counters = Map::new();
    for (name, value) in registry.counter_entries() {
        counters.insert(name, Value::from(value));
    }
    let mut gauges = Map::new();
    for (name, value) in registry.gauge_entries() {
        gauges.insert(name, Value::from(value));
    }
    let mut response = ok_response("stats", None);
    response.insert("counters".to_string(), Value::Object(counters));
    response.insert("gauges".to_string(), Value::Object(gauges));
    response.insert("uptime_ns".to_string(), Value::from(server.uptime_ns()));
    Ok(Value::Object(response))
}

/// The most line buffer `serve_loop` keeps between lines: twice a
/// 5,000-point request.
const KEPT_LINE_BYTES: usize = 1 << 20;

/// The listener loop: serve requests line-by-line until EOF. A line ends
/// at `\n` or `\r\n`, as `BufRead::lines` reads it. Empty lines are
/// ignored; every non-empty line gets exactly one response line, flushed
/// immediately so a piped client can interleave requests and responses. A
/// line that is not UTF-8 gets a `malformed` error like any other bad line.
pub fn serve_loop<R: BufRead, W: Write>(
    server: &Server,
    mut reader: R,
    mut writer: W,
) -> std::io::Result<()> {
    let mut buffer = Vec::new();
    loop {
        buffer.clear();
        // One huge line does not keep its buffer for the server's lifetime.
        buffer.shrink_to(KEPT_LINE_BYTES);
        if reader.read_until(b'\n', &mut buffer)? == 0 {
            return Ok(());
        }
        let line = match buffer.strip_suffix(b"\n") {
            Some(line) => line.strip_suffix(b"\r").unwrap_or(line),
            None => &buffer,
        };
        let response = match std::str::from_utf8(line) {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => handle_line(server, line),
            Err(e) => {
                error_response("malformed", format!("request line is not UTF-8: {e}")).to_string()
            }
        };
        writeln!(writer, "{response}")?;
        writer.flush()?;
    }
}
