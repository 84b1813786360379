//! The JSON-lines protocol end to end, in process: requests as raw text
//! lines, responses parsed and checked — including the typed unknown-field
//! errors the protocol promises.

use macrobase_core::query::{Executor, MdpQuery};
use macrobase_core::types::Point;
use macrobase_core::wire::{points_to_json, report_to_json};
use mb_serve::{handle_line, serve_loop, ServeConfig, Server};
use serde_json::Value;

fn corpus() -> Vec<Point> {
    let mut points: Vec<Point> = (0..3_000)
        .map(|i| Point::simple(10.0 + (i % 7) as f64 * 0.2, format!("device_{}", i % 20)))
        .collect();
    for i in 0..30 {
        points[i * 100] = Point::simple(90.0, "device_13");
    }
    points
}

fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_object().and_then(|m| m.get(key))
}

fn get_str<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    get(value, key).and_then(|v| v.as_str())
}

fn get_f64(value: &Value, key: &str) -> Option<f64> {
    get(value, key).and_then(|v| v.as_f64())
}

fn request(server: &Server, line: &str) -> Value {
    serde_json::from_str(&handle_line(server, line)).expect("response must be valid JSON")
}

fn assert_ok(response: &Value) -> &Value {
    assert_eq!(
        get(response, "ok"),
        Some(&Value::Bool(true)),
        "expected ok response, got {response}"
    );
    response
}

fn error_kind(response: &Value) -> String {
    assert_eq!(get(response, "ok"), Some(&Value::Bool(false)), "{response}");
    get(response, "error")
        .and_then(|e| get(e, "kind"))
        .and_then(|k| k.as_str())
        .expect("error responses carry error.kind")
        .to_string()
}

#[test]
fn submit_poll_close_round_trip_preserves_report_bytes() {
    let points = corpus();
    let standalone = MdpQuery::with_defaults()
        .execute(&Executor::OneShot, &points)
        .unwrap();
    let server = Server::start(ServeConfig::default());

    let submit = format!(
        r#"{{"op":"submit","id":"w1","priority":"high","executor":{{"mode":"one_shot"}},"points":{}}}"#,
        points_to_json(&points)
    );
    let response = request(&server, &submit);
    assert_ok(&response);
    assert_eq!(get_str(&response, "state"), Some("queued"));

    let response = request(&server, r#"{"op":"poll","id":"w1","wait_ms":120000}"#);
    assert_ok(&response);
    assert_eq!(get_str(&response, "state"), Some("done"));
    assert_eq!(get_f64(&response, "model_epoch"), Some(1.0));
    assert_eq!(
        get_str(&response, "model_cache"),
        Some("miss")
    );
    // The wire report is the exact standalone encoding, byte for byte.
    assert_eq!(
        get(&response, "report").unwrap().to_string(),
        report_to_json(&standalone).to_string()
    );

    let response = request(&server, r#"{"op":"close","id":"w1"}"#);
    assert_ok(&response);
    assert_eq!(get_str(&response, "closed"), Some("job"));

    let stats = request(&server, r#"{"op":"stats"}"#);
    assert_ok(&stats);
    let counters = get(&stats, "counters").unwrap();
    assert_eq!(
        get_f64(counters, "jobs_submitted"),
        Some(1.0)
    );
    assert_eq!(
        get_f64(counters, "model_trainings"),
        Some(1.0)
    );
    assert!(get_f64(&stats, "uptime_ns").is_some());
}

#[test]
fn streaming_session_over_the_wire() {
    let server = Server::start(ServeConfig::default());
    let response = request(
        &server,
        r#"{"op":"submit","id":"s1","executor":{"mode":"streaming","reservoir_size":2000,"retrain_period":1000}}"#,
    );
    assert_ok(&response);
    assert_eq!(get_str(&response, "state"), Some("session"));

    let batch: Vec<Point> = (0..1_500)
        .map(|i| Point::simple(10.0 + (i % 7) as f64, format!("d{}", i % 10)))
        .collect();
    let feed = format!(
        r#"{{"op":"feed","id":"s1","points":{}}}"#,
        points_to_json(&batch)
    );
    let response = request(&server, &feed);
    assert_ok(&response);
    assert_eq!(get_f64(&response, "points"), Some(1_500.0));
    assert_eq!(
        get_f64(&response, "total_points"),
        Some(1_500.0)
    );

    // Polling a session renders a snapshot report.
    let response = request(&server, r#"{"op":"poll","id":"s1"}"#);
    assert_ok(&response);
    assert_eq!(get_str(&response, "state"), Some("session"));
    let report = get(&response, "report").unwrap();
    assert_eq!(
        get_f64(report, "num_points"),
        Some(1_500.0)
    );

    let response = request(&server, r#"{"op":"close","id":"s1"}"#);
    assert_ok(&response);
    assert_eq!(
        get_str(&response, "closed"),
        Some("session")
    );
}

#[test]
fn protocol_typos_and_misuse_are_typed_errors() {
    let server = Server::start(ServeConfig::default());

    // Unknown top-level key (misspelled "priority").
    let response = request(
        &server,
        r#"{"op":"submit","id":"x","priorty":"high","points":[]}"#,
    );
    assert_eq!(error_kind(&response), "protocol");
    assert!(get_str(get(&response, "error").unwrap(), "message")
        .unwrap()
        .contains("priorty"));

    // Unknown op.
    let response = request(&server, r#"{"op":"sumbit","id":"x"}"#);
    assert_eq!(error_kind(&response), "unknown_op");

    // Malformed JSON.
    let response = request(&server, "{nope");
    assert_eq!(error_kind(&response), "malformed");

    // Misspelled analysis knob travels through the core codec.
    let response = request(
        &server,
        r#"{"op":"submit","id":"x","analysis":{"target_percentil":0.9},"points":[]}"#,
    );
    assert_eq!(error_kind(&response), "protocol");
    assert!(get_str(get(&response, "error").unwrap(), "message")
        .unwrap()
        .contains("target_percentil"));

    // Batch submit without points.
    let response = request(&server, r#"{"op":"submit","id":"x"}"#);
    assert_eq!(error_kind(&response), "protocol");

    // Unknown id.
    let response = request(&server, r#"{"op":"poll","id":"ghost"}"#);
    assert_eq!(error_kind(&response), "unknown_id");

    // Feeding a batch job id that does not exist.
    let response = request(&server, r#"{"op":"feed","id":"ghost","points":[]}"#);
    assert_eq!(error_kind(&response), "unknown_id");
}

#[test]
fn invalid_streaming_options_are_typed_errors_and_the_server_lives() {
    let server = Server::start(ServeConfig::default());
    let message = |response: &Value| -> String {
        get_str(get(response, "error").unwrap(), "message")
            .unwrap()
            .to_string()
    };

    // Opening a session: each bad knob is refused by name, nothing panics.
    for (field, knob) in [
        ("decay_rate", r#""decay_rate":1.5"#),
        ("reservoir_size", r#""reservoir_size":0"#),
        ("decay_period", r#""decay_period":0"#),
        ("retrain_period", r#""retrain_period":0"#),
    ] {
        let open = format!(r#"{{"op":"submit","id":"bad","executor":{{"mode":"streaming",{knob}}}}}"#);
        let response = request(&server, &open);
        assert_eq!(error_kind(&response), "query", "{field}");
        assert!(message(&response).contains(field), "{response}");
    }

    // The same options on a batch submission fail the job, not the worker.
    let points: Vec<Point> = corpus().into_iter().take(300).collect();
    let submit = format!(
        r#"{{"op":"submit","id":"job","executor":{{"mode":"streaming","decay_rate":1.5}},"points":{}}}"#,
        points_to_json(&points)
    );
    assert_ok(&request(&server, &submit));
    let response = request(&server, r#"{"op":"poll","id":"job","wait_ms":120000}"#);
    assert_ok(&response);
    assert_eq!(get_str(&response, "state"), Some("failed"));
    assert!(get_str(&response, "message").unwrap().contains("decay_rate"));

    // The server still answers: the refused id is free, and a valid session
    // under it opens and takes points.
    let response = request(
        &server,
        r#"{"op":"submit","id":"bad","executor":{"mode":"streaming","decay_rate":0.5}}"#,
    );
    assert_eq!(get_str(assert_ok(&response), "state"), Some("session"));
    let feed = format!(
        r#"{{"op":"feed","id":"bad","points":{}}}"#,
        points_to_json(&points)
    );
    assert_eq!(get_f64(assert_ok(&request(&server, &feed)), "points"), Some(300.0));
}

#[test]
fn serve_loop_answers_line_by_line_until_eof() {
    let server = Server::start(ServeConfig::default());
    let input = b"{\"op\":\"stats\"}\n\n{\"op\":\"poll\",\"id\":\"nope\"}\n".to_vec();
    let mut output = Vec::new();
    serve_loop(&server, &input[..], &mut output).unwrap();
    let lines: Vec<&str> = std::str::from_utf8(&output)
        .unwrap()
        .lines()
        .collect();
    assert_eq!(lines.len(), 2, "one response per non-empty request line");
    let stats: Value = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(get(&stats, "ok"), Some(&Value::Bool(true)));
    let err: Value = serde_json::from_str(lines[1]).unwrap();
    assert_eq!(error_kind(&err), "unknown_id");
}
