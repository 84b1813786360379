//! The JSON-lines protocol end to end, in process: requests as raw text
//! lines, responses parsed and checked — including the typed unknown-field
//! errors the protocol promises.

use macrobase_core::query::{AnalysisConfig, Executor, MdpQuery};
use macrobase_core::types::Point;
use macrobase_core::wire::{points_to_json, report_to_json};
use mb_serve::{handle_line, serve_loop, JobStatus, Priority, QuerySpec, ServeConfig, Server};
use serde_json::Value;
use std::time::Duration;

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
fn a_query_that_skips_explanation_serves_its_standalone_report() {
    let points = corpus();
    let analysis = AnalysisConfig {
        skip_explanation: true,
        retain_outlier_rows: true,
        ..AnalysisConfig::default()
    };
    let standalone = MdpQuery::new(analysis.clone())
        .execute(&Executor::OneShot, &points)
        .unwrap();
    let server = Server::start(ServeConfig::default());
    let submit = format!(
        r#"{{"op":"submit","id":"s","analysis":{{"skip_explanation":true,"retain_outlier_rows":true}},"points":{}}}"#,
        points_to_json(&points)
    );
    assert_ok(&request(&server, &submit));
    let response = request(&server, r#"{"op":"poll","id":"s","wait_ms":120000}"#);
    assert_eq!(get_str(&response, "state"), Some("done"), "{response}");
    assert_eq!(
        get(&response, "report").unwrap().to_string(),
        report_to_json(&standalone).to_string()
    );
    // Through the in-process surface too.
    let spec = QuerySpec {
        analysis,
        executor: Executor::OneShot,
    };
    server.submit("s2", spec, points, Priority::Normal).unwrap();
    match server.poll("s2", Some(Duration::from_secs(120))).unwrap() {
        JobStatus::Done(result) => assert_eq!(result.report, standalone),
        other => panic!("{other:?}"),
    }
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

    // An analysis no executor can run is refused at submit, naming the
    // field, with nothing queued under the id; the next line is answered.
    let points: Vec<Point> = corpus().into_iter().take(300).collect();
    for (field, knob) in [
        ("training_sample_size", r#""training_sample_size":0"#),
        ("min_support", r#""min_support":2"#),
    ] {
        let submit = format!(
            r#"{{"op":"submit","id":"bad","analysis":{{{knob}}},"points":{}}}"#,
            points_to_json(&points)
        );
        let response = request(&server, &submit);
        assert_eq!(error_kind(&response), "query", "{field}");
        assert!(get_str(get(&response, "error").unwrap(), "message")
            .unwrap()
            .contains(field));
        let response = request(&server, r#"{"op":"poll","id":"bad"}"#);
        assert_eq!(error_kind(&response), "unknown_id");
    }
}

#[test]
fn a_coordinated_submit_scores_against_the_model_a_one_shot_submit_trained() {
    let points = corpus();
    let server = Server::start(ServeConfig::default());
    let mut reports = Vec::new();
    for (id, mode, cache) in [
        ("one", r#"{"mode":"one_shot"}"#, "miss"),
        ("coord", r#"{"mode":"coordinated","partitions":4}"#, "hit"),
    ] {
        let submit = format!(
            r#"{{"op":"submit","id":"{id}","executor":{mode},"points":{}}}"#,
            points_to_json(&points)
        );
        assert_ok(&request(&server, &submit));
        let poll = format!(r#"{{"op":"poll","id":"{id}","wait_ms":120000}}"#);
        let response = request(&server, &poll);
        assert_eq!(get_str(assert_ok(&response), "state"), Some("done"));
        assert_eq!(get_f64(&response, "model_epoch"), Some(1.0), "{id}");
        assert_eq!(get_str(&response, "model_cache"), Some(cache), "{id}");
        reports.push(get(&response, "report").unwrap().to_string());
    }
    assert_eq!(reports[0], reports[1]);
    let stats = request(&server, r#"{"op":"stats"}"#);
    let counters = get(assert_ok(&stats), "counters").unwrap();
    assert_eq!(get_f64(counters, "model_trainings"), Some(1.0));
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
        ("reservoir_size", r#""reservoir_size":99"#),
        ("reservoir_size", r#""reservoir_size":1e12"#),
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
fn an_open_line_with_a_bad_target_percentile_is_refused_and_the_next_line_answered() {
    let server = Server::start(ServeConfig::default());
    let open = r#"{"op":"submit","id":"p","analysis":{"target_percentile":1.5},"executor":{"mode":"streaming"}}"#;
    let response = request(&server, open);
    assert_eq!(error_kind(&response), "query");
    let message = get_str(get(&response, "error").unwrap(), "message").unwrap();
    assert!(message.contains("target_percentile"), "{response}");

    // No session was opened under the id, and the server answers on.
    let response = request(&server, r#"{"op":"poll","id":"p"}"#);
    assert_eq!(error_kind(&response), "unknown_id");
    let response = request(
        &server,
        r#"{"op":"submit","id":"p","analysis":{"target_percentile":0.9},"executor":{"mode":"streaming"}}"#,
    );
    assert_eq!(get_str(assert_ok(&response), "state"), Some("session"));
}

#[test]
fn serve_loop_answers_line_by_line_until_eof() {
    let server = Server::start(ServeConfig::default());
    let input = b"{\"op\":\"stats\"}\n\n\xff\xfe\r\n{\"op\":\"poll\",\"id\":\"nope\"}\r\n".to_vec();
    let mut output = Vec::new();
    serve_loop(&server, &input[..], &mut output).unwrap();
    let lines: Vec<&str> = std::str::from_utf8(&output)
        .unwrap()
        .lines()
        .collect();
    assert_eq!(lines.len(), 3, "one response per non-empty request line");
    let stats: Value = serde_json::from_str(lines[0]).unwrap();
    assert_eq!(get(&stats, "ok"), Some(&Value::Bool(true)));
    // A line that is not UTF-8 is answered, and the next line too.
    let err: Value = serde_json::from_str(lines[1]).unwrap();
    assert_eq!(error_kind(&err), "malformed");
    let err: Value = serde_json::from_str(lines[2]).unwrap();
    assert_eq!(error_kind(&err), "unknown_id");
}

/// Poll a job to its terminal state and return `(state, message)`.
fn finished(server: &Server, id: &str) -> (String, Option<String>) {
    let response = request(
        server,
        &format!(r#"{{"op":"poll","id":"{id}","wait_ms":120000}}"#),
    );
    assert_ok(&response);
    (
        get_str(&response, "state").unwrap().to_string(),
        get_str(&response, "message").map(str::to_string),
    )
}

#[test]
fn unusable_batches_fail_the_job_with_the_standalone_error() {
    let server = Server::start(ServeConfig::default());
    let point = |metrics: &str| format!(r#"{{"metrics":[{metrics}],"attributes":["a"]}}"#);
    let cases = [
        ("empty", String::new(), Vec::new()),
        (
            "zero_metric",
            point(""),
            vec![Point::new(vec![], vec!["a".into()])],
        ),
        (
            "ragged",
            format!("{},{},{}", point("1.0"), point("2.0"), point("3.0, 4.0")),
            vec![
                Point::simple(1.0, "a"),
                Point::simple(2.0, "a"),
                Point::new(vec![3.0, 4.0], vec!["a".into()]),
            ],
        ),
    ];
    for (id, points, standalone) in cases {
        for executor in [
            r#"{"mode":"one_shot"}"#,
            r#"{"mode":"coordinated","partitions":2}"#,
        ] {
            let submit = format!(
                r#"{{"op":"submit","id":"{id}","executor":{executor},"points":[{points}]}}"#
            );
            assert_eq!(
                get_str(assert_ok(&request(&server, &submit)), "state"),
                Some("queued")
            );
            let expected = MdpQuery::with_defaults()
                .execute(&Executor::OneShot, &standalone)
                .unwrap_err()
                .to_string();
            assert_eq!(
                finished(&server, id),
                ("failed".to_string(), Some(expected)),
                "{id} on {executor}"
            );
            assert_ok(&request(
                &server,
                &format!(r#"{{"op":"close","id":"{id}"}}"#),
            ));
        }
    }
    // The server still serves a good batch afterwards.
    let submit = format!(
        r#"{{"op":"submit","id":"good","points":{}}}"#,
        points_to_json(&corpus())
    );
    assert_ok(&request(&server, &submit));
    assert_eq!(finished(&server, "good").0, "done");
}

#[test]
fn a_traced_served_report_accounts_for_its_decode() {
    let server = Server::start(ServeConfig::default());
    let points = points_to_json(&corpus());
    let analysis = r#""analysis":{"traced":true}"#;
    // `traced` before the points and after them: the decode is timed
    // either way.
    for (id, line) in [
        (
            "first",
            format!(r#"{{"op":"submit",{analysis},"id":"first","points":{points}}}"#),
        ),
        (
            "last",
            format!(r#"{{"op":"submit","id":"last","points":{points},{analysis}}}"#),
        ),
    ] {
        assert_ok(&request(&server, &line));
        let response = request(
            &server,
            &format!(r#"{{"op":"poll","id":"{id}","wait_ms":120000}}"#),
        );
        let report =
            macrobase_core::wire::report_from_json(get(&response, "report").unwrap()).unwrap();
        let trace = report.trace.expect("a traced query carries its trace");
        let stages: Vec<&str> = trace.stages.iter().map(|s| s.stage.as_str()).collect();
        for stage in &stages {
            assert!(
                mb_obs::stage::ALL.contains(stage),
                "{stage} is not a pipeline stage: {stages:?}"
            );
        }
        let ingest = &trace.stages[0];
        assert_eq!(ingest.stage, mb_obs::stage::INGEST, "{id}: {stages:?}");
        assert_eq!(ingest.rows_in, 3_000, "{id}");
        assert!(ingest.wall_ns > 0, "{id}");
    }
}

/// A tiny deterministic generator (xorshift64*).
struct Gen(u64);

impl Gen {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n as u64) as usize
    }
}

/// `clean` with one to three characters replaced, inserted or removed.
fn mangle(g: &mut Gen, clean: &str) -> String {
    let pool: Vec<char> = "{}[]\",:\\ -.0eutn1é".chars().collect();
    let mut chars: Vec<char> = clean.chars().collect();
    for _ in 0..1 + g.below(3) {
        let at = g.below(chars.len() + 1);
        let c = pool[g.below(pool.len())];
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

/// What the `Value` decoders make of `line`'s `points`: the parser's error,
/// the schema error, or the points (the last value of a repeated key).
fn oracle_points(line: &str) -> Result<Vec<Point>, (String, String)> {
    match serde_json::from_str(line) {
        Err(e) => Err(("malformed".to_string(), format!("malformed JSON: {e}"))),
        Ok(value) => {
            macrobase_core::wire::points_from_json(get(&value, "points").unwrap(), "points")
                .map_err(|e| ("protocol".to_string(), e.to_string()))
        }
    }
}

/// A response as `(state or error kind, error message)`.
fn answer(response: &Value) -> (String, String) {
    match get_str(response, "state") {
        Some(state) => (state.to_string(), String::new()),
        None => (
            error_kind(response),
            get_str(get(response, "error").unwrap(), "message")
                .unwrap()
                .to_string(),
        ),
    }
}

#[test]
fn mangled_points_get_the_value_decoders_answer_and_the_server_lives() {
    let server = Server::start(ServeConfig {
        max_queue: 100_000,
        ..ServeConfig::default()
    });
    let clean = r#"[{"metrics":[1.5,-0,"NaN"],"attributes":["a\"b","é"]},{"attributes":["c","d"],"metrics":[2,1e3,"-Infinity"]}]"#;
    let mut g = Gen(0x5EED_0004);
    for n in 0..3_000 {
        let points = mangle(&mut g, clean);
        for executor in ["one_shot", "naive"] {
            let id = format!("m{n}{executor}");
            // Every key order: the points are decoded from their text
            // whatever comes before or after them.
            let line = match n % 3 {
                0 => format!(
                    r#"{{"op":"submit","id":"{id}","executor":{{"mode":"{executor}"}},"points":{points}}}"#
                ),
                1 => format!(
                    r#"{{"points":{points},"executor":{{"mode":"{executor}"}},"id":"{id}","op":"submit"}}"#
                ),
                _ => {
                    let analysis = if n % 2 == 0 {
                        r#"{"skip_explanation":true}"#
                    } else {
                        r#"{"attribute_names":["x","y"]}"#
                    };
                    format!(
                        r#"{{"points":{points},"analysis":{analysis},"id":"{id}","executor":{{"mode":"{executor}"}},"op":"submit"}}"#
                    )
                }
            };
            let expected =
                oracle_points(&line).map_or_else(|e| e, |_| ("queued".to_string(), String::new()));
            assert_eq!(answer(&request(&server, &line)), expected, "{line}");
        }
        // A repeated `points` key: the last value is the one decoded, and a
        // fault in the first is never reported.
        for (k, (first, last)) in [(points.as_str(), clean), (clean, points.as_str())]
            .into_iter()
            .enumerate()
        {
            let line =
                format!(r#"{{"op":"submit","points":{first},"id":"d{n}_{k}","points":{last}}}"#);
            let expected =
                oracle_points(&line).map_or_else(|e| e, |_| ("queued".to_string(), String::new()));
            assert_eq!(answer(&request(&server, &line)), expected, "{line}");
        }
    }
    // Nesting deep enough to overflow a recursive parser is refused, typed.
    for deep in [
        format!(
            r#"{{"op":"submit","id":"d","points":{}}}"#,
            "[".repeat(1_000_000)
        ),
        format!(
            r#"{{"op":"submit","id":"d","analysis":{}}}"#,
            "[".repeat(1_000_000)
        ),
    ] {
        assert_eq!(error_kind(&request(&server, &deep)), "malformed");
    }
    assert_ok(&request(&server, r#"{"op":"stats"}"#));
}

/// A feed response as `(kind, detail)`: its counts, or its error.
fn feed_answer(response: &Value) -> (String, String) {
    if get(response, "ok") == Some(&Value::Bool(true)) {
        let counts: Vec<String> = ["points", "outliers", "total_points", "total_outliers"]
            .iter()
            .map(|key| get_f64(response, key).unwrap().to_string())
            .collect();
        return ("fed".to_string(), counts.join(" "));
    }
    answer(response)
}

#[test]
fn mangled_feeds_get_the_value_decoders_answer_and_the_session_lives() {
    // The served session and a reference session fed the oracle's points
    // through `Server::feed` stay in step: every feed must get the same
    // answer from both.
    let served = Server::start(ServeConfig::default());
    let reference = Server::start(ServeConfig::default());
    let open = r#"{"op":"submit","id":"s","executor":{"mode":"streaming"}}"#;
    for server in [&served, &reference] {
        assert_eq!(
            get_str(assert_ok(&request(server, open)), "state"),
            Some("session")
        );
    }
    let clean = r#"[{"metrics":[1.5,-0],"attributes":["a\"b","é"]},{"attributes":["c","d"],"metrics":[2,1e3]}]"#;
    let mut g = Gen(0x5EED_0005);
    let mut fed = 0;
    for n in 0..1_500 {
        let points = if n % 5 == 0 {
            clean.to_string()
        } else {
            mangle(&mut g, clean)
        };
        let line = if n % 2 == 0 {
            format!(r#"{{"op":"feed","id":"s","points":{points}}}"#)
        } else {
            format!(r#"{{"points":{points},"id":"s","op":"feed"}}"#)
        };
        let expected = match oracle_points(&line) {
            Err(e) => e,
            Ok(points) => match reference.feed("s", &points) {
                Ok(fed) => (
                    "fed".to_string(),
                    format!(
                        "{} {} {} {}",
                        fed.points, fed.outliers, fed.total_points, fed.total_outliers
                    ),
                ),
                Err(e @ mb_serve::ServeError::Query(_)) => ("query".to_string(), e.to_string()),
                Err(e) => panic!("{line}: {e}"),
            },
        };
        assert_eq!(feed_answer(&request(&served, &line)), expected, "{line}");
        fed += usize::from(expected.0 == "fed");
    }
    assert!(fed >= 300, "only {fed} feeds went through");
    let response = request(&served, r#"{"op":"poll","id":"s"}"#);
    assert_eq!(get_str(assert_ok(&response), "state"), Some("session"));
}
