//! Failure paths through the real `mb_serve` binary, over its stdin/stdout:
//! a training that fails reaches every job waiting on it and is not cached,
//! good jobs still serve their standalone bytes afterwards, a queued job
//! closed before it runs is cancelled, and the server answers until EOF.

use macrobase_core::query::{Executor, MdpQuery};
use macrobase_core::types::Point;
use macrobase_core::wire::{points_to_json, report_to_string};
use serde_json::Value;
use std::io::{BufRead, BufReader, Lines, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

struct Served {
    child: Child,
    stdin: ChildStdin,
    lines: Lines<BufReader<ChildStdout>>,
}

impl Served {
    fn start() -> Served {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mb_serve"))
            .args(["--workers", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn mb_serve");
        let stdin = child.stdin.take().expect("piped stdin");
        let lines = BufReader::new(child.stdout.take().expect("piped stdout")).lines();
        Served {
            child,
            stdin,
            lines,
        }
    }

    /// One request line out, one response line back.
    fn call(&mut self, request: &str) -> Value {
        writeln!(self.stdin, "{request}").expect("write request");
        self.stdin.flush().expect("flush request");
        let line = self
            .lines
            .next()
            .expect("mb_serve closed its stdout")
            .expect("read response");
        serde_json::from_str(&line).expect("responses are JSON")
    }

    fn submit(&mut self, id: &str, points: &str) {
        let response = self.call(&format!(
            r#"{{"op":"submit","id":"{id}","points":{points}}}"#
        ));
        assert_eq!(text(&response, "state"), Some("queued"), "{response}");
    }

    /// Poll until the job is terminal; returns the whole response.
    fn finish(&mut self, id: &str) -> Value {
        let response = self.call(&format!(r#"{{"op":"poll","id":"{id}","wait_ms":120000}}"#));
        assert_eq!(field(&response, "ok"), Some(&Value::Bool(true)), "{response}");
        response
    }

    fn counter(&mut self, name: &str) -> f64 {
        let stats = self.call(r#"{"op":"stats"}"#);
        field(&stats, "counters")
            .and_then(|c| field(c, name))
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
    }
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_object().and_then(|m| m.get(key))
}

fn text<'a>(value: &'a Value, key: &str) -> Option<&'a str> {
    field(value, key).and_then(Value::as_str)
}

/// Two metrics, so `Auto` picks MCD: one spread over 1e11, one constant.
/// The ridge FastMCD adds to a flat covariance is too small beside the
/// spread one, so the fit fails with `matrix is singular`.
fn singular_batch() -> Vec<Point> {
    (0..600)
        .map(|i| Point::new(vec![(i % 13) as f64 * 1e10, 5.0], vec![format!("d{}", i % 6)]))
        .collect()
}

fn good_batch() -> Vec<Point> {
    let mut points: Vec<Point> = (0..3_000)
        .map(|i| Point::simple(10.0 + (i % 7) as f64 * 0.2, format!("device_{}", i % 20)))
        .collect();
    for i in 0..30 {
        points[i * 100] = Point::simple(90.0, "device_13");
    }
    points
}

/// Fresh 3-d rows that train a model of their own: slow enough to keep a
/// worker busy for longer than a request round trip.
fn busy_batch(salt: u64) -> Vec<Point> {
    let mut x = 0x9E37_79B9_7F4A_7C15 ^ salt;
    (0..40_000)
        .map(|i| {
            let mut next = || {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % 10_000) as f64 / 100.0
            };
            Point::new(vec![next(), next(), next()], vec![format!("b{}", i % 40)])
        })
        .collect()
}

#[test]
fn failed_trainings_reach_every_waiter_and_the_server_keeps_serving() {
    let singular = singular_batch();
    let expected = MdpQuery::with_defaults()
        .execute(&Executor::OneShot, &singular)
        .unwrap_err()
        .to_string();
    assert!(expected.contains("matrix is singular"), "{expected}");
    let singular = points_to_json(&singular).to_string();

    let mut server = Served::start();

    // Same fingerprint, submitted back to back: whichever job trains, every
    // one of them ends failed with the training's error.
    for id in ["f0", "f1", "f2"] {
        server.submit(id, &singular);
    }
    for id in ["f0", "f1", "f2"] {
        let response = server.finish(id);
        assert_eq!(text(&response, "state"), Some("failed"), "{id}: {response}");
        assert_eq!(text(&response, "message"), Some(expected.as_str()), "{id}");
    }

    // The failure is not cached: the same payload trains again.
    let misses = server.counter("cache_misses");
    server.submit("f3", &singular);
    let response = server.finish("f3");
    assert_eq!(text(&response, "state"), Some("failed"), "{response}");
    assert!(server.counter("cache_misses") > misses);

    // Good jobs still finish with their standalone bytes.
    let good = good_batch();
    let standalone = report_to_string(
        &MdpQuery::with_defaults()
            .execute(&Executor::OneShot, &good)
            .unwrap(),
    );
    let good = points_to_json(&good).to_string();
    for id in ["g0", "g1"] {
        server.submit(id, &good);
    }
    for id in ["g0", "g1"] {
        let response = server.finish(id);
        assert_eq!(text(&response, "state"), Some("done"), "{id}: {response}");
        assert_eq!(field(&response, "report").unwrap().to_string(), standalone, "{id}");
    }

    // Both workers busy: a job submitted now waits in the queue, and closing
    // it before it runs cancels it.
    for (id, salt) in [("b0", 1), ("b1", 2), ("c", 3)] {
        server.submit(id, &points_to_json(&busy_batch(salt)).to_string());
    }
    let response = server.call(r#"{"op":"close","id":"c"}"#);
    assert_eq!(text(&response, "closed"), Some("job"), "{response}");
    let response = server.finish("c");
    assert_eq!(text(&response, "state"), Some("cancelled"), "{response}");
    for id in ["b0", "b1"] {
        assert_eq!(text(&server.finish(id), "state"), Some("done"), "{id}");
    }

    let stats = server.call(r#"{"op":"stats"}"#);
    assert_eq!(field(&stats, "ok"), Some(&Value::Bool(true)), "{stats}");
    let Served {
        mut child, stdin, ..
    } = server;
    drop(stdin);
    let status = child.wait().expect("wait for mb_serve");
    assert!(status.success(), "mb_serve exited with {status}");
}


/// Run `mb_serve` with `args` over all of `input`; its exit status, stdout
/// and stderr.
fn run(args: &[&str], input: &[u8]) -> (std::process::ExitStatus, String, String) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_mb_serve"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn mb_serve");
    let mut stdin = child.stdin.take().expect("piped stdin");
    // A server that refuses its arguments exits without reading, so the
    // write may find the pipe closed.
    let _ = stdin.write_all(input);
    drop(stdin);
    let output = child.wait_with_output().expect("wait for mb_serve");
    (
        output.status,
        String::from_utf8(output.stdout).expect("stdout is UTF-8"),
        String::from_utf8(output.stderr).expect("stderr is UTF-8"),
    )
}

#[test]
fn a_line_that_is_not_utf8_gets_a_typed_error_and_the_server_answers_on() {
    let (status, stdout, _) = run(&["--workers", "2"], b"\xff\xfe\n{\"op\":\"stats\"}\r\n");
    assert!(status.success(), "mb_serve exited with {status}");
    let responses: Vec<Value> = stdout
        .lines()
        .map(|line| serde_json::from_str(line).expect("responses are JSON"))
        .collect();
    assert_eq!(responses.len(), 2, "{stdout}");
    let error = field(&responses[0], "error").expect("an error response");
    assert_eq!(text(error, "kind"), Some("malformed"), "{stdout}");
    assert_eq!(
        field(&responses[1], "ok"),
        Some(&Value::Bool(true)),
        "{stdout}"
    );
    assert_eq!(text(&responses[1], "op"), Some("stats"), "{stdout}");
}

#[test]
fn arguments_it_does_not_know_stop_the_server_before_it_reads() {
    let stats = b"{\"op\":\"stats\"}\n";
    for (args, offending) in [
        (&["--wrkers", "2", "--help"][..], "--wrkers"),
        (&["--workers", "2", "extra"], "extra"),
        (&["--workers"], "--workers"),
        (&["--queue", "many"], "--queue"),
        (&["--threads", "-1"], "--threads"),
    ] {
        let (status, stdout, stderr) = run(args, stats);
        assert_eq!(status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?} answered: {stdout}");
        assert!(stderr.contains("usage: mb_serve"), "{args:?}: {stderr}");
        assert!(stderr.contains(offending), "{args:?}: {stderr}");
    }
    let (status, stdout, _) = run(&["--help"], stats);
    assert!(status.success(), "--help exited with {status}");
    assert!(stdout.starts_with("usage: mb_serve"), "{stdout}");
    // The flags the benchmark passes still run the server.
    let (status, stdout, stderr) = run(&["--threads", "2", "--workers", "2"], stats);
    assert!(status.success(), "{stderr}");
    assert_eq!(stdout.lines().count(), 1, "{stdout}");
}
