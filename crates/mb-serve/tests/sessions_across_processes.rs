//! Two `mb_serve` processes given the same streaming session, line for line,
//! render the same report bytes: nothing a session keeps may depend on the
//! process it runs in. The stream has ~3K devices against sketches of 200,
//! so every AMC maintenance prunes among tied counts — the case that used to
//! follow each process's random hash keys.

use macrobase_core::types::Point;
use macrobase_core::wire::points_to_json;
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
            .args(["--workers", "1"])
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
        let response: Value = serde_json::from_str(&line).expect("responses are JSON");
        assert_eq!(field(&response, "ok"), Some(&Value::Bool(true)), "{response}");
        response
    }

    /// Open, feed every line, and return the session's report as rendered.
    fn session_report(mut self, open: &str, feeds: &[String]) -> String {
        self.call(open);
        for feed in feeds {
            self.call(feed);
        }
        let polled = self.call(r#"{"op":"poll","id":"s"}"#);
        let report = field(&polled, "report").expect("a session's poll carries its report");
        let report = report.to_string();
        drop(self.stdin);
        self.child.wait().expect("mb_serve exits at EOF");
        report
    }
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_object().and_then(|m| m.get(key))
}

/// 20K readings over 3,000 devices, 150 of which read high.
fn stream() -> Vec<Point> {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = move |bound: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % bound
    };
    (0..20_000)
        .map(|_| {
            let device = next(3_000);
            let base = if device % 20 == 0 { 70.0 } else { 10.0 };
            let value = base + next(1_000) as f64 / 50.0;
            Point::simple(value, format!("device_{device}"))
        })
        .collect()
}

#[test]
fn the_same_session_lines_render_the_same_report_in_two_processes() {
    let open = r#"{"op":"submit","id":"s","executor":{"mode":"streaming","reservoir_size":200,"decay_period":5000,"retrain_period":5000}}"#;
    let feeds: Vec<String> = stream()
        .chunks(4_000)
        .map(|chunk| format!(r#"{{"op":"feed","id":"s","points":{}}}"#, points_to_json(chunk)))
        .collect();
    let first = Served::start().session_report(open, &feeds);
    assert!(first.contains("device_"), "{first}");
    assert_eq!(first, Served::start().session_report(open, &feeds));
}
