//! Closed-loop client for the real `mb_serve` binary, and the seeded
//! request mix both the end-to-end and the layer run replay.
//!
//! The wire is one request line → one response line on one pipe, so the
//! client writes a line and then reads a line; no threads are needed, and
//! "in flight" means submitted but not yet polled to `done`.

use crate::gen::Rng;
use crate::stats::now;
use macrobase_core::query::{AnalysisConfig, Executor, MdpQuery};
use macrobase_core::types::Point;
use macrobase_core::wire::{analysis_to_json, point_to_json, report_from_json, report_to_string};
use serde_json::Value;
use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// Resident payloads a hit repeats.
pub const RESIDENT: usize = 8;
/// Share of requests whose fingerprint is fresh.
const MISS_RATE: f64 = 0.2;
/// `poll` blocks server-side until the job is done or this elapses.
const POLL_WAIT_MS: u64 = 60_000;

/// A running `mb_serve` child with its pipes.
pub struct ServeChild {
    child: Child,
    /// `None` once [`ServeChild::shutdown`] has closed it.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
}

impl ServeChild {
    /// Pool and worker counts are pinned so a run does not depend on the
    /// box's core count.
    pub fn spawn(binary: &Path) -> io::Result<ServeChild> {
        let mut child = Command::new(binary)
            .args(["--threads", "2", "--workers", "2"])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let stdin = child.stdin.take();
        let stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        Ok(ServeChild {
            child,
            stdin,
            stdout,
        })
    }

    /// One request line out, one response line back (without its newline).
    pub fn call(&mut self, request: &str) -> io::Result<String> {
        let stdin = self.stdin.as_mut().expect("stdin is piped until shutdown");
        stdin.write_all(request.as_bytes())?;
        stdin.write_all(b"\n")?;
        stdin.flush()?;
        let mut line = String::new();
        if self.stdout.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "mb_serve closed its stdout",
            ));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// `VmHWM` of the server process, in MB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// EOF on stdin ends the serve loop; wait for the exit.
    pub fn shutdown(mut self) -> io::Result<bool> {
        drop(self.stdin.take());
        Ok(self.child.wait()?.success())
    }
}

impl Drop for ServeChild {
    /// A run that failed half way must not leave a server behind.
    fn drop(&mut self) {
        if self.stdin.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One planned request: which resident payload, and whether its first
/// metric is perturbed (fresh fingerprint → the server must train).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Planned {
    pub resident: usize,
    /// Unique per request, so no two misses share a fingerprint.
    pub perturb: Option<u64>,
}

/// The seeded request sequence.
pub struct Plan {
    rng: Rng,
    issued: u64,
}

impl Plan {
    pub fn new(seed: u64) -> Self {
        Plan {
            rng: Rng::new(seed ^ 0x5E27_E0D1),
            issued: 0,
        }
    }

    pub fn next_request(&mut self) -> Planned {
        let resident = (self.rng.next_u64() % RESIDENT as u64) as usize;
        let miss = self.rng.next_f64() < MISS_RATE;
        self.issued += 1;
        Planned {
            resident,
            perturb: miss.then_some(self.issued),
        }
    }
}

/// The resident payloads, pre-serialized so building a request line costs
/// one small point, not 5,000.
pub struct Payloads {
    pub analysis: AnalysisConfig,
    pub points: Vec<Vec<Point>>,
    analysis_json: String,
    /// `,{point 1},…,{point n-1}]` of each payload.
    tails: Vec<String>,
}

impl Payloads {
    pub fn new(analysis: AnalysisConfig, points: Vec<Vec<Point>>) -> Self {
        let tails = points
            .iter()
            .map(|payload| {
                let mut tail = String::new();
                for p in &payload[1..] {
                    tail.push(',');
                    tail.push_str(&point_to_json(p).to_string());
                }
                tail.push(']');
                tail
            })
            .collect();
        Payloads {
            analysis_json: analysis_to_json(&analysis).to_string(),
            analysis,
            points,
            tails,
        }
    }

    /// The points a planned request carries.
    pub fn points_of(&self, planned: Planned) -> Vec<Point> {
        let mut points = self.points[planned.resident].clone();
        points[0] = self.first_point(planned);
        points
    }

    fn first_point(&self, planned: Planned) -> Point {
        let mut first = self.points[planned.resident][0].clone();
        if let Some(n) = planned.perturb {
            first.metrics[0] += n as f64 * 1e-6;
        }
        first
    }

    pub fn submit_line(&self, id: &str, planned: Planned) -> String {
        format!(
            "{{\"op\":\"submit\",\"id\":\"{id}\",\"analysis\":{},\"points\":[{}{}}}",
            self.analysis_json,
            point_to_json(&self.first_point(planned)),
            self.tails[planned.resident]
        )
    }

    /// The standalone report of every resident payload, unperturbed.
    pub fn resident_reports(&self) -> Result<Vec<String>, String> {
        (0..self.points.len())
            .map(|resident| {
                self.standalone_report(Planned {
                    resident,
                    perturb: None,
                })
            })
            .collect()
    }

    /// What the served report must equal byte for byte: the same query run
    /// standalone.
    pub fn standalone_report(&self, planned: Planned) -> Result<String, String> {
        MdpQuery::new(self.analysis.clone())
            .execute(&Executor::OneShot, &self.points_of(planned))
            .map(|r| report_to_string(&r))
            .map_err(|e| e.to_string())
    }
}

/// A finished request as the client saw it.
pub struct Served {
    pub planned: Planned,
    /// Submit line written → `done` line read.
    pub latency_s: f64,
    /// When the `done` line was read, in seconds since the run began.
    pub done_s: f64,
    /// The raw `poll` response.
    pub done_line: String,
}

pub fn poll_line(id: &str) -> String {
    format!("{{\"op\":\"poll\",\"id\":\"{id}\",\"wait_ms\":{POLL_WAIT_MS}}}")
}

pub fn close_line(id: &str) -> String {
    format!("{{\"op\":\"close\",\"id\":\"{id}\"}}")
}

fn expect_ok(line: &str, what: &str) -> io::Result<()> {
    if line.starts_with("{\"ok\":true") {
        Ok(())
    } else {
        Err(io::Error::other(format!("{what} refused: {line}")))
    }
}

/// Closed loop with `depth` requests in flight: submit until the window is
/// full, then poll the oldest to `done`, close it, and refill. `next` is
/// asked for each request with `(requests submitted, seconds elapsed)` and
/// ends the run by returning `None`; the window is then drained.
pub fn drive(
    server: &mut ServeChild,
    payloads: &Payloads,
    id_prefix: &str,
    depth: usize,
    mut next: impl FnMut(usize, f64) -> Option<Planned>,
) -> io::Result<Vec<Served>> {
    let start = now();
    let mut window: VecDeque<(String, Planned, std::time::Instant)> = VecDeque::new();
    let mut served = Vec::new();
    let mut submitted = 0usize;
    let mut open = true;
    loop {
        while open && window.len() < depth {
            let Some(planned) = next(submitted, start.elapsed().as_secs_f64()) else {
                open = false;
                break;
            };
            let id = format!("{id_prefix}{submitted}");
            submitted += 1;
            let line = payloads.submit_line(&id, planned);
            let sent = now();
            expect_ok(&server.call(&line)?, "submit")?;
            window.push_back((id, planned, sent));
        }
        let Some((id, planned, sent)) = window.pop_front() else {
            break;
        };
        let done_line = server.call(&poll_line(&id))?;
        let latency_s = sent.elapsed().as_secs_f64();
        let done_s = start.elapsed().as_secs_f64();
        expect_ok(&server.call(&close_line(&id))?, "close")?;
        served.push(Served {
            planned,
            latency_s,
            done_s,
            done_line,
        });
    }
    Ok(served)
}

/// Whether a `poll` response is a finished job whose cache outcome matches
/// the plan, whose report names the planted value, and — when `expected` is
/// given — whose report bytes equal the standalone run's.
pub fn check_served(served: &Served, points_per_request: usize, expected: Option<&str>) -> bool {
    let Ok(value) = serde_json::from_str(&served.done_line) else {
        return false;
    };
    let Some(map) = value.as_object() else {
        return false;
    };
    let field = |key: &str| map.get(key).and_then(Value::as_str);
    let cache = if served.planned.perturb.is_some() {
        "miss"
    } else {
        "hit"
    };
    if field("state") != Some("done") || field("model_cache") != Some(cache) {
        return false;
    }
    let Some(Ok(report)) = map.get("report").map(report_from_json) else {
        return false;
    };
    if report.num_points != points_per_request || !crate::names_planted(&report) {
        return false;
    }
    // `report` is the response's last field, so byte equality is a suffix test.
    expected.is_none_or(|e| served.done_line.ends_with(&format!("\"report\":{e}}}")))
}

/// Counters of the wire `stats` op.
pub fn stats_counters(server: &mut ServeChild) -> io::Result<Value> {
    let line = server.call("{\"op\":\"stats\"}")?;
    expect_ok(&line, "stats")?;
    serde_json::from_str(&line).map_err(|e| io::Error::other(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_seeded_and_misses_are_unique() {
        let draw = |seed| {
            let mut plan = Plan::new(seed);
            (0..1000).map(|_| plan.next_request()).collect::<Vec<_>>()
        };
        let a = draw(13);
        assert_eq!(a, draw(13));
        assert_ne!(a, draw(14));
        let misses: Vec<u64> = a.iter().filter_map(|p| p.perturb).collect();
        let share = misses.len() as f64 / a.len() as f64;
        assert!((0.15..0.25).contains(&share), "miss share = {share}");
        let mut unique = misses.clone();
        unique.dedup();
        assert_eq!(unique, misses);
        assert!(a.iter().all(|p| p.resident < RESIDENT));
    }

    #[test]
    fn submit_line_decodes_to_the_planned_points() {
        let points: Vec<Vec<Point>> = (0..RESIDENT)
            .map(|k| {
                (0..4)
                    .map(|i| Point::new(vec![k as f64, i as f64 + 0.5], vec![format!("v{i}")]))
                    .collect()
            })
            .collect();
        let payloads = Payloads::new(AnalysisConfig::default(), points);
        let planned = Planned {
            resident: 3,
            perturb: Some(9),
        };
        let line = payloads.submit_line("x1", planned);
        let value = serde_json::from_str(&line).expect("valid JSON");
        let decoded = macrobase_core::wire::points_from_json(
            value.as_object().unwrap().get("points").unwrap(),
            "points",
        )
        .unwrap();
        assert_eq!(decoded, payloads.points_of(planned));
        assert_ne!(decoded[0].metrics[0], 3.0);
    }
}
