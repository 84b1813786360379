//! `benchmark ledger`: every workload, each run in its own process — the
//! end-to-end run with tracing off, then the layer run — gathered into one
//! JSON document with the box, toolchain, commit and seed in its header.

use crate::workloads::SPECS;
use crate::Args;
use serde_json::{Map, Value};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Run this binary once for one workload and return its two output lines
/// (detail, result) merged into one record.
fn child_run(args: &Args, workload: &str, seed: u64, trace: bool) -> Result<Map, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = Command::new(exe);
    child
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    for name in ["--seconds", "--data-dir", "--mb-serve"] {
        if let Some(value) = args.value(name) {
            child.args([name, value]);
        }
    }
    if args.flag("--smoke") {
        child.arg("--smoke");
    }
    let output = child.output().map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} (trace {trace}) exited with {}",
            output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut record = Map::new();
    for line in stdout.lines() {
        let Ok(Value::Object(fields)) = serde_json::from_str(line) else {
            return Err(format!("{workload}: unexpected output line {line:?}"));
        };
        for (key, value) in fields.iter() {
            record.insert(key.clone(), value.clone());
        }
    }
    Ok(record)
}

pub fn run(args: &Args) -> Result<bool, String> {
    let seed: u64 = args.parsed("--seed", 13)?;
    let sets: u64 = args.parsed("--sets", 1)?;
    let reps: u64 = args.parsed("--reps", 1)?;
    let only = args.value("--workload");

    let mut header = Map::new();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    header.insert("nproc".to_string(), Value::from(nproc));
    header.insert("pool_threads".to_string(), Value::from(crate::POOL_THREADS));
    header.insert(
        "rustc".to_string(),
        Value::from(command_line("rustc", &["-V"])),
    );
    header.insert(
        "git_sha".to_string(),
        Value::from(command_line("git", &["rev-parse", "HEAD"])),
    );
    header.insert("seed".to_string(), Value::from(seed));
    header.insert("smoke".to_string(), Value::from(args.flag("--smoke")));

    let mut runs = Vec::new();
    let mut clean = true;
    for set in 0..sets {
        for spec in SPECS.iter().filter(|s| only.is_none_or(|w| w == s.name)) {
            // End-to-end runs on `reps` consecutive seeds, then one layer run.
            let plan = (0..reps).map(|r| (seed + r, false)).chain([(seed, true)]);
            for (run_seed, trace) in plan {
                eprintln!(
                    "benchmark: set {set} {} seed {run_seed} trace {trace}",
                    spec.name
                );
                let mut record = child_run(args, spec.name, run_seed, trace)?;
                record.insert("set".to_string(), Value::from(set));
                clean &= record.get("failed").and_then(Value::as_f64) == Some(0.0);
                runs.push(Value::Object(record));
            }
        }
    }
    let mut ledger = Map::new();
    ledger.insert("header".to_string(), Value::Object(header));
    ledger.insert("runs".to_string(), Value::Array(runs));
    println!("{}", Value::Object(ledger));
    Ok(clean)
}
