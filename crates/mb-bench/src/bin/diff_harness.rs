//! Compare a harness binary's `JSON:` rows against a blessed baseline file,
//! so accuracy regressions fail CI instead of going unnoticed.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p mb-bench --bin fig11_scaleout \
//!   | cargo run --release -p mb-bench --bin diff_harness -- \
//!       --baseline crates/mb-bench/baselines/fig11_scaleout.jsonl
//! ```
//!
//! The baseline is one JSON object per line (capture it by piping the
//! binary's output through `grep '^JSON: ' | sed 's/^JSON: //'`). Rows are
//! compared in order, key by key:
//!
//! * **volatile keys** (wall clock and anything derived from it — `seconds`,
//!   `*_s`, `*throughput*`) are checked for presence only;
//! * **strings/booleans** must match exactly;
//! * **numbers** must agree within a tolerance: `|a - b| <= max(abs_tol,
//!   rel_tol * max(|a|, |b|))` with `rel_tol = abs_tol = 0.15` by default
//!   (override with `--rel-tol` / `--abs-tol`). Deterministic metrics like
//!   Jaccard, F1, and explanation counts sit well inside this; real
//!   regressions (a mode losing half its accuracy) blow through it.
//!
//! Exit status: 0 when every row matches, 1 otherwise (with one line per
//! mismatch on stderr).

use serde_json::Value;
use std::io::Read;
use std::process::ExitCode;

/// Keys whose values depend on wall clock and may vary freely across runs.
/// Telemetry keys (`trace`, stage `*_ms`/`*_ns` timings, idle counters) are
/// volatile too: a traced run diffs cleanly against an untraced baseline.
/// `*_s` covers both `*_per_s` rates and durations in seconds (table5's
/// `macrobase_s`, `cube_s`, ...).
fn is_volatile(key: &str) -> bool {
    key == "seconds"
        || key.ends_with("_seconds")
        || key.ends_with("_s")
        || key.ends_with("_per_second")
        || key.ends_with("_us")
        || key.ends_with("_ms")
        || key.ends_with("_ns")
        || key.contains("throughput")
        || key.contains("speedup")
        || key.contains("idle")
        || key == "trace"
}

fn arg_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn parse_rows(source: &str, label: &str, text: &str) -> Result<Vec<Value>, String> {
    let mut rows = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let json = match source {
            // Harness output: rows are prefixed; everything else is prose.
            "stream" => match line.strip_prefix("JSON: ") {
                Some(rest) => rest,
                None => continue,
            },
            // Baseline file: every non-empty line is a row.
            _ => {
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                trimmed
            }
        };
        let value = serde_json::from_str(json)
            .map_err(|e| format!("{label} line {}: {e}", lineno + 1))?;
        rows.push(value);
    }
    Ok(rows)
}

fn numbers_match(actual: f64, expected: f64, rel_tol: f64, abs_tol: f64) -> bool {
    if actual == expected {
        return true; // covers ±inf and exact integers
    }
    let scale = actual.abs().max(expected.abs());
    (actual - expected).abs() <= abs_tol.max(rel_tol * scale)
}

fn compare_rows(
    index: usize,
    actual: &Value,
    expected: &Value,
    rel_tol: f64,
    abs_tol: f64,
) -> Vec<String> {
    let mut mismatches = Vec::new();
    let (Some(actual), Some(expected)) = (actual.as_object(), expected.as_object()) else {
        return vec![format!("row {index}: rows must be JSON objects")];
    };
    let mut keys: Vec<&String> = expected.iter().map(|(k, _)| k).collect();
    for (key, _) in actual.iter() {
        // Volatile keys may appear only in the actual run (e.g. the `*_ms`
        // timings a traced run adds on top of an untraced baseline's shape).
        if expected.get(key).is_none() && !is_volatile(key) {
            mismatches.push(format!("row {index}: unexpected key {key:?}"));
        }
    }
    keys.sort();
    for key in keys {
        let expected_value = expected.get(key).expect("key from iteration");
        let Some(actual_value) = actual.get(key) else {
            mismatches.push(format!("row {index}: missing key {key:?}"));
            continue;
        };
        if is_volatile(key) {
            continue;
        }
        let matches = match (actual_value.as_f64(), expected_value.as_f64()) {
            (Some(a), Some(e)) => numbers_match(a, e, rel_tol, abs_tol),
            _ => actual_value == expected_value,
        };
        if !matches {
            mismatches.push(format!(
                "row {index}, key {key:?}: got {actual_value}, baseline {expected_value}"
            ));
        }
    }
    mismatches
}

fn main() -> ExitCode {
    let Some(baseline_path) = arg_value("--baseline") else {
        eprintln!("diff_harness: required argument --baseline <file> missing");
        return ExitCode::FAILURE;
    };
    let rel_tol: f64 = arg_value("--rel-tol")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.15);
    let abs_tol: f64 = arg_value("--abs-tol")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.15);

    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("diff_harness: cannot read baseline {baseline_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut stdin_text = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut stdin_text) {
        eprintln!("diff_harness: cannot read stdin: {e}");
        return ExitCode::FAILURE;
    }

    let expected = match parse_rows("baseline", &baseline_path, &baseline_text) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("diff_harness: {e}");
            return ExitCode::FAILURE;
        }
    };
    let actual = match parse_rows("stream", "stdin", &stdin_text) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("diff_harness: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut mismatches = Vec::new();
    if actual.len() != expected.len() {
        mismatches.push(format!(
            "row count differs: got {} rows, baseline has {}",
            actual.len(),
            expected.len()
        ));
    }
    for (index, (a, e)) in actual.iter().zip(expected.iter()).enumerate() {
        mismatches.extend(compare_rows(index, a, e, rel_tol, abs_tol));
    }

    if mismatches.is_empty() {
        println!(
            "diff_harness: {} rows match {baseline_path} (rel tol {rel_tol}, abs tol {abs_tol})",
            actual.len()
        );
        ExitCode::SUCCESS
    } else {
        for m in &mismatches {
            eprintln!("diff_harness: MISMATCH {m}");
        }
        eprintln!(
            "diff_harness: {} mismatch(es) against {baseline_path}",
            mismatches.len()
        );
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(value: &Value, out: &mut Vec<String>) {
        match value {
            Value::Object(object) => {
                for (key, inner) in object.iter() {
                    out.push(key.clone());
                    keys(inner, out);
                }
            }
            Value::Array(items) => items.iter().for_each(|inner| keys(inner, out)),
            _ => {}
        }
    }

    // The `*_s` rule exists for table5's timings. Outside table5 it may
    // exempt only what `*_per_s` already did, so no key another baseline
    // compares is loosened by it.
    #[test]
    fn seconds_suffix_exempts_only_rates_outside_table5() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines");
        let mut checked = 0;
        for dir in [root.to_string(), format!("{root}/scheduled")] {
            for entry in std::fs::read_dir(&dir).expect("baseline dir") {
                let path = entry.expect("dir entry").path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                if !name.ends_with(".jsonl") || name.starts_with("table5") {
                    continue;
                }
                let text = std::fs::read_to_string(&path).expect("baseline file");
                let mut found = Vec::new();
                for row in parse_rows("baseline", &name, &text).expect("rows parse") {
                    keys(&row, &mut found);
                }
                for key in found.iter().filter(|k| k.ends_with("_s")) {
                    assert!(key.ends_with("_per_s"), "{name}: `_s` rule exempts {key:?}");
                }
                checked += 1;
            }
        }
        assert!(checked >= 12, "only {checked} baseline files found");
    }

    #[test]
    fn table5_timings_are_volatile_and_its_hash_is_not() {
        for key in ["macrobase_s", "fpgrowth_s", "cube_s", "dt10_s", "dt100_s", "apriori_s"] {
            assert!(is_volatile(key), "{key}");
        }
        for key in ["macrobase_fnv", "macrobase_explanations", "query"] {
            assert!(!is_volatile(key), "{key}");
        }
    }
}
