//! Shared helpers for the experiment harness binaries.
//!
//! Every table and figure of the paper's evaluation has a corresponding
//! binary in `src/bin/` (see DESIGN.md's per-experiment index); each binary
//! prints a human-readable table to stdout plus one JSON line per result row
//! (prefixed with `JSON:`) so EXPERIMENTS.md can be regenerated and results
//! diffed across runs. Criterion micro-benchmarks for the performance-
//! critical data structures live in `benches/`.

use macrobase_core::types::Point;
use mb_ingest::Record;
use std::time::Instant;

/// Convert ingested records into pipeline points.
pub fn records_to_points(records: &[Record]) -> Vec<Point> {
    records
        .iter()
        .map(|r| Point::new(r.metrics.clone(), r.attributes.clone()))
        .collect()
}

/// Time a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64())
}

/// Throughput in points per second.
pub fn throughput(points: usize, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        0.0
    } else {
        points as f64 / seconds
    }
}

/// Emit one machine-readable result row.
pub fn emit_json(experiment: &str, row: serde_json::Value) {
    let mut object = serde_json::json!({ "experiment": experiment });
    if let (Some(target), Some(extra)) = (object.as_object_mut(), row.as_object()) {
        for (k, v) in extra {
            target.insert(k.clone(), v.clone());
        }
    }
    println!("JSON: {object}");
}

/// Read a `--scale N` style positive-integer argument (`default` if absent or
/// malformed). Harness binaries use this to let CI run quickly while allowing
/// larger, closer-to-paper-scale runs when desired.
pub fn arg_usize(name: &str, default: usize) -> usize {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&v| v > 0)
        .unwrap_or(default)
}

/// Whether a bare boolean flag (e.g. `--trace`) is present on the command
/// line.
pub fn arg_flag(name: &str) -> bool {
    std::env::args().any(|a| a == name)
}

/// Apply a `--threads N` argument (if present) to the global work-stealing
/// pool, before anything has touched it; returns the pool's actual size.
/// Call this at the top of `main` in harness binaries — once the pool
/// exists its size is fixed for the life of the process.
pub fn configure_threads_from_args() -> usize {
    let requested = arg_usize("--threads", 0);
    if requested > 0 {
        // Configuration is one-shot: if someone already fixed the size or
        // built the pool, the flag cannot take effect — say so instead of
        // silently running with an unexpected thread count.
        if let Err(e) = mb_pool::configure_global_threads(requested) {
            eprintln!("warning: --threads {requested} ignored: {e}");
        }
    }
    mb_pool::global().num_threads()
}

/// FNV-1a (64-bit) over the little-endian bytes of `words`, as 16 hex
/// digits: the fingerprint harness binaries print so CI can diff a result
/// bit for bit.
pub fn fnv_words(words: impl IntoIterator<Item = u64>) -> String {
    let mut hash = 0xcbf2_9ce4_8422_2325_u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// Format a floating point count compactly (e.g. `1.39M`, `599K`).
pub fn human_count(value: f64) -> String {
    if value >= 1e6 {
        format!("{:.2}M", value / 1e6)
    } else if value >= 1e3 {
        format!("{:.1}K", value / 1e3)
    } else {
        format!("{value:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_human_count() {
        assert_eq!(throughput(1000, 0.5), 2000.0);
        assert_eq!(throughput(1000, 0.0), 0.0);
        assert_eq!(human_count(2_500_000.0), "2.50M");
        assert_eq!(human_count(1_500.0), "1.5K");
        assert_eq!(human_count(42.0), "42");
    }

    #[test]
    fn records_convert_to_points() {
        let records = vec![Record::new(vec![1.0], vec!["a".to_string()])];
        let points = records_to_points(&records);
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].metrics, vec![1.0]);
    }

    #[test]
    fn timed_returns_result() {
        let (value, seconds) = timed(|| 41 + 1);
        assert_eq!(value, 42);
        assert!(seconds >= 0.0);
    }
}
