//! `benchmark compare BASE.json NEW.json`: per (metric, workload), both
//! medians and quartiles, the delta with its base, the bound from
//! `BENCHMARK.json`, and a verdict.
//!
//! With one file, its runs marked `"set": 0` are the base and `"set": 1` the
//! new side — how `results/pr11.json` shows that two sets of runs of one
//! commit agree.

use crate::stats::{median, quartiles};
use serde_json::Value;

/// The benchmark's declaration, compiled in so `compare` and the unit tests
/// read the file the driver reads.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Clone, Copy, Debug, PartialEq)]
enum Better {
    Lower,
    Higher,
}

#[derive(Debug, PartialEq)]
enum Verdict {
    Improved,
    Regressed,
    Unchanged,
    /// The run-to-run spread is wider than the bound: the data cannot say.
    Unresolved,
    /// An exact count, equal on both sides.
    Same,
    /// An exact count that moved.
    Differs,
    /// A per-layer timing: reported, never gated.
    Info,
}

struct Side {
    median: f64,
    /// `None` with fewer than two samples.
    quartiles: Option<(f64, f64)>,
}

impl Side {
    fn of(samples: &[f64]) -> Side {
        Side {
            median: median(samples),
            quartiles: (samples.len() >= 2).then(|| quartiles(samples)),
        }
    }

    /// Interquartile range, 0 when unknown.
    fn iqr(&self) -> f64 {
        self.quartiles.map_or(0.0, |(q1, q3)| q3 - q1)
    }
}

/// `bound` is the share of the base median a metric may worsen by; `None`
/// for per-layer metrics.
fn verdict(base: &Side, new: &Side, better: Better, bound: Option<f64>, exact: bool) -> Verdict {
    if exact {
        return if base.median == new.median && base.iqr() == 0.0 && new.iqr() == 0.0 {
            Verdict::Same
        } else {
            Verdict::Differs
        };
    }
    let Some(bound) = bound else {
        return Verdict::Info;
    };
    let scale = base.median.abs();
    let spread = base.iqr().max(new.iqr());
    if spread > bound * scale {
        return Verdict::Unresolved;
    }
    let gain = match better {
        Better::Lower => base.median - new.median,
        Better::Higher => new.median - base.median,
    };
    if -gain > bound * scale {
        Verdict::Regressed
    } else if gain > spread && gain > 0.0 {
        // The medians differ by more than either side's own quartile range.
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

struct Declared {
    name: String,
    better: Better,
    bound: Option<f64>,
    exact: bool,
}

fn declared() -> Result<(Vec<String>, Vec<Declared>), String> {
    let doc = serde_json::from_str(BENCHMARK_JSON).map_err(|e| e.to_string())?;
    let doc = doc.as_object().ok_or("BENCHMARK.json is not an object")?;
    let list = |key: &str| match doc.get(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("BENCHMARK.json has no {key} list")),
    };
    let text = |item: &Value, key: &str| {
        item.as_object()
            .and_then(|m| m.get(key))
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json entry without {key}"))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| text(w, "name"))
        .collect::<Result<_, _>>()?;
    let mut metrics = Vec::new();
    for key in ["end_to_end", "per_layer"] {
        for item in list(key)? {
            metrics.push(Declared {
                name: text(item, "name")?,
                better: if text(item, "better")? == "higher" {
                    Better::Higher
                } else {
                    Better::Lower
                },
                bound: item
                    .as_object()
                    .and_then(|m| m.get("bound"))
                    .and_then(Value::as_f64),
                exact: text(item, "unit")? == "count",
            });
        }
    }
    Ok((workloads, metrics))
}

/// Values of `metric` on `workload` among a ledger's runs, optionally only
/// those of one set.
fn samples(ledger: &Value, set: Option<f64>, workload: &str, metric: &str) -> Vec<f64> {
    let Some(Value::Array(runs)) = ledger.as_object().and_then(|m| m.get("runs")) else {
        return Vec::new();
    };
    runs.iter()
        .filter_map(Value::as_object)
        .filter(|run| run.get("workload").and_then(Value::as_str) == Some(workload))
        .filter(|run| set.is_none() || run.get("set").and_then(Value::as_f64) == set)
        .filter_map(|run| {
            run.get("metrics")?
                .as_object()?
                .get(metric)?
                .as_object()?
                .get("value")?
                .as_f64()
        })
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn show(side: &Side) -> String {
    match side.quartiles {
        Some((q1, q3)) => format!("{:.4} [{:.4}, {:.4}]", side.median, q1, q3),
        None => format!("{:.4}", side.median),
    }
}

pub fn run(files: &[String]) -> Result<bool, String> {
    let (base, new, base_set, new_set) = match files {
        [one] => {
            let ledger = load(one)?;
            (ledger.clone(), ledger, Some(0.0), Some(1.0))
        }
        [a, b] => (load(a)?, load(b)?, None, None),
        _ => return Err("usage: benchmark compare BASE.json [NEW.json]".to_string()),
    };
    let (workloads, metrics) = declared()?;
    println!(
        "{:<16} {:<38} {:>34} {:>34} {:>9} {:>6}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "delta", "bound"
    );
    let mut clean = true;
    for workload in &workloads {
        for m in &metrics {
            let b = samples(&base, base_set, workload, &m.name);
            let n = samples(&new, new_set, workload, &m.name);
            if b.is_empty() || n.is_empty() {
                continue;
            }
            let (b, n) = (Side::of(&b), Side::of(&n));
            let verdict = verdict(&b, &n, m.better, m.bound, m.exact);
            clean &= !matches!(
                verdict,
                Verdict::Regressed | Verdict::Unresolved | Verdict::Differs
            );
            // The delta is a share of the base median, printed beside it.
            let delta = (n.median - b.median) / b.median * 100.0;
            println!(
                "{:<16} {:<38} {:>34} {:>34} {:>+8.2}% {:>6}  {:?}",
                workload,
                m.name,
                show(&b),
                show(&n),
                delta,
                m.bound
                    .map_or("-".to_string(), |x| format!("{:.0}%", x * 100.0)),
                verdict
            );
        }
    }
    println!(
        "{}",
        if clean {
            "no metric regressed, is unresolved, or changed an exact count"
        } else {
            "some metric regressed, is unresolved, or changed an exact count"
        }
    );
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn side(samples: &[f64]) -> Side {
        Side::of(samples)
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let base = side(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        let same = side(&[100.2, 100.9, 99.1, 100.4, 99.8]);
        let slower = side(&[115.0, 116.0, 114.0, 115.5, 114.5]);
        let faster = side(&[90.0, 91.0, 89.0, 90.5, 89.5]);
        let noisy = side(&[80.0, 120.0, 100.0, 90.0, 110.0]);
        let lower = Better::Lower;
        assert_eq!(
            verdict(&base, &same, lower, Some(0.1), false),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &slower, lower, Some(0.1), false),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &faster, lower, Some(0.1), false),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &noisy, lower, Some(0.1), false),
            Verdict::Unresolved
        );
        // The same numbers read the other way for a throughput.
        let higher = Better::Higher;
        assert_eq!(
            verdict(&base, &slower, higher, Some(0.1), false),
            Verdict::Improved
        );
        assert_eq!(
            verdict(&base, &faster, higher, Some(0.25), false),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &faster, higher, Some(0.05), false),
            Verdict::Regressed
        );
        // Per-layer timings carry no bound.
        assert_eq!(verdict(&base, &slower, lower, None, false), Verdict::Info);
    }

    #[test]
    fn exact_counts_must_not_move() {
        let a = side(&[51.0, 51.0]);
        assert_eq!(
            verdict(&a, &side(&[51.0]), Better::Higher, None, true),
            Verdict::Same
        );
        assert_eq!(
            verdict(&a, &side(&[52.0]), Better::Higher, None, true),
            Verdict::Differs
        );
        assert_eq!(
            verdict(&side(&[51.0, 52.0]), &a, Better::Higher, None, true),
            Verdict::Differs
        );
    }

    #[test]
    fn single_samples_have_no_quartiles() {
        let one = side(&[5.0]);
        assert_eq!(one.quartiles, None);
        assert_eq!(one.iqr(), 0.0);
        assert_eq!(
            verdict(&one, &side(&[5.2]), Better::Lower, Some(0.1), false),
            Verdict::Unchanged
        );
    }

    #[test]
    fn samples_select_workload_metric_and_set() {
        let ledger = serde_json::from_str(
            r#"{"runs":[
                {"set":0,"workload":"w","metrics":{"m":{"value":1.0,"unit":"s"}}},
                {"set":1,"workload":"w","metrics":{"m":{"value":2.0,"unit":"s"}}},
                {"set":1,"workload":"v","metrics":{"m":{"value":3.0,"unit":"s"}}},
                {"set":1,"workload":"w","metrics":{"k":{"value":4.0,"unit":"s"}}}]}"#,
        )
        .unwrap();
        assert_eq!(samples(&ledger, None, "w", "m"), vec![1.0, 2.0]);
        assert_eq!(samples(&ledger, Some(1.0), "w", "m"), vec![2.0]);
        assert_eq!(samples(&ledger, Some(0.0), "v", "m"), Vec::<f64>::new());
    }

    #[test]
    fn benchmark_json_parses_with_bounds_on_end_to_end_only() {
        let (workloads, metrics) = declared().unwrap();
        assert_eq!(workloads.len(), 5);
        let bounded: Vec<&str> = metrics
            .iter()
            .filter(|m| m.bound.is_some())
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(
            bounded,
            [
                "setup_s",
                "rows_per_s",
                "latency_p50_ms",
                "snapshot_ms",
                "peak_rss_mb"
            ]
        );
        assert!(metrics
            .iter()
            .any(|m| m.name == "rows_per_s" && m.better == Better::Higher));
    }
}
