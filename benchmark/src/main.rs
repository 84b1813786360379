//! The repo's benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1 [--smoke]   one run, result on the last line
//! benchmark ledger [--seed N] [--seconds S] [--smoke] [--sets K]      every workload, both runs, one JSON document
//! benchmark compare A.json B.json                                     verdict per (metric, workload)
//! ```
//!
//! `run.sh` builds this package and `mb_serve`, then hands its arguments on.

mod compare;
mod gen;
mod layers;
mod ledger;
mod serve;
mod stats;
mod workloads;

use macrobase_core::types::MdpReport;
use serde_json::{Map, Value};
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Spec;

/// Everything a run needs to know besides its workload.
pub struct Ctx {
    pub seed: u64,
    /// How long the measured loop runs.
    pub seconds: f64,
    /// 1, or 50 under `--smoke`: every row count is divided by it.
    pub divisor: usize,
    /// Scratch directory for generated CSV files; removed when the run ends.
    pub data_dir: PathBuf,
    /// The `mb_serve` binary `run.sh` built from the root workspace.
    pub mb_serve: PathBuf,
}

/// Worker count of the process-wide pool; the server child gets the same.
pub const POOL_THREADS: usize = 2;
const SMOKE_DIVISOR: usize = 50;

/// `VmHWM` (peak resident set) from a `/proc/<pid>/status` file, in MB.
/// 0 when the file or the field is missing, which the caller reports as a
/// failed run rather than a metric.
pub fn peak_rss_mb(status_path: &str) -> f64 {
    std::fs::read_to_string(status_path)
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Whether an explanation of `report` names the value planted in column 0.
pub fn names_planted(report: &MdpReport) -> bool {
    let planted = format!("a0={}", gen::planted_value(0));
    report
        .explanations
        .iter()
        .any(|e| e.attributes.contains(&planted))
}

/// `--name value` pairs after the subcommand, plus bare flags.
struct Args(Vec<String>);

impl Args {
    fn value(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.value(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: cannot parse {v:?}")),
        }
    }

    fn flag(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn spec(&self) -> Result<&'static Spec, String> {
        let name = self.value("--workload").ok_or("--workload is required")?;
        Spec::find(name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn ctx(&self) -> Result<Ctx, String> {
        let smoke = self.flag("--smoke");
        let path = |name: &str| {
            self.value(name)
                .map(PathBuf::from)
                .ok_or_else(|| format!("{name} is required (run.sh passes it)"))
        };
        Ok(Ctx {
            seed: self.parsed("--seed", 13)?,
            seconds: self.parsed("--seconds", if smoke { 0.2 } else { 10.0 })?,
            divisor: if smoke { SMOKE_DIVISOR } else { 1 },
            data_dir: path("--data-dir")?,
            mb_serve: path("--mb-serve")?,
        })
    }
}

fn metric_value(value: f64, unit: &str) -> Value {
    let mut m = Map::new();
    m.insert("value".to_string(), Value::from(value));
    m.insert("unit".to_string(), Value::from(unit));
    Value::Object(m)
}

/// One run of one workload. Prints a detail line, then the result line the
/// benchmark contract asks for as the last line of stdout.
fn run_one(args: &Args) -> Result<bool, String> {
    let ctx = args.ctx()?;
    let spec = args.spec()?;
    let trace = args.parsed("--trace", 0u8)? != 0;
    std::fs::create_dir_all(&ctx.data_dir).map_err(|e| e.to_string())?;
    mb_pool::configure_global_threads(POOL_THREADS).map_err(|e| e.to_string())?;

    let mut metrics = Map::new();
    let mut detail = Map::new();
    detail.insert("workload".to_string(), Value::from(spec.name));
    detail.insert("seed".to_string(), Value::from(ctx.seed));
    detail.insert("trace".to_string(), Value::from(trace));
    let outcome = if trace {
        layers::run(spec, &ctx).map(|run| {
            for (name, value, unit) in &run.metrics {
                metrics.insert(name.to_string(), metric_value(*value, unit));
            }
            (run.attempted, run.failed)
        })
    } else {
        workloads::run(spec, &ctx).map(|run| {
            for (name, value, unit) in run.metrics() {
                metrics.insert(name.to_string(), metric_value(value, unit));
            }
            detail.insert("ops_timed".to_string(), Value::from(run.ops_timed));
            detail.insert(
                "input_fnv".to_string(),
                Value::from(format!("{:016x}", run.input_fnv)),
            );
            detail.insert(
                "report_fnv".to_string(),
                Value::from(format!("{:016x}", run.report_fnv)),
            );
            (run.attempted, run.failed)
        })
    };
    // Generated inputs go whether the run worked or not.
    let _ = std::fs::remove_dir_all(&ctx.data_dir);
    let (attempted, failed) = outcome?;

    println!("{}", Value::Object(detail));
    let mut result = Map::new();
    result.insert("correct".to_string(), Value::from(failed == 0));
    result.insert("attempted".to_string(), Value::from(attempted));
    result.insert("failed".to_string(), Value::from(failed));
    result.insert("metrics".to_string(), Value::Object(metrics));
    println!("{}", Value::Object(result));
    // Wrong outputs are reported on the result line, not by the exit code.
    Ok(true)
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first().map(String::as_str) {
        Some("ledger" | "compare" | "query-wall") => argv.remove(0),
        _ => "run".to_string(),
    };
    let args = Args(argv);
    let outcome = match command.as_str() {
        "ledger" => ledger::run(&args),
        "compare" => compare::run(&args.0),
        "query-wall" => layers::query_wall(&args),
        _ => run_one(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // `compare` found a regression, or a `ledger` run had failed operations.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
