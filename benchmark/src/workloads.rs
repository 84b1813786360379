//! The five workloads, end to end, with tracing off.
//!
//! Every loop is closed (the library is synchronous; `mb_serve` answers one
//! line per line) and runs for `--seconds`, always finishing the operation
//! in hand. Correctness is checked after the clock stops; an operation whose
//! output fails its check counts as failed.

use crate::gen::{self, Fnv, RowGen, Shape};
use crate::serve::{self, Payloads, Plan, ServeChild, RESIDENT};
use crate::stats::{median, now, quiet_median, timed, windows};
use crate::{names_planted, peak_rss_mb, Ctx};
use macrobase_core::operator::CsvIngestor;
use macrobase_core::query::{AnalysisConfig, Executor, MdpQuery, StreamingOptions};
use macrobase_core::types::{MdpReport, Point};
use macrobase_core::wire::report_to_string;
use mb_ingest::csv::CsvQuery;
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;

/// Set-up runs this many times per process; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Rows per `CsvIngestor` batch and per streaming `feed` call.
const BATCH_ROWS: usize = 10_000;
/// Streaming `report()` is taken every this many rows.
const CHECKPOINT_ROWS: usize = 100_000;
/// In-flight requests in the serving throughput phase.
const SERVE_DEPTH: usize = 4;
/// Fewest requests per serving phase, however short `--seconds` is.
const MIN_REQUESTS: usize = 20;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    CsvSimple,
    MemMcd,
    MemExplain,
    StreamHighcard,
    ServeMixed,
}

pub struct Spec {
    pub kind: Kind,
    pub name: &'static str,
    /// Rows per query (per stream for `stream_highcard`, per request for
    /// `serve_mixed`).
    pub rows: usize,
    /// Independent inputs of that size generated from the seed; operations
    /// cycle through them, so one run's median is not one table's luck.
    pub slices: usize,
    pub shape: Shape,
}

/// `rows` under `--smoke` scaling, never so few that a batch holds no
/// planted anomaly to explain.
pub fn scaled(rows: usize, ctx: &Ctx) -> usize {
    (rows / ctx.divisor).max(1_000)
}

const fn shape(metrics: usize, attrs: usize) -> Shape {
    Shape { metrics, attrs }
}

/// Names and one-line reasons live in `BENCHMARK.json`; sizes live here.
pub const SPECS: [Spec; 5] = [
    Spec {
        kind: Kind::CsvSimple,
        name: "csv_simple",
        rows: 250_000,
        slices: 4,
        shape: shape(1, 1),
    },
    Spec {
        kind: Kind::MemMcd,
        name: "mem_mcd",
        rows: 60_000,
        slices: 4,
        shape: shape(7, 6),
    },
    Spec {
        kind: Kind::MemExplain,
        name: "mem_explain",
        rows: 200_000,
        slices: 4,
        shape: shape(1, 6),
    },
    Spec {
        kind: Kind::StreamHighcard,
        name: "stream_highcard",
        rows: 100_000,
        slices: 6,
        shape: shape(1, 6),
    },
    Spec {
        kind: Kind::ServeMixed,
        name: "serve_mixed",
        rows: 5_000,
        slices: RESIDENT,
        shape: shape(3, 3),
    },
];

impl Spec {
    pub fn find(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// Rows after `--smoke` scaling.
    pub fn scaled_rows(&self, ctx: &Ctx) -> usize {
        scaled(self.rows, ctx)
    }

    pub fn analysis(&self) -> AnalysisConfig {
        AnalysisConfig {
            attribute_names: self.shape.attribute_columns(),
            ..AnalysisConfig::default()
        }
    }

    pub fn csv_query(&self) -> CsvQuery {
        CsvQuery::new(self.shape.metric_columns(), self.shape.attribute_columns())
    }
}

/// What one end-to-end run measured.
pub struct EndToEnd {
    pub setup_s: f64,
    pub rows_per_s: f64,
    /// Wall seconds of a call into the system (query / feed / request):
    /// the median of the run's quietest window.
    pub latency_p50_s: f64,
    /// Seconds from the last contributing row being handed over to the
    /// rendered report being in hand.
    pub snapshot_s: f64,
    /// Samples behind `latency_p50_s`.
    pub ops_timed: usize,
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    pub input_fnv: u64,
    pub report_fnv: u64,
}

impl EndToEnd {
    /// `(name, value, unit)` of every end-to-end metric, in ledger order.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("setup_s", self.setup_s, "s"),
            ("rows_per_s", self.rows_per_s, "1/s"),
            ("latency_p50_ms", self.latency_p50_s * 1e3, "ms"),
            ("snapshot_ms", self.snapshot_s * 1e3, "ms"),
            ("peak_rss_mb", self.peak_rss_mb, "MB"),
        ]
    }
}

/// Run `setup` [`SETUP_REPS`] times, keeping the last result; the median
/// wall time is the workload's `setup_s`.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> Result<T, String>) -> Result<(f64, T), String> {
    let mut walls = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let (wall, out) = timed(&mut setup);
        walls.push(wall);
        last = Some(out?);
    }
    Ok((median(&walls), last.expect("SETUP_REPS > 0")))
}

/// Run `op` until `seconds` have passed and it has run `min_ops` times.
fn run_for<T>(seconds: f64, min_ops: usize, mut op: impl FnMut() -> T) -> Vec<T> {
    let start = now();
    let mut out = Vec::new();
    while out.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        out.push(op());
    }
    out
}

/// `count` consecutive `rows`-row stretches of the seed's table.
fn table_slices(spec: &Spec, ctx: &Ctx, count: usize, rows: usize) -> Vec<Vec<Point>> {
    let mut gen = RowGen::new(ctx.seed);
    (0..count).map(|_| gen.points(rows, spec.shape)).collect()
}

/// The workload's inputs.
pub fn generate_slices(spec: &Spec, ctx: &Ctx) -> Vec<Vec<Point>> {
    table_slices(spec, ctx, spec.slices, spec.scaled_rows(ctx))
}

fn slices_fnv(slices: &[Vec<Point>]) -> u64 {
    let mut fnv = Fnv::new();
    for slice in slices {
        fnv.write(&gen::points_fnv(slice).to_le_bytes());
    }
    fnv.finish()
}

fn strings_fnv(strings: &[String]) -> u64 {
    let mut fnv = Fnv::new();
    for s in strings {
        fnv.write(s.as_bytes());
    }
    fnv.finish()
}

pub fn csv_path(spec: &Spec, ctx: &Ctx, slice: usize) -> PathBuf {
    ctx.data_dir.join(format!("{}.{slice}.csv", spec.name))
}

/// Write the next `rows` rows of `gen`'s wide table to the file of `slice`;
/// returns the file's checksum.
pub fn write_csv_file(
    spec: &Spec,
    ctx: &Ctx,
    slice: usize,
    gen: &mut RowGen,
    rows: usize,
) -> Result<u64, String> {
    let path = csv_path(spec, ctx, slice);
    let io = |e: std::io::Error| format!("writing {}: {e}", path.display());
    let mut out = BufWriter::new(File::create(&path).map_err(io)?);
    let fnv = gen::write_csv(gen, rows, &mut out).map_err(io)?;
    // Synced, so the kernel's write-back happens inside set-up and not
    // behind the measured queries.
    out.into_inner()
        .map_err(|e| io(e.into_error()))?
        .sync_all()
        .map_err(io)?;
    Ok(fnv)
}

/// CSV bytes on disk → report: the `csv_simple` operation.
pub fn csv_report(
    spec: &Spec,
    ctx: &Ctx,
    slice: usize,
    analysis: &AnalysisConfig,
) -> Result<MdpReport, String> {
    let mut source =
        CsvIngestor::from_path(csv_path(spec, ctx, slice), &spec.csv_query(), BATCH_ROWS)
            .map_err(|e| e.to_string())?;
    MdpQuery::new(analysis.clone())
        .execute_ingest(&Executor::OneShot, &mut source)
        .map_err(|e| e.to_string())
}

/// In-memory points → report: the `mem_*` operation.
pub fn mem_report(
    analysis: &AnalysisConfig,
    executor: &Executor,
    points: &[Point],
) -> Result<MdpReport, String> {
    MdpQuery::new(analysis.clone())
        .execute(executor, points)
        .map_err(|e| e.to_string())
}

fn rendered(report: Result<MdpReport, String>) -> Result<String, String> {
    report.map(|r| report_to_string(&r))
}

fn names_planted_str(report: &str) -> bool {
    macrobase_core::wire::report_from_str(report)
        .map(|r| names_planted(&r))
        .unwrap_or(false)
}

/// One timed query: which slice it read, its wall seconds, what it rendered.
type BatchOp = (usize, f64, Result<String, String>);

/// Cycle `op` over the slices until `--seconds` have passed and every slice
/// has been queried twice.
fn run_batch(
    spec: &Spec,
    ctx: &Ctx,
    mut op: impl FnMut(usize) -> Result<String, String>,
) -> Vec<BatchOp> {
    let mut next = 0;
    run_for(ctx.seconds, 2 * spec.slices, || {
        let slice = next % spec.slices;
        next += 1;
        let (wall, out) = timed(|| op(slice));
        (slice, wall, out)
    })
}

/// Every query of a slice must render that slice's reference bytes, and
/// those must name the planted value.
fn batch_result(
    spec: &Spec,
    ctx: &Ctx,
    setup_s: f64,
    input_fnv: u64,
    peak_rss_mb: f64,
    ops: Vec<BatchOp>,
    references: &[String],
) -> EndToEnd {
    let planted: Vec<bool> = references.iter().map(|r| names_planted_str(r)).collect();
    let failed = ops
        .iter()
        .filter(|(slice, _, out)| !planted[*slice] || out.as_ref() != Ok(&references[*slice]))
        .count() as u64;
    let walls: Vec<f64> = ops.iter().map(|(_, wall, _)| *wall).collect();
    let quiet_s = quiet_median(&walls);
    EndToEnd {
        setup_s,
        rows_per_s: spec.scaled_rows(ctx) as f64 / quiet_s,
        latency_p50_s: quiet_s,
        // A batch cannot start before its last row exists.
        snapshot_s: quiet_s,
        ops_timed: walls.len(),
        peak_rss_mb,
        attempted: ops.len() as u64,
        failed,
        input_fnv,
        report_fnv: strings_fnv(references),
    }
}

fn csv_simple(spec: &Spec, ctx: &Ctx) -> Result<EndToEnd, String> {
    let (setup_s, input_fnv) = repeat_setup(|| {
        let mut gen = RowGen::new(ctx.seed);
        let mut fnv = Fnv::new();
        for slice in 0..spec.slices {
            let file = write_csv_file(spec, ctx, slice, &mut gen, spec.scaled_rows(ctx))?;
            fnv.write(&file.to_le_bytes());
        }
        Ok(fnv.finish())
    })?;
    let analysis = spec.analysis();
    let _warm_up = csv_report(spec, ctx, 0, &analysis)?;
    let ops = run_batch(spec, ctx, |slice| {
        rendered(csv_report(spec, ctx, slice, &analysis))
    });
    // VmHWM is read before the reference run below inflates it.
    let rss = peak_rss_mb("/proc/self/status");
    // The reference: the same rows, never written to disk, through the
    // materialized `Point` path.
    let references: Vec<String> = generate_slices(spec, ctx)
        .iter()
        .map(|points| rendered(mem_report(&analysis, &Executor::OneShot, points)))
        .collect::<Result<_, _>>()?;
    Ok(batch_result(
        spec,
        ctx,
        setup_s,
        input_fnv,
        rss,
        ops,
        &references,
    ))
}

fn mem_batch(spec: &Spec, ctx: &Ctx) -> Result<EndToEnd, String> {
    let (setup_s, slices) = repeat_setup(|| Ok(generate_slices(spec, ctx)))?;
    let analysis = spec.analysis();
    let query = |slice: usize| rendered(mem_report(&analysis, &Executor::OneShot, &slices[slice]));
    // The untimed first query of each slice is the reference its timed
    // repetitions must reproduce.
    let references: Vec<String> = (0..spec.slices).map(query).collect::<Result<_, _>>()?;
    let ops = run_batch(spec, ctx, query);
    let rss = peak_rss_mb("/proc/self/status");
    let input_fnv = slices_fnv(&slices);
    Ok(batch_result(
        spec,
        ctx,
        setup_s,
        input_fnv,
        rss,
        ops,
        &references,
    ))
}

/// One stream fed to a fresh session, with a report at each checkpoint.
/// Reports are ≈450 KB each, so a pass keeps their checksums, not their text.
struct StreamPass {
    slice: usize,
    feeds_s: Vec<f64>,
    snapshots_s: Vec<f64>,
    report_fnvs: Vec<u64>,
    /// Whether every report named the planted value.
    planted: bool,
}

fn stream_pass(
    analysis: &AnalysisConfig,
    slice: usize,
    points: &[Point],
) -> Result<StreamPass, String> {
    let mut session = MdpQuery::new(analysis.clone())
        .into_streaming(&StreamingOptions::default())
        .map_err(|e| e.to_string())?;
    let mut pass = StreamPass {
        slice,
        feeds_s: Vec::new(),
        snapshots_s: Vec::new(),
        report_fnvs: Vec::new(),
        planted: true,
    };
    let checkpoint = CHECKPOINT_ROWS.min(points.len());
    let mut fed = 0;
    for chunk in points.chunks(BATCH_ROWS) {
        let (wall, outcome) = timed(|| session.feed(chunk));
        outcome.map_err(|e| e.to_string())?;
        pass.feeds_s.push(wall);
        fed += chunk.len();
        if fed % checkpoint == 0 {
            let (wall, (report, text)) = timed(|| {
                let report = session.report();
                let text = report_to_string(&report);
                (report, text)
            });
            pass.snapshots_s.push(wall);
            pass.report_fnvs.push(strings_fnv(&[text]));
            pass.planted &= names_planted(&report);
        }
    }
    Ok(pass)
}

fn stream_highcard(spec: &Spec, ctx: &Ctx) -> Result<EndToEnd, String> {
    let (setup_s, streams) = repeat_setup(|| Ok(generate_slices(spec, ctx)))?;
    let analysis = spec.analysis();
    let mut next = 0;
    // Every stream once, then round again until the time is up.
    let passes = run_for(ctx.seconds, spec.slices + 1, || {
        let slice = next % spec.slices;
        next += 1;
        stream_pass(&analysis, slice, &streams[slice])
    });
    let rss = peak_rss_mb("/proc/self/status");
    let passes: Vec<StreamPass> = passes.into_iter().collect::<Result<_, _>>()?;

    // An operation is one pass: its reports must name the planted value
    // and repeat when its stream comes round again.
    let failed = passes
        .iter()
        .filter(|pass| !pass.planted || pass.report_fnvs != passes[pass.slice].report_fnvs)
        .count() as u64;
    let mut report_fnv = Fnv::new();
    for fnv in passes[..spec.slices].iter().flat_map(|p| &p.report_fnvs) {
        report_fnv.write(&fnv.to_le_bytes());
    }
    let feeds_s: Vec<f64> = passes.iter().flat_map(|p| &p.feeds_s).copied().collect();
    let snapshots_s: Vec<f64> = passes
        .iter()
        .flat_map(|p| &p.snapshots_s)
        .copied()
        .collect();
    // Rows fed ÷ time inside `feed`, of the quietest pass.
    let quietest_feed_s = passes
        .iter()
        .map(|p| p.feeds_s.iter().sum::<f64>())
        .min_by(f64::total_cmp)
        .expect("at least one pass");
    Ok(EndToEnd {
        setup_s,
        rows_per_s: spec.scaled_rows(ctx) as f64 / quietest_feed_s,
        latency_p50_s: quiet_median(&feeds_s),
        // Every stream's table is different, so the median over streams.
        snapshot_s: median(&snapshots_s),
        ops_timed: feeds_s.len(),
        attempted: passes.len() as u64,
        peak_rss_mb: rss,
        failed,
        input_fnv: slices_fnv(&streams),
        report_fnv: report_fnv.finish(),
    })
}

/// [`RESIDENT`] consecutive `rows`-row slices of the seed's table, as
/// request payloads for `spec`'s query.
pub fn serve_payloads(spec: &Spec, ctx: &Ctx, rows: usize) -> Payloads {
    Payloads::new(spec.analysis(), table_slices(spec, ctx, RESIDENT, rows))
}

/// Spawn the server and make every resident model resident: one untimed
/// request per payload.
pub fn serve_warm(
    ctx: &Ctx,
    payloads: &Payloads,
) -> Result<(ServeChild, Vec<serve::Served>), String> {
    let mut server = ServeChild::spawn(&ctx.mb_serve)
        .map_err(|e| format!("spawning {}: {e}", ctx.mb_serve.display()))?;
    // Perturbation 0 leaves a payload as it is, yet plans the miss its
    // first sight is.
    let mut residents = (0..RESIDENT).map(|resident| serve::Planned {
        resident,
        perturb: Some(0),
    });
    let warm = serve::drive(&mut server, payloads, "w", 1, |_, _| residents.next())
        .map_err(|e| e.to_string())?;
    Ok((server, warm))
}

fn serve_mixed(spec: &Spec, ctx: &Ctx) -> Result<EndToEnd, String> {
    // `repeat_setup` drops (and so ends) the earlier server before the next
    // set-up starts: one server's memory is what VmHWM reports.
    let (setup_s, (payloads, (mut server, warm))) = repeat_setup(|| {
        let payloads = serve_payloads(spec, ctx, spec.scaled_rows(ctx));
        serve_warm(ctx, &payloads).map(|s| (payloads, s))
    })?;

    let mut plan = Plan::new(ctx.seed);
    let half = ctx.seconds / 2.0;
    let io = |e: std::io::Error| e.to_string();
    // Phase A, one request at a time: latency.
    let timeboxed = |plan: &mut Plan, sent: usize, t: f64| {
        (sent < MIN_REQUESTS || t < half).then(|| plan.next_request())
    };
    let phase_a = serve::drive(&mut server, &payloads, "a", 1, |sent, t| {
        timeboxed(&mut plan, sent, t)
    })
    .map_err(io)?;
    // Phase B, a window in flight: throughput under queueing.
    let phase_b = serve::drive(&mut server, &payloads, "b", SERVE_DEPTH, |sent, t| {
        timeboxed(&mut plan, sent, t)
    })
    .map_err(io)?;
    let rss = server.peak_rss_mb();
    if !server.shutdown().map_err(io)? {
        return Err("mb_serve exited with a failure status".to_string());
    }

    let rows = spec.scaled_rows(ctx);
    // Hits are compared byte for byte against the standalone report of their
    // resident payload; so are the warm-up requests and the first misses.
    // Later misses are checked structurally: a standalone MCD fit for each
    // would cost more than the measurement.
    let resident_reports = payloads.resident_reports()?;
    let mut full_checks_left = 16;
    let mut failed = 0;
    for served in warm.iter().chain(&phase_a).chain(&phase_b) {
        let expected = match served.planned.perturb {
            None | Some(0) => Some(resident_reports[served.planned.resident].clone()),
            Some(_) if full_checks_left > 0 => {
                full_checks_left -= 1;
                Some(payloads.standalone_report(served.planned)?)
            }
            Some(_) => None,
        };
        if !serve::check_served(served, rows, expected.as_deref()) {
            failed += 1;
        }
    }
    let latencies_s: Vec<f64> = phase_a.iter().map(|s| s.latency_s).collect();
    let quiet_s = quiet_median(&latencies_s);
    // Points served per second in the quietest window of the depth-4 phase;
    // a window runs from the previous window's last `done` to its own.
    let mut window_start_s = 0.0;
    let mut rows_per_s: f64 = 0.0;
    for window in windows(&phase_b) {
        let end_s = window.last().map_or(window_start_s, |s| s.done_s);
        rows_per_s = rows_per_s.max((window.len() * rows) as f64 / (end_s - window_start_s));
        window_start_s = end_s;
    }
    Ok(EndToEnd {
        setup_s,
        rows_per_s,
        latency_p50_s: quiet_s,
        // The request carries its rows: last row in → report out is the call.
        snapshot_s: quiet_s,
        ops_timed: latencies_s.len(),
        peak_rss_mb: rss,
        attempted: (warm.len() + phase_a.len() + phase_b.len()) as u64,
        failed,
        input_fnv: slices_fnv(&payloads.points),
        report_fnv: strings_fnv(&resident_reports),
    })
}

pub fn run(spec: &Spec, ctx: &Ctx) -> Result<EndToEnd, String> {
    match spec.kind {
        Kind::CsvSimple => csv_simple(spec, ctx),
        Kind::MemMcd | Kind::MemExplain => mem_batch(spec, ctx),
        Kind::StreamHighcard => stream_highcard(spec, ctx),
        Kind::ServeMixed => serve_mixed(spec, ctx),
    }
}
