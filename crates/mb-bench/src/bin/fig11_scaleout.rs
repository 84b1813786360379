//! Figure 11 (Appendix D): scale-out — naïve shared-nothing partitioning
//! versus coordinated (one model, one global threshold) partitioning.
//!
//! For each partition count the harness runs both modes and reports wall
//! clock, normalized throughput, explanation F1 against the planted devices,
//! and the Jaccard similarity of the explanation set against the one-shot
//! reference. The paper's naïve mode scales linearly but its accuracy
//! degrades with partitions (per-partition models and thresholds, rendered
//! string union); the coordinated mode keeps one trained model, one global
//! threshold and global support counts, which on one box is the one-shot
//! engine, so it reproduces the one-shot explanation set (Jaccard 1.0) at
//! every partition count.
//!
//! Note: the paper's testbed had 48 cores; this harness runs wherever it is
//! invoked, so on a small machine wall-clock "speedup" flattens while the
//! accuracy half of the figure reproduces fully.

use macrobase_core::query::{AnalysisConfig, Executor, MdpQuery};
use mb_bench::{
    arg_usize, configure_threads_from_args, emit_json, records_to_points, throughput, timed,
};
use mb_explain::ExplanationConfig;
use mb_ingest::synthetic::{device_workload, DeviceWorkloadConfig};
use mb_scenario::eval::{combination_set, jaccard, reported_values, value_f1};

/// Scatter `work` over `chunks` with one scoped thread per chunk — the
/// executor strategy the partitioned modes used before `mb-pool` existed,
/// kept as the baseline the resident pool is measured against.
#[expect(clippy::disallowed_methods, reason = "baseline measures spawn cost")]
fn spawn_scatter<I, O, F>(chunks: Vec<I>, work: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = chunks
            .into_iter()
            .map(|chunk| scope.spawn(move || work(chunk)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("partition thread panicked"))
            .collect()
    })
}

/// Measure per-call scatter cost (µs) of both executor strategies on a
/// cheap chunk workload, where submission overhead — not compute —
/// dominates. Reports rows for `JSON:` diffing and returns nothing.
fn report_scatter_overhead(partitions: usize) {
    println!("\nscatter overhead: per-call spawn vs resident pool ({partitions} partitions)");
    println!(
        "{:>13} {:>12} {:>12} {:>9}",
        "batch points", "spawn µs", "pool µs", "speedup"
    );
    for &batch in &[1_000usize, 10_000, 100_000] {
        let data: Vec<f64> = (0..batch).map(|i| (i % 97) as f64).collect();
        let chunk_size = batch.div_ceil(partitions).max(1);
        let chunks = || -> Vec<&[f64]> { data.chunks(chunk_size).collect() };
        let work = |chunk: &[f64]| -> f64 { chunk.iter().map(|x| x * x).sum() };
        let iterations = (2_000_000 / batch).clamp(20, 2_000);

        // Warm both paths, then time `iterations` scatters of each.
        let _ = spawn_scatter(chunks(), work);
        let _ = mb_pool::map_vec(chunks(), work);
        let (_, spawn_seconds) = timed(|| {
            for _ in 0..iterations {
                std::hint::black_box(spawn_scatter(chunks(), work));
            }
        });
        let (_, pool_seconds) = timed(|| {
            for _ in 0..iterations {
                std::hint::black_box(mb_pool::map_vec(chunks(), work));
            }
        });
        let spawn_us = spawn_seconds * 1e6 / iterations as f64;
        let pool_us = pool_seconds * 1e6 / iterations as f64;
        let speedup = spawn_us / pool_us.max(1e-9);
        println!("{batch:>13} {spawn_us:>12.1} {pool_us:>12.1} {speedup:>8.1}x");
        emit_json(
            "fig11",
            serde_json::json!({
                "section": "scatter_overhead",
                "batch_points": batch,
                "partitions": partitions,
                "spawn_scatter_us": spawn_us,
                "pool_scatter_us": pool_us,
                "pool_speedup": speedup,
            }),
        );
    }
}

fn main() {
    let threads = configure_threads_from_args();
    let num_points = arg_usize("--points", 200_000);
    let workload = device_workload(&DeviceWorkloadConfig {
        num_points,
        num_devices: 1_000,
        outlying_device_fraction: 0.01,
        ..DeviceWorkloadConfig::default()
    });
    let records: Vec<mb_ingest::Record> =
        workload.records.iter().map(|r| r.record.clone()).collect();
    let points = records_to_points(&records);
    let config = AnalysisConfig {
        explanation: ExplanationConfig::new(0.001, 3.0),
        attribute_names: vec!["device_id".to_string()],
        ..AnalysisConfig::default()
    };

    // One-shot reference: the semantics both modes are measured against.
    let (reference, reference_seconds) = timed(|| {
        MdpQuery::new(config.clone())
            .execute(&Executor::OneShot, &points)
            .expect("one-shot failed")
    });
    let reference_set = combination_set(&reference.explanations);

    println!(
        "Figure 11: scale-out, naive vs coordinated ({num_points} points, {} cores available, {threads}-thread pool)",
        std::thread::available_parallelism()
            .map(|c| c.get())
            .unwrap_or(1)
    );
    println!(
        "one-shot reference: {:.3}s, {} explanations",
        reference_seconds,
        reference.explanations.len()
    );
    println!(
        "{:>12} {:>13} {:>10} {:>13} {:>9} {:>8}",
        "partitions", "mode", "seconds", "norm. thrpt", "Jaccard", "F1"
    );
    let mut baseline_seconds = None;
    for &partitions in &[1usize, 2, 4, 8, 16, 32, 48] {
        let (naive, naive_seconds) = timed(|| {
            MdpQuery::new(config.clone())
                .execute(&Executor::NaivePartitioned { partitions }, &points)
                .expect("naive run failed")
        });
        let (coordinated, coordinated_seconds) = timed(|| {
            MdpQuery::new(config.clone())
                .execute(&Executor::Coordinated { partitions }, &points)
                .expect("coordinated run failed")
        });
        let baseline = *baseline_seconds.get_or_insert(naive_seconds);
        for (mode, explanations, seconds) in [
            ("naive", &naive.explanations, naive_seconds),
            ("coordinated", &coordinated.explanations, coordinated_seconds),
        ] {
            let normalized = baseline / seconds;
            let similarity = jaccard(&combination_set(explanations), &reference_set);
            let f1 = value_f1(&reported_values(explanations), &workload.outlying_devices);
            println!(
                "{partitions:>12} {mode:>13} {seconds:>10.3} {normalized:>13.2} {similarity:>9.3} {f1:>8.3}"
            );
            emit_json(
                "fig11",
                serde_json::json!({
                    "partitions": partitions,
                    "mode": mode,
                    "seconds": seconds,
                    "normalized_throughput": normalized,
                    "points_per_s": throughput(num_points, seconds),
                    "jaccard": similarity,
                    "f1": f1,
                }),
            );
        }
    }
    // Fixed partition count: the section measures submission overhead per
    // scatter call, and a constant chunk count keeps the JSON rows (and the
    // blessed baselines) invariant under `--threads` and machine size.
    report_scatter_overhead(8);

    println!(
        "\nExpected shape (paper + ROADMAP): both modes scale with cores (flat on a\n\
         single-core host). The naive mode's Jaccard vs one-shot degrades as partitions\n\
         shrink (per-partition models, thresholds, and support pruning); the coordinated\n\
         mode shares one model and one threshold and explains the whole labelled batch,\n\
         holding Jaccard at 1.0 with throughput within a constant factor of naive. The\n\
         resident pool's per-call scatter cost should sit well below the scoped-spawn\n\
         baseline, most visibly on the smallest batches where submission overhead\n\
         dominates."
    );
}
