//! Figure 3: discriminative power of Z-score, MAD, and MCD under increasing
//! outlier contamination.
//!
//! For each contamination level the three estimators are trained on the full
//! (contaminated) sample and the mean score assigned to the true outlier
//! cluster is reported — robust estimators keep scoring the cluster highly
//! while the Z-score collapses.

use mb_bench::{arg_usize, emit_json};
use mb_ingest::synthetic::contamination_dataset;
use mb_stats::mad::MadEstimator;
use mb_stats::mcd::McdEstimator;
use mb_stats::zscore::ZScoreEstimator;
use mb_stats::Estimator;

fn mean_outlier_score<E: Estimator>(
    mut estimator: E,
    points: &[Vec<f64>],
    labels: &[bool],
    univariate: bool,
) -> f64 {
    // The first metric alone for the univariate estimators, row-major.
    let dim = if univariate {
        1
    } else {
        points.first().map_or(0, Vec::len)
    };
    let sample: Vec<f64> = points.iter().flat_map(|p| &p[..dim]).copied().collect();
    if estimator.train_flat(&sample, dim).is_err() {
        return f64::NAN;
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for (p, &is_outlier) in sample.chunks_exact(dim).zip(labels.iter()) {
        if is_outlier {
            if let Ok(score) = estimator.score(p) {
                total += score;
                count += 1;
            }
        }
    }
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

fn main() {
    let n = arg_usize("--points", 100_000);
    println!("Figure 3: mean outlier score vs contamination (n = {n})");
    println!("{:>14} {:>12} {:>12} {:>12}", "contamination", "MCD", "MAD", "Z-score");
    for step in 0..=10 {
        let contamination = step as f64 * 0.05;
        let (points, labels) = contamination_dataset(n, contamination, 42 + step as u64);
        if !labels.iter().any(|&o| o) {
            // No outliers drawn at 0 contamination: scores are undefined; report 0.
            println!("{contamination:>14.2} {:>12} {:>12} {:>12}", "-", "-", "-");
            emit_json(
                "fig3",
                serde_json::json!({"contamination": contamination, "mcd": 0.0, "mad": 0.0, "zscore": 0.0}),
            );
            continue;
        }
        let mcd = mean_outlier_score(McdEstimator::with_defaults(), &points, &labels, false);
        let mad = mean_outlier_score(MadEstimator::new(), &points, &labels, true);
        let z = mean_outlier_score(ZScoreEstimator::new(), &points, &labels, true);
        println!("{contamination:>14.2} {mcd:>12.2} {mad:>12.2} {z:>12.2}");
        emit_json(
            "fig3",
            serde_json::json!({
                "contamination": contamination,
                "mcd": mcd,
                "mad": mad,
                "zscore": z,
            }),
        );
    }
    println!(
        "\nExpected shape (paper): MAD and MCD stay high (robust up to 50% contamination),\n\
         the Z-score collapses under even modest contamination."
    );
}
