//! Figure 10 (Appendix D): MCD train + score throughput versus metric
//! dimensionality (Gaussian data).
//!
//! The fit is pinned too: `fit_fnv` hashes the bits of the fitted location,
//! the inverse scatter and every row's score, so CI diffs the estimator bit
//! for bit at every dimension while `seconds` and `points_per_second` are
//! presence-only.

use mb_bench::{arg_usize, emit_json, fnv_words, human_count, throughput, timed};
use mb_stats::mcd::McdEstimator;
use mb_stats::rand_ext::{normal, SplitMix64};
use mb_stats::Estimator;

fn main() {
    let n = arg_usize("--points", 20_000);
    println!("Figure 10: MCD throughput vs metric dimension ({n} Gaussian points)");
    println!(
        "{:>10} {:>14} {:>14} {:>18}",
        "dimension", "train+score/s", "seconds", "fit_fnv"
    );
    for &dim in &[2usize, 4, 8, 16, 32, 64, 128] {
        let mut rng = SplitMix64::new(dim as u64);
        let data: Vec<f64> = (0..n * dim).map(|_| normal(&mut rng, 0.0, 1.0)).collect();
        let ((est, scores), seconds) = timed(|| {
            let mut est = McdEstimator::with_defaults();
            est.train_flat(&data, dim).expect("train failed");
            let scores: Vec<f64> = data
                .chunks_exact(dim)
                .map(|row| est.score(row).unwrap_or(0.0))
                .collect();
            (est, scores)
        });
        let location = est.location().expect("trained").iter();
        let inverse = est.inverse_scatter().expect("trained").as_slice().iter();
        let fit_fnv = fnv_words(location.chain(inverse).chain(&scores).map(|v| v.to_bits()));
        let tput = throughput(n, seconds);
        println!(
            "{dim:>10} {:>14} {seconds:>14.3} {fit_fnv:>18}",
            human_count(tput)
        );
        emit_json(
            "fig10",
            serde_json::json!({
                "dimension": dim,
                "points_per_second": tput,
                "seconds": seconds,
                "fit_fnv": fit_fnv,
            }),
        );
    }
    println!(
        "\nExpected shape (paper): throughput decreases roughly linearly (on a log scale) with\n\
         dimensionality, motivating dimensionality reduction ahead of MCD."
    );
}
