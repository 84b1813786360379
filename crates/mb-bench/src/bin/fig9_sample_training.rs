//! Figure 9 (Appendix D): training time and classification accuracy when the
//! robust estimators are trained on samples of the input.
//!
//! Mirrors the paper's CMT-style queries: MS (univariate, MAD) and MC
//! (multivariate, MCD). Accuracy is agreement with the labels produced by a
//! model trained on the full dataset.

use mb_bench::{arg_usize, emit_json, fnv_words, timed};
use mb_classify::batch::{BatchClassifier, BatchClassifierConfig};
use mb_stats::mad::MadEstimator;
use mb_stats::mcd::McdEstimator;
use mb_stats::rand_ext::{normal, SplitMix64};
use mb_stats::Estimator;

/// Labels for the row-major `metrics` (`dim` values per row) from a model
/// trained on a sample of at most `sample_size` rows, and the wall time of
/// training and scoring.
fn labels_for<E: Estimator + Clone>(
    estimator: &E,
    metrics: &[f64],
    dim: usize,
    sample_size: Option<usize>,
) -> (Vec<bool>, f64) {
    let mut classifier = BatchClassifier::new(
        estimator.clone(),
        BatchClassifierConfig {
            target_percentile: 0.99,
            training_sample_size: sample_size,
        },
    );
    let (result, seconds) = timed(|| {
        classifier
            .classify_batch_flat(metrics, dim)
            .expect("classify failed")
    });
    (
        result.iter().map(|c| c.label.is_outlier()).collect(),
        seconds,
    )
}

/// FNV-1a over the labels (one word per row, 1 for outlier): pins which
/// rows a sample-trained model flags, not only how many agree.
fn labels_fnv(labels: &[bool]) -> String {
    fnv_words(labels.iter().map(|&outlier| u64::from(outlier)))
}

fn agreement(a: &[bool], b: &[bool]) -> f64 {
    let same = a.iter().zip(b.iter()).filter(|(x, y)| x == y).count();
    same as f64 / a.len() as f64
}

fn main() {
    let n = arg_usize("--points", 200_000);
    let mut rng = SplitMix64::new(3);
    // Every 100th row is drawn around 70 instead of 10.
    let mean = |i: usize| if i % 100 == 0 { 70.0 } else { 10.0 };
    let univariate: Vec<f64> = (0..n).map(|i| normal(&mut rng, mean(i), 10.0)).collect();
    let multivariate: Vec<f64> = (0..n)
        .flat_map(|i| {
            (0..5)
                .map(|_| normal(&mut rng, mean(i), 10.0))
                .collect::<Vec<_>>()
        })
        .collect();

    let (mad_full, _) = labels_for(&MadEstimator::new(), &univariate, 1, None);
    let (mcd_full, _) = labels_for(&McdEstimator::with_defaults(), &multivariate, 5, None);

    println!("Figure 9: accuracy and training+scoring time vs sample size ({n} points)");
    println!(
        "{:>12} {:>12} {:>12} {:>12} {:>12}",
        "sample", "MS acc", "MS time(s)", "MC acc", "MC time(s)"
    );
    for &sample in &[100usize, 1_000, 10_000, 100_000] {
        let (mad_labels, mad_time) = labels_for(&MadEstimator::new(), &univariate, 1, Some(sample));
        let (mcd_labels, mcd_time) = labels_for(
            &McdEstimator::with_defaults(),
            &multivariate,
            5,
            Some(sample),
        );
        let mad_acc = agreement(&mad_labels, &mad_full);
        let mcd_acc = agreement(&mcd_labels, &mcd_full);
        println!(
            "{sample:>12} {mad_acc:>12.4} {mad_time:>12.3} {mcd_acc:>12.4} {mcd_time:>12.3}"
        );
        emit_json(
            "fig9",
            serde_json::json!({
                "sample_size": sample,
                "ms_accuracy": mad_acc,
                "ms_seconds": mad_time,
                "ms_labels_fnv": labels_fnv(&mad_labels),
                "mc_accuracy": mcd_acc,
                "mc_seconds": mcd_time,
                "mc_labels_fnv": labels_fnv(&mcd_labels),
            }),
        );
    }
    println!(
        "\nExpected shape (paper): MAD accuracy is essentially unaffected by sampling (≥99%\n\
         agreement even at small samples) while MCD is slightly more sensitive; training on\n\
         samples buys one to two orders of magnitude in training time."
    );
}
