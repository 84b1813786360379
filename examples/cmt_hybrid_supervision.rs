//! Hybrid supervision (Section 6.4, first case study).
//!
//! CMT attaches an externally computed trip-quality score to every trip.
//! The unsupervised MCD classifier watches the usual trip metrics (length,
//! battery drain), while a lightweight supervised rule flags trips whose
//! quality score is very low *regardless* of how those scores are distributed
//! in the population. The pipeline ORs the two classifiers and feeds the
//! union into the standard risk-ratio explainer.
//!
//! ```sh
//! cargo run --release --example cmt_hybrid_supervision
//! ```

use macrobase::classify::rule::{Comparison, RuleClassifier};
use macrobase::prelude::*;
use macrobase::stats::rand_ext::{normal, SplitMix64};

fn main() {
    let mut rng = SplitMix64::new(21);
    let phone_models = ["mA", "mB", "mC", "mD", "mE", "mF"];
    let os_versions = ["ios_14", "ios_15", "android_11", "android_12"];

    // Metrics: [trip_length_min, battery_drain_pct, quality_score]
    // Attributes: [phone_model, os_version]
    let mut points = Vec::with_capacity(120_000);
    for _ in 0..120_000 {
        let model = phone_models[rng.next_below(phone_models.len())];
        let os = os_versions[rng.next_below(os_versions.len())];

        let mut trip_length = normal(&mut rng, 25.0, 8.0).max(1.0);
        let mut battery = normal(&mut rng, 4.0, 1.5).max(0.1);
        let mut quality = (normal(&mut rng, 0.85, 0.08)).clamp(0.0, 1.0);

        // Statistical anomaly: model mE on ios_15 drains far more battery.
        if model == "mE" && os == "ios_15" && rng.next_f64() < 0.3 {
            battery = normal(&mut rng, 25.0, 3.0);
            trip_length = normal(&mut rng, 26.0, 8.0).max(1.0);
        }
        // Rule-only anomaly: android_11 on model mB silently produces garbage
        // trips with terrible quality scores but unremarkable metrics.
        if model == "mB" && os == "android_11" && rng.next_f64() < 0.05 {
            quality = normal(&mut rng, 0.05, 0.03).clamp(0.0, 1.0);
        }

        points.push(Point::new(
            vec![trip_length, battery, quality],
            vec![model.to_string(), os.to_string()],
        ));
    }

    // Hybrid query: unsupervised MCD over all metrics OR a rule flagging
    // quality scores below 0.3 (metric index 2).
    let mut query = MdpQuery::builder()
        .supervised_rule(RuleClassifier::single(2, Comparison::LessThan, 0.3))
        .estimator(EstimatorKind::Mcd)
        .explanation(ExplanationConfig::new(0.01, 3.0))
        .attribute_names(vec!["phone_model".to_string(), "os_version".to_string()])
        .training_sample_size(20_000)
        .build()
        .expect("query construction failed");

    #[expect(
        clippy::disallowed_methods,
        reason = "demo prints wall-clock throughput"
    )]
    let start = std::time::Instant::now();
    let report = query
        .execute(&Executor::OneShot, &points)
        .expect("query run failed");
    let elapsed = start.elapsed();

    println!("{}", render_report(&report, 12));
    println!(
        "hybrid query labeled {} of {} trips as outliers in {:.2?}",
        report.num_outliers, report.num_points, elapsed
    );

    for needle in ["phone_model=mE", "phone_model=mB"] {
        let found = report
            .explanations
            .iter()
            .any(|e| e.attributes.iter().any(|a| a == needle));
        println!(
            "{needle} {}",
            if found {
                "RECOVERED (one via statistics, one via the supervised rule)"
            } else {
                "NOT FOUND"
            }
        );
    }
}
