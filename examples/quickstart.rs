//! Quickstart: run MacroBase's default pipeline (MDP) over a synthetic
//! telematics-style stream and print the ranked explanations.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The workload mirrors the paper's running example: power-drain readings
//! tagged with a device type and an application version. Devices of type
//! `B264` running application version `2.26.3` experience abnormally high
//! power drain; MacroBase should surface exactly that combination.

use macrobase::prelude::*;
use macrobase::stats::rand_ext::{normal, SplitMix64};

fn main() {
    let mut rng = SplitMix64::new(7);
    let device_types = ["B101", "B150", "B264", "B302", "B404"];
    let app_versions = ["2.25.0", "2.26.3", "2.27.1"];

    // 200K readings; the (B264, 2.26.3) combination drains far more power.
    let mut points = Vec::with_capacity(200_000);
    for _ in 0..200_000 {
        let device = device_types[rng.next_below(device_types.len())];
        let version = app_versions[rng.next_below(app_versions.len())];
        let affected = device == "B264" && version == "2.26.3";
        // ~1.5% of affected readings actually exhibit the problem.
        let power = if affected && rng.next_f64() < 0.20 {
            normal(&mut rng, 95.0, 5.0)
        } else {
            normal(&mut rng, 12.0, 3.0)
        };
        points.push(Point::new(
            vec![power],
            vec![device.to_string(), version.to_string()],
        ));
    }

    let mut query = MdpQuery::builder()
        .explanation(ExplanationConfig::new(0.01, 3.0))
        .attribute_names(vec!["device_type".to_string(), "app_version".to_string()])
        .build()
        .expect("query construction failed");

    #[expect(
        clippy::disallowed_methods,
        reason = "demo prints wall-clock throughput"
    )]
    let start = std::time::Instant::now();
    let report = query
        .execute(&Executor::OneShot, &points)
        .expect("MDP query failed");
    let elapsed = start.elapsed();

    println!("{}", render_report(&report, 10));
    println!(
        "processed {} points in {:.2?} ({:.0} points/s)",
        report.num_points,
        elapsed,
        report.num_points as f64 / elapsed.as_secs_f64()
    );

    let found = report.explanations.iter().any(|e| {
        e.attributes.contains(&"device_type=B264".to_string())
            && e.attributes.contains(&"app_version=2.26.3".to_string())
    });
    println!(
        "planted combination (B264 × 2.26.3) {}",
        if found { "RECOVERED" } else { "NOT FOUND" }
    );
}
