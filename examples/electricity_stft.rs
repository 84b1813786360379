//! Time-series pipeline over household electricity data (Section 6.4,
//! second case study).
//!
//! The pipeline i) partitions the stream by device id, ii) windows it into
//! hourly intervals tagged with hour-of-day attributes, iii) applies a
//! Short-Time Fourier Transform to each window and keeps the lowest
//! coefficients as metrics, and iv) feeds the result into an unmodified MDP.
//! The synthetic household mirrors the paper's finding: a refrigerator that
//! behaves abnormally (relative to other devices and other hours) around
//! lunchtime.
//!
//! ```sh
//! cargo run --release --example electricity_stft
//! ```

use macrobase::prelude::*;
use macrobase::stats::rand_ext::{normal, SplitMix64};
use macrobase::transform::fourier::{dft_magnitudes, StftConfig};
use macrobase::transform::truncate::truncate_dimensions;
use macrobase::transform::window::TumblingWindower;

fn main() {
    let mut rng = SplitMix64::new(5);
    let devices = ["fridge", "tv", "heater", "washer", "router"];
    let days = 28u64;
    let samples_per_hour = 60u64; // one reading a minute

    // Generate a month of per-minute readings per device.
    let mut windower = TumblingWindower::new(3600);
    for day in 0..days {
        for hour in 0..24u64 {
            for minute in 0..samples_per_hour {
                let ts = day * 86_400 + hour * 3600 + minute * 60;
                for device in devices {
                    let base = match device {
                        "fridge" => 60.0 + 40.0 * ((minute % 30) as f64 / 30.0), // compressor cycle
                        "tv" => {
                            if (18..23).contains(&hour) {
                                90.0
                            } else {
                                2.0
                            }
                        }
                        "heater" => {
                            if !(8..20).contains(&hour) {
                                800.0
                            } else {
                                50.0
                            }
                        }
                        "washer" => {
                            if hour == 10 && day % 3 == 0 {
                                500.0
                            } else {
                                1.0
                            }
                        }
                        _ => 8.0,
                    };
                    // Anomaly: between 12:00 and 13:00 the fridge oscillates
                    // violently (door left open / failing compressor).
                    let anomaly = device == "fridge" && hour == 12;
                    let value = if anomaly {
                        base + 120.0 * ((minute as f64) * 1.3).sin().abs() + normal(&mut rng, 0.0, 15.0)
                    } else {
                        base + normal(&mut rng, 0.0, 3.0)
                    };
                    windower.observe(device, ts, value.max(0.0));
                }
            }
        }
    }

    // STFT each hourly window and keep the lowest 8 coefficient magnitudes.
    let stft_config = StftConfig {
        window_size: samples_per_hour as usize,
        hop: samples_per_hour as usize,
        num_coefficients: 8,
    };
    let windows = windower.drain();
    let mut metric_rows: Vec<Vec<f64>> = Vec::with_capacity(windows.len());
    let mut attribute_rows: Vec<Vec<String>> = Vec::with_capacity(windows.len());
    for w in &windows {
        if w.values.len() < stft_config.window_size {
            continue;
        }
        let coefficients =
            dft_magnitudes(&w.values[..stft_config.window_size], stft_config.num_coefficients)
                .expect("DFT failed");
        metric_rows.push(coefficients);
        attribute_rows.push(vec![w.key.clone(), format!("hour_{:02}", w.hour_of_day)]);
    }
    // Keep a fixed dimensionality (already 8, but the call also guards short rows).
    let metric_rows = truncate_dimensions(&metric_rows, 8).expect("truncate failed");

    let points: Vec<Point> = metric_rows
        .into_iter()
        .zip(attribute_rows)
        .map(|(metrics, attributes)| Point::new(metrics, attributes))
        .collect();

    let mut query = MdpQuery::builder()
        .estimator(EstimatorKind::Mcd)
        .explanation(ExplanationConfig::new(0.01, 3.0))
        .attribute_names(vec!["device".to_string(), "hour_of_day".to_string()])
        .build()
        .expect("query construction failed");

    #[expect(
        clippy::disallowed_methods,
        reason = "demo prints wall-clock throughput"
    )]
    let start = std::time::Instant::now();
    let report = query
        .execute(&Executor::OneShot, &points)
        .expect("MDP failed");
    println!("{}", render_report(&report, 10));
    println!(
        "analyzed {} device-hour windows in {:.2?}",
        report.num_points,
        start.elapsed()
    );

    let found = report.explanations.iter().any(|e| {
        e.attributes.contains(&"device=fridge".to_string())
            && e.attributes.contains(&"hour_of_day=hour_12".to_string())
    });
    println!(
        "fridge lunchtime anomaly {}",
        if found { "RECOVERED" } else { "NOT FOUND" }
    );
}
