//! Cross-crate integration tests: full MDP pipelines over synthetic
//! workloads, exercising ingestion, classification, and explanation together.

use macrobase::ingest::synthetic::{device_workload, DeviceWorkloadConfig};
use macrobase::scenario::eval;
use macrobase::prelude::*;

fn workload_points(config: &DeviceWorkloadConfig) -> (Vec<Point>, Vec<String>) {
    let workload = device_workload(config);
    let points = workload
        .records
        .iter()
        .map(|r| Point::new(r.record.metrics.clone(), r.record.attributes.clone()))
        .collect();
    (points, workload.outlying_devices)
}

/// Extract the device ids named by a report's explanations.
fn reported_devices(report: &MdpReport) -> Vec<String> {
    eval::reported_values(&report.explanations)
}

#[test]
fn one_shot_mdp_perfectly_recovers_devices_without_noise() {
    // Section 6.1: "In the noiseless regions of Figure 4, MDP correctly
    // identified 100% of the outlying devices."
    let (points, truth) = workload_points(&DeviceWorkloadConfig {
        num_points: 60_000,
        num_devices: 640,
        outlying_device_fraction: 0.01,
        ..DeviceWorkloadConfig::default()
    });
    let mut query = MdpQuery::builder()
        .explanation(ExplanationConfig::new(0.001, 3.0))
        .attribute_names(vec!["device_id".to_string()])
        .build()
        .unwrap();
    let report = query.execute(&Executor::OneShot, &points).unwrap();
    let f1 = eval::value_f1(&reported_devices(&report), &truth);
    assert!(f1 > 0.95, "F1 was {f1}");
}

#[test]
fn one_shot_mdp_is_resilient_to_moderate_label_noise() {
    // Figure 4: explanation accuracy holds up to ~20-25% label noise, because
    // the risk ratio (threshold 3) prunes inlying devices whose readings were
    // only occasionally mislabeled. Label noise inflates the fraction of
    // anomalous readings, so — as in the paper's setup, where essentially all
    // outlier-distribution readings are classified as outliers — the target
    // percentile is set to match the anomalous mass.
    let label_noise = 0.15;
    let outlying_fraction = 0.01;
    let (points, truth) = workload_points(&DeviceWorkloadConfig {
        num_points: 60_000,
        num_devices: 640,
        outlying_device_fraction: outlying_fraction,
        label_noise,
        ..DeviceWorkloadConfig::default()
    });
    let anomalous_mass =
        label_noise * (1.0 - outlying_fraction) + (1.0 - label_noise) * outlying_fraction;
    let mut query = MdpQuery::builder()
        .target_percentile(1.0 - anomalous_mass)
        .explanation(ExplanationConfig::new(0.001, 3.0))
        .attribute_names(vec!["device_id".to_string()])
        .build()
        .unwrap();
    let report = query.execute(&Executor::OneShot, &points).unwrap();
    let f1 = eval::value_f1(&reported_devices(&report), &truth);
    assert!(f1 > 0.8, "F1 under 15% label noise was {f1}");
}

#[test]
fn streaming_and_one_shot_agree_on_stable_streams() {
    // Table 2 observes that for datasets with few distinct attribute values
    // the one-shot and streaming explanations are highly similar; check the
    // analogous property on the device workload.
    let (points, truth) = workload_points(&DeviceWorkloadConfig {
        num_points: 60_000,
        num_devices: 200,
        outlying_device_fraction: 0.02,
        ..DeviceWorkloadConfig::default()
    });

    let build = || {
        MdpQuery::builder()
            .explanation(ExplanationConfig::new(0.01, 3.0))
            .attribute_names(vec!["device_id".to_string()])
            .build()
            .unwrap()
    };
    let one_shot_report = build().execute(&Executor::OneShot, &points).unwrap();

    // The same query, handed to the streaming backend.
    let streaming_report = build()
        .execute(
            &Executor::Streaming {
                options: StreamingOptions {
                    reservoir_size: 5_000,
                    decay_rate: 0.01,
                    decay_period: 20_000,
                    retrain_period: 10_000,
                    ..StreamingOptions::default()
                },
            },
            &points,
        )
        .unwrap();

    let one_shot_devices: std::collections::HashSet<String> =
        reported_devices(&one_shot_report).into_iter().collect();
    let streaming_devices: std::collections::HashSet<String> =
        reported_devices(&streaming_report).into_iter().collect();
    // Every ground-truth device is found by both modes.
    for device in &truth {
        assert!(one_shot_devices.contains(device), "one-shot missed {device}");
        assert!(
            streaming_devices.contains(device),
            "streaming missed {device}"
        );
    }
}

#[test]
fn partitioned_execution_preserves_recall_but_not_precision() {
    // Figure 11: shared-nothing partitioning keeps recall (the planted
    // devices are found) while overall explanation quality may degrade.
    let (points, truth) = workload_points(&DeviceWorkloadConfig {
        num_points: 40_000,
        num_devices: 200,
        outlying_device_fraction: 0.02,
        ..DeviceWorkloadConfig::default()
    });
    let config = AnalysisConfig {
        explanation: ExplanationConfig::new(0.01, 3.0),
        attribute_names: vec!["device_id".to_string()],
        ..AnalysisConfig::default()
    };
    let single = MdpQuery::new(config.clone())
        .execute(&Executor::NaivePartitioned { partitions: 1 }, &points)
        .unwrap();
    let partitioned = MdpQuery::new(config)
        .execute(&Executor::NaivePartitioned { partitions: 8 }, &points)
        .unwrap();

    let devices_of = |explanations: &[RenderedExplanation]| -> std::collections::HashSet<String> {
        eval::reported_values(explanations).into_iter().collect()
    };
    let single_devices = devices_of(&single.explanations);
    let partitioned_devices = devices_of(&partitioned.explanations);
    for device in &truth {
        assert!(single_devices.contains(device));
        assert!(
            partitioned_devices.contains(device),
            "partitioned run missed {device}"
        );
    }
    // The union of per-partition explanations is at least as large (extra,
    // lower-quality explanations are the accuracy cost Figure 11 reports).
    assert!(partitioned.explanations.len() >= single.explanations.len());
    // The unified report preserves per-partition detail.
    assert_eq!(partitioned.partition_reports.as_ref().unwrap().len(), 8);
}

#[test]
fn csv_ingestion_feeds_the_pipeline() {
    // End-to-end: CSV text -> records -> points -> MDP report.
    let mut csv = String::from("power,device\n");
    for i in 0..5_000 {
        let (power, device) = if i % 100 == 0 {
            (95.0 + (i % 7) as f64, "B264")
        } else {
            (10.0 + (i % 13) as f64 * 0.3, ["B1", "B2", "B3", "B4"][i % 4])
        };
        csv.push_str(&format!("{power},{device}\n"));
    }
    let csv_query = macrobase::ingest::csv::CsvQuery::new(
        vec!["power".to_string()],
        vec!["device".to_string()],
    );
    // The CSV streams straight into the query through the Ingestor trait —
    // no pre-materialized point vector.
    let mut source = CsvIngestor::new(std::io::Cursor::new(csv), &csv_query, 512).unwrap();
    let report = MdpQuery::builder()
        .explanation(ExplanationConfig::new(0.01, 3.0))
        .attribute_names(vec!["device".to_string()])
        .build()
        .unwrap()
        .execute_ingest(&Executor::OneShot, &mut source)
        .unwrap();
    assert_eq!(source.skipped_rows(), 0);
    assert_eq!(report.num_points, 5_000);
    assert!(report
        .explanations
        .iter()
        .any(|e| e.attributes.contains(&"device=B264".to_string())));
}

#[test]
fn multi_block_csv_file_reports_the_bytes_of_the_in_memory_query() {
    // ~2.6 MB on disk, so `from_path` reads it in three blocks, each cut
    // into a chunk per pool thread; new device ids keep arriving, so later
    // chunks mint dictionary entries too.
    let rows = 60_000;
    let mut csv = String::from("power,site,padding,device\n");
    let mut points = Vec::with_capacity(rows);
    for i in 0..rows {
        let (power, device) = if i % 100 == 0 {
            (95.0 + (i % 7) as f64, "B264".to_string())
        } else {
            (10.0 + (i % 13) as f64 * 0.3, format!("B{}", i % 4 + i / 5_000 * 10))
        };
        let site = format!("site {}", i % 3);
        csv.push_str(&format!("{power},\"{site}\",{:0>24},{device}\n", i));
        points.push(Point::new(vec![power], vec![device, site]));
    }
    assert!(csv.len() > 2 * macrobase::ingest::csv::BLOCK_BYTES);
    let path = std::env::temp_dir().join(format!("macrobase_multi_block_{}.csv", std::process::id()));
    std::fs::write(&path, &csv).unwrap();

    let csv_query = macrobase::ingest::csv::CsvQuery::new(
        vec!["power".to_string()],
        vec!["device".to_string(), "site".to_string()],
    );
    let query = || {
        MdpQuery::builder()
            .explanation(ExplanationConfig::new(0.01, 3.0))
            .attribute_names(vec!["device".to_string(), "site".to_string()])
            .build()
            .unwrap()
    };
    let mut source = CsvIngestor::from_path(&path, &csv_query, 512).unwrap();
    let from_file = query().execute_ingest(&Executor::OneShot, &mut source);
    std::fs::remove_file(&path).unwrap();
    let from_file = from_file.unwrap();
    let in_memory = query().execute(&Executor::OneShot, &points).unwrap();

    assert_eq!(source.skipped_rows(), 0);
    assert_eq!(from_file.num_points, rows);
    assert!(reported_devices(&from_file).contains(&"B264".to_string()));
    assert_eq!(
        macrobase::core::wire::report_to_string(&from_file),
        macrobase::core::wire::report_to_string(&in_memory)
    );
}
