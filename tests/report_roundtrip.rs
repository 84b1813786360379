//! `MdpReport` survives a trip over the JSON wire, end to end.
//!
//! A report produced by a real query — scores retained, outlier rows
//! retained, per-partition detail populated, risk ratios that are routinely
//! infinite — must decode back to an equal report. This is the contract
//! that lets reports cross process boundaries (dashboards, the scale-out
//! story of Appendix D) without a private re-implementation of the format
//! at every consumer.

use macrobase::core::wire;
use macrobase::prelude::*;
use macrobase::scenario::{eval, LevelShiftScenario, Scenario};

fn report(executor: &Executor) -> MdpReport {
    report_with_obs(executor, ObsConfig::disabled())
}

fn report_with_obs(executor: &Executor, obs: ObsConfig) -> MdpReport {
    let scenario = LevelShiftScenario {
        num_points: 2_000,
        ..LevelShiftScenario::default()
    };
    let generated = scenario.generate();
    let mut analysis = scenario.analysis();
    analysis.retain_scores = !matches!(executor, Executor::Streaming { .. });
    analysis.obs = obs;
    MdpQuery::new(analysis)
        .execute(executor, &generated.points)
        .unwrap()
}

#[test]
fn one_shot_report_round_trips() {
    let original = report(&Executor::OneShot);
    assert!(!original.scores.is_empty());
    assert!(!original.outlier_rows.is_empty());
    // The guilty device never appears among inliers here, so the top
    // explanation's risk ratio is infinite — the wire format must carry it.
    assert!(original.explanations.iter().any(|e| e.stats.risk_ratio.is_infinite()));

    let encoded = wire::report_to_string(&original);
    let decoded = wire::report_from_str(&encoded).unwrap();
    assert_eq!(decoded, original);

    // A second encode of the decoded report is byte-identical (the format
    // is canonical: insertion-ordered keys, shortest-roundtrip floats).
    assert_eq!(wire::report_to_string(&decoded), encoded);
}

#[test]
fn naive_partitioned_report_round_trips_with_partition_detail() {
    let original = report(&Executor::NaivePartitioned { partitions: 3 });
    let partitions = original.partition_reports.as_ref().unwrap();
    assert_eq!(partitions.len(), 3);
    assert!(partitions.iter().all(|p| !p.outlier_rows.is_empty()));

    let decoded = wire::report_from_str(&wire::report_to_string(&original)).unwrap();
    assert_eq!(decoded, original);
    // The decoded report is still usable for evaluation, not just display.
    assert_eq!(
        eval::point_metrics(&decoded.outlier_rows, &original.outlier_rows).f1(),
        1.0
    );
}

#[test]
fn streaming_report_round_trips() {
    let original = report(&Executor::streaming());
    let decoded = wire::report_from_str(&wire::report_to_string(&original)).unwrap();
    assert_eq!(decoded, original);
}

#[test]
fn untraced_reports_encode_a_null_trace() {
    let original = report(&Executor::OneShot);
    assert!(original.trace.is_none());
    let encoded = wire::report_to_string(&original);
    assert!(encoded.contains("\"trace\":null"));
    let decoded = wire::report_from_str(&encoded).unwrap();
    assert!(decoded.trace.is_none());
}

#[test]
fn traced_one_shot_report_round_trips_canonically() {
    let original = report_with_obs(&Executor::OneShot, ObsConfig::enabled());
    let trace = original.trace.as_ref().expect("trace populated");
    assert!(!trace.stages.is_empty());
    assert!(!trace.counters.is_empty());

    let encoded = wire::report_to_string(&original);
    let decoded = wire::report_from_str(&encoded).unwrap();
    assert_eq!(decoded, original);
    // Canonical: re-encoding the decoded report is byte-identical.
    assert_eq!(wire::report_to_string(&decoded), encoded);
}

#[test]
fn traced_naive_report_round_trips_nested_partition_traces() {
    let original =
        report_with_obs(&Executor::NaivePartitioned { partitions: 3 }, ObsConfig::enabled());
    assert!(original.trace.is_some());
    let partitions = original.partition_reports.as_ref().unwrap();
    assert!(
        partitions.iter().all(|p| p.trace.is_some()),
        "every partition report carries its own trace"
    );

    let decoded = wire::report_from_str(&wire::report_to_string(&original)).unwrap();
    assert_eq!(decoded, original);
    let decoded_partitions = decoded.partition_reports.unwrap();
    assert!(decoded_partitions.iter().all(|p| p.trace.is_some()));
}

#[test]
fn traced_streaming_report_round_trips_histogram_buckets() {
    let original = report_with_obs(&Executor::streaming(), ObsConfig::enabled());
    let trace = original.trace.as_ref().unwrap();
    let retrains = trace
        .histogram("retrain_ns")
        .expect("streaming records retrain latencies");
    assert!(retrains.count >= 1);
    assert!(!retrains.buckets.is_empty());

    let decoded = wire::report_from_str(&wire::report_to_string(&original)).unwrap();
    assert_eq!(decoded, original);
    assert_eq!(
        decoded.trace.unwrap().histogram("retrain_ns").unwrap().buckets,
        retrains.buckets
    );
}

#[test]
fn a_trace_prints_in_the_layout_its_report_embeds() {
    let mut original = report_with_obs(&Executor::OneShot, ObsConfig::enabled());
    let trace = original.trace.as_mut().unwrap();
    trace.gauges.push(("up".to_string(), f64::INFINITY));
    trace.gauges.push(("down".to_string(), f64::NEG_INFINITY));
    let printed = wire::trace_to_json(trace).to_string();
    assert!(printed.contains(r#"["up","Infinity"]"#), "{printed}");
    assert!(printed.contains(r#"["down","-Infinity"]"#), "{printed}");
    // The printed trace is the one inside the encoded report, and it
    // decodes back to the same trace.
    let encoded = wire::report_to_string(&original);
    assert!(encoded.contains(&printed));
    assert_eq!(wire::report_from_str(&encoded).unwrap(), original);
}
