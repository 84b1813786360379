//! Datacenter monitoring: find the misbehaving server in an OLTP cluster
//! (the Table 4 / DBSherlock scenario, run as a streaming query).
//!
//! An 11-server cluster emits 200 correlated performance counters per
//! observation interval; one server suffers I/O stress. The example runs the
//! query twice, the way the paper does:
//!
//! * **QS** — a single generic query over a fixed set of 15 counters chosen
//!   by feature selection, and
//! * **QE** — a per-anomaly query over the counters known to be affected by
//!   I/O stress.
//!
//! Both should rank the stressed host's `hostname` attribute first.
//!
//! ```sh
//! cargo run --release --example datacenter_monitoring
//! ```

use macrobase::ingest::dbsherlock::{
    generate_cluster, qe_metric_indices, qs_metric_indices, AnomalyType, DbsherlockConfig,
};
use macrobase::prelude::*;

fn run_query(
    name: &str,
    records: &[macrobase::ingest::Record],
    metric_indices: &[usize],
    truth: &str,
) {
    let points: Vec<Point> = records
        .iter()
        .map(|r| {
            Point::new(
                metric_indices.iter().map(|&i| r.metrics[i]).collect(),
                r.attributes.clone(),
            )
        })
        .collect();
    let mut query = MdpQuery::builder()
        .estimator(EstimatorKind::Mcd)
        .explanation(ExplanationConfig::new(0.02, 3.0))
        .attribute_names(vec!["hostname".to_string()])
        .training_sample_size(1_000)
        .build()
        .expect("query construction failed");
    #[expect(
        clippy::disallowed_methods,
        reason = "demo prints wall-clock throughput"
    )]
    let start = std::time::Instant::now();
    let report = query
        .execute(&Executor::OneShot, &points)
        .expect("query failed");
    let top = report
        .top_attributes(1)
        .first()
        .map(|attributes| attributes.join(", "))
        .unwrap_or_default();
    println!(
        "{name}: top explanation [{top}] (truth: hostname={truth}) in {:.2?} — {}",
        start.elapsed(),
        if top.contains(truth) { "CORRECT" } else { "incorrect" }
    );
}

fn main() {
    let config = DbsherlockConfig {
        rows_per_server: 400,
        ..DbsherlockConfig::default()
    };
    let anomaly = AnomalyType::IoStress;
    let experiment = generate_cluster(anomaly, &config);
    println!(
        "cluster of {} servers × {} intervals × {} counters; injected anomaly {} on {}\n",
        config.num_servers,
        config.rows_per_server,
        config.num_counters,
        anomaly.label(),
        experiment.anomalous_host
    );

    run_query(
        "QS (generic 15-counter query)",
        &experiment.records,
        &qs_metric_indices(),
        &experiment.anomalous_host,
    );
    run_query(
        "QE (I/O-stress-specific query)",
        &experiment.records,
        &qe_metric_indices(anomaly),
        &experiment.anomalous_host,
    );
}
