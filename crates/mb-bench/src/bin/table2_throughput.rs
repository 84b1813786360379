//! Table 2: end-to-end throughput, number of explanations, and one-shot vs
//! streaming (EWS) explanation similarity across the six dataset queries
//! (simple `XS` and complex `XC` variants of each).

use macrobase_core::query::{Executor, MdpQuery, MdpQueryBuilder, StreamingOptions};
use macrobase_core::types::Point;
use mb_bench::{
    arg_usize, configure_threads_from_args, emit_json, human_count, records_to_points, throughput,
    timed,
};
use mb_explain::risk_ratio::jaccard_similarity;
use mb_explain::{Explanation, ExplanationConfig};
use mb_ingest::datasets::{generate_dataset, simple_query_view, DatasetId, DatasetScale};

fn to_explanations(report: &macrobase_core::types::MdpReport) -> Vec<Explanation> {
    report
        .explanations
        .iter()
        .map(|e| Explanation::new(e.items.clone(), e.stats.clone()))
        .collect()
}

struct QueryResult {
    oneshot_no_explain: f64,
    oneshot_with_explain: f64,
    ews_no_explain: f64,
    ews_with_explain: f64,
    oneshot_explanations: usize,
    ews_explanations: usize,
    jaccard: f64,
}

fn run_query(points: &[Point], explanation: ExplanationConfig) -> QueryResult {
    let query = |skip: bool| -> MdpQueryBuilder {
        let builder = MdpQuery::builder().explanation(explanation);
        if skip {
            builder.skip_explanation()
        } else {
            builder
        }
    };

    // One-shot, without and with explanation.
    let mut no_explain = query(true).build().expect("query construction failed");
    let (_, oneshot_no_explain_s) = timed(|| {
        no_explain
            .execute(&Executor::OneShot, points)
            .expect("one-shot failed")
    });
    let mut with_explain = query(false).build().expect("query construction failed");
    let (oneshot_report, oneshot_with_explain_s) = timed(|| {
        with_explain
            .execute(&Executor::OneShot, points)
            .expect("one-shot failed")
    });

    // Streaming (EWS), without and with explanation: the stream fed in one
    // call to a streaming session of the same query.
    let streaming_options = StreamingOptions {
        reservoir_size: 10_000,
        decay_rate: 0.01,
        decay_period: 100_000,
        retrain_period: 10_000,
        ..StreamingOptions::default()
    };
    let mut ews_skip = query(true)
        .build()
        .expect("query construction failed")
        .into_streaming(&streaming_options)
        .expect("streaming session failed");
    let (_, ews_no_explain_s) = timed(|| ews_skip.feed(points).expect("feed failed"));
    let mut ews = query(false)
        .build()
        .expect("query construction failed")
        .into_streaming(&streaming_options)
        .expect("streaming session failed");
    let (ews_report, ews_with_explain_s) = timed(|| {
        ews.feed(points).expect("feed failed");
        ews.report()
    });

    QueryResult {
        oneshot_no_explain: throughput(points.len(), oneshot_no_explain_s),
        oneshot_with_explain: throughput(points.len(), oneshot_with_explain_s),
        ews_no_explain: throughput(points.len(), ews_no_explain_s),
        ews_with_explain: throughput(points.len(), ews_with_explain_s),
        oneshot_explanations: oneshot_report.explanations.len(),
        ews_explanations: ews_report.explanations.len(),
        jaccard: jaccard_similarity(
            &to_explanations(&oneshot_report),
            &to_explanations(&ews_report),
        ),
    }
}

fn main() {
    let threads = configure_threads_from_args();
    let divisor = arg_usize("--scale-divisor", 200);
    let explanation = ExplanationConfig::new(0.001, 3.0);
    println!(
        "Table 2: throughput and explanations per query (dataset rows scaled by 1/{divisor}, {threads}-thread pool)"
    );
    println!(
        "{:>6} {:>9} | {:>11} {:>11} | {:>11} {:>11} | {:>7} {:>7} {:>8}",
        "query",
        "points",
        "1shot w/o",
        "EWS w/o",
        "1shot w/",
        "EWS w/",
        "#1shot",
        "#EWS",
        "Jaccard"
    );
    for id in DatasetId::all() {
        let dataset = generate_dataset(id, DatasetScale { divisor }, 5);
        let simple_points = records_to_points(&simple_query_view(&dataset));
        let complex_points = records_to_points(&dataset.records);
        for (suffix, points) in [("S", &simple_points), ("C", &complex_points)] {
            let name = format!("{}{}", id.query_prefix(), suffix);
            let result = run_query(points, explanation);
            println!(
                "{:>6} {:>9} | {:>11} {:>11} | {:>11} {:>11} | {:>7} {:>7} {:>8.2}",
                name,
                human_count(points.len() as f64),
                human_count(result.oneshot_no_explain),
                human_count(result.ews_no_explain),
                human_count(result.oneshot_with_explain),
                human_count(result.ews_with_explain),
                result.oneshot_explanations,
                result.ews_explanations,
                result.jaccard
            );
            emit_json(
                "table2",
                serde_json::json!({
                    "query": name,
                    "points": points.len(),
                    "oneshot_no_explain_pts_per_s": result.oneshot_no_explain,
                    "ews_no_explain_pts_per_s": result.ews_no_explain,
                    "oneshot_with_explain_pts_per_s": result.oneshot_with_explain,
                    "ews_with_explain_pts_per_s": result.ews_with_explain,
                    "oneshot_explanations": result.oneshot_explanations,
                    "ews_explanations": result.ews_explanations,
                    "jaccard": result.jaccard,
                }),
            );
        }
    }
    println!(
        "\nExpected shape (paper): several hundred thousand to a few million points/s per query;\n\
         simple queries are faster than complex ones; explanation adds roughly ~20% overhead;\n\
         streaming (EWS) typically returns fewer explanations than one-shot on high-cardinality\n\
         complex queries (low Jaccard) and nearly identical ones on low-cardinality queries."
    );
}
