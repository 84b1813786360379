//! DBSherlock-style OLTP anomaly workload generator (Table 4).
//!
//! The paper evaluates MDP's ability to identify an abnormally behaving
//! server within an 11-server OLTP cluster, using the performance-counter
//! traces and labels collected by the DBSherlock study (Yoon et al., SIGMOD
//! 2016) over TPC-C and TPC-E. Those traces are not redistributable, so this
//! module synthesizes clusters with the same structure: every server emits
//! rows of correlated OS/DBMS performance counters, and exactly one server's
//! counters are perturbed according to one of the nine anomaly types. The
//! experiment logic is unchanged — can MDP's classifier + explanation recover
//! the anomalous `hostname` attribute?

use crate::Record;
use mb_stats::rand_ext::{normal, SplitMix64};

/// The nine anomaly types of Table 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AnomalyType {
    /// A1: workload spike (transaction rate surge).
    WorkloadSpike,
    /// A2: I/O stress from a co-located process.
    IoStress,
    /// A3: a database backup running.
    DbBackup,
    /// A4: a table restore running.
    TableRestore,
    /// A5: CPU stress from a co-located process.
    CpuStress,
    /// A6: flushing logs/tables.
    FlushLogTable,
    /// A7: network congestion.
    NetworkCongestion,
    /// A8: lock contention.
    LockContention,
    /// A9: a poorly written query.
    PoorlyWrittenQuery,
}

impl AnomalyType {
    /// All nine anomaly types in Table 4 order (A1–A9).
    pub fn all() -> [AnomalyType; 9] {
        [
            AnomalyType::WorkloadSpike,
            AnomalyType::IoStress,
            AnomalyType::DbBackup,
            AnomalyType::TableRestore,
            AnomalyType::CpuStress,
            AnomalyType::FlushLogTable,
            AnomalyType::NetworkCongestion,
            AnomalyType::LockContention,
            AnomalyType::PoorlyWrittenQuery,
        ]
    }

    /// Table 4 label (A1–A9).
    pub fn label(&self) -> &'static str {
        match self {
            AnomalyType::WorkloadSpike => "A1",
            AnomalyType::IoStress => "A2",
            AnomalyType::DbBackup => "A3",
            AnomalyType::TableRestore => "A4",
            AnomalyType::CpuStress => "A5",
            AnomalyType::FlushLogTable => "A6",
            AnomalyType::NetworkCongestion => "A7",
            AnomalyType::LockContention => "A8",
            AnomalyType::PoorlyWrittenQuery => "A9",
        }
    }

    /// The counter indices this anomaly perturbs most strongly, together with
    /// the shift (in multiples of the counter's baseline standard deviation).
    /// These play the role of the per-anomaly metric sets used by the paper's
    /// QE queries; the "poorly written query" anomaly (A9) deliberately
    /// perturbs counters outside the common QS set, mirroring the paper's
    /// observation that its correlated metrics are "substantially different".
    pub(crate) fn affected_counters(&self) -> Vec<(usize, f64)> {
        match self {
            AnomalyType::WorkloadSpike => vec![(0, 6.0), (1, 5.0), (2, 4.0), (10, 3.0)],
            AnomalyType::IoStress => vec![(3, 6.0), (4, 6.0), (11, 3.0)],
            AnomalyType::DbBackup => vec![(3, 4.0), (5, 5.0), (12, 3.0)],
            AnomalyType::TableRestore => vec![(4, 5.0), (5, 4.0), (13, 3.0)],
            AnomalyType::CpuStress => vec![(6, 7.0), (7, 5.0), (14, 3.0)],
            AnomalyType::FlushLogTable => vec![(5, 3.0), (8, 4.0), (11, 2.0)],
            AnomalyType::NetworkCongestion => vec![(9, 6.0), (10, 5.0)],
            AnomalyType::LockContention => vec![(8, 6.0), (2, 3.0), (13, 4.0)],
            AnomalyType::PoorlyWrittenQuery => vec![(150, 5.0), (151, 4.0), (152, 3.0)],
        }
    }
}

/// The OLTP workload flavour (affects baseline counter levels only).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OltpWorkload {
    /// TPC-C-like.
    TpcC,
    /// TPC-E-like.
    TpcE,
}

/// Configuration for one generated cluster experiment.
#[derive(Debug, Clone, Copy)]
pub struct DbsherlockConfig {
    /// Number of servers in the cluster (paper: 11).
    pub num_servers: usize,
    /// Number of rows (observation intervals) per server.
    pub rows_per_server: usize,
    /// Total number of performance counters per row (paper: 200+).
    pub num_counters: usize,
    /// Which workload's baselines to use.
    pub workload: OltpWorkload,
    /// RNG seed.
    pub seed: u64,
}

impl Default for DbsherlockConfig {
    fn default() -> Self {
        DbsherlockConfig {
            num_servers: 11,
            rows_per_server: 200,
            num_counters: 200,
            workload: OltpWorkload::TpcC,
            seed: 0xD5,
        }
    }
}

/// A generated cluster experiment.
#[derive(Debug, Clone)]
pub struct ClusterExperiment {
    /// The injected anomaly type.
    pub anomaly: AnomalyType,
    /// Hostname of the (single) anomalous server — the ground truth MDP must
    /// recover.
    pub anomalous_host: String,
    /// Rows: `num_counters` metrics, one `hostname` attribute.
    pub records: Vec<Record>,
}

/// The counter indices used by the paper's single "QS" query (a fixed set of
/// 15 metrics chosen by feature selection); it covers the counters perturbed
/// by A1–A8 but not those of A9, reproducing Table 4's QS failure on A9.
pub fn qs_metric_indices() -> Vec<usize> {
    vec![0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14]
}

/// The per-anomaly metric sets used by the "QE" queries.
pub fn qe_metric_indices(anomaly: AnomalyType) -> Vec<usize> {
    anomaly
        .affected_counters()
        .into_iter()
        .map(|(idx, _)| idx)
        .collect()
}

/// Generate one cluster experiment with the given anomaly injected on one
/// server.
pub fn generate_cluster(anomaly: AnomalyType, config: &DbsherlockConfig) -> ClusterExperiment {
    assert!(config.num_servers >= 2, "need at least two servers");
    assert!(config.num_counters > 160, "need the full counter set");
    let mut rng = SplitMix64::new(
        config
            .seed
            .wrapping_add(anomaly.label().as_bytes()[1] as u64),
    );
    // Per-counter baselines: TPC-E-like runs slightly hotter on CPU counters,
    // colder on I/O, which only shifts levels, not the experiment's logic.
    let workload_offset = match config.workload {
        OltpWorkload::TpcC => 0.0,
        OltpWorkload::TpcE => 5.0,
    };
    let baselines: Vec<f64> = (0..config.num_counters)
        .map(|i| 20.0 + (i % 17) as f64 * 3.0 + workload_offset)
        .collect();
    let sigmas: Vec<f64> = (0..config.num_counters)
        .map(|i| 1.0 + (i % 5) as f64 * 0.5)
        .collect();

    let anomalous_server = rng.next_below(config.num_servers);
    let anomalous_host = format!("host_{anomalous_server}");
    let affected = anomaly.affected_counters();

    let mut records = Vec::with_capacity(config.num_servers * config.rows_per_server);
    for server in 0..config.num_servers {
        let hostname = format!("host_{server}");
        for _ in 0..config.rows_per_server {
            // A cluster-wide load factor makes counters correlated across
            // servers (as real clusters are), so naive per-counter
            // thresholding is not enough.
            let load = normal(&mut rng, 0.0, 1.0);
            let mut metrics = Vec::with_capacity(config.num_counters);
            for c in 0..config.num_counters {
                let mut value = baselines[c] + 0.5 * sigmas[c] * load
                    + normal(&mut rng, 0.0, sigmas[c]);
                if server == anomalous_server {
                    if let Some(&(_, shift)) = affected.iter().find(|(idx, _)| *idx == c) {
                        value += shift * sigmas[c];
                    }
                }
                metrics.push(value);
            }
            records.push(Record::new(metrics, vec![hostname.clone()]));
        }
    }
    ClusterExperiment {
        anomaly,
        anomalous_host,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_anomalies_have_unique_labels() {
        use std::collections::BTreeSet;
        let labels: BTreeSet<&str> = AnomalyType::all().iter().map(|a| a.label()).collect();
        assert_eq!(labels.len(), 9);
    }

    #[test]
    fn qs_metrics_cover_a1_to_a8_but_not_a9() {
        let qs: std::collections::BTreeSet<usize> = qs_metric_indices().into_iter().collect();
        for anomaly in AnomalyType::all() {
            let covered = anomaly
                .affected_counters()
                .iter()
                .any(|(idx, _)| qs.contains(idx));
            if anomaly == AnomalyType::PoorlyWrittenQuery {
                assert!(!covered, "A9 should not be covered by QS metrics");
            } else {
                assert!(covered, "{} should be covered by QS metrics", anomaly.label());
            }
        }
    }

    #[test]
    fn cluster_has_expected_shape() {
        let config = DbsherlockConfig {
            rows_per_server: 50,
            ..DbsherlockConfig::default()
        };
        let experiment = generate_cluster(AnomalyType::CpuStress, &config);
        assert_eq!(experiment.records.len(), 11 * 50);
        assert_eq!(experiment.records[0].metrics.len(), 200);
        assert_eq!(experiment.records[0].attributes.len(), 1);
        assert!(experiment.anomalous_host.starts_with("host_"));
        // Exactly 11 distinct hostnames.
        let hosts: std::collections::BTreeSet<&String> = experiment
            .records
            .iter()
            .map(|r| &r.attributes[0])
            .collect();
        assert_eq!(hosts.len(), 11);
    }

    #[test]
    fn anomalous_server_counters_are_shifted() {
        let config = DbsherlockConfig {
            rows_per_server: 100,
            ..DbsherlockConfig::default()
        };
        let experiment = generate_cluster(AnomalyType::IoStress, &config);
        let affected = AnomalyType::IoStress.affected_counters();
        let (counter, _) = affected[0];
        let mean_for = |host: &str| {
            let values: Vec<f64> = experiment
                .records
                .iter()
                .filter(|r| r.attributes[0] == host)
                .map(|r| r.metrics[counter])
                .collect();
            values.iter().sum::<f64>() / values.len() as f64
        };
        let anomalous_mean = mean_for(&experiment.anomalous_host);
        // Every healthy host's mean on the affected counter is clearly lower.
        for server in 0..11 {
            let host = format!("host_{server}");
            if host != experiment.anomalous_host {
                assert!(
                    anomalous_mean > mean_for(&host) + 3.0,
                    "anomalous shift not visible vs {host}"
                );
            }
        }
    }

    #[test]
    fn qe_metrics_point_at_affected_counters() {
        for anomaly in AnomalyType::all() {
            let qe = qe_metric_indices(anomaly);
            assert!(!qe.is_empty());
            let affected: Vec<usize> = anomaly
                .affected_counters()
                .into_iter()
                .map(|(i, _)| i)
                .collect();
            assert_eq!(qe, affected);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = DbsherlockConfig {
            rows_per_server: 20,
            ..DbsherlockConfig::default()
        };
        let a = generate_cluster(AnomalyType::DbBackup, &config);
        let b = generate_cluster(AnomalyType::DbBackup, &config);
        assert_eq!(a.anomalous_host, b.anomalous_host);
        assert_eq!(a.records, b.records);
    }
}
