//! Per-stage query traces and the span API the executors record them with.

use crate::histogram::HistogramSnapshot;
use crate::registry::MetricRegistry;
use crate::ObsConfig;
use std::time::Instant;

/// One timed pipeline stage inside a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageTrace {
    /// Stage name — one of [`crate::stage`] or an engine-specific span.
    pub stage: String,
    /// Wall time spent in the stage, in nanoseconds.
    pub wall_ns: u64,
    /// Rows entering the stage.
    pub rows_in: u64,
    /// Rows leaving the stage (e.g. outliers out of `score`).
    pub rows_out: u64,
    /// Batches or partition tasks processed within the stage.
    pub batches: u64,
}

/// The telemetry record attached to a finished report when tracing is
/// enabled (`MdpReport::trace` in `macrobase-core`), and `None` otherwise.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// Executor name (`"one-shot"`, `"coordinated"`, …).
    pub executor: String,
    /// Partition fan-out used by the engine (1 for unpartitioned runs).
    pub partitions: u64,
    /// Timed stages in execution order.
    pub stages: Vec<StageTrace>,
    /// Counters in name order (pool task/steal counts, row counts…).
    pub counters: Vec<(String, u64)>,
    /// Gauges in name order (model staleness, worker count…).
    pub gauges: Vec<(String, f64)>,
    /// Latency histogram snapshots in name order (streaming tick costs…).
    pub histograms: Vec<HistogramSnapshot>,
}

impl QueryTrace {
    /// The first stage with the given name, if recorded.
    pub fn stage(&self, name: &str) -> Option<&StageTrace> {
        self.stages.iter().find(|s| s.stage == name)
    }

    /// A counter by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// A gauge by name.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// A histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Total wall nanoseconds across all recorded stages.
    pub fn total_stage_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.wall_ns).sum()
    }
}

/// A started stage clock, produced by [`TraceBuilder::start`].
///
/// Holds `None` when the builder is disabled, so taking one costs a branch
/// and no clock read.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the timer back to TraceBuilder::finish_stage"]
pub struct StageTimer(Option<Instant>);

impl StageTimer {
    /// Start a standalone timer when `enabled`, a disabled (`None`) timer
    /// otherwise. This is the sanctioned clock read for engine code that
    /// times work outside a [`TraceBuilder`] stage (e.g. per-tick costs fed
    /// straight into a [`MetricRegistry`] histogram): the `mb-lint`
    /// `no-adhoc-clock` rule confines raw `Instant::now` to the
    /// observability and benchmark layers, and this constructor keeps the
    /// disabled path clock-free just like [`TraceBuilder::start`].
    pub fn start_if(enabled: bool) -> Self {
        StageTimer(if enabled { Some(Instant::now()) } else { None })
    }

    /// Whether this timer holds a live clock (false for disabled timers).
    pub fn is_running(&self) -> bool {
        self.0.is_some()
    }

    /// Nanoseconds since the timer started (0 when disabled).
    pub fn elapsed_ns(&self) -> u64 {
        self.0
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0)
    }
}

/// Accumulates a [`QueryTrace`] during query execution.
///
/// A builder constructed from a disabled [`ObsConfig`] is inert: timers are
/// `None`, stage finishes are dropped, and [`TraceBuilder::finish`] returns
/// `None`, so the untraced hot path pays only untaken branches.
#[derive(Debug)]
pub struct TraceBuilder {
    enabled: bool,
    executor: String,
    partitions: u64,
    stages: Vec<StageTrace>,
    registry: MetricRegistry,
}

impl TraceBuilder {
    /// A builder for the named executor, active when `config` enables
    /// telemetry.
    pub fn new(config: ObsConfig, executor: &str) -> Self {
        TraceBuilder {
            enabled: config.is_enabled(),
            executor: if config.is_enabled() {
                executor.to_string()
            } else {
                String::new()
            },
            partitions: 1,
            stages: Vec::new(),
            registry: MetricRegistry::new(),
        }
    }

    /// An inert builder (used by untraced entry points).
    pub fn disabled() -> Self {
        TraceBuilder::new(ObsConfig::disabled(), "")
    }

    /// Whether this builder records anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record the engine's partition fan-out.
    pub fn set_partitions(&mut self, partitions: usize) {
        if self.enabled {
            self.partitions = partitions as u64;
        }
    }

    /// Start a stage clock (no-op when disabled).
    pub fn start(&self) -> StageTimer {
        StageTimer(if self.enabled {
            Some(Instant::now())
        } else {
            None
        })
    }

    /// Close a stage: record its wall time and row/batch movement.
    pub fn finish_stage(
        &mut self,
        timer: StageTimer,
        stage: &str,
        rows_in: usize,
        rows_out: usize,
        batches: usize,
    ) {
        if !self.enabled {
            return;
        }
        self.stages.push(StageTrace {
            stage: stage.to_string(),
            wall_ns: timer.elapsed_ns(),
            rows_in: rows_in as u64,
            rows_out: rows_out as u64,
            batches: batches as u64,
        });
    }

    /// The builder's registry, for engine-level counters, gauges and
    /// histograms. Callers on hot paths should guard with
    /// [`TraceBuilder::is_enabled`]; writes to a disabled builder are kept
    /// but never surface.
    pub fn registry(&mut self) -> &mut MetricRegistry {
        &mut self.registry
    }

    /// Finish: `Some(QueryTrace)` when enabled, `None` otherwise.
    pub fn finish(self) -> Option<QueryTrace> {
        if !self.enabled {
            return None;
        }
        Some(QueryTrace {
            executor: self.executor,
            partitions: self.partitions,
            stages: self.stages,
            counters: self.registry.counter_entries(),
            gauges: self.registry.gauge_entries(),
            histograms: self.registry.histogram_snapshots(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_builder_produces_none() {
        let mut tb = TraceBuilder::disabled();
        let t = tb.start();
        assert_eq!(t.elapsed_ns(), 0);
        tb.finish_stage(t, "train", 10, 10, 1);
        tb.set_partitions(8);
        tb.registry().add("tasks", 5);
        assert!(!tb.is_enabled());
        assert!(tb.finish().is_none());
    }

    #[test]
    fn enabled_builder_records_stages_in_order() {
        let mut tb = TraceBuilder::new(ObsConfig::enabled(), "one-shot");
        tb.set_partitions(4);
        let t = tb.start();
        tb.finish_stage(t, "train", 100, 100, 1);
        let t = tb.start();
        tb.finish_stage(t, "score", 100, 7, 1);
        tb.registry().add("pool_tasks", 4);
        tb.registry().set_gauge("workers", 4.0);
        tb.registry().record_ns("chunk_ns", 50);
        tb.registry().record_ns("chunk_ns", 250);

        let trace = tb.finish().expect("enabled builder yields a trace");
        assert_eq!(trace.executor, "one-shot");
        assert_eq!(trace.partitions, 4);
        assert_eq!(
            trace.stages.iter().map(|s| s.stage.as_str()).collect::<Vec<_>>(),
            vec!["train", "score"]
        );
        assert_eq!(trace.stage("score").unwrap().rows_out, 7);
        assert!(trace.stage("explain").is_none());
        assert_eq!(trace.counter("pool_tasks"), 4);
        assert_eq!(trace.counter("missing"), 0);
        assert_eq!(trace.gauge("workers"), Some(4.0));
        assert!(trace.histogram("none").is_none());
        let h = trace.histogram("chunk_ns").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, 300);
        assert!(trace.total_stage_ns() == trace.stages.iter().map(|s| s.wall_ns).sum::<u64>());
    }
}
