//! The per-layer metrics of a traced run. Every workload reports the full
//! list; a layer a workload does not exercise reads 0.

use std::time::Duration;

use crate::report::{ratio, secs, Metric};
use crate::timed::SimLayers;

/// Everything a traced run measured, by layer.
#[derive(Debug, Default)]
pub struct LayerReport {
    pub sim: SimLayers,
    pub runner_tasks: u64,
    pub runner_failures: u64,
    pub runner_retries: u64,
    pub checkpoint_store: Duration,
    pub checkpoint_load: Duration,
    pub checkpoint_bytes: u64,
    /// Untraced wall time of each `spec_1core` cell, by metric name.
    pub cell_s: Vec<(String, f64)>,
    pub encode: Duration,
    pub decode: Duration,
    pub trace_records: u64,
    pub compressed_pct_of_raw: f64,
    pub train_epoch: Duration,
    pub evaluate: Duration,
    pub infer: Duration,
    pub belady: Duration,
    pub train_decisions: u64,
    pub eval_decisions: u64,
    pub optimal_rate: f64,
    pub eval_demand_hit_rate: f64,
    pub mean_loss: f64,
    /// Traced wall time over untraced wall time of the same work, minus 1,
    /// in percent.
    pub overhead_pct: f64,
}

impl LayerReport {
    /// Sum of the layers' self times, which never overlap.
    pub fn self_time_sum(&self) -> Duration {
        let s = &self.sim;
        s.workloads
            + s.hierarchy
            + s.policy
            + s.timing
            + self.checkpoint_store
            + self.checkpoint_load
            + self.encode
            + self.decode
            + self.train_epoch
            + self.evaluate
            + self.belady
    }

    /// The per-layer metrics in a fixed order.
    pub fn metrics(&self) -> Vec<Metric> {
        let s = &self.sim;
        let kind = |stats: &cache_sim::CacheStats, k: cache_sim::AccessKind| {
            stats.by_kind[k.index()].accesses as f64
        };
        use cache_sim::AccessKind::{Prefetch, Writeback};
        let mut m = vec![
            Metric::new("workloads.entries", s.entries as f64, "count"),
            Metric::new("workloads.self_s", secs(s.workloads), "s"),
            Metric::new("hierarchy.self_s", secs(s.hierarchy), "s"),
            Metric::new("hierarchy.l1i.accesses", s.l1i.accesses() as f64, "count"),
            Metric::new("hierarchy.l1d.accesses", s.l1d.accesses() as f64, "count"),
            Metric::new(
                "hierarchy.l1d.hit_rate",
                ratio(s.l1d.hits(), s.l1d.accesses()),
                "ratio",
            ),
            Metric::new("hierarchy.l2.accesses", s.l2.accesses() as f64, "count"),
            Metric::new(
                "hierarchy.l2.hit_rate",
                ratio(s.l2.hits(), s.l2.accesses()),
                "ratio",
            ),
            Metric::new(
                "hierarchy.l2.prefetch_accesses",
                kind(&s.l2, Prefetch),
                "count",
            ),
            Metric::new("llc.accesses", s.llc.accesses() as f64, "count"),
            Metric::new(
                "llc.demand_hit_rate",
                ratio(s.llc.demand_hits(), s.llc.demand_accesses()),
                "ratio",
            ),
            Metric::new("llc.prefetch_accesses", kind(&s.llc, Prefetch), "count"),
            Metric::new("llc.writeback_accesses", kind(&s.llc, Writeback), "count"),
            Metric::new("llc.evictions", s.llc.evictions as f64, "count"),
            Metric::new("llc.bypasses", s.llc.bypasses as f64, "count"),
            Metric::new(
                "policy.victim_selections",
                s.victim_selections as f64,
                "count",
            ),
            Metric::new("policy.self_s", secs(s.policy), "s"),
            Metric::new("timing.self_s", secs(s.timing), "s"),
            Metric::new(
                "timing.outstanding_mean",
                ratio(s.outstanding_sum, s.outstanding_samples),
                "misses",
            ),
            Metric::new(
                "timing.background_traffic",
                s.background_traffic as f64,
                "count",
            ),
            Metric::new("dram.reads", s.memory_reads as f64, "count"),
            Metric::new("dram.writes", s.memory_writes as f64, "count"),
            Metric::new(
                "dram.row_hit_rate",
                ratio(s.dram_row_hits, s.dram_row_hits + s.dram_row_misses),
                "ratio",
            ),
            Metric::new("runner.tasks", self.runner_tasks as f64, "count"),
            Metric::new("runner.failures", self.runner_failures as f64, "count"),
            Metric::new("runner.retries", self.runner_retries as f64, "count"),
            Metric::new("checkpoint.store_s", secs(self.checkpoint_store), "s"),
            Metric::new("checkpoint.load_s", secs(self.checkpoint_load), "s"),
            Metric::new("checkpoint.bytes", self.checkpoint_bytes as f64, "bytes"),
        ];
        for name in crate::spec::cell_metric_names() {
            let v = self
                .cell_s
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            m.push(Metric::new(name, v, "s"));
        }
        m.extend([
            Metric::new("trace_io.encode_s", secs(self.encode), "s"),
            Metric::new("trace_io.decode_s", secs(self.decode), "s"),
            Metric::new("trace_io.records", self.trace_records as f64, "count"),
            Metric::new(
                "trace_io.compressed_pct_of_raw",
                self.compressed_pct_of_raw,
                "%",
            ),
            Metric::new("rl.train_epoch_s", secs(self.train_epoch), "s"),
            Metric::new("rl.evaluate_s", secs(self.evaluate), "s"),
            Metric::new("rl.infer_s", secs(self.infer), "s"),
            Metric::new("rl.belady_s", secs(self.belady), "s"),
            Metric::new("rl.train_decisions", self.train_decisions as f64, "count"),
            Metric::new("rl.eval_decisions", self.eval_decisions as f64, "count"),
            Metric::new("rl.optimal_rate", self.optimal_rate, "ratio"),
            Metric::new(
                "rl.eval_demand_hit_rate",
                self.eval_demand_hit_rate,
                "ratio",
            ),
            Metric::new("rl.mean_loss", self.mean_loss, "loss"),
            Metric::new("trace.overhead_pct", self.overhead_pct, "%"),
        ]);
        m
    }
}
