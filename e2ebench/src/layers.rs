//! Per-layer figures of a traced run.
//!
//! Every workload fills one [`LayerAgg`] from its spans and the layers'
//! own counters, and every workload prints the same metric set. A
//! figure of a layer the workload does not reach reads 0: `pm_txn` has
//! no transport or cluster, `faulty_read` no flush or cluster, and
//! `replicated_kv` no transport or flush.

use std::time::Instant;

use pmck_core::{CoreStats, LayerId, LayerStats};

use crate::report::{ratio, Report};
use crate::stats::Samples;
use crate::timed::{since, Kind, Layer, Span, SpanExport};

/// What the traced run measured, layer by layer.
#[derive(Debug, Default)]
pub struct LayerAgg {
    /// Wall time of the traced measured phase.
    pub wall_ns: u64,
    /// The traced end-to-end time, summed along each request's
    /// blocking path: the client thread's wall time when it issues one
    /// request at a time, the sum of request latencies when it keeps
    /// several in flight.
    pub e2e_ns: u64,
    /// The part of `e2e_ns` spent in the layers, not in the
    /// benchmark's own code.
    pub attributed_ns: u64,
    /// Pipelined client only: time it spent inside service calls.
    pub client_inside_ns: u64,
    /// Core spans, summed.
    pub core_ns: u64,
    /// Core instances that run in parallel (shards), at least 1.
    pub core_units: u64,

    pub write_sum: Samples,
    pub chip_deltas: u64,
    pub flush: Samples,
    pub flush_lines: u64,
    pub log_bytes: u64,
    pub user_bytes: u64,
    pub recovers: u64,
    pub lines_redone: u64,

    pub read_clean: Samples,
    pub read_rs: Samples,
    pub read_vlew: Samples,
    /// Engine counters over the measured phase.
    pub engine: CoreStats,

    pub boot_stripes: u64,
    pub boot_ns: u64,
    pub boot_bits: u64,
    pub boot_scrubs: u64,

    pub queue_wait: Samples,
    pub shard_exec: Samples,
    pub ret: Samples,
    pub shard_occupied_ns: u64,
    pub backpressure: u64,
    pub service_ops: u64,

    pub cluster_self_read: Samples,
    pub cluster_self_write: Samples,
    pub node_calls_read: u64,
    pub node_calls_write: u64,
    pub read_repairs: u64,
    pub rebuild_ns: u64,
    pub rebuilt_blocks: u64,

    /// `1 - traced ops/s / plain ops/s`.
    pub overhead_frac: f64,
}

impl LayerAgg {
    pub fn new(core_units: u64) -> Self {
        LayerAgg {
            core_units: core_units.max(1),
            ..LayerAgg::default()
        }
    }

    /// Folds one core span into the per-kind timings.
    pub fn core_span(&mut self, span: &Span) {
        let ns = span.ns();
        self.core_ns += ns;
        match span.kind {
            Kind::ReadClean => self.read_clean.push(ns),
            Kind::ReadRs => self.read_rs.push(ns),
            Kind::ReadVlew => self.read_vlew.push(ns),
            Kind::WriteSum => self.write_sum.push(ns),
            Kind::Flush => self.flush.push(ns),
            _ => {}
        }
    }

    /// Adds the timing table to `report`.
    pub fn describe(&mut self, report: &mut Report) {
        report.timing("core.write_sum", &mut self.write_sum);
        report.timing("core.flush", &mut self.flush);
        report.timing("core.read_clean", &mut self.read_clean);
        report.timing("core.read_rs", &mut self.read_rs);
        report.timing("core.read_vlew", &mut self.read_vlew);
        report.timing("service.queue_wait", &mut self.queue_wait);
        report.timing("service.shard_exec", &mut self.shard_exec);
        report.timing("service.return", &mut self.ret);
        report.timing("cluster.self_read", &mut self.cluster_self_read);
        report.timing("cluster.self_write", &mut self.cluster_self_write);
        let attributed = ratio(self.attributed_ns as f64, self.e2e_ns as f64);
        report.line(format!(
            "attribution: layer self-times cover {:.1}% of the traced end-to-end time ({})",
            attributed * 100.0,
            if attributed >= 0.9 {
                "within 10%"
            } else {
                "NOT within 10%"
            }
        ));
        if self.client_inside_ns > 0 {
            report.line(format!(
                "client thread: {:.1}% of the wall time inside service calls",
                ratio(self.client_inside_ns as f64, self.wall_ns as f64) * 100.0
            ));
        }
    }

    /// The per-layer metric set.
    pub fn metrics(&mut self, report: &mut Report) {
        let us = |ns: u64| ns as f64 / 1e3;
        let writes = self.write_sum.len() as f64;
        let flushes = self.flush.len() as f64;
        let e = self.engine;
        let m = report;
        m.metric("core.write_sum_us", "us", self.write_sum.p50_us());
        m.metric(
            "core.chip_deltas_per_write",
            "count",
            ratio(self.chip_deltas as f64, writes),
        );
        m.metric(
            "core.write_us_per_chip_delta",
            "us",
            ratio(us(self.write_sum.sum_ns()), self.chip_deltas as f64),
        );
        m.metric("core.flush_us", "us", self.flush.p50_us());
        m.metric(
            "pmem.lines_per_flush",
            "count",
            ratio(self.flush_lines as f64, flushes),
        );
        m.metric(
            "pmem.flush_us_per_line",
            "us",
            ratio(us(self.flush.sum_ns()), self.flush_lines as f64),
        );
        m.metric(
            "pmem.log_bytes_per_user_byte",
            "ratio",
            ratio(self.log_bytes as f64, self.user_bytes as f64),
        );
        m.metric(
            "pmem.lines_redone_per_recover",
            "count",
            ratio(self.lines_redone as f64, self.recovers as f64),
        );
        m.metric("core.read_clean_us", "us", self.read_clean.p50_us());
        m.metric("core.read_rs_us", "us", self.read_rs.p50_us());
        m.metric("core.read_vlew_us", "us", self.read_vlew.p50_us());
        m.metric("core.read_vlew_count", "count", self.read_vlew.len() as f64);
        m.metric(
            "core.rs_corrected_frac",
            "ratio",
            ratio(e.rs_accepted as f64, e.reads as f64),
        );
        m.metric(
            "core.fallback_frac",
            "ratio",
            ratio(e.fallbacks as f64, e.reads as f64),
        );
        m.metric(
            "rs.corrections_per_read",
            "count",
            ratio(e.rs_corrections as f64, e.reads as f64),
        );
        m.metric(
            "bch.boot_scrub_us_per_stripe",
            "us",
            ratio(us(self.boot_ns), self.boot_stripes as f64),
        );
        m.metric(
            "bch.boot_bits_corrected",
            "count",
            ratio(self.boot_bits as f64, self.boot_scrubs as f64),
        );
        m.metric("service.queue_wait_p50_us", "us", self.queue_wait.p50_us());
        m.metric("service.queue_wait_p99_us", "us", self.queue_wait.p99_us());
        m.metric("service.shard_exec_p50_us", "us", self.shard_exec.p50_us());
        m.metric("service.return_p50_us", "us", self.ret.p50_us());
        m.metric(
            "service.shard_busy_frac",
            "ratio",
            ratio(
                self.shard_occupied_ns as f64,
                (self.wall_ns * self.core_units) as f64,
            ),
        );
        m.metric(
            "service.backpressure_per_kop",
            "count",
            ratio(self.backpressure as f64 * 1e3, self.service_ops as f64),
        );
        let reads = self.cluster_self_read.len() as f64;
        let cwrites = self.cluster_self_write.len() as f64;
        m.metric(
            "cluster.self_us_per_read",
            "us",
            ratio(us(self.cluster_self_read.sum_ns()), reads),
        );
        m.metric(
            "cluster.self_us_per_write",
            "us",
            ratio(us(self.cluster_self_write.sum_ns()), cwrites),
        );
        m.metric(
            "cluster.node_calls_per_read",
            "count",
            ratio(self.node_calls_read as f64, reads),
        );
        m.metric(
            "cluster.node_calls_per_write",
            "count",
            ratio(self.node_calls_write as f64, cwrites),
        );
        m.metric("cluster.read_repairs", "count", self.read_repairs as f64);
        m.metric(
            "cluster.rebuild_us_per_block",
            "us",
            ratio(us(self.rebuild_ns), self.rebuilt_blocks as f64),
        );
        m.metric(
            "core.busy_frac",
            "ratio",
            ratio(self.core_ns as f64, (self.wall_ns * self.core_units) as f64),
        );
        m.metric("trace.overhead_frac", "ratio", self.overhead_frac);
        m.metric(
            "trace.unattributed_frac",
            "ratio",
            1.0 - ratio(self.attributed_ns as f64, self.e2e_ns as f64),
        );
    }
}

/// The traced run's span sink: spans are folded into the per-layer
/// figures as they arrive and a bounded prefix is kept for export.
#[derive(Debug)]
pub struct Tracing {
    pub epoch: Instant,
    pub export: SpanExport,
    pub agg: LayerAgg,
}

/// Spans kept for the CSV export.
const EXPORT_SPANS: usize = 100_000;

impl Tracing {
    pub fn new(core_units: u64) -> Self {
        Tracing {
            epoch: Instant::now(),
            export: SpanExport::new(EXPORT_SPANS),
            agg: LayerAgg::new(core_units),
        }
    }

    pub fn now(&self) -> u64 {
        since(self.epoch)
    }

    /// Records one span; core spans also feed the per-kind timings.
    pub fn span(&mut self, span: Span) {
        if span.layer == Layer::Core {
            self.agg.core_span(&span);
        }
        self.export.push(span);
    }
}

/// What two runs of one seed must agree on.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub digest: u64,
    pub attempted: u64,
    pub failed: u64,
    /// Layer counters of every stack (shard or node), in order.
    pub layers: Vec<Vec<(LayerId, LayerStats)>>,
    pub engine: Vec<Option<CoreStats>>,
}

/// Checks that the traced run answered exactly like the plain one.
pub fn check_equivalent(traced: &Snapshot, plain: &Snapshot) -> Result<(), String> {
    if traced == plain {
        Ok(())
    } else {
        Err(format!(
            "traced and plain runs diverged:\n traced {traced:?}\n plain  {plain:?}"
        ))
    }
}
