//! End-to-end figures of an untraced run.
//!
//! Every figure comes from quiet stretches of the run: the measured
//! phase's figures from the fastest [`QUIET_SHARE`] of its rounds by
//! throughput. Figures of work done only before the measured phase
//! (set-up writes) are cut into [`SETUP_SLICES`] slices of consecutive
//! samples, which stand in for rounds. On a small
//! shared host, outside load slows the whole machine by a third or more
//! for seconds at a time, and a run's median round moves with how much
//! of the run such a spell covers. Outside load only ever slows a
//! round, so the fastest rounds measure the program's own cost, and a
//! change that makes the program slower slows them as much as any
//! other. Latency tails are printed under the percentile rule, over
//! every round, but not reported as metrics: they move with outside
//! load far more than the code's own cost does.

use crate::report::{ratio, Report};
use crate::stats::{median, Samples};

/// The share of the rounds (or set-up slices), the fastest, that the
/// figures come from.
pub const QUIET_SHARE: f64 = 0.1;
/// Slices a series of samples taken before the measured phase is cut
/// into.
pub const SETUP_SLICES: usize = 60;

/// What a client of the system sees.
#[derive(Debug, Default)]
pub struct E2e {
    /// Requests completed in the measured phase.
    pub ops: u64,
    /// Wall time of the measured phase.
    pub wall_ns: u64,
    /// Requests and time of each round of the measured phase.
    rounds: Vec<(u64, u64)>,
    pub reads: Samples,
    pub writes: Samples,
    pub flushes: Samples,
    /// Samples of the workload's recovery operation, in ms.
    pub recovery_ms: Vec<f64>,
    /// One set-up time per set-up, in s.
    pub setup_s: Vec<f64>,
    /// Peak resident memory once set up, in MiB.
    pub rss_mib: f64,
    /// Sample counts of `reads`, `writes`, `flushes` and `recovery_ms`
    /// where the measured phase began and where each round ended.
    marks: Vec<[usize; 4]>,
}

/// The fastest [`QUIET_SHARE`] of `n` items, at least one, by `cost`
/// (lowest first); returned in their original order.
fn quiet(n: usize, cost: impl Fn(usize) -> f64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| cost(a).total_cmp(&cost(b)));
    order.truncate((n as f64 * QUIET_SHARE).ceil().max(1.0) as usize);
    order.sort_unstable();
    order
}

impl E2e {
    /// Marks the start of the measured phase: samples taken before it
    /// belong to no round.
    pub fn begin_rounds(&mut self) {
        self.marks = vec![self.counts()];
    }

    /// Records one round of `ops` requests that took `ns`, and the
    /// samples taken since the previous round ended.
    pub fn round(&mut self, ops: u64, ns: u64) {
        assert!(
            !self.marks.is_empty(),
            "begin_rounds before the first round"
        );
        self.rounds.push((ops, ns));
        self.marks.push(self.counts());
    }

    fn counts(&self) -> [usize; 4] {
        [
            self.reads.len(),
            self.writes.len(),
            self.flushes.len(),
            self.recovery_ms.len(),
        ]
    }

    /// The quiet rounds of the measured phase.
    fn quiet_rounds(&self) -> Vec<usize> {
        quiet(self.rounds.len(), |r| {
            let (ops, ns) = self.rounds[r];
            ratio(ns as f64, ops as f64)
        })
    }

    /// Throughput over the quiet rounds.
    pub fn ops_per_s(&self) -> f64 {
        let (ops, ns) = self
            .quiet_rounds()
            .iter()
            .map(|&r| self.rounds[r])
            .fold((0, 0), |(o, n), (ro, rn)| (o + ro, n + rn));
        ratio(ops as f64 * 1e9, ns as f64)
    }

    /// The samples of column `col` (see `marks`) taken in the quiet
    /// rounds. A series the measured phase took no samples of is a
    /// figure of the set-up: its quiet slices are kept instead, by the
    /// mean of `cost` over a slice.
    fn quiet_part<T: Copy>(
        &self,
        xs: &[T],
        col: usize,
        quiet_rounds: &[usize],
        cost: impl Fn(T) -> f64,
    ) -> Vec<T> {
        let in_rounds = match (self.marks.first(), self.marks.last()) {
            (Some(first), Some(last)) => first[col] < last[col],
            _ => false,
        };
        if in_rounds {
            return quiet_rounds
                .iter()
                .flat_map(|&r| {
                    xs[self.marks[r][col]..self.marks[r + 1][col]]
                        .iter()
                        .copied()
                })
                .collect();
        }
        let slices: Vec<&[T]> = xs.chunks(xs.len().div_ceil(SETUP_SLICES).max(1)).collect();
        let mean = |s: &[T]| s.iter().map(|&x| cost(x)).sum::<f64>() / s.len() as f64;
        quiet(slices.len(), |i| mean(slices[i]))
            .into_iter()
            .flat_map(|i| slices[i].iter().copied())
            .collect()
    }

    /// Adds the end-to-end table and metric set to `report`.
    /// `recovery` names the operation `recovery_ms` times here.
    pub fn report(&mut self, recovery: &str, report: &mut Report) {
        let rounds = self.quiet_rounds();
        let ns = |x: u64| x as f64;
        let mut reads = Samples::from(self.quiet_part(self.reads.ns(), 0, &rounds, ns));
        let mut writes = Samples::from(self.quiet_part(self.writes.ns(), 1, &rounds, ns));
        let mut flushes = Samples::from(self.quiet_part(self.flushes.ns(), 2, &rounds, ns));
        let recovery_ms = self.quiet_part(&self.recovery_ms, 3, &rounds, |ms| ms);
        let speeds: Vec<f64> = self
            .rounds
            .iter()
            .map(|&(ops, ns)| ratio(ops as f64 * 1e9, ns as f64))
            .collect();
        report.line(format!(
            "ops_per_s                    {:.1} (fastest {} of {} rounds; median round {:.1}; {} requests in {:.3} s)",
            self.ops_per_s(),
            rounds.len(),
            self.rounds.len(),
            median(&speeds),
            self.ops,
            self.wall_ns as f64 / 1e9
        ));
        report.line("in the quiet rounds or set-up slices:".to_string());
        report.timing("read", &mut reads);
        report.timing("write", &mut writes);
        report.timing("flush", &mut flushes);
        report.line(format!(
            "recovery_ms ({recovery})  median={:.3} ms  n={}",
            median(&recovery_ms),
            recovery_ms.len()
        ));
        report.line("in the whole run:".to_string());
        report.timing("read", &mut self.reads);
        report.timing("write", &mut self.writes);
        report.timing("flush", &mut self.flushes);
        report.line(format!(
            "recovery_ms ({recovery})  median={:.3} ms  n={}",
            median(&self.recovery_ms),
            self.recovery_ms.len()
        ));
        report.line(format!(
            "setup_s                      median={:.4} s  samples={:?}",
            median(&self.setup_s),
            self.setup_s
        ));
        report.line(format!(
            "fail_ratio                   {} of {} requests",
            report.failed, report.attempted
        ));
        report.metric("ops_per_s", "1/s", self.ops_per_s());
        report.metric("read_p50_us", "us", reads.p50_us());
        report.metric("write_p50_us", "us", writes.p50_us());
        report.metric("recovery_ms", "ms", median(&recovery_ms));
        report.metric("setup_s", "s", median(&self.setup_s));
        report.metric("peak_rss_mib", "MiB", self.rss_mib);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten rounds of 100 requests, round `r` taking `(r + 1)` ms and
    /// one read of `r` µs, after a set-up that took 120 recovery
    /// samples, slowest first.
    fn ten_rounds() -> E2e {
        let mut e2e = E2e {
            recovery_ms: (0..120).rev().map(f64::from).collect(),
            ..E2e::default()
        };
        e2e.reads.push(999_000); // before the measured phase
        e2e.begin_rounds();
        for r in 0..10u64 {
            e2e.reads.push(r * 1000);
            e2e.round(100, (r + 1) * 1_000_000);
        }
        e2e
    }

    #[test]
    fn figures_come_from_the_fastest_rounds() {
        let e2e = ten_rounds();
        let rounds = e2e.quiet_rounds();
        assert_eq!(rounds, vec![0]);
        assert_eq!(e2e.ops_per_s(), 100_000.0);
        let reads = e2e.quiet_part(e2e.reads.ns(), 0, &rounds, |ns| ns as f64);
        assert_eq!(reads, vec![0]);
    }

    #[test]
    fn set_up_figures_come_from_the_fastest_slices() {
        let e2e = ten_rounds();
        let rounds = e2e.quiet_rounds();
        // 60 slices of two samples; the fastest six hold 0..12.
        let mut ms = e2e.quiet_part(&e2e.recovery_ms, 3, &rounds, |ms| ms);
        ms.sort_by(f64::total_cmp);
        assert_eq!(ms, (0..12).map(f64::from).collect::<Vec<_>>());
    }
}
