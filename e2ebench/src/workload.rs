//! The flow every workload shares: set-ups, the measured phase, and the
//! traced/plain pair of a traced run.

use std::time::Instant;

use crate::e2e::E2e;
use crate::layers::{check_equivalent, Snapshot, Tracing};
use crate::report::{peak_rss_mib, Report};
use crate::Opts;

/// Set-ups per untraced run (`setup_s` is their median).
const SETUPS: usize = 5;

/// When the measured phase ends.
#[derive(Debug, Clone, Copy)]
pub enum Until {
    Elapsed(f64),
    Rounds(u64),
}

impl Until {
    /// Whether a measured phase begun at `start` is over after `rounds`
    /// rounds.
    pub fn reached(self, start: Instant, rounds: u64) -> bool {
        match self {
            Until::Elapsed(s) => start.elapsed().as_secs_f64() >= s,
            Until::Rounds(n) => rounds >= n,
        }
    }
}

/// One workload: a system behind one entry point plus its request
/// stream.
pub trait Workload: Sized {
    /// What `recovery_ms` times here.
    const RECOVERY: &'static str;
    /// Stacks that execute in parallel.
    const CORE_UNITS: u64;

    /// Builds and loads the system, with timing wrappers when `epoch`
    /// is given. Latencies of set-up requests the workload reports go
    /// to `e2e`.
    fn setup(seed: u64, epoch: Option<Instant>, e2e: &mut E2e) -> Result<Self, String>;

    /// The measured phase, after whatever must precede it; returns the
    /// rounds run.
    fn run(
        &mut self,
        until: Until,
        e2e: &mut E2e,
        tracing: Option<&mut Tracing>,
    ) -> Result<u64, String>;

    /// Checks every block and runs the closing `Verify`s.
    fn close(self) -> Result<Snapshot, String>;
}

/// Runs workload `W` as `opts` asks.
pub fn run<W: Workload>(opts: &Opts) -> Result<Report, String> {
    let mut report = Report::default();
    if !opts.trace {
        let mut e2e = E2e::default();
        let mut sys = None;
        for _ in 0..SETUPS {
            drop(sys.take());
            let t = Instant::now();
            sys = Some(W::setup(opts.seed, None, &mut e2e)?);
            e2e.setup_s.push(t.elapsed().as_secs_f64());
        }
        e2e.rss_mib = peak_rss_mib();
        let mut sys = sys.expect("at least one set-up");
        sys.run(Until::Elapsed(opts.seconds), &mut e2e, None)?;
        let snap = sys.close()?;
        report.attempted = snap.attempted;
        report.failed = snap.failed;
        e2e.report(W::RECOVERY, &mut report);
        return Ok(report);
    }
    let mut tracing = Tracing::new(W::CORE_UNITS);
    let mut traced_e2e = E2e::default();
    let mut sys = W::setup(opts.seed, Some(tracing.epoch), &mut traced_e2e)?;
    let rounds = sys.run(
        Until::Elapsed(opts.seconds),
        &mut traced_e2e,
        Some(&mut tracing),
    )?;
    let traced = sys.close()?;
    let mut plain_e2e = E2e::default();
    let mut sys = W::setup(opts.seed, None, &mut plain_e2e)?;
    sys.run(Until::Rounds(rounds), &mut plain_e2e, None)?;
    check_equivalent(&traced, &sys.close()?)?;
    report.attempted = traced.attempted;
    report.failed = traced.failed;
    let agg = &mut tracing.agg;
    agg.overhead_frac = 1.0 - traced_e2e.ops_per_s() / plain_e2e.ops_per_s();
    agg.describe(&mut report);
    agg.metrics(&mut report);
    let file = opts.span_file();
    tracing
        .export
        .write(&file)
        .map_err(|e| format!("writing spans: {e}"))?;
    report.line(format!("spans written to {}", file.display()));
    Ok(report)
}
