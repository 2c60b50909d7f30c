//! `e2ebench` — the trace-driven end-to-end benchmark.
//!
//! ```text
//! e2ebench --workload <pm_txn|faulty_read|replicated_kv> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread turns a `pmck-workloads` trace into requests and
//! drives them through one entry point of the system: a persistent
//! `Stack` (`pm_txn`), a one-shard `ShardedService` (`faulty_read`) or a
//! 3-node `Cluster` (`replicated_kv`). Every read is checked against the
//! benchmark's mirror; a wrong datum ends the run with exit code 1.
//!
//! With `--trace 0` the run reports the end-to-end metrics. With
//! `--trace 1` it runs twice on the same seed — once with timing
//! wrappers around every layer, once plain for as many requests —
//! checks that both runs gave identical responses and counters, and
//! reports the per-layer metrics of the traced run. The spans of the
//! traced run's first requests are written as CSV under
//! `$CARGO_TARGET_DIR/e2ebench-spans/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.

mod e2e;
mod faulty_read;
mod layers;
mod mapping;
mod mirror;
mod pm_txn;
mod replicated_kv;
mod report;
mod stats;
mod timed;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: e2ebench --workload <pm_txn|faulty_read|replicated_kv> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    pub trace: bool,
    /// Where the traced run writes its spans.
    pub span_dir: PathBuf,
}

impl Opts {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Opts, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
                "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value for --trace: {value}")),
                    })
                }
                other => return Err(format!("unknown argument {other}")),
            }
        }
        let seconds = seconds.unwrap_or(10.0);
        if !(seconds > 0.0 && seconds <= 120.0) {
            return Err(format!("--seconds must be in (0, 120], got {seconds}"));
        }
        let target = std::env::var_os("CARGO_TARGET_DIR")
            .map_or_else(|| PathBuf::from("e2ebench/target"), PathBuf::from);
        Ok(Opts {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace: trace.unwrap_or(false),
            span_dir: target.join("e2ebench-spans"),
        })
    }

    /// The file the traced run writes its spans to.
    pub fn span_file(&self) -> PathBuf {
        self.span_dir
            .join(format!("{}-seed{}.csv", self.workload, self.seed))
    }
}

fn main() -> ExitCode {
    let opts = match Opts::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match opts.workload.as_str() {
        "pm_txn" => workload::run::<pm_txn::PmTxn>(&opts),
        "faulty_read" => workload::run::<faulty_read::FaultyRead>(&opts),
        "replicated_kv" => workload::run::<replicated_kv::ReplicatedKv>(&opts),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    match result {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.result_json(true));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::from(1)
        }
    }
}
