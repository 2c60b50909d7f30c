//! Metric assembly and output.
//!
//! A run prints a human-readable table (every timing as median, the
//! tail percentile the rule allows, and its sample count) and then, as
//! its last line, one JSON object with the metrics the mode asks for:
//! the end-to-end set with tracing off, the per-layer set with it on.

use pmck_core::{CoreError, CoreStats, Response};

use crate::stats::{Samples, Timing};

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A finished run.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result.
    pub lines: Vec<String>,
}

impl Report {
    pub fn metric(&mut self, name: &'static str, unit: &'static str, value: f64) {
        self.metrics.push(Metric { name, unit, value });
    }

    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Adds a timing line under the percentile rule.
    pub fn timing(&mut self, name: &str, samples: &mut Samples) {
        let t = samples.timing();
        self.lines.push(timing_line(name, &t));
    }

    /// The result object (the last line of standard output).
    pub fn result_json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// `name  p50=… us  p99=… us  n=…` (the tail only when the rule allows).
pub fn timing_line(name: &str, t: &Timing) -> String {
    let tail = match t.tail {
        Some((label, us)) => format!("{label}={us:.3} us"),
        None => "tail=n/a (<100 samples)".to_string(),
    };
    format!("{name:<28} p50={:.3} us  {tail}  n={}", t.p50_us, t.n)
}

/// A share, 0 when the base is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set size of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A word-wise FNV-style hash over every response of a run: two runs
/// that answer alike agree on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    fn word(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x0100_0000_01b3).rotate_left(29);
    }

    fn bytes(&mut self, bytes: &[u8]) {
        self.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }

    pub fn add(&mut self, res: &Result<Response, CoreError>) {
        match res {
            Ok(Response::Read(out)) => {
                self.word(1);
                self.bytes(&out.data);
                self.word(path_code(&out.path));
            }
            Ok(Response::Written) => self.word(2),
            Ok(Response::Flushed { lines }) => {
                self.word(3);
                self.word(*lines);
            }
            Ok(other) => self.bytes(format!("{other:?}").as_bytes()),
            Err(e) => self.bytes(format!("{e:?}").as_bytes()),
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// The decode path and its count, packed into one word.
fn path_code(path: &pmck_core::ReadPath) -> u64 {
    use pmck_core::ReadPath;
    let (tag, n) = match *path {
        ReadPath::Clean => (0, 0),
        ReadPath::RsCorrected { corrections } => (1, corrections),
        ReadPath::VlewFallback { bits_corrected } => (2, bits_corrected),
        ReadPath::ChipkillErasure { chip } => (3, chip),
        ReadPath::BitCorrected { bits_corrected } => (4, bits_corrected),
        ReadPath::VlewListDecoded { bits_corrected } => (5, bits_corrected),
    };
    tag << 56 | n as u64
}

/// `after - before`, field by field, for the counters the metrics use.
pub fn core_delta(after: Option<CoreStats>, before: Option<CoreStats>) -> CoreStats {
    let a = after.unwrap_or_default();
    let b = before.unwrap_or_default();
    CoreStats {
        reads: a.reads - b.reads,
        writes: a.writes - b.writes,
        clean_reads: a.clean_reads - b.clean_reads,
        rs_accepted: a.rs_accepted - b.rs_accepted,
        rs_corrections: a.rs_corrections - b.rs_corrections,
        fallbacks: a.fallbacks - b.fallbacks,
        ..CoreStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            failed: 1,
            ..Report::default()
        };
        r.metric("latency_ms", "ms", 1.25);
        r.metric("bad", "ms", f64::NAN);
        assert_eq!(
            r.result_json(true),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"bad\": {\"value\": 0, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn digest_tells_responses_apart() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.add(&Ok(Response::Written));
        b.add(&Ok(Response::Written));
        assert_eq!(a, b);
        b.add(&Ok(Response::Flushed { lines: 3 }));
        a.add(&Ok(Response::Flushed { lines: 4 }));
        assert_ne!(a, b);
    }
}
