//! Latency samples and the percentile rule.
//!
//! A timing is reported as its median plus the highest percentile of the
//! ladder p90, p99, p99.9, … that still has at least [`TAIL_MIN`]
//! samples beyond it, together with the sample count. A percentile with
//! fewer samples behind it describes a handful of outliers, not a tail.

/// Samples that must lie strictly above a reported tail percentile.
pub const TAIL_MIN: usize = 10;

/// The percentile ladder as `(label, numerator, denominator)`.
const LADDER: [(&str, u64, u64); 5] = [
    ("p90", 9, 10),
    ("p99", 99, 100),
    ("p99.9", 999, 1000),
    ("p99.99", 9999, 10_000),
    ("p99.999", 99_999, 100_000),
];

/// Nearest-rank index of percentile `num/den` in `n` sorted samples.
fn rank(n: usize, num: u64, den: u64) -> usize {
    let n = n as u64;
    ((n * num).div_ceil(den)).max(1) as usize - 1
}

/// The highest ladder percentile with at least [`TAIL_MIN`] samples
/// beyond it, as `(label, num, den)`, or `None` below 100 samples.
pub fn tail_percentile(n: usize) -> Option<(&'static str, u64, u64)> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&(_, num, den)| n > 0 && n - 1 - rank(n, num, den) >= TAIL_MIN)
}

/// Durations in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl From<Vec<u64>> for Samples {
    fn from(ns: Vec<u64>) -> Samples {
        Samples { ns, sorted: false }
    }
}

/// A summarised timing, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Sample count.
    pub n: usize,
    /// Median (0 without samples).
    pub p50_us: f64,
    /// The tail percentile the rule allows, with its label.
    pub tail: Option<(&'static str, f64)>,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// The samples in the order they were taken (before any percentile
    /// is asked for).
    pub fn ns(&self) -> &[u64] {
        assert!(!self.sorted, "samples already sorted");
        &self.ns
    }

    pub fn sum_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Percentile `num/den` in microseconds (nearest rank; 0 without
    /// samples).
    pub fn percentile_us(&mut self, num: u64, den: u64) -> f64 {
        if self.ns.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        self.ns[rank(self.ns.len(), num, den)] as f64 / 1e3
    }

    pub fn p50_us(&mut self) -> f64 {
        self.percentile_us(1, 2)
    }

    pub fn p99_us(&mut self) -> f64 {
        self.percentile_us(99, 100)
    }

    /// Median plus the rule's tail percentile.
    pub fn timing(&mut self) -> Timing {
        let n = self.ns.len();
        let tail =
            tail_percentile(n).map(|(label, num, den)| (label, self.percentile_us(num, den)));
        Timing {
            n,
            p50_us: self.p50_us(),
            tail,
        }
    }
}

/// Median of a small set of values (the mean of the middle two for an
/// even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(99), None);
        // p90 of 100 samples is rank 89: ten samples lie above it.
        assert_eq!(tail_percentile(100).map(|t| t.0), Some("p90"));
        assert_eq!(tail_percentile(999).map(|t| t.0), Some("p90"));
        assert_eq!(tail_percentile(1000).map(|t| t.0), Some("p99"));
        assert_eq!(tail_percentile(9_999).map(|t| t.0), Some("p99"));
        assert_eq!(tail_percentile(10_000).map(|t| t.0), Some("p99.9"));
        assert_eq!(tail_percentile(10_000_000).map(|t| t.0), Some("p99.999"));
        for n in [100, 1000, 12_345, 1_000_000] {
            let (_, num, den) = tail_percentile(n).unwrap();
            assert!(n - 1 - rank(n, num, den) >= TAIL_MIN, "n={n}");
        }
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let mut s = Samples::default();
        for ns in (1..=1000).rev() {
            s.push(ns * 1000);
        }
        assert_eq!(s.p50_us(), 500.0);
        assert_eq!(s.p99_us(), 990.0);
        let t = s.timing();
        assert_eq!(t.n, 1000);
        assert_eq!(t.tail, Some(("p99", 990.0)));
        assert_eq!(Samples::default().timing().p50_us, 0.0);
    }

    #[test]
    fn median_of_even_and_odd_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
