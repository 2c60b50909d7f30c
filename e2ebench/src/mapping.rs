//! Turning a `pmck-workloads` trace into a stream of [`Request`]s.
//!
//! The generator emits CPU-side operations; only persistent-memory ones
//! reach the system. The mapping is:
//!
//! * `Load` → [`Request::Read`];
//! * `Store` rewrites one random 8-byte word of the benchmark's cached
//!   copy of the line and sends nothing;
//! * `Clwb` → [`Request::WriteSum`] carrying `cached ⊕ stored`, the
//!   paper's bitwise-sum write. A write-back of a line that holds no
//!   change sends nothing. A line whose stored value is ambiguous after
//!   a failed write is written back whole with [`Request::Write`], since
//!   no delta against an unknown value exists;
//! * `Fence` → [`Request::Flush`] when fences are kept, else nothing;
//! * DRAM references and compute gaps send nothing.
//!
//! Everything the mapper draws comes from its seed, so one seed gives
//! one request stream as long as the same requests succeed.

use pmck_core::Request;
use pmck_rt::rng::{stream_seed, Rng, SmallRng};
use pmck_workloads::{Op, TraceGenerator, WorkloadSpec};

use crate::mirror::Mirror;

/// A seeded trace generator plus the line copies the mapping needs.
pub struct TraceMapper {
    gen: TraceGenerator,
    rng: SmallRng,
    keep_fences: bool,
    writes: bool,
    /// The CPU-side copy of every line (stores land here first).
    cache: Vec<[u8; 64]>,
    /// What the system holds.
    mirror: Mirror,
    fences: u64,
}

impl TraceMapper {
    /// Maps the catalog workload `name` onto `blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from the catalog.
    pub fn new(name: &str, blocks: u64, seed: u64) -> Self {
        let mut spec = WorkloadSpec::by_name(name).expect("workload in the catalog");
        spec.pm_blocks = blocks;
        TraceMapper {
            gen: TraceGenerator::new(spec, stream_seed(seed, 0)),
            rng: SmallRng::seed_from_u64(stream_seed(seed, 1)),
            keep_fences: true,
            writes: true,
            cache: vec![[0u8; 64]; blocks as usize],
            mirror: Mirror::new(blocks),
            fences: 0,
        }
    }

    /// Drops fences instead of mapping them to flushes.
    pub fn without_fences(mut self) -> Self {
        self.keep_fences = false;
        self
    }

    /// Keeps only the loads of the trace.
    pub fn loads_only(mut self) -> Self {
        self.keep_fences = false;
        self.writes = false;
        self
    }

    pub fn mirror(&self) -> &Mirror {
        &self.mirror
    }

    /// Fences seen so far (kept or dropped).
    pub fn fences(&self) -> u64 {
        self.fences
    }

    /// The next request of the trace.
    pub fn next_request(&mut self) -> Request {
        loop {
            match self.gen.next_op() {
                Op::Load(r) if r.pm => return Request::Read(r.addr),
                Op::Store(r) if r.pm && self.writes => {
                    let word = self.rng.gen_range(0..8usize) * 8;
                    let value = self.rng.next_u64().to_le_bytes();
                    self.cache[r.addr as usize][word..word + 8].copy_from_slice(&value);
                }
                Op::Clwb(r) if r.pm && self.writes => {
                    let addr = r.addr;
                    let line = self.cache[addr as usize];
                    if self.mirror.is_ambiguous(addr) {
                        return Request::Write { addr, data: line };
                    }
                    let mut delta = *self.mirror.value(addr);
                    delta.iter_mut().zip(line).for_each(|(d, n)| *d ^= n);
                    if delta != [0u8; 64] {
                        return Request::WriteSum { addr, data: delta };
                    }
                }
                Op::Fence => {
                    self.fences += 1;
                    if self.keep_fences {
                        return Request::Flush;
                    }
                }
                _ => {}
            }
        }
    }

    /// The value `addr` holds once the write `req` succeeds.
    pub fn written_value(&self, req: &Request) -> Option<(u64, [u8; 64])> {
        match *req {
            Request::Write { addr, data } => Some((addr, data)),
            Request::WriteSum { addr, data } => {
                let mut v = *self.mirror.value(addr);
                v.iter_mut().zip(data).for_each(|(o, d)| *o ^= d);
                Some((addr, v))
            }
            _ => None,
        }
    }

    /// Records the outcome of a write the mapper produced.
    pub fn write_done(&mut self, req: &Request, ok: bool) {
        if let Some((addr, value)) = self.written_value(req) {
            if ok {
                self.mirror.commit(addr, value);
            } else {
                self.mirror.fail(addr, value);
            }
        }
    }

    /// Sets both copies of `addr` to `data` — a prefill write, or what a
    /// read showed after a power cut dropped the CPU cache.
    pub fn resync(&mut self, addr: u64, data: [u8; 64]) {
        self.cache[addr as usize] = data;
        self.mirror.commit(addr, data);
    }
}

/// Nonzero 8-byte chip words in a bitwise-sum delta: the chips that
/// must update their VLEW code bits.
pub fn chip_deltas(delta: &[u8; 64]) -> u64 {
    delta
        .chunks_exact(8)
        .filter(|w| w.iter().any(|&b| b != 0))
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(name: &str, seed: u64, n: usize) -> Vec<Request> {
        let mut m = TraceMapper::new(name, 4096, seed);
        (0..n)
            .map(|_| {
                let r = m.next_request();
                m.write_done(&r, true);
                r
            })
            .collect()
    }

    #[test]
    fn mapping_is_deterministic_for_a_seed() {
        for name in ["hashmap", "barnes", "ycsb"] {
            let a = stream(name, 7, 5000);
            assert_eq!(a, stream(name, 7, 5000), "{name}");
            assert_ne!(a, stream(name, 8, 5000), "{name}: seeds must differ");
        }
    }

    #[test]
    fn hashmap_maps_to_reads_sums_and_flushes() {
        let reqs = stream("hashmap", 3, 20_000);
        let count = |f: fn(&Request) -> bool| reqs.iter().filter(|r| f(r)).count();
        assert!(count(|r| matches!(r, Request::Read(_))) > 0);
        assert!(count(|r| matches!(r, Request::WriteSum { .. })) > 0);
        assert!(count(|r| matches!(r, Request::Flush)) > 0);
        assert_eq!(count(|r| matches!(r, Request::Write { .. })), 0);
        assert!(reqs.iter().all(|r| r.addr().is_none_or(|a| a < 4096)));
    }

    #[test]
    fn sums_carry_the_change_against_the_stored_line() {
        let mut m = TraceMapper::new("hashmap", 4096, 5);
        for _ in 0..2000 {
            let r = m.next_request();
            if let Request::WriteSum { addr, data } = r {
                assert_ne!(data, [0; 64]);
                assert!((1..=8).contains(&chip_deltas(&data)));
                let (a, v) = m.written_value(&r).unwrap();
                assert_eq!(a, addr);
                m.write_done(&r, true);
                assert_eq!(m.mirror().value(addr), &v);
            }
        }
    }

    #[test]
    fn failed_write_is_retried_whole() {
        let mut m = TraceMapper::new("hashmap", 4096, 9);
        let failed = loop {
            let r = m.next_request();
            if matches!(r, Request::WriteSum { .. }) {
                m.write_done(&r, false);
                break r.addr().unwrap();
            }
        };
        assert!(m.mirror().is_ambiguous(failed));
        let retry = loop {
            let r = m.next_request();
            if r.addr() == Some(failed) && !matches!(r, Request::Read(_)) {
                break r;
            }
            m.write_done(&r, true);
        };
        assert!(matches!(retry, Request::Write { .. }));
    }

    #[test]
    fn loads_only_drops_writes_and_fences() {
        let mut m = TraceMapper::new("barnes", 4096, 1).loads_only();
        assert!((0..5000).all(|_| matches!(m.next_request(), Request::Read(_))));
    }
}
