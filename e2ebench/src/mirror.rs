//! The benchmark's mirror of what every block must hold.
//!
//! A write that fails may still have landed somewhere: a W=2 cluster
//! write that loses its quorum has already been applied to the replica
//! that stayed up. Such a block is *ambiguous*: both the old and the
//! attempted value are accepted until the next successful write settles
//! it.

use std::collections::HashMap;

/// Expected block contents with per-block ambiguity.
#[derive(Debug, Clone)]
pub struct Mirror {
    cur: Vec<[u8; 64]>,
    alt: HashMap<u64, [u8; 64]>,
}

impl Mirror {
    /// `blocks` zero-filled blocks (a fresh device reads as zeros).
    pub fn new(blocks: u64) -> Self {
        Mirror {
            cur: vec![[0u8; 64]; blocks as usize],
            alt: HashMap::new(),
        }
    }

    /// The value a successful write last stored.
    pub fn value(&self, addr: u64) -> &[u8; 64] {
        &self.cur[addr as usize]
    }

    /// Whether a failed write left `addr` with two accepted values.
    pub fn is_ambiguous(&self, addr: u64) -> bool {
        self.alt.contains_key(&addr)
    }

    /// Whether `got` is an accepted value of `addr`.
    pub fn accepts(&self, addr: u64, got: &[u8; 64]) -> bool {
        got == &self.cur[addr as usize] || self.alt.get(&addr) == Some(got)
    }

    /// A write of `data` to `addr` succeeded (or a read settled it).
    pub fn commit(&mut self, addr: u64, data: [u8; 64]) {
        self.cur[addr as usize] = data;
        self.alt.remove(&addr);
    }

    /// A write of `data` to `addr` failed: accept either value.
    pub fn fail(&mut self, addr: u64, data: [u8; 64]) {
        if data != self.cur[addr as usize] {
            self.alt.insert(addr, data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_write_accepts_both_values_until_settled() {
        let mut m = Mirror::new(4);
        assert!(m.accepts(1, &[0; 64]));
        m.commit(1, [1; 64]);
        assert!(!m.accepts(1, &[0; 64]));
        m.fail(1, [2; 64]);
        assert!(m.is_ambiguous(1));
        assert!(m.accepts(1, &[1; 64]) && m.accepts(1, &[2; 64]));
        assert!(!m.accepts(1, &[3; 64]));
        m.commit(1, [3; 64]);
        assert!(!m.is_ambiguous(1));
        assert!(!m.accepts(1, &[2; 64]));
    }
}
