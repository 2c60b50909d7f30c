//! Persistence-domain model for persistent-memory ranks.
//!
//! The functional stack mutates its chip arrays in ordinary volatile
//! memory; this crate supplies the missing durability story. A
//! [`PersistentMedia`] keeps two byte images of the same address space:
//!
//! * **staging** — the merged "CPU cache + WPQ" view. Every store lands
//!   here first and is *volatile*: a power cut discards it.
//! * **durable** — what the NVRAM cells actually hold. Only
//!   [`PersistentMedia::fence`] moves bytes here, and only for lines
//!   that were first flushed ([`PersistentMedia::flush_range`],
//!   [`PersistentMedia::flush_all`]).
//!
//! The protocol is modeled on the virtio-pmem asynchronous flush
//! command: *"Data written to this memory is made persistent by
//! separately sending a flush command — writes that have been flushed
//! are preserved across device reset and power failure."* `flush`
//! selects dirty lines (cache → write-pending queue), `fence` commits
//! the whole pending set atomically, and [`PersistentMedia::drain`] is
//! the flush-everything convenience used by `Request::Flush`.
//!
//! # The intent log makes every fence all-or-nothing
//!
//! Media writes tear: a 64 B line persists in `torn_chunk_bytes`
//! pieces, and power can fail between any two pieces. A multi-line
//! fence interrupted halfway would otherwise leave the durable image
//! half old, half new — a state no decoder is guaranteed to recover.
//! `fence` therefore writes a single CRC-sealed *redo record* into a
//! log region of the same media before touching any data line:
//!
//! ```text
//! [ magic u64 | epoch u64 | count u64 | (offset u64, line bytes)×count | crc u64 ]
//! ```
//!
//! * power lost while the record itself is being written → the CRC
//!   seal fails on recovery, the record is ignored, and the durable
//!   image is the intact **pre-fence** state;
//! * power lost after the seal, while data lines are being persisted →
//!   recovery replays the sealed record and reconstructs the complete
//!   **post-fence** state.
//!
//! Replay is idempotent (it rewrites whole lines with their recorded
//! contents), so recovering twice — or recovering after a clean
//! shutdown — is harmless. Only one record is ever live: the next
//! fence overwrites the log region from offset zero, and a partially
//! overwritten old record is self-invalidating by CRC.
//!
//! # Power cuts and scars
//!
//! [`PersistentMedia::arm_fuse`] kills the media after a chosen number
//! of durable chunk writes — the crash-campaign hook. A dead media
//! silently drops further durable writes (the simulation may keep
//! executing volatile-side; everything after the fuse simply never
//! reached the cells). [`PersistentMedia::power_cut`] then discards
//! the volatile state and [`PersistentMedia::recover`] rebuilds
//! staging from the durable image after log replay.
//!
//! Fault injection is *physical*: [`PersistentMedia::scar_xor`]
//! applies a cell disturbance directly to the durable image (and to
//! staging, keeping it in sync with the live arrays it mirrors),
//! bypassing the flush protocol — corrupted cells survive power cuts,
//! unflushed clean data does not.

use std::fmt;

/// Geometry of the persistence domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmemConfig {
    /// Flush/dirty-tracking granularity (a CPU cache line), in bytes.
    pub line_bytes: usize,
    /// Atomic media write unit: power can fail between chunks of a
    /// line, never inside one chunk (8 = the paper's per-chip share of
    /// a block).
    pub torn_chunk_bytes: usize,
}

impl Default for PmemConfig {
    fn default() -> Self {
        PmemConfig {
            line_bytes: 64,
            torn_chunk_bytes: 8,
        }
    }
}

/// Counters published through the stack's `LayerStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MediaStats {
    /// `flush` calls (including the implicit one inside `drain`).
    pub flushes: u64,
    /// `fence` calls.
    pub fences: u64,
    /// Dirty lines moved cache → WPQ by flushes.
    pub lines_flushed: u64,
    /// Intent-log records written.
    pub log_records: u64,
    /// Intent-log bytes written.
    pub log_bytes: u64,
    /// Lines left partially persisted by a fuse cut.
    pub torn_lines: u64,
    /// Successful recoveries.
    pub recoveries: u64,
    /// Lines rewritten by log replay during recovery.
    pub lines_redone: u64,
}

/// Result of one fence (or drain).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FenceReport {
    /// Lines the fence attempted to persist.
    pub lines: u64,
    /// Intent-log bytes written for this fence (0 for an empty fence).
    pub log_bytes: u64,
}

/// Result of replaying the intent log during recovery.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayOutcome {
    /// Sealed records found and replayed (0 or 1).
    pub records_replayed: u64,
    /// Lines rewritten from the record.
    pub lines_redone: u64,
}

/// A structurally corrupt intent log: recovery cannot tell what the
/// durable image is supposed to be. Distinct from a *torn* record,
/// which fails its CRC seal and is silently ignored (pre-fence state).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaError {
    /// The record header claims more lines than the log region can
    /// hold, so no seal covering it can exist.
    UnsealedRecord {
        /// Line count claimed by the header.
        count: u64,
        /// Most lines a sealed record could carry.
        capacity_lines: u64,
    },
    /// A sealed entry targets an offset outside the data region.
    TornEntry {
        /// The out-of-range byte offset.
        offset: u64,
    },
}

impl fmt::Display for MediaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MediaError::UnsealedRecord {
                count,
                capacity_lines,
            } => write!(
                f,
                "intent-log record claims {count} lines but the log region holds \
                 at most {capacity_lines}"
            ),
            MediaError::TornEntry { offset } => write!(
                f,
                "sealed intent-log entry targets out-of-range offset {offset}"
            ),
        }
    }
}

impl std::error::Error for MediaError {}

/// Record magic ("PMCKLOG1" as a little-endian u64).
const LOG_MAGIC: u64 = 0x3147_4f4c_4b43_4d50;
/// Bytes of record framing: magic + epoch + count header, crc footer.
const LOG_HEADER: usize = 24;
const LOG_FOOTER: usize = 8;

/// CRC-32 (IEEE 802.3, reflected), bitwise. Media images are small and
/// fences are not the simulation hot loop, so no table is kept.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn read_u64(bytes: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(bytes[off..off + 8].try_into().expect("8 bytes"))
}

/// Fixed-capacity bitset over line indices.
#[derive(Debug, Clone)]
struct LineSet {
    words: Vec<u64>,
}

impl LineSet {
    fn new(lines: usize) -> Self {
        LineSet {
            words: vec![0; lines.div_ceil(64)],
        }
    }
    fn set(&mut self, line: usize) {
        self.words[line / 64] |= 1 << (line % 64);
    }
    fn clear(&mut self, line: usize) {
        self.words[line / 64] &= !(1 << (line % 64));
    }
    fn test(&self, line: usize) -> bool {
        self.words[line / 64] & (1 << (line % 64)) != 0
    }
    fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }
    fn clear_all(&mut self) {
        self.words.fill(0);
    }
}

/// The dual-image persistence domain. See the crate docs for the
/// durability protocol.
#[derive(Debug, Clone)]
pub struct PersistentMedia {
    cfg: PmemConfig,
    /// Bytes in the data region (log region excluded).
    data_len: usize,
    /// Volatile merged view ("CPU cache + WPQ"), data region only.
    staging: Vec<u8>,
    /// What the cells hold: data region, then the log region.
    durable: Vec<u8>,
    log_base: usize,
    log_cap: usize,
    /// Lines dirty in cache (stored, not yet flushed).
    cache: LineSet,
    /// Lines flushed into the WPQ, awaiting a fence.
    wpq: LineSet,
    /// Reusable record-encode buffer (capacity reserved up front so
    /// steady-state fences never allocate).
    log_buf: Vec<u8>,
    epoch: u64,
    fuse: Option<u64>,
    dead: bool,
    steps_taken: u64,
    stats: MediaStats,
}

impl PersistentMedia {
    /// A domain over `data_len` bytes of media (rounded up to whole
    /// lines). The log region is sized for the worst-case record: a
    /// fence covering every line.
    ///
    /// # Panics
    ///
    /// Panics if `data_len == 0` or the torn-chunk size does not evenly
    /// divide the line size.
    pub fn new(data_len: usize, cfg: PmemConfig) -> Self {
        assert!(data_len > 0, "media must hold at least one line");
        assert!(
            cfg.line_bytes > 0
                && cfg.torn_chunk_bytes > 0
                && cfg.line_bytes.is_multiple_of(cfg.torn_chunk_bytes),
            "torn chunk must evenly divide the line size"
        );
        let lb = cfg.line_bytes;
        let data_len = data_len.div_ceil(lb) * lb;
        let lines = data_len / lb;
        let log_cap = LOG_HEADER + lines * (8 + lb) + LOG_FOOTER;
        PersistentMedia {
            cfg,
            data_len,
            staging: vec![0; data_len],
            durable: vec![0; data_len + log_cap],
            log_base: data_len,
            log_cap,
            cache: LineSet::new(lines),
            wpq: LineSet::new(lines),
            log_buf: Vec::with_capacity(log_cap),
            epoch: 0,
            fuse: None,
            dead: false,
            steps_taken: 0,
            stats: MediaStats::default(),
        }
    }

    /// Bytes in the data region.
    pub fn data_len(&self) -> usize {
        self.data_len
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        self.cfg.line_bytes
    }

    /// Lines in the data region.
    pub fn lines(&self) -> usize {
        self.data_len / self.cfg.line_bytes
    }

    /// Fence epoch (incremented by every non-empty fence).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cumulative counters.
    pub fn stats(&self) -> &MediaStats {
        &self.stats
    }

    /// The volatile merged view.
    pub fn staging(&self) -> &[u8] {
        &self.staging
    }

    /// The durable data region (what survives a power cut, before
    /// log replay).
    pub fn durable_data(&self) -> &[u8] {
        &self.durable[..self.data_len]
    }

    /// Stores `src` at byte offset `off` in the volatile view, marking
    /// the touched lines cache-dirty.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the data region.
    pub fn write(&mut self, off: usize, src: &[u8]) {
        assert!(off + src.len() <= self.data_len, "write beyond data region");
        if src.is_empty() {
            return;
        }
        self.staging[off..off + src.len()].copy_from_slice(src);
        let lb = self.cfg.line_bytes;
        for line in (off / lb)..=((off + src.len() - 1) / lb) {
            self.cache.set(line);
        }
    }

    /// Stores `src` at byte offset `off`, dirtying only the lines whose
    /// bytes actually change. The re-stage form of
    /// [`PersistentMedia::write`]: callers that re-stage a whole region
    /// every epoch use this so untouched lines stay clean and a
    /// no-change epoch fences nothing. Returns the number of lines
    /// marked dirty by this call.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the data region.
    pub fn stage(&mut self, off: usize, src: &[u8]) -> u64 {
        assert!(off + src.len() <= self.data_len, "write beyond data region");
        if src.is_empty() {
            return 0;
        }
        let lb = self.cfg.line_bytes;
        let mut dirtied = 0;
        for line in (off / lb)..=((off + src.len() - 1) / lb) {
            let ls = (line * lb).max(off);
            let le = ((line + 1) * lb).min(off + src.len());
            if self.staging[ls..le] != src[ls - off..le - off] {
                self.staging[ls..le].copy_from_slice(&src[ls - off..le - off]);
                self.cache.set(line);
                dirtied += 1;
            }
        }
        dirtied
    }

    /// Reads from the volatile view into `dst`.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the data region.
    pub fn read(&self, off: usize, dst: &mut [u8]) {
        dst.copy_from_slice(&self.staging[off..off + dst.len()]);
    }

    /// Moves cache-dirty lines overlapping `[off, off + len)` into the
    /// WPQ. Returns the number of lines moved.
    pub fn flush_range(&mut self, off: usize, len: usize) -> u64 {
        self.stats.flushes += 1;
        if len == 0 {
            return 0;
        }
        let lb = self.cfg.line_bytes;
        let end = (off + len).min(self.data_len);
        let mut moved = 0;
        for line in (off / lb)..=((end - 1) / lb) {
            if self.cache.test(line) {
                self.cache.clear(line);
                self.wpq.set(line);
                moved += 1;
            }
        }
        self.stats.lines_flushed += moved;
        moved
    }

    /// Moves every cache-dirty line into the WPQ.
    pub fn flush_all(&mut self) -> u64 {
        self.stats.flushes += 1;
        let mut moved = 0;
        for w in 0..self.cache.words.len() {
            let mut word = self.cache.words[w];
            self.wpq.words[w] |= word;
            while word != 0 {
                word &= word - 1;
                moved += 1;
            }
        }
        self.cache.clear_all();
        self.stats.lines_flushed += moved;
        moved
    }

    /// Commits the WPQ to durable media, all-or-nothing: seals a redo
    /// record in the log region, then persists each pending line. An
    /// empty WPQ is a no-op fence (no record, no epoch bump).
    pub fn fence(&mut self) -> FenceReport {
        self.stats.fences += 1;
        let lines = self.wpq.count();
        if lines == 0 {
            return FenceReport::default();
        }
        let lb = self.cfg.line_bytes;
        self.log_buf.clear();
        push_u64(&mut self.log_buf, LOG_MAGIC);
        push_u64(&mut self.log_buf, self.epoch);
        push_u64(&mut self.log_buf, lines);
        for w in 0..self.wpq.words.len() {
            let mut word = self.wpq.words[w];
            while word != 0 {
                let line = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                push_u64(&mut self.log_buf, (line * lb) as u64);
                self.log_buf
                    .extend_from_slice(&self.staging[line * lb..(line + 1) * lb]);
            }
        }
        let crc = crc32(&self.log_buf);
        push_u64(&mut self.log_buf, crc as u64);
        debug_assert!(self.log_buf.len() <= self.log_cap, "log region overflow");
        let log_bytes = self.log_buf.len() as u64;
        self.stats.log_records += 1;
        self.stats.log_bytes += log_bytes;
        self.persist_log();
        for w in 0..self.wpq.words.len() {
            let mut word = self.wpq.words[w];
            while word != 0 {
                let line = w * 64 + word.trailing_zeros() as usize;
                word &= word - 1;
                self.persist_line(line);
            }
        }
        self.wpq.clear_all();
        self.epoch += 1;
        FenceReport { lines, log_bytes }
    }

    /// `flush_all` followed by `fence`: the virtio-pmem flush command.
    pub fn drain(&mut self) -> FenceReport {
        let flushed = self.flush_all();
        let mut report = self.fence();
        report.lines = report.lines.max(flushed);
        report
    }

    /// Consumes one durable chunk-write budget step. Returns `false`
    /// once the fuse has burned out (the media is dead).
    fn step_allowed(&mut self) -> bool {
        if self.dead {
            return false;
        }
        if let Some(remaining) = self.fuse.as_mut() {
            if *remaining == 0 {
                self.dead = true;
                return false;
            }
            *remaining -= 1;
        }
        self.steps_taken += 1;
        true
    }

    /// Persists the encoded record into the durable log region,
    /// chunk by chunk.
    fn persist_log(&mut self) {
        let ch = self.cfg.torn_chunk_bytes;
        let len = self.log_buf.len();
        let mut at = 0;
        while at < len {
            if !self.step_allowed() {
                return;
            }
            let n = ch.min(len - at);
            self.durable[self.log_base + at..self.log_base + at + n]
                .copy_from_slice(&self.log_buf[at..at + n]);
            at += n;
        }
    }

    /// Persists one staged line into the durable data region, chunk by
    /// chunk; a mid-line fuse cut leaves the line torn.
    fn persist_line(&mut self, line: usize) {
        let lb = self.cfg.line_bytes;
        let ch = self.cfg.torn_chunk_bytes;
        let base = line * lb;
        let mut written = 0;
        while written < lb {
            if !self.step_allowed() {
                if written > 0 {
                    self.stats.torn_lines += 1;
                }
                return;
            }
            self.durable[base + written..base + written + ch]
                .copy_from_slice(&self.staging[base + written..base + written + ch]);
            written += ch;
        }
    }

    /// Arms the crash fuse: the next `steps` durable chunk writes
    /// succeed, then the media dies. `steps == 0` dies on the first
    /// durable write.
    pub fn arm_fuse(&mut self, steps: u64) {
        self.fuse = Some(steps);
    }

    /// Disarms the fuse (the media stays alive indefinitely).
    pub fn disarm_fuse(&mut self) {
        self.fuse = None;
    }

    /// Whether the fuse has burned out.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Durable chunk writes performed so far (enumerating this after an
    /// uncut run of an operation yields the campaign's cut-point space).
    pub fn steps_taken(&self) -> u64 {
        self.steps_taken
    }

    /// Cuts power: every line not committed by a fence is lost. Returns
    /// the number of volatile lines discarded. The staging image is
    /// rebuilt by [`PersistentMedia::recover`]; power is considered
    /// restored (the fuse resets).
    pub fn power_cut(&mut self) -> u64 {
        let lost = self.cache.count() + self.wpq.count();
        self.cache.clear_all();
        self.wpq.clear_all();
        self.fuse = None;
        self.dead = false;
        lost
    }

    /// Replays the intent log onto the durable image, then rebuilds the
    /// volatile view from it. Idempotent.
    ///
    /// # Errors
    ///
    /// [`MediaError`] when the log is structurally corrupt (not merely
    /// torn — a torn record is ignored and the pre-fence image stands).
    pub fn recover(&mut self) -> Result<ReplayOutcome, MediaError> {
        let outcome = self.replay_log()?;
        self.staging.copy_from_slice(&self.durable[..self.data_len]);
        self.cache.clear_all();
        self.wpq.clear_all();
        self.stats.recoveries += 1;
        self.stats.lines_redone += outcome.lines_redone;
        Ok(outcome)
    }

    fn replay_log(&mut self) -> Result<ReplayOutcome, MediaError> {
        let lb = self.cfg.line_bytes;
        let log = &self.durable[self.log_base..];
        if read_u64(log, 0) != LOG_MAGIC {
            return Ok(ReplayOutcome::default());
        }
        let count = read_u64(log, 16);
        let capacity_lines = ((self.log_cap - LOG_HEADER - LOG_FOOTER) / (8 + lb)) as u64;
        if count > capacity_lines {
            return Err(MediaError::UnsealedRecord {
                count,
                capacity_lines,
            });
        }
        let body_len = LOG_HEADER + count as usize * (8 + lb);
        let sealed = read_u64(log, body_len) as u32;
        if crc32(&log[..body_len]) != sealed {
            // Torn record: the fence never committed; pre-state stands.
            return Ok(ReplayOutcome::default());
        }
        // Validate every entry before applying any, so a corrupt record
        // cannot half-apply.
        for i in 0..count as usize {
            let off = read_u64(log, LOG_HEADER + i * (8 + lb));
            if !off.is_multiple_of(lb as u64) || off + lb as u64 > self.data_len as u64 {
                return Err(MediaError::TornEntry { offset: off });
            }
        }
        for i in 0..count as usize {
            let entry = LOG_HEADER + i * (8 + lb);
            let off = read_u64(&self.durable[self.log_base..], entry) as usize;
            let src = self.log_base + entry + 8;
            self.durable.copy_within(src..src + lb, off);
        }
        Ok(ReplayOutcome {
            records_replayed: 1,
            lines_redone: count,
        })
    }

    /// Applies a physical cell disturbance: XORs `mask` into both the
    /// durable image and the staging view at `off` (staging mirrors the
    /// live arrays the engine already disturbed). Consumes no fuse
    /// steps and ignores the flush protocol — scars survive power cuts.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the data region.
    pub fn scar_xor(&mut self, off: usize, mask: &[u8]) {
        assert!(off + mask.len() <= self.data_len, "scar beyond data region");
        for (i, &m) in mask.iter().enumerate() {
            if !self.dead {
                self.durable[off + i] ^= m;
            }
            self.staging[off + i] ^= m;
        }
    }

    /// Flips one stored bit: `bit` indexes bits from byte offset `off`.
    pub fn scar_flip_bit(&mut self, off: usize, bit: usize) {
        let byte = off + bit / 8;
        assert!(byte < self.data_len, "scar beyond data region");
        let mask = 1u8 << (bit % 8);
        if !self.dead {
            self.durable[byte] ^= mask;
        }
        self.staging[byte] ^= mask;
    }

    /// Corrupts the durable log region directly (crafted-corruption
    /// hook for recovery-error tests).
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the log region.
    pub fn scar_log(&mut self, off: usize, bytes: &[u8]) {
        assert!(off + bytes.len() <= self.log_cap, "scar beyond log region");
        self.durable[self.log_base + off..self.log_base + off + bytes.len()].copy_from_slice(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn media(lines: usize) -> PersistentMedia {
        PersistentMedia::new(lines * 64, PmemConfig::default())
    }

    fn cut_and_recover(m: &mut PersistentMedia) -> ReplayOutcome {
        m.power_cut();
        m.recover().expect("recovery must succeed")
    }

    #[test]
    fn unflushed_writes_die_with_the_power() {
        let mut m = media(4);
        m.write(0, &[0xAA; 64]);
        assert_eq!(m.staging()[0], 0xAA);
        assert_eq!(m.durable_data()[0], 0);
        cut_and_recover(&mut m);
        assert_eq!(m.staging()[0], 0, "unflushed line must not survive");
    }

    #[test]
    fn stage_skips_unchanged_lines() {
        let mut m = media(4);
        m.write(0, &[0xAA; 128]);
        m.drain();
        // Re-staging identical bytes dirties nothing: the next fence is
        // empty and burns no fuse steps.
        assert_eq!(m.stage(0, &[0xAA; 128]), 0);
        let r = m.drain();
        assert_eq!(r.lines, 0);
        assert_eq!(r.log_bytes, 0);
        // One changed byte dirties exactly its line.
        let mut img = [0xAA; 128];
        img[70] = 0xBB;
        assert_eq!(m.stage(0, &img), 1);
        assert_eq!(m.drain().lines, 1);
        assert_eq!(m.staging()[70], 0xBB);
        assert_eq!(m.durable_data()[70], 0xBB);
    }

    #[test]
    fn flush_without_fence_is_not_durable() {
        let mut m = media(4);
        m.write(64, &[0x55; 64]);
        assert_eq!(m.flush_range(64, 64), 1);
        cut_and_recover(&mut m);
        assert_eq!(m.staging()[64], 0, "WPQ content needs a fence to survive");
    }

    #[test]
    fn drain_survives_power_cut() {
        let mut m = media(4);
        m.write(0, &[1; 64]);
        m.write(128, &[2; 64]);
        let report = m.drain();
        assert_eq!(report.lines, 2);
        assert!(report.log_bytes > 0);
        assert_eq!(m.epoch(), 1);
        let replay = cut_and_recover(&mut m);
        // Clean-shutdown replay re-applies the sealed record (idempotent).
        assert_eq!(replay.records_replayed, 1);
        assert_eq!(m.staging()[0], 1);
        assert_eq!(m.staging()[128], 2);
    }

    #[test]
    fn empty_fence_writes_no_record() {
        let mut m = media(2);
        let report = m.fence();
        assert_eq!(report, FenceReport::default());
        assert_eq!(m.epoch(), 0);
        assert_eq!(m.stats().log_records, 0);
    }

    #[test]
    fn only_fenced_epoch_survives() {
        let mut m = media(2);
        m.write(0, &[1; 64]);
        m.drain();
        m.write(0, &[2; 64]);
        m.flush_range(0, 64); // flushed, never fenced
        cut_and_recover(&mut m);
        assert_eq!(m.staging()[0], 1, "pre-fence epoch must stand");
    }

    /// Every possible cut point inside a two-line drain recovers to
    /// exactly the pre-fence or post-fence image — never a mixture.
    #[test]
    fn every_cut_point_is_all_or_nothing() {
        // Dry run to learn the step budget.
        let mut dry = media(4);
        dry.write(0, &[0x11; 64]);
        dry.write(192, &[0x22; 64]);
        dry.drain();
        let steps = dry.steps_taken();
        assert!(steps > 0);

        for cut in 0..=steps {
            let mut m = media(4);
            m.write(0, &[0x11; 64]);
            m.write(192, &[0x22; 64]);
            m.arm_fuse(cut);
            m.drain();
            cut_and_recover(&mut m);
            let a = m.staging()[0];
            let b = m.staging()[192];
            assert!(
                (a, b) == (0, 0) || (a, b) == (0x11, 0x22),
                "cut {cut}/{steps}: recovered to a mixed image ({a:#x}, {b:#x})"
            );
        }
        // A cut after the final step must be the post image.
        let mut m = media(4);
        m.write(0, &[0x11; 64]);
        m.write(192, &[0x22; 64]);
        m.arm_fuse(steps);
        m.drain();
        assert!(!m.is_dead());
        cut_and_recover(&mut m);
        assert_eq!((m.staging()[0], m.staging()[192]), (0x11, 0x22));
    }

    #[test]
    fn mid_data_cut_tears_the_raw_line_but_replay_heals_it() {
        let mut m = media(1);
        let mut pattern = [0u8; 64];
        for (i, b) in pattern.iter_mut().enumerate() {
            *b = i as u8 | 0x80;
        }
        m.write(0, &pattern);
        // Let the whole record persist plus one data chunk: the durable
        // line is torn (one new chunk, rest old zeroes) until replay.
        let mut probe = media(1);
        probe.write(0, &pattern);
        probe.drain();
        let record_chunks = probe.stats().log_bytes.div_ceil(8);
        m.arm_fuse(record_chunks + 1);
        m.drain();
        assert!(m.is_dead());
        assert_eq!(m.stats().torn_lines, 1);
        assert_eq!(&m.durable_data()[..8], &pattern[..8], "first chunk landed");
        assert_eq!(m.durable_data()[63], 0, "last chunk did not");
        cut_and_recover(&mut m);
        assert_eq!(m.staging(), &pattern[..], "sealed record redoes the line");
    }

    #[test]
    fn second_fence_overwrites_the_record() {
        let mut m = media(4);
        m.write(0, &[1; 64]);
        m.drain();
        m.write(64, &[2; 64]);
        m.drain();
        let replay = cut_and_recover(&mut m);
        assert_eq!(replay.lines_redone, 1, "only the last record is live");
        assert_eq!(m.staging()[0], 1);
        assert_eq!(m.staging()[64], 2);
    }

    #[test]
    fn scars_survive_power_cuts_and_skip_the_flush_protocol() {
        let mut m = media(2);
        m.write(0, &[0xF0; 64]);
        m.drain();
        // Scar a line *not* covered by the live record: replay rewrites
        // recorded lines (healing their scars), but untouched cells keep
        // their corruption across the cut.
        m.scar_xor(64, &[0x0F]);
        assert_eq!(m.staging()[64], 0x0F, "staging mirrors the disturbance");
        cut_and_recover(&mut m);
        assert_eq!(m.staging()[64], 0x0F, "cell corruption is physical");
        m.scar_flip_bit(64, 3);
        assert_eq!(m.durable_data()[64], 0x07);
    }

    #[test]
    fn replay_heals_scars_on_lines_the_live_record_covers() {
        let mut m = media(2);
        m.write(0, &[0xF0; 64]);
        m.drain();
        m.scar_xor(0, &[0x0F]);
        cut_and_recover(&mut m);
        assert_eq!(
            m.staging()[0],
            0xF0,
            "redo replay rewrites the recorded line, undoing the scar"
        );
    }

    #[test]
    fn recovery_is_idempotent() {
        let mut m = media(3);
        m.write(0, &[7; 64]);
        m.write(64, &[9; 64]);
        m.drain();
        cut_and_recover(&mut m);
        let first: Vec<u8> = m.staging().to_vec();
        let replay = m.recover().unwrap();
        assert_eq!(replay.records_replayed, 1);
        assert_eq!(m.staging(), &first[..]);
    }

    #[test]
    fn bogus_count_is_an_unsealed_record() {
        let mut m = media(2);
        m.write(0, &[1; 64]);
        m.drain();
        // Keep the magic, blow up the count field (offset 16).
        m.scar_log(16, &u64::MAX.to_le_bytes());
        m.power_cut();
        match m.recover() {
            Err(MediaError::UnsealedRecord { count, .. }) => assert_eq!(count, u64::MAX),
            other => panic!("expected UnsealedRecord, got {other:?}"),
        }
    }

    #[test]
    fn sealed_record_with_bad_offset_is_a_torn_entry() {
        let mut m = media(2);
        // Hand-craft a sealed record whose single entry points past the
        // data region.
        let mut rec = Vec::new();
        push_u64(&mut rec, LOG_MAGIC);
        push_u64(&mut rec, 0);
        push_u64(&mut rec, 1);
        push_u64(&mut rec, (m.data_len() + 64) as u64);
        rec.extend_from_slice(&[0u8; 64]);
        let crc = crc32(&rec);
        push_u64(&mut rec, crc as u64);
        m.scar_log(0, &rec);
        m.power_cut();
        match m.recover() {
            Err(MediaError::TornEntry { offset }) => {
                assert_eq!(offset as usize, m.data_len() + 64);
            }
            other => panic!("expected TornEntry, got {other:?}"),
        }
    }

    #[test]
    fn torn_record_is_ignored_not_an_error() {
        let mut m = media(2);
        m.write(0, &[3; 64]);
        m.drain();
        m.write(64, &[4; 64]);
        // Cut inside the record write of the second fence, after the
        // epoch chunk has landed: the mixed old/new record bytes fail
        // the CRC seal. (Cutting after only the magic chunk would leave
        // the old record byte-identical — and correctly still sealed.)
        m.arm_fuse(2);
        m.drain();
        let replay = cut_and_recover(&mut m);
        assert_eq!(replay.records_replayed, 0, "torn record must be ignored");
        assert_eq!(m.staging()[0], 3, "first fence epoch stands");
        assert_eq!(m.staging()[64], 0);
    }

    #[test]
    fn steady_state_fence_does_not_allocate_beyond_capacity() {
        let mut m = media(8);
        for round in 0..10u8 {
            for line in 0..8usize {
                m.write(line * 64, &[round; 64]);
            }
            m.drain();
        }
        assert_eq!(m.log_buf.capacity(), m.log_cap);
        assert_eq!(m.epoch(), 10);
    }

    #[test]
    fn flush_range_only_moves_overlapping_dirty_lines() {
        let mut m = media(4);
        m.write(0, &[1; 64]);
        m.write(128, &[2; 64]);
        assert_eq!(m.flush_range(128, 64), 1);
        m.fence();
        cut_and_recover(&mut m);
        assert_eq!(m.staging()[128], 2, "flushed+fenced line survives");
        assert_eq!(m.staging()[0], 0, "cache-only line does not");
    }
}
