//! `pm_txn`: the WHISPER `hashmap` trace on one persistent proposal
//! `Stack`, called directly, on clean media.
//!
//! The write path (bitwise-sum writes) and the persistence domain
//! (flush, intent log, recovery) do almost all the work; there is no
//! transport and no decode beyond clean reads. Every [`CUT_EVERY`]th
//! fence is replaced by a power cut and a recovery, after which every
//! block must read back as it was at the last flush (blocks written
//! since may read either value).

use std::time::Instant;

use pmck_core::{
    ChipkillConfig, CoreError, LayerId, PmemConfig, Request, Response, Stack, StackBuilder,
};
use pmck_rt::rng::{stream_seed, Rng, SmallRng};

use crate::e2e::E2e;
use crate::layers::{Snapshot, Tracing};
use crate::mapping::{chip_deltas, TraceMapper};
use crate::report::Digest;
use crate::timed::{Kind, Layer, Span};
use crate::workload::{Until, Workload};

/// Blocks in the rank: far above the ~3 lines dirtied per fence, since
/// a flush restages the whole image and its cost grows with capacity.
pub const BLOCKS: u64 = 4096;
/// Fences between power cuts.
pub const CUT_EVERY: u64 = 256;
/// Requests per round; the clock is read between rounds.
const ROUND: u64 = 1024;

pub struct PmTxn {
    stack: Stack,
    mapper: TraceMapper,
    /// Each block's value as of the last successful flush.
    durable: Vec<[u8; 64]>,
    /// Blocks written since the last flush, and their flags.
    unflushed: Vec<u64>,
    is_unflushed: Vec<bool>,
    digest: Digest,
    attempted: u64,
    failed: u64,
    next_id: u64,
}

impl Workload for PmTxn {
    const RECOVERY: &'static str = "power cut + recover";
    const CORE_UNITS: u64 = 1;

    /// Builds the stack and prefills every block with random data
    /// through the bitwise-sum path (old = 0), then flushes. Spans come
    /// from the benchmark's own calls, so no wrapper is installed.
    fn setup(seed: u64, _epoch: Option<Instant>, _e2e: &mut E2e) -> Result<Self, String> {
        let stack = StackBuilder::proposal(BLOCKS, ChipkillConfig::default())
            .persistent(PmemConfig::default())
            .seed(stream_seed(seed, 2))
            .build();
        let mut sys = PmTxn {
            stack,
            mapper: TraceMapper::new("hashmap", BLOCKS, seed),
            durable: Vec::new(),
            unflushed: Vec::new(),
            is_unflushed: vec![false; BLOCKS as usize],
            digest: Digest::default(),
            attempted: 0,
            failed: 0,
            next_id: 0,
        };
        let mut rng = SmallRng::seed_from_u64(stream_seed(seed, 3));
        for addr in 0..BLOCKS {
            let mut data = [0u8; 64];
            rng.fill_bytes(&mut data);
            sys.stack
                .submit(&Request::WriteSum { addr, data })
                .map_err(|e| format!("prefill write {addr}: {e}"))?;
            sys.mapper.resync(addr, data);
        }
        sys.stack
            .submit(&Request::Flush)
            .map_err(|e| format!("prefill flush: {e}"))?;
        sys.durable = (0..BLOCKS).map(|a| *sys.mapper.mirror().value(a)).collect();
        Ok(sys)
    }

    fn run(
        &mut self,
        until: Until,
        e2e: &mut E2e,
        mut tracing: Option<&mut Tracing>,
    ) -> Result<u64, String> {
        self.warm_up()?;
        let pmem_before = self.stack.layer(LayerId::Pmem).unwrap_or_default();
        let engine_before = self.stack.core_stats();
        e2e.begin_rounds();
        let start = Instant::now();
        let mut excluded_ns = 0u64;
        let mut rounds = 0u64;
        while !until.reached(start, rounds) {
            let (round_start, ops, excluded) = (Instant::now(), e2e.ops, excluded_ns);
            for _ in 0..ROUND {
                let req = self.mapper.next_request();
                if req == Request::Flush && self.mapper.fences().is_multiple_of(CUT_EVERY) {
                    excluded_ns += self.power_cycle(e2e, tracing.as_deref_mut())?;
                } else {
                    let _ = self.execute(req, e2e, tracing.as_deref_mut())?;
                }
            }
            let ns = round_start.elapsed().as_nanos() as u64 - (excluded_ns - excluded);
            e2e.round(e2e.ops - ops, ns);
            rounds += 1;
        }
        e2e.wall_ns = start.elapsed().as_nanos() as u64 - excluded_ns;
        if let Some(t) = tracing {
            let pmem = self.stack.layer(LayerId::Pmem).unwrap_or_default();
            let agg = &mut t.agg;
            agg.wall_ns = e2e.wall_ns;
            agg.e2e_ns = e2e.wall_ns;
            agg.log_bytes = pmem.log_bytes - pmem_before.log_bytes;
            agg.engine = crate::report::core_delta(self.stack.core_stats(), engine_before);
        }
        Ok(rounds)
    }

    /// The closing `Verify` plus a full read-back against the mirror.
    fn close(mut self) -> Result<Snapshot, String> {
        self.attempted += 1;
        match self.stack.submit(&Request::Verify) {
            Ok(Response::Verified(true)) => {}
            other => return Err(format!("closing verify: {other:?}")),
        }
        for addr in 0..BLOCKS {
            let got = self.read_back(addr)?;
            if !self.mapper.mirror().accepts(addr, &got) {
                return Err(format!("block {addr} holds wrong data at close"));
            }
        }
        Ok(Snapshot {
            digest: self.digest.value(),
            attempted: self.attempted,
            failed: self.failed,
            layers: vec![self.stack.layers().to_vec()],
            engine: vec![self.stack.core_stats()],
        })
    }
}

impl PmTxn {
    /// Runs the trace up to its first fence (the hashmap trace holds
    /// back its first write-backs), untimed.
    fn warm_up(&mut self) -> Result<(), String> {
        let mut sink = E2e::default();
        while self.mapper.fences() == 0 {
            let req = self.mapper.next_request();
            let _ = self.execute(req, &mut sink, None)?;
        }
        Ok(())
    }

    /// Submits one request, timing it, and checks its answer.
    fn execute(
        &mut self,
        req: Request,
        e2e: &mut E2e,
        tracing: Option<&mut Tracing>,
    ) -> Result<Result<Response, CoreError>, String> {
        let id = self.next_id;
        self.next_id += 1;
        let t0 = Instant::now();
        let start_ns = tracing.as_ref().map_or(0, |t| t.now());
        let res = self.stack.submit(&req);
        let end_ns = tracing.as_ref().map_or(0, |t| t.now());
        let ns = t0.elapsed().as_nanos() as u64;
        self.attempted += 1;
        e2e.ops += 1;
        self.digest.add(&res);
        if let Some(t) = tracing {
            let span = Span {
                id,
                layer: Layer::Core,
                unit: 0,
                kind: Kind::of(&req, &res),
                start_ns,
                end_ns,
            };
            t.agg.attributed_ns += span.ns();
            t.span(span);
            match (&req, &res) {
                (Request::WriteSum { data, .. }, Ok(_)) => {
                    t.agg.chip_deltas += chip_deltas(data);
                    t.agg.user_bytes += 64;
                }
                (Request::Write { .. }, Ok(_)) => t.agg.user_bytes += 64,
                (_, Ok(Response::Flushed { lines })) => t.agg.flush_lines += lines,
                (_, Ok(Response::Recovered(r))) => {
                    t.agg.recovers += 1;
                    t.agg.lines_redone += r.lines_redone;
                }
                _ => {}
            }
        }
        match (&req, &res) {
            (Request::Read(addr), Ok(Response::Read(out))) => {
                if !self.mapper.mirror().accepts(*addr, &out.data) {
                    return Err(format!("block {addr} read back wrong data"));
                }
                e2e.reads.push(ns);
            }
            (Request::Write { .. } | Request::WriteSum { .. }, r) => {
                self.mapper.write_done(&req, r.is_ok());
                if let Some(addr) = req.addr().filter(|_| r.is_ok()) {
                    if !self.is_unflushed[addr as usize] {
                        self.is_unflushed[addr as usize] = true;
                        self.unflushed.push(addr);
                    }
                }
                e2e.writes.push(ns);
            }
            (Request::Flush, Ok(_)) => {
                for addr in self.unflushed.drain(..) {
                    self.durable[addr as usize] = *self.mapper.mirror().value(addr);
                    self.is_unflushed[addr as usize] = false;
                }
                e2e.flushes.push(ns);
            }
            _ => {}
        }
        if res.is_err() {
            self.failed += 1;
        }
        Ok(res)
    }

    /// A power cut in place of a fence, the recovery, and the
    /// durability check. Returns the check's time, which the measured
    /// phase leaves out.
    fn power_cycle(
        &mut self,
        e2e: &mut E2e,
        mut tracing: Option<&mut Tracing>,
    ) -> Result<u64, String> {
        for req in [Request::PowerCut, Request::Recover] {
            let t0 = Instant::now();
            self.execute(req, e2e, tracing.as_deref_mut())?
                .map_err(|e| format!("{}: {e}", req.kind()))?;
            if req == Request::Recover {
                e2e.recovery_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        let check = Instant::now();
        for addr in 0..BLOCKS {
            let got = self.read_back(addr)?;
            let flushed = &self.durable[addr as usize];
            let ok = &got == flushed
                || (self.is_unflushed[addr as usize] && self.mapper.mirror().accepts(addr, &got));
            if !ok {
                return Err(format!("block {addr} lost flushed data across a power cut"));
            }
            // The CPU cache died with the power: both copies restart
            // from what the media holds.
            self.mapper.resync(addr, got);
            self.durable[addr as usize] = got;
        }
        for addr in self.unflushed.drain(..) {
            self.is_unflushed[addr as usize] = false;
        }
        Ok(check.elapsed().as_nanos() as u64)
    }

    fn read_back(&mut self, addr: u64) -> Result<[u8; 64], String> {
        self.attempted += 1;
        let res = self.stack.submit(&Request::Read(addr));
        self.digest.add(&res);
        match res {
            Ok(Response::Read(out)) => Ok(out.data),
            other => {
                self.failed += 1;
                Err(format!("check read of block {addr}: {other:?}"))
            }
        }
    }
}
