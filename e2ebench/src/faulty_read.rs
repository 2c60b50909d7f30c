//! `faulty_read`: a one-shard `ShardedService` serving reads after an
//! outage.
//!
//! Set-up prefills every block with random data. An outage injects bit
//! errors at [`OUTAGE_RBER`] and runs a timed `BootScrub` broadcast;
//! the media then takes the paper's runtime RBER ([`RUNTIME_RBER`]).
//! After one outage the service serves the loads of the SPLASH `barnes`
//! trace, and every [`OUTAGE_EVERY`]th round of the measured phase ends
//! with another outage, left out of the round's time. The boot scrubs
//! are thus spread over the run, and `recovery_ms` comes from those of
//! the quiet rounds, like every other figure. The client keeps
//! [`WINDOW`] reads in flight and retires them in order, like a core
//! with that many outstanding misses.
//!
//! BCH boot decode, RS correction, VLEW fallback and the ring transport
//! do the work; the write path and persistence do none during the
//! measured phase, so this workload is the no-change control for them.
//! Its `write_*` figures are the prefill writes of set-up.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pmck_core::{
    ChipkillConfig, CoreError, LayerId, LayerStats, Request, Response, ServiceFailure, Stack,
    StackBuilder,
};
use pmck_rt::rng::{stream_seed, Rng, SmallRng};
use pmck_service::{ServiceClient, ShardedService, Ticket};

use crate::e2e::E2e;
use crate::layers::{Snapshot, Tracing};
use crate::mapping::{chip_deltas, TraceMapper};
use crate::report::Digest;
use crate::timed::{since, Kind, Layer, ShardLog, Span, TimedDevice};
use crate::workload::{Until, Workload};

/// One shard, so that the client thread and the shard's worker have a
/// vCPU each on a 2-vCPU host. With two shards, three busy threads
/// shared two vCPUs, and how the scheduler interleaved them moved
/// throughput between runs of one build by up to a factor of 2.8.
pub const SHARDS: usize = 1;
pub const SHARD_BLOCKS: u64 = 8192;
/// Reads in flight.
pub const WINDOW: usize = 16;
/// Bit error rate accumulated over the outage.
pub const OUTAGE_RBER: f64 = 1e-3;
/// Rounds of the measured phase per outage.
pub const OUTAGE_EVERY: u64 = 32;
/// The paper's runtime bit error rate.
pub const RUNTIME_RBER: f64 = 2e-4;
/// Reads per round; the clock is read between rounds.
const ROUND: u64 = 4096;

const BLOCKS: u64 = SHARDS as u64 * SHARD_BLOCKS;

struct Pending {
    ticket: Ticket,
    id: u64,
    req: Request,
    /// Submission time, in ns since the epoch.
    t0_ns: u64,
}

/// A retired request waiting for its shard span.
#[derive(Clone, Copy)]
struct Retired {
    id: u64,
    t0_ns: u64,
    t1_ns: u64,
    measured: bool,
}

/// Pairs retired requests with the spans their shards recorded. Each
/// shard runs one client's requests in submission order, so the n-th
/// span of a shard belongs to the n-th request sent to it.
struct Matcher {
    logs: Vec<Arc<Mutex<ShardLog>>>,
    retired: Vec<VecDeque<Retired>>,
    spans: Vec<VecDeque<Span>>,
    /// Per shard: end of the last interval the shard had work.
    covered_to: Vec<u64>,
}

impl Matcher {
    fn new(logs: Vec<Arc<Mutex<ShardLog>>>) -> Self {
        let n = logs.len();
        Matcher {
            logs,
            retired: (0..n).map(|_| VecDeque::new()).collect(),
            spans: (0..n).map(|_| VecDeque::new()).collect(),
            covered_to: vec![0; n],
        }
    }

    fn layers(&self) -> Vec<Vec<(LayerId, LayerStats)>> {
        self.logs
            .iter()
            .map(|l| l.lock().expect("shard log lock poisoned").layers.clone())
            .collect()
    }

    /// Folds every pair available so far into `tracing`. `own` holds
    /// the client's own-code intervals: while a request the shard has
    /// finished waits for the client to get round to it, its time is
    /// the benchmark's, not the transport's. Intervals that can no
    /// longer overlap a request (none in flight started before
    /// `oldest_t0`) are dropped.
    fn fold(&mut self, tracing: &mut Tracing, own: &mut VecDeque<(u64, u64)>, oldest_t0: u64) {
        for s in 0..self.logs.len() {
            let taken =
                std::mem::take(&mut self.logs[s].lock().expect("shard log lock poisoned").spans);
            self.spans[s].extend(taken);
            while !self.spans[s].is_empty() && !self.retired[s].is_empty() {
                let mut span = self.spans[s].pop_front().expect("checked non-empty");
                let done = self.retired[s].pop_front().expect("checked non-empty");
                match span.kind {
                    Kind::BootScrub => tracing.agg.boot_ns += span.ns(),
                    // The prefill: this workload's only writes.
                    Kind::WriteSum => tracing.agg.write_sum.push(span.ns()),
                    _ => {}
                }
                if !done.measured {
                    continue;
                }
                span.id = done.id;
                let agg = &mut tracing.agg;
                let latency = done.t1_ns.saturating_sub(done.t0_ns);
                let ret = done.t1_ns.saturating_sub(span.end_ns);
                let client = overlap(own, span.end_ns, done.t1_ns).min(ret);
                agg.e2e_ns += latency;
                agg.attributed_ns += latency - client;
                agg.queue_wait
                    .push(span.start_ns.saturating_sub(done.t0_ns));
                agg.shard_exec.push(span.ns());
                agg.ret.push(ret - client);
                // Time the shard had this request queued or running.
                let from = done.t0_ns.max(self.covered_to[s]);
                agg.shard_occupied_ns += span.end_ns.saturating_sub(from);
                self.covered_to[s] = self.covered_to[s].max(span.end_ns);
                tracing.span(Span {
                    id: done.id,
                    layer: Layer::Service,
                    unit: s as u8,
                    kind: span.kind,
                    start_ns: done.t0_ns,
                    end_ns: done.t1_ns,
                });
                tracing.span(span);
            }
        }
        let oldest = (self.retired.iter())
            .filter_map(|q| q.front().map(|r| r.t0_ns))
            .fold(oldest_t0, u64::min);
        while own.front().is_some_and(|&(_, end)| end <= oldest) {
            own.pop_front();
        }
    }
}

/// Length of `[from, to)` covered by the sorted, disjoint `intervals`.
fn overlap(intervals: &VecDeque<(u64, u64)>, from: u64, to: u64) -> u64 {
    let first = intervals.partition_point(|&(_, end)| end <= from);
    intervals
        .range(first..)
        .take_while(|&&(start, _)| start < to)
        .map(|&(start, end)| end.min(to) - start.max(from))
        .sum()
}

pub struct FaultyRead {
    svc: ShardedService,
    client: ServiceClient,
    mapper: TraceMapper,
    inflight: VecDeque<Pending>,
    epoch: Instant,
    matcher: Option<Matcher>,
    /// Whether retired requests belong to the measured phase.
    measuring: bool,
    digest: Digest,
    attempted: u64,
    failed: u64,
    backpressure: u64,
    next_id: u64,
    /// Time the client spent inside service calls while measuring.
    inside_ns: u64,
    /// The client's own-code intervals while measuring a traced run:
    /// from the end of one service call to the start of the next.
    own: VecDeque<(u64, u64)>,
    last_call_end: u64,
    /// Chip deltas the prefill writes carried.
    prefill_chip_deltas: u64,
}

impl Workload for FaultyRead {
    const RECOVERY: &'static str = "boot scrub";
    const CORE_UNITS: u64 = SHARDS as u64;

    /// Builds the service (timed shards when `epoch` is given) and
    /// prefills every block through the bitwise-sum path (old = 0).
    fn setup(seed: u64, epoch: Option<Instant>, e2e: &mut E2e) -> Result<Self, String> {
        let stacks: Vec<Stack> = (0..SHARDS)
            .map(|s| {
                StackBuilder::proposal(SHARD_BLOCKS, ChipkillConfig::default())
                    .seed(stream_seed(stream_seed(seed, 2), s as u64))
                    .build()
            })
            .collect();
        let (stacks, matcher) = match epoch {
            None => (stacks, None),
            Some(epoch) => {
                let (outer, logs): (Vec<Stack>, Vec<_>) = stacks
                    .into_iter()
                    .enumerate()
                    .map(|(s, st)| TimedDevice::install(st, s as u8, epoch))
                    .unzip();
                (outer, Some(Matcher::new(logs)))
            }
        };
        let mut svc = ShardedService::from_stacks_with_clients(stacks, 1);
        let client = svc.take_client().expect("one client lane provisioned");
        let mut sys = FaultyRead {
            svc,
            client,
            mapper: TraceMapper::new("barnes", BLOCKS, seed).loads_only(),
            inflight: VecDeque::with_capacity(WINDOW),
            epoch: epoch.unwrap_or_else(Instant::now),
            matcher,
            measuring: false,
            digest: Digest::default(),
            attempted: 0,
            failed: 0,
            backpressure: 0,
            next_id: 0,
            inside_ns: 0,
            own: VecDeque::new(),
            last_call_end: 0,
            prefill_chip_deltas: 0,
        };
        let mut rng = SmallRng::seed_from_u64(stream_seed(seed, 3));
        for addr in 0..BLOCKS {
            let mut data = [0u8; 64];
            rng.fill_bytes(&mut data);
            sys.prefill_chip_deltas += chip_deltas(&data);
            sys.mapper.resync(addr, data);
            sys.submit(Request::WriteSum { addr, data }, e2e)?;
        }
        sys.drain(e2e)?;
        if sys.failed > 0 {
            return Err(format!("{} prefill writes failed", sys.failed));
        }
        Ok(sys)
    }

    /// An outage, then the measured phase with an outage after every
    /// [`OUTAGE_EVERY`]th round.
    fn run(
        &mut self,
        until: Until,
        e2e: &mut E2e,
        mut tracing: Option<&mut Tracing>,
    ) -> Result<u64, String> {
        self.outage(e2e, tracing.as_deref_mut())?;
        // One untimed round lets the workers and caches settle.
        let mut sink = E2e::default();
        for _ in 0..ROUND {
            let req = self.mapper.next_request();
            self.submit(req, &mut sink)?;
        }
        self.drain(&mut sink)?;
        self.fold(tracing.as_deref_mut());
        let engine_before = self.svc.core_stats();
        self.measuring = true;
        self.last_call_end = since(self.epoch);
        e2e.begin_rounds();
        let start = Instant::now();
        let mut excluded_ns = 0u64;
        let mut rounds = 0u64;
        while !until.reached(start, rounds) {
            let (round_start, ops) = (Instant::now(), e2e.ops);
            for _ in 0..ROUND {
                let req = self.mapper.next_request();
                self.submit(req, e2e)?;
            }
            // Each round ends with an empty pipeline, so the traced run
            // folds its spans while no request is waiting on the client.
            self.drain(e2e)?;
            let ns = round_start.elapsed().as_nanos() as u64;
            rounds += 1;
            if rounds.is_multiple_of(OUTAGE_EVERY) {
                let outage_start = Instant::now();
                self.measuring = false;
                self.outage(e2e, tracing.as_deref_mut())?;
                self.measuring = true;
                self.last_call_end = since(self.epoch);
                excluded_ns += outage_start.elapsed().as_nanos() as u64;
            }
            e2e.round(e2e.ops - ops, ns);
            self.fold(tracing.as_deref_mut());
        }
        e2e.wall_ns = start.elapsed().as_nanos() as u64 - excluded_ns;
        self.measuring = false;
        self.fold(tracing.as_deref_mut());
        if let Some(t) = tracing {
            let agg = &mut t.agg;
            agg.wall_ns = e2e.wall_ns;
            agg.client_inside_ns = self.inside_ns;
            agg.backpressure = self.backpressure;
            agg.service_ops = e2e.ops;
            agg.chip_deltas = self.prefill_chip_deltas;
            agg.engine = crate::report::core_delta(self.svc.core_stats(), engine_before);
        }
        Ok(rounds)
    }

    /// Reads every block back, scrubs, and runs the closing `Verify`
    /// on every shard.
    fn close(mut self) -> Result<Snapshot, String> {
        let e2e = &mut E2e::default();
        for addr in 0..BLOCKS {
            self.submit(Request::Read(addr), e2e)?;
        }
        self.broadcast(Request::BootScrub, e2e)?;
        match self.broadcast(Request::Verify, e2e)? {
            Response::Verified(true) => {}
            other => return Err(format!("closing verify: {other:?}")),
        }
        let layers = match &self.matcher {
            Some(m) => m.layers(),
            None => (0..SHARDS)
                .map(|s| self.svc.with_shard(s, |st| st.layers().to_vec()))
                .collect(),
        };
        let engine = (0..SHARDS)
            .map(|s| self.svc.with_shard(s, |st| st.core_stats()))
            .collect();
        self.svc.shutdown();
        Ok(Snapshot {
            digest: self.digest.value(),
            attempted: self.attempted,
            failed: self.failed,
            layers,
            engine,
        })
    }
}

impl FaultyRead {
    /// Submits one request, first retiring the oldest while the window
    /// is full or the transport pushes back.
    fn submit(&mut self, req: Request, e2e: &mut E2e) -> Result<(), String> {
        while self.inflight.len() >= WINDOW {
            let _ = self.retire(e2e)?;
        }
        loop {
            let entered = self.enter();
            let res = self.client.try_submit(&req);
            let t0_ns = self.leave(entered);
            match res {
                Ok(ticket) => {
                    self.inflight.push_back(Pending {
                        ticket,
                        id: self.next_id,
                        req,
                        t0_ns,
                    });
                    self.next_id += 1;
                    return Ok(());
                }
                Err(CoreError::Service(e)) if e.kind() == ServiceFailure::Backpressure => {
                    self.backpressure += 1;
                    let _ = self.retire(e2e)?;
                }
                Err(e) => return Err(format!("service refused a request: {e}")),
            }
        }
    }

    /// Marks the start of a call into the service; returns the time.
    fn enter(&mut self) -> u64 {
        let now = since(self.epoch);
        if self.measuring && self.matcher.is_some() && now > self.last_call_end {
            self.own.push_back((self.last_call_end, now));
        }
        now
    }

    /// Marks the end of a call into the service begun at `entered`;
    /// returns the time.
    fn leave(&mut self, entered: u64) -> u64 {
        let now = since(self.epoch);
        if self.measuring {
            self.inside_ns += now - entered;
            self.last_call_end = now;
        }
        now
    }

    /// Folds the spans the shards have recorded so far.
    fn fold(&mut self, tracing: Option<&mut Tracing>) {
        if let (Some(m), Some(t)) = (self.matcher.as_mut(), tracing) {
            let oldest = self.inflight.front().map_or(u64::MAX, |p| p.t0_ns);
            m.fold(t, &mut self.own, oldest);
        }
    }

    /// Waits for the oldest request and checks its answer.
    fn retire(&mut self, e2e: &mut E2e) -> Result<Result<Response, CoreError>, String> {
        let p = self.inflight.pop_front().ok_or("nothing in flight")?;
        let wait = self.enter();
        let res = self.client.wait_response(p.ticket);
        let t1_ns = self.leave(wait);
        let ns = t1_ns - p.t0_ns;
        if self.measuring {
            e2e.ops += 1;
        }
        self.attempted += 1;
        self.digest.add(&res);
        if let Some(m) = self.matcher.as_mut() {
            let done = Retired {
                id: p.id,
                t0_ns: p.t0_ns,
                t1_ns,
                measured: self.measuring,
            };
            match p.req.addr().and_then(|addr| self.svc.route(addr)) {
                Some((shard, _)) => m.retired[shard].push_back(done),
                None => m.retired.iter_mut().for_each(|q| q.push_back(done)),
            }
        }
        if res.is_err() {
            self.failed += 1;
        }
        match (&p.req, &res) {
            (Request::Read(addr), Ok(Response::Read(out))) => {
                if !self.mapper.mirror().accepts(*addr, &out.data) {
                    return Err(format!("block {addr} read back wrong data"));
                }
                e2e.reads.push(ns);
            }
            (Request::WriteSum { .. }, _) => e2e.writes.push(ns),
            (Request::BootScrub, Ok(_)) => e2e.recovery_ms.push(ns as f64 / 1e6),
            _ => {}
        }
        Ok(res)
    }

    fn drain(&mut self, e2e: &mut E2e) -> Result<(), String> {
        while !self.inflight.is_empty() {
            let _ = self.retire(e2e)?;
        }
        Ok(())
    }

    /// A whole-device request, alone in the pipeline; it must succeed.
    fn broadcast(&mut self, req: Request, e2e: &mut E2e) -> Result<Response, String> {
        self.drain(e2e)?;
        self.submit(req, e2e)?;
        self.retire(e2e)?
            .map_err(|e| format!("{} failed: {e}", req.kind()))
    }

    /// An outage and its boot scrub, then the runtime error rate.
    fn outage(&mut self, e2e: &mut E2e, tracing: Option<&mut Tracing>) -> Result<(), String> {
        self.broadcast(Request::InjectRber(OUTAGE_RBER), e2e)?;
        let report = self
            .broadcast(Request::BootScrub, e2e)?
            .boot_scrubbed()
            .ok_or("boot scrub answered with another response")?;
        if let Some(t) = tracing {
            t.agg.boot_stripes += report.stripes_scrubbed as u64;
            t.agg.boot_bits += report.bits_corrected as u64;
            t.agg.boot_scrubs += 1;
        }
        self.broadcast(Request::InjectRber(RUNTIME_RBER), e2e)?;
        Ok(())
    }
}
