//! Spans and the timing wrappers of the traced run.
//!
//! Every span is recorded from the benchmark's own code, around a call
//! into one layer's public functions:
//!
//! * the benchmark times each `Stack::submit` and `Cluster::submit` it
//!   makes, and each request's round trip through the ring transport;
//! * [`TimedNode`] is a [`Submitter`] that owns one cluster node's
//!   [`Stack`] and times every call the cluster makes into it;
//! * [`TimedDevice`] is a [`BlockDevice`] that owns one shard's
//!   [`Stack`] and times every access the shard worker makes into it.
//!
//! Spans live in memory; [`SpanExport`] writes a bounded prefix of them
//! out when the run ends. The wrappers forward to the owned stack and
//! touch nothing else, so a wrapped system answers every request
//! exactly like a plain one.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use pmck_core::{
    Access, AccessContext, AccessOutcome, BlockDevice, CoreError, CoreStats, EagerTickets, LayerId,
    LayerStats, ReadPath, Request, Response, Stack, SubmitTicket, Submitter,
};

/// Nanoseconds since `epoch`.
pub fn since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// The layer a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// A request's round trip through the ring transport.
    Service,
    /// A quorum operation of the cluster tier.
    Cluster,
    /// One call into a protection stack (engine, persistence, codecs).
    Core,
}

impl Layer {
    fn as_str(self) -> &'static str {
        match self {
            Layer::Service => "service",
            Layer::Cluster => "cluster",
            Layer::Core => "core",
        }
    }
}

/// What a span did, with reads split by the path that served them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ReadClean,
    ReadRs,
    ReadVlew,
    ReadOther,
    Write,
    WriteSum,
    Flush,
    PowerCut,
    Recover,
    BootScrub,
    Rebuild,
    Other,
    Failed,
}

impl Kind {
    /// Classifies a finished request.
    pub fn of(req: &Request, res: &Result<Response, CoreError>) -> Kind {
        let Ok(resp) = res else {
            return Kind::Failed;
        };
        match (req, resp) {
            (_, Response::Read(out)) => Kind::of_path(&out.path),
            (Request::Write { .. }, _) => Kind::Write,
            (Request::WriteSum { .. }, _) => Kind::WriteSum,
            (Request::Flush, _) => Kind::Flush,
            (Request::PowerCut, _) => Kind::PowerCut,
            (Request::Recover, _) => Kind::Recover,
            (Request::BootScrub, _) => Kind::BootScrub,
            _ => Kind::Other,
        }
    }

    pub fn of_path(path: &ReadPath) -> Kind {
        match path {
            ReadPath::Clean => Kind::ReadClean,
            ReadPath::RsCorrected { .. } => Kind::ReadRs,
            ReadPath::VlewFallback { .. } | ReadPath::VlewListDecoded { .. } => Kind::ReadVlew,
            _ => Kind::ReadOther,
        }
    }

    pub fn is_read(self) -> bool {
        matches!(
            self,
            Kind::ReadClean | Kind::ReadRs | Kind::ReadVlew | Kind::ReadOther
        )
    }

    fn as_str(self) -> &'static str {
        match self {
            Kind::ReadClean => "read_clean",
            Kind::ReadRs => "read_rs",
            Kind::ReadVlew => "read_vlew",
            Kind::ReadOther => "read_other",
            Kind::Write => "write",
            Kind::WriteSum => "write_sum",
            Kind::Flush => "flush",
            Kind::PowerCut => "power_cut",
            Kind::Recover => "recover",
            Kind::BootScrub => "boot_scrub",
            Kind::Rebuild => "rebuild",
            Kind::Other => "other",
            Kind::Failed => "failed",
        }
    }
}

/// One timed call. Spans of one request share `id`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub layer: Layer,
    /// Node or shard index for inner spans, 0 otherwise.
    pub unit: u8,
    pub kind: Kind,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// The spans written out at the end of a run: every span of the first
/// requests, up to a fixed count, so the file stays small however long
/// the run.
#[derive(Debug)]
pub struct SpanExport {
    spans: Vec<Span>,
    cap: usize,
    seen: u64,
}

impl SpanExport {
    pub fn new(cap: usize) -> Self {
        SpanExport {
            spans: Vec::with_capacity(cap),
            cap,
            seen: 0,
        }
    }

    pub fn push(&mut self, span: Span) {
        self.seen += 1;
        if self.spans.len() < self.cap {
            self.spans.push(span);
        }
    }

    /// Writes the kept spans as CSV.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# {} spans recorded, first {} kept",
            self.seen,
            self.spans.len()
        )?;
        writeln!(out, "id,layer,unit,kind,start_ns,end_ns")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                s.id,
                s.layer.as_str(),
                s.unit,
                s.kind.as_str(),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Spans shared between the benchmark loop and the [`TimedNode`]s of a
/// cluster (all on one thread).
#[derive(Debug)]
pub struct NodeLog {
    pub epoch: Instant,
    /// The request the benchmark is executing.
    pub current: u64,
    pub spans: Vec<Span>,
}

/// A cluster node that times every call into its [`Stack`].
pub struct TimedNode {
    inner: Stack,
    unit: u8,
    log: Rc<RefCell<NodeLog>>,
    tickets: EagerTickets,
}

impl TimedNode {
    pub fn new(inner: Stack, unit: u8, log: Rc<RefCell<NodeLog>>) -> Self {
        TimedNode {
            inner,
            unit,
            log,
            tickets: EagerTickets::new(),
        }
    }

    pub fn stack(&self) -> &Stack {
        &self.inner
    }
}

impl Submitter for TimedNode {
    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn submit(&mut self, req: &Request) -> Result<Response, CoreError> {
        let epoch = self.log.borrow().epoch;
        let start_ns = since(epoch);
        let res = self.inner.submit(req);
        let end_ns = since(epoch);
        let mut log = self.log.borrow_mut();
        let id = log.current;
        log.spans.push(Span {
            id,
            layer: Layer::Core,
            unit: self.unit,
            kind: Kind::of(req, &res),
            start_ns,
            end_ns,
        });
        res
    }

    fn try_submit(&mut self, req: &Request) -> Result<SubmitTicket, CoreError> {
        let res = Submitter::submit(self, req);
        Ok(self.tickets.issue(res))
    }

    fn poll(&mut self, ticket: SubmitTicket) -> Option<Result<Response, CoreError>> {
        self.tickets.claim(ticket)
    }
}

/// What one shard's [`TimedDevice`] hands back to the benchmark.
#[derive(Debug, Default)]
pub struct ShardLog {
    /// One span per access, in the shard's execution order.
    pub spans: Vec<Span>,
    /// The owned stack's layer counters as of its last whole-device
    /// request (the closing `Verify` makes them final).
    pub layers: Vec<(LayerId, LayerStats)>,
}

/// A shard device that owns the shard's [`Stack`] and times every
/// access into it. Installed under a bare outer stack with
/// [`Stack::from_parts`], so the service drives it like any shard.
pub struct TimedDevice {
    inner: Stack,
    unit: u8,
    epoch: Instant,
    log: Arc<Mutex<ShardLog>>,
}

impl TimedDevice {
    /// Wraps `inner`; returns the outer stack for the service and the
    /// log the benchmark reads.
    pub fn install(inner: Stack, unit: u8, epoch: Instant) -> (Stack, Arc<Mutex<ShardLog>>) {
        let log = Arc::new(Mutex::new(ShardLog::default()));
        let dev = TimedDevice {
            inner,
            unit,
            epoch,
            log: Arc::clone(&log),
        };
        (Stack::from_parts(Box::new(dev), AccessContext::new(0)), log)
    }
}

impl BlockDevice for TimedDevice {
    fn id(&self) -> LayerId {
        self.inner.device().id()
    }

    fn num_blocks(&self) -> u64 {
        self.inner.num_blocks()
    }

    fn access(
        &mut self,
        access: Access,
        _ctx: &mut AccessContext,
    ) -> Result<AccessOutcome, CoreError> {
        let start_ns = since(self.epoch);
        let out = self.inner.access(access);
        let end_ns = since(self.epoch);
        let kind = match &out {
            Ok(AccessOutcome::Read(o)) => Kind::of_path(&o.path),
            Ok(_) => match access {
                Access::Write { .. } => Kind::Write,
                Access::WriteSum { .. } => Kind::WriteSum,
                Access::BootScrub => Kind::BootScrub,
                _ => Kind::Other,
            },
            Err(_) => Kind::Failed,
        };
        let mut log = self.log.lock().expect("shard log lock poisoned");
        log.spans.push(Span {
            id: 0,
            layer: Layer::Core,
            unit: self.unit,
            kind,
            start_ns,
            end_ns,
        });
        if access.addr().is_none() {
            log.layers = self.inner.layers().to_vec();
        }
        out
    }

    fn detected_failed_chip(&self) -> Option<usize> {
        self.inner.detected_failed_chip()
    }

    fn core_stats(&self) -> Option<CoreStats> {
        self.inner.core_stats()
    }

    fn pmem_domain(&mut self) -> Option<&mut pmck_core::PmemDomain> {
        self.inner.pmem_domain()
    }

    fn tier_report(&self) -> Option<pmck_core::TierReport> {
        self.inner.tier_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmck_core::{ChipkillConfig, StackBuilder};

    #[test]
    fn timed_device_forwards_and_records() {
        let inner = StackBuilder::proposal(64, ChipkillConfig::default())
            .seed(3)
            .build();
        let (mut outer, log) = TimedDevice::install(inner, 1, Instant::now());
        let mut plain = StackBuilder::proposal(64, ChipkillConfig::default())
            .seed(3)
            .build();
        let reqs = [
            Request::Write {
                addr: 2,
                data: [7; 64],
            },
            Request::InjectRber(1e-3),
            Request::Read(2),
            Request::Verify,
        ];
        for r in &reqs {
            assert_eq!(outer.submit(r), plain.submit(r));
        }
        assert_eq!(outer.core_stats(), plain.core_stats());
        let log = log.lock().unwrap();
        assert_eq!(log.spans.len(), reqs.len());
        assert_eq!(log.layers, plain.layers());
        assert!(log
            .spans
            .iter()
            .all(|s| s.unit == 1 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn timed_shards_serve_like_plain_shards() {
        use pmck_service::ShardedService;
        let stacks = || -> Vec<Stack> {
            (0..2)
                .map(|s| {
                    StackBuilder::proposal(64, ChipkillConfig::default())
                        .seed(5 + s)
                        .build()
                })
                .collect()
        };
        let epoch = Instant::now();
        let (outer, logs): (Vec<Stack>, Vec<_>) = stacks()
            .into_iter()
            .enumerate()
            .map(|(s, st)| TimedDevice::install(st, s as u8, epoch))
            .unzip();
        let mut timed = ShardedService::from_stacks(outer);
        let mut plain = ShardedService::from_stacks(stacks());
        let mut reqs: Vec<Request> = (0..128u64)
            .map(|a| Request::Write {
                addr: a,
                data: [a as u8; 64],
            })
            .collect();
        reqs.push(Request::InjectRber(2e-3));
        reqs.extend((0..128).map(Request::Read));
        reqs.extend([Request::BootScrub, Request::Verify]);
        assert_eq!(timed.submit_batch(&reqs), plain.submit_batch(&reqs));
        for (s, log) in logs.iter().enumerate() {
            let log = log.lock().unwrap();
            assert_eq!(
                log.layers,
                plain.with_shard(s, |st| st.layers().to_vec()),
                "shard {s}"
            );
            assert_eq!(
                timed.with_shard(s, |st| st.core_stats()),
                plain.with_shard(s, |st| st.core_stats())
            );
            // Each shard saw its half of the addressed requests and
            // every broadcast, in order.
            assert_eq!(log.spans.len(), 64 + 64 + 3);
            assert!(log.spans[..64].iter().all(|sp| sp.kind == Kind::Write));
            assert!(log.spans[65..129].iter().all(|sp| sp.kind.is_read()));
            assert_eq!(log.spans[129].kind, Kind::BootScrub);
        }
        timed.shutdown();
        plain.shutdown();
    }

    #[test]
    fn timed_node_tags_spans_with_the_current_request() {
        let log = Rc::new(RefCell::new(NodeLog {
            epoch: Instant::now(),
            current: 41,
            spans: Vec::new(),
        }));
        let stack = StackBuilder::proposal(32, ChipkillConfig::default()).build();
        let mut node = TimedNode::new(stack, 2, Rc::clone(&log));
        node.submit(&Request::Read(1)).unwrap();
        let t = node.try_submit(&Request::Read(40)).unwrap();
        assert!(node.poll(t).unwrap().is_err());
        let log = log.borrow();
        assert_eq!(log.spans.len(), 2);
        assert_eq!(log.spans[0].kind, Kind::ReadClean);
        assert_eq!(log.spans[1].kind, Kind::Failed);
        assert!(log.spans.iter().all(|s| s.id == 41 && s.unit == 2));
    }
}
