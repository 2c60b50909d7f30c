//! `replicated_kv`: the `ycsb` trace through a 3-node `Cluster` of
//! `Stack` nodes with 2 replicas and the default quorum (W=1, R=1).
//!
//! Set-up is the YCSB load phase: every logical block is written once.
//! The run then proceeds in rounds of [`ROUND`] requests. In each round
//! node [`VICTIM`] is killed after the first third, then revived and
//! rebuilt after the second; `recovery_ms` is the rebuild. Fences are
//! dropped and nodes have no persistence domain, so placement, the
//! quorum walk, stale tracking, read-repair and rebuild sit on every
//! request with no transport and no flush.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use pmck_cluster::{Cluster, ClusterConfig};
use pmck_core::{ChipkillConfig, CoreError, Request, Response, Stack, StackBuilder, Submitter};
use pmck_rt::rng::{stream_seed, Rng, SmallRng};

use crate::e2e::E2e;
use crate::layers::{Snapshot, Tracing};
use crate::mapping::{chip_deltas, TraceMapper};
use crate::report::Digest;
use crate::timed::{Kind, Layer, NodeLog, Span, TimedNode};
use crate::workload::{Until, Workload};

pub const NODES: usize = 3;
/// Logical blocks of the key space.
pub const BLOCKS: u64 = 1536;
/// The node killed and rebuilt in every round.
pub const VICTIM: usize = 1;
/// Requests per round.
pub const ROUND: u64 = 3000;

/// The node stack `Cluster::local` builds for node `n`.
fn node_stack(seed: u64, n: usize, cfg: ClusterConfig) -> Stack {
    let local = cfg.replicas as u64 * BLOCKS.div_ceil(NODES as u64);
    StackBuilder::proposal(local, ChipkillConfig::default())
        .seed(stream_seed(seed, n as u64))
        .build()
}

/// The cluster, plain or with every node timed.
enum Nodes {
    Plain(Cluster<Stack>),
    Timed(Cluster<TimedNode>, Rc<RefCell<NodeLog>>),
}

impl Nodes {
    fn submit(&mut self, req: &Request) -> Result<Response, CoreError> {
        match self {
            Nodes::Plain(c) => c.submit(req),
            Nodes::Timed(c, _) => c.submit(req),
        }
    }

    fn kill(&mut self, n: usize) {
        match self {
            Nodes::Plain(c) => c.kill_node(n),
            Nodes::Timed(c, _) => c.kill_node(n),
        }
    }

    fn revive_and_rebuild(&mut self, n: usize) -> Result<u64, CoreError> {
        match self {
            Nodes::Plain(c) => {
                c.revive_node(n);
                c.rebuild_node(n)
            }
            Nodes::Timed(c, _) => {
                c.revive_node(n);
                c.rebuild_node(n)
            }
        }
    }

    fn read_repairs(&self) -> u64 {
        match self {
            Nodes::Plain(c) => c.stats().read_repairs,
            Nodes::Timed(c, _) => c.stats().read_repairs,
        }
    }

    /// `f` applied to every node's stack, in node order.
    fn each_stack<T>(&mut self, mut f: impl FnMut(&Stack) -> T) -> Vec<T> {
        (0..NODES)
            .map(|n| match self {
                Nodes::Plain(c) => f(c.node_mut(n)),
                Nodes::Timed(c, _) => f(c.node_mut(n).stack()),
            })
            .collect()
    }

    fn verify(&mut self, n: usize) -> Result<Response, CoreError> {
        match self {
            Nodes::Plain(c) => c.node_mut(n).submit(&Request::Verify),
            Nodes::Timed(c, _) => c.node_mut(n).submit(&Request::Verify),
        }
    }
}

pub struct ReplicatedKv {
    nodes: Nodes,
    mapper: TraceMapper,
    digest: Digest,
    attempted: u64,
    failed: u64,
    next_id: u64,
}

impl ReplicatedKv {
    /// Builds the cluster as `Cluster::local` does (timed nodes when
    /// `epoch` is given) and loads every block once.
    fn with_config(seed: u64, cfg: ClusterConfig, epoch: Option<Instant>) -> Result<Self, String> {
        let cseed = stream_seed(seed, 2);
        let nodes = match epoch {
            None => Nodes::Plain(Cluster::local(NODES, BLOCKS, cseed, cfg)),
            Some(epoch) => {
                let log = Rc::new(RefCell::new(NodeLog {
                    epoch,
                    current: 0,
                    spans: Vec::new(),
                }));
                let timed = (0..NODES)
                    .map(|n| TimedNode::new(node_stack(cseed, n, cfg), n as u8, Rc::clone(&log)))
                    .collect();
                Nodes::Timed(Cluster::from_nodes(timed, BLOCKS, cfg), log)
            }
        };
        let mut sys = ReplicatedKv {
            nodes,
            mapper: TraceMapper::new("ycsb", BLOCKS, seed).without_fences(),
            digest: Digest::default(),
            attempted: 0,
            failed: 0,
            next_id: 0,
        };
        let mut rng = SmallRng::seed_from_u64(stream_seed(seed, 3));
        for addr in 0..BLOCKS {
            let mut data = [0u8; 64];
            rng.fill_bytes(&mut data);
            sys.nodes
                .submit(&Request::WriteSum { addr, data })
                .map_err(|e| format!("load write {addr}: {e}"))?;
            sys.mapper.resync(addr, data);
        }
        if let Nodes::Timed(_, log) = &sys.nodes {
            log.borrow_mut().spans.clear();
        }
        Ok(sys)
    }

    /// Engine counters summed over the nodes.
    fn engine(&mut self) -> pmck_core::CoreStats {
        let mut total = pmck_core::CoreStats::default();
        for st in self.nodes.each_stack(Stack::core_stats) {
            total.merge(&st.unwrap_or_default());
        }
        total
    }

    /// Time spent in the node spans recorded since the last call, and
    /// their count; the spans go to `tracing`.
    fn take_node_spans(&mut self, tracing: &mut Tracing) -> (u64, u64) {
        let Nodes::Timed(_, log) = &self.nodes else {
            return (0, 0);
        };
        let mut log = log.borrow_mut();
        let mut ns = 0;
        let count = log.spans.len() as u64;
        for span in log.spans.drain(..) {
            ns += span.ns();
            tracing.span(span);
        }
        (ns, count)
    }

    fn set_current(&mut self, id: u64) {
        if let Nodes::Timed(_, log) = &self.nodes {
            log.borrow_mut().current = id;
        }
    }

    /// Submits one request through the cluster and checks its answer.
    fn execute(
        &mut self,
        req: Request,
        e2e: &mut E2e,
        tracing: Option<&mut Tracing>,
    ) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        self.set_current(id);
        let t0 = Instant::now();
        let start_ns = tracing.as_ref().map_or(0, |t| t.now());
        let res = self.nodes.submit(&req);
        let end_ns = tracing.as_ref().map_or(0, |t| t.now());
        let ns = t0.elapsed().as_nanos() as u64;
        self.attempted += 1;
        e2e.ops += 1;
        self.digest.add(&res);
        if let Some(t) = tracing {
            let (node_ns, calls) = self.take_node_spans(t);
            let span = Span {
                id,
                layer: Layer::Cluster,
                unit: 0,
                kind: Kind::of(&req, &res),
                start_ns,
                end_ns,
            };
            let self_ns = span.ns().saturating_sub(node_ns);
            t.agg.attributed_ns += span.ns();
            if span.kind.is_read() {
                t.agg.cluster_self_read.push(self_ns);
                t.agg.node_calls_read += calls;
            } else if let (Request::WriteSum { data, .. }, Ok(_)) = (&req, &res) {
                t.agg.cluster_self_write.push(self_ns);
                t.agg.node_calls_write += calls;
                t.agg.chip_deltas += chip_deltas(data) * calls;
            } else if matches!(req, Request::Write { .. }) {
                t.agg.cluster_self_write.push(self_ns);
                t.agg.node_calls_write += calls;
            }
            t.span(span);
        }
        if res.is_err() {
            self.failed += 1;
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
                e2e.writes.push(ns);
            }
            _ => {}
        }
        Ok(())
    }

    /// Revives the victim and rebuilds its stale replicas.
    fn rebuild(&mut self, e2e: &mut E2e, tracing: Option<&mut Tracing>) -> Result<(), String> {
        let id = self.next_id;
        self.next_id += 1;
        self.set_current(id);
        let t0 = Instant::now();
        let start_ns = tracing.as_ref().map_or(0, |t| t.now());
        let healed = self
            .nodes
            .revive_and_rebuild(VICTIM)
            .map_err(|e| format!("rebuild of node {VICTIM}: {e}"))?;
        let end_ns = tracing.as_ref().map_or(0, |t| t.now());
        e2e.recovery_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.digest.add(&Ok(Response::Repaired {
            chip: Some(healed as usize),
        }));
        if let Some(t) = tracing {
            self.take_node_spans(t);
            let span = Span {
                id,
                layer: Layer::Cluster,
                unit: 0,
                kind: Kind::Rebuild,
                start_ns,
                end_ns,
            };
            t.agg.attributed_ns += span.ns();
            t.agg.rebuild_ns += span.ns();
            t.agg.rebuilt_blocks += healed;
            t.span(span);
        }
        Ok(())
    }
}

impl Workload for ReplicatedKv {
    const RECOVERY: &'static str = "rebuild";
    const CORE_UNITS: u64 = 1;

    fn setup(seed: u64, epoch: Option<Instant>, _e2e: &mut E2e) -> Result<Self, String> {
        ReplicatedKv::with_config(seed, ClusterConfig::default(), epoch)
    }

    fn run(
        &mut self,
        until: Until,
        e2e: &mut E2e,
        mut tracing: Option<&mut Tracing>,
    ) -> Result<u64, String> {
        let engine_before = self.engine();
        let repairs_before = self.nodes.read_repairs();
        e2e.begin_rounds();
        let start = Instant::now();
        let mut rounds = 0u64;
        while !until.reached(start, rounds) {
            let (round_start, ops) = (Instant::now(), e2e.ops);
            for i in 0..ROUND {
                if i == ROUND / 3 {
                    self.nodes.kill(VICTIM);
                }
                if i == 2 * ROUND / 3 {
                    self.rebuild(e2e, tracing.as_deref_mut())?;
                }
                let req = self.mapper.next_request();
                self.execute(req, e2e, tracing.as_deref_mut())?;
            }
            e2e.round(e2e.ops - ops, round_start.elapsed().as_nanos() as u64);
            rounds += 1;
        }
        e2e.wall_ns = start.elapsed().as_nanos() as u64;
        if let Some(t) = tracing {
            t.agg.wall_ns = e2e.wall_ns;
            t.agg.e2e_ns = e2e.wall_ns;
            t.agg.read_repairs = self.nodes.read_repairs() - repairs_before;
            t.agg.engine = crate::report::core_delta(Some(self.engine()), Some(engine_before));
        }
        Ok(rounds)
    }

    /// Reads every block back, then runs the closing `Verify` on every
    /// node.
    fn close(mut self) -> Result<Snapshot, String> {
        for addr in 0..BLOCKS {
            self.attempted += 1;
            let res = self.nodes.submit(&Request::Read(addr));
            self.digest.add(&res);
            match res {
                Ok(Response::Read(out)) if self.mapper.mirror().accepts(addr, &out.data) => {}
                other => return Err(format!("block {addr} at close: {other:?}")),
            }
        }
        for n in 0..NODES {
            self.attempted += 1;
            match self.nodes.verify(n) {
                Ok(Response::Verified(true)) => {}
                other => return Err(format!("closing verify on node {n}: {other:?}")),
            }
        }
        Ok(Snapshot {
            digest: self.digest.value(),
            attempted: self.attempted,
            failed: self.failed,
            layers: self.nodes.each_stack(|s| s.layers().to_vec()),
            engine: self.nodes.each_stack(Stack::core_stats),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs `n` trace requests with the victim down for the middle third.
    fn drive(sys: &mut ReplicatedKv, n: u64, mut tracing: Option<&mut Tracing>) {
        let mut e2e = E2e::default();
        for i in 0..n {
            if i == n / 3 {
                sys.nodes.kill(VICTIM);
            }
            if i == 2 * n / 3 {
                sys.rebuild(&mut e2e, tracing.as_deref_mut()).unwrap();
            }
            let req = sys.mapper.next_request();
            sys.execute(req, &mut e2e, tracing.as_deref_mut()).unwrap();
        }
    }

    #[test]
    fn timed_nodes_answer_like_cluster_local() {
        let cfg = ClusterConfig::default();
        let mut tracing = Tracing::new(1);
        let mut timed = ReplicatedKv::with_config(11, cfg, Some(tracing.epoch)).unwrap();
        let mut plain = ReplicatedKv::with_config(11, cfg, None).unwrap();
        drive(&mut timed, 900, Some(&mut tracing));
        drive(&mut plain, 900, None);
        let agg = &tracing.agg;
        assert!(agg.node_calls_read > 0 && agg.node_calls_write > 0);
        assert!(agg.rebuilt_blocks > 0);
        assert_eq!(timed.close().unwrap(), plain.close().unwrap());
    }

    #[test]
    fn fail_ratio_counts_a_node_loss_under_w2() {
        let cfg = ClusterConfig {
            write_quorum: 2,
            ..ClusterConfig::default()
        };
        let mut sys = ReplicatedKv::with_config(3, cfg, None).unwrap();
        let mut e2e = E2e::default();
        sys.nodes.kill(VICTIM);
        let mut failed_writes = 0;
        for _ in 0..600 {
            let req = sys.mapper.next_request();
            let before = sys.failed;
            sys.execute(req, &mut e2e, None).unwrap();
            if sys.failed > before {
                assert!(
                    !matches!(req, Request::Read(_)),
                    "reads survive a node loss"
                );
                failed_writes += 1;
            }
        }
        assert!(failed_writes > 0, "a W=2 write needs the lost node");
        // The failed writes landed on the surviving replica; reads and
        // the rebuild must accept either value.
        sys.rebuild(&mut e2e, None).unwrap();
        for _ in 0..300 {
            let req = sys.mapper.next_request();
            sys.execute(req, &mut e2e, None).unwrap();
        }
        let snap = sys.close().unwrap();
        assert_eq!(snap.failed, failed_writes);
        assert!(snap.attempted > snap.failed);
    }
}
