//! The SCIF node fabric: node registry, ports, listeners, connection
//! establishment, and the cross-node timing helpers.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU16, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::Duration;

use vphi_faults::FaultSite;
use vphi_phi::PhiBoard;
use vphi_sim_core::{CostModel, SpanLabel, Timeline, VirtualClock};
use vphi_sync::{LockClass, TrackedCondvar, TrackedMutex, TrackedRwLock};

use crate::endpoint::EndpointCore;
use crate::error::{ScifError, ScifResult};
use crate::types::{NodeId, Port, ScifAddr, HOST_NODE};

/// Wall-clock guard for blocking fabric operations, so broken tests fail
/// rather than hang.
pub(crate) const WALL_TIMEOUT: Duration = Duration::from_secs(30);

/// A wake-any hub: blocking fabric operations (accept, connect, poll) wait
/// on this and re-check their condition whenever anything happens.
#[derive(Debug)]
pub(crate) struct ActivityHub {
    version: TrackedMutex<u64>,
    cond: TrackedCondvar,
}

impl Default for ActivityHub {
    fn default() -> Self {
        ActivityHub {
            version: TrackedMutex::new(LockClass::ActivityHub, 0),
            cond: TrackedCondvar::new(),
        }
    }
}

impl ActivityHub {
    pub fn bump(&self) {
        let mut v = self.version.lock();
        *v += 1;
        self.cond.notify_all();
    }

    /// Wait until the hub version changes from `seen`; returns the new
    /// version, or `None` on wall timeout.
    pub fn wait_change(&self, seen: u64) -> Option<u64> {
        let mut v = self.version.lock();
        while *v == seen {
            if self.cond.wait_for(&mut v, WALL_TIMEOUT).timed_out() {
                return None;
            }
        }
        Some(*v)
    }

    /// Like [`wait_change`](ActivityHub::wait_change) but bounded by
    /// `timeout`; returns the current version either way, plus whether it
    /// changed.
    pub fn wait_change_for(&self, seen: u64, timeout: Duration) -> (u64, bool) {
        let mut v = self.version.lock();
        let deadline = std::time::Instant::now() + timeout;
        while *v == seen {
            let now = std::time::Instant::now();
            if now >= deadline {
                return (*v, false);
            }
            if self.cond.wait_for(&mut v, deadline - now).timed_out() {
                return (*v, *v != seen);
            }
        }
        (*v, true)
    }

    pub fn version(&self) -> u64 {
        *self.version.lock()
    }
}

/// A pending connection waiting in a listener's backlog.
pub(crate) struct PendingConn {
    pub connector: Weak<EndpointCore>,
}

/// A listening port's state.
pub(crate) struct Listener {
    pub backlog: usize,
    pub pending: TrackedMutex<VecDeque<PendingConn>>,
    pub closed: AtomicBool,
}

impl Listener {
    fn new(backlog: usize) -> Self {
        Listener {
            backlog: backlog.max(1),
            pending: TrackedMutex::new(LockClass::ListenerPending, VecDeque::new()),
            closed: AtomicBool::new(false),
        }
    }
}

/// One SCIF node's driver state (the host's `scif.ko` or the uOS's).
pub struct NodeCore {
    id: NodeId,
    ports: TrackedMutex<HashMap<Port, Arc<Listener>>>,
    next_ephemeral: AtomicU16,
    /// The board behind this node; `None` for the host node.
    board: Option<Arc<PhiBoard>>,
}

impl NodeCore {
    pub fn id(&self) -> NodeId {
        self.id
    }

    pub fn board(&self) -> Option<&Arc<PhiBoard>> {
        self.board.as_ref()
    }

    /// Reserve `port` (or an ephemeral one for [`Port::ANY`]).
    pub(crate) fn bind_port(&self, port: Port) -> ScifResult<Port> {
        let mut ports = self.ports.lock();
        let chosen = if port == Port::ANY {
            loop {
                let p = self.next_ephemeral.fetch_add(1, Ordering::Relaxed);
                let p = Port(p);
                if !ports.contains_key(&p) {
                    break p;
                }
            }
        } else {
            if ports.contains_key(&port) {
                return Err(ScifError::AddrInUse);
            }
            port
        };
        // Binding reserves the port; a Listener object is only attached on
        // listen().  We reserve with a placeholder closed listener.
        let l = Listener::new(1);
        l.closed.store(true, Ordering::Release);
        ports.insert(chosen, Arc::new(l));
        Ok(chosen)
    }

    pub(crate) fn start_listening(&self, port: Port, backlog: usize) -> ScifResult<Arc<Listener>> {
        let mut ports = self.ports.lock();
        match ports.get(&port) {
            Some(existing) if !existing.closed.load(Ordering::Acquire) => Err(ScifError::AddrInUse),
            _ => {
                let l = Arc::new(Listener::new(backlog));
                ports.insert(port, Arc::clone(&l));
                Ok(l)
            }
        }
    }

    pub(crate) fn listener(&self, port: Port) -> Option<Arc<Listener>> {
        let ports = self.ports.lock();
        ports.get(&port).filter(|l| !l.closed.load(Ordering::Acquire)).map(Arc::clone)
    }

    pub(crate) fn release_port(&self, port: Port) {
        let mut ports = self.ports.lock();
        if let Some(l) = ports.remove(&port) {
            l.closed.store(true, Ordering::Release);
        }
    }

    pub fn bound_ports(&self) -> usize {
        self.ports.lock().len()
    }
}

/// Shared fabric state reachable from every endpoint.
pub struct FabricShared {
    pub cost: Arc<CostModel>,
    pub clock: Arc<VirtualClock>,
    pub(crate) activity: ActivityHub,
    nodes: TrackedRwLock<BTreeMap<NodeId, Arc<NodeCore>>>,
    next_ep_id: AtomicU64,
}

impl FabricShared {
    pub fn node(&self, id: NodeId) -> ScifResult<Arc<NodeCore>> {
        self.nodes.read().get(&id).map(Arc::clone).ok_or(ScifError::NoDev)
    }

    pub fn node_ids(&self) -> Vec<NodeId> {
        self.nodes.read().keys().copied().collect()
    }

    pub(crate) fn next_endpoint_id(&self) -> u64 {
        self.next_ep_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Wake every blocked fabric waiter to re-check its condition — used
    /// by recovery paths (card reset, endpoint quarantine) that change
    /// state outside the normal message flow.
    pub fn bump_activity(&self) {
        self.activity.bump();
    }

    /// Traffic gate: a board that hits (or already hit) a fatal fault
    /// refuses new traffic with `ENODEV` until it is reset.
    fn check_board(&self, board: &Arc<PhiBoard>) -> ScifResult<()> {
        if board.poll_faults().is_some() {
            // The fault just struck: wake blocked waiters so they observe
            // the failure instead of sleeping until their wall timeout.
            self.activity.bump();
            return Err(ScifError::NoDev);
        }
        if board.is_failed() || !board.is_online() {
            return Err(ScifError::NoDev);
        }
        Ok(())
    }

    /// Charge the one-way message delivery path from `from` to `to` for a
    /// `bytes` payload (everything after the caller's syscall): driver
    /// post, DMA/link, device delivery and completion write-back.
    pub fn charge_message_path(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        let cost = &self.cost;
        tl.charge(SpanLabel::ScifPost, cost.scif_post);
        if from == to {
            // Loopback: kernel memcpy between the two endpoints.
            tl.charge(SpanLabel::CopyUserKernel, cost.cpu_copy(bytes));
            tl.charge(SpanLabel::Completion, cost.completion);
            return Ok(());
        }
        // Cross-node: DMA over each non-host hop's link (host↔card is one
        // hop; card↔card is two).
        tl.charge(SpanLabel::DmaSetup, cost.dma_setup);
        for node in [from, to] {
            if node == HOST_NODE {
                continue;
            }
            let core = self.node(node)?;
            let board = core.board().ok_or(ScifError::NoDev)?;
            self.check_board(board)?;
            board.link().transmit(bytes, tl);
            // Announce the message: the driver rings the card's "work
            // pending" doorbell (or the host's reply doorbell when the
            // card is the sender).  Progress is driven by the activity
            // hub, so a dropped doorbell costs latency, not delivery.
            if node == to {
                board.db_to_device.ring();
            } else {
                board.db_to_host.ring();
            }
        }
        tl.charge(SpanLabel::DeviceDeliver, cost.device_deliver);
        tl.charge(SpanLabel::Completion, cost.completion);
        Ok(())
    }

    /// The DMA path for RMA operations (no remote-CPU involvement): setup,
    /// link transfer, completion.  Returns Ok even for loopback, where the
    /// copy is a CPU one.
    pub fn charge_rma_path(
        &self,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        use_cpu: bool,
        tl: &mut Timeline,
    ) -> ScifResult<()> {
        let cost = &self.cost;
        tl.charge(SpanLabel::RmaSetup, cost.rma_setup);
        if from == to || use_cpu {
            tl.charge(SpanLabel::CopyUserKernel, cost.cpu_copy(bytes));
            tl.charge(SpanLabel::Completion, cost.completion);
            return Ok(());
        }
        tl.charge(SpanLabel::DmaSetup, cost.dma_setup);
        for node in [from, to] {
            if node == HOST_NODE {
                continue;
            }
            let core = self.node(node)?;
            let board = core.board().ok_or(ScifError::NoDev)?;
            self.check_board(board)?;
            // Per-transfer device faults: an uncorrectable ECC error is
            // fatal for this RMA (EIO); a DMA engine hiccup is retryable.
            if board.ecc_fault() {
                return Err(ScifError::Io);
            }
            if board.link().fault_hook().fire(FaultSite::PcieDmaError).is_some() {
                return Err(ScifError::Again);
            }
            board.link().transmit(bytes, tl);
        }
        tl.charge(SpanLabel::Completion, cost.completion);
        Ok(())
    }
}

/// The assembled fabric: build one per simulated machine.
pub struct ScifFabric {
    shared: Arc<FabricShared>,
}

impl ScifFabric {
    /// A fabric with just the host node (node 0).
    pub fn new(cost: Arc<CostModel>, clock: Arc<VirtualClock>) -> Self {
        let shared = Arc::new(FabricShared {
            cost,
            clock,
            activity: ActivityHub::default(),
            nodes: TrackedRwLock::new(LockClass::FabricNodes, BTreeMap::new()),
            next_ep_id: AtomicU64::new(1),
        });
        let host = Arc::new(NodeCore {
            id: HOST_NODE,
            ports: TrackedMutex::new(LockClass::NodePorts, HashMap::new()),
            next_ephemeral: AtomicU16::new(Port::EPHEMERAL_START),
            board: None,
        });
        shared.nodes.write().insert(HOST_NODE, host);
        ScifFabric { shared }
    }

    /// Attach a booted card as the next SCIF node; returns its node id.
    pub fn add_device(&self, board: Arc<PhiBoard>) -> NodeId {
        let mut nodes = self.shared.nodes.write();
        let id = NodeId(nodes.keys().map(|n| n.0).max().unwrap_or(0) + 1);
        nodes.insert(
            id,
            Arc::new(NodeCore {
                id,
                ports: TrackedMutex::new(LockClass::NodePorts, HashMap::new()),
                next_ephemeral: AtomicU16::new(Port::EPHEMERAL_START),
                board: Some(board),
            }),
        );
        id
    }

    pub fn shared(&self) -> &Arc<FabricShared> {
        &self.shared
    }

    /// `scif_get_node_ids`: all online nodes, host first.
    pub fn node_ids(&self) -> Vec<NodeId> {
        self.shared.node_ids()
    }

    pub fn node(&self, id: NodeId) -> ScifResult<Arc<NodeCore>> {
        self.shared.node(id)
    }

    /// Open an endpoint on `node` (the `scif_open` a process on that node
    /// would make).
    pub fn open(&self, node: NodeId) -> ScifResult<Arc<EndpointCore>> {
        let core = self.shared.node(node)?;
        Ok(EndpointCore::new(Arc::clone(&self.shared), core))
    }
}

impl std::fmt::Debug for ScifFabric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScifFabric").field("nodes", &self.node_ids()).finish()
    }
}

/// Connection establishment: called by `EndpointCore::connect`.
pub(crate) fn enqueue_connect(
    shared: &FabricShared,
    target: ScifAddr,
    connector: &Arc<EndpointCore>,
) -> ScifResult<()> {
    let node = shared.node(target.node)?;
    let listener = node.listener(target.port).ok_or(ScifError::ConnRefused)?;
    {
        let mut pending = listener.pending.lock();
        if pending.len() >= listener.backlog {
            return Err(ScifError::ConnRefused);
        }
        pending.push_back(PendingConn { connector: Arc::downgrade(connector) });
    }
    shared.activity.bump();
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vphi_phi::PhiSpec;
    use vphi_sim_core::SimDuration;

    fn fabric_with_device() -> (ScifFabric, NodeId) {
        let cost = Arc::new(CostModel::paper_calibrated());
        let clock = Arc::new(VirtualClock::new());
        let fabric = ScifFabric::new(Arc::clone(&cost), Arc::clone(&clock));
        let board = Arc::new(PhiBoard::new(PhiSpec::phi_3120p(), 0, cost, clock));
        board.boot();
        let node = fabric.add_device(board);
        (fabric, node)
    }

    #[test]
    fn node_registry() {
        let (fabric, dev) = fabric_with_device();
        assert_eq!(fabric.node_ids(), vec![HOST_NODE, dev]);
        assert_eq!(dev, NodeId(1));
        assert!(fabric.node(NodeId(9)).is_err());
        assert!(fabric.node(HOST_NODE).unwrap().board().is_none());
        assert!(fabric.node(dev).unwrap().board().is_some());
    }

    #[test]
    fn port_binding_rules() {
        let (fabric, _) = fabric_with_device();
        let host = fabric.node(HOST_NODE).unwrap();
        let p = host.bind_port(Port(500)).unwrap();
        assert_eq!(p, Port(500));
        assert_eq!(host.bind_port(Port(500)), Err(ScifError::AddrInUse));
        let e1 = host.bind_port(Port::ANY).unwrap();
        let e2 = host.bind_port(Port::ANY).unwrap();
        assert!(e1.is_ephemeral() && e2.is_ephemeral());
        assert_ne!(e1, e2);
        host.release_port(Port(500));
        assert!(host.bind_port(Port(500)).is_ok());
    }

    #[test]
    fn message_path_costs_native_floor_minus_syscall() {
        let (fabric, dev) = fabric_with_device();
        let mut tl = Timeline::new();
        fabric.shared().charge_message_path(HOST_NODE, dev, 1, &mut tl).unwrap();
        let cost = CostModel::paper_calibrated();
        // The API layer adds host_syscall on top to reach the 7 µs floor.
        let expected = cost.native_floor() - cost.host_syscall;
        // 1 byte of link time rounds to ~0ns at 6.4 GB/s.
        assert_eq!(tl.total(), expected);
    }

    #[test]
    fn loopback_path_has_no_link_charges() {
        let (fabric, _) = fabric_with_device();
        let mut tl = Timeline::new();
        fabric.shared().charge_message_path(HOST_NODE, HOST_NODE, 1 << 20, &mut tl).unwrap();
        assert_eq!(tl.total_for(SpanLabel::LinkTransfer), SimDuration::ZERO);
        assert!(tl.total_for(SpanLabel::CopyUserKernel) > SimDuration::ZERO);
    }

    #[test]
    fn rma_path_charges_link_once_per_device_hop() {
        let (fabric, dev) = fabric_with_device();
        let mut tl = Timeline::new();
        fabric.shared().charge_rma_path(HOST_NODE, dev, 1 << 20, false, &mut tl).unwrap();
        let link_time = tl.total_for(SpanLabel::LinkTransfer);
        let expected = CostModel::paper_calibrated().link_transfer(1 << 20);
        assert_eq!(link_time, expected);
        // CPU-forced RMA takes the memcpy path.
        let mut tl2 = Timeline::new();
        fabric.shared().charge_rma_path(HOST_NODE, dev, 1 << 20, true, &mut tl2).unwrap();
        assert_eq!(tl2.total_for(SpanLabel::LinkTransfer), SimDuration::ZERO);
    }

    #[test]
    fn activity_hub_wakes_waiters() {
        let hub = Arc::new(ActivityHub::default());
        let v0 = hub.version();
        let h2 = Arc::clone(&hub);
        let waiter = std::thread::spawn(move || h2.wait_change(v0));
        std::thread::sleep(Duration::from_millis(10));
        hub.bump();
        assert_eq!(waiter.join().unwrap(), Some(v0 + 1));
    }
}
