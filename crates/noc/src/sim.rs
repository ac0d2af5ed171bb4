//! The cycle-driven NoC simulator — flat-array engine.
//!
//! Faithful to the paper's stated configuration (Sec. V-B): wormhole
//! switching with per-port virtual-channel input buffers, credit-based flow
//! control, dimension-order routing, one flit per link per cycle, 1-cycle
//! link traversal. Every link carries a bit-transition accumulator
//! (Fig. 8; see [`crate::stats::LinkSlab`]).
//!
//! Per cycle, the simulator:
//! 1. delivers the flits that were on links during the previous cycle;
//! 2. injects at most one flit per NI (wormhole on the injection link, VC
//!    chosen round-robin per packet);
//! 3. for every router: computes routes for new head flits, allocates
//!    output VCs, then arbitrates each output port (round-robin) among
//!    ready input VCs with downstream credit and forwards one flit.
//!
//! Credits return to the upstream hop the moment a flit leaves an input
//! buffer (zero-latency credit links — a common simplification that only
//! affects throughput slightly, not the flit interleaving structure the BT
//! metric depends on).
//!
//! # Engine layout
//!
//! All per-VC, per-port and per-packet state lives in flat, index-addressed
//! vectors instead of nested `Vec<Vec<_>>` / `VecDeque` / `HashMap`
//! structures:
//!
//! * every flit is a dense row of the `u64` words the link width covers
//!   (wire `k` is bit `k % 64` of word `k / 64`): 16 bytes on a 128-bit
//!   link, 64 on a 512-bit one. Each packet in flight holds one recycled
//!   slot of the packet store: its payload rows in a [`FlitSlab`] buffer
//!   (narrower rows re-aligned onto the link width as they are copied
//!   in), its destination, inject cycle and id; its head row sits in a
//!   dense per-slot column beside the store. At the tail the payload
//!   buffer moves out into the [`DeliveredPacket`] and the slot returns
//!   to a free list, so the store only ever holds the peak number of
//!   packets in flight. The buffers come back through
//!   [`Simulator::drain_all_delivered_into`], which keeps the
//!   deliveries it is handed back in a pool the next injected packets
//!   take their buffers from. Packet ids stay a monotonic per-simulator
//!   count kept in the slot, not the slot index. What moves through
//!   rings and link pipelines is a 12-byte `FlitRef` (slot, sequence
//!   number, flit kind), never a row;
//! * input VC FIFOs are fixed-capacity rings in one node-major buffer
//!   (`(node, port, vc)` → ring of `vc_buffer_depth` ref slots);
//! * route/output-VC decisions, output allocations and credits are dense
//!   sentinel-coded vectors addressed by the same indices;
//! * per-link transition totals and last wire rows live in [`LinkSlab`]
//!   columns, which charge a hop as one XOR+popcount pass over the row;
//! * phase 2 visits only NIs with queued packets and phase 3 only routers
//!   with buffered flits, through bitmasks walked in ascending node order
//!   — the order of a full scan, so every link sees its flits in the same
//!   order. An idle router's round-robin pointers cannot advance without
//!   a flit, so skipping it is semantics-preserving.
//!
//! The engine is pinned cycle for cycle and bit for bit by golden
//! per-link BT digests in the `transport_parity` integration tests,
//! generated once from the original map/deque implementation on seeded
//! workloads.

use crate::analytic::PhaseRecorder;
use crate::config::{NocConfig, NodeId};
use crate::flit::FlitKind;
use crate::packet::{decode_head_row, write_head_row, Packet};
use crate::routing::{route, Direction};
use crate::stats::{LatencyTotals, LinkSlab, LinkStat, NocStats};
use btr_bits::slab::{FlitRows, FlitSlab};
use std::collections::VecDeque;

pub(crate) const LOCAL: usize = 0;
pub(crate) const NUM_PORTS: usize = 5;
/// Sentinel for "no route / no output VC assigned".
const UNSET: usize = usize::MAX;

/// Error returned by [`Simulator::inject`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InjectError {
    /// Source or destination node out of range.
    NodeOutOfRange(NodeId),
    /// A payload flit is wider than the link.
    PayloadTooWide {
        /// Offending payload width.
        width: u32,
        /// Link width.
        link: u32,
    },
}

impl std::fmt::Display for InjectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectError::NodeOutOfRange(n) => write!(f, "node {n} out of range"),
            InjectError::PayloadTooWide { width, link } => {
                write!(f, "payload width {width} exceeds link width {link}")
            }
        }
    }
}

impl std::error::Error for InjectError {}

/// Error returned by [`Simulator::run_until_idle`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallError {
    /// Cycle count when the limit was hit.
    pub cycles: u64,
    /// Packets still in flight.
    pub in_flight: u64,
}

impl std::fmt::Display for StallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "simulation did not drain within {} cycles ({} packets in flight)",
            self.cycles, self.in_flight
        )
    }
}

impl std::error::Error for StallError {}

/// A packet delivered to its destination NI.
#[derive(Debug, Clone, PartialEq)]
pub struct DeliveredPacket {
    /// Simulator-global packet id.
    pub packet_id: u64,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Correlation tag from the injected packet.
    pub tag: u64,
    /// Payload flit rows (head flit excluded), in order, at the link
    /// width: what the last link carried. Hand the delivery back through
    /// [`Simulator::drain_all_delivered_into`] and the buffer carries a
    /// later packet.
    pub payload_flits: FlitSlab,
    /// Cycle the packet was injected (queued at the source NI).
    pub inject_cycle: u64,
    /// Cycle the tail flit was ejected.
    pub arrival_cycle: u64,
}

impl DeliveredPacket {
    /// Packet latency in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.arrival_cycle - self.inject_cycle
    }
}

/// 12-byte handle to one flit of a packet held in the slot store.
#[derive(Debug, Clone, Copy)]
struct FlitRef {
    /// Slot index in the packet store.
    slot: u32,
    /// Flit sequence number within the packet (0 = head).
    seq: u32,
    /// The flit's position in its packet, so routing and allocation
    /// never read the slot to learn it.
    kind: FlitKind,
}

/// A flit in transit on a link, landing at `(node, port, vc)` next cycle.
#[derive(Debug, Clone, Copy)]
struct LinkArrival {
    node: u32,
    port: u8,
    vc: u8,
    fref: FlitRef,
}

/// Slot of the packet store per packet in flight: the payload rows it
/// drives onto the wires, inject metadata and its id (its head row sits
/// in [`Simulator`]'s per-slot head column). Nothing persists past
/// delivery: the payload buffer moves out into the [`DeliveredPacket`] at
/// the tail and the slot is recycled for the next injected packet.
#[derive(Debug, Clone)]
pub(crate) struct PacketSlot {
    /// Monotonic per-simulator packet id ([`Simulator::inject`]'s return
    /// value); independent of the slot index.
    pub(crate) id: u64,
    pub(crate) inject_cycle: u64,
    pub(crate) dst: NodeId,
    /// Payload rows at the link width, in wire order. Faulty wires
    /// write each hop's received row back in place, so the tail delivers
    /// what the last link carried.
    pub(crate) payload: FlitSlab,
}

/// A packet queued at its source NI, consumed flit by flit.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingPacket {
    pub(crate) slot: u32,
    pub(crate) next: u32,
}

/// Sets bit `index` of a multi-word bitmask.
#[inline]
fn set_bit(mask: &mut [u64], index: usize) {
    mask[index / 64] |= 1u64 << (index % 64);
}

/// Clears bit `index` of a multi-word bitmask.
#[inline]
fn clear_bit(mask: &mut [u64], index: usize) {
    mask[index / 64] &= !(1u64 << (index % 64));
}

/// The cycle-driven mesh simulator (flat-array engine; see module docs).
/// `Clone` snapshots the complete state — the analytic engine's
/// debug-mode oracle clones the simulator and runs the copy through the
/// cycle engine to cross-check the fast path ([`crate::analytic`]).
#[derive(Debug, Clone)]
pub struct Simulator {
    pub(crate) config: NocConfig,
    num_vcs: usize,
    depth: usize,

    // --- input VC state, indexed `vi = (node * 5 + port) * num_vcs + vc` ---
    /// Ring-buffer slots: `vi * depth + offset`.
    fifo: Vec<FlitRef>,
    /// Ring head offset per VC.
    fifo_head: Vec<usize>,
    /// Flits buffered per VC.
    fifo_len: Vec<usize>,
    /// Routed output port of the head-of-line packet ([`UNSET`] = none).
    route_port: Vec<usize>,
    /// Allocated output VC of the head-of-line packet ([`UNSET`] = none).
    out_vc: Vec<usize>,

    // --- output state, indexed `oi = (node * 5 + port) * num_vcs + vc` ---
    /// Output-VC holder: `in_port * num_vcs + in_vc` ([`UNSET`] = free).
    out_alloc: Vec<usize>,
    /// Credits toward the downstream input buffer.
    credits: Vec<usize>,

    // --- per (node, port) round-robin pointers ---
    sw_rr: Vec<usize>,
    vc_rr: Vec<usize>,

    /// Per-router bitmask of input VCs holding at least one flit (bit
    /// `port * num_vcs + vc`). The allocation/arbitration loops visit
    /// only set bits.
    active_vcs: Vec<u64>,
    /// Bitmask over routers (bit `node`) of the nonzero `active_vcs`
    /// masks: phase 3 visits only these routers.
    busy_routers: Vec<u64>,

    /// Per-`(router, output port)` bitmask of the input VCs whose
    /// head-of-line packet is routed to that port (bit
    /// `in_port * num_vcs + in_vc`; set at route computation, cleared
    /// when the tail departs). Switch allocation arbitrates over
    /// `active_vcs & routed_to` instead of filtering every occupied VC
    /// by its route — the same candidates in the same round-robin
    /// order, without the misses.
    routed_to: Vec<u64>,

    /// Precomputed mesh adjacency per `node * 5 + port`: the neighbor
    /// router on that side and the facing port. Because mesh links are
    /// symmetric, one table answers both lookups the traversal loop
    /// needs: the downstream `(router, input port)` of an output
    /// direction and the upstream `(router, output port)` feeding an
    /// input direction (entries for `Local` are unused).
    adjacency_tbl: Vec<(u32, u8)>,
    /// Input port of each within-router VC index (`k -> k / num_vcs`).
    port_of: Vec<u8>,

    // --- NI state ---
    pub(crate) ni_pending: Vec<VecDeque<PendingPacket>>,
    /// Bitmask over NIs (bit `node`) of the nonempty `ni_pending` queues:
    /// phase 2 visits only these NIs.
    pub(crate) busy_nis: Vec<u64>,
    ni_current_vc: Vec<usize>,
    ni_vc_rr: Vec<usize>,
    /// Credits toward the router's local input VCs: `node * num_vcs + vc`.
    ni_credits: Vec<usize>,
    pub(crate) ni_delivered: Vec<VecDeque<DeliveredPacket>>,

    // --- link pipelines (filled this cycle, consumed next cycle) ---
    link_inflight: Vec<LinkArrival>,
    eject_inflight: Vec<(u32, FlitRef)>,

    // --- measurement ---
    /// One column per router output link: `node * 5 + port`.
    pub(crate) out_links: LinkSlab,
    /// One column per injection link.
    pub(crate) inject_links: LinkSlab,

    /// The packet store: one slot per packet in flight, indexed by
    /// `FlitRef::slot` and recycled through `free_slots`.
    pub(crate) slots: Vec<PacketSlot>,
    /// Head row of each slot's packet, `slot * words..`, back to back.
    pub(crate) heads: Vec<u64>,
    /// `u64` words of a link-width row.
    pub(crate) words: usize,
    /// Payload buffers handed back through
    /// [`Simulator::drain_all_delivered_into`], taken by the next
    /// injected packets.
    pub(crate) row_pool: Vec<FlitSlab>,
    /// Slots whose packet was delivered, reused before the store grows.
    pub(crate) free_slots: Vec<u32>,
    /// Id of the next injected packet.
    pub(crate) next_packet_id: u64,
    /// Latency totals over every delivered packet.
    pub(crate) latencies: LatencyTotals,
    pub(crate) cycle: u64,
    pub(crate) packets_in_flight: u64,
    pub(crate) packets_delivered: u64,
    pub(crate) flits_delivered: u64,
    /// Count of delivered packets not yet drained (fast-path check for
    /// `drain_all_delivered`).
    pub(crate) delivered_pending: u64,
    /// The phase being recorded for replay, if any
    /// ([`Simulator::record_phase`]).
    pub(crate) recorder: Option<Box<PhaseRecorder>>,
}

/// The round-robin arbitration pointers of a simulator: per router
/// output port the switch (`sw_rr`) and output-VC (`vc_rr`) pointers,
/// per NI the injection-VC pointer (`ni_vc_rr`). On a drained mesh they
/// are the only state a phase's dynamics depend on besides its
/// injection schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Arbitration {
    sw_rr: Vec<usize>,
    vc_rr: Vec<usize>,
    ni_vc_rr: Vec<usize>,
}

impl Arbitration {
    /// Pointers of a fresh `config` mesh (all zero).
    pub(crate) fn new(config: &NocConfig) -> Self {
        let n = config.num_nodes();
        Self {
            sw_rr: vec![0; n * NUM_PORTS],
            vc_rr: vec![0; n * NUM_PORTS],
            ni_vc_rr: vec![0; n],
        }
    }
}

impl Simulator {
    /// Builds a simulator for the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`NocConfig::validate`]) or uses more than 12 virtual channels
    /// (the engine packs the 5 ports' VC occupancy into one 64-bit mask
    /// per router).
    #[must_use]
    pub fn new(config: NocConfig) -> Self {
        // btr-lint: allow(panic-in-hot-path, reason = "constructor-time validation with a documented # Panics contract; never reached from the cycle loop")
        config.validate().expect("invalid NoC configuration");
        assert!(
            NUM_PORTS * config.num_vcs <= 64,
            "the flat engine supports at most 12 VCs per port ({} requested)",
            config.num_vcs
        );
        let n = config.num_nodes();
        let num_vcs = config.num_vcs;
        let depth = config.vc_buffer_depth;
        let total_vcs = n * NUM_PORTS * num_vcs;
        // Links own their codec state when the config asks for per-link
        // scope: one persistent tx/rx state pair per directed link, so
        // the slabs record the true coded wire across packet boundaries.
        let (mut out_links, mut inject_links) = match config.link_codec {
            None => (
                LinkSlab::new(config.link_width_bits, n * NUM_PORTS),
                LinkSlab::new(config.link_width_bits, n),
            ),
            Some(codec) => (
                LinkSlab::with_link_codec(config.link_width_bits, n * NUM_PORTS, codec),
                LinkSlab::with_link_codec(config.link_width_bits, n, codec),
            ),
        };
        // The error process arms only when it actually draws (ber > 0):
        // at ber = 0 the slabs stay on the untouched perfect-wire code
        // path, which is what makes zero-BER bit-identity trivial rather
        // than asserted. Distinct salts keep the two link families'
        // streams independent.
        if let Some(fault) = &config.fault {
            if fault.injects_errors() {
                out_links.arm_faults(fault.errors, 0, fault.frame_wires);
                inject_links.arm_faults(fault.errors, 1, fault.frame_wires);
            }
        }
        let mut adjacency_tbl = vec![(u32::MAX, u8::MAX); n * NUM_PORTS];
        for r in 0..n {
            let (row, col) = config.position(r);
            for dir in [
                Direction::North,
                Direction::East,
                Direction::South,
                Direction::West,
            ] {
                let (nrow, ncol) = match dir {
                    Direction::North => (row.wrapping_sub(1), col),
                    Direction::South => (row + 1, col),
                    Direction::East => (row, col + 1),
                    Direction::West => (row, col.wrapping_sub(1)),
                    // Local has no neighbor; the iterator above never
                    // yields it, and skipping is correct if it ever did.
                    Direction::Local => continue,
                };
                if nrow < config.height && ncol < config.width {
                    let other = config.node_at(nrow, ncol) as u32;
                    let opposite = dir.opposite().index() as u8;
                    adjacency_tbl[r * NUM_PORTS + dir.index()] = (other, opposite);
                }
            }
        }
        Self {
            num_vcs,
            depth,
            fifo: vec![
                FlitRef {
                    slot: 0,
                    seq: 0,
                    kind: FlitKind::HeadTail,
                };
                total_vcs * depth
            ],
            fifo_head: vec![0; total_vcs],
            fifo_len: vec![0; total_vcs],
            route_port: vec![UNSET; total_vcs],
            out_vc: vec![UNSET; total_vcs],
            out_alloc: vec![UNSET; total_vcs],
            credits: vec![depth; total_vcs],
            sw_rr: vec![0; n * NUM_PORTS],
            vc_rr: vec![0; n * NUM_PORTS],
            active_vcs: vec![0; n],
            busy_routers: vec![0; n.div_ceil(64)],
            routed_to: vec![0; n * NUM_PORTS],
            port_of: (0..NUM_PORTS * num_vcs)
                .map(|k| (k / num_vcs) as u8)
                .collect(),
            ni_pending: (0..n).map(|_| VecDeque::new()).collect(),
            busy_nis: vec![0; n.div_ceil(64)],
            ni_current_vc: vec![0; n],
            ni_vc_rr: vec![0; n],
            ni_credits: vec![depth; n * num_vcs],
            ni_delivered: (0..n).map(|_| VecDeque::new()).collect(),
            adjacency_tbl,
            link_inflight: Vec::new(),
            eject_inflight: Vec::new(),
            out_links,
            inject_links,
            slots: Vec::new(),
            heads: Vec::new(),
            words: config.link_width_bits.div_ceil(64) as usize,
            row_pool: Vec::new(),
            free_slots: Vec::new(),
            next_packet_id: 0,
            latencies: LatencyTotals::default(),
            cycle: 0,
            packets_in_flight: 0,
            packets_delivered: 0,
            flits_delivered: 0,
            delivered_pending: 0,
            recorder: None,
            config,
        }
    }

    /// Flat input-VC index of `(node, port, vc)`.
    #[inline]
    fn vi(&self, node: usize, port: usize, vc: usize) -> usize {
        (node * NUM_PORTS + port) * self.num_vcs + vc
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Current cycle.
    #[must_use]
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The router-output link slab (link `node * NUM_PORTS + port`) and
    /// the NI→router injection link slab (link `node`): per-link BTs,
    /// flit counts and codec lanes.
    #[must_use]
    // btr-lint: allow(test-only-pub, reason = "tests/engine_parity.rs compares both engines' codec lanes through it")
    pub fn link_slabs(&self) -> (&LinkSlab, &LinkSlab) {
        (&self.out_links, &self.inject_links)
    }

    /// True when the mesh's wires draw errors (fault model armed with
    /// `ber > 0`). An armed-but-perfect configuration stays `false`: the
    /// slabs then run the untouched perfect-wire code path.
    #[must_use]
    pub fn faults_armed(&self) -> bool {
        self.out_links.faults_armed() || self.inject_links.faults_armed()
    }

    /// `(flipped_bits, corrupted_flits)` totals over every link of the
    /// mesh, both zero on perfect wires.
    #[must_use]
    pub fn fault_totals(&self) -> (u64, u64) {
        let (ob, of) = self.out_links.fault_totals();
        let (ib, inf) = self.inject_links.fault_totals();
        (ob + ib, of + inf)
    }

    /// Reseeds every directed link's tx/rx codec lane pair together —
    /// the `ResyncPolicy::ReseedOnRetry` sideband pulse the NI fires at
    /// a retry boundary. No-op on raw wires.
    pub fn reseed_codec_lanes(&mut self) {
        self.out_links.reseed_codec_lanes();
        self.inject_links.reseed_codec_lanes();
    }

    /// Queues a packet at its source NI — [`Simulator::inject_rows`] on
    /// the packet's images.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError`] if nodes are out of range or a payload flit
    /// exceeds the link width.
    // btr-lint: allow(test-only-pub, reason = "tests/transport_parity.rs flat_engine_matches_golden_digests injects its seeded traffic through it")
    pub fn inject(&mut self, packet: Packet) -> Result<u64, InjectError> {
        self.inject_rows(
            packet.src,
            packet.dst,
            packet.payload_flits.as_slice(),
            packet.tag,
        )
    }

    /// Queues a packet `src → dst` carrying `payload`'s rows, tagged
    /// `tag`, at its source NI and returns its id. The rows are copied
    /// once into the packet's slot buffer, re-aligned onto the link width
    /// when narrower; the head row is written beside it.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError`] if nodes are out of range or a payload flit
    /// exceeds the link width.
    pub fn inject_rows(
        &mut self,
        src: NodeId,
        dst: NodeId,
        payload: &(impl FlitRows + ?Sized),
        tag: u64,
    ) -> Result<u64, InjectError> {
        let n = self.config.num_nodes();
        for node in [src, dst] {
            if node >= n {
                return Err(InjectError::NodeOutOfRange(node));
            }
        }
        let width = self.config.link_width_bits;
        let flits = payload.flit_count();
        if let Some(too_wide) = (0..flits)
            .map(|i| payload.flit_width(i))
            .find(|&w| w > width)
        {
            return Err(InjectError::PayloadTooWide {
                width: too_wide,
                link: width,
            });
        }
        let id = self.next_packet_id;
        self.next_packet_id += 1;
        let mut rows = self.row_pool.pop().unwrap_or_else(|| FlitSlab::new(width));
        rows.reset(width);
        rows.extend_rows(payload);
        let slot = PacketSlot {
            id,
            inject_cycle: self.cycle,
            dst,
            payload: rows,
        };
        let slot = match self.free_slots.pop() {
            Some(free) => {
                self.slots[free as usize] = slot;
                free
            }
            None => {
                self.slots.push(slot);
                self.heads.resize(self.heads.len() + self.words, 0);
                (self.slots.len() - 1) as u32
            }
        };
        // Every head field is rewritten in full, over the slot's previous
        // head at the same width.
        write_head_row(self.head_mut(slot), width, src, dst, flits as u32, tag);
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.queued(slot, (src, dst, tag), flits, self.cycle);
        }
        self.ni_pending[src].push_back(PendingPacket { slot, next: 0 });
        set_bit(&mut self.busy_nis, src);
        self.packets_in_flight += 1;
        Ok(id)
    }

    /// The head row of `slot`'s packet.
    #[inline]
    pub(crate) fn head(&self, slot: u32) -> &[u64] {
        &self.heads[slot as usize * self.words..][..self.words]
    }

    /// The head row of `slot`'s packet, writable.
    #[inline]
    fn head_mut(&mut self, slot: u32) -> &mut [u64] {
        &mut self.heads[slot as usize * self.words..][..self.words]
    }

    /// True when no packet is anywhere in the network.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.packets_in_flight == 0
    }

    /// True when no flit is buffered in a router, on a link, or
    /// mid-ejection — the network proper is empty even if whole packets
    /// are still queued at their source NIs. The analytic replay
    /// ([`crate::analytic`]) requires this before it consumes the queues.
    #[must_use]
    pub(crate) fn network_drained(&self) -> bool {
        self.link_inflight.is_empty()
            && self.eject_inflight.is_empty()
            && self.busy_routers.iter().all(|&m| m == 0)
    }

    /// A snapshot of the round-robin arbitration pointers.
    #[cfg(any(test, debug_assertions))]
    pub(crate) fn arbitration(&self) -> Arbitration {
        let mut snapshot = Arbitration::new(&self.config);
        self.save_arbitration(&mut snapshot);
        snapshot
    }

    /// Copies the round-robin arbitration pointers into `snapshot`
    /// (sized for this mesh, so nothing is allocated).
    pub(crate) fn save_arbitration(&self, snapshot: &mut Arbitration) {
        snapshot.sw_rr.clone_from(&self.sw_rr);
        snapshot.vc_rr.clone_from(&self.vc_rr);
        snapshot.ni_vc_rr.clone_from(&self.ni_vc_rr);
    }

    /// True when the arbitration pointers equal `snapshot`.
    pub(crate) fn arbitration_is(&self, snapshot: &Arbitration) -> bool {
        self.sw_rr == snapshot.sw_rr
            && self.vc_rr == snapshot.vc_rr
            && self.ni_vc_rr == snapshot.ni_vc_rr
    }

    /// Sets the arbitration pointers to `snapshot`.
    pub(crate) fn restore_arbitration(&mut self, snapshot: &Arbitration) {
        self.sw_rr.clone_from(&snapshot.sw_rr);
        self.vc_rr.clone_from(&snapshot.vc_rr);
        self.ni_vc_rr.clone_from(&snapshot.ni_vc_rr);
    }

    /// Packets currently in flight (queued, buffered, or on links).
    #[must_use]
    pub fn in_flight(&self) -> u64 {
        self.packets_in_flight
    }

    /// Takes every delivered packet across all nodes (ordered by node,
    /// then delivery order).
    pub fn drain_all_delivered(&mut self) -> Vec<DeliveredPacket> {
        let mut out = Vec::new();
        self.drain_all_delivered_into(&mut out);
        out
    }

    /// [`Simulator::drain_all_delivered`] into a caller-owned buffer, so
    /// per-cycle polling loops reuse one allocation for the lifetime of a
    /// run. The deliveries `out` still holds are handed back first: their
    /// payload buffers carry the next injected packets' rows.
    pub fn drain_all_delivered_into(&mut self, out: &mut Vec<DeliveredPacket>) {
        // One pooled buffer per free slot at most: the pool never holds
        // more than the peak number of packets in flight.
        self.row_pool
            .extend(out.drain(..).map(|delivered| delivered.payload_flits));
        self.row_pool.truncate(self.free_slots.len());
        if self.delivered_pending == 0 {
            return;
        }
        let pending = std::mem::take(&mut self.delivered_pending) as usize;
        // Most NIs are idle on a given cycle: skip empty queues, and stop
        // once every pending packet has been taken.
        for ni in &mut self.ni_delivered {
            if !ni.is_empty() {
                out.extend(ni.drain(..));
                if out.len() == pending {
                    break;
                }
            }
        }
        debug_assert_eq!(out.len(), pending, "delivered count out of sync");
    }

    /// Number of packets queued at `node`'s NI that have not finished
    /// injecting (used by callers to throttle, emulating a bounded
    /// prefetch buffer at the MC).
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    #[must_use]
    pub fn pending_at(&self, node: NodeId) -> usize {
        self.ni_pending[node].len()
    }

    /// Runs until every injected packet is delivered.
    ///
    /// # Errors
    ///
    /// Returns [`StallError`] if the network has not drained after
    /// `max_cycles` additional cycles.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> Result<u64, StallError> {
        let start = self.cycle;
        while !self.is_idle() {
            if self.cycle - start >= max_cycles {
                return Err(StallError {
                    cycles: self.cycle - start,
                    in_flight: self.packets_in_flight,
                });
            }
            self.step();
        }
        Ok(self.cycle - start)
    }

    /// Advances the simulation by one cycle.
    pub fn step(&mut self) {
        self.deliver_link_flits();
        self.inject_from_nis();
        self.route_and_switch();
        self.cycle += 1;
    }

    /// Phase 1: flits that were on links land in downstream buffers / NIs.
    fn deliver_link_flits(&mut self) {
        let mut arrivals = std::mem::take(&mut self.link_inflight);
        for a in arrivals.drain(..) {
            let vi = self.vi(a.node as usize, a.port as usize, a.vc as usize);
            debug_assert!(
                self.fifo_len[vi] < self.depth,
                "credit protocol violated: buffer overflow at router {} port {} vc {}",
                a.node,
                a.port,
                a.vc
            );
            let mut offset = self.fifo_head[vi] + self.fifo_len[vi];
            if offset >= self.depth {
                offset -= self.depth;
            }
            self.fifo[vi * self.depth + offset] = a.fref;
            self.fifo_len[vi] += 1;
            self.active_vcs[a.node as usize] |=
                1u64 << (a.port as usize * self.num_vcs + a.vc as usize);
            set_bit(&mut self.busy_routers, a.node as usize);
        }
        // Return the (empty) buffer so its capacity is reused next cycle.
        self.link_inflight = arrivals;

        let mut ejections = std::mem::take(&mut self.eject_inflight);
        for &(node, fref) in &ejections {
            self.receive_at_ni(node as usize, fref);
        }
        ejections.clear();
        self.eject_inflight = ejections;
    }

    /// Phase 2: each NI with a queued packet pushes at most one flit into
    /// its router, in ascending node order.
    fn inject_from_nis(&mut self) {
        for word in 0..self.busy_nis.len() {
            // Bits only clear while the NIs inject, so a snapshot of the
            // word visits every NI that was busy at the start.
            let mut bits = self.busy_nis[word];
            while bits != 0 {
                let node = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.inject_at(node);
            }
        }
    }

    /// Phase 2 at one NI whose queue holds a packet.
    fn inject_at(&mut self, node: usize) {
        let Some(front) = self.ni_pending[node].front_mut() else {
            // Unreachable: the NI's busy bit says its queue is nonempty.
            return;
        };
        // Start the next packet when the current one has fully left.
        if front.next == 0 {
            self.ni_current_vc[node] = self.ni_vc_rr[node];
            self.ni_vc_rr[node] += 1;
            if self.ni_vc_rr[node] == self.num_vcs {
                self.ni_vc_rr[node] = 0;
            }
        }
        let vc = self.ni_current_vc[node];
        if self.ni_credits[node * self.num_vcs + vc] == 0 {
            return;
        }
        self.ni_credits[node * self.num_vcs + vc] -= 1;
        let slot = &mut self.slots[front.slot as usize];
        let flits = slot.payload.len() as u32 + 1;
        let fref = FlitRef {
            slot: front.slot,
            seq: front.next,
            kind: FlitKind::at(front.next, flits),
        };
        front.next += 1;
        if fref.kind.is_tail() {
            self.ni_pending[node].pop_front();
            if self.ni_pending[node].is_empty() {
                clear_bit(&mut self.busy_nis, node);
            }
        }
        if fref.kind.is_head() {
            let head = &self.heads[fref.slot as usize * self.words..][..self.words];
            self.inject_links.observe(node, head);
        } else {
            let row = slot.payload.flit_mut(fref.seq as usize - 1);
            if self.inject_links.faults_armed() {
                // Error-injected wires: flips land in the row the
                // downstream hop actually carries, so it is written back
                // in place.
                self.inject_links.observe_payload(node, row);
            } else {
                // Perfect wires (per-link scope: encoded against the
                // link's persistent wire memory) carry the plain row
                // onward unchanged.
                self.inject_links.observe_payload_hop(node, row);
            }
        }
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.hop(
                self.config.num_nodes() * NUM_PORTS + node,
                fref.slot,
                fref.seq,
                fref.kind.is_tail(),
            );
        }
        self.link_inflight.push(LinkArrival {
            node: node as u32,
            port: LOCAL as u8,
            vc: vc as u8,
            fref,
        });
    }

    /// Phase 3: route computation, VC allocation, switch allocation and
    /// link traversal at every router with buffered flits, in ascending
    /// node order.
    fn route_and_switch(&mut self) {
        for word in 0..self.busy_routers.len() {
            // An idle router (no buffered flits) cannot route, allocate or
            // forward anything, and its round-robin pointers only move on
            // a grant — skipping it is exactly what the reference
            // implementation's no-op iteration does. Routers only drain
            // during phase 3 (forwarded flits land next cycle), so a
            // snapshot of the word visits every busy router.
            let mut bits = self.busy_routers[word];
            while bits != 0 {
                let r = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.switch_router(r);
            }
        }
    }

    /// Phase 3 at router `r`, which holds at least one flit.
    fn switch_router(&mut self, r: usize) {
        let num_vcs = self.num_vcs;
        // An empty VC cannot route, allocate or forward anything, so
        // every loop below visits only the occupied VCs (set bits), in
        // the same ascending / round-robin order as a full scan.
        let active = self.active_vcs[r];
        let vbase = r * NUM_PORTS * num_vcs;
        let rbase = r * NUM_PORTS;
        // Union of the per-port candidate masks: exactly the VCs
        // whose head-of-line packet already holds a route.
        let routed_union = self.routed_to[rbase]
            | self.routed_to[rbase + 1]
            | self.routed_to[rbase + 2]
            | self.routed_to[rbase + 3]
            | self.routed_to[rbase + 4];
        // 3a. Route computation for fresh head flits — only occupied
        // VCs without a route can need one.
        let mut m = active & !routed_union;
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            let vi = vbase + k;
            debug_assert_eq!(self.route_port[vi], UNSET, "routed_to mask out of sync");
            let fref = self.fifo[vi * self.depth + self.fifo_head[vi]];
            if fref.kind.is_head() {
                let dst = self.slots[fref.slot as usize].dst;
                let op = route(&self.config, r, dst).index();
                self.route_port[vi] = op;
                self.routed_to[rbase + op] |= 1u64 << k;
            }
        }
        // 3b. Output-VC allocation for routed heads without a VC
        // (a routed head-of-line flit *is* a head: routes are
        // computed at heads and cleared at tails).
        let mut m = active
            & (self.routed_to[rbase]
                | self.routed_to[rbase + 1]
                | self.routed_to[rbase + 2]
                | self.routed_to[rbase + 3]
                | self.routed_to[rbase + 4]);
        while m != 0 {
            let k = m.trailing_zeros() as usize;
            m &= m - 1;
            let vi = vbase + k;
            if self.out_vc[vi] != UNSET {
                continue;
            }
            if !self.fifo[vi * self.depth + self.fifo_head[vi]]
                .kind
                .is_head()
            {
                continue;
            }
            let op = self.route_port[vi];
            debug_assert_ne!(op, UNSET, "candidate without a route");
            let obase = (r * NUM_PORTS + op) * num_vcs;
            let mut ovc = self.vc_rr[r * NUM_PORTS + op];
            for _ in 0..num_vcs {
                if self.out_alloc[obase + ovc] == UNSET {
                    self.out_alloc[obase + ovc] = k;
                    self.out_vc[vi] = ovc;
                    let mut next = ovc + 1;
                    if next == num_vcs {
                        next = 0;
                    }
                    self.vc_rr[r * NUM_PORTS + op] = next;
                    break;
                }
                ovc += 1;
                if ovc == num_vcs {
                    ovc = 0;
                }
            }
        }
        // 3c. Switch allocation per output port (round-robin) and
        // traversal.
        let mut input_port_used = [false; NUM_PORTS];
        for op in 0..NUM_PORTS {
            // Only VCs whose head-of-line packet is routed to this
            // output are candidates; the route filter below becomes
            // an invariant instead of a per-bit miss.
            let candidates = active & self.routed_to[r * NUM_PORTS + op];
            if candidates == 0 {
                continue;
            }
            let obase = (r * NUM_PORTS + op) * num_vcs;
            let start = self.sw_rr[r * NUM_PORTS + op];
            // Visit candidate VCs in round-robin order from `start`:
            // first the set bits at positions >= start, then the
            // wrapped-around set bits below it.
            let start_mask = !0u64 << start;
            let mut winner = None;
            'search: for part in [candidates & start_mask, candidates & !start_mask] {
                let mut m = part;
                while m != 0 {
                    let k = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let vi = vbase + k;
                    debug_assert_eq!(self.route_port[vi], op, "routed_to mask out of sync");
                    let p = self.port_of[k] as usize;
                    if input_port_used[p] {
                        continue;
                    }
                    let ovc = self.out_vc[vi];
                    if ovc == UNSET {
                        continue;
                    }
                    if op != LOCAL && self.credits[obase + ovc] == 0 {
                        continue;
                    }
                    winner = Some((p, k - p * num_vcs, ovc, k));
                    break 'search;
                }
            }
            let Some((p, v, ovc, idx)) = winner else {
                continue;
            };
            input_port_used[p] = true;
            let mut next = idx + 1;
            if next == NUM_PORTS * num_vcs {
                next = 0;
            }
            self.sw_rr[r * NUM_PORTS + op] = next;
            let vi = vbase + idx;
            let fref = self.fifo[vi * self.depth + self.fifo_head[vi]];
            let mut head = self.fifo_head[vi] + 1;
            if head == self.depth {
                head = 0;
            }
            self.fifo_head[vi] = head;
            self.fifo_len[vi] -= 1;
            if self.fifo_len[vi] == 0 {
                self.active_vcs[r] &= !(1u64 << idx);
                if self.active_vcs[r] == 0 {
                    clear_bit(&mut self.busy_routers, r);
                }
            }
            if fref.kind.is_tail() {
                self.out_alloc[obase + ovc] = UNSET;
                self.route_port[vi] = UNSET;
                self.out_vc[vi] = UNSET;
                self.routed_to[r * NUM_PORTS + op] &= !(1u64 << idx);
            }
            // Transmit on the link + record transitions (Fig. 8).
            let link = r * NUM_PORTS + op;
            let slot = &mut self.slots[fref.slot as usize];
            if fref.kind.is_head() {
                let head = &self.heads[fref.slot as usize * self.words..][..self.words];
                self.out_links.observe(link, head);
            } else {
                let row = slot.payload.flit_mut(fref.seq as usize - 1);
                if self.out_links.faults_armed() {
                    // Error-injected wires: the receiving end's decode
                    // of the flipped wire is what travels onward
                    // (ejection links deliver it to the NI), so it is
                    // written back in place.
                    self.out_links.observe_payload(link, row);
                } else {
                    // Perfect wires (per-link scope: encoded against
                    // the link's persistent wire memory) carry the
                    // plain row onward unchanged.
                    self.out_links.observe_payload_hop(link, row);
                }
            }
            if let Some(recorder) = self.recorder.as_deref_mut() {
                recorder.hop(link, fref.slot, fref.seq, fref.kind.is_tail());
            }
            if op == LOCAL {
                self.eject_inflight.push((r as u32, fref));
            } else {
                self.credits[obase + ovc] -= 1;
                let (nr, np) = self.adjacency_tbl[r * NUM_PORTS + op];
                self.link_inflight.push(LinkArrival {
                    node: nr,
                    port: np,
                    vc: ovc as u8,
                    fref,
                });
            }
            // Credit return to the upstream hop for the freed slot.
            if p == LOCAL {
                self.ni_credits[r * num_vcs + v] += 1;
            } else {
                let (ur, u_op) = self.adjacency_tbl[r * NUM_PORTS + p];
                self.credits[(ur as usize * NUM_PORTS + u_op as usize) * num_vcs + v] += 1;
            }
        }
    }

    /// Accepts a flit at the destination NI. At the tail the packet is
    /// delivered: source and tag are decoded from the head row (like a
    /// real NI would), the payload rows move out of the slot — exactly
    /// what traversed the wires — and the slot is recycled.
    fn receive_at_ni(&mut self, node: usize, fref: FlitRef) {
        self.flits_delivered += 1;
        if !fref.kind.is_tail() {
            return;
        }
        let width = self.config.link_width_bits;
        let (src, _dst, _len, tag) = decode_head_row(self.head(fref.slot), width);
        let slot = &mut self.slots[fref.slot as usize];
        let delivered = DeliveredPacket {
            packet_id: slot.id,
            src,
            dst: node,
            tag,
            payload_flits: std::mem::replace(&mut slot.payload, FlitSlab::new(width)),
            inject_cycle: slot.inject_cycle,
            arrival_cycle: self.cycle,
        };
        self.free_slots.push(fref.slot);
        self.latencies.record(delivered.latency());
        if let Some(recorder) = self.recorder.as_deref_mut() {
            recorder.arrived(delivered.latency());
        }
        self.ni_delivered[node].push_back(delivered);
        self.delivered_pending += 1;
        self.packets_in_flight -= 1;
        self.packets_delivered += 1;
    }

    /// Builds a statistics snapshot.
    #[must_use]
    pub fn stats(&self) -> NocStats {
        let mut per_link = Vec::new();
        let mut inter = 0u64;
        let mut eject = 0u64;
        let mut injectt = 0u64;
        let mut hops = 0u64;
        for r in 0..self.config.num_nodes() {
            for p in 0..NUM_PORTS {
                let link = r * NUM_PORTS + p;
                if self.out_links.flits(link) == 0 {
                    continue;
                }
                if p == LOCAL {
                    eject += self.out_links.transitions(link);
                } else {
                    inter += self.out_links.transitions(link);
                }
                hops += self.out_links.flits(link);
                per_link.push(LinkStat {
                    node: r,
                    direction: Direction::ALL[p],
                    injection: false,
                    transitions: self.out_links.transitions(link),
                    flits: self.out_links.flits(link),
                });
            }
        }
        for n in 0..self.config.num_nodes() {
            if self.inject_links.flits(n) == 0 {
                continue;
            }
            injectt += self.inject_links.transitions(n);
            hops += self.inject_links.flits(n);
            per_link.push(LinkStat {
                node: n,
                direction: Direction::Local,
                injection: true,
                transitions: self.inject_links.transitions(n),
                flits: self.inject_links.flits(n),
            });
        }
        NocStats {
            cycles: self.cycle,
            total_transitions: inter + eject + injectt,
            inter_router_transitions: inter,
            injection_transitions: injectt,
            ejection_transitions: eject,
            flit_hops: hops,
            packets_delivered: self.packets_delivered,
            flits_delivered: self.flits_delivered,
            latency: self.latencies.stats(),
            per_link,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_bits::payload::PayloadBits;
    use btr_bits::slab::row_field;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;

    /// Takes the packets delivered to `node` so far.
    fn drained(sim: &mut Simulator, node: NodeId) -> Vec<DeliveredPacket> {
        let out: Vec<DeliveredPacket> = sim.ni_delivered[node].drain(..).collect();
        sim.delivered_pending -= out.len() as u64;
        out
    }

    fn image(width: u32, fill: u64) -> PayloadBits {
        let mut p = PayloadBits::zero(width);
        p.set_field(0, 64.min(width), fill);
        p
    }

    fn small_sim() -> Simulator {
        Simulator::new(NocConfig::mesh(4, 4, 128))
    }

    #[test]
    fn single_packet_delivery() {
        let mut sim = small_sim();
        let payload = vec![image(128, 0xdead), image(128, 0xbeef)];
        sim.inject(Packet::new(0, 15, payload.clone(), 42)).unwrap();
        let cycles = sim.run_until_idle(1000).unwrap();
        assert!(cycles > 0);
        let got = drained(&mut sim, 15);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].tag, 42);
        assert_eq!(got[0].src, 0);
        assert_eq!(got[0].payload_flits.len(), 2);
        assert_eq!(row_field(got[0].payload_flits.flit(0), 0, 64), 0xdead);
        assert_eq!(row_field(got[0].payload_flits.flit(1), 0, 64), 0xbeef);
        assert!(got[0].latency() >= 6, "XY path 0->15 is 6 hops");
    }

    #[test]
    fn self_delivery_works() {
        let mut sim = small_sim();
        sim.inject(Packet::new(5, 5, vec![image(128, 7)], 1))
            .unwrap();
        sim.run_until_idle(100).unwrap();
        let got = drained(&mut sim, 5);
        assert_eq!(got.len(), 1);
    }

    #[test]
    fn latency_grows_with_distance() {
        let mut sim = small_sim();
        sim.inject(Packet::new(0, 1, vec![image(128, 1)], 0))
            .unwrap();
        sim.run_until_idle(100).unwrap();
        let near = drained(&mut sim, 1)[0].latency();
        let mut sim2 = small_sim();
        sim2.inject(Packet::new(0, 15, vec![image(128, 1)], 0))
            .unwrap();
        sim2.run_until_idle(100).unwrap();
        let far = drained(&mut sim2, 15)[0].latency();
        assert!(far > near, "far {far} vs near {near}");
    }

    #[test]
    fn many_packets_all_arrive_exactly_once() {
        let mut sim = small_sim();
        let mut rng = StdRng::seed_from_u64(3);
        let mut expected: HashMap<usize, usize> = HashMap::new();
        for tag in 0..200u64 {
            let src = rng.gen_range(0..16);
            let dst = rng.gen_range(0..16);
            let flits = rng.gen_range(1..5);
            let payload: Vec<PayloadBits> = (0..flits).map(|_| image(128, rng.gen())).collect();
            sim.inject(Packet::new(src, dst, payload, tag)).unwrap();
            *expected.entry(dst).or_default() += 1;
        }
        sim.run_until_idle(100_000).unwrap();
        let mut got_total = 0;
        for node in 0..16 {
            let got = drained(&mut sim, node);
            assert_eq!(got.len(), *expected.get(&node).unwrap_or(&0), "node {node}");
            got_total += got.len();
        }
        assert_eq!(got_total, 200);
        let stats = sim.stats();
        assert_eq!(stats.packets_delivered, 200);
        assert!(stats.total_transitions > 0);
        assert_eq!(
            stats.total_transitions,
            stats.inter_router_transitions
                + stats.injection_transitions
                + stats.ejection_transitions
        );
    }

    #[test]
    fn payload_integrity_under_contention() {
        // Many senders to one hotspot: flits interleave on shared links but
        // packets must reassemble intact.
        let mut sim = small_sim();
        for src in 0..16usize {
            if src == 5 {
                continue;
            }
            let payload: Vec<PayloadBits> = (0..4)
                .map(|i| image(128, (src as u64) << 32 | i as u64))
                .collect();
            sim.inject(Packet::new(src, 5, payload, src as u64))
                .unwrap();
        }
        sim.run_until_idle(10_000).unwrap();
        let got = drained(&mut sim, 5);
        assert_eq!(got.len(), 15);
        for d in got {
            for i in 0..d.payload_flits.len() {
                assert_eq!(
                    row_field(d.payload_flits.flit(i), 0, 64),
                    (d.tag << 32) | i as u64,
                    "packet {}",
                    d.tag
                );
            }
        }
    }

    #[test]
    fn transitions_accumulate_on_links() {
        let mut sim = small_sim();
        // Two maximally different flits: every payload wire toggles at each
        // hop boundary within the packet.
        let payload = vec![image(128, 0), image(128, u64::MAX)];
        sim.inject(Packet::new(0, 3, payload, 0)).unwrap();
        sim.run_until_idle(1000).unwrap();
        let stats = sim.stats();
        // 3 hops east + inject + eject = 5 links; each sees (head->0: some)
        // + (0 -> ones: 64) transitions at least.
        assert!(
            stats.total_transitions >= 5 * 64,
            "{}",
            stats.total_transitions
        );
        assert!(stats.flit_hops >= 15);
        assert!(stats.total_transitions > 0 && stats.flit_hops > 0);
    }

    #[test]
    fn empty_payload_travels_as_one_headtail_flit() {
        let mut sim = small_sim();
        sim.inject(Packet::new(0, 3, Vec::new(), 11)).unwrap();
        sim.run_until_idle(100).unwrap();
        let got = drained(&mut sim, 3);
        assert_eq!(got.len(), 1);
        assert_eq!((got[0].src, got[0].tag), (0, 11));
        assert!(got[0].payload_flits.is_empty());
        let stats = sim.stats();
        assert_eq!(stats.flits_delivered, 1);
        // Injection, three hops east, ejection.
        assert_eq!(stats.flit_hops, 5);
    }

    #[test]
    fn narrow_payloads_are_realigned_onto_the_link() {
        // Images narrower than the link are zero-extended field by field
        // onto its width, as a per-flit serializer would: delivered
        // images and every link's transitions equal those of the same
        // images pre-widened by that serializer.
        let mut rng = StdRng::seed_from_u64(5);
        let narrow: Vec<PayloadBits> = [64u32, 100, 128, 1, 72]
            .iter()
            .map(|&width| {
                let mut p = PayloadBits::zero(width);
                let mut off = 0;
                while off < width {
                    let len = 64.min(width - off);
                    p.set_field(off, len, rng.gen::<u64>() & (u64::MAX >> (64 - len)));
                    off += len;
                }
                p
            })
            .collect();
        let widened: Vec<PayloadBits> = narrow
            .iter()
            .map(|image| {
                let mut p = PayloadBits::zero(128);
                let mut off = 0;
                while off < image.width() {
                    let len = 64.min(image.width() - off);
                    p.set_field(off, len, image.field(off, len));
                    off += len;
                }
                p
            })
            .collect();
        let run = |payload: Vec<PayloadBits>| {
            let mut sim = small_sim();
            sim.inject(Packet::new(1, 14, payload, 3)).unwrap();
            sim.run_until_idle(1000).unwrap();
            (drained(&mut sim, 14), sim.stats())
        };
        let (got, stats) = run(narrow);
        let (want, want_stats) = run(widened.clone());
        assert_eq!(got[0].payload_flits.to_payloads(), widened);
        assert_eq!(got, want);
        assert_eq!(stats, want_stats);
        assert_eq!(got[0].payload_flits.width(), 128);
    }

    #[test]
    fn slot_store_holds_only_the_peak_in_flight_and_ids_count_up() {
        // A long seeded run that injects while it steps: the packet store
        // never holds more slots than the most packets ever in flight at
        // once, while ids count up across reused slots and each delivery
        // reports the id its injection returned. Deliveries are handed
        // back every cycle, so the pool of payload buffers never holds
        // more than that peak either, and the buffers really are reused.
        let mut sim = small_sim();
        let mut rng = StdRng::seed_from_u64(41);
        let mut ids = Vec::new();
        let mut delivered = Vec::new();
        let mut handed_back = Vec::new();
        let mut peak = 0;
        for _ in 0..6_000 {
            if rng.gen_range(0..3) == 0 {
                let (src, dst) = (rng.gen_range(0..16), rng.gen_range(0..16));
                let payload: Vec<PayloadBits> = (0..rng.gen_range(0..6))
                    .map(|_| image(128, rng.gen()))
                    .collect();
                let tag = ids.len() as u64;
                ids.push(sim.inject(Packet::new(src, dst, payload, tag)).unwrap());
            }
            peak = peak.max(sim.in_flight());
            sim.step();
            sim.drain_all_delivered_into(&mut handed_back);
            delivered.extend(handed_back.iter().map(|d| (d.packet_id, d.tag)));
            assert!(sim.slots.len() as u64 <= peak, "store outgrew the peak");
            assert!(
                sim.row_pool.len() <= sim.free_slots.len(),
                "buffer pool outgrew the free slots"
            );
        }
        sim.run_until_idle(100_000).unwrap();
        sim.drain_all_delivered_into(&mut handed_back);
        delivered.extend(handed_back.iter().map(|d| (d.packet_id, d.tag)));
        // Handing the last deliveries back fills the pool up to the peak.
        sim.drain_all_delivered_into(&mut handed_back);
        assert_eq!(
            sim.row_pool.len() as u64,
            peak,
            "one pooled buffer per slot"
        );
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "ids are monotonic");
        assert_eq!(ids, (0..ids.len() as u64).collect::<Vec<_>>());
        assert_eq!(delivered.len(), ids.len());
        for &(id, tag) in &delivered {
            assert_eq!(id, ids[tag as usize], "tag {tag}");
        }
        let mut seen: Vec<u64> = delivered.iter().map(|&(id, _)| id).collect();
        seen.sort_unstable();
        assert_eq!(seen, ids, "every id delivered exactly once");
        // The slots really were reused.
        assert!(
            sim.slots.len() * 10 < ids.len(),
            "{} slots",
            sim.slots.len()
        );
        assert_eq!(sim.free_slots.len(), sim.slots.len());
    }

    #[test]
    fn stall_is_reported() {
        let mut sim = small_sim();
        sim.inject(Packet::new(0, 15, vec![image(128, 1); 100], 0))
            .unwrap();
        let err = sim.run_until_idle(3).unwrap_err();
        assert_eq!(err.cycles, 3);
        assert_eq!(err.in_flight, 1);
        assert!(err.to_string().contains("did not drain"));
        // It still completes afterwards.
        sim.run_until_idle(10_000).unwrap();
        assert!(sim.is_idle());
    }

    #[test]
    fn inject_validation() {
        let mut sim = small_sim();
        assert_eq!(
            sim.inject(Packet::new(99, 0, Vec::new(), 0)).unwrap_err(),
            InjectError::NodeOutOfRange(99)
        );
        assert_eq!(
            sim.inject(Packet::new(0, 99, Vec::new(), 0)).unwrap_err(),
            InjectError::NodeOutOfRange(99)
        );
        let err = sim
            .inject(Packet::new(0, 1, vec![image(512, 0)], 0))
            .unwrap_err();
        assert!(matches!(err, InjectError::PayloadTooWide { .. }));
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || -> (u64, u64) {
            let mut sim = small_sim();
            let mut rng = StdRng::seed_from_u64(9);
            for tag in 0..50u64 {
                let src = rng.gen_range(0..16);
                let dst = rng.gen_range(0..16);
                let payload: Vec<PayloadBits> = (0..rng.gen_range(1..6))
                    .map(|_| image(128, rng.gen()))
                    .collect();
                sim.inject(Packet::new(src, dst, payload, tag)).unwrap();
            }
            sim.run_until_idle(100_000).unwrap();
            let s = sim.stats();
            (s.total_transitions, s.cycles)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn wormhole_respects_vc_buffer_depth() {
        // Saturating traffic; the debug_assert in deliver_link_flits checks
        // that the credit protocol never overflows a buffer.
        let mut sim = small_sim();
        for tag in 0..64u64 {
            let src = (tag % 16) as usize;
            let dst = ((tag * 7) % 16) as usize;
            sim.inject(Packet::new(src, dst, vec![image(128, tag); 8], tag))
                .unwrap();
        }
        sim.run_until_idle(100_000).unwrap();
        assert!(sim.is_idle());
    }

    #[test]
    fn per_link_codec_is_lossless_and_changes_the_wire() {
        use btr_core::codec::CodecKind;
        // The same seeded traffic over raw wires and over links that own
        // persistent codec state: packet movement is identical (the codec
        // only re-images payload flits, one per flit either way), the
        // delivered payloads are bit-equal (every hop's mirrored decoder
        // recovers the plain image), and the recorded wire genuinely
        // differs — including across packet boundaries, which per-link
        // state deliberately does not reset at.
        for codec in [CodecKind::DeltaXor, CodecKind::BusInvert] {
            let link_width = 128 + codec.extra_wires();
            let raw_cfg = NocConfig::mesh(4, 4, link_width);
            let coded_cfg = raw_cfg.clone().with_link_codec(Some(codec));
            let mut raw = Simulator::new(raw_cfg);
            let mut coded = Simulator::new(coded_cfg);
            let mut rng = StdRng::seed_from_u64(31);
            for tag in 0..120u64 {
                let src = rng.gen_range(0..16);
                let dst = rng.gen_range(0..16);
                let payload: Vec<PayloadBits> = (0..rng.gen_range(1..6))
                    .map(|_| {
                        let mut p = PayloadBits::zero(128);
                        p.set_field(0, 64, rng.gen());
                        p.set_field(64, 64, rng.gen());
                        p
                    })
                    .collect();
                raw.inject(Packet::new(src, dst, payload.clone(), tag))
                    .unwrap();
                coded.inject(Packet::new(src, dst, payload, tag)).unwrap();
            }
            raw.run_until_idle(100_000).unwrap();
            coded.run_until_idle(100_000).unwrap();
            let (rs, cs) = (raw.stats(), coded.stats());
            assert_eq!(rs.cycles, cs.cycles, "{codec}: packet movement");
            assert_eq!(rs.flit_hops, cs.flit_hops, "{codec}");
            assert_eq!(rs.packets_delivered, cs.packets_delivered);
            assert_ne!(
                rs.total_transitions, cs.total_transitions,
                "{codec} must change the recorded wire"
            );
            for node in 0..16 {
                assert_eq!(
                    drained(&mut raw, node),
                    drained(&mut coded, node),
                    "{codec}: delivered payloads at node {node}"
                );
            }
        }
    }

    #[test]
    fn fault_injection_is_deterministic_and_inert_at_zero_ber() {
        use crate::fault::{BitErrorRate, ErrorModel, FaultConfig, FaultMode};
        use btr_core::codec::CodecKind;
        let traffic = |sim: &mut Simulator| {
            let mut rng = StdRng::seed_from_u64(17);
            for tag in 0..80u64 {
                let src = rng.gen_range(0..16);
                let dst = rng.gen_range(0..16);
                let payload: Vec<PayloadBits> = (0..rng.gen_range(1..5))
                    .map(|_| {
                        let mut p = PayloadBits::zero(128);
                        p.set_field(0, 64, rng.gen());
                        p.set_field(64, 64, rng.gen());
                        p
                    })
                    .collect();
                sim.inject(Packet::new(src, dst, payload, tag)).unwrap();
            }
            sim.run_until_idle(100_000).unwrap();
        };
        for codec in [None, Some(CodecKind::DeltaXor)] {
            let link_width = 128 + codec.map_or(0, CodecKind::extra_wires);
            let base = NocConfig::mesh(4, 4, link_width).with_link_codec(codec);
            let armed = |ber: f64| {
                let model = ErrorModel {
                    ber: BitErrorRate::from_f64(ber),
                    seed: 23,
                    mode: FaultMode::PerFlit,
                };
                base.clone().with_fault(Some(FaultConfig::new(model, 128)))
            };
            // ber = 0 with the model present is bit-identical to no
            // model at all: the slabs never arm.
            let mut plain = Simulator::new(base.clone());
            let mut inert = Simulator::new(armed(0.0));
            assert!(!inert.faults_armed());
            traffic(&mut plain);
            traffic(&mut inert);
            assert_eq!(
                plain.stats().total_transitions,
                inert.stats().total_transitions
            );
            for node in 0..16 {
                assert_eq!(drained(&mut plain, node), drained(&mut inert, node));
            }
            // ber > 0 flips deterministically: two runs agree bit-for-bit.
            let mut a = Simulator::new(armed(0.01));
            let mut b = Simulator::new(armed(0.01));
            assert!(a.faults_armed());
            traffic(&mut a);
            traffic(&mut b);
            assert_eq!(a.stats().total_transitions, b.stats().total_transitions);
            assert_eq!(a.fault_totals(), b.fault_totals());
            assert!(a.fault_totals().0 > 0, "1% BER over this traffic must flip");
            for node in 0..16 {
                assert_eq!(drained(&mut a, node), drained(&mut b, node));
            }
        }
    }

    #[test]
    fn per_link_state_spans_packet_boundaries() {
        use btr_core::codec::CodecKind;
        // Two identical single-flit packets on the same path: a per-link
        // delta-XOR wire sends the second one as all-zero XOR images
        // (state carried over), so the coded run records strictly fewer
        // transitions than the raw wire; a per-packet wire would re-seed
        // and transmit the image verbatim both times.
        let image = {
            let mut p = PayloadBits::zero(128);
            p.set_field(0, 64, 0xaaaa_5555_dead_beef);
            p.set_field(64, 64, 0x0f0f_f0f0_1234_8765);
            p
        };
        let run = |codec: Option<CodecKind>| -> u64 {
            let mut sim = Simulator::new(NocConfig::mesh(4, 1, 128).with_link_codec(codec));
            sim.inject(Packet::new(0, 3, vec![image], 0)).unwrap();
            sim.run_until_idle(10_000).unwrap();
            sim.inject(Packet::new(0, 3, vec![image], 1)).unwrap();
            sim.run_until_idle(10_000).unwrap();
            assert_eq!(sim.stats().packets_delivered, 2);
            sim.stats().total_transitions
        };
        let raw = run(None);
        let coded = run(Some(CodecKind::DeltaXor));
        assert!(
            coded < raw,
            "carried-over XOR state must collapse the repeat packet: {coded} vs {raw}"
        );
    }
}
