//! Analytic fast-path engine: per-link bit transitions computed directly
//! from the ordered coded flit stream, with the cycle engine as oracle.
//!
//! The paper's metric — per-link BTs of the ordered, coded stream
//! (Fig. 8) — depends only on the *order* in which flits traverse each
//! directed link, never on the cycles between them. Whenever a traffic
//! phase is **contention-free** (no two queued packets *from different
//! sources* share a directed router-output link, ejection links
//! included), every link carries packets of one source only, in that
//! source's FIFO injection order — trailing same-source packets never
//! catch each other on a stall-free phase — so the whole phase is a pure
//! function of the stream: no routers, no VC allocation, no per-cycle
//! stepping is needed to count XOR+popcounts.
//!
//! [`Simulator::queued_phase_is_contention_free`] is the (conservative)
//! classifier for that condition. Both entry points share one per-packet
//! hop routine: it charges a whole packet on the injection link and on
//! every router-output link of its dimension-order path
//! ([`crate::stats::LinkSlab::observe_packet`], through the persistent
//! per-link [`LinkCodecState`] tx/rx lanes when the config owns them)
//! and books the packet's closed-form arrival. The per-packet part of
//! each charge is computed once ([`crate::stats::PacketWires`]), so a
//! hop is O(1) on raw wires and on delta-XOR lanes, and one bulk
//! lane-kernel pass on bus-invert lanes.
//!
//! * [`Simulator::replay_queued_analytic`] consumes the packets queued at
//!   the NIs, source-major and FIFO per source, and delivers the decoded
//!   payloads into the same per-node queues the cycle engine fills.
//! * [`Simulator::stream_requests`] opens a [`RequestStream`] that takes
//!   each packet as borrowed images and hands its delivery straight
//!   back, with nothing queued or stored in the simulator — the
//!   accelerator driver's request phase. On a contention-free phase it is
//!   bit-exact with queueing the same packets and replaying them, which
//!   is its oracle in the `engine_parity` tests.
//!
//! Contended phases have a fast path too, when they repeat. A phase that
//! starts on a drained mesh is a pure function of the round-robin
//! arbitration pointers and its injection schedule, never of the payload
//! bits. [`Simulator::record_phase`] has the cycle engine record what it
//! made of them — each link's flit order, every arrival, the phase length
//! and end pointers — into a [`PhaseRecording`]; while
//! [`PhaseRecording::replays`] finds the pointers and schedule unchanged,
//! [`Simulator::replay_phase`] walks each link's recorded order through
//! its slab with new payloads, bit for bit (clock included) what stepping
//! them would do. Debug builds step the phase alongside as the oracle.
//! The accelerator driver records each layer's converging response phase
//! once per session and batch size and replays it on later dispatches.
//!
//! Cycle and latency numbers are advanced from the closed-form
//! uncontended wormhole latency (`hops + flits + 1`, plus the per-source
//! serialization offset) so reports stay populated; they are exact for
//! contention-free phases under the paper's router parameters (4 VCs ×
//! depth-4 buffers) and estimates otherwise.
//!
//! Why contention-freedom is required for bit-exactness: with virtual
//! channels, two packets that temporally overlap on a shared directed
//! link interleave their flits under round-robin switch arbitration, so
//! the link's flit order — and therefore its BT sum and its codec-lane
//! trajectory — is timing-dependent. Injection links are exempt from the
//! rule: an NI injects strictly FIFO, one packet at a time, so the
//! injection-link order is the queue order regardless of contention.
//!
//! When the caller asserts eligibility (`verified_eligible`), debug
//! builds run the **cycle engine as oracle**: the simulator is cloned
//! before the replay, the clone runs the ordinary cycle loop, and per-link
//! transitions, flit counts, codec-lane states and delivered payloads are
//! asserted identical. The `engine_parity` integration tests pin the same
//! equivalence in release builds.
//!
//! Forcing the replay on a *contended* phase (`verified_eligible =
//! false`) is also well-defined at this kernel level — it models the
//! paper's pure per-packet stream metric, serializing packets
//! (source-major, FIFO per source) instead of interleaving them. Payload
//! delivery stays lossless; only the per-link interleaving (and thus the
//! BT totals on shared links) deviates from the cycle engine. No public
//! engine mode forces it: [`EngineMode::Auto`] only takes the fast path
//! when the classifier proves it changes nothing.
//!
//! [`LinkCodecState`]: btr_core::codec::LinkCodecState

use crate::config::{NocConfig, NodeId};
use crate::packet::{decode_head_payload, encode_head_payload, write_head_fields, Packet};
use crate::routing::{route, route_between, Direction};
use crate::sim::{Arbitration, DeliveredPacket, InjectError, Simulator, NUM_PORTS};
use crate::stats::{LatencyTotals, PacketWires};
use btr_bits::payload::PayloadBits;
use btr_bits::slab::FlitSlab;
use std::cmp::Ordering;

/// Which engine evaluates traffic phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// The cycle-accurate flat-array engine for every phase (the
    /// reference semantics).
    #[default]
    Cycle,
    /// Classify each phase and take the analytic fast path only when
    /// contention-freedom is proven, falling back to the cycle engine
    /// otherwise — always bit-identical to `Cycle` on BTs, codec states
    /// and delivered payloads.
    Auto,
}

impl EngineMode {
    /// All modes, in ablation order.
    pub const ALL: [EngineMode; 2] = [EngineMode::Cycle, EngineMode::Auto];

    /// Short label used in tables and JSON (`"cycle"`, `"auto"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EngineMode::Cycle => "cycle",
            EngineMode::Auto => "auto",
        }
    }
}

impl std::fmt::Display for EngineMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for EngineMode {
    type Err = String;

    /// Parses `"cycle"`, `"auto"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "cycle" => Ok(EngineMode::Cycle),
            "auto" => Ok(EngineMode::Auto),
            other => Err(format!("unknown engine mode {other:?}; use cycle|auto")),
        }
    }
}

/// The node one hop from `cur` in direction `dir`.
fn neighbor(config: &NocConfig, cur: NodeId, dir: Direction) -> NodeId {
    let (row, col) = step(config.position(cur), dir);
    config.node_at(row, col)
}

/// The `(row, col)` position one hop from `(row, col)` toward `dir`.
fn step((row, col): (usize, usize), dir: Direction) -> (usize, usize) {
    match dir {
        Direction::North => (row - 1, col),
        Direction::South => (row + 1, col),
        Direction::East => (row, col + 1),
        Direction::West => (row, col - 1),
        Direction::Local => (row, col),
    }
}

/// Classifies an arbitrary `(src, dst)` route set: `true` when no two
/// routes **from different sources** use the same directed router-output
/// link (ejection links included) under the configured dimension-order
/// routing.
///
/// Same-source sharing is allowed — the *FIFO-trailing* rule: an NI
/// injects strictly FIFO, one packet at a time, so a trailing packet from
/// the same source enters the mesh only after its predecessor's tail left
/// the NI. On a phase whose only link sharing is same-source, every
/// switch conflict (input-port or output-port) would have to be between
/// such a trailing pair — which never coexists at a router while the
/// phase is stall-free — so by induction no stall ever happens, packets
/// stream at one hop per cycle, and every shared link's flit order is
/// exactly the source's FIFO injection order, which is the order the
/// analytic replay uses. Injection links are same-source by construction
/// and were always exempt.
///
/// This is the planning-time form of
/// [`Simulator::queued_phase_is_contention_free`]: a driver can prove a
/// layer's request phase eligible before injecting anything, which is
/// what [`EngineMode::Auto`] needs — paired with
/// [`routes_link_disjoint`], since in the cycle engine requests and
/// responses overlap in time.
#[must_use]
pub fn routes_contention_free(
    config: &NocConfig,
    routes: impl IntoIterator<Item = (NodeId, NodeId)>,
) -> bool {
    let mut used: Vec<Option<NodeId>> = vec![None; config.num_nodes() * NUM_PORTS];
    for (src, dst) in routes {
        let mut cur = src;
        loop {
            let dir = route(config, cur, dst);
            let link = cur * NUM_PORTS + dir.index();
            if used[link].is_some_and(|owner| owner != src) {
                return false;
            }
            used[link] = Some(src);
            if dir == Direction::Local {
                break;
            }
            cur = neighbor(config, cur, dir);
        }
    }
    true
}

/// `true` when the two route sets touch **disjoint** directed
/// router-output links (ejection links included; injection links are
/// per-source and cannot collide across sets with distinct sources).
///
/// Link-disjoint traffic sets cannot interact anywhere in the mesh: they
/// share no output port, and — since a router input port is fed by
/// exactly one directed link — no input port either, so neither set can
/// stall, delay or reorder the other. This is what lets a driver split a
/// layer into an analytically replayed request phase and a cycle-stepped
/// response phase while staying bit-identical to the fully overlapped
/// cycle engine on every link's flit order.
#[must_use]
pub fn routes_link_disjoint(
    config: &NocConfig,
    a: impl IntoIterator<Item = (NodeId, NodeId)>,
    b: impl IntoIterator<Item = (NodeId, NodeId)>,
) -> bool {
    let mut used = vec![false; config.num_nodes() * NUM_PORTS];
    for (src, dst) in a {
        let mut cur = src;
        loop {
            let dir = route(config, cur, dst);
            used[cur * NUM_PORTS + dir.index()] = true;
            if dir == Direction::Local {
                break;
            }
            cur = neighbor(config, cur, dir);
        }
    }
    b.into_iter().all(|(src, dst)| {
        let mut cur = src;
        loop {
            let dir = route(config, cur, dst);
            if used[cur * NUM_PORTS + dir.index()] {
                return false;
            }
            if dir == Direction::Local {
                return true;
            }
            cur = neighbor(config, cur, dir);
        }
    })
}

/// The closed-form clock of one analytic phase.
#[derive(Debug)]
struct PhaseClock {
    /// Per source NI: the first cycle its next packet may start
    /// injecting (the NI serializes its queue, one packet at a time).
    cursors: Vec<u64>,
    /// Latest tail arrival booked so far.
    max_arrival: u64,
    /// True once any packet was booked.
    replayed: bool,
}

impl PhaseClock {
    fn new(sim: &Simulator) -> Self {
        Self {
            cursors: vec![sim.cycle; sim.config.num_nodes()],
            max_arrival: 0,
            replayed: false,
        }
    }
}

impl Simulator {
    /// Classifies the traffic phase currently queued at the NIs: `true`
    /// when its route set is contention-free under the configured
    /// dimension-order routing — no two queued packets **from different
    /// sources** use the same directed router-output link, ejection links
    /// included. Same-source sharing is safe under the FIFO-trailing rule
    /// (see [`routes_contention_free`]): the NI serializes its queue, a
    /// trailing packet never catches its predecessor on a stall-free
    /// phase, and the shared link's flit order is the queue order — which
    /// is the order the replay uses. Injection links are same-source by
    /// construction.
    ///
    /// A `true` verdict guarantees [`Simulator::replay_queued_analytic`]
    /// is bit-exact with the cycle engine on per-link BTs, codec-lane
    /// states and delivered payloads. The rule is conservative: phases it
    /// rejects may still happen to agree, but that cannot be proven from
    /// the route set alone (temporal overlap on a shared link interleaves
    /// flits under VC arbitration).
    #[must_use]
    pub fn queued_phase_is_contention_free(&self) -> bool {
        routes_contention_free(
            &self.config,
            self.ni_pending.iter().enumerate().flat_map(|(src, queue)| {
                queue
                    .iter()
                    .map(move |p| (src, self.slots[p.slot as usize].dst))
            }),
        )
    }

    /// Replays every packet queued at the NIs analytically — straight
    /// XOR+popcount passes over the ordered coded stream, per link, with
    /// no cycle stepping — delivering decoded payloads into the same
    /// per-node queues the cycle engine fills. Packets are replayed
    /// source-major (ascending node id), FIFO within each source; on a
    /// contention-free phase that per-link order is provably the cycle
    /// engine's. The simulator clock advances to the closed-form phase
    /// makespan and per-packet latencies are recorded from the
    /// uncontended wormhole latency.
    ///
    /// Set `verified_eligible` when
    /// [`Simulator::queued_phase_is_contention_free`] returned `true`:
    /// debug builds then clone the simulator, run the clone through the
    /// cycle engine, and assert identical per-link transitions, flit
    /// counts, codec-lane states and delivered payloads (the oracle).
    ///
    /// # Panics
    ///
    /// Panics if any flit is already buffered in a router or on a link
    /// (the replay consumes whole queued packets only), or — in debug
    /// builds with `verified_eligible` — if the cycle oracle disagrees.
    pub fn replay_queued_analytic(&mut self, verified_eligible: bool) {
        assert!(
            self.network_drained(),
            "analytic replay requires an empty network (whole packets queued at NIs only)"
        );
        assert!(
            !self.faults_armed(),
            "analytic replay cannot model error-injected wires; error-injected phases \
             must run the cycle engine"
        );
        #[cfg(debug_assertions)]
        let oracle = verified_eligible.then(|| self.clone());
        #[cfg(not(debug_assertions))]
        let _ = verified_eligible;

        let codec = self.out_links.link_codec();
        let mut clock = PhaseClock::new(self);
        for src in 0..self.config.num_nodes() {
            while let Some(pending) = self.ni_pending[src].pop_front() {
                assert_eq!(
                    pending.next, 0,
                    "analytic replay needs fully queued packets, not partially injected ones"
                );
                // Free the slot; its payload images move straight into
                // the delivery. On perfect wires (faults force the cycle
                // engine) the per-link decode-and-realign is the
                // identity, so the delivered payloads are the queued
                // images.
                let slot = &mut self.slots[pending.slot as usize];
                let payload = std::mem::take(&mut slot.payload);
                let (id, head, dst, inject_cycle) =
                    (slot.id, slot.head, slot.dst, slot.inject_cycle);
                self.free_slots.push(pending.slot);
                let rows = FlitSlab::from_images(head.width(), &payload);
                let arrival = self.replay_packet(
                    &mut clock,
                    src,
                    dst,
                    inject_cycle,
                    &PacketWires::new(&head, &rows, codec),
                );

                // Deliver: decode the head exactly like the receiving NI.
                let (head_src, _dst, _len, tag) = decode_head_payload(&head);
                self.ni_delivered[dst].push_back(DeliveredPacket {
                    packet_id: id,
                    src: head_src,
                    dst,
                    tag,
                    payload_flits: payload,
                    inject_cycle,
                    arrival_cycle: arrival,
                });
                self.delivered_pending += 1;
                self.packets_in_flight -= 1;
            }
        }
        self.busy_nis.fill(0);
        self.close_phase(&clock);

        #[cfg(debug_assertions)]
        if let Some(mut oracle) = oracle {
            oracle
                .run_until_idle(u64::MAX / 2)
                // btr-lint: allow(panic-in-hot-path, reason = "debug-assert oracle: the cfg(debug_assertions) cycle-engine shadow run exists to abort loudly on divergence; release builds compile this block out")
                .expect("cycle oracle drains");
            self.assert_matches_cycle_oracle(&oracle);
        }
    }

    /// Opens a request phase streamed straight from borrowed payload
    /// rows: [`RequestStream::deliver`] walks each packet through the
    /// same per-packet hop routine as
    /// [`Simulator::replay_queued_analytic`] the moment it is offered, and
    /// hands back the delivered images with their closed-form arrival. No
    /// packet is queued, stored or retained by the simulator.
    ///
    /// Every packet counts as offered at the phase's start cycle, and each
    /// source NI serializes its own packets in the order they are
    /// delivered. That is bit-exact with queueing the same packets and
    /// calling [`Simulator::replay_queued_analytic`] whenever every link
    /// the phase touches carries one source's packets only (a
    /// contention-free phase, see [`routes_contention_free`]): then each
    /// link sees its source's packets in that source's order, whatever
    /// the interleaving across sources.
    ///
    /// # Panics
    ///
    /// Panics if any packet is in flight (queued at an NI or in the
    /// network) or the wires have faults armed.
    pub fn stream_requests(&mut self) -> RequestStream<'_> {
        assert!(
            self.is_idle(),
            "a streamed request phase needs an idle network"
        );
        assert!(
            !self.faults_armed(),
            "analytic replay cannot model error-injected wires; error-injected phases \
             must run the cycle engine"
        );
        RequestStream {
            clock: PhaseClock::new(self),
            aligned: FlitSlab::new(self.config.link_width_bits),
            sim: self,
        }
    }

    /// The per-packet hop routine both analytic entry points share:
    /// charges `packet` on the injection link at `src` and on every
    /// router-output link of its dimension-order path, ejection link
    /// (`Local` port at `dst`) last, then books the closed-form
    /// uncontended wormhole arrival — one cycle per injected flit, one per
    /// hop, one to land in the router, one to eject into the NI — after
    /// the source NI's previous packet fully left. Returns the arrival
    /// cycle.
    fn replay_packet(
        &mut self,
        clock: &mut PhaseClock,
        src: NodeId,
        dst: NodeId,
        inject_cycle: u64,
        packet: &PacketWires<'_>,
    ) -> u64 {
        self.inject_links.observe_packet(src, packet);
        // Walk the route on (row, col) positions: no division per hop.
        let (mut cur, mut at) = (src, self.config.position(src));
        let to = self.config.position(dst);
        let mut hops = 0u64;
        loop {
            let dir = route_between(self.config.routing, at, to);
            self.out_links
                .observe_packet(cur * NUM_PORTS + dir.index(), packet);
            if dir == Direction::Local {
                break;
            }
            at = step(at, dir);
            cur = self.config.node_at(at.0, at.1);
            hops += 1;
        }
        let flits = packet.flits();
        let start = clock.cursors[src].max(inject_cycle);
        let arrival = start + flits + hops + 1;
        clock.cursors[src] = start + flits;
        clock.max_arrival = clock.max_arrival.max(arrival);
        clock.replayed = true;
        self.latencies.record(arrival - inject_cycle);
        self.flits_delivered += flits;
        self.packets_delivered += 1;
        arrival
    }

    /// Advances the clock to the cycle the `run_until_idle` loop would
    /// observe idleness after the phase `clock` booked.
    fn close_phase(&mut self, clock: &PhaseClock) {
        if clock.replayed {
            self.cycle = self.cycle.max(clock.max_arrival + 1);
        }
    }

    /// Debug-oracle comparison: per-link transitions / flit counts /
    /// codec-lane states and delivered payload contents must match a
    /// simulator that ran the same phase through the cycle engine.
    /// Cycle and latency numbers are deliberately *not* compared — the
    /// analytic clock is a closed-form estimate.
    #[cfg(debug_assertions)]
    fn assert_matches_cycle_oracle(&self, oracle: &Simulator) {
        self.assert_links_match(oracle);
        for node in 0..self.config.num_nodes() {
            // Compare delivered contents (payloads, addressing, tags) but
            // not arrival cycles; order per node is tag-normalized.
            let key = |d: &DeliveredPacket| (d.tag, d.src, d.packet_id);
            let mut mine: Vec<&DeliveredPacket> = self.ni_delivered[node].iter().collect();
            let mut theirs: Vec<&DeliveredPacket> = oracle.ni_delivered[node].iter().collect();
            mine.sort_by_key(|d| key(d));
            theirs.sort_by_key(|d| key(d));
            assert_eq!(mine.len(), theirs.len(), "deliveries at node {node}");
            for (m, t) in mine.iter().zip(theirs.iter()) {
                assert_eq!(
                    (m.src, m.dst, m.tag, &m.payload_flits),
                    (t.src, t.dst, t.tag, &t.payload_flits),
                    "delivered packet diverges from the cycle oracle at node {node}"
                );
            }
        }
    }

    /// Debug-oracle comparison of every link's transitions, flit count
    /// and codec-lane states.
    #[cfg(debug_assertions)]
    fn assert_links_match(&self, oracle: &Simulator) {
        let n = self.config.num_nodes();
        for link in 0..n * NUM_PORTS {
            assert_eq!(
                self.out_links.transitions(link),
                oracle.out_links.transitions(link),
                "out-link {link} ({}:{}) BTs diverge from the cycle oracle",
                link / NUM_PORTS,
                link % NUM_PORTS
            );
            assert_eq!(
                self.out_links.flits(link),
                oracle.out_links.flits(link),
                "out-link {link} flit count diverges from the cycle oracle"
            );
            assert_eq!(
                self.out_links.codec_lane_states(link),
                oracle.out_links.codec_lane_states(link),
                "out-link {link} codec lanes diverge from the cycle oracle"
            );
        }
        for node in 0..n {
            assert_eq!(
                self.inject_links.transitions(node),
                oracle.inject_links.transitions(node),
                "injection-link {node} BTs diverge from the cycle oracle"
            );
            assert_eq!(
                self.inject_links.flits(node),
                oracle.inject_links.flits(node),
                "injection-link {node} flit count diverges from the cycle oracle"
            );
            assert_eq!(
                self.inject_links.codec_lane_states(node),
                oracle.inject_links.codec_lane_states(node),
                "injection-link {node} codec lanes diverge from the cycle oracle"
            );
        }
    }
}

/// A request phase streamed from borrowed dense rows, opened by
/// [`Simulator::stream_requests`]. [`RequestStream::finish`] closes it
/// and advances the clock past its last arrival.
#[derive(Debug)]
#[must_use = "finish the stream to advance the clock past the phase"]
pub struct RequestStream<'s> {
    sim: &'s mut Simulator,
    clock: PhaseClock,
    /// The current packet's rows re-aligned onto the link width, used
    /// only when they arrive narrower.
    aligned: FlitSlab,
}

/// A packet delivered by [`RequestStream::deliver`], borrowing the
/// payload rows the receiving NI holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedPacket<'a> {
    /// Payload flit rows, in order; at the link width unless the packet
    /// carries none.
    pub payload_flits: &'a FlitSlab,
    /// Cycle the tail flit was ejected.
    pub arrival_cycle: u64,
}

impl RequestStream<'_> {
    /// Sends one packet `src → dst` through the phase and delivers it:
    /// the checks [`Simulator::inject`] makes, the head image and
    /// re-alignment of narrower rows onto the link width as
    /// [`Simulator::inject`] stores them, then the per-packet hop walk
    /// and the closed-form arrival.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError`] if a node is out of range or the payload
    /// rows are wider than the link.
    pub fn deliver<'a>(
        &'a mut self,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: &'a FlitSlab,
    ) -> Result<StreamedPacket<'a>, InjectError> {
        let Self {
            sim,
            clock,
            aligned,
        } = self;
        let n = sim.config.num_nodes();
        for node in [src, dst] {
            if node >= n {
                return Err(InjectError::NodeOutOfRange(node));
            }
        }
        let link = sim.config.link_width_bits;
        if !payload.is_empty() && payload.width() > link {
            return Err(InjectError::PayloadTooWide {
                width: payload.width(),
                link,
            });
        }
        let payload: &'a FlitSlab = if payload.is_empty() || payload.width() == link {
            payload
        } else {
            aligned.reset(link);
            aligned.extend_from(payload);
            aligned
        };
        let head = encode_head_payload(link, src, dst, payload.len() as u32, tag);
        // Every packet of the phase is offered at its start cycle; the
        // clock cannot move while the stream borrows the simulator.
        let (codec, inject_cycle) = (sim.out_links.link_codec(), sim.cycle);
        let arrival_cycle = sim.replay_packet(
            clock,
            src,
            dst,
            inject_cycle,
            &PacketWires::new(&head, payload, codec),
        );
        Ok(StreamedPacket {
            payload_flits: payload,
            arrival_cycle,
        })
    }

    /// Closes the phase: the clock advances to the cycle after its last
    /// arrival, as [`Simulator::replay_queued_analytic`] leaves it.
    pub fn finish(self) {
        self.sim.close_phase(&self.clock);
    }
}

/// One packet of a scheduled phase of single-payload-flit packets, in
/// injection order — what a [`PhaseRecording`] compares before it
/// replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledPacket {
    /// Source NI.
    pub src: NodeId,
    /// Destination NI.
    pub dst: NodeId,
    /// Cycles after the phase start at which the packet is queued at its
    /// source NI.
    pub offset: u64,
}

/// Appends `value` as a LEB128 varint (7 bits per byte, low first).
fn push_varint(bytes: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        bytes.push(value as u8 | 0x80);
        value >>= 7;
    }
    bytes.push(value as u8);
}

/// Reads the LEB128 varint at `*at` and advances past it.
fn read_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let mut value = 0;
    let mut shift = 0;
    loop {
        let byte = bytes[*at];
        *at += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte < 0x80 {
            return value;
        }
        shift += 7;
    }
}

/// Kind bits of a recorded link event `index << 2 | kind`: the packet's
/// head crossed the link, its payload flit did, or both back to back.
const HEAD_EVENT: i64 = 1;
const PAYLOAD_EVENT: i64 = 2;

/// Maps a signed delta onto an unsigned varint (zigzag: 0, -1, 1, -2, …).
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    (value >> 1) as i64 ^ -((value & 1) as i64)
}

/// Every directed link `(src, dst)`'s packet crosses, as recording link
/// ids: its injection link (`nodes * 5 + src`), then each router output
/// (`node * 5 + port`), ejection last.
fn route_links(config: &NocConfig, src: NodeId, dst: NodeId) -> impl Iterator<Item = usize> + '_ {
    let mut cur = Some(src);
    std::iter::once(config.num_nodes() * NUM_PORTS + src).chain(std::iter::from_fn(move || {
        let node = cur?;
        let dir = route(config, node, dst);
        cur = (dir != Direction::Local).then(|| neighbor(config, node, dir));
        Some(node * NUM_PORTS + dir.index())
    }))
}

/// A [`PhaseRecording`] being written while the cycle engine steps the
/// phase ([`Simulator::record_phase`]).
///
/// [`PhaseRecorder::reserve`] allocates all of the recording up front,
/// sized from the phase's routes, and finishing it allocates nothing. A
/// recording outlives the dispatch that steps it, so allocating it before
/// any of the phase's traffic state keeps it below that dispatch's
/// short-lived buffers instead of pinning them in the heap.
#[derive(Debug, Clone)]
pub struct PhaseRecorder {
    recording: PhaseRecording,
    start_cycle: u64,
    /// Id of the phase's first packet: a packet's index in the recording
    /// is its id less this one.
    first_packet: u64,
    last_offset: u64,
    /// Per link id: its last written event, and a head still waiting to
    /// learn whether its payload flit follows right behind it.
    tails: Vec<(i64, Option<u32>)>,
    /// Set when the phase does not fit a recording: a packet without
    /// exactly one payload flit, node ids beyond 16 bits, or more than
    /// `u32::MAX` packets.
    unfit: bool,
}

impl PhaseRecorder {
    /// A recorder for a phase on a `config` mesh of one
    /// single-payload-flit packet per `(src, dst)` of `routes`, with exact
    /// room for the packets and an upper bound for each link's events.
    /// Routes it was not sized for still record, growing the storage.
    #[must_use]
    pub fn reserve(config: &NocConfig, routes: impl IntoIterator<Item = (NodeId, NodeId)>) -> Self {
        let links = config.num_nodes() * (NUM_PORTS + 1);
        let mut packets = vec![0usize; links];
        let mut total = 0usize;
        for (src, dst) in routes {
            total += 1;
            for link in route_links(config, src, dst) {
                packets[link] += 1;
            }
        }
        // Event deltas on a link are below 4 * (total + 1) in magnitude;
        // offsets mostly step by a few cycles.
        let delta_bytes =
            (u64::BITS - (8 * (total as u64 + 1)).leading_zeros()).div_ceil(7) as usize;
        let pointers = Arbitration::new(config);
        Self {
            recording: PhaseRecording {
                config: config.clone(),
                start: pointers.clone(),
                end: pointers,
                endpoints: Vec::with_capacity(total),
                offsets: Vec::with_capacity(2 * total),
                links: packets
                    .into_iter()
                    .map(|n| Vec::with_capacity(2 * n * delta_bytes))
                    .collect(),
                latency_totals: LatencyTotals::default(),
                length: 0,
            },
            start_cycle: 0,
            first_packet: 0,
            last_offset: 0,
            tails: vec![(0, None); links],
            unfit: false,
        }
    }

    /// Books a packet queued at its source NI at `cycle`.
    pub(crate) fn queued(&mut self, packet: &Packet, cycle: u64) {
        let (src, dst) = (u16::try_from(packet.src), u16::try_from(packet.dst));
        let recording = &mut self.recording;
        self.unfit |= src.is_err()
            || dst.is_err()
            || packet.payload_flits.len() != 1
            || recording.endpoints.len() >= u32::MAX as usize;
        recording
            .endpoints
            .push([src.unwrap_or_default(), dst.unwrap_or_default()]);
        let offset = cycle - self.start_cycle;
        push_varint(
            &mut recording.offsets,
            zigzag(offset as i64 - self.last_offset as i64),
        );
        self.last_offset = offset;
    }

    /// Books flit `seq` of packet `id` crossing `link`. Events are
    /// written as zigzag varint deltas to the link's last event, and a
    /// head the payload flit follows directly shares one event with it.
    pub(crate) fn hop(&mut self, link: usize, id: u64, seq: u32) {
        // A phase of more than `u32::MAX` packets is unfit and never
        // finishes as a recording, so truncation cannot be observed.
        let index = (id - self.first_packet) as u32;
        let (last, pending) = &mut self.tails[link];
        let events = &mut self.recording.links[link];
        let mut push = |index: u32, kind: i64| {
            let event = (i64::from(index) << 2) | kind;
            push_varint(events, zigzag(event - *last));
            *last = event;
        };
        if seq > 0 && *pending == Some(index) {
            *pending = None;
            push(index, HEAD_EVENT | PAYLOAD_EVENT);
            return;
        }
        if let Some(head) = pending.take() {
            push(head, HEAD_EVENT);
        }
        if seq == 0 {
            *pending = Some(index);
        } else {
            push(index, PAYLOAD_EVENT);
        }
    }

    /// Books a packet's tail ejected after `latency` cycles.
    pub(crate) fn arrived(&mut self, latency: u64) {
        self.recording.latency_totals.record(latency);
    }
}

/// One traffic phase of single-payload-flit packets (the accelerator's
/// responses) as the cycle engine stepped it, recorded for replay.
///
/// A phase that starts on a drained mesh is a pure function of the
/// round-robin arbitration pointers and of its injection schedule —
/// `(src, dst, offset)` per packet, in injection order — never of the
/// payload bits. The recording keeps both, plus what the stepped run made
/// of them: per directed link (injection links and router outputs) the
/// order of its flit events as (packet, head, payload or both back to
/// back), the packets' latency totals, the phase length and the end
/// pointers.
/// [`Simulator::replay_phase`] applies it to new payloads, bit for bit
/// what stepping them would do, whenever [`PhaseRecording::replays`]
/// finds those inputs unchanged.
///
/// Link events and offsets are stored as varints: on the accelerator's
/// response phases about one byte per packet per link (half a byte per
/// flit-hop) plus five per packet.
#[derive(Debug, Clone)]
pub struct PhaseRecording {
    config: NocConfig,
    start: Arbitration,
    end: Arbitration,
    /// Per packet: `(src, dst)`.
    endpoints: Vec<[u16; 2]>,
    /// Per packet: the zigzag varint delta of its offset to the previous
    /// packet's.
    offsets: Vec<u8>,
    /// Per link id (router outputs `node * 5 + port`, then injection
    /// links `nodes * 5 + node`): its events (see [`PhaseRecorder::hop`]).
    links: Vec<Vec<u8>>,
    latency_totals: LatencyTotals,
    /// Cycles from the phase start to the cycle after its last arrival.
    length: u64,
}

impl PhaseRecording {
    /// The recorded injection schedule, in injection order.
    pub fn schedule(&self) -> impl Iterator<Item = ScheduledPacket> + '_ {
        let (mut at, mut offset) = (0, 0i64);
        self.endpoints.iter().map(move |&[src, dst]| {
            offset += unzigzag(read_varint(&self.offsets, &mut at));
            ScheduledPacket {
                src: NodeId::from(src),
                dst: NodeId::from(dst),
                offset: offset as u64,
            }
        })
    }

    /// True when stepping `schedule` on `sim` would repeat this
    /// recording exactly, so [`Simulator::replay_phase`] may stand in for
    /// it: the same mesh configuration, an idle mesh on perfect wires,
    /// the recorded start pointers and the recorded schedule.
    pub fn replays(
        &self,
        sim: &Simulator,
        schedule: impl IntoIterator<Item = ScheduledPacket>,
    ) -> bool {
        self.admits(sim) && self.schedule().eq(schedule)
    }

    /// The simulator-state half of [`PhaseRecording::replays`].
    fn admits(&self, sim: &Simulator) -> bool {
        sim.config == self.config
            && sim.is_idle()
            && sim.recorder.is_none()
            && !sim.faults_armed()
            && sim.arbitration_is(&self.start)
    }
}

impl Simulator {
    /// Starts recording the phase about to run into `recorder`: from now
    /// on the cycle engine books every injected packet's schedule entry,
    /// every flit it moves over a link and every arrival, until
    /// [`Simulator::finish_recording`].
    ///
    /// # Panics
    ///
    /// Panics if a packet is in flight (a recorded phase starts on a
    /// drained mesh), the wires have faults armed, or `recorder` was
    /// reserved for another mesh configuration.
    pub fn record_phase(&mut self, mut recorder: PhaseRecorder) {
        assert!(self.is_idle(), "a recorded phase starts on a drained mesh");
        assert!(
            !self.faults_armed(),
            "error-injected phases depend on their flips and cannot be replayed"
        );
        assert!(
            recorder.recording.config == self.config,
            "recorder reserved for another mesh configuration"
        );
        recorder.start_cycle = self.cycle;
        recorder.first_packet = self.next_packet_id;
        self.save_arbitration(&mut recorder.recording.start);
        self.recorder = Some(Box::new(recorder));
    }

    /// Ends the recording [`Simulator::record_phase`] started. Returns
    /// `None` when none was started, or when the phase does not fit a
    /// recording: a packet without exactly one payload flit, node ids
    /// beyond 16 bits, or more than `u32::MAX` packets.
    ///
    /// # Panics
    ///
    /// Panics if a packet is still in flight.
    pub fn finish_recording(&mut self) -> Option<PhaseRecording> {
        let recorder = self.recorder.take()?;
        assert!(self.is_idle(), "a recorded phase ends on a drained mesh");
        if recorder.unfit {
            return None;
        }
        // Every head's payload flit crossed each link behind it.
        debug_assert!(recorder.tails.iter().all(|(_, pending)| pending.is_none()));
        let mut recording = recorder.recording;
        // Shrinking in place only gives back the reserved tails.
        recording.offsets.shrink_to_fit();
        for events in &mut recording.links {
            events.shrink_to_fit();
        }
        self.save_arbitration(&mut recording.end);
        recording.length = self.cycle - recorder.start_cycle;
        Some(recording)
    }

    /// Replays `recording` on new payloads: each link's recorded flit
    /// events walk through its [`crate::stats::LinkSlab`] in order —
    /// [`LinkSlab::observe`] for heads, the per-link codec hop
    /// [`LinkSlab::observe_payload_hop`] for payload flits — then the
    /// phase's latencies and delivered counters are booked, the clock
    /// advances by the phase length and the arbitration pointers take
    /// their recorded end values. No packet is queued, stored or
    /// delivered into the NI queues: packet `i` (schedule order) carries
    /// tag `tag(i)` and the payload image in row `i` of `payload`
    /// (zero-extended onto the link width when narrower). Each packet's
    /// payload is rendered once, however many links it crosses.
    ///
    /// Bit-exact with stepping the same schedule through the cycle engine
    /// whenever [`PhaseRecording::replays`] holds; debug builds step a
    /// clone of the simulator and assert it.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError::PayloadTooWide`], before touching the
    /// simulator, if the payload rows are wider than the link.
    ///
    /// # Panics
    ///
    /// Panics if the simulator is not in a state the recording replays
    /// on (see [`PhaseRecording::replays`]), or `payload` does not hold
    /// one row per packet.
    ///
    /// [`LinkSlab::observe`]: crate::stats::LinkSlab::observe
    /// [`LinkSlab::observe_payload_hop`]: crate::stats::LinkSlab::observe_payload_hop
    pub fn replay_phase(
        &mut self,
        recording: &PhaseRecording,
        tag: impl Fn(usize) -> u64,
        payload: &FlitSlab,
    ) -> Result<(), InjectError> {
        assert!(
            recording.admits(self),
            "a phase replays only on the mesh state it was recorded from"
        );
        assert_eq!(
            payload.len(),
            recording.endpoints.len(),
            "one payload row per packet"
        );
        let width = self.config.link_width_bits;
        let widened;
        let payload = match payload.width().cmp(&width) {
            Ordering::Equal => payload,
            Ordering::Less => {
                let mut rows = FlitSlab::with_capacity(width, payload.len());
                rows.extend_from(payload);
                widened = rows;
                &widened
            }
            Ordering::Greater => {
                return Err(InjectError::PayloadTooWide {
                    width: payload.width(),
                    link: width,
                })
            }
        };
        #[cfg(debug_assertions)]
        let oracle = self.clone();
        let out_links = self.config.num_nodes() * NUM_PORTS;
        let mut head = PayloadBits::zero(width);
        let mut image = PayloadBits::zero(width);
        for (link, bytes) in recording.links.iter().enumerate() {
            let (slab, link) = match link.checked_sub(out_links) {
                None => (&mut self.out_links, link),
                Some(node) => (&mut self.inject_links, node),
            };
            let (mut at, mut event) = (0, 0i64);
            while at < bytes.len() {
                event += unzigzag(read_varint(bytes, &mut at));
                let index = (event >> 2) as usize;
                if event & HEAD_EVENT != 0 {
                    let [src, dst] = recording.endpoints[index];
                    let (src, dst) = (NodeId::from(src), NodeId::from(dst));
                    write_head_fields(&mut head, src, dst, 1, tag(index));
                    slab.observe(link, &head);
                }
                if event & PAYLOAD_EVENT != 0 {
                    image.assign_row(width, payload.flit(index));
                    slab.observe_payload_hop(link, &image);
                }
            }
        }
        let packets = recording.endpoints.len() as u64;
        self.latencies.merge(&recording.latency_totals);
        self.packets_delivered += packets;
        self.flits_delivered += 2 * packets;
        self.cycle += recording.length;
        self.restore_arbitration(&recording.end);
        #[cfg(debug_assertions)]
        self.assert_matches_stepped_phase(oracle, recording, &tag, payload);
        Ok(())
    }

    /// Debug oracle of [`Simulator::replay_phase`]: `oracle`, the
    /// simulator as it was before the replay, steps the recorded
    /// schedule through the cycle engine and must land on the same
    /// per-link accounting, codec lanes, clock, latencies, counters and
    /// arbitration pointers.
    #[cfg(debug_assertions)]
    fn assert_matches_stepped_phase(
        &self,
        mut oracle: Simulator,
        recording: &PhaseRecording,
        tag: impl Fn(usize) -> u64,
        payload: &FlitSlab,
    ) {
        let start = oracle.cycle;
        let schedule: Vec<ScheduledPacket> = recording.schedule().collect();
        let mut next = 0;
        while next < schedule.len() || !oracle.is_idle() {
            while let Some(p) = schedule.get(next) {
                if start + p.offset > oracle.cycle {
                    break;
                }
                oracle
                    .inject(Packet::new(
                        p.src,
                        p.dst,
                        vec![PayloadBits::from_row(payload.width(), payload.flit(next))],
                        tag(next),
                    ))
                    // btr-lint: allow(panic-in-hot-path, reason = "debug-assert oracle: the replay already accepted these packets; release builds compile this block out")
                    .expect("the replayed schedule injects");
                next += 1;
            }
            oracle.step();
        }
        oracle.drain_all_delivered();
        self.assert_links_match(&oracle);
        assert_eq!(self.cycle, oracle.cycle, "replayed phase length");
        assert_eq!(
            (self.packets_delivered, self.flits_delivered),
            (oracle.packets_delivered, oracle.flits_delivered),
            "replayed delivery counters"
        );
        assert_eq!(self.latencies, oracle.latencies, "replayed latencies");
        assert!(
            self.arbitration_is(&oracle.arbitration()),
            "replayed end pointers"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use crate::packet::Packet;
    use btr_bits::payload::PayloadBits;
    use btr_core::codec::CodecKind;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn image(width: u32, seed: u64) -> PayloadBits {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = PayloadBits::zero(width);
        let mut off = 0;
        while off < width {
            let len = 64.min(width - off);
            p.set_field(off, len, rng.gen());
            off += len;
        }
        p
    }

    /// Row-local packets on a 4×4 mesh: every row carries one packet, so
    /// no two share any directed link (ejection included).
    fn disjoint_packets(width: u32) -> Vec<Packet> {
        (0..4usize)
            .map(|row| {
                let src = row * 4;
                let dst = row * 4 + 3;
                let payload: Vec<PayloadBits> = (0..3)
                    .map(|i| image(width, (row * 10 + i) as u64))
                    .collect();
                Packet::new(src, dst, payload, row as u64)
            })
            .collect()
    }

    #[test]
    fn classifier_accepts_disjoint_and_rejects_shared_links() {
        let mut sim = Simulator::new(NocConfig::mesh(4, 4, 128));
        for p in disjoint_packets(128) {
            sim.inject(p).unwrap();
        }
        assert!(sim.queued_phase_is_contention_free());
        // A second packet into an already-used ejection link breaks it.
        sim.inject(Packet::new(1, 3, vec![image(128, 99)], 9))
            .unwrap();
        assert!(!sim.queued_phase_is_contention_free());
    }

    #[test]
    fn classifier_rejects_shared_intermediate_link() {
        let mut sim = Simulator::new(NocConfig::mesh(4, 4, 128));
        // 0→2 and 1→3 share the directed east link out of router 1.
        sim.inject(Packet::new(0, 2, vec![image(128, 1)], 0))
            .unwrap();
        sim.inject(Packet::new(1, 3, vec![image(128, 2)], 1))
            .unwrap();
        assert!(!sim.queued_phase_is_contention_free());
    }

    #[test]
    fn same_source_trailing_is_eligible_cross_source_sharing_is_not() {
        let mut sim = Simulator::new(NocConfig::mesh(4, 4, 128));
        // Same source, first-hop links diverge immediately (east vs
        // south): eligible, the injection link is same-source FIFO.
        sim.inject(Packet::new(0, 1, vec![image(128, 1)], 0))
            .unwrap();
        sim.inject(Packet::new(0, 4, vec![image(128, 2)], 1))
            .unwrap();
        assert!(sim.queued_phase_is_contention_free());
        // A third packet east again shares router 0's east output with
        // the first — but from the same source: the NI serializes them,
        // so the shared link's order is the queue order (FIFO trailing).
        sim.inject(Packet::new(0, 2, vec![image(128, 3)], 2))
            .unwrap();
        assert!(sim.queued_phase_is_contention_free());
        // A different source on that same east output is real contention.
        sim.inject(Packet::new(4, 2, vec![image(128, 4)], 3))
            .unwrap();
        assert!(!sim.queued_phase_is_contention_free());
    }

    #[test]
    fn routes_link_disjoint_detects_overlap_and_direction() {
        let config = NocConfig::mesh(4, 4, 128);
        // Opposite directions on the same row never share a directed link.
        assert!(routes_link_disjoint(
            &config,
            [(0usize, 3usize)],
            [(3usize, 0usize)]
        ));
        // Same directed east link out of router 1: overlap.
        assert!(!routes_link_disjoint(
            &config,
            [(0usize, 3usize)],
            [(1usize, 2usize)]
        ));
        // Shared ejection link counts too.
        assert!(!routes_link_disjoint(
            &config,
            [(0usize, 5usize)],
            [(6usize, 5usize)]
        ));
    }

    #[test]
    fn analytic_matches_cycle_engine_on_eligible_phase() {
        for codec in [None, Some(CodecKind::DeltaXor), Some(CodecKind::BusInvert)] {
            let width = 128 + codec.map_or(0, CodecKind::extra_wires);
            let config = NocConfig::mesh(4, 4, width).with_link_codec(codec);
            let mut fast = Simulator::new(config.clone());
            let mut slow = Simulator::new(config);
            for p in disjoint_packets(128) {
                fast.inject(p.clone()).unwrap();
                slow.inject(p).unwrap();
            }
            assert!(fast.queued_phase_is_contention_free());
            fast.replay_queued_analytic(true);
            slow.run_until_idle(100_000).unwrap();
            assert!(fast.is_idle());
            let (fs, ss) = (fast.stats(), slow.stats());
            assert_eq!(fs.per_link, ss.per_link, "{codec:?}");
            assert_eq!(fs.total_transitions, ss.total_transitions);
            assert_eq!(fs.flit_hops, ss.flit_hops);
            // The closed-form clock is exact here (paper router params,
            // no contention).
            assert_eq!(fs.cycles, ss.cycles, "{codec:?}");
            assert_eq!(fs.latency, ss.latency, "{codec:?}");
            for node in 0..16 {
                assert_eq!(fast.drain_delivered(node), slow.drain_delivered(node));
            }
        }
    }

    #[test]
    fn analytic_matches_cycle_engine_on_same_source_trailing_phase() {
        // Multiple packets from one source sharing a full path (plus a
        // diverging one, and a second busy source): eligible under the
        // FIFO-trailing rule, and the replay must stay bit-exact — BTs,
        // lane states, *and* the closed-form clock, which models the
        // same-source serialization through the per-source cursor.
        for codec in [None, Some(CodecKind::DeltaXor), Some(CodecKind::BusInvert)] {
            let width = 128 + codec.map_or(0, CodecKind::extra_wires);
            let config = NocConfig::mesh(4, 4, width).with_link_codec(codec);
            let mut fast = Simulator::new(config.clone());
            let mut slow = Simulator::new(config);
            for (tag, (src, dst, n)) in [
                (0usize, 3usize, 4usize),
                (0, 3, 2),
                (0, 12, 3),
                (5, 6, 1),
                (5, 6, 5),
            ]
            .into_iter()
            .enumerate()
            {
                let tag = tag as u64;
                let payload: Vec<PayloadBits> =
                    (0..n).map(|i| image(128, tag * 100 + i as u64)).collect();
                fast.inject(Packet::new(src, dst, payload.clone(), tag))
                    .unwrap();
                slow.inject(Packet::new(src, dst, payload, tag)).unwrap();
            }
            assert!(fast.queued_phase_is_contention_free());
            fast.replay_queued_analytic(true);
            slow.run_until_idle(100_000).unwrap();
            let (fs, ss) = (fast.stats(), slow.stats());
            assert_eq!(fs.per_link, ss.per_link, "{codec:?}");
            assert_eq!(fs.cycles, ss.cycles, "cycles {codec:?}");
            assert_eq!(fs.latency, ss.latency, "latency {codec:?}");
            for node in 0..16 {
                assert_eq!(fast.drain_delivered(node), slow.drain_delivered(node));
            }
        }
    }

    #[test]
    fn forced_replay_on_contended_phase_stays_lossless() {
        // A hotspot phase is ineligible; the forced replay still delivers
        // every payload bit-exactly (serialized stream semantics).
        let config = NocConfig::mesh(4, 4, 129).with_link_codec(Some(CodecKind::BusInvert));
        let mut sim = Simulator::new(config);
        let mut sent: Vec<(usize, Vec<PayloadBits>)> = Vec::new();
        for src in 0..8usize {
            let payload: Vec<PayloadBits> =
                (0..4).map(|i| image(128, (src * 7 + i) as u64)).collect();
            sim.inject(Packet::new(src, 10, payload.clone(), src as u64))
                .unwrap();
            sent.push((src, payload));
        }
        assert!(!sim.queued_phase_is_contention_free());
        sim.replay_queued_analytic(false);
        assert!(sim.is_idle());
        let mut got = sim.drain_delivered(10);
        got.sort_by_key(|d| d.tag);
        assert_eq!(got.len(), 8);
        for ((src, payload), d) in sent.iter().zip(&got) {
            assert_eq!(d.src, *src);
            // Delivered images are link-width aligned; compare data bits.
            for (sent_flit, got_flit) in payload.iter().zip(&d.payload_flits) {
                assert_eq!(got_flit.resized(sent_flit.width()), *sent_flit);
            }
        }
        assert!(sim.stats().total_transitions > 0);
    }

    #[test]
    fn replay_is_deterministic_and_consumes_the_queue() {
        let run = || {
            let mut sim = Simulator::new(NocConfig::mesh(4, 4, 128));
            let mut rng = StdRng::seed_from_u64(5);
            for tag in 0..40u64 {
                let src = rng.gen_range(0..16);
                let dst = rng.gen_range(0..16);
                let payload: Vec<PayloadBits> = (0..rng.gen_range(1..5))
                    .map(|_| image(128, rng.gen()))
                    .collect();
                sim.inject(Packet::new(src, dst, payload, tag)).unwrap();
            }
            sim.replay_queued_analytic(false);
            assert!(sim.is_idle());
            let s = sim.stats();
            (s.total_transitions, s.cycles, s.flit_hops)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn streamed_phase_checks_like_inject_and_carries_empty_packets() {
        for codec in [None, Some(CodecKind::DeltaXor), Some(CodecKind::BusInvert)] {
            let width = 128 + codec.map_or(0, CodecKind::extra_wires);
            let config = NocConfig::mesh(4, 4, width).with_link_codec(codec);
            let mut streamed = Simulator::new(config.clone());
            let mut queued = Simulator::new(config);
            let empty = FlitSlab::new(width);
            let mut stream = streamed.stream_requests();
            assert_eq!(
                stream.deliver(99, 0, 0, &empty).unwrap_err(),
                InjectError::NodeOutOfRange(99)
            );
            assert_eq!(
                stream.deliver(0, 16, 0, &empty).unwrap_err(),
                InjectError::NodeOutOfRange(16)
            );
            let wide = FlitSlab::from_images(width + 64, &[image(width + 64, 1)]);
            assert!(matches!(
                stream.deliver(0, 1, 0, &wide),
                Err(InjectError::PayloadTooWide { .. })
            ));
            // A head-only packet, then a narrow one-flit packet that must
            // be re-aligned onto the link, on the same route.
            let narrow = [image(64, 2)];
            for (tag, payload) in [(0u64, &[][..]), (1, &narrow[..])] {
                let rows = FlitSlab::from_images(64, payload);
                let d = stream.deliver(2, 13, tag, &rows).unwrap();
                assert!(d.payload_flits.is_empty() || d.payload_flits.width() == width);
                assert_eq!(d.payload_flits.len(), payload.len());
                queued
                    .inject(Packet::new(2, 13, payload.to_vec(), tag))
                    .unwrap();
            }
            stream.finish();
            queued.replay_queued_analytic(true);
            assert_eq!(streamed.stats(), queued.stats(), "{codec:?}");
        }
    }

    /// A converging phase: the other nodes send single-payload-flit
    /// packets to nodes 5 and 10 at staggered offsets.
    fn converging_schedule(seed: u64) -> Vec<ScheduledPacket> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sources: Vec<usize> = (0..16).filter(|n| ![5, 10].contains(n)).collect();
        let mut offset = 0;
        (0..60)
            .map(|_| {
                offset += rng.gen_range(0..3);
                ScheduledPacket {
                    src: sources[rng.gen_range(0..sources.len())],
                    dst: [5, 10][rng.gen_range(0..2)],
                    offset,
                }
            })
            .collect()
    }

    /// Packet `i`'s payload image in payload set `set` (data width 128,
    /// so bus-invert links re-align it).
    fn phase_image(set: u64, i: usize) -> PayloadBits {
        image(128, set * 10_000 + i as u64)
    }

    /// Steps `schedule` through the cycle engine the way the accelerator
    /// driver steps a response phase.
    fn step_schedule(sim: &mut Simulator, schedule: &[ScheduledPacket], set: u64) {
        let start = sim.cycle();
        let mut next = 0;
        let mut arrived = 0;
        while arrived < schedule.len() {
            while let Some(p) = schedule.get(next) {
                if start + p.offset > sim.cycle() {
                    break;
                }
                let images = vec![phase_image(set, next)];
                sim.inject(Packet::new(p.src, p.dst, images, 100 + next as u64))
                    .unwrap();
                next += 1;
            }
            sim.step();
            arrived += sim.drain_all_delivered().len();
        }
    }

    /// Replays `recording` with payload set `set`.
    fn replay_schedule(sim: &mut Simulator, recording: &PhaseRecording, set: u64) {
        let images: Vec<PayloadBits> = (0..recording.schedule().count())
            .map(|i| phase_image(set, i))
            .collect();
        let rows = FlitSlab::from_images(128, &images);
        sim.replay_phase(recording, |i| 100 + i as u64, &rows)
            .unwrap();
    }

    #[test]
    fn recorded_phases_replay_bit_exactly_on_new_payloads() {
        // Two consecutive converging phases are recorded while stepping
        // payload set 1, then replayed on a fresh mesh with payload set
        // 2: every reported number — stats with cycles and latency,
        // per-link BTs and flits, both lane families and end pointers —
        // must equal stepping set 2 from scratch.
        for codec in [None, Some(CodecKind::DeltaXor), Some(CodecKind::BusInvert)] {
            let width = 128 + codec.map_or(0, CodecKind::extra_wires);
            let config = NocConfig::mesh(4, 4, width).with_link_codec(codec);
            let phases = [converging_schedule(1), converging_schedule(2)];
            let mut recorder = Simulator::new(config.clone());
            let recordings: Vec<PhaseRecording> = phases
                .iter()
                .map(|schedule| {
                    let routes = schedule.iter().map(|p| (p.src, p.dst));
                    recorder.record_phase(PhaseRecorder::reserve(recorder.config(), routes));
                    step_schedule(&mut recorder, schedule, 1);
                    let recording = recorder.finish_recording().unwrap();
                    assert!(recording.schedule().eq(schedule.iter().copied()));
                    recording
                })
                .collect();
            let mut stepped = Simulator::new(config.clone());
            let mut replayed = Simulator::new(config);
            for (schedule, recording) in phases.iter().zip(&recordings) {
                assert!(recording.replays(&replayed, schedule.iter().copied()));
                step_schedule(&mut stepped, schedule, 2);
                replay_schedule(&mut replayed, recording, 2);
                assert_eq!(replayed.stats(), stepped.stats(), "{codec:?}");
                assert!(replayed.arbitration_is(&stepped.arbitration()), "{codec:?}");
                for link in 0..16 * NUM_PORTS {
                    assert_eq!(
                        replayed.out_link_codec_lanes(link),
                        stepped.out_link_codec_lanes(link)
                    );
                }
                for node in 0..16 {
                    assert_eq!(
                        replayed.inject_link_codec_lanes(node),
                        stepped.inject_link_codec_lanes(node)
                    );
                }
            }
            assert!(replayed.is_idle() && replayed.slots.is_empty());
        }
    }

    #[test]
    fn a_phase_recorded_after_reused_slots_replays_bit_exactly() {
        // Seeded warm-up traffic runs hundreds of packets through a
        // handful of recycled slots before the phase is recorded, so the
        // recording indexes packets by id less the phase's first id, not
        // by slot. Replayed with new payloads after the same warm-up, it
        // must equal stepping them.
        let warm_up = |sim: &mut Simulator| {
            let mut rng = StdRng::seed_from_u64(77);
            for tag in 0..400u64 {
                let (src, dst) = (rng.gen_range(0..16), rng.gen_range(0..16));
                let payload = (0..rng.gen_range(0..4))
                    .map(|_| image(128, rng.gen()))
                    .collect();
                sim.inject(Packet::new(src, dst, payload, tag)).unwrap();
                if tag % 8 == 7 {
                    sim.run_until_idle(100_000).unwrap();
                }
            }
            sim.run_until_idle(100_000).unwrap();
            sim.drain_all_delivered();
        };
        for codec in [None, Some(CodecKind::DeltaXor), Some(CodecKind::BusInvert)] {
            let width = 128 + codec.map_or(0, CodecKind::extra_wires);
            let config = NocConfig::mesh(4, 4, width).with_link_codec(codec);
            let schedule = converging_schedule(4);
            let mut recorder = Simulator::new(config.clone());
            warm_up(&mut recorder);
            assert!(recorder.slots.len() < 100 && recorder.next_packet_id == 400);
            let routes = schedule.iter().map(|p| (p.src, p.dst));
            recorder.record_phase(PhaseRecorder::reserve(recorder.config(), routes));
            step_schedule(&mut recorder, &schedule, 1);
            let recording = recorder.finish_recording().unwrap();
            assert!(recording.schedule().eq(schedule.iter().copied()));

            let mut stepped = Simulator::new(config.clone());
            let mut replayed = Simulator::new(config);
            warm_up(&mut stepped);
            warm_up(&mut replayed);
            assert!(recording.replays(&replayed, schedule.iter().copied()));
            step_schedule(&mut stepped, &schedule, 2);
            replay_schedule(&mut replayed, &recording, 2);
            assert_eq!(replayed.stats(), stepped.stats(), "{codec:?}");
            assert!(replayed.arbitration_is(&stepped.arbitration()), "{codec:?}");
            for link in 0..16 * NUM_PORTS {
                assert_eq!(
                    replayed.out_link_codec_lanes(link),
                    stepped.out_link_codec_lanes(link)
                );
            }
            for node in 0..16 {
                assert_eq!(
                    replayed.inject_link_codec_lanes(node),
                    stepped.inject_link_codec_lanes(node)
                );
            }
        }
    }

    #[test]
    fn a_changed_schedule_or_start_state_refuses_the_replay() {
        let schedule = converging_schedule(3);
        let mut sim = Simulator::new(NocConfig::mesh(4, 4, 128));
        sim.record_phase(PhaseRecorder::reserve(sim.config(), []));
        step_schedule(&mut sim, &schedule, 1);
        let recording = sim.finish_recording().unwrap();
        let fresh = Simulator::new(NocConfig::mesh(4, 4, 128));
        assert!(recording.replays(&fresh, schedule.iter().copied()));
        // One packet one cycle later, or one packet fewer.
        let mut later = schedule.clone();
        later[7].offset += 1;
        assert!(!recording.replays(&fresh, later));
        assert!(!recording.replays(&fresh, schedule[1..].iter().copied()));
        // The recording mesh ends with moved pointers.
        assert!(!sim.arbitration_is(&fresh.arbitration()));
        assert!(!recording.replays(&sim, schedule.iter().copied()));
        // A packet in flight, or another mesh configuration.
        let mut busy = fresh.clone();
        busy.inject(Packet::new(0, 1, vec![image(128, 1)], 0))
            .unwrap();
        assert!(!recording.replays(&busy, schedule.iter().copied()));
        let coded = NocConfig::mesh(4, 4, 128).with_link_codec(Some(CodecKind::DeltaXor));
        assert!(!recording.replays(&Simulator::new(coded), schedule.iter().copied()));
    }

    #[test]
    fn only_single_payload_flit_phases_record() {
        for payload in [vec![], vec![image(128, 1), image(128, 2)]] {
            let mut sim = Simulator::new(NocConfig::mesh(4, 4, 128));
            sim.record_phase(PhaseRecorder::reserve(sim.config(), [(0, 5)]));
            sim.inject(Packet::new(0, 5, payload, 0)).unwrap();
            sim.run_until_idle(1_000).unwrap();
            assert!(sim.finish_recording().is_none());
        }
        // Without a recording in progress there is nothing to finish.
        assert!(Simulator::new(NocConfig::mesh(4, 4, 128))
            .finish_recording()
            .is_none());
    }

    #[test]
    fn engine_mode_parses_and_prints() {
        for mode in EngineMode::ALL {
            assert_eq!(mode.label().parse::<EngineMode>(), Ok(mode));
        }
        for retired in ["analytic", "fast", "warp"] {
            assert!(retired.parse::<EngineMode>().is_err(), "{retired}");
        }
        assert_eq!(EngineMode::default(), EngineMode::Cycle);
        assert_eq!(EngineMode::Auto.to_string(), "auto");
    }
}
