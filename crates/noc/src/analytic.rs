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
//!   back, with nothing queued or interned in the simulator — the
//!   accelerator driver's request phase. On a contention-free phase it is
//!   bit-exact with queueing the same packets and replaying them, which
//!   is its oracle in the `engine_parity` tests.
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
use crate::packet::{decode_head_payload, encode_head_payload};
use crate::routing::{route, Direction};
use crate::sim::{DeliveredPacket, InjectError, Simulator, NUM_PORTS};
use crate::stats::PacketWires;
use btr_bits::payload::PayloadBits;

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
    let (row, col) = config.position(cur);
    match dir {
        Direction::North => config.node_at(row - 1, col),
        Direction::South => config.node_at(row + 1, col),
        Direction::East => config.node_at(row, col + 1),
        Direction::West => config.node_at(row, col - 1),
        Direction::Local => cur,
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
                    .map(move |p| (src, self.packets[p.packet as usize].flits[0].dst))
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
                self.ni_pending_total -= 1;
                let pid = pending.packet as usize;
                // Release the interned flit storage; on perfect wires
                // (faults force the cycle engine) the per-link
                // decode-and-realign is the identity, so the delivered
                // payloads are the queued images.
                let flits = std::mem::take(&mut self.packets[pid].flits);
                debug_assert!(
                    flits
                        .iter()
                        .enumerate()
                        .all(|(seq, f)| f.kind.is_head() == (seq == 0)),
                    "wormhole packets carry exactly one head flit, first"
                );
                let head = flits[0].payload;
                let dst = flits[0].dst;
                let payload: Vec<PayloadBits> = flits[1..].iter().map(|f| f.payload).collect();
                let inject_cycle = self.packets[pid].inject_cycle;
                let arrival = self.replay_packet(
                    &mut clock,
                    src,
                    dst,
                    inject_cycle,
                    &PacketWires::new(&head, &payload, codec),
                );

                // Deliver: decode the head exactly like the receiving NI.
                let (head_src, _dst, _len, tag) = decode_head_payload(&head);
                let slot = &mut self.packets[pid];
                slot.src = head_src;
                slot.tag = tag;
                self.ni_delivered[dst].push_back(DeliveredPacket {
                    packet_id: pid as u64,
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
    /// images: [`RequestStream::deliver`] walks each packet through the
    /// same per-packet hop routine as
    /// [`Simulator::replay_queued_analytic`] the moment it is offered, and
    /// hands back the delivered images with their closed-form arrival. No
    /// packet is queued, interned or retained by the simulator.
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
            sim: self,
            aligned: Vec::new(),
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
        let mut cur = src;
        let mut hops = 0u64;
        loop {
            let dir = route(&self.config, cur, dst);
            self.out_links
                .observe_packet(cur * NUM_PORTS + dir.index(), packet);
            if dir == Direction::Local {
                break;
            }
            cur = neighbor(&self.config, cur, dir);
            hops += 1;
        }
        let flits = packet.flits();
        let start = clock.cursors[src].max(inject_cycle);
        let arrival = start + flits + hops + 1;
        clock.cursors[src] = start + flits;
        clock.max_arrival = clock.max_arrival.max(arrival);
        clock.replayed = true;
        self.latencies.push(arrival - inject_cycle);
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
                self.inject_links.codec_lane_states(node),
                oracle.inject_links.codec_lane_states(node),
                "injection-link {node} codec lanes diverge from the cycle oracle"
            );
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
}

/// A request phase streamed from borrowed images, opened by
/// [`Simulator::stream_requests`]. [`RequestStream::finish`] closes it
/// and advances the clock past its last arrival.
#[derive(Debug)]
#[must_use = "finish the stream to advance the clock past the phase"]
pub struct RequestStream<'s> {
    sim: &'s mut Simulator,
    clock: PhaseClock,
    /// The current packet's images re-aligned onto the link width, used
    /// only when they arrive narrower.
    aligned: Vec<PayloadBits>,
}

/// A packet delivered by [`RequestStream::deliver`], borrowing the
/// payload images the receiving NI holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamedPacket<'a> {
    /// Payload flit images at the link width, in order.
    pub payload_flits: &'a [PayloadBits],
    /// Cycle the tail flit was ejected.
    pub arrival_cycle: u64,
}

impl RequestStream<'_> {
    /// Sends one packet `src → dst` through the phase and delivers it:
    /// the checks [`Simulator::inject`] makes, the head image and
    /// re-alignment of narrower images onto the link width as in
    /// [`crate::packet::Packet::to_flits`], then the per-packet hop walk
    /// and the closed-form arrival.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError`] if a node is out of range or a payload
    /// image is wider than the link.
    pub fn deliver<'a>(
        &'a mut self,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: &'a [PayloadBits],
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
        if let Some(p) = payload.iter().find(|p| p.width() > link) {
            return Err(InjectError::PayloadTooWide {
                width: p.width(),
                link,
            });
        }
        let payload: &'a [PayloadBits] = if payload.iter().all(|p| p.width() == link) {
            payload
        } else {
            aligned.clear();
            aligned.extend(payload.iter().map(|p| p.resized(link)));
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
            let mut stream = streamed.stream_requests();
            assert_eq!(
                stream.deliver(99, 0, 0, &[]).unwrap_err(),
                InjectError::NodeOutOfRange(99)
            );
            assert_eq!(
                stream.deliver(0, 16, 0, &[]).unwrap_err(),
                InjectError::NodeOutOfRange(16)
            );
            assert!(matches!(
                stream.deliver(0, 1, 0, &[image(width + 64, 1)]),
                Err(InjectError::PayloadTooWide { .. })
            ));
            // A head-only packet, then a narrow one-flit packet that must
            // be re-aligned onto the link, on the same route.
            let narrow = [image(64, 2)];
            for (tag, payload) in [(0u64, &[][..]), (1, &narrow[..])] {
                let d = stream.deliver(2, 13, tag, payload).unwrap();
                assert!(d.payload_flits.iter().all(|p| p.width() == width));
                queued
                    .inject(Packet::new(2, 13, payload.to_vec(), tag))
                    .unwrap();
            }
            stream.finish();
            queued.replay_queued_analytic(true);
            assert_eq!(streamed.stats(), queued.stats(), "{codec:?}");
        }
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
