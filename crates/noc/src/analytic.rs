//! Fast paths beside the cycle engine: recorded phases replayed on new
//! payloads, and a direct stream replay of queued contention-free
//! phases.
//!
//! The paper's metric — per-link BTs of the ordered, coded stream
//! (Fig. 8) — depends only on the *order* in which flits traverse each
//! directed link, never on the cycles between them. On perfect wires
//! that order is itself a pure function of the phase's timing inputs: a
//! phase that starts on a drained mesh depends on the round-robin
//! arbitration pointers and on when each packet of which length is
//! queued where, never on the payload bits.
//!
//! # Recorded phases
//!
//! [`Simulator::record_phase`] has the cycle engine record what it makes
//! of a phase into a [`PhaseRecording`]: one stream of events in the
//! order the engine produced them — each packet queued at its NI (its
//! endpoints, tag, length and cycle) and each run of one packet's
//! consecutive flits over one directed link — plus the phase's length,
//! latencies and end pointers. Packets of any length record, requests
//! and responses interleaved, however the mesh contends. Events are
//! varints, about five bytes per queued packet and one per packet-link
//! run: a batch-4 LeNet fx8 dispatch on the 4×4 MC2 mesh records in
//! about 0.5 MB, its conv1 layer in 373 KB.
//!
//! [`Simulator::replay_phase`] walks that stream with new payloads from
//! a [`PhaseTraffic`]: it asks for a packet's rows when the packet is
//! queued, charges every run through the link's slab
//! ([`crate::stats::LinkSlab`], codec lanes included) with the packet's
//! consecutive flits as one run, and hands the rows back at delivery —
//! where the accelerator decodes a request, computes its MAC and so
//! produces the rows of the response the stream queues later. Only the
//! rows of packets in flight are live. Per-link transitions, codec lanes,
//! the clock, latencies and end pointers land bit for bit where stepping
//! would leave them, whenever [`PhaseRecording::replays`] finds the
//! start state unchanged; the caller keys the recording on the phase's
//! timing inputs. Debug builds step a clone of the simulator alongside
//! every replay as the oracle.
//!
//! [`EngineMode::Auto`] is how the accelerator driver uses it, with one
//! engine loop: its cycle loop steps a layer and records it, and a later
//! layer of the same shape — `NocConfig`, MC prefetch depth, task count,
//! flits per request and PE latency, started on an idle mesh with the
//! recorded arbitration pointers — replays the recording instead. The
//! clock is exact, so `auto` reports what `cycle` reports. Recordings
//! live in one process-wide store, shared by sessions, serve pools and
//! sweep cells: stepping and recording a batch-4 LeNet dispatch costs
//! about 63 ms on a 2-hart host, replaying it about 20 ms, so a store
//! per session would make every new session's first dispatch pay the
//! step.

//! # Queued contention-free phases
//!
//! [`Simulator::queued_phase_is_contention_free`] classifies the packets
//! queued at the NIs: when no two from different sources share a
//! directed router-output link, ejection links included, every link
//! carries one source's packets in that source's FIFO order, and
//! [`Simulator::replay_queued_analytic`] charges each packet on every
//! link of its route in one hop ([`crate::stats::PacketWires`]: O(1) on
//! raw wires and delta-XOR lanes) with no stepping. Its closed-form
//! clock (`hops + flits + 1` past the source NI's previous packet) is
//! exact on such phases under the paper's router parameters. Forcing
//! the replay on a contended phase stays lossless but serializes packets
//! (source-major, FIFO per source) instead of interleaving them, so the
//! BTs of shared links deviate; no engine mode does that.

use crate::config::{NocConfig, NodeId};
use crate::packet::{decode_head_row, write_head_row};
use crate::routing::{route, route_between, Direction};
use crate::sim::{Arbitration, DeliveredPacket, InjectError, Simulator, LOCAL, NUM_PORTS};
use crate::stats::{LatencyTotals, PacketWires};
use btr_bits::slab::{FlitRows, FlitSlab, MAX_ROW_WORDS};

/// Which engine evaluates traffic phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EngineMode {
    /// The cycle-accurate flat-array engine for every phase (the
    /// reference semantics).
    #[default]
    Cycle,
    /// Step each phase shape once, recording it, and replay the
    /// recording on later phases of that shape — bit-identical to
    /// `Cycle` on BTs, codec states, payloads and the clock.
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

impl Simulator {
    /// Classifies the traffic phase currently queued at the NIs: `true`
    /// when no two queued packets **from different sources** use the same
    /// directed router-output link, ejection links included, under the
    /// configured dimension-order routing.
    ///
    /// Same-source sharing is safe (the *FIFO-trailing* rule): an NI
    /// injects strictly FIFO, one packet at a time, so a trailing packet
    /// from the same source enters the mesh only after its predecessor's
    /// tail left the NI. On a phase whose only link sharing is
    /// same-source no switch conflict can arise, packets stream at one hop
    /// per cycle, and every shared link's flit order is the source's queue
    /// order — the order the replay uses. Injection links are same-source
    /// by construction.
    ///
    /// A `true` verdict guarantees [`Simulator::replay_queued_analytic`]
    /// is bit-exact with the cycle engine on per-link BTs, codec-lane
    /// states, delivered payloads and the clock. The rule is
    /// conservative: phases it rejects may still happen to agree, but
    /// that cannot be proven from the route set alone (temporal overlap
    /// on a shared link interleaves flits under VC arbitration).
    #[must_use]
    // btr-lint: allow(test-only-pub, reason = "perfbench's replay workload classifies its phases with it")
    pub fn queued_phase_is_contention_free(&self) -> bool {
        let config = &self.config;
        let mut used: Vec<Option<NodeId>> = vec![None; config.num_nodes() * NUM_PORTS];
        for (src, queue) in self.ni_pending.iter().enumerate() {
            for pending in queue {
                let dst = self.slots[pending.slot as usize].dst;
                let (mut cur, mut at) = (src, config.position(src));
                loop {
                    let dir = route(config, cur, dst);
                    let link = &mut used[cur * NUM_PORTS + dir.index()];
                    if link.is_some_and(|owner| owner != src) {
                        return false;
                    }
                    *link = Some(src);
                    if dir == Direction::Local {
                        break;
                    }
                    at = step(at, dir);
                    cur = config.node_at(at.0, at.1);
                }
            }
        }
        true
    }

    /// Replays every packet queued at the NIs analytically — straight
    /// XOR+popcount passes over the ordered coded stream, per link, with
    /// no cycle stepping — delivering decoded payloads into the same
    /// per-node queues the cycle engine fills. Packets are replayed
    /// source-major (ascending node id), FIFO within each source; on a
    /// contention-free phase that per-link order is provably the cycle
    /// engine's. Each packet arrives at the closed-form uncontended
    /// wormhole latency — one cycle per injected flit, one per hop, one
    /// to land in the router, one to eject — after its source NI's
    /// previous packet fully left, and the clock advances to the cycle
    /// after the last arrival.
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
    /// (the replay consumes whole queued packets only), the wires have
    /// faults armed, or — in debug builds with `verified_eligible` — the
    /// cycle oracle disagrees.
    // btr-lint: allow(test-only-pub, reason = "perfbench's replay workload times it as noc.replay")
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
        let width = self.config.link_width_bits;
        // Per source NI: the first cycle its next packet may start
        // injecting (the NI serializes its queue, one packet at a time).
        let mut cursors = vec![self.cycle; self.config.num_nodes()];
        let mut last_arrival = None;
        let mut head = [0u64; MAX_ROW_WORDS];
        let head = &mut head[..self.words];
        for (src, cursor) in cursors.iter_mut().enumerate() {
            while let Some(pending) = self.ni_pending[src].pop_front() {
                assert_eq!(
                    pending.next, 0,
                    "analytic replay needs fully queued packets, not partially injected ones"
                );
                // Free the slot; its payload rows move straight into the
                // delivery, walked in place on the way. On perfect wires
                // the per-link decode-and-realign is the identity, so the
                // delivered payloads are the queued rows.
                head.copy_from_slice(self.head(pending.slot));
                let slot = &mut self.slots[pending.slot as usize];
                let payload = std::mem::replace(&mut slot.payload, FlitSlab::new(width));
                let (id, dst, inject_cycle) = (slot.id, slot.dst, slot.inject_cycle);
                self.free_slots.push(pending.slot);

                // Charge the injection link, then every router output of
                // the dimension-order path, ejection link last — walking
                // (row, col) positions, with no division per hop.
                let packet = PacketWires::new(head, &payload, codec);
                self.inject_links.observe_packet(src, &packet);
                let (mut cur, mut at) = (src, self.config.position(src));
                let to = self.config.position(dst);
                let mut hops = 0u64;
                loop {
                    let dir = route_between(self.config.routing, at, to);
                    self.out_links
                        .observe_packet(cur * NUM_PORTS + dir.index(), &packet);
                    if dir == Direction::Local {
                        break;
                    }
                    at = step(at, dir);
                    cur = self.config.node_at(at.0, at.1);
                    hops += 1;
                }
                let flits = packet.flits();
                let start = (*cursor).max(inject_cycle);
                let arrival = start + flits + hops + 1;
                *cursor = start + flits;
                last_arrival = last_arrival.max(Some(arrival));
                self.latencies.record(arrival - inject_cycle);
                self.flits_delivered += flits;
                self.packets_delivered += 1;

                // Deliver: decode the head exactly like the receiving NI.
                let (head_src, _dst, _len, tag) = decode_head_row(head, width);
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
        // The cycle the `run_until_idle` loop would observe idleness at.
        if let Some(arrival) = last_arrival {
            self.cycle = self.cycle.max(arrival + 1);
        }

        #[cfg(debug_assertions)]
        if let Some(mut oracle) = oracle {
            oracle
                .run_until_idle(u64::MAX / 2)
                // btr-lint: allow(panic-in-hot-path, reason = "debug-assert oracle: the cfg(debug_assertions) cycle-engine shadow run exists to abort loudly on divergence; release builds compile this block out")
                .expect("cycle oracle drains");
            self.assert_matches_cycle_oracle(&oracle);
        }
    }

    /// Debug-oracle comparison: per-link transitions / flit counts /
    /// codec-lane states and delivered payload contents must match a
    /// simulator that ran the same phase through the cycle engine.
    /// Cycles and latencies are not compared here: a forced replay of a
    /// contended phase keeps its closed-form clock.
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

/// Maps a signed delta onto an unsigned varint (zigzag: 0, -1, 1, -2, …).
fn zigzag(delta: i64) -> u64 {
    ((delta << 1) ^ (delta >> 63)) as u64
}

fn unzigzag(value: u64) -> i64 {
    (value >> 1) as i64 ^ -((value & 1) as i64)
}

/// Kinds of a recorded event: the low two bits of its first varint, the
/// packet's recording slot above them (the cycle delta for `QUEUED`).
///
/// * `QUEUED`: a packet was queued at its source NI; then its source,
///   destination, zigzag tag delta and payload flit count. It takes the
///   most recently freed recording slot, or a new one.
/// * `WHOLE_RUN`: every flit of the slot's packet crossed the next link
///   of its route back to back.
/// * `TAIL_RUN`: flits `first..` of the slot's packet, through its tail,
///   crossed the next link of its route back to back; then `first`.
/// * `RUN`: flits `first..first + len` of the slot's packet crossed link
///   `hop` of its route back to back, and another packet's flit took the
///   link next; then `hop`, `first` and `len`.
///
/// A packet's tail crosses the links of its route in order, so the runs
/// that end with it (`WHOLE_RUN`, `TAIL_RUN`) name no link: each is on
/// the link after the previous one. The run through the ejection link
/// delivers the packet and frees its slot.
const QUEUED: u64 = 0;
const WHOLE_RUN: u64 = 1;
const TAIL_RUN: u64 = 2;
const RUN: u64 = 3;

/// Bytes of a chunk of recorded events. Chunks are filled in place and
/// never moved, so a recording grows without copying what it holds.
const CHUNK_BYTES: usize = 1 << 16;

/// Room an event needs at most: five varints of up to ten bytes.
const MAX_EVENT_BYTES: usize = 50;

/// A run of one packet's consecutive flits over one link, not yet
/// written because the packet's next flit may extend it.
#[derive(Debug, Clone, Copy)]
struct OpenRun {
    slot: u32,
    first: u32,
    len: u32,
}

/// A [`PhaseRecording`] being written while the cycle engine steps the
/// phase ([`Simulator::record_phase`]).
///
/// Packets are named by a recording slot, taken when the packet is
/// queued and freed when its tail leaves the ejection link, so events
/// name packets in flight with small numbers and the replay holds rows
/// for exactly the packets in flight. A run is written once it is
/// complete: when the packet's tail crossed the link, or another
/// packet's flit took the link. So every run precedes its packet's
/// delivery, and each link's runs follow its flit order.
#[derive(Debug, Clone)]
pub(crate) struct PhaseRecorder {
    recording: PhaseRecording,
    start_cycle: u64,
    last_offset: u64,
    last_tag: u64,
    /// Per simulator slot: the recording slot of the packet it holds.
    slot_of: Vec<u32>,
    /// Per recording slot: its packet's source.
    sources: Vec<NodeId>,
    /// Freed recording slots, reused last-freed first.
    free: Vec<u32>,
    /// Per link id (router outputs `node * 5 + port`, then injection
    /// links `nodes * 5 + node`): its run in progress.
    open: Vec<Option<OpenRun>>,
}

impl PhaseRecorder {
    /// The chunk the next event goes to, with room for it.
    fn events(&mut self) -> &mut Vec<u8> {
        let chunks = &mut self.recording.events;
        if chunks
            .last()
            .is_none_or(|chunk| chunk.capacity() - chunk.len() < MAX_EVENT_BYTES)
        {
            chunks.push(Vec::with_capacity(CHUNK_BYTES));
        }
        let last = chunks.len() - 1;
        &mut chunks[last]
    }

    /// Books a packet `src → dst` tagged `tag`, of `payload_flits`
    /// payload flits, queued at its source NI at `cycle` into simulator
    /// slot `sim_slot`.
    pub(crate) fn queued(
        &mut self,
        sim_slot: u32,
        (src, dst, tag): (NodeId, NodeId, u64),
        payload_flits: usize,
        cycle: u64,
    ) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.sources[slot as usize] = src;
                slot
            }
            None => {
                self.sources.push(src);
                self.recording.slots += 1;
                self.recording.slots - 1
            }
        };
        let sim_slot = sim_slot as usize;
        if self.slot_of.len() <= sim_slot {
            self.slot_of.resize(sim_slot + 1, 0);
        }
        self.slot_of[sim_slot] = slot;
        let offset = cycle - self.start_cycle;
        let tag_delta = zigzag(tag.wrapping_sub(self.last_tag) as i64);
        let delay = offset - self.last_offset;
        (self.last_offset, self.last_tag) = (offset, tag);
        self.recording.packets += 1;
        self.recording.flits += payload_flits as u64 + 1;
        let events = self.events();
        push_varint(events, delay << 2 | QUEUED);
        push_varint(events, src as u64);
        push_varint(events, dst as u64);
        push_varint(events, tag_delta);
        push_varint(events, payload_flits as u64);
    }

    /// Books flit `seq` of the packet in simulator slot `sim_slot`
    /// crossing `link`; `tail` marks the packet's last flit.
    pub(crate) fn hop(&mut self, link: usize, sim_slot: u32, seq: u32, tail: bool) {
        let slot = self.slot_of[sim_slot as usize];
        match self.open[link] {
            // The packet's previous flit crossed this link last.
            Some(ref mut run) if run.slot == slot && run.first + run.len == seq => run.len += 1,
            open => {
                if let Some(run) = open {
                    self.write_interrupted(link, run);
                }
                self.open[link] = Some(OpenRun {
                    slot,
                    first: seq,
                    len: 1,
                });
            }
        }
        if !tail {
            return;
        }
        if let Some(run) = self.open[link].take() {
            let events = self.events();
            if run.first == 0 {
                push_varint(events, u64::from(run.slot) << 2 | WHOLE_RUN);
            } else {
                push_varint(events, u64::from(run.slot) << 2 | TAIL_RUN);
                push_varint(events, u64::from(run.first));
            }
        }
        // The tail left the ejection link: the packet is delivered.
        let out_links = self.open.len() / (NUM_PORTS + 1) * NUM_PORTS;
        if link < out_links && link % NUM_PORTS == LOCAL {
            self.free.push(slot);
        }
    }

    /// Writes `run`, cut short on `link` by another packet's flit.
    fn write_interrupted(&mut self, link: usize, run: OpenRun) {
        let config = &self.recording.config;
        let out_links = config.num_nodes() * NUM_PORTS;
        // The link's index on the packet's dimension-order route: the
        // injection link first, then one router output per node passed.
        let hop = match link.checked_sub(out_links) {
            Some(_) => 0,
            None => {
                let (src, node) = (self.sources[run.slot as usize], link / NUM_PORTS);
                let ((r0, c0), (r1, c1)) = (config.position(src), config.position(node));
                1 + r0.abs_diff(r1) + c0.abs_diff(c1)
            }
        };
        let events = self.events();
        push_varint(events, u64::from(run.slot) << 2 | RUN);
        push_varint(events, hop as u64);
        push_varint(events, u64::from(run.first));
        push_varint(events, u64::from(run.len));
    }

    /// Books a delivery `latency` cycles after its packet was queued.
    pub(crate) fn arrived(&mut self, latency: u64) {
        self.recording.latency_totals.record(latency);
    }
}

/// One traffic phase as the cycle engine stepped it, recorded for
/// replay ([`Simulator::record_phase`], [`Simulator::replay_phase`]).
///
/// Besides the event stream (see the module docs) it keeps the start
/// state it was recorded from — the mesh configuration and arbitration
/// pointers — and what the stepped run made of the phase: its length,
/// latency totals, delivery counters and end pointers. Events are
/// varints: a queued packet costs about five bytes, and a packet
/// crossing a link in one run about one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRecording {
    config: NocConfig,
    start: Arbitration,
    end: Arbitration,
    /// The events, in chunks that each end on a whole event.
    events: Vec<Vec<u8>>,
    /// Recording slots used: the peak number of packets in flight.
    slots: u32,
    packets: u64,
    /// Flits of every packet, heads included.
    flits: u64,
    latency_totals: LatencyTotals,
    /// Cycles from the phase start to the cycle its last packet arrived.
    length: u64,
}

impl PhaseRecording {
    /// True when [`Simulator::replay_phase`] may stand in for stepping
    /// the recorded phase on `sim`: the same mesh configuration, an idle
    /// mesh on perfect wires with no recording in progress, and the
    /// recorded start pointers. The phase's own inputs — which packet of
    /// which length is queued where and when — are the caller's key.
    #[must_use]
    pub fn replays(&self, sim: &Simulator) -> bool {
        sim.config == self.config
            && sim.is_idle()
            && sim.recorder.is_none()
            && !sim.faults_armed()
            && sim.arbitration_is(&self.start)
    }

    /// Cycles the phase took.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.length
    }
}

/// The payloads of a replayed phase ([`Simulator::replay_phase`]): the
/// rows each recorded packet carries this time, and what to do with them
/// at delivery. Packets are identified by their recorded endpoints and
/// tag.
pub trait PhaseTraffic {
    /// The caller's error type; replay errors convert into it.
    type Error: From<InjectError>;
    /// Where [`PhaseTraffic::send`] keeps a packet's rows.
    type Rows: FlitRows + ?Sized;

    /// The payload rows of packet `src → dst` tagged `tag`, queued now.
    /// They are copied into the replay's buffer for the packet,
    /// re-aligned onto the link width when narrower.
    ///
    /// # Errors
    ///
    /// Whatever producing the rows fails with.
    fn send(&mut self, src: NodeId, dst: NodeId, tag: u64) -> Result<&Self::Rows, Self::Error>;

    /// Packet `src → dst` tagged `tag` was delivered with `payload` — the
    /// rows [`PhaseTraffic::send`] gave, at the link width.
    ///
    /// # Errors
    ///
    /// Whatever consuming the rows fails with.
    fn deliver(
        &mut self,
        src: NodeId,
        dst: NodeId,
        tag: u64,
        payload: &FlitSlab,
    ) -> Result<(), Self::Error>;
}

/// A packet in flight during a replay.
#[derive(Debug)]
struct ReplayPacket {
    src: NodeId,
    dst: NodeId,
    tag: u64,
    head: [u64; MAX_ROW_WORDS],
    payload: FlitSlab,
    /// [`PacketWires::summary`] of the head and payload.
    summary: u64,
    /// Link ids of the route, injection link first.
    route: Vec<usize>,
    /// Links whose run through the tail has been charged.
    closed: usize,
}

impl Simulator {
    /// Starts recording the phase about to run: from now on the cycle
    /// engine books every queued packet, every flit it moves over a link
    /// and every delivery, until [`Simulator::finish_recording`].
    ///
    /// # Panics
    ///
    /// Panics if a packet is in flight (a recorded phase starts on a
    /// drained mesh) or the wires have faults armed.
    pub fn record_phase(&mut self) {
        assert!(self.is_idle(), "a recorded phase starts on a drained mesh");
        assert!(
            !self.faults_armed(),
            "error-injected phases depend on their flips and cannot be replayed"
        );
        let links = self.config.num_nodes() * (NUM_PORTS + 1);
        let mut start = Arbitration::new(&self.config);
        self.save_arbitration(&mut start);
        self.recorder = Some(Box::new(PhaseRecorder {
            recording: PhaseRecording {
                config: self.config.clone(),
                end: start.clone(),
                start,
                events: Vec::new(),
                slots: 0,
                packets: 0,
                flits: 0,
                latency_totals: LatencyTotals::default(),
                length: 0,
            },
            start_cycle: self.cycle,
            last_offset: 0,
            last_tag: 0,
            slot_of: Vec::new(),
            sources: Vec::new(),
            free: Vec::new(),
            open: vec![None; links],
        }));
    }

    /// Ends the recording [`Simulator::record_phase`] started, or returns
    /// `None` when none was started.
    ///
    /// # Panics
    ///
    /// Panics if a packet is still in flight.
    pub fn finish_recording(&mut self) -> Option<PhaseRecording> {
        let recorder = self.recorder.take()?;
        assert!(self.is_idle(), "a recorded phase ends on a drained mesh");
        // Every run ended with its packet's tail.
        debug_assert!(recorder.open.iter().all(Option::is_none));
        let mut recording = recorder.recording;
        if let Some(last) = recording.events.last_mut() {
            last.shrink_to_fit();
        }
        self.save_arbitration(&mut recording.end);
        recording.length = self.cycle - recorder.start_cycle;
        Some(recording)
    }

    /// Replays `recording` with `traffic`'s payloads: walks its events in
    /// order, asking `traffic` for each packet's rows as it is queued,
    /// charging each recorded run of the packet's flits on its link —
    /// [`crate::stats::LinkSlab::observe`] on the head row, written in
    /// place, and the codec-lane run kernel on the payload rows; a whole
    /// packet in one hop of [`crate::stats::LinkSlab::observe_packet`] —
    /// and handing the rows back to `traffic` at delivery. Then the
    /// phase's latencies, packet ids and delivery counters are booked,
    /// the clock advances by the phase length and the arbitration
    /// pointers take their recorded end values. Nothing is queued in the
    /// simulator or delivered into its NI queues.
    ///
    /// Bit-exact with stepping the same traffic through the cycle engine
    /// whenever [`PhaseRecording::replays`] holds and `traffic` queues
    /// the recorded packets; debug builds step a clone of the simulator
    /// alongside and assert it.
    ///
    /// # Errors
    ///
    /// [`InjectError::PayloadTooWide`] if a packet's rows are wider than
    /// the link, or what `traffic` fails with; the simulator is then left
    /// partway through the phase.
    ///
    /// # Panics
    ///
    /// Panics if the simulator is not in a state the recording replays
    /// on (see [`PhaseRecording::replays`]), or `traffic` gives a packet
    /// another number of payload flits than the recorded one.
    pub fn replay_phase<T: PhaseTraffic>(
        &mut self,
        recording: &PhaseRecording,
        traffic: &mut T,
    ) -> Result<(), T::Error> {
        assert!(
            recording.replays(self),
            "a phase replays only on the mesh state it was recorded from"
        );
        #[cfg(debug_assertions)]
        let mut oracle = SteppedPhase {
            at: self.cycle,
            sim: self.clone(),
        };
        let (width, words) = (self.config.link_width_bits, self.words);
        let codec = self.out_links.link_codec();
        let out_links = self.config.num_nodes() * NUM_PORTS;
        let mut packets: Vec<ReplayPacket> = Vec::with_capacity(recording.slots as usize);
        let mut free: Vec<usize> = Vec::new();
        let mut tag = 0u64;
        for events in &recording.events {
            let mut at = 0;
            while at < events.len() {
                let word = read_varint(events, &mut at);
                let slot = (word >> 2) as usize;
                let kind = word & 3;
                if kind == QUEUED {
                    let src = read_varint(events, &mut at) as NodeId;
                    let dst = read_varint(events, &mut at) as NodeId;
                    tag = tag.wrapping_add(unzigzag(read_varint(events, &mut at)) as u64);
                    let flits = read_varint(events, &mut at) as usize;
                    let rows = traffic.send(src, dst, tag)?;
                    if let Some(too_wide) = (0..rows.flit_count())
                        .map(|i| rows.flit_width(i))
                        .find(|&w| w > width)
                    {
                        return Err(InjectError::PayloadTooWide {
                            width: too_wide,
                            link: width,
                        }
                        .into());
                    }
                    assert_eq!(
                        rows.flit_count(),
                        flits,
                        "packet {src} -> {dst} tagged {tag} differs from the recorded one"
                    );
                    let slot = free.pop().unwrap_or_else(|| {
                        packets.push(ReplayPacket {
                            src,
                            dst,
                            tag,
                            head: [0; MAX_ROW_WORDS],
                            payload: FlitSlab::new(width),
                            summary: 0,
                            route: Vec::new(),
                            closed: 0,
                        });
                        packets.len() - 1
                    });
                    let packet = &mut packets[slot];
                    (packet.src, packet.dst, packet.tag, packet.closed) = (src, dst, tag, 0);
                    packet.payload.reset(width);
                    packet.payload.extend_rows(rows);
                    let head = &mut packet.head[..words];
                    write_head_row(head, width, src, dst, flits as u32, tag);
                    packet.summary = PacketWires::new(head, &packet.payload, codec).summary();
                    packet.route.clear();
                    packet
                        .route
                        .extend(route_links(&self.config, src, dst, out_links));
                    #[cfg(debug_assertions)]
                    oracle.queue(word >> 2, packet);
                    continue;
                }
                let packet = &mut packets[slot];
                // A run through the tail is on the packet's next link.
                let mut read = || read_varint(events, &mut at) as usize;
                let (hop, first, len) = match kind {
                    WHOLE_RUN => (packet.closed, 0, None),
                    TAIL_RUN => (packet.closed, read(), None),
                    _ => (read(), read(), Some(read())),
                };
                packet.closed += usize::from(len.is_none());
                let link = packet.route[hop];
                let (slab, slab_link) = match link.checked_sub(out_links) {
                    None => (&mut self.out_links, link),
                    Some(node) => (&mut self.inject_links, node),
                };
                let head = &packet.head[..words];
                let payload = &packet.payload;
                match (first, len) {
                    (0, None) => slab.observe_packet(
                        slab_link,
                        &PacketWires::with_summary(head, payload, codec, packet.summary),
                    ),
                    _ => {
                        let end = len.map_or(payload.len(), |len| first + len - 1);
                        let head = (first == 0).then_some(head);
                        slab.observe_flits(slab_link, head, &payload.rows(first.max(1) - 1..end));
                    }
                }
                if packet.closed == packet.route.len() {
                    traffic.deliver(packet.src, packet.dst, packet.tag, &packet.payload)?;
                    free.push(slot);
                }
            }
        }
        self.latencies.merge(&recording.latency_totals);
        self.next_packet_id += recording.packets;
        self.packets_delivered += recording.packets;
        self.flits_delivered += recording.flits;
        self.cycle += recording.length;
        self.restore_arbitration(&recording.end);
        #[cfg(debug_assertions)]
        self.assert_matches_stepped_phase(oracle);
        Ok(())
    }

    /// Debug oracle of [`Simulator::replay_phase`]: the stepped clone must
    /// land on the same per-link accounting, codec lanes, clock,
    /// latencies, counters and arbitration pointers.
    #[cfg(debug_assertions)]
    fn assert_matches_stepped_phase(&self, oracle: SteppedPhase) {
        let mut oracle = oracle.sim;
        while !oracle.is_idle() {
            oracle.step();
        }
        oracle.drain_all_delivered();
        self.assert_links_match(&oracle);
        assert_eq!(self.cycle, oracle.cycle, "replayed phase length");
        assert_eq!(
            (
                self.next_packet_id,
                self.packets_delivered,
                self.flits_delivered
            ),
            (
                oracle.next_packet_id,
                oracle.packets_delivered,
                oracle.flits_delivered
            ),
            "replayed packet and delivery counters"
        );
        assert_eq!(self.latencies, oracle.latencies, "replayed latencies");
        assert!(
            self.arbitration_is(&oracle.arbitration()),
            "replayed end pointers"
        );
    }
}

/// The link ids a packet `src → dst` crosses under dimension-order
/// routing: its injection link (`out_links + src`), then each router
/// output (`node * 5 + port`), ejection link last.
fn route_links(
    config: &NocConfig,
    src: NodeId,
    dst: NodeId,
    out_links: usize,
) -> impl Iterator<Item = usize> + '_ {
    let (mut at, to) = (Some(config.position(src)), config.position(dst));
    std::iter::once(out_links + src).chain(std::iter::from_fn(move || {
        let here = at?;
        let dir = route_between(config.routing, here, to);
        at = (dir != Direction::Local).then(|| step(here, dir));
        Some(config.node_at(here.0, here.1) * NUM_PORTS + dir.index())
    }))
}

/// The debug oracle of a replay: a clone of the simulator stepping the
/// replayed packets, each queued at its recorded cycle.
#[cfg(debug_assertions)]
struct SteppedPhase {
    /// The cycle the last packet was queued at.
    at: u64,
    sim: Simulator,
}

#[cfg(debug_assertions)]
impl SteppedPhase {
    /// Steps `delay` cycles past the last queued packet and queues
    /// `packet` there.
    fn queue(&mut self, delay: u64, packet: &ReplayPacket) {
        self.at += delay;
        let mut delivered = Vec::new();
        while self.sim.cycle < self.at {
            self.sim.step();
            self.sim.drain_all_delivered_into(&mut delivered);
        }
        self.sim
            .inject_rows(packet.src, packet.dst, &packet.payload, packet.tag)
            // btr-lint: allow(panic-in-hot-path, reason = "debug-assert oracle: the replay already accepted this packet; release builds compile this block out")
            .expect("the replayed packet injects");
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
            assert_eq!(fast.drain_all_delivered(), slow.drain_all_delivered());
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
            assert_eq!(fast.drain_all_delivered(), slow.drain_all_delivered());
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
        let mut got = sim.drain_all_delivered();
        got.sort_by_key(|d| d.tag);
        assert_eq!(got.len(), 8);
        for ((src, payload), d) in sent.iter().zip(&got) {
            assert_eq!(d.src, *src);
            // Delivered rows are link-width aligned; compare data bits.
            for (sent_flit, got_flit) in payload.iter().zip(&d.payload_flits.to_payloads()) {
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

    /// One packet of a scheduled phase: queued at `src` `offset` cycles
    /// after the phase start, toward `dst`, with `flits` payload flits.
    #[derive(Debug, Clone, Copy)]
    struct Scheduled {
        src: usize,
        dst: usize,
        offset: u64,
        flits: usize,
    }

    /// A converging phase: the other nodes send packets of 0 to 4 payload
    /// flits to nodes 5 and 10 at staggered offsets, so the ejection
    /// links interleave flits of several packets.
    fn converging_schedule(seed: u64) -> Vec<Scheduled> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sources: Vec<usize> = (0..16).filter(|n| ![5, 10].contains(n)).collect();
        let mut offset = 0;
        (0..60)
            .map(|_| {
                offset += rng.gen_range(0..3);
                Scheduled {
                    src: sources[rng.gen_range(0..sources.len())],
                    dst: [5, 10][rng.gen_range(0..2)],
                    offset,
                    flits: rng.gen_range(0..5),
                }
            })
            .collect()
    }

    /// Packet `i`'s payload rows in payload set `set` (data width 128,
    /// so bus-invert links re-align them).
    fn phase_rows(set: u64, i: usize, flits: usize) -> FlitSlab {
        let images: Vec<PayloadBits> = (0..flits)
            .map(|k| image(128, set * 10_000 + i as u64 * 10 + k as u64))
            .collect();
        FlitSlab::from_images(128, &images)
    }

    /// A delivery as `(tag, src, dst, payload)`.
    type Delivery = (u64, usize, usize, FlitSlab);

    /// Steps `schedule` through the cycle engine with payload set `set`,
    /// packet `i` tagged `i`, and returns the deliveries by tag.
    fn step_schedule(sim: &mut Simulator, schedule: &[Scheduled], set: u64) -> Vec<Delivery> {
        let start = sim.cycle();
        let mut next = 0;
        let mut delivered = Vec::new();
        while next < schedule.len() || !sim.is_idle() {
            while let Some(p) = schedule.get(next) {
                if start + p.offset > sim.cycle() {
                    break;
                }
                let rows = phase_rows(set, next, p.flits);
                sim.inject_rows(p.src, p.dst, &rows, next as u64).unwrap();
                next += 1;
            }
            sim.step();
            for d in sim.drain_all_delivered() {
                delivered.push((d.tag, d.src, d.dst, d.payload_flits));
            }
        }
        delivered.sort_by_key(|d| d.0);
        delivered
    }

    /// [`PhaseTraffic`] over payload set `set` of a schedule.
    struct SetTraffic<'a> {
        schedule: &'a [Scheduled],
        set: u64,
        rows: FlitSlab,
        delivered: Vec<Delivery>,
    }

    impl PhaseTraffic for SetTraffic<'_> {
        type Error = InjectError;
        type Rows = FlitSlab;

        fn send(&mut self, src: NodeId, dst: NodeId, tag: u64) -> Result<&FlitSlab, InjectError> {
            let p = self.schedule[tag as usize];
            assert_eq!((src, dst), (p.src, p.dst));
            self.rows = phase_rows(self.set, tag as usize, p.flits);
            Ok(&self.rows)
        }

        fn deliver(
            &mut self,
            src: NodeId,
            dst: NodeId,
            tag: u64,
            payload: &FlitSlab,
        ) -> Result<(), InjectError> {
            self.delivered.push((tag, src, dst, payload.clone()));
            Ok(())
        }
    }

    /// Replays `recording` with payload set `set` and returns the
    /// deliveries by tag.
    fn replay_schedule(
        sim: &mut Simulator,
        recording: &PhaseRecording,
        schedule: &[Scheduled],
        set: u64,
    ) -> Vec<Delivery> {
        let mut traffic = SetTraffic {
            schedule,
            set,
            rows: FlitSlab::new(128),
            delivered: Vec::new(),
        };
        sim.replay_phase(recording, &mut traffic).unwrap();
        traffic.delivered.sort_by_key(|d| d.0);
        traffic.delivered
    }

    /// Records `schedule` stepped with payload set 1 on `sim`.
    fn record_schedule(sim: &mut Simulator, schedule: &[Scheduled]) -> PhaseRecording {
        sim.record_phase();
        step_schedule(sim, schedule, 1);
        sim.finish_recording().unwrap()
    }

    /// Counts a recording's events by kind.
    fn event_kinds(recording: &PhaseRecording) -> [usize; 4] {
        let mut kinds = [0; 4];
        for events in &recording.events {
            let mut at = 0;
            while at < events.len() {
                let kind = read_varint(events, &mut at) & 3;
                kinds[kind as usize] += 1;
                for _ in 0..[4, 0, 1, 3][kind as usize] {
                    read_varint(events, &mut at);
                }
            }
        }
        kinds
    }

    /// Asserts two simulators report the same stats (clock and latency
    /// included), arbitration pointers and codec lanes.
    fn assert_same_mesh(replayed: &Simulator, stepped: &Simulator, what: &str) {
        assert_eq!(replayed.stats(), stepped.stats(), "{what}");
        assert!(replayed.arbitration_is(&stepped.arbitration()), "{what}");
        for link in 0..16 * NUM_PORTS {
            assert_eq!(
                replayed.out_links.codec_lane_states(link),
                stepped.out_links.codec_lane_states(link),
                "{what}: out-link {link}"
            );
        }
        for node in 0..16 {
            assert_eq!(
                replayed.inject_links.codec_lane_states(node),
                stepped.inject_links.codec_lane_states(node),
                "{what}: injection link {node}"
            );
        }
    }

    #[test]
    fn recorded_phases_replay_bit_exactly_on_new_payloads() {
        // Two consecutive converging phases of packets of every length
        // are recorded while stepping payload set 1, then replayed on a
        // fresh mesh with payload set 2: every reported number — stats
        // with cycles and latency, per-link BTs and flits, both lane
        // families, end pointers — and every delivered payload must equal
        // stepping set 2 from scratch.
        for codec in [None, Some(CodecKind::DeltaXor), Some(CodecKind::BusInvert)] {
            let width = 128 + codec.map_or(0, CodecKind::extra_wires);
            let config = NocConfig::mesh(4, 4, width).with_link_codec(codec);
            let phases = [converging_schedule(1), converging_schedule(2)];
            let mut recorder = Simulator::new(config.clone());
            let recordings: Vec<PhaseRecording> = phases
                .iter()
                .map(|schedule| record_schedule(&mut recorder, schedule))
                .collect();
            // Contention split some packets into several runs per link.
            let kinds = event_kinds(&recordings[0]);
            assert!(
                kinds[RUN as usize] > 0 && kinds[TAIL_RUN as usize] > 0,
                "{kinds:?}"
            );
            assert_eq!(kinds[QUEUED as usize], 60);
            let mut stepped = Simulator::new(config.clone());
            let mut replayed = Simulator::new(config);
            for (schedule, recording) in phases.iter().zip(&recordings) {
                assert!(recording.replays(&replayed));
                let want = step_schedule(&mut stepped, schedule, 2);
                let got = replay_schedule(&mut replayed, recording, schedule, 2);
                assert_eq!(got, want, "{codec:?}: deliveries");
                assert_same_mesh(&replayed, &stepped, &format!("{codec:?}"));
            }
            assert!(replayed.is_idle() && replayed.slots.is_empty());
        }
    }

    #[test]
    fn a_phase_recorded_after_reused_slots_replays_bit_exactly() {
        // Seeded warm-up traffic runs hundreds of packets through a
        // handful of recycled slots before the phase is recorded, so the
        // recording names packets by its own slots, not the simulator's.
        // Replayed with new payloads after the same warm-up, it must equal
        // stepping them.
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
            let recording = record_schedule(&mut recorder, &schedule);

            let mut stepped = Simulator::new(config.clone());
            let mut replayed = Simulator::new(config);
            warm_up(&mut stepped);
            warm_up(&mut replayed);
            assert!(recording.replays(&replayed));
            let want = step_schedule(&mut stepped, &schedule, 2);
            let got = replay_schedule(&mut replayed, &recording, &schedule, 2);
            assert_eq!(got, want, "{codec:?}: deliveries");
            assert_same_mesh(&replayed, &stepped, &format!("{codec:?}"));
        }
    }

    #[test]
    fn a_changed_schedule_or_start_state_refuses_the_replay() {
        let schedule = converging_schedule(3);
        let mut sim = Simulator::new(NocConfig::mesh(4, 4, 128));
        let recording = record_schedule(&mut sim, &schedule);
        let fresh = Simulator::new(NocConfig::mesh(4, 4, 128));
        assert!(recording.replays(&fresh));
        // The recording mesh ends with moved pointers.
        assert!(!sim.arbitration_is(&fresh.arbitration()));
        assert!(!recording.replays(&sim));
        // A packet in flight, or another mesh configuration.
        let mut busy = fresh.clone();
        busy.inject(Packet::new(0, 1, vec![image(128, 1)], 0))
            .unwrap();
        assert!(!recording.replays(&busy));
        let coded = NocConfig::mesh(4, 4, 128).with_link_codec(Some(CodecKind::DeltaXor));
        assert!(!recording.replays(&Simulator::new(coded)));
        // Traffic whose packets are longer than the recorded ones.
        let mut longer = schedule.clone();
        for p in &mut longer {
            p.flits += 1;
        }
        let refused = std::panic::catch_unwind(move || {
            let mut sim = fresh;
            replay_schedule(&mut sim, &recording, &longer, 2)
        });
        assert!(refused.is_err());
    }

    #[test]
    fn phases_of_any_packet_length_record() {
        for flits in [0, 2] {
            let schedule = [Scheduled {
                src: 0,
                dst: 5,
                offset: 0,
                flits,
            }];
            let mut sim = Simulator::new(NocConfig::mesh(4, 4, 128));
            let recording = record_schedule(&mut sim, &schedule);
            assert_eq!(
                event_kinds(&recording),
                [1, 4, 0, 0],
                "{flits} payload flits"
            );
            let mut stepped = Simulator::new(NocConfig::mesh(4, 4, 128));
            let mut replayed = Simulator::new(NocConfig::mesh(4, 4, 128));
            let want = step_schedule(&mut stepped, &schedule, 2);
            assert_eq!(
                replay_schedule(&mut replayed, &recording, &schedule, 2),
                want
            );
            assert_same_mesh(&replayed, &stepped, &format!("{flits} payload flits"));
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
