//! Aggregate NoC statistics: bit transitions, latency, throughput.

use crate::fault::{ErrorModel, FaultState};
use crate::routing::Direction;
use btr_bits::slab::{row_transitions, FlitRows, FlitSlab, MAX_ROW_WORDS};
use btr_core::codec::{CodecKind, DeltaXorRun, LinkCodecState};

/// Persistent per-link codec endpoints for a slab of links
/// (`CodecScope::PerLink`): one transmit encoder and one mirrored receive
/// decoder per directed link, surviving across packets, batches and
/// layers for the slab's lifetime.
#[derive(Debug, Clone)]
struct CodecLanes {
    /// The scheme every lane runs.
    kind: CodecKind,
    /// Data wires of every lane (the link width less the side channel).
    data_width: u32,
    /// Transmit-side state per link (drives the wire rows the slab
    /// records).
    tx: Vec<LinkCodecState>,
    /// Receive-side state per link (mirrors `tx`; recovers the plain
    /// row the downstream hop consumes).
    rx: Vec<LinkCodecState>,
}

/// Dense per-link bit-transition accumulators for a set of equally wide
/// links.
///
/// The flat-array simulator attaches one slab to all router output links
/// and one to all injection links, instead of a recorder object per
/// link: the last-wire, transition-total and flit-count columns live in
/// contiguous index-addressed vectors, so the per-hop record (XOR +
/// popcount + store, Fig. 8) touches three adjacent slots rather than
/// chasing per-link allocations. Each link's last wire image is a dense
/// row of the `u64` words the link width covers (wire `k` is bit
/// `k % 64` of word `k / 64`), and every flit is observed as such a row.
///
/// With [`LinkSlab::with_link_codec`] the links additionally own
/// persistent codec state: every payload flit is encoded against the
/// link's wire memory at traversal time ([`LinkSlab::observe_payload`]),
/// the accumulators record the **true coded wire**, and the receiving
/// end's mirrored state decodes the plain row back — losslessly, with no
/// per-packet reset.
#[derive(Debug, Clone)]
pub struct LinkSlab {
    width: u32,
    /// `u64` words of a wire row.
    words: usize,
    /// Last wire row per link, `link * words..`, back to back (valid
    /// where `flits > 0`).
    prev: Vec<u64>,
    /// Accumulated transitions per link.
    transitions: Vec<u64>,
    /// Flits observed per link.
    flits: Vec<u64>,
    /// Per-link codec endpoints; `None` models raw wires.
    lanes: Option<CodecLanes>,
    /// Armed error process; `None` models perfect wires. Flips are
    /// applied to the coded wire row between the tx encode and the
    /// recorder/rx decode — exactly where a physical glitch lands.
    faults: Option<FaultState>,
}

impl LinkSlab {
    /// Creates a slab of `links` raw-wire links, each `width` bits wide.
    #[must_use]
    pub fn new(width: u32, links: usize) -> Self {
        let words = width.max(1).div_ceil(64) as usize;
        Self {
            width,
            words,
            prev: vec![0; links * words],
            transitions: vec![0; links],
            flits: vec![0; links],
            lanes: None,
            faults: None,
        }
    }

    /// Creates a slab whose links each own a persistent [`codec`] state
    /// pair: `width - extra_wires` data wires plus the codec's
    /// side-channel wires.
    ///
    /// # Panics
    ///
    /// Panics if the codec is stateless ([`CodecKind::Unencoded`]) or
    /// `width` leaves no data wires beside the side-channel wires.
    ///
    /// [`codec`]: LinkCodecState
    #[must_use]
    pub fn with_link_codec(width: u32, links: usize, codec: CodecKind) -> Self {
        assert!(
            codec.is_stateful(),
            "per-link lanes need a stateful codec; use LinkSlab::new for raw wires"
        );
        assert!(
            width > codec.extra_wires(),
            "link width {width} leaves no data wires beside the codec side channel"
        );
        let data_width = width - codec.extra_wires();
        let mut slab = Self::new(width, links);
        slab.lanes = Some(CodecLanes {
            kind: codec,
            data_width,
            tx: vec![codec.seed_state(data_width); links],
            rx: vec![codec.seed_state(data_width); links],
        });
        slab
    }

    /// The codec the per-link lanes run, or `None` on raw wires.
    #[must_use]
    pub(crate) fn link_codec(&self) -> Option<CodecKind> {
        self.lanes.as_ref().map(|l| l.kind)
    }

    /// Arms the error process on every link of the slab. Payload flits
    /// observed through [`LinkSlab::observe_payload`] from now on may
    /// take wire flips inside `[0, frame_wires)`; `salt` namespaces this
    /// slab's RNG streams under the model seed so two slabs never share
    /// a flip sequence.
    ///
    /// Callers arm only when `model.ber > 0`: an un-armed slab is
    /// bit-for-bit the perfect-wire code path.
    ///
    /// # Panics
    ///
    /// Panics if `frame_wires` is zero, exceeds the link width, or (on a
    /// coded slab) does not fill the wire beside the codec side channel
    /// — flips must never land on protected control wires.
    pub fn arm_faults(&mut self, model: ErrorModel, salt: u64, frame_wires: u32) {
        assert!(
            frame_wires > 0 && frame_wires <= self.width,
            "fault frame of {frame_wires} wire(s) does not fit the {}-bit link",
            self.width
        );
        if let Some(lanes) = &self.lanes {
            assert!(
                frame_wires <= lanes.data_width,
                "fault frame of {frame_wires} wire(s) overlaps the codec side channel \
                 above wire {}",
                lanes.data_width
            );
        }
        self.faults = Some(FaultState::new(model, salt, self.links(), frame_wires));
    }

    /// True when the slab's wires draw errors.
    #[must_use]
    pub fn faults_armed(&self) -> bool {
        self.faults.is_some()
    }

    /// Reseeds every link's tx/rx codec lane pair together — the
    /// [`ResyncPolicy::ReseedOnRetry`] sideband pulse. Lanes stay
    /// mirrored (both forget their wire memory at the same instant), so
    /// losslessness is preserved; only the next flit's transition cost
    /// changes. No-op on a raw-wire slab.
    ///
    /// [`ResyncPolicy::ReseedOnRetry`]: btr_core::codec::ResyncPolicy::ReseedOnRetry
    pub fn reseed_codec_lanes(&mut self) {
        if let Some(lanes) = self.lanes.as_mut() {
            for lane in lanes.tx.iter_mut().chain(lanes.rx.iter_mut()) {
                lane.reset();
            }
        }
    }

    /// Number of links in the slab.
    #[must_use]
    pub fn links(&self) -> usize {
        self.flits.len()
    }

    /// `link`'s last wire row, writable.
    #[inline]
    fn wire_mut(&mut self, link: usize) -> &mut [u64] {
        &mut self.prev[link * self.words..][..self.words]
    }

    /// Adds `toggled` transitions and one flit to `link` (the first flit
    /// a link carries is free).
    #[inline]
    fn charge(&mut self, link: usize, toggled: u32) {
        if self.flits[link] > 0 {
            self.transitions[link] += u64::from(toggled);
        }
        self.flits[link] += 1;
    }

    /// Records a flit traversing `link` as its wire row, accumulating the
    /// Hamming distance to the link's previous row (the first flit is
    /// free).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range or `row` does not cover exactly
    /// the words of the slab width.
    #[inline]
    pub fn observe(&mut self, link: usize, row: &[u64]) {
        assert_eq!(
            row.len(),
            self.words,
            "a {}-word row does not match the {}-bit link",
            row.len(),
            self.width
        );
        let toggled = copy_row_onto(self.wire_mut(link), row);
        self.charge(link, toggled);
    }

    /// Records a *payload* flit traversing `link` through the link's
    /// persistent codec state and error process, in place: `row` is the
    /// link-aligned plain row (side-channel wires zero); it is encoded
    /// against the link's wire memory into the link's wire register,
    /// flipped there on error-injected wires, charged as the **coded**
    /// wire, and the receiving end's mirrored state decodes it back into
    /// `row` (side-channel wires zeroed) for the downstream hop to carry.
    ///
    /// On a raw-wire slab this is [`LinkSlab::observe`] on the (possibly
    /// flipped) row; on perfect wires it is
    /// [`LinkSlab::observe_payload_hop`] and `row` comes back unchanged.
    /// Head flits always take [`LinkSlab::observe`]: addressing travels
    /// uncoded, on either scope, so the coded-flit set is identical
    /// across scopes.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range or `row` does not cover exactly
    /// the words of the slab width.
    pub fn observe_payload(&mut self, link: usize, row: &mut [u64]) {
        let Some(faults) = self.faults.as_mut() else {
            self.observe_payload_hop(link, row);
            return;
        };
        let mut wire = [0u64; MAX_ROW_WORDS];
        let wire = &mut wire[..self.words];
        match self.lanes.as_mut() {
            // Raw wires: a glitch corrupts the row itself; the recorder
            // sees (and charges) the corrupted wire, and the downstream
            // hop carries it onward.
            None => {
                faults.corrupt(link, row);
                wire.copy_from_slice(row);
            }
            // Faulty coded wires keep the full walk: the flip lands
            // between the tx encode and the rx decode, the decode really
            // is corrupted (and on a stateful codec the rx lane is
            // poisoned for later flits too), and detection belongs to the
            // EDC at the receiving NI — so the mirrored decode must
            // actually run.
            Some(lanes) => {
                lanes.tx[link].encode_row_onto(row, wire);
                faults.corrupt(link, wire);
                lanes.rx[link].decode_row(wire, row);
            }
        }
        self.observe(link, wire);
    }

    /// The perfect-wire payload hop: [`LinkSlab::observe_payload`] on a
    /// slab without faults, which leaves the row unchanged — on perfect
    /// wires the downstream hop carries the plain row onward. Raw wires
    /// take [`LinkSlab::observe`]; codec lanes encode in place onto the
    /// link's last wire row ([`LinkCodecState::encode_row_onto`]) and
    /// the rx lane follows the tx lane.
    ///
    /// # Panics
    ///
    /// Panics if the slab has faults armed (a flip must land between
    /// encode and decode, so faulty wires take
    /// [`LinkSlab::observe_payload`]), `link` is out of range, `row` does
    /// not cover exactly the words of the slab width, or its codec
    /// side-channel wires are not zero.
    #[inline]
    pub fn observe_payload_hop(&mut self, link: usize, row: &[u64]) {
        assert!(
            self.faults.is_none(),
            "error-injected wires take observe_payload"
        );
        let words = self.words;
        let Some(lanes) = self.lanes.as_mut() else {
            self.observe(link, row);
            return;
        };
        let wire = &mut self.prev[link * words..][..words];
        let toggled = lanes.tx[link].encode_row_onto(row, wire);
        // The mirrored decode provably returns the transmitted plain
        // row and leaves the rx lane equal to the tx lane (delta-XOR
        // keeps the plain row on both ends, bus-invert the
        // post-inversion wire data). Debug builds keep the full decode as
        // the per-flit oracle; release builds mirror the lane.
        #[cfg(debug_assertions)]
        {
            let mut plain = [0u64; MAX_ROW_WORDS];
            let plain = &mut plain[..words];
            lanes.rx[link].decode_row(wire, plain);
            debug_assert!(plain == row, "link {link} codec lane");
            debug_assert!(
                lanes.rx[link] == lanes.tx[link],
                "link {link}: mirrored lanes diverged on perfect wires"
            );
        }
        #[cfg(not(debug_assertions))]
        lanes.rx[link].mirror_from(&lanes.tx[link]);
        self.charge(link, toggled);
    }

    /// Records an uninterrupted run of *payload* flits — link-aligned
    /// plain rows — traversing `link` through the link's persistent codec
    /// lanes in one pass: exactly [`LinkSlab::observe_payload`] on each
    /// row of the run in order, without writing any intermediate wire
    /// row on delta-XOR lanes ([`LinkCodecState::encode_rows_onto`]). The
    /// accumulator charges the run's boundary + intra transitions, and
    /// the rx lane is mirrored from the tx lane once (on perfect wires
    /// the mirrored decode provably lands there; debug builds re-derive
    /// it flit by flit as the oracle). The delivered plain rows are the
    /// inputs themselves. An empty run is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the slab has no codec lanes (raw wires take
    /// [`LinkSlab::observe`] per flit) or has faults armed (a flip must
    /// land between encode and decode, so faulty wires keep the per-flit
    /// walk), if `link` is out of range, or under the row conditions of
    /// [`LinkSlab::observe_payload_hop`].
    pub fn observe_payload_run(&mut self, link: usize, rows: &(impl FlitRows + ?Sized)) {
        assert!(
            self.faults.is_none(),
            "bulk payload runs cannot traverse error-injected wires"
        );
        #[cfg(debug_assertions)]
        let walk = self.walk_oracle(link, None, rows);
        let words = self.words;
        let wire = &mut self.prev[link * words..][..words];
        let lanes = self
            .lanes
            .as_mut()
            // btr-lint: allow(panic-in-hot-path, reason = "documented `# Panics` contract: callers route raw-wire slabs to observe; lanes are fixed at slab construction, not a data condition")
            .expect("bulk payload runs need per-link codec lanes; raw wires take observe");
        let Some((boundary, intra, count)) = lanes.tx[link].encode_rows_onto(rows, wire) else {
            return;
        };
        lanes.rx[link].mirror_from(&lanes.tx[link]);
        if self.flits[link] > 0 {
            self.transitions[link] += u64::from(boundary);
        }
        self.transitions[link] += intra;
        self.flits[link] += count;
        #[cfg(debug_assertions)]
        self.assert_matches_walk(link, &walk, "bulk lane run");
    }

    /// Debug oracle of the bulk kernels: a one-link slab cloned from
    /// `link`'s lane and wire state walks `head` (if any) and the payload
    /// rows flit by flit. Returns it with `link`'s transitions so far.
    #[cfg(debug_assertions)]
    fn walk_oracle(
        &self,
        link: usize,
        head: Option<&[u64]>,
        rows: &(impl FlitRows + ?Sized),
    ) -> (LinkSlab, u64) {
        let mut oracle = LinkSlab::new(self.width, 1);
        oracle.lanes = self.lanes.as_ref().map(|l| CodecLanes {
            kind: l.kind,
            data_width: l.data_width,
            tx: vec![l.tx[link].clone()],
            rx: vec![l.rx[link].clone()],
        });
        oracle
            .prev
            .copy_from_slice(&self.prev[link * self.words..][..self.words]);
        oracle.flits[0] = self.flits[link];
        if let Some(head) = head {
            oracle.observe(0, head);
        }
        for i in 0..rows.flit_count() {
            oracle.observe_payload(0, &mut rows.row(i).to_vec());
        }
        (oracle, self.transitions[link])
    }

    /// Debug oracle check: `link` landed on the same transitions, flit
    /// count, lanes and last wire row as the flit-by-flit `walk`.
    #[cfg(debug_assertions)]
    fn assert_matches_walk(&self, link: usize, walk: &(LinkSlab, u64), kernel: &str) {
        let (oracle, before) = walk;
        debug_assert_eq!(
            (self.transitions[link] - before, self.flits[link]),
            (oracle.transitions[0], oracle.flits[0]),
            "link {link}: {kernel} diverges from the per-flit walk"
        );
        debug_assert!(
            self.codec_lane_states(link) == oracle.codec_lane_states(0)
                && self.prev[link * self.words..][..self.words] == oracle.prev[..],
            "link {link}: {kernel} leaves different lane or wire state"
        );
    }

    /// Records a run of one packet's consecutive flits crossing `link` on
    /// perfect wires: `head` when the run starts with the head flit, then
    /// the payload rows — [`LinkSlab::observe`] on the head and on raw
    /// payload rows, the codec-lane run kernel
    /// ([`LinkSlab::observe_payload_run`]) on coded links.
    ///
    /// # Panics
    ///
    /// Under the conditions of [`LinkSlab::observe`] and
    /// [`LinkSlab::observe_payload_run`].
    pub(crate) fn observe_flits(
        &mut self,
        link: usize,
        head: Option<&[u64]>,
        payload: &(impl FlitRows + ?Sized),
    ) {
        if let Some(head) = head {
            self.observe(link, head);
        }
        if self.lanes.is_some() {
            self.observe_payload_run(link, payload);
        } else {
            for i in 0..payload.flit_count() {
                self.observe(link, payload.row(i));
            }
        }
    }

    /// Records one whole packet — head, then its payload rows — crossing
    /// `link` on perfect wires. Exactly equivalent to [`LinkSlab::observe`]
    /// on the head followed by [`LinkSlab::observe_payload_run`], at the
    /// per-hop cost the slab's wires allow:
    ///
    /// * raw wires: O(1), one boundary transition plus the packet's
    ///   precomputed intra sum;
    /// * delta-XOR lanes: O(1), three link-dependent terms plus the
    ///   packet's precomputed telescope tail
    ///   ([`LinkCodecState::encode_delta_xor_run_onto`]);
    /// * bus-invert lanes: one row step per flit, since the invert
    ///   decision depends on the link's wire memory at every flit.
    ///
    /// # Panics
    ///
    /// Panics if `packet` was summarized for a different link codec than
    /// the slab runs, the slab has faults armed, `link` is out of range,
    /// or the rows do not cover the slab width.
    pub fn observe_packet(&mut self, link: usize, packet: &PacketWires<'_>) {
        assert_eq!(
            packet.codec,
            self.link_codec(),
            "packet summarized for a different link codec"
        );
        match &packet.charge {
            Charge::Raw { intra } => self.observe_raw_packet(link, packet, *intra),
            Charge::DeltaXor(run) => self.observe_delta_xor_packet(link, packet.head, run),
            Charge::Lanes => {
                self.observe(link, packet.head);
                self.observe_payload_run(link, packet.payload);
            }
        }
    }

    /// The O(1) raw-wire hop behind [`LinkSlab::observe_packet`]: on raw
    /// wires a packet's flit sequence is the same on every link of its
    /// path, so the hop charges the head against the link's previous
    /// row plus the packet's precomputed intra sum, and the last payload
    /// row becomes the link's previous row — exactly
    /// [`LinkSlab::observe`] on each flit in order.
    fn observe_raw_packet(&mut self, link: usize, packet: &PacketWires<'_>, intra: u64) {
        assert!(
            self.lanes.is_none() && self.faults.is_none(),
            "raw packet hops need perfect raw wires"
        );
        self.observe(link, packet.head);
        self.transitions[link] += intra;
        self.flits[link] += packet.payload.len() as u64;
        if let Some(last) = packet.payload.len().checked_sub(1) {
            self.wire_mut(link)
                .copy_from_slice(packet.payload.flit(last));
        }
    }

    /// The O(1) delta-XOR hop behind [`LinkSlab::observe_packet`]. Of the
    /// packet's wire transitions only three depend on the link: the head
    /// against the link's previous wire row, `popcount(x0 ⊕ p0 ⊕ head)`
    /// and `popcount(x1 ⊕ p0)`, where `p0` is the lane's last plain flit.
    /// Both lanes end on `x_{n−1}`, the previous wire row on
    /// `x_{n−1} ⊕ x_{n−2}` (`x0 ⊕ p0` when n = 1).
    fn observe_delta_xor_packet(&mut self, link: usize, head: &[u64], run: &DeltaXorRun<'_>) {
        assert!(
            self.faults.is_none(),
            "bulk payload runs cannot traverse error-injected wires"
        );
        #[cfg(debug_assertions)]
        let walk = self.walk_oracle(link, Some(head), run.plains());
        self.observe(link, head);
        let words = self.words;
        let wire = &mut self.prev[link * words..][..words];
        let lanes = self
            .lanes
            .as_mut()
            // btr-lint: allow(panic-in-hot-path, reason = "observe_packet only routes delta-XOR summaries to a slab whose lanes run delta-XOR; lanes are fixed at slab construction")
            .expect("delta-XOR packets need delta-XOR lanes");
        self.transitions[link] += lanes.tx[link].encode_delta_xor_run_onto(run, head, wire);
        lanes.rx[link].mirror_from(&lanes.tx[link]);
        self.flits[link] += run.plains().len() as u64;
        #[cfg(debug_assertions)]
        self.assert_matches_walk(link, &walk, "O(1) delta-XOR hop");
    }

    /// Accumulated transitions on `link`.
    #[must_use]
    pub fn transitions(&self, link: usize) -> u64 {
        self.transitions[link]
    }

    /// Flits observed on `link`.
    #[must_use]
    pub fn flits(&self, link: usize) -> u64 {
        self.flits[link]
    }

    /// The persistent tx/rx codec-state pair `link` owns, or `None` on a
    /// raw-wire slab. Engine-parity harnesses compare these to pin that
    /// the analytic replay leaves every wire's memory exactly where the
    /// cycle engine does.
    #[must_use]
    pub fn codec_lane_states(&self, link: usize) -> Option<(&LinkCodecState, &LinkCodecState)> {
        self.lanes.as_ref().map(|l| (&l.tx[link], &l.rx[link]))
    }
}

/// Overwrites `wire` with `row` and returns the wires that toggled, in
/// one pass. The paper's links are 128-bit (fx8) and 512-bit (f32)
/// wide, so 2- and 8-word rows take fixed-length loops the compiler
/// unrolls.
#[inline]
fn copy_row_onto(wire: &mut [u64], row: &[u64]) -> u32 {
    #[inline(always)]
    fn fused(wire: &mut [u64], row: &[u64]) -> u32 {
        let mut toggled = 0;
        for (w, &r) in wire.iter_mut().zip(row) {
            toggled += (*w ^ r).count_ones();
            *w = r;
        }
        toggled
    }
    match (wire.len(), row.len()) {
        (2, 2) => fused(&mut wire[..2], &row[..2]),
        (8, 8) => fused(&mut wire[..8], &row[..8]),
        _ => {
            assert_eq!(wire.len(), row.len(), "rows of different lengths");
            fused(wire, row)
        }
    }
}

/// One whole packet's wire rows — the head, then its payload rows, all
/// at the link width — summarized once for the link codec it will cross,
/// so every hop of its route charges a link through
/// [`LinkSlab::observe_packet`] without redoing the link-independent part.
#[derive(Debug, Clone)]
pub struct PacketWires<'a> {
    head: &'a [u64],
    payload: &'a FlitSlab,
    codec: Option<CodecKind>,
    charge: Charge<'a>,
}

/// The per-packet part of a hop's charge.
#[derive(Debug, Clone)]
enum Charge<'a> {
    /// Raw wires carry the same flit sequence on every link: the sum of
    /// transitions from the head through the last payload flit.
    Raw { intra: u64 },
    /// Delta-XOR lanes: the link-independent tail of the telescope.
    DeltaXor(DeltaXorRun<'a>),
    /// Other lanes (and empty payloads): nothing is link-independent; the
    /// payload rows take the per-flit lane steps.
    Lanes,
}

impl<'a> PacketWires<'a> {
    /// Summarizes a packet — its head row and payload rows — for links
    /// running `codec` (`None` = raw wires), in one XOR+popcount pass
    /// over its rows at most.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not empty and its rows are not as long as
    /// the head's.
    #[must_use]
    pub fn new(head: &'a [u64], payload: &'a FlitSlab, codec: Option<CodecKind>) -> Self {
        assert!(
            payload.is_empty() || payload.words_per_flit() == head.len(),
            "payload rows are {} words long, the head {}",
            payload.words_per_flit(),
            head.len()
        );
        let summary = match codec {
            None if !payload.is_empty() => {
                u64::from(row_transitions(head, payload.flit(0))) + payload.lagged_transitions(1)
            }
            Some(CodecKind::DeltaXor) if !payload.is_empty() => payload.lagged_transitions(2),
            _ => 0,
        };
        Self::summarized(head, payload, codec, summary)
    }

    /// The packet whose link-independent sum ([`PacketWires::summary`])
    /// is `summary`.
    fn summarized(
        head: &'a [u64],
        payload: &'a FlitSlab,
        codec: Option<CodecKind>,
        summary: u64,
    ) -> Self {
        let charge = match codec {
            None => Charge::Raw { intra: summary },
            Some(CodecKind::DeltaXor) if !payload.is_empty() => {
                Charge::DeltaXor(DeltaXorRun::with_tail(payload, summary))
            }
            Some(_) => Charge::Lanes,
        };
        Self {
            head,
            payload,
            codec,
            charge,
        }
    }

    /// Flits on the wire (head + payload).
    #[must_use]
    pub(crate) fn flits(&self) -> u64 {
        1 + self.payload.len() as u64
    }

    /// The link-independent sum [`PacketWires::new`] took over the rows,
    /// to summarize the same rows again with
    /// [`PacketWires::with_summary`].
    #[must_use]
    pub(crate) fn summary(&self) -> u64 {
        match &self.charge {
            Charge::Raw { intra } => *intra,
            Charge::DeltaXor(run) => run.tail(),
            Charge::Lanes => 0,
        }
    }

    /// [`PacketWires::new`] on rows whose [`PacketWires::summary`] was
    /// taken before, without another pass over them.
    #[must_use]
    pub(crate) fn with_summary(
        head: &'a [u64],
        payload: &'a FlitSlab,
        codec: Option<CodecKind>,
        summary: u64,
    ) -> Self {
        debug_assert_eq!(
            summary,
            Self::new(head, payload, codec).summary(),
            "stale packet summary"
        );
        Self::summarized(head, payload, codec, summary)
    }
}

/// Per-link transition summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkStat {
    /// Router the link leaves from (or the node, for injection links).
    pub node: usize,
    /// Output direction (`Local` = ejection link to the NI).
    pub direction: Direction,
    /// True for NI→router injection links.
    pub injection: bool,
    /// Total bit transitions observed on the link.
    pub transitions: u64,
    /// Flits that traversed the link.
    pub flits: u64,
}

/// Packet latency summary (injection to tail ejection, in cycles).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Packets measured.
    pub count: u64,
    /// Minimum latency.
    pub min: u64,
    /// Maximum latency.
    pub max: u64,
    /// Mean latency.
    pub mean: f64,
}

/// Running latency totals — everything [`LatencyStats`] summarizes,
/// without keeping the samples.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct LatencyTotals {
    count: u64,
    min: u64,
    max: u64,
    sum: u128,
}

impl LatencyTotals {
    /// Adds one sample.
    pub(crate) fn record(&mut self, latency: u64) {
        self.min = if self.count == 0 {
            latency
        } else {
            self.min.min(latency)
        };
        self.max = self.max.max(latency);
        self.sum += u128::from(latency);
        self.count += 1;
    }

    /// Adds every sample `other` holds.
    pub(crate) fn merge(&mut self, other: &LatencyTotals) {
        if other.count > 0 {
            self.min = if self.count == 0 {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
            self.sum += other.sum;
            self.count += other.count;
        }
    }

    /// The summary of the samples so far.
    pub(crate) fn stats(&self) -> LatencyStats {
        LatencyStats {
            count: self.count,
            min: self.min,
            max: self.max,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
        }
    }
}

/// Snapshot of all simulator statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct NocStats {
    /// Simulated cycles.
    pub cycles: u64,
    /// Total bit transitions over every link (the paper's "NoC Bit
    /// Transition Sum", Fig. 8).
    pub total_transitions: u64,
    /// Transitions on inter-router links only.
    pub inter_router_transitions: u64,
    /// Transitions on NI→router injection links.
    pub injection_transitions: u64,
    /// Transitions on router→NI ejection links.
    pub ejection_transitions: u64,
    /// Total flit-hops (sum of flits over all links).
    pub flit_hops: u64,
    /// Packets fully delivered.
    pub packets_delivered: u64,
    /// Flits delivered (incl. head flits).
    pub flits_delivered: u64,
    /// Packet latency summary.
    pub latency: LatencyStats,
    /// Per-link detail.
    pub per_link: Vec<LinkStat>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_from_samples() {
        let mut totals = LatencyTotals::default();
        for s in [10, 20, 30] {
            totals.record(s);
        }
        let l = totals.stats();
        assert_eq!(l.count, 3);
        assert_eq!(l.min, 10);
        assert_eq!(l.max, 30);
        assert!((l.mean - 20.0).abs() < 1e-12);
    }

    #[test]
    fn latency_empty() {
        let l = LatencyTotals::default().stats();
        assert_eq!(l.count, 0);
        assert_eq!(l.mean, 0.0);
    }
}
