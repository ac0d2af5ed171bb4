//! Aggregate NoC statistics: bit transitions, latency, throughput.

use crate::fault::{ErrorModel, FaultState};
use crate::routing::Direction;
use btr_bits::payload::PayloadBits;
use btr_core::codec::{CodecKind, LinkCodecState};

/// Persistent per-link codec endpoints for a slab of links
/// (`CodecScope::PerLink`): one transmit encoder and one mirrored receive
/// decoder per directed link, surviving across packets, batches and
/// layers for the slab's lifetime.
#[derive(Debug, Clone)]
struct CodecLanes {
    /// Transmit-side state per link (drives the wire images the slab
    /// records).
    tx: Vec<LinkCodecState>,
    /// Receive-side state per link (mirrors `tx`; recovers the plain
    /// image the downstream hop consumes).
    rx: Vec<LinkCodecState>,
}

/// Dense per-link bit-transition accumulators for a set of equally wide
/// links.
///
/// The flat-array simulator attaches one slab to all router output links
/// and one to all injection links, instead of a recorder object per
/// link: the previous-image, transition-total and flit-count
/// columns live in contiguous index-addressed vectors, so the per-hop
/// record (XOR + popcount + store, Fig. 8) touches three adjacent slots
/// rather than chasing per-link allocations.
///
/// With [`LinkSlab::with_link_codec`] the links additionally own
/// persistent codec state: every payload flit is encoded against the
/// link's wire memory at traversal time ([`LinkSlab::observe_payload`]),
/// the accumulators record the **true coded wire**, and the receiving
/// end's mirrored state decodes the plain image back — losslessly, with
/// no per-packet reset.
#[derive(Debug, Clone)]
pub struct LinkSlab {
    width: u32,
    /// Last image seen per link (valid where `flits > 0`).
    prev: Vec<PayloadBits>,
    /// Accumulated transitions per link.
    transitions: Vec<u64>,
    /// Flits observed per link.
    flits: Vec<u64>,
    /// Per-link codec endpoints; `None` models raw wires.
    lanes: Option<CodecLanes>,
    /// Armed error process; `None` models perfect wires. Flips are
    /// applied to the coded wire image between the tx encode and the
    /// recorder/rx decode — exactly where a physical glitch lands.
    faults: Option<FaultState>,
}

impl LinkSlab {
    /// Creates a slab of `links` raw-wire links, each `width` bits wide.
    #[must_use]
    pub fn new(width: u32, links: usize) -> Self {
        Self {
            width,
            prev: vec![PayloadBits::zero(width.max(1)); links],
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
            tx: vec![codec.seed_state(data_width); links],
            rx: vec![codec.seed_state(data_width); links],
        });
        slab
    }

    /// True when the links own per-link codec state.
    #[must_use]
    pub fn has_link_codec(&self) -> bool {
        self.lanes.is_some()
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
            let data_width = lanes.tx.first().map_or(0, LinkCodecState::data_width);
            assert!(
                frame_wires <= data_width || data_width == 0,
                "fault frame of {frame_wires} wire(s) overlaps the codec side channel \
                 above wire {data_width}"
            );
        }
        self.faults = Some(FaultState::new(model, salt, self.links(), frame_wires));
    }

    /// True when the slab's wires draw errors.
    #[must_use]
    pub fn faults_armed(&self) -> bool {
        self.faults.is_some()
    }

    /// `(flipped_bits, corrupted_flits)` totals across the slab, both
    /// zero when un-armed.
    #[must_use]
    pub fn fault_totals(&self) -> (u64, u64) {
        self.faults.as_ref().map_or((0, 0), |f| {
            (f.total_flipped_bits(), f.total_corrupted_flits())
        })
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

    /// Records a flit traversing `link`, accumulating the Hamming distance
    /// to the link's previous image (the first flit is free).
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range or the flit width differs from the
    /// slab width.
    #[inline]
    pub fn observe(&mut self, link: usize, flit: &PayloadBits) {
        assert_eq!(
            flit.width(),
            self.width,
            "flit width {} does not match link width {}",
            flit.width(),
            self.width
        );
        if self.flits[link] > 0 {
            self.transitions[link] += u64::from(flit.transitions_to(&self.prev[link]));
        }
        self.prev[link].clone_used_from(flit);
        self.flits[link] += 1;
    }

    /// Records an uninterrupted run of `count` flits traversing `link` in
    /// one step — exactly equivalent to calling [`LinkSlab::observe`] on
    /// each flit of the run in order, given the run's first image, last
    /// image, and the precomputed sum of Hamming distances between its
    /// consecutive flits (`intra_transitions`).
    ///
    /// This is the analytic engine's O(1)-per-hop kernel: on raw wires a
    /// packet's flit sequence is identical on every link of its path, so
    /// the intra-packet transition sum is computed once per packet and
    /// each hop only adds the link-boundary transition against the wire's
    /// previous image. Slabs with per-link codec state cannot take this
    /// path (each link re-images the stream); callers must check
    /// [`LinkSlab::has_link_codec`] first.
    ///
    /// # Panics
    ///
    /// Panics if the slab owns per-link codec state, `count` is zero,
    /// `link` is out of range, or the image widths differ from the slab
    /// width.
    pub fn observe_run(
        &mut self,
        link: usize,
        first: &PayloadBits,
        last: &PayloadBits,
        intra_transitions: u64,
        count: u64,
    ) {
        assert!(
            self.lanes.is_none(),
            "bulk runs cannot traverse per-link codec lanes"
        );
        assert!(
            self.faults.is_none(),
            "bulk runs cannot traverse error-injected wires"
        );
        assert!(count > 0, "a flit run cannot be empty");
        assert_eq!(
            first.width(),
            self.width,
            "flit width {} does not match link width {}",
            first.width(),
            self.width
        );
        assert_eq!(last.width(), self.width, "run mixes flit widths");
        if self.flits[link] > 0 {
            self.transitions[link] += u64::from(first.transitions_to(&self.prev[link]));
        }
        self.transitions[link] += intra_transitions;
        self.prev[link].clone_used_from(last);
        self.flits[link] += count;
    }

    /// Records a *payload* flit traversing `link` through the link's
    /// persistent codec state: the plain image is encoded against the
    /// link's wire memory, the **coded** wire image is what the
    /// accumulator observes, and the receiving end's mirrored state
    /// decodes the plain image back, which is returned (re-aligned onto
    /// the full link width with the side-channel wires zeroed) for the
    /// downstream hop to carry.
    ///
    /// On a raw-wire slab this is exactly [`LinkSlab::observe`] and the
    /// flit is returned unchanged. Head flits always take
    /// [`LinkSlab::observe`]: addressing travels uncoded, on either
    /// scope, so the coded-flit set is identical across scopes.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range, the flit width differs from the
    /// slab width, or a codec lane's mirrored decode disagrees with the
    /// transmitted plain image (a codec implementation bug).
    #[must_use]
    pub fn observe_payload(&mut self, link: usize, flit: &PayloadBits) -> PayloadBits {
        let Some(lanes) = self.lanes.as_mut() else {
            // Raw wires: a glitch corrupts the image itself; the recorder
            // sees (and charges) the corrupted wire, and the downstream
            // hop carries it onward.
            let mut wire = *flit;
            if let Some(faults) = self.faults.as_mut() {
                faults.corrupt(link, &mut wire);
            }
            self.observe(link, &wire);
            return wire;
        };
        let mut wire = lanes.tx[link].encode_step(flit);
        if let Some(faults) = self.faults.as_mut() {
            // Faulty wires keep the full walk: the flip lands between the
            // tx encode and the rx decode, the decode really is corrupted
            // (and on a stateful codec the rx lane is poisoned for later
            // flits too), and detection belongs to the EDC at the
            // receiving NI — so the mirrored decode must actually run.
            faults.corrupt(link, &mut wire);
            let plain = lanes.rx[link]
                .decode_step(&wire)
                // btr-lint: allow(panic-in-hot-path, reason = "tx/rx lanes are built as a mirrored pair over the same wire width; a decode failure here is codec-lane construction corruption, not a data condition")
                .expect("mirrored decoder consumes the wire it was built for");
            self.observe(link, &wire);
            return plain.resized(self.width);
        }
        // Perfect wires: the mirrored decode provably returns the
        // transmitted plain image and leaves the rx lane equal to the tx
        // lane (delta-XOR keeps the plain image on both ends, bus-invert
        // the post-inversion wire data). Debug builds keep the full
        // decode as the per-flit oracle; release builds advance the rx
        // lane by mirroring and skip the decode — it was pure overhead.
        #[cfg(debug_assertions)]
        {
            let plain = lanes.rx[link]
                .decode_step(&wire)
                // btr-lint: allow(panic-in-hot-path, reason = "cfg(debug_assertions) oracle; its purpose is to abort loudly if the mirrored decode ever fails on perfect wires")
                .expect("mirrored decoder consumes the wire it was built for");
            debug_assert!(
                plain == flit.resized(plain.width()),
                "link {link} codec lane"
            );
            debug_assert!(
                lanes.rx[link] == lanes.tx[link],
                "link {link}: mirrored lanes diverged on perfect wires"
            );
        }
        #[cfg(not(debug_assertions))]
        lanes.rx[link].clone_from(&lanes.tx[link]);
        self.observe(link, &wire);
        flit.resized(self.width)
    }

    /// Records an uninterrupted run of *payload* flits traversing `link`
    /// through the link's persistent codec lanes in one bulk pass —
    /// exactly equivalent to calling [`LinkSlab::observe_payload`] on
    /// each flit of the run in order, without materializing any
    /// intermediate wire image: the tx lane advances through
    /// [`LinkCodecState::encode_run`], the accumulator charges the run's
    /// boundary + intra transitions, and the rx lane is mirrored from the
    /// tx lane (on perfect wires the mirrored decode provably lands
    /// there; debug builds re-derive it flit by flit as the oracle).
    ///
    /// The delivered plain images are the inputs themselves — on perfect
    /// wires the per-flit walk's decode-and-realign is the identity — so
    /// unlike [`LinkSlab::observe_payload`] nothing is returned.
    ///
    /// An empty run is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if the slab has no codec lanes (use [`LinkSlab::observe_run`])
    /// or has faults armed (a flip must land between encode and decode,
    /// so faulty wires keep the per-flit walk), if `link` is out of
    /// range, or if a flit width matches neither the data wires nor the
    /// link width.
    pub fn observe_payload_run<'a>(
        &mut self,
        link: usize,
        flits: impl IntoIterator<Item = &'a PayloadBits> + Clone,
    ) {
        let lanes = self
            .lanes
            .as_mut()
            // btr-lint: allow(panic-in-hot-path, reason = "documented `# Panics` contract: callers route raw-wire slabs to observe_run; lanes are fixed at slab construction, not a data condition")
            .expect("bulk payload runs need per-link codec lanes; use observe_run for raw wires");
        assert!(
            self.faults.is_none(),
            "bulk payload runs cannot traverse error-injected wires"
        );
        // Debug oracle: the bulk kernel must agree with the per-flit
        // walk — same wires observed, same end-of-run lane states.
        #[cfg(debug_assertions)]
        let walk = {
            let mut tx = lanes.tx[link].clone();
            let mut rx = lanes.rx[link].clone();
            let mut wires: Vec<PayloadBits> = Vec::new();
            for flit in flits.clone() {
                let wire = tx.encode_step(flit);
                // btr-lint: allow(panic-in-hot-path, reason = "cfg(debug_assertions) oracle walk; aborting loudly on divergence is its job")
                let plain = rx.decode_step(&wire).expect("mirrored decode");
                debug_assert!(plain == flit.resized(plain.width()), "link {link} lane");
                wires.push(wire);
            }
            (tx, rx, wires)
        };
        let Some(run) = lanes.tx[link].encode_run(flits) else {
            return;
        };
        #[cfg(debug_assertions)]
        {
            let (tx, rx, wires) = &walk;
            debug_assert!(&lanes.tx[link] == tx, "link {link}: bulk tx state diverges");
            debug_assert!(tx == rx, "link {link}: mirrored lanes diverged");
            // btr-lint: allow(panic-in-hot-path, reason = "cfg(debug_assertions) oracle; the run is non-empty here so the walk produced at least one wire")
            debug_assert!(run.first == wires[0] && run.last == *wires.last().unwrap());
            debug_assert!(
                run.intra
                    == wires
                        .windows(2)
                        .map(|w| u64::from(w[1].transitions_to(&w[0])))
                        .sum::<u64>(),
                "link {link}: bulk intra sum diverges from the walk"
            );
        }
        lanes.rx[link].clone_from(&lanes.tx[link]);
        let first = run.first.resized(self.width);
        let last = run.last.resized(self.width);
        if self.flits[link] > 0 {
            self.transitions[link] += u64::from(first.transitions_to(&self.prev[link]));
        }
        self.transitions[link] += run.intra;
        self.prev[link].clone_used_from(&last);
        self.flits[link] += run.count;
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

impl LatencyStats {
    /// Builds a summary from raw samples.
    #[must_use]
    pub fn from_samples(samples: &[u64]) -> Self {
        if samples.is_empty() {
            return Self {
                count: 0,
                min: 0,
                max: 0,
                mean: 0.0,
            };
        }
        let mut sum: u128 = 0;
        let mut min = u64::MAX;
        let mut max = 0u64;
        for &s in samples {
            sum += u128::from(s);
            min = min.min(s);
            max = max.max(s);
        }
        Self {
            count: samples.len() as u64,
            min,
            max,
            mean: sum as f64 / samples.len() as f64,
        }
    }
}

/// Snapshot of all simulator statistics.
#[derive(Debug, Clone)]
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

impl NocStats {
    /// Mean transitions per flit-hop.
    #[must_use]
    pub fn transitions_per_flit_hop(&self) -> f64 {
        if self.flit_hops == 0 {
            0.0
        } else {
            self.total_transitions as f64 / self.flit_hops as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_from_samples() {
        let l = LatencyStats::from_samples(&[10, 20, 30]);
        assert_eq!(l.count, 3);
        assert_eq!(l.min, 10);
        assert_eq!(l.max, 30);
        assert!((l.mean - 20.0).abs() < 1e-12);
    }

    #[test]
    fn latency_empty() {
        let l = LatencyStats::from_samples(&[]);
        assert_eq!(l.count, 0);
        assert_eq!(l.mean, 0.0);
    }

    #[test]
    fn transitions_per_hop() {
        let stats = NocStats {
            cycles: 10,
            total_transitions: 100,
            inter_router_transitions: 80,
            injection_transitions: 10,
            ejection_transitions: 10,
            flit_hops: 50,
            packets_delivered: 2,
            flits_delivered: 10,
            latency: LatencyStats::from_samples(&[]),
            per_link: Vec::new(),
        };
        assert!((stats.transitions_per_flit_hop() - 2.0).abs() < 1e-12);
    }
}
