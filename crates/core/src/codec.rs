//! Pluggable link-coding backends for the transport pipeline.
//!
//! The paper positions transmission *ordering* against classic low-power
//! link coding: bus-invert (Stan & Burleson \[14\]) and delta/XOR (after
//! Sarman et al. \[11\]). Those schemes are **not** part of the paper's
//! method ("our method is not a bus-encoding method and operates without
//! additional links", Sec. II); they are the related-work baselines the
//! ablations compare against. This module holds the one implementation
//! of those schemes, split into two halves:
//!
//! * [`CodecKind`] — the **stateless scheme**: which transform runs on the
//!   wires, how many side-channel wires it adds, and the per-packet stream
//!   conveniences ([`CodecKind::encode_stream`] /
//!   [`CodecKind::decode_stream`]) that seed a fresh state per call;
//! * [`LinkCodecState`] — the **explicit state object** (seed / step /
//!   inverse): the running wire memory a real encoder flip-flop holds.
//!   [`CodecKind::seed_state`] seeds it, [`LinkCodecState::encode_step`]
//!   advances the transmit side one flit, [`LinkCodecState::decode_step`]
//!   is the mirrored inverse on the receive side, and
//!   [`LinkCodecState::reset`] returns it to the seeded state.
//!
//! *Where* the state lives is the [`CodecScope`] axis:
//!
//! * [`CodecScope::PerPacket`] — the MC-side transport
//!   ([`crate::transport::CodedTransport`]) seeds a fresh state for every
//!   packet, so the modeled wire forgets itself at packet boundaries;
//! * [`CodecScope::PerLink`] — every directed physical link owns one
//!   persistent [`LinkCodecState`] pair that survives across packets,
//!   batches and layers (`btr_noc::stats::LinkSlab` holds them), modeling
//!   the real wires whose charge state does not reset between packets.
//!
//! A codec maps a plain payload-flit stream (all images `data_width` bits
//! wide) to the wire images actually driven onto the link, `data_width +
//! extra_wires` bits wide — bus-invert appends its invert line as one
//! extra wire above the data MSB — and decodes the wire stream back
//! losslessly.

use btr_bits::payload::PayloadBits;
use btr_bits::slab::{row_transitions, FlitSlab};

/// Which link-coding backend a transport session applies after ordering
/// and flitization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecKind {
    /// No coding: the ordered flit images are the wire images.
    #[default]
    Unencoded,
    /// Bus-invert coding (Stan & Burleson): invert a flit when that
    /// strictly reduces data-wire toggles, signaled on one extra wire.
    BusInvert,
    /// Delta/XOR coding: transmit the XOR of consecutive flits.
    DeltaXor,
}

impl CodecKind {
    /// All backends, in ablation order.
    pub const ALL: [CodecKind; 3] = [
        CodecKind::Unencoded,
        CodecKind::BusInvert,
        CodecKind::DeltaXor,
    ];

    /// Short label used in tables and JSON (`"none"`, `"bus-invert"`,
    /// `"delta-xor"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CodecKind::Unencoded => "none",
            CodecKind::BusInvert => "bus-invert",
            CodecKind::DeltaXor => "delta-xor",
        }
    }

    /// Side-channel wires the codec adds to the link beyond the data
    /// wires (the bus-invert line).
    #[must_use]
    pub fn extra_wires(self) -> u32 {
        match self {
            CodecKind::BusInvert => 1,
            CodecKind::Unencoded | CodecKind::DeltaXor => 0,
        }
    }

    /// True when the scheme carries running state between flits (so a
    /// per-link instance is observable at all): everything but the
    /// identity codec.
    #[must_use]
    pub fn is_stateful(self) -> bool {
        self != CodecKind::Unencoded
    }

    /// Seeds a fresh codec state for a link of `data_width` data wires
    /// (the state of a wire that has not carried a coded flit yet).
    ///
    /// # Panics
    ///
    /// Panics if the widened wire image would exceed
    /// [`btr_bits::payload::MAX_WIDTH_BITS`] or `data_width` is zero.
    #[must_use]
    pub fn seed_state(self, data_width: u32) -> LinkCodecState {
        LinkCodecState::new(self, data_width)
    }

    /// Encodes a plain flit stream (every image `data_width` bits) into
    /// wire images of `data_width + extra_wires` bits, in order, with
    /// **per-packet** state: a fresh [`LinkCodecState`] is seeded for the
    /// call, so the first flit re-seeds the scheme.
    ///
    /// # Panics
    ///
    /// Panics if the widened wire image would exceed
    /// [`btr_bits::payload::MAX_WIDTH_BITS`] or the stream mixes widths.
    #[must_use]
    pub fn encode_stream(self, plain: &[PayloadBits]) -> Vec<PayloadBits> {
        let Some(first) = plain.first() else {
            return Vec::new();
        };
        let mut state = self.seed_state(first.width());
        plain.iter().map(|p| state.encode_step(p)).collect()
    }

    /// Decodes a packet's wire images back into the plain flit stream of
    /// `data_width`-bit images (**per-packet** state, the inverse of
    /// [`CodecKind::encode_stream`]).
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] if a wire image's width is not
    /// `data_width + extra_wires`.
    pub fn decode_stream(
        self,
        wire: &[PayloadBits],
        data_width: u32,
    ) -> Result<Vec<PayloadBits>, CodecError> {
        let mut state = self.seed_state(data_width);
        wire.iter().map(|w| state.decode_step(w)).collect()
    }
}

impl std::fmt::Display for CodecKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for CodecKind {
    type Err = String;

    /// Parses `"none"`/`"unencoded"`, `"bus-invert"`/`"businvert"`/`"bi"`,
    /// `"delta-xor"`/`"deltaxor"`/`"xor"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" | "unencoded" => Ok(CodecKind::Unencoded),
            "bus-invert" | "businvert" | "bi" => Ok(CodecKind::BusInvert),
            "delta-xor" | "deltaxor" | "xor" => Ok(CodecKind::DeltaXor),
            other => Err(format!(
                "unknown codec {other:?}; use none|bus-invert|delta-xor"
            )),
        }
    }
}

/// Where link-codec state lives — the ownership axis of the codec stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CodecScope {
    /// Codec state is seeded fresh for every packet by the MC-side
    /// transport: the first flit of each packet re-seeds the scheme, so
    /// the modeled wire forgets itself at packet boundaries (the
    /// pre-refactor behavior, kept as the bit-exact reference).
    #[default]
    PerPacket,
    /// Every directed physical link owns one persistent
    /// [`LinkCodecState`] pair that survives across packets, batches and
    /// layers within an inference phase — the transport defers the codec
    /// to the wires and the NoC links encode/decode at traversal time.
    PerLink,
}

impl CodecScope {
    /// Both scopes, in ablation order.
    pub const ALL: [CodecScope; 2] = [CodecScope::PerPacket, CodecScope::PerLink];

    /// Short label used in tables and JSON (`"per-packet"`, `"per-link"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CodecScope::PerPacket => "per-packet",
            CodecScope::PerLink => "per-link",
        }
    }
}

impl std::fmt::Display for CodecScope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for CodecScope {
    type Err = String;

    /// Parses `"per-packet"`/`"packet"` or `"per-link"`/`"link"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "per-packet" | "perpacket" | "packet" => Ok(CodecScope::PerPacket),
            "per-link" | "perlink" | "link" => Ok(CodecScope::PerLink),
            other => Err(format!(
                "unknown codec scope {other:?}; use per-packet|per-link"
            )),
        }
    }
}

/// How per-link codec lane state is repaired when a packet is
/// retransmitted after an EDC failure.
///
/// Only meaningful for [`CodecScope::PerLink`]: a wire flip that lands in
/// a stateful decoder (delta-XOR keeps the previous *plain* image)
/// poisons the rx lane, so every later flit decodes wrong and retries
/// alone cannot converge. The resync axis decides whether the NI is
/// allowed to repair lane state at a retry boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ResyncPolicy {
    /// On every retry the NI reseeds the tx and rx lanes of all links
    /// together (a lightweight sideband "sync" pulse, as real
    /// retransmission protocols do). Lanes stay mirrored, so losslessness
    /// is preserved — only the bit-transition cost changes.
    #[default]
    ReseedOnRetry,
    /// Lane state is never reset: the decoder runs continuously across
    /// retries. Honest about what a sync-free wire can do — a sticky
    /// decoder poisoning makes the retry budget run out and surfaces as a
    /// typed unrecoverable error rather than silent corruption.
    Continuous,
}

impl ResyncPolicy {
    /// Both policies, in ablation order.
    pub const ALL: [ResyncPolicy; 2] = [ResyncPolicy::ReseedOnRetry, ResyncPolicy::Continuous];

    /// Short label used in tables and JSON (`"reseed"`, `"continuous"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ResyncPolicy::ReseedOnRetry => "reseed",
            ResyncPolicy::Continuous => "continuous",
        }
    }
}

impl std::fmt::Display for ResyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for ResyncPolicy {
    type Err = String;

    /// Parses `"reseed"`/`"reseed-on-retry"` or `"continuous"`/`"cont"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "reseed" | "reseed-on-retry" | "reseedonretry" => Ok(ResyncPolicy::ReseedOnRetry),
            "continuous" | "cont" => Ok(ResyncPolicy::Continuous),
            other => Err(format!(
                "unknown resync policy {other:?}; use reseed|continuous"
            )),
        }
    }
}

/// Errors from the decode half of a link codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// A wire image's width does not match `data_width + extra_wires`.
    WireWidth {
        /// Width of the offending wire image.
        got: u32,
        /// Expected wire width.
        want: u32,
    },
    /// A link-aligned *plain* image carried non-zero side-channel wires —
    /// it was already coded, and narrowing it would corrupt the data.
    SideChannel {
        /// Index of the offending flit in the stream.
        flit: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::WireWidth { got, want } => {
                write!(f, "wire image is {got} bits, codec expects {want}")
            }
            CodecError::SideChannel { flit } => {
                write!(
                    f,
                    "plain flit {flit} carries non-zero codec side-channel wires"
                )
            }
        }
    }
}

impl std::error::Error for CodecError {}

/// Summary of an uninterrupted wire run produced by
/// [`LinkCodecState::encode_run`]: everything a per-link transition
/// accumulator needs to charge the run in O(1) beyond the encode pass
/// itself — the boundary images and the intra-run transition sum — with
/// no intermediate wires materialized.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireRun {
    /// First wire image of the run (charged against the link's previous
    /// image at the run boundary).
    pub first: PayloadBits,
    /// Last wire image of the run (becomes the link's previous image).
    pub last: PayloadBits,
    /// Sum of bit transitions between consecutive wires *within* the run.
    pub intra: u64,
    /// Number of flits in the run.
    pub count: u64,
}

/// A plain payload run summarized once for the O(1) delta-XOR hop
/// ([`LinkCodecState::encode_delta_xor_run_onto`]), read off the packet's
/// dense rows.
///
/// Delta-XOR wires are `w_k = x_k ⊕ x_{k−1}` with `x_{−1}` the lane's
/// memory `p0`, so consecutive wires differ by `x_k ⊕ x_{k−2}`. From the
/// third flit on that no longer involves `p0`: the tail of the intra-run
/// transition sum is the same on every link the run crosses, and so is
/// the last wire `x_{n−1} ⊕ x_{n−2}`. The tail is summed here, once per
/// packet.
#[derive(Debug, Clone)]
pub struct DeltaXorRun<'a> {
    plains: &'a FlitSlab,
    /// `Σ_{k≥2} popcount(x_k ⊕ x_{k−2})`.
    tail: u64,
}

impl<'a> DeltaXorRun<'a> {
    /// Summarizes `plains` (one XOR+popcount per flit).
    ///
    /// # Panics
    ///
    /// Panics if the run is empty.
    #[must_use]
    pub fn new(plains: &'a FlitSlab) -> Self {
        assert!(!plains.is_empty(), "a delta-XOR run cannot be empty");
        Self {
            plains,
            tail: plains.lagged_transitions(2),
        }
    }

    /// The summarized plain rows.
    #[must_use]
    pub fn plains(&self) -> &'a FlitSlab {
        self.plains
    }
}

/// The running state of one link codec endpoint: the wire memory a real
/// encoder (or its mirrored decoder) holds between flits.
///
/// One instance per *directed physical link* models [`CodecScope::PerLink`]
/// (the state lives for the link's lifetime); one instance per packet —
/// what [`CodecKind::encode_stream`] seeds internally — models
/// [`CodecScope::PerPacket`].
///
/// The transmit and receive ends of a link hold separate instances that
/// evolve through the identical sequence of images, so
/// `rx.decode_step(tx.encode_step(p)) == p` for every flit, at any point
/// in the stream, with no packet-boundary reset required.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkCodecState {
    kind: CodecKind,
    data_width: u32,
    /// The wire memory, `None` until the first flit seeds it: the previous
    /// *plain* image for delta-XOR, the previous *wire data* image
    /// (post-inversion, invert line excluded) for bus-invert. Always
    /// `data_width` wide.
    prev: Option<PayloadBits>,
}

impl LinkCodecState {
    /// Seeds the state for a link of `data_width` data wires.
    ///
    /// # Panics
    ///
    /// Panics if `data_width` is zero or `data_width + extra_wires`
    /// exceeds [`btr_bits::payload::MAX_WIDTH_BITS`].
    #[must_use]
    pub fn new(kind: CodecKind, data_width: u32) -> Self {
        assert!(data_width > 0, "codec state needs at least one data wire");
        assert!(
            data_width + kind.extra_wires() <= btr_bits::payload::MAX_WIDTH_BITS,
            "wire width {} exceeds maximum {}",
            data_width + kind.extra_wires(),
            btr_bits::payload::MAX_WIDTH_BITS
        );
        Self {
            kind,
            data_width,
            prev: None,
        }
    }

    /// The scheme this state runs.
    #[must_use]
    pub fn kind(&self) -> CodecKind {
        self.kind
    }

    /// Width of the data wires.
    #[must_use]
    pub fn data_width(&self) -> u32 {
        self.data_width
    }

    /// Width of the wire images this state produces and consumes
    /// (`data_width + extra_wires`).
    #[must_use]
    pub fn wire_width(&self) -> u32 {
        self.data_width + self.kind.extra_wires()
    }

    /// True once a flit has seeded the wire memory.
    #[must_use]
    pub fn is_seeded(&self) -> bool {
        self.prev.is_some()
    }

    /// Returns the state to its seeded (packet-boundary) condition — the
    /// step a per-packet scope takes between packets and a per-link scope
    /// deliberately does not.
    pub fn reset(&mut self) {
        self.prev = None;
    }

    /// Narrows an incoming plain image to the data wires. Accepts the
    /// image at `data_width`, or at `wire_width` with zeroed side-channel
    /// wires (the NoC re-aligns narrower payload images onto the full
    /// link width at injection).
    fn data_image(&self, plain: &PayloadBits) -> PayloadBits {
        if plain.width() == self.data_width {
            *plain
        } else {
            assert_eq!(
                plain.width(),
                self.wire_width(),
                "plain image width {} matches neither the {} data wires nor the {}-bit wire",
                plain.width(),
                self.data_width,
                self.wire_width()
            );
            // A set side-channel wire here means the caller handed us an
            // already-coded wire image (e.g. a per-packet-coded stream
            // routed onto per-link coded wires); truncating it would
            // silently corrupt the data, so fail loudly instead.
            assert_eq!(
                plain.field(self.data_width, self.wire_width() - self.data_width),
                0,
                "plain image carries non-zero codec side-channel wires"
            );
            plain.resized(self.data_width)
        }
    }

    /// Advances the transmit side one flit: encodes `plain` against the
    /// wire memory and returns the `wire_width` image actually driven
    /// onto the link.
    ///
    /// # Panics
    ///
    /// Panics if `plain` is neither `data_width` nor `wire_width` bits
    /// wide (the latter with zeroed side-channel wires).
    #[must_use]
    pub fn encode_step(&mut self, plain: &PayloadBits) -> PayloadBits {
        let data = self.data_image(plain);
        match self.kind {
            CodecKind::Unencoded => data,
            CodecKind::DeltaXor => {
                let wire = match &self.prev {
                    None => data,
                    Some(prev) => data.xor(prev),
                };
                self.prev = Some(data);
                wire
            }
            CodecKind::BusInvert => {
                // Invert exactly when that strictly reduces data-wire
                // toggles against the previous wire image. Inverting every
                // data wire flips every toggle, so the inverted image's
                // distance is `data_width - t` — one XOR+popcount pass
                // decides, and the inversion is materialized only when
                // it wins.
                let (wire_data, invert) = match &self.prev {
                    None => (data, false),
                    Some(prev) => {
                        let t = data.transitions_to(prev);
                        if self.data_width - t < t {
                            (data.invert(), true)
                        } else {
                            (data, false)
                        }
                    }
                };
                self.prev = Some(wire_data);
                let mut wire = wire_data.resized(self.data_width + 1);
                wire.set_field(self.data_width, 1, u64::from(invert));
                wire
            }
        }
    }

    /// [`LinkCodecState::encode_step`] written onto `wire`, the link's
    /// last wire image, in place: `wire` becomes the new wire image and
    /// the return value is the number of wires that toggled. A delta-XOR
    /// lane whose plain images fill the wire runs one pass over the used
    /// words with no intermediate image; other lanes encode a step and
    /// copy the used words over.
    ///
    /// # Panics
    ///
    /// Panics under the width conditions of
    /// [`LinkCodecState::encode_step`], or if `wire` is not
    /// [`LinkCodecState::wire_width`] bits wide.
    pub fn encode_step_onto(&mut self, plain: &PayloadBits, wire: &mut PayloadBits) -> u32 {
        if let (CodecKind::DeltaXor, Some(prev)) = (self.kind, self.prev.as_mut()) {
            if plain.width() == self.data_width {
                let toggled = wire.replace_with_xor(plain, prev);
                prev.clone_used_from(plain);
                return toggled;
            }
        }
        let next = self.encode_step(plain);
        let toggled = next.transitions_to(wire);
        wire.clone_used_from(&next);
        toggled
    }

    /// [`LinkCodecState::encode_run`] written onto `wire`, the link's last
    /// wire image, in place: `wire` ends on the run's last wire image,
    /// and the return value is `(boundary, intra, count)` — the wires that
    /// toggled from `wire`'s old image to the run's first wire, the
    /// intra-run transition sum and the flit count. A seeded delta-XOR
    /// lane whose plain images fill the wire reads the run by reference
    /// and stores only the two images it must; other lanes go through
    /// [`LinkCodecState::encode_run`]. `None` for an empty run (nothing
    /// changes).
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`LinkCodecState::encode_run`], or
    /// if `wire` is not [`LinkCodecState::wire_width`] bits wide.
    pub fn encode_run_onto<'a>(
        &mut self,
        plains: impl IntoIterator<Item = &'a PayloadBits>,
        wire: &mut PayloadBits,
    ) -> Option<(u32, u64, u64)> {
        let mut plains = plains.into_iter();
        let first = plains.next()?;
        if let (CodecKind::DeltaXor, Some(p0)) = (self.kind, &self.prev) {
            if first.width() == self.data_width {
                // The delta-XOR telescope of `encode_run`, with the wire
                // register as the only image written besides the lane.
                let boundary = wire.replace_with_xor(first, p0);
                let (mut intra, mut count) = (0u64, 1u64);
                let (mut back2, mut back1, mut last) = (p0, first, first);
                for plain in plains {
                    self.expect_data_width(plain);
                    intra += u64::from(plain.transitions_to(back2));
                    (back2, back1, last) = (back1, plain, plain);
                    count += 1;
                }
                wire.replace_with_xor(back1, back2);
                if let Some(prev) = &mut self.prev {
                    prev.clone_used_from(last);
                }
                return Some((boundary, intra, count));
            }
        }
        let run = self.encode_run(std::iter::once(first).chain(plains))?;
        let boundary = run.first.transitions_to(wire);
        wire.clone_used_from(&run.last);
        Some((boundary, run.intra, run.count))
    }

    /// Copies `other`'s wire memory into this state over the used words —
    /// how a receive lane follows its transmit lane on perfect wires,
    /// where the mirrored decode provably lands on the same state.
    pub fn mirror_from(&mut self, other: &LinkCodecState) {
        debug_assert!(
            self.kind == other.kind && self.data_width == other.data_width,
            "mirrored lanes run one codec over one width"
        );
        match (self.prev.as_mut(), other.prev.as_ref()) {
            (Some(mine), Some(theirs)) => mine.clone_used_from(theirs),
            _ => self.prev = other.prev,
        }
    }

    /// Advances the transmit side over a whole uninterrupted run of plain
    /// flits in one pass — the word-parallel bulk kernel behind the
    /// analytic engine's per-link fast path. The state ends exactly where
    /// flit-by-flit [`LinkCodecState::encode_step`] calls would, and the
    /// returned [`WireRun`] summarizes the wire stream (first image, last
    /// image, intra-run transition sum) without materializing the
    /// intermediate wires:
    ///
    /// * **Delta-XOR telescopes.** With lane memory `p` and plains
    ///   `x1..xn`, the wires are `x1⊕p, x2⊕x1, …`, so consecutive wires
    ///   differ by the *second difference* `w_k ⊕ w_{k-1} = x_k ⊕ x_{k-2}`
    ///   (with `x0 = p`) — one XOR+popcount per flit, and the end-of-run
    ///   lane state is just the last plain image.
    /// * **Bus-invert keeps its sequential invert decision** but runs
    ///   branch-light: the decision popcount `t` *is* the data-wire
    ///   transition count (`data_width − t` when the inversion wins), so
    ///   the intra sum needs no second pass, and the inverted image is
    ///   materialized only when it wins.
    /// * **Unencoded degenerates** to a raw-wire run: wires are the
    ///   plains.
    ///
    /// Returns `None` for an empty run (the state is untouched).
    ///
    /// # Panics
    ///
    /// Panics under the same width conditions as
    /// [`LinkCodecState::encode_step`], or if the run mixes widths.
    pub fn encode_run<'a>(
        &mut self,
        plains: impl IntoIterator<Item = &'a PayloadBits>,
    ) -> Option<WireRun> {
        let mut plains = plains.into_iter();
        let first = plains.next()?;
        match self.kind {
            CodecKind::Unencoded => {
                // Wires are the plains; the steady state is pure
                // XOR+popcount over borrowed images, no copies at all.
                self.expect_data_width(first);
                let mut intra = 0u64;
                let mut last = first;
                let mut count = 1u64;
                for plain in plains {
                    self.expect_data_width(plain);
                    intra += u64::from(plain.transitions_to(last));
                    last = plain;
                    count += 1;
                }
                Some(WireRun {
                    first: *first,
                    last: *last,
                    intra,
                    count,
                })
            }
            CodecKind::DeltaXor => {
                // `prev = None` is indistinguishable from `prev = zero`
                // for delta-XOR (`x ⊕ 0 = x`), which closes the telescope:
                // every wire-boundary XOR is a second difference of the
                // plain stream extended by the lane memory. The sliding
                // pair (x_{k-2}, x_{k-1}) is held by reference — the
                // steady state copies nothing.
                self.expect_data_width(first);
                let p0 = self
                    .prev
                    .unwrap_or_else(|| PayloadBits::zero(self.data_width));
                let first_wire = first.xor(&p0);
                let mut intra = 0u64;
                let mut count = 1u64;
                let (mut back2, mut back1): (&PayloadBits, &PayloadBits) = (&p0, first);
                for plain in plains {
                    self.expect_data_width(plain);
                    intra += u64::from(plain.transitions_to(back2));
                    (back2, back1) = (back1, plain);
                    count += 1;
                }
                self.prev = Some(*back1);
                Some(WireRun {
                    first: first_wire,
                    last: back1.xor(back2),
                    intra,
                    count,
                })
            }
            CodecKind::BusInvert => {
                let wire_of = |wire_data: &PayloadBits, invert: bool| {
                    let mut wire = wire_data.resized(self.data_width + 1);
                    wire.set_field(self.data_width, 1, u64::from(invert));
                    wire
                };
                // Seed step: against no memory the first flit travels
                // uninverted; against memory it takes the normal decision.
                let first_data = self.data_image(first);
                let (wire_data, mut invert) = match &self.prev {
                    None => (first_data, false),
                    Some(prev) => {
                        let t = first_data.transitions_to(prev);
                        if self.data_width - t < t {
                            (first_data.invert(), true)
                        } else {
                            (first_data, false)
                        }
                    }
                };
                let first_wire = wire_of(&wire_data, invert);
                let mut intra = 0u64;
                let mut count = 1u64;
                // The previous wire-data image is a borrow of the input
                // flit whenever the flit travels uninverted at data
                // width; `owned` holds it only when an inversion (or a
                // link-width narrowing) materialized a new image.
                let mut owned = wire_data;
                let mut prev_input: Option<&PayloadBits> = None;
                for plain in plains {
                    let prev = prev_input.unwrap_or(&owned);
                    // `t` doubles as the data-wire transition count: the
                    // codec transmits the side that toggles fewer wires,
                    // so the intra sum is `min`-selected from the same
                    // XOR+popcount that decides the inversion.
                    if plain.width() == self.data_width {
                        let t = plain.transitions_to(prev);
                        let next_invert = self.data_width - t < t;
                        intra += u64::from(if next_invert { self.data_width - t } else { t })
                            + u64::from(next_invert != invert);
                        if next_invert {
                            owned = plain.invert();
                            prev_input = None;
                        } else {
                            prev_input = Some(plain);
                        }
                        invert = next_invert;
                    } else {
                        let data = self.data_image(plain);
                        let t = data.transitions_to(prev);
                        let next_invert = self.data_width - t < t;
                        intra += u64::from(if next_invert { self.data_width - t } else { t })
                            + u64::from(next_invert != invert);
                        owned = if next_invert { data.invert() } else { data };
                        prev_input = None;
                        invert = next_invert;
                    }
                    count += 1;
                }
                let last_data = match prev_input {
                    Some(p) => *p,
                    None => owned,
                };
                let last = wire_of(&last_data, invert);
                self.prev = Some(last_data);
                Some(WireRun {
                    first: first_wire,
                    last,
                    intra,
                    count,
                })
            }
        }
    }

    /// A delta-XOR run summarized by [`DeltaXorRun::new`] driven onto a
    /// link right after `head`, in O(words) instead of one pass per flit:
    /// the lane ends where [`LinkCodecState::encode_run`] over the run's
    /// rows leaves it, `wire` (the link's wire register) ends on the
    /// run's last wire, and the return value is the transitions of the
    /// wire sequence `head, w_0, …, w_{n−1}`. Only the first wire
    /// `x0 ⊕ p0` and the second boundary `popcount(x1 ⊕ p0)` depend on
    /// the lane memory `p0`; the rest of the run was summed once per
    /// packet.
    ///
    /// # Panics
    ///
    /// Panics if the state is not delta-XOR, or the run, `head` or
    /// `wire` is not `data_width` wide.
    pub fn encode_delta_xor_run_onto(
        &mut self,
        run: &DeltaXorRun<'_>,
        head: &PayloadBits,
        wire: &mut PayloadBits,
    ) -> u64 {
        assert_eq!(
            self.kind,
            CodecKind::DeltaXor,
            "the O(1) run is the delta-XOR telescope"
        );
        let (width, rows) = (self.data_width, run.plains);
        assert!(
            rows.width() == width && head.width() == width,
            "run or head width does not match the {width} data wires"
        );
        let (x0, n) = (rows.flit(0), rows.len());
        // An unseeded lane is a zero memory (`x ⊕ 0 = x`).
        const ZERO_ROW: [u64; (btr_bits::payload::MAX_WIDTH_BITS / 64) as usize] =
            [0; (btr_bits::payload::MAX_WIDTH_BITS / 64) as usize];
        let p0 = match &self.prev {
            Some(prev) => prev.used_words(),
            None => &ZERO_ROW[..x0.len()],
        };
        // The first wire `x0 ⊕ p0` against the head, then `x1 ⊕ p0`.
        let mut toggled = head
            .used_words()
            .iter()
            .zip(x0)
            .zip(p0)
            .map(|((h, x), p)| (h ^ x ^ p).count_ones())
            .sum::<u32>();
        if n >= 2 {
            toggled += row_transitions(rows.flit(1), p0);
            wire.replace_with_row_xor(width, rows.flit(n - 1), rows.flit(n - 2));
        } else {
            wire.replace_with_row_xor(width, x0, p0);
        }
        let last = rows.flit(n - 1);
        match &mut self.prev {
            Some(prev) => prev.assign_row(width, last),
            None => self.prev = Some(PayloadBits::from_row(width, last)),
        }
        u64::from(toggled) + run.tail
    }

    /// Width check for the equal-width run kernels (unencoded and
    /// delta-XOR have `wire_width == data_width`, so [`Self::data_image`]
    /// is the identity and the kernels can borrow the inputs directly).
    fn expect_data_width(&self, plain: &PayloadBits) {
        assert_eq!(
            plain.width(),
            self.data_width,
            "plain image width {} does not match the {} data wires",
            plain.width(),
            self.data_width
        );
    }

    /// The intra-run wire transition sum [`LinkCodecState::encode_run`]
    /// would report for `plains` from the current state, without
    /// advancing it — the pure counting form of the bulk kernel (what a
    /// BT-only evaluation of a run costs: one XOR+popcount per flit, no
    /// materialized wires at all).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LinkCodecState::encode_run`].
    #[must_use]
    pub fn transitions_of_run<'a>(&self, plains: impl IntoIterator<Item = &'a PayloadBits>) -> u64 {
        let mut probe = self.clone();
        probe.encode_run(plains).map_or(0, |run| run.intra)
    }

    /// Advances the receive side one flit: decodes a `wire_width` image
    /// against the mirrored wire memory and returns the `data_width`
    /// plain image.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError::WireWidth`] if `wire` is not `wire_width`
    /// bits wide.
    pub fn decode_step(&mut self, wire: &PayloadBits) -> Result<PayloadBits, CodecError> {
        if wire.width() != self.wire_width() {
            return Err(CodecError::WireWidth {
                got: wire.width(),
                want: self.wire_width(),
            });
        }
        Ok(match self.kind {
            CodecKind::Unencoded => *wire,
            CodecKind::DeltaXor => {
                let plain = match &self.prev {
                    None => *wire,
                    Some(prev) => wire.xor(prev),
                };
                self.prev = Some(plain);
                plain
            }
            CodecKind::BusInvert => {
                let wire_data = wire.resized(self.data_width);
                let invert = wire.bit(self.data_width);
                self.prev = Some(wire_data);
                if invert {
                    wire_data.invert()
                } else {
                    wire_data
                }
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_bits::transition::stream_transitions;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_stream(n: usize, width: u32, seed: u64) -> Vec<PayloadBits> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut p = PayloadBits::zero(width);
                for w in 0..width.div_ceil(64) {
                    let len = 64.min(width - w * 64);
                    p.set_field(w * 64, len, rng.gen());
                }
                p
            })
            .collect()
    }

    #[test]
    fn all_codecs_round_trip() {
        for kind in CodecKind::ALL {
            for (n, width, seed) in [(1usize, 8u32, 1u64), (7, 64, 2), (40, 128, 3), (13, 96, 4)] {
                let stream = random_stream(n, width, seed);
                let wire = kind.encode_stream(&stream);
                assert_eq!(wire.len(), stream.len());
                for w in &wire {
                    assert_eq!(w.width(), width + kind.extra_wires());
                }
                let back = kind.decode_stream(&wire, width).unwrap();
                assert_eq!(back, stream, "{kind} n={n} w={width}");
            }
        }
    }

    #[test]
    fn empty_streams_encode_and_decode() {
        for kind in CodecKind::ALL {
            assert!(kind.encode_stream(&[]).is_empty());
            assert!(kind.decode_stream(&[], 64).unwrap().is_empty());
        }
    }

    #[test]
    fn decode_rejects_wrong_wire_width() {
        let stream = random_stream(4, 64, 9);
        for kind in CodecKind::ALL {
            let wire = kind.encode_stream(&stream);
            let err = kind.decode_stream(&wire, 32).unwrap_err();
            assert!(matches!(err, CodecError::WireWidth { .. }));
            assert!(err.to_string().contains("codec expects"));
        }
    }

    #[test]
    fn state_steps_match_the_stream_functions() {
        // encode_stream/decode_stream are exactly a fresh state folded
        // over the packet — the per-packet scope in state-object form.
        for kind in CodecKind::ALL {
            let stream = random_stream(23, 96, 17);
            let mut tx = kind.seed_state(96);
            let stepped: Vec<PayloadBits> = stream.iter().map(|p| tx.encode_step(p)).collect();
            assert_eq!(stepped, kind.encode_stream(&stream), "{kind}");
            let mut rx = kind.seed_state(96);
            let decoded: Vec<PayloadBits> =
                stepped.iter().map(|w| rx.decode_step(w).unwrap()).collect();
            assert_eq!(decoded, stream, "{kind}");
        }
    }

    #[test]
    fn persistent_state_survives_packet_boundaries() {
        // A tx/rx pair fed multiple packets without reset stays lossless
        // (the per-link scope), and reset() restores per-packet behavior.
        for kind in CodecKind::ALL {
            let packets: Vec<Vec<PayloadBits>> = (0..5)
                .map(|i| random_stream(4 + i, 64, 100 + i as u64))
                .collect();
            let mut tx = kind.seed_state(64);
            let mut rx = kind.seed_state(64);
            for packet in &packets {
                for plain in packet {
                    let wire = tx.encode_step(plain);
                    assert_eq!(&rx.decode_step(&wire).unwrap(), plain, "{kind}");
                }
            }
            assert_eq!(tx.is_seeded(), kind.is_stateful());
            // Resetting both ends at every boundary reproduces the
            // per-packet stream encode exactly.
            let mut tx = kind.seed_state(64);
            for packet in &packets {
                tx.reset();
                let stepped: Vec<PayloadBits> = packet.iter().map(|p| tx.encode_step(p)).collect();
                assert_eq!(stepped, kind.encode_stream(packet), "{kind}");
            }
        }
    }

    #[test]
    fn encode_run_matches_step_loop() {
        // The bulk kernel must be indistinguishable from flit-by-flit
        // encode_step: same wire boundaries, same intra transition sum,
        // same end-of-run state — from a fresh lane and mid-stream.
        for kind in CodecKind::ALL {
            for (n, width, seed) in [(1usize, 8u32, 1u64), (2, 64, 2), (9, 96, 3), (32, 128, 4)] {
                for warmup in [0usize, 3] {
                    let history = random_stream(warmup, width, seed + 100);
                    let stream = random_stream(n, width, seed);
                    let mut stepped = kind.seed_state(width);
                    for p in &history {
                        let _ = stepped.encode_step(p);
                    }
                    let mut bulk = stepped.clone();
                    let wires: Vec<PayloadBits> =
                        stream.iter().map(|p| stepped.encode_step(p)).collect();
                    let intra = stream_transitions(&wires);
                    assert_eq!(bulk.transitions_of_run(&stream), intra, "{kind}");
                    let run = bulk.encode_run(&stream).unwrap();
                    assert_eq!(run.first, wires[0], "{kind} n={n} warmup={warmup}");
                    assert_eq!(run.last, *wires.last().unwrap(), "{kind}");
                    assert_eq!(run.intra, intra, "{kind} n={n} warmup={warmup}");
                    assert_eq!(run.count, n as u64);
                    assert_eq!(bulk, stepped, "{kind}: end-of-run state diverges");
                }
            }
        }
    }

    #[test]
    fn delta_xor_summarized_run_matches_encode_run() {
        for n in 1..=6usize {
            for warmup in [0usize, 2] {
                let history = random_stream(warmup, 96, n as u64 + 50);
                let stream = random_stream(n, 96, n as u64);
                let mut bulk = CodecKind::DeltaXor.seed_state(96);
                for p in &history {
                    let _ = bulk.encode_step(p);
                }
                let mut summarized = bulk.clone();
                let head = random_stream(1, 96, n as u64 + 90)[0];
                let want = bulk.encode_run(&stream).unwrap();
                let rows = FlitSlab::from_images(96, &stream);
                let mut wire = PayloadBits::zero(96);
                let got = summarized.encode_delta_xor_run_onto(
                    &DeltaXorRun::new(&rows),
                    &head,
                    &mut wire,
                );
                let ctx = format!("n={n} warmup={warmup}");
                assert_eq!(
                    got,
                    u64::from(want.first.transitions_to(&head)) + want.intra,
                    "{ctx}"
                );
                assert_eq!(wire, want.last, "{ctx}: last wire");
                assert_eq!(summarized, bulk, "{ctx}: end state");
            }
        }
    }

    #[test]
    fn in_place_step_matches_encode_step() {
        // The in-place hop leaves the lane, the wire register and the
        // toggle count exactly where encode_step plus a Hamming distance
        // does, and a mirrored lane follows it.
        for kind in CodecKind::ALL {
            let stream = random_stream(5, 128, 21);
            let mut stepped = kind.seed_state(128);
            let mut in_place = kind.seed_state(128);
            let mut mirror = kind.seed_state(128);
            let mut wire = PayloadBits::zero(stepped.wire_width());
            for plain in &stream {
                let next = stepped.encode_step(plain);
                let want = next.transitions_to(&wire);
                assert_eq!(in_place.encode_step_onto(plain, &mut wire), want, "{kind}");
                assert_eq!(wire, next, "{kind}");
                assert_eq!(in_place, stepped, "{kind}");
                mirror.mirror_from(&in_place);
                assert_eq!(mirror, in_place, "{kind}");
            }
        }
    }

    #[test]
    fn in_place_run_matches_encode_run() {
        // Seeded and unseeded lanes, runs of one to five flits: the wire
        // register ends on the run's last wire, the boundary is charged
        // against its old image, and the lane lands where encode_run's.
        for kind in CodecKind::ALL {
            for n in 1..=5usize {
                for seeded in [false, true] {
                    let stream = random_stream(n + 1, 128, 40 + n as u64);
                    let mut bulk = kind.seed_state(128);
                    if seeded {
                        let _ = bulk.encode_step(&stream[0]);
                    }
                    let mut onto = bulk.clone();
                    let run = bulk.encode_run(&stream[1..]).unwrap();
                    let old = random_stream(1, bulk.wire_width(), 9).remove(0);
                    let mut wire = old;
                    let got = onto.encode_run_onto(&stream[1..], &mut wire).unwrap();
                    let want = (run.first.transitions_to(&old), run.intra, run.count);
                    assert_eq!(got, want, "{kind} n={n} seeded={seeded}");
                    assert_eq!(wire, run.last, "{kind}");
                    assert_eq!(onto, bulk, "{kind}");
                }
            }
        }
    }

    #[test]
    fn encode_run_empty_is_identity() {
        for kind in CodecKind::ALL {
            let mut state = kind.seed_state(64);
            let _ = state.encode_step(&random_stream(1, 64, 7)[0]);
            let before = state.clone();
            assert!(state.encode_run(std::iter::empty()).is_none());
            assert_eq!(state, before);
            assert_eq!(state.transitions_of_run(std::iter::empty()), 0);
        }
    }

    #[test]
    fn encode_accepts_link_aligned_plain_images() {
        // The NoC re-aligns narrower payload images onto the full link
        // width; the state must accept the wire-width image with zeroed
        // side-channel wires and produce the identical wire.
        let stream = random_stream(9, 64, 33);
        let mut narrow = CodecKind::BusInvert.seed_state(64);
        let mut wide = CodecKind::BusInvert.seed_state(64);
        for plain in &stream {
            let aligned = plain.resized(65);
            assert_eq!(narrow.encode_step(plain), wide.encode_step(&aligned));
        }
    }

    #[test]
    fn bus_invert_wire_collapses_alternating_stream() {
        // Alternating all-zero / all-one flits: the coded data wires never
        // toggle, only the invert line does.
        let stream: Vec<PayloadBits> = (0..10)
            .map(|i| {
                let p = PayloadBits::zero(64);
                if i % 2 == 0 {
                    p
                } else {
                    p.invert()
                }
            })
            .collect();
        let wire = CodecKind::BusInvert.encode_stream(&stream);
        assert_eq!(
            stream_transitions(&wire),
            9,
            "one invert-line toggle per boundary"
        );
        assert_eq!(
            CodecKind::BusInvert.decode_stream(&wire, 64).unwrap(),
            stream
        );
    }

    #[test]
    fn delta_xor_wins_on_slowly_varying_stream() {
        // Counter-like stream: consecutive flits differ in few bits, so the
        // XOR images are near-zero and wire transitions collapse.
        let stream: Vec<PayloadBits> = (0..100u64)
            .map(|i| {
                let mut p = PayloadBits::zero(64);
                p.set_field(0, 64, i);
                p
            })
            .collect();
        let raw = stream_transitions(&stream);
        let delta = stream_transitions(&CodecKind::DeltaXor.encode_stream(&stream));
        assert!(delta < raw, "delta {delta} vs raw {raw}");
    }

    #[test]
    fn kind_parses_and_prints() {
        for kind in CodecKind::ALL {
            assert_eq!(kind.label().parse::<CodecKind>(), Ok(kind));
        }
        assert_eq!("bi".parse::<CodecKind>(), Ok(CodecKind::BusInvert));
        assert_eq!("xor".parse::<CodecKind>(), Ok(CodecKind::DeltaXor));
        assert_eq!("unencoded".parse::<CodecKind>(), Ok(CodecKind::Unencoded));
        assert!("hamming".parse::<CodecKind>().is_err());
        assert_eq!(CodecKind::default(), CodecKind::Unencoded);
        assert_eq!(CodecKind::BusInvert.to_string(), "bus-invert");
    }

    #[test]
    fn scope_parses_and_prints() {
        for scope in CodecScope::ALL {
            assert_eq!(scope.label().parse::<CodecScope>(), Ok(scope));
        }
        assert_eq!("link".parse::<CodecScope>(), Ok(CodecScope::PerLink));
        assert_eq!("packet".parse::<CodecScope>(), Ok(CodecScope::PerPacket));
        assert!("per-flit".parse::<CodecScope>().is_err());
        assert_eq!(CodecScope::default(), CodecScope::PerPacket);
        assert_eq!(CodecScope::PerLink.to_string(), "per-link");
    }
}
