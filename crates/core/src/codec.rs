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
//!   wires and how many side-channel wires it adds;
//! * [`LinkCodecState`] — the **explicit state object** (seed / step /
//!   inverse): the running wire memory a real encoder flip-flop holds.
//!   [`CodecKind::seed_state`] seeds it,
//!   [`LinkCodecState::encode_row_onto`] advances the transmit side one
//!   flit, [`LinkCodecState::decode_row`] is the mirrored inverse on the
//!   receive side, and [`LinkCodecState::reset`] returns it to the seeded
//!   state. The steps run on dense link-aligned `u64` rows;
//!   [`LinkCodecState::encode_rows_onto`] advances over a whole run.
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
use btr_bits::slab::{row_transitions, FlitRows, FlitSlab, MAX_ROW_WORDS};

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

    /// The summary of `plains` whose tail sum [`DeltaXorRun::tail`] was
    /// taken before, without another pass over the rows.
    ///
    /// # Panics
    ///
    /// Panics if the run is empty; debug builds also check the tail.
    #[must_use]
    pub fn with_tail(plains: &'a FlitSlab, tail: u64) -> Self {
        assert!(!plains.is_empty(), "a delta-XOR run cannot be empty");
        debug_assert_eq!(tail, plains.lagged_transitions(2), "stale delta-XOR tail");
        Self { plains, tail }
    }

    /// The summarized plain rows.
    #[must_use]
    pub fn plains(&self) -> &'a FlitSlab {
        self.plains
    }

    /// `Σ_{k≥2} popcount(x_k ⊕ x_{k−2})`, the link-independent part.
    #[must_use]
    pub fn tail(&self) -> u64 {
        self.tail
    }
}

/// The running state of one link codec endpoint: the wire memory a real
/// encoder (or its mirrored decoder) holds between flits.
///
/// One instance per *directed physical link* models [`CodecScope::PerLink`]
/// (the state lives for the link's lifetime); one instance per packet
/// models [`CodecScope::PerPacket`].
///
/// The transmit and receive ends of a link hold separate instances that
/// evolve through the identical sequence of rows: decoding with
/// [`LinkCodecState::decode_row`] what [`LinkCodecState::encode_row_onto`]
/// drove returns the plain row for every flit, at any point in the
/// stream, with no packet-boundary reset required.
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

    /// Words of a `data_width` row.
    fn data_words(&self) -> usize {
        self.data_width.div_ceil(64) as usize
    }

    /// Words of a `wire_width` row.
    fn wire_words(&self) -> usize {
        self.wire_width().div_ceil(64) as usize
    }

    /// The data wires of a link-aligned plain row: its leading
    /// `data_width` words.
    ///
    /// # Panics
    ///
    /// Panics if `plain` is not the words `wire_width` covers, or a
    /// side-channel wire is set — an already-coded wire row routed onto
    /// coded wires, which truncating would silently corrupt.
    #[inline]
    fn data_row<'r>(&self, plain: &'r [u64]) -> &'r [u64] {
        assert_eq!(
            plain.len(),
            self.wire_words(),
            "a {}-bit lane encodes {}-word rows",
            self.wire_width(),
            self.wire_words()
        );
        assert!(
            self.kind.extra_wires() == 0 || !row_bit(plain, self.data_width),
            "plain row carries non-zero codec side-channel wires"
        );
        &plain[..self.data_words()]
    }

    /// Sets the wire memory to the `data_width` row `row`.
    fn remember(&mut self, row: &[u64]) {
        match &mut self.prev {
            Some(prev) => prev.assign_row(self.data_width, row),
            None => self.prev = Some(PayloadBits::from_row(self.data_width, row)),
        }
    }

    /// Advances the transmit side one flit on dense rows, written onto
    /// `wire`, the link's last wire row, in place: `plain` is the flit's
    /// link-aligned plain row (`wire_width` words, side-channel wires
    /// zero), `wire` becomes the new wire row, and the return value is
    /// the number of wires that toggled. No image is built: a delta-XOR
    /// or unencoded step is one XOR+popcount pass over the words, a
    /// bus-invert step two.
    ///
    /// # Panics
    ///
    /// Panics if `plain` or `wire` is not the words `wire_width` covers,
    /// or a side-channel wire of `plain` is set.
    pub fn encode_row_onto(&mut self, plain: &[u64], wire: &mut [u64]) -> u32 {
        let plain = self.data_row(plain);
        let (width, words) = (self.data_width, plain.len());
        assert_eq!(wire.len(), self.wire_words(), "wire row length");
        match (self.kind, &self.prev) {
            (CodecKind::DeltaXor, Some(prev)) => {
                let toggled = xor_rows_onto(wire, plain, prev.used_words());
                self.remember(plain);
                toggled
            }
            (CodecKind::BusInvert, Some(prev)) => {
                // Invert exactly when that strictly reduces data-wire
                // toggles against the previous wire data. Inverting every
                // data wire flips every toggle, so the inverted row's
                // distance is `data_width - t`: one XOR+popcount pass
                // decides.
                let t = row_transitions(plain, prev.used_words());
                if width - t < t {
                    let mut inverted = [0u64; MAX_ROW_WORDS];
                    let inverted = invert_row(plain, width, &mut inverted[..words]);
                    self.remember(inverted);
                    bus_invert_wire_onto(wire, inverted, width, true)
                } else {
                    self.remember(plain);
                    bus_invert_wire_onto(wire, plain, width, false)
                }
            }
            // Unencoded wires carry the plain row; an unseeded lane sends
            // its first flit verbatim (bus-invert uninverted) and seeds
            // the memory with it.
            (CodecKind::Unencoded, _) => copy_row_onto(wire, plain),
            (CodecKind::DeltaXor, None) => {
                self.remember(plain);
                copy_row_onto(wire, plain)
            }
            (CodecKind::BusInvert, None) => {
                self.remember(plain);
                bus_invert_wire_onto(wire, plain, width, false)
            }
        }
    }

    /// Advances the transmit side over a whole uninterrupted run of
    /// link-aligned plain rows, written onto `wire`, the link's last wire
    /// row, in place: the lane ends where [`LinkCodecState::encode_row_onto`]
    /// on each row would leave it, `wire` ends on the run's last wire
    /// row, and the return value is `(boundary, intra, count)` — the wires
    /// that toggled from `wire`'s old row to the run's first wire, the
    /// intra-run transition sum and the flit count. `None` for an empty
    /// run (nothing changes).
    ///
    /// The first flit is a row step; the rest write no wire:
    ///
    /// * **Delta-XOR telescopes.** Wires are `w_k = x_k ⊕ x_{k−1}`, so
    ///   consecutive wires differ by the second difference
    ///   `x_k ⊕ x_{k−2}` (`x1 ⊕ x0 ⊕ w0` for the second flit): one
    ///   XOR+popcount per flit over the borrowed rows, a single pass over
    ///   the words when the rows are stored densely.
    /// * **Bus-invert keeps its sequential invert decision**, but the
    ///   decision popcount `t` *is* the data-wire transition count
    ///   (`data_width − t` when the inversion wins), so the intra sum
    ///   needs no wire, and `t` follows from the plain rows and the
    ///   previous invert bit alone.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`LinkCodecState::encode_row_onto`].
    pub fn encode_rows_onto(
        &mut self,
        plains: &(impl FlitRows + ?Sized),
        wire: &mut [u64],
    ) -> Option<(u32, u64, u64)> {
        let n = plains.flit_count();
        if n == 0 {
            return None;
        }
        let boundary = self.encode_row_onto(plains.row(0), wire);
        let (width, words) = (self.data_width, self.data_words());
        let mut intra = 0u64;
        match self.kind {
            CodecKind::Unencoded => {
                for i in 1..n {
                    intra += u64::from(self.encode_row_onto(plains.row(i), wire));
                }
            }
            CodecKind::DeltaXor if n >= 2 => {
                let x = |i: usize| self.data_row(plains.row(i));
                let (x0, x1) = (x(0), x(1));
                intra += wire
                    .iter()
                    .zip(x0)
                    .zip(x1)
                    .map(|((w, a), b)| u64::from((w ^ a ^ b).count_ones()))
                    .sum::<u64>();
                intra += match plains.dense(words) {
                    Some(flat) => flat[2 * words..]
                        .iter()
                        .zip(flat)
                        .map(|(a, b)| u64::from((a ^ b).count_ones()))
                        .sum::<u64>(),
                    None => (2..n)
                        .map(|i| u64::from(row_transitions(x(i), x(i - 2))))
                        .sum(),
                };
                let (last, before) = (x(n - 1), x(n - 2));
                for ((w, a), b) in wire.iter_mut().zip(last).zip(before) {
                    *w = a ^ b;
                }
                self.remember(last);
            }
            CodecKind::BusInvert if n >= 2 => {
                // The wire data of flit `k − 1` is its plain row, inverted
                // when its invert line is set, so the decision popcount
                // against it is `d` or `data_width − d` for
                // `d = popcount(x_k ⊕ x_{k−1})`: the popcounts read only
                // the input rows, and the flit-to-flit dependency is the
                // one invert bit.
                let x = |i: usize| self.data_row(plains.row(i));
                let (mut last, mut invert) = (x(0), row_bit(wire, width));
                for i in 1..n {
                    let plain = x(i);
                    let d = row_transitions(plain, last);
                    let t = if invert { width - d } else { d };
                    let next = width - t < t;
                    intra += u64::from(t.min(width - t)) + u64::from(next != invert);
                    (last, invert) = (plain, next);
                }
                let mut data = [0u64; MAX_ROW_WORDS];
                let data = if invert {
                    invert_row(last, width, &mut data[..words])
                } else {
                    last
                };
                self.remember(data);
                bus_invert_wire_onto(wire, data, width, invert);
            }
            CodecKind::DeltaXor | CodecKind::BusInvert => {}
        }
        Some((boundary, intra, n as u64))
    }

    /// Advances the receive side one flit on dense rows: decodes the
    /// wire row `wire` against the mirrored wire memory into `plain`, a
    /// link-aligned plain row (side-channel wires written zero).
    ///
    /// # Panics
    ///
    /// Panics if `wire` or `plain` is not the words `wire_width` covers.
    pub fn decode_row(&mut self, wire: &[u64], plain: &mut [u64]) {
        let (width, words) = (self.data_width, self.data_words());
        assert!(
            plain.len() == self.wire_words() && wire.len() == self.wire_words(),
            "a {}-bit lane decodes {}-word rows",
            self.wire_width(),
            self.wire_words()
        );
        let (data, side) = plain.split_at_mut(words);
        side.fill(0);
        let top = u64::MAX >> ((64 - width % 64) % 64);
        match self.kind {
            CodecKind::Unencoded => data.copy_from_slice(wire),
            CodecKind::DeltaXor => {
                match &self.prev {
                    None => data.copy_from_slice(wire),
                    Some(prev) => {
                        for ((p, w), m) in data.iter_mut().zip(wire).zip(prev.used_words()) {
                            *p = w ^ m;
                        }
                    }
                }
                self.remember(data);
            }
            CodecKind::BusInvert => {
                data.copy_from_slice(&wire[..words]);
                data[words - 1] &= top;
                self.remember(data);
                if row_bit(wire, width) {
                    for p in data.iter_mut() {
                        *p = !*p;
                    }
                    data[words - 1] &= top;
                }
            }
        }
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
    /// flits — [`LinkCodecState::encode_rows_onto`] on images. The state
    /// ends exactly where flit-by-flit [`LinkCodecState::encode_row_onto`]
    /// calls would, and the returned [`WireRun`] summarizes the wire
    /// stream (first image, last image, intra-run transition sum) without
    /// materializing the intermediate wires. Returns `None` for an empty
    /// run (the state is untouched).
    ///
    /// # Panics
    ///
    /// Panics if a plain image is neither `data_width` nor `wire_width`
    /// bits wide (the latter with zeroed side-channel wires).
    // btr-lint: allow(test-only-pub, reason = "perfbench times it as core.lane_run")
    pub fn encode_run<'a>(
        &mut self,
        plains: impl IntoIterator<Item = &'a PayloadBits>,
    ) -> Option<WireRun> {
        let mut rows = FlitSlab::new(self.wire_width());
        for plain in plains {
            rows.push_row_padded(self.data_image(plain).used_words());
        }
        let count = rows.len();
        if count == 0 {
            return None;
        }
        let mut wire = [0u64; MAX_ROW_WORDS];
        let wire = &mut wire[..self.wire_words()];
        self.encode_row_onto(rows.flit(0), wire);
        let first = PayloadBits::from_row(self.wire_width(), wire);
        let (boundary, intra, _) = self
            .encode_rows_onto(&rows.rows(1..count), wire)
            .unwrap_or_default();
        Some(WireRun {
            first,
            last: PayloadBits::from_row(self.wire_width(), wire),
            intra: u64::from(boundary) + intra,
            count: count as u64,
        })
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
        head: &[u64],
        wire: &mut [u64],
    ) -> u64 {
        assert_eq!(
            self.kind,
            CodecKind::DeltaXor,
            "the O(1) run is the delta-XOR telescope"
        );
        let (width, rows) = (self.data_width, run.plains);
        assert!(
            rows.width() == width
                && head.len() == rows.words_per_flit()
                && wire.len() == head.len(),
            "run, head or wire does not match the {width} data wires"
        );
        let (x0, n) = (rows.flit(0), rows.len());
        // An unseeded lane is a zero memory (`x ⊕ 0 = x`).
        const ZERO_ROW: [u64; MAX_ROW_WORDS] = [0; MAX_ROW_WORDS];
        let p0 = match &self.prev {
            Some(prev) => prev.used_words(),
            None => &ZERO_ROW[..x0.len()],
        };
        // The first wire `x0 ⊕ p0` against the head, then `x1 ⊕ p0`.
        let mut toggled = head
            .iter()
            .zip(x0)
            .zip(p0)
            .map(|((h, x), p)| (h ^ x ^ p).count_ones())
            .sum::<u32>();
        if n >= 2 {
            toggled += row_transitions(rows.flit(1), p0);
            xor_rows_onto(wire, rows.flit(n - 1), rows.flit(n - 2));
        } else {
            xor_rows_onto(wire, x0, p0);
        }
        self.remember(rows.flit(n - 1));
        u64::from(toggled) + run.tail
    }
}

/// Bit `index` of a row.
fn row_bit(row: &[u64], index: u32) -> bool {
    (row[(index / 64) as usize] >> (index % 64)) & 1 == 1
}

/// Writes the bitwise NOT of the `width`-bit row `row` into `out`
/// (bits above the width stay zero) and returns it.
fn invert_row<'o>(row: &[u64], width: u32, out: &'o mut [u64]) -> &'o [u64] {
    for (o, &r) in out.iter_mut().zip(row) {
        *o = !r;
    }
    if let Some(last) = out.last_mut() {
        *last &= u64::MAX >> ((64 - width % 64) % 64);
    }
    out
}

/// Overwrites `wire` with `a ⊕ b` and returns the wires that toggled
/// from its old row.
fn xor_rows_onto(wire: &mut [u64], a: &[u64], b: &[u64]) -> u32 {
    let mut toggled = 0;
    for ((w, x), y) in wire.iter_mut().zip(a).zip(b) {
        let next = x ^ y;
        toggled += (next ^ *w).count_ones();
        *w = next;
    }
    toggled
}

/// Overwrites `wire` with `row` and returns the wires that toggled.
fn copy_row_onto(wire: &mut [u64], row: &[u64]) -> u32 {
    let toggled = row_transitions(row, wire);
    wire.copy_from_slice(row);
    toggled
}

/// Overwrites the bus-invert `wire` (`width + 1` wires) with the wire
/// data `data` (a `width`-bit row) and the invert line above it, and
/// returns the wires that toggled.
fn bus_invert_wire_onto(wire: &mut [u64], data: &[u64], width: u32, invert: bool) -> u32 {
    let (line_word, line) = ((width / 64) as usize, u64::from(invert) << (width % 64));
    let mut toggled = 0;
    for (i, w) in wire.iter_mut().enumerate() {
        let mut next = data.get(i).copied().unwrap_or(0);
        if i == line_word {
            next |= line;
        }
        toggled += (next ^ *w).count_ones();
        *w = next;
    }
    toggled
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

    /// One transmit row step on images: `plain` zero-extended onto the
    /// wire, through [`LinkCodecState::encode_row_onto`].
    fn step(state: &mut LinkCodecState, plain: &PayloadBits) -> PayloadBits {
        let aligned = plain.resized(state.wire_width());
        let mut wire = vec![0; aligned.used_words().len()];
        state.encode_row_onto(aligned.used_words(), &mut wire);
        PayloadBits::from_row(state.wire_width(), &wire)
    }

    /// One receive row step on images, back to the data width.
    fn unstep(state: &mut LinkCodecState, wire: &PayloadBits) -> PayloadBits {
        let mut plain = vec![u64::MAX; wire.used_words().len()];
        state.decode_row(wire.used_words(), &mut plain);
        PayloadBits::from_row(state.wire_width(), &plain).resized(state.data_width())
    }

    /// A packet through a fresh state, flit by flit (per-packet scope).
    fn encode(kind: CodecKind, plain: &[PayloadBits]) -> Vec<PayloadBits> {
        let mut state = kind.seed_state(plain[0].width());
        plain.iter().map(|p| step(&mut state, p)).collect()
    }

    fn decode(kind: CodecKind, wire: &[PayloadBits], width: u32) -> Vec<PayloadBits> {
        let mut state = kind.seed_state(width);
        wire.iter().map(|w| unstep(&mut state, w)).collect()
    }

    #[test]
    fn all_codecs_round_trip() {
        for kind in CodecKind::ALL {
            for (n, width, seed) in [(1usize, 8u32, 1u64), (7, 64, 2), (40, 128, 3), (13, 96, 4)] {
                let stream = random_stream(n, width, seed);
                let wire = encode(kind, &stream);
                assert_eq!(wire.len(), stream.len());
                for w in &wire {
                    assert_eq!(w.width(), width + kind.extra_wires());
                }
                let back = decode(kind, &wire, width);
                assert_eq!(back, stream, "{kind} n={n} w={width}");
            }
        }
    }

    #[test]
    fn empty_streams_encode_and_decode() {
        // An empty run leaves the lane and the wire row untouched.
        for kind in CodecKind::ALL {
            for seeded in [false, true] {
                let mut lane = kind.seed_state(64);
                if seeded {
                    let _ = step(&mut lane, &random_stream(1, 64, 3)[0]);
                }
                let before = lane.clone();
                let mut wire = vec![7; lane.wire_width().div_ceil(64) as usize];
                let empty = FlitSlab::new(lane.wire_width());
                assert!(lane.encode_rows_onto(&empty, &mut wire).is_none());
                assert_eq!(lane, before, "{kind}");
                assert!(wire.iter().all(|&w| w == 7), "{kind}");
            }
        }
    }

    #[test]
    fn decode_rejects_wrong_wire_width() {
        // A row of the wrong width never decodes; the transport turns the
        // mismatch into this error before it reaches the lane.
        for kind in CodecKind::ALL {
            let mut rx = kind.seed_state(96);
            let refused = std::panic::catch_unwind(move || {
                let mut plain = [0u64; 1];
                rx.decode_row(&[0; 1], &mut plain);
            });
            assert!(refused.is_err(), "{kind}");
        }
        let err = CodecError::WireWidth { got: 64, want: 33 };
        assert!(err.to_string().contains("codec expects"));
    }

    #[test]
    fn state_steps_match_the_stream_functions() {
        // The per-flit row walk is the oracle of the run kernel: the same
        // boundary and intra-run toggles, the same last wire and the same
        // end state; the mirrored decode walk recovers the packet.
        for kind in CodecKind::ALL {
            for width in [96u32, 128] {
                let stream = random_stream(23, width, 17);
                let mut tx = kind.seed_state(width);
                let wire_width = tx.wire_width();
                let old = random_stream(1, wire_width, 8).remove(0);
                let mut walked = old;
                let mut toggles = Vec::new();
                let stepped: Vec<PayloadBits> = stream
                    .iter()
                    .map(|p| {
                        let next = step(&mut tx, p);
                        toggles.push(u64::from(next.transitions_to(&walked)));
                        walked = next;
                        next
                    })
                    .collect();
                let aligned: Vec<PayloadBits> =
                    stream.iter().map(|p| p.resized(wire_width)).collect();
                let mut run = kind.seed_state(width);
                let mut wire = old.used_words().to_vec();
                let got = run
                    .encode_rows_onto(&FlitSlab::from_images(wire_width, &aligned), &mut wire)
                    .unwrap();
                let want = (toggles[0] as u32, toggles[1..].iter().sum(), 23);
                assert_eq!(got, want, "{kind} {width}");
                assert_eq!(wire, walked.used_words(), "{kind} {width}");
                assert_eq!(run, tx, "{kind} {width}");
                assert_eq!(decode(kind, &stepped, width), stream, "{kind} {width}");
            }
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
                    let wire = step(&mut tx, plain);
                    assert_eq!(&unstep(&mut rx, &wire), plain, "{kind}");
                }
            }
            assert_eq!(tx != kind.seed_state(64), kind.is_stateful());
            // Resetting both ends at every boundary reproduces the
            // per-packet encode exactly.
            let mut tx = kind.seed_state(64);
            for packet in &packets {
                tx.reset();
                let stepped: Vec<PayloadBits> = packet.iter().map(|p| step(&mut tx, p)).collect();
                assert_eq!(stepped, encode(kind, packet), "{kind}");
            }
        }
    }

    #[test]
    fn encode_run_matches_step_loop() {
        // The bulk kernel must be indistinguishable from flit-by-flit
        // row steps: same wire boundaries, same intra transition sum,
        // same end-of-run state — from a fresh lane and mid-stream.
        for kind in CodecKind::ALL {
            for (n, width, seed) in [(1usize, 8u32, 1u64), (2, 64, 2), (9, 96, 3), (32, 128, 4)] {
                for warmup in [0usize, 3] {
                    let history = random_stream(warmup, width, seed + 100);
                    let stream = random_stream(n, width, seed);
                    let mut stepped = kind.seed_state(width);
                    for p in &history {
                        let _ = step(&mut stepped, p);
                    }
                    let mut bulk = stepped.clone();
                    let wires: Vec<PayloadBits> =
                        stream.iter().map(|p| step(&mut stepped, p)).collect();
                    let intra = stream_transitions(&wires);
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
                    let _ = step(&mut bulk, p);
                }
                let mut summarized = bulk.clone();
                let head = random_stream(1, 96, n as u64 + 90)[0];
                let want = bulk.encode_run(&stream).unwrap();
                let rows = FlitSlab::from_images(96, &stream);
                let mut wire = [0u64; 2];
                let got = summarized.encode_delta_xor_run_onto(
                    &DeltaXorRun::new(&rows),
                    head.used_words(),
                    &mut wire,
                );
                let ctx = format!("n={n} warmup={warmup}");
                assert_eq!(
                    got,
                    u64::from(want.first.transitions_to(&head)) + want.intra,
                    "{ctx}"
                );
                assert_eq!(&wire, want.last.used_words(), "{ctx}: last wire");
                assert_eq!(summarized, bulk, "{ctx}: end state");
            }
        }
    }

    #[test]
    fn row_steps_match_the_image_steps() {
        // The row hop leaves the lane, the wire row and the toggle count
        // exactly where a one-flit image run plus a Hamming distance
        // does, the row decode recovers the link-aligned plain row on a
        // mirrored lane, and mirror_from lands on the same state. Widths
        // cover a row that ends mid-word, one whose invert line opens a
        // word of its own, and one whose line shares the last word.
        for kind in CodecKind::ALL {
            for width in [100u32, 128, 127] {
                let stream = random_stream(6, width, 21 + u64::from(width));
                let mut stepped = kind.seed_state(width);
                let mut rows = kind.seed_state(width);
                let mut rx = kind.seed_state(width);
                let mut mirror = kind.seed_state(width);
                let wire_width = stepped.wire_width();
                let mut wire = random_stream(1, wire_width, 5).remove(0);
                let mut wire_row = wire.used_words().to_vec();
                for plain in &stream {
                    let aligned = plain.resized(wire_width);
                    let next = stepped.encode_run(std::iter::once(plain)).unwrap().first;
                    let want = next.transitions_to(&wire);
                    let got = rows.encode_row_onto(aligned.used_words(), &mut wire_row);
                    assert_eq!(got, want, "{kind} {width}");
                    assert_eq!(wire_row, next.used_words(), "{kind} {width}");
                    assert_eq!(rows, stepped, "{kind} {width}");
                    let mut decoded = vec![u64::MAX; wire_row.len()];
                    rx.decode_row(&wire_row, &mut decoded);
                    assert_eq!(decoded, aligned.used_words(), "{kind} {width}");
                    assert_eq!(rx, rows, "{kind} {width}: mirrored decode");
                    mirror.mirror_from(&rows);
                    assert_eq!(mirror, rows, "{kind} {width}");
                    wire = next;
                }
            }
        }
    }

    #[test]
    fn row_runs_match_encode_run() {
        // Seeded and unseeded lanes, runs of one to five flits: the wire
        // row ends on the run's last wire, the boundary is charged
        // against its old row, and the lane lands where encode_run's.
        for kind in CodecKind::ALL {
            for width in [128u32, 100] {
                for n in 1..=5usize {
                    for seeded in [false, true] {
                        let stream = random_stream(n + 1, width, 40 + n as u64);
                        let mut bulk = kind.seed_state(width);
                        if seeded {
                            let _ = step(&mut bulk, &stream[0]);
                        }
                        let mut onto = bulk.clone();
                        let run = bulk.encode_run(&stream[1..]).unwrap();
                        let wire_width = bulk.wire_width();
                        let old = random_stream(1, wire_width, 9).remove(0);
                        let mut wire = old.used_words().to_vec();
                        let aligned: Vec<PayloadBits> =
                            stream[1..].iter().map(|p| p.resized(wire_width)).collect();
                        let rows = FlitSlab::from_images(wire_width, &aligned);
                        let got = onto.encode_rows_onto(&rows, &mut wire).unwrap();
                        let want = (run.first.transitions_to(&old), run.intra, run.count);
                        let ctx = format!("{kind} {width} n={n} seeded={seeded}");
                        assert_eq!(got, want, "{ctx}");
                        assert_eq!(wire, run.last.used_words(), "{ctx}");
                        assert_eq!(onto, bulk, "{ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn encode_run_empty_is_identity() {
        for kind in CodecKind::ALL {
            let mut state = kind.seed_state(64);
            let _ = step(&mut state, &random_stream(1, 64, 7)[0]);
            let before = state.clone();
            assert!(state.encode_run(std::iter::empty()).is_none());
            assert_eq!(state, before);
        }
    }

    #[test]
    fn encode_accepts_link_aligned_plain_images() {
        // The NoC re-aligns narrower payload images onto the full link
        // width; the state must accept the wire-width image with zeroed
        // side-channel wires and produce the identical wire.
        let stream = random_stream(9, 64, 33);
        let aligned: Vec<PayloadBits> = stream.iter().map(|p| p.resized(65)).collect();
        let mut narrow = CodecKind::BusInvert.seed_state(64);
        let mut wide = CodecKind::BusInvert.seed_state(64);
        assert_eq!(narrow.encode_run(&stream), wide.encode_run(&aligned));
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
        let wire = encode(CodecKind::BusInvert, &stream);
        assert_eq!(
            stream_transitions(&wire),
            9,
            "one invert-line toggle per boundary"
        );
        assert_eq!(decode(CodecKind::BusInvert, &wire, 64), stream);
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
        let delta = stream_transitions(&encode(CodecKind::DeltaXor, &stream));
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
