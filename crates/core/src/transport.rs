//! The shared transport pipeline: one implementation of the
//! `OrderedTask → codec → packets` lifecycle.
//!
//! Three harnesses move ordered values over links: the "without NoC"
//! stream evaluation ([`crate::stream`]), raw NoC injection
//! (`btr_noc::session`), and the full accelerator driver
//! (`btr_accel::driver`). Historically each hand-rolled its own
//! flitization, ordering and recovery calls; this module is now the single
//! place that logic lives:
//!
//! * [`CodedTransport`] — the MC/PE contract as one
//!   `order → flitize → codec` pipeline: encode a [`NeuronTask`] into
//!   wire images plus the [`TaskWireMeta`] a head flit (and, for O2, the
//!   index side channel) carries, and decode a delivered packet back into
//!   a [`RecoveredTask`]. It runs the paper's descending-popcount ordering
//!   per [`TransportConfig`], composed with the link codec
//!   ([`crate::codec::CodecKind`]) selected by [`TransportConfig::codec`]
//!   (unencoded, bus-invert, or delta-XOR);
//! * the packing helpers ([`packet_occupancy`], [`row_major_assignment`],
//!   [`pack_values`], [`pack_window_with_order`]) and the in-place window
//!   packer behind [`crate::stream::build_stream_slab`] — the
//!   "occupancy → permutation → slot assignment → flit images" pipeline
//!   that both the packet path and the weight-stream path are built on.

use crate::codec::{CodecError, CodecKind, CodecScope};
use crate::edc::EdcKind;
use crate::flitize::{
    build_encode_template, order_task_with, render_images_with_template, EncodeTemplate,
    FlitizeError, OrderedTask, RecoverError,
};
use crate::ordering::{round_robin_assignment_into, OrderingMethod, SortScratch, TieBreak};
use crate::stream::Placement;
use crate::task::{NeuronTask, RecoveredTask};
use btr_bits::payload::{PayloadBits, MAX_WIDTH_BITS};
use btr_bits::slab::FlitSlab;
use btr_bits::word::DataWord;

/// Configuration of a transport session: how values are ordered, how many
/// word lanes each flit carries, and which link codec runs after
/// flitization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportConfig {
    /// Data transmission ordering (O0/O1/O2).
    pub ordering: OrderingMethod,
    /// Popcount-tie handling in the ordering unit.
    pub tiebreak: TieBreak,
    /// Word lanes per flit (the paper uses 16: 8 inputs + 8 weights).
    pub values_per_flit: usize,
    /// Link-coding backend applied to the ordered flit stream.
    pub codec: CodecKind,
    /// Where the codec state lives. With [`CodecScope::PerPacket`] this
    /// session applies the codec itself (fresh state per packet); with
    /// [`CodecScope::PerLink`] it emits the plain ordered images and the
    /// NoC links code the wires with their own persistent state.
    pub scope: CodecScope,
    /// Per-flit error-detecting code stamped on the plain ordered image
    /// and carried on extra wires between the data MSB and the codec
    /// side channel. The codec codes the whole data+EDC *frame*, so a
    /// wire flip anywhere in the frame is visible to the receiving NI's
    /// check. [`EdcKind::None`] models perfect wires (the paper's setup).
    pub edc: EdcKind,
}

impl TransportConfig {
    /// A session with the paper's popcount-only comparator
    /// ([`TieBreak::Stable`]) and no link coding.
    #[must_use]
    pub fn new(ordering: OrderingMethod, values_per_flit: usize) -> Self {
        Self {
            ordering,
            tiebreak: TieBreak::Stable,
            values_per_flit,
            codec: CodecKind::Unencoded,
            scope: CodecScope::PerPacket,
            edc: EdcKind::None,
        }
    }

    /// The same configuration with a different link codec.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self
    }

    /// The same configuration with a different codec scope.
    #[must_use]
    pub fn with_scope(mut self, scope: CodecScope) -> Self {
        self.scope = scope;
        self
    }

    /// The same configuration with a different per-flit EDC.
    #[must_use]
    pub fn with_edc(mut self, edc: EdcKind) -> Self {
        self.edc = edc;
        self
    }

    /// True when this session applies the codec itself (per-packet
    /// scope); false when the codec is deferred to the NoC links.
    #[must_use]
    pub fn codes_in_transport(&self) -> bool {
        self.codec != CodecKind::Unencoded && self.scope == CodecScope::PerPacket
    }

    /// Width of the data wires for word type `W`: `values_per_flit`
    /// word lanes.
    #[must_use]
    pub fn data_width_bits<W: DataWord>(&self) -> u32 {
        self.values_per_flit as u32 * W::WIDTH
    }

    /// Width of the protected *frame* for word type `W`: the data wires
    /// plus the EDC field. This is what the link codec codes as one unit
    /// and what wire flips are confined to.
    #[must_use]
    pub fn frame_width_bits<W: DataWord>(&self) -> u32 {
        self.data_width_bits::<W>() + self.edc.extra_wires()
    }

    /// Physical link width in bits for word type `W`: the frame (data +
    /// EDC field) plus the codec's side-channel wires (the bus-invert
    /// line).
    #[must_use]
    pub fn link_width_bits<W: DataWord>(&self) -> u32 {
        self.frame_width_bits::<W>() + self.codec.extra_wires()
    }
}

/// Reusable scratch buffers for the template encode and the direct
/// decode: the ordering permutations and slot assignments they need per
/// template or task. One instance per layer keeps the per-task loops free
/// of scratch allocations (buffers grow to the largest task seen and are
/// then reused).
#[derive(Debug, Default)]
pub struct TransportScratch {
    /// Ordering-kernel buffers (keys + radix ping-pong array).
    pub(crate) keys: SortScratch,
    /// Weight permutation of a template build (when not provided
    /// precomputed).
    pub(crate) wperm: Vec<usize>,
    /// Input permutation (separated-ordering only).
    pub(crate) iperm: Vec<usize>,
    /// Round-robin `rank → (flit, slot)` assignment.
    pub(crate) assign: Vec<(usize, usize)>,
    /// Plain images recovered from delivered wire images (per-packet
    /// codec inverse, or the per-link re-alignment narrow).
    pub(crate) plain_buf: Vec<PayloadBits>,
}

/// The metadata a packet carries out-of-band of its payload flits: the
/// extended head-flit fields plus, for separated-ordering, the
/// minimal-bit-width re-pairing index (Sec. IV-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskWireMeta {
    /// Number of (input, weight) pairs in the task.
    pub num_pairs: usize,
    /// O2 re-pairing index (`pair_index[input_rank] = weight_rank`).
    pub pair_index: Option<Vec<u16>>,
}

/// A task encoded for transmission: the coded wire images plus wire
/// metadata and side-channel accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedTask<W> {
    meta: TaskWireMeta,
    index_overhead_bits: u64,
    /// The ordered flit images before link coding (the codec input).
    plain: Vec<PayloadBits>,
    /// The codec output — `None` when the codec is the identity, so the
    /// unencoded pipeline stores (and moves) one image vector, not two.
    wire: Option<Vec<PayloadBits>>,
    codec: CodecKind,
    edc: EdcKind,
    _word: std::marker::PhantomData<W>,
}

impl<W: DataWord> EncodedTask<W> {
    /// The wire images in transmission order (ordered, flitized, and
    /// link-coded — these are what the NoC's per-link transition
    /// recorders observe).
    #[must_use]
    pub fn payload_flits(&self) -> Vec<PayloadBits> {
        self.wire.as_ref().unwrap_or(&self.plain).clone()
    }

    /// The ordered flit images *before* link coding (the codec input).
    #[must_use]
    pub fn plain_flits(&self) -> Vec<PayloadBits> {
        self.plain.clone()
    }

    /// The metadata the receiver needs to decode the packet.
    #[must_use]
    pub fn wire_meta(&self) -> TaskWireMeta {
        self.meta.clone()
    }

    /// Side-channel overhead of the separated-ordering index in bits.
    #[must_use]
    pub fn index_overhead_bits(&self) -> u64 {
        self.index_overhead_bits
    }

    /// Side-channel overhead of the link codec in bits: one bit per extra
    /// wire per payload flit (the bus-invert line; zero for unencoded and
    /// delta-XOR).
    #[must_use]
    pub fn codec_overhead_bits(&self) -> u64 {
        let wire_flits = self.wire.as_ref().unwrap_or(&self.plain).len() as u64;
        u64::from(self.codec.extra_wires()) * wire_flits
    }

    /// Side-channel overhead of the per-flit EDC in bits: the check-field
    /// wires times the payload flit count, accounted exactly like
    /// [`EncodedTask::codec_overhead_bits`].
    #[must_use]
    pub fn edc_overhead_bits(&self) -> u64 {
        let wire_flits = self.wire.as_ref().unwrap_or(&self.plain).len() as u64;
        u64::from(self.edc.extra_wires()) * wire_flits
    }

    /// Consumes the encoded task into its wire images without cloning —
    /// the injection path hands these straight to the packet.
    #[must_use]
    pub fn into_wire_flits(self) -> Vec<PayloadBits> {
        self.wire.unwrap_or(self.plain)
    }

    /// Consumes the encoded task into `(wire metadata, wire images,
    /// index overhead bits, codec overhead bits, EDC overhead bits)` —
    /// everything the injection path needs, with no clone of the images
    /// or the O2 pair index.
    #[must_use]
    pub fn into_parts(self) -> (TaskWireMeta, Vec<PayloadBits>, u64, u64, u64) {
        let index_overhead_bits = self.index_overhead_bits;
        let codec_overhead_bits = self.codec_overhead_bits();
        let edc_overhead_bits = self.edc_overhead_bits();
        let wire = self.wire.unwrap_or(self.plain);
        (
            self.meta,
            wire,
            index_overhead_bits,
            codec_overhead_bits,
            edc_overhead_bits,
        )
    }
}

/// Errors from the decode half of a transport session.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The link codec rejected the wire images.
    Codec(CodecError),
    /// The flit images do not match the expected layout geometry.
    Geometry(FlitizeError),
    /// The slot structure decoded, but operand recovery failed.
    Recover(RecoverError),
    /// A response packet carried no payload flits.
    EmptyResponse,
    /// A packet kept failing its EDC check after the NI's whole retry
    /// budget — the unreliable-link protocol's typed surrender, never
    /// silent corruption.
    Unrecoverable {
        /// Retransmissions attempted before giving up.
        retries: u32,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Codec(e) => write!(f, "link decode failed: {e}"),
            TransportError::Geometry(e) => write!(f, "wire decode failed: {e}"),
            TransportError::Recover(e) => write!(f, "operand recovery failed: {e}"),
            TransportError::EmptyResponse => write!(f, "response packet carried no payload flits"),
            TransportError::Unrecoverable { retries } => write!(
                f,
                "packet failed its EDC check after {retries} retransmission(s); retry budget \
                 exhausted"
            ),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<CodecError> for TransportError {
    fn from(e: CodecError) -> Self {
        TransportError::Codec(e)
    }
}

impl From<FlitizeError> for TransportError {
    fn from(e: FlitizeError) -> Self {
        TransportError::Geometry(e)
    }
}

impl From<RecoverError> for TransportError {
    fn from(e: RecoverError) -> Self {
        TransportError::Recover(e)
    }
}

/// The `order → flitize → codec` transport pipeline: descending-popcount
/// ordering at the MC, link coding on the wires, codec decode plus
/// slot-pairing (O0/O1) or index-lookup (O2) recovery at the PE.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodedTransport {
    config: TransportConfig,
}

impl CodedTransport {
    /// Creates a session with the given configuration.
    #[must_use]
    pub fn new(config: TransportConfig) -> Self {
        Self { config }
    }

    /// Widens a stream of plain `data_width` images into EDC-stamped
    /// frames, in place. No-op (and no width change) without an EDC, so
    /// the perfect-wire pipeline is untouched.
    fn stamp_frames<W: DataWord>(&self, plain: &mut [PayloadBits]) {
        if self.config.edc == EdcKind::None {
            return;
        }
        let data_width = self.config.data_width_bits::<W>();
        for image in plain {
            *image = self.config.edc.stamp(image, data_width);
        }
    }

    /// Orders and flitizes a task for transmission: builds the task's
    /// weight template and encodes its activations off it.
    ///
    /// Round-trips with [`CodedTransport::decode_task`]: for any valid
    /// task, decoding `encode_task(t)`'s wire images against its
    /// [`EncodedTask::wire_meta`] recovers a pairing with the same
    /// multiply-accumulate result.
    ///
    /// # Errors
    ///
    /// Returns [`FlitizeError`] for invalid geometry (odd lane count, link
    /// too wide, oversized task).
    pub fn encode_task<W: DataWord>(
        &self,
        task: &NeuronTask<W>,
    ) -> Result<EncodedTask<W>, FlitizeError> {
        let mut scratch = TransportScratch::default();
        let template = self.weight_template(task.weights(), task.bias(), None, &mut scratch)?;
        self.encode_with_template(&template, task.inputs(), &mut scratch)
    }

    /// Decodes delivered payload flits back into paired operands.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if the flit images do not match the
    /// layout implied by `meta` or recovery fails.
    pub fn decode_task<W: DataWord>(
        &self,
        meta: &TaskWireMeta,
        flits: &[PayloadBits],
    ) -> Result<RecoveredTask<W>, TransportError> {
        let mut out = RecoveredTask {
            pairs: Vec::new(),
            bias: W::from_bits_u64(0),
        };
        self.decode_task_into(meta, flits, &mut TransportScratch::default(), &mut out)?;
        Ok(out)
    }

    /// Pre-renders one kernel group's [`EncodeTemplate`] for this
    /// session's ordering/lane configuration — the once-per-layer half of
    /// the template encode path (see [`build_encode_template`]).
    /// `weight_perm`, when given, must equal
    /// `tiebreak.descending_order(weights)`; `None` sorts the weights
    /// here.
    ///
    /// # Errors
    ///
    /// Returns [`FlitizeError`] for invalid geometry, like
    /// [`CodedTransport::encode_task`].
    pub fn weight_template<W: DataWord>(
        &self,
        weights: &[W],
        bias: W,
        weight_perm: Option<&[usize]>,
        scratch: &mut TransportScratch,
    ) -> Result<EncodeTemplate, FlitizeError> {
        build_encode_template(
            weights,
            bias,
            self.config.ordering,
            self.config.values_per_flit,
            self.config.tiebreak,
            weight_perm,
            scratch,
        )
    }

    /// Encodes one task's activations off a pre-rendered
    /// [`EncodeTemplate`] — the per-task half of the template encode
    /// path: clone the static weight half, deal only the activation
    /// lanes, then run the link codec as usual. Bit-identical to
    /// [`CodedTransport::encode_task_reference`] over the template's
    /// weights — pinned by `tests/transport_parity.rs`.
    ///
    /// # Errors
    ///
    /// Infallible today (geometry was validated when the template was
    /// built); the `Result` mirrors [`CodedTransport::encode_task`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` does not pair up with the template's weights,
    /// the word type differs from the one the template was built for, or
    /// (debug only) the template's ordering/lane configuration is not
    /// this session's.
    pub fn encode_with_template<W: DataWord>(
        &self,
        template: &EncodeTemplate,
        inputs: &[W],
        scratch: &mut TransportScratch,
    ) -> Result<EncodedTask<W>, FlitizeError> {
        debug_assert_eq!(
            template.method(),
            self.config.ordering,
            "template was rendered for a different ordering"
        );
        debug_assert_eq!(
            template.values_per_flit(),
            self.config.values_per_flit,
            "template was rendered for a different lane count"
        );
        let (mut plain, pair_index) =
            render_images_with_template(template, inputs, self.config.tiebreak, scratch);
        self.stamp_frames::<W>(&mut plain);
        let wire = if self.config.codes_in_transport() {
            Some(self.config.codec.encode_stream(&plain))
        } else {
            None
        };
        Ok(EncodedTask {
            meta: TaskWireMeta {
                num_pairs: inputs.len(),
                pair_index,
            },
            index_overhead_bits: template.index_overhead_bits(),
            plain,
            wire,
            codec: self.config.codec,
            edc: self.config.edc,
            _word: std::marker::PhantomData,
        })
    }

    /// Encodes a PE's 32-bit MAC response into the wire image of a
    /// single-flit response packet, through the session's link codec (a
    /// one-flit stream, so every codec transmits the data bits verbatim;
    /// bus-invert still carries its invert line as an extra wire).
    #[must_use]
    pub fn encode_response<W: DataWord>(&self, bits: u64) -> PayloadBits {
        let mut image = PayloadBits::zero(self.config.data_width_bits::<W>());
        image.set_field(0, 32, bits);
        if self.config.edc != EdcKind::None {
            // Responses are payload flits too: they traverse the same
            // unreliable wires, so they carry the same check field.
            image = self
                .config
                .edc
                .stamp(&image, self.config.data_width_bits::<W>());
        }
        if self.config.codes_in_transport() {
            self.config
                .codec
                .encode_stream(std::slice::from_ref(&image))
                .pop()
                // btr-lint: allow(panic-in-hot-path, reason = "encode_stream is length-preserving by contract (pinned by the codec_properties tests); one input flit always yields one wire image")
                .expect("one flit in, one wire image out")
        } else {
            // Identity codec (hot path — one response per task), or
            // per-link scope where the links code the wire themselves.
            image
        }
    }

    /// The pre-pipeline encode path, preserved verbatim as a bit-exact
    /// oracle: slot-level [`OrderedTask`]
    /// materialization via [`order_task_with`], then the codec over the
    /// rendered images. The template path
    /// ([`CodedTransport::encode_with_template`], which
    /// [`CodedTransport::encode_task`] runs) must produce identical
    /// wire images, metadata and accounting — pinned by
    /// `tests/driver_parity.rs` and `tests/transport_parity.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`FlitizeError`] for invalid geometry.
    pub fn encode_task_reference<W: DataWord>(
        &self,
        task: &NeuronTask<W>,
    ) -> Result<EncodedTask<W>, FlitizeError> {
        let ordered = order_task_with(
            task,
            self.config.ordering,
            self.config.values_per_flit,
            self.config.tiebreak,
        )?;
        let mut plain = ordered.payload_flits();
        self.stamp_frames::<W>(&mut plain);
        let wire = if self.config.codes_in_transport() {
            Some(self.config.codec.encode_stream(&plain))
        } else {
            None
        };
        Ok(EncodedTask {
            meta: TaskWireMeta {
                num_pairs: ordered.num_pairs(),
                pair_index: ordered.pair_index().map(<[u16]>::to_vec),
            },
            index_overhead_bits: ordered.index_overhead_bits(),
            plain,
            wire,
            codec: self.config.codec,
            edc: self.config.edc,
            _word: std::marker::PhantomData,
        })
    }

    /// Recovers the plain flit images from what the mesh delivered, per
    /// the session's codec scope. Per-packet scope runs the codec
    /// inverse; per-link scope receives images the links already decoded,
    /// possibly re-aligned onto the full link width with the side-channel
    /// wires zeroed (the NoC widens narrower payload images at
    /// injection). Returns `false` when `flits` already are the plain
    /// `frame_width` images (data + EDC field) and can be borrowed
    /// as-is; `true` when the plain images were written into `buf`
    /// (cleared first; capacity is reused across packets, keeping the
    /// receiver path allocation-free in steady state).
    fn plain_images_into(
        &self,
        flits: &[PayloadBits],
        frame_width: u32,
        buf: &mut Vec<PayloadBits>,
    ) -> Result<bool, CodecError> {
        if self.config.codes_in_transport() {
            buf.clear();
            buf.reserve(flits.len());
            let mut state = self.config.codec.seed_state(frame_width);
            for wire in flits {
                buf.push(state.decode_step(wire)?);
            }
            return Ok(true);
        }
        let extra = match self.config.scope {
            CodecScope::PerLink => self.config.codec.extra_wires(),
            CodecScope::PerPacket => 0, // identity codec
        };
        if extra > 0 && flits.iter().all(|f| f.width() == frame_width + extra) {
            // Link-aligned plain images: drop the side-channel wires the
            // mesh padded in — refusing images whose side channel is not
            // zero (those are coded wires, not plain images).
            buf.clear();
            buf.reserve(flits.len());
            for (i, flit) in flits.iter().enumerate() {
                if flit.field(frame_width, extra) != 0 {
                    return Err(CodecError::SideChannel { flit: i });
                }
                buf.push(flit.resized(frame_width));
            }
            return Ok(true);
        }
        for flit in flits {
            if flit.width() != frame_width {
                return Err(CodecError::WireWidth {
                    got: flit.width(),
                    want: frame_width,
                });
            }
        }
        Ok(false)
    }

    /// The pre-pipeline decode path, preserved verbatim as a bit-exact
    /// oracle: codec inverse, slot-level
    /// [`OrderedTask::from_payload_flits`] reconstruction, then
    /// [`OrderedTask::recover`]. Produces the identical pairing (same
    /// pair order) as [`CodedTransport::decode_task`]'s direct path.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] under the same conditions as
    /// [`CodedTransport::decode_task`].
    pub fn decode_task_reference<W: DataWord>(
        &self,
        meta: &TaskWireMeta,
        flits: &[PayloadBits],
    ) -> Result<RecoveredTask<W>, TransportError> {
        let frame_width = self.config.frame_width_bits::<W>();
        let mut buf = Vec::new();
        let decoded = self.plain_images_into(flits, frame_width, &mut buf)?;
        let plain: &[PayloadBits] = if decoded { &buf } else { flits };
        let ordered = OrderedTask::<W>::from_payload_flits(
            self.config.ordering,
            meta.num_pairs,
            self.config.values_per_flit,
            meta.pair_index.clone(),
            plain,
        )?;
        Ok(ordered.recover()?)
    }

    /// [`CodedTransport::decode_task`] with reusable scratch buffers,
    /// into a caller-owned [`RecoveredTask`] (pairs buffer reused across
    /// packets) — the fully allocation-free receiver path.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CodedTransport::decode_task`].
    pub fn decode_task_into<W: DataWord>(
        &self,
        meta: &TaskWireMeta,
        flits: &[PayloadBits],
        scratch: &mut TransportScratch,
        out: &mut RecoveredTask<W>,
    ) -> Result<(), TransportError> {
        let frame_width = self.config.frame_width_bits::<W>();
        // Field-disjoint scratch borrows: the plain-image buffer is
        // filled here, the assignment buffer inside the recovery.
        let decoded = self.plain_images_into(flits, frame_width, &mut scratch.plain_buf)?;
        let plain: &[PayloadBits] = if decoded { &scratch.plain_buf } else { flits };
        recover_from_images(
            self.config.ordering,
            meta,
            self.config.values_per_flit,
            plain,
            &mut scratch.assign,
            out,
        )
    }

    /// Decodes a delivered response packet's wire images back into the
    /// 32-bit MAC response (inverse of [`CodedTransport::encode_response`]).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Codec`] if the wire images do not match
    /// the session's link width, or [`TransportError::EmptyResponse`] if
    /// the packet carried no payload flits.
    pub fn decode_response<W: DataWord>(
        &self,
        wire: &[PayloadBits],
    ) -> Result<u64, TransportError> {
        let frame_width = self.config.frame_width_bits::<W>();
        let image = wire.first().ok_or(TransportError::EmptyResponse)?;
        if self.config.codes_in_transport() {
            // Responses are single-flit packets, so decoding the first
            // wire image against a fresh (per-packet) state is the whole
            // codec inverse.
            let mut state = self.config.codec.seed_state(frame_width);
            return Ok(state.decode_step(image)?.field(0, 32));
        }
        // Plain image (identity codec, or per-link scope where the links
        // already decoded the wire): read the 32-bit field in place —
        // hot path, one response per task, no allocation.
        let extra = match self.config.scope {
            CodecScope::PerLink => self.config.codec.extra_wires(),
            CodecScope::PerPacket => 0,
        };
        if extra > 0 && image.width() == frame_width + extra {
            if image.field(frame_width, extra) != 0 {
                return Err(CodecError::SideChannel { flit: 0 }.into());
            }
            return Ok(image.field(0, 32));
        }
        if image.width() != frame_width {
            return Err(CodecError::WireWidth {
                got: image.width(),
                want: frame_width,
            }
            .into());
        }
        Ok(image.field(0, 32))
    }

    /// Checks every delivered payload flit's EDC field against its data
    /// bits — the receiving NI's detection step, run *before* decode.
    /// Returns `Ok(true)` when all frames verify (trivially so without an
    /// EDC), `Ok(false)` when at least one frame fails — the NACK that
    /// triggers a retransmission.
    ///
    /// Per-packet coded scope decodes the wire stream against a fresh
    /// seed first (the check rides inside the coded frame); the other
    /// scopes verify the delivered frames directly, accepting
    /// link-aligned images whose upper wires the mesh padded in.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Codec`] when the images do not match the
    /// session's wire geometry at all (a harness bug, not a wire error).
    pub fn verify_delivered_frames<W: DataWord>(
        &self,
        flits: &[PayloadBits],
    ) -> Result<bool, TransportError> {
        let edc = self.config.edc;
        if edc == EdcKind::None {
            return Ok(true);
        }
        let data_width = self.config.data_width_bits::<W>();
        let frame_width = self.config.frame_width_bits::<W>();
        if self.config.codes_in_transport() {
            let mut state = self.config.codec.seed_state(frame_width);
            for wire in flits {
                let frame = state.decode_step(wire)?;
                if !edc.verify(&frame, data_width) {
                    return Ok(false);
                }
            }
            return Ok(true);
        }
        for flit in flits {
            if flit.width() < frame_width {
                return Err(CodecError::WireWidth {
                    got: flit.width(),
                    want: frame_width,
                }
                .into());
            }
            if !edc.verify(flit, data_width) {
                return Ok(false);
            }
        }
        Ok(true)
    }
}

/// The receiver's hot decode path: re-types the occupied lanes straight
/// off the plain flit images, producing the identical pairing (same pair
/// *order*, so float MACs re-associate identically) as
/// [`OrderedTask::from_payload_flits`] + [`OrderedTask::recover`],
/// without materializing the slot-level task.
fn recover_from_images<W: DataWord>(
    method: OrderingMethod,
    meta: &TaskWireMeta,
    values_per_flit: usize,
    plain: &[PayloadBits],
    assign_scratch: &mut Vec<(usize, usize)>,
    out: &mut RecoveredTask<W>,
) -> Result<(), TransportError> {
    use crate::flitize::half_half_layout;
    let n = meta.num_pairs;
    if values_per_flit < 2 || !values_per_flit.is_multiple_of(2) {
        return Err(FlitizeError::OddValuesPerFlit(values_per_flit).into());
    }
    if n == 0 || n > usize::from(u16::MAX) {
        return Err(FlitizeError::TooManyValues(n).into());
    }
    let layout = half_half_layout(n, values_per_flit);
    if plain.len() != layout.num_flits {
        return Err(FlitizeError::TooManyValues(plain.len()).into());
    }
    let half = values_per_flit / 2;
    let lane = |f: usize, s: usize| -> W {
        W::from_bits_u64(plain[f].field(s as u32 * W::WIDTH, W::WIDTH))
    };

    // Occupied-slot geometry is fully determined by (num_pairs, lanes):
    // the same assignment the sender used.
    let pairs = &mut out.pairs;
    pairs.clear();
    pairs.reserve(n);
    match method {
        OrderingMethod::Baseline => {
            for rank in 0..n {
                let (f, s) = (rank / half, rank % half);
                pairs.push((lane(f, s), lane(f, half + s)));
            }
        }
        OrderingMethod::Affiliated => {
            round_robin_assignment_into(&layout.weight_occupancy, assign_scratch);
            for &(f, s) in assign_scratch.iter().take(n) {
                pairs.push((lane(f, s), lane(f, half + s)));
            }
        }
        OrderingMethod::Separated => {
            let index = meta
                .pair_index
                .as_ref()
                .ok_or(RecoverError::MissingPairIndex)?;
            round_robin_assignment_into(&layout.weight_occupancy, assign_scratch);
            for (rank, &partner) in index.iter().enumerate() {
                let (inf, ins) = assign_scratch[rank];
                let (wf, ws) = assign_scratch[partner as usize];
                pairs.push((lane(inf, ins), lane(wf, half + ws)));
            }
        }
    }

    let (bf, bs) = layout.bias_position;
    out.bias = lane(bf, half + bs);
    Ok(())
}

/// Row-major occupancy of one packet of `len` values over
/// `values_per_flit`-lane flits: `occupancy[f]` occupied slots in flit
/// `f`, padding in the tail flit. An empty packet still occupies one
/// (all-padding) flit, where the baseline stream of
/// [`crate::stream::build_stream_slab`] sends none.
///
/// # Panics
///
/// Panics if `values_per_flit == 0`.
#[must_use]
pub fn packet_occupancy(len: usize, values_per_flit: usize) -> Vec<usize> {
    assert!(values_per_flit > 0, "values_per_flit must be positive");
    occupancy_slots(len, values_per_flit).collect()
}

/// [`packet_occupancy`] as an iterator, for packing without a buffer.
fn occupancy_slots(len: usize, values_per_flit: usize) -> impl Iterator<Item = usize> {
    let num_flits = len.div_ceil(values_per_flit).max(1);
    (0..num_flits).map(move |f| len.saturating_sub(f * values_per_flit).min(values_per_flit))
}

/// Row-major slot assignment over an occupancy: rank `r` goes to the
/// `r`-th occupied slot in flit order (the baseline layout, and the
/// [`crate::stream::Placement::RowMajor`] ordered layout).
#[must_use]
pub fn row_major_assignment(occupancy: &[usize]) -> Vec<(usize, usize)> {
    let mut assign = Vec::with_capacity(occupancy.iter().sum());
    for (f, &occ) in occupancy.iter().enumerate() {
        for s in 0..occ {
            assign.push((f, s));
        }
    }
    assign
}

/// Packs one window of packets with an arbitrary ordering rule and
/// appends its flits to `out`: the window's values are pooled, permuted
/// by `order`, and dealt round-robin into the occupied slots of the
/// window's flits (padding stays in place). This is the shared engine
/// behind [`crate::stream::build_stream_slab`] and the ordering-rule
/// ablations.
///
/// # Panics
///
/// Panics if `values_per_flit == 0`, `out` is not
/// `values_per_flit × W::WIDTH` bits wide, or `order` returns a
/// permutation of the wrong length.
pub fn pack_window_with_order<W: DataWord>(
    packets: &[Vec<W>],
    values_per_flit: usize,
    order: impl Fn(&[W]) -> Vec<usize>,
    out: &mut FlitSlab,
) {
    WindowPacker::default().pack(
        packets,
        values_per_flit,
        Placement::RoundRobin,
        |values, _, perm| *perm = order(values),
        out,
    );
}

/// Link width of `values_per_flit` lanes of `W`.
///
/// # Panics
///
/// Panics if `values_per_flit == 0` or the link would exceed
/// [`MAX_WIDTH_BITS`].
pub(crate) fn lane_link_width<W: DataWord>(values_per_flit: usize) -> u32 {
    assert!(values_per_flit > 0, "values_per_flit must be positive");
    let link_width = values_per_flit as u32 * W::WIDTH;
    assert!(
        link_width <= MAX_WIDTH_BITS,
        "link width {link_width} exceeds maximum {MAX_WIDTH_BITS}"
    );
    link_width
}

/// The in-place window packer: renders an ordered window straight into
/// the rows of the caller's flit slab. Occupancy, pooled values and
/// permutation live in scratch that is reused window after window, and
/// ranks are dealt while walking the occupied slots in placement order,
/// so packing a stream allocates nothing per window and copies no flit
/// image. Its output equals the allocating
/// `packet_occupancy → order → assignment → pack_values` chain
/// (pinned by `tests/stream_kernels.rs`).
#[derive(Debug)]
pub(crate) struct WindowPacker<W> {
    occupancy: Vec<usize>,
    values: Vec<W>,
    perm: Vec<usize>,
    sort: SortScratch,
}

impl<W> Default for WindowPacker<W> {
    fn default() -> Self {
        Self {
            occupancy: Vec::new(),
            values: Vec::new(),
            perm: Vec::new(),
            sort: SortScratch::default(),
        }
    }
}

impl<W: DataWord> WindowPacker<W> {
    /// Appends the flits of one window to `out`. Each packet keeps its own
    /// row-major block of flits (padding at its tail flit; an empty packet
    /// keeps one all-padding flit); the pooled values are permuted by
    /// `order` (`perm[rank] = pooled index`, written into the cleared
    /// buffer it is handed) and dealt per `placement` into the occupied
    /// slots.
    ///
    /// # Panics
    ///
    /// Panics if `values_per_flit == 0`, the link would exceed
    /// [`MAX_WIDTH_BITS`], `out` is not that link's width, or `order`
    /// yields a permutation of the wrong length.
    pub(crate) fn pack(
        &mut self,
        window: &[Vec<W>],
        values_per_flit: usize,
        placement: Placement,
        order: impl FnOnce(&[W], &mut SortScratch, &mut Vec<usize>),
        out: &mut FlitSlab,
    ) {
        let link_width = lane_link_width::<W>(values_per_flit);
        assert_eq!(out.width(), link_width, "slab width must match the link");
        self.occupancy.clear();
        self.values.clear();
        for packet in window {
            self.occupancy
                .extend(occupancy_slots(packet.len(), values_per_flit));
            self.values.extend_from_slice(packet);
        }
        self.perm.clear();
        order(&self.values, &mut self.sort, &mut self.perm);
        assert_eq!(
            self.perm.len(),
            self.values.len(),
            "permutation must cover the values"
        );
        let base = out.len();
        out.push_zeroed(self.occupancy.len());
        // Walk the occupied slots in placement order (the order of
        // `round_robin_assignment` / `row_major_assignment`), dealing
        // ranks as they come.
        let mut rank = 0;
        let mut deal = |flit: usize, slot: usize| {
            let value = self.values[self.perm[rank]].bits_u64();
            out.set_lane(base + flit, slot as u32 * W::WIDTH, W::WIDTH, value);
            rank += 1;
        };
        match placement {
            Placement::RoundRobin => {
                for slot in 0..values_per_flit {
                    for (flit, &occ) in self.occupancy.iter().enumerate() {
                        if slot < occ {
                            deal(flit, slot);
                        }
                    }
                }
            }
            Placement::RowMajor => {
                for (flit, &occ) in self.occupancy.iter().enumerate() {
                    for slot in 0..occ {
                        deal(flit, slot);
                    }
                }
            }
        }
    }
}

/// Renders values into flit images of `values_per_flit` word lanes: rank
/// `r` of permutation `perm` lands in slot `assign[r]`; unassigned slots
/// stay zero (padding).
///
/// `perm[rank] = original index` and `assign[rank] = (flit, slot)` must
/// both cover exactly the values.
///
/// # Panics
///
/// Panics if `perm`/`assign` lengths differ from `values.len()`,
/// `values_per_flit == 0`, or the link would exceed [`MAX_WIDTH_BITS`].
#[must_use]
pub fn pack_values<W: DataWord>(
    values: &[W],
    occupancy: &[usize],
    assign: &[(usize, usize)],
    perm: &[usize],
    values_per_flit: usize,
) -> Vec<PayloadBits> {
    assert_eq!(
        perm.len(),
        values.len(),
        "permutation must cover the values"
    );
    assert_eq!(
        assign.len(),
        values.len(),
        "assignment must cover the values"
    );
    let link_width = lane_link_width::<W>(values_per_flit);
    let mut flits: Vec<PayloadBits> = (0..occupancy.len())
        .map(|_| PayloadBits::zero(link_width))
        .collect();
    for (rank, &orig) in perm.iter().enumerate() {
        let (f, s) = assign[rank];
        flits[f].set_field(s as u32 * W::WIDTH, W::WIDTH, values[orig].bits_u64());
    }
    flits
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::descending_popcount_order;
    use btr_bits::word::Fx8Word;

    fn fx_task(n: usize) -> NeuronTask<Fx8Word> {
        let inputs: Vec<Fx8Word> = (0..n)
            .map(|i| Fx8Word::new((i as i8).wrapping_mul(7)))
            .collect();
        let weights: Vec<Fx8Word> = (0..n)
            .map(|i| Fx8Word::new((i as i8).wrapping_mul(13).wrapping_sub(5)))
            .collect();
        NeuronTask::new(inputs, weights, Fx8Word::new(42)).unwrap()
    }

    #[test]
    fn session_roundtrips_all_methods_tiebreaks_and_codecs() {
        for n in [1usize, 7, 25, 100] {
            let task = fx_task(n);
            for ordering in OrderingMethod::ALL {
                for tiebreak in [TieBreak::Stable, TieBreak::Value] {
                    for codec in CodecKind::ALL {
                        let session = CodedTransport::new(TransportConfig {
                            ordering,
                            tiebreak,
                            values_per_flit: 16,
                            codec,
                            scope: CodecScope::PerPacket,
                            edc: EdcKind::None,
                        });
                        let enc = session.encode_task(&task).unwrap();
                        let rec = session
                            .decode_task(&enc.wire_meta(), &enc.payload_flits())
                            .unwrap();
                        assert_eq!(
                            rec.mac_i64(),
                            task.mac_i64(),
                            "{ordering} {tiebreak:?} {codec} n={n}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reference_and_fast_paths_agree() {
        // The preserved pre-pipeline encode/decode and the direct hot
        // paths must be indistinguishable: same wire images, metadata,
        // accounting, and the same recovered pairing in the same order.
        for n in [1usize, 7, 25, 100] {
            let task = fx_task(n);
            for ordering in OrderingMethod::ALL {
                for codec in CodecKind::ALL {
                    let session =
                        CodedTransport::new(TransportConfig::new(ordering, 16).with_codec(codec));
                    let fast = session.encode_task(&task).unwrap();
                    let reference = session.encode_task_reference::<Fx8Word>(&task).unwrap();
                    assert_eq!(fast, reference, "{ordering} {codec} n={n}");
                    let rec_fast: RecoveredTask<Fx8Word> = session
                        .decode_task(&fast.wire_meta(), &fast.payload_flits())
                        .unwrap();
                    let rec_ref: RecoveredTask<Fx8Word> = session
                        .decode_task_reference(&reference.wire_meta(), &reference.payload_flits())
                        .unwrap();
                    assert_eq!(rec_fast.pairs, rec_ref.pairs, "{ordering} {codec} n={n}");
                    assert_eq!(rec_fast.bias, rec_ref.bias);
                }
            }
        }
    }

    #[test]
    fn codec_widens_the_wire_and_accounts_side_channel_bits() {
        let task = fx_task(25);
        let config = TransportConfig::new(OrderingMethod::Affiliated, 16);
        let plain = CodedTransport::new(config);
        let coded = CodedTransport::new(config.with_codec(CodecKind::BusInvert));
        let enc_plain = plain.encode_task(&task).unwrap();
        let enc_coded = coded.encode_task(&task).unwrap();
        // Same flit count, one extra invert-line wire per flit.
        assert_eq!(
            enc_plain.payload_flits().len(),
            enc_coded.payload_flits().len()
        );
        assert!(enc_plain.payload_flits().iter().all(|f| f.width() == 128));
        assert!(enc_coded.payload_flits().iter().all(|f| f.width() == 129));
        assert_eq!(config.data_width_bits::<Fx8Word>(), 128);
        assert_eq!(config.link_width_bits::<Fx8Word>(), 128);
        assert_eq!(
            config
                .with_codec(CodecKind::BusInvert)
                .link_width_bits::<Fx8Word>(),
            129
        );
        // The codec input is the ordered stream either way.
        assert_eq!(enc_plain.plain_flits(), enc_coded.plain_flits());
        assert_eq!(enc_plain.codec_overhead_bits(), 0);
        assert_eq!(
            enc_coded.codec_overhead_bits(),
            enc_coded.payload_flits().len() as u64
        );
        // Delta-XOR adds no wires and no side-channel bits.
        let xor = CodedTransport::new(config.with_codec(CodecKind::DeltaXor));
        let enc_xor = xor.encode_task(&task).unwrap();
        assert!(enc_xor.payload_flits().iter().all(|f| f.width() == 128));
        assert_eq!(enc_xor.codec_overhead_bits(), 0);
    }

    #[test]
    fn per_link_scope_defers_the_codec_to_the_wires() {
        let task = fx_task(25);
        let config = TransportConfig::new(OrderingMethod::Separated, 16);
        for codec in CodecKind::ALL {
            let per_packet = CodedTransport::new(config.with_codec(codec));
            let per_link =
                CodedTransport::new(config.with_codec(codec).with_scope(CodecScope::PerLink));
            let pp = per_packet.encode_task(&task).unwrap();
            let pl = per_link.encode_task(&task).unwrap();
            // Per-link sessions put the plain ordered images on the wire
            // (the links code them with their own persistent state)...
            assert_eq!(pl.payload_flits(), pl.plain_flits(), "{codec}");
            assert_eq!(pl.plain_flits(), pp.plain_flits(), "{codec}");
            // ...while the side-channel accounting is unchanged: the
            // invert line exists on the physical link in either scope.
            assert_eq!(pl.codec_overhead_bits(), pp.codec_overhead_bits());
            assert_eq!(pl.index_overhead_bits(), pp.index_overhead_bits());
            // The plain images decode directly...
            let rec: RecoveredTask<Fx8Word> = per_link
                .decode_task(&pl.wire_meta(), &pl.payload_flits())
                .unwrap();
            assert_eq!(rec.mac_i64(), task.mac_i64(), "{codec}");
            // ...and so do the same images re-aligned onto the full link
            // width with zeroed side-channel wires, which is how the
            // mesh delivers them.
            let link_width = config.with_codec(codec).link_width_bits::<Fx8Word>();
            let aligned: Vec<PayloadBits> = pl
                .payload_flits()
                .iter()
                .map(|f| f.resized(link_width))
                .collect();
            let rec2: RecoveredTask<Fx8Word> =
                per_link.decode_task(&pl.wire_meta(), &aligned).unwrap();
            assert_eq!(rec2.pairs, rec.pairs, "{codec}");
            // Responses likewise travel plain and decode at either width.
            let resp = per_link.encode_response::<Fx8Word>(0xabcd);
            assert_eq!(resp.width(), 128);
            let bits = per_link
                .decode_response::<Fx8Word>(std::slice::from_ref(&resp))
                .unwrap();
            assert_eq!(bits, 0xabcd);
            let bits = per_link
                .decode_response::<Fx8Word>(&[resp.resized(link_width)])
                .unwrap();
            assert_eq!(bits, 0xabcd, "{codec}");
        }
    }

    #[test]
    fn decode_rejects_codec_width_mismatch() {
        let task = fx_task(9);
        let plain = CodedTransport::new(TransportConfig::new(OrderingMethod::Baseline, 8));
        let coded = CodedTransport::new(
            TransportConfig::new(OrderingMethod::Baseline, 8).with_codec(CodecKind::BusInvert),
        );
        let enc = plain.encode_task(&task).unwrap();
        // Unencoded wire images (64-bit) into a bus-invert session (65-bit).
        let err = coded
            .decode_task::<Fx8Word>(&enc.wire_meta(), &enc.payload_flits())
            .unwrap_err();
        assert!(matches!(err, TransportError::Codec(_)));
        assert!(err.to_string().contains("link decode failed"));
    }

    #[test]
    fn response_roundtrips_through_every_codec() {
        for codec in CodecKind::ALL {
            let session = CodedTransport::new(
                TransportConfig::new(OrderingMethod::Baseline, 16).with_codec(codec),
            );
            let wire = session.encode_response::<Fx8Word>(0xdead_beef);
            assert_eq!(wire.width(), 128 + codec.extra_wires());
            let bits = session
                .decode_response::<Fx8Word>(std::slice::from_ref(&wire))
                .unwrap();
            assert_eq!(bits, 0xdead_beef, "{codec}");
            // A response with no payload flits is an error, not a 0 MAC.
            let err = session.decode_response::<Fx8Word>(&[]).unwrap_err();
            assert_eq!(err, TransportError::EmptyResponse);
            assert!(err.to_string().contains("no payload flits"));
        }
    }

    #[test]
    fn wire_meta_carries_index_only_for_separated() {
        let task = fx_task(9);
        let enc = |m| {
            let s = CodedTransport::new(TransportConfig::new(m, 8));
            s.encode_task(&task).unwrap()
        };
        assert!(enc(OrderingMethod::Baseline)
            .wire_meta()
            .pair_index
            .is_none());
        assert!(enc(OrderingMethod::Affiliated)
            .wire_meta()
            .pair_index
            .is_none());
        let o2 = enc(OrderingMethod::Separated);
        assert_eq!(o2.wire_meta().pair_index.unwrap().len(), 9);
        assert_eq!(o2.index_overhead_bits(), 36);
    }

    #[test]
    fn decode_rejects_bad_geometry() {
        let session = CodedTransport::new(TransportConfig::new(OrderingMethod::Baseline, 8));
        let task = fx_task(9);
        let enc = session.encode_task(&task).unwrap();
        let flits = enc.payload_flits();
        let short = &flits[..1];
        let err = session
            .decode_task::<Fx8Word>(&enc.wire_meta(), short)
            .unwrap_err();
        assert!(matches!(err, TransportError::Geometry(_)));
        assert!(err.to_string().contains("decode failed"));
    }

    #[test]
    fn occupancy_shapes() {
        assert_eq!(packet_occupancy(25, 8), vec![8, 8, 8, 1]);
        assert_eq!(packet_occupancy(0, 8), vec![0]);
        assert_eq!(packet_occupancy(8, 8), vec![8]);
    }

    #[test]
    fn row_major_assignment_is_dense() {
        let assign = row_major_assignment(&[2, 0, 1]);
        assert_eq!(assign, vec![(0, 0), (0, 1), (2, 0)]);
    }

    #[test]
    fn pack_window_matches_manual_packing() {
        let packets: Vec<Vec<Fx8Word>> = vec![
            (0..5).map(|i| Fx8Word::new(i as i8 * 3)).collect(),
            (0..3).map(|i| Fx8Word::new(-(i as i8) - 1)).collect(),
        ];
        let mut flits = FlitSlab::new(4 * Fx8Word::WIDTH);
        pack_window_with_order(&packets, 4, descending_popcount_order, &mut flits);
        // 5 values -> 2 flits, 3 values -> 1 flit.
        assert_eq!(flits.len(), 3);
        // Total popcount preserved (same multiset of values).
        let total: u32 = (0..flits.len())
            .flat_map(|f| flits.flit(f))
            .map(|w| w.count_ones())
            .sum();
        let expect: u32 = packets.iter().flatten().map(|w| w.popcount()).sum();
        assert_eq!(total, expect);
    }
}
