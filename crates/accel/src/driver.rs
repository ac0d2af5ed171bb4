//! The inference driver: runs a lowered DNN over the NoC, layer by layer.
//!
//! Conv / linear layers generate task packets (MC → PE) and response
//! packets (PE → MC); everything else executes memory-side on the
//! assembled activations. One simulator instance persists across layers so
//! link recorders accumulate the complete inference's bit transitions —
//! the quantity Figs. 12–13 report.
//!
//! # The staged pipeline
//!
//! The paper's ordering unit sits *beside* the memory controller precisely
//! so that sorting and flitizing never stall the link (Sec. V, Fig. 14);
//! its cost is hardware area and energy, not a host thread. With
//! [`DriverMode::Pipelined`] the cycle loop encodes each MC's next task
//! inline as its prefetch buffer drains — building the task from the
//! layer operands and dealing its activations into the kernel group's
//! cached weight template (the weight order and flit images are built
//! once per session, not once per output pixel, batch element or
//! dispatch), then flitizing and link-coding through reused scratch.
//! Host parallelism lives one level up, in sweep cells and serve
//! sessions.
//!
//! Both driver modes inject the identical packet sequence, so they are
//! bit-exact with each other — same per-link bit transitions, cycle
//! counts, recovered MACs and overhead accounting (pinned by
//! `tests/driver_parity.rs`). Batching ([`AccelConfig::batch_size`]) runs
//! N inputs through each layer as one traffic phase on the same mesh.

use crate::config::{AccelConfig, DriverMode};
use crate::report::{BatchInferenceResult, InferenceResult, LayerTrafficReport};
use crate::tasks::{ConvGeometry, LayerQuantizers, LayerTasks};
use btr_bits::word::{DataFormat, DataWord, F32Word, Fx8Word};
use btr_bits::PayloadBits;
use btr_core::flitize::{EncodeTemplate, FlitizeError};
use btr_core::task::RecoveredTask;
use btr_core::transport::{
    CodedTransport, EncodedTask, TaskWireMeta, TransportConfig, TransportError, TransportScratch,
};
use btr_dnn::model::InferenceOp;
use btr_dnn::tensor::Tensor;
use btr_noc::analytic::{routes_contention_free, routes_link_disjoint, EngineMode};
use btr_noc::session::{SendError, TaskPort};
use btr_noc::sim::{DeliveredPacket, InjectError, Simulator};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::OnceLock;

/// Errors from [`run_inference`].
#[derive(Debug)]
pub enum AccelError {
    /// Invalid configuration.
    Config(String),
    /// Flitization failed (geometry).
    Flitize(FlitizeError),
    /// Packet injection failed.
    Inject(InjectError),
    /// Wire-level decode or recovery failed at a PE.
    Decode(String),
    /// A layer did not drain within the configured cycle budget.
    Stall {
        /// Op index of the stalled layer.
        layer: usize,
        /// Cycles spent in the layer before giving up.
        cycles: u64,
    },
    /// The fixed-16 extension format is not wired into the accelerator.
    UnsupportedFormat(DataFormat),
    /// A packet kept failing its EDC check until the NI's retry budget
    /// ran out (unreliable-link model).
    Unrecoverable {
        /// Op index of the layer the packet belonged to.
        layer: usize,
        /// Retransmissions spent before giving up.
        retries: u32,
    },
}

impl std::fmt::Display for AccelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AccelError::Config(msg) => write!(f, "invalid accelerator config: {msg}"),
            AccelError::Flitize(e) => write!(f, "flitization failed: {e}"),
            AccelError::Inject(e) => write!(f, "injection failed: {e}"),
            AccelError::Decode(msg) => write!(f, "receiver decode failed: {msg}"),
            AccelError::Stall { layer, cycles } => {
                write!(f, "layer {layer} stalled after {cycles} cycles")
            }
            AccelError::UnsupportedFormat(fmt) => {
                write!(f, "format {fmt} is not supported by the accelerator")
            }
            AccelError::Unrecoverable { layer, retries } => {
                write!(
                    f,
                    "layer {layer}: a packet failed its EDC check after {retries} \
                     retransmission(s); retry budget exhausted"
                )
            }
        }
    }
}

impl std::error::Error for AccelError {}

impl From<FlitizeError> for AccelError {
    fn from(e: FlitizeError) -> Self {
        AccelError::Flitize(e)
    }
}

impl From<InjectError> for AccelError {
    fn from(e: InjectError) -> Self {
        AccelError::Inject(e)
    }
}

impl From<SendError> for AccelError {
    fn from(e: SendError) -> Self {
        match e {
            SendError::Encode(e) => AccelError::Flitize(e),
            SendError::Inject(e) => AccelError::Inject(e),
        }
    }
}

/// Words the accelerator can compute on: defines how a PE encodes its MAC
/// result into the 32-bit response image.
pub trait AccelWord: DataWord {
    /// Encodes the recovered task's MAC result (32-bit field, LSB-first).
    fn response_bits(rec: &RecoveredTask<Self>) -> u64;
}

impl AccelWord for F32Word {
    fn response_bits(rec: &RecoveredTask<Self>) -> u64 {
        u64::from((rec.mac_f64() as f32).to_bits())
    }
}

impl AccelWord for Fx8Word {
    fn response_bits(rec: &RecoveredTask<Self>) -> u64 {
        let mac = rec.mac_i64();
        debug_assert!(
            i64::from(mac as i32) == mac,
            "integer MAC overflowed the 32-bit response field"
        );
        u64::from(mac as i32 as u32)
    }
}

/// How a session schedules MC-side encoding, resolved once from an
/// [`AccelConfig`] at session construction. Both plans encode inline in
/// the cycle loop and are bit-exact with each other
/// (`tests/driver_parity.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EncodePlan {
    /// [`DriverMode::Synchronous`]: uncached slot-level encode — the
    /// legacy-faithful reference.
    Reference,
    /// [`DriverMode::Pipelined`]: cached encode through the session's
    /// weight templates and reused scratch.
    Inline,
}

impl EncodePlan {
    /// Resolves the schedule a session built from `config` will use for
    /// every inference it serves.
    #[must_use]
    pub fn resolve(config: &AccelConfig) -> Self {
        match config.driver {
            DriverMode::Synchronous => EncodePlan::Reference,
            DriverMode::Pipelined => EncodePlan::Inline,
        }
    }
}

/// A reusable inference session: one validated [`AccelConfig`] plus the
/// encode schedule resolved once at construction, serving any number of
/// [`run`](InferenceSession::run) calls over the same lowered ops.
///
/// This is the building block of the multi-session service
/// (`btr_serve`): each pool worker owns one session and answers every
/// dispatched batch through it — config validation happens at pool
/// construction, never on the request hot path. Each `run` call
/// simulates on a fresh mesh, so the reported stats cover exactly that
/// call's traffic.
pub struct InferenceSession<'a> {
    ops: &'a [InferenceOp],
    config: AccelConfig,
    plan: EncodePlan,
    /// One encode cache per op: the pre-rendered weight flit templates of
    /// each conv/linear layer's kernel groups.
    /// Weights never change within a session, so templates built lazily
    /// by the first dispatch are shared across the batch dimension and
    /// across every subsequent [`run`](InferenceSession::run) call.
    caches: Vec<LayerEncodeCache>,
}

/// Per-layer encode cache: the lazily pre-rendered [`EncodeTemplate`]
/// of every kernel group — the "weight-side work happens once per
/// session, not once per task" amortization. Each entry is built by the
/// first task that touches its group.
#[derive(Debug, Default)]
struct LayerEncodeCache {
    templates: Vec<OnceLock<Result<EncodeTemplate, FlitizeError>>>,
}

impl LayerEncodeCache {
    fn with_groups(groups: usize) -> Self {
        Self {
            templates: (0..groups).map(|_| OnceLock::new()).collect(),
        }
    }

    /// One cache per op, sized by the op's kernel-group count (conv: one
    /// group per output channel; linear: one per output neuron).
    fn for_ops(ops: &[InferenceOp]) -> Vec<LayerEncodeCache> {
        ops.iter()
            .map(|op| match op {
                InferenceOp::Conv { weight, .. } | InferenceOp::Linear { weight, .. } => {
                    LayerEncodeCache::with_groups(weight.shape()[0])
                }
                _ => LayerEncodeCache::default(),
            })
            .collect()
    }
}

impl<'a> InferenceSession<'a> {
    /// Validates `config` once and resolves the encode schedule.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Config`] when the configuration is
    /// internally inconsistent.
    pub fn new(ops: &'a [InferenceOp], config: AccelConfig) -> Result<Self, AccelError> {
        config.validate().map_err(AccelError::Config)?;
        let plan = EncodePlan::resolve(&config);
        let caches = LayerEncodeCache::for_ops(ops);
        Ok(Self {
            ops,
            config,
            plan,
            caches,
        })
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The encode schedule resolved at construction.
    #[must_use]
    pub fn plan(&self) -> EncodePlan {
        self.plan
    }

    /// Runs one dispatch of `1..=config.batch_size` inputs as a batched
    /// inference (the batching window coalesces *up to* `batch_size`
    /// requests, so a bounded-wait flush may dispatch fewer).
    ///
    /// # Errors
    ///
    /// Returns [`AccelError`] on an empty or oversized batch, mismatched
    /// input shapes, flitization failure, a stalled layer, or a decode
    /// failure.
    pub fn run(&self, inputs: &[Tensor]) -> Result<BatchInferenceResult, AccelError> {
        if inputs.is_empty() || inputs.len() > self.config.batch_size {
            return Err(AccelError::Config(format!(
                "a session dispatch takes 1..={} inputs (got {})",
                self.config.batch_size,
                inputs.len()
            )));
        }
        run_batch_resolved(self.ops, inputs, &self.config, self.plan, &self.caches)
    }
}

/// Runs a complete single-input inference over the NoC.
///
/// Requires `config.batch_size == 1`; use [`run_inference_batch`] to run
/// several inputs as one traffic phase per layer.
///
/// # Errors
///
/// Returns [`AccelError`] on invalid configuration, flitization failure,
/// a stalled layer, or a receiver-side decode failure.
pub fn run_inference(
    ops: &[InferenceOp],
    input: &Tensor,
    config: &AccelConfig,
) -> Result<InferenceResult, AccelError> {
    if config.batch_size != 1 {
        return Err(AccelError::Config(format!(
            "run_inference requires batch_size 1 (got {}); use run_inference_batch",
            config.batch_size
        )));
    }
    Ok(run_inference_batch(ops, std::slice::from_ref(input), config)?.into_single())
}

/// Runs a batch of inputs through the network, each conv/linear layer
/// transmitting the whole batch's tasks as **one traffic phase**: weight
/// kernels are materialized and sorted once per layer instead of once per
/// input, and the mesh stays busy across inputs instead of draining at
/// every per-input layer boundary.
///
/// `inputs.len()` must equal `config.batch_size`. With `batch_size == 1`
/// this is exactly the single-input driver (pinned by
/// `tests/driver_parity.rs`), and each batched output is bit-identical to
/// the output of a sequential single-input run: every task's MAC depends
/// only on its own operands, never on how the batch's packets interleave
/// in the mesh.
///
/// # Errors
///
/// Returns [`AccelError`] on invalid configuration or batch size,
/// flitization failure, a stalled layer, or a decode failure.
pub fn run_inference_batch(
    ops: &[InferenceOp],
    inputs: &[Tensor],
    config: &AccelConfig,
) -> Result<BatchInferenceResult, AccelError> {
    if inputs.len() != config.batch_size {
        return Err(AccelError::Config(format!(
            "batch_size {} does not match the {} inputs provided",
            config.batch_size,
            inputs.len()
        )));
    }
    InferenceSession::new(ops, config.clone())?.run(inputs)
}

/// The per-call body shared by [`InferenceSession::run`] (and through it
/// every one-shot entry point): `config` is already validated and `plan`
/// already resolved.
fn run_batch_resolved(
    ops: &[InferenceOp],
    inputs: &[Tensor],
    config: &AccelConfig,
    plan: EncodePlan,
    caches: &[LayerEncodeCache],
) -> Result<BatchInferenceResult, AccelError> {
    // Layer geometry and window indexing derive from element 0; a
    // mismatched tensor would read the wrong pixels silently.
    if let Some(bad) = inputs.iter().find(|x| x.shape() != inputs[0].shape()) {
        return Err(AccelError::Config(format!(
            "batch inputs must share one shape: got {:?} and {:?}",
            inputs[0].shape(),
            bad.shape()
        )));
    }
    let mut sim = Simulator::new(config.noc.clone());
    let mut xs: Vec<Tensor> = inputs.to_vec();
    let mut per_layer = Vec::new();
    let mut overhead = WireOverhead::default();

    for (op_index, op) in ops.iter().enumerate() {
        match op {
            InferenceOp::Conv {
                weight,
                bias,
                stride,
                padding,
            } => {
                let geo = ConvGeometry::from_shapes(&xs[0], weight, *stride, *padding);
                let out_shape = [geo.out_channels, geo.out_h, geo.out_w];
                let values = match config.format {
                    DataFormat::Float32 => {
                        let source = LayerTasks::conv(
                            &xs,
                            weight,
                            bias,
                            geo,
                            f32_input_mappers(xs.len()),
                            F32Word::new,
                            F32Word::new,
                        );
                        run_noc_layer_f32(
                            op_index,
                            "conv",
                            &source,
                            config,
                            &mut sim,
                            &mut per_layer,
                            &mut overhead,
                            plan,
                            &caches[op_index],
                        )?
                    }
                    DataFormat::Fixed8 => {
                        let qs = layer_quantizers(&xs, weight, bias, config);
                        let q0 = qs[0];
                        let source = LayerTasks::conv(
                            &xs,
                            weight,
                            bias,
                            geo,
                            fx8_input_mappers(&qs),
                            move |w| q0.weight.quantize_fx8(w),
                            move |b| q0.bias.quantize_fx8(b),
                        );
                        run_noc_layer_fx8(
                            op_index,
                            "conv",
                            &source,
                            &qs,
                            config,
                            &mut sim,
                            &mut per_layer,
                            &mut overhead,
                            plan,
                            &caches[op_index],
                        )?
                    }
                    other => return Err(AccelError::UnsupportedFormat(other)),
                };
                xs = tensors_from(values, &out_shape);
            }
            InferenceOp::Linear { weight, bias } => {
                let out_shape = [weight.shape()[0]];
                let values = match config.format {
                    DataFormat::Float32 => {
                        let source = LayerTasks::linear(
                            &xs,
                            weight,
                            bias,
                            f32_input_mappers(xs.len()),
                            F32Word::new,
                            F32Word::new,
                        );
                        run_noc_layer_f32(
                            op_index,
                            "linear",
                            &source,
                            config,
                            &mut sim,
                            &mut per_layer,
                            &mut overhead,
                            plan,
                            &caches[op_index],
                        )?
                    }
                    DataFormat::Fixed8 => {
                        let qs = layer_quantizers(&xs, weight, bias, config);
                        let q0 = qs[0];
                        let source = LayerTasks::linear(
                            &xs,
                            weight,
                            bias,
                            fx8_input_mappers(&qs),
                            move |w| q0.weight.quantize_fx8(w),
                            move |b| q0.bias.quantize_fx8(b),
                        );
                        run_noc_layer_fx8(
                            op_index,
                            "linear",
                            &source,
                            &qs,
                            config,
                            &mut sim,
                            &mut per_layer,
                            &mut overhead,
                            plan,
                            &caches[op_index],
                        )?
                    }
                    other => return Err(AccelError::UnsupportedFormat(other)),
                };
                xs = tensors_from(values, &out_shape);
            }
            // Memory-side ops run between layers (the layer-level interval).
            other => xs = xs.iter().map(|x| other.execute(x)).collect(),
        }
    }

    Ok(BatchInferenceResult {
        outputs: xs,
        stats: sim.stats(),
        total_cycles: sim.cycle(),
        per_layer,
        index_overhead_bits: overhead.index_bits,
        codec_overhead_bits: overhead.codec_bits,
        edc_overhead_bits: overhead.edc_bits,
        retransmitted_flits: overhead.retransmitted_flits,
        retried_packets: overhead.retried_packets,
    })
}

/// One float-32 input mapper per batch element (the identity encoding).
fn f32_input_mappers<'a>(batch: usize) -> Vec<Box<dyn Fn(f32) -> F32Word + Send + Sync + 'a>> {
    (0..batch)
        .map(|_| Box::new(F32Word::new) as Box<dyn Fn(f32) -> F32Word + Send + Sync + 'a>)
        .collect()
}

/// One fixed-8 activation mapper per batch element (activation scales are
/// per-element; weight/bias scales are shared).
fn fx8_input_mappers<'a>(
    qs: &[LayerQuantizers],
) -> Vec<Box<dyn Fn(f32) -> Fx8Word + Send + Sync + 'a>> {
    qs.iter()
        .map(|&q| {
            Box::new(move |x| q.input.quantize_fx8(x))
                as Box<dyn Fn(f32) -> Fx8Word + Send + Sync + 'a>
        })
        .collect()
}

/// Per-batch-element quantizers for one fixed-8 layer: activation scales
/// derive from each element's own tensor, weight/bias scales from the
/// shared parameters.
fn layer_quantizers(
    xs: &[Tensor],
    weight: &Tensor,
    bias: &Tensor,
    config: &AccelConfig,
) -> Vec<LayerQuantizers> {
    xs.iter()
        .map(|x| LayerQuantizers::derive_with(x, weight, bias, config.global_fx8_weights))
        .collect()
}

/// Reassembles per-element value vectors into output tensors.
fn tensors_from(values: Vec<Vec<f32>>, shape: &[usize]) -> Vec<Tensor> {
    values
        .into_iter()
        .map(|v| Tensor::from_vec(shape, v).expect("task count matches shape"))
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn run_noc_layer_f32(
    op_index: usize,
    op_name: &'static str,
    source: &LayerTasks<F32Word>,
    config: &AccelConfig,
    sim: &mut Simulator,
    per_layer: &mut Vec<LayerTrafficReport>,
    overhead: &mut WireOverhead,
    plan: EncodePlan,
    cache: &LayerEncodeCache,
) -> Result<Vec<Vec<f32>>, AccelError> {
    let responses = run_layer(
        op_index, op_name, source, config, sim, per_layer, overhead, plan, cache,
    )?;
    Ok(responses
        .chunks(source.per_input())
        .map(|chunk| {
            chunk
                .iter()
                .map(|&bits| f32::from_bits(bits as u32))
                .collect()
        })
        .collect())
}

#[allow(clippy::too_many_arguments)]
fn run_noc_layer_fx8(
    op_index: usize,
    op_name: &'static str,
    source: &LayerTasks<Fx8Word>,
    qs: &[LayerQuantizers],
    config: &AccelConfig,
    sim: &mut Simulator,
    per_layer: &mut Vec<LayerTrafficReport>,
    overhead: &mut WireOverhead,
    plan: EncodePlan,
    cache: &LayerEncodeCache,
) -> Result<Vec<Vec<f32>>, AccelError> {
    let responses = run_layer(
        op_index, op_name, source, config, sim, per_layer, overhead, plan, cache,
    )?;
    // The bias code separates the integer dot product from the bias
    // during dequantization; it is per weight group, shared across the
    // batch.
    Ok(responses
        .chunks(source.per_input())
        .enumerate()
        .map(|(b, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(local, &bits)| {
                    let mac = i64::from(bits as u32 as i32);
                    let bias_code = source.bias_word(source.weight_group(local)).code();
                    qs[b].dequantize_response(mac, bias_code)
                })
                .collect()
        })
        .collect())
}

/// Partitions the PEs into one balanced region per MC, each PE joining the
/// nearest non-full MC (Manhattan distance, greedy in node order).
///
/// Each MC serves only its own region, so the average hop count per flit
/// scales with routers-per-MC — the effect behind Fig. 12's observation
/// that the 8×8 mesh with 4 MCs accumulates the most BTs.
pub(crate) fn partition_pes_by_mc(config: &btr_noc::config::NocConfig) -> Vec<Vec<usize>> {
    let mcs = &config.mc_nodes;
    let pes = config.pe_nodes();
    let cap = pes.len().div_ceil(mcs.len());
    let mut regions: Vec<Vec<usize>> = vec![Vec::new(); mcs.len()];
    // Assign PEs in order of how constrained they are (largest distance to
    // their nearest MC first), so central nodes don't fill a far MC early.
    let mut order: Vec<usize> = pes;
    order.sort_by_key(|&pe| {
        std::cmp::Reverse(
            mcs.iter()
                .map(|&mc| btr_noc::routing::hop_count(config, mc, pe))
                .min()
                .unwrap_or(0),
        )
    });
    for pe in order {
        let best = mcs
            .iter()
            .enumerate()
            .filter(|(mi, _)| regions[*mi].len() < cap)
            .min_by_key(|(_, &mc)| btr_noc::routing::hop_count(config, mc, pe))
            .map(|(mi, _)| mi)
            .expect("capacity covers all PEs");
        regions[best].push(pe);
    }
    // Deterministic order within each region.
    for region in &mut regions {
        region.sort_unstable();
    }
    regions
}

/// Side-channel bits accumulated across an inference, out-of-band of the
/// data wires: the O2 re-pairing index, the link codec's invert lines and
/// the EDC check fields — plus the recovery protocol's retry accounting.
#[derive(Debug, Default, Clone, Copy)]
struct WireOverhead {
    index_bits: u64,
    codec_bits: u64,
    edc_bits: u64,
    retransmitted_flits: u64,
    retried_packets: u64,
}

/// The MC-side encode stage: task construction + ordering + flitization +
/// link coding, with the weight flit template cached per kernel group.
/// One instance per layer, borrowed by the layer's task feed.
struct EncodeStage<'a, W: AccelWord> {
    source: &'a LayerTasks<W>,
    session: CodedTransport,
    /// The session-lifetime weight-side cache for this layer:
    /// pre-rendered weight flit templates per kernel group, shared across
    /// the batch and across dispatches.
    cache: &'a LayerEncodeCache,
}

impl<'a, W: AccelWord> EncodeStage<'a, W> {
    fn new(source: &'a LayerTasks<W>, config: &AccelConfig, cache: &'a LayerEncodeCache) -> Self {
        debug_assert_eq!(
            cache.templates.len(),
            source.group_count(),
            "layer cache sized for a different kernel-group count"
        );
        Self {
            source,
            session: CodedTransport::new(TransportConfig {
                ordering: config.ordering,
                tiebreak: config.tiebreak,
                values_per_flit: config.values_per_flit,
                codec: config.codec,
                scope: config.codec_scope,
                edc: config.edc,
            }),
            cache,
        }
    }

    /// Builds and encodes global task `j` the pre-pipeline way: eager
    /// slot-level materialization, full per-task sort, fresh scratch —
    /// the [`DriverMode::Synchronous`] reference the bench trajectory
    /// measures the pipeline against. Deliberately bypasses the template
    /// cache so it stays an independent oracle for the fast path.
    fn encode_reference(&self, j: usize) -> Result<EncodedTask<W>, FlitizeError> {
        self.session.encode_task_reference(&self.source.build(j))
    }

    /// The group's cached encode template: ordered weight fields, bias
    /// and O2 index overhead pre-rendered into flit images, built on the
    /// first task that touches the group and reused for every later task
    /// in the batch — and in later dispatches of the same session.
    fn template(&self, group: usize) -> Result<&EncodeTemplate, FlitizeError> {
        self.cache.templates[group]
            .get_or_init(|| {
                self.session.weight_template(
                    self.source.group_weights(group),
                    self.source.bias_word(group),
                    None,
                    &mut TransportScratch::default(),
                )
            })
            .as_ref()
            .map_err(Clone::clone)
    }

    /// Builds and encodes global task `j` — bit-identical to
    /// `encode_reference`, but through the pre-rendered weight template:
    /// only the activation lanes (and for O2 the input sort + pair index)
    /// are dealt per task (`input_buf` is the reused per-layer window
    /// buffer).
    fn encode(
        &self,
        j: usize,
        scratch: &mut TransportScratch,
        input_buf: &mut Vec<W>,
    ) -> Result<EncodedTask<W>, FlitizeError> {
        let (_weights, _bias) = self.source.operands_into(j, input_buf);
        let template = self.template(self.source.weight_group(j))?;
        self.session
            .encode_with_template(template, input_buf, scratch)
    }
}

/// Where the engine loops get their next wire-ready packet from, and how
/// they decode a delivered one at its PE.
enum TaskFeed<'a, W: AccelWord> {
    /// Uncached inline encode and slot-level decode, serialized with the
    /// simulation — the legacy-faithful [`DriverMode::Synchronous`]
    /// reference.
    Reference { stage: &'a EncodeStage<'a, W> },
    /// Cached inline encode through the session's weight templates, and
    /// the allocation-free decode, both through per-layer reused scratch
    /// — the [`DriverMode::Pipelined`] path. The scratch is boxed (one
    /// allocation per layer) to keep the feed small.
    Inline {
        stage: &'a EncodeStage<'a, W>,
        scratch: Box<TransportScratch>,
        input_buf: Vec<W>,
        recovered: RecoveredTask<W>,
    },
}

impl<W: AccelWord> TaskFeed<'_, W> {
    fn next(&mut self, j: usize) -> Result<EncodedTask<W>, AccelError> {
        match self {
            TaskFeed::Reference { stage } => Ok(stage.encode_reference(j)?),
            TaskFeed::Inline {
                stage,
                scratch,
                input_buf,
                ..
            } => Ok(stage.encode(j, scratch, input_buf)?),
        }
    }

    /// Decodes a request delivered at its PE off the wires, recovers the
    /// pairing and returns the PE's MAC response bits.
    fn decode(&mut self, wire: &TaskWireMeta, flits: &[PayloadBits]) -> Result<u64, AccelError> {
        let decode_err = |e: TransportError| AccelError::Decode(e.to_string());
        match self {
            TaskFeed::Reference { stage } => {
                let recovered = stage
                    .session
                    .decode_task_reference::<W>(wire, flits)
                    .map_err(decode_err)?;
                Ok(W::response_bits(&recovered))
            }
            TaskFeed::Inline {
                stage,
                scratch,
                recovered,
                ..
            } => {
                stage
                    .session
                    .decode_task_into::<W>(wire, flits, scratch, recovered)
                    .map_err(decode_err)?;
                Ok(W::response_bits(recovered))
            }
        }
    }
}

/// Accounting the engine loops hand back to [`run_layer`].
#[derive(Default)]
struct LayerRun {
    responses: Vec<u64>,
    request_flits: u64,
    index_bits: u64,
    codec_bits: u64,
    edc_bits: u64,
}

/// Which engine [`run_layer`] resolved for one layer's traffic phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LayerEngine {
    /// Step the mesh cycle by cycle ([`cycle_loop`]).
    Cycle,
    /// Split engine ([`hybrid_loop`]): the request phase — the bulk of a
    /// layer's flits — replays analytically, the response phase steps
    /// the mesh through the real cycle engine on the closed-form
    /// response schedule. Resolved only when that split is provably
    /// invisible (see [`LayerEngine::resolve`]), so it is bit-identical
    /// to [`cycle_loop`] on per-link BTs, codec-lane states, overheads
    /// and delivered payloads.
    Hybrid,
}

impl LayerEngine {
    /// Resolves the engine for one layer from the configured mode and
    /// the layer's static task→destination assignment.
    ///
    /// `Auto` takes the **hybrid split** when the request route set alone
    /// is contention-free ([`routes_contention_free`], which admits
    /// same-source FIFO-trailing sharing) *and* touches no directed link
    /// any response route touches ([`routes_link_disjoint`]). Then
    /// requests and responses cannot interact anywhere in the mesh — no
    /// shared output port, and (since an input port is fed by exactly one
    /// directed link) no shared input port — so the fully overlapped
    /// cycle engine factors exactly into "requests as if alone" ×
    /// "responses injected at their compute-ready cycles". The request
    /// phase replays analytically (bulk lane kernels), the converging
    /// response phase runs the true cycle engine on the same relative
    /// inject schedule, and every link's flit order is the overlapped
    /// run's. This is the case that matters in practice: DNN response
    /// traffic from many PEs converges on each MC's ejection link, which
    /// no per-link order rule can serialize, while the heavyweight
    /// request fan-out from each MC is naturally single-source per link.
    /// A layer whose combined request+response route set is
    /// contention-free always qualifies: PEs and MCs are disjoint node
    /// sets, so a request and a response never share a source, and no
    /// cross-source sharing in the union means neither within the
    /// requests nor between the two phases.
    ///
    /// Error-injected wires (`ber > 0`) are categorically ineligible:
    /// the analytic replay models a perfect stream, so `Auto` resolves
    /// them to the cycle engine regardless of the route set.
    fn resolve(config: &AccelConfig, dests: &[(usize, usize)]) -> Self {
        let requests = || dests.iter().map(|&(pe, mc)| (mc, pe));
        let responses = || dests.iter().map(|&(pe, mc)| (pe, mc));
        match config.engine {
            EngineMode::Auto
                if !config.noc.injects_errors()
                    && routes_contention_free(&config.noc, requests())
                    && routes_link_disjoint(&config.noc, requests(), responses()) =>
            {
                LayerEngine::Hybrid
            }
            EngineMode::Cycle | EngineMode::Auto => LayerEngine::Cycle,
        }
    }
}

/// Runs one layer's traffic through the resolved engine. Both engines
/// consume the same feed in the same per-MC order and hand back the same
/// accounting; [`LayerEngine::resolve`] decides which one a layer gets.
#[allow(clippy::too_many_arguments)]
fn drive_layer<W: AccelWord>(
    engine: LayerEngine,
    op_index: usize,
    config: &AccelConfig,
    sim: &mut Simulator,
    port: &TaskPort<CodedTransport>,
    dests: &[(usize, usize)],
    per_mc_tasks: &[Vec<usize>],
    feed: &mut TaskFeed<'_, W>,
) -> Result<LayerRun, AccelError> {
    match engine {
        LayerEngine::Cycle => cycle_loop(op_index, config, sim, port, dests, per_mc_tasks, feed),
        LayerEngine::Hybrid => hybrid_loop(op_index, config, sim, port, dests, per_mc_tasks, feed),
    }
}

/// Runs the NI acceptance check on one delivery, mapping the typed
/// protocol outcomes into the driver's error space. `Ok(true)` means the
/// delivery verified clean and should be processed; `Ok(false)` means it
/// was NACKed and its retained original is already re-injected — skip it
/// and keep stepping the mesh.
fn accept_delivery<W: AccelWord>(
    port: &TaskPort<CodedTransport>,
    sim: &mut Simulator,
    d: &DeliveredPacket,
    layer: usize,
) -> Result<bool, AccelError> {
    match port.accept::<W>(sim, d) {
        Ok(Some(_retries)) => Ok(true),
        Ok(None) => Ok(false),
        Err(TransportError::Unrecoverable { retries }) => {
            Err(AccelError::Unrecoverable { layer, retries })
        }
        Err(e) => Err(AccelError::Decode(e.to_string())),
    }
}

/// Runs one conv/linear layer's batch of traffic to completion. Returns
/// the 32-bit response images indexed by global task id (batch-major,
/// then flat output index).
#[allow(clippy::too_many_arguments)]
fn run_layer<W: AccelWord>(
    op_index: usize,
    op_name: &'static str,
    source: &LayerTasks<W>,
    config: &AccelConfig,
    sim: &mut Simulator,
    per_layer: &mut Vec<LayerTrafficReport>,
    overhead: &mut WireOverhead,
    plan: EncodePlan,
    cache: &LayerEncodeCache,
) -> Result<Vec<u64>, AccelError> {
    let mcs = &config.noc.mc_nodes;
    let regions = partition_pes_by_mc(&config.noc);
    let total = source.total();

    // Static assignment: task j -> MC round-robin, then round-robin over
    // that MC's own PE region. O0/O1/O2 runs, both driver modes and every
    // batch element use identical assignments, so BT comparisons are
    // apples-to-apples.
    let dests: Vec<(usize, usize)> = (0..total)
        .map(|j| {
            let mi = j % mcs.len();
            let region = &regions[mi];
            (region[(j / mcs.len()) % region.len()], mcs[mi])
        })
        .collect();
    let mut per_mc_tasks: Vec<Vec<usize>> = vec![Vec::new(); mcs.len()];
    for j in 0..total {
        per_mc_tasks[j % mcs.len()].push(j);
    }

    // The MC-side ordering unit, the link codec and PE-side recovery all
    // live in the shared transport session; the NoC port binds it to the
    // simulator, so both the request and response paths ride the coded
    // wire.
    let stage = EncodeStage::new(source, config, cache);
    // Arm the NI recovery protocol whenever a fault config exists — even
    // at ber = 0, so the EDC verify stays on the receive path and
    // zero-BER equivalence is measured, not assumed.
    let port = match &config.noc.fault {
        Some(fault) => TaskPort::with_recovery(stage.session, fault),
        None => TaskPort::new(stage.session),
    };

    let start_cycle = sim.cycle();
    let transitions_before = sim.stats().total_transitions;
    let engine = LayerEngine::resolve(config, &dests);

    // The schedule was resolved once at session construction
    // ([`EncodePlan::resolve`]).
    let mut feed = match plan {
        EncodePlan::Reference => TaskFeed::Reference { stage: &stage },
        EncodePlan::Inline => TaskFeed::Inline {
            stage: &stage,
            scratch: Box::default(),
            input_buf: Vec::new(),
            recovered: RecoveredTask {
                pairs: Vec::new(),
                bias: W::from_bits_u64(0),
            },
        },
    };
    let run = drive_layer(
        engine,
        op_index,
        config,
        sim,
        &port,
        &dests,
        &per_mc_tasks,
        &mut feed,
    )?;

    let transitions_after = sim.stats().total_transitions;
    per_layer.push(LayerTrafficReport {
        op_index,
        op_name,
        request_packets: total as u64,
        request_flits: run.request_flits,
        cycles: sim.cycle() - start_cycle,
        transitions: transitions_after - transitions_before,
        pairs_per_task: source.pairs_per_task(),
        analytic: engine == LayerEngine::Hybrid,
    });
    overhead.index_bits += run.index_bits;
    overhead.codec_bits += run.codec_bits;
    overhead.edc_bits += run.edc_bits;
    let fault_stats = port.take_fault_stats();
    debug_assert_eq!(fault_stats.failed_packets, 0, "failures surface as errors");
    overhead.retransmitted_flits += fault_stats.retransmitted_flits;
    overhead.retried_packets += fault_stats.recovered_packets;
    Ok(run.responses)
}

/// The per-cycle half of a layer: keep the MC prefetch buffers topped up
/// from the feed, step the mesh, decode deliveries, inject PE responses.
/// Allocation-free per cycle: deliveries drain into one reused buffer and
/// the synchronous feed encodes through reused scratch.
#[allow(clippy::too_many_arguments)]
fn cycle_loop<W: AccelWord>(
    op_index: usize,
    config: &AccelConfig,
    sim: &mut Simulator,
    port: &TaskPort<CodedTransport>,
    dests: &[(usize, usize)],
    per_mc_tasks: &[Vec<usize>],
    feed: &mut TaskFeed<'_, W>,
) -> Result<LayerRun, AccelError> {
    let mcs = &config.noc.mc_nodes;
    let total = dests.len();
    let mut cursors = vec![0usize; mcs.len()];
    let mut wires: Vec<Option<TaskWireMeta>> = vec![None; total];
    let mut responses: Vec<Option<u64>> = vec![None; total];
    let mut remaining = total;
    // (ready_cycle, tag, response_bits) min-heap for PE compute latency.
    let mut compute_queue: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();
    let mut delivered: Vec<DeliveredPacket> = Vec::new();

    let start_cycle = sim.cycle();
    let mut run = LayerRun::default();

    while remaining > 0 {
        // MC-side: keep each prefetch buffer topped up with ordered
        // packets from the feed.
        for (mi, &mc) in mcs.iter().enumerate() {
            while sim.pending_at(mc) < config.mc_prefetch_packets {
                let Some(&j) = per_mc_tasks[mi].get(cursors[mi]) else {
                    break;
                };
                cursors[mi] += 1;
                let encoded = feed.next(j)?;
                let (pe, mc_node) = dests[j];
                let sent = port.send_encoded(sim, mc_node, pe, encoded, j as u64)?;
                run.index_bits += sent.index_overhead_bits;
                run.codec_bits += sent.codec_overhead_bits;
                run.edc_bits += sent.edc_overhead_bits;
                run.request_flits += sent.flit_count as u64;
                wires[j] = Some(sent.meta);
            }
        }

        sim.step();

        // Deliveries: requests at PEs, responses at MCs — each one runs
        // the NI acceptance check first; a NACKed delivery is skipped
        // here and arrives again after its retransmission.
        sim.drain_all_delivered_into(&mut delivered);
        for d in &delivered {
            if !accept_delivery::<W>(port, sim, d, op_index)? {
                continue;
            }
            let j = d.tag as usize;
            if config.noc.is_mc(d.dst) {
                // Response arrived back at its MC: decode off the coded
                // wire through the same session.
                let bits = port
                    .session()
                    .decode_response::<W>(&d.payload_flits)
                    .map_err(|e| AccelError::Decode(e.to_string()))?;
                debug_assert!(responses[j].is_none(), "duplicate response for task {j}");
                responses[j] = Some(bits);
                remaining -= 1;
            } else {
                // Request arrived at a PE: decode off the wires, recover
                // pairing, schedule the MAC result.
                let wire = wires[j].as_ref().expect("request was sent before delivery");
                let bits = feed.decode(wire, &d.payload_flits)?;
                let ready = sim.cycle() + config.pe_latency(wire.num_pairs);
                compute_queue.push(Reverse((ready, j, bits)));
            }
        }

        // PE-side: inject finished responses.
        while let Some(&Reverse((ready, j, bits))) = compute_queue.peek() {
            if ready > sim.cycle() {
                break;
            }
            compute_queue.pop();
            let image = port.session().encode_response::<W>(bits);
            run.codec_bits += u64::from(config.codec.extra_wires());
            run.edc_bits += u64::from(config.edc.extra_wires());
            let (pe, mc_node) = dests[j];
            port.send_flits(sim, pe, mc_node, vec![image], j as u64)?;
        }

        if sim.cycle() - start_cycle > config.max_cycles_per_layer {
            return Err(AccelError::Stall {
                layer: op_index,
                cycles: sim.cycle() - start_cycle,
            });
        }
    }

    run.responses = responses
        .into_iter()
        .map(|bits| bits.expect("all responses collected"))
        .collect();
    Ok(run)
}

/// One computed response staged for injection: `(task index, response
/// bits, compute-ready cycle)`.
type StagedResponse = (usize, u64, u64);

/// The request half of [`hybrid_loop`]: every request is encoded and
/// queued (same per-MC feed order as the cycle loop's prefetch top-up),
/// replayed via [`Simulator::replay_queued_analytic`] — straight
/// XOR+popcount passes over the ordered coded stream, per link, through
/// the bulk codec-lane kernels on per-link-coded wires — then decoded and
/// computed at the PEs. Returns the staged responses as `(task, response bits,
/// compute-ready cycle)` sorted by `(ready, task)` — the exact order the
/// cycle engine's compute heap would pop them, which is each PE's FIFO
/// response-injection order.
#[allow(clippy::too_many_arguments)]
fn replay_request_phase<W: AccelWord>(
    op_index: usize,
    config: &AccelConfig,
    sim: &mut Simulator,
    port: &TaskPort<CodedTransport>,
    dests: &[(usize, usize)],
    per_mc_tasks: &[Vec<usize>],
    feed: &mut TaskFeed<'_, W>,
) -> Result<(Vec<StagedResponse>, LayerRun), AccelError> {
    let total = dests.len();
    let mut wires: Vec<Option<TaskWireMeta>> = vec![None; total];
    let mut run = LayerRun::default();

    // Request phase: queue every task packet at its MC, then replay.
    for tasks in per_mc_tasks {
        for &j in tasks {
            let encoded = feed.next(j)?;
            let (pe, mc_node) = dests[j];
            let sent = port.send_encoded(sim, mc_node, pe, encoded, j as u64)?;
            run.index_bits += sent.index_overhead_bits;
            run.codec_bits += sent.codec_overhead_bits;
            run.edc_bits += sent.edc_overhead_bits;
            run.request_flits += sent.flit_count as u64;
            wires[j] = Some(sent.meta);
        }
    }
    sim.replay_queued_analytic(true);

    // PE side: decode each delivered request off the wires, recover the
    // pairing, compute the MAC (the same receiver path as the cycle loop).
    let mut delivered: Vec<DeliveredPacket> = Vec::new();
    sim.drain_all_delivered_into(&mut delivered);
    debug_assert_eq!(delivered.len(), total, "every request delivered");
    let mut staged: Vec<(usize, u64, u64)> = Vec::with_capacity(total);
    for d in &delivered {
        // The wires are perfect here (error injection forces the cycle
        // engine), so acceptance always passes — but it must run, so the
        // EDC verify and replay-buffer release stay on this path too.
        let accepted = accept_delivery::<W>(port, sim, d, op_index)?;
        debug_assert!(accepted, "analytic wires are perfect");
        let j = d.tag as usize;
        let wire = wires[j].as_ref().expect("request was sent before delivery");
        let bits = feed.decode(wire, &d.payload_flits)?;
        staged.push((j, bits, d.arrival_cycle + config.pe_latency(wire.num_pairs)));
    }
    // Completion order — ready cycle, then task id: exactly the order
    // the cycle engine's compute min-heap pops, so each PE's responses
    // inject in its true FIFO order even when a PE holds several tasks
    // (closed-form arrivals are exact on stall-free request phases, and
    // relative order is all the response phase needs).
    staged.sort_unstable_by_key(|&(j, _, ready)| (ready, j));
    Ok((staged, run))
}

/// The split engine behind [`LayerEngine::Hybrid`]: the request phase —
/// the weight/activation fan-out carrying the bulk of a layer's flits —
/// replays analytically, then the response phase steps the mesh through
/// the **real cycle engine**, injecting each PE's response at its
/// closed-form compute-ready cycle (shifted by a constant, which cannot
/// change any link's flit order: the cycle engine's dynamics depend only
/// on relative inject times).
///
/// Bit-exactness with the fully overlapped [`cycle_loop`] rests on the
/// split condition [`LayerEngine::resolve`] proved: request routes are
/// contention-free (so the replay *is* the request phase's true per-link
/// order and the closed-form ready cycles are exact) and request and
/// response routes are link-disjoint (so neither phase can stall, delay
/// or reorder the other anywhere in the mesh, and the phase split is
/// invisible on every link). Converging response traffic — many PEs
/// funnelling into each MC's ejection link, which no per-link order rule
/// can serialize — is handled by the one engine that resolves it
/// faithfully: the cycle engine itself. Timing fields are the one
/// deviation: the layer's cycle count composes the request makespan and
/// the response phase instead of their overlap.
#[allow(clippy::too_many_arguments)]
fn hybrid_loop<W: AccelWord>(
    op_index: usize,
    config: &AccelConfig,
    sim: &mut Simulator,
    port: &TaskPort<CodedTransport>,
    dests: &[(usize, usize)],
    per_mc_tasks: &[Vec<usize>],
    feed: &mut TaskFeed<'_, W>,
) -> Result<LayerRun, AccelError> {
    let total = dests.len();
    let (staged, mut run) =
        replay_request_phase(op_index, config, sim, port, dests, per_mc_tasks, feed)?;

    // Response phase: drive the cycle engine on the closed-form schedule.
    // `base` anchors the first response at the current clock; offsets
    // between responses are preserved exactly.
    let base = sim.cycle();
    let ready0 = staged.first().map_or(0, |&(.., ready)| ready);
    let mut responses: Vec<Option<u64>> = vec![None; total];
    let mut remaining = total;
    let mut delivered: Vec<DeliveredPacket> = Vec::new();
    let mut idx = 0;
    let start_cycle = sim.cycle();
    while remaining > 0 {
        while let Some(&(j, bits, ready)) = staged.get(idx) {
            if base + (ready - ready0) > sim.cycle() {
                break;
            }
            let image = port.session().encode_response::<W>(bits);
            run.codec_bits += u64::from(config.codec.extra_wires());
            run.edc_bits += u64::from(config.edc.extra_wires());
            let (pe, mc_node) = dests[j];
            port.send_flits(sim, pe, mc_node, vec![image], j as u64)?;
            idx += 1;
        }
        sim.step();
        sim.drain_all_delivered_into(&mut delivered);
        for d in &delivered {
            let accepted = accept_delivery::<W>(port, sim, d, op_index)?;
            debug_assert!(accepted, "hybrid wires are perfect");
            let j = d.tag as usize;
            debug_assert!(config.noc.is_mc(d.dst), "responses terminate at MCs");
            let bits = port
                .session()
                .decode_response::<W>(&d.payload_flits)
                .map_err(|e| AccelError::Decode(e.to_string()))?;
            debug_assert!(responses[j].is_none(), "duplicate response for task {j}");
            responses[j] = Some(bits);
            remaining -= 1;
        }
        if sim.cycle() - start_cycle > config.max_cycles_per_layer {
            return Err(AccelError::Stall {
                layer: op_index,
                cycles: sim.cycle() - start_cycle,
            });
        }
    }
    run.responses = responses
        .into_iter()
        .map(|bits| bits.expect("all responses collected"))
        .collect();
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_core::OrderingMethod;
    use btr_dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
    use btr_dnn::model::{Layer, Sequential};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A small conv net that still exercises conv, pool, activation,
    /// flatten and linear over the NoC.
    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 1, &mut rng)),
            Layer::Activation(Activation::new(ActKind::ReLU)),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(3 * 4 * 4, 5, &mut rng)),
        ])
    }

    fn tiny_input(seed: u64) -> Tensor {
        let mut rng = StdRng::seed_from_u64(seed);
        Tensor::from_vec(
            &[1, 8, 8],
            (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        )
        .unwrap()
    }

    fn config(format: DataFormat, ordering: OrderingMethod) -> AccelConfig {
        AccelConfig::paper(4, 4, 2, format, ordering)
    }

    #[test]
    fn f32_inference_matches_reference() {
        let model = tiny_model(1);
        let ops = model.inference_ops();
        let input = tiny_input(2);
        let reference = model.infer(&input);
        for ordering in OrderingMethod::ALL {
            let result =
                run_inference(&ops, &input, &config(DataFormat::Float32, ordering)).unwrap();
            assert_eq!(result.output.shape(), reference.shape());
            for (got, want) in result.output.data().iter().zip(reference.data().iter()) {
                assert!(
                    (got - want).abs() < 1e-3 * (1.0 + want.abs()),
                    "{ordering}: {got} vs {want}"
                );
            }
            assert!(result.stats.packets_delivered > 0);
            assert!(result.total_cycles > 0);
        }
    }

    #[test]
    fn fx8_outputs_are_identical_across_orderings() {
        // Integer MACs make fixed-8 results bit-exact regardless of
        // transmission order — the paper's "values' integrity" claim.
        let model = tiny_model(3);
        let ops = model.inference_ops();
        let input = tiny_input(4);
        let baseline = run_inference(
            &ops,
            &input,
            &config(DataFormat::Fixed8, OrderingMethod::Baseline),
        )
        .unwrap();
        for ordering in [OrderingMethod::Affiliated, OrderingMethod::Separated] {
            let result =
                run_inference(&ops, &input, &config(DataFormat::Fixed8, ordering)).unwrap();
            assert_eq!(
                result.output.data(),
                baseline.output.data(),
                "{ordering} changed fixed-8 outputs"
            );
        }
    }

    #[test]
    fn ordering_reduces_transitions_on_tiny_model() {
        let model = tiny_model(5);
        let ops = model.inference_ops();
        let input = tiny_input(6);
        let mut totals = Vec::new();
        for ordering in OrderingMethod::ALL {
            let result =
                run_inference(&ops, &input, &config(DataFormat::Fixed8, ordering)).unwrap();
            totals.push(result.stats.total_transitions);
        }
        let (o0, o1, o2) = (totals[0], totals[1], totals[2]);
        assert!(o1 < o0, "affiliated {o1} must beat baseline {o0}");
        assert!(o2 < o0, "separated {o2} must beat baseline {o0}");
        assert!(
            o2 <= o1,
            "separated {o2} should be at least as good as affiliated {o1}"
        );
    }

    #[test]
    fn coded_links_are_lossless_for_fx8_inference() {
        // Fixed-8 outputs are bit-exact across codecs: the PEs and MCs
        // recover every operand and response off the coded wires.
        use btr_core::codec::CodecKind;
        let model = tiny_model(31);
        let ops = model.inference_ops();
        let input = tiny_input(32);
        let plain = run_inference(
            &ops,
            &input,
            &config(DataFormat::Fixed8, OrderingMethod::Separated),
        )
        .unwrap();
        for codec in [CodecKind::BusInvert, CodecKind::DeltaXor] {
            let c = config(DataFormat::Fixed8, OrderingMethod::Separated).with_codec(codec);
            let r = run_inference(&ops, &input, &c).unwrap();
            assert_eq!(
                r.output.data(),
                plain.output.data(),
                "{codec} changed fixed-8 outputs"
            );
            // Same packets and flit counts; only the wire images (and for
            // bus-invert the link width) differ.
            assert_eq!(r.total_request_packets(), plain.total_request_packets());
            assert_eq!(r.total_request_flits(), plain.total_request_flits());
            assert_ne!(
                r.stats.total_transitions, plain.stats.total_transitions,
                "{codec} should change the wire BTs"
            );
        }
    }

    #[test]
    fn coded_links_preserve_f32_inference() {
        use btr_core::codec::CodecKind;
        let model = tiny_model(33);
        let ops = model.inference_ops();
        let input = tiny_input(34);
        let reference = model.infer(&input);
        for codec in CodecKind::ALL {
            let c = config(DataFormat::Float32, OrderingMethod::Affiliated).with_codec(codec);
            let result = run_inference(&ops, &input, &c).unwrap();
            for (got, want) in result.output.data().iter().zip(reference.data().iter()) {
                assert!(
                    (got - want).abs() < 1e-3 * (1.0 + want.abs()),
                    "{codec}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn codec_overhead_is_accounted() {
        use btr_core::codec::CodecKind;
        let model = tiny_model(35);
        let ops = model.inference_ops();
        let input = tiny_input(36);
        let run = |codec| {
            run_inference(
                &ops,
                &input,
                &config(DataFormat::Fixed8, OrderingMethod::Separated).with_codec(codec),
            )
            .unwrap()
        };
        let plain = run(CodecKind::Unencoded);
        let xor = run(CodecKind::DeltaXor);
        let bi = run(CodecKind::BusInvert);
        assert_eq!(plain.codec_overhead_bits, 0);
        assert_eq!(xor.codec_overhead_bits, 0);
        // One invert-line bit per payload flit (requests) + one per
        // response packet.
        let payload_flits = bi.total_request_flits() - bi.total_request_packets();
        assert_eq!(
            bi.codec_overhead_bits,
            payload_flits + bi.total_request_packets()
        );
        // The index side channel is codec-independent.
        assert_eq!(bi.index_overhead_bits, plain.index_overhead_bits);
    }

    #[test]
    fn traffic_identical_across_orderings() {
        // Same packets, flits and assignments; only intra-packet order
        // differs.
        let model = tiny_model(7);
        let ops = model.inference_ops();
        let input = tiny_input(8);
        let mut packet_counts = Vec::new();
        let mut flit_counts = Vec::new();
        for ordering in OrderingMethod::ALL {
            let r = run_inference(&ops, &input, &config(DataFormat::Fixed8, ordering)).unwrap();
            packet_counts.push(r.total_request_packets());
            flit_counts.push(r.total_request_flits());
        }
        assert!(packet_counts.windows(2).all(|w| w[0] == w[1]));
        assert!(flit_counts.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn separated_reports_index_overhead() {
        let model = tiny_model(9);
        let ops = model.inference_ops();
        let input = tiny_input(10);
        let o1 = run_inference(
            &ops,
            &input,
            &config(DataFormat::Fixed8, OrderingMethod::Affiliated),
        )
        .unwrap();
        let o2 = run_inference(
            &ops,
            &input,
            &config(DataFormat::Fixed8, OrderingMethod::Separated),
        )
        .unwrap();
        assert_eq!(o1.index_overhead_bits, 0);
        assert!(o2.index_overhead_bits > 0);
    }

    #[test]
    fn per_layer_reports_cover_noc_ops() {
        let model = tiny_model(11);
        let ops = model.inference_ops();
        let input = tiny_input(12);
        let r = run_inference(
            &ops,
            &input,
            &config(DataFormat::Float32, OrderingMethod::Baseline),
        )
        .unwrap();
        assert_eq!(r.per_layer.len(), 2); // conv + linear
        assert_eq!(r.per_layer[0].op_name, "conv");
        assert_eq!(r.per_layer[1].op_name, "linear");
        // conv on 8x8 with pad 1: 3 channels * 64 pixels = 192 tasks.
        assert_eq!(r.per_layer[0].request_packets, 192);
        assert_eq!(r.per_layer[1].request_packets, 5);
        assert!(r.per_layer.iter().all(|l| l.transitions > 0));
    }

    #[test]
    fn rejects_fixed16() {
        let model = tiny_model(13);
        let ops = model.inference_ops();
        let input = tiny_input(14);
        let mut c = config(DataFormat::Fixed8, OrderingMethod::Baseline);
        c.format = DataFormat::Fixed16;
        c.noc.link_width_bits = 256;
        let err = run_inference(&ops, &input, &c).unwrap_err();
        assert!(matches!(
            err,
            AccelError::UnsupportedFormat(DataFormat::Fixed16)
        ));
    }

    #[test]
    fn sensitivity_options_increase_fx8_reduction() {
        // Value tiebreak + global fixed-8 weights should push the fixed-8
        // separated-ordering reduction beyond the strictly-as-described
        // configuration (see EXPERIMENTS.md).
        let model = tiny_model(21);
        let ops = model.inference_ops();
        let input = tiny_input(22);
        let reduction = |tiebreak, global| -> f64 {
            let mut totals = Vec::new();
            for ordering in [OrderingMethod::Baseline, OrderingMethod::Separated] {
                let mut c = config(DataFormat::Fixed8, ordering);
                c.tiebreak = tiebreak;
                c.global_fx8_weights = global;
                totals.push(
                    run_inference(&ops, &input, &c)
                        .unwrap()
                        .stats
                        .total_transitions,
                );
            }
            1.0 - totals[1] as f64 / totals[0] as f64
        };
        let plain = reduction(btr_core::ordering::TieBreak::Stable, false);
        let boosted = reduction(btr_core::ordering::TieBreak::Value, true);
        assert!(
            boosted > plain,
            "sensitivity options should help: {boosted} vs {plain}"
        );
    }

    #[test]
    fn pe_partition_is_balanced_and_local() {
        use btr_noc::config::NocConfig;
        use btr_noc::routing::hop_count;
        for (w, h, mc) in [(4usize, 4usize, 2usize), (8, 8, 4), (8, 8, 8)] {
            let config = NocConfig::paper_mesh(w, h, mc, 128);
            let regions = partition_pes_by_mc(&config);
            assert_eq!(regions.len(), mc);
            let total: usize = regions.iter().map(Vec::len).sum();
            assert_eq!(total, config.pe_nodes().len());
            let cap = total.div_ceil(mc);
            for region in &regions {
                assert!(region.len() <= cap);
                assert!(!region.is_empty());
            }
            // No PE appears twice.
            let mut all: Vec<usize> = regions.iter().flatten().copied().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), total);
            // Fewer MCs (bigger regions) means longer average distance.
            if mc == 4 {
                let c8 = NocConfig::paper_mesh(8, 8, 8, 128);
                let r8 = partition_pes_by_mc(&c8);
                let avg = |cfg: &NocConfig, regs: &[Vec<usize>]| -> f64 {
                    let mut sum = 0usize;
                    let mut n = 0usize;
                    for (mi, region) in regs.iter().enumerate() {
                        for &pe in region {
                            sum += hop_count(cfg, cfg.mc_nodes[mi], pe);
                            n += 1;
                        }
                    }
                    sum as f64 / n as f64
                };
                assert!(avg(&config, &regions) > avg(&c8, &r8));
            }
        }
    }

    #[test]
    fn encode_plan_resolves_from_the_driver_mode() {
        // The plan is a pure function of the driver mode, on any host,
        // and the session pins it at construction.
        for (driver, plan) in [
            (DriverMode::Synchronous, EncodePlan::Reference),
            (DriverMode::Pipelined, EncodePlan::Inline),
        ] {
            let mut c = config(DataFormat::Fixed8, OrderingMethod::Separated);
            c.driver = driver;
            assert_eq!(EncodePlan::resolve(&c), plan, "{driver}");
            assert_eq!(InferenceSession::new(&[], c).unwrap().plan(), plan);
        }
    }

    #[test]
    fn session_serves_repeated_and_partial_batches() {
        let model = tiny_model(61);
        let ops = model.inference_ops();
        let inputs: Vec<Tensor> = (0..3).map(|i| tiny_input(70 + i)).collect();
        let mut c = config(DataFormat::Fixed8, OrderingMethod::Separated);
        c.batch_size = 4; // the coalescing window, not an exact size
        let session = InferenceSession::new(&ops, c.clone()).unwrap();
        // A partial window dispatch works; each call simulates on a
        // fresh mesh, so repeated calls are bit-identical.
        let a = session.run(&inputs).unwrap();
        let b = session.run(&inputs).unwrap();
        assert_eq!(a.outputs.len(), 3);
        for (x, y) in a.outputs.iter().zip(b.outputs.iter()) {
            assert_eq!(x.data(), y.data());
        }
        assert_eq!(a.stats.total_transitions, b.stats.total_transitions);
        assert_eq!(a.total_cycles, b.total_cycles);
        // ... and matches the one-shot entry point at the exact size.
        let mut exact = c.clone();
        exact.batch_size = 3;
        let oneshot = run_inference_batch(&ops, &inputs, &exact).unwrap();
        for (x, y) in a.outputs.iter().zip(oneshot.outputs.iter()) {
            assert_eq!(x.data(), y.data());
        }
        // Empty and oversized dispatches are rejected.
        assert!(session.run(&[]).is_err());
        let five: Vec<Tensor> = (0..5).map(|i| tiny_input(80 + i)).collect();
        let err = session.run(&five).unwrap_err();
        assert!(err.to_string().contains("1..=4"), "{err}");
    }

    #[test]
    fn engine_modes_agree_on_outputs_and_auto_matches_cycle_bts() {
        use btr_core::codec::CodecKind;
        let model = tiny_model(41);
        let ops = model.inference_ops();
        let input = tiny_input(42);
        let mut base =
            config(DataFormat::Fixed8, OrderingMethod::Separated).with_codec(CodecKind::BusInvert);
        base.engine = EngineMode::Cycle;
        let cycle = run_inference(&ops, &input, &base).unwrap();
        assert_eq!(cycle.analytic_phase_fraction(), 0.0);
        for engine in EngineMode::ALL {
            let mut c = base.clone();
            c.engine = engine;
            let r = run_inference(&ops, &input, &c).unwrap();
            // Fixed-8 MACs are bit-exact regardless of engine: payload
            // delivery is lossless on both paths.
            assert_eq!(r.output.data(), cycle.output.data(), "{engine}");
            assert_eq!(r.total_request_packets(), cycle.total_request_packets());
            assert_eq!(r.total_request_flits(), cycle.total_request_flits());
            assert_eq!(r.index_overhead_bits, cycle.index_overhead_bits);
            assert_eq!(r.codec_overhead_bits, cycle.codec_overhead_bits);
            // Auto falls back wherever eligibility can't be proven and
            // must stay BT-identical to the cycle engine.
            assert_eq!(
                r.stats.total_transitions, cycle.stats.total_transitions,
                "{engine} must be bit-identical to cycle"
            );
            assert_eq!(r.stats.per_link, cycle.stats.per_link);
            assert_eq!(r.stats.flit_hops, cycle.stats.flit_hops);
        }
    }

    #[test]
    fn fault_armed_zero_ber_is_bit_identical() {
        use btr_core::codec::ResyncPolicy;
        use btr_noc::fault::ErrorModel;
        let model = tiny_model(51);
        let ops = model.inference_ops();
        let input = tiny_input(52);
        let base = config(DataFormat::Fixed8, OrderingMethod::Separated);
        let plain = run_inference(&ops, &input, &base).unwrap();
        // Arming the full recovery machinery (packet retention, NI
        // acceptance, recovery counters) over perfect wires with no EDC
        // leaves the run bit-identical: same geometry, wires and clock.
        let armed = base
            .clone()
            .with_fault(ErrorModel::perfect(9), ResyncPolicy::ReseedOnRetry, 8);
        armed.validate().unwrap();
        let r = run_inference(&ops, &input, &armed).unwrap();
        assert_eq!(r.output.data(), plain.output.data());
        assert_eq!(r.stats.total_transitions, plain.stats.total_transitions);
        assert_eq!(r.stats.per_link, plain.stats.per_link);
        assert_eq!(r.total_cycles, plain.total_cycles);
        assert_eq!(r.retransmitted_flits, 0);
        assert_eq!(r.retried_packets, 0);
        assert_eq!(r.edc_overhead_bits, 0);
        // CRC-8 at ber 0: outputs unchanged, the check field's wires are
        // accounted, and nothing retries.
        let checked = base
            .clone()
            .with_edc(btr_core::edc::EdcKind::Crc8)
            .with_fault(ErrorModel::perfect(9), ResyncPolicy::ReseedOnRetry, 8);
        checked.validate().unwrap();
        let r = run_inference(&ops, &input, &checked).unwrap();
        assert_eq!(r.output.data(), plain.output.data());
        assert!(r.edc_overhead_bits > 0);
        // Eight check bits per payload flit: request payload flits
        // (flits minus one head per packet) plus one single-flit
        // response per packet.
        let payload_flits =
            (r.total_request_flits() - r.total_request_packets()) + r.total_request_packets();
        assert_eq!(r.edc_overhead_bits, payload_flits * 8);
        assert_eq!(r.retransmitted_flits, 0);
    }

    #[test]
    fn unreliable_links_recover_bit_exact_outputs() {
        use btr_core::codec::ResyncPolicy;
        use btr_noc::fault::{BitErrorRate, ErrorModel, FaultMode};
        let model = tiny_model(53);
        let ops = model.inference_ops();
        let input = tiny_input(54);
        let base = config(DataFormat::Fixed8, OrderingMethod::Separated);
        let plain = run_inference(&ops, &input, &base).unwrap();
        let mut faulty = base.clone().with_fault(
            ErrorModel {
                ber: BitErrorRate::from_f64(1e-5),
                seed: 7,
                mode: FaultMode::PerFlit,
            },
            ResyncPolicy::ReseedOnRetry,
            32,
        );
        // Auto must classify every error-injected phase ineligible for
        // the analytic fast path.
        faulty.engine = EngineMode::Auto;
        faulty.validate().unwrap();
        let r = run_inference(&ops, &input, &faulty).unwrap();
        assert_eq!(
            r.output.data(),
            plain.output.data(),
            "retransmission recovers every corrupted packet bit-exactly"
        );
        assert!(r.retransmitted_flits > 0, "this seed corrupts packets");
        assert!(r.retried_packets > 0);
        assert_eq!(
            r.analytic_phase_fraction(),
            0.0,
            "faults force the cycle engine"
        );
    }

    #[test]
    fn stall_guard_fires() {
        let model = tiny_model(15);
        let ops = model.inference_ops();
        let input = tiny_input(16);
        let mut c = config(DataFormat::Fixed8, OrderingMethod::Baseline);
        c.max_cycles_per_layer = 2;
        let err = run_inference(&ops, &input, &c).unwrap_err();
        assert!(matches!(err, AccelError::Stall { layer: 0, .. }));
    }
}
