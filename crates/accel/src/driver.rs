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
//! inline as its prefetch buffer drains — combining the kernel group's
//! cached weight template (the weight order and flit images are built
//! once per session, not once per output pixel, batch element or
//! dispatch) with the task's activation window (gathered, sorted and
//! rendered once per dispatch, not once per output channel), then
//! link-coding through reused buffers.
//! Host parallelism lives one level up, in sweep cells and serve
//! sessions.
//!
//! Both driver modes inject the identical packet sequence, so they are
//! bit-exact with each other — same per-link bit transitions, cycle
//! counts, recovered MACs and overhead accounting (pinned by
//! `tests/driver_parity.rs`). Batching ([`AccelConfig::batch_size`]) runs
//! N inputs through each layer as one traffic phase on the same mesh.
//!
//! # One engine loop
//!
//! `cycle_loop` steps a layer: requests, PE compute and responses
//! overlap on the mesh cycle by cycle. On perfect wires that run depends
//! only on the layer's shape — task count, flits per request and PE
//! latency — and on the mesh it starts from, never on a payload bit. So
//! under [`EngineMode::Auto`] the first layer of each shape records its
//! stepped run ([`Simulator::record_phase`]) into a store shared by the
//! whole process, and every later layer of that shape, started from the
//! same arbitration pointers, replays it with its own payloads
//! (`replay_layer`) — bit for bit what stepping it would report, clock
//! included.

use crate::config::{pe_latency, AccelConfig, DriverMode, MC_PREFETCH_PACKETS};
use crate::report::{BatchInferenceResult, LayerTrafficReport};
use crate::tasks::{ConvGeometry, LayerQuantizers, LayerTasks, LayerWords};
use btr_bits::word::{DataFormat, DataWord, F32Word, Fx8Word};
use btr_bits::{FlitRows, FlitSlab, PayloadBits};
use btr_core::flitize::{EncodeTemplate, FlitizeError, WindowTable};
use btr_core::ordering::SortScratch;
use btr_core::plan::LanePlan;
use btr_core::task::RecoveredTask;
use btr_core::transport::{
    CodedTransport, EncodedTask, TaskWireMeta, TransportConfig, TransportError, TransportScratch,
};
use btr_dnn::model::InferenceOp;
use btr_dnn::tensor::Tensor;
use btr_noc::analytic::{EngineMode, PhaseRecording, PhaseTraffic};
use btr_noc::session::TaskPort;
use btr_noc::sim::{DeliveredPacket, InjectError, Simulator};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Errors from an inference run ([`InferenceSession::run`],
/// [`run_inference_batch`]).
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

/// Words the accelerator can compute on: how a layer's operands become
/// words, how a PE encodes its MAC result into the 32-bit response image,
/// and how the MC reads that image back as an output value. The driver
/// picks the word type once per conv/linear op from
/// [`AccelConfig::format`]; the rest of a NoC layer is format-agnostic.
pub trait AccelWord: DataWord {
    /// One batch element's operand scales: `()` for float-32 (the
    /// identity encoding derives nothing), the element's
    /// [`LayerQuantizers`] for fixed-8.
    type Scales: Copy + Send + Sync;

    /// Derives one batch element's scales from its activations and the
    /// layer's shared weights and bias (`global_weights` as in
    /// [`LayerQuantizers::derive_with`]).
    fn scales(input: &Tensor, weight: &Tensor, bias: &Tensor, global_weights: bool)
        -> Self::Scales;

    /// Maps an activation to a word.
    fn input_word(scales: Self::Scales, x: f32) -> Self;

    /// Maps a weight to a word.
    fn weight_word(scales: Self::Scales, w: f32) -> Self;

    /// Maps a bias to a word.
    fn bias_word(scales: Self::Scales, b: f32) -> Self;

    /// Encodes the recovered task's MAC result (32-bit field, LSB-first).
    fn response_bits(rec: &RecoveredTask<Self>) -> u64;

    /// The PE's MAC accumulator: `f64` for float-32, `i64` for fixed-8.
    type Acc: Copy;

    /// The empty accumulator — `-0.0` for float-32, where
    /// `Iterator::sum` starts, so a dot product of `-0.0` products keeps
    /// its sign.
    const ACC_ZERO: Self::Acc;

    /// Folds one recovered (input, weight) product into the accumulator.
    fn mac(acc: Self::Acc, input: Self, weight: Self) -> Self::Acc;

    /// Adds the bias last and encodes the 32-bit response image: folded
    /// with [`AccelWord::mac`] from [`AccelWord::ACC_ZERO`] over a task's
    /// pairs in recovered order, this is [`AccelWord::response_bits`] of
    /// the recovered task.
    fn finish(acc: Self::Acc, bias: Self) -> u64;

    /// Reads a delivered 32-bit response image back as the task's output
    /// value; `bias` is the task's bias word.
    fn response_value(scales: Self::Scales, bits: u64, bias: Self) -> f32;
}

impl AccelWord for F32Word {
    type Scales = ();

    fn scales(_: &Tensor, _: &Tensor, _: &Tensor, _: bool) {}

    fn input_word((): (), x: f32) -> Self {
        F32Word::new(x)
    }

    fn weight_word((): (), w: f32) -> Self {
        F32Word::new(w)
    }

    fn bias_word((): (), b: f32) -> Self {
        F32Word::new(b)
    }

    fn response_bits(rec: &RecoveredTask<Self>) -> u64 {
        u64::from((rec.mac_f64() as f32).to_bits())
    }

    type Acc = f64;

    const ACC_ZERO: f64 = -0.0;

    fn mac(acc: f64, input: Self, weight: Self) -> f64 {
        acc + f64::from(input.value()) * f64::from(weight.value())
    }

    fn finish(acc: f64, bias: Self) -> u64 {
        u64::from(((acc + f64::from(bias.value())) as f32).to_bits())
    }

    fn response_value((): (), bits: u64, _bias: Self) -> f32 {
        f32::from_bits(bits as u32)
    }
}

impl AccelWord for Fx8Word {
    type Scales = LayerQuantizers;

    fn scales(
        input: &Tensor,
        weight: &Tensor,
        bias: &Tensor,
        global_weights: bool,
    ) -> Self::Scales {
        LayerQuantizers::derive_with(input, weight, bias, global_weights)
    }

    fn input_word(q: LayerQuantizers, x: f32) -> Self {
        q.input.quantize_fx8(x)
    }

    fn weight_word(q: LayerQuantizers, w: f32) -> Self {
        q.weight.quantize_fx8(w)
    }

    fn bias_word(q: LayerQuantizers, b: f32) -> Self {
        q.bias.quantize_fx8(b)
    }

    fn response_bits(rec: &RecoveredTask<Self>) -> u64 {
        let mac = rec.mac_i64();
        debug_assert!(
            i64::from(mac as i32) == mac,
            "integer MAC overflowed the 32-bit response field"
        );
        u64::from(mac as i32 as u32)
    }

    type Acc = i64;

    const ACC_ZERO: i64 = 0;

    fn mac(acc: i64, input: Self, weight: Self) -> i64 {
        acc + i64::from(input.code()) * i64::from(weight.code())
    }

    fn finish(acc: i64, bias: Self) -> u64 {
        let mac = acc + i64::from(bias.code());
        debug_assert!(
            i64::from(mac as i32) == mac,
            "integer MAC overflowed the 32-bit response field"
        );
        u64::from(mac as i32 as u32)
    }

    /// The bias code separates the integer dot product from the bias
    /// during dequantization.
    fn response_value(q: LayerQuantizers, bits: u64, bias: Self) -> f32 {
        q.dequantize_response(i64::from(bits as u32 as i32), bias.code())
    }
}

/// A reusable inference session: one validated [`AccelConfig`] serving
/// any number of [`run`](InferenceSession::run) calls over the same
/// lowered ops.
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
    /// One encode cache per op: the pre-rendered weight flit templates of
    /// each conv/linear layer's kernel groups.
    /// Weights never change within a session, so templates built lazily
    /// by the first dispatch are shared across the batch dimension and
    /// across every subsequent [`run`](InferenceSession::run) call.
    caches: Vec<LayerEncodeCache>,
}

/// Per-layer encode cache: the lazily pre-rendered [`EncodeTemplate`]
/// of every kernel group — the "weight-side work happens once per
/// session, not once per task" amortization, the kernel-side twin of the
/// per-dispatch [`WindowTable`] the [`EncodeStage`] prepares — and the
/// layer's [`LanePlan`], which the PE decode folds through. Each entry is
/// built by the first dispatch that needs it.
#[derive(Debug, Default)]
struct LayerEncodeCache {
    templates: Vec<OnceLock<Result<EncodeTemplate, FlitizeError>>>,
    plan: OnceLock<Result<LanePlan, FlitizeError>>,
}

impl LayerEncodeCache {
    fn with_groups(groups: usize) -> Self {
        Self {
            templates: (0..groups).map(|_| OnceLock::new()).collect(),
            plan: OnceLock::new(),
        }
    }

    /// Kernel group `group`'s template, built on the first call that
    /// touches the group and reused for every later task in the batch —
    /// and in later dispatches of the same session.
    fn template<W: AccelWord>(
        &self,
        group: usize,
        session: &CodedTransport,
        source: &LayerTasks<W>,
    ) -> Result<&EncodeTemplate, FlitizeError> {
        self.templates[group]
            .get_or_init(|| {
                session.weight_template(
                    source.group_weights(group),
                    source.bias_word(group),
                    None,
                    &mut TransportScratch::default(),
                )
            })
            .as_ref()
            .map_err(Clone::clone)
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
    /// Validates `config` once.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::Config`] when the configuration is
    /// internally inconsistent.
    pub fn new(ops: &'a [InferenceOp], config: AccelConfig) -> Result<Self, AccelError> {
        config.validate().map_err(AccelError::Config)?;
        let caches = LayerEncodeCache::for_ops(ops);
        Ok(Self {
            ops,
            config,
            caches,
        })
    }

    /// The session's configuration.
    #[must_use]
    pub fn config(&self) -> &AccelConfig {
        &self.config
    }

    /// The driver mode every [`run`](InferenceSession::run) encodes with:
    /// `config().driver`.
    #[must_use]
    pub fn plan(&self) -> DriverMode {
        self.config.driver
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
        // Layer geometry and window indexing derive from element 0; a
        // mismatched tensor would read the wrong pixels silently.
        if let Some(bad) = inputs.iter().find(|x| x.shape() != inputs[0].shape()) {
            return Err(AccelError::Config(format!(
                "batch inputs must share one shape: got {:?} and {:?}",
                inputs[0].shape(),
                bad.shape()
            )));
        }
        let mut run = InferenceRun {
            config: &self.config,
            sim: Simulator::new(self.config.noc.clone()),
            per_layer: Vec::new(),
            overhead: WireOverhead::default(),
            windows: WindowTable::default(),
            delivered: Vec::new(),
        };
        let mut xs: Vec<Tensor> = inputs.to_vec();
        for (op_index, op) in self.ops.iter().enumerate() {
            let cache = &self.caches[op_index];
            xs = match self.config.format {
                // Memory-side ops run between layers (the layer-level interval).
                _ if !op.is_noc_op() => xs.iter().map(|x| op.execute(x)).collect(),
                DataFormat::Float32 => run.run_noc_layer::<F32Word>(op_index, op, &xs, cache)?,
                DataFormat::Fixed8 => run.run_noc_layer::<Fx8Word>(op_index, op, &xs, cache)?,
            };
        }
        let overhead = run.overhead;
        Ok(BatchInferenceResult {
            outputs: xs,
            stats: run.sim.stats(),
            total_cycles: run.sim.cycle(),
            per_layer: run.per_layer,
            index_overhead_bits: overhead.index_bits,
            codec_overhead_bits: overhead.codec_bits,
            edc_overhead_bits: overhead.edc_bits,
            retransmitted_flits: overhead.retransmitted_flits,
            retried_packets: overhead.retried_packets,
        })
    }
}

/// Runs a batch of inputs through the network, each conv/linear layer
/// transmitting the whole batch's tasks as **one traffic phase**: weight
/// kernels are materialized and sorted once per layer instead of once per
/// input, and the mesh stays busy across inputs instead of draining at
/// every per-input layer boundary.
///
/// `inputs.len()` must equal `config.batch_size`; a single input runs at
/// `batch_size == 1`. Each batched output is bit-identical to the output
/// of a sequential single-input run (pinned by `tests/driver_parity.rs`):
/// every task's MAC depends only on its own operands, never on how the
/// batch's packets interleave in the mesh.
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

/// One dispatch's state across its layers: the mesh (one simulator for
/// the whole inference, so link recorders accumulate every layer's bit
/// transitions), the per-layer traffic reports and the side-channel
/// overheads, plus the buffers each layer refills: its activation
/// windows and the cycle loop's deliveries (handed back to the
/// simulator's buffer pool, so the pool survives layer boundaries).
struct InferenceRun<'a> {
    config: &'a AccelConfig,
    sim: Simulator,
    per_layer: Vec<LayerTrafficReport>,
    overhead: WireOverhead,
    windows: WindowTable,
    delivered: Vec<DeliveredPacket>,
}

impl InferenceRun<'_> {
    /// Runs one conv or linear op over the NoC with words of type `W`:
    /// maps the batch's operands to words ([`LayerWords`]), sends its
    /// tasks as one traffic phase ([`InferenceRun::run_layer`]) and reads
    /// the responses back as the op's output tensors.
    fn run_noc_layer<W: AccelWord>(
        &mut self,
        op_index: usize,
        op: &InferenceOp,
        xs: &[Tensor],
        cache: &LayerEncodeCache,
    ) -> Result<Vec<Tensor>, AccelError> {
        let (weight, bias) = match op {
            InferenceOp::Conv { weight, bias, .. } | InferenceOp::Linear { weight, bias } => {
                (weight, bias)
            }
            _ => {
                return Err(AccelError::Config(format!(
                    "op {op_index} is not a conv or linear layer"
                )))
            }
        };
        let words = LayerWords::<W>::derive(xs, weight, bias, self.config.global_fx8_weights);
        let (inputs, to_weight, to_bias) = words.mappers();
        let (op_name, source, out_shape) = match *op {
            InferenceOp::Conv {
                stride, padding, ..
            } => {
                let geo = ConvGeometry::from_shapes(&xs[0], weight, stride, padding);
                let source = LayerTasks::conv(xs, weight, bias, geo, inputs, to_weight, to_bias);
                ("conv", source, vec![geo.out_channels, geo.out_h, geo.out_w])
            }
            _ => {
                let source = LayerTasks::linear(xs, weight, bias, inputs, to_weight, to_bias);
                ("linear", source, vec![weight.shape()[0]])
            }
        };
        let responses = self.run_layer(op_index, op_name, &source, cache)?;
        Ok(responses
            .chunks(source.per_input())
            .enumerate()
            .map(|(b, chunk)| {
                let values = chunk
                    .iter()
                    .enumerate()
                    .map(|(local, &bits)| {
                        words.output(b, bits, source.bias_word(source.weight_group(local)))
                    })
                    .collect();
                Tensor::from_vec(&out_shape, values).expect("task count matches shape")
            })
            .collect())
    }

    /// Runs one conv/linear layer's batch of traffic to completion and
    /// books its report and overheads. Returns the 32-bit response images
    /// indexed by global task id (batch-major, then flat output index).
    ///
    /// The cycle engine steps the layer ([`cycle_loop`]), except under
    /// [`EngineMode::Auto`] on perfect wires: there a layer whose shape
    /// and start state were recorded before replays the recording
    /// ([`replay_layer`]), and any other layer records itself while it
    /// steps.
    fn run_layer<W: AccelWord>(
        &mut self,
        op_index: usize,
        op_name: &'static str,
        source: &LayerTasks<W>,
        cache: &LayerEncodeCache,
    ) -> Result<Vec<u64>, AccelError> {
        let config = self.config;
        let total = source.total();
        let tasks = TaskAssignment {
            mcs: &config.noc.mc_nodes,
            regions: partition_pes_by_mc(&config.noc),
            total,
        };

        // The MC-side ordering unit, the link codec and PE-side recovery all
        // live in the shared transport session; the NoC port binds it to the
        // simulator, so both the request and response paths ride the coded
        // wire.
        let stage = EncodeStage::new(source, config, cache, &mut self.windows)?;
        // Arm the NI recovery protocol whenever a fault config exists — even
        // at ber = 0, so the EDC verify stays on the receive path and
        // zero-BER equivalence is measured, not assumed.
        let port = match &config.noc.fault {
            Some(fault) => TaskPort::with_recovery(stage.session, fault),
            None => TaskPort::new(stage.session),
        };
        let layer = LayerTraffic {
            op_index,
            config,
            port,
            tasks,
        };

        let sim = &mut self.sim;
        let start_cycle = sim.cycle();
        let transitions_before = sim.stats().total_transitions;
        let mut feed = TaskFeed::new(&stage, config.driver);
        let shape = match (config.engine, stage.plan) {
            (EngineMode::Auto, Ok(plan)) if !config.noc.injects_errors() => {
                Some(LayerShape::of(source, plan))
            }
            _ => None,
        };
        let recording = shape.and_then(|shape| recorded_layer(&shape, sim));
        let run = match &recording {
            Some(recording) => replay_layer(&layer, sim, &mut feed, recording)?,
            None => {
                if shape.is_some() {
                    sim.record_phase();
                }
                let run = cycle_loop(&layer, sim, &mut feed, &mut self.delivered)?;
                if let (Some(shape), Some(recording)) = (shape, sim.finish_recording()) {
                    store_layer(shape, recording);
                }
                run
            }
        };

        let transitions_after = sim.stats().total_transitions;
        self.per_layer.push(LayerTrafficReport {
            op_index,
            op_name,
            request_packets: total as u64,
            request_flits: run.request_flits,
            cycles: sim.cycle() - start_cycle,
            transitions: transitions_after - transitions_before,
            pairs_per_task: source.pairs_per_task(),
            replayed: recording.is_some(),
        });
        let overhead = &mut self.overhead;
        overhead.index_bits += run.index_bits;
        overhead.codec_bits += run.codec_bits;
        overhead.edc_bits += run.edc_bits;
        let fault_stats = layer.port.take_fault_stats();
        debug_assert_eq!(fault_stats.failed_packets, 0, "failures surface as errors");
        overhead.retransmitted_flits += fault_stats.retransmitted_flits;
        overhead.retried_packets += fault_stats.recovered_packets;
        Ok(run.into_responses())
    }
}

/// The MC-side encode stage: task construction + ordering + flitization +
/// link coding, with the weight flit template cached per kernel group and
/// the activation windows prepared once per layer dispatch.
/// One instance per layer, borrowed by the layer's task feed.
///
/// A task is its group's template (built once per session) combined with
/// its activation window (prepared once per dispatch): every output
/// channel of a conv pixel, and every neuron of a linear layer, reads the
/// same window, so the stage gathers and (under O2) sorts each window
/// once into a [`WindowTable`] instead of once per task.
struct EncodeStage<'a, W: AccelWord> {
    source: &'a LayerTasks<W>,
    session: CodedTransport,
    /// The layer's lane plan: every task of a layer has the same pair
    /// count, so one plan (built by the session's first dispatch)
    /// decodes them all.
    plan: &'a Result<LanePlan, FlitizeError>,
    /// The session-lifetime cache for this layer: pre-rendered weight
    /// flit templates per kernel group, shared across the batch and
    /// across dispatches.
    cache: &'a LayerEncodeCache,
    /// This dispatch's activation windows, one per batch element and
    /// output pixel (conv) or batch element (linear), in
    /// [`LayerTasks::window_of`] order; empty under
    /// [`DriverMode::Synchronous`], whose reference encode gathers per
    /// task.
    windows: &'a WindowTable,
}

impl<'a, W: AccelWord> EncodeStage<'a, W> {
    /// The stage of one layer dispatch; under [`DriverMode::Pipelined`]
    /// it gathers, sorts and renders every activation window of the
    /// batch into `windows` (emptied first, its buffers reused).
    fn new(
        source: &'a LayerTasks<W>,
        config: &AccelConfig,
        cache: &'a LayerEncodeCache,
        windows: &'a mut WindowTable,
    ) -> Result<Self, FlitizeError> {
        debug_assert_eq!(
            cache.templates.len(),
            source.group_count(),
            "layer cache sized for a different kernel-group count"
        );
        let session = CodedTransport::new(TransportConfig {
            ordering: config.ordering,
            tiebreak: config.tiebreak,
            values_per_flit: config.values_per_flit,
            codec: config.codec,
            scope: config.codec_scope,
            edc: config.edc,
        });
        if config.driver == DriverMode::Pipelined {
            // Every group's template shares the window layout.
            windows.reset(cache.template(0, &session, source)?, source.window_count());
            let (mut sort, mut perm, mut inputs) = (SortScratch::default(), Vec::new(), Vec::new());
            for window in 0..source.window_count() {
                source.window_into(window, &mut inputs);
                windows.push(&inputs, config.tiebreak, &mut sort, &mut perm);
            }
        }
        Ok(Self {
            source,
            session,
            plan: cache.plan.get_or_init(|| {
                LanePlan::for_word::<W>(
                    config.ordering,
                    source.pairs_per_task(),
                    config.values_per_flit,
                )
            }),
            cache,
            windows,
        })
    }

    /// Builds and encodes global task `j` the pre-pipeline way: eager
    /// slot-level materialization, full per-task sort, fresh scratch —
    /// the [`DriverMode::Synchronous`] reference the bench trajectory
    /// measures the pipeline against. Deliberately bypasses the template
    /// cache and the window table so it stays an independent oracle for
    /// the fast path.
    fn encode_reference(&self, j: usize) -> Result<EncodedTask<W>, FlitizeError> {
        self.session.encode_task_reference(&self.source.build(j))
    }

    /// Encodes global task `j` into `out` — bit-identical to
    /// `encode_reference`, but as its group's cached template combined
    /// with its prepared activation window: two row copies and, for O2,
    /// the pair index off the cached permutations, into buffers reused
    /// task after task.
    fn encode_into(&self, j: usize, out: &mut EncodedTask<W>) -> Result<(), FlitizeError> {
        let template =
            self.cache
                .template(self.source.weight_group(j), &self.session, self.source)?;
        let window = self.windows.window(self.source.window_of(j));
        self.session.encode_window_into(template, window, out);
        Ok(())
    }
}

/// Where a layer gets its next wire-ready packet from, and how it
/// decodes a delivered one at its PE.
///
/// With [`DriverMode::Pipelined`] a task is encoded from the session's
/// weight templates and the dispatch's activation windows into
/// [`TaskFeed::encoded`], whose rows and O2 index buffer are reused task
/// after task, and decoded by the plan kernel folding straight into the
/// MAC; with [`DriverMode::Synchronous`] both ends run the uncached
/// slot-level reference.
struct TaskFeed<'a, W: AccelWord> {
    stage: &'a EncodeStage<'a, W>,
    reference: bool,
    /// The last encoded task: what the layer sends next.
    encoded: EncodedTask<W>,
    /// The PE side.
    pe: PeDecoder<'a, W>,
}

impl<'a, W: AccelWord> TaskFeed<'a, W> {
    fn new(stage: &'a EncodeStage<'a, W>, mode: DriverMode) -> Self {
        let reference = mode == DriverMode::Synchronous;
        Self {
            stage,
            reference,
            encoded: stage.session.task_buffer(),
            pe: PeDecoder {
                stage,
                reference,
                scratch: Box::default(),
            },
        }
    }

    /// Encodes global task `j` into [`TaskFeed::encoded`].
    fn encode(&mut self, j: usize) -> Result<(), AccelError> {
        if self.reference {
            self.encoded = self.stage.encode_reference(j)?;
        } else {
            self.stage.encode_into(j, &mut self.encoded)?;
        }
        Ok(())
    }
}

/// The PE side of a [`TaskFeed`]: decodes a delivered request and
/// computes its MAC response.
struct PeDecoder<'a, W: AccelWord> {
    stage: &'a EncodeStage<'a, W>,
    reference: bool,
    scratch: Box<TransportScratch>,
}

impl<W: AccelWord> PeDecoder<'_, W> {
    /// Decodes a request delivered at its PE off the wires, recovers the
    /// pairing and returns the PE's MAC response bits.
    fn decode(
        &mut self,
        wire: &TaskWireMeta,
        flits: &(impl FlitRows + ?Sized),
    ) -> Result<u64, AccelError> {
        let decode_err = |e: TransportError| AccelError::Decode(e.to_string());
        let session = &self.stage.session;
        if self.reference {
            let recovered = session
                .decode_task_reference::<W>(wire, flits)
                .map_err(decode_err)?;
            return Ok(W::response_bits(&recovered));
        }
        let plan = self.stage.plan.as_ref().map_err(Clone::clone)?;
        let (acc, bias) = session
            .decode_fold(plan, wire, flits, &mut self.scratch, W::ACC_ZERO, W::mac)
            .map_err(decode_err)?;
        Ok(W::finish(acc, bias))
    }
}

/// One layer's fixed traffic inputs, borrowed by [`cycle_loop`] or
/// [`replay_layer`]; both hand back the same [`LayerRun`] accounting.
struct LayerTraffic<'a> {
    op_index: usize,
    config: &'a AccelConfig,
    /// The NI port binding the layer's transport session to the mesh.
    port: TaskPort<CodedTransport>,
    tasks: TaskAssignment<'a>,
}

/// One layer's static task assignment: task `j` goes to MC `j % mcs`
/// round-robin, then round-robin over that MC's own PE region. O0/O1/O2
/// runs, both driver modes and every batch element use identical
/// assignments, so BT comparisons are apples-to-apples.
struct TaskAssignment<'a> {
    mcs: &'a [usize],
    /// Per MC: its PE region ([`partition_pes_by_mc`]).
    regions: Vec<Vec<usize>>,
    total: usize,
}

impl TaskAssignment<'_> {
    /// Task `j`'s `(pe, mc)` pair.
    fn dest(&self, j: usize) -> (usize, usize) {
        let mi = j % self.mcs.len();
        let region = &self.regions[mi];
        (region[(j / self.mcs.len()) % region.len()], self.mcs[mi])
    }

    /// MC `mi`'s tasks, in feed order.
    fn mc_tasks(&self, mi: usize) -> impl Iterator<Item = usize> {
        (mi..self.total).step_by(self.mcs.len())
    }
}

impl LayerTraffic<'_> {
    /// Runs the NI acceptance check on one delivery, mapping the typed
    /// protocol outcomes into the driver's error space. `Ok(true)` means
    /// the delivery verified clean and should be processed; `Ok(false)`
    /// means it was NACKed and its retained original is already
    /// re-injected — skip it and keep stepping the mesh.
    fn accept<W: AccelWord>(
        &self,
        sim: &mut Simulator,
        d: &DeliveredPacket,
    ) -> Result<bool, AccelError> {
        match self.port.accept::<W>(sim, d) {
            Ok(Some(_retries)) => Ok(true),
            Ok(None) => Ok(false),
            Err(e) => Err(acceptance_error(e, self.op_index)),
        }
    }

    /// The stall guard: fails the layer once it has spent more than the
    /// configured cycle budget since `start_cycle`.
    fn check_stall(&self, sim: &Simulator, start_cycle: u64) -> Result<(), AccelError> {
        let cycles = sim.cycle() - start_cycle;
        if cycles > self.config.max_cycles_per_layer {
            return Err(AccelError::Stall {
                layer: self.op_index,
                cycles,
            });
        }
        Ok(())
    }
}

/// Maps a failed NI acceptance check into the driver's error space.
fn acceptance_error(e: TransportError, layer: usize) -> AccelError {
    match e {
        TransportError::Unrecoverable { retries } => AccelError::Unrecoverable { layer, retries },
        e => AccelError::Decode(e.to_string()),
    }
}

/// What a layer accumulates for [`InferenceRun::run_layer`], whichever
/// way it runs: the request-side wire accounting, the wire metadata of
/// requests in flight, and the responses collected at the MCs. Both the
/// cycle loop and the replay send and receive every packet through it.
#[derive(Default)]
struct LayerRun {
    /// Wire metadata of the requests in flight, in entries reused once
    /// their request is decoded (with their O2 index buffers).
    metas: Vec<TaskWireMeta>,
    /// Entries of `metas` free for the next request.
    free_metas: Vec<u32>,
    /// Per global task: its entry in `metas` while its request is in
    /// flight.
    meta_of: Vec<u32>,
    /// Per global task: its response bits once decoded at the MC. A
    /// replayed layer also keeps the PE's MAC result here from the
    /// request's delivery until its response is queued.
    responses: Vec<u64>,
    /// Responses not yet collected.
    remaining: usize,
    request_flits: u64,
    index_bits: u64,
    codec_bits: u64,
    edc_bits: u64,
}

impl LayerRun {
    fn new(total: usize) -> Self {
        Self {
            meta_of: vec![0; total],
            responses: vec![0; total],
            remaining: total,
            ..Self::default()
        }
    }

    /// MC side: encodes task `j` into `feed`'s buffer and books its
    /// request's wire accounting and metadata.
    fn encode_request<W: AccelWord>(
        &mut self,
        feed: &mut TaskFeed<'_, W>,
        j: usize,
    ) -> Result<(), AccelError> {
        feed.encode(j)?;
        let encoded = &feed.encoded;
        self.index_bits += encoded.index_overhead_bits();
        self.codec_bits += encoded.codec_overhead_bits();
        self.edc_bits += encoded.edc_overhead_bits();
        self.request_flits += encoded.wire_rows().len() as u64 + 1;
        let entry = self.free_metas.pop().unwrap_or_else(|| {
            self.metas.push(TaskWireMeta {
                num_pairs: 0,
                pair_index: None,
            });
            (self.metas.len() - 1) as u32
        });
        let (kept, meta) = (&mut self.metas[entry as usize], encoded.meta());
        kept.num_pairs = meta.num_pairs;
        kept.pair_index.clone_from(&meta.pair_index);
        self.meta_of[j] = entry;
        Ok(())
    }

    /// PE side: decodes task `j`'s request delivered off the wires,
    /// recovers the pairing and returns the MAC response bits.
    fn decode_request<W: AccelWord>(
        &mut self,
        feed: &mut TaskFeed<'_, W>,
        j: usize,
        flits: &(impl FlitRows + ?Sized),
    ) -> Result<u64, AccelError> {
        let entry = self.meta_of[j];
        self.free_metas.push(entry);
        feed.pe.decode(&self.metas[entry as usize], flits)
    }

    /// PE side: encodes a computed response onto the coded wire and
    /// accounts its side-channel wires.
    fn encode_response<W: AccelWord>(&mut self, layer: &LayerTraffic, bits: u64) -> PayloadBits {
        self.codec_bits += u64::from(layer.config.codec.extra_wires());
        self.edc_bits += u64::from(layer.config.edc.extra_wires());
        layer.port.session().encode_response::<W>(bits)
    }

    /// MC side: decodes task `j`'s response delivered back at its MC off
    /// the coded wire, through the same session.
    fn receive_response<W: AccelWord>(
        &mut self,
        layer: &LayerTraffic,
        j: usize,
        payload: &(impl FlitRows + ?Sized),
    ) -> Result<(), AccelError> {
        let bits = layer
            .port
            .session()
            .decode_response::<W>(payload)
            .map_err(|e| AccelError::Decode(e.to_string()))?;
        self.responses[j] = bits;
        self.remaining -= 1;
        Ok(())
    }

    /// The collected 32-bit response images, indexed by global task id.
    fn into_responses(self) -> Vec<u64> {
        debug_assert_eq!(self.remaining, 0, "all responses collected");
        self.responses
    }
}

/// The timing inputs of a layer's traffic besides the mesh and its start
/// state. On perfect wires [`cycle_loop`] queues each packet at a cycle
/// fixed by the task count, the flits of each request and the PE latency
/// (the MC prefetch depth is a constant) — never by a payload bit — so
/// two layers of one shape started on the same mesh state step
/// identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LayerShape {
    tasks: usize,
    /// Payload flits of every request (every task of a layer has the
    /// same pair count, so the same lane plan).
    request_flits: usize,
    pe_latency: u64,
}

impl LayerShape {
    fn of<W: AccelWord>(source: &LayerTasks<W>, plan: &LanePlan) -> Self {
        Self {
            tasks: source.total(),
            request_flits: plan.num_flits(),
            pe_latency: pe_latency(source.pairs_per_task()),
        }
    }
}

/// Every layer recorded in this process, by shape: sessions, serve pools
/// and sweep cells all share it. A recording replays only on its own
/// mesh configuration and start pointers, and a replay is bit-exact with
/// stepping, so which of them recorded a layer cannot change a number.
static RECORDINGS: Mutex<Vec<(LayerShape, Arc<PhaseRecording>)>> = Mutex::new(Vec::new());

/// The recorded layers. Entries are only ever pushed whole, so a lock
/// poisoned by a panicking dispatch is recovered.
fn recordings() -> std::sync::MutexGuard<'static, Vec<(LayerShape, Arc<PhaseRecording>)>> {
    RECORDINGS.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The recording of a `shape` layer that replays on `sim` as it stands.
fn recorded_layer(shape: &LayerShape, sim: &Simulator) -> Option<Arc<PhaseRecording>> {
    recordings()
        .iter()
        .find(|(key, recording)| key == shape && recording.replays(sim))
        .map(|(_, recording)| Arc::clone(recording))
}

/// Keeps `recording` for later layers of `shape`, unless another
/// dispatch stored the same recording meanwhile.
fn store_layer(shape: LayerShape, recording: PhaseRecording) {
    let mut store = recordings();
    if !store
        .iter()
        .any(|(key, known)| *key == shape && **known == recording)
    {
        store.push((shape, Arc::new(recording)));
    }
}

/// The per-cycle engine loop of a layer: keep the MC prefetch buffers
/// topped up from the feed, step the mesh, decode deliveries, inject PE
/// responses. Allocation-free per cycle: deliveries drain into
/// `delivered` (reused layer after layer, so the simulator's buffer pool
/// takes their payload buffers back), and the pipelined feed
/// ([`TaskFeed`]) encodes into a reused task buffer and decodes through
/// the layer's lane plan; the packet a request becomes owns the one copy
/// of its images.
fn cycle_loop<W: AccelWord>(
    layer: &LayerTraffic,
    sim: &mut Simulator,
    feed: &mut TaskFeed<'_, W>,
    delivered: &mut Vec<DeliveredPacket>,
) -> Result<LayerRun, AccelError> {
    let config = layer.config;
    let mcs = &config.noc.mc_nodes;
    let mut feeds: Vec<_> = (0..mcs.len()).map(|mi| layer.tasks.mc_tasks(mi)).collect();
    // Every task of a layer carries the same operand pairs.
    let pe_latency = pe_latency(feed.stage.source.pairs_per_task());
    // (ready_cycle, tag, response_bits) min-heap for PE compute latency.
    let mut compute_queue: BinaryHeap<Reverse<(u64, usize, u64)>> = BinaryHeap::new();

    let start_cycle = sim.cycle();
    let mut run = LayerRun::new(layer.tasks.total);

    while run.remaining > 0 {
        // MC-side: keep each prefetch buffer topped up with ordered
        // packets from the feed.
        for (mi, &mc) in mcs.iter().enumerate() {
            while sim.pending_at(mc) < MC_PREFETCH_PACKETS {
                let Some(j) = feeds[mi].next() else {
                    break;
                };
                run.encode_request(feed, j)?;
                let (pe, mc_node) = layer.tasks.dest(j);
                layer
                    .port
                    .send_rows(sim, mc_node, pe, feed.encoded.wire_rows(), j as u64)?;
            }
        }

        sim.step();

        // Deliveries: requests at PEs, responses at MCs — each one runs
        // the NI acceptance check first; a NACKed delivery is skipped
        // here and arrives again after its retransmission.
        sim.drain_all_delivered_into(delivered);
        for d in delivered.iter() {
            if !layer.accept::<W>(sim, d)? {
                continue;
            }
            let j = d.tag as usize;
            if config.noc.is_mc(d.dst) {
                run.receive_response::<W>(layer, j, &d.payload_flits)?;
            } else {
                // Request arrived at a PE: decode off the wires, recover
                // pairing, schedule the MAC result.
                let bits = run.decode_request(feed, j, &d.payload_flits)?;
                let ready = sim.cycle() + pe_latency;
                compute_queue.push(Reverse((ready, j, bits)));
            }
        }

        // PE-side: inject finished responses.
        while let Some(&Reverse((ready, j, bits))) = compute_queue.peek() {
            if ready > sim.cycle() {
                break;
            }
            compute_queue.pop();
            let image = run.encode_response::<W>(layer, bits);
            let (pe, mc_node) = layer.tasks.dest(j);
            layer
                .port
                .send_rows(sim, pe, mc_node, std::slice::from_ref(&image), j as u64)?;
        }

        layer.check_stall(sim, start_cycle)?;
    }
    Ok(run)
}

/// The replayed twin of [`cycle_loop`]: `recording` — the cycle loop's
/// own run of a layer of the same shape from the same start state —
/// walks the layer's packets through the mesh with this dispatch's
/// payloads ([`Simulator::replay_phase`]). Each request is encoded when
/// its MC queued it, decoded at its PE on delivery, and its MAC result
/// becomes the rows of its response; each response is decoded at its
/// MC. Every delivery runs the NI's EDC check, as in the cycle loop.
fn replay_layer<W: AccelWord>(
    layer: &LayerTraffic,
    sim: &mut Simulator,
    feed: &mut TaskFeed<'_, W>,
    recording: &PhaseRecording,
) -> Result<LayerRun, AccelError> {
    // The cycle loop would have stopped at the first cycle over budget.
    if recording.cycles() > layer.config.max_cycles_per_layer {
        return Err(AccelError::Stall {
            layer: layer.op_index,
            cycles: layer.config.max_cycles_per_layer + 1,
        });
    }
    let mut replay = LayerReplay {
        layer,
        feed,
        run: LayerRun::new(layer.tasks.total),
        response: FlitSlab::new(layer.config.noc.link_width_bits),
    };
    sim.replay_phase(recording, &mut replay)?;
    Ok(replay.run)
}

/// The accelerator's side of a replayed layer ([`replay_layer`]).
struct LayerReplay<'r, 'l, 'f, W: AccelWord> {
    layer: &'r LayerTraffic<'l>,
    feed: &'r mut TaskFeed<'f, W>,
    run: LayerRun,
    /// The response being queued, as one wire row.
    response: FlitSlab,
}

impl<W: AccelWord> PhaseTraffic for LayerReplay<'_, '_, '_, W> {
    type Error = AccelError;
    type Rows = FlitSlab;

    fn send(&mut self, src: usize, _dst: usize, tag: u64) -> Result<&FlitSlab, AccelError> {
        let j = tag as usize;
        if self.layer.config.noc.is_mc(src) {
            self.run.encode_request(self.feed, j)?;
            return Ok(self.feed.encoded.wire_rows());
        }
        // The PE's MAC result, kept since the request's delivery.
        let image = self
            .run
            .encode_response::<W>(self.layer, self.run.responses[j]);
        self.response.reset(image.width());
        self.response.push_row_padded(image.used_words());
        Ok(&self.response)
    }

    fn deliver(
        &mut self,
        _src: usize,
        dst: usize,
        tag: u64,
        payload: &FlitSlab,
    ) -> Result<(), AccelError> {
        let layer = self.layer;
        layer
            .port
            .accept_streamed::<W>(payload)
            .map_err(|e| acceptance_error(e, layer.op_index))?;
        let j = tag as usize;
        if layer.config.noc.is_mc(dst) {
            self.run.receive_response::<W>(layer, j, payload)
        } else {
            self.run.responses[j] = self.run.decode_request(self.feed, j, payload)?;
            Ok(())
        }
    }
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

    /// One input through the batch entry point (`batch_size` 1).
    fn infer_one(
        ops: &[InferenceOp],
        input: &Tensor,
        config: &AccelConfig,
    ) -> Result<BatchInferenceResult, AccelError> {
        run_inference_batch(ops, std::slice::from_ref(input), config)
    }

    #[test]
    fn f32_inference_matches_reference() {
        let model = tiny_model(1);
        let ops = model.inference_ops();
        let input = tiny_input(2);
        let reference = model.infer(&input);
        for ordering in OrderingMethod::ALL {
            let result = infer_one(&ops, &input, &config(DataFormat::Float32, ordering)).unwrap();
            assert_eq!(result.outputs[0].shape(), reference.shape());
            for (got, want) in result.outputs[0].data().iter().zip(reference.data().iter()) {
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
        let baseline = infer_one(
            &ops,
            &input,
            &config(DataFormat::Fixed8, OrderingMethod::Baseline),
        )
        .unwrap();
        for ordering in [OrderingMethod::Affiliated, OrderingMethod::Separated] {
            let result = infer_one(&ops, &input, &config(DataFormat::Fixed8, ordering)).unwrap();
            assert_eq!(
                result.outputs[0].data(),
                baseline.outputs[0].data(),
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
            let result = infer_one(&ops, &input, &config(DataFormat::Fixed8, ordering)).unwrap();
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
        let plain = infer_one(
            &ops,
            &input,
            &config(DataFormat::Fixed8, OrderingMethod::Separated),
        )
        .unwrap();
        for codec in [CodecKind::BusInvert, CodecKind::DeltaXor] {
            let c = config(DataFormat::Fixed8, OrderingMethod::Separated).with_codec(codec);
            let r = infer_one(&ops, &input, &c).unwrap();
            assert_eq!(
                r.outputs[0].data(),
                plain.outputs[0].data(),
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
            let result = infer_one(&ops, &input, &c).unwrap();
            for (got, want) in result.outputs[0].data().iter().zip(reference.data().iter()) {
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
            infer_one(
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
            let r = infer_one(&ops, &input, &config(DataFormat::Fixed8, ordering)).unwrap();
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
        let o1 = infer_one(
            &ops,
            &input,
            &config(DataFormat::Fixed8, OrderingMethod::Affiliated),
        )
        .unwrap();
        let o2 = infer_one(
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
        let r = infer_one(
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
    fn each_format_picks_its_word_type_for_conv_and_linear_first_models() {
        // The word type is chosen once per conv/linear op, so pin that
        // choice for a model opening with each op kind.
        let mut rng = StdRng::seed_from_u64(82);
        let linear_first = Sequential::new(vec![
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(64, 6, &mut rng)),
            Layer::Activation(Activation::new(ActKind::ReLU)),
            Layer::Linear(Linear::new(6, 3, &mut rng)),
        ]);
        let input = tiny_input(83);
        for (name, model) in [
            ("conv-first", tiny_model(81)),
            ("linear-first", linear_first),
        ] {
            let ops = model.inference_ops();
            for format in [DataFormat::Float32, DataFormat::Fixed8] {
                let run = |driver| {
                    let mut c = config(format, OrderingMethod::Separated);
                    c.driver = driver;
                    infer_one(&ops, &input, &c).unwrap()
                };
                let sync = run(DriverMode::Synchronous);
                let piped = run(DriverMode::Pipelined);
                match format {
                    DataFormat::Float32 => {
                        let want = model.infer(&input);
                        for result in [sync, piped] {
                            let got = &result.outputs[0];
                            assert_eq!(got.shape(), want.shape(), "{name}");
                            for (g, w) in got.data().iter().zip(want.data()) {
                                assert!(
                                    (g - w).abs() < 1e-3 * (1.0 + w.abs()),
                                    "{name}: {g} vs {w}"
                                );
                            }
                        }
                    }
                    DataFormat::Fixed8 => {
                        let bits = |r: BatchInferenceResult| -> Vec<u32> {
                            r.outputs[0].data().iter().map(|v| v.to_bits()).collect()
                        };
                        assert_eq!(bits(sync), bits(piped), "{name}");
                    }
                }
            }
        }
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
                totals.push(infer_one(&ops, &input, &c).unwrap().stats.total_transitions);
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
    fn a_recording_of_another_schedule_is_stepped_not_replayed() {
        // Recordings are process-wide, so this test runs conv geometries
        // no other test runs (kernels 5 and 7, padded to an 8×8 output):
        // no recording of its shapes exists before it records them. A
        // dispatch whose layers differ from the recorded ones in one
        // timing input — the batch size (task count), or the kernel
        // (flits per request and PE latency) — steps every layer; one of
        // a recorded shape replays every layer. Either way it equals the
        // cycle engine on every reported number, clock included.
        use btr_core::codec::{CodecKind, CodecScope};
        let model = |kernel: usize, classes: usize| {
            let mut rng = StdRng::seed_from_u64(91);
            Sequential::new(vec![
                Layer::Conv2d(Conv2d::new(1, 2, kernel, 1, kernel / 2, &mut rng)),
                Layer::Activation(Activation::new(ActKind::ReLU)),
                Layer::MaxPool2d(MaxPool2d::new(2, 2)),
                Layer::Flatten(Flatten::new()),
                Layer::Linear(Linear::new(2 * 4 * 4, classes, &mut rng)),
            ])
            .inference_ops()
        };
        let inputs = [tiny_input(92), tiny_input(93)];
        let mut c = config(DataFormat::Fixed8, OrderingMethod::Separated)
            .with_codec(CodecKind::DeltaXor)
            .with_codec_scope(CodecScope::PerLink);
        c.engine = EngineMode::Auto;
        c.batch_size = 2;
        let run = |ops: &[InferenceOp], inputs: &[Tensor]| {
            let auto = InferenceSession::new(ops, c.clone())
                .unwrap()
                .run(inputs)
                .unwrap();
            let mut cycle = c.clone();
            cycle.engine = EngineMode::Cycle;
            let want = InferenceSession::new(ops, cycle)
                .unwrap()
                .run(inputs)
                .unwrap();
            assert_eq!(auto.stats, want.stats);
            assert_eq!(auto.total_cycles, want.total_cycles);
            for (x, y) in auto.outputs.iter().zip(&want.outputs) {
                assert_eq!(x.data(), y.data());
            }
            auto.per_layer
                .iter()
                .map(|l| l.replayed)
                .collect::<Vec<_>>()
        };
        for (kernel, classes, batch) in [(5, 4, 2), (5, 4, 1), (7, 5, 2)] {
            let ops = model(kernel, classes);
            let what = format!("kernel {kernel}, batch {batch}");
            let first = run(&ops, &inputs[..batch]);
            assert!(first.iter().all(|&r| !r), "{what} stepped: {first:?}");
            let again = run(&ops, &inputs[..batch]);
            assert!(again.iter().all(|&r| r), "{what} replayed: {again:?}");
        }
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
        let cycle = infer_one(&ops, &input, &base).unwrap();
        assert_eq!(cycle.analytic_phase_fraction(), 0.0);
        for engine in EngineMode::ALL {
            let mut c = base.clone();
            c.engine = engine;
            let r = infer_one(&ops, &input, &c).unwrap();
            // Fixed-8 MACs are bit-exact regardless of engine: payload
            // delivery is lossless on both paths.
            assert_eq!(r.outputs[0].data(), cycle.outputs[0].data(), "{engine}");
            assert_eq!(r.total_request_packets(), cycle.total_request_packets());
            assert_eq!(r.total_request_flits(), cycle.total_request_flits());
            assert_eq!(r.index_overhead_bits, cycle.index_overhead_bits);
            assert_eq!(r.codec_overhead_bits, cycle.codec_overhead_bits);
            // Auto steps or replays each layer and must stay
            // BT-identical to the cycle engine.
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
        let plain = infer_one(&ops, &input, &base).unwrap();
        // Arming the full recovery machinery (packet retention, NI
        // acceptance, recovery counters) over perfect wires with no EDC
        // leaves the run bit-identical: same geometry, wires and clock.
        let armed = base
            .clone()
            .with_fault(ErrorModel::perfect(9), ResyncPolicy::ReseedOnRetry, 8);
        armed.validate().unwrap();
        let r = infer_one(&ops, &input, &armed).unwrap();
        assert_eq!(r.outputs[0].data(), plain.outputs[0].data());
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
        let r = infer_one(&ops, &input, &checked).unwrap();
        assert_eq!(r.outputs[0].data(), plain.outputs[0].data());
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
        let plain = infer_one(&ops, &input, &base).unwrap();
        let mut faulty = base.clone().with_fault(
            ErrorModel {
                ber: BitErrorRate::from_f64(1e-5),
                seed: 7,
                mode: FaultMode::PerFlit,
            },
            ResyncPolicy::ReseedOnRetry,
            32,
        );
        // Auto never records or replays error-injected layers.
        faulty.engine = EngineMode::Auto;
        faulty.validate().unwrap();
        let r = infer_one(&ops, &input, &faulty).unwrap();
        assert_eq!(
            r.outputs[0].data(),
            plain.outputs[0].data(),
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
        let err = infer_one(&ops, &input, &c).unwrap_err();
        assert!(matches!(err, AccelError::Stall { layer: 0, .. }));
    }
}
