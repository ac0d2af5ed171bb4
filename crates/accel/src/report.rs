//! Inference result and per-layer traffic reports.

use btr_dnn::tensor::Tensor;
use btr_noc::stats::NocStats;

/// Traffic summary of one NoC layer (conv / linear).
#[derive(Debug, Clone)]
pub struct LayerTrafficReport {
    /// Index into the inference-op list.
    pub op_index: usize,
    /// `"conv"` or `"linear"`.
    pub op_name: &'static str,
    /// Task packets sent MC→PE (the same number of responses came back).
    pub request_packets: u64,
    /// Flits injected for requests (head + payload).
    pub request_flits: u64,
    /// Cycles this layer's traffic took to drain.
    pub cycles: u64,
    /// Bit transitions accumulated during this layer (all links).
    pub transitions: u64,
    /// Operand pairs per task.
    pub pairs_per_task: usize,
    /// True when this layer replayed a recording of an earlier layer of
    /// its shape instead of stepping the mesh ([`EngineMode::Auto`]);
    /// false when the cycle engine stepped it. Which dispatch of a
    /// process records a shape depends on which ran first, so this stays
    /// out of the byte-stable sweep and serve fields.
    ///
    /// [`EngineMode::Auto`]: btr_noc::EngineMode::Auto
    pub replayed: bool,
}

/// Result of a full accelerated inference.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// The network output (logits).
    pub output: Tensor,
    /// Aggregate NoC statistics over the complete inference.
    pub stats: NocStats,
    /// Per-NoC-layer traffic breakdown.
    pub per_layer: Vec<LayerTrafficReport>,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Separated-ordering index side-channel overhead, in bits
    /// (zero for O0/O1).
    pub index_overhead_bits: u64,
    /// Link-codec side-channel overhead, in bits: the bus-invert line
    /// bits transmitted alongside the data wires (zero for unencoded and
    /// delta-XOR links).
    pub codec_overhead_bits: u64,
    /// Per-flit EDC check-field overhead, in bits (zero without an EDC).
    pub edc_overhead_bits: u64,
    /// Payload flits the NIs re-sent after NACKed deliveries (zero on
    /// perfect wires).
    pub retransmitted_flits: u64,
    /// Packets that needed at least one retransmission and were
    /// eventually delivered clean.
    pub retried_packets: u64,
}

/// Fraction of NoC layers that replayed a recording: 0.0 under
/// `EngineMode::Cycle`, and under `EngineMode::Auto` the layers whose
/// shape an earlier layer of the process had recorded. Zero when the
/// inference had no NoC layers.
fn analytic_fraction(per_layer: &[LayerTrafficReport]) -> f64 {
    if per_layer.is_empty() {
        return 0.0;
    }
    per_layer.iter().filter(|l| l.replayed).count() as f64 / per_layer.len() as f64
}

impl InferenceResult {
    /// Total request packets across layers.
    #[must_use]
    pub fn total_request_packets(&self) -> u64 {
        self.per_layer.iter().map(|l| l.request_packets).sum()
    }

    /// Total request flits across layers.
    #[must_use]
    pub fn total_request_flits(&self) -> u64 {
        self.per_layer.iter().map(|l| l.request_flits).sum()
    }

    /// Fraction of NoC layers that replayed a recording.
    #[must_use]
    pub fn analytic_phase_fraction(&self) -> f64 {
        analytic_fraction(&self.per_layer)
    }
}

/// Result of a batched inference: `batch_size` inputs ran through every
/// layer as one traffic phase on one simulator, so `stats`, `per_layer`
/// and the overhead counters aggregate the whole batch's traffic.
#[derive(Debug, Clone)]
pub struct BatchInferenceResult {
    /// One network output (logits) per batch element, in input order.
    pub outputs: Vec<Tensor>,
    /// Aggregate NoC statistics over the complete batch.
    pub stats: NocStats,
    /// Per-NoC-layer traffic breakdown (each entry covers the batch).
    pub per_layer: Vec<LayerTrafficReport>,
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Separated-ordering index side-channel overhead, in bits.
    pub index_overhead_bits: u64,
    /// Link-codec side-channel overhead, in bits.
    pub codec_overhead_bits: u64,
    /// Per-flit EDC check-field overhead, in bits.
    pub edc_overhead_bits: u64,
    /// Payload flits the NIs re-sent after NACKed deliveries.
    pub retransmitted_flits: u64,
    /// Packets that retried at least once and were delivered clean.
    pub retried_packets: u64,
}

impl BatchInferenceResult {
    /// Total request packets across layers.
    #[must_use]
    pub fn total_request_packets(&self) -> u64 {
        self.per_layer.iter().map(|l| l.request_packets).sum()
    }

    /// Total request flits across layers.
    #[must_use]
    pub fn total_request_flits(&self) -> u64 {
        self.per_layer.iter().map(|l| l.request_flits).sum()
    }

    /// Fraction of NoC layers that replayed a recording.
    #[must_use]
    pub fn analytic_phase_fraction(&self) -> f64 {
        analytic_fraction(&self.per_layer)
    }

    /// Collapses a single-element batch into an [`InferenceResult`].
    ///
    /// # Panics
    ///
    /// Panics if the batch holds more than one output.
    #[must_use]
    pub fn into_single(mut self) -> InferenceResult {
        assert_eq!(self.outputs.len(), 1, "batch result holds multiple outputs");
        InferenceResult {
            output: self.outputs.pop().expect("one output"),
            stats: self.stats,
            per_layer: self.per_layer,
            total_cycles: self.total_cycles,
            index_overhead_bits: self.index_overhead_bits,
            codec_overhead_bits: self.codec_overhead_bits,
            edc_overhead_bits: self.edc_overhead_bits,
            retransmitted_flits: self.retransmitted_flits,
            retried_packets: self.retried_packets,
        }
    }
}
