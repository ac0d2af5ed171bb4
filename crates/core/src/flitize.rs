//! Half-half flitization (Fig. 2) and ordered packet construction (Fig. 4).
//!
//! A [`crate::task::NeuronTask`] is serialized into payload flits where each
//! flit's **left half carries inputs** and **right half carries weights**
//! (then the bias, then zero padding). This keeps weights aligned on the
//! same link wires across consecutive flits so that weight-only ordering
//! (O1) still produces monotone popcount columns in the weight half.
//!
//! The ordering methods permute values **only among the slots occupied in
//! the baseline layout** — padded zeros and the bias stay in place ("we do
//! not order the padded zeros", Sec. IV-A) — so O0/O1/O2 packets are
//! identical except for the transmission order of the same values.

use crate::ordering::{
    placement_by_original_index, round_robin_assignment, OrderingMethod, SortScratch, TieBreak,
};
use crate::plan::LanePlan;
use crate::task::{NeuronTask, RecoveredTask};
use crate::transport::TransportScratch;
use btr_bits::payload::{PayloadBits, MAX_WIDTH_BITS};
use btr_bits::slab::FlitSlab;
use btr_bits::word::DataWord;

/// One slot of a flit: which value class occupies a word lane.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Slot<W> {
    /// An input (activation) operand.
    Input(W),
    /// A weight operand.
    Weight(W),
    /// The bias operand.
    Bias(W),
    /// Zero padding (kernel size did not fill the flit).
    Pad,
}

impl<W: DataWord> Slot<W> {
    /// The raw bits this slot drives onto its word lane.
    #[must_use]
    pub fn bits_u64(&self) -> u64 {
        match self {
            Slot::Input(w) | Slot::Weight(w) | Slot::Bias(w) => w.bits_u64(),
            Slot::Pad => 0,
        }
    }
}

/// One payload flit: `values_per_flit` word lanes.
#[derive(Debug, Clone, PartialEq)]
pub struct FlitRow<W> {
    slots: Vec<Slot<W>>,
}

impl<W: DataWord> FlitRow<W> {
    fn padded(values_per_flit: usize) -> Self {
        Self {
            slots: vec![Slot::Pad; values_per_flit],
        }
    }

    /// The slots of this flit (length = values per flit).
    #[must_use]
    pub fn slots(&self) -> &[Slot<W>] {
        &self.slots
    }

    /// Renders the flit as its link image: slot `s` occupies bits
    /// `[s·WIDTH, (s+1)·WIDTH)`, inputs in the low-offset (left) half.
    #[must_use]
    pub fn payload_bits(&self) -> PayloadBits {
        let width = W::WIDTH * self.slots.len() as u32;
        let mut p = PayloadBits::zero(width);
        for (s, slot) in self.slots.iter().enumerate() {
            p.set_field(s as u32 * W::WIDTH, W::WIDTH, slot.bits_u64());
        }
        p
    }
}

/// Errors from [`order_task_with`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FlitizeError {
    /// `values_per_flit` must be an even number ≥ 2 for half-half layout.
    OddValuesPerFlit(usize),
    /// The resulting link width would exceed [`MAX_WIDTH_BITS`].
    LinkTooWide {
        /// Requested link width in bits.
        requested: u32,
    },
    /// More value ranks than the u16 pair index can address.
    TooManyValues(usize),
}

impl std::fmt::Display for FlitizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FlitizeError::OddValuesPerFlit(v) => {
                write!(
                    f,
                    "values per flit must be even and >= 2 for half-half layout, got {v}"
                )
            }
            FlitizeError::LinkTooWide { requested } => {
                write!(
                    f,
                    "link width {requested} exceeds the supported maximum {MAX_WIDTH_BITS}"
                )
            }
            FlitizeError::TooManyValues(n) => {
                write!(f, "task with {n} pairs exceeds the u16 pair-index range")
            }
        }
    }
}

impl std::error::Error for FlitizeError {}

/// Errors from [`OrderedTask::recover`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// A slot expected to hold a value class held something else.
    SlotMismatch {
        /// Flit index of the offending slot.
        flit: usize,
        /// Slot index within the flit.
        slot: usize,
    },
    /// Separated-ordering packet arrived without its pair index.
    MissingPairIndex,
    /// The O2 pair index does not pair up the packet's ranks: its length
    /// differs from the pair count, or a partner rank is out of range.
    BadPairIndex {
        /// Entries in the index.
        len: usize,
        /// Pairs the head flit announced.
        num_pairs: usize,
    },
    /// The packet's pair count is not the one the layer's lane plan was
    /// built for.
    PlanMismatch {
        /// Pairs the head flit announced.
        num_pairs: usize,
    },
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::SlotMismatch { flit, slot } => {
                write!(f, "unexpected slot contents at flit {flit}, slot {slot}")
            }
            RecoverError::MissingPairIndex => {
                write!(
                    f,
                    "separated-ordering packet is missing its pair index side channel"
                )
            }
            RecoverError::PlanMismatch { num_pairs } => write!(
                f,
                "a {num_pairs}-pair packet does not fit the layer's lane plan"
            ),
            RecoverError::BadPairIndex { len, num_pairs } => write!(
                f,
                "pair index of {len} entries does not pair up {num_pairs} ranks"
            ),
        }
    }
}

impl std::error::Error for RecoverError {}

/// Occupancy of the half-half layout for a task of `n` pairs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HalfHalfLayout {
    /// Word lanes per flit (inputs use the first half, weights the second).
    pub values_per_flit: usize,
    /// Number of payload flits in the packet.
    pub num_flits: usize,
    /// Occupied input slots per flit (row-major split of `n`).
    pub input_occupancy: Vec<usize>,
    /// Occupied weight slots per flit, excluding the bias.
    pub weight_occupancy: Vec<usize>,
    /// `(flit, slot-within-weight-half)` of the bias.
    pub bias_position: (usize, usize),
}

/// Computes the half-half occupancy for `n` input/weight pairs.
///
/// # Panics
///
/// Panics if `values_per_flit` is odd or `< 2`, or `n == 0` (checked by the
/// public entry points).
#[must_use]
pub fn half_half_layout(n: usize, values_per_flit: usize) -> HalfHalfLayout {
    assert!(values_per_flit >= 2 && values_per_flit.is_multiple_of(2));
    assert!(n > 0);
    let half = values_per_flit / 2;
    // The weight half also carries the bias: n + 1 values.
    let num_flits = (n + 1).div_ceil(half).max(n.div_ceil(half));
    let row_major = |count: usize| -> Vec<usize> {
        (0..num_flits)
            .map(|f| count.saturating_sub(f * half).min(half))
            .collect()
    };
    HalfHalfLayout {
        values_per_flit,
        num_flits,
        input_occupancy: row_major(n),
        weight_occupancy: row_major(n),
        bias_position: (n / half, n % half),
    }
}

/// A task serialized into ordered flits, ready for transmission.
///
/// Produced by [`order_task_with`]; consumed by the NoC layer (via
/// [`OrderedTask::payload_flits`]) and by the receiving PE (via
/// [`OrderedTask::recover`]).
#[derive(Debug, Clone, PartialEq)]
pub struct OrderedTask<W> {
    method: OrderingMethod,
    values_per_flit: usize,
    num_pairs: usize,
    flits: Vec<FlitRow<W>>,
    /// For separated-ordering: `pair_index[input_rank] = weight_rank` of the
    /// paired weight — the paper's "minimal-bit-width index" side channel.
    pair_index: Option<Vec<u16>>,
}

impl<W: DataWord> OrderedTask<W> {
    /// The ordering method this packet was built with.
    #[must_use]
    pub fn method(&self) -> OrderingMethod {
        self.method
    }

    /// Number of (input, weight) pairs carried.
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.num_pairs
    }

    /// Word lanes per flit.
    #[must_use]
    pub fn values_per_flit(&self) -> usize {
        self.values_per_flit
    }

    /// The payload flits in transmission order.
    #[must_use]
    pub fn flits(&self) -> &[FlitRow<W>] {
        &self.flits
    }

    /// Link images of the payload flits, in transmission order.
    #[must_use]
    pub fn payload_flits(&self) -> Vec<PayloadBits> {
        self.flits.iter().map(FlitRow::payload_bits).collect()
    }

    /// The separated-ordering pair index, if any.
    #[must_use]
    pub fn pair_index(&self) -> Option<&[u16]> {
        self.pair_index.as_deref()
    }

    /// Side-channel overhead of the separated-ordering index in bits:
    /// `N · ceil(log2 N)` (zero for O0/O1).
    #[must_use]
    pub fn index_overhead_bits(&self) -> u64 {
        index_overhead_bits_for(self.method, self.num_pairs)
    }

    /// Reconstructs the paired operands at the receiver, exercising the
    /// paper's recovery paths: slot pairing for O0/O1 ("no decoding
    /// process"), index lookup for O2.
    ///
    /// # Errors
    ///
    /// Returns [`RecoverError`] if the layout is inconsistent (corrupted
    /// packet) or a separated packet lost its index.
    pub fn recover(&self) -> Result<RecoveredTask<W>, RecoverError> {
        let layout = half_half_layout(self.num_pairs, self.values_per_flit);
        let half = self.values_per_flit / 2;

        let assign: Vec<(usize, usize)> = match self.method {
            OrderingMethod::Baseline => (0..self.num_pairs).map(|l| (l / half, l % half)).collect(),
            OrderingMethod::Affiliated | OrderingMethod::Separated => {
                round_robin_assignment(&layout.weight_occupancy)
            }
        };

        let input_at = |rank: usize| -> Result<W, RecoverError> {
            let (f, s) = assign[rank];
            match self.flits[f].slots()[s] {
                Slot::Input(w) => Ok(w),
                _ => Err(RecoverError::SlotMismatch { flit: f, slot: s }),
            }
        };
        let weight_at = |rank: usize| -> Result<W, RecoverError> {
            let (f, s) = assign[rank];
            match self.flits[f].slots()[half + s] {
                Slot::Weight(w) => Ok(w),
                _ => Err(RecoverError::SlotMismatch {
                    flit: f,
                    slot: half + s,
                }),
            }
        };

        let mut pairs = Vec::with_capacity(self.num_pairs);
        match self.method {
            OrderingMethod::Baseline | OrderingMethod::Affiliated => {
                for rank in 0..self.num_pairs {
                    pairs.push((input_at(rank)?, weight_at(rank)?));
                }
            }
            OrderingMethod::Separated => {
                let index = self
                    .pair_index
                    .as_ref()
                    .ok_or(RecoverError::MissingPairIndex)?;
                if index.len() != self.num_pairs
                    || index.iter().any(|&p| usize::from(p) >= self.num_pairs)
                {
                    return Err(RecoverError::BadPairIndex {
                        len: index.len(),
                        num_pairs: self.num_pairs,
                    });
                }
                for (rank, &partner) in index.iter().enumerate() {
                    pairs.push((input_at(rank)?, weight_at(partner as usize)?));
                }
            }
        }

        let (bf, bs) = layout.bias_position;
        let bias = match self.flits[bf].slots()[half + bs] {
            Slot::Bias(w) => w,
            _ => {
                return Err(RecoverError::SlotMismatch {
                    flit: bf,
                    slot: half + bs,
                })
            }
        };
        Ok(RecoveredTask { pairs, bias })
    }
}

impl<W: DataWord> OrderedTask<W> {
    /// Reconstructs an `OrderedTask` from the raw link images a receiver
    /// collected, given the packet metadata a head flit carries (`method`,
    /// `num_pairs`, `values_per_flit`) and, for separated-ordering, the
    /// index side channel.
    ///
    /// This is the receiving PE's wire-level decode path: the occupied slot
    /// structure is fully determined by `num_pairs` and `values_per_flit`,
    /// so each lane's bit field can be re-typed without ambiguity.
    ///
    /// # Errors
    ///
    /// Returns [`FlitizeError`] for invalid geometry and
    /// [`RecoverError::MissingPairIndex`] (wrapped in `Ok(Err(..))`-free
    /// form: the error type is `FlitizeError`) if the flit count does not
    /// match the expected layout.
    pub fn from_payload_flits(
        method: OrderingMethod,
        num_pairs: usize,
        values_per_flit: usize,
        pair_index: Option<Vec<u16>>,
        flits: &[PayloadBits],
    ) -> Result<Self, FlitizeError> {
        if values_per_flit < 2 || !values_per_flit.is_multiple_of(2) {
            return Err(FlitizeError::OddValuesPerFlit(values_per_flit));
        }
        if num_pairs > usize::from(u16::MAX) || num_pairs == 0 {
            return Err(FlitizeError::TooManyValues(num_pairs));
        }
        let layout = half_half_layout(num_pairs, values_per_flit);
        if flits.len() != layout.num_flits {
            return Err(FlitizeError::TooManyValues(flits.len()));
        }
        let half = values_per_flit / 2;
        let mut rows: Vec<FlitRow<W>> = (0..layout.num_flits)
            .map(|_| FlitRow::padded(values_per_flit))
            .collect();
        let lane = |p: &PayloadBits, s: usize| -> W {
            W::from_bits_u64(p.field(s as u32 * W::WIDTH, W::WIDTH))
        };
        for (f, p) in flits.iter().enumerate() {
            for s in 0..layout.input_occupancy[f] {
                rows[f].slots[s] = Slot::Input(lane(p, s));
            }
            for s in 0..layout.weight_occupancy[f] {
                rows[f].slots[half + s] = Slot::Weight(lane(p, half + s));
            }
        }
        let (bf, bs) = layout.bias_position;
        rows[bf].slots[half + bs] = Slot::Bias(lane(&flits[bf], half + bs));
        Ok(Self {
            method,
            values_per_flit,
            num_pairs,
            flits: rows,
            pair_index,
        })
    }
}

/// Serializes a task into ordered half-half flits, breaking popcount
/// ties by `tiebreak` (see [`TieBreak`]; `Stable` is the paper's
/// popcount-only comparator).
///
/// * `Baseline` (O0): natural row-major order.
/// * `Affiliated` (O1): *(weight, input)* pairs placed by descending weight
///   popcount, round-robin across flits (Fig. 3a).
/// * `Separated` (O2): weights and inputs placed independently by their own
///   popcounts (Fig. 3b); the returned packet carries the re-pairing index.
///
/// This is the slot-level oracle for the template encode path
/// ([`build_encode_template`] + [`render_window`]): it sorts
/// the task's own weights and materializes every slot, so the two share
/// no code beyond the layout and the ordering kernel.
///
/// # Errors
///
/// Returns [`FlitizeError`] if `values_per_flit` is odd/too small, the link
/// would be wider than [`MAX_WIDTH_BITS`], or the task has more pairs than
/// the u16 index can address.
pub fn order_task_with<W: DataWord>(
    task: &NeuronTask<W>,
    method: OrderingMethod,
    values_per_flit: usize,
    tiebreak: TieBreak,
) -> Result<OrderedTask<W>, FlitizeError> {
    if values_per_flit < 2 || !values_per_flit.is_multiple_of(2) {
        return Err(FlitizeError::OddValuesPerFlit(values_per_flit));
    }
    let width = values_per_flit as u32 * W::WIDTH;
    if width > MAX_WIDTH_BITS {
        return Err(FlitizeError::LinkTooWide { requested: width });
    }
    let n = task.len();
    if n > usize::from(u16::MAX) {
        return Err(FlitizeError::TooManyValues(n));
    }

    let layout = half_half_layout(n, values_per_flit);
    let half = values_per_flit / 2;
    let mut flits: Vec<FlitRow<W>> = (0..layout.num_flits)
        .map(|_| FlitRow::padded(values_per_flit))
        .collect();

    // Bias keeps its baseline position in all methods.
    let (bf, bs) = layout.bias_position;
    flits[bf].slots[half + bs] = Slot::Bias(task.bias());

    let mut pair_index = None;
    match method {
        OrderingMethod::Baseline => {
            for (l, (&input, &weight)) in
                task.inputs().iter().zip(task.weights().iter()).enumerate()
            {
                let (f, s) = (l / half, l % half);
                flits[f].slots[s] = Slot::Input(input);
                flits[f].slots[half + s] = Slot::Weight(weight);
            }
        }
        OrderingMethod::Affiliated => {
            let wperm = tiebreak.descending_order(task.weights());
            let assign = round_robin_assignment(&layout.weight_occupancy);
            for (rank, &orig) in wperm.iter().enumerate() {
                let (f, s) = assign[rank];
                flits[f].slots[half + s] = Slot::Weight(task.weights()[orig]);
                // Input stays affiliated with its weight: same flit, same
                // relative slot in the input half.
                flits[f].slots[s] = Slot::Input(task.inputs()[orig]);
            }
        }
        OrderingMethod::Separated => {
            let wperm = tiebreak.descending_order(task.weights());
            let iperm = tiebreak.descending_order(task.inputs());
            let assign = round_robin_assignment(&layout.weight_occupancy);
            let wdest = placement_by_original_index(&wperm, &assign);
            for (orig, &(f, s)) in wdest.iter().enumerate() {
                flits[f].slots[half + s] = Slot::Weight(task.weights()[orig]);
            }
            let idest = placement_by_original_index(&iperm, &assign);
            for (orig, &(f, s)) in idest.iter().enumerate() {
                flits[f].slots[s] = Slot::Input(task.inputs()[orig]);
            }
            // inverse weight permutation: original index -> weight rank.
            let mut inv_wperm = vec![0u16; n];
            for (rank, &orig) in wperm.iter().enumerate() {
                inv_wperm[orig] = rank as u16;
            }
            pair_index = Some(iperm.iter().map(|&orig| inv_wperm[orig]).collect());
        }
    }

    Ok(OrderedTask {
        method,
        values_per_flit,
        num_pairs: n,
        flits,
        pair_index,
    })
}

/// Side-channel overhead of the separated-ordering re-pairing index for a
/// task of `num_pairs` pairs: `N · ceil(log2 N)` bits (zero for O0/O1).
#[must_use]
pub fn index_overhead_bits_for(method: OrderingMethod, num_pairs: usize) -> u64 {
    match method {
        OrderingMethod::Separated => {
            let width = if num_pairs <= 1 {
                0
            } else {
                u64::from(usize::BITS - (num_pairs - 1).leading_zeros())
            };
            num_pairs as u64 * width
        }
        OrderingMethod::Baseline | OrderingMethod::Affiliated => 0,
    }
}

/// A per-kernel-group encode template: the static (weight-side) half of
/// every flit row pre-rendered once, plus the input-lane placement —
/// everything about a task's wire image that does not depend on the
/// activations.
///
/// Weights never change within a session, so their descending-popcount
/// order, their lanes in the layer's [`LanePlan`], the bias lane, the O2
/// inverse weight permutation and the index-overhead accounting are all
/// functions of the kernel group alone. [`build_encode_template`] renders
/// them once per layer; [`render_window`] then encodes each task by
/// copying the template rows into a reused [`FlitSlab`] and OR-ing in
/// the activation half its [`WindowTable`] prepared once per window (the
/// input half of a template is zero, so no read-mask cycle is needed).
/// The result is bit-identical to the slot-level oracle
/// [`order_task_with`]'s [`OrderedTask::payload_flits`] and pair index
/// (pinned by `tests/transport_parity.rs`).
#[derive(Debug, Clone)]
pub struct EncodeTemplate {
    method: OrderingMethod,
    values_per_flit: usize,
    num_pairs: usize,
    /// Bias + ordered weight half rendered; input lanes zero.
    rows: FlitSlab,
    /// O1 only: input-lane bit offsets into the rows
    /// ([`LanePlan::rank_offsets`]) by **original input index** — inputs
    /// follow the group's weight placement. O0/O2 input lanes depend on
    /// the rank alone, the same for every group of a layer, so the
    /// layer's [`WindowTable`] holds them once instead.
    input_lanes: Vec<u32>,
    /// O2 only: original index → weight rank, the cached half of the
    /// re-pairing index (`pair_index[input_rank] = inv_wperm[orig]`).
    inv_wperm: Vec<u16>,
    index_overhead_bits: u64,
}

impl EncodeTemplate {
    /// Number of (input, weight) pairs per task of this group.
    #[must_use]
    pub fn num_pairs(&self) -> usize {
        self.num_pairs
    }

    /// Side-channel overhead of the O2 re-pairing index, in bits.
    #[must_use]
    pub fn index_overhead_bits(&self) -> u64 {
        self.index_overhead_bits
    }

    /// The ordering method the template was rendered for.
    #[must_use]
    pub fn method(&self) -> OrderingMethod {
        self.method
    }

    /// Word lanes per flit the template was rendered for.
    #[must_use]
    pub fn values_per_flit(&self) -> usize {
        self.values_per_flit
    }
}

/// Pre-renders the static half of a kernel group's flit rows — see
/// [`EncodeTemplate`]. `weight_perm`, when given, must equal
/// `tiebreak.descending_order(weights)`; `None` sorts the weights here
/// with the same counting-sort kernel. `scratch` hosts the sort
/// buffers. The build runs once per layer per group, off the per-task
/// hot path.
///
/// # Errors
///
/// Same conditions as [`LanePlan::new`].
pub fn build_encode_template<W: DataWord>(
    weights: &[W],
    bias: W,
    method: OrderingMethod,
    values_per_flit: usize,
    tiebreak: TieBreak,
    weight_perm: Option<&[usize]>,
    scratch: &mut TransportScratch,
) -> Result<EncodeTemplate, FlitizeError> {
    let n = weights.len();
    let plan = LanePlan::for_word::<W>(method, n, values_per_flit)?;
    let mut rows = FlitSlab::with_capacity(values_per_flit as u32 * W::WIDTH, plan.num_flits());
    rows.push_zeroed(plan.num_flits());
    // Bias keeps its baseline position in all methods.
    rows.or_bits(plan.bias_offset(), bias.bits_u64());

    let TransportScratch {
        keys,
        wperm: wperm_buf,
        ..
    } = scratch;
    debug_assert!(
        weight_perm.is_none_or(|p| p.len() == n),
        "cached weight permutation does not cover the group"
    );
    let wperm: &[usize] = match (method, weight_perm) {
        (OrderingMethod::Baseline, _) => &[],
        (_, Some(p)) => p,
        (_, None) => {
            tiebreak.descending_order_into(weights, keys, wperm_buf);
            wperm_buf
        }
    };

    let mut input_lanes = Vec::new();
    let mut inv_wperm = Vec::new();
    match method {
        OrderingMethod::Baseline => {
            for (rank, &weight) in weights.iter().enumerate() {
                rows.or_bits(plan.rank_offsets(rank)[1], weight.bits_u64());
            }
        }
        OrderingMethod::Affiliated => {
            input_lanes.resize(n, 0);
            for (rank, &orig) in wperm.iter().enumerate() {
                let [input, lane] = plan.rank_offsets(rank);
                rows.or_bits(lane, weights[orig].bits_u64());
                // The input of the same original pair rides the same
                // flit, same relative slot in the input half.
                input_lanes[orig] = input;
            }
        }
        OrderingMethod::Separated => {
            inv_wperm.resize(n, 0);
            for (rank, &orig) in wperm.iter().enumerate() {
                rows.or_bits(plan.rank_offsets(rank)[1], weights[orig].bits_u64());
                inv_wperm[orig] = rank as u16;
            }
            // Inputs are placed by their own per-task rank; the rank →
            // lane map is static and lives in the layer's window table.
        }
    }

    Ok(EncodeTemplate {
        method,
        values_per_flit,
        num_pairs: n,
        rows,
        input_lanes,
        inv_wperm,
        index_overhead_bits: index_overhead_bits_for(method, n),
    })
}

/// The activation half of a layer's task rows, prepared once per
/// activation window and shared by every kernel group that reads the
/// window — each output channel of a conv pixel, each neuron of a
/// linear layer.
///
/// The separated ordering (O2) sorts the inputs on their own, so a
/// window's popcount order depends on the window alone, and under O0 and
/// O2 an input's lane depends only on its rank (its original index under
/// O0, its place in that order under O2), never on the kernel. So
/// [`WindowTable::push`] renders such a window's input lanes once —
/// compactly, only the words of each flit's input half — and keeps the
/// O2 rank order for the re-pairing index; a task's rows are then its
/// group's template rows OR the window's ([`render_window`]). O1 inputs
/// follow each kernel's weight permutation, so an O1 window keeps only
/// its gathered words, which the render deals lane by lane.
///
/// Buffers are kept across [`WindowTable::reset`], so a table reused
/// layer after layer allocates only when a layer needs more room.
#[derive(Debug, Default)]
pub struct WindowTable {
    /// The [`WindowLayout`] of the templates the table renders for;
    /// `None` before the first reset.
    layout: Option<WindowLayout>,
    /// Words of one flit's input half: what a window keeps per flit.
    input_words: usize,
    num_flits: usize,
    /// O0/O2: per rank, the bit offset of its input lane in a window's
    /// compact rows (the flits' input halves laid back to back) — the
    /// one copy of the layer's input lanes.
    lanes: Vec<u32>,
    /// O1: per window, its inputs' bits in original order.
    words: Vec<u64>,
    /// O2: per window, its inputs' original indices in rank order.
    order: Vec<u16>,
    /// O0/O2: per window, `num_flits × input_words` words holding every
    /// input lane.
    rows: Vec<u64>,
    len: usize,
}

/// What a window's preparation depends on in a template: `(method,
/// pairs, values per flit, data width)`.
type WindowLayout = (OrderingMethod, usize, usize, u32);

impl EncodeTemplate {
    fn window_layout(&self) -> WindowLayout {
        (
            self.method,
            self.num_pairs,
            self.values_per_flit,
            self.rows.width(),
        )
    }
}

/// One prepared window of a [`WindowTable`], as [`render_window`] takes
/// it.
#[derive(Debug, Clone, Copy)]
pub struct Window<'a> {
    table: &'a WindowTable,
    index: usize,
}

impl WindowTable {
    /// Empties the table and lays it out for `windows` windows of tasks
    /// of `template`'s shape, reserving exactly their room. Every kernel
    /// group of a layer shares that shape (O0/O2 input lanes are static
    /// per rank), so any one of the layer's templates sets it; a new
    /// shape derives the O0/O2 input lanes from its [`LanePlan`].
    pub fn reset(&mut self, template: &EncodeTemplate, windows: usize) {
        self.words.clear();
        self.order.clear();
        self.rows.clear();
        self.len = 0;
        let layout = template.window_layout();
        if self.layout != Some(layout) {
            let (method, num_pairs, values_per_flit, width) = layout;
            self.num_flits = template.rows.len();
            let word_width = width / values_per_flit as u32;
            self.input_words = (values_per_flit as u32 / 2 * word_width).div_ceil(64) as usize;
            self.lanes.clear();
            if method != OrderingMethod::Affiliated {
                // The template's plan built with this layout, so this
                // one does too; were it to fail, the table stays without
                // a layout and refuses every window.
                let Ok(plan) = LanePlan::new(method, num_pairs, values_per_flit, word_width) else {
                    self.layout = None;
                    return;
                };
                // Plan lanes address full rows; a window keeps only the
                // input half of each.
                let row_bits = template.rows.words_per_flit() as u32 * 64;
                let compact_bits = self.input_words as u32 * 64;
                self.lanes.extend((0..num_pairs).map(|rank| {
                    let lane = plan.rank_offsets(rank)[0];
                    lane / row_bits * compact_bits + lane % row_bits
                }));
            }
            self.layout = Some(layout);
        }
        let n = template.num_pairs;
        match template.method {
            OrderingMethod::Baseline => {}
            OrderingMethod::Affiliated => self.words.reserve_exact(windows * n),
            OrderingMethod::Separated => self.order.reserve_exact(windows * n),
        }
        if template.method != OrderingMethod::Affiliated {
            self.rows
                .reserve_exact(windows * self.num_flits * self.input_words);
        }
    }

    /// Prepares the next window from its gathered `inputs` (original
    /// order) and returns its index: under O2 sorts them with `tiebreak`
    /// (`sort` and `perm` host the kernel), under O0/O2 renders their
    /// lanes, under O1 keeps their bits.
    ///
    /// # Panics
    ///
    /// Panics if the table was never reset, `inputs` does not pair up
    /// with the table's templates, or the word type differs from theirs.
    pub fn push<W: DataWord>(
        &mut self,
        inputs: &[W],
        tiebreak: TieBreak,
        sort: &mut SortScratch,
        perm: &mut Vec<usize>,
    ) -> usize {
        // A table never reset has no pairs, so the pairing check below
        // refuses every window.
        let (method, num_pairs, values_per_flit, width) =
            self.layout.unwrap_or((OrderingMethod::Baseline, 0, 0, 0));
        assert_eq!(inputs.len(), num_pairs, "operand slices must pair up");
        assert_eq!(
            values_per_flit as u32 * W::WIDTH,
            width,
            "word type differs from the template's"
        );
        match method {
            OrderingMethod::Baseline => self.render(inputs.iter().copied()),
            OrderingMethod::Affiliated => self.words.extend(inputs.iter().map(|w| w.bits_u64())),
            OrderingMethod::Separated => {
                tiebreak.descending_order_into(inputs, sort, perm);
                self.order.extend(perm.iter().map(|&orig| orig as u16));
                self.render(perm.iter().map(|&orig| inputs[orig]));
            }
        }
        self.len += 1;
        self.len - 1
    }

    /// Appends one window's compact rows with `ranked[r]` in rank `r`'s
    /// lane.
    fn render<W: DataWord>(&mut self, ranked: impl Iterator<Item = W>) {
        let base = self.rows.len();
        self.rows
            .resize(base + self.num_flits * self.input_words, 0);
        let rows = &mut self.rows[base..];
        for (value, &lane) in ranked.zip(&self.lanes) {
            rows[(lane / 64) as usize] |= value.bits_u64() << (lane % 64);
        }
    }

    /// Window `index`, as [`WindowTable::push`] numbered it.
    ///
    /// # Panics
    ///
    /// Panics if no window `index` was pushed since the last reset.
    #[must_use]
    pub fn window(&self, index: usize) -> Window<'_> {
        assert!(index < self.len, "window {index} was never prepared");
        Window { table: self, index }
    }
}

/// Encodes one task's ordered flit rows off its group's pre-rendered
/// [`EncodeTemplate`] and its prepared activation [`Window`] into `out`
/// (reset to the data width first): the template rows OR the window's
/// compact rows word by word under O0/O2, the window's words dealt into
/// the template's input lanes under O1. For O2 it writes the re-pairing
/// index into `pair_index` (cleared first) as
/// `pair_index[r] = inv_wperm[iperm[r]]`. Nothing is allocated once
/// `out` and `pair_index` have grown to a task's size. Bit-identical to
/// [`order_task_with`] over the template's weights and the window's
/// inputs.
///
/// # Panics
///
/// Panics if the window was prepared for another template shape.
pub fn render_window(
    template: &EncodeTemplate,
    window: Window<'_>,
    out: &mut FlitSlab,
    pair_index: &mut Vec<u16>,
) {
    let Window { table, index } = window;
    let n = template.num_pairs;
    assert!(
        table.layout == Some(template.window_layout()),
        "window prepared for another template shape"
    );
    out.reset(template.rows.width());
    out.extend_rows(&template.rows);
    pair_index.clear();
    if template.method == OrderingMethod::Affiliated {
        for (&bits, &lane) in table.words[index * n..][..n]
            .iter()
            .zip(&template.input_lanes)
        {
            out.or_bits(lane, bits);
        }
        return;
    }
    let words = table.num_flits * table.input_words;
    out.or_row_prefixes(&table.rows[index * words..][..words], table.input_words);
    if template.method == OrderingMethod::Separated {
        pair_index.extend(
            table.order[index * n..][..n]
                .iter()
                .map(|&orig| template.inv_wperm[usize::from(orig)]),
        );
    }
}

/// Flitizes a flat value stream (weights-only packets, as in the "without
/// NoC" experiments of Sec. V-A): `values_per_flit` lanes per flit, zero
/// padding at the tail.
///
/// With `ordered == false` values fill flits row-major in natural order;
/// with `ordered == true` they are sorted by descending popcount and dealt
/// round-robin across the packet's flits.
///
/// # Panics
///
/// Panics if `values_per_flit == 0` or the link would exceed
/// [`MAX_WIDTH_BITS`].
#[must_use]
// btr-lint: allow(test-only-pub, reason = "the stream-packing oracle tests/transport_parity.rs stream_and_transport_packing_agree compares against")
pub fn flitize_values<W: DataWord>(
    values: &[W],
    values_per_flit: usize,
    ordered: bool,
) -> Vec<PayloadBits> {
    use crate::transport::{pack_values, packet_occupancy, row_major_assignment};
    assert!(values_per_flit > 0, "values_per_flit must be positive");
    let width = values_per_flit as u32 * W::WIDTH;
    assert!(
        width <= MAX_WIDTH_BITS,
        "link width {width} exceeds maximum {MAX_WIDTH_BITS}"
    );
    if values.is_empty() {
        return Vec::new();
    }
    let occupancy = packet_occupancy(values.len(), values_per_flit);
    let perm: Vec<usize> = if ordered {
        crate::ordering::descending_popcount_order(values)
    } else {
        (0..values.len()).collect()
    };
    let assign = if ordered {
        round_robin_assignment(&occupancy)
    } else {
        row_major_assignment(&occupancy)
    };
    pack_values(values, &occupancy, &assign, &perm, values_per_flit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_bits::word::{F32Word, Fx8Word};

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
    fn layout_matches_fig2_example() {
        // LeNet 5x5 kernel: 25 pairs, 16 values per flit (8+8).
        let l = half_half_layout(25, 16);
        assert_eq!(l.num_flits, 4);
        assert_eq!(l.input_occupancy, vec![8, 8, 8, 1]);
        assert_eq!(l.weight_occupancy, vec![8, 8, 8, 1]);
        // Bias right after the last weight: flit 3, weight-half slot 1
        // ("Flit 3: 1 input + 1 weight + 1 bias + 13 zeros").
        assert_eq!(l.bias_position, (3, 1));
    }

    #[test]
    fn layout_exact_fit_still_fits_bias() {
        // 8 pairs, half = 4: weights fill 2 flits exactly; the bias forces
        // a third flit.
        let l = half_half_layout(8, 8);
        assert_eq!(l.num_flits, 3);
        assert_eq!(l.weight_occupancy, vec![4, 4, 0]);
        assert_eq!(l.bias_position, (2, 0));
    }

    #[test]
    fn baseline_keeps_natural_order() {
        let task = fx_task(5);
        let ot = order_task_with(&task, OrderingMethod::Baseline, 4, TieBreak::Stable).unwrap();
        // half = 2: inputs [i0 i1 | i2 i3 | i4 -], weights likewise.
        assert_eq!(ot.flits().len(), 3);
        match ot.flits()[0].slots()[0] {
            Slot::Input(w) => assert_eq!(w, task.inputs()[0]),
            ref s => panic!("expected input, got {s:?}"),
        }
        match ot.flits()[1].slots()[2] {
            Slot::Weight(w) => assert_eq!(w, task.weights()[2]),
            ref s => panic!("expected weight, got {s:?}"),
        }
    }

    #[test]
    fn ordered_weight_columns_descend() {
        let task = fx_task(25);
        for method in [OrderingMethod::Affiliated, OrderingMethod::Separated] {
            let ot = order_task_with(&task, method, 16, TieBreak::Stable).unwrap();
            let half = 8;
            // Column-wise weight popcounts never increase across flits.
            for s in 0..half {
                let mut prev = u32::MAX;
                for row in ot.flits() {
                    if let Slot::Weight(w) = row.slots()[half + s] {
                        assert!(w.popcount() <= prev, "{method:?} column {s}");
                        prev = w.popcount();
                    }
                }
            }
        }
    }

    #[test]
    fn separated_input_columns_descend_too() {
        let task = fx_task(25);
        let ot = order_task_with(&task, OrderingMethod::Separated, 16, TieBreak::Stable).unwrap();
        for s in 0..8 {
            let mut prev = u32::MAX;
            for row in ot.flits() {
                if let Slot::Input(w) = row.slots()[s] {
                    assert!(w.popcount() <= prev);
                    prev = w.popcount();
                }
            }
        }
    }

    #[test]
    fn all_methods_preserve_value_multisets() {
        let task = fx_task(25);
        for method in OrderingMethod::ALL {
            let ot = order_task_with(&task, method, 16, TieBreak::Stable).unwrap();
            let mut inputs = Vec::new();
            let mut weights = Vec::new();
            let mut biases = Vec::new();
            for row in ot.flits() {
                for slot in row.slots() {
                    match *slot {
                        Slot::Input(w) => inputs.push(w.code()),
                        Slot::Weight(w) => weights.push(w.code()),
                        Slot::Bias(w) => biases.push(w.code()),
                        Slot::Pad => {}
                    }
                }
            }
            let mut expect_i: Vec<i8> = task.inputs().iter().map(|w| w.code()).collect();
            let mut expect_w: Vec<i8> = task.weights().iter().map(|w| w.code()).collect();
            inputs.sort_unstable();
            weights.sort_unstable();
            expect_i.sort_unstable();
            expect_w.sort_unstable();
            assert_eq!(inputs, expect_i, "{method:?}");
            assert_eq!(weights, expect_w, "{method:?}");
            assert_eq!(biases, vec![42], "{method:?}");
        }
    }

    #[test]
    fn recovery_preserves_mac_for_all_methods() {
        for n in [1usize, 2, 7, 8, 25, 150] {
            let task = fx_task(n);
            for method in OrderingMethod::ALL {
                let ot = order_task_with(&task, method, 16, TieBreak::Stable).unwrap();
                let rec = ot.recover().unwrap();
                assert_eq!(rec.mac_i64(), task.mac_i64(), "{method:?} n={n}");
                assert_eq!(rec.pairs.len(), n);
            }
        }
    }

    #[test]
    fn recovery_f32_matches_reference() {
        let inputs: Vec<F32Word> = (0..25)
            .map(|i| F32Word::new(i as f32 * 0.25 - 3.0))
            .collect();
        let weights: Vec<F32Word> = (0..25)
            .map(|i| F32Word::new(0.1 * i as f32 - 1.2))
            .collect();
        let task = NeuronTask::new(inputs, weights, F32Word::new(0.5)).unwrap();
        for method in OrderingMethod::ALL {
            let ot = order_task_with(&task, method, 16, TieBreak::Stable).unwrap();
            let rec = ot.recover().unwrap();
            assert!((rec.mac_f64() - task.mac_f64()).abs() < 1e-9, "{method:?}");
        }
    }

    #[test]
    fn separated_carries_index_others_do_not() {
        let task = fx_task(9);
        let o0 = order_task_with(&task, OrderingMethod::Baseline, 8, TieBreak::Stable).unwrap();
        let o1 = order_task_with(&task, OrderingMethod::Affiliated, 8, TieBreak::Stable).unwrap();
        let o2 = order_task_with(&task, OrderingMethod::Separated, 8, TieBreak::Stable).unwrap();
        assert!(o0.pair_index().is_none());
        assert!(o1.pair_index().is_none());
        assert_eq!(o2.pair_index().unwrap().len(), 9);
        assert_eq!(o0.index_overhead_bits(), 0);
        assert_eq!(o1.index_overhead_bits(), 0);
        // 9 values, ceil(log2 9) = 4 bits each.
        assert_eq!(o2.index_overhead_bits(), 36);
    }

    #[test]
    fn missing_index_is_detected() {
        let task = fx_task(4);
        let mut ot =
            order_task_with(&task, OrderingMethod::Separated, 8, TieBreak::Stable).unwrap();
        ot.pair_index = None;
        assert_eq!(ot.recover().unwrap_err(), RecoverError::MissingPairIndex);
    }

    #[test]
    fn rejects_odd_values_per_flit() {
        let task = fx_task(4);
        assert_eq!(
            order_task_with(&task, OrderingMethod::Baseline, 7, TieBreak::Stable).unwrap_err(),
            FlitizeError::OddValuesPerFlit(7)
        );
        assert_eq!(
            order_task_with(&task, OrderingMethod::Baseline, 0, TieBreak::Stable).unwrap_err(),
            FlitizeError::OddValuesPerFlit(0)
        );
    }

    #[test]
    fn rejects_too_wide_links() {
        let inputs: Vec<F32Word> = vec![F32Word::new(1.0); 4];
        let weights = inputs.clone();
        let task = NeuronTask::new(inputs, weights, F32Word::new(0.0)).unwrap();
        let err =
            order_task_with(&task, OrderingMethod::Baseline, 64, TieBreak::Stable).unwrap_err();
        assert_eq!(err, FlitizeError::LinkTooWide { requested: 2048 });
        assert!(err.to_string().contains("exceeds"));
    }

    #[test]
    fn payload_flits_have_link_width() {
        let task = fx_task(25);
        let ot = order_task_with(&task, OrderingMethod::Affiliated, 16, TieBreak::Stable).unwrap();
        let flits = ot.payload_flits();
        assert_eq!(flits.len(), 4);
        assert!(flits.iter().all(|f| f.width() == 128));
    }

    #[test]
    fn payload_halves_carry_the_right_values() {
        // One pair: input in lane 0 (left half), weight in lane 1, bias in
        // the next flit's weight half.
        let task = NeuronTask::new(
            vec![Fx8Word::new(0x11)],
            vec![Fx8Word::new(0x22)],
            Fx8Word::new(0x33),
        )
        .unwrap();
        let ot = order_task_with(&task, OrderingMethod::Baseline, 2, TieBreak::Stable).unwrap();
        let flits = ot.payload_flits();
        assert_eq!(flits.len(), 2);
        assert_eq!(flits[0].field(0, 8), 0x11);
        assert_eq!(flits[0].field(8, 8), 0x22);
        assert_eq!(flits[1].field(8, 8), 0x33);
    }

    #[test]
    fn flitize_values_baseline_row_major() {
        let vals: Vec<Fx8Word> = (1..=5).map(Fx8Word::new).collect();
        let flits = flitize_values(&vals, 2, false);
        assert_eq!(flits.len(), 3);
        assert_eq!(flits[0].field(0, 8), 1);
        assert_eq!(flits[0].field(8, 8), 2);
        assert_eq!(flits[2].field(0, 8), 5);
        assert_eq!(flits[2].field(8, 8), 0); // pad
    }

    #[test]
    fn flitize_values_ordered_descends_per_column() {
        let vals: Vec<Fx8Word> = vec![
            Fx8Word::new(0),   // 0 ones
            Fx8Word::new(-1),  // 8
            Fx8Word::new(3),   // 2
            Fx8Word::new(127), // 7
            Fx8Word::new(1),   // 1
            Fx8Word::new(-2),  // 7
        ];
        let flits = flitize_values(&vals, 2, true);
        assert_eq!(flits.len(), 3);
        for col in 0..2u32 {
            let pcs: Vec<u32> = flits
                .iter()
                .map(|f| (f.field(col * 8, 8) as u8).count_ones())
                .collect();
            assert!(pcs.windows(2).all(|w| w[0] >= w[1]), "col {col}: {pcs:?}");
        }
    }

    #[test]
    fn flitize_values_empty() {
        let vals: Vec<Fx8Word> = Vec::new();
        assert!(flitize_values(&vals, 8, true).is_empty());
    }

    #[test]
    fn template_emission_matches_slot_level_path() {
        // The template path writes slab lanes directly off a
        // pre-rendered weight half; it must be bit-identical to the
        // slot-level OrderedTask rendering, pair index included, for every
        // method, tiebreak and task size, whether the template sorted its
        // weights itself or was handed the permutation.
        let mut scratch = TransportScratch::default();
        for n in [1usize, 2, 7, 8, 25, 150] {
            let task = fx_task(n);
            for method in OrderingMethod::ALL {
                for tiebreak in [TieBreak::Stable, TieBreak::Value] {
                    let slotted = order_task_with(&task, method, 16, tiebreak).unwrap();
                    let wperm = tiebreak.descending_order(task.weights());
                    for perm in [None, Some(wperm.as_slice())] {
                        let template = build_encode_template(
                            task.weights(),
                            task.bias(),
                            method,
                            16,
                            tiebreak,
                            perm,
                            &mut scratch,
                        )
                        .unwrap();
                        let mut rows = FlitSlab::new(64);
                        let mut pair_index = Vec::new();
                        let window = scratch.prepare_window(&template, task.inputs(), tiebreak);
                        render_window(&template, window, &mut rows, &mut pair_index);
                        let ctx = format!(
                            "{method:?} {tiebreak:?} n={n} given perm {}",
                            perm.is_some()
                        );
                        assert_eq!(rows.to_payloads(), slotted.payload_flits(), "{ctx}");
                        let index =
                            (method == OrderingMethod::Separated).then_some(&pair_index[..]);
                        assert_eq!(index, slotted.pair_index(), "{ctx}");
                        assert_eq!(
                            template.index_overhead_bits(),
                            slotted.index_overhead_bits(),
                            "{ctx}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn wire_decode_roundtrips_for_all_methods() {
        // The PE-side path: encode -> link images -> decode -> recover.
        for n in [1usize, 7, 25, 150] {
            let task = fx_task(n);
            for method in OrderingMethod::ALL {
                let sent = order_task_with(&task, method, 16, TieBreak::Stable).unwrap();
                let images = sent.payload_flits();
                let decoded = OrderedTask::<Fx8Word>::from_payload_flits(
                    method,
                    n,
                    16,
                    sent.pair_index().map(<[u16]>::to_vec),
                    &images,
                )
                .unwrap();
                assert_eq!(decoded, sent, "{method:?} n={n}");
                assert_eq!(decoded.recover().unwrap().mac_i64(), task.mac_i64());
            }
        }
    }

    #[test]
    fn wire_decode_validates_geometry() {
        let task = fx_task(9);
        let sent = order_task_with(&task, OrderingMethod::Baseline, 8, TieBreak::Stable).unwrap();
        let images = sent.payload_flits();
        assert!(OrderedTask::<Fx8Word>::from_payload_flits(
            OrderingMethod::Baseline,
            9,
            7,
            None,
            &images
        )
        .is_err());
        assert!(OrderedTask::<Fx8Word>::from_payload_flits(
            OrderingMethod::Baseline,
            9,
            8,
            None,
            &images[..1]
        )
        .is_err());
    }

    #[test]
    fn ordered_task_roundtrip_through_payload_width() {
        // f32 path with the paper's 512-bit configuration.
        let inputs: Vec<F32Word> = (0..25).map(|i| F32Word::new(i as f32)).collect();
        let weights: Vec<F32Word> = (0..25).map(|i| F32Word::new(-(i as f32))).collect();
        let task = NeuronTask::new(inputs, weights, F32Word::new(1.0)).unwrap();
        let ot = order_task_with(&task, OrderingMethod::Separated, 16, TieBreak::Stable).unwrap();
        assert!(ot.payload_flits().iter().all(|f| f.width() == 512));
    }
}
