//! # btr-core — `'1'`-bit-count data transmission ordering
//!
//! This crate implements the paper's primary contribution: reducing bit
//! transitions (BT) on NoC links by reordering the values carried in a
//! packet's flits according to their `'1'`-bit counts.
//!
//! * [`theory`] — the mathematical model of Sec. III: expected BT between
//!   two words as a function of their popcounts (Eq. 1–2), the total-BT
//!   objective over flits (Eq. 3), the pair-product objective `F = Σ xi·yi`
//!   (Eq. 4), and a brute-force oracle verifying that the descending
//!   interleaved ordering is globally optimal on small instances.
//! * [`ordering`] — the ordering rule itself: descending popcount sort plus
//!   round-robin placement across a packet's flits (Fig. 3), and the three
//!   evaluation configurations **O0** (baseline), **O1**
//!   (affiliated-ordering) and **O2** (separated-ordering).
//! * [`flitize`] — half-half flitization (Fig. 2): inputs in the left half
//!   of each flit, weights (then bias, then zero padding) in the right half.
//! * [`task`] — [`task::NeuronTask`], the unit of DNN work transmitted from
//!   a memory controller to a processing element, and its MAC semantics.
//! * [`mod@unit`] — a behavioral model of the hardware ordering unit (Fig. 14):
//!   SWAR popcount followed by a sorting network, with compare-exchange and
//!   stage accounting for the hardware cost model in `btr-hw`.
//! * [`transport`] — the shared transport pipeline: the
//!   [`transport::CodedTransport`] encode/decode contract consumed by
//!   the stream harness, the NoC injection layer and the accelerator
//!   driver, plus the one copy of the occupancy/packing helpers.
//! * [`stream`] — the "without NoC" evaluation harness behind Table I and
//!   Figs. 9–11: packet streams on a single link.
//! * [`codec`] — the bus-invert and delta-XOR baselines from the related
//!   work, used for ablation comparisons (not part of the paper's method),
//!   as pluggable link-coding backends: the stateless scheme
//!   ([`codec::CodecKind`]) plus the explicit per-link state object
//!   ([`codec::LinkCodecState`]), composed with the ordering
//!   stage by [`transport::CodedTransport`] (per-packet scope) or owned
//!   by the NoC links themselves (per-link scope,
//!   [`codec::CodecScope::PerLink`]) so sweeps can ablate
//!   `{ordering × codec × scope}`.
//! * [`edc`] — per-flit error-detecting codes ([`edc::EdcKind`]: parity or
//!   CRC-8) stamped on the plain image and carried on extra side-channel
//!   wires, the detection half of the unreliable-link retransmission
//!   protocol (recovery lives in the NoC's network interface).
//!
//! # Quickstart
//!
//! ```
//! use btr_bits::word::Fx8Word;
//! use btr_core::flitize::order_task_with;
//! use btr_core::ordering::{OrderingMethod, TieBreak};
//! use btr_core::task::NeuronTask;
//!
//! // A 3x3 convolution task: 9 inputs, 9 weights, 1 bias.
//! let inputs: Vec<Fx8Word> = (1..=9).map(Fx8Word::new).collect();
//! let weights: Vec<Fx8Word> = (-4..=4).map(Fx8Word::new).collect();
//! let task = NeuronTask::new(inputs, weights, Fx8Word::new(1)).unwrap();
//!
//! // Order it for transmission with 8 values per flit (4 inputs + 4 weights).
//! let ordered = order_task_with(&task, OrderingMethod::Separated, 8, TieBreak::Stable).unwrap();
//!
//! // The receiver recovers the exact same multiply-accumulate result.
//! let recovered = ordered.recover().unwrap();
//! assert_eq!(recovered.mac_i64(), task.mac_i64());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod edc;
pub mod flitize;
pub mod ordering;
pub mod plan;
pub mod stream;
pub mod task;
pub mod theory;
pub mod transport;
pub mod unit;

pub use codec::{CodecKind, CodecScope, DeltaXorRun, LinkCodecState, ResyncPolicy};
pub use edc::EdcKind;
pub use flitize::{EncodeTemplate, FlitRow, OrderedTask, RecoverError, Slot};
pub use ordering::OrderingMethod;
pub use plan::LanePlan;
pub use task::NeuronTask;
pub use transport::{CodedTransport, EncodedTask, TaskWireMeta, TransportConfig, TransportError};
