//! # btr-bits — bit-level primitives for bit-transition studies
//!
//! This crate is the foundation of the `noc-btr` workspace. It provides the
//! bit-level machinery that both the ordering core (`btr-core`) and the NoC
//! simulator (`btr-noc`) are built on:
//!
//! * [`word`] — typed data words ([`word::DataWord`]) in the paper's two
//!   formats, 32-bit IEEE-754 float ([`word::F32Word`]) and 8-bit
//!   two's-complement fixed point ([`word::Fx8Word`]), plus a 16-bit
//!   extension format, all exposing their `'1'`-bit counts;
//! * [`fixed`] — symmetric per-tensor fixed-point quantization;
//! * [`payload`] — [`payload::PayloadBits`], a fixed-capacity bit container
//!   representing the image of a flit on the physical link wires;
//! * [`slab`] — [`slab::FlitSlab`], a stream of equal-width flit images
//!   packed as dense `u64` rows (the stream kernels' buffer);
//! * [`transition`] — bit-transition (BT) counting between consecutive link
//!   images, the paper's core metric;
//! * [`stats`] — per-bit-position `'1'`-probability and
//!   transition-probability accumulators (Figs. 10–11) and popcount
//!   histograms;
//! * [`swar`] — the SWAR (SIMD-within-a-register) popcount used by the
//!   hardware ordering unit (Fig. 14), implemented bit-exactly so that the
//!   behavioral hardware model and the software path agree.
//!
//! # Example
//!
//! ```
//! use btr_bits::word::{DataWord, F32Word};
//! use btr_bits::transition::bit_transitions_u64;
//!
//! let a = F32Word::new(1.5f32);
//! let b = F32Word::new(-0.25f32);
//! // '1'-bit counts drive the ordering rule of the paper.
//! assert_eq!(a.popcount(), a.bits().count_ones());
//! // Bit transitions between two link words = Hamming distance.
//! let bt = bit_transitions_u64(a.bits() as u64, b.bits() as u64);
//! assert_eq!(bt, (a.bits() ^ b.bits()).count_ones());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fixed;
pub mod payload;
pub mod slab;
pub mod stats;
pub mod swar;
pub mod transition;
pub mod word;

pub use fixed::{QuantError, Quantizer};
pub use payload::PayloadBits;
pub use slab::FlitSlab;
pub use stats::{BitPositionStats, PopcountHistogram};
pub use transition::{bit_transitions, bit_transitions_u64};
pub use word::{DataFormat, DataWord, F32Word, Fx16Word, Fx8Word};
