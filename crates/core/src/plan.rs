//! [`LanePlan`] — where every operand of a task sits in its flit images.
//!
//! The paper's PE recovers each (input, weight) pair from a lane
//! placement that depends only on the pair count, the flit's lane count
//! and, for O2, the re-pairing index (Sec. IV-B): the half-half layout
//! puts inputs in the left half of each flit and weights (then the bias)
//! in the right half, O0 deals ranks row-major and O1/O2 deal them
//! round-robin over the packet's flits. All of that is a pure function of
//! `(ordering, num_pairs, values_per_flit, word width)` — everything the
//! receiver learns from the head flit — so it is computed once per layer,
//! not once per task, and both ends of the request path read it:
//!
//! * the MC's encode template places weights and deals activation lanes
//!   at its offsets ([`crate::flitize::build_encode_template`]);
//! * the PE's decode folds the pairs straight off the delivered rows in
//!   recovered rank order ([`LanePlan::fold`]) — into a MAC accumulator
//!   in the accelerator driver, or into a pairs buffer in
//!   [`crate::transport::CodedTransport::decode_task_into`].
//!
//! The slot-level oracle ([`crate::flitize::OrderedTask::recover`])
//! shares none of this code; `tests/transport_parity.rs` pins the two
//! together.

use crate::codec::CodecError;
use crate::flitize::{FlitizeError, RecoverError};
use crate::ordering::{round_robin_assignment_into, OrderingMethod};
use crate::transport::TransportError;
use btr_bits::payload::MAX_WIDTH_BITS;
use btr_bits::slab::FlitRows;
use btr_bits::word::DataWord;

/// Bits of a lane's position within its row: a row is at most
/// [`MAX_WIDTH_BITS`] wide.
const ROW_BITS_LOG2: u32 = 10;
const _: () = assert!(MAX_WIDTH_BITS <= 1 << ROW_BITS_LOG2);

/// The lane placement of one layer's tasks — see the [module
/// docs](self).
///
/// Each lane is packed into one `u32` as `flit << 10 | bit`, the bit
/// offset within its flit's row; every supported word width divides 64,
/// so a lane never straddles two words. A decode reads an operand with
/// one load and a shift, from a dense slab or from separate images.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LanePlan {
    method: OrderingMethod,
    num_pairs: usize,
    values_per_flit: usize,
    word_width: u32,
    num_flits: usize,
    /// `u64` words per flit row at the data width.
    row_words: u32,
    /// Per rank, in recovered order: the packed input lane and weight
    /// lane of the rank's slot (O0 row-major, O1/O2 round-robin).
    ranks: Vec<[u32; 2]>,
    bias: u32,
}

impl LanePlan {
    /// The plan of `num_pairs`-pair tasks of `word_width`-bit words over
    /// `values_per_flit`-lane flits under `method`.
    ///
    /// # Errors
    ///
    /// Returns [`FlitizeError`] for an odd or too small lane count, a
    /// link wider than [`MAX_WIDTH_BITS`], or a pair count outside
    /// `1..=u16::MAX` (the O2 index addresses ranks in 16 bits).
    ///
    /// # Panics
    ///
    /// Panics if `word_width` does not divide 64 (no supported word
    /// does).
    pub fn new(
        method: OrderingMethod,
        num_pairs: usize,
        values_per_flit: usize,
        word_width: u32,
    ) -> Result<Self, FlitizeError> {
        assert!(
            word_width > 0 && 64 % word_width == 0,
            "{word_width}-bit words would straddle row words"
        );
        if values_per_flit < 2 || !values_per_flit.is_multiple_of(2) {
            return Err(FlitizeError::OddValuesPerFlit(values_per_flit));
        }
        let width = values_per_flit as u32 * word_width;
        if width > MAX_WIDTH_BITS {
            return Err(FlitizeError::LinkTooWide { requested: width });
        }
        if num_pairs == 0 || num_pairs > usize::from(u16::MAX) {
            return Err(FlitizeError::TooManyValues(num_pairs));
        }
        let half = values_per_flit / 2;
        // The weight half also carries the bias: n + 1 values.
        let num_flits = (num_pairs + 1).div_ceil(half);
        let lane = |f: usize, s: usize| ((f as u32) << ROW_BITS_LOG2) | (s as u32 * word_width);
        let slot = |f: usize, s: usize| [lane(f, s), lane(f, half + s)];
        let ranks = match method {
            OrderingMethod::Baseline => (0..num_pairs).map(|r| slot(r / half, r % half)).collect(),
            OrderingMethod::Affiliated | OrderingMethod::Separated => {
                let occupancy: Vec<usize> = (0..num_flits)
                    .map(|f| num_pairs.saturating_sub(f * half).min(half))
                    .collect();
                let mut assign = Vec::with_capacity(num_pairs);
                round_robin_assignment_into(&occupancy, &mut assign);
                assign.iter().map(|&(f, s)| slot(f, s)).collect()
            }
        };
        Ok(Self {
            method,
            num_pairs,
            values_per_flit,
            word_width,
            num_flits,
            row_words: width.div_ceil(64),
            ranks,
            bias: lane(num_pairs / half, half + num_pairs % half),
        })
    }

    /// [`LanePlan::new`] for words of type `W`.
    ///
    /// # Errors
    ///
    /// As [`LanePlan::new`].
    pub fn for_word<W: DataWord>(
        method: OrderingMethod,
        num_pairs: usize,
        values_per_flit: usize,
    ) -> Result<Self, FlitizeError> {
        Self::new(method, num_pairs, values_per_flit, W::WIDTH)
    }

    /// True when this is the plan of `(method, num_pairs,
    /// values_per_flit, word_width)`.
    #[must_use]
    pub fn fits(
        &self,
        method: OrderingMethod,
        num_pairs: usize,
        values_per_flit: usize,
        word_width: u32,
    ) -> bool {
        (
            self.method,
            self.num_pairs,
            self.values_per_flit,
            self.word_width,
        ) == (method, num_pairs, values_per_flit, word_width)
    }

    /// Payload flits per task.
    #[must_use]
    pub fn num_flits(&self) -> usize {
        self.num_flits
    }

    /// The bit offset of a packed lane in the packet's rows laid back to
    /// back at the data width.
    fn offset(&self, lane: u32) -> u32 {
        (lane >> ROW_BITS_LOG2) * self.row_words * 64 + (lane & ((1 << ROW_BITS_LOG2) - 1))
    }

    /// The bit offsets of `rank`'s input lane and weight lane in the
    /// packet's rows laid back to back at the data width.
    ///
    /// # Panics
    ///
    /// Panics if `rank >= num_pairs`.
    #[must_use]
    pub fn rank_offsets(&self, rank: usize) -> [u32; 2] {
        self.ranks[rank].map(|lane| self.offset(lane))
    }

    /// The bit offset of the bias lane, as [`LanePlan::rank_offsets`].
    #[must_use]
    pub fn bias_offset(&self) -> u32 {
        self.offset(self.bias)
    }

    /// Decodes one task off its plain flit rows: folds `f` over the
    /// (input, weight) pairs in recovered rank order — the same order
    /// [`crate::flitize::OrderedTask::recover`] yields, so float MACs
    /// associate identically — and returns the fold with the bias. O2
    /// pairs input rank `r` with weight rank `pair_index[r]`; O0/O1 pair
    /// the two halves of each slot and ignore the index.
    ///
    /// Rows may be wider than the data wires (EDC field, link-aligned
    /// side channel): only the data lanes are read. Rows that are a dense
    /// slab at the data width are read straight off its words.
    ///
    /// # Errors
    ///
    /// [`TransportError::Geometry`] if the row count is not the plan's
    /// flit count, [`TransportError::Codec`] if a row is narrower than
    /// the data wires, and [`TransportError::Recover`] if an O2 packet
    /// lost its index ([`RecoverError::MissingPairIndex`]) or carries one
    /// that pairs no `num_pairs` ranks ([`RecoverError::BadPairIndex`]).
    pub fn fold<W: DataWord, R: FlitRows + ?Sized, A>(
        &self,
        rows: &R,
        pair_index: Option<&[u16]>,
        init: A,
        f: impl FnMut(A, W, W) -> A,
    ) -> Result<(A, W), TransportError> {
        debug_assert_eq!(W::WIDTH, self.word_width, "plan built for another word");
        if rows.flit_count() != self.num_flits {
            return Err(FlitizeError::TooManyValues(rows.flit_count()).into());
        }
        let data_width = self.values_per_flit as u32 * self.word_width;
        if let Some(f) = (0..self.num_flits).find(|&f| rows.flit_width(f) < data_width) {
            return Err(CodecError::WireWidth {
                got: rows.flit_width(f),
                want: data_width,
            }
            .into());
        }
        let mask = u64::MAX >> (64 - W::WIDTH);
        let flit = |lane: u32| (lane >> ROW_BITS_LOG2) as usize;
        let word = |lane: u32| ((lane & ((1 << ROW_BITS_LOG2) - 1)) / 64) as usize;
        let stride = self.row_words as usize;
        match rows.dense(stride) {
            Some(words) => self.fold_lanes(
                |lane| (words[flit(lane) * stride + word(lane)] >> (lane % 64)) & mask,
                pair_index,
                init,
                f,
            ),
            None => self.fold_lanes(
                |lane| (rows.word(flit(lane), word(lane)) >> (lane % 64)) & mask,
                pair_index,
                init,
                f,
            ),
        }
    }

    /// The one decode loop behind [`LanePlan::fold`], over a reader of a
    /// packed lane.
    #[inline]
    fn fold_lanes<W: DataWord, A>(
        &self,
        lane: impl Fn(u32) -> u64,
        pair_index: Option<&[u16]>,
        init: A,
        mut f: impl FnMut(A, W, W) -> A,
    ) -> Result<(A, W), TransportError> {
        let word = |packed: u32| W::from_bits_u64(lane(packed));
        let mut acc = init;
        match self.method {
            OrderingMethod::Baseline | OrderingMethod::Affiliated => {
                for &[input, weight] in &self.ranks {
                    acc = f(acc, word(input), word(weight));
                }
            }
            OrderingMethod::Separated => {
                let index = pair_index.ok_or(RecoverError::MissingPairIndex)?;
                let bad = RecoverError::BadPairIndex {
                    len: index.len(),
                    num_pairs: self.num_pairs,
                };
                if index.len() != self.num_pairs {
                    return Err(bad.into());
                }
                for (&[input, _], &partner) in self.ranks.iter().zip(index) {
                    let Some(&[_, weight]) = self.ranks.get(usize::from(partner)) else {
                        return Err(bad.into());
                    };
                    acc = f(acc, word(input), word(weight));
                }
            }
        }
        Ok((acc, word(self.bias)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flitize::half_half_layout;
    use btr_bits::word::Fx8Word;

    #[test]
    fn plan_geometry_matches_the_half_half_layout() {
        for n in [1, 7, 8, 9, 16, 25] {
            let layout = half_half_layout(n, 16);
            let plan = LanePlan::new(OrderingMethod::Separated, n, 16, 8).unwrap();
            assert_eq!(plan.num_flits(), layout.num_flits, "n={n}");
            // 128-bit rows: the bias sits in the weight half of its flit.
            let (bf, bs) = layout.bias_position;
            assert_eq!(
                plan.bias_offset(),
                (bf * 128 + (8 + bs) * 8) as u32,
                "n={n}"
            );
        }
    }

    #[test]
    fn rejects_bad_geometry() {
        assert_eq!(
            LanePlan::new(OrderingMethod::Baseline, 4, 7, 8),
            Err(FlitizeError::OddValuesPerFlit(7))
        );
        assert_eq!(
            LanePlan::new(OrderingMethod::Baseline, 0, 16, 8),
            Err(FlitizeError::TooManyValues(0))
        );
        let plan = LanePlan::new(OrderingMethod::Baseline, 9, 16, 8).unwrap();
        let rows = btr_bits::FlitSlab::new(128);
        let got = plan.fold(&rows, None, (), |(), _: Fx8Word, _| ());
        assert_eq!(got, Err(FlitizeError::TooManyValues(0).into()));
    }
}
