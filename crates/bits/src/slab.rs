//! [`FlitSlab`] — a stream of equal-width flit images in one dense buffer.
//!
//! A [`PayloadBits`] is sized for the widest link ([`MAX_WIDTH_BITS`]), so
//! a stream of narrow flits stored as `Vec<PayloadBits>` moves 136 bytes
//! per flit whatever the link width. A slab stores each flit as a row of
//! exactly the `u64` words its width covers, back to back: a 256-bit
//! stream takes 32 bytes per flit and a 64-bit stream 8, so stream
//! kernels that index flits at random stay in cache.

use crate::payload::{PayloadBits, MAX_WIDTH_BITS};

/// Equal-width flit images stored as dense `u64` rows.
///
/// Row `i` holds flit `i` LSB-first (wire `k` is bit `k % 64` of word
/// `k / 64`), the same layout as [`PayloadBits::used_words`]. Bits at or
/// above the width stay zero.
///
/// # Example
///
/// ```
/// use btr_bits::FlitSlab;
///
/// let mut slab = FlitSlab::new(16);
/// slab.push_zeroed(2);
/// slab.set_lane(1, 8, 8, 0xab);
/// assert_eq!(slab.flit(0), &[0]);
/// assert_eq!(slab.flit(1), &[0xab00]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlitSlab {
    width: u32,
    words_per_flit: usize,
    words: Vec<u64>,
}

impl FlitSlab {
    /// An empty slab of `width`-bit flits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds [`MAX_WIDTH_BITS`].
    #[must_use]
    pub fn new(width: u32) -> Self {
        Self::with_capacity(width, 0)
    }

    /// An empty slab of `width`-bit flits with room for `flits` rows.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds [`MAX_WIDTH_BITS`].
    #[must_use]
    pub fn with_capacity(width: u32, flits: usize) -> Self {
        assert!(
            width > 0 && width <= MAX_WIDTH_BITS,
            "flit width must be in 1..={MAX_WIDTH_BITS}, got {width}"
        );
        let words_per_flit = width.div_ceil(64) as usize;
        Self {
            width,
            words_per_flit,
            words: Vec::with_capacity(flits * words_per_flit),
        }
    }

    /// Width of every flit in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// `u64` words per row: the words the width covers.
    #[must_use]
    pub fn words_per_flit(&self) -> usize {
        self.words_per_flit
    }

    /// Number of flits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len() / self.words_per_flit
    }

    /// Whether the slab holds no flit.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The row of flit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    #[must_use]
    pub fn flit(&self, i: usize) -> &[u64] {
        &self.words[i * self.words_per_flit..][..self.words_per_flit]
    }

    /// Appends `flits` all-zero flits.
    pub fn push_zeroed(&mut self, flits: usize) {
        self.words
            .resize(self.words.len() + flits * self.words_per_flit, 0);
    }

    /// Writes a `len`-bit lane (`len <= 64`) of flit `flit` starting at
    /// bit `offset`, in place; the same write as
    /// [`PayloadBits::set_field`] on that flit's image. Bits of `value`
    /// above `len` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `flit >= self.len()`, `len` is not in `1..=64`, or the
    /// lane does not fit within the width.
    #[inline]
    pub fn set_lane(&mut self, flit: usize, offset: u32, len: u32, value: u64) {
        assert!(len > 0 && len <= 64, "lane length must be in 1..=64");
        assert!(
            offset + len <= self.width,
            "lane [{offset}, {}) exceeds flit width {}",
            offset + len,
            self.width
        );
        let mask = u64::MAX >> (64 - len);
        let value = value & mask;
        let row = &mut self.words[flit * self.words_per_flit..][..self.words_per_flit];
        let (word, bit) = ((offset / 64) as usize, offset % 64);
        row[word] = (row[word] & !(mask << bit)) | (value << bit);
        if bit + len > 64 {
            // The lane straddles a word boundary.
            let low = 64 - bit;
            row[word + 1] = (row[word + 1] & !(mask >> low)) | (value >> low);
        }
    }

    /// Every flit as a [`PayloadBits`] image, in order.
    #[must_use]
    pub fn to_payloads(&self) -> Vec<PayloadBits> {
        (0..self.len())
            .map(|i| {
                let mut image = PayloadBits::zero(self.width);
                for (k, &word) in self.flit(i).iter().enumerate() {
                    let offset = 64 * k as u32;
                    image.set_field(offset, (self.width - offset).min(64), word);
                }
                image
            })
            .collect()
    }
}

/// Reads a `len`-bit field (`len <= 64`) starting at bit `offset` of a
/// flit row (a [`FlitSlab::flit`] or [`PayloadBits::used_words`]).
///
/// # Panics
///
/// Panics if `len` is not in `1..=64` or the field runs past the row.
#[inline]
#[must_use]
pub fn row_field(row: &[u64], offset: u32, len: u32) -> u64 {
    assert!(len > 0 && len <= 64, "field length must be in 1..=64");
    let (word, bit) = ((offset / 64) as usize, offset % 64);
    let mut field = row[word] >> bit;
    if bit + len > 64 {
        field |= row[word + 1] << (64 - bit);
    }
    field & (u64::MAX >> (64 - len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_cover_exactly_the_width() {
        for (width, words) in [(1, 1), (64, 1), (65, 2), (256, 4), (MAX_WIDTH_BITS, 16)] {
            let mut slab = FlitSlab::new(width);
            assert!(slab.is_empty());
            slab.push_zeroed(3);
            assert_eq!(slab.len(), 3);
            assert_eq!(slab.words_per_flit(), words);
            assert!((0..3).all(|i| slab.flit(i).len() == words), "{width}");
        }
    }

    #[test]
    fn lane_writes_keep_bits_above_the_width_zero() {
        // 40-bit flits: the last word is partial, and the 24-bit lane at
        // offset 16 reaches the top wire.
        let mut slab = FlitSlab::new(40);
        slab.push_zeroed(2);
        slab.set_lane(1, 16, 24, u64::MAX);
        slab.set_lane(0, 0, 40, u64::MAX);
        for i in 0..2 {
            assert_eq!(slab.flit(i)[0] >> 40, 0, "flit {i}");
        }
        assert_eq!(slab.flit(1), &[0xff_ffff_0000]);
        // Straddling lanes on a 3-word flit stay under the width too.
        let mut slab = FlitSlab::new(130);
        slab.push_zeroed(1);
        slab.set_lane(0, 120, 10, u64::MAX);
        slab.set_lane(0, 60, 8, u64::MAX);
        assert_eq!(slab.flit(0)[2] >> 2, 0);
        assert_eq!(row_field(slab.flit(0), 120, 10), 0x3ff);
        assert_eq!(row_field(slab.flit(0), 60, 8), 0xff);
        assert_eq!(row_field(slab.flit(0), 59, 10), 0b01_1111_1110);
    }

    #[test]
    fn lane_writes_overwrite_in_place() {
        let mut slab = FlitSlab::new(64);
        slab.push_zeroed(1);
        slab.set_lane(0, 8, 8, 0xff);
        slab.set_lane(0, 8, 8, 0x0f);
        assert_eq!(slab.flit(0), &[0x0f00]);
    }

    #[test]
    fn payload_round_trip_matches_set_field() {
        // Lanes of 8, 32, 24 and 64 bits over several widths; the 24-bit
        // lanes straddle word boundaries.
        for (width, lane) in [(64u32, 8u32), (256, 32), (1000, 24), (MAX_WIDTH_BITS, 64)] {
            let mut slab = FlitSlab::new(width);
            let mut images = vec![PayloadBits::zero(width); 5];
            slab.push_zeroed(images.len());
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for (f, image) in images.iter_mut().enumerate() {
                for offset in (0..=width - lane).step_by(lane as usize) {
                    x = x.rotate_left(17).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                    slab.set_lane(f, offset, lane, x);
                    image.set_field(offset, lane, x);
                }
            }
            assert_eq!(slab.to_payloads(), images, "{width}");
            for (f, image) in images.iter().enumerate() {
                assert_eq!(slab.flit(f), image.used_words(), "{width}");
                assert_eq!(row_field(slab.flit(f), 3, 40), image.field(3, 40));
            }
        }
    }

    #[test]
    #[should_panic(expected = "flit width must be in")]
    fn zero_width_panics() {
        let _ = FlitSlab::new(0);
    }

    #[test]
    #[should_panic(expected = "flit width must be in")]
    fn width_above_the_maximum_panics() {
        let _ = FlitSlab::with_capacity(MAX_WIDTH_BITS + 1, 4);
    }

    #[test]
    #[should_panic(expected = "exceeds flit width")]
    fn lane_past_the_width_panics() {
        let mut slab = FlitSlab::new(64);
        slab.push_zeroed(1);
        slab.set_lane(0, 60, 8, 0);
    }
}
