//! [`FlitSlab`] — a stream of equal-width flit images in one dense buffer.
//!
//! A [`PayloadBits`] is sized for the widest link ([`MAX_WIDTH_BITS`]), so
//! a stream of narrow flits stored as `Vec<PayloadBits>` moves 136 bytes
//! per flit whatever the link width. A slab stores each flit as a row of
//! exactly the `u64` words its width covers, back to back: a 256-bit
//! stream takes 32 bytes per flit and a 64-bit stream 8, so stream
//! kernels that index flits at random stay in cache.

use crate::payload::{PayloadBits, MAX_WIDTH_BITS};

/// `u64` words of the widest flit row ([`MAX_WIDTH_BITS`]): the size of
/// a stack buffer that holds any row.
pub const MAX_ROW_WORDS: usize = (MAX_WIDTH_BITS / 64) as usize;

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

    /// Bit transitions between each flit and the flit `lag` places
    /// before it, summed over the slab:
    /// `Σ_{k ≥ lag} popcount(flit(k) ⊕ flit(k − lag))` in one pass over
    /// the words.
    #[must_use]
    pub fn lagged_transitions(&self, lag: usize) -> u64 {
        let later = self.words.get(lag * self.words_per_flit..).unwrap_or(&[]);
        later
            .iter()
            .zip(&self.words)
            .map(|(a, b)| u64::from((a ^ b).count_ones()))
            .sum()
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
        set_row_field(
            &mut self.words[flit * self.words_per_flit..][..self.words_per_flit],
            offset,
            len,
            value,
        );
    }

    /// A slab holding `images`, each `width` bits wide.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds [`MAX_WIDTH_BITS`], or an image
    /// is not `width` bits wide.
    #[must_use]
    pub fn from_images(width: u32, images: &[PayloadBits]) -> Self {
        let mut slab = Self::with_capacity(width, images.len());
        for image in images {
            assert_eq!(image.width(), width, "image width differs from the slab's");
            slab.push_row(image.used_words());
        }
        slab
    }

    /// Drops every flit and re-widths the slab to `width`, keeping its
    /// capacity — how a buffer reused across packets starts the next one.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds [`MAX_WIDTH_BITS`].
    pub fn reset(&mut self, width: u32) {
        assert!(
            width > 0 && width <= MAX_WIDTH_BITS,
            "flit width must be in 1..={MAX_WIDTH_BITS}, got {width}"
        );
        self.width = width;
        self.words_per_flit = width.div_ceil(64) as usize;
        self.words.clear();
    }

    /// Reserves room for exactly `flits` more flits.
    pub fn reserve(&mut self, flits: usize) {
        self.words.reserve_exact(flits * self.words_per_flit);
    }

    /// Appends one flit given as its row of words.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not [`FlitSlab::words_per_flit`] words long.
    #[inline]
    pub fn push_row(&mut self, row: &[u64]) {
        assert_eq!(
            row.len(),
            self.words_per_flit,
            "row length differs from the slab's"
        );
        debug_assert!(
            self.width.is_multiple_of(64) || row[row.len() - 1] >> (self.width % 64) == 0,
            "row bits above the width"
        );
        self.words.extend_from_slice(row);
    }

    /// Appends one flit given as a row of at most
    /// [`FlitSlab::words_per_flit`] words, zero-extended onto this slab's
    /// width (the re-alignment of a narrower row onto a wider link). The
    /// row keeps its bits below its own width, so they stay below this
    /// slab's.
    ///
    /// # Panics
    ///
    /// Panics if `row` is longer than [`FlitSlab::words_per_flit`].
    #[inline]
    pub fn push_row_padded(&mut self, row: &[u64]) {
        assert!(
            row.len() <= self.words_per_flit,
            "a {}-word row does not fit {}-word flits",
            row.len(),
            self.words_per_flit
        );
        self.words.extend_from_slice(row);
        self.words
            .resize(self.words.len() + self.words_per_flit - row.len(), 0);
    }

    /// The row of flit `i`, writable. The caller keeps the bits at or
    /// above the width zero.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn flit_mut(&mut self, i: usize) -> &mut [u64] {
        &mut self.words[i * self.words_per_flit..][..self.words_per_flit]
    }

    /// Appends every flit of `rows`, zero-extended onto this slab's
    /// width (the re-alignment of narrower rows onto a wider link) — one
    /// bulk copy when the rows are stored densely at this slab's row
    /// length.
    ///
    /// # Panics
    ///
    /// Panics if a flit of `rows` is wider than this slab.
    pub fn extend_rows(&mut self, rows: &(impl FlitRows + ?Sized)) {
        let (n, width) = (rows.flit_count(), self.width);
        let fits = |i| rows.flit_width(i) <= width;
        match rows.dense(self.words_per_flit) {
            // Dense rows share one width.
            Some(words) => {
                assert!(n == 0 || fits(0), "cannot narrow flits onto {width} bits");
                self.words.extend_from_slice(words);
            }
            None => {
                for i in 0..n {
                    assert!(fits(i), "cannot narrow flits onto {width} bits");
                    self.push_row_padded(rows.row(i));
                }
            }
        }
    }

    /// ORs `bits` into the slab at bit `offset` of its rows laid back to
    /// back (flit `offset / 64 / words_per_flit`) — the template
    /// fill's lane write: the lane is still zero and lies within one
    /// word, so no read-mask cycle is needed. Both are the caller's
    /// contract and are debug-asserted, as is `bits` staying below the
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if the offset lies outside the slab.
    #[inline]
    pub fn or_bits(&mut self, offset: u32, bits: u64) {
        let shift = offset % 64;
        debug_assert!(
            shift == 0 || bits >> (64 - shift) == 0,
            "lane straddles a word boundary"
        );
        let index = (offset / 64) as usize;
        let cell = &mut self.words[index];
        debug_assert!(*cell & (bits << shift) == 0, "lane is not blank");
        *cell |= bits << shift;
        debug_assert!(
            (index % self.words_per_flit) as u32 * 64 + 64 <= self.width
                || *cell >> (self.width % 64) == 0,
            "lane past the width"
        );
    }

    /// ORs `prefixes` into the leading words of the rows: row `i` takes
    /// `prefixes[i * words..][..words]` into its first `words` words — a
    /// whole run of pre-rendered lanes merged word by word. The caller
    /// keeps the prefixes' bits below the width.
    ///
    /// # Panics
    ///
    /// Panics if `words` is 0 or exceeds [`FlitSlab::words_per_flit`], or
    /// `prefixes` does not hold `words` words per row.
    pub fn or_row_prefixes(&mut self, prefixes: &[u64], words: usize) {
        assert!(
            words > 0 && words <= self.words_per_flit,
            "a row prefix of {words} words does not fit {}-word rows",
            self.words_per_flit
        );
        assert_eq!(prefixes.len(), self.len() * words, "one prefix per row");
        for (row, prefix) in self
            .words
            .chunks_exact_mut(self.words_per_flit)
            .zip(prefixes.chunks_exact(words))
        {
            for (cell, &bits) in row.iter_mut().zip(prefix) {
                *cell |= bits;
            }
        }
    }

    /// Re-widths every flit to `width` in place, zero-extending each row
    /// (the frame's EDC field above the data wires starts blank).
    ///
    /// # Panics
    ///
    /// Panics if `width` is narrower than the slab or exceeds
    /// [`MAX_WIDTH_BITS`].
    pub fn widen(&mut self, width: u32) {
        assert!(
            width >= self.width && width <= MAX_WIDTH_BITS,
            "cannot widen {}-bit flits to {width} bits",
            self.width
        );
        let (from, to) = (self.words_per_flit, width.div_ceil(64) as usize);
        let flits = self.len();
        self.width = width;
        self.words_per_flit = to;
        if to == from {
            return;
        }
        self.words.resize(flits * to, 0);
        // Back to front, so no row is overwritten before it moves.
        for i in (0..flits).rev() {
            self.words.copy_within(i * from..(i + 1) * from, i * to);
            self.words[i * to + from..(i + 1) * to].fill(0);
        }
    }

    /// Flits `range` as a borrowed [`FlitRows`] view: one packet's rows
    /// out of a slab that holds many packets.
    ///
    /// # Panics
    ///
    /// Panics if `range` reaches past the slab.
    #[must_use]
    pub fn rows(&self, range: std::ops::Range<usize>) -> SlabRows<'_> {
        let wpf = self.words_per_flit;
        SlabRows {
            width: self.width,
            words_per_flit: wpf,
            words: &self.words[range.start * wpf..range.end * wpf],
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

/// Read access to a packet's flits as dense rows of `u64` words (wire
/// `k` is bit `k % 64` of word `k / 64`), whether they sit in a
/// [`FlitSlab`] (every engine's deliveries) or in [`PayloadBits`] images
/// (the slot-level oracles and image-level callers) — so one kernel
/// serves both.
pub trait FlitRows {
    /// Number of flits.
    fn flit_count(&self) -> usize;

    /// Width of flit `flit` in bits.
    fn flit_width(&self, flit: usize) -> u32;

    /// The words flit `flit`'s width covers.
    fn row(&self, flit: usize) -> &[u64];

    /// Word `word` of flit `flit`'s row — `self.row(flit)[word]`, which
    /// row sources may compute without forming the row.
    ///
    /// # Panics
    ///
    /// Panics if the word lies outside the row.
    #[inline]
    fn word(&self, flit: usize, word: usize) -> u64 {
        self.row(flit)[word]
    }

    /// Every row back to back in one word slice, when the rows are
    /// stored densely at `row_words` words each; `None` otherwise (the
    /// default).
    fn dense(&self, row_words: usize) -> Option<&[u64]> {
        let _ = row_words;
        None
    }
}

impl FlitRows for FlitSlab {
    fn flit_count(&self) -> usize {
        self.len()
    }

    fn flit_width(&self, _flit: usize) -> u32 {
        self.width
    }

    #[inline]
    fn row(&self, flit: usize) -> &[u64] {
        self.flit(flit)
    }

    #[inline]
    fn word(&self, flit: usize, word: usize) -> u64 {
        assert!(word < self.words_per_flit, "word {word} past the row");
        self.words[flit * self.words_per_flit + word]
    }

    fn dense(&self, row_words: usize) -> Option<&[u64]> {
        (row_words == self.words_per_flit).then_some(&self.words[..])
    }
}

/// Consecutive flits of a [`FlitSlab`], borrowed ([`FlitSlab::rows`]).
#[derive(Debug, Clone, Copy)]
pub struct SlabRows<'a> {
    width: u32,
    words_per_flit: usize,
    words: &'a [u64],
}

impl FlitRows for SlabRows<'_> {
    fn flit_count(&self) -> usize {
        self.words.len() / self.words_per_flit
    }

    fn flit_width(&self, _flit: usize) -> u32 {
        self.width
    }

    #[inline]
    fn row(&self, flit: usize) -> &[u64] {
        &self.words[flit * self.words_per_flit..][..self.words_per_flit]
    }

    fn dense(&self, row_words: usize) -> Option<&[u64]> {
        (row_words == self.words_per_flit).then_some(self.words)
    }
}

impl FlitRows for [PayloadBits] {
    fn flit_count(&self) -> usize {
        self.len()
    }

    fn flit_width(&self, flit: usize) -> u32 {
        self[flit].width()
    }

    #[inline]
    fn row(&self, flit: usize) -> &[u64] {
        self[flit].used_words()
    }
}

/// Bit transitions between two rows of equal length:
/// `popcount(a XOR b)` ([`PayloadBits::transitions_to`] on rows).
///
/// # Panics
///
/// Panics if the rows differ in length.
#[inline]
#[must_use]
pub fn row_transitions(a: &[u64], b: &[u64]) -> u32 {
    assert_eq!(a.len(), b.len(), "cannot compare rows of different lengths");
    a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
}

/// Writes a `len`-bit field (`len <= 64`) starting at bit `offset` of a
/// flit row, in place — [`PayloadBits::set_field`] on a row. Bits of
/// `value` above `len` are ignored.
///
/// # Panics
///
/// Panics if `len` is not in `1..=64` or the field runs past the row.
#[inline]
pub fn set_row_field(row: &mut [u64], offset: u32, len: u32, value: u64) {
    assert!(len > 0 && len <= 64, "field length must be in 1..=64");
    let mask = u64::MAX >> (64 - len);
    let value = value & mask;
    let (word, bit) = ((offset / 64) as usize, offset % 64);
    row[word] = (row[word] & !(mask << bit)) | (value << bit);
    if bit + len > 64 {
        // The field straddles a word boundary.
        let low = 64 - bit;
        row[word + 1] = (row[word + 1] & !(mask >> low)) | (value >> low);
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
    fn reused_slabs_rewidth_append_and_widen_rows() {
        let images: Vec<PayloadBits> = (0..3u64)
            .map(|i| {
                let mut image = PayloadBits::zero(100);
                image.set_field(0, 64, 0x0123_4567_89ab_cdef ^ i);
                image.set_field(64, 36, 0xf_ffff_fff0 | i);
                image
            })
            .collect();
        let mut slab = FlitSlab::from_images(100, &images);
        assert_eq!(slab.to_payloads(), images);
        // Widening keeps every row's bits and zeroes the new wires.
        slab.widen(136);
        let wide: Vec<PayloadBits> = images.iter().map(|p| p.resized(136)).collect();
        assert_eq!(slab.to_payloads(), wide);
        // A reset slab reuses its buffer at another width; appending a
        // narrower slab zero-extends its rows.
        slab.reset(136);
        assert!(slab.is_empty());
        slab.extend_rows(&FlitSlab::from_images(100, &images));
        assert_eq!(slab.to_payloads(), wide);
        // Lane ORs address the rows back to back.
        let mut slab = FlitSlab::new(128);
        slab.push_zeroed(2);
        slab.or_bits(128 + 72, 0xab);
        assert_eq!(slab.flit(1), &[0, 0xab00]);
        assert_eq!(FlitRows::word(&slab, 1, 1), 0xab00);
        // Row prefixes OR into each row's leading words.
        slab.or_row_prefixes(&[0x1, 0x2], 1);
        assert_eq!(slab.flit(0), &[0x1, 0]);
        assert_eq!(slab.flit(1), &[0x2, 0xab00]);
        // A row view reads the same words.
        let tail = slab.rows(1..2);
        assert_eq!(tail.flit_count(), 1);
        assert_eq!(tail.flit_width(0), 128);
        assert_eq!(tail.row(0), slab.flit(1));
        assert_eq!(tail.dense(2), Some(slab.flit(1)));
    }

    #[test]
    fn lagged_transitions_sum_row_distances() {
        let images: Vec<PayloadBits> = (0..5u64)
            .map(|i| {
                let mut image = PayloadBits::zero(70);
                image.set_field(0, 64, i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                image.set_field(64, 6, i * 11);
                image
            })
            .collect();
        let slab = FlitSlab::from_images(70, &images);
        for lag in 0..7 {
            let want: u64 = (lag..images.len())
                .map(|k| u64::from(images[k].transitions_to(&images[k - lag])))
                .sum();
            assert_eq!(slab.lagged_transitions(lag), want, "lag {lag}");
        }
        assert_eq!(
            row_transitions(slab.flit(0), slab.flit(3)),
            images[0].transitions_to(&images[3])
        );
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
