//! [`PayloadBits`] — the bit image of a flit on the physical link wires.
//!
//! A flit traversing a `w`-bit link occupies `w` parallel wires; the bit
//! transitions between two consecutive flits on the same link are the
//! Hamming distance of their images (Fig. 8). `PayloadBits` stores up to
//! 1024 bits in `u64` words so that XOR + popcount is cheap.

/// Maximum supported link width in bits.
pub const MAX_WIDTH_BITS: u32 = 1024;
const WORDS: usize = (MAX_WIDTH_BITS / 64) as usize;

/// A fixed-width bit vector representing a flit's image on the link wires.
///
/// Widths up to [`MAX_WIDTH_BITS`] are supported; the paper uses 512-bit
/// (16 × float-32) and 128-bit (16 × fixed-8) links.
///
/// # Example
///
/// ```
/// use btr_bits::PayloadBits;
///
/// let mut a = PayloadBits::zero(128);
/// a.set_field(0, 8, 0xff);
/// let b = PayloadBits::zero(128);
/// assert_eq!(a.transitions_to(&b), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PayloadBits {
    words: [u64; WORDS],
    width: u32,
}

impl PayloadBits {
    /// Creates an all-zero image of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds [`MAX_WIDTH_BITS`].
    #[must_use]
    pub fn zero(width: u32) -> Self {
        assert!(
            width > 0 && width <= MAX_WIDTH_BITS,
            "payload width must be in 1..={MAX_WIDTH_BITS}, got {width}"
        );
        Self {
            words: [0; WORDS],
            width,
        }
    }

    /// Width of the link image in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Writes a `len`-bit field (`len <= 64`) starting at bit offset `offset`
    /// (LSB-first). Bits of `value` above `len` are ignored.
    ///
    /// # Panics
    ///
    /// Panics if the field does not fit within the payload width or
    /// `len > 64` or `len == 0`.
    #[inline]
    pub fn set_field(&mut self, offset: u32, len: u32, value: u64) {
        assert!(len > 0 && len <= 64, "field length must be in 1..=64");
        assert!(
            offset + len <= self.width,
            "field [{offset}, {}) exceeds payload width {}",
            offset + len,
            self.width
        );
        let value = if len == 64 {
            value
        } else {
            value & ((1u64 << len) - 1)
        };
        let word = (offset / 64) as usize;
        let bit = offset % 64;
        if bit + len <= 64 {
            let mask = if len == 64 {
                u64::MAX
            } else {
                ((1u64 << len) - 1) << bit
            };
            self.words[word] = (self.words[word] & !mask) | (value << bit);
        } else {
            // Field straddles a word boundary.
            let lo_len = 64 - bit;
            let hi_len = len - lo_len;
            let lo_mask = ((1u64 << lo_len) - 1) << bit;
            self.words[word] = (self.words[word] & !lo_mask) | ((value << bit) & lo_mask);
            let hi_mask = (1u64 << hi_len) - 1;
            self.words[word + 1] =
                (self.words[word + 1] & !hi_mask) | ((value >> lo_len) & hi_mask);
        }
    }

    /// Reads a `len`-bit field starting at `offset` (LSB-first).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`PayloadBits::set_field`].
    #[inline]
    #[must_use]
    pub fn field(&self, offset: u32, len: u32) -> u64 {
        assert!(len > 0 && len <= 64, "field length must be in 1..=64");
        assert!(
            offset + len <= self.width,
            "field [{offset}, {}) exceeds payload width {}",
            offset + len,
            self.width
        );
        let word = (offset / 64) as usize;
        let bit = offset % 64;
        let mask = if len == 64 {
            u64::MAX
        } else {
            (1u64 << len) - 1
        };
        if bit + len <= 64 {
            (self.words[word] >> bit) & mask
        } else {
            let lo_len = 64 - bit;
            let lo = self.words[word] >> bit;
            let hi = self.words[word + 1] << lo_len;
            (lo | hi) & mask
        }
    }

    /// Returns the value of a single bit.
    #[inline]
    #[must_use]
    pub fn bit(&self, index: u32) -> bool {
        assert!(
            index < self.width,
            "bit {index} out of range for width {}",
            self.width
        );
        (self.words[(index / 64) as usize] >> (index % 64)) & 1 == 1
    }

    /// Number of `u64` words actually covered by the payload width.
    ///
    /// All mutators keep bits at or above `width` zero, so scans can stop
    /// here instead of walking the full backing array — the NoC
    /// simulator's per-hop XOR/popcount loop relies on this.
    #[inline]
    #[must_use]
    fn words_used(&self) -> usize {
        self.width.div_ceil(64) as usize
    }

    /// The `u64` words the payload width covers, LSB-first: wire `i` is
    /// bit `i % 64` of word `i / 64`. Bits at or above the width are
    /// zero. Word-parallel kernels (per-wire transition counters, EDC
    /// tables) read the image through this instead of field by field.
    #[inline]
    #[must_use]
    pub fn used_words(&self) -> &[u64] {
        &self.words[..self.words_used()]
    }

    /// The `width`-bit image whose used words are `row` (a
    /// [`crate::FlitSlab::flit`] row or another image's
    /// [`PayloadBits::used_words`]).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds [`MAX_WIDTH_BITS`], or `row` is
    /// not exactly the words `width` covers.
    #[must_use]
    pub fn from_row(width: u32, row: &[u64]) -> Self {
        let mut image = Self::zero(width);
        image.assign_row(width, row);
        image
    }

    /// Overwrites this image with the `width`-bit row `row`, copying only
    /// the row's words — [`PayloadBits::clone_used_from`] for a dense
    /// row. The words above the row must already be zero, as for
    /// `clone_used_from`.
    ///
    /// # Panics
    ///
    /// Panics if `row` is not exactly the words `width` covers.
    #[inline]
    pub fn assign_row(&mut self, width: u32, row: &[u64]) {
        assert_eq!(
            row.len(),
            width.div_ceil(64) as usize,
            "a {width}-bit row covers {} words",
            width.div_ceil(64)
        );
        debug_assert!(
            self.words[row.len()..].iter().all(|&w| w == 0),
            "stale high words would survive a partial copy"
        );
        debug_assert!(
            width.is_multiple_of(64) || row[row.len() - 1] >> (width % 64) == 0,
            "row bits above the width"
        );
        self.words[..row.len()].copy_from_slice(row);
        self.width = width;
    }

    /// Overwrites this image with `other`, copying only the words
    /// `other`'s width covers — the hot-path alternative to a full
    /// 1024-bit struct copy for per-hop link recording.
    ///
    /// The skipped high words must already be zero in `self`, which holds
    /// whenever `self` was built at (or previously assigned from) the
    /// same width: all mutators keep bits at or above `width` zero.
    #[inline]
    pub fn clone_used_from(&mut self, other: &PayloadBits) {
        debug_assert!(
            self.words[other.words_used()..].iter().all(|&w| w == 0),
            "stale high words would survive a partial copy"
        );
        let used = other.words_used();
        self.words[..used].copy_from_slice(&other.words[..used]);
        self.width = other.width;
    }

    /// Total number of `'1'` bits in the image.
    #[inline]
    #[must_use]
    pub fn popcount(&self) -> u32 {
        self.words[..self.words_used()]
            .iter()
            .map(|w| w.count_ones())
            .sum()
    }

    /// Number of bit transitions when this image follows `previous` on the
    /// same link: `popcount(self XOR previous)`.
    ///
    /// # Panics
    ///
    /// Panics if the two images have different widths (they would not share
    /// a physical link).
    #[inline]
    #[must_use]
    pub fn transitions_to(&self, previous: &PayloadBits) -> u32 {
        assert_eq!(
            self.width, previous.width,
            "cannot compare payloads of different widths"
        );
        // Width-specialized fast paths: the paper's links are 128-bit
        // (fx8) and 512-bit (f32), i.e. 2 or 8 words — fixed-count loops
        // the compiler fully unrolls, instead of a variable-bound scan.
        match self.words_used() {
            1 => (self.words[0] ^ previous.words[0]).count_ones(),
            2 => {
                (self.words[0] ^ previous.words[0]).count_ones()
                    + (self.words[1] ^ previous.words[1]).count_ones()
            }
            8 => {
                let mut sum = 0;
                for i in 0..8 {
                    sum += (self.words[i] ^ previous.words[i]).count_ones();
                }
                sum
            }
            used => self.words[..used]
                .iter()
                .zip(previous.words[..used].iter())
                .map(|(a, b)| (a ^ b).count_ones())
                .sum(),
        }
    }

    /// Bitwise NOT within the payload width (used by bus-invert coding).
    #[inline]
    #[must_use]
    pub fn invert(&self) -> PayloadBits {
        // High words are already zero in `self` (all mutators keep bits at
        // or above the width zero), so only the covered words flip; a
        // partial last word is masked back below the width.
        let mut out = *self;
        let used = self.words_used();
        for w in out.words[..used].iter_mut() {
            *w = !*w;
        }
        let rem = self.width % 64;
        if rem != 0 {
            out.words[used - 1] &= (1u64 << rem) - 1;
        }
        out
    }

    /// The same bit pattern on a link of a different width: widening adds
    /// zero wires above the old MSB, narrowing drops the wires at and
    /// above the new width. Used by link codecs to append / strip
    /// side-channel wires (e.g. the bus-invert line).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds [`MAX_WIDTH_BITS`].
    #[inline]
    #[must_use]
    pub fn resized(&self, width: u32) -> PayloadBits {
        let mut out = PayloadBits::zero(width);
        // Word-level copy: high words stay zero in both representations,
        // so only the covered words move; narrowing masks the partial
        // last word back below the new width.
        let copy_words = self.words_used().min(out.words_used());
        out.words[..copy_words].copy_from_slice(&self.words[..copy_words]);
        if width < self.width {
            let rem = width % 64;
            if rem != 0 {
                out.words[(width / 64) as usize] &= (1u64 << rem) - 1;
            }
        }
        out
    }
}

impl std::fmt::Display for PayloadBits {
    /// Hex rendering, most-significant word first, for debugging traces.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let words_used = self.width.div_ceil(64) as usize;
        for (i, w) in self.words[..words_used].iter().enumerate().rev() {
            write!(f, "{w:016x}")?;
            if i > 0 {
                write!(f, "_")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_all_zero() {
        let p = PayloadBits::zero(512);
        assert_eq!(p.popcount(), 0);
        assert_eq!(p.width(), 512);
    }

    #[test]
    #[should_panic(expected = "payload width")]
    fn rejects_oversize_width() {
        let _ = PayloadBits::zero(MAX_WIDTH_BITS + 1);
    }

    #[test]
    fn set_and_get_aligned_fields() {
        let mut p = PayloadBits::zero(512);
        for i in 0..16 {
            p.set_field(i * 32, 32, u64::from(0xdead_0000u32 + i));
        }
        for i in 0..16 {
            assert_eq!(p.field(i * 32, 32), u64::from(0xdead_0000u32 + i));
        }
    }

    #[test]
    fn set_and_get_straddling_field() {
        let mut p = PayloadBits::zero(128);
        p.set_field(60, 8, 0xa5); // straddles word 0 / word 1
        assert_eq!(p.field(60, 8), 0xa5);
        assert_eq!(p.popcount(), 0xa5u64.count_ones());
        // Neighbors untouched.
        assert_eq!(p.field(0, 60), 0);
        assert_eq!(p.field(68, 60), 0);
    }

    #[test]
    fn set_field_overwrites() {
        let mut p = PayloadBits::zero(64);
        p.set_field(8, 8, 0xff);
        p.set_field(8, 8, 0x0f);
        assert_eq!(p.field(8, 8), 0x0f);
    }

    #[test]
    fn full_width_64_field() {
        let mut p = PayloadBits::zero(64);
        p.set_field(0, 64, u64::MAX);
        assert_eq!(p.field(0, 64), u64::MAX);
        assert_eq!(p.popcount(), 64);
    }

    #[test]
    fn transitions_is_hamming_distance() {
        let mut a = PayloadBits::zero(128);
        let mut b = PayloadBits::zero(128);
        a.set_field(0, 32, 0xffff_ffff);
        b.set_field(16, 32, 0xffff_ffff);
        // a = ones in [0,32), b = ones in [16,48) -> symmetric difference 32.
        assert_eq!(a.transitions_to(&b), 32);
        assert_eq!(b.transitions_to(&a), 32);
        assert_eq!(a.transitions_to(&a), 0);
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn transitions_rejects_width_mismatch() {
        let a = PayloadBits::zero(128);
        let b = PayloadBits::zero(512);
        let _ = a.transitions_to(&b);
    }

    #[test]
    fn invert_respects_width() {
        let p = PayloadBits::zero(100);
        let inv = p.invert();
        assert_eq!(inv.popcount(), 100);
        // Double inversion is identity.
        assert_eq!(inv.invert(), p);
    }

    #[test]
    fn bit_accessor() {
        let mut p = PayloadBits::zero(128);
        p.set_field(65, 1, 1);
        assert!(p.bit(65));
        assert!(!p.bit(64));
        assert_eq!(p.popcount(), 1);
    }

    #[test]
    fn resized_widens_and_narrows() {
        let mut p = PayloadBits::zero(100);
        p.set_field(90, 10, 0x3ff);
        p.set_field(0, 8, 0xa5);
        let wide = p.resized(128);
        assert_eq!(wide.width(), 128);
        assert_eq!(wide.popcount(), p.popcount());
        assert_eq!(wide.field(90, 10), 0x3ff);
        // Narrowing drops the high wires only.
        let narrow = wide.resized(90);
        assert_eq!(narrow.popcount(), 0xa5u64.count_ones());
        assert_eq!(narrow.field(0, 8), 0xa5);
        // Round-trip through a wider link is identity.
        assert_eq!(wide.resized(100), p);
    }

    #[test]
    fn display_is_hex() {
        let mut p = PayloadBits::zero(128);
        p.set_field(0, 8, 0xab);
        let s = p.to_string();
        assert!(s.ends_with("ab"), "got {s}");
    }
}
