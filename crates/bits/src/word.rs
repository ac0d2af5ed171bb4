//! Typed data words and the [`DataWord`] abstraction.
//!
//! The paper evaluates two payload formats: 32-bit IEEE-754 floating point
//! (`float-32`) carried on 512-bit links and 8-bit two's-complement fixed
//! point (`fixed-8`) carried on 128-bit links, 16 values per flit in both
//! cases. The ordering rule only ever inspects a word's `'1'`-bit count
//! (popcount) and its raw bit image, so everything downstream is generic
//! over [`DataWord`].

use crate::swar;

/// Payload data format used by an experiment configuration.
///
/// The format determines the bit width of each value on the link and hence,
/// for a fixed number of values per flit, the link width (Sec. V-B: 512-bit
/// links for 16 float-32 values, 128-bit links for 16 fixed-8 values).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataFormat {
    /// 32-bit IEEE-754 floating point (`float-32` in the paper).
    Float32,
    /// 8-bit two's-complement fixed point (`fixed-8` in the paper).
    Fixed8,
}

impl DataFormat {
    /// Bit width of one value in this format.
    #[must_use]
    pub const fn bits_per_value(self) -> u32 {
        match self {
            DataFormat::Float32 => 32,
            DataFormat::Fixed8 => 8,
        }
    }

    /// Short lower-case name used in experiment output tables.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            DataFormat::Float32 => "float-32",
            DataFormat::Fixed8 => "fixed-8",
        }
    }
}

impl std::fmt::Display for DataFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for DataFormat {
    type Err = String;

    /// Parses `"f32"`/`"float-32"` and `"fx8"`/`"fixed-8"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "f32" | "float32" | "float-32" => Ok(DataFormat::Float32),
            "fx8" | "fixed8" | "fixed-8" => Ok(DataFormat::Fixed8),
            other => Err(format!("unknown data format {other:?}; use f32|fx8")),
        }
    }
}

/// A fixed-width data word whose link image and `'1'`-bit count are known.
///
/// Implementors are small `Copy` types wrapping the raw encoding. The
/// ordering methods in `btr-core` sort by [`DataWord::popcount`] and the NoC
/// link model serializes via [`DataWord::bits_u64`].
pub trait DataWord: Copy + std::fmt::Debug {
    /// Width of the word in bits (number of physical wires it occupies).
    const WIDTH: u32;

    /// Raw bit image, right-aligned in a `u64` (upper bits zero).
    fn bits_u64(self) -> u64;

    /// Reconstructs a word from its link image (inverse of
    /// [`DataWord::bits_u64`]; bits above [`DataWord::WIDTH`] are ignored).
    /// This is how a receiving PE decodes operands off the wires.
    fn from_bits_u64(bits: u64) -> Self;

    /// Number of `'1'` bits in the word's link image.
    ///
    /// This is the quantity the paper's ordering rule sorts by.
    fn popcount(self) -> u32 {
        self.bits_u64().count_ones()
    }

    /// The all-zero word used for flit padding ("zeros are padded when the
    /// weight's kernel size doesn't exactly match the flit size", Sec. V-A).
    fn zero() -> Self;
}

/// A 32-bit IEEE-754 float word (`float-32`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct F32Word(f32);

impl F32Word {
    /// Wraps an `f32` value.
    #[must_use]
    pub fn new(value: f32) -> Self {
        Self(value)
    }

    /// The wrapped numeric value.
    #[must_use]
    pub fn value(self) -> f32 {
        self.0
    }

    /// Raw IEEE-754 bit image.
    #[must_use]
    pub fn bits(self) -> u32 {
        self.0.to_bits()
    }

    /// Reconstructs a word from a raw bit image.
    #[must_use]
    pub fn from_bits(bits: u32) -> Self {
        Self(f32::from_bits(bits))
    }
}

impl DataWord for F32Word {
    const WIDTH: u32 = 32;

    fn bits_u64(self) -> u64 {
        u64::from(self.0.to_bits())
    }

    fn from_bits_u64(bits: u64) -> Self {
        Self::from_bits(bits as u32)
    }

    fn popcount(self) -> u32 {
        // Mirror the hardware unit: SWAR popcount (Fig. 14). Bit-identical
        // to `count_ones`, asserted by tests in `swar`.
        swar::popcount_u32(self.0.to_bits())
    }

    fn zero() -> Self {
        Self(0.0)
    }
}

impl From<f32> for F32Word {
    fn from(v: f32) -> Self {
        Self::new(v)
    }
}

/// An 8-bit two's-complement fixed-point word (`fixed-8`).
///
/// The numeric interpretation (scale) lives in [`crate::fixed::Quantizer`];
/// this type is only the 8-bit link image.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fx8Word(i8);

impl Fx8Word {
    /// Wraps a signed 8-bit code.
    #[must_use]
    pub fn new(code: i8) -> Self {
        Self(code)
    }

    /// The signed integer code.
    #[must_use]
    pub fn code(self) -> i8 {
        self.0
    }

    /// Raw two's-complement bit image.
    #[must_use]
    pub fn bits(self) -> u8 {
        self.0 as u8
    }

    /// Reconstructs a word from a raw bit image.
    #[must_use]
    pub fn from_bits(bits: u8) -> Self {
        Self(bits as i8)
    }
}

impl DataWord for Fx8Word {
    const WIDTH: u32 = 8;

    fn bits_u64(self) -> u64 {
        u64::from(self.0 as u8)
    }

    fn from_bits_u64(bits: u64) -> Self {
        Self::from_bits(bits as u8)
    }

    fn popcount(self) -> u32 {
        swar::popcount_u8(self.0 as u8)
    }

    fn zero() -> Self {
        Self(0)
    }
}

impl From<i8> for Fx8Word {
    fn from(v: i8) -> Self {
        Self::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f32_word_roundtrip_and_popcount() {
        let w = F32Word::new(1.5);
        assert_eq!(w.value(), 1.5);
        assert_eq!(w.bits(), 1.5f32.to_bits());
        assert_eq!(w.popcount(), 1.5f32.to_bits().count_ones());
        assert_eq!(F32Word::from_bits(w.bits()), w);
    }

    #[test]
    fn f32_zero_has_zero_popcount() {
        assert_eq!(F32Word::zero().popcount(), 0);
        assert_eq!(F32Word::zero().bits_u64(), 0);
    }

    #[test]
    fn fx8_negative_codes_have_high_popcount() {
        // Two's complement: -1 = 0b1111_1111 (8 ones). This drives the
        // bimodal popcount distribution that makes fixed-8 trained weights
        // benefit most from ordering (Table I: 55.71%).
        assert_eq!(Fx8Word::new(-1).popcount(), 8);
        assert_eq!(Fx8Word::new(1).popcount(), 1);
        assert_eq!(Fx8Word::new(0).popcount(), 0);
        assert_eq!(Fx8Word::new(-128).popcount(), 1);
    }

    #[test]
    fn fx8_bits_roundtrip() {
        for code in i8::MIN..=i8::MAX {
            let w = Fx8Word::new(code);
            assert_eq!(Fx8Word::from_bits(w.bits()), w);
            assert_eq!(w.bits_u64(), u64::from(code as u8));
            assert_eq!(w.popcount(), (code as u8).count_ones());
        }
    }

    #[test]
    fn format_widths() {
        assert_eq!(DataFormat::Float32.bits_per_value(), 32);
        assert_eq!(DataFormat::Fixed8.bits_per_value(), 8);
        assert_eq!(DataFormat::Float32.to_string(), "float-32");
    }

    #[test]
    fn from_bits_u64_roundtrips() {
        let f = F32Word::new(-3.75);
        assert_eq!(F32Word::from_bits_u64(f.bits_u64()), f);
        let x = Fx8Word::new(-77);
        assert_eq!(Fx8Word::from_bits_u64(x.bits_u64()), x);
        // Upper bits are ignored.
        assert_eq!(Fx8Word::from_bits_u64(0xffff_ff01), Fx8Word::new(1));
    }

    #[test]
    fn words_fit_in_declared_width() {
        let w = F32Word::new(f32::from_bits(u32::MAX));
        assert!(w.bits_u64() < (1u64 << F32Word::WIDTH));
        let w = Fx8Word::new(-1);
        assert!(w.bits_u64() < (1u64 << Fx8Word::WIDTH));
    }
}
