//! Symmetric per-tensor fixed-point quantization.
//!
//! The paper transmits `fixed-8` payloads; DNN weights/activations are real
//! numbers, so a quantization step maps them to 8-bit two's-complement
//! codes. We use the standard symmetric per-tensor scheme:
//!
//! `code = round(clamp(x / scale, -1, 1) * q_max)` with
//! `scale = max(|x|)` over the tensor and `q_max = 2^(bits-1) - 1`.
//!
//! Integer codes make the accelerator's fixed-8 MAC results bit-exact and
//! order-independent (`i32` accumulator), which the integration tests rely
//! on to verify that ordering does not change inference outputs.

use crate::word::Fx8Word;

/// Error produced when constructing a [`Quantizer`] with an invalid scale.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantError {
    scale: f32,
}

impl std::fmt::Display for QuantError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "quantizer scale must be finite and positive, got {}",
            self.scale
        )
    }
}

impl std::error::Error for QuantError {}

/// Symmetric fixed-point quantizer with a per-tensor scale.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), btr_bits::QuantError> {
/// use btr_bits::Quantizer;
///
/// let q = Quantizer::from_data(&[0.5, -1.0, 0.25], 8)?;
/// let code = q.quantize_i32(0.5);
/// assert_eq!(code, 64); // 0.5 / 1.0 * 127 ≈ 64
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    scale: f32,
    bits: u32,
}

impl Quantizer {
    /// Creates a quantizer with an explicit scale (`max(|x|)` it can encode).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError`] if `scale` is not finite and positive.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is not in `2..=16`.
    pub fn new(scale: f32, bits: u32) -> Result<Self, QuantError> {
        assert!(
            (2..=16).contains(&bits),
            "quantizer bits must be in 2..=16, got {bits}"
        );
        if !(scale.is_finite() && scale > 0.0) {
            return Err(QuantError { scale });
        }
        Ok(Self { scale, bits })
    }

    /// Derives the scale from a data slice (`max(|x|)`, with a floor to keep
    /// all-zero tensors representable).
    ///
    /// # Errors
    ///
    /// Returns [`QuantError`] if the data contains non-finite values.
    pub fn from_data(data: &[f32], bits: u32) -> Result<Self, QuantError> {
        let mut max_abs = 0.0f32;
        for &x in data {
            if !x.is_finite() {
                return Err(QuantError { scale: x });
            }
            max_abs = max_abs.max(x.abs());
        }
        let scale = if max_abs > 0.0 { max_abs } else { 1.0 };
        Self::new(scale, bits)
    }

    /// The scale (largest representable magnitude).
    #[must_use]
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// Code width in bits.
    #[must_use]
    pub fn bits(&self) -> u32 {
        self.bits
    }

    /// Largest positive code (`2^(bits-1) - 1`).
    #[must_use]
    pub fn q_max(&self) -> i32 {
        (1i32 << (self.bits - 1)) - 1
    }

    /// Quantizes a value to its integer code, saturating at ±`q_max`.
    #[must_use]
    pub fn quantize_i32(&self, x: f32) -> i32 {
        let q_max = self.q_max() as f32;
        let scaled = (x / self.scale) * q_max;
        let rounded = scaled.round();
        rounded.clamp(-q_max, q_max) as i32
    }

    /// Dequantizes an integer code back to a real value.
    #[must_use]
    pub fn dequantize_i32(&self, code: i32) -> f32 {
        code as f32 * self.scale / self.q_max() as f32
    }

    /// Quantizes to an 8-bit word.
    ///
    /// # Panics
    ///
    /// Panics if the quantizer was not constructed with `bits == 8`.
    #[must_use]
    pub fn quantize_fx8(&self, x: f32) -> Fx8Word {
        assert_eq!(self.bits, 8, "quantizer is {}-bit, not 8-bit", self.bits);
        Fx8Word::new(self.quantize_i32(x) as i8)
    }

    /// Worst-case absolute quantization error (half a step).
    #[must_use]
    // btr-lint: allow(test-only-pub, reason = "tests/properties.rs quantization_error_bound bounds the round trip by it")
    pub fn max_abs_error(&self) -> f32 {
        self.scale / self.q_max() as f32 / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_within_half_step() {
        let q = Quantizer::new(2.0, 8).unwrap();
        for i in -100..=100 {
            let x = i as f32 / 50.0; // within [-2, 2]
            let code = q.quantize_i32(x);
            let back = q.dequantize_i32(code);
            assert!(
                (back - x).abs() <= q.max_abs_error() + 1e-6,
                "x={x} code={code} back={back}"
            );
        }
    }

    #[test]
    fn saturation() {
        let q = Quantizer::new(1.0, 8).unwrap();
        assert_eq!(q.quantize_i32(10.0), 127);
        assert_eq!(q.quantize_i32(-10.0), -127);
    }

    #[test]
    fn zero_maps_to_zero() {
        let q = Quantizer::new(3.0, 8).unwrap();
        assert_eq!(q.quantize_i32(0.0), 0);
        assert_eq!(q.dequantize_i32(0), 0.0);
    }

    #[test]
    fn from_data_uses_max_abs() {
        let q = Quantizer::from_data(&[0.1, -0.5, 0.3], 8).unwrap();
        assert_eq!(q.scale(), 0.5);
        assert_eq!(q.quantize_i32(-0.5), -127);
    }

    #[test]
    fn from_data_all_zero_is_valid() {
        let q = Quantizer::from_data(&[0.0, 0.0], 8).unwrap();
        assert_eq!(q.scale(), 1.0);
        assert_eq!(q.quantize_i32(0.0), 0);
    }

    #[test]
    fn from_data_rejects_nan() {
        assert!(Quantizer::from_data(&[0.0, f32::NAN], 8).is_err());
        assert!(Quantizer::from_data(&[f32::INFINITY], 8).is_err());
    }

    #[test]
    fn invalid_scale_rejected() {
        assert!(Quantizer::new(0.0, 8).is_err());
        assert!(Quantizer::new(-1.0, 8).is_err());
        assert!(Quantizer::new(f32::NAN, 8).is_err());
        let err = Quantizer::new(-1.0, 8).unwrap_err();
        assert!(err.to_string().contains("finite and positive"));
    }

    #[test]
    fn fx8_words() {
        let q = Quantizer::new(1.0, 8).unwrap();
        let w = q.quantize_fx8(-0.5);
        assert_eq!(w.code(), -64);
        assert!((q.dequantize_i32(i32::from(w.code())) + 0.5).abs() < 0.01);
    }

    #[test]
    fn fx16_words() {
        let q = Quantizer::new(1.0, 16).unwrap();
        assert_eq!(q.quantize_i32(0.5) as i16, 16384);
    }

    #[test]
    #[should_panic(expected = "not 8-bit")]
    fn fx8_requires_8_bits() {
        let q = Quantizer::new(1.0, 16).unwrap();
        let _ = q.quantize_fx8(0.5);
    }

    #[test]
    fn near_zero_values_have_low_magnitude_codes() {
        // The property behind Table I's 55.71% trained-fixed-8 reduction:
        // converged weights cluster near zero, so |code| is small.
        let q = Quantizer::new(1.0, 8).unwrap();
        let code = q.quantize_i32(0.01);
        assert!(code.abs() <= 2);
    }

    #[test]
    fn quantize_slice() {
        let q = Quantizer::new(1.0, 8).unwrap();
        let words: Vec<Fx8Word> = [0.0, 1.0, -1.0].map(|x| q.quantize_fx8(x)).into();
        assert_eq!(words.len(), 3);
        assert_eq!(words[1].code(), 127);
        assert_eq!(words[2].code(), -127);
    }
}
