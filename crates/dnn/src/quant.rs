//! Fixed-point quantization helpers over [`btr_bits::Quantizer`].
//!
//! The fixed-8 experiments quantize weights and activations per tensor
//! (symmetric, two's complement). The accelerator quantizes activations
//! dynamically — each layer's input tensor gets a scale from its own
//! max-abs — which matches how the reference quantized forward in
//! `btr-accel` is defined, so results are bit-exact between the two.

use crate::tensor::Tensor;
use btr_bits::word::Fx8Word;
use btr_bits::{QuantError, Quantizer};

/// A tensor quantized to 8-bit codes with its scale.
#[derive(Debug, Clone)]
pub struct QuantizedTensor {
    /// The 8-bit codes in the tensor's row-major order.
    pub codes: Vec<Fx8Word>,
    /// Original shape.
    pub shape: Vec<usize>,
    /// The quantizer (carries the scale).
    pub quantizer: Quantizer,
}

impl QuantizedTensor {
    /// Quantizes a tensor with a scale derived from its own max-abs.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError`] if the tensor contains non-finite values.
    pub fn quantize(tensor: &Tensor, bits: u32) -> Result<Self, QuantError> {
        let quantizer = Quantizer::from_data(tensor.data(), bits)?;
        let codes = tensor
            .data()
            .iter()
            .map(|&x| quantizer.quantize_fx8(x))
            .collect();
        Ok(Self {
            codes,
            shape: tensor.shape().to_vec(),
            quantizer,
        })
    }

    /// Quantizes with an explicit scale (e.g. `1.0` for a global Q0.7
    /// format shared by all tensors); values beyond the scale saturate.
    ///
    /// # Errors
    ///
    /// Returns [`QuantError`] if the scale is not finite and positive.
    pub fn quantize_with_scale(tensor: &Tensor, bits: u32, scale: f32) -> Result<Self, QuantError> {
        let quantizer = Quantizer::new(scale, bits)?;
        let codes = tensor
            .data()
            .iter()
            .map(|&x| quantizer.quantize_fx8(x))
            .collect();
        Ok(Self {
            codes,
            shape: tensor.shape().to_vec(),
            quantizer,
        })
    }

    /// Number of codes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// True when there are no codes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }
}

/// Groups an inference graph's conv kernels into packets: one packet per
/// (output-channel, input-channel) k×k kernel, the granularity of Fig. 2.
/// Linear layers contribute per-output-neuron weight rows, split into
/// kernel-sized chunks.
#[must_use]
pub fn kernel_packets(ops: &[crate::model::InferenceOp], chunk: usize) -> Vec<Vec<f32>> {
    use crate::model::InferenceOp;
    let mut packets = Vec::new();
    for op in ops {
        match op {
            InferenceOp::Conv { weight, .. } => {
                let (oc, ic, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
                let ksz = k * weight.shape()[3];
                for o in 0..oc {
                    for i in 0..ic {
                        let start = (o * ic + i) * ksz;
                        packets.push(weight.data()[start..start + ksz].to_vec());
                    }
                }
            }
            InferenceOp::Linear { weight, .. } => {
                let (out_f, in_f) = (weight.shape()[0], weight.shape()[1]);
                for o in 0..out_f {
                    let row = &weight.data()[o * in_f..(o + 1) * in_f];
                    for c in row.chunks(chunk) {
                        packets.push(c.to_vec());
                    }
                }
            }
            _ => {}
        }
    }
    packets
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::lenet;

    #[test]
    fn quantize_roundtrip_error_bound() {
        let t = Tensor::from_vec(&[4], vec![0.5, -0.25, 0.1, -0.9]).unwrap();
        let q = QuantizedTensor::quantize(&t, 8).unwrap();
        assert_eq!(q.len(), 4);
        assert!(!q.is_empty());
        for (a, &c) in t.data().iter().zip(&q.codes) {
            let b = q.quantizer.dequantize_i32(i32::from(c.code()));
            assert!((a - b).abs() <= q.quantizer.max_abs_error() + 1e-6);
        }
    }

    #[test]
    fn weight_pool_covers_all_noc_layers() {
        let ops = lenet::build(0).inference_ops();
        // Every packet back to back is the whole weight pool:
        // conv1 150 + conv2 2400 + fc 48000 + 10080 + 840 = 61470 weights
        // (biases excluded).
        assert_eq!(kernel_packets(&ops, 25).concat().len(), 61_470);
    }

    #[test]
    fn kernel_packets_match_fig2_granularity() {
        let ops = lenet::build(0).inference_ops();
        let packets = kernel_packets(&ops, 25);
        // conv1: 6 kernels of 25; conv2: 96 kernels of 25; fc rows chunked
        // by 25: fc1 120 rows × 16 full chunks, fc2 84 × 4, fc3 10 × 3
        // (tail chunks are shorter than 25).
        assert_eq!(
            packets.iter().filter(|p| p.len() == 25).count(),
            6 + 96 + 120 * 16 + 84 * 4 + 10 * 3
        );
        let total: usize = packets.iter().map(Vec::len).sum();
        assert_eq!(total, 61_470);
    }

    #[test]
    fn near_zero_tensor_quantizes_to_small_codes() {
        let t = Tensor::from_vec(&[3], vec![0.001, -0.002, 0.0005]).unwrap();
        let q = QuantizedTensor::quantize(&t, 8).unwrap();
        // Per-tensor scale adapts: the max-abs value maps to ±127.
        assert_eq!(q.codes[1].code(), -127);
    }
}
