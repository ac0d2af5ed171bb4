//! Model containers and the inference graph the accelerator consumes.
//!
//! [`Sequential`] is a simple layer list with enum dispatch (no trait
//! objects), which lets the accelerator pattern-match layers and extract
//! weights directly. [`Sequential::inference_ops`] lowers a trained model to
//! [`InferenceOp`]s with BatchNorm folded into the preceding convolution, so
//! the accelerator only has to handle convolution / linear (NoC traffic) and
//! memory-side ops (pooling, activation, flatten).

use crate::layer::{
    ActKind, Activation, AvgPool2d, BatchNorm2d, Conv2d, Flatten, Linear, MaxPool2d,
};
use crate::tensor::Tensor;

/// One layer of a [`Sequential`] model.
#[derive(Debug, Clone)]
pub enum Layer {
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Fully connected layer.
    Linear(Linear),
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Average pooling.
    AvgPool2d(AvgPool2d),
    /// Element-wise activation.
    Activation(Activation),
    /// Batch normalization.
    BatchNorm2d(BatchNorm2d),
    /// Flatten to a vector.
    Flatten(Flatten),
}

impl Layer {
    /// Short layer name for summaries.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Layer::Conv2d(_) => "conv2d",
            Layer::Linear(_) => "linear",
            Layer::MaxPool2d(_) => "maxpool2d",
            Layer::AvgPool2d(_) => "avgpool2d",
            Layer::Activation(_) => "activation",
            Layer::BatchNorm2d(_) => "batchnorm2d",
            Layer::Flatten(_) => "flatten",
        }
    }

    /// Training-mode forward.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        match self {
            Layer::Conv2d(l) => l.forward(input),
            Layer::Linear(l) => l.forward(input),
            Layer::MaxPool2d(l) => l.forward(input),
            Layer::AvgPool2d(l) => l.forward(input),
            Layer::Activation(l) => l.forward(input),
            Layer::BatchNorm2d(l) => l.forward(input),
            Layer::Flatten(l) => l.forward(input),
        }
    }

    /// Inference-mode forward (BatchNorm uses running statistics).
    #[must_use]
    pub fn infer(&self, input: &Tensor) -> Tensor {
        match self {
            Layer::Conv2d(l) => l.infer(input),
            Layer::Linear(l) => l.infer(input),
            Layer::MaxPool2d(l) => l.infer(input),
            Layer::AvgPool2d(l) => l.infer(input),
            Layer::Activation(l) => l.infer(input),
            Layer::BatchNorm2d(l) => l.infer(input),
            Layer::Flatten(l) => l.infer(input),
        }
    }

    /// Backward pass.
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        match self {
            Layer::Conv2d(l) => l.backward(grad_out),
            Layer::Linear(l) => l.backward(grad_out),
            Layer::MaxPool2d(l) => l.backward(grad_out),
            Layer::AvgPool2d(l) => l.backward(grad_out),
            Layer::Activation(l) => l.backward(grad_out),
            Layer::BatchNorm2d(l) => l.backward(grad_out),
            Layer::Flatten(l) => l.backward(grad_out),
        }
    }

    /// Applies one SGD step and clears gradients, with L2 weight decay on
    /// weights (not biases/BN params): `w ← w·(1 − lr·wd) − lr·∇w`.
    pub fn sgd_step_decayed(&mut self, lr: f32, weight_decay: f32) {
        let shrink = 1.0 - lr * weight_decay;
        match self {
            Layer::Conv2d(l) => {
                if weight_decay > 0.0 {
                    l.weight.data_mut().iter_mut().for_each(|w| *w *= shrink);
                }
                l.weight.axpy(-lr, &l.grad_weight);
                l.bias.axpy(-lr, &l.grad_bias);
                l.grad_weight.fill_zero();
                l.grad_bias.fill_zero();
            }
            Layer::Linear(l) => {
                if weight_decay > 0.0 {
                    l.weight.data_mut().iter_mut().for_each(|w| *w *= shrink);
                }
                l.weight.axpy(-lr, &l.grad_weight);
                l.bias.axpy(-lr, &l.grad_bias);
                l.grad_weight.fill_zero();
                l.grad_bias.fill_zero();
            }
            Layer::BatchNorm2d(l) => {
                l.gamma.axpy(-lr, &l.grad_gamma);
                l.beta.axpy(-lr, &l.grad_beta);
                l.grad_gamma.fill_zero();
                l.grad_beta.fill_zero();
            }
            _ => {}
        }
    }
}

/// A feed-forward stack of layers.
#[derive(Debug, Clone)]
pub struct Sequential {
    layers: Vec<Layer>,
}

impl Sequential {
    /// Creates a model from a layer list.
    #[must_use]
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// The layers.
    #[must_use]
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable layer access (used by the trainer).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Training-mode forward through all layers.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x);
        }
        x
    }

    /// Inference-mode forward.
    #[must_use]
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let mut x = input.clone();
        for layer in &self.layers {
            x = layer.infer(&x);
        }
        x
    }

    /// Backward through all layers (after a training-mode forward).
    pub fn backward(&mut self, grad_out: &Tensor) {
        let mut g = grad_out.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
    }

    /// SGD update with L2 weight decay on every trainable layer,
    /// clearing gradients (see [`Layer::sgd_step_decayed`]).
    pub fn sgd_step_decayed(&mut self, lr: f32, weight_decay: f32) {
        for layer in &mut self.layers {
            layer.sgd_step_decayed(lr, weight_decay);
        }
    }

    /// Total trainable parameter count.
    #[cfg(test)]
    pub(crate) fn param_count(&self) -> usize {
        let count = |layer: &Layer| match layer {
            Layer::Conv2d(l) => l.weight.len() + l.bias.len(),
            Layer::Linear(l) => l.weight.len() + l.bias.len(),
            Layer::BatchNorm2d(l) => l.gamma.len() + l.beta.len(),
            _ => 0,
        };
        self.layers.iter().map(count).sum()
    }

    /// Lowers the model to the accelerator's inference graph, folding each
    /// BatchNorm into the convolution immediately preceding it.
    ///
    /// # Panics
    ///
    /// Panics if a BatchNorm is not directly preceded by a convolution
    /// (the only composition our models use).
    #[must_use]
    pub fn inference_ops(&self) -> Vec<InferenceOp> {
        let mut ops: Vec<InferenceOp> = Vec::with_capacity(self.layers.len());
        for layer in &self.layers {
            match layer {
                Layer::Conv2d(l) => ops.push(InferenceOp::Conv {
                    weight: l.weight.clone(),
                    bias: l.bias.clone(),
                    stride: l.stride,
                    padding: l.padding,
                }),
                Layer::Linear(l) => ops.push(InferenceOp::Linear {
                    weight: l.weight.clone(),
                    bias: l.bias.clone(),
                }),
                Layer::MaxPool2d(l) => ops.push(InferenceOp::MaxPool {
                    kernel: l.kernel,
                    stride: l.stride,
                }),
                Layer::AvgPool2d(l) => ops.push(InferenceOp::AvgPool {
                    kernel: l.kernel,
                    stride: l.stride,
                }),
                Layer::Activation(l) => ops.push(InferenceOp::Activation(l.kind)),
                Layer::Flatten(_) => ops.push(InferenceOp::Flatten),
                Layer::BatchNorm2d(bn) => {
                    let Some(InferenceOp::Conv { weight, bias, .. }) = ops.last_mut() else {
                        panic!("BatchNorm must follow a convolution for folding");
                    };
                    fold_batchnorm_into_conv(weight, bias, bn);
                }
            }
        }
        ops
    }
}

/// Folds inference-mode BatchNorm statistics into conv weights/bias:
/// `w' = w·γ/σ`, `b' = (b − μ)·γ/σ + β` with `σ = sqrt(var + eps)`.
fn fold_batchnorm_into_conv(weight: &mut Tensor, bias: &mut Tensor, bn: &BatchNorm2d) {
    let out_c = weight.shape()[0];
    assert_eq!(out_c, bn.channels, "BatchNorm channel mismatch with conv");
    let per_filter = weight.len() / out_c;
    for oc in 0..out_c {
        let sigma = (bn.running_var.data()[oc] + bn.eps).sqrt();
        let scale = bn.gamma.data()[oc] / sigma;
        for i in 0..per_filter {
            weight.data_mut()[oc * per_filter + i] *= scale;
        }
        bias.data_mut()[oc] =
            (bias.data()[oc] - bn.running_mean.data()[oc]) * scale + bn.beta.data()[oc];
    }
}

/// One operation of the lowered inference graph.
///
/// `Conv` and `Linear` generate NoC traffic (their operands are fetched
/// from memory through the network); the rest execute memory-side between
/// layers ("the layer-level interval effectively hides ordering latency",
/// Sec. IV-C-3).
#[derive(Debug, Clone)]
pub enum InferenceOp {
    /// Convolution with folded BatchNorm (if any).
    Conv {
        /// Weights `[out_c, in_c, k, k]`.
        weight: Tensor,
        /// Biases `[out_c]`.
        bias: Tensor,
        /// Stride.
        stride: usize,
        /// Zero padding.
        padding: usize,
    },
    /// Fully connected layer.
    Linear {
        /// Weights `[out, in]`.
        weight: Tensor,
        /// Biases `[out]`.
        bias: Tensor,
    },
    /// Max pooling (memory-side).
    MaxPool {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Average pooling (memory-side).
    AvgPool {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
    },
    /// Element-wise activation (memory-side).
    Activation(ActKind),
    /// Flatten (memory-side).
    Flatten,
}

impl InferenceOp {
    /// True when the op ships operands over the NoC (conv / linear).
    #[must_use]
    pub fn is_noc_op(&self) -> bool {
        matches!(self, InferenceOp::Conv { .. } | InferenceOp::Linear { .. })
    }

    /// Reference (float) execution of this op, used to verify the
    /// accelerator and to produce the next layer's inputs.
    #[must_use]
    pub fn execute(&self, input: &Tensor) -> Tensor {
        match self {
            InferenceOp::Conv {
                weight,
                bias,
                stride,
                padding,
            } => conv_forward(input, weight, bias, *stride, *padding),
            InferenceOp::Linear { weight, bias } => linear_forward(input, weight, bias),
            InferenceOp::MaxPool { kernel, stride } => {
                MaxPool2d::new(*kernel, *stride).infer(input)
            }
            InferenceOp::AvgPool { kernel, stride } => {
                AvgPool2d::new(*kernel, *stride).infer(input)
            }
            InferenceOp::Activation(kind) => input.map(|x| kind.apply(x)),
            InferenceOp::Flatten => input.reshaped(&[input.len()]),
        }
    }
}

/// Stand-alone conv forward over explicit weights (reference semantics for
/// the accelerator).
#[must_use]
pub fn conv_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    stride: usize,
    padding: usize,
) -> Tensor {
    let (out_c, in_c, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
    assert_eq!(input.shape()[0], in_c, "conv channel mismatch");
    let (h, w) = (input.shape()[1], input.shape()[2]);
    let oh = (h + 2 * padding - k) / stride + 1;
    let ow = (w + 2 * padding - k) / stride + 1;
    let mut out = Tensor::zeros(&[out_c, oh, ow]);
    for oc in 0..out_c {
        for y in 0..oh {
            for x in 0..ow {
                let mut acc = bias.data()[oc];
                for ic in 0..in_c {
                    for kh in 0..k {
                        let ih = y * stride + kh;
                        let Some(ih) = ih.checked_sub(padding) else {
                            continue;
                        };
                        if ih >= h {
                            continue;
                        }
                        for kw in 0..k {
                            let iw = x * stride + kw;
                            let Some(iw) = iw.checked_sub(padding) else {
                                continue;
                            };
                            if iw >= w {
                                continue;
                            }
                            acc += input.at3(ic, ih, iw) * weight.at4(oc, ic, kh, kw);
                        }
                    }
                }
                out.set3(oc, y, x, acc);
            }
        }
    }
    out
}

/// Stand-alone linear forward (reference semantics for the accelerator).
#[must_use]
pub fn linear_forward(input: &Tensor, weight: &Tensor, bias: &Tensor) -> Tensor {
    let (out_f, in_f) = (weight.shape()[0], weight.shape()[1]);
    assert_eq!(input.len(), in_f, "linear input size mismatch");
    let mut out = Tensor::zeros(&[out_f]);
    for o in 0..out_f {
        let row = &weight.data()[o * in_f..(o + 1) * in_f];
        let mut acc = bias.data()[o];
        for (x, w) in input.data().iter().zip(row.iter()) {
            acc += x * w;
        }
        out.data_mut()[o] = acc;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
            Layer::BatchNorm2d(BatchNorm2d::new(2)),
            Layer::Activation(Activation::new(ActKind::ReLU)),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(2 * 4 * 4, 3, &mut rng)),
        ])
    }

    #[test]
    fn sequential_forward_shapes() {
        let mut m = tiny_model(0);
        let out = m.forward(&Tensor::zeros(&[1, 8, 8]));
        assert_eq!(out.shape(), &[3]);
        assert!(m.param_count() > 0);
        assert_eq!(m.layers().len(), 6);
    }

    #[test]
    fn train_step_changes_params() {
        let mut m = tiny_model(1);
        let input =
            Tensor::from_vec(&[1, 8, 8], (0..64).map(|i| i as f32 / 64.0).collect()).unwrap();
        let before: Vec<f32> = match &m.layers()[0] {
            Layer::Conv2d(c) => c.weight.data().to_vec(),
            _ => unreachable!(),
        };
        let out = m.forward(&input);
        m.backward(&out);
        m.sgd_step_decayed(0.1, 0.0);
        let after: Vec<f32> = match &m.layers()[0] {
            Layer::Conv2d(c) => c.weight.data().to_vec(),
            _ => unreachable!(),
        };
        assert_ne!(before, after);
    }

    #[test]
    fn inference_ops_fold_batchnorm() {
        let mut m = tiny_model(2);
        // Run a few training steps so running stats are not identity.
        let input =
            Tensor::from_vec(&[1, 8, 8], (0..64).map(|i| (i as f32).sin()).collect()).unwrap();
        for _ in 0..50 {
            m.forward(&input);
        }
        let ops = m.inference_ops();
        // BatchNorm disappears: conv, act, pool, flatten, linear.
        assert_eq!(ops.len(), 5);
        assert!(matches!(ops[0], InferenceOp::Conv { .. }));
        // Folded graph output matches the model's inference path.
        let reference = m.infer(&input);
        let mut x = input.clone();
        for op in &ops {
            x = op.execute(&x);
        }
        for (a, b) in x.data().iter().zip(reference.data().iter()) {
            assert!((a - b).abs() < 1e-4, "{a} vs {b}");
        }
    }

    #[test]
    fn noc_op_classification() {
        let m = tiny_model(3);
        let ops = m.inference_ops();
        let noc_ops: Vec<bool> = ops.iter().map(InferenceOp::is_noc_op).collect();
        assert_eq!(noc_ops, vec![true, false, false, false, true]);
    }

    #[test]
    fn standalone_forwards_match_layer_forwards() {
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let input = Tensor::from_vec(
            &[2, 5, 5],
            (0..50).map(|i| (i as f32 * 0.3).cos()).collect(),
        )
        .unwrap();
        let a = conv.infer(&input);
        let b = conv_forward(&input, &conv.weight, &conv.bias, 1, 1);
        assert_eq!(a, b);

        let lin = Linear::new(10, 4, &mut rng);
        let v = Tensor::from_vec(&[10], (0..10).map(|i| i as f32).collect()).unwrap();
        assert_eq!(lin.infer(&v), linear_forward(&v, &lin.weight, &lin.bias));
    }

    #[test]
    #[should_panic(expected = "BatchNorm must follow a convolution")]
    fn fold_requires_preceding_conv() {
        let m = Sequential::new(vec![Layer::BatchNorm2d(BatchNorm2d::new(2))]);
        let _ = m.inference_ops();
    }
}
