//! Neural-network layers with forward and backward passes.
//!
//! All layers operate on single-sample tensors (`[C, H, W]` feature maps or
//! `[N]` vectors); the trainer accumulates gradients across a mini-batch by
//! calling backward once per sample before the SGD step.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Activation function kinds shared by [`Activation`] and the inference
/// graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActKind {
    /// Rectified linear unit.
    ReLU,
    /// Leaky ReLU with the given negative slope (DarkNet uses 0.1).
    LeakyReLU(f32),
    /// Hyperbolic tangent (classic LeNet nonlinearity).
    Tanh,
}

impl ActKind {
    /// Applies the activation to a scalar.
    #[must_use]
    pub fn apply(self, x: f32) -> f32 {
        match self {
            ActKind::ReLU => x.max(0.0),
            ActKind::LeakyReLU(slope) => {
                if x > 0.0 {
                    x
                } else {
                    slope * x
                }
            }
            ActKind::Tanh => x.tanh(),
        }
    }

    /// Derivative given the pre-activation input.
    #[must_use]
    pub fn derivative(self, x: f32) -> f32 {
        match self {
            ActKind::ReLU => {
                if x > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            ActKind::LeakyReLU(slope) => {
                if x > 0.0 {
                    1.0
                } else {
                    slope
                }
            }
            ActKind::Tanh => {
                let t = x.tanh();
                1.0 - t * t
            }
        }
    }
}

/// Kaiming-uniform style initialization bound for a fan-in.
fn init_bound(fan_in: usize) -> f32 {
    (1.0 / fan_in as f32).sqrt()
}

/// 2-D convolution over a `[C_in, H, W]` input.
#[derive(Debug, Clone)]
pub struct Conv2d {
    /// Input channel count.
    pub in_channels: usize,
    /// Output channel count.
    pub out_channels: usize,
    /// Square kernel size `k`.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding on each side.
    pub padding: usize,
    /// Weights `[out_c, in_c, k, k]`.
    pub weight: Tensor,
    /// Biases `[out_c]`.
    pub bias: Tensor,
    /// Accumulated weight gradients.
    pub grad_weight: Tensor,
    /// Accumulated bias gradients.
    pub grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Conv2d {
    /// Creates a convolution with Kaiming-uniform random weights.
    #[must_use]
    pub fn new(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut StdRng,
    ) -> Self {
        let fan_in = in_channels * kernel * kernel;
        let bound = init_bound(fan_in);
        let wlen = out_channels * in_channels * kernel * kernel;
        let weight = Tensor::from_vec(
            &[out_channels, in_channels, kernel, kernel],
            (0..wlen).map(|_| rng.gen_range(-bound..bound)).collect(),
        )
        .expect("shape matches data");
        let bias = Tensor::from_vec(
            &[out_channels],
            (0..out_channels)
                .map(|_| rng.gen_range(-bound..bound))
                .collect(),
        )
        .expect("shape matches data");
        Self {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            grad_weight: Tensor::zeros(weight.shape()),
            grad_bias: Tensor::zeros(bias.shape()),
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Output spatial size for an input spatial size.
    #[must_use]
    pub fn out_size(&self, in_size: usize) -> usize {
        (in_size + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Forward pass; caches the input for backward.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.cached_input = Some(input.clone());
        out
    }

    /// Inference-only forward (no caching).
    ///
    /// # Panics
    ///
    /// Panics if the input is not `[in_channels, H, W]`.
    #[must_use]
    pub fn infer(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.shape().len(), 3, "conv input must be [C, H, W]");
        assert_eq!(input.shape()[0], self.in_channels, "channel mismatch");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = (self.out_size(h), self.out_size(w));
        let mut out = Tensor::zeros(&[self.out_channels, oh, ow]);
        for oc in 0..self.out_channels {
            let b = self.bias.data()[oc];
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = b;
                    for ic in 0..self.in_channels {
                        for kh in 0..self.kernel {
                            let ih = y * self.stride + kh;
                            let Some(ih) = ih.checked_sub(self.padding) else {
                                continue;
                            };
                            if ih >= h {
                                continue;
                            }
                            for kw in 0..self.kernel {
                                let iw = x * self.stride + kw;
                                let Some(iw) = iw.checked_sub(self.padding) else {
                                    continue;
                                };
                                if iw >= w {
                                    continue;
                                }
                                acc += input.at3(ic, ih, iw) * self.weight.at4(oc, ic, kh, kw);
                            }
                        }
                    }
                    out.set3(oc, y, x, acc);
                }
            }
        }
        out
    }

    /// Backward pass: accumulates parameter gradients and returns the
    /// gradient with respect to the input.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Conv2d::forward`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward requires a prior forward");
        let (h, w) = (input.shape()[1], input.shape()[2]);
        let (oh, ow) = (grad_out.shape()[1], grad_out.shape()[2]);
        let mut grad_in = Tensor::zeros(input.shape());
        for oc in 0..self.out_channels {
            for y in 0..oh {
                for x in 0..ow {
                    let g = grad_out.at3(oc, y, x);
                    if g == 0.0 {
                        continue;
                    }
                    self.grad_bias.data_mut()[oc] += g;
                    for ic in 0..self.in_channels {
                        for kh in 0..self.kernel {
                            let ih = y * self.stride + kh;
                            let Some(ih) = ih.checked_sub(self.padding) else {
                                continue;
                            };
                            if ih >= h {
                                continue;
                            }
                            for kw in 0..self.kernel {
                                let iw = x * self.stride + kw;
                                let Some(iw) = iw.checked_sub(self.padding) else {
                                    continue;
                                };
                                if iw >= w {
                                    continue;
                                }
                                self.grad_weight
                                    .add4(oc, ic, kh, kw, g * input.at3(ic, ih, iw));
                                grad_in.add3(ic, ih, iw, g * self.weight.at4(oc, ic, kh, kw));
                            }
                        }
                    }
                }
            }
        }
        grad_in
    }
}

/// Fully connected layer over a `[N]` vector.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Input feature count.
    pub in_features: usize,
    /// Output feature count.
    pub out_features: usize,
    /// Weights `[out, in]`.
    pub weight: Tensor,
    /// Biases `[out]`.
    pub bias: Tensor,
    /// Accumulated weight gradients.
    pub grad_weight: Tensor,
    /// Accumulated bias gradients.
    pub grad_bias: Tensor,
    cached_input: Option<Tensor>,
}

impl Linear {
    /// Creates a fully connected layer with Kaiming-uniform weights.
    #[must_use]
    pub fn new(in_features: usize, out_features: usize, rng: &mut StdRng) -> Self {
        let bound = init_bound(in_features);
        let weight = Tensor::from_vec(
            &[out_features, in_features],
            (0..in_features * out_features)
                .map(|_| rng.gen_range(-bound..bound))
                .collect(),
        )
        .expect("shape matches data");
        let bias = Tensor::from_vec(
            &[out_features],
            (0..out_features)
                .map(|_| rng.gen_range(-bound..bound))
                .collect(),
        )
        .expect("shape matches data");
        Self {
            in_features,
            out_features,
            grad_weight: Tensor::zeros(weight.shape()),
            grad_bias: Tensor::zeros(bias.shape()),
            weight,
            bias,
            cached_input: None,
        }
    }

    /// Forward pass; caches the input for backward.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let out = self.infer(input);
        self.cached_input = Some(input.clone());
        out
    }

    /// Inference-only forward.
    ///
    /// # Panics
    ///
    /// Panics if the input length differs from `in_features`.
    #[must_use]
    pub fn infer(&self, input: &Tensor) -> Tensor {
        assert_eq!(input.len(), self.in_features, "linear input size mismatch");
        let mut out = Tensor::zeros(&[self.out_features]);
        for o in 0..self.out_features {
            let row = &self.weight.data()[o * self.in_features..(o + 1) * self.in_features];
            let mut acc = self.bias.data()[o];
            for (x, w) in input.data().iter().zip(row.iter()) {
                acc += x * w;
            }
            out.data_mut()[o] = acc;
        }
        out
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Linear::forward`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward requires a prior forward");
        let mut grad_in = Tensor::zeros(&[self.in_features]);
        for o in 0..self.out_features {
            let g = grad_out.data()[o];
            self.grad_bias.data_mut()[o] += g;
            let row_start = o * self.in_features;
            for i in 0..self.in_features {
                self.grad_weight.data_mut()[row_start + i] += g * input.data()[i];
                grad_in.data_mut()[i] += g * self.weight.data()[row_start + i];
            }
        }
        grad_in
    }
}

/// Max pooling over non-overlapping (or strided) windows.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    /// Window size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    cached_input_shape: Option<Vec<usize>>,
    cached_argmax: Vec<usize>,
}

impl MaxPool2d {
    /// Creates a max-pool layer.
    #[must_use]
    pub fn new(kernel: usize, stride: usize) -> Self {
        Self {
            kernel,
            stride,
            cached_input_shape: None,
            cached_argmax: Vec::new(),
        }
    }

    /// Forward pass; records argmax positions for backward.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let (out, argmax) = self.infer_with_argmax(input);
        self.cached_input_shape = Some(input.shape().to_vec());
        self.cached_argmax = argmax;
        out
    }

    /// Inference-only forward.
    #[must_use]
    pub fn infer(&self, input: &Tensor) -> Tensor {
        self.infer_with_argmax(input).0
    }

    fn infer_with_argmax(&self, input: &Tensor) -> (Tensor, Vec<usize>) {
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let oh = (h - self.kernel) / self.stride + 1;
        let ow = (w - self.kernel) / self.stride + 1;
        let mut out = Tensor::zeros(&[c, oh, ow]);
        let mut argmax = vec![0usize; c * oh * ow];
        for ch in 0..c {
            for y in 0..oh {
                for x in 0..ow {
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = 0;
                    for kh in 0..self.kernel {
                        for kw in 0..self.kernel {
                            let (ih, iw) = (y * self.stride + kh, x * self.stride + kw);
                            let v = input.at3(ch, ih, iw);
                            if v > best {
                                best = v;
                                best_idx = (ch * h + ih) * w + iw;
                            }
                        }
                    }
                    out.set3(ch, y, x, best);
                    argmax[(ch * oh + y) * ow + x] = best_idx;
                }
            }
        }
        (out, argmax)
    }

    /// Backward pass: routes each gradient to its argmax position.
    ///
    /// # Panics
    ///
    /// Panics if called before [`MaxPool2d::forward`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_input_shape
            .as_ref()
            .expect("backward requires a prior forward");
        let mut grad_in = Tensor::zeros(shape);
        for (g, &idx) in grad_out.data().iter().zip(self.cached_argmax.iter()) {
            grad_in.data_mut()[idx] += g;
        }
        grad_in
    }
}

/// Average pooling.
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    /// Window size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    cached_input_shape: Option<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pool layer.
    #[must_use]
    pub fn new(kernel: usize, stride: usize) -> Self {
        Self {
            kernel,
            stride,
            cached_input_shape: None,
        }
    }

    /// Forward pass.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_input_shape = Some(input.shape().to_vec());
        self.infer(input)
    }

    /// Inference-only forward.
    #[must_use]
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let oh = (h - self.kernel) / self.stride + 1;
        let ow = (w - self.kernel) / self.stride + 1;
        let norm = 1.0 / (self.kernel * self.kernel) as f32;
        let mut out = Tensor::zeros(&[c, oh, ow]);
        for ch in 0..c {
            for y in 0..oh {
                for x in 0..ow {
                    let mut acc = 0.0;
                    for kh in 0..self.kernel {
                        for kw in 0..self.kernel {
                            acc += input.at3(ch, y * self.stride + kh, x * self.stride + kw);
                        }
                    }
                    out.set3(ch, y, x, acc * norm);
                }
            }
        }
        out
    }

    /// Backward pass: distributes each gradient uniformly over its window.
    ///
    /// # Panics
    ///
    /// Panics if called before [`AvgPool2d::forward`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_input_shape
            .as_ref()
            .expect("backward requires a prior forward");
        let mut grad_in = Tensor::zeros(shape);
        let (_, oh, ow) = (
            grad_out.shape()[0],
            grad_out.shape()[1],
            grad_out.shape()[2],
        );
        let norm = 1.0 / (self.kernel * self.kernel) as f32;
        for ch in 0..grad_out.shape()[0] {
            for y in 0..oh {
                for x in 0..ow {
                    let g = grad_out.at3(ch, y, x) * norm;
                    for kh in 0..self.kernel {
                        for kw in 0..self.kernel {
                            grad_in.add3(ch, y * self.stride + kh, x * self.stride + kw, g);
                        }
                    }
                }
            }
        }
        grad_in
    }
}

/// Element-wise activation layer.
#[derive(Debug, Clone)]
pub struct Activation {
    /// The activation function.
    pub kind: ActKind,
    cached_input: Option<Tensor>,
}

impl Activation {
    /// Creates an activation layer.
    #[must_use]
    pub fn new(kind: ActKind) -> Self {
        Self {
            kind,
            cached_input: None,
        }
    }

    /// Forward pass; caches the pre-activation input.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_input = Some(input.clone());
        self.infer(input)
    }

    /// Inference-only forward.
    #[must_use]
    pub fn infer(&self, input: &Tensor) -> Tensor {
        input.map(|x| self.kind.apply(x))
    }

    /// Backward pass.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Activation::forward`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward requires a prior forward");
        let mut grad_in = grad_out.clone();
        for (g, &x) in grad_in.data_mut().iter_mut().zip(input.data().iter()) {
            *g *= self.kind.derivative(x);
        }
        grad_in
    }
}

/// Flattens `[C, H, W]` into `[C·H·W]`.
#[derive(Debug, Clone)]
pub struct Flatten {
    cached_shape: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    #[must_use]
    pub fn new() -> Self {
        Self { cached_shape: None }
    }

    /// Forward pass.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        self.cached_shape = Some(input.shape().to_vec());
        self.infer(input)
    }

    /// Inference-only forward.
    #[must_use]
    pub fn infer(&self, input: &Tensor) -> Tensor {
        input.reshaped(&[input.len()])
    }

    /// Backward pass: reshapes the gradient back.
    ///
    /// # Panics
    ///
    /// Panics if called before [`Flatten::forward`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let shape = self
            .cached_shape
            .as_ref()
            .expect("backward requires a prior forward");
        grad_out.reshaped(shape)
    }
}

impl Default for Flatten {
    fn default() -> Self {
        Self::new()
    }
}

/// Batch normalization over channels of a `[C, H, W]` feature map.
///
/// With single-sample training the statistics are computed over the spatial
/// dimensions of the sample (the `N = H·W` elements per channel); inference
/// uses the running estimates. The inference graph folds BatchNorm into the
/// preceding convolution, so the accelerator never sees this layer.
#[derive(Debug, Clone)]
pub struct BatchNorm2d {
    /// Channel count.
    pub channels: usize,
    /// Scale parameters `[C]`.
    pub gamma: Tensor,
    /// Shift parameters `[C]`.
    pub beta: Tensor,
    /// Running mean `[C]` (inference statistics).
    pub running_mean: Tensor,
    /// Running variance `[C]`.
    pub running_var: Tensor,
    /// Numerical stabilizer.
    pub eps: f32,
    /// Running-statistics momentum.
    pub momentum: f32,
    /// Accumulated gamma gradients.
    pub grad_gamma: Tensor,
    /// Accumulated beta gradients.
    pub grad_beta: Tensor,
    cached: Option<BnCache>,
}

#[derive(Debug, Clone)]
struct BnCache {
    input: Tensor,
    mean: Vec<f32>,
    inv_std: Vec<f32>,
}

impl BatchNorm2d {
    /// Creates a BatchNorm layer with identity initialization.
    #[must_use]
    pub fn new(channels: usize) -> Self {
        Self {
            channels,
            gamma: Tensor::from_vec(&[channels], vec![1.0; channels]).expect("shape"),
            beta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::from_vec(&[channels], vec![1.0; channels]).expect("shape"),
            eps: 1e-5,
            momentum: 0.1,
            grad_gamma: Tensor::zeros(&[channels]),
            grad_beta: Tensor::zeros(&[channels]),
            cached: None,
        }
    }

    /// Training-mode forward: normalizes with the sample's spatial
    /// statistics and updates the running estimates.
    pub fn forward(&mut self, input: &Tensor) -> Tensor {
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        assert_eq!(c, self.channels, "batchnorm channel mismatch");
        let n = (h * w) as f32;
        let mut out = Tensor::zeros(input.shape());
        let mut means = vec![0.0f32; c];
        let mut inv_stds = vec![0.0f32; c];
        for ch in 0..c {
            let mut mean = 0.0;
            for y in 0..h {
                for x in 0..w {
                    mean += input.at3(ch, y, x);
                }
            }
            mean /= n;
            let mut var = 0.0;
            for y in 0..h {
                for x in 0..w {
                    let d = input.at3(ch, y, x) - mean;
                    var += d * d;
                }
            }
            var /= n;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            means[ch] = mean;
            inv_stds[ch] = inv_std;
            let (g, b) = (self.gamma.data()[ch], self.beta.data()[ch]);
            for y in 0..h {
                for x in 0..w {
                    let xhat = (input.at3(ch, y, x) - mean) * inv_std;
                    out.set3(ch, y, x, g * xhat + b);
                }
            }
            let m = self.momentum;
            self.running_mean.data_mut()[ch] = (1.0 - m) * self.running_mean.data()[ch] + m * mean;
            self.running_var.data_mut()[ch] = (1.0 - m) * self.running_var.data()[ch] + m * var;
        }
        self.cached = Some(BnCache {
            input: input.clone(),
            mean: means,
            inv_std: inv_stds,
        });
        out
    }

    /// Inference-mode forward using the running statistics.
    #[must_use]
    pub fn infer(&self, input: &Tensor) -> Tensor {
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let mut out = Tensor::zeros(input.shape());
        for ch in 0..c {
            let inv_std = 1.0 / (self.running_var.data()[ch] + self.eps).sqrt();
            let mean = self.running_mean.data()[ch];
            let (g, b) = (self.gamma.data()[ch], self.beta.data()[ch]);
            for y in 0..h {
                for x in 0..w {
                    out.set3(ch, y, x, g * (input.at3(ch, y, x) - mean) * inv_std + b);
                }
            }
        }
        out
    }

    /// Backward pass through the training-mode normalization.
    ///
    /// # Panics
    ///
    /// Panics if called before [`BatchNorm2d::forward`].
    pub fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let cache = self
            .cached
            .as_ref()
            .expect("backward requires a prior forward");
        let input = &cache.input;
        let (c, h, w) = (input.shape()[0], input.shape()[1], input.shape()[2]);
        let n = (h * w) as f32;
        let mut grad_in = Tensor::zeros(input.shape());
        for ch in 0..c {
            let mean = cache.mean[ch];
            let inv_std = cache.inv_std[ch];
            let g = self.gamma.data()[ch];
            // Channel-wise sums for the standard BN backward formula.
            let mut sum_dy = 0.0f32;
            let mut sum_dy_xhat = 0.0f32;
            for y in 0..h {
                for x in 0..w {
                    let dy = grad_out.at3(ch, y, x);
                    let xhat = (input.at3(ch, y, x) - mean) * inv_std;
                    sum_dy += dy;
                    sum_dy_xhat += dy * xhat;
                }
            }
            self.grad_beta.data_mut()[ch] += sum_dy;
            self.grad_gamma.data_mut()[ch] += sum_dy_xhat;
            for y in 0..h {
                for x in 0..w {
                    let dy = grad_out.at3(ch, y, x);
                    let xhat = (input.at3(ch, y, x) - mean) * inv_std;
                    let dx = g * inv_std / n * (n * dy - sum_dy - xhat * sum_dy_xhat);
                    grad_in.set3(ch, y, x, dx);
                }
            }
        }
        grad_in
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(1234)
    }

    /// Numerical gradient check helper: perturbs `param[idx]` and compares
    /// the analytic gradient with the central finite difference of a scalar
    /// loss `L = Σ out²/2` (so dL/dout = out).
    fn conv_loss(conv: &Conv2d, input: &Tensor) -> f32 {
        let out = conv.infer(input);
        out.data().iter().map(|&x| x * x).sum::<f32>() / 2.0
    }

    #[test]
    fn conv_output_shape_matches_paper_layers() {
        let mut r = rng();
        // LeNet conv1: 32x32x1 -> 28x28x6 with k=5.
        let conv = Conv2d::new(1, 6, 5, 1, 0, &mut r);
        let out = conv.infer(&Tensor::zeros(&[1, 32, 32]));
        assert_eq!(out.shape(), &[6, 28, 28]);
        // DarkNet conv: 64x64x3 with k=3, pad=1 keeps spatial size.
        let conv = Conv2d::new(3, 8, 3, 1, 1, &mut r);
        let out = conv.infer(&Tensor::zeros(&[3, 64, 64]));
        assert_eq!(out.shape(), &[8, 64, 64]);
    }

    #[test]
    fn conv_known_values() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut r);
        conv.weight = Tensor::from_vec(&[1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        conv.bias = Tensor::from_vec(&[1], vec![0.5]).unwrap();
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        let out = conv.infer(&input);
        assert_eq!(out.shape(), &[1, 1, 1]);
        assert!((out.data()[0] - 10.5).abs() < 1e-6);
    }

    #[test]
    fn conv_weight_gradcheck() {
        let mut r = rng();
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut r);
        let input = Tensor::from_vec(
            &[2, 4, 4],
            (0..32).map(|i| (i as f32 * 0.37).sin()).collect(),
        )
        .unwrap();
        let out = conv.forward(&input);
        let _ = conv.backward(&out); // dL/dout = out for L = Σ out²/2
        let eps = 1e-3;
        for idx in [0usize, 7, 20, 53] {
            let analytic = conv.grad_weight.data()[idx];
            let orig = conv.weight.data()[idx];
            conv.weight.data_mut()[idx] = orig + eps;
            let lp = conv_loss(&conv, &input);
            conv.weight.data_mut()[idx] = orig - eps;
            let lm = conv_loss(&conv, &input);
            conv.weight.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "idx {idx}: analytic {analytic} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn conv_input_gradcheck() {
        let mut r = rng();
        let mut conv = Conv2d::new(1, 2, 3, 1, 0, &mut r);
        let mut input = Tensor::from_vec(
            &[1, 4, 4],
            (0..16).map(|i| (i as f32 * 0.71).cos()).collect(),
        )
        .unwrap();
        let out = conv.forward(&input);
        let grad_in = conv.backward(&out);
        let eps = 1e-3;
        for idx in [0usize, 5, 15] {
            let orig = input.data()[idx];
            input.data_mut()[idx] = orig + eps;
            let lp = conv_loss(&conv, &input);
            input.data_mut()[idx] = orig - eps;
            let lm = conv_loss(&conv, &input);
            input.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (grad_in.data()[idx] - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "idx {idx}"
            );
        }
    }

    #[test]
    fn linear_forward_and_gradcheck() {
        let mut r = rng();
        let mut lin = Linear::new(4, 3, &mut r);
        let input = Tensor::from_vec(&[4], vec![1.0, -2.0, 0.5, 3.0]).unwrap();
        let out = lin.forward(&input);
        assert_eq!(out.shape(), &[3]);
        let _ = lin.backward(&out);
        let eps = 1e-3;
        let loss = |l: &Linear| -> f32 {
            l.infer(&input).data().iter().map(|&x| x * x).sum::<f32>() / 2.0
        };
        for idx in [0usize, 5, 11] {
            let analytic = lin.grad_weight.data()[idx];
            let orig = lin.weight.data()[idx];
            lin.weight.data_mut()[idx] = orig + eps;
            let lp = loss(&lin);
            lin.weight.data_mut()[idx] = orig - eps;
            let lm = loss(&lin);
            lin.weight.data_mut()[idx] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((analytic - numeric).abs() < 1e-2 * (1.0 + numeric.abs()));
        }
    }

    #[test]
    fn maxpool_forward_backward() {
        let mut pool = MaxPool2d::new(2, 2);
        let input =
            Tensor::from_vec(&[1, 2, 4], vec![1.0, 5.0, 2.0, 0.0, 3.0, 4.0, 1.0, 9.0]).unwrap();
        let out = pool.forward(&input);
        assert_eq!(out.shape(), &[1, 1, 2]);
        assert_eq!(out.data(), &[5.0, 9.0]);
        let grad = pool.backward(&Tensor::from_vec(&[1, 1, 2], vec![1.0, 2.0]).unwrap());
        // Gradient lands on the argmax positions only.
        assert_eq!(grad.data(), &[0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0]);
    }

    #[test]
    fn avgpool_forward_backward() {
        let mut pool = AvgPool2d::new(2, 2);
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = pool.forward(&input);
        assert_eq!(out.data(), &[2.5]);
        let grad = pool.backward(&Tensor::from_vec(&[1, 1, 1], vec![4.0]).unwrap());
        assert_eq!(grad.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn activations() {
        for kind in [ActKind::ReLU, ActKind::LeakyReLU(0.1), ActKind::Tanh] {
            let mut act = Activation::new(kind);
            let input = Tensor::from_vec(&[3], vec![-1.0, 0.0, 2.0]).unwrap();
            let out = act.forward(&input);
            for (o, &x) in out.data().iter().zip(input.data().iter()) {
                assert!((o - kind.apply(x)).abs() < 1e-6);
            }
            let grad = act.backward(&Tensor::from_vec(&[3], vec![1.0, 1.0, 1.0]).unwrap());
            for (g, &x) in grad.data().iter().zip(input.data().iter()) {
                assert!((g - kind.derivative(x)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn relu_kills_negative_gradient() {
        let mut act = Activation::new(ActKind::ReLU);
        let input = Tensor::from_vec(&[2], vec![-5.0, 5.0]).unwrap();
        act.forward(&input);
        let grad = act.backward(&Tensor::from_vec(&[2], vec![1.0, 1.0]).unwrap());
        assert_eq!(grad.data(), &[0.0, 1.0]);
    }

    #[test]
    fn flatten_roundtrip() {
        let mut fl = Flatten::new();
        let input = Tensor::zeros(&[2, 3, 4]);
        let out = fl.forward(&input);
        assert_eq!(out.shape(), &[24]);
        let back = fl.backward(&out);
        assert_eq!(back.shape(), &[2, 3, 4]);
    }

    #[test]
    fn batchnorm_normalizes_training_sample() {
        let mut bn = BatchNorm2d::new(1);
        let input = Tensor::from_vec(&[1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = bn.forward(&input);
        let mean: f32 = out.data().iter().sum::<f32>() / 4.0;
        let var: f32 = out
            .data()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn batchnorm_inference_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let input = Tensor::from_vec(&[1, 2, 2], vec![10.0, 10.0, 10.0, 10.0]).unwrap();
        for _ in 0..200 {
            bn.forward(&input);
        }
        // Running mean converges to 10; inference maps 10 -> ~0.
        let out = bn.infer(&input);
        assert!(out.data()[0].abs() < 0.1, "got {}", out.data()[0]);
    }

    #[test]
    fn batchnorm_gradcheck_gamma() {
        let mut bn = BatchNorm2d::new(2);
        let input =
            Tensor::from_vec(&[2, 2, 2], vec![0.3, -1.2, 2.0, 0.7, 1.1, -0.4, 0.0, 0.9]).unwrap();
        let out = bn.forward(&input);
        let _ = bn.backward(&out);
        let eps = 1e-3;
        for ch in 0..2 {
            let analytic = bn.grad_gamma.data()[ch];
            let orig = bn.gamma.data()[ch];
            let loss = |bn: &mut BatchNorm2d| -> f32 {
                bn.forward(&input)
                    .data()
                    .iter()
                    .map(|&x| x * x)
                    .sum::<f32>()
                    / 2.0
            };
            bn.gamma.data_mut()[ch] = orig + eps;
            let lp = loss(&mut bn);
            bn.gamma.data_mut()[ch] = orig - eps;
            let lm = loss(&mut bn);
            bn.gamma.data_mut()[ch] = orig;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (analytic - numeric).abs() < 2e-2 * (1.0 + numeric.abs()),
                "ch {ch}: {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn strided_conv() {
        let mut r = rng();
        let conv = Conv2d::new(1, 1, 3, 2, 1, &mut r);
        let out = conv.infer(&Tensor::zeros(&[1, 8, 8]));
        assert_eq!(out.shape(), &[1, 4, 4]);
    }
}
