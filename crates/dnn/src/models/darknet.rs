//! Reduced DarkNet-like model (Sec. V-B-2, Fig. 13).
//!
//! The paper runs "a DarkNet-like model" with the input reduced to
//! 64×64×3 "to speed up the simulation". We follow the DarkNet reference
//! recipe — 3×3 convolutions with channel doubling, BatchNorm + leaky ReLU
//! (slope 0.1), 2×2 maxpool between stages, 1×1 classifier conv and global
//! average pooling — at a configurable base width (default 8) chosen so a
//! full inference stays laptop-fast. DESIGN.md §5 documents this
//! substitution; the workload retains what matters to the BT study: a much
//! larger deep-conv traffic volume and 3×3 kernel geometry vs LeNet's 5×5.

use crate::layer::{ActKind, Activation, AvgPool2d, BatchNorm2d, Conv2d, Flatten, MaxPool2d};
use crate::model::{Layer, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Input channel count (RGB).
pub const INPUT_CHANNELS: usize = 3;
/// Number of classes.
pub const CLASSES: usize = 10;
/// Default base width (channels after the first conv).
pub const DEFAULT_WIDTH: usize = 8;

/// Builds the DarkNet-like model with the default base width.
#[must_use]
pub fn build(seed: u64) -> Sequential {
    build_with_width(seed, DEFAULT_WIDTH)
}

/// Builds the DarkNet-like model with a custom base width.
///
/// Stages (input 64×64×3): `conv3×3(3→w)` → 32×32 → `conv3×3(w→2w)` →
/// 16×16 → `conv3×3(2w→4w)` → 8×8 → `conv3×3(4w→8w)` → 4×4 →
/// `conv1×1(8w→10)` → global avgpool → flatten.
///
/// # Panics
///
/// Panics if `width == 0`.
#[must_use]
pub fn build_with_width(seed: u64, width: usize) -> Sequential {
    assert!(width > 0, "width must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let w = width;
    let block = |in_c: usize, out_c: usize, rng: &mut StdRng| -> Vec<Layer> {
        vec![
            Layer::Conv2d(Conv2d::new(in_c, out_c, 3, 1, 1, rng)),
            Layer::BatchNorm2d(BatchNorm2d::new(out_c)),
            Layer::Activation(Activation::new(ActKind::LeakyReLU(0.1))),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        ]
    };
    let mut layers = Vec::new();
    layers.extend(block(INPUT_CHANNELS, w, &mut rng));
    layers.extend(block(w, 2 * w, &mut rng));
    layers.extend(block(2 * w, 4 * w, &mut rng));
    layers.extend(block(4 * w, 8 * w, &mut rng));
    // 1×1 classifier conv + global average pool, DarkNet-reference style.
    layers.push(Layer::Conv2d(Conv2d::new(
        8 * w,
        CLASSES,
        1,
        1,
        0,
        &mut rng,
    )));
    layers.push(Layer::AvgPool2d(AvgPool2d::new(4, 4)));
    layers.push(Layer::Flatten(Flatten::new()));
    Sequential::new(layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Input spatial size (the paper's reduced DarkNet input).
    const INPUT_SIZE: usize = 64;

    #[test]
    fn shapes_flow_through() {
        let mut m = build(0);
        let out = m.forward(&Tensor::zeros(&[INPUT_CHANNELS, INPUT_SIZE, INPUT_SIZE]));
        assert_eq!(out.shape(), &[CLASSES]);
    }

    #[test]
    fn width_scales_channels() {
        let m = build_with_width(0, 4);
        match &m.layers()[0] {
            Layer::Conv2d(c) => {
                assert_eq!(c.out_channels, 4);
                assert_eq!(c.kernel, 3);
                assert_eq!(c.padding, 1);
            }
            _ => panic!("first layer must be conv"),
        }
    }

    #[test]
    fn inference_graph_folds_all_batchnorms() {
        let ops = build(1).inference_ops();
        // 5 convs + 4 maxpools + 4 activations + avgpool + flatten = 15.
        assert_eq!(ops.len(), 15);
        let noc: usize = ops.iter().filter(|o| o.is_noc_op()).count();
        assert_eq!(noc, 5);
    }

    #[test]
    fn inference_matches_folded_graph() {
        let mut m = build(2);
        let input = Tensor::from_vec(
            &[3, 64, 64],
            (0..3 * 64 * 64)
                .map(|i| ((i as f32) * 0.013).sin() * 0.5)
                .collect(),
        )
        .unwrap();
        // A few training-mode passes so BN running stats move off identity.
        for _ in 0..5 {
            m.forward(&input);
        }
        let reference = m.infer(&input);
        let mut x = input;
        for op in m.inference_ops() {
            x = op.execute(&x);
        }
        for (a, b) in x.data().iter().zip(reference.data().iter()) {
            assert!((a - b).abs() < 1e-3, "{a} vs {b}");
        }
    }
}
