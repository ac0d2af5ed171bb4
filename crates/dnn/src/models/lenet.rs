//! LeNet-5 — the paper's primary workload (Figs. 2, 9–12).
//!
//! Classic architecture on 32×32×1 inputs:
//!
//! ```text
//! conv 5×5, 1→6   → tanh → maxpool 2×2      (28×28×6 → 14×14×6)
//! conv 5×5, 6→16  → tanh → maxpool 2×2      (10×10×16 → 5×5×16)
//! flatten → fc 400→120 → tanh → fc 120→84 → tanh → fc 84→10
//! ```
//!
//! Fig. 2's packetization example ("k·k (k=5) input + k·k (k=5) weight +
//! 1 bias") is exactly one conv1 neuron task of this model.

use crate::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
use crate::model::{Layer, Sequential};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Input channel count.
pub const INPUT_CHANNELS: usize = 1;
/// Number of classes.
pub const CLASSES: usize = 10;

/// Builds LeNet-5 with seeded random (Kaiming-uniform) weights — the
/// paper's "randomly initialized weights" configuration.
#[must_use]
pub fn build(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(1, 6, 5, 1, 0, &mut rng)),
        Layer::Activation(Activation::new(ActKind::Tanh)),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Conv2d(Conv2d::new(6, 16, 5, 1, 0, &mut rng)),
        Layer::Activation(Activation::new(ActKind::Tanh)),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(400, 120, &mut rng)),
        Layer::Activation(Activation::new(ActKind::Tanh)),
        Layer::Linear(Linear::new(120, 84, &mut rng)),
        Layer::Activation(Activation::new(ActKind::Tanh)),
        Layer::Linear(Linear::new(84, 10, &mut rng)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    /// Input spatial size.
    const INPUT_SIZE: usize = 32;

    #[test]
    fn shapes_flow_through() {
        let mut m = build(0);
        let out = m.forward(&Tensor::zeros(&[INPUT_CHANNELS, INPUT_SIZE, INPUT_SIZE]));
        assert_eq!(out.shape(), &[CLASSES]);
    }

    #[test]
    fn parameter_count_is_the_classic_61k() {
        // conv1 156 + conv2 2416 + fc1 48120 + fc2 10164 + fc3 850 = 61706.
        let m = build(0);
        assert_eq!(m.param_count(), 61_706);
    }

    #[test]
    fn builds_are_deterministic_per_seed() {
        let a = build(7);
        let b = build(7);
        let c = build(8);
        let (wa, wb, wc) = match (&a.layers()[0], &b.layers()[0], &c.layers()[0]) {
            (
                crate::model::Layer::Conv2d(x),
                crate::model::Layer::Conv2d(y),
                crate::model::Layer::Conv2d(z),
            ) => (x.weight.data(), y.weight.data(), z.weight.data()),
            _ => unreachable!(),
        };
        assert_eq!(wa, wb);
        assert_ne!(wa, wc);
    }

    #[test]
    fn inference_graph_has_expected_noc_ops() {
        let ops = build(0).inference_ops();
        let noc: usize = ops.iter().filter(|o| o.is_noc_op()).count();
        assert_eq!(noc, 5); // 2 convs + 3 fcs
    }
}
