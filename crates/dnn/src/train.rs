//! SGD training with softmax cross-entropy.
//!
//! Produces the "trained weights" configuration of Table I and the NoC
//! experiments. Training is fully deterministic given a seed.

use crate::data::Sample;
use crate::model::Sequential;
use crate::tensor::Tensor;

/// Numerically stable softmax.
#[must_use]
pub fn softmax(logits: &Tensor) -> Tensor {
    let max = logits
        .data()
        .iter()
        .cloned()
        .fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.data().iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    Tensor::from_vec(logits.shape(), exps.into_iter().map(|e| e / sum).collect())
        .expect("same shape")
}

/// Softmax cross-entropy loss and its gradient with respect to the logits.
///
/// # Panics
///
/// Panics if `label` is out of range.
#[must_use]
pub fn cross_entropy(logits: &Tensor, label: usize) -> (f32, Tensor) {
    assert!(label < logits.len(), "label out of range");
    let probs = softmax(logits);
    let loss = -(probs.data()[label].max(1e-12)).ln();
    let mut grad = probs;
    grad.data_mut()[label] -= 1.0;
    (loss, grad)
}

/// Training configuration.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// Number of passes over the dataset.
    pub epochs: usize,
    /// Learning rate.
    pub lr: f32,
    /// Samples per SGD step (gradients accumulate across the batch).
    pub batch_size: usize,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// L2 weight decay coupled to the learning rate (`w ← w·(1 − lr·wd)`
    /// each step). Converged DNN weights concentrate near zero — the
    /// distribution the paper's trained-weight experiments rely on — and
    /// weight decay is the standard mechanism that produces it.
    pub weight_decay: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 3,
            lr: 0.02,
            batch_size: 8,
            lr_decay: 0.7,
            weight_decay: 1e-3,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss of each epoch.
    pub epoch_losses: Vec<f32>,
    /// Accuracy on the evaluation set after training (0..=1).
    pub eval_accuracy: f32,
}

/// Trains `model` in place on `train_set`, evaluating on `eval_set`.
pub fn train(
    model: &mut Sequential,
    train_set: &[Sample],
    eval_set: &[Sample],
    config: &TrainConfig,
) -> TrainReport {
    let mut lr = config.lr;
    let mut epoch_losses = Vec::with_capacity(config.epochs);
    for _ in 0..config.epochs {
        let mut total_loss = 0.0f64;
        let mut since_step = 0usize;
        for sample in train_set {
            let logits = model.forward(&sample.input);
            let (loss, grad) = cross_entropy(&logits, sample.label);
            total_loss += f64::from(loss);
            model.backward(&grad);
            since_step += 1;
            if since_step == config.batch_size {
                model.sgd_step_decayed(lr / config.batch_size as f32, config.weight_decay);
                since_step = 0;
            }
        }
        if since_step > 0 {
            model.sgd_step_decayed(lr / since_step as f32, config.weight_decay);
        }
        epoch_losses.push((total_loss / train_set.len() as f64) as f32);
        lr *= config.lr_decay;
    }
    TrainReport {
        epoch_losses,
        eval_accuracy: accuracy(model, eval_set),
    }
}

/// Classification accuracy of `model` on `samples`.
#[must_use]
pub fn accuracy(model: &Sequential, samples: &[Sample]) -> f32 {
    if samples.is_empty() {
        return 0.0;
    }
    let correct = samples
        .iter()
        .filter(|s| model.infer(&s.input).argmax() == s.label)
        .count();
    correct as f32 / samples.len() as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticDigits;
    use crate::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
    use crate::model::Layer;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn softmax_sums_to_one() {
        let logits = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]).unwrap();
        let p = softmax(&logits);
        let sum: f32 = p.data().iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(p.data()[2] > p.data()[1] && p.data()[1] > p.data()[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_logits() {
        let logits = Tensor::from_vec(&[2], vec![1000.0, 1001.0]).unwrap();
        let p = softmax(&logits);
        assert!(p.data().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn cross_entropy_gradient_direction() {
        let logits = Tensor::from_vec(&[3], vec![0.0, 0.0, 0.0]).unwrap();
        let (loss, grad) = cross_entropy(&logits, 1);
        assert!((loss - (3.0f32).ln()).abs() < 1e-5);
        // Gradient pushes the true class up (negative grad) and others down.
        assert!(grad.data()[1] < 0.0);
        assert!(grad.data()[0] > 0.0 && grad.data()[2] > 0.0);
        let sum: f32 = grad.data().iter().sum();
        assert!(sum.abs() < 1e-6);
    }

    /// A small conv net trains to well-above-chance accuracy on the
    /// synthetic digits within a few hundred samples. This is the learnable
    /// dataset guarantee the "trained weights" configuration rests on.
    #[test]
    fn small_model_learns_synthetic_digits() {
        let mut rng = StdRng::seed_from_u64(5);
        let gen = SyntheticDigits::new();
        let train_set = gen.dataset(300, &mut rng);
        let eval_set = gen.dataset(100, &mut rng);
        let mut wrng = StdRng::seed_from_u64(0);
        let mut model = Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 4, 5, 2, 0, &mut wrng)),
            Layer::Activation(Activation::new(ActKind::ReLU)),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(4 * 7 * 7, 10, &mut wrng)),
        ]);
        let report = train(
            &mut model,
            &train_set,
            &eval_set,
            &TrainConfig {
                epochs: 3,
                lr: 0.05,
                batch_size: 8,
                lr_decay: 0.7,
                weight_decay: 0.0,
            },
        );
        assert!(
            report.epoch_losses.last().unwrap() < &report.epoch_losses[0],
            "loss must decrease: {:?}",
            report.epoch_losses
        );
        assert!(
            report.eval_accuracy > 0.4,
            "expected well above 10% chance, got {}",
            report.eval_accuracy
        );
    }

    #[test]
    fn accuracy_of_empty_set_is_zero() {
        let model = crate::models::lenet::build(0);
        assert_eq!(accuracy(&model, &[]), 0.0);
    }
}
