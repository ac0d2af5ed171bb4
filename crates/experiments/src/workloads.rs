//! Deterministic weight sources and packet pools.

use btr_bits::word::{F32Word, Fx8Word};
use btr_dnn::data::SyntheticDigits;
use btr_dnn::models::lenet;
use btr_dnn::quant::{kernel_packets, QuantizedTensor};
use btr_dnn::train::{train, TrainConfig};
use btr_dnn::{InferenceOp, Sequential};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Which weights an experiment runs on (Table I: "random weights and
/// trained weights").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightSource {
    /// Randomly initialized (Kaiming-uniform) weights.
    Random,
    /// Weights trained to convergence on the synthetic digit dataset.
    Trained,
}

impl std::str::FromStr for WeightSource {
    type Err = String;

    /// Parses `"random"` / `"trained"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "random" => Ok(WeightSource::Random),
            "trained" => Ok(WeightSource::Trained),
            other => Err(format!(
                "unknown weight source {other:?}; use random|trained"
            )),
        }
    }
}

impl WeightSource {
    /// Display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            WeightSource::Random => "random",
            WeightSource::Trained => "trained",
        }
    }
}

/// A randomly initialized LeNet.
#[must_use]
pub fn lenet_random(seed: u64) -> Sequential {
    lenet::build(seed)
}

/// Trains LeNet on the synthetic digit dataset (deterministic per seed),
/// with weight decay so the converged weights concentrate near zero like a
/// fully trained MNIST LeNet.
///
/// Results are cached under `target/btr-cache/` keyed by the training
/// parameters, so separate experiment binaries train at most once.
#[must_use]
pub fn lenet_trained(seed: u64, train_samples: usize, epochs: usize) -> Sequential {
    let cache = std::path::PathBuf::from(format!(
        "target/btr-cache/lenet_s{seed}_n{train_samples}_e{epochs}.bin"
    ));
    let mut model = lenet::build(seed);
    if btr_dnn::checkpoint::load(&mut model, &cache).is_ok() {
        eprintln!("# trained LeNet loaded from {}", cache.display());
        return model;
    }
    let generator = SyntheticDigits::new();
    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
    let train_set = generator.dataset(train_samples, &mut rng);
    let eval_set = generator.dataset(200, &mut rng);
    let report = train(
        &mut model,
        &train_set,
        &eval_set,
        &TrainConfig {
            epochs,
            lr: 0.05,
            batch_size: 8,
            lr_decay: 0.8,
            weight_decay: 0.05,
        },
    );
    eprintln!(
        "# trained LeNet: losses {:?}, eval accuracy {:.1}%",
        report.epoch_losses,
        report.eval_accuracy * 100.0
    );
    if let Err(e) = btr_dnn::checkpoint::save(&model, &cache) {
        eprintln!("# warning: could not cache trained model: {e}");
    }
    model
}

/// Default training-set size for the trained-weights configuration.
pub const DEFAULT_TRAIN_SAMPLES: usize = 4_000;
/// Default epoch count for the trained-weights configuration.
pub const DEFAULT_EPOCHS: usize = 10;

/// Builds a LeNet for the given weight source.
#[must_use]
pub fn lenet(source: WeightSource, seed: u64) -> Sequential {
    match source {
        WeightSource::Random => lenet_random(seed),
        WeightSource::Trained => lenet_trained(seed, DEFAULT_TRAIN_SAMPLES, DEFAULT_EPOCHS),
    }
}

/// Float-32 kernel packets (Fig. 2 granularity) from a model's weights.
#[must_use]
pub fn f32_kernel_packets(model: &Sequential, chunk: usize) -> Vec<Vec<F32Word>> {
    kernel_packets(&model.inference_ops(), chunk)
        .into_iter()
        .map(|p| p.into_iter().map(F32Word::new).collect())
        .collect()
}

/// Fixed-8 quantization scheme for the weight streams.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fx8Scheme {
    /// Symmetric per-tensor max-abs scaling (each layer uses its full
    /// 8-bit range).
    PerTensor,
    /// A global fixed Q0.7 format (`code = round(127·x)`, clamp ±127):
    /// all layers share one scale, so small weights map to small codes
    /// with long sign-extension runs — the interpretation that reproduces
    /// the paper's fixed-8 BT magnitudes (see EXPERIMENTS.md).
    GlobalUnit,
}

impl std::str::FromStr for Fx8Scheme {
    type Err = String;

    /// Parses `"per-tensor"` / `"global"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "per-tensor" => Ok(Fx8Scheme::PerTensor),
            "global" => Ok(Fx8Scheme::GlobalUnit),
            other => Err(format!(
                "unknown fx8 scheme {other:?}; use per-tensor|global"
            )),
        }
    }
}

/// Fixed-8 kernel packets with per-tensor scaling (see
/// [`fx8_kernel_packets_scheme`]).
#[must_use]
pub fn fx8_kernel_packets(model: &Sequential, chunk: usize) -> Vec<Vec<Fx8Word>> {
    fx8_kernel_packets_scheme(model, chunk, Fx8Scheme::PerTensor)
}

/// Fixed-8 kernel packets: each conv/linear weight tensor is quantized
/// per the scheme, then chopped into kernel packets.
#[must_use]
pub fn fx8_kernel_packets_scheme(
    model: &Sequential,
    chunk: usize,
    scheme: Fx8Scheme,
) -> Vec<Vec<Fx8Word>> {
    let ops = model.inference_ops();
    let mut packets = Vec::new();
    for op in &ops {
        let weight = match op {
            InferenceOp::Conv { weight, .. } | InferenceOp::Linear { weight, .. } => weight,
            _ => continue,
        };
        let q = match scheme {
            Fx8Scheme::PerTensor => QuantizedTensor::quantize(weight, 8).expect("finite weights"),
            Fx8Scheme::GlobalUnit => {
                QuantizedTensor::quantize_with_scale(weight, 8, 1.0).expect("valid scale")
            }
        };
        match op {
            InferenceOp::Conv { weight, .. } => {
                let (oc, ic, k) = (weight.shape()[0], weight.shape()[1], weight.shape()[2]);
                let ksz = k * weight.shape()[3];
                for o in 0..oc {
                    for i in 0..ic {
                        let start = (o * ic + i) * ksz;
                        packets.push(q.codes[start..start + ksz].to_vec());
                    }
                }
            }
            InferenceOp::Linear { weight, .. } => {
                let in_f = weight.shape()[1];
                for row in q.codes.chunks(in_f) {
                    for c in row.chunks(chunk) {
                        packets.push(c.to_vec());
                    }
                }
            }
            _ => unreachable!("filtered above"),
        }
    }
    packets
}

/// Draws `count` packets uniformly (with replacement) from a pool — the
/// "10,000 packets" stream of Sec. V-A.
#[must_use]
pub fn sample_packets<W: Clone>(pool: &[Vec<W>], count: usize, rng: &mut StdRng) -> Vec<Vec<W>> {
    assert!(!pool.is_empty(), "packet pool is empty");
    (0..count)
        .map(|_| pool[rng.gen_range(0..pool.len())].clone())
        .collect()
}

/// Flattens packets into a word stream (for bit-position statistics).
#[must_use]
pub fn flatten_packets<W: Copy>(packets: &[Vec<W>]) -> Vec<W> {
    packets.iter().flatten().copied().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_packets_have_fig2_shape() {
        let model = lenet_random(0);
        let f32p = f32_kernel_packets(&model, 25);
        let fx8p = fx8_kernel_packets(&model, 25);
        assert_eq!(f32p.len(), fx8p.len());
        // conv kernels are 25 values each.
        assert_eq!(f32p[0].len(), 25);
        assert_eq!(fx8p[0].len(), 25);
    }

    #[test]
    fn sampling_is_deterministic() {
        let model = lenet_random(1);
        let pool = f32_kernel_packets(&model, 25);
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        let pa = sample_packets(&pool, 50, &mut a);
        let pb = sample_packets(&pool, 50, &mut b);
        assert_eq!(pa.len(), pb.len());
        for (x, y) in pa.iter().zip(pb.iter()) {
            assert_eq!(x.len(), y.len());
        }
    }

    #[test]
    fn weight_source_parsing() {
        assert_eq!("random".parse(), Ok(WeightSource::Random));
        assert_eq!("trained".parse(), Ok(WeightSource::Trained));
        assert!("frozen".parse::<WeightSource>().is_err());
        assert!("half".parse::<Fx8Scheme>().is_err());
        assert_eq!("global".parse(), Ok(Fx8Scheme::GlobalUnit));
        assert_eq!(WeightSource::Trained.name(), "trained");
    }
}
