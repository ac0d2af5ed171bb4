//! [`NeuronTask`] — the unit of DNN work shipped over the NoC.
//!
//! "A typical neuron calculation in NOC-DNA involves the inputs and weights"
//! (Sec. IV): one task carries the `k·k·C_in` input window, the matching
//! weights and a bias from a memory controller to a processing element,
//! which replies with the multiply-accumulate result. Fig. 2's example is a
//! LeNet 5×5 kernel: 25 inputs + 25 weights + 1 bias.

use btr_bits::word::{DataWord, F32Word, Fx8Word};

/// Error returned when constructing an invalid [`NeuronTask`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The task has no operands.
    Empty,
    /// Inputs and weights have different lengths and cannot be paired.
    LengthMismatch {
        /// Number of inputs provided.
        inputs: usize,
        /// Number of weights provided.
        weights: usize,
    },
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Empty => write!(f, "neuron task must carry at least one operand pair"),
            TaskError::LengthMismatch { inputs, weights } => write!(
                f,
                "inputs ({inputs}) and weights ({weights}) must pair one-to-one"
            ),
        }
    }
}

impl std::error::Error for TaskError {}

/// One neuron computation: paired inputs and weights plus a bias.
///
/// The pairing `inputs[i] ↔ weights[i]` is the semantic content the NoC must
/// preserve; the ordering methods in [`crate::flitize`] are free to permute
/// transmission order precisely because the dot product is order-invariant
/// over *pairs* (Fig. 5).
#[derive(Debug, Clone, PartialEq)]
pub struct NeuronTask<W> {
    inputs: Vec<W>,
    weights: Vec<W>,
    bias: W,
}

impl<W: DataWord> NeuronTask<W> {
    /// Creates a task from paired operands.
    ///
    /// # Errors
    ///
    /// Returns [`TaskError`] if the slices are empty or their lengths differ.
    pub fn new(inputs: Vec<W>, weights: Vec<W>, bias: W) -> Result<Self, TaskError> {
        if inputs.len() != weights.len() {
            return Err(TaskError::LengthMismatch {
                inputs: inputs.len(),
                weights: weights.len(),
            });
        }
        if inputs.is_empty() {
            return Err(TaskError::Empty);
        }
        Ok(Self {
            inputs,
            weights,
            bias,
        })
    }

    /// Number of (input, weight) pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inputs.len()
    }

    /// Always false: construction rejects empty tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The input operands in pairing order.
    #[must_use]
    pub fn inputs(&self) -> &[W] {
        &self.inputs
    }

    /// The weight operands in pairing order.
    #[must_use]
    pub fn weights(&self) -> &[W] {
        &self.weights
    }

    /// The bias operand.
    #[must_use]
    pub fn bias(&self) -> W {
        self.bias
    }
}

impl NeuronTask<F32Word> {
    /// The float-32 multiply-accumulate result: `Σ inputs[i]·weights[i] + bias`.
    ///
    /// Accumulates in `f64` so the reference result is insensitive to
    /// summation order; receivers that accumulate in a different order still
    /// match to within float tolerance.
    #[must_use]
    pub fn mac_f64(&self) -> f64 {
        let dot: f64 = self
            .inputs
            .iter()
            .zip(self.weights.iter())
            .map(|(i, w)| f64::from(i.value()) * f64::from(w.value()))
            .sum();
        dot + f64::from(self.bias.value())
    }
}

impl NeuronTask<Fx8Word> {
    /// The fixed-8 multiply-accumulate result in integer arithmetic:
    /// `Σ code(inputs[i])·code(weights[i]) + code(bias)`.
    ///
    /// Exact and order-independent — the property the integration tests use
    /// to show ordering never changes fixed-point inference outputs.
    #[must_use]
    pub fn mac_i64(&self) -> i64 {
        let dot: i64 = self
            .inputs
            .iter()
            .zip(self.weights.iter())
            .map(|(i, w)| i64::from(i.code()) * i64::from(w.code()))
            .sum();
        dot + i64::from(self.bias.code())
    }
}

/// A task recovered at the receiver from the transmitted flit layout:
/// re-paired operands plus the bias. Pair order may differ from the
/// original task's, but the multiset of pairs is identical.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredTask<W> {
    /// Re-paired (input, weight) operands.
    pub pairs: Vec<(W, W)>,
    /// The bias operand.
    pub bias: W,
}

impl RecoveredTask<F32Word> {
    /// Float-32 MAC over the recovered pairs (f64 accumulator).
    #[must_use]
    pub fn mac_f64(&self) -> f64 {
        let dot: f64 = self
            .pairs
            .iter()
            .map(|(i, w)| f64::from(i.value()) * f64::from(w.value()))
            .sum();
        dot + f64::from(self.bias.value())
    }
}

impl RecoveredTask<Fx8Word> {
    /// Exact integer MAC over the recovered pairs.
    #[must_use]
    pub fn mac_i64(&self) -> i64 {
        let dot: i64 = self
            .pairs
            .iter()
            .map(|(i, w)| i64::from(i.code()) * i64::from(w.code()))
            .sum();
        dot + i64::from(self.bias.code())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        let err = NeuronTask::new(vec![Fx8Word::new(1)], vec![], Fx8Word::new(0)).unwrap_err();
        assert!(matches!(
            err,
            TaskError::LengthMismatch {
                inputs: 1,
                weights: 0
            }
        ));
        let err = NeuronTask::<Fx8Word>::new(vec![], vec![], Fx8Word::new(0)).unwrap_err();
        assert_eq!(err, TaskError::Empty);
        assert!(err.to_string().contains("at least one"));
    }

    #[test]
    fn fx8_mac_is_exact() {
        let t = NeuronTask::new(
            vec![Fx8Word::new(3), Fx8Word::new(-2)],
            vec![Fx8Word::new(10), Fx8Word::new(5)],
            Fx8Word::new(7),
        )
        .unwrap();
        assert_eq!(t.mac_i64(), 3 * 10 + (-2) * 5 + 7);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn f32_mac() {
        let t = NeuronTask::new(
            vec![F32Word::new(0.5), F32Word::new(2.0)],
            vec![F32Word::new(4.0), F32Word::new(-1.0)],
            F32Word::new(0.25),
        )
        .unwrap();
        assert!((t.mac_f64() - (0.5 * 4.0 - 2.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn recovered_mac_matches_any_pair_order() {
        let pairs = vec![
            (Fx8Word::new(3), Fx8Word::new(10)),
            (Fx8Word::new(-2), Fx8Word::new(5)),
        ];
        let mut rev = pairs.clone();
        rev.reverse();
        let a = RecoveredTask {
            pairs,
            bias: Fx8Word::new(7),
        };
        let b = RecoveredTask {
            pairs: rev,
            bias: Fx8Word::new(7),
        };
        assert_eq!(a.mac_i64(), b.mac_i64());
    }
}
