//! Bit-transition counting — the paper's core metric.
//!
//! A bit transition (BT) is "a change from `'0'` to `'1'` or `'1'` to `'0'`"
//! on one wire of a link between two consecutive flits (Sec. I). This module
//! provides scalar helpers and [`TransitionRecorder`], the per-link recorder
//! of Fig. 8: it keeps the previously transmitted flit image (`Flit_pre`),
//! XORs it with the current one (`Flit_current`), and accumulates the
//! popcount of the difference.

use crate::payload::PayloadBits;

/// Bit transitions between two link words given as raw `u64` images.
#[must_use]
pub fn bit_transitions_u64(previous: u64, current: u64) -> u32 {
    (previous ^ current).count_ones()
}

/// Bit transitions between two flit images (Hamming distance).
///
/// # Panics
///
/// Panics if the images have different widths.
#[must_use]
pub fn bit_transitions(previous: &PayloadBits, current: &PayloadBits) -> u32 {
    current.transitions_to(previous)
}

/// Total bit transitions over a stream of flit images sent back-to-back on
/// one link, i.e. the sum of Hamming distances of consecutive pairs.
///
/// An empty or single-flit stream has zero transitions.
#[must_use]
pub fn stream_transitions(flits: &[PayloadBits]) -> u64 {
    flits
        .windows(2)
        .map(|w| u64::from(w[1].transitions_to(&w[0])))
        .sum()
}

/// Per-link bit-transition recorder (Fig. 8).
///
/// One recorder is attached to every link (router output port) in the NoC.
/// The recorder is *measurement-only*: "BT recording is solely for
/// performance evaluation, and the flit storage and BT summation should not
/// be considered overheads" (Sec. V).
#[derive(Debug, Clone)]
pub struct TransitionRecorder {
    width: u32,
    previous: Option<PayloadBits>,
    total_transitions: u64,
    flits_observed: u64,
    /// Per-wire transition counts, for Fig. 10/11-style per-position plots.
    per_position: Vec<u64>,
}

impl TransitionRecorder {
    /// Creates a recorder for a link of `width` bits, with per-wire
    /// transition tracking enabled (needed for Fig. 10/11-style plots).
    #[must_use]
    pub fn new(width: u32) -> Self {
        Self {
            width,
            previous: None,
            total_transitions: 0,
            flits_observed: 0,
            per_position: vec![0; width as usize],
        }
    }

    /// Creates a recorder that only accumulates totals (no per-wire
    /// counters). The NoC simulator attaches one of these to every link;
    /// skipping the per-bit loop keeps `observe` at a handful of word ops.
    #[must_use]
    pub fn total_only(width: u32) -> Self {
        Self {
            width,
            previous: None,
            total_transitions: 0,
            flits_observed: 0,
            per_position: Vec::new(),
        }
    }

    /// Link width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Observes a flit traversing the link, returning the transitions it
    /// caused relative to the previous flit (0 for the first flit).
    ///
    /// # Panics
    ///
    /// Panics if the flit width differs from the link width.
    pub fn observe(&mut self, flit: &PayloadBits) -> u32 {
        assert_eq!(
            flit.width(),
            self.width,
            "flit width {} does not match link width {}",
            flit.width(),
            self.width
        );
        let transitions = match &self.previous {
            None => 0,
            Some(prev) => {
                if self.per_position.is_empty() {
                    flit.transitions_to(prev)
                } else {
                    let diff = flit.xor(prev);
                    // O(popcount), not O(width): only toggling wires count.
                    diff.for_each_set_bit(|i| self.per_position[i as usize] += 1);
                    diff.popcount()
                }
            }
        };
        self.total_transitions += u64::from(transitions);
        self.flits_observed += 1;
        self.previous = Some(*flit);
        transitions
    }

    /// Total transitions accumulated on this link.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total_transitions
    }

    /// Number of flits that traversed the link.
    #[must_use]
    pub fn flits(&self) -> u64 {
        self.flits_observed
    }

    /// Average transitions per flit (0 if fewer than two flits seen).
    #[must_use]
    pub fn transitions_per_flit(&self) -> f64 {
        if self.flits_observed < 2 {
            0.0
        } else {
            self.total_transitions as f64 / (self.flits_observed - 1) as f64
        }
    }

    /// Per-wire transition counts (index = bit position, LSB-first).
    #[must_use]
    pub fn per_position(&self) -> &[u64] {
        &self.per_position
    }

    /// Probability of a transition at each bit position, given the flits
    /// observed so far (empty if fewer than two flits).
    #[must_use]
    pub fn per_position_probability(&self) -> Vec<f64> {
        if self.flits_observed < 2 {
            return Vec::new();
        }
        let pairs = (self.flits_observed - 1) as f64;
        self.per_position
            .iter()
            .map(|&c| c as f64 / pairs)
            .collect()
    }

    /// Resets the recorder to its initial state.
    pub fn reset(&mut self) {
        self.previous = None;
        self.total_transitions = 0;
        self.flits_observed = 0;
        self.per_position.iter_mut().for_each(|c| *c = 0);
    }
}

/// Computes the BT reduction rate of `optimized` relative to `baseline`,
/// as reported throughout the paper's evaluation:
/// `(baseline − optimized) / baseline`.
///
/// Returns 0.0 when the baseline is zero (no traffic).
#[must_use]
pub fn reduction_rate(baseline: u64, optimized: u64) -> f64 {
    if baseline == 0 {
        0.0
    } else {
        (baseline as f64 - optimized as f64) / baseline as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload_from(width: u32, lo: u64) -> PayloadBits {
        let mut p = PayloadBits::zero(width);
        p.set_field(0, 64.min(width), lo);
        p
    }

    #[test]
    fn scalar_transitions() {
        assert_eq!(bit_transitions_u64(0, 0), 0);
        assert_eq!(bit_transitions_u64(0, u64::MAX), 64);
        assert_eq!(bit_transitions_u64(0b1010, 0b0101), 4);
    }

    #[test]
    fn stream_transitions_sums_consecutive_pairs() {
        let flits = vec![
            payload_from(64, 0b0000),
            payload_from(64, 0b1111), // 4
            payload_from(64, 0b1100), // 2
            payload_from(64, 0b1100), // 0
        ];
        assert_eq!(stream_transitions(&flits), 6);
        assert_eq!(stream_transitions(&flits[..1]), 0);
        assert_eq!(stream_transitions(&[]), 0);
    }

    #[test]
    fn recorder_first_flit_is_free() {
        let mut r = TransitionRecorder::new(64);
        assert_eq!(r.observe(&payload_from(64, u64::MAX)), 0);
        assert_eq!(r.total(), 0);
        assert_eq!(r.flits(), 1);
    }

    #[test]
    fn recorder_accumulates() {
        let mut r = TransitionRecorder::new(64);
        r.observe(&payload_from(64, 0));
        assert_eq!(r.observe(&payload_from(64, 0b111)), 3);
        assert_eq!(r.observe(&payload_from(64, 0b100)), 2);
        assert_eq!(r.total(), 5);
        assert_eq!(r.flits(), 3);
        assert!((r.transitions_per_flit() - 2.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_tracks_positions() {
        let mut r = TransitionRecorder::new(8);
        r.observe(&payload_from(8, 0b0000_0000));
        r.observe(&payload_from(8, 0b0000_0011));
        r.observe(&payload_from(8, 0b0000_0001));
        assert_eq!(r.per_position()[0], 1); // toggled once (0->1)
        assert_eq!(r.per_position()[1], 2); // toggled twice (0->1->0)
        assert_eq!(r.per_position()[2], 0);
        let probs = r.per_position_probability();
        assert!((probs[1] - 1.0).abs() < 1e-12);
        assert!((probs[0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn recorder_reset() {
        let mut r = TransitionRecorder::new(8);
        r.observe(&payload_from(8, 0xff));
        r.observe(&payload_from(8, 0x00));
        r.reset();
        assert_eq!(r.total(), 0);
        assert_eq!(r.flits(), 0);
        assert!(r.per_position().iter().all(|&c| c == 0));
        // After reset the first flit is free again.
        assert_eq!(r.observe(&payload_from(8, 0xff)), 0);
    }

    #[test]
    #[should_panic(expected = "does not match link width")]
    fn recorder_rejects_wrong_width() {
        let mut r = TransitionRecorder::new(64);
        r.observe(&payload_from(128, 0));
    }

    #[test]
    fn total_only_recorder_skips_positions_but_counts_totals() {
        let mut full = TransitionRecorder::new(8);
        let mut light = TransitionRecorder::total_only(8);
        for bits in [0u64, 0b1011, 0b0110, 0xff] {
            full.observe(&payload_from(8, bits));
            light.observe(&payload_from(8, bits));
        }
        assert_eq!(full.total(), light.total());
        assert_eq!(light.per_position(), &[] as &[u64]);
        assert!(light.per_position_probability().is_empty());
        assert_eq!(light.flits(), 4);
    }

    #[test]
    fn reduction_rate_basics() {
        assert!((reduction_rate(100, 80) - 0.20).abs() < 1e-12);
        assert!((reduction_rate(100, 100)).abs() < 1e-12);
        assert_eq!(reduction_rate(0, 5), 0.0);
        // Negative rate = optimization made things worse; still well-defined.
        assert!(reduction_rate(100, 120) < 0.0);
    }
}
