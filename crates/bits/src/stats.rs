//! Bit-level statistics accumulators for Figs. 10–11.
//!
//! The paper analyzes (a) the probability of a `'1'` at each bit position of
//! a word stream (top halves of Figs. 10/11, revealing the sign / exponent /
//! mantissa structure of float-32 and the near-zero clustering of trained
//! fixed-8 weights) and (b) the probability of a transition at each bit
//! position between consecutive words aligned on the same wires (bottom
//! halves). [`BitPositionStats`] accumulates both; [`PopcountHistogram`]
//! supports the popcount-distribution views used in Fig. 9 and the theory
//! validation.

use crate::word::DataWord;

/// Per-bit-position `'1'` frequency accumulator over a stream of words.
///
/// Bit positions are LSB-first (position 0 = least significant). For
/// float-32 this means position 31 is the sign, 23–30 the exponent and
/// 0–22 the mantissa; the paper's Fig. 10 x-axis counts from the sign bit,
/// so the experiment binaries reverse the order when printing.
#[derive(Debug, Clone)]
pub struct BitPositionStats {
    width: u32,
    ones: Vec<u64>,
    transitions: Vec<u64>,
    words_observed: u64,
    previous: Option<u64>,
}

impl BitPositionStats {
    /// Creates an accumulator for `width`-bit words.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or exceeds 64.
    #[must_use]
    pub fn new(width: u32) -> Self {
        assert!(
            (1..=64).contains(&width),
            "width must be in 1..=64, got {width}"
        );
        Self {
            width,
            ones: vec![0; width as usize],
            transitions: vec![0; width as usize],
            words_observed: 0,
            previous: None,
        }
    }

    /// Observes one word (raw image right-aligned in a `u64`).
    pub fn observe_bits(&mut self, bits: u64) {
        // btr-lint: allow(per-bit-hot-loop, reason = "per-bit-position histogram: the output is indexed by wire, so there is no word-parallel form; feeds fig10/fig11, not the sweep hot path")
        for i in 0..self.width {
            self.ones[i as usize] += (bits >> i) & 1;
        }
        if let Some(prev) = self.previous {
            let diff = prev ^ bits;
            // btr-lint: allow(per-bit-hot-loop, reason = "per-bit-position histogram: the output is indexed by wire, so there is no word-parallel form; feeds fig10/fig11, not the sweep hot path")
            for i in 0..self.width {
                self.transitions[i as usize] += (diff >> i) & 1;
            }
        }
        self.previous = Some(bits);
        self.words_observed += 1;
    }

    /// Observes one typed word.
    pub fn observe<W: DataWord>(&mut self, word: W) {
        debug_assert_eq!(W::WIDTH, self.width);
        self.observe_bits(word.bits_u64());
    }

    /// Observes every word in a slice, in order (order matters for the
    /// transition statistics).
    pub fn observe_all<W: DataWord>(&mut self, words: &[W]) {
        for &w in words {
            self.observe(w);
        }
    }

    /// Number of words observed so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.words_observed
    }

    /// Probability of a `'1'` at each bit position (LSB-first).
    ///
    /// Returns an empty vector if no words have been observed.
    #[must_use]
    pub fn one_probability(&self) -> Vec<f64> {
        if self.words_observed == 0 {
            return Vec::new();
        }
        let n = self.words_observed as f64;
        self.ones.iter().map(|&c| c as f64 / n).collect()
    }

    /// Probability of a transition at each bit position between consecutive
    /// observed words (LSB-first). Empty if fewer than two words observed.
    #[must_use]
    pub fn transition_probability(&self) -> Vec<f64> {
        if self.words_observed < 2 {
            return Vec::new();
        }
        let pairs = (self.words_observed - 1) as f64;
        self.transitions.iter().map(|&c| c as f64 / pairs).collect()
    }

    /// Width of the observed words in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }
}

/// Histogram of word popcounts (0..=width ones).
#[derive(Debug, Clone)]
// btr-lint: allow(test-only-pub, reason = "stats::tests::mean_popcount_matches_histogram checks the per-wire statistics against it")
pub struct PopcountHistogram {
    width: u32,
    counts: Vec<u64>,
    total: u64,
}

impl PopcountHistogram {
    /// Creates a histogram for `width`-bit words.
    #[must_use]
    pub fn new(width: u32) -> Self {
        Self {
            width,
            counts: vec![0; width as usize + 1],
            total: 0,
        }
    }

    /// Records one word's popcount.
    ///
    /// # Panics
    ///
    /// Panics if the word's popcount exceeds the histogram width.
    pub fn observe<W: DataWord>(&mut self, word: W) {
        let popcount = word.popcount();
        assert!(
            popcount <= self.width,
            "popcount {popcount} exceeds width {}",
            self.width
        );
        self.counts[popcount as usize] += 1;
        self.total += 1;
    }

    /// Raw bucket counts (index = popcount).
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Mean popcount.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let sum: u64 = self
            .counts
            .iter()
            .enumerate()
            .map(|(pc, &c)| pc as u64 * c)
            .sum();
        sum as f64 / self.total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::word::{F32Word, Fx8Word};

    #[test]
    fn one_probability_simple() {
        let mut s = BitPositionStats::new(8);
        s.observe(Fx8Word::new(0b0000_0001));
        s.observe(Fx8Word::new(0b0000_0011));
        let p = s.one_probability();
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
        assert!((p[7]).abs() < 1e-12);
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn transition_probability_simple() {
        let mut s = BitPositionStats::new(8);
        s.observe_bits(0b01);
        s.observe_bits(0b10);
        s.observe_bits(0b10);
        let t = s.transition_probability();
        // bit0: 1->0->0 = 1 transition over 2 pairs.
        assert!((t[0] - 0.5).abs() < 1e-12);
        assert!((t[1] - 0.5).abs() < 1e-12);
        assert!(t[2].abs() < 1e-12);
    }

    #[test]
    fn empty_stats_are_empty() {
        let s = BitPositionStats::new(32);
        assert!(s.one_probability().is_empty());
        assert!(s.transition_probability().is_empty());
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn f32_sign_bit_probability_for_symmetric_data() {
        // Symmetric ± values -> sign bit (position 31) probability 0.5,
        // mirroring the paper's observation "the first sign bit is ~0.5".
        let mut s = BitPositionStats::new(32);
        for i in 1..=1000 {
            let v = i as f32 / 100.0;
            s.observe(F32Word::new(v));
            s.observe(F32Word::new(-v));
        }
        let p = s.one_probability();
        assert!((p[31] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_mean_variance() {
        let mut h = PopcountHistogram::new(8);
        h.observe(Fx8Word::new(0)); // pc 0
        h.observe(Fx8Word::new(-1)); // pc 8
        assert_eq!(h.total(), 2);
        assert!((h.mean() - 4.0).abs() < 1e-12);
        assert_eq!(h.counts()[0], 1);
        assert_eq!(h.counts()[8], 1);
    }

    #[test]
    #[should_panic(expected = "exceeds width")]
    fn histogram_rejects_out_of_range() {
        let mut h = PopcountHistogram::new(4);
        h.observe(Fx8Word::new(-1));
    }

    #[test]
    fn mean_popcount_matches_histogram() {
        let words = [
            Fx8Word::new(3),
            Fx8Word::new(-3),
            Fx8Word::new(0),
            Fx8Word::new(127),
        ];
        let mut s = BitPositionStats::new(8);
        let mut h = PopcountHistogram::new(8);
        for &w in &words {
            s.observe(w);
            h.observe(w);
        }
        // The mean popcount is the sum of the per-wire '1' probabilities.
        let mean_popcount: f64 = s.one_probability().iter().sum();
        assert!((mean_popcount - h.mean()).abs() < 1e-12);
    }
}
