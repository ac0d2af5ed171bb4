//! Bit-transition counting — the paper's core metric.
//!
//! A bit transition (BT) is "a change from `'0'` to `'1'` or `'1'` to `'0'`"
//! on one wire of a link between two consecutive flits (Sec. I). This module
//! provides the scalar helpers behind the per-link recorder of Fig. 8: the
//! previously transmitted flit image (`Flit_pre`) XORed with the current one
//! (`Flit_current`), whose popcount accumulates into the BT sum.

use crate::payload::PayloadBits;

/// Total bit transitions over a stream of flit images sent back-to-back on
/// one link, i.e. the sum of Hamming distances of consecutive pairs.
///
/// An empty or single-flit stream has zero transitions.
#[must_use]
// btr-lint: allow(test-only-pub, reason = "the image-level oracle tests/models_and_streams.rs measure_flits_consecutive_matches_unencoded_count compares measure_flits against")
pub fn stream_transitions(flits: &[PayloadBits]) -> u64 {
    flits
        .windows(2)
        .map(|w| u64::from(w[1].transitions_to(&w[0])))
        .sum()
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
    use crate::slab::row_transitions;

    fn payload_from(width: u32, lo: u64) -> PayloadBits {
        let mut p = PayloadBits::zero(width);
        p.set_field(0, 64.min(width), lo);
        p
    }

    #[test]
    fn scalar_transitions() {
        assert_eq!(row_transitions(&[0], &[0]), 0);
        assert_eq!(row_transitions(&[0], &[u64::MAX]), 64);
        assert_eq!(row_transitions(&[0b1010], &[0b0101]), 4);
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
    fn reduction_rate_basics() {
        assert!((reduction_rate(100, 80) - 0.20).abs() < 1e-12);
        assert!((reduction_rate(100, 100)).abs() < 1e-12);
        assert_eq!(reduction_rate(0, 5), 0.0);
        // Negative rate = optimization made things worse; still well-defined.
        assert!(reduction_rate(100, 120) < 0.0);
    }
}
