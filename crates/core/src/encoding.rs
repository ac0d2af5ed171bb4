//! Related-work baselines for ablation: bus-invert and delta encoding.
//!
//! These are **not** part of the paper's method — the paper explicitly
//! positions ordering as *not* a bus-encoding scheme ("our method is not a
//! bus-encoding method and operates without additional links", Sec. II).
//! They are implemented here so the benchmark harness can put the ordering
//! results side by side with the classic encodings the related work section
//! cites:
//!
//! * **Bus-invert coding** (Stan & Burleson \[14\]): if more than half the
//!   wires would toggle, transmit the inverted flit plus one extra invert
//!   line. Guarantees ≤ w/2 transitions per flit at the cost of one line.
//! * **Delta encoding** (after Sarman et al. \[11\]): transmit the XOR of
//!   consecutive flits, which concentrates `'1'` bits when the stream is
//!   correlated. (Decoding needs the running state; overhead-free on wires.)

use crate::codec::CodecKind;
use btr_bits::payload::PayloadBits;
use serde::{Deserialize, Serialize};

/// Result of encoding a flit stream with a link coding scheme.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EncodedStream {
    /// Transitions on the data wires after encoding.
    pub transitions: u64,
    /// Transitions contributed by extra control wires (e.g. the invert
    /// line), kept separate so the comparison can be made with and without
    /// the extra-line cost.
    pub control_transitions: u64,
    /// Number of flits in the stream.
    pub flits: u64,
}

impl EncodedStream {
    /// Total transitions including control wires.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.transitions + self.control_transitions
    }
}

/// Counts transitions of the raw (unencoded) stream, as a reference.
#[must_use]
pub fn unencoded(stream: &[PayloadBits]) -> EncodedStream {
    let transitions = stream
        .windows(2)
        .map(|w| u64::from(w[1].transitions_to(&w[0])))
        .sum();
    EncodedStream {
        transitions,
        control_transitions: 0,
        flits: stream.len() as u64,
    }
}

/// Bus-invert coding: per flit, send it inverted if that halves the toggles.
///
/// Returns the transition counts; the invert line's own toggles are
/// accounted in `control_transitions`.
#[must_use]
pub fn bus_invert(stream: &[PayloadBits]) -> EncodedStream {
    let mut transitions = 0u64;
    let mut control_transitions = 0u64;
    let mut prev: Option<(PayloadBits, bool)> = None;

    for (wire, invert) in bus_invert_wire_stream(stream) {
        if let Some((prev_wire, prev_invert)) = &prev {
            transitions += u64::from(wire.transitions_to(prev_wire));
            control_transitions += u64::from(invert != *prev_invert);
        }
        prev = Some((wire, invert));
    }

    EncodedStream {
        transitions,
        control_transitions,
        flits: stream.len() as u64,
    }
}

/// Produces the bus-invert wire stream: each element is the data image
/// actually driven onto the wires plus the invert-line value transmitted
/// alongside it. The first flit is always sent direct; after that a flit
/// is inverted exactly when inversion strictly reduces the data-wire
/// toggles relative to the previous *wire* image.
///
/// Thin wrapper over [`crate::codec::LinkCodecState`] — the one bus-invert
/// implementation, shared with the per-link coded-wire observation in
/// `btr_noc::stats::LinkSlab`.
#[must_use]
pub fn bus_invert_wire_stream(stream: &[PayloadBits]) -> Vec<(PayloadBits, bool)> {
    let Some(first) = stream.first() else {
        return Vec::new();
    };
    let data_width = first.width();
    let mut state = CodecKind::BusInvert.seed_state(data_width);
    stream
        .iter()
        .map(|flit| {
            let wire = state.encode_step(flit);
            (wire.resized(data_width), wire.bit(data_width))
        })
        .collect()
}

/// Decodes a bus-invert wire stream back to the plain flits (inverse of
/// [`bus_invert_wire_stream`]): each flit whose invert line is set is
/// inverted back, independently of its neighbors.
#[must_use]
pub fn bus_invert_decode(wire_stream: &[(PayloadBits, bool)]) -> Vec<PayloadBits> {
    let Some((first, _)) = wire_stream.first() else {
        return Vec::new();
    };
    let data_width = first.width();
    let mut state = CodecKind::BusInvert.seed_state(data_width);
    wire_stream
        .iter()
        .map(|(data, invert)| {
            let mut wire = data.resized(data_width + 1);
            wire.set_field(data_width, 1, u64::from(*invert));
            state
                .decode_step(&wire)
                .expect("wire rebuilt at the state's wire width")
        })
        .collect()
}

/// Delta (XOR) encoding: wire image is `flit XOR previous_flit`.
///
/// The first flit is sent as-is. Decoding XORs the running state back.
#[must_use]
pub fn delta_xor(stream: &[PayloadBits]) -> EncodedStream {
    let mut transitions = 0u64;
    if let Some(first) = stream.first() {
        // Single pass over the shared LinkCodecState implementation: no
        // materialized wire stream, transitions accumulated inline.
        let mut state = CodecKind::DeltaXor.seed_state(first.width());
        let mut prev_wire: Option<PayloadBits> = None;
        for flit in stream {
            let wire = state.encode_step(flit);
            if let Some(pw) = &prev_wire {
                transitions += u64::from(wire.transitions_to(pw));
            }
            prev_wire = Some(wire);
        }
    }
    EncodedStream {
        transitions,
        control_transitions: 0,
        flits: stream.len() as u64,
    }
}

/// Decodes a delta-XOR wire stream back to the plain flits, verifying the
/// scheme is lossless (thin wrapper over [`crate::codec::LinkCodecState`]).
#[must_use]
pub fn delta_xor_decode(wire_stream: &[PayloadBits]) -> Vec<PayloadBits> {
    let Some(first) = wire_stream.first() else {
        return Vec::new();
    };
    let mut state = CodecKind::DeltaXor.seed_state(first.width());
    wire_stream
        .iter()
        .map(|wire| {
            state
                .decode_step(wire)
                .expect("delta-XOR wire width equals the data width")
        })
        .collect()
}

/// Produces the delta-XOR wire stream (the images actually transmitted;
/// thin wrapper over [`crate::codec::LinkCodecState`]).
#[must_use]
pub fn delta_xor_wire_stream(stream: &[PayloadBits]) -> Vec<PayloadBits> {
    CodecKind::DeltaXor.encode_stream(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn payload(width: u32, bits: u64) -> PayloadBits {
        let mut p = PayloadBits::zero(width);
        p.set_field(0, 64.min(width), bits);
        p
    }

    fn random_stream(n: usize, width: u32, seed: u64) -> Vec<PayloadBits> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let mut p = PayloadBits::zero(width);
                for w in 0..width.div_ceil(64) {
                    let len = 64.min(width - w * 64);
                    p.set_field(w * 64, len, rng.gen());
                }
                p
            })
            .collect()
    }

    #[test]
    fn bus_invert_never_worse_than_half_width_per_flit() {
        let stream = random_stream(200, 64, 11);
        let enc = bus_invert(&stream);
        // Worst case per boundary: width/2 data toggles + 1 invert toggle.
        let boundaries = (stream.len() - 1) as u64;
        assert!(enc.transitions <= boundaries * 32);
        assert!(enc.control_transitions <= boundaries);
    }

    #[test]
    fn bus_invert_beats_unencoded_on_adversarial_stream() {
        // Alternating all-zero / all-one flits: unencoded toggles every
        // wire; bus-invert toggles only the invert line.
        let stream: Vec<PayloadBits> = (0..10)
            .map(|i| {
                if i % 2 == 0 {
                    payload(64, 0)
                } else {
                    payload(64, u64::MAX)
                }
            })
            .collect();
        let raw = unencoded(&stream);
        let enc = bus_invert(&stream);
        assert_eq!(raw.transitions, 9 * 64);
        assert_eq!(enc.transitions, 0);
        assert_eq!(enc.control_transitions, 9);
    }

    #[test]
    fn bus_invert_is_lossless() {
        let stream = random_stream(80, 96, 3);
        let wire = bus_invert_wire_stream(&stream);
        assert_eq!(bus_invert_decode(&wire), stream);
        // The stats function and the wire stream agree on what toggles.
        let enc = bus_invert(&stream);
        let data: u64 = wire
            .windows(2)
            .map(|w| u64::from(w[1].0.transitions_to(&w[0].0)))
            .sum();
        let control: u64 = wire.windows(2).map(|w| u64::from(w[1].1 != w[0].1)).sum();
        assert_eq!(enc.transitions, data);
        assert_eq!(enc.control_transitions, control);
    }

    #[test]
    fn delta_xor_is_lossless() {
        let stream = random_stream(50, 128, 5);
        let wire = delta_xor_wire_stream(&stream);
        let decoded = delta_xor_decode(&wire);
        assert_eq!(decoded, stream);
    }

    #[test]
    fn delta_xor_wins_on_slowly_varying_stream() {
        // Counter-like stream: consecutive flits differ in few bits, so the
        // XOR images are near-zero and wire transitions collapse.
        let stream: Vec<PayloadBits> = (0..100u64).map(|i| payload(64, i)).collect();
        let raw = unencoded(&stream);
        let enc = delta_xor(&stream);
        assert!(
            enc.transitions < raw.transitions,
            "delta {} vs raw {}",
            enc.transitions,
            raw.transitions
        );
    }

    #[test]
    fn unencoded_matches_manual_count() {
        let stream = vec![payload(8, 0b0), payload(8, 0b1111), payload(8, 0b1010)];
        let raw = unencoded(&stream);
        assert_eq!(raw.transitions, 4 + 2);
        assert_eq!(raw.total(), 6);
        assert_eq!(raw.flits, 3);
    }

    #[test]
    fn empty_and_singleton_streams() {
        assert_eq!(unencoded(&[]).transitions, 0);
        assert_eq!(bus_invert(&[]).total(), 0);
        assert_eq!(delta_xor(&[payload(8, 3)]).transitions, 0);
        assert_eq!(delta_xor_decode(&[]).len(), 0);
    }
}
