//! Property-based tests (proptest) over the link-codec invariants.
//!
//! Pinned here:
//!
//! * **Round-trip losslessness** for all three codecs: the
//!   `decode_row` walk of a fresh state over the `encode_row_onto` walk
//!   of a fresh state returns the stream, across random widths and
//!   streams.
//! * **Bus-invert's bound**: on the wire (data wires + the invert line),
//!   no flit boundary ever toggles more than `⌈w/2⌉ + 1` wires.
//! * **Cross-packet (per-link) state**: a persistent tx/rx
//!   `LinkCodecState` pair fed multiple packets back to back stays
//!   lossless at the receiver with no packet-boundary reset, and the
//!   per-packet vs per-link wire streams diverge exactly at
//!   packet-boundary flits (bit-exactly located for delta-XOR; for
//!   bus-invert the divergence *originates* there — the first packet is
//!   always identical across scopes — and resetting the state at each
//!   boundary reproduces the per-packet stream for every codec).

use noc_btr::bits::{FlitSlab, PayloadBits};
use noc_btr::core::codec::{CodecKind, LinkCodecState};
use proptest::prelude::*;

/// One transmit row step on images: `plain` zero-extended onto the wire,
/// through `encode_row_onto`.
fn step(tx: &mut LinkCodecState, plain: &PayloadBits) -> PayloadBits {
    let aligned = plain.resized(tx.wire_width());
    let mut wire = vec![0; aligned.used_words().len()];
    tx.encode_row_onto(aligned.used_words(), &mut wire);
    PayloadBits::from_row(tx.wire_width(), &wire)
}

/// One receive row step on images, back to the data width.
fn unstep(rx: &mut LinkCodecState, wire: &PayloadBits) -> PayloadBits {
    let mut plain = vec![u64::MAX; wire.used_words().len()];
    rx.decode_row(wire.used_words(), &mut plain);
    PayloadBits::from_row(rx.wire_width(), &plain).resized(rx.data_width())
}

/// A packet through a fresh state: the per-packet scope.
fn encode_packet(kind: CodecKind, width: u32, packet: &[PayloadBits]) -> Vec<PayloadBits> {
    let mut tx = kind.seed_state(width);
    packet.iter().map(|p| step(&mut tx, p)).collect()
}

/// Builds a `width`-bit image from up to two raw words.
fn image(width: u32, lo: u64, hi: u64) -> PayloadBits {
    let mut p = PayloadBits::zero(width);
    let lo_len = 64.min(width);
    p.set_field(0, lo_len, lo);
    if width > 64 {
        p.set_field(64, 64.min(width - 64), hi);
    }
    p
}

/// Splits a raw value list into packets of the given lengths.
fn packets_of(raw: &[(u64, u64)], width: u32, lens: &[usize]) -> Vec<Vec<PayloadBits>> {
    let mut out = Vec::new();
    let mut it = raw.iter().cycle();
    for &len in lens {
        out.push(
            (0..len)
                .map(|_| {
                    let &(lo, hi) = it.next().expect("cycle is infinite");
                    image(width, lo, hi)
                })
                .collect(),
        );
    }
    out
}

/// The wire stream a per-link scope drives: one persistent state across
/// every packet.
fn per_link_wire(kind: CodecKind, packets: &[Vec<PayloadBits>], width: u32) -> Vec<PayloadBits> {
    let mut tx = kind.seed_state(width);
    packets.iter().flatten().map(|p| step(&mut tx, p)).collect()
}

/// The wire stream a per-packet scope drives: state re-seeded at every
/// packet boundary.
fn per_packet_wire(kind: CodecKind, packets: &[Vec<PayloadBits>], width: u32) -> Vec<PayloadBits> {
    packets
        .iter()
        .flat_map(|p| encode_packet(kind, width, p))
        .collect()
}

/// Flat indices of the first flit of every packet after the first — the
/// packet-boundary flits where a per-link wire may diverge from the
/// per-packet wire.
fn boundary_indices(packets: &[Vec<PayloadBits>]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    for (i, p) in packets.iter().enumerate() {
        if i > 0 && !p.is_empty() {
            out.push(offset);
        }
        offset += p.len();
    }
    out
}

proptest! {
    /// `decode(encode(s)) == s` for every codec, any width, any stream —
    /// including the empty and single-flit streams.
    #[test]
    fn codec_round_trip_is_lossless(
        width in 1u32..=128,
        raw in prop::collection::vec((any::<u64>(), any::<u64>()), 0..=40),
        codec_idx in 0usize..3,
    ) {
        let kind = CodecKind::ALL[codec_idx];
        let stream: Vec<PayloadBits> = raw.iter().map(|&(lo, hi)| image(width, lo, hi)).collect();
        let wire = encode_packet(kind, width, &stream);
        for w in &wire {
            prop_assert_eq!(w.width(), width + kind.extra_wires());
        }
        let mut rx = kind.seed_state(width);
        let back: Vec<PayloadBits> = wire.iter().map(|w| unstep(&mut rx, w)).collect();
        prop_assert_eq!(back, stream);
    }

    /// Bus-invert never exceeds `⌈w/2⌉ + 1` wire toggles per flit
    /// boundary: at most half the data wires (else the flit would have
    /// been inverted) plus the invert line itself.
    #[test]
    fn bus_invert_bounds_per_flit_wire_transitions(
        width in 1u32..=128,
        raw in prop::collection::vec((any::<u64>(), any::<u64>()), 2..=40),
    ) {
        let stream: Vec<PayloadBits> = raw.iter().map(|&(lo, hi)| image(width, lo, hi)).collect();
        let wire = encode_packet(CodecKind::BusInvert, width, &stream);
        let bound = width.div_ceil(2) + 1;
        for pair in wire.windows(2) {
            let toggles = pair[1].transitions_to(&pair[0]);
            prop_assert!(
                toggles <= bound,
                "{toggles} toggles on a {width}-wide data bus exceeds {bound}"
            );
        }
    }

    /// The codec stage preserves flit counts: no codec adds or removes
    /// flits, so packet shapes (and cycle counts for equal widths) are
    /// codec-independent. The run kernel reports one wire per plain row.
    #[test]
    fn codecs_preserve_flit_counts(
        width in 1u32..=96,
        raw in prop::collection::vec(any::<u64>(), 0..=30),
        codec_idx in 0usize..3,
    ) {
        let kind = CodecKind::ALL[codec_idx];
        let mut tx = kind.seed_state(width);
        let aligned: Vec<PayloadBits> =
            raw.iter().map(|&lo| image(width, lo, 0).resized(tx.wire_width())).collect();
        let rows = FlitSlab::from_images(tx.wire_width(), &aligned);
        let mut wire = vec![0; tx.wire_width().div_ceil(64) as usize];
        let count = tx.encode_rows_onto(&rows, &mut wire).map_or(0, |(_, _, n)| n);
        prop_assert_eq!(count, raw.len() as u64);
    }

    /// Per-link scope is lossless at the PE over multi-packet streams: a
    /// persistent tx encoder and its mirrored rx decoder, fed several
    /// packets back to back with **no reset at packet boundaries**,
    /// recover every plain flit bit-exactly — the wire may remember the
    /// previous packet, but the receiver's mirrored state tracks it.
    #[test]
    fn per_link_state_is_lossless_across_packets(
        width in 1u32..=128,
        raw in prop::collection::vec((any::<u64>(), any::<u64>()), 1..=30),
        lens in prop::collection::vec(0usize..=8, 2..=6),
        codec_idx in 0usize..3,
    ) {
        let kind = CodecKind::ALL[codec_idx];
        let packets = packets_of(&raw, width, &lens);
        let mut tx = kind.seed_state(width);
        let mut rx = kind.seed_state(width);
        for packet in &packets {
            for plain in packet {
                let wire = step(&mut tx, plain);
                prop_assert_eq!(wire.width(), width + kind.extra_wires());
                prop_assert_eq!(&unstep(&mut rx, &wire), plain);
            }
        }
    }

    /// Per-packet vs per-link wires diverge exactly at packet-boundary
    /// flits:
    ///
    /// * on the **first** packet (no boundary crossed yet) the two
    ///   scopes are bit-identical for every codec;
    /// * for **delta-XOR** the divergence is located exactly: every
    ///   non-boundary wire image is identical across scopes, and a
    ///   boundary image differs iff the previous packet's last plain
    ///   flit was non-zero — so the BT totals differ only through
    ///   transitions on edges adjacent to boundary flits;
    /// * resetting the per-link state at each boundary reproduces the
    ///   per-packet stream bit-exactly for every codec (the scopes
    ///   differ *only* in boundary behavior).
    #[test]
    fn scope_divergence_is_at_packet_boundaries(
        width in 1u32..=96,
        raw in prop::collection::vec((any::<u64>(), any::<u64>()), 1..=30),
        lens in prop::collection::vec(1usize..=6, 2..=5),
        codec_idx in 0usize..3,
    ) {
        let kind = CodecKind::ALL[codec_idx];
        let packets = packets_of(&raw, width, &lens);
        let pl = per_link_wire(kind, &packets, width);
        let pp = per_packet_wire(kind, &packets, width);
        prop_assert_eq!(pl.len(), pp.len());

        // First packet: identical across scopes (nothing to remember).
        for i in 0..packets[0].len() {
            prop_assert_eq!(pl[i], pp[i], "flit {} of the first packet", i);
        }

        if kind == CodecKind::DeltaXor {
            // Exact divergence locations: only boundary flits may differ.
            let boundaries = boundary_indices(&packets);
            let plains: Vec<&PayloadBits> = packets.iter().flatten().collect();
            for i in 0..pl.len() {
                if boundaries.contains(&i) {
                    // wire_pl[b] = plain[b] ^ plain[b-1]; wire_pp[b] =
                    // plain[b]: they differ iff the carried-over state
                    // (the previous packet's last flit) is non-zero.
                    let carried = plains[i - 1].popcount() > 0;
                    prop_assert_eq!(pl[i] != pp[i], carried, "boundary flit {}", i);
                } else {
                    prop_assert_eq!(pl[i], pp[i], "interior flit {}", i);
                }
            }
        }

        // Reset-at-boundary turns per-link into per-packet, bit-exactly.
        let mut tx = kind.seed_state(width);
        let mut reseeded = Vec::new();
        for packet in &packets {
            tx.reset();
            reseeded.extend(packet.iter().map(|p| step(&mut tx, p)));
        }
        prop_assert_eq!(reseeded, pp);
    }
}
