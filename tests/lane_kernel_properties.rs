//! Property-based tests (proptest) pinning the bulk codec-lane kernels
//! to the per-flit walk they replace.
//!
//! The run kernels must be *bit-exact* stand-ins, not approximations:
//!
//! * `LinkCodecState::encode_run` == an `encode_row_onto` loop —
//!   boundary wire images (the run's `first`/`last`), the intra-run
//!   transition sum, and the end-of-run lane state — across
//!   `CodecKind × data width × run length × seeded lane prev-state`.
//! * `LinkSlab::observe_payload_run` == an `observe_payload` loop —
//!   per-link transition/flit counters and both persistent lane states
//!   (tx *and* the mirrored rx) — over the same axes, including a
//!   pre-existing wire history on the link.
//!
//! * `LinkSlab::observe_packet` on delta-XOR lanes — the analytic
//!   engine's O(1)-per-hop charge of a whole packet — == `observe` on the
//!   head followed by `observe_payload_run`, on seeded and unseeded lanes,
//!   with and without a prior packet on the link.
//!
//! These pins are what let release builds skip the mirrored per-hop rx
//! decode and the analytic engine take the fast path on per-link-coded
//! phases.

use noc_btr::bits::{FlitSlab, PayloadBits};
use noc_btr::core::codec::{CodecKind, LinkCodecState};
use noc_btr::noc::stats::{LinkSlab, PacketWires};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random `width`-bit payload image.
fn image(width: u32, rng: &mut StdRng) -> PayloadBits {
    let mut p = PayloadBits::zero(width);
    let mut off = 0;
    while off < width {
        let len = 64.min(width - off);
        p.set_field(off, len, rng.gen());
        off += len;
    }
    p
}

fn images(width: u32, n: usize, rng: &mut StdRng) -> Vec<PayloadBits> {
    (0..n).map(|_| image(width, rng)).collect()
}

/// `images` as wire rows of a `link_width`-bit link (zero-extended).
fn link_rows(link_width: u32, images: &[PayloadBits]) -> FlitSlab {
    let mut rows = FlitSlab::new(link_width);
    rows.extend_rows(images);
    rows
}

/// One transmit row step on images: `plain` zero-extended onto the wire,
/// through `encode_row_onto`.
fn step(lane: &mut LinkCodecState, plain: &PayloadBits) -> PayloadBits {
    let aligned = plain.resized(lane.wire_width());
    let mut wire = vec![0; aligned.used_words().len()];
    lane.encode_row_onto(aligned.used_words(), &mut wire);
    PayloadBits::from_row(lane.wire_width(), &wire)
}

fn codec_of(idx: usize) -> CodecKind {
    [
        CodecKind::Unencoded,
        CodecKind::BusInvert,
        CodecKind::DeltaXor,
    ][idx]
}

proptest! {
    /// `encode_run` is the row-step loop: same wire stream boundaries, same
    /// transition sum, same lane afterwards — from a fresh lane or one
    /// already seeded by a random warmup prefix.
    #[test]
    fn encode_run_is_the_step_loop(
        seed in 0u64..10_000,
        codec_idx in 0usize..3,
        width in 1u32..320,
        warmup in 0usize..4,
        len in 0usize..24,
    ) {
        let codec = codec_of(codec_idx);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bulk = codec.seed_state(width);
        let mut walk = codec.seed_state(width);
        for flit in images(width, warmup, &mut rng) {
            let _ = step(&mut bulk, &flit);
            let _ = step(&mut walk, &flit);
        }
        let run_flits = images(width, len, &mut rng);
        let run = bulk.encode_run(run_flits.iter());
        let wires: Vec<PayloadBits> =
            run_flits.iter().map(|f| step(&mut walk, f)).collect();
        prop_assert_eq!(&bulk, &walk, "end-of-run lane state (seed {})", seed);
        match run {
            None => prop_assert!(run_flits.is_empty()),
            Some(run) => {
                prop_assert_eq!(run.count, run_flits.len() as u64);
                prop_assert_eq!(&run.first, &wires[0], "first wire image");
                prop_assert_eq!(&run.last, wires.last().unwrap(), "last wire image");
                let walked: u64 = wires
                    .windows(2)
                    .map(|w| u64::from(w[1].transitions_to(&w[0])))
                    .sum();
                prop_assert_eq!(run.intra, walked, "intra transition sum (seed {})", seed);
            }
        }
    }

    /// `observe_payload_run` is the `observe_payload` loop at the slab
    /// level: identical per-link transition/flit accounting and
    /// identical persistent tx/rx lane states, on a link with or
    /// without prior wire history.
    #[test]
    fn observe_payload_run_is_the_observe_payload_loop(
        seed in 0u64..10_000,
        codec_idx in 1usize..3, // payload runs need codec lanes
        width in 1u32..200,
        history in 0usize..3,
        len in 1usize..16,
    ) {
        let codec = codec_of(codec_idx);
        let link_width = width + codec.extra_wires();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut bulk = LinkSlab::with_link_codec(link_width, 2, codec);
        let mut walk = LinkSlab::with_link_codec(link_width, 2, codec);
        let history = link_rows(link_width, &images(width, history, &mut rng));
        for i in 0..history.len() {
            let (mut a, mut b) = (history.flit(i).to_vec(), history.flit(i).to_vec());
            bulk.observe_payload(0, &mut a);
            walk.observe_payload(0, &mut b);
            prop_assert_eq!(a, b);
        }
        let run = link_rows(link_width, &images(width, len, &mut rng));
        bulk.observe_payload_run(0, &run);
        for i in 0..run.len() {
            // The per-flit walk writes the delivered plain row back; on
            // perfect wires it is the input itself — the identity the
            // bulk path relies on to skip payload rewrites.
            let mut delivered = run.flit(i).to_vec();
            walk.observe_payload(0, &mut delivered);
            prop_assert_eq!(&delivered[..], run.flit(i));
        }
        prop_assert_eq!(bulk.transitions(0), walk.transitions(0), "link BTs (seed {})", seed);
        prop_assert_eq!(bulk.flits(0), walk.flits(0), "link flit count");
        prop_assert_eq!(
            bulk.codec_lane_states(0),
            walk.codec_lane_states(0),
            "persistent tx/rx lanes (seed {})",
            seed
        );
        // The untouched link stayed untouched.
        prop_assert_eq!(bulk.transitions(1), 0);
        prop_assert_eq!(bulk.flits(1), 0);
    }

    /// The O(1) delta-XOR packet hop is the head's `observe` plus the
    /// payload's `observe_payload_run`: same link BTs and flit count,
    /// same tx/rx lanes, and the same last wire image (a probe flit
    /// observed afterwards charges the same boundary transition). Lanes
    /// start unseeded or seeded by loose payload flits, optionally
    /// reseeded after a whole prior packet (wire history on an unseeded
    /// lane, as after a retry resync).
    #[test]
    fn delta_xor_packet_hop_is_head_plus_payload_run(
        seed in 0u64..10_000,
        width in 1u32..200,
        warmup in 0usize..3,
        prior in 0usize..2,
        reseed in 0usize..2,
        len in 1usize..13,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut hop = LinkSlab::with_link_codec(width, 2, CodecKind::DeltaXor);
        let mut walk = LinkSlab::with_link_codec(width, 2, CodecKind::DeltaXor);
        for flit in images(width, warmup, &mut rng) {
            hop.observe_payload(1, &mut flit.used_words().to_vec());
            walk.observe_payload(1, &mut flit.used_words().to_vec());
        }
        if prior == 1 {
            let head = image(width, &mut rng);
            let payload = link_rows(width, &images(width, rng.gen_range(1..5), &mut rng));
            for slab in [&mut hop, &mut walk] {
                slab.observe(1, head.used_words());
                slab.observe_payload_run(1, &payload);
            }
            if reseed == 1 {
                hop.reseed_codec_lanes();
                walk.reseed_codec_lanes();
            }
        }
        let head = image(width, &mut rng);
        let payload = images(width, len, &mut rng);
        let rows = link_rows(width, &payload);
        hop.observe_packet(
            1,
            &PacketWires::new(head.used_words(), &rows, Some(CodecKind::DeltaXor)),
        );
        walk.observe(1, head.used_words());
        walk.observe_payload_run(1, &rows);
        prop_assert_eq!(hop.transitions(1), walk.transitions(1), "link BTs (seed {})", seed);
        prop_assert_eq!(hop.flits(1), walk.flits(1), "link flit count");
        prop_assert_eq!(
            hop.codec_lane_states(1),
            walk.codec_lane_states(1),
            "persistent tx/rx lanes (seed {})",
            seed
        );
        let probe = image(width, &mut rng);
        hop.observe(1, probe.used_words());
        walk.observe(1, probe.used_words());
        prop_assert_eq!(hop.transitions(1), walk.transitions(1), "last wire image (seed {})", seed);
        prop_assert_eq!(hop.flits(0), 0, "the untouched link stayed untouched");
    }
}
