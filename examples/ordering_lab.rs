//! Ordering laboratory: compare the paper's descending-popcount rule with
//! ablation orderings and classic link encodings on one weight stream.
//!
//! Run with: `cargo run --release --example ordering_lab`

use noc_btr::bits::transition::stream_transitions;
use noc_btr::bits::word::{DataWord, Fx8Word};
use noc_btr::bits::FlitSlab;
use noc_btr::core::codec::CodecKind;
use noc_btr::core::ordering::{ascending_popcount_order, greedy_nearest_order};
use noc_btr::core::stream::{
    build_stream_slab, measure_slab, Comparison, Placement, TieBreak, WindowConfig,
};
use noc_btr::core::transport::pack_window_with_order;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Packs the stream with an arbitrary per-window permutation rule (the
/// ablation counterpart of `build_stream_slab`).
fn flits_with_order(
    packets: &[Vec<Fx8Word>],
    window: usize,
    order: impl Fn(&[Fx8Word]) -> Vec<usize> + Copy,
) -> FlitSlab {
    let mut flits = FlitSlab::new(8 * Fx8Word::WIDTH);
    for group in packets.chunks(window) {
        pack_window_with_order(group, 8, order, &mut flits);
    }
    flits
}

fn main() {
    // Trained-like weight stream: codes concentrated near zero.
    let mut rng = StdRng::seed_from_u64(5);
    let packets: Vec<Vec<Fx8Word>> = (0..400)
        .map(|_| {
            (0..25)
                .map(|_| {
                    let mag = (rng.gen_range(0.0f32..1.0).powi(3) * 40.0) as i8;
                    Fx8Word::new(if rng.gen_bool(0.5) { mag } else { -mag })
                })
                .collect()
        })
        .collect();

    let comparison = Comparison::Consecutive;
    let mut config = WindowConfig {
        values_per_flit: 8,
        window_packets: 64,
        placement: Placement::RoundRobin,
        tiebreak: TieBreak::Value,
    };

    let measure = |flits: &FlitSlab| measure_slab::<Fx8Word>(flits, 8, comparison, 0).transitions;
    let baseline = build_stream_slab(&packets, &config, false);
    let base_bt = measure(&baseline);

    println!(
        "one stream, many transmitters ({} flits):\n",
        baseline.len()
    );
    println!("{:<44} {:>12} {:>10}", "scheme", "transitions", "vs base");
    println!(
        "{:<44} {:>12} {:>9.1}%",
        "baseline (natural order)", base_bt, 0.0
    );

    let show = |label: &str, transitions: u64| {
        println!(
            "{:<44} {:>12} {:>9.1}%",
            label,
            transitions,
            (1.0 - transitions as f64 / base_bt as f64) * 100.0
        );
    };

    // The paper's ordering at several window sizes.
    for window in [1usize, 16, 64] {
        config.window_packets = window;
        let bt = measure(&build_stream_slab(&packets, &config, true));
        show(
            &format!("descending popcount ordering (window {window})"),
            bt,
        );
    }

    // Alternative ordering rules (ablation): ascending popcount puts the
    // heavy values next to the zero-padded packet tails; greedy
    // nearest-popcount ties descending, showing popcount adjacency is
    // what matters.
    show(
        "ascending popcount (window 64)",
        measure(&flits_with_order(&packets, 64, ascending_popcount_order)),
    );
    show(
        "greedy nearest-popcount (window 64)",
        measure(&flits_with_order(&packets, 64, greedy_nearest_order)),
    );

    // Classic link encodings over the *unordered* stream. Transitions are
    // counted on the full wire image, so bus-invert's extra invert line
    // (the wire's top bit) is charged too.
    let coded = |kind: CodecKind, flits: &FlitSlab| {
        stream_transitions(&kind.encode_stream(&flits.to_payloads()))
    };
    show(
        "bus-invert coding [Stan & Burleson]",
        coded(CodecKind::BusInvert, &baseline),
    );
    show(
        "delta (XOR) encoding [after Sarman et al.]",
        coded(CodecKind::DeltaXor, &baseline),
    );

    // Ordering and bus-invert compose: encode the ordered stream.
    config.window_packets = 64;
    let ordered = build_stream_slab(&packets, &config, true);
    show(
        "ordering (64) + bus-invert",
        coded(CodecKind::BusInvert, &ordered),
    );

    println!("\nOrdering needs no extra wires and no decoder; encodings do.");
}
