//! The Table I stream kernels against oracles that live here.
//!
//! `build_stream_flits` renders windows in place with one reused packer;
//! its oracle is the allocating `packet_occupancy → order → assignment →
//! pack_values` chain (and `flitize_values` for baseline packets).
//! `measure_flits` counts per-wire toggles with bit-sliced counters; its
//! oracle walks every wire of every compared pair one bit at a time.

use noc_btr::bits::word::{DataWord, F32Word, Fx8Word};
use noc_btr::bits::PayloadBits;
use noc_btr::core::flitize::flitize_values;
use noc_btr::core::ordering::round_robin_assignment;
use noc_btr::core::stream::{
    build_stream_flits, measure_flits, Comparison, Placement, TieBreak, WindowConfig,
};
use noc_btr::core::transport::{pack_values, packet_occupancy, row_major_assignment};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Packets of varied length: empty and 1-value packets, a full flit, and
/// lengths that leave a padded tail flit.
fn packets<W>(count: usize, seed: u64, word: impl Fn(&mut StdRng) -> W) -> Vec<Vec<W>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let len = match i % 7 {
                0 => 0,
                1 => 1,
                2 => 8,
                _ => rng.gen_range(2..40),
            };
            (0..len).map(|_| word(&mut rng)).collect()
        })
        .collect()
}

fn fx8_word(rng: &mut StdRng) -> Fx8Word {
    // A small alphabet half the time, so equal popcounts and equal words
    // exercise both tie rules.
    if rng.gen_bool(0.5) {
        Fx8Word::new(rng.gen_range(-3..4))
    } else {
        Fx8Word::new(rng.gen())
    }
}

fn f32_word(rng: &mut StdRng) -> F32Word {
    if rng.gen_bool(0.5) {
        F32Word::new(f32::from(rng.gen_range(-2i8..3)) * 0.25)
    } else {
        F32Word::new(rng.gen_range(-1.0f32..1.0))
    }
}

/// The allocating packing chain, the oracle for the in-place packer.
fn oracle_stream<W: DataWord>(
    packets: &[Vec<W>],
    config: &WindowConfig,
    ordered: bool,
) -> Vec<PayloadBits> {
    let vpf = config.values_per_flit;
    let mut flits = Vec::new();
    for window in packets.chunks(config.window_packets) {
        if !ordered {
            for packet in window {
                flits.extend(flitize_values(packet, vpf, false));
            }
            continue;
        }
        let occupancy: Vec<usize> = window
            .iter()
            .flat_map(|p| packet_occupancy(p.len(), vpf))
            .collect();
        let values: Vec<W> = window.iter().flatten().copied().collect();
        let perm = config.tiebreak.descending_order(&values);
        let assign = match config.placement {
            Placement::RoundRobin => round_robin_assignment(&occupancy),
            Placement::RowMajor => row_major_assignment(&occupancy),
        };
        flits.extend(pack_values(&values, &occupancy, &assign, &perm, vpf));
    }
    flits
}

/// Per-wire toggle counts and compared pairs, one wire at a time, over
/// the same pairs `measure_flits` draws.
fn oracle_counts(flits: &[PayloadBits], comparison: Comparison) -> (Vec<u64>, usize) {
    let width = flits.first().map_or(0, PayloadBits::width);
    let mut counts = vec![0u64; width as usize];
    let mut pairs = 0;
    let mut walk = |a: &PayloadBits, b: &PayloadBits| {
        for i in 0..width {
            if a.bit(i) != b.bit(i) {
                counts[i as usize] += 1;
            }
        }
        pairs += 1;
    };
    match comparison {
        Comparison::Consecutive => {
            for pair in flits.windows(2) {
                walk(&pair[1], &pair[0]);
            }
        }
        Comparison::RandomPairs { pairs: n, seed } if flits.len() >= 2 => {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..n {
                let a = rng.gen_range(0..flits.len());
                let mut b = rng.gen_range(0..flits.len() - 1);
                if b >= a {
                    b += 1;
                }
                walk(&flits[a], &flits[b]);
            }
        }
        Comparison::RandomPairs { .. } => {}
    }
    (counts, pairs)
}

fn assert_measure_matches<W: DataWord>(
    flits: &[PayloadBits],
    vpf: usize,
    comparison: Comparison,
    label: &str,
) {
    let got = measure_flits::<W>(flits, vpf, comparison, 5);
    let (counts, pairs) = oracle_counts(flits, comparison);
    let total: u64 = counts.iter().sum();
    assert_eq!(got.flits, flits.len() as u64, "{label}");
    assert_eq!(got.transitions, total, "{label}");
    let grid: Vec<Vec<u32>> = flits
        .iter()
        .take(5)
        .map(|f| {
            (0..vpf as u32)
                .map(|s| f.field(s * W::WIDTH, W::WIDTH).count_ones())
                .collect()
        })
        .collect();
    assert_eq!(got.popcount_grid, grid, "{label}");
    if pairs == 0 {
        assert_eq!(got.bt_per_flit, 0.0, "{label}");
        assert!(got.word_transition_probability.is_empty(), "{label}");
        return;
    }
    assert_eq!(got.bt_per_flit, total as f64 / pairs as f64, "{label}");
    let w = W::WIDTH as usize;
    let lanes = counts.len() / w;
    let folded: Vec<f64> = (0..w)
        .map(|p| {
            let sum: f64 = (0..lanes)
                .map(|l| counts[l * w + p] as f64 / pairs as f64)
                .sum();
            sum / lanes as f64
        })
        .collect();
    assert_eq!(got.word_transition_probability, folded, "{label}");
}

fn check_format<W: DataWord>(packets: &[Vec<W>], format: &str) {
    for window_packets in [1, 64, 7] {
        for tiebreak in [TieBreak::Stable, TieBreak::Value] {
            for placement in [Placement::RoundRobin, Placement::RowMajor] {
                let config = WindowConfig {
                    values_per_flit: 8,
                    window_packets,
                    placement,
                    tiebreak,
                };
                for ordered in [false, true] {
                    let label = format!("{format} {config:?} ordered={ordered}");
                    let flits = build_stream_flits(packets, &config, ordered);
                    assert_eq!(flits, oracle_stream(packets, &config, ordered), "{label}");
                    for comparison in [
                        Comparison::Consecutive,
                        Comparison::RandomPairs {
                            pairs: 3_000,
                            seed: 9,
                        },
                    ] {
                        assert_measure_matches::<W>(&flits, 8, comparison, &label);
                    }
                }
            }
        }
    }
}

#[test]
fn stream_kernels_match_oracles_for_fx8() {
    // 150 packets: not a multiple of the 64- or 7-packet windows.
    check_format(&packets(150, 1, fx8_word), "fx8");
}

#[test]
fn stream_kernels_match_oracles_for_f32() {
    check_format(&packets(150, 2, f32_word), "f32");
}

#[test]
fn degenerate_packets_match_oracles() {
    let config = WindowConfig::table1();
    let cases: [Vec<Vec<Fx8Word>>; 4] = [
        Vec::new(),
        vec![Vec::new()],
        vec![vec![Fx8Word::new(-1)]],
        vec![Vec::new(), vec![Fx8Word::new(5)], Vec::new()],
    ];
    for packets in &cases {
        for ordered in [false, true] {
            let flits = build_stream_flits(packets, &config, ordered);
            assert_eq!(
                flits,
                oracle_stream(packets, &config, ordered),
                "{packets:?} ordered={ordered}"
            );
            for comparison in [
                Comparison::Consecutive,
                Comparison::RandomPairs { pairs: 10, seed: 3 },
            ] {
                assert_measure_matches::<Fx8Word>(&flits, 8, comparison, "degenerate");
            }
        }
    }
}

#[test]
fn counters_stay_exact_across_flushes() {
    // More than 2^16 - 1 compared pairs, so the bit-sliced counters flush
    // mid-stream; alternating all-ones/all-zeros lanes push some wires to
    // a toggle on every pair.
    let mut rng = StdRng::seed_from_u64(4);
    let mut flits: Vec<PayloadBits> = (0..70_000u64)
        .map(|i| {
            let mut f = PayloadBits::zero(64);
            let noise: u64 = rng.gen();
            f.set_field(
                0,
                64,
                if i % 2 == 0 {
                    noise | 0xff
                } else {
                    noise & !0xff
                },
            );
            f
        })
        .collect();
    assert_measure_matches::<Fx8Word>(&flits, 8, Comparison::Consecutive, "consecutive");
    assert_measure_matches::<Fx8Word>(
        &flits,
        8,
        Comparison::RandomPairs {
            pairs: 140_000,
            seed: 8,
        },
        "random pairs",
    );
    // A wider, multi-word link with toggles in every word.
    flits.truncate(1_000);
    let wide: Vec<PayloadBits> = flits
        .iter()
        .enumerate()
        .map(|(i, f)| {
            let mut w = PayloadBits::zero(256);
            for k in 0..4 {
                w.set_field(k * 64, 64, f.field(0, 64).rotate_left(k * 7 + i as u32));
            }
            w
        })
        .collect();
    assert_measure_matches::<F32Word>(
        &wide,
        8,
        Comparison::RandomPairs {
            pairs: 70_000,
            seed: 5,
        },
        "f32 random pairs",
    );
}
