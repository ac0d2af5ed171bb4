//! The "without NoC" evaluation harness (Sec. V-A: Table I, Figs. 9–11).
//!
//! Packets of real weights are flitized onto a single link and the BT
//! between flits is measured two ways:
//!
//! * [`Comparison::Consecutive`] — flits stream back-to-back; BT between
//!   each consecutive pair (the link recorder of Fig. 8);
//! * [`Comparison::RandomPairs`] — "the BTs of *random comparisons*
//!   between flits" (Sec. V-A): uniformly sampled flit pairs, emulating
//!   arbitrary interleaving of flits on a shared link.
//!
//! The ordering unit sits at the memory controller behind a prefetch
//! buffer (Fig. 6), so its sorting window spans more than one kernel
//! packet. [`WindowConfig::window_packets`] controls how many consecutive
//! packets are pooled into one descending-sort window; Fig. 9's
//! many-flit monotone grid corresponds to such a multi-packet window.
//! Padded zeros keep their slots ("we do not order the padded zeros",
//! Sec. IV-A), so baseline and ordered streams have identical flit counts.

use crate::flitize::flitize_values;
use crate::ordering::round_robin_assignment;
pub use crate::ordering::TieBreak;
use crate::transport::{pack_values, row_major_assignment, window_occupancy};
use btr_bits::payload::PayloadBits;
use btr_bits::stats::{BitPositionStats, PopcountHistogram};
use btr_bits::transition::reduction_rate;
use btr_bits::word::DataWord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How sorted values are placed into the window's occupied flit slots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// Rank `r` goes to flit `r mod k` (Fig. 3's column-major deal):
    /// every flit receives the same *rank profile*, so any two flits in
    /// the stream look alike — the right choice when flits interleave
    /// arbitrarily.
    RoundRobin,
    /// Rank `r` goes to occupied slot `r` in flit order: consecutive flits
    /// carry adjacent ranks (Fig. 9's visual).
    RowMajor,
}

/// How flit pairs are selected for BT measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Comparison {
    /// Consecutive flits in stream order.
    Consecutive,
    /// `pairs` uniformly random flit pairs (seeded; the same pair indices
    /// are used for baseline and ordered streams).
    RandomPairs {
        /// Number of sampled pairs.
        pairs: usize,
        /// RNG seed for pair sampling.
        seed: u64,
    },
}

/// Configuration of the windowed stream experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Word lanes per flit.
    pub values_per_flit: usize,
    /// Consecutive packets pooled into one ordering window.
    pub window_packets: usize,
    /// Sorted-value placement.
    pub placement: Placement,
    /// Tie handling among equal popcounts.
    pub tiebreak: TieBreak,
}

impl WindowConfig {
    /// Table I's default configuration: 8 values per flit, a 64-packet
    /// prefetch window, round-robin placement, popcount-only comparator
    /// (the mechanism exactly as the paper describes it). EXPERIMENTS.md
    /// records the calibration sweep and the sensitivity variants
    /// ([`TieBreak::Value`], global quantization) that reach the paper's
    /// absolute magnitudes.
    #[must_use]
    pub fn table1() -> Self {
        Self {
            values_per_flit: 8,
            window_packets: 64,
            placement: Placement::RoundRobin,
            tiebreak: TieBreak::Stable,
        }
    }
}

/// Builds the flit stream for `packets`, optionally ordered per window.
///
/// Baseline (`ordered == false`): each packet is flitized row-major with
/// zero padding in its tail flit. Ordered: the values of each
/// `window_packets`-packet group are pooled, sorted descending by
/// popcount, and dealt into the **occupied** slots of the window's flits
/// (padding slots stay zero in place), per the configured placement.
///
/// # Panics
///
/// Panics if `values_per_flit == 0` or `window_packets == 0`.
#[must_use]
pub fn build_stream_flits<W: DataWord>(
    packets: &[Vec<W>],
    config: &WindowConfig,
    ordered: bool,
) -> Vec<PayloadBits> {
    assert!(
        config.values_per_flit > 0,
        "values_per_flit must be positive"
    );
    assert!(config.window_packets > 0, "window_packets must be positive");
    let vpf = config.values_per_flit;
    let mut flits = Vec::new();
    for window in packets.chunks(config.window_packets) {
        if !ordered {
            for packet in window {
                flits.extend(flitize_values(packet, vpf, false));
            }
            continue;
        }
        // Occupied-slot layout of the window: per-packet row-major shape,
        // padding at each packet's tail flit ("we do not order the padded
        // zeros"); packing shared with the rest of the transport pipeline.
        let occupancy = window_occupancy(window.iter().map(Vec::len), vpf);
        let values: Vec<W> = window.iter().flatten().copied().collect();
        let perm = config.tiebreak.descending_order(&values);
        let assign: Vec<(usize, usize)> = match config.placement {
            Placement::RoundRobin => round_robin_assignment(&occupancy),
            Placement::RowMajor => row_major_assignment(&occupancy),
        };
        flits.extend(pack_values(&values, &occupancy, &assign, &perm, vpf));
    }
    flits
}

/// Result of streaming one configuration over a link.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Number of flits streamed.
    pub flits: u64,
    /// Total bit transitions on the link.
    pub transitions: u64,
    /// Average transitions per flit boundary (the paper's "BTs per flit").
    pub bt_per_flit: f64,
    /// Transition probability at each bit position of the link, folded to
    /// word width (all value lanes overlaid) — the bottom rows of
    /// Figs. 10/11.
    pub word_transition_probability: Vec<f64>,
    /// Popcount grid of the first flits (rows = flits, columns = value
    /// lanes), as visualized in Fig. 9.
    pub popcount_grid: Vec<Vec<u32>>,
}

/// Measures BT over an already-built flit stream.
///
/// With [`Comparison::Consecutive`] the transitions of each consecutive
/// pair accumulate (Fig. 8 recorder); with [`Comparison::RandomPairs`]
/// uniformly sampled pairs are compared and `bt_per_flit` is the mean BT
/// per sampled pair.
#[must_use]
pub fn measure_flits<W: DataWord>(
    flits: &[PayloadBits],
    values_per_flit: usize,
    comparison: Comparison,
    grid_rows: usize,
) -> StreamReport {
    let width = values_per_flit as u32 * W::WIDTH;
    let grid: Vec<Vec<u32>> = flits
        .iter()
        .take(grid_rows)
        .map(|f| flit_popcounts::<W>(f, values_per_flit))
        .collect();

    let pairs = match comparison {
        Comparison::Consecutive => flits.len().saturating_sub(1),
        Comparison::RandomPairs { pairs, .. } if flits.len() >= 2 => pairs,
        Comparison::RandomPairs { .. } => 0,
    };
    if pairs == 0 {
        return StreamReport {
            flits: flits.len() as u64,
            transitions: 0,
            bt_per_flit: 0.0,
            word_transition_probability: Vec::new(),
            popcount_grid: grid,
        };
    }
    let mut total = 0u64;
    let mut per_position = vec![0u64; width as usize];
    let mut compare = |a: &PayloadBits, b: &PayloadBits| {
        let diff = a.xor(b);
        total += u64::from(diff.popcount());
        // O(popcount), not O(width): only toggling wires count.
        diff.for_each_set_bit(|i| per_position[i as usize] += 1);
    };
    match comparison {
        Comparison::Consecutive => {
            for pair in flits.windows(2) {
                compare(&pair[1], &pair[0]);
            }
        }
        Comparison::RandomPairs { seed, .. } => {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..pairs {
                let a = rng.gen_range(0..flits.len());
                let mut b = rng.gen_range(0..flits.len() - 1);
                if b >= a {
                    b += 1;
                }
                compare(&flits[a], &flits[b]);
            }
        }
    }
    let probs: Vec<f64> = per_position
        .iter()
        .map(|&c| c as f64 / pairs as f64)
        .collect();
    StreamReport {
        flits: flits.len() as u64,
        transitions: total,
        bt_per_flit: total as f64 / pairs as f64,
        word_transition_probability: fold_to_word_width(&probs, W::WIDTH),
        popcount_grid: grid,
    }
}

/// Builds the (baseline or ordered) stream per `config` and measures it.
#[must_use]
pub fn evaluate_windowed<W: DataWord>(
    packets: &[Vec<W>],
    config: &WindowConfig,
    ordered: bool,
    comparison: Comparison,
    grid_rows: usize,
) -> StreamReport {
    let flits = build_stream_flits(packets, config, ordered);
    measure_flits::<W>(&flits, config.values_per_flit, comparison, grid_rows)
}

/// Runs baseline and ordered configurations over the same packets and
/// comparison pairs (one Table I row).
#[must_use]
pub fn compare_windowed<W: DataWord>(
    packets: &[Vec<W>],
    config: &WindowConfig,
    comparison: Comparison,
    grid_rows: usize,
) -> StreamComparison {
    let baseline = evaluate_windowed(packets, config, false, comparison, grid_rows);
    let ordered = evaluate_windowed(packets, config, true, comparison, grid_rows);
    let rate = reduction_rate(baseline.transitions, ordered.transitions);
    StreamComparison {
        baseline,
        ordered,
        reduction_rate: rate,
    }
}

/// Streams `packets` over one link and measures consecutive-flit BT with
/// per-packet ordering (window of 1, round-robin placement) — the simplest
/// configuration, kept for the library's quickstart path.
///
/// # Panics
///
/// Panics if `values_per_flit == 0`.
#[must_use]
pub fn evaluate_stream<W: DataWord>(
    packets: &[Vec<W>],
    values_per_flit: usize,
    ordered: bool,
    grid_rows: usize,
) -> StreamReport {
    let config = WindowConfig {
        values_per_flit,
        window_packets: 1,
        placement: Placement::RoundRobin,
        tiebreak: TieBreak::Stable,
    };
    evaluate_windowed(
        packets,
        &config,
        ordered,
        Comparison::Consecutive,
        grid_rows,
    )
}

/// Popcount of each value lane in a flit image.
fn flit_popcounts<W: DataWord>(flit: &PayloadBits, values_per_flit: usize) -> Vec<u32> {
    (0..values_per_flit)
        .map(|s| flit.field(s as u32 * W::WIDTH, W::WIDTH).count_ones())
        .collect()
}

/// Overlays all value lanes of a link onto word-width bit positions by
/// averaging: position `p` of the output aggregates link wires
/// `p, p + w, p + 2w, …`.
fn fold_to_word_width(link_probs: &[f64], word_width: u32) -> Vec<f64> {
    if link_probs.is_empty() {
        return Vec::new();
    }
    let w = word_width as usize;
    let lanes = link_probs.len() / w;
    (0..w)
        .map(|p| {
            let sum: f64 = (0..lanes).map(|l| link_probs[l * w + p]).sum();
            sum / lanes as f64
        })
        .collect()
}

/// Side-by-side comparison of the baseline and ordered streams over the
/// same packets — one row of Table I.
#[derive(Debug, Clone)]
pub struct StreamComparison {
    /// Baseline (natural order) stream.
    pub baseline: StreamReport,
    /// Ordered (descending popcount, round-robin) stream.
    pub ordered: StreamReport,
    /// `(baseline − ordered) / baseline` transitions.
    pub reduction_rate: f64,
}

/// Runs both configurations over the same packets (Table I rows).
#[must_use]
pub fn compare_streams<W: DataWord>(
    packets: &[Vec<W>],
    values_per_flit: usize,
    grid_rows: usize,
) -> StreamComparison {
    let baseline = evaluate_stream(packets, values_per_flit, false, grid_rows);
    let ordered = evaluate_stream(packets, values_per_flit, true, grid_rows);
    let rate = reduction_rate(baseline.transitions, ordered.transitions);
    StreamComparison {
        baseline,
        ordered,
        reduction_rate: rate,
    }
}

/// Per-bit-position `'1'` statistics of a word stream (top rows of
/// Figs. 10/11). Order-independent, so it is computed once per dataset.
#[must_use]
pub fn word_bit_statistics<W: DataWord>(words: &[W]) -> BitPositionStats {
    let mut stats = BitPositionStats::new(W::WIDTH);
    stats.observe_all(words);
    stats
}

/// Popcount histogram of a word stream (for Fig. 9-style summaries and the
/// bimodality analysis of trained fixed-8 weights).
#[must_use]
pub fn word_popcount_histogram<W: DataWord>(words: &[W]) -> PopcountHistogram {
    let mut hist = PopcountHistogram::new(W::WIDTH);
    for &w in words {
        hist.observe(w);
    }
    hist
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_bits::word::Fx8Word;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_packets(count: usize, len: usize, seed: u64) -> Vec<Vec<Fx8Word>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| (0..len).map(|_| Fx8Word::new(rng.gen())).collect())
            .collect()
    }

    #[test]
    fn ordering_reduces_transitions_on_random_data() {
        let packets = random_packets(500, 25, 42);
        let cmp = compare_streams(&packets, 8, 0);
        assert!(
            cmp.reduction_rate > 0.05,
            "expected a clear reduction, got {}",
            cmp.reduction_rate
        );
        assert_eq!(cmp.baseline.flits, cmp.ordered.flits);
    }

    #[test]
    fn ordering_helps_most_on_bimodal_data() {
        // Near-zero trained-like codes: half small positive (few ones),
        // half small negative (many ones).
        let mut rng = StdRng::seed_from_u64(7);
        let packets: Vec<Vec<Fx8Word>> = (0..300)
            .map(|_| {
                (0..25)
                    .map(|_| {
                        let mag = rng.gen_range(0..4i8);
                        if rng.gen_bool(0.5) {
                            Fx8Word::new(mag)
                        } else {
                            Fx8Word::new(-mag)
                        }
                    })
                    .collect()
            })
            .collect();
        let bimodal = compare_streams(&packets, 8, 0);
        let uniform = compare_streams(&random_packets(300, 25, 8), 8, 0);
        assert!(
            bimodal.reduction_rate > uniform.reduction_rate,
            "bimodal {} should beat uniform {}",
            bimodal.reduction_rate,
            uniform.reduction_rate
        );
        // The paper's headline: trained fixed-8 cuts BT by ~half.
        assert!(
            bimodal.reduction_rate > 0.3,
            "got {}",
            bimodal.reduction_rate
        );
    }

    #[test]
    fn report_fields_are_consistent() {
        let packets = random_packets(10, 16, 1);
        let report = evaluate_stream(&packets, 8, false, 4);
        assert_eq!(report.flits, 20); // 16 values / 8 per flit * 10 packets
        assert_eq!(report.popcount_grid.len(), 4);
        assert_eq!(report.popcount_grid[0].len(), 8);
        assert_eq!(report.word_transition_probability.len(), 8);
        let expected = report.transitions as f64 / (report.flits - 1) as f64;
        assert!((report.bt_per_flit - expected).abs() < 1e-12);
    }

    #[test]
    fn fold_overlays_lanes() {
        let link = vec![1.0, 0.0, 0.5, 0.0]; // 2 lanes of 2-bit words
        let folded = fold_to_word_width(&link, 2);
        assert_eq!(folded, vec![0.75, 0.0]);
        assert!(fold_to_word_width(&[], 8).is_empty());
    }

    #[test]
    fn grid_shows_descending_rows_after_ordering() {
        let packets = random_packets(1, 32, 3);
        let report = evaluate_stream(&packets, 8, true, 4);
        // Within the single ordered packet, lane popcounts descend down
        // each column.
        for lane in 0..8 {
            let col: Vec<u32> = report.popcount_grid.iter().map(|r| r[lane]).collect();
            assert!(col.windows(2).all(|w| w[0] >= w[1]), "lane {lane}: {col:?}");
        }
    }

    #[test]
    fn word_statistics_helpers() {
        let words: Vec<Fx8Word> = vec![Fx8Word::new(-1), Fx8Word::new(0)];
        let stats = word_bit_statistics(&words);
        assert_eq!(stats.count(), 2);
        assert!((stats.mean_popcount() - 4.0).abs() < 1e-12);
        let hist = word_popcount_histogram(&words);
        assert_eq!(hist.counts()[8], 1);
        assert_eq!(hist.counts()[0], 1);
    }

    #[test]
    fn windowed_ordering_preserves_flit_count_and_multiset() {
        let packets = random_packets(32, 25, 5);
        for placement in [Placement::RoundRobin, Placement::RowMajor] {
            let config = WindowConfig {
                values_per_flit: 8,
                window_packets: 8,
                placement,
                tiebreak: TieBreak::Stable,
            };
            let base = build_stream_flits(&packets, &config, false);
            let ord = build_stream_flits(&packets, &config, true);
            assert_eq!(base.len(), ord.len(), "{placement:?}");
            // Same value multiset: total popcount is invariant.
            let pc = |fs: &[btr_bits::PayloadBits]| -> u64 {
                fs.iter().map(|f| u64::from(f.popcount())).sum()
            };
            assert_eq!(pc(&base), pc(&ord), "{placement:?}");
        }
    }

    #[test]
    fn row_major_window_is_globally_descending() {
        let packets = random_packets(8, 24, 6); // 24 = full flits, no padding
        let config = WindowConfig {
            values_per_flit: 8,
            window_packets: 8,
            placement: Placement::RowMajor,
            tiebreak: TieBreak::Stable,
        };
        let flits = build_stream_flits(&packets, &config, true);
        let mut prev = u32::MAX;
        for f in &flits {
            for s in 0..8u32 {
                let pc = (f.field(s * 8, 8) as u8).count_ones();
                assert!(pc <= prev, "global descending order violated");
                prev = pc;
            }
        }
    }

    #[test]
    fn random_pairs_mode_is_deterministic_and_positive() {
        let packets = random_packets(50, 25, 7);
        let config = WindowConfig::table1();
        let cmp1 = compare_windowed(
            &packets,
            &config,
            Comparison::RandomPairs {
                pairs: 2000,
                seed: 1,
            },
            0,
        );
        let cmp2 = compare_windowed(
            &packets,
            &config,
            Comparison::RandomPairs {
                pairs: 2000,
                seed: 1,
            },
            0,
        );
        assert_eq!(cmp1.baseline.transitions, cmp2.baseline.transitions);
        assert_eq!(cmp1.ordered.transitions, cmp2.ordered.transitions);
        assert!(
            cmp1.reduction_rate > 0.05,
            "windowed ordering should cut random-pair BT, got {}",
            cmp1.reduction_rate
        );
    }

    #[test]
    fn larger_windows_help_random_pair_comparisons() {
        let packets = random_packets(256, 25, 8);
        let comparison = Comparison::RandomPairs {
            pairs: 5000,
            seed: 2,
        };
        let rate = |window: usize| {
            let config = WindowConfig {
                values_per_flit: 8,
                window_packets: window,
                placement: Placement::RoundRobin,
                tiebreak: TieBreak::Stable,
            };
            compare_windowed(&packets, &config, comparison, 0).reduction_rate
        };
        let small = rate(1);
        let large = rate(64);
        assert!(
            large > small,
            "window 64 ({large}) should beat window 1 ({small})"
        );
    }

    #[test]
    fn consecutive_comparison_counts_per_wire_toggles() {
        // One fixed-8 lane: wire 0 toggles once (0→1), wire 1 twice
        // (0→1→0), the rest never.
        let flits: Vec<btr_bits::PayloadBits> = [0b00u64, 0b11, 0b01]
            .iter()
            .map(|&bits| {
                let mut p = btr_bits::PayloadBits::zero(8);
                p.set_field(0, 8, bits);
                p
            })
            .collect();
        let r = measure_flits::<Fx8Word>(&flits, 1, Comparison::Consecutive, 0);
        assert_eq!((r.flits, r.transitions), (3, 3));
        assert!((r.bt_per_flit - 1.5).abs() < 1e-12);
        let probs = &r.word_transition_probability;
        assert_eq!(probs.len(), 8);
        assert!((probs[0] - 0.5).abs() < 1e-12);
        assert!((probs[1] - 1.0).abs() < 1e-12);
        assert!(probs[2..].iter().all(|&p| p == 0.0));
        // A single flit has no consecutive pair.
        let r = measure_flits::<Fx8Word>(&flits[..1], 1, Comparison::Consecutive, 0);
        assert_eq!((r.flits, r.transitions), (1, 0));
        assert!(r.word_transition_probability.is_empty());
    }

    #[test]
    fn measure_flits_handles_degenerate_inputs() {
        let flits: Vec<btr_bits::PayloadBits> = Vec::new();
        let r =
            measure_flits::<Fx8Word>(&flits, 8, Comparison::RandomPairs { pairs: 10, seed: 0 }, 0);
        assert_eq!(r.transitions, 0);
        let one = vec![btr_bits::PayloadBits::zero(64)];
        let r =
            measure_flits::<Fx8Word>(&one, 8, Comparison::RandomPairs { pairs: 10, seed: 0 }, 2);
        assert_eq!(r.bt_per_flit, 0.0);
        assert_eq!(r.popcount_grid.len(), 1);
    }

    #[test]
    fn empty_packets_produce_empty_report() {
        let packets: Vec<Vec<Fx8Word>> = Vec::new();
        let report = evaluate_stream(&packets, 8, true, 4);
        assert_eq!(report.flits, 0);
        assert_eq!(report.transitions, 0);
        assert_eq!(report.bt_per_flit, 0.0);
    }
}
