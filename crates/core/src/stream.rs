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
//! Sec. IV-A), so baseline and ordered streams have identical flit counts
//! except for empty packets: the baseline sends no flit for one, the
//! ordered stream keeps one all-padding flit.
//!
//! Streams are built into and measured from a [`FlitSlab`], one dense
//! row of `u64` words per flit ([`build_stream_slab`], [`measure_slab`]).

pub use crate::ordering::TieBreak;
use crate::transport::{lane_link_width, WindowPacker};
use btr_bits::payload::PayloadBits;
use btr_bits::slab::{row_field, FlitSlab};
use btr_bits::stats::BitPositionStats;
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
    /// `pairs` uniformly random flit pairs (seeded; baseline and ordered
    /// streams draw the same pair indices when their flit counts agree,
    /// which an empty packet breaks).
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
/// zero padding in its tail flit (an empty packet sends no flit). Ordered:
/// the values of each `window_packets`-packet group are pooled, sorted
/// descending by popcount, and dealt into the **occupied** slots of the
/// window's flits (padding slots stay zero in place; an empty packet
/// keeps one all-padding flit), per the configured placement.
///
/// The slab is sized once and every window is rendered into its rows in
/// place by one reused packer: no per-packet allocation, no image copies.
///
/// # Panics
///
/// Panics if `values_per_flit == 0`, `window_packets == 0`, or the link
/// would exceed [`btr_bits::payload::MAX_WIDTH_BITS`].
#[must_use]
pub fn build_stream_slab<W: DataWord>(
    packets: &[Vec<W>],
    config: &WindowConfig,
    ordered: bool,
) -> FlitSlab {
    assert!(config.window_packets > 0, "window_packets must be positive");
    let vpf = config.values_per_flit;
    let link_width = lane_link_width::<W>(vpf);
    let min_flits = usize::from(ordered);
    let total = packets
        .iter()
        .map(|p| p.len().div_ceil(vpf).max(min_flits))
        .sum();
    let mut slab = FlitSlab::with_capacity(link_width, total);
    if !ordered {
        for packet in packets {
            let base = slab.len();
            slab.push_zeroed(packet.len().div_ceil(vpf));
            for (flit, lanes) in packet.chunks(vpf).enumerate() {
                for (slot, value) in lanes.iter().enumerate() {
                    slab.set_lane(
                        base + flit,
                        slot as u32 * W::WIDTH,
                        W::WIDTH,
                        value.bits_u64(),
                    );
                }
            }
        }
        return slab;
    }
    let mut packer = WindowPacker::default();
    for window in packets.chunks(config.window_packets) {
        packer.pack(
            window,
            vpf,
            config.placement,
            |values, sort, perm| config.tiebreak.descending_order_into(values, sort, perm),
            &mut slab,
        );
    }
    slab
}

/// [`build_stream_slab`] expanded into one [`PayloadBits`] image per
/// flit. Kept for perfbench's stage breakdown, which times it as the
/// stream build; every in-repo stream path uses the slab.
///
/// # Panics
///
/// Panics under the same conditions as [`build_stream_slab`].
#[must_use]
// btr-lint: allow(test-only-pub, reason = "perfbench times it as core.build_stream")
pub fn build_stream_flits<W: DataWord>(
    packets: &[Vec<W>],
    config: &WindowConfig,
    ordered: bool,
) -> Vec<PayloadBits> {
    build_stream_slab(packets, config, ordered).to_payloads()
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
///
/// # Panics
///
/// Panics if the slab is not `values_per_flit × W::WIDTH` bits wide.
#[must_use]
pub fn measure_slab<W: DataWord>(
    slab: &FlitSlab,
    values_per_flit: usize,
    comparison: Comparison,
    grid_rows: usize,
) -> StreamReport {
    let width = values_per_flit as u32 * W::WIDTH;
    assert_eq!(slab.width(), width, "slab width must match the link");
    measure_rows::<W>(
        slab.len(),
        slab.words_per_flit(),
        |i| slab.flit(i),
        values_per_flit,
        comparison,
        grid_rows,
    )
}

/// [`measure_slab`] over [`PayloadBits`] images, reading each image's
/// used words in place (no copy). Kept for perfbench's stage breakdown,
/// which times it as the pair measurement.
///
/// # Panics
///
/// Panics if a measured flit is not `values_per_flit × W::WIDTH` bits
/// wide.
#[must_use]
// btr-lint: allow(test-only-pub, reason = "perfbench times it as the Table I pair measurement")
pub fn measure_flits<W: DataWord>(
    flits: &[PayloadBits],
    values_per_flit: usize,
    comparison: Comparison,
    grid_rows: usize,
) -> StreamReport {
    let width = values_per_flit as u32 * W::WIDTH;
    measure_rows::<W>(
        flits.len(),
        width.div_ceil(64) as usize,
        |i| {
            let flit = &flits[i];
            assert_eq!(flit.width(), width, "flit width must match the link");
            flit.used_words()
        },
        values_per_flit,
        comparison,
        grid_rows,
    )
}

/// The measure kernel: `row(i)` is flit `i`'s `words` `u64` words out of
/// `flits`.
fn measure_rows<'a, W: DataWord>(
    flits: usize,
    words: usize,
    row: impl Fn(usize) -> &'a [u64],
    values_per_flit: usize,
    comparison: Comparison,
    grid_rows: usize,
) -> StreamReport {
    let width = values_per_flit as u32 * W::WIDTH;
    let grid: Vec<Vec<u32>> = (0..flits.min(grid_rows))
        .map(|i| lane_popcounts::<W>(row(i), values_per_flit))
        .collect();

    let pairs = match comparison {
        Comparison::Consecutive => flits.saturating_sub(1),
        Comparison::RandomPairs { pairs, .. } if flits >= 2 => pairs,
        Comparison::RandomPairs { .. } => 0,
    };
    if pairs == 0 {
        return StreamReport {
            flits: flits as u64,
            transitions: 0,
            bt_per_flit: 0.0,
            word_transition_probability: Vec::new(),
            popcount_grid: grid,
        };
    }
    let mut per_position = vec![0u64; width as usize];
    let mut counters = WireCounters::new(words);
    match comparison {
        Comparison::Consecutive => {
            for i in 1..flits {
                counters.add_pair(row(i), row(i - 1), &mut per_position);
            }
        }
        Comparison::RandomPairs { seed, .. } => {
            let mut rng = StdRng::seed_from_u64(seed);
            for _ in 0..pairs {
                let a = rng.gen_range(0..flits);
                let mut b = rng.gen_range(0..flits - 1);
                if b >= a {
                    b += 1;
                }
                counters.add_pair(row(a), row(b), &mut per_position);
            }
        }
    }
    counters.flush(&mut per_position);
    // Every toggle lands on exactly one wire, so the wire counts sum to
    // the link total.
    let total: u64 = per_position.iter().sum();
    let probs: Vec<f64> = per_position
        .iter()
        .map(|&c| c as f64 / pairs as f64)
        .collect();
    StreamReport {
        flits: flits as u64,
        transitions: total,
        bt_per_flit: total as f64 / pairs as f64,
        word_transition_probability: fold_to_word_width(&probs, W::WIDTH),
        popcount_grid: grid,
    }
}

/// Bit planes per counter word: each wire counts up to `2^16 - 1`
/// toggles between flushes.
const COUNTER_PLANES: usize = 16;

/// Compared pairs summed by one carry-save pass.
const BATCH: usize = 16;

/// Per-wire toggle counters, bit-sliced: plane `k` of word `w` holds bit
/// `k` of the counters of wires `64w .. 64w + 64`, so word-wide logic
/// counts 64 wires at once. The XOR words of [`BATCH`] compared pairs are
/// summed by a carry-save adder tree (Harley–Seal) into planes 0–3, and
/// the weight-16 carry it leaves ripples into the upper planes: about
/// five word operations per compared word, none per toggling wire. The
/// planes are flushed into exact `u64` wire counts before any counter
/// can overflow.
struct WireCounters {
    words: usize,
    /// XOR words of the pairs awaiting the next pass, pair-major.
    batch: Vec<u64>,
    batched: usize,
    planes: Vec<[u64; COUNTER_PLANES]>,
    pending: u32,
}

/// Full adder over 64 bit lanes: `(carry, sum)` of `a + b + c`.
#[inline]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    ((a & b) | (u & c), u ^ c)
}

impl WireCounters {
    /// Pairs that fit the planes between flushes.
    const FLUSH_EVERY: u32 = (1 << COUNTER_PLANES) - 1;

    fn new(words: usize) -> Self {
        Self {
            words,
            batch: vec![0; BATCH * words],
            batched: 0,
            planes: vec![[0; COUNTER_PLANES]; words],
            pending: 0,
        }
    }

    /// Counts the wires toggling between flit rows `a` and `b`.
    #[inline]
    fn add_pair(&mut self, a: &[u64], b: &[u64], per_position: &mut [u64]) {
        debug_assert!(a.len() == self.words && b.len() == self.words);
        let row = &mut self.batch[self.batched * self.words..][..self.words];
        for ((r, &x), &y) in row.iter_mut().zip(a).zip(b) {
            *r = x ^ y;
        }
        self.batched += 1;
        if self.batched == BATCH {
            self.sum_batch();
        }
        self.pending += 1;
        if self.pending == Self::FLUSH_EVERY {
            self.flush(per_position);
        }
    }

    /// Adds the batched XOR words into the planes (rows not yet filled
    /// count as zero) and empties the batch.
    fn sum_batch(&mut self) {
        let words = self.words;
        self.batch[self.batched * words..].fill(0);
        for (w, planes) in self.planes.iter_mut().enumerate() {
            let d = |i: usize| self.batch[i * words + w];
            let [mut ones, mut twos, mut fours, mut eights] =
                [planes[0], planes[1], planes[2], planes[3]];
            // Every `csa` keeps ones + 2·twos + 4·fours + 8·eights plus
            // the carries it emits equal to the planes plus the inputs
            // consumed so far.
            let mut eights_in = [0; 2];
            for (half, eights_carry) in eights_in.iter_mut().enumerate() {
                let mut fours_in = [0; 2];
                for (quarter, fours_carry) in fours_in.iter_mut().enumerate() {
                    let i = 8 * half + 4 * quarter;
                    let (twos_a, sum) = csa(ones, d(i), d(i + 1));
                    let (twos_b, sum) = csa(sum, d(i + 2), d(i + 3));
                    ones = sum;
                    (*fours_carry, twos) = csa(twos, twos_a, twos_b);
                }
                (*eights_carry, fours) = csa(fours, fours_in[0], fours_in[1]);
            }
            let (mut carry, sum) = csa(eights, eights_in[0], eights_in[1]);
            eights = sum;
            planes[..4].copy_from_slice(&[ones, twos, fours, eights]);
            for plane in &mut planes[4..] {
                let next = *plane & carry;
                *plane ^= carry;
                carry = next;
            }
        }
        self.batched = 0;
    }

    /// Adds the counts to `per_position` and clears the planes.
    fn flush(&mut self, per_position: &mut [u64]) {
        self.sum_batch();
        for (w, planes) in self.planes.iter_mut().enumerate() {
            for (k, plane) in planes.iter_mut().enumerate() {
                let mut bits = std::mem::take(plane);
                while bits != 0 {
                    per_position[w * 64 + bits.trailing_zeros() as usize] += 1 << k;
                    bits &= bits - 1;
                }
            }
        }
        self.pending = 0;
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
    let slab = build_stream_slab(packets, config, ordered);
    measure_slab::<W>(&slab, config.values_per_flit, comparison, grid_rows)
}

/// Runs baseline and ordered configurations over the same packets and
/// comparison (one Table I row). Random pairs are drawn from the same
/// seed, so both streams compare the same flit indices unless an empty
/// packet makes their flit counts differ.
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

/// Popcount of each value lane in a flit row.
fn lane_popcounts<W: DataWord>(row: &[u64], values_per_flit: usize) -> Vec<u32> {
    (0..values_per_flit)
        .map(|s| row_field(row, s as u32 * W::WIDTH, W::WIDTH).count_ones())
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

/// Per-bit-position `'1'` statistics of a word stream (top rows of
/// Figs. 10/11). Order-independent, so it is computed once per dataset.
#[must_use]
pub fn word_bit_statistics<W: DataWord>(words: &[W]) -> BitPositionStats {
    let mut stats = BitPositionStats::new(W::WIDTH);
    stats.observe_all(words);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_bits::stats::PopcountHistogram;
    use btr_bits::word::Fx8Word;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Streams `packets` over one link with per-packet ordering (window
    /// of 1, round-robin placement) and measures consecutive-flit BT.
    fn evaluate_stream<W: DataWord>(
        packets: &[Vec<W>],
        values_per_flit: usize,
        ordered: bool,
        grid_rows: usize,
    ) -> StreamReport {
        evaluate_windowed(
            packets,
            &window_of_one(values_per_flit),
            ordered,
            Comparison::Consecutive,
            grid_rows,
        )
    }

    /// Both streams of [`evaluate_stream`] over the same packets.
    fn compare_streams<W: DataWord>(
        packets: &[Vec<W>],
        values_per_flit: usize,
        grid_rows: usize,
    ) -> StreamComparison {
        compare_windowed(
            packets,
            &window_of_one(values_per_flit),
            Comparison::Consecutive,
            grid_rows,
        )
    }

    fn window_of_one(values_per_flit: usize) -> WindowConfig {
        WindowConfig {
            values_per_flit,
            window_packets: 1,
            placement: Placement::RoundRobin,
            tiebreak: TieBreak::Stable,
        }
    }

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
        assert!((stats.one_probability().iter().sum::<f64>() - 4.0).abs() < 1e-12);
        let mut hist = PopcountHistogram::new(8);
        for &w in &words {
            hist.observe(w);
        }
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
            let base = build_stream_slab(&packets, &config, false);
            let ord = build_stream_slab(&packets, &config, true);
            assert_eq!(base.len(), ord.len(), "{placement:?}");
            // Same value multiset: total popcount is invariant.
            let pc = |slab: &FlitSlab| -> u32 {
                (0..slab.len())
                    .flat_map(|f| slab.flit(f))
                    .map(|w| w.count_ones())
                    .sum()
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
        let slab = build_stream_slab(&packets, &config, true);
        let mut prev = u32::MAX;
        for f in 0..slab.len() {
            for s in 0..8u32 {
                let pc = row_field(slab.flit(f), s * 8, 8).count_ones();
                assert!(pc <= prev, "global descending order violated");
                prev = pc;
            }
        }
    }

    #[test]
    fn each_empty_packet_adds_one_ordered_flit() {
        // The baseline sends no flit for an empty packet; the ordered
        // stream keeps its all-padding flit, so the random pairs of the
        // two streams are drawn over different index ranges.
        let mut packets = random_packets(20, 25, 9);
        for i in [0, 7, 8, 19] {
            packets[i].clear();
        }
        for window_packets in [1, 8, 64] {
            let config = WindowConfig {
                window_packets,
                ..WindowConfig::table1()
            };
            let base = build_stream_slab(&packets, &config, false);
            let ord = build_stream_slab(&packets, &config, true);
            assert_eq!(base.len(), 16 * 4, "window {window_packets}");
            assert_eq!(ord.len(), base.len() + 4, "window {window_packets}");
            let cmp = compare_windowed(&packets, &config, Comparison::Consecutive, 0);
            assert_eq!(cmp.ordered.flits, cmp.baseline.flits + 4);
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
