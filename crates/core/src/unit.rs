//! Behavioral model of the hardware ordering unit (Fig. 14).
//!
//! The paper's unit combines a SWAR pop-count stage with a bubble-sort
//! network; "the choice of sorting algorithms (Bubble Sort / Bitonic Sort /
//! Merge Sort) to achieve the ordering is not discussed" (Sec. III-B), so
//! this model supports several sorting networks and reports their
//! compare-exchange and stage counts for the area/latency ablation in
//! `btr-hw`.
//!
//! The model is *behavioral*: it performs the same (popcount, payload)
//! compare-exchange operations a hardware network would, counts them, and
//! produces the sorted value sequence. Tests assert the result's popcount
//! sequence is exactly the one [`crate::ordering::descending_popcount_order`]
//! produces (sorting networks are not stable, so tie-breaking may differ,
//! but the popcount sequence — the only thing BT depends on — matches).

use btr_bits::word::DataWord;

/// Sorting network used by the ordering unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SorterKind {
    /// Odd-even transposition network (the hardware-friendly "bubble sort"
    /// of Fig. 14): `n` stages of alternating odd/even compare-exchanges.
    Bubble,
    /// Batcher bitonic network: `O(log² n)` stages, requires padding to a
    /// power of two (the model pads with popcount-(-1) sentinels).
    Bitonic,
    /// Batcher odd-even merge network ("merge sort" in hardware form).
    OddEvenMerge,
}

impl SorterKind {
    /// All supported networks.
    pub const ALL: [SorterKind; 3] = [
        SorterKind::Bubble,
        SorterKind::Bitonic,
        SorterKind::OddEvenMerge,
    ];

    /// Display name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            SorterKind::Bubble => "bubble (odd-even transposition)",
            SorterKind::Bitonic => "bitonic",
            SorterKind::OddEvenMerge => "odd-even merge",
        }
    }
}

/// Cost report of one ordering operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitReport {
    /// Number of compare-exchange operations executed.
    pub compare_exchanges: u64,
    /// Number of network stages (one stage = one pipeline cycle; compare-
    /// exchanges within a stage are parallel in hardware).
    pub stages: u32,
    /// Popcount-tree stages that ran before sorting (`log2` of word width).
    pub popcount_stages: u32,
    /// Total cycles assuming one cycle per popcount stage and per sort
    /// stage — the latency the layer-level interval must hide (Sec. IV-C).
    pub cycles: u32,
}

/// Behavioral ordering unit: pop-count + sorting network.
///
/// One unit sits next to each memory controller ("near off-chip memory
/// placement", Sec. IV-C-2); `btr-accel` instantiates one per MC.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
// btr-lint: allow(test-only-pub, reason = "the behavioral hardware model tests/properties.rs sorter_networks_agree compares with the software sort")
pub struct OrderingUnit {
    sorter: SorterKind,
}

impl OrderingUnit {
    /// Creates a unit using the given sorting network.
    #[must_use]
    pub fn new(sorter: SorterKind) -> Self {
        Self { sorter }
    }

    /// The unit the paper synthesizes (bubble sort, Fig. 14).
    #[must_use]
    pub fn paper_default() -> Self {
        Self::new(SorterKind::Bubble)
    }

    /// The sorting network in use.
    #[must_use]
    pub fn sorter(&self) -> SorterKind {
        self.sorter
    }

    /// Sorts `values` by descending popcount, returning the sorted sequence
    /// and the hardware cost report.
    ///
    /// Affiliated-ordering runs the unit once over the weights (inputs
    /// follow); separated-ordering runs it twice ("this unit can be used for
    /// separated-ordering with double time consumption", Sec. V-C).
    #[must_use]
    // btr-lint: allow(test-only-pub, reason = "the sorting-network oracle tests/properties.rs sorter_networks_agree compares against")
    pub fn sort_descending<W: DataWord>(&self, values: &[W]) -> (Vec<W>, UnitReport) {
        // Popcount stage: one SWAR tree per lane, log2(width) levels.
        let popcount_stages = W::WIDTH.next_power_of_two().trailing_zeros();
        let mut keyed: Vec<(i64, W)> = values
            .iter()
            .map(|&w| (i64::from(w.popcount()), w))
            .collect();
        let (compare_exchanges, stages) = match self.sorter {
            SorterKind::Bubble => odd_even_transposition(&mut keyed),
            SorterKind::Bitonic => bitonic(&mut keyed),
            SorterKind::OddEvenMerge => odd_even_merge(&mut keyed),
        };
        let sorted = keyed.into_iter().map(|(_, w)| w).collect();
        let report = UnitReport {
            compare_exchanges,
            stages,
            popcount_stages,
            cycles: popcount_stages + stages,
        };
        (sorted, report)
    }
}

impl Default for OrderingUnit {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Compare-exchange: keeps the larger key first (descending order).
fn compare_exchange<W>(data: &mut [(i64, W)], i: usize, j: usize)
where
    W: Copy,
{
    if data[i].0 < data[j].0 {
        data.swap(i, j);
    }
}

/// Odd-even transposition sort: `n` alternating stages.
fn odd_even_transposition<W: Copy>(data: &mut [(i64, W)]) -> (u64, u32) {
    let n = data.len();
    if n < 2 {
        return (0, 0);
    }
    let mut ce = 0u64;
    for stage in 0..n {
        let start = stage % 2;
        let mut i = start;
        while i + 1 < n {
            compare_exchange(data, i, i + 1);
            ce += 1;
            i += 2;
        }
    }
    (ce, n as u32)
}

/// Batcher bitonic sorting network. Pads to a power of two with sentinels
/// of key −1 (they sink to the end and are removed).
fn bitonic<W: Copy>(data: &mut [(i64, W)]) -> (u64, u32) {
    let n = data.len();
    if n < 2 {
        return (0, 0);
    }
    let padded = n.next_power_of_two();
    let sentinel_payload = data[0].1;
    let mut buf: Vec<(i64, W)> = data.to_vec();
    buf.resize(padded, (-1, sentinel_payload));

    let mut ce = 0u64;
    let mut stages = 0u32;
    let mut k = 2;
    while k <= padded {
        let mut j = k / 2;
        while j >= 1 {
            stages += 1;
            for i in 0..padded {
                let partner = i ^ j;
                if partner > i {
                    // Descending overall: the "ascending" blocks of the
                    // classic network are flipped.
                    let descending = (i & k) == 0;
                    if descending {
                        if buf[i].0 < buf[partner].0 {
                            buf.swap(i, partner);
                        }
                    } else if buf[i].0 > buf[partner].0 {
                        buf.swap(i, partner);
                    }
                    ce += 1;
                }
            }
            j /= 2;
        }
        k *= 2;
    }
    data.copy_from_slice(&buf[..n]);
    (ce, stages)
}

/// Batcher odd-even merge sorting network (recursive construction),
/// operating on a power-of-two padded buffer like [`bitonic`].
fn odd_even_merge<W: Copy>(data: &mut [(i64, W)]) -> (u64, u32) {
    let n = data.len();
    if n < 2 {
        return (0, 0);
    }
    let padded = n.next_power_of_two();
    let sentinel_payload = data[0].1;
    let mut buf: Vec<(i64, W)> = data.to_vec();
    buf.resize(padded, (-1, sentinel_payload));

    // Collect the network as (stage, i, j) compare pairs, then execute
    // stage by stage to count pipeline depth.
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    build_oem(&mut pairs, 0, padded);

    // Assign each comparator the earliest stage after both its operands'
    // previous comparators (ASAP scheduling), the standard way to count a
    // network's depth.
    let mut ready = vec![0u32; padded];
    let mut ce = 0u64;
    let mut depth = 0u32;
    for &(i, j) in &pairs {
        let stage = ready[i].max(ready[j]);
        if buf[i].0 < buf[j].0 {
            buf.swap(i, j);
        }
        ce += 1;
        ready[i] = stage + 1;
        ready[j] = stage + 1;
        depth = depth.max(stage + 1);
    }
    data.copy_from_slice(&buf[..n]);
    (ce, depth)
}

/// Emits Batcher odd-even mergesort comparator pairs for `buf[lo..lo+n)`.
fn build_oem(pairs: &mut Vec<(usize, usize)>, lo: usize, n: usize) {
    if n <= 1 {
        return;
    }
    let m = n / 2;
    build_oem(pairs, lo, m);
    build_oem(pairs, lo + m, m);
    build_oem_merge(pairs, lo, n, 1);
}

fn build_oem_merge(pairs: &mut Vec<(usize, usize)>, lo: usize, n: usize, r: usize) {
    let m = r * 2;
    if m < n {
        build_oem_merge(pairs, lo, n, m);
        build_oem_merge(pairs, lo + r, n, m);
        let mut i = lo + r;
        while i + r < lo + n {
            pairs.push((i, i + r));
            i += m;
        }
    } else {
        pairs.push((lo, lo + r));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ordering::descending_popcount_order;
    use btr_bits::word::Fx8Word;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_words(n: usize, seed: u64) -> Vec<Fx8Word> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| Fx8Word::new(rng.gen())).collect()
    }

    fn popcounts(words: &[Fx8Word]) -> Vec<u32> {
        words.iter().map(|w| w.popcount()).collect()
    }

    #[test]
    fn all_sorters_produce_descending_popcounts() {
        for kind in SorterKind::ALL {
            let unit = OrderingUnit::new(kind);
            for n in [0usize, 1, 2, 3, 7, 8, 16, 25, 33] {
                let words = random_words(n, 7 + n as u64);
                let (sorted, _) = unit.sort_descending(&words);
                assert_eq!(sorted.len(), n);
                let pcs = popcounts(&sorted);
                assert!(
                    pcs.windows(2).all(|w| w[0] >= w[1]),
                    "{kind:?} n={n}: {pcs:?}"
                );
            }
        }
    }

    #[test]
    fn sorters_match_reference_popcount_sequence() {
        for kind in SorterKind::ALL {
            let unit = OrderingUnit::new(kind);
            let words = random_words(25, 99);
            let (sorted, _) = unit.sort_descending(&words);
            let reference: Vec<u32> = descending_popcount_order(&words)
                .iter()
                .map(|&i| words[i].popcount())
                .collect();
            assert_eq!(popcounts(&sorted), reference, "{kind:?}");
        }
    }

    #[test]
    fn sorters_preserve_multiset() {
        for kind in SorterKind::ALL {
            let unit = OrderingUnit::new(kind);
            let words = random_words(16, 3);
            let (sorted, _) = unit.sort_descending(&words);
            let mut a: Vec<i8> = words.iter().map(|w| w.code()).collect();
            let mut b: Vec<i8> = sorted.iter().map(|w| w.code()).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "{kind:?}");
        }
    }

    #[test]
    fn bubble_cost_model() {
        let unit = OrderingUnit::new(SorterKind::Bubble);
        let words = random_words(16, 1);
        let (_, report) = unit.sort_descending(&words);
        // Odd-even transposition on 16 lanes: 16 stages, 8+7 alternating
        // comparators -> 8*8 + 8*7 = 120 compare-exchanges.
        assert_eq!(report.stages, 16);
        assert_eq!(report.compare_exchanges, 120);
        assert_eq!(report.popcount_stages, 3); // 8-bit words
        assert_eq!(report.cycles, 19);
    }

    #[test]
    fn bitonic_is_shallower_than_bubble_for_16() {
        let words = random_words(16, 2);
        let (_, bubble) = OrderingUnit::new(SorterKind::Bubble).sort_descending(&words);
        let (_, bitonic) = OrderingUnit::new(SorterKind::Bitonic).sort_descending(&words);
        // log2(16) * (log2(16)+1) / 2 = 10 stages vs 16.
        assert_eq!(bitonic.stages, 10);
        assert!(bitonic.stages < bubble.stages);
    }

    #[test]
    fn oem_has_fewer_comparators_than_bitonic() {
        let words = random_words(32, 5);
        let (_, bit) = OrderingUnit::new(SorterKind::Bitonic).sort_descending(&words);
        let (_, oem) = OrderingUnit::new(SorterKind::OddEvenMerge).sort_descending(&words);
        assert!(oem.compare_exchanges < bit.compare_exchanges);
    }

    #[test]
    fn trivial_inputs_cost_nothing() {
        let unit = OrderingUnit::paper_default();
        let (s, r) = unit.sort_descending::<Fx8Word>(&[]);
        assert!(s.is_empty());
        assert_eq!(r.compare_exchanges, 0);
        assert_eq!(r.stages, 0);
        let one = [Fx8Word::new(5)];
        let (s, r) = unit.sort_descending(&one);
        assert_eq!(s.len(), 1);
        assert_eq!(r.stages, 0);
    }

    #[test]
    fn default_is_paper_default() {
        assert_eq!(OrderingUnit::default().sorter(), SorterKind::Bubble);
        assert!(SorterKind::Bubble.name().contains("bubble"));
    }
}
