//! The ordering rule: descending popcount sort + round-robin placement.
//!
//! Sec. IV of the paper defines three evaluation configurations:
//!
//! * **O0 — baseline**: values are transmitted in their natural (memory)
//!   order;
//! * **O1 — affiliated-ordering**: *(weight, input)* pairs are placed
//!   according to the descending `'1'`-bit count of the **weights**; inputs
//!   stay affiliated with their weights, so no de-ordering is needed
//!   (convolution/linear layers are order-invariant over paired operands);
//! * **O2 — separated-ordering**: weights and inputs are each placed
//!   according to their **own** descending `'1'`-bit counts; a
//!   minimal-bit-width index re-pairs them at the receiver.
//!
//! Placement follows Fig. 3: after sorting descending by popcount, value of
//! rank `r` goes to flit `r mod k` (round-robin over the packet's `k`
//! flits), so each link wire sees adjacent-rank — hence similar-popcount —
//! values on consecutive flits. For `k = 2` this is exactly the proven
//! optimal interleave `x1 ≥ y1 ≥ x2 ≥ y2 ≥ …` of Sec. III.

use btr_bits::word::DataWord;

/// The three data-transmission configurations evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderingMethod {
    /// O0 — no ordering; values keep their natural order.
    Baseline,
    /// O1 — affiliated-ordering: pairs follow the weights' popcount order.
    Affiliated,
    /// O2 — separated-ordering: weights and inputs ordered independently.
    Separated,
}

impl OrderingMethod {
    /// All three methods in the order the paper reports them.
    pub const ALL: [OrderingMethod; 3] = [
        OrderingMethod::Baseline,
        OrderingMethod::Affiliated,
        OrderingMethod::Separated,
    ];

    /// The paper's shorthand label (O0 / O1 / O2).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            OrderingMethod::Baseline => "O0",
            OrderingMethod::Affiliated => "O1",
            OrderingMethod::Separated => "O2",
        }
    }

    /// Long descriptive name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            OrderingMethod::Baseline => "baseline",
            OrderingMethod::Affiliated => "affiliated-ordering",
            OrderingMethod::Separated => "separated-ordering",
        }
    }
}

impl std::fmt::Display for OrderingMethod {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} ({})", self.label(), self.name())
    }
}

impl std::str::FromStr for OrderingMethod {
    type Err = String;

    /// Parses the paper's shorthand (`"O0"`/`"O1"`/`"O2"`, case
    /// insensitive) or the long names.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "o0" | "baseline" => Ok(OrderingMethod::Baseline),
            "o1" | "affiliated" | "affiliated-ordering" => Ok(OrderingMethod::Affiliated),
            "o2" | "separated" | "separated-ordering" => Ok(OrderingMethod::Separated),
            other => Err(format!(
                "unknown ordering {other:?}; use O0|O1|O2 or baseline|affiliated|separated"
            )),
        }
    }
}

/// Tie handling among equal-popcount values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TieBreak {
    /// Keep the original relative order (popcount-only comparator, as in
    /// the hardware unit of Fig. 14).
    Stable,
    /// Sort equal-popcount values by their raw bit images, aligning
    /// identical/similar words (see [`descending_popcount_value_order`]).
    Value,
}

impl std::str::FromStr for TieBreak {
    type Err = String;

    /// Parses `"stable"` / `"value"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "stable" => Ok(TieBreak::Stable),
            "value" => Ok(TieBreak::Value),
            other => Err(format!("unknown tiebreak {other:?}; use stable|value")),
        }
    }
}

impl TieBreak {
    /// The descending permutation under this tie rule.
    #[must_use]
    pub fn descending_order<W: DataWord>(self, values: &[W]) -> Vec<usize> {
        match self {
            TieBreak::Stable => descending_popcount_order(values),
            TieBreak::Value => descending_popcount_value_order(values),
        }
    }

    /// [`TieBreak::descending_order`] into caller-owned buffers:
    /// `scratch` hosts the key/ping-pong arrays and `out` receives the
    /// permutation (cleared first), so hot paths (the accelerator's
    /// per-task encode stage) sort without allocating.
    ///
    /// This is the counting-sort ordering kernel: a `W`-bit word's
    /// popcount lies in `0..=W::WIDTH`, so the descending-popcount
    /// permutation falls out of `W::WIDTH + 1` buckets in O(n) — no
    /// comparator network (the paper's '1'-bit-count sorting-unit
    /// observation). The stable rule is a single stable bucket pass; the
    /// value rule runs a byte-wise LSD radix over the raw code first, so
    /// equal-popcount values still land in descending bit-image order.
    /// Both produce the *identical* permutation as
    /// [`TieBreak::descending_order_comparison_into`] (pinned by
    /// `tests/properties.rs`).
    pub fn descending_order_into<W: DataWord>(
        self,
        values: &[W],
        scratch: &mut SortScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let n = values.len();
        let w = W::WIDTH as usize;
        debug_assert!(w < POPCOUNT_BUCKETS, "word wider than the bucket table");
        match self {
            TieBreak::Stable => {
                // One stable counting pass over popcount buckets, emitted
                // high→low: ties keep their original (insertion) order.
                // Each popcount is computed once, into the scratch bytes
                // both passes read.
                let pops = &mut scratch.pops;
                pops.clear();
                pops.extend(values.iter().map(|v| v.popcount() as u8));
                let mut offsets = [0usize; POPCOUNT_BUCKETS];
                for &p in pops.iter() {
                    offsets[usize::from(p)] += 1;
                }
                descending_prefix_offsets(&mut offsets[..=w]);
                out.resize(n, 0);
                for (i, &p) in pops.iter().enumerate() {
                    let slot = &mut offsets[usize::from(p)];
                    out[*slot] = i;
                    *slot += 1;
                }
            }
            TieBreak::Value => {
                // LSD radix over the composite (popcount, bits) key:
                // byte digits of the raw code first, the popcount bucket
                // last (most significant). Every pass is a stable
                // descending counting sort, so the result is the stable
                // descending lexicographic (popcount, bits) order.
                let SortScratch { keys, swap, .. } = scratch;
                keys.clear();
                keys.extend(values.iter().enumerate().map(|(i, v)| SortKey {
                    popcount: v.popcount(),
                    bits: v.bits_u64(),
                    index: i as u32,
                }));
                swap.clear();
                swap.resize(n, SortKey::ZERO);
                let (mut src, mut dst) = (&mut *keys, &mut *swap);
                for pass in 0..W::WIDTH.div_ceil(8) {
                    let shift = 8 * pass;
                    radix_pass_descending(src, dst, 256, |k| ((k.bits >> shift) & 0xff) as usize);
                    std::mem::swap(&mut src, &mut dst);
                }
                radix_pass_descending(src, dst, w + 1, |k| k.popcount as usize);
                out.extend(dst.iter().map(|k| k.index as usize));
            }
        }
    }

    /// The pre-counting-sort implementation of
    /// [`TieBreak::descending_order_into`], preserved verbatim as the
    /// bit-exact oracle: one precomputed key
    /// per value, then a stable `sort_by_key` on
    /// `(Reverse(popcount), Reverse(bits))`. The counting-sort kernel must
    /// produce the identical permutation for every input and both tie
    /// rules; `tests/properties.rs` pins the equivalence and
    /// `bench_encode` measures the kernel against it.
    // btr-lint: allow(test-only-pub, reason = "the oracle tests/properties.rs counting_sort_matches_comparison_sort compares against")
    pub fn descending_order_comparison_into<W: DataWord>(
        self,
        values: &[W],
        scratch: &mut SortScratch,
        out: &mut Vec<usize>,
    ) {
        let keys = &mut scratch.keys;
        keys.clear();
        out.clear();
        // One key computation per value instead of one per comparison;
        // `bits` is zeroed for the stable rule so the (stable) sort
        // compares popcounts only and ties keep their original order.
        keys.extend(values.iter().enumerate().map(|(i, v)| SortKey {
            popcount: v.popcount(),
            bits: match self {
                TieBreak::Stable => 0,
                TieBreak::Value => v.bits_u64(),
            },
            index: i as u32,
        }));
        keys.sort_by_key(|k| (std::cmp::Reverse(k.popcount), std::cmp::Reverse(k.bits)));
        out.extend(keys.iter().map(|k| k.index as usize));
    }
}

/// One more than the widest supported popcount (64-bit words), sizing the
/// stack bucket tables of the counting-sort kernel.
const POPCOUNT_BUCKETS: usize = 65;

/// Converts per-bucket counts into start offsets for a **descending**
/// stable counting pass: bucket `len-1` first, bucket `0` last.
#[inline]
fn descending_prefix_offsets(counts: &mut [usize]) {
    let mut start = 0usize;
    for c in counts.iter_mut().rev() {
        let run = *c;
        *c = start;
        start += run;
    }
}

/// One stable counting-sort pass of the LSD radix, descending by `digit`
/// (`digit(k) < radix <= 256` for every key).
#[inline]
fn radix_pass_descending(
    src: &[SortKey],
    dst: &mut [SortKey],
    radix: usize,
    digit: impl Fn(&SortKey) -> usize,
) {
    debug_assert!(radix <= 256 && src.len() == dst.len());
    let mut offsets = [0usize; 256];
    for k in src {
        offsets[digit(k)] += 1;
    }
    descending_prefix_offsets(&mut offsets[..radix]);
    for k in src {
        let slot = &mut offsets[digit(k)];
        dst[*slot] = *k;
        *slot += 1;
    }
}

/// Reusable buffers of the ordering kernel: the precomputed keys plus the
/// LSD radix ping-pong array of the value rule, and the popcount bytes of
/// the stable rule. One instance per encode stage (via
/// `TransportScratch`) keeps the per-task sort allocation-free.
#[derive(Debug, Default)]
pub struct SortScratch {
    keys: Vec<SortKey>,
    swap: Vec<SortKey>,
    /// Per-value popcounts of the stable rule's counting pass.
    pops: Vec<u8>,
}

/// Precomputed comparison key of one value: popcount, (optional) raw bit
/// image, and the original index the permutation reports.
#[derive(Debug, Clone, Copy)]
pub struct SortKey {
    popcount: u32,
    bits: u64,
    index: u32,
}

impl SortKey {
    const ZERO: SortKey = SortKey {
        popcount: 0,
        bits: 0,
        index: 0,
    };
}

/// Returns the permutation that sorts `values` by **descending** popcount.
///
/// `perm[rank] = original index`; the sort is stable (ties keep their
/// original relative order) so the transformation is deterministic. Keys
/// are computed once per value, not once per comparison.
#[must_use]
pub fn descending_popcount_order<W: DataWord>(values: &[W]) -> Vec<usize> {
    let mut perm = Vec::new();
    TieBreak::Stable.descending_order_into(values, &mut SortScratch::default(), &mut perm);
    perm
}

/// Descending popcount order with **raw-bit-image tiebreak**: values with
/// equal `'1'` counts are further sorted by their bit patterns
/// (descending), so identical and structurally similar words become
/// adjacent ranks.
///
/// The paper's comparator sorts on the popcount key alone and leaves tie
/// order unspecified; breaking ties by value costs nothing in software and
/// a wider comparator in hardware, and is what makes the reported
/// reduction magnitudes reachable on real weight data (equal-popcount
/// groups of small fixed-point codes contain many identical values; see
/// EXPERIMENTS.md).
#[must_use]
pub fn descending_popcount_value_order<W: DataWord>(values: &[W]) -> Vec<usize> {
    let mut perm = Vec::new();
    TieBreak::Value.descending_order_into(values, &mut SortScratch::default(), &mut perm);
    perm
}

/// Ascending variant, used as an ablation point. The theory predicts it is
/// exactly as good as descending *within* a packet (reversing a sequence
/// preserves adjacent-rank distances) but behaves differently at packet
/// boundaries.
#[must_use]
// btr-lint: allow(test-only-pub, reason = "an ablation row of examples/ordering_lab.rs, whose output tests/golden/ordering_lab.txt pins")
pub fn ascending_popcount_order<W: DataWord>(values: &[W]) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..values.len()).collect();
    perm.sort_by_key(|&i| values[i].popcount());
    perm
}

/// Greedy nearest-neighbor ordering (ablation): starting from the highest
/// popcount value, repeatedly append the unused value whose popcount is
/// closest to the previous one. A TSP-flavored heuristic that the paper's
/// sort provably dominates for the two-flit objective, included to probe
/// whether the simple sort leaves anything on the table in streams.
#[must_use]
// btr-lint: allow(test-only-pub, reason = "an ablation row of examples/ordering_lab.rs, whose output tests/golden/ordering_lab.txt pins")
pub fn greedy_nearest_order<W: DataWord>(values: &[W]) -> Vec<usize> {
    if values.is_empty() {
        return Vec::new();
    }
    let w = W::WIDTH as usize;
    // Popcount buckets in O(n): enumeration order keeps each bucket
    // ascending by original index, and the greedy rule only ever consumes
    // a bucket's smallest remaining index, so a front cursor per bucket
    // replaces the old O(n²) scan over the remaining set.
    let mut buckets: Vec<Vec<usize>> = vec![Vec::new(); w + 1];
    for (i, v) in values.iter().enumerate() {
        buckets[v.popcount() as usize].push(i);
    }
    let mut cursor = vec![0usize; w + 1];
    let remaining =
        |buckets: &[Vec<usize>], cursor: &[usize], pc: usize| cursor[pc] < buckets[pc].len();
    // Start from the maximum popcount (stable: first such index).
    let mut cur_pc = (0..=w)
        .rev()
        .find(|&pc| !buckets[pc].is_empty())
        .expect("non-empty");
    let mut order = Vec::with_capacity(values.len());
    order.push(buckets[cur_pc][0]);
    cursor[cur_pc] = 1;
    for _ in 1..values.len() {
        // Nearest non-exhausted popcount; an equal-distance tie between
        // the bucket below and above resolves to the smaller original
        // index (exactly the old `min_by_key` on `(distance, index)`).
        let pc = (0..=w)
            .find_map(|d| {
                let lower = cur_pc
                    .checked_sub(d)
                    .filter(|&pc| remaining(&buckets, &cursor, pc));
                let upper =
                    Some(cur_pc + d).filter(|&pc| pc <= w && remaining(&buckets, &cursor, pc));
                match (lower, upper) {
                    (Some(lo), Some(hi)) if lo != hi => {
                        Some(if buckets[lo][cursor[lo]] <= buckets[hi][cursor[hi]] {
                            lo
                        } else {
                            hi
                        })
                    }
                    (Some(pc), _) | (_, Some(pc)) => Some(pc),
                    (None, None) => None,
                }
            })
            .expect("some value remains");
        order.push(buckets[pc][cursor[pc]]);
        cursor[pc] += 1;
        cur_pc = pc;
    }
    order
}

/// Round-robin assignment of sorted ranks to flit slots.
///
/// `capacities[f]` is the number of occupied slots flit `f` has for this
/// value class (inputs or weights). Rank `r` is dealt to flits cyclically,
/// skipping full flits, and fills each flit's slots in increasing order.
/// Returns `assign[rank] = (flit, slot)`.
///
/// For equal capacities this reduces to `rank → (rank mod k, rank div k)`,
/// i.e. Fig. 3's column-major placement.
#[must_use]
pub fn round_robin_assignment(capacities: &[usize]) -> Vec<(usize, usize)> {
    let mut assign = Vec::new();
    round_robin_assignment_into(capacities, &mut assign);
    assign
}

/// [`round_robin_assignment`] into a caller-owned buffer (cleared first),
/// for allocation-free hot paths.
pub fn round_robin_assignment_into(capacities: &[usize], assign: &mut Vec<(usize, usize)>) {
    let total: usize = capacities.iter().sum();
    assign.clear();
    assign.reserve(total);
    let mut offset = 0usize;
    // Deal one slot per non-full flit per round until every slot is used;
    // `offset` is the round number (== slots already filled per flit).
    while assign.len() < total {
        let before = assign.len();
        for (f, &cap) in capacities.iter().enumerate() {
            if offset < cap {
                assign.push((f, offset));
            }
        }
        offset += 1;
        debug_assert!(assign.len() > before, "round-robin made no progress");
    }
}

/// Applies a rank permutation and a slot assignment to produce, for each
/// original value index, its destination `(flit, slot)`.
///
/// `perm[rank] = original index` (from [`descending_popcount_order`]);
/// `assign[rank] = (flit, slot)` (from [`round_robin_assignment`]).
///
/// # Panics
///
/// Panics if the two inputs have different lengths.
#[must_use]
pub fn placement_by_original_index(
    perm: &[usize],
    assign: &[(usize, usize)],
) -> Vec<(usize, usize)> {
    assert_eq!(perm.len(), assign.len(), "perm/assignment length mismatch");
    let mut dest = vec![(usize::MAX, usize::MAX); perm.len()];
    for (rank, &orig) in perm.iter().enumerate() {
        dest[orig] = assign[rank];
    }
    debug_assert!(dest.iter().all(|&(f, _)| f != usize::MAX));
    dest
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_bits::word::Fx8Word;

    fn words(codes: &[i8]) -> Vec<Fx8Word> {
        codes.iter().map(|&c| Fx8Word::new(c)).collect()
    }

    #[test]
    fn method_labels() {
        assert_eq!(OrderingMethod::Baseline.label(), "O0");
        assert_eq!(OrderingMethod::Affiliated.label(), "O1");
        assert_eq!(OrderingMethod::Separated.label(), "O2");
        assert_eq!(OrderingMethod::ALL.len(), 3);
        assert_eq!(
            OrderingMethod::Separated.to_string(),
            "O2 (separated-ordering)"
        );
    }

    #[test]
    fn descending_order_sorts_by_popcount() {
        // popcounts: 0 -> 0, -1 -> 8, 1 -> 1, 3 -> 2
        let v = words(&[0, -1, 1, 3]);
        let perm = descending_popcount_order(&v);
        assert_eq!(perm, vec![1, 3, 2, 0]);
        let pcs: Vec<u32> = perm.iter().map(|&i| v[i].popcount()).collect();
        assert!(pcs.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn descending_order_is_stable_on_ties() {
        // 1 and 2 both have popcount 1; original order preserved.
        let v = words(&[1, 2, 4]);
        let perm = descending_popcount_order(&v);
        assert_eq!(perm, vec![0, 1, 2]);
    }

    #[test]
    fn ascending_is_reverse_of_descending_without_ties() {
        let v = words(&[0, -1, 3, 7]); // popcounts 0, 8, 2, 3 (all distinct)
        let mut desc = descending_popcount_order(&v);
        desc.reverse();
        assert_eq!(ascending_popcount_order(&v), desc);
    }

    #[test]
    fn greedy_covers_all_indices() {
        let v = words(&[5, -1, 0, 127, 33, -128]);
        let order = greedy_nearest_order(&v);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..v.len()).collect::<Vec<_>>());
        // Starts from max popcount (-1 -> 8 ones).
        assert_eq!(order[0], 1);
    }

    #[test]
    fn greedy_empty() {
        let v: Vec<Fx8Word> = Vec::new();
        assert!(greedy_nearest_order(&v).is_empty());
    }

    #[test]
    fn round_robin_equal_capacities_is_column_major() {
        let assign = round_robin_assignment(&[2, 2, 2]);
        assert_eq!(assign, vec![(0, 0), (1, 0), (2, 0), (0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn round_robin_skips_full_flits() {
        // Fig. 2's occupancy for 25 weights over 4 flits: [8, 8, 8, 1].
        let assign = round_robin_assignment(&[3, 3, 3, 1]);
        assert_eq!(assign.len(), 10);
        // First round touches every flit; flit 3 is then full.
        assert_eq!(&assign[..4], &[(0, 0), (1, 0), (2, 0), (3, 0)]);
        assert_eq!(&assign[4..7], &[(0, 1), (1, 1), (2, 1)]);
        assert_eq!(&assign[7..], &[(0, 2), (1, 2), (2, 2)]);
    }

    #[test]
    fn round_robin_handles_zero_capacity_flits() {
        let assign = round_robin_assignment(&[0, 2, 0, 1]);
        assert_eq!(assign, vec![(1, 0), (3, 0), (1, 1)]);
    }

    #[test]
    fn round_robin_empty() {
        assert!(round_robin_assignment(&[]).is_empty());
        assert!(round_robin_assignment(&[0, 0]).is_empty());
    }

    #[test]
    fn placement_inverts_permutation() {
        let v = words(&[0, -1, 1]); // popcounts 0, 8, 1 -> perm [1, 2, 0]
        let perm = descending_popcount_order(&v);
        let assign = round_robin_assignment(&[2, 1]);
        let dest = placement_by_original_index(&perm, &assign);
        // original 1 (rank 0) -> (0,0); original 2 (rank 1) -> (1,0);
        // original 0 (rank 2) -> (0,1).
        assert_eq!(dest, vec![(0, 1), (0, 0), (1, 0)]);
    }

    #[test]
    fn column_popcounts_descend_after_round_robin() {
        // The physical property the ordering creates: at each wire column,
        // popcounts across consecutive flits never increase.
        let v = words(&[9, -1, 0, 77, -128, 31, 2, 60]);
        let perm = descending_popcount_order(&v);
        let k = 4; // 4 flits, 2 slots each
        let assign = round_robin_assignment(&[2; 4]);
        let mut grid = vec![vec![0u32; 2]; k];
        for (rank, &orig) in perm.iter().enumerate() {
            let (f, s) = assign[rank];
            grid[f][s] = v[orig].popcount();
        }
        for s in 0..2 {
            for f in 1..k {
                assert!(
                    grid[f - 1][s] >= grid[f][s],
                    "column {s} not descending: {:?}",
                    grid.iter().map(|r| r[s]).collect::<Vec<_>>()
                );
            }
        }
    }
}
