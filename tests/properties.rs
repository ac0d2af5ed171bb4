//! Property-based tests (proptest) over the core invariants.

use noc_btr::bits::transition::stream_transitions;
use noc_btr::bits::word::{DataWord, F32Word, Fx8Word};
use noc_btr::bits::{PayloadBits, Quantizer};
use noc_btr::core::flitize::{flitize_values, order_task_with};
use noc_btr::core::ordering::{SortScratch, TieBreak};
use noc_btr::core::task::NeuronTask;
use noc_btr::core::theory::{
    brute_force_max_objective, expected_bt, optimal_two_flit_split, pair_product_objective,
};
use noc_btr::core::unit::{OrderingUnit, SorterKind};
use noc_btr::core::OrderingMethod;
use proptest::prelude::*;

proptest! {
    /// The paper's central claim (Sec. III-B): the descending interleaved
    /// split maximizes F = Σ xi·yi over all two-flit arrangements.
    /// Verified against exhaustive search on random small instances.
    #[test]
    fn descending_interleave_is_globally_optimal(
        pcs in prop::collection::vec(0u32..=32, 2..=12).prop_filter("even", |v| v.len() % 2 == 0)
    ) {
        let (xs, ys) = optimal_two_flit_split(&pcs);
        let ours = pair_product_objective(&xs, &ys);
        let best = brute_force_max_objective(&pcs);
        prop_assert_eq!(ours, best);
    }

    /// Eq. 3 decomposition: expected total BT = Σx + Σy − 2F/w.
    #[test]
    fn expected_bt_decomposition(
        xs in prop::collection::vec(0u32..=32, 1..=16),
        ys in prop::collection::vec(0u32..=32, 1..=16),
    ) {
        let n = xs.len().min(ys.len());
        let (xs, ys) = (&xs[..n], &ys[..n]);
        let total: f64 = xs.iter().zip(ys.iter()).map(|(&x, &y)| expected_bt(x, y, 32)).sum();
        let sums: f64 = xs.iter().chain(ys.iter()).map(|&v| f64::from(v)).sum();
        let f = pair_product_objective(xs, ys) as f64;
        prop_assert!((total - (sums - 2.0 * f / 32.0)).abs() < 1e-6);
    }

    /// Recovery is exact for every ordering method, any task size, and
    /// both through the in-memory path and the wire-decode path.
    #[test]
    fn task_recovery_is_exact(
        codes in prop::collection::vec(any::<i8>(), 1..=60),
        weights in prop::collection::vec(any::<i8>(), 1..=60),
        bias in any::<i8>(),
        method_idx in 0usize..3,
        vpf_half in 1usize..=8,
    ) {
        let n = codes.len().min(weights.len());
        let inputs: Vec<Fx8Word> = codes[..n].iter().map(|&c| Fx8Word::new(c)).collect();
        let ws: Vec<Fx8Word> = weights[..n].iter().map(|&c| Fx8Word::new(c)).collect();
        let task = NeuronTask::new(inputs, ws, Fx8Word::new(bias)).unwrap();
        let method = OrderingMethod::ALL[method_idx];
        let vpf = vpf_half * 2;
        let sent = order_task_with(&task, method, vpf, TieBreak::Stable).unwrap();
        // In-memory recovery.
        prop_assert_eq!(sent.recover().unwrap().mac_i64(), task.mac_i64());
        // Wire-level decode recovery.
        let decoded = noc_btr::core::flitize::OrderedTask::<Fx8Word>::from_payload_flits(
            method,
            n,
            vpf,
            sent.pair_index().map(<[u16]>::to_vec),
            &sent.payload_flits(),
        ).unwrap();
        prop_assert_eq!(decoded.recover().unwrap().mac_i64(), task.mac_i64());
    }

    /// Ordering preserves the value multiset of the stream: total popcount
    /// over all flits is invariant.
    #[test]
    fn flitize_preserves_total_popcount(
        codes in prop::collection::vec(any::<i8>(), 1..=100),
        vpf in 1usize..=16,
    ) {
        let words: Vec<Fx8Word> = codes.iter().map(|&c| Fx8Word::new(c)).collect();
        let base = flitize_values(&words, vpf, false);
        let ordered = flitize_values(&words, vpf, true);
        let pc = |flits: &[PayloadBits]| -> u64 {
            flits.iter().map(|f| u64::from(f.popcount())).sum()
        };
        prop_assert_eq!(base.len(), ordered.len());
        prop_assert_eq!(pc(&base), pc(&ordered));
    }

    /// Every sorting network produces the same descending popcount
    /// sequence as the reference sort.
    #[test]
    fn sorter_networks_agree(
        codes in prop::collection::vec(any::<i8>(), 0..=40),
        kind_idx in 0usize..3,
    ) {
        let words: Vec<Fx8Word> = codes.iter().map(|&c| Fx8Word::new(c)).collect();
        let unit = OrderingUnit::new(SorterKind::ALL[kind_idx]);
        let (sorted, _) = unit.sort_descending(&words);
        let pcs: Vec<u32> = sorted.iter().map(|w| w.popcount()).collect();
        let mut expect: Vec<u32> = words.iter().map(|w| w.popcount()).collect();
        expect.sort_unstable_by(|a, b| b.cmp(a));
        prop_assert_eq!(pcs, expect);
    }

    /// Hamming distance on payloads is a metric: symmetric, zero iff
    /// equal-on-width, and triangle inequality holds.
    #[test]
    fn transitions_form_a_metric(
        a in any::<u64>(), b in any::<u64>(), c in any::<u64>(),
    ) {
        let p = |bits: u64| -> PayloadBits {
            let mut p = PayloadBits::zero(64);
            p.set_field(0, 64, bits);
            p
        };
        let (pa, pb, pc_) = (p(a), p(b), p(c));
        prop_assert_eq!(pa.transitions_to(&pb), pb.transitions_to(&pa));
        prop_assert_eq!(pa.transitions_to(&pa), 0);
        prop_assert!(pa.transitions_to(&pc_) <= pa.transitions_to(&pb) + pb.transitions_to(&pc_));
    }

    /// Quantize/dequantize error is bounded by half a quantization step.
    #[test]
    fn quantization_error_bound(
        values in prop::collection::vec(-10.0f32..10.0, 1..50),
        scale in 0.1f32..20.0,
    ) {
        let q = Quantizer::new(scale, 8).unwrap();
        for &x in &values {
            let clamped = x.clamp(-scale, scale);
            let back = q.dequantize_i32(q.quantize_i32(x));
            prop_assert!((back - clamped).abs() <= q.max_abs_error() + 1e-5,
                "x={x} back={back} err bound={}", q.max_abs_error());
        }
    }

    /// Affiliated ordering of a float task never changes the MAC result
    /// beyond floating-point reassociation noise (Fig. 5's order
    /// invariance).
    #[test]
    fn f32_order_invariance(
        raw in prop::collection::vec((-100.0f32..100.0, -100.0f32..100.0), 1..=40),
    ) {
        let inputs: Vec<F32Word> = raw.iter().map(|&(i, _)| F32Word::new(i)).collect();
        let weights: Vec<F32Word> = raw.iter().map(|&(_, w)| F32Word::new(w)).collect();
        let task = NeuronTask::new(inputs, weights, F32Word::new(1.0)).unwrap();
        let sent = order_task_with(&task, OrderingMethod::Affiliated, 8, TieBreak::Stable).unwrap();
        let rec = sent.recover().unwrap();
        let reference = task.mac_f64();
        prop_assert!((rec.mac_f64() - reference).abs() < 1e-3 * (1.0 + reference.abs()));
    }

    /// Words survive the payload container bit-exactly at any lane.
    #[test]
    fn payload_lane_roundtrip(
        bits in any::<u32>(),
        lane in 0u32..16,
    ) {
        let mut p = PayloadBits::zero(512);
        p.set_field(lane * 32, 32, u64::from(bits));
        prop_assert_eq!(p.field(lane * 32, 32), u64::from(bits));
        let w = F32Word::from_bits_u64(p.field(lane * 32, 32));
        prop_assert_eq!(w.bits_u64(), u64::from(bits));
    }

    /// The counting-sort ordering kernel produces the *identical*
    /// permutation as the preserved comparison sort for both tie rules —
    /// on 8-bit words (many popcount collisions by construction) and on
    /// 32-bit float images.
    #[test]
    fn counting_sort_matches_comparison_sort(
        codes in prop::collection::vec(any::<i8>(), 0..=100),
        floats in prop::collection::vec(-100.0f32..100.0, 0..=100),
        tie_idx in 0usize..2,
    ) {
        let tie = [TieBreak::Stable, TieBreak::Value][tie_idx];
        let mut scratch = SortScratch::default();
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        let words: Vec<Fx8Word> = codes.iter().map(|&c| Fx8Word::new(c)).collect();
        tie.descending_order_into(&words, &mut scratch, &mut fast);
        tie.descending_order_comparison_into(&words, &mut scratch, &mut slow);
        prop_assert_eq!(&fast, &slow);
        let words: Vec<F32Word> = floats.iter().map(|&f| F32Word::new(f)).collect();
        tie.descending_order_into(&words, &mut scratch, &mut fast);
        tie.descending_order_comparison_into(&words, &mut scratch, &mut slow);
        prop_assert_eq!(&fast, &slow);
    }

    /// Same equivalence under adversarial tie pressure: values drawn from
    /// a two-element alphabet, so nearly every pair collides on popcount
    /// (and most collide on the raw code too). This is where an unstable
    /// or mis-ranked bucket pass would diverge from the oracle.
    #[test]
    fn counting_sort_matches_comparison_sort_under_heavy_ties(
        picks in prop::collection::vec(any::<bool>(), 0..=200),
        a in any::<i8>(),
        b in any::<i8>(),
        tie_idx in 0usize..2,
    ) {
        let tie = [TieBreak::Stable, TieBreak::Value][tie_idx];
        let words: Vec<Fx8Word> = picks
            .iter()
            .map(|&p| Fx8Word::new(if p { a } else { b }))
            .collect();
        let mut scratch = SortScratch::default();
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        tie.descending_order_into(&words, &mut scratch, &mut fast);
        tie.descending_order_comparison_into(&words, &mut scratch, &mut slow);
        prop_assert_eq!(fast, slow);
    }

    /// A sorted stream never has more consecutive transitions than the
    /// worst permutation bound (total popcount times two).
    #[test]
    fn stream_transitions_sanity(
        codes in prop::collection::vec(any::<i8>(), 2..=64),
    ) {
        let words: Vec<Fx8Word> = codes.iter().map(|&c| Fx8Word::new(c)).collect();
        let flits = flitize_values(&words, 4, true);
        let total = stream_transitions(&flits);
        let popcount_sum: u64 = words.iter().map(|w| u64::from(w.popcount())).sum();
        prop_assert!(total <= 2 * popcount_sum);
    }
}
