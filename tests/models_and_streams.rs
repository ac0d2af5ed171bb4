//! Integration tests across the stream harness, hardware models, and the
//! bus-invert / delta-XOR link-codec baselines.

use noc_btr::bits::transition::stream_transitions;
use noc_btr::bits::word::Fx8Word;
use noc_btr::core::codec::CodecKind;
use noc_btr::core::stream::{
    build_stream_flits, build_stream_slab, compare_windowed, measure_flits, Comparison, Placement,
    TieBreak, WindowConfig,
};
use noc_btr::hw::area::{OrderingUnitDesign, RouterDesign, SorterNetwork, Technology};
use noc_btr::hw::link_energy::LinkPowerModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn trained_like_packets(count: usize, seed: u64) -> Vec<Vec<Fx8Word>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            (0..25)
                .map(|_| {
                    let mag = (rng.gen_range(0.0f32..1.0).powi(3) * 30.0) as i8;
                    Fx8Word::new(if rng.gen_bool(0.5) { mag } else { -mag })
                })
                .collect()
        })
        .collect()
}

#[test]
fn table1_pipeline_reduces_bt_under_both_comparison_modes() {
    let packets = trained_like_packets(300, 1);
    let config = WindowConfig::table1();
    for comparison in [
        Comparison::Consecutive,
        Comparison::RandomPairs {
            pairs: 5_000,
            seed: 2,
        },
    ] {
        let cmp = compare_windowed(&packets, &config, comparison, 0);
        assert!(
            cmp.reduction_rate > 0.10,
            "{comparison:?}: got {}",
            cmp.reduction_rate
        );
        assert_eq!(cmp.baseline.flits, cmp.ordered.flits);
    }
}

#[test]
fn value_tiebreak_dominates_stable_on_concentrated_data() {
    let packets = trained_like_packets(300, 3);
    let comparison = Comparison::Consecutive;
    let stable = compare_windowed(&packets, &WindowConfig::table1(), comparison, 0);
    let value = compare_windowed(
        &packets,
        &WindowConfig {
            tiebreak: TieBreak::Value,
            ..WindowConfig::table1()
        },
        comparison,
        0,
    );
    assert!(
        value.reduction_rate > stable.reduction_rate,
        "value {} vs stable {}",
        value.reduction_rate,
        stable.reduction_rate
    );
}

#[test]
fn ordering_composes_with_bus_invert() {
    let packets = trained_like_packets(200, 4);
    let config = WindowConfig::table1();
    let baseline = build_stream_slab(&packets, &config, false);
    let mut ordered = build_stream_slab(&packets, &config, true);
    let raw = baseline.lagged_transitions(1);
    let ord = ordered.lagged_transitions(1);
    // The invert line is the wire's top bit: data plus control toggles,
    // summed between consecutive wires of the run.
    let mut lane = CodecKind::BusInvert.seed_state(ordered.width());
    ordered.widen(lane.wire_width());
    let mut wire = vec![0; ordered.words_per_flit()];
    let (_, ord_bi, _) = lane.encode_rows_onto(&ordered, &mut wire).unwrap();
    assert!(ord < raw);
    // Bus-invert on top never hurts by more than its invert-line cost.
    assert!(ord_bi <= ord + ordered.len() as u64);
}

#[test]
fn delta_encoding_roundtrips_ordered_streams() {
    let packets = trained_like_packets(50, 5);
    let config = WindowConfig {
        placement: Placement::RowMajor,
        ..WindowConfig::table1()
    };
    let ordered = build_stream_slab(&packets, &config, true);
    let mut tx = CodecKind::DeltaXor.seed_state(ordered.width());
    let mut rx = CodecKind::DeltaXor.seed_state(ordered.width());
    let (mut wire, mut plain) = (
        vec![0; ordered.words_per_flit()],
        vec![0; ordered.words_per_flit()],
    );
    for i in 0..ordered.len() {
        tx.encode_row_onto(ordered.flit(i), &mut wire);
        rx.decode_row(&wire, &mut plain);
        assert_eq!(plain, ordered.flit(i), "flit {i}");
    }
}

#[test]
fn measure_flits_consecutive_matches_unencoded_count() {
    let packets = trained_like_packets(80, 6);
    let config = WindowConfig::table1();
    let flits = build_stream_flits(&packets, &config, true);
    let report = measure_flits::<Fx8Word>(&flits, 8, Comparison::Consecutive, 0);
    assert_eq!(report.transitions, stream_transitions(&flits));
}

#[test]
fn hardware_model_scales_sanely_across_design_space() {
    let tech = Technology::tsmc90();
    let mut prev_area = 0.0;
    for values in [8usize, 16, 32, 64] {
        let unit = OrderingUnitDesign {
            values,
            ..OrderingUnitDesign::paper_default()
        };
        let area = unit.area_kge(&tech);
        assert!(area > prev_area, "area must grow with sorter width");
        prev_area = area;
        // Power density stays equal to the calibrated design point's.
        let power = unit.power_mw(&tech, 125.0);
        assert!((power / area - 2.213 / 12.91).abs() < 1e-9);
    }
    // A wider-link router costs more than the paper's 128-bit one.
    let wide = RouterDesign {
        link_width_bits: 512,
        ..RouterDesign::paper_default()
    };
    assert!(wide.area_kge(&tech) > RouterDesign::paper_default().area_kge(&tech));
}

#[test]
fn bitonic_unit_trades_area_for_latency() {
    let tech = Technology::tsmc90();
    let bubble = OrderingUnitDesign::paper_default();
    let bitonic = OrderingUnitDesign {
        sorter: SorterNetwork::Bitonic,
        ..bubble
    };
    assert!(bitonic.area_kge(&tech) > bubble.area_kge(&tech));
    assert!(bitonic.latency_cycles() < bubble.latency_cycles());
}

#[test]
fn link_energy_converts_simulated_bts() {
    // A simulated BT total converts to energy linearly and the paper /
    // Banerjee models keep their 0.173 : 0.532 ratio.
    let ours = LinkPowerModel::paper().energy_mj(123_456_789);
    let banerjee = LinkPowerModel::banerjee().energy_mj(123_456_789);
    assert!((banerjee / ours - 0.532 / 0.173).abs() < 1e-9);
}
