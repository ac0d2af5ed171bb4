//! Cross-crate integration tests: full DNN inference through the NoC
//! accelerator, verified against direct software execution.

use noc_btr::accel::config::AccelConfig;
use noc_btr::accel::driver::{run_inference_batch, AccelError};
use noc_btr::accel::report::BatchInferenceResult;
use noc_btr::bits::word::DataFormat;
use noc_btr::core::OrderingMethod;
use noc_btr::dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
use noc_btr::dnn::model::{InferenceOp, Layer, Sequential};
use noc_btr::dnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A compact conv net that exercises every op type the accelerator
/// handles while staying fast in debug builds.
fn small_net(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(1, 4, 3, 1, 1, &mut rng)),
        Layer::Activation(Activation::new(ActKind::ReLU)),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Conv2d(Conv2d::new(4, 6, 3, 1, 0, &mut rng)),
        Layer::Activation(Activation::new(ActKind::Tanh)),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(6 * 6 * 6, 10, &mut rng)),
    ])
}

/// One input through the batch entry point (`batch_size` 1).
fn infer_one(
    ops: &[InferenceOp],
    input: &Tensor,
    config: &AccelConfig,
) -> Result<BatchInferenceResult, AccelError> {
    run_inference_batch(ops, std::slice::from_ref(input), config)
}

fn input(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        &[1, 16, 16],
        (0..256).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
    .unwrap()
}

#[test]
fn f32_accelerated_inference_matches_software_for_all_orderings() {
    let model = small_net(10);
    let ops = model.inference_ops();
    let x = input(11);
    let reference = model.infer(&x);
    for ordering in OrderingMethod::ALL {
        let config = AccelConfig::paper(4, 4, 2, DataFormat::Float32, ordering);
        let result = infer_one(&ops, &x, &config).unwrap();
        for (got, want) in result.outputs[0].data().iter().zip(reference.data().iter()) {
            assert!(
                (got - want).abs() < 1e-3 * (1.0 + want.abs()),
                "{ordering}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn fx8_outputs_bit_exact_across_orderings_and_mesh_sizes() {
    let model = small_net(12);
    let ops = model.inference_ops();
    let x = input(13);
    let reference = infer_one(
        &ops,
        &x,
        &AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Baseline),
    )
    .unwrap();
    for (w, h, mc) in [(4usize, 4usize, 2usize), (8, 8, 4)] {
        for ordering in OrderingMethod::ALL {
            let config = AccelConfig::paper(w, h, mc, DataFormat::Fixed8, ordering);
            let result = infer_one(&ops, &x, &config).unwrap();
            assert_eq!(
                result.outputs[0].data(),
                reference.outputs[0].data(),
                "{w}x{h} MC{mc} {ordering}: fixed-8 outputs must be identical"
            );
        }
    }
}

#[test]
fn ordering_strictly_reduces_transitions_in_both_formats() {
    let model = small_net(14);
    let ops = model.inference_ops();
    let x = input(15);
    for format in [DataFormat::Float32, DataFormat::Fixed8] {
        let mut totals = Vec::new();
        for ordering in OrderingMethod::ALL {
            let config = AccelConfig::paper(4, 4, 2, format, ordering);
            totals.push(
                infer_one(&ops, &x, &config)
                    .unwrap()
                    .stats
                    .total_transitions,
            );
        }
        assert!(
            totals[1] < totals[0],
            "{format}: O1 {} !< O0 {}",
            totals[1],
            totals[0]
        );
        assert!(
            totals[2] < totals[0],
            "{format}: O2 {} !< O0 {}",
            totals[2],
            totals[0]
        );
        assert!(
            totals[2] <= totals[1],
            "{format}: O2 {} !<= O1 {}",
            totals[2],
            totals[1]
        );
    }
}

#[test]
fn latency_and_traffic_invariant_across_orderings() {
    // Ordering only permutes values within packets: packet counts, flit
    // counts and the cycle count must be identical across O0/O1/O2.
    let model = small_net(16);
    let ops = model.inference_ops();
    let x = input(17);
    let mut packets = Vec::new();
    let mut flits = Vec::new();
    let mut cycles = Vec::new();
    for ordering in OrderingMethod::ALL {
        let config = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, ordering);
        let r = infer_one(&ops, &x, &config).unwrap();
        packets.push(r.total_request_packets());
        flits.push(r.total_request_flits());
        cycles.push(r.total_cycles);
    }
    assert!(packets.windows(2).all(|w| w[0] == w[1]), "{packets:?}");
    assert!(flits.windows(2).all(|w| w[0] == w[1]), "{flits:?}");
    assert!(cycles.windows(2).all(|w| w[0] == w[1]), "{cycles:?}");
}

#[test]
fn full_inference_is_deterministic() {
    let model = small_net(18);
    let ops = model.inference_ops();
    let x = input(19);
    let config = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Separated);
    let a = infer_one(&ops, &x, &config).unwrap();
    let b = infer_one(&ops, &x, &config).unwrap();
    assert_eq!(a.stats.total_transitions, b.stats.total_transitions);
    assert_eq!(a.total_cycles, b.total_cycles);
    assert_eq!(a.outputs[0].data(), b.outputs[0].data());
}

#[test]
fn more_memory_controllers_reduce_inference_cycles() {
    // Injection bandwidth scales with MC count; the same workload drains
    // faster on 8 MCs than on 4.
    let model = small_net(20);
    let ops = model.inference_ops();
    let x = input(21);
    let mc4 = infer_one(
        &ops,
        &x,
        &AccelConfig::paper(8, 8, 4, DataFormat::Fixed8, OrderingMethod::Baseline),
    )
    .unwrap();
    let mc8 = infer_one(
        &ops,
        &x,
        &AccelConfig::paper(8, 8, 8, DataFormat::Fixed8, OrderingMethod::Baseline),
    )
    .unwrap();
    assert!(
        mc8.total_cycles < mc4.total_cycles,
        "MC8 {} should beat MC4 {}",
        mc8.total_cycles,
        mc4.total_cycles
    );
}
