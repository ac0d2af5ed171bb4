//! Full-system demo: LeNet inference on the NoC-based DNN accelerator.
//!
//! Builds a (randomly initialized) LeNet, lowers it to the inference
//! graph, and runs the complete inference through the cycle-level NoC with
//! each ordering method, comparing total bit transitions, cycles, and
//! verifying the outputs agree with direct execution.
//!
//! Run with: `cargo run --release --example lenet_on_noc`

use noc_btr::accel::config::AccelConfig;
use noc_btr::accel::driver::run_inference_batch;
use noc_btr::bits::word::DataFormat;
use noc_btr::core::OrderingMethod;
use noc_btr::dnn::data::SyntheticDigits;
use noc_btr::dnn::models::lenet;
use noc_btr::hw::link_energy::LinkPowerModel;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let model = lenet::build(42);
    let ops = model.inference_ops();
    let mut rng = StdRng::seed_from_u64(7);
    let sample = SyntheticDigits::new().sample(3, &mut rng);
    let reference = model.infer(&sample.input);

    println!("LeNet on a 4x4 mesh with 2 MCs, fixed-8 payloads (128-bit links)\n");
    println!(
        "{:<26} {:>14} {:>10} {:>10} {:>12}",
        "method", "total BTs", "reduction", "cycles", "link energy"
    );
    let energy = LinkPowerModel::paper();
    let mut baseline_bts = None;
    for method in OrderingMethod::ALL {
        let config = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, method);
        let inputs = std::slice::from_ref(&sample.input);
        let result = run_inference_batch(&ops, inputs, &config).expect("inference runs");
        let bts = result.stats.total_transitions;
        let base = *baseline_bts.get_or_insert(bts);
        println!(
            "{:<26} {:>14} {:>9.2}% {:>10} {:>9.4} mJ",
            method.to_string(),
            bts,
            (1.0 - bts as f64 / base as f64) * 100.0,
            result.total_cycles,
            energy.energy_mj(bts)
        );
        // The accelerator's answer matches the plain software model.
        assert_eq!(
            result.outputs[0].argmax(),
            reference.argmax(),
            "accelerated inference changed the prediction"
        );
    }
    println!(
        "\npredicted class: {} (reference model agrees)",
        reference.argmax()
    );
}
