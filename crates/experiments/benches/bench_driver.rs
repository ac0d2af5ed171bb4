//! End-to-end inference throughput of the accelerator driver: the
//! synchronous reference encode vs the pipelined (template, inline) encode
//! at batch 1 / 4 / 16 on LeNet fixed-8 (separated ordering — the
//! paper's best configuration, and the most encode-heavy one). Both
//! modes run single-threaded on every host.
//!
//! Runs on the paired-ratio harness (`common`): `sync_b4` and
//! `pipelined_b4` are timed as alternating pairs, the other points
//! alone. Writes `BENCH_driver.json` (schema `btr-bench-v1`) and prints
//! per-input throughput, the end-to-end perf trajectory for the driver
//! (see EXPERIMENTS.md).
//!
//! `BTR_BENCH_DRIVER_SMOKE=1` switches to random weights (no training)
//! and 5 samples per point, and **asserts** that the pipelined driver
//! does not lose to the synchronous driver at the same batch: the lower
//! quartile of the paired `sync_b4`/`pipelined_b4` time ratios must be
//! ≥ 1. Equal batch isolates the encode path, since both points run
//! one thread and identical mesh traffic on any host.

mod common;

use btr_accel::config::{AccelConfig, DriverMode};
use btr_accel::driver::run_inference_batch;
use btr_bits::word::DataFormat;
use btr_core::OrderingMethod;
use btr_dnn::data::SyntheticDigits;
use btr_dnn::model::InferenceOp;
use btr_dnn::tensor::Tensor;
use btr_noc::EngineMode;
use common::{iter, Group, SMOKE_PAIRS};
use experiments::workloads::{lenet, WeightSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The benchmarked configurations, in reporting order. The engine
/// column contrasts the cycle-accurate NoC against record once, replay
/// (each layer shape steps and records once per process, later layers
/// of that shape replay the recording) on the same driver/batch point.
const POINTS: [(&str, DriverMode, usize, EngineMode); 6] = [
    ("sync_b1", DriverMode::Synchronous, 1, EngineMode::Cycle),
    ("sync_b4", DriverMode::Synchronous, 4, EngineMode::Cycle),
    ("pipelined_b1", DriverMode::Pipelined, 1, EngineMode::Cycle),
    ("pipelined_b4", DriverMode::Pipelined, 4, EngineMode::Cycle),
    (
        "pipelined_b16",
        DriverMode::Pipelined,
        16,
        EngineMode::Cycle,
    ),
    (
        "pipelined_b4_auto",
        DriverMode::Pipelined,
        4,
        EngineMode::Auto,
    ),
];

/// One batched inference per call at the point named `name`.
fn inference<'a>(
    ops: &'a [InferenceOp],
    inputs: &[Tensor],
    name: &str,
) -> impl FnMut() -> u64 + 'a {
    let (_, driver, batch, engine) = *POINTS
        .iter()
        .find(|point| point.0 == name)
        .expect("a POINTS entry");
    let mut config = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Separated);
    config.driver = driver;
    config.batch_size = batch;
    config.engine = engine;
    let batch_inputs: Vec<Tensor> = inputs.iter().cycle().take(batch).cloned().collect();
    move || {
        run_inference_batch(black_box(ops), &batch_inputs, &config)
            .expect("inference")
            .stats
            .total_transitions
    }
}

fn main() {
    let smoke = std::env::var("BTR_BENCH_DRIVER_SMOKE").is_ok();
    let source = if smoke {
        WeightSource::Random
    } else {
        WeightSource::Trained
    };
    let seed = 42u64;
    let ops = lenet(source, seed).inference_ops();
    let digits = SyntheticDigits::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let inputs: Vec<Tensor> = (0..16)
        .map(|i| digits.sample(i % 10, &mut rng).input)
        .collect();

    let mut group = Group::new("driver", if smoke { SMOKE_PAIRS } else { 10 });
    let ratio = group.pair(
        "sync_b4",
        iter(inference(&ops, &inputs, "sync_b4")),
        "pipelined_b4",
        iter(inference(&ops, &inputs, "pipelined_b4")),
    );
    for (name, ..) in POINTS {
        if !matches!(name, "sync_b4" | "pipelined_b4") {
            group.single(name, iter(inference(&ops, &inputs, name)));
        }
    }
    group.finish();

    println!("\ndriver throughput (per input, mean):");
    let per_input = |name: &str, batch: usize| group.point(name).mean_ns() / batch as f64;
    let baseline = per_input("sync_b1", 1);
    for (name, _, batch, engine) in POINTS {
        let ns = per_input(name, batch);
        println!(
            "  {name:<22} {:>8} {:>9.2} ms/input  ({:>6.2} inferences/s, {:>5.2}x sync_b1)",
            engine.label(),
            ns / 1e6,
            1e9 / ns,
            baseline / ns
        );
    }

    if smoke {
        assert!(
            ratio >= 1.0,
            "template encode (pipelined) lost to the reference encode (sync) at batch 4 \
             (sync_b4/pipelined_b4 {ratio:.2}x)"
        );
        println!("smoke check: sync_b4/pipelined_b4 {ratio:.2}x >= 1");
    }
}
