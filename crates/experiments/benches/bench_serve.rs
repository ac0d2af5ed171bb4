//! Aggregate throughput of the multi-session inference service: a
//! single synchronous session (the pre-service reference) against serve
//! pools across the `sessions × batch-window × ordering` trajectory on
//! LeNet fixed-8.
//!
//! Runs on the paired-ratio harness (`common`): `seq_sync_b1` and
//! `serve_s4_b4` are timed as alternating pairs, the other points alone.
//! One iteration is one complete service run over the whole request
//! stream. Writes `BENCH_serve.json` (schema `btr-bench-v1`) and prints
//! aggregate inferences/sec per point.
//!
//! `BTR_BENCH_SERVE_SMOKE=1` switches to random weights (no training),
//! a short request stream and 5 samples per point, and **asserts** the
//! service's reason to exist on the lower quartile of the paired
//! `seq_sync_b1`/`serve_s4_b4` time ratios: ≥ 1 on any host, and ≥ 1.5
//! on a host with at least 2 harts (serve-vs-sequential *output* parity
//! is pinned separately by `tests/serve_parity.rs`).

mod common;

use btr_accel::config::{AccelConfig, DriverMode};
use btr_accel::driver::run_inference_batch;
use btr_bits::word::DataFormat;
use btr_core::OrderingMethod;
use btr_dnn::data::SyntheticDigits;
use btr_dnn::model::InferenceOp;
use btr_dnn::tensor::Tensor;
use btr_noc::EngineMode;
use btr_serve::{serve, synthetic_requests, ServeConfig};
use common::{iter, Group, SMOKE_PAIRS};
use experiments::workloads::{lenet, WeightSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;

/// The benchmarked configurations: `sessions == 0` marks the sequential
/// single-synchronous-session reference. The engine column contrasts
/// the cycle-accurate NoC against record once, replay (each layer shape
/// steps and records once per process, later layers of that shape
/// replay the recording) on the same pool shape.
const POINTS: [(&str, usize, usize, OrderingMethod, EngineMode); 7] = [
    (
        "seq_sync_b1",
        0,
        1,
        OrderingMethod::Separated,
        EngineMode::Cycle,
    ),
    (
        "serve_s1_b4",
        1,
        4,
        OrderingMethod::Separated,
        EngineMode::Cycle,
    ),
    (
        "serve_s2_b4",
        2,
        4,
        OrderingMethod::Separated,
        EngineMode::Cycle,
    ),
    (
        "serve_s4_b4",
        4,
        4,
        OrderingMethod::Separated,
        EngineMode::Cycle,
    ),
    (
        "serve_s4_b1",
        4,
        1,
        OrderingMethod::Separated,
        EngineMode::Cycle,
    ),
    (
        "serve_s4_b4_O0",
        4,
        4,
        OrderingMethod::Baseline,
        EngineMode::Cycle,
    ),
    (
        "serve_s4_b4_auto",
        4,
        4,
        OrderingMethod::Separated,
        EngineMode::Auto,
    ),
];

fn accel_config(ordering: OrderingMethod, window: usize, engine: EngineMode) -> AccelConfig {
    let mut config = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, ordering);
    config.batch_size = window;
    config.engine = engine;
    config
}

/// One complete run over `requests` synthetic requests per call at the
/// point named `name`.
fn service<'a>(
    ops: &'a [InferenceOp],
    pool: &'a [Tensor],
    requests: usize,
    name: &str,
) -> impl FnMut() -> u64 + 'a {
    let (_, sessions, window, ordering, engine) = *POINTS
        .iter()
        .find(|point| point.0 == name)
        .expect("a POINTS entry");
    let mut accel = accel_config(ordering, window, engine);
    if sessions == 0 {
        // The reference: one synchronous session answering the same
        // request stream back to back, batch 1.
        accel.driver = DriverMode::Synchronous;
    }
    let config = ServeConfig {
        accel,
        sessions,
        queue_capacity: 16,
        flush_polls: 16,
    };
    let stream = synthetic_requests(pool, requests);
    move || {
        if sessions == 0 {
            let mut transitions = 0u64;
            for request in &stream {
                let result = run_inference_batch(
                    black_box(ops),
                    std::slice::from_ref(&request.input),
                    &config.accel,
                )
                .expect("inference");
                transitions += result.stats.total_transitions;
            }
            return transitions;
        }
        let report = serve(black_box(ops), &config, synthetic_requests(pool, requests))
            .expect("service run");
        assert_eq!(report.completed, requests as u64);
        report.transitions
    }
}

fn main() {
    let smoke = std::env::var("BTR_BENCH_SERVE_SMOKE").is_ok();
    let source = if smoke {
        WeightSource::Random
    } else {
        WeightSource::Trained
    };
    let seed = 42u64;
    let requests = if smoke { 8 } else { 32 };
    let ops = lenet(source, seed).inference_ops();
    let digits = SyntheticDigits::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<Tensor> = (0..16)
        .map(|i| digits.sample(i % 10, &mut rng).input)
        .collect();

    let mut group = Group::new("serve", if smoke { SMOKE_PAIRS } else { 5 });
    let ratio = group.pair(
        "seq_sync_b1",
        iter(service(&ops, &pool, requests, "seq_sync_b1")),
        "serve_s4_b4",
        iter(service(&ops, &pool, requests, "serve_s4_b4")),
    );
    for (name, ..) in POINTS {
        if !matches!(name, "seq_sync_b1" | "serve_s4_b4") {
            group.single(name, iter(service(&ops, &pool, requests, name)));
        }
    }
    group.finish();

    println!("\naggregate serving throughput ({requests} requests per run, mean):");
    let baseline = group.point("seq_sync_b1").mean_ns();
    for (name, _, _, _, engine) in POINTS {
        let ns = group.point(name).mean_ns();
        println!(
            "  {name:<21} {:>8} {:>9.2} ms/request  ({:>6.2} inferences/s, {:>5.2}x seq_sync_b1)",
            engine.label(),
            ns / requests as f64 / 1e6,
            requests as f64 * 1e9 / ns,
            baseline / ns
        );
    }

    if smoke {
        // Gate 1: the pool never loses to a single synchronous session;
        // this holds even on a single hart, where the win is batching
        // plus the pipelined encode.
        assert!(
            ratio >= 1.0,
            "serve pool lost to a single synchronous session \
             (seq_sync_b1/serve_s4_b4 {ratio:.2}x)"
        );
        // Gate 2 (multi-hart only): session-level parallelism must
        // scale aggregate throughput to 1.5x the single synchronous
        // session.
        let harts = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        if harts >= 2 {
            assert!(
                ratio >= 1.5,
                "aggregate throughput did not scale on a {harts}-hart host \
                 (seq_sync_b1/serve_s4_b4 {ratio:.2}x < 1.5x)"
            );
        }
        println!(
            "smoke check: seq_sync_b1/serve_s4_b4 {ratio:.2}x on {harts} hart(s) \
             (>= 1, and >= 1.5 with 2+ harts)"
        );
    }
}
