//! Aggregate throughput of the multi-session inference service: a
//! single synchronous session (the pre-service reference) against serve
//! pools across the `sessions × batch-window × ordering` trajectory on
//! LeNet fixed-8.
//!
//! Writes `BENCH_serve.json` (schema `btr-bench-v1`), then reads it back
//! to print aggregate inferences/sec and the pool-vs-single-session
//! speedups. One bench iteration = one complete service run over the
//! whole request stream, so `min_ns / requests` is the per-inference
//! aggregate cost.
//!
//! `BTR_BENCH_SERVE_SMOKE=1` switches to random weights (no training)
//! and a short request stream, and **asserts** the service's reason to
//! exist: the pool's aggregate throughput must not lose to a single
//! synchronous session, and on a multi-hart host it must scale to at
//! least 1.5x (serve-vs-sequential *output* parity is pinned separately
//! by `tests/serve_parity.rs`).

use btr_accel::config::{AccelConfig, DriverMode};
use btr_accel::driver::run_inference_batch;
use btr_bits::word::DataFormat;
use btr_core::OrderingMethod;
use btr_dnn::data::SyntheticDigits;
use btr_dnn::tensor::Tensor;
use btr_noc::EngineMode;
use btr_serve::{serve, synthetic_requests, ServeConfig};
use criterion::{black_box, Criterion};
use experiments::json::Json;
use experiments::workloads::{lenet, WeightSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The benchmarked configurations: `sessions == 0` marks the sequential
/// single-synchronous-session reference. The engine column contrasts
/// the cycle-accurate NoC against the analytic stream engine on the
/// same pool shape.
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
        "serve_s4_b4_analytic",
        4,
        4,
        OrderingMethod::Separated,
        EngineMode::Analytic,
    ),
];

fn accel_config(ordering: OrderingMethod, window: usize, engine: EngineMode) -> AccelConfig {
    let mut config = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, ordering);
    config.batch_size = window;
    config.engine = engine;
    config
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

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("serve");
    group.sample_size(if smoke { 2 } else { 5 });
    for (name, sessions, window, ordering, engine) in POINTS {
        if sessions == 0 {
            // The reference: one synchronous session answering the same
            // request stream back to back, batch 1.
            let mut config = accel_config(ordering, 1, engine);
            config.driver = DriverMode::Synchronous;
            let stream = synthetic_requests(&pool, requests);
            group.bench_function(name, |b| {
                b.iter(|| {
                    let mut transitions = 0u64;
                    for request in &stream {
                        let result = run_inference_batch(
                            black_box(&ops),
                            std::slice::from_ref(&request.input),
                            &config,
                        )
                        .expect("inference");
                        transitions += result.stats.total_transitions;
                    }
                    transitions
                })
            });
            continue;
        }
        let config = ServeConfig {
            accel: accel_config(ordering, window, engine),
            sessions,
            queue_capacity: 16,
            flush_polls: 16,
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = serve(
                    black_box(&ops),
                    &config,
                    synthetic_requests(&pool, requests),
                )
                .expect("service run");
                assert_eq!(report.completed, requests as u64);
                report.transitions
            })
        });
    }
    group.finish();

    report_throughput(smoke, requests);
}

/// Reads `BENCH_serve.json` back (the round-trip CI relies on), prints
/// aggregate throughput per point, and in smoke mode asserts the
/// pool-vs-single-session throughput gates.
fn report_throughput(smoke: bool, requests: usize) {
    let dir = std::env::var("BTR_BENCH_JSON_DIR").unwrap_or_else(|_| {
        let mut probe = std::env::current_dir().expect("cwd");
        loop {
            if probe.join("Cargo.lock").exists() {
                return probe
                    .join("target/btr-bench")
                    .to_string_lossy()
                    .into_owned();
            }
            assert!(probe.pop(), "no workspace root above cwd");
        }
    });
    let path = std::path::Path::new(&dir).join("BENCH_serve.json");
    let text = std::fs::read_to_string(&path).expect("bench JSON written");
    let doc = Json::parse(&text).expect("bench JSON parses");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some(experiments::json::BENCH_SCHEMA),
        "unexpected bench schema"
    );
    let results = match doc.get("results") {
        Some(Json::Arr(items)) => items,
        other => panic!("bench JSON has no results array: {other:?}"),
    };
    let metric = |name: &str, field: &str| -> f64 {
        let entry = results
            .iter()
            .find(|r| r.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no bench entry {name:?}"));
        match entry.get(field) {
            Some(Json::F64(v)) => *v,
            Some(Json::U64(v)) => *v as f64,
            other => panic!("{name}.{field} is not a number: {other:?}"),
        }
    };

    println!("\naggregate serving throughput ({requests} requests per run):");
    for (name, _, _, _, engine) in POINTS {
        let ns = metric(name, "mean_ns");
        println!(
            "  {name:<21} {:>8} {:>9.2} ms/request  ({:>6.2} inferences/s aggregate)",
            engine.label(),
            ns / requests as f64 / 1e6,
            requests as f64 * 1e9 / ns
        );
    }
    let baseline = metric("seq_sync_b1", "min_ns");
    println!("aggregate speedup vs seq_sync_b1:");
    for (name, _, _, _, _) in POINTS {
        println!("  {name:<21} {:>5.2}x", baseline / metric(name, "min_ns"));
    }

    if smoke {
        // Best-case (min) times are the most noise-robust on shared CI
        // runners. Gate 1: the pool never loses to a single synchronous
        // session (10% slack for scheduler noise) — this holds even on a
        // single hart, where the win is batching + the pipelined encode.
        let pool = metric("serve_s4_b4", "min_ns");
        assert!(
            pool <= baseline * 1.1,
            "serve pool lost to a single synchronous session: {pool} ns vs {baseline} ns"
        );
        // Gate 2 (multi-hart only): session-level parallelism must
        // scale aggregate throughput to >= 1.5x the single synchronous
        // session.
        let harts = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        if harts >= 2 {
            assert!(
                pool * 1.5 <= baseline,
                "aggregate throughput did not scale on a {harts}-hart host: \
                 {pool} ns vs {baseline} ns (need >= 1.5x)"
            );
            println!(
                "smoke check: serve_s4_b4 scales {:.2}x over seq_sync_b1 on {harts} harts",
                baseline / pool
            );
        } else {
            println!(
                "smoke check: single-hart host — scaling gate skipped, \
                 pool-vs-sync gate held ({:.2}x)",
                baseline / pool
            );
        }
    }
}
