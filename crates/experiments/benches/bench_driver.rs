//! End-to-end inference throughput of the accelerator driver: the
//! synchronous reference encode vs the pipelined (template, inline) encode
//! at batch 1 / 4 / 16 on LeNet fixed-8 (separated ordering — the
//! paper's best configuration, and the most encode-heavy one). Both
//! modes run single-threaded on every host.
//!
//! Writes `BENCH_driver.json` (schema `btr-bench-v1`) like every bench
//! group, then reads it back to print per-input throughput and the
//! pipelined-vs-sync speedups — the end-to-end perf trajectory for the
//! driver (see EXPERIMENTS.md).
//!
//! `BTR_BENCH_DRIVER_SMOKE=1` switches to random weights (no training),
//! two samples per point, and **asserts** that the pipelined driver's
//! best-case time does not lose to the synchronous driver at the same
//! batch — the CI guard for the template encode path's reason to exist.

use btr_accel::config::{AccelConfig, DriverMode};
use btr_accel::driver::run_inference_batch;
use btr_bits::word::DataFormat;
use btr_core::OrderingMethod;
use btr_dnn::data::SyntheticDigits;
use btr_dnn::tensor::Tensor;
use btr_noc::EngineMode;
use criterion::{black_box, Criterion};
use experiments::json::Json;
use experiments::workloads::{lenet, WeightSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The benchmarked configurations, in reporting order. The engine
/// column contrasts the cycle-accurate NoC against auto classification
/// (the analytic fast path where it is proven exact) on the same
/// driver/batch point.
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

    let mut criterion = Criterion::default();
    let mut group = criterion.benchmark_group("driver");
    group.sample_size(if smoke { 2 } else { 10 });
    for (name, driver, batch, engine) in POINTS {
        let mut config = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Separated);
        config.driver = driver;
        config.batch_size = batch;
        config.engine = engine;
        let batch_inputs: Vec<Tensor> = inputs.iter().cycle().take(batch).cloned().collect();
        group.bench_function(name, |b| {
            b.iter(|| {
                let result = run_inference_batch(black_box(&ops), &batch_inputs, &config)
                    .expect("inference");
                result.stats.total_transitions
            })
        });
    }
    group.finish();

    report_speedups(smoke);
}

/// Reads the group's own `BENCH_driver.json` back (exercising the
/// round-trip CI relies on), prints per-input throughput, and in smoke
/// mode asserts pipelined ≥ sync throughput at equal batch.
fn report_speedups(smoke: bool) {
    let dir = std::env::var("BTR_BENCH_JSON_DIR").unwrap_or_else(|_| {
        // Mirror the bench harness default: workspace target/btr-bench.
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
    let path = std::path::Path::new(&dir).join("BENCH_driver.json");
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

    println!("\ndriver throughput (per input):");
    let per_input = |name: &str, batch: f64| metric(name, "mean_ns") / batch;
    for (name, _, batch, engine) in POINTS {
        let ns = per_input(name, batch as f64);
        println!(
            "  {name:<22} {:>8} {:>9.2} ms/input  ({:>6.2} inferences/s)",
            engine.label(),
            ns / 1e6,
            1e9 / ns
        );
    }
    let baseline = per_input("sync_b1", 1.0);
    println!("end-to-end speedup vs sync_b1:");
    for (name, _, batch, _) in POINTS {
        println!(
            "  {name:<22} {:>5.2}x",
            baseline / per_input(name, batch as f64)
        );
    }

    if smoke {
        // Best-case (min) times are the most noise-robust on shared CI
        // runners; equal batch isolates the encode path, since both
        // points run one thread and identical mesh traffic on any host.
        // The template encode path takes ~35% less time than the
        // reference encode here (smoke mode on a 2-hart host), so a 10%
        // slack absorbs scheduler noise without weakening the gate's
        // intent.
        let sync = metric("sync_b4", "min_ns");
        let pipelined = metric("pipelined_b4", "min_ns");
        assert!(
            pipelined <= sync * 1.1,
            "template encode (pipelined) lost to the reference encode (sync) at batch 4: \
             {pipelined} ns vs {sync} ns"
        );
        println!(
            "smoke check: pipelined_b4 {:.1} ms <= sync_b4 {:.1} ms",
            pipelined / 1e6,
            sync / 1e6
        );
    }
}
