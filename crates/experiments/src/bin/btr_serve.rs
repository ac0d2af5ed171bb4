//! `btr-serve` — the multi-session inference service front-end.
//!
//! Owns a pool of independent accelerator sessions (one mesh + one
//! pipelined batch driver each), feeds them from a bounded MPMC request
//! queue through a batching window, drives the pool with the
//! deterministic synthetic client, and reports aggregate throughput,
//! fleet-wide bit transitions, overhead totals and queue-depth / latency
//! histograms — optionally as a `btr-serve-v2` JSON document.
//!
//! Usage:
//! `cargo run --release -p experiments --bin btr-serve -- \
//!     [--sessions 4] [--batch 8] [--requests 64] [--queue-cap 32] \
//!     [--flush-polls 64] [--model lenet|darknet] [--weights random|trained] \
//!     [--mesh 4x4x2] [--format f32|fx8] \
//!     [--ordering O0|O1|O2] [--codec none|bus-invert|delta-xor] \
//!     [--codec-scope per-packet|per-link] \
//!     [--engine cycle|auto] \
//!     [--ber 1e-6] [--edc none|parity|crc8] [--resync reseed|continuous] \
//!     [--retries 8] [--darknet-width 8] [--seed 42] \
//!     [--json serve.json]`
//!
//! Any other `--flag` exits 2 with a one-line error.

use btr_accel::config::AccelConfig;
use btr_bits::word::DataFormat;
use btr_core::codec::{CodecKind, CodecScope, ResyncPolicy};
use btr_core::edc::EdcKind;
use btr_core::ordering::OrderingMethod;
use btr_dnn::data::{SyntheticDigits, SyntheticRgb};
use btr_dnn::models::darknet;
use btr_dnn::tensor::Tensor;
use btr_noc::EngineMode;
use btr_serve::{serve, synthetic_requests, ServeConfig};
use experiments::cli;
use experiments::serve_json::report_json;
use experiments::sweep::MeshSpec;
use experiments::workloads::{lenet, WeightSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every flag `btr-serve` reads; anything else is rejected up front.
const FLAGS: &[&str] = &[
    "sessions",
    "batch",
    "requests",
    "queue-cap",
    "flush-polls",
    "model",
    "weights",
    "mesh",
    "format",
    "ordering",
    "codec",
    "codec-scope",
    "engine",
    "ber",
    "edc",
    "resync",
    "retries",
    "darknet-width",
    "seed",
    "json",
];

fn main() {
    cli::reject_unknown_flags(FLAGS);
    let sessions: usize = cli::arg("sessions", 4);
    let batch: usize = cli::arg("batch", 8);
    let requests: usize = cli::arg("requests", 64);
    let queue_cap: usize = cli::arg("queue-cap", 32);
    let flush_polls: u32 = cli::arg("flush-polls", 64);
    let model: String = cli::arg("model", "lenet".to_string());
    let weights: WeightSource = cli::arg("weights", WeightSource::Trained);
    let mesh: MeshSpec = cli::arg(
        "mesh",
        MeshSpec {
            width: 4,
            height: 4,
            mc_count: 2,
        },
    );
    let format: DataFormat = cli::arg("format", DataFormat::Fixed8);
    let ordering: OrderingMethod = cli::arg("ordering", OrderingMethod::Separated);
    let codec: CodecKind = cli::arg("codec", CodecKind::Unencoded);
    let codec_scope: CodecScope = cli::arg("codec-scope", CodecScope::PerPacket);
    let engine: EngineMode = cli::arg("engine", EngineMode::Cycle);
    let ber: f64 = cli::arg("ber", 0.0);
    let edc: Option<EdcKind> = cli::opt_arg("edc");
    let resync: ResyncPolicy = cli::arg("resync", ResyncPolicy::ReseedOnRetry);
    let retries: u32 = cli::arg("retries", 8);
    let darknet_width: usize = cli::arg("darknet-width", 8);
    let seed: u64 = cli::arg("seed", 42);
    let json_path: Option<String> = cli::opt_arg("json");

    let mut rng = StdRng::seed_from_u64(seed);
    let pool_size = 16usize.max(batch);
    let (workload_name, ops, pool): (String, _, Vec<Tensor>) = match model.as_str() {
        "lenet" => {
            let digits = SyntheticDigits::new();
            (
                format!("LeNet ({} weights)", weights.name()),
                lenet(weights, seed).inference_ops(),
                (0..pool_size)
                    .map(|i| digits.sample((7 + i) % 10, &mut rng).input)
                    .collect(),
            )
        }
        "darknet" => {
            let rgb = SyntheticRgb::new();
            (
                format!("DarkNet (width {darknet_width})"),
                darknet::build_with_width(seed, darknet_width).inference_ops(),
                (0..pool_size)
                    .map(|i| rgb.sample((2 + i) % 10, &mut rng).input)
                    .collect(),
            )
        }
        other => {
            eprintln!("error: unknown model {other:?}; use lenet|darknet");
            std::process::exit(2);
        }
    };

    let mut accel = AccelConfig::paper(mesh.width, mesh.height, mesh.mc_count, format, ordering)
        .with_codec(codec)
        .with_codec_scope(codec_scope);
    if let Some(edc) = edc {
        accel = accel.with_edc(edc);
    }
    if ber > 0.0 || edc.is_some() {
        // `--edc` alone arms the recovery protocol on perfect wires, so
        // pure EDC overhead is measurable; `--ber` flips real bits.
        accel = accel.with_fault(
            btr_noc::fault::ErrorModel {
                ber: btr_noc::fault::BitErrorRate::from_f64(ber),
                seed,
                mode: btr_noc::fault::FaultMode::PerFlit,
            },
            resync,
            retries,
        );
    }
    accel.batch_size = batch;
    accel.engine = engine;
    let config = ServeConfig {
        accel,
        sessions,
        queue_capacity: queue_cap,
        flush_polls,
    };

    eprintln!(
        "# btr-serve: {workload_name} on {mesh}, {format} {ordering} {codec} {codec_scope} \
         ({engine} engine), {sessions} sessions x window {batch}, \
         queue cap {queue_cap}, {requests} requests"
    );
    let report = match serve(&ops, &config, synthetic_requests(&pool, requests)) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "served {} inferences in {} ms: {:.2} inferences/s aggregate",
        report.completed, report.wall_ms, report.inferences_per_sec
    );
    println!(
        "fleet: {} bit transitions, {} index-overhead bits, {} codec-overhead bits",
        report.transitions, report.index_overhead_bits, report.codec_overhead_bits
    );
    if config.accel.noc.fault.is_some() {
        println!(
            "faults: {} failed, {} edc-overhead bits, {} retransmitted flits, \
             {} retried packets (retries/request p99 {})",
            report.failed,
            report.edc_overhead_bits,
            report.retransmitted_flits,
            report.retried_packets,
            report.retries.percentile(0.99),
        );
    }
    println!(
        "latency us: p50 {} p90 {} p99 {} max {}  |  queue depth: p50 {} max {}  |  batch fill: mean {:.2}",
        report.latency_us.percentile(0.5),
        report.latency_us.percentile(0.9),
        report.latency_us.percentile(0.99),
        report.latency_us.max(),
        report.queue_depth.percentile(0.5),
        report.queue_depth.max(),
        report.batch_fill.mean(),
    );
    println!(
        "{:<8} {:>10} {:>11} {:>16} {:>12} {:>8}",
        "session", "dispatches", "inferences", "transitions", "fill(mean)", "busy"
    );
    for s in &report.per_session {
        println!(
            "{:<8} {:>10} {:>11} {:>16} {:>12.2} {:>6}ms",
            s.session,
            s.dispatches,
            s.inferences,
            s.transitions,
            s.batch_fill.mean(),
            s.busy_ms
        );
    }

    if let Some(path) = json_path {
        let json = report_json(&workload_name, &config, &report);
        if let Err(e) = experiments::json::write_file(std::path::Path::new(&path), &json) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("# wrote {path}");
    }
}
