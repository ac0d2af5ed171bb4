//! Serve-vs-sequential parity for the multi-session inference service.
//!
//! The service coalesces queued requests into batched dispatches across
//! a pool of sessions, so a request's batch companions and its session
//! assignment are scheduling accidents — but its *output* must not be:
//! every task's MAC depends only on its own operands (pinned per-driver
//! by `tests/driver_parity.rs`), so N requests through the service
//! produce bit-identical outputs to N sequential `run_inference_batch`
//! calls, for any pool shape.

use btr_serve::{serve, synthetic_requests, ServeConfig, ServeError};
use noc_btr::accel::config::{AccelConfig, DriverMode};
use noc_btr::accel::driver::run_inference_batch;
use noc_btr::bits::word::DataFormat;
use noc_btr::core::OrderingMethod;
use noc_btr::dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
use noc_btr::dnn::model::{Layer, Sequential};
use noc_btr::dnn::tensor::Tensor;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn tiny_model(seed: u64) -> Sequential {
    let mut rng = StdRng::seed_from_u64(seed);
    Sequential::new(vec![
        Layer::Conv2d(Conv2d::new(1, 3, 3, 1, 1, &mut rng)),
        Layer::Activation(Activation::new(ActKind::ReLU)),
        Layer::MaxPool2d(MaxPool2d::new(2, 2)),
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(3 * 4 * 4, 5, &mut rng)),
    ])
}

fn tiny_input(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        &[1, 8, 8],
        (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
    .unwrap()
}

fn accel_config(window: usize) -> AccelConfig {
    let mut c = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Separated);
    c.batch_size = window;
    c
}

#[test]
fn serve_outputs_match_sequential_inference() {
    let model = tiny_model(7);
    let ops = model.inference_ops();
    let pool: Vec<Tensor> = (0..3).map(|i| tiny_input(40 + i)).collect();
    let requests = 7usize; // odd count: forces a short final flush
                           // Sequential reference: one synchronous single-input call per request.
    let mut sequential = accel_config(1);
    sequential.driver = DriverMode::Synchronous;
    let expected: Vec<Tensor> = (0..requests)
        .map(|i| {
            let input = std::slice::from_ref(&pool[i % pool.len()]);
            let mut result = run_inference_batch(&ops, input, &sequential).unwrap();
            result.outputs.remove(0)
        })
        .collect();

    // Several pool shapes: single session, more sessions than a batch
    // can fill, window larger than the remainder.
    for (sessions, window) in [(1usize, 2usize), (2, 2), (3, 4)] {
        let config = ServeConfig {
            accel: accel_config(window),
            sessions,
            queue_capacity: 4,
            flush_polls: 2,
        };
        let report = serve(&ops, &config, synthetic_requests(&pool, requests)).unwrap();
        assert_eq!(report.completed, requests as u64);
        assert_eq!(report.outputs.len(), requests);
        for (i, (got, want)) in report.outputs.iter().zip(expected.iter()).enumerate() {
            assert_eq!(
                got.data(),
                want.data(),
                "request {i} diverged under {sessions} sessions x window {window}"
            );
        }
    }
}

#[test]
fn serve_report_accounts_the_whole_fleet() {
    let model = tiny_model(9);
    let ops = model.inference_ops();
    let pool: Vec<Tensor> = (0..4).map(|i| tiny_input(60 + i)).collect();
    let requests = 8usize;
    let config = ServeConfig {
        accel: accel_config(2),
        sessions: 2,
        queue_capacity: 8,
        flush_polls: 2,
    };
    let report = serve(&ops, &config, synthetic_requests(&pool, requests)).unwrap();
    assert_eq!(report.completed, 8);
    assert!(report.inferences_per_sec > 0.0);
    // Fleet totals are the sum of the per-session slices.
    assert_eq!(report.per_session.len(), 2);
    let sum =
        |f: fn(&btr_serve::SessionReport) -> u64| -> u64 { report.per_session.iter().map(f).sum() };
    assert_eq!(report.transitions, sum(|s| s.transitions));
    assert!(report.transitions > 0);
    assert_eq!(report.index_overhead_bits, sum(|s| s.index_overhead_bits));
    assert!(report.index_overhead_bits > 0); // O2 carries the index channel
    assert_eq!(sum(|s| s.inferences), 8);
    // Every request contributes one latency sample; every dispatch one
    // queue-depth and one batch-fill sample, each within the window.
    assert_eq!(report.latency_us.count(), 8);
    // Fault-free run: nothing failed, no EDC wires, no retransmissions,
    // and every completed request recorded a zero retries sample.
    assert_eq!(report.failed, 0);
    assert_eq!(report.edc_overhead_bits, 0);
    assert_eq!(report.retransmitted_flits, 0);
    assert_eq!(report.retried_packets, 0);
    assert_eq!(report.retries.count(), 8);
    assert_eq!(report.retries.max(), 0);
    assert_eq!(report.batch_fill.count(), sum(|s| s.dispatches));
    assert_eq!(report.queue_depth.count(), sum(|s| s.dispatches));
    assert!(report.batch_fill.max() <= 2);
    assert!(report.batch_fill.min() >= 1);
}

#[test]
fn serve_recovers_bit_exact_outputs_on_unreliable_links() {
    use noc_btr::core::codec::ResyncPolicy;
    use noc_btr::noc::fault::{BitErrorRate, ErrorModel, FaultMode};

    let model = tiny_model(17);
    let ops = model.inference_ops();
    let pool: Vec<Tensor> = (0..3).map(|i| tiny_input(90 + i)).collect();
    let requests = 6usize;
    let mut sequential = accel_config(1);
    sequential.driver = DriverMode::Synchronous;
    let expected: Vec<Tensor> = (0..requests)
        .map(|i| {
            let input = std::slice::from_ref(&pool[i % pool.len()]);
            let mut result = run_inference_batch(&ops, input, &sequential).unwrap();
            result.outputs.remove(0)
        })
        .collect();

    // Raw wires at a BER high enough that flips are certain across the
    // run, but low enough that a replayed packet is clean with good
    // probability per attempt; with_fault arms CRC-8 EDC automatically,
    // and ReseedOnRetry replays recover every packet within budget.
    let accel = accel_config(2).with_fault(
        ErrorModel {
            ber: BitErrorRate::from_f64(1e-4),
            seed: 21,
            mode: FaultMode::PerFlit,
        },
        ResyncPolicy::ReseedOnRetry,
        32,
    );
    let config = ServeConfig {
        accel,
        sessions: 2,
        queue_capacity: 4,
        flush_polls: 2,
    };
    let report = serve(&ops, &config, synthetic_requests(&pool, requests)).unwrap();
    assert_eq!(report.failed, 0);
    assert_eq!(report.completed, requests as u64);
    for (i, (got, want)) in report.outputs.iter().zip(expected.iter()).enumerate() {
        assert_eq!(got.data(), want.data(), "request {i} diverged under faults");
    }
    // The links really were unreliable: retransmissions happened and
    // every EDC frame paid its check-field bits.
    assert!(report.retransmitted_flits > 0);
    assert!(report.retried_packets > 0);
    assert!(report.edc_overhead_bits > 0);
    // One retries sample per completed request, fleet totals are the
    // sum of the per-session slices.
    assert_eq!(report.retries.count(), requests as u64);
    let sum =
        |f: fn(&btr_serve::SessionReport) -> u64| -> u64 { report.per_session.iter().map(f).sum() };
    assert_eq!(report.retransmitted_flits, sum(|s| s.retransmitted_flits));
    assert_eq!(report.retried_packets, sum(|s| s.retried_packets));
    assert_eq!(report.edc_overhead_bits, sum(|s| s.edc_overhead_bits));
}

#[test]
fn serve_buckets_unrecoverable_windows_instead_of_aborting() {
    use noc_btr::core::codec::{CodecKind, CodecScope, ResyncPolicy};
    use noc_btr::noc::fault::{BitErrorRate, ErrorModel, FaultMode};

    let model = tiny_model(19);
    let ops = model.inference_ops();
    let pool = vec![tiny_input(95)];
    let requests = 4usize;
    // Per-link delta-xor with Continuous resync: the first wire flip
    // poisons the link's rx decode lane permanently, every replay keeps
    // failing CRC, and the retry budget dies — the pool must bucket the
    // window as failed and keep draining rather than abort.
    let mut accel = accel_config(2)
        .with_codec(CodecKind::DeltaXor)
        .with_codec_scope(CodecScope::PerLink);
    accel = accel.with_fault(
        ErrorModel {
            ber: BitErrorRate::from_f64(1e-3),
            seed: 23,
            mode: FaultMode::PerFlit,
        },
        ResyncPolicy::Continuous,
        4,
    );
    let config = ServeConfig {
        accel,
        sessions: 1,
        queue_capacity: 4,
        flush_polls: 2,
    };
    let report = serve(&ops, &config, synthetic_requests(&pool, requests)).unwrap();
    assert_eq!(report.failed, requests as u64);
    assert_eq!(report.completed, 0);
    assert_eq!(report.outputs.len(), requests);
    for (i, output) in report.outputs.iter().enumerate() {
        assert!(output.is_empty(), "failed request {i} got a real output");
    }
    // No completed request, no latency or retries samples.
    assert_eq!(report.latency_us.count(), 0);
    assert_eq!(report.retries.count(), 0);
    let failed_sum: u64 = report.per_session.iter().map(|s| s.failed).sum();
    assert_eq!(report.failed, failed_sum);
}

#[test]
fn serve_handles_an_empty_request_stream() {
    let model = tiny_model(11);
    let ops = model.inference_ops();
    let config = ServeConfig {
        accel: accel_config(2),
        sessions: 2,
        queue_capacity: 2,
        flush_polls: 0,
    };
    let report = serve(&ops, &config, Vec::new()).unwrap();
    assert_eq!(report.completed, 0);
    assert!(report.outputs.is_empty());
    assert_eq!(report.inferences_per_sec, 0.0);
    assert_eq!(report.latency_us.count(), 0);
}

#[test]
fn serve_propagates_session_failures() {
    let model = tiny_model(13);
    let ops = model.inference_ops();
    let pool = vec![tiny_input(70)];
    // A two-cycle layer budget passes config validation, but the first
    // layer stalls: the first dispatch fails and the run aborts instead
    // of hanging.
    let mut accel = accel_config(2);
    accel.max_cycles_per_layer = 2;
    let config = ServeConfig {
        accel,
        sessions: 2,
        queue_capacity: 4,
        flush_polls: 1,
    };
    let err = serve(&ops, &config, synthetic_requests(&pool, 4)).unwrap_err();
    match err {
        ServeError::Session { error, .. } => {
            assert!(error.to_string().contains("stalled"), "{error}");
        }
        other => panic!("expected a session error, got {other}"),
    }
}

#[test]
fn serve_rejects_bad_configs_and_ids() {
    let model = tiny_model(15);
    let ops = model.inference_ops();
    let pool = vec![tiny_input(80)];
    let good = ServeConfig {
        accel: accel_config(2),
        sessions: 2,
        queue_capacity: 4,
        flush_polls: 1,
    };
    let mut no_sessions = good.clone();
    no_sessions.sessions = 0;
    assert!(matches!(
        serve(&ops, &no_sessions, synthetic_requests(&pool, 2)),
        Err(ServeError::Config(_))
    ));
    // Non-dense request ids cannot be mapped onto output slots.
    let mut requests = synthetic_requests(&pool, 2);
    requests[1].id = 7;
    assert!(matches!(
        serve(&ops, &good, requests),
        Err(ServeError::Config(_))
    ));
}
