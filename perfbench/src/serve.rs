//! `serve-auto-perlink`: `btr_serve::serve` with 2 sessions, window 4,
//! queue cap 16 and 64 requests per op (all offered at once), on LeNet
//! fx8 O2, 4×4 MC2, per-link delta-XOR and the `auto` engine: saturation
//! throughput of the pool. The traced run also times single
//! `InferenceSession::run` dispatches and replays one stage by stage.

use crate::metrics::Metrics;
use crate::replay::{lane_run, replay_dispatch, ReplayReport};
use crate::trace::{self_times, Tracer};
use crate::{repeated_setup, stats, timed_loop, Args, Outcome, WEIGHT_SEED};
use btr_accel::report::BatchInferenceResult;
use btr_accel::{AccelConfig, InferenceSession};
use btr_bits::word::DataFormat;
use btr_core::{CodecKind, CodecScope, OrderingMethod};
use btr_dnn::data::SyntheticDigits;
use btr_dnn::{InferenceOp, Tensor};
use btr_noc::EngineMode;
use btr_serve::{serve, synthetic_requests, ServeConfig, ServeReport};
use experiments::workloads::lenet_random;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Distinct inputs in the pool.
const POOL: usize = 16;
/// Inputs per dispatch (the batching window).
const BATCH: usize = 4;
/// Requests offered to the serve pool per op.
const SERVE_REQUESTS: usize = 64;
const SERVE_SESSIONS: usize = 2;
/// Replays of one dispatch in the traced run.
const REPLAY_REPS: usize = 3;

/// Lowers the random LeNet and draws the seed's input pool.
fn model_and_pool(seed: u64, tracer: &mut Tracer) -> (Vec<InferenceOp>, Vec<Tensor>) {
    let model = lenet_random(WEIGHT_SEED);
    let ops = tracer.span("dnn.lower", || model.inference_ops());
    let digits = SyntheticDigits::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = (0..POOL)
        .map(|i| digits.sample((7 + i) % 10, &mut rng).input)
        .collect();
    (ops, pool)
}

fn serve_accel(ordering: OrderingMethod) -> AccelConfig {
    let mut config = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, ordering)
        .with_codec(CodecKind::DeltaXor)
        .with_codec_scope(CodecScope::PerLink);
    config.engine = EngineMode::Auto;
    config.batch_size = BATCH;
    config
}

fn group(pool: &[Tensor], k: usize) -> &[Tensor] {
    let g = k % (POOL / BATCH);
    &pool[g * BATCH..(g + 1) * BATCH]
}

/// Bit images of output tensors (exact comparison, NaN-safe).
fn bits(outputs: &[Tensor]) -> Vec<Vec<u32>> {
    outputs
        .iter()
        .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
        .collect()
}

/// Link transitions and request packets summed over one dispatch of
/// every group of the pool.
fn pool_totals(
    ops: &[InferenceOp],
    pool: &[Tensor],
    config: AccelConfig,
) -> Result<(u64, u64), String> {
    let session = InferenceSession::new(ops, config).map_err(|e| e.to_string())?;
    let (mut transitions, mut packets) = (0, 0);
    for g in 0..POOL / BATCH {
        let r = session.run(group(pool, g)).map_err(|e| e.to_string())?;
        transitions += r.stats.total_transitions;
        packets += r.total_request_packets();
    }
    Ok((transitions, packets))
}

/// Sets `bt_reduction_pct` (O2 vs O0 over the whole pool) and
/// `link_bt_per_packet` (O2), checking that ordering reduces BTs.
fn pool_bt_metrics(ops: &[InferenceOp], pool: &[Tensor], out: &mut Outcome, m: &mut Metrics) {
    let totals = pool_totals(ops, pool, serve_accel(OrderingMethod::Separated)).and_then(|o2| {
        Ok((
            o2,
            pool_totals(ops, pool, serve_accel(OrderingMethod::Baseline))?,
        ))
    });
    match totals {
        Ok(((o2, packets), (o0, _))) => {
            out.check(o2 < o0, || format!("O2 {o2} BTs not below O0 {o0}"));
            m.set("bt_reduction_pct", 100.0 * (1.0 - o2 as f64 / o0 as f64));
            m.set("link_bt_per_packet", o2 as f64 / packets as f64);
        }
        Err(e) => out.check(false, || format!("pool dispatch failed: {e}")),
    }
}

/// Simulated per-inference counts of one batch-`BATCH` dispatch.
fn dispatch_counts(m: &mut Metrics, r: &BatchInferenceResult) {
    let per = |v: u64| v as f64 / BATCH as f64;
    m.set("accel.analytic_phase_frac", r.analytic_phase_fraction());
    m.set(
        "accel.request_flits_per_infer",
        per(r.total_request_flits()),
    );
    m.set(
        "accel.index_overhead_bits_per_infer",
        per(r.index_overhead_bits),
    );
    m.set("noc.flit_hops_per_infer", per(r.stats.flit_hops));
    m.set("noc.cycles_per_infer", per(r.total_cycles));
    m.set("noc.retransmitted_flits", r.retransmitted_flits as f64);
    m.set("noc.retried_packets", r.retried_packets as f64);
}

/// Replays `REPLAY_REPS` dispatches of `inputs` stage by stage, checks
/// each against the driver's `reference` result, and records the stage
/// metrics.
fn replay_metrics(
    ops: &[InferenceOp],
    inputs: &[Tensor],
    config: &AccelConfig,
    reference: &BatchInferenceResult,
    tracer: &mut Tracer,
    out: &mut Outcome,
    m: &mut Metrics,
) {
    let mut total = ReplayReport::default();
    for _ in 0..REPLAY_REPS {
        match replay_dispatch(ops, inputs, config, tracer) {
            Ok(r) => {
                let want: Vec<u64> = reference
                    .per_layer
                    .iter()
                    .map(|l| l.request_flits)
                    .collect();
                out.check(r.request_flits == want, || {
                    format!(
                        "replayed request flits {:?} != driver {want:?}",
                        r.request_flits
                    )
                });
                out.check(bits(&r.outputs) == bits(&reference.outputs), || {
                    "replayed outputs differ from the driver's".into()
                });
                total.tasks += r.tasks;
                total.groups += r.groups;
                total.step_flit_hops += r.step_flit_hops;
                total.replay_flit_hops += r.replay_flit_hops;
                total.phases_checked += r.phases_checked;
                total.phases_eligible += r.phases_eligible;
            }
            Err(e) => out.check(false, || format!("replay failed: {e}")),
        }
    }
    let ns = |name: &str| tracer.total_ns(name) as f64;
    let per = |num: f64, den: u64| if den == 0 { 0.0 } else { num / den as f64 };
    m.set(
        "accel.gather_ns_per_task",
        per(ns("accel.gather"), total.tasks),
    );
    m.set(
        "core.template_build_us_per_group",
        per(ns("core.template") / 1e3, total.groups),
    );
    m.set(
        "core.encode_ns_per_task",
        per(ns("core.encode"), total.tasks),
    );
    m.set(
        "core.decode_ns_per_task",
        per(ns("core.decode"), total.tasks),
    );
    m.set(
        "noc.step_ns_per_flit_hop",
        per(ns("noc.step"), total.step_flit_hops),
    );
    m.set(
        "noc.replay_ns_per_flit_hop",
        per(ns("noc.replay"), total.replay_flit_hops),
    );
    m.set(
        "noc.contention_free_frac",
        per(total.phases_eligible as f64, total.phases_checked),
    );
    m.set(
        "dnn.host_ops_ms_per_infer",
        per(ns("dnn.host_op") / 1e6, (REPLAY_REPS * inputs.len()) as u64),
    );
    // The from-outside stage ledger: the share of each replayed dispatch
    // its stage spans account for.
    let spans = tracer.spans();
    let selfs = self_times(spans);
    let coverage: Vec<f64> = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name == "accel.dispatch")
        .map(|(s, &own)| 1.0 - own as f64 / s.duration_ns().max(1) as f64)
        .collect();
    m.set("accel.ledger_coverage", stats::median(&coverage));
    m.set(
        "accel.replay_ms_per_dispatch",
        stats::median(&tracer.durations_ms("accel.dispatch")),
    );
    match lane_run(ops, inputs, config, tracer) {
        Ok(flits) => m.set(
            "core.lane_run_ns_per_flit",
            per(tracer.total_ns("core.lane_run") as f64, flits),
        ),
        Err(e) => out.check(false, || format!("lane run failed: {e}")),
    }
}

/// Checks one serve op against the sequential per-input reference.
fn check_serve(
    report: Result<ServeReport, btr_serve::ServeError>,
    reference: &[Vec<u32>],
    out: &mut Outcome,
) -> Option<ServeReport> {
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("serve failed: {e}"));
            return None;
        }
    };
    out.check(
        report.completed == SERVE_REQUESTS as u64 && report.failed == 0,
        || format!("{} completed, {} failed", report.completed, report.failed),
    );
    let got = bits(&report.outputs);
    let same = got
        .iter()
        .enumerate()
        .all(|(i, o)| *o == reference[i % POOL]);
    out.check(same, || "serve outputs differ from sequential runs".into());
    Some(report)
}

pub fn run_serve(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let config = ServeConfig {
        accel: serve_accel(OrderingMethod::Separated),
        sessions: SERVE_SESSIONS,
        queue_capacity: 16,
        flush_polls: 16,
    };
    let ((ops, pool, requests), setup_s) = repeated_setup(args, || {
        let (ops, pool) = model_and_pool(args.seed, tracer);
        let requests = synthetic_requests(&pool, SERVE_REQUESTS);
        serve(&ops, &config, requests.clone()).expect("serve set-up runs");
        (ops, pool, requests)
    });

    // serve ≡ sequential: one single-input session run per pool input.
    let session = InferenceSession::new(&ops, config.accel.clone()).expect("validated by serve");
    out.encode_plans.push(format!("{:?}", session.plan()));
    let reference: Vec<Vec<u32>> = pool
        .iter()
        .map(|x| {
            session
                .run(std::slice::from_ref(x))
                .map(|r| bits(&r.outputs).remove(0))
                .unwrap_or_default()
        })
        .collect();
    let first = match session.run(group(&pool, 0)) {
        Ok(r) => r,
        Err(e) => {
            out.check(false, || format!("reference dispatch failed: {e}"));
            return out;
        }
    };

    let mut m = Metrics::default();
    if tracer.enabled() {
        let mut reports: Vec<ServeReport> = Vec::new();
        let mut one = |tracer: &mut Tracer, out: &mut Outcome, keep: bool| {
            let reqs = requests.clone();
            let open = tracer.enter("serve.serve");
            let r = serve(&ops, &config, reqs);
            tracer.exit(open);
            if let Some(r) = check_serve(r, &reference, out) {
                if keep {
                    reports.push(r);
                }
            }
        };
        let mut quiet = Tracer::new("serve-auto-perlink", false);
        let untraced = timed_loop(args, args.seconds / 2, || one(&mut quiet, &mut out, false));
        let traced = timed_loop(args, args.seconds, || one(tracer, &mut out, true));
        m.set(
            "bench.trace_overhead_pct",
            (stats::median(&traced) / stats::median(&untraced) - 1.0) * 100.0,
        );
        serve_layer_metrics(&reports, &mut m);
        // The parent span the stage replay decomposes: batch-4
        // `InferenceSession::run` dispatches of each pool group.
        for k in 0..2 * POOL / BATCH {
            let r = tracer.span("accel.run", || session.run(group(&pool, k)));
            out.check(r.is_ok(), || format!("session dispatch {k} failed"));
        }
        m.set(
            "accel.run_ms_per_dispatch",
            stats::median(&tracer.durations_ms("accel.run")),
        );
        dispatch_counts(&mut m, &first);
        replay_metrics(
            &ops,
            group(&pool, 0),
            &config.accel,
            &first,
            tracer,
            &mut out,
            &mut m,
        );
        m.set(
            "dnn.lower_ms",
            stats::median(&tracer.durations_ms("dnn.lower")),
        );
        out.metrics = m;
        return out;
    }

    let samples = timed_loop(args, args.seconds, || {
        check_serve(serve(&ops, &config, requests.clone()), &reference, &mut out);
    });
    // Saturation throughput: one op's inferences over the median op
    // time (this workload runs without the host-speed probe, so its
    // reference time is its wall time). Flit-hops per inference come
    // from a full-window dispatch (the pool coalesces full windows under
    // this load).
    let op_ms = stats::median(&samples);
    let infers_per_s = SERVE_REQUESTS as f64 / (op_ms / 1e3);
    let per_infer = |v: u64| v as f64 / BATCH as f64;
    m.set("setup_s", setup_s);
    m.set(
        "packets_per_ref_s",
        infers_per_s * per_infer(first.total_request_packets()),
    );
    m.set("dispatch_ref_ms_p50", op_ms);
    m.set(
        "sim_flit_hops_per_ref_s",
        infers_per_s * per_infer(first.stats.flit_hops),
    );
    out.derived.push(("infer_per_ref_s", infers_per_s));
    pool_bt_metrics(&ops, &pool, &mut out, &mut m);
    out.metrics = m;
    out
}

/// Pool-level metrics over the traced serve ops.
fn serve_layer_metrics(reports: &[ServeReport], m: &mut Metrics) {
    if reports.is_empty() {
        return;
    }
    let busy: u64 = reports
        .iter()
        .flat_map(|r| &r.per_session)
        .map(|s| s.busy_ms)
        .sum();
    let wall: u64 = reports.iter().map(|r| r.wall_ms).sum();
    m.set(
        "serve.busy_frac",
        busy as f64 / (SERVE_SESSIONS as f64 * wall.max(1) as f64),
    );
    let (fill_sum, fill_count) = reports.iter().fold((0.0, 0u64), |(s, c), r| {
        (
            s + r.batch_fill.mean() * r.batch_fill.count() as f64,
            c + r.batch_fill.count(),
        )
    });
    m.set(
        "serve.batch_fill_frac",
        fill_sum / fill_count.max(1) as f64 / BATCH as f64,
    );
    let depths: Vec<f64> = reports
        .iter()
        .map(|r| r.queue_depth.percentile(0.5) as f64)
        .collect();
    m.set("serve.queue_depth_p50", stats::median(&depths));
    let dispatches: Vec<f64> = reports
        .iter()
        .map(|r| r.per_session.iter().map(|s| s.dispatches).sum::<u64>() as f64)
        .collect();
    m.set("serve.dispatches", stats::median(&dispatches));
}
