//! The session pool: worker threads draining the request queue through
//! reusable accelerator sessions, with aggregate reporting.
//!
//! One [`InferenceSession`] per worker — config validation and the
//! encode-plan resolution happen once at pool construction, never per
//! request. Each dispatch coalesces up to
//! `batch_size` queued requests (the batching window) into one
//! `session.run` call on that worker's own mesh, so the fleet runs
//! `sessions` independent meshes concurrently while the bounded queue
//! provides admission control.

use crate::load::Request;
use crate::metrics::Histogram;
use crate::queue::BoundedQueue;
use btr_accel::config::AccelConfig;
use btr_accel::driver::{AccelError, InferenceSession};
use btr_dnn::model::InferenceOp;
use btr_dnn::tensor::Tensor;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Configuration of one service run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The per-session accelerator configuration. `accel.batch_size` is
    /// the **batching window**: each dispatch coalesces up to that many
    /// queued requests into one traffic phase per layer.
    pub accel: AccelConfig,
    /// Independent accelerator sessions (one mesh each).
    pub sessions: usize,
    /// Bound of the shared request queue (admission control: producers
    /// block when the fleet falls behind).
    pub queue_capacity: usize,
    /// Bounded-wait flush: how many dispatch-loop poll cycles a worker
    /// waits for a window to fill before flushing short. The bound is an
    /// iteration count, so trickle-load tail latency is capped
    /// deterministically in poll cycles rather than by an open-ended
    /// wall-clock timer.
    pub flush_polls: u32,
}

impl ServeConfig {
    /// Validates the service shape (the accel config validates itself at
    /// session construction).
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.sessions == 0 {
            return Err("service needs at least one session".into());
        }
        if self.queue_capacity == 0 {
            return Err("queue capacity must be positive".into());
        }
        self.accel.validate()
    }
}

/// Errors from [`serve`].
#[derive(Debug)]
pub enum ServeError {
    /// Invalid service configuration.
    Config(String),
    /// A session failed an inference with a non-transport error; the
    /// run was aborted and queued requests were discarded. (Transport
    /// retry-budget exhaustion under fault injection does *not* abort —
    /// it lands in [`ServeReport::failed`] instead.)
    Session {
        /// Index of the failing session.
        session: usize,
        /// The underlying accelerator error.
        error: AccelError,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(msg) => write!(f, "invalid service config: {msg}"),
            ServeError::Session { session, error } => {
                write!(f, "session {session} failed: {error}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Per-session slice of the aggregate report.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Session index, `0..sessions`.
    pub session: usize,
    /// Dispatches (batched `session.run` calls) this session served.
    pub dispatches: u64,
    /// Inferences completed (sum of dispatch batch sizes).
    pub inferences: u64,
    /// Bit transitions accumulated on this session's mesh.
    pub transitions: u64,
    /// Simulated cycles across this session's dispatches.
    pub cycles: u64,
    /// O2 index side-channel bits.
    pub index_overhead_bits: u64,
    /// Link-codec side-channel bits.
    pub codec_overhead_bits: u64,
    /// Per-flit EDC check-field bits.
    pub edc_overhead_bits: u64,
    /// Payload flits the NIs re-sent after NACKed deliveries.
    pub retransmitted_flits: u64,
    /// Packets that retried at least once and were delivered clean.
    pub retried_packets: u64,
    /// Requests whose dispatch exhausted the retry budget. The failure
    /// is batch-granular: the driver cannot attribute a dead packet to
    /// one batch element, so the whole window it rode in counts here.
    pub failed: u64,
    /// Wall milliseconds spent inside `session.run`.
    pub busy_ms: u64,
    /// Requests coalesced per dispatch.
    pub batch_fill: Histogram,
    /// Packet retries observed per request: each completed request
    /// records the retried-packet count of the dispatch that served it
    /// (retries are measured at dispatch granularity, so window
    /// companions share one sample value).
    pub retries: Histogram,
}

impl SessionReport {
    fn new(session: usize) -> Self {
        Self {
            session,
            dispatches: 0,
            inferences: 0,
            transitions: 0,
            cycles: 0,
            index_overhead_bits: 0,
            codec_overhead_bits: 0,
            edc_overhead_bits: 0,
            retransmitted_flits: 0,
            retried_packets: 0,
            failed: 0,
            busy_ms: 0,
            batch_fill: Histogram::new(),
            retries: Histogram::new(),
        }
    }
}

/// Aggregate outcome of one service run.
#[derive(Debug)]
pub struct ServeReport {
    /// One output tensor per request, indexed by request id. A failed
    /// request holds the empty placeholder tensor (`shape == [0]`).
    pub outputs: Vec<Tensor>,
    /// Requests completed (`completed + failed` equals the request
    /// count on success).
    pub completed: u64,
    /// Requests whose dispatch exhausted the transport retry budget.
    /// Unreliable-link failures are expected under fault injection, so
    /// they land here instead of aborting the pool — the other requests
    /// keep flowing.
    pub failed: u64,
    /// Wall milliseconds from first enqueue to pool shutdown.
    pub wall_ms: u64,
    /// Aggregate throughput over the whole run.
    pub inferences_per_sec: f64,
    /// Fleet-wide bit transitions (sum over sessions).
    pub transitions: u64,
    /// Fleet-wide O2 index side-channel bits.
    pub index_overhead_bits: u64,
    /// Fleet-wide link-codec side-channel bits.
    pub codec_overhead_bits: u64,
    /// Fleet-wide per-flit EDC check-field bits.
    pub edc_overhead_bits: u64,
    /// Fleet-wide payload flits re-sent after NACKed deliveries.
    pub retransmitted_flits: u64,
    /// Fleet-wide packets that retried at least once and recovered.
    pub retried_packets: u64,
    /// Queue depth observed at each dispatch.
    pub queue_depth: Histogram,
    /// Per-request latency (enqueue to response), microseconds.
    pub latency_us: Histogram,
    /// Requests coalesced per dispatch, fleet-wide.
    pub batch_fill: Histogram,
    /// Packet retries per completed request, fleet-wide (dispatch
    /// granularity; see [`SessionReport::retries`]).
    pub retries: Histogram,
    /// Per-session breakdown, in session order.
    pub per_session: Vec<SessionReport>,
}

/// One queued request plus its admission timestamp (the latency clock).
struct Queued {
    request: Request,
    enqueued: Instant,
}

/// What one worker hands back at shutdown.
struct WorkerDone {
    report: SessionReport,
    latency: Histogram,
    depth: Histogram,
}

/// Runs `requests` through a pool of `config.sessions` accelerator
/// sessions and returns the aggregate report. Request ids must be dense
/// (`0..requests.len()`, as [`crate::synthetic_requests`] produces);
/// outputs come back indexed by id, so serve-vs-sequential parity is a
/// slice comparison (`tests/serve_parity.rs`).
///
/// # Errors
///
/// Returns [`ServeError::Config`] on an invalid configuration or
/// non-dense request ids, [`ServeError::Session`] when any session's
/// inference fails with a non-transport error (the run aborts; queued
/// requests are discarded). Transport retry-budget exhaustion under
/// fault injection is *not* an error: the affected window counts in
/// [`ServeReport::failed`] and the pool keeps serving.
pub fn serve(
    ops: &[InferenceOp],
    config: &ServeConfig,
    requests: Vec<Request>,
) -> Result<ServeReport, ServeError> {
    config.validate().map_err(ServeError::Config)?;
    let total = requests.len();
    let mut seen = vec![false; total];
    for r in &requests {
        let id = r.id as usize;
        if id >= total || seen[id] {
            return Err(ServeError::Config(format!(
                "request ids must be dense 0..{total}: id {} is out of range or duplicated",
                r.id
            )));
        }
        seen[id] = true;
    }

    let window = config.accel.batch_size;
    let queue: BoundedQueue<Queued> = BoundedQueue::new(config.queue_capacity);
    let slots: Mutex<Vec<Option<Tensor>>> = Mutex::new(vec![None; total]);
    let failed = AtomicBool::new(false);
    let failure: Mutex<Option<ServeError>> = Mutex::new(None);
    let done: Mutex<Vec<WorkerDone>> = Mutex::new(Vec::new());

    let start = Instant::now();
    std::thread::scope(|s| {
        let queue_ref = &queue;
        s.spawn(move || {
            for request in requests {
                let item = Queued {
                    request,
                    enqueued: Instant::now(),
                };
                if queue_ref.push(item).is_err() {
                    // Closed early: a session failed and aborted the run.
                    return;
                }
            }
            queue_ref.close();
        });
        for session in 0..config.sessions {
            let (queue, slots, failed, failure, done) = (&queue, &slots, &failed, &failure, &done);
            let accel = &config.accel;
            let flush_polls = config.flush_polls;
            s.spawn(move || {
                run_worker(
                    session,
                    ops,
                    accel,
                    window,
                    flush_polls,
                    queue,
                    slots,
                    failed,
                    failure,
                    done,
                );
            });
        }
    });
    let wall = start.elapsed();

    if let Some(error) = failure.into_inner().expect("failure slot poisoned") {
        return Err(error);
    }
    let outputs: Vec<Tensor> = slots
        .into_inner()
        .expect("output slots poisoned")
        .into_iter()
        .map(|slot| slot.expect("every request slot filled (output or failure placeholder)"))
        .collect();

    let mut per_session: Vec<WorkerDone> = done.into_inner().expect("worker reports poisoned");
    per_session.sort_by_key(|d| d.report.session);
    let failed_total: u64 = per_session.iter().map(|d| d.report.failed).sum();
    let mut report = ServeReport {
        outputs,
        completed: total as u64 - failed_total,
        failed: failed_total,
        wall_ms: wall.as_millis() as u64,
        inferences_per_sec: if wall.as_secs_f64() > 0.0 {
            // Failed requests produced no inference; only completed
            // ones count toward throughput.
            (total as u64 - failed_total) as f64 / wall.as_secs_f64()
        } else {
            0.0
        },
        transitions: 0,
        index_overhead_bits: 0,
        codec_overhead_bits: 0,
        edc_overhead_bits: 0,
        retransmitted_flits: 0,
        retried_packets: 0,
        queue_depth: Histogram::new(),
        latency_us: Histogram::new(),
        batch_fill: Histogram::new(),
        retries: Histogram::new(),
        per_session: Vec::new(),
    };
    for worker in per_session {
        report.transitions += worker.report.transitions;
        report.index_overhead_bits += worker.report.index_overhead_bits;
        report.codec_overhead_bits += worker.report.codec_overhead_bits;
        report.edc_overhead_bits += worker.report.edc_overhead_bits;
        report.retransmitted_flits += worker.report.retransmitted_flits;
        report.retried_packets += worker.report.retried_packets;
        report.queue_depth.merge(&worker.depth);
        report.latency_us.merge(&worker.latency);
        report.batch_fill.merge(&worker.report.batch_fill);
        report.retries.merge(&worker.report.retries);
        report.per_session.push(worker.report);
    }
    Ok(report)
}

/// One pool worker: owns a session, drains coalesced batches until the
/// queue closes (or any session fails), then files its report.
///
/// Owning the session (rather than building one per dispatch) is what
/// lets the driver's per-layer encode caches pay off under load: the
/// pre-rendered weight flit templates are built
/// by the worker's first dispatch and reused verbatim by every later
/// request the worker serves — the weight side of an op never changes
/// within a service's lifetime.
#[allow(clippy::too_many_arguments)]
fn run_worker(
    session_index: usize,
    ops: &[InferenceOp],
    accel: &AccelConfig,
    window: usize,
    flush_polls: u32,
    queue: &BoundedQueue<Queued>,
    slots: &Mutex<Vec<Option<Tensor>>>,
    failed: &AtomicBool,
    failure: &Mutex<Option<ServeError>>,
    done: &Mutex<Vec<WorkerDone>>,
) {
    let fail = |error: AccelError| {
        failed.store(true, Ordering::Release);
        let mut slot = failure.lock().expect("failure slot poisoned");
        if slot.is_none() {
            *slot = Some(ServeError::Session {
                session: session_index,
                error,
            });
        }
        drop(slot);
        queue.abort();
    };
    let session = match InferenceSession::new(ops, accel.clone()) {
        Ok(session) => session,
        Err(e) => {
            fail(e);
            return;
        }
    };
    let mut report = SessionReport::new(session_index);
    let mut latency = Histogram::new();
    let mut depth = Histogram::new();
    let mut busy = Duration::ZERO;
    let mut inputs: Vec<Tensor> = Vec::with_capacity(window);
    let mut meta: Vec<(u64, Instant)> = Vec::with_capacity(window);
    loop {
        if failed.load(Ordering::Acquire) {
            break;
        }
        let batch = queue.pop_batch(window, flush_polls);
        if batch.items.is_empty() {
            break;
        }
        depth.record(batch.depth as u64);
        // The worker owns the popped requests: move the tensors into the
        // dispatch buffer instead of deep-cloning them.
        inputs.clear();
        meta.clear();
        for q in batch.items {
            meta.push((q.request.id, q.enqueued));
            inputs.push(q.request.input);
        }
        let dispatched = Instant::now();
        match session.run(&inputs) {
            Ok(result) => {
                busy += dispatched.elapsed();
                {
                    let mut slots = slots.lock().expect("output slots poisoned");
                    for (&(id, _), output) in meta.iter().zip(result.outputs) {
                        slots[id as usize] = Some(output);
                    }
                }
                for &(_, enqueued) in &meta {
                    latency.record(enqueued.elapsed().as_micros() as u64);
                }
                report.dispatches += 1;
                report.inferences += meta.len() as u64;
                report.transitions += result.stats.total_transitions;
                report.cycles += result.total_cycles;
                report.index_overhead_bits += result.index_overhead_bits;
                report.codec_overhead_bits += result.codec_overhead_bits;
                report.edc_overhead_bits += result.edc_overhead_bits;
                report.retransmitted_flits += result.retransmitted_flits;
                report.retried_packets += result.retried_packets;
                report.batch_fill.record(meta.len() as u64);
                for _ in &meta {
                    report.retries.record(result.retried_packets);
                }
            }
            // A packet that exhausted its transport retry budget kills
            // only the window it rode in: the driver cannot attribute
            // the dead packet to one batch element, so every request in
            // the dispatch fails with a placeholder output and the pool
            // keeps draining. Each dispatch runs on a fresh mesh, so
            // the session itself stays healthy.
            Err(AccelError::Unrecoverable { .. }) => {
                report.dispatches += 1;
                report.failed += meta.len() as u64;
                let mut slots = slots.lock().expect("output slots poisoned");
                for &(id, _) in &meta {
                    slots[id as usize] = Some(Tensor::zeros(&[0]));
                }
            }
            Err(e) => {
                fail(e);
                break;
            }
        }
    }
    report.busy_ms = busy.as_millis() as u64;
    done.lock()
        .expect("worker reports poisoned")
        .push(WorkerDone {
            report,
            latency,
            depth,
        });
}
