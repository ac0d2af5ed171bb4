//! The parallel sweep runner: one `Simulator` per grid cell, fanned out
//! over scoped threads ([`par_run`]), results as machine-readable JSON.
//!
//! A sweep is a grid over `(workload × mesh × data format × ordering ×
//! tiebreak × fx8 scheme × link codec × codec scope × batch size ×
//! engine × BER × EDC × resync)`. Every cell runs a complete (batched)
//! inference through its own flat-array simulator
//! (cells share nothing, so they parallelize perfectly), and the outcome
//! carries the figures the paper's evaluation reports: total bit
//! transitions, cycles, flit-hops, latency, index/codec/EDC side-channel
//! overhead, and the fault-recovery metrics (retransmitted flits,
//! retried packets, clean-first-try delivery fraction).
//!
//! The `sweep` binary (including its `fig12_noc_sizes` / `fig13_models`
//! presets, the retired per-figure binaries) is a thin front-end over
//! [`expand_grid`] + [`run_cells`] + [`outcomes_json`]; see
//! `EXPERIMENTS.md` for the JSON schema (`btr-sweep-v8`) and usage
//! examples. Grids can span machines: a [`Shard`] selects a deterministic
//! subset of the expanded cells and [`merge_sweep_json`] recombines the
//! per-shard result files.

use crate::json::Json;
use btr_accel::config::{AccelConfig, DriverMode};
use btr_accel::driver::run_inference_batch;
use btr_bits::word::DataFormat;
use btr_core::codec::{CodecKind, CodecScope, ResyncPolicy};
use btr_core::edc::EdcKind;
use btr_core::ordering::{OrderingMethod, TieBreak};
use btr_dnn::model::InferenceOp;
use btr_dnn::tensor::Tensor;
use btr_noc::fault::{BitErrorRate, ErrorModel, FaultMode};
use btr_noc::EngineMode;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The sweep result schema version (`codec` axis added in v2, `batch`
/// axis in v3, `distinct_inputs` in v4, `codec_scope` + `link_energy_mj`
/// in v5, `engine` + `analytic_phase_fraction` in v6, `ber`/`edc`/
/// `resync` axes + `edc_overhead_bits`/`retransmitted_flits`/
/// `retried_packets`/`delivered_ok_fraction` in v7, `fault_mode` axis
/// in v8).
///
/// This is the canonical declaration `btr-lint`'s schema-coherence rule
/// checks every other `btr-sweep-v*` occurrence against.
pub const SWEEP_SCHEMA: &str = "btr-sweep-v8";

/// The cell fields that describe how a run went rather than what it
/// measured: the wall clock, the engine mode, and the share of layers
/// that replayed a recording (which depends on what ran earlier in the
/// process). Every other field is byte-stable across engines, hosts and
/// thread counts; [`strip_timing`] removes these before such documents
/// are compared.
pub const TIMING_FIELDS: [&str; 3] = ["wall_ms", "engine", "analytic_phase_fraction"];

/// `doc` without any [`TIMING_FIELDS`] entry, in objects at any depth.
#[must_use]
// btr-lint: allow(test-only-pub, reason = "tests/sweep_engine_parity.rs diffs its sweep documents through it")
pub fn strip_timing(doc: &Json) -> Json {
    match doc {
        Json::Obj(fields) => Json::Obj(
            fields
                .iter()
                .filter(|(key, _)| !TIMING_FIELDS.contains(&key.as_str()))
                .map(|(key, value)| (key.clone(), strip_timing(value)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.iter().map(strip_timing).collect()),
        other => other.clone(),
    }
}

/// Seed of the deterministic per-link fault streams every error-injected
/// cell uses. One fixed constant, so two runs of the same grid (and the
/// shards of a split grid) flip identical bits.
pub const FAULT_SEED: u64 = 0xB17;

/// Retry budget armed in fault-injected cells; a packet still dirty
/// after this many replays fails the whole cell loudly (its row carries
/// the error).
pub const FAULT_RETRY_BUDGET: u32 = 8;

/// A named inference workload (model lowered to ops + a pool of input
/// tensors batched cells draw from).
#[derive(Debug, Clone)]
pub struct Workload {
    /// Display name (`"LeNet"`, `"DarkNet"`, ...).
    pub name: String,
    /// The lowered inference graph.
    pub ops: Vec<InferenceOp>,
    /// Input tensors; a cell with batch `N` uses the first `N`. The pool
    /// must hold at least the max sweep batch — cells never cycle it.
    pub inputs: Vec<Tensor>,
}

impl Workload {
    /// The first `batch` inputs from the pool.
    ///
    /// # Errors
    ///
    /// Errors when the pool holds fewer than `batch` inputs. The old
    /// behavior — silently cycling the pool — replayed identical inputs
    /// in large-batch cells, and that correlated traffic flattered the
    /// reduction numbers; workload builders must size the pool to the
    /// max sweep batch instead (the `sweep` binary does).
    pub fn batch_inputs(&self, batch: usize) -> Result<Vec<Tensor>, String> {
        if self.inputs.len() < batch {
            return Err(format!(
                "workload {:?} has {} distinct inputs but the cell needs batch {batch}; \
                 size the input pool to the max sweep batch",
                self.name,
                self.inputs.len()
            ));
        }
        Ok(self.inputs[..batch].to_vec())
    }
}

/// A mesh geometry: `width × height` with `mc_count` memory controllers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeshSpec {
    /// Mesh columns.
    pub width: usize,
    /// Mesh rows.
    pub height: usize,
    /// Memory-controller count (left/right edge pairs).
    pub mc_count: usize,
}

impl MeshSpec {
    /// The paper's three NoC sizes (Sec. V-B-1).
    pub const PAPER: [MeshSpec; 3] = [
        MeshSpec {
            width: 4,
            height: 4,
            mc_count: 2,
        },
        MeshSpec {
            width: 8,
            height: 8,
            mc_count: 4,
        },
        MeshSpec {
            width: 8,
            height: 8,
            mc_count: 8,
        },
    ];

    /// Short label, e.g. `"4x4 MC2"`.
    #[must_use]
    pub fn label(&self) -> String {
        format!("{}x{} MC{}", self.width, self.height, self.mc_count)
    }
}

impl std::fmt::Display for MeshSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

impl std::str::FromStr for MeshSpec {
    type Err = String;

    /// Parses `"WxHxMC"`, e.g. `"8x8x4"`, and rejects geometries the
    /// paper's edge-pair MC placement cannot build: fewer than 2 columns
    /// or 1 row, and an MC count that is zero, odd or above `2 × H`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let parts: Vec<&str> = s.split('x').collect();
        if parts.len() != 3 {
            return Err(format!("mesh spec {s:?} is not WxHxMC (e.g. 8x8x4)"));
        }
        let parse = |part: &str, what: &str| -> Result<usize, String> {
            part.parse()
                .map_err(|e| format!("bad {what} in mesh spec {s:?}: {e}"))
        };
        let spec = MeshSpec {
            width: parse(parts[0], "width")?,
            height: parse(parts[1], "height")?,
            mc_count: parse(parts[2], "MC count")?,
        };
        if spec.width < 2 || spec.height == 0 {
            return Err(format!(
                "mesh spec {s:?} needs at least 2 columns and 1 row"
            ));
        }
        let pairs_fit = (2..=2 * spec.height).contains(&spec.mc_count);
        if !pairs_fit || !spec.mc_count.is_multiple_of(2) {
            return Err(format!(
                "mesh spec {s:?}: MC count must be even and in 2..={} \
                 (left/right edge pairs)",
                2 * spec.height
            ));
        }
        Ok(spec)
    }
}

/// One cell of the sweep grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SweepCell {
    /// Index into the workload list.
    pub workload: usize,
    /// Mesh geometry.
    pub mesh: MeshSpec,
    /// Payload data format.
    pub format: DataFormat,
    /// Transmission ordering.
    // btr-lint: allow(sweep-axis-completeness, reason = "ordering is the axis the baseline key deliberately normalizes away: a cell's baseline row is the same cell with ordering=O0")
    pub ordering: OrderingMethod,
    /// Popcount-tie handling.
    pub tiebreak: TieBreak,
    /// Global Q0.7 fixed-8 weight quantization (sensitivity variant).
    pub fx8_global: bool,
    /// Link-coding backend on every link.
    pub codec: CodecKind,
    /// Where the codec state lives: re-seeded per packet at the MC, or
    /// persistent on each directed link across packets/batches/layers.
    pub scope: CodecScope,
    /// Inputs run through each layer as one traffic phase.
    pub batch: usize,
    /// Which engine evaluates the cell's traffic: the cycle-accurate
    /// mesh, or record once, replay — each layer shape steps and records
    /// once per process, and later layers of that shape replay the
    /// recording.
    pub engine: EngineMode,
    /// Per-directed-link bit-error rate (zero = perfect wires). Stored
    /// as the exact [`BitErrorRate`] threshold so cells stay `Eq`/`Hash`.
    pub ber: BitErrorRate,
    /// EDC check field carried on every flit frame. [`EdcKind::None`]
    /// with a zero BER is the plain perfect-wire cell; any other
    /// combination arms the recovery protocol.
    pub edc: EdcKind,
    /// Codec-lane resync policy at retransmission boundaries (only
    /// observable with a stateful per-link codec under errors).
    pub resync: ResyncPolicy,
    /// Error process shape: independent per-bit flips, or per-flit
    /// burst events flipping a contiguous wire run. At BER zero the
    /// mode is inert (no draws happen either way).
    pub fault_mode: FaultMode,
    /// Harness-only knob (never serialized, not part of the baseline
    /// key): arm the full EDC/retry receive path even at BER zero, so
    /// zero-BER equivalence with the plain path can be pinned by
    /// diffing result files.
    // btr-lint: allow(sweep-axis-completeness, reason = "fault_armed is a harness-only equivalence-test switch; it must never reach result rows or baseline keys precisely so armed and plain runs serialize identically")
    pub fault_armed: bool,
}

impl SweepCell {
    /// True when this cell runs the fault/EDC/retransmission protocol
    /// (real errors, an explicit EDC, or the harness arming knob).
    #[must_use]
    pub fn runs_fault_protocol(&self) -> bool {
        !self.ber.is_zero() || self.edc != EdcKind::None || self.fault_armed
    }
}

/// The measured outcome of one cell.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The cell that produced this outcome.
    pub cell: SweepCell,
    /// Total bit transitions over every link.
    pub transitions: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Total flit-hops.
    pub flit_hops: u64,
    /// Request packets sent MC→PE.
    pub request_packets: u64,
    /// Mean packet latency in cycles.
    pub mean_latency: f64,
    /// O2 index side-channel overhead in bits.
    pub index_overhead_bits: u64,
    /// Link-codec side-channel overhead in bits (the bus-invert line).
    pub codec_overhead_bits: u64,
    /// Link energy of the recorded (coded-wire) transitions in
    /// millijoules, under the paper's extracted 0.173 pJ/transition model
    /// (`btr_hw::link_energy`) — computed from the transitions the
    /// simulated scope actually put on the wires. Retry-inclusive: a
    /// retransmitted packet traverses (and toggles) the wires again, and
    /// those transitions land in the same counters, so under errors this
    /// is the net energy of delivering everything clean.
    pub link_energy_mj: f64,
    /// Per-flit EDC check-field overhead in bits (the CRC/parity wires).
    pub edc_overhead_bits: u64,
    /// Payload flits the NIs re-sent after NACKed deliveries.
    pub retransmitted_flits: u64,
    /// Logical packets that needed at least one retransmission before
    /// arriving clean.
    pub retried_packets: u64,
    /// Fraction of logical packets (requests + responses) delivered
    /// clean on their first attempt: `1 - retried_packets / (2 ×
    /// request_packets)`. Exactly 1.0 on perfect wires.
    pub delivered_ok_fraction: f64,
    /// Distinct inputs the batch ran (equals `batch` since pools no
    /// longer cycle; recorded so result files are auditable).
    pub distinct_inputs: u64,
    /// Fraction of NoC layers that replayed a recording (0.0 under
    /// `cycle`; under `auto` the layers whose shape an earlier layer of
    /// the process recorded). A timing field ([`TIMING_FIELDS`]).
    pub analytic_phase_fraction: f64,
    /// Wall-clock milliseconds the cell took.
    pub wall_ms: u64,
    /// Error message if the cell failed (metrics are zero then).
    pub error: Option<String>,
}

/// Expands the full cross product into cells.
#[allow(clippy::too_many_arguments)]
#[must_use]
pub fn expand_grid(
    workloads: usize,
    meshes: &[MeshSpec],
    formats: &[DataFormat],
    orderings: &[OrderingMethod],
    tiebreaks: &[TieBreak],
    fx8_globals: &[bool],
    codecs: &[CodecKind],
    scopes: &[CodecScope],
    batches: &[usize],
    engines: &[EngineMode],
    bers: &[BitErrorRate],
    edcs: &[EdcKind],
    resyncs: &[ResyncPolicy],
    fault_modes: &[FaultMode],
) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    for w in 0..workloads {
        for &mesh in meshes {
            for &format in formats {
                for &ordering in orderings {
                    for &tiebreak in tiebreaks {
                        for &fx8_global in fx8_globals {
                            for &codec in codecs {
                                for &scope in scopes {
                                    for &batch in batches {
                                        for &engine in engines {
                                            for &ber in bers {
                                                for &edc in edcs {
                                                    for &resync in resyncs {
                                                        for &fault_mode in fault_modes {
                                                            cells.push(SweepCell {
                                                                workload: w,
                                                                mesh,
                                                                format,
                                                                ordering,
                                                                tiebreak,
                                                                fx8_global,
                                                                codec,
                                                                scope,
                                                                batch,
                                                                engine,
                                                                ber,
                                                                edc,
                                                                resync,
                                                                fault_mode,
                                                                fault_armed: false,
                                                            });
                                                        }
                                                    }
                                                }
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }
    cells
}

/// Runs one cell on its own simulator with the default (pipelined)
/// driver. Batched cells run `cell.batch` inputs through each layer as
/// one traffic phase.
#[must_use]
pub fn run_cell(workloads: &[Workload], cell: SweepCell) -> CellOutcome {
    run_cell_with(workloads, cell, DriverMode::Pipelined)
}

/// [`run_cell`] with an explicit driver mode (both modes produce
/// bit-identical metrics; `sync` exists for timing the unpipelined
/// reference).
#[must_use]
pub fn run_cell_with(workloads: &[Workload], cell: SweepCell, driver: DriverMode) -> CellOutcome {
    // btr-lint: allow(determinism, reason = "feeds only the wall_ms report field, which every equivalence diff strips; no simulated quantity depends on it")
    let start = std::time::Instant::now();
    let error_outcome = |e: String| CellOutcome {
        cell,
        transitions: 0,
        cycles: 0,
        flit_hops: 0,
        request_packets: 0,
        mean_latency: 0.0,
        index_overhead_bits: 0,
        codec_overhead_bits: 0,
        link_energy_mj: 0.0,
        edc_overhead_bits: 0,
        retransmitted_flits: 0,
        retried_packets: 0,
        delivered_ok_fraction: 0.0,
        distinct_inputs: 0,
        analytic_phase_fraction: 0.0,
        wall_ms: start.elapsed().as_millis() as u64,
        error: Some(e),
    };
    let workload = &workloads[cell.workload];
    let mut config = AccelConfig::paper(
        cell.mesh.width,
        cell.mesh.height,
        cell.mesh.mc_count,
        cell.format,
        cell.ordering,
    )
    .with_codec(cell.codec)
    .with_codec_scope(cell.scope);
    if cell.edc != EdcKind::None {
        config = config.with_edc(cell.edc);
    }
    if cell.runs_fault_protocol() {
        config = config.with_fault(
            ErrorModel {
                ber: cell.ber,
                seed: FAULT_SEED,
                mode: cell.fault_mode,
            },
            cell.resync,
            FAULT_RETRY_BUDGET,
        );
    }
    config.tiebreak = cell.tiebreak;
    config.global_fx8_weights = cell.fx8_global;
    config.batch_size = cell.batch;
    config.driver = driver;
    config.engine = cell.engine;
    let inputs = match workload.batch_inputs(cell.batch) {
        Ok(inputs) => inputs,
        Err(e) => return error_outcome(e),
    };
    match run_inference_batch(&workload.ops, &inputs, &config) {
        Ok(result) => {
            let request_packets = result.total_request_packets();
            // Every request packet has a matching response, so the
            // logical packet population is twice the request count.
            let logical_packets = 2 * request_packets;
            CellOutcome {
                cell,
                transitions: result.stats.total_transitions,
                cycles: result.total_cycles,
                flit_hops: result.stats.flit_hops,
                request_packets,
                mean_latency: result.stats.latency.mean,
                index_overhead_bits: result.index_overhead_bits,
                codec_overhead_bits: result.codec_overhead_bits,
                link_energy_mj: btr_hw::link_energy::LinkPowerModel::paper()
                    .energy_mj(result.stats.total_transitions),
                edc_overhead_bits: result.edc_overhead_bits,
                retransmitted_flits: result.retransmitted_flits,
                retried_packets: result.retried_packets,
                delivered_ok_fraction: if logical_packets == 0 {
                    1.0
                } else {
                    1.0 - result.retried_packets as f64 / logical_packets as f64
                },
                distinct_inputs: inputs.len() as u64,
                analytic_phase_fraction: result.analytic_phase_fraction(),
                wall_ms: start.elapsed().as_millis() as u64,
                error: None,
            }
        }
        Err(e) => error_outcome(e.to_string()),
    }
}

/// Runs a list of independent jobs and returns their results in input
/// order: one after another when `sequential` is set, otherwise on
/// scoped threads — one per available hart, at most one per job — that
/// each claim the next unclaimed job through a shared cursor.
///
/// # Panics
///
/// Re-raises a panic of any job.
pub fn par_run<T: Send, R: Send>(
    items: Vec<T>,
    sequential: bool,
    f: impl Fn(T) -> R + Sync,
) -> Vec<R> {
    let n = items.len();
    let harts = std::thread::available_parallelism().map_or(4, NonZeroUsize::get);
    if sequential || n <= 1 || harts == 1 {
        return items.into_iter().map(f).collect();
    }
    let jobs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..harts.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(job) = jobs.get(i) else {
                    break;
                };
                let job = job.lock().expect("job slot").take().expect("claimed once");
                let result = f(job);
                *results[i].lock().expect("result slot") = Some(result);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.into_inner().expect("result slot").expect("every job ran"))
        .collect()
}

/// Runs every cell of a sweep (cell order is preserved in the output).
#[must_use]
pub fn run_cells(
    workloads: &[Workload],
    cells: Vec<SweepCell>,
    sequential: bool,
) -> Vec<CellOutcome> {
    par_run(cells, sequential, |cell| run_cell(workloads, cell))
}

/// [`run_cells`] with an explicit driver mode.
#[must_use]
// btr-lint: allow(test-only-pub, reason = "perfbench's paper-grid workload runs its cells through it")
pub fn run_cells_with(
    workloads: &[Workload],
    cells: Vec<SweepCell>,
    sequential: bool,
    driver: DriverMode,
) -> Vec<CellOutcome> {
    par_run(cells, sequential, |cell| {
        run_cell_with(workloads, cell, driver)
    })
}

/// Serializes outcomes to the sweep schema. Baselines are resolved
/// through the same single-pass recompute the shard merge uses
/// ([`merge_sweep_json`]), so serialization is O(cells), not O(cells²),
/// and the two paths cannot drift.
#[must_use]
pub fn outcomes_json(workloads: &[Workload], outcomes: &[CellOutcome]) -> Json {
    let mut cells: Vec<Json> = outcomes
        .iter()
        .map(|o| {
            Json::obj(vec![
                (
                    "workload",
                    Json::str(workloads[o.cell.workload].name.clone()),
                ),
                ("mesh", Json::str(o.cell.mesh.label())),
                ("format", Json::str(o.cell.format.name())),
                ("ordering", Json::str(o.cell.ordering.label())),
                (
                    "tiebreak",
                    Json::str(format!("{:?}", o.cell.tiebreak).to_lowercase()),
                ),
                ("fx8_global", Json::Bool(o.cell.fx8_global)),
                ("codec", Json::str(o.cell.codec.label())),
                ("codec_scope", Json::str(o.cell.scope.label())),
                ("batch", Json::U64(o.cell.batch as u64)),
                ("engine", Json::str(o.cell.engine.label())),
                ("ber", Json::F64(o.cell.ber.as_f64())),
                ("edc", Json::str(o.cell.edc.label())),
                ("resync", Json::str(o.cell.resync.label())),
                ("fault_mode", Json::str(o.cell.fault_mode.label())),
                ("transitions", Json::U64(o.transitions)),
                ("cycles", Json::U64(o.cycles)),
                ("flit_hops", Json::U64(o.flit_hops)),
                ("request_packets", Json::U64(o.request_packets)),
                ("mean_latency", Json::F64(o.mean_latency)),
                ("index_overhead_bits", Json::U64(o.index_overhead_bits)),
                ("codec_overhead_bits", Json::U64(o.codec_overhead_bits)),
                ("link_energy_mj", Json::F64(o.link_energy_mj)),
                ("edc_overhead_bits", Json::U64(o.edc_overhead_bits)),
                ("retransmitted_flits", Json::U64(o.retransmitted_flits)),
                ("retried_packets", Json::U64(o.retried_packets)),
                ("delivered_ok_fraction", Json::F64(o.delivered_ok_fraction)),
                ("distinct_inputs", Json::U64(o.distinct_inputs)),
                (
                    "analytic_phase_fraction",
                    Json::F64(o.analytic_phase_fraction),
                ),
                ("reduction_vs_baseline", Json::Null),
                ("wall_ms", Json::U64(o.wall_ms)),
                ("error", o.error.clone().map_or(Json::Null, Json::Str)),
            ])
        })
        .collect();
    recompute_reductions(&mut cells);
    Json::obj(vec![
        ("schema", Json::str(SWEEP_SCHEMA)),
        ("cells", Json::Arr(cells)),
    ])
}

/// A deterministic `index/count` slice of a cell list, so one grid can
/// span processes or hosts: shard `i/n` keeps the cells whose expansion
/// index is `i` modulo `n`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// This shard's index, `0 <= index < count`.
    pub index: usize,
    /// Total number of shards.
    pub count: usize,
}

impl Shard {
    /// The whole grid as one shard.
    pub const WHOLE: Shard = Shard { index: 0, count: 1 };

    /// Keeps this shard's cells (modulo split over the expansion order).
    #[must_use]
    pub fn select<T>(&self, cells: Vec<T>) -> Vec<T> {
        cells
            .into_iter()
            .enumerate()
            .filter(|(i, _)| i % self.count == self.index)
            .map(|(_, cell)| cell)
            .collect()
    }
}

impl std::fmt::Display for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

impl std::str::FromStr for Shard {
    type Err = String;

    /// Parses `"i/n"` with `i < n`, e.g. `"0/4"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let Some((index, count)) = s.split_once('/') else {
            return Err(format!("shard {s:?} is not i/n (e.g. 0/4)"));
        };
        let index: usize = index
            .parse()
            .map_err(|e| format!("bad shard index in {s:?}: {e}"))?;
        let count: usize = count
            .parse()
            .map_err(|e| format!("bad shard count in {s:?}: {e}"))?;
        if count == 0 {
            return Err("shard count must be positive".into());
        }
        if index >= count {
            return Err(format!("shard index {index} must be < count {count}"));
        }
        Ok(Shard { index, count })
    }
}

/// Merges sweep result documents produced by sharded runs: validates
/// that every input carries the same `schema` string and a `cells`
/// array, concatenates the cells in input order, and recomputes
/// `reduction_vs_baseline` across the merged set — sharding splits a
/// cell from its O0 baseline, so per-shard files carry `null` there
/// until the shards are recombined.
///
/// # Errors
///
/// Returns a description of the first malformed or mismatched input
/// (`label` names the offending document in the message), or of the
/// first cell whose coordinates (the `BASELINE_KEY_FIELDS` plus
/// `ordering`) repeat an earlier cell's, naming both documents.
pub fn merge_sweep_json(docs: &[(String, Json)]) -> Result<Json, String> {
    let mut schema: Option<&str> = None;
    let mut cells = Vec::new();
    let mut origin: std::collections::HashMap<String, &str> = std::collections::HashMap::new();
    for (label, doc) in docs {
        let got = doc
            .get("schema")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{label}: missing \"schema\" string"))?;
        match schema {
            None => schema = Some(got),
            Some(want) if want == got => {}
            Some(want) => {
                return Err(format!("{label}: schema {got:?} does not match {want:?}"));
            }
        }
        let Some(Json::Arr(items)) = doc.get("cells") else {
            return Err(format!("{label}: missing \"cells\" array"));
        };
        for cell in items {
            let Some(ordering) = cell.get("ordering").and_then(Json::as_str) else {
                continue;
            };
            if let Some(first) = origin.insert(baseline_key(cell) + ordering, label) {
                return Err(format!(
                    "{label}: an {ordering} cell repeats the coordinates of one in {first}"
                ));
            }
        }
        cells.extend(items.iter().cloned());
    }
    let schema = schema.ok_or_else(|| "no input documents".to_string())?;
    recompute_reductions(&mut cells);
    Ok(Json::obj(vec![
        ("schema", Json::str(schema)),
        ("cells", Json::Arr(cells)),
    ]))
}

/// The non-ordering coordinates identifying a cell's baseline row, as
/// serialized in the result JSON.
const BASELINE_KEY_FIELDS: [&str; 13] = [
    "workload",
    "mesh",
    "format",
    "tiebreak",
    "fx8_global",
    "codec",
    "codec_scope",
    "batch",
    "engine",
    "ber",
    "edc",
    "resync",
    "fault_mode",
];

fn baseline_key(cell: &Json) -> String {
    let mut key = String::new();
    for field in BASELINE_KEY_FIELDS {
        // v1 files predate the codec axis; treat the field as absent
        // uniformly so their keys still line up.
        let value = cell
            .get(field)
            .map_or_else(String::new, Json::to_string_compact);
        key.push_str(&value);
        key.push('\u{1f}');
    }
    key
}

/// Recomputes every cell's `reduction_vs_baseline` against the O0 cell
/// with the same coordinates anywhere in `cells`. Cells without an
/// `ordering`/`transitions` field are left untouched.
fn recompute_reductions(cells: &mut [Json]) {
    let mut baselines: std::collections::HashMap<String, u64> = std::collections::HashMap::new();
    for cell in cells.iter() {
        if cell.get("ordering").and_then(Json::as_str) == Some(OrderingMethod::Baseline.label()) {
            if let Some(&Json::U64(t)) = cell.get("transitions") {
                if t > 0 {
                    baselines.insert(baseline_key(cell), t);
                }
            }
        }
    }
    for cell in cells.iter_mut() {
        let Some(&Json::U64(t)) = cell.get("transitions") else {
            continue;
        };
        if cell.get("ordering").and_then(Json::as_str).is_none() {
            continue;
        }
        let reduction = baselines
            .get(&baseline_key(cell))
            .map(|&base| 1.0 - t as f64 / base as f64);
        if let Json::Obj(fields) = cell {
            if let Some((_, slot)) = fields
                .iter_mut()
                .find(|(k, _)| k == "reduction_vs_baseline")
            {
                *slot = reduction.map_or(Json::Null, Json::F64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The baseline (O0, same codec) outcome matching a cell's other
    /// coordinates, by linear scan.
    fn baseline_of<'a>(outcomes: &'a [CellOutcome], cell: &SweepCell) -> Option<&'a CellOutcome> {
        let key = SweepCell {
            ordering: OrderingMethod::Baseline,
            ..*cell
        };
        outcomes.iter().find(|o| o.cell == key)
    }
    use btr_dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
    use btr_dnn::model::{Layer, Sequential};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn tiny_workload() -> Workload {
        let mut rng = StdRng::seed_from_u64(1);
        let model = Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(1, 2, 3, 1, 1, &mut rng)),
            Layer::Activation(Activation::new(ActKind::ReLU)),
            Layer::MaxPool2d(MaxPool2d::new(2, 2)),
            Layer::Flatten(Flatten::new()),
            Layer::Linear(Linear::new(2 * 4 * 4, 4, &mut rng)),
        ]);
        // A pool of distinct inputs sized for the largest batch a test
        // uses: batched cells must never replay an input.
        let inputs: Vec<Tensor> = (0..4)
            .map(|_| {
                Tensor::from_vec(
                    &[1, 8, 8],
                    (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
                )
                .unwrap()
            })
            .collect();
        Workload {
            name: "tiny".into(),
            ops: model.inference_ops(),
            inputs,
        }
    }

    #[test]
    fn mesh_spec_parses_and_prints() {
        let m: MeshSpec = "8x8x4".parse().unwrap();
        assert_eq!(
            m,
            MeshSpec {
                width: 8,
                height: 8,
                mc_count: 4
            }
        );
        assert_eq!(m.label(), "8x8 MC4");
        assert!("8x8".parse::<MeshSpec>().is_err());
        assert!("axbxc".parse::<MeshSpec>().is_err());
    }

    #[test]
    fn grid_expansion_counts() {
        let cells = expand_grid(
            2,
            &MeshSpec::PAPER,
            &[DataFormat::Float32, DataFormat::Fixed8],
            &OrderingMethod::ALL,
            &[TieBreak::Stable],
            &[false],
            &CodecKind::ALL,
            &[CodecScope::PerPacket],
            &[1],
            &[EngineMode::Cycle],
            &[BitErrorRate::default()],
            &[EdcKind::None],
            &[ResyncPolicy::ReseedOnRetry],
            &[FaultMode::PerFlit],
        );
        assert_eq!(cells.len(), 2 * 3 * 2 * 3 * 3);
    }

    #[test]
    fn shards_partition_the_grid() {
        let cells = expand_grid(
            1,
            &MeshSpec::PAPER,
            &[DataFormat::Fixed8],
            &OrderingMethod::ALL,
            &[TieBreak::Stable],
            &[false],
            &CodecKind::ALL,
            &[CodecScope::PerPacket],
            &[1],
            &[EngineMode::Cycle],
            &[BitErrorRate::default()],
            &[EdcKind::None],
            &[ResyncPolicy::ReseedOnRetry],
            &[FaultMode::PerFlit],
        );
        let shards: Vec<Vec<SweepCell>> = (0..4)
            .map(|i| Shard { index: i, count: 4 }.select(cells.clone()))
            .collect();
        // Every cell lands in exactly one shard, order preserved.
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, cells.len());
        let mut merged: Vec<SweepCell> = shards.into_iter().flatten().collect();
        merged.sort_by_key(|c| cells.iter().position(|x| x == c).unwrap());
        assert_eq!(merged, cells);
        assert_eq!(Shard::WHOLE.select(cells.clone()), cells);
    }

    #[test]
    fn shard_parses_and_rejects() {
        assert_eq!("0/4".parse::<Shard>(), Ok(Shard { index: 0, count: 4 }));
        assert_eq!("3/4".parse::<Shard>().unwrap().to_string(), "3/4");
        assert!("4/4".parse::<Shard>().is_err());
        assert!("1/0".parse::<Shard>().is_err());
        assert!("1".parse::<Shard>().is_err());
        assert!("a/b".parse::<Shard>().is_err());
    }

    #[test]
    fn merge_concatenates_and_validates() {
        let doc = |n: u64| {
            Json::obj(vec![
                ("schema", Json::str(SWEEP_SCHEMA)),
                ("cells", Json::Arr(vec![Json::U64(n)])),
            ])
        };
        let merged =
            merge_sweep_json(&[("a.json".into(), doc(1)), ("b.json".into(), doc(2))]).unwrap();
        assert_eq!(
            merged.get("cells"),
            Some(&Json::Arr(vec![Json::U64(1), Json::U64(2)]))
        );
        assert_eq!(
            merged.get("schema").and_then(Json::as_str),
            Some(SWEEP_SCHEMA)
        );
        // Schema mismatch and malformed docs are rejected with the label.
        let old = Json::obj(vec![
            // btr-lint: allow(schema-coherence, reason = "deliberately stale version string exercising the merge schema-mismatch rejection")
            ("schema", Json::str("btr-sweep-v1")),
            ("cells", Json::Arr(vec![])),
        ]);
        let err =
            merge_sweep_json(&[("a.json".into(), doc(1)), ("old.json".into(), old)]).unwrap_err();
        assert!(err.contains("old.json"), "{err}");
        assert!(merge_sweep_json(&[("x".into(), Json::U64(3))]).is_err());
        assert!(merge_sweep_json(&[]).is_err());
    }

    #[test]
    fn merge_rejects_or_preserves_malformed_documents() {
        // Table-driven malformed inputs: a structurally bad document set
        // must come back as `Err`, and a well-formed document carrying
        // cells the reduction pass cannot read must pass those cells
        // through untouched. Nothing may panic.
        let doc = |text: &str| Json::parse(&text.replace("SCHEMA", SWEEP_SCHEMA)).unwrap();
        let rejected: [(&str, Vec<&str>); 8] = [
            (
                "cells is an object",
                vec![r#"{"schema":"SCHEMA","cells":{"a":1}}"#],
            ),
            (
                "cells is a string",
                vec![r#"{"schema":"SCHEMA","cells":"x"}"#],
            ),
            ("cells is null", vec![r#"{"schema":"SCHEMA","cells":null}"#]),
            ("no cells", vec![r#"{"schema":"SCHEMA"}"#]),
            ("schema not a string", vec![r#"{"schema":8,"cells":[]}"#]),
            (
                "document not an object",
                vec![r#"[{"schema":"SCHEMA","cells":[]}]"#],
            ),
            (
                "mismatched schemas",
                vec![
                    r#"{"schema":"SCHEMA","cells":[]}"#,
                    r#"{"schema":"other-schema","cells":[]}"#,
                ],
            ),
            (
                "good then bad",
                vec![r#"{"schema":"SCHEMA","cells":[]}"#, r#"{"cells":[]}"#],
            ),
        ];
        for (case, texts) in rejected {
            let docs: Vec<(String, Json)> = texts
                .iter()
                .enumerate()
                .map(|(i, t)| (format!("in{i}.json"), doc(t)))
                .collect();
            let err = merge_sweep_json(&docs).expect_err(case);
            assert!(err.contains(".json"), "{case}: error names no input: {err}");
        }
        assert!(merge_sweep_json(&[]).is_err(), "empty input list");

        let untouched = [
            ("non-object cells", r#"[1,"x",null,[2],true]"#),
            (
                "no ordering",
                r#"[{"transitions":5,"reduction_vs_baseline":"keep"}]"#,
            ),
            (
                "no transitions",
                r#"[{"ordering":"O2","reduction_vs_baseline":"keep"}]"#,
            ),
            (
                "transitions not a count",
                r#"[{"ordering":"O2","transitions":"5","reduction_vs_baseline":"keep"}]"#,
            ),
            (
                "ordering not a string",
                r#"[{"ordering":2,"transitions":5,"reduction_vs_baseline":"keep"}]"#,
            ),
            (
                "no reduction slot",
                r#"[{"ordering":"O0","transitions":5}]"#,
            ),
        ];
        for (case, cells) in untouched {
            let input = doc(&format!(r#"{{"schema":"SCHEMA","cells":{cells}}}"#));
            let merged = merge_sweep_json(&[("in.json".into(), input.clone())]).expect(case);
            assert_eq!(merged.get("cells"), input.get("cells"), "{case}");
        }
    }

    #[test]
    fn merge_recomputes_cross_shard_reductions() {
        // Sharding splits a cell from its O0 baseline: each per-shard
        // file carries `reduction_vs_baseline: null`, and the merge must
        // recompute it over the recombined set.
        let cell = |ordering: &str, codec: &str, transitions: u64, reduction: Json| {
            Json::obj(vec![
                ("workload", Json::str("LeNet")),
                ("mesh", Json::str("4x4 MC2")),
                ("format", Json::str("fixed-8")),
                ("ordering", Json::str(ordering)),
                ("tiebreak", Json::str("stable")),
                ("fx8_global", Json::Bool(false)),
                ("codec", Json::str(codec)),
                ("transitions", Json::U64(transitions)),
                ("reduction_vs_baseline", reduction),
                ("error", Json::Null),
            ])
        };
        let shard = |cells: Vec<Json>| {
            Json::obj(vec![
                ("schema", Json::str(SWEEP_SCHEMA)),
                ("cells", Json::Arr(cells)),
            ])
        };
        let merged = merge_sweep_json(&[
            (
                "part0.json".into(),
                shard(vec![
                    cell("O0", "none", 1000, Json::F64(0.0)),
                    cell("O2", "delta-xor", 600, Json::Null),
                ]),
            ),
            (
                "part1.json".into(),
                shard(vec![
                    cell("O0", "delta-xor", 800, Json::Null),
                    cell("O2", "none", 750, Json::Null),
                ]),
            ),
        ])
        .unwrap();
        let Some(Json::Arr(cells)) = merged.get("cells") else {
            panic!("merged cells missing");
        };
        let reduction = |i: usize| cells[i].get("reduction_vs_baseline").unwrap().clone();
        assert_eq!(reduction(0), Json::F64(0.0)); // O0/none vs itself
        assert_eq!(reduction(1), Json::F64(1.0 - 600.0 / 800.0)); // O2 vs O0, same codec
        assert_eq!(reduction(2), Json::F64(0.0)); // O0/delta-xor vs itself
        assert_eq!(reduction(3), Json::F64(0.25)); // O2/none vs O0/none
    }

    #[test]
    fn merge_rejects_cells_with_equal_coordinates() {
        let cell = |ordering: &str, batch: u64| {
            Json::obj(vec![
                ("workload", Json::str("LeNet")),
                ("mesh", Json::str("4x4 MC2")),
                ("ordering", Json::str(ordering)),
                ("batch", Json::U64(batch)),
                ("transitions", Json::U64(100)),
                ("reduction_vs_baseline", Json::Null),
            ])
        };
        let doc = |cells: Vec<Json>| {
            Json::obj(vec![
                ("schema", Json::str(SWEEP_SCHEMA)),
                ("cells", Json::Arr(cells)),
            ])
        };
        let p0 = doc(vec![cell("O0", 1), cell("O2", 1)]);
        // The same shard twice.
        let err = merge_sweep_json(&[
            ("p0.json".into(), p0.clone()),
            ("p0.json".into(), p0.clone()),
        ])
        .unwrap_err();
        assert_eq!(
            err,
            "p0.json: an O0 cell repeats the coordinates of one in p0.json"
        );
        // One cell in two shards, and twice within one document.
        let err = merge_sweep_json(&[
            ("p0.json".into(), p0.clone()),
            ("p1.json".into(), doc(vec![cell("O2", 4), cell("O2", 1)])),
        ])
        .unwrap_err();
        assert!(
            err.starts_with("p1.json: ") && err.ends_with(" in p0.json"),
            "{err}"
        );
        let err = merge_sweep_json(&[("p2.json".into(), doc(vec![cell("O2", 4), cell("O2", 4)]))])
            .unwrap_err();
        assert!(err.contains("in p2.json"), "{err}");
        // Cells differing only in ordering, or only in a key field, merge.
        let merged = merge_sweep_json(&[
            ("p0.json".into(), p0),
            ("p1.json".into(), doc(vec![cell("O0", 4), cell("O2", 4)])),
        ])
        .unwrap();
        assert!(matches!(merged.get("cells"), Some(Json::Arr(c)) if c.len() == 4));
    }

    #[test]
    fn sweep_runs_and_serializes() {
        let workloads = vec![tiny_workload()];
        let cells = expand_grid(
            1,
            &[MeshSpec {
                width: 4,
                height: 4,
                mc_count: 2,
            }],
            &[DataFormat::Fixed8],
            &OrderingMethod::ALL,
            &[TieBreak::Stable],
            &[false],
            &[CodecKind::Unencoded],
            &[CodecScope::PerPacket],
            &[1],
            &[EngineMode::Cycle],
            &[BitErrorRate::default()],
            &[EdcKind::None],
            &[ResyncPolicy::ReseedOnRetry],
            &[FaultMode::PerFlit],
        );
        let outcomes = run_cells(&workloads, cells.clone(), false);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes.iter().all(|o| o.error.is_none()));
        assert!(outcomes.iter().all(|o| o.transitions > 0 && o.cycles > 0));
        // Ordering reduces transitions relative to the baseline cell.
        let base = baseline_of(&outcomes, &cells[1]).unwrap();
        assert!(outcomes[2].transitions < base.transitions);
        // Parallel and sequential execution agree bit-for-bit.
        let serial = run_cells(&workloads, cells, true);
        for (a, b) in outcomes.iter().zip(serial.iter()) {
            assert_eq!(a.transitions, b.transitions);
            assert_eq!(a.cycles, b.cycles);
        }
        let json = outcomes_json(&workloads, &outcomes);
        let text = json.to_string_compact();
        assert!(text.contains("\"schema\":\"btr-sweep-v8\""));
        assert!(text.contains("\"codec_scope\":\"per-packet\""));
        assert!(text.contains("\"link_energy_mj\""));
        assert!(text.contains("\"batch\":1"));
        assert!(text.contains("\"distinct_inputs\":1"));
        assert!(text.contains("\"ordering\":\"O2\""));
        assert!(text.contains("\"codec\":\"none\""));
        assert!(text.contains("\"codec_overhead_bits\":0"));
        assert!(text.contains("\"reduction_vs_baseline\""));
        // The writer output parses back (what sweep-merge consumes).
        assert_eq!(
            Json::parse(&text)
                .unwrap()
                .get("schema")
                .and_then(Json::as_str),
            Some(SWEEP_SCHEMA)
        );
    }

    #[test]
    fn codec_axis_runs_and_normalizes_within_codec() {
        let workloads = vec![tiny_workload()];
        let cells = expand_grid(
            1,
            &[MeshSpec {
                width: 4,
                height: 4,
                mc_count: 2,
            }],
            &[DataFormat::Fixed8],
            &[OrderingMethod::Baseline, OrderingMethod::Separated],
            &[TieBreak::Stable],
            &[false],
            &CodecKind::ALL,
            &[CodecScope::PerPacket],
            &[1],
            &[EngineMode::Cycle],
            &[BitErrorRate::default()],
            &[EdcKind::None],
            &[ResyncPolicy::ReseedOnRetry],
            &[FaultMode::PerFlit],
        );
        let outcomes = run_cells(&workloads, cells, true);
        assert_eq!(outcomes.len(), 6);
        assert!(outcomes.iter().all(|o| o.error.is_none()));
        for o in &outcomes {
            // Each cell normalizes against the same-codec O0 cell.
            let base = baseline_of(&outcomes, &o.cell).unwrap();
            assert_eq!(base.cell.codec, o.cell.codec);
            if o.cell.ordering == OrderingMethod::Separated {
                assert!(
                    o.transitions < base.transitions,
                    "ordering should still win under {}: {} vs {}",
                    o.cell.codec,
                    o.transitions,
                    base.transitions
                );
            }
            let expect_overhead = o.cell.codec == CodecKind::BusInvert;
            assert_eq!(
                o.codec_overhead_bits > 0,
                expect_overhead,
                "{}",
                o.cell.codec
            );
        }
    }

    #[test]
    fn scope_axis_runs_and_diverges_only_on_stateful_codecs() {
        let workloads = vec![tiny_workload()];
        let cells = expand_grid(
            1,
            &[MeshSpec {
                width: 4,
                height: 4,
                mc_count: 2,
            }],
            &[DataFormat::Fixed8],
            &[OrderingMethod::Baseline, OrderingMethod::Separated],
            &[TieBreak::Stable],
            &[false],
            &CodecKind::ALL,
            &CodecScope::ALL,
            &[1],
            &[EngineMode::Cycle],
            &[BitErrorRate::default()],
            &[EdcKind::None],
            &[ResyncPolicy::ReseedOnRetry],
            &[FaultMode::PerFlit],
        );
        let outcomes = run_cells(&workloads, cells, true);
        assert_eq!(outcomes.len(), 12);
        assert!(outcomes.iter().all(|o| o.error.is_none()));
        let find = |ordering, codec, scope| {
            outcomes
                .iter()
                .find(|o| {
                    o.cell.ordering == ordering && o.cell.codec == codec && o.cell.scope == scope
                })
                .expect("cell present")
        };
        for ordering in [OrderingMethod::Baseline, OrderingMethod::Separated] {
            for codec in CodecKind::ALL {
                let pp = find(ordering, codec, CodecScope::PerPacket);
                let pl = find(ordering, codec, CodecScope::PerLink);
                // Packet shapes and side channels are scope-independent.
                assert_eq!(pp.request_packets, pl.request_packets);
                assert_eq!(pp.cycles, pl.cycles);
                assert_eq!(pp.codec_overhead_bits, pl.codec_overhead_bits);
                match codec {
                    // A delta-XOR boundary flit XORs against the
                    // previous packet's last image, so any non-zero
                    // carried state changes the wire.
                    CodecKind::DeltaXor => assert_ne!(
                        pp.transitions, pl.transitions,
                        "{ordering}: delta-XOR scopes must diverge on the wire"
                    ),
                    CodecKind::Unencoded => assert_eq!(
                        pp.transitions, pl.transitions,
                        "{ordering}: the identity codec has no state to scope"
                    ),
                    // Bus-invert diverges only when a boundary flit
                    // crosses the inversion threshold — data-dependent,
                    // so no structural guarantee on this tiny workload.
                    CodecKind::BusInvert => {}
                }
                // The energy report follows the transitions the simulated
                // scope actually recorded.
                for o in [pp, pl] {
                    let expect =
                        btr_hw::link_energy::LinkPowerModel::paper().energy_mj(o.transitions);
                    assert!((o.link_energy_mj - expect).abs() < 1e-12);
                    assert!(o.link_energy_mj > 0.0);
                }
            }
        }
        // Reductions normalize against the same-scope (and same-codec)
        // O0 cell.
        for o in &outcomes {
            let base = baseline_of(&outcomes, &o.cell).unwrap();
            assert_eq!(base.cell.scope, o.cell.scope);
            assert_eq!(base.cell.codec, o.cell.codec);
        }
    }

    #[test]
    fn batched_cells_scale_traffic_and_match_sync_driver() {
        let workloads = vec![tiny_workload()];
        let cell = |batch: usize| SweepCell {
            workload: 0,
            mesh: MeshSpec {
                width: 4,
                height: 4,
                mc_count: 2,
            },
            format: DataFormat::Fixed8,
            ordering: OrderingMethod::Separated,
            tiebreak: TieBreak::Stable,
            fx8_global: false,
            codec: CodecKind::Unencoded,
            scope: CodecScope::PerPacket,
            batch,
            engine: EngineMode::Cycle,
            ber: BitErrorRate::default(),
            edc: EdcKind::None,
            resync: ResyncPolicy::ReseedOnRetry,
            fault_mode: FaultMode::PerFlit,
            fault_armed: false,
        };
        let b1 = run_cell(&workloads, cell(1));
        let b4 = run_cell(&workloads, cell(4));
        assert!(b1.error.is_none() && b4.error.is_none());
        // One traffic phase per layer carries the whole batch.
        assert_eq!(b4.request_packets, 4 * b1.request_packets);
        assert!(b4.cycles > b1.cycles);
        assert!(b4.transitions > b1.transitions);
        // Amortized layer boundaries: a batched phase needs fewer cycles
        // than the same inputs run back-to-back.
        assert!(b4.cycles < 4 * b1.cycles);
        // The sync driver produces bit-identical metrics.
        let sync = run_cell_with(&workloads, cell(4), DriverMode::Synchronous);
        assert_eq!(sync.transitions, b4.transitions);
        assert_eq!(sync.cycles, b4.cycles);
        assert_eq!(sync.index_overhead_bits, b4.index_overhead_bits);
    }

    #[test]
    fn oversized_batch_errors_instead_of_cycling() {
        // A batch larger than the input pool used to silently replay
        // inputs; now the cell fails loudly.
        let workloads = vec![tiny_workload()];
        let cell = SweepCell {
            workload: 0,
            mesh: MeshSpec {
                width: 4,
                height: 4,
                mc_count: 2,
            },
            format: DataFormat::Fixed8,
            ordering: OrderingMethod::Baseline,
            tiebreak: TieBreak::Stable,
            fx8_global: false,
            codec: CodecKind::Unencoded,
            scope: CodecScope::PerPacket,
            batch: 5,
            engine: EngineMode::Cycle,
            ber: BitErrorRate::default(),
            edc: EdcKind::None,
            resync: ResyncPolicy::ReseedOnRetry,
            fault_mode: FaultMode::PerFlit,
            fault_armed: false,
        };
        let outcome = run_cell(&workloads, cell);
        let err = outcome.error.expect("oversized batch must fail");
        assert!(err.contains("4 distinct inputs"), "{err}");
        assert!(err.contains("batch 5"), "{err}");
        assert_eq!(outcome.distinct_inputs, 0);
    }

    #[test]
    fn engine_axis_runs_and_auto_matches_cycle() {
        let workloads = vec![tiny_workload()];
        let cells = expand_grid(
            1,
            &[MeshSpec {
                width: 4,
                height: 4,
                mc_count: 2,
            }],
            &[DataFormat::Fixed8],
            &[OrderingMethod::Separated],
            &[TieBreak::Stable],
            &[false],
            &[CodecKind::DeltaXor],
            &[CodecScope::PerLink],
            &[1],
            &EngineMode::ALL,
            &[BitErrorRate::default()],
            &[EdcKind::None],
            &[ResyncPolicy::ReseedOnRetry],
            &[FaultMode::PerFlit],
        );
        let outcomes = run_cells(&workloads, cells, true);
        assert_eq!(outcomes.len(), 2);
        assert!(outcomes.iter().all(|o| o.error.is_none()));
        let find = |engine| {
            outcomes
                .iter()
                .find(|o| o.cell.engine == engine)
                .expect("cell present")
        };
        let (cycle, auto) = (find(EngineMode::Cycle), find(EngineMode::Auto));
        // Auto is bit-identical to the cycle engine on the wire metrics.
        assert_eq!(auto.transitions, cycle.transitions);
        assert_eq!(auto.flit_hops, cycle.flit_hops);
        assert_eq!(auto.index_overhead_bits, cycle.index_overhead_bits);
        assert_eq!(auto.codec_overhead_bits, cycle.codec_overhead_bits);
        assert_eq!(auto.request_packets, cycle.request_packets);
        assert_eq!(
            (auto.cycles, auto.mean_latency),
            (cycle.cycles, cycle.mean_latency)
        );
        assert_eq!(cycle.analytic_phase_fraction, 0.0);
        // The auto cell recorded (or replayed) every layer, so running
        // it again replays them all.
        let again = run_cell(&workloads, auto.cell);
        assert_eq!(again.analytic_phase_fraction, 1.0);
        assert_eq!(again.cycles, cycle.cycles);
        // The JSON carries the new axis and metric.
        let text = outcomes_json(&workloads, &outcomes).to_string_compact();
        assert!(text.contains("\"engine\":\"cycle\""));
        assert!(text.contains("\"engine\":\"auto\""));
        assert!(text.contains("\"analytic_phase_fraction\":"));
    }

    #[test]
    fn fault_axis_recovers_and_zero_ber_matches_plain() {
        let workloads = vec![tiny_workload()];
        let cell = |ber: f64, edc: EdcKind, fault_armed: bool| SweepCell {
            workload: 0,
            mesh: MeshSpec {
                width: 4,
                height: 4,
                mc_count: 2,
            },
            format: DataFormat::Fixed8,
            ordering: OrderingMethod::Separated,
            tiebreak: TieBreak::Stable,
            fx8_global: false,
            codec: CodecKind::Unencoded,
            scope: CodecScope::PerPacket,
            batch: 1,
            engine: EngineMode::Cycle,
            ber: BitErrorRate::from_f64(ber),
            edc,
            resync: ResyncPolicy::ReseedOnRetry,
            fault_mode: FaultMode::PerFlit,
            fault_armed,
        };

        // Arming the receive-side fault protocol at BER zero must not
        // change a single recorded metric.
        let plain = run_cell(&workloads, cell(0.0, EdcKind::None, false));
        let armed = run_cell(&workloads, cell(0.0, EdcKind::None, true));
        assert!(plain.error.is_none() && armed.error.is_none());
        assert_eq!(armed.transitions, plain.transitions);
        assert_eq!(armed.cycles, plain.cycles);
        assert_eq!(armed.flit_hops, plain.flit_hops);
        assert_eq!(armed.edc_overhead_bits, 0);
        assert_eq!(armed.retransmitted_flits, 0);
        assert_eq!(armed.delivered_ok_fraction, 1.0);

        // A CRC-8 frame on perfect wires pays check-field bits but
        // never retries.
        let checked = run_cell(&workloads, cell(0.0, EdcKind::Crc8, false));
        assert!(checked.error.is_none());
        assert!(checked.edc_overhead_bits > 0);
        assert_eq!(checked.retransmitted_flits, 0);
        assert_eq!(checked.delivered_ok_fraction, 1.0);

        // Real errors force retransmissions; the cell still completes
        // and reports the recovery traffic.
        let faulty = run_cell(&workloads, cell(1e-4, EdcKind::Crc8, false));
        assert!(faulty.error.is_none(), "{:?}", faulty.error);
        assert!(faulty.retransmitted_flits > 0);
        assert!(faulty.retried_packets > 0);
        assert!(faulty.delivered_ok_fraction < 1.0);
        assert!(faulty.delivered_ok_fraction > 0.0);
        // Retry traffic lands in the same transition counters, so the
        // energy figure is retry-inclusive by construction.
        assert!(faulty.transitions > checked.transitions);

        // The v7 schema carries the fault axes and metrics.
        let outcomes = vec![plain, checked, faulty];
        let text = outcomes_json(&workloads, &outcomes).to_string_compact();
        assert!(text.contains("\"schema\":\"btr-sweep-v8\""), "{text}");
        // The u64 wire threshold round-trips to the nearest f64, so
        // match the stable prefix rather than the literal 1e-4.
        assert!(text.contains("\"ber\":0.00009999"), "{text}");
        assert!(text.contains("\"edc\":\"crc8\""), "{text}");
        assert!(text.contains("\"resync\":\"reseed\""), "{text}");
        assert!(text.contains("\"edc_overhead_bits\""), "{text}");
        assert!(text.contains("\"retransmitted_flits\""), "{text}");
        assert!(text.contains("\"delivered_ok_fraction\":1"), "{text}");
    }

    #[test]
    fn failed_cells_report_errors() {
        let workloads = vec![tiny_workload()];
        // 3x1 MC2: the second MC's region has no PE -> config error.
        let cells = vec![SweepCell {
            workload: 0,
            mesh: MeshSpec {
                width: 3,
                height: 1,
                mc_count: 2,
            },
            format: DataFormat::Fixed8,
            ordering: OrderingMethod::Baseline,
            tiebreak: TieBreak::Stable,
            fx8_global: false,
            codec: CodecKind::Unencoded,
            scope: CodecScope::PerPacket,
            batch: 1,
            engine: EngineMode::Cycle,
            ber: BitErrorRate::default(),
            edc: EdcKind::None,
            resync: ResyncPolicy::ReseedOnRetry,
            fault_mode: FaultMode::PerFlit,
            fault_armed: false,
        }];
        let outcomes = run_cells(&workloads, cells, true);
        assert!(outcomes[0].error.is_some());
        let json = outcomes_json(&workloads, &outcomes);
        assert!(json.to_string_compact().contains("\"error\":\""));
    }
}
