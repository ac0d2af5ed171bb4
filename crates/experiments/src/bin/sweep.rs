//! The general sweep front-end: any `(model × mesh × format × ordering ×
//! tiebreak × fx8 scheme × codec × codec scope × batch × engine)` grid,
//! fanned out in parallel, with machine-readable JSON results.
//!
//! This is the scaling successor to the per-figure binaries: the
//! `fig12_noc_sizes` and `fig13_models` presets replace the binaries of
//! the same names, and further presets cover the sensitivity grids and
//! the `{ordering × codec}` ablations, at any subset of the cross
//! product.
//!
//! Usage:
//! `cargo run --release -p experiments --bin sweep -- \
//!     [--preset smoke|fig12_noc_sizes|fig13_models|ablation_orderings|ablation_codecs|ablation_scopes|ablation_faults|ablation_faults_burst] \
//!     [--models lenet,darknet] [--weights trained] [--seed 42] \
//!     [--meshes 4x4x2,8x8x4,8x8x8] [--formats f32,fx8] \
//!     [--orderings O0,O1,O2] [--ties stable,value] [--fx8-global] \
//!     [--codecs none,bus-invert,delta-xor] \
//!     [--codec-scope per-packet,per-link] [--batch 1,4,16] \
//!     [--engine cycle,auto] [--shard 0/4] \
//!     [--ber 0,1e-7,1e-6] [--edc none,parity,crc8] \
//!     [--resync reseed,continuous] [--fault-mode per-flit,burst] [--fault-armed] \
//!     [--darknet-width 8] [--sequential] [--json sweep.json]`
//!
//! A `--preset` sets the grid axes (explicit flags still override);
//! `--shard i/n` runs the deterministic `i mod n` slice of the expanded
//! cells so one grid can span processes or hosts; and
//! `--merge a.json,b.json --json out.json` skips simulation entirely and
//! concatenates/validates previously written result files.
//!
//! `--fault-armed` runs every cell through the full EDC/retransmission
//! receive path even at BER zero; the flag is not serialized, so diffing
//! an armed zero-BER result file against a plain one pins the zero-BER
//! equivalence of the fault machinery (CI does exactly that).
//!
//! `--json` writes the `btr-sweep-v8` schema described in EXPERIMENTS.md.
//! Any other `--flag`, a malformed flag value, a value flag with no value,
//! a flag given twice, a repeated list element and a stray token each
//! exit 2 with a one-line error. A failed cell does not stop the grid:
//! every cell runs and the JSON is written, then the process exits 1 if
//! any cell (or the JSON write) failed.

use btr_bits::word::DataFormat;
use btr_core::codec::{CodecKind, CodecScope, ResyncPolicy};
use btr_core::edc::EdcKind;
use btr_core::ordering::{OrderingMethod, TieBreak};
use btr_dnn::data::{SyntheticDigits, SyntheticRgb};
use btr_dnn::models::darknet;
use btr_noc::fault::{BitErrorRate, FaultMode};
use btr_noc::EngineMode;
use experiments::cli;
use experiments::json::Json;
use experiments::sweep::{
    expand_grid, merge_sweep_json, outcomes_json, run_cells, MeshSpec, Shard, Workload,
};
use experiments::workloads::{lenet, WeightSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::num::NonZeroUsize;

/// Minimum input-pool size per workload. The actual pool is sized to
/// the largest `--batch` value (distinct samples, deterministic per
/// seed), so batched cells never replay an input — `batch_inputs`
/// errors loudly rather than cycling.
const INPUT_POOL_MIN: usize = 16;

/// Every flag `sweep` reads; anything else is rejected up front.
const FLAGS: &[&str] = &[
    "json",
    "merge",
    "preset",
    "seed",
    "weights",
    "darknet-width",
    "sequential",
    "shard",
    "models",
    "meshes",
    "formats",
    "orderings",
    "ties",
    "codecs",
    "codec-scope",
    "batch",
    "engine",
    "ber",
    "edc",
    "resync",
    "fault-mode",
    "fault-armed",
    "fx8-global",
];

/// The flags in [`FLAGS`] that take no value.
const BARE_FLAGS: &[&str] = &["sequential", "fault-armed", "fx8-global"];

/// Axis defaults a `--preset` installs (explicit flags still win).
struct Preset {
    models: Vec<String>,
    weights: WeightSource,
    meshes: Vec<MeshSpec>,
    formats: Vec<DataFormat>,
    orderings: Vec<OrderingMethod>,
    tiebreaks: Vec<TieBreak>,
    codecs: Vec<CodecKind>,
    scopes: Vec<CodecScope>,
    engines: Vec<EngineMode>,
    bers: Vec<f64>,
    edcs: Vec<EdcKind>,
    resyncs: Vec<ResyncPolicy>,
    fault_modes: Vec<FaultMode>,
}

impl Preset {
    fn general() -> Self {
        Preset {
            models: vec!["lenet".into()],
            weights: WeightSource::Trained,
            meshes: MeshSpec::PAPER.to_vec(),
            formats: vec![DataFormat::Float32, DataFormat::Fixed8],
            orderings: OrderingMethod::ALL.to_vec(),
            tiebreaks: vec![TieBreak::Stable],
            codecs: vec![CodecKind::Unencoded],
            scopes: vec![CodecScope::PerPacket],
            engines: vec![EngineMode::Cycle],
            bers: vec![0.0],
            edcs: vec![EdcKind::None],
            resyncs: vec![ResyncPolicy::ReseedOnRetry],
            fault_modes: vec![FaultMode::PerFlit],
        }
    }

    fn resolve(name: &str) -> Self {
        let small_mesh = vec![MeshSpec {
            width: 4,
            height: 4,
            mc_count: 2,
        }];
        match name {
            "general" => Self::general(),
            // Fast CI-sized slice exercising the codec axis end to end:
            // random weights (no training), one mesh, fixed-8 only.
            "smoke" => Preset {
                weights: WeightSource::Random,
                meshes: small_mesh,
                formats: vec![DataFormat::Fixed8],
                orderings: vec![OrderingMethod::Baseline, OrderingMethod::Separated],
                codecs: CodecKind::ALL.to_vec(),
                ..Self::general()
            },
            // Fig. 12 — BTs across NoC sizes (successor of the retired
            // `fig12_noc_sizes` binary): full LeNet inference on all
            // three paper meshes × both formats × O0/O1/O2.
            // Paper: O1 12.09–18.58% (f32) / 7.88–17.75% (fx8);
            // O2 23.30–32.01% (f32) / 16.95–35.93% (fx8); MC4 highest
            // absolute BTs (more hops per MC).
            "fig12_noc_sizes" => Self::general(),
            // Fig. 13 — normalized BTs across models (successor of the
            // retired `fig13_models` binary): LeNet vs the reduced
            // DarkNet on the 4×4 MC2 mesh. Paper: up to 35.93% (LeNet)
            // and 40.85% (DarkNet); separated-ordering always wins.
            "fig13_models" => Preset {
                models: vec!["lenet".into(), "darknet".into()],
                meshes: small_mesh,
                ..Self::general()
            },
            // The ordering ablation (successor of the retired
            // `ablation_orderings` binary): O0/O1/O2 × tiebreaks on the
            // unencoded link, full inference instead of a weight stream.
            "ablation_orderings" => Preset {
                meshes: small_mesh,
                formats: vec![DataFormat::Fixed8],
                tiebreaks: vec![TieBreak::Stable, TieBreak::Value],
                ..Self::general()
            },
            // Does ordering still win once the link is coded, and do
            // they compose? {O0,O1,O2} × {none, bus-invert, delta-xor}.
            "ablation_codecs" => Preset {
                meshes: small_mesh,
                formats: vec![DataFormat::Fixed8],
                codecs: CodecKind::ALL.to_vec(),
                ..Self::general()
            },
            // Does codec state ownership matter? {O0,O2} × every codec ×
            // {per-packet, per-link}: per-packet re-seeds the codec on
            // each packet (the pre-refactor model), per-link gives every
            // directed link persistent state across packets/batches/
            // layers — the wires the related work measures power on.
            "ablation_scopes" => Preset {
                meshes: small_mesh,
                formats: vec![DataFormat::Fixed8],
                orderings: vec![OrderingMethod::Baseline, OrderingMethod::Separated],
                codecs: CodecKind::ALL.to_vec(),
                scopes: CodecScope::ALL.to_vec(),
                ..Self::general()
            },
            // What do unreliable links cost, and does ordering still pay
            // for itself once every frame carries a CRC and some packets
            // go around twice? {O0,O2} × {none, delta-xor/per-link} ×
            // BER {0, 1e-7, 1e-6} with CRC-8 frames and reseed-on-retry
            // recovery. The BER-0 rows isolate the pure EDC wire cost;
            // the others add real retransmission traffic.
            "ablation_faults" => Preset {
                meshes: small_mesh,
                formats: vec![DataFormat::Fixed8],
                orderings: vec![OrderingMethod::Baseline, OrderingMethod::Separated],
                codecs: vec![CodecKind::Unencoded, CodecKind::DeltaXor],
                scopes: vec![CodecScope::PerLink],
                bers: vec![0.0, 1e-7, 1e-6],
                edcs: vec![EdcKind::Crc8],
                ..Self::general()
            },
            // The same unreliable-link grid under burst errors: each
            // payload flit draws once against the BER and a hit flips a
            // contiguous 2-8 wire run, so a burst almost always lands
            // inside one CRC-8 frame and retries cluster. Draws are
            // per flit event rather than per wire bit, so the
            // interesting regime sits at much higher nominal rates than
            // the per-bit grid (1e-5/1e-4 here vs 1e-7/1e-6 there).
            "ablation_faults_burst" => Preset {
                meshes: small_mesh,
                formats: vec![DataFormat::Fixed8],
                orderings: vec![OrderingMethod::Baseline, OrderingMethod::Separated],
                codecs: vec![CodecKind::Unencoded, CodecKind::DeltaXor],
                scopes: vec![CodecScope::PerLink],
                bers: vec![0.0, 1e-5, 1e-4],
                edcs: vec![EdcKind::Crc8],
                fault_modes: vec![FaultMode::Burst],
                ..Self::general()
            },
            other => {
                eprintln!(
                    "error: unknown preset {other:?}; use \
                     general|smoke|fig12_noc_sizes|fig13_models|\
                     ablation_orderings|ablation_codecs|ablation_scopes|\
                     ablation_faults|ablation_faults_burst"
                );
                std::process::exit(2);
            }
        }
    }
}

fn build_workload(
    name: &str,
    source: WeightSource,
    seed: u64,
    darknet_width: usize,
    pool: usize,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    match name {
        "lenet" => {
            let digits = SyntheticDigits::new();
            Workload {
                name: format!("LeNet ({} weights)", source.name()),
                ops: lenet(source, seed).inference_ops(),
                inputs: (0..pool)
                    .map(|i| digits.sample((7 + i) % 10, &mut rng).input)
                    .collect(),
            }
        }
        "darknet" => {
            let rgb = SyntheticRgb::new();
            Workload {
                name: format!("DarkNet (width {darknet_width})"),
                ops: darknet::build_with_width(seed, darknet_width).inference_ops(),
                inputs: (0..pool)
                    .map(|i| rgb.sample((2 + i) % 10, &mut rng).input)
                    .collect(),
            }
        }
        other => {
            eprintln!("error: unknown model {other:?}; use lenet|darknet");
            std::process::exit(2);
        }
    }
}

/// `--merge a.json,b.json --json out.json`: concatenate + validate
/// previously written sweep results (for sharded grids).
fn run_merge(inputs: Vec<String>, json_path: Option<String>) -> ! {
    let mut docs = Vec::new();
    for path in inputs {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: could not read {path}: {e}");
            std::process::exit(2);
        });
        let doc = Json::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: {path} is not valid JSON: {e}");
            std::process::exit(2);
        });
        docs.push((path, doc));
    }
    let merged = merge_sweep_json(&docs).unwrap_or_else(|e| {
        eprintln!("error: merge failed: {e}");
        std::process::exit(2);
    });
    let cells = match merged.get("cells") {
        Some(Json::Arr(items)) => items.len(),
        _ => 0,
    };
    let Some(path) = json_path else {
        eprintln!("error: --merge needs --json OUT to write the merged file");
        std::process::exit(2);
    };
    experiments::json::write_file(std::path::Path::new(&path), &merged).unwrap_or_else(|e| {
        eprintln!("error: could not write {path}: {e}");
        std::process::exit(2);
    });
    println!("# merged {} docs, {cells} cells -> {path}", docs.len());
    std::process::exit(0);
}

fn main() {
    cli::reject_bad_args(FLAGS, BARE_FLAGS);
    let json_path: Option<String> = cli::opt_arg("json");
    if let Some(inputs) = cli::opt_arg::<String>("merge") {
        let inputs: Vec<String> = inputs
            .split(',')
            .filter(|s| !s.is_empty())
            .map(str::to_string)
            .collect();
        run_merge(inputs, json_path);
    }

    let preset_name: String = cli::arg("preset", "general".to_string());
    let preset = Preset::resolve(&preset_name);

    let seed: u64 = cli::arg("seed", 42);
    let source: WeightSource = cli::arg("weights", preset.weights);
    let darknet_width = cli::opt_arg::<NonZeroUsize>("darknet-width")
        .map_or(darknet::DEFAULT_WIDTH, NonZeroUsize::get);
    let sequential = cli::flag("sequential");
    let shard: Shard = cli::arg("shard", Shard::WHOLE);

    let models: Vec<String> = cli::list_arg("models", preset.models);
    let meshes: Vec<MeshSpec> = cli::list_arg("meshes", preset.meshes);
    let formats: Vec<DataFormat> = cli::list_arg("formats", preset.formats);
    let orderings: Vec<OrderingMethod> = cli::list_arg("orderings", preset.orderings);
    let tiebreaks: Vec<TieBreak> = cli::list_arg("ties", preset.tiebreaks);
    let codecs: Vec<CodecKind> = cli::list_arg("codecs", preset.codecs);
    let scopes: Vec<CodecScope> = cli::list_arg("codec-scope", preset.scopes);
    let batches: Vec<usize> = cli::list_arg("batch", vec![NonZeroUsize::MIN])
        .into_iter()
        .map(NonZeroUsize::get)
        .collect();
    let engines: Vec<EngineMode> = cli::list_arg("engine", preset.engines);
    let bers: Vec<BitErrorRate> = cli::list_arg(
        "ber",
        preset
            .bers
            .into_iter()
            .map(BitErrorRate::from_f64)
            .collect(),
    );
    let edcs: Vec<EdcKind> = cli::list_arg("edc", preset.edcs);
    let resyncs: Vec<ResyncPolicy> = cli::list_arg("resync", preset.resyncs);
    let fault_modes: Vec<FaultMode> = cli::list_arg("fault-mode", preset.fault_modes);
    let fault_armed = cli::flag("fault-armed");
    let fx8_globals = if cli::flag("fx8-global") {
        vec![true]
    } else {
        vec![false]
    };

    // Size every workload's input pool to the largest batch so no cell
    // can fall back to replaying inputs.
    let pool = INPUT_POOL_MIN.max(batches.iter().copied().max().unwrap_or(1));
    let workloads: Vec<Workload> = models
        .iter()
        .map(|m| build_workload(m, source, seed, darknet_width, pool))
        .collect();

    let cells = expand_grid(
        workloads.len(),
        &meshes,
        &formats,
        &orderings,
        &tiebreaks,
        &fx8_globals,
        &codecs,
        &scopes,
        &batches,
        &engines,
        &bers,
        &edcs,
        &resyncs,
        &fault_modes,
    );
    let total = cells.len();
    let mut cells = shard.select(cells);
    if fault_armed {
        for cell in &mut cells {
            cell.fault_armed = true;
        }
    }
    eprintln!(
        "# sweep [{preset_name}]: {} workloads x {} meshes x {} formats x {} orderings x {} ties \
         x {} codecs x {} scopes x {} batches x {} engines x {} bers x {} edcs x {} resyncs \
         x {} fault modes = {total} cells (shard {shard}: {} cells{})",
        workloads.len(),
        meshes.len(),
        formats.len(),
        orderings.len(),
        tiebreaks.len(),
        codecs.len(),
        scopes.len(),
        batches.len(),
        engines.len(),
        bers.len(),
        edcs.len(),
        resyncs.len(),
        fault_modes.len(),
        cells.len(),
        if fault_armed {
            ", fault path armed"
        } else {
            ""
        }
    );
    let outcomes = run_cells(&workloads, cells, sequential);
    let json = outcomes_json(&workloads, &outcomes);
    let documented = match json.get("cells") {
        Some(Json::Arr(cells)) => cells.as_slice(),
        _ => &[],
    };

    println!(
        "{:<24} {:<9} {:<9} {:>4} {:>7} {:>11} {:>10} {:>5} {:>9} {:>7} {:>6} {:>16} {:>10} {:>11} {:>8} {:>7} {:>10} {:>8}",
        "workload",
        "NoC",
        "format",
        "ord",
        "ties",
        "codec",
        "scope",
        "batch",
        "engine",
        "ber",
        "edc",
        "total BTs",
        "reduction",
        "energy mJ",
        "retx",
        "ok%",
        "cycles",
        "wall"
    );
    for (o, cell) in outcomes.iter().zip(documented) {
        if let Some(e) = &o.error {
            eprintln!(
                "error: {} {} {} {} {} {} b{}: {e}",
                workloads[o.cell.workload].name,
                o.cell.mesh,
                o.cell.format,
                o.cell.ordering,
                o.cell.codec,
                o.cell.scope,
                o.cell.batch
            );
            continue;
        }
        let reduction = match cell.get("reduction_vs_baseline") {
            Some(&Json::F64(r)) => r * 100.0,
            _ => 0.0,
        };
        println!(
            "{:<24} {:<9} {:<9} {:>4} {:>7} {:>11} {:>10} {:>5} {:>9} {:>7} {:>6} {:>16} {:>9.2}% {:>11.4} {:>8} {:>6.2}% {:>10} {:>6}ms",
            workloads[o.cell.workload].name,
            o.cell.mesh.label(),
            o.cell.format.name(),
            o.cell.ordering.label(),
            format!("{:?}", o.cell.tiebreak).to_lowercase(),
            o.cell.codec.label(),
            o.cell.scope.label(),
            o.cell.batch,
            o.cell.engine.label(),
            format!("{:.0e}", o.cell.ber.as_f64()),
            o.cell.edc.label(),
            o.transitions,
            reduction,
            o.link_energy_mj,
            o.retransmitted_flits,
            o.delivered_ok_fraction * 100.0,
            o.cycles,
            o.wall_ms
        );
    }

    if let Some(path) = json_path {
        if let Err(e) = experiments::json::write_file(std::path::Path::new(&path), &json) {
            eprintln!("error: could not write {path}: {e}");
            std::process::exit(1);
        }
        println!("# wrote {path}");
    }
    let failed = outcomes.iter().filter(|o| o.error.is_some()).count();
    if failed > 0 {
        eprintln!("error: {failed} of {} cells failed", outcomes.len());
        std::process::exit(1);
    }
}
