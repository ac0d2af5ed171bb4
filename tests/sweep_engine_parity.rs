//! The sweep-level equivalence contracts, each on whole presets run
//! in-process and diffed with the timing fields (`TIMING_FIELDS`)
//! stripped: Auto ≡ Cycle, zero-BER armed ≡ plain, and parallel cells ≡
//! sequential cells.
//!
//! Auto ≡ Cycle: the `smoke` and `ablation_scopes` grids (LeNet with random weights on the 4×4 MC2 mesh, fixed-8, O0/O2
//! × every codec, per-packet and per-link scopes) run in-process under
//! `--engine cycle` and `--engine auto`, and their result documents must
//! be byte-identical once the timing fields (`TIMING_FIELDS`) are
//! stripped — clock and mean latency included.
//!
//! Cells run sequentially, as `sweep --sequential` runs them, so every
//! auto cell whose layer shapes an earlier cell recorded must replay all
//! of its layers: its `analytic_phase_fraction` is 1. Recordings are
//! shared by the whole process, so a cell's first shape may also have
//! been recorded by another test; nothing here asserts that it steps.

use experiments::json::Json;
use experiments::sweep::{
    expand_grid, outcomes_json, run_cells, strip_timing, MeshSpec, SweepCell, Workload,
    TIMING_FIELDS,
};
use experiments::workloads::{lenet, WeightSource};
use noc_btr::bits::word::DataFormat;
use noc_btr::core::codec::{CodecKind, CodecScope, ResyncPolicy};
use noc_btr::core::edc::EdcKind;
use noc_btr::core::ordering::{OrderingMethod, TieBreak};
use noc_btr::dnn::data::SyntheticDigits;
use noc_btr::noc::fault::{BitErrorRate, FaultMode};
use noc_btr::noc::EngineMode;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The `sweep` binary's LeNet workload at seed 42 with random weights.
fn lenet_workload() -> Workload {
    let mut rng = StdRng::seed_from_u64(42);
    let digits = SyntheticDigits::new();
    Workload {
        name: "LeNet (random weights)".into(),
        ops: lenet(WeightSource::Random, 42).inference_ops(),
        inputs: (0..16)
            .map(|i| digits.sample((7 + i) % 10, &mut rng).input)
            .collect(),
    }
}

/// The cells of the `smoke` preset (per-packet scope only) or of
/// `ablation_scopes` (both scopes), under one engine mode.
fn preset_cells(scopes: &[CodecScope], engine: EngineMode) -> Vec<SweepCell> {
    grid(&CodecKind::ALL, scopes, engine, &[0.0], EdcKind::None)
}

/// The `ablation_faults` cells: per-link {none, delta-XOR} × BER
/// {0, 1e-7, 1e-6} with CRC-8 frames.
fn ablation_faults_cells() -> Vec<SweepCell> {
    grid(
        &[CodecKind::Unencoded, CodecKind::DeltaXor],
        &[CodecScope::PerLink],
        EngineMode::Cycle,
        &[0.0, 1e-7, 1e-6],
        EdcKind::Crc8,
    )
}

/// O0/O2 fixed-8 LeNet cells on the 4×4 MC2 mesh over the given axes.
fn grid(
    codecs: &[CodecKind],
    scopes: &[CodecScope],
    engine: EngineMode,
    bers: &[f64],
    edc: EdcKind,
) -> Vec<SweepCell> {
    let bers: Vec<BitErrorRate> = bers.iter().map(|&b| BitErrorRate::from_f64(b)).collect();
    expand_grid(
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
        codecs,
        scopes,
        &[1],
        &[engine],
        &bers,
        &[edc],
        &[ResyncPolicy::ReseedOnRetry],
        &[FaultMode::PerFlit],
    )
}

/// The cells of a sweep document.
fn cells(doc: &Json) -> &[Json] {
    match doc.get("cells") {
        Some(Json::Arr(cells)) => cells,
        _ => panic!("document has no cells array"),
    }
}

#[test]
fn presets_are_byte_identical_across_engines_modulo_timing() {
    let workloads = [lenet_workload()];
    for (preset, scopes) in [
        ("smoke", &[CodecScope::PerPacket][..]),
        ("ablation_scopes", &CodecScope::ALL[..]),
    ] {
        let doc = |engine| {
            let outcomes = run_cells(&workloads, preset_cells(scopes, engine), true);
            assert!(outcomes.iter().all(|o| o.error.is_none()), "{preset}");
            outcomes_json(&workloads, &outcomes)
        };
        let (cycle, auto) = (doc(EngineMode::Cycle), doc(EngineMode::Auto));
        let stripped = strip_timing(&auto).to_string_compact();
        for field in TIMING_FIELDS {
            assert!(!stripped.contains(&format!("\"{field}\":")), "{field}");
        }
        assert!(stripped.contains("\"cycles\":") && stripped.contains("\"mean_latency\":"));
        assert_eq!(
            strip_timing(&cycle).to_string_compact(),
            stripped,
            "{preset}: cycle and auto documents differ outside the timing fields"
        );

        // Replay coverage: a cell whose mesh configuration an earlier
        // cell ran has every layer shape recorded, so it replays every
        // layer. Bus-invert widens the link by its invert line, a
        // per-link delta-XOR puts lanes on it, and every other cell runs
        // raw 128-bit wires.
        let mut seen = Vec::new();
        for cell in cells(&auto) {
            let label = |field| cell.get(field).and_then(Json::as_str).unwrap_or_default();
            let wires = match (label("codec"), label("codec_scope")) {
                ("bus-invert", scope) => format!("129 bits, {scope}"),
                ("delta-xor", "per-link") => "128 bits, delta-XOR lanes".to_string(),
                _ => "128 raw bits".to_string(),
            };
            let fraction = cell.get("analytic_phase_fraction");
            if seen.contains(&wires) {
                assert_eq!(fraction, Some(&Json::F64(1.0)), "{preset}: {wires}");
            }
            seen.push(wires);
        }
    }
}

/// The sweep document of `cells`, timing fields stripped.
fn stripped_doc(workloads: &[Workload], cells: Vec<SweepCell>, sequential: bool) -> String {
    let outcomes = run_cells(workloads, cells, sequential);
    assert!(outcomes.iter().all(|o| o.error.is_none()));
    strip_timing(&outcomes_json(workloads, &outcomes)).to_string_compact()
}

/// Zero-BER armed ≡ plain: the `smoke` cells with the whole fault
/// protocol armed at BER zero (per-link error streams, receive-side
/// checks, the retry loop) give the plain document, number for number.
#[test]
fn zero_ber_armed_smoke_equals_plain() {
    let workloads = [lenet_workload()];
    let plain = preset_cells(&[CodecScope::PerPacket], EngineMode::Cycle);
    let armed: Vec<SweepCell> = plain
        .iter()
        .map(|&cell| SweepCell {
            fault_armed: true,
            ..cell
        })
        .collect();
    assert_eq!(
        stripped_doc(&workloads, plain, true),
        stripped_doc(&workloads, armed, true),
        "the armed fault path changed a number at BER zero"
    );
}

/// Host matrix: cells fanned out over the host's harts give the same
/// document as cells run one after another, on the `smoke` cells and the
/// `ablation_faults` cells (random weights; real retransmissions at BER
/// 1e-7 and 1e-6). On a 1-hart host `run_cells` falls back to running
/// the cells sequentially, so both sides run the same way there; CI's
/// `taskset -c 0` leg covers the one-hart case against a parallel run.
#[test]
fn parallel_cells_equal_sequential_cells() {
    let workloads = [lenet_workload()];
    for (preset, cells) in [
        (
            "smoke",
            preset_cells(&[CodecScope::PerPacket], EngineMode::Cycle),
        ),
        ("ablation_faults", ablation_faults_cells()),
    ] {
        assert_eq!(
            stripped_doc(&workloads, cells.clone(), false),
            stripped_doc(&workloads, cells, true),
            "{preset}: parallel and sequential documents differ"
        );
    }
}
