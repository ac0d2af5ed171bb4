//! `paper-grid`: one `experiments::sweep::run_cells_with` pass per op,
//! the entry the `sweep` binary uses, over 18 cells:
//! {LeNet, DarkNet width 4} × {4×4 MC2, 8×8 MC4} × {f32, fx8} × {O0, O2}
//! on the cycle engine at batch 1, plus LeNet fx8 4×4 MC2 {O0, O2} with
//! per-link delta-XOR at BER 1e-6, CRC-8 and reseed-on-retry, longest
//! first. Every cell builds a fresh session, so weight templates are
//! cold.

use crate::metrics::Metrics;
use crate::trace::Tracer;
use crate::{repeated_setup, stats, timed_loop, Args, Outcome, WEIGHT_SEED};
use btr_accel::config::DriverMode;
use btr_bits::word::DataFormat;
use btr_core::ordering::TieBreak;
use btr_core::{CodecKind, CodecScope, EdcKind, OrderingMethod, ResyncPolicy};
use btr_dnn::data::{SyntheticDigits, SyntheticRgb};
use btr_dnn::models::darknet;
use btr_noc::fault::{BitErrorRate, FaultMode};
use btr_noc::EngineMode;
use experiments::sweep::{expand_grid, run_cells_with, CellOutcome, MeshSpec, SweepCell, Workload};
use experiments::workloads::lenet_random;
use rand::rngs::StdRng;
use rand::SeedableRng;

const DARKNET_WIDTH: usize = 4;
const FAULT_BER: f64 = 1e-6;

/// Per-cell link transitions of one pass at the default seed, in cell
/// order (see [`cells`]).
const PINNED_SEED_42: [u64; 18] = [
    239_271_967,
    226_025_087,
    69_604_968,
    58_378_900,
    17_216_014,
    14_566_478,
    176_530_210,
    166_765_190,
    51_458_388,
    43_333_162,
    67_611_768,
    65_084_591,
    20_064_911,
    16_828_594,
    50_029_186,
    48_186_693,
    14_866_473,
    12_516_301,
];

fn workloads(seed: u64, tracer: &mut Tracer) -> Vec<Workload> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lenet = lenet_random(WEIGHT_SEED);
    let darknet = darknet::build_with_width(WEIGHT_SEED, DARKNET_WIDTH);
    let (lenet_ops, darknet_ops) = tracer.span("dnn.lower", || {
        (lenet.inference_ops(), darknet.inference_ops())
    });
    vec![
        Workload {
            name: "LeNet".into(),
            ops: lenet_ops,
            inputs: vec![SyntheticDigits::new().sample(7, &mut rng).input],
        },
        Workload {
            name: format!("DarkNet (width {DARKNET_WIDTH})"),
            ops: darknet_ops,
            inputs: vec![SyntheticRgb::new().sample(2, &mut rng).input],
        },
    ]
}

fn cells() -> Vec<SweepCell> {
    let small = MeshSpec {
        width: 4,
        height: 4,
        mc_count: 2,
    };
    let large = MeshSpec {
        width: 8,
        height: 8,
        mc_count: 4,
    };
    let orderings = [OrderingMethod::Baseline, OrderingMethod::Separated];
    let mut cells = expand_grid(
        2,
        &[small, large],
        &[DataFormat::Float32, DataFormat::Fixed8],
        &orderings,
        &[TieBreak::Stable],
        &[false],
        &[CodecKind::Unencoded],
        &[CodecScope::PerPacket],
        &[1],
        &[EngineMode::Cycle],
        &[BitErrorRate::ZERO],
        &[EdcKind::None],
        &[ResyncPolicy::ReseedOnRetry],
        &[FaultMode::PerFlit],
    );
    let faulty = expand_grid(
        1,
        &[small],
        &[DataFormat::Fixed8],
        &orderings,
        &[TieBreak::Stable],
        &[false],
        &[CodecKind::DeltaXor],
        &[CodecScope::PerLink],
        &[1],
        &[EngineMode::Cycle],
        &[BitErrorRate::from_f64(FAULT_BER)],
        &[EdcKind::Crc8],
        &[ResyncPolicy::ReseedOnRetry],
        &[FaultMode::PerFlit],
    );
    cells.extend(faulty);
    // Longest cells first: DarkNet on 8×8 and the fault cells (~250 ms
    // each on a 2-vCPU Xeon VM), then DarkNet on 4×4 (~180 ms), LeNet on
    // 8×8 and on 4×4 (~50-70 ms). The workers take cells in list order,
    // so the last ones are short and both workers finish together; a
    // long cell taken last would leave one idle for up to a fifth of the
    // pass, by an amount that changes from pass to pass. The sort is
    // stable, so each O0 cell stays next to its O2 cell.
    cells.sort_by_key(|c| {
        let faulty = c.codec != CodecKind::Unencoded;
        match (faulty, c.workload, c.mesh.width) {
            (false, 1, 8) => 0,
            (true, _, _) => 1,
            (false, 1, _) => 2,
            (false, _, 8) => 3,
            _ => 4,
        }
    });
    cells
}

fn pass(workloads: &[Workload], cells: &[SweepCell]) -> Vec<CellOutcome> {
    run_cells_with(workloads, cells.to_vec(), false, DriverMode::Pipelined)
}

/// (O0, O2) outcome pairs: the grid lists each cell's O0 and O2 rows
/// next to each other.
fn pairs(outcomes: &[CellOutcome]) -> impl Iterator<Item = (&CellOutcome, &CellOutcome)> {
    outcomes.chunks(2).map(|p| (&p[0], &p[1]))
}

pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let cells = cells();
    let ((workloads, first), setup_s) = repeated_setup(args, || {
        let workloads = workloads(args.seed, tracer);
        let first = pass(&workloads, &cells);
        (workloads, first)
    });
    out.encode_plans
        .push("per cell: inline (parallel cells)".into());

    for o in &first {
        out.check(o.error.is_none(), || {
            format!("cell {:?} failed: {:?}", o.cell, o.error)
        });
    }
    for (o0, o2) in pairs(&first) {
        out.check(
            o0.cell.ordering == OrderingMethod::Baseline && o2.transitions < o0.transitions,
            || {
                format!(
                    "O2 {} BTs not below O0 {} in {:?}",
                    o2.transitions, o0.transitions, o2.cell
                )
            },
        );
    }
    let totals: Vec<u64> = first.iter().map(|o| o.transitions).collect();
    if args.seed == 42 {
        out.check(totals == PINNED_SEED_42, || {
            format!("seed-42 cell totals {totals:?} differ from pinned {PINNED_SEED_42:?}")
        });
    }
    let one = |tracer: &mut Tracer, out: &mut Outcome| {
        let open = tracer.enter("sweep.pass");
        let outcomes = pass(&workloads, &cells);
        tracer.exit(open);
        let got: Vec<u64> = outcomes.iter().map(|o| o.transitions).collect();
        let errors = outcomes.iter().filter(|o| o.error.is_some()).count();
        out.check(got == totals && errors == 0, || {
            format!("pass gave {got:?} with {errors} errors, first pass {totals:?}")
        });
        outcomes
    };

    let mut m = Metrics::default();
    if tracer.enabled() {
        let mut quiet = Tracer::new("paper-grid", false);
        let untraced = timed_loop(args, args.seconds / 2, || {
            one(&mut quiet, &mut out);
        });
        let mut cell_ms: Vec<Vec<f64>> = Vec::new();
        let traced = timed_loop(args, args.seconds, || {
            let outcomes = one(tracer, &mut out);
            cell_ms.push(outcomes.iter().map(|o| o.wall_ms as f64).collect());
        });
        let workers = std::thread::available_parallelism()
            .map_or(1, std::num::NonZero::get)
            .min(cells.len());
        let efficiency: Vec<f64> = cell_ms
            .iter()
            .zip(&traced)
            .map(|(walls, pass_ms)| walls.iter().sum::<f64>() / (workers as f64 * pass_ms))
            .collect();
        m.set(
            "bench.trace_overhead_pct",
            (stats::median(&traced) / stats::median(&untraced) - 1.0) * 100.0,
        );
        let maxima: Vec<f64> = cell_ms
            .iter()
            .map(|w| w.iter().copied().fold(0.0, f64::max))
            .collect();
        let all: Vec<f64> = cell_ms.concat();
        m.set("sweep.cell_ms_p50", stats::median(&all));
        m.set(
            "sweep.cell_ms_p90",
            stats::supported_percentile(&all, 0.9, 10).unwrap_or(0.0),
        );
        m.set("sweep.cell_ms_max", stats::median(&maxima));
        m.set("sweep.parallel_efficiency", stats::median(&efficiency));
        let n = first.len() as f64;
        let sum = |f: fn(&CellOutcome) -> u64| first.iter().map(f).sum::<u64>() as f64;
        m.set("noc.flit_hops_per_infer", sum(|o| o.flit_hops) / n);
        m.set("noc.cycles_per_infer", sum(|o| o.cycles) / n);
        m.set("noc.retransmitted_flits", sum(|o| o.retransmitted_flits));
        m.set("noc.retried_packets", sum(|o| o.retried_packets));
        m.set(
            "accel.analytic_phase_frac",
            first.iter().map(|o| o.analytic_phase_fraction).sum::<f64>() / n,
        );
        m.set(
            "accel.index_overhead_bits_per_infer",
            sum(|o| o.index_overhead_bits) / n,
        );
        m.set(
            "dnn.lower_ms",
            stats::median(&tracer.durations_ms("dnn.lower")),
        );
        out.metrics = m;
        return out;
    }

    // Rates divide one pass's work by the median pass time (at the
    // reference host speed).
    let samples = timed_loop(args, args.seconds, || {
        one(tracer, &mut out);
    });
    let pass_ms = stats::median(&samples);
    let pass_s = pass_ms / 1e3;
    let packets: u64 = first.iter().map(|o| o.request_packets).sum();
    let hops: u64 = first.iter().map(|o| o.flit_hops).sum();
    let reductions: Vec<f64> = pairs(&first)
        .map(|(o0, o2)| 100.0 * (1.0 - o2.transitions as f64 / o0.transitions as f64))
        .collect();
    let (ordered_bt, ordered_packets) = pairs(&first).fold((0u64, 0u64), |(t, p), (_, o2)| {
        (t + o2.transitions, p + o2.request_packets)
    });
    m.set("setup_s", setup_s);
    m.set("packets_per_ref_s", packets as f64 / pass_s);
    out.derived
        .push(("cells_per_ref_s", cells.len() as f64 / pass_s));
    m.set("dispatch_ref_ms_p50", pass_ms);
    m.set("sim_flit_hops_per_ref_s", hops as f64 / pass_s);
    m.set(
        "bt_reduction_pct",
        reductions.iter().sum::<f64>() / reductions.len() as f64,
    );
    m.set(
        "link_bt_per_packet",
        ordered_bt as f64 / ordered_packets as f64,
    );
    out.metrics = m;
    out
}
