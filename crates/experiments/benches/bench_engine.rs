//! Throughput of `EngineMode::Auto`'s replays and of the analytic
//! stream replay against the cycle-accurate NoC, measured at three
//! levels:
//!
//! 1. **`engine`** — full sweep cells: the smoke-preset grid (LeNet
//!    fixed-8, 4×4 MC2, O0/O2 × every codec) run once per `EngineMode`,
//!    one bench iteration = one full grid pass. `cells/sec` is the sweep
//!    runner's unit of progress, so the ratio between the modes is the
//!    wall-clock win `auto` buys a grid sweep end-to-end. Recordings are
//!    shared by the whole process, so after the first pass records each
//!    layer shape every `auto` cell replays all of its layers. A sweep
//!    cell also pays for encode/flitize/codec, PE MACs and output
//!    assembly — work both engines share — so the end-to-end ratio is
//!    Amdahl-bound well below the engine-phase ratio.
//!
//! 2. **`engine_kernel`** — the engine phase alone: an identical
//!    smoke-shaped packet set (2 MCs round-robin over the 14 PEs,
//!    conv-task-sized payloads on 128-bit links) pushed through
//!    per-cycle mesh stepping vs `replay_queued_analytic`. Same
//!    traffic, same per-link accounting — the only difference is
//!    routers/VC allocation/credit stepping vs straight XOR+popcount
//!    stream passes. This isolates the analytic replay's own speedup.
//!
//! 3. **`lane_kernel`** — one persistent per-link codec lane fed the
//!    same flit runs per flit (`observe_payload`) and in bulk
//!    (`observe_payload_run`).
//!
//! Every pair runs on the paired-ratio harness (`common`) and writes
//! `BENCH_engine.json` / `BENCH_engine_kernel.json` /
//! `BENCH_lane_kernel.json` (schema `btr-bench-v1`).
//!
//! `BTR_BENCH_ENGINE_SMOKE=1` switches to random weights (no training)
//! and 5 pairs per point, and **asserts** on the lower quartile of the
//! paired A/B time ratios: analytic replay ≥ 5x cycle stepping on the
//! stream-shaped kernel, an `auto` grid pass ≥ 1.15x the cycle grid
//! pass, and the bulk lane kernel ≥ 1x the per-flit walk on all four
//! points and ≥ 3x on both stream points.

mod common;

use btr_bits::payload::PayloadBits;
use btr_bits::slab::FlitSlab;
use btr_bits::word::DataFormat;
use btr_core::codec::{CodecKind, CodecScope, ResyncPolicy};
use btr_core::edc::EdcKind;
use btr_core::ordering::{OrderingMethod, TieBreak};
use btr_dnn::data::SyntheticDigits;
use btr_dnn::tensor::Tensor;
use btr_noc::config::NocConfig;
use btr_noc::fault::{BitErrorRate, FaultMode};
use btr_noc::packet::Packet;
use btr_noc::sim::{DeliveredPacket, Simulator};
use btr_noc::stats::LinkSlab;
use btr_noc::EngineMode;
use common::{iter, iter_batched, Group, SMOKE_PAIRS};
use experiments::sweep::{expand_grid, run_cells, MeshSpec, SweepCell, Workload};
use experiments::workloads::{lenet, WeightSource};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// The smoke-preset grid restricted to one engine mode.
fn engine_grid(engine: EngineMode) -> Vec<SweepCell> {
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
        &CodecKind::ALL,
        &[CodecScope::PerPacket],
        &[1],
        &[engine],
        &[BitErrorRate::default()],
        &[EdcKind::None],
        &[ResyncPolicy::ReseedOnRetry],
        &[FaultMode::PerFlit],
    )
}

/// Packets shaped like MC→PE traffic on the smoke mesh: every MC of
/// the 4×4 MC2 mesh streams `flits_per_packet` 128-bit payload flits
/// round-robin over the PEs, random payload images. Four flits is the
/// smoke grid's conv-task shape; 32 flits is the weight-stream shape
/// (long batch-boundary transfers, the analytic engine's home turf).
fn kernel_traffic(
    config: &NocConfig,
    packets: usize,
    flits_per_packet: usize,
    seed: u64,
) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pes = config.pe_nodes();
    let mcs = &config.mc_nodes;
    (0..packets)
        .map(|j| {
            let src = mcs[j % mcs.len()];
            let dst = pes[(j / mcs.len()) % pes.len()];
            let flits = (0..flits_per_packet)
                .map(|_| {
                    let mut image = PayloadBits::zero(config.link_width_bits);
                    let mut off = 0;
                    while off < config.link_width_bits {
                        let len = 64.min(config.link_width_bits - off);
                        image.set_field(off, len, rng.gen());
                        off += len;
                    }
                    image
                })
                .collect();
            Packet::new(src, dst, flits, j as u64)
        })
        .collect()
}

/// Payload-flit runs in the two kernel shapes, as one slab of
/// link-aligned rows per packet (`data_width` data wires zero-extended
/// onto `link_width`): the inputs `LinkSlab::observe_payload` walks flit
/// by flit and `LinkSlab::observe_payload_run` consumes in one pass.
fn lane_runs(
    data_width: u32,
    link_width: u32,
    packets: usize,
    flits_per_packet: usize,
    seed: u64,
) -> Vec<FlitSlab> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..packets)
        .map(|_| {
            let mut rows = FlitSlab::with_capacity(link_width, flits_per_packet);
            rows.push_zeroed(flits_per_packet);
            for flit in 0..flits_per_packet {
                let mut off = 0;
                while off < data_width {
                    let len = 64.min(data_width - off);
                    rows.set_lane(flit, off, len, rng.gen());
                    off += len;
                }
            }
            rows
        })
        .collect()
}

/// The per-flit walk: every payload flit steps the persistent tx lane,
/// advances the mirrored rx lane and charges the accumulator one flit
/// at a time — the path contended per-link phases still pay.
fn lane_perflit(mut slab: LinkSlab, runs: &[FlitSlab]) -> u64 {
    let mut row = Vec::new();
    for run in runs {
        for flit in 0..run.len() {
            row.clear();
            row.extend_from_slice(run.flit(flit));
            slab.observe_payload(0, &mut row);
            black_box(&row);
        }
    }
    slab.transitions(0)
}

/// The bulk lane kernel: each packet's whole flit run advances the lane
/// and the accumulator in one XOR+popcount pass.
fn lane_bulk(mut slab: LinkSlab, runs: &[FlitSlab]) -> u64 {
    for run in runs {
        slab.observe_payload_run(0, run);
    }
    slab.transitions(0)
}

/// Builds a fresh simulator with the whole packet set queued at its
/// NIs. Runs as `iter_batched` *setup*: simulator construction,
/// traffic cloning and injection queueing are identical under either
/// engine, so the timed region holds engine work only.
fn primed_sim(config: &NocConfig, packets: &[Packet]) -> (Simulator, usize) {
    let mut sim = Simulator::new(config.clone());
    for p in packets {
        sim.inject(p.clone()).expect("kernel packet injects");
    }
    (sim, packets.len())
}

/// Pushes the queued packets through per-cycle mesh stepping until
/// every packet delivers; returns total transitions (sanity +
/// `black_box`).
fn kernel_cycle(mut sim: Simulator, expected: usize) -> u64 {
    let mut buf: Vec<DeliveredPacket> = Vec::new();
    let mut delivered = 0;
    while delivered < expected {
        sim.step();
        sim.drain_all_delivered_into(&mut buf);
        delivered += buf.len();
        assert!(sim.cycle() < 10_000_000, "kernel traffic stalled");
    }
    sim.stats().total_transitions
}

/// Pushes the same queued packets through the analytic stream replay
/// (forced mode: serialized per-source FIFO streams).
fn kernel_analytic(mut sim: Simulator, expected: usize) -> u64 {
    sim.replay_queued_analytic(false);
    let mut buf: Vec<DeliveredPacket> = Vec::new();
    sim.drain_all_delivered_into(&mut buf);
    assert_eq!(buf.len(), expected, "every kernel packet delivers");
    sim.stats().total_transitions
}

/// One smoke-grid pass under `engine`; every cell must succeed.
fn grid_pass(workloads: &[Workload], engine: EngineMode) -> impl FnMut() -> usize + '_ {
    let cells = engine_grid(engine);
    move || {
        let outcomes = run_cells(black_box(workloads), cells.clone(), true);
        for outcome in &outcomes {
            assert!(
                outcome.transitions > 0,
                "{} cell failed: {outcome:?}",
                engine.label()
            );
        }
        outcomes.len()
    }
}

fn main() {
    let smoke = std::env::var("BTR_BENCH_ENGINE_SMOKE").is_ok();
    let source = if smoke {
        WeightSource::Random
    } else {
        WeightSource::Trained
    };
    let seed = 42u64;
    let digits = SyntheticDigits::new();
    let mut rng = StdRng::seed_from_u64(seed);
    let workloads = vec![Workload {
        name: "lenet".into(),
        ops: lenet(source, seed).inference_ops(),
        inputs: (0..4)
            .map(|i| digits.sample((7 + i) % 10, &mut rng).input)
            .collect::<Vec<Tensor>>(),
    }];
    let cells_per_grid = engine_grid(EngineMode::Cycle).len();

    // End to end: sweep cells also pay the engine-independent transport
    // pipeline (encode/codec/MAC/assembly), so the grid ratio is
    // Amdahl-bound far below the kernel ratio, but the auto grid pass
    // must still clearly win, or the integration ate the engine's gain.
    let mut group = Group::new("engine", if smoke { SMOKE_PAIRS } else { 5 });
    let (cycle, auto) = (EngineMode::Cycle, EngineMode::Auto);
    let grid = group.pair(
        cycle.label(),
        iter(grid_pass(&workloads, cycle)),
        auto.label(),
        iter(grid_pass(&workloads, auto)),
    );
    group.finish();
    for engine in [cycle, auto] {
        let ns = group.point(engine.label()).mean_ns();
        println!(
            "  {:<9} {:>9.2} ms/cell  ({:>8.2} cells/sec, {cells_per_grid} cells per pass)",
            engine.label(),
            ns / cells_per_grid as f64 / 1e6,
            cells_per_grid as f64 * 1e9 / ns
        );
    }

    // Engine-phase kernel: identical traffic through both engines, in
    // the smoke grid's task shape and the weight-stream shape, and on
    // the stream shape with per-link delta-XOR lanes (the configuration
    // that could not replay at all before the bulk lane kernels).
    let noc = NocConfig::paper_mesh(4, 4, 2, 128);
    let coded = NocConfig::paper_mesh(4, 4, 2, 128).with_link_codec(Some(CodecKind::DeltaXor));
    let kernels = [
        ("task", kernel_traffic(&noc, 1024, 4, seed), &noc),
        ("stream", kernel_traffic(&noc, 256, 32, seed), &noc),
        (
            "perlink_stream",
            kernel_traffic(&coded, 256, 32, seed),
            &coded,
        ),
    ];
    let mut group = Group::new("engine_kernel", if smoke { SMOKE_PAIRS } else { 10 });
    let mut stream = 0.0;
    for (shape, traffic, config) in &kernels {
        let ratio = group.pair(
            &format!("cycle_{shape}"),
            iter_batched(
                || primed_sim(config, traffic),
                |(sim, n)| kernel_cycle(black_box(sim), n),
            ),
            &format!("analytic_{shape}"),
            iter_batched(
                || primed_sim(config, traffic),
                |(sim, n)| kernel_analytic(black_box(sim), n),
            ),
        );
        if *shape == "stream" {
            stream = ratio;
        }
    }
    group.finish();

    // Codec-lane kernel: the per-flit walk vs the bulk run kernel over
    // one persistent per-link lane, both codecs, both shapes: the
    // narrowest isolation of what the run kernels buy.
    let mut group = Group::new("lane_kernel", if smoke { SMOKE_PAIRS } else { 10 });
    let mut lanes = Vec::new();
    for (codec_name, codec) in [
        ("businvert", CodecKind::BusInvert),
        ("deltaxor", CodecKind::DeltaXor),
    ] {
        for (shape, packets, flits) in [("task", 1024, 4), ("stream", 256, 32)] {
            let slab_width = 128 + codec.extra_wires();
            let runs = lane_runs(128, slab_width, packets, flits, seed);
            let ratio = group.pair(
                &format!("perflit_{codec_name}_{shape}"),
                iter_batched(
                    || LinkSlab::with_link_codec(slab_width, 1, codec),
                    |slab| lane_perflit(black_box(slab), &runs),
                ),
                &format!("bulk_{codec_name}_{shape}"),
                iter_batched(
                    || LinkSlab::with_link_codec(slab_width, 1, codec),
                    |slab| lane_bulk(black_box(slab), &runs),
                ),
            );
            lanes.push((codec_name, shape, ratio));
        }
    }
    group.finish();

    if smoke {
        assert!(
            grid >= 1.15,
            "auto grid pass not clearly faster end to end (cycle/auto {grid:.2}x < 1.15x)"
        );
        // The engine phase: replaying the very same packets must beat
        // router/VC/credit stepping by 5x on streaming transfers, where
        // per-packet setup amortizes, or the fast path stopped being one.
        assert!(
            stream >= 5.0,
            "analytic replay under 5x cycle stepping on identical traffic ({stream:.2}x)"
        );
        // The bulk lane kernel never loses to the per-flit walk it
        // replaces, and wins 3x on long weight-stream runs, where
        // per-flit wire materialization, mirrored-lane advance and
        // accumulator bookkeeping dominate.
        for (codec, shape, ratio) in lanes {
            let bound = if shape == "stream" { 3.0 } else { 1.0 };
            assert!(
                ratio >= bound,
                "bulk lane kernel under {bound}x the per-flit walk ({codec} {shape}: {ratio:.2}x)"
            );
        }
        println!(
            "smoke check: grid {grid:.2}x >= 1.15x, stream kernel {stream:.1}x >= 5x, \
             bulk lane kernel >= 1x everywhere and >= 3x on streams"
        );
    }
}
