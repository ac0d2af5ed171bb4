//! Engine parity: the analytic fast-path engine against the cycle
//! engine, at every level it is wired in.
//!
//! 1. **Driver level** — `EngineMode::Auto` must be indistinguishable
//!    from `EngineMode::Cycle` on every number a run reports (outputs,
//!    cycles, per-link BTs, index/codec side-channel accounting) across
//!    `OrderingMethod × CodecKind × CodecScope × batch`: Auto only takes
//!    the fast path when the contention-freedom classifier *proves* the
//!    replay changes nothing, so any observable difference is a bug. A
//!    dedicated uncontended workload pins that Auto really does take the
//!    fast path (`analytic_phase_fraction > 0`) and still matches.
//! 2. **NoC level** — on an eligible (contention-free) phase the forced
//!    analytic replay must equal a fresh cycle run bit for bit: per-link
//!    transitions and flit counts, delivered payloads, closed-form
//!    cycles/latencies, and — with per-link codec scope — the final
//!    persistent `LinkCodecState` of every tx/rx lane.
//! 3. **Streamed request phase** — the driver's request phase streams
//!    each packet from borrowed images (`Simulator::stream_requests`);
//!    queueing the same packets and running `replay_queued_analytic` is
//!    its oracle, on every reported number including the clock.
//! 4. **Replayed response phases** — a session records each hybrid
//!    layer's stepped response phase per batch size and replays it on
//!    later dispatches; every dispatch must equal a fresh session's on
//!    every reported number, clock included, and zero-BER armed ≡ plain
//!    must hold across replays.
//!
//! A property test drives the classifier adversarially: random packet
//! sets, eligible or not. Whenever the classifier says "contention-free"
//! the replay must match the cycle engine exactly (it never
//! misclassifies); either way every payload must deliver losslessly. A
//! second one pins the premise behind `Auto` having a single fast path:
//! a layer whose combined request+response route set is contention-free
//! always qualifies for the hybrid request-replay split.

use noc_btr::accel::config::AccelConfig;
use noc_btr::accel::driver::{run_inference_batch, InferenceSession};
use noc_btr::accel::report::{BatchInferenceResult, ResponsePhase};
use noc_btr::bits::payload::PayloadBits;
use noc_btr::bits::word::{DataFormat, Fx8Word};
use noc_btr::bits::FlitSlab;
use noc_btr::core::codec::{CodecKind, CodecScope, ResyncPolicy};
use noc_btr::core::edc::EdcKind;
use noc_btr::core::task::NeuronTask;
use noc_btr::core::transport::{CodedTransport, TransportConfig};
use noc_btr::core::OrderingMethod;
use noc_btr::dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
use noc_btr::dnn::model::{Layer, Sequential};
use noc_btr::dnn::tensor::Tensor;
use noc_btr::noc::analytic::{routes_contention_free, routes_link_disjoint};
use noc_btr::noc::config::NocConfig;
use noc_btr::noc::fault::ErrorModel;
use noc_btr::noc::packet::Packet;
use noc_btr::noc::routing::Direction;
use noc_btr::noc::session::TaskPort;
use noc_btr::noc::sim::{DeliveredPacket, Simulator};
use noc_btr::noc::EngineMode;
use proptest::prelude::*;
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

fn tiny_inputs(seed: u64, n: usize) -> Vec<Tensor> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            Tensor::from_vec(
                &[1, 8, 8],
                (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
            )
            .unwrap()
        })
        .collect()
}

fn config(
    format: DataFormat,
    ordering: OrderingMethod,
    codec: CodecKind,
    scope: CodecScope,
    batch: usize,
    engine: EngineMode,
) -> AccelConfig {
    let mut c = AccelConfig::paper(4, 4, 2, format, ordering)
        .with_codec(codec)
        .with_codec_scope(scope);
    c.batch_size = batch;
    c.engine = engine;
    c
}

/// Runs the same batch under two engine modes and asserts every
/// reported number is identical.
fn assert_engines_agree(
    ops: &[noc_btr::dnn::model::InferenceOp],
    inputs: &[Tensor],
    a: &AccelConfig,
    b: &AccelConfig,
    what: &str,
) {
    let ra = run_inference_batch(ops, inputs, a).unwrap();
    let rb = run_inference_batch(ops, inputs, b).unwrap();
    for (i, (oa, ob)) in ra.outputs.iter().zip(&rb.outputs).enumerate() {
        assert_eq!(oa.data(), ob.data(), "{what}: output {i}");
    }
    // `total_cycles` is deliberately NOT compared: the engine contract
    // covers BTs, codec states and payloads; the analytic clock is a
    // closed-form estimate, and the pipelined cycle driver overlaps
    // injection with compute, so driver-level clocks legitimately
    // differ once a phase takes the fast path. Exact clock parity for
    // whole queued phases is pinned at the NoC level below.
    assert_eq!(
        ra.stats.total_transitions, rb.stats.total_transitions,
        "{what}: total BTs"
    );
    assert_eq!(ra.stats.per_link, rb.stats.per_link, "{what}: per-link BTs");
    assert_eq!(
        ra.index_overhead_bits, rb.index_overhead_bits,
        "{what}: index overhead"
    );
    assert_eq!(
        ra.codec_overhead_bits, rb.codec_overhead_bits,
        "{what}: codec overhead"
    );
}

#[test]
fn auto_is_bit_identical_to_cycle_across_the_matrix() {
    let model = tiny_model(11);
    let ops = model.inference_ops();
    for ordering in OrderingMethod::ALL {
        for codec in CodecKind::ALL {
            for scope in CodecScope::ALL {
                if scope == CodecScope::PerLink && !codec.is_stateful() {
                    continue; // identical to per-packet by construction
                }
                for batch in [1usize, 2] {
                    let inputs = tiny_inputs(12, batch);
                    let cycle = config(
                        DataFormat::Fixed8,
                        ordering,
                        codec,
                        scope,
                        batch,
                        EngineMode::Cycle,
                    );
                    let auto = config(
                        DataFormat::Fixed8,
                        ordering,
                        codec,
                        scope,
                        batch,
                        EngineMode::Auto,
                    );
                    assert_engines_agree(
                        &ops,
                        &inputs,
                        &cycle,
                        &auto,
                        &format!("{ordering} {codec} {scope:?} batch={batch}"),
                    );
                }
            }
        }
    }
    // Float-32 exercises the other response path, where MAC accumulation
    // order matters: the analytic delivery order must preserve it.
    let inputs = tiny_inputs(13, 2);
    let cycle = config(
        DataFormat::Float32,
        OrderingMethod::Separated,
        CodecKind::DeltaXor,
        CodecScope::PerPacket,
        2,
        EngineMode::Cycle,
    );
    let mut auto = cycle.clone();
    auto.engine = EngineMode::Auto;
    assert_engines_agree(&ops, &inputs, &cycle, &auto, "f32 O2 delta-xor");
}

#[test]
fn auto_takes_the_fast_path_on_uncontended_layers_and_still_matches() {
    // One task per layer: a single (MC, PE) request/response pair whose
    // XY routes are disjoint by direction, so the classifier must prove
    // the phase eligible and Auto must actually ride the analytic
    // engine — while staying bit-identical to the cycle engine.
    let mut rng = StdRng::seed_from_u64(17);
    let model = Sequential::new(vec![
        Layer::Flatten(Flatten::new()),
        Layer::Linear(Linear::new(16, 1, &mut rng)),
    ]);
    let ops = model.inference_ops();
    let inputs = vec![Tensor::from_vec(
        &[1, 4, 4],
        (0..16).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
    .unwrap()];
    for codec in CodecKind::ALL {
        let cycle = config(
            DataFormat::Fixed8,
            OrderingMethod::Separated,
            codec,
            CodecScope::PerPacket,
            1,
            EngineMode::Cycle,
        );
        let mut auto = cycle.clone();
        auto.engine = EngineMode::Auto;
        let fast = run_inference_batch(&ops, &inputs, &auto).unwrap();
        assert!(
            fast.analytic_phase_fraction() > 0.0,
            "{codec}: Auto never took the fast path on a single-task layer"
        );
        assert_engines_agree(
            &ops,
            &inputs,
            &cycle,
            &auto,
            &format!("uncontended {codec}"),
        );
    }
}

#[test]
fn per_link_matrix_rides_the_analytic_fast_path() {
    // Per-link codec scope used to be the one configuration that never
    // took the fast path (the bulk replay guards refused persistent
    // lanes). With the bulk codec-lane kernels plus the hybrid
    // request-phase split, Auto must report a nonzero analytic phase
    // fraction on a real multi-PE model under per-link scope — and stay
    // bit-identical to the cycle engine while doing so.
    let model = tiny_model(11);
    let ops = model.inference_ops();
    let inputs = tiny_inputs(12, 1);
    for ordering in [OrderingMethod::Baseline, OrderingMethod::Separated] {
        for codec in [CodecKind::DeltaXor, CodecKind::BusInvert] {
            let what = format!("{ordering} {codec} per-link");
            let cycle = config(
                DataFormat::Fixed8,
                ordering,
                codec,
                CodecScope::PerLink,
                1,
                EngineMode::Cycle,
            );
            let mut auto = cycle.clone();
            auto.engine = EngineMode::Auto;
            let auto_run = run_inference_batch(&ops, &inputs, &auto).unwrap();
            assert!(
                auto_run.analytic_phase_fraction() > 0.0,
                "{what}: Auto fell back to the cycle engine on every layer"
            );
            assert_engines_agree(&ops, &inputs, &cycle, &auto, &what);
        }
    }
}

/// Asserts two dispatches report identical numbers: outputs, full NoC
/// stats (clock and latency included), side-channel overheads and the
/// per-layer traffic reports, except how each response phase ran.
fn assert_dispatches_agree(a: &BatchInferenceResult, b: &BatchInferenceResult, what: &str) {
    for (i, (oa, ob)) in a.outputs.iter().zip(&b.outputs).enumerate() {
        assert_eq!(oa.data(), ob.data(), "{what}: output {i}");
    }
    assert_eq!(a.outputs.len(), b.outputs.len(), "{what}: outputs");
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.total_cycles, b.total_cycles, "{what}: cycles");
    assert_eq!(
        (
            a.index_overhead_bits,
            a.codec_overhead_bits,
            a.edc_overhead_bits
        ),
        (
            b.index_overhead_bits,
            b.codec_overhead_bits,
            b.edc_overhead_bits
        ),
        "{what}: overheads"
    );
    let layer = |r: &BatchInferenceResult| -> Vec<(u64, u64, u64, u64, bool)> {
        r.per_layer
            .iter()
            .map(|l| {
                let counts = (l.request_packets, l.request_flits, l.cycles);
                (counts.0, counts.1, counts.2, l.transitions, l.analytic)
            })
            .collect()
    };
    assert_eq!(layer(a), layer(b), "{what}: per-layer reports");
}

/// How each hybrid layer's response phase ran, and whether every
/// cycle-engine layer stepped.
fn response_phases(r: &BatchInferenceResult) -> Vec<ResponsePhase> {
    assert!(r
        .per_layer
        .iter()
        .all(|l| l.analytic || l.response_phase == ResponsePhase::Stepped));
    r.per_layer
        .iter()
        .filter(|l| l.analytic)
        .map(|l| l.response_phase)
        .collect()
}

/// The per-link configurations the replay rows run: raw wires, per-link
/// delta-XOR and per-link bus-invert.
const REPLAY_WIRES: [(CodecKind, CodecScope); 3] = [
    (CodecKind::Unencoded, CodecScope::PerPacket),
    (CodecKind::DeltaXor, CodecScope::PerLink),
    (CodecKind::BusInvert, CodecScope::PerLink),
];

#[test]
fn session_replays_match_fresh_sessions() {
    // One session dispatches the same batch three times, with a batch-1
    // run in between. The first dispatch of each batch size steps every
    // hybrid layer's response phase and records it; later ones replay
    // it. Each dispatch must equal a fresh session's.
    let model = tiny_model(11);
    let ops = model.inference_ops();
    let batch = tiny_inputs(12, 2);
    let single = tiny_inputs(13, 1);
    for (codec, scope) in REPLAY_WIRES {
        let what = format!("{codec} {scope}");
        let config = config(
            DataFormat::Fixed8,
            OrderingMethod::Separated,
            codec,
            scope,
            2,
            EngineMode::Auto,
        );
        let session = InferenceSession::new(&ops, config.clone()).unwrap();
        let dispatches = [
            (&batch, false),
            (&batch, true),
            (&single, false),
            (&batch, true),
        ];
        for (k, (inputs, replays)) in dispatches.into_iter().enumerate() {
            let got = session.run(inputs).unwrap();
            let fresh = InferenceSession::new(&ops, config.clone())
                .unwrap()
                .run(inputs)
                .unwrap();
            assert_dispatches_agree(&got, &fresh, &format!("{what}, dispatch {k}"));
            let phases = response_phases(&got);
            assert!(!phases.is_empty(), "{what}: no hybrid layer");
            let want = if replays {
                ResponsePhase::Replayed
            } else {
                ResponsePhase::Stepped
            };
            assert!(phases.iter().all(|&p| p == want), "{what}, dispatch {k}");
        }
    }
}

#[test]
fn zero_ber_armed_replays_equal_plain() {
    // Arming the fault model at ber = 0 keeps the hybrid engine (no
    // error is ever drawn), so its sessions record and replay too: every
    // dispatch, replayed or not, must stay bit-identical to plain wires.
    let model = tiny_model(21);
    let ops = model.inference_ops();
    let inputs = tiny_inputs(22, 2);
    for (codec, scope) in REPLAY_WIRES {
        let what = format!("{codec} {scope}");
        let plain = config(
            DataFormat::Fixed8,
            OrderingMethod::Separated,
            codec,
            scope,
            2,
            EngineMode::Auto,
        );
        let armed =
            plain
                .clone()
                .with_fault(ErrorModel::perfect(5), ResyncPolicy::ReseedOnRetry, 8);
        let plain = InferenceSession::new(&ops, plain).unwrap();
        let armed = InferenceSession::new(&ops, armed).unwrap();
        for k in 0..3 {
            let (p, a) = (plain.run(&inputs).unwrap(), armed.run(&inputs).unwrap());
            assert_dispatches_agree(&a, &p, &format!("{what}, dispatch {k}"));
            assert_eq!((a.retransmitted_flits, a.retried_packets), (0, 0));
            assert_eq!(response_phases(&a), response_phases(&p), "{what}");
            assert_eq!(
                response_phases(&a).contains(&ResponsePhase::Replayed),
                k > 0,
                "{what}, dispatch {k}"
            );
        }
    }
}

/// A random full-width payload image.
fn image(width: u32, rng: &mut StdRng) -> PayloadBits {
    let mut p = PayloadBits::zero(width);
    let mut off = 0;
    while off < width {
        let len = 64.min(width - off);
        p.set_field(off, len, rng.gen());
        off += len;
    }
    p
}

/// Row-local packets on a 4×4 mesh: one packet per row, so no two share
/// any directed router-output link (ejection included).
fn disjoint_packets(width: u32, seed: u64) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..4usize)
        .map(|row| {
            let payload: Vec<PayloadBits> = (0..3).map(|_| image(width, &mut rng)).collect();
            Packet::new(row * 4, row * 4 + 3, payload, row as u64)
        })
        .collect()
}

/// Asserts two simulators ended with identical per-link accounting,
/// codec-lane states and (tag-ordered) delivered payloads.
fn assert_sims_agree(fast: &mut Simulator, slow: &mut Simulator, what: &str) {
    let (fs, ss) = (fast.stats(), slow.stats());
    assert_eq!(fs.per_link, ss.per_link, "{what}: per-link BTs");
    assert_eq!(
        fs.total_transitions, ss.total_transitions,
        "{what}: total BTs"
    );
    assert_eq!(fs.flit_hops, ss.flit_hops, "{what}: flit-hops");
    let nodes = fast.config().num_nodes();
    for link in 0..nodes * Direction::ALL.len() {
        assert_eq!(
            fast.out_link_codec_lanes(link),
            slow.out_link_codec_lanes(link),
            "{what}: out-link {link} codec lanes"
        );
    }
    for node in 0..nodes {
        assert_eq!(
            fast.inject_link_codec_lanes(node),
            slow.inject_link_codec_lanes(node),
            "{what}: injection-link {node} codec lanes"
        );
        let key = |d: &DeliveredPacket| (d.tag, d.src, d.packet_id);
        let mut mine = fast.drain_delivered(node);
        let mut theirs = slow.drain_delivered(node);
        mine.sort_by_key(key);
        theirs.sort_by_key(key);
        assert_eq!(mine.len(), theirs.len(), "{what}: deliveries at {node}");
        for (m, t) in mine.iter().zip(&theirs) {
            assert_eq!(
                (m.src, m.dst, m.tag, &m.payload_flits),
                (t.src, t.dst, t.tag, &t.payload_flits),
                "{what}: delivered payload at {node}"
            );
        }
    }
}

#[test]
fn analytic_replay_matches_cycle_run_with_final_codec_states() {
    // Eligible phase, per-link codec scope: the replay must leave every
    // persistent codec lane in exactly the state the cycle engine does —
    // the wire's memory, not just its transition count.
    for codec in [CodecKind::DeltaXor, CodecKind::BusInvert] {
        let width = 128 + codec.extra_wires();
        let config = NocConfig::mesh(4, 4, width).with_link_codec(Some(codec));
        let mut fast = Simulator::new(config.clone());
        let mut slow = Simulator::new(config);
        for p in disjoint_packets(128, 7) {
            fast.inject(p.clone()).unwrap();
            slow.inject(p).unwrap();
        }
        assert!(fast.queued_phase_is_contention_free());
        fast.replay_queued_analytic(true);
        slow.run_until_idle(100_000).unwrap();
        // Closed-form clock and latency are exact on eligible phases.
        let (fs, ss) = (fast.stats(), slow.stats());
        assert_eq!(fs.cycles, ss.cycles, "{codec}: cycles");
        assert_eq!(fs.latency, ss.latency, "{codec}: latencies");
        assert_sims_agree(&mut fast, &mut slow, &format!("per-link {codec}"));
    }
}

#[test]
fn consecutive_phases_keep_codec_lanes_in_lockstep() {
    // Per-link codec state survives across phases; an analytic phase in
    // the middle must hand the next phase exactly the lane states a
    // cycle phase would have.
    let config = NocConfig::mesh(4, 4, 129).with_link_codec(Some(CodecKind::BusInvert));
    let mut fast = Simulator::new(config.clone());
    let mut slow = Simulator::new(config);
    for phase_seed in 0..3u64 {
        for p in disjoint_packets(128, 100 + phase_seed) {
            fast.inject(p.clone()).unwrap();
            slow.inject(p).unwrap();
        }
        assert!(fast.queued_phase_is_contention_free());
        fast.replay_queued_analytic(true);
        slow.run_until_idle(100_000).unwrap();
        assert_sims_agree(&mut fast, &mut slow, &format!("phase {phase_seed}"));
    }
}

/// One streamed-vs-queued parity row: the transport session that renders
/// the request images, and how many operand pairs each task carries.
struct StreamRow {
    what: &'static str,
    transport: TransportConfig,
    pairs: std::ops::RangeInclusive<usize>,
}

/// Contention-free request traffic from the MCs of a paper 4×4 mesh:
/// random `(mc, pe)` routes, kept only while the set stays
/// contention-free, each carrying a real encoded task's images.
fn streamed_traffic(
    config: &NocConfig,
    port: &TaskPort<CodedTransport>,
    pairs: &std::ops::RangeInclusive<usize>,
    seed: u64,
) -> Vec<(usize, usize, u64, FlitSlab)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pes = config.pe_nodes();
    let mut routes: Vec<(usize, usize)> = Vec::new();
    let mut traffic = Vec::new();
    for tag in 0..40u64 {
        let route = (
            config.mc_nodes[rng.gen_range(0..config.mc_nodes.len())],
            pes[rng.gen_range(0..pes.len())],
        );
        routes.push(route);
        if !routes_contention_free(config, routes.iter().copied()) {
            routes.pop();
            continue;
        }
        let n = rng.gen_range(pairs.clone());
        let word = |rng: &mut StdRng| Fx8Word::new(rng.gen_range(-128i16..128) as i8);
        let task = NeuronTask::new(
            (0..n).map(|_| word(&mut rng)).collect(),
            (0..n).map(|_| word(&mut rng)).collect(),
            word(&mut rng),
        )
        .unwrap();
        let encoded = port.session().encode_task(&task).unwrap();
        traffic.push((route.0, route.1, tag, encoded.wire_rows().clone()));
    }
    traffic
}

#[test]
fn streamed_request_phase_matches_the_queued_replay() {
    // The hybrid driver streams each request straight from its rendered
    // images (`Simulator::stream_requests`); its oracle is queueing the
    // same phase and replaying it with `replay_queued_analytic`. Every
    // reported number must agree: full stats (clock and latency
    // included), per-link BTs and flits, both lane families, and each
    // task's arrival cycle and delivered payload — across three phases on
    // the same simulators, so lane and wire state carries over.
    let rows = [
        StreamRow {
            what: "raw wires",
            transport: TransportConfig::new(OrderingMethod::Separated, 16),
            pairs: 9..=40,
        },
        StreamRow {
            what: "per-link delta-XOR",
            transport: TransportConfig::new(OrderingMethod::Separated, 16)
                .with_codec(CodecKind::DeltaXor)
                .with_scope(CodecScope::PerLink),
            pairs: 9..=40,
        },
        StreamRow {
            // The frame is one wire narrower than the link: every image
            // is re-aligned onto the link width.
            what: "per-link bus-invert",
            transport: TransportConfig::new(OrderingMethod::Baseline, 16)
                .with_codec(CodecKind::BusInvert)
                .with_scope(CodecScope::PerLink),
            pairs: 9..=40,
        },
        StreamRow {
            what: "EDC parity on per-link delta-XOR",
            transport: TransportConfig::new(OrderingMethod::Separated, 16)
                .with_codec(CodecKind::DeltaXor)
                .with_scope(CodecScope::PerLink)
                .with_edc(EdcKind::Parity),
            pairs: 9..=40,
        },
        StreamRow {
            what: "one payload flit per packet",
            transport: TransportConfig::new(OrderingMethod::Baseline, 16)
                .with_codec(CodecKind::DeltaXor)
                .with_scope(CodecScope::PerLink),
            pairs: 1..=7,
        },
    ];
    for row in rows {
        let tc = row.transport;
        let link_codec = (tc.scope == CodecScope::PerLink).then_some(tc.codec);
        let config = NocConfig::paper_mesh(4, 4, 2, tc.link_width_bits::<Fx8Word>())
            .with_link_codec(link_codec);
        let port = TaskPort::new(CodedTransport::new(tc));
        let mut streamed = Simulator::new(config.clone());
        let mut queued = Simulator::new(config.clone());
        for phase in 0..3u64 {
            let what = format!("{} phase {phase}", row.what);
            let traffic = streamed_traffic(&config, &port, &row.pairs, 40 + phase);
            assert!(traffic.len() > 4, "{what}: too little traffic");
            if row.pairs == (1..=7) {
                assert!(
                    traffic.iter().all(|(.., payload)| payload.len() == 1),
                    "{what}: tasks must fit one payload flit"
                );
            }
            for (src, dst, tag, payload) in &traffic {
                queued
                    .inject(Packet::new(*src, *dst, payload.to_payloads(), *tag))
                    .unwrap();
            }
            queued.replay_queued_analytic(true);
            // The queued replay goes source-major, ascending node ids.
            // Stream the sources round-robin from the highest id instead
            // (each in its own order, like the driver's per-MC feed): each
            // link still sees one source's packets, in order.
            let mut order: Vec<&(usize, usize, u64, FlitSlab)> = traffic.iter().collect();
            order.sort_by_key(|(src, _, tag, _)| {
                let rank = traffic
                    .iter()
                    .filter(|(s, _, t, _)| s == src && t < tag)
                    .count();
                (rank, std::cmp::Reverse(*src))
            });
            assert_ne!(order[0].0, order[1].0, "{what}: sources interleave");
            let mut arrivals = Vec::new();
            let mut stream = streamed.stream_requests();
            for (src, dst, tag, payload) in order {
                let d = stream.deliver(*src, *dst, *tag, payload).unwrap();
                port.accept_streamed::<Fx8Word>(d.payload_flits).unwrap();
                arrivals.push((*tag, d.arrival_cycle, d.payload_flits.to_payloads()));
            }
            stream.finish();
            arrivals.sort_by_key(|a| a.0);
            let mut delivered: Vec<(u64, u64, Vec<PayloadBits>)> = queued
                .drain_all_delivered()
                .into_iter()
                .map(|d| (d.tag, d.arrival_cycle, d.payload_flits.to_payloads()))
                .collect();
            delivered.sort_by_key(|d| d.0);
            assert_eq!(arrivals, delivered, "{what}: arrivals and payloads");
            assert_eq!(streamed.stats(), queued.stats(), "{what}: stats");
            let nodes = config.num_nodes();
            for link in 0..nodes * Direction::ALL.len() {
                assert_eq!(
                    streamed.out_link_codec_lanes(link),
                    queued.out_link_codec_lanes(link),
                    "{what}: out-link {link} lanes"
                );
            }
            for node in 0..nodes {
                assert_eq!(
                    streamed.inject_link_codec_lanes(node),
                    queued.inject_link_codec_lanes(node),
                    "{what}: injection-link {node} lanes"
                );
            }
            assert!(streamed.is_idle() && queued.is_idle(), "{what}");
        }
    }
}

proptest! {
    /// The classifier never misclassifies: over random packet sets —
    /// eligible or not — whenever `queued_phase_is_contention_free`
    /// returns `true`, the analytic replay is bit-identical to a fresh
    /// cycle run of the same phase (per-link BTs, flit counts, codec
    /// lanes, delivered payloads, and the closed-form clock). Contended
    /// sets (the classifier said `false`) must still deliver every
    /// payload losslessly under the forced replay.
    #[test]
    fn classifier_verdict_implies_bit_exact_replay(
        seed in 0u64..10_000,
        packets in 1usize..7,
        codec_idx in 0usize..3,
    ) {
        let codec = [None, Some(CodecKind::DeltaXor), Some(CodecKind::BusInvert)][codec_idx];
        let width = 128 + codec.map_or(0, CodecKind::extra_wires);
        let config = NocConfig::mesh(4, 4, width).with_link_codec(codec);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fast = Simulator::new(config.clone());
        let mut slow = Simulator::new(config);
        let mut sent: Vec<(usize, usize, Vec<PayloadBits>)> = Vec::new();
        for tag in 0..packets {
            let src = rng.gen_range(0..16);
            let dst = rng.gen_range(0..16);
            let payload: Vec<PayloadBits> =
                (0..rng.gen_range(1..4)).map(|_| image(128, &mut rng)).collect();
            fast.inject(Packet::new(src, dst, payload.clone(), tag as u64)).unwrap();
            slow.inject(Packet::new(src, dst, payload.clone(), tag as u64)).unwrap();
            sent.push((src, dst, payload));
        }
        let eligible = fast.queued_phase_is_contention_free();
        fast.replay_queued_analytic(eligible);
        if eligible {
            slow.run_until_idle(1_000_000).unwrap();
            let (fs, ss) = (fast.stats(), slow.stats());
            prop_assert_eq!(fs.per_link, ss.per_link, "per-link BTs (seed {})", seed);
            prop_assert_eq!(fs.total_transitions, ss.total_transitions);
            prop_assert_eq!(fs.flit_hops, ss.flit_hops);
            prop_assert_eq!(fs.cycles, ss.cycles, "closed-form clock (seed {})", seed);
            prop_assert_eq!(fs.latency, ss.latency);
            let nodes = fast.config().num_nodes();
            for link in 0..nodes * Direction::ALL.len() {
                prop_assert_eq!(
                    fast.out_link_codec_lanes(link),
                    slow.out_link_codec_lanes(link),
                    "out-link {} lanes (seed {})", link, seed
                );
            }
        }
        // Either way: lossless delivery of every payload bit.
        prop_assert!(fast.is_idle());
        let delivered = fast.drain_all_delivered();
        prop_assert_eq!(delivered.len(), sent.len());
        for (tag, (src, dst, payload)) in sent.iter().enumerate() {
            let got = delivered
                .iter()
                .find(|d| d.tag == tag as u64 && d.src == *src && d.dst == *dst)
                .expect("packet delivered");
            prop_assert_eq!(got.payload_flits.len(), payload.len());
            for (sent_flit, got_flit) in payload.iter().zip(&got.payload_flits.to_payloads()) {
                prop_assert_eq!(&got_flit.resized(sent_flit.width()), sent_flit);
            }
        }
    }

    /// PEs and MCs are disjoint node sets, so a request never shares a
    /// source with a response: a layer whose combined request+response
    /// route set has no cross-source link sharing is already
    /// request-contention-free *and* link-disjoint from its responses —
    /// the hybrid split's condition. This is why `Auto` needs no fully
    /// analytic layer path beside the hybrid one.
    #[test]
    fn combined_contention_freedom_implies_the_hybrid_split(
        seed in 0u64..10_000,
        tasks in 1usize..5,
        mesh_idx in 0usize..3,
    ) {
        let (side, mcs) = [(4, 2), (8, 4), (8, 8)][mesh_idx];
        let config = NocConfig::paper_mesh(side, side, mcs, 128);
        let pes = config.pe_nodes();
        let mut rng = StdRng::seed_from_u64(seed);
        let dests: Vec<(usize, usize)> = (0..tasks)
            .map(|_| {
                let pe = pes[rng.gen_range(0..pes.len())];
                (pe, config.mc_nodes[rng.gen_range(0..mcs)])
            })
            .collect();
        let requests = || dests.iter().map(|&(pe, mc)| (mc, pe));
        let responses = || dests.iter().map(|&(pe, mc)| (pe, mc));
        if routes_contention_free(&config, requests().chain(responses())) {
            prop_assert!(routes_contention_free(&config, requests()), "seed {}", seed);
            prop_assert!(
                routes_link_disjoint(&config, requests(), responses()),
                "seed {}", seed
            );
        }
    }
}
