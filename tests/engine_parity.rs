//! Engine parity: `EngineMode::Auto` against the cycle engine, at every
//! level it is wired in.
//!
//! 1. **Driver level** — `EngineMode::Auto` must be indistinguishable
//!    from `EngineMode::Cycle` on every number a run reports (outputs,
//!    full NoC stats with the clock and latencies, per-layer reports,
//!    side-channel and recovery accounting) across `OrderingMethod ×
//!    CodecKind × CodecScope × batch`. Auto steps the first layer of each
//!    shape and records it, and replays the recording on every later
//!    layer of that shape; each auto configuration runs twice, so the
//!    second dispatch replays every layer, and both must match.
//! 2. **Replayed layers across dispatches** — recordings are shared by
//!    the whole process, so whether a shape's first dispatch in a test
//!    steps or replays depends on which test recorded it first; no
//!    assertion here depends on that. Every dispatch must equal the
//!    cycle engine's, and zero-BER armed ≡ plain must hold across
//!    replays.
//! 3. **Queued contention-free phases** — on an eligible phase the
//!    analytic replay of the packets queued at the NIs must equal a
//!    fresh cycle run bit for bit: per-link transitions and flit counts,
//!    delivered payloads, closed-form cycles/latencies, and — with
//!    per-link codec scope — the final persistent `LinkCodecState` of
//!    every tx/rx lane.
//!
//! A property test drives the classifier adversarially: random packet
//! sets, eligible or not. Whenever the classifier says "contention-free"
//! the replay must match the cycle engine exactly (it never
//! misclassifies); either way every payload must deliver losslessly.

use noc_btr::accel::config::AccelConfig;
use noc_btr::accel::driver::{run_inference_batch, InferenceSession};
use noc_btr::accel::report::BatchInferenceResult;
use noc_btr::bits::payload::PayloadBits;
use noc_btr::bits::word::DataFormat;
use noc_btr::core::codec::{CodecKind, CodecScope, ResyncPolicy};
use noc_btr::core::OrderingMethod;
use noc_btr::dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
use noc_btr::dnn::model::{Layer, Sequential};
use noc_btr::dnn::tensor::Tensor;
use noc_btr::noc::config::NocConfig;
use noc_btr::noc::fault::ErrorModel;
use noc_btr::noc::packet::Packet;
use noc_btr::noc::routing::Direction;
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

/// Asserts two dispatches report identical numbers: outputs, full NoC
/// stats (clock and latency included), side-channel and recovery
/// accounting, and the per-layer traffic reports (cycles included),
/// except whether each layer replayed.
fn assert_dispatches_agree(a: &BatchInferenceResult, b: &BatchInferenceResult, what: &str) {
    assert_eq!(a.outputs.len(), b.outputs.len(), "{what}: outputs");
    for (i, (oa, ob)) in a.outputs.iter().zip(&b.outputs).enumerate() {
        assert_eq!(oa.data(), ob.data(), "{what}: output {i}");
    }
    assert_eq!(a.stats, b.stats, "{what}: stats");
    assert_eq!(a.total_cycles, b.total_cycles, "{what}: cycles");
    assert_eq!(
        (
            a.index_overhead_bits,
            a.codec_overhead_bits,
            a.edc_overhead_bits,
            a.retransmitted_flits,
            a.retried_packets
        ),
        (
            b.index_overhead_bits,
            b.codec_overhead_bits,
            b.edc_overhead_bits,
            b.retransmitted_flits,
            b.retried_packets
        ),
        "{what}: overheads"
    );
    let layer = |r: &BatchInferenceResult| -> Vec<(usize, u64, u64, u64, u64, usize)> {
        r.per_layer
            .iter()
            .map(|l| {
                let counts = (l.request_packets, l.request_flits, l.cycles);
                let layer = (l.op_index, l.transitions, l.pairs_per_task);
                (layer.0, counts.0, counts.1, counts.2, layer.1, layer.2)
            })
            .collect()
    };
    assert_eq!(layer(a), layer(b), "{what}: per-layer reports");
}

/// Runs the same batch under the cycle configuration `a` once and the
/// auto configuration `b` twice in one session — its second dispatch
/// replays every layer — and asserts every reported number is identical.
/// Returns the second auto dispatch.
fn assert_engines_agree(
    ops: &[noc_btr::dnn::model::InferenceOp],
    inputs: &[Tensor],
    a: &AccelConfig,
    b: &AccelConfig,
    what: &str,
) -> BatchInferenceResult {
    let ra = run_inference_batch(ops, inputs, a).unwrap();
    let session = InferenceSession::new(ops, b.clone()).unwrap();
    let first = session.run(inputs).unwrap();
    assert_dispatches_agree(&ra, &first, &format!("{what}, first dispatch"));
    let again = session.run(inputs).unwrap();
    assert_dispatches_agree(&ra, &again, &format!("{what}, second dispatch"));
    again
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
                    let replayed = assert_engines_agree(
                        &ops,
                        &inputs,
                        &cycle,
                        &auto,
                        &format!("{ordering} {codec} {scope:?} batch={batch}"),
                    );
                    assert_eq!(replayed.analytic_phase_fraction(), 1.0);
                }
            }
        }
    }
    // Float-32 exercises the other response path, where MAC accumulation
    // order matters: the replayed delivery order must preserve it.
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
    // One task per layer: a single (MC, PE) request/response pair. Its
    // second dispatch must replay the recorded layer and still be
    // bit-identical to the cycle engine.
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
        let replayed = assert_engines_agree(
            &ops,
            &inputs,
            &cycle,
            &auto,
            &format!("uncontended {codec}"),
        );
        assert!(
            replayed.analytic_phase_fraction() > 0.0,
            "{codec}: Auto never replayed a single-task layer"
        );
    }
}

#[test]
fn per_link_matrix_rides_the_analytic_fast_path() {
    // Per-link codec scope: the replay walks the persistent codec lanes
    // of every link through the recorded flit order. A real multi-PE
    // model must replay every layer on its second dispatch and stay
    // bit-identical to the cycle engine.
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
            let replayed = assert_engines_agree(&ops, &inputs, &cycle, &auto, &what);
            assert_eq!(replayed.analytic_phase_fraction(), 1.0, "{what}");
        }
    }
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
    // run in between. A dispatch whose batch size the session ran before
    // replays every layer; each dispatch must equal a fresh cycle-engine
    // session's.
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
        let mut cycle = config.clone();
        cycle.engine = EngineMode::Cycle;
        let session = InferenceSession::new(&ops, config).unwrap();
        let dispatches = [
            (&batch, false),
            (&batch, true),
            (&single, false),
            (&batch, true),
        ];
        for (k, (inputs, replays)) in dispatches.into_iter().enumerate() {
            let got = session.run(inputs).unwrap();
            let want = InferenceSession::new(&ops, cycle.clone())
                .unwrap()
                .run(inputs)
                .unwrap();
            assert_dispatches_agree(&got, &want, &format!("{what}, dispatch {k}"));
            if replays {
                assert_eq!(got.analytic_phase_fraction(), 1.0, "{what}, dispatch {k}");
            }
        }
    }
}

#[test]
fn zero_ber_armed_replays_equal_plain() {
    // Arming the fault model at ber = 0 draws no error, so armed layers
    // record and replay too: every dispatch, replayed or not, must stay
    // bit-identical to plain wires.
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
            if k > 0 {
                assert_eq!(a.analytic_phase_fraction(), 1.0, "{what}, dispatch {k}");
            }
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
    let ((fast_out, fast_in), (slow_out, slow_in)) = (fast.link_slabs(), slow.link_slabs());
    for link in 0..nodes * Direction::ALL.len() {
        assert_eq!(
            fast_out.codec_lane_states(link),
            slow_out.codec_lane_states(link),
            "{what}: out-link {link} codec lanes"
        );
    }
    for node in 0..nodes {
        assert_eq!(
            fast_in.codec_lane_states(node),
            slow_in.codec_lane_states(node),
            "{what}: injection-link {node} codec lanes"
        );
    }
    // Deliveries come out node by node; sort each side the same way.
    let key = |d: &DeliveredPacket| (d.dst, d.tag, d.src, d.packet_id);
    let mut mine = fast.drain_all_delivered();
    let mut theirs = slow.drain_all_delivered();
    mine.sort_by_key(key);
    theirs.sort_by_key(key);
    assert_eq!(mine.len(), theirs.len(), "{what}: deliveries");
    for (m, t) in mine.iter().zip(&theirs) {
        assert_eq!(
            (m.src, m.dst, m.tag, &m.payload_flits),
            (t.src, t.dst, t.tag, &t.payload_flits),
            "{what}: delivered payload at {}",
            m.dst
        );
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
            let (fast_out, slow_out) = (fast.link_slabs().0, slow.link_slabs().0);
            for link in 0..nodes * Direction::ALL.len() {
                prop_assert_eq!(
                    fast_out.codec_lane_states(link),
                    slow_out.codec_lane_states(link),
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
}
