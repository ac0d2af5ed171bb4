//! Parity tests for the unified transport pipeline and the flat-array
//! NoC engine.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Transport round-trip**: for every `OrderingMethod × TieBreak`
//!    combination, encoding a task through the shared
//!    [`TransportSession`] and decoding the delivered wire images
//!    recovers the exact multiply-accumulate result (integer-exact for
//!    fixed-8, reassociation-tolerant for float-32).
//! 2. **Engine parity**: the flat-array simulator reproduces the legacy
//!    map/deque implementation bit-exactly — identical per-link BT
//!    totals, cycles, latency and delivered payloads — on seeded 4×4
//!    mesh workloads, both for raw traffic and for transport-encoded
//!    task packets.
//! 3. **Codec parity**: `CodedTransport` with `CodecKind::Unencoded`
//!    produces bit-identical wire images, per-link BT totals, cycles
//!    and recovered tasks to the pre-refactor ordered-transport path
//!    (ordering + flitization with no codec stage), and both coded
//!    backends are lossless at the PE across the mesh.

use noc_btr::bits::word::{DataWord, F32Word, Fx8Word};
use noc_btr::bits::PayloadBits;
use noc_btr::core::codec::{CodecKind, CodecScope};
use noc_btr::core::edc::EdcKind;
use noc_btr::core::flitize::order_task_with;
use noc_btr::core::ordering::{OrderingMethod, TieBreak};
use noc_btr::core::task::NeuronTask;
use noc_btr::core::transport::{
    CodedTransport, TransportConfig, TransportScratch, TransportSession,
};
use noc_btr::noc::config::NocConfig;
use noc_btr::noc::legacy::LegacySimulator;
use noc_btr::noc::packet::Packet;
use noc_btr::noc::session::TaskPort;
use noc_btr::noc::sim::Simulator;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_fx8_task(rng: &mut StdRng, n: usize) -> NeuronTask<Fx8Word> {
    let inputs: Vec<Fx8Word> = (0..n).map(|_| Fx8Word::new(rng.gen())).collect();
    let weights: Vec<Fx8Word> = (0..n).map(|_| Fx8Word::new(rng.gen())).collect();
    NeuronTask::new(inputs, weights, Fx8Word::new(rng.gen())).unwrap()
}

#[test]
fn transport_roundtrip_mac_equality_all_orderings_and_tiebreaks() {
    let mut rng = StdRng::seed_from_u64(42);
    for _case in 0..20 {
        let n = rng.gen_range(1..120usize);
        let task = random_fx8_task(&mut rng, n);
        for ordering in OrderingMethod::ALL {
            for tiebreak in [TieBreak::Stable, TieBreak::Value] {
                for vpf in [4usize, 8, 16] {
                    let session = CodedTransport::new(TransportConfig {
                        ordering,
                        tiebreak,
                        values_per_flit: vpf,
                        codec: CodecKind::Unencoded,
                        scope: CodecScope::PerPacket,
                        edc: EdcKind::None,
                    });
                    let enc = session.encode_task(&task).unwrap();
                    let rec = session
                        .decode_task(&enc.wire_meta(), &enc.payload_flits())
                        .unwrap();
                    assert_eq!(
                        rec.mac_i64(),
                        task.mac_i64(),
                        "{ordering} {tiebreak:?} vpf={vpf} n={n}"
                    );
                }
            }
        }
    }
}

#[test]
fn transport_roundtrip_f32_within_reassociation_tolerance() {
    let mut rng = StdRng::seed_from_u64(7);
    for _case in 0..10 {
        let n = rng.gen_range(1..60usize);
        let inputs: Vec<F32Word> = (0..n)
            .map(|_| F32Word::new(rng.gen_range(-2.0..2.0)))
            .collect();
        let weights: Vec<F32Word> = (0..n)
            .map(|_| F32Word::new(rng.gen_range(-2.0..2.0)))
            .collect();
        let task = NeuronTask::new(inputs, weights, F32Word::new(0.5)).unwrap();
        for ordering in OrderingMethod::ALL {
            for tiebreak in [TieBreak::Stable, TieBreak::Value] {
                let session = CodedTransport::new(TransportConfig {
                    ordering,
                    tiebreak,
                    values_per_flit: 16,
                    codec: CodecKind::Unencoded,
                    scope: CodecScope::PerPacket,
                    edc: EdcKind::None,
                });
                let enc = session.encode_task(&task).unwrap();
                let rec = session
                    .decode_task(&enc.wire_meta(), &enc.payload_flits())
                    .unwrap();
                let want = task.mac_f64();
                assert!(
                    (rec.mac_f64() - want).abs() < 1e-6 * (1.0 + want.abs()),
                    "{ordering} {tiebreak:?}"
                );
            }
        }
    }
}

/// Seeded random traffic: the flat engine and the legacy engine must
/// agree on everything observable, per link.
#[test]
fn flat_engine_matches_legacy_on_seeded_traffic() {
    let config = NocConfig::mesh(4, 4, 128);
    let mut rng = StdRng::seed_from_u64(2024);
    let packets: Vec<Packet> = (0..400u64)
        .map(|tag| {
            let src = rng.gen_range(0..16);
            let dst = rng.gen_range(0..16);
            let payload: Vec<PayloadBits> = (0..rng.gen_range(1..8))
                .map(|_| {
                    let mut p = PayloadBits::zero(128);
                    p.set_field(0, 64, rng.gen());
                    p.set_field(64, 64, rng.gen());
                    p
                })
                .collect();
            Packet::new(src, dst, payload, tag)
        })
        .collect();

    let mut flat = Simulator::new(config.clone());
    let mut legacy = LegacySimulator::new(config);
    for p in &packets {
        flat.inject(p.clone()).unwrap();
        legacy.inject(p.clone()).unwrap();
    }
    let flat_cycles = flat.run_until_idle(1_000_000).unwrap();
    let legacy_cycles = legacy.run_until_idle(1_000_000).unwrap();
    assert_eq!(flat_cycles, legacy_cycles);

    let (fs, ls) = (flat.stats(), legacy.stats());
    assert_eq!(fs.total_transitions, ls.total_transitions);
    assert_eq!(fs.inter_router_transitions, ls.inter_router_transitions);
    assert_eq!(fs.injection_transitions, ls.injection_transitions);
    assert_eq!(fs.ejection_transitions, ls.ejection_transitions);
    assert_eq!(fs.flit_hops, ls.flit_hops);
    assert_eq!(fs.latency, ls.latency);
    // The satellite requirement: per-link BT totals, bit-exact.
    assert_eq!(fs.per_link, ls.per_link);

    // Delivered payloads agree too.
    for node in 0..16 {
        let f = flat.drain_delivered(node);
        let l = legacy.drain_delivered(node);
        assert_eq!(f, l, "node {node}");
    }
}

/// Transport-encoded task packets (the accelerator's traffic shape)
/// through both engines: per-link BT totals stay bit-exact and every
/// task decodes to the same MAC on both sides.
#[test]
fn flat_engine_matches_legacy_on_transport_tasks() {
    let config = NocConfig::mesh(4, 4, 128);
    let session = CodedTransport::new(TransportConfig::new(OrderingMethod::Separated, 16));
    let port = TaskPort::new(session);
    let mut rng = StdRng::seed_from_u64(99);

    let mut flat = Simulator::new(config.clone());
    let mut legacy = LegacySimulator::new(config);
    let mut tasks = Vec::new();
    for tag in 0..120u64 {
        let task = random_fx8_task(&mut rng, 25);
        let src = rng.gen_range(0..16);
        let dst = rng.gen_range(0..16);
        let meta = port.send_task(&mut flat, src, dst, &task, tag).unwrap();
        // Same wire images into the legacy engine.
        let enc = port.session().encode_task(&task).unwrap();
        legacy
            .inject(Packet::new(src, dst, enc.payload_flits(), tag))
            .unwrap();
        tasks.push((task, dst, meta));
    }
    flat.run_until_idle(1_000_000).unwrap();
    legacy.run_until_idle(1_000_000).unwrap();

    let (fs, ls) = (flat.stats(), legacy.stats());
    assert_eq!(fs.per_link, ls.per_link);
    assert_eq!(fs.cycles, ls.cycles);

    // Decode every delivery off the flat engine's wires.
    let mut delivered = flat.drain_all_delivered();
    delivered.sort_by_key(|d| d.tag);
    assert_eq!(delivered.len(), tasks.len());
    for d in delivered {
        let (task, dst, meta) = &tasks[d.tag as usize];
        assert_eq!(d.dst, *dst);
        let rec: noc_btr::core::task::RecoveredTask<Fx8Word> = port.receive_task(meta, &d).unwrap();
        assert_eq!(rec.mac_i64(), task.mac_i64(), "task {}", d.tag);
    }
}

/// The stream harness and the transport packing agree: `flitize_values`
/// (single packet) is the window packing with a window of one.
#[test]
fn stream_and_transport_packing_agree() {
    use noc_btr::core::flitize::flitize_values;
    use noc_btr::core::ordering::descending_popcount_order;
    use noc_btr::core::transport::pack_window_with_order;
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..20 {
        let n = rng.gen_range(1..64usize);
        let values: Vec<Fx8Word> = (0..n).map(|_| Fx8Word::new(rng.gen())).collect();
        let a = flitize_values(&values, 8, true);
        let b = pack_window_with_order(std::slice::from_ref(&values), 8, descending_popcount_order);
        assert_eq!(a, b, "n={n}");
        // Multiset preserved: popcounts match the raw values.
        let total: u32 = a.iter().map(PayloadBits::popcount).sum();
        let expect: u32 = values.iter().map(|w| w.popcount()).sum();
        assert_eq!(total, expect);
    }
}

/// Codec-parity satellite: `CodedTransport` with the unencoded codec is
/// bit-identical to the pre-refactor ordered-transport path — the wire
/// images equal plain `order_task_with(..).payload_flits()`, and a full
/// NoC run over those images yields the same per-link BT totals, cycles
/// and recovered tasks.
#[test]
fn coded_unencoded_matches_pre_refactor_ordered_path() {
    let mut rng = StdRng::seed_from_u64(1234);
    let config = NocConfig::mesh(4, 4, 128);
    let session = CodedTransport::new(TransportConfig::new(OrderingMethod::Separated, 16));
    let port = TaskPort::new(session);

    let mut coded_sim = Simulator::new(config.clone());
    let mut plain_sim = Simulator::new(config);
    let mut tasks = Vec::new();
    for tag in 0..100u64 {
        let n = rng.gen_range(1..60usize);
        let task = random_fx8_task(&mut rng, n);
        let src = rng.gen_range(0..16);
        let dst = rng.gen_range(0..16);
        // New pipeline: ordering + (identity) codec through the session.
        let enc = port.session().encode_task(&task).unwrap();
        // Pre-refactor pipeline: ordering + flitization, no codec stage.
        let pre = order_task_with(&task, OrderingMethod::Separated, 16, TieBreak::Stable)
            .unwrap()
            .payload_flits();
        assert_eq!(enc.payload_flits(), pre, "wire images must be identical");
        assert_eq!(enc.codec_overhead_bits(), 0);
        let meta = port
            .send_task(&mut coded_sim, src, dst, &task, tag)
            .unwrap();
        plain_sim.inject(Packet::new(src, dst, pre, tag)).unwrap();
        tasks.push((task, meta));
    }
    coded_sim.run_until_idle(1_000_000).unwrap();
    plain_sim.run_until_idle(1_000_000).unwrap();

    let (cs, ps) = (coded_sim.stats(), plain_sim.stats());
    assert_eq!(cs.cycles, ps.cycles);
    assert_eq!(cs.total_transitions, ps.total_transitions);
    assert_eq!(
        cs.per_link, ps.per_link,
        "per-link BT totals must be bit-exact"
    );

    let mut delivered = coded_sim.drain_all_delivered();
    delivered.sort_by_key(|d| d.tag);
    assert_eq!(delivered.len(), tasks.len());
    for d in delivered {
        let (task, meta) = &tasks[d.tag as usize];
        let rec: noc_btr::core::task::RecoveredTask<Fx8Word> = port.receive_task(meta, &d).unwrap();
        assert_eq!(rec.mac_i64(), task.mac_i64(), "task {}", d.tag);
    }
}

/// Template-encode parity: encoding a batch of tasks off one
/// pre-rendered weight flit template is bit-identical to the
/// `encode_task_reference` oracle — ordered images, coded wire images,
/// wire metadata (including the O2 pair index) and overhead accounting —
/// for every `OrderingMethod × TieBreak × CodecKind × CodecScope` and
/// conv/linear-like group sizes, on both word types.
fn assert_template_parity<W: DataWord + PartialEq>(
    seed: u64,
    mut next_word: impl FnMut(&mut StdRng) -> W,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    // Conv 3x3 (9) and 5x5-ish (25) kernels, linear fan-ins that do and
    // don't fill the flit half evenly, and a one-value group.
    for n in [1usize, 9, 25, 37, 64] {
        // One kernel group: weights and bias are fixed, only the
        // activations vary per task — the shape the template amortizes.
        let weights: Vec<W> = (0..n).map(|_| next_word(&mut rng)).collect();
        let bias = next_word(&mut rng);
        for ordering in OrderingMethod::ALL {
            for tiebreak in [TieBreak::Stable, TieBreak::Value] {
                for codec in [
                    CodecKind::Unencoded,
                    CodecKind::BusInvert,
                    CodecKind::DeltaXor,
                ] {
                    for scope in [CodecScope::PerPacket, CodecScope::PerLink] {
                        let session = CodedTransport::new(TransportConfig {
                            ordering,
                            tiebreak,
                            values_per_flit: 8,
                            codec,
                            scope,
                            edc: EdcKind::None,
                        });
                        let mut scratch = TransportScratch::default();
                        // A caller may hand the template builder a
                        // precomputed per-group permutation…
                        let wperm = match ordering {
                            OrderingMethod::Baseline => None,
                            _ => Some(tiebreak.descending_order(&weights)),
                        };
                        let template = session
                            .weight_template(&weights, bias, wperm.as_deref(), &mut scratch)
                            .unwrap();
                        // …and the builder must derive the same order when
                        // no permutation is supplied.
                        let self_sorted = session
                            .weight_template(&weights, bias, None, &mut scratch)
                            .unwrap();
                        for task_no in 0..4 {
                            let inputs: Vec<W> = (0..n).map(|_| next_word(&mut rng)).collect();
                            let task =
                                NeuronTask::new(inputs.clone(), weights.clone(), bias).unwrap();
                            let want = session.encode_task_reference(&task).unwrap();
                            let got = session
                                .encode_with_template(&template, &inputs, &mut scratch)
                                .unwrap();
                            let ctx = format!(
                                "n={n} {ordering} {tiebreak:?} {codec} {scope:?} task {task_no}"
                            );
                            assert_eq!(got, want, "{ctx}");
                            let got = session
                                .encode_with_template(&self_sorted, &inputs, &mut scratch)
                                .unwrap();
                            assert_eq!(got, want, "self-sorted template, {ctx}");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn template_encode_matches_reference_encode_fx8() {
    assert_template_parity(31337, |rng| Fx8Word::new(rng.gen()));
}

#[test]
fn template_encode_matches_reference_encode_f32() {
    assert_template_parity(2718, |rng| F32Word::new(rng.gen_range(-100.0..100.0)));
}

/// Per-link codec scope over the mesh: the transport emits plain ordered
/// images, every directed link codes them against its own persistent
/// state (no packet-boundary reset), the recorders observe that true
/// coded wire, and the PE still recovers every task bit-exactly off the
/// delivered (link-decoded) images.
#[test]
fn per_link_wires_are_lossless_at_the_pe_and_remember_packets() {
    for codec in [CodecKind::BusInvert, CodecKind::DeltaXor] {
        let per_packet_cfg = TransportConfig::new(OrderingMethod::Separated, 16).with_codec(codec);
        let per_link_cfg = per_packet_cfg.with_scope(CodecScope::PerLink);
        let link_width = per_link_cfg.link_width_bits::<Fx8Word>();
        let run = |tconfig: TransportConfig, link_codec: Option<CodecKind>| {
            let port = TaskPort::new(CodedTransport::new(tconfig));
            let mut sim =
                Simulator::new(NocConfig::mesh(4, 4, link_width).with_link_codec(link_codec));
            let mut rng = StdRng::seed_from_u64(4242);
            let mut tasks = Vec::new();
            for tag in 0..60u64 {
                let n = rng.gen_range(1..60usize);
                let task = random_fx8_task(&mut rng, n);
                let src = rng.gen_range(0..16);
                let dst = rng.gen_range(0..16);
                let meta = port.send_task(&mut sim, src, dst, &task, tag).unwrap();
                tasks.push((task, meta));
            }
            sim.run_until_idle(1_000_000).unwrap();
            let stats = sim.stats();
            let mut delivered = sim.drain_all_delivered();
            delivered.sort_by_key(|d| d.tag);
            assert_eq!(delivered.len(), tasks.len());
            for d in delivered {
                let (task, meta) = &tasks[d.tag as usize];
                let rec: noc_btr::core::task::RecoveredTask<Fx8Word> =
                    port.receive_task(meta, &d).unwrap();
                assert_eq!(rec.mac_i64(), task.mac_i64(), "{codec} task {}", d.tag);
            }
            stats
        };
        let pl = run(per_link_cfg, Some(codec));
        let pp = run(per_packet_cfg, None);
        // Same traffic shape, different wire memory: per-link state
        // survives the packet boundaries the per-packet codec resets at.
        assert_eq!(pl.cycles, pp.cycles, "{codec}");
        assert_eq!(pl.flit_hops, pp.flit_hops, "{codec}");
        assert_ne!(
            pl.total_transitions, pp.total_transitions,
            "{codec}: cross-packet state must change the recorded wire"
        );
    }
}

/// Both coded backends are lossless at the PE: tasks sent over the mesh
/// through bus-invert / delta-XOR sessions decode to the exact operand
/// pairing, while the per-link recorders observe the coded wire (the
/// bus-invert mesh is one wire wider).
#[test]
fn coded_backends_are_lossless_at_the_pe() {
    for codec in [CodecKind::BusInvert, CodecKind::DeltaXor] {
        let tconfig = TransportConfig::new(OrderingMethod::Separated, 16).with_codec(codec);
        let link_width = tconfig.link_width_bits::<Fx8Word>();
        let config = NocConfig::mesh(4, 4, link_width);
        let port = TaskPort::new(CodedTransport::new(tconfig));
        let mut rng = StdRng::seed_from_u64(5678);
        let mut sim = Simulator::new(config);
        let mut tasks = Vec::new();
        for tag in 0..60u64 {
            let n = rng.gen_range(1..60usize);
            let task = random_fx8_task(&mut rng, n);
            let src = rng.gen_range(0..16);
            let dst = rng.gen_range(0..16);
            let meta = port.send_task(&mut sim, src, dst, &task, tag).unwrap();
            tasks.push((task, meta));
        }
        sim.run_until_idle(1_000_000).unwrap();
        let stats = sim.stats();
        assert!(stats.total_transitions > 0);
        let mut delivered = sim.drain_all_delivered();
        delivered.sort_by_key(|d| d.tag);
        assert_eq!(delivered.len(), tasks.len());
        for d in delivered {
            assert!(d.payload_flits.iter().all(|f| f.width() == link_width));
            let (task, meta) = &tasks[d.tag as usize];
            let rec: noc_btr::core::task::RecoveredTask<Fx8Word> =
                port.receive_task(meta, &d).unwrap();
            assert_eq!(rec.mac_i64(), task.mac_i64(), "{codec} task {}", d.tag);
        }
    }
}
