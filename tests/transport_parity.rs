//! Parity tests for the unified transport pipeline and the flat-array
//! NoC engine.
//!
//! Three guarantees are pinned here:
//!
//! 1. **Transport round-trip**: for every `OrderingMethod × TieBreak`
//!    combination, encoding a task through the shared
//!    `CodedTransport` and decoding the delivered wire images
//!    recovers the exact multiply-accumulate result (integer-exact for
//!    fixed-8, reassociation-tolerant for float-32).
//! 2. **Engine golden digests**: the flat-array simulator reproduces,
//!    bit-exactly, the per-link BT totals, cycles, latency and delivered
//!    packets that the original map/deque simulator produced on five
//!    seeded workloads (raw traffic and transport-encoded task packets
//!    on 4×4, and a 200-packet uniform-random load on 4×4 and 8×8). The
//!    values were generated once from that simulator before it was
//!    retired.
//! 3. **Codec parity**: `CodedTransport` with `CodecKind::Unencoded`
//!    produces bit-identical wire images, per-link BT totals, cycles
//!    and recovered tasks to the pre-refactor ordered-transport path
//!    (ordering + flitization with no codec stage), and both coded
//!    backends are lossless at the PE across the mesh.

use noc_btr::accel::driver::AccelWord;
use noc_btr::bits::word::{DataWord, F32Word, Fx8Word};
use noc_btr::bits::{FlitSlab, PayloadBits};
use noc_btr::core::codec::{CodecKind, CodecScope};
use noc_btr::core::edc::EdcKind;
use noc_btr::core::flitize::{order_task_with, WindowTable};
use noc_btr::core::ordering::{OrderingMethod, SortScratch, TieBreak};
use noc_btr::core::plan::LanePlan;
use noc_btr::core::task::{NeuronTask, RecoveredTask};
use noc_btr::core::transport::{
    CodedTransport, EncodedTask, TaskWireMeta, TransportConfig, TransportScratch,
};
use noc_btr::noc::config::NocConfig;
use noc_btr::noc::packet::Packet;
use noc_btr::noc::session::TaskPort;
use noc_btr::noc::sim::{DeliveredPacket, Simulator};
use noc_btr::noc::traffic::{generate, Pattern};
use proptest::prelude::*;
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
                        .decode_task(&enc.wire_meta(), enc.payload_flits().as_slice())
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
                    .decode_task(&enc.wire_meta(), enc.payload_flits().as_slice())
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

/// The flat engine's observable output on one seeded workload, reduced to
/// the fields the golden table pins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    cycles: u64,
    total: u64,
    inter_router: u64,
    injection: u64,
    ejection: u64,
    flit_hops: u64,
    /// `(count, min, max, mean.to_bits())`.
    latency: (u64, u64, u64, u64),
    /// FNV-1a-64 over every `LinkStat`'s fields, in `per_link` order.
    per_link: u64,
    /// FNV-1a-64 over every delivered packet, per destination node in
    /// node order: `(node, packet_id, src, dst, tag, inject_cycle,
    /// arrival_cycle, flit count, each payload's width and 64-bit words)`.
    delivered: u64,
    /// FNV-1a-64 over every decoded task MAC in tag order (task rows
    /// only).
    macs: Option<u64>,
}

/// A seeded workload of the golden table.
#[derive(Debug, Clone, Copy)]
enum Workload {
    /// `packets` random 4×4 packets, each carrying a payload-flit count
    /// drawn from `flits.0..flits.1`, with `words` random 64-bit words
    /// from the bottom of every 128-bit flit.
    Seeded {
        seed: u64,
        packets: u64,
        flits: (usize, usize),
        words: u32,
    },
    /// A uniform-random load: `generate(UniformRandom, 200, 4)`, seed 5.
    Uniform200,
    /// 120 separated-ordering (O2) fx8 tasks of 25 operand pairs sent
    /// through a `TaskPort`, seed 99.
    Tasks,
}

/// FNV-1a-64 over the little-endian bytes of `words`.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0100_0000_01b3);
        }
    }
    hash
}

fn payload_words(p: &PayloadBits) -> impl Iterator<Item = u64> + '_ {
    let width = p.width();
    std::iter::once(u64::from(width)).chain(
        (0..width)
            .step_by(64)
            .map(move |off| p.field(off, 64.min(width - off))),
    )
}

fn seeded_packets(seed: u64, packets: u64, flits: (usize, usize), words: u32) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..packets)
        .map(|tag| {
            let src = rng.gen_range(0..16);
            let dst = rng.gen_range(0..16);
            let payload: Vec<PayloadBits> = (0..rng.gen_range(flits.0..flits.1))
                .map(|_| {
                    let mut p = PayloadBits::zero(128);
                    for w in 0..words {
                        p.set_field(64 * w, 64, rng.gen());
                    }
                    p
                })
                .collect();
            Packet::new(src, dst, payload, tag)
        })
        .collect()
}

/// Encodes `task` and injects it `src → dst`, returning its wire
/// metadata.
fn send_task(
    port: &TaskPort<CodedTransport>,
    sim: &mut Simulator,
    src: usize,
    dst: usize,
    task: &NeuronTask<Fx8Word>,
    tag: u64,
) -> TaskWireMeta {
    let encoded = port.session().encode_task(task).unwrap();
    port.send_encoded(sim, src, dst, encoded, tag).unwrap().meta
}

/// Runs `workload` on a fresh `side × side` flat engine and reduces the
/// drained run to its golden fields. The task row also decodes every MAC
/// off the delivered images and checks it against the software MAC.
fn run_flat(side: usize, workload: Workload) -> Golden {
    let config = NocConfig::mesh(side, side, 128);
    let mut sim = Simulator::new(config.clone());
    let port = TaskPort::new(CodedTransport::new(TransportConfig::new(
        OrderingMethod::Separated,
        16,
    )));
    let mut tasks = Vec::new();
    match workload {
        Workload::Seeded {
            seed,
            packets,
            flits,
            words,
        } => {
            for p in seeded_packets(seed, packets, flits, words) {
                sim.inject(p).unwrap();
            }
        }
        Workload::Uniform200 => {
            let mut rng = StdRng::seed_from_u64(5);
            for p in generate(&config, Pattern::UniformRandom, 200, 4, &mut rng) {
                sim.inject(p).unwrap();
            }
        }
        Workload::Tasks => {
            let mut rng = StdRng::seed_from_u64(99);
            for tag in 0..120u64 {
                let task = random_fx8_task(&mut rng, 25);
                let src = rng.gen_range(0..16);
                let dst = rng.gen_range(0..16);
                let meta = send_task(&port, &mut sim, src, dst, &task, tag);
                tasks.push((task, dst, meta));
            }
        }
    }
    let cycles = sim.run_until_idle(1_000_000).unwrap();
    let stats = sim.stats();
    assert_eq!(cycles, stats.cycles);
    let mut delivered: Vec<Vec<DeliveredPacket>> =
        (0..config.num_nodes()).map(|_| Vec::new()).collect();
    for d in sim.drain_all_delivered() {
        delivered[d.dst].push(d);
    }

    let per_link = fnv1a(stats.per_link.iter().flat_map(|l| {
        [
            l.node as u64,
            l.direction.index() as u64,
            u64::from(l.injection),
            l.transitions,
            l.flits,
        ]
    }));
    let delivered_digest = fnv1a(delivered.iter().enumerate().flat_map(|(node, ds)| {
        ds.iter().flat_map(move |d| {
            [
                node as u64,
                d.packet_id,
                d.src as u64,
                d.dst as u64,
                d.tag,
                d.inject_cycle,
                d.arrival_cycle,
                d.payload_flits.len() as u64,
            ]
            .into_iter()
            .chain(
                d.payload_flits
                    .to_payloads()
                    .iter()
                    .flat_map(payload_words)
                    .collect::<Vec<_>>(),
            )
        })
    }));
    let macs = matches!(workload, Workload::Tasks).then(|| {
        let mut all: Vec<&DeliveredPacket> = delivered.iter().flatten().collect();
        all.sort_by_key(|d| d.tag);
        assert_eq!(all.len(), tasks.len());
        fnv1a(all.into_iter().map(|d| {
            let (task, dst, meta) = &tasks[d.tag as usize];
            assert_eq!(d.dst, *dst);
            let rec: RecoveredTask<Fx8Word> =
                port.session().decode_task(meta, &d.payload_flits).unwrap();
            assert_eq!(rec.mac_i64(), task.mac_i64(), "task {}", d.tag);
            rec.mac_i64() as u64
        }))
    });
    Golden {
        cycles: stats.cycles,
        total: stats.total_transitions,
        inter_router: stats.inter_router_transitions,
        injection: stats.injection_transitions,
        ejection: stats.ejection_transitions,
        flit_hops: stats.flit_hops,
        latency: (
            stats.latency.count,
            stats.latency.min,
            stats.latency.max,
            stats.latency.mean.to_bits(),
        ),
        per_link,
        delivered: delivered_digest,
        macs,
    }
}

/// The golden table: `(row, mesh side, workload, pinned output)`.
const GOLDEN: [(&str, usize, Workload, Golden); 5] = [
    (
        "seeded traffic, seed 2024, 400 packets",
        4,
        Workload::Seeded {
            seed: 2024,
            packets: 400,
            flits: (1, 8),
            words: 2,
        },
        Golden {
            cycles: 240,
            total: 575335,
            inter_router: 321694,
            injection: 128704,
            ejection: 124937,
            flit_hops: 9267,
            latency: (400, 5, 239, 105.355f64.to_bits()),
            per_link: 0x125225862724425f,
            delivered: 0x59807a87e19d1f70,
            macs: None,
        },
    ),
    (
        "transport tasks, seed 99, 120 O2 tasks",
        4,
        Workload::Tasks,
        Golden {
            cycles: 80,
            total: 135663,
            inter_router: 75915,
            injection: 29994,
            ejection: 29754,
            flit_hops: 2690,
            latency: (120, 7, 79, 42.1f64.to_bits()),
            per_link: 0xe3fd3d34b2adb404,
            delivered: 0xca23d24fcbbd6308,
            macs: Some(0x8ce0949e8236b306),
        },
    ),
    (
        "seeded traffic, seed 77, 150 packets",
        4,
        Workload::Seeded {
            seed: 77,
            packets: 150,
            flits: (1, 6),
            words: 1,
        },
        Golden {
            cycles: 78,
            total: 82587,
            inter_router: 45793,
            injection: 18802,
            ejection: 17992,
            flit_hops: 2743,
            latency: (150, 9, 77, 36.79333333333334f64.to_bits()),
            per_link: 0x1f064269f20cfaeb,
            delivered: 0x318de9addf177607,
            macs: None,
        },
    ),
    (
        "uniform 200 packets, 4x4",
        4,
        Workload::Uniform200,
        Golden {
            cycles: 113,
            total: 278028,
            inter_router: 153665,
            injection: 63356,
            ejection: 61007,
            flit_hops: 4500,
            latency: (200, 6, 112, 55.23f64.to_bits()),
            per_link: 0x7c1b7b9e2f418bd5,
            delivered: 0x280d748a4a88e179,
            macs: None,
        },
    ),
    (
        "uniform 200 packets, 8x8",
        8,
        Workload::Uniform200,
        Golden {
            cycles: 72,
            total: 430767,
            inter_router: 311727,
            injection: 60310,
            ejection: 58730,
            flit_hops: 7255,
            latency: (200, 7, 71, 33.555f64.to_bits()),
            per_link: 0x690ead4ea3b7d035,
            delivered: 0x031ff466b5e8aab6,
            macs: None,
        },
    ),
];

/// Checks row `index` of [`GOLDEN`] against a fresh flat-engine run.
///
/// The pinned values were generated once from the original map/deque
/// reference simulator, which the flat engine matched cycle for cycle
/// and bit for bit, before that reference was retired.
fn assert_golden_row(index: usize) {
    let (row, side, workload, want) = GOLDEN[index];
    assert_eq!(run_flat(side, workload), want, "{row}");
}

/// Raw seeded traffic (seed 2024, 400 packets, 4×4) matches the legacy
/// engine's recorded per-link BTs, totals, cycles, latency and deliveries.
#[test]
fn flat_engine_matches_legacy_on_seeded_traffic() {
    assert_golden_row(0);
}

/// Transport-encoded O2 task packets (seed 99, 120 tasks, 4×4) match the
/// legacy engine's recorded output, and every delivered MAC decodes exactly.
#[test]
fn flat_engine_matches_legacy_on_transport_tasks() {
    assert_golden_row(1);
}

/// The remaining seeded workloads, including the uniform-random 4×4 and
/// 8×8 loads, reproduce their golden digests bit-exactly.
#[test]
fn flat_engine_matches_golden_digests() {
    for index in 2..GOLDEN.len() {
        assert_golden_row(index);
    }
}

/// The stream harness and the transport packing agree: `flitize_values`
/// (single packet) is the window packing with a window of one.
#[test]
fn stream_and_transport_packing_agree() {
    use noc_btr::bits::FlitSlab;
    use noc_btr::core::flitize::flitize_values;
    use noc_btr::core::ordering::descending_popcount_order;
    use noc_btr::core::transport::pack_window_with_order;
    let mut rng = StdRng::seed_from_u64(5);
    for _ in 0..20 {
        let n = rng.gen_range(1..64usize);
        let values: Vec<Fx8Word> = (0..n).map(|_| Fx8Word::new(rng.gen())).collect();
        let a = flitize_values(&values, 8, true);
        let mut b = FlitSlab::new(8 * Fx8Word::WIDTH);
        pack_window_with_order(
            std::slice::from_ref(&values),
            8,
            descending_popcount_order,
            &mut b,
        );
        assert_eq!(a, b.to_payloads(), "n={n}");
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
        let meta = send_task(&port, &mut coded_sim, src, dst, &task, tag);
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
        let rec: noc_btr::core::task::RecoveredTask<Fx8Word> =
            port.session().decode_task(meta, &d.payload_flits).unwrap();
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
        let per_link_cfg = TransportConfig {
            scope: CodecScope::PerLink,
            ..per_packet_cfg
        };
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
                let meta = send_task(&port, &mut sim, src, dst, &task, tag);
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
                    port.session().decode_task(meta, &d.payload_flits).unwrap();
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
            let meta = send_task(&port, &mut sim, src, dst, &task, tag);
            tasks.push((task, meta));
        }
        sim.run_until_idle(1_000_000).unwrap();
        let stats = sim.stats();
        assert!(stats.total_transitions > 0);
        let mut delivered = sim.drain_all_delivered();
        delivered.sort_by_key(|d| d.tag);
        assert_eq!(delivered.len(), tasks.len());
        for d in delivered {
            assert_eq!(d.payload_flits.width(), link_width);
            let (task, meta) = &tasks[d.tag as usize];
            let rec: noc_btr::core::task::RecoveredTask<Fx8Word> =
                port.session().decode_task(meta, &d.payload_flits).unwrap();
            assert_eq!(rec.mac_i64(), task.mac_i64(), "{codec} task {}", d.tag);
        }
    }
}

/// Decodes `enc`'s delivered images both ways — the plan kernel (pairs
/// through `decode_task_into`, the fused MAC through `decode_fold`, off
/// images and off dense rows) and the slot-level reference — and pins
/// them equal. Returns the fused response bits.
fn assert_plan_decode_is_the_reference<W: AccelWord + PartialEq>(
    session: &CodedTransport,
    plan: &LanePlan,
    enc: &EncodedTask<W>,
    images: &[PayloadBits],
    ctx: &str,
) -> u64 {
    let meta = enc.meta();
    let want = session.decode_task_reference::<W>(meta, images).unwrap();
    let mut scratch = TransportScratch::default();
    let mut got = RecoveredTask {
        pairs: Vec::new(),
        bias: W::from_bits_u64(0),
    };
    session
        .decode_task_into(meta, images, &mut scratch, &mut got)
        .unwrap();
    assert!(got == want, "{ctx}: recovered pairs");
    let bits = W::response_bits(&want);
    let rows = FlitSlab::from_images(images[0].width(), images);
    for fused in [
        session.decode_fold(plan, meta, images, &mut scratch, W::ACC_ZERO, W::mac),
        session.decode_fold(plan, meta, &rows, &mut scratch, W::ACC_ZERO, W::mac),
    ] {
        let (acc, bias) = fused.unwrap();
        assert_eq!(W::finish(acc, bias), bits, "{ctx}: fused response bits");
    }
    bits
}

/// The plan decode is the reference decode: for every ordering, word,
/// codec, codec scope and EDC, and pair counts around the flit-half
/// boundaries up to a 400-pair linear fan-in, the plan kernel recovers
/// the reference's pairs in the reference's order and folds them into
/// the same response bits — off the delivered images (link-aligned ones
/// too) and off dense rows. One task buffer is re-encoded across every
/// shape and must match the reference encode each time.
fn assert_plan_decode_parity<W: AccelWord + PartialEq>(
    seed: u64,
    mut next_word: impl FnMut(&mut StdRng) -> W,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    for n in [1usize, 7, 8, 9, 16, 25, 150, 400] {
        let task = NeuronTask::new(
            (0..n).map(|_| next_word(&mut rng)).collect(),
            (0..n).map(|_| next_word(&mut rng)).collect(),
            next_word(&mut rng),
        )
        .unwrap();
        for ordering in OrderingMethod::ALL {
            let plan = LanePlan::for_word::<W>(ordering, n, 16).unwrap();
            for codec in CodecKind::ALL {
                for scope in [CodecScope::PerPacket, CodecScope::PerLink] {
                    for edc in [EdcKind::None, EdcKind::Crc8] {
                        let tc = TransportConfig {
                            scope,
                            ..TransportConfig::new(ordering, 16)
                                .with_codec(codec)
                                .with_edc(edc)
                        };
                        let session = CodedTransport::new(tc);
                        let ctx = format!("n={n} {ordering} {codec} {scope:?} {edc}");
                        let enc = session.encode_task_reference(&task).unwrap();
                        let mut scratch = TransportScratch::default();
                        let mut reused = session.task_buffer::<W>();
                        let template = session
                            .weight_template(task.weights(), task.bias(), None, &mut scratch)
                            .unwrap();
                        session.encode_with_template_into(
                            &template,
                            task.inputs(),
                            &mut scratch,
                            &mut reused,
                        );
                        assert!(reused == enc, "{ctx}: reused task buffer");
                        let images = enc.payload_flits();
                        assert_plan_decode_is_the_reference(&session, &plan, &enc, &images, &ctx);
                        let link = tc.link_width_bits::<W>();
                        if scope == CodecScope::PerLink && images[0].width() != link {
                            // Plain frames the mesh re-aligned onto the link.
                            let aligned: Vec<PayloadBits> =
                                images.iter().map(|f| f.resized(link)).collect();
                            assert_plan_decode_is_the_reference(
                                &session, &plan, &enc, &aligned, &ctx,
                            );
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn plan_decode_matches_the_reference_fx8(seed in 0u64..1_000_000) {
        assert_plan_decode_parity(seed, |rng| Fx8Word::new(rng.gen()));
    }

    #[test]
    fn plan_decode_matches_the_reference_f32(seed in 0u64..1_000_000) {
        assert_plan_decode_parity(seed, |rng| {
            F32Word::new(match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -0.0,
                _ => rng.gen_range(-100.0..100.0),
            })
        });
    }
}

/// The window-table encode is the per-task template encode is the
/// reference encode. A layer of kernel groups shares its activation
/// windows (as every output channel of a conv pixel does): each window is
/// prepared once into a [`WindowTable`] and combined with every group's
/// template, and each such task must equal `encode_with_template` over
/// the window's inputs and `encode_task_reference` over the whole task —
/// plain rows, wire rows, pair index and every overhead — for every
/// ordering, tiebreak, codec, codec scope and EDC. Windows draw from a
/// few repeated words half the time, so popcount ties (where the two
/// tiebreaks differ) are common. One table and one task buffer are
/// reused across every configuration.
fn assert_window_table_parity<W: DataWord + PartialEq>(
    seed: u64,
    mut next_word: impl FnMut(&mut StdRng) -> W,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = [1usize, 7, 8, 9, 25, 150][rng.gen_range(0..6)];
    let mut draw = |rng: &mut StdRng, count: usize| -> Vec<W> {
        let pool: Vec<W> = (0..3).map(|_| next_word(rng)).collect();
        let tied = rng.gen_range(0..2) == 0;
        (0..count)
            .map(|_| {
                if tied {
                    pool[rng.gen_range(0..pool.len())]
                } else {
                    next_word(rng)
                }
            })
            .collect()
    };
    let kernels: Vec<Vec<W>> = (0..3).map(|_| draw(&mut rng, n)).collect();
    let biases = draw(&mut rng, kernels.len());
    let windows: Vec<Vec<W>> = (0..4).map(|_| draw(&mut rng, n)).collect();
    let mut table = WindowTable::default();
    let (mut sort, mut perm) = (SortScratch::default(), Vec::new());
    let mut scratch = TransportScratch::default();
    for ordering in OrderingMethod::ALL {
        for tiebreak in [TieBreak::Stable, TieBreak::Value] {
            for codec in CodecKind::ALL {
                for scope in [CodecScope::PerPacket, CodecScope::PerLink] {
                    for edc in [EdcKind::None, EdcKind::Crc8] {
                        let session = CodedTransport::new(TransportConfig {
                            ordering,
                            tiebreak,
                            values_per_flit: 16,
                            codec,
                            scope,
                            edc,
                        });
                        let templates: Vec<_> = kernels
                            .iter()
                            .zip(&biases)
                            .map(|(k, &b)| session.weight_template(k, b, None, &mut scratch))
                            .collect::<Result<_, _>>()
                            .unwrap();
                        table.reset(&templates[0], windows.len());
                        for inputs in &windows {
                            table.push(inputs, tiebreak, &mut sort, &mut perm);
                        }
                        let mut shared = session.task_buffer::<W>();
                        for (w, inputs) in windows.iter().enumerate() {
                            for (g, template) in templates.iter().enumerate() {
                                let ctx = format!(
                                    "n={n} {ordering} {tiebreak:?} {codec} {scope:?} {edc} \
                                     window {w} group {g}"
                                );
                                let task =
                                    NeuronTask::new(inputs.clone(), kernels[g].clone(), biases[g])
                                        .unwrap();
                                let want = session.encode_task_reference(&task).unwrap();
                                let per_task = session
                                    .encode_with_template(template, inputs, &mut scratch)
                                    .unwrap();
                                session.encode_window_into(template, table.window(w), &mut shared);
                                for got in [&per_task, &shared] {
                                    assert_eq!(got.plain_flits(), want.plain_flits(), "{ctx}");
                                    assert_eq!(got.payload_flits(), want.payload_flits(), "{ctx}");
                                    assert_eq!(got.meta(), want.meta(), "{ctx}: pair index");
                                    assert_eq!(
                                        [
                                            got.index_overhead_bits(),
                                            got.codec_overhead_bits(),
                                            got.edc_overhead_bits()
                                        ],
                                        [
                                            want.index_overhead_bits(),
                                            want.codec_overhead_bits(),
                                            want.edc_overhead_bits()
                                        ],
                                        "{ctx}: overheads"
                                    );
                                    assert!(*got == want, "{ctx}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn window_table_encode_matches_per_task_and_reference_fx8(seed in 0u64..1_000_000) {
        assert_window_table_parity(seed, |rng| Fx8Word::new(rng.gen()));
    }

    #[test]
    fn window_table_encode_matches_per_task_and_reference_f32(seed in 0u64..1_000_000) {
        assert_window_table_parity(seed, |rng| F32Word::new(rng.gen_range(-100.0..100.0)));
    }
}

#[test]
fn plan_fold_keeps_the_sign_of_an_all_negative_zero_mac() {
    // Every product is -0.0 and so is the bias: `Iterator::sum` starts at
    // -0.0, so the reference MAC is -0.0 — a fold starting at +0.0 would
    // answer +0.0.
    let task = NeuronTask::new(
        vec![F32Word::new(0.0); 25],
        vec![F32Word::new(-0.0); 25],
        F32Word::new(-0.0),
    )
    .unwrap();
    for ordering in OrderingMethod::ALL {
        let session = CodedTransport::new(TransportConfig::new(ordering, 16));
        let plan = LanePlan::for_word::<F32Word>(ordering, 25, 16).unwrap();
        let enc = session.encode_task(&task).unwrap();
        let bits = assert_plan_decode_is_the_reference(
            &session,
            &plan,
            &enc,
            &enc.payload_flits(),
            &format!("{ordering}"),
        );
        assert_eq!(bits, u64::from((-0.0f32).to_bits()), "{ordering}");
    }
}
