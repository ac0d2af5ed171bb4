//! Property-based tests (proptest) over the unreliable-link fault
//! protocol: seeded wire errors, the EDC side-channel, and the NI's
//! retransmit-with-resync recovery.
//!
//! Pinned here:
//!
//! * **All-or-nothing delivery**: for random BER × codec × scope ×
//!   resync draws, an inference over faulty wires either returns the
//!   bit-exact clean-wire output (recovery worked) or fails with the
//!   typed [`AccelError::Unrecoverable`] — never a silent corruption,
//!   never any other error shape.
//! * **Zero-BER identity**: arming the full fault path (per-link error
//!   streams, receive-side checking, the retry loop) with a perfect
//!   error model changes nothing — outputs, transitions and cycles are
//!   bit-identical to the plain path, with no EDC wires and no retries.
//! * **Auto-engine fallback**: with errors injected, `EngineMode::Auto`
//!   steps every layer (a recording cannot model the flips) and
//!   reproduces the cycle engine's run exactly.

use noc_btr::accel::config::AccelConfig;
use noc_btr::accel::driver::{run_inference, AccelError};
use noc_btr::bits::word::DataFormat;
use noc_btr::core::codec::{CodecKind, CodecScope, ResyncPolicy};
use noc_btr::core::OrderingMethod;
use noc_btr::dnn::layer::{ActKind, Activation, Conv2d, Flatten, Linear, MaxPool2d};
use noc_btr::dnn::model::{Layer, Sequential};
use noc_btr::dnn::tensor::Tensor;
use noc_btr::noc::fault::{BitErrorRate, ErrorModel, FaultMode};
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

fn tiny_input(seed: u64) -> Tensor {
    let mut rng = StdRng::seed_from_u64(seed);
    Tensor::from_vec(
        &[1, 8, 8],
        (0..64).map(|_| rng.gen_range(-1.0..1.0)).collect(),
    )
    .unwrap()
}

fn base_config(codec: CodecKind, scope: CodecScope) -> AccelConfig {
    AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Separated)
        .with_codec(codec)
        .with_codec_scope(scope)
}

proptest! {
    /// Faulty wires never corrupt silently: the run either recovers the
    /// bit-exact clean-wire output or dies with the typed
    /// retry-budget-exhausted error, for every codec × scope × resync
    /// combination and a BER span from "flips are rare" to "every
    /// packet is dirty".
    #[test]
    fn delivery_is_bit_exact_or_typed_unrecoverable(
        ber_exp in 3.5f64..6.0,
        codec_idx in 0usize..3,
        scope_idx in 0usize..2,
        resync_idx in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let codec = CodecKind::ALL[codec_idx];
        let scope = CodecScope::ALL[scope_idx];
        let resync = ResyncPolicy::ALL[resync_idx];
        let model = tiny_model(29);
        let ops = model.inference_ops();
        let input = tiny_input(31);

        let clean = run_inference(&ops, &input, &base_config(codec, scope)).unwrap();
        let faulty_config = base_config(codec, scope).with_fault(
            ErrorModel {
                ber: BitErrorRate::from_f64(10f64.powf(-ber_exp)),
                seed,
                mode: FaultMode::PerFlit,
            },
            resync,
            8,
        );
        match run_inference(&ops, &input, &faulty_config) {
            Ok(faulty) => {
                prop_assert_eq!(
                    faulty.output.data(),
                    clean.output.data(),
                    "recovered run must match clean wires: {codec} {scope:?} {resync:?} \
                     ber 1e-{ber_exp:.2} seed {seed}"
                );
                // Detection is mandatory beside a non-zero BER: with_fault
                // armed CRC-8, and every retried packet re-sent real flits.
                prop_assert!(faulty.edc_overhead_bits > 0);
                prop_assert!(
                    faulty.retried_packets == 0 || faulty.retransmitted_flits > 0,
                    "retried packets without retransmitted flits"
                );
            }
            Err(AccelError::Unrecoverable { retries, .. }) => {
                prop_assert_eq!(retries, 8, "budget reported at exhaustion");
            }
            Err(other) => {
                panic!("expected recovery or Unrecoverable, got: {other}");
            }
        }
    }

    /// The perfect-wire limit of the fault path is the plain path: a
    /// zero-BER error model runs every receive-side check and finds
    /// nothing, so outputs, transitions and cycles stay bit-identical
    /// and no EDC or retry traffic appears.
    #[test]
    fn zero_ber_fault_path_is_bit_identical(
        codec_idx in 0usize..3,
        scope_idx in 0usize..2,
        resync_idx in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let codec = CodecKind::ALL[codec_idx];
        let scope = CodecScope::ALL[scope_idx];
        let model = tiny_model(37);
        let ops = model.inference_ops();
        let input = tiny_input(41);

        let plain = run_inference(&ops, &input, &base_config(codec, scope)).unwrap();
        let armed_config = base_config(codec, scope).with_fault(
            ErrorModel::perfect(seed),
            ResyncPolicy::ALL[resync_idx],
            8,
        );
        let armed = run_inference(&ops, &input, &armed_config).unwrap();
        prop_assert_eq!(armed.output.data(), plain.output.data());
        prop_assert_eq!(armed.stats.total_transitions, plain.stats.total_transitions);
        prop_assert_eq!(armed.stats.per_link, plain.stats.per_link);
        prop_assert_eq!(armed.total_cycles, plain.total_cycles);
        prop_assert_eq!(armed.edc_overhead_bits, 0);
        prop_assert_eq!(armed.retransmitted_flits, 0);
        prop_assert_eq!(armed.retried_packets, 0);
    }

    /// `EngineMode::Auto` beside injected errors: every layer steps (a
    /// recording cannot model dirty wires), and the whole run — recovery or typed failure — is
    /// indistinguishable from forcing `EngineMode::Cycle`.
    #[test]
    fn auto_engine_falls_back_to_cycle_on_error_injected_phases(
        ber_exp in 3.5f64..5.5,
        resync_idx in 0usize..2,
        seed in 0u64..1_000,
    ) {
        let model = tiny_model(43);
        let ops = model.inference_ops();
        let input = tiny_input(47);
        let with_engine = |engine: EngineMode| {
            let mut config = base_config(CodecKind::Unencoded, CodecScope::PerPacket).with_fault(
                ErrorModel {
                    ber: BitErrorRate::from_f64(10f64.powf(-ber_exp)),
                    seed,
                    mode: FaultMode::PerFlit,
                },
                ResyncPolicy::ALL[resync_idx],
                8,
            );
            config.engine = engine;
            run_inference(&ops, &input, &config)
        };
        match (with_engine(EngineMode::Auto), with_engine(EngineMode::Cycle)) {
            (Ok(auto), Ok(cycle)) => {
                prop_assert_eq!(auto.analytic_phase_fraction(), 0.0);
                prop_assert!(auto.per_layer.iter().all(|l| !l.replayed));
                prop_assert_eq!(auto.output.data(), cycle.output.data());
                prop_assert_eq!(auto.stats.total_transitions, cycle.stats.total_transitions);
                prop_assert_eq!(auto.total_cycles, cycle.total_cycles);
                prop_assert_eq!(auto.retransmitted_flits, cycle.retransmitted_flits);
                prop_assert_eq!(auto.retried_packets, cycle.retried_packets);
            }
            (
                Err(AccelError::Unrecoverable { layer: a, retries: ar }),
                Err(AccelError::Unrecoverable { layer: c, retries: cr }),
            ) => {
                prop_assert_eq!((a, ar), (c, cr), "both engines die at the same packet");
            }
            (auto, cycle) => {
                panic!(
                    "engines diverged under faults: auto {:?}, cycle {:?}",
                    auto.map(|r| r.output),
                    cycle.map(|r| r.output)
                );
            }
        }
    }
}
