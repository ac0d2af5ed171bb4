//! Calibration sweep for Table I's underdocumented parameters.
//!
//! Sec. V-A states "random comparisons between flits" over 10,000 packets
//! but leaves three knobs open: the ordering-window size (the prefetch
//! buffer the MC-side ordering unit sorts over), how popcount ties are
//! broken, and the fixed-8 quantization format. This sweep scans all of
//! them and prints the reduction rates for the four Table I
//! configurations, so the matching point can be chosen and documented in
//! EXPERIMENTS.md.
//!
//! Usage: `cargo run --release -p experiments --bin table1_calibrate
//! [--packets 2000] [--seed 42]`

use btr_core::stream::{compare_windowed, Comparison, Placement, TieBreak, WindowConfig};
use experiments::cli;
use experiments::workloads::{
    f32_kernel_packets, fx8_kernel_packets_scheme, lenet_random, lenet_trained, sample_packets,
    Fx8Scheme, DEFAULT_EPOCHS, DEFAULT_TRAIN_SAMPLES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    cli::reject_bad_args(&["packets", "seed"], &[]);
    let packets: usize = cli::arg("packets", 2_000);
    let seed: u64 = cli::arg("seed", 42);

    let random_model = lenet_random(seed);
    let trained_model = lenet_trained(seed, DEFAULT_TRAIN_SAMPLES, DEFAULT_EPOCHS);
    let mut rng = StdRng::seed_from_u64(seed);

    let f32r = sample_packets(&f32_kernel_packets(&random_model, 25), packets, &mut rng);
    let f32t = sample_packets(&f32_kernel_packets(&trained_model, 25), packets, &mut rng);

    println!("# paper targets: f32r 20.38%  fx8r 27.70%  f32t 18.92%  fx8t 55.71%");
    println!(
        "{:<12} {:<10} {:<7} {:<7} {:<11} {:>8} {:>8} {:>8} {:>8}",
        "comparison",
        "placement",
        "window",
        "ties",
        "fx8scheme",
        "f32r%",
        "fx8r%",
        "f32t%",
        "fx8t%"
    );
    for scheme in [Fx8Scheme::PerTensor, Fx8Scheme::GlobalUnit] {
        let mut rng = StdRng::seed_from_u64(seed + 1);
        let fx8r = sample_packets(
            &fx8_kernel_packets_scheme(&random_model, 25, scheme),
            packets,
            &mut rng,
        );
        let fx8t = sample_packets(
            &fx8_kernel_packets_scheme(&trained_model, 25, scheme),
            packets,
            &mut rng,
        );
        for comparison in [
            Comparison::Consecutive,
            Comparison::RandomPairs {
                pairs: 20_000,
                seed,
            },
        ] {
            for tiebreak in [TieBreak::Stable, TieBreak::Value] {
                for window in [1usize, 16, 64, 256] {
                    let config = WindowConfig {
                        values_per_flit: 8,
                        window_packets: window,
                        placement: Placement::RoundRobin,
                        tiebreak,
                    };
                    let rf = |pkts: &[Vec<btr_bits::word::F32Word>]| {
                        compare_windowed(pkts, &config, comparison, 0).reduction_rate * 100.0
                    };
                    let r8 = |pkts: &[Vec<btr_bits::word::Fx8Word>]| {
                        compare_windowed(pkts, &config, comparison, 0).reduction_rate * 100.0
                    };
                    println!(
                        "{:<12} {:<10} {:<7} {:<7} {:<11} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                        match comparison {
                            Comparison::Consecutive => "consecutive",
                            Comparison::RandomPairs { .. } => "randompairs",
                        },
                        "RoundRobin",
                        window,
                        format!("{tiebreak:?}"),
                        format!("{scheme:?}"),
                        rf(&f32r),
                        r8(&fx8r),
                        rf(&f32t),
                        r8(&fx8t),
                    );
                }
            }
        }
    }
}
