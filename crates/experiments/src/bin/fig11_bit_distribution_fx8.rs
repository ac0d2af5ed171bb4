//! Fig. 11 — fixed-8 weight bit analysis (Fig. 10's fixed-point analog).
//!
//! The headline effect lives in the bottom-right quadrant: for trained
//! fixed-8 weights the ordered transition probabilities drop far below the
//! baseline, matching Table I's 55.71% reduction.
//!
//! Usage: `cargo run --release -p experiments --bin
//! fig11_bit_distribution_fx8 [--packets 10000] [--seed 42]`

use btr_core::stream::{evaluate_windowed, word_bit_statistics, Comparison, WindowConfig};
use experiments::cli;
use experiments::workloads::{
    flatten_packets, fx8_kernel_packets, lenet_random, lenet_trained, sample_packets,
    DEFAULT_EPOCHS, DEFAULT_TRAIN_SAMPLES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    cli::reject_bad_args(&["packets", "seed"], &[]);
    let packets: usize = cli::arg("packets", 10_000);
    let seed: u64 = cli::arg("seed", 42);

    println!("# Fig. 11: fixed-8 weight bit analysis");
    for (label, model) in [
        ("random", lenet_random(seed)),
        (
            "trained",
            lenet_trained(seed, DEFAULT_TRAIN_SAMPLES, DEFAULT_EPOCHS),
        ),
    ] {
        let pool = fx8_kernel_packets(&model, 25);
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = sample_packets(&pool, packets, &mut rng);

        let words = flatten_packets(&stream);
        let stats = word_bit_statistics(&words);
        let ones = stats.one_probability();

        let config = WindowConfig::table1();
        let comparison = Comparison::RandomPairs {
            pairs: packets * 4,
            seed,
        };
        let base = evaluate_windowed(&stream, &config, false, comparison, 0);
        let ordered = evaluate_windowed(&stream, &config, true, comparison, 0);

        println!("section,{label}");
        println!("bit,ones_prob,trans_prob_baseline,trans_prob_ordered");
        // x-axis from the sign bit (MSB) as in the paper.
        for pos in 0..8usize {
            let lsb_index = 7 - pos;
            println!(
                "{},{:.4},{:.4},{:.4}",
                pos + 1,
                ones[lsb_index],
                base.word_transition_probability[lsb_index],
                ordered.word_transition_probability[lsb_index],
            );
        }
        println!();
    }
}
