//! Fig. 10 — float-32 weight bit analysis.
//!
//! Top halves: probability of a `'1'` at each of the 32 bit positions for
//! random and trained weights (revealing the sign/exponent/mantissa
//! structure). Bottom halves: probability of a transition at each bit
//! position, baseline vs ordered streams.
//!
//! Output: CSV with the x-axis counted from the sign bit (position 1),
//! matching the paper's plots.
//!
//! Usage: `cargo run --release -p experiments --bin
//! fig10_bit_distribution_f32 [--packets 10000] [--seed 42]`

use btr_core::stream::{evaluate_windowed, word_bit_statistics, Comparison, WindowConfig};
use experiments::cli;
use experiments::workloads::{
    f32_kernel_packets, flatten_packets, lenet_random, lenet_trained, sample_packets,
    DEFAULT_EPOCHS, DEFAULT_TRAIN_SAMPLES,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    cli::reject_bad_args(&["packets", "seed"], &[]);
    let packets: usize = cli::arg("packets", 10_000);
    let seed: u64 = cli::arg("seed", 42);

    println!("# Fig. 10: float-32 weight bit analysis");
    for (label, model) in [
        ("random", lenet_random(seed)),
        (
            "trained",
            lenet_trained(seed, DEFAULT_TRAIN_SAMPLES, DEFAULT_EPOCHS),
        ),
    ] {
        let pool = f32_kernel_packets(&model, 25);
        let mut rng = StdRng::seed_from_u64(seed);
        let stream = sample_packets(&pool, packets, &mut rng);

        // '1'-probability per bit position (order-independent).
        let words = flatten_packets(&stream);
        let stats = word_bit_statistics(&words);
        let ones = stats.one_probability();

        // Transition probability per bit position, baseline vs ordered
        // (Table I's windowed configuration and random flit comparisons).
        let config = WindowConfig::table1();
        let comparison = Comparison::RandomPairs {
            pairs: packets * 4,
            seed,
        };
        let base = evaluate_windowed(&stream, &config, false, comparison, 0);
        let ordered = evaluate_windowed(&stream, &config, true, comparison, 0);

        println!("section,{label}");
        println!("bit,ones_prob,trans_prob_baseline,trans_prob_ordered");
        // Paper x-axis: 1 = sign bit (MSB), 32 = mantissa LSB.
        for pos in 0..32usize {
            let lsb_index = 31 - pos;
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
