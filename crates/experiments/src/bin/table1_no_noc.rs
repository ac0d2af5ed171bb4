//! Table I — BT reduction without NoC.
//!
//! Streams 10,000 packets of real LeNet weights (25-value kernel packets,
//! zero-padded, 8 values per flit) over one link and measures "the BTs of
//! random comparisons between flits" (Sec. V-A), baseline vs ordered, for
//! the four configurations: float-32/fixed-8 × random/trained weights.
//! The ordering unit sorts a 64-packet prefetch window (Fig. 6) with the
//! paper's popcount-only comparator.
//!
//! Two additional sensitivity rows are printed per configuration (see
//! EXPERIMENTS.md): breaking popcount ties by value, and (for fixed-8) a
//! global Q0.7 quantization format — the knobs that reach the paper's
//! absolute magnitudes.
//!
//! Paper reference values: 20.38% (f32 random), 27.70% (fx8 random),
//! 18.92% (f32 trained), 55.71% (fx8 trained).
//!
//! Usage: `cargo run --release -p experiments --bin table1_no_noc
//! [--packets 10000] [--seed 42] [--train-samples 4000] [--epochs 10]`

use btr_core::stream::{compare_windowed, Comparison, StreamComparison, TieBreak, WindowConfig};
use experiments::cli;
use experiments::workloads::{
    f32_kernel_packets, fx8_kernel_packets_scheme, lenet_random, lenet_trained, sample_packets,
    Fx8Scheme,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const KERNEL_CHUNK: usize = 25;

fn main() {
    cli::reject_bad_args(&["packets", "seed", "train-samples", "epochs"], &[]);
    let packets: usize = cli::arg("packets", 10_000);
    let seed: u64 = cli::arg("seed", 42);
    let train_samples: usize = cli::arg(
        "train-samples",
        experiments::workloads::DEFAULT_TRAIN_SAMPLES,
    );
    let epochs: usize = cli::arg("epochs", experiments::workloads::DEFAULT_EPOCHS);

    let random_model = lenet_random(seed);
    let trained_model = lenet_trained(seed, train_samples, epochs);
    // Roughly one comparison per generated flit (4 flits per packet).
    let comparison = Comparison::RandomPairs {
        pairs: packets * 4,
        seed,
    };
    let stable = WindowConfig::table1();
    let value_ties = WindowConfig {
        tiebreak: TieBreak::Value,
        ..stable
    };

    println!("TABLE I: BT reduction without NoC ({packets} packets, seed {seed})");
    println!("(random flit comparisons; 64-packet ordering window; 8 values/flit)");
    println!(
        "{:<22} {:>14} {:>12} {:>12} {:>10}",
        "Weights", "Flit size(bit)", "BT/flit base", "BT/flit ord", "Reduction"
    );

    let mut rng = StdRng::seed_from_u64(seed);
    let f32r = sample_packets(
        &f32_kernel_packets(&random_model, KERNEL_CHUNK),
        packets,
        &mut rng,
    );
    let fx8r = sample_packets(
        &fx8_kernel_packets_scheme(&random_model, KERNEL_CHUNK, Fx8Scheme::PerTensor),
        packets,
        &mut rng,
    );
    let f32t = sample_packets(
        &f32_kernel_packets(&trained_model, KERNEL_CHUNK),
        packets,
        &mut rng,
    );
    let fx8t = sample_packets(
        &fx8_kernel_packets_scheme(&trained_model, KERNEL_CHUNK, Fx8Scheme::PerTensor),
        packets,
        &mut rng,
    );

    print_row(
        "Float-32 random",
        256,
        &compare_windowed(&f32r, &stable, comparison, 0),
    );
    print_row(
        "Fixed-8 random",
        64,
        &compare_windowed(&fx8r, &stable, comparison, 0),
    );
    print_row(
        "Float-32 trained",
        256,
        &compare_windowed(&f32t, &stable, comparison, 0),
    );
    print_row(
        "Fixed-8 trained",
        64,
        &compare_windowed(&fx8t, &stable, comparison, 0),
    );
    println!("# paper:             20.38% / 27.70% / 18.92% / 55.71% (same rank order)");

    println!();
    println!("sensitivity: popcount ties broken by value (wider comparator)");
    print_row(
        "Float-32 random",
        256,
        &compare_windowed(&f32r, &value_ties, comparison, 0),
    );
    print_row(
        "Fixed-8 random",
        64,
        &compare_windowed(&fx8r, &value_ties, comparison, 0),
    );
    print_row(
        "Float-32 trained",
        256,
        &compare_windowed(&f32t, &value_ties, comparison, 0),
    );
    print_row(
        "Fixed-8 trained",
        64,
        &compare_windowed(&fx8t, &value_ties, comparison, 0),
    );

    println!();
    println!("sensitivity: fixed-8 with a global Q0.7 format (shared scale)");
    let mut rng = StdRng::seed_from_u64(seed);
    let fx8r_g = sample_packets(
        &fx8_kernel_packets_scheme(&random_model, KERNEL_CHUNK, Fx8Scheme::GlobalUnit),
        packets,
        &mut rng,
    );
    let fx8t_g = sample_packets(
        &fx8_kernel_packets_scheme(&trained_model, KERNEL_CHUNK, Fx8Scheme::GlobalUnit),
        packets,
        &mut rng,
    );
    print_row(
        "Fixed-8 random",
        64,
        &compare_windowed(&fx8r_g, &stable, comparison, 0),
    );
    print_row(
        "Fixed-8 trained",
        64,
        &compare_windowed(&fx8t_g, &stable, comparison, 0),
    );
}

fn print_row(label: &str, flit_bits: usize, cmp: &StreamComparison) {
    println!(
        "{:<22} {:>14} {:>12.2} {:>12.2} {:>9.2}%",
        label,
        flit_bits,
        cmp.baseline.bt_per_flit,
        cmp.ordered.bt_per_flit,
        cmp.reduction_rate * 100.0
    );
}
