//! Fig. 1 — Expectation of BT on two 32-bit numbers.
//!
//! Prints the analytic grid `E(x, y) = x + y − xy/16` for
//! `x, y ∈ [0, 32]` (CSV, rows = x) and cross-checks a sample of points
//! against Monte-Carlo simulation of random words with fixed popcounts.
//!
//! Usage: `cargo run --release -p experiments --bin fig01_bt_expectation
//! [--samples 20000] [--seed 42]`

use btr_core::theory::{expected_bt_32, monte_carlo_bt};
use experiments::cli;

fn main() {
    cli::reject_bad_args(&["samples", "seed"], &[]);
    let samples: u32 = cli::arg("samples", 20_000);
    let seed: u64 = cli::arg("seed", 42);

    println!("# Fig. 1: expected bit transitions between two 32-bit words");
    println!("# rows: x (popcount of word 1), cols: y (popcount of word 2)");
    print!("x\\y");
    for y in 0..=32 {
        print!(",{y}");
    }
    println!();
    for x in 0..=32u32 {
        print!("{x}");
        for y in 0..=32u32 {
            print!(",{:.3}", expected_bt_32(x, y));
        }
        println!();
    }

    println!();
    println!("# Monte-Carlo cross-check ({samples} samples per point, seed {seed})");
    println!(
        "{:>3} {:>3} {:>10} {:>10} {:>8}",
        "x", "y", "analytic", "sampled", "abs err"
    );
    for &(x, y) in &[(0u32, 0u32), (16, 16), (32, 0), (8, 24), (4, 28), (32, 32)] {
        let analytic = expected_bt_32(x, y);
        let sampled = monte_carlo_bt(x, y, 32, samples, seed);
        println!(
            "{x:>3} {y:>3} {analytic:>10.4} {sampled:>10.4} {:>8.4}",
            (analytic - sampled).abs()
        );
    }
}
