//! Fig. 9 — `'1'`-bit-count grid of flits before and after ordering.
//!
//! Prints rows of flits (8 weights per flit); each cell is the popcount of
//! one weight. Left grid: original order; right grid: after descending
//! popcount round-robin ordering. The visible effect is the right grid's
//! monotone columns.
//!
//! Usage: `cargo run --release -p experiments --bin fig09_ordering_example
//! [--rows 16] [--seed 42] [--weights trained]`

use btr_core::stream::{evaluate_windowed, Comparison, Placement, TieBreak, WindowConfig};
use experiments::cli;
use experiments::workloads::{fx8_kernel_packets, lenet, sample_packets, WeightSource};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    cli::reject_bad_args(&["rows", "seed", "weights"], &[]);
    let rows: usize = cli::arg("rows", 16);
    let seed: u64 = cli::arg("seed", 42);
    let source: WeightSource = cli::arg("weights", WeightSource::Trained);

    let model = lenet(source, seed);
    let pool = fx8_kernel_packets(&model, 25);
    let mut rng = StdRng::seed_from_u64(seed);
    let packets = sample_packets(&pool, rows.div_ceil(4) + 1, &mut rng);

    // Row-major placement shows Fig. 9's visual: a globally descending
    // popcount grid (round-robin is the default transmit placement).
    let config = WindowConfig {
        values_per_flit: 8,
        window_packets: packets.len(),
        placement: Placement::RowMajor,
        tiebreak: TieBreak::Stable,
    };
    let before = evaluate_windowed(&packets, &config, false, Comparison::Consecutive, rows);
    let after = evaluate_windowed(&packets, &config, true, Comparison::Consecutive, rows);

    println!(
        "Fig. 9: fixed-8 {} weights, popcount per flit slot",
        source.name()
    );
    println!(
        "{:<6} {:<28} {:<28}",
        "flit", "before ordering", "after ordering"
    );
    for (i, (b, a)) in before
        .popcount_grid
        .iter()
        .zip(after.popcount_grid.iter())
        .enumerate()
    {
        let fmt = |row: &Vec<u32>| {
            row.iter()
                .map(|pc| format!("{pc:>2}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!("{i:<6} {:<28} {:<28}", fmt(b), fmt(a));
    }
    println!();
    println!(
        "stream BT/flit: before {:.2}, after {:.2} ({:.2}% reduction)",
        before.bt_per_flit,
        after.bt_per_flit,
        (1.0 - after.bt_per_flit / before.bt_per_flit) * 100.0
    );
}
