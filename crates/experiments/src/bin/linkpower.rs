//! Sec. V-C — intuitive link-power impression.
//!
//! Reproduces the arithmetic: `0.173 pJ/bit × 128 bits / 2 × 112 links ×
//! 125 MHz = 155.008 mW` (and 476.672 mW with Banerjee's 0.532 pJ), then
//! applies a BT reduction rate (default: the paper's best 40.85%).
//!
//! Usage: `cargo run --release -p experiments --bin linkpower
//! [--reduction 0.4085] [--links 112] [--width 128] [--freq 125]`

use btr_hw::link_energy::LinkPowerModel;
use experiments::cli;

fn main() {
    cli::reject_bad_args(&["reduction", "links", "width", "freq"], &[]);
    let reduction: f64 = cli::arg("reduction", 0.4085);
    let links: usize = cli::arg("links", 112);
    let width: u32 = cli::arg("width", 128);
    let freq: f64 = cli::arg("freq", 125.0);
    let toggle_fraction = 0.5; // "assuming half of the links transit"

    println!("Sec. V-C link power ({width}-bit links x {links}, {freq} MHz, 50% toggling)");
    println!(
        "{:<22} {:>12} {:>22} {:>14}",
        "model", "pJ/bit", "base power (mW)", "reduced (mW)"
    );
    for (name, model) in [
        ("ours (Innovus)", LinkPowerModel::paper()),
        ("Banerjee et al. [6]", LinkPowerModel::banerjee()),
    ] {
        let base = model.link_power_mw(width, links, toggle_fraction, freq);
        let reduced = LinkPowerModel::reduced_power_mw(base, reduction);
        println!(
            "{:<22} {:>12.3} {:>22.3} {:>14.3}",
            name, model.energy_per_transition_pj, base, reduced
        );
    }
    println!();
    println!(
        "# paper: 155.008 -> 91.688 mW and 476.672 -> 281.951 mW at {:.2}% reduction",
        reduction * 100.0
    );
}
