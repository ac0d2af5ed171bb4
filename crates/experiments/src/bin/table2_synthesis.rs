//! Table II — synthesis results of the ordering unit and router.
//!
//! Regenerates the table from the calibrated gate-equivalent models and
//! prints the deployment comparison (4 units vs 64 routers) plus the
//! sorter-network ablation (not in the paper).
//!
//! Usage: `cargo run --release -p experiments --bin table2_synthesis`

use btr_hw::area::{OrderingUnitDesign, RouterDesign, SorterNetwork, Technology};
use btr_hw::power::DeploymentPower;
use btr_hw::table2::Table2;
use experiments::cli;

fn main() {
    cli::reject_bad_args(&[], &[]);
    let tech = Technology::tsmc90();
    println!("{}", Table2::generate(&tech));

    let deployment = DeploymentPower::compute(
        &OrderingUnitDesign::paper_default(),
        &RouterDesign::paper_default(),
        &tech,
        4,
        64,
        tech.frequency_mhz,
    );
    println!(
        "deployment (8x8 NoC, 4 MCs): units {:.3} mW vs routers {:.2} mW ({:.2}% overhead)",
        deployment.units_total_mw,
        deployment.routers_total_mw,
        deployment.overhead_fraction() * 100.0
    );

    println!();
    println!("sorter-network ablation (16 values, 32-bit words):");
    println!(
        "{:<28} {:>10} {:>10} {:>8}",
        "network", "area kGE", "power mW", "cycles"
    );
    for sorter in SorterNetwork::ALL {
        let unit = OrderingUnitDesign {
            sorter,
            ..OrderingUnitDesign::paper_default()
        };
        println!(
            "{:<28} {:>10.2} {:>10.3} {:>8}",
            format!("{sorter:?}"),
            unit.area_kge(&tech),
            unit.power_mw(&tech, tech.frequency_mhz),
            unit.latency_cycles()
        );
    }

    println!();
    println!("word-width scaling (bubble sorter):");
    println!("{:<10} {:>10} {:>10}", "word bits", "area kGE", "power mW");
    for bits in [8u32, 16, 32] {
        let unit = OrderingUnitDesign {
            word_bits: bits,
            ..OrderingUnitDesign::paper_default()
        };
        println!(
            "{:<10} {:>10.2} {:>10.3}",
            bits,
            unit.area_kge(&tech),
            unit.power_mw(&tech, tech.frequency_mhz)
        );
    }
}
