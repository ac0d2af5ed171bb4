//! Standalone NoC exploration: synthetic traffic patterns and their BT /
//! latency behaviour, independent of any DNN workload.
//!
//! Run with: `cargo run --release --example noc_traffic`

use noc_btr::noc::config::NocConfig;
use noc_btr::noc::sim::Simulator;
use noc_btr::noc::traffic::{generate, Pattern};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let patterns = [
        ("uniform random", Pattern::UniformRandom),
        ("transpose", Pattern::Transpose),
        ("hotspot(27)", Pattern::Hotspot(27)),
        ("bit complement", Pattern::BitComplement),
    ];
    println!("8x8 mesh, 128-bit links, 300 packets x 4 flits per pattern\n");
    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>12} {:>10}",
        "pattern", "cycles", "total BTs", "BT/flit-hop", "mean lat", "max lat"
    );
    for (name, pattern) in patterns {
        let config = NocConfig::mesh(8, 8, 128);
        let mut rng = StdRng::seed_from_u64(99);
        let packets = generate(&config, pattern, 300, 4, &mut rng);
        let mut sim = Simulator::new(config);
        for p in packets {
            sim.inject(p).expect("valid packet");
        }
        let cycles = sim.run_until_idle(1_000_000).expect("drains");
        let stats = sim.stats();
        println!(
            "{:<16} {:>10} {:>12} {:>12.2} {:>12.1} {:>10}",
            name,
            cycles,
            stats.total_transitions,
            stats.total_transitions as f64 / stats.flit_hops.max(1) as f64,
            stats.latency.mean,
            stats.latency.max
        );
    }
    println!("\nHotspot traffic serializes at the destination: highest latency.");
}
