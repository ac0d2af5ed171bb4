//! NoC simulator throughput: uniform-random traffic drained to idle.
//!
//! Benchmarks the flat-array engine on seeded 4×4 and 8×8 workloads, so
//! the `BENCH_noc.json` trajectory (written by the bench harness, see
//! EXPERIMENTS.md) tracks absolute cycles/sec across commits. The same
//! two workloads are pinned bit-exactly by the golden table in
//! `tests/transport_parity.rs`.

use btr_noc::config::NocConfig;
use btr_noc::sim::Simulator;
use btr_noc::traffic::{generate, Pattern};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("noc");
    group.sample_size(10);
    for (w, h) in [(4usize, 4usize), (8, 8)] {
        group.bench_function(format!("uniform_200pkts_{w}x{h}"), |b| {
            b.iter(|| {
                let config = NocConfig::mesh(w, h, 128);
                let mut rng = StdRng::seed_from_u64(5);
                let packets = generate(&config, Pattern::UniformRandom, 200, 4, &mut rng);
                let mut sim = Simulator::new(config);
                for p in packets {
                    sim.inject(p).unwrap();
                }
                sim.run_until_idle(1_000_000).unwrap();
                sim.stats().total_transitions
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
