//! Bit-transition counting on link images (the per-hop hot path of the
//! NoC simulator, Fig. 8).

use btr_bits::payload::PayloadBits;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_images(width: u32, count: usize, seed: u64) -> Vec<PayloadBits> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| {
            let mut p = PayloadBits::zero(width);
            let mut off = 0;
            while off < width {
                let len = 64.min(width - off);
                p.set_field(off, len, rng.gen());
                off += len;
            }
            p
        })
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("transitions");
    for width in [128u32, 512] {
        let images = random_images(width, 1024, 7);
        group.bench_function(format!("xor_popcount_w{width}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for pair in images.windows(2) {
                    acc += u64::from(black_box(&pair[1]).transitions_to(&pair[0]));
                }
                acc
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
