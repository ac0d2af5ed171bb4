//! Synthetic traffic patterns for standalone NoC validation.
//!
//! These patterns are not part of the paper's evaluation; they exist to
//! exercise and validate the simulator itself (delivery, fairness,
//! saturation behaviour) independent of the DNN workload.

use crate::config::{NocConfig, NodeId};
use crate::packet::Packet;
use btr_bits::payload::PayloadBits;
use rand::rngs::StdRng;
use rand::Rng;

/// Synthetic traffic pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Every source picks destinations uniformly at random.
    UniformRandom,
    /// Node `(r, c)` sends to `(c, r)`.
    Transpose,
    /// Everyone sends to one hotspot node.
    Hotspot(NodeId),
    /// Node `i` sends to `(i + N/2) mod N`.
    BitComplement,
}

/// Generates `count` packets of `flits_per_packet` random payload flits
/// following the pattern.
#[must_use]
pub fn generate(
    config: &NocConfig,
    pattern: Pattern,
    count: usize,
    flits_per_packet: usize,
    rng: &mut StdRng,
) -> Vec<Packet> {
    let n = config.num_nodes();
    (0..count)
        .map(|i| {
            let src = rng.gen_range(0..n);
            let dst = match pattern {
                Pattern::UniformRandom => rng.gen_range(0..n),
                Pattern::Transpose => {
                    let (r, c) = config.position(src);
                    // Transpose requires a square mesh; clamp otherwise.
                    config.node_at(c.min(config.height - 1), r.min(config.width - 1))
                }
                Pattern::Hotspot(h) => h,
                Pattern::BitComplement => (src + n / 2) % n,
            };
            let payload: Vec<PayloadBits> = (0..flits_per_packet)
                .map(|_| {
                    let mut p = PayloadBits::zero(config.link_width_bits);
                    let mut off = 0;
                    while off < config.link_width_bits {
                        let len = 64.min(config.link_width_bits - off);
                        p.set_field(off, len, rng.gen());
                        off += len;
                    }
                    p
                })
                .collect();
            Packet::new(src, dst, payload, i as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulator;
    use rand::SeedableRng;

    #[test]
    fn uniform_random_traffic_drains() {
        let config = NocConfig::mesh(4, 4, 128);
        let mut rng = StdRng::seed_from_u64(1);
        let packets = generate(&config, Pattern::UniformRandom, 100, 3, &mut rng);
        assert_eq!(packets.len(), 100);
        let mut sim = Simulator::new(config);
        for p in packets {
            sim.inject(p).unwrap();
        }
        sim.run_until_idle(100_000).unwrap();
        assert_eq!(sim.stats().packets_delivered, 100);
    }

    #[test]
    fn hotspot_targets_one_node() {
        let config = NocConfig::mesh(4, 4, 64);
        let mut rng = StdRng::seed_from_u64(2);
        let packets = generate(&config, Pattern::Hotspot(5), 50, 1, &mut rng);
        assert!(packets.iter().all(|p| p.dst == 5));
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let config = NocConfig::mesh(4, 4, 64);
        let mut rng = StdRng::seed_from_u64(3);
        for p in generate(&config, Pattern::Transpose, 50, 1, &mut rng) {
            let (sr, sc) = config.position(p.src);
            let (dr, dc) = config.position(p.dst);
            assert_eq!((sr, sc), (dc, dr));
        }
    }

    #[test]
    fn bit_complement_offsets_by_half() {
        let config = NocConfig::mesh(4, 4, 64);
        let mut rng = StdRng::seed_from_u64(4);
        for p in generate(&config, Pattern::BitComplement, 20, 1, &mut rng) {
            assert_eq!(p.dst, (p.src + 8) % 16);
        }
    }
}
