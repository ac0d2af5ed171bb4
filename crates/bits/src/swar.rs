//! SWAR (SIMD-Within-A-Register) popcount, mirroring the hardware unit.
//!
//! The paper's ordering unit (Fig. 14) counts `'1'` bits with the classic
//! SWAR reduction before feeding the counts into a bubble-sort network. We
//! implement the same bit-parallel algorithm here so the behavioral hardware
//! model in `btr-core::unit` and the software ordering path use *identical*
//! arithmetic, and we verify it against the native `count_ones` in tests.
//!
//! The algorithm for a `w`-bit word performs `log2(w)` masked add steps:
//! first summing adjacent 1-bit fields into 2-bit fields, then 2-bit fields
//! into 4-bit fields, and so on.

/// SWAR popcount of an 8-bit word (3 masked-add stages).
#[must_use]
pub const fn popcount_u8(x: u8) -> u32 {
    let x = (x & 0x55) + ((x >> 1) & 0x55);
    let x = (x & 0x33) + ((x >> 2) & 0x33);
    let x = (x & 0x0f) + ((x >> 4) & 0x0f);
    x as u32
}

/// SWAR popcount of a 32-bit word (5 masked-add stages).
#[must_use]
pub const fn popcount_u32(x: u32) -> u32 {
    let x = (x & 0x5555_5555) + ((x >> 1) & 0x5555_5555);
    let x = (x & 0x3333_3333) + ((x >> 2) & 0x3333_3333);
    let x = (x & 0x0f0f_0f0f) + ((x >> 4) & 0x0f0f_0f0f);
    let x = (x & 0x00ff_00ff) + ((x >> 8) & 0x00ff_00ff);
    (x & 0x0000_ffff) + ((x >> 16) & 0x0000_ffff)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u8_matches_native_exhaustive() {
        for x in 0..=u8::MAX {
            assert_eq!(popcount_u8(x), x.count_ones(), "x={x:#010b}");
        }
    }

    #[test]
    fn u32_matches_native_sampled() {
        let cases = [
            0u32,
            1,
            u32::MAX,
            0x5555_5555,
            0xaaaa_aaaa,
            0xdead_beef,
            1.5f32.to_bits(),
            (-0.001f32).to_bits(),
        ];
        for x in cases {
            assert_eq!(popcount_u32(x), x.count_ones());
        }
        // Walk a single bit through all positions.
        for i in 0..32 {
            assert_eq!(popcount_u32(1 << i), 1);
            assert_eq!(popcount_u32(u32::MAX ^ (1 << i)), 31);
        }
    }
}
