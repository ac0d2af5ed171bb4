//! Per-flit error-detecting codes (EDC) for the unreliable-link model.
//!
//! Every deployed NoC pairs its links with an error-detection +
//! retransmission protocol; this module is the detection half. An EDC is
//! computed over a flit's **plain data image** (the ordered values, before
//! any link coding) and carried on extra side-channel wires directly above
//! the data MSB, accounted exactly like the codec side channel. The link
//! codec then codes the whole *frame* — data plus EDC field — as one unit,
//! so a wire flip anywhere in the frame lands in the decoded frame and the
//! receiving NI's check catches it:
//!
//! ```text
//!   wire layout (LSB → MSB):
//!   [ data: data_width ][ EDC: extra_wires ][ codec side channel ]
//!   `------------- frame -----------------'
//! ```
//!
//! [`EdcKind::Crc8`] detects **every** burst of ≤ 8 adjacent frame-bit
//! flips (the classic burst-detection guarantee of a degree-8 CRC), which
//! is what makes the recovery property tests airtight under the burst
//! error model; [`EdcKind::Parity`] is the one-wire cheap option (detects
//! any odd number of flips). Head flits and codec side-channel wires are
//! control signals and modeled as protected, as in real routers where
//! control carries separate ECC.

use btr_bits::slab::{row_field, set_row_field};

/// CRC-8 generator polynomial `x^8 + x^2 + x + 1` without its `x^8` term.
const CRC8_POLY: u8 = 0x07;

/// One bit-serial CRC-8 step: shifts `bit` into the MSB-first register.
const fn crc8_step(crc: u8, bit: u8) -> u8 {
    let feedback = (crc >> 7) ^ bit;
    (crc << 1) ^ if feedback != 0 { CRC8_POLY } else { 0 }
}

/// `CRC8_TABLE[x]` is the register after eight zero-input steps from `x`:
/// one table lookup advances the CRC by a whole (MSB-first) byte.
const CRC8_TABLE: [u8; 256] = {
    let mut table = [0u8; 256];
    let mut x = 0;
    while x < 256 {
        let mut crc = x as u8;
        let mut step = 0;
        while step < 8 {
            crc = crc8_step(crc, 0);
            step += 1;
        }
        table[x] = crc;
        x += 1;
    }
    table
};

/// Which error-detecting code a transport stamps on each payload flit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EdcKind {
    /// No EDC: the frame is the data image (perfect-wire model).
    #[default]
    None,
    /// Single even-parity wire over the data bits: detects any odd number
    /// of flips, misses even-sized errors. One extra wire.
    Parity,
    /// CRC-8 (polynomial `x^8 + x^2 + x + 1`, 0x07) over the data bits:
    /// detects all single/double flips and every burst of length ≤ 8.
    /// Eight extra wires.
    Crc8,
}

impl EdcKind {
    /// All kinds, in ablation order.
    pub const ALL: [EdcKind; 3] = [EdcKind::None, EdcKind::Parity, EdcKind::Crc8];

    /// Short label used in tables and JSON (`"none"`, `"parity"`,
    /// `"crc8"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            EdcKind::None => "none",
            EdcKind::Parity => "parity",
            EdcKind::Crc8 => "crc8",
        }
    }

    /// Side-channel wires the EDC adds between the data MSB and any codec
    /// side channel.
    #[must_use]
    pub fn extra_wires(self) -> u32 {
        match self {
            EdcKind::None => 0,
            EdcKind::Parity => 1,
            EdcKind::Crc8 => 8,
        }
    }

    /// Computes the check value over the low `data_width` bits of a flit
    /// row (wire `k` is bit `k % 64` of word `k / 64`).
    ///
    /// # Panics
    ///
    /// Panics if `row` holds fewer than `data_width` bits.
    #[must_use]
    pub fn compute(self, row: &[u64], data_width: u32) -> u64 {
        assert!(
            row.len() * 64 >= data_width as usize,
            "a {}-word row holds fewer than {data_width} data bits",
            row.len()
        );
        let (full, rem) = ((data_width / 64) as usize, data_width % 64);
        match self {
            EdcKind::None => 0,
            EdcKind::Parity => {
                let mut ones: u32 = row[..full].iter().map(|w| w.count_ones()).sum();
                if rem > 0 {
                    ones += (row[full] & ((1u64 << rem) - 1)).count_ones();
                }
                u64::from(ones & 1)
            }
            EdcKind::Crc8 => {
                // CRC-8 over the data bits LSB-first, a byte per table
                // step: the register shifts MSB-first, so each byte is
                // fed bit-reversed (its lowest wire enters first). A tail
                // shorter than a byte goes bit by bit.
                let mut crc = 0u8;
                let bytes = data_width / 8;
                for k in 0..bytes {
                    let byte = (row[(k / 8) as usize] >> (8 * (k % 8))) as u8;
                    crc = CRC8_TABLE[usize::from(crc ^ byte.reverse_bits())];
                }
                for i in bytes * 8..data_width {
                    let bit = (row[(i / 64) as usize] >> (i % 64)) & 1;
                    crc = crc8_step(crc, bit as u8);
                }
                // Store the remainder bit-reversed: frame position
                // data_width + k then carries remainder coefficient
                // x^(7-k), so physical wire adjacency matches codeword
                // polynomial adjacency and the degree-8 burst guarantee
                // holds across the data/check boundary too.
                u64::from(crc.reverse_bits())
            }
        }
    }

    /// Writes the check value of a row's `data_width` data bits into its
    /// field at `[data_width, data_width + extra_wires)`, in place. The
    /// row must already cover the frame. No-op for [`EdcKind::None`].
    ///
    /// # Panics
    ///
    /// Panics if `row` does not cover `data_width + extra_wires` bits.
    pub fn stamp(self, row: &mut [u64], data_width: u32) {
        if self != EdcKind::None {
            let check = self.compute(row, data_width);
            set_row_field(row, data_width, self.extra_wires(), check);
        }
    }

    /// Checks a delivered frame row: recomputes the EDC over the data bits
    /// and compares it to the carried field. Always `true` for
    /// [`EdcKind::None`]. Wires above the frame (link-aligned rows) are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if `row` does not cover `data_width + extra_wires` bits.
    #[must_use]
    pub fn verify(self, row: &[u64], data_width: u32) -> bool {
        self == EdcKind::None
            || row_field(row, data_width, self.extra_wires()) == self.compute(row, data_width)
    }
}

impl std::fmt::Display for EdcKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for EdcKind {
    type Err = String;

    /// Parses `"none"`, `"parity"`, `"crc8"`/`"crc-8"`/`"crc"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Ok(EdcKind::None),
            "parity" => Ok(EdcKind::Parity),
            "crc8" | "crc-8" | "crc" => Ok(EdcKind::Crc8),
            other => Err(format!("unknown EDC {other:?}; use none|parity|crc8")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random `width`-bit data row with room for the widest check
    /// field and three link-alignment wires above it.
    fn random_row(width: u32, seed: u64) -> Vec<u64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut row: Vec<u64> = (0..(width + 11).div_ceil(64)).map(|_| rng.gen()).collect();
        for (k, w) in row.iter_mut().enumerate() {
            let low = 64 * k as u32;
            if low >= width {
                *w = 0;
            } else if width - low < 64 {
                *w &= (1u64 << (width - low)) - 1;
            }
        }
        row
    }

    fn bit(row: &[u64], i: u32) -> u64 {
        row_field(row, i, 1)
    }

    fn flip(row: &mut [u64], i: u32) {
        row[(i / 64) as usize] ^= 1 << (i % 64);
    }

    /// Bit-serial CRC-8, the oracle for the table-driven kernel: data
    /// bits LSB-first through the MSB-first register, remainder stored
    /// bit-reversed.
    fn crc8_bitwise(row: &[u64], data_width: u32) -> u64 {
        let mut crc = 0u8;
        for i in 0..data_width {
            let top = crc >> 7;
            crc <<= 1;
            if top ^ bit(row, i) as u8 != 0 {
                crc ^= 0x07;
            }
        }
        u64::from(crc.reverse_bits())
    }

    #[test]
    fn crc8_table_matches_the_bitwise_oracle() {
        for width in [1, 7, 8, 9, 63, 64, 65, 104, 128, 200, 256, 512, 1024] {
            for seed in 0..16 {
                let row = random_row(width, seed * 1000 + u64::from(width));
                for data_width in [width, width / 2, width.saturating_sub(3)] {
                    assert_eq!(
                        EdcKind::Crc8.compute(&row, data_width),
                        crc8_bitwise(&row, data_width),
                        "width {width}, data width {data_width}, seed {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn stamp_then_verify_round_trips() {
        for kind in EdcKind::ALL {
            for width in [8u32, 64, 128, 130] {
                for seed in 0..20 {
                    let data = random_row(width, seed);
                    let mut frame = data.clone();
                    kind.stamp(&mut frame, width);
                    assert!(kind.verify(&frame, width), "{kind} w={width} s={seed}");
                    // The data bits are untouched, and nothing lands above
                    // the frame.
                    let frame_width = width + kind.extra_wires();
                    for i in 0..64 * frame.len() as u32 {
                        if i < width || i >= frame_width {
                            assert_eq!(bit(&frame, i), bit(&data, i), "{kind} bit {i}");
                        }
                    }
                    // Link-aligned frames (set wires above the frame)
                    // verify identically.
                    flip(&mut frame, frame_width + 2);
                    assert!(kind.verify(&frame, width));
                }
            }
        }
    }

    #[test]
    fn single_flips_are_always_detected() {
        for kind in [EdcKind::Parity, EdcKind::Crc8] {
            let width = 96;
            let mut frame = random_row(width, 7);
            kind.stamp(&mut frame, width);
            for i in 0..width + kind.extra_wires() {
                let mut bad = frame.clone();
                flip(&mut bad, i);
                assert!(!kind.verify(&bad, width), "{kind} flip at {i}");
            }
        }
    }

    #[test]
    fn crc8_detects_every_short_burst() {
        // The degree-8 burst guarantee: any contiguous run of ≤ 8 flipped
        // frame bits (data or check field) is detected.
        let width = 128;
        let mut frame = random_row(width, 13);
        EdcKind::Crc8.stamp(&mut frame, width);
        for len in 1..=8u32 {
            for start in 0..=(width + 8 - len) {
                let mut bad = frame.clone();
                for i in start..start + len {
                    flip(&mut bad, i);
                }
                assert!(
                    !EdcKind::Crc8.verify(&bad, width),
                    "burst len={len} at {start} aliased"
                );
            }
        }
    }

    #[test]
    fn parity_misses_double_flips_crc_catches_them() {
        let width = 64;
        let data = random_row(width, 5);
        let flip2 = |kind: EdcKind| {
            let mut bad = data.clone();
            kind.stamp(&mut bad, width);
            flip(&mut bad, 3);
            flip(&mut bad, 40);
            bad
        };
        assert!(EdcKind::Parity.verify(&flip2(EdcKind::Parity), width));
        assert!(!EdcKind::Crc8.verify(&flip2(EdcKind::Crc8), width));
    }

    #[test]
    fn kind_parses_and_prints() {
        for kind in EdcKind::ALL {
            assert_eq!(kind.label().parse::<EdcKind>(), Ok(kind));
        }
        assert_eq!("crc-8".parse::<EdcKind>(), Ok(EdcKind::Crc8));
        assert!("hamming".parse::<EdcKind>().is_err());
        assert_eq!(EdcKind::default(), EdcKind::None);
        assert_eq!(EdcKind::Crc8.to_string(), "crc8");
        assert_eq!(EdcKind::None.extra_wires(), 0);
        assert_eq!(EdcKind::Parity.extra_wires(), 1);
        assert_eq!(EdcKind::Crc8.extra_wires(), 8);
    }
}
