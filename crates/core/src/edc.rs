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

use btr_bits::payload::PayloadBits;

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

    /// Computes the check value over the low `data_width` bits of `image`.
    ///
    /// # Panics
    ///
    /// Panics if `image` is narrower than `data_width`.
    #[must_use]
    pub fn compute(self, image: &PayloadBits, data_width: u32) -> u64 {
        assert!(
            image.width() >= data_width,
            "image width {} below data width {data_width}",
            image.width()
        );
        match self {
            EdcKind::None => 0,
            EdcKind::Parity => {
                let mut ones = 0u32;
                let mut off = 0;
                while off < data_width {
                    let len = 64.min(data_width - off);
                    ones += image.field(off, len).count_ones();
                    off += len;
                }
                u64::from(ones & 1)
            }
            EdcKind::Crc8 => {
                // CRC-8 over the data bits LSB-first, a byte per table
                // step: the register shifts MSB-first, so each byte is
                // fed bit-reversed (its lowest wire enters first). A tail
                // shorter than a byte goes bit by bit.
                let mut crc = 0u8;
                let words = image.used_words();
                let bytes = data_width / 8;
                for k in 0..bytes {
                    let byte = (words[(k / 8) as usize] >> (8 * (k % 8))) as u8;
                    crc = CRC8_TABLE[usize::from(crc ^ byte.reverse_bits())];
                }
                for i in bytes * 8..data_width {
                    crc = crc8_step(crc, u8::from(image.bit(i)));
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

    /// Widens a `data_width` plain image into a frame and writes the check
    /// field at `[data_width, data_width + extra_wires)`. Returns the
    /// image unchanged for [`EdcKind::None`].
    ///
    /// # Panics
    ///
    /// Panics if `image` is narrower than `data_width`.
    #[must_use]
    pub fn stamp(self, image: &PayloadBits, data_width: u32) -> PayloadBits {
        if self == EdcKind::None {
            return *image;
        }
        let mut frame = image.resized(data_width + self.extra_wires());
        frame.set_field(
            data_width,
            self.extra_wires(),
            self.compute(image, data_width),
        );
        frame
    }

    /// Checks a delivered frame: recomputes the EDC over the data bits and
    /// compares it to the carried field. Always `true` for
    /// [`EdcKind::None`]. The frame may be wider than
    /// `data_width + extra_wires` (link-aligned images); upper wires are
    /// ignored.
    ///
    /// # Panics
    ///
    /// Panics if `frame` is narrower than the frame width.
    #[must_use]
    pub fn verify(self, frame: &PayloadBits, data_width: u32) -> bool {
        if self == EdcKind::None {
            return true;
        }
        assert!(
            frame.width() >= data_width + self.extra_wires(),
            "frame width {} below data + EDC width {}",
            frame.width(),
            data_width + self.extra_wires()
        );
        frame.field(data_width, self.extra_wires()) == self.compute(frame, data_width)
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

    fn random_image(width: u32, seed: u64) -> PayloadBits {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = PayloadBits::zero(width);
        let mut off = 0;
        while off < width {
            let len = 64.min(width - off);
            p.set_field(off, len, rng.gen());
            off += len;
        }
        p
    }

    /// Bit-serial CRC-8, the oracle for the table-driven kernel: data
    /// bits LSB-first through the MSB-first register, remainder stored
    /// bit-reversed.
    fn crc8_bitwise(image: &PayloadBits, data_width: u32) -> u64 {
        let mut crc = 0u8;
        for i in 0..data_width {
            let bit = u8::from(image.bit(i));
            let top = crc >> 7;
            crc <<= 1;
            if top ^ bit != 0 {
                crc ^= 0x07;
            }
        }
        u64::from(crc.reverse_bits())
    }

    #[test]
    fn crc8_table_matches_the_bitwise_oracle() {
        for width in [1, 7, 8, 9, 63, 64, 65, 104, 128, 200, 256, 512, 1024] {
            for seed in 0..16 {
                let image = random_image(width, seed * 1000 + u64::from(width));
                for data_width in [width, width / 2, width.saturating_sub(3)] {
                    assert_eq!(
                        EdcKind::Crc8.compute(&image, data_width),
                        crc8_bitwise(&image, data_width),
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
                    let image = random_image(width, seed);
                    let frame = kind.stamp(&image, width);
                    assert_eq!(frame.width(), width + kind.extra_wires());
                    assert!(kind.verify(&frame, width), "{kind} w={width} s={seed}");
                    // Link-aligned (wider) frames verify identically.
                    assert!(kind.verify(&frame.resized(frame.width() + 3), width));
                    // The data bits are untouched.
                    assert_eq!(frame.resized(width), image);
                }
            }
        }
    }

    #[test]
    fn single_flips_are_always_detected() {
        for kind in [EdcKind::Parity, EdcKind::Crc8] {
            let width = 96;
            let image = random_image(width, 7);
            let frame = kind.stamp(&image, width);
            for bit in 0..frame.width() {
                let mut bad = frame;
                bad.set_field(bit, 1, u64::from(!frame.bit(bit)));
                assert!(!kind.verify(&bad, width), "{kind} flip at {bit}");
            }
        }
    }

    #[test]
    fn crc8_detects_every_short_burst() {
        // The degree-8 burst guarantee: any contiguous run of ≤ 8 flipped
        // frame bits (data or check field) is detected.
        let width = 128;
        let image = random_image(width, 13);
        let frame = EdcKind::Crc8.stamp(&image, width);
        for len in 1..=8u32 {
            for start in 0..=(frame.width() - len) {
                let mut bad = frame;
                let mask = (1u64 << len) - 1;
                bad.set_field(start, len, !frame.field(start, len) & mask);
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
        let image = random_image(width, 5);
        let pframe = EdcKind::Parity.stamp(&image, width);
        let cframe = EdcKind::Crc8.stamp(&image, width);
        let flip2 = |f: &PayloadBits, a: u32, b: u32| {
            let mut bad = *f;
            bad.set_field(a, 1, u64::from(!f.bit(a)));
            bad.set_field(b, 1, u64::from(!bad.bit(b)));
            bad
        };
        assert!(EdcKind::Parity.verify(&flip2(&pframe, 3, 40), width));
        assert!(!EdcKind::Crc8.verify(&flip2(&cframe, 3, 40), width));
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
