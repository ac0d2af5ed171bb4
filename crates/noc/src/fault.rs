//! Deterministic per-link fault injection for the unreliable-wire model.
//!
//! Real NoCs ship an error-detection + retransmission protocol; this
//! module supplies the *error* half. Each directed link owns its own
//! [`SplitMix64`] stream, derived by seed-splitting the model seed with
//! the link index, so a run is bit-reproducible regardless of the order
//! in which links are visited — and two links never replay each other's
//! flip sequence.
//!
//! Flips land on the **frame wires** `[0, frame_wires)`: the data image
//! plus the EDC field. The codec side-channel wires above the frame and
//! head flits are modeled as protected control signals (real routers
//! carry separate ECC on control), which is precisely what gives the
//! CRC-8 burst guarantee teeth: a burst of ≤ 8 adjacent frame flips stays
//! a same-position burst through bus-invert or delta-XOR decoding and is
//! therefore always detected.

use btr_core::codec::ResyncPolicy;
use btr_core::edc::EdcKind;
use rand::{RngCore, SplitMix64};

/// A per-bit error probability stored as a 64-bit integer threshold:
/// a uniform `u64` draw below `self.0` flips the bit. The integer form
/// keeps the model `Eq`/`Hash` (usable as a sweep key) and exactly
/// reproducible across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BitErrorRate(pub u64);

impl BitErrorRate {
    /// A perfect wire: no draw can fall below zero.
    pub const ZERO: BitErrorRate = BitErrorRate(0);

    /// Converts a probability in `[0, 1]` to the integer threshold.
    /// `1.0` saturates to "almost surely" (`u64::MAX`).
    #[must_use]
    pub fn from_f64(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "BER {p} outside [0, 1]");
        if p >= 1.0 {
            return BitErrorRate(u64::MAX);
        }
        // 2^64 as f64 is exact; the product truncates toward zero.
        BitErrorRate((p * 18_446_744_073_709_551_616.0) as u64)
    }

    /// The probability this threshold encodes.
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64 / 18_446_744_073_709_551_616.0
    }

    /// True for a perfect wire.
    #[must_use]
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    fn hit(self, draw: u64) -> bool {
        draw < self.0
    }
}

impl std::str::FromStr for BitErrorRate {
    type Err = String;

    /// Parses a probability in `[0, 1]`, e.g. `"1e-6"`. NaN and values
    /// outside the interval are errors, not [`BitErrorRate::from_f64`]
    /// panics.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let p: f64 = s
            .parse()
            .map_err(|e| format!("BER {s:?} is not a number: {e}"))?;
        if (0.0..=1.0).contains(&p) {
            Ok(Self::from_f64(p))
        } else {
            Err(format!("BER {p} outside [0, 1]"))
        }
    }
}

/// How errors arrive on a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FaultMode {
    /// Independent per-bit flips: every frame wire of every payload flit
    /// draws once against the BER. The honest additive-noise model used
    /// by the sweep axes.
    #[default]
    PerFlit,
    /// Burst events: each payload flit draws once against the BER; on a
    /// hit, a contiguous run of 2–8 adjacent frame wires flips at a
    /// uniform offset. Models crosstalk/driver glitches and exercises
    /// the CRC-8 burst-detection guarantee.
    Burst,
}

impl FaultMode {
    /// Both modes, in ablation order.
    pub const ALL: [FaultMode; 2] = [FaultMode::PerFlit, FaultMode::Burst];

    /// Short label used in tables and JSON (`"per-flit"`, `"burst"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            FaultMode::PerFlit => "per-flit",
            FaultMode::Burst => "burst",
        }
    }
}

impl std::fmt::Display for FaultMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for FaultMode {
    type Err = String;

    /// Parses `"per-flit"`/`"flit"` or `"burst"`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "per-flit" | "perflit" | "flit" => Ok(FaultMode::PerFlit),
            "burst" => Ok(FaultMode::Burst),
            other => Err(format!("unknown fault mode {other:?}; use per-flit|burst")),
        }
    }
}

/// The error process on the mesh's wires: rate, mode and the root seed
/// all link streams split from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ErrorModel {
    /// Per-bit ([`FaultMode::PerFlit`]) or per-flit-event
    /// ([`FaultMode::Burst`]) error probability.
    pub ber: BitErrorRate,
    /// Root seed; per-link streams are `split(salt).split(link)` so the
    /// same model is reproducible on any traversal order.
    pub seed: u64,
    /// Error arrival shape.
    pub mode: FaultMode,
}

impl ErrorModel {
    /// A model drawing nothing — the perfect-wire limit of the faulty
    /// code path.
    #[must_use]
    // btr-lint: allow(test-only-pub, reason = "tests/engine_parity.rs zero_ber_armed_replays_equal_plain arms the fault path with it")
    pub fn perfect(seed: u64) -> Self {
        Self {
            ber: BitErrorRate::ZERO,
            seed,
            mode: FaultMode::PerFlit,
        }
    }

    /// The independent RNG stream for one directed link. `salt`
    /// distinguishes link families (inter-router vs injection lanes) so
    /// equal indices never share a stream.
    #[must_use]
    pub fn link_stream(&self, salt: u64, link: usize) -> SplitMix64 {
        SplitMix64::new(self.seed).split(salt).split(link as u64)
    }
}

/// The armed error process over one family of directed links, ready to
/// corrupt payload flits at traversal time.
#[derive(Debug, Clone)]
pub struct FaultState {
    model: ErrorModel,
    frame_wires: u32,
    /// One private RNG stream per directed link.
    lanes: Vec<SplitMix64>,
}

impl FaultState {
    /// Arms `links` lanes. `salt` namespaces this link family under the
    /// model seed; `frame_wires` bounds where flips may land (data +
    /// EDC field, excluding codec side-channel wires).
    ///
    /// # Panics
    ///
    /// Panics if `frame_wires` is zero.
    #[must_use]
    pub fn new(model: ErrorModel, salt: u64, links: usize, frame_wires: u32) -> Self {
        assert!(frame_wires > 0, "frame must have at least one wire");
        let lanes = (0..links)
            .map(|link| model.link_stream(salt, link))
            .collect();
        Self {
            model,
            frame_wires,
            lanes,
        }
    }

    /// The error process this state was armed with.
    #[must_use]
    pub fn model(&self) -> &ErrorModel {
        &self.model
    }

    /// Wires flips are confined to.
    #[must_use]
    pub fn frame_wires(&self) -> u32 {
        self.frame_wires
    }

    /// Applies this link's error process to one payload flit's wire row
    /// (wire `k` is bit `k % 64` of word `k / 64`), in place. Returns the
    /// number of bits flipped (0 almost always at realistic BERs). The
    /// row may reach past the frame (link alignment, codec side channel);
    /// its words and bits above the frame are never touched.
    ///
    /// # Panics
    ///
    /// Panics if `link` is out of range or the row is shorter than the
    /// frame.
    pub fn corrupt(&mut self, link: usize, row: &mut [u64]) -> u32 {
        let frame_wires = self.frame_wires;
        assert!(
            row.len() as u64 * 64 >= u64::from(frame_wires),
            "a {}-word row is narrower than the {frame_wires}-wire frame",
            row.len()
        );
        let ber = self.model.ber;
        let mode = self.model.mode;
        let rng = &mut self.lanes[link];
        let mut flipped = 0u32;
        match mode {
            FaultMode::PerFlit => {
                // One draw per frame wire, LSB-first, gathered into a
                // flip mask per 64-wire word and XORed in once.
                for (word, offset) in row.iter_mut().zip((0..frame_wires).step_by(64)) {
                    let len = 64.min(frame_wires - offset);
                    let mut mask = 0u64;
                    for bit in 0..len {
                        mask |= u64::from(ber.hit(rng.next_u64())) << bit;
                    }
                    *word ^= mask;
                    flipped += mask.count_ones();
                }
            }
            FaultMode::Burst => {
                if ber.hit(rng.next_u64()) {
                    let len = (2 + (rng.next_u64() % 7) as u32).min(frame_wires);
                    let start = (rng.next_u64() % u64::from(frame_wires - len + 1)) as u32;
                    let (word, bit) = ((start / 64) as usize, start % 64);
                    let mask = (1u64 << len) - 1;
                    row[word] ^= mask << bit;
                    if bit + len > 64 {
                        // The burst straddles a word boundary.
                        row[word + 1] ^= mask >> (64 - bit);
                    }
                    flipped = len;
                }
            }
        }
        flipped
    }
}

/// The full fault-injection + recovery configuration carried by
/// [`crate::config::NocConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultConfig {
    /// The wire error process.
    pub errors: ErrorModel,
    /// Per-flit error-detecting code stamped by the transport and checked
    /// by the receiving NI.
    pub edc: EdcKind,
    /// How per-link codec lanes are repaired at retry boundaries.
    pub resync: ResyncPolicy,
    /// Retries per packet before the NI gives up with a typed
    /// unrecoverable error.
    pub max_retries: u32,
    /// Width of the protected frame (data + EDC field). Explicit because
    /// the simulator cannot derive it under per-packet codec scope, where
    /// the coded geometry lives in the transport.
    pub frame_wires: u32,
}

impl FaultConfig {
    /// A fault configuration with the default recovery protocol: CRC-8
    /// detection, reseed-on-retry resync, 8 retries.
    #[must_use]
    pub fn new(errors: ErrorModel, frame_wires: u32) -> Self {
        Self {
            errors,
            edc: EdcKind::Crc8,
            resync: ResyncPolicy::ReseedOnRetry,
            max_retries: 8,
            frame_wires,
        }
    }

    /// True when the wires actually draw errors. An armed-but-perfect
    /// configuration (`ber = 0`) keeps the whole detection machinery in
    /// the path while leaving every wire image untouched.
    #[must_use]
    pub fn injects_errors(&self) -> bool {
        !self.errors.ber.is_zero()
    }

    /// Validates the fault configuration against the link geometry.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency: a fault-armed
    /// config must be able to *detect* (EDC on when `ber > 0`) and to
    /// *recover* (non-zero retry budget), and the frame must fit the
    /// wire beside any codec side channel.
    pub fn validate(
        &self,
        link_width_bits: u32,
        link_codec: Option<btr_core::codec::CodecKind>,
    ) -> Result<(), String> {
        if self.injects_errors() && self.edc == EdcKind::None {
            return Err(
                "fault config injects errors (ber > 0) with no EDC: corruption would be \
                 silent; enable parity/crc8 or set ber to 0"
                    .into(),
            );
        }
        if self.injects_errors() && self.max_retries == 0 {
            return Err(
                "fault config injects errors (ber > 0) with a zero retry budget: every \
                 detected error would be unrecoverable; give the NI at least one retry"
                    .into(),
            );
        }
        if self.frame_wires == 0 {
            return Err("fault frame must cover at least one wire".into());
        }
        if self.frame_wires <= self.edc.extra_wires() {
            return Err(format!(
                "fault frame of {} wire(s) leaves no data beside the {}-wire EDC field",
                self.frame_wires,
                self.edc.extra_wires()
            ));
        }
        let codec_extra = link_codec.map_or(0, |c| c.extra_wires());
        if self.frame_wires + codec_extra > link_width_bits {
            return Err(format!(
                "fault frame of {} wire(s) plus {} codec side-channel wire(s) exceeds the \
                 {}-bit link",
                self.frame_wires, codec_extra, link_width_bits
            ));
        }
        if link_codec.is_some() && self.frame_wires + codec_extra != link_width_bits {
            return Err(format!(
                "per-link codec expects the frame to fill the wire: frame {} + side channel \
                 {} != link width {}",
                self.frame_wires, codec_extra, link_width_bits
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use btr_bits::PayloadBits;
    use btr_core::codec::CodecKind;

    #[test]
    fn ber_threshold_roundtrips() {
        assert!(BitErrorRate::ZERO.is_zero());
        assert_eq!(BitErrorRate::from_f64(0.0), BitErrorRate::ZERO);
        assert_eq!(BitErrorRate::from_f64(1.0).0, u64::MAX);
        let half = BitErrorRate::from_f64(0.5);
        assert!((half.as_f64() - 0.5).abs() < 1e-12);
        let tiny = BitErrorRate::from_f64(1e-6);
        assert!((tiny.as_f64() - 1e-6).abs() < 1e-12);
        assert!(!tiny.is_zero());
    }

    /// A `width`-bit image's wire row.
    fn row(image: &PayloadBits) -> Vec<u64> {
        image.used_words().to_vec()
    }

    #[test]
    fn zero_ber_never_touches_a_flit() {
        let model = ErrorModel::perfect(42);
        let mut state = FaultState::new(model, 0, 4, 96);
        let mut flit = PayloadBits::zero(128);
        flit.set_field(40, 64, 0x0123_4567_89ab_cdef);
        for link in 0..4 {
            let mut wire = row(&flit);
            assert_eq!(state.corrupt(link, &mut wire), 0);
            assert_eq!(wire, flit.used_words());
        }
    }

    #[test]
    fn flips_are_deterministic_and_confined_to_the_frame() {
        let model = ErrorModel {
            ber: BitErrorRate::from_f64(0.05),
            seed: 7,
            mode: FaultMode::PerFlit,
        };
        let frame = 96;
        let mut a = FaultState::new(model, 0, 2, frame);
        let mut b = FaultState::new(model, 0, 2, frame);
        let (mut a_flipped, mut b_flipped) = (0u32, 0u32);
        for round in 0..50u64 {
            let mut base = PayloadBits::zero(128);
            base.set_field(0, 64, round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            // Visit links in opposite orders: per-link streams make the
            // outcome identical.
            let mut xs = [row(&base), row(&base)];
            let mut ys = [row(&base), row(&base)];
            for (link, x) in xs.iter_mut().enumerate() {
                a_flipped += a.corrupt(link, x);
            }
            for (link, y) in ys.iter_mut().enumerate().rev() {
                b_flipped += b.corrupt(link, y);
            }
            assert_eq!(xs, ys, "round {round}");
            for wire in xs {
                // Wires at and above the frame boundary never flip.
                let image = PayloadBits::from_row(128, &wire);
                assert_eq!(image.field(frame, 32), base.field(frame, 32));
            }
        }
        assert!(a_flipped > 0, "5% BER over 9600 draws");
        assert_eq!(a_flipped, b_flipped);
    }

    #[test]
    fn per_flit_masks_match_the_per_bit_draw_loop() {
        // Frames that end mid-word, on a word boundary and inside the
        // last word of a 3-word row (136 frame wires): every draw lands
        // where the per-bit oracle puts it, and the row's bits and words
        // above the frame are never touched.
        for p in [1e-2, 0.5] {
            let model = ErrorModel {
                ber: BitErrorRate::from_f64(p),
                seed: 11,
                mode: FaultMode::PerFlit,
            };
            for (frame, width) in [
                (1, 256),
                (63, 256),
                (64, 256),
                (65, 256),
                (104, 256),
                (136, 192),
                (200, 256),
            ] {
                let mut state = FaultState::new(model, 5, 2, frame);
                let mut oracle = model.link_stream(5, 1);
                let (mut want_flipped, mut total_flipped) = (0u32, 0u32);
                for round in 0..40u64 {
                    let mut base = PayloadBits::zero(width);
                    base.set_field(0, 64, round.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    base.set_field(width - 64, 64, !round);
                    // Oracle: one draw and one single-bit write per frame
                    // wire.
                    let mut want = base;
                    for bit in 0..frame {
                        if model.ber.hit(oracle.next_u64()) {
                            want.set_field(bit, 1, u64::from(!want.bit(bit)));
                            want_flipped += 1;
                        }
                    }
                    let mut got = row(&base);
                    let flipped = state.corrupt(1, &mut got);
                    assert_eq!(
                        got,
                        want.used_words(),
                        "ber {p}, frame {frame}, round {round}"
                    );
                    assert_eq!(flipped, want.transitions_to(&base));
                    total_flipped += flipped;
                    let got = PayloadBits::from_row(width, &got);
                    assert!(
                        (frame..width).all(|wire| got.bit(wire) == base.bit(wire)),
                        "frame {frame}: wires above the frame"
                    );
                }
                assert_eq!(total_flipped, want_flipped);
                assert!(want_flipped > 0, "ber {p}, frame {frame}");
            }
        }
        // The words a wider row holds past the frame stay untouched too.
        let model = ErrorModel {
            ber: BitErrorRate::from_f64(1.0),
            seed: 2,
            mode: FaultMode::PerFlit,
        };
        let mut state = FaultState::new(model, 0, 1, 136);
        let mut wide = vec![0u64; 4];
        wide[3] = 0xdead_beef;
        assert_eq!(state.corrupt(0, &mut wide), 136);
        assert_eq!(wide, [u64::MAX, u64::MAX, 0xff, 0xdead_beef]);
    }

    #[test]
    fn burst_mode_flips_short_contiguous_runs() {
        let model = ErrorModel {
            ber: BitErrorRate::from_f64(1.0),
            seed: 3,
            mode: FaultMode::Burst,
        };
        let frame = 64;
        let mut state = FaultState::new(model, 1, 1, frame);
        for _ in 0..200 {
            let mut wire = vec![0u64; 2];
            let flipped = state.corrupt(0, &mut wire);
            let image = PayloadBits::from_row(96, &wire);
            assert!((2..=8).contains(&flipped), "burst length {flipped}");
            // All flipped bits form one contiguous run inside the frame.
            let mut first = None;
            let mut last = 0;
            for bit in 0..96 {
                if image.bit(bit) {
                    assert!(bit < frame);
                    first.get_or_insert(bit);
                    last = bit;
                }
            }
            let first = first.expect("burst flipped something");
            assert_eq!(last - first + 1, flipped);
            assert_eq!(image.field(first, flipped), (1u64 << flipped) - 1);
        }
    }

    #[test]
    fn validate_rejects_inconsistent_configs() {
        let armed = ErrorModel {
            ber: BitErrorRate::from_f64(1e-4),
            seed: 1,
            mode: FaultMode::PerFlit,
        };
        // Silent corruption: errors on, EDC off.
        let mut cfg = FaultConfig::new(armed, 104);
        cfg.edc = EdcKind::None;
        assert!(cfg.validate(104, None).unwrap_err().contains("silent"));
        // No way to recover: zero retry budget.
        let mut cfg = FaultConfig::new(armed, 104);
        cfg.max_retries = 0;
        assert!(cfg.validate(104, None).unwrap_err().contains("retry"));
        // Frame too small for the EDC field.
        let mut cfg = FaultConfig::new(armed, 104);
        cfg.frame_wires = 8;
        assert!(cfg.validate(104, None).is_err());
        // Frame + codec side channel must exactly fill a coded wire.
        let cfg = FaultConfig::new(armed, 104);
        assert!(cfg.validate(105, Some(CodecKind::BusInvert)).is_ok());
        assert!(cfg.validate(104, Some(CodecKind::BusInvert)).is_err());
        assert!(cfg.validate(120, Some(CodecKind::BusInvert)).is_err());
        // Raw wires only need the frame to fit.
        assert!(cfg.validate(104, None).is_ok());
        assert!(cfg.validate(200, None).is_ok());
        assert!(cfg.validate(100, None).is_err());
        // ber = 0 may run without EDC or retries (nothing to detect).
        let mut cfg = FaultConfig::new(ErrorModel::perfect(1), 104);
        cfg.edc = EdcKind::None;
        cfg.max_retries = 0;
        assert!(cfg.validate(104, None).is_ok());
    }

    #[test]
    fn mode_parses_and_prints() {
        for mode in FaultMode::ALL {
            assert_eq!(mode.label().parse::<FaultMode>(), Ok(mode));
        }
        assert!("gaussian".parse::<FaultMode>().is_err());
        assert_eq!(FaultMode::Burst.to_string(), "burst");
    }
}
