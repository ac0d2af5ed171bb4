//! The Sec. V-C link-power arithmetic.
//!
//! "Assuming half of the 128-bit links transit for an 8×8 NoC with 112
//! inter-router links, the overall link power under 125 MHz is
//! `0.173 pJ/bit × 128 bits / 2 × 112 × 125 MHz = 155.008 mW` for our
//! design and 476.672 mW using Banerjee's link model."

use serde::{Deserialize, Serialize};

/// Per-transition link energy extracted by the paper's Innovus flow.
pub const PAPER_LINK_ENERGY_PJ: f64 = 0.173;
/// Per-transition link energy from Banerjee et al. \[6\].
pub const BANERJEE_LINK_ENERGY_PJ: f64 = 0.532;

/// A constant-energy-per-transition link power model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkPowerModel {
    /// Energy per bit transition, picojoules.
    pub energy_per_transition_pj: f64,
}

impl LinkPowerModel {
    /// The paper's extracted link energy.
    #[must_use]
    pub fn paper() -> Self {
        Self {
            energy_per_transition_pj: PAPER_LINK_ENERGY_PJ,
        }
    }

    /// Banerjee et al.'s link energy.
    #[must_use]
    pub fn banerjee() -> Self {
        Self {
            energy_per_transition_pj: BANERJEE_LINK_ENERGY_PJ,
        }
    }

    /// Aggregate link power in mW for `num_links` links of
    /// `link_width_bits`, where a `toggle_fraction` of wires transition
    /// each cycle at `freq_mhz`.
    #[must_use]
    pub fn link_power_mw(
        &self,
        link_width_bits: u32,
        num_links: usize,
        toggle_fraction: f64,
        freq_mhz: f64,
    ) -> f64 {
        // pJ × MHz = µW; ÷1000 → mW.
        self.energy_per_transition_pj
            * f64::from(link_width_bits)
            * toggle_fraction
            * num_links as f64
            * freq_mhz
            / 1000.0
    }

    /// Power after applying a BT reduction rate (e.g. 0.4085 for the
    /// paper's best DarkNet result).
    #[must_use]
    pub fn reduced_power_mw(base_power_mw: f64, reduction_rate: f64) -> f64 {
        base_power_mw * (1.0 - reduction_rate)
    }

    /// Energy in millijoules for an absolute transition count — converts a
    /// simulated BT sum (Figs. 12–13) into link energy.
    #[must_use]
    pub fn energy_mj(&self, transitions: u64) -> f64 {
        self.energy_per_transition_pj * transitions as f64 * 1e-9
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_link_power_calculation() {
        // 0.173 pJ × 64 toggling bits × 112 links × 125 MHz = 155.008 mW.
        let p = LinkPowerModel::paper().link_power_mw(128, 112, 0.5, 125.0);
        assert!((p - 155.008).abs() < 1e-9, "{p}");
    }

    #[test]
    fn banerjee_link_power_calculation() {
        let p = LinkPowerModel::banerjee().link_power_mw(128, 112, 0.5, 125.0);
        assert!((p - 476.672).abs() < 1e-9, "{p}");
    }

    #[test]
    fn reduction_reproduces_sec_vc_numbers() {
        // "link power is reduced from 155.008 mW to 91.688 mW or from
        // 476.672 mW to 281.951 mW" with the 40.85% reduction.
        let ours = LinkPowerModel::reduced_power_mw(155.008, 0.4085);
        assert!((ours - 91.688).abs() < 0.01, "{ours}");
        let banerjee = LinkPowerModel::reduced_power_mw(476.672, 0.4085);
        assert!((banerjee - 281.951).abs() < 0.02, "{banerjee}");
    }

    #[test]
    fn energy_from_transition_count() {
        let m = LinkPowerModel::paper();
        // 1e9 transitions × 0.173 pJ = 0.173 mJ.
        assert!((m.energy_mj(1_000_000_000) - 0.173).abs() < 1e-12);
    }

    #[test]
    fn power_scales_with_width_and_links() {
        let m = LinkPowerModel::paper();
        let narrow = m.link_power_mw(128, 112, 0.5, 125.0);
        let wide = m.link_power_mw(512, 112, 0.5, 125.0);
        assert!((wide / narrow - 4.0).abs() < 1e-9);
        let fewer = m.link_power_mw(128, 56, 0.5, 125.0);
        assert!((narrow / fewer - 2.0).abs() < 1e-9);
    }
}
