//! System-level power aggregation: ordering units vs routers.
//!
//! The paper's overhead argument (Sec. IV-C-2, Table II): the ordering-unit
//! count equals the MC count and is much smaller than the router count —
//! "four units in an 8×8 NoC containing 64 routers" — so the added power is
//! marginal next to the NoC itself.

use crate::area::{OrderingUnitDesign, RouterDesign, Technology};

/// Power budget of a NoC deployment with ordering units at the MCs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeploymentPower {
    /// Power of one ordering unit (mW).
    pub unit_mw: f64,
    /// Power of all ordering units (mW).
    pub units_total_mw: f64,
    /// Power of one router (mW).
    pub router_mw: f64,
    /// Power of all routers (mW).
    pub routers_total_mw: f64,
}

impl DeploymentPower {
    /// Computes the budget for `num_units` ordering units (one per MC) and
    /// `num_routers` routers at `freq_mhz`.
    #[must_use]
    pub fn compute(
        unit: &OrderingUnitDesign,
        router: &RouterDesign,
        tech: &Technology,
        num_units: usize,
        num_routers: usize,
        freq_mhz: f64,
    ) -> Self {
        let unit_mw = unit.power_mw(tech, freq_mhz);
        let router_mw = router.power_mw(tech, freq_mhz);
        Self {
            unit_mw,
            units_total_mw: unit_mw * num_units as f64,
            router_mw,
            routers_total_mw: router_mw * num_routers as f64,
        }
    }

    /// Ordering-unit power as a fraction of router power.
    #[must_use]
    pub fn overhead_fraction(&self) -> f64 {
        if self.routers_total_mw == 0.0 {
            0.0
        } else {
            self.units_total_mw / self.routers_total_mw
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_deployment_numbers() {
        // "Four units consume 8.852 mW total power, while 64 routers
        // consume 1083.18 mW" (8×8 NoC, 4 MCs).
        let tech = Technology::tsmc90();
        let d = DeploymentPower::compute(
            &OrderingUnitDesign::paper_default(),
            &RouterDesign::paper_default(),
            &tech,
            4,
            64,
            125.0,
        );
        assert!(
            (d.units_total_mw - 8.852).abs() < 1e-9,
            "{}",
            d.units_total_mw
        );
        assert!(
            (d.routers_total_mw - 1083.18).abs() < 0.01,
            "{}",
            d.routers_total_mw
        );
        // Under 1% overhead.
        assert!(d.overhead_fraction() < 0.01, "{}", d.overhead_fraction());
    }

    #[test]
    fn overhead_fraction_handles_zero() {
        let d = DeploymentPower {
            unit_mw: 1.0,
            units_total_mw: 1.0,
            router_mw: 0.0,
            routers_total_mw: 0.0,
        };
        assert_eq!(d.overhead_fraction(), 0.0);
    }
}
