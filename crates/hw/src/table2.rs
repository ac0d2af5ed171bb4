//! Regenerates Table II: "Synthesis Results of Ordering Unit and Router".

use crate::area::{OrderingUnitDesign, RouterDesign, Technology};

/// The contents of Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct Table2 {
    /// Technology name.
    pub technology: &'static str,
    /// Frequency (MHz).
    pub frequency_mhz: f64,
    /// Voltage (V).
    pub voltage: f64,
    /// One ordering unit's power (mW).
    pub unit_power_mw: f64,
    /// Four ordering units' power (mW).
    pub four_units_power_mw: f64,
    /// One router's power (mW).
    pub router_power_mw: f64,
    /// 64 routers' power (mW).
    pub routers64_power_mw: f64,
    /// One ordering unit's area (kGE).
    pub unit_area_kge: f64,
    /// Four ordering units' area (kGE).
    pub four_units_area_kge: f64,
    /// One router's area (kGE).
    pub router_area_kge: f64,
    /// 64 routers' area (kGE).
    pub routers64_area_kge: f64,
}

impl Table2 {
    /// Generates the table from the calibrated models.
    #[must_use]
    pub fn generate(tech: &Technology) -> Self {
        let unit = OrderingUnitDesign::paper_default();
        let router = RouterDesign::paper_default();
        let f = tech.frequency_mhz;
        Self {
            technology: tech.name,
            frequency_mhz: f,
            voltage: tech.voltage,
            unit_power_mw: unit.power_mw(tech, f),
            four_units_power_mw: 4.0 * unit.power_mw(tech, f),
            router_power_mw: router.power_mw(tech, f),
            routers64_power_mw: 64.0 * router.power_mw(tech, f),
            unit_area_kge: unit.area_kge(tech),
            four_units_area_kge: 4.0 * unit.area_kge(tech),
            router_area_kge: router.area_kge(tech),
            routers64_area_kge: 64.0 * router.area_kge(tech),
        }
    }
}

impl std::fmt::Display for Table2 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "TABLE II: Synthesis Results of Ordering Unit and Router")?;
        writeln!(
            f,
            "{:<22} {:>14} {:>14}",
            "Metric", "Ordering Unit", "Routers"
        )?;
        writeln!(
            f,
            "{:<22} {:>14} {:>14}",
            "Technology", self.technology, self.technology
        )?;
        writeln!(
            f,
            "{:<22} {:>14} {:>14}",
            "Frequency (MHz)", self.frequency_mhz, self.frequency_mhz
        )?;
        writeln!(
            f,
            "{:<22} {:>14} {:>14}",
            "Voltage (V)", self.voltage, self.voltage
        )?;
        writeln!(
            f,
            "{:<22} {:>6.3} / {:>6.3} {:>6.2} / {:>7.2}",
            "Power (mW) 1x / Nx",
            self.unit_power_mw,
            self.four_units_power_mw,
            self.router_power_mw,
            self.routers64_power_mw
        )?;
        writeln!(
            f,
            "{:<22} {:>6.2} / {:>6.2} {:>6.2} / {:>7.2}",
            "Area (kGE) 1x / Nx",
            self.unit_area_kge,
            self.four_units_area_kge,
            self.router_area_kge,
            self.routers64_area_kge
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_paper_values() {
        let t = Table2::generate(&Technology::tsmc90());
        assert!((t.unit_power_mw - 2.213).abs() < 1e-6);
        assert!((t.four_units_power_mw - 8.852).abs() < 1e-6);
        assert!((t.router_power_mw - 16.92).abs() < 5e-3);
        assert!((t.routers64_power_mw - 1083.18).abs() < 1e-2);
        assert!((t.unit_area_kge - 12.91).abs() < 1e-6);
        assert!((t.four_units_area_kge - 51.64).abs() < 1e-6);
        assert!((t.router_area_kge - 125.54).abs() < 1e-6);
        assert!((t.routers64_area_kge - 8034.56).abs() < 1e-2);
    }

    #[test]
    fn display_renders_all_rows() {
        let s = Table2::generate(&Technology::tsmc90()).to_string();
        assert!(s.contains("TSMC 90nm"));
        assert!(s.contains("125"));
        assert!(s.contains("12.91"));
        assert!(s.contains("Power"));
    }
}
