//! Gate-equivalent area models.
//!
//! Component structure follows the actual designs: the ordering unit
//! (Fig. 14) is a bank of SWAR pop-count adder trees, an iterative
//! compare-exchange stage, and value registers; the router is dominated by
//! its VC buffers plus a crossbar and allocators. Technology constants are
//! generic-process estimates; each block carries a **calibration factor
//! computed so the paper's design point reproduces Table II exactly**, and
//! the model extrapolates from there.

/// Technology constants (per-cell gate-equivalents) plus the Table II
/// calibration targets.
#[derive(Debug, Clone, PartialEq)]
pub struct Technology {
    /// Process name.
    pub name: &'static str,
    /// GE per full adder.
    pub ge_per_full_adder: f64,
    /// GE per flip-flop bit.
    pub ge_per_flipflop: f64,
    /// GE per 2:1 mux bit.
    pub ge_per_mux_bit: f64,
    /// GE per comparator bit.
    pub ge_per_comparator_bit: f64,
    /// Fixed control/FSM overhead per block, GE.
    pub control_overhead_ge: f64,
    /// Table II target: ordering unit area (kGE) at the paper design point.
    pub ordering_unit_target_kge: f64,
    /// Table II target: ordering unit power (mW) at 125 MHz.
    pub ordering_unit_target_mw: f64,
    /// Table II target: router area (kGE) at the paper design point.
    pub router_target_kge: f64,
    /// Table II target: router power (mW) at 125 MHz.
    pub router_target_mw: f64,
    /// Table II frequency (MHz).
    pub frequency_mhz: f64,
    /// Supply voltage (V).
    pub voltage: f64,
}

impl Technology {
    /// TSMC 90 nm constants calibrated against the paper's Table II.
    #[must_use]
    pub fn tsmc90() -> Self {
        Self {
            name: "TSMC 90nm",
            ge_per_full_adder: 6.0,
            ge_per_flipflop: 6.0,
            ge_per_mux_bit: 2.5,
            ge_per_comparator_bit: 3.0,
            control_overhead_ge: 500.0,
            ordering_unit_target_kge: 12.91,
            ordering_unit_target_mw: 2.213,
            router_target_kge: 125.54,
            // Table II reports 16.92 mW per router but 1083.18 mW for 64
            // routers; the unrounded per-router value is 1083.18 / 64.
            router_target_mw: 1083.18 / 64.0,
            frequency_mhz: 125.0,
            voltage: 1.0,
        }
    }

    /// Calibration multiplier mapping the raw ordering-unit estimate onto
    /// the synthesized Table II value.
    #[must_use]
    pub fn ordering_calibration(&self) -> f64 {
        self.ordering_unit_target_kge / OrderingUnitDesign::paper_default().raw_area_kge(self)
    }

    /// Calibration multiplier for the router estimate.
    #[must_use]
    pub fn router_calibration(&self) -> f64 {
        self.router_target_kge / RouterDesign::paper_default().raw_area_kge(self)
    }
}

/// Sorting-network implementation style in the ordering unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SorterNetwork {
    /// One odd-even stage of `N/2` compare-exchange cells reused for `N`
    /// iterations (the area-lean "bubble sort" of Fig. 14).
    BubbleIterative,
    /// Fully pipelined odd-even transposition: `N` stages of cells.
    TranspositionPipelined,
    /// Pipelined Batcher bitonic network: `log²` stages.
    Bitonic,
}

impl SorterNetwork {
    /// All styles for ablation sweeps.
    pub const ALL: [SorterNetwork; 3] = [
        SorterNetwork::BubbleIterative,
        SorterNetwork::TranspositionPipelined,
        SorterNetwork::Bitonic,
    ];

    /// Physical compare-exchange cell count for `n` sorted values.
    #[must_use]
    pub fn cell_count(self, n: usize) -> usize {
        match self {
            SorterNetwork::BubbleIterative => n / 2,
            SorterNetwork::TranspositionPipelined => {
                // n stages alternating ceil((n-1)/2)+ and floor variants.
                (0..n).map(|s| (n - (s % 2)) / 2).sum()
            }
            SorterNetwork::Bitonic => {
                let p = n.next_power_of_two();
                let stages = stages_bitonic(p);
                stages * p / 2
            }
        }
    }

    /// Sort latency in cycles for `n` values.
    #[must_use]
    pub fn latency_cycles(self, n: usize) -> u32 {
        match self {
            SorterNetwork::BubbleIterative | SorterNetwork::TranspositionPipelined => n as u32,
            SorterNetwork::Bitonic => stages_bitonic(n.next_power_of_two()) as u32,
        }
    }
}

fn stages_bitonic(p: usize) -> usize {
    if p < 2 {
        return 0;
    }
    let log = p.trailing_zeros() as usize;
    log * (log + 1) / 2
}

/// Parametric ordering-unit design (Fig. 14).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderingUnitDesign {
    /// Values sorted per operation (one flit line worth).
    pub values: usize,
    /// Word width in bits.
    pub word_bits: u32,
    /// Sorting network style.
    pub sorter: SorterNetwork,
}

impl OrderingUnitDesign {
    /// The synthesized design point: 16 float-32 values, bubble sort.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            values: 16,
            word_bits: 32,
            sorter: SorterNetwork::BubbleIterative,
        }
    }

    /// Popcount key width: `ceil(log2(word_bits + 1))`.
    #[must_use]
    pub fn key_bits(&self) -> u32 {
        u32::BITS - self.word_bits.leading_zeros()
    }

    /// Raw (uncalibrated) area estimate in kGE.
    #[must_use]
    pub fn raw_area_kge(&self, tech: &Technology) -> f64 {
        let w = f64::from(self.word_bits);
        let key = f64::from(self.key_bits());
        let n = self.values as f64;
        // SWAR popcount tree per value lane: ~(w − 1) full adders.
        let popcount = n * (w - 1.0) * tech.ge_per_full_adder;
        // One compare-exchange cell: key comparator + swap muxes over
        // (word + key) bits on both outputs.
        let ce_cell = key * tech.ge_per_comparator_bit + 2.0 * (w + key) * tech.ge_per_mux_bit;
        let sorter = self.sorter.cell_count(self.values) as f64 * ce_cell;
        // Value + key registers.
        let regs = n * (w + key) * tech.ge_per_flipflop;
        (popcount + sorter + regs + tech.control_overhead_ge) / 1000.0
    }

    /// Calibrated area in kGE (matches Table II at the paper design point).
    #[must_use]
    pub fn area_kge(&self, tech: &Technology) -> f64 {
        self.raw_area_kge(tech) * tech.ordering_calibration()
    }

    /// Dynamic power in mW at `freq_mhz`, scaled from the Table II
    /// power/area density of the synthesized unit.
    #[must_use]
    pub fn power_mw(&self, tech: &Technology, freq_mhz: f64) -> f64 {
        let density = tech.ordering_unit_target_mw / tech.ordering_unit_target_kge;
        self.area_kge(tech) * density * (freq_mhz / tech.frequency_mhz)
    }

    /// End-to-end ordering latency in cycles (popcount tree + sort).
    #[must_use]
    pub fn latency_cycles(&self) -> u32 {
        let popcount_stages = self.word_bits.next_power_of_two().trailing_zeros();
        popcount_stages + self.sorter.latency_cycles(self.values)
    }
}

/// Parametric VC router design.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterDesign {
    /// Port count (5 for a mesh router).
    pub ports: usize,
    /// Virtual channels per port.
    pub vcs: usize,
    /// Buffer depth (flits) per VC.
    pub buffer_depth: usize,
    /// Link width in bits.
    pub link_width_bits: u32,
}

impl RouterDesign {
    /// The synthesized design point: 5 ports, 4 VCs × 4 flits, 128-bit.
    #[must_use]
    pub fn paper_default() -> Self {
        Self {
            ports: 5,
            vcs: 4,
            buffer_depth: 4,
            link_width_bits: 128,
        }
    }

    /// Raw (uncalibrated) area estimate in kGE.
    #[must_use]
    pub fn raw_area_kge(&self, tech: &Technology) -> f64 {
        let w = f64::from(self.link_width_bits);
        let p = self.ports as f64;
        // Input buffers dominate: ports × vcs × depth × width flip-flops.
        let buffers = p * self.vcs as f64 * self.buffer_depth as f64 * w * tech.ge_per_flipflop;
        // Crossbar: per output, a p:1 mux over the link width
        // ((p − 1) 2:1 muxes per bit).
        let crossbar = p * (p - 1.0) * w * tech.ge_per_mux_bit;
        // VC + switch allocators: arbiter cells scale with (p·v)².
        let arbiters = (p * self.vcs as f64).powi(2) * 4.0;
        (buffers + crossbar + arbiters + tech.control_overhead_ge) / 1000.0
    }

    /// Calibrated area in kGE.
    #[must_use]
    pub fn area_kge(&self, tech: &Technology) -> f64 {
        self.raw_area_kge(tech) * tech.router_calibration()
    }

    /// Dynamic power in mW at `freq_mhz`.
    #[must_use]
    pub fn power_mw(&self, tech: &Technology, freq_mhz: f64) -> f64 {
        let density = tech.router_target_mw / tech.router_target_kge;
        self.area_kge(tech) * density * (freq_mhz / tech.frequency_mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibrated_ordering_unit_matches_table2() {
        let tech = Technology::tsmc90();
        let unit = OrderingUnitDesign::paper_default();
        assert!((unit.area_kge(&tech) - 12.91).abs() < 1e-9);
        assert!((unit.power_mw(&tech, 125.0) - 2.213).abs() < 1e-9);
    }

    #[test]
    fn calibrated_router_matches_table2() {
        let tech = Technology::tsmc90();
        let router = RouterDesign::paper_default();
        assert!((router.area_kge(&tech) - 125.54).abs() < 1e-9);
        // Table II prints the rounded 16.92; the model carries the
        // unrounded 1083.18/64.
        assert!((router.power_mw(&tech, 125.0) - 16.92).abs() < 5e-3);
    }

    #[test]
    fn unit_is_an_order_of_magnitude_smaller_than_router() {
        // The paper's headline overhead claim: ~12.91 kGE vs 125.54 kGE.
        let tech = Technology::tsmc90();
        let ratio = RouterDesign::paper_default().area_kge(&tech)
            / OrderingUnitDesign::paper_default().area_kge(&tech);
        assert!(ratio > 9.0, "ratio {ratio}");
    }

    #[test]
    fn area_scales_with_values() {
        let tech = Technology::tsmc90();
        let small = OrderingUnitDesign {
            values: 8,
            ..OrderingUnitDesign::paper_default()
        };
        let big = OrderingUnitDesign {
            values: 32,
            ..OrderingUnitDesign::paper_default()
        };
        assert!(small.area_kge(&tech) < big.area_kge(&tech));
    }

    #[test]
    fn fx8_unit_is_smaller_than_f32_unit() {
        let tech = Technology::tsmc90();
        let fx8 = OrderingUnitDesign {
            word_bits: 8,
            ..OrderingUnitDesign::paper_default()
        };
        assert!(fx8.area_kge(&tech) < OrderingUnitDesign::paper_default().area_kge(&tech));
        assert_eq!(fx8.key_bits(), 4); // counts 0..=8
    }

    #[test]
    fn sorter_cell_counts() {
        assert_eq!(SorterNetwork::BubbleIterative.cell_count(16), 8);
        // 16 stages alternating 8 and 7 cells.
        assert_eq!(SorterNetwork::TranspositionPipelined.cell_count(16), 120);
        // Bitonic: 10 stages x 8 = 80.
        assert_eq!(SorterNetwork::Bitonic.cell_count(16), 80);
    }

    #[test]
    fn sorter_latencies() {
        assert_eq!(SorterNetwork::BubbleIterative.latency_cycles(16), 16);
        assert_eq!(SorterNetwork::Bitonic.latency_cycles(16), 10);
        let unit = OrderingUnitDesign::paper_default();
        assert_eq!(unit.latency_cycles(), 5 + 16); // 5 SWAR stages + sort
    }

    #[test]
    fn bubble_is_the_smallest_network() {
        let tech = Technology::tsmc90();
        let areas: Vec<f64> = SorterNetwork::ALL
            .iter()
            .map(|&s| {
                OrderingUnitDesign {
                    sorter: s,
                    ..OrderingUnitDesign::paper_default()
                }
                .area_kge(&tech)
            })
            .collect();
        assert!(areas[0] < areas[1] && areas[0] < areas[2]);
    }

    #[test]
    fn power_scales_linearly_with_frequency() {
        let tech = Technology::tsmc90();
        let unit = OrderingUnitDesign::paper_default();
        let p125 = unit.power_mw(&tech, 125.0);
        let p250 = unit.power_mw(&tech, 250.0);
        assert!((p250 / p125 - 2.0).abs() < 1e-9);
    }
}
