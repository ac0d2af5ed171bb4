//! NoC configuration: mesh geometry, link width, VCs, MC placement.

use crate::fault::FaultConfig;
use btr_core::codec::CodecKind;

/// A node (router) index in row-major order: `id = row * width + col`.
pub type NodeId = usize;

/// Routing algorithm selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RoutingAlgorithm {
    /// X-first dimension-order routing (the paper's configuration).
    XY,
    /// Y-first dimension-order routing (ablation).
    YX,
}

/// Configuration of a 2-D mesh NoC.
///
/// Defaults mirror the paper's setup: "X-Y routing, 4 virtual channels
/// (VCs) with a 4-flit-depth buffer per VC" (Sec. V-B).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NocConfig {
    /// Mesh columns.
    pub width: usize,
    /// Mesh rows.
    pub height: usize,
    /// Link width in bits (512 for 16×float-32, 128 for 16×fixed-8).
    pub link_width_bits: u32,
    /// Number of virtual channels per port.
    pub num_vcs: usize,
    /// Buffer depth (flits) per VC.
    pub vc_buffer_depth: usize,
    /// Routing algorithm.
    pub routing: RoutingAlgorithm,
    /// Memory-controller node positions (the remaining nodes are PEs).
    pub mc_nodes: Vec<NodeId>,
    /// Per-link codec on every directed link (`CodecScope::PerLink`):
    /// each link owns persistent codec state that survives across
    /// packets, encoding payload flits at traversal time and decoding
    /// them at the receiving end. `None` models raw wires — the
    /// per-packet scope, where any coding happened in the transport
    /// before injection.
    pub link_codec: Option<CodecKind>,
    /// Unreliable-wire model: per-link error injection plus the EDC +
    /// retransmission recovery protocol the NIs run. `None` models
    /// perfect wires (the paper's setup).
    pub fault: Option<FaultConfig>,
}

impl NocConfig {
    /// A mesh with the paper's router parameters and no MCs assigned.
    #[must_use]
    pub fn mesh(width: usize, height: usize, link_width_bits: u32) -> Self {
        Self {
            width,
            height,
            link_width_bits,
            num_vcs: 4,
            vc_buffer_depth: 4,
            routing: RoutingAlgorithm::XY,
            mc_nodes: Vec::new(),
            link_codec: None,
            fault: None,
        }
    }

    /// The paper's three NoC-size configurations (Sec. V-B-1):
    /// `4×4 MC2`, `8×8 MC4`, `8×8 MC8`. MCs sit on the left/right edge
    /// columns of evenly spaced rows, matching Fig. 6's edge placement
    /// with external memory links.
    ///
    /// # Panics
    ///
    /// Panics if `mc_count` is odd or zero, or exceeds `2 * height`.
    #[must_use]
    pub fn paper_mesh(width: usize, height: usize, mc_count: usize, link_width_bits: u32) -> Self {
        assert!(
            mc_count > 0 && mc_count.is_multiple_of(2),
            "MC count must be positive and even (left/right edge pairs)"
        );
        assert!(mc_count <= 2 * height, "too many MCs for this mesh height");
        let pairs = mc_count / 2;
        let mut mc_nodes = Vec::with_capacity(mc_count);
        for i in 0..pairs {
            // Evenly spaced rows, e.g. height 4, 1 pair -> row 2;
            // height 8, 2 pairs -> rows 2 and 5.
            let row = ((2 * i + 1) * height) / (2 * pairs);
            mc_nodes.push(row * width); // left edge
            mc_nodes.push(row * width + width - 1); // right edge
        }
        mc_nodes.sort_unstable();
        Self {
            width,
            height,
            link_width_bits,
            num_vcs: 4,
            vc_buffer_depth: 4,
            routing: RoutingAlgorithm::XY,
            mc_nodes,
            link_codec: None,
            fault: None,
        }
    }

    /// The same configuration with persistent per-link codec state on
    /// every directed link (`None` restores raw wires). The link width is
    /// unchanged: callers size it to cover the codec's side-channel
    /// wires, exactly as they do for transport-coded (per-packet) wires.
    #[must_use]
    pub fn with_link_codec(mut self, codec: Option<CodecKind>) -> Self {
        self.link_codec = codec.filter(|c| c.is_stateful());
        self
    }

    /// The same configuration with the unreliable-wire model armed
    /// (`None` restores perfect wires).
    #[must_use]
    pub fn with_fault(mut self, fault: Option<FaultConfig>) -> Self {
        self.fault = fault;
        self
    }

    /// True when wires actually draw errors — fault model present with a
    /// non-zero BER. An armed model at `ber = 0` keeps detection in the
    /// path but this stays `false`, so bit-identity fast paths remain
    /// eligible.
    #[must_use]
    pub fn injects_errors(&self) -> bool {
        self.fault.is_some_and(|f| f.injects_errors())
    }

    /// Total node count.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.width * self.height
    }

    /// `(row, col)` of a node.
    #[must_use]
    pub fn position(&self, node: NodeId) -> (usize, usize) {
        (node / self.width, node % self.width)
    }

    /// Node at `(row, col)`.
    #[must_use]
    pub fn node_at(&self, row: usize, col: usize) -> NodeId {
        row * self.width + col
    }

    /// True if the node is a memory controller.
    #[must_use]
    pub fn is_mc(&self, node: NodeId) -> bool {
        self.mc_nodes.contains(&node)
    }

    /// Processing-element nodes (every node that is not an MC).
    #[must_use]
    pub fn pe_nodes(&self) -> Vec<NodeId> {
        (0..self.num_nodes()).filter(|n| !self.is_mc(*n)).collect()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.width == 0 || self.height == 0 {
            return Err("mesh dimensions must be positive".into());
        }
        if self.link_width_bits == 0 || self.link_width_bits > btr_bits::payload::MAX_WIDTH_BITS {
            return Err(format!(
                "link width must be in 1..={}",
                btr_bits::payload::MAX_WIDTH_BITS
            ));
        }
        if self.num_vcs == 0 {
            return Err("need at least one virtual channel".into());
        }
        if self.vc_buffer_depth == 0 {
            return Err("VC buffers must hold at least one flit".into());
        }
        for &mc in &self.mc_nodes {
            if mc >= self.num_nodes() {
                return Err(format!("MC node {mc} out of range"));
            }
        }
        if let Some(codec) = self.link_codec {
            if !codec.is_stateful() {
                return Err("link_codec must be a stateful codec (or None for raw wires)".into());
            }
            if self.link_width_bits <= codec.extra_wires() {
                return Err(format!(
                    "link width {} leaves no data wires beside the {} codec side-channel wire(s)",
                    self.link_width_bits,
                    codec.extra_wires()
                ));
            }
        }
        if let Some(fault) = &self.fault {
            fault.validate(self.link_width_bits, self.link_codec)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mesh_defaults_match_paper() {
        let c = NocConfig::mesh(4, 4, 512);
        assert_eq!(c.num_vcs, 4);
        assert_eq!(c.vc_buffer_depth, 4);
        assert_eq!(c.routing, RoutingAlgorithm::XY);
        assert_eq!(c.num_nodes(), 16);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn paper_mesh_4x4_mc2() {
        let c = NocConfig::paper_mesh(4, 4, 2, 512);
        // One pair at row 2: nodes 8 and 11 (Fig. 6's placement).
        assert_eq!(c.mc_nodes, vec![8, 11]);
        assert_eq!(c.pe_nodes().len(), 14);
        assert!(c.is_mc(8) && c.is_mc(11) && !c.is_mc(0));
    }

    #[test]
    fn paper_mesh_8x8_mc4_and_mc8() {
        let c4 = NocConfig::paper_mesh(8, 8, 4, 128);
        assert_eq!(c4.mc_nodes.len(), 4);
        // Rows 2 and 6: left/right edges.
        assert_eq!(c4.mc_nodes, vec![16, 23, 48, 55]);
        let c8 = NocConfig::paper_mesh(8, 8, 8, 128);
        assert_eq!(c8.mc_nodes.len(), 8);
        assert_eq!(c8.pe_nodes().len(), 56);
        // All MCs on edge columns.
        for &mc in &c8.mc_nodes {
            let (_, col) = c8.position(mc);
            assert!(col == 0 || col == 7);
        }
    }

    #[test]
    fn link_count_matches_sec_vc() {
        // "112 inter-router links" for an 8×8 NoC (bidirectional pairs).
        // Directed links join the node pairs one hop apart:
        // 2·(2·W·H − W − H).
        let c = NocConfig::mesh(8, 8, 128);
        let n = c.num_nodes();
        let links = (0..n * n)
            .filter(|&k| crate::routing::hop_count(&c, k / n, k % n) == 1)
            .count();
        assert_eq!(links, 224);
        assert_eq!(links / 2, 112);
    }

    #[test]
    fn position_roundtrip() {
        let c = NocConfig::mesh(5, 3, 64);
        for n in 0..c.num_nodes() {
            let (r, col) = c.position(n);
            assert_eq!(c.node_at(r, col), n);
        }
    }

    #[test]
    fn validation_catches_errors() {
        let mut c = NocConfig::mesh(4, 4, 128);
        c.num_vcs = 0;
        assert!(c.validate().is_err());
        let mut c = NocConfig::mesh(4, 4, 128);
        c.mc_nodes = vec![99];
        assert!(c.validate().is_err());
        let c = NocConfig::mesh(0, 4, 128);
        assert!(c.validate().is_err());
        let c = NocConfig::mesh(4, 4, 4096);
        assert!(c.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "positive and even")]
    fn paper_mesh_rejects_odd_mc_count() {
        let _ = NocConfig::paper_mesh(4, 4, 3, 128);
    }

    #[test]
    fn validation_catches_inconsistent_fault_configs() {
        use crate::fault::{BitErrorRate, ErrorModel, FaultConfig, FaultMode};
        use btr_core::edc::EdcKind;
        let armed = ErrorModel {
            ber: BitErrorRate::from_f64(1e-4),
            seed: 9,
            mode: FaultMode::PerFlit,
        };
        // Consistent: CRC-8 frame fills the 136-bit raw link.
        let good = NocConfig::mesh(4, 4, 136).with_fault(Some(FaultConfig::new(armed, 136)));
        assert!(good.validate().is_ok());
        assert!(good.injects_errors());
        // Errors with detection disabled would corrupt silently.
        let mut bad = good.clone();
        bad.fault.as_mut().unwrap().edc = EdcKind::None;
        assert!(bad.validate().unwrap_err().contains("silent"));
        // Errors with no retry budget can never recover.
        let mut bad = good.clone();
        bad.fault.as_mut().unwrap().max_retries = 0;
        assert!(bad.validate().unwrap_err().contains("retry"));
        // Per-link codec requires frame + side channel == link width.
        let coded = NocConfig::mesh(4, 4, 137)
            .with_link_codec(Some(CodecKind::BusInvert))
            .with_fault(Some(FaultConfig::new(armed, 136)));
        assert!(coded.validate().is_ok());
        let mut bad = coded.clone();
        bad.link_width_bits = 140;
        assert!(bad.validate().is_err());
        // Perfect wires with the model armed stay valid and inert.
        let inert = NocConfig::mesh(4, 4, 136)
            .with_fault(Some(FaultConfig::new(ErrorModel::perfect(9), 136)));
        assert!(inert.validate().is_ok());
        assert!(!inert.injects_errors());
    }
}
