//! Accelerator configuration.

use btr_bits::word::DataFormat;
use btr_core::codec::{CodecKind, CodecScope, ResyncPolicy};
use btr_core::edc::EdcKind;
use btr_core::ordering::TieBreak;
use btr_core::OrderingMethod;
use btr_noc::analytic::EngineMode;
use btr_noc::config::NocConfig;
use btr_noc::fault::{ErrorModel, FaultConfig};

/// Which MC-side encode path the driver runs in the cycle loop.
///
/// Both modes are bit-exact with each other (pinned by
/// `tests/driver_parity.rs`): the injection sequence, per-link bit
/// transitions, cycle counts and recovered MACs are identical. They only
/// differ in wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DriverMode {
    /// The pre-pipeline reference: encode each task inline in the
    /// prefetch loop — full per-task sort, fresh scratch, serialized
    /// with `sim.step()`. Kept faithful to the original driver so the
    /// bench trajectory and the parity tests always have that behavior to
    /// compare against.
    Synchronous,
    /// The cached encode stage, inline in the cycle loop: weight flit
    /// templates cached per kernel group for the session's lifetime,
    /// scratch buffers reused per layer.
    #[default]
    Pipelined,
}

impl DriverMode {
    /// Short label (`"sync"` / `"pipelined"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DriverMode::Synchronous => "sync",
            DriverMode::Pipelined => "pipelined",
        }
    }
}

impl std::fmt::Display for DriverMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Full configuration of a NOC-DNA run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccelConfig {
    /// The NoC (mesh size, MCs, link width, VCs).
    pub noc: NocConfig,
    /// Payload data format.
    pub format: DataFormat,
    /// Data transmission ordering (O0/O1/O2).
    pub ordering: OrderingMethod,
    /// Link-coding backend on every link (the NoC link width covers the
    /// codec's extra wires; see [`AccelConfig::with_codec`]).
    pub codec: CodecKind,
    /// Where the codec state lives: re-seeded per packet by the MC-side
    /// transport ([`CodecScope::PerPacket`], the bit-exact reference), or
    /// owned by each directed NoC link and persistent across packets,
    /// batches and layers ([`CodecScope::PerLink`]; see
    /// [`AccelConfig::with_codec_scope`], which keeps
    /// [`NocConfig::link_codec`] in sync).
    pub codec_scope: CodecScope,
    /// Per-flit error-detecting code stamped into every payload frame by
    /// the MC-side transport and checked by the receiving NI. Its check
    /// field rides on extra link wires beside the data, like the codec
    /// side channel (see [`AccelConfig::with_edc`], which re-derives the
    /// link width).
    pub edc: EdcKind,
    /// Popcount-tie handling in the ordering unit (`Stable` = the paper's
    /// popcount-only comparator; `Value` = wider comparator sensitivity
    /// variant, see EXPERIMENTS.md).
    pub tiebreak: TieBreak,
    /// Quantize fixed-8 weights with a global Q0.7 scale instead of
    /// per-tensor max-abs (sensitivity variant; activations stay
    /// per-tensor either way).
    pub global_fx8_weights: bool,
    /// Word lanes per flit (the paper uses 16: 8 inputs + 8 weights).
    pub values_per_flit: usize,
    /// Fixed PE pipeline latency before MACs start.
    pub pe_base_latency: u64,
    /// MAC lanes per PE cycle (task latency adds
    /// `ceil(pairs / pe_mac_lanes)` cycles).
    pub pe_mac_lanes: usize,
    /// Per-MC injection-queue cap in packets (models the prefetch buffer).
    pub mc_prefetch_packets: usize,
    /// Abort threshold per layer (simulation-stall guard).
    pub max_cycles_per_layer: u64,
    /// How MC-side encoding is scheduled against the cycle loop.
    pub driver: DriverMode,
    /// Which engine evaluates each layer's traffic phases:
    /// [`EngineMode::Cycle`] steps the full cycle-accurate mesh (the
    /// reference), [`EngineMode::Auto`] streams a layer's request phase
    /// through the analytic engine only when that is provably invisible
    /// and is always bit-identical to `Cycle` on BTs, codec states and
    /// outputs (see [`btr_noc::analytic`]).
    pub engine: EngineMode,
    /// Inputs per traffic phase: every conv/linear layer runs the whole
    /// batch's tasks as one phase, so weights are ordered once per kernel
    /// (not once per input) and the mesh stays full across inputs.
    pub batch_size: usize,
}

impl AccelConfig {
    /// The paper's configuration for a `width×height` mesh with `mc_count`
    /// memory controllers: 16 values per flit, hence a 512-bit link for
    /// float-32 or a 128-bit link for fixed-8 (Sec. V-B).
    #[must_use]
    pub fn paper(
        width: usize,
        height: usize,
        mc_count: usize,
        format: DataFormat,
        ordering: OrderingMethod,
    ) -> Self {
        let values_per_flit = 16;
        let link_width = values_per_flit as u32 * format.bits_per_value();
        Self {
            noc: NocConfig::paper_mesh(width, height, mc_count, link_width),
            format,
            ordering,
            codec: CodecKind::Unencoded,
            codec_scope: CodecScope::PerPacket,
            edc: EdcKind::None,
            tiebreak: TieBreak::Stable,
            global_fx8_weights: false,
            values_per_flit,
            pe_base_latency: 4,
            pe_mac_lanes: 16,
            mc_prefetch_packets: 16,
            max_cycles_per_layer: 50_000_000,
            driver: DriverMode::Pipelined,
            engine: EngineMode::Cycle,
            batch_size: 1,
        }
    }

    /// The same configuration with a different link codec, the NoC link
    /// width re-derived to cover the codec's side-channel wires (one
    /// extra invert-line wire for bus-invert) beside any EDC check field,
    /// and the NoC's per-link codec kept in sync with the current scope.
    #[must_use]
    pub fn with_codec(mut self, codec: CodecKind) -> Self {
        self.codec = codec;
        self.sync_wire_geometry();
        self
    }

    /// The same configuration with a different per-flit EDC, the NoC
    /// link width re-derived to carry the check field's extra wires (one
    /// for parity, eight for CRC-8) beside the data and any codec side
    /// channel, and any armed fault configuration's protected frame kept
    /// in sync.
    #[must_use]
    pub fn with_edc(mut self, edc: EdcKind) -> Self {
        self.edc = edc;
        self.sync_wire_geometry();
        self
    }

    /// Arms the unreliable-link model: wires draw errors from `errors`,
    /// the NI retransmits NACKed packets under `resync` with a
    /// `max_retries` budget. If no EDC is configured yet, CRC-8 is
    /// enabled (detection is mandatory beside a non-zero BER — see
    /// [`FaultConfig::validate`]) and the link width re-derived.
    #[must_use]
    pub fn with_fault(
        mut self,
        errors: ErrorModel,
        resync: ResyncPolicy,
        max_retries: u32,
    ) -> Self {
        if self.edc == EdcKind::None && !errors.ber.is_zero() {
            self.edc = EdcKind::Crc8;
        }
        let mut fault = FaultConfig::new(errors, 0);
        fault.resync = resync;
        fault.max_retries = max_retries;
        self.noc.fault = Some(fault);
        self.sync_wire_geometry();
        self
    }

    /// The same configuration with a different codec scope:
    /// [`CodecScope::PerLink`] moves the codec (and its state) onto the
    /// NoC links, where it persists across packets, batches and layers;
    /// [`CodecScope::PerPacket`] restores the transport-side per-packet
    /// codec. The link width is scope-independent — the side-channel
    /// wires exist on the physical link either way.
    #[must_use]
    pub fn with_codec_scope(mut self, scope: CodecScope) -> Self {
        self.codec_scope = scope;
        self.sync_link_codec();
        self
    }

    /// The [`NocConfig::link_codec`] implied by `(codec, codec_scope)`:
    /// links own state exactly when the scope is per-link and the codec
    /// is stateful. The one derivation both [`AccelConfig::with_codec`] /
    /// [`AccelConfig::with_codec_scope`] and [`AccelConfig::validate`]
    /// use, so they cannot drift.
    fn derived_link_codec(&self) -> Option<CodecKind> {
        match self.codec_scope {
            CodecScope::PerLink => Some(self.codec).filter(|c| c.is_stateful()),
            CodecScope::PerPacket => None,
        }
    }

    fn sync_link_codec(&mut self) {
        self.noc.link_codec = self.derived_link_codec();
    }

    /// Protected frame width: data lanes plus the EDC check field —
    /// everything below the codec side channel.
    fn frame_wires(&self) -> u32 {
        self.values_per_flit as u32 * self.format.bits_per_value() + self.edc.extra_wires()
    }

    /// Re-derives every geometry value downstream of `(format,
    /// values_per_flit, codec, codec_scope, edc)`: the physical link
    /// width, the NoC's per-link codec, and an armed fault config's
    /// protected-frame width and EDC kind.
    fn sync_wire_geometry(&mut self) {
        let frame = self.frame_wires();
        self.noc.link_width_bits = frame + self.codec.extra_wires();
        self.sync_link_codec();
        if let Some(fault) = &mut self.noc.fault {
            fault.edc = self.edc;
            fault.frame_wires = frame;
        }
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        self.noc.validate()?;
        if self.values_per_flit < 2 || !self.values_per_flit.is_multiple_of(2) {
            return Err("values_per_flit must be even and >= 2".into());
        }
        let needed = self.frame_wires() + self.codec.extra_wires();
        if needed != self.noc.link_width_bits {
            return Err(format!(
                "link width {} does not match {} x {} + {} EDC wires + {} codec wires = \
                 {needed} bits",
                self.noc.link_width_bits,
                self.values_per_flit,
                self.format.bits_per_value(),
                self.edc.extra_wires(),
                self.codec.extra_wires()
            ));
        }
        if let Some(fault) = &self.noc.fault {
            if fault.edc != self.edc {
                return Err(format!(
                    "fault config carries EDC {} but the accelerator stamps {} (use with_edc)",
                    fault.edc, self.edc
                ));
            }
            if fault.frame_wires != self.frame_wires() {
                return Err(format!(
                    "fault frame of {} wire(s) does not match the {}-wire data + EDC frame",
                    fault.frame_wires,
                    self.frame_wires()
                ));
            }
        } else if self.edc != EdcKind::None {
            return Err(format!(
                "EDC {} is stamped but no fault config consumes it (use with_fault, or \
                 with_fault at ber 0 to measure pure EDC overhead)",
                self.edc
            ));
        }
        if self.noc.link_codec != self.derived_link_codec() {
            return Err(format!(
                "noc.link_codec {:?} does not match codec {} at {} scope (use with_codec_scope)",
                self.noc.link_codec, self.codec, self.codec_scope
            ));
        }
        if self.noc.mc_nodes.is_empty() {
            return Err("accelerator needs at least one memory controller".into());
        }
        if self.noc.pe_nodes().is_empty() {
            return Err("accelerator needs at least one processing element".into());
        }
        let regions = crate::driver::partition_pes_by_mc(&self.noc);
        if let Some(mi) = regions.iter().position(Vec::is_empty) {
            return Err(format!(
                "memory controller at node {} has no processing element in its region",
                self.noc.mc_nodes[mi]
            ));
        }
        if self.pe_mac_lanes == 0 {
            return Err("pe_mac_lanes must be positive".into());
        }
        if self.mc_prefetch_packets == 0 {
            return Err("mc_prefetch_packets must be positive".into());
        }
        if self.batch_size == 0 {
            return Err("batch_size must be positive".into());
        }
        Ok(())
    }

    /// PE compute latency for a task of `pairs` operand pairs.
    #[must_use]
    pub fn pe_latency(&self, pairs: usize) -> u64 {
        self.pe_base_latency + pairs.div_ceil(self.pe_mac_lanes) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_valid() {
        for (w, h, mc) in [(4, 4, 2), (8, 8, 4), (8, 8, 8)] {
            for format in [DataFormat::Float32, DataFormat::Fixed8] {
                for ordering in OrderingMethod::ALL {
                    let c = AccelConfig::paper(w, h, mc, format, ordering);
                    assert!(c.validate().is_ok(), "{w}x{h} MC{mc} {format} {ordering}");
                }
            }
        }
    }

    #[test]
    fn link_widths_match_paper() {
        let f32c = AccelConfig::paper(4, 4, 2, DataFormat::Float32, OrderingMethod::Baseline);
        assert_eq!(f32c.noc.link_width_bits, 512);
        let fx8c = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Baseline);
        assert_eq!(fx8c.noc.link_width_bits, 128);
    }

    #[test]
    fn with_codec_rederives_the_link_width() {
        for format in [DataFormat::Float32, DataFormat::Fixed8] {
            let base = AccelConfig::paper(4, 4, 2, format, OrderingMethod::Separated);
            for codec in CodecKind::ALL {
                let c = base.clone().with_codec(codec);
                assert!(c.validate().is_ok(), "{format} {codec}");
                assert_eq!(
                    c.noc.link_width_bits,
                    16 * format.bits_per_value() + codec.extra_wires()
                );
            }
        }
        // A codec mismatch without the width bump is caught.
        let mut c = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Baseline);
        c.codec = CodecKind::BusInvert;
        assert!(c.validate().unwrap_err().contains("codec wires"));
    }

    #[test]
    fn validation_catches_mismatched_link() {
        let mut c = AccelConfig::paper(4, 4, 2, DataFormat::Float32, OrderingMethod::Baseline);
        c.noc.link_width_bits = 128;
        assert!(c.validate().unwrap_err().contains("does not match"));
    }

    #[test]
    fn validation_requires_mcs() {
        let mut c = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Baseline);
        c.noc.mc_nodes.clear();
        assert!(c.validate().is_err());
        // 3x1 MC2: MCs at both ends share the one PE, so the second MC's
        // region is empty — a typed error, not a divide-by-zero in the
        // task assignment.
        let c = AccelConfig::paper(3, 1, 2, DataFormat::Fixed8, OrderingMethod::Baseline);
        assert!(c.validate().unwrap_err().contains("no processing element"));
    }

    #[test]
    fn pe_latency_model() {
        let c = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Baseline);
        assert_eq!(c.pe_latency(25), 4 + 2); // ceil(25/16) = 2
        assert_eq!(c.pe_latency(400), 4 + 25);
        assert_eq!(c.pe_latency(1), 5);
    }
}
