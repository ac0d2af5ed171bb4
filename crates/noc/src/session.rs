//! NoC injection over the shared transport pipeline.
//!
//! [`TaskPort`] binds a [`CodedTransport`] (the MC-side ordering unit +
//! link codec + PE-side recovery logic from `btr_core::transport`) to the
//! mesh simulator: tasks are encoded once by the session, injected as
//! [`Packet`]s carrying the *coded* wire images — so every per-link
//! transition recorder in the simulator observes the coded wire,
//! including any codec side-channel wires the link width covers — and
//! decoded bit-exactly off the delivered images. The accelerator driver
//! and the standalone NoC harnesses both go through this port, so
//! flitization/codec/recovery logic exists exactly once.
//!
//! # Example
//!
//! ```
//! use btr_core::ordering::OrderingMethod;
//! use btr_core::task::NeuronTask;
//! use btr_core::transport::{CodedTransport, TransportConfig};
//! use btr_bits::word::Fx8Word;
//! use btr_noc::config::NocConfig;
//! use btr_noc::session::TaskPort;
//! use btr_noc::sim::Simulator;
//!
//! let mut sim = Simulator::new(NocConfig::mesh(4, 4, 128));
//! let port = TaskPort::new(CodedTransport::new(TransportConfig::new(
//!     OrderingMethod::Separated,
//!     16,
//! )));
//! let inputs: Vec<Fx8Word> = (1..=9).map(Fx8Word::new).collect();
//! let weights: Vec<Fx8Word> = (-4..=4).map(Fx8Word::new).collect();
//! let task = NeuronTask::new(inputs, weights, Fx8Word::new(1)).unwrap();
//!
//! let meta = port.send_task(&mut sim, 0, 15, &task, 7).unwrap();
//! sim.run_until_idle(10_000).unwrap();
//! let delivered = sim.drain_delivered(15).pop().unwrap();
//! let recovered = port.receive_task(&meta, &delivered).unwrap();
//! assert_eq!(recovered.mac_i64(), task.mac_i64());
//! ```

use crate::fault::FaultConfig;
use crate::packet::Packet;
use crate::sim::{DeliveredPacket, InjectError, Simulator};
use btr_bits::payload::PayloadBits;
use btr_bits::slab::FlitRows;
use btr_bits::word::DataWord;
use btr_core::codec::ResyncPolicy;
use btr_core::flitize::FlitizeError;
use btr_core::task::{NeuronTask, RecoveredTask};
use btr_core::transport::{CodedTransport, EncodedTask, TaskWireMeta, TransportError};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::Mutex;

/// Errors from [`TaskPort::send_task`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SendError {
    /// Ordering / flitization failed (geometry).
    Encode(FlitizeError),
    /// The simulator rejected the packet.
    Inject(InjectError),
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Encode(e) => write!(f, "task encode failed: {e}"),
            SendError::Inject(e) => write!(f, "injection failed: {e}"),
        }
    }
}

impl std::error::Error for SendError {}

impl From<FlitizeError> for SendError {
    fn from(e: FlitizeError) -> Self {
        SendError::Encode(e)
    }
}

impl From<InjectError> for SendError {
    fn from(e: InjectError) -> Self {
        SendError::Inject(e)
    }
}

/// One in-flight packet the sending NI keeps a copy of until the
/// receiver acknowledges it — the replay buffer of the retransmission
/// protocol.
#[derive(Debug, Clone)]
struct RetainedPacket {
    payload: Vec<PayloadBits>,
    retries: u32,
}

/// Cumulative recovery-protocol accounting, drained by
/// [`TaskPort::take_fault_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortFaultStats {
    /// Payload flits re-sent across all retransmissions (head flits are
    /// re-sent too but modeled as protected control, so they are not
    /// counted here; callers add one per retransmission if they charge
    /// head flits).
    pub retransmitted_flits: u64,
    /// Retransmission events (one per NACKed delivery).
    pub retransmissions: u64,
    /// Distinct packets that needed at least one retry and were
    /// eventually delivered clean.
    pub recovered_packets: u64,
    /// Distinct packets that exhausted the retry budget.
    pub failed_packets: u64,
}

/// The sending NI's half of the recovery protocol: retained packet
/// copies plus the resync policy and retry budget.
#[derive(Debug)]
struct RecoveryState {
    resync: ResyncPolicy,
    max_retries: u32,
    /// Interior-mutable: `accept` borrows the port immutably (the driver
    /// holds it alongside the mesh) but must book-keep retries.
    inner: Mutex<RecoveryInner>,
}

impl Clone for RecoveryState {
    fn clone(&self) -> Self {
        Self {
            resync: self.resync,
            max_retries: self.max_retries,
            inner: Mutex::new(self.inner.lock().expect("recovery lock").clone()),
        }
    }
}

#[derive(Debug, Clone, Default)]
struct RecoveryInner {
    /// Replay buffer keyed by `(src, dst, tag)` — requests (`mc → pe`)
    /// and their responses (`pe → mc`) share a tag but never a key.
    retained: HashMap<(usize, usize, u64), RetainedPacket>,
    stats: PortFaultStats,
}

/// A task-granularity port onto the mesh: encode-inject on one side,
/// decode-recover on the other, both through one [`CodedTransport`].
///
/// With [`TaskPort::with_recovery`] the port additionally runs the NI
/// half of the unreliable-link protocol: every injected packet is
/// retained until [`TaskPort::accept`] verifies its EDC at the receiver;
/// a failed check NACKs and replays the retained original (resyncing
/// per-link codec lanes per the configured policy) until the packet
/// arrives clean or the retry budget dies.
#[derive(Debug, Clone)]
pub struct TaskPort<S> {
    session: S,
    recovery: Option<RecoveryState>,
}

impl<S> TaskPort<S> {
    /// Wraps a transport session with no recovery protocol (perfect
    /// wires — the paper's setup).
    #[must_use]
    pub fn new(session: S) -> Self {
        Self {
            session,
            recovery: None,
        }
    }

    /// Wraps a transport session with the NI recovery protocol armed:
    /// the resync policy and retry budget come from the mesh's fault
    /// configuration. Arm whenever the simulator's config carries one —
    /// even at `ber = 0`, so the detection machinery stays in the path
    /// and zero-BER equivalence is measured, not assumed.
    #[must_use]
    pub fn with_recovery(session: S, fault: &FaultConfig) -> Self {
        Self {
            session,
            recovery: Some(RecoveryState {
                resync: fault.resync,
                max_retries: fault.max_retries,
                inner: Mutex::new(RecoveryInner::default()),
            }),
        }
    }

    /// The underlying transport session.
    #[must_use]
    pub fn session(&self) -> &S {
        &self.session
    }

    /// Drains the recovery-protocol counters (they reset to zero).
    pub fn take_fault_stats(&self) -> PortFaultStats {
        self.recovery
            .as_ref()
            .map_or_else(PortFaultStats::default, |r| {
                std::mem::take(&mut r.inner.lock().expect("recovery lock").stats)
            })
    }

    /// Retains a copy of an injected packet for possible replay.
    fn retain(&self, src: usize, dst: usize, tag: u64, payload: &[PayloadBits]) {
        if let Some(recovery) = &self.recovery {
            let prior = recovery
                .inner
                .lock()
                .expect("recovery lock")
                .retained
                .insert(
                    (src, dst, tag),
                    RetainedPacket {
                        payload: payload.to_vec(),
                        retries: 0,
                    },
                );
            debug_assert!(
                prior.is_none(),
                "two in-flight packets share the replay-buffer key ({src}, {dst}, {tag})"
            );
        }
    }
}

impl TaskPort<CodedTransport> {
    /// Encodes `task` with the session's ordering and injects it as a
    /// packet `src → dst` through [`TaskPort::send_encoded`], returning
    /// the wire metadata the receiver needs (conceptually: the extended
    /// head-flit fields plus the O2 index side channel).
    ///
    /// # Errors
    ///
    /// Returns [`SendError`] if encoding or injection fails.
    pub fn send_task<W: DataWord>(
        &self,
        sim: &mut Simulator,
        src: usize,
        dst: usize,
        task: &NeuronTask<W>,
        tag: u64,
    ) -> Result<TaskWireMeta, SendError> {
        let encoded = self.session.encode_task(task)?;
        Ok(self.send_encoded(sim, src, dst, encoded, tag)?.meta)
    }

    /// Injects an already-encoded task (owned, or a borrowed buffer the
    /// caller re-encodes into) as a packet `src → dst`, and reports the
    /// packet's flit count (head + payload), wire metadata and
    /// side-channel overheads.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError`] if the simulator rejects the packet.
    pub fn send_encoded<W: DataWord>(
        &self,
        sim: &mut Simulator,
        src: usize,
        dst: usize,
        encoded: impl Borrow<EncodedTask<W>>,
        tag: u64,
    ) -> Result<SentTask, InjectError> {
        let encoded = encoded.borrow();
        // The packet's own images: the one copy of the task's rows the
        // cycle engine carries, moved through to the delivery.
        let payload = encoded.wire_rows().to_payloads();
        let flit_count = payload.len() + 1;
        self.retain(src, dst, tag, &payload);
        sim.inject(Packet::new(src, dst, payload, tag))?;
        Ok(SentTask {
            meta: encoded.wire_meta(),
            flit_count,
            index_overhead_bits: encoded.index_overhead_bits(),
            codec_overhead_bits: encoded.codec_overhead_bits(),
            edc_overhead_bits: encoded.edc_overhead_bits(),
        })
    }

    /// Injects raw wire images (e.g. a PE's encoded response flit) as a
    /// packet `src → dst`, retaining a replay copy when recovery is
    /// armed — so response packets ride the same retransmission protocol
    /// as requests.
    ///
    /// # Errors
    ///
    /// Returns [`InjectError`] if the simulator rejects the packet.
    pub fn send_flits(
        &self,
        sim: &mut Simulator,
        src: usize,
        dst: usize,
        payload: Vec<PayloadBits>,
        tag: u64,
    ) -> Result<u64, InjectError> {
        self.retain(src, dst, tag, &payload);
        sim.inject(Packet::new(src, dst, payload, tag))
    }

    /// The receiving NI's acceptance check: verifies every payload
    /// flit's EDC. On success returns `Ok(Some(retries))` — the number
    /// of retransmissions this packet needed — and releases the replay
    /// buffer. On a failed check the NI NACKs: the retained original is
    /// re-injected (after resyncing per-link codec lanes when the policy
    /// is [`ResyncPolicy::ReseedOnRetry`]) and `Ok(None)` is returned —
    /// run the mesh until idle and drain again. When the retry budget is
    /// exhausted the packet is abandoned with
    /// [`TransportError::Unrecoverable`]: typed, never silent.
    ///
    /// Without an armed recovery protocol this is the EDC check alone
    /// (trivially clean when the session has no EDC).
    ///
    /// # Errors
    ///
    /// [`TransportError::Unrecoverable`] on budget exhaustion; other
    /// [`TransportError`]s if the delivered images do not match the
    /// session's wire geometry at all.
    pub fn accept<W: DataWord>(
        &self,
        sim: &mut Simulator,
        delivered: &DeliveredPacket,
    ) -> Result<Option<u32>, TransportError> {
        let clean = self
            .session
            .verify_delivered_frames::<W>(delivered.payload_flits.as_slice())?;
        let Some(recovery) = &self.recovery else {
            debug_assert!(clean, "corrupted delivery with no recovery protocol armed");
            return Ok(Some(0));
        };
        let key = (delivered.src, delivered.dst, delivered.tag);
        if clean {
            let mut inner = recovery.inner.lock().expect("recovery lock");
            let retries = inner.retained.remove(&key).map_or(0, |r| r.retries);
            if retries > 0 {
                inner.stats.recovered_packets += 1;
            }
            return Ok(Some(retries));
        }
        let replay = {
            let mut inner = recovery.inner.lock().expect("recovery lock");
            let retained = inner
                .retained
                .get_mut(&key)
                .expect("NACKed delivery must have a retained original");
            if retained.retries >= recovery.max_retries {
                let retries = retained.retries;
                inner.retained.remove(&key);
                inner.stats.failed_packets += 1;
                return Err(TransportError::Unrecoverable { retries });
            }
            retained.retries += 1;
            let flits = retained.payload.len() as u64;
            let replay = retained.payload.clone();
            inner.stats.retransmissions += 1;
            inner.stats.retransmitted_flits += flits;
            replay
        };
        if recovery.resync == ResyncPolicy::ReseedOnRetry {
            // The sideband sync pulse: every link's tx/rx lane pair
            // forgets its wire memory together, repairing any decoder
            // poisoning a flip left behind (lanes stay mirrored, so
            // losslessness is unaffected — only the BT cost moves).
            sim.reseed_codec_lanes();
        }
        sim.inject(Packet::new(
            delivered.src,
            delivered.dst,
            replay,
            delivered.tag,
        ))
        .expect("replaying a packet the mesh already carried");
        Ok(None)
    }

    /// The receiving NI's acceptance check for a packet the analytic
    /// engine delivered without queueing it — a streamed request
    /// ([`Simulator::stream_requests`]) or a replayed response
    /// ([`Simulator::replay_phase`]) — given its delivered payload rows:
    /// the EDC verify of [`TaskPort::accept`]. Such a packet is delivered
    /// in the same call that sends it, so the sender never needs a replay
    /// copy: nothing was retained, and there is nothing to release. The
    /// analytic engine runs on perfect wires only, so every frame
    /// verifies clean.
    ///
    /// # Errors
    ///
    /// [`TransportError::Unrecoverable`] (with zero retries) if a frame
    /// fails its EDC check; other [`TransportError`]s if the rows do not
    /// match the session's wire geometry at all.
    pub fn accept_streamed<W: DataWord>(
        &self,
        payload_flits: &(impl FlitRows + ?Sized),
    ) -> Result<(), TransportError> {
        let clean = self.session.verify_delivered_frames::<W>(payload_flits)?;
        debug_assert!(clean, "corrupted delivery on a perfect-wire streamed phase");
        if clean {
            Ok(())
        } else {
            Err(TransportError::Unrecoverable { retries: 0 })
        }
    }

    /// Decodes a delivered packet's wire images back into paired operands.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError`] if the images do not match the layout
    /// implied by `meta` or recovery fails.
    pub fn receive_task<W: DataWord>(
        &self,
        meta: &TaskWireMeta,
        delivered: &DeliveredPacket,
    ) -> Result<RecoveredTask<W>, TransportError> {
        self.session.decode_task(meta, &delivered.payload_flits)
    }
}

/// Accounting record returned by [`TaskPort::send_encoded`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SentTask {
    /// Wire metadata the receiver needs to decode the packet.
    pub meta: TaskWireMeta,
    /// Flits on the wire (head + payload).
    pub flit_count: usize,
    /// O2 index side-channel overhead in bits (zero for O0/O1).
    pub index_overhead_bits: u64,
    /// Link-codec side-channel overhead in bits (the bus-invert line;
    /// zero for unencoded and delta-XOR sessions).
    pub codec_overhead_bits: u64,
    /// Per-flit EDC side-channel overhead in bits (the check-field
    /// wires; zero without an EDC).
    pub edc_overhead_bits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::NocConfig;
    use btr_bits::word::Fx8Word;
    use btr_core::codec::CodecKind;
    use btr_core::ordering::OrderingMethod;
    use btr_core::transport::TransportConfig;

    fn task(n: usize) -> NeuronTask<Fx8Word> {
        let inputs: Vec<Fx8Word> = (0..n).map(|i| Fx8Word::new(i as i8)).collect();
        let weights: Vec<Fx8Word> = (0..n).map(|i| Fx8Word::new(-(i as i8))).collect();
        NeuronTask::new(inputs, weights, Fx8Word::new(3)).unwrap()
    }

    #[test]
    fn roundtrip_over_the_mesh_for_all_orderings() {
        for ordering in OrderingMethod::ALL {
            let mut sim = Simulator::new(NocConfig::mesh(4, 4, 128));
            let port = TaskPort::new(CodedTransport::new(TransportConfig::new(ordering, 16)));
            let t = task(25);
            let meta = port.send_task(&mut sim, 2, 13, &t, 9).unwrap();
            sim.run_until_idle(10_000).unwrap();
            let delivered = sim.drain_delivered(13).pop().expect("delivered");
            assert_eq!(delivered.tag, 9);
            let rec: btr_core::task::RecoveredTask<Fx8Word> =
                port.receive_task(&meta, &delivered).unwrap();
            assert_eq!(rec.mac_i64(), t.mac_i64(), "{ordering}");
        }
    }

    #[test]
    fn coded_wire_roundtrips_over_the_mesh() {
        // Every codec delivers decoded payloads bit-exactly while the
        // simulator records transitions on the coded wire image (the
        // bus-invert link is one wire wider).
        let config = TransportConfig::new(OrderingMethod::Separated, 16);
        let mut totals = Vec::new();
        for codec in CodecKind::ALL {
            let link_width = config.with_codec(codec).link_width_bits::<Fx8Word>();
            let mut sim = Simulator::new(NocConfig::mesh(4, 4, link_width));
            let port = TaskPort::new(CodedTransport::new(config.with_codec(codec)));
            let t = task(25);
            let meta = port.send_task(&mut sim, 2, 13, &t, 9).unwrap();
            sim.run_until_idle(10_000).unwrap();
            let delivered = sim.drain_delivered(13).pop().expect("delivered");
            assert!(delivered
                .payload_flits
                .iter()
                .all(|f| f.width() == link_width));
            let rec: btr_core::task::RecoveredTask<Fx8Word> =
                port.receive_task(&meta, &delivered).unwrap();
            assert_eq!(rec.mac_i64(), t.mac_i64(), "{codec}");
            totals.push(sim.stats().total_transitions);
        }
        // The coded wires genuinely differ from the unencoded wire.
        assert_ne!(totals[0], totals[2], "delta-XOR must change the wire BTs");
    }

    #[test]
    fn accounted_send_reports_flits_and_overhead() {
        let mut sim = Simulator::new(NocConfig::mesh(4, 4, 128));
        let port = TaskPort::new(CodedTransport::new(TransportConfig::new(
            OrderingMethod::Separated,
            16,
        )));
        let t = task(25);
        let send = |port: &TaskPort<CodedTransport>, sim: &mut Simulator| {
            let encoded = port.session().encode_task(&t).unwrap();
            port.send_encoded(sim, 0, 5, encoded, 1).unwrap()
        };
        let sent = send(&port, &mut sim);
        // 25 pairs at 8+8 lanes -> 4 payload flits + head.
        assert_eq!(sent.flit_count, 5);
        assert!(sent.index_overhead_bits > 0);
        assert_eq!(sent.codec_overhead_bits, 0);
        assert_eq!(sent.edc_overhead_bits, 0);
        assert_eq!(sent.meta.num_pairs, 25);
        // A CRC-8 session reports eight check-field bits per payload flit.
        let config = TransportConfig::new(OrderingMethod::Separated, 16)
            .with_edc(btr_core::edc::EdcKind::Crc8);
        let mut sim = Simulator::new(NocConfig::mesh(4, 4, config.link_width_bits::<Fx8Word>()));
        let port = TaskPort::new(CodedTransport::new(config));
        let sent = send(&port, &mut sim);
        assert_eq!(sent.edc_overhead_bits, 4 * 8);
        // A bus-invert session reports one side-channel bit per payload flit.
        let mut sim = Simulator::new(NocConfig::mesh(4, 4, 129));
        let port = TaskPort::new(CodedTransport::new(
            TransportConfig::new(OrderingMethod::Separated, 16).with_codec(CodecKind::BusInvert),
        ));
        let sent = send(&port, &mut sim);
        assert_eq!(sent.codec_overhead_bits, 4);
    }

    #[test]
    fn recovery_retransmits_raw_wires_until_clean() {
        use crate::fault::{BitErrorRate, ErrorModel, FaultConfig, FaultMode};
        use btr_core::edc::EdcKind;

        let t = task(25);
        let config = TransportConfig::new(OrderingMethod::Separated, 16).with_edc(EdcKind::Crc8);
        let link_width = config.link_width_bits::<Fx8Word>();
        let frame = config.frame_width_bits::<Fx8Word>();
        let run = |seed: u64| {
            let fault = FaultConfig::new(
                ErrorModel {
                    ber: BitErrorRate::from_f64(1e-4),
                    seed,
                    mode: FaultMode::PerFlit,
                },
                frame,
            );
            let noc = NocConfig::mesh(4, 4, link_width).with_fault(Some(fault));
            noc.validate().unwrap();
            let mut sim = Simulator::new(noc);
            let port = TaskPort::with_recovery(CodedTransport::new(config), &fault);
            let meta = port.send_task(&mut sim, 2, 13, &t, 9).unwrap();
            loop {
                sim.run_until_idle(100_000).unwrap();
                let d = sim.drain_delivered(13).pop().expect("packet arrives");
                match port.accept::<Fx8Word>(&mut sim, &d) {
                    Ok(Some(retries)) => {
                        let rec: btr_core::task::RecoveredTask<Fx8Word> =
                            port.receive_task(&meta, &d).unwrap();
                        assert_eq!(rec.mac_i64(), t.mac_i64());
                        return Ok((retries, port.take_fault_stats()));
                    }
                    Ok(None) => {}
                    Err(e) => return Err(e),
                }
            }
        };
        // Some seed corrupts the first traversal; the NI's replay then
        // delivers the identical task bit-exactly.
        let (retries, stats) = (0..100)
            .find_map(|seed| run(seed).ok().filter(|&(r, _)| r > 0))
            .expect("a corrupted-then-recovered seed exists");
        assert!(retries >= 1);
        assert_eq!(stats.recovered_packets, 1);
        assert_eq!(stats.retransmissions, u64::from(retries));
        // 4 payload flits per replay, head flits excluded.
        assert_eq!(stats.retransmitted_flits, 4 * u64::from(retries));
        assert_eq!(stats.failed_packets, 0);
    }

    #[test]
    fn per_link_resync_policy_governs_retry_repair() {
        use crate::fault::{BitErrorRate, ErrorModel, FaultConfig, FaultMode};
        use btr_core::codec::CodecScope;
        use btr_core::edc::EdcKind;
        use btr_core::transport::TransportError;

        let t = task(25);
        let config = TransportConfig::new(OrderingMethod::Separated, 16)
            .with_codec(CodecKind::DeltaXor)
            .with_scope(CodecScope::PerLink)
            .with_edc(EdcKind::Crc8);
        let link_width = config.link_width_bits::<Fx8Word>();
        let frame = config.frame_width_bits::<Fx8Word>();
        let run = |seed: u64, resync: btr_core::codec::ResyncPolicy| {
            let mut fault = FaultConfig::new(
                ErrorModel {
                    ber: BitErrorRate::from_f64(1e-4),
                    seed,
                    mode: FaultMode::PerFlit,
                },
                frame,
            );
            fault.resync = resync;
            fault.max_retries = 32;
            let noc = NocConfig::mesh(4, 4, link_width)
                .with_link_codec(Some(CodecKind::DeltaXor))
                .with_fault(Some(fault));
            noc.validate().unwrap();
            let mut sim = Simulator::new(noc);
            let port = TaskPort::with_recovery(CodedTransport::new(config), &fault);
            let meta = port.send_task(&mut sim, 2, 13, &t, 9).unwrap();
            loop {
                sim.run_until_idle(100_000).unwrap();
                let d = sim.drain_delivered(13).pop().expect("packet arrives");
                match port.accept::<Fx8Word>(&mut sim, &d) {
                    Ok(Some(retries)) => {
                        let rec: btr_core::task::RecoveredTask<Fx8Word> =
                            port.receive_task(&meta, &d).unwrap();
                        assert_eq!(rec.mac_i64(), t.mac_i64());
                        return Ok(retries);
                    }
                    Ok(None) => {}
                    Err(e) => return Err(e),
                }
            }
        };
        // Find a seed whose first traversal flips at least one bit. Both
        // policies then face the identical first corruption.
        let seed = (0..100)
            .find(|&seed| matches!(run(seed, ResyncPolicy::ReseedOnRetry), Ok(r) if r > 0))
            .expect("a corrupting seed exists");
        // Reseed-on-retry resets every link's tx/rx lane pair before the
        // replay, repairing the flip's delta-XOR decoder poisoning...
        assert!(matches!(run(seed, ResyncPolicy::ReseedOnRetry), Ok(r) if r > 0));
        // ...while continuous lanes stay poisoned: the receiving lane's
        // wire memory is permanently wrong, so every replay decodes wrong
        // no matter how clean the retry traversals are, and the retry
        // budget dies with a typed error.
        assert!(matches!(
            run(seed, ResyncPolicy::Continuous),
            Err(TransportError::Unrecoverable { retries: 32 })
        ));
    }

    #[test]
    fn send_surfaces_inject_errors() {
        let mut sim = Simulator::new(NocConfig::mesh(4, 4, 64));
        let port = TaskPort::new(CodedTransport::new(TransportConfig::new(
            OrderingMethod::Baseline,
            16,
        )));
        // 16 fx8 lanes = 128-bit payload on a 64-bit link.
        let err = port.send_task(&mut sim, 0, 1, &task(4), 0).unwrap_err();
        assert!(matches!(
            err,
            SendError::Inject(InjectError::PayloadTooWide { .. })
        ));
    }
}
