//! # btr-noc — cycle-level 2D-mesh NoC simulator with BT recording
//!
//! A from-scratch reimplementation of the simulation substrate the paper
//! evaluates on (NocDAS \[2\]): a 2-D mesh with X-Y dimension-order routing,
//! wormhole switching, 4 virtual channels with 4-flit buffers per VC and
//! credit-based flow control (Sec. V-B). Every link — injection (NI →
//! router), inter-router, and ejection (router → NI) — carries a
//! bit-transition recorder implementing Fig. 8: the previous flit's wire
//! row is XORed with the current one and the popcount accumulates into
//! the NoC BT sum. Inside the engines a flit is a dense row of the `u64`
//! words the link width covers; [`packet::Packet`]'s
//! [`btr_bits::PayloadBits`] images are copied into rows at injection.
//!
//! * [`analytic`] — fast paths beside the cycle engine: phases recorded
//!   as the cycle engine steps them and replayed bit-exactly on new
//!   payloads, and the direct stream replay of queued contention-free
//!   phases, with the cycle engine as oracle;
//! * [`config`] — mesh geometry, link width, VC parameters, MC placement;
//! * [`fault`] — deterministic per-link wire-error injection (seed-split
//!   RNG streams, per-flit or burst mode) behind the EDC + retransmission
//!   recovery protocol in [`session`];
//! * [`flit`] / [`packet`] — flit kinds, packets and their head-flit
//!   addressing row;
//! * [`routing`] — X-Y (and Y-X ablation) dimension-order routing;
//! * [`session`] — task injection/decode through the shared
//!   `btr_core::transport` pipeline;
//! * [`sim`] — the cycle-driven simulator (flat-array engine);
//! * [`stats`] — per-link and aggregate BT, latency, throughput;
//! * [`traffic`] — synthetic patterns (uniform random, transpose, hotspot)
//!   for standalone validation of the NoC itself.
//!
//! # Example
//!
//! ```
//! use btr_noc::config::NocConfig;
//! use btr_noc::packet::Packet;
//! use btr_noc::sim::Simulator;
//! use btr_bits::PayloadBits;
//!
//! let config = NocConfig::mesh(4, 4, 128);
//! let mut sim = Simulator::new(config);
//! let payload = vec![PayloadBits::zero(128)];
//! sim.inject(Packet::new(0, 15, payload, 7)).unwrap();
//! let cycles = sim.run_until_idle(10_000).unwrap();
//! assert!(cycles > 0);
//! let delivered = sim.drain_all_delivered();
//! assert_eq!(delivered.len(), 1);
//! assert_eq!(delivered[0].tag, 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod config;
pub mod fault;
pub mod flit;
pub mod packet;
pub mod routing;
pub mod session;
pub mod sim;
pub mod stats;
pub mod traffic;

pub use analytic::EngineMode;
pub use config::{NocConfig, NodeId};
pub use fault::{BitErrorRate, ErrorModel, FaultConfig, FaultMode};
pub use flit::FlitKind;
pub use packet::Packet;
pub use sim::{DeliveredPacket, Simulator};
pub use stats::NocStats;
