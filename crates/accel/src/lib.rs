//! # btr-accel — NOC-DNA: the NoC-based DNN accelerator
//!
//! Ties the workspace together into the system the paper evaluates in
//! Sec. V-B (Fig. 7): a full DNN inference where every convolution /
//! fully-connected neuron computation is a **task packet** travelling from
//! a memory controller (MC) through the mesh to a processing element (PE),
//! which replies with the multiply-accumulate result.
//!
//! * MCs host the ordering units ("near off-chip memory placement",
//!   Sec. IV-C-2): tasks are flitized and ordered (O0/O1/O2) before
//!   injection;
//! * PEs decode operands **off the wire images**, recover the pairing
//!   (slot-aligned for O0/O1, index side channel for O2) and compute;
//! * pooling / activation / flatten run memory-side between layers,
//!   inside the layer-level interval that hides ordering latency
//!   (Sec. IV-C-3);
//! * one [`btr_noc::Simulator`] instance persists across layers, so the
//!   reported bit transitions cover the complete inference.
//!
//! # Example
//!
//! ```no_run
//! use btr_accel::config::AccelConfig;
//! use btr_accel::driver::run_inference_batch;
//! use btr_bits::word::DataFormat;
//! use btr_core::OrderingMethod;
//! use btr_dnn::models::lenet;
//! use btr_dnn::tensor::Tensor;
//!
//! let config = AccelConfig::paper(4, 4, 2, DataFormat::Fixed8, OrderingMethod::Separated);
//! let ops = lenet::build(42).inference_ops();
//! let input = Tensor::zeros(&[1, 32, 32]);
//! let result = run_inference_batch(&ops, &[input], &config).unwrap();
//! println!("total BTs: {}", result.stats.total_transitions);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod driver;
pub mod report;
pub mod tasks;

pub use config::AccelConfig;
pub use driver::{run_inference_batch, AccelError, InferenceSession};
pub use report::{BatchInferenceResult, LayerTrafficReport};
