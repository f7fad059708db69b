//! Multi-core PULP cluster model.
//!
//! The paper's target is not a single RI5CY core but an 8-core PULP
//! cluster: the cores share a word-interleaved, multi-banked L1 TCDM
//! through a single-cycle logarithmic interconnect, synchronize through
//! a hardware event unit, and a cluster DMA streams tiles between L2
//! and L1 while the cores compute. This crate models that cluster on
//! top of the existing single-core simulator:
//!
//! - [`hart`] — per-hart memory ports: private per-region memory
//!   clones, ordered write logs, and TCDM access traces;
//! - [`arbiter`] — deterministic post-hoc bank-conflict arbitration
//!   over the traces (lowest hart id wins ties);
//! - [`sim`] — the cluster runner: barrier-delimited regions, max-plus
//!   region timing, hart-order state merges, DMA overlap accounting,
//!   and whole-cluster snapshots;
//! - [`testbench`] — staged, verified parallel convolution layers
//!   (PULP-NN-style work split, DMA double-buffering);
//! - [`raw`] — raw SPMD program execution (`csrr mhartid` diverges the
//!   harts).
//!
//! The model is *deterministic in simulated time*: cycle counts,
//! memory images and console output are bit-identical whether the
//! harts run on one host thread or eight, because every cross-hart
//! interaction is resolved by architectural rules (hart-id priority)
//! rather than host scheduling.

#![warn(missing_docs)]

pub mod arbiter;
pub mod hart;
pub mod raw;
pub mod sim;
pub mod testbench;

pub use arbiter::{arbitrate, Arbitration};
pub use hart::{BankEvent, HartPort, HartStep, RegionEnd, WriteRec};
pub use raw::{run_spmd, RawRunReport};
pub use sim::{ClusterSim, ClusterSnapshot, ClusterStats, ConflictKind, ConflictRec};
pub use testbench::{ClusterConvTestbench, ClusterRunResult};

use riscv_core::Trap;
use std::fmt;

/// A cluster run failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// A hart trapped; the lowest-id trapping hart is reported.
    Trap {
        /// The trapping hart's id.
        hart: usize,
        /// The trap it raised.
        trap: Trap,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::Trap { hart, trap } => write!(f, "hart {hart} trapped: {trap}"),
        }
    }
}

impl std::error::Error for ClusterError {}
