//! A cycle-level out-of-order superscalar CPU simulator.
//!
//! This crate is the processor substrate of a reproduction of Powell &
//! Vijaykumar, *Exploiting Resonant Behavior to Reduce Inductive Noise*
//! (ISCA 2004). The paper's evaluation runs on a SimpleScalar/Wattch
//! RUU-style machine; this crate rebuilds that machine from scratch:
//!
//! * an 8-wide out-of-order core with a unified 128-entry window
//!   (reorder buffer doubling as the issue window, like SimpleScalar's
//!   register-update unit), a load/store queue, functional-unit pools with
//!   the paper's latencies, and a mispredict squash/replay frontend
//!   ([`Cpu`]);
//! * a two-level cache hierarchy (64 KB 2-way L1s, 2 MB 8-way L2) over an
//!   80-cycle memory ([`cache`]);
//! * synthetic instructions carrying exactly the microarchitecturally
//!   visible attributes — class, dependence distances, address, branch
//!   outcome ([`isa`]); and
//! * per-cycle external throttle controls — issue-width and memory-port
//!   limits, fetch/issue stalls, phantom operations — through which the
//!   inductive-noise controllers act ([`PipelineControls`]).
//!
//! Per-cycle [`CycleEvents`] feed the `powermodel` crate, which converts
//! pipeline activity into processor current.
//!
//! # Examples
//!
//! ```
//! use cpusim::{Cpu, CpuConfig, PipelineControls};
//! use cpusim::isa::{LoopStream, SynthInst};
//!
//! // Eight independent ALU ops per loop iteration: the core sustains
//! // nearly its full 8-wide issue width.
//! let mut cpu = Cpu::new(
//!     CpuConfig::isca04_table1(),
//!     LoopStream::new(vec![SynthInst::int_alu(); 8]),
//! );
//! for _ in 0..1000 {
//!     cpu.tick(PipelineControls::free());
//! }
//! assert!(cpu.stats().ipc() > 7.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod control;
mod core;
pub mod isa;
pub mod memsys;
pub mod riscv;
pub mod stats;

pub use crate::core::{apriori_issue_current, Cpu, ScanMode};
pub use branch::{BranchModel, BranchPredictor, PredictorKind};
pub use config::{CacheConfig, CacheGeometry, CpuConfig, FuConfig, LatencyConfig};
pub use control::{PhantomLevel, PipelineControls};
pub use isa::{InstructionStream, OpClass, SynthInst};
pub use memsys::{MemorySystemConfig, MissTracker};
pub use stats::{CycleEvents, RunStats};
