//! Synthetic SPEC2000-like workloads for the inductive-noise simulator.
//!
//! The paper (Powell & Vijaykumar, ISCA 2004) evaluates on all 26 SPEC2K
//! applications with reference inputs. Real SPEC binaries and an Alpha ISA
//! interpreter are out of scope for this reproduction; instead, this crate
//! generates **synthetic instruction streams** that reproduce the
//! microarchitectural behavior that matters for inductive noise:
//!
//! * per-application instruction mix, register-dependence structure, memory
//!   locality (L1/L2/memory working sets, pointer chasing), and branch
//!   predictability — which set IPC and baseline current levels; and
//! * **resonant episodes**: phases alternating low-ILP dependence chains and
//!   high-ILP bursts at periods inside (or outside) the power supply's
//!   resonance band — which determine whether an application builds
//!   noise-margin violations, reproducing the violating/non-violating split
//!   of the paper's Table 2.
//!
//! Streams are fully deterministic per profile seed, so base and technique
//! runs execute identical programs.
//!
//! # Examples
//!
//! ```
//! use cpusim::{Cpu, CpuConfig, PipelineControls};
//! use workloads::{spec2k, stream::warm_caches, StreamGen};
//!
//! let profile = spec2k::by_name("gzip").expect("gzip is in the suite");
//! let mut cpu = Cpu::new(CpuConfig::isca04_table1(), StreamGen::new(profile));
//! warm_caches(&mut cpu); // stand-in for the paper's 2B-instruction fast-forward
//! for _ in 0..10_000 {
//!     cpu.tick(PipelineControls::free());
//! }
//! assert!(cpu.stats().ipc() > 0.5);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod corpus;
pub mod profile;
pub mod registry;
pub mod spec2k;
pub mod store;
pub mod stream;
pub mod trace;

pub use corpus::CorpusReplay;
pub use profile::{Episode, OpMix, WorkloadProfile};
pub use store::{shared_stream, warmed_caches, SharedStream};
pub use stream::StreamGen;
pub use trace::{RecordedTrace, TraceReplay, TraceSummary};
