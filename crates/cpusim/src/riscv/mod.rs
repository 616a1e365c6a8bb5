//! A RISC-V (RV32IM) frontend: assemble, execute, and lower real programs
//! onto the synthetic pipeline.
//!
//! The simulator's out-of-order core deliberately executes [`SynthInst`]
//! streams — inductive noise depends on per-cycle activity, not on
//! instruction semantics. This module closes the gap to real code without
//! changing that: a small assembler ([`asm`]) turns a `.s` corpus into
//! encoded RV32IM words, an architectural interpreter ([`exec`]) runs them
//! to completion, and a lowering layer ([`lower`](mod@lower)) replays the retired
//! instruction sequence as `SynthInst`s carrying the *true*
//! microarchitectural attributes: op class from the opcode, dependence
//! distances from register def-use, effective addresses from execution,
//! and resolved branch directions (with mispredicts from a small bimodal
//! predictor model, since the profile branch model consumes a per-branch
//! mispredict flag).
//!
//! The address layout is chosen to coincide with the synthetic stream's
//! warmed regions (`workloads::stream::layout`): text sits in the hot-code
//! window and data/stack inside the L1-resident window, so corpus runs
//! start from the same warmed cache image as synthetic ones.
//!
//! [`SynthInst`]: crate::isa::SynthInst
//!
//! # Examples
//!
//! ```
//! use cpusim::riscv::{asm, lower};
//!
//! let program = asm::assemble(
//!     "li t0, 10\n\
//!      li t1, 0\n\
//!      loop: add t1, t1, t0\n\
//!      addi t0, t0, -1\n\
//!      bnez t0, loop\n\
//!      mv a0, t1\n\
//!      ecall\n",
//! )
//! .unwrap();
//! let trace = lower::lower(&program, 10_000).unwrap();
//! assert_eq!(trace.summary.exit_code, 55); // 10+9+...+1
//! assert!(!trace.insts.is_empty());
//! ```

pub mod asm;
pub mod exec;
pub mod inst;
pub mod lower;

pub use asm::{assemble, ParseError, Program};
pub use exec::{ExecError, Machine, Retired};
pub use inst::{Inst, Op};
pub use lower::{lower, ArchSummary, LoweredTrace};

/// Base address of the text section — inside the synthetic stream's hot-code
/// window, so instruction fetch hits the warmed L1 I-cache region.
pub const TEXT_BASE: u32 = 0x0040_0000;

/// Maximum text section size in bytes (the hot-code window is 48 KB; stay
/// comfortably inside it).
pub const TEXT_LIMIT: u32 = 0x8000;

/// Base address of the data section — the start of the L1-resident data
/// window warmed by `workloads::stream::warm_caches`.
pub const DATA_BASE: u32 = 0x1000_0000;

/// Maximum static data size in bytes. Data grows up from [`DATA_BASE`]
/// while the stack grows down from [`STACK_TOP`]; this limit keeps an 8 KB
/// gap between them.
pub const DATA_LIMIT: u32 = 0x6000;

/// Initial stack pointer: the top of the warmed 32 KB L1 window.
pub const STACK_TOP: u32 = DATA_BASE + 0x8000;
