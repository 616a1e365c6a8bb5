//! The synthetic instruction abstraction executed by the simulator.
//!
//! The simulator does not interpret a real ISA: inductive noise depends on
//! the *per-cycle activity pattern* of the pipeline, not on instruction
//! semantics. A [`SynthInst`] carries exactly the microarchitecturally
//! visible attributes — operation class, dependence distances, memory
//! address, branch outcome — that determine when it can issue, which unit it
//! occupies, how long it executes, and what energy it consumes.

/// The operation classes the pipeline distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Integer ALU operation (add, logic, shifts).
    IntAlu,
    /// Integer multiply (pipelined multi-cycle).
    IntMul,
    /// Integer divide (unpipelined).
    IntDiv,
    /// Floating-point add/compare.
    FpAlu,
    /// Floating-point multiply.
    FpMul,
    /// Floating-point divide (unpipelined).
    FpDiv,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Conditional or unconditional branch (executes on an integer ALU).
    Branch,
}

impl OpClass {
    /// All classes, for iteration in mixes and stats.
    pub const ALL: [OpClass; 9] = [
        OpClass::IntAlu,
        OpClass::IntMul,
        OpClass::IntDiv,
        OpClass::FpAlu,
        OpClass::FpMul,
        OpClass::FpDiv,
        OpClass::Load,
        OpClass::Store,
        OpClass::Branch,
    ];

    /// `true` for loads and stores.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(self, OpClass::Load | OpClass::Store)
    }

    /// A dense index for per-class arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            OpClass::IntAlu => 0,
            OpClass::IntMul => 1,
            OpClass::IntDiv => 2,
            OpClass::FpAlu => 3,
            OpClass::FpMul => 4,
            OpClass::FpDiv => 5,
            OpClass::Load => 6,
            OpClass::Store => 7,
            OpClass::Branch => 8,
        }
    }
}

/// One synthetic dynamic instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SynthInst {
    /// Operation class.
    pub op: OpClass,
    /// Distance (in dynamic instructions) back to the producer of the first
    /// source operand; 0 means no register dependence.
    pub src1_dist: u32,
    /// Distance back to the producer of the second source; 0 means none.
    pub src2_dist: u32,
    /// Effective address for loads/stores (ignored otherwise).
    pub addr: u64,
    /// For branches: whether the (synthetic) predictor mispredicts this
    /// branch, forcing a squash and redirect when it resolves. Used by the
    /// profile-driven branch model.
    pub mispredict: bool,
    /// For branches: the actual direction. Used as ground truth by the
    /// predictor-driven branch model ([`crate::branch::BranchPredictor`]).
    pub taken: bool,
    /// Instruction-fetch address (drives the L1 I-cache).
    pub pc: u64,
}

impl SynthInst {
    /// A dependence-free single-cycle integer op — the simplest instruction.
    pub fn int_alu() -> Self {
        Self {
            op: OpClass::IntAlu,
            src1_dist: 0,
            src2_dist: 0,
            addr: 0,
            mispredict: false,
            taken: false,
            pc: 0,
        }
    }

    /// A load from `addr` depending on the instruction `dist` back.
    pub fn load(addr: u64, dist: u32) -> Self {
        Self {
            op: OpClass::Load,
            src1_dist: dist,
            addr,
            ..Self::int_alu()
        }
    }

    /// A store to `addr`.
    pub fn store(addr: u64, dist: u32) -> Self {
        Self {
            op: OpClass::Store,
            src1_dist: dist,
            addr,
            ..Self::int_alu()
        }
    }

    /// A branch; `mispredict` marks it as mispredicted (profile model).
    pub fn branch(mispredict: bool) -> Self {
        Self {
            op: OpClass::Branch,
            src1_dist: 1,
            mispredict,
            ..Self::int_alu()
        }
    }

    /// Returns a copy with the given actual branch direction (predictor
    /// model ground truth).
    pub fn with_taken(mut self, taken: bool) -> Self {
        self.taken = taken;
        self
    }

    /// Returns a copy with the given fetch address.
    pub fn at_pc(mut self, pc: u64) -> Self {
        self.pc = pc;
        self
    }

    /// Returns a copy with the given dependence distances.
    pub fn with_deps(mut self, src1: u32, src2: u32) -> Self {
        self.src1_dist = src1;
        self.src2_dist = src2;
        self
    }
}

/// An infinite supplier of dynamic instructions.
///
/// Streams must be deterministic for a given construction (seed) so that
/// base and technique runs of the same workload execute identical
/// instruction sequences.
pub trait InstructionStream {
    /// Produces the next dynamic instruction in program order.
    fn next_inst(&mut self) -> SynthInst;
}

impl<F: FnMut() -> SynthInst> InstructionStream for F {
    fn next_inst(&mut self) -> SynthInst {
        self()
    }
}

/// A stream that repeats a fixed sequence forever. Useful in tests and
/// microbenchmarks.
#[derive(Debug, Clone)]
pub struct LoopStream {
    body: Vec<SynthInst>,
    pos: usize,
}

impl LoopStream {
    /// Creates a loop over `body`.
    ///
    /// # Panics
    ///
    /// Panics if `body` is empty.
    pub fn new(body: Vec<SynthInst>) -> Self {
        assert!(!body.is_empty(), "loop body must be non-empty");
        Self { body, pos: 0 }
    }
}

impl InstructionStream for LoopStream {
    fn next_inst(&mut self) -> SynthInst {
        let inst = self.body[self.pos];
        self.pos = (self.pos + 1) % self.body.len();
        inst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_class_indices_are_dense_and_unique() {
        let mut seen = [false; 9];
        for op in OpClass::ALL {
            let i = op.index();
            assert!(!seen[i], "duplicate index {i}");
            seen[i] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn mem_classification() {
        assert!(OpClass::Load.is_mem());
        assert!(OpClass::Store.is_mem());
        assert!(!OpClass::IntAlu.is_mem());
        assert!(!OpClass::Branch.is_mem());
    }

    #[test]
    fn constructors_set_fields() {
        let l = SynthInst::load(0x1000, 3);
        assert_eq!(l.op, OpClass::Load);
        assert_eq!(l.addr, 0x1000);
        assert_eq!(l.src1_dist, 3);

        let b = SynthInst::branch(true);
        assert!(b.mispredict);

        let i = SynthInst::int_alu().with_deps(1, 2).at_pc(0x40);
        assert_eq!(i.src1_dist, 1);
        assert_eq!(i.src2_dist, 2);
        assert_eq!(i.pc, 0x40);
    }

    #[test]
    fn loop_stream_cycles() {
        let mut s = LoopStream::new(vec![SynthInst::int_alu(), SynthInst::branch(false)]);
        assert_eq!(s.next_inst().op, OpClass::IntAlu);
        assert_eq!(s.next_inst().op, OpClass::Branch);
        assert_eq!(s.next_inst().op, OpClass::IntAlu);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_loop_panics() {
        let _ = LoopStream::new(vec![]);
    }

    #[test]
    fn closures_are_streams() {
        let mut n = 0u64;
        let mut s = move || {
            n += 1;
            SynthInst::load(n * 64, 0)
        };
        assert_eq!(InstructionStream::next_inst(&mut s).addr, 64);
        assert_eq!(InstructionStream::next_inst(&mut s).addr, 128);
    }
}
