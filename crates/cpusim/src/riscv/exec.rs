//! Architectural execution of RV32IM programs.
//!
//! [`Machine`] is a plain in-order architectural interpreter: 32 registers,
//! a sparse byte-addressed memory, and a program counter. It is *not* the
//! performance model — the out-of-order pipeline still executes
//! [`crate::isa::SynthInst`] streams; the machine exists to establish the
//! architectural ground truth (register values, memory contents, branch
//! directions, effective addresses) that the lowering layer
//! ([`crate::riscv::lower`](mod@crate::riscv::lower)) turns into those streams.
//!
//! Execution always flows through the decoder: [`Machine::new`] decodes the
//! program's encoded words back into [`Inst`]s, so a miscompiled
//! encode/decode pair cannot silently produce a "working" run.

use std::collections::BTreeMap;
use std::fmt;

use super::asm::Program;
use super::inst::{Inst, Op};
use super::{DATA_BASE, STACK_TOP, TEXT_BASE};

/// An architectural execution fault. Well-formed corpus programs never
/// raise one; they indicate a broken program (or a frontend bug).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecError {
    /// Program counter at the fault.
    pub pc: u32,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "exec fault at pc={:#010x}: {}", self.pc, self.msg)
    }
}

impl std::error::Error for ExecError {}

/// One retired instruction, with the architectural facts the lowering
/// layer needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retired {
    /// Address the instruction was fetched from.
    pub pc: u32,
    /// The decoded instruction.
    pub inst: Inst,
    /// For branches and jumps: the resolved direction (`jal`/`jalr` are
    /// always taken). `None` for non-control-flow instructions.
    pub taken: Option<bool>,
    /// For loads/stores: the effective byte address.
    pub addr: Option<u32>,
}

/// The architectural RV32IM machine state.
pub struct Machine {
    regs: [u32; 32],
    mem: BTreeMap<u32, u8>,
    text: Vec<Inst>,
    pc: u32,
    halted: bool,
    retired: u64,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("pc", &self.pc)
            .field("halted", &self.halted)
            .field("retired", &self.retired)
            .field("text_insts", &self.text.len())
            .field("mem_bytes", &self.mem.len())
            .finish()
    }
}

impl Machine {
    /// Builds a machine from an assembled program: decodes every text word,
    /// loads the data image at [`DATA_BASE`], and points `sp` at
    /// [`STACK_TOP`].
    ///
    /// # Errors
    ///
    /// Returns an error if any text word fails to decode.
    pub fn new(program: &Program) -> Result<Machine, ExecError> {
        let mut text = Vec::with_capacity(program.words.len());
        for (i, &word) in program.words.iter().enumerate() {
            let pc = TEXT_BASE + 4 * i as u32;
            text.push(Inst::decode(word).ok_or_else(|| ExecError {
                pc,
                msg: format!("undecodable instruction word {word:#010x}"),
            })?);
        }
        let mut mem = BTreeMap::new();
        for (i, &b) in program.data.iter().enumerate() {
            if b != 0 {
                mem.insert(DATA_BASE + i as u32, b);
            }
        }
        let mut regs = [0u32; 32];
        regs[2] = STACK_TOP; // sp
        Ok(Machine {
            regs,
            mem,
            text,
            pc: TEXT_BASE,
            halted: false,
            retired: 0,
        })
    }

    /// The architectural register file.
    pub fn regs(&self) -> &[u32; 32] {
        &self.regs
    }

    /// Reads one register.
    pub fn reg(&self, r: u8) -> u32 {
        self.regs[r as usize]
    }

    /// `true` once `ecall`/`ebreak` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Dynamic instructions retired so far.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Iterates the non-zero bytes of memory in address order.
    pub fn mem_bytes(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        self.mem.iter().map(|(&a, &b)| (a, b))
    }

    /// Reads a 32-bit little-endian word from memory (zero for untouched
    /// bytes), without retiring anything. For assertions in tests.
    pub fn peek_word(&self, addr: u32) -> u32 {
        u32::from_le_bytes([
            self.load_byte(addr),
            self.load_byte(addr.wrapping_add(1)),
            self.load_byte(addr.wrapping_add(2)),
            self.load_byte(addr.wrapping_add(3)),
        ])
    }

    fn load_byte(&self, addr: u32) -> u8 {
        self.mem.get(&addr).copied().unwrap_or(0)
    }

    fn store_byte(&mut self, addr: u32, b: u8) {
        if b == 0 {
            self.mem.remove(&addr);
        } else {
            self.mem.insert(addr, b);
        }
    }

    fn load(&self, addr: u32, bytes: u32) -> u32 {
        let mut v = 0u32;
        for i in 0..bytes {
            v |= (self.load_byte(addr.wrapping_add(i)) as u32) << (8 * i);
        }
        v
    }

    fn store(&mut self, addr: u32, v: u32, bytes: u32) {
        for i in 0..bytes {
            self.store_byte(addr.wrapping_add(i), (v >> (8 * i)) as u8);
        }
    }

    fn write_rd(&mut self, rd: u8, v: u32) {
        if rd != 0 {
            self.regs[rd as usize] = v;
        }
    }

    /// Executes one instruction. Returns `Ok(None)` once halted.
    ///
    /// # Errors
    ///
    /// Returns an error if the program counter leaves the text section.
    pub fn step(&mut self) -> Result<Option<Retired>, ExecError> {
        if self.halted {
            return Ok(None);
        }
        let pc = self.pc;
        let index = (pc.wrapping_sub(TEXT_BASE) / 4) as usize;
        if pc < TEXT_BASE || !pc.is_multiple_of(4) || index >= self.text.len() {
            return Err(ExecError {
                pc,
                msg: format!(
                    "fetch outside text section ({} instructions at {TEXT_BASE:#x})",
                    self.text.len()
                ),
            });
        }
        let inst = self.text[index];
        let rs1 = self.regs[inst.rs1 as usize];
        let rs2 = self.regs[inst.rs2 as usize];
        let imm = inst.imm;
        let mut next_pc = pc.wrapping_add(4);
        let mut taken = None;
        let mut addr = None;
        match inst.op {
            Op::Add => self.write_rd(inst.rd, rs1.wrapping_add(rs2)),
            Op::Sub => self.write_rd(inst.rd, rs1.wrapping_sub(rs2)),
            Op::Sll => self.write_rd(inst.rd, rs1.wrapping_shl(rs2)),
            Op::Slt => self.write_rd(inst.rd, ((rs1 as i32) < (rs2 as i32)) as u32),
            Op::Sltu => self.write_rd(inst.rd, (rs1 < rs2) as u32),
            Op::Xor => self.write_rd(inst.rd, rs1 ^ rs2),
            Op::Srl => self.write_rd(inst.rd, rs1.wrapping_shr(rs2)),
            Op::Sra => self.write_rd(inst.rd, ((rs1 as i32).wrapping_shr(rs2)) as u32),
            Op::Or => self.write_rd(inst.rd, rs1 | rs2),
            Op::And => self.write_rd(inst.rd, rs1 & rs2),
            Op::Mul => self.write_rd(inst.rd, rs1.wrapping_mul(rs2)),
            Op::Mulh => {
                let p = (rs1 as i32 as i64).wrapping_mul(rs2 as i32 as i64);
                self.write_rd(inst.rd, (p >> 32) as u32);
            }
            Op::Mulhsu => {
                let p = (rs1 as i32 as i64).wrapping_mul(rs2 as i64);
                self.write_rd(inst.rd, (p >> 32) as u32);
            }
            Op::Mulhu => {
                let p = (rs1 as u64).wrapping_mul(rs2 as u64);
                self.write_rd(inst.rd, (p >> 32) as u32);
            }
            Op::Div => {
                let (a, b) = (rs1 as i32, rs2 as i32);
                let q = if b == 0 {
                    -1
                } else if a == i32::MIN && b == -1 {
                    i32::MIN
                } else {
                    a / b
                };
                self.write_rd(inst.rd, q as u32);
            }
            Op::Divu => self.write_rd(inst.rd, rs1.checked_div(rs2).unwrap_or(u32::MAX)),
            Op::Rem => {
                let (a, b) = (rs1 as i32, rs2 as i32);
                let r = if b == 0 {
                    a
                } else if a == i32::MIN && b == -1 {
                    0
                } else {
                    a % b
                };
                self.write_rd(inst.rd, r as u32);
            }
            Op::Remu => self.write_rd(inst.rd, if rs2 == 0 { rs1 } else { rs1 % rs2 }),
            Op::Addi => self.write_rd(inst.rd, rs1.wrapping_add(imm as u32)),
            Op::Slti => self.write_rd(inst.rd, ((rs1 as i32) < imm) as u32),
            Op::Sltiu => self.write_rd(inst.rd, (rs1 < imm as u32) as u32),
            Op::Xori => self.write_rd(inst.rd, rs1 ^ imm as u32),
            Op::Ori => self.write_rd(inst.rd, rs1 | imm as u32),
            Op::Andi => self.write_rd(inst.rd, rs1 & imm as u32),
            Op::Slli => self.write_rd(inst.rd, rs1 << (imm & 31)),
            Op::Srli => self.write_rd(inst.rd, rs1 >> (imm & 31)),
            Op::Srai => self.write_rd(inst.rd, ((rs1 as i32) >> (imm & 31)) as u32),
            Op::Lb => {
                let a = rs1.wrapping_add(imm as u32);
                addr = Some(a);
                self.write_rd(inst.rd, self.load(a, 1) as i8 as i32 as u32);
            }
            Op::Lh => {
                let a = rs1.wrapping_add(imm as u32);
                addr = Some(a);
                self.write_rd(inst.rd, self.load(a, 2) as i16 as i32 as u32);
            }
            Op::Lw => {
                let a = rs1.wrapping_add(imm as u32);
                addr = Some(a);
                self.write_rd(inst.rd, self.load(a, 4));
            }
            Op::Lbu => {
                let a = rs1.wrapping_add(imm as u32);
                addr = Some(a);
                self.write_rd(inst.rd, self.load(a, 1));
            }
            Op::Lhu => {
                let a = rs1.wrapping_add(imm as u32);
                addr = Some(a);
                self.write_rd(inst.rd, self.load(a, 2));
            }
            Op::Sb | Op::Sh | Op::Sw => {
                let a = rs1.wrapping_add(imm as u32);
                addr = Some(a);
                let bytes = match inst.op {
                    Op::Sb => 1,
                    Op::Sh => 2,
                    _ => 4,
                };
                self.store(a, rs2, bytes);
            }
            Op::Beq | Op::Bne | Op::Blt | Op::Bge | Op::Bltu | Op::Bgeu => {
                let t = match inst.op {
                    Op::Beq => rs1 == rs2,
                    Op::Bne => rs1 != rs2,
                    Op::Blt => (rs1 as i32) < (rs2 as i32),
                    Op::Bge => (rs1 as i32) >= (rs2 as i32),
                    Op::Bltu => rs1 < rs2,
                    _ => rs1 >= rs2,
                };
                taken = Some(t);
                if t {
                    next_pc = pc.wrapping_add(imm as u32);
                }
            }
            Op::Lui => self.write_rd(inst.rd, imm as u32),
            Op::Auipc => self.write_rd(inst.rd, pc.wrapping_add(imm as u32)),
            Op::Jal => {
                self.write_rd(inst.rd, pc.wrapping_add(4));
                taken = Some(true);
                next_pc = pc.wrapping_add(imm as u32);
            }
            Op::Jalr => {
                let target = rs1.wrapping_add(imm as u32) & !1;
                self.write_rd(inst.rd, pc.wrapping_add(4));
                taken = Some(true);
                next_pc = target;
            }
            Op::Ecall | Op::Ebreak => {
                self.halted = true;
                next_pc = pc;
            }
        }
        self.pc = next_pc;
        self.retired += 1;
        Ok(Some(Retired {
            pc,
            inst,
            taken,
            addr,
        }))
    }

    /// Runs until halt or `max_insts` retirements, returning the number of
    /// instructions retired by this call.
    ///
    /// # Errors
    ///
    /// Propagates [`ExecError`] from [`Machine::step`], and reports an
    /// error if the budget is exhausted before the program halts.
    pub fn run(&mut self, max_insts: u64) -> Result<u64, ExecError> {
        let mut n = 0;
        while n < max_insts {
            match self.step()? {
                Some(_) => n += 1,
                None => return Ok(n),
            }
        }
        if self.halted {
            Ok(n)
        } else {
            Err(ExecError {
                pc: self.pc,
                msg: format!("program did not halt within {max_insts} instructions"),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn machine_of(insts: Vec<Inst>) -> Machine {
        Machine::new(&Program::from_insts(&insts)).expect("decodable")
    }

    #[test]
    fn arithmetic_and_halt() {
        let mut m = machine_of(vec![
            Inst::i(Op::Addi, 5, 0, 40),
            Inst::i(Op::Addi, 6, 5, 2),
            Inst::r(Op::Add, 10, 5, 6),
            Inst::r(Op::Ecall, 0, 0, 0),
        ]);
        let n = m.run(100).unwrap();
        assert_eq!(n, 4);
        assert!(m.halted());
        assert_eq!(m.reg(10), 82);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut m = machine_of(vec![
            Inst::i(Op::Addi, 0, 0, 123),
            Inst::r(Op::Ecall, 0, 0, 0),
        ]);
        m.run(10).unwrap();
        assert_eq!(m.reg(0), 0);
    }

    #[test]
    fn memory_round_trips_with_sign_extension() {
        let mut m = machine_of(vec![
            Inst::i(Op::Addi, 5, 0, -2), // 0xfffffffe
            Inst::i(Op::Lui, 6, 0, DATA_BASE as i32),
            Inst::s(Op::Sh, 6, 5, 0),
            Inst::i(Op::Lh, 7, 6, 0),
            Inst::i(Op::Lhu, 8, 6, 0),
            Inst::r(Op::Ecall, 0, 0, 0),
        ]);
        m.run(10).unwrap();
        assert_eq!(m.reg(7), 0xffff_fffe);
        assert_eq!(m.reg(8), 0x0000_fffe);
    }

    #[test]
    fn div_edge_cases_follow_the_spec() {
        let mut m = machine_of(vec![
            Inst::i(Op::Addi, 5, 0, 7),
            Inst::r(Op::Div, 6, 5, 0),        // div by zero -> -1
            Inst::r(Op::Rem, 7, 5, 0),        // rem by zero -> dividend
            Inst::i(Op::Lui, 8, 0, i32::MIN), // 0x80000000
            Inst::i(Op::Addi, 9, 0, -1),
            Inst::r(Op::Div, 28, 8, 9), // overflow -> i32::MIN
            Inst::r(Op::Rem, 29, 8, 9), // overflow -> 0
            Inst::r(Op::Ecall, 0, 0, 0),
        ]);
        m.run(10).unwrap();
        assert_eq!(m.reg(6), u32::MAX);
        assert_eq!(m.reg(7), 7);
        assert_eq!(m.reg(28), 0x8000_0000);
        assert_eq!(m.reg(29), 0);
    }

    #[test]
    fn runaway_program_reports_no_halt() {
        let mut m = machine_of(vec![Inst::i(Op::Jal, 0, 0, 0)]); // jal x0, .
        let err = m.run(50).unwrap_err();
        assert!(err.msg.contains("did not halt"), "{err}");
    }
}
