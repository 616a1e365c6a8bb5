//! A two-pass RV32IM assembler for the workload corpus.
//!
//! The supported surface is the subset the corpus needs, written in
//! standard GNU `as` syntax: labels, `#` comments, ABI or `xN` register
//! names, decimal/hex immediates, `off(base)` memory operands, the
//! directives `.text`, `.data`, `.word`, `.space`, `.align`, `.globl`
//! (ignored), and a non-nesting `.rept N` / `.endr` repetition block for
//! compact microbenchmarks. The common pseudo-instructions (`li`, `la`,
//! `mv`, `nop`, `neg`, `j`, `jr`, `ret`, `call`, `beqz`, `bnez`, `bgt`,
//! `ble`) expand to base instructions.
//!
//! Every diagnostic carries the 1-based source line number — the parse
//! error tests in `tests/riscv_frontend.rs` pin that.

use std::collections::HashMap;
use std::fmt;

use super::inst::{Inst, Op};
use super::{DATA_BASE, DATA_LIMIT, TEXT_BASE, TEXT_LIMIT};

/// An assembly diagnostic, tied to a source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line the error was detected on.
    pub line: usize,
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.msg)
    }
}

impl std::error::Error for ParseError {}

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, ParseError> {
    Err(ParseError {
        line,
        msg: msg.into(),
    })
}

/// An assembled program: encoded text words and the static data image.
/// The load addresses are fixed by the module layout
/// ([`TEXT_BASE`]/[`DATA_BASE`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Encoded instruction words, in order from [`TEXT_BASE`].
    pub words: Vec<u32>,
    /// Initial data image, loaded at [`DATA_BASE`].
    pub data: Vec<u8>,
}

impl Program {
    /// Builds a program directly from instructions (no data section).
    /// Used by the per-opcode conformance tests, which exercise the
    /// encoder here and the decoder inside [`super::Machine::new`].
    pub fn from_insts(insts: &[Inst]) -> Program {
        Program {
            words: insts.iter().map(|i| i.encode()).collect(),
            data: Vec::new(),
        }
    }

    /// Decodes the text section back into instructions.
    ///
    /// # Errors
    ///
    /// Returns the index of the first undecodable word.
    pub fn decode_text(&self) -> Result<Vec<Inst>, usize> {
        self.words
            .iter()
            .enumerate()
            .map(|(i, &w)| Inst::decode(w).ok_or(i))
            .collect()
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Operand {
    Reg(u8),
    Imm(i64),
    Sym(String),
    Mem { offset: i64, base: u8 },
}

#[derive(Debug, Clone)]
struct PInst {
    line: usize,
    mnemonic: String,
    ops: Vec<Operand>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Section {
    Text,
    Data,
}

/// Assembles a source file into a [`Program`].
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered, with its source line.
pub fn assemble(src: &str) -> Result<Program, ParseError> {
    let lines = preprocess(src)?;

    // Pass 1: split labels/directives, size every instruction, lay out data.
    let mut section = Section::Text;
    let mut text: Vec<(PInst, u32)> = Vec::new(); // (inst, word offset)
    let mut word_off = 0u32;
    let mut data: Vec<u8> = Vec::new();
    let mut labels: HashMap<String, u32> = HashMap::new();
    for (line, stmt) in &lines {
        let line = *line;
        let mut rest = stmt.as_str();
        while let Some((label, tail)) = split_label(rest) {
            let addr = match section {
                Section::Text => TEXT_BASE + 4 * word_off,
                Section::Data => DATA_BASE + data.len() as u32,
            };
            if labels.insert(label.to_string(), addr).is_some() {
                return err(line, format!("duplicate label `{label}`"));
            }
            rest = tail;
        }
        if rest.is_empty() {
            continue;
        }
        if let Some(directive) = rest.strip_prefix('.') {
            apply_directive(line, directive, &mut section, &mut data)?;
            continue;
        }
        if section == Section::Data {
            return err(line, "instruction in .data section");
        }
        let pinst = parse_inst(line, rest)?;
        let n = words_for(&pinst)?;
        text.push((pinst, word_off));
        word_off += n;
        if word_off * 4 > TEXT_LIMIT {
            return err(line, format!("text section exceeds {TEXT_LIMIT} bytes"));
        }
    }

    // Pass 2: encode with all label addresses known.
    let mut words = Vec::with_capacity(word_off as usize);
    for (pinst, off) in &text {
        let addr = TEXT_BASE + 4 * off;
        let insts = encode_inst(pinst, addr, &labels)?;
        debug_assert_eq!(insts.len() as u32, words_for(pinst).unwrap());
        words.extend(insts.iter().map(|i| i.encode()));
    }
    Ok(Program { words, data })
}

/// Strips comments, drops blank lines, and expands `.rept`/`.endr` blocks.
/// Returns `(source line, statement)` pairs; expanded lines keep the line
/// number of their body line so diagnostics stay accurate.
type ReptBlock = (usize, u32, Vec<(usize, String)>);

fn preprocess(src: &str) -> Result<Vec<(usize, String)>, ParseError> {
    let mut out = Vec::new();
    let mut rept: Option<ReptBlock> = None;
    for (i, raw) in src.lines().enumerate() {
        let line = i + 1;
        let text = raw.split('#').next().unwrap_or("").trim();
        if text.is_empty() {
            continue;
        }
        if let Some(arg) = text.strip_prefix(".rept") {
            if rept.is_some() {
                return err(line, ".rept blocks cannot nest");
            }
            let count = parse_imm(arg.trim())
                .filter(|&n| (1..=100_000).contains(&n))
                .ok_or_else(|| ParseError {
                    line,
                    msg: format!("bad .rept count `{}`", arg.trim()),
                })?;
            rept = Some((line, count as u32, Vec::new()));
        } else if text == ".endr" {
            let Some((_, count, body)) = rept.take() else {
                return err(line, ".endr without matching .rept");
            };
            for _ in 0..count {
                out.extend(body.iter().cloned());
            }
        } else if let Some((_, _, body)) = &mut rept {
            body.push((line, text.to_string()));
        } else {
            out.push((line, text.to_string()));
        }
    }
    if let Some((line, _, _)) = rept {
        return err(line, ".rept without matching .endr");
    }
    Ok(out)
}

/// If the statement starts with `label:`, returns the label and remainder.
fn split_label(stmt: &str) -> Option<(&str, &str)> {
    let colon = stmt.find(':')?;
    let (head, tail) = stmt.split_at(colon);
    let head = head.trim_end();
    if head.is_empty() || !is_ident(head) {
        return None;
    }
    Some((head, tail[1..].trim_start()))
}

fn is_ident(s: &str) -> bool {
    let mut chars = s.chars();
    chars
        .next()
        .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
}

fn apply_directive(
    line: usize,
    directive: &str,
    section: &mut Section,
    data: &mut Vec<u8>,
) -> Result<(), ParseError> {
    let (name, arg) = match directive.split_once(char::is_whitespace) {
        Some((n, a)) => (n, a.trim()),
        None => (directive, ""),
    };
    match name {
        "text" => *section = Section::Text,
        "data" => *section = Section::Data,
        "globl" | "global" => {}
        "word" => {
            if *section != Section::Data {
                return err(line, ".word outside .data section");
            }
            for tok in arg.split(',') {
                let v = parse_imm(tok.trim()).ok_or_else(|| ParseError {
                    line,
                    msg: format!("bad .word value `{}`", tok.trim()),
                })?;
                data.extend_from_slice(&(v as u32).to_le_bytes());
            }
        }
        "space" => {
            if *section != Section::Data {
                return err(line, ".space outside .data section");
            }
            let n = parse_imm(arg)
                .filter(|&n| (0..=DATA_LIMIT as i64).contains(&n))
                .ok_or_else(|| ParseError {
                    line,
                    msg: format!("bad .space size `{arg}`"),
                })?;
            data.extend(std::iter::repeat_n(0u8, n as usize));
        }
        "align" => {
            if *section != Section::Data {
                return err(line, ".align outside .data section");
            }
            let n = parse_imm(arg)
                .filter(|&n| (0..=12).contains(&n))
                .ok_or_else(|| ParseError {
                    line,
                    msg: format!("bad .align amount `{arg}`"),
                })?;
            while !data.len().is_multiple_of(1usize << n) {
                data.push(0);
            }
        }
        _ => return err(line, format!("unknown directive `.{name}`")),
    }
    if data.len() > DATA_LIMIT as usize {
        return err(line, format!("data section exceeds {DATA_LIMIT} bytes"));
    }
    Ok(())
}

fn parse_inst(line: usize, stmt: &str) -> Result<PInst, ParseError> {
    let (mnemonic, rest) = match stmt.split_once(char::is_whitespace) {
        Some((m, r)) => (m, r.trim()),
        None => (stmt, ""),
    };
    let mut ops = Vec::new();
    if !rest.is_empty() {
        for tok in rest.split(',') {
            ops.push(parse_operand(line, tok.trim())?);
        }
    }
    Ok(PInst {
        line,
        mnemonic: mnemonic.to_ascii_lowercase(),
        ops,
    })
}

fn parse_operand(line: usize, tok: &str) -> Result<Operand, ParseError> {
    if tok.is_empty() {
        return err(line, "empty operand");
    }
    // off(base) memory operand
    if let Some(open) = tok.find('(') {
        let Some(inner) = tok[open + 1..].strip_suffix(')') else {
            return err(line, format!("malformed memory operand `{tok}`"));
        };
        let base = reg_num(inner.trim()).ok_or_else(|| ParseError {
            line,
            msg: format!("unknown register `{}`", inner.trim()),
        })?;
        let off_str = tok[..open].trim();
        let offset = if off_str.is_empty() {
            0
        } else {
            parse_imm(off_str).ok_or_else(|| ParseError {
                line,
                msg: format!("bad memory offset `{off_str}`"),
            })?
        };
        return Ok(Operand::Mem { offset, base });
    }
    if let Some(r) = reg_num(tok) {
        return Ok(Operand::Reg(r));
    }
    if tok.starts_with(|c: char| c.is_ascii_digit() || c == '-' || c == '+') {
        return match parse_imm(tok) {
            Some(v) => Ok(Operand::Imm(v)),
            None => err(line, format!("bad immediate `{tok}`")),
        };
    }
    if is_ident(tok) {
        return Ok(Operand::Sym(tok.to_string()));
    }
    err(line, format!("bad operand `{tok}`"))
}

/// Parses a decimal or `0x` hex immediate with at most one leading sign.
fn parse_imm(s: &str) -> Option<i64> {
    let (neg, body) = match s.strip_prefix('-') {
        Some(b) => (true, b),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    let (digits, radix) = match body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        Some(hex) => (hex, 16),
        None => (body, 10),
    };
    // `from_str_radix` takes a sign of its own, so `--5` or `0x-8` would
    // parse: only the one sign above may lead.
    if !digits.bytes().all(|b| char::from(b).is_digit(radix)) {
        return None;
    }
    let v = i64::from_str_radix(digits, radix).ok()?;
    if neg {
        v.checked_neg()
    } else {
        Some(v)
    }
}

fn reg_num(name: &str) -> Option<u8> {
    let n = match name {
        "zero" => 0,
        "ra" => 1,
        "sp" => 2,
        "gp" => 3,
        "tp" => 4,
        "t0" => 5,
        "t1" => 6,
        "t2" => 7,
        "s0" | "fp" => 8,
        "s1" => 9,
        _ => {
            // Split after the first character, not the first byte: an
            // operand may start with any character.
            let mut chars = name.chars();
            let prefix = chars.next()?;
            let digits = chars.as_str();
            // Digits only: `u8::from_str` would take `x+1` as `x1`.
            if !digits.bytes().all(|b| b.is_ascii_digit()) {
                return None;
            }
            let idx: u8 = digits.parse().ok()?;
            return match prefix {
                'x' if idx < 32 => Some(idx),
                'a' if idx < 8 => Some(10 + idx),
                's' if (2..=11).contains(&idx) => Some(16 + idx),
                't' if (3..=6).contains(&idx) => Some(25 + idx),
                _ => None,
            };
        }
    };
    Some(n)
}

/// Number of encoded words a (possibly pseudo) instruction expands to.
/// Also the mnemonic-existence check for pass 1.
fn words_for(p: &PInst) -> Result<u32, ParseError> {
    match p.mnemonic.as_str() {
        "li" => match p.ops.get(1) {
            Some(Operand::Imm(v)) if (-2048..=2047).contains(v) => Ok(1),
            _ => Ok(2),
        },
        "la" => Ok(2),
        m if mnemonic_op(m).is_some() || is_pseudo(m) => Ok(1),
        m => err(p.line, format!("unknown mnemonic `{m}`")),
    }
}

fn is_pseudo(m: &str) -> bool {
    matches!(
        m,
        "nop" | "mv" | "neg" | "j" | "jr" | "ret" | "call" | "beqz" | "bnez" | "bgt" | "ble"
    )
}

fn mnemonic_op(m: &str) -> Option<Op> {
    Op::ALL.into_iter().find(|op| op.mnemonic() == m)
}

struct Ctx<'a> {
    line: usize,
    addr: u32,
    labels: &'a HashMap<String, u32>,
}

impl Ctx<'_> {
    fn reg(&self, op: Option<&Operand>) -> Result<u8, ParseError> {
        match op {
            Some(Operand::Reg(r)) => Ok(*r),
            Some(other) => err(self.line, format!("expected register, got `{other:?}`")),
            None => err(self.line, "missing register operand"),
        }
    }

    fn imm(&self, op: Option<&Operand>, lo: i64, hi: i64) -> Result<i32, ParseError> {
        match op {
            Some(Operand::Imm(v)) => {
                if (lo..=hi).contains(v) {
                    Ok(*v as i32)
                } else {
                    err(
                        self.line,
                        format!("immediate {v} out of range [{lo}, {hi}]"),
                    )
                }
            }
            Some(other) => err(self.line, format!("expected immediate, got `{other:?}`")),
            None => err(self.line, "missing immediate operand"),
        }
    }

    fn mem(&self, op: Option<&Operand>) -> Result<(u8, i32), ParseError> {
        match op {
            Some(Operand::Mem { offset, base }) => {
                if (-2048..=2047).contains(offset) {
                    Ok((*base, *offset as i32))
                } else {
                    err(self.line, format!("memory offset {offset} out of range"))
                }
            }
            Some(other) => err(
                self.line,
                format!("expected `off(reg)` operand, got `{other:?}`"),
            ),
            None => err(self.line, "missing memory operand"),
        }
    }

    /// Resolves a branch/jump target to a byte offset from this instruction.
    /// Labels resolve through the symbol table; a bare immediate is taken
    /// as an explicit byte offset.
    fn target(&self, op: Option<&Operand>, range: i64) -> Result<i32, ParseError> {
        let offset = match op {
            Some(Operand::Sym(s)) => match self.labels.get(s) {
                Some(&t) => t as i64 - self.addr as i64,
                None => return err(self.line, format!("unknown label `{s}`")),
            },
            Some(Operand::Imm(v)) => *v,
            Some(other) => {
                return err(self.line, format!("expected label, got `{other:?}`"));
            }
            None => return err(self.line, "missing branch target"),
        };
        if offset % 2 != 0 || !(-range..range).contains(&offset) {
            return err(
                self.line,
                format!("branch target offset {offset} out of range"),
            );
        }
        Ok(offset as i32)
    }

    fn sym_addr(&self, op: Option<&Operand>) -> Result<u32, ParseError> {
        match op {
            Some(Operand::Sym(s)) => match self.labels.get(s) {
                Some(&t) => Ok(t),
                None => err(self.line, format!("unknown label `{s}`")),
            },
            Some(other) => err(self.line, format!("expected label, got `{other:?}`")),
            None => err(self.line, "missing label operand"),
        }
    }

    fn arity(&self, ops: &[Operand], n: usize) -> Result<(), ParseError> {
        if ops.len() == n {
            Ok(())
        } else {
            err(
                self.line,
                format!("expected {n} operands, got {}", ops.len()),
            )
        }
    }
}

/// Splits a 32-bit value for a `lui`+`addi` pair: `hi` has the low 12 bits
/// clear and `hi + sign_extend(lo) == v`.
fn hi_lo(v: u32) -> (i32, i32) {
    let lo = ((v & 0xfff) as i32) << 20 >> 20;
    let hi = v.wrapping_sub(lo as u32);
    (hi as i32, lo)
}

fn encode_inst(
    p: &PInst,
    addr: u32,
    labels: &HashMap<String, u32>,
) -> Result<Vec<Inst>, ParseError> {
    let c = Ctx {
        line: p.line,
        addr,
        labels,
    };
    let ops = &p.ops;
    let one = |i: Inst| Ok(vec![i]);
    if let Some(op) = mnemonic_op(&p.mnemonic) {
        return match op {
            _ if op.is_r_type() => {
                c.arity(ops, 3)?;
                one(Inst::r(
                    op,
                    c.reg(ops.first())?,
                    c.reg(ops.get(1))?,
                    c.reg(ops.get(2))?,
                ))
            }
            Op::Addi | Op::Slti | Op::Sltiu | Op::Xori | Op::Ori | Op::Andi => {
                c.arity(ops, 3)?;
                one(Inst::i(
                    op,
                    c.reg(ops.first())?,
                    c.reg(ops.get(1))?,
                    c.imm(ops.get(2), -2048, 2047)?,
                ))
            }
            Op::Slli | Op::Srli | Op::Srai => {
                c.arity(ops, 3)?;
                one(Inst::i(
                    op,
                    c.reg(ops.first())?,
                    c.reg(ops.get(1))?,
                    c.imm(ops.get(2), 0, 31)?,
                ))
            }
            _ if op.is_load() => {
                c.arity(ops, 2)?;
                let rd = c.reg(ops.first())?;
                let (base, off) = c.mem(ops.get(1))?;
                one(Inst::i(op, rd, base, off))
            }
            _ if op.is_store() => {
                c.arity(ops, 2)?;
                let rs2 = c.reg(ops.first())?;
                let (base, off) = c.mem(ops.get(1))?;
                one(Inst::s(op, base, rs2, off))
            }
            _ if op.is_branch() => {
                c.arity(ops, 3)?;
                one(Inst::s(
                    op,
                    c.reg(ops.first())?,
                    c.reg(ops.get(1))?,
                    c.target(ops.get(2), 4096)?,
                ))
            }
            Op::Lui | Op::Auipc => {
                c.arity(ops, 2)?;
                let v = c.imm(ops.get(1), 0, 0xf_ffff)?;
                one(Inst::i(
                    op,
                    c.reg(ops.first())?,
                    0,
                    ((v as u32) << 12) as i32,
                ))
            }
            Op::Jal => match ops.len() {
                1 => one(Inst::i(Op::Jal, 1, 0, c.target(ops.first(), 1 << 20)?)),
                _ => {
                    c.arity(ops, 2)?;
                    one(Inst::i(
                        Op::Jal,
                        c.reg(ops.first())?,
                        0,
                        c.target(ops.get(1), 1 << 20)?,
                    ))
                }
            },
            Op::Jalr => match ops.len() {
                1 => one(Inst::i(Op::Jalr, 1, c.reg(ops.first())?, 0)),
                _ => {
                    c.arity(ops, 3)?;
                    one(Inst::i(
                        Op::Jalr,
                        c.reg(ops.first())?,
                        c.reg(ops.get(1))?,
                        c.imm(ops.get(2), -2048, 2047)?,
                    ))
                }
            },
            Op::Ecall | Op::Ebreak => {
                c.arity(ops, 0)?;
                one(Inst::r(op, 0, 0, 0))
            }
            _ => unreachable!("handled above"),
        };
    }
    match p.mnemonic.as_str() {
        "nop" => {
            c.arity(ops, 0)?;
            one(Inst::i(Op::Addi, 0, 0, 0))
        }
        "mv" => {
            c.arity(ops, 2)?;
            one(Inst::i(
                Op::Addi,
                c.reg(ops.first())?,
                c.reg(ops.get(1))?,
                0,
            ))
        }
        "neg" => {
            c.arity(ops, 2)?;
            one(Inst::r(Op::Sub, c.reg(ops.first())?, 0, c.reg(ops.get(1))?))
        }
        "li" => {
            c.arity(ops, 2)?;
            let rd = c.reg(ops.first())?;
            let v = c.imm(ops.get(1), -(1 << 31), (1 << 32) - 1)?;
            if (-2048..=2047).contains(&(v as i64))
                && matches!(ops.get(1), Some(Operand::Imm(raw)) if (-2048..=2047).contains(raw))
            {
                return one(Inst::i(Op::Addi, rd, 0, v));
            }
            let (hi, lo) = hi_lo(v as u32);
            Ok(vec![
                Inst::i(Op::Lui, rd, 0, hi),
                Inst::i(Op::Addi, rd, rd, lo),
            ])
        }
        "la" => {
            c.arity(ops, 2)?;
            let rd = c.reg(ops.first())?;
            let (hi, lo) = hi_lo(c.sym_addr(ops.get(1))?);
            Ok(vec![
                Inst::i(Op::Lui, rd, 0, hi),
                Inst::i(Op::Addi, rd, rd, lo),
            ])
        }
        "j" => {
            c.arity(ops, 1)?;
            one(Inst::i(Op::Jal, 0, 0, c.target(ops.first(), 1 << 20)?))
        }
        "jr" => {
            c.arity(ops, 1)?;
            one(Inst::i(Op::Jalr, 0, c.reg(ops.first())?, 0))
        }
        "ret" => {
            c.arity(ops, 0)?;
            one(Inst::i(Op::Jalr, 0, 1, 0))
        }
        "call" => {
            c.arity(ops, 1)?;
            one(Inst::i(Op::Jal, 1, 0, c.target(ops.first(), 1 << 20)?))
        }
        "beqz" => {
            c.arity(ops, 2)?;
            one(Inst::s(
                Op::Beq,
                c.reg(ops.first())?,
                0,
                c.target(ops.get(1), 4096)?,
            ))
        }
        "bnez" => {
            c.arity(ops, 2)?;
            one(Inst::s(
                Op::Bne,
                c.reg(ops.first())?,
                0,
                c.target(ops.get(1), 4096)?,
            ))
        }
        "bgt" => {
            c.arity(ops, 3)?;
            one(Inst::s(
                Op::Blt,
                c.reg(ops.get(1))?,
                c.reg(ops.first())?,
                c.target(ops.get(2), 4096)?,
            ))
        }
        "ble" => {
            c.arity(ops, 3)?;
            one(Inst::s(
                Op::Bge,
                c.reg(ops.get(1))?,
                c.reg(ops.first())?,
                c.target(ops.get(2), 4096)?,
            ))
        }
        m => err(p.line, format!("unknown mnemonic `{m}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_and_branches_resolve() {
        let p = assemble(
            "li t0, 3\n\
             loop: addi t0, t0, -1\n\
             bnez t0, loop\n\
             ecall\n",
        )
        .unwrap();
        assert_eq!(p.words.len(), 4);
        let insts = p.decode_text().unwrap();
        assert_eq!(insts[2].op, Op::Bne);
        assert_eq!(insts[2].imm, -4);
    }

    #[test]
    fn li_splits_large_immediates() {
        let p = assemble("li a0, 0x12345678\necall\n").unwrap();
        let insts = p.decode_text().unwrap();
        assert_eq!(insts[0].op, Op::Lui);
        assert_eq!(insts[1].op, Op::Addi);
        // lui + sign-extended addi reconstruct the value
        let v = (insts[0].imm as u32).wrapping_add(insts[1].imm as u32);
        assert_eq!(v, 0x1234_5678);
    }

    #[test]
    fn la_points_at_data_labels() {
        let p = assemble(
            ".data\n\
             buf: .space 16\n\
             val: .word 7, -1\n\
             .text\n\
             la t0, val\n\
             lw t1, 0(t0)\n\
             ecall\n",
        )
        .unwrap();
        assert_eq!(p.data.len(), 24);
        assert_eq!(&p.data[16..20], &7u32.to_le_bytes());
        let insts = p.decode_text().unwrap();
        let resolved = (insts[0].imm as u32).wrapping_add(insts[1].imm as u32);
        assert_eq!(resolved, DATA_BASE + 16);
    }

    #[test]
    fn rept_expands() {
        let p = assemble(".rept 5\nnop\n.endr\necall\n").unwrap();
        assert_eq!(p.words.len(), 6);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("nop\nfrobnicate t0, t1\n", 2, "unknown mnemonic"),
            ("add t0, q9, t1\n", 1, "expected register"),
            ("addi t0, t1, 99999\n", 1, "out of range"),
            ("nop\nnop\nbeqz t0, nowhere\n", 3, "unknown label"),
            ("x: nop\nx: nop\n", 2, "duplicate label"),
            (".rept 2\nnop\n", 1, ".endr"),
            ("lw t0, 4(q7)\n", 1, "unknown register"),
        ];
        for (src, line, needle) in cases {
            let e = assemble(src).unwrap_err();
            assert_eq!(e.line, *line, "{src:?} -> {e}");
            assert!(e.msg.contains(needle), "{src:?} -> {e}");
        }
    }

    #[test]
    fn register_names_cover_abi_and_numeric() {
        assert_eq!(reg_num("zero"), Some(0));
        assert_eq!(reg_num("sp"), Some(2));
        assert_eq!(reg_num("fp"), Some(8));
        assert_eq!(reg_num("a7"), Some(17));
        assert_eq!(reg_num("s11"), Some(27));
        assert_eq!(reg_num("t6"), Some(31));
        assert_eq!(reg_num("x31"), Some(31));
        assert_eq!(reg_num("x32"), None);
        assert_eq!(reg_num("a8"), None);
    }
}
