//! Conformance tier for the RISC-V frontend: every RV32IM opcode is
//! encoded, decoded, executed, and checked against an architectural
//! reference computed independently in this file; the assembler is
//! round-tripped through its own decoder; parse errors are pinned to
//! their line numbers; and the corpus programs' end-of-run architectural
//! state (dynamic instruction count, exit code, register/memory CRCs) is
//! snapshotted against a blessed golden.
//!
//! Execution always flows through the decoder — `Machine::new` decodes
//! every text word before running — so the per-opcode tests pin encoder,
//! decoder, and executor against each other in one pass.
//!
//! Re-bless the corpus golden only for an *intentional* program or
//! lowering change:
//!
//! ```text
//! RESTUNE_BLESS=1 cargo test --test riscv_frontend
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use cpusim::riscv::{assemble, Inst, Machine, Op, Program, DATA_BASE, TEXT_BASE};
use proptest::prelude::*;
use workloads::corpus;

/// Builds `li rd, value` as lui+addi (or a bare addi), mirroring the
/// RISC-V hi/lo split so any 32-bit constant can be materialized.
fn li32(rd: u8, value: u32) -> Vec<Inst> {
    let v = value as i32;
    if (-2048..=2047).contains(&v) {
        return vec![Inst::i(Op::Addi, rd, 0, v)];
    }
    let lo = (v << 20) >> 20; // sign-extended low 12 bits
    let hi = v.wrapping_sub(lo); // low 12 bits clear
    let mut out = vec![Inst::i(Op::Lui, rd, 0, hi)];
    if lo != 0 {
        out.push(Inst::i(Op::Addi, rd, rd, lo));
    }
    out
}

/// Appends a halting `ecall`, runs the program to completion through
/// decode, and returns the halted machine.
fn exec(mut body: Vec<Inst>) -> Machine {
    body.push(Inst::i(Op::Ecall, 0, 0, 0));
    let program = Program::from_insts(&body);
    let mut m = Machine::new(&program).expect("test program must decode");
    m.run(10_000).expect("test program must halt");
    assert!(m.halted());
    m
}

/// The architectural reference for every register-register op, written
/// directly from the RV32IM spec (independently of `exec.rs`).
fn r_type_ref(op: Op, a: u32, b: u32) -> u32 {
    let (sa, sb) = (a as i32, b as i32);
    match op {
        Op::Add => a.wrapping_add(b),
        Op::Sub => a.wrapping_sub(b),
        Op::Sll => a.wrapping_shl(b),
        Op::Slt => u32::from(sa < sb),
        Op::Sltu => u32::from(a < b),
        Op::Xor => a ^ b,
        Op::Srl => a.wrapping_shr(b),
        Op::Sra => (sa >> (b & 31)) as u32,
        Op::Or => a | b,
        Op::And => a & b,
        Op::Mul => a.wrapping_mul(b),
        Op::Mulh => ((sa as i64 * sb as i64) >> 32) as u32,
        Op::Mulhsu => ((sa as i64).wrapping_mul(b as i64) >> 32) as u32,
        Op::Mulhu => ((a as u64 * b as u64) >> 32) as u32,
        Op::Div => {
            if b == 0 {
                u32::MAX
            } else if sa == i32::MIN && sb == -1 {
                a
            } else {
                (sa / sb) as u32
            }
        }
        Op::Divu => a.checked_div(b).unwrap_or(u32::MAX),
        Op::Rem => {
            if b == 0 {
                a
            } else if sa == i32::MIN && sb == -1 {
                0
            } else {
                (sa % sb) as u32
            }
        }
        Op::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
        other => panic!("not an R-type op: {other:?}"),
    }
}

/// Operand pairs covering sign boundaries, shift-amount masking, and the
/// division edge cases the spec calls out.
const OPERANDS: [(u32, u32); 7] = [
    (13, 5),
    (0xffff_fffb, 3),           // -5, 3
    (0x8000_0000, 0xffff_ffff), // i32::MIN, -1: division overflow case
    (0x8000_0000, 0),           // division by zero
    (1, 33),                    // shift amount masked to 1
    (0xdead_beef, 0x0101_0101),
    (0, 0xffff_ffff),
];

#[test]
fn every_r_type_op_encodes_decodes_and_executes() {
    let r_ops = Op::ALL.iter().copied().filter(|o| o.is_r_type());
    let mut covered = 0;
    for op in r_ops {
        for &(a, b) in &OPERANDS {
            let inst = Inst::r(op, 7, 5, 6);
            assert_eq!(
                Inst::decode(inst.encode()),
                Some(inst),
                "{op:?} must round-trip through encode/decode"
            );
            let mut body = li32(5, a);
            body.extend(li32(6, b));
            body.push(inst);
            let m = exec(body);
            assert_eq!(m.reg(7), r_type_ref(op, a, b), "{op:?} x7, {a:#x}, {b:#x}");
        }
        covered += 1;
    }
    assert_eq!(covered, 18, "10 base + 8 M-extension R-type ops");
}

#[test]
fn every_i_type_op_executes_against_the_reference() {
    // (op, rs1 value, imm, expected) — immediates exercise sign extension
    // and the shift ops' shamt field.
    let cases: &[(Op, u32, i32, u32)] = &[
        (Op::Addi, 10, -3, 7),
        (Op::Addi, 0xffff_ffff, 1, 0),
        (Op::Slti, 0xffff_fffb, -4, 1), // -5 < -4 signed
        (Op::Slti, 3, -4, 0),
        (Op::Sltiu, 3, -1, 1), // imm sign-extends to u32::MAX
        (Op::Sltiu, 3, 2, 0),
        (Op::Xori, 0b1100, 0b1010, 0b0110),
        (Op::Xori, 5, -1, !5), // the classic not idiom
        (Op::Ori, 0b1100, 0b1010, 0b1110),
        (Op::Andi, 0b1100, 0b1010, 0b1000),
        (Op::Slli, 1, 31, 1 << 31),
        (Op::Srli, 0x8000_0000, 31, 1),
        (Op::Srai, 0x8000_0000, 31, 0xffff_ffff),
    ];
    for &(op, a, imm, want) in cases {
        let inst = Inst::i(op, 7, 5, imm);
        assert_eq!(Inst::decode(inst.encode()), Some(inst), "{op:?}");
        let mut body = li32(5, a);
        body.push(inst);
        let m = exec(body);
        assert_eq!(m.reg(7), want, "{op:?} x7, x5={a:#x}, imm={imm}");
    }
}

#[test]
fn loads_and_stores_round_trip_with_extension_semantics() {
    // Store 0x8765_4321 at DATA_BASE, plus a sign-bit-heavy byte pattern
    // just above it, then read everything back through every load op.
    let setup = |extra: Vec<Inst>| {
        let mut body = li32(5, DATA_BASE);
        body.extend(li32(6, 0x8765_4321));
        body.push(Inst::s(Op::Sw, 5, 6, 0));
        body.extend(li32(6, 0xfedc_ba98));
        body.push(Inst::s(Op::Sw, 5, 6, 4));
        body.extend(extra);
        body
    };

    let cases: &[(Op, i32, u32)] = &[
        (Op::Lw, 0, 0x8765_4321),
        (Op::Lw, 4, 0xfedc_ba98),
        (Op::Lb, 0, 0x21),
        (Op::Lb, 3, 0xffff_ff87), // sign-extended 0x87
        (Op::Lbu, 3, 0x87),
        (Op::Lh, 0, 0x4321),
        (Op::Lh, 2, 0xffff_8765), // sign-extended 0x8765
        (Op::Lhu, 2, 0x8765),
        (Op::Lhu, 4, 0xba98),
    ];
    for &(op, offset, want) in cases {
        let inst = Inst::i(op, 7, 5, offset);
        assert_eq!(Inst::decode(inst.encode()), Some(inst), "{op:?}");
        let m = exec(setup(vec![inst]));
        assert_eq!(m.reg(7), want, "{op:?} x7, {offset}(x5)");
    }

    // Sub-word stores merge into the surrounding word.
    let mut body = setup(Vec::new());
    body.extend(li32(6, 0xaa));
    body.push(Inst::s(Op::Sb, 5, 6, 1));
    body.extend(li32(6, 0xbeef));
    body.push(Inst::s(Op::Sh, 5, 6, 6));
    for &(op, offset) in &[(Op::Sb, 1), (Op::Sh, 6)] {
        let inst = Inst::s(op, 5, 6, offset);
        assert_eq!(Inst::decode(inst.encode()), Some(inst), "{op:?}");
    }
    let m = exec(body);
    assert_eq!(m.peek_word(DATA_BASE), 0x8765_aa21, "sb merges byte 1");
    assert_eq!(m.peek_word(DATA_BASE + 4), 0xbeef_ba98, "sh merges half 1");
}

#[test]
fn every_branch_op_takes_and_falls_through_correctly() {
    /// The spec predicate for each branch, computed independently.
    fn taken_ref(op: Op, a: u32, b: u32) -> bool {
        match op {
            Op::Beq => a == b,
            Op::Bne => a != b,
            Op::Blt => (a as i32) < (b as i32),
            Op::Bge => (a as i32) >= (b as i32),
            Op::Bltu => a < b,
            Op::Bgeu => a >= b,
            other => panic!("not a branch: {other:?}"),
        }
    }
    let pairs = [
        (5u32, 5u32),
        (5, 6),
        (0xffff_fffb, 3), // -5 vs 3: signed and unsigned disagree
        (3, 0xffff_fffb),
    ];
    for op in Op::ALL.iter().copied().filter(|o| o.is_branch()) {
        for &(a, b) in &pairs {
            // x7 = 1 only on the fall-through path; a taken branch skips
            // the marker (branch imm 8 = two instructions forward).
            let inst = Inst::s(op, 5, 6, 8);
            assert_eq!(Inst::decode(inst.encode()), Some(inst), "{op:?}");
            let mut body = li32(5, a);
            body.extend(li32(6, b));
            body.push(inst);
            body.push(Inst::i(Op::Addi, 7, 0, 1));
            let m = exec(body);
            let want = u32::from(!taken_ref(op, a, b));
            assert_eq!(m.reg(7), want, "{op:?} x5={a:#x} x6={b:#x}");
        }
    }
}

#[test]
fn upper_immediates_jumps_and_system_ops_execute() {
    // lui: the full value with low 12 bits clear.
    let lui = Inst::i(Op::Lui, 7, 0, 0x12345u32.wrapping_shl(12) as i32);
    assert_eq!(Inst::decode(lui.encode()), Some(lui));
    assert_eq!(exec(vec![lui]).reg(7), 0x1234_5000);

    // auipc at instruction index 0: TEXT_BASE + (imm << 12).
    let auipc = Inst::i(Op::Auipc, 7, 0, 0x1000);
    assert_eq!(Inst::decode(auipc.encode()), Some(auipc));
    assert_eq!(exec(vec![auipc]).reg(7), TEXT_BASE + 0x1000);

    // jal at index 0 skips the marker and links TEXT_BASE + 4.
    let jal = Inst::i(Op::Jal, 1, 0, 8);
    assert_eq!(Inst::decode(jal.encode()), Some(jal));
    let m = exec(vec![jal, Inst::i(Op::Addi, 7, 0, 1)]);
    assert_eq!(m.reg(7), 0, "jal must skip the marker");
    assert_eq!(m.reg(1), TEXT_BASE + 4, "jal links pc + 4");

    // jalr clears bit 0 of the computed target and links pc + 4.
    let target = TEXT_BASE + 16; // the ecall below
    let mut body = li32(5, target + 1); // odd on purpose
    assert_eq!(body.len(), 2, "li32 of a text address is lui+addi");
    let jalr = Inst::i(Op::Jalr, 1, 5, 0);
    assert_eq!(Inst::decode(jalr.encode()), Some(jalr));
    body.push(jalr);
    body.push(Inst::i(Op::Addi, 7, 0, 1)); // skipped
    let m = exec(body);
    assert_eq!(m.reg(7), 0, "jalr must land on the ecall, not the marker");
    assert_eq!(m.reg(1), TEXT_BASE + 12, "jalr links pc + 4");

    // ecall and ebreak both halt; x0 stays hardwired to zero throughout.
    for op in [Op::Ecall, Op::Ebreak] {
        let inst = Inst::i(op, 0, 0, 0);
        assert_eq!(Inst::decode(inst.encode()), Some(inst), "{op:?}");
        let program = Program::from_insts(&[Inst::i(Op::Addi, 0, 0, 5), inst]);
        let mut m = Machine::new(&program).expect("decodes");
        m.run(10).expect("halts");
        assert!(m.halted(), "{op:?} must halt the machine");
        assert_eq!(m.retired(), 2);
        assert_eq!(m.reg(0), 0, "writes to x0 must be discarded");
    }
}

#[test]
fn conformance_suite_covers_every_opcode() {
    // The tests above are table-driven; this pins that between them the
    // tables span all 47 opcodes, so adding an Op without a conformance
    // case fails here rather than silently shrinking coverage.
    let by_class = |op: Op| {
        op.is_r_type()
            || op.is_load()
            || op.is_store()
            || op.is_branch()
            || matches!(
                op,
                Op::Addi
                    | Op::Slti
                    | Op::Sltiu
                    | Op::Xori
                    | Op::Ori
                    | Op::Andi
                    | Op::Slli
                    | Op::Srli
                    | Op::Srai
                    | Op::Lui
                    | Op::Auipc
                    | Op::Jal
                    | Op::Jalr
                    | Op::Ecall
                    | Op::Ebreak
            )
    };
    assert!(Op::ALL.iter().all(|&op| by_class(op)));
    assert_eq!(Op::ALL.len(), 47);
}

// --- assembler ---

#[test]
fn assembler_round_trips_through_its_own_decoder() {
    // One of everything, in assembly syntax: the assembled words must
    // decode back to exactly the instructions the source describes.
    let src = "
.data
val: .word 0x11223344

.text
.globl _start
_start:
    lui  t0, 0x12345
    auipc t1, 0
    la   a1, val
    lw   a2, 0(a1)
    addi a3, a2, -16
    slti a4, a3, 100
    sltiu a4, a3, 100
    xori a4, a3, 0x7f
    ori  a4, a3, 0x70
    andi a4, a3, 0x0f
    slli a4, a3, 3
    srli a4, a3, 3
    srai a4, a3, 3
    add  a5, a2, a3
    sub  a5, a2, a3
    sll  a5, a2, a3
    slt  a5, a2, a3
    sltu a5, a2, a3
    xor  a5, a2, a3
    srl  a5, a2, a3
    sra  a5, a2, a3
    or   a5, a2, a3
    and  a5, a2, a3
    mul  a5, a2, a3
    mulh a5, a2, a3
    mulhsu a5, a2, a3
    mulhu a5, a2, a3
    div  a5, a2, a3
    divu a5, a2, a3
    rem  a5, a2, a3
    remu a5, a2, a3
    sb   a5, 1(a1)
    sh   a5, 2(a1)
    sw   a5, 4(a1)
    lb   a6, 1(a1)
    lbu  a6, 1(a1)
    lh   a6, 2(a1)
    lhu  a6, 2(a1)
skip:
    beq  a5, a6, skip
    bne  a5, a6, skip
    blt  a5, a6, skip
    bge  a5, a6, skip
    bltu a5, a6, skip
    bgeu a5, a6, skip
    jal  ra, end
    jalr ra, a1, 0
end:
    ecall
    ebreak
";
    let program = assemble(src).expect("kitchen-sink source must assemble");
    let insts = program
        .decode_text()
        .expect("every assembled word must decode");
    assert_eq!(insts.len(), program.words.len());
    for (inst, &word) in insts.iter().zip(&program.words) {
        assert_eq!(inst.encode(), word, "decode must invert the encoding");
    }
    // Spot-check structure: every RV32IM opcode class appears.
    for op in Op::ALL {
        assert!(
            insts.iter().any(|i| i.op == op),
            "{op:?} missing from the round-trip program"
        );
    }
}

#[test]
fn parse_errors_carry_line_numbers() {
    // (source, expected 1-based line, expected message fragment)
    let cases: &[(&str, usize, &str)] = &[
        (".text\nadd x1, x2\n", 2, "expected 3 operands"),
        (".text\nfrobnicate x1, x2, x3\n", 2, "unknown mnemonic"),
        (".text\nlw x1, 0(x99)\n", 2, "unknown register"),
        (".text\nadd x1, x2, q7\n", 2, "expected register"),
        (".text\naddi x1, x2, 5000\n", 2, "out of range"),
        (".text\naddi x1, x2, banana\n", 2, "expected immediate"),
        (".text\nbeq x1, x2, nowhere\n", 2, "unknown label"),
        (".text\na:\nnop\na:\n", 4, "duplicate label"),
        (".text\n.rept 3\nnop\n", 2, ".endr"),
        (".text\nlw x1, 0(x2\n", 2, "malformed memory operand"),
        (".data\nx: .word zed\n", 2, "bad .word"),
        // Found by the fuzz below: an operand starting with a multi-byte
        // character panicked the register lookup.
        (".text\nadd x1, x2, \u{fffd} t6\n", 2, "bad operand"),
        (".text\nli x1, -0x-8000000000000000\n", 2, "bad immediate"),
        // A register index or an immediate takes no second sign.
        (".text\nadd x+1, x2, x3\n", 2, "bad operand `x+1`"),
        (".text\nadd x1, a+2, x3\n", 2, "bad operand `a+2`"),
        (".text\nadd x1, x2, t+3\n", 2, "bad operand `t+3`"),
        (".text\naddi x1, x2, --5\n", 2, "bad immediate `--5`"),
        (".text\naddi x1, x2, +-5\n", 2, "bad immediate `+-5`"),
        (".text\naddi x1, x2, 0x-8\n", 2, "bad immediate `0x-8`"),
        (".text\naddi x1, x2, 0x+5\n", 2, "bad immediate `0x+5`"),
        (
            ".data\na: .space 16384\nb: .space 16384\n",
            3,
            "data section exceeds",
        ),
    ];
    for &(src, line, fragment) in cases {
        let err = assemble(src).expect_err(src);
        assert_eq!(err.line, line, "line for {src:?} ({err})");
        let msg = err.to_string();
        assert!(
            msg.contains(fragment),
            "error for {src:?} must mention {fragment:?}, got {msg:?}"
        );
    }
}

/// `src` after one edit of its bytes, decoded lossily: `kind` 0 truncates
/// at `at`, 1 inserts `byte` before `at`, 2 deletes the byte at `at`, 3
/// substitutes `byte` for it, and 4 duplicates the line that holds it.
fn mutate_source(src: &str, kind: u8, at: usize, byte: u8) -> String {
    let mut bytes = src.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let inside = at % bytes.len();
    match kind {
        0 => bytes.truncate(at % (bytes.len() + 1)),
        1 => bytes.insert(at % (bytes.len() + 1), byte),
        2 => {
            bytes.remove(inside);
        }
        3 => bytes[inside] = byte,
        _ => {
            let start = bytes[..inside]
                .iter()
                .rposition(|&b| b == b'\n')
                .map_or(0, |i| i + 1);
            let end = bytes[inside..]
                .iter()
                .position(|&b| b == b'\n')
                .map_or(bytes.len(), |i| inside + i + 1);
            let mut line = bytes[start..end].to_vec();
            if !line.ends_with(b"\n") {
                line.push(b'\n');
            }
            bytes.splice(start..start, line);
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Fuzz the assembler with the corpus programs after up to three edits
    /// each (truncation, byte insert, delete or substitute, line
    /// duplication): it must never panic, and every diagnostic must name a
    /// line of the source it was given.
    #[test]
    fn an_edited_corpus_program_assembles_or_names_a_line_of_it(
        app in 0usize..6,
        edits in prop::collection::vec((0u8..5, 0usize..1 << 16, 0u8..=255u8), 1..4),
    ) {
        let name = corpus::all()[app].name;
        let mut src = corpus::source(name).expect("corpus app has a source").to_string();
        for &(kind, at, byte) in &edits {
            src = mutate_source(&src, kind, at, byte);
        }
        if let Err(e) = assemble(&src) {
            let lines = src.lines().count();
            prop_assert!(
                (1..=lines).contains(&e.line),
                "{name} after {edits:?}: line {} of {lines} ({e})",
                e.line
            );
        }
    }
}

// --- corpus goldens ---

fn render_corpus_snapshot() -> String {
    let mut out = String::new();
    let apps = corpus::all();
    writeln!(
        out,
        "restune-riscv-corpus v1 apps={}",
        apps.iter().map(|p| p.name).collect::<Vec<_>>().join(",")
    )
    .unwrap();
    for p in &apps {
        let trace = corpus::trace(p.name).expect("corpus app has a trace");
        let s = &trace.summary;
        let mut field = |name: &str, value: String| {
            writeln!(out, "{}/{name} = {value}", p.name).unwrap();
        };
        field("dyn_insts", s.dyn_insts.to_string());
        field("exit_code", format!("{:08x}", s.exit_code));
        field("regs_crc", format!("{:016x}", s.regs_crc));
        field("mem_crc", format!("{:016x}", s.mem_crc));
        field("mem_bytes", s.mem_bytes.to_string());
        field("profile_seed", format!("{:016x}", p.seed));
    }
    out
}

fn fixture_path() -> PathBuf {
    // Registered from `crates/core`, so the repo root is two levels up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join("riscv_corpus_v1.txt")
}

#[test]
fn corpus_architectural_results_match_blessed_golden() {
    let actual = render_corpus_snapshot();
    let path = fixture_path();

    if std::env::var("RESTUNE_BLESS").as_deref() == Ok("1") {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        eprintln!("blessed corpus golden: {}", path.display());
        return;
    }

    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing corpus golden {} ({e}); bless it with \
             RESTUNE_BLESS=1 cargo test --test riscv_frontend",
            path.display()
        )
    });
    if actual == expected {
        return;
    }
    let diffs: Vec<String> = actual
        .lines()
        .zip(expected.lines())
        .enumerate()
        .filter(|(_, (a, e))| a != e)
        .take(8)
        .map(|(i, (a, e))| format!("line {}: got `{a}`, want `{e}`", i + 1))
        .collect();
    panic!(
        "corpus architectural drift ({} vs {} lines):\n{}\n\
         (an intentional program/lowering change is re-blessed with \
         RESTUNE_BLESS=1)",
        actual.lines().count(),
        expected.lines().count(),
        diffs.join("\n")
    );
}

#[test]
fn corpus_snapshot_renders_deterministically() {
    assert_eq!(
        render_corpus_snapshot(),
        render_corpus_snapshot(),
        "trace memoization must not leak into the snapshot"
    );
}

#[test]
fn only_the_resonance_microbench_violates_and_tuning_contains_it() {
    // The end-to-end structural claim of the corpus class (printed as the
    // expectation line by `table3_riscv`): on the base machine, real code
    // is noise-benign except the deliberately resonant microbench, and
    // resonance tuning drives the violations to zero.
    use restune::{run, SimConfig, Technique, TuningConfig};

    let sim = SimConfig::isca04(20_000);
    let tuning = Technique::Tuning(TuningConfig::isca04_table1(100));
    for profile in corpus::all() {
        let base = run(&profile, &Technique::Base, &sim);
        if profile.name == "resonance" {
            assert!(
                base.violation_cycles > 0,
                "the resonance microbench must violate on the base machine"
            );
        } else {
            assert_eq!(
                base.violation_cycles, 0,
                "{} must be noise-benign on the base machine",
                profile.name
            );
        }
        let tuned = run(&profile, &tuning, &sim);
        assert_eq!(
            tuned.violation_cycles, 0,
            "tuning must contain {} completely",
            profile.name
        );
    }
}
