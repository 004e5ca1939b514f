//! Instruction definitions, binary encoding, and change-of-flow (CoFI)
//! classification for the synthetic FlowGuard ISA.
//!
//! The ISA is deliberately simple — fixed-width 8-byte instructions over a
//! 16-register file — but reproduces the *complete* branch taxonomy of
//! Table 3 in the paper: unconditional direct branches (no trace output),
//! conditional branches (TNT), indirect branches (TIP), near returns (TIP)
//! and far transfers (FUP + TIP).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Size in bytes of every encoded instruction.
pub const INSN_SIZE: u64 = 8;

/// A general-purpose register (`r0`–`r15`).
///
/// `r14` doubles as the stack pointer ([`Reg::SP`]); `r15` is conventionally
/// the frame/link scratch register. Registers `r0`–`r5` carry syscall
/// number/arguments by convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Reg(u8);

impl Reg {
    /// Number of architectural registers.
    pub const COUNT: usize = 16;
    /// The stack pointer register (`r14`).
    pub const SP: Reg = Reg(14);
    /// Scratch/frame register (`r15`).
    pub const FP: Reg = Reg(15);

    /// Creates a register from its index.
    ///
    /// # Panics
    ///
    /// Panics if `idx >= 16`.
    pub const fn new(idx: u8) -> Reg {
        assert!(idx < Reg::COUNT as u8, "register index out of range");
        Reg(idx)
    }

    /// The register's index in the register file.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Reg::SP => write!(f, "sp"),
            Reg::FP => write!(f, "fp"),
            Reg(n) => write!(f, "r{n}"),
        }
    }
}

/// Convenience constants `R0`–`R13` for the general-purpose registers.
pub mod regs {
    use super::Reg;
    pub const R0: Reg = Reg::new(0);
    pub const R1: Reg = Reg::new(1);
    pub const R2: Reg = Reg::new(2);
    pub const R3: Reg = Reg::new(3);
    pub const R4: Reg = Reg::new(4);
    pub const R5: Reg = Reg::new(5);
    pub const R6: Reg = Reg::new(6);
    pub const R7: Reg = Reg::new(7);
    pub const R8: Reg = Reg::new(8);
    pub const R9: Reg = Reg::new(9);
    pub const R10: Reg = Reg::new(10);
    pub const R11: Reg = Reg::new(11);
    pub const R12: Reg = Reg::new(12);
    pub const R13: Reg = Reg::new(13);
    pub const SP: Reg = Reg::SP;
    pub const FP: Reg = Reg::FP;
}

/// Condition codes for conditional branches ([`Insn::Jcc`]).
///
/// Conditions are evaluated against the flags set by the most recent
/// `Cmp`/`CmpImm` (signed comparison semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Cond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Lt,
    /// Signed less-or-equal.
    Le,
    /// Signed greater-than.
    Gt,
    /// Signed greater-or-equal.
    Ge,
}

impl Cond {
    /// All condition codes, in encoding order.
    pub const ALL: [Cond; 6] = [Cond::Eq, Cond::Ne, Cond::Lt, Cond::Le, Cond::Gt, Cond::Ge];

    fn code(self) -> u8 {
        match self {
            Cond::Eq => 0,
            Cond::Ne => 1,
            Cond::Lt => 2,
            Cond::Le => 3,
            Cond::Gt => 4,
            Cond::Ge => 5,
        }
    }

    fn from_code(c: u8) -> Option<Cond> {
        Cond::ALL.get(c as usize).copied()
    }

    /// Evaluates the condition against a three-way comparison result
    /// (`ord < 0` ⇒ less, `0` ⇒ equal, `> 0` ⇒ greater).
    #[inline]
    pub fn eval(self, ord: i64) -> bool {
        match self {
            Cond::Eq => ord == 0,
            Cond::Ne => ord != 0,
            Cond::Lt => ord < 0,
            Cond::Le => ord <= 0,
            Cond::Gt => ord > 0,
            Cond::Ge => ord >= 0,
        }
    }

    /// The inverse condition (`Eq` ↔ `Ne`, `Lt` ↔ `Ge`, `Le` ↔ `Gt`).
    pub fn invert(self) -> Cond {
        match self {
            Cond::Eq => Cond::Ne,
            Cond::Ne => Cond::Eq,
            Cond::Lt => Cond::Ge,
            Cond::Le => Cond::Gt,
            Cond::Gt => Cond::Le,
            Cond::Ge => Cond::Lt,
        }
    }
}

impl fmt::Display for Cond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Cond::Eq => "eq",
            Cond::Ne => "ne",
            Cond::Lt => "lt",
            Cond::Le => "le",
            Cond::Gt => "gt",
            Cond::Ge => "ge",
        };
        f.write_str(s)
    }
}

/// Binary ALU operations for [`Insn::Alu`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    And,
    Or,
    Xor,
    Shl,
    Shr,
}

impl AluOp {
    const ALL: [AluOp; 8] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::Mul,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Shl,
        AluOp::Shr,
    ];

    fn code(self) -> u8 {
        AluOp::ALL.iter().position(|&o| o == self).unwrap() as u8
    }

    fn from_code(c: u8) -> Option<AluOp> {
        AluOp::ALL.get(c as usize).copied()
    }

    /// Applies the operation with wrapping semantics.
    #[inline]
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul => a.wrapping_mul(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
        };
        f.write_str(s)
    }
}

/// Memory access width for loads and stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Width {
    /// Single byte.
    B1,
    /// 64-bit word.
    B8,
}

impl Width {
    /// Width in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::B1 => 1,
            Width::B8 => 8,
        }
    }
}

/// A decoded instruction.
///
/// Branch targets of direct control transfers are stored as absolute virtual
/// addresses (the assembler/linker resolves label and symbol references).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Insn {
    /// No operation.
    Nop,
    /// Stop the machine (normal termination of standalone snippets).
    Halt,
    /// `rd = imm` (sign-extended 32-bit immediate).
    MovImm { rd: Reg, imm: i32 },
    /// `rd = rs`.
    Mov { rd: Reg, rs: Reg },
    /// `rd = op(rd, rs)`.
    Alu { op: AluOp, rd: Reg, rs: Reg },
    /// `rd = op(rd, imm)`.
    AluImm { op: AluOp, rd: Reg, imm: i32 },
    /// Compare `rs1` to `rs2`, setting flags for a following `Jcc`.
    Cmp { rs1: Reg, rs2: Reg },
    /// Compare `rs` to a sign-extended immediate.
    CmpImm { rs: Reg, imm: i32 },
    /// `rd = mem[rs + off]` with the given width (zero-extended).
    Load { w: Width, rd: Reg, base: Reg, off: i32 },
    /// `mem[base + off] = rs` with the given width (truncated).
    Store { w: Width, rs: Reg, base: Reg, off: i32 },
    /// Push `rs` onto the stack (`sp -= 8; mem[sp] = rs`).
    Push { rs: Reg },
    /// Pop the stack into `rd` (`rd = mem[sp]; sp += 8`).
    Pop { rd: Reg },
    /// Unconditional direct jump. *CoFI: no IPT output.*
    Jmp { target: u64 },
    /// Conditional direct branch. *CoFI: TNT packet bit.*
    Jcc { cc: Cond, target: u64 },
    /// Indirect jump through a register. *CoFI: TIP packet.*
    JmpInd { rs: Reg },
    /// Direct call: pushes the return address, jumps. *CoFI: no IPT output.*
    Call { target: u64 },
    /// Indirect call through a register. *CoFI: TIP packet.*
    CallInd { rs: Reg },
    /// Near return: pops the return address off the stack. *CoFI: TIP packet.*
    Ret,
    /// System call: number in `r0`, arguments in `r1`–`r5`, result in `r0`.
    /// *CoFI: far transfer (FUP + TIP on resume).*
    Syscall,
}

/// The change-of-flow-instruction (CoFI) classes of Table 3, plus `None` for
/// sequential instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CofiKind {
    /// Not a change-of-flow instruction.
    None,
    /// Unconditional direct `jmp` — statically known, no packet.
    DirectJmp,
    /// Direct `call` — statically known, no packet.
    DirectCall,
    /// Conditional branch — one TNT bit.
    CondBranch,
    /// Indirect `jmp` — TIP packet.
    IndJmp,
    /// Indirect `call` — TIP packet.
    IndCall,
    /// Near return — TIP packet.
    Ret,
    /// Far transfer (syscall/interrupt/trap) — FUP | TIP.
    FarTransfer,
}

impl CofiKind {
    /// Whether this CoFI class produces a TIP packet when executed.
    pub fn emits_tip(self) -> bool {
        matches!(self, CofiKind::IndJmp | CofiKind::IndCall | CofiKind::Ret)
    }

    /// Whether this CoFI class produces a TNT bit when executed.
    pub fn emits_tnt(self) -> bool {
        matches!(self, CofiKind::CondBranch)
    }

    /// Whether this is any indirect transfer (TIP-emitting or far).
    pub fn is_indirect(self) -> bool {
        self.emits_tip() || matches!(self, CofiKind::FarTransfer)
    }
}

impl Insn {
    /// Classifies the instruction per the paper's Table 3.
    pub fn cofi_kind(&self) -> CofiKind {
        match self {
            Insn::Jmp { .. } => CofiKind::DirectJmp,
            Insn::Call { .. } => CofiKind::DirectCall,
            Insn::Jcc { .. } => CofiKind::CondBranch,
            Insn::JmpInd { .. } => CofiKind::IndJmp,
            Insn::CallInd { .. } => CofiKind::IndCall,
            Insn::Ret => CofiKind::Ret,
            Insn::Syscall => CofiKind::FarTransfer,
            _ => CofiKind::None,
        }
    }

    /// Whether the instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        !matches!(self.cofi_kind(), CofiKind::None) || matches!(self, Insn::Halt)
    }

    /// The statically known direct target, if any.
    pub fn direct_target(&self) -> Option<u64> {
        match *self {
            Insn::Jmp { target } | Insn::Call { target } | Insn::Jcc { target, .. } => Some(target),
            _ => None,
        }
    }

    /// Whether control may fall through to the next instruction.
    pub fn falls_through(&self) -> bool {
        match self.cofi_kind() {
            CofiKind::None => !matches!(self, Insn::Halt),
            CofiKind::CondBranch | CofiKind::FarTransfer => true,
            // A direct call transfers control, but the *return* comes back to
            // the next instruction; for block layout purposes it terminates
            // the block without sequential fall-through.
            _ => false,
        }
    }
}

/// Opcode bytes for the binary encoding.
mod op {
    pub const NOP: u8 = 0x00;
    pub const HALT: u8 = 0x01;
    pub const MOVI: u8 = 0x02;
    pub const MOV: u8 = 0x03;
    pub const ALU: u8 = 0x04;
    pub const ALUI: u8 = 0x05;
    pub const CMP: u8 = 0x06;
    pub const CMPI: u8 = 0x07;
    pub const LOAD: u8 = 0x08;
    pub const STORE: u8 = 0x09;
    pub const PUSH: u8 = 0x0a;
    pub const POP: u8 = 0x0b;
    pub const JMP: u8 = 0x10;
    pub const JCC: u8 = 0x11;
    pub const JMPI: u8 = 0x12;
    pub const CALL: u8 = 0x13;
    pub const CALLI: u8 = 0x14;
    pub const RET: u8 = 0x15;
    pub const SYSCALL: u8 = 0x16;
    pub const LOADB: u8 = 0x18;
    pub const STOREB: u8 = 0x19;
}

/// Error returned when decoding an invalid instruction encoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeInsnError {
    /// The offending opcode byte.
    pub opcode: u8,
}

impl fmt::Display for DecodeInsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid instruction encoding (opcode {:#04x})", self.opcode)
    }
}

impl std::error::Error for DecodeInsnError {}

fn enc(opc: u8, a: u8, b: u8, c: u8, imm: u32) -> [u8; 8] {
    let i = imm.to_le_bytes();
    [opc, a, b, c, i[0], i[1], i[2], i[3]]
}

impl Insn {
    /// Encodes the instruction into its fixed 8-byte form.
    ///
    /// Direct branch targets are encoded as *instruction-relative* 32-bit
    /// displacements from the **end** of the instruction, exactly like x86
    /// rel32 operands, so code is position-dependent only through the linker.
    ///
    /// # Panics
    ///
    /// Panics if a direct branch displacement does not fit in 32 bits; the
    /// linker keeps all modules within a 4 GiB window so this cannot occur for
    /// linked images.
    pub fn encode(&self, pc: u64) -> [u8; 8] {
        let rel = |target: u64| -> u32 {
            let disp = target.wrapping_sub(pc.wrapping_add(INSN_SIZE)) as i64;
            let disp32 = i32::try_from(disp).expect("branch displacement overflows rel32");
            disp32 as u32
        };
        match *self {
            Insn::Nop => enc(op::NOP, 0, 0, 0, 0),
            Insn::Halt => enc(op::HALT, 0, 0, 0, 0),
            Insn::MovImm { rd, imm } => enc(op::MOVI, rd.0, 0, 0, imm as u32),
            Insn::Mov { rd, rs } => enc(op::MOV, rd.0, rs.0, 0, 0),
            Insn::Alu { op: o, rd, rs } => enc(op::ALU, rd.0, rs.0, o.code(), 0),
            Insn::AluImm { op: o, rd, imm } => enc(op::ALUI, rd.0, 0, o.code(), imm as u32),
            Insn::Cmp { rs1, rs2 } => enc(op::CMP, rs1.0, rs2.0, 0, 0),
            Insn::CmpImm { rs, imm } => enc(op::CMPI, rs.0, 0, 0, imm as u32),
            Insn::Load { w: Width::B8, rd, base, off } => {
                enc(op::LOAD, rd.0, base.0, 0, off as u32)
            }
            Insn::Load { w: Width::B1, rd, base, off } => {
                enc(op::LOADB, rd.0, base.0, 0, off as u32)
            }
            Insn::Store { w: Width::B8, rs, base, off } => {
                enc(op::STORE, rs.0, base.0, 0, off as u32)
            }
            Insn::Store { w: Width::B1, rs, base, off } => {
                enc(op::STOREB, rs.0, base.0, 0, off as u32)
            }
            Insn::Push { rs } => enc(op::PUSH, rs.0, 0, 0, 0),
            Insn::Pop { rd } => enc(op::POP, rd.0, 0, 0, 0),
            Insn::Jmp { target } => enc(op::JMP, 0, 0, 0, rel(target)),
            Insn::Jcc { cc, target } => enc(op::JCC, 0, 0, cc.code(), rel(target)),
            Insn::JmpInd { rs } => enc(op::JMPI, rs.0, 0, 0, 0),
            Insn::Call { target } => enc(op::CALL, 0, 0, 0, rel(target)),
            Insn::CallInd { rs } => enc(op::CALLI, rs.0, 0, 0, 0),
            Insn::Ret => enc(op::RET, 0, 0, 0, 0),
            Insn::Syscall => enc(op::SYSCALL, 0, 0, 0, 0),
        }
    }

    /// Decodes an instruction from its 8-byte encoding at address `pc`.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeInsnError`] if the opcode byte or a sub-field is not a
    /// valid encoding.
    pub fn decode(bytes: [u8; 8], pc: u64) -> Result<Insn, DecodeInsnError> {
        let [opc, a, b, c, i0, i1, i2, i3] = bytes;
        let imm = u32::from_le_bytes([i0, i1, i2, i3]);
        let bad = || DecodeInsnError { opcode: opc };
        let reg = |r: u8| -> Result<Reg, DecodeInsnError> {
            if r < Reg::COUNT as u8 {
                Ok(Reg(r))
            } else {
                Err(bad())
            }
        };
        let abs = |imm: u32| -> u64 {
            pc.wrapping_add(INSN_SIZE).wrapping_add((imm as i32) as i64 as u64)
        };
        Ok(match opc {
            op::NOP => Insn::Nop,
            op::HALT => Insn::Halt,
            op::MOVI => Insn::MovImm { rd: reg(a)?, imm: imm as i32 },
            op::MOV => Insn::Mov { rd: reg(a)?, rs: reg(b)? },
            op::ALU => {
                Insn::Alu { op: AluOp::from_code(c).ok_or_else(bad)?, rd: reg(a)?, rs: reg(b)? }
            }
            op::ALUI => Insn::AluImm {
                op: AluOp::from_code(c).ok_or_else(bad)?,
                rd: reg(a)?,
                imm: imm as i32,
            },
            op::CMP => Insn::Cmp { rs1: reg(a)?, rs2: reg(b)? },
            op::CMPI => Insn::CmpImm { rs: reg(a)?, imm: imm as i32 },
            op::LOAD => Insn::Load { w: Width::B8, rd: reg(a)?, base: reg(b)?, off: imm as i32 },
            op::LOADB => Insn::Load { w: Width::B1, rd: reg(a)?, base: reg(b)?, off: imm as i32 },
            op::STORE => Insn::Store { w: Width::B8, rs: reg(a)?, base: reg(b)?, off: imm as i32 },
            op::STOREB => Insn::Store { w: Width::B1, rs: reg(a)?, base: reg(b)?, off: imm as i32 },
            op::PUSH => Insn::Push { rs: reg(a)? },
            op::POP => Insn::Pop { rd: reg(a)? },
            op::JMP => Insn::Jmp { target: abs(imm) },
            op::JCC => Insn::Jcc { cc: Cond::from_code(c).ok_or_else(bad)?, target: abs(imm) },
            op::JMPI => Insn::JmpInd { rs: reg(a)? },
            op::CALL => Insn::Call { target: abs(imm) },
            op::CALLI => Insn::CallInd { rs: reg(a)? },
            op::RET => Insn::Ret,
            op::SYSCALL => Insn::Syscall,
            _ => return Err(bad()),
        })
    }
}

impl fmt::Display for Insn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Insn::Nop => write!(f, "nop"),
            Insn::Halt => write!(f, "halt"),
            Insn::MovImm { rd, imm } => write!(f, "mov {rd}, {imm}"),
            Insn::Mov { rd, rs } => write!(f, "mov {rd}, {rs}"),
            Insn::Alu { op, rd, rs } => write!(f, "{op} {rd}, {rs}"),
            Insn::AluImm { op, rd, imm } => write!(f, "{op} {rd}, {imm}"),
            Insn::Cmp { rs1, rs2 } => write!(f, "cmp {rs1}, {rs2}"),
            Insn::CmpImm { rs, imm } => write!(f, "cmp {rs}, {imm}"),
            Insn::Load { w: Width::B8, rd, base, off } => write!(f, "ld {rd}, [{base}{off:+}]"),
            Insn::Load { w: Width::B1, rd, base, off } => write!(f, "ldb {rd}, [{base}{off:+}]"),
            Insn::Store { w: Width::B8, rs, base, off } => write!(f, "st {rs}, [{base}{off:+}]"),
            Insn::Store { w: Width::B1, rs, base, off } => write!(f, "stb {rs}, [{base}{off:+}]"),
            Insn::Push { rs } => write!(f, "push {rs}"),
            Insn::Pop { rd } => write!(f, "pop {rd}"),
            Insn::Jmp { target } => write!(f, "jmp {target:#x}"),
            Insn::Jcc { cc, target } => write!(f, "j{cc} {target:#x}"),
            Insn::JmpInd { rs } => write!(f, "jmp *{rs}"),
            Insn::Call { target } => write!(f, "call {target:#x}"),
            Insn::CallInd { rs } => write!(f, "call *{rs}"),
            Insn::Ret => write!(f, "ret"),
            Insn::Syscall => write!(f, "syscall"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::regs::*;
    use super::*;

    fn roundtrip(i: Insn, pc: u64) {
        let bytes = i.encode(pc);
        let back = Insn::decode(bytes, pc).expect("decode");
        assert_eq!(i, back, "round-trip at pc={pc:#x}");
    }

    #[test]
    fn encode_decode_roundtrip_all_forms() {
        let pc = 0x40_0000;
        let cases = [
            Insn::Nop,
            Insn::Halt,
            Insn::MovImm { rd: R3, imm: -7 },
            Insn::Mov { rd: R1, rs: R2 },
            Insn::Alu { op: AluOp::Xor, rd: R4, rs: R5 },
            Insn::AluImm { op: AluOp::Add, rd: SP, imm: 64 },
            Insn::Cmp { rs1: R0, rs2: R1 },
            Insn::CmpImm { rs: R9, imm: 1000 },
            Insn::Load { w: Width::B8, rd: R2, base: SP, off: 16 },
            Insn::Load { w: Width::B1, rd: R2, base: R7, off: -1 },
            Insn::Store { w: Width::B8, rs: R2, base: SP, off: -8 },
            Insn::Store { w: Width::B1, rs: R2, base: R7, off: 0 },
            Insn::Push { rs: R11 },
            Insn::Pop { rd: R12 },
            Insn::Jmp { target: 0x40_0100 },
            Insn::Jcc { cc: Cond::Le, target: 0x3f_ff00 },
            Insn::JmpInd { rs: R6 },
            Insn::Call { target: 0x41_0000 },
            Insn::CallInd { rs: R8 },
            Insn::Ret,
            Insn::Syscall,
        ];
        for i in cases {
            roundtrip(i, pc);
        }
    }

    #[test]
    fn branch_targets_are_pc_relative() {
        // The same displacement decodes to different absolute targets at
        // different pcs.
        let i = Insn::Jmp { target: 0x1000 };
        let bytes = i.encode(0x800);
        let moved = Insn::decode(bytes, 0x900).unwrap();
        assert_eq!(moved, Insn::Jmp { target: 0x1100 });
    }

    #[test]
    fn backward_branch_roundtrip() {
        roundtrip(Insn::Jcc { cc: Cond::Ne, target: 0x10 }, 0x4000);
    }

    #[test]
    fn invalid_opcode_rejected() {
        let err = Insn::decode([0xff, 0, 0, 0, 0, 0, 0, 0], 0).unwrap_err();
        assert_eq!(err.opcode, 0xff);
        assert!(err.to_string().contains("0xff"));
    }

    #[test]
    fn invalid_register_rejected() {
        // MOV with rd = 200.
        assert!(Insn::decode([0x03, 200, 0, 0, 0, 0, 0, 0], 0).is_err());
    }

    #[test]
    fn invalid_cond_rejected() {
        assert!(Insn::decode([0x11, 0, 0, 99, 0, 0, 0, 0], 0).is_err());
    }

    #[test]
    fn cofi_classification_matches_table3() {
        assert_eq!(Insn::Jmp { target: 0 }.cofi_kind(), CofiKind::DirectJmp);
        assert_eq!(Insn::Call { target: 0 }.cofi_kind(), CofiKind::DirectCall);
        assert_eq!(Insn::Jcc { cc: Cond::Eq, target: 0 }.cofi_kind(), CofiKind::CondBranch);
        assert_eq!(Insn::JmpInd { rs: R0 }.cofi_kind(), CofiKind::IndJmp);
        assert_eq!(Insn::CallInd { rs: R0 }.cofi_kind(), CofiKind::IndCall);
        assert_eq!(Insn::Ret.cofi_kind(), CofiKind::Ret);
        assert_eq!(Insn::Syscall.cofi_kind(), CofiKind::FarTransfer);
        assert_eq!(Insn::Nop.cofi_kind(), CofiKind::None);

        // Packet taxonomy (Table 3): direct → nothing, Jcc → TNT,
        // indirect/ret → TIP.
        assert!(!CofiKind::DirectJmp.emits_tip() && !CofiKind::DirectJmp.emits_tnt());
        assert!(!CofiKind::DirectCall.emits_tip() && !CofiKind::DirectCall.emits_tnt());
        assert!(CofiKind::CondBranch.emits_tnt() && !CofiKind::CondBranch.emits_tip());
        assert!(CofiKind::IndJmp.emits_tip());
        assert!(CofiKind::IndCall.emits_tip());
        assert!(CofiKind::Ret.emits_tip());
        assert!(!CofiKind::FarTransfer.emits_tip() && CofiKind::FarTransfer.is_indirect());
    }

    #[test]
    fn terminators_and_fallthrough() {
        assert!(Insn::Ret.is_terminator());
        assert!(Insn::Halt.is_terminator());
        assert!(!Insn::Nop.is_terminator());
        assert!(Insn::Jcc { cc: Cond::Eq, target: 0 }.falls_through());
        assert!(!Insn::Jmp { target: 0 }.falls_through());
        assert!(Insn::Syscall.falls_through());
        assert!(!Insn::Halt.falls_through());
        assert!(!Insn::Ret.falls_through());
    }

    #[test]
    fn cond_eval_and_invert() {
        for c in Cond::ALL {
            for ord in [-5i64, 0, 3] {
                assert_eq!(c.eval(ord), !c.invert().eval(ord), "{c} vs inverted at {ord}");
            }
        }
        assert!(Cond::Eq.eval(0) && !Cond::Eq.eval(1));
        assert!(Cond::Lt.eval(-1) && !Cond::Lt.eval(0));
        assert!(Cond::Ge.eval(0) && Cond::Ge.eval(7));
    }

    #[test]
    fn alu_ops_apply() {
        assert_eq!(AluOp::Add.apply(2, 3), 5);
        assert_eq!(AluOp::Sub.apply(2, 3), u64::MAX);
        assert_eq!(AluOp::Mul.apply(4, 5), 20);
        assert_eq!(AluOp::Shl.apply(1, 65), 2, "shift counts are masked mod 64");
        assert_eq!(AluOp::Shr.apply(8, 2), 2);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
    }

    #[test]
    fn register_display_names() {
        assert_eq!(R0.to_string(), "r0");
        assert_eq!(SP.to_string(), "sp");
        assert_eq!(FP.to_string(), "fp");
    }

    #[test]
    #[should_panic(expected = "register index out of range")]
    fn register_index_validated() {
        let _ = Reg::new(16);
    }
}
