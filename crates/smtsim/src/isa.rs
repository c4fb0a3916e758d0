//! The instruction set.
//!
//! A 32-bit word-addressed RISC with 16 general registers (`r0` hardwired
//! to zero). Rich enough to express realistic kernels (integer arithmetic,
//! memory traffic, branches, calls), small enough that diversity
//! transformations and fault injection can reason about it exhaustively.

use std::fmt;

/// A register name, `r0`–`r15`. `r0` always reads zero; writes to it are
/// discarded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Reg(pub u8);

impl Reg {
    /// The hardwired-zero register.
    pub const ZERO: Reg = Reg(0);
    /// Number of architectural registers.
    pub const COUNT: usize = 16;

    /// Construct, panicking on out-of-range indices.
    pub fn new(i: u8) -> Reg {
        assert!(i < 16, "register index out of range: {i}");
        Reg(i)
    }

    /// Index as usize, for register-file access.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Three-register ALU operations (`rd = rs1 op rs2`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise exclusive-or.
    Xor,
    /// Logical shift left (by rs2 mod 32).
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set if less-than, signed.
    Slt,
    /// Set if less-than, unsigned.
    Sltu,
}

impl AluOp {
    /// All ALU operations, in encoding order.
    pub const ALL: [AluOp; 10] = [
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Sll,
        AluOp::Srl,
        AluOp::Sra,
        AluOp::Slt,
        AluOp::Sltu,
    ];

    /// Apply the operation.
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl(b & 31),
            AluOp::Srl => a.wrapping_shr(b & 31),
            AluOp::Sra => (a as i32).wrapping_shr(b & 31) as u32,
            AluOp::Slt => u32::from((a as i32) < (b as i32)),
            AluOp::Sltu => u32::from(a < b),
        }
    }

    /// Mnemonic, as understood by the assembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Sll => "sll",
            AluOp::Srl => "srl",
            AluOp::Sra => "sra",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
        }
    }
}

/// Immediate ALU operations (`rd = rs1 op imm`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluImmOp {
    /// Add immediate (signed).
    Addi,
    /// And immediate.
    Andi,
    /// Or immediate.
    Ori,
    /// Xor immediate.
    Xori,
    /// Shift left immediate.
    Slli,
    /// Logical shift right immediate.
    Srli,
    /// Set if less-than immediate, signed.
    Slti,
}

impl AluImmOp {
    /// All immediate ALU operations, in encoding order.
    pub const ALL: [AluImmOp; 7] = [
        AluImmOp::Addi,
        AluImmOp::Andi,
        AluImmOp::Ori,
        AluImmOp::Xori,
        AluImmOp::Slli,
        AluImmOp::Srli,
        AluImmOp::Slti,
    ];

    /// `true` for the logical forms whose 16-bit immediate is
    /// zero-extended (`andi`/`ori`/`xori`); arithmetic/comparison forms
    /// sign-extend. This mirrors MIPS and makes `li` expressible as
    /// `lui` + `ori`.
    pub fn zero_extends(self) -> bool {
        matches!(self, AluImmOp::Andi | AluImmOp::Ori | AluImmOp::Xori)
    }

    /// Apply the operation. `imm` arrives already extended per
    /// [`Self::zero_extends`] (the decoder takes care of this); shift
    /// amounts are taken mod 32.
    #[inline]
    pub fn apply(self, a: u32, imm: i32) -> u32 {
        match self {
            AluImmOp::Addi => a.wrapping_add(imm as u32),
            AluImmOp::Andi => a & (imm as u32),
            AluImmOp::Ori => a | (imm as u32),
            AluImmOp::Xori => a ^ (imm as u32),
            AluImmOp::Slli => a.wrapping_shl((imm as u32) & 31),
            AluImmOp::Srli => a.wrapping_shr((imm as u32) & 31),
            AluImmOp::Slti => u32::from((a as i32) < imm),
        }
    }

    /// Mnemonic, as understood by the assembler.
    pub fn mnemonic(self) -> &'static str {
        match self {
            AluImmOp::Addi => "addi",
            AluImmOp::Andi => "andi",
            AluImmOp::Ori => "ori",
            AluImmOp::Xori => "xori",
            AluImmOp::Slli => "slli",
            AluImmOp::Srli => "srli",
            AluImmOp::Slti => "slti",
        }
    }
}

/// Multi-cycle multiply/divide operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulOp {
    /// Low 32 bits of the product.
    Mul,
    /// Signed division (`x / 0 = 0xFFFF_FFFF`, `i32::MIN / -1` wraps).
    Div,
    /// Signed remainder (`x % 0 = x`).
    Rem,
}

impl MulOp {
    /// Apply the operation with the ISA's defined division-by-zero
    /// semantics (no trap — deterministic results keep versions
    /// comparable).
    #[inline]
    pub fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            MulOp::Mul => a.wrapping_mul(b),
            MulOp::Div => {
                if b == 0 {
                    0xFFFF_FFFF
                } else {
                    (a as i32).wrapping_div(b as i32) as u32
                }
            }
            MulOp::Rem => {
                if b == 0 {
                    a
                } else {
                    (a as i32).wrapping_rem(b as i32) as u32
                }
            }
        }
    }

    /// Mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            MulOp::Mul => "mul",
            MulOp::Div => "div",
            MulOp::Rem => "rem",
        }
    }
}

/// Conditional branch comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchCond {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Less-than, signed.
    Lt,
    /// Greater-or-equal, signed.
    Ge,
}

impl BranchCond {
    /// Evaluate the condition.
    #[inline]
    pub fn holds(self, a: u32, b: u32) -> bool {
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => (a as i32) < (b as i32),
            BranchCond::Ge => (a as i32) >= (b as i32),
        }
    }

    /// Mnemonic (`beq` etc.).
    pub fn mnemonic(self) -> &'static str {
        match self {
            BranchCond::Eq => "beq",
            BranchCond::Ne => "bne",
            BranchCond::Lt => "blt",
            BranchCond::Ge => "bge",
        }
    }

    /// The condition with operands swapped semantics preserved:
    /// `a < b ⇔ !(a >= b)` etc. Used by diversity transformations.
    pub fn negated(self) -> BranchCond {
        match self {
            BranchCond::Eq => BranchCond::Ne,
            BranchCond::Ne => BranchCond::Eq,
            BranchCond::Lt => BranchCond::Ge,
            BranchCond::Ge => BranchCond::Lt,
        }
    }
}

/// One machine instruction.
///
/// Branch/jump targets are **absolute instruction indices** (the assembler
/// resolves labels); `imm` fields are word offsets for memory operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `rd = rs1 op rs2`.
    Alu {
        /// Operation.
        op: AluOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// `rd = rs1 op imm`.
    AluImm {
        /// Operation.
        op: AluImmOp,
        /// Destination.
        rd: Reg,
        /// Source.
        rs1: Reg,
        /// Immediate, 14-bit signed range.
        imm: i32,
    },
    /// `rd = imm << 16` (load upper immediate).
    Lui {
        /// Destination.
        rd: Reg,
        /// Upper 16 bits.
        imm: u16,
    },
    /// Multi-cycle multiply/divide: `rd = rs1 op rs2`.
    Mul {
        /// Operation.
        op: MulOp,
        /// Destination.
        rd: Reg,
        /// First source.
        rs1: Reg,
        /// Second source.
        rs2: Reg,
    },
    /// Load word: `rd = mem[rs1 + imm]` (word addressing).
    Ld {
        /// Destination.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// Word offset.
        imm: i32,
    },
    /// Store word: `mem[rs1 + imm] = rs2`.
    St {
        /// Value to store.
        rs2: Reg,
        /// Base address register.
        rs1: Reg,
        /// Word offset.
        imm: i32,
    },
    /// Conditional branch to absolute instruction index `target`.
    Branch {
        /// Comparison.
        cond: BranchCond,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
        /// Absolute target instruction index.
        target: u32,
    },
    /// Jump-and-link to absolute index `target`; `rd = return index`.
    Jal {
        /// Link register (often `r0` to discard).
        rd: Reg,
        /// Absolute target instruction index.
        target: u32,
    },
    /// Indirect jump: to `rs1 + imm`; `rd = return index`.
    Jalr {
        /// Link register.
        rd: Reg,
        /// Target base register.
        rs1: Reg,
        /// Offset in instructions.
        imm: i32,
    },
    /// End of a VDS round: the thread parks until the host resumes it.
    Yield,
    /// Terminate the thread.
    Halt,
    /// No operation.
    Nop,
}

/// Functional-unit classes; the core has a fixed number of units per
/// class, shared by all hardware threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Single-cycle integer ALU.
    Alu,
    /// Multi-cycle multiplier/divider.
    MulDiv,
    /// Load/store unit.
    Mem,
    /// Branch/jump unit.
    Branch,
    /// No unit needed (`nop`, `yield`, `halt`).
    None,
}

impl Instr {
    /// Which functional-unit class executes this instruction.
    pub fn fu_class(&self) -> FuClass {
        match self {
            Instr::Alu { .. } | Instr::AluImm { .. } | Instr::Lui { .. } => FuClass::Alu,
            Instr::Mul { .. } => FuClass::MulDiv,
            Instr::Ld { .. } | Instr::St { .. } => FuClass::Mem,
            Instr::Branch { .. } | Instr::Jal { .. } | Instr::Jalr { .. } => FuClass::Branch,
            Instr::Yield | Instr::Halt | Instr::Nop => FuClass::None,
        }
    }

    /// Occupancy of the functional unit in cycles (`mul` 3, `div`/`rem`
    /// 12, everything else 1). Cache misses add on top for memory ops.
    pub fn fu_latency(&self) -> u32 {
        match self {
            Instr::Mul { op: MulOp::Mul, .. } => 3,
            Instr::Mul { .. } => 12,
            _ => 1,
        }
    }

    /// Destination register, if the instruction writes one.
    pub fn dest(&self) -> Option<Reg> {
        match *self {
            Instr::Alu { rd, .. }
            | Instr::AluImm { rd, .. }
            | Instr::Lui { rd, .. }
            | Instr::Mul { rd, .. }
            | Instr::Ld { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. } => {
                if rd == Reg::ZERO {
                    None
                } else {
                    Some(rd)
                }
            }
            _ => None,
        }
    }

    /// Source registers read by the instruction.
    pub fn sources(&self) -> Vec<Reg> {
        match *self {
            Instr::Alu { rs1, rs2, .. } | Instr::Mul { rs1, rs2, .. } => vec![rs1, rs2],
            Instr::AluImm { rs1, .. } | Instr::Ld { rs1, .. } | Instr::Jalr { rs1, .. } => {
                vec![rs1]
            }
            Instr::St { rs1, rs2, .. } | Instr::Branch { rs1, rs2, .. } => vec![rs1, rs2],
            _ => vec![],
        }
    }
}

/// Smallest signed 16-bit immediate (arithmetic forms, loads, stores,
/// `jalr`).
pub const IMM_MIN: i32 = -(1 << 15);
/// Largest signed 16-bit immediate.
pub const IMM_MAX: i32 = (1 << 15) - 1;
/// Largest zero-extended 16-bit immediate (logical forms).
pub const UIMM_MAX: i32 = (1 << 16) - 1;
/// Maximum conditional-branch target (14-bit field → 16 Ki instructions).
pub const BRANCH_TARGET_MAX: u32 = (1 << 14) - 1;
/// Maximum absolute jump target (22-bit field).
pub const TARGET_MAX: u32 = (1 << 22) - 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reg_zero_is_special() {
        assert_eq!(Reg::ZERO, Reg(0));
        let i = Instr::AluImm {
            op: AluImmOp::Addi,
            rd: Reg::ZERO,
            rs1: Reg(1),
            imm: 5,
        };
        assert_eq!(i.dest(), None, "writes to r0 are discarded");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn reg_range_checked() {
        Reg::new(16);
    }

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(3, 4), 7);
        assert_eq!(AluOp::Add.apply(u32::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(3, 4), u32::MAX);
        assert_eq!(AluOp::Sll.apply(1, 33), 2, "shift amounts are mod 32");
        assert_eq!(AluOp::Sra.apply(0x8000_0000, 31), u32::MAX);
        assert_eq!(AluOp::Srl.apply(0x8000_0000, 31), 1);
        assert_eq!(AluOp::Slt.apply(u32::MAX, 0), 1, "-1 < 0 signed");
        assert_eq!(AluOp::Sltu.apply(u32::MAX, 0), 0, "max > 0 unsigned");
    }

    #[test]
    fn alu_imm_semantics() {
        assert_eq!(AluImmOp::Addi.apply(10, -3), 7);
        assert_eq!(AluImmOp::Andi.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluImmOp::Slti.apply(5, 6), 1);
        assert_eq!(AluImmOp::Slli.apply(1, 4), 16);
    }

    #[test]
    fn division_by_zero_is_defined() {
        assert_eq!(MulOp::Div.apply(42, 0), 0xFFFF_FFFF);
        assert_eq!(MulOp::Rem.apply(42, 0), 42);
        // i32::MIN / -1 must not panic
        assert_eq!(
            MulOp::Div.apply(i32::MIN as u32, -1i32 as u32),
            i32::MIN as u32
        );
    }

    #[test]
    fn branch_conditions() {
        assert!(BranchCond::Eq.holds(5, 5));
        assert!(BranchCond::Ne.holds(5, 6));
        assert!(BranchCond::Lt.holds(-1i32 as u32, 0));
        assert!(BranchCond::Ge.holds(0, -1i32 as u32));
        for c in [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
        ] {
            assert_eq!(c.negated().negated(), c);
            assert_ne!(c.holds(3, 7), c.negated().holds(3, 7));
        }
    }

    #[test]
    fn fu_classes_and_latencies() {
        let add = Instr::Alu {
            op: AluOp::Add,
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(3),
        };
        assert_eq!(add.fu_class(), FuClass::Alu);
        assert_eq!(add.fu_latency(), 1);
        let mul = Instr::Mul {
            op: MulOp::Mul,
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(3),
        };
        assert_eq!(mul.fu_class(), FuClass::MulDiv);
        assert_eq!(mul.fu_latency(), 3);
        let div = Instr::Mul {
            op: MulOp::Div,
            rd: Reg(1),
            rs1: Reg(2),
            rs2: Reg(3),
        };
        assert_eq!(div.fu_latency(), 12);
        assert_eq!(Instr::Yield.fu_class(), FuClass::None);
    }

    #[test]
    fn sources_and_dests() {
        let st = Instr::St {
            rs2: Reg(4),
            rs1: Reg(5),
            imm: 2,
        };
        assert_eq!(st.dest(), None);
        assert_eq!(st.sources(), vec![Reg(5), Reg(4)]);
        let ld = Instr::Ld {
            rd: Reg(4),
            rs1: Reg(5),
            imm: 2,
        };
        assert_eq!(ld.dest(), Some(Reg(4)));
    }
}
