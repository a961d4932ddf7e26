//! Opcodes and their static properties.
//!
//! Each opcode carries a [`FuClass`] (which functional-unit pool executes it
//! and its base latency class) and a shape describing which of `rd`, `rs1`,
//! `rs2`, `imm` it uses. These properties drive the decoder, the renamer, the
//! functional interpreter, and the compiler's dependence analysis, so they
//! live here in one place.

use std::fmt;

/// Functional-unit class an operation executes on.
///
/// Mirrors the `sim-outorder` resource classes behind Table 2 of the paper:
/// four integer ALUs plus one integer multiply/divide unit, four FP ALUs plus
/// one FP multiply/divide unit, and two memory ports.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FuClass {
    /// Integer add/logic/shift/compare; 1-cycle.
    IntAlu,
    /// Integer multiply; executes on the MUL/DIV unit.
    IntMul,
    /// Integer divide/remainder; executes on the MUL/DIV unit.
    IntDiv,
    /// FP add/compare/convert/move; executes on an FP ALU.
    FpAlu,
    /// FP multiply; executes on the FP MUL/DIV unit.
    FpMul,
    /// FP divide/sqrt; executes on the FP MUL/DIV unit.
    FpDiv,
    /// Loads; need a memory port plus the cache access time.
    RdPort,
    /// Stores; need a memory port.
    WrPort,
    /// Control transfers resolve on an integer ALU.
    Ctrl,
    /// No functional unit required (`nop`, `halt`).
    None,
}

/// Operand shape: which fields of an [`crate::Inst`] are meaningful.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpShape {
    /// `rd = rs1 op rs2`
    RRR,
    /// `rd = rs1 op imm`
    RRI,
    /// `rd = imm`
    RI,
    /// `rd = mem[rs1 + imm]`
    Load,
    /// `mem[rs1 + imm] = rs2`
    Store,
    /// `if rs1 cmp rs2 goto imm`
    Branch,
    /// `goto imm`
    Jump,
    /// `rd = pc + 1; goto imm`
    JumpLink,
    /// `goto rs1`
    JumpReg,
    /// `rd = pc + 1; goto rs1`
    JumpLinkReg,
    /// No operands.
    Nullary,
}

macro_rules! opcodes {
    ($(($name:ident, $mnem:literal, $class:ident, $shape:ident)),* $(,)?) => {
        /// Every operation in the SPEAR ISA.
        #[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
        #[repr(u16)]
        pub enum Opcode {
            $($name),*
        }

        impl Opcode {
            /// All opcodes, in encoding order.
            pub const ALL: &'static [Opcode] = &[$(Opcode::$name),*];

            /// Assembly mnemonic.
            pub const fn mnemonic(self) -> &'static str {
                match self { $(Opcode::$name => $mnem),* }
            }

            /// Functional-unit class.
            pub const fn fu_class(self) -> FuClass {
                match self { $(Opcode::$name => FuClass::$class),* }
            }

            /// Operand shape.
            pub const fn shape(self) -> OpShape {
                match self { $(Opcode::$name => OpShape::$shape),* }
            }

            /// Stable numeric encoding of the opcode.
            pub const fn code(self) -> u16 {
                self as u16
            }

            /// Decode a numeric opcode; `None` if out of range.
            pub fn from_code(code: u16) -> Option<Opcode> {
                Self::ALL.get(code as usize).copied()
            }
        }
    };
}

opcodes! {
    // Integer register-register.
    (Add,  "add",  IntAlu, RRR),
    (Sub,  "sub",  IntAlu, RRR),
    (Mul,  "mul",  IntMul, RRR),
    (Div,  "div",  IntDiv, RRR),
    (Rem,  "rem",  IntDiv, RRR),
    (And,  "and",  IntAlu, RRR),
    (Or,   "or",   IntAlu, RRR),
    (Xor,  "xor",  IntAlu, RRR),
    (Sll,  "sll",  IntAlu, RRR),
    (Srl,  "srl",  IntAlu, RRR),
    (Sra,  "sra",  IntAlu, RRR),
    (Slt,  "slt",  IntAlu, RRR),
    (Sltu, "sltu", IntAlu, RRR),
    // Integer register-immediate.
    (Addi, "addi", IntAlu, RRI),
    (Andi, "andi", IntAlu, RRI),
    (Ori,  "ori",  IntAlu, RRI),
    (Xori, "xori", IntAlu, RRI),
    (Slli, "slli", IntAlu, RRI),
    (Srli, "srli", IntAlu, RRI),
    (Srai, "srai", IntAlu, RRI),
    (Slti, "slti", IntAlu, RRI),
    (Muli, "muli", IntMul, RRI),
    // Load immediate (full 64-bit immediate; our encoding has room).
    (Li,   "li",   IntAlu, RI),
    // Loads (sign- and zero-extending byte/half/word, plus doubleword).
    (Lb,   "lb",   RdPort, Load),
    (Lbu,  "lbu",  RdPort, Load),
    (Lh,   "lh",   RdPort, Load),
    (Lhu,  "lhu",  RdPort, Load),
    (Lw,   "lw",   RdPort, Load),
    (Lwu,  "lwu",  RdPort, Load),
    (Ld,   "ld",   RdPort, Load),
    // FP load/store (f64).
    (Fld,  "fld",  RdPort, Load),
    (Fsd,  "fsd",  WrPort, Store),
    // Stores.
    (Sb,   "sb",   WrPort, Store),
    (Sh,   "sh",   WrPort, Store),
    (Sw,   "sw",   WrPort, Store),
    (Sd,   "sd",   WrPort, Store),
    // Floating point arithmetic (f64).
    (Fadd, "fadd", FpAlu, RRR),
    (Fsub, "fsub", FpAlu, RRR),
    (Fmul, "fmul", FpMul, RRR),
    (Fdiv, "fdiv", FpDiv, RRR),
    (Fsqrt,"fsqrt",FpDiv, RRR),
    (Fneg, "fneg", FpAlu, RRR),
    (Fabs, "fabs", FpAlu, RRR),
    (Fmin, "fmin", FpAlu, RRR),
    (Fmax, "fmax", FpAlu, RRR),
    (Fmov, "fmov", FpAlu, RRR),
    // FP compares (integer destination).
    (Feq,  "feq",  FpAlu, RRR),
    (Flt,  "flt",  FpAlu, RRR),
    (Fle,  "fle",  FpAlu, RRR),
    // Conversions (cross the register classes).
    (Fcvtdl, "fcvt.d.l", FpAlu, RRR), // FP rd <- int rs1
    (Fcvtld, "fcvt.l.d", FpAlu, RRR), // int rd <- FP rs1
    // Branches (absolute instruction-index target in imm).
    (Beq,  "beq",  Ctrl, Branch),
    (Bne,  "bne",  Ctrl, Branch),
    (Blt,  "blt",  Ctrl, Branch),
    (Bge,  "bge",  Ctrl, Branch),
    (Bltu, "bltu", Ctrl, Branch),
    (Bgeu, "bgeu", Ctrl, Branch),
    // Jumps.
    (J,    "j",    Ctrl, Jump),
    (Jal,  "jal",  Ctrl, JumpLink),
    (Jr,   "jr",   Ctrl, JumpReg),
    (Jalr, "jalr", Ctrl, JumpLinkReg),
    // Misc.
    (Nop,  "nop",  None, Nullary),
    (Halt, "halt", None, Nullary),
}

impl Opcode {
    /// True for all load operations (integer and FP).
    #[inline]
    pub fn is_load(self) -> bool {
        self.shape() == OpShape::Load
    }

    /// True for all store operations (integer and FP).
    #[inline]
    pub fn is_store(self) -> bool {
        self.shape() == OpShape::Store
    }

    /// True for loads and stores.
    #[inline]
    pub fn is_mem(self) -> bool {
        self.is_load() || self.is_store()
    }

    /// True for conditional branches only.
    #[inline]
    pub fn is_cond_branch(self) -> bool {
        self.shape() == OpShape::Branch
    }

    /// True for any instruction that can redirect the PC.
    #[inline]
    pub fn is_ctrl(self) -> bool {
        matches!(
            self.shape(),
            OpShape::Branch
                | OpShape::Jump
                | OpShape::JumpLink
                | OpShape::JumpReg
                | OpShape::JumpLinkReg
        )
    }

    /// True for control transfers whose target is not in the instruction
    /// word (register-indirect jumps) — these need the BTB to predict.
    #[inline]
    pub fn is_indirect(self) -> bool {
        matches!(self.shape(), OpShape::JumpReg | OpShape::JumpLinkReg)
    }

    /// Number of bytes a memory operation moves; 0 for non-memory ops.
    pub fn mem_width(self) -> usize {
        use Opcode::*;
        match self {
            Lb | Lbu | Sb => 1,
            Lh | Lhu | Sh => 2,
            Lw | Lwu | Sw => 4,
            Ld | Sd | Fld | Fsd => 8,
            _ => 0,
        }
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_round_trip() {
        for &op in Opcode::ALL {
            assert_eq!(Opcode::from_code(op.code()), Some(op));
        }
        assert_eq!(Opcode::from_code(u16::MAX), Option::None);
    }

    #[test]
    fn mnemonics_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Opcode::ALL {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {}", op);
        }
    }

    #[test]
    fn loads_and_stores_have_widths() {
        for &op in Opcode::ALL {
            if op.is_mem() {
                assert!(op.mem_width() > 0, "{op} lacks a width");
            } else {
                assert_eq!(op.mem_width(), 0, "{op} should not have a width");
            }
        }
    }

    #[test]
    fn control_classification() {
        assert!(Opcode::Beq.is_cond_branch());
        assert!(Opcode::J.is_ctrl() && !Opcode::J.is_cond_branch());
        assert!(Opcode::Jr.is_indirect());
        assert!(!Opcode::Add.is_ctrl());
    }

    #[test]
    fn fu_classes_match_intuition() {
        assert_eq!(Opcode::Add.fu_class(), FuClass::IntAlu);
        assert_eq!(Opcode::Mul.fu_class(), FuClass::IntMul);
        assert_eq!(Opcode::Fdiv.fu_class(), FuClass::FpDiv);
        assert_eq!(Opcode::Ld.fu_class(), FuClass::RdPort);
        assert_eq!(Opcode::Sd.fu_class(), FuClass::WrPort);
    }
}
