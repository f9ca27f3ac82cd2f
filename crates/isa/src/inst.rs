//! Instruction definitions.

use std::fmt;

use crate::{Pc, Reg};

/// Binary ALU operation kinds.
///
/// The `F*` operations exist so workloads can exercise the long-latency
/// floating-point functional units of the simulated processor (see
/// [`FuClass`]); they operate on the same 64-bit register file, treating
/// values as opaque bit patterns with integer semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum AluOp {
    Add,
    Sub,
    Mul,
    /// Unsigned division; division by zero yields zero (no traps).
    Div,
    And,
    Or,
    Xor,
    /// Logical shift left (shift amount taken modulo 64).
    Shl,
    /// Logical shift right (shift amount taken modulo 64).
    Shr,
    /// Set-if-less-than, signed: `dst = (a as i64) < (b as i64)`.
    Slt,
    /// Set-if-less-than, unsigned.
    Sltu,
    /// "Floating" add: integer add executed on the 4-cycle FP adder.
    FAdd,
    /// "Floating" multiply: integer multiply executed on the 6-cycle FP multiplier.
    FMul,
    /// "Floating" divide: unsigned divide executed on the 17-cycle FP divider.
    FDiv,
}

impl AluOp {
    /// The functional-unit class that executes this operation.
    pub fn fu_class(self) -> FuClass {
        match self {
            AluOp::Add
            | AluOp::Sub
            | AluOp::And
            | AluOp::Or
            | AluOp::Xor
            | AluOp::Shl
            | AluOp::Shr
            | AluOp::Slt
            | AluOp::Sltu => FuClass::SimpleInt,
            AluOp::Mul | AluOp::Div => FuClass::IntMul,
            AluOp::FAdd => FuClass::FpSimple,
            AluOp::FMul => FuClass::FpMul,
            AluOp::FDiv => FuClass::FpDiv,
        }
    }

    /// Applies the operation to two 64-bit values (wrapping semantics).
    ///
    /// # Examples
    ///
    /// ```
    /// use specmt_isa::inst::AluOp;
    /// assert_eq!(AluOp::Add.apply(2, 3), 5);
    /// assert_eq!(AluOp::Div.apply(7, 0), 0); // division by zero yields zero
    /// assert_eq!(AluOp::Slt.apply(u64::MAX, 1), 1); // -1 < 1 signed
    /// ```
    pub fn apply(self, a: u64, b: u64) -> u64 {
        match self {
            AluOp::Add | AluOp::FAdd => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::Mul | AluOp::FMul => a.wrapping_mul(b),
            AluOp::Div | AluOp::FDiv => a.checked_div(b).unwrap_or(0),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Shl => a.wrapping_shl((b & 63) as u32),
            AluOp::Shr => a.wrapping_shr((b & 63) as u32),
            AluOp::Slt => u64::from((a as i64) < (b as i64)),
            AluOp::Sltu => u64::from(a < b),
        }
    }
}

impl fmt::Display for AluOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AluOp::Add => "add",
            AluOp::Sub => "sub",
            AluOp::Mul => "mul",
            AluOp::Div => "div",
            AluOp::And => "and",
            AluOp::Or => "or",
            AluOp::Xor => "xor",
            AluOp::Shl => "shl",
            AluOp::Shr => "shr",
            AluOp::Slt => "slt",
            AluOp::Sltu => "sltu",
            AluOp::FAdd => "fadd",
            AluOp::FMul => "fmul",
            AluOp::FDiv => "fdiv",
        };
        f.write_str(s)
    }
}

/// Condition codes for conditional branches (signed comparisons).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Le,
    Gt,
}

impl BranchCond {
    /// Evaluates the condition over two register values (signed).
    ///
    /// # Examples
    ///
    /// ```
    /// use specmt_isa::BranchCond;
    /// assert!(BranchCond::Lt.eval(1, 2));
    /// assert!(!BranchCond::Lt.eval(2, 1));
    /// assert!(BranchCond::Ge.eval(u64::MAX, u64::MAX)); // -1 >= -1
    /// ```
    pub fn eval(self, a: u64, b: u64) -> bool {
        let (a, b) = (a as i64, b as i64);
        match self {
            BranchCond::Eq => a == b,
            BranchCond::Ne => a != b,
            BranchCond::Lt => a < b,
            BranchCond::Ge => a >= b,
            BranchCond::Le => a <= b,
            BranchCond::Gt => a > b,
        }
    }

    /// The logically-negated condition.
    pub fn negate(self) -> BranchCond {
        match self {
            BranchCond::Eq => BranchCond::Ne,
            BranchCond::Ne => BranchCond::Eq,
            BranchCond::Lt => BranchCond::Ge,
            BranchCond::Ge => BranchCond::Lt,
            BranchCond::Le => BranchCond::Gt,
            BranchCond::Gt => BranchCond::Le,
        }
    }
}

impl fmt::Display for BranchCond {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchCond::Eq => "eq",
            BranchCond::Ne => "ne",
            BranchCond::Lt => "lt",
            BranchCond::Ge => "ge",
            BranchCond::Le => "le",
            BranchCond::Gt => "gt",
        };
        f.write_str(s)
    }
}

/// Functional-unit classes, matching the paper's per-thread-unit resources
/// (§4.1): 2 simple integer units (1 cycle), 2 load/store units (1 cycle of
/// address calculation plus cache access), 1 integer multiplier (4 cycles),
/// 2 simple FP units (4 cycles), 1 FP multiplier (6 cycles) and 1 FP divider
/// (17 cycles).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum FuClass {
    SimpleInt,
    LoadStore,
    IntMul,
    FpSimple,
    FpMul,
    FpDiv,
}

impl FuClass {
    /// All functional-unit classes, in a fixed order usable for indexing.
    pub const ALL: [FuClass; 6] = [
        FuClass::SimpleInt,
        FuClass::LoadStore,
        FuClass::IntMul,
        FuClass::FpSimple,
        FuClass::FpMul,
        FuClass::FpDiv,
    ];

    /// A dense index in `0..6` for table lookups.
    pub fn index(self) -> usize {
        match self {
            FuClass::SimpleInt => 0,
            FuClass::LoadStore => 1,
            FuClass::IntMul => 2,
            FuClass::FpSimple => 3,
            FuClass::FpMul => 4,
            FuClass::FpDiv => 5,
        }
    }

    /// The execution latency of this class in cycles, excluding cache access
    /// time for [`FuClass::LoadStore`] (which contributes only its 1-cycle
    /// address calculation here).
    pub fn latency(self) -> u64 {
        match self {
            FuClass::SimpleInt => 1,
            FuClass::LoadStore => 1,
            FuClass::IntMul => 4,
            FuClass::FpSimple => 4,
            FuClass::FpMul => 6,
            FuClass::FpDiv => 17,
        }
    }

    /// Number of units of this class per thread unit (paper §4.1).
    pub const fn units(self) -> usize {
        match self {
            FuClass::SimpleInt => 2,
            FuClass::LoadStore => 2,
            FuClass::IntMul => 1,
            FuClass::FpSimple => 2,
            FuClass::FpMul => 1,
            FuClass::FpDiv => 1,
        }
    }

    /// Whether the unit is pipelined (can start a new operation every cycle).
    ///
    /// The FP divider is the only non-pipelined unit.
    pub fn pipelined(self) -> bool {
        !matches!(self, FuClass::FpDiv)
    }
}

/// One machine instruction.
///
/// Branch and jump targets are absolute [`Pc`] values (instruction indices);
/// programs are built with symbolic labels via
/// [`ProgramBuilder`](crate::ProgramBuilder) and resolved at build time.
///
/// # Examples
///
/// ```
/// use specmt_isa::{BranchCond, Inst, Pc, Reg};
/// use specmt_isa::inst::AluOp;
///
/// let add = Inst::Alu { op: AluOp::Add, dst: Reg::R1, a: Reg::R2, b: Reg::R3 };
/// assert_eq!(add.dst(), Some(Reg::R1));
/// assert_eq!(add.srcs(), [Some(Reg::R2), Some(Reg::R3)]);
///
/// let b = Inst::Branch { cond: BranchCond::Ne, a: Reg::R1, b: Reg::ZERO, target: Pc(7) };
/// assert!(b.is_cond_branch());
/// assert_eq!(b.control_target(), Some(Pc(7)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Inst {
    /// Register-register ALU operation: `dst = op(a, b)`.
    Alu {
        /// Operation kind.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// First source register.
        a: Reg,
        /// Second source register.
        b: Reg,
    },
    /// Register-immediate ALU operation: `dst = op(a, imm)`.
    AluImm {
        /// Operation kind.
        op: AluOp,
        /// Destination register.
        dst: Reg,
        /// Source register.
        a: Reg,
        /// Immediate operand (sign-extended to 64 bits).
        imm: i64,
    },
    /// Load immediate: `dst = imm`.
    Li {
        /// Destination register.
        dst: Reg,
        /// Immediate value.
        imm: i64,
    },
    /// Word load: `dst = mem[base + offset]`.
    Load {
        /// Destination register.
        dst: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset (should be word aligned).
        offset: i64,
    },
    /// Word store: `mem[base + offset] = src`.
    Store {
        /// Source (data) register.
        src: Reg,
        /// Base address register.
        base: Reg,
        /// Byte offset (should be word aligned).
        offset: i64,
    },
    /// Conditional branch: `if cond(a, b) goto target`.
    Branch {
        /// Condition code.
        cond: BranchCond,
        /// First comparison register.
        a: Reg,
        /// Second comparison register.
        b: Reg,
        /// Branch target.
        target: Pc,
    },
    /// Unconditional jump.
    Jump {
        /// Jump target.
        target: Pc,
    },
    /// Subroutine call: `ra = pc + 1; goto target`.
    Call {
        /// Entry point of the callee.
        target: Pc,
    },
    /// Subroutine return: `goto ra`.
    Ret,
    /// Stops the machine.
    Halt,
    /// No operation.
    Nop,
}

impl Inst {
    /// The destination register written by this instruction, if any.
    ///
    /// [`Inst::Call`] writes the link register [`Reg::RA`]. Writes to
    /// [`Reg::ZERO`] are architecturally discarded but still reported here;
    /// consumers that care should check [`Reg::is_zero`].
    pub fn dst(&self) -> Option<Reg> {
        match *self {
            Inst::Alu { dst, .. }
            | Inst::AluImm { dst, .. }
            | Inst::Li { dst, .. }
            | Inst::Load { dst, .. } => Some(dst),
            Inst::Call { .. } => Some(Reg::RA),
            _ => None,
        }
    }

    /// The source registers read by this instruction (up to two).
    ///
    /// Reads of [`Reg::ZERO`] are included; it always yields zero.
    pub fn srcs(&self) -> [Option<Reg>; 2] {
        match *self {
            Inst::Alu { a, b, .. } => [Some(a), Some(b)],
            Inst::AluImm { a, .. } => [Some(a), None],
            Inst::Load { base, .. } => [Some(base), None],
            Inst::Store { src, base, .. } => [Some(src), Some(base)],
            Inst::Branch { a, b, .. } => [Some(a), Some(b)],
            Inst::Ret => [Some(Reg::RA), None],
            Inst::Li { .. } | Inst::Jump { .. } | Inst::Call { .. } | Inst::Halt | Inst::Nop => {
                [None, None]
            }
        }
    }

    /// Whether this is any control-transfer instruction (branch, jump, call
    /// or return).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            Inst::Branch { .. } | Inst::Jump { .. } | Inst::Call { .. } | Inst::Ret
        )
    }

    /// Whether this is a conditional branch.
    pub fn is_cond_branch(&self) -> bool {
        matches!(self, Inst::Branch { .. })
    }

    /// Whether this instruction can redirect fetch (any control or halt).
    pub fn is_branch(&self) -> bool {
        self.is_control() || matches!(self, Inst::Halt)
    }

    /// Whether this is a subroutine call.
    pub fn is_call(&self) -> bool {
        matches!(self, Inst::Call { .. })
    }

    /// Whether this is a subroutine return.
    pub fn is_ret(&self) -> bool {
        matches!(self, Inst::Ret)
    }

    /// Whether this is a memory access (load or store).
    pub fn is_mem(&self) -> bool {
        matches!(self, Inst::Load { .. } | Inst::Store { .. })
    }

    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        matches!(self, Inst::Load { .. })
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        matches!(self, Inst::Store { .. })
    }

    /// Whether this halts the machine.
    pub fn is_halt(&self) -> bool {
        matches!(self, Inst::Halt)
    }

    /// The static control-flow target of this instruction, if it has one.
    ///
    /// Returns `None` for non-control instructions and for [`Inst::Ret`],
    /// whose target is dynamic.
    pub fn control_target(&self) -> Option<Pc> {
        match *self {
            Inst::Branch { target, .. } | Inst::Jump { target } | Inst::Call { target } => {
                Some(target)
            }
            _ => None,
        }
    }

    /// The functional-unit class that executes this instruction.
    ///
    /// Control instructions and `li`/`nop`/`halt` use the simple integer
    /// units.
    pub fn fu_class(&self) -> FuClass {
        match self {
            Inst::Alu { op, .. } | Inst::AluImm { op, .. } => op.fu_class(),
            Inst::Load { .. } | Inst::Store { .. } => FuClass::LoadStore,
            _ => FuClass::SimpleInt,
        }
    }
}

impl fmt::Display for Inst {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Inst::Alu { op, dst, a, b } => write!(f, "{op} {dst}, {a}, {b}"),
            Inst::AluImm { op, dst, a, imm } => write!(f, "{op}i {dst}, {a}, {imm}"),
            Inst::Li { dst, imm } => write!(f, "li {dst}, {imm}"),
            Inst::Load { dst, base, offset } => write!(f, "ld {dst}, {offset}({base})"),
            Inst::Store { src, base, offset } => write!(f, "st {src}, {offset}({base})"),
            Inst::Branch { cond, a, b, target } => write!(f, "b{cond} {a}, {b}, {target}"),
            Inst::Jump { target } => write!(f, "j {target}"),
            Inst::Call { target } => write!(f, "call {target}"),
            Inst::Ret => write!(f, "ret"),
            Inst::Halt => write!(f, "halt"),
            Inst::Nop => write!(f, "nop"),
        }
    }
}

serde::impl_serde_enum!(AluOp {
    Add,
    Sub,
    Mul,
    Div,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    Slt,
    Sltu,
    FAdd,
    FMul,
    FDiv,
});

serde::impl_serde_enum!(BranchCond {
    Eq,
    Ne,
    Lt,
    Ge,
    Le,
    Gt,
});

serde::impl_serde_enum!(FuClass {
    SimpleInt,
    LoadStore,
    IntMul,
    FpSimple,
    FpMul,
    FpDiv,
});

serde::impl_serde_enum!(Inst {
    Alu { op, dst, a, b },
    AluImm { op, dst, a, imm },
    Li { dst, imm },
    Load { dst, base, offset },
    Store { src, base, offset },
    Branch { cond, a, b, target },
    Jump { target },
    Call { target },
    Ret,
    Halt,
    Nop,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(u64::MAX, 1), 0);
        assert_eq!(AluOp::Sub.apply(0, 1), u64::MAX);
        assert_eq!(AluOp::Mul.apply(3, 4), 12);
        assert_eq!(AluOp::Div.apply(10, 3), 3);
        assert_eq!(AluOp::Div.apply(10, 0), 0);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Shl.apply(1, 65), 2); // shift amount mod 64
        assert_eq!(AluOp::Shr.apply(4, 1), 2);
        assert_eq!(AluOp::Slt.apply(u64::MAX, 0), 1);
        assert_eq!(AluOp::Sltu.apply(u64::MAX, 0), 0);
    }

    #[test]
    fn branch_conditions_are_signed() {
        assert!(BranchCond::Lt.eval(u64::MAX, 0)); // -1 < 0
        assert!(!BranchCond::Gt.eval(u64::MAX, 0));
        assert!(BranchCond::Eq.eval(5, 5));
        assert!(BranchCond::Ne.eval(5, 6));
        assert!(BranchCond::Le.eval(5, 5));
        assert!(BranchCond::Ge.eval(5, 5));
    }

    #[test]
    fn negate_is_involutive_and_complementary() {
        for c in [
            BranchCond::Eq,
            BranchCond::Ne,
            BranchCond::Lt,
            BranchCond::Ge,
            BranchCond::Le,
            BranchCond::Gt,
        ] {
            assert_eq!(c.negate().negate(), c);
            for (a, b) in [(0u64, 0u64), (1, 2), (2, 1), (u64::MAX, 0)] {
                assert_ne!(c.eval(a, b), c.negate().eval(a, b));
            }
        }
    }

    #[test]
    fn fu_classes_match_paper_resources() {
        assert_eq!(FuClass::SimpleInt.latency(), 1);
        assert_eq!(FuClass::IntMul.latency(), 4);
        assert_eq!(FuClass::FpSimple.latency(), 4);
        assert_eq!(FuClass::FpMul.latency(), 6);
        assert_eq!(FuClass::FpDiv.latency(), 17);
        assert_eq!(FuClass::SimpleInt.units(), 2);
        assert_eq!(FuClass::LoadStore.units(), 2);
        assert_eq!(FuClass::IntMul.units(), 1);
        assert!(!FuClass::FpDiv.pipelined());
        assert!(FuClass::FpMul.pipelined());
        // Dense indices cover 0..6 without collision.
        let mut seen = [false; 6];
        for c in FuClass::ALL {
            assert!(!seen[c.index()]);
            seen[c.index()] = true;
        }
    }

    #[test]
    fn dst_and_srcs() {
        let call = Inst::Call { target: Pc(3) };
        assert_eq!(call.dst(), Some(Reg::RA));
        assert_eq!(Inst::Ret.srcs(), [Some(Reg::RA), None]);
        let st = Inst::Store {
            src: Reg::R1,
            base: Reg::R2,
            offset: 8,
        };
        assert_eq!(st.dst(), None);
        assert_eq!(st.srcs(), [Some(Reg::R1), Some(Reg::R2)]);
    }

    #[test]
    fn classification_predicates() {
        let j = Inst::Jump { target: Pc(0) };
        assert!(j.is_control() && j.is_branch() && !j.is_cond_branch());
        assert!(Inst::Halt.is_branch() && !Inst::Halt.is_control());
        assert!(Inst::Ret.is_ret() && Inst::Ret.control_target().is_none());
        let ld = Inst::Load {
            dst: Reg::R1,
            base: Reg::SP,
            offset: 0,
        };
        assert!(ld.is_mem() && ld.is_load() && !ld.is_store());
    }

    #[test]
    fn display_is_readable() {
        let i = Inst::Branch {
            cond: BranchCond::Ne,
            a: Reg::R1,
            b: Reg::ZERO,
            target: Pc(12),
        };
        assert_eq!(i.to_string(), "bne r1, zero, @12");
    }
}
