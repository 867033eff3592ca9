//! The operation set shared by scalar and VLIW programs.

use crate::reg::{CondReg, Reg};

/// ALU operations.  Semantics are on two's-complement `i64` values; shifts
/// mask the shift amount to six bits.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum AluOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Bitwise AND.
    And,
    /// Bitwise OR.
    Or,
    /// Bitwise XOR.
    Xor,
    /// Logical shift left.
    Sll,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Set-less-than (signed): 1 if `a < b`, else 0.
    Slt,
    /// Wrapping multiplication.
    Mul,
}

impl AluOp {
    /// Applies the operation to two values.
    pub fn apply(self, a: i64, b: i64) -> i64 {
        match self {
            AluOp::Add => a.wrapping_add(b),
            AluOp::Sub => a.wrapping_sub(b),
            AluOp::And => a & b,
            AluOp::Or => a | b,
            AluOp::Xor => a ^ b,
            AluOp::Sll => a.wrapping_shl((b & 63) as u32),
            AluOp::Srl => ((a as u64).wrapping_shr((b & 63) as u32)) as i64,
            AluOp::Sra => a.wrapping_shr((b & 63) as u32),
            AluOp::Slt => i64::from(a < b),
            AluOp::Mul => a.wrapping_mul(b),
        }
    }
}

/// Comparison operations used by condition-set instructions and scalar
/// branches.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CmpOp {
    /// `a == b`
    Eq,
    /// `a != b`
    Ne,
    /// `a < b` (signed)
    Lt,
    /// `a <= b` (signed)
    Le,
    /// `a > b` (signed)
    Gt,
    /// `a >= b` (signed)
    Ge,
}

impl CmpOp {
    /// Applies the comparison to two values.
    #[inline]
    pub fn apply(self, a: i64, b: i64) -> bool {
        match self {
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
        }
    }

    /// The comparison with inverted truth value (`Lt` ↔ `Ge`, …).
    ///
    /// Used by the trace-predicating conversion of Section 4.2.1, where the
    /// condition-set instruction is negated so that "condition true" means
    /// "leave the predicted path".
    #[must_use]
    pub fn negate(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Ne,
            CmpOp::Ne => CmpOp::Eq,
            CmpOp::Lt => CmpOp::Ge,
            CmpOp::Le => CmpOp::Gt,
            CmpOp::Gt => CmpOp::Le,
            CmpOp::Ge => CmpOp::Lt,
        }
    }
}

/// A memory-aliasing tag.
///
/// The workload generators label every memory operation with the data
/// structure it addresses (a particular array, table, stack, …).  The
/// schedulers' memory-dependence analysis treats operations with different
/// tags as never aliasing and operations with equal tags (or the
/// conservative [`MemTag::ANY`]) as potentially aliasing.  This stands in
/// for the compiler alias analysis the paper's scheduler had access to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub struct MemTag(pub u16);

impl MemTag {
    /// The conservative tag: may alias anything, including other `ANY` ops.
    pub const ANY: MemTag = MemTag(0);

    /// Whether two tags may refer to the same memory.
    #[inline]
    pub fn may_alias(self, other: MemTag) -> bool {
        self == MemTag::ANY || other == MemTag::ANY || self == other
    }
}

/// A source operand: a register (optionally read from its *speculative*
/// shadow state) or an immediate.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Src {
    /// Read register `reg`; when `shadow` is set the instruction word's
    /// per-source speculative-state bit is set and the operand is fetched
    /// from the shadow storage (falling back to the sequential storage when
    /// the shadow entry is invalid — the operand-fetch hardware of
    /// Section 3.5).  Scalar programs never set `shadow`.
    Reg {
        /// The register to read.
        reg: Reg,
        /// Fetch from the speculative state.
        shadow: bool,
    },
    /// An immediate value.
    Imm(i64),
}

impl Src {
    /// A sequential-state register source.
    #[inline]
    pub fn reg(r: Reg) -> Src {
        Src::Reg {
            reg: r,
            shadow: false,
        }
    }

    /// A speculative-state (shadow) register source.
    #[inline]
    pub fn shadow(r: Reg) -> Src {
        Src::Reg {
            reg: r,
            shadow: true,
        }
    }

    /// An immediate source.
    #[inline]
    pub fn imm(v: i64) -> Src {
        Src::Imm(v)
    }

    /// The register read by this source, if any.
    #[inline]
    pub fn as_reg(&self) -> Option<Reg> {
        match self {
            Src::Reg { reg, .. } => Some(*reg),
            Src::Imm(_) => None,
        }
    }

    /// Returns a copy reading the same register with the shadow bit set to
    /// `shadow`; immediates are returned unchanged.
    #[must_use]
    pub fn with_shadow(self, shadow: bool) -> Src {
        match self {
            Src::Reg { reg, .. } => Src::Reg { reg, shadow },
            imm => imm,
        }
    }
}

impl From<Reg> for Src {
    fn from(r: Reg) -> Src {
        Src::reg(r)
    }
}

impl From<i64> for Src {
    fn from(v: i64) -> Src {
        Src::imm(v)
    }
}

/// A straight-line operation: the operation part of an instruction.
///
/// The same type is used inside scalar basic blocks (where the `shadow`
/// bits of sources are always clear) and inside VLIW slots.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Op {
    /// `rd = a <op> b`
    Alu {
        /// The ALU operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First operand.
        a: Src,
        /// Second operand.
        b: Src,
    },
    /// `rd = src` — an explicit register copy (inserted by renaming).
    Copy {
        /// Destination register.
        rd: Reg,
        /// Source operand.
        src: Src,
    },
    /// `rd = load(base + offset)` — may cause a memory exception.
    Load {
        /// Destination register.
        rd: Reg,
        /// Base address operand.
        base: Src,
        /// Constant offset added to the base.
        offset: i64,
        /// Aliasing tag for the scheduler's memory-dependence analysis.
        tag: MemTag,
    },
    /// `store(base + offset) = value` — may cause a memory exception.
    Store {
        /// Base address operand.
        base: Src,
        /// Constant offset added to the base.
        offset: i64,
        /// The value to store.
        value: Src,
        /// Aliasing tag for the scheduler's memory-dependence analysis.
        tag: MemTag,
    },
    /// `c = a <cmp> b` — a condition-set instruction writing one CCR entry.
    ///
    /// Only appears in VLIW code (scalar branches carry their own compare);
    /// its predicate is always `alw` because the compiler does not
    /// re-allocate CCR entries within a region (Section 3.4).
    SetCond {
        /// Destination CCR entry.
        c: CondReg,
        /// The comparison.
        cmp: CmpOp,
        /// First operand.
        a: Src,
        /// Second operand.
        b: Src,
    },
    /// No operation.
    Nop,
}

impl Op {
    /// The general register written by this op, if any.
    pub fn def_reg(&self) -> Option<Reg> {
        match self {
            Op::Alu { rd, .. } | Op::Copy { rd, .. } | Op::Load { rd, .. } => {
                (!rd.is_zero()).then_some(*rd)
            }
            _ => None,
        }
    }

    /// The source operands read by this op.
    pub fn srcs(&self) -> Vec<Src> {
        match self {
            Op::Alu { a, b, .. } | Op::SetCond { a, b, .. } => vec![*a, *b],
            Op::Copy { src, .. } => vec![*src],
            Op::Load { base, .. } => vec![*base],
            Op::Store { base, value, .. } => vec![*base, *value],
            Op::Nop => vec![],
        }
    }

    /// The registers read by this op (immediates skipped, duplicates kept).
    pub fn used_regs(&self) -> Vec<Reg> {
        self.srcs().iter().filter_map(Src::as_reg).collect()
    }

    /// Rewrites every register source via `f` (e.g. for renaming or setting
    /// shadow bits).  The destination is not touched.
    #[must_use]
    pub fn map_srcs(self, mut f: impl FnMut(Src) -> Src) -> Op {
        match self {
            Op::Alu { op, rd, a, b } => Op::Alu {
                op,
                rd,
                a: f(a),
                b: f(b),
            },
            Op::Copy { rd, src } => Op::Copy { rd, src: f(src) },
            Op::Load {
                rd,
                base,
                offset,
                tag,
            } => Op::Load {
                rd,
                base: f(base),
                offset,
                tag,
            },
            Op::Store {
                base,
                offset,
                value,
                tag,
            } => Op::Store {
                base: f(base),
                offset,
                value: f(value),
                tag,
            },
            Op::SetCond { c, cmp, a, b } => Op::SetCond {
                c,
                cmp,
                a: f(a),
                b: f(b),
            },
            Op::Nop => Op::Nop,
        }
    }

    /// Returns a copy with the destination register replaced by `rd`.
    ///
    /// # Panics
    ///
    /// Panics if the op has no general-register destination.
    #[must_use]
    pub fn with_def(self, new_rd: Reg) -> Op {
        match self {
            Op::Alu { op, a, b, .. } => Op::Alu {
                op,
                rd: new_rd,
                a,
                b,
            },
            Op::Copy { src, .. } => Op::Copy { rd: new_rd, src },
            Op::Load {
                base, offset, tag, ..
            } => Op::Load {
                rd: new_rd,
                base,
                offset,
                tag,
            },
            other => panic!("op {other:?} has no register destination"),
        }
    }

    /// Whether this op accesses memory.
    #[inline]
    pub fn is_mem(&self) -> bool {
        matches!(self, Op::Load { .. } | Op::Store { .. })
    }

    /// Whether this op is *unsafe* in the paper's sense: it may cause an
    /// exception, so moving it speculatively requires exception buffering.
    #[inline]
    pub fn is_unsafe(&self) -> bool {
        self.is_mem()
    }

    /// The memory tag, if this is a memory op.
    pub fn mem_tag(&self) -> Option<MemTag> {
        match self {
            Op::Load { tag, .. } | Op::Store { tag, .. } => Some(*tag),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alu_semantics() {
        assert_eq!(AluOp::Add.apply(i64::MAX, 1), i64::MIN); // wrapping
        assert_eq!(AluOp::Sub.apply(3, 5), -2);
        assert_eq!(AluOp::And.apply(0b1100, 0b1010), 0b1000);
        assert_eq!(AluOp::Or.apply(0b1100, 0b1010), 0b1110);
        assert_eq!(AluOp::Xor.apply(0b1100, 0b1010), 0b0110);
        assert_eq!(AluOp::Sll.apply(1, 4), 16);
        assert_eq!(AluOp::Srl.apply(-1, 60), 15);
        assert_eq!(AluOp::Sra.apply(-16, 2), -4);
        assert_eq!(AluOp::Slt.apply(-1, 0), 1);
        assert_eq!(AluOp::Slt.apply(0, 0), 0);
        assert_eq!(AluOp::Mul.apply(7, -3), -21);
    }

    #[test]
    fn shift_amount_masked() {
        assert_eq!(AluOp::Sll.apply(1, 64), 1);
        assert_eq!(AluOp::Sll.apply(1, 65), 2);
    }

    #[test]
    fn cmp_semantics_and_negation() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for (a, b) in [(0, 0), (1, 2), (2, 1), (-5, 5)] {
                assert_eq!(op.apply(a, b), !op.negate().apply(a, b), "{op:?} {a} {b}");
            }
        }
    }

    #[test]
    fn mem_tag_aliasing() {
        assert!(MemTag::ANY.may_alias(MemTag(3)));
        assert!(MemTag(3).may_alias(MemTag::ANY));
        assert!(MemTag(3).may_alias(MemTag(3)));
        assert!(!MemTag(3).may_alias(MemTag(4)));
    }

    #[test]
    fn def_and_use_sets() {
        let r = Reg::new;
        let op = Op::Alu {
            op: AluOp::Add,
            rd: r(3),
            a: Src::reg(r(1)),
            b: Src::imm(7),
        };
        assert_eq!(op.def_reg(), Some(r(3)));
        assert_eq!(op.used_regs(), vec![r(1)]);

        let st = Op::Store {
            base: Src::reg(r(2)),
            offset: 4,
            value: Src::reg(r(5)),
            tag: MemTag(1),
        };
        assert_eq!(st.def_reg(), None);
        assert_eq!(st.used_regs(), vec![r(2), r(5)]);
        assert!(st.is_mem() && st.is_unsafe());
    }

    #[test]
    fn zero_register_never_defined() {
        let op = Op::Copy {
            rd: Reg::ZERO,
            src: Src::imm(9),
        };
        assert_eq!(op.def_reg(), None);
    }

    #[test]
    fn with_def_and_map_srcs() {
        let r = Reg::new;
        let op = Op::Load {
            rd: r(1),
            base: Src::reg(r(2)),
            offset: 0,
            tag: MemTag::ANY,
        };
        let renamed = op.with_def(r(9));
        assert_eq!(renamed.def_reg(), Some(r(9)));
        let shadowed = renamed.map_srcs(|s| s.with_shadow(true));
        assert_eq!(shadowed.srcs()[0], Src::shadow(r(2)));
    }
}
