//! Scalar programs: a CFG of basic blocks over the MIPS-like register ISA.

use crate::op::{Op, Src};
use crate::reg::Reg;
use crate::regset::RegSet;
use crate::CmpOp;
use std::fmt;

/// Identifier of a basic block within a [`ScalarProgram`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BlockId(pub u32);

impl BlockId {
    /// The block's index into [`ScalarProgram::blocks`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "B{}", self.0)
    }
}

/// The control-flow terminator of a basic block.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum Terminator {
    /// Unconditional jump.
    Jump(BlockId),
    /// Two-way conditional branch: if `a <cmp> b` control goes to `taken`,
    /// otherwise to `not_taken`.  On the scalar reference machine this is a
    /// single compare-and-branch instruction, as on the R3000.
    Branch {
        /// The comparison deciding the branch.
        cmp: CmpOp,
        /// First operand.
        a: Src,
        /// Second operand.
        b: Src,
        /// Successor when the comparison holds.
        taken: BlockId,
        /// Successor when the comparison does not hold.
        not_taken: BlockId,
    },
    /// Program end.
    #[default]
    Halt,
}

impl Terminator {
    /// The successor blocks, taken edge first.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Terminator::Jump(t) => vec![*t],
            Terminator::Branch {
                taken, not_taken, ..
            } => vec![*taken, *not_taken],
            Terminator::Halt => vec![],
        }
    }

    /// Rewrites successor block ids via `f` (used by duplication passes).
    #[must_use]
    pub fn map_targets(self, mut f: impl FnMut(BlockId) -> BlockId) -> Terminator {
        match self {
            Terminator::Jump(t) => Terminator::Jump(f(t)),
            Terminator::Branch {
                cmp,
                a,
                b,
                taken,
                not_taken,
            } => Terminator::Branch {
                cmp,
                a,
                b,
                taken: f(taken),
                not_taken: f(not_taken),
            },
            Terminator::Halt => Terminator::Halt,
        }
    }

    /// The registers read by the terminator, as a set.
    #[inline]
    pub fn used_regs(&self) -> RegSet {
        match self {
            Terminator::Branch { a, b, .. } => a.reg_set().union(b.reg_set()),
            _ => RegSet::EMPTY,
        }
    }
}

/// A basic block: straight-line ops followed by one terminator.
#[derive(Clone, PartialEq, Hash, Debug, Default)]
pub struct Block {
    /// The straight-line operations of the block, in program order.
    pub instrs: Vec<Op>,
    /// The control-flow terminator.
    pub term: Terminator,
}

/// The initial memory image of a program.
///
/// Memory is word-addressed: each address holds one `i64`.  Valid addresses
/// are `1..size`; address `0` plays the role of the NULL page and always
/// faults, as do negative and out-of-range addresses.
#[derive(Clone, PartialEq, Hash, Debug, Default)]
pub struct MemImage {
    /// One past the largest valid address.
    pub size: i64,
    /// Non-zero initial cells as `(address, value)` pairs.
    pub cells: Vec<(i64, i64)>,
}

impl MemImage {
    /// Creates an image of `size` words, all zero.
    pub fn zeroed(size: i64) -> MemImage {
        MemImage {
            size,
            cells: Vec::new(),
        }
    }

    /// Sets an initial cell.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is outside `1..size`.
    pub fn set(&mut self, addr: i64, value: i64) {
        assert!(
            addr >= 1 && addr < self.size,
            "initial cell {addr} out of range"
        );
        self.cells.push((addr, value));
    }
}

/// A scalar program: the representation the schedulers consume and the
/// scalar reference machine executes.
#[derive(Clone, PartialEq, Hash, Debug, Default)]
pub struct ScalarProgram {
    /// Human-readable program name (used in reports).
    pub name: String,
    /// All basic blocks; [`BlockId`] indexes into this vector.
    pub blocks: Vec<Block>,
    /// The entry block.
    pub entry: BlockId,
    /// Initial register values; unlisted registers start at 0.
    pub init_regs: Vec<(Reg, i64)>,
    /// Initial memory image.
    pub memory: MemImage,
    /// Registers whose final values are program outputs.  Schedulers must
    /// preserve exactly these (plus final memory); everything else may be
    /// clobbered by renaming.
    pub live_out: Vec<Reg>,
}

impl ScalarProgram {
    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.index()]
    }

    /// Successors of a block, taken edge first.
    pub fn successors(&self, id: BlockId) -> Vec<BlockId> {
        self.block(id).term.successors()
    }

    /// Total number of straight-line instructions plus terminators that are
    /// real instructions (branches and jumps), i.e. static code size.
    pub fn static_len(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| {
                b.instrs.len()
                    + match b.term {
                        Terminator::Halt => 0,
                        _ => 1,
                    }
            })
            .sum()
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant: an
    /// out-of-range successor or entry, a scalar op with a shadow source, or
    /// a condition-set op (scalar code has no CCR).
    pub fn validate(&self) -> Result<(), String> {
        if self.entry.index() >= self.blocks.len() {
            return Err(format!("entry {} out of range", self.entry));
        }
        for (i, b) in self.blocks.iter().enumerate() {
            for s in b.term.successors() {
                if s.index() >= self.blocks.len() {
                    return Err(format!("B{i} has out-of-range successor {s}"));
                }
            }
            for (j, op) in b.instrs.iter().enumerate() {
                if matches!(op, Op::SetCond { .. }) {
                    return Err(format!("B{i}[{j}] is a condition-set op in scalar code"));
                }
                for s in op.srcs() {
                    if matches!(s, Src::Reg { shadow: true, .. }) {
                        return Err(format!("B{i}[{j}] reads a shadow register in scalar code"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{AluOp, MemTag};

    fn tiny() -> ScalarProgram {
        let r = Reg::new;
        ScalarProgram {
            name: "tiny".into(),
            blocks: vec![
                Block {
                    instrs: vec![Op::Alu {
                        op: AluOp::Add,
                        rd: r(1),
                        a: Src::reg(r(1)),
                        b: Src::imm(1),
                    }],
                    term: Terminator::Branch {
                        cmp: CmpOp::Lt,
                        a: Src::reg(r(1)),
                        b: Src::imm(10),
                        taken: BlockId(0),
                        not_taken: BlockId(1),
                    },
                },
                Block {
                    instrs: vec![],
                    term: Terminator::Halt,
                },
            ],
            entry: BlockId(0),
            init_regs: vec![],
            memory: MemImage::zeroed(64),
            live_out: vec![r(1)],
        }
    }

    #[test]
    fn successors_taken_first() {
        let p = tiny();
        assert_eq!(p.successors(BlockId(0)), vec![BlockId(0), BlockId(1)]);
        assert_eq!(p.successors(BlockId(1)), vec![]);
    }

    #[test]
    fn static_len_counts_branches() {
        assert_eq!(tiny().static_len(), 2); // add + branch; halt is free
    }

    #[test]
    fn validate_ok() {
        assert!(tiny().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_successor() {
        let mut p = tiny();
        p.blocks[1].term = Terminator::Jump(BlockId(9));
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_shadow_source() {
        let mut p = tiny();
        p.blocks[1].instrs.push(Op::Copy {
            rd: Reg::new(2),
            src: Src::shadow(Reg::new(1)),
        });
        assert!(p.validate().is_err());
    }

    #[test]
    fn mem_image_set() {
        let mut m = MemImage::zeroed(16);
        m.set(4, 42);
        assert_eq!(m.cells, vec![(4, 42)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn mem_image_rejects_null() {
        MemImage::zeroed(16).set(0, 1);
    }

    #[test]
    fn terminator_map_targets() {
        let t = Terminator::Branch {
            cmp: CmpOp::Eq,
            a: Src::imm(0),
            b: Src::imm(0),
            taken: BlockId(1),
            not_taken: BlockId(2),
        };
        let mapped = t.map_targets(|b| BlockId(b.0 + 10));
        assert_eq!(mapped.successors(), vec![BlockId(11), BlockId(12)]);
    }

    #[test]
    fn mem_tag_used_in_ops() {
        let op = Op::Load {
            rd: Reg::new(1),
            base: Src::imm(4),
            offset: 0,
            tag: MemTag(7),
        };
        assert_eq!(op.mem_tag(), Some(MemTag(7)));
    }
}
