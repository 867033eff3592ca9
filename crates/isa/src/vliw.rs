//! VLIW programs: predicated multi-operation instruction words.

use crate::op::{CmpOp, Op, Src};
use crate::pred::Predicate;
use crate::reg::{CondReg, Reg, MAX_CONDS};
use crate::regset::RegSet;
use crate::scalar::MemImage;

/// Function-unit counts of a datapath, shared by the machine (which
/// enforces them) and the schedulers (which pack words within them).
///
/// The paper's base machine has four ALUs, four branch units, two load
/// units and one store unit (Section 4).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Resources {
    /// ALU count.
    pub alu: usize,
    /// Branch-unit count (jumps, compare-and-branch, condition-sets).
    pub branch: usize,
    /// Load-unit count.
    pub load: usize,
    /// Store-unit count.
    pub store: usize,
}

impl Resources {
    /// The paper's base machine: 4 ALU, 4 branch, 2 load, 1 store.
    pub fn paper_base() -> Resources {
        Resources {
            alu: 4,
            branch: 4,
            load: 2,
            store: 1,
        }
    }

    /// A *full-issue* machine (Figure 8): `w` of every unit.
    pub fn full_issue(w: usize) -> Resources {
        Resources {
            alu: w,
            branch: w,
            load: w,
            store: w,
        }
    }

    /// The available units of one class.
    pub fn of(&self, class: FuClass) -> usize {
        match class {
            FuClass::Alu => self.alu,
            FuClass::Branch => self.branch,
            FuClass::Load => self.load,
            FuClass::Store => self.store,
        }
    }
}

impl Default for Resources {
    fn default() -> Resources {
        Resources::paper_base()
    }
}

/// Function-unit classes of the machine's datapath.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum FuClass {
    /// Arithmetic/logic (and copy) operations.
    Alu,
    /// Branch units: jumps, compare-and-branch, and condition-set
    /// instructions (branch-condition computation).
    Branch,
    /// Load units.
    Load,
    /// Store units.
    Store,
}

/// The operation carried by one VLIW slot.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SlotOp {
    /// A straight-line operation.
    Op(Op),
    /// A predicated jump: if the slot predicate is true at issue, control
    /// transfers to `target` (always a region entry).  If the predicate is
    /// unspecified the word stalls until it resolves; if false the jump is
    /// squashed.
    Jump {
        /// Target word address (a region entry).
        target: usize,
    },
    /// A fused compare-and-branch, used by the non-predicating and boosting
    /// models: computes `v = a <cmp> b`, writes `v` to the optional
    /// condition `c`, and transfers control to `target` when `v` is true.
    CmpBr {
        /// CCR entry receiving the comparison result (boosting model); the
        /// purely squashing models pass `None`.
        c: Option<CondReg>,
        /// The comparison.
        cmp: CmpOp,
        /// First operand.
        a: Src,
        /// Second operand.
        b: Src,
        /// Target word address when the comparison holds (a region entry).
        target: usize,
    },
    /// Program end.
    Halt,
}

impl SlotOp {
    /// The function unit this operation occupies.
    pub fn fu_class(&self) -> FuClass {
        match self {
            SlotOp::Op(Op::Load { .. }) => FuClass::Load,
            SlotOp::Op(Op::Store { .. }) => FuClass::Store,
            SlotOp::Op(Op::SetCond { .. }) => FuClass::Branch,
            SlotOp::Op(_) => FuClass::Alu,
            SlotOp::Jump { .. } | SlotOp::CmpBr { .. } | SlotOp::Halt => FuClass::Branch,
        }
    }

    /// The registers read by this slot operation.
    pub fn srcs(&self) -> Vec<Src> {
        match self {
            SlotOp::Op(op) => op.srcs(),
            SlotOp::CmpBr { a, b, .. } => vec![*a, *b],
            SlotOp::Jump { .. } | SlotOp::Halt => vec![],
        }
    }

    /// The registers read by this slot operation, as a set (immediates
    /// skipped).
    pub fn used_regs(&self) -> RegSet {
        match self {
            SlotOp::Op(op) => op.used_regs(),
            SlotOp::CmpBr { a, b, .. } => a.reg_set().union(b.reg_set()),
            SlotOp::Jump { .. } | SlotOp::Halt => RegSet::EMPTY,
        }
    }
}

/// One slot of a VLIW word: a predicate plus an operation.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct Slot {
    /// The commit condition of the operation.
    pub pred: Predicate,
    /// The operation.
    pub op: SlotOp,
}

impl Slot {
    /// Creates a slot.
    pub fn new(pred: Predicate, op: SlotOp) -> Slot {
        Slot { pred, op }
    }

    /// Creates an always-executed slot.
    pub fn alw(op: SlotOp) -> Slot {
        Slot {
            pred: Predicate::always(),
            op,
        }
    }
}

/// One VLIW instruction word: up to `issue_width` slots issued together.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MultiOp {
    /// The operations issued in this word.
    pub slots: Vec<Slot>,
}

impl MultiOp {
    /// Creates a word from slots.
    pub fn new(slots: Vec<Slot>) -> MultiOp {
        MultiOp { slots }
    }
}

/// A VLIW program for the predicating machine.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct VliwProgram {
    /// Human-readable name (usually `<program>.<model>`).
    pub name: String,
    /// The instruction words.
    pub words: Vec<MultiOp>,
    /// Sorted start addresses of the program's regions.  Word 0 must be a
    /// region start.  Control transfers (jumps and fall-through across a
    /// start) reset the CCR and update the region program counter.
    pub region_starts: Vec<usize>,
    /// Number of CCR entries (`K`) the code was compiled for.
    pub num_conds: usize,
    /// Initial register values (copied from the scalar program).
    pub init_regs: Vec<(Reg, i64)>,
    /// Initial memory image (copied from the scalar program).
    pub memory: MemImage,
    /// Output registers that must match the scalar execution.
    pub live_out: Vec<Reg>,
}

impl VliwProgram {
    /// The region start address owning word `addr`: the greatest region
    /// start that is `<= addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range or precedes the first region.
    pub fn region_of(&self, addr: usize) -> usize {
        assert!(addr < self.words.len(), "address {addr} out of range");
        match self.region_starts.binary_search(&addr) {
            Ok(i) => self.region_starts[i],
            Err(0) => panic!("address {addr} precedes the first region"),
            Err(i) => self.region_starts[i - 1],
        }
    }

    /// Total number of non-nop operations (static code size).
    pub fn static_ops(&self) -> usize {
        self.words
            .iter()
            .flat_map(|w| &w.slots)
            .filter(|s| !matches!(s.op, SlotOp::Op(Op::Nop)))
            .count()
    }

    /// Checks structural invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation: unsorted or empty
    /// region table, word 0 not a region start, a jump target that is not a
    /// region start, a predicate or condition-set referencing a CCR entry
    /// `>= num_conds`, or a condition-set instruction with a non-`alw`
    /// predicate (Section 3.4: the compiler does not re-allocate CCR
    /// entries, so condition-sets are always executed).
    pub fn validate(&self) -> Result<(), String> {
        if self.num_conds == 0 || self.num_conds > MAX_CONDS {
            return Err(format!("num_conds {} out of range", self.num_conds));
        }
        if self.region_starts.first() != Some(&0) {
            return Err("word 0 must be a region start".into());
        }
        if !self.region_starts.windows(2).all(|w| w[0] < w[1]) {
            return Err("region starts must be strictly sorted".into());
        }
        if let Some(&last) = self.region_starts.last() {
            if last >= self.words.len() && !self.words.is_empty() {
                return Err("region start beyond end of program".into());
            }
        }
        for (addr, word) in self.words.iter().enumerate() {
            for (si, slot) in word.slots.iter().enumerate() {
                if let Some(max) = slot.pred.max_cond_index() {
                    if max >= self.num_conds {
                        return Err(format!(
                            "word {addr} slot {si}: predicate {} uses c{max} but K={}",
                            slot.pred, self.num_conds
                        ));
                    }
                }
                match slot.op {
                    SlotOp::Jump { target } | SlotOp::CmpBr { target, .. }
                        if self.region_starts.binary_search(&target).is_err() =>
                    {
                        return Err(format!(
                            "word {addr} slot {si}: jump target {target} is not a region start"
                        ));
                    }
                    SlotOp::Op(Op::SetCond { c, .. }) => {
                        if c.index() >= self.num_conds {
                            return Err(format!(
                                "word {addr} slot {si}: sets {c} but K={}",
                                self.num_conds
                            ));
                        }
                        if !slot.pred.is_always() {
                            return Err(format!(
                                "word {addr} slot {si}: condition-set has predicate {}",
                                slot.pred
                            ));
                        }
                    }
                    _ => {}
                }
                if let SlotOp::CmpBr { c: Some(c), .. } = slot.op {
                    if c.index() >= self.num_conds {
                        return Err(format!(
                            "word {addr} slot {si}: sets {c} but K={}",
                            self.num_conds
                        ));
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
    use crate::op::AluOp;

    fn prog(words: Vec<MultiOp>, regions: Vec<usize>) -> VliwProgram {
        VliwProgram {
            name: "t".into(),
            words,
            region_starts: regions,
            num_conds: 4,
            init_regs: vec![],
            memory: MemImage::zeroed(16),
            live_out: vec![],
        }
    }

    #[test]
    fn region_of_lookup() {
        let w = MultiOp::new(vec![Slot::alw(SlotOp::Halt)]);
        let p = prog(vec![w.clone(), w.clone(), w.clone(), w], vec![0, 2]);
        assert_eq!(p.region_of(0), 0);
        assert_eq!(p.region_of(1), 0);
        assert_eq!(p.region_of(2), 2);
        assert_eq!(p.region_of(3), 2);
    }

    #[test]
    fn validate_rejects_bad_jump_target() {
        let w = MultiOp::new(vec![Slot::alw(SlotOp::Jump { target: 1 })]);
        let halt = MultiOp::new(vec![Slot::alw(SlotOp::Halt)]);
        let p = prog(vec![w, halt], vec![0]);
        assert!(p.validate().unwrap_err().contains("not a region start"));
    }

    #[test]
    fn validate_rejects_predicated_setcond() {
        let sc = Op::SetCond {
            c: CondReg::new(0),
            cmp: CmpOp::Lt,
            a: Src::imm(0),
            b: Src::imm(1),
        };
        let w = MultiOp::new(vec![Slot::new(
            Predicate::always().and_pos(CondReg::new(1)),
            SlotOp::Op(sc),
        )]);
        let p = prog(vec![w], vec![0]);
        assert!(p
            .validate()
            .unwrap_err()
            .contains("condition-set has predicate"));
    }

    #[test]
    fn validate_rejects_oversized_condition() {
        let mut p = prog(
            vec![MultiOp::new(vec![Slot::new(
                Predicate::always().and_pos(CondReg::new(5)),
                SlotOp::Halt,
            )])],
            vec![0],
        );
        p.num_conds = 4;
        assert!(p.validate().unwrap_err().contains("uses c5"));
    }

    #[test]
    fn validate_requires_word0_region() {
        let p = prog(vec![MultiOp::new(vec![Slot::alw(SlotOp::Halt)])], vec![]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn fu_classes() {
        let r = Reg::new;
        assert_eq!(
            SlotOp::Op(Op::Alu {
                op: AluOp::Add,
                rd: r(1),
                a: Src::imm(1),
                b: Src::imm(2)
            })
            .fu_class(),
            FuClass::Alu
        );
        assert_eq!(SlotOp::Jump { target: 0 }.fu_class(), FuClass::Branch);
        assert_eq!(
            SlotOp::Op(Op::SetCond {
                c: CondReg::new(0),
                cmp: CmpOp::Eq,
                a: Src::imm(0),
                b: Src::imm(0)
            })
            .fu_class(),
            FuClass::Branch
        );
        assert_eq!(
            SlotOp::Op(Op::Load {
                rd: r(1),
                base: Src::imm(2),
                offset: 0,
                tag: Default::default()
            })
            .fu_class(),
            FuClass::Load
        );
    }

    #[test]
    fn static_ops_skips_nops() {
        let w = MultiOp::new(vec![
            Slot::alw(SlotOp::Op(Op::Nop)),
            Slot::alw(SlotOp::Halt),
        ]);
        let p = prog(vec![w], vec![0]);
        assert_eq!(p.static_ops(), 1);
    }
}
