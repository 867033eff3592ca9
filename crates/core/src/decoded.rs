//! Decoded program representation for the tabled issue path.
//!
//! The legacy issue path re-reads its program every cycle: it clones the
//! [`MultiOp`](psb_isa::MultiOp) word at PC (a `Vec` allocation) and walks
//! [`SlotOp::srcs`] (another allocation per slot) to screen for operand
//! hazards.  The tabled engine instead reads an arena decoded once at
//! machine construction: `Copy` slots holding each operation lowered to a
//! flat micro-op ([`Uop`]) with its source-register set pre-folded into a
//! [`RegSet`] mask, plus per-word metadata that lets the normal-mode
//! issue loop skip the store/control prepass and the fall-through region
//! lookup when they cannot matter.  The per-cycle issue loop is then
//! allocation-free, hazard screening is a single mask intersection per
//! word, and each live slot dispatches through one `match` on the
//! micro-op rather than one on [`SlotOp`] and a second on [`Op`].
//!
//! [`DecodedProgram::decode`] is the only constructor and the arena's
//! fields are crate-private, so every arena a machine reads is decode's
//! own output for some program; the machine checks that it is the
//! decoding of the program it runs ([`DecodedProgram::matches`]).
//!
//! Both engines execute a live slot through the same micro-op match
//! (`VliwMachine::exec_uop_*`): the tabled engine reads the micro-op from
//! the arena, the legacy engine lowers the slot it reads from the program
//! text with the same [`Uop::lower`].  The arena therefore changes only
//! *how fast* a word is inspected, never *what* it does, and the legacy
//! engine never reads it; the differential fuzz harness holds the
//! engines to byte-identical event logs.

use psb_isa::{AluOp, CmpOp, CondReg, Op, Predicate, Reg, RegSet, SlotOp, Src, VliwProgram};

/// One slot operation as the machine executes it: [`SlotOp`] and its
/// nested [`Op`] flattened into one level, keeping every field the
/// machine reads.  The scheduler's memory-aliasing tags ([`psb_isa::MemTag`])
/// are dropped: no machine path reads them.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum Uop {
    /// No operation.
    Nop,
    /// `rd = a <op> b`.
    Alu { op: AluOp, rd: Reg, a: Src, b: Src },
    /// `rd = src`.
    Copy { rd: Reg, src: Src },
    /// `c = a <cmp> b`, one CCR entry.
    SetCond {
        c: CondReg,
        cmp: CmpOp,
        a: Src,
        b: Src,
    },
    /// `rd = load(base + offset)`.
    Load { rd: Reg, base: Src, offset: i64 },
    /// `store(base + offset) = value`.
    Store { base: Src, offset: i64, value: Src },
    /// Predicated jump to a region entry.
    Jump { target: usize },
    /// Fused compare-and-branch, optionally writing its outcome to `c`.
    CmpBr {
        c: Option<CondReg>,
        cmp: CmpOp,
        a: Src,
        b: Src,
        target: usize,
    },
    /// Program end.
    Halt,
}

impl Uop {
    /// Lowers one slot operation.  Decode calls it once per slot; the
    /// legacy engine calls it on every slot it issues from the program
    /// text.
    #[inline]
    pub(crate) fn lower(op: &SlotOp) -> Uop {
        match *op {
            SlotOp::Op(Op::Nop) => Uop::Nop,
            SlotOp::Op(Op::Alu { op, rd, a, b }) => Uop::Alu { op, rd, a, b },
            SlotOp::Op(Op::Copy { rd, src }) => Uop::Copy { rd, src },
            SlotOp::Op(Op::SetCond { c, cmp, a, b }) => Uop::SetCond { c, cmp, a, b },
            SlotOp::Op(Op::Load {
                rd, base, offset, ..
            }) => Uop::Load { rd, base, offset },
            SlotOp::Op(Op::Store {
                base,
                offset,
                value,
                ..
            }) => Uop::Store {
                base,
                offset,
                value,
            },
            SlotOp::Jump { target } => Uop::Jump { target },
            SlotOp::CmpBr {
                c,
                cmp,
                a,
                b,
                target,
            } => Uop::CmpBr {
                c,
                cmp,
                a,
                b,
                target,
            },
            SlotOp::Halt => Uop::Halt,
        }
    }

    /// The general register the micro-op writes, if any (`r0` never
    /// counts), as [`Op::def_reg`].
    #[inline]
    pub(crate) fn def_reg(&self) -> Option<Reg> {
        match *self {
            Uop::Alu { rd, .. } | Uop::Copy { rd, .. } | Uop::Load { rd, .. } => {
                (!rd.is_zero()).then_some(rd)
            }
            _ => None,
        }
    }

    /// Whether the micro-op is a control transfer (jump,
    /// compare-and-branch or halt).
    #[inline]
    pub(crate) fn is_control(&self) -> bool {
        matches!(self, Uop::Jump { .. } | Uop::CmpBr { .. } | Uop::Halt)
    }
}

/// One decoded slot: the predicate copied out of the program, the
/// operation lowered to a micro-op, and the set of registers it reads.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct DecodedSlot {
    /// The slot's commit condition.
    pub(crate) pred: Predicate,
    /// The lowered operation.
    pub(crate) op: Uop,
    /// The registers the operation reads (shadow or sequential source
    /// alike — both stall on an in-flight write).
    pub(crate) src_mask: RegSet,
}

/// Per-word metadata driving the issue loop's fast paths.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct DecodedWord {
    /// Index of this word's first slot in [`DecodedProgram::slots`].
    pub(crate) first_slot: u32,
    /// Number of slots in this word.
    pub(crate) num_slots: u32,
    /// Union of the slots' [`DecodedSlot::src_mask`]s: when it does not
    /// intersect the in-flight destination mask, no slot can stall on an
    /// operand and the per-slot hazard check is skipped.
    pub(crate) src_union: RegSet,
    /// Whether the word has a store or a control transfer (jump,
    /// compare-and-branch or halt).  Without one, the store/control
    /// prepass can neither stall nor fail, and normal-mode issue skips it.
    pub(crate) prepass: bool,
    /// Whether `addr + 1` is a region start, pre-resolving the
    /// fall-through region check's binary search.
    pub(crate) falls_into_region: bool,
}

/// A program decoded once into dense slot and word arenas.
///
/// Built by [`DecodedProgram::decode`] at machine construction
/// ([`Engine::Tabled`](crate::Engine::Tabled) reads it on every
/// normal-mode cycle; [`Engine::Legacy`](crate::Engine::Legacy) ignores
/// it and lowers each slot from the program text as the differential
/// oracle).
#[derive(Clone, PartialEq, Debug)]
pub struct DecodedProgram {
    /// Per-word metadata, indexed by word address.
    pub(crate) words: Vec<DecodedWord>,
    /// All slots, grouped by word (`words[a]` owns
    /// `slots[first_slot..first_slot + num_slots]`).
    pub(crate) slots: Vec<DecodedSlot>,
}

/// Whether falling through word `addr` of `prog` enters a new region.
fn falls_into_region(prog: &VliwProgram, addr: usize) -> bool {
    let next = addr + 1;
    next < prog.words.len() && prog.region_starts.binary_search(&next).is_ok()
}

impl DecodedProgram {
    /// Decodes `prog` into the dense arena form.  Called once per machine
    /// construction; every per-cycle question the issue loop asks is
    /// answered here ahead of time.
    pub fn decode(prog: &VliwProgram) -> DecodedProgram {
        let mut words = Vec::with_capacity(prog.words.len());
        let mut slots = Vec::with_capacity(prog.words.iter().map(|w| w.slots.len()).sum());
        for (addr, word) in prog.words.iter().enumerate() {
            let first_slot = slots.len() as u32;
            let mut src_union = RegSet::EMPTY;
            let mut prepass = false;
            for slot in &word.slots {
                let op = Uop::lower(&slot.op);
                let mask = slot.op.used_regs();
                src_union = src_union.union(mask);
                prepass |= op.is_control() || matches!(op, Uop::Store { .. });
                slots.push(DecodedSlot {
                    pred: slot.pred,
                    op,
                    src_mask: mask,
                });
            }
            words.push(DecodedWord {
                first_slot,
                num_slots: word.slots.len() as u32,
                src_union,
                prepass,
                falls_into_region: falls_into_region(prog, addr),
            });
        }
        DecodedProgram { words, slots }
    }

    /// Whether this arena is the decoding of `prog`, checked in one pass
    /// without decoding again: the same words, each with the same slots
    /// (predicate and lowered op) and the same fall-through region flag.
    /// The masks, the prepass flag and the slot offsets follow from
    /// those, since [`decode`](Self::decode) built them.  Lowering drops
    /// the memory-aliasing tags, which the machine never reads, so an
    /// arena also matches a program that differs from its own only in
    /// those tags: both run identically.
    pub(crate) fn matches(&self, prog: &VliwProgram) -> bool {
        self.words.len() == prog.words.len()
            && self
                .words
                .iter()
                .zip(&prog.words)
                .enumerate()
                .all(|(addr, (w, word))| {
                    let slots = &self.slots[Self::slot_range(w)];
                    w.falls_into_region == falls_into_region(prog, addr)
                        && slots.len() == word.slots.len()
                        && slots
                            .iter()
                            .zip(&word.slots)
                            .all(|(d, s)| d.pred == s.pred && d.op == Uop::lower(&s.op))
                })
    }

    /// The number of slots across all words.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// The slot index range of `word`.
    #[inline]
    pub(crate) fn slot_range(word: &DecodedWord) -> std::ops::Range<usize> {
        let a = word.first_slot as usize;
        a..a + word.num_slots as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_isa::{MemImage, MemTag, MultiOp, Slot};

    fn prog() -> VliwProgram {
        let r = Reg::new;
        VliwProgram {
            name: "decode-test".into(),
            words: vec![
                // W0: alu reading r1, r2; store reading r3, r4.
                MultiOp::new(vec![
                    Slot::alw(SlotOp::Op(Op::Alu {
                        op: AluOp::Add,
                        rd: r(5),
                        a: Src::reg(r(1)),
                        b: Src::reg(r(2)),
                    })),
                    Slot::alw(SlotOp::Op(Op::Store {
                        base: Src::reg(r(3)),
                        offset: 0,
                        value: Src::reg(r(4)),
                        tag: MemTag::ANY,
                    })),
                ]),
                // W1: pure nop word (falls into the region at W2).
                MultiOp::new(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
                // W2: halt (control).
                MultiOp::new(vec![Slot::alw(SlotOp::Halt)]),
            ],
            region_starts: vec![0, 2],
            num_conds: 2,
            init_regs: vec![],
            memory: MemImage::zeroed(8),
            live_out: vec![],
        }
    }

    fn regs(indices: &[usize]) -> RegSet {
        indices.iter().map(|&i| Reg::new(i)).collect()
    }

    #[test]
    fn decode_masks_and_metadata() {
        let d = DecodedProgram::decode(&prog());
        assert_eq!(d.words.len(), 3);
        assert_eq!(d.slots.len(), 4);

        let w0 = &d.words[0];
        assert_eq!((w0.first_slot, w0.num_slots), (0, 2));
        assert_eq!(w0.src_union, regs(&[1, 2, 3, 4]));
        assert!(w0.prepass, "W0 has a store");
        assert!(!w0.falls_into_region);
        assert_eq!(d.slots[0].src_mask, regs(&[1, 2]));
        assert_eq!(d.slots[1].src_mask, regs(&[3, 4]));

        let w1 = &d.words[1];
        assert_eq!(w1.src_union, RegSet::EMPTY);
        assert!(!w1.prepass, "W1 is a nop");
        assert!(w1.falls_into_region, "W2 is a region start");

        let w2 = &d.words[2];
        assert!(w2.prepass, "W2 halts");
        assert!(!w2.falls_into_region, "no word past the end");
        assert_eq!(DecodedProgram::slot_range(w2), 3..4);
    }

    #[test]
    fn immediates_contribute_no_mask_bits() {
        let r = Reg::new;
        let op = SlotOp::Op(Op::Alu {
            op: AluOp::Add,
            rd: r(1),
            a: Src::imm(3),
            b: Src::reg(r(7)),
        });
        let mut p = prog();
        p.words[1].slots[0].op = op;
        assert_eq!(DecodedProgram::decode(&p).slots[2].src_mask, regs(&[7]));
        assert_eq!(SlotOp::Jump { target: 0 }.used_regs(), RegSet::EMPTY);
    }

    #[test]
    fn lowering_keeps_every_field_the_machine_reads() {
        let r = Reg::new;
        let c = CondReg::new;
        let (a, b) = (Src::shadow(r(2)), Src::imm(-9));
        let tag = MemTag(7);
        // One case per `SlotOp`/`Op` variant, with the micro-op it must
        // lower to, its source set and its written register.
        let cases = [
            (SlotOp::Op(Op::Nop), Uop::Nop, vec![], None),
            (
                SlotOp::Op(Op::Alu {
                    op: AluOp::Sra,
                    rd: r(3),
                    a,
                    b: Src::reg(r(4)),
                }),
                Uop::Alu {
                    op: AluOp::Sra,
                    rd: r(3),
                    a,
                    b: Src::reg(r(4)),
                },
                vec![2, 4],
                Some(r(3)),
            ),
            (
                SlotOp::Op(Op::Copy { rd: r(5), src: a }),
                Uop::Copy { rd: r(5), src: a },
                vec![2],
                Some(r(5)),
            ),
            (
                SlotOp::Op(Op::SetCond {
                    c: c(3),
                    cmp: CmpOp::Le,
                    a,
                    b,
                }),
                Uop::SetCond {
                    c: c(3),
                    cmp: CmpOp::Le,
                    a,
                    b,
                },
                vec![2],
                None,
            ),
            (
                SlotOp::Op(Op::Load {
                    rd: r(6),
                    base: a,
                    offset: -4,
                    tag,
                }),
                Uop::Load {
                    rd: r(6),
                    base: a,
                    offset: -4,
                },
                vec![2],
                Some(r(6)),
            ),
            (
                SlotOp::Op(Op::Load {
                    rd: Reg::ZERO,
                    base: b,
                    offset: 1,
                    tag,
                }),
                Uop::Load {
                    rd: Reg::ZERO,
                    base: b,
                    offset: 1,
                },
                vec![],
                None,
            ),
            (
                SlotOp::Op(Op::Store {
                    base: Src::reg(r(8)),
                    offset: 12,
                    value: a,
                    tag,
                }),
                Uop::Store {
                    base: Src::reg(r(8)),
                    offset: 12,
                    value: a,
                },
                vec![2, 8],
                None,
            ),
            (
                SlotOp::Jump { target: 41 },
                Uop::Jump { target: 41 },
                vec![],
                None,
            ),
            (
                SlotOp::CmpBr {
                    c: Some(c(1)),
                    cmp: CmpOp::Gt,
                    a: Src::reg(r(9)),
                    b: a,
                    target: 17,
                },
                Uop::CmpBr {
                    c: Some(c(1)),
                    cmp: CmpOp::Gt,
                    a: Src::reg(r(9)),
                    b: a,
                    target: 17,
                },
                vec![2, 9],
                None,
            ),
            (
                SlotOp::CmpBr {
                    c: None,
                    cmp: CmpOp::Eq,
                    a: b,
                    b,
                    target: 3,
                },
                Uop::CmpBr {
                    c: None,
                    cmp: CmpOp::Eq,
                    a: b,
                    b,
                    target: 3,
                },
                vec![],
                None,
            ),
            (SlotOp::Halt, Uop::Halt, vec![], None),
        ];
        for (slot_op, want, srcs, def) in cases {
            let uop = Uop::lower(&slot_op);
            assert_eq!(uop, want, "{slot_op:?}");
            // Decode's mask is the set of the program op's own sources.
            let from_srcs: RegSet = slot_op.srcs().iter().filter_map(|s| s.as_reg()).collect();
            assert_eq!(slot_op.used_regs(), regs(&srcs), "{slot_op:?}");
            assert_eq!(from_srcs, regs(&srcs), "{slot_op:?}");
            assert_eq!(uop.def_reg(), def, "{slot_op:?}");
            if let SlotOp::Op(op) = slot_op {
                assert_eq!(uop.def_reg(), op.def_reg(), "{slot_op:?}");
            }
            let control = matches!(
                slot_op,
                SlotOp::Jump { .. } | SlotOp::CmpBr { .. } | SlotOp::Halt
            );
            assert_eq!(uop.is_control(), control, "{slot_op:?}");
        }
    }

    #[test]
    fn matches_rejects_an_arena_one_operand_off() {
        let p = prog();
        let d = DecodedProgram::decode(&p);
        assert!(d.matches(&p));
        // The store's offset, then the alu's second source register.
        let mut off = p.clone();
        if let SlotOp::Op(Op::Store { offset, .. }) = &mut off.words[0].slots[1].op {
            *offset = 1;
        }
        assert!(!d.matches(&off), "store offset differs");
        let mut src = p.clone();
        if let SlotOp::Op(Op::Alu { b, .. }) = &mut src.words[0].slots[0].op {
            *b = Src::shadow(Reg::new(2));
        }
        assert!(!d.matches(&src), "shadow bit differs");
        if let SlotOp::Op(Op::Alu { b, .. }) = &mut src.words[0].slots[0].op {
            *b = Src::reg(Reg::new(6));
        }
        assert!(!d.matches(&src), "source register differs");
        // Memory tags are not lowered: the machine never reads them.
        let mut tagged = p.clone();
        if let SlotOp::Op(Op::Store { tag, .. }) = &mut tagged.words[0].slots[1].op {
            *tag = MemTag(3);
        }
        assert!(d.matches(&tagged), "only the aliasing tag differs");
    }
}
