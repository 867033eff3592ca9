//! Decoded program representation for the tabled issue path.
//!
//! The legacy issue path re-reads its program every cycle: it clones the
//! [`MultiOp`](psb_isa::MultiOp) word at PC (a `Vec` allocation) and walks
//! [`SlotOp::srcs`] (another allocation per slot) to screen for operand
//! hazards.  The tabled engine instead reads an arena decoded once at
//! machine construction: `Copy` slots whose source-register sets are
//! pre-folded into [`RegSet`] masks, plus per-word metadata that lets the
//! normal-mode issue loop skip the store/control prepass and the
//! fall-through region lookup when they cannot matter.  The per-cycle
//! issue loop is then allocation-free and hazard screening is a single
//! mask intersection per word.
//!
//! [`DecodedProgram::decode`] is the only constructor and the arena's
//! fields are crate-private, so every arena a machine reads is decode's
//! own output for some program; the machine checks that it is the
//! decoding of the program it runs ([`DecodedProgram::matches`]).
//!
//! Both engines share the per-slot execution semantics
//! (`VliwMachine::exec_slot_*`), so the decoded representation only changes
//! *how fast* a word is inspected, never *what* it does; the differential
//! fuzz harness holds the engines to byte-identical event logs.

use psb_isa::{Op, Predicate, RegSet, SlotOp, VliwProgram};

/// One decoded slot: the predicate and operation copied out of the
/// program, plus the set of registers the operation reads.
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) struct DecodedSlot {
    /// The slot's commit condition.
    pub(crate) pred: Predicate,
    /// The operation.
    pub(crate) op: SlotOp,
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
/// it and re-decodes per cycle as the differential oracle).
#[derive(Clone, PartialEq, Debug)]
pub struct DecodedProgram {
    /// Per-word metadata, indexed by word address.
    pub(crate) words: Vec<DecodedWord>,
    /// All slots, grouped by word (`words[a]` owns
    /// `slots[first_slot..first_slot + num_slots]`).
    pub(crate) slots: Vec<DecodedSlot>,
}

/// The set of registers read by `op`.
fn src_mask(op: &SlotOp) -> RegSet {
    op.srcs().iter().filter_map(|s| s.as_reg()).collect()
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
                let mask = src_mask(&slot.op);
                src_union = src_union.union(mask);
                prepass |= matches!(
                    slot.op,
                    SlotOp::Op(Op::Store { .. })
                        | SlotOp::Jump { .. }
                        | SlotOp::CmpBr { .. }
                        | SlotOp::Halt
                );
                slots.push(DecodedSlot {
                    pred: slot.pred,
                    op: slot.op,
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
    /// (predicate and op) and the same fall-through region flag.  The
    /// masks, the prepass flag and the slot offsets follow from those,
    /// since [`decode`](Self::decode) built them.
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
                            .all(|(d, s)| d.pred == s.pred && d.op == s.op)
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
    use psb_isa::{AluOp, MemImage, MemTag, MultiOp, Reg, Slot, Src};

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
        assert_eq!(src_mask(&op), regs(&[7]));
        assert_eq!(src_mask(&SlotOp::Jump { target: 0 }), RegSet::EMPTY);
    }
}
