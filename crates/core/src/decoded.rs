//! Decoded program representation for the tabled issue path.
//!
//! The legacy issue path re-reads its program every cycle: it clones the
//! [`MultiOp`](psb_isa::MultiOp) word at PC (a `Vec` allocation) and walks
//! [`SlotOp::srcs`] (another allocation per slot) to screen for operand
//! hazards.  The tabled engine instead reads an arena decoded once at
//! machine construction: `Copy` slots whose source-register sets are
//! pre-folded into [`RegSet`] masks, plus per-word metadata that lets the issue
//! loop skip the store/control prepass and the fall-through region lookup
//! when they cannot matter.  The per-cycle issue loop is then
//! allocation-free and hazard screening is a single mask intersection per
//! word.
//!
//! Decode also stamps every word with a *class index*
//! (`word_class_index`): which of the issue path's prepasses the word
//! can need.  The tabled engine picks one of eight specialised word-issue
//! paths by this index.
//!
//! Both engines share the per-slot execution semantics
//! (`VliwMachine::exec_slot_*`), so the decoded representation only changes
//! *how fast* a word is inspected, never *what* it does; the differential
//! fuzz harness holds the engines to byte-identical event logs.

use psb_isa::{Op, Predicate, RegSet, SlotOp, VliwProgram};

/// Number of word classes: one bit per [`word_class_index`] axis.
pub(crate) const NUM_WORD_CLASSES: usize = 8;

/// Dense index of a word's issue-path specialisation class.
/// bit 0: any slot has a conditional (non-`alw`) predicate
/// bit 1: the word contains at least one store slot
/// bit 2: the word contains a control-transfer slot
pub(crate) const fn word_class_index(any_cond: bool, any_store: bool, any_control: bool) -> u8 {
    any_cond as u8 | (any_store as u8) << 1 | (any_control as u8) << 2
}

/// One decoded slot: the predicate and operation copied out of the
/// program, plus the set of registers the operation reads.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DecodedSlot {
    /// The slot's commit condition.
    pub pred: Predicate,
    /// The operation.
    pub op: SlotOp,
    /// The registers the operation reads (shadow or sequential source
    /// alike — both stall on an in-flight write).
    pub src_mask: RegSet,
}

/// Per-word metadata driving the issue loop's fast paths.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DecodedWord {
    /// Index of this word's first slot in [`DecodedProgram::slots`].
    pub first_slot: u32,
    /// Number of slots in this word.
    pub num_slots: u32,
    /// Union of the slots' [`DecodedSlot::src_mask`]s: when it does not
    /// intersect the in-flight destination mask, no slot can stall on an
    /// operand and the per-slot hazard check is skipped.
    pub src_union: RegSet,
    /// Number of store slots (counted regardless of predicate).  Zero lets
    /// the issue loop skip the store-buffer overflow prepass entirely.
    pub store_slots: u8,
    /// Whether `addr + 1` is a region start, pre-resolving the
    /// fall-through region check's binary search.
    pub falls_into_region: bool,
    /// The word's issue-path class (`word_class_index`): one bit per
    /// specialisation axis (conditional predicates present / store slots
    /// present / control transfer — jump, compare-and-branch or halt —
    /// present), selecting the streamlined issue path that skips
    /// whichever prepasses cannot matter.
    pub class: u8,
}

/// A program decoded once into dense slot and word arenas.
///
/// Built by [`DecodedProgram::decode`] at machine construction
/// ([`Engine::Tabled`](crate::Engine::Tabled) reads it on every cycle;
/// [`Engine::Legacy`](crate::Engine::Legacy) ignores it and re-decodes
/// per cycle as the differential oracle).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct DecodedProgram {
    /// Per-word metadata, indexed by word address.
    pub words: Vec<DecodedWord>,
    /// All slots, grouped by word (`words[a]` owns
    /// `slots[first_slot..first_slot + num_slots]`).
    pub slots: Vec<DecodedSlot>,
}

/// The set of registers read by `op`.
fn src_mask(op: &SlotOp) -> RegSet {
    op.srcs().iter().filter_map(|s| s.as_reg()).collect()
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
            let mut store_slots = 0u8;
            let mut any_control = false;
            let mut any_cond = false;
            for slot in &word.slots {
                let mask = src_mask(&slot.op);
                src_union = src_union.union(mask);
                any_cond |= !slot.pred.is_always();
                match slot.op {
                    SlotOp::Op(Op::Store { .. }) => store_slots += 1,
                    SlotOp::Jump { .. } | SlotOp::CmpBr { .. } | SlotOp::Halt => {
                        any_control = true;
                    }
                    _ => {}
                }
                slots.push(DecodedSlot {
                    pred: slot.pred,
                    op: slot.op,
                    src_mask: mask,
                });
            }
            let next = addr + 1;
            words.push(DecodedWord {
                first_slot,
                num_slots: word.slots.len() as u32,
                src_union,
                store_slots,
                falls_into_region: next < prog.words.len()
                    && prog.region_starts.binary_search(&next).is_ok(),
                class: word_class_index(any_cond, store_slots > 0, any_control),
            });
        }
        DecodedProgram { words, slots }
    }

    /// The slot index range of `word`.
    #[inline]
    pub fn slot_range(word: &DecodedWord) -> std::ops::Range<usize> {
        let a = word.first_slot as usize;
        a..a + word.num_slots as usize
    }

    /// Checks that the arena's per-word metadata is exactly what
    /// [`DecodedProgram::decode`] would produce for its own slots: the
    /// slot ranges tile the slot arena, and every word's class index and
    /// store-slot count (which the specialised issue paths rely on) are
    /// re-derived and compared.
    ///
    /// Machine construction runs this before the first cycle, so a
    /// corrupted or hand-constructed arena is rejected with a
    /// [`Malformed`](crate::VliwError::Malformed) error at decode time —
    /// the tabled engine never picks an issue path from an unchecked
    /// class.
    pub fn validate_dispatch(&self) -> Result<(), String> {
        let mut next_slot = 0usize;
        for (addr, w) in self.words.iter().enumerate() {
            let a = w.first_slot as usize;
            let n = w.num_slots as usize;
            if a != next_slot {
                return Err(format!(
                    "word {addr}: slot range starts at {a}, expected {next_slot}"
                ));
            }
            next_slot = a + n;
            let Some(slots) = self.slots.get(a..a + n) else {
                return Err(format!(
                    "word {addr}: slot range {a}..{} out of bounds",
                    a + n
                ));
            };
            let mut any_cond = false;
            let mut store_slots = 0u8;
            let mut any_control = false;
            for s in slots {
                any_cond |= !s.pred.is_always();
                match s.op {
                    SlotOp::Op(Op::Store { .. }) => store_slots += 1,
                    SlotOp::Jump { .. } | SlotOp::CmpBr { .. } | SlotOp::Halt => {
                        any_control = true;
                    }
                    _ => {}
                }
            }
            if w.store_slots != store_slots {
                return Err(format!(
                    "word {addr}: store-slot count {} does not match its slots \
                     (expected {store_slots})",
                    w.store_slots
                ));
            }
            let want = word_class_index(any_cond, store_slots > 0, any_control);
            if w.class != want {
                return Err(format!(
                    "word {addr}: dispatch word class {} does not match its slots \
                     (expected {want})",
                    w.class
                ));
            }
        }
        if next_slot != self.slots.len() {
            return Err(format!(
                "slot arena has {} slots but words cover {next_slot}",
                self.slots.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_isa::{AluOp, CondReg, MemImage, MemTag, MultiOp, Reg, Slot, Src};

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
        assert_eq!(w0.store_slots, 1);
        assert!(!w0.falls_into_region);
        assert_eq!(d.slots[0].src_mask, regs(&[1, 2]));
        assert_eq!(d.slots[1].src_mask, regs(&[3, 4]));

        let w1 = &d.words[1];
        assert_eq!(w1.src_union, RegSet::EMPTY);
        assert_eq!(w1.store_slots, 0);
        assert!(w1.falls_into_region, "W2 is a region start");

        let w2 = &d.words[2];
        assert!(!w2.falls_into_region, "no word past the end");
        assert_eq!(DecodedProgram::slot_range(w2), 3..4);
    }

    #[test]
    fn decode_lowers_word_classes() {
        let d = DecodedProgram::decode(&prog());
        // All predicates are `alw`, so every word class has bit 0 clear.
        assert_eq!(d.words[0].class, word_class_index(false, true, false));
        assert_eq!(d.words[1].class, word_class_index(false, false, false));
        assert_eq!(d.words[2].class, word_class_index(false, false, true));
        d.validate_dispatch().expect("decode output validates");
    }

    #[test]
    fn word_classes_cover_all_axes() {
        let mut seen = [false; NUM_WORD_CLASSES];
        for cond in [false, true] {
            for store in [false, true] {
                for control in [false, true] {
                    seen[word_class_index(cond, store, control) as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn conditional_predicates_set_the_cond_class_bit() {
        let r = Reg::new;
        let mut p = prog();
        p.words[1] = MultiOp::new(vec![Slot {
            pred: Predicate::always().and_pos(CondReg::new(0)),
            op: SlotOp::Op(Op::Copy {
                rd: r(1),
                src: Src::imm(1),
            }),
        }]);
        let d = DecodedProgram::decode(&p);
        assert_eq!(d.words[1].class, word_class_index(true, false, false));
        d.validate_dispatch().expect("decode output validates");
    }

    #[test]
    fn validate_dispatch_rejects_corruption() {
        let mut d = DecodedProgram::decode(&prog());
        d.words[2].class = 7;
        let err = d.validate_dispatch().unwrap_err();
        assert!(err.contains("dispatch word class 7"), "{err}");

        let mut d = DecodedProgram::decode(&prog());
        d.words[0].store_slots = 0;
        let err = d.validate_dispatch().unwrap_err();
        assert!(err.contains("store-slot count"), "{err}");

        let mut d = DecodedProgram::decode(&prog());
        d.words[1].first_slot = 0;
        assert!(d.validate_dispatch().is_err());

        let mut d = DecodedProgram::decode(&prog());
        d.slots.push(d.slots[0]);
        let err = d.validate_dispatch().unwrap_err();
        assert!(err.contains("slot arena"), "{err}");

        // Swapping the halt for a nop without re-decoding leaves the
        // word's control bit set: caught.
        let mut d = DecodedProgram::decode(&prog());
        d.slots[3].op = SlotOp::Op(Op::Nop);
        assert!(d.validate_dispatch().is_err());
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
