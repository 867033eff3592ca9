use super::*;
use crate::config::ShadowMode;
use psb_isa::{AluOp, CmpOp, MemImage, MemTag, Slot};

fn r(i: usize) -> Reg {
    Reg::new(i)
}

fn c(i: usize) -> CondReg {
    CondReg::new(i)
}

fn p() -> Predicate {
    Predicate::always()
}

fn alu(rd: Reg, a: Src, op: AluOp, b: Src) -> SlotOp {
    SlotOp::Op(Op::Alu { op, rd, a, b })
}

fn load(rd: Reg, base: Src, offset: i64) -> SlotOp {
    SlotOp::Op(Op::Load {
        rd,
        base,
        offset,
        tag: MemTag::ANY,
    })
}

fn store(base: Src, offset: i64, value: Src) -> SlotOp {
    SlotOp::Op(Op::Store {
        base,
        offset,
        value,
        tag: MemTag::ANY,
    })
}

fn setc(cr: CondReg, cmp: CmpOp, a: Src, b: Src) -> SlotOp {
    SlotOp::Op(Op::SetCond { c: cr, cmp, a, b })
}

fn word(slots: Vec<Slot>) -> MultiOp {
    MultiOp::new(slots)
}

fn prog(words: Vec<MultiOp>, regions: Vec<usize>) -> VliwProgram {
    VliwProgram {
        name: "test".into(),
        words,
        region_starts: regions,
        num_conds: 4,
        init_regs: vec![],
        memory: MemImage::zeroed(64),
        live_out: vec![],
    }
}

fn run(p: &VliwProgram) -> VliwResult {
    VliwMachine::run_program(p, MachineConfig::two_issue().with_events()).unwrap()
}

#[test]
fn straight_line_alu() {
    let pr = prog(
        vec![
            word(vec![Slot::alw(alu(
                r(1),
                Src::imm(2),
                AluOp::Add,
                Src::imm(3),
            ))]),
            word(vec![Slot::alw(alu(
                r(2),
                Src::reg(r(1)),
                AluOp::Mul,
                Src::imm(10),
            ))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let res = run(&pr);
    assert_eq!(res.regs[1], 5);
    assert_eq!(res.regs[2], 50);
    assert_eq!(res.cycles, 3);
    assert_eq!(res.words_issued, 3);
}

#[test]
fn speculative_write_commits_on_true() {
    // W0: spec write r1 under c0; W1: set c0 true; W2/W3: pad; W4: halt.
    let pr = prog(
        vec![
            word(vec![Slot::new(
                p().and_pos(c(0)),
                alu(r(1), Src::imm(7), AluOp::Add, Src::imm(0)),
            )]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(1),
                Src::imm(1),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let res = run(&pr);
    assert_eq!(res.regs[1], 7);
    assert!(res
        .events
        .iter()
        .any(|e| matches!(e, Event::Commit { cycle: 3, .. })));
}

#[test]
fn speculative_write_squashes_on_false() {
    let pr = prog(
        vec![
            word(vec![Slot::new(
                p().and_pos(c(0)),
                alu(r(1), Src::imm(7), AluOp::Add, Src::imm(0)),
            )]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(1),
                Src::imm(2),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let res = run(&pr);
    assert_eq!(res.regs[1], 0);
    assert!(res
        .events
        .iter()
        .any(|e| matches!(e, Event::Squash { cycle: 3, .. })));
}

#[test]
fn false_predicate_squashed_at_issue() {
    // c0 := false, then a c0-predicated op: squashed at issue, no state.
    let pr = prog(
        vec![
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(1),
            ))]),
            word(vec![Slot::new(
                p().and_pos(c(0)),
                alu(r(1), Src::imm(9), AluOp::Add, Src::imm(0)),
            )]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let res = run(&pr);
    assert_eq!(res.regs[1], 0);
    assert_eq!(res.ops_squashed, 1);
    assert!(!res
        .events
        .iter()
        .any(|e| matches!(e, Event::SpecWrite { .. })));
}

#[test]
fn load_latency_and_interlock() {
    let mut pr = prog(
        vec![
            word(vec![Slot::alw(load(r(1), Src::imm(4), 0))]),
            word(vec![Slot::alw(alu(
                r(2),
                Src::reg(r(1)),
                AluOp::Add,
                Src::imm(1),
            ))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    pr.memory.set(4, 41);
    let res = run(&pr);
    assert_eq!(res.regs[2], 42);
    // cycle 1: load; cycle 2: stall (r1 in flight, lands end of 2);
    // cycle 3: add; cycle 4: halt.
    assert_eq!(res.cycles, 4);
    assert_eq!(res.stall_operand, 1);
}

#[test]
fn jump_with_unspecified_predicate_stalls() {
    // Jump predicated on c0 which is set in the same region one word
    // earlier by a 1-cycle op; jump issues next cycle without stalling.
    // Then a jump issued *before* its condition resolves must stall.
    let pr = prog(
        vec![
            // W0: long-latency producer for the condition source.
            word(vec![Slot::alw(load(r(1), Src::imm(4), 0))]),
            // W1: set c0 from r1 (stalls one cycle on the interlock).
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::reg(r(1)),
                Src::imm(0),
            ))]),
            // W2: jump on c0 — c0 lands end of previous cycle, no stall.
            word(vec![Slot::new(
                p().and_pos(c(0)),
                SlotOp::Jump { target: 4 },
            )]),
            word(vec![Slot::alw(SlotOp::Halt)]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0, 3, 4],
    );
    let res = run(&pr);
    // mem[4] == 0 so c0 true: jump taken to W4.
    assert_eq!(res.region_transfers, 1);
    assert!(res
        .events
        .iter()
        .any(|e| matches!(e, Event::RegionEnter { addr: 4, .. })));
}

#[test]
fn unresolvable_jump_predicate_is_malformed() {
    // The condition for the jump is set by the *same* word: in an in-order
    // machine it can never be specified at the jump's issue, so this is a
    // scheduling error, not a stall.
    let pr = prog(
        vec![
            word(vec![
                Slot::alw(setc(c(0), CmpOp::Eq, Src::imm(0), Src::imm(0))),
                Slot::new(p().and_pos(c(0)), SlotOp::Jump { target: 1 }),
            ]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0, 1],
    );
    let err = VliwMachine::run_program(&pr, MachineConfig::two_issue()).unwrap_err();
    assert!(matches!(err, VliwError::Malformed(m) if m.contains("unspecified at issue")));
}

#[test]
fn region_exit_resets_ccr_and_squashes_spec() {
    let pr = prog(
        vec![
            // W0: set c0 true; buffer a spec value under c1 (never set).
            word(vec![
                Slot::alw(setc(c(0), CmpOp::Eq, Src::imm(0), Src::imm(0))),
                Slot::new(
                    p().and_pos(c(1)),
                    alu(r(1), Src::imm(5), AluOp::Add, Src::imm(0)),
                ),
            ]),
            // W1: exit under c0.
            word(vec![Slot::new(
                p().and_pos(c(0)),
                SlotOp::Jump { target: 2 },
            )]),
            // W2 (new region): an op under !c0 — CCR was reset, so this is
            // *unspecified*, not false: it executes speculatively and is
            // never resolved before halt... so predicate it on nothing.
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0, 2],
    );
    let res = run(&pr);
    assert_eq!(
        res.regs[1], 0,
        "speculative r1 must be squashed at region exit"
    );
    let squashes: Vec<_> = res
        .events
        .iter()
        .filter(|e| matches!(e, Event::Squash { .. }))
        .collect();
    assert_eq!(squashes.len(), 1);
}

#[test]
fn store_buffer_commit_and_retire() {
    let pr = prog(
        vec![
            word(vec![Slot::new(
                p().and_pos(c(0)),
                store(Src::imm(8), 0, Src::imm(77)),
            )]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(0),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let res = run(&pr);
    assert_eq!(res.memory.read(8).unwrap(), 77);
}

#[test]
fn squashed_store_never_reaches_memory() {
    let pr = prog(
        vec![
            word(vec![Slot::new(
                p().and_pos(c(0)),
                store(Src::imm(8), 0, Src::imm(77)),
            )]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(1),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let res = run(&pr);
    assert_eq!(res.memory.read(8).unwrap(), 0);
}

#[test]
fn store_to_load_forwarding() {
    // A store sits in the buffer (unretired, speculative-committed later);
    // a load from the same address must see it.
    let pr = prog(
        vec![
            word(vec![Slot::alw(store(Src::imm(8), 0, Src::imm(55)))]),
            word(vec![Slot::alw(load(r(1), Src::imm(8), 0))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let res = run(&pr);
    assert_eq!(res.regs[1], 55);
}

#[test]
fn commit_during_execution() {
    // A speculative load whose predicate resolves true before writeback
    // writes the sequential state directly (the paper's i6).
    let mut pr = prog(
        vec![
            word(vec![
                Slot::new(p().and_pos(c(0)), load(r(1), Src::imm(4), 0)),
                Slot::alw(setc(c(0), CmpOp::Eq, Src::imm(0), Src::imm(0))),
            ]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    pr.memory.set(4, 9);
    let res = run(&pr);
    assert_eq!(res.regs[1], 9);
    // The write must be sequential (no spec-write/commit pair for r1).
    assert!(res
        .events
        .iter()
        .any(|e| matches!(e, Event::SeqWrite { cycle: 2, reg } if *reg == r(1))));
    assert!(!res
        .events
        .iter()
        .any(|e| matches!(e, Event::SpecWrite { loc: StateLoc::Reg(reg), .. } if *reg == r(1))));
}

#[test]
fn shadow_source_reads_speculative_state() {
    let pr = prog(
        vec![
            word(vec![Slot::new(
                p().and_pos(c(0)),
                alu(r(1), Src::imm(3), AluOp::Add, Src::imm(0)),
            )]),
            word(vec![Slot::new(
                p().and_pos(c(0)),
                alu(r(2), Src::shadow(r(1)), AluOp::Mul, Src::imm(2)),
            )]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(0),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let res = run(&pr);
    assert_eq!(res.regs[1], 3);
    assert_eq!(res.regs[2], 6);
}

#[test]
fn shadow_fallback_after_commit() {
    // Producer commits before the shadow-reading consumer issues; the
    // operand fetch falls back to the sequential storage (Section 3.5).
    let pr = prog(
        vec![
            word(vec![Slot::new(
                p().and_pos(c(0)),
                alu(r(1), Src::imm(3), AluOp::Add, Src::imm(0)),
            )]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(0),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            // r1 committed at cycle 3; this issues at cycle 4 with a shadow
            // source and must still see 3.
            word(vec![Slot::new(
                p().and_pos(c(0)),
                alu(r(2), Src::shadow(r(1)), AluOp::Mul, Src::imm(2)),
            )]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let res = run(&pr);
    assert_eq!(res.regs[2], 6);
}

#[test]
fn shadow_conflict_detected_in_single_mode() {
    let pr = prog(
        vec![
            word(vec![Slot::new(
                p().and_pos(c(0)),
                alu(r(1), Src::imm(1), AluOp::Add, Src::imm(0)),
            )]),
            word(vec![Slot::new(
                p().and_pos(c(1)),
                alu(r(1), Src::imm(2), AluOp::Add, Src::imm(0)),
            )]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let err = VliwMachine::run_program(&pr, MachineConfig::two_issue()).unwrap_err();
    assert!(matches!(err, VliwError::ShadowConflict { reg, .. } if reg == r(1)));
    // The infinite-shadow configuration accepts the same program.
    let mut cfg = MachineConfig::two_issue();
    cfg.shadow_mode = ShadowMode::Infinite;
    VliwMachine::run_program(&pr, cfg).unwrap();
}

#[test]
fn fatal_fault_on_nonspeculative_access() {
    let pr = prog(
        vec![
            word(vec![Slot::alw(load(r(1), Src::imm(0), 0))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let err = VliwMachine::run_program(&pr, MachineConfig::two_issue()).unwrap_err();
    assert!(matches!(
        err,
        VliwError::Fault {
            word: 0,
            fault: MemFault::Null
        }
    ));
}

#[test]
fn fault_once_nonspeculative_pays_penalty() {
    let pr = prog(
        vec![
            word(vec![Slot::alw(load(r(1), Src::imm(4), 0))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let mut cfg = MachineConfig::two_issue();
    cfg.fault_once_addrs.insert(4);
    cfg.fault_penalty = 10;
    let res = VliwMachine::run_program(&pr, cfg).unwrap();
    assert_eq!(res.faults_handled, 1);
    assert!(
        res.cycles >= 13,
        "penalty cycles must be charged, got {}",
        res.cycles
    );
}

#[test]
fn squashed_speculative_fault_costs_nothing() {
    // A speculative load from a fault-once page whose predicate resolves
    // false: the exception is squashed, no handler runs.
    let pr = prog(
        vec![
            word(vec![Slot::new(
                p().and_pos(c(0)),
                load(r(1), Src::imm(4), 0),
            )]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(1),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let mut cfg = MachineConfig::two_issue();
    cfg.fault_once_addrs.insert(4);
    cfg.fault_penalty = 1000;
    let res = VliwMachine::run_program(&pr, cfg).unwrap();
    assert_eq!(res.faults_handled, 0);
    assert_eq!(res.recoveries, 0);
    assert!(res.cycles < 20);
}

/// The paper's Section 3.4 example: Figure 4's 2-issue schedule must
/// reproduce the machine state transition of Table 1 cycle by cycle.
#[test]
fn table1_state_transition() {
    // Conditions: c0 = r3 < r4, c1 = r5 < r6, c2 = r2 < 0.
    // Initial: r2 = 4 (pointer), mem[4] = 10, r4 = 100, r5 = 5,
    // mem[11] = 50, mem[6] = 77 ("array"), r7 = 20.
    let array = Src::imm(6);
    let mut pr = prog(
        vec![
            // (1) i1: alw r1 = load(r2)        i15: c0&c1 r2 = r2 - 1
            word(vec![
                Slot::alw(load(r(1), Src::reg(r(2)), 0)),
                Slot::new(
                    p().and_pos(c(0)).and_pos(c(1)),
                    alu(r(2), Src::reg(r(2)), AluOp::Sub, Src::imm(1)),
                ),
            ]),
            // (2) i10: !c0 r5 = load array     i14: c0&c1 store(r7) = r5
            word(vec![
                Slot::new(p().and_neg(c(0)), load(r(5), array, 0)),
                Slot::new(
                    p().and_pos(c(0)).and_pos(c(1)),
                    store(Src::reg(r(7)), 0, Src::reg(r(5))),
                ),
            ]),
            // (3) i2: alw r3 = r1 + 1          i16: c0&c1 r7 = r2.s << 1
            word(vec![
                Slot::alw(alu(r(3), Src::reg(r(1)), AluOp::Add, Src::imm(1))),
                Slot::new(
                    p().and_pos(c(0)).and_pos(c(1)),
                    alu(r(7), Src::shadow(r(2)), AluOp::Sll, Src::imm(1)),
                ),
            ]),
            // (4) i6: c0 r6 = load(r3)         i3: alw c0 = r3 < r4
            word(vec![
                Slot::new(p().and_pos(c(0)), load(r(6), Src::reg(r(3)), 0)),
                Slot::alw(setc(c(0), CmpOp::Lt, Src::reg(r(3)), Src::reg(r(4)))),
            ]),
            // (5) i11: alw c2 = r2 < 0         nop
            word(vec![
                Slot::alw(setc(c(2), CmpOp::Lt, Src::reg(r(2)), Src::imm(0))),
                Slot::alw(SlotOp::Op(Op::Nop)),
            ]),
            // (6) i7: alw c1 = r5 < r6         i12: !c0&c2 j L6
            word(vec![
                Slot::alw(setc(c(1), CmpOp::Lt, Src::reg(r(5)), Src::reg(r(6)))),
                Slot::new(p().and_neg(c(0)).and_pos(c(2)), SlotOp::Jump { target: 8 }),
            ]),
            // (7) i9: c0&!c1 j L5              i17: c0&c1 j L8
            word(vec![
                Slot::new(p().and_pos(c(0)).and_neg(c(1)), SlotOp::Jump { target: 8 }),
                Slot::new(p().and_pos(c(0)).and_pos(c(1)), SlotOp::Jump { target: 8 }),
            ]),
            // (8) i13: !c0&!c2 j L7            nop
            word(vec![
                Slot::new(p().and_neg(c(0)).and_neg(c(2)), SlotOp::Jump { target: 8 }),
                Slot::alw(SlotOp::Op(Op::Nop)),
            ]),
            // L8: the next region.
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0, 8],
    );
    pr.init_regs = vec![(r(2), 4), (r(4), 100), (r(5), 5), (r(7), 20)];
    pr.memory.set(4, 10);
    pr.memory.set(11, 50);
    pr.memory.set(6, 77);
    let res = run(&pr);

    // Final architectural state.
    assert_eq!(res.regs[1], 10); // i1
    assert_eq!(res.regs[3], 11); // i2
    assert_eq!(res.regs[6], 50); // i6 (committed during execution)
    assert_eq!(res.regs[2], 3); // i15 committed
    assert_eq!(res.regs[7], 6); // i16 committed: (4-1) << 1
    assert_eq!(res.regs[5], 5); // i10 squashed
    assert_eq!(res.memory.read(20).unwrap(), 5); // i14 committed & retired

    // Table 1, row by row.
    let ev = &res.events;
    let has = |pat: &dyn Fn(&Event) -> bool| ev.iter().any(pat);
    // cycle 1: speculative write r2 with predicate c0&c1.
    assert!(has(
        &|e| matches!(e, Event::SpecWrite { cycle: 1, loc: StateLoc::Reg(reg), .. } if *reg == r(2))
    ));
    // cycle 2: sequential write r1; speculative store sb1.
    assert!(has(
        &|e| matches!(e, Event::SeqWrite { cycle: 2, reg } if *reg == r(1))
    ));
    assert!(has(&|e| matches!(
        e,
        Event::SpecWrite {
            cycle: 2,
            loc: StateLoc::Sb(1),
            ..
        }
    )));
    // cycle 3: seq write r3; spec writes r5 (!c0) and r7 (c0&c1).
    assert!(has(
        &|e| matches!(e, Event::SeqWrite { cycle: 3, reg } if *reg == r(3))
    ));
    assert!(has(
        &|e| matches!(e, Event::SpecWrite { cycle: 3, loc: StateLoc::Reg(reg), .. } if *reg == r(5))
    ));
    assert!(has(
        &|e| matches!(e, Event::SpecWrite { cycle: 3, loc: StateLoc::Reg(reg), .. } if *reg == r(7))
    ));
    // cycle 4: c0 := T.
    assert!(has(
        &|e| matches!(e, Event::CondSet { cycle: 4, c: cc, value: Cond::True } if cc.index() == 0)
    ));
    // cycle 5: seq write r6 (commit during execution); squash r5; c2 := F.
    assert!(has(
        &|e| matches!(e, Event::SeqWrite { cycle: 5, reg } if *reg == r(6))
    ));
    assert!(has(
        &|e| matches!(e, Event::Squash { cycle: 5, loc: StateLoc::Reg(reg) } if *reg == r(5))
    ));
    assert!(has(
        &|e| matches!(e, Event::CondSet { cycle: 5, c: cc, value: Cond::False } if cc.index() == 2)
    ));
    // cycle 6: c1 := T.
    assert!(has(
        &|e| matches!(e, Event::CondSet { cycle: 6, c: cc, value: Cond::True } if cc.index() == 1)
    ));
    // cycle 7: commits of r2, r7 and sb1; transfer to L8.
    assert!(has(
        &|e| matches!(e, Event::Commit { cycle: 7, loc: StateLoc::Reg(reg) } if *reg == r(2))
    ));
    assert!(has(
        &|e| matches!(e, Event::Commit { cycle: 7, loc: StateLoc::Reg(reg) } if *reg == r(7))
    ));
    assert!(has(&|e| matches!(
        e,
        Event::Commit {
            cycle: 7,
            loc: StateLoc::Sb(1)
        }
    )));
    assert!(has(&|e| matches!(
        e,
        Event::RegionEnter { cycle: 7, addr: 8 }
    )));
    // The transfer happens in cycle 7, so word (8) never issues: 8 cycles
    // total (7 in the region + the halt).
    assert_eq!(res.cycles, 8);
}

/// Figure 5's future-condition recovery: two speculative exceptions are
/// buffered; the committed one is handled during re-execution, the one
/// false under the future condition is ignored.
#[test]
fn figure5_future_condition_recovery() {
    let mut pr = prog(
        vec![
            // i1: alw r1 = r2
            word(vec![Slot::alw(SlotOp::Op(Op::Copy {
                rd: r(1),
                src: Src::reg(r(2)),
            }))]),
            // i2: alw c0 = r3 < 0
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Lt,
                Src::reg(r(3)),
                Src::imm(0),
            ))]),
            // i3: c0 r2 = load(r2)
            word(vec![Slot::new(
                p().and_pos(c(0)),
                load(r(2), Src::reg(r(2)), 0),
            )]),
            // i4: c0&c1 r3 = load(r4)   — faults (fault-once page)
            word(vec![Slot::new(
                p().and_pos(c(0)).and_pos(c(1)),
                load(r(3), Src::reg(r(4)), 0),
            )]),
            // i5: c0&!c1 r5 = load(r6)  — faults (fault-once page)
            word(vec![Slot::new(
                p().and_pos(c(0)).and_neg(c(1)),
                load(r(5), Src::reg(r(6)), 0),
            )]),
            // i6: c0&c1 r7 = r7 + r3.s
            word(vec![Slot::new(
                p().and_pos(c(0)).and_pos(c(1)),
                alu(r(7), Src::reg(r(7)), AluOp::Add, Src::shadow(r(3))),
            )]),
            // i7: alw c1 = r2 > r8      — commits the exception on r3
            word(vec![Slot::alw(setc(
                c(1),
                CmpOp::Gt,
                Src::reg(r(2)),
                Src::reg(r(8)),
            ))]),
            word(vec![Slot::alw(SlotOp::Jump { target: 8 })]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0, 8],
    );
    pr.init_regs = vec![
        (r(2), 10),
        (r(3), -1), // c0 true
        (r(4), 12), // faulting page
        (r(6), 14), // faulting page
        (r(7), 100),
        (r(8), 20),
    ];
    pr.memory.set(10, 30); // i3 loads 30 into r2 => c1 = 30 > 20 = true
    pr.memory.set(12, 42); // i4's eventual value
    pr.memory.set(14, 7); // i5's value, never read
    let mut cfg = MachineConfig::two_issue().with_events();
    cfg.fault_once_addrs.insert(12);
    cfg.fault_once_addrs.insert(14);
    cfg.fault_penalty = 5;
    let res = VliwMachine::run_program(&pr, cfg).unwrap();

    assert_eq!(res.recoveries, 1);
    // Only the committed exception (i4) is handled; i5's is ignored under
    // the future condition.
    assert_eq!(res.faults_handled, 1);
    assert_eq!(res.regs[3], 42, "i4 re-executed and committed");
    assert_eq!(
        res.regs[7], 142,
        "i6 re-executed with the recovered operand"
    );
    assert_eq!(res.regs[5], 0, "i5 squashed: sequential r5 untouched");
    assert_eq!(res.regs[2], 30);
    assert!(res
        .events
        .iter()
        .any(|e| matches!(e, Event::RecoveryStart { epc: 6, rpc: 0, .. })));
    assert!(res
        .events
        .iter()
        .any(|e| matches!(e, Event::RecoveryEnd { .. })));
    assert!(res
        .events
        .iter()
        .any(|e| matches!(e, Event::FaultHandled { addr: 12, .. })));
    assert!(!res
        .events
        .iter()
        .any(|e| matches!(e, Event::FaultHandled { addr: 14, .. })));
}

#[test]
fn fatal_speculative_fault_detected_through_recovery() {
    // A NULL-dereferencing speculative load whose predicate commits: the
    // recovery re-raises the fault, which is fatal.
    let pr = prog(
        vec![
            word(vec![Slot::new(
                p().and_pos(c(0)),
                load(r(1), Src::imm(0), 0),
            )]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(0),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let err = VliwMachine::run_program(&pr, MachineConfig::two_issue()).unwrap_err();
    assert!(matches!(
        err,
        VliwError::Fault {
            fault: MemFault::Null,
            ..
        }
    ));
}

#[test]
fn squashed_null_dereference_is_free() {
    // The classic linked-list case: the speculative NULL dereference in
    // the exit iteration is squashed and the program completes.
    let pr = prog(
        vec![
            word(vec![Slot::new(
                p().and_pos(c(0)),
                load(r(1), Src::imm(0), 0),
            )]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(1),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let res = VliwMachine::run_program(&pr, MachineConfig::two_issue()).unwrap();
    assert_eq!(res.recoveries, 0);
    assert_eq!(res.regs[1], 0);
}

#[test]
fn validation_rejects_wide_words() {
    let pr = prog(
        vec![word(vec![
            Slot::alw(SlotOp::Op(Op::Nop)),
            Slot::alw(SlotOp::Op(Op::Nop)),
            Slot::alw(SlotOp::Op(Op::Nop)),
        ])],
        vec![0],
    );
    let err = VliwMachine::run_program(&pr, MachineConfig::two_issue()).unwrap_err();
    assert!(matches!(err, VliwError::Malformed(_)));
}

#[test]
fn validation_rejects_resource_overflow() {
    // Two loads per word on a machine with one load unit.
    let pr = prog(
        vec![
            word(vec![
                Slot::alw(load(r(1), Src::imm(4), 0)),
                Slot::alw(load(r(2), Src::imm(5), 0)),
            ]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let err = VliwMachine::run_program(&pr, MachineConfig::two_issue()).unwrap_err();
    assert!(matches!(err, VliwError::Malformed(m) if m.contains("function-unit")));
}

#[test]
fn arena_of_another_program_is_rejected() {
    let add = |a: i64| {
        word(vec![Slot::alw(alu(
            r(1),
            Src::imm(a),
            AluOp::Add,
            Src::imm(3),
        ))])
    };
    let halt = || word(vec![Slot::alw(SlotOp::Halt)]);
    let pr = prog(vec![add(2), halt()], vec![0]);
    let mut two_slots = add(2);
    two_slots.slots.push(Slot::alw(SlotOp::Op(Op::Nop)));
    // Same word count as `pr`: another op, another slot count, and
    // another fall-through region flag.
    let others = [
        prog(vec![add(40), halt()], vec![0]),
        prog(vec![two_slots, halt()], vec![0]),
        prog(vec![add(2), halt()], vec![0, 1]),
    ];
    for engine in [Engine::Tabled, Engine::Legacy] {
        let cfg = MachineConfig {
            engine,
            ..MachineConfig::two_issue()
        };
        let build = |of: &VliwProgram| {
            let arena = Arc::new(DecodedProgram::decode(of));
            VliwMachine::with_sink_decoded(&pr, arena, cfg.clone(), EventLog::new(false))
        };
        for other in &others {
            let err = build(other).unwrap_err();
            assert_eq!(
                err,
                VliwError::Malformed("pre-decoded arena does not match the program".into())
            );
        }
        assert_eq!(build(&pr).unwrap().run().unwrap().regs[1], 5);
    }
}

#[test]
fn falling_off_the_end_is_malformed() {
    let pr = prog(vec![word(vec![Slot::alw(SlotOp::Op(Op::Nop))])], vec![0]);
    let err = VliwMachine::run_program(&pr, MachineConfig::two_issue()).unwrap_err();
    assert!(matches!(err, VliwError::Malformed(m) if m.contains("fell off")));
}

#[test]
fn cycle_limit_enforced() {
    let pr = prog(
        vec![word(vec![Slot::alw(SlotOp::Jump { target: 0 })])],
        vec![0],
    );
    let mut cfg = MachineConfig::two_issue();
    cfg.max_cycles = 50;
    let err = VliwMachine::run_program(&pr, cfg).unwrap_err();
    assert_eq!(err, VliwError::CycleLimit(50));
}

#[test]
fn fallthrough_region_entry_resets_state() {
    let pr = prog(
        vec![
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(0),
            ))]),
            // W1 starts a new region by fall-through: CCR must be reset, so
            // a c0-predicated op here is speculative, not committed.
            word(vec![Slot::new(
                p().and_pos(c(0)),
                alu(r(1), Src::imm(9), AluOp::Add, Src::imm(0)),
            )]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0, 1],
    );
    let res = run(&pr);
    assert_eq!(res.regs[1], 0, "c0 was reset at the region boundary");
    assert_eq!(res.region_transfers, 1);
}

#[test]
fn store_buffer_full_stalls() {
    // Two store units but a single D-cache port: a burst of four stores in
    // two words overflows a two-entry buffer and must stall, then drain.
    let pr = prog(
        vec![
            word(vec![
                Slot::alw(store(Src::imm(8), 0, Src::imm(1))),
                Slot::alw(store(Src::imm(9), 0, Src::imm(2))),
            ]),
            word(vec![
                Slot::alw(store(Src::imm(10), 0, Src::imm(3))),
                Slot::alw(store(Src::imm(11), 0, Src::imm(4))),
            ]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let mut cfg = MachineConfig::two_issue();
    cfg.resources.store = 2;
    cfg.store_buffer_size = 2;
    let res = VliwMachine::run_program(&pr, cfg).unwrap();
    assert!(res.stall_sb_full > 0);
    for (addr, v) in [(8, 1), (9, 2), (10, 3), (11, 4)] {
        assert_eq!(res.memory.read(addr).unwrap(), v);
    }
}

#[test]
fn inflight_load_survives_region_exit_when_committed() {
    // A non-speculative load issued right before a taken region exit must
    // still land in the next region (the paper's in-order pipeline does
    // not flush committed work).
    let mut pr = prog(
        vec![
            word(vec![
                Slot::alw(load(r(1), Src::imm(4), 0)),
                Slot::alw(setc(c(0), CmpOp::Eq, Src::imm(0), Src::imm(0))),
            ]),
            word(vec![Slot::new(
                p().and_pos(c(0)),
                SlotOp::Jump { target: 2 },
            )]),
            // New region: consume r1 (the machine interlocks if needed).
            word(vec![Slot::alw(alu(
                r(2),
                Src::reg(r(1)),
                AluOp::Add,
                Src::imm(1),
            ))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0, 2],
    );
    pr.memory.set(4, 41);
    let res = run(&pr);
    assert_eq!(res.regs[1], 41);
    assert_eq!(res.regs[2], 42);
}

#[test]
fn speculative_inflight_dropped_at_region_exit() {
    // A speculative load in flight when the region exits is dead on the
    // exit path and must be squashed, not landed.
    let mut pr = prog(
        vec![
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(0),
            ))]),
            word(vec![
                Slot::new(p().and_pos(c(1)), load(r(1), Src::imm(4), 0)), // c1 never set
                Slot::new(p().and_pos(c(0)), SlotOp::Jump { target: 2 }),
            ]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0, 2],
    );
    pr.memory.set(4, 99);
    let res = run(&pr);
    assert_eq!(res.regs[1], 0, "speculative in-flight value must not land");
}

#[test]
fn halt_drain_charges_store_retirement_cycles() {
    // Three committed stores are still in the buffer at halt; with one
    // D-cache port the drain costs extra cycles.
    let pr = prog(
        vec![
            word(vec![Slot::alw(store(Src::imm(8), 0, Src::imm(1)))]),
            word(vec![Slot::alw(store(Src::imm(9), 0, Src::imm(2)))]),
            word(vec![
                Slot::alw(store(Src::imm(10), 0, Src::imm(3))),
                Slot::alw(SlotOp::Halt),
            ]),
        ],
        vec![0],
    );
    let res = VliwMachine::run_program(&pr, MachineConfig::two_issue()).unwrap();
    // 3 issue cycles; store 1 retires during cycle 2, store 2 during
    // cycle 3; the halt then drains the last store.
    assert_eq!(res.cycles, 4);
    for (a, v) in [(8, 1), (9, 2), (10, 3)] {
        assert_eq!(res.memory.read(a).unwrap(), v);
    }
}

#[test]
fn two_successive_recoveries() {
    // Two speculative exceptions committing at *different* points trigger
    // two independent recoveries within one region.
    let mut pr = prog(
        vec![
            // W0: spec load faults (cold page), pred c0.
            word(vec![Slot::new(
                p().and_pos(c(0)),
                load(r(1), Src::imm(4), 0),
            )]),
            // W1: spec load faults (another cold page), pred c0&c1.
            word(vec![Slot::new(
                p().and_pos(c(0)).and_pos(c(1)),
                load(r(2), Src::imm(5), 0),
            )]),
            // W2: commit the first exception.
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(0),
            ))]),
            // W3: commit the second.
            word(vec![Slot::alw(setc(
                c(1),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(0),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    pr.memory.set(4, 44);
    pr.memory.set(5, 55);
    let mut cfg = MachineConfig::two_issue();
    cfg.fault_once_addrs.insert(4);
    cfg.fault_once_addrs.insert(5);
    cfg.fault_penalty = 3;
    let res = VliwMachine::run_program(&pr, cfg).unwrap();
    assert_eq!(res.recoveries, 2);
    assert_eq!(res.faults_handled, 2);
    assert_eq!(res.regs[1], 44);
    assert_eq!(res.regs[2], 55);
}

#[test]
fn speculative_store_exception_recovers() {
    // A speculative store whose *address* page is cold: the E flag lives
    // in the store buffer; on commit the recovery re-executes the store,
    // handles the fault, and the value reaches memory.
    let pr = prog(
        vec![
            word(vec![Slot::new(
                p().and_pos(c(0)),
                store(Src::imm(12), 0, Src::imm(77)),
            )]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(0),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let mut cfg = MachineConfig::two_issue();
    cfg.fault_once_addrs.insert(12);
    cfg.fault_penalty = 3;
    let res = VliwMachine::run_program(&pr, cfg).unwrap();
    assert_eq!(res.recoveries, 1);
    assert_eq!(res.faults_handled, 1);
    assert_eq!(res.memory.read(12).unwrap(), 77);
}

#[test]
fn infinite_shadow_serves_multiple_buffered_values() {
    // Disjoint-path writers buffer simultaneously; readers with each
    // path's predicate see their own value, and the committing one wins.
    let pr = prog(
        vec![
            word(vec![
                Slot::new(
                    p().and_pos(c(0)),
                    alu(r(1), Src::imm(10), AluOp::Add, Src::imm(0)),
                ),
                Slot::new(
                    p().and_neg(c(0)),
                    alu(r(1), Src::imm(20), AluOp::Add, Src::imm(0)),
                ),
            ]),
            word(vec![
                Slot::new(
                    p().and_pos(c(0)),
                    alu(r(2), Src::shadow(r(1)), AluOp::Add, Src::imm(1)),
                ),
                Slot::new(
                    p().and_neg(c(0)),
                    alu(r(3), Src::shadow(r(1)), AluOp::Add, Src::imm(2)),
                ),
            ]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(1),
            ))]), // c0 = false
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    let mut cfg = MachineConfig::two_issue();
    cfg.shadow_mode = ShadowMode::Infinite;
    let res = VliwMachine::run_program(&pr, cfg).unwrap();
    assert_eq!(res.regs[1], 20, "!c0 path committed");
    assert_eq!(res.regs[2], 0, "c0 reader squashed");
    assert_eq!(res.regs[3], 22, "!c0 reader saw its own path's value");
}

#[test]
fn event_log_covers_every_architectural_action() {
    // Every committed register has a write event; every speculative write
    // has exactly one commit or squash.
    let mut pr = prog(
        vec![
            word(vec![
                Slot::new(
                    p().and_pos(c(0)),
                    alu(r(1), Src::imm(1), AluOp::Add, Src::imm(0)),
                ),
                Slot::new(
                    p().and_neg(c(0)),
                    alu(r(2), Src::imm(2), AluOp::Add, Src::imm(0)),
                ),
            ]),
            word(vec![Slot::alw(setc(
                c(0),
                CmpOp::Eq,
                Src::imm(0),
                Src::imm(0),
            ))]),
            word(vec![Slot::alw(SlotOp::Op(Op::Nop))]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    pr.live_out = vec![r(1), r(2)];
    let res = run(&pr);
    let spec_writes = res
        .events
        .iter()
        .filter(|e| matches!(e, Event::SpecWrite { .. }))
        .count();
    let resolutions = res
        .events
        .iter()
        .filter(|e| matches!(e, Event::Commit { .. } | Event::Squash { .. }))
        .count();
    assert_eq!(spec_writes, 2);
    assert_eq!(resolutions, 2, "every buffered value resolves exactly once");
    assert!(res
        .events
        .iter()
        .any(|e| matches!(e, Event::CondSet { .. })));
}

#[test]
fn retire_bandwidth_respected() {
    // Four committed stores, one D-cache port: at most one store reaches
    // memory per cycle.
    let mut words: Vec<MultiOp> = (0..4)
        .map(|i| word(vec![Slot::alw(store(Src::imm(8 + i), 0, Src::imm(i)))]))
        .collect();
    words.push(word(vec![Slot::alw(SlotOp::Halt)]));
    let pr = prog(words, vec![0]);
    let res = VliwMachine::run_program(&pr, MachineConfig::two_issue()).unwrap();
    // Stores issue in cycles 1-4; one retires at the start of each of
    // cycles 2-5, so the buffer is already empty when the halt drains.
    assert_eq!(res.cycles, 5);
}

#[test]
fn long_stall_runs_match_the_stepping_reference() {
    // Under `fixed:12:4` every word fetch stalls 3 cycles and every load
    // 11, so most cycles sit in stall runs: I-fetch runs with a
    // speculative store at the buffer's head, an operand run, a fault
    // handler's busy run that a load matures inside, and, once `c0`
    // commits three stores at once, an I-fetch run with committed
    // stores at the head that retire one per cycle before the halt.
    let mut pr = prog(
        vec![
            word(vec![
                Slot::new(p().and_pos(c(0)), store(Src::imm(9), 0, Src::imm(6))),
                Slot::alw(load(r(1), Src::imm(4), 0)),
            ]),
            word(vec![
                Slot::new(p().and_pos(c(0)), store(Src::imm(10), 0, Src::imm(7))),
                Slot::new(
                    p().and_pos(c(0)),
                    alu(r(2), Src::imm(1), AluOp::Add, Src::imm(0)),
                ),
            ]),
            word(vec![Slot::alw(alu(
                r(3),
                Src::reg(r(1)),
                AluOp::Add,
                Src::imm(1),
            ))]),
            word(vec![Slot::alw(load(r(4), Src::imm(12), 0))]),
            word(vec![Slot::alw(alu(
                r(5),
                Src::reg(r(4)),
                AluOp::Add,
                Src::reg(r(3)),
            ))]),
            word(vec![
                Slot::new(p().and_pos(c(0)), store(Src::imm(11), 0, Src::imm(8))),
                Slot::alw(setc(c(0), CmpOp::Eq, Src::reg(r(3)), Src::imm(42))),
            ]),
            word(vec![Slot::alw(SlotOp::Halt)]),
        ],
        vec![0],
    );
    pr.memory.set(4, 41);
    pr.memory.set(12, 100);
    let cfg = |engine| MachineConfig {
        engine,
        memory: crate::MemoryModel::FixedLatency { load: 12, fetch: 4 },
        fault_once_addrs: [12].into(),
        record_events: true,
        ..MachineConfig::two_issue()
    };
    let legacy = VliwMachine::run_program(&pr, cfg(Engine::Legacy)).unwrap();
    let tabled = VliwMachine::run_program(&pr, cfg(Engine::Tabled)).unwrap();
    // Cycles, every stall bucket, registers, memory and the event log.
    assert_eq!(tabled, legacy);
    assert_eq!((legacy.regs[2], legacy.regs[5]), (1, 142));
    assert_eq!(&legacy.memory.cells()[9..12], &[6, 7, 8]);
    assert_eq!(legacy.cycles, 82);
    assert!(legacy.stall_ifetch > 10 && legacy.stall_operand > 0 && legacy.stall_busy >= 50);
    // A sink that samples keeps stepping: one sample per cycle.
    let (res, sink) =
        VliwMachine::run_with_sink(&pr, cfg(Engine::Tabled), crate::CountersSink::new()).unwrap();
    assert_eq!(res.cycles, legacy.cycles);
    let report = sink.into_report();
    assert_eq!(report.cycles, legacy.cycles);
    assert_eq!(report.shadow_occupancy.samples(), legacy.cycles);
}
