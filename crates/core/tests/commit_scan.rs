//! Differential property tests for the two commit-pass strategies.
//!
//! [`CommitScan::Naive`] is a direct transcription of the paper's
//! per-entry commit hardware and serves as the oracle;
//! [`CommitScan::Indexed`] is the O(active) wakeup-list implementation.
//! These tests drive both through identical stimuli — random operation
//! sequences at the component level, random validated programs at the
//! machine level, where each [`Engine`] picks its strategy (legacy naive,
//! tabled indexed) — and require byte-identical event streams and final
//! architectural state.

use proptest::prelude::*;
use psb_core::{
    CommitScan, Engine, EventLog, MachineConfig, PredicatedRegFile, PredicatedStoreBuffer,
    ShadowMode, VliwMachine,
};
use psb_isa::{
    AluOp, Ccr, CmpOp, CondReg, MemImage, MemTag, Memory, MultiOp, Op, PredTerm, Predicate, Reg,
    Slot, SlotOp, Src, VliwProgram,
};

const K: usize = 4;
const REGS: usize = 8;

fn pred_strategy() -> impl Strategy<Value = Predicate> {
    proptest::collection::vec(
        prop_oneof![
            2 => Just(PredTerm::DontCare),
            1 => Just(PredTerm::Pos),
            1 => Just(PredTerm::Neg),
        ],
        K,
    )
    .prop_map(|terms| {
        let mut p = Predicate::always();
        for (i, t) in terms.into_iter().enumerate() {
            p = p.with_term(CondReg::new(i), t);
        }
        p
    })
}

/// One step of component-level stimulus, applied identically to the naive
/// and the indexed instance.
#[derive(Clone, Debug)]
enum Step {
    /// Register file: sequential write / store buffer: no-op.
    WriteSeq { reg: usize, value: i64 },
    /// Buffer a speculative entry (shadow write or store append).
    WriteSpec {
        reg: usize,
        value: i64,
        pred: Predicate,
        exc: bool,
    },
    /// Update one CCR condition.
    SetCond { cond: usize, value: bool },
    /// Region-entry style CCR reset.
    ResetCcr,
    /// One commit pass (guarded by the exception-commit scan, exactly as
    /// the machine guards it).
    Tick,
    /// Recovery-entry / region-exit squash of all speculative state.
    SquashSpec,
    /// Store buffer only: retire up to one head to memory.
    Retire,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => (1..REGS, -100i64..100).prop_map(|(reg, value)| Step::WriteSeq { reg, value }),
        4 => (1..REGS, -100i64..100, pred_strategy(), prop_oneof![4 => Just(false), 1 => Just(true)])
            .prop_map(|(reg, value, pred, exc)| Step::WriteSpec { reg, value, pred, exc }),
        3 => (0..K, any::<bool>()).prop_map(|(cond, value)| Step::SetCond { cond, value }),
        1 => Just(Step::ResetCcr),
        5 => Just(Step::Tick),
        1 => Just(Step::SquashSpec),
        2 => Just(Step::Retire),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Register file: the indexed wakeup lists produce the same commit and
    /// squash events, in the same order, and the same final sequential and
    /// shadow state as the naive full scan.
    #[test]
    fn regfile_indexed_matches_naive(
        steps in proptest::collection::vec(step_strategy(), 1..80),
        infinite in any::<bool>(),
    ) {
        let mode = if infinite { ShadowMode::Infinite } else { ShadowMode::Single };
        let mut naive = PredicatedRegFile::new(REGS, mode);
        let mut indexed = PredicatedRegFile::new(REGS, mode).with_commit_scan(CommitScan::Indexed);
        let mut log_n = EventLog::new(true);
        let mut log_i = EventLog::new(true);
        let mut ccr = Ccr::new(K);
        let mut cycle = 1u64;
        for step in steps {
            match step {
                Step::WriteSeq { reg, value } => {
                    naive.write_seq(Reg::new(reg), value);
                    indexed.write_seq(Reg::new(reg), value);
                }
                Step::WriteSpec { reg, value, pred, exc } => {
                    // The machine only buffers unspecified predicates; a
                    // single-shadow conflict is a scheduler error there, so
                    // both instances must agree on the verdict here.
                    if pred.eval(&ccr) != psb_isa::Cond::Unspecified {
                        continue;
                    }
                    let rn = naive.write_spec(Reg::new(reg), value, pred, exc);
                    let ri = indexed.write_spec(Reg::new(reg), value, pred, exc);
                    prop_assert_eq!(rn.is_ok(), ri.is_ok());
                }
                Step::SetCond { cond, value } => ccr.set(CondReg::new(cond), value),
                Step::ResetCcr => ccr.reset(),
                Step::Tick => {
                    // Mirror the machine: an exception that would commit
                    // diverts to recovery (squash) instead of ticking.
                    let exc_n = naive.has_exception_commit(&ccr);
                    prop_assert_eq!(exc_n, indexed.has_exception_commit(&ccr));
                    if exc_n {
                        prop_assert_eq!(
                            naive.squash_spec(cycle, &mut log_n),
                            indexed.squash_spec(cycle, &mut log_i)
                        );
                        ccr.reset();
                    } else {
                        prop_assert_eq!(
                            naive.tick(&ccr, cycle, &mut log_n),
                            indexed.tick(&ccr, cycle, &mut log_i)
                        );
                    }
                }
                Step::SquashSpec => {
                    prop_assert_eq!(
                        naive.squash_spec(cycle, &mut log_n),
                        indexed.squash_spec(cycle, &mut log_i)
                    );
                }
                Step::Retire => {}
            }
            cycle += 1;
        }
        prop_assert_eq!(log_n.events(), log_i.events());
        prop_assert_eq!(naive.seq_values(), indexed.seq_values());
        for r in 0..REGS {
            prop_assert_eq!(
                naive.shadow_entry(Reg::new(r)),
                indexed.shadow_entry(Reg::new(r))
            );
        }
    }

    /// Store buffer: same property — identical events, identical entries,
    /// identical retired memory.
    #[test]
    fn storebuf_indexed_matches_naive(
        steps in proptest::collection::vec(step_strategy(), 1..80),
    ) {
        let mut naive = PredicatedStoreBuffer::new(64);
        let mut indexed = PredicatedStoreBuffer::new(64).with_commit_scan(CommitScan::Indexed);
        let mut log_n = EventLog::new(true);
        let mut log_i = EventLog::new(true);
        let mut mem_n = Memory::from_image(&MemImage::zeroed(32));
        let mut mem_i = Memory::from_image(&MemImage::zeroed(32));
        let mut ccr = Ccr::new(K);
        let mut cycle = 1u64;
        for step in steps {
            match step {
                Step::WriteSeq { reg, value } => {
                    // Reuse as a non-speculative store.
                    if naive.would_overflow(1) {
                        continue;
                    }
                    let addr = reg as i64;
                    naive.append(addr, value, Predicate::always(), false, false, cycle, &mut log_n);
                    indexed.append(addr, value, Predicate::always(), false, false, cycle, &mut log_i);
                }
                Step::WriteSpec { reg, value, pred, exc } => {
                    if naive.would_overflow(1) || pred.eval(&ccr) != psb_isa::Cond::Unspecified {
                        continue;
                    }
                    let addr = reg as i64;
                    naive.append(addr, value, pred, true, exc, cycle, &mut log_n);
                    indexed.append(addr, value, pred, true, exc, cycle, &mut log_i);
                }
                Step::SetCond { cond, value } => ccr.set(CondReg::new(cond), value),
                Step::ResetCcr => ccr.reset(),
                Step::Tick => {
                    let exc_n = naive.has_exception_commit(&ccr);
                    prop_assert_eq!(exc_n, indexed.has_exception_commit(&ccr));
                    if exc_n {
                        prop_assert_eq!(
                            naive.squash_spec(cycle, &mut log_n),
                            indexed.squash_spec(cycle, &mut log_i)
                        );
                        ccr.reset();
                    } else {
                        prop_assert_eq!(
                            naive.tick(&ccr, cycle, &mut log_n),
                            indexed.tick(&ccr, cycle, &mut log_i)
                        );
                    }
                }
                Step::SquashSpec => {
                    prop_assert_eq!(
                        naive.squash_spec(cycle, &mut log_n),
                        indexed.squash_spec(cycle, &mut log_i)
                    );
                }
                Step::Retire => {
                    prop_assert_eq!(naive.retire(&mut mem_n, 1), indexed.retire(&mut mem_i, 1));
                }
            }
            cycle += 1;
        }
        prop_assert_eq!(log_n.events(), log_i.events());
        let en: Vec<_> = naive.entries().copied().collect();
        let ei: Vec<_> = indexed.entries().copied().collect();
        prop_assert_eq!(en, ei);
        prop_assert_eq!(mem_n.cells(), mem_i.cells());
    }
}

// ---------------------------------------------------------------------------
// Machine-level differential: whole random programs, including faults and
// recovery, must produce identical `VliwResult`s under both engines, and
// so under both strategies.
// ---------------------------------------------------------------------------

fn src_strategy() -> impl Strategy<Value = Src> {
    prop_oneof![
        (1usize..8, any::<bool>()).prop_map(|(r, sh)| Src::Reg {
            reg: Reg::new(r),
            shadow: sh
        }),
        (-4i64..40).prop_map(Src::imm),
    ]
}

fn op_strategy() -> impl Strategy<Value = SlotOp> {
    prop_oneof![
        4 => (0usize..8, src_strategy(), src_strategy()).prop_map(|(rd, a, b)| {
            SlotOp::Op(Op::Alu { op: AluOp::Add, rd: Reg::new(rd), a, b })
        }),
        2 => (0usize..8, src_strategy(), -4i64..44).prop_map(|(rd, base, off)| {
            SlotOp::Op(Op::Load { rd: Reg::new(rd), base, offset: off, tag: MemTag::ANY })
        }),
        2 => (src_strategy(), -4i64..44, src_strategy()).prop_map(|(base, off, v)| {
            SlotOp::Op(Op::Store { base, offset: off, value: v, tag: MemTag::ANY })
        }),
        2 => (0..3usize, src_strategy(), src_strategy()).prop_map(|(c, a, b)| {
            SlotOp::Op(Op::SetCond { c: CondReg::new(c), cmp: CmpOp::Lt, a, b })
        }),
        1 => Just(SlotOp::Jump { target: 0 }),
        1 => Just(SlotOp::Halt),
    ]
}

prop_compose! {
    fn program_strategy()(
        raw in proptest::collection::vec(
            proptest::collection::vec((pred_strategy(), op_strategy()), 1..3),
            2..12,
        ),
        region_picks in proptest::collection::vec(any::<u8>(), 4),
        fault_page in proptest::option::of(1i64..44),
    ) -> (VliwProgram, Option<i64>) {
        let n = raw.len();
        let mut starts: Vec<usize> = vec![0];
        for p in region_picks {
            starts.push(p as usize % n);
        }
        starts.sort_unstable();
        starts.dedup();
        let mut words: Vec<MultiOp> = raw
            .into_iter()
            .map(|slots| {
                MultiOp::new(
                    slots
                        .into_iter()
                        .map(|(pred, op)| {
                            let pred = if matches!(op, SlotOp::Op(Op::SetCond { .. })) {
                                Predicate::always()
                            } else {
                                pred
                            };
                            Slot::new(pred, op)
                        })
                        .collect(),
                )
            })
            .collect();
        for (i, w) in words.iter_mut().enumerate() {
            for s in &mut w.slots {
                if let SlotOp::Jump { target } = &mut s.op {
                    *target = starts[(i + *target) % starts.len()];
                }
            }
        }
        words.push(MultiOp::new(vec![Slot::alw(SlotOp::Halt)]));
        let prog = VliwProgram {
            name: "scan-diff".into(),
            words,
            region_starts: starts,
            num_conds: 3,
            init_regs: vec![(Reg::new(1), 7), (Reg::new(2), 20)],
            memory: MemImage::zeroed(48),
            live_out: vec![],
        };
        (prog, fault_page)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// End-to-end oracle: any validated program — including ones that
    /// fault, recover, and take structured errors — runs identically under
    /// the legacy engine's naive scan and the tabled engine's indexed
    /// one, event log included.
    #[test]
    fn machine_indexed_matches_naive(
        (prog, fault_page) in program_strategy(),
        infinite in any::<bool>(),
    ) {
        prop_assume!(prog.validate().is_ok());
        let mut cfg = MachineConfig::two_issue().with_events();
        cfg.max_cycles = 2_000;
        cfg.shadow_mode = if infinite { ShadowMode::Infinite } else { ShadowMode::Single };
        if let Some(p) = fault_page {
            cfg.fault_once_addrs.insert(p);
            cfg.fault_penalty = 3;
        }
        let run = |engine| VliwMachine::run_program(&prog, MachineConfig { engine, ..cfg.clone() });
        let (naive, indexed) = (run(Engine::Legacy), run(Engine::Tabled));
        match (naive, indexed) {
            (Ok(n), Ok(i)) => prop_assert_eq!(n, i),
            (Err(n), Err(i)) => prop_assert_eq!(format!("{n:?}"), format!("{i:?}")),
            (n, i) => prop_assert!(
                false,
                "strategies disagree: naive={n:?} indexed={i:?}"
            ),
        }
    }
}
