//! Differential proof that the tabled engine is observably identical to
//! the legacy one.
//!
//! In normal mode the tabled engine replaces the legacy per-cycle
//! `MultiOp` clone and `SlotOp::srcs()` walk with a decoded arena and
//! mask screens.  The legacy engine reads the program itself, never the
//! arena, so everything that decides which normal-mode slots issue, and
//! when, is an independent reference; the slot match both engines call
//! is checked by the scalar golden model instead.  This property holds
//! the two to the strongest available equality: on randomly generated
//! fuzz programs (speculative exceptions, recoveries, region exits
//! included), both engines must produce **byte-identical event logs**
//! and equal [`VliwResult`]s — cycles, every counter, final registers
//! and memory — under every scheduling model.
//!
//! The tabled engine also skips inert stall runs in one step where the
//! legacy engine steps each cycle, so the same equality checks that
//! every skipped cycle lands in the stall bucket the reference charges.
//! And each engine picks its own commit pass, the tabled one indexed and
//! the legacy one the paper's naive scan, so the fast path's wakeup
//! lists are checked against a reference that keeps none.  Recovery-mode
//! words issue through the same code on both engines, but the commit
//! passes, the recovery-exit pass and the cycle driver still differ
//! there, so the corpus test requires its inputs to recover.  Two
//! hand-written programs cover the tabled store/control prepass, which
//! neither generated nor corpus cases reach: a store burst that fills
//! the store buffer, and a jump whose condition its own word sets.

use proptest::prelude::*;
use psb_compile::{compile_fresh, CompileRequest, CompiledArtifact, ProfileSource};
use psb_core::{
    CycleSample, Engine, Event, MachineConfig, MemoryModel, ShadowMode, TraceSink, VliwMachine,
    VliwResult,
};
use psb_fuzz::{gen_case, memory_rotation};
use psb_isa::{
    CmpOp, CondReg, MemImage, MemTag, MultiOp, Op, Predicate, Slot, SlotOp, Src, VliwProgram,
};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use std::cell::RefCell;
use std::collections::BTreeSet;

/// A small machine grid derived from the seed: shallow store-buffer
/// depths, with the load latency and memory model varied across points,
/// and event recording on everywhere.  The engine picks the commit pass,
/// so every point compares legacy with its naive scan against tabled
/// with its indexed scan.
///
/// A shallow store buffer can livelock a model that keeps more
/// speculative stores in flight than the buffer holds (they drain only
/// at commit), so the cycle limit is lowered from the 200M default:
/// such points end quickly in `CycleLimit`, which both engines must
/// report identically (the tabled engine's stall skip stops at the
/// limit).
fn grid(seed: u64, single_shadow: bool, fault_once: &BTreeSet<i64>) -> Vec<MachineConfig> {
    let sbs: &[usize] = match seed % 3 {
        0 => &[1, 4],
        1 => &[2, 16],
        _ => &[3, 8],
    };
    let mut cfgs = Vec::new();
    for i in 0..2u64 {
        for (j, &sb) in (0u64..).zip(sbs) {
            cfgs.push(MachineConfig {
                shadow_mode: if single_shadow {
                    ShadowMode::Single
                } else {
                    ShadowMode::Infinite
                },
                fault_once_addrs: fault_once.clone(),
                record_events: true,
                store_buffer_size: sb,
                load_latency: 1 + (seed + i + j) % 3,
                memory: memory_rotation(seed + i + j),
                max_cycles: 100_000,
                ..MachineConfig::default()
            });
        }
    }
    cfgs
}

/// Runs one compiled artifact under `engine` with event recording on.
fn run_engine(
    art: &CompiledArtifact,
    single_shadow: bool,
    fault_once: &BTreeSet<i64>,
    engine: Engine,
    memory: MemoryModel,
) -> VliwResult {
    let cfg = MachineConfig {
        shadow_mode: if single_shadow {
            ShadowMode::Single
        } else {
            ShadowMode::Infinite
        },
        fault_once_addrs: fault_once.clone(),
        record_events: true,
        engine,
        memory,
        ..MachineConfig::default()
    };
    art.run(cfg).expect("engine run succeeds")
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        .. ProptestConfig::default()
    })]

    #[test]
    fn engines_produce_identical_logs_and_results(seed in 0u64..2000) {
        let case = gen_case(seed);
        let prog = &case.program;
        let scalar = ScalarMachine::new(prog, ScalarConfig {
            fault_once_addrs: case.fault_once.clone(),
            ..ScalarConfig::default()
        })
        .run()
        .expect("generated case runs on the scalar machine");

        for model in Model::ALL {
            let sched_cfg = SchedConfig::new(model);
            let single_shadow = sched_cfg.single_shadow;
            let art = compile_fresh(&CompileRequest {
                program: prog,
                profile: ProfileSource::Provided(&scalar.edge_profile),
                sched: sched_cfg,
            })
            .expect("generated case compiles");
            // Rotate the memory timing model by seed: the engine
            // equality must hold under cache misses and fetch stalls,
            // not just the paper's perfect memory.
            let memory = memory_rotation(seed);
            let legacy =
                run_engine(&art, single_shadow, &case.fault_once, Engine::Legacy, memory);
            let tabled =
                run_engine(&art, single_shadow, &case.fault_once, Engine::Tabled, memory);
            // VliwResult equality covers cycles, all RunStats counters,
            // final registers, final memory AND the recorded event log.
            prop_assert_eq!(
                &legacy, &tabled,
                "legacy/tabled divergence on seed {} model {} memory {}",
                seed, model, memory
            );
            for cfg in grid(seed, single_shadow, &case.fault_once) {
                let run = |engine| {
                    art.run(MachineConfig { engine, ..cfg.clone() })
                        .map_err(|e| e.to_string())
                };
                prop_assert_eq!(
                    run(Engine::Legacy),
                    run(Engine::Tabled),
                    "legacy/tabled divergence on seed {} model {} sb {} load {} memory {}",
                    seed, model, cfg.store_buffer_size, cfg.load_latency, cfg.memory
                );
            }
        }
    }
}

/// The curated regression corpus (hand-written + shrunk fuzz repros,
/// heavy on recovery interleavings) must also be engine-independent.
#[test]
fn corpus_cases_are_engine_independent() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/regressions");
    let cases = psb_fuzz::load_corpus(&dir).expect("corpus loads");
    assert!(!cases.is_empty(), "corpus must not be empty");
    let mut recoveries = 0;
    for (path, case) in &cases {
        let name = path.display();
        let prog = &case.program;
        let scalar = ScalarMachine::new(
            prog,
            ScalarConfig {
                fault_once_addrs: case.fault_once.clone(),
                ..ScalarConfig::default()
            },
        )
        .run()
        .unwrap_or_else(|e| panic!("{name}: scalar run failed: {e}"));
        for model in Model::ALL {
            let sched_cfg = SchedConfig::new(model);
            let single_shadow = sched_cfg.single_shadow;
            let art = compile_fresh(&CompileRequest {
                program: prog,
                profile: ProfileSource::Provided(&scalar.edge_profile),
                sched: sched_cfg,
            })
            .unwrap_or_else(|e| panic!("{name}: {model} failed to compile: {e}"));
            // Every memory model in the rotation: the corpus is the
            // curated hard-case set, so engine equality must hold on it
            // under realistic memory too.
            for k in 0..3 {
                let memory = memory_rotation(k);
                let legacy = run_engine(
                    &art,
                    single_shadow,
                    &case.fault_once,
                    Engine::Legacy,
                    memory,
                );
                let tabled = run_engine(
                    &art,
                    single_shadow,
                    &case.fault_once,
                    Engine::Tabled,
                    memory,
                );
                assert_eq!(
                    legacy, tabled,
                    "{name}: legacy/tabled divergence under {model} memory {memory}"
                );
                recoveries += legacy.recoveries;
            }
        }
    }
    assert!(
        recoveries > 0,
        "the corpus must drive both engines through recovery mode"
    );
}

/// An event sink writing to a log outside the machine, so a run that
/// ends in an error still leaves its events behind.
struct SharedLog<'a>(&'a RefCell<Vec<Event>>);

impl TraceSink for SharedLog<'_> {
    fn sample_enabled(&self) -> bool {
        false
    }

    fn record(&mut self, ev: Event) {
        self.0.borrow_mut().push(ev);
    }

    fn sample(&mut self, _: &CycleSample) {}
}

/// Runs `prog` under `cfg` on `engine` through [`VliwMachine::with_sink`]
/// and returns the result (or the error's text) with the event log's
/// text.
fn run_logged(
    prog: &VliwProgram,
    cfg: &MachineConfig,
    engine: Engine,
) -> (Result<VliwResult, String>, String) {
    let log = RefCell::new(Vec::new());
    let cfg = MachineConfig {
        engine,
        record_events: true,
        ..cfg.clone()
    };
    let res = VliwMachine::with_sink(prog, cfg, SharedLog(&log))
        .and_then(VliwMachine::run_into_sink)
        .map(|(res, _)| res)
        .map_err(|e| e.to_string());
    (res, format!("{:?}", log.into_inner()))
}

/// The store burst of the machine test `store_buffer_full_stalls` (four
/// stores in two words into a two-entry buffer that retires one store a
/// cycle) and the same-word jump of `unresolvable_jump_predicate_is_malformed`
/// (a jump on a condition its own word sets, unspecified at issue): both
/// engines must stall, or fail, alike, with byte-identical event logs.
#[test]
fn store_buffer_full_and_unspecified_jump_are_engine_independent() {
    let prog = |words: Vec<Vec<Slot>>, region_starts| VliwProgram {
        name: "prepass".into(),
        words: words.into_iter().map(MultiOp::new).collect(),
        region_starts,
        num_conds: 4,
        init_regs: vec![],
        memory: MemImage::zeroed(64),
        live_out: vec![],
    };
    let store = |addr, v| {
        Slot::alw(SlotOp::Op(Op::Store {
            base: Src::imm(addr),
            offset: 0,
            value: Src::imm(v),
            tag: MemTag::ANY,
        }))
    };
    let halt = || vec![Slot::alw(SlotOp::Halt)];
    let burst = prog(
        vec![
            vec![store(8, 1), store(9, 2)],
            vec![store(10, 3), store(11, 4)],
            halt(),
        ],
        vec![0],
    );
    let mut small_buffer = MachineConfig {
        store_buffer_size: 2,
        retire_per_cycle: 1,
        ..MachineConfig::two_issue()
    };
    small_buffer.resources.store = 2;
    let c0 = CondReg::new(0);
    let set_c0 = SlotOp::Op(Op::SetCond {
        c: c0,
        cmp: CmpOp::Eq,
        a: Src::imm(0),
        b: Src::imm(0),
    });
    let jump_on_c0 = Slot::new(Predicate::always().and_pos(c0), SlotOp::Jump { target: 1 });
    let jump = prog(
        vec![vec![Slot::alw(set_c0), jump_on_c0], halt()],
        vec![0, 1],
    );

    let (legacy, tabled) = (
        run_logged(&burst, &small_buffer, Engine::Legacy),
        run_logged(&burst, &small_buffer, Engine::Tabled),
    );
    assert_eq!(legacy, tabled, "store burst");
    let res = legacy.0.expect("the store burst runs");
    assert!(
        res.stall_sb_full > 0,
        "the burst must fill the store buffer"
    );

    let two_issue = MachineConfig::two_issue();
    let (legacy, tabled) = (
        run_logged(&jump, &two_issue, Engine::Legacy),
        run_logged(&jump, &two_issue, Engine::Tabled),
    );
    assert_eq!(legacy, tabled, "same-word jump");
    let err = legacy.0.expect_err("the same-word jump is malformed");
    assert!(err.contains("unspecified at issue"), "{err}");
}
