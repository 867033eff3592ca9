//! Differential proof that the table-dispatched issue path is observably
//! identical to the legacy one.
//!
//! The tabled engine replaces the legacy per-cycle `MultiOp` clone and
//! `SlotOp::srcs()` walk with a decoded arena and mask screens, and
//! drives issue from generated function-pointer tables with fused
//! per-slot handlers.  The legacy engine reads the program itself, never
//! the arena, so it is an independent reference.  This property holds
//! the two to the strongest available equality: on randomly generated
//! fuzz programs (speculative exceptions, recoveries, region exits
//! included), both engines must produce **byte-identical event logs**
//! and equal [`VliwResult`]s — cycles, every counter, final registers
//! and memory — under every scheduling model.

use proptest::prelude::*;
use psb_compile::{compile_fresh, CompileRequest, CompiledArtifact, ProfileSource};
use psb_core::{Engine, MachineConfig, MemoryModel, ShadowMode, VliwResult};
use psb_fuzz::{gen_case, memory_rotation};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};

/// Runs one compiled artifact under `engine` with event recording on.
fn run_engine(
    art: &CompiledArtifact,
    single_shadow: bool,
    fault_once: &std::collections::BTreeSet<i64>,
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
            }
        }
    }
}
