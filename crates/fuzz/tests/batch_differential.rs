//! Differential proof that a batched lane is its solo run.
//!
//! The batched lockstep engine drives N machine configurations over one
//! shared decoded arena with [`VliwMachine::step_cycle`] — the same
//! single-cycle function the solo runner loops over — so a lane's
//! trajectory should be byte-equal to its solo run by construction.
//! This suite holds it to that: on randomly generated fuzz programs
//! (speculative exceptions, recoveries, region exits included), every
//! lane of a random configuration grid must produce a [`VliwResult`]
//! identical to the same configuration run solo — cycles, every
//! counter, final registers, final memory, and the **recorded event
//! log** — under every scheduling model, every engine, and random
//! lockstep strides.
//!
//! [`VliwMachine::step_cycle`]: psb_core::VliwMachine::step_cycle

use proptest::prelude::*;
use psb_compile::{compile_fresh, CompileRequest, CompiledArtifact, ProfileSource};
use psb_core::{BatchedMachine, CommitScan, Engine, MachineConfig, ShadowMode};
use psb_fuzz::{gen_case, memory_rotation};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use std::collections::BTreeSet;

const ENGINES: [Engine; 2] = [Engine::Legacy, Engine::Tabled];

/// A small config grid derived from the seed: engines × store-buffer
/// depths, with commit scan and load latency varied across lanes.
/// Event recording is on everywhere so the equality check covers the
/// event stream, not just counters.
///
/// A shallow store buffer can genuinely livelock a model that keeps
/// more speculative stores in flight than the buffer holds (they only
/// drain at commit), so the cycle limit is lowered from the 200M
/// default: such lanes retire quickly with `CycleLimit`, and the test
/// then checks the batched lane fails *identically* to its solo run.
fn lane_grid(seed: u64, single_shadow: bool, fault_once: &BTreeSet<i64>) -> Vec<MachineConfig> {
    let sbs: &[usize] = match seed % 3 {
        0 => &[1, 4],
        1 => &[2, 16],
        _ => &[3, 8],
    };
    let mut cfgs = Vec::new();
    for (i, &engine) in ENGINES.iter().enumerate() {
        for (j, &sb) in sbs.iter().enumerate() {
            cfgs.push(MachineConfig {
                shadow_mode: if single_shadow {
                    ShadowMode::Single
                } else {
                    ShadowMode::Infinite
                },
                fault_once_addrs: fault_once.clone(),
                record_events: true,
                engine,
                store_buffer_size: sb,
                commit_scan: if (i + j) % 2 == 0 {
                    CommitScan::Indexed
                } else {
                    CommitScan::Naive
                },
                load_latency: 1 + ((seed + i as u64 + j as u64) % 3),
                // Lanes also rotate the memory model, so batched cache
                // state (per-lane, inside each lane's machine) is held
                // byte-equal to solo runs alongside everything else.
                memory: memory_rotation(seed + i as u64 + j as u64),
                max_cycles: 100_000,
                ..MachineConfig::default()
            });
        }
    }
    cfgs
}

/// Runs `cfgs` as lanes of one batch (at `stride`) and solo, and
/// asserts every lane byte-equal to its solo run.
fn assert_lanes_match_solo(
    art: &CompiledArtifact,
    cfgs: &[MachineConfig],
    stride: u64,
    ctx: &str,
) -> Result<(), TestCaseError> {
    let report = BatchedMachine::new(&art.program, art.decoded.clone(), cfgs)
        .with_stride(stride)
        .run();
    prop_assert_eq!(report.lanes.len(), cfgs.len(), "{}: lane count", ctx);
    for (i, (outcome, cfg)) in report.lanes.into_iter().zip(cfgs).enumerate() {
        let solo = art.run(cfg.clone());
        match (outcome, solo) {
            (Ok((lane, _)), Ok(solo)) => {
                // VliwResult equality covers cycles, all RunStats
                // counters, final registers, final memory AND the
                // recorded event log.
                prop_assert_eq!(
                    &lane,
                    &solo,
                    "{}: lane {} ({:?}, sb={}) diverged from its solo run",
                    ctx,
                    i,
                    cfg.engine,
                    cfg.store_buffer_size
                );
            }
            (Err(lane_err), Err(solo_err)) => {
                prop_assert_eq!(
                    lane_err.to_string(),
                    solo_err.to_string(),
                    "{}: lane {} error differs from solo",
                    ctx,
                    i
                );
            }
            (lane, solo) => {
                return Err(TestCaseError::fail(format!(
                    "{ctx}: lane {i} ok/err mismatch: batch ok={} solo ok={}",
                    lane.is_ok(),
                    solo.is_ok()
                )));
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    #[test]
    fn batched_lanes_match_solo_runs(seed in 0u64..2000, stride in 1u64..200) {
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
            let cfgs = lane_grid(seed, single_shadow, &case.fault_once);
            let ctx = format!("seed {seed} model {model} stride {stride}");
            assert_lanes_match_solo(&art, &cfgs, stride, &ctx)?;
        }
    }
}

/// The curated regression corpus (hand-written + shrunk fuzz repros,
/// heavy on recovery interleavings) replayed through the batched path:
/// both engines run as lanes of one batch, and each lane must equal its
/// solo run.
#[test]
fn corpus_cases_replay_through_the_batched_path() {
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
            let cfgs: Vec<MachineConfig> = ENGINES
                .iter()
                .map(|&engine| MachineConfig {
                    shadow_mode: if single_shadow {
                        ShadowMode::Single
                    } else {
                        ShadowMode::Infinite
                    },
                    fault_once_addrs: case.fault_once.clone(),
                    record_events: true,
                    engine,
                    ..MachineConfig::default()
                })
                .collect();
            let report = art.run_batch(&cfgs);
            let mut results = Vec::new();
            for (outcome, cfg) in report.lanes.into_iter().zip(&cfgs) {
                let (lane, _) =
                    outcome.unwrap_or_else(|e| panic!("{name}: {model} batched lane failed: {e}"));
                let solo = art
                    .run(cfg.clone())
                    .unwrap_or_else(|e| panic!("{name}: {model} solo run failed: {e}"));
                assert_eq!(
                    lane, solo,
                    "{name}: {model} lane ({:?}) diverged from its solo run",
                    cfg.engine
                );
                results.push(lane);
            }
            // And the lanes (one per engine) must agree with each other
            // — the engine differential restated through the batch.
            assert_eq!(
                results[0], results[1],
                "{name}: {model} legacy/tabled divergence in one batch"
            );
        }
    }
}
