//! The differential oracle for the artifact cache: on randomly generated
//! fuzz programs, under every scheduling model, a cache-served artifact
//! must be byte-equal to one produced by the uncached `compile_fresh`
//! path — same content hash, same program, same decoded arena — and the
//! two paths must agree on failures too.  Also proves the request keys
//! of the seven models never collide on one program, that the key
//! sees every field of a request, and that a grid run is a solo run per
//! configuration.

use proptest::prelude::*;
use psb_compile::{
    compile, compile_fresh, ArtifactCache, CompileError, CompileRequest, ProfileSource,
};
use psb_core::batch::DEFAULT_STRIDE;
use psb_core::{EventLog, MachineConfig, MemoryModel, VliwError};
use psb_fuzz::gen_case;
use psb_isa::{BlockId, Op, Reg, ScalarProgram, Src, Terminator};
use psb_scalar::{EdgeProfile, ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use std::collections::HashSet;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 16,
        .. ProptestConfig::default()
    })]

    #[test]
    fn cached_artifacts_are_byte_equal_to_fresh(seed in 0u64..500) {
        let case = gen_case(seed);
        let scfg = ScalarConfig {
            fault_once_addrs: case.fault_once.clone(),
            ..ScalarConfig::default()
        };
        let cache = ArtifactCache::new();
        let mut keys = HashSet::new();
        for model in Model::ALL {
            let req = CompileRequest {
                program: &case.program,
                profile: ProfileSource::Train {
                    program: &case.program,
                    config: scfg.clone(),
                },
                sched: SchedConfig::new(model),
            };
            prop_assert!(
                keys.insert(req.key()),
                "cross-model key collision under {}", model
            );
            match (compile(&req, &cache), compile_fresh(&req)) {
                (Ok(cached), Ok(fresh)) => {
                    // The second lookup must be served from cache — the
                    // very same Arc, not a recompile.
                    let again = compile(&req, &cache).unwrap();
                    prop_assert!(
                        Arc::ptr_eq(&cached, &again),
                        "second lookup recompiled under {}", model
                    );
                    prop_assert!(
                        cached.same_content(&fresh),
                        "cached != fresh under {}", model
                    );
                    prop_assert_eq!(cached.content_hash, fresh.content_hash);
                    prop_assert_eq!(&cached.program, &fresh.program);
                    prop_assert_eq!(cached.decoded.as_ref(), fresh.decoded.as_ref());
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b, "paths fail differently"),
                (cached, fresh) => prop_assert!(
                    false,
                    "cache/fresh disagree under {}: cached ok={}, fresh ok={}",
                    model, cached.is_ok(), fresh.is_ok()
                ),
            }
        }
    }
}

/// A provided profile equal to what the training run would produce gives
/// an identical artifact (stage timings aside) with a *different* key —
/// the key hashes the source of the profile, not just its value.
#[test]
fn provided_profile_matches_training_run() {
    let case = gen_case(7);
    let scalar = ScalarMachine::new(&case.program, ScalarConfig::default())
        .run()
        .expect("seed 7 runs clean");
    let trained = compile_fresh(&CompileRequest {
        program: &case.program,
        profile: ProfileSource::Train {
            program: &case.program,
            config: ScalarConfig::default(),
        },
        sched: SchedConfig::new(Model::RegionPred),
    })
    .unwrap();
    let provided = compile_fresh(&CompileRequest {
        program: &case.program,
        profile: ProfileSource::Provided(&scalar.edge_profile),
        sched: SchedConfig::new(Model::RegionPred),
    })
    .unwrap();
    assert_eq!(trained.content_hash, provided.content_hash);
    assert_eq!(trained.profile, provided.profile);
    assert_eq!(trained.program, provided.program);
    assert_ne!(
        trained.request_key, provided.request_key,
        "the request key encodes the profile source"
    );
    assert_eq!(provided.stats.profile_seconds, 0.0);
}

/// A failing training run surfaces as a typed profile-stage error.
#[test]
fn profile_stage_failure_is_typed() {
    let case = gen_case(0);
    let err = compile_fresh(&CompileRequest {
        program: &case.program,
        profile: ProfileSource::Train {
            program: &case.program,
            config: ScalarConfig {
                max_cycles: 1,
                ..ScalarConfig::default()
            },
        },
        sched: SchedConfig::new(Model::RegionPred),
    })
    .unwrap_err();
    assert!(
        matches!(err, CompileError::Profile(_)),
        "expected a profile-stage error, got {err}"
    );
}

/// The parts of a trained request, owned so a test can change one.
#[derive(Clone)]
struct Parts {
    program: ScalarProgram,
    train: ScalarProgram,
    config: ScalarConfig,
    sched: SchedConfig,
}

impl Parts {
    fn key(&self) -> u64 {
        CompileRequest {
            program: &self.program,
            profile: ProfileSource::Train {
                program: &self.train,
                config: self.config.clone(),
            },
            sched: self.sched.clone(),
        }
        .key()
    }
}

fn li(seed: u64) -> ScalarProgram {
    psb_workloads::by_name("li", seed, 96)
        .expect("li exists")
        .program
}

/// A one-field change to a scalar program.
type ProgramChange = fn(&mut ScalarProgram);

/// One-field changes to a scalar program.
fn program_changes() -> Vec<(&'static str, ProgramChange)> {
    vec![
        ("memory cell value", |p| p.memory.cells[0].1 += 1),
        ("op operand", |p| {
            let op = p
                .blocks
                .iter_mut()
                .flat_map(|b| &mut b.instrs)
                .find(|op| matches!(op, Op::Alu { .. }))
                .expect("an ALU op");
            if let Op::Alu { a, .. } = op {
                *a = match *a {
                    Src::Reg { reg, shadow } => Src::Reg {
                        reg: Reg::new((reg.index() + 1) % psb_isa::NUM_REGS),
                        shadow,
                    },
                    Src::Imm(v) => Src::Imm(v + 1),
                };
            }
        }),
        ("terminator target", |p| {
            let term = p
                .blocks
                .iter_mut()
                .map(|b| &mut b.term)
                .find(|t| !matches!(t, Terminator::Halt))
                .expect("a branch or jump");
            match term {
                Terminator::Jump(t) | Terminator::Branch { taken: t, .. } => t.0 += 1,
                Terminator::Halt => unreachable!(),
            }
        }),
        ("entry", |p| p.entry = BlockId(p.entry.0 + 1)),
        ("init_regs entry", |p| p.init_regs[0].1 += 1),
        ("live_out entry", |p| {
            p.live_out[0] = Reg::new((p.live_out[0].index() + 1) % psb_isa::NUM_REGS)
        }),
        ("name", |p| p.name.push('x')),
    ]
}

/// The key sees every field: starting from one request, changing exactly
/// one thing — a word of either program, of the scalar configuration,
/// of a provided profile, or of the scheduling configuration — changes
/// the key, and no two of the changed requests collide.  Two
/// independently generated copies of one workload get equal keys.
#[test]
fn key_sees_every_field() {
    let base = Parts {
        program: li(3),
        train: li(5),
        config: ScalarConfig::default(),
        sched: SchedConfig::new(Model::RegionPred),
    };
    assert!(
        !base.program.memory.cells.is_empty()
            && !base.program.init_regs.is_empty()
            && !base.program.live_out.is_empty(),
        "the fixture must exercise every program field"
    );
    assert_eq!(
        base.key(),
        Parts {
            program: li(3),
            train: li(5),
            ..base.clone()
        }
        .key()
    );

    let mut changes: Vec<(String, Parts)> = Vec::new();
    for (what, change) in program_changes() {
        let mut p = base.clone();
        change(&mut p.program);
        changes.push((format!("program {what}"), p));
        let mut p = base.clone();
        change(&mut p.train);
        changes.push((format!("training program {what}"), p));
    }
    type PartsChange = fn(&mut Parts);
    let other_changes: [(&str, PartsChange); 13] = [
        ("fault_once_addrs", |p| {
            p.config.fault_once_addrs.insert(7);
        }),
        ("max_cycles", |p| p.config.max_cycles += 1),
        ("model", |p| p.sched.model = Model::TracePred),
        ("issue_width", |p| p.sched.issue_width += 1),
        ("resources.alu", |p| p.sched.resources.alu += 1),
        ("resources.branch", |p| p.sched.resources.branch += 1),
        ("resources.load", |p| p.sched.resources.load += 1),
        ("resources.store", |p| p.sched.resources.store += 1),
        ("num_conds", |p| p.sched.num_conds += 1),
        ("depth", |p| p.sched.depth += 1),
        ("max_blocks", |p| p.sched.max_blocks += 1),
        ("single_shadow", |p| p.sched.single_shadow ^= true),
        ("ordered_cond_sets", |p| p.sched.ordered_cond_sets ^= true),
    ];
    for (what, change) in other_changes {
        let mut p = base.clone();
        change(&mut p);
        changes.push((what.to_string(), p));
    }

    let mut seen = HashSet::from([base.key()]);
    for (what, parts) in &changes {
        assert!(
            seen.insert(parts.key()),
            "changing the {what} left the key unchanged or collided"
        );
    }

    // A provided profile: its counts are part of the key.
    let provided_key = |profile: &EdgeProfile| {
        CompileRequest {
            program: &base.program,
            profile: ProfileSource::Provided(profile),
            sched: base.sched.clone(),
        }
        .key()
    };
    let profile = ScalarMachine::new(&base.program, ScalarConfig::default())
        .run()
        .expect("li runs clean")
        .edge_profile;
    let counts: Vec<(u64, u64)> = (0..profile.num_blocks())
        .map(|b| profile.counts(BlockId(b as u32)))
        .collect();
    assert_eq!(
        provided_key(&EdgeProfile::from_counts(counts.clone())),
        provided_key(&profile)
    );
    let mut bumped = counts;
    let mid = bumped.len() / 2;
    bumped[mid].1 += 1;
    assert_ne!(
        provided_key(&EdgeProfile::from_counts(bumped)),
        provided_key(&profile),
        "changing one profile count left the key unchanged"
    );
    assert!(
        seen.insert(provided_key(&profile)),
        "provided and trained keys collide"
    );
}

/// `run_batch` is `run` per configuration: every lane is exactly the
/// solo run's result (or error), and the totals are the documented sums.
#[test]
fn run_batch_is_run_per_configuration() {
    let prog = li(3);
    let art = compile_fresh(&CompileRequest {
        program: &prog,
        profile: ProfileSource::Train {
            program: &li(11),
            config: ScalarConfig::default(),
        },
        sched: SchedConfig::new(Model::RegionPred),
    })
    .unwrap();
    let mut cfgs = Vec::new();
    for width in [2, 4, 8] {
        for memory in ["perfect", "cache:8x1x2x1x4:64x2x4x1x10"] {
            cfgs.push(MachineConfig {
                store_buffer_size: 4 * width,
                memory: MemoryModel::parse(memory).unwrap(),
                record_events: width == 4,
                ..MachineConfig::full_issue(width)
            });
        }
    }
    // Lanes an earlier lane's run carries over to: lane 6 is lane 2 on a
    // wider machine, lane 8 is lane 7 with a deeper store buffer, and
    // lane 9 is lane 2 on a machine too narrow to admit the program.
    cfgs.push(MachineConfig {
        store_buffer_size: 16,
        record_events: true,
        ..MachineConfig::full_issue(8)
    });
    for store_buffer_size in [4, 16] {
        cfgs.push(MachineConfig {
            store_buffer_size,
            ..MachineConfig::full_issue(4)
        });
    }
    cfgs.push(MachineConfig {
        store_buffer_size: 16,
        record_events: true,
        ..MachineConfig::full_issue(2)
    });
    let solo: Vec<_> = cfgs
        .iter()
        .map(|cfg| {
            let sink = EventLog::new(cfg.record_events);
            art.run(cfg.clone()).map(|res| (res, sink))
        })
        .collect();
    let rep = art.run_batch(&cfgs);
    assert_eq!(rep.lanes, solo);
    for (from, to) in [(2, 6), (7, 8), (2, 9)] {
        let stalls = solo[from].as_ref().unwrap().0.stall_sb_full;
        assert!(cfgs[from].run_carries_over(stalls, &cfgs[to]), "lane {to}");
    }
    // The schedule is 4-wide, so the 2-wide machines fail admission.
    for lane in [0, 1, 9] {
        assert!(matches!(solo[lane], Err(VliwError::Malformed(_))), "{lane}");
    }
    let cycles: Vec<u64> = solo.iter().flatten().map(|(res, _)| res.cycles).collect();
    assert_eq!(cycles.len(), 7);
    assert_eq!(rep.lane_cycles, cycles.iter().sum::<u64>());
    let longest = *cycles.iter().max().unwrap();
    assert_eq!(rep.batch_cycles, longest.div_ceil(DEFAULT_STRIDE));
}
