//! Golden-model differential testing: every scheduling model, on randomly
//! generated structured programs, must produce VLIW code whose observable
//! result (live-out registers + final memory) matches the scalar reference
//! execution.

use psb_core::{MachineConfig, ShadowMode, VliwMachine};
use psb_isa::{AluOp, CmpOp, MemTag, ProgramBuilder, Reg, ScalarProgram, Src};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{schedule, Model, SchedConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const DATA_REGS: usize = 12; // r1..r12 hold data
const ADDR_REG: usize = 13;
const LOOP_REG: usize = 14;

fn r(i: usize) -> Reg {
    Reg::new(i)
}

fn rand_src(rng: &mut StdRng) -> Src {
    if rng.gen_bool(0.3) {
        Src::imm(rng.gen_range(-8..64))
    } else {
        Src::reg(r(rng.gen_range(1..=DATA_REGS)))
    }
}

fn rand_alu(rng: &mut StdRng) -> AluOp {
    *[
        AluOp::Add,
        AluOp::Sub,
        AluOp::And,
        AluOp::Or,
        AluOp::Xor,
        AluOp::Slt,
        AluOp::Mul,
        AluOp::Sra,
    ]
    .get(rng.gen_range(0usize..8))
    .unwrap()
}

fn rand_cmp(rng: &mut StdRng) -> CmpOp {
    *[
        CmpOp::Eq,
        CmpOp::Ne,
        CmpOp::Lt,
        CmpOp::Le,
        CmpOp::Gt,
        CmpOp::Ge,
    ]
    .get(rng.gen_range(0usize..6))
    .unwrap()
}

/// Emits ops into `block` via the builder-closure pattern: returns a list
/// of straight-line ops (ALU plus bounded-address loads/stores).
fn rand_ops(rng: &mut StdRng, count: usize) -> Vec<psb_isa::Op> {
    use psb_isa::Op;
    let mut ops = Vec::new();
    for _ in 0..count {
        match rng.gen_range(0..10) {
            0..=5 => ops.push(Op::Alu {
                op: rand_alu(rng),
                rd: r(rng.gen_range(1..=DATA_REGS)),
                a: rand_src(rng),
                b: rand_src(rng),
            }),
            6..=7 => {
                // Bounded load: addr = (reg & 31) + 16, tag 1.
                let src = r(rng.gen_range(1..=DATA_REGS));
                ops.push(Op::Alu {
                    op: AluOp::And,
                    rd: r(ADDR_REG),
                    a: Src::reg(src),
                    b: Src::imm(31),
                });
                ops.push(Op::Load {
                    rd: r(rng.gen_range(1..=DATA_REGS)),
                    base: Src::reg(r(ADDR_REG)),
                    offset: 16,
                    tag: MemTag(1),
                });
            }
            _ => {
                // Bounded store into the second array, tag 2.
                let src = r(rng.gen_range(1..=DATA_REGS));
                ops.push(Op::Alu {
                    op: AluOp::And,
                    rd: r(ADDR_REG),
                    a: Src::reg(src),
                    b: Src::imm(31),
                });
                ops.push(Op::Store {
                    base: Src::reg(r(ADDR_REG)),
                    offset: 64,
                    value: rand_src(rng),
                    tag: MemTag(2),
                });
            }
        }
    }
    ops
}

/// Generates a structured, always-terminating program: a chain of
/// fragments (straight-line code, data-dependent diamonds, counted loops).
fn gen_program(seed: u64) -> ScalarProgram {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pb = ProgramBuilder::new(format!("rand-{seed}"));
    pb.memory_size(128);
    for a in 1..128 {
        pb.mem_cell(a, rng.gen_range(-100..100));
    }
    for i in 1..=DATA_REGS {
        pb.init_reg(r(i), rng.gen_range(-50..50));
    }

    let mut blocks = vec![pb.new_block()];
    let fragments = rng.gen_range(3..=7);
    for _ in 0..fragments {
        match rng.gen_range(0..3) {
            0 => {
                // Straight-line fragment.
                let cur = *blocks.last().unwrap();
                let next = pb.new_block();
                let mut bb = pb.block_mut(cur);
                let count = rng.gen_range(1..=5);
                for op in rand_ops(&mut rng, count) {
                    bb = bb.push(op);
                }
                bb.jump(next);
                blocks.push(next);
            }
            1 => {
                // Diamond.
                let cur = *blocks.last().unwrap();
                let then_b = pb.new_block();
                let else_b = pb.new_block();
                let join = pb.new_block();
                let cmp = rand_cmp(&mut rng);
                let a = Src::reg(r(rng.gen_range(1..=DATA_REGS)));
                let b = rand_src(&mut rng);
                pb.block_mut(cur).branch(cmp, a, b, then_b, else_b);
                let mut bb = pb.block_mut(then_b);
                let count = rng.gen_range(1..=4);
                for op in rand_ops(&mut rng, count) {
                    bb = bb.push(op);
                }
                bb.jump(join);
                let mut bb = pb.block_mut(else_b);
                let count = rng.gen_range(1..=4);
                for op in rand_ops(&mut rng, count) {
                    bb = bb.push(op);
                }
                bb.jump(join);
                blocks.push(join);
            }
            _ => {
                // Counted loop.
                let cur = *blocks.last().unwrap();
                let body = pb.new_block();
                let next = pb.new_block();
                let n: i64 = rng.gen_range(2..=6);
                pb.block_mut(cur).copy(r(LOOP_REG), 0).jump(body);
                let mut bb = pb.block_mut(body);
                let count = rng.gen_range(1..=4);
                for op in rand_ops(&mut rng, count) {
                    bb = bb.push(op);
                }
                bb.alu(AluOp::Add, r(LOOP_REG), r(LOOP_REG), 1).branch(
                    CmpOp::Lt,
                    r(LOOP_REG),
                    n,
                    body,
                    next,
                );
                blocks.push(next);
            }
        }
    }
    let last = *blocks.last().unwrap();
    pb.block_mut(last).halt();
    pb.set_entry(blocks[0]);
    pb.live_out((1..=DATA_REGS).map(r));
    pb.finish().unwrap()
}

fn check_program(prog: &ScalarProgram, models: &[Model], sched_tweak: impl Fn(&mut SchedConfig)) {
    let scalar = ScalarMachine::new(prog, ScalarConfig::default())
        .run()
        .unwrap_or_else(|e| panic!("{}: scalar run failed: {e}", prog.name));
    let expected = scalar.observable(&prog.live_out);
    for &model in models {
        let mut cfg = SchedConfig::new(model);
        sched_tweak(&mut cfg);
        let vliw = schedule(prog, &scalar.edge_profile, &cfg)
            .unwrap_or_else(|e| panic!("{}/{model}: scheduling failed: {e}", prog.name));
        let mcfg = MachineConfig {
            issue_width: cfg.issue_width,
            resources: cfg.resources,
            shadow_mode: if cfg.single_shadow {
                ShadowMode::Single
            } else {
                ShadowMode::Infinite
            },
            ..MachineConfig::default()
        };
        let res = VliwMachine::run_program(&vliw, mcfg)
            .unwrap_or_else(|e| panic!("{}/{model}: machine error: {e}\n{vliw}", prog.name));
        let got = res.observable(&prog.live_out);
        assert_eq!(
            got, expected,
            "{}/{model}: observable state diverged from the scalar golden model",
            prog.name
        );
    }
}

#[test]
fn all_models_match_golden_model_on_random_programs() {
    for seed in 0..40 {
        let prog = gen_program(seed);
        check_program(&prog, &Model::ALL, |_| {});
    }
}

#[test]
fn wide_machine_and_depth_sweep_match_golden_model() {
    for seed in 40..55 {
        let prog = gen_program(seed);
        for depth in [1, 2, 8] {
            check_program(&prog, &[Model::TracePred, Model::RegionPred], |c| {
                c.depth = depth;
                c.num_conds = 8;
                c.issue_width = 8;
                c.resources = psb_isa::Resources::full_issue(8);
            });
        }
    }
}

#[test]
fn infinite_shadow_ablation_matches_golden_model() {
    for seed in 55..70 {
        let prog = gen_program(seed);
        check_program(
            &prog,
            &[Model::RegionPred, Model::TracePred, Model::Boost],
            |c| {
                c.single_shadow = false;
            },
        );
    }
}

#[test]
fn two_issue_machine_matches_golden_model() {
    for seed in 70..80 {
        let prog = gen_program(seed);
        check_program(&prog, &Model::ALL, |c| {
            c.issue_width = 2;
            c.resources = psb_isa::Resources {
                alu: 2,
                branch: 2,
                load: 1,
                store: 1,
            };
        });
    }
}

/// Non-fatal faults on cold pages: the predicated models buffer the
/// speculative exception and recover via the future condition; results
/// must still match the scalar execution (which handles the same faults
/// inline).
#[test]
fn fault_recovery_matches_golden_model() {
    for seed in 80..100 {
        let prog = gen_program(seed);
        // Every fourth cell of the load array faults once.
        let faults: std::collections::BTreeSet<i64> = (16..48).step_by(4).collect();
        let scfg = ScalarConfig {
            fault_once_addrs: faults.clone(),
            ..ScalarConfig::default()
        };
        let scalar = ScalarMachine::new(&prog, scfg).run().unwrap();
        let expected = scalar.observable(&prog.live_out);
        for model in [Model::RegionPred, Model::TracePred, Model::Boost] {
            let cfg = SchedConfig::new(model);
            let vliw = schedule(&prog, &scalar.edge_profile, &cfg).unwrap();
            let mcfg = MachineConfig {
                fault_once_addrs: faults.clone(),
                ..MachineConfig::default()
            };
            let res = VliwMachine::run_program(&vliw, mcfg)
                .unwrap_or_else(|e| panic!("{}/{model}: machine error: {e}", prog.name));
            assert_eq!(
                res.observable(&prog.live_out),
                expected,
                "{}/{model}: fault recovery diverged",
                prog.name
            );
        }
    }
}

/// A scope at the path-condition limit still schedules and matches the
/// golden model; one block past it is a typed error, not a panic.
#[test]
fn scope_width_is_checked_against_the_path_masks() {
    use psb_sched::{PathCond, SchedError};
    for seed in 100..110 {
        let prog = gen_program(seed);
        check_program(&prog, &[Model::RegionPred, Model::TracePred], |c| {
            c.max_blocks = PathCond::MAX_NODES;
        });
        let profile = ScalarMachine::new(&prog, ScalarConfig::default())
            .run()
            .unwrap()
            .edge_profile;
        for model in Model::ALL {
            let cfg = SchedConfig {
                max_blocks: PathCond::MAX_NODES + 1,
                ..SchedConfig::new(model)
            };
            let err = schedule(&prog, &profile, &cfg).unwrap_err();
            assert_eq!(err, SchedError::ScopeTooWide { max_blocks: 65 });
            assert_eq!(
                err.to_string(),
                "max_blocks 65 exceeds the 64-block scope limit"
            );
        }
    }
}
