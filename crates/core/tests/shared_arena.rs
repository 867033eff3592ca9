//! A machine built over a shared pre-decoded arena
//! ([`VliwMachine::with_sink_decoded`], the path every compiled artifact
//! runs) must run exactly as the reference engine, which never reads
//! the arena.

use psb_core::{DecodedProgram, Engine, EventLog, MachineConfig, VliwMachine};
use psb_isa::{AluOp, MemImage, MultiOp, Op, Reg, Slot, SlotOp, Src, VliwProgram};
use std::sync::Arc;

fn prog() -> VliwProgram {
    let r = Reg::new;
    VliwProgram {
        name: "shared-arena".into(),
        words: vec![
            MultiOp::new(vec![Slot::alw(SlotOp::Op(Op::Alu {
                op: AluOp::Add,
                rd: r(1),
                a: Src::imm(2),
                b: Src::imm(3),
            }))]),
            MultiOp::new(vec![Slot::alw(SlotOp::Halt)]),
        ],
        region_starts: vec![0],
        num_conds: 2,
        init_regs: vec![],
        memory: MemImage::zeroed(8),
        live_out: vec![r(1)],
    }
}

#[test]
fn valid_arena_runs_identically_on_every_engine() {
    let p = prog();
    let d = Arc::new(DecodedProgram::decode(&p));
    let run = |engine| {
        let cfg = MachineConfig {
            engine,
            record_events: true,
            ..MachineConfig::default()
        };
        let sink = EventLog::new(true);
        VliwMachine::with_sink_decoded(&p, Arc::clone(&d), cfg, sink)
            .and_then(VliwMachine::run)
            .expect("runs clean")
    };
    let tabled = run(Engine::Tabled);
    assert_eq!(tabled.regs[1], 5);
    assert_eq!(tabled, run(Engine::Legacy));
}
