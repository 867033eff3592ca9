//! A corrupted dispatch-table index in a pre-decoded arena must be
//! rejected at machine construction (decode time) with a typed
//! [`VliwError::Malformed`] — never reach issue time, and never panic.

use psb_core::{DecodedProgram, Engine, EventLog, MachineConfig, VliwError, VliwMachine};
use psb_isa::{AluOp, MemImage, MultiOp, Op, Reg, Slot, SlotOp, Src, VliwProgram};
use std::sync::Arc;

fn prog() -> VliwProgram {
    let r = Reg::new;
    VliwProgram {
        name: "dispatch-validation".into(),
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

fn expect_rejected(p: &VliwProgram, d: DecodedProgram) {
    // The corruption must surface as a construction-time Malformed error
    // on every engine (validation does not depend on which engine would
    // have consumed the index), with no panic anywhere.
    for engine in [Engine::Tabled, Engine::Legacy] {
        let cfg = MachineConfig {
            engine,
            ..MachineConfig::default()
        };
        let err = VliwMachine::with_sink_decoded(p, Arc::new(d.clone()), cfg, EventLog::new(false))
            .expect_err("corrupted arena must be rejected");
        match err {
            VliwError::Malformed(m) => {
                assert!(m.contains("pre-decoded arena rejected"), "{m}")
            }
            other => panic!("expected Malformed, got {other}"),
        }
    }
}

#[test]
fn corrupted_handler_index_is_caught_at_decode_time() {
    let p = prog();
    let mut d = DecodedProgram::decode(&p);
    d.slots[0].handler = u16::MAX; // far outside the generated table
    expect_rejected(&p, d);
}

#[test]
fn plausible_but_wrong_handler_index_is_caught_at_decode_time() {
    let p = prog();
    let mut d = DecodedProgram::decode(&p);
    // In-range for the table, but the wrong handler for an ALU slot —
    // exactly the corruption an index-bounds check alone would miss.
    d.slots[0].handler ^= 1;
    expect_rejected(&p, d);
}

#[test]
fn corrupted_word_class_is_caught_at_decode_time() {
    let p = prog();
    let mut d = DecodedProgram::decode(&p);
    d.words[1].class = 0; // the halt word's class must have the control bit
    expect_rejected(&p, d);
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
