//! Classic scalar clean-up passes: local copy propagation and global
//! dead-code elimination.
//!
//! The paper's global-scheduling model applies copy propagation after
//! register renaming and deletes copies whose value is no longer used
//! (Section 4.1, citing the dragon book).  Our schedulers propagate
//! renaming copies internally during lowering; these standalone passes
//! serve the scalar level — cleaning up generated or hand-written kernels
//! before scheduling (`psbsim --optimize`).

use crate::cfg::Cfg;
use crate::liveness::Liveness;
use psb_isa::{Op, Reg, ScalarProgram, Src, Terminator};
use std::collections::HashMap;

/// Local (block-level) copy propagation: rewrites uses of a copied
/// register to the copy's source while the source is provably unchanged.
/// Returns the number of rewritten operands.
pub fn copy_propagate(prog: &mut ScalarProgram) -> usize {
    let mut rewrites = 0;
    for block in &mut prog.blocks {
        // reg -> replacement source, invalidated on any redefinition of
        // either side.
        let mut map: HashMap<Reg, Src> = HashMap::new();
        let invalidate = |map: &mut HashMap<Reg, Src>, def: Reg| {
            map.retain(|k, v| *k != def && v.as_reg() != Some(def));
        };
        let subst = |map: &HashMap<Reg, Src>, rewrites: &mut usize, s: Src| -> Src {
            match s.as_reg().and_then(|r| map.get(&r)) {
                Some(&rep) => {
                    *rewrites += 1;
                    rep
                }
                None => s,
            }
        };
        for op in &mut block.instrs {
            *op = op.map_srcs(|s| subst(&map, &mut rewrites, s));
            if let Some(d) = op.def_reg() {
                invalidate(&mut map, d);
            }
            if let Op::Copy { rd, src } = *op {
                // Record the copy (a self-copy records nothing useful).
                if src.as_reg() != Some(rd) && !rd.is_zero() {
                    map.insert(rd, src);
                }
            }
        }
        if let Terminator::Branch { a, b, .. } = &mut block.term {
            *a = subst(&map, &mut rewrites, *a);
            *b = subst(&map, &mut rewrites, *b);
        }
    }
    rewrites
}

/// Global dead-code elimination: removes operations whose destination is
/// dead.  Stores are never removed (memory is observable); loads with
/// dead destinations are removed, which also removes their potential
/// exceptions — the standard compiler behaviour the paper's *unsafe*
/// discussion assumes.  Returns the number of removed operations.
pub fn dead_code_eliminate(prog: &mut ScalarProgram) -> usize {
    let mut removed = 0;
    loop {
        let cfg = Cfg::new(prog);
        let lv = Liveness::new(prog, &cfg);
        let mut changed = false;
        for (i, block) in prog.blocks.iter_mut().enumerate() {
            let id = psb_isa::BlockId(i as u32);
            if !cfg.is_reachable(id) {
                continue;
            }
            let mut live = lv.live_out(id).union(block.term.used_regs());
            let mut keep: Vec<bool> = vec![true; block.instrs.len()];
            for (j, op) in block.instrs.iter().enumerate().rev() {
                let dead = match op.def_reg() {
                    Some(d) => !live.contains(d),
                    None => false,
                };
                let removable = dead && !matches!(op, Op::Store { .. });
                if removable || matches!(op, Op::Nop) {
                    keep[j] = false;
                    changed = true;
                    removed += 1;
                    continue;
                }
                if let Some(d) = op.def_reg() {
                    live.remove(d);
                }
                live = live.union(op.used_regs());
            }
            if changed {
                let mut it = keep.iter();
                block
                    .instrs
                    .retain(|_| *it.next().expect("keep mask aligned"));
            }
        }
        if !changed {
            return removed;
        }
    }
}

/// Convenience pipeline: copy propagation followed by dead-code
/// elimination, repeated to a fixed point.  Returns `(rewrites, removed)`.
pub fn optimize(prog: &mut ScalarProgram) -> (usize, usize) {
    let mut total = (0, 0);
    loop {
        let r = copy_propagate(prog);
        let d = dead_code_eliminate(prog);
        total.0 += r;
        total.1 += d;
        if r == 0 && d == 0 {
            return total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_isa::{AluOp, CmpOp, MemTag, ProgramBuilder};
    use psb_scalar::ScalarMachine;

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn propagates_and_removes_copies() {
        let mut pb = ProgramBuilder::new("cp");
        pb.memory_size(32);
        pb.init_reg(r(1), 5);
        let b = pb.new_block();
        pb.block_mut(b)
            .copy(r(2), r(1))
            .alu(AluOp::Add, r(3), r(2), 1) // should read r1
            .alu(AluOp::Mul, r(4), r(3), r(2)) // both rewritable
            .halt();
        pb.set_entry(b);
        pb.live_out([r(3), r(4)]);
        let mut p = pb.finish().unwrap();
        let before = ScalarMachine::run_to_completion(&p).unwrap();

        let (rewrites, removed) = optimize(&mut p);
        assert!(rewrites >= 2);
        assert_eq!(removed, 1, "the copy is dead after propagation");
        assert!(!p.blocks[0]
            .instrs
            .iter()
            .any(|o| matches!(o, Op::Copy { .. })));

        let after = ScalarMachine::run_to_completion(&p).unwrap();
        assert_eq!(
            after.observable(&p.live_out),
            before.observable(&p.live_out)
        );
        assert!(after.cycles < before.cycles);
    }

    #[test]
    fn invalidates_on_redefinition() {
        let mut pb = ProgramBuilder::new("inv");
        pb.memory_size(32);
        pb.init_reg(r(1), 5);
        let b = pb.new_block();
        pb.block_mut(b)
            .copy(r(2), r(1))
            .alu(AluOp::Add, r(1), r(1), 10) // r1 changes: the copy is stale
            .alu(AluOp::Add, r(3), r(2), 0) // must NOT become r1
            .halt();
        pb.set_entry(b);
        pb.live_out([r(3)]);
        let mut p = pb.finish().unwrap();
        let before = ScalarMachine::run_to_completion(&p).unwrap();
        copy_propagate(&mut p);
        let after = ScalarMachine::run_to_completion(&p).unwrap();
        assert_eq!(after.regs[3], before.regs[3]);
        assert_eq!(after.regs[3], 5);
    }

    #[test]
    fn dce_removes_dead_chains_but_keeps_stores() {
        let mut pb = ProgramBuilder::new("dce");
        pb.memory_size(32);
        let b = pb.new_block();
        pb.block_mut(b)
            .alu(AluOp::Add, r(1), 1, 2) // dead chain head
            .alu(AluOp::Add, r(2), r(1), 3) // dead chain tail
            .load(r(3), 4, 0, MemTag::ANY) // dead load: removed
            .alu(AluOp::Add, r(4), 5, 6) // live
            .store(8, 0, r(4), MemTag::ANY) // store: kept
            .halt();
        pb.set_entry(b);
        pb.live_out([r(4)]);
        let mut p = pb.finish().unwrap();
        let removed = dead_code_eliminate(&mut p);
        assert_eq!(removed, 3);
        assert_eq!(p.blocks[0].instrs.len(), 2);
        let res = ScalarMachine::run_to_completion(&p).unwrap();
        assert_eq!(res.regs[4], 11);
        assert_eq!(res.memory.read(8).unwrap(), 11);
    }

    #[test]
    fn dce_respects_cross_block_liveness() {
        let mut pb = ProgramBuilder::new("xblock");
        pb.memory_size(32);
        pb.init_reg(r(5), 1);
        let a = pb.new_block();
        let t = pb.new_block();
        let e = pb.new_block();
        let j = pb.new_block();
        pb.block_mut(a)
            .alu(AluOp::Add, r(1), 10, 0) // live only on the taken path
            .branch(CmpOp::Eq, r(5), 1, t, e);
        pb.block_mut(t).alu(AluOp::Add, r(2), r(1), 1).jump(j);
        pb.block_mut(e).alu(AluOp::Add, r(2), 7, 0).jump(j);
        pb.block_mut(j).halt();
        pb.set_entry(a);
        pb.live_out([r(2)]);
        let mut p = pb.finish().unwrap();
        let removed = dead_code_eliminate(&mut p);
        assert_eq!(removed, 0, "r1 is live into the taken branch");
        let res = ScalarMachine::run_to_completion(&p).unwrap();
        assert_eq!(res.regs[2], 11);
    }

    #[test]
    fn optimize_preserves_workload_semantics() {
        // The kernels are hand-tight, so the passes should change little —
        // and must change nothing observable.
        for seed in [3u64, 17] {
            let w = psb_workloads_proxy(seed);
            let before = ScalarMachine::run_to_completion(&w).unwrap();
            let mut opt = w.clone();
            optimize(&mut opt);
            let after = ScalarMachine::run_to_completion(&opt).unwrap();
            assert_eq!(
                after.observable(&opt.live_out),
                before.observable(&w.live_out)
            );
        }
    }

    /// A miniature stand-in for a workload kernel (psb-ir cannot depend on
    /// psb-workloads without a cycle).
    fn psb_workloads_proxy(seed: u64) -> ScalarProgram {
        let mut pb = ProgramBuilder::new("proxy");
        pb.memory_size(64);
        for k in 1..32 {
            pb.mem_cell(k + 16, ((seed as i64).wrapping_mul(k) % 23) - 11);
        }
        pb.init_reg(r(8), 16);
        let entry = pb.new_block();
        let body = pb.new_block();
        let pos = pb.new_block();
        let neg = pb.new_block();
        let next = pb.new_block();
        let done = pb.new_block();
        pb.block_mut(entry).copy(r(1), 0).copy(r(2), 0).jump(body);
        pb.block_mut(body)
            .load(r(3), r(1), 17, MemTag(1))
            .branch(CmpOp::Ge, r(3), 0, pos, neg);
        pb.block_mut(pos)
            .alu(AluOp::Add, r(2), r(2), r(3))
            .jump(next);
        pb.block_mut(neg)
            .alu(AluOp::Sub, r(2), r(2), r(3))
            .jump(next);
        pb.block_mut(next)
            .alu(AluOp::Add, r(1), r(1), 1)
            .branch(CmpOp::Lt, r(1), r(8), body, done);
        pb.block_mut(done).halt();
        pb.set_entry(entry);
        pb.live_out([r(2)]);
        pb.finish().unwrap()
    }
}
