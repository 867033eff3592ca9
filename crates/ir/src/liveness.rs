//! Backward liveness dataflow over registers.

use crate::cfg::Cfg;
use psb_isa::{BlockId, RegSet, ScalarProgram};

/// Per-block live-in/live-out register sets.
///
/// The schedulers use live-in sets at off-path scope exits to decide when a
/// hoisted instruction's destination must be renamed: a code motion is
/// *illegal* when the moved operation overwrites a register whose previous
/// value is live on another path (Section 2.1 of the paper).
#[derive(Clone, PartialEq, Debug)]
pub struct Liveness {
    live_in: Vec<RegSet>,
    live_out: Vec<RegSet>,
    use_set: Vec<RegSet>,
    def_set: Vec<RegSet>,
}

impl Liveness {
    /// Computes liveness for `prog`.  The program's `live_out` registers
    /// are treated as used at every `Halt`.
    pub fn new(prog: &ScalarProgram, cfg: &Cfg) -> Liveness {
        let n = prog.blocks.len();
        let exit_live: RegSet = prog.live_out.iter().copied().collect();
        let mut use_set = vec![RegSet::EMPTY; n];
        let mut def_set = vec![RegSet::EMPTY; n];
        for (i, b) in prog.blocks.iter().enumerate() {
            let (mut uses, mut defs) = (RegSet::EMPTY, RegSet::EMPTY);
            for op in &b.instrs {
                uses = uses.union(op.used_regs().minus(defs));
                if let Some(d) = op.def_reg() {
                    defs.insert(d);
                }
            }
            uses = uses.union(b.term.used_regs().minus(defs));
            use_set[i] = uses;
            def_set[i] = defs;
        }

        let mut live_in = vec![RegSet::EMPTY; n];
        let mut live_out = vec![RegSet::EMPTY; n];
        let mut changed = true;
        while changed {
            changed = false;
            // Backward problem: iterate post-order (reverse of RPO).
            for &b in cfg.rpo().iter().rev() {
                let i = b.index();
                let mut out = if cfg.succs(b).is_empty() {
                    exit_live
                } else {
                    RegSet::EMPTY
                };
                for &s in cfg.succs(b) {
                    out = out.union(live_in[s.index()]);
                }
                let inn = use_set[i].union(out.minus(def_set[i]));
                if out != live_out[i] || inn != live_in[i] {
                    live_out[i] = out;
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }
        Liveness {
            live_in,
            live_out,
            use_set,
            def_set,
        }
    }

    /// Registers live at the entry of `b`.
    pub fn live_in(&self, b: BlockId) -> RegSet {
        self.live_in[b.index()]
    }

    /// Registers live at the exit of `b`.
    pub fn live_out(&self, b: BlockId) -> RegSet {
        self.live_out[b.index()]
    }

    /// Registers read in `b` before any redefinition in `b`.
    pub fn uses(&self, b: BlockId) -> RegSet {
        self.use_set[b.index()]
    }

    /// Registers defined in `b`.
    pub fn defs(&self, b: BlockId) -> RegSet {
        self.def_set[b.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_isa::{AluOp, CmpOp, MemTag, ProgramBuilder, Reg};

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    #[test]
    fn diamond_liveness() {
        // entry: r1 = r2 + 1; branch on r1 → left | right
        // left:  r3 = r1 * 2 → join
        // right: r3 = 7     → join      (r1 dead on this path after branch)
        // join:  halt, live_out = {r3}
        let mut pb = ProgramBuilder::new("live");
        let entry = pb.new_block();
        let left = pb.new_block();
        let right = pb.new_block();
        let join = pb.new_block();
        pb.block_mut(entry)
            .alu(AluOp::Add, r(1), r(2), 1)
            .branch(CmpOp::Lt, r(1), 0, left, right);
        pb.block_mut(left).alu(AluOp::Mul, r(3), r(1), 2).jump(join);
        pb.block_mut(right).copy(r(3), 7).jump(join);
        pb.block_mut(join).halt();
        pb.set_entry(entry);
        pb.live_out([r(3)]);
        let p = pb.finish().unwrap();
        let cfg = Cfg::new(&p);
        let lv = Liveness::new(&p, &cfg);

        assert!(lv.live_in(entry).contains(r(2)));
        assert!(!lv.live_in(entry).contains(r(1)));
        assert!(lv.live_in(left).contains(r(1)));
        assert!(
            !lv.live_in(right).contains(r(1)),
            "r1 dead on the right path"
        );
        assert!(lv.live_out(left).contains(r(3)));
        assert!(lv.live_in(join).contains(r(3)));
        assert!(!lv.live_out(join).contains(r(1)));
    }

    #[test]
    fn loop_carried_liveness() {
        // head: r1 = r1 + r2; branch r1 < 10 → head | exit
        let mut pb = ProgramBuilder::new("loop");
        let head = pb.new_block();
        let exit = pb.new_block();
        pb.block_mut(head).alu(AluOp::Add, r(1), r(1), r(2)).branch(
            CmpOp::Lt,
            r(1),
            10,
            head,
            exit,
        );
        pb.block_mut(exit).halt();
        pb.set_entry(head);
        pb.live_out([r(1)]);
        let p = pb.finish().unwrap();
        let lv = Liveness::new(&p, &Cfg::new(&p));
        // Both r1 and r2 are live around the loop.
        assert!(lv.live_in(head).contains(r(1)));
        assert!(lv.live_in(head).contains(r(2)));
        assert!(lv.live_out(head).contains(r(2)));
    }

    #[test]
    fn use_before_def_vs_def_first() {
        let mut pb = ProgramBuilder::new("ud");
        let b = pb.new_block();
        // r1 defined then used: not upward-exposed. r2 used first: exposed.
        pb.block_mut(b)
            .copy(r(1), 5)
            .alu(AluOp::Add, r(3), r(1), r(2))
            .store(r(3), 0, r(1), MemTag::ANY)
            .halt();
        pb.set_entry(b);
        pb.memory_size(64);
        let p = pb.finish().unwrap();
        let lv = Liveness::new(&p, &Cfg::new(&p));
        assert!(!lv.uses(b).contains(r(1)));
        assert!(lv.uses(b).contains(r(2)));
        assert!(lv.defs(b).contains(r(1)));
        assert!(lv.defs(b).contains(r(3)));
    }
}
