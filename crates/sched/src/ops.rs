//! Lowering a scope into schedulable operations.
//!
//! Two lowering *styles* exist, matching the two machine families the
//! paper evaluates:
//!
//! * **Linear** (global scheduling, squashing, trace scheduling, boosting):
//!   the scope is a superblock.  Branches stay as compare-and-branch
//!   instructions whose comparison is normalised so that *true* means
//!   "leave the trace" (the condition-set conversion of Section 4.2.1).
//!   In the renaming variant, a hoisted definition that is live on an
//!   earlier off-trace path is renamed into a free register and a copy is
//!   left at the home position; in the boosting variant, results are
//!   buffered under the conjunction of the not-taken conditions instead.
//! * **Predicated** (the region scheduling, trace predicating, and region
//!   predicating models): control transfers inside the scope are removed.
//!   Each branch becomes a condition-set instruction (predicate `alw`,
//!   Section 3.4) and each scope exit becomes a predicated jump; every
//!   operation carries its path condition as its predicate.

use crate::pathcond::PathCond;
use crate::scope::{Scope, ScopeEdge};
use psb_ir::{Liveness, RegSet};
use psb_isa::{BlockId, Op, Predicate, Reg, ScalarProgram, SlotOp, Src, Terminator, NUM_REGS};
use std::collections::HashMap;

/// How a scope is lowered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Style {
    /// Linear superblock with register renaming; `pred_unsafe` gives
    /// hoistable unsafe ops a squash-window predicate (squashing/trace
    /// models) instead of pinning them (global model).
    LinearRename {
        /// Predicate unsafe ops for pipeline squashing.
        pred_unsafe: bool,
    },
    /// Linear superblock with predicated buffering (boosting).
    LinearBoost,
    /// Fully predicated region/trace lowering.
    Predicated,
}

impl Style {
    /// Whether this style lowers branches to compare-and-branch (linear)
    /// rather than condition-set plus predicated jumps.
    pub fn is_linear(self) -> bool {
        !matches!(self, Style::Predicated)
    }
}

/// A schedulable operation with its scheduling metadata.
#[derive(Clone, PartialEq, Debug)]
pub struct SchedOp {
    /// The machine operation (jump/compare-and-branch targets are
    /// placeholders patched by the linker via `exit_target`).
    pub slot_op: SlotOp,
    /// The issue predicate.
    pub pred: Predicate,
    /// The path condition of the op's home node (polarities are CCR
    /// values: in linear lowering `false` = stayed on trace).
    pub home: PathCond,
    /// For control transfers: the path condition under which control
    /// actually leaves here.
    pub exit_cond: Option<PathCond>,
    /// Home node index within the scope.
    pub node: usize,
    /// Number of in-scope branches strictly before this op in program
    /// order (the linear models' hoist distance).
    pub level: usize,
    /// CFG block this control transfer exits to (patched by the linker).
    pub exit_target: Option<BlockId>,
    /// This op must issue at least one cycle after `ops[after]` (the
    /// compare-and-branch / jump pair of an unconditioned leaf branch).
    pub after: Option<usize>,
    /// Result latency in cycles.
    pub latency: u64,
    /// The op may not be hoisted above any preceding branch (copies,
    /// stores and unrenamed live definitions in the renaming style).
    pub pinned: bool,
    /// Profile probability of the op's home path (scheduling priority:
    /// common-path operations win slot ties over rare-path ones).
    pub prob: f64,
}

impl SchedOp {
    /// Whether this is a control transfer (jump, compare-and-branch,
    /// halt).
    pub fn is_control(&self) -> bool {
        matches!(
            self.slot_op,
            SlotOp::Jump { .. } | SlotOp::CmpBr { .. } | SlotOp::Halt
        )
    }

    /// Whether this is a condition-set instruction.
    pub fn is_setcond(&self) -> bool {
        matches!(self.slot_op, SlotOp::Op(Op::SetCond { .. }))
    }

    /// Whether this op writes a condition register (condition-set or
    /// condition-writing compare-and-branch).
    pub fn sets_cond(&self) -> Option<psb_isa::CondReg> {
        match self.slot_op {
            SlotOp::Op(Op::SetCond { c, .. }) => Some(c),
            SlotOp::CmpBr { c, .. } => c,
            _ => None,
        }
    }

    /// Whether this op may raise a memory exception.
    pub fn is_unsafe(&self) -> bool {
        matches!(self.slot_op, SlotOp::Op(op) if op.is_unsafe())
    }

    /// Whether this is a store.
    pub fn is_store(&self) -> bool {
        matches!(self.slot_op, SlotOp::Op(Op::Store { .. }))
    }

    fn new(slot_op: SlotOp, pred: Predicate, home: PathCond, node: usize, level: usize) -> SchedOp {
        let latency = match slot_op {
            SlotOp::Op(Op::Load { .. }) => 2,
            _ => 1,
        };
        SchedOp {
            slot_op,
            pred,
            home,
            exit_cond: None,
            node,
            level,
            exit_target: None,
            after: None,
            latency,
            pinned: false,
            prob: 1.0,
        }
    }
}

/// Lowers `scope` into schedulable ops in program (growth) order.
///
/// `lv` is the liveness of the *original* program and `used_regs` the set
/// of registers appearing anywhere in it — the renaming pool is its
/// complement.
pub fn build_ops(
    prog: &ScalarProgram,
    scope: &Scope,
    style: Style,
    lv: &Liveness,
    used_regs: RegSet,
) -> Vec<SchedOp> {
    let mut ops = match style {
        Style::Predicated => build_predicated(prog, scope),
        Style::LinearRename { pred_unsafe } => {
            build_linear(prog, scope, lv, used_regs, Some(pred_unsafe))
        }
        Style::LinearBoost => build_linear(prog, scope, lv, used_regs, None),
    };
    for op in &mut ops {
        op.prob = scope.nodes[op.node].path_prob;
    }
    ops
}

fn build_predicated(prog: &ScalarProgram, scope: &Scope) -> Vec<SchedOp> {
    let mut ops = Vec::new();
    for (idx, node) in scope.nodes.iter().enumerate() {
        let home = node.path.clone();
        let level = home.depth();
        let pred = home.to_predicate(&scope.cond_of_branch);
        for &op in &prog.block(node.orig).instrs {
            ops.push(SchedOp::new(SlotOp::Op(op), pred, home.clone(), idx, level));
        }
        match prog.block(node.orig).term {
            Terminator::Halt => {
                let mut h = SchedOp::new(SlotOp::Halt, pred, home.clone(), idx, level);
                h.exit_cond = Some(home.clone());
                ops.push(h);
            }
            Terminator::Jump(t) => match node.edges[0] {
                ScopeEdge::Internal(_) => {}
                ScopeEdge::Exit(_) => {
                    let mut j =
                        SchedOp::new(SlotOp::Jump { target: 0 }, pred, home.clone(), idx, level);
                    j.exit_cond = Some(home.clone());
                    j.exit_target = Some(t);
                    ops.push(j);
                }
            },
            Terminator::Branch {
                cmp,
                a,
                b,
                taken,
                not_taken,
            } => {
                if let Some(c) = node.cond {
                    ops.push(SchedOp::new(
                        SlotOp::Op(Op::SetCond { c, cmp, a, b }),
                        Predicate::always(),
                        home.clone(),
                        idx,
                        level,
                    ));
                    let sides = [(taken, true, 0usize), (not_taken, false, 1usize)];
                    for &(target, polarity, e) in &sides {
                        if let ScopeEdge::Exit(_) = node.edges[e] {
                            let exit_path = home.extend(idx, polarity);
                            let jpred = exit_path.to_predicate(&scope.cond_of_branch);
                            let mut j = SchedOp::new(
                                SlotOp::Jump { target: 0 },
                                jpred,
                                home.clone(),
                                idx,
                                level,
                            );
                            j.exit_cond = Some(exit_path);
                            j.exit_target = Some(target);
                            ops.push(j);
                        }
                    }
                } else {
                    // Condition budget exhausted: a predicated
                    // compare-and-branch leaf plus a paired jump.
                    let mut cb = SchedOp::new(
                        SlotOp::CmpBr {
                            c: None,
                            cmp,
                            a,
                            b,
                            target: 0,
                        },
                        pred,
                        home.clone(),
                        idx,
                        level,
                    );
                    cb.exit_cond = Some(home.extend(idx, true));
                    cb.exit_target = Some(taken);
                    let cb_idx = ops.len();
                    ops.push(cb);
                    let mut j =
                        SchedOp::new(SlotOp::Jump { target: 0 }, pred, home.clone(), idx, level);
                    j.exit_cond = Some(home.extend(idx, false));
                    j.exit_target = Some(not_taken);
                    j.after = Some(cb_idx);
                    ops.push(j);
                }
            }
        }
    }
    ops
}

/// Linear lowering.  `rename` is `Some(pred_unsafe)` for the renaming
/// styles and `None` for boosting.
fn build_linear(
    prog: &ScalarProgram,
    scope: &Scope,
    lv: &Liveness,
    used_regs: RegSet,
    rename: Option<bool>,
) -> Vec<SchedOp> {
    // Path order: node 0, 1, ... (a trace is a path, so growth order is
    // path order).
    let n = scope.nodes.len();

    // Home path conditions with CCR-value polarity: on-trace = false.
    let mut homes: Vec<PathCond> = Vec::with_capacity(n);
    let mut levels: Vec<usize> = Vec::with_capacity(n);
    for node in scope.nodes.iter() {
        match node.parent {
            None => {
                homes.push(PathCond::root());
                levels.push(0);
            }
            Some(p) => {
                let parent_branches = matches!(
                    prog.block(scope.nodes[p].orig).term,
                    Terminator::Branch { .. }
                );
                if parent_branches {
                    homes.push(homes[p].extend(p, false));
                    levels.push(levels[p] + 1);
                } else {
                    homes.push(homes[p].clone());
                    levels.push(levels[p]);
                }
            }
        }
    }

    // Off-trace liveness: for renaming decisions, the union of live-in
    // sets of branch-exit targets at nodes < i; for copy decisions, the
    // union over nodes >= i of every exit target's live-in (plus the
    // program outputs under a halt).
    let exit_live_of = |idx: usize| -> RegSet {
        let node = &scope.nodes[idx];
        let mut s = RegSet::EMPTY;
        match prog.block(node.orig).term {
            Terminator::Halt => s.extend(prog.live_out.iter().copied()),
            _ => {
                for e in &node.edges {
                    if let ScopeEdge::Exit(t) = e {
                        s = s.union(lv.live_in(*t));
                    }
                }
            }
        }
        s
    };
    let mut off_live_before = vec![RegSet::EMPTY; n + 1];
    for i in 0..n {
        off_live_before[i + 1] = off_live_before[i].union(exit_live_of(i));
    }
    let mut future_live = vec![RegSet::EMPTY; n + 1];
    for i in (0..n).rev() {
        future_live[i] = future_live[i + 1].union(exit_live_of(i));
    }

    // Renaming pool: registers unused by the whole program.
    let mut pool: Vec<Reg> = (1..NUM_REGS)
        .map(Reg::new)
        .filter(|r| !used_regs.contains(*r))
        .rev()
        .collect();

    let mut ops: Vec<SchedOp> = Vec::new();
    let mut cur_name: HashMap<Reg, Reg> = HashMap::new();
    let map_src = |cur: &HashMap<Reg, Reg>, s: Src| -> Src {
        match s {
            Src::Reg { reg, shadow } => Src::Reg {
                reg: *cur.get(&reg).unwrap_or(&reg),
                shadow,
            },
            imm => imm,
        }
    };

    for (idx, node) in scope.nodes.iter().enumerate() {
        let home = homes[idx].clone();
        let level = levels[idx];
        // Boosting buffers results under the on-trace predicate; the
        // renaming styles issue everything `alw` except predicated unsafe
        // ops.
        let trace_pred = home.to_predicate(&scope.cond_of_branch);
        for &op in &prog.block(node.orig).instrs {
            let op = op.map_srcs(|s| map_src(&cur_name, s));
            match rename {
                None => {
                    // Boosting: predicate everything, rename nothing.
                    ops.push(SchedOp::new(
                        SlotOp::Op(op),
                        trace_pred,
                        home.clone(),
                        idx,
                        level,
                    ));
                }
                Some(pred_unsafe) => {
                    let mut emitted = op;
                    let mut pinned = false;
                    if let Some(r) = op.def_reg() {
                        let needs_rename = idx > 0 && off_live_before[idx].contains(r);
                        if needs_rename {
                            if let Some(fresh) = pool.pop() {
                                emitted = op.with_def(fresh);
                                cur_name.insert(r, fresh);
                                let pred = if pred_unsafe && emitted.is_unsafe() {
                                    trace_pred
                                } else {
                                    Predicate::always()
                                };
                                ops.push(SchedOp::new(
                                    SlotOp::Op(emitted),
                                    pred,
                                    home.clone(),
                                    idx,
                                    level,
                                ));
                                if future_live[idx].contains(r) {
                                    let mut cp = SchedOp::new(
                                        SlotOp::Op(Op::Copy {
                                            rd: r,
                                            src: Src::reg(fresh),
                                        }),
                                        Predicate::always(),
                                        home.clone(),
                                        idx,
                                        level,
                                    );
                                    cp.pinned = true;
                                    ops.push(cp);
                                }
                                continue;
                            }
                            // Pool exhausted: keep the definition in place.
                            pinned = true;
                        }
                        cur_name.remove(&r);
                    }
                    let is_store = emitted.is_mem_store();
                    let pred = if pred_unsafe && emitted.is_unsafe() && !pinned && !is_store {
                        trace_pred
                    } else {
                        Predicate::always()
                    };
                    let mut so = SchedOp::new(SlotOp::Op(emitted), pred, home.clone(), idx, level);
                    so.pinned = pinned || is_store;
                    ops.push(so);
                }
            }
        }
        match prog.block(node.orig).term {
            Terminator::Halt => {
                let mut h =
                    SchedOp::new(SlotOp::Halt, Predicate::always(), home.clone(), idx, level);
                h.exit_cond = Some(home.clone());
                ops.push(h);
            }
            Terminator::Jump(t) => match node.edges[0] {
                ScopeEdge::Internal(_) => {}
                ScopeEdge::Exit(_) => {
                    let mut j = SchedOp::new(
                        SlotOp::Jump { target: 0 },
                        Predicate::always(),
                        home.clone(),
                        idx,
                        level,
                    );
                    j.exit_cond = Some(home.clone());
                    j.exit_target = Some(t);
                    ops.push(j);
                }
            },
            Terminator::Branch {
                cmp,
                a,
                b,
                taken,
                not_taken,
            } => {
                let a = map_src(&cur_name, a);
                let b = map_src(&cur_name, b);
                let grown: Vec<bool> = node
                    .edges
                    .iter()
                    .map(|e| matches!(e, ScopeEdge::Internal(_)))
                    .collect();
                match (grown[0], grown[1]) {
                    (true, false) => {
                        // Trace continues on the taken side: exit when the
                        // comparison fails (negated condition-set,
                        // Section 4.2.1).
                        let mut cb = SchedOp::new(
                            SlotOp::CmpBr {
                                c: node.cond,
                                cmp: cmp.negate(),
                                a,
                                b,
                                target: 0,
                            },
                            Predicate::always(),
                            home.clone(),
                            idx,
                            level,
                        );
                        cb.exit_cond = Some(home.extend(idx, true));
                        cb.exit_target = Some(not_taken);
                        ops.push(cb);
                    }
                    (false, true) => {
                        let mut cb = SchedOp::new(
                            SlotOp::CmpBr {
                                c: node.cond,
                                cmp,
                                a,
                                b,
                                target: 0,
                            },
                            Predicate::always(),
                            home.clone(),
                            idx,
                            level,
                        );
                        cb.exit_cond = Some(home.extend(idx, true));
                        cb.exit_target = Some(taken);
                        ops.push(cb);
                    }
                    (false, false) => {
                        // Leaf: compare-and-branch to the taken side, then
                        // an unconditional jump to the other.
                        let mut cb = SchedOp::new(
                            SlotOp::CmpBr {
                                c: node.cond,
                                cmp,
                                a,
                                b,
                                target: 0,
                            },
                            Predicate::always(),
                            home.clone(),
                            idx,
                            level,
                        );
                        cb.exit_cond = Some(home.extend(idx, true));
                        cb.exit_target = Some(taken);
                        let cb_idx = ops.len();
                        ops.push(cb);
                        let mut j = SchedOp::new(
                            SlotOp::Jump { target: 0 },
                            Predicate::always(),
                            home.clone(),
                            idx,
                            level,
                        );
                        j.exit_cond = Some(home.extend(idx, false));
                        j.exit_target = Some(not_taken);
                        j.after = Some(cb_idx);
                        ops.push(j);
                    }
                    (true, true) => {
                        unreachable!("linear scopes grow at most one branch side")
                    }
                }
            }
        }
    }
    ops
}

/// Helper: whether an op is a store (used by the builder for pinning).
trait OpExt {
    fn is_mem_store(&self) -> bool;
}

impl OpExt for Op {
    fn is_mem_store(&self) -> bool {
        matches!(self, Op::Store { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::{form_scopes, ScopeParams};
    use psb_ir::Cfg;
    use psb_isa::{AluOp, CmpOp, MemTag, ProgramBuilder};
    use psb_scalar::{ScalarConfig, ScalarMachine};

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    /// head: r3 = load(r1); branch r3 < 5 → hot | cold
    /// hot:  r2 = r2 + r3; jump back-ish → exit (keep simple: jump exit)
    /// cold: r2 = 0; jump exit.
    fn small_prog() -> ScalarProgram {
        let mut pb = ProgramBuilder::new("small");
        pb.memory_size(64);
        pb.mem_cell(8, 3);
        pb.init_reg(r(1), 8);
        let head = pb.new_block();
        let hot = pb.new_block();
        let cold = pb.new_block();
        let exit = pb.new_block();
        pb.block_mut(head)
            .load(r(3), r(1), 0, MemTag(1))
            .branch(CmpOp::Lt, r(3), 5, hot, cold);
        pb.block_mut(hot)
            .alu(AluOp::Add, r(2), r(2), r(3))
            .jump(exit);
        pb.block_mut(cold).alu(AluOp::Add, r(2), r(2), 7).jump(exit);
        pb.block_mut(exit).halt();
        pb.set_entry(head);
        pb.live_out([r(2)]);
        pb.finish().unwrap()
    }

    fn used_regs(p: &ScalarProgram) -> RegSet {
        let mut s = RegSet::EMPTY;
        for b in &p.blocks {
            for op in &b.instrs {
                s = s.union(op.used_regs());
                s.extend(op.def_reg());
            }
            s = s.union(b.term.used_regs());
        }
        s.extend(p.live_out.iter().copied());
        s.extend(p.init_regs.iter().map(|&(r, _)| r));
        s
    }

    fn setup(params: ScopeParams) -> (ScalarProgram, Scope, Liveness, RegSet) {
        let p = small_prog();
        let profile = ScalarMachine::new(&p, ScalarConfig::default())
            .run()
            .unwrap()
            .edge_profile;
        let scopes = form_scopes(&p, &profile, &params);
        let cfg = Cfg::new(&p);
        let lv = Liveness::new(&p, &cfg);
        let u = used_regs(&p);
        (p.clone(), scopes[0].clone(), lv, u)
    }

    #[test]
    fn predicated_lowering_emits_setcond_and_exit_jumps() {
        let (p, scope, lv, u) = setup(ScopeParams::region(8, 4));
        let ops = build_ops(&p, &scope, Style::Predicated, &lv, u);
        assert!(ops.iter().any(|o| o.is_setcond()));
        // The profiled (hot) path is grown through to the halting exit
        // block; the never-taken cold side leaves the region through a
        // predicated exit jump.
        let halts: Vec<_> = ops
            .iter()
            .filter(|o| matches!(o.slot_op, SlotOp::Halt))
            .collect();
        assert_eq!(halts.len(), 1);
        assert_eq!(halts[0].pred.to_string(), "c0");
        let jumps: Vec<_> = ops
            .iter()
            .filter(|o| matches!(o.slot_op, SlotOp::Jump { .. }))
            .collect();
        assert_eq!(jumps.len(), 1);
        assert_eq!(jumps[0].pred.to_string(), "!c0");
        assert!(jumps[0].exit_target.is_some());
        assert!(jumps[0].exit_cond.is_some());
        // Ops of the hot block carry the c0 predicate.
        let hot_add = ops
            .iter()
            .find(|o| matches!(o.slot_op, SlotOp::Op(Op::Alu { op: AluOp::Add, .. })))
            .unwrap();
        assert_eq!(hot_add.pred.depth(), 1);
    }

    #[test]
    fn linear_lowering_normalises_exit_condition() {
        let (p, scope, lv, u) = setup(ScopeParams::trace(8, 4));
        let ops = build_ops(
            &p,
            &scope,
            Style::LinearRename { pred_unsafe: true },
            &lv,
            u,
        );
        // The trace follows the likelier side; the compare-and-branch must
        // exit on true.
        let cb = ops
            .iter()
            .find(|o| matches!(o.slot_op, SlotOp::CmpBr { .. }))
            .unwrap();
        assert!(cb.exit_target.is_some());
        if let SlotOp::CmpBr { c, .. } = cb.slot_op {
            assert!(c.is_some(), "trace branches hold a condition register");
        }
    }

    #[test]
    fn rename_inserts_copy_for_live_defs() {
        let (p, scope, lv, u) = setup(ScopeParams::trace(8, 4));
        let ops = build_ops(
            &p,
            &scope,
            Style::LinearRename { pred_unsafe: true },
            &lv,
            u,
        );
        // r2 is live at the off-trace exit (cold needs nothing... r2 is
        // live-out of the program through `exit`), so the hot-side def of
        // r2 must be renamed with a pinned copy left behind.
        let copy = ops
            .iter()
            .find(|o| matches!(o.slot_op, SlotOp::Op(Op::Copy { rd, .. }) if rd == r(2)));
        assert!(copy.is_some(), "expected a pinned copy back into r2");
        assert!(copy.unwrap().pinned);
        // The renamed def writes a pool register (one unused by the
        // program).
        let def = ops
            .iter()
            .find_map(|o| match o.slot_op {
                SlotOp::Op(op @ Op::Alu { .. }) => op.def_reg(),
                _ => None,
            })
            .unwrap();
        assert!(!u.contains(def), "definition renamed into a free register");
    }

    #[test]
    fn boost_predicates_instead_of_renaming() {
        let (p, scope, lv, u) = setup(ScopeParams::trace(8, 4));
        let ops = build_ops(&p, &scope, Style::LinearBoost, &lv, u);
        assert!(!ops
            .iter()
            .any(|o| matches!(o.slot_op, SlotOp::Op(Op::Copy { .. }))));
        // Ops past the branch carry the not-taken predicate (!c0).
        let boosted = ops
            .iter()
            .find(|o| o.level > 0 && !o.is_control())
            .expect("an op past the branch");
        assert_eq!(boosted.pred.to_string(), "!c0");
    }

    #[test]
    fn levels_count_preceding_branches() {
        let (p, scope, lv, u) = setup(ScopeParams::trace(8, 4));
        let ops = build_ops(&p, &scope, Style::LinearBoost, &lv, u);
        let cb_pos = ops
            .iter()
            .position(|o| matches!(o.slot_op, SlotOp::CmpBr { .. }))
            .unwrap();
        for (i, o) in ops.iter().enumerate() {
            if i < cb_pos {
                assert_eq!(o.level, 0);
            }
            if i > cb_pos && !o.is_control() {
                assert_eq!(o.level, 1);
            }
        }
    }
}
