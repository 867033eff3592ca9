//! Scheduling-scope formation: traces (for the linear models) and regions
//! (for the predicated models).
//!
//! A scope is grown from a header block by following CFG edges that the
//! training profile says are worth including.  A join block whose incoming
//! path conditions disjoin back into the ANDed predicate form is *merged*
//! (the equivalent-block rule of Section 3.3, e.g. a diamond join); any
//! other join is *duplicated* (the paper's fallback), so every block
//! instance has a single conjunctive path condition and the header
//! dominates every node.  Trace formation is the degenerate case that
//! grows at most one successor per branch, yielding a superblock.
//!
//! Every edge leaving a scope targets an original CFG block, which becomes
//! the header of its own scope; the linker resolves these exits to region
//! entry addresses.

use crate::pathcond::PathCond;
use psb_isa::{BlockId, CondReg, ScalarProgram, Terminator};
use psb_scalar::EdgeProfile;
use std::collections::{BTreeMap, HashSet, VecDeque};

/// Where one successor edge of a scope node leads.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ScopeEdge {
    /// The successor was grown into this scope, at the given node index.
    Internal(usize),
    /// The successor is outside the scope: control exits to this original
    /// CFG block (always the header of some scope).
    Exit(BlockId),
}

/// One block instance inside a scope.
#[derive(Clone, PartialEq, Debug)]
pub struct ScopeNode {
    /// The original CFG block this node instantiates.
    pub orig: BlockId,
    /// Parent node index (`None` for the header).
    pub parent: Option<usize>,
    /// Path condition from the header to this node.
    pub path: PathCond,
    /// Estimated probability of reaching this node from the header.
    pub path_prob: f64,
    /// The CCR entry assigned to this node's branch, if it has a branch
    /// terminator and the condition budget allowed one.
    pub cond: Option<CondReg>,
    /// One entry per terminator successor (taken edge first).
    pub edges: Vec<ScopeEdge>,
}

/// A scheduling scope: a tree of block instances.
#[derive(Clone, PartialEq, Debug)]
pub struct Scope {
    /// The header block (the scope's unique entry).
    pub head: BlockId,
    /// Nodes in growth (BFS) order; node 0 is the header instance.
    pub nodes: Vec<ScopeNode>,
    /// CCR assignment for in-scope branches, keyed by node index.
    pub cond_of_branch: BTreeMap<usize, CondReg>,
}

impl Scope {
    /// All exit targets of the scope (with duplicates).
    pub fn exit_targets(&self) -> impl Iterator<Item = BlockId> + '_ {
        self.nodes.iter().flat_map(|n| {
            n.edges.iter().filter_map(|e| match e {
                ScopeEdge::Exit(t) => Some(*t),
                ScopeEdge::Internal(_) => None,
            })
        })
    }

    /// Number of branch nodes holding a condition register.
    pub fn num_conds(&self) -> usize {
        self.cond_of_branch.len()
    }
}

/// Scope-growth parameters; each scheduling model provides its own.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct ScopeParams {
    /// Grow both branch successors (region) or at most the likelier one
    /// (trace).
    pub follow_both: bool,
    /// Maximum nodes per scope; at most [`PathCond::MAX_NODES`].
    pub max_blocks: usize,
    /// Maximum in-scope branches (bounded by the machine's CCR size `K`).
    pub max_branches: usize,
    /// Minimum profile probability of an edge to grow along it.
    pub edge_threshold: f64,
    /// Minimum cumulative path probability to keep growing.
    pub path_threshold: f64,
}

impl ScopeParams {
    /// Trace parameters: follow the predicted direction only.
    pub fn trace(max_blocks: usize, max_branches: usize) -> ScopeParams {
        ScopeParams {
            follow_both: false,
            max_blocks,
            max_branches,
            edge_threshold: 0.5,
            path_threshold: 0.1,
        }
    }

    /// Region parameters: follow every sufficiently likely direction.
    pub fn region(max_blocks: usize, max_branches: usize) -> ScopeParams {
        ScopeParams {
            follow_both: true,
            max_blocks,
            max_branches,
            edge_threshold: 0.08,
            path_threshold: 0.02,
        }
    }
}

/// Forms the scopes covering `prog`, headed by the entry block and by
/// every block targeted from outside a scope.  The first scope is headed
/// by the program entry.
///
/// # Panics
///
/// Panics if a scope grows a branch node past [`PathCond::MAX_NODES`],
/// which `params.max_blocks` at or below that limit rules out
/// ([`schedule`](crate::schedule) checks it).
pub fn form_scopes(
    prog: &ScalarProgram,
    profile: &EdgeProfile,
    params: &ScopeParams,
) -> Vec<Scope> {
    let mut queue = VecDeque::new();
    let mut seen: HashSet<BlockId> = HashSet::new();
    queue.push_back(prog.entry);
    seen.insert(prog.entry);
    let mut scopes = Vec::new();
    while let Some(head) = queue.pop_front() {
        let scope = grow_scope(prog, profile, params, head);
        for t in scope.exit_targets() {
            if seen.insert(t) {
                queue.push_back(t);
            }
        }
        scopes.push(scope);
    }
    scopes
}

fn grow_scope(
    prog: &ScalarProgram,
    profile: &EdgeProfile,
    params: &ScopeParams,
    head: BlockId,
) -> Scope {
    let mut scope = Scope {
        head,
        nodes: vec![ScopeNode {
            orig: head,
            parent: None,
            path: PathCond::root(),
            path_prob: 1.0,
            cond: None,
            edges: Vec::new(),
        }],
        cond_of_branch: BTreeMap::new(),
    };
    let mut work = VecDeque::new();
    work.push_back(0usize);
    // Unexpanded nodes, by block: join-merge candidates (regions only).
    let mut pending: std::collections::HashMap<BlockId, Vec<usize>> =
        std::collections::HashMap::new();
    while let Some(idx) = work.pop_front() {
        let orig = scope.nodes[idx].orig;
        if let Some(v) = pending.get_mut(&orig) {
            v.retain(|&x| x != idx);
        }
        let path = scope.nodes[idx].path;
        let prob = scope.nodes[idx].path_prob;
        match prog.block(orig).term {
            Terminator::Halt => {}
            Terminator::Jump(t) => {
                // Prefer duplicating the join while the condition and
                // block budgets are comfortable (footnote 3: duplication
                // avoids commit dependences); merge when they are not.
                let prefer_dup = prefers_duplication(&scope, params);
                let mut edge = None;
                if !prefer_dup {
                    if let Some(m) = try_merge(&mut scope, &pending, params, t, &path, prob) {
                        edge = Some(ScopeEdge::Internal(m));
                    }
                }
                if edge.is_none()
                    && (!params.follow_both || growth_beneficial(prog, t, prob))
                    && can_grow(&scope, params, idx, t, prob)
                {
                    let new = add_node(&mut scope, idx, t, path, prob);
                    work.push_back(new);
                    pending.entry(t).or_default().push(new);
                    edge = Some(ScopeEdge::Internal(new));
                }
                if edge.is_none() {
                    if let Some(m) = try_merge(&mut scope, &pending, params, t, &path, prob) {
                        edge = Some(ScopeEdge::Internal(m));
                    }
                }
                scope.nodes[idx]
                    .edges
                    .push(edge.unwrap_or(ScopeEdge::Exit(t)));
            }
            Terminator::Branch {
                taken, not_taken, ..
            } => {
                let have_cond = scope.cond_of_branch.len() < params.max_branches;
                if have_cond {
                    let c = CondReg::new(scope.cond_of_branch.len());
                    scope.cond_of_branch.insert(idx, c);
                    scope.nodes[idx].cond = Some(c);
                    let p_taken = profile.taken_fraction(orig);
                    let sides = [(taken, true, p_taken), (not_taken, false, 1.0 - p_taken)];
                    // Trace mode grows at most the likelier side.
                    let best = if p_taken >= 0.5 { 0 } else { 1 };
                    let mut edges = Vec::new();
                    for (i, &(succ, polarity, p_edge)) in sides.iter().enumerate() {
                        let allowed = params.follow_both || i == best;
                        if !allowed {
                            edges.push(ScopeEdge::Exit(succ));
                            continue;
                        }
                        let new_path = path.extend(idx, polarity);
                        let prefer_dup = prefers_duplication(&scope, params);
                        if !prefer_dup {
                            if let Some(m) = try_merge(
                                &mut scope,
                                &pending,
                                params,
                                succ,
                                &new_path,
                                prob * p_edge,
                            ) {
                                edges.push(ScopeEdge::Internal(m));
                                continue;
                            }
                        }
                        let grow = p_edge >= params.edge_threshold
                            && prob * p_edge >= params.path_threshold
                            && (!params.follow_both
                                || growth_beneficial(prog, succ, prob * p_edge))
                            && can_grow(&scope, params, idx, succ, prob * p_edge);
                        if !grow {
                            if let Some(m) = try_merge(
                                &mut scope,
                                &pending,
                                params,
                                succ,
                                &new_path,
                                prob * p_edge,
                            ) {
                                edges.push(ScopeEdge::Internal(m));
                                continue;
                            }
                        }
                        if grow {
                            let new =
                                add_node_with_path(&mut scope, idx, succ, new_path, prob * p_edge);
                            work.push_back(new);
                            pending.entry(succ).or_default().push(new);
                            edges.push(ScopeEdge::Internal(new));
                        } else {
                            edges.push(ScopeEdge::Exit(succ));
                        }
                    }
                    scope.nodes[idx].edges = edges;
                } else {
                    // Condition budget exhausted: the branch stays a
                    // compare-and-branch leaf; both sides exit.
                    scope.nodes[idx].edges =
                        vec![ScopeEdge::Exit(taken), ScopeEdge::Exit(not_taken)];
                }
            }
        }
    }
    scope
}

/// Expected-benefit test for growing `succ` on a path of probability
/// `prob`: including the block saves a region restart when the path is
/// taken but wastes issue slots on squashed operations when it is not
/// (the paper's region-growth heuristic trades exactly this off).
fn growth_beneficial(prog: &ScalarProgram, succ: BlockId, prob: f64) -> bool {
    const RESTART_COST: f64 = 4.0; // approximate region re-entry cycles
    const WIDTH: f64 = 4.0; // slots wasted ~ ops / width
    let b = prog.block(succ);
    let ops = b.instrs.len() as f64 + 1.0;
    prob * RESTART_COST >= (1.0 - prob) * (ops / WIDTH) * 0.8
}

/// Whether the scope still has room to duplicate joins rather than merge
/// them: duplication spends conditions and blocks but eliminates commit
/// dependences (Section 4.2.2 / footnote 3).
fn prefers_duplication(scope: &Scope, params: &ScopeParams) -> bool {
    scope.cond_of_branch.len() < params.max_branches && scope.nodes.len() + 2 < params.max_blocks
}

/// Join merging (the paper's *equivalent block* rule): if an unexpanded
/// node for `succ` exists whose path condition disjoins with `new_path`
/// into the ANDed form, reuse it instead of duplicating.
fn try_merge(
    scope: &mut Scope,
    pending: &std::collections::HashMap<BlockId, Vec<usize>>,
    params: &ScopeParams,
    succ: BlockId,
    new_path: &PathCond,
    prob: f64,
) -> Option<usize> {
    if !params.follow_both {
        return None;
    }
    for &cand in pending.get(&succ)?.iter() {
        if let Some(merged) = scope.nodes[cand].path.merge(new_path) {
            scope.nodes[cand].path = merged;
            scope.nodes[cand].path_prob += prob;
            return Some(cand);
        }
    }
    None
}

fn can_grow(scope: &Scope, params: &ScopeParams, from: usize, succ: BlockId, prob: f64) -> bool {
    if scope.nodes.len() >= params.max_blocks || prob < params.path_threshold {
        return false;
    }
    // Never grow into an ancestor: regions are acyclic; a back edge
    // becomes an exit jump to the scope's own entry.
    let mut cur = Some(from);
    while let Some(i) = cur {
        if scope.nodes[i].orig == succ {
            return false;
        }
        cur = scope.nodes[i].parent;
    }
    true
}

fn add_node(scope: &mut Scope, parent: usize, orig: BlockId, path: PathCond, prob: f64) -> usize {
    add_node_with_path(scope, parent, orig, path, prob)
}

fn add_node_with_path(
    scope: &mut Scope,
    parent: usize,
    orig: BlockId,
    path: PathCond,
    prob: f64,
) -> usize {
    scope.nodes.push(ScopeNode {
        orig,
        parent: Some(parent),
        path,
        path_prob: prob,
        cond: None,
        edges: Vec::new(),
    });
    scope.nodes.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_isa::{AluOp, CmpOp, ProgramBuilder, Reg, ScalarProgram};
    use psb_scalar::{ScalarConfig, ScalarMachine};

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    /// A loop whose body is a diamond:
    /// head → {left(70%), right(30%)} → join → head (×N) | exit.
    fn diamond_loop() -> ScalarProgram {
        let mut pb = ProgramBuilder::new("diamond-loop");
        let head = pb.new_block();
        let left = pb.new_block();
        let right = pb.new_block();
        let join = pb.new_block();
        let exit = pb.new_block();
        // r1 = iteration counter, r2 = accumulator; branch on r1 % 10 < 7.
        pb.block_mut(head)
            .alu(AluOp::And, r(3), r(1), 7)
            .branch(CmpOp::Lt, r(3), 5, left, right);
        pb.block_mut(left).alu(AluOp::Add, r(2), r(2), 1).jump(join);
        pb.block_mut(right)
            .alu(AluOp::Add, r(2), r(2), 100)
            .jump(join);
        pb.block_mut(join)
            .alu(AluOp::Add, r(1), r(1), 1)
            .branch(CmpOp::Lt, r(1), 64, head, exit);
        pb.block_mut(exit).halt();
        pb.set_entry(head);
        pb.live_out([r(2)]);
        pb.finish().unwrap()
    }

    fn profile_of(p: &ScalarProgram) -> EdgeProfile {
        ScalarMachine::new(p, ScalarConfig::default())
            .run()
            .unwrap()
            .edge_profile
    }

    #[test]
    fn region_merges_diamond_join() {
        let p = diamond_loop();
        let profile = profile_of(&p);
        // A tight block budget forces the equivalent-block merge (with
        // room to spare the scheduler prefers duplication).
        let scopes = form_scopes(&p, &profile, &ScopeParams::region(5, 4));
        // One region covers the whole loop body; the join block merges
        // back to the header's path condition (the equivalent-block rule)
        // instead of being duplicated.
        let s0 = &scopes[0];
        assert_eq!(s0.head, p.entry);
        let joins: Vec<_> = s0.nodes.iter().filter(|n| n.orig == BlockId(3)).collect();
        assert_eq!(joins.len(), 1, "diamond join must merge, not duplicate");
        assert!(
            joins[0].path.is_root(),
            "merged join is control-equivalent to the header"
        );
        assert!((joins[0].path_prob - 1.0).abs() < 1e-9);
        // Back edges to the head become exits targeting the head.
        assert!(s0.exit_targets().any(|t| t == p.entry));
        // The arms keep their depth-1 conditions.
        let left = s0.nodes.iter().find(|n| n.orig == BlockId(1)).unwrap();
        assert_eq!(left.path.depth(), 1);
    }

    #[test]
    fn trace_follows_likely_path_only() {
        let p = diamond_loop();
        let profile = profile_of(&p);
        let scopes = form_scopes(&p, &profile, &ScopeParams::trace(16, 4));
        let s0 = &scopes[0];
        // Likely side (left, ~62%) grown; right side is an exit.
        assert!(
            s0.nodes.iter().any(|n| n.orig == BlockId(1)),
            "left in trace"
        );
        assert!(
            !s0.nodes.iter().any(|n| n.orig == BlockId(2)),
            "right not in trace"
        );
        assert!(s0.exit_targets().any(|t| t == BlockId(2)));
        // Every node has at most one internal successor (a path).
        for n in &s0.nodes {
            let internal = n
                .edges
                .iter()
                .filter(|e| matches!(e, ScopeEdge::Internal(_)))
                .count();
            assert!(internal <= 1);
        }
        // The right block gets its own scope.
        assert!(scopes.iter().any(|s| s.head == BlockId(2)));
    }

    #[test]
    fn branch_budget_respected() {
        let p = diamond_loop();
        let profile = profile_of(&p);
        let scopes = form_scopes(&p, &profile, &ScopeParams::region(32, 1));
        for s in &scopes {
            assert!(s.num_conds() <= 1);
        }
    }

    #[test]
    fn every_exit_target_becomes_a_head() {
        let p = diamond_loop();
        let profile = profile_of(&p);
        let scopes = form_scopes(&p, &profile, &ScopeParams::region(8, 2));
        let heads: HashSet<BlockId> = scopes.iter().map(|s| s.head).collect();
        for s in &scopes {
            for t in s.exit_targets() {
                assert!(heads.contains(&t), "exit target {t} must be a scope head");
            }
        }
    }

    #[test]
    fn no_node_is_its_own_ancestor_block() {
        let p = diamond_loop();
        let profile = profile_of(&p);
        for s in form_scopes(&p, &profile, &ScopeParams::region(32, 4)) {
            for (i, n) in s.nodes.iter().enumerate() {
                let mut cur = n.parent;
                while let Some(a) = cur {
                    assert_ne!(
                        s.nodes[a].orig, n.orig,
                        "node {i} repeats an ancestor block"
                    );
                    cur = s.nodes[a].parent;
                }
            }
        }
    }

    #[test]
    fn condition_registers_assigned_in_growth_order() {
        let p = diamond_loop();
        let profile = profile_of(&p);
        let scopes = form_scopes(&p, &profile, &ScopeParams::region(16, 4));
        let s0 = &scopes[0];
        let mut last = None;
        for (&node, &c) in &s0.cond_of_branch {
            if let Some((ln, lc)) = last {
                assert!(node > ln);
                let _: CondReg = lc;
            }
            last = Some((node, c));
        }
        assert_eq!(s0.cond_of_branch.values().next(), Some(&CondReg::new(0)));
    }
}
