//! The seven scheduling models of the ISCA'95 evaluation and the
//! program-level scheduling pipeline.

use crate::dag::{build_dag, Hoist, Policy};
use crate::list::{list_schedule, ScheduledScope};
use crate::ops::{build_ops, Style};
use crate::pathcond::PathCond;
use crate::scope::{form_scopes, ScopeParams};
use psb_ir::{Cfg, Liveness, RegSet};
use psb_isa::{BlockId, Resources, ScalarProgram, SlotOp, VliwProgram};
use psb_scalar::EdgeProfile;
use std::collections::HashMap;
use std::fmt;

/// The speculative-execution models evaluated in the paper.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Model {
    /// Pure compiler-based global scheduling: safe register motion with
    /// renaming only (Figure 6, "global").
    Global,
    /// Global scheduling plus pipeline squashing for unsafe ops past one
    /// branch (Figure 6, "squashing").
    Squash,
    /// Trace scheduling over superblocks with renaming and squashing
    /// (Figure 6, "trace").
    Trace,
    /// Region scheduling with simple predicated execution and squashing
    /// speculation only (Figure 6, "region").
    RegionSquash,
    /// Boosting: unconstrained motion within a trace, results buffered
    /// under branch-count labels (Figure 7, "boosting").
    Boost,
    /// Trace predicating: the predicating hardware restricted to a trace
    /// (Figure 7, Section 4.2.1).
    TracePred,
    /// Region predicating: the paper's full mechanism (Figure 7).
    RegionPred,
}

impl Model {
    /// All models, in the order the paper presents them.
    pub const ALL: [Model; 7] = [
        Model::Global,
        Model::Squash,
        Model::Trace,
        Model::RegionSquash,
        Model::Boost,
        Model::TracePred,
        Model::RegionPred,
    ];

    /// The model's short name as used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Model::Global => "global",
            Model::Squash => "squash",
            Model::Trace => "trace",
            Model::RegionSquash => "region-squash",
            Model::Boost => "boost",
            Model::TracePred => "trace-pred",
            Model::RegionPred => "region-pred",
        }
    }

    /// The model whose [`name`](Self::name) is `name`.
    pub fn from_name(name: &str) -> Option<Model> {
        Model::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Scheduling configuration.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct SchedConfig {
    /// The scheduling model.
    pub model: Model,
    /// Issue width of the target machine.
    pub issue_width: usize,
    /// Function-unit counts of the target machine.
    pub resources: Resources,
    /// CCR entries available (`K`; bounds branches per scope).
    pub num_conds: usize,
    /// Maximum conditions an instruction may pass unresolved (`D` in
    /// Figure 8).
    pub depth: usize,
    /// Scope size cap in blocks for the large-window models; at most
    /// [`PathCond::MAX_NODES`] (64), the width of a path condition's node
    /// masks.
    pub max_blocks: usize,
    /// Schedule for the single-shadow register file (serialise conflicting
    /// speculative writes); disable for the infinite-shadow ablation.
    pub single_shadow: bool,
    /// Counter-form predicate ablation: condition-sets execute in program
    /// order (Section 4.2.1).
    pub ordered_cond_sets: bool,
}

impl SchedConfig {
    /// The paper's base configuration for `model`: 4-issue, 4 ALU / 4
    /// branch / 2 load / 1 store, K = 4, D = 4.
    pub fn new(model: Model) -> SchedConfig {
        SchedConfig {
            model,
            issue_width: 4,
            resources: Resources::paper_base(),
            num_conds: 4,
            depth: 4,
            max_blocks: 16,
            single_shadow: true,
            ordered_cond_sets: false,
        }
    }

    fn scope_params(&self) -> ScopeParams {
        match self.model {
            // The adjacent-block iterative models see a small window.
            Model::Global | Model::Squash => ScopeParams::trace(4, self.num_conds),
            Model::Trace | Model::Boost | Model::TracePred => {
                ScopeParams::trace(self.max_blocks, self.num_conds)
            }
            Model::RegionSquash | Model::RegionPred => {
                ScopeParams::region(self.max_blocks, self.num_conds)
            }
        }
    }

    fn style(&self) -> Style {
        match self.model {
            Model::Global => Style::LinearRename { pred_unsafe: false },
            Model::Squash | Model::Trace => Style::LinearRename { pred_unsafe: true },
            Model::Boost => Style::LinearBoost,
            Model::RegionSquash | Model::TracePred | Model::RegionPred => Style::Predicated,
        }
    }

    fn policy(&self) -> Policy {
        let linear = self.style().is_linear();
        let (hoist, depth, window_all) = match self.model {
            Model::Global => (Hoist::No, 0, false),
            Model::Squash => (Hoist::Window, 1, false),
            Model::Trace => (Hoist::Window, self.num_conds, false),
            Model::RegionSquash => (Hoist::Window, self.num_conds, true),
            Model::Boost | Model::TracePred | Model::RegionPred => {
                (Hoist::Buffered, self.depth, false)
            }
        };
        Policy {
            linear,
            hoist,
            depth,
            window_all,
            single_shadow: self.single_shadow,
            ordered_cond_sets: self.ordered_cond_sets,
        }
    }
}

/// A scheduling failure.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SchedError {
    /// [`SchedConfig::max_blocks`] exceeds [`PathCond::MAX_NODES`]: a
    /// scope that large could hold branch nodes past the path-condition
    /// masks.
    ScopeTooWide {
        /// The requested scope size cap.
        max_blocks: usize,
    },
    /// The produced program failed validation (a scheduler bug).
    Invalid(String),
}

impl fmt::Display for SchedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchedError::ScopeTooWide { max_blocks } => write!(
                f,
                "max_blocks {max_blocks} exceeds the {}-block scope limit",
                PathCond::MAX_NODES
            ),
            SchedError::Invalid(m) => write!(f, "scheduler produced invalid code: {m}"),
        }
    }
}

impl std::error::Error for SchedError {}

/// Schedules `prog` for the predicating machine under `cfg`, using the
/// training `profile` for static branch prediction and scope growth.
///
/// # Errors
///
/// [`SchedError::ScopeTooWide`] if `cfg.max_blocks` exceeds
/// [`PathCond::MAX_NODES`], whatever the model; [`SchedError::Invalid`]
/// if the emitted program fails validation — this indicates a scheduler
/// bug, not bad input.
pub fn schedule(
    prog: &ScalarProgram,
    profile: &EdgeProfile,
    cfg: &SchedConfig,
) -> Result<VliwProgram, SchedError> {
    if cfg.max_blocks > PathCond::MAX_NODES {
        return Err(SchedError::ScopeTooWide {
            max_blocks: cfg.max_blocks,
        });
    }
    let cfg_graph = Cfg::new(prog);
    let lv = Liveness::new(prog, &cfg_graph);
    let used = used_regs(prog);
    let scopes = form_scopes(prog, profile, &cfg.scope_params());
    let style = cfg.style();
    let policy = cfg.policy();

    let mut scheduled: Vec<(BlockId, ScheduledScope)> = Vec::with_capacity(scopes.len());
    for scope in &scopes {
        let mut ops = build_ops(prog, scope, style, &lv, used);
        let dag = build_dag(&mut ops, &policy);
        let ss = list_schedule(&ops, &dag, cfg.issue_width, &cfg.resources);
        scheduled.push((scope.head, ss));
    }

    // Lay scopes out and patch exits.
    let mut start_of: HashMap<BlockId, usize> = HashMap::new();
    let mut addr = 0usize;
    for (head, ss) in &scheduled {
        start_of.insert(*head, addr);
        addr += ss.words.len().max(1);
    }
    let mut words = Vec::with_capacity(addr);
    let mut region_starts = Vec::with_capacity(scheduled.len());
    for (head, ss) in &mut scheduled.iter_mut() {
        region_starts.push(words.len());
        debug_assert_eq!(words.len(), start_of[head]);
        let base = words.len();
        let mut scope_words = std::mem::take(&mut ss.words);
        if scope_words.is_empty() {
            scope_words.push(psb_isa::MultiOp::default());
        }
        for &(w, s, target) in &ss.patches {
            let t = *start_of
                .get(&target)
                .unwrap_or_else(|| panic!("exit target {target} has no scope"));
            match &mut scope_words[w].slots[s].op {
                SlotOp::Jump { target } | SlotOp::CmpBr { target, .. } => *target = t,
                other => panic!("patch target is not a transfer: {other:?}"),
            }
        }
        let _ = base;
        words.extend(scope_words);
    }

    let out = VliwProgram {
        name: format!("{}.{}", prog.name, cfg.model.name()),
        words,
        region_starts,
        num_conds: cfg.num_conds.max(1),
        init_regs: prog.init_regs.clone(),
        memory: prog.memory.clone(),
        live_out: prog.live_out.clone(),
    };
    out.validate().map_err(SchedError::Invalid)?;
    if cfg!(debug_assertions) {
        let violations = crate::verify::verify_schedule(&out, cfg.issue_width, &cfg.resources);
        if !violations.is_empty() {
            let msgs: Vec<String> = violations.iter().map(|v| v.to_string()).collect();
            return Err(SchedError::Invalid(msgs.join("; ")));
        }
    }
    Ok(out)
}

/// Registers used anywhere in the program (the renaming pool is the
/// complement).
pub fn used_regs(prog: &ScalarProgram) -> RegSet {
    let mut s = RegSet::EMPTY;
    for b in &prog.blocks {
        for op in &b.instrs {
            s = s.union(op.used_regs());
            s.extend(op.def_reg());
        }
        s = s.union(b.term.used_regs());
    }
    s.extend(prog.live_out.iter().copied());
    s.extend(prog.init_regs.iter().map(|&(r, _)| r));
    s
}
