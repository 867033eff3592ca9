//! Machine configuration.

use crate::mem::MemoryModel;
use psb_isa::Resources;
use std::collections::BTreeSet;

/// How many speculative values one register can buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ShadowMode {
    /// One shadow register per sequential register — the paper's
    /// cost-reduced design (Section 3.2).  A second in-flight speculative
    /// write with a different predicate is a scheduler error.
    #[default]
    Single,
    /// Unbounded shadow storage per register — the idealised model of the
    /// paper's footnote 1, used by the `ablation-shadow` experiment.
    Infinite,
}

/// How the per-cycle commit pass locates buffered entries to resolve.
///
/// Both strategies are architecturally identical — they evaluate the same
/// predicates against the same CCR and emit the same events in the same
/// order (enforced by the `commit_scan` differential tests).  They differ
/// only in simulator cost.  The machine takes its strategy from its
/// [`Engine`] (`Legacy` runs `Naive`, `Tabled` runs `Indexed`); only a
/// bare register file or store buffer takes one directly, through its
/// `with_commit_scan`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CommitScan {
    /// Evaluate every buffered predicate every cycle — a direct transcription
    /// of the paper's per-entry commit hardware.  O(buffered) per cycle even
    /// when nothing can have changed.  Kept as the reference oracle.
    Naive,
    /// Re-evaluate only the entries a changed condition or a new write can
    /// affect.  The register file keeps one-word [`RegSet`] wakeup lists,
    /// one per CCR slot, plus a pending set of registers written since the
    /// previous pass, and wakes the lists of every condition that changed.
    /// The store buffer keeps a watermark, the newest entry id the previous
    /// pass saw: it skips the pass when the CCR is unchanged and nothing
    /// was appended, and otherwise walks its FIFO (at most `capacity`
    /// entries, so no per-condition index pays) resolving the entries
    /// appended since plus those whose predicate mentions a changed
    /// condition.  Both emit the naive scan's events in its order.
    ///
    /// [`RegSet`]: psb_isa::RegSet
    Indexed,
}

/// Which simulator implementation drives the machine: the one
/// simulator-only switch.
///
/// Both engines execute the same architecture and are held observably
/// identical by the engine-differential proptests and the fuzz harness.
/// They differ only in simulator cost: `Tabled` is the fast path and
/// `Legacy` the independent reference it is checked against.  The engine
/// also picks the commit pass ([`CommitScan`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// Drive normal-mode issue from the decoded arena: one mask
    /// intersection screens a word's operand hazards, and the
    /// store/control prepass runs only for words with a store or a
    /// control transfer.  Live slots run through the same slot match as
    /// the legacy engine, into the machine's one effect buffer, which
    /// keeps its allocations across cycles, so steady-state issue is
    /// allocation-free.  Recovery mode is rare, and
    /// there the engine issues from the program text as the legacy one
    /// does.  The commit pass is indexed, and the cycle driver skips inert
    /// commit passes and stall runs.
    #[default]
    Tabled,
    /// The original issue loop: clone the current `MultiOp` each cycle
    /// and materialise per-slot source lists on demand, with the paper's
    /// literal commit pass ([`CommitScan::Naive`]) run every cycle.  It
    /// reads the program itself, never the decoded arena, so it is kept
    /// as the differential oracle for the tabled engine.
    Legacy,
}

/// Full configuration of the predicating machine.
#[derive(Clone, PartialEq, Debug)]
pub struct MachineConfig {
    /// Maximum slots per word.
    pub issue_width: usize,
    /// Function-unit counts.
    pub resources: Resources,
    /// Load latency in cycles (the paper uses 2; all other ops take 1).
    /// This is the [`MemoryModel::Perfect`] latency; cache models
    /// replace it with per-access hit/miss latencies.
    pub load_latency: u64,
    /// Memory timing model (perfect / fixed-latency / I$+D$ caches).
    /// Defaults to [`MemoryModel::Perfect`], the paper's assumption.
    pub memory: MemoryModel,
    /// Shadow-register provisioning.
    pub shadow_mode: ShadowMode,
    /// Store buffer capacity in entries.
    pub store_buffer_size: usize,
    /// Store-buffer retires to the D-cache per cycle.
    pub retire_per_cycle: usize,
    /// Penalty cycles for a taken region-exit jump.  The paper assumes
    /// BTB-predictable branches impose no penalty, so the default is 0.
    pub taken_jump_penalty: u64,
    /// Pipeline refill cycles charged when recovery rolls back to the RPC.
    pub rollback_penalty: u64,
    /// Addresses whose first access raises a non-fatal fault (handled at
    /// [`MachineConfig::fault_penalty`] cost); mirrors
    /// `ScalarConfig::fault_once_addrs`.
    pub fault_once_addrs: BTreeSet<i64>,
    /// Handler cost of a non-fatal fault.
    pub fault_penalty: u64,
    /// Safety limit; exceeding it aborts the run.
    pub max_cycles: u64,
    /// Record the per-cycle event log (Table 1 reproduction / debugging).
    pub record_events: bool,
    /// Simulator engine, the only simulator-only field (no architectural
    /// effect); it also selects the commit pass.
    pub engine: Engine,
    /// **Test-only fault injection**: defer the recovery-exit commit pass to
    /// the next cycle's regular pass instead of running it before the EPC
    /// word issues.  This reintroduces the stale-shadow clobber the seed
    /// suite shipped with (a shadow waking on the future condition one cycle
    /// late overwrites the EPC word's sequential writes) and exists solely
    /// so the fuzzer's self-test can prove it catches and shrinks that bug.
    /// Must stay `false` everywhere else.
    pub defer_recovery_exit_commit: bool,
}

impl Default for MachineConfig {
    fn default() -> MachineConfig {
        MachineConfig {
            issue_width: 4,
            resources: Resources::paper_base(),
            load_latency: 2,
            memory: MemoryModel::Perfect,
            shadow_mode: ShadowMode::Single,
            store_buffer_size: 16,
            retire_per_cycle: 1,
            taken_jump_penalty: 0,
            rollback_penalty: 2,
            fault_once_addrs: BTreeSet::new(),
            fault_penalty: 50,
            max_cycles: 200_000_000,
            record_events: false,
            engine: Engine::default(),
            defer_recovery_exit_commit: false,
        }
    }
}

impl MachineConfig {
    /// The paper's base 4-issue machine with event recording enabled.
    pub fn with_events(mut self) -> MachineConfig {
        self.record_events = true;
        self
    }

    /// A 2-issue configuration as in the paper's Section 3.4 example.
    pub fn two_issue() -> MachineConfig {
        MachineConfig {
            issue_width: 2,
            resources: Resources {
                alu: 2,
                branch: 2,
                load: 1,
                store: 1,
            },
            ..MachineConfig::default()
        }
    }

    /// A full-issue machine of width `w` (Figure 8).
    pub fn full_issue(w: usize) -> MachineConfig {
        MachineConfig {
            issue_width: w,
            resources: Resources::full_issue(w),
            ..MachineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_base() {
        let c = MachineConfig::default();
        assert_eq!(c.issue_width, 4);
        assert_eq!(
            c.resources,
            Resources {
                alu: 4,
                branch: 4,
                load: 2,
                store: 1
            }
        );
        assert_eq!(c.load_latency, 2);
        assert_eq!(c.memory, MemoryModel::Perfect);
        assert_eq!(c.shadow_mode, ShadowMode::Single);
    }

    #[test]
    fn full_issue_duplicates_everything() {
        let c = MachineConfig::full_issue(8);
        assert_eq!(c.issue_width, 8);
        assert_eq!(
            c.resources,
            Resources {
                alu: 8,
                branch: 8,
                load: 8,
                store: 8
            }
        );
    }
}
