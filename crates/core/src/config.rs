//! Machine configuration.

use crate::machine::VliwError;
use crate::mem::MemoryModel;
use psb_isa::{FuClass, Resources, VliwProgram};
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
    /// Penalty cycles for a taken region-exit jump.  The paper assumes
    /// BTB-predictable branches impose no penalty, so the default is 0.
    pub taken_jump_penalty: u64,
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
            taken_jump_penalty: 0,
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

    /// Issue-width and function-unit admission: whether every word of
    /// `prog` fits this machine.  Every constructor runs it; nothing
    /// else reads `issue_width` or `resources`.
    ///
    /// # Errors
    ///
    /// [`VliwError::Malformed`] naming the first word that does not fit.
    pub fn admit(&self, prog: &VliwProgram) -> Result<(), VliwError> {
        for (addr, word) in prog.words.iter().enumerate() {
            if word.slots.len() > self.issue_width {
                return Err(VliwError::Malformed(format!(
                    "word {addr} has {} slots, issue width is {}",
                    word.slots.len(),
                    self.issue_width
                )));
            }
            let count = |c: FuClass| word.slots.iter().filter(|s| s.op.fu_class() == c).count();
            let r = self.resources;
            if count(FuClass::Alu) > r.alu
                || count(FuClass::Branch) > r.branch
                || count(FuClass::Load) > r.load
                || count(FuClass::Store) > r.store
            {
                return Err(VliwError::Malformed(format!(
                    "word {addr} exceeds function-unit resources"
                )));
            }
        }
        Ok(())
    }

    /// Whether a completed run of a program under `self`, which took
    /// `stall_sb_full` full-buffer stall cycles, is also that program's
    /// run under `other`, provided `other` admits the program
    /// ([`admit`](Self::admit)).
    ///
    /// `issue_width` and `resources` are read only by admission, and
    /// `store_buffer_size` only by the full-buffer stall check, so the
    /// run carries over when every other field is equal and `other`'s
    /// buffer is as large or, if no append ever found the buffer full,
    /// larger: each of those checks then answers alike, cycle by cycle.
    pub fn run_carries_over(&self, stall_sb_full: u64, other: &MachineConfig) -> bool {
        // Named field by field, so a new field must be placed here.
        let MachineConfig {
            issue_width: _,
            resources: _,
            store_buffer_size,
            load_latency,
            memory,
            shadow_mode,
            taken_jump_penalty,
            fault_once_addrs,
            fault_penalty,
            max_cycles,
            record_events,
            engine,
            defer_recovery_exit_commit,
        } = self;
        let buffer = other.store_buffer_size == *store_buffer_size
            || (stall_sb_full == 0 && other.store_buffer_size > *store_buffer_size);
        buffer
            && other.load_latency == *load_latency
            && other.memory == *memory
            && other.shadow_mode == *shadow_mode
            && other.taken_jump_penalty == *taken_jump_penalty
            && other.fault_penalty == *fault_penalty
            && other.max_cycles == *max_cycles
            && other.record_events == *record_events
            && other.engine == *engine
            && other.defer_recovery_exit_commit == *defer_recovery_exit_commit
            && other.fault_once_addrs == *fault_once_addrs
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

    #[test]
    fn a_run_carries_over_across_admission_and_an_unfilled_deeper_buffer_only() {
        let base = MachineConfig::default();
        let wider = MachineConfig::full_issue(8);
        assert!(base.run_carries_over(0, &wider) && wider.run_carries_over(0, &base));
        assert!(base.run_carries_over(3, &base));
        let deeper = MachineConfig {
            store_buffer_size: 32,
            ..base.clone()
        };
        assert!(base.run_carries_over(0, &deeper));
        assert!(
            !base.run_carries_over(1, &deeper),
            "the run filled its buffer"
        );
        assert!(!deeper.run_carries_over(0, &base), "a shallower buffer");
        // Every other field is read by the run.
        let others = [
            MachineConfig {
                load_latency: 3,
                ..base.clone()
            },
            MachineConfig {
                memory: MemoryModel::parse("fixed:12:4").unwrap(),
                ..base.clone()
            },
            MachineConfig {
                shadow_mode: ShadowMode::Infinite,
                ..base.clone()
            },
            MachineConfig {
                taken_jump_penalty: 1,
                ..base.clone()
            },
            MachineConfig {
                fault_once_addrs: [5].into(),
                ..base.clone()
            },
            MachineConfig {
                fault_penalty: 9,
                ..base.clone()
            },
            MachineConfig {
                max_cycles: 10,
                ..base.clone()
            },
            MachineConfig {
                record_events: true,
                ..base.clone()
            },
            MachineConfig {
                engine: Engine::Legacy,
                ..base.clone()
            },
            MachineConfig {
                defer_recovery_exit_commit: true,
                ..base.clone()
            },
        ];
        for other in &others {
            assert!(!base.run_carries_over(0, other), "{other:?}");
        }
    }
}
