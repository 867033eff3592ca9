//! Online invariant checking over the machine event stream.
//!
//! [`InvariantSink`] is a [`TraceSink`] that replays the buffering
//! discipline of Sections 3.2–3.5 *while the machine runs*.  It mirrors
//! the CCR from [`Event::CondSet`] / [`Event::RegionEnter`] records and
//! keeps a model of every outstanding buffered entry, which lets it catch
//! violations the end-state differential cannot see:
//!
//! * **V/W discipline** — every commit or squash must resolve an entry
//!   that was actually buffered, a commit must resolve an entry whose
//!   predicate is true, and (single-shadow mode) no second speculative
//!   write with a different predicate may land on a buffered register.
//! * **Region closure** — nothing buffered may survive a region entry or
//!   the end of the run (Section 3.3).
//! * **No lost latched exception** — an E-flagged entry whose predicate
//!   becomes true at a condition-set must have triggered recovery; the
//!   machine setting the condition instead means the exception was lost.
//!   An E-flagged entry must never commit.
//! * **Recovery discipline** — recovery must start with a buffered or
//!   latched exception as evidence, no condition may be specified and no
//!   region entered while it runs, and every window must end (reaching
//!   the EPC) before the run completes.
//! * **No stale shadows past a recovery exit** — when the future
//!   condition is installed at the EPC, every entry rebuffered during
//!   recovery whose predicate the future specifies must resolve *in that
//!   same cycle*, before the EPC word re-executes.  An entry still
//!   buffered when the EPC word's condition-sets arrive is exactly the
//!   stale shadow that clobbers the word's sequential writes one cycle
//!   later (the seed-suite bug pinned by `recovery_scenarios.rs`).
//!
//! It is the one event-stream checker: the `psb-fuzz` differential
//! driver runs it alongside the golden-model comparison on every
//! generated program, and the workload and recovery-scenario tests attach
//! it to real runs.

use crate::event::{Event, StateLoc};
use crate::obs::{CycleSample, TraceSink};
use psb_isa::{Ccr, Cond, Predicate};
use std::collections::BTreeMap;
use std::fmt;

/// One invariant violation, stamped with the cycle it was detected in.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct InvariantViolation {
    /// Cycle of the offending event (0 for end-of-run checks).
    pub cycle: u64,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {}", self.cycle, self.message)
    }
}

/// One tracked buffered entry (a shadow register or speculative
/// store-buffer occupancy).
#[derive(Clone, Copy, Debug)]
struct Tracked {
    pred: Predicate,
    exc: bool,
    /// Buffered between `RecoveryStart` and `RecoveryEnd`: subject to the
    /// stale-shadow check when the post-recovery condition-sets arrive.
    born_in_recovery: bool,
}

/// Sort- and hash-friendly key for a [`StateLoc`].
fn key(loc: StateLoc) -> (u8, u64) {
    match loc {
        StateLoc::Reg(r) => (0, r.index() as u64),
        StateLoc::Sb(n) => (1, n),
    }
}

/// An online invariant checker over the machine event stream.
///
/// Attach with [`VliwMachine::with_sink`](crate::VliwMachine::with_sink),
/// call [`InvariantSink::finalize`] after the run, and inspect
/// [`InvariantSink::violations`].
#[derive(Clone, Debug)]
pub struct InvariantSink {
    ccr: Ccr,
    single_shadow: bool,
    outstanding: BTreeMap<(u8, u64), Vec<Tracked>>,
    /// `ExcLatched` events not yet matched by an E-flagged `SpecWrite`
    /// since the last region entry or recovery start: at least the
    /// number of latched results still in flight (a discarded one is
    /// never matched), so recovery evidence that has landed and been
    /// squashed no longer counts.
    exc_latched: usize,
    in_recovery: bool,
    /// Between `RecoveryEnd` and the first subsequent `CondSet` the mirror
    /// CCR is stale (the machine installed the future condition, whose
    /// values only become visible when the EPC word re-emits them), so
    /// commit-predicate validation is suspended.
    awaiting_future_conds: bool,
    violations: Vec<InvariantViolation>,
    finalized: bool,
}

impl InvariantSink {
    /// Creates a checker for a machine with `num_conds` CCR entries;
    /// `single_shadow` enables the one-shadow-per-register write conflict
    /// check ([`ShadowMode::Single`](crate::ShadowMode)).
    pub fn new(num_conds: usize, single_shadow: bool) -> InvariantSink {
        InvariantSink {
            ccr: Ccr::new(num_conds),
            single_shadow,
            outstanding: BTreeMap::new(),
            exc_latched: 0,
            in_recovery: false,
            awaiting_future_conds: false,
            violations: Vec::new(),
            finalized: false,
        }
    }

    /// The violations detected so far.
    pub fn violations(&self) -> &[InvariantViolation] {
        &self.violations
    }

    /// Runs the end-of-run checks (unfinished recovery, unresolved
    /// buffered state) and returns all violations.  Idempotent.
    pub fn finalize(&mut self) -> &[InvariantViolation] {
        if !self.finalized {
            self.finalized = true;
            if self.in_recovery {
                self.flag(0, "recovery window never reached the EPC".into());
            }
            let leftover: usize = self.outstanding.values().map(Vec::len).sum();
            if leftover > 0 {
                self.flag(
                    0,
                    format!("{leftover} buffered entries unresolved at end of run"),
                );
            }
        }
        &self.violations
    }

    fn flag(&mut self, cycle: u64, message: String) {
        self.violations.push(InvariantViolation { cycle, message });
    }

    fn on_spec_write(&mut self, cycle: u64, loc: StateLoc, pred: Predicate, exc: bool) {
        if exc {
            // A latched result landed; the map tracks it from here.
            self.exc_latched = self.exc_latched.saturating_sub(1);
        }
        let born_in_recovery = self.in_recovery;
        let single_shadow = self.single_shadow;
        let entries = self.outstanding.entry(key(loc)).or_default();
        if let Some(slot) = entries.iter_mut().find(|t| t.pred == pred) {
            // Same-predicate rewrite (WAW on one path) replaces in place.
            *slot = Tracked {
                pred,
                exc,
                born_in_recovery,
            };
            return;
        }
        let conflict = single_shadow && matches!(loc, StateLoc::Reg(_)) && !entries.is_empty();
        entries.push(Tracked {
            pred,
            exc,
            born_in_recovery,
        });
        if conflict {
            self.flag(
                cycle,
                format!(
                    "second speculative write to {loc} with a different predicate \
                     while one is buffered (single-shadow V discipline)"
                ),
            );
        }
    }

    fn on_commit(&mut self, cycle: u64, loc: StateLoc) {
        let k = key(loc);
        let stale = self.awaiting_future_conds;
        let ccr = self.ccr;
        let mut message = None;
        let mut now_empty = false;
        if let Some(entries) = self.outstanding.get_mut(&k) {
            // Resolve the entry the commit hardware picked: predicate true
            // under the mirror CCR.  While the mirror is stale after a
            // recovery exit, accept the oldest entry instead.
            let idx = if stale {
                Some(0)
            } else {
                entries.iter().position(|t| t.pred.eval(&ccr) == Cond::True)
            };
            match idx {
                Some(i) => {
                    let t = entries.remove(i);
                    if t.exc {
                        message = Some(format!(
                            "latched exception on {loc} committed without recovery"
                        ));
                    }
                }
                None => {
                    entries.remove(0);
                    message = Some(format!(
                        "commit of {loc} whose buffered predicate is not true"
                    ));
                }
            }
            now_empty = entries.is_empty();
        } else {
            message = Some(format!("commit of {loc} with nothing buffered"));
        }
        if now_empty {
            self.outstanding.remove(&k);
        }
        if let Some(m) = message {
            self.flag(cycle, m);
        }
    }

    fn on_squash(&mut self, cycle: u64, loc: StateLoc) {
        let k = key(loc);
        let ccr = self.ccr;
        let mut missing = false;
        let mut now_empty = false;
        if let Some(entries) = self.outstanding.get_mut(&k) {
            // The pass squashes false predicates; region exits, recovery
            // entry and the final drain squash unspecified ones wholesale.
            // Remove a false-evaluating entry if one exists, else the
            // oldest.
            let i = entries
                .iter()
                .position(|t| t.pred.eval(&ccr) == Cond::False)
                .unwrap_or(0);
            entries.remove(i);
            now_empty = entries.is_empty();
        } else {
            missing = true;
        }
        if now_empty {
            self.outstanding.remove(&k);
        }
        if missing {
            self.flag(cycle, format!("squash of {loc} with nothing buffered"));
        }
    }

    fn on_cond_set(&mut self, cycle: u64, c: psb_isa::CondReg, value: Cond) {
        if self.in_recovery {
            self.flag(
                cycle,
                format!("condition c{} specified during recovery", c.index()),
            );
        }
        if let Cond::True | Cond::False = value {
            self.ccr.set(c, value == Cond::True);
        }
        if self.awaiting_future_conds {
            // The EPC word re-emitted the triggering condition: the mirror
            // CCR now equals the installed future.  Every entry rebuffered
            // during recovery that the future specifies had to resolve at
            // the exit pass, *before* this word issued.
            self.awaiting_future_conds = false;
            let mut stale = Vec::new();
            for (&k, entries) in &mut self.outstanding {
                for t in entries.iter_mut() {
                    if t.born_in_recovery {
                        if t.pred.eval(&self.ccr).is_specified() {
                            stale.push(k);
                        }
                        t.born_in_recovery = false;
                    }
                }
            }
            for (tag, n) in stale {
                let desc = if tag == 0 { "r" } else { "sb" };
                self.flag(
                    cycle,
                    format!(
                        "stale shadow {desc}{n} survived the recovery exit: its predicate \
                         is specified under the installed future condition, so it must \
                         have resolved before the EPC word issued"
                    ),
                );
            }
        }
        // An E-flagged entry whose predicate just became true is a lost
        // exception: the machine must have entered recovery instead of
        // updating the CCR.
        let lost: Vec<String> = self
            .outstanding
            .values()
            .flatten()
            .filter(|t| t.exc && t.pred.eval(&self.ccr) == Cond::True)
            .map(|t| format!("{}", t.pred))
            .collect();
        for pred in lost {
            self.flag(
                cycle,
                format!(
                    "latched exception under predicate {pred} commits at this \
                     condition-set but no recovery started"
                ),
            );
        }
    }

    fn on_event(&mut self, ev: Event) {
        match ev {
            Event::SeqWrite { .. } | Event::SeqStore { .. } | Event::FaultHandled { .. } => {}
            Event::SpecWrite {
                cycle,
                loc,
                pred,
                exc,
            } => self.on_spec_write(cycle, loc, pred, exc),
            Event::Commit { cycle, loc } => self.on_commit(cycle, loc),
            Event::Squash { cycle, loc } => self.on_squash(cycle, loc),
            Event::CondSet { cycle, c, value } => self.on_cond_set(cycle, c, value),
            Event::RegionEnter { cycle, .. } => {
                if self.in_recovery {
                    self.flag(cycle, "region entered inside an unfinished recovery".into());
                    self.in_recovery = false;
                }
                self.ccr.reset();
                self.exc_latched = 0;
                let leftover: usize = self.outstanding.values().map(Vec::len).sum();
                if leftover > 0 {
                    self.flag(
                        cycle,
                        format!("{leftover} buffered entries leaked across a region boundary"),
                    );
                    self.outstanding.clear();
                }
            }
            Event::ExcLatched { .. } => self.exc_latched += 1,
            Event::RecoveryStart { cycle, .. } => {
                if self.in_recovery {
                    self.flag(cycle, "recovery started inside a recovery window".into());
                }
                let evidence =
                    self.exc_latched > 0 || self.outstanding.values().flatten().any(|t| t.exc);
                if !evidence {
                    self.flag(
                        cycle,
                        "recovery started without a buffered or latched exception".into(),
                    );
                }
                self.in_recovery = true;
                self.exc_latched = 0;
            }
            Event::RecoveryEnd { cycle } => {
                if !self.in_recovery {
                    self.flag(cycle, "recovery ended without a matching start".into());
                }
                self.in_recovery = false;
                self.awaiting_future_conds = true;
            }
        }
    }
}

impl TraceSink for InvariantSink {
    fn event_enabled(&self) -> bool {
        true
    }

    fn sample_enabled(&self) -> bool {
        false
    }

    fn record(&mut self, ev: Event) {
        self.on_event(ev);
    }

    fn sample(&mut self, _s: &CycleSample) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_isa::{CondReg, Reg};

    fn reg(i: usize) -> StateLoc {
        StateLoc::Reg(Reg::new(i))
    }

    /// A speculative write to `loc` under `c<c>`.
    fn spec(cycle: u64, loc: StateLoc, c: usize, exc: bool) -> Event {
        let pred = Predicate::always().and_pos(CondReg::new(c));
        Event::SpecWrite {
            cycle,
            loc,
            pred,
            exc,
        }
    }

    fn commit(cycle: u64, loc: StateLoc) -> Event {
        Event::Commit { cycle, loc }
    }

    fn squash(cycle: u64, loc: StateLoc) -> Event {
        Event::Squash { cycle, loc }
    }

    fn set_c0(cycle: u64) -> Event {
        let (c, value) = (CondReg::new(0), Cond::True);
        Event::CondSet { cycle, c, value }
    }

    fn recovery_start(cycle: u64) -> Event {
        let (epc, rpc) = (2, 0);
        Event::RecoveryStart { cycle, epc, rpc }
    }

    fn latched(cycle: u64) -> Event {
        Event::ExcLatched { cycle, addr: 4 }
    }

    /// A single-shadow sink that has recorded `events`.
    fn fed(events: impl IntoIterator<Item = Event>) -> InvariantSink {
        let mut s = InvariantSink::new(4, true);
        for ev in events {
            s.record(ev);
        }
        s
    }

    fn flagged(v: &[InvariantViolation], text: &str) -> bool {
        v.iter().any(|v| v.message.contains(text))
    }

    #[test]
    fn clean_commit_sequence_passes() {
        let mut s = fed([spec(1, reg(1), 0, false), set_c0(2), commit(3, reg(1))]);
        assert!(s.finalize().is_empty(), "{:?}", s.violations());
    }

    #[test]
    fn commit_without_write_is_flagged() {
        for ev in [commit(3, reg(1)), squash(3, StateLoc::Sb(1))] {
            assert!(fed([ev]).violations()[0]
                .message
                .contains("nothing buffered"));
        }
    }

    #[test]
    fn leak_across_a_region_boundary_is_flagged() {
        let region = Event::RegionEnter { cycle: 2, addr: 4 };
        let mut s = fed([spec(1, reg(1), 0, false), region]);
        assert_eq!(s.violations()[0].cycle, 2);
        assert!(flagged(s.violations(), "leaked across a region"));
        // The leak is reported once, not again at the end of the run.
        assert_eq!(s.finalize().len(), 1);
    }

    #[test]
    fn leak_at_end_of_run_is_flagged_at_finalize() {
        let mut s = fed([spec(1, StateLoc::Sb(1), 0, false)]);
        assert!(s.violations().is_empty());
        assert!(flagged(s.finalize(), "1 buffered entries unresolved"));
    }

    #[test]
    fn conflicting_single_shadow_write_is_flagged() {
        let s = fed([spec(1, reg(1), 0, false), spec(1, reg(1), 1, false)]);
        assert!(s.violations()[0]
            .message
            .contains("second speculative write"));
    }

    #[test]
    fn lost_latched_exception_is_flagged() {
        // The machine sets c0 true without entering recovery: lost.
        let s = fed([spec(1, reg(1), 0, true), set_c0(2)]);
        assert!(flagged(s.violations(), "no recovery started"));
    }

    #[test]
    fn stale_shadow_after_recovery_exit_is_flagged() {
        let s = fed([
            spec(1, reg(1), 0, true),
            recovery_start(2),
            squash(2, reg(1)),
            // Rebuffered during recovery under the recovery condition.
            spec(3, reg(1), 0, false),
            Event::RecoveryEnd { cycle: 4 },
            // No exit-pass commit for r1 before the EPC word re-emits c0.
            set_c0(4),
        ]);
        assert!(
            flagged(s.violations(), "stale shadow"),
            "{:?}",
            s.violations()
        );
    }

    #[test]
    fn resolved_recovery_exit_passes() {
        let mut s = fed([
            spec(1, reg(1), 0, true),
            recovery_start(2),
            squash(2, reg(1)),
            spec(3, reg(1), 0, false),
            Event::RecoveryEnd { cycle: 4 },
            // The exit pass resolves the rebuffered entry in the same cycle.
            commit(4, reg(1)),
            set_c0(4),
        ]);
        assert!(s.finalize().is_empty(), "{:?}", s.violations());
    }

    #[test]
    fn unfinished_recovery_is_flagged_at_finalize() {
        let mut s = fed([latched(1), recovery_start(2)]);
        assert!(flagged(s.finalize(), "never reached the EPC"));
    }

    #[test]
    fn region_entry_inside_recovery_is_flagged() {
        let region = Event::RegionEnter { cycle: 3, addr: 4 };
        let mut s = fed([latched(1), recovery_start(2), region]);
        let v = s.finalize();
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].cycle, 3);
        assert!(flagged(v, "inside an unfinished recovery"));
    }

    #[test]
    fn recovery_without_evidence_is_flagged() {
        // A latched exception that landed and was squashed is no
        // evidence either.
        let landed = [latched(1), spec(2, reg(1), 0, true), squash(3, reg(1))];
        for events in [vec![], landed.to_vec()] {
            let s = fed(events.into_iter().chain([recovery_start(4)]));
            assert!(s.violations()[0].message.contains("without a buffered"));
        }
    }
}
