//! The predicated register file (Figure 2 of the paper).
//!
//! Every entry has two data storages (sequential + shadow), a stored
//! predicate, and the W/V/E flags.  We model the W/V flags implicitly: the
//! `spec` slots hold valid speculative data (V set), the `seq` field is the
//! committed storage, and a commit copies shadow → sequential (the
//! hardware's W flip) and clears V.
//!
//! # Commit-pass strategies
//!
//! The paper's hardware re-evaluates every buffered predicate every cycle
//! ([`CommitScan::Naive`], the legacy engine's pass).  The tabled
//! engine's pass ([`CommitScan::Indexed`]) keeps a *wakeup list* per CCR
//! slot — a [`RegSet`] of the registers holding a buffered entry whose
//! predicate mentions that condition — and re-evaluates only registers
//! subscribed to a condition that changed since the previous pass, plus
//! registers written since then.  A buffered predicate's evaluation can only change when one
//! of its conditions changes, so the two strategies resolve the same
//! entries on the same cycles and emit byte-identical event logs.  The
//! file has at most 64 registers, so every list is one machine word and
//! waking, subscribing and unsubscribing are single mask operations.

use crate::config::{CommitScan, ShadowMode};
use crate::event::{Event, StateLoc};
use crate::obs::TraceSink;
use psb_isa::{Ccr, Cond, Predicate, Reg, RegSet, MAX_CONDS, NUM_REGS};

/// One buffered speculative value (a shadow-register occupancy).
#[derive(Clone, Copy, PartialEq, Debug)]
struct SpecSlot {
    value: i64,
    pred: Predicate,
    /// The E flag: this result is an outstanding speculative exception.
    exc: bool,
}

#[derive(Clone, PartialEq, Debug, Default)]
struct RegEntry {
    seq: i64,
    /// Valid speculative slots, oldest first.  Length ≤ 1 in
    /// [`ShadowMode::Single`].
    spec: Vec<SpecSlot>,
}

/// The write-conflict error of the single-shadow design: a second
/// speculative write with a *different* predicate while one is buffered.
///
/// The schedulers serialise such writes (Section 3.2 notes the conflict is
/// rare), so hitting this at run time indicates a scheduling bug.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ShadowConflict {
    /// The conflicted register.
    pub reg: Reg,
}

/// The predicated register file.
#[derive(Clone, PartialEq, Debug)]
pub struct PredicatedRegFile {
    entries: Vec<RegEntry>,
    mode: ShadowMode,
    scan: CommitScan,
    /// CCR snapshot at the end of the previous commit pass (Indexed only).
    last_ccr: Option<Ccr>,
    /// Per-condition wakeup lists: registers with a buffered entry whose
    /// predicate mentions that condition (Indexed only).
    subs: [RegSet; MAX_CONDS],
    /// Registers whose buffered entries must be evaluated at the next pass:
    /// written since the last pass, or woken by a condition change.
    pending: RegSet,
    /// Buffered slots with the E flag set (fast path for
    /// [`PredicatedRegFile::has_exception_commit`]).
    exc_count: usize,
    /// Total buffered slots across all registers (fast path for
    /// [`PredicatedRegFile::has_buffered`] — the tabled engine's cycle
    /// driver skips the commit pass when nothing is buffered).
    buffered: usize,
}

impl PredicatedRegFile {
    /// Creates a file of `num_regs` registers, all zero, using the
    /// [`CommitScan::Naive`] reference strategy.
    ///
    /// # Panics
    ///
    /// Panics if `num_regs` exceeds [`NUM_REGS`] (64): the wakeup lists
    /// are one-word [`RegSet`]s.
    pub fn new(num_regs: usize, mode: ShadowMode) -> PredicatedRegFile {
        assert!(
            num_regs <= NUM_REGS,
            "a predicated register file holds at most {NUM_REGS} registers, not {num_regs}"
        );
        PredicatedRegFile {
            entries: vec![RegEntry::default(); num_regs],
            mode,
            scan: CommitScan::Naive,
            last_ccr: None,
            subs: [RegSet::EMPTY; MAX_CONDS],
            pending: RegSet::EMPTY,
            exc_count: 0,
            buffered: 0,
        }
    }

    /// Selects the commit-pass strategy.  Must be called before any
    /// speculative write (the machine sets it at construction).
    #[must_use]
    pub fn with_commit_scan(mut self, scan: CommitScan) -> PredicatedRegFile {
        assert_eq!(self.spec_count(), 0, "cannot switch scan mid-flight");
        self.scan = scan;
        self
    }

    /// Writes an initial (sequential) value.
    pub fn init(&mut self, r: Reg, value: i64) {
        if !r.is_zero() {
            self.entries[r.index()].seq = value;
        }
    }

    /// Reads the sequential state.
    #[inline]
    pub fn read_seq(&self, r: Reg) -> i64 {
        if r.is_zero() {
            0
        } else {
            self.entries[r.index()].seq
        }
    }

    /// Reads the speculative state, as selected by an instruction source
    /// with the shadow bit set.
    ///
    /// When no compatible valid shadow entry exists the sequential storage
    /// is returned instead — the one-gate operand-fetch fallback of
    /// Section 3.5 (the wanted value was committed or squashed earlier).
    /// `reader_pred` disambiguates between multiple buffered values in
    /// [`ShadowMode::Infinite`]; the newest non-disjoint entry wins.
    ///
    /// E-flagged slots are skipped: a buffered speculative exception has no
    /// data to bypass, only a fault to deliver (Section 3.5), so dependents
    /// fall back exactly as the store buffer's forwarding path refuses
    /// E-flagged entries.  If the exception's predicate commits, recovery
    /// re-executes those dependents anyway.
    pub fn read_shadow(&self, r: Reg, reader_pred: &Predicate) -> i64 {
        if r.is_zero() {
            return 0;
        }
        let e = &self.entries[r.index()];
        e.spec
            .iter()
            .rev()
            .find(|s| !s.exc && !s.pred.disjoint(reader_pred))
            .map_or(e.seq, |s| s.value)
    }

    /// Writes the sequential state (a non-speculative result).
    pub fn write_seq(&mut self, r: Reg, value: i64) {
        if !r.is_zero() {
            self.entries[r.index()].seq = value;
        }
    }

    /// Buffers a speculative result with its predicate; `exc` sets the E
    /// flag (the result is an outstanding speculative exception).
    ///
    /// # Errors
    ///
    /// In [`ShadowMode::Single`], returns [`ShadowConflict`] if a
    /// speculative value with a different predicate is already buffered.
    pub fn write_spec(
        &mut self,
        r: Reg,
        value: i64,
        pred: Predicate,
        exc: bool,
    ) -> Result<(), ShadowConflict> {
        if r.is_zero() {
            return Ok(());
        }
        let e = &mut self.entries[r.index()];
        match self.mode {
            ShadowMode::Single => {
                if let Some(slot) = e.spec.first_mut() {
                    if slot.pred != pred {
                        return Err(ShadowConflict { reg: r });
                    }
                    self.exc_count -= slot.exc as usize;
                    *slot = SpecSlot { value, pred, exc };
                } else {
                    e.spec.push(SpecSlot { value, pred, exc });
                    self.buffered += 1;
                }
            }
            ShadowMode::Infinite => {
                // A same-predicate rewrite replaces (WAW on one path);
                // otherwise buffer an additional value.
                if let Some(slot) = e.spec.iter_mut().rev().find(|s| s.pred == pred) {
                    self.exc_count -= slot.exc as usize;
                    *slot = SpecSlot { value, pred, exc };
                } else {
                    e.spec.push(SpecSlot { value, pred, exc });
                    self.buffered += 1;
                }
            }
        }
        self.exc_count += exc as usize;
        if self.scan == CommitScan::Indexed {
            subscribe(&mut self.subs, r, pred);
            self.pending.insert(r);
        }
        Ok(())
    }

    /// The per-cycle commit hardware: evaluates buffered predicates
    /// against the CCR, committing on true and squashing on false.
    /// Returns `(commits, squashes)`.
    ///
    /// Under [`CommitScan::Naive`] every buffered predicate is evaluated;
    /// under [`CommitScan::Indexed`] only registers woken by a condition
    /// change (or written since the previous pass) are — with identical
    /// outcomes and event order.
    ///
    /// # Panics
    ///
    /// Panics if an entry with the E flag commits — the machine must detect
    /// exception commits at CCR-update time (`has_exception_commit`) and
    /// enter recovery before this pass runs; reaching one here is a
    /// simulator bug.
    pub fn tick(&mut self, ccr: &Ccr, cycle: u64, sink: &mut impl TraceSink) -> (u64, u64) {
        debug_assert_eq!(self.buffered, self.spec_count(), "buffered counter drift");
        let (commits, squashes) = match self.scan {
            CommitScan::Naive => {
                let mut commits = 0;
                let mut squashes = 0;
                for i in 0..self.entries.len() {
                    let (c, s) = resolve_entry(
                        &mut self.entries[i],
                        i,
                        ccr,
                        cycle,
                        sink,
                        &mut self.exc_count,
                    );
                    commits += c;
                    squashes += s;
                }
                (commits, squashes)
            }
            CommitScan::Indexed => self.tick_indexed(ccr, cycle, sink),
        };
        // Every resolved slot left the buffer (kept ones stayed).
        self.buffered -= (commits + squashes) as usize;
        (commits, squashes)
    }

    fn tick_indexed(&mut self, ccr: &Ccr, cycle: u64, sink: &mut impl TraceSink) -> (u64, u64) {
        // Wake the subscribers of every condition whose value changed since
        // the previous pass — one XOR over the CCR's bitmasks instead of a
        // per-condition compare.  On the first pass (or a CCR-width change,
        // which never happens within one run) every condition counts as
        // changed, which wakes every register holding a conditional slot.
        let mut changed = match self.last_ccr.replace(*ccr) {
            Some(prev) if prev.len() == ccr.len() => prev.changed_mask(ccr),
            _ => u8::MAX,
        };
        while changed != 0 {
            let c = changed.trailing_zeros() as usize;
            changed &= changed - 1;
            self.pending = self.pending.union(self.subs[c]);
        }

        let mut commits = 0;
        let mut squashes = 0;
        // Ascending register order reproduces the naive scan's event order.
        let pending = std::mem::take(&mut self.pending);
        for r in pending.iter() {
            let i = r.index();
            let (c, s) = resolve_entry(
                &mut self.entries[i],
                i,
                ccr,
                cycle,
                sink,
                &mut self.exc_count,
            );
            commits += c;
            squashes += s;
            if c > 0 || s > 0 {
                // Slots were resolved: rebuild this register's subscriptions
                // from what remains buffered.
                for set in &mut self.subs {
                    set.remove(r);
                }
                for slot in &self.entries[i].spec {
                    subscribe(&mut self.subs, r, slot.pred);
                }
            }
        }
        (commits, squashes)
    }

    /// Whether any buffered entry with the E flag would commit under
    /// `candidate` — the exception-detection signal checked when the CCR is
    /// about to be updated (Section 3.5).
    pub fn has_exception_commit(&self, candidate: &Ccr) -> bool {
        if self.exc_count == 0 {
            return false;
        }
        self.entries.iter().any(|e| {
            e.spec
                .iter()
                .any(|s| s.exc && s.pred.eval(candidate) == Cond::True)
        })
    }

    /// Discards all speculative state (entering recovery, or region exit).
    /// Returns the number of squashed entries.
    pub fn squash_spec(&mut self, cycle: u64, sink: &mut impl TraceSink) -> u64 {
        let mut squashes = 0;
        for (i, e) in self.entries.iter_mut().enumerate() {
            if !e.spec.is_empty() {
                e.spec.clear();
                squashes += 1;
                sink.push(|| Event::Squash {
                    cycle,
                    loc: StateLoc::Reg(Reg::new(i)),
                });
            }
        }
        self.exc_count = 0;
        self.buffered = 0;
        self.subs = [RegSet::EMPTY; MAX_CONDS];
        self.pending = RegSet::EMPTY;
        squashes
    }

    /// Whether any speculative value is buffered anywhere in the file —
    /// O(1), so a cycle driver can skip the commit pass (and a region
    /// exit its squash pass) when the answer is no.  Both passes are
    /// observation-free on an empty file: no commits, no squashes, no
    /// events.
    #[inline]
    pub fn has_buffered(&self) -> bool {
        self.buffered > 0
    }

    /// The newest buffered speculative value of `r`, if any, as
    /// `(value, predicate, e_flag)` — for tests and debugging.
    pub fn shadow_entry(&self, r: Reg) -> Option<(i64, Predicate, bool)> {
        self.entries[r.index()]
            .spec
            .last()
            .map(|s| (s.value, s.pred, s.exc))
    }

    /// Number of buffered speculative values across all registers.
    pub fn spec_count(&self) -> usize {
        self.entries.iter().map(|e| e.spec.len()).sum()
    }

    /// The final sequential register values.
    pub fn seq_values(&self) -> Vec<i64> {
        self.entries.iter().map(|e| e.seq).collect()
    }
}

/// Adds `r` to the wakeup list of every condition `pred` mentions.
#[inline]
fn subscribe(subs: &mut [RegSet; MAX_CONDS], r: Reg, pred: Predicate) {
    let mut conds = pred.cond_mask();
    while conds != 0 {
        let c = conds.trailing_zeros() as usize;
        conds &= conds - 1;
        subs[c].insert(r);
    }
}

/// Resolves one register's buffered slots against `ccr`, exactly as the
/// paper's per-entry commit hardware: oldest slot first, commit on true
/// (copy shadow → sequential), squash on false, keep on unspecified.
/// Shared by both scan strategies so their behaviour cannot drift.
fn resolve_entry(
    e: &mut RegEntry,
    i: usize,
    ccr: &Ccr,
    cycle: u64,
    sink: &mut impl TraceSink,
    exc_count: &mut usize,
) -> (u64, u64) {
    if e.spec.is_empty() {
        return (0, 0);
    }
    let mut commits = 0;
    let mut squashes = 0;
    let RegEntry { seq, spec } = e;
    // `retain` visits the slots once each, oldest first, and keeps the
    // survivors in order: the resolution happens in place.
    spec.retain(|slot| match slot.pred.eval(ccr) {
        Cond::True => {
            assert!(
                !slot.exc,
                "outstanding speculative exception on r{i} committed outside \
                 the detection path"
            );
            *seq = slot.value;
            commits += 1;
            sink.push(|| Event::Commit {
                cycle,
                loc: StateLoc::Reg(Reg::new(i)),
            });
            false
        }
        Cond::False => {
            *exc_count -= slot.exc as usize;
            squashes += 1;
            sink.push(|| Event::Squash {
                cycle,
                loc: StateLoc::Reg(Reg::new(i)),
            });
            false
        }
        Cond::Unspecified => true,
    });
    (commits, squashes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventLog;
    use psb_isa::CondReg;

    fn pred(c: usize) -> Predicate {
        Predicate::always().and_pos(CondReg::new(c))
    }

    fn log() -> EventLog {
        EventLog::new(true)
    }

    #[test]
    fn commit_flips_into_sequential() {
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Single);
        rf.write_seq(Reg::new(1), 10);
        rf.write_spec(Reg::new(1), 99, pred(0), false).unwrap();
        assert_eq!(rf.read_seq(Reg::new(1)), 10);
        assert_eq!(rf.read_shadow(Reg::new(1), &pred(0)), 99);

        let mut ccr = Ccr::new(2);
        ccr.set(CondReg::new(0), true);
        let mut l = log();
        assert_eq!(rf.tick(&ccr, 5, &mut l), (1, 0));
        assert_eq!(rf.read_seq(Reg::new(1)), 99);
        assert_eq!(rf.spec_count(), 0);
        assert!(matches!(l.events()[0], Event::Commit { cycle: 5, .. }));
    }

    #[test]
    fn squash_keeps_sequential() {
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Single);
        rf.write_seq(Reg::new(1), 10);
        rf.write_spec(Reg::new(1), 99, pred(0), false).unwrap();
        let mut ccr = Ccr::new(2);
        ccr.set(CondReg::new(0), false);
        assert_eq!(rf.tick(&ccr, 1, &mut log()), (0, 1));
        assert_eq!(rf.read_seq(Reg::new(1)), 10);
        assert_eq!(rf.spec_count(), 0);
    }

    #[test]
    fn unspecified_predicate_holds_value() {
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Single);
        rf.write_spec(Reg::new(1), 99, pred(0), false).unwrap();
        rf.tick(&Ccr::new(2), 1, &mut log());
        assert_eq!(rf.shadow_entry(Reg::new(1)), Some((99, pred(0), false)));
    }

    #[test]
    fn shadow_read_falls_back_to_sequential() {
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Single);
        rf.write_seq(Reg::new(2), 7);
        // No shadow entry: operand fetch falls back (Section 3.5).
        assert_eq!(rf.read_shadow(Reg::new(2), &Predicate::always()), 7);
    }

    #[test]
    fn shadow_read_skips_exception_entries() {
        // An E-flagged slot carries no usable data: the read must fall back
        // to the sequential storage, mirroring the store buffer's refusal
        // to forward E-flagged entries.
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Single);
        rf.write_seq(Reg::new(1), 7);
        rf.write_spec(Reg::new(1), 0, pred(0), true).unwrap();
        assert_eq!(rf.read_shadow(Reg::new(1), &pred(0)), 7);
    }

    #[test]
    fn infinite_mode_read_skips_exception_to_older_entry() {
        // A newer E-flagged slot must not hide an older valid slot on the
        // same path: the read skips it and returns the newest *non-E*
        // compatible value, falling back to sequential only when every
        // compatible slot carries the E flag.
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Infinite);
        rf.write_seq(Reg::new(1), 7);
        rf.write_spec(Reg::new(1), 5, pred(0), false).unwrap();
        rf.write_spec(Reg::new(1), 0, pred(0).and_pos(CondReg::new(1)), true)
            .unwrap();
        let p01 = pred(0).and_pos(CondReg::new(1));
        assert_eq!(rf.read_shadow(Reg::new(1), &p01), 5);
        // A path where only the E entry is compatible: sequential fallback.
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Infinite);
        rf.write_seq(Reg::new(1), 7);
        rf.write_spec(Reg::new(1), 5, pred(0), false).unwrap();
        rf.write_spec(Reg::new(1), 0, pred(1), true).unwrap();
        let not0 = Predicate::always()
            .and_neg(CondReg::new(0))
            .and_pos(CondReg::new(1));
        assert_eq!(rf.read_shadow(Reg::new(1), &not0), 7);
    }

    #[test]
    fn single_mode_conflict_detected() {
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Single);
        rf.write_spec(Reg::new(1), 1, pred(0), false).unwrap();
        // Same predicate: overwrite is fine (WAW on one path).
        rf.write_spec(Reg::new(1), 2, pred(0), false).unwrap();
        assert_eq!(rf.shadow_entry(Reg::new(1)).unwrap().0, 2);
        // Different predicate: conflict.
        let err = rf.write_spec(Reg::new(1), 3, pred(1), false).unwrap_err();
        assert_eq!(err.reg, Reg::new(1));
    }

    #[test]
    fn infinite_mode_buffers_multiple() {
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Infinite);
        rf.write_spec(Reg::new(1), 1, pred(0), false).unwrap();
        rf.write_spec(Reg::new(1), 2, pred(1), false).unwrap();
        assert_eq!(rf.spec_count(), 2);
        // Reader on c1's path sees the newest compatible value.
        assert_eq!(rf.read_shadow(Reg::new(1), &pred(1)), 2);
        // A reader whose predicate is disjoint with c1 (requires !c1) sees
        // the older value.
        let not1 = Predicate::always()
            .and_neg(CondReg::new(1))
            .and_pos(CondReg::new(0));
        assert_eq!(rf.read_shadow(Reg::new(1), &not1), 1);
    }

    #[test]
    fn infinite_mode_commit_order_is_append_order() {
        // Two commits in one cycle apply oldest-first so the newest wins.
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Infinite);
        let p01 = pred(0);
        let p01b = pred(0).and_pos(CondReg::new(1));
        rf.write_spec(Reg::new(1), 10, p01, false).unwrap();
        rf.write_spec(Reg::new(1), 20, p01b, false).unwrap();
        let mut ccr = Ccr::new(2);
        ccr.set(CondReg::new(0), true);
        ccr.set(CondReg::new(1), true);
        rf.tick(&ccr, 1, &mut log());
        assert_eq!(rf.read_seq(Reg::new(1)), 20);
    }

    #[test]
    fn exception_detection_under_candidate() {
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Single);
        rf.write_spec(Reg::new(3), 0, pred(1), true).unwrap();
        let mut candidate = Ccr::new(2);
        assert!(!rf.has_exception_commit(&candidate));
        candidate.set(CondReg::new(1), true);
        assert!(rf.has_exception_commit(&candidate));
        candidate.set(CondReg::new(1), false);
        assert!(!rf.has_exception_commit(&candidate));
    }

    #[test]
    #[should_panic(expected = "outside the detection path")]
    fn committing_exception_in_tick_panics() {
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Single);
        rf.write_spec(Reg::new(3), 0, pred(1), true).unwrap();
        let mut ccr = Ccr::new(2);
        ccr.set(CondReg::new(1), true);
        rf.tick(&ccr, 1, &mut log());
    }

    #[test]
    fn squash_spec_clears_everything() {
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Infinite);
        rf.write_spec(Reg::new(1), 1, pred(0), false).unwrap();
        rf.write_spec(Reg::new(2), 2, pred(1), true).unwrap();
        let mut l = log();
        assert_eq!(rf.squash_spec(9, &mut l), 2);
        assert_eq!(rf.spec_count(), 0);
        assert_eq!(l.events().len(), 2);
        // The exception count was reset with the state.
        let mut ccr = Ccr::new(2);
        ccr.set(CondReg::new(1), true);
        assert!(!rf.has_exception_commit(&ccr));
    }

    #[test]
    fn zero_register_is_inert() {
        let mut rf = PredicatedRegFile::new(8, ShadowMode::Single);
        rf.write_seq(Reg::ZERO, 5);
        rf.write_spec(Reg::ZERO, 5, pred(0), false).unwrap();
        assert_eq!(rf.read_seq(Reg::ZERO), 0);
        assert_eq!(rf.read_shadow(Reg::ZERO, &Predicate::always()), 0);
        assert_eq!(rf.spec_count(), 0);
    }

    #[test]
    fn indexed_scan_skips_idle_cycles_but_matches_naive() {
        // Same stimulus against both strategies; the logs must be identical.
        let stimulus = |rf: &mut PredicatedRegFile, l: &mut EventLog| {
            rf.write_spec(Reg::new(1), 11, pred(0), false).unwrap();
            rf.write_spec(Reg::new(2), 22, pred(1), false).unwrap();
            let mut ccr = Ccr::new(4);
            rf.tick(&ccr, 1, l); // nothing specified: both held
            rf.tick(&ccr, 2, l); // idle cycle: indexed does no work
            ccr.set(CondReg::new(0), true);
            rf.tick(&ccr, 3, l); // r1 commits
            ccr.set(CondReg::new(1), false);
            rf.tick(&ccr, 4, l); // r2 squashes
        };
        let mut naive = PredicatedRegFile::new(8, ShadowMode::Single);
        let mut ln = log();
        stimulus(&mut naive, &mut ln);
        let mut indexed =
            PredicatedRegFile::new(8, ShadowMode::Single).with_commit_scan(CommitScan::Indexed);
        let mut li = log();
        stimulus(&mut indexed, &mut li);
        assert_eq!(ln.events(), li.events());
        assert_eq!(naive.seq_values(), indexed.seq_values());
    }

    #[test]
    fn indexed_rewake_on_second_condition() {
        // A two-condition predicate wakes once per condition change and
        // resolves only when the last one specifies.
        let p = pred(0).and_pos(CondReg::new(1));
        let mut rf =
            PredicatedRegFile::new(8, ShadowMode::Single).with_commit_scan(CommitScan::Indexed);
        rf.write_spec(Reg::new(3), 5, p, false).unwrap();
        let mut ccr = Ccr::new(4);
        let mut l = log();
        assert_eq!(rf.tick(&ccr, 1, &mut l), (0, 0));
        ccr.set(CondReg::new(0), true);
        assert_eq!(rf.tick(&ccr, 2, &mut l), (0, 0)); // c1 still unspecified
        ccr.set(CondReg::new(1), true);
        assert_eq!(rf.tick(&ccr, 3, &mut l), (1, 0));
        assert_eq!(rf.read_seq(Reg::new(3)), 5);
    }

    #[test]
    fn top_register_wakes_and_commits_under_both_scans() {
        // r63 is the last bit of every wakeup list: it must subscribe, wake
        // and commit as the naive scan resolves it, after r1 in one pass.
        let run = |scan| {
            let mut rf =
                PredicatedRegFile::new(NUM_REGS, ShadowMode::Single).with_commit_scan(scan);
            let mut l = log();
            rf.write_spec(Reg::new(63), 63, pred(2), false).unwrap();
            rf.write_spec(Reg::new(1), 1, pred(2), false).unwrap();
            let mut ccr = Ccr::new(4);
            assert_eq!(rf.tick(&ccr, 1, &mut l), (0, 0));
            ccr.set(CondReg::new(1), true); // not r63's condition
            assert_eq!(rf.tick(&ccr, 2, &mut l), (0, 0));
            ccr.set(CondReg::new(2), true);
            assert_eq!(rf.tick(&ccr, 3, &mut l), (2, 0));
            assert_eq!(rf.read_seq(Reg::new(63)), 63);
            assert_eq!(rf.spec_count(), 0);
            l
        };
        let naive = run(CommitScan::Naive);
        assert_eq!(naive.events(), run(CommitScan::Indexed).events());
        let locs: Vec<_> = naive
            .events()
            .iter()
            .map(|e| match e {
                Event::Commit { cycle: 3, loc } => *loc,
                other => panic!("unexpected event {other:?}"),
            })
            .collect();
        assert_eq!(
            locs,
            [StateLoc::Reg(Reg::new(1)), StateLoc::Reg(Reg::new(63))]
        );
    }

    #[test]
    #[should_panic(expected = "at most 64 registers")]
    fn more_registers_than_a_wakeup_list_holds_is_rejected() {
        let _ = PredicatedRegFile::new(65, ShadowMode::Single);
    }
}
