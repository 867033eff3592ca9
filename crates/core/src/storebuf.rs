//! The predicated store buffer (Section 3.2).
//!
//! A FIFO in which both speculative and non-speculative stores wait before
//! the D-cache write.  Each entry carries the data, its predicate, and the
//! W (speculative), V (valid) and E (outstanding exception) flags; per-entry
//! hardware evaluates the predicate every cycle.  Only a valid,
//! non-speculative head entry may be written to the D-cache.
//!
//! Like the register file, the buffer supports two commit-pass strategies
//! ([`CommitScan`]): the naive full scan of the paper's per-entry hardware,
//! and an indexed pass that evaluates only entries appended since the
//! previous pass (ids above its watermark) or whose predicate mentions a
//! changed condition.  It walks the FIFO head to tail, the naive event
//! order; the buffer holds at most its capacity, so a per-condition index
//! would cost more to keep than the walk it saves.

use crate::config::CommitScan;
use crate::event::{Event, StateLoc};
use crate::obs::TraceSink;
use psb_isa::{Ccr, Cond, Memory, Predicate};
use std::collections::VecDeque;

/// One store-buffer entry.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct SbEntry {
    /// Target address.
    pub addr: i64,
    /// The value to store.
    pub value: i64,
    /// Commit condition of the store.
    pub pred: Predicate,
    /// W flag: the data is speculative.
    pub spec: bool,
    /// V flag: the data is valid (not squashed).
    pub valid: bool,
    /// E flag: the store is an outstanding speculative exception (its
    /// address translation faulted).
    pub exc: bool,
    /// Append sequence number within the run (1-based; `sb1` in Table 1).
    pub id: u64,
}

/// The predicated store buffer.
#[derive(Clone, PartialEq, Debug)]
pub struct PredicatedStoreBuffer {
    entries: VecDeque<SbEntry>,
    capacity: usize,
    appended: u64,
    scan: CommitScan,
    /// CCR snapshot at the end of the previous commit pass (Indexed only).
    last_ccr: Option<Ccr>,
    /// The newest entry id the previous commit pass saw: entries with a
    /// larger id were appended since (Indexed only).
    seen: u64,
    /// Valid speculative entries with the E flag set.
    exc_count: usize,
}

impl PredicatedStoreBuffer {
    /// Creates a buffer with room for `capacity` entries, using the
    /// [`CommitScan::Naive`] reference strategy.
    pub fn new(capacity: usize) -> PredicatedStoreBuffer {
        PredicatedStoreBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            appended: 0,
            scan: CommitScan::Naive,
            last_ccr: None,
            seen: 0,
            exc_count: 0,
        }
    }

    /// Selects the commit-pass strategy.  Must be called before any append
    /// (the machine sets it at construction).
    #[must_use]
    pub fn with_commit_scan(mut self, scan: CommitScan) -> PredicatedStoreBuffer {
        assert!(self.entries.is_empty(), "cannot switch scan mid-flight");
        self.scan = scan;
        self
    }

    /// Current occupancy (squashed entries occupy space until they reach
    /// the head, as in hardware).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether appending `n` more entries would overflow.
    pub fn would_overflow(&self, n: usize) -> bool {
        self.entries.len() + n > self.capacity
    }

    /// Appends a store at the tail.
    ///
    /// `spec` is the W flag (predicate unspecified at issue); `exc` is the
    /// E flag (speculative address fault).
    ///
    /// # Panics
    ///
    /// Panics on overflow — the machine checks
    /// [`PredicatedStoreBuffer::would_overflow`] and stalls instead.
    #[allow(clippy::too_many_arguments)] // mirrors the hardware port list
    pub fn append(
        &mut self,
        addr: i64,
        value: i64,
        pred: Predicate,
        spec: bool,
        exc: bool,
        cycle: u64,
        sink: &mut impl TraceSink,
    ) {
        assert!(
            !self.would_overflow(1),
            "store buffer overflow (machine must stall)"
        );
        self.appended += 1;
        let id = self.appended;
        self.entries.push_back(SbEntry {
            addr,
            value,
            pred,
            spec,
            valid: true,
            exc,
            id,
        });
        if spec {
            self.exc_count += exc as usize;
            sink.push(|| Event::SpecWrite {
                cycle,
                loc: StateLoc::Sb(id),
                pred,
                exc,
            });
        } else {
            sink.push(|| Event::SeqStore {
                cycle,
                loc: StateLoc::Sb(id),
            });
        }
    }

    /// The per-cycle commit hardware: evaluates speculative entries'
    /// predicates, committing (clear W) on true and squashing (clear V) on
    /// false.  Returns `(commits, squashes)`.
    ///
    /// Under [`CommitScan::Naive`] every speculative entry is evaluated;
    /// under [`CommitScan::Indexed`] only entries woken by a condition
    /// change (or appended since the previous pass) are — with identical
    /// outcomes and event order.
    ///
    /// # Panics
    ///
    /// Panics if an entry with the E flag commits — detection must happen
    /// at CCR-update time via
    /// [`PredicatedStoreBuffer::has_exception_commit`].
    pub fn tick(&mut self, ccr: &Ccr, cycle: u64, sink: &mut impl TraceSink) -> (u64, u64) {
        match self.scan {
            CommitScan::Naive => {
                let mut commits = 0;
                let mut squashes = 0;
                for e in &mut self.entries {
                    let (c, s) = resolve_entry(e, ccr, cycle, sink, &mut self.exc_count);
                    commits += c;
                    squashes += s;
                }
                (commits, squashes)
            }
            CommitScan::Indexed => self.tick_indexed(ccr, cycle, sink),
        }
    }

    fn tick_indexed(&mut self, ccr: &Ccr, cycle: u64, sink: &mut impl TraceSink) -> (u64, u64) {
        // A predicate's value changes only with one of its conditions; the
        // first pass (or a CCR-width change) counts every condition changed.
        let changed = match self.last_ccr.replace(*ccr) {
            Some(prev) if prev.len() == ccr.len() => prev.changed_mask(ccr),
            _ => u8::MAX,
        };
        let seen = std::mem::replace(&mut self.seen, self.appended);
        if changed == 0 && seen == self.appended {
            return (0, 0);
        }

        let mut commits = 0;
        let mut squashes = 0;
        // Head to tail is the naive scan's event order.
        for e in &mut self.entries {
            if e.id > seen || e.pred.cond_mask() & changed != 0 {
                let (c, s) = resolve_entry(e, ccr, cycle, sink, &mut self.exc_count);
                commits += c;
                squashes += s;
            }
        }
        (commits, squashes)
    }

    /// Retires up to `budget` valid non-speculative head entries to the
    /// D-cache; squashed heads are discarded for free.  Returns the number
    /// of D-cache writes performed.
    ///
    /// # Panics
    ///
    /// Panics if a retiring store faults — non-speculative store addresses
    /// are checked at execute time, so a fault here is a simulator bug.
    pub fn retire(&mut self, memory: &mut Memory, budget: usize) -> usize {
        let mut written = 0;
        while let Some(head) = self.entries.front() {
            if !head.valid {
                self.entries.pop_front();
                continue;
            }
            if head.spec || written >= budget {
                break;
            }
            let head = self.entries.pop_front().expect("head exists");
            memory
                .write(head.addr, head.value)
                .expect("non-speculative store faulted at retire (checked at execute)");
            written += 1;
        }
        written
    }

    /// Whether [`retire`](Self::retire) would do nothing: the buffer is
    /// empty or its head is a valid speculative entry.
    pub(crate) fn head_blocks_retire(&self) -> bool {
        self.entries.front().is_none_or(|h| h.valid && h.spec)
    }

    /// Store-to-load forwarding: the newest valid entry matching `addr`
    /// whose predicate is not disjoint with the reading load's predicate.
    /// E-flagged entries are never forwarded (they carry a fault, not data).
    pub fn forward(&self, addr: i64, reader_pred: &Predicate) -> Option<i64> {
        self.entries
            .iter()
            .rev()
            .find(|e| e.valid && !e.exc && e.addr == addr && !e.pred.disjoint(reader_pred))
            .map(|e| e.value)
    }

    /// Whether any valid E-flagged entry would commit under `candidate`.
    pub fn has_exception_commit(&self, candidate: &Ccr) -> bool {
        if self.exc_count == 0 {
            return false;
        }
        self.entries
            .iter()
            .any(|e| e.valid && e.spec && e.exc && e.pred.eval(candidate) == Cond::True)
    }

    /// Squashes all valid speculative entries (recovery entry, region
    /// exit).  Returns the number of squashed entries.
    pub fn squash_spec(&mut self, cycle: u64, sink: &mut impl TraceSink) -> u64 {
        let mut squashes = 0;
        for e in &mut self.entries {
            if e.valid && e.spec {
                e.valid = false;
                squashes += 1;
                let id = e.id;
                sink.push(|| Event::Squash {
                    cycle,
                    loc: StateLoc::Sb(id),
                });
            }
        }
        self.exc_count = 0;
        squashes
    }

    /// Whether all remaining entries are invalid (nothing left to retire
    /// or resolve) — the halt-drain condition together with `is_empty`.
    pub fn drained(&self) -> bool {
        self.entries.iter().all(|e| !e.valid)
    }

    /// The entries, head first (for tests and debugging).
    pub fn entries(&self) -> impl Iterator<Item = &SbEntry> {
        self.entries.iter()
    }
}

/// Resolves one entry against `ccr`, exactly as the paper's per-entry
/// commit hardware.  Shared by both scan strategies so their behaviour
/// cannot drift.
fn resolve_entry(
    e: &mut SbEntry,
    ccr: &Ccr,
    cycle: u64,
    sink: &mut impl TraceSink,
    exc_count: &mut usize,
) -> (u64, u64) {
    if !e.valid || !e.spec {
        return (0, 0);
    }
    match e.pred.eval(ccr) {
        Cond::True => {
            assert!(
                !e.exc,
                "outstanding speculative exception in store buffer committed \
                 outside the detection path"
            );
            e.spec = false;
            e.pred = Predicate::always();
            let id = e.id;
            sink.push(|| Event::Commit {
                cycle,
                loc: StateLoc::Sb(id),
            });
            (1, 0)
        }
        Cond::False => {
            e.valid = false;
            *exc_count -= e.exc as usize;
            let id = e.id;
            sink.push(|| Event::Squash {
                cycle,
                loc: StateLoc::Sb(id),
            });
            (0, 1)
        }
        Cond::Unspecified => (0, 0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventLog;
    use psb_isa::{CondReg, MemImage};

    fn pred(c: usize) -> Predicate {
        Predicate::always().and_pos(CondReg::new(c))
    }

    fn log() -> EventLog {
        EventLog::new(true)
    }

    fn mem() -> Memory {
        Memory::from_image(&MemImage::zeroed(32))
    }

    #[test]
    fn nonspec_store_retires_fifo() {
        let mut sb = PredicatedStoreBuffer::new(4);
        let mut m = mem();
        sb.append(4, 11, Predicate::always(), false, false, 1, &mut log());
        sb.append(5, 22, Predicate::always(), false, false, 1, &mut log());
        assert_eq!(sb.retire(&mut m, 1), 1);
        assert_eq!(m.read(4).unwrap(), 11);
        assert_eq!(m.read(5).unwrap(), 0);
        assert_eq!(sb.retire(&mut m, 1), 1);
        assert_eq!(m.read(5).unwrap(), 22);
        assert!(sb.is_empty());
    }

    #[test]
    fn speculative_head_blocks_retirement() {
        let mut sb = PredicatedStoreBuffer::new(4);
        let mut m = mem();
        sb.append(4, 11, pred(0), true, false, 1, &mut log());
        sb.append(5, 22, Predicate::always(), false, false, 1, &mut log());
        assert_eq!(sb.retire(&mut m, 2), 0); // spec head blocks

        let mut ccr = Ccr::new(2);
        ccr.set(CondReg::new(0), true);
        assert_eq!(sb.tick(&ccr, 2, &mut log()), (1, 0));
        assert_eq!(sb.retire(&mut m, 2), 2); // committed, both retire in order
        assert_eq!(m.read(4).unwrap(), 11);
        assert_eq!(m.read(5).unwrap(), 22);
    }

    #[test]
    fn squashed_entries_never_reach_memory() {
        let mut sb = PredicatedStoreBuffer::new(4);
        let mut m = mem();
        sb.append(4, 11, pred(0), true, false, 1, &mut log());
        let mut ccr = Ccr::new(2);
        ccr.set(CondReg::new(0), false);
        assert_eq!(sb.tick(&ccr, 2, &mut log()), (0, 1));
        assert_eq!(sb.retire(&mut m, 4), 0);
        assert!(sb.is_empty()); // squashed head discarded for free
        assert_eq!(m.read(4).unwrap(), 0);
    }

    #[test]
    fn forwarding_prefers_newest_compatible() {
        let mut sb = PredicatedStoreBuffer::new(4);
        sb.append(4, 1, Predicate::always(), false, false, 1, &mut log());
        sb.append(4, 2, pred(0), true, false, 2, &mut log());
        // Reader on c0's path: newest wins.
        assert_eq!(sb.forward(4, &pred(0)), Some(2));
        // Reader on the !c0 path: the speculative store is disjoint.
        let not0 = Predicate::always().and_neg(CondReg::new(0));
        assert_eq!(sb.forward(4, &not0), Some(1));
        // Other address: nothing.
        assert_eq!(sb.forward(5, &Predicate::always()), None);
    }

    #[test]
    fn forwarding_skips_squashed() {
        let mut sb = PredicatedStoreBuffer::new(4);
        sb.append(4, 9, pred(0), true, false, 1, &mut log());
        let mut ccr = Ccr::new(2);
        ccr.set(CondReg::new(0), false);
        sb.tick(&ccr, 2, &mut log());
        assert_eq!(sb.forward(4, &Predicate::always()), None);
    }

    #[test]
    fn forwarding_refuses_exception_entries() {
        let mut sb = PredicatedStoreBuffer::new(4);
        sb.append(4, 9, pred(0), true, true, 1, &mut log());
        assert_eq!(sb.forward(4, &pred(0)), None);
    }

    #[test]
    fn forwarding_skips_exception_to_older_entry() {
        // An E-flagged store has no data; a newer E entry must not shadow
        // an older valid one — the reader falls through to it.
        let mut sb = PredicatedStoreBuffer::new(4);
        sb.append(4, 1, pred(0), true, false, 1, &mut log());
        sb.append(4, 9, pred(0), true, true, 2, &mut log());
        assert_eq!(sb.forward(4, &pred(0)), Some(1));
    }

    #[test]
    fn exception_commit_detection() {
        let mut sb = PredicatedStoreBuffer::new(4);
        sb.append(-3, 0, pred(1), true, true, 1, &mut log());
        let mut candidate = Ccr::new(2);
        assert!(!sb.has_exception_commit(&candidate));
        candidate.set(CondReg::new(1), true);
        assert!(sb.has_exception_commit(&candidate));
    }

    #[test]
    fn capacity_accounting() {
        let mut sb = PredicatedStoreBuffer::new(2);
        assert!(!sb.would_overflow(2));
        assert!(sb.would_overflow(3));
        sb.append(4, 1, Predicate::always(), false, false, 1, &mut log());
        assert!(sb.would_overflow(2));
    }

    #[test]
    fn squash_spec_only_touches_speculative() {
        let mut sb = PredicatedStoreBuffer::new(4);
        sb.append(4, 1, Predicate::always(), false, false, 1, &mut log());
        sb.append(5, 2, pred(0), true, false, 1, &mut log());
        assert_eq!(sb.squash_spec(3, &mut log()), 1);
        let flags: Vec<bool> = sb.entries().map(|e| e.valid).collect();
        assert_eq!(flags, vec![true, false]);
        assert!(!sb.drained());
        let mut m = mem();
        sb.retire(&mut m, 4);
        assert!(sb.is_empty() && sb.drained());
    }

    #[test]
    fn indexed_scan_matches_naive() {
        let stimulus = |sb: &mut PredicatedStoreBuffer, l: &mut EventLog| {
            sb.append(4, 1, pred(0), true, false, 1, l);
            sb.append(5, 2, pred(1), true, false, 1, l);
            sb.append(6, 3, Predicate::always(), false, false, 1, l);
            let mut ccr = Ccr::new(4);
            sb.tick(&ccr, 2, l); // nothing specified
            sb.tick(&ccr, 3, l); // idle: indexed does no work
            ccr.set(CondReg::new(0), true);
            sb.tick(&ccr, 4, l); // sb1 commits
            ccr.set(CondReg::new(1), false);
            sb.tick(&ccr, 5, l); // sb2 squashes
            let mut m = mem();
            sb.retire(&mut m, 4);
        };
        let mut naive = PredicatedStoreBuffer::new(8);
        let mut ln = log();
        stimulus(&mut naive, &mut ln);
        let mut indexed = PredicatedStoreBuffer::new(8).with_commit_scan(CommitScan::Indexed);
        let mut li = log();
        stimulus(&mut indexed, &mut li);
        assert_eq!(ln.events(), li.events());
        assert!(naive.is_empty() && indexed.is_empty());
    }

    #[test]
    fn indexed_survives_retirement_id_shift() {
        // Retire non-speculative heads between passes so the speculative
        // entry no longer sits at slot 0; the pass must still commit it.
        let mut sb = PredicatedStoreBuffer::new(8).with_commit_scan(CommitScan::Indexed);
        let mut m = mem();
        sb.append(4, 1, Predicate::always(), false, false, 1, &mut log());
        sb.append(5, 2, Predicate::always(), false, false, 1, &mut log());
        sb.append(6, 3, pred(2), true, false, 1, &mut log());
        assert_eq!(sb.retire(&mut m, 2), 2);
        let mut ccr = Ccr::new(4);
        sb.tick(&ccr, 2, &mut log());
        ccr.set(CondReg::new(2), true);
        assert_eq!(sb.tick(&ccr, 3, &mut log()), (1, 0));
        assert_eq!(sb.retire(&mut m, 1), 1);
        assert_eq!(m.read(6).unwrap(), 3);
    }

    #[test]
    fn indexed_cycles_a_small_buffer_like_naive() {
        // Five speculative appends cycle through a capacity-2 buffer.  sb3
        // lands on a pass whose CCR did not change, with a predicate that
        // is already false: only the append watermark brings it to the pass.
        let c = CondReg::new;
        let run = |scan| {
            let mut sb = PredicatedStoreBuffer::new(2).with_commit_scan(scan);
            let (mut l, mut m, mut ccr, mut ticks) = (log(), mem(), Ccr::new(4), Vec::new());
            sb.append(4, 1, pred(0), true, false, 1, &mut l);
            sb.append(5, 2, pred(1), true, false, 1, &mut l);
            ticks.push(sb.tick(&ccr, 1, &mut l));
            ccr.set(c(0), true);
            ticks.push(sb.tick(&ccr, 2, &mut l)); // sb1 commits
            sb.retire(&mut m, 1);
            sb.append(
                6,
                3,
                Predicate::always().and_neg(c(0)),
                true,
                false,
                3,
                &mut l,
            );
            ticks.push(sb.tick(&ccr, 3, &mut l)); // sb3 squashes
            ccr.set(c(1), true);
            ticks.push(sb.tick(&ccr, 4, &mut l)); // sb2 commits
            sb.retire(&mut m, 1); // and sb3 is discarded for free
            sb.append(7, 4, pred(2), true, false, 5, &mut l);
            sb.append(8, 5, pred(2).and_neg(c(3)), true, false, 5, &mut l);
            ticks.push(sb.tick(&ccr, 5, &mut l));
            ccr.set(c(2), true);
            ticks.push(sb.tick(&ccr, 6, &mut l)); // sb4 commits, sb5 waits on c3
            ccr.set(c(3), false);
            ticks.push(sb.tick(&ccr, 7, &mut l)); // sb5 commits
            sb.retire(&mut m, 2);
            assert!(sb.is_empty());
            let stored: Vec<i64> = (4..9).map(|a| m.read(a).unwrap()).collect();
            (ticks, stored, l)
        };
        let (ticks, stored, naive) = run(CommitScan::Naive);
        assert_eq!(
            ticks,
            [(0, 0), (1, 0), (0, 1), (1, 0), (0, 0), (1, 0), (1, 0)]
        );
        assert_eq!(stored, [1, 2, 0, 4, 5]);
        let (indexed_ticks, indexed_stored, indexed) = run(CommitScan::Indexed);
        assert_eq!((indexed_ticks, indexed_stored), (ticks, stored));
        assert_eq!(naive.events(), indexed.events());
    }
}
