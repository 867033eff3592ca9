//! The machine event log: one record per architecturally visible action,
//! used to reproduce Table 1 and to debug schedules.

use psb_isa::{Cond, CondReg, Predicate, Reg};
use std::fmt;

/// A buffered-state location: a register's shadow entry or a store-buffer
/// entry (numbered in append order within the run).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StateLoc {
    /// A general register.
    Reg(Reg),
    /// The `n`-th store-buffer entry appended during the run (1-based, so
    /// the paper's `sb1` prints naturally).
    Sb(u64),
}

impl fmt::Display for StateLoc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StateLoc::Reg(r) => write!(f, "{r}"),
            StateLoc::Sb(n) => write!(f, "sb{n}"),
        }
    }
}

/// One machine event, stamped with the cycle it occurred in.
#[derive(Clone, PartialEq, Debug)]
pub enum Event {
    /// A result was written to the sequential state.
    SeqWrite {
        /// Cycle of the write.
        cycle: u64,
        /// Destination register.
        reg: Reg,
    },
    /// A result was written to the speculative state with its predicate.
    SpecWrite {
        /// Cycle of the write.
        cycle: u64,
        /// Destination location.
        loc: StateLoc,
        /// The predicate buffered with the result.
        pred: Predicate,
        /// Whether the E flag was set (an outstanding speculative
        /// exception).
        exc: bool,
    },
    /// A non-speculative store entered the store buffer.
    SeqStore {
        /// Cycle of the append.
        cycle: u64,
        /// The buffer entry.
        loc: StateLoc,
    },
    /// A buffered speculative result committed.
    Commit {
        /// Cycle of the commit.
        cycle: u64,
        /// The committed location.
        loc: StateLoc,
    },
    /// A buffered speculative result was squashed.
    Squash {
        /// Cycle of the squash.
        cycle: u64,
        /// The squashed location.
        loc: StateLoc,
    },
    /// A condition-set instruction specified a CCR entry.
    CondSet {
        /// Cycle of the update.
        cycle: u64,
        /// The CCR entry.
        c: CondReg,
        /// The new value.
        value: Cond,
    },
    /// Control transferred to a region.
    RegionEnter {
        /// Cycle of the transfer.
        cycle: u64,
        /// The region entry word address (the new RPC).
        addr: usize,
    },
    /// An outstanding speculative exception committed; the machine entered
    /// recovery mode.
    RecoveryStart {
        /// Cycle the exception was detected.
        cycle: u64,
        /// The exception commit point (resume address).
        epc: usize,
        /// The roll-back address (RPC).
        rpc: usize,
    },
    /// Recovery mode completed; the future condition was copied to the CCR.
    RecoveryEnd {
        /// Cycle recovery ended.
        cycle: u64,
    },
    /// A non-fatal fault was handled (page-touch model).
    FaultHandled {
        /// Cycle of the handling.
        cycle: u64,
        /// The touched address.
        addr: i64,
    },
    /// A speculative access faulted at issue and latched its E flag on the
    /// in-flight result (Section 3.4: the exception travels with the value
    /// until it reaches a shadow register or store-buffer entry).  A
    /// recovery can trigger on this latched exception before the result
    /// ever reaches buffered state, so [`InvariantSink`] accepts it as
    /// exception evidence alongside E-flagged [`Event::SpecWrite`]s.
    ///
    /// [`InvariantSink`]: crate::InvariantSink
    ExcLatched {
        /// Cycle the access faulted.
        cycle: u64,
        /// The faulting address.
        addr: i64,
    },
}

impl Event {
    /// The cycle this event is stamped with.
    pub fn cycle(&self) -> u64 {
        match *self {
            Event::SeqWrite { cycle, .. }
            | Event::SpecWrite { cycle, .. }
            | Event::SeqStore { cycle, .. }
            | Event::Commit { cycle, .. }
            | Event::Squash { cycle, .. }
            | Event::CondSet { cycle, .. }
            | Event::RegionEnter { cycle, .. }
            | Event::RecoveryStart { cycle, .. }
            | Event::RecoveryEnd { cycle, .. }
            | Event::FaultHandled { cycle, .. }
            | Event::ExcLatched { cycle, .. } => cycle,
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::SeqWrite { cycle, reg } => write!(f, "[{cycle}] seq write {reg}"),
            Event::SpecWrite {
                cycle,
                loc,
                pred,
                exc,
            } => {
                write!(
                    f,
                    "[{cycle}] spec write {loc} pred {pred}{}",
                    if *exc { " E" } else { "" }
                )
            }
            Event::SeqStore { cycle, loc } => write!(f, "[{cycle}] seq store {loc}"),
            Event::Commit { cycle, loc } => write!(f, "[{cycle}] commit {loc}"),
            Event::Squash { cycle, loc } => write!(f, "[{cycle}] squash {loc}"),
            Event::CondSet { cycle, c, value } => write!(f, "[{cycle}] {c} := {value}"),
            Event::RegionEnter { cycle, addr } => write!(f, "[{cycle}] enter region W{addr}"),
            Event::RecoveryStart { cycle, epc, rpc } => {
                write!(
                    f,
                    "[{cycle}] exception committed: roll back to W{rpc}, EPC=W{epc}"
                )
            }
            Event::RecoveryEnd { cycle } => write!(f, "[{cycle}] recovery complete"),
            Event::FaultHandled { cycle, addr } => write!(f, "[{cycle}] fault handled @{addr}"),
            Event::ExcLatched { cycle, addr } => {
                write!(f, "[{cycle}] speculative exception latched @{addr}")
            }
        }
    }
}

/// An event sink that records only when enabled, so disabled runs pay no
/// allocation cost (events are constructed lazily).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct EventLog {
    enabled: bool,
    events: Vec<Event>,
}

impl EventLog {
    /// Creates a log; `enabled = false` makes every push a no-op.
    pub fn new(enabled: bool) -> EventLog {
        EventLog {
            enabled,
            events: Vec::new(),
        }
    }

    /// Records the event produced by `f` if recording is enabled.
    #[inline]
    pub fn push(&mut self, f: impl FnOnce() -> Event) {
        if self.enabled {
            self.events.push(f());
        }
    }

    /// Whether recording is enabled.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records an already-constructed event unconditionally (the
    /// [`TraceSink`](crate::TraceSink) entry point; the enabled check
    /// happens in the trait's `push`).
    #[inline]
    pub(crate) fn push_event(&mut self, ev: Event) {
        self.events.push(ev);
    }

    /// Takes the recorded events out, leaving the log empty.
    pub(crate) fn drain_events(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_respects_enabled_flag() {
        let mut off = EventLog::new(false);
        off.push(|| Event::RecoveryEnd { cycle: 1 });
        assert!(off.events().is_empty());
        let mut on = EventLog::new(true);
        on.push(|| Event::RecoveryEnd { cycle: 1 });
        assert_eq!(on.events().len(), 1);
    }

    #[test]
    fn display_and_cycle() {
        let e = Event::Commit {
            cycle: 7,
            loc: StateLoc::Reg(Reg::new(2)),
        };
        assert_eq!(e.cycle(), 7);
        assert_eq!(e.to_string(), "[7] commit r2");
        let e = Event::SpecWrite {
            cycle: 2,
            loc: StateLoc::Sb(1),
            pred: Predicate::always().and_pos(CondReg::new(0)),
            exc: false,
        };
        assert_eq!(e.to_string(), "[2] spec write sb1 pred c0");
    }
}
