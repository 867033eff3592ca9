//! Observability: trace sinks, hardware-style performance counters, and
//! hot-spot attribution.
//!
//! The machine emits two streams while it runs:
//!
//! * **events** — the architecturally visible actions already defined by
//!   [`Event`] (speculative writes, commits, squashes, recoveries, …);
//! * **cycle samples** — one [`CycleSample`] per simulated cycle carrying
//!   the PC, the active region, the buffered-state occupancies, and
//!   whether (and why) the cycle stalled.
//!
//! Both streams flow into a [`TraceSink`].  The machine is generic over
//! the sink type, so the disabled path ([`NullSink`]) monomorphizes to
//! nothing: `event_enabled`/`sample_enabled` are constant `false`, the
//! event-construction closures are never called, and the occupancy reads
//! that feed samples are skipped entirely.  [`EventLog`] is the
//! record-everything sink (unchanged behaviour); [`CountersSink`] models a
//! bank of hardware performance counters and builds an [`ObsReport`]
//! without ever storing the event stream.

use crate::event::{Event, EventLog, StateLoc};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::fmt;

/// The power-of-two-bucketed histogram the counters sink keeps: one type
/// for the machine's counters and the host metrics registry.
pub use psb_telemetry::Histogram;

/// Why a cycle failed to issue.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StallKind {
    /// An operand of a live slot is still in flight (load latency).
    Operand,
    /// The store buffer has no room for this word's stores.
    SbFull,
    /// The front end is busy: fault handler, rollback refill, or a taken
    /// jump penalty.
    Busy,
    /// Instruction fetch has not delivered the word at PC yet (I$ miss
    /// or a multi-cycle fixed fetch latency).  Never occurs under
    /// perfect memory.
    IFetch,
    /// An operand stall whose blocking in-flight load missed the D$ —
    /// the memory system's share of what would otherwise be
    /// [`StallKind::Operand`].  Never occurs under a perfect D$.
    LoadMiss,
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallKind::Operand => write!(f, "operand"),
            StallKind::SbFull => write!(f, "sb-full"),
            StallKind::Busy => write!(f, "busy"),
            StallKind::IFetch => write!(f, "ifetch"),
            StallKind::LoadMiss => write!(f, "load-miss"),
        }
    }
}

/// One per-cycle observation, taken at the end of the cycle after all of
/// its architectural effects have landed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CycleSample {
    /// The cycle number.
    pub cycle: u64,
    /// The word the machine issued this cycle — or was waiting to issue,
    /// if the cycle stalled.
    pub pc: usize,
    /// The active region's entry word (the RPC).
    pub region: usize,
    /// Buffered speculative values across all shadow registers.
    pub shadow_occupancy: usize,
    /// Store-buffer entries occupied (squashed entries included — they
    /// hold their slot until they reach the head, as in hardware).
    pub sb_occupancy: usize,
    /// CCR entries still unspecified.
    pub unspec_conds: usize,
    /// Why the cycle stalled, if it did.
    pub stall: Option<StallKind>,
}

/// A consumer of the machine's observability streams.
///
/// The machine is generic over its sink, so every method call
/// monomorphizes; a sink that reports `false` from the two `*_enabled`
/// methods costs nothing (the compiler folds the guards away).
pub trait TraceSink {
    /// Whether events should be constructed and recorded.
    fn event_enabled(&self) -> bool {
        true
    }

    /// Whether per-cycle samples should be taken.  When this is `false`
    /// the machine also skips the occupancy reads that would feed them.
    fn sample_enabled(&self) -> bool {
        true
    }

    /// Consumes one event.  Only called when [`TraceSink::event_enabled`]
    /// is true (via [`TraceSink::push`]).
    fn record(&mut self, ev: Event);

    /// Consumes one end-of-cycle sample.  Only called when
    /// [`TraceSink::sample_enabled`] is true.
    fn sample(&mut self, s: &CycleSample);

    /// Records the event produced by `f` if event recording is enabled —
    /// the lazy-construction entry point every emitter uses.
    #[inline]
    fn push(&mut self, f: impl FnOnce() -> Event)
    where
        Self: Sized,
    {
        if self.event_enabled() {
            self.record(f());
        }
    }

    /// The recorded events, if this sink stores them (the [`EventLog`]
    /// does; counters and the null sink return nothing).
    fn take_events(&mut self) -> Vec<Event> {
        Vec::new()
    }
}

/// The zero-cost disabled sink: both streams off, every call a no-op.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    #[inline]
    fn event_enabled(&self) -> bool {
        false
    }

    #[inline]
    fn sample_enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, _ev: Event) {}

    #[inline]
    fn sample(&mut self, _s: &CycleSample) {}
}

impl TraceSink for EventLog {
    #[inline]
    fn event_enabled(&self) -> bool {
        self.is_enabled()
    }

    /// The event log keeps no per-cycle state; samples are skipped so the
    /// default `record_events = false` run stays as fast as before.
    #[inline]
    fn sample_enabled(&self) -> bool {
        false
    }

    #[inline]
    fn record(&mut self, ev: Event) {
        self.push_event(ev);
    }

    #[inline]
    fn sample(&mut self, _s: &CycleSample) {}

    fn take_events(&mut self) -> Vec<Event> {
        self.drain_events()
    }
}

/// Per-cycle occupancy statistics for one buffered resource: running mean
/// plus the high-water mark.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct OccupancyStats {
    samples: u64,
    sum: u64,
    high_water: usize,
}

impl OccupancyStats {
    /// Records one per-cycle occupancy observation.
    pub fn record(&mut self, occupancy: usize) {
        self.samples += 1;
        self.sum += occupancy as u64;
        self.high_water = self.high_water.max(occupancy);
    }

    /// Number of samples taken (the sampled cycles).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// The highest occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Mean occupancy across all samples (0.0 when no samples).
    pub fn mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.sum as f64 / self.samples as f64
        }
    }
}

/// Hot-spot profile of one static word: where issue cycles were lost.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct WordProfile {
    /// Stall cycles waiting on an in-flight operand at this word.
    pub stall_operand: u64,
    /// Stall cycles waiting for store-buffer space at this word.
    pub stall_sb_full: u64,
    /// Stall cycles with the front end busy while this word was next.
    pub stall_busy: u64,
    /// Stall cycles waiting for instruction fetch at this word.
    pub stall_ifetch: u64,
    /// Operand-stall cycles at this word blocked on a D$-missing load.
    pub stall_load_miss: u64,
    /// Recoveries whose exception commit point (EPC) was this word.
    pub recoveries: u64,
}

impl WordProfile {
    /// Total stall cycles attributed to this word.
    pub fn stall_total(&self) -> u64 {
        self.stall_operand
            + self.stall_sb_full
            + self.stall_busy
            + self.stall_ifetch
            + self.stall_load_miss
    }
}

/// Hot-spot profile of one region (keyed by its entry word, the RPC).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RegionProfile {
    /// Times control entered this region.
    pub entries: u64,
    /// Buffered speculative entries committed while this region was
    /// active.
    pub commits: u64,
    /// Buffered speculative entries squashed while this region was
    /// active (region-exit and recovery-entry squashes included).
    pub squashes: u64,
    /// Recoveries that rolled back to this region.
    pub recoveries: u64,
    /// Stall cycles spent while this region was active.
    pub stall_cycles: u64,
}

/// The counters sink's final output: everything a `repro profile` report
/// needs, with no per-event storage behind it.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct ObsReport {
    /// Cycles sampled (the run length as the sink saw it).
    pub cycles: u64,
    /// Occupancy of the shadow (speculative) register entries.
    pub shadow_occupancy: OccupancyStats,
    /// Occupancy of the store buffer.
    pub sb_occupancy: OccupancyStats,
    /// Unspecified CCR conditions per cycle.
    pub unspec_conds: OccupancyStats,
    /// Speculation lifetime: cycles from a `SpecWrite` to the `Commit` or
    /// `Squash` that resolved it.
    pub lifetime: Histogram,
    /// Recovery duration: cycles from `RecoveryStart` to `RecoveryEnd`.
    pub recovery: Histogram,
    /// Lengths of maximal runs of consecutive stall cycles.
    pub stall_runs: Histogram,
    /// Per-static-word stall and recovery attribution, keyed by word
    /// address.
    pub words: BTreeMap<usize, WordProfile>,
    /// Per-region speculation attribution, keyed by region entry word.
    pub regions: BTreeMap<usize, RegionProfile>,
    /// Total commits observed.
    pub commits: u64,
    /// Total squashes observed.
    pub squashes: u64,
    /// Total recoveries observed.
    pub recoveries: u64,
    /// Non-fatal faults handled.
    pub faults_handled: u64,
    /// Speculative exceptions latched at issue.
    pub exc_latched: u64,
}

impl ObsReport {
    /// The `n` words losing the most issue cycles to stalls, hottest
    /// first; ties break toward the lower address.
    pub fn hottest_words(&self, n: usize) -> Vec<(usize, WordProfile)> {
        let mut v: Vec<(usize, WordProfile)> = self
            .words
            .iter()
            .map(|(&w, &p)| (w, p))
            .filter(|(_, p)| p.stall_total() > 0 || p.recoveries > 0)
            .collect();
        v.sort_by(|a, b| {
            b.1.stall_total()
                .cmp(&a.1.stall_total())
                .then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }
}

/// A sink that models a bank of hardware performance counters.
///
/// Events update lifetime/recovery histograms and per-region attribution;
/// cycle samples update the occupancy statistics, the stall-run histogram
/// and per-word stall attribution.  Nothing is stored per event, so the
/// memory footprint is bounded by the static program size regardless of
/// how long the run is.
///
/// **Lifetime accounting rule.**  The event stream identifies buffered
/// state only by location (a register or a store-buffer id), not by slot,
/// so the sink keeps a FIFO of `SpecWrite` birth cycles per location: a
/// `Commit` resolves the oldest pending birth, a `Squash` resolves *all*
/// pending births at its location (bulk squashes — region exit, recovery
/// entry, halt — emit a single event per location however many values
/// were buffered).  The event-log oracle test reconstructs histograms
/// from the recorded log under the same rule.
#[derive(Clone, PartialEq, Debug)]
pub struct CountersSink {
    report: ObsReport,
    /// `SpecWrite` cycles not yet resolved, FIFO per location.
    births: BTreeMap<BirthKey, VecDeque<u64>>,
    /// An open recovery's start cycle.
    recovery_start: Option<u64>,
    /// Length of the current run of consecutive stall cycles.
    stall_run: u64,
    /// The region currently charged for speculation events.
    cur_region: usize,
}

/// Map key for a [`StateLoc`] (registers before store-buffer entries).
type BirthKey = (u8, u64);

fn birth_key(loc: StateLoc) -> BirthKey {
    match loc {
        StateLoc::Reg(r) => (0, r.index() as u64),
        StateLoc::Sb(id) => (1, id),
    }
}

impl Default for CountersSink {
    fn default() -> CountersSink {
        CountersSink::new()
    }
}

impl CountersSink {
    /// A fresh counter bank.  The initial region is word 0 (the machine
    /// starts there without an explicit `RegionEnter`).
    pub fn new() -> CountersSink {
        let mut report = ObsReport::default();
        report.regions.entry(0).or_default().entries = 1;
        CountersSink {
            report,
            births: BTreeMap::new(),
            recovery_start: None,
            stall_run: 0,
            cur_region: 0,
        }
    }

    /// Finalizes and returns the report (flushes an open stall run).
    pub fn into_report(mut self) -> ObsReport {
        if self.stall_run > 0 {
            self.report.stall_runs.record(self.stall_run);
        }
        self.report
    }

    fn region(&mut self) -> &mut RegionProfile {
        self.report.regions.entry(self.cur_region).or_default()
    }
}

impl TraceSink for CountersSink {
    fn record(&mut self, ev: Event) {
        match ev {
            Event::SpecWrite { cycle, loc, .. } => {
                self.births
                    .entry(birth_key(loc))
                    .or_default()
                    .push_back(cycle);
            }
            Event::Commit { cycle, loc } => {
                if let Some(birth) = self
                    .births
                    .get_mut(&birth_key(loc))
                    .and_then(VecDeque::pop_front)
                {
                    self.report.lifetime.record(cycle - birth);
                }
                self.report.commits += 1;
                self.region().commits += 1;
            }
            Event::Squash { cycle, loc } => {
                if let Some(q) = self.births.get_mut(&birth_key(loc)) {
                    for birth in q.drain(..) {
                        self.report.lifetime.record(cycle - birth);
                    }
                }
                self.report.squashes += 1;
                self.region().squashes += 1;
            }
            Event::RegionEnter { addr, .. } => {
                self.cur_region = addr;
                self.region().entries += 1;
            }
            Event::RecoveryStart { cycle, epc, .. } => {
                self.recovery_start = Some(cycle);
                self.report.recoveries += 1;
                self.region().recoveries += 1;
                self.report.words.entry(epc).or_default().recoveries += 1;
            }
            Event::RecoveryEnd { cycle } => {
                if let Some(start) = self.recovery_start.take() {
                    self.report.recovery.record(cycle - start);
                }
            }
            Event::FaultHandled { .. } => self.report.faults_handled += 1,
            Event::ExcLatched { .. } => self.report.exc_latched += 1,
            Event::SeqWrite { .. } | Event::SeqStore { .. } | Event::CondSet { .. } => {}
        }
    }

    fn sample(&mut self, s: &CycleSample) {
        self.report.cycles = self.report.cycles.max(s.cycle);
        self.report.shadow_occupancy.record(s.shadow_occupancy);
        self.report.sb_occupancy.record(s.sb_occupancy);
        self.report.unspec_conds.record(s.unspec_conds);
        match s.stall {
            Some(kind) => {
                self.stall_run += 1;
                let w = self.report.words.entry(s.pc).or_default();
                match kind {
                    StallKind::Operand => w.stall_operand += 1,
                    StallKind::SbFull => w.stall_sb_full += 1,
                    StallKind::Busy => w.stall_busy += 1,
                    StallKind::IFetch => w.stall_ifetch += 1,
                    StallKind::LoadMiss => w.stall_load_miss += 1,
                }
                self.report
                    .regions
                    .entry(s.region)
                    .or_default()
                    .stall_cycles += 1;
            }
            None => {
                if self.stall_run > 0 {
                    self.report.stall_runs.record(self.stall_run);
                    self.stall_run = 0;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_isa::{CondReg, Predicate, Reg};

    #[test]
    fn occupancy_tracks_mean_and_high_water() {
        let mut o = OccupancyStats::default();
        assert_eq!(o.mean(), 0.0);
        for v in [0, 2, 4] {
            o.record(v);
        }
        assert_eq!(o.samples(), 3);
        assert_eq!(o.high_water(), 4);
        assert!((o.mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn null_sink_reports_disabled() {
        let s = NullSink;
        assert!(!s.event_enabled());
        assert!(!s.sample_enabled());
    }

    #[test]
    fn counters_lifetime_fifo_and_bulk_squash() {
        let mut c = CountersSink::new();
        let loc = StateLoc::Reg(Reg::new(3));
        let pred = Predicate::always().and_pos(CondReg::new(0));
        // Two births; a commit resolves the oldest, a squash drains the rest.
        c.push(|| Event::SpecWrite {
            cycle: 10,
            loc,
            pred,
            exc: false,
        });
        c.push(|| Event::SpecWrite {
            cycle: 12,
            loc,
            pred,
            exc: false,
        });
        c.push(|| Event::Commit { cycle: 15, loc });
        c.push(|| Event::Squash { cycle: 20, loc });
        let r = c.into_report();
        assert_eq!(r.lifetime.count(), 2);
        assert_eq!(r.lifetime.sum(), 5 + 8);
        assert_eq!(r.commits, 1);
        assert_eq!(r.squashes, 1);
    }

    #[test]
    fn counters_recovery_duration_and_attribution() {
        let mut c = CountersSink::new();
        c.push(|| Event::RegionEnter { cycle: 1, addr: 4 });
        c.push(|| Event::RecoveryStart {
            cycle: 8,
            epc: 6,
            rpc: 4,
        });
        c.push(|| Event::RecoveryEnd { cycle: 13 });
        let r = c.into_report();
        assert_eq!(r.recovery.count(), 1);
        assert_eq!(r.recovery.sum(), 5);
        assert_eq!(r.regions[&4].recoveries, 1);
        assert_eq!(r.words[&6].recoveries, 1);
    }

    #[test]
    fn counters_stall_runs_split_on_issue() {
        let mut c = CountersSink::new();
        let mk = |cycle, stall| CycleSample {
            cycle,
            pc: 2,
            region: 0,
            shadow_occupancy: 1,
            sb_occupancy: 0,
            unspec_conds: 2,
            stall,
        };
        c.sample(&mk(1, Some(StallKind::Operand)));
        c.sample(&mk(2, Some(StallKind::Operand)));
        c.sample(&mk(3, None));
        c.sample(&mk(4, Some(StallKind::Busy)));
        let r = c.into_report();
        // Runs: [1,2] closed at cycle 3, and the open run of length 1
        // flushed by into_report.
        assert_eq!(r.stall_runs.count(), 2);
        assert_eq!(r.stall_runs.sum(), 3);
        assert_eq!(r.words[&2].stall_operand, 2);
        assert_eq!(r.words[&2].stall_busy, 1);
        assert_eq!(r.regions[&0].stall_cycles, 3);
        assert_eq!(r.shadow_occupancy.high_water(), 1);
        assert_eq!(r.unspec_conds.high_water(), 2);
        assert_eq!(r.cycles, 4);
    }

    #[test]
    fn hottest_words_rank_by_total_stall() {
        let mut r = ObsReport::default();
        r.words.insert(
            3,
            WordProfile {
                stall_operand: 5,
                ..WordProfile::default()
            },
        );
        r.words.insert(
            1,
            WordProfile {
                stall_busy: 9,
                ..WordProfile::default()
            },
        );
        r.words.insert(7, WordProfile::default());
        let hot = r.hottest_words(10);
        assert_eq!(hot.len(), 2);
        assert_eq!(hot[0].0, 1);
        assert_eq!(hot[1].0, 3);
    }
}
