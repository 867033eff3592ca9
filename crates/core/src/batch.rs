//! The report of one compiled artifact run under a grid of machine
//! configurations.
//!
//! `psb_compile::CompiledArtifact::run_batch` runs each configuration of
//! a grid solo, through the same default-sink cycle loop every other
//! run uses, except that a configuration an earlier lane's run
//! carries over to ([`run_carries_over`]) takes a copy of that lane,
//! and collects the outcomes into a [`BatchReport`].  A
//! lockstep batched machine once stepped such grids lane by lane; solo
//! runs of one artifact were measured as fast or faster, so it is gone
//! (DESIGN.md §15).  The report keeps its lockstep-era shape
//! (`batch_cycles` in [`DEFAULT_STRIDE`] units) because the `psbbench`
//! sweep workload reads it.
//!
//! A configuration's failure is its own outcome, never the grid's: a
//! config that fails admission, faults, or exceeds its cycle limit
//! yields the `Err` its solo run returns, in its slot of the report.
//!
//! [`run_carries_over`]: crate::MachineConfig::run_carries_over

use crate::event::EventLog;
use crate::machine::{VliwError, VliwResult};

/// The cycle unit of [`BatchReport::batch_cycles`] (the number of
/// cycles a lockstep round once stepped each lane).
pub const DEFAULT_STRIDE: u64 = 64;

/// What one configuration produced: its solo run's result paired with
/// the run's event-log sink (empty: the events moved into
/// [`VliwResult::events`]), or its error.
pub type LaneOutcome = Result<(VliwResult, EventLog), VliwError>;

/// The outcomes of one grid, one lane per configuration, plus cycle
/// totals.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-configuration outcomes, index-aligned with the grid.
    pub lanes: Vec<LaneOutcome>,
    /// The longest lane's cycles in [`DEFAULT_STRIDE`] units, rounded
    /// up.
    pub batch_cycles: u64,
    /// The sum of the lanes' cycles (a failed lane counts 0).
    pub lane_cycles: u64,
}

impl BatchReport {
    /// Builds the report over `lanes`, computing its cycle totals.
    pub fn new(lanes: Vec<LaneOutcome>) -> BatchReport {
        let cycles = || lanes.iter().flatten().map(|(res, _)| res.cycles);
        BatchReport {
            batch_cycles: cycles().max().unwrap_or(0).div_ceil(DEFAULT_STRIDE),
            lane_cycles: cycles().sum(),
            lanes,
        }
    }
}
