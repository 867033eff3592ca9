//! Batched lockstep execution of many machine configurations over one
//! shared decoded arena.
//!
//! Design-space sweeps run the *same compiled artifact* under many
//! [`MachineConfig`] variants (issue width × store-buffer depth × memory
//! model × …).  [`BatchedMachine`] runs such a grid as one batch:
//!
//! * **Lanes are whole machines.**  The batch is a
//!   `Vec<Option<VliwMachine>>`: each lane is an ordinary solo machine
//!   with its own predicated register file, store buffer, CCR and
//!   [`RunStats`](crate::RunStats), and every lane holds a clone of one
//!   `Arc<DecodedProgram>` and one `&VliwProgram`.  Solo runs of one
//!   compiled artifact share that same arena, so the batch adds no
//!   sharing a solo loop over the artifact lacks.
//! * **Lockstep stepping.**  One round calls
//!   [`VliwMachine::step_cycle`] — the *same* single-cycle function the
//!   solo runner loops over — up to `stride` times per live lane.  A
//!   lane's trajectory is therefore byte-equal to its solo run (event
//!   logs included) by construction, not by a re-implementation of the
//!   cycle semantics, and results do not depend on the stride.
//! * **Independent retirement.**  A lane that issues its halt word (or
//!   faults) drains and retires immediately; the batch keeps stepping
//!   the remaining live lanes, so one long-running configuration never
//!   blocks the others' results.
//! * **Grouped admission.**  Construction validates the program once
//!   per *distinct* `(issue_width, resources)` pair instead of once per
//!   lane, and validates the shared arena's dispatch tables exactly
//!   once per batch.
//!
//! Lockstep is not measurably faster than solo runs of the same
//! artifact: the `psbbench` sweep workload's traced
//! `core.batch.solo_ratio` (solo time over batched time for the same
//! grid) reads 0.95–0.98, so `repro sweep` runs every point solo.  The
//! batch stays only because that benchmark drives its grid through it.
//!
//! Lane failures are per-lane values, never batch failures: a config
//! that fails admission, faults, or exceeds its cycle limit yields the
//! same `Err` its solo run would, in its slot of the report, while the
//! other lanes run to completion.

use crate::config::MachineConfig;
use crate::decoded::DecodedProgram;
use crate::event::EventLog;
use crate::machine::{StepOutcome, VliwError, VliwMachine, VliwResult};
use crate::obs::TraceSink;
use psb_isa::{Resources, VliwProgram};
use std::sync::Arc;

/// Default lockstep granularity (cycles each live lane advances per
/// round).  Large enough that a lane's register file, store buffer and
/// hot decoded words stay cache-resident across a burst; small enough
/// that a retiring lane frees its column promptly and skew between
/// lanes stays bounded.
pub const DEFAULT_STRIDE: u64 = 64;

/// What one lane produced: exactly what the same configuration's solo
/// [`VliwMachine::run_into_sink`] would have returned.
pub type LaneOutcome<S> = Result<(VliwResult, S), VliwError>;

/// The result of running a batch to completion: one outcome per lane
/// (in construction order) plus lockstep accounting.
#[derive(Debug)]
pub struct BatchReport<S> {
    /// Per-lane outcomes, index-aligned with the configurations the
    /// batch was constructed from.
    pub lanes: Vec<LaneOutcome<S>>,
    /// Lockstep iterations driven — the longest live lane's cycle
    /// count, and the batch analogue of a solo run's wall cycles.
    pub batch_cycles: u64,
    /// Total architectural cycles stepped across all lanes (the work
    /// the batch actually did; `sum(lane cycles)`, not `max`).
    pub lane_cycles: u64,
}

/// N configurations of one compiled program stepping in lockstep over a
/// shared decoded arena.  See the [module docs](self) for the layout
/// and equality guarantees.
pub struct BatchedMachine<'p, S: TraceSink = EventLog> {
    /// Lane columns: `Some` while live, `None` once retired into
    /// `results`.
    lanes: Vec<Option<VliwMachine<'p, S>>>,
    /// Retired outcomes, index-aligned with `lanes`.
    results: Vec<Option<LaneOutcome<S>>>,
    /// Indices of live lanes.  Order is irrelevant to correctness
    /// (lanes are independent) but deterministic for a given input.
    live: Vec<usize>,
    /// Cycles each live lane advances per lockstep round (bounded
    /// skew).  See [`with_stride`](Self::with_stride).
    stride: u64,
    /// Lockstep rounds driven so far.
    batch_cycles: u64,
    /// Architectural cycles stepped across all lanes so far.
    lane_cycles: u64,
}

impl<'p> BatchedMachine<'p, EventLog> {
    /// Builds a batch with each lane's default [`EventLog`] sink
    /// (recording iff its config's `record_events` is set), mirroring
    /// [`VliwMachine::new`].
    pub fn new(
        prog: &'p VliwProgram,
        decoded: Arc<DecodedProgram>,
        cfgs: &[MachineConfig],
    ) -> BatchedMachine<'p, EventLog> {
        let lanes = cfgs
            .iter()
            .map(|cfg| (cfg.clone(), EventLog::new(cfg.record_events)))
            .collect();
        BatchedMachine::with_sinks(prog, decoded, lanes)
    }
}

impl<'p, S: TraceSink> BatchedMachine<'p, S> {
    /// Builds a batch of one lane per `(config, sink)` pair over the
    /// shared `decoded` arena (which must be the decoding of `prog`,
    /// as a compiled artifact guarantees).
    ///
    /// Construction itself never fails: a lane whose configuration
    /// fails admission retires immediately with the same
    /// [`VliwError::Malformed`] its solo construction would produce.
    /// Admission is validated once per distinct
    /// `(issue_width, resources)` pair, and the arena's dispatch
    /// lowering once per batch.
    pub fn with_sinks(
        prog: &'p VliwProgram,
        decoded: Arc<DecodedProgram>,
        lane_specs: Vec<(MachineConfig, S)>,
    ) -> BatchedMachine<'p, S> {
        // The arena checks from `with_sink_decoded`, hoisted out of the
        // per-lane loop: one batch shares one arena.
        let arena_err: Option<VliwError> = if decoded.words.len() != prog.words.len() {
            Some(VliwError::Malformed(
                "pre-decoded arena does not match the program".to_string(),
            ))
        } else {
            decoded
                .validate_dispatch()
                .err()
                .map(|e| VliwError::Malformed(format!("pre-decoded arena rejected: {e}")))
        };
        let n = lane_specs.len();
        let mut lanes: Vec<Option<VliwMachine<'p, S>>> = Vec::with_capacity(n);
        let mut results: Vec<Option<LaneOutcome<S>>> = Vec::with_capacity(n);
        let mut live = Vec::with_capacity(n);
        // Admission memo: sweeps draw lanes from small grids, so the
        // distinct-pair count is tiny and a linear scan beats hashing.
        let mut admitted: Vec<((usize, Resources), Result<(), VliwError>)> = Vec::new();
        for (i, (cfg, sink)) in lane_specs.into_iter().enumerate() {
            if let Some(e) = &arena_err {
                lanes.push(None);
                results.push(Some(Err(e.clone())));
                continue;
            }
            // Memory-model validation is per-lane: the admission memo
            // below keys on (width, resources) only, and two lanes that
            // share those may still differ in (and mis-specify) caches.
            if let Err(e) = cfg.memory.validate() {
                lanes.push(None);
                results.push(Some(Err(VliwError::Malformed(format!(
                    "memory model: {e}"
                )))));
                continue;
            }
            let key = (cfg.issue_width, cfg.resources);
            let verdict = match admitted.iter().find(|(k, _)| *k == key) {
                Some((_, v)) => v.clone(),
                None => {
                    let v = VliwMachine::<S>::validate_for(prog, &cfg);
                    admitted.push((key, v.clone()));
                    v
                }
            };
            match verdict {
                Ok(()) => {
                    lanes.push(Some(VliwMachine::build(prog, decoded.clone(), cfg, sink)));
                    results.push(None);
                    live.push(i);
                }
                Err(e) => {
                    lanes.push(None);
                    results.push(Some(Err(e)));
                }
            }
        }
        BatchedMachine {
            lanes,
            results,
            live,
            stride: DEFAULT_STRIDE,
            batch_cycles: 0,
            lane_cycles: 0,
        }
    }

    /// Sets the lockstep granularity: each live lane advances up to
    /// `stride` architectural cycles per round, so inter-lane skew is
    /// bounded by `stride` instead of zero.  Configurations diverge in
    /// PC after their first differing stall anyway, so a strict
    /// one-cycle round buys no sharing — it only thrashes the host's
    /// caches and branch predictors by switching lane state every
    /// simulated cycle.  Per-lane results are identical for every
    /// stride (each lane runs the same `step_cycle` sequence); only
    /// host-side locality changes.  `stride` 0 is clamped to 1.
    pub fn with_stride(mut self, stride: u64) -> BatchedMachine<'p, S> {
        self.stride = stride.max(1);
        self
    }

    /// The number of lanes (live or retired) in the batch.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// True when the batch has no lanes at all.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// The number of lanes still stepping.
    pub fn live_lanes(&self) -> usize {
        self.live.len()
    }

    /// Takes one lockstep round: every live lane steps up to `stride`
    /// architectural cycles (fewer if it halts or fails mid-round, in
    /// which case it retires in place).  Returns the number of lanes
    /// still live afterwards.
    pub fn step_batch_cycle(&mut self) -> usize {
        if self.live.is_empty() {
            return 0;
        }
        self.batch_cycles += 1;
        let mut i = 0;
        'lanes: while i < self.live.len() {
            let lane = self.live[i];
            let m = self.lanes[lane]
                .as_mut()
                .expect("live lane has a machine column");
            for _ in 0..self.stride {
                self.lane_cycles += 1;
                match m.step_cycle() {
                    Ok(StepOutcome::Running) => {}
                    Ok(StepOutcome::Halted) => {
                        let m = self.lanes[lane].take().expect("halted lane column");
                        self.results[lane] = Some(m.finish());
                        self.live.swap_remove(i);
                        continue 'lanes;
                    }
                    Err(e) => {
                        self.lanes[lane] = None;
                        self.results[lane] = Some(Err(e));
                        self.live.swap_remove(i);
                        continue 'lanes;
                    }
                }
            }
            i += 1;
        }
        self.live.len()
    }

    /// Steps the batch until every lane has retired, returning the
    /// per-lane outcomes in construction order.
    pub fn run(mut self) -> BatchReport<S> {
        while self.step_batch_cycle() > 0 {}
        let lanes = self
            .results
            .into_iter()
            .map(|r| r.expect("every lane retired"))
            .collect();
        BatchReport {
            lanes,
            batch_cycles: self.batch_cycles,
            lane_cycles: self.lane_cycles,
        }
    }
}
