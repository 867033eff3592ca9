//! Simulating each distinct run of a grid once.
//!
//! A machine run depends on its program and on every [`MachineConfig`]
//! field but the two only admission reads and, while the buffer never
//! fills, the store-buffer size; [`MachineConfig::run_carries_over`]
//! says when a completed run is also the run under another
//! configuration.  [`RunReuse`] applies that rule across the points of
//! one point job or grid call: a point whose program equals an earlier
//! completed run's, under a configuration the earlier run carries over
//! to, is held to the admission check and takes that run instead of
//! simulating it.  It keeps no result, only where each completed run
//! went, so the caller keeps whatever it already keeps of a run
//! (counters, or the whole result) and nothing outlives the job
//! (DESIGN §11.1).

use psb_core::{MachineConfig, VliwError, VliwResult};
use psb_isa::VliwProgram;
use std::sync::Arc;

/// How one point got its run.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)] // every caller moves the run out at once
pub enum Ran {
    /// The point takes the run of the earlier point with this index
    /// (counting every point stepped through the same [`RunReuse`]).
    Took(usize),
    /// The point was simulated; this is its run.
    Simulated(VliwResult),
}

/// One completed run a later point may take.
struct Done {
    program: Arc<VliwProgram>,
    cfg: MachineConfig,
    stall_sb_full: u64,
    point: usize,
}

/// The completed runs of one point job or grid call.
#[derive(Default)]
pub struct RunReuse {
    done: Vec<Done>,
    points: usize,
}

impl RunReuse {
    /// The next point: `program` under `cfg`.  When an earlier point's
    /// completed run of an equal program carries over to `cfg`, the
    /// point is held to `cfg`'s admission check and takes that run;
    /// otherwise `simulate` runs it, and a completed run is kept for the
    /// points after it.  A reused point is not checked again: whatever
    /// `simulate` checks, its source run already passed.
    ///
    /// # Errors
    ///
    /// `cfg`'s admission error, or `simulate`'s error.
    pub fn step<E: From<VliwError>>(
        &mut self,
        program: &Arc<VliwProgram>,
        cfg: MachineConfig,
        simulate: impl FnOnce(MachineConfig) -> Result<VliwResult, E>,
    ) -> Result<Ran, E> {
        let point = self.points;
        self.points += 1;
        let earlier = self.done.iter().find(|d| {
            d.cfg.run_carries_over(d.stall_sb_full, &cfg)
                && (Arc::ptr_eq(&d.program, program) || d.program == *program)
        });
        if let Some(d) = earlier {
            cfg.admit(program)?;
            return Ok(Ran::Took(d.point));
        }
        let res = simulate(cfg.clone())?;
        self.done.push(Done {
            program: Arc::clone(program),
            cfg,
            stall_sb_full: res.stall_sb_full,
            point,
        });
        Ok(Ran::Simulated(res))
    }

    /// How many points were simulated to completion.
    pub fn simulated(&self) -> usize {
        self.done.len()
    }
}
