//! Analyses over scalar programs: CFG structure, dominance, and liveness.
//!
//! The instruction schedulers in `psb-sched` consume these analyses to
//! decide which code motions are legal: liveness drives register renaming
//! (a destination may only be renamed into a register dead on the
//! side-effect path, Section 2.1 of the paper), and dominance validates the
//! single-entry property of scheduling regions (Section 3.3).

#![warn(missing_docs)]

mod cfg;
mod dom;
mod liveness;
mod opt;
mod unroll;

pub use cfg::Cfg;
pub use dom::{Dominators, PostDominators};
pub use liveness::Liveness;
pub use opt::{copy_propagate, dead_code_eliminate, optimize};
pub use psb_isa::RegSet;
pub use unroll::{find_loops, unroll_loops, NaturalLoop};
