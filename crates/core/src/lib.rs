//! The predicating VLIW machine — the paper's architectural contribution.
//!
//! This crate implements the execution model of Sections 3.1–3.5 of
//! *Unconstrained Speculative Execution with Predicated State Buffering*
//! (Ando, Nakanishi, Hara, Nakaya; ISCA 1995):
//!
//! * an in-order, N-issue VLIW datapath with a **control path** that
//!   evaluates each slot's predicate against the condition code register
//!   (CCR) at issue and at writeback;
//! * a **predicated register file** ([`PredicatedRegFile`]): every register
//!   has a sequential storage and shadow (speculative) storage with
//!   W/V/E flags and a stored predicate that dedicated per-entry hardware
//!   re-evaluates every cycle, committing (flip W, clear V) or squashing
//!   (clear V) the buffered value;
//! * a **predicated store buffer** ([`PredicatedStoreBuffer`]): a FIFO in
//!   which both speculative and non-speculative stores wait, with the same
//!   per-entry predicate evaluation, retiring only valid non-speculative
//!   heads to the D-cache;
//! * **speculative exception buffering and future-condition recovery**:
//!   a faulting speculative instruction merely sets the E flag of its
//!   destination entry; if the entry's predicate later commits, the machine
//!   saves the would-be CCR into the *future CCR*, invalidates all
//!   speculative state, rolls back to the region top (RPC) and re-executes
//!   in *recovery mode* — re-running only instructions whose predicate is
//!   unspecified under the current condition, and handling a re-raised
//!   exception only if its predicate is true under the future condition.
//!
//! # Timing model
//!
//! One word issues per cycle (stalling on unavailable operands, on jumps
//! with unspecified predicates, on a full store buffer, and during fault
//! handling).  Single-cycle results are readable the next cycle; loads have
//! a two-cycle latency.  Commits/squashes driven by a condition set in
//! cycle *t* take effect in cycle *t+1*, matching Table 1 of the paper.
//! Taken region-exit jumps are free (the paper's BTB assumption).
//!
//! # Example
//!
//! ```
//! use psb_core::{MachineConfig, VliwMachine};
//! use psb_isa::{MultiOp, Slot, SlotOp, VliwProgram, MemImage};
//!
//! let prog = VliwProgram {
//!     name: "halt".into(),
//!     words: vec![MultiOp::new(vec![Slot::alw(SlotOp::Halt)])],
//!     region_starts: vec![0],
//!     num_conds: 4,
//!     init_regs: vec![],
//!     memory: MemImage::zeroed(16),
//!     live_out: vec![],
//! };
//! let result = VliwMachine::run_program(&prog, MachineConfig::default()).unwrap();
//! assert_eq!(result.cycles, 1);
//! ```

#![warn(missing_docs)]

pub mod batch;
mod config;
mod decoded;
mod dispatch;
mod event;
mod invariant;
mod machine;
mod mem;
mod obs;
mod regfile;
mod storebuf;

pub use batch::{BatchReport, BatchedMachine, LaneOutcome};
pub use config::{CommitScan, Engine, MachineConfig, ShadowMode};
pub use decoded::{DecodedProgram, DecodedSlot, DecodedWord};
pub use event::{audit_events, AuditViolation, Event, EventLog, StateLoc};
pub use invariant::{InvariantSink, InvariantViolation};
pub use machine::{RunStats, StepOutcome, VliwError, VliwMachine, VliwResult};
pub use mem::{CacheConfig, CacheModel, CacheProbe, MemCounters, MemoryModel, MemorySystem};
pub use obs::{
    CountersSink, CycleSample, Histogram, NullSink, ObsReport, OccupancyStats, RegionProfile,
    StallKind, TraceSink, WordProfile,
};
pub use psb_isa::Resources;
pub use regfile::{PredicatedRegFile, ShadowConflict};
pub use storebuf::PredicatedStoreBuffer;
