//! Instruction set for the predicated-state-buffering (PSB) architecture.
//!
//! This crate defines the two program representations shared by every other
//! crate in the workspace:
//!
//! * **Scalar programs** ([`ScalarProgram`]): a control-flow graph of basic
//!   blocks over a MIPS-like register ISA.  These play the role of the
//!   optimised R3000 assembly that the paper's instruction schedulers consume
//!   and that the scalar reference machine (`psb-scalar`) executes.
//! * **VLIW programs** ([`VliwProgram`]): sequences of multi-operation
//!   instruction words in which every slot carries a *predicate* — an ANDed
//!   vector of possibly negated branch conditions over the condition code
//!   register (CCR), exactly as in Section 3.2 of the paper.  These are
//!   executed by the predicating machine (`psb-core`).
//!
//! The predicate machinery ([`Predicate`], [`Ccr`], [`Cond`]) implements the
//! paper's encoding: each of up to [`MAX_CONDS`] CCR entries contributes a
//! term that is *positive*, *negated* or *don't care*, and evaluation is a
//! masked match between the predicate vector and the CCR contents that yields
//! a three-valued result (true / false / unspecified).
//!
//! # Example
//!
//! ```
//! use psb_isa::{Ccr, Cond, CondReg, Predicate};
//!
//! // The predicate c0 & !c1 from the paper's running example.
//! let p = Predicate::always().and_pos(CondReg::new(0)).and_neg(CondReg::new(1));
//! let mut ccr = Ccr::new(4);
//! assert_eq!(p.eval(&ccr), Cond::Unspecified);
//! ccr.set(CondReg::new(0), true);
//! assert_eq!(p.eval(&ccr), Cond::Unspecified); // c1 still unknown
//! ccr.set(CondReg::new(1), true);
//! assert_eq!(p.eval(&ccr), Cond::False); // !c1 fails
//! ```

#![warn(missing_docs)]

mod asm;
mod builder;
mod cond;
mod display;
mod mem;
mod op;
mod pred;
mod reg;
mod regset;
mod scalar;
mod vliw;

pub use asm::{parse_program, ParseAsmError};
pub use builder::{BlockBuilder, ProgramBuilder};
pub use cond::{Ccr, Cond};
pub use mem::{MemFault, Memory};
pub use op::{AluOp, CmpOp, MemTag, Op, Src};
pub use pred::{PredTerm, Predicate};
pub use reg::{CondReg, Reg, MAX_CONDS, NUM_REGS};
pub use regset::RegSet;
pub use scalar::{Block, BlockId, MemImage, ScalarProgram, Terminator};
pub use vliw::{FuClass, MultiOp, Resources, Slot, SlotOp, VliwProgram};
