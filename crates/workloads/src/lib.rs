//! Synthetic benchmark kernels modelling the paper's evaluation suite.
//!
//! The paper evaluates three SPEC benchmarks and three UNIX utilities
//! (Table 2): `compress`, `eqntott`, `espresso`, `grep`, `li`, `nroff`.
//! We cannot compile those C programs to our ISA, so each kernel here is a
//! hand-written scalar program reproducing the dynamic character that the
//! evaluation actually depends on:
//!
//! * the **instruction mix** (load/store/ALU/branch ratios) and **control
//!   structure** (hash probes, early-exit comparison loops, bit-vector
//!   sweeps, character scans, pointer chasing, character formatting);
//! * the **branch predictability** of Table 3 — `grep` and `nroff` are
//!   extremely predictable (≥ 0.97 per branch), the others sit near
//!   0.85–0.88, which is what separates trace predicating from region
//!   predicating (Section 4.2.2);
//! * the **unsafe-load structure**: `li` traverses a linked list whose
//!   speculatively hoisted next-cell dereference faults on NULL in the
//!   final iteration — the paper's motivating example for buffered
//!   speculative exceptions (Section 2.1).
//!
//! Inputs are generated from a seed; different seeds give the training and
//! evaluation runs used for profile-guided static prediction.

#![warn(missing_docs)]

mod compress;
mod eqntott;
mod espresso;
mod grep;
mod li;
mod nroff;

pub use compress::compress_like_sized;
pub use eqntott::eqntott_like_sized;
pub use espresso::espresso_like_sized;
pub use grep::grep_like_sized;
pub use li::li_like_sized;
pub use nroff::nroff_like_sized;

use psb_isa::ScalarProgram;

/// A benchmark kernel: a program plus its identity in reports.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Short name matching the paper's Table 2 (`compress`, `eqntott`, …).
    pub name: &'static str,
    /// One-line description of what the kernel models.
    pub description: &'static str,
    /// The scalar program (scheduler input and golden-model subject).
    pub program: ScalarProgram,
}

/// Default problem size used by the `*_like` constructors.
pub const DEFAULT_SIZE: usize = 2048;

macro_rules! default_ctor {
    ($(#[$doc:meta])* $name:ident, $sized:ident) => {
        $(#[$doc])*
        pub fn $name(seed: u64) -> Workload {
            $sized(seed, DEFAULT_SIZE)
        }
    };
}

default_ctor!(
    /// LZW-style hash-table probe loop (models `compress`).
    compress_like,
    compress_like_sized
);
default_ctor!(
    /// Early-exit bit-vector comparison loop (models `eqntott`'s `cmppt`).
    eqntott_like,
    eqntott_like_sized
);
default_ctor!(
    /// Cube-intersection bit sweeps (models `espresso`).
    espresso_like,
    espresso_like_sized
);
default_ctor!(
    /// First-character string scan (models `grep`).
    grep_like,
    grep_like_sized
);
default_ctor!(
    /// Linked-list traversal with type dispatch (models `li`).
    li_like,
    li_like_sized
);
default_ctor!(
    /// Character-formatting loop (models `nroff`).
    nroff_like,
    nroff_like_sized
);

/// All six kernels at size `n`, in the paper's Table 2 order.
pub fn all_workloads_sized(seed: u64, n: usize) -> Vec<Workload> {
    vec![
        compress_like_sized(seed, n),
        eqntott_like_sized(seed, n),
        espresso_like_sized(seed, n),
        grep_like_sized(seed, n),
        li_like_sized(seed, n),
        nroff_like_sized(seed, n),
    ]
}

/// Looks a kernel up by its Table 2 name.
pub fn by_name(name: &str, seed: u64, n: usize) -> Option<Workload> {
    match name {
        "compress" => Some(compress_like_sized(seed, n)),
        "eqntott" => Some(eqntott_like_sized(seed, n)),
        "espresso" => Some(espresso_like_sized(seed, n)),
        "grep" => Some(grep_like_sized(seed, n)),
        "li" => Some(li_like_sized(seed, n)),
        "nroff" => Some(nroff_like_sized(seed, n)),
        _ => None,
    }
}
