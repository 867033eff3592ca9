//! Build-time generator for the tabled engine's dispatch tables.
//!
//! Emits `$OUT_DIR/dispatch_tables.rs`, which `src/dispatch.rs` includes:
//! the op-kind constants, the index functions that lower a decoded slot /
//! word to a dense table index, and three `macro_rules!` macros that expand
//! to the function-pointer tables themselves. Generating both the index
//! functions and the tables from the same kind list here means decode-time
//! lowering and the issue-time tables cannot desynchronise: a new op kind
//! added to `KINDS` grows every table and every index in lockstep.

use std::env;
use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

/// Slot-op kinds, in table order. Index in this list == the `K_*` value.
const KINDS: &[&str] = &[
    "K_NOP",
    "K_ALU",
    "K_COPY",
    "K_SET_COND",
    "K_LOAD",
    "K_STORE",
    "K_JUMP",
    "K_CMP_BR",
    "K_HALT",
];

fn main() {
    let mut s = String::new();
    let w = &mut s;
    writeln!(w, "// Generated by crates/core/build.rs — do not edit.").unwrap();
    writeln!(w).unwrap();

    // Op-kind constants.
    for (i, k) in KINDS.iter().enumerate() {
        writeln!(w, "pub(crate) const {k}: u8 = {i};").unwrap();
    }
    let nkinds = KINDS.len();
    writeln!(
        w,
        "#[allow(dead_code)] // referenced by tests only\n\
         pub(crate) const NUM_OP_KINDS: usize = {nkinds};"
    )
    .unwrap();
    writeln!(w).unwrap();

    // Slot handler index: kind fused with whether the predicate is `alw`.
    writeln!(
        w,
        "pub(crate) const NUM_SLOT_HANDLERS: usize = {};",
        nkinds * 2
    )
    .unwrap();
    writeln!(
        w,
        "/// Dense index of the fused (op kind, always-predicate) slot handler.\n\
         pub(crate) const fn slot_handler_index(kind: u8, always: bool) -> u16 {{\n    \
             kind as u16 * 2 + always as u16\n\
         }}"
    )
    .unwrap();
    writeln!(w).unwrap();

    // Word class index: one bit per specialisation axis.
    writeln!(w, "pub(crate) const NUM_WORD_CLASSES: usize = 8;").unwrap();
    writeln!(
        w,
        "/// Dense index of a word's issue-path specialisation class.\n\
         /// bit 0: any slot has a conditional (non-`alw`) predicate\n\
         /// bit 1: the word contains at least one store slot\n\
         /// bit 2: the word contains a control-transfer slot\n\
         pub(crate) const fn word_class_index(any_cond: bool, any_store: bool, any_control: bool) -> u8 {{\n    \
             any_cond as u8 | (any_store as u8) << 1 | (any_control as u8) << 2\n\
         }}"
    )
    .unwrap();
    writeln!(w).unwrap();

    // Slot handler tables. Entries are `Self::h_*::<KIND, ALWAYS>` so the
    // macros must be expanded inside `impl VliwMachine` — `dispatch.rs`
    // re-exports them crate-wide for that purpose.
    for (mac, handler) in [
        ("slot_normal_table", "h_normal"),
        ("slot_recovery_table", "h_recovery"),
    ] {
        writeln!(w, "macro_rules! {mac} {{").unwrap();
        writeln!(w, "    () => {{").unwrap();
        writeln!(w, "        [").unwrap();
        for (i, k) in KINDS.iter().enumerate() {
            for always in [false, true] {
                writeln!(
                    w,
                    "            Self::{handler}::<{i}, {always}>, // {k}, always={always}"
                )
                .unwrap();
            }
        }
        writeln!(w, "        ]").unwrap();
        writeln!(w, "    }};").unwrap();
        writeln!(w, "}}").unwrap();
        writeln!(w, "pub(crate) use {mac};").unwrap();
        writeln!(w).unwrap();
    }

    // Word issue table: one specialised issue path per class.
    writeln!(w, "macro_rules! word_normal_table {{").unwrap();
    writeln!(w, "    () => {{").unwrap();
    writeln!(w, "        [").unwrap();
    for class in 0..8u8 {
        let cond = class & 1 != 0;
        let store = class & 2 != 0;
        let control = class & 4 != 0;
        writeln!(
            w,
            "            Self::wi_normal::<{cond}, {store}, {control}>, \
             // cond={cond} store={store} control={control}"
        )
        .unwrap();
    }
    writeln!(w, "        ]").unwrap();
    writeln!(w, "    }};").unwrap();
    writeln!(w, "}}").unwrap();
    writeln!(w, "pub(crate) use word_normal_table;").unwrap();

    let out = PathBuf::from(env::var("OUT_DIR").expect("OUT_DIR set by cargo"))
        .join("dispatch_tables.rs");
    fs::write(&out, s).expect("write dispatch_tables.rs");
    println!("cargo:rerun-if-changed=build.rs");
}
