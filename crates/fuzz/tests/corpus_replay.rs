//! Replays every checked-in regression-corpus program through the
//! differential driver on every scheduling model.
//!
//! The corpus holds two kinds of entries: the repo's benchmark kernels
//! (broad coverage of real control flow) and minimized recovery-stress
//! repros harvested from `repro fuzz --inject-recovery-bug` (each forces
//! at least one recovery episode on the speculating models).  A failure
//! here means a previously-fixed bug has regressed.

use psb_core::Engine;
use psb_fuzz::{load_corpus, run_case, DiffConfig};
use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../corpus/regressions")
}

#[test]
fn corpus_replays_clean_on_every_model() {
    let corpus = load_corpus(&corpus_dir()).expect("regression corpus present");
    assert!(
        corpus.len() >= 6,
        "corpus should hold the four benchmarks plus the recovery repros, found {}",
        corpus.len()
    );
    let cfg = DiffConfig::default();
    let mut recoveries = 0;
    for (path, case) in &corpus {
        match run_case(case, &cfg) {
            Ok(stats) => recoveries += stats.recoveries,
            Err(f) => panic!("{} failed: {f}", path.display()),
        }
    }
    assert!(
        recoveries > 0,
        "the recovery-stress repros must exercise at least one recovery"
    );
}

#[test]
fn corpus_replays_clean_on_the_tabled_engine() {
    // Pin the tabled engine explicitly (independent of the workspace
    // default) so its arena-driven normal-mode issue path always replays
    // the full regression corpus, recoveries included.
    let corpus = load_corpus(&corpus_dir()).expect("regression corpus present");
    let cfg = DiffConfig {
        engine: Engine::Tabled,
        ..DiffConfig::default()
    };
    let mut recoveries = 0;
    for (path, case) in &corpus {
        match run_case(case, &cfg) {
            Ok(stats) => recoveries += stats.recoveries,
            Err(f) => panic!("{} failed on Engine::Tabled: {f}", path.display()),
        }
    }
    assert!(
        recoveries > 0,
        "the tabled engine must replay the recovery-stress repros"
    );
}

#[test]
fn recovery_repros_force_recoveries() {
    // The hand-minimized entries specifically must each trigger recovery
    // on at least one model — otherwise they no longer stress the
    // recovery-exit path they were minimized to cover.
    let corpus = load_corpus(&corpus_dir()).expect("regression corpus present");
    let cfg = DiffConfig::default();
    for (path, case) in &corpus {
        if !case.fault_once.is_empty() {
            let stats =
                run_case(case, &cfg).unwrap_or_else(|f| panic!("{} failed: {f}", path.display()));
            assert!(
                stats.recoveries > 0,
                "{} no longer triggers a recovery",
                path.display()
            );
        }
    }
}
