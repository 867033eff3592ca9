//! Pins `MemoryModel::Perfect` byte-equal to the pre-refactor machine.
//!
//! Before the memory system became pluggable, every load completed in a
//! fixed `cfg.load_latency` and instruction fetch was free.  The
//! `Perfect` model claims to reproduce that machine bit-for-bit.  This
//! suite holds it to the claim against digests captured from the
//! *pre-refactor* binary: for every regression-corpus case, under every
//! scheduling model and every issue engine, the run's cycles, all
//! pre-refactor counters, final registers, final memory and the full
//! recorded event log are hashed and compared against
//! `baselines/perfect_memory_digests.txt`.
//!
//! The digest deliberately covers only state that existed before the
//! refactor (new memory counters are excluded), so it stays comparable
//! across the refactor boundary.  Regenerate with
//! `PSB_WRITE_PERFECT_DIGESTS=1 cargo test -p psb-fuzz --test
//! perfect_pinning -- --nocapture` — but only ever from a machine whose
//! default timing is known-good, because the file *is* the oracle.

use psb_compile::{compile_fresh, CompileRequest, ProfileSource};
use psb_core::{Engine, MachineConfig, ShadowMode, VliwResult};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

const ENGINES: [Engine; 2] = [Engine::Legacy, Engine::Tabled];

fn engine_name(e: Engine) -> &'static str {
    match e {
        Engine::Tabled => "tabled",
        Engine::Legacy => "legacy",
    }
}

/// FNV-1a over the canonical serialization below.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Serializes the pre-refactor observable state of a run: cycles, the
/// counters that predate the memory system, registers, memory, events.
fn digest(res: &VliwResult) -> u64 {
    let mut s = String::new();
    let st = &res.stats;
    write!(
        s,
        "cycles={} wi={} oe={} os={} so={} ss={} sb={} rec={} fh={} rt={} c={} q={};",
        res.cycles,
        st.words_issued,
        st.ops_executed,
        st.ops_squashed,
        st.stall_operand,
        st.stall_sb_full,
        st.stall_busy,
        st.recoveries,
        st.faults_handled,
        st.region_transfers,
        st.commits,
        st.squashes
    )
    .unwrap();
    write!(s, "regs={:?};mem={:?};", res.regs, res.memory.cells()).unwrap();
    for e in &res.events {
        write!(s, "{e:?};").unwrap();
    }
    fnv1a(s.as_bytes())
}

fn baseline_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../baselines/perfect_memory_digests.txt")
}

/// Computes `case model engine -> digest` over the whole corpus.
fn compute_digests() -> BTreeMap<String, u64> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus/regressions");
    let cases = psb_fuzz::load_corpus(&dir).expect("corpus loads");
    assert!(!cases.is_empty(), "corpus must not be empty");
    let mut out = BTreeMap::new();
    for (path, case) in &cases {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .expect("corpus file name")
            .to_string();
        let prog = &case.program;
        let scalar = ScalarMachine::new(
            prog,
            ScalarConfig {
                fault_once_addrs: case.fault_once.clone(),
                ..ScalarConfig::default()
            },
        )
        .run()
        .unwrap_or_else(|e| panic!("{name}: scalar run failed: {e}"));
        for model in Model::ALL {
            let sched_cfg = SchedConfig::new(model);
            let single_shadow = sched_cfg.single_shadow;
            let art = compile_fresh(&CompileRequest {
                program: prog,
                profile: ProfileSource::Provided(&scalar.edge_profile),
                sched: sched_cfg,
            })
            .unwrap_or_else(|e| panic!("{name}: {model} failed to compile: {e}"));
            for engine in ENGINES {
                let cfg = MachineConfig {
                    shadow_mode: if single_shadow {
                        ShadowMode::Single
                    } else {
                        ShadowMode::Infinite
                    },
                    fault_once_addrs: case.fault_once.clone(),
                    record_events: true,
                    engine,
                    ..MachineConfig::default()
                };
                let res = art
                    .run(cfg)
                    .unwrap_or_else(|e| panic!("{name}: {model} {engine:?} run failed: {e}"));
                out.insert(
                    format!("{name} {model} {}", engine_name(engine)),
                    digest(&res),
                );
            }
        }
    }
    out
}

/// The default machine (which is `MemoryModel::Perfect`) must reproduce
/// the digests captured from the pre-refactor binary, for every corpus
/// case x scheduling model x issue engine.
#[test]
fn perfect_memory_matches_pre_refactor_digests() {
    let computed = compute_digests();
    if std::env::var_os("PSB_WRITE_PERFECT_DIGESTS").is_some() {
        let mut text = String::new();
        for (k, v) in &computed {
            writeln!(text, "{k} {v:016x}").unwrap();
        }
        std::fs::write(baseline_path(), text).expect("write digest baseline");
        println!("wrote {} digests to {:?}", computed.len(), baseline_path());
        return;
    }
    let text = std::fs::read_to_string(baseline_path()).expect(
        "baselines/perfect_memory_digests.txt missing; regenerate with \
         PSB_WRITE_PERFECT_DIGESTS=1 only from a known-good machine",
    );
    let mut expected = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let (key, hex) = line.rsplit_once(' ').expect("digest line shape");
        expected.insert(
            key.to_string(),
            u64::from_str_radix(hex, 16).expect("digest hex"),
        );
    }
    let mut mismatches = Vec::new();
    for (key, want) in &expected {
        match computed.get(key) {
            Some(got) if got == want => {}
            Some(got) => mismatches.push(format!("{key}: digest {got:016x} != {want:016x}")),
            None => mismatches.push(format!("{key}: case missing from this run")),
        }
    }
    assert!(
        mismatches.is_empty(),
        "Perfect memory diverged from the pre-refactor machine:\n{}",
        mismatches.join("\n")
    );
    // New corpus entries since the capture are allowed (they have no
    // pinned digest yet), but the capture set itself must be covered.
    assert!(
        computed.len() >= expected.len(),
        "corpus shrank below the pinned digest set"
    );
}
