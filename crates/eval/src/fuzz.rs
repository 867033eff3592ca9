//! The `repro fuzz` runner: parallel fan-out of the `psb-fuzz`
//! differential driver with a deterministic report.
//!
//! Cases are numbered `0..runs`; case `i` is generated from
//! `mix(seed, i)` (a splitmix64 finalizer), so the case stream depends
//! only on `--seed` and the report is byte-identical at any `--jobs`
//! count.  Failing cases are shrunk and written into the regression
//! corpus after the sweep, in case order.  Wall-clock timing goes to
//! stderr so it never perturbs the report; with `--time-budget` the
//! number of cases executed is necessarily machine-dependent (the sweep
//! stops at the first chunk boundary past the budget), so fixed `--runs`
//! sweeps are the mode CI compares byte-for-byte.

use crate::runner::parallel_map_t;
use psb_core::Engine;
use psb_fuzz::{gen_case, run_case, shrink_case, write_repro, CaseStats, DiffConfig, FuzzFailure};
use psb_telemetry::Telemetry;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Parameters of one fuzz sweep.
#[derive(Clone, Debug)]
pub struct FuzzParams {
    /// Base seed; case `i` uses `mix(seed, i)`.
    pub seed: u64,
    /// Number of cases (the cap, when a time budget is also given).
    pub runs: usize,
    /// Optional wall-clock budget in seconds; checked between chunks.
    pub time_budget: Option<f64>,
    /// Worker threads for the case sweep.
    pub jobs: usize,
    /// Where minimized repros of failing cases are written.
    pub corpus_dir: PathBuf,
    /// Activate the machine's test-only deferred-recovery-exit-commit bug.
    pub inject_recovery_bug: bool,
    /// Issue engine driving the VLIW side of every case (the nightly
    /// sweep rotates this so each engine gets long-run fuzz coverage).
    pub engine: Engine,
}

impl Default for FuzzParams {
    fn default() -> FuzzParams {
        FuzzParams {
            seed: 1,
            runs: 200,
            time_budget: None,
            jobs: 1,
            corpus_dir: PathBuf::from("corpus/regressions"),
            inject_recovery_bug: false,
            engine: Engine::default(),
        }
    }
}

/// The result of a fuzz sweep.
#[derive(Clone, Debug)]
pub struct FuzzOutcome {
    /// The deterministic report (stdout).
    pub report: String,
    /// Cases executed.
    pub cases: usize,
    /// Cases that failed.
    pub failures: usize,
}

/// splitmix64 finalizer: decorrelates per-case seeds from the base seed
/// so adjacent cases share no generator state.
fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs the sweep described by `p` and renders the report.
///
/// Per-case task spans flow into `tel`, plus `fuzz.cases` /
/// `fuzz.failures` counters.  With a fixed `--runs` the counters are
/// jobs-deterministic; a `--time-budget` sweep stops at a
/// machine-dependent chunk boundary, so its telemetry (like its report)
/// is only comparable on one host.
pub fn run_fuzz<T: Telemetry>(p: &FuzzParams, tel: &T) -> FuzzOutcome {
    let cfg = DiffConfig {
        inject_recovery_bug: p.inject_recovery_bug,
        engine: p.engine,
        ..DiffConfig::default()
    };
    let start = Instant::now();
    let budget = p.time_budget.map(Duration::from_secs_f64);

    let mut results: Vec<(usize, u64, Result<CaseStats, FuzzFailure>)> = Vec::new();
    let mut next = 0usize;
    while next < p.runs {
        if let Some(b) = budget {
            if start.elapsed() >= b {
                break;
            }
        }
        let chunk_len = if budget.is_some() {
            (p.jobs * 8).max(32).min(p.runs - next)
        } else {
            p.runs - next
        };
        let idxs: Vec<usize> = (next..next + chunk_len).collect();
        let chunk = parallel_map_t(
            &idxs,
            p.jobs,
            tel,
            |_, &i| format!("case{i}"),
            |&i| {
                let case_seed = mix(p.seed, i as u64);
                (case_seed, run_case(&gen_case(case_seed), &cfg))
            },
        );
        for (&i, (case_seed, r)) in idxs.iter().zip(chunk) {
            results.push((i, case_seed, r));
        }
        next += chunk_len;
    }
    let elapsed = start.elapsed();

    let mut totals = CaseStats::default();
    let mut failures = Vec::new();
    for (i, case_seed, r) in &results {
        match r {
            Ok(s) => {
                totals.recoveries += s.recoveries;
                totals.faults += s.faults;
                totals.commits += s.commits;
                totals.squashes += s.squashes;
            }
            Err(f) => failures.push((*i, *case_seed, f.clone())),
        }
    }

    let mut report = String::new();
    let model_names: Vec<&str> = cfg.models.iter().map(|m| m.name()).collect();
    writeln!(report, "psb-fuzz differential report").unwrap();
    writeln!(report, "  seed           {}", p.seed).unwrap();
    writeln!(report, "  cases          {}", results.len()).unwrap();
    writeln!(
        report,
        "  models         {} ({})",
        model_names.len(),
        model_names.join(" ")
    )
    .unwrap();
    writeln!(
        report,
        "  engine         {}",
        crate::bench::engine_name(p.engine)
    )
    .unwrap();
    writeln!(
        report,
        "  injected bug   {}",
        if p.inject_recovery_bug { "yes" } else { "no" }
    )
    .unwrap();
    writeln!(report, "  recoveries     {}", totals.recoveries).unwrap();
    writeln!(report, "  faults handled {}", totals.faults).unwrap();
    writeln!(report, "  commits        {}", totals.commits).unwrap();
    writeln!(report, "  squashes       {}", totals.squashes).unwrap();
    writeln!(report, "  failures       {}", failures.len()).unwrap();

    for (i, case_seed, failure) in &failures {
        writeln!(report).unwrap();
        writeln!(report, "FAIL case {i} (seed {case_seed:#018x}): {failure}").unwrap();
        let case = gen_case(*case_seed);
        match shrink_case(&case, &cfg) {
            Some((small, small_failure)) => {
                let note = format!("{small_failure}");
                match write_repro(&p.corpus_dir, &small, Some(&note)) {
                    Ok(path) => writeln!(
                        report,
                        "  minimized to {} instructions ({}): {small_failure}",
                        small.instruction_count(),
                        path.display()
                    )
                    .unwrap(),
                    Err(e) => writeln!(report, "  corpus write failed: {e}").unwrap(),
                }
            }
            None => writeln!(report, "  did not reproduce under the shrink cycle cap").unwrap(),
        }
    }

    tel.counter("fuzz.cases", results.len() as u64);
    tel.counter("fuzz.failures", failures.len() as u64);

    eprintln!(
        "fuzz: {} cases in {:.2}s ({:.0} cases/s, {} jobs)",
        results.len(),
        elapsed.as_secs_f64(),
        results.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        p.jobs
    );
    FuzzOutcome {
        report,
        cases: results.len(),
        failures: failures.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_telemetry::NullTelemetry;

    fn quick_params() -> FuzzParams {
        FuzzParams {
            runs: 24,
            corpus_dir: std::env::temp_dir().join(format!("psb-fuzz-out-{}", std::process::id())),
            ..FuzzParams::default()
        }
    }

    #[test]
    fn report_is_byte_identical_across_job_counts() {
        let p1 = quick_params();
        let p4 = FuzzParams {
            jobs: 4,
            ..p1.clone()
        };
        let a = run_fuzz(&p1, &NullTelemetry);
        let b = run_fuzz(&p4, &NullTelemetry);
        assert_eq!(a.report, b.report);
        assert_eq!(a.failures, 0, "{}", a.report);
    }

    #[test]
    fn injected_bug_is_reported_and_minimized() {
        let dir = std::env::temp_dir().join(format!("psb-fuzz-inj-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let p = FuzzParams {
            runs: 40,
            inject_recovery_bug: true,
            corpus_dir: dir.clone(),
            ..FuzzParams::default()
        };
        let out = run_fuzz(&p, &NullTelemetry);
        assert!(
            out.failures > 0,
            "injected bug went unnoticed:\n{}",
            out.report
        );
        assert!(out.report.contains("minimized to"), "{}", out.report);
        let corpus = psb_fuzz::load_corpus(&dir).unwrap();
        assert!(!corpus.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
