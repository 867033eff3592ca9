//! The lockstep differential driver.
//!
//! One fuzz case runs through the whole toolchain for every scheduling
//! model: scalar golden execution (which also yields the edge profile the
//! schedulers train on) → [`psb_compile::compile`] → the artifact's
//! machine with an attached [`InvariantSink`].  A case passes only if
//! every model's VLIW execution reproduces `observable(live_out)` *and*
//! its event stream satisfies all online invariants — the latter catches
//! bugs that cancel out by the end of the run (a stale shadow clobbering
//! a value that is dead afterwards, a lost exception whose handler would
//! have been a no-op, …).

use crate::gen::FuzzCase;
use psb_compile::{ArtifactCache, CompileError, NullTelemetry, PointError, PointJob};
use psb_core::{CacheConfig, Engine, InvariantSink, MachineConfig, MemoryModel};
use psb_scalar::ScalarConfig;
use psb_sched::{Model, SchedConfig};
use std::fmt;

/// The memory-model rotation shared by the differential suites and the
/// nightly fuzz sweep: perfect memory, a fixed-latency bus, and small
/// I$+D$ caches (tiny on purpose, so conflict and capacity misses —
/// not just cold ones — occur on fuzz-sized programs).  The observable
/// end state is timing-independent, so every rotation step must agree
/// with the scalar golden model; what rotation buys is coverage of the
/// stall machinery the models exercise differently.
pub fn memory_rotation(k: u64) -> MemoryModel {
    match k % 3 {
        0 => MemoryModel::Perfect,
        1 => MemoryModel::FixedLatency { load: 3, fetch: 2 },
        _ => MemoryModel::Cache {
            icache: Some(CacheConfig {
                sets: 8,
                ways: 1,
                line_words: 2,
                hit_latency: 1,
                miss_latency: 4,
            }),
            dcache: Some(CacheConfig {
                sets: 4,
                ways: 2,
                line_words: 2,
                hit_latency: 1,
                miss_latency: 6,
            }),
        },
    }
}

/// Configuration of one differential run.
#[derive(Clone, Debug)]
pub struct DiffConfig {
    /// The scheduling models to drive (default: all seven).
    pub models: Vec<Model>,
    /// Activates the machine's test-only
    /// [`defer_recovery_exit_commit`](MachineConfig::defer_recovery_exit_commit)
    /// fault injection, so the harness can prove it catches the
    /// stale-shadow recovery-exit bug.
    pub inject_recovery_bug: bool,
    /// Cycle cap applied to both machines (`None` = the machines'
    /// defaults).  The shrinker sets a low cap so that a mutation which
    /// accidentally creates an infinite loop fails fast instead of
    /// spinning for the default two hundred million cycles.
    pub max_cycles: Option<u64>,
    /// The issue engine driving the VLIW side of the differential
    /// (default: [`Engine::default`]).  The nightly sweep rotates this so
    /// every engine's issue path gets long-run fuzz coverage.
    pub engine: Engine,
    /// The memory timing model on the VLIW side (default:
    /// [`MemoryModel::Perfect`]).  The nightly sweep rotates this via
    /// [`memory_rotation`]; the observable differential is
    /// timing-independent, so every model must still match the scalar
    /// golden run.
    pub memory: MemoryModel,
}

impl Default for DiffConfig {
    fn default() -> DiffConfig {
        DiffConfig {
            models: Model::ALL.to_vec(),
            inject_recovery_bug: false,
            max_cycles: None,
            engine: Engine::default(),
            memory: MemoryModel::Perfect,
        }
    }
}

/// Why a case failed.  Divergence and invariant details are captured as
/// text so reports stay deterministic; compile failures keep the typed
/// [`CompileError`] so shrinker trials can distinguish a pipeline
/// rejection from a machine divergence.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FuzzFailure {
    /// The scalar golden model itself rejected the program.
    Scalar(String),
    /// The compilation pipeline rejected the program for one model.
    Compile {
        /// The model that failed.
        model: Model,
        /// The stage-tagged pipeline error.
        error: CompileError,
    },
    /// The VLIW machine raised a hard error.
    Machine {
        /// The model whose code failed.
        model: Model,
        /// The machine error.
        message: String,
    },
    /// The observable end state diverged from the golden model.
    Diverged {
        /// The model whose code diverged.
        model: Model,
        /// Rendered expected vs got summary.
        detail: String,
    },
    /// The event stream violated an online invariant.
    Invariant {
        /// The model whose execution misbehaved.
        model: Model,
        /// Rendered violations (first few).
        detail: String,
    },
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FuzzFailure::Scalar(m) => write!(f, "scalar: {m}"),
            FuzzFailure::Compile { model, error } => write!(f, "{model}: compile: {error}"),
            FuzzFailure::Machine { model, message } => write!(f, "{model}: machine: {message}"),
            FuzzFailure::Diverged { model, detail } => write!(f, "{model}: diverged: {detail}"),
            FuzzFailure::Invariant { model, detail } => write!(f, "{model}: invariant: {detail}"),
        }
    }
}

/// Counters aggregated over all models of one passing case, used by the
/// fuzz report to show how much speculation machinery a run exercised.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CaseStats {
    /// Recovery episodes across all models.
    pub recoveries: u64,
    /// Non-fatal faults handled across all models.
    pub faults: u64,
    /// Buffered commits across all models.
    pub commits: u64,
    /// Buffered squashes across all models.
    pub squashes: u64,
}

/// Runs `case` through every configured model and checks both the
/// end-state differential and the online invariants.
///
/// # Errors
///
/// The first [`FuzzFailure`] encountered, in model order — deterministic
/// for a given case and config.
pub fn run_case(case: &FuzzCase, cfg: &DiffConfig) -> Result<CaseStats, FuzzFailure> {
    let mut golden = ScalarConfig {
        fault_once_addrs: case.fault_once.clone(),
        ..ScalarConfig::default()
    };
    if let Some(cap) = cfg.max_cycles {
        golden.max_cycles = cap;
    }
    // Self-trained: the golden run's profile guides every model's
    // schedule instead of a second scalar execution per model.
    let job = PointJob::new(&case.program, None, golden).map_err(|e| {
        FuzzFailure::Scalar(match e {
            PointError::Scalar(e) => e.to_string(),
            other => other.to_string(),
        })
    })?;

    // One cache per case: each model compiles a distinct request and no
    // two generated cases share a program.  A shrink trial that repeats a
    // candidate recompiles it; shrunk programs are small.
    let cache = ArtifactCache::new();
    let mut stats = CaseStats::default();
    for &model in &cfg.models {
        let failure = |e: PointError| match e {
            PointError::Scalar(e) => FuzzFailure::Scalar(e.to_string()),
            PointError::Compile(error) => FuzzFailure::Compile { model, error },
            PointError::Machine(e) => FuzzFailure::Machine {
                model,
                message: e.to_string(),
            },
            PointError::Diverged(detail) => FuzzFailure::Diverged { model, detail },
        };
        let (art, _) = job
            .compile(SchedConfig::new(model), &cache, None, &NullTelemetry)
            .map_err(failure)?;
        let mcfg = MachineConfig {
            defer_recovery_exit_commit: cfg.inject_recovery_bug,
            engine: cfg.engine,
            memory: cfg.memory,
            ..MachineConfig::default()
        };
        let sink = InvariantSink::new(art.program.num_conds, art.sched().single_shadow);
        let (res, mut sink) = job.run_with_sink(&art, mcfg, sink).map_err(failure)?;
        let violations = sink.finalize();
        if !violations.is_empty() {
            let detail = violations
                .iter()
                .take(3)
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            return Err(FuzzFailure::Invariant { model, detail });
        }
        job.check(&res).map_err(failure)?;
        stats.recoveries += res.recoveries;
        stats.faults += res.faults_handled;
        stats.commits += res.commits;
        stats.squashes += res.squashes;
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::gen_case;

    #[test]
    fn a_spread_of_seeds_passes_all_models() {
        let cfg = DiffConfig::default();
        let mut recoveries = 0;
        for seed in 0..30 {
            let case = gen_case(seed);
            let stats = run_case(&case, &cfg)
                .unwrap_or_else(|f| panic!("seed {seed} failed clean machine: {f}"));
            recoveries += stats.recoveries;
        }
        assert!(
            recoveries > 0,
            "no recovery episode in 30 seeds: generator too tame"
        );
    }

    #[test]
    fn rotated_memory_models_still_match_the_golden_run() {
        for k in 1..3 {
            let cfg = DiffConfig {
                memory: memory_rotation(k),
                ..DiffConfig::default()
            };
            for seed in 0..10 {
                let case = gen_case(seed);
                run_case(&case, &cfg).unwrap_or_else(|f| {
                    panic!("seed {seed} failed under {}: {f}", memory_rotation(k))
                });
            }
        }
    }

    #[test]
    fn injected_recovery_bug_is_caught() {
        let cfg = DiffConfig {
            inject_recovery_bug: true,
            ..DiffConfig::default()
        };
        let caught = (0..40).any(|seed| run_case(&gen_case(seed), &cfg).is_err());
        assert!(caught, "40 seeds survived the deferred-exit-commit bug");
    }
}
