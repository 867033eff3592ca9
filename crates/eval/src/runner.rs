//! Core measurement machinery: run one workload under one model and
//! collect cycle counts, with golden-model cross-checking.

use psb_compile::{ArtifactCache, PointError, PointJob, Ran, RunReuse};
use psb_core::{MachineConfig, MemoryModel};
use psb_isa::Resources;
use psb_scalar::{RunResult, ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use psb_telemetry::{round_us, NullTelemetry};
use psb_workloads::Workload;
use std::fmt;

use crate::json::{Json, ToJson};

/// The instrumented worker pool, re-exported from its home in
/// `psb-telemetry` (it moved there so `psb-serve` can batch request
/// execution onto the same pool without depending on the harness).
pub use psb_telemetry::{parallel_map, parallel_map_t};

/// A rejected `--jobs` value: the one typed parse error every `repro`
/// subcommand shares (0 and non-numeric are both invalid — the worker
/// pool has no meaningful "zero threads" mode; pass 1 to run serially).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobsParseError {
    /// The offending command-line token.
    pub value: String,
}

impl fmt::Display for JobsParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid --jobs value '{}': expected an integer >= 1",
            self.value
        )
    }
}

impl std::error::Error for JobsParseError {}

/// Parses a `--jobs` argument: any integer >= 1.
///
/// # Errors
///
/// [`JobsParseError`] for non-integers and for 0.
pub fn parse_jobs(value: &str) -> Result<usize, JobsParseError> {
    match value.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(JobsParseError {
            value: value.to_string(),
        }),
    }
}

/// Parameters shared by a whole experiment.
#[derive(Clone, PartialEq, Debug)]
pub struct EvalParams {
    /// Seed for the training input (profile generation).
    pub train_seed: u64,
    /// Seed for the evaluation input (measurement).
    pub eval_seed: u64,
    /// Workload size (input elements).
    pub size: usize,
    /// Machine issue width.
    pub issue_width: usize,
    /// Function-unit counts.
    pub resources: Resources,
    /// CCR entries (`K`).
    pub num_conds: usize,
    /// Allowed unresolved conditions at issue (`D`).
    pub depth: usize,
    /// Infinite-shadow ablation flag.
    pub infinite_shadow: bool,
    /// Counter-form predicate ablation flag.
    pub ordered_cond_sets: bool,
    /// Penalty cycles for taken region-exit jumps (the paper's BTB
    /// assumption makes this 0; the sensitivity sweep varies it).
    pub jump_penalty: u64,
    /// Store-buffer capacity.
    pub store_buffer: usize,
    /// Timing model the measured runs execute under ([`MemoryModel::Perfect`]
    /// reproduces the paper's single-cycle-memory assumption).
    pub memory: MemoryModel,
    /// Worker threads for experiment sweeps (1 = serial).  Simulator-side
    /// only: results are deterministic and identical for every value, so
    /// this field is deliberately excluded from the JSON serialization.
    pub jobs: usize,
}

impl Default for EvalParams {
    fn default() -> EvalParams {
        EvalParams {
            train_seed: 11,
            eval_seed: 1234,
            size: 2048,
            issue_width: 4,
            resources: Resources::paper_base(),
            num_conds: 4,
            depth: 4,
            infinite_shadow: false,
            ordered_cond_sets: false,
            jump_penalty: 0,
            store_buffer: 16,
            memory: MemoryModel::Perfect,
            jobs: 1,
        }
    }
}

impl EvalParams {
    /// A smaller configuration for fast tests and benches.
    pub fn quick() -> EvalParams {
        EvalParams {
            size: 384,
            ..EvalParams::default()
        }
    }

    pub(crate) fn sched_config(&self, model: Model) -> SchedConfig {
        SchedConfig {
            model,
            issue_width: self.issue_width,
            resources: self.resources,
            num_conds: self.num_conds,
            depth: self.depth.min(self.num_conds),
            max_blocks: 16,
            single_shadow: !self.infinite_shadow,
            ordered_cond_sets: self.ordered_cond_sets,
        }
    }

    pub(crate) fn machine_config(&self) -> MachineConfig {
        MachineConfig {
            issue_width: self.issue_width,
            resources: self.resources,
            taken_jump_penalty: self.jump_penalty,
            store_buffer_size: self.store_buffer,
            memory: self.memory,
            ..MachineConfig::default()
        }
    }
}

impl ToJson for EvalParams {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("train_seed", self.train_seed.to_json()),
            ("eval_seed", self.eval_seed.to_json()),
            ("size", self.size.to_json()),
            ("issue_width", self.issue_width.to_json()),
            ("num_conds", self.num_conds.to_json()),
            ("depth", self.depth.to_json()),
            ("infinite_shadow", self.infinite_shadow.to_json()),
            ("ordered_cond_sets", self.ordered_cond_sets.to_json()),
            ("jump_penalty", self.jump_penalty.to_json()),
            ("store_buffer", self.store_buffer.to_json()),
            ("memory", Json::Str(self.memory.to_string())),
        ])
    }
}

/// Result of one (workload, model) measurement.
#[derive(Clone, PartialEq, Debug)]
pub struct ModelResult {
    /// Model name.
    pub model: String,
    /// VLIW cycles on the evaluation input.
    pub vliw_cycles: u64,
    /// Speedup over the scalar machine.
    pub speedup: f64,
    /// Static VLIW code size in operations.
    pub static_ops: usize,
    /// Operations squashed at issue (predicate false).
    pub squashed_ops: u64,
    /// Speculative-exception recoveries taken.
    pub recoveries: u64,
    /// Cycles stalled on instruction fetch (zero under perfect memory).
    pub stall_ifetch: u64,
    /// Operand-stall cycles blocked on a D$-missing load.
    pub stall_load_miss: u64,
    /// I$ (accesses, misses) over the run.
    pub icache: (u64, u64),
    /// D$ (accesses, misses) over the run.
    pub dcache: (u64, u64),
}

impl ToJson for ModelResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("model", self.model.to_json()),
            ("vliw_cycles", self.vliw_cycles.to_json()),
            ("speedup", self.speedup.to_json()),
            ("static_ops", self.static_ops.to_json()),
            ("squashed_ops", self.squashed_ops.to_json()),
            ("recoveries", self.recoveries.to_json()),
            ("stall_ifetch", self.stall_ifetch.to_json()),
            ("stall_load_miss", self.stall_load_miss.to_json()),
            ("icache_accesses", self.icache.0.to_json()),
            ("icache_misses", self.icache.1.to_json()),
            ("dcache_accesses", self.dcache.0.to_json()),
            ("dcache_misses", self.dcache.1.to_json()),
        ])
    }
}

/// Result of one workload across several models.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchResult {
    /// Workload name.
    pub name: String,
    /// Static scalar instruction count (Table 2's "lines" analogue).
    pub static_len: usize,
    /// Scalar cycles on the evaluation input (the baseline).
    pub scalar_cycles: u64,
    /// Per-model measurements.
    pub models: Vec<ModelResult>,
}

impl ToJson for BenchResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("static_len", self.static_len.to_json()),
            ("scalar_cycles", self.scalar_cycles.to_json()),
            ("models", self.models.to_json()),
        ])
    }
}

impl BenchResult {
    /// The speedup of `model`, if measured.
    pub fn speedup_of(&self, model: Model) -> Option<f64> {
        self.models
            .iter()
            .find(|m| m.model == model.name())
            .map(|m| m.speedup)
    }
}

/// Runs the scalar machine on a workload and returns the run result.
///
/// # Panics
///
/// Panics if the kernel faults or exceeds the cycle limit — workload
/// kernels are fault-free by construction.
pub fn run_scalar(w: &Workload) -> RunResult {
    ScalarMachine::new(&w.program, ScalarConfig::default())
        .run()
        .unwrap_or_else(|e| panic!("{}: scalar run failed: {e}", w.name))
}

/// The training and evaluation programs of workload `name`, generated
/// at `params`' two seeds and size.
///
/// # Panics
///
/// Panics on an unknown workload name.
pub(crate) fn workload_pair(name: &str, params: &EvalParams) -> (Workload, Workload) {
    let gen = |seed| {
        psb_workloads::by_name(name, seed, params.size)
            .unwrap_or_else(|| panic!("unknown workload {name}"))
    };
    (gen(params.train_seed), gen(params.eval_seed))
}

/// Runs `models` over one named workload (training and evaluation inputs
/// from the two seeds) as one point job, compiling through `cache`.
///
/// # Panics
///
/// Panics if the golden run or a compile fails, the machine faults, or a
/// run diverges from the golden model — all indicate bugs, not
/// measurement noise.
pub fn run_workload(
    name: &str,
    models: &[Model],
    params: &EvalParams,
    cache: &ArtifactCache,
) -> BenchResult {
    let points: Vec<_> = models.iter().map(|&m| (m, params.clone())).collect();
    run_points(&workload_pair(name, params), &points, cache).0
}

/// Runs every `(model, params)` point on one workload pair as one point
/// job: a single golden run of the evaluation program, then a compile
/// and a golden-checked machine run per point, except that a point whose
/// run would repeat an earlier point's (an equal program under a
/// configuration that run carries over to; see [`RunReuse`]) takes that
/// point's counters.  `models[i]` of the result is point `i`; the count
/// is how many points were simulated.
///
/// # Panics
///
/// As [`run_workload`].
pub(crate) fn run_points(
    (train, eval): &(Workload, Workload),
    points: &[(Model, EvalParams)],
    cache: &ArtifactCache,
) -> (BenchResult, usize) {
    let name = eval.name;
    let job = PointJob::new(&eval.program, Some(&train.program), ScalarConfig::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    let mut runs = RunReuse::default();
    let mut models: Vec<ModelResult> = Vec::with_capacity(points.len());
    for &(model, ref params) in points {
        let fail = |e: PointError| -> ! { panic!("{name}/{model}: {e}") };
        let (art, _) = job
            .compile(params.sched_config(model), cache, None, &NullTelemetry)
            .unwrap_or_else(|e| fail(e));
        let ran = job
            .run_reusing(&art, params.machine_config(), &mut runs)
            .unwrap_or_else(|e| fail(e));
        let result = match ran {
            Ran::Took(earlier) => ModelResult {
                model: model.name().to_string(),
                ..models[earlier].clone()
            },
            Ran::Simulated(res) => ModelResult {
                model: model.name().to_string(),
                vliw_cycles: res.cycles,
                speedup: job.golden().cycles as f64 / res.cycles as f64,
                static_ops: art.program.static_ops(),
                squashed_ops: res.ops_squashed,
                recoveries: res.recoveries,
                stall_ifetch: res.stall_ifetch,
                stall_load_miss: res.stall_load_miss,
                icache: (res.icache_accesses, res.icache_misses),
                dcache: (res.dcache_accesses, res.dcache_misses),
            },
        };
        models.push(result);
    }
    let bench = BenchResult {
        name: name.to_string(),
        static_len: eval.program.static_len(),
        scalar_cycles: job.golden().cycles,
        models,
    };
    (bench, runs.simulated())
}

/// Runs an experiment's `(model, params)` points on every benchmark, one
/// benchmark per task of `params.jobs` workers, so each benchmark's
/// workload pair is generated and its golden run taken once however many
/// points share them.  Entry `b`'s `models[i]` is point `i` on
/// `BENCHMARKS[b]`.
///
/// # Panics
///
/// Panics if a point's seeds or size differ from `params`' (it would
/// need another workload pair), and as [`run_workload`].
pub(crate) fn run_grid(
    params: &EvalParams,
    points: &[(Model, EvalParams)],
    cache: &ArtifactCache,
) -> Vec<BenchResult> {
    let pair_of = |p: &EvalParams| (p.train_seed, p.eval_seed, p.size);
    for (model, p) in points {
        assert_eq!(pair_of(p), pair_of(params), "{model} point off the grid");
    }
    parallel_map(&BENCHMARKS, params.jobs, |name| {
        run_points(&workload_pair(name, params), points, cache).0
    })
}

/// Point `i`'s speedup on every benchmark of a [`run_grid`] result.
pub(crate) fn point_speedups(benches: &[BenchResult], i: usize) -> Vec<f64> {
    benches.iter().map(|b| b.models[i].speedup).collect()
}

/// The paper's six benchmark names in Table 2 order.
pub const BENCHMARKS: [&str; 6] = ["compress", "eqntott", "espresso", "grep", "li", "nroff"];

/// Host-dependent timing of one metrics run, grouped so `--deterministic`
/// can zero it out wholesale and leave the rest of the record
/// byte-comparable across hosts and runs.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct MetricsHost {
    /// Wall-clock seconds for the VLIW simulation (schedule + profile
    /// excluded), rounded to microsecond precision so serialized metrics
    /// diff cleanly between runs.
    pub wall_seconds: f64,
}

/// Simulator-throughput metrics for one (workload, model) run.
///
/// Unlike the experiment results, these include wall-clock timing, so they
/// vary run to run and are reported by a dedicated `repro metrics`
/// subcommand rather than mixed into the comparable experiment JSON.
/// Every host-dependent value lives under [`RunMetrics::host`]; the
/// remaining fields are deterministic.
#[derive(Clone, PartialEq, Debug)]
pub struct RunMetrics {
    /// Workload name.
    pub workload: String,
    /// Scheduling model.
    pub model: String,
    /// Simulated machine cycles.
    pub cycles: u64,
    /// Buffered speculative entries committed into sequential state.
    pub commits: u64,
    /// Buffered speculative entries squashed.
    pub squashes: u64,
    /// Speculative-exception recoveries taken.
    pub recoveries: u64,
    /// Host-dependent timing (zeroed by `--deterministic`).
    pub host: MetricsHost,
}

impl RunMetrics {
    /// Simulated cycles per wall-clock second — always derived from the
    /// stored (rounded) wall time, never carried as a separate field, so
    /// the two can't disagree.
    pub fn cycles_per_second(&self) -> f64 {
        self.cycles as f64 / self.host.wall_seconds.max(1e-9)
    }

    /// Zeroes the host-dependent sub-object (the `--deterministic`
    /// contract used by CI `cmp` steps).
    pub fn zero_host(&mut self) {
        self.host = MetricsHost::default();
    }
}

impl ToJson for RunMetrics {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", self.workload.to_json()),
            ("model", self.model.to_json()),
            ("cycles", self.cycles.to_json()),
            ("commits", self.commits.to_json()),
            ("squashes", self.squashes.to_json()),
            ("recoveries", self.recoveries.to_json()),
            (
                "host",
                Json::obj(vec![
                    ("wall_seconds", self.host.wall_seconds.to_json()),
                    ("cycles_per_second", self.cycles_per_second().to_json()),
                ]),
            ),
        ])
    }
}

/// Times the VLIW simulation of every (benchmark × model) point and
/// reports per-run [`RunMetrics`], fanned out over `params.jobs` threads.
pub fn measure_metrics(models: &[Model], params: &EvalParams) -> Vec<RunMetrics> {
    let points: Vec<(&str, Model)> = BENCHMARKS
        .iter()
        .flat_map(|&n| models.iter().map(move |&m| (n, m)))
        .collect();
    let cache = ArtifactCache::new();
    parallel_map(&points, params.jobs, |&(name, model)| {
        let fail = |e: PointError| -> ! { panic!("{name}/{model}: {e}") };
        let (train, eval) = workload_pair(name, params);
        let job = PointJob::new(&eval.program, Some(&train.program), ScalarConfig::default())
            .unwrap_or_else(|e| fail(e));
        let (art, _) = job
            .compile(params.sched_config(model), &cache, None, &NullTelemetry)
            .unwrap_or_else(|e| fail(e));
        // Only the machine run is timed, not the golden check after it.
        let cfg = job.machine_config(&art, params.machine_config());
        let start = std::time::Instant::now();
        let res = art
            .run(cfg)
            .unwrap_or_else(|e| fail(PointError::Machine(e)));
        let wall = start.elapsed().as_secs_f64();
        job.check(&res).unwrap_or_else(|e| fail(e));
        RunMetrics {
            workload: name.to_string(),
            model: model.name().to_string(),
            cycles: res.cycles,
            commits: res.commits,
            squashes: res.squashes,
            recoveries: res.recoveries,
            host: MetricsHost {
                wall_seconds: round_us(wall),
            },
        }
    })
}

/// Geometric mean of a slice (1.0 for an empty slice).
pub fn geometric_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 1.0;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_reexport_preserves_order() {
        // The pool's own unit tests live in psb-telemetry; this pins the
        // re-export path the experiment code compiles against.
        let items: Vec<u64> = (0..32).collect();
        let serial = parallel_map(&items, 1, |&x| x * x);
        assert_eq!(parallel_map(&items, 4, |&x| x * x), serial);
    }

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs("32"), Ok(32));
        for bad in ["0", "-1", "", "four", "1.5"] {
            let err = parse_jobs(bad).expect_err(bad);
            assert_eq!(err.value, bad);
            assert!(err.to_string().contains(bad));
        }
    }

    #[test]
    fn geomean_basics() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geometric_mean(&[]), 1.0);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn a_grid_matches_one_run_workload_per_point() {
        let params = EvalParams {
            size: 96,
            ..EvalParams::default()
        };
        let points: Vec<(Model, EvalParams)> = [(2, 1), (2, 4), (4, 1), (4, 4)]
            .into_iter()
            .map(|(width, depth)| {
                let p = EvalParams {
                    issue_width: width,
                    resources: Resources::full_issue(width),
                    num_conds: 8,
                    depth,
                    ..params.clone()
                };
                (Model::RegionPred, p)
            })
            .collect();
        let (grid_cache, point_cache) = (ArtifactCache::new(), ArtifactCache::new());
        let grid = run_grid(&params, &points, &grid_cache);
        assert_eq!(grid.len(), BENCHMARKS.len());
        for (bench, name) in grid.iter().zip(BENCHMARKS) {
            for (i, (model, p)) in points.iter().enumerate() {
                let one = run_workload(name, &[*model], p, &point_cache);
                assert_eq!(bench.models[i], one.models[0], "{name} point {i}");
                assert_eq!(
                    (&bench.name, bench.static_len, bench.scalar_cycles),
                    (&one.name, one.static_len, one.scalar_cycles)
                );
            }
        }
        let (g, p) = (grid_cache.stats(), point_cache.stats());
        assert_eq!((g.misses, g.profile_misses), (p.misses, p.profile_misses));
        assert_eq!((g.misses, g.profile_misses), (24, 6));
    }

    #[test]
    fn an_identical_point_takes_the_earlier_result() {
        let params = EvalParams {
            size: 96,
            ..EvalParams::default()
        };
        // Three pairs, each simulated once: a repeat that differs only in
        // a field neither configuration reads; two speculation depths
        // that compile to one program (Figure 8's saturation); and two
        // issue widths with the same function units, where the units
        // bind first, so the schedules are equal and only admission
        // reads the width.
        let depth = |depth| EvalParams {
            resources: Resources::full_issue(4),
            num_conds: 8,
            depth,
            ..params.clone()
        };
        let width = |issue_width| EvalParams {
            issue_width,
            jump_penalty: 2,
            ..params.clone()
        };
        let pairs = [
            [
                params.clone(),
                EvalParams {
                    jobs: 4,
                    ..params.clone()
                },
            ],
            [depth(2), depth(4)],
            [width(4), width(8)],
        ];
        let points: Vec<_> = pairs
            .iter()
            .flatten()
            .map(|p| (Model::RegionPred, p.clone()))
            .collect();
        let cache = ArtifactCache::new();
        let (res, simulated) = run_points(&workload_pair("li", &params), &points, &cache);
        assert_eq!(simulated, pairs.len(), "one simulation per pair");
        for (i, (model, p)) in points.iter().enumerate() {
            let alone = run_workload("li", &[*model], p, &ArtifactCache::new());
            assert_eq!(res.models[i], alone.models[0], "point {i}");
        }
        // Each point compiles; the repeat and the 4-wide penalty point
        // hit the first point's artifact.
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (4, 2));
    }

    #[test]
    #[should_panic(expected = "region-pred point off the grid")]
    fn a_grid_point_needs_the_experiments_workload_pair() {
        let params = EvalParams::quick();
        let other = EvalParams {
            eval_seed: params.eval_seed + 1,
            ..params.clone()
        };
        run_grid(
            &params,
            &[(Model::RegionPred, other)],
            &ArtifactCache::new(),
        );
    }

    #[test]
    fn run_one_model_produces_speedup() {
        let params = EvalParams::quick();
        let cache = ArtifactCache::new();
        let res = run_workload("grep", &[Model::RegionPred], &params, &cache);
        assert_eq!(res.models.len(), 1);
        assert!(
            res.models[0].speedup > 1.0,
            "region predicating must beat scalar"
        );
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 0));
    }
}
