//! `repro bench` — the simulator-throughput regression pipeline.
//!
//! Runs a *fixed* kernel × workload × model matrix (the four `asm/`
//! kernels plus the six synthetic workloads at pinned sizes), times each
//! phase (profile / schedule / execute), and emits a deterministic-schema
//! `BENCH.json`.  Everything the simulator computes — cycle counts,
//! commit/squash/recovery counters, iteration counts — is deterministic
//! and byte-identical across hosts and `--jobs` values; everything the
//! *host* contributes (wall time, derived throughput, peak RSS) lives in
//! `host` sub-objects that `--deterministic` zeroes out, so CI `cmp`
//! steps can diff two runs byte-for-byte.
//!
//! A checked-in baseline (`baselines/bench_baseline.json`) is compared
//! via [`check_report`]: a missing point, a schema change, or any drift
//! in the deterministic fields is a **hard failure** (the simulator
//! changed behaviour — rebaseline deliberately or fix the bug).  Wall
//! time is not gated: on shared hosts only paired runs can judge it.

use crate::json::{Json, ToJson};
use crate::runner::{parallel_map_t, workload_pair, EvalParams};
use crate::trace::RunTrace;
use psb_compile::{ArtifactCache, CacheStats, PointError, PointJob};
use psb_core::{Engine, MachineConfig, MemoryModel};
use psb_isa::ScalarProgram;
use psb_scalar::ScalarConfig;
use psb_sched::{Model, SchedConfig};
use psb_telemetry::{round_us, Telemetry};
use std::path::PathBuf;
use std::time::Instant;

/// Version stamped into `BENCH.json`; bump on any schema change (a
/// version mismatch against the baseline is a hard check failure).
/// v2: compile-phase timings come from `psb_compile::CompileStats`
/// (`host` gains `decode_seconds`; kernel points report
/// `profile_seconds` 0 because their profile is a byproduct of the
/// golden cross-check run).
/// v3: the matrix runs under a configurable memory model (`--memory`):
/// the report gains a top-level `memory` field and every point gains
/// memory-stall and cache-miss counters (all deterministic, all gated).
pub const BENCH_SCHEMA_VERSION: u64 = 3;

/// The four checked-in assembly kernels forming the kernel suite.
pub const KERNELS: [&str; 4] = ["dotprod", "gcd", "matmul", "sort"];

/// Models the kernel suite runs under (the two full predicated-buffering
/// pipelines — the paper's mechanism, and the hot path we gate).
const KERNEL_MODELS: [Model; 2] = [Model::TracePred, Model::RegionPred];

/// Models the workload points run under (one squash reference plus the
/// paper's full mechanism).
const WORKLOAD_MODELS: [Model; 2] = [Model::Squash, Model::RegionPred];

/// Parameters of one `repro bench` invocation.
#[derive(Clone, Debug)]
pub struct BenchParams {
    /// Shrink iteration counts and workload sizes for CI (`--quick`).
    pub quick: bool,
    /// Zero every host-dependent field so two runs diff byte-identically.
    pub deterministic: bool,
    /// Engines to measure (each selected engine runs every matrix point).
    pub engines: Vec<Engine>,
    /// Worker threads (1 = serial; >1 distorts per-point wall time, so CI
    /// gating runs serial).
    pub jobs: usize,
    /// Override the per-point simulated-cycle budget (`--target-cycles`).
    /// Meant for schema/determinism tests that need a fast run; throughput
    /// numbers from tiny budgets are timer noise.
    pub target_cycles: Option<u64>,
    /// Memory timing model every matrix point runs under (`--memory`;
    /// default perfect, the paper's machine).  A separate CI baseline
    /// gates the cache-model matrix so the stall machinery stays on the
    /// regression radar.
    pub memory: MemoryModel,
}

impl Default for BenchParams {
    fn default() -> BenchParams {
        BenchParams {
            quick: false,
            deterministic: false,
            engines: vec![Engine::default()],
            jobs: 1,
            target_cycles: None,
            memory: MemoryModel::Perfect,
        }
    }
}

impl BenchParams {
    /// Simulated-cycle budget per kernel point.  Iteration counts are
    /// derived as `ceil(target / cycles)`, which is deterministic because
    /// per-run cycle counts are — small kernels simply repeat more often
    /// until every point accumulates comparable, timer-stable wall time.
    fn kernel_target_cycles(&self) -> u64 {
        self.target_cycles
            .unwrap_or(if self.quick { 500_000 } else { 3_000_000 })
    }

    /// Simulated-cycle budget per workload point.
    fn workload_target_cycles(&self) -> u64 {
        self.target_cycles
            .unwrap_or(if self.quick { 500_000 } else { 2_000_000 })
    }

    fn workload_size(&self) -> usize {
        if self.quick {
            256
        } else {
            1024
        }
    }
}

/// Host-dependent measurements of one point.  All fields are zeroed by
/// `--deterministic`; `wall_seconds` is the execute-phase wall time (the
/// throughput denominator).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct HostSample {
    /// Seconds the pipeline's profile stage spent in the scalar training
    /// run (0 for kernel points, whose profile is a byproduct of the
    /// golden cross-check run, and for cache-served compiles the
    /// original compile's timing).
    pub profile_seconds: f64,
    /// Seconds spent in the scheduler.
    pub schedule_seconds: f64,
    /// Seconds spent lowering the schedule into the pre-decoded arena.
    pub decode_seconds: f64,
    /// Seconds spent simulating (all iterations of the VLIW machine).
    pub wall_seconds: f64,
    /// Simulated cycles per wall-clock second over the execute phase.
    pub cycles_per_second: f64,
}

impl ToJson for HostSample {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("profile_seconds", self.profile_seconds.to_json()),
            ("schedule_seconds", self.schedule_seconds.to_json()),
            ("decode_seconds", self.decode_seconds.to_json()),
            ("wall_seconds", self.wall_seconds.to_json()),
            ("cycles_per_second", self.cycles_per_second.to_json()),
        ])
    }
}

/// One measured matrix point.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchPoint {
    /// `"kernel"` (an `asm/` program) or `"workload"` (a generated one).
    pub kind: String,
    /// Kernel or workload name.
    pub name: String,
    /// Scheduling model name.
    pub model: String,
    /// Machine engine the point ran on.
    pub engine: String,
    /// Simulation repetitions timed: `ceil(target_cycles / cycles)`.
    /// Deterministic (derived from deterministic cycle counts); repetition
    /// only accumulates wall time, simulated state is identical each time.
    pub iterations: u64,
    /// Simulated cycles of one run — deterministic.
    pub cycles: u64,
    /// Buffered commits of one run — deterministic.
    pub commits: u64,
    /// Buffered squashes of one run — deterministic.
    pub squashes: u64,
    /// Recovery episodes of one run — deterministic.
    pub recoveries: u64,
    /// Fetch-stall cycles of one run — deterministic.
    pub stall_ifetch: u64,
    /// Load-miss stall cycles of one run — deterministic.
    pub stall_load_miss: u64,
    /// I-cache accesses / misses of one run — deterministic (0 without
    /// a cache model).
    pub icache_accesses: u64,
    /// I-cache misses of one run — deterministic.
    pub icache_misses: u64,
    /// D-cache accesses of one run — deterministic.
    pub dcache_accesses: u64,
    /// D-cache misses of one run — deterministic.
    pub dcache_misses: u64,
    /// Host-dependent timing.
    pub host: HostSample,
}

impl ToJson for BenchPoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kind", self.kind.to_json()),
            ("name", self.name.to_json()),
            ("model", self.model.to_json()),
            ("engine", self.engine.to_json()),
            ("iterations", self.iterations.to_json()),
            ("cycles", self.cycles.to_json()),
            ("commits", self.commits.to_json()),
            ("squashes", self.squashes.to_json()),
            ("recoveries", self.recoveries.to_json()),
            ("stall_ifetch", self.stall_ifetch.to_json()),
            ("stall_load_miss", self.stall_load_miss.to_json()),
            ("icache_accesses", self.icache_accesses.to_json()),
            ("icache_misses", self.icache_misses.to_json()),
            ("dcache_accesses", self.dcache_accesses.to_json()),
            ("dcache_misses", self.dcache_misses.to_json()),
            ("host", self.host.to_json()),
        ])
    }
}

/// Per-engine aggregate over the kernel suite (the ISSUE's headline
/// number: kernel-suite sim cycles per second).
#[derive(Clone, PartialEq, Debug)]
pub struct EngineAggregate {
    /// Engine name.
    pub engine: String,
    /// Total simulated cycles across all kernel iterations.
    pub sim_cycles_total: u64,
    /// Total execute-phase wall seconds (host-dependent).
    pub wall_seconds: f64,
    /// Aggregate throughput (host-dependent).
    pub cycles_per_second: f64,
}

impl ToJson for EngineAggregate {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("engine", self.engine.to_json()),
            ("sim_cycles_total", self.sim_cycles_total.to_json()),
            (
                "host",
                Json::obj(vec![
                    ("wall_seconds", self.wall_seconds.to_json()),
                    ("cycles_per_second", self.cycles_per_second.to_json()),
                ]),
            ),
        ])
    }
}

/// The whole `BENCH.json` document.
#[derive(Clone, PartialEq, Debug)]
pub struct BenchReport {
    /// `"full"` or `"quick"`.
    pub suite: String,
    /// Memory model the matrix ran under (the `--memory` spec; a
    /// mismatch against the baseline is a hard check failure — cache
    /// numbers must never be gated against a perfect-memory baseline).
    pub memory: String,
    /// All measured points, in fixed matrix order.
    pub points: Vec<BenchPoint>,
    /// Kernel-suite throughput per engine.
    pub kernel_suite: Vec<EngineAggregate>,
    /// Total simulated cycles across every point and iteration.
    pub sim_cycles_total: u64,
    /// End-to-end wall seconds of the whole bench run (host-dependent).
    pub wall_seconds_total: f64,
    /// Peak resident set size in kB (`VmHWM`; 0 off-Linux, host-dependent).
    pub peak_rss_kb: u64,
}

impl ToJson for BenchReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", BENCH_SCHEMA_VERSION.to_json()),
            ("suite", self.suite.to_json()),
            ("memory", self.memory.to_json()),
            ("points", self.points.to_json()),
            (
                "totals",
                Json::obj(vec![
                    ("sim_cycles_total", self.sim_cycles_total.to_json()),
                    ("kernel_suite", self.kernel_suite.to_json()),
                    (
                        "host",
                        Json::obj(vec![
                            ("wall_seconds_total", self.wall_seconds_total.to_json()),
                            ("peak_rss_kb", self.peak_rss_kb.to_json()),
                        ]),
                    ),
                ]),
            ),
        ])
    }
}

impl BenchReport {
    /// Zeroes every host-dependent field (the `--deterministic` contract).
    pub fn zero_host(&mut self) {
        for p in &mut self.points {
            p.host = HostSample::default();
        }
        for a in &mut self.kernel_suite {
            a.wall_seconds = 0.0;
            a.cycles_per_second = 0.0;
        }
        self.wall_seconds_total = 0.0;
        self.peak_rss_kb = 0;
    }
}

/// One point of the fixed matrix, before measurement.
struct PointSpec {
    kind: &'static str,
    name: String,
    model: Model,
    engine: Engine,
    /// Simulated-cycle budget the execute phase repeats up to.
    target_cycles: u64,
    /// Workload input size (unused for kernels, which have intrinsic
    /// sizes baked into their `.asm`).
    size: usize,
    /// Memory timing model (uniform across the matrix — see
    /// [`BenchParams::memory`]).
    memory: MemoryModel,
}

/// The stable lowercase report name of an engine (`--engine` vocabulary).
pub fn engine_name(e: Engine) -> &'static str {
    match e {
        Engine::Tabled => "tabled",
        Engine::Legacy => "legacy",
    }
}

/// Parses an `--engine` argument (`tabled`, `legacy` or `all`).
pub fn parse_engines(s: &str) -> Option<Vec<Engine>> {
    match s {
        "tabled" => Some(vec![Engine::Tabled]),
        "legacy" => Some(vec![Engine::Legacy]),
        "all" => Some(vec![Engine::Legacy, Engine::Tabled]),
        _ => None,
    }
}

/// Loads the `asm/` kernel `name` and the golden-run configuration
/// carrying its fault set (`name.cfg`).
///
/// # Panics
///
/// Panics when the kernel does not load — the suite is checked in.
pub(crate) fn load_kernel(name: &str) -> (ScalarProgram, ScalarConfig) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../asm/{name}.asm"));
    let case = psb_fuzz::load_repro(&path).unwrap_or_else(|e| panic!("kernel {name}: {e}"));
    let golden = ScalarConfig {
        fault_once_addrs: case.fault_once,
        ..ScalarConfig::default()
    };
    (case.program, golden)
}

/// `VmHWM` from `/proc/self/status` in kB; 0 where unavailable.
fn peak_rss_kb() -> u64 {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    return rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

fn run_point<T: Telemetry>(
    spec: &PointSpec,
    cache: &ArtifactCache,
    tel: &T,
    collect_guest: bool,
) -> (BenchPoint, Option<RunTrace>) {
    let fail = |e: PointError| -> ! { panic!("{}/{}: {e}", spec.name, spec.model) };
    // Kernel points self-train on their golden run's edge profile, so
    // they report `profile_seconds` 0, the profile being free.
    // Workloads train inside the pipeline on a distinct seed, like the
    // experiment harness.
    let (program, train, golden) = match spec.kind {
        "kernel" => {
            let (program, golden) = load_kernel(&spec.name);
            (program, None, golden)
        }
        _ => {
            let params = EvalParams {
                size: spec.size,
                ..EvalParams::default()
            };
            let (train, eval) = workload_pair(&spec.name, &params);
            (eval.program, Some(train.program), ScalarConfig::default())
        }
    };
    let job = PointJob::new(&program, train.as_ref(), golden).unwrap_or_else(|e| fail(e));
    let (art, _) = job
        .compile(SchedConfig::new(spec.model), cache, None, tel)
        .unwrap_or_else(|e| fail(e));

    // Execute phase: the timed loop.  Every iteration simulates the same
    // deterministic run; the first is checked against the golden model
    // so a throughput number can never come from incorrect code.
    let mcfg = job.machine_config(
        &art,
        MachineConfig {
            engine: spec.engine,
            memory: spec.memory,
            ..MachineConfig::default()
        },
    );
    let exec_start = Instant::now();
    let first = job.run(&art, mcfg.clone()).unwrap_or_else(|e| fail(e));
    let cycles = first.cycles;
    let (commits, squashes, recoveries) = (first.commits, first.squashes, first.recoveries);
    let (stall_ifetch, stall_load_miss) = (first.stall_ifetch, first.stall_load_miss);
    let (icache_accesses, icache_misses) = (first.icache_accesses, first.icache_misses);
    let (dcache_accesses, dcache_misses) = (first.dcache_accesses, first.dcache_misses);
    let iterations = spec.target_cycles.div_ceil(cycles.max(1)).max(1);
    for _ in 1..iterations {
        art.run(mcfg.clone())
            .unwrap_or_else(|e| fail(PointError::Machine(e)));
    }
    let wall_seconds = exec_start.elapsed().as_secs_f64();
    tel.observe("bench.execute_ns", (wall_seconds * 1e9) as u64);

    // An extra untimed run with event recording on, for the merged
    // host+guest `--telemetry` timeline.  Only requested for one engine
    // per matrix point — the event stream is engine-independent.
    let guest = collect_guest.then(|| {
        let gcfg = mcfg.with_events();
        let res = job.run(&art, gcfg).unwrap_or_else(|e| fail(e));
        RunTrace {
            workload: spec.name.clone(),
            model: spec.model.name().to_string(),
            cycles: res.cycles,
            events: res.events,
        }
    });

    let point = BenchPoint {
        kind: spec.kind.to_string(),
        name: spec.name.clone(),
        model: spec.model.name().to_string(),
        engine: engine_name(spec.engine).to_string(),
        iterations,
        cycles,
        commits,
        squashes,
        recoveries,
        stall_ifetch,
        stall_load_miss,
        icache_accesses,
        icache_misses,
        dcache_accesses,
        dcache_misses,
        host: HostSample {
            profile_seconds: art.stats.profile_seconds,
            schedule_seconds: art.stats.schedule_seconds,
            decode_seconds: art.stats.decode_seconds,
            wall_seconds: round_us(wall_seconds),
            cycles_per_second: round_us(cycles as f64 * iterations as f64 / wall_seconds.max(1e-9)),
        },
    };
    (point, guest)
}

/// Runs the fixed bench matrix and assembles the report, compiling each
/// point through `cache`.  Because the compile key excludes the engine
/// and the execution config, an engine sweep compiles each (program ×
/// model) point exactly once, and a repeated run on one cache (the
/// `--cache-check` smoke test) measures cache effectiveness.
///
/// Per-point task spans and compile-stage telemetry flow into `tel`, and
/// `collect_guests` additionally records one event-traced guest run per
/// matrix point of the first selected engine (for the merged
/// `--telemetry` timeline).  Guest traces come back in fixed matrix
/// order.
///
/// # Panics
///
/// Panics on any kernel load, compile, or machine failure, and on golden
/// model divergence — a bench result must never describe broken code.
pub fn run_bench<T: Telemetry>(
    params: &BenchParams,
    cache: &ArtifactCache,
    tel: &T,
    collect_guests: bool,
) -> (BenchReport, Vec<RunTrace>) {
    let mut specs = Vec::new();
    for &engine in &params.engines {
        for name in KERNELS {
            for model in KERNEL_MODELS {
                specs.push(PointSpec {
                    kind: "kernel",
                    name: name.to_string(),
                    model,
                    engine,
                    target_cycles: params.kernel_target_cycles(),
                    size: 0,
                    memory: params.memory,
                });
            }
        }
        for name in crate::runner::BENCHMARKS {
            for model in WORKLOAD_MODELS {
                specs.push(PointSpec {
                    kind: "workload",
                    name: name.to_string(),
                    model,
                    engine,
                    target_cycles: params.workload_target_cycles(),
                    size: params.workload_size(),
                    memory: params.memory,
                });
            }
        }
    }

    let start = Instant::now();
    let first_engine = params.engines.first().map(|&e| engine_name(e));
    let results = parallel_map_t(
        &specs,
        params.jobs,
        tel,
        |_, spec| {
            format!(
                "{}/{}/{}",
                spec.name,
                spec.model.name(),
                engine_name(spec.engine)
            )
        },
        |spec| {
            let collect = collect_guests && Some(engine_name(spec.engine)) == first_engine;
            run_point(spec, cache, tel, collect)
        },
    );
    let wall_seconds_total = round_us(start.elapsed().as_secs_f64());
    let mut points = Vec::with_capacity(results.len());
    let mut guests = Vec::new();
    for (p, g) in results {
        points.push(p);
        guests.extend(g);
    }

    let mut kernel_suite = Vec::new();
    for &engine in &params.engines {
        let ename = engine_name(engine);
        let mine: Vec<&BenchPoint> = points
            .iter()
            .filter(|p| p.kind == "kernel" && p.engine == ename)
            .collect();
        let sim: u64 = mine.iter().map(|p| p.cycles * p.iterations).sum();
        let wall: f64 = mine.iter().map(|p| p.host.wall_seconds).sum();
        kernel_suite.push(EngineAggregate {
            engine: ename.to_string(),
            sim_cycles_total: sim,
            wall_seconds: round_us(wall),
            cycles_per_second: round_us(sim as f64 / wall.max(1e-9)),
        });
    }
    let sim_cycles_total = points.iter().map(|p| p.cycles * p.iterations).sum();

    let mut report = BenchReport {
        suite: if params.quick { "quick" } else { "full" }.to_string(),
        memory: params.memory.to_string(),
        points,
        kernel_suite,
        sim_cycles_total,
        wall_seconds_total,
        peak_rss_kb: peak_rss_kb(),
    };
    if params.deterministic {
        report.zero_host();
    }
    (report, guests)
}

/// Result of [`cache_effectiveness_check`]: the second-pass report plus
/// the cache counters after each pass and any detected problems.
#[derive(Clone, Debug)]
pub struct CacheCheck {
    /// The second (fully cache-served) run's report.
    pub report: BenchReport,
    /// Cache counters after the first pass (all compiles are misses).
    pub first_pass: CacheStats,
    /// Cache counters after the second pass (must add only hits).
    pub second_pass: CacheStats,
    /// Hard failures; empty means the cache is effective.
    pub problems: Vec<String>,
}

/// CI smoke test for cache effectiveness: runs the bench matrix twice
/// against one shared cache and checks that the second pass compiles
/// nothing (no new artifact or profile misses, exactly one hit per
/// point) and reports byte-identically.  Only meaningful with
/// `--deterministic` params — otherwise wall timings legitimately differ
/// between passes and the byte comparison fails.  Both passes' task
/// spans and compile/cache telemetry flow into `tel`.
pub fn cache_effectiveness_check<T: Telemetry>(params: &BenchParams, tel: &T) -> CacheCheck {
    let cache = ArtifactCache::new();
    let first = run_bench(params, &cache, tel, false).0;
    let first_pass = cache.stats();
    let second = run_bench(params, &cache, tel, false).0;
    let second_pass = cache.stats();

    let mut problems = Vec::new();
    if second_pass.misses != first_pass.misses {
        problems.push(format!(
            "second pass recompiled {} artifact(s); the cache is not effective",
            second_pass.misses - first_pass.misses
        ));
    }
    if second_pass.profile_misses != first_pass.profile_misses {
        problems.push(format!(
            "second pass re-ran {} training profile(s)",
            second_pass.profile_misses - first_pass.profile_misses
        ));
    }
    let second_hits = second_pass.hits - first_pass.hits;
    let requests = second.points.len() as u64;
    if second_hits != requests {
        problems.push(format!(
            "second pass: expected {requests} cache hits (one per point), saw {second_hits}"
        ));
    }
    if first.to_json().pretty() != second.to_json().pretty() {
        problems.push("second pass produced a byte-different report".to_string());
    }
    CacheCheck {
        report: second,
        first_pass,
        second_pass,
        problems,
    }
}

/// Outcome of a baseline comparison: hard failures gate CI, notes are
/// informational.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct BenchCheck {
    /// Schema or determinism breakage — exit non-zero.
    pub failures: Vec<String>,
    /// Points the baseline lacks.
    pub notes: Vec<String>,
}

impl BenchCheck {
    /// True when nothing hard-failed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// Renders the check outcome for stderr, naming `baseline_path` in
    /// both the verdict line and every failure line — a drift report
    /// must say which file it compared against, because CI jobs check
    /// different baselines and "determinism breakage" is actionable
    /// only with the file to rebaseline.
    pub fn render(&self, baseline_path: &str) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for note in &self.notes {
            writeln!(s, "note: {note}").unwrap();
        }
        for failure in &self.failures {
            writeln!(s, "FAIL [{baseline_path}]: {failure}").unwrap();
        }
        if self.passed() {
            writeln!(s, "check vs {baseline_path}: ok").unwrap();
        } else {
            writeln!(
                s,
                "check vs {baseline_path}: FAILED ({} hard failure(s))",
                self.failures.len()
            )
            .unwrap();
        }
        s
    }
}

/// The header half of a baseline gate, shared by [`check_report`] and
/// [`check_sweep`](crate::check_sweep): each `(field, value)` the
/// current report carries must equal the baseline's `field`, or the gate
/// hard-fails.
pub(crate) fn check_header(check: &mut BenchCheck, baseline: &Json, fields: &[(&str, Json)]) {
    for (field, current) in fields {
        match baseline.get(field) {
            Some(base) if base == current => {}
            Some(base) => check.failures.push(format!(
                "{field} mismatch: baseline {}, current {}",
                base.pretty(),
                current.pretty()
            )),
            None => check.failures.push(format!("baseline has no {field}")),
        }
    }
}

/// The keyed-points half of a baseline gate, shared by [`check_report`]
/// and [`check_sweep`](crate::check_sweep).
///
/// Every point of `baseline["points"]` must appear in `current`, matched
/// on the `keys` fields, with every `counters` field equal.  An empty
/// baseline, a baseline point without its key fields, a missing point, a
/// counter the baseline point lacks and a differing counter are hard
/// failures, labelled by the point's joined key values; current points
/// the baseline lacks are a note.
pub(crate) fn check_points(
    check: &mut BenchCheck,
    baseline: &Json,
    current: &[Json],
    keys: &[&str],
    counters: &[&str],
) {
    let base_points = baseline
        .get("points")
        .and_then(Json::as_array)
        .unwrap_or_default();
    if base_points.is_empty() {
        check.failures.push("baseline has no points".to_string());
    }
    let mut matched = 0;
    for bp in base_points {
        let Some(key) = keys.iter().map(|k| bp.get(k)).collect::<Option<Vec<_>>>() else {
            check
                .failures
                .push("baseline point is missing identity fields".to_string());
            continue;
        };
        let label = key
            .iter()
            .map(|v| match v {
                Json::Str(s) => s.clone(),
                other => other.pretty(),
            })
            .collect::<Vec<_>>()
            .join("/");
        let Some(cur) = current
            .iter()
            .find(|c| keys.iter().zip(&key).all(|(k, &v)| c.get(k) == Some(v)))
        else {
            check
                .failures
                .push(format!("{label}: point missing from current run"));
            continue;
        };
        for field in counters {
            let got = cur
                .get(field)
                .and_then(Json::as_i64)
                .unwrap_or_else(|| panic!("current point lacks counter {field}"));
            match bp.get(field).and_then(Json::as_i64) {
                Some(want) if want == got => {}
                Some(want) => check.failures.push(format!(
                    "{label}: determinism breakage: {field} was {want}, now {got}"
                )),
                None => check
                    .failures
                    .push(format!("{label}: baseline point lacks {field}")),
            }
        }
        matched += 1;
    }
    if matched < current.len() {
        check.notes.push(format!(
            "{} point(s) in the current run are not in the baseline",
            current.len() - matched
        ));
    }
}

/// Compares `current` against the checked-in `baseline` document.
///
/// The schema version, suite and memory model must agree, and every
/// baseline point's deterministic counters must match exactly — anything
/// else is a hard failure.  Host timings are not compared.
pub fn check_report(current: &BenchReport, baseline: &Json) -> BenchCheck {
    let mut check = BenchCheck::default();
    check_header(
        &mut check,
        baseline,
        &[
            ("schema_version", BENCH_SCHEMA_VERSION.to_json()),
            ("suite", current.suite.to_json()),
            ("memory", current.memory.to_json()),
        ],
    );
    let points: Vec<Json> = current.points.iter().map(ToJson::to_json).collect();
    check_points(
        &mut check,
        baseline,
        &points,
        &["kind", "name", "model", "engine"],
        &[
            "iterations",
            "cycles",
            "commits",
            "squashes",
            "recoveries",
            "stall_ifetch",
            "stall_load_miss",
            "icache_accesses",
            "icache_misses",
            "dcache_accesses",
            "dcache_misses",
        ],
    );
    check
}

/// Renders a human-readable summary table (stderr companion to the JSON).
pub fn render_bench(report: &BenchReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(
        s,
        "Bench suite `{}` (memory {}): {} points, {} simulated cycles",
        report.suite,
        report.memory,
        report.points.len(),
        report.sim_cycles_total
    )
    .unwrap();
    writeln!(
        s,
        "{:<9} {:<9} {:<12} {:<10} {:>6} {:>9} {:>9} {:>12}",
        "kind", "name", "model", "engine", "iters", "cycles", "wall(s)", "cyc/s"
    )
    .unwrap();
    for p in &report.points {
        writeln!(
            s,
            "{:<9} {:<9} {:<12} {:<10} {:>6} {:>9} {:>9.4} {:>12.0}",
            p.kind,
            p.name,
            p.model,
            p.engine,
            p.iterations,
            p.cycles,
            p.host.wall_seconds,
            p.host.cycles_per_second
        )
        .unwrap();
    }
    for a in &report.kernel_suite {
        writeln!(
            s,
            "kernel suite [{}]: {} cycles in {:.4}s = {:.0} cycles/s",
            a.engine, a.sim_cycles_total, a.wall_seconds, a.cycles_per_second
        )
        .unwrap();
    }
    // Memory-stall attribution, aggregated — only when the model can
    // stall at all (perfect memory reports all-zero counters).
    let (si, sl): (u64, u64) = report.points.iter().fold((0, 0), |(a, b), p| {
        (a + p.stall_ifetch, b + p.stall_load_miss)
    });
    if si + sl > 0 {
        let (ia, im, da, dm) = report.points.iter().fold((0u64, 0u64, 0u64, 0u64), |t, p| {
            (
                t.0 + p.icache_accesses,
                t.1 + p.icache_misses,
                t.2 + p.dcache_accesses,
                t.3 + p.dcache_misses,
            )
        });
        let rate = |m: u64, a: u64| 100.0 * m as f64 / a.max(1) as f64;
        writeln!(
            s,
            "memory stalls: {si} ifetch + {sl} load-miss cycles; \
             I$ {im}/{ia} misses ({:.1}%), D$ {dm}/{da} misses ({:.1}%)",
            rate(im, ia),
            rate(dm, da)
        )
        .unwrap();
    }
    writeln!(
        s,
        "total wall {:.3}s, peak RSS {} kB",
        report.wall_seconds_total, report.peak_rss_kb
    )
    .unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_telemetry::NullTelemetry;

    fn tiny_report() -> BenchReport {
        BenchReport {
            suite: "quick".to_string(),
            memory: "perfect".to_string(),
            points: vec![BenchPoint {
                kind: "kernel".into(),
                name: "gcd".into(),
                model: "region-pred".into(),
                engine: "legacy".into(),
                iterations: 10,
                cycles: 100,
                commits: 5,
                squashes: 2,
                recoveries: 0,
                stall_ifetch: 0,
                stall_load_miss: 0,
                icache_accesses: 0,
                icache_misses: 0,
                dcache_accesses: 0,
                dcache_misses: 0,
                host: HostSample::default(),
            }],
            kernel_suite: vec![EngineAggregate {
                engine: "legacy".into(),
                sim_cycles_total: 1000,
                wall_seconds: 0.0,
                cycles_per_second: 0.0,
            }],
            sim_cycles_total: 1000,
            wall_seconds_total: 0.0,
            peak_rss_kb: 0,
        }
    }

    #[test]
    fn self_check_passes() {
        let r = tiny_report();
        let baseline = Json::parse(&r.to_json().pretty()).unwrap();
        let check = check_report(&r, &baseline);
        assert!(check.passed(), "{:?}", check.failures);
    }

    #[test]
    fn determinism_breakage_hard_fails() {
        let r = tiny_report();
        let baseline = Json::parse(&r.to_json().pretty()).unwrap();
        let mut drifted = r.clone();
        drifted.points[0].cycles = 101;
        let check = check_report(&drifted, &baseline);
        assert!(!check.passed());
        assert!(check.failures[0].contains("determinism breakage"));
    }

    #[test]
    fn missing_point_hard_fails() {
        let r = tiny_report();
        let baseline = Json::parse(&r.to_json().pretty()).unwrap();
        let missing = BenchReport {
            points: vec![],
            ..r.clone()
        };
        assert!(!check_report(&missing, &baseline).passed());
    }

    #[test]
    fn rendered_failure_names_the_baseline_path() {
        // A drift failure must say which baseline file it compared
        // against — previously only the success path printed it.
        let r = tiny_report();
        let baseline = Json::parse(&r.to_json().pretty()).unwrap();
        let mut drifted = r.clone();
        drifted.points[0].cycles = 101;
        let check = check_report(&drifted, &baseline);
        let rendered = check.render("baselines/bench_baseline.json");
        assert!(
            rendered.contains("FAIL [baselines/bench_baseline.json]: "),
            "{rendered}"
        );
        assert!(
            rendered.contains("check vs baselines/bench_baseline.json: FAILED (1 hard failure(s))"),
            "{rendered}"
        );
        // The success rendering keeps naming the file too.
        let ok = check_report(&r, &baseline).render("b.json");
        assert!(ok.contains("check vs b.json: ok\n"), "{ok}");
        assert!(!ok.contains("FAIL"), "{ok}");
    }

    #[test]
    fn header_mismatches_hard_fail() {
        // A cache-model run gated against a perfect-memory baseline (or
        // vice versa) must fail loudly, not diff counters that can never
        // match; so must another schema or suite.
        let r = tiny_report();
        let mut doc = r.to_json();
        if let Json::Object(fields) = &mut doc {
            fields[0].1 = Json::Int(999);
        }
        let failures = check_report(&r, &doc).failures;
        assert_eq!(
            failures,
            ["schema_version mismatch: baseline 999, current 3"]
        );
        let baseline = Json::parse(&r.to_json().pretty()).unwrap();
        let mut other = r.clone();
        other.memory = "cache:off:64x2x4x1x10".to_string();
        other.suite = "full".to_string();
        let failures = check_report(&other, &baseline).failures;
        assert_eq!(
            failures,
            [
                r#"suite mismatch: baseline "quick", current "full""#,
                r#"memory mismatch: baseline "perfect", current "cache:off:64x2x4x1x10""#,
            ]
        );
    }

    #[test]
    fn cache_model_point_reports_misses_and_stalls() {
        let spec = PointSpec {
            kind: "kernel",
            name: "dotprod".to_string(),
            model: Model::RegionPred,
            engine: Engine::default(),
            target_cycles: 1,
            size: 0,
            memory: MemoryModel::parse("cache:8x1x2x1x4:4x2x2x1x6").unwrap(),
        };
        let (p, _) = run_point(&spec, &ArtifactCache::new(), &NullTelemetry, false);
        assert!(p.icache_accesses > 0 && p.dcache_accesses > 0);
        assert!(p.icache_misses > 0, "cold I$ must miss");
        assert!(p.stall_ifetch > 0, "I$ misses must stall fetch");
    }

    #[test]
    fn run_point_is_repeatable() {
        // The real matrix is too slow for a unit test; exercise the
        // plumbing on the smallest kernel subset via run_point directly.
        let spec = PointSpec {
            kind: "kernel",
            name: "gcd".to_string(),
            model: Model::RegionPred,
            engine: Engine::default(),
            target_cycles: 1,
            size: 0,
            memory: MemoryModel::Perfect,
        };
        // Fresh caches so the second call exercises a full recompile,
        // not a cache hit.
        let (a, ga) = run_point(&spec, &ArtifactCache::new(), &NullTelemetry, false);
        let (b, gb) = run_point(&spec, &ArtifactCache::new(), &NullTelemetry, true);
        assert!(a.cycles > 0);
        assert_eq!(
            (a.cycles, a.commits, a.squashes),
            (b.cycles, b.commits, b.squashes)
        );
        assert!(ga.is_none());
        let guest = gb.expect("guest trace requested");
        assert_eq!(guest.cycles, b.cycles);
        assert!(!guest.events.is_empty());
    }

    #[test]
    fn cache_check_passes_on_a_tiny_deterministic_run() {
        let params = BenchParams {
            quick: true,
            deterministic: true,
            target_cycles: Some(1),
            ..BenchParams::default()
        };
        let cc = cache_effectiveness_check(&params, &NullTelemetry);
        assert!(cc.problems.is_empty(), "{:?}", cc.problems);
        assert_eq!(cc.second_pass.misses, cc.first_pass.misses);
        assert!(cc.first_pass.misses > 0);
    }
}
