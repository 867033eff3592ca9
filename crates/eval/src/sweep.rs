//! `repro sweep` — batched lockstep design-space sweeps with a
//! deterministic, gateable report.
//!
//! The paper could only sample its (issue-width × buffer-depth ×
//! load-latency × model) design space; `repro sweep` explores a
//! configurable grid of it exhaustively.  Each (kernel × model) pair
//! compiles exactly once — the compile key deliberately excludes
//! `MachineConfig`, so one artifact serves the whole machine grid — and
//! the grid's configurations then run as lanes of a
//! [`BatchedMachine`](psb_core::BatchedMachine): one shared decoded
//! arena, lockstep stepping, independent lane retirement.
//!
//! Every sweep run also measures the *point-at-a-time* baseline — the
//! full single-point pipeline this repo's point runners execute per
//! point (kernel load, golden scalar run, artifact-cache lookup, solo
//! machine, golden cross-check), exactly what sweeping the grid through
//! `repro bench`'s point runner or the experiments' `run_workload`
//! costs — over the same grid, records the aggregate speedup in the
//! report's host section, and holds every lane's [`VliwResult`]
//! byte-equal to its solo run — a sweep number can never come from a
//! divergent lane.
//!
//! The report follows the `BENCH.json` determinism contract: simulated
//! counters are byte-identical across hosts and `--jobs` values; wall
//! times and the derived speedup live in `host` objects that
//! `--deterministic` zeroes, so CI can `cmp` two runs and gate counter
//! drift against `baselines/sweep_baseline.json` via [`check_sweep`].

use crate::bench::{asm_dir, BenchCheck};
use crate::json::{Json, ToJson};
use crate::runner::parallel_map;
use crate::trace::parse_model;
use psb_compile::{compile, ArtifactCache, CompileRequest, ProfileSource};
use psb_core::{CacheConfig, MachineConfig, MemoryModel, NullSink, ShadowMode, VliwResult};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use psb_telemetry::round_us;
use std::time::Instant;

/// Version string stamped into the sweep report; a mismatch against the
/// baseline is a hard check failure.
/// v2: the commit-scan dimension is gone from the grid and the point
/// key (every lane runs the default indexed scan, which is
/// architecturally identical to the naive reference).
pub const SWEEP_SCHEMA_VERSION: &str = "psb-sweep-v2";

/// Timed-phase repetitions per artifact; the report keeps the fastest
/// wall sample of each phase.
const MEASURE_REPS: usize = 7;

/// Pipeline executions per timed sample.  The per-artifact phases are
/// sub-millisecond; stretching each sample over several executions
/// keeps scheduler jitter from dominating a single `Instant` window.
const MEASURE_INNER: u32 = 3;

/// The stable report name of a cache axis value: `"off"` or the
/// `SETSxWAYSxLINExHITxMISS` spec.
fn cache_axis_name(c: &Option<CacheConfig>) -> String {
    match c {
        None => "off".to_string(),
        Some(c) => c.to_string(),
    }
}

fn parse_cache_axis(v: &str) -> Result<Option<CacheConfig>, String> {
    if v == "off" {
        return Ok(None);
    }
    CacheConfig::parse(v).map(Some)
}

/// The design-space grid one sweep explores.  The machine dimensions
/// (width × sb × latency × icache × dcache) form the lane set of every
/// (kernel × model) artifact; their cross product is the sweep's point
/// count.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepGrid {
    /// Kernel programs (names under `asm/`).
    pub kernels: Vec<String>,
    /// Scheduling models (compile-time dimension: one artifact each).
    pub models: Vec<Model>,
    /// Issue widths, realised as full-issue machines (Figure 8's axis).
    pub widths: Vec<usize>,
    /// Store-buffer depths.
    pub sb: Vec<usize>,
    /// Load latencies in cycles.  Only meaningful for `off`-cache lanes
    /// (perfect memory); a lane with any cache takes its load and fetch
    /// timing from the cache specs instead.
    pub latencies: Vec<u64>,
    /// Instruction-cache axis: `None` = off (single-cycle fetch), or a
    /// parameterized cache.
    pub icaches: Vec<Option<CacheConfig>>,
    /// Data-cache axis: `None` = off, or a parameterized cache.
    pub dcaches: Vec<Option<CacheConfig>>,
    /// Maximum lanes per lockstep batch; a grid larger than this runs
    /// in successive batches.
    pub batch_width: usize,
}

/// One machine-grid lane: the cross product element of the sweep's
/// machine dimensions, in report order.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct LaneAxis {
    /// Issue width.
    pub width: usize,
    /// Store-buffer depth.
    pub sb: usize,
    /// Load latency (perfect-memory lanes only).
    pub latency: u64,
    /// Instruction cache, or `None` for single-cycle fetch.
    pub icache: Option<CacheConfig>,
    /// Data cache, or `None` for fixed-latency loads.
    pub dcache: Option<CacheConfig>,
}

impl LaneAxis {
    /// The lane's memory model: perfect when both caches are off (so
    /// cache-free grids reproduce the paper's fixed-latency timing
    /// bit-for-bit), the parameterized hierarchy otherwise.
    pub fn memory(&self) -> MemoryModel {
        if self.icache.is_none() && self.dcache.is_none() {
            MemoryModel::Perfect
        } else {
            MemoryModel::Cache {
                icache: self.icache,
                dcache: self.dcache,
            }
        }
    }
}

impl SweepGrid {
    /// The CI quick grid: 4 machine configs × 8 artifacts = 32 points.
    pub fn quick() -> SweepGrid {
        SweepGrid {
            kernels: crate::KERNELS.iter().map(|k| k.to_string()).collect(),
            models: vec![Model::RegionPred, Model::TracePred],
            widths: vec![4],
            sb: vec![4, 16],
            latencies: vec![2, 4],
            icaches: vec![None],
            dcaches: vec![None],
            batch_width: 8,
        }
    }

    /// The default full grid: 24 machine configs × 8 artifacts = 192
    /// points.
    pub fn full() -> SweepGrid {
        SweepGrid {
            widths: vec![4, 8],
            sb: vec![2, 4, 8, 16],
            latencies: vec![2, 3, 4],
            batch_width: 16,
            ..SweepGrid::quick()
        }
    }

    /// The machine-dimension cross product, in fixed nesting order
    /// (width, then sb, then latency, then icache, then dcache) — the
    /// lane order of every batch and the point order of the report.
    pub fn lane_axes(&self) -> Vec<LaneAxis> {
        let mut axes = Vec::new();
        for &w in &self.widths {
            for &sb in &self.sb {
                for &lat in &self.latencies {
                    for &ic in &self.icaches {
                        for &dc in &self.dcaches {
                            axes.push(LaneAxis {
                                width: w,
                                sb,
                                latency: lat,
                                icache: ic,
                                dcache: dc,
                            });
                        }
                    }
                }
            }
        }
        axes
    }
}

impl ToJson for SweepGrid {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernels", self.kernels.to_json()),
            (
                "models",
                Json::Array(
                    self.models
                        .iter()
                        .map(|m| m.name().to_json())
                        .collect::<Vec<_>>(),
                ),
            ),
            ("widths", self.widths.to_json()),
            ("sb", self.sb.to_json()),
            ("latencies", self.latencies.to_json()),
            (
                "icaches",
                Json::Array(
                    self.icaches
                        .iter()
                        .map(|c| cache_axis_name(c).to_json())
                        .collect::<Vec<_>>(),
                ),
            ),
            (
                "dcaches",
                Json::Array(
                    self.dcaches
                        .iter()
                        .map(|c| cache_axis_name(c).to_json())
                        .collect::<Vec<_>>(),
                ),
            ),
            ("batch_width", self.batch_width.to_json()),
        ])
    }
}

/// Parses a `--grid` spec on top of `base`, overriding only the named
/// dimensions.  The spec is `dim=v1,v2[;dim=...]` with dimensions
/// `kernel`, `model`, `width`, `sb`, `latency`, `icache`, `dcache` and
/// `batch` (e.g. `"width=4,8;sb=2,16;latency=2,4;model=all"`).
///
/// Numeric dimensions also accept ranges: `lo..hi` enumerates every
/// value (inclusive) and `lo..hi:pow2` doubles from `lo` while within
/// `hi` — `sb=1..64:pow2` is `1,2,4,8,16,32,64` and `latency=1..8` is
/// all eight.  Ranges and plain values mix freely in one list.
///
/// The cache dimensions take `off` or a `SETSxWAYSxLINExHITxMISS` spec
/// (e.g. `dcache=off,64x2x4x1x10`); every icache × dcache combination
/// becomes a lane.
///
/// # Errors
///
/// A ready-to-print message for the first unknown dimension, unknown
/// value, or empty value list.
pub fn parse_grid(spec: &str, base: SweepGrid) -> Result<SweepGrid, String> {
    let mut grid = base;
    for part in spec.split(';').filter(|p| !p.is_empty()) {
        let (dim, vals) = part
            .split_once('=')
            .ok_or_else(|| format!("grid dimension `{part}` is not dim=v1,v2"))?;
        let vals: Vec<&str> = vals.split(',').filter(|v| !v.is_empty()).collect();
        if vals.is_empty() {
            return Err(format!("grid dimension `{dim}` has no values"));
        }
        /// Expands one list entry: a plain number, `lo..hi`, or
        /// `lo..hi:pow2`.
        fn expand(dim: &str, v: &str, min: u64) -> Result<Vec<u64>, String> {
            let Some((lo, rest)) = v.split_once("..") else {
                return v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= min)
                    .map(|n| vec![n])
                    .ok_or_else(|| format!("grid `{dim}` needs numbers >= {min}, got `{v}`"));
            };
            let (hi, pow2) = match rest.split_once(':') {
                None => (rest, false),
                Some((h, "pow2")) => (h, true),
                Some((_, step)) => {
                    return Err(format!(
                        "grid `{dim}` range step `{step}` unknown (only `pow2`)"
                    ))
                }
            };
            let parse = |s: &str| {
                s.parse::<u64>()
                    .ok()
                    .filter(|&n| n >= min)
                    .ok_or_else(|| format!("grid `{dim}` needs numbers >= {min}, got `{s}`"))
            };
            let (lo, hi) = (parse(lo)?, parse(hi)?);
            if lo > hi {
                return Err(format!("grid `{dim}` range `{v}` is empty (lo > hi)"));
            }
            if !pow2 && hi - lo >= 1024 {
                return Err(format!(
                    "grid `{dim}` range `{v}` spans {} values; cap is 1024",
                    hi - lo + 1
                ));
            }
            let mut out = Vec::new();
            if pow2 {
                let mut n = lo;
                while n <= hi {
                    out.push(n);
                    match n.checked_mul(2) {
                        Some(next) => n = next,
                        None => break,
                    }
                }
            } else {
                out.extend(lo..=hi);
            }
            Ok(out)
        }
        fn nums<T: TryFrom<u64>>(dim: &str, vals: &[&str], min: u64) -> Result<Vec<T>, String> {
            let mut out = Vec::new();
            for v in vals {
                for n in expand(dim, v, min)? {
                    out.push(T::try_from(n).map_err(|_| {
                        format!("grid `{dim}` value {n} is out of range for the dimension")
                    })?);
                }
            }
            Ok(out)
        }
        match dim {
            "kernel" => {
                grid.kernels = vals
                    .iter()
                    .map(|v| {
                        if crate::KERNELS.contains(v) {
                            Ok(v.to_string())
                        } else {
                            Err(format!("grid kernel `{v}` is not in asm/"))
                        }
                    })
                    .collect::<Result<_, _>>()?;
            }
            "model" => {
                if vals == ["all"] {
                    grid.models = Model::ALL.to_vec();
                } else {
                    grid.models = vals
                        .iter()
                        .map(|v| parse_model(v).ok_or_else(|| format!("grid model `{v}` unknown")))
                        .collect::<Result<_, _>>()?;
                }
            }
            "width" => grid.widths = nums("width", &vals, 1)?,
            "sb" => grid.sb = nums("sb", &vals, 1)?,
            "latency" => grid.latencies = nums("latency", &vals, 1)?,
            "icache" => {
                grid.icaches = vals
                    .iter()
                    .map(|v| parse_cache_axis(v).map_err(|e| format!("grid icache `{v}`: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "dcache" => {
                grid.dcaches = vals
                    .iter()
                    .map(|v| parse_cache_axis(v).map_err(|e| format!("grid dcache `{v}`: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "batch" => {
                let b: Vec<usize> = nums("batch", &vals, 1)?;
                if b.len() != 1 {
                    return Err("grid `batch` takes exactly one value".to_string());
                }
                grid.batch_width = b[0];
            }
            other => return Err(format!("unknown grid dimension `{other}`")),
        }
    }
    Ok(grid)
}

/// Parameters of one `repro sweep` invocation.
#[derive(Clone, Debug)]
pub struct SweepParams {
    /// `"quick"`/`"full"` suite tag (grid defaults follow it).
    pub quick: bool,
    /// Zero every host-dependent field so two runs diff byte-identically.
    pub deterministic: bool,
    /// Worker threads over (kernel × model) artifact units; the report
    /// is byte-identical for every value.
    pub jobs: usize,
    /// The grid to sweep.
    pub grid: SweepGrid,
}

/// One measured design point: a machine configuration of one compiled
/// artifact.  All fields are deterministic.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepPoint {
    /// Kernel name.
    pub kernel: String,
    /// Scheduling model name.
    pub model: String,
    /// Issue width (full-issue resources).
    pub width: usize,
    /// Store-buffer depth.
    pub sb: usize,
    /// Load latency in cycles.
    pub latency: u64,
    /// Instruction-cache axis name (`"off"` or the spec).
    pub icache: String,
    /// Data-cache axis name (`"off"` or the spec).
    pub dcache: String,
    /// Total cycles.
    pub cycles: u64,
    /// Words issued.
    pub words_issued: u64,
    /// Buffered commits.
    pub commits: u64,
    /// Buffered squashes.
    pub squashes: u64,
    /// Recovery episodes.
    pub recoveries: u64,
    /// Operand stall cycles.
    pub stall_operand: u64,
    /// Store-buffer-full stall cycles.
    pub stall_sb_full: u64,
    /// Instruction-fetch stall cycles.
    pub stall_ifetch: u64,
    /// Stall cycles charged to an outstanding data-cache miss.
    pub stall_load_miss: u64,
    /// I$ accesses (0 when the icache axis is off).
    pub icache_accesses: u64,
    /// I$ misses.
    pub icache_misses: u64,
    /// D$ accesses (0 when the dcache axis is off).
    pub dcache_accesses: u64,
    /// D$ misses.
    pub dcache_misses: u64,
}

/// The deterministic counters compared exactly by [`check_sweep`].
const POINT_COUNTERS: [&str; 13] = [
    "cycles",
    "words_issued",
    "commits",
    "squashes",
    "recoveries",
    "stall_operand",
    "stall_sb_full",
    "stall_ifetch",
    "stall_load_miss",
    "icache_accesses",
    "icache_misses",
    "dcache_accesses",
    "dcache_misses",
];

impl SweepPoint {
    fn counter(&self, field: &str) -> u64 {
        match field {
            "cycles" => self.cycles,
            "words_issued" => self.words_issued,
            "commits" => self.commits,
            "squashes" => self.squashes,
            "recoveries" => self.recoveries,
            "stall_operand" => self.stall_operand,
            "stall_sb_full" => self.stall_sb_full,
            "stall_ifetch" => self.stall_ifetch,
            "stall_load_miss" => self.stall_load_miss,
            "icache_accesses" => self.icache_accesses,
            "icache_misses" => self.icache_misses,
            "dcache_accesses" => self.dcache_accesses,
            "dcache_misses" => self.dcache_misses,
            _ => unreachable!("unknown sweep counter {field}"),
        }
    }
}

impl ToJson for SweepPoint {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", self.kernel.to_json()),
            ("model", self.model.to_json()),
            ("width", self.width.to_json()),
            ("sb", self.sb.to_json()),
            ("latency", self.latency.to_json()),
            ("icache", self.icache.to_json()),
            ("dcache", self.dcache.to_json()),
            ("cycles", self.cycles.to_json()),
            ("words_issued", self.words_issued.to_json()),
            ("commits", self.commits.to_json()),
            ("squashes", self.squashes.to_json()),
            ("recoveries", self.recoveries.to_json()),
            ("stall_operand", self.stall_operand.to_json()),
            ("stall_sb_full", self.stall_sb_full.to_json()),
            ("stall_ifetch", self.stall_ifetch.to_json()),
            ("stall_load_miss", self.stall_load_miss.to_json()),
            ("icache_accesses", self.icache_accesses.to_json()),
            ("icache_misses", self.icache_misses.to_json()),
            ("dcache_accesses", self.dcache_accesses.to_json()),
            ("dcache_misses", self.dcache_misses.to_json()),
        ])
    }
}

/// Host-dependent timings of a batched-vs-solo comparison; zeroed by
/// `--deterministic`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct SweepHost {
    /// Wall seconds of the batched lockstep phase (per-chunk cache
    /// lookup + lockstep run of all lanes).
    pub batched_wall_seconds: f64,
    /// Wall seconds of the point-at-a-time phase (per-point cache
    /// lookup + solo run), over the same configurations.
    pub solo_wall_seconds: f64,
    /// `solo / batched` — aggregate sim-throughput gain of batching.
    pub speedup: f64,
}

impl ToJson for SweepHost {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("batched_wall_seconds", self.batched_wall_seconds.to_json()),
            ("solo_wall_seconds", self.solo_wall_seconds.to_json()),
            ("speedup", self.speedup.to_json()),
        ])
    }
}

/// Per-artifact (kernel × model) batched-vs-solo accounting.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepArtifact {
    /// Kernel name.
    pub kernel: String,
    /// Scheduling model name.
    pub model: String,
    /// Lanes run (the machine-grid size).
    pub lanes: u64,
    /// Lockstep iterations over all batches of this artifact.
    pub batch_cycles: u64,
    /// Architectural cycles stepped across all lanes.
    pub lane_cycles: u64,
    /// Host-dependent timings.
    pub host: SweepHost,
}

impl ToJson for SweepArtifact {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("kernel", self.kernel.to_json()),
            ("model", self.model.to_json()),
            ("lanes", self.lanes.to_json()),
            ("batch_cycles", self.batch_cycles.to_json()),
            ("lane_cycles", self.lane_cycles.to_json()),
            ("host", self.host.to_json()),
        ])
    }
}

/// The whole sweep report (`psb-sweep-v2`).
#[derive(Clone, PartialEq, Debug)]
pub struct SweepReport {
    /// `"full"` or `"quick"`.
    pub suite: String,
    /// The grid that was swept (echoed so the baseline pins it).
    pub grid: SweepGrid,
    /// Every design point, in fixed (kernel, model, lane-axis) order.
    pub points: Vec<SweepPoint>,
    /// Per-artifact batched-vs-solo rows.
    pub artifacts: Vec<SweepArtifact>,
    /// Total design points (`artifacts × lanes`).
    pub lanes_total: u64,
    /// Total simulated cycles across every point (one run each).
    pub sim_cycles_total: u64,
    /// Aggregate host timings and speedup across all artifacts.
    pub host: SweepHost,
}

impl ToJson for SweepReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", SWEEP_SCHEMA_VERSION.to_json()),
            ("suite", self.suite.to_json()),
            ("grid", self.grid.to_json()),
            ("points", self.points.to_json()),
            ("artifacts", self.artifacts.to_json()),
            (
                "totals",
                Json::obj(vec![
                    ("lanes_total", self.lanes_total.to_json()),
                    ("sim_cycles_total", self.sim_cycles_total.to_json()),
                    ("host", self.host.to_json()),
                ]),
            ),
        ])
    }
}

impl SweepReport {
    /// Zeroes every host-dependent field (the `--deterministic`
    /// contract).
    pub fn zero_host(&mut self) {
        for a in &mut self.artifacts {
            a.host = SweepHost::default();
        }
        self.host = SweepHost::default();
    }
}

/// Runs the whole grid for one (kernel × model) artifact: compile once,
/// run the machine grid batched, run it again point-at-a-time, and hold
/// every lane byte-equal to its solo run.
fn run_unit(kernel: &str, model: Model, grid: &SweepGrid, cache: &ArtifactCache) -> UnitResult {
    let path = asm_dir().join(format!("{kernel}.asm"));
    let case = psb_fuzz::load_repro(&path).unwrap_or_else(|e| panic!("sweep kernel {kernel}: {e}"));
    let (program, fault_once) = (case.program, case.fault_once);
    let scalar = ScalarMachine::new(
        &program,
        ScalarConfig {
            fault_once_addrs: fault_once.clone(),
            ..ScalarConfig::default()
        },
    )
    .run()
    .unwrap_or_else(|e| panic!("{kernel}: scalar run failed: {e}"));
    let sched_cfg = SchedConfig::new(model);
    let single_shadow = sched_cfg.single_shadow;
    let req = CompileRequest {
        program: &program,
        profile: ProfileSource::Provided(&scalar.edge_profile),
        sched: sched_cfg.clone(),
    };
    // Warm the cache once, untimed: both timed phases below then measure
    // steady-state sweep behaviour (the solo phase pays one content-hash
    // lookup per point, the batched phase one per chunk — exactly the
    // amortization under test, with no compile in either).
    compile(&req, cache).unwrap_or_else(|e| panic!("{kernel}/{model}: compile failed: {e}"));

    let axes = grid.lane_axes();
    let cfgs: Vec<MachineConfig> = axes
        .iter()
        .map(|ax| MachineConfig {
            shadow_mode: if single_shadow {
                ShadowMode::Single
            } else {
                ShadowMode::Infinite
            },
            fault_once_addrs: fault_once.clone(),
            store_buffer_size: ax.sb,
            load_latency: ax.latency,
            memory: ax.memory(),
            ..MachineConfig::full_issue(ax.width)
        })
        .collect();

    // Both timed phases below measure the *whole* per-point pipeline
    // this repo's point runners execute — kernel load + golden scalar
    // run + artifact-cache lookup + simulation + golden cross-check
    // (exactly what `repro bench`'s `run_point` and the experiments'
    // `run_workload` pay per point) — because that is what a sweep
    // actually costs point-at-a-time.  The batched phase pays the load,
    // the scalar run, and (per chunk) the lookup once per *artifact*;
    // the solo phase pays all of them once per *point*.
    let scfg = ScalarConfig {
        fault_once_addrs: fault_once.clone(),
        ..ScalarConfig::default()
    };

    // Batched phase body: lanes step in lockstep over the shared arena
    // with sink calls compiled out (`NullSink` — the sweep never
    // records events, and a `NullSink` lane's `VliwResult` is
    // byte-equal to the solo run's).
    let batched_phase = || -> (Vec<VliwResult>, u64, u64) {
        let rep_case =
            psb_fuzz::load_repro(&path).unwrap_or_else(|e| panic!("sweep kernel {kernel}: {e}"));
        let rep_scalar = ScalarMachine::new(&rep_case.program, scfg.clone())
            .run()
            .unwrap_or_else(|e| panic!("{kernel}: scalar run failed: {e}"));
        let rep_req = CompileRequest {
            program: &rep_case.program,
            profile: ProfileSource::Provided(&rep_scalar.edge_profile),
            sched: sched_cfg.clone(),
        };
        let golden = rep_scalar.observable(&rep_case.program.live_out);
        let mut results: Vec<VliwResult> = Vec::with_capacity(cfgs.len());
        let (mut bc, mut lc) = (0u64, 0u64);
        for chunk in cfgs.chunks(grid.batch_width.max(1)) {
            let art = compile(&rep_req, cache)
                .unwrap_or_else(|e| panic!("{kernel}/{model}: compile failed: {e}"));
            let lanes = chunk.iter().map(|c| (c.clone(), NullSink)).collect();
            let rep = art.run_batch_with_sinks(lanes);
            bc += rep.batch_cycles;
            lc += rep.lane_cycles;
            for (lane, outcome) in rep.lanes.into_iter().enumerate() {
                let (res, _) = outcome.unwrap_or_else(|e| {
                    panic!("{kernel}/{model}: batched lane {lane} failed: {e}")
                });
                assert_eq!(
                    res.observable(&rep_case.program.live_out),
                    golden,
                    "{kernel}/{model}: batched lane {lane} diverged from the scalar \
                     golden model"
                );
                results.push(res);
            }
        }
        (results, bc, lc)
    };

    // Point-at-a-time phase body: what sweeps did before batching — the
    // full single-point pipeline per configuration.
    let solo_phase = || -> Vec<VliwResult> {
        let mut results: Vec<VliwResult> = Vec::with_capacity(cfgs.len());
        for cfg in &cfgs {
            let p_case = psb_fuzz::load_repro(&path)
                .unwrap_or_else(|e| panic!("sweep kernel {kernel}: {e}"));
            let p_scalar = ScalarMachine::new(&p_case.program, scfg.clone())
                .run()
                .unwrap_or_else(|e| panic!("{kernel}: scalar run failed: {e}"));
            let p_req = CompileRequest {
                program: &p_case.program,
                profile: ProfileSource::Provided(&p_scalar.edge_profile),
                sched: sched_cfg.clone(),
            };
            let art = compile(&p_req, cache)
                .unwrap_or_else(|e| panic!("{kernel}/{model}: compile failed: {e}"));
            let res = art
                .run(cfg.clone())
                .unwrap_or_else(|e| panic!("{kernel}/{model}: solo run failed: {e}"));
            assert_eq!(
                res.observable(&p_case.program.live_out),
                p_scalar.observable(&p_case.program.live_out),
                "{kernel}/{model}: solo run diverged from the scalar golden model"
            );
            results.push(res);
        }
        results
    };

    // The two phases' repetitions interleave (batched, solo, batched,
    // solo, …) so slow drift — frequency scaling, a noisy neighbour —
    // lands on both sides instead of biasing one.  Each sample runs the
    // phase once untimed (warming its working set after the *other*
    // phase just evicted it), then times `MEASURE_INNER` executions;
    // the fastest of `MEASURE_REPS` such samples is reported.
    let mut batched_wall = f64::INFINITY;
    let mut lane_results: Vec<VliwResult> = Vec::new();
    let (mut batch_cycles, mut lane_cycles) = (0u64, 0u64);
    let mut solo_wall = f64::INFINITY;
    let mut solo_results: Vec<VliwResult> = Vec::new();
    for _ in 0..MEASURE_REPS {
        batched_phase();
        let start = Instant::now();
        for _ in 0..MEASURE_INNER {
            (lane_results, batch_cycles, lane_cycles) = batched_phase();
        }
        batched_wall = batched_wall.min(start.elapsed().as_secs_f64() / f64::from(MEASURE_INNER));

        solo_phase();
        let start = Instant::now();
        for _ in 0..MEASURE_INNER {
            solo_results = solo_phase();
        }
        solo_wall = solo_wall.min(start.elapsed().as_secs_f64() / f64::from(MEASURE_INNER));
    }

    // The lane-vs-solo oracle: full `VliwResult` equality (counters,
    // registers, memory, events) plus the scalar golden cross-check — a
    // sweep number can never come from a divergent lane.
    let expected = scalar.observable(&program.live_out);
    for (i, (lane, solo)) in lane_results.iter().zip(&solo_results).enumerate() {
        let ax = axes[i];
        assert_eq!(
            lane,
            solo,
            "{kernel}/{model}: lane {i} (width={} sb={} latency={} icache={} dcache={}) \
             diverged from its solo run",
            ax.width,
            ax.sb,
            ax.latency,
            cache_axis_name(&ax.icache),
            cache_axis_name(&ax.dcache)
        );
        assert_eq!(
            lane.observable(&program.live_out),
            expected,
            "{kernel}/{model}: lane {i} diverged from the scalar golden model"
        );
    }

    let points = axes
        .iter()
        .zip(&lane_results)
        .map(|(ax, res)| SweepPoint {
            kernel: kernel.to_string(),
            model: model.name().to_string(),
            width: ax.width,
            sb: ax.sb,
            latency: ax.latency,
            icache: cache_axis_name(&ax.icache),
            dcache: cache_axis_name(&ax.dcache),
            cycles: res.cycles,
            words_issued: res.words_issued,
            commits: res.commits,
            squashes: res.squashes,
            recoveries: res.recoveries,
            stall_operand: res.stall_operand,
            stall_sb_full: res.stall_sb_full,
            stall_ifetch: res.stall_ifetch,
            stall_load_miss: res.stall_load_miss,
            icache_accesses: res.icache_accesses,
            icache_misses: res.icache_misses,
            dcache_accesses: res.dcache_accesses,
            dcache_misses: res.dcache_misses,
        })
        .collect();
    SweepArtifact {
        kernel: kernel.to_string(),
        model: model.name().to_string(),
        lanes: cfgs.len() as u64,
        batch_cycles,
        lane_cycles,
        host: SweepHost {
            batched_wall_seconds: round_us(batched_wall),
            solo_wall_seconds: round_us(solo_wall),
            speedup: round_us(solo_wall / batched_wall.max(1e-9)),
        },
    }
    .with_points(points)
}

/// A unit result travelling back through `parallel_map`: the artifact
/// row plus its points (kept together so report assembly stays ordered).
struct UnitResult {
    artifact: SweepArtifact,
    points: Vec<SweepPoint>,
}

impl SweepArtifact {
    fn with_points(self, points: Vec<SweepPoint>) -> UnitResult {
        UnitResult {
            artifact: self,
            points,
        }
    }
}

/// Runs the sweep over every (kernel × model) artifact of the grid.
///
/// # Panics
///
/// Panics on any kernel load, compile, or machine failure, on a lane
/// diverging from its solo run, and on golden-model divergence — a
/// sweep result must never describe broken code.
pub fn run_sweep(params: &SweepParams) -> SweepReport {
    let grid = &params.grid;
    let mut units = Vec::new();
    for kernel in &grid.kernels {
        for &model in &grid.models {
            units.push((kernel.clone(), model));
        }
    }
    let cache = ArtifactCache::new();
    let results = parallel_map(&units, params.jobs, |(kernel, model)| {
        run_unit(kernel, *model, grid, &cache)
    });

    let mut points = Vec::new();
    let mut artifacts = Vec::new();
    let (mut batched, mut solo) = (0.0f64, 0.0f64);
    for r in results {
        batched += r.artifact.host.batched_wall_seconds;
        solo += r.artifact.host.solo_wall_seconds;
        artifacts.push(r.artifact);
        points.extend(r.points);
    }
    let sim_cycles_total = points.iter().map(|p: &SweepPoint| p.cycles).sum();
    let mut report = SweepReport {
        suite: if params.quick { "quick" } else { "full" }.to_string(),
        grid: grid.clone(),
        lanes_total: points.len() as u64,
        points,
        artifacts,
        sim_cycles_total,
        host: SweepHost {
            batched_wall_seconds: round_us(batched),
            solo_wall_seconds: round_us(solo),
            speedup: round_us(solo / batched.max(1e-9)),
        },
    };
    if params.deterministic {
        report.zero_host();
    }
    report
}

#[allow(clippy::type_complexity)]
fn point_key(j: &Json) -> Option<(String, String, i64, i64, i64, String, String)> {
    Some((
        j.get("kernel")?.as_str()?.to_string(),
        j.get("model")?.as_str()?.to_string(),
        j.get("width")?.as_i64()?,
        j.get("sb")?.as_i64()?,
        j.get("latency")?.as_i64()?,
        j.get("icache")?.as_str()?.to_string(),
        j.get("dcache")?.as_str()?.to_string(),
    ))
}

/// Compares `current` against the checked-in sweep baseline document.
///
/// The schema version, suite and grid must agree, and every baseline
/// point's deterministic counters must match exactly — anything else is
/// a hard failure.  The aggregate speedup is host-dependent: it only
/// warns when both sides carry timings and the current run regressed by
/// more than `tolerance` (relative).
pub fn check_sweep(current: &SweepReport, baseline: &Json, tolerance: f64) -> BenchCheck {
    let mut check = BenchCheck::default();

    match baseline.get("schema_version").and_then(Json::as_str) {
        Some(v) if v == SWEEP_SCHEMA_VERSION => {}
        Some(v) => check.failures.push(format!(
            "schema_version mismatch: baseline {v:?}, current {SWEEP_SCHEMA_VERSION:?}"
        )),
        None => check
            .failures
            .push("baseline has no schema_version".to_string()),
    }
    match baseline.get("suite").and_then(Json::as_str) {
        Some(s) if s == current.suite => {}
        Some(s) => check.failures.push(format!(
            "suite mismatch: baseline ran {s:?}, current ran {:?}",
            current.suite
        )),
        None => check.failures.push("baseline has no suite".to_string()),
    }
    match baseline.get("grid") {
        Some(g) if g.pretty() == current.grid.to_json().pretty() => {}
        Some(_) => check.failures.push(
            "grid mismatch: the baseline swept a different grid (rebaseline deliberately)"
                .to_string(),
        ),
        None => check.failures.push("baseline has no grid".to_string()),
    }

    let empty = Vec::new();
    let base_points = baseline
        .get("points")
        .and_then(Json::as_array)
        .unwrap_or(&empty);
    if base_points.is_empty() {
        check.failures.push("baseline has no points".to_string());
    }
    let mut matched = 0usize;
    for bp in base_points {
        let Some(key) = point_key(bp) else {
            check
                .failures
                .push("baseline point is missing identity fields".to_string());
            continue;
        };
        let label = format!(
            "{}/{}/w{}/sb{}/lat{}/i{}/d{}",
            key.0, key.1, key.2, key.3, key.4, key.5, key.6
        );
        let Some(cur) = current.points.iter().find(|p| {
            p.kernel == key.0
                && p.model == key.1
                && p.width as i64 == key.2
                && p.sb as i64 == key.3
                && p.latency as i64 == key.4
                && p.icache == key.5
                && p.dcache == key.6
        }) else {
            check
                .failures
                .push(format!("{label}: point missing from current run"));
            continue;
        };
        matched += 1;
        for field in POINT_COUNTERS {
            let got = cur.counter(field);
            match bp.get(field).and_then(Json::as_i64) {
                Some(want) if want == got as i64 => {}
                Some(want) => check.failures.push(format!(
                    "{label}: determinism breakage: {field} was {want}, now {got}"
                )),
                None => check
                    .failures
                    .push(format!("{label}: baseline point lacks {field}")),
            }
        }
    }
    if matched < current.points.len() {
        check.notes.push(format!(
            "{} point(s) in the current run are not in the baseline",
            current.points.len() - matched
        ));
    }

    let base_speedup = baseline
        .get("totals")
        .and_then(|t| t.get("host"))
        .and_then(|h| h.get("speedup"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    let cur_speedup = current.host.speedup;
    if base_speedup > 0.0 && cur_speedup > 0.0 {
        if cur_speedup < base_speedup * (1.0 - tolerance) {
            check.warnings.push(format!(
                "aggregate batching speedup regressed: baseline {base_speedup:.2}x, \
                 current {cur_speedup:.2}x"
            ));
        }
    } else {
        check.notes.push(
            "speedup comparison skipped: baseline or current run has zeroed host \
             timings (--deterministic); counters were still checked"
                .to_string(),
        );
    }
    check
}

/// Renders a human-readable summary (stderr companion to the JSON).
pub fn render_sweep(report: &SweepReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(
        s,
        "Sweep suite `{}`: {} points ({} artifacts x {} lanes), {} simulated cycles",
        report.suite,
        report.points.len(),
        report.artifacts.len(),
        report.grid.lane_axes().len(),
        report.sim_cycles_total
    )
    .unwrap();
    writeln!(
        s,
        "{:<9} {:<12} {:>5} {:>11} {:>11} {:>9} {:>9} {:>8}",
        "kernel", "model", "lanes", "batch cyc", "lane cyc", "batch(s)", "solo(s)", "speedup"
    )
    .unwrap();
    for a in &report.artifacts {
        writeln!(
            s,
            "{:<9} {:<12} {:>5} {:>11} {:>11} {:>9.4} {:>9.4} {:>7.2}x",
            a.kernel,
            a.model,
            a.lanes,
            a.batch_cycles,
            a.lane_cycles,
            a.host.batched_wall_seconds,
            a.host.solo_wall_seconds,
            a.host.speedup
        )
        .unwrap();
    }
    writeln!(
        s,
        "aggregate: batched {:.4}s vs point-at-a-time {:.4}s = {:.2}x",
        report.host.batched_wall_seconds, report.host.solo_wall_seconds, report.host.speedup
    )
    .unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> SweepGrid {
        SweepGrid {
            kernels: vec!["dotprod".to_string()],
            models: vec![Model::RegionPred],
            widths: vec![4, 8],
            sb: vec![4, 16],
            latencies: vec![2, 4],
            icaches: vec![None],
            dcaches: vec![None],
            batch_width: 3, // deliberately not a divisor of the 8 lanes
        }
    }

    fn tiny_params(jobs: usize) -> SweepParams {
        SweepParams {
            quick: true,
            deterministic: true,
            jobs,
            grid: tiny_grid(),
        }
    }

    #[test]
    fn grid_parse_overrides_only_named_dimensions() {
        let g = parse_grid("sb=2,8;width=8;batch=5", SweepGrid::quick()).unwrap();
        assert_eq!(g.sb, vec![2, 8]);
        assert_eq!(g.widths, vec![8]);
        assert_eq!(g.batch_width, 5);
        // Untouched dimensions keep the base values.
        assert_eq!(g.kernels, SweepGrid::quick().kernels);
        assert_eq!(g.latencies, SweepGrid::quick().latencies);
        let g = parse_grid("model=all;kernel=gcd,sort", SweepGrid::quick()).unwrap();
        assert_eq!(g.models.len(), Model::ALL.len());
        assert_eq!(g.kernels, vec!["gcd", "sort"]);
    }

    #[test]
    fn grid_parse_expands_ranges() {
        let g = parse_grid("sb=1..64:pow2;latency=1..8", SweepGrid::quick()).unwrap();
        assert_eq!(g.sb, vec![1, 2, 4, 8, 16, 32, 64]);
        assert_eq!(g.latencies, vec![1, 2, 3, 4, 5, 6, 7, 8]);
        // Ranges and plain values mix in one list.
        let g = parse_grid("width=2,4..6", SweepGrid::quick()).unwrap();
        assert_eq!(g.widths, vec![2, 4, 5, 6]);
        // A pow2 range keeps its (possibly non-power-of-two) start.
        let g = parse_grid("sb=3..20:pow2", SweepGrid::quick()).unwrap();
        assert_eq!(g.sb, vec![3, 6, 12]);
    }

    #[test]
    fn grid_parse_reads_cache_axes() {
        let g = parse_grid(
            "icache=off,8x1x2x1x4;dcache=64x2x4x1x10",
            SweepGrid::quick(),
        )
        .unwrap();
        assert_eq!(g.icaches.len(), 2);
        assert_eq!(g.icaches[0], None);
        assert_eq!(cache_axis_name(&g.icaches[1]), "8x1x2x1x4");
        assert_eq!(g.dcaches.len(), 1);
        assert_eq!(cache_axis_name(&g.dcaches[0]), "64x2x4x1x10");
    }

    #[test]
    fn grid_parse_rejects_bad_specs() {
        for bad in [
            "frobnicate=1",
            "sb=",
            "sb=0",
            "sb=four",
            "width",
            "scan=naive",
            "kernel=nope",
            "model=nope",
            "batch=2,4",
            "sb=8..2",
            "latency=1..8:fib",
            "latency=1..9999",
            "icache=8x1x2",
            "dcache=0x1x1x1x1",
        ] {
            assert!(parse_grid(bad, SweepGrid::quick()).is_err(), "{bad}");
        }
    }

    #[test]
    fn lane_axes_order_is_fixed_and_exhaustive() {
        let axes = tiny_grid().lane_axes();
        assert_eq!(axes.len(), 8);
        assert_eq!(
            axes[0],
            LaneAxis {
                width: 4,
                sb: 4,
                latency: 2,
                icache: None,
                dcache: None,
            }
        );
        assert_eq!(
            axes[7],
            LaneAxis {
                width: 8,
                sb: 16,
                latency: 4,
                icache: None,
                dcache: None,
            }
        );
        assert_eq!(axes[0].memory(), MemoryModel::Perfect);
        let cached = LaneAxis {
            dcache: Some(CacheConfig::small()),
            ..axes[0]
        };
        assert!(matches!(cached.memory(), MemoryModel::Cache { .. }));
    }

    #[test]
    fn cache_axes_sweep_reports_miss_counters() {
        let mut grid = tiny_grid();
        grid.widths = vec![4];
        grid.latencies = vec![2];
        grid.sb = vec![4];
        grid.icaches = vec![None, Some(CacheConfig::parse("8x1x2x1x4").unwrap())];
        grid.dcaches = vec![None, Some(CacheConfig::parse("4x2x2x1x6").unwrap())];
        let report = run_sweep(&SweepParams {
            quick: true,
            deterministic: true,
            jobs: 1,
            grid,
        });
        assert_eq!(report.points.len(), 4);
        let off = &report.points[0];
        assert_eq!((off.icache.as_str(), off.dcache.as_str()), ("off", "off"));
        assert_eq!(off.icache_accesses + off.dcache_accesses, 0);
        let cached = report
            .points
            .iter()
            .find(|p| p.icache != "off" && p.dcache != "off")
            .expect("fully cached point present");
        assert!(cached.icache_accesses > 0 && cached.dcache_accesses > 0);
        assert!(
            cached.icache_misses > 0,
            "a tiny icache must miss on a real kernel"
        );
        assert!(cached.stall_ifetch > 0, "icache misses must stall fetch");
        assert!(
            cached.cycles > off.cycles,
            "realistic memory cannot be free"
        );
    }

    #[test]
    fn sweep_report_is_jobs_invariant_and_self_checks() {
        let serial = run_sweep(&tiny_params(1));
        assert_eq!(serial.points.len(), 8);
        assert_eq!(serial.lanes_total, 8);
        assert!(serial.sim_cycles_total > 0);
        // --deterministic zeroed the host section.
        assert_eq!(serial.host, SweepHost::default());
        // The sb dimension actually moves a counter somewhere, or the
        // grid is vacuous.
        assert!(
            serial
                .points
                .iter()
                .any(|p| p.stall_sb_full != serial.points[0].stall_sb_full
                    || p.cycles != serial.points[0].cycles),
            "grid dimensions changed nothing"
        );
        let parallel = run_sweep(&tiny_params(4));
        assert_eq!(
            serial.to_json().pretty(),
            parallel.to_json().pretty(),
            "sweep report must be byte-identical at any --jobs"
        );
        let baseline = Json::parse(&serial.to_json().pretty()).unwrap();
        let check = check_sweep(&serial, &baseline, 0.2);
        assert!(check.passed(), "{:?}", check.failures);
    }

    #[test]
    fn check_sweep_fails_on_drift_schema_and_grid_changes() {
        let report = run_sweep(&tiny_params(1));
        let baseline = Json::parse(&report.to_json().pretty()).unwrap();

        let mut drifted = report.clone();
        drifted.points[0].cycles += 1;
        let check = check_sweep(&drifted, &baseline, 0.2);
        assert!(!check.passed());
        assert!(check.failures[0].contains("determinism breakage"));

        let mut other_grid = report.clone();
        other_grid.grid.sb = vec![1];
        assert!(check_sweep(&other_grid, &baseline, 0.2)
            .failures
            .iter()
            .any(|f| f.contains("grid mismatch")));

        // A v1 baseline (points keyed by commit scan) is a schema mismatch.
        let mut doc = report.to_json();
        if let Json::Object(fields) = &mut doc {
            fields[0].1 = Json::Str("psb-sweep-v1".to_string());
        }
        let failures = check_sweep(&report, &doc, 0.2).failures;
        let want = r#"schema_version mismatch: baseline "psb-sweep-v1", current "psb-sweep-v2""#;
        assert!(failures.iter().any(|f| f == want), "{failures:?}");

        let missing = SweepReport {
            points: report.points[1..].to_vec(),
            ..report.clone()
        };
        assert!(check_sweep(&missing, &baseline, 0.2)
            .failures
            .iter()
            .any(|f| f.contains("missing from current run")));
    }

    #[test]
    fn timed_runs_record_speedup_and_warn_on_regression() {
        let mut params = tiny_params(1);
        params.deterministic = false;
        let report = run_sweep(&params);
        assert!(report.host.batched_wall_seconds > 0.0);
        assert!(report.host.solo_wall_seconds > 0.0);
        assert!(report.host.speedup > 0.0);
        let baseline = Json::parse(&report.to_json().pretty()).unwrap();
        // A much slower "current" run warns (never hard-fails): wall
        // time is advisory on shared runners.
        let mut slow = report.clone();
        slow.host.speedup = report.host.speedup / 10.0;
        let check = check_sweep(&slow, &baseline, 0.2);
        assert!(check.passed(), "{:?}", check.failures);
        assert!(
            check
                .warnings
                .iter()
                .any(|w| w.contains("speedup regressed")),
            "{:?}",
            check.warnings
        );
    }
}
