//! `repro sweep` — exhaustive design-space sweeps with a deterministic,
//! gateable report.
//!
//! The paper could only sample its (issue-width × buffer-depth ×
//! load-latency × model) design space; `repro sweep` explores a
//! configurable grid of it exhaustively.  Each (kernel × model) unit
//! loads its kernel, runs the scalar golden model and compiles exactly
//! once — the compile key deliberately excludes `MachineConfig`, so one
//! artifact serves the whole machine grid — and then runs every grid
//! configuration once on that artifact, holding each run's observable
//! state equal to the golden model's.  A sweep number can never come
//! from a divergent run.
//!
//! The report holds simulated counters only, so it is byte-identical
//! across hosts and `--jobs` values by construction: CI can `cmp` two
//! runs and gate counter drift against `baselines/sweep_baseline.json`
//! via [`check_sweep`].

use crate::bench::{asm_dir, check_points, BenchCheck};
use crate::json::{Json, ToJson};
use crate::runner::parallel_map;
use crate::trace::parse_model;
use psb_compile::{compile, ArtifactCache, CompileRequest, ProfileSource};
use psb_core::{CacheConfig, MachineConfig, MemoryModel, ShadowMode};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};

/// Version string stamped into the sweep report; a mismatch against the
/// baseline is a hard check failure.
/// v2: the commit-scan dimension is gone from the grid and the point
/// key (every run uses the default indexed scan, which is
/// architecturally identical to the naive reference).
/// v3: every point runs once, solo; the grid echo loses `batch_width`,
/// and the per-artifact rows and every host field are gone.
pub const SWEEP_SCHEMA_VERSION: &str = "psb-sweep-v3";

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
/// (width × sb × latency × icache × dcache) form the configuration set
/// every (kernel × model) artifact runs under.
#[derive(Clone, PartialEq, Debug)]
pub struct SweepGrid {
    /// Kernel programs (names under `asm/`).
    pub kernels: Vec<String>,
    /// Scheduling models (compile-time dimension: one artifact each).
    pub models: Vec<Model>,
    /// Issue widths, realised as full-issue machines (Figure 8's axis);
    /// at least the schedule's issue width.
    pub widths: Vec<usize>,
    /// Store-buffer depths.
    pub sb: Vec<usize>,
    /// Load latencies in cycles.  Only meaningful for configurations
    /// with both caches `off` (perfect memory); any cache takes its load
    /// and fetch timing from the cache specs instead.
    pub latencies: Vec<u64>,
    /// Instruction-cache axis: `None` = off (single-cycle fetch), or a
    /// parameterized cache.
    pub icaches: Vec<Option<CacheConfig>>,
    /// Data-cache axis: `None` = off, or a parameterized cache.
    pub dcaches: Vec<Option<CacheConfig>>,
}

/// One machine configuration of the grid: the cross product element of
/// the sweep's machine dimensions, in report order.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MachineAxis {
    /// Issue width.
    pub width: usize,
    /// Store-buffer depth.
    pub sb: usize,
    /// Load latency (perfect-memory configurations only).
    pub latency: u64,
    /// Instruction cache, or `None` for single-cycle fetch.
    pub icache: Option<CacheConfig>,
    /// Data cache, or `None` for fixed-latency loads.
    pub dcache: Option<CacheConfig>,
}

impl MachineAxis {
    /// The configuration's memory model: perfect when both caches are
    /// off (so cache-free grids reproduce the paper's fixed-latency
    /// timing bit-for-bit), the parameterized hierarchy otherwise.
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
        }
    }

    /// The default full grid: 24 machine configs × 8 artifacts = 192
    /// points.
    pub fn full() -> SweepGrid {
        SweepGrid {
            widths: vec![4, 8],
            sb: vec![2, 4, 8, 16],
            latencies: vec![2, 3, 4],
            ..SweepGrid::quick()
        }
    }

    /// The machine-dimension cross product, in fixed nesting order
    /// (width, then sb, then latency, then icache, then dcache) — the
    /// point order of every artifact in the report.
    pub fn machine_axes(&self) -> Vec<MachineAxis> {
        let mut axes = Vec::new();
        for &w in &self.widths {
            for &sb in &self.sb {
                for &lat in &self.latencies {
                    for &ic in &self.icaches {
                        for &dc in &self.dcaches {
                            axes.push(MachineAxis {
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
        ])
    }
}

/// Parses a `--grid` spec on top of `base`, overriding only the named
/// dimensions.  The spec is `dim=v1,v2[;dim=...]` with dimensions
/// `kernel`, `model`, `width`, `sb`, `latency`, `icache` and `dcache`
/// (e.g. `"width=4,8;sb=2,16;latency=2,4;model=all"`).
///
/// Numeric dimensions also accept ranges: `lo..hi` enumerates every
/// value (inclusive) and `lo..hi:pow2` doubles from `lo` while within
/// `hi` — `sb=1..64:pow2` is `1,2,4,8,16,32,64` and `latency=1..8` is
/// all eight.  Ranges and plain values mix freely in one list.
///
/// The cache dimensions take `off` or a `SETSxWAYSxLINExHITxMISS` spec
/// (e.g. `dcache=off,64x2x4x1x10`); every icache × dcache combination
/// becomes a configuration.
///
/// # Errors
///
/// A ready-to-print message for the first unknown dimension, unknown
/// value, or empty value list, and for a width below the issue width
/// the grid's models are scheduled for (such a machine cannot admit
/// their words).
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
            other => return Err(format!("unknown grid dimension `{other}`")),
        }
    }
    let sched_width = grid
        .models
        .iter()
        .map(|&m| SchedConfig::new(m).issue_width)
        .max()
        .unwrap_or(1);
    if let Some(w) = grid.widths.iter().find(|&&w| w < sched_width) {
        return Err(format!(
            "grid `width` value {w} is below the schedule's issue width {sched_width}: \
             every sweep model is scheduled {sched_width}-wide"
        ));
    }
    Ok(grid)
}

/// Parameters of one `repro sweep` invocation.
#[derive(Clone, Debug)]
pub struct SweepParams {
    /// `"quick"`/`"full"` suite tag (grid defaults follow it).
    pub quick: bool,
    /// Worker threads over (kernel × model) artifact units; the report
    /// is byte-identical for every value.
    pub jobs: usize,
    /// The grid to sweep.
    pub grid: SweepGrid,
}

/// One design point: a machine configuration of one compiled artifact.
/// All fields are deterministic.
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

/// The whole sweep report (`psb-sweep-v3`).
#[derive(Clone, PartialEq, Debug)]
pub struct SweepReport {
    /// `"full"` or `"quick"`.
    pub suite: String,
    /// The grid that was swept (echoed so the baseline pins it).
    pub grid: SweepGrid,
    /// Every design point, in fixed (kernel, model, machine-axis) order.
    pub points: Vec<SweepPoint>,
    /// Total simulated cycles across every point (one run each).
    pub sim_cycles_total: u64,
}

impl ToJson for SweepReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", SWEEP_SCHEMA_VERSION.to_json()),
            ("suite", self.suite.to_json()),
            ("grid", self.grid.to_json()),
            ("points", self.points.to_json()),
            (
                "totals",
                Json::obj(vec![
                    ("points_total", self.points.len().to_json()),
                    ("sim_cycles_total", self.sim_cycles_total.to_json()),
                ]),
            ),
        ])
    }
}

/// Runs one (kernel × model) unit: load the kernel, run the golden
/// model and compile once, then run every grid configuration once and
/// hold its observable state equal to the golden model's.
fn run_unit(
    kernel: &str,
    model: Model,
    axes: &[MachineAxis],
    cache: &ArtifactCache,
) -> Vec<SweepPoint> {
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
    let golden = scalar.observable(&program.live_out);
    let sched = SchedConfig::new(model);
    let shadow_mode = if sched.single_shadow {
        ShadowMode::Single
    } else {
        ShadowMode::Infinite
    };
    let req = CompileRequest {
        program: &program,
        profile: ProfileSource::Provided(&scalar.edge_profile),
        sched,
    };
    let art =
        compile(&req, cache).unwrap_or_else(|e| panic!("{kernel}/{model}: compile failed: {e}"));

    axes.iter()
        .map(|ax| {
            let icache = cache_axis_name(&ax.icache);
            let dcache = cache_axis_name(&ax.dcache);
            let label = || {
                format!(
                    "{kernel}/{model}: width={} sb={} latency={} icache={icache} dcache={dcache}",
                    ax.width, ax.sb, ax.latency
                )
            };
            let res = art
                .run(MachineConfig {
                    shadow_mode,
                    fault_once_addrs: fault_once.clone(),
                    store_buffer_size: ax.sb,
                    load_latency: ax.latency,
                    memory: ax.memory(),
                    ..MachineConfig::full_issue(ax.width)
                })
                .unwrap_or_else(|e| panic!("{}: machine error: {e}", label()));
            assert_eq!(
                res.observable(&program.live_out),
                golden,
                "{}: diverged from the scalar golden model",
                label()
            );
            SweepPoint {
                kernel: kernel.to_string(),
                model: model.name().to_string(),
                width: ax.width,
                sb: ax.sb,
                latency: ax.latency,
                icache,
                dcache,
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
            }
        })
        .collect()
}

/// Runs the sweep over every (kernel × model) unit of the grid.
///
/// # Panics
///
/// Panics on any kernel load, compile, or machine failure, and on
/// golden-model divergence — a sweep result must never describe broken
/// code.
pub fn run_sweep(params: &SweepParams) -> SweepReport {
    let grid = &params.grid;
    let mut units = Vec::new();
    for kernel in &grid.kernels {
        for &model in &grid.models {
            units.push((kernel.clone(), model));
        }
    }
    let axes = grid.machine_axes();
    let cache = ArtifactCache::new();
    let points: Vec<SweepPoint> = parallel_map(&units, params.jobs, |(kernel, model)| {
        run_unit(kernel, *model, &axes, &cache)
    })
    .into_iter()
    .flatten()
    .collect();
    SweepReport {
        suite: if params.quick { "quick" } else { "full" }.to_string(),
        grid: grid.clone(),
        sim_cycles_total: points.iter().map(|p| p.cycles).sum(),
        points,
    }
}

/// Compares `current` against the checked-in sweep baseline document.
///
/// The schema version, suite and grid must agree, and every baseline
/// point's deterministic counters must match exactly — anything else is
/// a hard failure.
pub fn check_sweep(current: &SweepReport, baseline: &Json) -> BenchCheck {
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

    let points: Vec<Json> = current.points.iter().map(ToJson::to_json).collect();
    check_points(
        &mut check,
        baseline,
        &points,
        &[
            "kernel", "model", "width", "sb", "latency", "icache", "dcache",
        ],
        &[
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
        ],
    );
    check
}

/// Renders a human-readable summary (stderr companion to the JSON).
pub fn render_sweep(report: &SweepReport) -> String {
    let configs = report.grid.machine_axes().len();
    format!(
        "Sweep suite `{}`: {} points ({} artifacts x {configs} configurations), \
         {} simulated cycles\n",
        report.suite,
        report.points.len(),
        report.points.len() / configs.max(1),
        report.sim_cycles_total
    )
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
        }
    }

    fn tiny_params(jobs: usize) -> SweepParams {
        SweepParams {
            quick: true,
            jobs,
            grid: tiny_grid(),
        }
    }

    #[test]
    fn grid_parse_overrides_only_named_dimensions() {
        let g = parse_grid("sb=2,8;width=8", SweepGrid::quick()).unwrap();
        assert_eq!(g.sb, vec![2, 8]);
        assert_eq!(g.widths, vec![8]);
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
        let g = parse_grid("width=4,6..8", SweepGrid::quick()).unwrap();
        assert_eq!(g.widths, vec![4, 6, 7, 8]);
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
            "batch=4",
            "width=2",
            "width=3,4",
            "width=1..8",
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
    fn machine_axes_order_is_fixed_and_exhaustive() {
        let axes = tiny_grid().machine_axes();
        assert_eq!(axes.len(), 8);
        assert_eq!(
            axes[0],
            MachineAxis {
                width: 4,
                sb: 4,
                latency: 2,
                icache: None,
                dcache: None,
            }
        );
        assert_eq!(
            axes[7],
            MachineAxis {
                width: 8,
                sb: 16,
                latency: 4,
                icache: None,
                dcache: None,
            }
        );
        assert_eq!(axes[0].memory(), MemoryModel::Perfect);
        let cached = MachineAxis {
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
        assert!(serial.sim_cycles_total > 0);
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
        let check = check_sweep(&serial, &baseline);
        assert!(check.passed(), "{:?}", check.failures);
    }

    #[test]
    fn check_sweep_fails_on_drift_schema_and_grid_changes() {
        let report = run_sweep(&tiny_params(1));
        let baseline = Json::parse(&report.to_json().pretty()).unwrap();

        let mut drifted = report.clone();
        drifted.points[0].cycles += 1;
        let check = check_sweep(&drifted, &baseline);
        assert!(!check.passed());
        assert!(check.failures[0].contains("determinism breakage"));

        let mut other_grid = report.clone();
        other_grid.grid.sb = vec![1];
        assert!(check_sweep(&other_grid, &baseline)
            .failures
            .iter()
            .any(|f| f.contains("grid mismatch")));

        // A v2 baseline (grid echo with `batch_width`, host timings) is a
        // schema mismatch.
        let mut doc = report.to_json();
        if let Json::Object(fields) = &mut doc {
            fields[0].1 = Json::Str("psb-sweep-v2".to_string());
        }
        let failures = check_sweep(&report, &doc).failures;
        let want = r#"schema_version mismatch: baseline "psb-sweep-v2", current "psb-sweep-v3""#;
        assert!(failures.iter().any(|f| f == want), "{failures:?}");

        let missing = SweepReport {
            points: report.points[1..].to_vec(),
            ..report.clone()
        };
        assert!(check_sweep(&missing, &baseline)
            .failures
            .iter()
            .any(|f| f.contains("missing from current run")));
    }
}
