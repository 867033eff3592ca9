//! The named experiments: one function per table/figure of the paper.

use crate::json::{Json, ToJson};
use crate::runner::{
    geometric_mean, parallel_map, point_speedups, run_grid, run_points, run_scalar, workload_pair,
    BenchResult, EvalParams, BENCHMARKS,
};
use psb_compile::{compile_trained, ArtifactCache, PointError, PointJob};
use psb_isa::Resources;
use psb_scalar::{successive_accuracy, ScalarConfig};
use psb_sched::Model;
use psb_telemetry::NullTelemetry;

/// One row of the Table 2 reproduction.
#[derive(Clone, PartialEq, Debug)]
pub struct Table2Row {
    /// Benchmark name.
    pub name: String,
    /// What the kernel models.
    pub description: String,
    /// Static instruction count (the paper reports source lines; we report
    /// kernel instructions).
    pub static_len: usize,
    /// Scalar baseline cycles on the evaluation input.
    pub scalar_cycles: u64,
}

impl ToJson for Table2Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("description", self.description.to_json()),
            ("static_len", self.static_len.to_json()),
            ("scalar_cycles", self.scalar_cycles.to_json()),
        ])
    }
}

/// Table 2: the benchmark inventory with scalar baseline cycles.
pub fn table2(params: &EvalParams) -> Vec<Table2Row> {
    parallel_map(&BENCHMARKS, params.jobs, |name| {
        let w = psb_workloads::by_name(name, params.eval_seed, params.size).expect("known");
        let res = run_scalar(&w);
        Table2Row {
            name: w.name.to_string(),
            description: w.description.to_string(),
            static_len: w.program.static_len(),
            scalar_cycles: res.cycles,
        }
    })
}

/// One row of the Table 3 reproduction: prediction accuracy for 1..=8
/// successive branches.
#[derive(Clone, PartialEq, Debug)]
pub struct Table3Row {
    /// Benchmark name.
    pub name: String,
    /// `accuracy[n-1]` = probability that `n` successive branches all
    /// follow their static prediction.
    pub accuracy: Vec<f64>,
}

impl ToJson for Table3Row {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("accuracy", self.accuracy.to_json()),
        ])
    }
}

/// Table 3: static prediction accuracy of successive branches, with the
/// prediction trained on the training input and measured on the
/// evaluation input.
pub fn table3(params: &EvalParams) -> Vec<Table3Row> {
    parallel_map(&BENCHMARKS, params.jobs, |name| {
        let (train, eval) = workload_pair(name, params);
        let profile = run_scalar(&train).edge_profile;
        let trace = run_scalar(&eval).branch_trace;
        let accuracy = successive_accuracy(&trace, |b| profile.predict_taken(b), 8);
        Table3Row {
            name: name.to_string(),
            accuracy,
        }
    })
}

/// A figure-style result: per-benchmark speedups for a set of models plus
/// geometric means.
#[derive(Clone, PartialEq, Debug)]
pub struct FigureResult {
    /// The figure's models, in presentation order.
    pub models: Vec<String>,
    /// Per-benchmark results.
    pub benches: Vec<BenchResult>,
    /// Geometric-mean speedup per model, aligned with `models`.
    pub geomeans: Vec<f64>,
}

impl ToJson for FigureResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("models", self.models.to_json()),
            ("benches", self.benches.to_json()),
            ("geomeans", self.geomeans.to_json()),
        ])
    }
}

fn figure(models: &[Model], params: &EvalParams) -> FigureResult {
    let points: Vec<_> = models.iter().map(|&m| (m, params.clone())).collect();
    let benches = run_grid(params, &points, &ArtifactCache::new());
    let geomeans = (0..models.len())
        .map(|i| geometric_mean(&point_speedups(&benches, i)))
        .collect();
    FigureResult {
        models: models.iter().map(|m| m.name().to_string()).collect(),
        benches,
        geomeans,
    }
}

/// Figure 6: the restricted speculative-execution models (no predicated
/// state buffering): global, squashing, trace, region scheduling.
pub fn fig6(params: &EvalParams) -> FigureResult {
    figure(
        &[
            Model::Global,
            Model::Squash,
            Model::Trace,
            Model::RegionSquash,
        ],
        params,
    )
}

/// Figure 7: the predicating models against the conventional ones:
/// global, boosting, trace predicating, region predicating.
pub fn fig7(params: &EvalParams) -> FigureResult {
    figure(
        &[
            Model::Global,
            Model::Boost,
            Model::TracePred,
            Model::RegionPred,
        ],
        params,
    )
}

/// One cell of the Figure 8 sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct Fig8Cell {
    /// Issue width of the full-issue machine.
    pub width: usize,
    /// Allowed speculation depth (conditions).
    pub depth: usize,
    /// Geometric-mean speedup of region predicating.
    pub geomean: f64,
    /// Per-benchmark speedups in [`BENCHMARKS`](crate::BENCHMARKS) order.
    pub speedups: Vec<f64>,
}

impl ToJson for Fig8Cell {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("width", self.width.to_json()),
            ("depth", self.depth.to_json()),
            ("geomean", self.geomean.to_json()),
            ("speedups", self.speedups.to_json()),
        ])
    }
}

/// The Figure 8 sweep result.
#[derive(Clone, PartialEq, Debug)]
pub struct Fig8Result {
    /// All cells, ordered by width then depth.
    pub cells: Vec<Fig8Cell>,
}

impl ToJson for Fig8Result {
    fn to_json(&self) -> Json {
        Json::obj(vec![("cells", self.cells.to_json())])
    }
}

/// Figure 8: full-issue machines (2/4/8-issue, fully duplicated
/// resources) under speculation depths 1, 2, 4 and 8 conditions, using
/// the region-predicating model with an 8-entry CCR.
pub fn fig8(params: &EvalParams) -> Fig8Result {
    let points: Vec<_> = [2usize, 4, 8]
        .into_iter()
        .flat_map(|width| {
            [1usize, 2, 4, 8].map(|depth| {
                let p = EvalParams {
                    issue_width: width,
                    resources: Resources::full_issue(width),
                    num_conds: 8,
                    depth,
                    ..params.clone()
                };
                (Model::RegionPred, p)
            })
        })
        .collect();
    let benches = run_grid(params, &points, &ArtifactCache::new());
    let cells = points
        .iter()
        .enumerate()
        .map(|(i, (_, p))| {
            let speedups = point_speedups(&benches, i);
            Fig8Cell {
                width: p.issue_width,
                depth: p.depth,
                geomean: geometric_mean(&speedups),
                speedups,
            }
        })
        .collect();
    Fig8Result { cells }
}

/// An A/B ablation result.
#[derive(Clone, PartialEq, Debug)]
pub struct AblationResult {
    /// What is being compared.
    pub label: String,
    /// Benchmark names.
    pub benches: Vec<String>,
    /// Speedups under the paper's design.
    pub base: Vec<f64>,
    /// Speedups under the alternative.
    pub variant: Vec<f64>,
    /// Geometric means (base, variant).
    pub geomeans: (f64, f64),
}

impl ToJson for AblationResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("label", self.label.to_json()),
            ("benches", self.benches.to_json()),
            ("base", self.base.to_json()),
            ("variant", self.variant.to_json()),
            ("geomeans", self.geomeans.to_json()),
        ])
    }
}

fn ablation(
    label: &str,
    model: Model,
    params: &EvalParams,
    variant: impl Fn(&mut EvalParams),
) -> AblationResult {
    let mut vparams = params.clone();
    variant(&mut vparams);
    let points = [(model, params.clone()), (model, vparams)];
    let benches = run_grid(params, &points, &ArtifactCache::new());
    let (base, var) = (point_speedups(&benches, 0), point_speedups(&benches, 1));
    AblationResult {
        label: label.to_string(),
        benches: BENCHMARKS.iter().map(|s| s.to_string()).collect(),
        geomeans: (geometric_mean(&base), geometric_mean(&var)),
        base,
        variant: var,
    }
}

/// Footnote 1 ablation: single shadow register per sequential register
/// (the paper's cost-reduced design) versus unbounded shadow storage.
/// The paper reports the single-shadow model costs only 0–1%.
pub fn ablation_shadow(params: &EvalParams) -> AblationResult {
    ablation(
        "single vs infinite shadow registers (region-pred)",
        Model::RegionPred,
        params,
        |p| p.infinite_shadow = true,
    )
}

/// Section 4.2.1 ablation: vector-form predicates (condition-sets may be
/// reordered) versus counter-form predicates (condition-sets execute
/// sequentially), under trace predicating where the paper discusses it.
pub fn ablation_counter(params: &EvalParams) -> AblationResult {
    ablation(
        "vector-form vs counter-form predicates (trace-pred)",
        Model::TracePred,
        params,
        |p| p.ordered_cond_sets = true,
    )
}

/// The scope × hardware interaction (Section 4.1's closing observation).
#[derive(Clone, PartialEq, Debug)]
pub struct InteractionResult {
    /// Geomean speedup of trace scheduling (trace scope, squash hardware).
    pub trace_squash: f64,
    /// Geomean of region scheduling (region scope, squash hardware).
    pub region_squash: f64,
    /// Geomean of trace predicating (trace scope, buffering hardware).
    pub trace_buffered: f64,
    /// Geomean of region predicating (region scope, buffering hardware).
    pub region_buffered: f64,
}

impl ToJson for InteractionResult {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("trace_squash", self.trace_squash.to_json()),
            ("region_squash", self.region_squash.to_json()),
            ("trace_buffered", self.trace_buffered.to_json()),
            ("region_buffered", self.region_buffered.to_json()),
        ])
    }
}

impl InteractionResult {
    /// What the wider scope buys under each hardware model.
    pub fn scope_gain(&self) -> (f64, f64) {
        (
            self.region_squash / self.trace_squash,
            self.region_buffered / self.trace_buffered,
        )
    }

    /// What the buffering hardware buys under each scope.
    pub fn hardware_gain(&self) -> (f64, f64) {
        (
            self.trace_buffered / self.trace_squash,
            self.region_buffered / self.region_squash,
        )
    }
}

/// The paper's central argument as a 2×2: scheduling scope (trace vs
/// region) crossed with side-effect hardware (pipeline squashing vs
/// predicated state buffering).  Section 4.1: "the additional scheduling
/// ability is not beneficial" with squashing hardware only — the win
/// appears when unconstrained motion and buffering are combined.
pub fn interaction(params: &EvalParams) -> InteractionResult {
    let models = [
        Model::Trace,
        Model::RegionSquash,
        Model::TracePred,
        Model::RegionPred,
    ];
    let g = figure(&models, params).geomeans;
    InteractionResult {
        trace_squash: g[0],
        region_squash: g[1],
        trace_buffered: g[2],
        region_buffered: g[3],
    }
}

/// One row of the dynamic instruction-mix report.
#[derive(Clone, PartialEq, Debug)]
pub struct MixRow {
    /// Benchmark name.
    pub name: String,
    /// Fraction of dynamic instructions that are loads.
    pub loads: f64,
    /// Fraction that are stores.
    pub stores: f64,
    /// Fraction that are conditional branches.
    pub branches: f64,
    /// Fraction that are unconditional jumps.
    pub jumps: f64,
}

impl ToJson for MixRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("loads", self.loads.to_json()),
            ("stores", self.stores.to_json()),
            ("branches", self.branches.to_json()),
            ("jumps", self.jumps.to_json()),
        ])
    }
}

/// Dynamic instruction mix of the kernels — the realism check behind the
/// Table 2 substitution: integer codes of the paper's era run roughly
/// 15–30% loads, 5–15% stores and 10–20% branches.
pub fn mix(params: &EvalParams) -> Vec<MixRow> {
    parallel_map(&BENCHMARKS, params.jobs, |name| {
        let w = psb_workloads::by_name(name, params.eval_seed, params.size).unwrap();
        let r = run_scalar(&w);
        let total = r.dyn_instrs.max(1) as f64;
        MixRow {
            name: name.to_string(),
            loads: r.dyn_loads as f64 / total,
            stores: r.dyn_stores as f64 / total,
            branches: r.dyn_branches as f64 / total,
            jumps: r.dyn_jumps as f64 / total,
        }
    })
}

/// The one-table summary: every model's speedup on every benchmark
/// (Figures 6 and 7 combined).
pub fn summary(params: &EvalParams) -> FigureResult {
    figure(&Model::ALL, params)
}

/// One row of the timing-sensitivity sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct SensitivityRow {
    /// What was varied (e.g. `jump penalty = 2`).
    pub setting: String,
    /// Geomean speedups for (trace-pred, region-pred).
    pub trace_pred: f64,
    /// Region-predicating geomean.
    pub region_pred: f64,
}

impl ToJson for SensitivityRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("setting", self.setting.to_json()),
            ("trace_pred", self.trace_pred.to_json()),
            ("region_pred", self.region_pred.to_json()),
        ])
    }
}

/// Robustness of the headline conclusion to the timing assumptions the
/// paper leaves open: taken-jump penalty (the BTB assumption) and the
/// store-buffer capacity.  The orderings of Figure 7 survive every
/// setting — both predicating models degrade with the jump penalty (it
/// taxes every region transfer) and neither is store-buffer bound at the
/// paper's 16 entries.
pub fn sensitivity(params: &EvalParams) -> Vec<SensitivityRow> {
    let penalties = [0u64, 1, 2].map(|penalty| {
        let p = EvalParams {
            jump_penalty: penalty,
            ..params.clone()
        };
        (format!("taken-jump penalty = {penalty}"), p)
    });
    let buffers = [2usize, 4, 16].map(|buf| {
        let p = EvalParams {
            store_buffer: buf,
            ..params.clone()
        };
        (format!("store buffer = {buf} entries"), p)
    });
    let settings: Vec<(String, EvalParams)> = penalties.into_iter().chain(buffers).collect();
    let points: Vec<_> = settings
        .iter()
        .flat_map(|(_, p)| [Model::TracePred, Model::RegionPred].map(|m| (m, p.clone())))
        .collect();
    // The settings vary only machine parameters, so every row shares the
    // first row's artifacts: each benchmark compiles twice.
    let benches = run_grid(params, &points, &ArtifactCache::new());
    let geo = |i| geometric_mean(&point_speedups(&benches, i));
    settings
        .into_iter()
        .enumerate()
        .map(|(i, (setting, _))| SensitivityRow {
            setting,
            trace_pred: geo(2 * i),
            region_pred: geo(2 * i + 1),
        })
        .collect()
}

/// One row of the code-size report.
#[derive(Clone, PartialEq, Debug)]
pub struct CodeSizeRow {
    /// Benchmark name.
    pub name: String,
    /// Scalar static instruction count.
    pub scalar_ops: usize,
    /// Static VLIW operations per model, in [`Model::ALL`] order.
    pub per_model: Vec<usize>,
    /// Expansion ratio per model.
    pub expansion: Vec<f64>,
}

impl ToJson for CodeSizeRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", self.name.to_json()),
            ("scalar_ops", self.scalar_ops.to_json()),
            ("per_model", self.per_model.to_json()),
            ("expansion", self.expansion.to_json()),
        ])
    }
}

/// Static code size per model — the cost side of the paper's trade-offs:
/// renaming copies (linear models), condition-sets and duplicated join
/// blocks (predicated models), and boosting's extra branches.
pub fn code_size(params: &EvalParams) -> Vec<CodeSizeRow> {
    use psb_sched::SchedConfig;
    let cache = ArtifactCache::new();
    parallel_map(&BENCHMARKS, params.jobs, |name| {
        let (train, eval) = workload_pair(name, params);
        let mut per_model = Vec::new();
        let mut expansion = Vec::new();
        for model in Model::ALL {
            let mut cfg = SchedConfig::new(model);
            cfg.issue_width = params.issue_width;
            cfg.resources = params.resources;
            cfg.num_conds = params.num_conds;
            cfg.depth = params.depth.min(params.num_conds);
            let (art, _) = compile_trained(
                &eval.program,
                &train.program,
                cfg,
                &cache,
                None,
                &NullTelemetry,
            )
            .unwrap_or_else(|e| panic!("{name}/{model}: {e}"));
            per_model.push(art.sched_stats.ops);
            expansion.push(art.sched_stats.expansion_over(&eval.program));
        }
        CodeSizeRow {
            name: name.to_string(),
            scalar_ops: eval.program.static_len(),
            per_model,
            expansion,
        }
    })
}

/// The paper's closing remark on Figure 8: resources beyond four issue
/// slots lie idle without "other compilation techniques which expose more
/// parallelism (e.g. loop unrolling)".  This experiment probes exactly
/// that: region predicating on an 8-issue full-issue machine with K = 8,
/// with the kernels' innermost loops unrolled 3x, letting one region span
/// several former iterations.
pub fn ablation_unroll(params: &EvalParams) -> AblationResult {
    use psb_core::MachineConfig;
    use psb_ir::unroll_loops;
    use psb_sched::SchedConfig;

    let wide = EvalParams {
        issue_width: 8,
        resources: Resources::full_issue(8),
        num_conds: 8,
        depth: 8,
        ..params.clone()
    };
    let cache = ArtifactCache::new();
    let pairs = parallel_map(&BENCHMARKS, params.jobs, |&name| {
        let pair = workload_pair(name, &wide);
        let (rolled, _) = run_points(&pair, &[(Model::RegionPred, wide.clone())], &cache);

        // The unrolled variant: transform both training and evaluation
        // programs before profiling and scheduling.
        let (train, eval) = pair;
        let train_u = unroll_loops(&train.program, 3);
        let eval_u = unroll_loops(&eval.program, 3);
        let fail = |e: PointError| -> ! { panic!("{name}/unrolled: {e}") };
        let job = PointJob::new(&eval_u, Some(&train_u), ScalarConfig::default())
            .unwrap_or_else(|e| fail(e));
        let mut cfg = SchedConfig::new(Model::RegionPred);
        cfg.issue_width = 8;
        cfg.resources = Resources::full_issue(8);
        cfg.num_conds = 8;
        cfg.depth = 8;
        cfg.max_blocks = 32;
        let (art, _) = job
            .compile(cfg, &cache, None, &NullTelemetry)
            .unwrap_or_else(|e| fail(e));
        // The rolled arm's machine (its memory model included) with a
        // deeper store buffer for the longer unrolled regions.
        let mc = MachineConfig {
            store_buffer_size: 32,
            ..wide.machine_config()
        };
        let res = job.run(&art, mc).unwrap_or_else(|e| fail(e));
        // The baseline is still the *original* scalar program's cycles: we
        // measure what unrolling buys the 8-issue machine end to end.
        (
            rolled.models[0].speedup,
            rolled.scalar_cycles as f64 / res.cycles as f64,
        )
    });
    let (base, variant): (Vec<f64>, Vec<f64>) = pairs.into_iter().unzip();
    AblationResult {
        label: "8-issue region-pred: rolled vs 3x-unrolled loops (Fig. 8 remark)".to_string(),
        benches: BENCHMARKS.iter().map(|s| s.to_string()).collect(),
        geomeans: (geometric_mean(&base), geometric_mean(&variant)),
        base,
        variant,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_core::MemoryModel;

    #[test]
    fn ablation_unroll_runs_both_arms_under_the_memory_model() {
        let params = |memory: &str| EvalParams {
            size: 96,
            memory: MemoryModel::parse(memory).unwrap(),
            ..EvalParams::default()
        };
        let perfect = ablation_unroll(&params("perfect"));
        let cache = ablation_unroll(&params("cache:8x1x2x1x4:64x2x4x1x10"));
        // I$ and D$ misses slow both arms on every benchmark.
        for (arm, p, c) in [
            ("base", &perfect.base, &cache.base),
            ("variant", &perfect.variant, &cache.variant),
        ] {
            for (i, name) in perfect.benches.iter().enumerate() {
                assert!(
                    c[i] < p[i],
                    "{name} {arm}: cache {} >= perfect {}",
                    c[i],
                    p[i]
                );
            }
        }
    }
}
