//! The `paper` workload: every evaluation point `repro all` runs.
//!
//! The timed path calls psb-eval's experiment functions and renderers
//! exactly as `repro all --jobs 1` does.  The replay runs the same
//! points as a flat list of work items (one per item an experiment
//! hands its worker pool), each through the layers' public functions,
//! and reassembles the experiments' results — its JSON must equal the
//! timed path's byte for byte, which pins the replay to the program.

use crate::pipeline::{compile, gen, golden, machine};
use crate::trace::Tracer;
use psb_compile::{ArtifactCache, CompileRequest, ProfileSource};
use psb_core::{MachineConfig, ShadowMode};
use psb_eval::{
    ablation_counter, ablation_shadow, ablation_unroll, code_size, fig6, fig7, fig8,
    geometric_mean, interaction, mix, render_ablation, render_code_size, render_fig8,
    render_figure, render_interaction, render_mix, render_sensitivity, render_table2,
    render_table3, sensitivity, summary, table2, table3, to_json_pretty, AblationResult,
    BenchResult, CodeSizeRow, EvalParams, Fig8Cell, Fig8Result, FigureResult, InteractionResult,
    MixRow, ModelResult, SensitivityRow, Table2Row, Table3Row, ToJson, BENCHMARKS,
};
use psb_isa::Resources;
use psb_scalar::{successive_accuracy, ScalarConfig};
use psb_sched::{Model, SchedConfig};
use std::time::Instant;

/// `repro all`'s experiments, in its order.
pub const EXPERIMENTS: [&str; 13] = [
    "table2",
    "table3",
    "fig6",
    "fig7",
    "fig8",
    "summary",
    "interaction",
    "mix",
    "codesize",
    "sensitivity",
    "ablation-shadow",
    "ablation-counter",
    "ablation-unroll",
];

/// The paper's geomean speedups ("Headline" in EXPERIMENTS.md), in
/// [`Model::ALL`] order.
pub const PAPER_GEOMEANS: [f64; 7] = [1.27, 1.45, 1.78, 1.8, 1.74, 2.24, 2.45];

const FIG6: [Model; 4] = [
    Model::Global,
    Model::Squash,
    Model::Trace,
    Model::RegionSquash,
];
const FIG7: [Model; 4] = [
    Model::Global,
    Model::Boost,
    Model::TracePred,
    Model::RegionPred,
];
const INTERACTION: [Model; 4] = [
    Model::Trace,
    Model::RegionSquash,
    Model::TracePred,
    Model::RegionPred,
];

/// The experiment parameters a seed selects: the paper's default
/// configuration, evaluated on the seed's input.
pub fn params(seed: u64) -> EvalParams {
    EvalParams {
        eval_seed: seed,
        jobs: 1,
        ..EvalParams::default()
    }
}

/// One experiment through its public function and renderer, as `repro
/// all` runs it.  Returns the host seconds of that call and the
/// experiment's JSON (serialized after the clock stops, for the digest).
pub fn run_native(name: &str, p: &EvalParams) -> (f64, String) {
    fn timed<R: ToJson>(start: Instant, r: R, render: impl Fn(&R) -> String) -> (f64, String) {
        std::hint::black_box(render(&r));
        let secs = start.elapsed().as_secs_f64();
        (secs, to_json_pretty(&r))
    }
    let s = Instant::now();
    match name {
        "table2" => timed(s, table2(p), |r| render_table2(r)),
        "table3" => timed(s, table3(p), |r| render_table3(r)),
        "fig6" => timed(s, fig6(p), |r| {
            render_figure("Figure 6 (restricted speculation)", r)
        }),
        "fig7" => timed(s, fig7(p), |r| {
            render_figure("Figure 7 (predicating vs conventional)", r)
        }),
        "fig8" => timed(s, fig8(p), render_fig8),
        "summary" => timed(s, summary(p), |r| {
            render_figure("Summary (all seven models)", r)
        }),
        "interaction" => timed(s, interaction(p), render_interaction),
        "mix" => timed(s, mix(p), |r| render_mix(r)),
        "codesize" => timed(s, code_size(p), |r| code_size_text(r)),
        "sensitivity" => timed(s, sensitivity(p), |r| render_sensitivity(r)),
        "ablation-shadow" => timed(s, ablation_shadow(p), render_ablation),
        "ablation-counter" => timed(s, ablation_counter(p), render_ablation),
        "ablation-unroll" => timed(s, ablation_unroll(p), render_ablation),
        other => panic!("unknown experiment {other}"),
    }
}

fn code_size_text(rows: &[CodeSizeRow]) -> String {
    let names: Vec<&str> = Model::ALL.iter().map(|m| m.name()).collect();
    render_code_size(rows, &names)
}

/// What one work item computes.
#[derive(Clone, Debug)]
enum Work {
    /// Table 2 row: the scalar baseline.
    Inventory,
    /// Table 3 row: training profile against the evaluation trace.
    Accuracy,
    /// Dynamic instruction mix row.
    Mix,
    /// `run_workload`: golden run, then compile + run per model.
    Run(Vec<Model>),
    /// Code-size row: one compile per model, no run.
    CodeSize,
    /// Ablation-unroll's variant: 3x-unrolled programs on 8-issue.
    Unrolled,
}

/// One work item: what an experiment hands one worker.
#[derive(Clone, Debug)]
pub struct Item {
    /// Index of its experiment in [`EXPERIMENTS`]; items of one
    /// experiment share that experiment's cache.
    pub exp: usize,
    name: &'static str,
    params: EvalParams,
    work: Work,
}

/// What an item produced.
pub enum Out {
    Table2(Table2Row),
    Table3(Table3Row),
    Mix(MixRow),
    Bench(BenchResult),
    CodeSize(CodeSizeRow),
    Speedup(f64),
}

impl Out {
    fn bench(&self) -> &BenchResult {
        match self {
            Out::Bench(b) => b,
            _ => panic!("expected a run_workload result"),
        }
    }

    fn first_speedup(&self) -> f64 {
        match self {
            Out::Bench(b) => b.models[0].speedup,
            Out::Speedup(s) => *s,
            _ => panic!("expected a speedup"),
        }
    }
}

impl Item {
    /// Golden-checked machine runs, for `points_per_s`.
    pub fn machine_runs(&self) -> usize {
        match &self.work {
            Work::Run(models) => models.len(),
            Work::Unrolled => 1,
            _ => 0,
        }
    }
}

/// One cold artifact cache per experiment, as each experiment starts.
pub fn caches() -> Vec<ArtifactCache> {
    EXPERIMENTS.iter().map(|_| ArtifactCache::new()).collect()
}

/// Replays every item in order through the layers and reassembles each
/// experiment's JSON.
pub fn replay(t: &Tracer, items: &[Item], caches: &[ArtifactCache]) -> Result<Vec<String>, String> {
    let mut jsons = Vec::new();
    for (exp, name) in EXPERIMENTS.iter().enumerate() {
        let outs = items
            .iter()
            .filter(|i| i.exp == exp)
            .map(|i| run_item(t, i, &caches[exp]))
            .collect::<Result<Vec<Out>, String>>()?;
        jsons.push(report(t, name, &outs));
    }
    Ok(jsons)
}

fn fig8_params(p: &EvalParams, width: usize, depth: usize) -> EvalParams {
    EvalParams {
        issue_width: width,
        resources: Resources::full_issue(width),
        num_conds: 8,
        depth,
        ..p.clone()
    }
}

fn wide(p: &EvalParams) -> EvalParams {
    EvalParams {
        issue_width: 8,
        resources: Resources::full_issue(8),
        num_conds: 8,
        depth: 8,
        ..p.clone()
    }
}

/// Every work item of `repro all`, in the order `--jobs 1` runs them.
pub fn items(p: &EvalParams) -> Vec<Item> {
    let mut out = Vec::new();
    let mut push = |exp: usize, name: &'static str, params: &EvalParams, work: Work| {
        out.push(Item {
            exp,
            name,
            params: params.clone(),
            work,
        })
    };
    for (exp, id) in EXPERIMENTS.iter().enumerate() {
        match *id {
            "table2" | "table3" | "mix" | "codesize" => {
                let work = match *id {
                    "table2" => Work::Inventory,
                    "table3" => Work::Accuracy,
                    "mix" => Work::Mix,
                    _ => Work::CodeSize,
                };
                for n in BENCHMARKS {
                    push(exp, n, p, work.clone());
                }
            }
            "fig6" | "fig7" | "summary" => {
                let models = match *id {
                    "fig6" => FIG6.to_vec(),
                    "fig7" => FIG7.to_vec(),
                    _ => Model::ALL.to_vec(),
                };
                for n in BENCHMARKS {
                    push(exp, n, p, Work::Run(models.clone()));
                }
            }
            "fig8" => {
                for w in [2, 4, 8] {
                    for d in [1, 2, 4, 8] {
                        for n in BENCHMARKS {
                            push(
                                exp,
                                n,
                                &fig8_params(p, w, d),
                                Work::Run(vec![Model::RegionPred]),
                            );
                        }
                    }
                }
            }
            "interaction" => {
                for m in INTERACTION {
                    for n in BENCHMARKS {
                        push(exp, n, p, Work::Run(vec![m]));
                    }
                }
            }
            "sensitivity" => {
                for v in sensitivity_settings(p) {
                    for m in [Model::TracePred, Model::RegionPred] {
                        for n in BENCHMARKS {
                            push(exp, n, &v.1, Work::Run(vec![m]));
                        }
                    }
                }
            }
            "ablation-shadow" | "ablation-counter" => {
                let (model, variant) = ablation_variant(id, p);
                for n in BENCHMARKS {
                    push(exp, n, p, Work::Run(vec![model]));
                    push(exp, n, &variant, Work::Run(vec![model]));
                }
            }
            "ablation-unroll" => {
                let w = wide(p);
                for n in BENCHMARKS {
                    push(exp, n, &w, Work::Run(vec![Model::RegionPred]));
                    push(exp, n, &w, Work::Unrolled);
                }
            }
            other => unreachable!("experiment {other}"),
        }
    }
    out
}

fn sensitivity_settings(p: &EvalParams) -> Vec<(String, EvalParams)> {
    let mut v = Vec::new();
    for penalty in [0u64, 1, 2] {
        v.push((
            format!("taken-jump penalty = {penalty}"),
            EvalParams {
                jump_penalty: penalty,
                ..p.clone()
            },
        ));
    }
    for buf in [2usize, 4, 16] {
        v.push((
            format!("store buffer = {buf} entries"),
            EvalParams {
                store_buffer: buf,
                ..p.clone()
            },
        ));
    }
    v
}

fn ablation_variant(id: &str, p: &EvalParams) -> (Model, EvalParams) {
    let mut v = p.clone();
    if id == "ablation-shadow" {
        v.infinite_shadow = true;
        (Model::RegionPred, v)
    } else {
        v.ordered_cond_sets = true;
        (Model::TracePred, v)
    }
}

fn sched_config(p: &EvalParams, model: Model) -> SchedConfig {
    SchedConfig {
        model,
        issue_width: p.issue_width,
        resources: p.resources,
        num_conds: p.num_conds,
        depth: p.depth.min(p.num_conds),
        max_blocks: 16,
        single_shadow: !p.infinite_shadow,
        ordered_cond_sets: p.ordered_cond_sets,
    }
}

fn machine_config(p: &EvalParams) -> MachineConfig {
    MachineConfig {
        issue_width: p.issue_width,
        resources: p.resources,
        shadow_mode: if p.infinite_shadow {
            ShadowMode::Infinite
        } else {
            ShadowMode::Single
        },
        taken_jump_penalty: p.jump_penalty,
        store_buffer_size: p.store_buffer,
        memory: p.memory,
        ..MachineConfig::default()
    }
}

/// Runs one item through the layers.  Every machine run is held to the
/// golden model; a divergence is an error.
pub fn run_item(t: &Tracer, item: &Item, cache: &ArtifactCache) -> Result<Out, String> {
    let p = &item.params;
    let n = item.name;
    let scalar_cfg = ScalarConfig::default;
    Ok(match &item.work {
        Work::Inventory | Work::Mix => {
            let w = gen(t, n, p.eval_seed, p.size);
            let r = golden(t, &w.program, scalar_cfg()).map_err(|e| format!("{n}: {e}"))?;
            if matches!(item.work, Work::Inventory) {
                Out::Table2(Table2Row {
                    name: w.name.to_string(),
                    description: w.description.to_string(),
                    static_len: w.program.static_len(),
                    scalar_cycles: r.cycles,
                })
            } else {
                let total = r.dyn_instrs.max(1) as f64;
                Out::Mix(MixRow {
                    name: n.to_string(),
                    loads: r.dyn_loads as f64 / total,
                    stores: r.dyn_stores as f64 / total,
                    branches: r.dyn_branches as f64 / total,
                    jumps: r.dyn_jumps as f64 / total,
                })
            }
        }
        Work::Accuracy => {
            let train = gen(t, n, p.train_seed, p.size);
            let eval = gen(t, n, p.eval_seed, p.size);
            let profile = t
                .time("scalar.profile", || {
                    psb_scalar::ScalarMachine::new(&train.program, scalar_cfg()).run()
                })
                .map_err(|e| format!("{n}: {e}"))?
                .edge_profile;
            let trace = golden(t, &eval.program, scalar_cfg())
                .map_err(|e| format!("{n}: {e}"))?
                .branch_trace;
            Out::Table3(Table3Row {
                name: n.to_string(),
                accuracy: successive_accuracy(&trace, |b| profile.predict_taken(b), 8),
            })
        }
        Work::Run(models) => {
            let train = gen(t, n, p.train_seed, p.size);
            let eval = gen(t, n, p.eval_seed, p.size);
            let scalar = golden(t, &eval.program, scalar_cfg()).map_err(|e| format!("{n}: {e}"))?;
            let mut results = Vec::with_capacity(models.len());
            for &model in models {
                let req = CompileRequest {
                    program: &eval.program,
                    profile: ProfileSource::Train {
                        program: &train.program,
                        config: scalar_cfg(),
                    },
                    sched: sched_config(p, model),
                };
                let (art, _) =
                    compile(t, &req, cache, None).map_err(|e| format!("{n}/{model}: {e}"))?;
                let res = machine(t, &art, machine_config(p))
                    .map_err(|e| format!("{n}/{model}: machine error: {e}"))?;
                if res.observable(&eval.program.live_out)
                    != scalar.observable(&eval.program.live_out)
                {
                    return Err(format!(
                        "{n}/{model}: diverged from the scalar golden model"
                    ));
                }
                results.push(ModelResult {
                    model: model.name().to_string(),
                    vliw_cycles: res.cycles,
                    speedup: scalar.cycles as f64 / res.cycles as f64,
                    static_ops: art.program.static_ops(),
                    squashed_ops: res.ops_squashed,
                    recoveries: res.recoveries,
                    stall_ifetch: res.stall_ifetch,
                    stall_load_miss: res.stall_load_miss,
                    icache: (res.icache_accesses, res.icache_misses),
                    dcache: (res.dcache_accesses, res.dcache_misses),
                });
            }
            Out::Bench(BenchResult {
                name: n.to_string(),
                static_len: eval.program.static_len(),
                scalar_cycles: scalar.cycles,
                models: results,
            })
        }
        Work::CodeSize => {
            let train = gen(t, n, p.train_seed, p.size);
            let eval = gen(t, n, p.eval_seed, p.size);
            let mut per_model = Vec::new();
            let mut expansion = Vec::new();
            for model in Model::ALL {
                let mut cfg = SchedConfig::new(model);
                cfg.issue_width = p.issue_width;
                cfg.resources = p.resources;
                cfg.num_conds = p.num_conds;
                cfg.depth = p.depth.min(p.num_conds);
                let req = CompileRequest {
                    program: &eval.program,
                    profile: ProfileSource::Train {
                        program: &train.program,
                        config: scalar_cfg(),
                    },
                    sched: cfg,
                };
                let (art, _) =
                    compile(t, &req, cache, None).map_err(|e| format!("{n}/{model}: {e}"))?;
                per_model.push(art.sched_stats.ops);
                expansion.push(art.sched_stats.expansion_over(&eval.program));
            }
            Out::CodeSize(CodeSizeRow {
                name: n.to_string(),
                scalar_ops: eval.program.static_len(),
                per_model,
                expansion,
            })
        }
        Work::Unrolled => {
            let train = gen(t, n, p.train_seed, p.size);
            let eval = gen(t, n, p.eval_seed, p.size);
            // Loop unrolling lives in psb-ir, which is not a measured
            // layer: its time is unaccounted by design.
            let train_u = psb_ir::unroll_loops(&train.program, 3);
            let eval_u = psb_ir::unroll_loops(&eval.program, 3);
            let scalar = golden(t, &eval_u, scalar_cfg()).map_err(|e| format!("{n}: {e}"))?;
            let mut cfg = SchedConfig::new(Model::RegionPred);
            cfg.issue_width = 8;
            cfg.resources = Resources::full_issue(8);
            cfg.num_conds = 8;
            cfg.depth = 8;
            cfg.max_blocks = 32;
            let req = CompileRequest {
                program: &eval_u,
                profile: ProfileSource::Train {
                    program: &train_u,
                    config: scalar_cfg(),
                },
                sched: cfg,
            };
            let (art, _) =
                compile(t, &req, cache, None).map_err(|e| format!("{n}/unrolled: {e}"))?;
            let mut mc = MachineConfig::full_issue(8);
            mc.store_buffer_size = 32;
            let res = machine(t, &art, mc).map_err(|e| format!("{n}/unrolled: {e}"))?;
            if res.observable(&eval_u.live_out) != scalar.observable(&eval_u.live_out) {
                return Err(format!("{n}/unrolled diverged"));
            }
            let orig = golden(t, &eval.program, scalar_cfg()).map_err(|e| format!("{n}: {e}"))?;
            Out::Speedup(orig.cycles as f64 / res.cycles as f64)
        }
    })
}

/// Reassembles one experiment's result from its items' outputs, then
/// renders and serializes it as `repro all` would.  Returns the JSON.
pub fn report(t: &Tracer, exp: &str, outs: &[Out]) -> String {
    let _g = t.span("eval.report");
    let figure = |models: &[Model]| {
        let benches: Vec<BenchResult> = outs.iter().map(|o| o.bench().clone()).collect();
        let geomeans = models
            .iter()
            .map(|&m| {
                let sp: Vec<f64> = benches.iter().filter_map(|b| b.speedup_of(m)).collect();
                geometric_mean(&sp)
            })
            .collect();
        FigureResult {
            models: models.iter().map(|m| m.name().to_string()).collect(),
            benches,
            geomeans,
        }
    };
    let speedups: Vec<f64> = outs
        .iter()
        .filter(|o| matches!(o, Out::Bench(_) | Out::Speedup(_)))
        .map(|o| o.first_speedup())
        .collect();
    let pairs = |label: &str| {
        let base: Vec<f64> = speedups.iter().step_by(2).copied().collect();
        let variant: Vec<f64> = speedups.iter().skip(1).step_by(2).copied().collect();
        AblationResult {
            label: label.to_string(),
            benches: BENCHMARKS.iter().map(|s| s.to_string()).collect(),
            geomeans: (geometric_mean(&base), geometric_mean(&variant)),
            base,
            variant,
        }
    };
    let geo_chunks = || -> Vec<f64> {
        speedups
            .chunks(BENCHMARKS.len())
            .map(geometric_mean)
            .collect()
    };
    let (text, json) = match exp {
        "table2" => {
            let rows: Vec<Table2Row> = outs
                .iter()
                .map(|o| match o {
                    Out::Table2(r) => r.clone(),
                    _ => unreachable!(),
                })
                .collect();
            (render_table2(&rows), to_json_pretty(&rows))
        }
        "table3" => {
            let rows: Vec<Table3Row> = outs
                .iter()
                .map(|o| match o {
                    Out::Table3(r) => r.clone(),
                    _ => unreachable!(),
                })
                .collect();
            (render_table3(&rows), to_json_pretty(&rows))
        }
        "mix" => {
            let rows: Vec<MixRow> = outs
                .iter()
                .map(|o| match o {
                    Out::Mix(r) => r.clone(),
                    _ => unreachable!(),
                })
                .collect();
            (render_mix(&rows), to_json_pretty(&rows))
        }
        "codesize" => {
            let rows: Vec<CodeSizeRow> = outs
                .iter()
                .map(|o| match o {
                    Out::CodeSize(r) => r.clone(),
                    _ => unreachable!(),
                })
                .collect();
            (code_size_text(&rows), to_json_pretty(&rows))
        }
        "fig6" => {
            let f = figure(&FIG6);
            (
                render_figure("Figure 6 (restricted speculation)", &f),
                to_json_pretty(&f),
            )
        }
        "fig7" => {
            let f = figure(&FIG7);
            (
                render_figure("Figure 7 (predicating vs conventional)", &f),
                to_json_pretty(&f),
            )
        }
        "summary" => {
            let f = figure(&Model::ALL);
            (
                render_figure("Summary (all seven models)", &f),
                to_json_pretty(&f),
            )
        }
        "fig8" => {
            let mut cells = Vec::new();
            let mut i = 0;
            for width in [2usize, 4, 8] {
                for depth in [1usize, 2, 4, 8] {
                    let sp = speedups[i..i + BENCHMARKS.len()].to_vec();
                    i += BENCHMARKS.len();
                    cells.push(Fig8Cell {
                        width,
                        depth,
                        geomean: geometric_mean(&sp),
                        speedups: sp,
                    });
                }
            }
            let f = Fig8Result { cells };
            (render_fig8(&f), to_json_pretty(&f))
        }
        "interaction" => {
            let g = geo_chunks();
            let r = InteractionResult {
                trace_squash: g[0],
                region_squash: g[1],
                trace_buffered: g[2],
                region_buffered: g[3],
            };
            (render_interaction(&r), to_json_pretty(&r))
        }
        "sensitivity" => {
            let g = geo_chunks();
            let rows: Vec<SensitivityRow> = sensitivity_settings(&params(0))
                .into_iter()
                .zip(g.chunks(2))
                .map(|((setting, _), pair)| SensitivityRow {
                    setting,
                    trace_pred: pair[0],
                    region_pred: pair[1],
                })
                .collect();
            (render_sensitivity(&rows), to_json_pretty(&rows))
        }
        "ablation-shadow" => {
            let a = pairs("single vs infinite shadow registers (region-pred)");
            (render_ablation(&a), to_json_pretty(&a))
        }
        "ablation-counter" => {
            let a = pairs("vector-form vs counter-form predicates (trace-pred)");
            (render_ablation(&a), to_json_pretty(&a))
        }
        "ablation-unroll" => {
            let a = pairs("8-issue region-pred: rolled vs 3x-unrolled loops (Fig. 8 remark)");
            (render_ablation(&a), to_json_pretty(&a))
        }
        other => panic!("unknown experiment {other}"),
    };
    std::hint::black_box(text);
    json
}

/// The summary's seven per-model geomeans from its JSON.
pub fn summary_geomeans(summary_json: &str) -> Vec<f64> {
    psb_serve::json::Json::parse(summary_json)
        .ok()
        .and_then(|v| {
            v.get("geomeans")?
                .as_array()?
                .iter()
                .map(|g| g.as_f64())
                .collect::<Option<Vec<f64>>>()
        })
        .unwrap_or_default()
}
