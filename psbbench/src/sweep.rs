//! The `sweep` workload: one compile per (program × model), then a
//! machine grid per artifact through `CompiledArtifact::run_batch`,
//! every point golden-checked.

use crate::pipeline::{compile, gen, golden, machine, sim_line};
use crate::trace::Tracer;
use psb_compile::{ArtifactCache, CompileRequest, CompiledArtifact, ProfileSource};
use psb_core::batch::DEFAULT_STRIDE;
use psb_core::{MachineConfig, MemoryModel, ShadowMode};
use psb_eval::KERNELS;
use psb_isa::ScalarProgram;
use psb_scalar::{RunResult, ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

pub const SIZE: usize = 1024;
pub const MODELS: [Model; 2] = [Model::RegionPred, Model::TracePred];
pub const WIDTHS: [usize; 2] = [4, 8];
pub const STORE_BUFFERS: [usize; 2] = [4, 16];
pub const MEMORIES: [&str; 3] = [
    "perfect",
    "cache:8x1x2x1x4:64x2x4x1x10",
    "cache:64x2x4x1x10:256x4x4x1x20",
];

/// One program of the sweep: an `asm/` kernel (self-profiled from its
/// golden run, with its fault-injection config) or a generated workload
/// (profiled on its training input).
pub struct Program {
    pub name: String,
    pub eval: ScalarProgram,
    pub train: Option<ScalarProgram>,
    pub fault_once: BTreeSet<i64>,
}

impl Program {
    fn scalar_config(&self) -> ScalarConfig {
        ScalarConfig {
            fault_once_addrs: self.fault_once.clone(),
            ..ScalarConfig::default()
        }
    }

    fn request<'a>(&'a self, golden: &'a RunResult, model: Model) -> CompileRequest<'a> {
        CompileRequest {
            program: &self.eval,
            profile: match &self.train {
                Some(train) => ProfileSource::Train {
                    program: train,
                    config: ScalarConfig::default(),
                },
                None => ProfileSource::Provided(&golden.edge_profile),
            },
            sched: SchedConfig::new(model),
        }
    }

    /// The machine grid for one model's artifact.
    pub fn grid(&self, model: Model) -> Vec<MachineConfig> {
        let single = SchedConfig::new(model).single_shadow;
        let mut cfgs = Vec::new();
        for width in WIDTHS {
            for sb in STORE_BUFFERS {
                for mem in MEMORIES {
                    cfgs.push(MachineConfig {
                        shadow_mode: if single {
                            ShadowMode::Single
                        } else {
                            ShadowMode::Infinite
                        },
                        fault_once_addrs: self.fault_once.clone(),
                        store_buffer_size: sb,
                        memory: MemoryModel::parse(mem).expect("valid memory spec"),
                        ..MachineConfig::full_issue(width)
                    });
                }
            }
        }
        cfgs
    }
}

/// Grid points per pass.
pub fn points() -> usize {
    (KERNELS.len() + psb_eval::BENCHMARKS.len())
        * MODELS.len()
        * WIDTHS.len()
        * STORE_BUFFERS.len()
        * MEMORIES.len()
}

/// The sweep's inputs: the kernels parsed from `asm/`, the workloads
/// generated from the seed.
pub fn setup(t: &Tracer, seed: u64) -> Result<Vec<Program>, String> {
    let mut out = Vec::new();
    for k in KERNELS {
        let path = crate::asm_path(k);
        let case = t
            .time("isa.parse", || psb_fuzz::load_repro(&path))
            .map_err(|e| format!("sweep kernel {k}: {e}"))?;
        out.push(Program {
            name: k.to_string(),
            eval: case.program,
            train: None,
            fault_once: case.fault_once,
        });
    }
    for n in psb_eval::BENCHMARKS {
        out.push(Program {
            name: n.to_string(),
            eval: gen(t, n, seed, SIZE).program,
            train: Some(gen(t, n, psb_eval::EvalParams::default().train_seed, SIZE).program),
            fault_once: BTreeSet::new(),
        });
    }
    Ok(out)
}

/// The outcome of one timed pass.
pub struct Pass {
    pub secs: f64,
    /// One line of simulated counters per grid point, in grid order.
    pub lines: Vec<String>,
}

/// The timed path: a cold cache, one compile per (program × model),
/// then the grid through `run_batch`, every lane held to the golden
/// model.  `between` runs after each program, outside the timing.
pub fn run_native(progs: &[Program], between: &mut dyn FnMut()) -> Result<Pass, String> {
    let start = Instant::now();
    let cache = ArtifactCache::new();
    let mut lines = Vec::with_capacity(points());
    let mut secs = start.elapsed().as_secs_f64();
    for p in progs {
        let start = Instant::now();
        let gold = ScalarMachine::new(&p.eval, p.scalar_config())
            .run()
            .map_err(|e| format!("{}: scalar run failed: {e}", p.name))?;
        let want = gold.observable(&p.eval.live_out);
        for model in MODELS {
            let art = psb_compile::compile(&p.request(&gold, model), &cache)
                .map_err(|e| format!("{}/{model}: compile failed: {e}", p.name))?;
            let rep = art.run_batch(&p.grid(model));
            for (i, lane) in rep.lanes.into_iter().enumerate() {
                let (res, _) = lane.map_err(|e| format!("{}/{model} lane {i}: {e}", p.name))?;
                if res.observable(&p.eval.live_out) != want {
                    return Err(format!("{}/{model} lane {i}: diverged from golden", p.name));
                }
                lines.push(sim_line(&res));
            }
        }
        secs += start.elapsed().as_secs_f64();
        between();
    }
    Ok(Pass { secs, lines })
}

/// One artifact ready for per-point runs, with its golden observables.
pub struct Prepared {
    pub art: Arc<CompiledArtifact>,
    pub cfgs: Vec<MachineConfig>,
    pub want: (Vec<i64>, Vec<i64>),
    pub live_out: Vec<psb_isa::Reg>,
}

/// Compiles every artifact and runs every golden model, untimed, so
/// the per-point latency phases time only the points.
pub fn prepare(progs: &[Program]) -> Result<Vec<Prepared>, String> {
    let cache = ArtifactCache::new();
    let t = Tracer::new(false);
    let mut out = Vec::new();
    for p in progs {
        let gold =
            golden(&t, &p.eval, p.scalar_config()).map_err(|e| format!("{}: {e}", p.name))?;
        for model in MODELS {
            let (art, _) = compile(&t, &p.request(&gold, model), &cache, None)?;
            out.push(Prepared {
                art,
                cfgs: p.grid(model),
                want: gold.observable(&p.eval.live_out),
                live_out: p.eval.live_out.clone(),
            });
        }
    }
    Ok(out)
}

/// One grid point run on its own: the hoisted per-point loop.
pub fn run_point(t: &Tracer, p: &Prepared, cfg: &MachineConfig) -> Result<String, String> {
    let res = machine(t, &p.art, cfg.clone()).map_err(|e| format!("machine error: {e}"))?;
    if res.observable(&p.live_out) != p.want {
        return Err("diverged from golden".to_string());
    }
    Ok(sim_line(&res))
}

/// The traced replay: per program a golden run, per model the compile,
/// the batched grid, then the same grid point by point.  The two arms
/// must agree lane for lane.
pub fn replay(t: &Tracer, progs: &[Program], cache: &ArtifactCache) -> Result<Vec<String>, String> {
    let mut lines = Vec::new();
    for p in progs {
        let gold = golden(t, &p.eval, p.scalar_config()).map_err(|e| format!("{}: {e}", p.name))?;
        let want = gold.observable(&p.eval.live_out);
        for model in MODELS {
            let (art, _) = compile(t, &p.request(&gold, model), cache, None)?;
            let cfgs = p.grid(model);
            let rep = t.time("core.batch.run", || art.run_batch(&cfgs));
            // A batch cycle steps every live lane `DEFAULT_STRIDE`
            // cycles, so a full batch fills stride x lanes lane cycles.
            t.add("core.batch.lane_cycles", rep.lane_cycles as f64);
            t.add(
                "core.batch.slot_cycles",
                (rep.batch_cycles * DEFAULT_STRIDE * cfgs.len() as u64) as f64,
            );
            let mut batched = Vec::new();
            for lane in rep.lanes {
                let (res, _) = lane.map_err(|e| format!("{}/{model}: {e}", p.name))?;
                if res.observable(&p.eval.live_out) != want {
                    return Err(format!("{}/{model}: batched lane diverged", p.name));
                }
                batched.push(sim_line(&res));
            }
            let _solo = t.span("core.batch.solo");
            for (cfg, lane) in cfgs.iter().zip(&batched) {
                let start = Instant::now();
                let res = machine(t, &art, cfg.clone())
                    .map_err(|e| format!("{}/{model}: {e}", p.name))?;
                let ns = start.elapsed().as_nanos() as f64;
                if res.observable(&p.eval.live_out) != want || sim_line(&res) != *lane {
                    return Err(format!(
                        "{}/{model}: solo run differs from its lane",
                        p.name
                    ));
                }
                let side = if matches!(cfg.memory, MemoryModel::Perfect) {
                    ("core.mem.perfect_ns", "core.mem.perfect_cycles")
                } else {
                    ("core.mem.cache_ns", "core.mem.cache_cycles")
                };
                t.add(side.0, ns);
                t.add(side.1, res.cycles as f64);
            }
            lines.extend(batched);
        }
    }
    Ok(lines)
}
