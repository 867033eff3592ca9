//! The calls a simulated point makes into each layer, wrapped in the
//! benchmark's spans: input generation, the golden scalar run, the
//! cache key, the compile, machine construction and the cycle loop.
//! Every replay (paper, sweep, serve) goes through these.

use crate::trace::Tracer;
use psb_compile::{
    compile_stored, ArtifactCache, ArtifactSource, CompileRequest, CompiledArtifact, DiskStore,
};
use psb_core::{EventLog, MachineConfig, VliwError, VliwMachine, VliwResult};
use psb_isa::ScalarProgram;
use psb_scalar::{RunError, RunResult, ScalarConfig, ScalarMachine};
use psb_workloads::Workload;
use std::sync::Arc;

/// Generates a named workload's program.
pub fn gen(t: &Tracer, name: &str, seed: u64, size: usize) -> Workload {
    t.time("workloads.gen", || psb_workloads::by_name(name, seed, size))
        .unwrap_or_else(|| panic!("unknown workload {name}"))
}

/// The golden scalar run on an evaluation input.
pub fn golden(
    t: &Tracer,
    program: &ScalarProgram,
    cfg: ScalarConfig,
) -> Result<RunResult, RunError> {
    let res = t.time("scalar.golden", || ScalarMachine::new(program, cfg).run())?;
    t.add("scalar.golden_cycles", res.cycles as f64);
    Ok(res)
}

/// The compile through the cache (and store, when given).  When
/// tracing, the cache key is first computed once more on its own, which
/// is what `compile.key_s` reports; the program computes it only inside
/// the compile, so untraced runs skip the extra key and the traced
/// run's copy shows up in `trace_overhead_s`.
pub fn compile(
    t: &Tracer,
    req: &CompileRequest<'_>,
    cache: &ArtifactCache,
    store: Option<&DiskStore>,
) -> Result<(Arc<CompiledArtifact>, ArtifactSource), String> {
    if t.on() {
        std::hint::black_box(t.time("compile.key", || req.key()));
    }
    let scheduled = t.count("sched.compiles");
    let out = t
        .time("compile", || compile_stored(req, cache, store, t))
        .map_err(|e| format!("compile failed: {e}"))?;
    if t.count("sched.compiles") > scheduled {
        t.add("sched.words", out.0.stats.words as f64);
    }
    Ok(out)
}

/// Machine construction (validation, dispatch validation) and the
/// cycle loop, exactly what `CompiledArtifact::run` does, as two spans.
pub fn machine(
    t: &Tracer,
    art: &CompiledArtifact,
    cfg: MachineConfig,
) -> Result<VliwResult, VliwError> {
    let sink = EventLog::new(cfg.record_events);
    let m = t.time("core.machine.build", || {
        VliwMachine::with_sink_decoded(&art.program, Arc::clone(&art.decoded), cfg, sink)
    })?;
    let res = t.time("core.machine.run", || m.run())?;
    count_run(t, &res);
    Ok(res)
}

/// The simulated counts of one machine run.
fn count_run(t: &Tracer, res: &VliwResult) {
    if !t.on() {
        return;
    }
    let s = &res.stats;
    for (name, v) in [
        ("core.machine.sim_cycles", res.cycles),
        ("core.machine.runs", 1),
        ("core.machine.ops_executed", s.ops_executed),
        ("core.machine.ops_squashed", s.ops_squashed),
        ("core.machine.commits", s.commits),
        ("core.machine.squashes", s.squashes),
        ("core.machine.stall_operand", s.stall_operand),
        ("core.machine.stall_sb_full", s.stall_sb_full),
        ("core.machine.stall_busy", s.stall_busy),
        ("core.machine.recoveries", s.recoveries),
        ("core.mem.icache_accesses", s.icache_accesses),
        ("core.mem.icache_misses", s.icache_misses),
        ("core.mem.dcache_accesses", s.dcache_accesses),
        ("core.mem.dcache_misses", s.dcache_misses),
        ("core.mem.stall_ifetch", s.stall_ifetch),
        ("core.mem.stall_load_miss", s.stall_load_miss),
    ] {
        t.add(name, v as f64);
    }
}

/// The simulated outcome of a run as one stable line, for digests.
pub fn sim_line(res: &VliwResult) -> String {
    format!("{} {:?}", res.cycles, res.stats)
}
