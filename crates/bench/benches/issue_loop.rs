//! Engine comparison: the simulator's fast path against its reference,
//! on real scheduled programs.
//!
//! Both engines execute the identical architecture (the differential
//! suite proves byte-equal results); what this group measures is pure
//! simulator cost.  The legacy path clones the `MultiOp` and walks
//! `SlotOp::srcs()` allocations every cycle, lowers each slot it issues
//! to a micro-op, and runs the paper's naive commit pass over every
//! buffered entry every cycle.  In normal mode the tabled path reads
//! `Copy` slots, each already lowered to its micro-op, from a dense
//! arena, screens operand hazards with one mask intersection and skips
//! the store and control prepass for words that have neither; it runs
//! the indexed commit pass only when something is buffered, and skips
//! inert stall runs.  Both execute a live slot through one micro-op
//! match.
//!
//! Each workload runs under `region-pred`, whose cycles commit and
//! squash buffered state, and under `global`, which buffers nothing, so
//! its `global_*` routines time the cycle loop alone.
//!
//! A routine (one whole machine run, about 0.1 ms) is warmed up once,
//! and each of its 20 samples runs it enough times to last about 1 ms
//! (the vendored criterion sizes samples from the warm-up run), so the
//! printed median is not a single timer read around one run.

use criterion::{criterion_group, criterion_main, Criterion};
use psb_compile::{compile_fresh, CompileRequest, CompiledArtifact, ProfileSource};
use psb_core::{Engine, MachineConfig};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use std::hint::black_box;

fn compiled(name: &str, model: Model) -> CompiledArtifact {
    let w = psb_workloads::by_name(name, 3, 512).unwrap();
    let profile = ScalarMachine::new(&w.program, ScalarConfig::default())
        .run()
        .unwrap()
        .edge_profile;
    compile_fresh(&CompileRequest {
        program: &w.program,
        profile: ProfileSource::Provided(&profile),
        sched: SchedConfig::new(model),
    })
    .unwrap()
}

fn bench_engines(c: &mut Criterion, name: &'static str) {
    let mut g = c.benchmark_group(format!("issue_loop_{name}"));
    for (prefix, model) in [("", Model::RegionPred), ("global_", Model::Global)] {
        let art = compiled(name, model);
        for (engine_label, engine) in [("legacy", Engine::Legacy), ("tabled", Engine::Tabled)] {
            let cfg = MachineConfig {
                engine,
                ..MachineConfig::default()
            };
            g.bench_function(format!("{prefix}{engine_label}"), |b| {
                b.iter(|| black_box(black_box(&art).run(cfg.clone())))
            });
        }
    }
    g.finish();
}

fn bench_issue_loop(c: &mut Criterion) {
    bench_engines(c, "li");
    bench_engines(c, "grep");
}

criterion_group! {
    name = issue_loop;
    config = Criterion::default().sample_size(20);
    targets = bench_issue_loop
}
criterion_main!(issue_loop);
