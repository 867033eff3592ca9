//! Issue-loop engine comparison: the table-dispatched hot path against
//! the legacy per-cycle decode path, on real scheduled programs.
//!
//! Both engines execute the identical architecture (the differential
//! suite proves byte-equal results); what this group measures is pure
//! simulator cost — the legacy path clones the `MultiOp` and walks
//! `SlotOp::srcs()` allocations every cycle, while the tabled path reads
//! `Copy` slots from a dense arena, screens operand hazards with one mask
//! intersection, and jumps through build-time-generated handler tables
//! that fuse predicate evaluation, hazard masking and execution into one
//! monomorphized call per slot.

use criterion::{criterion_group, criterion_main, Criterion};
use psb_compile::{compile_fresh, CompileRequest, CompiledArtifact, ProfileSource};
use psb_core::{Engine, MachineConfig};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use std::hint::black_box;

fn compiled(name: &str) -> CompiledArtifact {
    let w = psb_workloads::by_name(name, 3, 512).unwrap();
    let profile = ScalarMachine::new(&w.program, ScalarConfig::default())
        .run()
        .unwrap()
        .edge_profile;
    compile_fresh(&CompileRequest {
        program: &w.program,
        profile: ProfileSource::Provided(&profile),
        sched: SchedConfig::new(Model::RegionPred),
    })
    .unwrap()
}

fn bench_engines(c: &mut Criterion, name: &'static str) {
    let art = compiled(name);
    let mut g = c.benchmark_group(format!("issue_loop_{name}"));
    for (label, engine) in [("legacy", Engine::Legacy), ("tabled", Engine::Tabled)] {
        let cfg = MachineConfig {
            engine,
            ..MachineConfig::default()
        };
        g.bench_function(label, |b| {
            b.iter(|| black_box(black_box(&art).run(cfg.clone())))
        });
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
