//! Microbenchmarks of the predicating mechanism itself: the hardware
//! primitives the paper argues are cheap (Section 4.2.1's "three-gate
//! delay" match operation), plus simulator throughput on real kernels,
//! scalar and VLIW.

use criterion::{criterion_group, criterion_main, Criterion};
use psb_compile::{
    compile_fresh, compile_stored, ArtifactCache, CompileRequest, CompiledArtifact, ProfileSource,
};
use psb_core::{
    CommitScan, CountersSink, EventLog, MachineConfig, NullSink, PredicatedRegFile, ShadowMode,
};
use psb_eval::{parallel_map, parallel_map_t, EvalParams, BENCHMARKS};
use psb_isa::{Ccr, CondReg, Predicate, Reg};
use psb_scalar::{ScalarConfig, ScalarMachine};
use psb_sched::{Model, SchedConfig};
use psb_telemetry::Recorder;
use std::hint::black_box;

/// One region-pred artifact for a 512-element workload, compiled through
/// the real pipeline (profiled on the same input the machine benches run).
fn region_pred_artifact(name: &str) -> CompiledArtifact {
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

fn bench_predicate_eval(c: &mut Criterion) {
    let p = Predicate::always()
        .and_pos(CondReg::new(0))
        .and_neg(CondReg::new(1))
        .and_pos(CondReg::new(3));
    let mut ccr = Ccr::new(4);
    ccr.set(CondReg::new(0), true);
    ccr.set(CondReg::new(1), false);
    c.bench_function("predicate_masked_match", |b| {
        b.iter(|| black_box(black_box(&p).eval(black_box(&ccr))))
    });
}

fn bench_regfile_commit(c: &mut Criterion) {
    c.bench_function("regfile_tick_commit_squash", |b| {
        b.iter(|| {
            let mut rf = PredicatedRegFile::new(64, ShadowMode::Single);
            for i in 1..32 {
                let pred = if i % 2 == 0 {
                    Predicate::always().and_pos(CondReg::new(0))
                } else {
                    Predicate::always().and_neg(CondReg::new(0))
                };
                rf.write_spec(Reg::new(i), i as i64, pred, false).unwrap();
            }
            let mut ccr = Ccr::new(4);
            ccr.set(CondReg::new(0), true);
            let mut log = EventLog::new(false);
            rf.tick(&ccr, 1, &mut log);
            black_box(rf)
        })
    });
}

/// The tentpole comparison: per-cycle commit cost with many buffered
/// entries whose conditions never resolve.  The naive scan re-evaluates
/// every entry every cycle; the indexed scan does work only on the first
/// pass (the entries are pending) and then sleeps until a subscribed
/// condition changes.
fn bench_commit_scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("commit_scan_idle_ticks");
    for (label, scan) in [
        ("naive", CommitScan::Naive),
        ("indexed", CommitScan::Indexed),
    ] {
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut rf = PredicatedRegFile::new(64, ShadowMode::Single).with_commit_scan(scan);
                for i in 1..48usize {
                    let pred = Predicate::always().and_pos(CondReg::new(4 + (i % 4)));
                    rf.write_spec(Reg::new(i), i as i64, pred, false).unwrap();
                }
                let ccr = Ccr::new(8);
                let mut log = EventLog::new(false);
                for cycle in 1..=1_000u64 {
                    rf.tick(&ccr, cycle, &mut log);
                }
                black_box(rf)
            })
        });
    }
    g.finish();
}

fn machine_throughput(c: &mut Criterion, name: &'static str) {
    let art = region_pred_artifact(name);
    c.bench_function(format!("machine_throughput_{name}"), |b| {
        b.iter(|| black_box(black_box(&art).run(MachineConfig::default())))
    });
}

fn bench_machine(c: &mut Criterion) {
    machine_throughput(c, "grep");
    machine_throughput(c, "li");
}

/// The scalar interpreter on each evaluation program at the quick size:
/// the golden run every evaluation point starts from, under the default
/// configuration (branch trace recorded).
fn bench_scalar(c: &mut Criterion) {
    let params = EvalParams::quick();
    for name in BENCHMARKS {
        let w = psb_workloads::by_name(name, params.eval_seed, params.size).unwrap();
        c.bench_function(format!("scalar_run_{name}"), |b| {
            b.iter(|| {
                black_box(ScalarMachine::new(black_box(&w.program), ScalarConfig::default()).run())
            })
        });
    }
}

/// Guard for the observability tentpole: a `NullSink` machine must cost
/// the same as the plain one (the sink's `event_enabled`/`sample_enabled`
/// return constant `false`, so every instrumentation site monomorphizes
/// away), while the counters sink pays only its sampling cost.
fn bench_trace_sink_overhead(c: &mut Criterion) {
    let art = region_pred_artifact("li");
    let mut g = c.benchmark_group("trace_sink_li");
    g.bench_function("baseline", |b| {
        b.iter(|| black_box(black_box(&art).run(MachineConfig::default())))
    });
    g.bench_function("null_sink", |b| {
        b.iter(|| black_box(black_box(&art).run_with_sink(MachineConfig::default(), NullSink)))
    });
    g.bench_function("counters_sink", |b| {
        b.iter(|| {
            black_box(black_box(&art).run_with_sink(MachineConfig::default(), CountersSink::new()))
        })
    });
    g.finish();
}

/// Guard for the host-telemetry tentpole, mirroring `trace_sink_li`: a
/// `parallel_map` with the default `NullTelemetry` must cost the same as
/// a bare sequential loop (`enabled()` is a constant `false`, so every
/// instrumentation site — clock reads, labels, span pushes —
/// monomorphizes away), while the `Recorder` pays only two clock reads
/// and a buffer push per task.
fn bench_telemetry_pmap_overhead(c: &mut Criterion) {
    let items: Vec<u64> = (0..256).collect();
    // Enough work per item that a task is not a pure function call, small
    // enough that fixed per-task overhead would still show in the numbers.
    let work = |&x: &u64| -> u64 {
        let mut acc = x;
        for i in 0..64u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        acc
    };
    let mut g = c.benchmark_group("telemetry_pmap");
    g.bench_function("bare_loop", |b| {
        b.iter(|| black_box(black_box(&items).iter().map(work).collect::<Vec<_>>()))
    });
    g.bench_function("null_telemetry", |b| {
        b.iter(|| black_box(parallel_map(black_box(&items), 1, work)))
    });
    g.bench_function("recorder", |b| {
        b.iter(|| {
            let tel = Recorder::new(false);
            black_box(parallel_map_t(
                black_box(&items),
                1,
                &tel,
                |i, _| format!("item{i}"),
                work,
            ))
        })
    });
    g.finish();
}

/// Same guard for the compile cache's hit path: `compile` (the
/// `NullTelemetry` wrapper) against `compile_stored` + `Recorder` on a warm
/// cache, where per-call cost is just key hash + shard lock + `Arc`
/// clone and any residual instrumentation cost would be proportionally
/// largest.  A third case times the hit where the key costs most: the
/// largest workload program at the paper's size (`espresso`, 2048) with
/// a training profile source, so the key covers two whole programs.
fn bench_telemetry_cache_hit_overhead(c: &mut Criterion) {
    let w = psb_workloads::by_name("grep", 3, 256).unwrap();
    let profile = ScalarMachine::new(&w.program, ScalarConfig::default())
        .run()
        .unwrap()
        .edge_profile;
    let req = CompileRequest {
        program: &w.program,
        profile: ProfileSource::Provided(&profile),
        sched: SchedConfig::new(Model::RegionPred),
    };
    let cache = ArtifactCache::new();
    compile_stored(&req, &cache, None, &Recorder::new(false)).unwrap(); // warm
    let mut g = c.benchmark_group("telemetry_cache_hit");
    g.bench_function("null_telemetry", |b| {
        b.iter(|| black_box(psb_compile::compile(black_box(&req), &cache).unwrap()))
    });
    g.bench_function("recorder", |b| {
        let tel = Recorder::new(false);
        b.iter(|| black_box(compile_stored(black_box(&req), &cache, None, &tel).unwrap()))
    });
    let eval = psb_workloads::by_name("espresso", 3, 2048).unwrap();
    let train = psb_workloads::by_name("espresso", 5, 2048).unwrap();
    let req = CompileRequest {
        program: &eval.program,
        profile: ProfileSource::Train {
            program: &train.program,
            config: ScalarConfig::default(),
        },
        sched: SchedConfig::new(Model::RegionPred),
    };
    psb_compile::compile(&req, &cache).unwrap(); // warm
    g.bench_function("espresso_2048_train", |b| {
        b.iter(|| black_box(psb_compile::compile(black_box(&req), &cache).unwrap()))
    });
    g.finish();
}

fn bench_compile(c: &mut Criterion) {
    // schedule + decode cost (the profile is provided, so the scalar
    // training run is excluded from the timed region).
    let w = psb_workloads::by_name("espresso", 3, 512).unwrap();
    let profile = ScalarMachine::new(&w.program, ScalarConfig::default())
        .run()
        .unwrap()
        .edge_profile;
    c.bench_function("compile_fresh_region_pred_espresso", |b| {
        b.iter(|| {
            black_box(
                compile_fresh(&CompileRequest {
                    program: black_box(&w.program),
                    profile: ProfileSource::Provided(&profile),
                    sched: SchedConfig::new(Model::RegionPred),
                })
                .unwrap(),
            )
        })
    });
}

fn bench_compile_scaling(c: &mut Criterion) {
    // Compiler throughput vs region size: unrolling multiplies the blocks
    // a single region must cover.
    let w = psb_workloads::by_name("espresso", 3, 256).unwrap();
    let mut g = c.benchmark_group("compile_scaling_by_unroll");
    for factor in [1usize, 2, 4, 8] {
        let prog = psb_ir::unroll_loops(&w.program, factor);
        let profile = ScalarMachine::new(&prog, ScalarConfig::default())
            .run()
            .unwrap()
            .edge_profile;
        let mut cfg = SchedConfig::new(Model::RegionPred);
        cfg.num_conds = 8;
        cfg.depth = 8;
        cfg.max_blocks = 64;
        g.bench_function(format!("unroll_{factor}"), |b| {
            b.iter(|| {
                black_box(
                    compile_fresh(&CompileRequest {
                        program: black_box(&prog),
                        profile: ProfileSource::Provided(&profile),
                        sched: cfg.clone(),
                    })
                    .unwrap(),
                )
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = mechanism;
    config = Criterion::default().sample_size(20);
    targets = bench_predicate_eval, bench_regfile_commit, bench_commit_scan,
        bench_machine, bench_scalar, bench_trace_sink_overhead, bench_telemetry_pmap_overhead,
        bench_telemetry_cache_hit_overhead, bench_compile, bench_compile_scaling
}
criterion_main!(mechanism);
