//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro [table2|table3|fig6|fig7|fig8|ablation-shadow|ablation-counter|ablation-unroll|metrics|bench|trace|profile|fuzz|serve|loadgen|all]
//!       [--size N] [--quick] [--json] [--jobs N] [--workload W] [--model M] [--out FILE]
//! ```
//!
//! `--jobs N` fans the (workload × config) sweep of each experiment out
//! over N threads.  Results are deterministic: the output (including
//! `--json`, `trace` and `profile`) is byte-identical for every job count.
//!
//! Each subcommand takes only the flags it reads (`all` takes the union
//! of its experiments'); any other flag is a usage error (exit 2) whose
//! message lists the flags the subcommand takes.
//!
//! `trace` emits Chrome trace-event JSON (load in Perfetto or
//! `chrome://tracing`); `profile` reports the hardware-counter profile.
//! Both accept `--workload`/`--model` to narrow the default
//! all-benchmarks × region-pred selection, and `--out FILE` to write the
//! output to a file instead of stdout.
//!
//! `fuzz` runs the `psb-fuzz` differential sweep:
//!
//! ```text
//! repro fuzz [--seed S] [--runs N] [--time-budget SECS] [--jobs N]
//!            [--corpus DIR] [--inject-recovery-bug]
//!            [--engine tabled|legacy]
//! ```
//!
//! One fuzz run drives one engine; `--engine all` is a usage error.
//!
//! The report (stdout) is byte-identical at any `--jobs` count for a
//! fixed `--runs`; timing goes to stderr.  Failing cases are minimized
//! and written into `--corpus` (default `corpus/regressions`), and the
//! exit status is non-zero if any case failed.
//!
//! `compile` runs the compilation pipeline by itself, reporting per-stage
//! timings, artifact sizes and content hashes, and cache counters:
//!
//! ```text
//! repro compile [--workload W[,W...]] [--model M|all] [--size N]
//!               [--deterministic] [--json] [--jobs N] [--out FILE]
//!               [--store DIR] [--store-max-bytes N]
//! ```
//!
//! The table goes to stderr; the JSON goes to `--out FILE`, or to
//! stdout under `--json`.
//!
//! With `--store DIR`, compiled artifacts persist into an on-disk store;
//! a later process over the same directory fills from disk instead of
//! recompiling (each row's `source` records which layer answered).
//! `--store-max-bytes N` (requires `--store`) caps the store's
//! footprint: saves beyond the cap evict the least-recently-used
//! artifacts (hits refresh recency), counted in the report's
//! `store.evictions`.
//!
//! `bench` runs the fixed throughput matrix and emits `BENCH.json`:
//!
//! ```text
//! repro bench [--quick] [--deterministic] [--memory SPEC]
//!             [--engine tabled|legacy|all]
//!             [--check BASELINE.json] [--cache-check]
//!             [--jobs N] [--target-cycles N] [--telemetry [FILE]] [--out FILE]
//! ```
//!
//! `--memory SPEC` selects the timing model every point runs under:
//! `perfect` (default), `fixed:LOAD:FETCH`, or `cache[:I:D]` with each
//! cache side a `SETSxWAYSxLINExHITxMISS` spec or `off`.  The model is
//! stamped into the report and `--check` hard-fails on a mismatch, so a
//! cache-model run can never be compared against a perfect baseline.
//!
//! `--cache-check` (requires `--deterministic`) runs the matrix twice
//! against one shared artifact cache and fails unless the second pass is
//! served entirely from cache with a byte-identical report.
//!
//! The JSON goes to `--out` (or stdout); a human summary goes to stderr.
//! With `--check`, deterministic drift or schema breakage against the
//! baseline exits 1; host timings are not compared.
//! `--deterministic` zeroes every host-dependent field (also honoured by
//! `metrics`), so CI can byte-compare two runs.
//!
//! `sweep` explores a machine-configuration grid of one compiled
//! artifact per (kernel × model) pair (see DESIGN.md §15): it loads the
//! kernel, runs the golden model and compiles once per pair, then runs
//! every configuration once and checks it against the golden model:
//!
//! ```text
//! repro sweep [--quick] [--jobs N] [--grid "dim=v1,v2;..."]
//!             [--check BASELINE.json] [--out FILE]
//! ```
//!
//! Grid dimensions: `kernel`, `model`, `width`, `sb`, `latency`,
//! `icache`, `dcache` — unnamed dimensions keep the quick/full
//! defaults.  Widths must be at least the schedule's issue width (4).
//! `icache`/`dcache` values are cache specs or `off` (both off = the
//! perfect-memory timing).  Numeric dimensions also accept ranges:
//! `sb=1..64:pow2` walks powers of two, `latency=1..8` walks every
//! value.  Every run uses the tabled engine, and with it the indexed
//! commit scan; the cache axes are the `icache`/`dcache` dimensions, not
//! `--memory`.  The JSON
//! report (`psb-sweep-v3`) holds simulated counters only, so it is
//! byte-identical at any `--jobs`, and CI can `cmp` runs and gate
//! counters against `baselines/sweep_baseline.json`; the wall time goes
//! to stderr.
//!
//! `serve` exposes the simulator as a service (see DESIGN.md §14):
//!
//! ```text
//! repro serve [--addr HOST:PORT] [--jobs N] [--queue-depth N]
//!             [--cycle-budget N] [--store DIR] [--store-max-bytes N]
//!             [--read-timeout-ms MS] [--deterministic]
//! ```
//!
//! `--read-timeout-ms MS` (default 10000) bounds how long a keep-alive
//! connection may sit silent before the server drops it (counted in
//! `serve.read_timeouts`), so stalled clients can't pin worker threads.
//!
//! `loadgen` drives a running server with a deterministic request mix
//! and reports latency percentiles and the cache hit rate:
//!
//! ```text
//! repro loadgen [--addr HOST:PORT] [--requests N] [--jobs N]
//!               [--seed S] [--deterministic] [--out FILE]
//! ```
//!
//! `--telemetry [FILE]` (on `bench`, `compile`, and `fuzz`) records
//! host-side instrumentation — compile stage spans, cache lock/wait
//! histograms, worker-pool task spans — and writes a merged host+guest
//! Chrome trace to FILE (default `telemetry.json`; load in Perfetto)
//! plus a percentile report to `FILE.report.json`.  The path operand is
//! optional: the next token is consumed only if it doesn't start with
//! `-`, so put the subcommand before the flag.  Combined with
//! `--deterministic`, wall-derived values are zeroed and host-only
//! records dropped, making both files byte-identical at any `--jobs`;
//! `fuzz` reads `--deterministic` only for this, so there it requires
//! `--telemetry`.

use psb_compile::{ArtifactCache, DiskStore};
use psb_eval::{
    ablation_counter, ablation_shadow, ablation_unroll, cache_effectiveness_check, check_report,
    check_sweep, chrome_trace, code_size, collect_profiles, collect_traces, compile_sweep, fig6,
    fig7, fig8, interaction, measure_metrics, merged_chrome_trace, mix, obs_points, parse_grid,
    record_cache_stats, render_ablation, render_bench, render_code_size, render_compile,
    render_fig8, render_figure, render_interaction, render_mix, render_profile, render_sensitivity,
    render_sweep, render_table2, render_table3, render_telemetry, run_bench, run_fuzz, run_sweep,
    sensitivity, summary, table2, table3, telemetry_report_json, to_json_pretty, BenchParams, Cli,
    FuzzParams, Json, RunTrace, SweepGrid, SweepParams, ToJson, EXPERIMENTS,
};
use psb_serve::{render_report, run_loadgen, serve, LoadgenConfig, ServeConfig};
use psb_telemetry::{NullTelemetry, Recorder};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = Cli::parse(&args).unwrap_or_else(|e| die(&e));
    let Cli {
        what,
        params,
        fuzz_params,
        bench_params,
        json,
        deterministic,
        check,
        cache_check,
        workloads,
        models,
        out,
        telemetry,
        addr,
        queue_depth,
        cycle_budget,
        store,
        requests,
        grid,
        memory,
        store_max_bytes,
        read_timeout_ms,
    } = cli;
    // `--memory` applies to every experiment that runs the machine;
    // absent means the paper's perfect-memory timing.
    let params = {
        let mut p = params;
        if let Some(m) = memory {
            p.memory = m;
        }
        p
    };

    let emit = |text: String| match &out {
        Some(path) => {
            std::fs::write(path, text).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")))
        }
        None => print!("{text}"),
    };

    let run = |name: &str| {
        match name {
            "table2" => show(json, &table2(&params), |t| render_table2(t)),
            "table3" => show(json, &table3(&params), |t| render_table3(t)),
            "fig6" => show(json, &fig6(&params), |f| {
                render_figure("Figure 6 (restricted speculation)", f)
            }),
            "fig7" => show(json, &fig7(&params), |f| {
                render_figure("Figure 7 (predicating vs conventional)", f)
            }),
            "fig8" => show(json, &fig8(&params), render_fig8),
            "ablation-shadow" => show(json, &ablation_shadow(&params), render_ablation),
            "ablation-counter" => show(json, &ablation_counter(&params), render_ablation),
            "interaction" => show(json, &interaction(&params), render_interaction),
            "summary" => show(json, &summary(&params), |f| {
                render_figure("Summary (all seven models)", f)
            }),
            "mix" => show(json, &mix(&params), |t| render_mix(t)),
            "sensitivity" => show(json, &sensitivity(&params), |t| render_sensitivity(t)),
            "codesize" => show(json, &code_size(&params), |t| {
                let names: Vec<&str> = psb_sched::Model::ALL.iter().map(|m| m.name()).collect();
                render_code_size(t, &names)
            }),
            "ablation-unroll" => show(json, &ablation_unroll(&params), render_ablation),
            "metrics" => {
                let mut m = measure_metrics(&psb_sched::Model::ALL, &params);
                if deterministic {
                    m.iter_mut().for_each(|row| row.zero_host());
                }
                show(json, &m, |m| psb_eval::render_metrics(m))
            }
            "compile" => {
                let disk = store.as_ref().map(|dir| {
                    DiskStore::open_with_limit(dir, store_max_bytes)
                        .unwrap_or_else(|e| die(&format!("--store {dir}: {e}")))
                });
                let tel = telemetry.as_ref().map(|_| Recorder::new(deterministic));
                let mut sweep = match &tel {
                    Some(rec) => compile_sweep(&workloads, &models, &params, disk.as_ref(), rec),
                    None => {
                        compile_sweep(&workloads, &models, &params, disk.as_ref(), &NullTelemetry)
                    }
                };
                if deterministic {
                    sweep.zero_host();
                }
                eprint!("{}", render_compile(&sweep));
                if let Some(st) = &sweep.store {
                    eprintln!(
                        "store: {} hit(s), {} miss(es), {} write(s), {} error(s), {} eviction(s)",
                        st.hits, st.misses, st.writes, st.errors, st.evictions
                    );
                }
                if json || out.is_some() {
                    emit(format!("{}\n", to_json_pretty(&sweep)));
                }
                if let (Some(path), Some(rec)) = (&telemetry, &tel) {
                    record_cache_stats(rec, &sweep.cache);
                    emit_telemetry(path, rec, &[]);
                }
            }
            "bench" => {
                let bp = BenchParams {
                    deterministic,
                    jobs: params.jobs,
                    memory: memory.unwrap_or_default(),
                    ..bench_params.clone()
                };
                let mut failed = false;
                let tel = telemetry.as_ref().map(|_| Recorder::new(deterministic));
                let mut guests: Vec<RunTrace> = Vec::new();
                let report = if cache_check {
                    let cc = match &tel {
                        Some(rec) => cache_effectiveness_check(&bp, rec),
                        None => cache_effectiveness_check(&bp, &NullTelemetry),
                    };
                    for problem in &cc.problems {
                        eprintln!("FAIL: cache check: {problem}");
                        failed = true;
                    }
                    eprintln!(
                        "cache check: first pass {} miss(es), second pass +{} hit(s), \
                         +{} miss(es): {}",
                        cc.first_pass.misses,
                        cc.second_pass.hits - cc.first_pass.hits,
                        cc.second_pass.misses - cc.first_pass.misses,
                        if cc.problems.is_empty() {
                            "ok"
                        } else {
                            "FAILED"
                        }
                    );
                    let s = &cc.second_pass;
                    eprintln!(
                        "cache after both passes: {} hit(s), {} miss(es), \
                         {} resident artifact(s), {} profile run(s)",
                        s.hits, s.misses, s.entries, s.profile_misses
                    );
                    if let Some(rec) = &tel {
                        record_cache_stats(rec, &cc.second_pass);
                    }
                    cc.report
                } else {
                    let cache = ArtifactCache::new();
                    match &tel {
                        Some(rec) => {
                            let (report, g) = run_bench(&bp, &cache, rec, true);
                            record_cache_stats(rec, &cache.stats());
                            guests = g;
                            report
                        }
                        None => run_bench(&bp, &cache, &NullTelemetry, false).0,
                    }
                };
                eprint!("{}", render_bench(&report));
                if let Some(path) = &check {
                    let text = std::fs::read_to_string(path)
                        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
                    let baseline = Json::parse(&text)
                        .unwrap_or_else(|e| die(&format!("{path}: bad baseline JSON: {e}")));
                    let outcome = check_report(&report, &baseline);
                    // Notes, failures and the verdict — every line names
                    // the baseline file, failures included.
                    eprint!("{}", outcome.render(path));
                    if !outcome.passed() {
                        failed = true;
                    }
                }
                emit(format!("{}\n", to_json_pretty(&report)));
                if let (Some(path), Some(rec)) = (&telemetry, &tel) {
                    emit_telemetry(path, rec, &guests);
                }
                if failed {
                    std::process::exit(1);
                }
            }
            "sweep" => {
                let base = if bench_params.quick {
                    SweepGrid::quick()
                } else {
                    SweepGrid::full()
                };
                let g = match &grid {
                    Some(spec) => parse_grid(spec, base).unwrap_or_else(|e| die(&e)),
                    None => base,
                };
                let sp = SweepParams {
                    quick: bench_params.quick,
                    jobs: params.jobs,
                    grid: g,
                };
                let start = Instant::now();
                let report = run_sweep(&sp);
                eprint!("{}", render_sweep(&report));
                eprintln!("wall time {:.3}s", start.elapsed().as_secs_f64());
                let mut failed = false;
                if let Some(path) = &check {
                    let text = std::fs::read_to_string(path)
                        .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
                    let baseline = Json::parse(&text)
                        .unwrap_or_else(|e| die(&format!("{path}: bad baseline JSON: {e}")));
                    let outcome = check_sweep(&report, &baseline);
                    eprint!("{}", outcome.render(path));
                    if !outcome.passed() {
                        failed = true;
                    }
                }
                emit(format!("{}\n", to_json_pretty(&report)));
                if failed {
                    std::process::exit(1);
                }
            }
            "trace" => {
                let points = obs_points(&workloads, &models);
                if points.is_empty() {
                    die("no run points selected");
                }
                let traces = collect_traces(&points, &params);
                emit(format!("{}\n", chrome_trace(&traces).pretty()));
            }
            "profile" => {
                let points = obs_points(&workloads, &models);
                if points.is_empty() {
                    die("no run points selected");
                }
                let profiles = collect_profiles(&points, &params);
                if json {
                    emit(format!("{}\n", to_json_pretty(&profiles)));
                } else {
                    emit(render_profile(&profiles));
                }
            }
            "fuzz" => {
                let [engine] = bench_params.engines[..] else {
                    die("fuzz drives one engine per run: --engine tabled|legacy");
                };
                let p = FuzzParams {
                    jobs: params.jobs,
                    engine,
                    ..fuzz_params.clone()
                };
                let tel = telemetry.as_ref().map(|_| Recorder::new(deterministic));
                let outcome = match &tel {
                    Some(rec) => run_fuzz(&p, rec),
                    None => run_fuzz(&p, &NullTelemetry),
                };
                print!("{}", outcome.report);
                if let (Some(path), Some(rec)) = (&telemetry, &tel) {
                    emit_telemetry(path, rec, &[]);
                }
                if outcome.failures > 0 {
                    std::process::exit(1);
                }
            }
            "serve" => {
                let config = ServeConfig {
                    addr: addr.clone().unwrap_or_else(|| "127.0.0.1:8080".to_string()),
                    jobs: params.jobs,
                    queue_depth,
                    cycle_budget,
                    store: store.clone().map(Into::into),
                    store_max_bytes,
                    read_timeout_ms,
                    deterministic,
                };
                let handle = serve(config).unwrap_or_else(|e| die(&e));
                eprintln!("repro serve: listening on http://{}", handle.addr());
                eprintln!("repro serve: GET /healthz | GET /metrics | POST /run | POST /compile");
                // Serve until killed; workers own the listener.
                loop {
                    std::thread::park();
                }
            }
            "loadgen" => {
                let config = LoadgenConfig {
                    addr: addr.clone().unwrap_or_else(|| "127.0.0.1:8080".to_string()),
                    requests,
                    jobs: params.jobs,
                    seed: fuzz_params.seed,
                    deterministic,
                };
                let report = run_loadgen(&config).unwrap_or_else(|e| die(&e));
                let failed = report
                    .get("failed")
                    .and_then(|f| f.as_i64())
                    .unwrap_or(i64::MAX);
                eprint!("{}", render_report(&report));
                emit(format!("{}\n", report.pretty()));
                if failed > 0 {
                    eprintln!("repro loadgen: {failed} failed request(s)");
                    std::process::exit(1);
                }
            }
            other => die(&format!("unknown experiment {other}")),
        }
        println!();
    };

    if what == "all" {
        for name in EXPERIMENTS {
            run(name);
        }
    } else {
        run(&what);
    }
}

/// Prints an experiment's result: pretty JSON under `--json`, else its
/// text rendering.
fn show<T: ToJson>(json: bool, result: &T, render: impl FnOnce(&T) -> String) {
    if json {
        println!("{}", to_json_pretty(result));
    } else {
        print!("{}", render(result));
    }
}

/// Writes the `--telemetry` outputs: the merged host+guest Chrome trace
/// to `path`, the percentile report to `{path}.report.json`, and a text
/// summary to stderr.
fn emit_telemetry(path: &str, rec: &Recorder, guests: &[RunTrace]) {
    let report = rec.report();
    let trace = merged_chrome_trace(&report, guests);
    std::fs::write(path, format!("{}\n", trace.pretty()))
        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    let report_path = format!("{path}.report.json");
    std::fs::write(
        &report_path,
        format!("{}\n", telemetry_report_json(&report).pretty()),
    )
    .unwrap_or_else(|e| die(&format!("cannot write {report_path}: {e}")));
    eprint!("{}", render_telemetry(&report));
    eprintln!("telemetry: merged trace -> {path}, report -> {report_path}");
}

fn die(msg: &str) -> ! {
    eprintln!("repro: {msg}");
    eprintln!(
        "usage: repro [table2|table3|fig6|fig7|fig8|ablation-shadow|ablation-counter|ablation-unroll|metrics|compile|bench|sweep|trace|profile|fuzz|serve|loadgen|all] \
         [--size N] [--quick] [--json] [--jobs N] [--train-seed S] [--eval-seed S] \
         [--workload W[,W...]] [--model M|all] [--out FILE] [--deterministic] \
         [--engine tabled|legacy|all] [--check BASELINE.json] [--cache-check] \
         [--target-cycles N] [--telemetry [FILE]] [--grid \"dim=v1,v2;...\"] \
         [--seed S] [--runs N] [--time-budget SECS] [--corpus DIR] [--inject-recovery-bug] \
         [--memory perfect|fixed:LOAD:FETCH|cache[:I:D]] \
         [--addr HOST:PORT] [--queue-depth N] [--cycle-budget N] [--store DIR] \
         [--store-max-bytes N] [--read-timeout-ms MS] [--requests N]"
    );
    std::process::exit(2);
}
