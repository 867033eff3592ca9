//! End-to-end tests of the `repro trace` / `repro profile` subcommands:
//! the PR-1 determinism contract (byte-identical output at any `--jobs`
//! count) and well-formedness of the emitted JSON, checked with a
//! minimal hand-rolled parser (the container has no serde).

use std::process::Command;

fn repro(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro spawns")
}

fn stdout_of(args: &[&str]) -> String {
    let out = repro(args);
    assert!(
        out.status.success(),
        "repro {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

// --- shared JSON parser ------------------------------------------------

use psb_eval::Json;

/// Asserts `text` is one well-formed JSON document and returns it
/// decoded.  (This used to be a second hand-rolled parser; it now goes
/// through the shared `psb_serve::json` module like everything else.)
fn assert_json(text: &str) -> Json {
    Json::parse(text)
        .unwrap_or_else(|e| panic!("invalid JSON: {e}\n{}", &text[..text.len().min(400)]))
}

// --- the tests -----------------------------------------------------------

#[test]
fn trace_is_jobs_deterministic_and_well_formed() {
    let base = &["trace", "--size", "96", "--workload", "grep"];
    let one = stdout_of(&[base, &["--jobs", "1"][..]].concat());
    let four = stdout_of(&[base, &["--jobs", "4"][..]].concat());
    assert_eq!(
        one, four,
        "trace output must be byte-identical across --jobs"
    );
    // The subcommand prints the document plus the section-separator blank
    // line; the document itself must be valid JSON with the trace keys.
    let doc = one.trim_end();
    assert_json(doc);
    assert!(doc.contains("\"traceEvents\""));
    assert!(doc.contains("\"ph\": \"X\""), "expected duration spans");
    assert!(doc.contains("grep/region-pred"));
}

#[test]
fn profile_is_jobs_deterministic_and_well_formed() {
    let base = &["profile", "--json", "--size", "96"];
    let one = stdout_of(&[base, &["--jobs", "1"][..]].concat());
    let four = stdout_of(&[base, &["--jobs", "4"][..]].concat());
    assert_eq!(
        one, four,
        "profile output must be byte-identical across --jobs"
    );
    let doc = one.trim_end();
    assert_json(doc);
    for key in [
        "\"shadow_occupancy\"",
        "\"lifetime\"",
        "\"stall_runs\"",
        "\"high_water\"",
        "\"regions\"",
    ] {
        assert!(doc.contains(key), "missing {key}");
    }
    // All six benchmarks present by default.
    for w in ["compress", "eqntott", "espresso", "grep", "li", "nroff"] {
        assert!(
            doc.contains(&format!("\"workload\": \"{w}\"")),
            "missing {w}"
        );
    }
}

#[test]
fn out_flag_writes_the_file() {
    let dir = std::env::temp_dir().join("repro_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    // `compile` writes its JSON to `--out` with or without `--json`.
    for (what, needle) in [
        ("trace --workload li --model trace-pred", "li/trace-pred"),
        (
            "compile --workload grep --model region-pred",
            "content_hash",
        ),
    ] {
        let mut args: Vec<&str> = what.split(' ').collect();
        let path = dir.join(format!("{}.json", args[0]));
        let _ = std::fs::remove_file(&path);
        args.extend(["--size", "96", "--out", path.to_str().unwrap()]);
        let out = repro(&args);
        assert!(out.status.success(), "{what}");
        let text = std::fs::read_to_string(&path).unwrap();
        assert_json(text.trim_end());
        assert!(text.contains(needle), "{what}: {text}");
    }
}

#[test]
fn profile_text_mode_reports_hotspots() {
    let text = stdout_of(&["profile", "--size", "96", "--workload", "espresso"]);
    assert!(text.contains("espresso/region-pred:"));
    assert!(text.contains("occupancy"));
    assert!(text.contains("lifetime"));
    assert!(text.contains("hottest regions"));
}

#[test]
fn bench_baseline_matches_the_schema() {
    // The committed CI baseline doubles as the schema fixture: `repro
    // bench --check` diffs new reports against it field by field, so any
    // drift in the emitter shows up here first.  (The bench itself runs
    // in release CI; re-running it under a debug test binary would blow
    // the tier-1 time budget.)
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../baselines/bench_baseline.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let doc = text.trim_end();
    assert_json(doc);
    // Document-level schema.
    assert!(doc.contains("\"schema_version\": 3"), "schema_version");
    assert!(doc.contains("\"suite\": \"quick\""), "quick suite baseline");
    assert!(doc.contains("\"memory\": \"perfect\""), "memory model");
    for key in ["\"points\"", "\"totals\"", "\"kernel_suite\""] {
        assert!(doc.contains(key), "missing {key}");
    }
    // Per-point schema.
    for key in [
        "\"kind\"",
        "\"name\"",
        "\"model\"",
        "\"engine\"",
        "\"iterations\"",
        "\"cycles\"",
        "\"commits\"",
        "\"squashes\"",
        "\"recoveries\"",
        "\"stall_ifetch\"",
        "\"stall_load_miss\"",
        "\"icache_accesses\"",
        "\"icache_misses\"",
        "\"dcache_accesses\"",
        "\"dcache_misses\"",
        "\"host\"",
        "\"profile_seconds\"",
        "\"schedule_seconds\"",
        "\"decode_seconds\"",
        "\"wall_seconds\"",
        "\"cycles_per_second\"",
    ] {
        assert!(doc.contains(key), "missing point key {key}");
    }
    // Totals carry the headline aggregate and the host footprint.
    for key in [
        "\"sim_cycles_total\"",
        "\"wall_seconds_total\"",
        "\"peak_rss_kb\"",
    ] {
        assert!(doc.contains(key), "missing totals key {key}");
    }
    // The fixed matrix must cover all four kernels and all six workloads.
    for name in ["dotprod", "gcd"] {
        assert!(
            doc.contains(&format!("\"name\": \"{name}\"")),
            "kernel {name}"
        );
    }
    for w in ["compress", "eqntott", "espresso", "grep", "li", "nroff"] {
        assert!(doc.contains(&format!("\"name\": \"{w}\"")), "workload {w}");
    }
}

#[test]
fn bench_deterministic_is_byte_stable_and_zeroes_host_timings() {
    // `--deterministic` must zero every host-side (wall-clock) field so
    // byte-equality comparisons across runs and machines are meaningful.
    // `--target-cycles` shrinks the per-point budget: this binary is a
    // debug build, and the simulated work is identical at any budget.
    let base = &[
        "bench",
        "--quick",
        "--deterministic",
        "--target-cycles",
        "1000",
    ];
    let one = stdout_of(base);
    let two = stdout_of(base);
    assert_eq!(
        one, two,
        "deterministic bench output must be byte-identical across runs"
    );
    let doc = one.trim_end();
    assert_json(doc);
    assert!(doc.contains("\"wall_seconds\": 0"), "wall not zeroed");
    assert!(doc.contains("\"cycles_per_second\": 0"), "rate not zeroed");
    assert!(doc.contains("\"profile_seconds\": 0"), "profile not zeroed");
    assert!(
        doc.contains("\"schedule_seconds\": 0"),
        "schedule not zeroed"
    );
    assert!(doc.contains("\"decode_seconds\": 0"), "decode not zeroed");
    assert!(doc.contains("\"peak_rss_kb\": 0"), "rss not zeroed");
    assert!(doc.contains("\"suite\": \"quick\""), "quick suite expected");
    assert!(doc.contains("\"engine\": \"tabled\""), "default engine");
}

#[test]
fn bench_engines_agree_cycle_for_cycle() {
    // Under `--deterministic` the only engine-dependent report field is
    // the engine name itself: renaming it must make single-engine runs
    // byte-identical, because every counter (cycles, commits, squashes,
    // recoveries, iterations) is engine-independent by construction.
    let run = |engine: &str| {
        stdout_of(&[
            "bench",
            "--quick",
            "--deterministic",
            "--target-cycles",
            "1000",
            "--engine",
            engine,
        ])
    };
    let tabled = run("tabled");
    let legacy = run("legacy");
    assert_eq!(
        tabled,
        legacy.replace("\"engine\": \"legacy\"", "\"engine\": \"tabled\""),
        "tabled and legacy engines disagree"
    );
}

#[test]
fn bench_check_ignores_host_timings() {
    // The gate compares counters only: a timed run checked against a
    // deterministic (zeroed-host) baseline passes.
    let dir = std::env::temp_dir().join("repro_cli_bench_check");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("bench_baseline.json");
    let base = &["bench", "--quick", "--target-cycles", "1000"];
    stdout_of(
        &[
            base,
            &["--deterministic", "--out", baseline.to_str().unwrap()][..],
        ]
        .concat(),
    );
    let out = repro(&[base, &["--check", baseline.to_str().unwrap()][..]].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "check failed:\n{stderr}");
    assert!(stderr.contains(": ok\n"), "missing verdict:\n{stderr}");
}

#[test]
fn compile_sweep_is_jobs_deterministic_and_counts_misses() {
    // 2 workloads × 7 models = 14 distinct artifacts; the single-flight
    // cache must report exactly 14 misses at any --jobs count, with the
    // whole document byte-identical.
    let base = &[
        "compile",
        "--workload",
        "grep,li",
        "--model",
        "all",
        "--json",
        "--deterministic",
        "--size",
        "96",
    ];
    let one = stdout_of(&[base, &["--jobs", "1"][..]].concat());
    let four = stdout_of(&[base, &["--jobs", "4"][..]].concat());
    assert_eq!(
        one, four,
        "compile output must be byte-identical across --jobs"
    );
    let doc = one.trim_end();
    assert_json(doc);
    assert!(doc.contains("\"misses\": 14"), "expected exactly 14 misses");
    assert!(doc.contains("\"hits\": 0"), "sweep points are all distinct");
    assert!(doc.contains("\"entries\": 14"), "14 cached artifacts");
    // The scalar training run is shared across the seven models of each
    // workload by the profile-stage memo.
    assert!(
        doc.contains("\"profile_misses\": 2"),
        "one train run per workload"
    );
    assert!(
        doc.contains("\"content_hash\""),
        "rows carry artifact hashes"
    );
    assert!(doc.contains("\"profile_seconds\": 0"), "host zeroed");
}

#[test]
fn compile_content_hashes_are_pinned() {
    // The content hash is published (`repro compile`, `/run`, `psbsim`,
    // `.psba` headers), so its values are frozen: these are the hashes
    // every earlier release printed for the same points.
    let rows = |args: &[&str]| -> Vec<(String, String, String)> {
        let doc = assert_json(stdout_of(args).trim_end());
        doc.get("rows")
            .and_then(Json::as_array)
            .expect("rows")
            .iter()
            .map(|r| {
                let field = |k: &str| r.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("workload"), field("model"), field("content_hash"))
            })
            .collect()
    };
    let pinned = [
        ("grep", "global", "2dadaf12614c2165"),
        ("grep", "squash", "ea17d092835846f6"),
        ("grep", "trace", "778d2f599469fd12"),
        ("grep", "region-squash", "f562cb2093568e19"),
        ("grep", "boost", "7ea5ad77e386b6e3"),
        ("grep", "trace-pred", "a12dafe5ec954173"),
        ("grep", "region-pred", "e35b883f9d12c982"),
        ("li", "global", "9b7d52ffd913e509"),
        ("li", "squash", "d2ef54cc445610e6"),
        ("li", "trace", "7e93c69413dd6a67"),
        ("li", "region-squash", "b9655e1520eaa854"),
        ("li", "boost", "871ce5dbabf48e8b"),
        ("li", "trace-pred", "bcb2cd5e08958f3d"),
        ("li", "region-pred", "07e2b4cda9cfbc3e"),
    ];
    let got = rows(&[
        "compile",
        "--workload",
        "grep,li",
        "--model",
        "all",
        "--size",
        "96",
        "--json",
        "--deterministic",
    ]);
    let want: Vec<(String, String, String)> = pinned
        .iter()
        .map(|&(w, m, h)| (w.to_string(), m.to_string(), h.to_string()))
        .collect();
    assert_eq!(got, want);
    // README's default-size example.
    let readme = rows(&[
        "compile",
        "--workload",
        "grep",
        "--model",
        "region-pred",
        "--json",
        "--deterministic",
    ]);
    assert_eq!(readme.len(), 1);
    assert_eq!(readme[0].2, "cb80ea25046db3b6");
}

#[test]
fn bad_selections_exit_with_usage() {
    for args in [
        &["trace", "--workload", "nope"][..],
        &["profile", "--model", "nonsense"][..],
        &["trace", "--out"][..],
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}

#[test]
fn removed_engine_words_and_scan_dimension_are_usage_errors() {
    for (args, msg) in [
        (
            &["bench", "--engine", "predecoded"][..],
            "unknown engine predecoded (tabled|legacy|all)",
        ),
        (
            &["bench", "--engine", "both"],
            "unknown engine both (tabled|legacy|all)",
        ),
        (
            &["sweep", "--quick", "--grid", "scan=naive"],
            "unknown grid dimension `scan`",
        ),
        // Every sweep point runs once, solo: there is no lockstep batch
        // to size, by flag or by grid dimension.
        (
            &["sweep", "--quick", "--batch-width", "4"],
            "unknown flag --batch-width",
        ),
        (
            &["sweep", "--quick", "--grid", "batch=4"],
            "unknown grid dimension `batch`",
        ),
        // The sweep reads none of these: running it anyway would report
        // perfect memory and the tabled engine as if the flag had been
        // honoured.
        (
            &["sweep", "--quick", "--memory", "cache:8x1x2x1x4:off"],
            "sweep does not take --memory",
        ),
        (
            &["sweep", "--quick", "--engine", "legacy"],
            "sweep does not take --engine",
        ),
        (
            &["sweep", "--quick", "--tolerance", "0.9"],
            "unknown flag --tolerance",
        ),
        // One fuzz run drives one engine: `all` must not silently fuzz
        // the default engine alone.
        (
            &["fuzz", "--runs", "1", "--engine", "all"],
            "fuzz drives one engine per run",
        ),
        // A subcommand takes only the flags it reads: these once ran
        // `fig7 --quick --json` unchanged, and `--out` wrote no file.
        (
            &[
                "fig7",
                "--quick",
                "--json",
                "--grid",
                "sb=4",
                "--requests",
                "5",
                "--addr",
                "127.0.0.1:1",
            ],
            "fig7 does not take --grid",
        ),
        (
            &["fig7", "--quick", "--out", "f"],
            "fig7 does not take --out",
        ),
        (&["bench", "--tolerance", "0.2"], "unknown flag --tolerance"),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(msg) && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
    let report = stdout_of(&["fuzz", "--runs", "1", "--engine", "legacy"]);
    assert!(report.contains("  engine         legacy\n"), "{report}");
}

#[test]
fn flags_read_only_with_a_partner_are_usage_errors() {
    // Each of these once exited 0 doing what it would without the flag
    // (`serve` started serving with no cap).
    for (args, msg) in [
        (
            &[
                "compile",
                "--workload",
                "grep",
                "--model",
                "region-pred",
                "--size",
                "96",
                "--store-max-bytes",
                "10",
            ][..],
            "--store-max-bytes requires --store",
        ),
        (
            &["fuzz", "--seed", "1", "--runs", "5", "--deterministic"],
            "--deterministic requires --telemetry",
        ),
        (
            &[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--store-max-bytes",
                "65536",
            ],
            "--store-max-bytes requires --store",
        ),
        (
            &["bench", "--quick", "--cache-check"],
            "--cache-check requires --deterministic",
        ),
    ] {
        let out = repro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(msg) && stderr.contains("usage:"),
            "{args:?}: {stderr}"
        );
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn sweep_width_below_the_schedule_width_is_a_usage_error() {
    // Every sweep model is scheduled 4-wide, so a narrower machine
    // cannot admit the words: the grid is rejected before anything runs.
    for w in ["2", "3"] {
        let out = repro(&["sweep", "--quick", "--grid", &format!("width={w}")]);
        assert_eq!(out.status.code(), Some(2), "width={w}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let msg = format!("grid `width` value {w} is below the schedule's issue width 4");
        assert!(
            stderr.contains(&msg) && stderr.contains("usage:"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty(), "width={w} ran anyway");
    }
}

#[test]
fn jobs_zero_is_rejected_with_a_typed_error() {
    // The parse is hoisted ahead of dispatch (`psb_eval::Cli`), so the
    // rejection must hold for every subcommand — including the server
    // ones, which would otherwise spin up a pool with zero workers.
    for sub in [
        "bench", "compile", "fuzz", "trace", "profile", "serve", "loadgen",
    ] {
        let out = repro(&[sub, "--jobs", "0"]);
        assert_eq!(out.status.code(), Some(2), "{sub} --jobs 0 must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("invalid --jobs value '0'"),
            "{sub}: missing typed error:\n{stderr}"
        );
    }
}

#[test]
fn compile_store_fills_from_disk_across_processes() {
    // The cross-process persistence contract: a second `repro compile
    // --store DIR` process (fresh memory cache) must fill every point
    // from disk instead of recompiling.
    let dir = std::env::temp_dir().join(format!("repro_cli_store_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let base = &[
        "compile",
        "--workload",
        "grep",
        "--model",
        "all",
        "--size",
        "96",
        "--json",
        "--deterministic",
        "--store",
        dir.to_str().unwrap(),
    ];
    let first = assert_json(stdout_of(base).trim_end());
    let second = assert_json(stdout_of(base).trim_end());
    let sources = |doc: &Json| -> Vec<String> {
        doc.get("rows")
            .and_then(Json::as_array)
            .expect("rows")
            .iter()
            .map(|r| {
                r.get("source")
                    .and_then(Json::as_str)
                    .expect("source")
                    .to_string()
            })
            .collect()
    };
    assert_eq!(
        sources(&first),
        vec!["compiled"; 7],
        "first process compiles"
    );
    assert_eq!(sources(&second), vec!["disk"; 7], "second process loads");
    let store = |doc: &Json, key: &str| {
        doc.get("store")
            .and_then(|s| s.get(key))
            .and_then(Json::as_i64)
            .unwrap_or(-1)
    };
    assert_eq!(store(&first, "writes"), 7);
    assert_eq!(store(&first, "misses"), 7);
    assert_eq!(store(&second, "hits"), 7);
    assert_eq!(store(&second, "writes"), 0);
    assert_eq!(store(&second, "errors"), 0);
    // Content hashes are process-independent.
    let hashes = |doc: &Json| -> Vec<String> {
        doc.get("rows")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|r| {
                r.get("content_hash")
                    .and_then(Json::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect()
    };
    assert_eq!(hashes(&first), hashes(&second));
    let _ = std::fs::remove_dir_all(&dir);
}

/// Boots `repro serve` on an ephemeral port and returns the child plus
/// the bound address parsed from its stderr banner.
fn spawn_server(extra: &[&str]) -> (std::process::Child, String) {
    use std::io::BufRead as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(
            [
                &["serve", "--addr", "127.0.0.1:0", "--deterministic"][..],
                extra,
            ]
            .concat(),
        )
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("serve spawns");
    let stderr = child.stderr.take().expect("stderr piped");
    let mut lines = std::io::BufReader::new(stderr).lines();
    let addr = loop {
        let line = lines
            .next()
            .expect("serve exited before its banner")
            .expect("stderr readable");
        if let Some(rest) = line.split("listening on http://").nth(1) {
            break rest.trim().to_string();
        }
    };
    // Keep draining stderr in the background so the child never blocks
    // on a full pipe.
    std::thread::spawn(move || for _ in lines {});
    (child, addr)
}

#[test]
fn loadgen_report_is_byte_identical_at_any_jobs() {
    // The acceptance criterion of the serve PR: a fixed-seed loadgen run
    // produces a byte-identical latency report at any --jobs, with zero
    // failed requests and a mix-phase hit rate >= 90%.  Fresh server per
    // run so both start cache-cold.
    let drive = |jobs: &str| -> String {
        let (mut child, addr) = spawn_server(&["--jobs", "2"]);
        let report = stdout_of(&[
            "loadgen",
            "--addr",
            &addr,
            "--requests",
            "64",
            "--jobs",
            jobs,
            "--seed",
            "42",
            "--deterministic",
        ]);
        child.kill().expect("server stops");
        let _ = child.wait();
        report
    };
    let one = drive("1");
    let four = drive("4");
    assert_eq!(
        one, four,
        "loadgen report must be byte-identical across --jobs"
    );
    let doc = assert_json(one.trim_end());
    assert_eq!(
        doc.get("failed").and_then(Json::as_i64),
        Some(0),
        "no failed requests"
    );
    let hit_rate = doc.get("mix_hit_rate").and_then(Json::as_f64).unwrap();
    assert!(hit_rate >= 0.9, "mix hit rate {hit_rate} < 0.9");
    // The warm phase did all 8 compiles; the mix phase hit memory.
    let warm_sources = doc.get("warm").and_then(|w| w.get("sources")).unwrap();
    assert_eq!(warm_sources.get("compiled").and_then(Json::as_i64), Some(8));
    let mix_sources = doc.get("mix").and_then(|m| m.get("sources")).unwrap();
    assert_eq!(mix_sources.get("memory").and_then(Json::as_i64), Some(64));
    assert_eq!(mix_sources.get("compiled").and_then(Json::as_i64), None);
}

#[test]
fn telemetry_deterministic_is_byte_identical_across_jobs() {
    // The headline contract of the telemetry subsystem: under
    // `--deterministic` the Perfetto trace and the metrics report must be
    // byte-identical at any `--jobs` count.  Span/record *counts* stay
    // jobs-deterministic; wall-clock payloads are zeroed; purely
    // host-dependent records (queue wait, worker utilization) are dropped.
    let dir = std::env::temp_dir().join("repro_cli_telemetry");
    std::fs::create_dir_all(&dir).unwrap();
    let run = |jobs: &str, tag: &str| {
        let trace = dir.join(format!("trace_{tag}.json"));
        let bench = dir.join(format!("bench_{tag}.json"));
        let out = repro(&[
            "bench",
            "--quick",
            "--deterministic",
            "--target-cycles",
            "1000",
            "--jobs",
            jobs,
            "--telemetry",
            trace.to_str().unwrap(),
            "--out",
            bench.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "bench --telemetry failed:\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let report = dir.join(format!("trace_{tag}.json.report.json"));
        (
            std::fs::read_to_string(&trace).unwrap(),
            std::fs::read_to_string(&report).unwrap(),
        )
    };
    let (trace1, report1) = run("1", "j1");
    let (trace4, report4) = run("4", "j4");
    assert_eq!(
        trace1, trace4,
        "telemetry trace must be byte-identical across --jobs"
    );
    assert_eq!(
        report1, report4,
        "telemetry report must be byte-identical across --jobs"
    );
    assert_json(trace1.trim_end());
    assert_json(report1.trim_end());
    // The trace carries host spans (pid 0) and guest events (pid 1..).
    assert!(trace1.contains("\"traceEvents\""));
    assert!(trace1.contains("\"pid\": 0"), "host process missing");
    assert!(trace1.contains("\"pid\": 1"), "guest process missing");
    // The report carries the three instrumented layers.
    assert!(report1.contains("\"schema_version\": 1"));
    assert!(report1.contains("\"deterministic\": true"));
    assert!(report1.contains("compile.profile_ns"), "compile layer");
    assert!(report1.contains("pmap.task_ns"), "runner layer");
    assert!(report1.contains("bench.execute_ns"), "bench layer");
    assert!(report1.contains("cache.artifact.hits"), "cache counters");
    // Host-only records must be absent in deterministic mode.
    assert!(
        !report1.contains("pmap.queue_wait_ns"),
        "host-only histogram leaked into deterministic report"
    );
}
