//! The `repro` command line, hoisted out of the binary so it is
//! unit-testable and uniform across subcommands.
//!
//! Every flag is parsed here, once, before any dispatch — in particular
//! `--jobs` goes through [`parse_jobs`] for *every* subcommand, so a new
//! subcommand cannot regress to accepting `--jobs 0` by wiring its own
//! ad-hoc parse (the bug class this module exists to close out).
//! [`Cli::parse`] returns a typed result; only the binary turns errors
//! into `exit(2)`.

use crate::runner::{parse_jobs, EvalParams};
use crate::{parse_engines, parse_model, BenchParams, FuzzParams};
use psb_core::MemoryModel;
use psb_sched::Model;

/// Everything one `repro` invocation asked for.
#[derive(Clone, Debug)]
pub struct Cli {
    /// The subcommand (`"all"` when none was given).
    pub what: String,
    /// Shared experiment parameters (`--size`, `--jobs`, seeds, …).
    pub params: EvalParams,
    /// Fuzz-specific parameters (`--seed`, `--runs`, …).
    pub fuzz_params: FuzzParams,
    /// Bench-specific parameters (`--engine`, `--target-cycles`, …).
    pub bench_params: BenchParams,
    /// `--json`.
    pub json: bool,
    /// `--deterministic`.
    pub deterministic: bool,
    /// `--check BASELINE.json`.
    pub check: Option<String>,
    /// `--cache-check`.
    pub cache_check: bool,
    /// `--tolerance FRAC` (default 0.2).
    pub tolerance: f64,
    /// `--workload W[,W...]` accumulations.
    pub workloads: Vec<String>,
    /// `--model M|all` accumulations.
    pub models: Vec<Model>,
    /// `--out FILE`.
    pub out: Option<String>,
    /// `--telemetry [FILE]`.
    pub telemetry: Option<String>,
    /// `--addr HOST:PORT` for `serve` (bind) and `loadgen` (target).
    pub addr: Option<String>,
    /// `--queue-depth N` for `serve` (default 64).
    pub queue_depth: usize,
    /// `--cycle-budget N` for `serve`.
    pub cycle_budget: Option<u64>,
    /// `--store DIR` for `serve` and `compile` (persistent artifacts).
    pub store: Option<String>,
    /// `--requests N` for `loadgen` (default 100).
    pub requests: usize,
    /// `--grid SPEC` for `sweep` (dimension overrides, `dim=v1,v2;...`).
    pub grid: Option<String>,
    /// `--memory SPEC` for `bench` and the profiling subcommands
    /// (`perfect | fixed:LOAD:FETCH | cache[:I:D]`).
    pub memory: Option<MemoryModel>,
    /// `--store-max-bytes N` for `serve` and `compile` (disk-store
    /// size cap; oldest artifacts are evicted past it).
    pub store_max_bytes: Option<u64>,
    /// `--read-timeout-ms N` for `serve` (keep-alive read timeout;
    /// default 10s — a stalled client cannot pin a worker forever).
    pub read_timeout_ms: u64,
}

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            what: "all".to_string(),
            params: EvalParams::default(),
            fuzz_params: FuzzParams::default(),
            bench_params: BenchParams::default(),
            json: false,
            deterministic: false,
            check: None,
            cache_check: false,
            tolerance: 0.2,
            workloads: Vec::new(),
            models: Vec::new(),
            out: None,
            telemetry: None,
            addr: None,
            queue_depth: 64,
            cycle_budget: None,
            store: None,
            requests: 100,
            grid: None,
            memory: None,
            store_max_bytes: None,
            read_timeout_ms: 10_000,
        }
    }
}

impl Cli {
    /// Parses the argument list (without the program name).
    ///
    /// # Errors
    ///
    /// A ready-to-print message for the first invalid flag or operand.
    pub fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli::default();
        let mut i = 0;
        // A required operand for the flag at `args[i]`.
        let operand = |i: &mut usize, what: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i)
                .cloned()
                .ok_or_else(|| format!("{} needs {what}", args[*i - 1]))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str, what: &str) -> Result<T, String> {
            v.parse().map_err(|_| format!("{flag} needs {what}"))
        }
        while i < args.len() {
            match args[i].as_str() {
                "--seed" => {
                    let v = operand(&mut i, "a number")?;
                    cli.fuzz_params.seed = num("--seed", &v, "a number")?;
                }
                "--runs" => {
                    let v = operand(&mut i, "a number")?;
                    cli.fuzz_params.runs = num("--runs", &v, "a number")?;
                }
                "--time-budget" => {
                    let v = operand(&mut i, "seconds > 0")?;
                    let t: f64 = num("--time-budget", &v, "seconds > 0")?;
                    if t <= 0.0 {
                        return Err("--time-budget needs seconds > 0".to_string());
                    }
                    cli.fuzz_params.time_budget = Some(t);
                }
                "--corpus" => {
                    cli.fuzz_params.corpus_dir = operand(&mut i, "a directory")?.into();
                }
                "--inject-recovery-bug" => cli.fuzz_params.inject_recovery_bug = true,
                "--quick" => {
                    cli.params.size = cli.params.size.min(512);
                    cli.bench_params.quick = true;
                }
                "--json" => cli.json = true,
                "--deterministic" => cli.deterministic = true,
                "--engine" => {
                    let e = operand(&mut i, "tabled|legacy|all")?;
                    cli.bench_params.engines = parse_engines(&e)
                        .ok_or_else(|| format!("unknown engine {e} (tabled|legacy|all)"))?;
                }
                "--target-cycles" => {
                    let v = operand(&mut i, "a number > 0")?;
                    let t: u64 = num("--target-cycles", &v, "a number > 0")?;
                    if t == 0 {
                        return Err("--target-cycles needs a number > 0".to_string());
                    }
                    cli.bench_params.target_cycles = Some(t);
                }
                "--check" => cli.check = Some(operand(&mut i, "a baseline file")?),
                "--tolerance" => {
                    let v = operand(&mut i, "a fraction >= 0")?;
                    let t: f64 = num("--tolerance", &v, "a fraction >= 0")?;
                    if t < 0.0 {
                        return Err("--tolerance needs a fraction >= 0".to_string());
                    }
                    cli.tolerance = t;
                }
                "--workload" => {
                    let list = operand(&mut i, "a benchmark name (comma-separated ok)")?;
                    for w in list.split(',').filter(|w| !w.is_empty()) {
                        if !crate::BENCHMARKS.contains(&w) {
                            return Err(format!("unknown workload {w}"));
                        }
                        cli.workloads.push(w.to_string());
                    }
                }
                "--model" => {
                    let m = operand(&mut i, "a model name (or `all`)")?;
                    if m == "all" {
                        cli.models = Model::ALL.to_vec();
                    } else {
                        cli.models
                            .push(parse_model(&m).ok_or_else(|| format!("unknown model {m}"))?);
                    }
                }
                "--cache-check" => cli.cache_check = true,
                "--out" => cli.out = Some(operand(&mut i, "a file path")?),
                "--size" => {
                    let v = operand(&mut i, "a number")?;
                    cli.params.size = num("--size", &v, "a number")?;
                }
                "--train-seed" => {
                    let v = operand(&mut i, "a number")?;
                    cli.params.train_seed = num("--train-seed", &v, "a number")?;
                }
                "--eval-seed" => {
                    let v = operand(&mut i, "a number")?;
                    cli.params.eval_seed = num("--eval-seed", &v, "a number")?;
                }
                "--jobs" => {
                    // The one shared gate: every subcommand's worker count
                    // goes through the typed parse (rejects 0).
                    let v = operand(&mut i, "a number >= 1")?;
                    cli.params.jobs = parse_jobs(&v).map_err(|e| e.to_string())?;
                }
                "--addr" => cli.addr = Some(operand(&mut i, "host:port")?),
                "--queue-depth" => {
                    let v = operand(&mut i, "a number >= 1")?;
                    let d: usize = num("--queue-depth", &v, "a number >= 1")?;
                    if d == 0 {
                        return Err("--queue-depth needs a number >= 1".to_string());
                    }
                    cli.queue_depth = d;
                }
                "--cycle-budget" => {
                    let v = operand(&mut i, "a number > 0")?;
                    let b: u64 = num("--cycle-budget", &v, "a number > 0")?;
                    if b == 0 {
                        return Err("--cycle-budget needs a number > 0".to_string());
                    }
                    cli.cycle_budget = Some(b);
                }
                "--store" => cli.store = Some(operand(&mut i, "a directory")?),
                "--store-max-bytes" => {
                    let v = operand(&mut i, "a byte count > 0")?;
                    let b: u64 = num("--store-max-bytes", &v, "a byte count > 0")?;
                    if b == 0 {
                        return Err("--store-max-bytes needs a byte count > 0".to_string());
                    }
                    cli.store_max_bytes = Some(b);
                }
                "--read-timeout-ms" => {
                    let v = operand(&mut i, "milliseconds > 0")?;
                    let t: u64 = num("--read-timeout-ms", &v, "milliseconds > 0")?;
                    if t == 0 {
                        return Err("--read-timeout-ms needs milliseconds > 0".to_string());
                    }
                    cli.read_timeout_ms = t;
                }
                "--memory" => {
                    let spec = operand(&mut i, "perfect | fixed:LOAD:FETCH | cache[:I:D]")?;
                    let m = MemoryModel::parse(&spec).map_err(|e| format!("--memory: {e}"))?;
                    m.validate().map_err(|e| format!("--memory: {e}"))?;
                    cli.memory = Some(m);
                }
                "--grid" => cli.grid = Some(operand(&mut i, "a grid spec (dim=v1,v2;...)")?),
                "--requests" => {
                    let v = operand(&mut i, "a number")?;
                    cli.requests = num("--requests", &v, "a number")?;
                }
                "--telemetry" => {
                    // The path operand is optional: consume the next token
                    // only when it doesn't look like a flag.
                    cli.telemetry = Some(match args.get(i + 1) {
                        Some(p) if !p.starts_with('-') => {
                            i += 1;
                            p.clone()
                        }
                        _ => "telemetry.json".to_string(),
                    });
                }
                w if !w.starts_with('-') => cli.what = w.to_string(),
                other => return Err(format!("unknown flag {other}")),
            }
            i += 1;
        }
        Ok(cli)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Cli, String> {
        Cli::parse(&args.iter().map(|s| s.to_string()).collect::<Vec<String>>())
    }

    #[test]
    fn defaults_and_subcommand_selection() {
        let cli = parse(&[]).unwrap();
        assert_eq!(cli.what, "all");
        assert_eq!(cli.params.jobs, 1);
        let cli = parse(&["bench", "--quick", "--deterministic"]).unwrap();
        assert_eq!(cli.what, "bench");
        assert!(cli.bench_params.quick && cli.deterministic);
    }

    #[test]
    fn jobs_zero_is_rejected_for_every_subcommand() {
        // The hoisted parse applies before dispatch, so the new server
        // subcommands share the same rejection as the old experiments.
        for cmd in ["bench", "fuzz", "metrics", "serve", "loadgen", "compile"] {
            let err = parse(&[cmd, "--jobs", "0"]).expect_err(cmd);
            assert!(err.contains("--jobs"), "{cmd}: {err}");
            for bad in ["-1", "four", ""] {
                assert!(parse(&[cmd, "--jobs", bad]).is_err(), "{cmd} --jobs {bad}");
            }
            assert_eq!(parse(&[cmd, "--jobs", "4"]).unwrap().params.jobs, 4);
        }
    }

    #[test]
    fn serve_and_loadgen_flags_parse() {
        let cli = parse(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--jobs",
            "2",
            "--queue-depth",
            "8",
            "--cycle-budget",
            "100000",
            "--store",
            "/tmp/psb-store",
            "--deterministic",
        ])
        .unwrap();
        assert_eq!(cli.what, "serve");
        assert_eq!(cli.addr.as_deref(), Some("127.0.0.1:0"));
        assert_eq!((cli.params.jobs, cli.queue_depth), (2, 8));
        assert_eq!(cli.cycle_budget, Some(100_000));
        assert_eq!(cli.store.as_deref(), Some("/tmp/psb-store"));
        assert!(cli.deterministic);

        let cli = parse(&[
            "loadgen",
            "--addr",
            "h:1",
            "--requests",
            "250",
            "--seed",
            "9",
        ])
        .unwrap();
        assert_eq!(cli.what, "loadgen");
        assert_eq!(cli.requests, 250);
        assert_eq!(cli.fuzz_params.seed, 9);

        for bad in [
            &["serve", "--queue-depth", "0"][..],
            &["serve", "--cycle-budget", "0"],
            &["serve", "--addr"],
            &["loadgen", "--requests", "many"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn sweep_flags_parse() {
        let cli = parse(&[
            "sweep",
            "--grid",
            "sb=2,4;latency=1..3",
            "--jobs",
            "4",
            "--deterministic",
            "--check",
            "baselines/sweep_baseline.json",
        ])
        .unwrap();
        assert_eq!(cli.what, "sweep");
        assert_eq!(cli.grid.as_deref(), Some("sb=2,4;latency=1..3"));
        assert_eq!(cli.params.jobs, 4);
        assert!(cli.deterministic);
        assert_eq!(cli.check.as_deref(), Some("baselines/sweep_baseline.json"));
        assert!(parse(&["sweep", "--grid"]).is_err());
        // Every grid point runs once, solo: there is no batch to size.
        assert_eq!(
            parse(&["sweep", "--batch-width", "4"]).unwrap_err(),
            "unknown flag --batch-width"
        );
    }

    #[test]
    fn memory_store_and_timeout_flags_parse() {
        let cli = parse(&["bench", "--memory", "fixed:3:2"]).unwrap();
        assert_eq!(
            cli.memory,
            Some(psb_core::MemoryModel::FixedLatency { load: 3, fetch: 2 })
        );
        let cli = parse(&["bench", "--memory", "cache:8x1x2x1x4:64x2x4x1x10"]).unwrap();
        match cli.memory {
            Some(psb_core::MemoryModel::Cache { icache, dcache }) => {
                assert_eq!(icache.unwrap().sets, 8);
                assert_eq!(dcache.unwrap().sets, 64);
            }
            other => panic!("wrong memory model: {other:?}"),
        }
        assert_eq!(
            parse(&["bench", "--memory", "perfect"]).unwrap().memory,
            Some(psb_core::MemoryModel::Perfect)
        );
        // Parse and validation errors both surface with the flag name.
        for bad in [
            "slow",
            "fixed:0:1",
            "cache:8x1x2:off",
            "cache:0x1x1x1x1:off",
        ] {
            let err = parse(&["bench", "--memory", bad]).expect_err(bad);
            assert!(err.contains("--memory"), "{bad}: {err}");
        }

        let cli = parse(&["serve", "--store-max-bytes", "65536"]).unwrap();
        assert_eq!(cli.store_max_bytes, Some(65_536));
        for bad in ["0", "-1", "big", ""] {
            assert!(
                parse(&["serve", "--store-max-bytes", bad]).is_err(),
                "{bad}"
            );
        }

        let cli = parse(&[]).unwrap();
        assert_eq!(cli.read_timeout_ms, 10_000, "default read timeout is 10s");
        let cli = parse(&["serve", "--read-timeout-ms", "250"]).unwrap();
        assert_eq!(cli.read_timeout_ms, 250);
        for bad in ["0", "soon"] {
            assert!(
                parse(&["serve", "--read-timeout-ms", bad]).is_err(),
                "{bad}"
            );
        }
    }

    #[test]
    fn existing_flags_still_parse_through_the_hoist() {
        let cli = parse(&[
            "compile",
            "--workload",
            "grep,li",
            "--model",
            "all",
            "--size",
            "96",
            "--json",
            "--out",
            "x.json",
            "--telemetry",
        ])
        .unwrap();
        assert_eq!(cli.workloads, vec!["grep", "li"]);
        assert_eq!(cli.models.len(), Model::ALL.len());
        assert_eq!(cli.params.size, 96);
        assert_eq!(cli.out.as_deref(), Some("x.json"));
        // --telemetry with no operand defaults; flags after it survive.
        assert_eq!(cli.telemetry.as_deref(), Some("telemetry.json"));
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--model", "nope"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
