//! `psbsim` — run scalar assembly through the predicating toolchain.
//!
//! ```text
//! psbsim scalar <file.asm>                 run on the scalar reference machine
//! psbsim disasm <file.asm> [options]       schedule and print the VLIW code
//! psbsim run    <file.asm> [options]       schedule, execute, compare, report
//!
//! options:
//!   --model M     global|squash|trace|region-squash|boost|trace-pred|region-pred
//!                 (default region-pred)
//!   --width N     issue width (default 4; resources fully duplicated when N != 4)
//!   --conds K     CCR entries (default 4)
//!   --depth D     max unresolved conditions at issue (default = K)
//!   --unroll F    unroll innermost loops F times before scheduling
//!   --optimize    copy-propagate and dead-code-eliminate before scheduling
//!   --events      print the machine event log (Table 1 style)
//! ```

use psb::compile::{ArtifactCache, NullTelemetry, PointError, PointJob};
use psb::core::MachineConfig;
use psb::eval::render_table1;
use psb::ir::{optimize, unroll_loops};
use psb::isa::{parse_program, Resources, ScalarProgram};
use psb::scalar::ScalarConfig;
use psb::sched::{Model, SchedConfig};
use std::process::exit;

struct Options {
    command: String,
    file: String,
    model: Model,
    width: usize,
    conds: usize,
    depth: Option<usize>,
    unroll: usize,
    optimize: bool,
    events: bool,
}

fn parse_args() -> Options {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut it = args.iter();
    let command = it
        .next()
        .cloned()
        .unwrap_or_else(|| usage("missing command"));
    let file = it
        .next()
        .cloned()
        .unwrap_or_else(|| usage("missing input file"));
    let mut opts = Options {
        command,
        file,
        model: Model::RegionPred,
        width: 4,
        conds: 4,
        depth: None,
        unroll: 1,
        optimize: false,
        events: false,
    };
    let mut it = it.peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match flag.as_str() {
            "--model" => {
                let m = value("--model");
                opts.model =
                    Model::from_name(&m).unwrap_or_else(|| usage(&format!("unknown model {m}")));
            }
            "--width" => {
                opts.width = value("--width")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --width"))
            }
            "--conds" => {
                opts.conds = value("--conds")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --conds"))
            }
            "--depth" => {
                opts.depth = Some(
                    value("--depth")
                        .parse()
                        .unwrap_or_else(|_| usage("bad --depth")),
                )
            }
            "--unroll" => {
                opts.unroll = value("--unroll")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --unroll"))
            }
            "--optimize" => opts.optimize = true,
            "--events" => opts.events = true,
            other => usage(&format!("unknown flag {other}")),
        }
    }
    opts
}

fn usage(msg: &str) -> ! {
    eprintln!("psbsim: {msg}");
    eprintln!("usage: psbsim (scalar|disasm|run) <file.asm> [--model M] [--width N]");
    eprintln!("              [--conds K] [--depth D] [--unroll F] [--optimize] [--events]");
    exit(2)
}

fn load(opts: &Options) -> ScalarProgram {
    let text = std::fs::read_to_string(&opts.file).unwrap_or_else(|e| {
        eprintln!("psbsim: cannot read {}: {e}", opts.file);
        exit(1)
    });
    let prog = parse_program(&text).unwrap_or_else(|e| {
        eprintln!("psbsim: {}: {e}", opts.file);
        exit(1)
    });
    let mut prog = if opts.unroll > 1 {
        unroll_loops(&prog, opts.unroll)
    } else {
        prog
    };
    if opts.optimize {
        let (rewrites, removed) = optimize(&mut prog);
        eprintln!("psbsim: optimised ({rewrites} operands rewritten, {removed} ops removed)");
    }
    prog
}

fn main() {
    let opts = parse_args();
    let prog = load(&opts);
    let fail = |e: PointError| -> ! {
        eprintln!("psbsim: {e}");
        exit(1)
    };

    let job = PointJob::new(&prog, None, ScalarConfig::default()).unwrap_or_else(|e| fail(e));
    let scalar = job.golden();

    if opts.command == "scalar" {
        println!("cycles:        {}", scalar.cycles);
        println!("instructions:  {}", scalar.dyn_instrs);
        for r in &prog.live_out {
            println!("{r} = {}", scalar.regs[r.index()]);
        }
        return;
    }

    let resources = if opts.width == 4 {
        Resources::paper_base()
    } else {
        Resources::full_issue(opts.width)
    };
    let mut cfg = SchedConfig::new(opts.model);
    cfg.issue_width = opts.width;
    cfg.resources = resources;
    cfg.num_conds = opts.conds;
    cfg.depth = opts.depth.unwrap_or(opts.conds);
    let (art, _) = job
        .compile(cfg, &ArtifactCache::new(), None, &NullTelemetry)
        .unwrap_or_else(|e| fail(e));

    if opts.command == "disasm" {
        print!("{}", art.program);
        return;
    }
    if opts.command != "run" {
        usage(&format!("unknown command {}", opts.command));
    }

    let mc = MachineConfig {
        issue_width: opts.width,
        resources,
        record_events: opts.events,
        ..MachineConfig::default()
    };
    let res = job.run(&art, mc).unwrap_or_else(|e| fail(e));
    if opts.events {
        println!("{}", render_table1(&res.events));
    }
    println!("model:         {}", opts.model);
    println!("artifact:      {}", art.hash_hex());
    println!("scalar cycles: {}", scalar.cycles);
    println!("vliw cycles:   {}", res.cycles);
    println!(
        "speedup:       {:.2}x",
        scalar.cycles as f64 / res.cycles as f64
    );
    println!(
        "ops executed:  {} (+{} squashed), {} recoveries",
        res.ops_executed, res.ops_squashed, res.recoveries
    );
    for r in &prog.live_out {
        println!("{r} = {}", res.regs[r.index()]);
    }
    println!("golden model:  match");
}
