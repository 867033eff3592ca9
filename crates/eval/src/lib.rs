//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 4).
//!
//! The methodology mirrors the paper's: the scalar reference machine
//! (standing in for the R3000 + `pixie`) supplies the baseline cycle
//! counts and the training profile; each scheduling model compiles the
//! same kernels for the VLIW machine; speedup is total scalar cycles
//! divided by total VLIW cycles, and the headline numbers are geometric
//! means across the six benchmarks.
//!
//! Every run also cross-checks the VLIW observable state against the
//! scalar golden model, so a reported speedup can never come from
//! incorrect code.
//!
//! | Experiment | Paper | Entry point |
//! |---|---|---|
//! | Benchmark inventory | Table 2 | [`table2`] |
//! | Successive-branch prediction accuracy | Table 3 | [`table3`] |
//! | Restricted speculation models | Figure 6 | [`fig6`] |
//! | Predicating vs conventional models | Figure 7 | [`fig7`] |
//! | Full-issue machines × speculation depth | Figure 8 | [`fig8`] |
//! | Single vs infinite shadow registers | footnote 1 | [`ablation_shadow`] |
//! | Vector vs counter predicate form | §4.2.1 | [`ablation_counter`] |

#![warn(missing_docs)]

mod bench;
mod cli;
mod compile_cmd;
mod experiments;
mod fuzz;
mod render;
mod runner;
mod sweep;
mod telemetry_export;
mod trace;

/// The shared JSON document model, promoted to `psb-serve` so the
/// server decodes requests with the same parser the harness uses to
/// emit and check reports (`crate::json::` paths keep working).
pub use psb_serve::json;

pub use bench::{
    cache_effectiveness_check, cache_effectiveness_check_t, check_report, engine_name,
    parse_engines, render_bench, run_bench, run_bench_with_cache, run_bench_with_cache_t,
    BenchCheck, BenchParams, BenchPoint, BenchReport, CacheCheck, EngineAggregate, HostSample,
    BENCH_SCHEMA_VERSION, KERNELS,
};
pub use cli::Cli;
pub use compile_cmd::{
    compile_sweep, compile_sweep_stored, compile_sweep_t, render_compile, CompileHost, CompileRow,
    CompileSweep,
};
pub use experiments::{
    ablation_counter, ablation_shadow, ablation_unroll, code_size, fig6, fig7, fig8, interaction,
    mix, sensitivity, summary, table2, table3, AblationResult, CodeSizeRow, Fig8Cell, Fig8Result,
    FigureResult, InteractionResult, MixRow, SensitivityRow, Table2Row, Table3Row,
};
pub use fuzz::{run_fuzz, run_fuzz_t, FuzzOutcome, FuzzParams};
pub use json::{to_json_pretty, Json, ToJson};
pub use render::{
    render_ablation, render_code_size, render_fig8, render_figure, render_interaction,
    render_metrics, render_mix, render_sensitivity, render_table1, render_table2, render_table3,
};
pub use runner::{
    geometric_mean, measure_metrics, parallel_map, parallel_map_t, parse_jobs, run_workload,
    BenchResult, EvalParams, JobsParseError, MetricsHost, ModelResult, RunMetrics, BENCHMARKS,
};
pub use sweep::{
    check_sweep, parse_grid, render_sweep, run_sweep, SweepGrid, SweepParams, SweepPoint,
    SweepReport, SWEEP_SCHEMA_VERSION,
};
pub use telemetry_export::{
    cache_stats_json, merged_chrome_trace, record_cache_stats, render_telemetry,
    telemetry_report_json, TELEMETRY_SCHEMA_VERSION,
};
pub use trace::{
    chrome_trace, collect_profiles, collect_traces, obs_points, parse_model, render_profile,
    ObsPoint, RunProfile, RunTrace,
};
