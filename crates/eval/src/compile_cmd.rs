//! `repro compile` — runs the compilation pipeline (profile → schedule →
//! decode) by itself, reporting per-stage timings, artifact sizes, and
//! the content hash of each (workload × model) point plus the shared
//! cache's counters.
//!
//! This is the observability face of `psb-compile`: the sweep compiles
//! every point through one [`ArtifactCache`], so the reported `misses`
//! equals the number of distinct artifacts and is identical for every
//! `--jobs` value (the cache is single-flight).

use crate::json::{Json, ToJson};
use crate::runner::{parallel_map_t, workload_pair, EvalParams, BENCHMARKS};
use crate::telemetry_export::cache_stats_json;
use psb_compile::{compile_trained, ArtifactCache, CacheStats, DiskStore, Stage, StoreStats};
use psb_sched::Model;
use psb_telemetry::Telemetry;

/// Host-dependent per-stage timings of one compile (zeroed by
/// `--deterministic`).  Cache-served points report the original
/// compile's timings — the artifact is shared, and so are its stats.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CompileHost {
    /// Profile-stage seconds (the scalar training run).
    pub profile_seconds: f64,
    /// Schedule-stage seconds.
    pub schedule_seconds: f64,
    /// Decode-stage seconds (lowering into the pre-decoded arena).
    pub decode_seconds: f64,
}

impl ToJson for CompileHost {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("profile_seconds", self.profile_seconds.to_json()),
            ("schedule_seconds", self.schedule_seconds.to_json()),
            ("decode_seconds", self.decode_seconds.to_json()),
        ])
    }
}

/// One compiled (workload × model) point.
#[derive(Clone, PartialEq, Debug)]
pub struct CompileRow {
    /// Workload name.
    pub workload: String,
    /// Scheduling model name.
    pub model: String,
    /// The artifact's content hash, as 16 hex digits — deterministic.
    pub content_hash: String,
    /// Where the artifact came from: `"memory"`, `"disk"`, or
    /// `"compiled"` (always `"compiled"` or `"memory"` without `--store`).
    pub source: String,
    /// Instruction words in the scheduled program.
    pub words: usize,
    /// Decoded slots in the pre-decoded arena.
    pub slots: usize,
    /// Regions (scope entries) in the schedule.
    pub regions: usize,
    /// Non-nop operations in the schedule.
    pub ops: usize,
    /// Host-dependent stage timings.
    pub host: CompileHost,
}

impl ToJson for CompileRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("workload", self.workload.to_json()),
            ("model", self.model.to_json()),
            ("content_hash", self.content_hash.to_json()),
            ("source", self.source.to_json()),
            ("words", self.words.to_json()),
            ("slots", self.slots.to_json()),
            ("regions", self.regions.to_json()),
            ("ops", self.ops.to_json()),
            ("host", self.host.to_json()),
        ])
    }
}

/// The whole `repro compile` document: one row per point plus the shared
/// cache's counters after the sweep.
#[derive(Clone, PartialEq, Debug)]
pub struct CompileSweep {
    /// One row per (workload × model) point, in sweep order.
    pub rows: Vec<CompileRow>,
    /// Cache counters after the sweep (`misses` = distinct artifacts).
    pub cache: CacheStats,
    /// On-disk store counters, when the sweep ran with `--store`.
    pub store: Option<StoreStats>,
}

impl CompileSweep {
    /// Zeroes the host-dependent timings (the `--deterministic` contract;
    /// the cache counters are already deterministic at any `--jobs`).
    pub fn zero_host(&mut self) {
        for r in &mut self.rows {
            r.host = CompileHost::default();
        }
    }
}

impl ToJson for CompileSweep {
    fn to_json(&self) -> Json {
        let store = self.store.as_ref().map(|st| {
            Json::obj(vec![
                ("hits", st.hits.to_json()),
                ("misses", st.misses.to_json()),
                ("errors", st.errors.to_json()),
                ("writes", st.writes.to_json()),
                ("evictions", st.evictions.to_json()),
            ])
        });
        Json::obj(vec![
            ("rows", self.rows.to_json()),
            ("cache", cache_stats_json(&self.cache)),
            ("store", store.to_json()),
        ])
    }
}

/// Compiles every (workload × model) point through one shared cache.
/// Empty `workloads` means all six benchmarks; empty `models` means all
/// seven models.
///
/// With a persistent on-disk `store` (`repro compile --store DIR`) each
/// point tries memory, then disk, then compiles (persisting the result),
/// and its row records which layer answered: a second process over the
/// same directory fills from disk instead of recompiling.  Per-point
/// task spans, the compile stage spans/histograms, and the cache
/// contention histograms all flow into `tel`.
///
/// # Panics
///
/// Panics on an unknown workload name or a pipeline failure — the sweep
/// only covers the checked-in benchmark set, which must compile.
pub fn compile_sweep<T: Telemetry>(
    workloads: &[String],
    models: &[Model],
    params: &EvalParams,
    store: Option<&DiskStore>,
    tel: &T,
) -> CompileSweep {
    let workloads: Vec<String> = if workloads.is_empty() {
        BENCHMARKS.iter().map(|n| n.to_string()).collect()
    } else {
        workloads.to_vec()
    };
    let models: Vec<Model> = if models.is_empty() {
        Model::ALL.to_vec()
    } else {
        models.to_vec()
    };
    let points: Vec<(String, Model)> = workloads
        .iter()
        .flat_map(|n| models.iter().map(move |&m| (n.clone(), m)))
        .collect();
    let cache = ArtifactCache::new();
    let rows = parallel_map_t(
        &points,
        params.jobs,
        tel,
        |_, (name, model)| format!("{name}/{}", model.name()),
        |(name, model)| {
            let (train, eval) = workload_pair(name, params);
            let (art, source) = compile_trained(
                &eval.program,
                &train.program,
                params.sched_config(*model),
                &cache,
                store,
                tel,
            )
            .unwrap_or_else(|e| panic!("{name}/{model}: {e}"));
            CompileRow {
                workload: name.clone(),
                model: model.name().to_string(),
                content_hash: art.hash_hex(),
                source: source.name().to_string(),
                words: art.stats.words,
                slots: art.stats.slots,
                regions: art.sched_stats.regions,
                ops: art.sched_stats.ops,
                host: CompileHost {
                    profile_seconds: art.stats.profile_seconds,
                    schedule_seconds: art.stats.schedule_seconds,
                    decode_seconds: art.stats.decode_seconds,
                },
            }
        },
    );
    CompileSweep {
        rows,
        cache: cache.stats(),
        store: store.map(|s| s.stats()),
    }
}

/// Renders a human-readable table (stderr companion to the JSON).
pub fn render_compile(sweep: &CompileSweep) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(
        s,
        "{:<10} {:<12} {:<18} {:>6} {:>7} {:>7} {:>6}  stage seconds ({})",
        "workload",
        "model",
        "artifact",
        "words",
        "slots",
        "ops",
        "rgns",
        Stage::ALL
            .iter()
            .map(|st| st.name())
            .collect::<Vec<_>>()
            .join("/")
    )
    .unwrap();
    for r in &sweep.rows {
        writeln!(
            s,
            "{:<10} {:<12} {:<18} {:>6} {:>7} {:>7} {:>6}  {:.6}/{:.6}/{:.6}",
            r.workload,
            r.model,
            r.content_hash,
            r.words,
            r.slots,
            r.ops,
            r.regions,
            r.host.profile_seconds,
            r.host.schedule_seconds,
            r.host.decode_seconds
        )
        .unwrap();
    }
    writeln!(
        s,
        "cache: {} miss(es) ({} distinct artifact(s)), {} hit(s), \
         {} training profile run(s)",
        sweep.cache.misses, sweep.cache.entries, sweep.cache.hits, sweep.cache.profile_misses
    )
    .unwrap();
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_telemetry::NullTelemetry;

    #[test]
    fn sweep_compiles_each_point_once_and_shares_profiles() {
        let params = EvalParams {
            size: 96,
            ..EvalParams::default()
        };
        let workloads = vec!["grep".to_string(), "li".to_string()];
        let sweep = compile_sweep(&workloads, &[], &params, None, &NullTelemetry);
        assert_eq!(sweep.rows.len(), 2 * Model::ALL.len());
        assert_eq!(sweep.cache.misses, 2 * Model::ALL.len() as u64);
        assert_eq!(sweep.cache.hits, 0);
        // One scalar training run per workload, shared by all 7 models.
        assert_eq!(sweep.cache.profile_misses, 2);
        assert_eq!(sweep.cache.profile_hits, 2 * (Model::ALL.len() as u64 - 1));
        // Hashes are 16 hex digits and distinct across models of one
        // workload (the model is part of the schedule, hence the hash).
        let grep: Vec<&str> = sweep
            .rows
            .iter()
            .filter(|r| r.workload == "grep")
            .map(|r| r.content_hash.as_str())
            .collect();
        assert_eq!(grep.len(), Model::ALL.len());
        for h in &grep {
            assert_eq!(h.len(), 16, "{h}");
        }
        let mut dedup = grep.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), grep.len(), "model hashes must differ");
        // Deterministic at any job count.
        let mut serial = sweep.clone();
        serial.zero_host();
        let par_params = EvalParams { jobs: 4, ..params };
        let mut par = compile_sweep(&workloads, &[], &par_params, None, &NullTelemetry);
        par.zero_host();
        assert_eq!(serial, par);
    }
}
