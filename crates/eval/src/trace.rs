//! Observability exporters: Chrome trace-event JSON (loadable in
//! Perfetto / `chrome://tracing`) and the counters/profile report behind
//! `repro trace` and `repro profile`.
//!
//! Every run here is deterministic, and points fan out through
//! [`parallel_map`], so the emitted text is byte-identical for every
//! `--jobs` value.
//!
//! # Chrome trace mapping
//!
//! One traced run becomes one *process* (`pid`), named
//! `"<workload>/<model>"`.  Time is the simulated cycle number
//! (microseconds in the viewer's UI, which only affects the displayed
//! unit).  On `tid 0` each region occupancy is a duration span (`ph:"X"`)
//! from its `RegionEnter` to the next transfer (or the end of the run);
//! on `tid 1` each recovery episode is a span from `RecoveryStart` to
//! `RecoveryEnd`.  Commits, squashes, handled faults and latched
//! speculative exceptions are instant events (`ph:"i"`).

use crate::json::{Json, ToJson};
use crate::runner::{parallel_map, workload_pair, EvalParams, BENCHMARKS};
use psb_compile::{ArtifactCache, PointError, PointJob};
use psb_core::{
    CountersSink, Event, EventLog, Histogram, ObsReport, OccupancyStats, TraceSink, VliwResult,
};
use psb_scalar::ScalarConfig;
use psb_sched::Model;
use psb_telemetry::NullTelemetry;
use std::fmt::Write as _;

/// One traced or profiled (workload, model) point.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ObsPoint {
    /// Workload name (one of [`BENCHMARKS`]).
    pub workload: &'static str,
    /// Scheduling model.
    pub model: Model,
}

/// Expands the `--workload` / `--model` selection into run points: every
/// selected workload crossed with every selected model, in stable
/// (benchmark-table, `Model::ALL`) order.  An empty workload list means
/// every benchmark; an empty model list means the paper's headline
/// region-predicating model.
pub fn obs_points(workloads: &[String], models: &[Model]) -> Vec<ObsPoint> {
    let workloads: Vec<&'static str> = if workloads.is_empty() {
        BENCHMARKS.to_vec()
    } else {
        BENCHMARKS
            .iter()
            .copied()
            .filter(|n| workloads.iter().any(|w| w == n))
            .collect()
    };
    let models: Vec<Model> = if models.is_empty() {
        vec![Model::RegionPred]
    } else {
        models.to_vec()
    };
    workloads
        .iter()
        .flat_map(|&w| {
            models.iter().map(move |&m| ObsPoint {
                workload: w,
                model: m,
            })
        })
        .collect()
}

/// Compiles one point, runs it feeding `sink`, and holds the run's
/// observable state equal to the scalar golden model's on the same
/// evaluation input.
fn run_point<S: TraceSink>(
    p: &ObsPoint,
    params: &EvalParams,
    cache: &ArtifactCache,
    sink: S,
) -> (VliwResult, S) {
    let fail = |e: PointError| -> ! { panic!("{}/{}: {e}", p.workload, p.model) };
    let (train, eval) = workload_pair(p.workload, params);
    let job = PointJob::new(&eval.program, Some(&train.program), ScalarConfig::default())
        .unwrap_or_else(|e| fail(e));
    let (art, _) = job
        .compile(params.sched_config(p.model), cache, None, &NullTelemetry)
        .unwrap_or_else(|e| fail(e));
    let (res, sink) = job
        .run_with_sink(&art, params.machine_config(), sink)
        .unwrap_or_else(|e| fail(e));
    job.check(&res).unwrap_or_else(|e| fail(e));
    (res, sink)
}

/// One run's recorded event stream (for the Chrome trace exporter).
#[derive(Clone, PartialEq, Debug)]
pub struct RunTrace {
    /// Workload name.
    pub workload: String,
    /// Model name.
    pub model: String,
    /// Total simulated cycles.
    pub cycles: u64,
    /// The full event log.
    pub events: Vec<Event>,
}

/// Runs every point with event recording on and collects the logs.
pub fn collect_traces(points: &[ObsPoint], params: &EvalParams) -> Vec<RunTrace> {
    let cache = ArtifactCache::new();
    parallel_map(points, params.jobs, |p| {
        let (res, _) = run_point(p, params, &cache, EventLog::new(true));
        RunTrace {
            workload: p.workload.to_string(),
            model: p.model.name().to_string(),
            cycles: res.cycles,
            events: res.events,
        }
    })
}

/// One run's counter-bank profile.
#[derive(Clone, PartialEq, Debug)]
pub struct RunProfile {
    /// Workload name.
    pub workload: String,
    /// Model name.
    pub model: String,
    /// Total simulated cycles (including the store-drain tail).
    pub cycles: u64,
    /// Cycles the front end stalled on instruction fetch (I$ misses).
    pub stall_ifetch: u64,
    /// Operand-stall cycles waiting on a D$-missing load.
    pub stall_load_miss: u64,
    /// I$ accesses and misses (zero under perfect memory).
    pub icache: (u64, u64),
    /// D$ accesses and misses (zero under perfect memory).
    pub dcache: (u64, u64),
    /// The counters-sink report.
    pub report: ObsReport,
}

/// Runs every point under a [`CountersSink`] and collects the reports.
pub fn collect_profiles(points: &[ObsPoint], params: &EvalParams) -> Vec<RunProfile> {
    let cache = ArtifactCache::new();
    parallel_map(points, params.jobs, |p| {
        let (res, sink) = run_point(p, params, &cache, CountersSink::new());
        RunProfile {
            workload: p.workload.to_string(),
            model: p.model.name().to_string(),
            cycles: res.cycles,
            stall_ifetch: res.stall_ifetch,
            stall_load_miss: res.stall_load_miss,
            icache: (res.icache_accesses, res.icache_misses),
            dcache: (res.dcache_accesses, res.dcache_misses),
            report: sink.into_report(),
        }
    })
}

pub(crate) fn instant(name: String, cat: &str, pid: usize, ts: u64) -> Json {
    Json::obj(vec![
        ("name", Json::Str(name)),
        ("cat", Json::Str(cat.to_string())),
        ("ph", Json::Str("i".to_string())),
        ("s", Json::Str("t".to_string())),
        ("pid", pid.to_json()),
        ("tid", Json::Int(0)),
        ("ts", ts.to_json()),
    ])
}

pub(crate) fn span(name: String, cat: &str, pid: usize, tid: i64, ts: u64, dur: u64) -> Json {
    Json::obj(vec![
        ("name", Json::Str(name)),
        ("cat", Json::Str(cat.to_string())),
        ("ph", Json::Str("X".to_string())),
        ("pid", pid.to_json()),
        ("tid", Json::Int(tid)),
        ("ts", ts.to_json()),
        ("dur", dur.to_json()),
    ])
}

pub(crate) fn metadata(name: &str, pid: usize, tid: Option<i64>, value: &str) -> Json {
    let mut fields = vec![
        ("name", Json::Str(name.to_string())),
        ("ph", Json::Str("M".to_string())),
        ("pid", Json::Int(pid as i64)),
    ];
    if let Some(t) = tid {
        fields.push(("tid", Json::Int(t)));
    }
    fields.push((
        "args",
        Json::obj(vec![("name", Json::Str(value.to_string()))]),
    ));
    Json::obj(fields)
}

/// Emits one traced run's process metadata and events under `pid`,
/// appending trace-event objects to `out`.
///
/// `max_events` caps the emitted span/instant count (metadata excluded);
/// a truncated run gets a final `truncated` instant marker instead of
/// the trailing region span.  [`chrome_trace`] passes `usize::MAX`; the
/// merged host+guest exporter caps each guest run so a full bench sweep
/// stays loadable in Perfetto.
pub(crate) fn push_run_events(out: &mut Vec<Json>, t: &RunTrace, pid: usize, max_events: usize) {
    out.push(metadata(
        "process_name",
        pid,
        None,
        &format!("{}/{}", t.workload, t.model),
    ));
    out.push(metadata("thread_name", pid, Some(0), "regions"));
    out.push(metadata("thread_name", pid, Some(1), "recovery"));

    let mut emitted = 0usize;
    // Region spans: the run starts in the region at word 0; each
    // RegionEnter closes the previous span.
    let mut region = (0usize, 0u64); // (entry word, start cycle)
    let mut recovery_start: Option<(u64, usize)> = None;
    for e in &t.events {
        if emitted >= max_events {
            out.push(instant(
                format!("truncated after {emitted} events"),
                "meta",
                pid,
                region.1,
            ));
            return;
        }
        match *e {
            Event::RegionEnter { cycle, addr } => {
                out.push(span(
                    format!("region W{}", region.0),
                    "region",
                    pid,
                    0,
                    region.1,
                    cycle.saturating_sub(region.1),
                ));
                emitted += 1;
                region = (addr, cycle);
            }
            Event::RecoveryStart { cycle, epc, .. } => {
                recovery_start = Some((cycle, epc));
            }
            Event::RecoveryEnd { cycle } => {
                if let Some((start, epc)) = recovery_start.take() {
                    out.push(span(
                        format!("recovery EPC=W{epc}"),
                        "recovery",
                        pid,
                        1,
                        start,
                        cycle.saturating_sub(start),
                    ));
                    emitted += 1;
                }
            }
            Event::Commit { cycle, loc } => {
                out.push(instant(format!("commit {loc}"), "commit", pid, cycle));
                emitted += 1;
            }
            Event::Squash { cycle, loc } => {
                out.push(instant(format!("squash {loc}"), "squash", pid, cycle));
                emitted += 1;
            }
            Event::FaultHandled { cycle, addr } => {
                out.push(instant(format!("fault @{addr}"), "fault", pid, cycle));
                emitted += 1;
            }
            Event::ExcLatched { cycle, addr } => {
                out.push(instant(format!("exc latched @{addr}"), "fault", pid, cycle));
                emitted += 1;
            }
            _ => {}
        }
    }
    out.push(span(
        format!("region W{}", region.0),
        "region",
        pid,
        0,
        region.1,
        t.cycles.saturating_sub(region.1),
    ));
}

/// Builds the Chrome trace-event document for a set of traced runs.
pub fn chrome_trace(traces: &[RunTrace]) -> Json {
    let mut out: Vec<Json> = Vec::new();
    for (pid, t) in traces.iter().enumerate() {
        push_run_events(&mut out, t, pid, usize::MAX);
    }
    Json::obj(vec![
        ("traceEvents", Json::Array(out)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}

fn histogram_json(h: &Histogram) -> Json {
    Json::obj(vec![
        ("count", h.count().to_json()),
        ("sum", h.sum().to_json()),
        ("min", h.min().to_json()),
        ("max", h.max().to_json()),
        ("mean", h.mean().to_json()),
        ("buckets", h.buckets().to_json()),
    ])
}

fn occupancy_json(o: &OccupancyStats) -> Json {
    Json::obj(vec![
        ("mean", o.mean().to_json()),
        ("high_water", o.high_water().to_json()),
        ("samples", o.samples().to_json()),
    ])
}

impl ToJson for RunProfile {
    fn to_json(&self) -> Json {
        let r = &self.report;
        let words: Vec<Json> = r
            .words
            .iter()
            .map(|(&w, p)| {
                Json::obj(vec![
                    ("word", w.to_json()),
                    ("stall_operand", p.stall_operand.to_json()),
                    ("stall_sb_full", p.stall_sb_full.to_json()),
                    ("stall_busy", p.stall_busy.to_json()),
                    ("stall_ifetch", p.stall_ifetch.to_json()),
                    ("stall_load_miss", p.stall_load_miss.to_json()),
                    ("recoveries", p.recoveries.to_json()),
                ])
            })
            .collect();
        let regions: Vec<Json> = r
            .regions
            .iter()
            .map(|(&a, p)| {
                Json::obj(vec![
                    ("region", a.to_json()),
                    ("entries", p.entries.to_json()),
                    ("commits", p.commits.to_json()),
                    ("squashes", p.squashes.to_json()),
                    ("recoveries", p.recoveries.to_json()),
                    ("stall_cycles", p.stall_cycles.to_json()),
                ])
            })
            .collect();
        Json::obj(vec![
            ("workload", self.workload.to_json()),
            ("model", self.model.to_json()),
            ("cycles", self.cycles.to_json()),
            ("stall_ifetch", self.stall_ifetch.to_json()),
            ("stall_load_miss", self.stall_load_miss.to_json()),
            ("icache_accesses", self.icache.0.to_json()),
            ("icache_misses", self.icache.1.to_json()),
            ("dcache_accesses", self.dcache.0.to_json()),
            ("dcache_misses", self.dcache.1.to_json()),
            ("shadow_occupancy", occupancy_json(&r.shadow_occupancy)),
            ("sb_occupancy", occupancy_json(&r.sb_occupancy)),
            ("unspec_conds", occupancy_json(&r.unspec_conds)),
            ("lifetime", histogram_json(&r.lifetime)),
            ("recovery", histogram_json(&r.recovery)),
            ("stall_runs", histogram_json(&r.stall_runs)),
            ("commits", r.commits.to_json()),
            ("squashes", r.squashes.to_json()),
            ("recoveries", r.recoveries.to_json()),
            ("faults_handled", r.faults_handled.to_json()),
            ("exc_latched", r.exc_latched.to_json()),
            ("words", Json::Array(words)),
            ("regions", Json::Array(regions)),
        ])
    }
}

fn render_histogram(s: &mut String, label: &str, h: &Histogram) {
    write!(
        s,
        "  {label:<12} n={} mean={:.2} min={} max={}",
        h.count(),
        h.mean(),
        h.min(),
        h.max()
    )
    .unwrap();
    if h.count() > 0 {
        write!(s, "  |").unwrap();
        for (i, &c) in h.buckets().iter().enumerate() {
            let (lo, hi) = Histogram::bucket_range(i);
            if c > 0 {
                if lo == hi {
                    write!(s, " {lo}:{c}").unwrap();
                } else {
                    write!(s, " {lo}-{hi}:{c}").unwrap();
                }
            }
        }
    }
    writeln!(s).unwrap();
}

/// Renders the profile reports as text.
pub fn render_profile(profiles: &[RunProfile]) -> String {
    let mut s = String::new();
    for p in profiles {
        let r = &p.report;
        writeln!(
            s,
            "{}/{}: {} cycles, {} commits, {} squashes, {} recoveries, \
             {} faults, {} spec exceptions latched",
            p.workload,
            p.model,
            p.cycles,
            r.commits,
            r.squashes,
            r.recoveries,
            r.faults_handled,
            r.exc_latched
        )
        .unwrap();
        writeln!(
            s,
            "  occupancy     shadow mean={:.2} high={}   sb mean={:.2} high={}   \
             unspec-conds mean={:.2} high={}",
            r.shadow_occupancy.mean(),
            r.shadow_occupancy.high_water(),
            r.sb_occupancy.mean(),
            r.sb_occupancy.high_water(),
            r.unspec_conds.mean(),
            r.unspec_conds.high_water()
        )
        .unwrap();
        if p.icache.0 + p.dcache.0 > 0 {
            let rate = |(a, m): (u64, u64)| {
                if a == 0 {
                    0.0
                } else {
                    100.0 * m as f64 / a as f64
                }
            };
            writeln!(
                s,
                "  memory        ifetch stalls={} load-miss stalls={}   \
                 I$ {}/{} misses ({:.1}%)   D$ {}/{} misses ({:.1}%)",
                p.stall_ifetch,
                p.stall_load_miss,
                p.icache.1,
                p.icache.0,
                rate(p.icache),
                p.dcache.1,
                p.dcache.0,
                rate(p.dcache)
            )
            .unwrap();
        }
        render_histogram(&mut s, "lifetime", &r.lifetime);
        render_histogram(&mut s, "recovery", &r.recovery);
        render_histogram(&mut s, "stall-runs", &r.stall_runs);
        let hot = r.hottest_words(5);
        if !hot.is_empty() {
            writeln!(
                s,
                "  hottest words (stall cycles; operand/sb-full/busy/ifetch/load-miss):"
            )
            .unwrap();
            for (w, wp) in hot {
                writeln!(
                    s,
                    "    W{w:<5} {:>7} ({}/{}/{}/{}/{}){}",
                    wp.stall_total(),
                    wp.stall_operand,
                    wp.stall_sb_full,
                    wp.stall_busy,
                    wp.stall_ifetch,
                    wp.stall_load_miss,
                    if wp.recoveries > 0 {
                        format!("  {} recoveries", wp.recoveries)
                    } else {
                        String::new()
                    }
                )
                .unwrap();
            }
        }
        let mut regions: Vec<_> = r.regions.iter().collect();
        regions.sort_by(|a, b| {
            (b.1.stall_cycles + b.1.squashes)
                .cmp(&(a.1.stall_cycles + a.1.squashes))
                .then(a.0.cmp(b.0))
        });
        writeln!(
            s,
            "  hottest regions (entries/commits/squashes/recov/stall):"
        )
        .unwrap();
        for (a, rp) in regions.into_iter().take(5) {
            writeln!(
                s,
                "    W{a:<5} {:>7} {:>8} {:>8} {:>6} {:>7}",
                rp.entries, rp.commits, rp.squashes, rp.recoveries, rp.stall_cycles
            )
            .unwrap();
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn points_expand_and_filter() {
        assert_eq!(obs_points(&[], &[]).len(), BENCHMARKS.len());
        let one = obs_points(&["grep".to_string()], &[Model::Trace]);
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].workload, "grep");
        assert!(obs_points(&["nope".to_string()], &[]).is_empty());
        let pair = obs_points(&["grep".to_string(), "li".to_string()], &Model::ALL);
        assert_eq!(pair.len(), 2 * Model::ALL.len());
        assert_eq!(Model::from_name("region-pred"), Some(Model::RegionPred));
        assert_eq!(Model::from_name("bogus"), None);
    }

    #[test]
    fn cache_model_profiles_attribute_memory_stalls() {
        use psb_core::{CacheConfig, MemoryModel};
        let params = EvalParams {
            size: 96,
            memory: MemoryModel::Cache {
                icache: Some(CacheConfig::parse("8x1x2x1x4").unwrap()),
                dcache: Some(CacheConfig::parse("4x2x2x1x6").unwrap()),
            },
            ..EvalParams::default()
        };
        let points = obs_points(&["grep".to_string()], &[]);
        let profiles = collect_profiles(&points, &params);
        let p = &profiles[0];
        assert!(p.icache.0 > 0 && p.icache.1 > 0, "I$ must see traffic");
        assert!(p.stall_ifetch > 0, "I$ misses must stall the front end");
        // The per-word attribution sums to the aggregate counters.
        let (wi, wl) = p.report.words.values().fold((0, 0), |(i, l), w| {
            (i + w.stall_ifetch, l + w.stall_load_miss)
        });
        assert_eq!((wi, wl), (p.stall_ifetch, p.stall_load_miss));
        let text = render_profile(&profiles);
        assert!(text.contains("memory"), "{text}");
        assert!(text.contains("I$"), "{text}");
        let doc = to_json_string(&profiles);
        assert!(doc.contains("\"icache_misses\""));
    }

    fn to_json_string(profiles: &[RunProfile]) -> String {
        Json::Array(profiles.iter().map(ToJson::to_json).collect()).pretty()
    }

    #[test]
    fn trace_and_profile_agree_on_totals() {
        let params = EvalParams {
            size: 96,
            ..EvalParams::default()
        };
        let points = obs_points(&["grep".to_string()], &[]);
        let traces = collect_traces(&points, &params);
        let profiles = collect_profiles(&points, &params);
        assert_eq!(traces.len(), 1);
        assert_eq!(profiles.len(), 1);
        assert_eq!(traces[0].cycles, profiles[0].cycles);
        let commits = traces[0]
            .events
            .iter()
            .filter(|e| matches!(e, Event::Commit { .. }))
            .count() as u64;
        assert_eq!(commits, profiles[0].report.commits);
        let doc = chrome_trace(&traces).pretty();
        assert!(doc.contains("\"traceEvents\""));
        assert!(doc.contains("grep/region-pred"));
        let text = render_profile(&profiles);
        assert!(text.starts_with("grep/region-pred:"));
    }
}
