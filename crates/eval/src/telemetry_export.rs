//! Exporters for [`psb_telemetry`] reports: the merged host+guest
//! Chrome-trace document behind `--telemetry`, the percentile report
//! JSON, and the text summary.
//!
//! The merged trace puts the *host* pipeline (compile stages, cache
//! waits, worker-pool tasks) and the *guest* machine (region occupancy,
//! commits, squashes, recoveries) on one Perfetto timeline: host spans
//! occupy `pid 0` with one row per recording thread, and each traced
//! guest run gets its own process (`pid 1..`), exactly as `repro trace`
//! lays them out.  Host time is wall microseconds since the recorder's
//! epoch; guest time is simulated cycles — the units differ, which is
//! why the guests live in separate process groups rather than on the
//! host rows.

use crate::json::{Json, ToJson};
use crate::trace::{metadata, push_run_events, span, RunTrace};
use psb_compile::CacheStats;
use psb_telemetry::{ns_to_rounded_s, HistogramSummary, Telemetry, TelemetryReport};
use std::fmt::Write as _;

/// Version stamped into the `--telemetry` report JSON; bump on any
/// schema change.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 1;

/// Per-guest-run event cap in the merged trace.  A full bench sweep
/// traces dozens of runs; capping each keeps the document loadable in
/// Perfetto.  Truncated runs end with an explicit `truncated` instant.
const GUEST_EVENT_CAP: usize = 20_000;

/// Builds the merged host+guest Chrome trace-event document.
///
/// Host spans (from `report`) land on `pid 0` at `ts = start_ns / 1000`
/// (the trace-event unit is microseconds); guest runs follow on
/// `pid 1..` in `guests` order, capped per run.
pub fn merged_chrome_trace(report: &TelemetryReport, guests: &[RunTrace]) -> Json {
    let mut out: Vec<Json> = Vec::new();
    out.push(metadata("process_name", 0, None, "host"));
    let mut tids: Vec<u64> = report.spans.iter().map(|s| s.tid).collect();
    tids.sort_unstable();
    tids.dedup();
    for &tid in &tids {
        out.push(metadata(
            "thread_name",
            0,
            Some(tid as i64),
            &format!("host thread {tid}"),
        ));
    }
    for s in &report.spans {
        out.push(span(
            s.name.clone(),
            s.cat,
            0,
            s.tid as i64,
            s.start_ns / 1000,
            s.dur_ns / 1000,
        ));
    }
    for (i, t) in guests.iter().enumerate() {
        push_run_events(&mut out, t, i + 1, GUEST_EVENT_CAP);
    }
    Json::obj(vec![
        ("traceEvents", Json::Array(out)),
        ("displayTimeUnit", Json::Str("ms".to_string())),
    ])
}

fn summary_json(h: &HistogramSummary) -> Json {
    Json::obj(vec![
        ("count", h.count.to_json()),
        ("sum", h.sum.to_json()),
        ("min", h.min.to_json()),
        ("max", h.max.to_json()),
        ("mean", h.mean.to_json()),
        ("p50", h.p50.to_json()),
        ("p90", h.p90.to_json()),
        ("p99", h.p99.to_json()),
        ("buckets", h.buckets.to_json()),
    ])
}

/// Per-category span rollup: `(cat, spans, total_ns)`, category-sorted
/// so the order is independent of the report's span sort.
fn span_rollup(report: &TelemetryReport) -> Vec<(&'static str, u64, u64)> {
    let mut cats: Vec<(&'static str, u64, u64)> = Vec::new();
    for s in &report.spans {
        match cats.iter_mut().find(|c| c.0 == s.cat) {
            Some(c) => {
                c.1 += 1;
                c.2 += s.dur_ns;
            }
            None => cats.push((s.cat, 1, s.dur_ns)),
        }
    }
    cats.sort_unstable_by_key(|c| c.0);
    cats
}

/// The `--telemetry` report document: per-category span totals plus
/// every counter, gauge, and histogram summary.  In deterministic mode
/// every wall-derived number is 0 and host-only records are absent, so
/// the document is byte-identical at any `--jobs`.
pub fn telemetry_report_json(report: &TelemetryReport) -> Json {
    let spans: Vec<Json> = span_rollup(report)
        .into_iter()
        .map(|(cat, n, total_ns)| {
            Json::obj(vec![
                ("cat", cat.to_json()),
                ("spans", n.to_json()),
                ("total_seconds", ns_to_rounded_s(total_ns).to_json()),
            ])
        })
        .collect();
    let counters: Vec<(String, Json)> = report
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), v.to_json()))
        .collect();
    let gauges: Vec<(String, Json)> = report
        .gauges
        .iter()
        .map(|(k, v)| (k.clone(), v.to_json()))
        .collect();
    let histograms: Vec<(String, Json)> = report
        .histograms
        .iter()
        .map(|(k, h)| (k.clone(), summary_json(h)))
        .collect();
    Json::obj(vec![
        ("schema_version", TELEMETRY_SCHEMA_VERSION.to_json()),
        ("deterministic", report.deterministic.to_json()),
        ("spans", Json::Array(spans)),
        ("counters", Json::Object(counters)),
        ("gauges", Json::Object(gauges)),
        ("histograms", Json::Object(histograms)),
    ])
}

/// Renders the report as text (stderr companion to the JSON files).
pub fn render_telemetry(report: &TelemetryReport) -> String {
    let mut s = String::new();
    writeln!(
        s,
        "telemetry report{}",
        if report.deterministic {
            " (deterministic: wall values zeroed, host-only records dropped)"
        } else {
            ""
        }
    )
    .unwrap();
    let rollup = span_rollup(report);
    if !rollup.is_empty() {
        writeln!(s, "  spans:").unwrap();
        for (cat, n, total_ns) in rollup {
            writeln!(
                s,
                "    {cat:<10} {n:>6} span(s)  total {:.6}s",
                ns_to_rounded_s(total_ns)
            )
            .unwrap();
        }
    }
    if !report.counters.is_empty() {
        writeln!(s, "  counters:").unwrap();
        for (k, v) in &report.counters {
            writeln!(s, "    {k} = {v}").unwrap();
        }
    }
    if !report.gauges.is_empty() {
        writeln!(s, "  gauges:").unwrap();
        for (k, v) in &report.gauges {
            writeln!(s, "    {k} = {v}").unwrap();
        }
    }
    if !report.histograms.is_empty() {
        writeln!(s, "  histograms (ns):").unwrap();
        for (k, h) in &report.histograms {
            writeln!(
                s,
                "    {k:<44} n={:<6} mean={:<12.0} p50<={:<10} p90<={:<10} p99<={:<10} max={}",
                h.count, h.mean, h.p50, h.p90, h.p99, h.max
            )
            .unwrap();
        }
    }
    s
}

/// Pushes a [`CacheStats`] snapshot into the telemetry counter bank.
/// Cache counters are jobs-deterministic — the caches are single-flight
/// — so these are plain counters, kept in `--deterministic` reports.
pub fn record_cache_stats<T: Telemetry>(tel: &T, stats: &CacheStats) {
    if !tel.enabled() {
        return;
    }
    tel.counter("cache.artifact.hits", stats.hits);
    tel.counter("cache.artifact.misses", stats.misses);
    tel.counter("cache.artifact.entries", stats.entries);
    tel.counter("cache.profile.hits", stats.profile_hits);
    tel.counter("cache.profile.misses", stats.profile_misses);
}

/// The `cache` sub-object of the `repro compile` report.
pub fn cache_stats_json(stats: &CacheStats) -> Json {
    Json::obj(vec![
        ("hits", stats.hits.to_json()),
        ("misses", stats.misses.to_json()),
        ("entries", stats.entries.to_json()),
        ("profile_hits", stats.profile_hits.to_json()),
        ("profile_misses", stats.profile_misses.to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_core::Event;
    use psb_telemetry::Recorder;

    fn sample_report(deterministic: bool) -> TelemetryReport {
        let rec = Recorder::new(deterministic);
        {
            let _s = rec.span("compile", || "schedule:0000000000000001".to_string());
        }
        rec.counter("pmap.items", 3);
        rec.observe("pmap.task_ns", 1500);
        rec.gauge_host("jobs", 4);
        rec.report()
    }

    fn tiny_guest() -> RunTrace {
        RunTrace {
            workload: "grep".to_string(),
            model: "region-pred".to_string(),
            cycles: 10,
            events: vec![Event::Commit {
                cycle: 4,
                loc: psb_core::StateLoc::Sb(1),
            }],
        }
    }

    #[test]
    fn merged_trace_places_host_and_guests_on_distinct_pids() {
        let doc = merged_chrome_trace(&sample_report(false), &[tiny_guest()]);
        let events = doc.get("traceEvents").and_then(Json::as_array).unwrap();
        let pid_of = |e: &Json| e.get("pid").and_then(Json::as_i64).unwrap();
        assert!(events.iter().any(|e| pid_of(e) == 0
            && e.get("ph").and_then(Json::as_str) == Some("X")
            && e.get("cat").and_then(Json::as_str) == Some("compile")));
        assert!(events
            .iter()
            .any(|e| pid_of(e) == 1 && e.get("cat").and_then(Json::as_str) == Some("commit")));
        // Host process metadata names pid 0 "host".
        assert!(events.iter().any(|e| pid_of(e) == 0
            && e.get("ph").and_then(Json::as_str) == Some("M")
            && e.get("args")
                .and_then(|a| a.get("name"))
                .and_then(Json::as_str)
                == Some("host")));
    }

    #[test]
    fn report_json_carries_schema_and_all_banks() {
        let doc = telemetry_report_json(&sample_report(false));
        assert_eq!(doc.get("schema_version").and_then(Json::as_i64), Some(1));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("pmap.items"))
                .and_then(Json::as_i64),
            Some(3)
        );
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("jobs"))
                .and_then(Json::as_i64),
            Some(4)
        );
        let hist = doc
            .get("histograms")
            .and_then(|h| h.get("pmap.task_ns"))
            .unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_i64), Some(1));
        assert_eq!(hist.get("max").and_then(Json::as_i64), Some(1500));
        let text = render_telemetry(&sample_report(true));
        assert!(text.contains("deterministic"));
        assert!(text.contains("pmap.items = 3"));
    }

    #[test]
    fn cache_stats_reach_counters_and_json() {
        let stats = CacheStats {
            hits: 5,
            misses: 2,
            entries: 2,
            ..CacheStats::default()
        };
        let rec = Recorder::new(true);
        record_cache_stats(&rec, &stats);
        let rep = rec.report();
        let get = |name: &str| {
            rep.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
        };
        assert_eq!(get("cache.artifact.hits"), Some(5));
        assert_eq!(get("cache.artifact.misses"), Some(2));
        assert_eq!(get("cache.artifact.entries"), Some(2));
        assert_eq!(get("cache.profile.hits"), Some(0));
        let doc = cache_stats_json(&stats);
        assert_eq!(doc.get("hits").and_then(Json::as_i64), Some(5));
        assert_eq!(doc.get("misses").and_then(Json::as_i64), Some(2));
        assert_eq!(doc.get("entries").and_then(Json::as_i64), Some(2));
    }
}
