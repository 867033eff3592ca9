//! psb-telemetry — host-side observability for the PSB toolchain.
//!
//! The guest machine got its instrumentation architecture in PR 2
//! (`TraceSink` / `CountersSink`); this crate gives the *host* layers —
//! the compile stage graph, the single-flight artifact cache, and the
//! `parallel_map` worker pool — the same treatment:
//!
//! - **Spans** ([`Telemetry::span`]): RAII enter/exit guards stamped
//!   with a monotonic clock, recorded into per-thread buffers and
//!   merged deterministically ([`Recorder::report`]).
//! - **Metrics** ([`Registry`]): named counters, gauges, and
//!   log-bucketed [`Histogram`]s (the type the guest `CountersSink`
//!   keeps too) with bracketed p50/p90/p99/max readout.
//! - **Determinism**: a `Recorder` in deterministic mode zeroes every
//!   wall-derived value and drops the `_host` record families, so
//!   reports are byte-identical at any `--jobs` — the property CI pins.
//!
//! The [`NullTelemetry`] default implements every hook as a no-op on an
//! `enabled() == false` carrier, so fully-monomorphized call sites
//! compile to the uninstrumented path (criterion-guarded in
//! `crates/bench`, same discipline as the guest `NullSink`).
//!
//! Exporters live in `psb-eval` (`telemetry_export`), next to the
//! hand-rolled JSON emitter and the guest Chrome-trace writer they
//! merge with.

mod metrics;
pub mod names;
mod pool;
mod recorder;

pub use metrics::{Histogram, HistogramSummary, Registry};
pub use pool::{parallel_map, parallel_map_t};
pub use recorder::{Recorder, SpanRecord, TelemetryReport};

/// The instrumentation interface threaded through host code paths.
///
/// Two record families with one rule: the plain methods may only carry
/// values that are identical at any `--jobs` (a [`Recorder`] in
/// deterministic mode zeroes their wall-derived payloads but keeps the
/// records); the `_host` methods carry anything scheduling-dependent —
/// worker utilization, lock waits, wall gauges — and are dropped
/// entirely in deterministic mode.
///
/// Every method defaults to a no-op so [`NullTelemetry`] is just an
/// empty `impl`, and generic call sites monomorphize it away.
pub trait Telemetry: Sync {
    /// False for [`NullTelemetry`]; lets call sites skip building span
    /// names and other payloads entirely.
    fn enabled(&self) -> bool {
        false
    }

    /// True when wall-derived values are being zeroed for
    /// jobs-independent output.
    fn deterministic(&self) -> bool {
        false
    }

    /// Nanoseconds since the recorder's epoch (monotonic); 0 when
    /// disabled or deterministic.
    fn now_ns(&self) -> u64 {
        0
    }

    /// Records a completed span whose presence and name are
    /// jobs-deterministic.
    fn record_span(&self, _cat: &'static str, _name: String, _start_ns: u64, _dur_ns: u64) {}

    /// Records a completed host-dependent span (dropped in
    /// deterministic mode).
    fn record_span_host(&self, _cat: &'static str, _name: String, _start_ns: u64, _dur_ns: u64) {}

    /// Adds `delta` to a counter.  Counter values must be
    /// jobs-deterministic (counts of work items, cache outcomes —
    /// never durations).
    fn counter(&self, _name: &str, _delta: u64) {}

    /// Sets a host-dependent gauge (dropped in deterministic mode).
    fn gauge_host(&self, _name: &str, _value: i64) {}

    /// Records a histogram sample whose *count* is jobs-deterministic;
    /// the value is zeroed in deterministic mode.
    fn observe(&self, _name: &str, _value: u64) {}

    /// Records a host-dependent histogram sample (dropped in
    /// deterministic mode).
    fn observe_host(&self, _name: &str, _value: u64) {}

    /// Opens a span closed by the returned guard's drop.  `name` is
    /// only invoked when [`Telemetry::enabled`]; disabled carriers pay
    /// a branch and nothing else.
    fn span<F: FnOnce() -> String>(&self, cat: &'static str, name: F) -> SpanGuard<'_, Self>
    where
        Self: Sized,
    {
        SpanGuard::open(self, cat, name, false)
    }

    /// [`Telemetry::span`], but recorded through
    /// [`Telemetry::record_span_host`] (dropped in deterministic mode).
    fn span_host<F: FnOnce() -> String>(&self, cat: &'static str, name: F) -> SpanGuard<'_, Self>
    where
        Self: Sized,
    {
        SpanGuard::open(self, cat, name, true)
    }
}

/// RAII span guard: created by [`Telemetry::span`], records the span on
/// drop.  Holds no name (and records nothing) when the carrier is
/// disabled.
pub struct SpanGuard<'t, T: Telemetry> {
    tel: &'t T,
    cat: &'static str,
    name: Option<String>,
    start_ns: u64,
    host: bool,
}

impl<'t, T: Telemetry> SpanGuard<'t, T> {
    fn open<F: FnOnce() -> String>(
        tel: &'t T,
        cat: &'static str,
        name: F,
        host: bool,
    ) -> SpanGuard<'t, T> {
        if tel.enabled() {
            SpanGuard {
                tel,
                cat,
                name: Some(name()),
                start_ns: tel.now_ns(),
                host,
            }
        } else {
            SpanGuard {
                tel,
                cat,
                name: None,
                start_ns: 0,
                host,
            }
        }
    }
}

impl<T: Telemetry> Drop for SpanGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            let dur = self.tel.now_ns().saturating_sub(self.start_ns);
            if self.host {
                self.tel
                    .record_span_host(self.cat, name, self.start_ns, dur);
            } else {
                self.tel.record_span(self.cat, name, self.start_ns, dur);
            }
        }
    }
}

/// The always-on no-op carrier.  Every hook inherits the trait's empty
/// default, so `compile_stored(.., &NullTelemetry)` monomorphizes to the
/// same code as the uninstrumented pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct NullTelemetry;

impl Telemetry for NullTelemetry {}

/// Rounds a wall-clock duration in seconds to whole microseconds.
///
/// The one shared definition of the idiom previously copy-pasted as
/// `(wall * 1e6).round() / 1e6` across `RunMetrics`, `CompileStats`,
/// and the bench `host` blocks: reports keep microsecond precision so
/// JSON diffs don't churn on sub-microsecond noise.
pub fn round_us(seconds: f64) -> f64 {
    (seconds * 1e6).round() / 1e6
}

/// [`round_us`] over a nanosecond count (the native span/histogram
/// unit), for exporters that report seconds.
pub fn ns_to_rounded_s(ns: u64) -> f64 {
    round_us(ns as f64 / 1e9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_telemetry_is_disabled_and_never_builds_names() {
        let tel = NullTelemetry;
        assert!(!tel.enabled());
        assert_eq!(tel.now_ns(), 0);
        {
            let _sp = tel.span("cat", || unreachable!("name built while disabled"));
        }
        let _sp = tel.span_host("cat", || -> String { unreachable!() });
        tel.counter("c", 1);
        tel.observe("h", 2);
    }

    #[test]
    fn round_us_matches_the_legacy_idiom() {
        for wall in [0.0, 1.5e-7, 0.1234567891, 12.000000499, 3.25] {
            assert_eq!(round_us(wall), (wall * 1e6).round() / 1e6);
        }
        assert_eq!(round_us(0.1234567891), 0.123457);
        assert_eq!(ns_to_rounded_s(123_456_789), 0.123457);
    }
}
