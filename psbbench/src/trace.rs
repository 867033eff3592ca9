//! The benchmark's span recorder and per-layer accounting.
//!
//! Spans are opened by the benchmark around each call into a layer's
//! public functions; a span's name is its layer path
//! (`core.machine.run`), so its layer is the first component.  The
//! compile pipeline's own stage hooks reach the recorder through its
//! [`Telemetry`] implementation and land as children of the enclosing
//! `compile` span.  Everything stays in memory until the run ends, then
//! is written as Chrome-trace JSON (loadable in Perfetto).
//!
//! A disabled recorder records nothing; the same replay code runs with
//! it to measure the tracing overhead.

use psb_serve::json::{Json, ToJson};
use psb_telemetry::{names, Telemetry};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// The workspace crates, as layers, in report order.
pub const LAYERS: [&str; 8] = [
    "workloads",
    "scalar",
    "isa",
    "sched",
    "compile",
    "core",
    "serve",
    "eval",
];

/// The name of the benchmark's own root span; its self time is the
/// time no layer accounts for.
pub const ROOT: &str = "bench.replay";

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub req: Option<u64>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    stack: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
    req: Option<u64>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    state: Mutex<State>,
}

/// Closes its span on drop.
pub struct Guard<'t> {
    tracer: Option<&'t Tracer>,
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(t) = self.tracer {
            let now = t.now();
            let mut s = t.lock();
            let id = s.stack.pop().expect("span stack underflow");
            s.spans[id].end_ns = now;
        }
    }
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("tracer poisoned")
    }

    /// Opens a span named by its layer path, child of the innermost
    /// open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        if !self.on {
            return Guard { tracer: None };
        }
        let start = self.now();
        let mut s = self.lock();
        let id = s.spans.len();
        let parent = s.stack.last().copied();
        let req = s.req;
        s.spans.push(Span {
            name,
            start_ns: start,
            end_ns: start,
            parent,
            req,
        });
        s.stack.push(id);
        Guard { tracer: Some(self) }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let _g = self.span(name);
        f()
    }

    /// Adds to a named count.
    pub fn add(&self, name: &'static str, delta: f64) {
        if self.on {
            *self.lock().counts.entry(name).or_insert(0.0) += delta;
        }
    }

    /// Tags every span opened from now on with a request id.
    pub fn set_request(&self, req: Option<u64>) {
        if self.on {
            self.lock().req = req;
        }
    }

    pub fn count(&self, name: &str) -> f64 {
        if !self.on {
            return 0.0;
        }
        self.lock().counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Inserts a span that already ended (the pipeline's stage hooks
    /// report spans on close).
    fn record_closed(&self, name: &'static str, start_ns: u64, dur_ns: u64) {
        let mut s = self.lock();
        let parent = s.stack.last().copied();
        let req = s.req;
        s.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns + dur_ns,
            parent,
            req,
        });
    }
}

/// The compile pipeline's hooks, mapped onto layers: the profile stage
/// is a scalar run, the schedule stage the scheduler, the decode stage
/// the core crate's lowering; the disk store's save time and writes are
/// compile-layer counts.
impl Telemetry for Tracer {
    fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        if self.on {
            self.now()
        } else {
            0
        }
    }

    fn record_span(&self, _cat: &'static str, name: String, start_ns: u64, dur_ns: u64) {
        let layer = match name.split(':').next() {
            Some("profile") => "scalar.profile",
            Some("schedule") => {
                self.add("sched.compiles", 1.0);
                "sched.schedule"
            }
            Some("decode") => "core.decode",
            _ => return,
        };
        self.record_closed(layer, start_ns, dur_ns);
    }

    fn counter(&self, name: &str, delta: u64) {
        if name == names::STORE_WRITES {
            self.add("compile.store_writes", delta as f64);
        }
    }

    fn observe_host(&self, name: &str, value: u64) {
        if name == names::STORE_SAVE_NS {
            self.add("compile.store_save_s", value as f64 / 1e9);
        }
    }
}

fn layer_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Self time (ns) of every span: its duration minus the part its
/// children cover.  Children are sequential and nested in their parent
/// (the traced replay is single-threaded); a violation is a recorder
/// bug and fails the run.
pub fn self_times(spans: &[Span]) -> Result<Vec<u64>, String> {
    let mut child_ns = vec![0u64; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let ps = &spans[p];
            if s.start_ns < ps.start_ns || s.end_ns > ps.end_ns {
                return Err(format!(
                    "span {i} ({}) escapes its parent {}",
                    s.name, ps.name
                ));
            }
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(&child_ns)
        .enumerate()
        .map(|(i, (s, &c))| {
            (s.end_ns - s.start_ns)
                .checked_sub(c)
                .ok_or_else(|| format!("span {i} ({}): children overlap", s.name))
        })
        .collect()
}

/// Per-layer accounting of one traced replay.
pub struct Accounting {
    /// Wall time of the root span.
    pub wall_ns: u64,
    /// Self time per layer, in [`LAYERS`] order.
    pub layer_self_ns: Vec<u64>,
    /// Entries into each layer (spans whose parent is another layer).
    pub layer_calls: Vec<u64>,
    /// Root self time: the benchmark's own glue plus anything a layer
    /// span failed to cover.
    pub unaccounted_ns: u64,
    /// Inclusive time and count per span name.
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Self time per span name.
    pub self_by_name: BTreeMap<&'static str, u64>,
}

impl Accounting {
    /// Checks that every span sits under exactly one root and that the
    /// layer self times plus the unaccounted time sum to the traced
    /// wall time, nanosecond for nanosecond.
    pub fn of(spans: &[Span]) -> Result<Accounting, String> {
        let roots: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].parent.is_none())
            .collect();
        if roots.len() != 1 || spans[roots[0]].name != ROOT {
            return Err(format!(
                "expected one {ROOT} root span, found {}",
                roots.len()
            ));
        }
        let root = roots[0];
        let selfs = self_times(spans)?;
        let mut layer_self_ns = vec![0u64; LAYERS.len()];
        let mut layer_calls = vec![0u64; LAYERS.len()];
        let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        let mut self_by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let e = by_name.entry(s.name).or_insert((0, 0));
            e.0 += s.end_ns - s.start_ns;
            e.1 += 1;
            *self_by_name.entry(s.name).or_insert(0) += selfs[i];
            if i == root {
                continue;
            }
            let layer = layer_of(s.name);
            let Some(l) = LAYERS.iter().position(|&x| x == layer) else {
                return Err(format!("span {} names no layer", s.name));
            };
            layer_self_ns[l] += selfs[i];
            let parent_layer = s.parent.map(|p| layer_of(spans[p].name));
            if parent_layer != Some(layer) {
                layer_calls[l] += 1;
            }
        }
        let wall_ns = spans[root].end_ns - spans[root].start_ns;
        let unaccounted_ns = selfs[root];
        let sum: u64 = layer_self_ns.iter().sum::<u64>() + unaccounted_ns;
        if sum != wall_ns {
            return Err(format!(
                "layer self times ({sum} ns) do not add up to the traced wall ({wall_ns} ns)"
            ));
        }
        Ok(Accounting {
            wall_ns,
            layer_self_ns,
            layer_calls,
            unaccounted_ns,
            by_name,
            self_by_name,
        })
    }

    /// Inclusive seconds under span `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e9)
    }

    /// Number of spans named `name`.
    pub fn calls(&self, name: &str) -> f64 {
        self.by_name.get(name).map_or(0.0, |&(_, n)| n as f64)
    }

    /// Self seconds of spans named `name`.
    pub fn self_secs(&self, name: &str) -> f64 {
        self.self_by_name
            .get(name)
            .map_or(0.0, |&ns| ns as f64 / 1e9)
    }
}

/// Chrome trace-event JSON: one complete (`"X"`) event per span, in
/// microseconds, with the span's parent index and request id as args.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![("id", i.to_json())];
            if let Some(p) = s.parent {
                args.push(("parent", p.to_json()));
            }
            if let Some(r) = s.req {
                args.push(("request", (r as i64).to_json()));
            }
            Json::obj(vec![
                ("name", s.name.to_json()),
                ("cat", layer_of(s.name).to_json()),
                ("ph", "X".to_json()),
                ("ts", (s.start_ns as f64 / 1e3).to_json()),
                ("dur", ((s.end_ns - s.start_ns) as f64 / 1e3).to_json()),
                ("pid", 1u64.to_json()),
                ("tid", 1u64.to_json()),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("traceEvents", Json::Array(events)),
        ("displayTimeUnit", "ms".to_json()),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let t = Tracer::new(true);
        {
            let _root = t.span(ROOT);
            {
                let _c = t.span("compile");
                t.time("sched.schedule", || std::hint::black_box(1 + 1));
            }
            t.time("core.machine.run", || std::hint::black_box(2 + 2));
        }
        let acc = Accounting::of(&t.spans()).unwrap();
        let sum: u64 = acc.layer_self_ns.iter().sum();
        assert_eq!(sum + acc.unaccounted_ns, acc.wall_ns);
        assert_eq!(acc.calls("sched.schedule"), 1.0);
        let sched = LAYERS.iter().position(|&l| l == "sched").unwrap();
        assert_eq!(acc.layer_calls[sched], 1);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        t.time("core.machine.run", || ());
        t.add("core.machine.sim_cycles", 5.0);
        assert!(t.spans().is_empty());
        assert_eq!(t.count("core.machine.sim_cycles"), 0.0);
    }

    #[test]
    fn a_span_outside_any_layer_is_rejected() {
        let t = Tracer::new(true);
        {
            let _root = t.span(ROOT);
            t.time("nowhere", || ());
        }
        assert!(Accounting::of(&t.spans()).is_err());
    }
}
