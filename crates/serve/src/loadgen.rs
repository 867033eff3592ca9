//! The closed-loop load generator and latency reporter.
//!
//! The request mix is a fixed pool of shapes drawn by a seeded
//! splitmix64 stream, so the *sequence of shapes is a pure function of
//! the seed* — which client thread happens to send request `i` never
//! changes what request `i` is.  Combined with the server's
//! single-flight cache (N distinct shapes = exactly N compiles at any
//! concurrency), every aggregate in the report is jobs-deterministic;
//! under `deterministic` the wall-clock latency numbers are zeroed too
//! and the whole report is byte-identical at any `--jobs`.
//!
//! Two phases: **warm** issues each distinct shape once (this is where
//! all the compiles happen), then **mix** issues the seeded stream
//! against the now-warm cache — the phase the ≥ 90% hit-rate
//! acceptance criterion measures.

use crate::http::{read_response, write_request, HttpError};
use crate::json::{Json, ToJson};
use psb_telemetry::{ns_to_rounded_s, Histogram};
use std::collections::BTreeMap;
use std::io::BufReader;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One `repro loadgen` invocation.
#[derive(Clone, PartialEq, Debug)]
pub struct LoadgenConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Requests in the mix phase (the warm phase adds one request per
    /// distinct shape on top).
    pub requests: usize,
    /// Closed-loop client threads.
    pub jobs: usize,
    /// Seed for the request-shape stream.
    pub seed: u64,
    /// Zero wall-derived report values for byte-identical output.
    pub deterministic: bool,
}

impl Default for LoadgenConfig {
    fn default() -> LoadgenConfig {
        LoadgenConfig {
            addr: String::new(),
            requests: 100,
            jobs: 1,
            seed: 42,
            deterministic: false,
        }
    }
}

/// The fixed shape pool: 2 workloads × 2 models × 2 sizes, all
/// comfortably inside any sane cycle budget.
fn shape_pool() -> Vec<Json> {
    let mut shapes = Vec::new();
    for workload in ["grep", "li"] {
        for model in ["region-pred", "trace"] {
            for size in [96u64, 160] {
                shapes.push(Json::obj(vec![
                    ("workload", workload.to_json()),
                    ("models", Json::Array(vec![Json::Str(model.to_string())])),
                    ("size", size.to_json()),
                ]));
            }
        }
    }
    shapes
}

/// splitmix64: the stream underlying shape selection.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Tallies shared by all client threads, merged under one lock at
/// request granularity (requests are milliseconds of work; the lock is
/// nanoseconds — contention is irrelevant next to the socket).
#[derive(Default)]
struct Tally {
    status: BTreeMap<u16, u64>,
    sources: BTreeMap<String, u64>,
    transport_errors: u64,
    latency: Histogram,
}

fn record_response(
    tally: &Mutex<Tally>,
    result: Result<(u16, Vec<u8>), HttpError>,
    elapsed_ns: u64,
) {
    let mut t = tally.lock().expect("tally poisoned");
    match result {
        Err(_) => t.transport_errors += 1,
        Ok((status, body)) => {
            *t.status.entry(status).or_insert(0) += 1;
            t.latency.record(elapsed_ns);
            if let Ok(v) = Json::parse(&String::from_utf8_lossy(&body)) {
                if let Some(models) = v.get("models").and_then(|m| m.as_array()) {
                    for m in models {
                        if let Some(src) = m.get("source").and_then(|s| s.as_str()) {
                            *t.sources.entry(src.to_string()).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Opens a client connection with Nagle's algorithm off: a request is
/// two writes (head, then body), and with Nagle on the body waits for
/// the server's delayed ACK of the head.
fn connect(addr: &str) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    Ok(stream)
}

/// One client's connection, lazily (re)established.
struct Client {
    addr: String,
    conn: Option<(BufReader<TcpStream>, TcpStream)>,
}

impl Client {
    fn new(addr: &str) -> Client {
        Client {
            addr: addr.to_string(),
            conn: None,
        }
    }

    fn post_run(&mut self, body: &[u8]) -> Result<(u16, Vec<u8>), HttpError> {
        if self.conn.is_none() {
            let stream = connect(&self.addr)?;
            let reader = BufReader::new(stream.try_clone()?);
            self.conn = Some((reader, stream));
        }
        let (reader, stream) = self.conn.as_mut().expect("just connected");
        let send = write_request(stream, "POST", "/run", body)
            .map_err(HttpError::from)
            .and_then(|()| read_response(reader));
        match send {
            Ok(resp) => Ok((resp.status, resp.body)),
            Err(e) => {
                // Keep-alive connections can die between requests (server
                // restart, timeout); retry once on a fresh connection.
                self.conn = None;
                let stream = connect(&self.addr)?;
                let mut reader = BufReader::new(stream.try_clone()?);
                let mut stream = stream;
                write_request(&mut stream, "POST", "/run", body)?;
                let resp = read_response(&mut reader)?;
                self.conn = Some((reader, stream));
                let _ = e;
                Ok((resp.status, resp.body))
            }
        }
    }
}

/// Runs the two-phase load and produces the latency/cache report.
///
/// # Errors
///
/// A message when the server is unreachable for the very first request
/// (after that, per-request transport failures are tallied, not fatal).
pub fn run_loadgen(config: &LoadgenConfig) -> Result<Json, String> {
    let shapes = shape_pool();
    let bodies: Vec<Vec<u8>> = shapes.iter().map(|s| s.pretty().into_bytes()).collect();

    // Fail fast (and clearly) if nothing is listening.  A health probe,
    // not a /run: it must not perturb the server's cache state or the
    // warm-phase compiled counts.
    {
        let stream = connect(&config.addr)
            .map_err(|e| format!("server unreachable at {}: {e}", config.addr))?;
        let mut reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("socket clone failed: {e}"))?,
        );
        let mut stream = stream;
        write_request(&mut stream, "GET", "/healthz", b"")
            .map_err(|e| format!("health probe failed: {e}"))?;
        let health = read_response(&mut reader)
            .map_err(|e| format!("health probe failed at {}: {e}", config.addr))?;
        if health.status != 200 {
            return Err(format!("health probe returned {}", health.status));
        }
    }

    // Phase 1: warm every shape (sequential — these are the compiles).
    let warm_tally = Mutex::new(Tally::default());
    let mut warm_client = Client::new(&config.addr);
    for body in &bodies {
        let t0 = Instant::now();
        let r = warm_client.post_run(body);
        record_response(&warm_tally, r, t0.elapsed().as_nanos() as u64);
    }
    // Close the warm connection now: left idle, it would hold a server
    // worker until the read timeout while the mix phase waits for one.
    drop(warm_client);

    // Phase 2: the seeded mix, closed-loop over `jobs` clients.
    let mix_tally = Mutex::new(Tally::default());
    let next = AtomicUsize::new(0);
    let jobs = config.jobs.max(1).min(config.requests.max(1));
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let next = &next;
            let mix_tally = &mix_tally;
            let bodies = &bodies;
            s.spawn(move || {
                let mut client = Client::new(&config.addr);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= config.requests {
                        return;
                    }
                    let shape =
                        splitmix64(config.seed.wrapping_add(i as u64)) as usize % bodies.len();
                    let t0 = Instant::now();
                    let r = client.post_run(&bodies[shape]);
                    record_response(mix_tally, r, t0.elapsed().as_nanos() as u64);
                }
            });
        }
    });

    let warm = warm_tally.into_inner().expect("tally poisoned");
    let mix = mix_tally.into_inner().expect("tally poisoned");
    Ok(report(config, &shapes, &warm, &mix))
}

fn tally_json(t: &Tally, deterministic: bool) -> Json {
    let status = t
        .status
        .iter()
        .map(|(code, n)| (code.to_string(), Json::Int(*n as i64)))
        .collect();
    let sources = t
        .sources
        .iter()
        .map(|(src, n)| (src.clone(), Json::Int(*n as i64)))
        .collect();
    let lat = |p: f64| {
        if deterministic {
            0.0
        } else {
            ns_to_rounded_s(t.latency.percentile(p))
        }
    };
    Json::obj(vec![
        (
            "requests",
            (t.latency.count() + t.transport_errors).to_json(),
        ),
        ("transport_errors", t.transport_errors.to_json()),
        ("status", Json::Object(status)),
        ("sources", Json::Object(sources)),
        (
            "latency_s",
            Json::obj(vec![
                ("p50", lat(50.0).to_json()),
                ("p90", lat(90.0).to_json()),
                ("p99", lat(99.0).to_json()),
                (
                    "mean",
                    (if deterministic {
                        0.0
                    } else {
                        ns_to_rounded_s(t.latency.mean() as u64)
                    })
                    .to_json(),
                ),
            ]),
        ),
    ])
}

fn hit_rate(t: &Tally) -> f64 {
    let hits: u64 = t
        .sources
        .iter()
        .filter(|(s, _)| s.as_str() == "memory" || s.as_str() == "disk")
        .map(|(_, n)| n)
        .sum();
    let total: u64 = t.sources.values().sum();
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

fn report(config: &LoadgenConfig, shapes: &[Json], warm: &Tally, mix: &Tally) -> Json {
    let failed: u64 = mix.transport_errors
        + warm.transport_errors
        + warm
            .status
            .iter()
            .chain(mix.status.iter())
            .filter(|(&code, _)| code != 200)
            .map(|(_, n)| n)
            .sum::<u64>();
    // `jobs` is deliberately absent: the report must be byte-identical
    // at any client concurrency.
    Json::obj(vec![
        ("schema", "psb-loadgen-v1".to_json()),
        ("seed", config.seed.to_json()),
        ("shapes", shapes.len().to_json()),
        ("deterministic", config.deterministic.to_json()),
        ("failed", failed.to_json()),
        ("mix_hit_rate", hit_rate(mix).to_json()),
        ("warm", tally_json(warm, config.deterministic)),
        ("mix", tally_json(mix, config.deterministic)),
    ])
}

/// Renders the loadgen report as a short human summary (the stderr
/// companion to the JSON document).
pub fn render_report(report: &Json) -> String {
    use std::fmt::Write as _;
    let mut s = String::new();
    let get_u = |v: &Json, k: &str| v.get(k).and_then(Json::as_i64).unwrap_or(0);
    let get_f = |v: &Json, k: &str| v.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    writeln!(
        s,
        "loadgen: seed {} over {} shape(s), {} failed, mix hit rate {:.1}%",
        get_u(report, "seed"),
        get_u(report, "shapes"),
        get_u(report, "failed"),
        get_f(report, "mix_hit_rate") * 100.0
    )
    .unwrap();
    for phase in ["warm", "mix"] {
        let Some(t) = report.get(phase) else { continue };
        let lat = t.get("latency_s");
        let lat_f = |k: &str| {
            lat.and_then(|l| l.get(k))
                .and_then(Json::as_f64)
                .unwrap_or(0.0)
        };
        writeln!(
            s,
            "  {phase:<4}: {} request(s), p50 {:.6}s p90 {:.6}s p99 {:.6}s mean {:.6}s",
            get_u(t, "requests"),
            lat_f("p50"),
            lat_f("p90"),
            lat_f("p99"),
            lat_f("mean")
        )
        .unwrap();
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_stream_is_a_pure_function_of_the_seed() {
        let pick =
            |seed: u64, i: usize, n: usize| splitmix64(seed.wrapping_add(i as u64)) as usize % n;
        let a: Vec<usize> = (0..64).map(|i| pick(7, i, 8)).collect();
        let b: Vec<usize> = (0..64).map(|i| pick(7, i, 8)).collect();
        assert_eq!(a, b);
        let c: Vec<usize> = (0..64).map(|i| pick(8, i, 8)).collect();
        assert_ne!(a, c, "different seeds give different mixes");
        // Every shape appears: the mix phase really exercises the pool.
        let mut seen = a.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen, (0..8).collect::<Vec<usize>>());
    }

    #[test]
    fn shape_pool_is_fixed_and_small() {
        let shapes = shape_pool();
        assert_eq!(shapes.len(), 8);
        // Shapes are distinct cache keys: distinct serialized bodies.
        let mut bodies: Vec<String> = shapes.iter().map(|s| s.pretty()).collect();
        bodies.sort();
        bodies.dedup();
        assert_eq!(bodies.len(), 8);
    }

    #[test]
    fn hit_rate_counts_memory_and_disk_as_hits() {
        let mut t = Tally::default();
        t.sources.insert("memory".to_string(), 80);
        t.sources.insert("disk".to_string(), 12);
        t.sources.insert("compiled".to_string(), 8);
        assert!((hit_rate(&t) - 0.92).abs() < 1e-12);
        assert_eq!(hit_rate(&Tally::default()), 0.0);
    }
}
