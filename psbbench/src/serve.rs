//! The `serve` workload: `repro serve` driven open-loop over HTTP.
//!
//! The request stream and every arrival schedule are pure functions of
//! the seed.  Popularity is fixed by rank, so every seed sees the same
//! cost structure; the seed picks the inputs (evaluation seeds), the
//! order and the arrival times.

use crate::http::{request_bytes, wait_readable, Conn, Response};
use crate::pipeline::{compile, gen, golden, machine};
use crate::stats::Rng;
use crate::trace::Tracer;
use psb_compile::{ArtifactCache, CompileRequest, DiskStore, ProfileSource};
use psb_core::MachineConfig;
use psb_eval::{BENCHMARKS, KERNELS};
use psb_isa::parse_program;
use psb_scalar::ScalarConfig;
use psb_sched::{Model, SchedConfig};
use psb_serve::json::{Json, ToJson};
use psb_serve::{SimRequest, Source};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStderr, Command, Stdio};
use std::time::{Duration, Instant};

pub const SIZES: [usize; 3] = [96, 384, 2048];
// The shares and the Zipf exponent below are assumptions, not fitted
// to recorded traffic (there is none to fit): `spec.json`
// ("mix_assumptions") gives each one's rationale and how the serve
// metrics move when it changes, from the per-kind costs a traced serve
// run prints.
/// Share of requests carrying an inline `asm/` kernel.
pub const INLINE_SHARE: f64 = 0.15;
/// Share of requests asking for every model.
pub const ALL_SHARE: f64 = 0.10;
/// Share of requests with a fresh evaluation seed (a compile and a
/// store write).
pub const FRESH_SHARE: f64 = 0.03;
/// Zipf exponent of key popularity.
pub const ZIPF: f64 = 0.8;
/// The latency limit that `max_rps` holds p99 to.
pub const P99_LIMIT_MS: f64 = 100.0;
/// The fixed open-loop rates (requests/s).
pub const LIGHT_RPS: f64 = 100.0;
pub const BUSY_RPS: f64 = 300.0;
/// The fixed rate ladder: `LADDER_BASE * LADDER_STEP^k`.
pub const LADDER_BASE: f64 = 20.0;
pub const LADDER_STEP: f64 = 1.05;
pub const LADDER_RUNGS: usize = 100;
/// Rungs one run tries at most.
pub const LADDER_TRIES: usize = 8;
/// Outstanding requests one connection may carry before the generator
/// waits for a response (it then runs late, which it reports).
pub const WINDOW: usize = 64;

/// The ladder's rate at rung `k`.
pub fn rung(k: usize) -> f64 {
    LADDER_BASE * LADDER_STEP.powi(k as i32)
}

/// One request of the stream.
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    pub body: String,
    /// Simulated points (model runs) the request asks for.
    pub models: usize,
    pub fresh: bool,
}

/// The request kinds of the mix, in [`Req::kind`] terms.
pub const KINDS: [&str; 4] = ["inline", "fresh", "all", "single"];

impl Req {
    /// Which share of the mix the request belongs to.
    pub fn kind(&self) -> &'static str {
        if self.body.contains("\"program\"") {
            "inline"
        } else if self.fresh {
            "fresh"
        } else if self.models > 1 {
            "all"
        } else {
            "single"
        }
    }
}

/// A (workload, size) pair in popularity order: sizes rotate so every
/// rank band mixes small and large inputs.
fn combo(j: usize) -> (&'static str, usize) {
    (BENCHMARKS[j % 6], SIZES[(j + j / 6) % 3])
}

const COMBOS: usize = 18;

fn key_seed(seed: u64, j: usize) -> u64 {
    1 + Rng::new(seed ^ (j as u64).wrapping_mul(0x9e37_79b9)).next_u64() % 1_000_000
}

fn named(workload: &str, size: usize, models: Option<Model>, eval_seed: u64) -> Req {
    let m = match models {
        Some(m) => Json::Array(vec![m.name().to_json()]),
        None => "all".to_json(),
    };
    Req {
        body: Json::obj(vec![
            ("workload", workload.to_json()),
            ("size", size.to_json()),
            ("models", m),
            ("eval_seed", (eval_seed as i64).to_json()),
        ])
        .pretty(),
        models: models.map_or(Model::ALL.len(), |_| 1),
        fresh: false,
    }
}

/// Requests per block of the stream.  Every block holds the same
/// multiset of request kinds and keys (the shares and Zipf weights,
/// rounded by largest remainder) in a seeded order, so what a phase
/// costs does not depend on the seed; the seed picks the order, the
/// inputs and the arrival times.
pub const BLOCK: usize = 200;

/// Single-model named keys: two models per (workload, size) pair.
const KEYS: usize = 2 * COMBOS;

/// What one request of a block asks for.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Slot {
    /// An inline `asm/` kernel.
    Inline(usize),
    /// A single-model key with a fresh evaluation seed.
    Fresh(usize),
    /// A (workload, size) pair under every model.
    All(usize),
    /// A warm single-model key.
    Single(usize),
}

/// Splits `total` over `weights` by largest remainder.
fn apportion(total: usize, weights: &[f64]) -> Vec<usize> {
    let sum: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| w / sum * total as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = total - counts.iter().sum::<usize>();
    for &i in order.iter().take(short) {
        counts[i] += 1;
    }
    counts
}

fn zipf(n: usize) -> Vec<f64> {
    (1..=n).map(|r| (r as f64).powf(-ZIPF)).collect()
}

/// The fixed multiset of one block.
fn block_slots() -> Vec<Slot> {
    let single = 1.0 - INLINE_SHARE - FRESH_SHARE - ALL_SHARE;
    let kinds = apportion(BLOCK, &[INLINE_SHARE, FRESH_SHARE, ALL_SHARE, single]);
    let mut slots = Vec::with_capacity(BLOCK);
    let mut add = |count: usize, weights: Vec<f64>, slot: fn(usize) -> Slot| {
        for (i, c) in apportion(count, &weights).into_iter().enumerate() {
            slots.extend(std::iter::repeat_n(slot(i), c));
        }
    };
    add(kinds[0], vec![1.0; KERNELS.len()], Slot::Inline);
    add(kinds[1], zipf(KEYS), Slot::Fresh);
    add(kinds[2], zipf(COMBOS), Slot::All);
    add(kinds[3], zipf(KEYS), Slot::Single);
    slots
}

/// The request mix.  Inline kernels are read from `asm/` once.
pub struct Mix {
    seed: u64,
    kernels: Vec<String>,
}

impl Mix {
    pub fn new(seed: u64) -> Result<Mix, String> {
        let kernels = KERNELS
            .iter()
            .map(|k| {
                let path = crate::asm_path(k);
                std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Mix { seed, kernels })
    }

    fn single_model(i: usize) -> Model {
        Model::ALL[(i * 3 + i / COMBOS) % Model::ALL.len()]
    }

    fn inline(&self, k: usize) -> Req {
        let m = Model::ALL[(k * 2 + 5) % Model::ALL.len()];
        Req {
            body: Json::obj(vec![
                ("program", self.kernels[k].as_str().to_json()),
                ("models", Json::Array(vec![m.name().to_json()])),
            ])
            .pretty(),
            models: 1,
            fresh: false,
        }
    }

    /// Every warm key once: what set-up sends before timing.
    pub fn hot_keys(&self) -> Vec<Req> {
        let mut v = Vec::new();
        for i in 0..KEYS {
            let j = i % COMBOS;
            let (w, s) = combo(j);
            v.push(named(
                w,
                s,
                Some(Self::single_model(i)),
                key_seed(self.seed, j),
            ));
        }
        for j in 0..COMBOS {
            let (w, s) = combo(j);
            v.push(named(w, s, None, key_seed(self.seed, j)));
        }
        v.extend((0..KERNELS.len()).map(|k| self.inline(k)));
        v
    }

    fn request(&self, slot: Slot, rng: &mut Rng) -> Req {
        match slot {
            Slot::Inline(k) => self.inline(k),
            Slot::Fresh(i) => {
                let (w, s) = combo(i % COMBOS);
                let fresh_seed = 2_000_000 + rng.next_u64() % 1_000_000_000;
                Req {
                    fresh: true,
                    ..named(w, s, Some(Self::single_model(i)), fresh_seed)
                }
            }
            Slot::All(j) => {
                let (w, s) = combo(j);
                named(w, s, None, key_seed(self.seed, j))
            }
            Slot::Single(i) => {
                let (w, s) = combo(i % COMBOS);
                named(
                    w,
                    s,
                    Some(Self::single_model(i)),
                    key_seed(self.seed, i % COMBOS),
                )
            }
        }
    }

    /// The first `n` requests of the seed's stream (a prefix of every
    /// longer stream): blocks of [`BLOCK`] requests, each a seeded
    /// shuffle of [`block_slots`].
    pub fn stream(&self, n: usize) -> Vec<Req> {
        let slots = block_slots();
        let mut rng = Rng::new(self.seed ^ 0x73747265616d);
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            let mut block = slots.clone();
            for i in (1..block.len()).rev() {
                block.swap(i, rng.below(i + 1));
            }
            for slot in block.into_iter().take(n - out.len()) {
                out.push(self.request(slot, &mut rng));
            }
        }
        out
    }
}

/// Poisson arrival offsets (seconds) for `n` requests at `rate`.
pub fn arrivals(seed: u64, phase: u64, rate: f64, n: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed ^ phase.wrapping_mul(0x2545_f491_4f6c_dd1d));
    let mut t = 0.0;
    (0..n)
        .map(|_| {
            t += rng.exp(1.0 / rate);
            t
        })
        .collect()
}

/// A running `repro serve` child process, stopped and reaped on drop.
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    store: PathBuf,
    _stderr: BufReader<ChildStderr>,
}

impl Server {
    pub fn start(repro: &Path, jobs: usize, store: PathBuf) -> Result<Server, String> {
        let _ = std::fs::remove_dir_all(&store);
        std::fs::create_dir_all(&store).map_err(|e| format!("{}: {e}", store.display()))?;
        let mut child = Command::new(repro)
            .arg("serve")
            .args([
                "--addr",
                "127.0.0.1:0",
                "--jobs",
                &jobs.to_string(),
                "--store",
            ])
            .arg(&store)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", repro.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("repro serve exited before listening".to_string());
                }
                Ok(_) => {
                    if let Some(a) = line
                        .trim()
                        .strip_prefix("repro serve: listening on http://")
                    {
                        break a
                            .parse::<SocketAddr>()
                            .map_err(|e| format!("address {a}: {e}"))?;
                    }
                }
            }
        };
        let s = Server {
            child,
            addr,
            store,
            _stderr: stderr,
        };
        let mut c = Conn::open(s.addr).map_err(|e| e.to_string())?;
        let r = c.call(
            &request_bytes("GET", "/healthz", ""),
            Duration::from_secs(10),
        )?;
        if r.status != 200 {
            return Err(format!("/healthz answered {}", r.status));
        }
        Ok(s)
    }

    /// Peak resident set of the server process (MB).
    pub fn peak_rss_mb(&self) -> f64 {
        crate::peak_rss_mb(&format!("/proc/{}/status", self.child.id()))
    }

    /// Seconds the server's threads have run on a CPU, from the
    /// scheduler's per-thread accounting (`/proc/<pid>/task/*/schedstat`).
    pub fn cpu_s(&self) -> f64 {
        let tasks = format!("/proc/{}/task", self.child.id());
        std::fs::read_dir(tasks)
            .into_iter()
            .flatten()
            .flatten()
            .filter_map(|t| std::fs::read_to_string(t.path().join("schedstat")).ok())
            .filter_map(|s| s.split_whitespace().next()?.parse::<f64>().ok())
            .sum::<f64>()
            / 1e9
    }

    pub fn metrics(&self) -> Result<Json, String> {
        let mut c = Conn::open(self.addr).map_err(|e| e.to_string())?;
        let r = c.call(
            &request_bytes("GET", "/metrics", ""),
            Duration::from_secs(10),
        )?;
        Json::parse(&String::from_utf8_lossy(&r.body)).map_err(|e| e.to_string())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// One request's outcome in an open-loop phase.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// From due time to the last byte of the response (ms); infinite
    /// for a transport failure.
    pub lat_ms: f64,
    /// How late the generator sent it (ms).
    pub late_ms: f64,
    /// Completion time from the phase start (s).
    pub done_s: f64,
    pub status: u16,
    pub body: Vec<u8>,
}

/// Sends `bytes[i]` at `dues[i]` seconds after the start over `conns`
/// keep-alive connections (request `i` on connection `i % conns`),
/// pipelining up to [`WINDOW`] outstanding requests per connection.
///
/// One thread drives every connection: it blocks in `ppoll` until a
/// response arrives or the next request is due, so sends and
/// completion times are as precise as the kernel's timers.
pub fn open_loop(addr: SocketAddr, conns: usize, bytes: &[Vec<u8>], dues: &[f64]) -> Vec<Outcome> {
    struct Lane {
        conn: Option<Conn>,
        mine: Vec<usize>,
        next: usize,
        pending: VecDeque<usize>,
        /// A request whose write has started: (index, bytes written).
        writing: Option<(usize, usize)>,
    }
    let start = Instant::now() + Duration::from_millis(20);
    let due = |i: usize| start + Duration::from_secs_f64(dues[i]);
    let mut out: Vec<Option<Outcome>> = vec![None; bytes.len()];
    let mut late = vec![0.0; bytes.len()];
    let mut lanes: Vec<Lane> = (0..conns)
        .map(|c| Lane {
            conn: Conn::open(addr)
                .and_then(|c| c.nonblocking().map(|()| c))
                .ok(),
            mine: (c..bytes.len()).step_by(conns).collect(),
            next: 0,
            pending: VecDeque::new(),
            writing: None,
        })
        .collect();
    loop {
        let mut stalled_write = false;
        let mut wake = start + Duration::from_secs(3600);
        for lane in &mut lanes {
            let Some(conn) = lane.conn.as_mut() else {
                continue;
            };
            let mut failed = false;
            // Send everything due, one write per request where the
            // socket takes it whole.
            loop {
                if let Some((i, off)) = lane.writing {
                    match conn.write_some(&bytes[i][off..]) {
                        Ok(n) if off + n == bytes[i].len() => lane.writing = None,
                        Ok(n) => {
                            lane.writing = Some((i, off + n));
                            break;
                        }
                        Err(_) => {
                            failed = true;
                            break;
                        }
                    }
                } else if lane.next < lane.mine.len()
                    && lane.pending.len() < WINDOW
                    && due(lane.mine[lane.next]) <= Instant::now()
                {
                    let i = lane.mine[lane.next];
                    lane.next += 1;
                    late[i] = Instant::now()
                        .saturating_duration_since(due(i))
                        .as_secs_f64()
                        * 1e3;
                    lane.pending.push_back(i);
                    lane.writing = Some((i, 0));
                } else {
                    break;
                }
            }
            if !failed && !lane.pending.is_empty() {
                match conn.read_available() {
                    Ok(true) => {
                        let now = Instant::now();
                        loop {
                            match conn.take_response() {
                                Ok(Some(Response { status, body })) => {
                                    let i = lane
                                        .pending
                                        .pop_front()
                                        .expect("a response answers a request");
                                    out[i] = Some(Outcome {
                                        lat_ms: now.saturating_duration_since(due(i)).as_secs_f64()
                                            * 1e3,
                                        late_ms: late[i],
                                        done_s: now.saturating_duration_since(start).as_secs_f64(),
                                        status,
                                        body,
                                    });
                                }
                                Ok(None) => break,
                                Err(_) => {
                                    failed = true;
                                    break;
                                }
                            }
                        }
                    }
                    Ok(false) => {}
                    Err(_) => failed = true,
                }
            }
            if failed {
                lane.conn = None;
                continue;
            }
            stalled_write |= lane.writing.is_some();
            if lane.next < lane.mine.len() && lane.pending.len() < WINDOW {
                wake = wake.min(due(lane.mine[lane.next]));
            }
        }
        let live = lanes
            .iter()
            .any(|l| l.conn.is_some() && (l.next < l.mine.len() || !l.pending.is_empty()));
        if !live {
            break;
        }
        let mut sleep = wake.saturating_duration_since(Instant::now());
        if stalled_write {
            sleep = sleep.min(STALLED_WRITE_RETRY);
        }
        let waiting: Vec<&Conn> = lanes
            .iter()
            .filter(|l| !l.pending.is_empty())
            .filter_map(|l| l.conn.as_ref())
            .collect();
        if waiting.is_empty() {
            std::thread::sleep(sleep);
        } else {
            wait_readable(&waiting, sleep);
        }
    }
    for lane in lanes {
        for i in lane
            .pending
            .into_iter()
            .chain(lane.mine[lane.next..].iter().copied())
        {
            out[i] = Some(Outcome {
                lat_ms: f64::INFINITY,
                late_ms: late[i],
                done_s: f64::INFINITY,
                status: 0,
                body: Vec::new(),
            });
        }
    }
    out.into_iter()
        .map(|o| o.expect("every request has an outcome"))
        .collect()
}

/// How soon the generator retries a write the socket did not take
/// whole.
const STALLED_WRITE_RETRY: Duration = Duration::from_micros(100);

/// A phase's offered and achieved rates and whether the backlog grew.
#[derive(Clone, Debug)]
pub struct Rates {
    pub offered: f64,
    pub achieved: f64,
    pub backlog_grew: bool,
}

pub fn rates(dues: &[f64], outs: &[Outcome]) -> Rates {
    let n = dues.len();
    let first = dues.first().copied().unwrap_or(0.0);
    let last_due = dues.last().copied().unwrap_or(0.0);
    let ok: Vec<&Outcome> = outs.iter().filter(|o| o.status == 200).collect();
    let last_done = ok.iter().map(|o| o.done_s).fold(first, f64::max);
    let offered = n as f64 / (last_due - first).max(1e-9);
    let achieved = ok.len() as f64 / (last_done - first).max(1e-9);
    let fifth = (n / 5).max(1);
    let p50 = |o: &[Outcome]| crate::stats::median(&o.iter().map(|x| x.lat_ms).collect::<Vec<_>>());
    let backlog_grew = p50(&outs[n - fifth..]) > p50(&outs[..fifth]) + P99_LIMIT_MS / 2.0;
    Rates {
        offered,
        achieved,
        backlog_grew,
    }
}

/// The simulated fields of a `/run` response: everything but the
/// per-model `source`, which depends on cache state.
pub fn simulated(resp: &Json) -> String {
    fn strip(v: &Json) -> Json {
        match v {
            Json::Object(fields) => Json::Object(
                fields
                    .iter()
                    .filter(|(k, _)| k != "source")
                    .map(|(k, v)| (k.clone(), strip(v)))
                    .collect(),
            ),
            Json::Array(items) => Json::Array(items.iter().map(strip).collect()),
            other => other.clone(),
        }
    }
    strip(resp).pretty()
}

/// One `/run` request replayed through the layers' public functions in
/// the order `repro serve` runs them: decode, program generation or
/// assembly parsing, the golden run, then per model the key, the
/// compile through cache and store, the machine and the golden check,
/// and finally the response render.  Returns the rendered response.
pub fn replay_request(
    t: &Tracer,
    body: &str,
    cache: &ArtifactCache,
    store: Option<&DiskStore>,
) -> Result<String, String> {
    let sim = t
        .time("serve.json.parse", || {
            SimRequest::from_body(body.as_bytes())
        })
        .map_err(|e| e.message().to_string())?;
    let out = {
        let _api = t.span("serve.api");
        let (name, train, eval) = match &sim.source {
            Source::Workload(w) => (
                w.clone(),
                gen(t, w, sim.train_seed, sim.size).program,
                gen(t, w, sim.eval_seed, sim.size).program,
            ),
            Source::Program(text) => {
                let p = t
                    .time("isa.parse", || parse_program(text))
                    .map_err(|e| format!("program parse error: {e}"))?;
                ("inline".to_string(), p.clone(), p)
            }
        };
        let budget = sim.budget(None);
        let scalar = golden(
            t,
            &eval,
            ScalarConfig {
                max_cycles: budget,
                ..ScalarConfig::default()
            },
        )
        .map_err(|e| format!("golden run: {e}"))?;
        let mut models = Vec::new();
        for &model in &sim.models {
            let req = CompileRequest {
                program: &eval,
                profile: ProfileSource::Train {
                    program: &train,
                    config: ScalarConfig::default(),
                },
                sched: SchedConfig::new(model),
            };
            let (art, source) = compile(t, &req, cache, store)?;
            let cfg = MachineConfig {
                max_cycles: budget,
                memory: sim.memory,
                ..MachineConfig::default()
            };
            let res = machine(t, &art, cfg).map_err(|e| format!("{model}: machine error: {e}"))?;
            if res.observable(&eval.live_out) != scalar.observable(&eval.live_out) {
                return Err(format!("{model}: diverged from the scalar golden model"));
            }
            models.push(Json::obj(vec![
                ("model", model.name().to_json()),
                ("source", source.name().to_json()),
                (
                    "content_hash",
                    Json::Str(format!("{:016x}", art.content_hash)),
                ),
                ("vliw_cycles", (res.cycles as i64).to_json()),
                (
                    "speedup",
                    (scalar.cycles as f64 / res.cycles as f64).to_json(),
                ),
                ("static_ops", art.program.static_ops().to_json()),
                ("squashed_ops", (res.ops_squashed as i64).to_json()),
                ("recoveries", (res.recoveries as i64).to_json()),
                ("stall_ifetch", (res.stall_ifetch as i64).to_json()),
                ("stall_load_miss", (res.stall_load_miss as i64).to_json()),
                ("icache_misses", (res.icache_misses as i64).to_json()),
                ("dcache_misses", (res.dcache_misses as i64).to_json()),
            ]));
        }
        Json::obj(vec![
            ("name", name.to_json()),
            ("size", sim.size.to_json()),
            ("train_seed", (sim.train_seed as i64).to_json()),
            ("eval_seed", (sim.eval_seed as i64).to_json()),
            ("budget", (budget as i64).to_json()),
            ("memory", Json::Str(sim.memory.to_string())),
            ("scalar_cycles", (scalar.cycles as i64).to_json()),
            ("models", Json::Array(models)),
        ])
    };
    Ok(t.time("serve.json.render", || out.pretty()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(seed: u64) -> Mix {
        Mix {
            seed,
            kernels: KERNELS.iter().map(|k| format!("; {k}\nhalt\n")).collect(),
        }
    }

    #[test]
    fn one_seed_gives_one_schedule() {
        assert_eq!(mix(5).stream(500), mix(5).stream(500));
        assert_eq!(mix(5).hot_keys(), mix(5).hot_keys());
        assert_eq!(arrivals(5, 1, 100.0, 300), arrivals(5, 1, 100.0, 300));
        assert_eq!(mix(5).stream(800)[..500], mix(5).stream(500)[..]);
    }

    #[test]
    fn another_seed_gives_another_schedule() {
        assert_ne!(mix(5).stream(500), mix(6).stream(500));
        assert_ne!(mix(5).hot_keys(), mix(6).hot_keys());
        assert_ne!(arrivals(5, 1, 100.0, 300), arrivals(6, 1, 100.0, 300));
    }

    #[test]
    fn every_block_has_the_stated_shares_and_the_same_keys() {
        let s = mix(9).stream(4 * BLOCK);
        let share =
            |f: &dyn Fn(&Req) -> bool| s.iter().filter(|r| f(r)).count() as f64 / s.len() as f64;
        assert_eq!(share(&|r| r.kind() == "fresh"), FRESH_SHARE);
        assert_eq!(share(&|r| r.kind() == "inline"), INLINE_SHARE);
        assert_eq!(share(&|r| r.kind() == "all"), ALL_SHARE);
        let sorted = |b: &[Req]| {
            let mut v: Vec<String> = b
                .iter()
                .filter(|r| !r.fresh)
                .map(|r| r.body.clone())
                .collect();
            v.sort();
            v
        };
        assert_eq!(sorted(&s[..BLOCK]), sorted(&s[3 * BLOCK..]));
        assert_ne!(s[..BLOCK], s[3 * BLOCK..]);
    }

    #[test]
    fn arrivals_run_at_the_asked_rate() {
        let a = arrivals(3, 2, 200.0, 4000);
        let rate = a.len() as f64 / a.last().unwrap();
        assert!((rate - 200.0).abs() < 10.0, "{rate}");
    }
}
