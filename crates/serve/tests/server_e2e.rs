//! End-to-end tests of the simulation server on ephemeral ports: the
//! mixed-workload status-code contract (cold, hot, over-budget,
//! malformed, unknown routes), byte-stable deterministic response
//! bodies at any `--jobs`, exact cache hit/miss accounting on
//! `/metrics`, admission-queue rejection, the disk-store restart path,
//! and keep-alive latency from both the server's and the load
//! generator's side of a connection.

use psb_serve::http::{read_response, write_request, Response};
use psb_serve::json::Json;
use psb_serve::{run_loadgen, serve, LoadgenConfig, ServeConfig, ServeHandle};
use std::io::BufReader;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "psb_serve_e2e_{}_{}_{tag}",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn boot(config: ServeConfig) -> ServeHandle {
    serve(config).expect("server boots on an ephemeral port")
}

/// One request over a fresh connection (simplest for tests; keep-alive
/// reuse is covered by the two delayed-ACK tests at the end).
fn call(handle: &ServeHandle, method: &str, target: &str, body: &[u8]) -> Response {
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    write_request(&mut stream, method, target, body).expect("send");
    read_response(&mut reader).expect("response")
}

fn body_json(resp: &Response) -> Json {
    Json::parse(std::str::from_utf8(&resp.body).expect("utf-8 body")).expect("json body")
}

fn run_body(workload: &str, model: &str, size: u64) -> Vec<u8> {
    format!("{{\"workload\": \"{workload}\", \"models\": [\"{model}\"], \"size\": {size}}}")
        .into_bytes()
}

/// The `models[].source` fields of a /run response, in request order.
fn sources(doc: &Json) -> Vec<String> {
    doc.get("models")
        .and_then(Json::as_array)
        .expect("models array")
        .iter()
        .map(|m| {
            m.get("source")
                .and_then(Json::as_str)
                .expect("source field")
                .to_string()
        })
        .collect()
}

fn counter(metrics: &Json, name: &str) -> i64 {
    metrics
        .get("counters")
        .and_then(Json::as_array)
        .expect("counters")
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
        .and_then(|c| c.get("value"))
        .and_then(Json::as_i64)
        .unwrap_or(0)
}

#[test]
fn mixed_workload_contract_and_exact_cache_accounting() {
    let handle = boot(ServeConfig {
        jobs: 2,
        deterministic: true,
        ..ServeConfig::default()
    });

    // Health first.
    let health = call(&handle, "GET", "/healthz", b"");
    assert_eq!(health.status, 200);
    assert_eq!(
        body_json(&health).get("status").and_then(Json::as_str),
        Some("ok")
    );

    // Cache-cold run: both layers miss, the pipeline compiles.
    let cold = call(
        &handle,
        "POST",
        "/run",
        &run_body("grep", "region-pred", 96),
    );
    assert_eq!(cold.status, 200, "{}", String::from_utf8_lossy(&cold.body));
    let cold_doc = body_json(&cold);
    assert_eq!(sources(&cold_doc), ["compiled"]);
    assert!(
        cold_doc
            .get("scalar_cycles")
            .and_then(Json::as_i64)
            .unwrap()
            > 0
    );
    let speedup = cold_doc.get("models").and_then(Json::as_array).unwrap()[0]
        .get("speedup")
        .and_then(Json::as_f64)
        .expect("speedup");
    assert!(speedup > 0.0);

    // Cache-hot: identical shape, served from memory, identical rows.
    let hot = call(
        &handle,
        "POST",
        "/run",
        &run_body("grep", "region-pred", 96),
    );
    assert_eq!(hot.status, 200);
    let hot_doc = body_json(&hot);
    assert_eq!(sources(&hot_doc), ["memory"]);
    assert_eq!(
        hot_doc.get("scalar_cycles").and_then(Json::as_i64),
        cold_doc.get("scalar_cycles").and_then(Json::as_i64)
    );

    // Over-budget: rejected 503 before any cache/store perturbation.
    let over = call(
        &handle,
        "POST",
        "/run",
        b"{\"workload\": \"li\", \"models\": [\"trace\"], \"size\": 96, \"max_cycles\": 1}",
    );
    assert_eq!(over.status, 503, "{}", String::from_utf8_lossy(&over.body));
    let over_doc = body_json(&over);
    assert_eq!(
        over_doc.get("kind").and_then(Json::as_str),
        Some("over_budget")
    );
    assert_eq!(
        over.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("retry-after"))
            .map(|(_, v)| v.as_str()),
        Some("1"),
        "503 must carry Retry-After"
    );

    // Malformed JSON: a client error, connection stays usable.
    let bad = call(&handle, "POST", "/run", b"{\"workload\": ");
    assert_eq!(bad.status, 400);
    assert_eq!(
        body_json(&bad).get("kind").and_then(Json::as_str),
        Some("bad_request")
    );

    // Unknown workload: also a client error.
    let nope = call(&handle, "POST", "/run", &run_body("nope", "trace", 96));
    assert_eq!(nope.status, 400);

    // Routing: unknown path and wrong methods.
    assert_eq!(call(&handle, "GET", "/nope", b"").status, 404);
    assert_eq!(call(&handle, "GET", "/run", b"").status, 405);
    assert_eq!(call(&handle, "POST", "/healthz", b"x").status, 405);

    // Exact accounting: one compile (the cold run), one memory hit (the
    // hot run).  The over-budget and malformed requests must not have
    // touched the cache.
    let metrics = body_json(&call(&handle, "GET", "/metrics", b""));
    let cache = metrics.get("cache").expect("cache block");
    assert_eq!(cache.get("misses").and_then(Json::as_i64), Some(1));
    assert_eq!(cache.get("hits").and_then(Json::as_i64), Some(1));
    assert_eq!(counter(&metrics, "serve.cache.compiles"), 1);
    assert_eq!(counter(&metrics, "serve.cache.memory_hits"), 1);
    assert_eq!(counter(&metrics, "serve.rejected.over_budget"), 1);
    assert_eq!(counter(&metrics, "serve.responses.503"), 1);
    assert_eq!(counter(&metrics, "serve.responses.400"), 2);
    assert_eq!(counter(&metrics, "serve.requests.run"), 5);

    handle.shutdown();
}

#[test]
fn deterministic_responses_are_byte_identical_at_any_jobs() {
    // The same request sequence against a --jobs 1 and a --jobs 4 server
    // must produce byte-identical bodies: model rows are reassembled in
    // request order, wall values are zeroed, and cache state follows the
    // same cold→hot progression.
    let sequence: Vec<(&str, &str, Vec<u8>)> = vec![
        ("POST", "/run", run_body("grep", "region-pred", 96)),
        (
            "POST",
            "/run",
            b"{\"workload\": \"li\", \"models\": \"all\", \"size\": 96, \"trace\": true}".to_vec(),
        ),
        ("POST", "/run", run_body("grep", "region-pred", 96)),
        ("POST", "/compile", run_body("li", "trace", 96)),
        ("POST", "/run", b"{\"workload\": ".to_vec()),
        ("GET", "/metrics", Vec::new()),
    ];
    let drive = |jobs: usize| -> Vec<(u16, Vec<u8>)> {
        let handle = boot(ServeConfig {
            jobs,
            deterministic: true,
            ..ServeConfig::default()
        });
        let out = sequence
            .iter()
            .map(|(method, target, body)| {
                let resp = call(&handle, method, target, body);
                (resp.status, resp.body.clone())
            })
            .collect();
        handle.shutdown();
        out
    };
    let one = drive(1);
    let four = drive(4);
    assert_eq!(one.len(), four.len());
    for (i, (a, b)) in one.iter().zip(&four).enumerate() {
        assert_eq!(a.0, b.0, "request {i}: status differs");
        assert_eq!(
            String::from_utf8_lossy(&a.1),
            String::from_utf8_lossy(&b.1),
            "request {i}: body differs between --jobs 1 and --jobs 4"
        );
    }
    // The traced request really carried a trace.
    let traced = Json::parse(std::str::from_utf8(&one[1].1).unwrap()).unwrap();
    assert!(
        traced
            .get("trace")
            .and_then(Json::as_array)
            .is_some_and(|t| !t.is_empty()),
        "trace events expected"
    );
    // All seven models ran, in canonical order.
    assert_eq!(
        traced
            .get("models")
            .and_then(Json::as_array)
            .map(<[Json]>::len),
        Some(7)
    );
}

#[test]
fn server_cycle_budget_caps_every_request() {
    let handle = boot(ServeConfig {
        cycle_budget: Some(1),
        deterministic: true,
        ..ServeConfig::default()
    });
    // The request asked for plenty, but the server-wide cap wins.
    let over = call(
        &handle,
        "POST",
        "/run",
        b"{\"workload\": \"grep\", \"size\": 96, \"max_cycles\": 1000000}",
    );
    assert_eq!(over.status, 503);
    assert_eq!(
        body_json(&over).get("kind").and_then(Json::as_str),
        Some("over_budget")
    );
    // /compile has no cycle budget: it never runs the machine.
    let compiled = call(&handle, "POST", "/compile", &run_body("grep", "trace", 96));
    assert_eq!(
        compiled.status,
        200,
        "{}",
        String::from_utf8_lossy(&compiled.body)
    );
    let metrics = body_json(&call(&handle, "GET", "/metrics", b""));
    assert_eq!(counter(&metrics, "serve.rejected.over_budget"), 1);
    handle.shutdown();
}

#[test]
fn queue_saturation_rejects_inline_with_retry_after() {
    // jobs=1, queue_depth=1: occupy the single worker with an idle
    // keep-alive connection, fill the queue with a second, and the third
    // connection must be rejected by the acceptor itself.
    let handle = boot(ServeConfig {
        jobs: 1,
        queue_depth: 1,
        deterministic: true,
        ..ServeConfig::default()
    });
    // Worker-occupying connection: the worker pops it and blocks in
    // read_request waiting for bytes that never come.
    let occupant = TcpStream::connect(handle.addr()).expect("occupant connects");
    std::thread::sleep(Duration::from_millis(100));
    // Queue-filling connection.
    let queued = TcpStream::connect(handle.addr()).expect("queued connects");
    std::thread::sleep(Duration::from_millis(100));
    // Overflow: the acceptor answers 503 without reading a request.
    let overflow = TcpStream::connect(handle.addr()).expect("overflow connects");
    let mut reader = BufReader::new(overflow.try_clone().expect("clone"));
    let resp = read_response(&mut reader).expect("inline 503");
    assert_eq!(resp.status, 503);
    let doc = body_json(&resp);
    assert_eq!(doc.get("kind").and_then(Json::as_str), Some("queue_full"));
    assert_eq!(
        resp.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case("retry-after"))
            .map(|(_, v)| v.as_str()),
        Some("1")
    );
    drop(occupant);
    drop(queued);
    // After the stall clears, service resumes for new connections.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(call(&handle, "GET", "/healthz", b"").status, 200);
    let metrics = body_json(&call(&handle, "GET", "/metrics", b""));
    assert_eq!(counter(&metrics, "serve.rejected.queue_full"), 1);
    handle.shutdown();
}

#[test]
fn stalled_clients_are_dropped_after_the_read_timeout() {
    let handle = boot(ServeConfig {
        jobs: 1,
        read_timeout_ms: 150,
        deterministic: true,
        ..ServeConfig::default()
    });
    // A client that connects and never sends a byte would pin the single
    // worker forever without the timeout.
    let stalled = TcpStream::connect(handle.addr()).expect("stalled connects");
    let mut reader = BufReader::new(stalled.try_clone().expect("clone"));
    // The server must close the connection silently (EOF, no response).
    let got = read_response(&mut reader);
    assert!(got.is_err(), "expected a dropped connection, got {got:?}");
    drop(stalled);
    // The worker is free again: ordinary service resumes.
    assert_eq!(call(&handle, "GET", "/healthz", b"").status, 200);
    let metrics = body_json(&call(&handle, "GET", "/metrics", b""));
    assert_eq!(counter(&metrics, "serve.read_timeouts"), 1);
    handle.shutdown();
}

#[test]
fn cache_memory_model_requests_run_and_report_misses() {
    let handle = boot(ServeConfig {
        deterministic: true,
        ..ServeConfig::default()
    });
    let body = b"{\"workload\": \"grep\", \"models\": [\"region-pred\"], \"size\": 96, \
                  \"memory\": {\"icache\": \"8x1x2x1x4\", \"dcache\": \"4x2x2x1x6\"}}";
    let resp = call(&handle, "POST", "/run", body);
    assert_eq!(resp.status, 200, "{}", String::from_utf8_lossy(&resp.body));
    let doc = body_json(&resp);
    assert_eq!(
        doc.get("memory").and_then(Json::as_str),
        Some("cache:8x1x2x1x4:4x2x2x1x6")
    );
    let m = &doc.get("models").and_then(Json::as_array).expect("models")[0];
    assert!(m.get("icache_misses").and_then(Json::as_i64).unwrap() > 0);
    assert!(m.get("stall_ifetch").and_then(Json::as_i64).unwrap() > 0);

    // A bad spec is a 400, not a worker panic.
    let bad = call(
        &handle,
        "POST",
        "/run",
        b"{\"workload\": \"grep\", \"memory\": \"slow\"}",
    );
    assert_eq!(bad.status, 400);
    assert!(String::from_utf8_lossy(&bad.body).contains("'memory'"));
    handle.shutdown();
}

#[test]
fn disk_store_survives_a_server_restart() {
    let dir = scratch("restart");
    let config = ServeConfig {
        store: Some(dir.clone()),
        deterministic: true,
        ..ServeConfig::default()
    };

    // First server: cold compile, persisted to disk.
    let first = boot(config.clone());
    let cold = call(&first, "POST", "/run", &run_body("grep", "region-pred", 96));
    assert_eq!(cold.status, 200);
    let cold_doc = body_json(&cold);
    assert_eq!(sources(&cold_doc), ["compiled"]);
    let metrics = body_json(&call(&first, "GET", "/metrics", b""));
    let store = metrics.get("store").expect("store block");
    assert_eq!(store.get("writes").and_then(Json::as_i64), Some(1));
    first.shutdown();

    // Second server over the same directory: memory cache is cold, but
    // the artifact fills from disk — no recompile.
    let second = boot(config);
    let warm = call(
        &second,
        "POST",
        "/run",
        &run_body("grep", "region-pred", 96),
    );
    assert_eq!(warm.status, 200);
    let warm_doc = body_json(&warm);
    assert_eq!(sources(&warm_doc), ["disk"]);
    // Simulated results are identical either way.
    assert_eq!(
        warm_doc.get("scalar_cycles").and_then(Json::as_i64),
        cold_doc.get("scalar_cycles").and_then(Json::as_i64)
    );
    let metrics = body_json(&call(&second, "GET", "/metrics", b""));
    let store = metrics.get("store").expect("store block");
    assert_eq!(store.get("hits").and_then(Json::as_i64), Some(1));
    assert_eq!(store.get("writes").and_then(Json::as_i64), Some(0));
    assert_eq!(counter(&metrics, "serve.cache.disk_hits"), 1);
    assert_eq!(counter(&metrics, "serve.cache.compiles"), 0);
    second.shutdown();
}

#[test]
fn keep_alive_responses_are_not_held_for_a_delayed_ack() {
    // A response is two writes, head then body.  If the server left
    // Nagle's algorithm on, the body would wait for the client's ACK of
    // the head, which the client delays by up to 40 ms when it has
    // nothing to send: about 40 ms per request on a kept-alive
    // connection.  Nagle stays on at this client, as at any client that
    // never sets TCP_NODELAY.
    let handle = boot(ServeConfig::default());
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut stream = stream;
    let started = Instant::now();
    for i in 0..20 {
        write_request(&mut stream, "GET", "/healthz", b"").expect("send");
        let resp = read_response(&mut reader).expect("response");
        assert_eq!(resp.status, 200, "request {i}");
    }
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_millis(400),
        "20 keep-alive requests took {elapsed:?}"
    );
    // The only worker is still reading this connection; close it so
    // that shutdown need not wait out the read timeout.
    drop((reader, stream));
    handle.shutdown();
}

#[test]
fn loadgen_requests_are_not_held_for_a_delayed_ack() {
    // The load generator's requests are two writes as well, so its own
    // connections must not hold a body for the server's delayed ACK; and
    // its warm-phase connection must be closed before the mix phase, or
    // it holds this single worker until the read timeout.
    let handle = boot(ServeConfig::default());
    let report = run_loadgen(&LoadgenConfig {
        addr: handle.addr().to_string(),
        requests: 40,
        jobs: 1,
        deterministic: false,
        ..LoadgenConfig::default()
    })
    .expect("loadgen runs");
    assert_eq!(report.get("failed").and_then(Json::as_i64), Some(0));
    let p99 = report
        .get("mix")
        .and_then(|m| m.get("latency_s"))
        .and_then(|l| l.get("p99"))
        .and_then(Json::as_f64)
        .expect("mix p99");
    assert!(p99 <= 0.02, "mix p99 {p99} s");
    handle.shutdown();
}
