//! Request decoding and execution: JSON in, compile + golden-checked
//! simulation out.
//!
//! The execution path is the same pipeline the experiment harness runs —
//! [`psb_compile::compile_stored`] through the shared [`ArtifactCache`]
//! and optional [`DiskStore`], then the VLIW machine cross-checked
//! against the scalar golden model — wrapped in typed errors instead of
//! panics so a bad request can never take a worker thread down.

use crate::json::{Json, ToJson};
use psb_compile::{
    compile_trained, ArtifactCache, ArtifactSource, DiskStore, PointError, PointJob,
};
use psb_core::{MachineConfig, MemoryModel, VliwError};
use psb_isa::{parse_program, ScalarProgram};
use psb_scalar::{RunError, ScalarConfig};
use psb_sched::{Model, SchedConfig};
use psb_telemetry::{names, parallel_map_t, Telemetry};

/// The largest workload `size` a request may ask for.  A workload's
/// generation costs time and memory linear in its size before any cycle
/// budget applies; every size in use (96 to 2048) is far below this.
const MAX_SIZE: usize = 65_536;

/// Where a request's programs come from.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Source {
    /// A named built-in workload; training and evaluation inputs are
    /// generated from the two seeds.
    Workload(String),
    /// Inline assembly text.  The program self-trains: the profile run
    /// executes the same program that is then measured.
    Program(String),
}

/// One decoded simulation request.
#[derive(Clone, PartialEq, Debug)]
pub struct SimRequest {
    /// Program source.
    pub source: Source,
    /// Models to compile and (for `/run`) execute.
    pub models: Vec<Model>,
    /// Workload size in input elements (ignored for inline programs).
    pub size: usize,
    /// Seed for the training input.
    pub train_seed: u64,
    /// Seed for the evaluation input.
    pub eval_seed: u64,
    /// Per-request simulated-cycle budget; the server may cap it lower.
    pub max_cycles: Option<u64>,
    /// Whether to return a Chrome-trace timeline of the request.
    pub trace: bool,
    /// Timing model the simulation runs under.  Never part of the
    /// compile cache key — artifacts are timing-model independent.
    pub memory: MemoryModel,
}

/// Why a request was refused, mapped onto a status code by the server.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ApiError {
    /// Client error → 400 (malformed JSON, unknown workload/model,
    /// unparsable program, faulting program).
    BadRequest(String),
    /// The simulation exceeded its cycle budget → 503.
    OverBudget(String),
    /// Pipeline bug surfaced by a request (compile failure on a valid
    /// program, golden-model divergence) → 500.
    Internal(String),
}

impl ApiError {
    /// The HTTP status this error maps to.
    pub fn status(&self) -> u16 {
        match self {
            ApiError::BadRequest(_) => 400,
            ApiError::OverBudget(_) => 503,
            ApiError::Internal(_) => 500,
        }
    }

    /// The machine-readable error kind for the response body.
    pub fn kind(&self) -> &'static str {
        match self {
            ApiError::BadRequest(_) => "bad_request",
            ApiError::OverBudget(_) => "over_budget",
            ApiError::Internal(_) => "internal",
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            ApiError::BadRequest(m) | ApiError::OverBudget(m) | ApiError::Internal(m) => m,
        }
    }

    /// The JSON error body (`{"error": ..., "kind": ...}`).
    pub fn body(&self) -> Json {
        Json::obj(vec![
            ("error", self.message().to_json()),
            ("kind", Json::Str(self.kind().to_string())),
        ])
    }
}

fn bad(msg: impl Into<String>) -> ApiError {
    ApiError::BadRequest(msg.into())
}

fn get_u64(obj: &Json, key: &str, default: u64) -> Result<u64, ApiError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_i64()
            .filter(|&n| n >= 0)
            .map(|n| n as u64)
            .ok_or_else(|| bad(format!("'{key}' must be a non-negative integer"))),
    }
}

/// Decodes the optional `"memory"` field: a spec string
/// (`"perfect"`, `"fixed:LOAD:FETCH"`, `"cache[:I:D]"`) or an object
/// `{"icache": SPEC|"off", "dcache": SPEC|"off"}` naming a cache model
/// side by side.  Absent means [`MemoryModel::Perfect`] — the
/// pre-refactor timing.
fn parse_memory(v: &Json) -> Result<MemoryModel, ApiError> {
    let model = match v.get("memory") {
        None => return Ok(MemoryModel::default()),
        Some(Json::Str(spec)) => {
            MemoryModel::parse(spec).map_err(|e| bad(format!("'memory': {e}")))?
        }
        Some(obj @ Json::Object(_)) => {
            let side = |key: &str| -> Result<String, ApiError> {
                match obj.get(key) {
                    None => Ok("off".to_string()),
                    Some(Json::Str(s)) => Ok(s.clone()),
                    Some(_) => Err(bad(format!(
                        "'memory.{key}' must be a cache spec string or \"off\""
                    ))),
                }
            };
            let spec = format!("cache:{}:{}", side("icache")?, side("dcache")?);
            MemoryModel::parse(&spec).map_err(|e| bad(format!("'memory': {e}")))?
        }
        Some(_) => return Err(bad("'memory' must be a spec string or an object")),
    };
    model
        .validate()
        .map_err(|e| bad(format!("'memory': {e}")))?;
    Ok(model)
}

impl SimRequest {
    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] describing the first violation found.
    pub fn from_json(v: &Json) -> Result<SimRequest, ApiError> {
        if !matches!(v, Json::Object(_)) {
            return Err(bad("request body must be a JSON object"));
        }
        let source = match (v.get("workload"), v.get("program")) {
            (Some(w), None) => Source::Workload(
                w.as_str()
                    .ok_or_else(|| bad("'workload' must be a string"))?
                    .to_string(),
            ),
            (None, Some(p)) => Source::Program(
                p.as_str()
                    .ok_or_else(|| bad("'program' must be a string"))?
                    .to_string(),
            ),
            (Some(_), Some(_)) => return Err(bad("give either 'workload' or 'program', not both")),
            (None, None) => return Err(bad("request needs a 'workload' name or a 'program'")),
        };
        let models = match v.get("models") {
            None => vec![Model::RegionPred],
            Some(Json::Str(s)) if s == "all" => Model::ALL.to_vec(),
            Some(Json::Array(items)) if !items.is_empty() => items
                .iter()
                .map(|m| {
                    let name = m
                        .as_str()
                        .ok_or_else(|| bad("'models' entries must be strings"))?;
                    Model::from_name(name).ok_or_else(|| bad(format!("unknown model '{name}'")))
                })
                .collect::<Result<Vec<Model>, ApiError>>()?,
            Some(_) => {
                return Err(bad(
                    "'models' must be \"all\" or a non-empty array of names",
                ))
            }
        };
        let size = get_u64(v, "size", psb_workloads::DEFAULT_SIZE as u64)?;
        if size > MAX_SIZE as u64 {
            return Err(bad(format!("'size' must be at most {MAX_SIZE}")));
        }
        let max_cycles = match v.get("max_cycles") {
            None => None,
            Some(_) => Some(get_u64(v, "max_cycles", 0)?),
        };
        Ok(SimRequest {
            source,
            models,
            size: size as usize,
            train_seed: get_u64(v, "train_seed", 11)?,
            eval_seed: get_u64(v, "eval_seed", 1234)?,
            max_cycles,
            trace: matches!(v.get("trace"), Some(Json::Bool(true))),
            memory: parse_memory(v)?,
        })
    }

    /// Decodes a request straight from body bytes (`400` text for both
    /// invalid UTF-8 and malformed JSON, with the parser's offset).
    ///
    /// # Errors
    ///
    /// [`ApiError::BadRequest`] for undecodable bodies.
    pub fn from_body(body: &[u8]) -> Result<SimRequest, ApiError> {
        let text = std::str::from_utf8(body).map_err(|_| bad("request body is not UTF-8"))?;
        let v = Json::parse(text).map_err(|e| bad(format!("malformed JSON: {e}")))?;
        SimRequest::from_json(&v)
    }

    /// The effective simulated-cycle budget: the request's ask capped by
    /// the server's `--cycle-budget`, defaulting to the machine's own
    /// limit when neither is given.
    pub fn budget(&self, server_cap: Option<u64>) -> u64 {
        let default = MachineConfig::default().max_cycles;
        let asked = self.max_cycles.unwrap_or(default);
        asked.min(server_cap.unwrap_or(default)).max(1)
    }
}

/// The resolved training and evaluation programs of a request.
struct Programs {
    name: String,
    train: ScalarProgram,
    eval: ScalarProgram,
}

fn resolve(req: &SimRequest) -> Result<Programs, ApiError> {
    match &req.source {
        Source::Workload(name) => {
            let train = psb_workloads::by_name(name, req.train_seed, req.size)
                .ok_or_else(|| bad(format!("unknown workload '{name}'")))?;
            let eval = psb_workloads::by_name(name, req.eval_seed, req.size)
                .ok_or_else(|| bad(format!("unknown workload '{name}'")))?;
            Ok(Programs {
                name: name.clone(),
                train: train.program,
                eval: eval.program,
            })
        }
        Source::Program(text) => {
            let program =
                parse_program(text).map_err(|e| bad(format!("program parse error: {e}")))?;
            Ok(Programs {
                name: "inline".to_string(),
                train: program.clone(),
                eval: program,
            })
        }
    }
}

/// Maps a failed point step of `model` (`None` for the golden run) onto
/// the status the server returns: a budget overrun is a 503, a program
/// the scalar machine rejects is the client's fault, and anything else
/// is a pipeline bug.
fn point_error(model: Option<Model>, e: PointError) -> ApiError {
    let m = model.map_or(String::new(), |m| format!("{m}: "));
    match e {
        PointError::Scalar(RunError::CycleLimit(n)) => {
            ApiError::OverBudget(format!("scalar golden run exceeded the {n}-cycle budget"))
        }
        PointError::Scalar(e) => bad(format!("program faults on the scalar machine: {e}")),
        PointError::Compile(e) => ApiError::Internal(format!("{m}compile failed: {e}")),
        PointError::Machine(VliwError::CycleLimit(n)) => {
            ApiError::OverBudget(format!("{m}simulation exceeded the {n}-cycle budget"))
        }
        PointError::Machine(e) => ApiError::Internal(format!("{m}machine error: {e}")),
        PointError::Diverged(_) => {
            ApiError::Internal(format!("{m}diverged from the scalar golden model"))
        }
    }
}

fn count_cache_outcome<T: Telemetry>(tel: &T, source: ArtifactSource) {
    let name = match source {
        ArtifactSource::Memory => names::SERVE_CACHE_MEMORY_HITS,
        ArtifactSource::Disk => names::SERVE_CACHE_DISK_HITS,
        ArtifactSource::Compiled => names::SERVE_CACHE_COMPILES,
    };
    tel.counter(name, 1);
}

/// Executes a `/run` request: golden scalar run, then every model
/// compiled through the cache hierarchy and simulated with the golden
/// cross-check.  Model runs fan out over `jobs` pool workers.
///
/// # Errors
///
/// [`ApiError`] — never panics on request content.
pub fn handle_run<T: Telemetry>(
    req: &SimRequest,
    cache: &ArtifactCache,
    store: Option<&DiskStore>,
    server_cap: Option<u64>,
    jobs: usize,
    tel: &T,
) -> Result<Json, ApiError> {
    let programs = resolve(req)?;
    let budget = req.budget(server_cap);
    // The golden run is budget-checked *before* any compile so an
    // over-budget request never perturbs cache or store state: its
    // rejection (and every counter it touches) is identical whether the
    // artifact is cached or not.
    let job = {
        let _sp = tel.span("serve", || format!("golden:{}", programs.name));
        let golden = ScalarConfig {
            max_cycles: budget,
            ..ScalarConfig::default()
        };
        PointJob::new(&programs.eval, Some(&programs.train), golden)
            .map_err(|e| point_error(None, e))?
    };
    let outcomes = parallel_map_t(
        &req.models,
        jobs,
        tel,
        |_, m| format!("run:{}:{m}", programs.name),
        |&model| -> Result<Json, ApiError> {
            let (art, source) = job
                .compile(SchedConfig::new(model), cache, store, tel)
                .map_err(|e| point_error(Some(model), e))?;
            count_cache_outcome(tel, source);
            let cfg = MachineConfig {
                memory: req.memory,
                ..MachineConfig::default()
            };
            let res = job
                .run(&art, cfg)
                .map_err(|e| point_error(Some(model), e))?;
            let speedup = job.golden().cycles as f64 / res.cycles as f64;
            Ok(Json::obj(vec![
                ("model", model.name().to_json()),
                ("source", source.name().to_json()),
                (
                    "content_hash",
                    Json::Str(format!("{:016x}", art.content_hash)),
                ),
                ("vliw_cycles", (res.cycles as i64).to_json()),
                ("speedup", speedup.to_json()),
                ("static_ops", art.program.static_ops().to_json()),
                ("squashed_ops", (res.ops_squashed as i64).to_json()),
                ("recoveries", (res.recoveries as i64).to_json()),
                ("stall_ifetch", (res.stall_ifetch as i64).to_json()),
                ("stall_load_miss", (res.stall_load_miss as i64).to_json()),
                ("icache_misses", (res.icache_misses as i64).to_json()),
                ("dcache_misses", (res.dcache_misses as i64).to_json()),
            ]))
        },
    );
    let models = outcomes.into_iter().collect::<Result<Vec<Json>, _>>()?;
    Ok(Json::obj(vec![
        ("name", programs.name.to_json()),
        ("size", req.size.to_json()),
        ("train_seed", (req.train_seed as i64).to_json()),
        ("eval_seed", (req.eval_seed as i64).to_json()),
        ("budget", (budget as i64).to_json()),
        ("memory", Json::Str(req.memory.to_string())),
        ("scalar_cycles", (job.golden().cycles as i64).to_json()),
        ("models", Json::Array(models)),
    ]))
}

/// Executes a `/compile` request: compile every model through the cache
/// hierarchy, no simulation, no budget (budgets gate *runs* so they
/// never leak into cache keys or artifact state).
///
/// # Errors
///
/// [`ApiError`] — never panics on request content.
pub fn handle_compile<T: Telemetry>(
    req: &SimRequest,
    cache: &ArtifactCache,
    store: Option<&DiskStore>,
    jobs: usize,
    tel: &T,
) -> Result<Json, ApiError> {
    let programs = resolve(req)?;
    let outcomes = parallel_map_t(
        &req.models,
        jobs,
        tel,
        |_, m| format!("compile:{}:{m}", programs.name),
        |&model| -> Result<Json, ApiError> {
            let (art, source) = compile_trained(
                &programs.eval,
                &programs.train,
                SchedConfig::new(model),
                cache,
                store,
                tel,
            )
            .map_err(|e| point_error(Some(model), e))?;
            count_cache_outcome(tel, source);
            Ok(Json::obj(vec![
                ("model", model.name().to_json()),
                ("source", source.name().to_json()),
                (
                    "content_hash",
                    Json::Str(format!("{:016x}", art.content_hash)),
                ),
                ("words", art.program.words.len().to_json()),
                ("static_ops", art.program.static_ops().to_json()),
            ]))
        },
    );
    let models = outcomes.into_iter().collect::<Result<Vec<Json>, _>>()?;
    Ok(Json::obj(vec![
        ("name", programs.name.to_json()),
        ("size", req.size.to_json()),
        ("models", Json::Array(models)),
    ]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_telemetry::NullTelemetry;

    fn decode(text: &str) -> Result<SimRequest, ApiError> {
        SimRequest::from_body(text.as_bytes())
    }

    #[test]
    fn decodes_a_full_request() {
        let req = decode(
            r#"{"workload": "grep", "models": ["region-pred", "trace"],
                "size": 96, "train_seed": 3, "eval_seed": 4,
                "max_cycles": 500, "trace": true}"#,
        )
        .unwrap();
        assert_eq!(req.source, Source::Workload("grep".to_string()));
        assert_eq!(req.models, vec![Model::RegionPred, Model::Trace]);
        assert_eq!((req.size, req.train_seed, req.eval_seed), (96, 3, 4));
        assert_eq!(req.max_cycles, Some(500));
        assert!(req.trace);
    }

    #[test]
    fn defaults_fill_in_missing_fields() {
        let req = decode(r#"{"workload": "grep"}"#).unwrap();
        assert_eq!(req.models, vec![Model::RegionPred]);
        assert_eq!(req.size, psb_workloads::DEFAULT_SIZE);
        assert_eq!((req.train_seed, req.eval_seed), (11, 1234));
        assert_eq!(req.max_cycles, None);
        assert!(!req.trace);
        let all = decode(r#"{"workload": "grep", "models": "all"}"#).unwrap();
        assert_eq!(all.models.len(), Model::ALL.len());
    }

    #[test]
    fn rejects_contradictory_and_malformed_requests() {
        for (body, needle) in [
            (r#"{"workload": "grep", "program": "x"}"#, "not both"),
            (r#"{"size": 5}"#, "'workload'"),
            (r#"{"workload": "grep", "models": []}"#, "'models'"),
            (
                r#"{"workload": "grep", "models": ["nope"]}"#,
                "unknown model",
            ),
            (r#"{"workload": "grep", "size": -3}"#, "'size'"),
            (r#"{"workload": "grep", "size": 65537}"#, "'size'"),
            (r#"{"workload": 7}"#, "'workload' must be a string"),
            (r#"[1, 2]"#, "JSON object"),
            (r#"{"workload": "grep""#, "malformed JSON"),
        ] {
            let err = decode(body).expect_err(body);
            assert_eq!(err.status(), 400, "{body}");
            assert!(err.message().contains(needle), "{body}: {}", err.message());
        }
    }

    #[test]
    fn memory_field_decodes_specs_objects_and_rejects_bad_ones() {
        let req = decode(r#"{"workload": "grep"}"#).unwrap();
        assert_eq!(req.memory, MemoryModel::Perfect);
        let req = decode(r#"{"workload": "grep", "memory": "fixed:3:2"}"#).unwrap();
        assert_eq!(req.memory, MemoryModel::FixedLatency { load: 3, fetch: 2 });
        let req = decode(
            r#"{"workload": "grep",
                "memory": {"icache": "8x1x2x1x4", "dcache": "4x2x2x1x6"}}"#,
        )
        .unwrap();
        assert!(matches!(
            req.memory,
            MemoryModel::Cache {
                icache: Some(_),
                dcache: Some(_)
            }
        ));
        let req = decode(r#"{"workload": "grep", "memory": {"dcache": "64x2x4x1x10"}}"#).unwrap();
        assert!(matches!(
            req.memory,
            MemoryModel::Cache {
                icache: None,
                dcache: Some(_)
            }
        ));
        for (body, needle) in [
            (r#"{"workload": "grep", "memory": "slow"}"#, "'memory'"),
            (r#"{"workload": "grep", "memory": 7}"#, "'memory'"),
            (
                r#"{"workload": "grep", "memory": {"icache": 3}}"#,
                "'memory.icache'",
            ),
            (
                r#"{"workload": "grep", "memory": {"dcache": "0x1x1x1x1"}}"#,
                "'memory'",
            ),
        ] {
            let err = decode(body).expect_err(body);
            assert_eq!(err.status(), 400, "{body}");
            assert!(err.message().contains(needle), "{body}: {}", err.message());
        }
    }

    #[test]
    fn run_under_a_cache_model_reports_misses_and_matches_golden() {
        let cache = ArtifactCache::new();
        let req = decode(
            r#"{"workload": "grep", "size": 96, "models": ["region-pred"],
                "memory": {"icache": "8x1x2x1x4", "dcache": "4x2x2x1x6"}}"#,
        )
        .unwrap();
        let out = handle_run(&req, &cache, None, None, 1, &NullTelemetry).unwrap();
        assert_eq!(
            out.get("memory").and_then(|m| m.as_str()),
            Some("cache:8x1x2x1x4:4x2x2x1x6")
        );
        let models = out.get("models").and_then(|m| m.as_array()).unwrap();
        let m = &models[0];
        assert!(m.get("icache_misses").and_then(|v| v.as_i64()).unwrap() > 0);
        assert!(m.get("stall_ifetch").and_then(|v| v.as_i64()).unwrap() > 0);
    }

    #[test]
    fn budget_is_the_min_of_request_and_server_cap() {
        let mut req = decode(r#"{"workload": "grep"}"#).unwrap();
        let default = MachineConfig::default().max_cycles;
        assert_eq!(req.budget(None), default);
        assert_eq!(req.budget(Some(1000)), 1000);
        req.max_cycles = Some(400);
        assert_eq!(req.budget(Some(1000)), 400);
        assert_eq!(req.budget(Some(50)), 50);
        req.max_cycles = Some(0);
        assert_eq!(req.budget(None), 1, "budget 0 clamps to 1, not infinity");
    }

    #[test]
    fn run_executes_and_over_budget_rejects_with_503() {
        let cache = ArtifactCache::new();
        let req = decode(r#"{"workload": "grep", "size": 96, "models": ["region-pred"]}"#).unwrap();
        let out = handle_run(&req, &cache, None, None, 1, &NullTelemetry).unwrap();
        let models = out.get("models").and_then(|m| m.as_array()).unwrap();
        assert_eq!(models.len(), 1);
        assert_eq!(
            models[0].get("source").and_then(|s| s.as_str()),
            Some("compiled")
        );
        assert!(out.get("scalar_cycles").and_then(|c| c.as_i64()).unwrap() > 0);

        // Same request again: served from memory, identical measurement.
        let again = handle_run(&req, &cache, None, None, 1, &NullTelemetry).unwrap();
        let models = again.get("models").and_then(|m| m.as_array()).unwrap();
        assert_eq!(
            models[0].get("source").and_then(|s| s.as_str()),
            Some("memory")
        );

        // A tiny budget rejects before touching the cache.
        let tight = decode(r#"{"workload": "grep", "size": 96, "max_cycles": 3}"#).unwrap();
        let err = handle_run(&tight, &cache, None, None, 1, &NullTelemetry).unwrap_err();
        assert_eq!(err.status(), 503);
        assert_eq!(err.kind(), "over_budget");
    }

    #[test]
    fn inline_programs_self_train_and_faults_are_client_errors() {
        let cache = ArtifactCache::new();
        let asm = psb_workloads::by_name("grep", 7, 48)
            .unwrap()
            .program
            .to_asm();
        let body = Json::obj(vec![
            ("program", asm.as_str().to_json()),
            ("models", Json::Array(vec![Json::Str("global".to_string())])),
        ])
        .pretty();
        let req = SimRequest::from_body(body.as_bytes()).unwrap();
        let out = handle_run(&req, &cache, None, None, 1, &NullTelemetry).unwrap();
        assert_eq!(out.get("name").and_then(|n| n.as_str()), Some("inline"));

        let bad = decode(r#"{"program": "this is not asm"}"#).unwrap();
        let err = handle_run(&bad, &cache, None, None, 1, &NullTelemetry).unwrap_err();
        assert_eq!(err.status(), 400);
    }
}
