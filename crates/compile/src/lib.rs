//! The staged compilation pipeline behind every driver.
//!
//! The paper splits its mechanism into a compiler half (region formation,
//! predication, scheduling — Sec. 4) and a machine half (predicated state
//! buffering — Sec. 3).  This crate owns the compiler half as one
//! explicit, individually-timed pipeline:
//!
//! ```text
//!   ScalarProgram ──Stage::Profile──▶ EdgeProfile
//!                 ──Stage::Schedule─▶ VliwProgram + ScheduleStats
//!                 ──Stage::Decode───▶ DecodedProgram (dense issue arena)
//!                                  ─▶ Arc<CompiledArtifact>
//! ```
//!
//! [`Stage::Profile`] runs the scalar training program to collect an
//! [`EdgeProfile`] (or adopts one the caller already has, via
//! [`ProfileSource::Provided`]); [`Stage::Schedule`] invokes the
//! model-specific VLIW scheduler; [`Stage::Decode`] lowers the schedule
//! into the decoded arena the machine's tabled issue path reads.  The
//! product is an immutable [`CompiledArtifact`] carrying everything a
//! consumer needs to *run* the program — including the decoded arena, so
//! machine construction no longer re-lowers per run — plus per-stage
//! wall timings ([`CompileStats`]) and a stable [`ContentHash`], computed
//! on first read.
//!
//! [`compile`] memoizes through a shared [`ArtifactCache`] keyed by the
//! request's content ([`CompileRequest::key`]): a (workload × model ×
//! config) sweep compiles each distinct point exactly once regardless of
//! how many `parallel_map` workers race on it.  [`compile_fresh`] is the
//! uncached differential oracle — the proptest suite holds cache-served
//! artifacts byte-equal to fresh ones.
//!
//! [`PointJob`] wraps the pipeline in the sequence every driver runs:
//! the golden scalar run, compiles, machine runs, and the check of each
//! run against the golden run.  [`RunReuse`] lets a job or a grid of runs
//! simulate each distinct run once.

#![warn(missing_docs)]

mod cache;
mod hash;
mod point;
mod reuse;
mod store;

pub use cache::{ArtifactCache, CacheStats};
pub use point::{compile_trained, PointError, PointJob};
/// The no-op telemetry, for drivers that compile without recording.
pub use psb_telemetry::NullTelemetry;
pub use reuse::{Ran, RunReuse};
pub use store::{
    decode_artifact, encode_artifact, DiskStore, StoreError, StoreStats, STORE_VERSION,
};

use cache::ProfileEntry;
use hash::{word_hash, DebugHasher, WordHasher};
use psb_core::{
    BatchReport, DecodedProgram, EventLog, LaneOutcome, MachineConfig, TraceSink, VliwError,
    VliwMachine, VliwResult,
};
use psb_isa::{ScalarProgram, VliwProgram};
use psb_scalar::{EdgeProfile, ScalarConfig, ScalarMachine};
use psb_sched::{schedule, SchedConfig, SchedError, ScheduleStats};
use psb_telemetry::{round_us, Telemetry};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// One stage of the compilation pipeline, in execution order.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Stage {
    /// Scalar training run producing the [`EdgeProfile`].
    Profile,
    /// Profile-guided VLIW scheduling for one model.
    Schedule,
    /// Lowering the schedule into the machine's pre-decoded issue arena.
    Decode,
}

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; 3] = [Stage::Profile, Stage::Schedule, Stage::Decode];

    /// The stage's stable lowercase name (used as a JSON/report key stem).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Profile => "profile",
            Stage::Schedule => "schedule",
            Stage::Decode => "decode",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Where the scheduling profile comes from.
///
/// The paper's methodology trains on one input and evaluates on another;
/// [`ProfileSource::Train`] captures that split.  A self-trained
/// [`PointJob`] (the fuzz harness, the `asm/` kernels) hands its golden
/// run's profile over via [`ProfileSource::Provided`] instead of paying
/// for a second scalar execution.
#[derive(Clone, Debug, Hash)]
pub enum ProfileSource<'a> {
    /// Run this training program under this configuration and use the
    /// recorded edge profile.
    Train {
        /// The training program (usually the same workload at a different
        /// seed than the evaluated program).
        program: &'a ScalarProgram,
        /// Scalar machine configuration for the training run.
        config: ScalarConfig,
    },
    /// Use a profile the caller already collected.
    Provided(&'a EdgeProfile),
}

/// A complete description of one compilation: the program to schedule,
/// the profile to guide it, and the scheduling configuration.
///
/// Identity for caching is the *content* of these three — see
/// [`CompileRequest::key`].
#[derive(Clone, Debug)]
pub struct CompileRequest<'a> {
    /// The scalar program to compile.
    pub program: &'a ScalarProgram,
    /// The profile guiding region formation and branch prediction.
    pub profile: ProfileSource<'a>,
    /// The model and machine-shape parameters for the scheduler.
    pub sched: SchedConfig,
}

impl CompileRequest<'_> {
    /// The request's content-derived cache key.
    ///
    /// The derived `Hash` words of the program, the profile source and
    /// the scheduling configuration, one word per integer, through the
    /// crate's fixed-seed word hasher: a single differing word always
    /// changes the key, and the key is the same on every run, thread
    /// count and process built by one toolchain for one target (it also
    /// names `.psba` store files).  The machine configuration is
    /// deliberately *not* part of the key: the same artifact serves every
    /// engine and penalty setting.
    pub fn key(&self) -> u64 {
        word_hash(&(
            "compile-request-v2",
            self.program,
            &self.profile,
            &self.sched,
        ))
    }

    /// The memo key of the profile stage alone (training program ×
    /// scalar configuration), shared by every model compiled from the
    /// same training run.
    fn profile_key(program: &ScalarProgram, config: &ScalarConfig) -> u64 {
        word_hash(&("profile-stage-v2", program, config))
    }
}

/// The [`CompileRequest::key`] hasher's state after the tag, the program
/// and the profile source, so that the keys of one program and profile
/// under many scheduling configurations hash the program once.  A tuple
/// hashes element by element, so finishing a copy of the prefix with a
/// configuration gives that request's key exactly.
#[derive(Clone)]
pub(crate) struct KeyPrefix(WordHasher);

impl KeyPrefix {
    /// Hashes everything of a request's key but its configuration.
    pub(crate) fn new(program: &ScalarProgram, profile: &ProfileSource<'_>) -> KeyPrefix {
        let mut h = WordHasher::default();
        ("compile-request-v2", program, profile).hash(&mut h);
        KeyPrefix(h)
    }

    /// The key of the request for `sched`.
    pub(crate) fn key(&self, sched: &SchedConfig) -> u64 {
        let mut h = self.0.clone();
        sched.hash(&mut h);
        h.finish()
    }
}

/// A failed compilation, tagged with the stage that failed.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CompileError {
    /// The scalar training run failed (fault or cycle limit).
    Profile(String),
    /// The scheduler rejected its configuration or its own output.
    Schedule(SchedError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Profile(m) => write!(f, "profile stage: {m}"),
            CompileError::Schedule(e) => write!(f, "schedule stage: {e}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<SchedError> for CompileError {
    fn from(e: SchedError) -> CompileError {
        CompileError::Schedule(e)
    }
}

/// Per-stage costs and sizes of one compilation.
///
/// Wall timings are rounded to microseconds (matching the eval crate's
/// reporting precision) and describe the run that *produced* the
/// artifact: a cache-served artifact reports the original compile's
/// timings, and a [`ProfileSource::Provided`] profile costs `0.0` —
/// its collection was paid for elsewhere.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct CompileStats {
    /// Wall seconds of the scalar training run (0 for provided profiles).
    pub profile_seconds: f64,
    /// Wall seconds of the scheduler.
    pub schedule_seconds: f64,
    /// Wall seconds of the decode lowering.
    pub decode_seconds: f64,
    /// Dynamic branches recorded in the profile.
    pub profile_branches: u64,
    /// VLIW words in the scheduled program.
    pub words: usize,
    /// Total slots in the scheduled program.
    pub slots: usize,
}

/// An artifact's published content hash, computed on first read.
///
/// FNV-1a over the `Debug` renderings of the scheduled program, the
/// profile and the scheduling configuration (its resources once more on
/// their own), tagged `artifact-v1`.  The value is frozen: `/run`
/// responses, `repro compile`, `psbsim` and `.psba` headers publish it.
/// Rendering a paper-sized program costs hundreds of microseconds, so
/// only callers that read the hash pay for it.  It keeps shared handles
/// to its inputs — the artifact's own program and profile — and the
/// artifact's scheduling configuration, so it computes itself wherever
/// it is read: formatted (`{:016x}`) or through [`get`](Self::get).
#[derive(Clone)]
pub struct ContentHash {
    value: OnceLock<u64>,
    program: Arc<VliwProgram>,
    profile: Arc<EdgeProfile>,
    sched: SchedConfig,
}

impl ContentHash {
    pub(crate) fn new(
        program: Arc<VliwProgram>,
        profile: Arc<EdgeProfile>,
        sched: SchedConfig,
    ) -> ContentHash {
        ContentHash {
            value: OnceLock::new(),
            program,
            profile,
            sched,
        }
    }

    /// The hash value, computed on the first call.
    pub fn get(&self) -> u64 {
        *self.value.get_or_init(|| {
            let mut h = DebugHasher::new();
            h.field(&"artifact-v1");
            h.field(&*self.program);
            h.field(&*self.profile);
            h.field(&self.sched);
            h.field(&self.sched.resources);
            h.finish()
        })
    }
}

impl PartialEq for ContentHash {
    fn eq(&self, other: &ContentHash) -> bool {
        self.get() == other.get()
    }
}

impl fmt::Debug for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.get())
    }
}

impl fmt::LowerHex for ContentHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.get(), f)
    }
}

/// The immutable product of a compilation.
///
/// Bundles everything downstream consumers need: the profile that guided
/// scheduling, the scheduled program with its static statistics, the
/// pre-decoded issue arena (shared via `Arc`, so machines borrow it
/// instead of re-lowering), per-stage [`CompileStats`], and the
/// [`ContentHash`] over the semantic payload.
#[derive(Clone, Debug)]
pub struct CompiledArtifact {
    /// The [`CompileRequest::key`] this artifact answers.
    pub request_key: u64,
    /// Content hash over program + profile + scheduling configuration
    /// (including resources) — stable across runs and hosts; excludes
    /// the host-dependent [`CompileStats`].  Computed on first read.
    pub content_hash: ContentHash,
    /// The profile that guided scheduling (shared with the profile memo
    /// and the content hash).
    pub profile: Arc<EdgeProfile>,
    /// The scheduled VLIW program (shared with the content hash).
    pub program: Arc<VliwProgram>,
    /// Static schedule statistics (words, regions, op mix, utilisation).
    pub sched_stats: ScheduleStats,
    /// The decoded issue arena the tabled engine reads, decoded exactly
    /// once per artifact.
    pub decoded: Arc<DecodedProgram>,
    /// Per-stage costs of the compile that produced this artifact.
    pub stats: CompileStats,
}

impl CompiledArtifact {
    /// Runs the artifact's program on a machine that borrows the
    /// decoded arena, with the default [`psb_core::EventLog`] sink
    /// (recording iff [`MachineConfig::record_events`]).
    ///
    /// # Errors
    ///
    /// See [`VliwMachine::with_sink_decoded`] and [`VliwMachine::run`].
    pub fn run(&self, cfg: MachineConfig) -> Result<VliwResult, VliwError> {
        let sink = EventLog::new(cfg.record_events);
        VliwMachine::with_sink_decoded(&self.program, Arc::clone(&self.decoded), cfg, sink)?.run()
    }

    /// Runs the artifact's program feeding `sink`, returning the result
    /// together with the sink.
    ///
    /// # Errors
    ///
    /// See [`VliwMachine::with_sink_decoded`] and [`VliwMachine::run`].
    pub fn run_with_sink<S: TraceSink>(
        &self,
        cfg: MachineConfig,
        sink: S,
    ) -> Result<(VliwResult, S), VliwError> {
        VliwMachine::with_sink_decoded(&self.program, Arc::clone(&self.decoded), cfg, sink)?
            .run_into_sink()
    }

    /// Runs the artifact's program under every configuration in `cfgs`
    /// and reports the outcomes in grid order with their cycle totals.
    /// A configuration whose run an earlier lane's carries over to
    /// ([`RunReuse`]) takes a copy of that lane once it passes
    /// admission; every other runs through [`run`](Self::run).  A
    /// configuration's failure is its lane's `Err`, never the grid's.
    pub fn run_batch(&self, cfgs: &[MachineConfig]) -> BatchReport {
        let mut runs = RunReuse::default();
        let mut lanes: Vec<LaneOutcome> = Vec::with_capacity(cfgs.len());
        for cfg in cfgs {
            let lane = match runs.step(&self.program, cfg.clone(), |cfg| self.run(cfg)) {
                Ok(Ran::Took(earlier)) => lanes[earlier].clone(),
                Ok(Ran::Simulated(res)) => Ok((res, EventLog::new(cfg.record_events))),
                Err(e) => Err(e),
            };
            lanes.push(lane);
        }
        BatchReport::new(lanes)
    }

    /// The scheduling configuration the artifact was compiled for.
    pub fn sched(&self) -> &SchedConfig {
        &self.content_hash.sched
    }

    /// Whether two artifacts carry identical semantic content (hash, key,
    /// profile, program, schedule stats and decoded arena), ignoring the
    /// host-dependent stage timings.  This is the oracle predicate:
    /// cache-served and freshly compiled artifacts must satisfy it.
    pub fn same_content(&self, other: &CompiledArtifact) -> bool {
        self.request_key == other.request_key
            && self.content_hash == other.content_hash
            && self.profile == other.profile
            && self.program == other.program
            && self.sched_stats == other.sched_stats
            && *self.decoded == *other.decoded
            && self.stats.profile_branches == other.stats.profile_branches
            && self.stats.words == other.stats.words
            && self.stats.slots == other.stats.slots
    }

    /// The content hash as a fixed-width hex string for reports.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash)
    }
}

/// Runs the profile stage uncached, recording a `Stage::Profile` span
/// and a `compile.profile_ns` sample when a training run actually
/// happens (provided profiles cost nothing and record nothing).
fn profile_stage<T: Telemetry>(
    source: &ProfileSource<'_>,
    tel: &T,
) -> Result<ProfileEntry, CompileError> {
    match source {
        ProfileSource::Train { program, config } => {
            let _sp = tel.span("compile", || {
                format!(
                    "profile:{:016x}",
                    CompileRequest::profile_key(program, config)
                )
            });
            // Only the edge profile is kept, so the run records no
            // branch trace; the key above hashes `config` as given.
            let untraced = ScalarConfig {
                record_branch_trace: false,
                ..config.clone()
            };
            let start = Instant::now();
            let result = ScalarMachine::new(program, untraced)
                .run()
                .map_err(|e| CompileError::Profile(e.to_string()))?;
            let elapsed = start.elapsed();
            tel.observe("compile.profile_ns", elapsed.as_nanos() as u64);
            let seconds = round_us(elapsed.as_secs_f64());
            let branches = result.edge_profile.total();
            Ok(ProfileEntry {
                profile: Arc::new(result.edge_profile),
                seconds,
                branches,
            })
        }
        ProfileSource::Provided(profile) => Ok(ProfileEntry {
            profile: Arc::new((*profile).clone()),
            seconds: 0.0,
            branches: profile.total(),
        }),
    }
}

/// Runs the schedule and decode stages over a resolved profile and
/// assembles the artifact answering `request_key` (`req.key()`, computed
/// once by the caller), with one span and one `compile.*_ns` sample per
/// stage.  Both stages run only on an artifact-cache miss, so the record
/// counts are jobs-deterministic.
fn finish_compile<T: Telemetry>(
    req: &CompileRequest<'_>,
    request_key: u64,
    entry: &ProfileEntry,
    tel: &T,
) -> Result<CompiledArtifact, CompileError> {
    let sp = tel.span("compile", || format!("schedule:{request_key:016x}"));
    let start = Instant::now();
    let program = schedule(req.program, &entry.profile, &req.sched)?;
    let elapsed = start.elapsed();
    drop(sp);
    tel.observe("compile.schedule_ns", elapsed.as_nanos() as u64);
    let schedule_seconds = round_us(elapsed.as_secs_f64());

    let sp = tel.span("compile", || format!("decode:{request_key:016x}"));
    let start = Instant::now();
    let decoded = Arc::new(DecodedProgram::decode(&program));
    let elapsed = start.elapsed();
    drop(sp);
    tel.observe("compile.decode_ns", elapsed.as_nanos() as u64);
    let decode_seconds = round_us(elapsed.as_secs_f64());

    let sched_stats = ScheduleStats::analyze(&program);
    let program = Arc::new(program);

    Ok(CompiledArtifact {
        request_key,
        content_hash: ContentHash::new(
            Arc::clone(&program),
            Arc::clone(&entry.profile),
            req.sched.clone(),
        ),
        stats: CompileStats {
            profile_seconds: entry.seconds,
            schedule_seconds,
            decode_seconds,
            profile_branches: entry.branches,
            words: program.words.len(),
            slots: decoded.slot_count(),
        },
        profile: Arc::clone(&entry.profile),
        program,
        sched_stats,
        decoded,
    })
}

/// Compiles `req` through the shared cache.
///
/// The artifact lookup is single-flight: across every thread sharing
/// `cache`, each distinct request compiles exactly once and every other
/// caller receives the same `Arc`.  The profile stage is memoized
/// separately (keyed by training program × scalar configuration), so the
/// seven models of one workload share a single scalar training run even
/// on their first, artifact-missing compile.
///
/// # Errors
///
/// [`CompileError`] from whichever stage failed.  Failures are not
/// cached; a later identical request retries the compile.
pub fn compile(
    req: &CompileRequest<'_>,
    cache: &ArtifactCache,
) -> Result<Arc<CompiledArtifact>, CompileError> {
    compile_stored(req, cache, None, &NullTelemetry).map(|(artifact, _)| artifact)
}

/// The artifact-cache miss path of [`compile_keyed`]: resolve the
/// (separately memoized) profile stage, then schedule and decode the
/// artifact for `key` (`req.key()`).  `profile_key` is the profile
/// stage's memo key when the caller already has it.
fn compile_miss<T: Telemetry>(
    req: &CompileRequest<'_>,
    key: u64,
    profile_key: Option<u64>,
    cache: &ArtifactCache,
    tel: &T,
) -> Result<Arc<CompiledArtifact>, CompileError> {
    let entry = match &req.profile {
        ProfileSource::Train { program, config } => {
            let profile_key =
                profile_key.unwrap_or_else(|| CompileRequest::profile_key(program, config));
            cache.profile(profile_key, tel, || {
                profile_stage(&req.profile, tel).map(Arc::new)
            })?
        }
        ProfileSource::Provided(_) => Arc::new(profile_stage(&req.profile, tel)?),
    };
    finish_compile(req, key, &entry, tel).map(Arc::new)
}

/// Where [`compile_stored`] found the artifact it returned.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ArtifactSource {
    /// Served by the in-memory [`ArtifactCache`] (or by waiting on
    /// another thread's in-flight compile of the same key).
    Memory,
    /// Loaded and validated from the [`DiskStore`].
    Disk,
    /// Compiled from scratch this call.
    Compiled,
}

impl ArtifactSource {
    /// Stable lowercase name (a JSON/report key).
    pub fn name(self) -> &'static str {
        match self {
            ArtifactSource::Memory => "memory",
            ArtifactSource::Disk => "disk",
            ArtifactSource::Compiled => "compiled",
        }
    }
}

/// [`compile`] with host telemetry and an optional persistent
/// [`DiskStore`] between the memory cache and the compiler: a memory
/// miss first tries to load (and fully validate) a persisted artifact; a
/// genuine compile persists its product for future processes.  Returns
/// where the artifact came from alongside the artifact.
///
/// `tel` receives stage spans and `compile.*_ns` histograms on cache
/// misses (jobs-deterministic counts), and lock-wait and
/// single-flight-wait histograms on every lookup (host-only, dropped in
/// deterministic mode).
///
/// A store file that fails validation ([`StoreError`]) is *not* a
/// request failure — the request falls through to a fresh compile whose
/// save overwrites the bad file; the error is counted in the store's
/// [`StoreStats`] and its `store.errors` counter.
///
/// # Errors
///
/// [`CompileError`] from whichever stage failed, as [`compile`].
pub fn compile_stored<T: Telemetry>(
    req: &CompileRequest<'_>,
    cache: &ArtifactCache,
    store: Option<&DiskStore>,
    tel: &T,
) -> Result<(Arc<CompiledArtifact>, ArtifactSource), CompileError> {
    compile_keyed(req, req.key(), None, cache, store, tel)
}

/// [`compile_stored`] with the request's key (`req.key()`) and, when
/// the caller has it, the profile stage's memo key already computed:
/// a [`PointJob`] hashes its programs once for all of its compiles.
pub(crate) fn compile_keyed<T: Telemetry>(
    req: &CompileRequest<'_>,
    key: u64,
    profile_key: Option<u64>,
    cache: &ArtifactCache,
    store: Option<&DiskStore>,
    tel: &T,
) -> Result<(Arc<CompiledArtifact>, ArtifactSource), CompileError> {
    let source = std::cell::Cell::new(ArtifactSource::Memory);
    let artifact = cache.artifact(key, tel, || -> Result<_, CompileError> {
        if let Some(store) = store {
            if let Ok(Some(artifact)) = store.load(key, &req.sched, tel) {
                source.set(ArtifactSource::Disk);
                return Ok(artifact);
            }
        }
        source.set(ArtifactSource::Compiled);
        let artifact = compile_miss(req, key, profile_key, cache, tel)?;
        if let Some(store) = store {
            // Best-effort persist: an unwritable store must not fail
            // the request; the failure is counted in StoreStats.
            let _ = store.save(&artifact, tel);
        }
        Ok(artifact)
    })?;
    Ok((artifact, source.get()))
}

/// Compiles `req` without any cache — the differential oracle.
///
/// Guaranteed to produce an artifact [`CompiledArtifact::same_content`]
/// with what [`compile`] serves for the same request.
///
/// # Errors
///
/// [`CompileError`] from whichever stage failed.
pub fn compile_fresh(req: &CompileRequest<'_>) -> Result<CompiledArtifact, CompileError> {
    let entry = profile_stage(&req.profile, &NullTelemetry)?;
    finish_compile(req, req.key(), &entry, &NullTelemetry)
}
