//! The point job: one evaluated program's golden run, compiles, runs and
//! golden checks.
//!
//! Every number the evaluation reports is a VLIW cycle count set against
//! a scalar run of the same program (the paper took it from an R3000
//! with pixie), and that scalar run is also the golden model each VLIW
//! run must match.  [`PointJob`] owns that sequence for every driver: it
//! runs the golden scalar machine once, compiles any number of
//! [`SchedConfig`]s through [`compile_stored`], runs any number of
//! [`MachineConfig`]s on the artifacts and holds each run's observable
//! state equal to the golden run's.  Drivers keep their own options and
//! report shaping, and turn a [`PointError`] into their own panic, status
//! code or failure record.

use crate::{
    compile_keyed, compile_stored, ArtifactCache, ArtifactSource, CompileError, CompileRequest,
    CompiledArtifact, DiskStore, KeyPrefix, ProfileSource, Ran, RunReuse,
};
use psb_core::{MachineConfig, ShadowMode, TraceSink, VliwError, VliwResult};
use psb_isa::ScalarProgram;
use psb_scalar::{RunError, RunResult, ScalarConfig, ScalarMachine};
use psb_sched::SchedConfig;
use psb_telemetry::Telemetry;
use std::fmt;
use std::sync::Arc;

/// Why a point failed, tagged with the step that failed.
#[derive(Clone, PartialEq, Debug)]
pub enum PointError {
    /// The golden scalar run failed (fault or cycle cap).
    Scalar(RunError),
    /// The compilation pipeline failed.
    Compile(CompileError),
    /// The VLIW machine raised a hard error.
    Machine(VliwError),
    /// The VLIW run's observable state differs from the golden run's;
    /// the text names the first differing live-out or memory cell.
    Diverged(String),
}

impl fmt::Display for PointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PointError::Scalar(e) => write!(f, "scalar run failed: {e}"),
            PointError::Compile(e) => write!(f, "compile failed: {e}"),
            PointError::Machine(e) => write!(f, "machine error: {e}"),
            PointError::Diverged(d) => write!(f, "diverged from the scalar golden model: {d}"),
        }
    }
}

impl std::error::Error for PointError {}

impl From<VliwError> for PointError {
    fn from(e: VliwError) -> PointError {
        PointError::Machine(e)
    }
}

/// Compiles `program` for `sched` through the cache hierarchy, profiled
/// on a default-configured scalar run of `train` — a point's compile
/// half without its golden run, for drivers that only compile.
///
/// # Errors
///
/// [`PointError::Compile`].
pub fn compile_trained<T: Telemetry>(
    program: &ScalarProgram,
    train: &ScalarProgram,
    sched: SchedConfig,
    cache: &ArtifactCache,
    store: Option<&DiskStore>,
    tel: &T,
) -> Result<(Arc<CompiledArtifact>, ArtifactSource), PointError> {
    let req = CompileRequest {
        program,
        profile: ProfileSource::Train {
            program: train,
            config: ScalarConfig::default(),
        },
        sched,
    };
    compile_stored(&req, cache, store, tel).map_err(PointError::Compile)
}

/// One evaluated program after its golden run.
pub struct PointJob<'a> {
    program: &'a ScalarProgram,
    train: Option<&'a ScalarProgram>,
    config: ScalarConfig,
    golden: RunResult,
    expected: (Vec<i64>, Vec<i64>),
    /// Every compile's request key but its scheduling configuration.
    key_prefix: KeyPrefix,
    /// The profile stage's memo key (`None` when self-trained: a
    /// provided profile is not memoized).
    profile_key: Option<u64>,
}

impl<'a> PointJob<'a> {
    /// Runs the golden scalar machine on `program` under `config`,
    /// without recording its branch trace.
    ///
    /// Every compile profiles on a default-configured scalar run of
    /// `train`; without one the point is self-trained on the golden
    /// run's own edge profile.  `config`'s fault set and cycle cap also
    /// apply to every machine run of the point.
    ///
    /// # Errors
    ///
    /// [`PointError::Scalar`] when the golden run faults or exceeds its
    /// cycle cap.
    pub fn new(
        program: &'a ScalarProgram,
        train: Option<&'a ScalarProgram>,
        config: ScalarConfig,
    ) -> Result<PointJob<'a>, PointError> {
        let untraced = ScalarConfig {
            record_branch_trace: false,
            ..config.clone()
        };
        let golden = ScalarMachine::new(program, untraced)
            .run()
            .map_err(PointError::Scalar)?;
        let expected = golden.observable(&program.live_out);
        let profile = Self::profile_source(train, &golden);
        let key_prefix = KeyPrefix::new(program, &profile);
        let profile_key = match &profile {
            ProfileSource::Train { program, config } => {
                Some(CompileRequest::profile_key(program, config))
            }
            ProfileSource::Provided(_) => None,
        };
        Ok(PointJob {
            program,
            train,
            config,
            golden,
            expected,
            key_prefix,
            profile_key,
        })
    }

    /// The profile every compile of the point schedules from: a
    /// default-configured run of `train`, or the golden run's own.
    fn profile_source<'p>(
        train: Option<&'p ScalarProgram>,
        golden: &'p RunResult,
    ) -> ProfileSource<'p> {
        match train {
            Some(program) => ProfileSource::Train {
                program,
                config: ScalarConfig::default(),
            },
            None => ProfileSource::Provided(&golden.edge_profile),
        }
    }

    /// The golden run (its cycles are the point's scalar baseline).  Its
    /// `branch_trace` is empty: nothing a point does reads it, and a
    /// caller that wants the trace (Table 3) runs the scalar machine
    /// itself.
    pub fn golden(&self) -> &RunResult {
        &self.golden
    }

    /// Compiles the point for `sched` through the cache hierarchy: see
    /// [`compile_stored`].  The request key is finished from the job's
    /// key prefix, and the profile stage's memo key was computed with
    /// the job, so the point's programs are hashed once however many
    /// configurations it compiles.
    ///
    /// # Errors
    ///
    /// [`PointError::Compile`].
    pub fn compile<T: Telemetry>(
        &self,
        sched: SchedConfig,
        cache: &ArtifactCache,
        store: Option<&DiskStore>,
        tel: &T,
    ) -> Result<(Arc<CompiledArtifact>, ArtifactSource), PointError> {
        let key = self.key_prefix.key(&sched);
        let req = CompileRequest {
            program: self.program,
            profile: Self::profile_source(self.train, &self.golden),
            sched,
        };
        compile_keyed(&req, key, self.profile_key, cache, store, tel).map_err(PointError::Compile)
    }

    /// `cfg` with the fields the point decides: the shadow provisioning
    /// `art` was scheduled for, and the golden run's fault set and cycle
    /// cap.  [`run`](Self::run) applies it; a driver that times or
    /// repeats a run directly on the artifact applies it itself.
    pub fn machine_config(&self, art: &CompiledArtifact, cfg: MachineConfig) -> MachineConfig {
        MachineConfig {
            shadow_mode: if art.sched().single_shadow {
                ShadowMode::Single
            } else {
                ShadowMode::Infinite
            },
            fault_once_addrs: self.config.fault_once_addrs.clone(),
            max_cycles: self.config.max_cycles,
            ..cfg
        }
    }

    /// Runs `art` under `cfg` with the default sink (through
    /// [`CompiledArtifact::run`], so the cycle loop stays compiled in
    /// `psb-core`) and checks the result against the golden run.
    ///
    /// # Errors
    ///
    /// [`PointError::Machine`] or [`PointError::Diverged`].
    pub fn run(
        &self,
        art: &CompiledArtifact,
        cfg: MachineConfig,
    ) -> Result<VliwResult, PointError> {
        let res = art
            .run(self.machine_config(art, cfg))
            .map_err(PointError::Machine)?;
        self.check(&res)?;
        Ok(res)
    }

    /// [`run`](Self::run) as the next point of `runs`, the job's
    /// [`RunReuse`]: a point whose run an earlier point's carries over to
    /// takes that run (the earlier run passed the golden check), and
    /// any other point runs and is checked.
    ///
    /// # Errors
    ///
    /// [`PointError::Machine`] (admission included) or
    /// [`PointError::Diverged`].
    pub fn run_reusing(
        &self,
        art: &CompiledArtifact,
        cfg: MachineConfig,
        runs: &mut RunReuse,
    ) -> Result<Ran, PointError> {
        runs.step(&art.program, self.machine_config(art, cfg), |cfg| {
            let res = art.run(cfg)?;
            self.check(&res)?;
            Ok(res)
        })
    }

    /// Runs `art` under `cfg` feeding `sink`, returning the result with
    /// the sink.  The run is *not* yet checked: the caller reads or
    /// finalizes the sink and then calls [`check`](Self::check), so an
    /// invariant the sink reports can precede a divergence.
    ///
    /// # Errors
    ///
    /// [`PointError::Machine`].
    pub fn run_with_sink<S: TraceSink>(
        &self,
        art: &CompiledArtifact,
        cfg: MachineConfig,
        sink: S,
    ) -> Result<(VliwResult, S), PointError> {
        art.run_with_sink(self.machine_config(art, cfg), sink)
            .map_err(PointError::Machine)
    }

    /// Holds `res`'s observable state (live-out registers and final
    /// memory) equal to the golden run's.
    ///
    /// # Errors
    ///
    /// [`PointError::Diverged`] naming the first difference.
    pub fn check(&self, res: &VliwResult) -> Result<(), PointError> {
        let (expected, got) = (&self.expected, res.observable(&self.program.live_out));
        if got == *expected {
            return Ok(());
        }
        let first = |e: &[i64], g: &[i64]| e.iter().zip(g).position(|(a, b)| a != b);
        let detail = if let Some(i) = first(&expected.0, &got.0) {
            format!(
                "live-out #{i}: expected {}, got {}",
                expected.0[i], got.0[i]
            )
        } else if let Some(a) = first(&expected.1, &got.1) {
            format!("memory[{a}]: expected {}, got {}", expected.1[a], got.1[a])
        } else {
            "live-out arity mismatch".to_string()
        };
        Err(PointError::Diverged(detail))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_sched::Model;
    use psb_telemetry::NullTelemetry;

    #[test]
    fn a_point_compiles_todays_requests_and_names_the_first_difference() {
        let eval = psb_workloads::by_name("grep", 1234, 64).unwrap().program;
        let train = psb_workloads::by_name("grep", 11, 64).unwrap().program;
        let sched = SchedConfig {
            single_shadow: false,
            ..SchedConfig::new(Model::RegionPred)
        };
        let golden = ScalarConfig {
            fault_once_addrs: [5].into(),
            max_cycles: 1 << 20,
            ..ScalarConfig::default()
        };
        // The job finishes each key from its own prefix; every one must
        // equal the request's key as `CompileRequest::key` hashes it.
        let others = [
            SchedConfig::new(Model::Global),
            SchedConfig {
                max_blocks: 32,
                ..SchedConfig::new(Model::TracePred)
            },
            SchedConfig {
                issue_width: 8,
                resources: psb_isa::Resources::full_issue(8),
                num_conds: 8,
                depth: 2,
                ..SchedConfig::new(Model::RegionPred)
            },
        ];
        let cache = ArtifactCache::new();
        for train in [None, Some(&train)] {
            let job = PointJob::new(&eval, train, golden.clone()).unwrap();
            let profile = match train {
                Some(program) => ProfileSource::Train {
                    program,
                    config: ScalarConfig::default(),
                },
                None => ProfileSource::Provided(&job.golden().edge_profile),
            };
            let mut keys = std::collections::BTreeSet::new();
            for other in &others {
                let (art, _) = job
                    .compile(other.clone(), &cache, None, &NullTelemetry)
                    .unwrap();
                let req = CompileRequest {
                    program: &eval,
                    profile: profile.clone(),
                    sched: other.clone(),
                };
                assert_eq!(art.request_key, req.key(), "{other:?}");
                assert_eq!(art.sched(), other);
                keys.insert(art.request_key);
            }
            assert_eq!(keys.len(), others.len(), "distinct configurations");
            let (art, _) = job
                .compile(sched.clone(), &cache, None, &NullTelemetry)
                .unwrap();
            let req = CompileRequest {
                program: &eval,
                profile,
                sched: sched.clone(),
            };
            assert_eq!(art.request_key, req.key());
            let cfg = job.machine_config(&art, MachineConfig::default());
            assert_eq!(cfg.shadow_mode, ShadowMode::Infinite);
            assert_eq!(
                (cfg.fault_once_addrs, cfg.max_cycles),
                (golden.fault_once_addrs.clone(), 1 << 20)
            );

            let mut res = job.run(&art, MachineConfig::default()).unwrap();
            let cell = res.memory.cells()[1];
            res.memory.write(1, cell + 1).unwrap();
            let want = format!("memory[1]: expected {cell}, got {}", cell + 1);
            assert_eq!(job.check(&res), Err(PointError::Diverged(want)));
            res.regs[eval.live_out[0].index()] -= 1;
            let err = job.check(&res).unwrap_err().to_string();
            assert!(
                err.starts_with("diverged from the scalar golden model: live-out #0"),
                "{err}"
            );
        }
        // The job's profile memo key is the one `compile_stored` derives:
        // a compile outside the job finds the job's training profile.
        let before = cache.stats().profile_misses;
        compile_trained(
            &eval,
            &train,
            SchedConfig::new(Model::Boost),
            &cache,
            None,
            &NullTelemetry,
        )
        .unwrap();
        assert_eq!((before, cache.stats().profile_misses), (1, 1));
        let capped = ScalarConfig {
            max_cycles: 3,
            ..ScalarConfig::default()
        };
        assert_eq!(
            PointJob::new(&eval, None, capped).err(),
            Some(PointError::Scalar(RunError::CycleLimit(3)))
        );
    }
}
