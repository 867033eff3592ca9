//! The in-order predicating pipeline.
//!
//! # Cycle structure
//!
//! Each simulated cycle runs:
//!
//! 1. **commit pass** — the per-entry predicate hardware of the register
//!    file and store buffer evaluates against the CCR (as updated at the
//!    end of the previous cycle), committing and squashing buffered state;
//! 2. **store retire** — valid non-speculative head entries go to the
//!    D-cache;
//! 3. **recovery exit check** — if recovery has reached the EPC, the future
//!    condition is copied into the CCR and normal mode resumes;
//! 4. **issue** — the word at PC issues unless stalled (operand in flight,
//!    jump with unspecified predicate, store buffer full, fault handler
//!    busy);
//! 5. **end of cycle** — single-cycle results and matured loads write back
//!    (destination chosen by the predicate *at writeback*, so a result can
//!    commit during execution as in Table 1), stores append, condition-set
//!    results form the CCR *candidate*; if a buffered speculative exception
//!    would commit under the candidate, the CCR update is suppressed, the
//!    candidate is saved as the future CCR, all speculative state is
//!    invalidated, and the machine rolls back to the RPC in recovery mode;
//!    otherwise the candidate becomes the CCR and control advances.

use crate::config::{CommitScan, Engine, MachineConfig};
use crate::decoded::{DecodedProgram, Uop};
use crate::event::{Event, EventLog, StateLoc};
use crate::mem::MemorySystem;
use crate::obs::{CycleSample, StallKind, TraceSink};
use crate::regfile::PredicatedRegFile;
use crate::storebuf::PredicatedStoreBuffer;
use psb_isa::{
    AluOp, Ccr, CmpOp, Cond, CondReg, MemFault, Memory, MultiOp, Op, Predicate, Reg, RegSet,
    SlotOp, Src, VliwProgram, NUM_REGS,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Committed stores the buffer retires to the D-cache per cycle.
const RETIRE_PER_CYCLE: usize = 1;
/// Pipeline refill cycles charged when recovery rolls back to the RPC.
const ROLLBACK_PENALTY: u64 = 2;

/// A failed VLIW run.
#[derive(Clone, PartialEq, Debug)]
pub enum VliwError {
    /// A fatal memory fault was committed (non-speculative access, or a
    /// speculative exception whose predicate committed and whose recovery
    /// re-raised a fatal fault).
    Fault {
        /// The faulting word address.
        word: usize,
        /// The fault.
        fault: MemFault,
    },
    /// The configured cycle limit was exceeded.
    CycleLimit(u64),
    /// Two speculative values with different predicates collided in one
    /// shadow register under [`ShadowMode::Single`](crate::ShadowMode::Single) —
    /// a scheduler bug.
    ShadowConflict {
        /// The conflicted register.
        reg: Reg,
        /// The cycle of the conflicting write.
        cycle: u64,
    },
    /// The program violated a machine invariant (e.g. a word wider than the
    /// issue width, too few function units, execution fell off the end, or
    /// an impossible predicate state during recovery).
    Malformed(String),
}

impl fmt::Display for VliwError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VliwError::Fault { word, fault } => write!(f, "fatal {fault} committed at W{word}"),
            VliwError::CycleLimit(n) => write!(f, "cycle limit {n} exceeded"),
            VliwError::ShadowConflict { reg, cycle } => {
                write!(f, "shadow storage conflict on {reg} at cycle {cycle}")
            }
            VliwError::Malformed(m) => write!(f, "malformed program: {m}"),
        }
    }
}

impl std::error::Error for VliwError {}

/// The machine's execution counters — the single definition shared by the
/// private accumulation during a run and the public [`VliwResult`]
/// (which [`Deref`](std::ops::Deref)s to it).  A new counter added here
/// appears in both automatically.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct RunStats {
    /// Words issued (excluding stall cycles).
    pub words_issued: u64,
    /// Slot operations executed (predicate true or unspecified at issue).
    pub ops_executed: u64,
    /// Slot operations squashed at issue (predicate false).
    pub ops_squashed: u64,
    /// Stall cycles waiting on operands still in flight.
    pub stall_operand: u64,
    /// Stall cycles waiting for store-buffer space.
    pub stall_sb_full: u64,
    /// Stall cycles in fault handlers and pipeline refill.
    pub stall_busy: u64,
    /// Speculative-exception recoveries taken.
    pub recoveries: u64,
    /// Non-fatal faults handled.
    pub faults_handled: u64,
    /// Region transfers (taken exits plus fall-through entries).
    pub region_transfers: u64,
    /// Buffered speculative entries (register shadows and stores) whose
    /// predicate resolved true and committed into sequential state.
    pub commits: u64,
    /// Buffered speculative entries squashed — by a false predicate, a
    /// region exit, recovery entry, or the final drain.
    pub squashes: u64,
    /// Stall cycles waiting for instruction fetch (I$ miss or a
    /// multi-cycle fixed fetch latency).  Always 0 under
    /// [`MemoryModel::Perfect`](crate::MemoryModel::Perfect).
    pub stall_ifetch: u64,
    /// Operand-stall cycles attributable to an in-flight load that
    /// missed the D$ (carved out of what would otherwise count as
    /// `stall_operand`).  Always 0 under a perfect D$.
    pub stall_load_miss: u64,
    /// I$ probes (one per word fetch started).
    pub icache_accesses: u64,
    /// I$ misses.
    pub icache_misses: u64,
    /// D$ probes (one per load reaching memory).
    pub dcache_accesses: u64,
    /// D$ misses.
    pub dcache_misses: u64,
}

/// The result of a completed VLIW run.
#[derive(Clone, PartialEq, Debug)]
pub struct VliwResult {
    /// Total cycles.
    pub cycles: u64,
    /// The execution counters.  [`VliwResult`] derefs here, so
    /// `result.recoveries` and friends read through unchanged.
    pub stats: RunStats,
    /// Final sequential register values.
    pub regs: Vec<i64>,
    /// Final memory.
    pub memory: Memory,
    /// The event log (empty unless the sink records events).
    pub events: Vec<Event>,
}

impl std::ops::Deref for VliwResult {
    type Target = RunStats;

    fn deref(&self) -> &RunStats {
        &self.stats
    }
}

impl VliwResult {
    /// The observable architectural result: `live_out` register values plus
    /// final memory cells — directly comparable with
    /// `psb_scalar::RunResult::observable`.
    pub fn observable(&self, live_out: &[Reg]) -> (Vec<i64>, Vec<i64>) {
        (
            live_out.iter().map(|r| self.regs[r.index()]).collect(),
            self.memory.cells().to_vec(),
        )
    }
}

#[derive(Clone, PartialEq, Debug)]
enum Mode {
    Normal,
    Recovery { epc: usize, future: Ccr },
}

/// A register write still in the pipeline (a load's two-cycle latency).
#[derive(Clone, Copy, PartialEq, Debug)]
struct InFlight {
    /// End-of-cycle time at which the write lands.
    ready_end: u64,
    /// The word that issued it (for rollback bookkeeping).
    word: usize,
    dest: Reg,
    value: i64,
    pred: Predicate,
    exc: bool,
    /// True if this load missed the D$ — operand stalls blocked on it
    /// are charged to memory ([`StallKind::LoadMiss`]).
    missed: bool,
}

#[derive(Clone, Copy, PartialEq, Debug)]
struct PendingWrite {
    dest: Reg,
    value: i64,
    pred: Predicate,
    /// Predicate value observed at issue (`True` → sequential write).
    nonspec: bool,
    exc: bool,
}

#[derive(Clone, Copy, PartialEq, Debug)]
struct PendingStore {
    addr: i64,
    value: i64,
    pred: Predicate,
    spec: bool,
    exc: bool,
}

/// The predicating VLIW machine, generic over its [`TraceSink`].
///
/// The default sink is the [`EventLog`] (recording only when
/// [`MachineConfig::record_events`] is set); [`NullSink`](crate::NullSink)
/// monomorphizes every observability hook away, and
/// [`CountersSink`](crate::CountersSink) builds a profile without storing
/// events.
#[derive(Clone, Debug)]
pub struct VliwMachine<'p, S: TraceSink = EventLog> {
    prog: &'p VliwProgram,
    /// The program decoded once into dense `Copy` arenas; read every
    /// normal-mode cycle by [`Engine::Tabled`], ignored by
    /// [`Engine::Legacy`].  Shared (`Arc`) so a compiled artifact's arena
    /// is borrowed by every machine built over it instead of being
    /// re-lowered per construction.
    decoded: Arc<DecodedProgram>,
    cfg: MachineConfig,
    regs: PredicatedRegFile,
    sb: PredicatedStoreBuffer,
    memory: Memory,
    ccr: Ccr,
    pc: usize,
    rpc: usize,
    mode: Mode,
    cycle: u64,
    busy_until: u64,
    inflight: Vec<InFlight>,
    /// The memory timing model's per-machine state (cache contents and
    /// the in-progress word fetch).
    mem: MemorySystem,
    /// Ready time of the most recently issued in-flight write — loads
    /// return in order (a hit behind a miss waits; see
    /// [`VliwMachine::push_inflight`]).
    last_load_ready: u64,
    touched_faults: BTreeSet<i64>,
    sink: S,
    stats: RunStats,
    /// The issued word's effects, written in place by the `exec_*`
    /// helpers and applied at the end of the cycle.  Empty whenever a
    /// word issues: each issued cycle clears it (keeping its
    /// allocations, so steady-state issue never touches the allocator),
    /// recovery entry discards it, and a stall never writes it.
    out: CycleOut,
}

/// What `issue` decided for the end of the cycle.
#[derive(Clone, PartialEq, Debug, Default)]
struct CycleOut {
    writes: Vec<PendingWrite>,
    stores: Vec<PendingStore>,
    conds: Vec<(CondReg, bool)>,
    jump: Option<usize>,
    halt: bool,
}

impl CycleOut {
    /// Empties the buffer, keeping its allocations.
    fn clear(&mut self) {
        self.writes.clear();
        self.stores.clear();
        self.conds.clear();
        self.jump = None;
        self.halt = false;
    }
}

/// What one call to [`VliwMachine::step_cycle`] did.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum StepOutcome {
    /// The machine took one architectural cycle (issue, stall or
    /// recovery entry), or skipped an inert stall run, and can step
    /// again.
    Running,
    /// The machine issued its halt word this cycle.  No further cycles
    /// may be stepped; [`VliwMachine::finish`] drains buffered state
    /// into a [`VliwResult`].
    Halted,
}

impl<'p> VliwMachine<'p> {
    /// Creates a machine over `prog` with the default [`EventLog`] sink
    /// (recording iff [`MachineConfig::record_events`]).
    ///
    /// # Errors
    ///
    /// [`VliwError::Malformed`] if the program fails validation or exceeds
    /// the configured issue width or function-unit counts.
    pub fn new(prog: &'p VliwProgram, cfg: MachineConfig) -> Result<VliwMachine<'p>, VliwError> {
        let sink = EventLog::new(cfg.record_events);
        VliwMachine::with_sink(prog, cfg, sink)
    }

    /// Creates a machine and runs the program to completion.
    ///
    /// # Errors
    ///
    /// See [`VliwMachine::run`].
    pub fn run_program(prog: &VliwProgram, cfg: MachineConfig) -> Result<VliwResult, VliwError> {
        VliwMachine::new(prog, cfg)?.run()
    }

    /// Runs the program to completion.
    ///
    /// Defined for the default sink only, so its cycle loop is compiled
    /// once, in this crate, whichever crate calls it: a compiled
    /// artifact's runs get the same inlining as [`run_program`], where
    /// the private `step_cycle` has this loop as its only caller.
    /// Other sinks use [`run_into_sink`](VliwMachine::run_into_sink).
    ///
    /// [`run_program`]: VliwMachine::run_program
    ///
    /// # Errors
    ///
    /// [`VliwError::Fault`] when a fatal memory fault commits;
    /// [`VliwError::CycleLimit`] past the configured limit;
    /// [`VliwError::ShadowConflict`] on a single-shadow collision;
    /// [`VliwError::Malformed`] on an invariant violation.
    pub fn run(self) -> Result<VliwResult, VliwError> {
        self.run_into_sink().map(|(res, _)| res)
    }
}

impl<'p, S: TraceSink> VliwMachine<'p, S> {
    /// Creates a machine over `prog` feeding the given [`TraceSink`].
    ///
    /// # Errors
    ///
    /// [`VliwError::Malformed`] if the program fails validation or exceeds
    /// the configured issue width or function-unit counts.
    pub fn with_sink(
        prog: &'p VliwProgram,
        cfg: MachineConfig,
        sink: S,
    ) -> Result<VliwMachine<'p, S>, VliwError> {
        Self::validate_for(prog, &cfg)?;
        let decoded = Arc::new(DecodedProgram::decode(prog));
        Ok(Self::build(prog, decoded, cfg, sink))
    }

    /// Creates a machine over `prog` that shares a pre-decoded arena
    /// instead of re-lowering the program at construction.  `decoded`
    /// must be the decoding of `prog`, which construction checks in one
    /// pass over the program (a compiled artifact holds such a pair by
    /// construction).
    ///
    /// # Errors
    ///
    /// [`VliwError::Malformed`] if the program fails validation, exceeds
    /// the configured issue width or function-unit counts, or `decoded`
    /// is not the decoding of `prog`.
    pub fn with_sink_decoded(
        prog: &'p VliwProgram,
        decoded: Arc<DecodedProgram>,
        cfg: MachineConfig,
        sink: S,
    ) -> Result<VliwMachine<'p, S>, VliwError> {
        Self::validate_for(prog, &cfg)?;
        if !decoded.matches(prog) {
            return Err(VliwError::Malformed(
                "pre-decoded arena does not match the program".to_string(),
            ));
        }
        Ok(Self::build(prog, decoded, cfg, sink))
    }

    /// The construction-time checks shared by every constructor: program
    /// validation plus issue-width and function-unit admission
    /// ([`MachineConfig::admit`]).
    fn validate_for(prog: &VliwProgram, cfg: &MachineConfig) -> Result<(), VliwError> {
        cfg.memory
            .validate()
            .map_err(|e| VliwError::Malformed(format!("memory model: {e}")))?;
        prog.validate().map_err(VliwError::Malformed)?;
        cfg.admit(prog)
    }

    /// Assembles the machine once validation has passed.
    fn build(
        prog: &'p VliwProgram,
        decoded: Arc<DecodedProgram>,
        cfg: MachineConfig,
        sink: S,
    ) -> VliwMachine<'p, S> {
        // The reference engine runs the paper's literal commit pass.
        let scan = match cfg.engine {
            Engine::Legacy => CommitScan::Naive,
            Engine::Tabled => CommitScan::Indexed,
        };
        let mut regs = PredicatedRegFile::new(NUM_REGS, cfg.shadow_mode).with_commit_scan(scan);
        for &(r, v) in &prog.init_regs {
            regs.init(r, v);
        }
        VliwMachine {
            decoded,
            regs,
            sb: PredicatedStoreBuffer::new(cfg.store_buffer_size).with_commit_scan(scan),
            memory: Memory::from_image(&prog.memory),
            ccr: Ccr::new(prog.num_conds),
            pc: 0,
            rpc: 0,
            mode: Mode::Normal,
            cycle: 1,
            busy_until: 0,
            inflight: Vec::new(),
            mem: MemorySystem::new(&cfg.memory, cfg.load_latency),
            last_load_ready: 0,
            touched_faults: BTreeSet::new(),
            sink,
            cfg,
            prog,
            stats: RunStats::default(),
            out: CycleOut::default(),
        }
    }

    /// Creates a machine over `prog` with `sink` and runs it to
    /// completion, returning the result together with the sink (so a
    /// counters sink's report can be read back).
    ///
    /// # Errors
    ///
    /// See [`VliwMachine::run`].
    pub fn run_with_sink(
        prog: &VliwProgram,
        cfg: MachineConfig,
        sink: S,
    ) -> Result<(VliwResult, S), VliwError> {
        VliwMachine::with_sink(prog, cfg, sink)?.run_into_sink()
    }

    fn read_src(&self, s: Src, reader_pred: &Predicate) -> i64 {
        match s {
            Src::Imm(v) => v,
            Src::Reg { reg, shadow: false } => self.regs.read_seq(reg),
            Src::Reg { reg, shadow: true } => self.regs.read_shadow(reg, reader_pred),
        }
    }

    /// Classifies an access: `Ok(())` = fine, `Err(Some(fault))` = fatal,
    /// `Err(None)` = untouched fault-once page.
    fn classify_access(&self, addr: i64) -> Result<(), Option<MemFault>> {
        if let Err(f) = self.memory.check(addr) {
            return Err(Some(f));
        }
        if self.cfg.fault_once_addrs.contains(&addr) && !self.touched_faults.contains(&addr) {
            return Err(None);
        }
        Ok(())
    }

    /// Handles a non-fatal fault inline: touch the page and stall.
    fn handle_fault(&mut self, addr: i64) {
        self.touched_faults.insert(addr);
        self.busy_until = self.busy_until.max(self.cycle) + self.cfg.fault_penalty;
        self.stats.faults_handled += 1;
        let cycle = self.cycle;
        self.sink.push(|| Event::FaultHandled { cycle, addr });
    }

    /// A load's data and timing: store-buffer forwarding first (at the
    /// memory model's bypass latency, no D$ probe), then real memory
    /// (probing the D$ under a cache model).  Returns
    /// `(value, latency, missed)`.
    fn load_timed(&mut self, addr: i64, pred: &Predicate) -> (i64, u64, bool) {
        match self.sb.forward(addr, pred) {
            Some(v) => (v, self.mem.bypass_latency(), false),
            None => {
                let value = self.memory.read(addr).expect("address classified valid");
                let (latency, missed) = self.mem.load_latency(addr);
                (value, latency, missed)
            }
        }
    }

    /// Queues an in-flight register write with **in-order return**: its
    /// ready time is clamped to be no earlier than the previously
    /// issued write's, so variable per-access latencies (a D$ hit
    /// issued behind a miss) cannot invert writeback order against
    /// program order.  Under any uniform latency — every non-cache
    /// model — ready times are already monotone in issue cycle, so the
    /// clamp is a no-op and the pre-refactor trajectory is preserved
    /// bit-for-bit.
    fn push_inflight(
        &mut self,
        latency: u64,
        dest: Reg,
        value: i64,
        pred: Predicate,
        exc: bool,
        missed: bool,
    ) {
        let ready_end = (self.cycle + latency - 1).max(self.last_load_ready);
        self.last_load_ready = ready_end;
        self.inflight.push(InFlight {
            ready_end,
            word: self.pc,
            dest,
            value,
            pred,
            exc,
            missed,
        });
    }

    /// Counts and classifies an operand stall: charged to
    /// [`StallKind::LoadMiss`] when an in-flight load that missed the
    /// D$ is among the writes being waited on, else to
    /// [`StallKind::Operand`].
    fn operand_stall(&mut self) -> StallKind {
        if self.inflight.iter().any(|f| f.missed) {
            self.stats.stall_load_miss += 1;
            StallKind::LoadMiss
        } else {
            self.stats.stall_operand += 1;
            StallKind::Operand
        }
    }

    /// Registers targeted by in-flight writes (the tabled engine's hazard
    /// screen intersects this with the word's source union).
    #[inline]
    fn inflight_dest_mask(&self) -> RegSet {
        self.inflight.iter().map(|f| f.dest).collect()
    }

    /// Registers whose in-flight write matures in a *later* cycle.  Entries
    /// maturing this cycle are excluded: they write back before this word's
    /// direct writes apply, so program order holds without an interlock.
    #[inline]
    fn waw_pending_mask(&self) -> RegSet {
        let cycle = self.cycle;
        self.inflight
            .iter()
            .filter(|f| f.ready_end > cycle)
            .map(|f| f.dest)
            .collect()
    }

    /// Whether any in-flight write targets a register read by a live slot
    /// of this word (read-after-write), or written by one whose in-flight
    /// write matures in a later cycle (the write-after-write interlock —
    /// without it, a variable-latency load still in flight would land
    /// *after* a newer direct write to the same register and clobber it;
    /// under a uniform latency every in-flight entry matures by the next
    /// word's issue cycle, so the interlock never fires there).
    fn operand_in_flight(&self, word: &MultiOp) -> bool {
        if self.inflight.is_empty() {
            return false;
        }
        let pending = self.waw_pending_mask();
        for slot in &word.slots {
            if slot.pred.eval(&self.ccr) == Cond::False {
                continue;
            }
            for s in slot.op.srcs() {
                if let Some(r) = s.as_reg() {
                    if self.inflight.iter().any(|f| f.dest == r) {
                        return true;
                    }
                }
            }
            if !pending.is_empty() {
                if let SlotOp::Op(op) = slot.op {
                    if let Some(rd) = op.def_reg() {
                        if pending.contains(rd) {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// The write-after-write half of [`operand_in_flight`] on the decoded
    /// arena: whether a live slot of `range` writes a register whose
    /// in-flight write matures in a later cycle.  The tabled engine's
    /// read-after-write half stays mask-based.
    ///
    /// [`operand_in_flight`]: Self::operand_in_flight
    fn waw_in_flight_decoded(&self, range: std::ops::Range<usize>) -> bool {
        let pending = self.waw_pending_mask();
        if pending.is_empty() {
            return false;
        }
        for i in range {
            let s = self.decoded.slots[i];
            if let Some(rd) = s.op.def_reg() {
                if pending.contains(rd) && s.pred.eval(&self.ccr) != Cond::False {
                    return true;
                }
            }
        }
        false
    }

    /// Region transfer bookkeeping: close the old region's speculative
    /// state, reset the CCR, and record the new RPC.
    fn enter_region(&mut self, target: usize) {
        let cycle = self.cycle;
        // Same inertness proof as the tabled commit-pass gate: squashing
        // an empty file/buffer is observation-free, so the tabled engine
        // skips the pass outright (the legacy engine keeps the literal
        // hardware behaviour).
        let tabled = matches!(self.cfg.engine, Engine::Tabled);
        if !tabled || self.regs.has_buffered() {
            self.stats.squashes += self.regs.squash_spec(cycle, &mut self.sink);
        }
        if !tabled || !self.sb.is_empty() {
            self.stats.squashes += self.sb.squash_spec(cycle, &mut self.sink);
        }
        // Resolve in-flight writes against the old region's conditions:
        // a specified-true pred will still land sequentially; everything
        // else is dead on this exit path.
        self.inflight.retain_mut(|f| match f.pred.eval(&self.ccr) {
            Cond::True => {
                f.pred = Predicate::always();
                true
            }
            _ => false,
        });
        self.ccr.reset();
        self.pc = target;
        self.rpc = target;
        self.stats.region_transfers += 1;
        self.sink.push(|| Event::RegionEnter {
            cycle,
            addr: target,
        });
    }

    /// End-of-cycle writeback of matured in-flight loads; the destination
    /// is chosen by the predicate *now* (commit during execution).  Runs
    /// every cycle, including stall cycles.  Returns whether any write
    /// landed.
    fn writeback_inflight(&mut self) -> Result<bool, VliwError> {
        let cycle = self.cycle;
        let mut landed = false;
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].ready_end > cycle {
                i += 1;
                continue;
            }
            landed = true;
            let f = self.inflight.swap_remove(i);
            match f.pred.eval(&self.ccr) {
                Cond::True => {
                    assert!(!f.exc, "exception commit missed by the detection scan");
                    self.regs.write_seq(f.dest, f.value);
                    self.sink.push(|| Event::SeqWrite { cycle, reg: f.dest });
                }
                Cond::False => {}
                Cond::Unspecified => {
                    self.regs
                        .write_spec(f.dest, f.value, f.pred, f.exc)
                        .map_err(|c| VliwError::ShadowConflict { reg: c.reg, cycle })?;
                    self.sink.push(|| Event::SpecWrite {
                        cycle,
                        loc: StateLoc::Reg(f.dest),
                        pred: f.pred,
                        exc: f.exc,
                    });
                }
            }
        }
        Ok(landed)
    }

    fn apply_writes(&mut self) -> Result<(), VliwError> {
        let cycle = self.cycle;
        for w in &self.out.writes {
            if w.nonspec {
                self.regs.write_seq(w.dest, w.value);
                self.sink.push(|| Event::SeqWrite { cycle, reg: w.dest });
            } else {
                self.regs
                    .write_spec(w.dest, w.value, w.pred, w.exc)
                    .map_err(|c| VliwError::ShadowConflict { reg: c.reg, cycle })?;
                self.sink.push(|| Event::SpecWrite {
                    cycle,
                    loc: StateLoc::Reg(w.dest),
                    pred: w.pred,
                    exc: w.exc,
                });
            }
        }
        Ok(())
    }

    /// Whether a buffered or in-flight speculative exception would commit
    /// under `candidate`.
    fn exception_would_commit(&self, candidate: &Ccr) -> bool {
        self.regs.has_exception_commit(candidate)
            || self.sb.has_exception_commit(candidate)
            || self
                .inflight
                .iter()
                .any(|f| f.exc && f.pred.eval(candidate) == Cond::True)
    }

    /// Enters recovery mode: suppress the CCR update (the candidate becomes
    /// the future CCR), invalidate all speculative state, force-complete
    /// the pipeline, and roll back to the region top.
    fn enter_recovery(&mut self, issued_word: usize, candidate: Ccr) {
        let cycle = self.cycle;
        let rpc = self.rpc;
        self.sink.push(|| Event::RecoveryStart {
            cycle,
            epc: issued_word,
            rpc,
        });
        // The rolled back word's own effects are discarded entirely (it
        // re-executes): its buffered ones here, its in-flight writes
        // below.  In-flight writes from earlier words force-complete.
        self.out.clear();
        let ccr = self.ccr;
        let mut landed = Vec::new();
        self.inflight.retain(|f| {
            if f.word == issued_word {
                return false;
            }
            if f.pred.eval(&ccr) == Cond::True {
                landed.push((f.dest, f.value, f.exc));
            }
            false
        });
        for (dest, value, exc) in landed {
            assert!(
                !exc,
                "true-predicate exception must have been detected earlier"
            );
            self.regs.write_seq(dest, value);
            self.sink.push(|| Event::SeqWrite { cycle, reg: dest });
        }
        self.stats.squashes += self.regs.squash_spec(cycle, &mut self.sink);
        self.stats.squashes += self.sb.squash_spec(cycle, &mut self.sink);
        self.mode = Mode::Recovery {
            epc: issued_word,
            future: candidate,
        };
        self.pc = self.rpc;
        self.busy_until = self.busy_until.max(self.cycle) + ROLLBACK_PENALTY;
        self.stats.recoveries += 1;
    }

    /// Issues the word at PC in normal mode into [`CycleOut`], or returns
    /// why it stalled.
    fn issue_normal(&mut self) -> Result<Option<StallKind>, VliwError> {
        let word = self.prog.words[self.pc].clone();
        // Stall checks.
        if self.operand_in_flight(&word) {
            return Ok(Some(self.operand_stall()));
        }
        let mut store_count = 0;
        for slot in &word.slots {
            let v = slot.pred.eval(&self.ccr);
            match slot.op {
                SlotOp::Jump { .. } | SlotOp::Halt | SlotOp::CmpBr { .. }
                    if v == Cond::Unspecified =>
                {
                    return Err(self.control_unspecified_error(slot.pred));
                }
                SlotOp::Op(Op::Store { .. }) if v != Cond::False => store_count += 1,
                _ => {}
            }
        }
        if self.sb.would_overflow(store_count) {
            self.stats.stall_sb_full += 1;
            return Ok(Some(StallKind::SbFull));
        }

        self.stats.words_issued += 1;
        for slot in &word.slots {
            let pv = slot.pred.eval(&self.ccr);
            if pv == Cond::False {
                self.stats.ops_squashed += 1;
                continue;
            }
            self.exec_uop_normal(slot.pred, Uop::lower(&slot.op), pv == Cond::True)?;
        }
        Ok(None)
    }

    // ------------------------------------------------------------------
    // Shared per-op execution.  Both issue engines — legacy and tabled —
    // funnel live slots, lowered to micro-ops, through these methods, so
    // the per-op semantics cannot drift between engines.  The cold error
    // constructors keep the exact diagnostic strings shared too.
    // ------------------------------------------------------------------

    #[cold]
    fn double_jump_error(&self) -> VliwError {
        VliwError::Malformed(format!("word {}: two taken jumps in one word", self.pc))
    }

    #[cold]
    fn control_unspecified_error(&self, pred: Predicate) -> VliwError {
        // In an in-order machine no later word can specify the condition,
        // so this can never resolve: the scheduler must place
        // condition-sets strictly before dependent control transfers.
        VliwError::Malformed(format!(
            "word {}: control-transfer predicate {pred} unspecified at issue",
            self.pc
        ))
    }

    #[cold]
    fn recovery_jump_true_error(&self) -> VliwError {
        VliwError::Malformed(format!(
            "word {}: jump predicate true under the current condition during recovery",
            self.pc
        ))
    }

    #[cold]
    fn recovery_unspecified_jump_error(&self) -> VliwError {
        VliwError::Malformed(format!(
            "word {}: unspecified jump predicate during recovery",
            self.pc
        ))
    }

    #[cold]
    fn recovery_condset_error(&self) -> VliwError {
        // Condition-sets carry `alw` predicates, so they can never be
        // unspecified; validated at load time.
        VliwError::Malformed(format!(
            "word {}: predicated condition-set during recovery",
            self.pc
        ))
    }

    fn exec_alu(&mut self, pred: Predicate, op: AluOp, rd: Reg, a: Src, b: Src, nonspec: bool) {
        let v = op.apply(self.read_src(a, &pred), self.read_src(b, &pred));
        self.out.writes.push(PendingWrite {
            dest: rd,
            value: v,
            pred,
            nonspec,
            exc: false,
        });
        self.stats.ops_executed += 1;
    }

    fn exec_copy(&mut self, pred: Predicate, rd: Reg, src: Src, nonspec: bool) {
        let v = self.read_src(src, &pred);
        self.out.writes.push(PendingWrite {
            dest: rd,
            value: v,
            pred,
            nonspec,
            exc: false,
        });
        self.stats.ops_executed += 1;
    }

    fn exec_setcond(&mut self, pred: Predicate, c: CondReg, cmp: CmpOp, a: Src, b: Src) {
        let v = cmp.apply(self.read_src(a, &pred), self.read_src(b, &pred));
        self.out.conds.push((c, v));
        self.stats.ops_executed += 1;
    }

    fn exec_load_normal(
        &mut self,
        pred: Predicate,
        rd: Reg,
        base: Src,
        offset: i64,
        nonspec: bool,
    ) -> Result<(), VliwError> {
        let addr = self.read_src(base, &pred).wrapping_add(offset);
        let (value, latency, exc, missed) = match self.classify_access(addr) {
            Ok(()) => {
                let (v, lat, missed) = self.load_timed(addr, &pred);
                (v, lat, false, missed)
            }
            Err(fault) if nonspec => match fault {
                Some(f) => {
                    return Err(VliwError::Fault {
                        word: self.pc,
                        fault: f,
                    })
                }
                None => {
                    self.handle_fault(addr);
                    let (v, lat, missed) = self.load_timed(addr, &pred);
                    (v, lat, false, missed)
                }
            },
            Err(_) => {
                // Buffer the speculative exception.  The access never
                // reaches memory, so it does not probe the D$.
                let cycle = self.cycle;
                self.sink.push(|| Event::ExcLatched { cycle, addr });
                (0, self.mem.bypass_latency(), true, false)
            }
        };
        self.push_inflight(latency, rd, value, pred, exc, missed);
        self.stats.ops_executed += 1;
        Ok(())
    }

    fn exec_store_normal(
        &mut self,
        pred: Predicate,
        base: Src,
        offset: i64,
        value: Src,
        nonspec: bool,
    ) -> Result<(), VliwError> {
        let addr = self.read_src(base, &pred).wrapping_add(offset);
        let v = self.read_src(value, &pred);
        let exc = match self.classify_access(addr) {
            Ok(()) => false,
            Err(fault) if nonspec => match fault {
                Some(f) => {
                    return Err(VliwError::Fault {
                        word: self.pc,
                        fault: f,
                    })
                }
                None => {
                    self.handle_fault(addr);
                    false
                }
            },
            Err(_) => {
                let cycle = self.cycle;
                self.sink.push(|| Event::ExcLatched { cycle, addr });
                true
            }
        };
        self.out.stores.push(PendingStore {
            addr,
            value: v,
            pred,
            spec: !nonspec,
            exc,
        });
        self.stats.ops_executed += 1;
        Ok(())
    }

    fn exec_jump(&mut self, target: usize, nonspec: bool) -> Result<(), VliwError> {
        if nonspec {
            if self.out.jump.is_some() {
                return Err(self.double_jump_error());
            }
            self.out.jump = Some(target);
        }
        self.stats.ops_executed += 1;
        Ok(())
    }

    fn exec_cmpbr(
        &mut self,
        pred: Predicate,
        c: Option<CondReg>,
        cmp: CmpOp,
        a: Src,
        b: Src,
        target: usize,
    ) -> Result<(), VliwError> {
        let v = cmp.apply(self.read_src(a, &pred), self.read_src(b, &pred));
        if let Some(c) = c {
            self.out.conds.push((c, v));
        }
        if v {
            if self.out.jump.is_some() {
                return Err(self.double_jump_error());
            }
            self.out.jump = Some(target);
        }
        self.stats.ops_executed += 1;
        Ok(())
    }

    fn exec_halt(&mut self) {
        self.out.halt = true;
        self.stats.ops_executed += 1;
    }

    fn exec_load_recovery(
        &mut self,
        pred: Predicate,
        rd: Reg,
        base: Src,
        offset: i64,
        future: &Ccr,
    ) -> Result<(), VliwError> {
        let addr = self.read_src(base, &pred).wrapping_add(offset);
        let (value, latency, exc, missed) = match self.classify_access(addr) {
            Ok(()) => {
                let (v, lat, missed) = self.load_timed(addr, &pred);
                (v, lat, false, missed)
            }
            Err(fault) => match pred.eval(future) {
                Cond::True => match fault {
                    Some(f) => {
                        return Err(VliwError::Fault {
                            word: self.pc,
                            fault: f,
                        })
                    }
                    None => {
                        // The original exception: handle it.
                        self.handle_fault(addr);
                        let (v, lat, missed) = self.load_timed(addr, &pred);
                        (v, lat, false, missed)
                    }
                },
                // Ignored and re-buffered exceptions never reach
                // memory, so they do not probe the D$.
                Cond::False => (0, self.mem.bypass_latency(), false, false),
                Cond::Unspecified => {
                    // Re-buffered: still speculative in recovery.
                    let cycle = self.cycle;
                    self.sink.push(|| Event::ExcLatched { cycle, addr });
                    (0, self.mem.bypass_latency(), true, false)
                }
            },
        };
        self.push_inflight(latency, rd, value, pred, exc, missed);
        self.stats.ops_executed += 1;
        Ok(())
    }

    fn exec_store_recovery(
        &mut self,
        pred: Predicate,
        base: Src,
        offset: i64,
        value: Src,
        future: &Ccr,
    ) -> Result<(), VliwError> {
        let addr = self.read_src(base, &pred).wrapping_add(offset);
        let v = self.read_src(value, &pred);
        let exc = match self.classify_access(addr) {
            Ok(()) => false,
            Err(fault) => match pred.eval(future) {
                Cond::True => match fault {
                    Some(f) => {
                        return Err(VliwError::Fault {
                            word: self.pc,
                            fault: f,
                        })
                    }
                    None => {
                        self.handle_fault(addr);
                        false
                    }
                },
                Cond::False => false,
                Cond::Unspecified => {
                    let cycle = self.cycle;
                    self.sink.push(|| Event::ExcLatched { cycle, addr });
                    true
                }
            },
        };
        self.out.stores.push(PendingStore {
            addr,
            value: v,
            pred,
            spec: true,
            exc,
        });
        self.stats.ops_executed += 1;
        Ok(())
    }

    /// Executes one live (predicate not false) slot in normal mode,
    /// accumulating its effects into [`CycleOut`].  Both engines' issue
    /// paths call it for every live slot: the tabled engine with the
    /// arena's micro-op, the legacy engine with the slot it lowered from
    /// the program text.  Forced inline into both: as a call it cost
    /// about 2.5% of a deterministic `repro bench --quick` on the tabled
    /// engine (14 of 16 alternating pairs faster inlined).
    #[inline(always)]
    fn exec_uop_normal(
        &mut self,
        pred: Predicate,
        op: Uop,
        nonspec: bool,
    ) -> Result<(), VliwError> {
        match op {
            Uop::Nop => {}
            Uop::Alu { op, rd, a, b } => self.exec_alu(pred, op, rd, a, b, nonspec),
            Uop::Copy { rd, src } => self.exec_copy(pred, rd, src, nonspec),
            Uop::SetCond { c, cmp, a, b } => self.exec_setcond(pred, c, cmp, a, b),
            Uop::Load { rd, base, offset } => {
                return self.exec_load_normal(pred, rd, base, offset, nonspec)
            }
            Uop::Store {
                base,
                offset,
                value,
            } => return self.exec_store_normal(pred, base, offset, value, nonspec),
            Uop::Jump { target } => return self.exec_jump(target, nonspec),
            Uop::CmpBr {
                c,
                cmp,
                a,
                b,
                target,
            } => return self.exec_cmpbr(pred, c, cmp, a, b, target),
            Uop::Halt => self.exec_halt(),
        }
        Ok(())
    }

    /// Issues the word at PC in recovery mode (Section 3.5) into
    /// [`CycleOut`], or returns why it stalled: instructions whose
    /// predicate is specified under the current condition are squashed;
    /// unspecified ones re-execute speculatively, and a re-raised
    /// exception is judged against the *future* condition.
    fn issue_recovery(&mut self, future: &Ccr) -> Result<Option<StallKind>, VliwError> {
        let word = self.prog.words[self.pc].clone();
        if self.operand_in_flight(&word) {
            return Ok(Some(self.operand_stall()));
        }
        let mut store_count = 0;
        for slot in &word.slots {
            if slot.pred.eval(&self.ccr) == Cond::Unspecified {
                if let SlotOp::Op(Op::Store { .. }) = slot.op {
                    store_count += 1;
                }
            }
        }
        if self.sb.would_overflow(store_count) {
            self.stats.stall_sb_full += 1;
            return Ok(Some(StallKind::SbFull));
        }

        self.stats.words_issued += 1;
        for slot in &word.slots {
            if slot.pred.eval(&self.ccr) != Cond::Unspecified {
                // Category 1: already updated the sequential state, or must
                // not update any state.  Jumps and halts here always carry
                // specified-false predicates (a true one would have left
                // the region originally).
                if matches!(slot.op, SlotOp::Jump { .. } | SlotOp::Halt)
                    && slot.pred.eval(&self.ccr) == Cond::True
                {
                    return Err(self.recovery_jump_true_error());
                }
                self.stats.ops_squashed += 1;
                continue;
            }
            self.exec_uop_recovery(slot.pred, Uop::lower(&slot.op), future)?;
        }
        Ok(None)
    }

    /// Executes one unspecified-predicate slot in recovery mode,
    /// accumulating its effects into [`CycleOut`].  A re-raised exception
    /// is judged against the *future* condition.  Recovery issues from
    /// the program text on both engines, so every slot reaches it lowered
    /// by [`Uop::lower`].
    fn exec_uop_recovery(
        &mut self,
        pred: Predicate,
        op: Uop,
        future: &Ccr,
    ) -> Result<(), VliwError> {
        match op {
            Uop::Jump { .. } | Uop::Halt => Err(self.recovery_unspecified_jump_error()),
            Uop::CmpBr { .. } | Uop::SetCond { .. } => Err(self.recovery_condset_error()),
            Uop::Nop => Ok(()),
            Uop::Alu { op, rd, a, b } => {
                self.exec_alu(pred, op, rd, a, b, false);
                Ok(())
            }
            Uop::Copy { rd, src } => {
                self.exec_copy(pred, rd, src, false);
                Ok(())
            }
            Uop::Load { rd, base, offset } => {
                self.exec_load_recovery(pred, rd, base, offset, future)
            }
            Uop::Store {
                base,
                offset,
                value,
            } => self.exec_store_recovery(pred, base, offset, value, future),
        }
    }

    // ------------------------------------------------------------------
    // Tabled engine: normal-mode issue over the decoded arena.  Recovery
    // mode is rare and issues through `issue_recovery` on both engines.
    // ------------------------------------------------------------------

    /// Issues the word at PC in normal mode from the decoded arena, by
    /// the rule of [`issue_normal`](Self::issue_normal): one mask
    /// intersection screens the whole word for operand hazards, the
    /// store/control prepass runs only for words that have a store or a
    /// control transfer, and live slots go through the same
    /// [`exec_uop_normal`](Self::exec_uop_normal) match.
    fn issue_normal_tabled(&mut self) -> Result<Option<StallKind>, VliwError> {
        let w = self.decoded.words[self.pc];
        let range = DecodedProgram::slot_range(&w);
        // Operand hazard: the union mask screens the whole word; only on a
        // hit does the precise, predicate-gated per-slot check run.
        if !self.inflight.is_empty() {
            let inflight = self.inflight_dest_mask();
            if !w.src_union.intersect(inflight).is_empty() {
                for i in range.clone() {
                    let s = self.decoded.slots[i];
                    if !s.src_mask.intersect(inflight).is_empty()
                        && s.pred.eval(&self.ccr) != Cond::False
                    {
                        return Ok(Some(self.operand_stall()));
                    }
                }
            }
            if self.waw_in_flight_decoded(range.clone()) {
                return Ok(Some(self.operand_stall()));
            }
        }
        if w.prepass {
            let mut store_count = 0;
            for i in range.clone() {
                let s = self.decoded.slots[i];
                let v = s.pred.eval(&self.ccr);
                match s.op {
                    op if op.is_control() && v == Cond::Unspecified => {
                        return Err(self.control_unspecified_error(s.pred));
                    }
                    Uop::Store { .. } if v != Cond::False => store_count += 1,
                    _ => {}
                }
            }
            if self.sb.would_overflow(store_count) {
                self.stats.stall_sb_full += 1;
                return Ok(Some(StallKind::SbFull));
            }
        }

        self.stats.words_issued += 1;
        for i in range {
            let s = self.decoded.slots[i];
            let pv = s.pred.eval(&self.ccr);
            if pv == Cond::False {
                self.stats.ops_squashed += 1;
                continue;
            }
            self.exec_uop_normal(s.pred, s.op, pv == Cond::True)?;
        }
        Ok(None)
    }

    /// Emits the end-of-cycle [`CycleSample`].  The occupancy reads only
    /// happen when the sink wants samples, so a non-sampling sink pays
    /// nothing here.
    #[inline]
    fn take_sample(&mut self, pc: usize, stall: Option<StallKind>) {
        if self.sink.sample_enabled() {
            let s = CycleSample {
                cycle: self.cycle,
                pc,
                region: self.rpc,
                shadow_occupancy: self.regs.spec_count(),
                sb_occupancy: self.sb.len(),
                unspec_conds: self.ccr.iter().filter(|(_, c)| !c.is_specified()).count(),
                stall,
            };
            self.sink.sample(&s);
        }
    }

    /// [`take_sample`](Self::take_sample) plus the clock tick.
    #[inline]
    fn end_cycle(&mut self, pc: usize, stall: Option<StallKind>) {
        self.take_sample(pc, stall);
        self.cycle += 1;
    }

    /// Runs the program to completion, returning the result together with
    /// the sink so its accumulated state (e.g. a
    /// [`CountersSink`](crate::CountersSink) report) can be read back.
    ///
    /// # Errors
    ///
    /// See [`VliwMachine::run`].
    pub fn run_into_sink(mut self) -> Result<(VliwResult, S), VliwError> {
        loop {
            match self.step_cycle()? {
                StepOutcome::Running => {}
                StepOutcome::Halted => return self.finish(),
            }
        }
    }

    /// Takes one architectural cycle: commit pass, store retire,
    /// recovery-exit check, issue (or stall), writeback, and the
    /// end-of-cycle sample.  This is the *entire* per-cycle semantics of
    /// the machine; [`run_into_sink`](Self::run_into_sink) is a bare
    /// loop over it.  Under [`Engine::Tabled`] a stall cycle may be
    /// followed by a jump over the rest of its inert stall run
    /// ([`skip_stall_run`](Self::skip_stall_run)), so one call can
    /// advance `cycle` by more than one.
    ///
    /// After [`StepOutcome::Halted`] the caller must not step again;
    /// finish with [`finish`](Self::finish).
    fn step_cycle(&mut self) -> Result<StepOutcome, VliwError> {
        // The tabled engine's cycle driver proves the commit hardware
        // inert before invoking it: a pass over an empty register file or
        // store buffer commits nothing, squashes nothing and emits no
        // events, so skipping it is observation-free (the engine
        // differential holds the logs byte-equal).  The legacy engine
        // keeps the paper's literal always-on pass, and runs it naively
        // ([`CommitScan::Naive`]).
        let tabled = matches!(self.cfg.engine, Engine::Tabled);
        if self.cycle > self.cfg.max_cycles {
            return Err(VliwError::CycleLimit(self.cfg.max_cycles));
        }
        // 1. Commit pass.
        let ccr = self.ccr;
        if !tabled || self.regs.has_buffered() {
            let (rc, rs) = self.regs.tick(&ccr, self.cycle, &mut self.sink);
            self.stats.commits += rc;
            self.stats.squashes += rs;
        }
        if !tabled || !self.sb.is_empty() {
            let (sc, ss) = self.sb.tick(&ccr, self.cycle, &mut self.sink);
            self.stats.commits += sc;
            self.stats.squashes += ss;
            // 2. Store retire.
            self.sb.retire(&mut self.memory, RETIRE_PER_CYCLE);
        }
        // 3. Recovery exit.
        if let Mode::Recovery { epc, ref future } = self.mode {
            if self.pc == epc {
                self.ccr = *future;
                self.mode = Mode::Normal;
                let cycle = self.cycle;
                self.sink.push(|| Event::RecoveryEnd { cycle });
                // Installing the future condition resolves the state
                // rebuffered during recovery (Section 3.5).  This must
                // happen *before* the EPC word issues: it re-executes
                // this same cycle, and a stale shadow committing on the
                // next cycle's pass would clobber its sequential writes.
                // The `defer_recovery_exit_commit` escape hatch skips
                // the pass to let the fuzzer prove it catches the bug.
                if !self.cfg.defer_recovery_exit_commit {
                    let ccr = self.ccr;
                    let (rc, rs) = self.regs.tick(&ccr, self.cycle, &mut self.sink);
                    let (sc, ss) = self.sb.tick(&ccr, self.cycle, &mut self.sink);
                    self.stats.commits += rc + sc;
                    self.stats.squashes += rs + ss;
                }
            }
        }
        // 4. Issue, into the effect buffer the previous issued cycle
        // cleared.
        debug_assert_eq!(self.out, CycleOut::default(), "effect buffer not cleared");
        let issued_word = self.pc;
        let stall = if self.busy_until >= self.cycle {
            self.stats.stall_busy += 1;
            Some(StallKind::Busy)
        } else {
            if self.pc >= self.prog.words.len() {
                return Err(VliwError::Malformed(
                    "execution fell off the program end".into(),
                ));
            }
            // Front-end gate shared by both engines: the word
            // must have arrived from the I$ (or fixed-latency fetch)
            // before it can issue.  Perfect memory never stalls here.
            if self.mem.fetch_stalls(self.pc, self.cycle) {
                self.stats.stall_ifetch += 1;
                Some(StallKind::IFetch)
            } else {
                match self.mode {
                    Mode::Normal => match self.cfg.engine {
                        Engine::Tabled => self.issue_normal_tabled()?,
                        Engine::Legacy => self.issue_normal()?,
                    },
                    Mode::Recovery { future, .. } => self.issue_recovery(&future)?,
                }
            }
        };
        // 5. End of cycle: writebacks run unconditionally (loads mature
        // during stalls too); then this word's effects.
        let landed = self.writeback_inflight()?;
        if let Some(kind) = stall {
            self.end_cycle(issued_word, Some(kind));
            self.skip_stall_run(kind, landed);
            return Ok(StepOutcome::Running);
        }
        if !self.out.conds.is_empty() {
            let mut candidate = self.ccr;
            for &(c, v) in &self.out.conds {
                candidate.set(c, v);
            }
            let store_exc = self
                .out
                .stores
                .iter()
                .any(|s| s.exc && s.pred.eval(&candidate) == Cond::True);
            if store_exc || self.exception_would_commit(&candidate) {
                // Suppress the CCR update; discard this entire word
                // (writes, stores and control) — it will fully
                // re-execute at the EPC after recovery.
                self.enter_recovery(issued_word, candidate);
                self.end_cycle(issued_word, None);
                return Ok(StepOutcome::Running);
            }
            let cycle = self.cycle;
            for &(c, v) in &self.out.conds {
                self.ccr.set(c, v);
                self.sink.push(|| Event::CondSet {
                    cycle,
                    c,
                    value: Cond::from_bool(v),
                });
            }
        }
        self.apply_writes()?;
        for s in &self.out.stores {
            self.sb.append(
                s.addr,
                s.value,
                s.pred,
                s.spec,
                s.exc,
                self.cycle,
                &mut self.sink,
            );
        }
        if self.out.halt {
            // The halt cycle is sampled before the drain (the drain's
            // store-retire cycles have no PC to attribute).
            self.take_sample(issued_word, None);
            return Ok(StepOutcome::Halted);
        }
        if let Some(target) = self.out.jump {
            self.enter_region(target);
            self.busy_until = self.busy_until.max(self.cycle) + self.cfg.taken_jump_penalty;
        } else {
            let next = self.pc + 1;
            let falls_into_region = match self.cfg.engine {
                // Pre-resolved at decode time — no per-cycle search.
                Engine::Tabled => self.decoded.words[self.pc].falls_into_region,
                Engine::Legacy => {
                    next < self.prog.words.len()
                        && self.prog.region_starts.binary_search(&next).is_ok()
                }
            };
            if falls_into_region {
                self.enter_region(next);
            } else {
                self.pc = next;
            }
        }
        self.out.clear();
        self.end_cycle(issued_word, None);
        Ok(StepOutcome::Running)
    }

    /// Called once a stall cycle of `kind` has ended (`landed`: its
    /// writeback retired an in-flight write).  Under [`Engine::Tabled`],
    /// when every following cycle up to a known wake cycle would repeat
    /// that stall and change nothing else, this jumps `cycle` to the
    /// wake cycle and charges the skipped cycles to `kind`'s
    /// [`RunStats`] bucket in one add.  That holds when no write landed,
    /// the machine is in normal mode, the sink takes no per-cycle
    /// samples, and the store buffer's head is empty or a valid
    /// speculative entry (DESIGN.md §12.6 gives the argument).  The wake
    /// cycle is the earliest of the next in-flight write's maturity, the
    /// end of a `Busy` stall, the fetched word's arrival (`IFetch`) and
    /// the first cycle past the limit.  [`Engine::Legacy`] steps every
    /// cycle and is the reference.
    ///
    /// Cold and out of line, conditions included: checked in line on
    /// every stall they cost the perfect-memory runs, whose stall runs
    /// are one or two cycles long, more than the skip saves.
    #[cold]
    #[inline(never)]
    fn skip_stall_run(&mut self, kind: StallKind, landed: bool) {
        if landed
            || !matches!(self.cfg.engine, Engine::Tabled)
            || self.mode != Mode::Normal
            || self.sink.sample_enabled()
            || !self.sb.head_blocks_retire()
        {
            return;
        }
        let limit = self.cfg.max_cycles.saturating_add(1);
        let mut wake = self
            .inflight
            .iter()
            .map(|f| f.ready_end)
            .fold(limit, u64::min);
        let bucket = match kind {
            StallKind::Busy => {
                wake = wake.min(self.busy_until + 1);
                &mut self.stats.stall_busy
            }
            StallKind::IFetch => {
                wake = wake.min(self.mem.fetch_ready_at());
                &mut self.stats.stall_ifetch
            }
            StallKind::Operand => &mut self.stats.stall_operand,
            StallKind::LoadMiss => &mut self.stats.stall_load_miss,
            StallKind::SbFull => return,
        };
        if wake > self.cycle {
            *bucket += wake - self.cycle;
            self.cycle = wake;
        }
    }

    /// Halt: close the final region and drain the pipeline and store
    /// buffer, charging one cycle per D-cache write beyond the halt
    /// cycle.  Must only be called after
    /// [`step_cycle`](Self::step_cycle) returned
    /// [`StepOutcome::Halted`]; consuming the machine makes stepping a
    /// halted machine impossible by construction.
    ///
    /// # Errors
    ///
    /// [`VliwError::Malformed`] if an unresolved speculative store is
    /// still buffered at halt (an invariant violation).
    fn finish(mut self) -> Result<(VliwResult, S), VliwError> {
        let cycle = self.cycle;
        self.stats.squashes += self.regs.squash_spec(cycle, &mut self.sink);
        self.stats.squashes += self.sb.squash_spec(cycle, &mut self.sink);
        // Resolve in-flight writes (same rule as a region exit).
        let ccr = self.ccr;
        let mut landed = Vec::new();
        for f in self.inflight.drain(..) {
            if f.pred.eval(&ccr) == Cond::True {
                landed.push((f.dest, f.value));
            }
        }
        for (dest, value) in landed {
            self.regs.write_seq(dest, value);
            self.sink.push(|| Event::SeqWrite { cycle, reg: dest });
        }
        let mut cycles = self.cycle;
        while !self.sb.is_empty() {
            let n = self.sb.retire(&mut self.memory, RETIRE_PER_CYCLE);
            if n > 0 {
                cycles += 1;
            } else if !self.sb.is_empty() {
                return Err(VliwError::Malformed(
                    "unresolved speculative store left in the buffer at halt".into(),
                ));
            }
        }
        // Fold the memory system's access/miss totals into the stats
        // (all zero under non-cache models, keeping Perfect identical).
        let mc = self.mem.counters();
        self.stats.icache_accesses = mc.icache_accesses;
        self.stats.icache_misses = mc.icache_misses;
        self.stats.dcache_accesses = mc.dcache_accesses;
        self.stats.dcache_misses = mc.dcache_misses;
        let mut sink = self.sink;
        Ok((
            VliwResult {
                cycles,
                stats: self.stats,
                regs: self.regs.seq_values(),
                memory: self.memory,
                events: sink.take_events(),
            },
            sink,
        ))
    }
}

#[cfg(test)]
mod tests;
