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

use crate::config::{Engine, MachineConfig};
use crate::decoded::{DecodedProgram, DecodedSlot};
use crate::dispatch;
use crate::event::{Event, EventLog, StateLoc};
use crate::mem::MemorySystem;
use crate::obs::{CycleSample, StallKind, TraceSink};
use crate::regfile::PredicatedRegFile;
use crate::storebuf::PredicatedStoreBuffer;
use psb_isa::{
    AluOp, Ccr, CmpOp, Cond, CondReg, FuClass, MemFault, Memory, MultiOp, Op, Predicate, Reg,
    SlotOp, Src, VliwProgram, NUM_REGS,
};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

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
    /// The program decoded once into dense `Copy` arenas; read every cycle
    /// by [`Engine::Tabled`], ignored by [`Engine::Legacy`].  Shared
    /// (`Arc`) so a compiled artifact's arena is borrowed by every machine
    /// built over it instead of being re-lowered per construction.
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
    /// Reusable issue buffer for the tabled engine: taken at issue,
    /// recycled (cleared, allocations kept) at end of cycle, so
    /// steady-state issue never touches the allocator.
    scratch: CycleOut,
}

/// What `issue` decided for the end of the cycle.
#[derive(Clone, Debug, Default)]
struct CycleOut {
    writes: Vec<PendingWrite>,
    stores: Vec<PendingStore>,
    conds: Vec<(CondReg, bool)>,
    jump: Option<usize>,
    halt: bool,
}

/// What `issue` produced: a word's effects, or the reason it stalled.
enum IssueOutcome {
    Issued(CycleOut),
    Stalled(StallKind),
}

/// What one call to [`VliwMachine::step_cycle`] did.
///
/// Lockstep drivers (the batched sweep engine in [`crate::batch`]) use
/// this to decide whether a lane takes another cycle or retires; the
/// solo [`VliwMachine::run_into_sink`] loop is the canonical consumer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepOutcome {
    /// The machine took one architectural cycle (issue, stall or
    /// recovery entry) and can step again.
    Running,
    /// The machine issued its halt word this cycle.  No further cycles
    /// may be stepped; the caller must finish with
    /// [`VliwMachine::finish`] to drain buffered state into a
    /// [`VliwResult`].
    Halted,
}

/// A fused normal-mode slot handler from the generated dispatch table
/// (predicate evaluation + execution in one call).
type SlotNormalFn<'p, S> =
    fn(&mut VliwMachine<'p, S>, DecodedSlot, &mut CycleOut) -> Result<(), VliwError>;

/// A fused recovery-mode slot handler from the generated dispatch table.
type SlotRecoveryFn<'p, S> =
    fn(&mut VliwMachine<'p, S>, DecodedSlot, &Ccr, &mut CycleOut) -> Result<(), VliwError>;

/// A per-class specialised word-issue path from the generated dispatch
/// table.
type WordIssueFn<'p, S> = fn(&mut VliwMachine<'p, S>) -> Result<IssueOutcome, VliwError>;

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
    /// [`step_cycle`](VliwMachine::step_cycle) has this loop as its only
    /// caller.  Other sinks use [`run_into_sink`](VliwMachine::run_into_sink).
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
    /// must be the decoding of `prog` (a compiled artifact guarantees
    /// this by construction).
    ///
    /// # Errors
    ///
    /// [`VliwError::Malformed`] if the program fails validation, exceeds
    /// the configured issue width or function-unit counts, the arena's
    /// word count does not match the program's, or the arena's generated
    /// dispatch lowering fails
    /// [`DecodedProgram::validate_dispatch`] — a corrupted table index is
    /// rejected here, at construction, never at issue time.
    pub fn with_sink_decoded(
        prog: &'p VliwProgram,
        decoded: Arc<DecodedProgram>,
        cfg: MachineConfig,
        sink: S,
    ) -> Result<VliwMachine<'p, S>, VliwError> {
        Self::validate_for(prog, &cfg)?;
        if decoded.words.len() != prog.words.len() {
            return Err(VliwError::Malformed(
                "pre-decoded arena does not match the program".to_string(),
            ));
        }
        decoded
            .validate_dispatch()
            .map_err(|e| VliwError::Malformed(format!("pre-decoded arena rejected: {e}")))?;
        Ok(Self::build(prog, decoded, cfg, sink))
    }

    /// The construction-time checks shared by every constructor: program
    /// validation plus issue-width and function-unit admission.
    pub(crate) fn validate_for(prog: &VliwProgram, cfg: &MachineConfig) -> Result<(), VliwError> {
        cfg.memory
            .validate()
            .map_err(|e| VliwError::Malformed(format!("memory model: {e}")))?;
        prog.validate().map_err(VliwError::Malformed)?;
        for (addr, word) in prog.words.iter().enumerate() {
            if word.slots.len() > cfg.issue_width {
                return Err(VliwError::Malformed(format!(
                    "word {addr} has {} slots, issue width is {}",
                    word.slots.len(),
                    cfg.issue_width
                )));
            }
            let count = |c: FuClass| word.slots.iter().filter(|s| s.op.fu_class() == c).count();
            let r = cfg.resources;
            if count(FuClass::Alu) > r.alu
                || count(FuClass::Branch) > r.branch
                || count(FuClass::Load) > r.load
                || count(FuClass::Store) > r.store
            {
                return Err(VliwError::Malformed(format!(
                    "word {addr} exceeds function-unit resources"
                )));
            }
        }
        Ok(())
    }

    /// Assembles the machine once validation has passed.
    pub(crate) fn build(
        prog: &'p VliwProgram,
        decoded: Arc<DecodedProgram>,
        cfg: MachineConfig,
        sink: S,
    ) -> VliwMachine<'p, S> {
        let mut regs =
            PredicatedRegFile::new(NUM_REGS, cfg.shadow_mode).with_commit_scan(cfg.commit_scan);
        for &(r, v) in &prog.init_regs {
            regs.init(r, v);
        }
        VliwMachine {
            decoded,
            regs,
            sb: PredicatedStoreBuffer::new(cfg.store_buffer_size).with_commit_scan(cfg.commit_scan),
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
            scratch: CycleOut::default(),
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

    /// Bitmask of registers targeted by in-flight writes (the tabled
    /// engine's hazard screen intersects this with the word's source union).
    #[inline]
    fn inflight_dest_mask(&self) -> u64 {
        self.inflight
            .iter()
            .fold(0u64, |m, f| m | (1u64 << f.dest.index()))
    }

    /// Bitmask of registers whose in-flight write matures in a *later*
    /// cycle.  Entries maturing this cycle are excluded: they write back
    /// before this word's direct writes apply, so program order holds
    /// without an interlock.
    #[inline]
    fn waw_pending_mask(&self) -> u64 {
        let cycle = self.cycle;
        self.inflight
            .iter()
            .filter(|f| f.ready_end > cycle)
            .fold(0u64, |m, f| m | (1u64 << f.dest.index()))
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
            if pending != 0 {
                if let SlotOp::Op(op) = slot.op {
                    if let Some(rd) = op.def_reg() {
                        if pending & (1u64 << rd.index()) != 0 {
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
    /// in-flight write matures in a later cycle.  Shared by the tabled
    /// engine's normal and recovery screens (their read-after-write half
    /// stays mask-based on the fast path).
    ///
    /// [`operand_in_flight`]: Self::operand_in_flight
    fn waw_in_flight_decoded(&self, range: std::ops::Range<usize>) -> bool {
        let pending = self.waw_pending_mask();
        if pending == 0 {
            return false;
        }
        for i in range {
            let s = self.decoded.slots[i];
            if let SlotOp::Op(op) = s.op {
                if let Some(rd) = op.def_reg() {
                    if pending & (1u64 << rd.index()) != 0 && s.pred.eval(&self.ccr) != Cond::False
                    {
                        return true;
                    }
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
    /// every cycle, including stall cycles.
    fn writeback_inflight(&mut self) -> Result<(), VliwError> {
        let cycle = self.cycle;
        let mut i = 0;
        while i < self.inflight.len() {
            if self.inflight[i].ready_end > cycle {
                i += 1;
                continue;
            }
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
        Ok(())
    }

    fn apply_writes(&mut self, writes: &[PendingWrite]) -> Result<(), VliwError> {
        let cycle = self.cycle;
        for w in writes {
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
        // Force-complete in-flight writes from earlier words; the rolled
        // back word's own effects are discarded entirely (it re-executes).
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
        self.busy_until = self.busy_until.max(self.cycle) + self.cfg.rollback_penalty;
        self.stats.recoveries += 1;
    }

    /// Issues the word at PC in normal mode, or reports why it stalled.
    fn issue_normal(&mut self) -> Result<IssueOutcome, VliwError> {
        let word = self.prog.words[self.pc].clone();
        // Stall checks.
        if self.operand_in_flight(&word) {
            let kind = self.operand_stall();
            return Ok(IssueOutcome::Stalled(kind));
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
            return Ok(IssueOutcome::Stalled(StallKind::SbFull));
        }

        let mut out = CycleOut::default();
        self.stats.words_issued += 1;
        for slot in &word.slots {
            let pv = slot.pred.eval(&self.ccr);
            if pv == Cond::False {
                self.stats.ops_squashed += 1;
                continue;
            }
            self.exec_slot_normal(slot.pred, slot.op, pv == Cond::True, &mut out)?;
        }
        Ok(IssueOutcome::Issued(out))
    }

    // ------------------------------------------------------------------
    // Shared per-op execution.  Both issue engines — legacy and tabled —
    // funnel live slots through these methods, so the per-op semantics
    // cannot drift between engines.  The cold error
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

    /// A slot's generated handler index disagrees with its operation.
    /// Unreachable after [`DecodedProgram::validate_dispatch`]; kept as a
    /// typed error so a table mismatch can never become a wrong-handler
    /// silent misexecution.
    #[cold]
    fn dispatch_mismatch_error(&self) -> VliwError {
        VliwError::Malformed(format!(
            "word {}: dispatch table does not match the slot operation",
            self.pc
        ))
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_alu(
        &mut self,
        pred: Predicate,
        op: AluOp,
        rd: Reg,
        a: Src,
        b: Src,
        nonspec: bool,
        out: &mut CycleOut,
    ) {
        let v = op.apply(self.read_src(a, &pred), self.read_src(b, &pred));
        out.writes.push(PendingWrite {
            dest: rd,
            value: v,
            pred,
            nonspec,
            exc: false,
        });
        self.stats.ops_executed += 1;
    }

    fn exec_copy(&mut self, pred: Predicate, rd: Reg, src: Src, nonspec: bool, out: &mut CycleOut) {
        let v = self.read_src(src, &pred);
        out.writes.push(PendingWrite {
            dest: rd,
            value: v,
            pred,
            nonspec,
            exc: false,
        });
        self.stats.ops_executed += 1;
    }

    fn exec_setcond(
        &mut self,
        pred: Predicate,
        c: CondReg,
        cmp: CmpOp,
        a: Src,
        b: Src,
        out: &mut CycleOut,
    ) {
        let v = cmp.apply(self.read_src(a, &pred), self.read_src(b, &pred));
        out.conds.push((c, v));
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

    #[allow(clippy::too_many_arguments)]
    fn exec_store_normal(
        &mut self,
        pred: Predicate,
        base: Src,
        offset: i64,
        value: Src,
        nonspec: bool,
        out: &mut CycleOut,
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
        out.stores.push(PendingStore {
            addr,
            value: v,
            pred,
            spec: !nonspec,
            exc,
        });
        self.stats.ops_executed += 1;
        Ok(())
    }

    fn exec_jump(
        &mut self,
        target: usize,
        nonspec: bool,
        out: &mut CycleOut,
    ) -> Result<(), VliwError> {
        if nonspec {
            if out.jump.is_some() {
                return Err(self.double_jump_error());
            }
            out.jump = Some(target);
        }
        self.stats.ops_executed += 1;
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn exec_cmpbr(
        &mut self,
        pred: Predicate,
        c: Option<CondReg>,
        cmp: CmpOp,
        a: Src,
        b: Src,
        target: usize,
        out: &mut CycleOut,
    ) -> Result<(), VliwError> {
        let v = cmp.apply(self.read_src(a, &pred), self.read_src(b, &pred));
        if let Some(c) = c {
            out.conds.push((c, v));
        }
        if v {
            if out.jump.is_some() {
                return Err(self.double_jump_error());
            }
            out.jump = Some(target);
        }
        self.stats.ops_executed += 1;
        Ok(())
    }

    fn exec_halt(&mut self, out: &mut CycleOut) {
        out.halt = true;
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

    #[allow(clippy::too_many_arguments)]
    fn exec_store_recovery(
        &mut self,
        pred: Predicate,
        base: Src,
        offset: i64,
        value: Src,
        future: &Ccr,
        out: &mut CycleOut,
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
        out.stores.push(PendingStore {
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
    /// accumulating its effects into `out`.  Used by the legacy issue
    /// path; the tabled engine reaches the same `exec_*` methods through
    /// its generated handler table.
    fn exec_slot_normal(
        &mut self,
        pred: Predicate,
        op: SlotOp,
        nonspec: bool,
        out: &mut CycleOut,
    ) -> Result<(), VliwError> {
        match op {
            SlotOp::Op(Op::Nop) => {}
            SlotOp::Op(Op::Alu { op, rd, a, b }) => self.exec_alu(pred, op, rd, a, b, nonspec, out),
            SlotOp::Op(Op::Copy { rd, src }) => self.exec_copy(pred, rd, src, nonspec, out),
            SlotOp::Op(Op::SetCond { c, cmp, a, b }) => self.exec_setcond(pred, c, cmp, a, b, out),
            SlotOp::Op(Op::Load {
                rd, base, offset, ..
            }) => return self.exec_load_normal(pred, rd, base, offset, nonspec),
            SlotOp::Op(Op::Store {
                base,
                offset,
                value,
                ..
            }) => return self.exec_store_normal(pred, base, offset, value, nonspec, out),
            SlotOp::Jump { target } => return self.exec_jump(target, nonspec, out),
            SlotOp::CmpBr {
                c,
                cmp,
                a,
                b,
                target,
            } => return self.exec_cmpbr(pred, c, cmp, a, b, target, out),
            SlotOp::Halt => self.exec_halt(out),
        }
        Ok(())
    }

    /// Issues the word at PC in recovery mode (Section 3.5): instructions
    /// whose predicate is specified under the current condition are
    /// squashed; unspecified ones re-execute speculatively, and a re-raised
    /// exception is judged against the *future* condition.
    fn issue_recovery(&mut self, future: &Ccr) -> Result<IssueOutcome, VliwError> {
        let word = self.prog.words[self.pc].clone();
        if self.operand_in_flight(&word) {
            let kind = self.operand_stall();
            return Ok(IssueOutcome::Stalled(kind));
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
            return Ok(IssueOutcome::Stalled(StallKind::SbFull));
        }

        let mut out = CycleOut::default();
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
            self.exec_slot_recovery(slot.pred, slot.op, future, &mut out)?;
        }
        Ok(IssueOutcome::Issued(out))
    }

    /// Executes one unspecified-predicate slot in recovery mode,
    /// accumulating its effects into `out`.  A re-raised exception is
    /// judged against the *future* condition.  Used by the legacy issue
    /// path; the tabled engine reaches the same `exec_*` methods through
    /// its generated handler table.
    fn exec_slot_recovery(
        &mut self,
        pred: Predicate,
        op: SlotOp,
        future: &Ccr,
        out: &mut CycleOut,
    ) -> Result<(), VliwError> {
        match op {
            SlotOp::Jump { .. } | SlotOp::Halt => Err(self.recovery_unspecified_jump_error()),
            SlotOp::CmpBr { .. } | SlotOp::Op(Op::SetCond { .. }) => {
                Err(self.recovery_condset_error())
            }
            SlotOp::Op(Op::Nop) => Ok(()),
            SlotOp::Op(Op::Alu { op, rd, a, b }) => {
                self.exec_alu(pred, op, rd, a, b, false, out);
                Ok(())
            }
            SlotOp::Op(Op::Copy { rd, src }) => {
                self.exec_copy(pred, rd, src, false, out);
                Ok(())
            }
            SlotOp::Op(Op::Load {
                rd, base, offset, ..
            }) => self.exec_load_recovery(pred, rd, base, offset, future),
            SlotOp::Op(Op::Store {
                base,
                offset,
                value,
                ..
            }) => self.exec_store_recovery(pred, base, offset, value, future, out),
        }
    }

    // ------------------------------------------------------------------
    // Tabled engine: build-time-generated dispatch.
    //
    // `build.rs` emits the table macros and the index functions decode
    // uses to lower each slot/word; the associated consts below expand
    // those macros into dense function-pointer tables.  Each table entry
    // is a monomorphisation of `h_normal`/`h_recovery`/`wi_normal` over
    // const generics, so the op-kind match and the specialisation
    // branches below constant-fold away — one direct-called handler per
    // (kind, always) pair and per word class, with predicate evaluation,
    // hazard screening and execution fused into the single call.
    // ------------------------------------------------------------------

    /// Normal-mode slot handlers, indexed by [`DecodedSlot::handler`].
    const SLOT_NORMAL: [SlotNormalFn<'p, S>; dispatch::NUM_SLOT_HANDLERS] =
        dispatch::slot_normal_table!();

    /// Recovery-mode slot handlers, indexed by [`DecodedSlot::handler`].
    const SLOT_RECOVERY: [SlotRecoveryFn<'p, S>; dispatch::NUM_SLOT_HANDLERS] =
        dispatch::slot_recovery_table!();

    /// Specialised normal-mode issue paths, indexed by
    /// [`DecodedWord::class`](crate::DecodedWord::class).
    const WORD_NORMAL: [WordIssueFn<'p, S>; dispatch::NUM_WORD_CLASSES] =
        dispatch::word_normal_table!();

    /// One generated normal-mode slot handler: predicate evaluation fused
    /// with execution for op kind `KIND`.  `ALWAYS` instantiations skip
    /// the CCR evaluation entirely (an `alw` predicate is always true).
    fn h_normal<const KIND: u8, const ALWAYS: bool>(
        &mut self,
        s: DecodedSlot,
        out: &mut CycleOut,
    ) -> Result<(), VliwError> {
        let pv = if ALWAYS {
            Cond::True
        } else {
            s.pred.eval(&self.ccr)
        };
        if pv == Cond::False {
            self.stats.ops_squashed += 1;
            return Ok(());
        }
        let nonspec = pv == Cond::True;
        match KIND {
            dispatch::K_NOP => Ok(()),
            dispatch::K_ALU => {
                let SlotOp::Op(Op::Alu { op, rd, a, b }) = s.op else {
                    return Err(self.dispatch_mismatch_error());
                };
                self.exec_alu(s.pred, op, rd, a, b, nonspec, out);
                Ok(())
            }
            dispatch::K_COPY => {
                let SlotOp::Op(Op::Copy { rd, src }) = s.op else {
                    return Err(self.dispatch_mismatch_error());
                };
                self.exec_copy(s.pred, rd, src, nonspec, out);
                Ok(())
            }
            dispatch::K_SET_COND => {
                let SlotOp::Op(Op::SetCond { c, cmp, a, b }) = s.op else {
                    return Err(self.dispatch_mismatch_error());
                };
                self.exec_setcond(s.pred, c, cmp, a, b, out);
                Ok(())
            }
            dispatch::K_LOAD => {
                let SlotOp::Op(Op::Load {
                    rd, base, offset, ..
                }) = s.op
                else {
                    return Err(self.dispatch_mismatch_error());
                };
                self.exec_load_normal(s.pred, rd, base, offset, nonspec)
            }
            dispatch::K_STORE => {
                let SlotOp::Op(Op::Store {
                    base,
                    offset,
                    value,
                    ..
                }) = s.op
                else {
                    return Err(self.dispatch_mismatch_error());
                };
                self.exec_store_normal(s.pred, base, offset, value, nonspec, out)
            }
            dispatch::K_JUMP => {
                let SlotOp::Jump { target } = s.op else {
                    return Err(self.dispatch_mismatch_error());
                };
                self.exec_jump(target, nonspec, out)
            }
            dispatch::K_CMP_BR => {
                let SlotOp::CmpBr {
                    c,
                    cmp,
                    a,
                    b,
                    target,
                } = s.op
                else {
                    return Err(self.dispatch_mismatch_error());
                };
                self.exec_cmpbr(s.pred, c, cmp, a, b, target, out)
            }
            dispatch::K_HALT => {
                self.exec_halt(out);
                Ok(())
            }
            _ => Err(self.dispatch_mismatch_error()),
        }
    }

    /// One generated recovery-mode slot handler, the fused counterpart of
    /// the squash/re-execute split in
    /// [`issue_recovery`](Self::issue_recovery) +
    /// [`exec_slot_recovery`](Self::exec_slot_recovery).
    fn h_recovery<const KIND: u8, const ALWAYS: bool>(
        &mut self,
        s: DecodedSlot,
        future: &Ccr,
        out: &mut CycleOut,
    ) -> Result<(), VliwError> {
        let pv = if ALWAYS {
            Cond::True
        } else {
            s.pred.eval(&self.ccr)
        };
        if pv != Cond::Unspecified {
            // Category 1: already updated the sequential state, or must
            // not update any state.  Jumps and halts here always carry
            // specified-false predicates (a true one would have left the
            // region originally).
            if (KIND == dispatch::K_JUMP || KIND == dispatch::K_HALT) && pv == Cond::True {
                return Err(self.recovery_jump_true_error());
            }
            self.stats.ops_squashed += 1;
            return Ok(());
        }
        match KIND {
            dispatch::K_JUMP | dispatch::K_HALT => Err(self.recovery_unspecified_jump_error()),
            dispatch::K_CMP_BR | dispatch::K_SET_COND => Err(self.recovery_condset_error()),
            dispatch::K_NOP => Ok(()),
            dispatch::K_ALU => {
                let SlotOp::Op(Op::Alu { op, rd, a, b }) = s.op else {
                    return Err(self.dispatch_mismatch_error());
                };
                self.exec_alu(s.pred, op, rd, a, b, false, out);
                Ok(())
            }
            dispatch::K_COPY => {
                let SlotOp::Op(Op::Copy { rd, src }) = s.op else {
                    return Err(self.dispatch_mismatch_error());
                };
                self.exec_copy(s.pred, rd, src, false, out);
                Ok(())
            }
            dispatch::K_LOAD => {
                let SlotOp::Op(Op::Load {
                    rd, base, offset, ..
                }) = s.op
                else {
                    return Err(self.dispatch_mismatch_error());
                };
                self.exec_load_recovery(s.pred, rd, base, offset, future)
            }
            dispatch::K_STORE => {
                let SlotOp::Op(Op::Store {
                    base,
                    offset,
                    value,
                    ..
                }) = s.op
                else {
                    return Err(self.dispatch_mismatch_error());
                };
                self.exec_store_recovery(s.pred, base, offset, value, future, out)
            }
            _ => Err(self.dispatch_mismatch_error()),
        }
    }

    /// One generated normal-mode word-issue path, specialised by word
    /// class: `COND` = any slot carries a conditional predicate, `STORE` =
    /// the word contains store slots, `CONTROL` = it contains a control
    /// transfer.  Classes without a given feature skip that prepass
    /// entirely — e.g. an all-`alw`, store-and-control-free word goes
    /// straight from the mask hazard screen to its slot handlers.
    fn wi_normal<const COND: bool, const STORE: bool, const CONTROL: bool>(
        &mut self,
    ) -> Result<IssueOutcome, VliwError> {
        let w = self.decoded.words[self.pc];
        let range = DecodedProgram::slot_range(&w);
        // Operand hazard: the union mask screens the whole word; only on a
        // hit does the precise, predicate-gated per-slot check run.
        if !self.inflight.is_empty() {
            let inflight = self.inflight_dest_mask();
            if w.src_union & inflight != 0 {
                for i in range.clone() {
                    let s = self.decoded.slots[i];
                    if s.src_mask & inflight != 0
                        && (!COND || s.pred.eval(&self.ccr) != Cond::False)
                    {
                        let kind = self.operand_stall();
                        return Ok(IssueOutcome::Stalled(kind));
                    }
                }
            }
            if self.waw_in_flight_decoded(range.clone()) {
                let kind = self.operand_stall();
                return Ok(IssueOutcome::Stalled(kind));
            }
        }
        if CONTROL || STORE {
            if COND {
                // Conditional predicates present: the full store/control
                // prepass, as in `issue_normal`.
                let mut store_count = 0;
                for i in range.clone() {
                    let s = self.decoded.slots[i];
                    match s.op {
                        SlotOp::Jump { .. } | SlotOp::Halt | SlotOp::CmpBr { .. }
                            if CONTROL && s.pred.eval(&self.ccr) == Cond::Unspecified =>
                        {
                            return Err(self.control_unspecified_error(s.pred));
                        }
                        SlotOp::Op(Op::Store { .. })
                            if STORE && s.pred.eval(&self.ccr) != Cond::False =>
                        {
                            store_count += 1;
                        }
                        _ => {}
                    }
                }
                if STORE && self.sb.would_overflow(store_count) {
                    self.stats.stall_sb_full += 1;
                    return Ok(IssueOutcome::Stalled(StallKind::SbFull));
                }
            } else if STORE && self.sb.would_overflow(w.store_slots as usize) {
                // Every predicate is `alw` (evaluates true), so every
                // store slot counts and no control transfer can be
                // unspecified — the prepass reduces to one overflow check
                // against the pre-counted store slots.
                self.stats.stall_sb_full += 1;
                return Ok(IssueOutcome::Stalled(StallKind::SbFull));
            }
        }

        let mut out = self.take_scratch();
        self.stats.words_issued += 1;
        for i in range {
            let s = self.decoded.slots[i];
            Self::SLOT_NORMAL[s.handler as usize](self, s, &mut out)?;
        }
        Ok(IssueOutcome::Issued(out))
    }

    /// Issues the word at PC in normal mode via the generated dispatch
    /// tables: the word's class selects a specialised issue path, which
    /// calls one fused handler per slot.
    #[inline]
    fn issue_normal_tabled(&mut self) -> Result<IssueOutcome, VliwError> {
        Self::WORD_NORMAL[self.decoded.words[self.pc].class as usize](self)
    }

    /// Issues the word at PC in recovery mode via the generated dispatch
    /// tables — recovery cycles are rare, so only the per-slot dispatch is
    /// tabled; the screening prepasses are those of
    /// [`issue_recovery`](Self::issue_recovery), read from the decoded
    /// arena (one mask intersection screens operand hazards, and the
    /// store prepass is skipped for store-free words).
    fn issue_recovery_tabled(&mut self, future: &Ccr) -> Result<IssueOutcome, VliwError> {
        let w = self.decoded.words[self.pc];
        let range = DecodedProgram::slot_range(&w);
        if !self.inflight.is_empty() {
            let inflight = self.inflight_dest_mask();
            if w.src_union & inflight != 0 {
                for i in range.clone() {
                    let s = self.decoded.slots[i];
                    if s.src_mask & inflight != 0 && s.pred.eval(&self.ccr) != Cond::False {
                        let kind = self.operand_stall();
                        return Ok(IssueOutcome::Stalled(kind));
                    }
                }
            }
            if self.waw_in_flight_decoded(range.clone()) {
                let kind = self.operand_stall();
                return Ok(IssueOutcome::Stalled(kind));
            }
        }
        if w.store_slots > 0 {
            let mut store_count = 0;
            for i in range.clone() {
                let s = self.decoded.slots[i];
                if let SlotOp::Op(Op::Store { .. }) = s.op {
                    if s.pred.eval(&self.ccr) == Cond::Unspecified {
                        store_count += 1;
                    }
                }
            }
            if self.sb.would_overflow(store_count) {
                self.stats.stall_sb_full += 1;
                return Ok(IssueOutcome::Stalled(StallKind::SbFull));
            }
        }

        let mut out = self.take_scratch();
        self.stats.words_issued += 1;
        for i in range {
            let s = self.decoded.slots[i];
            Self::SLOT_RECOVERY[s.handler as usize](self, s, future, &mut out)?;
        }
        Ok(IssueOutcome::Issued(out))
    }

    /// Takes the reusable issue buffer (empty, but with its vector
    /// allocations intact from the previous cycle's
    /// [`recycle`](Self::recycle)).
    #[inline]
    fn take_scratch(&mut self) -> CycleOut {
        std::mem::take(&mut self.scratch)
    }

    /// Returns an issue buffer to the scratch slot for the next cycle,
    /// clearing its contents but keeping its allocations.
    #[inline]
    fn recycle(&mut self, mut out: CycleOut) {
        out.writes.clear();
        out.stores.clear();
        out.conds.clear();
        out.jump = None;
        out.halt = false;
        self.scratch = out;
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

    /// Takes exactly one architectural cycle: commit pass, store retire,
    /// recovery-exit check, issue (or stall), writeback, and the
    /// end-of-cycle sample.  This is the *entire* per-cycle semantics of
    /// the machine — [`run_into_sink`](Self::run_into_sink) is a bare
    /// loop over it, and the batched lockstep driver
    /// ([`BatchedMachine`](crate::BatchedMachine)) interleaves calls
    /// across lanes, so a lane's trajectory is byte-equal to a solo run
    /// by construction rather than by re-implementation.
    ///
    /// After [`StepOutcome::Halted`] the caller must not step again;
    /// finish with [`finish`](Self::finish).
    ///
    /// # Errors
    ///
    /// See [`VliwMachine::run`].
    pub fn step_cycle(&mut self) -> Result<StepOutcome, VliwError> {
        // The tabled engine's cycle driver proves the commit hardware
        // inert before invoking it: a pass over an empty register file or
        // store buffer commits nothing, squashes nothing and emits no
        // events, so skipping it is observation-free (the engine
        // differential holds the logs byte-equal).  The legacy engine
        // keeps the paper's literal always-on pass, exactly as
        // [`CommitScan::Naive`] stays the reference strategy for the
        // indexed scan.
        let tabled = matches!(self.cfg.engine, Engine::Tabled);
        {
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
                self.sb.retire(&mut self.memory, self.cfg.retire_per_cycle);
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
            // 4. Issue.
            let issued_word = self.pc;
            let outcome = if self.busy_until >= self.cycle {
                self.stats.stall_busy += 1;
                IssueOutcome::Stalled(StallKind::Busy)
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
                    IssueOutcome::Stalled(StallKind::IFetch)
                } else {
                    match self.mode {
                        Mode::Normal => match self.cfg.engine {
                            Engine::Tabled => self.issue_normal_tabled()?,
                            Engine::Legacy => self.issue_normal()?,
                        },
                        Mode::Recovery { ref future, .. } => {
                            let future = *future;
                            match self.cfg.engine {
                                Engine::Tabled => self.issue_recovery_tabled(&future)?,
                                Engine::Legacy => self.issue_recovery(&future)?,
                            }
                        }
                    }
                }
            };
            // 5. End of cycle: writebacks run unconditionally (loads mature
            // during stalls too); then this word's effects.
            self.writeback_inflight()?;
            let out = match outcome {
                IssueOutcome::Issued(out) => out,
                IssueOutcome::Stalled(kind) => {
                    self.end_cycle(issued_word, Some(kind));
                    return Ok(StepOutcome::Running);
                }
            };
            if !out.conds.is_empty() {
                let mut candidate = self.ccr;
                for &(c, v) in &out.conds {
                    candidate.set(c, v);
                }
                let store_exc = out
                    .stores
                    .iter()
                    .any(|s| s.exc && s.pred.eval(&candidate) == Cond::True);
                if store_exc || self.exception_would_commit(&candidate) {
                    // Suppress the CCR update; discard this entire word
                    // (writes, stores and control) — it will fully
                    // re-execute at the EPC after recovery.
                    self.enter_recovery(issued_word, candidate);
                    self.recycle(out);
                    self.end_cycle(issued_word, None);
                    return Ok(StepOutcome::Running);
                }
                for &(c, v) in &out.conds {
                    self.ccr.set(c, v);
                    let cycle = self.cycle;
                    self.sink.push(|| Event::CondSet {
                        cycle,
                        c,
                        value: Cond::from_bool(v),
                    });
                }
            }
            self.apply_writes(&out.writes)?;
            for s in &out.stores {
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
            if out.halt {
                // The halt cycle is sampled before the drain (the drain's
                // store-retire cycles have no PC to attribute).
                self.take_sample(issued_word, None);
                return Ok(StepOutcome::Halted);
            }
            if let Some(target) = out.jump {
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
            self.recycle(out);
            self.end_cycle(issued_word, None);
        }
        Ok(StepOutcome::Running)
    }

    /// Halt: close the final region and drain the pipeline and store
    /// buffer, charging one cycle per D-cache write beyond the halt
    /// cycle.  Must only be called after
    /// [`step_cycle`](Self::step_cycle) returned
    /// [`StepOutcome::Halted`]; consuming the machine makes stepping a
    /// retired lane impossible by construction.
    ///
    /// # Errors
    ///
    /// [`VliwError::Malformed`] if an unresolved speculative store is
    /// still buffered at halt (an invariant violation).
    pub fn finish(mut self) -> Result<(VliwResult, S), VliwError> {
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
            let n = self.sb.retire(&mut self.memory, self.cfg.retire_per_cycle);
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
