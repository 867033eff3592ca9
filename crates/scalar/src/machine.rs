//! The scalar machine proper.

use psb_isa::{BlockId, MemFault, Memory, Op, Reg, ScalarProgram, Src, Terminator, NUM_REGS};
use std::collections::BTreeSet;
use std::fmt;

/// Timing and fault configuration of the scalar machine.
#[derive(Clone, PartialEq, Hash, Debug)]
pub struct ScalarConfig {
    /// Stall cycles charged when the instruction after a load reads the
    /// load destination (R3000 load interlock).
    pub load_use_stall: u64,
    /// Penalty cycles for a taken conditional branch.
    pub taken_branch_penalty: u64,
    /// Addresses whose *first* access raises a non-fatal fault costing
    /// [`ScalarConfig::fault_penalty`] cycles and then succeeds.
    pub fault_once_addrs: BTreeSet<i64>,
    /// Handler cost of a non-fatal fault.
    pub fault_penalty: u64,
    /// Safety limit; exceeding it aborts the run.
    pub max_cycles: u64,
    /// Whether to record the full dynamic branch trace (needed for the
    /// Table 3 reproduction; edge profiles are always recorded).
    pub record_branch_trace: bool,
}

impl Default for ScalarConfig {
    fn default() -> ScalarConfig {
        ScalarConfig {
            load_use_stall: 1,
            taken_branch_penalty: 1,
            fault_once_addrs: BTreeSet::new(),
            fault_penalty: 50,
            max_cycles: 200_000_000,
            record_branch_trace: true,
        }
    }
}

/// One dynamic conditional-branch outcome.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BranchRecord {
    /// The block whose terminator branched.
    pub block: BlockId,
    /// Whether the taken edge was followed.
    pub taken: bool,
}

/// The result of a completed scalar run.
#[derive(Clone, PartialEq, Debug)]
pub struct RunResult {
    /// Total cycles under the documented timing model.
    pub cycles: u64,
    /// Dynamic instruction count (straight-line ops + branches + jumps).
    pub dyn_instrs: u64,
    /// Dynamic loads.
    pub dyn_loads: u64,
    /// Dynamic stores.
    pub dyn_stores: u64,
    /// Dynamic conditional branches.
    pub dyn_branches: u64,
    /// Dynamic unconditional jumps.
    pub dyn_jumps: u64,
    /// Final register file.
    pub regs: Vec<i64>,
    /// Final memory.
    pub memory: Memory,
    /// Dynamic branch trace (empty unless recording was enabled).
    pub branch_trace: Vec<BranchRecord>,
    /// Taken/not-taken counts per branch block.
    pub edge_profile: crate::EdgeProfile,
    /// Number of non-fatal (fault-once) faults handled.
    pub faults_handled: u64,
}

impl RunResult {
    /// The final values of the given registers, in order.
    pub fn reg_values(&self, regs: &[Reg]) -> Vec<i64> {
        regs.iter().map(|r| self.regs[r.index()]).collect()
    }

    /// The observable architectural result: `live_out` register values plus
    /// final memory cells.  Two executions are equivalent iff these match.
    pub fn observable(&self, live_out: &[Reg]) -> (Vec<i64>, Vec<i64>) {
        (self.reg_values(live_out), self.memory.cells().to_vec())
    }
}

/// A failed scalar run.
#[derive(Clone, PartialEq, Debug)]
pub enum RunError {
    /// A fatal memory fault (NULL or unmapped access) reached a
    /// non-speculative instruction.
    Fault {
        /// The faulting block.
        block: BlockId,
        /// Index of the faulting instruction within the block
        /// (`usize::MAX` for the terminator).
        instr: usize,
        /// The fault.
        fault: MemFault,
    },
    /// The configured cycle limit was exceeded.
    CycleLimit(u64),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Fault {
                block,
                instr,
                fault,
            } => {
                write!(f, "fatal {fault} at {block}[{instr}]")
            }
            RunError::CycleLimit(n) => write!(f, "cycle limit {n} exceeded"),
        }
    }
}

impl std::error::Error for RunError {}

/// The R3000-like scalar machine.
#[derive(Clone, Debug)]
pub struct ScalarMachine<'p> {
    prog: &'p ScalarProgram,
    config: ScalarConfig,
    regs: [i64; NUM_REGS],
    memory: Memory,
    touched_faults: BTreeSet<i64>,
}

impl<'p> ScalarMachine<'p> {
    /// Creates a machine over `prog` with the given configuration.
    pub fn new(prog: &'p ScalarProgram, config: ScalarConfig) -> ScalarMachine<'p> {
        let mut regs = [0i64; NUM_REGS];
        for &(r, v) in &prog.init_regs {
            regs[r.index()] = v;
        }
        ScalarMachine {
            prog,
            memory: Memory::from_image(&prog.memory),
            config,
            regs,
            touched_faults: BTreeSet::new(),
        }
    }

    /// Runs `prog` to completion with the default configuration.
    ///
    /// # Errors
    ///
    /// See [`ScalarMachine::run`].
    pub fn run_to_completion(prog: &ScalarProgram) -> Result<RunResult, RunError> {
        ScalarMachine::new(prog, ScalarConfig::default()).run()
    }

    fn read(&self, s: Src) -> i64 {
        match s {
            Src::Reg { reg, .. } => {
                if reg.is_zero() {
                    0
                } else {
                    self.regs[reg.index()]
                }
            }
            Src::Imm(v) => v,
        }
    }

    fn write_reg(&mut self, r: Reg, v: i64) {
        if !r.is_zero() {
            self.regs[r.index()] = v;
        }
    }

    /// Charges the fault-once penalty if `addr` is a configured faulting
    /// address not yet touched; returns the cycles charged.
    fn fault_cycles(&mut self, addr: i64, faults: &mut u64) -> u64 {
        if self.config.fault_once_addrs.contains(&addr) && self.touched_faults.insert(addr) {
            *faults += 1;
            self.config.fault_penalty
        } else {
            0
        }
    }

    /// Executes the program to completion.
    ///
    /// # Errors
    ///
    /// [`RunError::Fault`] on a fatal memory fault, [`RunError::CycleLimit`]
    /// if the configured limit is exceeded.
    pub fn run(mut self) -> Result<RunResult, RunError> {
        let mut cycles: u64 = 0;
        let mut dyn_instrs: u64 = 0;
        let (mut dyn_loads, mut dyn_stores, mut dyn_branches, mut dyn_jumps) =
            (0u64, 0u64, 0u64, 0u64);
        let mut faults: u64 = 0;
        let mut trace = Vec::new();
        let mut profile = crate::EdgeProfile::new(self.prog.blocks.len());
        let mut block = self.prog.entry;
        // Register whose value is still in the load delay slot.
        let mut pending_load: Option<Reg> = None;

        loop {
            let b = self.prog.block(block);
            for (i, op) in b.instrs.iter().enumerate() {
                if cycles > self.config.max_cycles {
                    return Err(RunError::CycleLimit(self.config.max_cycles));
                }
                if let Some(p) = pending_load.take() {
                    if op.used_regs().contains(p) {
                        cycles += self.config.load_use_stall;
                    }
                }
                cycles += 1;
                dyn_instrs += 1;
                match *op {
                    Op::Alu { op, rd, a, b } => {
                        let v = op.apply(self.read(a), self.read(b));
                        self.write_reg(rd, v);
                    }
                    Op::Copy { rd, src } => {
                        let v = self.read(src);
                        self.write_reg(rd, v);
                    }
                    Op::Load {
                        rd, base, offset, ..
                    } => {
                        dyn_loads += 1;
                        let addr = self.read(base).wrapping_add(offset);
                        cycles += self.fault_cycles(addr, &mut faults);
                        let v = self.memory.read(addr).map_err(|fault| RunError::Fault {
                            block,
                            instr: i,
                            fault,
                        })?;
                        self.write_reg(rd, v);
                        pending_load = Some(rd);
                    }
                    Op::Store {
                        base,
                        offset,
                        value,
                        ..
                    } => {
                        dyn_stores += 1;
                        let addr = self.read(base).wrapping_add(offset);
                        cycles += self.fault_cycles(addr, &mut faults);
                        let v = self.read(value);
                        self.memory
                            .write(addr, v)
                            .map_err(|fault| RunError::Fault {
                                block,
                                instr: i,
                                fault,
                            })?;
                    }
                    Op::SetCond { .. } => {
                        unreachable!("scalar programs have no condition-set ops (validated)")
                    }
                    Op::Nop => {}
                }
            }

            if let Some(p) = pending_load.take() {
                if b.term.used_regs().contains(p) {
                    cycles += self.config.load_use_stall;
                }
            }
            match b.term {
                Terminator::Jump(t) => {
                    cycles += 1;
                    dyn_instrs += 1;
                    dyn_jumps += 1;
                    block = t;
                }
                Terminator::Branch {
                    cmp,
                    a,
                    b: bb,
                    taken,
                    not_taken,
                } => {
                    cycles += 1;
                    dyn_instrs += 1;
                    dyn_branches += 1;
                    let t = cmp.apply(self.read(a), self.read(bb));
                    profile.record(block, t);
                    if self.config.record_branch_trace {
                        trace.push(BranchRecord { block, taken: t });
                    }
                    if t {
                        cycles += self.config.taken_branch_penalty;
                        block = taken;
                    } else {
                        block = not_taken;
                    }
                }
                Terminator::Halt => {
                    return Ok(RunResult {
                        cycles,
                        dyn_instrs,
                        dyn_loads,
                        dyn_stores,
                        dyn_branches,
                        dyn_jumps,
                        regs: self.regs.to_vec(),
                        memory: self.memory,
                        branch_trace: trace,
                        edge_profile: profile,
                        faults_handled: faults,
                    });
                }
            }
            if cycles > self.config.max_cycles {
                return Err(RunError::CycleLimit(self.config.max_cycles));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psb_isa::{AluOp, CmpOp, MemTag, ProgramBuilder};

    fn r(i: usize) -> Reg {
        Reg::new(i)
    }

    /// for r1 in 0..5 { mem[base+r1] = r1*2 }; r2 = sum(mem)
    fn loop_program() -> ScalarProgram {
        let mut pb = ProgramBuilder::new("loop");
        pb.memory_size(64);
        let body = pb.new_block();
        let sum_init = pb.new_block();
        let sum_body = pb.new_block();
        let done = pb.new_block();
        pb.block_mut(body)
            .alu(AluOp::Mul, r(3), r(1), 2)
            .alu(AluOp::Add, r(4), r(1), 16)
            .store(r(4), 0, r(3), MemTag(1))
            .alu(AluOp::Add, r(1), r(1), 1)
            .branch(CmpOp::Lt, r(1), 5, body, sum_init);
        pb.block_mut(sum_init)
            .copy(r(1), 0)
            .copy(r(2), 0)
            .jump(sum_body);
        pb.block_mut(sum_body)
            .alu(AluOp::Add, r(4), r(1), 16)
            .load(r(3), r(4), 0, MemTag(1))
            .alu(AluOp::Add, r(2), r(2), r(3))
            .alu(AluOp::Add, r(1), r(1), 1)
            .branch(CmpOp::Lt, r(1), 5, sum_body, done);
        pb.block_mut(done).halt();
        pb.set_entry(body);
        pb.live_out([r(2)]);
        pb.finish().unwrap()
    }

    #[test]
    fn loop_computes_sum() {
        let p = loop_program();
        let res = ScalarMachine::run_to_completion(&p).unwrap();
        assert_eq!(res.regs[2], 2 + 4 + 6 + 8);
        assert_eq!(res.memory.read(18).unwrap(), 4);
    }

    #[test]
    fn branch_trace_and_profile() {
        let p = loop_program();
        let res = ScalarMachine::run_to_completion(&p).unwrap();
        // 5 iterations of each loop: 4 taken + 1 not-taken per loop.
        assert_eq!(res.branch_trace.len(), 10);
        assert_eq!(res.edge_profile.counts(BlockId(0)), (4, 1));
        assert_eq!(res.edge_profile.counts(BlockId(2)), (4, 1));
    }

    #[test]
    fn load_use_interlock_charged() {
        // load then immediately use -> 1 stall; with a gap -> none.
        let mut pb = ProgramBuilder::new("interlock");
        pb.memory_size(16);
        let b = pb.new_block();
        pb.block_mut(b)
            .load(r(1), 4, 0, MemTag::ANY)
            .alu(AluOp::Add, r(2), r(1), 1)
            .halt();
        pb.set_entry(b);
        let tight = ScalarMachine::run_to_completion(&pb.finish().unwrap()).unwrap();

        let mut pb2 = ProgramBuilder::new("gap");
        pb2.memory_size(16);
        let b = pb2.new_block();
        pb2.block_mut(b)
            .load(r(1), 4, 0, MemTag::ANY)
            .alu(AluOp::Add, r(3), r(5), 1)
            .alu(AluOp::Add, r(2), r(1), 1)
            .halt();
        pb2.set_entry(b);
        let gapped = ScalarMachine::run_to_completion(&pb2.finish().unwrap()).unwrap();

        assert_eq!(tight.cycles, 3); // load + stall + add
        assert_eq!(gapped.cycles, 3); // load + add + add, no stall
    }

    #[test]
    fn load_use_interlock_covers_every_reader() {
        // `rd = mem[4]` (mem[4] = 5, a valid address), then `ops`, then
        // `term` into a halting block.  The load and every op, jump or
        // untaken branch take one cycle and a halt none, so a reader of
        // `rd` right after the load runs 3 cycles and anything else 2.
        let cycles = |rd: Reg, ops: &[Op], term: Terminator| {
            let mut pb = ProgramBuilder::new("reader");
            pb.memory_size(16);
            pb.mem_cell(4, 5);
            let (a, _) = (pb.new_block(), pb.new_block());
            let load = pb.block_mut(a).load(rd, 4, 0, MemTag::ANY);
            ops.iter().fold(load, |b, &op| b.push(op)).halt();
            pb.set_entry(a);
            let mut p = pb.finish().unwrap();
            p.blocks[a.index()].term = term;
            ScalarMachine::run_to_completion(&p).unwrap().cycles
        };
        let (r1, imm, tag) = (Src::reg(r(1)), Src::imm(1), MemTag::ANY);
        let add = |a, b| Op::Alu {
            op: AluOp::Add,
            rd: r(2),
            a,
            b,
        };
        let branch = |a, b| Terminator::Branch {
            cmp: CmpOp::Eq,
            a,
            b,
            taken: BlockId(1),
            not_taken: BlockId(1),
        };
        let halt = Terminator::Halt;
        let cases = [
            ("alu a", r(1), vec![add(r1, imm)], halt, 3),
            ("alu b", r(1), vec![add(imm, r1)], halt, 3),
            ("alu a and b", r(1), vec![add(r1, r1)], halt, 3),
            (
                "copy source",
                r(1),
                vec![Op::Copy { rd: r(2), src: r1 }],
                halt,
                3,
            ),
            (
                "load base",
                r(1),
                vec![Op::Load {
                    rd: r(2),
                    base: r1,
                    offset: 0,
                    tag,
                }],
                halt,
                3,
            ),
            (
                "store base",
                r(1),
                vec![Op::Store {
                    base: r1,
                    offset: 0,
                    value: imm,
                    tag,
                }],
                halt,
                3,
            ),
            (
                "store value",
                r(1),
                vec![Op::Store {
                    base: Src::imm(6),
                    offset: 0,
                    value: r1,
                    tag,
                }],
                halt,
                3,
            ),
            ("branch a", r(1), vec![], branch(r1, Src::imm(0)), 3),
            ("branch b", r(1), vec![], branch(Src::imm(0), r1), 3),
            ("jump", r(1), vec![], Terminator::Jump(BlockId(1)), 2),
            ("nop", r(1), vec![Op::Nop], halt, 2),
            (
                "other register",
                r(1),
                vec![add(Src::reg(r(3)), imm)],
                halt,
                2,
            ),
            // The check compares register indices: a load into r0 still
            // holds up a reader of r0.
            (
                "zero register",
                Reg::ZERO,
                vec![add(Src::reg(Reg::ZERO), imm)],
                halt,
                3,
            ),
            // Only the instruction right after the load can stall.
            ("second reader", r(1), vec![Op::Nop, add(r1, imm)], halt, 3),
        ];
        for (name, rd, ops, term, want) in cases {
            assert_eq!(cycles(rd, &ops, term), want, "{name}");
        }
    }

    #[test]
    fn taken_branch_penalty_charged() {
        let mut pb = ProgramBuilder::new("taken");
        let a = pb.new_block();
        let b = pb.new_block();
        pb.block_mut(a).branch(CmpOp::Eq, 0, 0, b, b);
        pb.block_mut(b).halt();
        pb.set_entry(a);
        let res = ScalarMachine::run_to_completion(&pb.finish().unwrap()).unwrap();
        assert_eq!(res.cycles, 2); // branch + taken penalty

        let mut pb = ProgramBuilder::new("nottaken");
        let a = pb.new_block();
        let b = pb.new_block();
        pb.block_mut(a).branch(CmpOp::Ne, 0, 0, b, b);
        pb.block_mut(b).halt();
        pb.set_entry(a);
        let res = ScalarMachine::run_to_completion(&pb.finish().unwrap()).unwrap();
        assert_eq!(res.cycles, 1);
    }

    #[test]
    fn fatal_null_fault() {
        let mut pb = ProgramBuilder::new("null");
        let b = pb.new_block();
        pb.block_mut(b).load(r(1), 0, 0, MemTag::ANY).halt();
        pb.set_entry(b);
        let err = ScalarMachine::run_to_completion(&pb.finish().unwrap()).unwrap_err();
        assert!(matches!(
            err,
            RunError::Fault {
                fault: MemFault::Null,
                ..
            }
        ));
    }

    #[test]
    fn fault_once_costs_penalty_then_succeeds() {
        let mut pb = ProgramBuilder::new("pf");
        pb.memory_size(16);
        pb.mem_cell(4, 7);
        let b = pb.new_block();
        pb.block_mut(b)
            .load(r(1), 4, 0, MemTag::ANY)
            .load(r(2), 4, 0, MemTag::ANY)
            .halt();
        pb.set_entry(b);
        let p = pb.finish().unwrap();
        let mut cfg = ScalarConfig::default();
        cfg.fault_once_addrs.insert(4);
        cfg.fault_penalty = 50;
        let res = ScalarMachine::new(&p, cfg).run().unwrap();
        assert_eq!(res.regs[1], 7);
        assert_eq!(res.regs[2], 7);
        assert_eq!(res.faults_handled, 1);
        assert_eq!(res.cycles, 50 + 2); // penalty + two loads, no interlock
    }

    #[test]
    fn cycle_limit() {
        let mut pb = ProgramBuilder::new("inf");
        let b = pb.new_block();
        pb.block_mut(b).jump(b);
        pb.set_entry(b);
        let p = pb.finish().unwrap();
        let cfg = ScalarConfig {
            max_cycles: 100,
            ..ScalarConfig::default()
        };
        assert_eq!(
            ScalarMachine::new(&p, cfg).run(),
            Err(RunError::CycleLimit(100))
        );
    }

    #[test]
    fn zero_register_reads_zero_and_ignores_writes() {
        let mut pb = ProgramBuilder::new("zero");
        let b = pb.new_block();
        pb.block_mut(b)
            .copy(Reg::ZERO, 42)
            .alu(AluOp::Add, r(1), Reg::ZERO, 5)
            .halt();
        pb.set_entry(b);
        let res = ScalarMachine::run_to_completion(&pb.finish().unwrap()).unwrap();
        assert_eq!(res.regs[0], 0);
        assert_eq!(res.regs[1], 5);
    }

    #[test]
    fn observable_state() {
        let p = loop_program();
        let res = ScalarMachine::run_to_completion(&p).unwrap();
        let (regs, mem) = res.observable(&p.live_out);
        assert_eq!(regs, vec![20]);
        assert_eq!(mem.len(), 64);
    }
}
