//! The architectural emulator proper.

use std::collections::HashMap;

use ses_isa::{decode, Instruction, Opcode, Program, INSTR_BYTES};
use ses_types::{Addr, SesError};

use crate::memory::DataMemory;
use crate::replay::{CheckpointRecorder, CheckpointedReplay, GoldenCheckpoints, ReplayVerdict};
use crate::state::ArchState;
use crate::trace::{DynInstr, ExecutionTrace};

/// Result of a (possibly fault-perturbed) functional run, used by the
/// fault-injection outcome classifier.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunOutcome {
    /// The program halted; here is its output stream.
    Completed {
        /// Values written by `out` instructions, in order.
        output: Vec<u64>,
    },
    /// Execution left the program image or hit an undecodable instruction.
    Crashed {
        /// Human-readable cause.
        reason: String,
    },
    /// The instruction budget ran out before `halt` (e.g. a corrupted
    /// branch created an infinite loop).
    TimedOut,
}

struct StepEffect {
    record: DynInstr,
    halt: bool,
}

/// A point-in-time copy of the architectural machine: registers,
/// predicates, PC, data memory, call depth, and dynamic-instruction index.
///
/// Snapshots support the idempotent-region recovery model: capture the
/// machine mid-run, rewind the PC to a region entry, and re-execute the
/// region prefix to prove (or disprove) that re-execution is
/// side-effect-free. The output stream is deliberately *not* part of the
/// snapshot — a resumed machine starts with an empty stream so re-emitted
/// values can be compared against the original records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineSnapshot {
    pub(crate) state: ArchState,
    pub(crate) mem: DataMemory,
    pub(crate) depth: u32,
    pub(crate) index: u64,
}

impl MachineSnapshot {
    /// The architectural register state (registers, predicates, PC).
    pub fn state(&self) -> &ArchState {
        &self.state
    }

    /// The data memory image.
    pub fn mem(&self) -> &DataMemory {
        &self.mem
    }

    /// The dynamic-instruction index the machine had reached.
    pub fn index(&self) -> u64 {
        self.index
    }

    /// Whether two snapshots agree on every *recoverable* component:
    /// registers, predicates, PC, and data memory. Call depth and dynamic
    /// index are bookkeeping, not architectural state, and are excluded —
    /// re-executing a region legitimately advances both.
    pub fn same_arch_state(&self, other: &MachineSnapshot) -> bool {
        self.state == other.state && self.mem == other.mem
    }
}

/// Architectural emulator for one program.
///
/// See the [crate-level documentation](crate) for an example.
pub struct Emulator<'p> {
    program: &'p Program,
    state: ArchState,
    mem: DataMemory,
    output: Vec<u64>,
    depth: u32,
    index: u64,
}

impl<'p> Emulator<'p> {
    /// Creates an emulator with fresh architectural state and the program's
    /// initial data image.
    pub fn new(program: &'p Program) -> Self {
        Emulator {
            program,
            state: ArchState::new(program.entry()),
            mem: DataMemory::from_program(program),
            output: Vec::new(),
            depth: 0,
            index: 0,
        }
    }

    /// Runs the program to `halt`, recording the full dynamic trace.
    ///
    /// Stops after `max_instrs` dynamic instructions if the program has not
    /// halted; the returned trace then reports `halted() == false`.
    ///
    /// # Errors
    ///
    /// Returns [`SesError::EmulationFault`] if control leaves the program
    /// image — for a *golden* (uncorrupted) run this indicates a broken
    /// program, so it is an error rather than an outcome.
    pub fn run(self, max_instrs: u64) -> Result<ExecutionTrace, SesError> {
        self.run_observed(max_instrs, |_| {})
    }

    /// Runs the program to `halt` like [`run`](Self::run), capturing the
    /// [`GoldenCheckpoints`] that
    /// [`replay_checkpointed`](Self::replay_checkpointed) resumes from in
    /// the same pass.
    ///
    /// # Errors
    ///
    /// As for [`run`](Self::run).
    pub fn run_checkpointed(
        self,
        max_instrs: u64,
    ) -> Result<(ExecutionTrace, GoldenCheckpoints), SesError> {
        let mut recorder = CheckpointRecorder::new();
        let trace = self.run_observed(max_instrs, |emu| recorder.observe(emu))?;
        let checkpoints = recorder.finish(trace.output());
        Ok((trace, checkpoints))
    }

    /// The golden pass: `observe` sees the machine before every
    /// instruction executes.
    fn run_observed(
        mut self,
        max_instrs: u64,
        mut observe: impl FnMut(&Self),
    ) -> Result<ExecutionTrace, SesError> {
        let mut entries = Vec::new();
        let mut halted = false;
        while (entries.len() as u64) < max_instrs {
            observe(&self);
            let pc = self.state.pc();
            let instr = *self.program.instr_at(pc).ok_or_else(|| {
                SesError::EmulationFault(format!("fetch outside program image at {pc}"))
            })?;
            let effect = self.exec_one(instr, pc);
            entries.push(effect.record);
            if effect.halt {
                halted = true;
                break;
            }
        }
        Ok(ExecutionTrace::new(entries, self.output, halted))
    }

    /// Runs the program with corrupted instruction words substituted at the
    /// given dynamic indices, returning only the outcome (no trace).
    ///
    /// `overrides` maps a dynamic-instruction index (matching
    /// [`DynInstr::index`] of the golden trace) to the corrupted 64-bit
    /// word that the pipeline would have issued in its place. This is how a
    /// particle strike on an instruction-queue entry reaches architectural
    /// state.
    pub fn run_with_overrides(
        self,
        overrides: &HashMap<u64, u64>,
        max_instrs: u64,
    ) -> RunOutcome {
        self.run_overridden(|idx| overrides.get(&idx).copied(), max_instrs)
    }

    /// Like [`run_with_overrides`](Self::run_with_overrides) but for the
    /// common case of exactly one corrupted word, avoiding the `HashMap`
    /// allocation and hashing on every dynamic instruction. Runs from
    /// instruction 0: this is the oracle that
    /// [`replay_checkpointed`](Self::replay_checkpointed) must agree with.
    pub fn run_with_override(self, trace_idx: u64, word: u64, max_instrs: u64) -> RunOutcome {
        self.run_overridden(|idx| (idx == trace_idx).then_some(word), max_instrs)
    }

    fn run_overridden(
        mut self,
        override_at: impl Fn(u64) -> Option<u64>,
        max_instrs: u64,
    ) -> RunOutcome {
        let mut steps: u64 = 0;
        while steps < max_instrs {
            let pc = self.state.pc();
            let Some(&original) = self.program.instr_at(pc) else {
                return RunOutcome::Crashed {
                    reason: format!("fetch outside program image at {pc}"),
                };
            };
            let instr = match override_at(self.index) {
                None => original,
                Some(word) => match decode(word) {
                    Ok(i) => i,
                    Err(e) => {
                        return RunOutcome::Crashed {
                            reason: e.to_string(),
                        }
                    }
                },
            };
            let effect = self.exec_one(instr, pc);
            if effect.halt {
                return RunOutcome::Completed {
                    output: self.output,
                };
            }
            steps += 1;
        }
        RunOutcome::TimedOut
    }

    /// Replays `program` with `word` substituted at dynamic index
    /// `trace_idx`, resuming from the latest golden checkpoint at or before
    /// it and stopping at the first later checkpoint where the machine —
    /// registers, predicates, PC, call depth, data memory, and the output
    /// emitted since the resume point — equals the golden one. A replay
    /// that never converges runs to halt, crash, or the budget, which is
    /// counted by dynamic index exactly as in
    /// [`run_with_override`](Self::run_with_override) from instruction 0;
    /// the verdict always equals that oracle's ([`ReplayVerdict::of`]).
    pub fn replay_checkpointed(
        program: &'p Program,
        golden: &GoldenCheckpoints,
        trace_idx: u64,
        word: u64,
        max_instrs: u64,
    ) -> CheckpointedReplay {
        let points = golden.points();
        let start = points
            .partition_point(|c| c.snap.index <= trace_idx)
            .checked_sub(1);
        let (mut emu, out_base) = match start {
            Some(i) => (
                Emulator::from_snapshot(program, points[i].snap.clone()),
                points[i].out_len,
            ),
            None => (Emulator::new(program), 0),
        };
        let resumed_at = emu.index;
        let finish = |emu: &Emulator<'_>, verdict| CheckpointedReplay {
            verdict,
            resumed_at,
            executed: emu.index - resumed_at,
        };
        let golden_suffix = &golden.output()[out_base..];
        let later = start.map_or(points, |i| &points[i + 1..]);
        for c in later {
            let until = c.snap.index.min(max_instrs);
            if let Some(verdict) = emu.advance(until, trace_idx, word, golden_suffix) {
                return finish(&emu, verdict);
            }
            if emu.index >= max_instrs {
                return finish(&emu, ReplayVerdict::TimedOut);
            }
            if emu.equals_golden(&c.snap, &golden.output()[out_base..c.out_len]) {
                return finish(&emu, ReplayVerdict::Identical);
            }
        }
        let verdict = emu
            .advance(max_instrs, trace_idx, word, golden_suffix)
            .unwrap_or(ReplayVerdict::TimedOut);
        finish(&emu, verdict)
    }

    /// Executes (with the override) until the dynamic index reaches
    /// `until`, returning the verdict if the run ends first: a halt is
    /// judged by the output emitted since the resume point against
    /// `golden_suffix`; a wild fetch or an undecodable override crashes.
    fn advance(
        &mut self,
        until: u64,
        trace_idx: u64,
        word: u64,
        golden_suffix: &[u64],
    ) -> Option<ReplayVerdict> {
        while self.index < until {
            let pc = self.state.pc();
            let Some(&original) = self.program.instr_at(pc) else {
                return Some(ReplayVerdict::Crashed);
            };
            let instr = if self.index == trace_idx {
                match decode(word) {
                    Ok(i) => i,
                    Err(_) => return Some(ReplayVerdict::Crashed),
                }
            } else {
                original
            };
            if self.exec_one(instr, pc).halt {
                return Some(if self.output == golden_suffix {
                    ReplayVerdict::Identical
                } else {
                    ReplayVerdict::Different
                });
            }
        }
        None
    }

    /// Whether this machine equals the golden checkpoint `snap` and has
    /// emitted exactly `golden_since` since its resume point. Cheap
    /// components first; the data memory is compared last.
    fn equals_golden(&self, snap: &MachineSnapshot, golden_since: &[u64]) -> bool {
        self.index == snap.index
            && self.state == snap.state
            && self.depth == snap.depth
            && self.output == golden_since
            && self.mem == snap.mem
    }

    /// Captures the current architectural state as a [`MachineSnapshot`].
    pub(crate) fn snapshot(&self) -> MachineSnapshot {
        MachineSnapshot {
            state: self.state.clone(),
            mem: self.mem.clone(),
            depth: self.depth,
            index: self.index,
        }
    }

    /// Rebuilds an emulator from a snapshot, with an empty output stream.
    pub(crate) fn from_snapshot(program: &'p Program, snap: MachineSnapshot) -> Self {
        Emulator {
            program,
            state: snap.state,
            mem: snap.mem,
            output: Vec::new(),
            depth: snap.depth,
            index: snap.index,
        }
    }

    /// Overrides the program counter (region re-execution rewinds here).
    pub(crate) fn set_pc(&mut self, pc: Addr) {
        self.state.set_pc(pc);
    }

    /// Executes exactly one instruction, returning its record and whether
    /// it was `halt`. Used by [`crate::Stepper`].
    ///
    /// # Errors
    ///
    /// Returns [`SesError::EmulationFault`] if the PC is outside the image.
    pub(crate) fn step_once(&mut self) -> Result<(DynInstr, bool), SesError> {
        let pc = self.state.pc();
        let instr = *self.program.instr_at(pc).ok_or_else(|| {
            SesError::EmulationFault(format!("fetch outside program image at {pc}"))
        })?;
        let effect = self.exec_one(instr, pc);
        Ok((effect.record, effect.halt))
    }

    /// The dynamic-instruction index of the next instruction.
    pub(crate) fn index(&self) -> u64 {
        self.index
    }

    /// Output emitted so far (for streaming consumers).
    pub(crate) fn output_so_far(&self) -> &[u64] {
        &self.output
    }

    /// Current program counter.
    pub(crate) fn pc(&self) -> Addr {
        self.state.pc()
    }

    /// Reads an architectural register.
    pub(crate) fn reg(&self, r: ses_types::Reg) -> u64 {
        self.state.reg(r)
    }

    /// Reads a data-memory word.
    pub(crate) fn mem(&self, addr: Addr) -> u64 {
        self.mem.load(addr)
    }

    fn exec_one(&mut self, instr: Instruction, pc: Addr) -> StepEffect {
        use Opcode::*;
        let executed = self.state.pred(instr.qp);
        let fallthrough = pc.offset(INSTR_BYTES);
        let mut record = DynInstr {
            index: self.index,
            pc,
            instr,
            executed,
            reg_written: None,
            pred_written: None,
            mem_read: None,
            mem_written: None,
            taken: instr.op.is_conditional_branch().then_some(false),
            next_pc: fallthrough,
            call_depth: self.depth,
            emitted: None,
        };
        self.index += 1;
        let mut halt = false;
        let mut next_pc = fallthrough;

        if executed {
            let s1 = self.state.reg(instr.src1);
            let s2 = self.state.reg(instr.src2);
            let rel = |imm: i32| Addr::new((pc.as_u64() as i64).wrapping_add(imm as i64) as u64);
            match instr.op {
                Add | Sub | Mul | And | Or | Xor | Shl | Shr | AddI | MovI => {
                    let v = match instr.op {
                        Add => s1.wrapping_add(s2),
                        Sub => s1.wrapping_sub(s2),
                        Mul => s1.wrapping_mul(s2),
                        And => s1 & s2,
                        Or => s1 | s2,
                        Xor => s1 ^ s2,
                        Shl => s1.wrapping_shl((s2 & 63) as u32),
                        Shr => s1.wrapping_shr((s2 & 63) as u32),
                        AddI => s1.wrapping_add(instr.imm as i64 as u64),
                        MovI => instr.imm as i64 as u64,
                        _ => unreachable!(),
                    };
                    self.state.set_reg(instr.dest, v);
                    if !instr.dest.is_zero() {
                        record.reg_written = Some(instr.dest);
                    }
                }
                CmpEq | CmpLt => {
                    let v = match instr.op {
                        CmpEq => s1 == s2,
                        CmpLt => (s1 as i64) < (s2 as i64),
                        _ => unreachable!(),
                    };
                    self.state.set_pred(instr.pdest, v);
                    if !instr.pdest.is_always_true() {
                        record.pred_written = Some(instr.pdest);
                    }
                }
                Ld => {
                    let addr =
                        Addr::new(s1.wrapping_add(instr.imm as i64 as u64)).block_base(8);
                    let v = self.mem.load(addr);
                    self.state.set_reg(instr.dest, v);
                    record.mem_read = Some(addr);
                    if !instr.dest.is_zero() {
                        record.reg_written = Some(instr.dest);
                    }
                }
                St => {
                    let addr =
                        Addr::new(s1.wrapping_add(instr.imm as i64 as u64)).block_base(8);
                    self.mem.store(addr, s2);
                    record.mem_written = Some(addr);
                }
                Prefetch | Nop | Hint => {}
                Br => {
                    record.taken = Some(true);
                    next_pc = rel(instr.imm);
                }
                Jmp => {
                    next_pc = rel(instr.imm);
                }
                Call => {
                    self.state.set_reg(instr.dest, fallthrough.as_u64());
                    if !instr.dest.is_zero() {
                        record.reg_written = Some(instr.dest);
                    }
                    next_pc = rel(instr.imm);
                    self.depth += 1;
                }
                Ret => {
                    next_pc = Addr::new(s1);
                    self.depth = self.depth.saturating_sub(1);
                }
                Out => {
                    self.output.push(s1);
                    record.emitted = Some(s1);
                }
                Halt => {
                    halt = true;
                }
            }
        }
        record.next_pc = next_pc;
        self.state.set_pc(next_pc);
        StepEffect { record, halt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_isa::ProgramBuilder;
    use ses_types::{Pred, Reg};

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    #[test]
    fn loop_with_counter_and_output() {
        // Sum 1..=5 with a backward branch, then print.
        let mut b = ProgramBuilder::new();
        b.push(Instruction::movi(r(1), 5)); // counter
        b.push(Instruction::movi(r(2), 0)); // sum
        let top = b.new_label();
        b.bind(top);
        b.push(Instruction::add(r(2), r(2), r(1)));
        b.push(Instruction::addi(r(1), r(1), -1));
        b.push(Instruction::cmp_lt(Pred::new(1), Reg::ZERO, r(1)));
        b.branch(Pred::new(1), top);
        b.push(Instruction::out(r(2)));
        b.push(Instruction::halt());
        let p = b.build().unwrap();

        let trace = Emulator::new(&p).run(10_000).unwrap();
        assert!(trace.halted());
        assert_eq!(trace.output(), &[15]);
        let s = trace.stats();
        assert_eq!(s.cond_branches, 5);
        assert_eq!(s.taken_branches, 4);
        assert_eq!(s.outputs, 1);
    }

    #[test]
    fn falsely_predicated_instruction_has_no_effect() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 7),
            // p1 is false at reset, so this add is falsely predicated.
            Instruction::addi(r(1), r(1), 100).guarded_by(Pred::new(1)),
            Instruction::out(r(1)),
            Instruction::halt(),
        ]);
        let trace = Emulator::new(&p).run(100).unwrap();
        assert_eq!(trace.output(), &[7]);
        assert_eq!(trace.stats().falsely_predicated, 1);
        let e = &trace.entries()[1];
        assert!(!e.executed);
        assert_eq!(e.reg_written, None);
    }

    #[test]
    fn memory_roundtrip_and_dead_store_tracking_fields() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 0x2000),
            Instruction::movi(r(2), 99),
            Instruction::st(r(1), r(2), 0),
            Instruction::ld(r(3), r(1), 0),
            Instruction::out(r(3)),
            Instruction::halt(),
        ]);
        let trace = Emulator::new(&p).run(100).unwrap();
        assert_eq!(trace.output(), &[99]);
        assert_eq!(trace.entries()[2].mem_written, Some(Addr::new(0x2000)));
        assert_eq!(trace.entries()[3].mem_read, Some(Addr::new(0x2000)));
    }

    #[test]
    fn call_and_return_track_depth() {
        let mut b = ProgramBuilder::new();
        let func = b.new_label();
        let end = b.new_label();
        b.call(r(31), func); // 0, depth 0
        b.jump(end); // 1, depth 0
        b.bind(func);
        b.push(Instruction::movi(r(4), 1)); // 2, depth 1
        b.push(Instruction::ret(r(31))); // 3, depth 1
        b.bind(end);
        b.push(Instruction::halt()); // 4, depth 0
        let p = b.build().unwrap();
        let trace = Emulator::new(&p).run(100).unwrap();
        let depths: Vec<u32> = trace.entries().iter().map(|e| e.call_depth).collect();
        // Entries are in execution order: call, movi, ret, jmp, halt.
        assert_eq!(depths, vec![0, 1, 1, 0, 0]);
        // Execution order: call, movi, ret, jmp, halt.
        let pcs: Vec<u64> = trace
            .entries()
            .iter()
            .map(|e| (e.pc.as_u64() - p.entry().as_u64()) / 8)
            .collect();
        assert_eq!(pcs, vec![0, 2, 3, 1, 4]);
    }

    #[test]
    fn golden_run_faults_on_wild_fetch() {
        let p = Program::new(vec![Instruction::jmp(-64)]);
        let err = Emulator::new(&p).run(10).unwrap_err();
        assert!(err.to_string().contains("outside program image"));
    }

    #[test]
    fn budget_exhaustion_reports_not_halted() {
        let mut b = ProgramBuilder::new();
        let top = b.new_label();
        b.bind(top);
        b.jump(top);
        let p = b.build().unwrap();
        let trace = Emulator::new(&p).run(50).unwrap();
        assert!(!trace.halted());
        assert_eq!(trace.len(), 50);
    }

    #[test]
    fn override_changes_output() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 7),
            Instruction::out(r(1)),
            Instruction::halt(),
        ]);
        // Corrupt dynamic instruction 0 into `movi r1 = 8`.
        let corrupted = ses_isa::encode(&Instruction::movi(r(1), 8));
        let mut ov = HashMap::new();
        ov.insert(0u64, corrupted);
        let outcome = Emulator::new(&p).run_with_overrides(&ov, 100);
        assert_eq!(
            outcome,
            RunOutcome::Completed { output: vec![8] },
            "corrupted immediate must propagate to output"
        );
    }

    #[test]
    fn single_override_fast_path_matches_map_path() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 7),
            Instruction::out(r(1)),
            Instruction::halt(),
        ]);
        let corrupted = ses_isa::encode(&Instruction::movi(r(1), 8));
        let mut ov = HashMap::new();
        ov.insert(0u64, corrupted);
        let via_map = Emulator::new(&p).run_with_overrides(&ov, 100);
        let via_fast = Emulator::new(&p).run_with_override(0, corrupted, 100);
        assert_eq!(via_map, via_fast);
        assert_eq!(via_fast, RunOutcome::Completed { output: vec![8] });
    }

    #[test]
    fn override_with_undecodable_word_crashes() {
        let p = Program::new(vec![Instruction::nop(), Instruction::halt()]);
        let mut ov = HashMap::new();
        ov.insert(0u64, u64::MAX); // reserved bits set
        let outcome = Emulator::new(&p).run_with_overrides(&ov, 100);
        assert!(matches!(outcome, RunOutcome::Crashed { .. }));
    }

    #[test]
    fn override_into_infinite_loop_times_out() {
        let p = Program::new(vec![Instruction::nop(), Instruction::halt()]);
        // Turn the nop into `jmp +0` (self-loop).
        let corrupted = ses_isa::encode(&Instruction::jmp(0));
        let mut ov = HashMap::new();
        ov.insert(0u64, corrupted);
        // NOTE: the jump executes once at index 0, then control re-fetches
        // the original nop at the same pc -- but the override applies by
        // dynamic index, so only the first instance is corrupted... the
        // second fetch of the nop is index 1 and proceeds normally to halt.
        let outcome = Emulator::new(&p).run_with_overrides(&ov, 100);
        assert_eq!(outcome, RunOutcome::Completed { output: vec![] });

        // A backward jump beyond the image crashes instead.
        let mut ov2 = HashMap::new();
        ov2.insert(0u64, ses_isa::encode(&Instruction::jmp(-800)));
        assert!(matches!(
            Emulator::new(&p).run_with_overrides(&ov2, 100),
            RunOutcome::Crashed { .. }
        ));
    }

    #[test]
    fn benign_override_completes_identically() {
        let p = Program::new(vec![
            Instruction::movi(r(1), 7),
            Instruction::out(r(1)),
            Instruction::halt(),
        ]);
        // Corrupt an unread source-register field of `out`? out reads src1;
        // instead corrupt the dest field of the halt (halt ignores dest).
        let mut corrupted_halt = Instruction::halt();
        corrupted_halt.dest = r(9);
        let mut ov = HashMap::new();
        ov.insert(2u64, ses_isa::encode(&corrupted_halt));
        let outcome = Emulator::new(&p).run_with_overrides(&ov, 100);
        assert_eq!(outcome, RunOutcome::Completed { output: vec![7] });
    }
}
