//! Checkpointed, convergence-stopped functional replay.
//!
//! The fault-injection classifier replays the golden program with one
//! corrupted instruction word and asks whether the output stream changed.
//! Run from instruction 0, every such replay re-executes the fault-free
//! prefix, and — since most corruptions are overwritten within a short
//! window — usually a fault-free suffix as well.
//!
//! [`Emulator::run_checkpointed`](crate::Emulator::run_checkpointed)
//! captures [`GoldenCheckpoints`] inside the golden pass itself, and
//! [`Emulator::replay_checkpointed`](crate::Emulator::replay_checkpointed)
//! resumes each replay from the latest checkpoint at or before the
//! corrupted dynamic index, then stops at the first later checkpoint where
//! the replayed machine equals the golden one exactly: registers,
//! predicates, PC, call depth, data memory, and the output emitted since
//! the resume point. The emulator is deterministic, so equal machines at
//! equal dynamic index run identical suffixes; the golden suffix halts
//! within the budget with the golden output, hence the verdict is
//! `Identical`. A replay that never converges runs to halt, crash or
//! budget exhaustion exactly like the from-zero
//! [`Emulator::run_with_override`](crate::Emulator::run_with_override),
//! which survives as the oracle ([`ReplayVerdict::of`]).

use crate::emu::{Emulator, MachineSnapshot, RunOutcome};
use crate::state::ArchState;

/// The golden pass keeps at most `TARGET` checkpoints: the spacing is the
/// smallest power of two at or above ⌈trace length / `TARGET`⌉.
const TARGET: usize = 64;

/// How a single-override replay compares against the golden run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayVerdict {
    /// The replay halted with the golden output stream (or provably will:
    /// its machine rejoined the golden machine).
    Identical,
    /// The replay halted with a different output stream.
    Different,
    /// Control left the program image or met an undecodable word.
    Crashed,
    /// The instruction budget ran out before `halt`.
    TimedOut,
}

impl ReplayVerdict {
    /// The verdict of a from-zero [`RunOutcome`] against the golden
    /// output: the oracle every checkpointed replay must agree with.
    pub fn of(outcome: &RunOutcome, golden_output: &[u64]) -> Self {
        match outcome {
            RunOutcome::Completed { output } if output == golden_output => ReplayVerdict::Identical,
            RunOutcome::Completed { .. } => ReplayVerdict::Different,
            RunOutcome::Crashed { .. } => ReplayVerdict::Crashed,
            RunOutcome::TimedOut => ReplayVerdict::TimedOut,
        }
    }
}

/// One checkpointed replay: its verdict and how much of the run it
/// actually emulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointedReplay {
    /// The verdict, equal to the from-zero oracle's.
    pub verdict: ReplayVerdict,
    /// Dynamic index of the checkpoint the replay resumed from.
    pub resumed_at: u64,
    /// Instructions the replay executed before its verdict.
    pub executed: u64,
}

/// One golden checkpoint: the machine before the instruction at
/// `snap.index()` executes, plus the golden output length by then.
#[derive(Debug, Clone)]
pub(crate) struct Checkpoint {
    pub(crate) snap: MachineSnapshot,
    pub(crate) out_len: usize,
}

/// Golden architectural checkpoints of one program run, captured by
/// [`Emulator::run_checkpointed`](crate::Emulator::run_checkpointed) at
/// every multiple of [`interval`](Self::interval) dynamic instructions
/// (index 0 included), together with the golden output stream the replays
/// are judged against.
#[derive(Debug, Clone)]
pub struct GoldenCheckpoints {
    points: Vec<Checkpoint>,
    interval: u64,
    output: Vec<u64>,
}

impl GoldenCheckpoints {
    /// Number of checkpoints.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no checkpoint was captured (a run of zero instructions).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Spacing of the checkpoints in dynamic instructions (a power of two).
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// The dynamic index of every checkpoint, ascending.
    pub fn indices(&self) -> impl Iterator<Item = u64> + '_ {
        self.points.iter().map(|c| c.snap.index())
    }

    /// The golden output stream.
    pub fn output(&self) -> &[u64] {
        &self.output
    }

    /// Seeded-defect hook: rewrites the register state of checkpoint `i`,
    /// so tests can prove that an audit against the from-zero oracle
    /// catches a corrupted golden checkpoint.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn tamper_state(&mut self, i: usize, f: impl FnOnce(&mut ArchState)) {
        f(&mut self.points[i].snap.state);
    }

    pub(crate) fn points(&self) -> &[Checkpoint] {
        &self.points
    }
}

/// Captures checkpoints during the golden pass. The final trace length is
/// unknown until `halt`, so the spacing starts at one instruction and
/// doubles (dropping every other checkpoint) whenever more than `TARGET`
/// have accumulated.
pub(crate) struct CheckpointRecorder {
    points: Vec<Checkpoint>,
    interval: u64,
}

impl CheckpointRecorder {
    pub(crate) fn new() -> Self {
        CheckpointRecorder {
            points: Vec::new(),
            interval: 1,
        }
    }

    /// Called before every golden instruction executes.
    pub(crate) fn observe(&mut self, emu: &Emulator<'_>) {
        if !emu.index().is_multiple_of(self.interval) {
            return;
        }
        self.points.push(Checkpoint {
            snap: emu.snapshot(),
            out_len: emu.output_so_far().len(),
        });
        if self.points.len() > TARGET {
            self.interval *= 2;
            let interval = self.interval;
            self.points
                .retain(|c| c.snap.index().is_multiple_of(interval));
        }
    }

    pub(crate) fn finish(self, output: &[u64]) -> GoldenCheckpoints {
        GoldenCheckpoints {
            points: self.points,
            interval: self.interval,
            output: output.to_vec(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_isa::{encode, Instruction, Program, ProgramBuilder};
    use ses_types::{Pred, Reg};

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    /// A store-and-print loop of `n` iterations: every iteration writes
    /// memory and emits a running sum; the exit prints the final pointer.
    fn looping(n: i32) -> Program {
        let mut b = ProgramBuilder::new();
        b.push(Instruction::movi(r(1), n));
        b.push(Instruction::movi(r(2), 0x4000));
        b.push(Instruction::movi(r(3), 0));
        let top = b.new_label();
        b.bind(top);
        b.push(Instruction::add(r(3), r(3), r(1)));
        b.push(Instruction::st(r(2), r(3), 0));
        b.push(Instruction::addi(r(2), r(2), 8));
        b.push(Instruction::out(r(3)));
        b.push(Instruction::addi(r(1), r(1), -1));
        b.push(Instruction::cmp_lt(Pred::new(1), Reg::ZERO, r(1)));
        b.branch(Pred::new(1), top);
        b.push(Instruction::out(r(2)));
        b.push(Instruction::halt());
        b.build().unwrap()
    }

    #[test]
    fn checkpoint_geometry_is_a_thinned_power_of_two_grid() {
        let p = looping(2000);
        let (trace, golden) = Emulator::new(&p).run_checkpointed(1_000_000).unwrap();
        let len = trace.len() as u64;
        assert!(golden.interval().is_power_of_two());
        assert!(
            (TARGET / 2 + 1..=TARGET).contains(&golden.len()),
            "{} checkpoints",
            golden.len()
        );
        assert_eq!(
            golden.interval(),
            len.div_ceil(TARGET as u64).next_power_of_two()
        );
        let idx: Vec<u64> = golden.indices().collect();
        assert_eq!(idx[0], 0, "the entry state is always a checkpoint");
        assert!(idx.windows(2).all(|w| w[1] - w[0] == golden.interval()));
        assert!(*idx.last().unwrap() < len && len - idx.last().unwrap() <= golden.interval());
        // Each checkpoint's output length is the golden prefix by then.
        for c in golden.points() {
            let emitted = trace.entries()[..c.snap.index() as usize]
                .iter()
                .filter(|d| d.emitted.is_some())
                .count();
            assert_eq!(c.out_len, emitted);
        }
        assert_eq!(golden.output(), trace.output());
        assert_eq!(
            Emulator::new(&p).run(1_000_000).unwrap(),
            trace,
            "capture is a pure observation"
        );
    }

    #[test]
    fn short_traces_checkpoint_every_instruction() {
        let p = looping(3);
        let (trace, golden) = Emulator::new(&p).run_checkpointed(1000).unwrap();
        assert_eq!(golden.interval(), 1);
        assert_eq!(golden.len(), trace.len());
    }

    #[test]
    fn every_single_bit_flip_matches_the_oracle() {
        let p = looping(300);
        let (trace, golden) = Emulator::new(&p).run_checkpointed(100_000).unwrap();
        let budget = trace.len() as u64 * 4;
        let mut converged = 0;
        for (idx, d) in trace.entries().iter().enumerate().step_by(7) {
            let golden_word = encode(&d.instr);
            for bit in (0..64).step_by(3) {
                let word = golden_word ^ (1u64 << bit);
                let got = Emulator::replay_checkpointed(&p, &golden, idx as u64, word, budget);
                let oracle = Emulator::new(&p).run_with_override(idx as u64, word, budget);
                assert_eq!(
                    got.verdict,
                    ReplayVerdict::of(&oracle, golden.output()),
                    "index {idx}, bit {bit}"
                );
                assert!(got.resumed_at <= idx as u64);
                if got.verdict == ReplayVerdict::Identical
                    && got.resumed_at + got.executed < trace.len() as u64
                {
                    converged += 1;
                }
            }
        }
        assert!(converged > 0, "some benign replays must stop before halt");
    }
}
