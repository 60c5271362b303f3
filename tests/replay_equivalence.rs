//! Checkpointed functional replay is a pure optimisation: resuming a
//! corrupted replay from the nearest golden architectural checkpoint and
//! stopping it where the machine rejoins the golden run must give exactly
//! the verdict of the from-zero replay it replaces — on the regression
//! corpus, on full-size workloads, at the checkpoint boundaries, and for
//! every way a replay can end.

use std::path::PathBuf;

use ses_arch::{CheckpointedReplay, Emulator, ExecutionTrace, GoldenCheckpoints, ReplayVerdict};
use ses_isa::{encode, Instruction, Program, ProgramBuilder};
use ses_types::{Pred, Reg};
use ses_workloads::{spec_by_name, synthesize};

/// One golden run with its checkpoints and the classifier's budget.
struct Golden {
    program: Program,
    trace: ExecutionTrace,
    points: GoldenCheckpoints,
    budget: u64,
}

impl Golden {
    fn new(program: Program, max_instrs: u64) -> Self {
        let (trace, points) = Emulator::new(&program)
            .run_checkpointed(max_instrs)
            .unwrap();
        assert!(trace.halted(), "golden runs must halt");
        let budget = (trace.len() as u64 * 4).max(10_000);
        Golden {
            program,
            trace,
            points,
            budget,
        }
    }

    fn word(&self, idx: u64) -> u64 {
        encode(&self.trace.entries()[idx as usize].instr)
    }

    /// Replays `word` at `idx` both ways with budget `budget` and insists
    /// on identical verdicts.
    fn check_with(&self, idx: u64, word: u64, budget: u64) -> CheckpointedReplay {
        let got = Emulator::replay_checkpointed(&self.program, &self.points, idx, word, budget);
        let want = ReplayVerdict::of(
            &Emulator::new(&self.program).run_with_override(idx, word, budget),
            self.trace.output(),
        );
        assert_eq!(got.verdict, want, "word {word:#018x} at index {idx}");
        assert!(got.resumed_at <= idx, "resumed after the strike");
        got
    }

    fn check(&self, idx: u64, word: u64) -> CheckpointedReplay {
        self.check_with(idx, word, self.budget)
    }
}

fn corpus() -> Vec<(String, Program)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "s"))
        .collect();
    paths.sort();
    paths
        .into_iter()
        .map(|p| {
            let text = std::fs::read_to_string(&p).unwrap();
            let program =
                ses_isa::assemble(&text).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p.display().to_string(), program)
        })
        .collect()
}

fn workload(name: &str) -> Golden {
    let spec = spec_by_name(name).unwrap();
    Golden::new(synthesize(&spec), spec.target_dynamic * 4)
}

/// splitmix64: the sweep's deterministic coordinate stream.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded `(trace_idx, word)` sweep: single- and double-bit flips of the
/// golden word (what a queue strike presents) plus arbitrary words.
fn sweep(g: &Golden, samples: u32, seed: u64, seen: &mut [u32; 4]) {
    let mut state = seed;
    for _ in 0..samples {
        let idx = next(&mut state) % g.trace.len() as u64;
        let r = next(&mut state);
        let word = match r % 8 {
            0 => next(&mut state),
            1 => g.word(idx) ^ (3 << ((r >> 8) % 63)),
            _ => g.word(idx) ^ (1 << ((r >> 8) % 64)),
        };
        let verdict = g.check(idx, word).verdict;
        seen[verdict as usize] += 1;
    }
}

#[test]
fn seeded_sweep_matches_from_zero_replay_on_corpus_and_workloads() {
    let mut seen = [0u32; 4];
    let programs = corpus();
    assert!(
        programs.len() >= 18,
        "corpus has {} programs",
        programs.len()
    );
    for (i, (name, program)) in programs.into_iter().enumerate() {
        let g = Golden::new(program, 1_000_000);
        assert!(!g.points.is_empty(), "{name}: no checkpoints");
        sweep(&g, 120, 0xC0FF_EE00 + i as u64, &mut seen);
    }
    for (i, name) in ["crafty", "mcf"].iter().enumerate() {
        let g = workload(name);
        assert!(
            g.points.len() > 32,
            "{name}: {} checkpoints",
            g.points.len()
        );
        sweep(&g, 40, 0xBEEF + i as u64, &mut seen);
    }
    let [identical, different, crashed, _] = seen;
    assert!(
        identical > 0 && different > 0 && crashed > 0,
        "verdict mix {seen:?}"
    );
}

#[test]
fn boundary_strikes_match_from_zero_replay() {
    let g = workload("crafty");
    let idx: Vec<u64> = g.points.indices().collect();
    let last = *idx.last().unwrap();
    let len = g.trace.len() as u64;
    assert!(last < len - 1, "the trace extends past its last checkpoint");
    let mid = idx[idx.len() / 2];
    for at in [
        0,
        1,
        idx[1],
        idx[1] - 1,
        mid,
        last - 1,
        last,
        last + 1,
        len - 2,
        len - 1,
    ] {
        for bit in [0, 7, 13, 21, 33, 47, 55] {
            let got = g.check(at, g.word(at) ^ (1 << bit));
            let nearest = idx[idx.partition_point(|&i| i <= at) - 1];
            assert_eq!(
                got.resumed_at, nearest,
                "index {at}: wrong resume checkpoint"
            );
        }
    }
}

#[test]
fn crashes_match_from_zero_replay() {
    let g = workload("mcf");
    let len = g.trace.len() as u64;
    for at in [0, len / 3, len / 2 + 5, len - 1] {
        let undecodable = g.check(at, u64::MAX);
        assert_eq!(undecodable.verdict, ReplayVerdict::Crashed);
        let wild = g.check(at, encode(&Instruction::jmp(-(1 << 24))));
        assert_eq!(wild.verdict, ReplayVerdict::Crashed);
        assert_eq!(
            wild.executed,
            at - wild.resumed_at + 1,
            "crashes at the next fetch"
        );
    }
}

/// Two counted loops; the first exits with its counter at zero.
/// Re-entering it then counts down from zero, which never returns to zero
/// within any budget.
fn two_loops(n: i32) -> (Program, usize) {
    let mut b = ProgramBuilder::new();
    let (r1, r2, r5) = (Reg::new(1), Reg::new(2), Reg::new(5));
    b.push(Instruction::movi(r1, n));
    b.push(Instruction::movi(r2, n));
    let first = b.new_label();
    let second = b.new_label();
    let first_done = b.new_label();
    let second_done = b.new_label();
    b.bind(first);
    let first_at = 2;
    b.push(Instruction::addi(r5, r5, 3));
    b.push(Instruction::addi(r1, r1, -1));
    b.push(Instruction::cmp_eq(Pred::new(1), r1, Reg::ZERO));
    b.branch(Pred::new(1), first_done);
    b.jump(first);
    b.bind(first_done);
    b.push(Instruction::out(r5));
    b.bind(second);
    b.push(Instruction::addi(r5, r5, 5));
    b.push(Instruction::addi(r2, r2, -1));
    b.push(Instruction::cmp_eq(Pred::new(2), r2, Reg::ZERO));
    b.branch(Pred::new(2), second_done);
    b.jump(second);
    b.bind(second_done);
    b.push(Instruction::out(r5));
    b.push(Instruction::halt());
    (b.build().unwrap(), first_at)
}

#[test]
fn branch_back_into_a_spent_loop_times_out_at_the_same_budget() {
    let (program, first_at) = two_loops(1500);
    let g = Golden::new(program, 1_000_000);
    // The `out` between the loops, mid-trace: corrupt it into a jump back
    // to the first loop's head.
    let at = g
        .trace
        .entries()
        .iter()
        .position(|d| d.emitted.is_some())
        .unwrap() as u64;
    let pc = g.trace.entries()[at as usize].pc.as_u64() as i64;
    let head = g.program.addr_of(first_at).as_u64() as i64;
    let word = encode(&Instruction::jmp((head - pc) as i32));
    let got = g.check(at, word);
    assert_eq!(got.verdict, ReplayVerdict::TimedOut);
    assert!(
        got.resumed_at > 0 && got.resumed_at + g.points.interval() > at,
        "resumed from the mid-trace checkpoint before the strike, not {}",
        got.resumed_at
    );
    assert_eq!(
        got.resumed_at + got.executed,
        g.budget,
        "budget counted by dynamic index"
    );
    // Tighter and looser budgets move the verdict in lockstep with the
    // oracle: a budget that ends inside the golden tail still times out.
    for budget in [g.trace.len() as u64, g.trace.len() as u64 + 1, g.budget * 2] {
        assert_eq!(
            g.check_with(at, word, budget).verdict,
            ReplayVerdict::TimedOut
        );
    }
}

#[test]
fn early_output_divergence_is_different_even_after_state_converges() {
    // Dropping the first emitted value leaves every register and memory
    // word intact: the machine equals the golden one at the next
    // checkpoint, and only the output-prefix check keeps the verdict.
    for g in [
        workload("crafty"),
        Golden::new(two_loops(1500).0, 1_000_000),
    ] {
        let at = g
            .trace
            .entries()
            .iter()
            .position(|d| d.emitted.is_some())
            .unwrap() as u64;
        let got = g.check(at, encode(&Instruction::nop()));
        assert_eq!(got.verdict, ReplayVerdict::Different);
        let benign = g.check(at, g.word(at));
        assert_eq!(benign.verdict, ReplayVerdict::Identical);
        assert!(
            benign.resumed_at + benign.executed < g.trace.len() as u64,
            "a benign replay stops at the first checkpoint after the strike"
        );
    }
}
