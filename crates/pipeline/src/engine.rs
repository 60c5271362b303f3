//! The cycle-by-cycle timing engine.
//!
//! An in-order, `width`-wide machine replaying the functional trace:
//!
//! 1. **recover** — a completed mispredicted branch flushes the wrong path
//!    and redirects fetch;
//! 2. **retire** — up to `width` oldest completed entries leave the queue
//!    (this is where the π-bit retire-unit logic and PET logging run);
//! 3. **issue** — up to `width` ready entries issue in order; loads access
//!    the cache hierarchy; parity is checked here (the entry is *read*);
//!    load misses fire the squash/throttle triggers;
//! 4. **insert** — instructions arriving from the front-end pipe claim
//!    free queue slots;
//! 5. **fetch** — the front end follows the predicted path;
//! 6. **inject** — a pending fault flips its bit once the injection cycle
//!    is reached.

use std::sync::Arc;

use ses_arch::{DynInstr, ExecutionTrace};
use ses_isa::{Opcode, Program};
use ses_mem::{AccessKind, Hierarchy, HierarchySnapshot, Level};
use ses_types::{Cycle, Pred, Reg, SeqNo};

use crate::config::{IssueOrder, PipelineConfig, SquashPolicy, ThrottlePolicy};
use crate::detect::{DetectionModel, Detector, FaultOutcome, FaultSpec};
use crate::frontend::{FetchedInstr, FrontEnd, FrontEndState};
use crate::iq::{InstructionQueue, IqEntry};
use crate::residency::{Occupant, Residency, ResidencyEnd};
use crate::result::PipelineResult;
use crate::telemetry::StageCounters;

/// A scheduled misprediction recovery.
#[derive(Debug, Clone, Copy)]
struct Recovery {
    at: Cycle,
    branch_seq: SeqNo,
    resume_trace_idx: u64,
}

/// The timing simulator.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
pub struct Pipeline {
    config: PipelineConfig,
}

impl Pipeline {
    /// Creates a pipeline with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; validate with
    /// [`PipelineConfig::validate`] first to handle errors gracefully.
    pub fn new(config: PipelineConfig) -> Self {
        config.validate().expect("invalid pipeline configuration");
        Pipeline { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Runs the timing model over a functional trace.
    pub fn run(&self, program: &Program, trace: &ExecutionTrace) -> PipelineResult {
        self.run_with_fault(program, trace, None, DetectionModel::None)
    }

    /// Runs the fault-free timing model while collecting per-stage
    /// telemetry bucketed by `bucket_size` cycles. Timing is identical to
    /// [`Pipeline::run`]; only the counters are extra.
    pub fn run_instrumented(
        &self,
        program: &Program,
        trace: &ExecutionTrace,
        detection: DetectionModel,
        bucket_size: u64,
    ) -> (PipelineResult, StageCounters) {
        let mut engine = Engine::new(&self.config, program, trace, None, detection);
        engine.stages = Some(StageCounters::new(bucket_size));
        if engine.cfg.warm_caches {
            engine.warm_caches();
        }
        let (result, _, stages, _) = engine.run_core(Cycle::ZERO, 0);
        (result, stages.expect("instrumented run keeps its collector"))
    }

    /// Runs the timing model with an optional injected fault under the
    /// given detection model.
    pub fn run_with_fault(
        &self,
        program: &Program,
        trace: &ExecutionTrace,
        fault: Option<FaultSpec>,
        detection: DetectionModel,
    ) -> PipelineResult {
        Engine::new(&self.config, program, trace, fault, detection).run()
    }

    /// Runs the fault-free timing model under `detection`, capturing a
    /// resumable [`Snapshot`] every `interval` cycles (cycle 0 included).
    ///
    /// The detection model does not change timing in the absence of a
    /// fault, but its bookkeeping (e.g. the PET buffer's commit log) is
    /// part of the captured state — pass the same model the fault runs
    /// resumed from these snapshots will use.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn run_with_snapshots(
        &self,
        program: &Program,
        trace: &ExecutionTrace,
        detection: DetectionModel,
        interval: u64,
    ) -> (PipelineResult, Vec<Snapshot>) {
        assert!(interval > 0, "snapshot interval must be positive");
        Engine::new(&self.config, program, trace, None, detection).run_capturing(interval)
    }

    /// Resumes a run from `snapshot`, injecting `fault`. With
    /// `fault = None` this replays the tail of the capture run
    /// bit-identically (useful for validation).
    ///
    /// The program, trace, and pipeline configuration must match the ones
    /// the snapshot was captured with; the fault, if any, must not strike
    /// before the snapshot cycle.
    ///
    /// # Panics
    ///
    /// Panics if `fault` strikes before the snapshot cycle.
    pub fn resume(
        &self,
        program: &Program,
        trace: &ExecutionTrace,
        snapshot: &Snapshot,
        fault: Option<FaultSpec>,
    ) -> PipelineResult {
        if let Some(f) = fault {
            assert!(
                f.cycle >= snapshot.cycle,
                "fault at {:?} strikes before snapshot cycle {:?}",
                f.cycle,
                snapshot.cycle
            );
        }
        Engine::from_snapshot(&self.config, program, trace, snapshot, fault)
            .run_core(snapshot.cycle, 0)
            .0
    }

    /// Runs the fault-free timing model under `detection` while recording
    /// the per-cycle state fingerprint stream consumed by convergence
    /// pruning, capturing a [`Snapshot`] every `interval` cycles
    /// (`interval = 0` captures none). `fingerprints[c]` is the overlay
    /// fingerprint at the top of cycle `c`; the stream's length is the
    /// run's cycle count. The fingerprint covers only fault-reachable
    /// state (commit count, occupied queue words, π bits), none of which
    /// a detection model touches on a fault-free run, so the stream is
    /// detection-model-independent.
    pub fn run_golden_fingerprinted(
        &self,
        program: &Program,
        trace: &ExecutionTrace,
        detection: DetectionModel,
        interval: u64,
    ) -> (PipelineResult, Vec<Snapshot>, Vec<u64>) {
        let mut engine = Engine::new(&self.config, program, trace, None, detection);
        engine.fingerprints = Some(Vec::new());
        if engine.cfg.warm_caches {
            engine.warm_caches();
        }
        let (result, snapshots, _, fps) = engine.run_core(Cycle::ZERO, interval);
        (result, snapshots, fps.expect("fingerprint collection was enabled"))
    }

    /// Prepares a batch base for one checkpoint window: the engine state
    /// at the window's start, restored **once** and then forked per fault
    /// by [`PrunedWindow::run_fault`]. `snapshot = None` means the window
    /// starts at cycle 0 from a fresh (cache-warmed) engine under
    /// `detection`; with a snapshot, the detector state (and with it the
    /// detection model) comes from the snapshot and `detection` is
    /// ignored, mirroring [`Pipeline::resume`].
    pub fn pruned_window<'a>(
        &'a self,
        program: &'a Program,
        trace: &'a ExecutionTrace,
        snapshot: Option<&Snapshot>,
        detection: DetectionModel,
    ) -> PrunedWindow<'a> {
        let (base, start) = match snapshot {
            Some(s) => (
                Engine::from_snapshot_inner(&self.config, program, trace, s, None, false),
                s.cycle(),
            ),
            None => {
                let mut e = Engine::new(&self.config, program, trace, None, detection);
                if e.cfg.warm_caches {
                    e.warm_caches();
                }
                (e, Cycle::ZERO)
            }
        };
        PrunedWindow {
            program,
            trace,
            base,
            start,
        }
    }
}

/// The outcome of one convergence-pruned fault replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrunedRun {
    /// The fault's resolved outcome — identical to what a full replay
    /// would report (the pruning gate only fires when the verdict is
    /// already decided).
    pub outcome: FaultOutcome,
    /// The cycle the replay stopped: the reconvergence cycle when
    /// `pruned`, otherwise the run's natural end.
    pub end_cycle: u64,
    /// Whether the replay stopped at the reconvergence gate rather than
    /// running to completion.
    pub pruned: bool,
}

/// A restored-once, forked-per-fault batch base for all injections whose
/// strike cycle falls in one checkpoint window.
///
/// Built by [`Pipeline::pruned_window`]; each [`PrunedWindow::run_fault`]
/// clones the base state (cheap: the base has an empty residency log) and
/// replays with convergence pruning. Restoring the snapshot once per
/// window instead of once per fault amortizes the dominant restore cost
/// across the whole batch.
pub struct PrunedWindow<'a> {
    program: &'a Program,
    trace: &'a ExecutionTrace,
    base: Engine<'a>,
    start: Cycle,
}

impl PrunedWindow<'_> {
    /// The cycle this window's base state corresponds to; every fault run
    /// from this window replays `[start_cycle, end_cycle)`.
    pub fn start_cycle(&self) -> u64 {
        self.start.as_u64()
    }

    /// Replays `fault` from the window base with convergence pruning
    /// against the golden fingerprint stream `golden_fps` (as produced by
    /// [`Pipeline::run_golden_fingerprinted`]).
    ///
    /// # Panics
    ///
    /// Panics if `fault` strikes before the window's start cycle.
    pub fn run_fault(&self, fault: FaultSpec, golden_fps: &[u64]) -> PrunedRun {
        assert!(
            fault.cycle >= self.start,
            "fault at {:?} strikes before window start {:?}",
            fault.cycle,
            self.start
        );
        self.base
            .fork(self.program, self.trace, fault)
            .run_pruned(self.start, golden_fps)
    }
}

/// A resumable image of the timing engine at the top of a cycle.
///
/// Captured by [`Pipeline::run_with_snapshots`] during a fault-free run
/// and consumed by [`Pipeline::resume`], which replays the remainder of
/// the run bit-identically with an optional fault injected at or after
/// the snapshot cycle. Snapshots are cheap: cache contents are stored
/// compactly (occupied lines only) and the capture run's residency log is
/// shared across all its snapshots rather than copied into each.
#[derive(Clone)]
pub struct Snapshot {
    cycle: Cycle,
    frontend: FrontEndState,
    /// Queue image with an emptied residency log; `residency_prefix`
    /// locates the pre-snapshot log inside `residency_log`.
    iq: InstructionQueue,
    residency_prefix: usize,
    /// The capture run's full residency log, shared by all its snapshots
    /// (stitched in after the capture run finishes).
    residency_log: Arc<Vec<Residency>>,
    hierarchy: HierarchySnapshot,
    reg_ready: [Cycle; Reg::COUNT],
    pred_ready: [Cycle; Pred::COUNT],
    committed: u64,
    recovery: Option<Recovery>,
    miss_outstanding_until: Cycle,
    stall_until: Cycle,
    squashes: u64,
    squashed_instrs: u64,
    detector: Detector,
}

impl Snapshot {
    /// The cycle at whose top this snapshot was captured; a resumed run
    /// re-executes from exactly this cycle.
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("cycle", &self.cycle)
            .field("committed", &self.committed)
            .field("residency_prefix", &self.residency_prefix)
            .finish_non_exhaustive()
    }
}

struct Engine<'a> {
    cfg: &'a PipelineConfig,
    trace: &'a [DynInstr],
    frontend: FrontEnd<'a>,
    iq: InstructionQueue,
    hierarchy: Hierarchy,
    reg_ready: [Cycle; Reg::COUNT],
    pred_ready: [Cycle; Pred::COUNT],
    committed: u64,
    recovery: Option<Recovery>,
    /// Cycle until which a triggering load miss is outstanding (throttle).
    miss_outstanding_until: Cycle,
    /// In-order stall: issue is blocked behind an outstanding L0-missing
    /// load until its data returns (the paper's premise that "data cache
    /// misses in in-order pipelines ... always result in pipeline stalls").
    stall_until: Cycle,
    squashes: u64,
    squashed_instrs: u64,
    fault: Option<FaultSpec>,
    detector: Detector,
    stop_early: bool,
    /// Per-stage telemetry; `None` keeps collection zero-cost.
    stages: Option<StageCounters>,
    /// Per-cycle state fingerprints; `None` keeps collection zero-cost.
    fingerprints: Option<Vec<u64>>,
}

/// FNV-1a step over one 64-bit quantity (word-at-a-time: the stream is
/// compared for equality, never used as a table hash, so the weaker
/// per-word mixing is fine and ~8x cheaper than byte-wise FNV).
#[inline]
fn fnv1a(h: u64, v: u64) -> u64 {
    (h ^ v).wrapping_mul(0x0000_0100_0000_01B3)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl<'a> Engine<'a> {
    fn new(
        cfg: &'a PipelineConfig,
        program: &'a Program,
        trace: &'a ExecutionTrace,
        fault: Option<FaultSpec>,
        detection: DetectionModel,
    ) -> Self {
        Engine {
            cfg,
            trace: trace.entries(),
            frontend: FrontEnd::new(cfg, program, trace.entries()),
            iq: InstructionQueue::new(cfg.iq_entries),
            hierarchy: Hierarchy::new(cfg.hierarchy),
            reg_ready: [Cycle::ZERO; Reg::COUNT],
            pred_ready: [Cycle::ZERO; Pred::COUNT],
            committed: 0,
            recovery: None,
            miss_outstanding_until: Cycle::ZERO,
            stall_until: Cycle::ZERO,
            squashes: 0,
            squashed_instrs: 0,
            fault,
            detector: Detector::new(detection),
            stop_early: false,
            stages: None,
            fingerprints: None,
        }
    }

    /// Rebuilds an engine mid-run from a snapshot, with an optional fault
    /// still to inject. The caller continues with
    /// [`Engine::run_core`]`(snapshot.cycle, 0)`.
    fn from_snapshot(
        cfg: &'a PipelineConfig,
        program: &'a Program,
        trace: &'a ExecutionTrace,
        snapshot: &Snapshot,
        fault: Option<FaultSpec>,
    ) -> Self {
        Engine::from_snapshot_inner(cfg, program, trace, snapshot, fault, true)
    }

    /// [`Engine::from_snapshot`], optionally skipping the pre-snapshot
    /// residency-log copy. Copying that log is the dominant cost of a
    /// restore; a pruned-window run never consumes its residencies, so the
    /// batched executor restores lean (`with_residencies = false`). A lean
    /// engine's `into_residencies` is truncated to the post-restore tail
    /// and must never feed AVF analysis.
    fn from_snapshot_inner(
        cfg: &'a PipelineConfig,
        program: &'a Program,
        trace: &'a ExecutionTrace,
        snapshot: &Snapshot,
        fault: Option<FaultSpec>,
        with_residencies: bool,
    ) -> Self {
        let mut engine = Engine::new(cfg, program, trace, fault, DetectionModel::None);
        engine.frontend.restore_state(&snapshot.frontend);
        engine.iq = snapshot.iq.clone_without_residencies();
        if with_residencies {
            engine
                .iq
                .set_residencies(snapshot.residency_log[..snapshot.residency_prefix].to_vec());
        }
        engine.hierarchy.restore(&snapshot.hierarchy);
        engine.reg_ready = snapshot.reg_ready;
        engine.pred_ready = snapshot.pred_ready;
        engine.committed = snapshot.committed;
        engine.recovery = snapshot.recovery;
        engine.miss_outstanding_until = snapshot.miss_outstanding_until;
        engine.stall_until = snapshot.stall_until;
        engine.squashes = snapshot.squashes;
        engine.squashed_instrs = snapshot.squashed_instrs;
        engine.detector = snapshot.detector.clone();
        engine
    }

    fn run(mut self) -> PipelineResult {
        if self.cfg.warm_caches {
            self.warm_caches();
        }
        self.run_core(Cycle::ZERO, 0).0
    }

    fn run_capturing(mut self, interval: u64) -> (PipelineResult, Vec<Snapshot>) {
        if self.cfg.warm_caches {
            self.warm_caches();
        }
        let (result, snapshots, _, _) = self.run_core(Cycle::ZERO, interval);
        (result, snapshots)
    }

    /// The cycle loop, from `start` (inclusive), capturing a snapshot at
    /// the top of every cycle divisible by `interval` (0 = never).
    /// Warm-up, if any, must have happened already: a resumed run's
    /// restored hierarchy is post-warm-up state and must not be warmed
    /// again.
    fn run_core(
        mut self,
        start: Cycle,
        interval: u64,
    ) -> (
        PipelineResult,
        Vec<Snapshot>,
        Option<StageCounters>,
        Option<Vec<u64>>,
    ) {
        let mut snapshots = Vec::new();
        let mut now = start;
        let total = self.trace.len() as u64;
        let mut budget_exhausted = false;
        while self.committed < total && !self.stop_early {
            if now.as_u64() >= self.cfg.max_cycles {
                budget_exhausted = true;
                break;
            }
            if self.fingerprints.is_some() {
                let fp = self.overlay_fingerprint();
                if let Some(fps) = self.fingerprints.as_mut() {
                    fps.push(fp);
                }
            }
            if interval > 0 && now.as_u64().is_multiple_of(interval) {
                snapshots.push(self.capture(now));
            }
            self.step_recovery(now);
            self.step_retire(now);
            self.step_issue(now);
            self.step_insert(now);
            self.step_fetch(now);
            self.step_inject(now);
            let occupancy = self.iq.tick_stats();
            if let Some(st) = self.stages.as_mut() {
                st.on_cycle(now.as_u64(), occupancy as u64);
            }
            now = now.next();
        }
        self.iq.drain_all(now);
        // Resolve any entries that were drained while corrupted.
        // (drain_all already logged residencies; the detector saw
        // deallocs only for squash/flush paths, so let finish() decide.)
        let (predictions, mispredictions) = self.frontend.predictor_stats();
        let fe_stats = self.frontend.stats();
        let fault_outcome = if self.fault.is_some() {
            self.detector.finish()
        } else {
            None
        };
        let occupied_cycle_sum = self.iq.occupied_cycle_sum();
        let residencies = self.iq.into_residencies();
        if !snapshots.is_empty() {
            let log = Arc::new(residencies.clone());
            for snap in &mut snapshots {
                snap.residency_log = Arc::clone(&log);
            }
        }
        let result = PipelineResult {
            cycles: now.as_u64(),
            committed: self.committed,
            iq_capacity: self.cfg.iq_entries,
            occupied_cycle_sum,
            predictions,
            mispredictions,
            squashes: self.squashes,
            squashed_instrs: self.squashed_instrs,
            wrong_path_fetched: fe_stats.wrong_path_fetched,
            throttled_cycles: fe_stats.throttled_cycles,
            l0: self.hierarchy.stats(Level::L0),
            l1: self.hierarchy.stats(Level::L1),
            l2: self.hierarchy.stats(Level::L2),
            fault: fault_outcome,
            budget_exhausted,
            residencies,
        };
        (result, snapshots, self.stages, self.fingerprints)
    }

    /// A cheap rolling FNV-1a hash of the machine state the fault overlay
    /// can touch: the commit count plus, for each occupied queue slot in
    /// age order, its slot index, sequence number, stored word, and π bit.
    ///
    /// An injected fault perturbs nothing but the struck word, the π bit,
    /// and the detector's own bookkeeping — timing is bit-identical to the
    /// golden run until an outcome stops it early — so equality of this
    /// fingerprint at an equal cycle, together with a quiescent detector
    /// ([`Detector::quiescent_verdict`]), proves the remainder of the
    /// faulted run replays the golden tail exactly.
    fn overlay_fingerprint(&self) -> u64 {
        let mut h = fnv1a(FNV_OFFSET, self.committed);
        for &slot in self.iq.age_order() {
            let e = self.iq.get(slot).expect("slot in age order");
            h = fnv1a(h, slot as u64);
            h = fnv1a(h, e.seq.as_u64());
            h = fnv1a(h, e.word);
            h = fnv1a(h, e.pi as u64);
        }
        h
    }

    /// Clones this engine's pre-run state into a fresh engine carrying
    /// `fault`. The receiver must not have stepped yet (it is the restored
    /// base of a pruned window); the fork shares its borrowed
    /// program/trace and starts from the identical machine state.
    fn fork(
        &self,
        program: &'a Program,
        trace: &'a ExecutionTrace,
        fault: FaultSpec,
    ) -> Engine<'a> {
        let mut e = Engine::new(self.cfg, program, trace, Some(fault), DetectionModel::None);
        e.frontend.restore_state(&self.frontend.snapshot_state());
        e.iq = self.iq.clone();
        e.hierarchy = self.hierarchy.clone();
        e.reg_ready = self.reg_ready;
        e.pred_ready = self.pred_ready;
        e.committed = self.committed;
        e.recovery = self.recovery;
        e.miss_outstanding_until = self.miss_outstanding_until;
        e.stall_until = self.stall_until;
        e.squashes = self.squashes;
        e.squashed_instrs = self.squashed_instrs;
        e.detector = self.detector.clone();
        e
    }

    /// The faulted cycle loop with convergence pruning: identical stepping
    /// to [`Engine::run_core`], but at the top of every cycle after the
    /// fault has fully landed it checks whether the detector has quiesced
    /// ([`Detector::quiescent_verdict`]), the struck slot carries no
    /// residual corruption or π, and the overlay fingerprint equals the
    /// golden run's at the same cycle. The first cycle all four hold, the
    /// verdict is decided and the tail is skipped.
    fn run_pruned(mut self, start: Cycle, golden_fps: &[u64]) -> PrunedRun {
        let mut now = start;
        let total = self.trace.len() as u64;
        while self.committed < total && !self.stop_early {
            if now.as_u64() >= self.cfg.max_cycles {
                break;
            }
            if let Some(f) = self.fault {
                let spent = f.cycle == Cycle::new(u64::MAX);
                let second_resolved = match f.second_cycle {
                    None => true,
                    Some(c2) => c2 == Cycle::new(u64::MAX) || c2 < now,
                };
                if spent && second_resolved {
                    if let Some(verdict) = self.detector.quiescent_verdict() {
                        // The fault overlay is confined to the struck slot;
                        // once that slot is clean (struck entry gone, no
                        // lingering π) the fingerprint is the only state
                        // that could still differ.
                        let slot_clean = self
                            .iq
                            .get(f.slot)
                            .is_none_or(|e| !e.parity_mismatch() && !e.pi);
                        let idx = now.as_u64() as usize;
                        if slot_clean
                            && idx < golden_fps.len()
                            && self.overlay_fingerprint() == golden_fps[idx]
                        {
                            return PrunedRun {
                                outcome: verdict,
                                end_cycle: now.as_u64(),
                                pruned: true,
                            };
                        }
                    }
                }
            }
            self.step_recovery(now);
            self.step_retire(now);
            self.step_issue(now);
            self.step_insert(now);
            self.step_fetch(now);
            self.step_inject(now);
            self.iq.tick_stats();
            now = now.next();
        }
        // `drain_all` only logs residencies, which a pruned-window run
        // never consumes; the detector alone decides the verdict.
        let outcome = self
            .detector
            .finish()
            .expect("a faulted run always resolves an outcome");
        PrunedRun {
            outcome,
            end_cycle: now.as_u64(),
            pruned: false,
        }
    }

    /// Captures the engine's full state at the top of cycle `now`.
    fn capture(&self, now: Cycle) -> Snapshot {
        Snapshot {
            cycle: now,
            frontend: self.frontend.snapshot_state(),
            iq: self.iq.clone_without_residencies(),
            residency_prefix: self.iq.residencies_len(),
            residency_log: Arc::new(Vec::new()), // stitched in after the run
            hierarchy: self.hierarchy.snapshot(),
            reg_ready: self.reg_ready,
            pred_ready: self.pred_ready,
            committed: self.committed,
            recovery: self.recovery,
            miss_outstanding_until: self.miss_outstanding_until,
            stall_until: self.stall_until,
            squashes: self.squashes,
            squashed_instrs: self.squashed_instrs,
            detector: self.detector.clone(),
        }
    }

    /// Primes the hierarchy with every data block the trace touches more
    /// than once, in first-touch order, then clears the statistics. This
    /// reproduces warmed steady-state caches without hiding the cold
    /// streaming behaviour of single-touch (memory-bound) access patterns.
    fn warm_caches(&mut self) {
        use std::collections::HashMap;
        let block = self.cfg.hierarchy.l1.block_bytes;
        let mut touches: HashMap<u64, u32> = HashMap::new();
        for d in self.trace {
            for addr in [d.mem_read, d.mem_written].into_iter().flatten() {
                *touches.entry(addr.block_base(block).as_u64()).or_insert(0) += 1;
            }
        }
        let mut primed: std::collections::HashSet<u64> = std::collections::HashSet::new();
        for d in self.trace {
            for addr in [d.mem_read, d.mem_written].into_iter().flatten() {
                let base = addr.block_base(block).as_u64();
                if touches.get(&base).copied().unwrap_or(0) >= 2 && primed.insert(base) {
                    self.hierarchy.access(addr, AccessKind::Load);
                }
            }
        }
        self.hierarchy.reset_stats();
    }

    fn step_recovery(&mut self, now: Cycle) {
        let Some(rec) = self.recovery else { return };
        if rec.at > now {
            return;
        }
        self.recovery = None;
        let flushed = self.iq.flush_younger(rec.branch_seq, now);
        for e in &flushed {
            if self.detector.on_dealloc(e, ResidencyEnd::FlushedWrongPath) {
                self.stop_early = true;
            }
        }
        self.frontend.redirect(rec.resume_trace_idx, now.next());
    }

    fn step_retire(&mut self, now: Cycle) {
        let mut retired = 0u64;
        for _ in 0..self.cfg.width {
            let Some(slot) = self.iq.head() else { break };
            let entry = self.iq.get(slot).expect("head occupied");
            let Occupant::CorrectPath { trace_idx } = entry.occupant else {
                // Wrong-path entries at the head wait for their flush.
                break;
            };
            let done = entry
                .complete_at
                .map(|c| c <= now)
                .unwrap_or(false);
            if !done {
                break;
            }
            let entry = self.iq.retire(slot, now);
            self.committed += 1;
            retired += 1;
            let d = &self.trace[trace_idx as usize];
            if self.detector.on_commit(&entry, d) {
                self.stop_early = true;
            }
        }
        if retired > 0 {
            if let Some(st) = self.stages.as_mut() {
                st.on_commit(now.as_u64(), retired);
            }
        }
    }

    fn step_issue(&mut self, now: Cycle) {
        let in_order = self.cfg.issue_order == IssueOrder::InOrder;
        if in_order && now < self.stall_until {
            return; // in-order pipeline stalled behind a load miss
        }
        let mut issued = 0usize;
        let mut mem_issued = 0usize;
        let mut branch_issued = 0usize;
        let order: Vec<usize> = self.iq.age_order().to_vec();
        let mut squash_request: Option<(SeqNo, u64, Cycle)> = None;
        for slot in order {
            if issued >= self.cfg.width {
                break;
            }
            let entry = self.iq.get(slot).expect("slot in order list");
            if entry.issued.is_some() {
                continue; // already in flight; in-order issue may proceed
            }
            // Issue-port limits: a full port stalls in-order issue (the
            // blocked instruction is the oldest unissued one) and is merely
            // skipped out of order.
            let needs_mem = entry.instr.op.touches_memory();
            let needs_branch = entry.instr.op.is_control();
            let port_blocked = (needs_mem && mem_issued >= self.cfg.ports.mem)
                || (needs_branch && branch_issued >= self.cfg.ports.branch);
            if port_blocked || !self.ready_to_issue(entry, now) {
                if in_order {
                    break; // in-order: the first stalled entry blocks younger
                }
                continue; // out-of-order: younger ready entries may pass
            }
            if needs_mem {
                mem_issued += 1;
            }
            if needs_branch {
                branch_issued += 1;
            }
            // --- issue the entry ---
            let seq = entry.seq;
            let occupant = entry.occupant;
            let instr = entry.instr;
            let mispredicted = self.trace_mispredict_flag(slot);
            let complete_at = self.compute_completion(slot, now, &mut squash_request);
            let entry = self.iq.get_mut(slot).expect("slot still occupied");
            entry.issued = Some(now);
            entry.complete_at = Some(complete_at);
            if self.detector.on_issue(self.iq.get_mut(slot).expect("occupied")) {
                self.stop_early = true;
            }
            // Scoreboard update for executed correct-path instructions.
            if let Occupant::CorrectPath { trace_idx } = occupant {
                let d = &self.trace[trace_idx as usize];
                if d.executed {
                    if let Some(w) = d.reg_written {
                        self.reg_ready[w.index()] = complete_at;
                    }
                    if let Some(p) = d.pred_written {
                        self.pred_ready[p.index()] = complete_at;
                    }
                }
                if mispredicted {
                    self.recovery = Some(Recovery {
                        at: complete_at,
                        branch_seq: seq,
                        resume_trace_idx: trace_idx + 1,
                    });
                }
            }
            let _ = instr;
            issued += 1;
        }

        if issued > 0 {
            if let Some(st) = self.stages.as_mut() {
                st.on_issue(now.as_u64(), issued as u64);
            }
        }
        if let Some((load_seq, load_trace_idx, data_ready)) = squash_request {
            self.apply_squash(load_seq, load_trace_idx, data_ready, now);
        }
    }

    fn trace_mispredict_flag(&self, slot: usize) -> bool {
        self.iq
            .get(slot)
            .map(|e| e.mispredicted_branch)
            .unwrap_or(false)
    }

    fn ready_to_issue(&self, entry: &IqEntry, now: Cycle) -> bool {
        match entry.occupant {
            // Wrong-path operands are bogus anyway; they issue freely.
            Occupant::WrongPath => true,
            Occupant::CorrectPath { .. } => {
                if self.pred_ready[entry.instr.qp.index()] > now {
                    return false;
                }
                entry
                    .instr
                    .reads()
                    .all(|r| self.reg_ready[r.index()] <= now)
            }
        }
    }

    /// Computes the completion cycle, performing the cache access for
    /// executed loads/stores/prefetches and recording any squash trigger.
    fn compute_completion(
        &mut self,
        slot: usize,
        now: Cycle,
        squash_request: &mut Option<(SeqNo, u64, Cycle)>,
    ) -> Cycle {
        let entry = self.iq.get(slot).expect("slot occupied");
        let op = entry.instr.op;
        let seq = entry.seq;
        let base = op.base_latency().max(1);
        let Occupant::CorrectPath { trace_idx } = entry.occupant else {
            return now + base;
        };
        let d = &self.trace[trace_idx as usize];
        if !d.executed {
            return now + 1;
        }
        match op {
            Opcode::Ld => {
                let addr = d.mem_read.expect("executed load has an address");
                let access = self.hierarchy.access(addr, AccessKind::Load);
                let complete = now + access.latency;
                // An L0 miss stalls in-order issue until the data returns.
                if access.missed_in(Level::L0) && complete > self.stall_until {
                    self.stall_until = complete;
                }
                // Squash / throttle triggers (§3.1): a load miss at the
                // configured level.
                if let SquashPolicy::OnLoadMiss(level) = self.cfg.squash {
                    // Keep the oldest triggering load of the cycle: the
                    // squash boundary is "younger than the (first) load
                    // that missed".
                    if access.missed_in(level) && squash_request.is_none() {
                        *squash_request = Some((seq, trace_idx, complete));
                    }
                }
                if let ThrottlePolicy::OnLoadMiss(level) = self.cfg.throttle {
                    if access.missed_in(level) && complete > self.miss_outstanding_until {
                        self.miss_outstanding_until = complete;
                    }
                }
                complete
            }
            Opcode::St => {
                let addr = d.mem_written.expect("executed store has an address");
                self.hierarchy.access(addr, AccessKind::Store);
                now + 1 // the store buffer absorbs the latency
            }
            // Prefetches are non-blocking; their fills are second-order for
            // the AVF questions studied here and are not modelled.
            Opcode::Prefetch => now + 1,
            Opcode::Br => now + self.branch_latency(),
            _ => now + base,
        }
    }

    fn branch_latency(&self) -> u64 {
        // Conditional branches resolve in the back end; three cycles models
        // the issue-to-resolve distance of an Itanium®2-class core.
        3
    }

    fn apply_squash(&mut self, load_seq: SeqNo, load_trace_idx: u64, data_ready: Cycle, now: Cycle) {
        let squashed = self.iq.squash_younger(load_seq, now);
        for e in &squashed {
            if self.detector.on_dealloc(e, ResidencyEnd::Squashed) {
                self.stop_early = true;
            }
        }
        self.squashed_instrs += squashed.len() as u64;
        self.squashes += 1;
        if let Some(st) = self.stages.as_mut() {
            st.on_squash(now.as_u64(), squashed.len() as u64);
        }
        // Cancel a pending recovery if its branch was squashed.
        if let Some(rec) = self.recovery {
            if rec.branch_seq.is_younger_than(load_seq) {
                self.recovery = None;
            }
        }
        // Refetch from just after the load, timed so instructions re-enter
        // the queue as the pipeline resumes execution ("bring them back
        // when the pipeline resumes execution", §3) — that is, when the
        // *last* outstanding miss returns, not just the triggering one.
        let horizon = data_ready.max(self.stall_until);
        let resume = Cycle::new(
            horizon
                .as_u64()
                .saturating_sub(self.cfg.frontend_depth)
                .max(now.as_u64() + 1),
        );
        self.frontend.redirect(load_trace_idx + 1, resume);
    }

    fn step_insert(&mut self, now: Cycle) {
        let free = self.iq.free().min(self.cfg.width);
        if free == 0 {
            return;
        }
        let mut inserted = 0u64;
        for f in self.frontend.take_ready(now, free) {
            let FetchedInstr {
                occupant,
                instr,
                seq,
                falsely_predicated,
                mispredicted_branch,
                ..
            } = f;
            let mut entry = IqEntry::new(occupant, instr, seq, now, falsely_predicated);
            entry.mispredicted_branch = mispredicted_branch;
            self.iq.insert(entry);
            inserted += 1;
        }
        if inserted > 0 {
            if let Some(st) = self.stages.as_mut() {
                st.on_insert(now.as_u64(), inserted);
            }
        }
    }

    fn step_fetch(&mut self, now: Cycle) {
        let throttled = matches!(self.cfg.throttle, ThrottlePolicy::OnLoadMiss(_))
            && now < self.miss_outstanding_until;
        // Synthetic front-end stall pattern (I-cache/ITLB hiccups).
        let ifetch_stalled = self.cfg.ifetch_stall_period > 0
            && now.as_u64() % self.cfg.ifetch_stall_period < self.cfg.ifetch_stall_cycles;
        self.frontend.throttled = throttled;
        if !ifetch_stalled {
            let throttled_before = self.frontend.stats().throttled_cycles;
            let (correct, wrong) = self.frontend.fetch(now);
            if let Some(st) = self.stages.as_mut() {
                if correct + wrong > 0 {
                    st.on_fetch(now.as_u64(), correct, wrong);
                }
                if self.frontend.stats().throttled_cycles > throttled_before {
                    st.on_throttle(now.as_u64());
                }
            }
        }
    }

    fn step_inject(&mut self, now: Cycle) {
        let Some(f) = self.fault else { return };
        // Background scrubbing: a periodic parity sweep over the queue.
        if self.cfg.scrub_period > 0
            && now.as_u64() > 0
            && now.as_u64().is_multiple_of(self.cfg.scrub_period)
        {
            let slots: Vec<usize> = self.iq.age_order().to_vec();
            for slot in slots {
                if let Some(entry) = self.iq.get_mut(slot) {
                    if entry.parity_mismatch() && self.detector.on_scrub(entry) {
                        self.stop_early = true;
                        return;
                    }
                }
            }
        }
        if f.cycle == now {
            let entry = self.iq.get_mut(f.slot);
            self.detector.set_ecc_verdict(f.ecc);
            self.detector.on_injection(entry, f.mask());
            if self.detector.outcome().is_some() {
                self.stop_early = true;
            }
            // Mark the first strike spent.
            self.fault = Some(FaultSpec {
                cycle: Cycle::new(u64::MAX),
                ..f
            });
            return;
        }
        // A deferred second strike lands only while the struck entry is
        // still resident in its slot.
        if let Some((c2, mask)) = f.second_mask() {
            if c2 == now {
                if let Some(entry) = self.iq.get_mut(f.slot) {
                    self.detector.on_second_strike(entry, mask);
                }
                self.fault = Some(FaultSpec {
                    second_cycle: Some(Cycle::new(u64::MAX)),
                    ..f
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_arch::Emulator;
    use ses_workloads::{synthesize, WorkloadSpec};

    fn quick_run() -> (Program, ExecutionTrace) {
        let spec = WorkloadSpec::quick("engine-snap", 17);
        let program = synthesize(&spec);
        let trace = Emulator::new(&program).run(100_000).unwrap();
        (program, trace)
    }

    #[test]
    fn capture_run_matches_plain_run() {
        let (program, trace) = quick_run();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let plain = pipeline.run(&program, &trace);
        let (captured, snapshots) =
            pipeline.run_with_snapshots(&program, &trace, DetectionModel::None, 500);
        assert_eq!(plain, captured, "snapshot capture must not perturb timing");
        assert!(!snapshots.is_empty());
        assert_eq!(snapshots[0].cycle(), Cycle::ZERO);
        assert!(snapshots.windows(2).all(|w| w[0].cycle() < w[1].cycle()));
    }

    #[test]
    fn faultless_resume_replays_tail_bit_identically() {
        let (program, trace) = quick_run();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let (golden, snapshots) =
            pipeline.run_with_snapshots(&program, &trace, DetectionModel::None, 700);
        for snap in [&snapshots[0], &snapshots[snapshots.len() / 2], snapshots.last().unwrap()]
        {
            let resumed = pipeline.resume(&program, &trace, snap, None);
            assert_eq!(
                golden, resumed,
                "resume from cycle {:?} must reproduce the golden run",
                snap.cycle()
            );
        }
    }

    #[test]
    fn resumed_fault_run_matches_from_scratch() {
        let (program, trace) = quick_run();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let detection = DetectionModel::Parity { tracking: None };
        let (golden, snapshots) =
            pipeline.run_with_snapshots(&program, &trace, detection, 400);
        let last_cycle = golden.cycles.saturating_sub(1);
        for (strike, slot, bit) in [
            (0u64, 0usize, 5u32),
            (401, 3, 17),
            (800, 12, 63),
            (last_cycle, 1, 30),
        ] {
            let fault = FaultSpec::single(Cycle::new(strike), slot, bit);
            let scratch = pipeline.run_with_fault(&program, &trace, Some(fault), detection);
            let idx = snapshots.partition_point(|s| s.cycle() <= fault.cycle);
            let snap = &snapshots[idx - 1];
            let resumed = pipeline.resume(&program, &trace, snap, Some(fault));
            assert_eq!(
                scratch, resumed,
                "fault at cycle {strike} slot {slot} bit {bit} diverged"
            );
        }
    }

    #[test]
    #[should_panic(expected = "strikes before")]
    fn resume_rejects_pre_snapshot_faults() {
        let (program, trace) = quick_run();
        let pipeline = Pipeline::new(PipelineConfig::default());
        let (_, snapshots) =
            pipeline.run_with_snapshots(&program, &trace, DetectionModel::None, 600);
        let late = snapshots.last().unwrap();
        let fault = FaultSpec::single(Cycle::ZERO, 0, 0);
        pipeline.resume(&program, &trace, late, Some(fault));
    }
}
