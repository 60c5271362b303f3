//! Campaign orchestration: random strikes, timing-model replay, functional
//! outcome classification.
//!
//! The injection loop is checkpointed: [`Campaign::prepare`] runs the
//! golden timing simulation once, capturing pipeline [`Snapshot`]s every
//! `checkpoint_interval` cycles, and each injection then resumes from the
//! latest snapshot at or before its strike cycle instead of re-simulating
//! from cycle 0.
//!
//! With [`CampaignConfig::prune`] the executor goes further: prepare also
//! records a golden fingerprint stream (a rolling hash of architectural
//! plus microarchitectural state per cycle), injections are grouped by
//! checkpoint window and forked off a single restored snapshot per window,
//! each faulted replay stops the moment its fingerprint rejoins the golden
//! stream at the same cycle, strikes on provably idle coordinates resolve
//! without simulating at all, and timing verdicts are memoized per
//! residency equivalence class (`(slot, allocation, phase, mask, ecc)`) in
//! a sharded map shared across worker threads. Verdicts are identical
//! either way — debug builds assert every pruned verdict against a full
//! legacy replay.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ses_arch::{Emulator, ExecutionTrace, GoldenCheckpoints, ReplayVerdict};
use ses_isa::{bit_kind, encode, BitKind, Program};
use ses_pipeline::{
    DetectionModel, EccReadOutcome, FaultOutcome, FaultSpec, Occupant, Pipeline, PipelineConfig,
    PipelineResult, PrunedWindow, Snapshot, SuppressReason,
};
use ses_types::{Cycle, SesError};
use ses_workloads::{synthesize, WorkloadSpec};

use crate::outcome::Outcome;
use crate::recovery::{
    LatencyDistribution, RecoveryCounters, RecoveryDecision, RecoveryPolicy, RecoveryReport,
};
use crate::report::{CampaignPerf, CampaignReport, PruneReport};

/// Configuration of a fault-injection campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of single-bit faults to inject.
    pub injections: u32,
    /// Seed for strike-coordinate sampling.
    pub seed: u64,
    /// Detection model under test.
    pub detection: DetectionModel,
    /// Inject adjacent double-bit faults instead of single-bit ones
    /// (models one particle upsetting two neighbouring cells, the paper's
    /// §2 multi-bit caveat; physical interleaving defends against it).
    pub double_bit: bool,
    /// With `double_bit`, land the second strike this many cycles after
    /// the first (two independent particles accumulating in one entry —
    /// the failure mode periodic scrubbing defends against). `0` keeps the
    /// strikes simultaneous.
    pub temporal_gap: u64,
    /// Spacing in cycles between the pipeline snapshots captured during
    /// [`Campaign::prepare`]. Each injection resumes from the latest
    /// snapshot at or before its strike cycle, skipping the fault-free
    /// prefix of the run.
    ///
    /// * `None` (default) — automatic: `baseline_cycles / 64`, at least 1
    ///   (about 64 checkpoints over the run).
    /// * `Some(0)` — disable checkpointing; every injection simulates
    ///   from cycle 0.
    /// * `Some(k)` — capture a snapshot every `k` cycles.
    pub checkpoint_interval: Option<u64>,
    /// Timing-model configuration.
    pub pipeline: PipelineConfig,
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// Detection-signal latency model. `None` (default) keeps the paper's
    /// instantaneous machine check; with a distribution, each detected
    /// fault's signal is deferred by a deterministically sampled latency.
    pub detect_latency: Option<LatencyDistribution>,
    /// What a detected fault becomes: the legacy machine-check DUE, or an
    /// idempotent-region re-execution when the deferred signal still lands
    /// inside the fault's region.
    pub recovery: RecoveryPolicy,
    /// Enable the convergence-pruned, window-batched injection executor:
    /// prepare records a per-cycle golden fingerprint stream, injections
    /// are grouped by checkpoint window and forked off one restored
    /// snapshot per window, and each faulted replay stops as soon as its
    /// state fingerprint rejoins the golden stream. Off by default.
    /// Verdicts are identical either way (asserted per injection in debug
    /// builds); only wall-clock and the pruning telemetry stanza change.
    pub prune: bool,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            injections: 1000,
            seed: 0xFAu64,
            detection: DetectionModel::None,
            double_bit: false,
            temporal_gap: 0,
            checkpoint_interval: None,
            pipeline: PipelineConfig::default(),
            threads: 0,
            detect_latency: None,
            recovery: RecoveryPolicy::MachineCheck,
            prune: false,
        }
    }
}

/// Release builds re-check one in `REPLAY_AUDIT_RATE` functional replays
/// against the from-zero oracle; debug builds check every one.
const REPLAY_AUDIT_RATE: u64 = 64;

const MEMO_SHARDS: usize = 16;

/// Memoization key of one pruned-executor timing verdict. A fault's
/// timing outcome is fully determined by the residency it lands in
/// (`(slot, alloc)` is unique per golden run), the lifetime phase of its
/// strike cycle, its flip mask, and the precomputed ECC-domain verdict:
/// entries issue exactly once, so every strike cycle within one phase of
/// one residency presents the identical corrupted word at the identical
/// read point, and the `(outcome, end cycle)` pair is constant across
/// the whole equivalence class.
type MemoKey = (usize, u64, ses_avf::StrikePhase, u64, u8);

/// A memoized timing verdict: `(outcome, end cycle, fingerprint-pruned)`.
type MemoValue = (FaultOutcome, u64, bool);

/// Concurrent verdict memoization for the pruned executor, sharded to
/// keep lock contention off the injection workers' hot path.
struct VerdictMemo {
    shards: [Mutex<HashMap<MemoKey, MemoValue>>; MEMO_SHARDS],
}

impl VerdictMemo {
    fn new() -> Self {
        VerdictMemo {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
        }
    }

    fn shard(&self, key: &MemoKey) -> &Mutex<HashMap<MemoKey, MemoValue>> {
        let phase = matches!(key.2, ses_avf::StrikePhase::Tail) as u64;
        let h = ((key.0 as u64)
            ^ key.1.rotate_left(17)
            ^ phase.rotate_left(33)
            ^ key.3.rotate_left(47)
            ^ u64::from(key.4))
        .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 60) as usize % MEMO_SHARDS]
    }

    fn get(&self, key: &MemoKey) -> Option<MemoValue> {
        self.shard(key).lock().expect("memo shard").get(key).copied()
    }

    fn insert(&self, key: MemoKey, value: MemoValue) {
        self.shard(&key).lock().expect("memo shard").insert(key, value);
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard").len())
            .sum()
    }
}

/// How the pruned executor resolved one injection; folded in
/// injection-index order into the deterministic [`PruneReport`], so the
/// accounting is independent of thread scheduling.
#[derive(Debug, Clone, Copy)]
struct PruneMeta {
    /// Cycle the fault's checkpoint window starts at.
    window_start: u64,
    kind: PruneKind,
}

#[derive(Debug, Clone, Copy)]
enum PruneKind {
    /// The struck coordinate holds no residency: verdict without any
    /// simulation.
    Idle,
    /// Memo-eligible fault. Hits and misses record the identical shape
    /// (the memoized value is deterministic), so which thread computed an
    /// entry first never shows in the artifacts; the fold counts a hit
    /// for every occurrence of a key beyond the first in index order.
    Memo { key: MemoKey, end: u64, pruned: bool },
    /// The replay stopped early at the fingerprint convergence gate.
    Pruned { end: u64 },
    /// The replay ran to its natural end.
    Full { end: u64 },
}

/// Monotonic work counters shared by the injection workers.
#[derive(Default)]
struct PerfCounters {
    cycles_simulated: AtomicU64,
    cycles_skipped: AtomicU64,
    replays: AtomicU64,
    replay_fast_path: AtomicU64,
}

struct CounterValues {
    cycles_simulated: u64,
    cycles_skipped: u64,
    replays: u64,
    replay_fast_path: u64,
}

impl PerfCounters {
    fn values(&self) -> CounterValues {
        CounterValues {
            cycles_simulated: self.cycles_simulated.load(Ordering::Relaxed),
            cycles_skipped: self.cycles_skipped.load(Ordering::Relaxed),
            replays: self.replays.load(Ordering::Relaxed),
            replay_fast_path: self.replay_fast_path.load(Ordering::Relaxed),
        }
    }
}

/// A prepared fault-injection campaign over one workload.
pub struct Campaign {
    program: Program,
    golden: ExecutionTrace,
    /// Encoded golden instruction word per dynamic-trace index, for the
    /// replay fast path (corrupted word == golden word is trivially
    /// identical).
    golden_words: Vec<u64>,
    baseline_cycles: u64,
    /// Per-slot lifetime spans of the golden timing run (`ses-avf`'s
    /// canonical interval representation), kept for the adaptive
    /// sampler's lifetime and occupancy stratification.
    lifetime_spans: Vec<ses_avf::LifetimeSpan>,
    /// Golden architectural checkpoints captured during the golden
    /// emulation; functional replays resume from them.
    replay_points: GoldenCheckpoints,
    pipeline: Pipeline,
    snapshots: Vec<Snapshot>,
    checkpoint_interval: u64,
    replay_budget: u64,
    prepare_wall: Duration,
    /// Golden per-cycle fingerprint stream for the convergence gate;
    /// empty unless [`CampaignConfig::prune`] is enabled.
    golden_fps: Vec<u64>,
    /// Per-slot residency interval index for the pruned executor's idle
    /// shortcut and memo keying; built only when pruning is enabled.
    strike_index: Option<ses_avf::StrikeIndex>,
    memo: VerdictMemo,
    counters: PerfCounters,
    /// Idempotent-region partition of the golden trace, computed only when
    /// the recovery policy is [`RecoveryPolicy::Idempotent`].
    regions: Option<ses_avf::RegionMap>,
    recovery_counters: RecoveryCounters,
    config: CampaignConfig,
}

impl Campaign {
    /// Synthesises the workload, produces the golden trace, measures the
    /// fault-free cycle count (the strike-cycle sampling range), and
    /// captures the pipeline checkpoints injections resume from.
    ///
    /// # Errors
    ///
    /// Propagates functional-emulation failures of the golden run.
    pub fn prepare(spec: &WorkloadSpec, config: CampaignConfig) -> Result<Self, SesError> {
        Self::prepare_program(synthesize(spec), spec.target_dynamic * 4, config)
    }

    /// Prepares a campaign over an arbitrary program (the differential
    /// oracle injects into fuzz-generated programs this way). `max_instrs`
    /// bounds the golden functional run.
    ///
    /// # Errors
    ///
    /// Propagates functional-emulation failures of the golden run, and
    /// reports a budget error if the program does not halt in time.
    pub fn prepare_program(
        program: Program,
        max_instrs: u64,
        config: CampaignConfig,
    ) -> Result<Self, SesError> {
        let start = Instant::now();
        let (golden, replay_points) = Emulator::new(&program).run_checkpointed(max_instrs)?;
        if !golden.halted() {
            return Err(SesError::BudgetExceeded {
                resource: "instructions",
                limit: max_instrs,
            });
        }
        let golden_words = golden.entries().iter().map(|d| encode(&d.instr)).collect();
        let pipeline = Pipeline::new(config.pipeline.clone());
        // Snapshots are captured under the campaign's detection model:
        // detection state (PET buffer, π-bit tracker) evolves even before
        // a strike, and a resumed run must carry the same pre-strike
        // detector state a from-scratch run would have.
        let (baseline, snapshots, checkpoint_interval, golden_fps) = if config.prune {
            // The pruned executor also needs the golden fingerprint
            // stream; fingerprints are pure observations, so the
            // fingerprinted golden run is otherwise identical to the
            // plain (or snapshotting) run.
            match config.checkpoint_interval {
                Some(0) => {
                    let (result, snaps, fps) = pipeline.run_golden_fingerprinted(
                        &program,
                        &golden,
                        DetectionModel::None,
                        0,
                    );
                    (result, snaps, 0, fps)
                }
                Some(k) => {
                    let (result, snaps, fps) =
                        pipeline.run_golden_fingerprinted(&program, &golden, config.detection, k);
                    (result, snaps, k, fps)
                }
                None => {
                    let plain = pipeline.run(&program, &golden);
                    let k = (plain.cycles / 64).max(1);
                    let (result, snaps, fps) =
                        pipeline.run_golden_fingerprinted(&program, &golden, config.detection, k);
                    (result, snaps, k, fps)
                }
            }
        } else {
            match config.checkpoint_interval {
                Some(0) => (pipeline.run(&program, &golden), Vec::new(), 0, Vec::new()),
                Some(k) => {
                    let (result, snaps) =
                        pipeline.run_with_snapshots(&program, &golden, config.detection, k);
                    (result, snaps, k, Vec::new())
                }
                None => {
                    let plain = pipeline.run(&program, &golden);
                    let k = (plain.cycles / 64).max(1);
                    let (result, snaps) =
                        pipeline.run_with_snapshots(&program, &golden, config.detection, k);
                    (result, snaps, k, Vec::new())
                }
            }
        };
        let replay_budget = (golden.len() as u64).saturating_mul(4).max(10_000);
        let regions = match config.recovery {
            RecoveryPolicy::Idempotent => Some(ses_avf::RegionMap::analyze(&golden)),
            RecoveryPolicy::MachineCheck => None,
        };
        let lifetime_spans = ses_avf::lifetime_spans(&baseline);
        let strike_index = config
            .prune
            .then(|| ses_avf::StrikeIndex::build(&lifetime_spans, config.pipeline.iq_entries));
        Ok(Campaign {
            baseline_cycles: baseline.cycles,
            lifetime_spans,
            program,
            golden,
            golden_words,
            replay_points,
            pipeline,
            snapshots,
            checkpoint_interval,
            replay_budget,
            prepare_wall: start.elapsed(),
            golden_fps,
            strike_index,
            memo: VerdictMemo::new(),
            counters: PerfCounters::default(),
            regions,
            recovery_counters: RecoveryCounters::default(),
            config,
        })
    }

    /// The golden (fault-free) trace.
    pub fn golden(&self) -> &ExecutionTrace {
        &self.golden
    }

    /// Fault-free cycle count of the timing run.
    pub fn baseline_cycles(&self) -> u64 {
        self.baseline_cycles
    }

    /// Resolved snapshot spacing in cycles (0 when checkpointing is
    /// disabled).
    pub fn checkpoint_interval(&self) -> u64 {
        self.checkpoint_interval
    }

    /// Number of pipeline checkpoints captured during prepare.
    pub fn checkpoints(&self) -> usize {
        self.snapshots.len()
    }

    /// Runs the campaign, parallelised across worker threads. Outcomes
    /// are aggregated in injection-index order regardless of thread
    /// scheduling, and the report carries [`CampaignPerf`] accounting.
    pub fn run(&self) -> CampaignReport {
        let (outcomes, perf, _, _) = self.timed_run(|_, o| o);
        let mut report = CampaignReport::from_outcomes(outcomes);
        report.set_perf(perf);
        report
    }

    /// Runs the campaign recording each fault's coordinates alongside its
    /// outcome, for positional analyses (which bits and which queue slots
    /// carry the vulnerability). Parallelised like [`Campaign::run`],
    /// with samples in deterministic injection-index order.
    pub fn run_detailed(&self) -> DetailedReport {
        let (samples, perf, recovery, prune) = self.timed_run(|i, o| (self.fault_for(i), o));
        DetailedReport {
            samples,
            perf,
            recovery,
            prune,
        }
    }

    /// Times the injection phase of a campaign execution and attributes
    /// the counter deltas it produced (performance always, recovery
    /// accounting when the recovery policy is active, pruning accounting
    /// when the pruned executor ran). `wrap` turns each injection's
    /// classified outcome into the caller's sample type.
    fn timed_run<T: Send>(
        &self,
        wrap: impl Fn(u32, Outcome) -> T + Sync,
    ) -> (Vec<T>, CampaignPerf, Option<RecoveryReport>, Option<PruneReport>) {
        let before = self.counters.values();
        let rec_before = self.recovery_counters.values();
        let start = Instant::now();
        let n = self.config.injections;
        let (results, prune) = if self.config.prune {
            let (results, report) = self.windowed_run(n, &wrap);
            (results, Some(report))
        } else {
            (self.parallel_map(n, |i| wrap(i, self.inject_one(i))), None)
        };
        let inject_wall = start.elapsed();
        let after = self.counters.values();
        let recovery = self.regions.as_ref().map(|regions| {
            let rec_after = self.recovery_counters.values();
            RecoveryReport {
                recovered: rec_after.recovered - rec_before.recovered,
                fallback_due: rec_after.fallback_due - rec_before.fallback_due,
                reexec_instructions: rec_after.reexec_instructions
                    - rec_before.reexec_instructions,
                latency_cycles: rec_after.latency_cycles - rec_before.latency_cycles,
                regions: regions.len() as u32,
                mean_region_len: regions.mean_len(),
            }
        });
        let perf = CampaignPerf {
            prepare_wall: self.prepare_wall,
            inject_wall,
            injections: self.config.injections,
            checkpoints: self.snapshots.len(),
            checkpoint_interval: self.checkpoint_interval,
            cycles_simulated: after.cycles_simulated - before.cycles_simulated,
            cycles_skipped: after.cycles_skipped - before.cycles_skipped,
            replays: after.replays - before.replays,
            replay_fast_path: after.replay_fast_path - before.replay_fast_path,
        };
        (results, perf, recovery, prune)
    }

    /// Worker-thread count for a job of `n` independent units.
    fn thread_count(&self, n: usize) -> usize {
        let threads = if self.config.threads == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            self.config.threads
        };
        threads.min(n).max(1)
    }

    /// Maps `f` over `0..n` on the configured worker threads, returning
    /// results in index order.
    pub(crate) fn parallel_map<T, F>(&self, n: u32, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(u32) -> T + Sync,
    {
        let threads = self.thread_count(n as usize);
        if threads == 1 {
            return (0..n).map(f).collect();
        }
        let next = AtomicU32::new(0);
        let mut indexed: Vec<(u32, T)> = Vec::with_capacity(n as usize);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..threads {
                let next = &next;
                let f = &f;
                handles.push(scope.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        local.push((i, f(i)));
                    }
                    local
                }));
            }
            for h in handles {
                indexed.extend(h.join().expect("injection worker panicked"));
            }
        });
        indexed.sort_unstable_by_key(|&(i, _)| i);
        indexed.into_iter().map(|(_, v)| v).collect()
    }

    /// The window-batched pruned executor: group injections by checkpoint
    /// window, restore each window's snapshot at most once, fork the
    /// restored base per fault, and stop each replay at the fingerprint
    /// convergence gate. Results come back in injection-index order and
    /// the accounting fold runs in that order, so reports and artifacts
    /// are byte-identical across thread counts.
    fn windowed_run<T: Send>(
        &self,
        n: u32,
        wrap: &(impl Fn(u32, Outcome) -> T + Sync),
    ) -> (Vec<T>, PruneReport) {
        let faults: Vec<FaultSpec> = (0..n).map(|i| self.fault_for(i)).collect();
        // Window id = number of snapshots at or before the strike; id 0 is
        // the from-scratch window (no snapshot precedes the strike).
        let mut windows: BTreeMap<usize, Vec<u32>> = BTreeMap::new();
        for (i, f) in faults.iter().enumerate() {
            let w = self.snapshots.partition_point(|s| s.cycle() <= f.cycle);
            windows.entry(w).or_default().push(i as u32);
        }
        let threads = self.thread_count(n as usize);
        // Split oversized windows so a campaign with few checkpoints (or
        // none) still parallelises; chunking never affects results — each
        // chunk restores its own base, per-fault charges are pure, and the
        // fold below runs in injection-index order.
        let chunk = ((n as usize) / (threads * 4)).max(1);
        let groups: Vec<(Option<&Snapshot>, Vec<u32>)> = windows
            .into_iter()
            .flat_map(|(w, idxs)| {
                let snap = w.checked_sub(1).map(|j| &self.snapshots[j]);
                idxs.chunks(chunk)
                    .map(|c| (snap, c.to_vec()))
                    .collect::<Vec<_>>()
            })
            .collect();
        let run_group = |(snap, idxs): &(Option<&Snapshot>, Vec<u32>),
                         sink: &mut Vec<(u32, T, PruneMeta)>| {
            // The window base is built lazily: a chunk whose faults all
            // resolve idle or from the memo never restores its snapshot.
            let mut window = None;
            for &i in idxs {
                let fault = faults[i as usize];
                let (fo, meta) = self.window_fault(*snap, &mut window, fault);
                sink.push((i, wrap(i, self.classify(&fault, fo)), meta));
            }
        };
        let mut indexed: Vec<(u32, T, PruneMeta)> = Vec::with_capacity(n as usize);
        let threads = threads.min(groups.len()).max(1);
        if threads == 1 {
            for g in &groups {
                run_group(g, &mut indexed);
            }
        } else {
            let next = AtomicU32::new(0);
            std::thread::scope(|scope| {
                let mut handles = Vec::new();
                for _ in 0..threads {
                    let next = &next;
                    let groups = &groups;
                    let run_group = &run_group;
                    handles.push(scope.spawn(move || {
                        let mut local = Vec::new();
                        loop {
                            let g = next.fetch_add(1, Ordering::Relaxed) as usize;
                            if g >= groups.len() {
                                break;
                            }
                            run_group(&groups[g], &mut local);
                        }
                        local
                    }));
                }
                for h in handles {
                    indexed.extend(h.join().expect("injection worker panicked"));
                }
            });
        }
        indexed.sort_unstable_by_key(|&(i, _, _)| i);
        let report = self.fold_prune(n, indexed.iter().map(|(_, _, m)| *m));
        (indexed.into_iter().map(|(_, t, _)| t).collect(), report)
    }

    /// Resolves one fault inside its checkpoint window on the pruned
    /// path: idle shortcut, memo lookup, then a forked fingerprint-pruned
    /// replay. Counter charges are a pure function of the fault — memo
    /// hits and misses charge identically — so [`CampaignPerf`] stays
    /// schedule-independent.
    fn window_fault<'a>(
        &'a self,
        snap: Option<&'a Snapshot>,
        window: &mut Option<PrunedWindow<'a>>,
        fault: FaultSpec,
    ) -> (FaultOutcome, PruneMeta) {
        let window_start = snap.map_or(0, |s| s.cycle().as_u64());
        let index = self
            .strike_index
            .as_ref()
            .expect("pruned executor requires the strike index");
        let Some(span) = index.span_at(fault.slot, fault.cycle.as_u64()) else {
            // Nothing occupies the struck coordinate at the strike cycle:
            // the replay would simulate to the strike only to observe
            // SlotIdle and stop.
            self.counters
                .cycles_skipped
                .fetch_add(fault.cycle.as_u64() + 1, Ordering::Relaxed);
            self.cross_check(fault, FaultOutcome::SlotIdle);
            return (
                FaultOutcome::SlotIdle,
                PruneMeta {
                    window_start,
                    kind: PruneKind::Idle,
                },
            );
        };
        let key = self.memo_key(&fault, span);
        let (outcome, end, pruned) = match key.and_then(|k| self.memo.get(&k)) {
            Some(value) => value,
            None => {
                let w = window.get_or_insert_with(|| {
                    self.pipeline.pruned_window(
                        &self.program,
                        &self.golden,
                        snap,
                        self.config.detection,
                    )
                });
                let run = w.run_fault(fault, &self.golden_fps);
                if let Some(k) = key {
                    self.memo.insert(k, (run.outcome, run.end_cycle, run.pruned));
                }
                (run.outcome, run.end_cycle, run.pruned)
            }
        };
        self.counters
            .cycles_simulated
            .fetch_add(end.saturating_sub(window_start), Ordering::Relaxed);
        let skipped = if key.is_none() && pruned {
            window_start + self.baseline_cycles.saturating_sub(end)
        } else {
            window_start
        };
        self.counters.cycles_skipped.fetch_add(skipped, Ordering::Relaxed);
        self.cross_check(fault, outcome);
        let kind = match key {
            Some(k) => PruneKind::Memo {
                key: k,
                end,
                pruned,
            },
            None if pruned => PruneKind::Pruned { end },
            None => PruneKind::Full { end },
        };
        (outcome, PruneMeta { window_start, kind })
    }

    /// The memo equivalence class of `fault` within `span`, or `None`
    /// when memoization is unsound for it: scrubbing rewrites struck
    /// words mid-residency and temporal double strikes depend on the
    /// absolute strike cycle, so both always replay live.
    fn memo_key(&self, fault: &FaultSpec, span: &ses_avf::LifetimeSpan) -> Option<MemoKey> {
        if self.config.pipeline.scrub_period != 0 || fault.second_cycle.is_some() {
            return None;
        }
        let ecc = match fault.ecc {
            None => 0u8,
            Some(EccReadOutcome::Signal) => 1,
            Some(EccReadOutcome::Silent) => 2,
        };
        Some((
            fault.slot,
            span.alloc,
            span.phase_at(fault.cycle.as_u64()),
            fault.mask(),
            ecc,
        ))
    }

    /// Debug-build oracle for the pruned executor: every pruned verdict
    /// is checked against a full legacy replay of the same fault.
    /// Deliberately counter-free (it drives the pipeline directly instead
    /// of going through the counting resume path) so verification never
    /// perturbs the deterministic perf accounting.
    fn cross_check(&self, fault: FaultSpec, got: FaultOutcome) {
        if !cfg!(debug_assertions) {
            return;
        }
        let full = match self.snapshot_for(fault.cycle) {
            Some(snap) => self.pipeline.resume(&self.program, &self.golden, snap, Some(fault)),
            None => self.run_from_scratch(fault),
        };
        let want = full.fault.expect("fault run resolves an outcome");
        assert_eq!(
            want, got,
            "pruned verdict diverged from the full replay for {fault:?}"
        );
    }

    /// Folds per-injection pruning metadata (already in injection-index
    /// order) into the deterministic [`PruneReport`].
    fn fold_prune(&self, injections: u32, metas: impl Iterator<Item = PruneMeta>) -> PruneReport {
        let mut seen: HashSet<MemoKey> = HashSet::new();
        let mut report = PruneReport {
            injections,
            ..PruneReport::default()
        };
        for meta in metas {
            match meta.kind {
                PruneKind::Idle => {
                    report.idle_skips += 1;
                    report.cycles_saved +=
                        self.baseline_cycles.saturating_sub(meta.window_start);
                }
                PruneKind::Memo { key, end, pruned } => {
                    report.memo_eligible += 1;
                    if pruned {
                        report.fp_stops += 1;
                        report.cycles_saved += self.baseline_cycles.saturating_sub(end);
                    }
                    if seen.insert(key) {
                        report.replay_cycles += end.saturating_sub(meta.window_start);
                    } else {
                        report.memo_hits += 1;
                        report.cycles_saved += end.saturating_sub(meta.window_start);
                    }
                }
                PruneKind::Pruned { end } => {
                    report.fp_stops += 1;
                    report.replay_cycles += end.saturating_sub(meta.window_start);
                    report.cycles_saved += self.baseline_cycles.saturating_sub(end);
                }
                PruneKind::Full { end } => {
                    report.replay_cycles += end.saturating_sub(meta.window_start);
                }
            }
        }
        report
    }

    /// The deterministic fault coordinates for injection `i`.
    pub fn fault_for(&self, i: u32) -> FaultSpec {
        let mut rng = StdRng::seed_from_u64(self.config.seed ^ (i as u64).wrapping_mul(0x9E37));
        let cycle = Cycle::new(rng.gen_range(0..self.baseline_cycles.max(1)));
        let slot = rng.gen_range(0..self.config.pipeline.iq_entries);
        let bit = rng.gen_range(0..64);
        if self.config.double_bit {
            FaultSpec::adjacent_double(cycle, slot, bit)
        } else {
            FaultSpec::single(cycle, slot, bit)
        }
    }

    /// Injects the `i`-th fault (deterministic in `seed` and `i`).
    pub fn inject_one(&self, i: u32) -> Outcome {
        let fault = self.fault_for(i);
        // In debug/test builds, periodically cross-check a resumed run
        // against a from-scratch run (the checkpoint determinism guard).
        let verify = cfg!(debug_assertions) && i.is_multiple_of(8);
        self.classify(&fault, self.fault_outcome(fault, verify))
    }

    /// Injects a caller-chosen fault instead of the seeded sequence,
    /// classified exactly like [`Campaign::inject_one`].
    pub fn inject_spec(&self, fault: FaultSpec) -> Outcome {
        self.classify(&fault, self.fault_outcome(fault, cfg!(debug_assertions)))
    }

    /// Like [`Campaign::inject_spec`] but without the debug-build
    /// resume-vs-scratch cross-check, for high-volume callers (the
    /// adaptive scheduler's exhaustive strata, property tests) that
    /// verify a deterministic subsample themselves.
    pub fn inject_spec_quiet(&self, fault: FaultSpec) -> Outcome {
        self.classify(&fault, self.fault_outcome(fault, false))
    }

    /// Fault-free IPC of the golden timing run (committed instructions
    /// over baseline cycles), the IPC the reliability model pairs with a
    /// campaign-estimated AVF.
    pub fn baseline_ipc(&self) -> f64 {
        if self.baseline_cycles == 0 {
            0.0
        } else {
            self.golden.len() as f64 / self.baseline_cycles as f64
        }
    }

    /// The idempotent-region partition of the golden trace, present when
    /// the recovery policy is [`RecoveryPolicy::Idempotent`].
    pub fn regions(&self) -> Option<&ses_avf::RegionMap> {
        self.regions.as_ref()
    }

    /// Cumulative recovery accounting since prepare, present when the
    /// recovery policy is active. [`DetailedReport::recovery`] carries the
    /// per-execution delta instead.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        let regions = self.regions.as_ref()?;
        let v = self.recovery_counters.values();
        Some(RecoveryReport {
            recovered: v.recovered,
            fallback_due: v.fallback_due,
            reexec_instructions: v.reexec_instructions,
            latency_cycles: v.latency_cycles,
            regions: regions.len() as u32,
            mean_region_len: regions.mean_len(),
        })
    }

    /// The detection latency (in cycles) the configured distribution
    /// assigns to `fault`, a pure function of the campaign seed and the
    /// fault coordinates so results are schedule-independent. Zero when no
    /// latency model is configured (the paper's instantaneous detector).
    pub fn latency_for(&self, fault: &FaultSpec) -> u64 {
        match &self.config.detect_latency {
            None => 0,
            Some(dist) => dist.sample(latency_seed(self.config.seed, fault)),
        }
    }

    /// How the recovery policy resolves a *detected* fault on `occupant`,
    /// or `None` when the policy is [`RecoveryPolicy::MachineCheck`].
    ///
    /// The deferred detection signal lands `latency` cycles after the
    /// corrupted word is read, i.e. `ceil(latency × IPC)` committed
    /// instructions downstream. If that signal position is still inside
    /// the idempotent region containing the fault, the machine rewinds to
    /// the region entry and re-executes the committed prefix (`signal −
    /// region start` instructions, the charged IPC loss); the trailing
    /// live-in clobber that closes a region sits at `end − 1` and has not
    /// committed while the signal is in-region, so the replayed window
    /// never includes it. A signal that escapes the region — or outlives
    /// the trace — falls back to the machine-check DUE. Wrong-path
    /// corruptions recover by the flush that discards them; their charge
    /// is the latency's worth of committed work.
    pub fn recovery_decision(
        &self,
        fault: &FaultSpec,
        occupant: Occupant,
    ) -> Option<RecoveryDecision> {
        let regions = self.regions.as_ref()?;
        let latency_cycles = self.latency_for(fault);
        let delay_instructions = (latency_cycles as f64 * self.baseline_ipc()).ceil() as u64;
        match occupant {
            Occupant::WrongPath => Some(RecoveryDecision {
                latency_cycles,
                delay_instructions,
                fault_index: None,
                region: None,
                recovered: true,
                reexec_instructions: delay_instructions,
            }),
            Occupant::CorrectPath { trace_idx } => {
                let signal = trace_idx + delay_instructions;
                let at_fault = regions.region_of(trace_idx);
                let at_signal = regions.region_of(signal);
                let region = at_fault.map(|i| {
                    let r = &regions.regions()[i];
                    (r.start, r.end)
                });
                let recovered = at_fault.is_some() && at_fault == at_signal;
                let reexec_instructions = if recovered {
                    signal - region.expect("recovered fault has a region").0
                } else {
                    0
                };
                Some(RecoveryDecision {
                    latency_cycles,
                    delay_instructions,
                    fault_index: Some(trace_idx),
                    region,
                    recovered,
                    reexec_instructions,
                })
            }
        }
    }

    /// The golden run's queue-occupancy intervals (`(alloc, dealloc)`
    /// half-open cycle ranges), the lifetime data occupancy
    /// stratification buckets cycle windows by.
    pub fn residency_intervals(&self) -> Vec<(u64, u64)> {
        self.lifetime_spans.iter().map(|s| s.occupancy()).collect()
    }

    /// The golden run's per-slot lifetime spans — the data the adaptive
    /// sampler splits into live and Ex-ACE-tail strata and uses to mask
    /// idle coordinates.
    pub fn lifetime_spans(&self) -> &[ses_avf::LifetimeSpan] {
        &self.lifetime_spans
    }

    /// The queue capacity of the configured machine.
    pub fn iq_entries(&self) -> usize {
        self.config.pipeline.iq_entries
    }

    /// Runs seeded uniform injections in deterministic batches until the
    /// 95 % CI of the chosen metric is at or below `target_halfwidth`
    /// (evaluated at batch boundaries, after at least `min` trials) or
    /// `max` injections have been spent. Returns the measured
    /// [`UniformRun`]; the trials-to-target comparison against the
    /// adaptive scheduler reads its `trials`.
    pub fn run_uniform_to_target(
        &self,
        target_halfwidth: f64,
        metric: crate::adaptive::MetricKind,
        min: u32,
        max: u32,
    ) -> UniformRun {
        let mut n = 0u32;
        let mut events = 0u64;
        while n < max {
            let batch = 256.min(max - n);
            let start = n;
            let outcomes = self.parallel_map(batch, |i| self.inject_one(start + i));
            events += outcomes.iter().filter(|&&o| metric.is_event(o)).count() as u64;
            n += batch;
            let p = f64::from(events as u32) / f64::from(n);
            if n >= min && ses_metrics::binomial_ci95(p, u64::from(n)) <= target_halfwidth {
                break;
            }
        }
        let proportion = if n == 0 { 0.0 } else { events as f64 / f64::from(n) };
        UniformRun {
            trials: n,
            events,
            proportion,
            halfwidth: ses_metrics::binomial_ci95(proportion, u64::from(n)),
        }
    }

    /// Runs the timing model for one fault, resuming from the latest
    /// checkpoint at or before the strike when one exists. With
    /// [`CampaignConfig::prune`], single faults from spec-driven callers
    /// (the adaptive scheduler, the oracles) take the pruned path too,
    /// each building its own one-fault window; the batch executor uses
    /// [`Campaign::windowed_run`] instead.
    fn fault_outcome(&self, fault: FaultSpec, verify: bool) -> FaultOutcome {
        if self.config.prune {
            // The pruned path cross-checks every injection in debug
            // builds, subsuming `verify`'s sampled resume-vs-scratch
            // guard.
            let mut window = None;
            return self
                .window_fault(self.snapshot_for(fault.cycle), &mut window, fault)
                .0;
        }
        let result = match self.snapshot_for(fault.cycle) {
            Some(snap) => {
                let resumed = self.pipeline.resume(&self.program, &self.golden, snap, Some(fault));
                self.counters
                    .cycles_skipped
                    .fetch_add(snap.cycle().as_u64(), Ordering::Relaxed);
                self.counters.cycles_simulated.fetch_add(
                    resumed.cycles.saturating_sub(snap.cycle().as_u64()),
                    Ordering::Relaxed,
                );
                if verify {
                    let scratch = self.run_from_scratch(fault);
                    assert_eq!(
                        resumed, scratch,
                        "checkpoint resume diverged from a from-scratch run for {fault:?}"
                    );
                }
                resumed
            }
            None => {
                let result = self.run_from_scratch(fault);
                self.counters
                    .cycles_simulated
                    .fetch_add(result.cycles, Ordering::Relaxed);
                result
            }
        };
        result.fault.expect("fault run resolves an outcome")
    }

    fn run_from_scratch(&self, fault: FaultSpec) -> PipelineResult {
        self.pipeline
            .run_with_fault(&self.program, &self.golden, Some(fault), self.config.detection)
    }

    /// The latest snapshot taken at or before `strike`, if any.
    fn snapshot_for(&self, strike: Cycle) -> Option<&Snapshot> {
        let idx = self.snapshots.partition_point(|s| s.cycle() <= strike);
        idx.checked_sub(1).map(|i| &self.snapshots[i])
    }

    fn classify(&self, fault: &FaultSpec, outcome: FaultOutcome) -> Outcome {
        match outcome {
            FaultOutcome::SlotIdle | FaultOutcome::NeverRead { .. } => Outcome::Benign,
            FaultOutcome::CorruptIssued { corruption } => match corruption.occupant {
                Occupant::WrongPath => Outcome::Benign,
                Occupant::CorrectPath { trace_idx } => {
                    match self.replay(trace_idx, corruption.corrupted_word) {
                        ReplayVerdict::Identical => Outcome::Benign,
                        ReplayVerdict::Different | ReplayVerdict::Crashed => Outcome::Sdc,
                        ReplayVerdict::TimedOut => Outcome::Hang,
                    }
                }
            },
            FaultOutcome::Signalled { corruption, .. } => {
                if let Some(decision) = self.recovery_decision(fault, corruption.occupant) {
                    self.recovery_counters.record(&decision);
                    if decision.recovered {
                        return Outcome::Recovered;
                    }
                    // The deferred signal escaped the fault's region:
                    // fall back to the machine-check DUE below.
                }
                match corruption.occupant {
                    // A wrong-path corruption can never affect output.
                    Occupant::WrongPath => Outcome::FalseDue,
                    Occupant::CorrectPath { trace_idx } => {
                        match self.replay(trace_idx, corruption.corrupted_word) {
                            ReplayVerdict::Identical => Outcome::FalseDue,
                            _ => Outcome::TrueDue,
                        }
                    }
                }
            }
            FaultOutcome::Suppressed { reason, corruption } => match (reason, corruption.occupant)
            {
                // Discarded before commit: architecturally clean.
                (SuppressReason::WrongPath, _) | (SuppressReason::Squashed, _) => {
                    Outcome::SuppressedSafe
                }
                (_, Occupant::WrongPath) => Outcome::SuppressedSafe,
                (_, Occupant::CorrectPath { trace_idx }) => {
                    match self.replay(trace_idx, corruption.corrupted_word) {
                        ReplayVerdict::Identical => Outcome::SuppressedSafe,
                        _ => Outcome::SuppressedSdc,
                    }
                }
            },
        }
    }

    /// Re-runs the functional emulator with the corrupted word substituted
    /// at the given dynamic position and compares outputs. A corrupted
    /// word equal to the golden word short-circuits to `Identical`
    /// without emulating at all; every other replay resumes from the
    /// nearest golden architectural checkpoint and stops once the machine
    /// rejoins the golden run ([`Emulator::replay_checkpointed`]).
    fn replay(&self, trace_idx: u64, corrupted_word: u64) -> ReplayVerdict {
        self.counters.replays.fetch_add(1, Ordering::Relaxed);
        if self.golden_words.get(trace_idx as usize) == Some(&corrupted_word) {
            self.counters.replay_fast_path.fetch_add(1, Ordering::Relaxed);
            return ReplayVerdict::Identical;
        }
        let verdict = Emulator::replay_checkpointed(
            &self.program,
            &self.replay_points,
            trace_idx,
            corrupted_word,
            self.replay_budget,
        )
        .verdict;
        if cfg!(debug_assertions) || replay_audited(trace_idx, corrupted_word) {
            self.audit_replay(trace_idx, corrupted_word, verdict);
        }
        verdict
    }

    /// The checkpointed replay's oracle: the same replay from instruction
    /// 0. A mismatch panics, so a CLI run fails closed and a served job
    /// answers 500 instead of a wrong verdict.
    fn audit_replay(&self, trace_idx: u64, corrupted_word: u64, got: ReplayVerdict) {
        let outcome = Emulator::new(&self.program).run_with_override(
            trace_idx,
            corrupted_word,
            self.replay_budget,
        );
        let want = ReplayVerdict::of(&outcome, self.golden.output());
        assert!(
            want == got,
            "checkpointed replay of word {corrupted_word:#018x} at index {trace_idx} \
             returned {got:?}, the from-zero replay {want:?}"
        );
    }
}

/// Whether a release build audits the replay of `word` at `trace_idx`: a
/// deterministic one-in-[`REPLAY_AUDIT_RATE`] subset keyed by the replay
/// itself, so the audited set does not depend on thread count or order.
fn replay_audited(trace_idx: u64, word: u64) -> bool {
    mix64(trace_idx.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ word).is_multiple_of(REPLAY_AUDIT_RATE)
}

/// Mixes the campaign seed with one fault's strike coordinates into the
/// latency-sampling seed, so neighbouring coordinates get decorrelated
/// latencies.
fn latency_seed(seed: u64, fault: &FaultSpec) -> u64 {
    mix64(
        seed ^ fault.cycle.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (fault.slot as u64).wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ u64::from(fault.bit).wrapping_mul(0x1656_67B1_9E37_79F9),
    )
}

/// The splitmix64 finalizer.
fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Result of a uniform run-to-target-CI campaign
/// ([`Campaign::run_uniform_to_target`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformRun {
    /// Injections spent.
    pub trials: u32,
    /// Injections that observed the metric's event.
    pub events: u64,
    /// Observed event proportion.
    pub proportion: f64,
    /// Achieved 95 % half-width.
    pub halfwidth: f64,
}

/// Campaign results with per-sample fault coordinates.
#[derive(Debug, Clone)]
pub struct DetailedReport {
    samples: Vec<(FaultSpec, Outcome)>,
    perf: CampaignPerf,
    recovery: Option<RecoveryReport>,
    prune: Option<PruneReport>,
}

impl DetailedReport {
    /// All `(fault, outcome)` samples.
    pub fn samples(&self) -> &[(FaultSpec, Outcome)] {
        &self.samples
    }

    /// Performance accounting for the run that produced these samples.
    pub fn perf(&self) -> CampaignPerf {
        self.perf
    }

    /// Recovery accounting for this execution, present only when the
    /// campaign ran with [`RecoveryPolicy::Idempotent`].
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Convergence-pruning accounting for this execution, present only
    /// when the campaign ran with [`CampaignConfig::prune`] enabled.
    pub fn prune(&self) -> Option<&PruneReport> {
        self.prune.as_ref()
    }

    /// Collapses into a plain [`CampaignReport`].
    pub fn summary(&self) -> CampaignReport {
        let mut report = CampaignReport::from_outcomes(self.samples.iter().map(|(_, o)| *o));
        report.set_perf(self.perf);
        report
    }

    /// Empirical failure probability per instruction-word field kind: for
    /// each [`BitKind`], the fraction of strikes on bits of that kind that
    /// produced a failure ([`Outcome::is_failure`]). Under
    /// [`DetectionModel::None`] this is the statistical counterpart of
    /// `AvfAnalysis::avf_by_bit_kind`.
    pub fn failure_rate_by_bit_kind(&self) -> Vec<(BitKind, f64, u32)> {
        BitKind::ALL
            .iter()
            .map(|&kind| {
                let mut total = 0u32;
                let mut failures = 0u32;
                for (f, o) in &self.samples {
                    if bit_kind(f.bit as usize) == kind {
                        total += 1;
                        if o.is_failure() {
                            failures += 1;
                        }
                    }
                }
                let rate = if total == 0 {
                    0.0
                } else {
                    failures as f64 / total as f64
                };
                (kind, rate, total)
            })
            .collect()
    }

    /// Empirical failure probability by queue-slot quarter (0 = slots
    /// 0–15, … for a 64-entry queue): do low slots (filled first) carry
    /// more risk?
    pub fn failure_rate_by_slot_quarter(&self, iq_entries: usize) -> [f64; 4] {
        let mut totals = [0u32; 4];
        let mut fails = [0u32; 4];
        let quarter = (iq_entries / 4).max(1);
        for (f, o) in &self.samples {
            let q = (f.slot / quarter).min(3);
            totals[q] += 1;
            if o.is_failure() {
                fails[q] += 1;
            }
        }
        let mut out = [0.0; 4];
        for q in 0..4 {
            if totals[q] > 0 {
                out[q] = fails[q] as f64 / totals[q] as f64;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ses_pipeline::{PiScope, TrackingConfig};

    fn quick_campaign(detection: DetectionModel, injections: u32) -> CampaignReport {
        let spec = WorkloadSpec::quick("campaign-test", 21);
        let config = CampaignConfig {
            injections,
            seed: 99,
            detection,
            threads: 2,
            ..CampaignConfig::default()
        };
        Campaign::prepare(&spec, config).unwrap().run()
    }

    #[test]
    fn unprotected_campaign_yields_benign_and_sdc_only() {
        let report = quick_campaign(DetectionModel::None, 60);
        assert_eq!(report.total(), 60);
        assert_eq!(report.count(Outcome::FalseDue), 0, "nothing to detect");
        assert_eq!(report.count(Outcome::TrueDue), 0);
        assert!(report.count(Outcome::Benign) > 0);
    }

    #[test]
    fn parity_campaign_yields_due_not_sdc() {
        let report = quick_campaign(DetectionModel::Parity { tracking: None }, 60);
        assert_eq!(
            report.count(Outcome::Sdc),
            0,
            "parity converts SDC into DUE"
        );
        assert!(
            report.count(Outcome::FalseDue) + report.count(Outcome::TrueDue) > 0,
            "some strikes must be detected"
        );
    }

    #[test]
    fn tracking_campaign_suppresses_some_errors() {
        let tracking = TrackingConfig {
            scope: PiScope::StoreCommit,
            anti_pi: true,
            pet_entries: None,
            mem_granule: 8,
        };
        let with = quick_campaign(
            DetectionModel::Parity {
                tracking: Some(tracking),
            },
            80,
        );
        let without = quick_campaign(DetectionModel::Parity { tracking: None }, 80);
        let due_with = with.count(Outcome::FalseDue) + with.count(Outcome::TrueDue);
        let due_without = without.count(Outcome::FalseDue) + without.count(Outcome::TrueDue);
        assert!(
            due_with < due_without,
            "tracking must reduce DUE events: {due_with} vs {due_without}"
        );
        assert!(with.count(Outcome::SuppressedSafe) > 0);
    }

    #[test]
    fn double_bit_faults_defeat_single_parity_but_not_interleaving() {
        let spec = WorkloadSpec::quick("multibit", 31);
        let run = |detection, double_bit| {
            Campaign::prepare(
                &spec,
                CampaignConfig {
                    injections: 80,
                    seed: 5,
                    detection,
                    double_bit,
                    threads: 2,
                    ..CampaignConfig::default()
                },
            )
            .unwrap()
            .run()
        };
        // Single-bit faults: parity converts everything detected to DUE.
        let single = run(DetectionModel::Parity { tracking: None }, false);
        assert_eq!(single.count(Outcome::Sdc), 0);
        // Adjacent double-bit faults: plain parity is blind to them, so
        // silent corruption reappears...
        let double = run(DetectionModel::Parity { tracking: None }, true);
        assert!(
            double.count(Outcome::Sdc) > 0,
            "even flips must escape one parity bit"
        );
        assert_eq!(
            double.count(Outcome::FalseDue) + double.count(Outcome::TrueDue),
            0
        );
        // ...and two interleaved parity domains catch them again (the
        // paper's physical-interleaving defence).
        let interleaved = run(
            DetectionModel::InterleavedParity {
                domains: 2,
                tracking: None,
            },
            true,
        );
        assert_eq!(interleaved.count(Outcome::Sdc), 0);
        assert!(
            interleaved.count(Outcome::FalseDue) + interleaved.count(Outcome::TrueDue) > 0
        );
    }

    #[test]
    fn scrubbing_restores_fail_stop_under_temporal_doubles() {
        let spec = WorkloadSpec::quick("scrub", 77);
        let run = |scrub_period: u64| {
            let pipeline = PipelineConfig {
                scrub_period,
                ..PipelineConfig::default()
            };
            Campaign::prepare(
                &spec,
                CampaignConfig {
                    injections: 80,
                    seed: 9,
                    detection: DetectionModel::Parity { tracking: None },
                    double_bit: true,
                    temporal_gap: 30,
                    threads: 2,
                    pipeline,
                    ..CampaignConfig::default()
                },
            )
            .unwrap()
            .run()
        };
        let unscrubbed = run(0);
        let scrubbed = run(8);
        // Without scrubbing some accumulated doubles slip through parity;
        // with an 8-cycle scrub the window is too small.
        assert!(
            scrubbed.count(Outcome::Sdc) + scrubbed.count(Outcome::Hang)
                <= unscrubbed.count(Outcome::Sdc) + unscrubbed.count(Outcome::Hang),
            "scrubbing must not increase silent corruption"
        );
        assert!(
            scrubbed.due_avf_estimate() >= unscrubbed.due_avf_estimate(),
            "scrubbing converts escapes into detected errors"
        );
    }

    #[test]
    fn campaign_is_deterministic() {
        let spec = WorkloadSpec::quick("det-test", 5);
        let config = CampaignConfig {
            injections: 10,
            seed: 7,
            detection: DetectionModel::None,
            threads: 1,
            ..CampaignConfig::default()
        };
        let c = Campaign::prepare(&spec, config).unwrap();
        let a: Vec<Outcome> = (0..10).map(|i| c.inject_one(i)).collect();
        let b: Vec<Outcome> = (0..10).map(|i| c.inject_one(i)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn checkpointing_does_not_change_outcomes() {
        let spec = WorkloadSpec::quick("ckpt-unit", 13);
        let base = CampaignConfig {
            injections: 30,
            seed: 11,
            detection: DetectionModel::Parity { tracking: None },
            threads: 2,
            ..CampaignConfig::default()
        };
        let scratch = Campaign::prepare(
            &spec,
            CampaignConfig {
                checkpoint_interval: Some(0),
                ..base.clone()
            },
        )
        .unwrap();
        let ckpt = Campaign::prepare(&spec, base).unwrap();
        assert_eq!(ckpt.checkpoint_interval(), (ckpt.baseline_cycles() / 64).max(1));
        assert!(ckpt.checkpoints() > 0);
        assert_eq!(scratch.checkpoints(), 0);
        let scratch_report = scratch.run();
        let ckpt_report = ckpt.run();
        assert_eq!(scratch_report, ckpt_report);
        assert_eq!(scratch_report.perf().cycles_skipped, 0);
        assert!(ckpt_report.perf().cycles_skipped > 0);
    }

    #[test]
    fn zero_latency_recovery_converts_every_due() {
        let spec = WorkloadSpec::quick("recovery-zero", 17);
        let base = CampaignConfig {
            injections: 120,
            seed: 23,
            detection: DetectionModel::Parity { tracking: None },
            threads: 2,
            ..CampaignConfig::default()
        };
        let legacy = Campaign::prepare(&spec, base.clone()).unwrap().run();
        let recovering = Campaign::prepare(
            &spec,
            CampaignConfig {
                detect_latency: Some(LatencyDistribution::Fixed(0)),
                recovery: RecoveryPolicy::Idempotent,
                ..base
            },
        )
        .unwrap();
        let detailed = recovering.run_detailed();
        let report = detailed.summary();
        let baseline_due = legacy.count(Outcome::FalseDue) + legacy.count(Outcome::TrueDue);
        assert!(baseline_due > 0, "campaign must detect something");
        assert_eq!(
            report.count(Outcome::Recovered),
            baseline_due,
            "a zero-latency signal always lands in the fault's own region"
        );
        assert_eq!(report.count(Outcome::FalseDue), 0);
        assert_eq!(report.count(Outcome::TrueDue), 0);
        let rec = detailed.recovery().expect("recovery stanza present");
        assert_eq!(rec.recovered, baseline_due);
        assert_eq!(rec.fallback_due, 0);
        assert!(rec.regions > 0);
        assert!(rec.mean_region_len > 0.0);
    }

    #[test]
    fn recovered_plus_fallback_equals_baseline_due_at_any_latency() {
        let spec = WorkloadSpec::quick("recovery-consv", 41);
        let base = CampaignConfig {
            injections: 150,
            seed: 31,
            detection: DetectionModel::Parity { tracking: None },
            threads: 2,
            ..CampaignConfig::default()
        };
        let legacy = Campaign::prepare(&spec, base.clone()).unwrap().run();
        let baseline_due = legacy.count(Outcome::FalseDue) + legacy.count(Outcome::TrueDue);
        for latency in [LatencyDistribution::Fixed(40), LatencyDistribution::Geometric { mean: 25.0 }] {
            let detailed = Campaign::prepare(
                &spec,
                CampaignConfig {
                    detect_latency: Some(latency),
                    recovery: RecoveryPolicy::Idempotent,
                    ..base.clone()
                },
            )
            .unwrap()
            .run_detailed();
            let report = detailed.summary();
            let due = report.count(Outcome::FalseDue) + report.count(Outcome::TrueDue);
            assert_eq!(
                report.count(Outcome::Recovered) + due,
                baseline_due,
                "recovery only reroutes detected faults, it never invents or loses them"
            );
            let rec = detailed.recovery().unwrap();
            assert_eq!(rec.recovered, report.count(Outcome::Recovered));
            assert_eq!(rec.fallback_due, due);
        }
    }

    #[test]
    fn recovery_decisions_are_monotone_in_fixed_latency() {
        let spec = WorkloadSpec::quick("recovery-mono", 9);
        let prepare = |latency: u64| {
            Campaign::prepare(
                &spec,
                CampaignConfig {
                    injections: 60,
                    seed: 13,
                    detection: DetectionModel::Parity { tracking: None },
                    detect_latency: Some(LatencyDistribution::Fixed(latency)),
                    recovery: RecoveryPolicy::Idempotent,
                    threads: 1,
                    ..CampaignConfig::default()
                },
            )
            .unwrap()
        };
        let ladder: Vec<Campaign> = [0u64, 10, 40, 160].iter().map(|&l| prepare(l)).collect();
        let mut saw_recovered = false;
        let mut saw_transition = false;
        for idx in 0..4096u64 {
            // Walk the golden trace positions as synthetic correct-path
            // detections at an arbitrary strike coordinate.
            if idx >= ladder[0].golden().len() as u64 {
                break;
            }
            let fault = ladder[0].fault_for((idx % 60) as u32);
            let occupant = Occupant::CorrectPath { trace_idx: idx };
            let mut prev_recovered = true;
            let mut prev_charge = 0u64;
            for c in &ladder {
                let d = c.recovery_decision(&fault, occupant).unwrap();
                if d.recovered {
                    assert!(
                        prev_recovered,
                        "once the signal escapes the region, longer latencies cannot re-enter it"
                    );
                    assert!(
                        d.reexec_instructions >= prev_charge,
                        "re-execution charge grows with latency"
                    );
                    prev_charge = d.reexec_instructions;
                    saw_recovered = true;
                } else if prev_recovered {
                    saw_transition = true;
                }
                prev_recovered = d.recovered;
            }
        }
        assert!(saw_recovered, "some positions must recover");
        assert!(saw_transition, "some positions must fall back at high latency");
    }

    #[test]
    fn pruned_campaign_matches_legacy_verdicts() {
        let spec = WorkloadSpec::quick("prune-eq", 21);
        let tracking = TrackingConfig {
            scope: PiScope::StoreCommit,
            anti_pi: true,
            pet_entries: None,
            mem_granule: 8,
        };
        let base = CampaignConfig {
            injections: 60,
            seed: 99,
            detection: DetectionModel::Parity {
                tracking: Some(tracking),
            },
            threads: 2,
            ..CampaignConfig::default()
        };
        let legacy = Campaign::prepare(&spec, base.clone()).unwrap().run_detailed();
        let pruned = Campaign::prepare(
            &spec,
            CampaignConfig {
                prune: true,
                ..base
            },
        )
        .unwrap()
        .run_detailed();
        assert_eq!(legacy.samples(), pruned.samples(), "verdicts must be identical");
        assert!(legacy.prune().is_none(), "no pruning stanza without --prune");
        let report = pruned.prune().expect("pruned run reports accounting");
        assert_eq!(report.injections, 60);
        assert!(report.idle_skips > 0, "random strikes hit idle coordinates");
        assert!(
            report.stop_fraction() > 0.0,
            "some replays must stop before their natural end"
        );
    }

    #[test]
    fn pruned_executor_memoizes_same_residency_faults() {
        let spec = WorkloadSpec::quick("prune-memo", 21);
        let config = CampaignConfig {
            injections: 10,
            seed: 3,
            detection: DetectionModel::Parity { tracking: None },
            threads: 1,
            prune: true,
            ..CampaignConfig::default()
        };
        let c = Campaign::prepare(&spec, config).unwrap();
        // A residency whose live phase covers at least two cycles gives
        // two distinct strike coordinates in one equivalence class.
        let span = c
            .lifetime_spans()
            .iter()
            .find(|s| s.boundary() >= s.alloc + 2)
            .copied()
            .expect("some residency is live for at least two cycles");
        let a = FaultSpec::single(Cycle::new(span.alloc), span.slot, 7);
        let b = FaultSpec::single(Cycle::new(span.alloc + 1), span.slot, 7);
        let before = c.memo.len();
        let oa = c.inject_spec_quiet(a);
        let ob = c.inject_spec_quiet(b);
        assert_eq!(oa, ob, "one equivalence class, one verdict");
        assert_eq!(
            c.memo.len(),
            before + 1,
            "both faults must share a single memo entry"
        );
    }

    #[test]
    fn pruned_run_matches_across_checkpoint_geometries() {
        let spec = WorkloadSpec::quick("prune-ckpt", 13);
        let base = CampaignConfig {
            injections: 30,
            seed: 11,
            detection: DetectionModel::Parity { tracking: None },
            threads: 2,
            prune: true,
            ..CampaignConfig::default()
        };
        let scratch = Campaign::prepare(
            &spec,
            CampaignConfig {
                checkpoint_interval: Some(0),
                ..base.clone()
            },
        )
        .unwrap()
        .run();
        let ckpt = Campaign::prepare(&spec, base).unwrap().run();
        assert_eq!(scratch, ckpt);
    }

    #[test]
    fn corrupted_golden_checkpoint_trips_the_replay_audit() {
        let spec = WorkloadSpec::quick("replay-audit", 21);
        let config = CampaignConfig {
            injections: 0,
            threads: 1,
            ..CampaignConfig::default()
        };
        let mut c = Campaign::prepare(&spec, config).unwrap();
        let points: Vec<u64> = c.replay_points.indices().collect();
        let j = points.len() / 2;
        // A replay resuming from checkpoint `j` that release builds audit
        // too, and whose honest verdict is not the crash the defect forces.
        let (idx, word) = (points[j]..points[j + 1])
            .flat_map(|idx| (0..64).map(move |bit| (idx, bit)))
            .map(|(idx, bit)| (idx, c.golden_words[idx as usize] ^ (1 << bit)))
            .find(|&(idx, word)| {
                replay_audited(idx, word) && c.replay(idx, word) != ReplayVerdict::Crashed
            })
            .expect("some audited flip in the window replays without crashing");
        c.replay_points
            .tamper_state(j, |s| s.set_pc(ses_types::Addr::new(0)));
        let caught =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.replay(idx, word)));
        assert!(caught.is_err(), "the audit must reject the corrupted checkpoint");
    }

    #[test]
    fn release_audit_samples_one_replay_in_sixty_four() {
        let audited = (0..64 * 1024u64)
            .filter(|&i| replay_audited(i / 64, 0x0123_4567_89AB_CDEF ^ (1 << (i % 64))))
            .count();
        assert!((800..1250).contains(&audited), "{audited} of 65536 audited");
    }

    #[test]
    fn detailed_run_is_parallel_yet_ordered() {
        let spec = WorkloadSpec::quick("ordered", 3);
        let config = CampaignConfig {
            injections: 24,
            seed: 4,
            detection: DetectionModel::None,
            threads: 4,
            ..CampaignConfig::default()
        };
        let c = Campaign::prepare(&spec, config).unwrap();
        let detailed = c.run_detailed();
        let faults: Vec<FaultSpec> = detailed.samples().iter().map(|(f, _)| *f).collect();
        let expected: Vec<FaultSpec> = (0..24).map(|i| c.fault_for(i)).collect();
        assert_eq!(faults, expected, "samples must be in injection order");
        assert_eq!(detailed.summary(), c.run());
    }
}
