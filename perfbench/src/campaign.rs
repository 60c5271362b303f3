//! The campaign layers, probed from outside: crafty, 1000 single-bit
//! injections under `paper_combined` π-bit tracking, through the
//! convergence-pruned executor (the product injection path) on one worker
//! thread, which the daemon's campaign jobs run at smaller sizes.
//!
//! `serve-mixed`'s traced run calls [`probe`]: each of three seeds derived
//! from the run's seed runs one op (`Campaign::prepare` plus
//! `run_detailed`) untraced and then traced, followed by the public calls
//! `prepare` makes, repeated one by one, and (first seed) a per-injection
//! pass through `inject_one`. Every run of `serve-mixed` also calls
//! [`golden_check`] once, outside timing: the configuration pinned by
//! `tests/golden/campaign_prune.json` is re-run and compared byte for byte.

use ses_arch::Emulator;
use ses_avf::{lifetime_spans, StrikeIndex};
use ses_core::telemetry::campaign_artifact;
use ses_core::{
    spec_by_name, Campaign, CampaignConfig, DetailedReport, DetectionModel, Outcome,
    TelemetryLevel, TrackingConfig, WorkloadSpec,
};
use ses_pipeline::Pipeline;
use ses_workloads::synthesize;

use crate::check::{outcomes_sum_to, same_bytes};
use crate::derive_seed;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;

const WORKLOAD: &str = "crafty";
const INJECTIONS: u32 = 1000;
/// Campaign seeds probed per traced run.
const OPS: u64 = 3;
/// Separates the probe's seed stream from the daemon jobs'.
const STREAM: u64 = 0xCA3B_A16E;
/// Op ids of the probe's spans, kept apart from the daemon jobs' ids.
const OP_BASE: u64 = 1 << 40;

fn spec() -> Result<WorkloadSpec, String> {
    spec_by_name(WORKLOAD).ok_or_else(|| "crafty is not in the suite".to_string())
}

fn config(seed: u64, injections: u32) -> CampaignConfig {
    CampaignConfig {
        injections,
        seed,
        detection: DetectionModel::Parity {
            tracking: Some(TrackingConfig::paper_combined()),
        },
        threads: 1,
        prune: true,
        ..CampaignConfig::default()
    }
}

/// The exact executor counts of one campaign: pure functions of the
/// workload and seed.
fn exact_counts(d: &DetailedReport) -> Vec<(&'static str, u64)> {
    let perf = d.perf();
    let prune = d.prune().copied().unwrap_or_default();
    vec![
        ("faults.idle_skips", u64::from(prune.idle_skips)),
        ("faults.fp_stops", u64::from(prune.fp_stops)),
        (
            "faults.full_replays",
            u64::from(prune.injections - prune.idle_skips - prune.fp_stops),
        ),
        (
            "faults.functional_replays",
            perf.replays - perf.replay_fast_path,
        ),
        ("faults.replay_cycles", prune.replay_cycles),
        ("faults.cycles_skipped", perf.cycles_skipped),
        ("faults.checkpoints", perf.checkpoints as u64),
        ("faults.memo_hits", u64::from(prune.memo_hits)),
    ]
}

/// Outcome counts sum to the injection total and the pruning accounting
/// covers every injection.
fn check_op(d: &DetailedReport) -> Result<(), String> {
    let summary = d.summary();
    let counts: Vec<u32> = Outcome::ALL.iter().map(|&o| summary.count(o)).collect();
    outcomes_sum_to(WORKLOAD, &counts, INJECTIONS)?;
    let prune = d.prune().ok_or("pruned campaign has no pruning report")?;
    if prune.injections != INJECTIONS || prune.idle_skips + prune.fp_stops > INJECTIONS {
        return Err(format!(
            "pruning report does not cover the injections: {prune:?}"
        ));
    }
    Ok(())
}

/// Re-runs the configuration pinned by `tests/golden/campaign_prune.json`
/// and compares the rendered artifact byte for byte.
pub fn golden_check() -> Result<(), String> {
    let golden = crate::golden("campaign_prune.json")?;
    let cfg = config(2026, 300);
    let iq_entries = cfg.pipeline.iq_entries;
    let campaign = Campaign::prepare(&spec()?, cfg).map_err(|e| e.to_string())?;
    let detailed = campaign.run_detailed();
    let rendered = campaign_artifact(WORKLOAD, &detailed, iq_entries, TelemetryLevel::Summary);
    same_bytes("campaign_prune golden", &rendered.render(), &golden)
}

/// One untraced op: `Campaign::prepare` plus `run_detailed`.
fn op(spec: &WorkloadSpec, seed: u64) -> Result<DetailedReport, String> {
    let campaign = Campaign::prepare(spec, config(seed, INJECTIONS)).map_err(|e| e.to_string())?;
    Ok(campaign.run_detailed())
}

/// Repeats, inside spans, the public calls `Campaign::prepare` makes
/// for a pruned campaign, and checks they agree with the prepared one.
fn prepare_parts(
    spec: &WorkloadSpec,
    campaign: &Campaign,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(), String> {
    let cfg = config(0, INJECTIONS);
    tracer.span("faults.prepare_parts", op, |t| {
        let program = t.span("workloads.golden_synthesize", op, |_| synthesize(spec));
        let budget = spec.target_dynamic * 4;
        let golden = t
            .span("arch.golden_emulate", op, |_| {
                Emulator::new(&program).run(budget)
            })
            .map_err(|e| e.to_string())?;
        let pipeline = Pipeline::new(cfg.pipeline.clone());
        let plain = t.span("pipeline.golden_timing", op, |_| {
            pipeline.run(&program, &golden)
        });
        let interval = (plain.cycles / 64).max(1);
        let (base, snapshots, _) = t.span("pipeline.golden_fingerprint", op, |_| {
            pipeline.run_golden_fingerprinted(&program, &golden, cfg.detection, interval)
        });
        t.span("avf.strike_index", op, |_| {
            StrikeIndex::build(&lifetime_spans(&base), cfg.pipeline.iq_entries)
        });
        if base.cycles != campaign.baseline_cycles() || snapshots.len() != campaign.checkpoints() {
            return Err("repeated prepare calls disagree with Campaign::prepare".into());
        }
        Ok(())
    })
}

fn outcome_name(o: Outcome) -> &'static str {
    match o {
        Outcome::Benign => "benign",
        Outcome::Sdc => "sdc",
        Outcome::FalseDue => "false_due",
        Outcome::TrueDue => "true_due",
        Outcome::SuppressedSafe => "suppressed_safe",
        Outcome::SuppressedSdc => "suppressed_sdc",
        Outcome::Hang => "hang",
        Outcome::Recovered => "recovered",
    }
}

/// The outcomes reported per injection: every seed of this workload
/// yields dozens of each.
const REPORTED_OUTCOMES: [Outcome; 5] = [
    Outcome::Benign,
    Outcome::FalseDue,
    Outcome::TrueDue,
    Outcome::SuppressedSafe,
    Outcome::SuppressedSdc,
];

/// Probes the campaign layers on `OPS` seeds derived from the run's seed
/// and reports their per-layer metrics into `report`.
pub fn probe(run_seed: u64, tracer: &mut Tracer, report: &mut Report) {
    let spec = match spec() {
        Ok(s) => s,
        Err(e) => return report.op(Err(e)),
    };
    let spec = &spec;
    let mut first_counts = None;
    let mut inject_one_ms: Vec<(Outcome, f64)> = Vec::new();
    let mut batching_ratio = None;
    for k in 0..OPS {
        let seed = derive_seed(run_seed, STREAM, k);
        // Each seed runs untraced, then traced; the two must agree on
        // every exact count. Even op ids are campaigns, odd ones the
        // probes that follow them.
        let counts = match op(spec, seed) {
            Ok(detailed) => {
                report.op(check_op(&detailed));
                exact_counts(&detailed)
            }
            Err(e) => return report.op(Err(e)),
        };
        let op_id = OP_BASE + 2 * k;
        let traced = tracer.span("campaign.op", op_id, |t| {
            let campaign = t
                .span("faults.prepare", op_id, |_| {
                    Campaign::prepare(spec, config(seed, INJECTIONS))
                })
                .map_err(|e| e.to_string())?;
            let detailed = t.span("faults.inject", op_id, |_| campaign.run_detailed());
            Ok::<_, String>((campaign, detailed))
        });
        let (campaign, detailed) = match traced {
            Ok(pair) => pair,
            Err(e) => return report.op(Err(e)),
        };
        let again = exact_counts(&detailed);
        report.op(check_op(&detailed).and(if again == counts {
            Ok(())
        } else {
            Err(format!(
                "seed {seed}: counts {again:?} differ from {counts:?}"
            ))
        }));
        first_counts.get_or_insert(counts);
        report.op(prepare_parts(spec, &campaign, tracer, op_id + 1));
        if k == 0 {
            // Per-injection pass through `inject_one`: the cost of each
            // outcome, and how much window batching saves over it.
            let outcomes: Vec<Outcome> = (0..INJECTIONS)
                .map(|i| tracer.span("faults.inject_one", op_id + 1, |_| campaign.inject_one(i)))
                .collect();
            let mismatch = outcomes
                .iter()
                .zip(detailed.samples())
                .position(|(one, (_, batched))| one != batched);
            report.op(match mismatch {
                Some(i) => Err(format!(
                    "injection {i}: inject_one disagrees with run_detailed"
                )),
                None => Ok(()),
            });
            inject_one_ms = outcomes
                .into_iter()
                .zip(tracer.each_ms("faults.inject_one"))
                .collect();
            let sum: f64 = inject_one_ms.iter().map(|(_, ms)| ms).sum();
            batching_ratio = tracer
                .op_totals_ms("faults.inject")
                .first()
                .map(|inject| sum / inject);
        }
    }

    let layer = |name: &str| median(&tracer.op_totals_ms(name));
    for name in [
        "faults.prepare",
        "arch.golden_emulate",
        "pipeline.golden_timing",
        "pipeline.golden_fingerprint",
        "avf.strike_index",
        "faults.inject",
    ] {
        report.metric(&format!("{name}_ms"), layer(name), "ms");
    }
    let rates: Vec<f64> = tracer
        .op_totals_ms("faults.inject")
        .iter()
        .map(|ms| f64::from(INJECTIONS) / ms * 1e3)
        .collect();
    report.metric("faults.injections_per_s", median(&rates), "1/s");
    for outcome in REPORTED_OUTCOMES {
        let times: Vec<f64> = inject_one_ms
            .iter()
            .filter(|(o, _)| *o == outcome)
            .map(|(_, ms)| *ms)
            .collect();
        report.metric(
            &format!("faults.outcome_ms.{}", outcome_name(outcome)),
            median(&times),
            "ms",
        );
    }
    report.metric("faults.batching_ratio", batching_ratio, "ratio");
    for (name, value) in first_counts.unwrap_or_default() {
        report.count(name, value);
    }
}
