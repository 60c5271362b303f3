//! Convergence pruning is a pure optimisation: every campaign run with
//! `prune: true` must produce exactly the verdicts, recovery accounting,
//! and telemetry bytes of the full-replay executor it replaces.
//!
//! The pruned executor already cross-checks every injection against a
//! full replay in debug builds; these tests assert the equivalence at the
//! campaign level — across detection models, recovery campaigns, ECC
//! pattern campaigns, worker-thread counts, and checkpoint geometries.

use ses_core::telemetry::campaign_artifact;
use ses_core::{
    run_ecc_campaign, Campaign, CampaignConfig, DetectionModel, EccCampaignConfig,
    LatencyDistribution, PiScope, RecoveryPolicy, TelemetryLevel, TrackingConfig, WorkloadSpec,
};

fn tracking() -> TrackingConfig {
    TrackingConfig {
        scope: PiScope::StoreCommit,
        anti_pi: true,
        pet_entries: None,
        mem_granule: 8,
    }
}

/// Fuzzed corpus: per-fault verdict identity between the pruned and the
/// full-replay executor across workloads, seeds, and detection models
/// (no detection, immediate parity, π-bit tracking, double-bit strikes).
#[test]
fn fuzzed_corpus_verdicts_match_full_replay() {
    let models = [
        DetectionModel::None,
        DetectionModel::Parity { tracking: None },
        DetectionModel::Parity {
            tracking: Some(tracking()),
        },
    ];
    let mut checked = 0u32;
    for (case, (wl_seed, seed, double_bit)) in
        [(3u64, 7u64, false), (17, 101, false), (29, 5, true)].iter().enumerate()
    {
        let spec = WorkloadSpec::quick("prune-fuzz", *wl_seed);
        for (m, detection) in models.iter().enumerate() {
            let base = CampaignConfig {
                injections: 40,
                seed: *seed ^ (m as u64) << 8,
                detection: *detection,
                double_bit: *double_bit,
                threads: 2,
                ..CampaignConfig::default()
            };
            let full = Campaign::prepare(&spec, base.clone()).unwrap().run_detailed();
            let pruned = Campaign::prepare(
                &spec,
                CampaignConfig {
                    prune: true,
                    ..base
                },
            )
            .unwrap()
            .run_detailed();
            assert_eq!(
                full.samples(),
                pruned.samples(),
                "verdicts diverged (case {case}, model {m})"
            );
            assert!(full.prune().is_none(), "prune-off runs must not grow a prune report");
            let report = pruned.prune().expect("prune-on runs report pruning");
            assert_eq!(report.injections, 40);
            checked += report.injections;
        }
    }
    assert_eq!(checked, 9 * 40, "every corpus case must have run");
}

/// Recovery campaigns (detection latency > 0, idempotent re-execution)
/// keep both the per-fault samples and the whole recovery stanza when
/// pruning is switched on.
#[test]
fn recovery_campaign_matches_with_pruning() {
    let spec = WorkloadSpec::quick("prune-recovery", 23);
    for latency in [
        LatencyDistribution::Fixed(6),
        LatencyDistribution::Geometric { mean: 12.0 },
    ] {
        let base = CampaignConfig {
            injections: 100,
            seed: 41,
            detection: DetectionModel::Parity { tracking: None },
            detect_latency: Some(latency),
            recovery: RecoveryPolicy::Idempotent,
            threads: 2,
            ..CampaignConfig::default()
        };
        let full = Campaign::prepare(&spec, base.clone()).unwrap().run_detailed();
        let pruned = Campaign::prepare(
            &spec,
            CampaignConfig {
                prune: true,
                ..base
            },
        )
        .unwrap()
        .run_detailed();
        assert_eq!(full.samples(), pruned.samples(), "recovery verdicts must match");
        assert!(full.recovery().is_some(), "latency > 0 must grow a recovery report");
        assert_eq!(
            full.recovery(),
            pruned.recovery(),
            "pruning must not perturb the recovery stanza"
        );
    }
}

/// ECC pattern campaigns drive the pipeline through
/// [`Campaign::inject_spec_quiet`], which routes through the pruned
/// executor when enabled — the whole report (dispositions, outcome
/// counts, per-class tallies) must be unchanged.
#[test]
fn ecc_pattern_campaign_matches_with_pruning() {
    let spec = WorkloadSpec::quick("prune-ecc", 31);
    let base = CampaignConfig {
        injections: 10,
        seed: 13,
        detection: DetectionModel::Parity { tracking: None },
        threads: 2,
        ..CampaignConfig::default()
    };
    let ecc = EccCampaignConfig {
        injections: 120,
        ..EccCampaignConfig::default()
    };
    let full_campaign = Campaign::prepare(&spec, base.clone()).unwrap();
    let pruned_campaign = Campaign::prepare(
        &spec,
        CampaignConfig {
            prune: true,
            ..base
        },
    )
    .unwrap();
    let full = run_ecc_campaign(&full_campaign, &ecc);
    let pruned = run_ecc_campaign(&pruned_campaign, &ecc);
    assert_eq!(full, pruned, "ECC campaign report must be prune-invariant");
}

/// The Summary artifact of a pruned campaign — pruning stanza included —
/// is byte-identical across worker-thread counts: per-fault charges are
/// pure and the prune fold runs in injection-index order.
#[test]
fn pruned_artifact_is_thread_count_invariant() {
    let spec = WorkloadSpec::quick("prune-threads", 19);
    let render = |threads: usize| {
        let config = CampaignConfig {
            injections: 80,
            seed: 7,
            detection: DetectionModel::Parity {
                tracking: Some(tracking()),
            },
            prune: true,
            threads,
            ..CampaignConfig::default()
        };
        let iq = config.pipeline.iq_entries;
        let detailed = Campaign::prepare(&spec, config).unwrap().run_detailed();
        campaign_artifact("prune-threads", &detailed, iq, TelemetryLevel::Summary).render()
    };
    let one = render(1);
    assert_eq!(one, render(2), "pruned artifact must not depend on threads (1 vs 2)");
    assert_eq!(one, render(8), "pruned artifact must not depend on threads (1 vs 8)");
    assert!(one.contains("\"pruning\""), "artifact must carry the pruning stanza");
}

/// Checkpoint/resume with pruning on: from-scratch (`Some(0)`) and
/// checkpointed (default interval) geometries agree on every verdict and
/// on the outcome histogram. (Pruning-stanza bytes legitimately differ —
/// replay-cycle and idle-skip savings are measured from each window's
/// start — so equality is on samples and counts, mirroring the
/// checkpointed-recovery guard.)
#[test]
fn pruned_run_survives_checkpoint_resume() {
    let spec = WorkloadSpec::quick("prune-ckpt-resume", 37);
    let run = |checkpoint_interval: Option<u64>| {
        let config = CampaignConfig {
            injections: 80,
            seed: 11,
            detection: DetectionModel::Parity {
                tracking: Some(tracking()),
            },
            prune: true,
            checkpoint_interval,
            ..CampaignConfig::default()
        };
        Campaign::prepare(&spec, config).unwrap().run_detailed()
    };
    let scratch = run(Some(0));
    let checkpointed = run(None);
    assert_eq!(
        scratch.samples(),
        checkpointed.samples(),
        "checkpoint geometry must not perturb pruned verdicts"
    );
    let (a, b) = (
        scratch.prune().expect("prune report"),
        checkpointed.prune().expect("prune report"),
    );
    assert_eq!(a.injections, b.injections);
    assert_eq!(a.idle_skips, b.idle_skips, "idle detection is geometry-independent");
    assert_eq!(a.fp_stops, b.fp_stops, "fingerprint stops are geometry-independent");
}
