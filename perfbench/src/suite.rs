//! `suite-avf`: all 26 suite workloads through synthesise → emulate →
//! dead-map → timing → spans → AVF → render, in sequence on one thread.
//!
//! One op is the analysis of one workload. The suite is seedless: its 26
//! specs are fixed and every pass must render `tests/golden/suite_default.json`
//! byte for byte.

use std::sync::Mutex;
use std::time::Instant;

use ses_arch::Emulator;
use ses_avf::{AvfAnalysis, DeadMap, SpanSet};
use ses_core::telemetry::{suite_artifact, summary_value};
use ses_core::{run_suite_with, suite, BenchSummary, PipelineConfig, TelemetryLevel, WorkloadRun};
use ses_metrics::JsonValue;
use ses_pipeline::Pipeline;
use ses_workloads::{synthesize, WorkloadSpec};

use crate::check::{same_bytes, same_count};
use crate::report::Report;
use crate::stats::{assembled_rate, kinds_quantile, median};
use crate::trace::Tracer;
use crate::{Args, Window};

/// Op ids of the suite passes' spans, kept apart from the other parts'.
const OP_BASE: u64 = 2 << 40;

/// The program's inputs: what `ser-repro suite` builds before its first
/// analysis, a vector of 26 specs and the default pipeline. Building them
/// is the program's whole set-up here, about a microsecond.
struct Inputs {
    specs: Vec<WorkloadSpec>,
    cfg: PipelineConfig,
}

impl Inputs {
    fn build() -> Result<Inputs, String> {
        Ok(Inputs {
            specs: suite(),
            cfg: PipelineConfig::default(),
        })
    }
}

/// Set-ups per batch. A batch runs before each pass; `setup_s` is the best
/// of the batch medians. Each set-up takes about a microsecond, so a batch
/// costs about a millisecond of a two-second pass.
const SETUP_BATCH: usize = 1000;

/// The expected outputs, read once before the first op.
struct Golden {
    text: String,
    /// Each golden workload record rendered on its own, for per-op checks.
    rows: Vec<String>,
    /// Committed instructions and simulated cycles the golden records
    /// sum to over the suite.
    committed: u64,
    cycles: u64,
}

fn load_golden(specs: &[WorkloadSpec]) -> Result<Golden, String> {
    let text = crate::golden("suite_default.json")?;
    let doc = JsonValue::parse(&text).map_err(|e| format!("suite golden: {e}"))?;
    if doc.render() != text {
        return Err("suite golden does not round-trip through the JSON renderer".into());
    }
    let rows = doc
        .get("workloads")
        .and_then(JsonValue::as_array)
        .ok_or("suite golden has no workloads array")?;
    if rows.len() != specs.len() {
        return Err(format!(
            "suite golden has {} workloads, suite has {}",
            rows.len(),
            specs.len()
        ));
    }
    let (mut committed, mut cycles) = (0, 0);
    for (row, spec) in rows.iter().zip(specs) {
        let field = |k: &str| {
            row.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or(format!("suite golden record {} lacks {k}", spec.name))
        };
        committed += field("committed")?;
        cycles += field("cycles")?;
    }
    Ok(Golden {
        rows: rows.iter().map(JsonValue::render).collect(),
        text,
        committed,
        cycles,
    })
}

/// Counts each pass of the suite must repeat exactly.
#[derive(Debug, Default, PartialEq, Eq, Clone, Copy)]
struct PassCounts {
    instructions: u64,
    cycles: u64,
    residencies: u64,
    bit_cycles: u64,
}

/// Checks one pass: each op passes when its workload record equals the
/// golden record and the whole rendered artifact equals the golden file.
fn check_pass(
    inputs: &Inputs,
    golden: &Golden,
    rows: &[BenchSummary],
    rendered: &str,
    report: &mut Report,
) {
    let whole = same_bytes("suite artifact", rendered, &golden.text);
    for (i, spec) in inputs.specs.iter().enumerate() {
        let row = match rows.get(i) {
            Some(r) => same_bytes(&spec.name, &summary_value(r).render(), &golden.rows[i]),
            None => Err(format!("{}: no result", spec.name)),
        };
        report.op(row.and(whole.clone()));
    }
}

/// One pass through `run_suite_with` on one worker thread. Returns the
/// pass wall time in seconds and the per-workload latencies in ms.
fn pass(inputs: &Inputs, golden: &Golden, report: &mut Report) -> (f64, Vec<f64>) {
    let stamps = Mutex::new(Vec::with_capacity(inputs.specs.len()));
    let start = Instant::now();
    let rows = run_suite_with(&inputs.cfg, 1, |_, run| {
        let row = run.summary();
        drop(run);
        stamps.lock().expect("stamp lock").push(Instant::now());
        row
    });
    let rendered = rows
        .as_ref()
        .map(|rows| suite_artifact(&inputs.cfg, rows, &[], TelemetryLevel::Summary).render())
        .map_err(|e| e.to_string());
    let elapsed = start.elapsed().as_secs_f64();
    let mut prev = start;
    let mut latencies = Vec::with_capacity(inputs.specs.len());
    for stamp in stamps.into_inner().expect("stamp lock") {
        latencies.push((stamp - prev).as_secs_f64() * 1e3);
        prev = stamp;
    }
    match (rows.as_deref(), rendered) {
        (Ok(rows), Ok(rendered)) => check_pass(inputs, golden, rows, &rendered, report),
        (_, rendered) => {
            let e = rendered.err().unwrap_or_default();
            for _ in &inputs.specs {
                report.op(Err(format!("suite pass failed: {e}")));
            }
        }
    }
    (elapsed, latencies)
}

/// One pass re-issuing each layer's public calls inside spans; the calls
/// are the ones `run_workload` makes.
fn traced_pass(
    inputs: &Inputs,
    tracer: &mut Tracer,
    op: u64,
) -> Result<(Vec<BenchSummary>, String, PassCounts), String> {
    tracer.span("suite.pass", op, |t| {
        let mut rows = Vec::with_capacity(inputs.specs.len());
        let mut counts = PassCounts::default();
        for spec in &inputs.specs {
            let row = t.span("core.workload", op, |t| {
                let program = t.span("workloads.synthesize", op, |_| synthesize(spec));
                let budget = spec.target_dynamic * 4;
                let trace = t
                    .span("arch.emulate", op, |_| Emulator::new(&program).run(budget))
                    .map_err(|e| format!("{}: {e}", spec.name))?;
                if !trace.halted() {
                    return Err(format!("{}: golden run did not halt", spec.name));
                }
                let dead = t.span("avf.dead_map", op, |_| DeadMap::analyze(&trace));
                let result = t.span("pipeline.timing", op, |_| {
                    Pipeline::new(inputs.cfg.clone()).run(&program, &trace)
                });
                let spans = t.span("avf.spans", op, |_| SpanSet::derive(&result, &dead));
                let avf = t.span("avf.analysis", op, |_| AvfAnalysis::from_spans(&spans));
                counts.instructions += trace.len() as u64;
                counts.cycles += result.cycles;
                counts.residencies += result.residencies.len() as u64;
                counts.bit_cycles += avf.total_bit_cycles();
                let run = WorkloadRun {
                    spec: spec.clone(),
                    program,
                    trace,
                    dead,
                    result,
                    spans,
                    avf,
                };
                Ok(t.span("core.summary", op, |_| run.summary()))
            })?;
            rows.push(row);
        }
        let rendered = t.span("core.render", op, |_| {
            suite_artifact(&inputs.cfg, &rows, &[], TelemetryLevel::Summary).render()
        });
        Ok((rows, rendered, counts))
    })
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut setup_s = Vec::new();
    let mut inputs = crate::setup_batch(SETUP_BATCH, &mut setup_s, Inputs::build, drop)?;
    // The golden file is the checker's input, read outside the set-up clock.
    let golden = load_golden(&inputs.specs)?;
    let mut report = Report::default();
    let window = Window::new(args.seconds);
    // Each pass is a round of the same 26 ops. Each workload's latency is
    // its best over the passes; p50 and p90 are over the workloads. The
    // pass's tail after the last workload (rendering the suite artifact)
    // is one more kind of pass time. A set-up batch runs before every pass
    // but the first, whose batch ran above.
    let mut per_workload = vec![Vec::new(); inputs.specs.len()];
    let mut tail_ms = Vec::new();
    let mut first_pass_rss = None;
    while window.open() || first_pass_rss.is_none() {
        if !tail_ms.is_empty() {
            inputs = crate::setup_batch(SETUP_BATCH, &mut setup_s, Inputs::build, drop)?;
        }
        let (pass_s, latencies) = pass(&inputs, &golden, &mut report);
        tail_ms.push(pass_s * 1e3 - latencies.iter().sum::<f64>());
        for (samples, ms) in per_workload.iter_mut().zip(latencies) {
            samples.push(ms);
        }
        first_pass_rss = first_pass_rss.or_else(crate::peak_rss_mb);
    }
    report.round_metric("setup_s", setup_s, "s", false);
    let mut pass_kinds = per_workload.clone();
    pass_kinds.push(tail_ms.clone());
    report.metric(
        "throughput_per_s",
        assembled_rate(inputs.specs.len(), &pass_kinds),
        "1/s",
    );
    report.keep_rounds("tail_ms".to_string(), tail_ms);
    report.metric("p50_ms", kinds_quantile(&per_workload, 0.5), "ms");
    report.metric("p90_ms", kinds_quantile(&per_workload, 0.9), "ms");
    for (spec, samples) in inputs.specs.iter().zip(per_workload) {
        report.keep_rounds(format!("latency_ms.{}", spec.name), samples);
    }
    report.metric("peak_rss_mb", first_pass_rss, "MB");
    report.metric("success_rate", Some(report.success_rate()), "fraction");
    Ok(report)
}

/// The suite's part of a traced run: untraced and traced passes alternate
/// while `window` is open (at least one of each), so the overhead ratio
/// compares the same work under the same host conditions. Reports the
/// suite layers' metrics and returns the ratio of traced to untraced pass
/// time.
pub fn traced(
    window: &Window,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Option<f64>, String> {
    let inputs = Inputs::build()?;
    let golden = load_golden(&inputs.specs)?;
    let (mut untraced_s, mut traced_s) = (0.0, 0.0);
    let mut per_pass: Vec<PassCounts> = Vec::new();
    let mut op = OP_BASE;
    while window.open() || op == OP_BASE {
        untraced_s += pass(&inputs, &golden, report).0;
        let start = Instant::now();
        let traced = traced_pass(&inputs, tracer, op);
        traced_s += start.elapsed().as_secs_f64();
        match traced {
            Ok((rows, rendered, counts)) => {
                check_pass(&inputs, &golden, &rows, &rendered, report);
                let repeat = match per_pass.first() {
                    Some(first) if *first != counts => {
                        Err(format!("pass counts {counts:?} differ from {first:?}"))
                    }
                    _ => Ok(()),
                };
                report.op(
                    same_count("suite instructions", counts.instructions, golden.committed)
                        .and(same_count("suite cycles", counts.cycles, golden.cycles))
                        .and(repeat),
                );
                per_pass.push(counts);
            }
            Err(e) => report.op(Err(e)),
        }
        op += 1;
    }
    for name in [
        "workloads.synthesize",
        "arch.emulate",
        "avf.dead_map",
        "pipeline.timing",
        "avf.spans",
        "avf.analysis",
        "core.summary",
        "core.render",
    ] {
        report.metric(
            &format!("{name}_ms"),
            median(&tracer.op_totals_ms(name)),
            "ms",
        );
    }
    let emulate = tracer.op_totals_ms("arch.emulate");
    let timing = tracer.op_totals_ms("pipeline.timing");
    let rate = |per_ms: &[f64], count: fn(&PassCounts) -> u64| {
        let rates: Vec<f64> = per_pass
            .iter()
            .zip(per_ms)
            .map(|(c, ms)| count(c) as f64 / ms / 1e3)
            .collect();
        median(&rates)
    };
    report.metric(
        "arch.minstr_per_s",
        rate(&emulate, |c| c.instructions),
        "M/s",
    );
    report.metric("pipeline.mcycles_per_s", rate(&timing, |c| c.cycles), "M/s");
    if let Some(c) = per_pass.first() {
        report.count("arch.instructions", c.instructions);
        report.count("pipeline.cycles", c.cycles);
        report.count("avf.residencies", c.residencies);
        report.count("avf.bit_cycles", c.bit_cycles);
    }
    Ok(Some(traced_s / untraced_s))
}
