//! `serve-mixed`: an in-process daemon with one worker thread, driven by
//! one closed-loop client (the caller waits for its artifact before it
//! sends the next request).
//!
//! The run is a series of daemon sessions. Each starts a fresh daemon and
//! sends the jobs {crafty, mcf} × {pruned tracking campaign, idempotent
//! recovery campaign at `fixed:8`, `sec-ded` ECC campaign, `ecc-grid`} at
//! the run's job seed. Each job is sent once cold per session, once per run
//! at telemetry level `full` (which bypasses the result cache but reuses
//! the prepared campaign), and then repeatedly as hits, round-robin over
//! every job of the session so far, interleaved with the cold jobs. Hits
//! exercise parse, cache and HTTP; misses exercise prepare and execute.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use ses_metrics::JsonValue;
use ses_serve::{
    http_get, http_post, JobSpec, Response, ResultCache, ServeConfig, Server, SharedRuns,
};

use crate::check::{hit_matches_miss, same_bytes, served};
use crate::report::Report;
use crate::stats::{assembled_rate, kinds_quantile, median, quantile};
use crate::trace::Tracer;
use crate::{derive_seed, Args, Window};

const WORKLOADS: [&str; 2] = ["crafty", "mcf"];
/// Separates this workload's seed stream from the others'.
const STREAM: u64 = 0x5E2F_E000;
/// The traffic mix is that of `ser-repro loadtest` at its defaults, as
/// recorded in `BENCH_serve.json`: 15 distinct jobs, each sent once cold,
/// and 384 hits, a 96.2% hit rate. A session keeps that ratio of hits to
/// cold jobs: `hits_after` spreads 8 × 384 / 15 ≈ 204 hits over its eight
/// jobs.
const LOADTEST_DISTINCT_JOBS: usize = 15;
const LOADTEST_HITS: usize = 384;
/// Repetitions of each per-job probe in the traced run.
const PROBE_REPS: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Shape {
    Pruned,
    Recovery,
    Ecc,
    EccGrid,
}

const SHAPES: [Shape; 4] = [Shape::Pruned, Shape::Recovery, Shape::Ecc, Shape::EccGrid];

/// Hits sent after the cold request of the session's `slot`-th job (25 or
/// 26), so that after every job the session's hits number
/// ⌊cold jobs × 384 / 15⌋.
fn hits_after(slot: usize) -> usize {
    let total = |jobs: usize| jobs * LOADTEST_HITS / LOADTEST_DISTINCT_JOBS;
    total(slot + 1) - total(slot)
}

struct Job {
    kind: &'static str,
    body: String,
    full_body: String,
    /// The cold response body, which every hit must repeat.
    miss: String,
    /// Whether the job prepares a campaign through the daemon's shared
    /// prepared-campaign cache (every shape but `ecc-grid`).
    prepares: bool,
}

fn job(workload: &str, shape: Shape, seed: u64) -> Job {
    let (kind, fields) = match shape {
        Shape::Pruned => ("campaign", r#""model": "tracking", "injections": 150"#),
        Shape::Recovery => (
            "campaign",
            r#""detect_latency": "fixed:8", "recovery": "idempotent", "injections": 150"#,
        ),
        Shape::Ecc => ("campaign", r#""ecc": "sec-ded", "injections": 300"#),
        Shape::EccGrid => ("ecc-grid", r#""probes": 50"#),
    };
    let fields = if shape == Shape::EccGrid {
        // `ecc-grid` takes no thread count; run.py pins this workload's
        // process to one CPU, so its default of one worker per available
        // core is one worker.
        format!(r#""workloads": ["{workload}"], {fields}, "seed": {seed}"#)
    } else {
        format!(
            r#""workload": "{workload}", {fields}, "prune": true, "seed": {seed}, "threads": 1"#
        )
    };
    Job {
        kind,
        body: format!("{{{fields}}}"),
        full_body: format!(r#"{{{fields}, "level": "full"}}"#),
        miss: String::new(),
        prepares: shape != Shape::EccGrid,
    }
}

fn start_server() -> Result<Server, String> {
    let server = Server::start(&ServeConfig {
        threads: 1,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("server start: {e}"))?;
    let health = http_get(server.addr(), "/v1/healthz").map_err(|e| format!("healthz: {e}"))?;
    if health.status != 200 {
        return Err(format!("healthz status {}", health.status));
    }
    Ok(server)
}

/// Set-ups per batch. A batch runs before each daemon session; `setup_s`
/// is the best of the batch medians, so set-ups are sampled across the
/// whole run.
const SETUP_BATCH: usize = 30;

fn post(addr: SocketAddr, job: &Job, body: &str) -> (Result<Response, String>, f64) {
    let start = Instant::now();
    let resp = http_post(addr, &format!("/v1/{}", job.kind), body)
        .map_err(|e| format!("{}: {e}", job.kind));
    (resp, start.elapsed().as_secs_f64() * 1e3)
}

/// Latencies and accounting of the closed loop.
#[derive(Default)]
struct Loop {
    /// Cold requests by job slot (shape × workload), one per session: the
    /// result-cache misses. Full-level requests bypass the cache rather
    /// than miss it, as `/v1/stats` counts them.
    miss_ms: Vec<Vec<f64>>,
    /// Per job, the median and p90 over its cold request and the hits
    /// sent right after it: each is a round of requests sent within a
    /// second, so at one host speed.
    p50_ms: Vec<f64>,
    p90_ms: Vec<f64>,
    /// By job slot, one per session: the time of the job's cold request
    /// plus the hits sent right after it, the round of `throughput_per_s`.
    round_ms: Vec<Vec<f64>>,
    /// In the traced run, hits timed inside a span and the untraced hits
    /// they alternate with, for the overhead ratio.
    traced_hit_ms: Vec<f64>,
    untraced_hit_ms: Vec<f64>,
    next_hit: usize,
}

/// Per-job probe results of the traced run.
#[derive(Default)]
struct Probes {
    prepare_ms: Vec<f64>,
    execute_ms: Vec<f64>,
    miss_overhead_ms: Vec<f64>,
    http_roundtrip_us: Vec<f64>,
}

struct Traced<'a> {
    tracer: &'a mut Tracer,
    probes: &'a mut Probes,
    op: u64,
}

/// Executes `job` directly, on a fresh then on a warmed prepared-campaign
/// cache; returns the bytes and the fresh time in ms.
fn direct(job: &Job, t: &mut Traced) -> Result<(String, f64), String> {
    let doc = JsonValue::parse(&job.body).map_err(|e| e.to_string())?;
    let spec = JobSpec::parse(job.kind, &doc).map_err(|e| e.message)?;
    let shared = SharedRuns::new(1);
    let op = t.op;
    let start = Instant::now();
    let fresh = t
        .tracer
        .span("serve.direct_fresh", op, |_| spec.execute(&shared))
        .map_err(|e| e.message)?;
    let fresh_ms = start.elapsed().as_secs_f64() * 1e3;
    let start = Instant::now();
    let warm = t
        .tracer
        .span("serve.direct_warm", op, |_| spec.execute(&shared))
        .map_err(|e| e.message)?;
    let warm_ms = start.elapsed().as_secs_f64() * 1e3;
    same_bytes("direct execute on a warmed cache", &warm, &fresh)?;
    if job.prepares {
        t.probes.prepare_ms.push(fresh_ms - warm_ms);
    }
    t.probes.execute_ms.push(warm_ms);
    Ok((fresh, fresh_ms))
}

/// Runs `f` inside a span named `name` and returns its result with its
/// wall time in µs.
fn timed<T>(t: &mut Traced, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let op = t.op;
    let start = Instant::now();
    let out = t.tracer.span(name, op, |_| f());
    (out, start.elapsed().as_secs_f64() * 1e6)
}

/// Micro-probes of the layers a hit passes through, each inside spans.
/// Each repetition also sends the job as a real hit; the HTTP round trip
/// is that hit's latency minus the parse, canonical-key and cache-lookup
/// times the daemon spends on it, as measured here in the same repetition.
fn probe_hit_path(addr: SocketAddr, job: &Job, t: &mut Traced) -> Result<(), String> {
    let cache = ResultCache::new(64 << 20);
    let artifact = JsonValue::parse(&job.miss).map_err(|e| e.to_string())?;
    for _ in 0..PROBE_REPS {
        let (spec, parse_us) = timed(t, "serve.parse", || {
            let doc = JsonValue::parse(&job.body).map_err(|e| e.to_string())?;
            JobSpec::parse(job.kind, &doc).map_err(|e| e.message)
        });
        let spec = spec?;
        let (canonical, canonical_us) = timed(t, "serve.canonical", || spec.canonical());
        cache
            .get_or_compute::<()>(&canonical, || Ok(Arc::new(job.miss.clone())))
            .map_err(|()| "cache insert failed".to_string())?;
        let (hit, lookup_us) = timed(t, "serve.cache_lookup", || cache.get(&canonical));
        if hit.as_deref() != Some(&job.miss) {
            return Err("local cache lookup missed".into());
        }
        let (rendered, _) = timed(t, "metrics.render", || artifact.render());
        same_bytes("re-rendered artifact", &rendered, &job.miss)?;
        let ((resp, _), hit_us) = timed(t, "serve.hit_probe", || post(addr, job, &job.body));
        resp.and_then(|r| hit_matches_miss("probed hit", &r, &job.miss))?;
        t.probes
            .http_roundtrip_us
            .push(hit_us - parse_us - canonical_us - lookup_us);
    }
    Ok(())
}

/// Posts `body` for `job`, inside a span named `name` in the traced run.
fn send(
    addr: SocketAddr,
    job: &Job,
    body: &str,
    name: &'static str,
    traced: Option<&mut Traced>,
) -> (Result<Response, String>, f64) {
    match traced {
        Some(t) => {
            let op = t.op;
            t.tracer.span(name, op, |_| post(addr, job, body))
        }
        None => post(addr, job, body),
    }
}

/// Sends one job cold, at level `full` when `full` is set, then
/// [`hits_after`] hits round-robin over every job of the session so far.
fn run_job(
    addr: SocketAddr,
    jobs: &mut Vec<Job>,
    mut job: Job,
    full: bool,
    lp: &mut Loop,
    report: &mut Report,
    mut traced: Option<&mut Traced>,
) {
    // The traced run first executes the job directly, to compare the
    // served miss with it.
    let expected = match traced.as_deref_mut().map(|t| direct(&job, t)) {
        Some(Err(e)) => {
            report.op(Err(format!("direct execute: {e}")));
            None
        }
        Some(Ok(d)) => Some(d),
        None => None,
    };
    let (cold, ms) = send(addr, &job, &job.body, "serve.cold", traced.as_deref_mut());
    let slot = jobs.len();
    if lp.miss_ms.len() == slot {
        lp.miss_ms.push(Vec::new());
        lp.round_ms.push(Vec::new());
    }
    lp.miss_ms[slot].push(ms);
    let cold = cold.and_then(|r| {
        served("cold request", &r, "miss", "summary")?;
        Ok(String::from_utf8(r.body).expect("checked UTF-8"))
    });
    report.op(match (&cold, expected) {
        (Ok(bytes), Some((direct_bytes, fresh_ms))) => {
            if let Some(t) = traced.as_deref_mut() {
                t.probes.miss_overhead_ms.push(ms - fresh_ms);
            }
            same_bytes("served miss against a direct execute", bytes, &direct_bytes)
        }
        (Ok(_), None) => Ok(()),
        (Err(e), _) => Err(e.clone()),
    });
    job.miss = cold.unwrap_or_default();

    if full {
        let (resp, _) = send(
            addr,
            &job,
            &job.full_body,
            "serve.full",
            traced.as_deref_mut(),
        );
        report.op(resp.and_then(|r| served("full-level request", &r, "miss", "full")));
    }

    if let Some(t) = traced.as_deref_mut() {
        let probed = probe_hit_path(addr, &job, t);
        report.op(probed);
    }
    jobs.push(job);

    let mut hit_ms = Vec::with_capacity(hits_after(slot));
    for h in 0..hits_after(slot) {
        let target = &jobs[lp.next_hit % jobs.len()];
        lp.next_hit += 1;
        // In the traced run, every other hit is timed inside a span.
        let spanned = h % 2 == 0;
        let span = traced.as_deref_mut().filter(|_| spanned);
        let (resp, ms) = send(addr, target, &target.body, "serve.hit", span);
        match (traced.is_some(), spanned) {
            (true, true) => lp.traced_hit_ms.push(ms),
            (true, false) => lp.untraced_hit_ms.push(ms),
            (false, _) => {}
        }
        hit_ms.push(ms);
        report.op(resp.and_then(|r| hit_matches_miss("hit", &r, &target.miss)));
    }
    lp.round_ms[slot].push(ms + hit_ms.iter().sum::<f64>());
    // The round's requests: the hits and the cold request before them.
    hit_ms.push(ms);
    lp.p50_ms.extend(median(&hit_ms));
    lp.p90_ms.extend(quantile(&hit_ms, 0.9));
}

/// The daemon's counters from `/v1/stats`.
fn stats(addr: SocketAddr) -> Result<Vec<(&'static str, u64)>, String> {
    let resp = http_get(addr, "/v1/stats").map_err(|e| format!("stats: {e}"))?;
    let doc =
        JsonValue::parse(std::str::from_utf8(&resp.body).map_err(|_| "stats body is not UTF-8")?)
            .map_err(|e| format!("stats: {e}"))?;
    let field = |path: &[&str]| {
        path.iter()
            .try_fold(&doc, |d, k| d.get(k))
            .and_then(JsonValue::as_u64)
            .ok_or(format!("stats lacks {}", path.join(".")))
    };
    Ok(vec![
        ("serve.hits", field(&["cache", "hits"])?),
        ("serve.misses", field(&["cache", "misses"])?),
        ("serve.jobs_executed", field(&["jobs_executed"])?),
        ("serve.prepared_campaigns", field(&["prepared_campaigns"])?),
    ])
}

/// What the daemon sessions of a run leave behind.
#[derive(Default)]
struct Sessions {
    setup_s: Vec<f64>,
    lp: Loop,
    /// The daemon's counters after the first session.
    counts: Option<Vec<(&'static str, u64)>>,
    first_session_rss: Option<f64>,
}

/// Runs daemon sessions while `window` is open, at least one. With a
/// tracer, each job is also executed directly and its hit path probed.
fn sessions(
    run_seed: u64,
    window: &Window,
    mut tracer: Option<&mut Tracer>,
    probes: &mut Probes,
    report: &mut Report,
) -> Result<Sessions, String> {
    let mut out = Sessions::default();
    // Every session sends the same jobs, so each job slot's cold latencies
    // differ only by the host's speed.
    let seed = derive_seed(run_seed, STREAM, 0);
    let mut op = 0;
    let mut session = 0;
    // Each session starts a fresh daemon: its prepared campaigns are freed
    // when it shuts down, so memory does not grow with the run length.
    while window.open() || session == 0 {
        // Set-up is `Server::start` plus a healthz probe; the batch's
        // earlier daemons shut down outside the clock.
        let server = crate::setup_batch(
            SETUP_BATCH,
            &mut out.setup_s,
            start_server,
            Server::shutdown,
        )?;
        let addr = server.addr();
        let mut jobs = Vec::new();
        let slots = SHAPES
            .into_iter()
            .flat_map(|shape| WORKLOADS.map(|workload| (shape, workload)));
        for (shape, workload) in slots {
            // Later sessions stop when the window closes, so a run ends
            // at most one job after it.
            if session > 0 && !window.open() {
                break;
            }
            let mut traced = tracer.as_deref_mut().map(|tracer| Traced {
                tracer,
                probes: &mut *probes,
                op,
            });
            // Each distinct job goes once at level `full`, in the first
            // session; later sessions repeat only its cold request and hits.
            let job = job(workload, shape, seed);
            let full = session == 0;
            let lp = &mut out.lp;
            run_job(addr, &mut jobs, job, full, lp, report, traced.as_mut());
            op += 1;
        }
        if session == 0 {
            // The counters of a session are a pure function of its seed.
            match stats(addr) {
                Ok(c) => out.counts = Some(c),
                Err(e) => report.op(Err(e)),
            }
        }
        server.shutdown();
        out.first_session_rss = out.first_session_rss.or_else(crate::peak_rss_mb);
        session += 1;
    }
    report.op(crate::campaign::golden_check());
    Ok(out)
}

pub fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    let window = Window::new(args.seconds);
    let s = sessions(
        args.seed,
        &window,
        None,
        &mut Probes::default(),
        &mut report,
    )?;
    // Each job slot's round time is its best over the sessions;
    // throughput is the requests of a session over the sum of its jobs'
    // best rounds. Latency percentiles are over every request of a round
    // (a cold request and the hits right after it), best round.
    report.round_metric("setup_s", s.setup_s, "s", false);
    let requests: usize = (0..s.lp.round_ms.len())
        .map(|slot| 1 + hits_after(slot))
        .sum();
    report.metric(
        "throughput_per_s",
        assembled_rate(requests, &s.lp.round_ms),
        "1/s",
    );
    report.round_metric("p50_ms", s.lp.p50_ms, "ms", false);
    report.round_metric("p90_ms", s.lp.p90_ms, "ms", false);
    for (slot, samples) in s.lp.miss_ms.into_iter().enumerate() {
        report.keep_rounds(format!("miss_ms.{slot}"), samples);
    }
    for (slot, samples) in s.lp.round_ms.into_iter().enumerate() {
        report.keep_rounds(format!("round_ms.{slot}"), samples);
    }
    report.metric("peak_rss_mb", s.first_session_rss, "MB");
    report.metric("success_rate", Some(report.success_rate()), "fraction");
    Ok(report)
}

/// The campaign and serve part of a traced run: the campaign probe, then
/// traced daemon sessions while `window` is open, at least one. Reports
/// the faults, serve and metrics layers' metrics and returns the ratio of
/// traced to untraced hit latency.
pub fn traced(
    run_seed: u64,
    window: &Window,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Option<f64>, String> {
    crate::campaign::probe(run_seed, tracer, report);
    let mut probes = Probes::default();
    let s = sessions(run_seed, window, Some(&mut *tracer), &mut probes, report)?;
    let us = |name: &str| median(&tracer.each_ms(name)).map(|ms| ms * 1e3);
    for name in [
        "serve.parse",
        "serve.canonical",
        "serve.cache_lookup",
        "metrics.render",
    ] {
        report.metric(&format!("{name}_us"), us(name), "us");
    }
    report.metric(
        "serve.http_roundtrip_us",
        median(&probes.http_roundtrip_us),
        "us",
    );
    report.metric(
        "serve.miss_p50_ms",
        kinds_quantile(&s.lp.miss_ms, 0.5),
        "ms",
    );
    report.metric("serve.prepare_ms", median(&probes.prepare_ms), "ms");
    report.metric("serve.execute_ms", median(&probes.execute_ms), "ms");
    report.metric(
        "serve.miss_overhead_ms",
        median(&probes.miss_overhead_ms),
        "ms",
    );
    if let Some(counts) = s.counts {
        let lookups = counts[0].1 + counts[1].1;
        report.metric(
            "serve.hit_ratio",
            Some(counts[0].1 as f64 / lookups.max(1) as f64),
            "ratio",
        );
        for (name, value) in counts {
            report.count(name, value);
        }
    }
    // Hits alternate traced and untraced, so the ratio compares the same
    // requests under the same host conditions.
    Ok(median(&s.lp.traced_hit_ms)
        .zip(median(&s.lp.untraced_hit_ms))
        .map(|(t, u)| t / u))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sessions_keep_the_loadtest_hit_rate() {
        let jobs = SHAPES.len() * WORKLOADS.len();
        let hits: usize = (0..jobs).map(hits_after).sum();
        assert_eq!(hits, jobs * LOADTEST_HITS / LOADTEST_DISTINCT_JOBS);
        assert!((0..jobs).all(|slot| (25..=26).contains(&hits_after(slot))));
        let rate = hits as f64 / (hits + jobs) as f64;
        assert!((rate - 0.962).abs() < 0.001, "{rate}");
    }
}
