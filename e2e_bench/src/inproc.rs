//! The in-process workloads: `sessions` opens engine sessions and
//! deepens them exactly as `sebmc model.aag --deepen` does, and
//! `certify` runs the same API with `Budget::certify` on.
//!
//! One run repeats the job ladder in passes, each in a freshly shuffled
//! order, until the window closes. A job's latency is its wall time
//! from reading the AIGER file to dropping the session; each metric
//! takes every job's fastest pass, so a pass cut short by the window
//! does not tilt the job mix. Each job starts from a trimmed heap: when
//! it could reuse the free memory its predecessor in the shuffled order
//! left behind, its fastest pass on `certify` moved by up to 40% from
//! one run of a seed to the next.
//!
//! A traced run alternates untraced and traced passes. Traced passes
//! time every call into a layer from here (the program itself is not
//! instrumented); per-layer figures are medians over traced passes.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sebmc::{BmcResult, Budget, Certificate, Semantics};
use sebmc_aiger::{aiger_to_model, parse_auto};
use sebmc_logic::rng::SplitMix64;
use sebmc_model::Trace;
use sebmc_service::EngineKind;
use sebmc_telemetry::{Progress, ProgressHandle, ProgressSink};

use crate::models::{BenchModel, Family, RecordedModel};
use crate::util::{median, ms, peak_rss_mib, quantile, release_free_heap, shuffle, MIB};
use crate::{more_setups, Args, Metrics, RunResult};

/// A job that runs longer than this ends Unknown and counts as failed;
/// every ladder job finishes in well under a second.
const JOB_TIMEOUT: Duration = Duration::from_secs(30);

/// `sessions`: jSAT-heavy jobs, unroll-heavy UNSAT sweeps, wide cones,
/// and the QBF engines on instances they decide (engine, model, largest
/// bound of the sweep).
fn sessions_ladder() -> Vec<(EngineKind, Family, usize)> {
    use EngineKind::{Jsat, QbfLinear, QbfSquaring, Unroll};
    vec![
        (Jsat, Family::Shift(16), 16),
        (Jsat, Family::Fifo(3), 8),
        (Jsat, Family::Recorded(RecordedModel::Random40), 12),
        (Jsat, Family::Recorded(RecordedModel::Dense32), 8),
        (Jsat, Family::TokenRing(64), 63),
        (Unroll, Family::Peterson, 24),
        (Unroll, Family::Fifo(5), 24),
        (Unroll, Family::Elevator(5), 31),
        (Unroll, Family::Recorded(RecordedModel::Dense32), 8),
        (Unroll, Family::TokenRing(64), 63),
        (QbfLinear, Family::Shift(4), 6),
        (QbfLinear, Family::Johnson(4), 6),
        (QbfLinear, Family::TokenRing(4), 6),
        (QbfLinear, Family::Fifo(1), 4),
        (QbfSquaring, Family::Fifo(1), 4),
        (QbfSquaring, Family::Traffic, 4),
    ]
}

/// `certify`: SAT-engine sweeps, mostly unreachable so the proof
/// checker does most of the certifying; two end in a replayed witness.
fn certify_ladder() -> Vec<(EngineKind, Family, usize)> {
    use EngineKind::{Jsat, Unroll};
    vec![
        (Unroll, Family::Peterson, 24),
        (Jsat, Family::Peterson, 60),
        (Unroll, Family::Fifo(5), 24),
        (Jsat, Family::Fifo(5), 8),
        (Unroll, Family::Elevator(5), 31),
        (Jsat, Family::Elevator(5), 31),
        (Unroll, Family::TokenRing(64), 63),
        (Jsat, Family::TokenRing(64), 63),
        (Unroll, Family::CounterEnable(5), 31),
        (Jsat, Family::CounterEnable(5), 31),
    ]
}

struct Job {
    name: String,
    engine: EngineKind,
    model: usize,
    max_bound: usize,
    expect: Option<usize>,
}

/// Builds every model once, writes its AIGER file, and attaches the
/// oracle's verdict to each job.
fn setup(certify: bool, dir: &Path) -> Result<(Vec<BenchModel>, Vec<Job>), String> {
    let ladder = if certify {
        certify_ladder()
    } else {
        sessions_ladder()
    };
    // One model per distinct family, its oracle sized for the largest
    // bound any job asks of it.
    let mut keys: Vec<String> = Vec::new();
    let mut families: Vec<(Family, usize)> = Vec::new();
    for (_, family, max_bound) in &ladder {
        let key = format!("{family:?}");
        if let Some(i) = keys.iter().position(|k| *k == key) {
            families[i].1 = families[i].1.max(*max_bound);
        } else {
            keys.push(key);
            families.push((family.clone(), *max_bound));
        }
    }
    let models = families
        .into_iter()
        .map(|(family, max_bound)| BenchModel::create(family, dir, max_bound))
        .collect::<Result<Vec<_>, _>>()?;
    let jobs = ladder
        .into_iter()
        .map(|(engine, family, max_bound)| {
            let key = format!("{family:?}");
            let idx = keys
                .iter()
                .position(|k| *k == key)
                .expect("collected above");
            let squaring = engine == EngineKind::QbfSquaring;
            let expect = models[idx]
                .expected_first(max_bound, |k| !squaring || k == 0 || k.is_power_of_two());
            Job {
                name: format!("{engine}/{}..={max_bound}", models[idx].model.name()),
                engine,
                model: idx,
                max_bound,
                expect,
            }
        })
        .collect();
    Ok((models, jobs))
}

/// Sums solver propagations from the progress samples of traced jobs.
#[derive(Default)]
struct PropagationCounter(AtomicU64);

impl ProgressSink for PropagationCounter {
    fn progress(&self, p: &Progress) {
        self.0.fetch_add(p.propagations, Ordering::Relaxed);
    }
}

/// One row of the per-layer table: self time, calls, bytes.
#[derive(Clone, Copy, Default)]
struct Row {
    ms: f64,
    calls: f64,
    bytes: f64,
}

/// What one traced pass measured.
#[derive(Default)]
struct PassTrace {
    wall_ms: f64,
    rows: BTreeMap<&'static str, Row>,
    metrics: Metrics,
}

impl PassTrace {
    fn span(&mut self, layer: &'static str, ms: f64, calls: usize, bytes: f64) {
        let row = self.rows.entry(layer).or_default();
        row.ms += ms;
        row.calls += calls as f64;
        row.bytes = row.bytes.max(bytes);
    }

    fn add(&mut self, name: &str, v: f64) {
        *self.metrics.entry(name.to_string()).or_default() += v;
    }

    fn max(&mut self, name: &str, v: f64) {
        let e = self.metrics.entry(name.to_string()).or_default();
        *e = e.max(v);
    }
}

fn engine_key(engine: EngineKind) -> &'static str {
    match engine {
        EngineKind::Jsat => "core.jsat",
        EngineKind::Unroll => "core.unroll",
        EngineKind::QbfLinear => "core.qbf_linear",
        EngineKind::QbfSquaring => "core.qbf_squaring",
    }
}

/// How a deepening sweep ended.
enum Sweep {
    Reached(usize, Option<Trace>),
    Unreachable,
    Unknown(String),
}

/// Deepens a session over the job's bounds; returns the verdict, the
/// summed `check_bound` time and calls, and the folded certificate.
fn sweep(
    session: &mut dyn sebmc::Session,
    max_bound: usize,
) -> (Sweep, Duration, usize, Option<Certificate>) {
    let mut in_bounds = Duration::ZERO;
    let mut calls = 0;
    let mut cert = None;
    for k in 0..=max_bound {
        if !session.supports_bound(k) {
            continue;
        }
        let t = Instant::now();
        let out = session.check_bound(k);
        in_bounds += t.elapsed();
        calls += 1;
        Certificate::fold_into(&mut cert, out.certificate.as_ref());
        match out.result {
            BmcResult::Unreachable => {}
            BmcResult::Reachable(w) => return (Sweep::Reached(k, w), in_bounds, calls, cert),
            BmcResult::Unknown(why) => return (Sweep::Unknown(why), in_bounds, calls, cert),
        }
    }
    (Sweep::Unreachable, in_bounds, calls, cert)
}

/// Runs one job; returns its latency in ms and whether it failed.
/// A verdict that contradicts the oracle is an error, never a failure.
fn run_job(
    job: &Job,
    models: &[BenchModel],
    certify: bool,
    trace: Option<&mut PassTrace>,
    props: &Arc<PropagationCounter>,
) -> Result<(f64, bool), String> {
    let bm = &models[job.model];
    let progress = if trace.is_some() {
        props.0.store(0, Ordering::Relaxed);
        ProgressHandle::new(Arc::clone(props) as Arc<dyn ProgressSink>)
    } else {
        ProgressHandle::none()
    };
    let budget = Budget {
        timeout: Some(JOB_TIMEOUT),
        certify,
        progress,
        ..Budget::default()
    };

    release_free_heap();
    let t0 = Instant::now();
    let bytes = std::fs::read(&bm.path).map_err(|e| format!("{}: {e}", bm.path.display()))?;
    let file = parse_auto(&bytes).map_err(|e| format!("{}: {e}", job.name))?;
    let model = aiger_to_model(&file, &job.name).map_err(|e| format!("{}: {e}", job.name))?;
    let t1 = Instant::now();
    let mut session = job.engine.build().start(&model, Semantics::Exactly, budget);
    let t2 = Instant::now();
    let (verdict, in_bounds, calls, cert) = sweep(session.as_mut(), job.max_bound);
    let t3 = Instant::now();
    let (decided, replayed) = match &verdict {
        Sweep::Reached(k, witness) => {
            if job.expect != Some(*k) {
                return Err(wrong(job, &format!("reachable at bound {k}")));
            }
            if let Some(w) = witness {
                if w.len() != *k {
                    return Err(wrong(
                        job,
                        &format!("{}-step witness at bound {k}", w.len()),
                    ));
                }
                bm.model
                    .check_trace(w)
                    .map_err(|e| wrong(job, &format!("witness fails replay: {e}")))?;
            }
            (true, witness.is_some())
        }
        Sweep::Unreachable => {
            if let Some(k) = job.expect {
                return Err(wrong(job, &format!("unreachable, expected bound {k}")));
            }
            (true, false)
        }
        Sweep::Unknown(_) => (false, false),
    };
    let t4 = Instant::now();
    let stats = session.cumulative_stats();
    drop(session);
    let t5 = Instant::now();
    let certified = !certify || cert.as_ref().is_some_and(Certificate::fully_certified);
    if let Sweep::Unknown(why) = &verdict {
        eprintln!("e2e-bench: {} ended unknown: {why}", job.name);
    } else if !certified {
        eprintln!("e2e-bench: {} decided but not fully certified", job.name);
    }
    let failed = !decided || !certified;

    if let Some(tr) = trace {
        let key = engine_key(job.engine);
        let sat = matches!(job.engine, EngineKind::Jsat | EngineKind::Unroll);
        tr.span("aiger", ms(t1 - t0), 1, bytes.len() as f64);
        tr.span("core.start", ms(t2 - t1), 1, 0.0);
        let solver_bytes = (stats.peak_formula_bytes + stats.peak_watch_bytes) as f64;
        tr.span(key, ms(in_bounds), calls, solver_bytes);
        if replayed {
            tr.span("model", ms(t4 - t3), 1, 0.0);
        }
        tr.span("core.drop", ms(t5 - t4), 1, 0.0);
        tr.add("aiger.parse_ms", ms(t1 - t0));
        tr.add("core.start_ms", ms(t2 - t1));
        tr.add("core.drop_ms", ms(t5 - t4));
        tr.add(&format!("{key}.bound_ms"), ms(in_bounds));
        tr.add("core.bounds_checked", stats.bounds_checked as f64);
        tr.add("core.encode_lits", stats.encode_lits as f64);
        tr.add("analysis.latches_swept", stats.latches_swept as f64);
        tr.add("analysis.coi_latches", stats.coi_latches as f64);
        if replayed {
            tr.add("model.check_trace_ms", ms(t4 - t3));
            tr.add("model.traces_checked", 1.0);
        }
        if sat {
            tr.add("sat.conflicts", stats.solver_effort as f64);
            tr.add("sat.propagations", props.0.load(Ordering::Relaxed) as f64);
            tr.max("sat.peak_arena_bytes", stats.peak_formula_bytes as f64);
            tr.max("sat.peak_watch_bytes", stats.peak_watch_bytes as f64);
        } else {
            tr.add("qbf.decisions", stats.solver_effort as f64);
            tr.max("qbf.peak_matrix_bytes", stats.peak_formula_bytes as f64);
        }
        let accounted = stats.peak_formula_bytes + stats.peak_watch_bytes + stats.peak_proof_bytes;
        tr.max("mem.accounted_mib", accounted as f64 / MIB);
        if let Some(c) = &cert {
            tr.add("proof.lemmas_checked", c.lemmas_checked as f64);
            tr.add("proof.stream_bytes", c.proof_bytes as f64);
            tr.max("proof.peak_active_clauses", c.peak_active_clauses as f64);
            tr.add("proof.bounds_attempted", c.bounds_attempted as f64);
            tr.add("proof.bounds_certified", c.bounds_certified as f64);
        }
        if certify {
            // The proof layer runs inside `check_bound`; its cost is
            // the certified sweep minus the same sweep uncertified.
            let t6 = Instant::now();
            let budget = Budget {
                timeout: Some(JOB_TIMEOUT),
                ..Budget::default()
            };
            let mut plain = job.engine.build().start(&model, Semantics::Exactly, budget);
            let (_, plain_bounds, _, _) = sweep(plain.as_mut(), job.max_bound);
            drop(plain);
            let overhead = ms(in_bounds) - ms(plain_bounds);
            tr.span("bench.uncertified_rerun", ms(t6.elapsed()), 1, 0.0);
            tr.span(
                "proof",
                overhead,
                0,
                cert.as_ref().map_or(0.0, |c| c.proof_bytes as f64),
            );
            tr.span(key, -overhead, 0, 0.0);
            tr.add("proof.overhead_ms", overhead);
        }
    }
    Ok((ms(t5 - t0), failed))
}

fn wrong(job: &Job, got: &str) -> String {
    let want = job.expect.map_or("unreachable".to_string(), |k| {
        format!("reachable at bound {k}")
    });
    format!(
        "wrong verdict: {} returned {got}, oracle says {want}",
        job.name
    )
}

/// A job's time in its fastest pass. Other tenants of the machine only
/// ever slow a pass down, so the fastest of several is the steadiest
/// estimate of the job's own cost.
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Throughput of the ladder at its fixed mix: jobs per second of the
/// summed per-job fastest latencies.
fn jobs_per_s(samples: &[Vec<f64>]) -> f64 {
    let total_ms: f64 = samples.iter().map(|s| fastest(s)).sum();
    samples.len() as f64 / (total_ms / 1e3)
}

pub fn run(args: &Args, certify: bool) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    let mut built = None;
    while more_setups(&setup_s) {
        let t = Instant::now();
        built = Some(setup(certify, &args.work_dir)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (models, jobs) = built.expect("set up at least once");

    let mut rng = SplitMix64::new(args.seed);
    let props = Arc::new(PropagationCounter::default());
    let mut plain: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut traced: Vec<Vec<f64>> = vec![Vec::new(); jobs.len()];
    let mut passes: Vec<PassTrace> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // A traced run needs one untraced and one traced pass at least.
    let min_passes = if args.trace { 2 } else { 1 };
    let window = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut pass = 0;
    while pass < min_passes || start.elapsed() < window {
        let is_traced = args.trace && pass % 2 == 1;
        let mut order: Vec<usize> = (0..jobs.len()).collect();
        shuffle(&mut order, &mut rng);
        let mut pt = is_traced.then(PassTrace::default);
        let pass_start = Instant::now();
        let mut complete = true;
        for &j in &order {
            if pass >= min_passes && start.elapsed() >= window {
                complete = false;
                break;
            }
            let (latency, job_failed) = run_job(&jobs[j], &models, certify, pt.as_mut(), &props)?;
            attempted += 1;
            failed += u64::from(job_failed);
            let bucket = if is_traced { &mut traced } else { &mut plain };
            bucket[j].push(latency);
        }
        if let (Some(mut pt), true) = (pt, complete) {
            pt.wall_ms = ms(pass_start.elapsed());
            passes.push(pt);
        }
        pass += 1;
    }

    let mut metrics = Metrics::new();
    let best: Vec<f64> = plain.iter().map(|s| fastest(s)).collect();
    metrics.insert("jobs_per_s".into(), jobs_per_s(&plain));
    metrics.insert("latency_p50_ms".into(), quantile(&best, 0.5));
    metrics.insert("latency_p95_ms".into(), quantile(&best, 0.95));
    let rss = peak_rss_mib("self")?;
    metrics.insert("peak_rss_mib".into(), rss);

    println!(
        "{:<36} {:>10} {:>10} {:>8}",
        "job", "fastest ms", "median ms", "passes"
    );
    for (job, s) in jobs.iter().zip(&plain) {
        println!(
            "{:<36} {:>10.2} {:>10.2} {:>8}",
            job.name,
            fastest(s),
            median(s),
            s.len()
        );
    }
    if args.trace {
        layer_metrics(&passes, &mut metrics, rss);
        metrics.insert(
            "bench.trace_delta_jobs_per_s".into(),
            jobs_per_s(&traced) - jobs_per_s(&plain),
        );
        print_layer_table(&passes);
    }
    Ok(RunResult {
        attempted,
        failed,
        metrics,
        setup_s,
        stamp: Vec::new(),
    })
}

/// Per-layer metrics: each is its median over the traced passes.
fn layer_metrics(passes: &[PassTrace], metrics: &mut Metrics, rss: f64) {
    let names: std::collections::BTreeSet<&String> =
        passes.iter().flat_map(|p| p.metrics.keys()).collect();
    for name in names {
        let per_pass: Vec<f64> = passes
            .iter()
            .map(|p| p.metrics.get(name).copied().unwrap_or(0.0))
            .collect();
        metrics.insert(name.clone(), median(&per_pass));
    }
    let attempted = metrics
        .get("proof.bounds_attempted")
        .copied()
        .unwrap_or(0.0);
    if attempted > 0.0 {
        let certified = metrics
            .get("proof.bounds_certified")
            .copied()
            .unwrap_or(0.0);
        metrics.insert("proof.certified_ratio".into(), certified / attempted);
    }
    metrics.remove("proof.bounds_certified");
    let accounted = metrics.get("mem.accounted_mib").copied().unwrap_or(0.0);
    metrics.insert("mem.unaccounted_mib".into(), rss - accounted);
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
    metrics.insert("bench.timed_wall_ms".into(), median(&walls));
    metrics.insert("bench.unattributed_ms".into(), unattributed_ms(passes));
}

/// The part of a traced pass's wall that no layer span covers (median
/// over passes).
fn unattributed_ms(passes: &[PassTrace]) -> f64 {
    let per_pass: Vec<f64> = passes
        .iter()
        .map(|p| p.wall_ms - p.rows.values().map(|r| r.ms).sum::<f64>())
        .collect();
    median(&per_pass)
}

fn print_layer_table(passes: &[PassTrace]) {
    let layers: std::collections::BTreeSet<&'static str> =
        passes.iter().flat_map(|p| p.rows.keys().copied()).collect();
    let wall = median(&passes.iter().map(|p| p.wall_ms).collect::<Vec<_>>());
    println!(
        "per-layer, median over {} traced passes (pass wall {wall:.1} ms)",
        passes.len()
    );
    println!(
        "{:<26} {:>12} {:>8} {:>10} {:>14}",
        "layer", "self ms", "share", "calls", "peak bytes"
    );
    for layer in layers {
        let col = |f: fn(&Row) -> f64| -> f64 {
            median(
                &passes
                    .iter()
                    .map(|p| p.rows.get(layer).map_or(0.0, f))
                    .collect::<Vec<_>>(),
            )
        };
        let self_ms = col(|r| r.ms);
        println!(
            "{layer:<26} {self_ms:>12.2} {:>7.1}% {:>10} {:>14}",
            100.0 * self_ms / wall,
            col(|r| r.calls),
            col(|r| r.bytes)
        );
    }
    let rest = unattributed_ms(passes);
    println!(
        "{:<26} {rest:>12.2} {:>7.1}%",
        "bench.unattributed",
        100.0 * rest / wall
    );
}
