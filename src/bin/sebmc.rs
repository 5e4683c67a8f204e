//! `sebmc` — command-line bounded model checker over AIGER circuits.
//!
//! The adoption path for a downstream user with real hardware designs:
//! point the tool at an `.aag`/`.aig` file, pick an engine and a bound,
//! get an HWMCC-style verdict and stimulus witness.
//!
//! ```text
//! sebmc <circuit.aag|circuit.aig> [--engine jsat|unroll|qbf-linear|qbf-squaring|k-induction]
//!       [--bound K] [--deepen] [--within] [--timeout-ms N] [--mem-mb N]
//!       [--certify] [--proof-out FILE] [--no-reduce] [--fault-plan PLAN]
//!       [--json] [--quiet]
//! sebmc batch [jobs.txt] [--suite small|paper] [--engines LIST] [--bound K]
//!       [--workers N] [--timeout-ms N] [--mem-mb N] [--max-job-mb N]
//!       [--max-total-mb N] [--retries N] [--backoff-ms N]
//!       [--attempt-timeout-ms N] [--deadline-ms N] [--fault-plan PLAN]
//!       [--within] [--certify] [--witness-dir DIR] [--proof-out DIR]
//!       [--no-reduce] [--json] [--quiet]
//! sebmc analyze <circuit.aag|circuit.aig|suite:NAME> [--json]
//! sebmc serve [--addr HOST:PORT] [--workers N] [--cache-mb N] [--no-cache]
//!       [--max-queue N] [--max-job-mb N] [--max-total-mb N] [--aging-ms N]
//!       [--witness-dir DIR] [--proof-out DIR] [--trace-out FILE] [--quiet]
//! sebmc client --addr HOST:PORT [JOBLINE ...] [--ping] [--stats]
//!       [--shutdown graceful|now] [--timeout-s N] [--quiet]
//! ```
//!
//! `sebmc batch` runs a whole *job list* on the multi-worker checking
//! service (`sebmc-service`): each job deepens one model through
//! bounds `0..=K` on one engine session, or — with several engines —
//! races the live sessions per bound (portfolio-level deepening).
//! Jobs come from a job file (see `sebmc_service::parse_job_file` for
//! the format) or from the built-in model suite (`--suite`, the
//! default when no file is given). With a job file, `--timeout-ms` and
//! `--mem-mb` are defaults for lines that set no limit of their own,
//! and `--within` applies to every job. `--json` prints the aggregated
//! `ServiceReport`; the text output is one line per job plus a
//! summary. Exit code: 0 when every job got a verdict or the sweep was
//! clean, 1 when any job ended `Unknown`, 2 for usage errors.
//!
//! * `--bound K` — the bound to check (with `--deepen`: the largest).
//! * `--deepen` — open **one** engine session and check bounds
//!   `0..=K`, reusing solver state between bounds, reporting the first
//!   reachable bound (ignored for `k-induction`, which deepens by
//!   construction).
//! * `--timeout-ms N` / `--mem-mb N` — the session budget: wall clock
//!   and a byte-based cap on the solver's clause database (`N` MiB).
//!   Malformed numbers exit 2 instead of silently running unlimited.
//! * `--certify` — machine-check every decided bound: SAT-backed
//!   engines stream a binary-DRAT proof through the built-in
//!   bounded-memory checker (Unsat bounds), witnesses are replayed
//!   through the model simulator (Sat bounds), and the verdict carries
//!   a certificate summary (`certificate` in `--json`, including the
//!   exact `proof_bytes`). In batch mode a *decided but uncertified*
//!   job fails the run (exit 1) — a certificate is part of the
//!   contract once requested.
//! * `--witness-dir DIR` (batch) — stream each reachable job's witness
//!   to `DIR/jobNNN_<name>.wit` (HWMCC stimulus format); the report
//!   keeps the path and length instead of the full trace.
//! * `--proof-out` — export the binary-DRAT proof stream. Single mode
//!   takes a *file* path and keeps it only when the verdict is
//!   `Unreachable` (otherwise the partial stream is removed); batch
//!   mode takes a *directory* and keeps `DIR/jobNNN_<name>.drat` for
//!   every single-engine job that sweeps to `Unreachable` (portfolio
//!   jobs skip export). Composes with `--certify`: the same stream is
//!   checked on the fly *and* written out.
//! * `--retries N` / `--backoff-ms N` / `--attempt-timeout-ms N` /
//!   `--deadline-ms N` (batch) — the fault-tolerance policy applied to
//!   every job: up to `N` retries after a crashed/stalled attempt
//!   (exponential backoff from `--backoff-ms`, deterministic jitter),
//!   a per-attempt wall-clock cap, and a whole-job deadline. Retries
//!   resume at the first undecided bound and run under whatever budget
//!   the earlier attempts left over.
//! * `--max-total-mb N` (batch) — aggregate memory budget across all
//!   running jobs; jobs that don't fit are deferred, then downgraded
//!   (portfolio → first engine), and a stalled queue sheds the
//!   youngest running job (`Unknown("shed: memory pressure")`).
//! * `--fault-plan PLAN` — deterministic fault injection for drills
//!   and tests (also read from `SEBMC_FAULT_PLAN` when the flag is
//!   absent). `PLAN` is `seed:<u64>` or a comma list of
//!   `kind@site:hit[:ms]`, e.g. `panic@engine:3,delay@solver:100:20`;
//!   sites are `solver|engine|service`, kinds
//!   `panic|delay|cancel|oom`. In batch mode every job gets its own
//!   fresh copy of the plan (independent hit counters).
//! * `--no-reduce` — skip the static model reduction
//!   (cone-of-influence, constant-latch sweeping, unused-input
//!   elimination) that otherwise runs before any engine encodes
//!   anything. With reduction on, witnesses are lifted back to the
//!   original circuit's variable order and the run stats report
//!   `latches_swept`/`coi_latches`/`inputs_removed`.
//! * `--json` — print one JSON object (verdict, bound, engine, run
//!   stats including `peak_formula_bytes` and `peak_proof_bytes`) on
//!   stdout instead of the HWMCC text output.
//!
//! `sebmc analyze` prints the static-analysis diagnostics report for
//! one circuit (or built-in suite model, `suite:<name>`) without
//! solving anything: per-root cone-of-influence sizes, constant
//! latches with their values, unused inputs, the latch fan-in
//! histogram and the transition-cone size before/after reduction.
//!
//! `sebmc serve` runs the checking service as an always-on daemon on a
//! TCP socket, speaking the line-delimited JSON protocol of
//! `docs/protocol.md`: clients submit jobs (the `JobSpec` JSON
//! encoding), the scheduler orders them by priority/deadline/fairness
//! with aging, decided verdicts land in a result cache (default
//! 64 MiB, `--no-cache` to disable) so duplicate submissions are
//! answered without solving, and `--max-queue` sheds overload with a
//! clean protocol error instead of queueing unboundedly. The first
//! stdout line is `sebmc: listening on <addr>` (scrape it when binding
//! port 0); the last is the run-summary JSON, printed after a client
//! sends `{"op":"shutdown"}` and the drain completes.
//!
//! `sebmc client` drives a running daemon: each positional argument is
//! one job-file line (same grammar as `sebmc batch` job files —
//! `suite:` models resolve and AIGER paths are read *on the server*),
//! submitted in order; every report is printed as one JSON line on
//! stdout as it arrives. `--ping` round-trips a health check first,
//! `--shutdown graceful|now` asks the daemon to stop after the
//! reports are in. Exit code: 0 when every job decided, 1 when any
//! verdict was `unknown` or a submission was refused, 2 for usage or
//! protocol errors.
//!
//! Output (without `--json`) follows the HWMCC witness convention:
//! * `1` — the bad state is reachable, followed by `b0`, the initial
//!   latch values, one input-vector line per step, and `.`;
//! * `0` — not reachable up to the bound (or proven safe for every
//!   bound by k-induction);
//! * `2` — unknown (budget exhausted / unsupported bound).
//!
//! Exit code: 10 for reachable, 20 for unreachable/safe, 0 for unknown
//! (matching common model-checker conventions), 2 for usage errors.

use std::process::ExitCode;
use std::time::Duration;

use sebmc_repro::aiger;
use sebmc_repro::bmc::{
    k_induction_run, BmcResult, Budget, Certificate, DeepeningPortfolio, InductionResult, RunStats,
    Semantics, SweepProgress,
};
use sebmc_repro::logic::fault::FaultPlan;
use sebmc_repro::logic::json::{obj, Json};
use sebmc_repro::model::{Model, Trace};
use sebmc_repro::service::{
    parse_job_file, serve_on, suite_jobs, EngineKind, JobSpec, ServiceConfig, ServiceHandle,
    WireClient,
};

struct Options {
    path: String,
    engine: String,
    bound: usize,
    deepen: bool,
    semantics: Semantics,
    budget: Budget,
    json: bool,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: sebmc <circuit.aag|circuit.aig> \
         [--engine jsat|unroll|qbf-linear|qbf-squaring|k-induction] \
         [--bound K] [--deepen] [--within] [--timeout-ms N] [--mem-mb N] \
         [--certify] [--proof-out FILE] [--no-reduce] [--fault-plan PLAN] \
         [--json] [--quiet]\n\
       sebmc analyze <circuit.aag|circuit.aig|suite:NAME> [--json]"
    );
    std::process::exit(2);
}

/// Parses a `--fault-plan` value (`seed:<u64>` or `kind@site:hit[:ms]`
/// commas); malformed plans are a usage error, not a silent no-op.
fn parse_fault_plan(spec: &str) -> FaultPlan {
    spec.parse().unwrap_or_else(|e| {
        eprintln!("sebmc: bad --fault-plan '{spec}': {e}");
        std::process::exit(2);
    })
}

/// The fault plan from `--fault-plan`, falling back to the
/// `SEBMC_FAULT_PLAN` environment variable (so drills can be switched
/// on without touching the command line).
fn effective_fault_plan(flag: Option<String>) -> FaultPlan {
    match flag.or_else(|| std::env::var("SEBMC_FAULT_PLAN").ok()) {
        Some(spec) if !spec.trim().is_empty() => parse_fault_plan(spec.trim()),
        _ => FaultPlan::none(),
    }
}

/// Parses the value of `--{flag}` as an integer; malformed or missing
/// values are a usage error (exit 2), never a silent "unlimited".
fn parse_num(flag: &str, value: Option<String>) -> u64 {
    let v = value.unwrap_or_else(|| {
        eprintln!("sebmc: --{flag} expects a value");
        std::process::exit(2);
    });
    v.parse().unwrap_or_else(|_| {
        eprintln!("sebmc: --{flag} expects a non-negative integer, got '{v}'");
        std::process::exit(2);
    })
}

/// Parses the value of `--{flag}`, a size in MiB, to bytes; a size
/// whose byte count overflows is a usage error like any other bad
/// number.
fn parse_mib(flag: &str, value: Option<String>) -> usize {
    let mb = parse_num(flag, value);
    mb.checked_mul(1024 * 1024)
        .and_then(|b| usize::try_from(b).ok())
        .unwrap_or_else(|| {
            eprintln!("sebmc: --{flag} {mb} overflows a byte count");
            std::process::exit(2);
        })
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1);
    let mut path = None;
    let mut engine = "jsat".to_string();
    let mut bound = 20usize;
    let mut deepen = false;
    let mut semantics = Semantics::Exactly;
    let mut timeout_ms = None;
    let mut mem_bytes = None;
    let mut certify = false;
    let mut proof_out: Option<String> = None;
    let mut fault_plan: Option<String> = None;
    let mut reduce = true;
    let mut json = false;
    let mut quiet = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--engine" => engine = args.next().unwrap_or_else(|| usage()),
            "--bound" => bound = parse_num("bound", args.next()) as usize,
            "--deepen" => deepen = true,
            "--within" => semantics = Semantics::Within,
            "--timeout-ms" => timeout_ms = Some(parse_num("timeout-ms", args.next())),
            "--mem-mb" => mem_bytes = Some(parse_mib("mem-mb", args.next())),
            "--certify" => certify = true,
            "--no-reduce" => reduce = false,
            "--proof-out" => proof_out = Some(args.next().unwrap_or_else(|| usage())),
            "--fault-plan" => fault_plan = Some(args.next().unwrap_or_else(|| usage())),
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => usage(),
            other if path.is_none() && !other.starts_with('-') => path = Some(other.to_string()),
            _ => usage(),
        }
    }
    Options {
        path: path.unwrap_or_else(|| usage()),
        engine,
        bound,
        deepen,
        semantics,
        budget: Budget {
            timeout: timeout_ms.map(Duration::from_millis),
            // Byte-based cap against the solver's exact clause-arena
            // accounting (headers included).
            max_formula_bytes: mem_bytes,
            certify,
            proof_out: proof_out.map(Into::into),
            fault: effective_fault_plan(fault_plan),
            reduce,
            ..Budget::default()
        },
        json,
        quiet,
    }
}

/// Prints an HWMCC-style stimulus witness (the same rendering the
/// service's `--witness-dir` files use).
fn print_witness(model: &Model, trace: &Trace) {
    print!("{}", trace.to_hwmcc());
    debug_assert_eq!(model.check_trace(trace), Ok(()));
}

/// One JSON object for machine consumers: verdict, bound, engine, the
/// full `RunStats` (cumulative over the session for `--deepen`) and —
/// under `--certify` — the certificate summary. The `stats` and
/// `certificate` objects are [`RunStats::to_json`] and
/// [`Certificate::to_json`], the schema of every batch job report.
fn print_json(
    engine: &str,
    semantics: Semantics,
    verdict: &str,
    reason: Option<&str>,
    bound: Option<usize>,
    stats: &RunStats,
    cert: Option<&Certificate>,
) {
    let json = obj(vec![
        ("verdict", verdict.into()),
        ("reason", reason.into()),
        ("bound", bound.into()),
        ("engine", engine.into()),
        ("semantics", semantics.to_string().into()),
        ("certificate", cert.map(Certificate::to_json).into()),
        ("stats", stats.to_json()),
    ]);
    println!("{json}");
}

/// Single-mode `--proof-out` retention: the exported DRAT stream is a
/// refutation only when the verdict is `Unreachable`; anything else
/// leaves no partial proof file behind.
fn retain_proof(opts: &Options, result: &BmcResult) {
    let Some(p) = &opts.budget.proof_out else {
        return;
    };
    if result.is_unreachable() {
        if !opts.quiet {
            eprintln!("sebmc: proof written to {}", p.display());
        }
    } else {
        let _ = std::fs::remove_file(p);
    }
}

fn exit_for(result: &BmcResult) -> ExitCode {
    match result {
        BmcResult::Reachable(_) => ExitCode::from(10),
        BmcResult::Unreachable => ExitCode::from(20),
        BmcResult::Unknown(_) => ExitCode::SUCCESS,
    }
}

/// Reports one verdict in the selected output format. `cert` is the
/// session-cumulative certificate (folded across bounds under
/// `--deepen`).
fn report(
    opts: &Options,
    model: &Model,
    bound: usize,
    result: &BmcResult,
    total: &RunStats,
    cert: Option<&Certificate>,
) -> ExitCode {
    if !opts.quiet {
        eprintln!(
            "sebmc: {} in {:?} (formula {} lits, peak {} B, effort {})",
            result,
            total.duration,
            total.encode_lits,
            total.peak_formula_bytes,
            total.solver_effort
        );
        if let Some(c) = cert {
            eprintln!(
                "sebmc: certificate: {} ({}/{} bounds, {} lemmas checked, {} proof B)",
                if c.fully_certified() {
                    "verified"
                } else {
                    "NOT fully certified"
                },
                c.bounds_certified,
                c.bounds_attempted,
                c.lemmas_checked,
                c.proof_bytes
            );
        } else if opts.budget.certify {
            eprintln!("sebmc: certificate: none (engine has no proof support)");
        }
    }
    if opts.json {
        let (verdict, reason) = match result {
            BmcResult::Reachable(_) => ("reachable", None),
            BmcResult::Unreachable => ("unreachable", None),
            BmcResult::Unknown(why) => ("unknown", Some(why.as_str())),
        };
        let decided_bound = match result {
            BmcResult::Unknown(_) => None,
            _ => Some(bound),
        };
        print_json(
            &opts.engine,
            opts.semantics,
            verdict,
            reason,
            decided_bound,
            total,
            cert,
        );
        return exit_for(result);
    }
    match result {
        BmcResult::Reachable(Some(trace)) => print_witness(model, trace),
        BmcResult::Reachable(None) => println!("1"),
        BmcResult::Unreachable => println!("0"),
        BmcResult::Unknown(_) => println!("2"),
    }
    exit_for(result)
}

fn run_k_induction(opts: &Options, model: &Model) -> ExitCode {
    let run = k_induction_run(model, opts.bound, &opts.budget);
    let stats = run.stats;
    let (result, detail): (BmcResult, String) = match run.result {
        InductionResult::Falsified { cex } => {
            let len = cex.len();
            if opts.json {
                print_json(
                    "k-induction",
                    opts.semantics,
                    "reachable",
                    None,
                    Some(len),
                    &stats,
                    None,
                );
            } else {
                print_witness(model, &cex);
            }
            return ExitCode::from(10);
        }
        InductionResult::Proved { k } => (
            BmcResult::Unreachable,
            format!("proved safe at induction depth {k}"),
        ),
        InductionResult::Exhausted { max_depth } => (
            BmcResult::Unknown(format!("inconclusive up to depth {max_depth}")),
            format!("inconclusive up to depth {max_depth}"),
        ),
        InductionResult::Unknown { reason } => (BmcResult::Unknown(reason.clone()), reason),
    };
    if !opts.quiet {
        eprintln!("sebmc: {detail}");
    }
    if opts.json {
        let (verdict, reason) = match &result {
            BmcResult::Unreachable => ("unreachable", Some(detail.as_str())),
            _ => ("unknown", Some(detail.as_str())),
        };
        print_json(
            "k-induction",
            opts.semantics,
            verdict,
            reason,
            None,
            &stats,
            None,
        );
    } else {
        match &result {
            BmcResult::Unreachable => println!("0"),
            _ => println!("2"),
        }
    }
    exit_for(&result)
}

fn batch_usage() -> ! {
    eprintln!(
        "usage: sebmc batch [jobs.txt] [--suite small|paper] [--engines LIST] \
         [--bound K] [--workers N] [--timeout-ms N] [--mem-mb N] [--max-job-mb N] \
         [--max-total-mb N] [--retries N] [--backoff-ms N] [--attempt-timeout-ms N] \
         [--deadline-ms N] [--fault-plan PLAN] [--within] [--certify] \
         [--witness-dir DIR] [--proof-out DIR] [--no-reduce] [--json] [--quiet]"
    );
    std::process::exit(2);
}

/// `sebmc batch`: drain a job list on the multi-worker checking
/// service and report the aggregate.
fn run_batch(args: Vec<String>) -> ExitCode {
    let mut file: Option<String> = None;
    let mut suite: Option<String> = None;
    let mut engines: Option<String> = None;
    let mut bound: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut timeout_ms: Option<u64> = None;
    let mut mem_bytes: Option<usize> = None;
    let mut max_job_bytes: Option<usize> = None;
    let mut max_total_bytes: Option<usize> = None;
    let mut retries: Option<u32> = None;
    let mut backoff_ms: Option<u64> = None;
    let mut attempt_timeout_ms: Option<u64> = None;
    let mut deadline_ms: Option<u64> = None;
    let mut fault_plan: Option<String> = None;
    let mut semantics = Semantics::Exactly;
    let mut certify = false;
    let mut reduce = true;
    let mut witness_dir: Option<String> = None;
    let mut proof_dir: Option<String> = None;
    let mut json = false;
    let mut quiet = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suite" => suite = Some(it.next().unwrap_or_else(|| batch_usage())),
            "--engines" => engines = Some(it.next().unwrap_or_else(|| batch_usage())),
            "--bound" => bound = Some(parse_num("bound", it.next()) as usize),
            "--workers" => workers = Some(parse_num("workers", it.next()) as usize),
            "--timeout-ms" => timeout_ms = Some(parse_num("timeout-ms", it.next())),
            "--mem-mb" => mem_bytes = Some(parse_mib("mem-mb", it.next())),
            "--max-job-mb" => max_job_bytes = Some(parse_mib("max-job-mb", it.next())),
            "--max-total-mb" => max_total_bytes = Some(parse_mib("max-total-mb", it.next())),
            "--retries" => {
                let n = parse_num("retries", it.next());
                retries = Some(u32::try_from(n).unwrap_or_else(|_| {
                    eprintln!("sebmc: --retries {n} is out of range");
                    std::process::exit(2);
                }));
            }
            "--backoff-ms" => backoff_ms = Some(parse_num("backoff-ms", it.next())),
            "--attempt-timeout-ms" => {
                attempt_timeout_ms = Some(parse_num("attempt-timeout-ms", it.next()));
            }
            "--deadline-ms" => deadline_ms = Some(parse_num("deadline-ms", it.next())),
            "--fault-plan" => fault_plan = Some(it.next().unwrap_or_else(|| batch_usage())),
            "--within" => semantics = Semantics::Within,
            "--certify" => certify = true,
            "--no-reduce" => reduce = false,
            "--witness-dir" => witness_dir = Some(it.next().unwrap_or_else(|| batch_usage())),
            "--proof-out" => proof_dir = Some(it.next().unwrap_or_else(|| batch_usage())),
            "--json" => json = true,
            "--quiet" => quiet = true,
            "--help" | "-h" => batch_usage(),
            other if file.is_none() && !other.starts_with('-') => file = Some(other.to_string()),
            _ => batch_usage(),
        }
    }
    let fault = effective_fault_plan(fault_plan);
    let jobs: Vec<sebmc_repro::service::Job> = if let Some(path) = &file {
        // Jobs-file lines carry their own models, engines and bounds;
        // silently ignoring the suite flags would mislead.
        if suite.is_some() || engines.is_some() || bound.is_some() {
            eprintln!(
                "sebmc: --suite/--engines/--bound configure the built-in suite \
                 and cannot be combined with a job file"
            );
            return ExitCode::from(2);
        }
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sebmc: cannot read job file '{path}': {e}");
                return ExitCode::from(2);
            }
        };
        match parse_job_file(&text) {
            Ok(jobs) => jobs
                .into_iter()
                .map(|mut j| {
                    // CLI budget flags are *defaults* for lines that
                    // set no limit of their own; --within applies to
                    // every job.
                    if j.budget.timeout.is_none() {
                        j.budget.timeout = timeout_ms.map(Duration::from_millis);
                    }
                    if j.budget.max_formula_bytes.is_none() {
                        j.budget.max_formula_bytes = mem_bytes;
                    }
                    if semantics == Semantics::Within {
                        j.semantics = Semantics::Within;
                    }
                    // --certify is a floor, not a default: it switches
                    // certification on for every job of the batch.
                    j.budget.certify |= certify;
                    j
                })
                .collect(),
            Err(e) => {
                eprintln!("sebmc: {e}");
                return ExitCode::from(2);
            }
        }
    } else {
        let kinds = match EngineKind::parse_list(engines.as_deref().unwrap_or("jsat,unroll")) {
            Ok(k) => k,
            Err(e) => {
                eprintln!("sebmc: {e}");
                return ExitCode::from(2);
            }
        };
        let small = match suite.as_deref().unwrap_or("small") {
            "small" => true,
            "paper" => false,
            other => {
                eprintln!("sebmc: unknown suite '{other}' (expected small|paper)");
                return ExitCode::from(2);
            }
        };
        let budget = Budget {
            timeout: timeout_ms.map(Duration::from_millis),
            max_formula_bytes: mem_bytes,
            certify,
            ..Budget::default()
        };
        suite_jobs(small, &kinds, bound.unwrap_or(6), &budget)
            .into_iter()
            .map(|j| j.with_semantics(semantics))
            .collect()
    };
    let mut jobs = jobs;
    for (i, j) in jobs.iter_mut().enumerate() {
        // CLI fault-tolerance flags apply per field, to every job of
        // the batch; jitter is seeded per job id so backoff schedules
        // are deterministic but decorrelated across the batch.
        if let Some(r) = retries {
            j.retry.max_attempts = r.saturating_add(1);
        }
        if let Some(ms) = backoff_ms {
            j.retry.backoff = Duration::from_millis(ms);
        }
        if let Some(ms) = attempt_timeout_ms {
            j.retry.attempt_timeout = Some(Duration::from_millis(ms));
        }
        if let Some(ms) = deadline_ms {
            j.retry.job_deadline = Some(Duration::from_millis(ms));
        }
        j.retry.jitter_seed ^= i as u64;
        // --no-reduce overrides every job: the flag exists to compare
        // against the unreduced oracle, which only works batch-wide.
        if !reduce {
            j.budget.reduce = false;
        }
        // Each job arms its own copy of the plan: independent hit
        // counters, so "panic at the 3rd engine call" means the 3rd
        // call of *that job*, whatever the scheduling order.
        if !fault.is_none() {
            j.budget.fault = fault.fresh_copy();
        }
    }
    let mut config = match workers {
        Some(w) => ServiceConfig::with_workers(w),
        None => ServiceConfig::default(),
    };
    config.max_job_bytes = max_job_bytes;
    config.max_total_bytes = max_total_bytes;
    config.witness_dir = witness_dir.map(Into::into);
    config.proof_dir = proof_dir.map(Into::into);
    if !quiet {
        eprintln!(
            "sebmc: batch of {} jobs on {} workers",
            jobs.len(),
            config.workers.max(1)
        );
    }
    // The certificate contract holds however certification was
    // requested — the --certify flag or a job-file `certify` option.
    let certify = certify || jobs.iter().any(|j| j.budget.certify);
    let report = ServiceHandle::run_batch(config, jobs);
    if !quiet {
        for j in &report.jobs {
            let (verdict, reason) = j.verdict_parts();
            eprintln!(
                "sebmc: [{:>3}] {:<20} {:<12} {} wait {:?} solve {:?} effort {}{}",
                j.job_id,
                j.name,
                verdict,
                match (j.bound, reason) {
                    (Some(b), _) => format!("bound {b}"),
                    (None, Some(r)) => format!("({r})"),
                    (None, None) => format!("0..={} swept", j.bounds_checked.saturating_sub(1)),
                },
                j.queue_wait,
                j.solve_time,
                j.stats.solver_effort,
                if j.attempts > 1 || j.quarantined {
                    format!(
                        " [attempts {}{}]",
                        j.attempts,
                        if j.quarantined { ", quarantined" } else { "" }
                    )
                } else {
                    String::new()
                },
            );
        }
        eprintln!(
            "sebmc: {} reachable / {} unreachable / {} unknown in {:?} ({:.2} jobs/s)",
            report.reachable,
            report.unreachable,
            report.unknown,
            report.wall,
            report.jobs_per_sec()
        );
        if report.jobs_retried
            + report.quarantined.len()
            + report.jobs_shed
            + report.jobs_downgraded
            > 0
        {
            eprintln!(
                "sebmc: fault tolerance: {} retried, {} quarantined, {} shed, {} downgraded",
                report.jobs_retried,
                report.quarantined.len(),
                report.jobs_shed,
                report.jobs_downgraded
            );
        }
        if certify {
            eprintln!(
                "sebmc: certified {}/{} decided jobs ({} proof B checked)",
                report.jobs_certified,
                report.jobs.len() - report.unknown,
                report.certificate.as_ref().map_or(0, |c| c.proof_bytes)
            );
        }
    }
    if json {
        println!("{}", report.to_json());
    }
    // Once certification is requested, a decided job without a
    // fully-certified certificate is a failure, exactly like an
    // Unknown verdict: the claim was made but not machine-checked.
    let uncertified = if certify {
        report
            .jobs
            .iter()
            .filter(|j| {
                !j.verdict.is_unknown()
                    && !j
                        .certificate
                        .as_ref()
                        .is_some_and(Certificate::fully_certified)
            })
            .count()
    } else {
        0
    };
    if uncertified > 0 && !quiet {
        eprintln!("sebmc: {uncertified} decided job(s) lack a full certificate");
    }
    if report.unknown > 0 || uncertified > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn serve_usage() -> ! {
    eprintln!(
        "usage: sebmc serve [--addr HOST:PORT] [--workers N] [--cache-mb N] \
         [--no-cache] [--max-queue N] [--max-job-mb N] [--max-total-mb N] \
         [--aging-ms N] [--witness-dir DIR] [--proof-out DIR] \
         [--trace-out FILE] [--quiet]"
    );
    std::process::exit(2);
}

/// `sebmc serve`: the always-on checking daemon (see the module docs).
fn run_serve(args: Vec<String>) -> ExitCode {
    let mut addr = "127.0.0.1:3935".to_string();
    let mut workers: Option<usize> = None;
    let mut cache_bytes: usize = 64 * 1024 * 1024;
    let mut no_cache = false;
    let mut max_queue: Option<usize> = Some(1024);
    let mut max_job_bytes: Option<usize> = None;
    let mut max_total_bytes: Option<usize> = None;
    let mut aging_ms: Option<u64> = None;
    let mut witness_dir: Option<String> = None;
    let mut proof_dir: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut quiet = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = it.next().unwrap_or_else(|| serve_usage()),
            "--workers" => workers = Some(parse_num("workers", it.next()) as usize),
            "--cache-mb" => cache_bytes = parse_mib("cache-mb", it.next()),
            "--no-cache" => no_cache = true,
            "--max-queue" => max_queue = Some(parse_num("max-queue", it.next()) as usize),
            "--max-job-mb" => max_job_bytes = Some(parse_mib("max-job-mb", it.next())),
            "--max-total-mb" => max_total_bytes = Some(parse_mib("max-total-mb", it.next())),
            "--aging-ms" => aging_ms = Some(parse_num("aging-ms", it.next())),
            "--witness-dir" => witness_dir = Some(it.next().unwrap_or_else(|| serve_usage())),
            "--proof-out" => proof_dir = Some(it.next().unwrap_or_else(|| serve_usage())),
            "--trace-out" => trace_out = Some(it.next().unwrap_or_else(|| serve_usage())),
            "--quiet" => quiet = true,
            "--help" | "-h" => serve_usage(),
            _ => serve_usage(),
        }
    }
    let listener = match std::net::TcpListener::bind(&addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("sebmc: cannot bind '{addr}': {e}");
            return ExitCode::from(2);
        }
    };
    let local = listener
        .local_addr()
        .map_or_else(|_| addr.clone(), |a| a.to_string());
    let mut config = match workers {
        Some(w) => ServiceConfig::with_workers(w),
        None => ServiceConfig::default(),
    };
    if !no_cache && cache_bytes > 0 {
        config.result_cache_bytes = Some(cache_bytes);
    }
    config.max_queue_depth = max_queue;
    config.max_job_bytes = max_job_bytes;
    config.max_total_bytes = max_total_bytes;
    config.witness_dir = witness_dir.map(Into::into);
    config.proof_dir = proof_dir.map(Into::into);
    if let Some(ms) = aging_ms {
        config.priority_aging = Duration::from_millis(ms);
    }
    let telemetry = match &trace_out {
        Some(path) => match sebmc_repro::telemetry::Telemetry::with_trace_file(path.as_ref()) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("sebmc: cannot open trace file '{path}': {e}");
                return ExitCode::from(2);
            }
        },
        None => sebmc_repro::telemetry::Telemetry::new(),
    };
    config = config.with_telemetry(std::sync::Arc::new(telemetry));
    if !quiet {
        eprintln!(
            "sebmc: serving on {local} with {} workers (cache {})",
            config.workers.max(1),
            config
                .result_cache_bytes
                .map_or("off".to_string(), |b| format!("{} MiB", b / (1024 * 1024)))
        );
    }
    // The scrape line: CI and scripts bind port 0 and read the real
    // address from here.
    println!("sebmc: listening on {local}");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    match serve_on(listener, config) {
        Ok(summary) => {
            println!("{}", summary.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sebmc: serve: {e}");
            ExitCode::from(1)
        }
    }
}

fn client_usage() -> ! {
    eprintln!(
        "usage: sebmc client --addr HOST:PORT [JOBLINE ...] [--ping] [--stats] \
         [--shutdown graceful|now] [--timeout-s N] [--quiet]\n\
         each JOBLINE is one job-file line, e.g. \
         'suite:token_ring4 jsat,unroll 6 priority=9'"
    );
    std::process::exit(2);
}

/// `sebmc client`: submit job lines to a running daemon and print the
/// report JSON lines as they arrive (see the module docs).
fn run_client(args: Vec<String>) -> ExitCode {
    let mut addr: Option<String> = None;
    let mut lines: Vec<String> = Vec::new();
    let mut ping = false;
    let mut stats = false;
    let mut shutdown: Option<String> = None;
    let mut timeout_s: u64 = 600;
    let mut quiet = false;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--addr" => addr = Some(it.next().unwrap_or_else(|| client_usage())),
            "--ping" => ping = true,
            "--stats" => stats = true,
            "--shutdown" => {
                let mode = it.next().unwrap_or_else(|| client_usage());
                if mode != "graceful" && mode != "now" {
                    eprintln!("sebmc: --shutdown expects graceful|now, got '{mode}'");
                    return ExitCode::from(2);
                }
                shutdown = Some(mode);
            }
            "--timeout-s" => timeout_s = parse_num("timeout-s", it.next()),
            "--quiet" => quiet = true,
            "--help" | "-h" => client_usage(),
            other if !other.starts_with('-') => lines.push(other.to_string()),
            _ => client_usage(),
        }
    }
    let Some(addr) = addr else { client_usage() };
    let mut wire = match WireClient::connect(&addr) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("sebmc: cannot connect to '{addr}': {e}");
            return ExitCode::from(2);
        }
    };
    if !quiet {
        eprintln!("sebmc: connected to {addr} ({})", wire.hello);
    }
    if ping {
        if let Err(e) = wire.ping() {
            eprintln!("sebmc: ping failed: {e}");
            return ExitCode::from(2);
        }
        if !quiet {
            eprintln!("sebmc: pong");
        }
    }
    let mut refused = false;
    let mut expected = 0usize;
    for line in &lines {
        let spec = match JobSpec::parse_line(line) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("sebmc: bad job line '{line}': {e}");
                return ExitCode::from(2);
            }
        };
        match wire.submit(&spec) {
            Err(e) => {
                eprintln!("sebmc: submit failed: {e}");
                return ExitCode::from(2);
            }
            Ok(Err(msg)) => {
                eprintln!("sebmc: submission refused: {msg}");
                refused = true;
            }
            Ok(Ok(id)) => {
                expected += 1;
                if !quiet {
                    eprintln!("sebmc: job {id} accepted");
                }
            }
        }
    }
    let mut unknown = 0usize;
    for _ in 0..expected {
        match wire.next_report(Some(Duration::from_secs(timeout_s))) {
            Err(e) => {
                eprintln!("sebmc: lost connection waiting for reports: {e}");
                return ExitCode::from(2);
            }
            Ok(None) => {
                eprintln!("sebmc: timed out waiting for reports after {timeout_s}s");
                return ExitCode::from(2);
            }
            Ok(Some(job)) => {
                if job.get("verdict").and_then(Json::as_str) == Some("unknown") {
                    unknown += 1;
                }
                println!("{job}");
            }
        }
    }
    if stats {
        match wire.stats() {
            Err(e) => {
                eprintln!("sebmc: stats request failed: {e}");
                return ExitCode::from(2);
            }
            Ok(snapshot) => println!("{snapshot}"),
        }
    }
    if let Some(mode) = shutdown {
        if let Err(e) = wire.shutdown(&mode) {
            eprintln!("sebmc: shutdown request failed: {e}");
            return ExitCode::from(2);
        }
        if !quiet {
            eprintln!("sebmc: server acknowledged {mode} shutdown");
        }
    }
    if refused || unknown > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

/// Loads a model from an AIGER path or a built-in suite name
/// (`suite:<name>`), exiting 2 on failure — shared by `analyze` and
/// potential future subcommands.
fn load_model(spec: &str) -> Model {
    if let Some(name) = spec.strip_prefix("suite:") {
        return sebmc_repro::service::suite_model(name).unwrap_or_else(|| {
            eprintln!("sebmc: no built-in suite model named '{name}'");
            std::process::exit(2);
        });
    }
    let bytes = std::fs::read(spec).unwrap_or_else(|e| {
        eprintln!("sebmc: cannot read '{spec}': {e}");
        std::process::exit(2);
    });
    let file = aiger::parse_auto(&bytes).unwrap_or_else(|e| {
        eprintln!("sebmc: {e}");
        std::process::exit(2);
    });
    aiger::aiger_to_model(&file, spec).unwrap_or_else(|e| {
        eprintln!("sebmc: {e}");
        std::process::exit(2);
    })
}

/// `sebmc analyze`: print the static-analysis diagnostics report for
/// one model, without solving anything. Exit code 0.
fn run_analyze(args: Vec<String>) -> ExitCode {
    let mut spec: Option<String> = None;
    let mut json = false;
    for a in args {
        match a.as_str() {
            "--json" => json = true,
            "--help" | "-h" => {
                eprintln!("usage: sebmc analyze <circuit.aag|circuit.aig|suite:NAME> [--json]");
                return ExitCode::from(2);
            }
            other if spec.is_none() && !other.starts_with('-') => spec = Some(other.to_string()),
            other => {
                eprintln!("sebmc: analyze: unexpected argument '{other}'");
                return ExitCode::from(2);
            }
        }
    }
    let Some(spec) = spec else {
        eprintln!("usage: sebmc analyze <circuit.aag|circuit.aig|suite:NAME> [--json]");
        return ExitCode::from(2);
    };
    let model = load_model(&spec);
    let analysis = sebmc_repro::analysis::analyze(&model);
    if json {
        println!("{}", analysis.to_json());
    } else {
        print!("{}", analysis.render(&model));
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // The `batch` and `analyze` subcommands have their own argument
    // grammars.
    let mut raw = std::env::args().skip(1).peekable();
    if raw.peek().map(String::as_str) == Some("batch") {
        raw.next();
        return run_batch(raw.collect());
    }
    if raw.peek().map(String::as_str) == Some("analyze") {
        raw.next();
        return run_analyze(raw.collect());
    }
    if raw.peek().map(String::as_str) == Some("serve") {
        raw.next();
        return run_serve(raw.collect());
    }
    if raw.peek().map(String::as_str) == Some("client") {
        raw.next();
        return run_client(raw.collect());
    }
    let mut opts = parse_args();
    let bytes = match std::fs::read(&opts.path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("sebmc: cannot read '{}': {e}", opts.path);
            return ExitCode::from(2);
        }
    };
    let file = match aiger::parse_auto(&bytes) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("sebmc: {e}");
            return ExitCode::from(2);
        }
    };
    let model = match aiger::aiger_to_model(&file, &opts.path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("sebmc: {e}");
            return ExitCode::from(2);
        }
    };
    if !opts.quiet {
        eprintln!(
            "sebmc: '{}' — {} latches, {} inputs, {} ANDs; engine {}, bound {}{} ({})",
            opts.path,
            model.num_state_vars(),
            model.num_inputs(),
            file.ands.len(),
            opts.engine,
            opts.bound,
            if opts.deepen { " (deepening)" } else { "" },
            opts.semantics
        );
    }

    if opts.engine == "k-induction" {
        if opts.budget.proof_out.take().is_some() && !opts.quiet {
            eprintln!("sebmc: --proof-out is not supported for k-induction; ignoring");
        }
        return run_k_induction(&opts, &model);
    }

    let engine = match EngineKind::parse(&opts.engine) {
        Ok(kind) => kind.build(),
        Err(e) => {
            eprintln!("sebmc: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.deepen {
        // Bounds 0..=K on one live session: solver state persists per
        // bound, and per-bound certificates fold into one summary.
        let mut p =
            DeepeningPortfolio::start(&model, opts.semantics, vec![engine], opts.budget.clone());
        let mut progress = SweepProgress::default();
        let result = p.sweep(&mut progress, opts.bound);
        if !opts.quiet {
            if let Some(k) = progress.bound {
                eprintln!("sebmc: first reachable at bound {k}");
            }
        }
        retain_proof(&opts, &result);
        let bound = progress.bound.unwrap_or(opts.bound);
        report(
            &opts,
            &model,
            bound,
            &result,
            &progress.stats,
            progress.cert.as_ref(),
        )
    } else {
        let mut session = engine.start(&model, opts.semantics, opts.budget.clone());
        let out = session.check_bound(opts.bound);
        retain_proof(&opts, &out.result);
        report(
            &opts,
            &model,
            opts.bound,
            &out.result,
            &session.cumulative_stats(),
            out.certificate.as_ref(),
        )
    }
}
