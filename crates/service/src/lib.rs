//! A multi-worker bounded-model-checking service over engine sessions.
//!
//! The paper's space-efficient encodings pay off at scale when *many*
//! instances and bounds are checked without re-encoding. This crate is
//! the driver that amortizes that state: a queue of [`Job`]s served by
//! the long-lived worker pool of a [`ServiceHandle`], each job attempt
//! one [`DeepeningPortfolio::sweep`] over live engine sessions,
//! deepened bound-by-bound.
//!
//! # Job lifecycle
//!
//! 1. **Submit** — [`ServiceHandle::submit`] enqueues a [`Job`] and
//!    returns its id; the queue-wait clock starts.
//! 2. **Admit** — when a worker picks the job up, admission control
//!    lowers the service's byte cap onto the job's budget:
//!    the session runs under
//!    `min(job.budget.max_formula_bytes, config.max_job_bytes)`, wired
//!    into the SAT arena's exact live-byte accounting. The service can
//!    only tighten a job's cap, never loosen it. Under
//!    [`ServiceConfig::max_total_bytes`], admission also *reserves*
//!    aggregate memory: jobs that would push the service past the cap
//!    are deferred, then downgraded (portfolio → first engine), and a
//!    persistently blocked queue sheds the youngest running job — see
//!    *Degradation* below.
//! 3. **Run** — one engine means one deepening [`Session`](sebmc::Session)
//!    over bounds `0..=max_bound`, on the worker's own thread; several
//!    engines mean **portfolio-level deepening**: every bound is raced
//!    across the live sessions on a child
//!    [`CancelToken`], the first decided verdict
//!    is shared and the losers — solver state intact — race again at
//!    the next bound. Bounds no engine supports are skipped, not
//!    failed. Each job runs under a **supervisor**: a panicking
//!    attempt is caught, recorded as a [`FailureReport`], and — under
//!    the job's [`RetryPolicy`] — retried with exponential backoff,
//!    *resuming at the first undecided bound* with only the wall-clock
//!    budget left over from earlier attempts. Jobs that exhaust every
//!    attempt are quarantined (reported, listed on
//!    [`ServiceReport::quarantined`]), never dropped.
//! 4. **Report** — every job ends in exactly one [`JobReport`]:
//!    reachable (with bound and witness), unreachable through
//!    `max_bound`, or `Unknown` (budget exhausted, cancelled, service
//!    cancelled, shed, quarantined, or unsupported-bound skips).
//!    Cancelled and budget-exhausted jobs are *reported*, never
//!    dropped. [`ServiceHandle::run_batch`] returns a [`ServiceReport`]
//!    aggregating all jobs (peaks maxed, effort summed, queue/solve
//!    wall-clock split).
//!
//! # Cancellation
//!
//! Three cooperative levels, all prompt (engines poll at their solver
//! safe points):
//!
//! * **Per-bound** (internal): each raced bound runs on a fresh child
//!   token so cancelling a bound's losers never kills their sessions.
//! * **Per-job**: the job's own [`Budget::cancel`](sebmc::Budget)
//!   token. Keep a clone before submitting; firing it aborts the job
//!   whether queued (reported `Unknown("cancelled")` without running)
//!   or mid-solve.
//! * **Whole-service**: [`ServiceConfig::cancel`]. Firing it stops
//!   every running job at its next safe point and fails the rest of
//!   the queue as `Unknown("service cancelled")`.
//!
//! The service fires only its own child tokens — a job's token is read,
//! never fired, so caller-held budgets stay reusable.
//!
//! # Degradation under memory pressure
//!
//! With [`ServiceConfig::max_total_bytes`] set, every admitted job
//! reserves its worst case (its per-session byte cap × its engine
//! count; an uncapped job reserves the whole service budget). A job
//! that does not fit is **deferred** in 2 ms steps; a portfolio job
//! still blocked after repeated deferrals is **downgraded** to its
//! first engine (shrinking its reservation); and when deferral has
//! clearly stalled, the service **sheds** the youngest running job —
//! its report says `Unknown("shed: memory pressure")`, it is counted
//! in [`ServiceReport::jobs_shed`], and the blocked job proceeds. The
//! whole ladder is deterministic: deferral counts, not wall clocks,
//! drive the transitions.
//!
//! # Fault injection
//!
//! A [`sebmc_logic::fault::FaultPlan`] on a job's
//! [`Budget`](sebmc::Budget) threads fault-injection safe points
//! through this stack: the service's per-attempt dispatch, every
//! engine `check_bound` entry, and the SAT solver's budget poll. The
//! supervisor/retry/shedding machinery above is tested by injecting
//! panics, stalls, spurious cancellations, and byte-budget exhaustion
//! at exact safe-point hits (see `tests/fault_injection.rs`).
//!
//! # Example
//!
//! ```
//! use sebmc_service::{EngineKind, Job, ServiceConfig, ServiceHandle};
//! use sebmc_model::builders::token_ring;
//!
//! let job = Job::new(token_ring(4), vec![EngineKind::Jsat, EngineKind::Unroll], 6);
//! let report = ServiceHandle::run_batch(ServiceConfig::with_workers(2), vec![job]);
//! assert_eq!(report.jobs.len(), 1);
//! assert!(report.jobs[0].verdict.is_reachable());
//! assert_eq!(report.jobs[0].bound, Some(3));
//! ```

#![forbid(unsafe_code)]

mod cache;
mod handle;
mod job;
mod protocol;
mod queue;
mod report;
pub mod serve;
mod spec;

pub use cache::{CacheKey, ResultCache};
pub use handle::{ServiceHandle, ShutdownMode, SubmitError};
pub use job::{
    parse_job_file, suite_jobs, suite_model, EngineKind, Job, RetryPolicy, DEFAULT_PRIORITY,
};
pub use protocol::{frames, LineEvent, LineReader, WireClient};
pub use report::{FailureReport, JobReport, ServiceReport};
pub use sebmc_telemetry::{MetricsRegistry, Telemetry, TraceSink};
pub use serve::{serve_on, ServeSummary};
pub use spec::JobSpec;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

use crate::queue::PendingJob;

use sebmc::{
    lift_verdict, truncate_panic_payload, BmcResult, CancelToken, DeepeningPortfolio, RunStats,
    SweepProgress,
};
use sebmc_logic::fault::{FaultSite, FaultVerdict};
use sebmc_model::Trace;

/// How often the service's cancellation bridge polls job/service
/// tokens while jobs are running.
pub(crate) const BRIDGE_POLL: Duration = Duration::from_millis(2);
/// How often a deferred job re-tries admission under memory pressure.
const DEFER_POLL: Duration = Duration::from_millis(2);
/// Deferrals before a blocked portfolio job is downgraded to its first
/// engine.
const DOWNGRADE_AFTER_DEFERRALS: usize = 25;
/// Deferrals before the service starts shedding the youngest running
/// job to unblock the queue.
const SHED_AFTER_DEFERRALS: usize = 100;
/// Deferral interval between repeated shed requests (a shed victim
/// needs a few polls to wind down and release its reservation).
const SHED_RETRY_EVERY: usize = 50;

/// Locks a mutex, recovering the data from a poisoned lock: a panic on
/// another worker must never cascade into this one.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Static configuration of a [`ServiceHandle`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads in the pool (clamped to at least 1).
    pub workers: usize,
    /// Service-wide per-job byte cap: admission control lowers it onto
    /// every session's `max_formula_bytes` (taking the `min` with the
    /// job's own cap). `None` means jobs run under their own caps only.
    pub max_job_bytes: Option<usize>,
    /// Service-wide *aggregate* byte budget: the sum of all running
    /// jobs' reservations (per-session cap × engine count; uncapped
    /// jobs reserve the whole budget) stays under it, via the
    /// defer → downgrade → shed ladder (see the crate docs). `None`
    /// disables aggregate accounting.
    pub max_total_bytes: Option<usize>,
    /// Witness streaming: when set, each reachable job's trace is
    /// written to `<dir>/jobNNN_<name>.wit` in the HWMCC stimulus
    /// format and the [`JobReport`] keeps only the path and length —
    /// the full in-memory [`Trace`] is dropped, so a large batch's
    /// report stays small. `None` keeps traces in memory as before.
    pub witness_dir: Option<PathBuf>,
    /// Proof export: when set, each *single-engine* job streams its
    /// binary-DRAT proof to `<dir>/jobNNN_<name>.drat`; the file is
    /// kept (and its path reported) only when the job sweeps to a
    /// clean `Unreachable` verdict. Portfolio jobs skip export — N
    /// racing sessions cannot share one proof file.
    pub proof_dir: Option<PathBuf>,
    /// The whole-service kill switch; keep a clone
    /// ([`CancelToken::clone`]) to stop the service from outside.
    pub cancel: CancelToken,
    /// Retry/deadline policy applied at submission to every job whose
    /// own policy is the default — per-job policies always win. `None`
    /// leaves default-policy jobs untouched.
    pub retry_defaults: Option<RetryPolicy>,
    /// Result-cache byte budget: decided verdicts are cached keyed on
    /// `(model fingerprint, semantics, bound, certify, reduce)` and
    /// duplicate submissions are answered without solving (see
    /// [`ResultCache`]). `None` disables the cache (the batch-mode
    /// default; `sebmc serve` enables it).
    pub result_cache_bytes: Option<usize>,
    /// Queue-depth cap for overload shedding: submissions beyond this
    /// many *pending* (not yet running) jobs are rejected with
    /// [`SubmitError::Overloaded`] instead of queued. `None` accepts
    /// unboundedly.
    pub max_queue_depth: Option<usize>,
    /// Priority aging interval: a waiting job gains one effective
    /// priority level (toward the maximum of 9) per this much queue
    /// wait, so low-priority jobs cannot starve behind a stream of
    /// high-priority traffic.
    pub priority_aging: Duration,
    /// Shared telemetry: metrics counters at every queue/cache/worker
    /// transition, optional JSONL span tracing, and solver progress
    /// sinks installed on every attempt's budget. `None` (the default)
    /// records nothing — every instrumentation site is one `Option`
    /// branch.
    pub telemetry: Option<Arc<Telemetry>>,
}

/// Default [`ServiceConfig::priority_aging`]: one level per 250 ms
/// waited, so a priority-0 job outranks everything within ~2.5 s.
pub const DEFAULT_PRIORITY_AGING: Duration = Duration::from_millis(250);

impl ServiceConfig {
    /// A config with the given pool size and no service byte cap.
    pub fn with_workers(workers: usize) -> Self {
        ServiceConfig {
            workers,
            max_job_bytes: None,
            max_total_bytes: None,
            witness_dir: None,
            proof_dir: None,
            cancel: CancelToken::new(),
            retry_defaults: None,
            result_cache_bytes: None,
            max_queue_depth: None,
            priority_aging: DEFAULT_PRIORITY_AGING,
            telemetry: None,
        }
    }

    /// Returns `self` with the service-wide byte cap set.
    pub fn with_max_job_bytes(mut self, bytes: usize) -> Self {
        self.max_job_bytes = Some(bytes);
        self
    }

    /// Returns `self` with the aggregate memory budget set.
    pub fn with_max_total_bytes(mut self, bytes: usize) -> Self {
        self.max_total_bytes = Some(bytes);
        self
    }

    /// Returns `self` streaming witnesses into `dir` (created on first
    /// use).
    pub fn with_witness_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.witness_dir = Some(dir.into());
        self
    }

    /// Returns `self` exporting DRAT proofs into `dir` (created on
    /// first use).
    pub fn with_proof_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.proof_dir = Some(dir.into());
        self
    }

    /// Returns `self` with the given whole-service cancel token (so
    /// callers stop reaching into the `cancel` field to share one).
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Returns `self` applying `policy` to every submitted job whose
    /// retry policy is still the default.
    pub fn with_retry_defaults(mut self, policy: RetryPolicy) -> Self {
        self.retry_defaults = Some(policy);
        self
    }

    /// Returns `self` with a result cache of the given byte budget.
    pub fn with_result_cache_bytes(mut self, bytes: usize) -> Self {
        self.result_cache_bytes = Some(bytes);
        self
    }

    /// Returns `self` rejecting submissions once this many jobs are
    /// pending.
    pub fn with_max_queue_depth(mut self, depth: usize) -> Self {
        self.max_queue_depth = Some(depth);
        self
    }

    /// Returns `self` with the given priority aging interval
    /// (`Duration::ZERO` disables aging).
    pub fn with_priority_aging(mut self, aging: Duration) -> Self {
        self.priority_aging = aging;
        self
    }

    /// Returns `self` recording into the given telemetry instance.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig::with_workers(
            std::thread::available_parallelism().map_or(2, |n| n.get().min(4)),
        )
    }
}

/// A running attempt's tokens, registered with the cancellation
/// bridge: fire `child` when the job's or the service's token fires,
/// or when the memory governor sheds this job.
pub(crate) struct BridgeSlot {
    pub(crate) job_token: CancelToken,
    pub(crate) child: CancelToken,
    pub(crate) shed: Arc<AtomicBool>,
}

/// Aggregate-memory admission control (see the crate docs).
///
/// Admission is **FIFO in pickup order**: when the queue hands a job
/// to a worker it is *enrolled* here with a monotonically increasing
/// ticket, and a job may only reserve memory once every
/// earlier-ticketed job has been admitted (or has finished). That
/// prevents small late jobs from starving a large early one forever —
/// and makes the defer/downgrade/shed ladder deterministic, because
/// the set of jobs holding reservations at any admission decision
/// does not depend on worker scheduling. With all-default priorities
/// the pickup order *is* the submission order, so the PR 6 fault
/// drills keep their exact semantics; with mixed priorities the gate
/// follows the scheduler's order instead of penalising a
/// queue-jumping job.
///
/// With no `max_total` every call is a cheap no-op: jobs are admitted
/// unconditionally and nothing is tracked.
pub(crate) struct MemGovernor {
    max_total: Option<usize>,
    state: Mutex<GovState>,
}

#[derive(Default)]
struct GovState {
    reserved: usize,
    seq: u64,
    /// Picked-up jobs not yet admitted (nor finished), as
    /// `(ticket, job_id)`: the FIFO gate.
    waiting: Vec<(u64, usize)>,
    running: Vec<RunningJob>,
}

struct RunningJob {
    job_id: usize,
    seq: u64,
    reservation: usize,
    shed: Arc<AtomicBool>,
}

impl MemGovernor {
    pub(crate) fn new(max_total: Option<usize>) -> Self {
        MemGovernor {
            max_total,
            state: Mutex::new(GovState::default()),
        }
    }

    /// Registers a picked-up job under its pickup ticket. Called under
    /// the queue lock (so tickets and pickup order agree) before the
    /// job's worker first calls [`MemGovernor::try_admit`].
    pub(crate) fn enroll(&self, job_id: usize, ticket: u64) {
        if self.max_total.is_none() {
            return;
        }
        lock_unpoisoned(&self.state).waiting.push((ticket, job_id));
    }

    /// Reserves `reservation` bytes for the job if it holds the oldest
    /// still-waiting ticket and the memory fits (or nothing else is
    /// running — a service that admits nothing is worse than one that
    /// briefly over-commits a clamped job).
    fn try_admit(&self, job_id: usize, reservation: usize, shed: &Arc<AtomicBool>) -> bool {
        let Some(cap) = self.max_total else {
            return true;
        };
        let mut st = lock_unpoisoned(&self.state);
        if st.waiting.iter().min().map(|&(_, id)| id) != Some(job_id) {
            return false;
        }
        if st.reserved.saturating_add(reservation) <= cap || st.running.is_empty() {
            st.waiting.retain(|&(_, id)| id != job_id);
            st.reserved = st.reserved.saturating_add(reservation);
            st.seq += 1;
            let seq = st.seq;
            st.running.push(RunningJob {
                job_id,
                seq,
                reservation,
                shed: shed.clone(),
            });
            true
        } else {
            false
        }
    }

    /// Retires the job: drops its reservation and removes it from the
    /// FIFO gate (idempotent; also correct for jobs that aborted
    /// before ever being admitted).
    pub(crate) fn release(&self, job_id: usize) {
        if self.max_total.is_none() {
            return;
        }
        let mut st = lock_unpoisoned(&self.state);
        st.waiting.retain(|&(_, id)| id != job_id);
        if let Some(pos) = st.running.iter().position(|r| r.job_id == job_id) {
            let r = st.running.swap_remove(pos);
            st.reserved = st.reserved.saturating_sub(r.reservation);
        }
    }

    /// Last-resort load shedding: flags the *youngest* running job
    /// (highest admission sequence) not already being shed. The bridge
    /// fires its child token; its report becomes
    /// `Unknown("shed: memory pressure")`.
    pub(crate) fn shed_youngest(&self) -> bool {
        let st = lock_unpoisoned(&self.state);
        let victim = st
            .running
            .iter()
            .filter(|r| !r.shed.load(Ordering::Relaxed))
            .max_by_key(|r| r.seq);
        match victim {
            Some(v) => {
                v.shed.store(true, Ordering::Relaxed);
                true
            }
            None => false,
        }
    }
}

/// A report for a job that never solved anything (cancelled while
/// queued or deferred, or lost to a service-layer panic): solve
/// wall-clock is zero by construction.
#[allow(clippy::too_many_arguments)]
pub(crate) fn abort_report(
    id: usize,
    name: String,
    model: String,
    engines: Vec<&'static str>,
    byte_cap: Option<usize>,
    reason: &str,
    queue_wait: Duration,
    deferrals: usize,
    priority: u8,
) -> JobReport {
    JobReport {
        job_id: id,
        name,
        model,
        engines,
        verdict: BmcResult::Unknown(reason.to_string()),
        bound: None,
        bounds_checked: 0,
        bounds_skipped: 0,
        winners: Vec::new(),
        byte_cap,
        stats: RunStats::default(),
        certificate: None,
        witness_path: None,
        witness_steps: None,
        queue_wait,
        solve_time: Duration::ZERO,
        attempts: 0,
        resumed_from: None,
        deferrals,
        downgraded: false,
        quarantined: false,
        failures: Vec::new(),
        proof_path: None,
        cached: false,
        priority,
    }
}

fn aborted(q: &PendingJob, reason: &str, queue_wait: Duration, deferrals: usize) -> JobReport {
    abort_report(
        q.id,
        q.job.name.clone(),
        q.job.model.name().to_string(),
        q.job.engines.iter().map(|e| e.build().name()).collect(),
        q.job.budget.max_formula_bytes,
        reason,
        queue_wait,
        deferrals,
        q.job.priority,
    )
}

/// Sanitizes a job name into a filename fragment.
fn sanitize_name(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect()
}

/// Streams a reachable job's witness into the configured directory,
/// returning the file path. The file holds the HWMCC stimulus format
/// ([`Trace::to_hwmcc`]).
fn write_witness(dir: &Path, id: usize, name: &str, trace: &Trace) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("job{id:03}_{}.wit", sanitize_name(name)));
    std::fs::write(&path, trace.to_hwmcc())?;
    Ok(path.to_string_lossy().into_owned())
}

/// The DRAT export path for a job under the service proof directory.
fn proof_file_path(dir: &Path, id: usize, name: &str) -> PathBuf {
    dir.join(format!("job{id:03}_{}.drat", sanitize_name(name)))
}

/// How one attempt's outcome steers the supervisor.
enum AttemptClass {
    /// The job is done; report this verdict.
    Final(BmcResult),
    /// The attempt failed for a recoverable reason; retry if the
    /// policy allows, quarantine otherwise.
    Retry(String),
}

/// Runs one admitted job to completion — admission, supervised
/// attempts, retry/backoff, and report assembly — on the calling
/// worker thread.
pub(crate) fn process_job(
    mut q: PendingJob,
    config: &ServiceConfig,
    slot: &Mutex<Option<BridgeSlot>>,
    governor: &MemGovernor,
    queue_wait: Duration,
) -> JobReport {
    // Cancelled while queued: reported (queue wait included), never
    // run, solve wall-clock zero.
    if config.cancel.is_cancelled() {
        return aborted(&q, "service cancelled", queue_wait, 0);
    }
    if q.job.budget.cancel.is_cancelled() {
        return aborted(&q, "cancelled", queue_wait, 0);
    }

    let run_start = Instant::now();
    // Outside the per-attempt panic containment: a retry resumes the
    // sweep at `progress.next_bound`, keeping every decided bound.
    let mut progress = SweepProgress::default();
    // Admission-time static reduction: runs once per job, so every
    // engine of a race and every retry shares one reduced model. The
    // attempts' budgets carry `reduce = false` so no session re-runs
    // the analysis on the already-reduced model; the winning witness
    // is lifted back below.
    let mut recon: Option<sebmc_analysis::Reconstruction> = None;
    if q.job.budget.reduce {
        q.job.budget.reduce = false;
        if let Some(red) = sebmc_analysis::reduce(&q.job.model) {
            progress.stats.latches_swept = red.analysis.latches_swept();
            progress.stats.coi_latches = red.analysis.coi_latches;
            progress.stats.inputs_removed = red.analysis.inputs_removed();
            q.job.model = red.model;
            recon = Some(red.recon);
        }
    }
    let mut engines = q.job.engines.clone();
    // Admission control: the service cap can only tighten the job's.
    let mut byte_cap = match (q.job.budget.max_formula_bytes, config.max_job_bytes) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    };

    // --- Aggregate-memory admission: defer → downgrade → shed. ------
    let shed = Arc::new(AtomicBool::new(false));
    let mut deferrals = 0usize;
    let mut downgraded = false;
    if let Some(total) = governor.max_total {
        if !engines.is_empty() {
            let per_session = |cap: Option<usize>| cap.unwrap_or(total).min(total);
            let mut reservation = per_session(byte_cap).saturating_mul(engines.len());
            if reservation > total {
                // Even alone this job over-reserves the service: clamp
                // it up front instead of deferring forever.
                if engines.len() > 1 {
                    engines.truncate(1);
                    downgraded = true;
                }
                byte_cap = Some(per_session(byte_cap));
                reservation = per_session(byte_cap);
            }
            loop {
                if config.cancel.is_cancelled() {
                    return aborted(&q, "service cancelled", queue_wait, deferrals);
                }
                if q.job.budget.cancel.is_cancelled() {
                    return aborted(&q, "cancelled", queue_wait, deferrals);
                }
                if governor.try_admit(q.id, reservation, &shed) {
                    break;
                }
                deferrals += 1;
                if !downgraded && deferrals >= DOWNGRADE_AFTER_DEFERRALS && engines.len() > 1 {
                    engines.truncate(1);
                    downgraded = true;
                    reservation = per_session(byte_cap);
                    continue; // re-try admission with the smaller ask
                }
                if deferrals >= SHED_AFTER_DEFERRALS
                    && (deferrals - SHED_AFTER_DEFERRALS).is_multiple_of(SHED_RETRY_EVERY)
                {
                    governor.shed_youngest();
                }
                thread::sleep(DEFER_POLL);
            }
        }
    }

    let PendingJob { id, job, .. } = q;
    if engines.is_empty() {
        let mut r = abort_report(
            id,
            job.name.clone(),
            job.model.name().to_string(),
            Vec::new(),
            byte_cap,
            "no engines selected",
            queue_wait,
            deferrals,
            job.priority,
        );
        r.attempts = 1;
        return r;
    }
    let engine_names: Vec<&'static str> = engines.iter().map(|e| e.build().name()).collect();

    // --- Supervised attempts. ----------------------------------------
    let policy = job.retry.clone();
    let max_attempts = policy.max_attempts.max(1);
    let orig_timeout = job.budget.timeout;
    let job_deadline = policy.job_deadline.map(|d| run_start + d);
    let proof_out: Option<PathBuf> = match (&config.proof_dir, engines.len()) {
        (Some(dir), 1) => {
            std::fs::create_dir_all(dir).ok();
            Some(proof_file_path(dir, id, &job.name))
        }
        _ => None,
    };

    let mut failures: Vec<FailureReport> = Vec::new();
    let mut consumed = Duration::ZERO;
    let mut resumed_from: Option<usize> = None;
    let mut quarantined = false;
    let mut attempt: u32 = 0;

    let verdict: BmcResult = loop {
        attempt += 1;
        if attempt > 1 {
            resumed_from = Some(progress.next_bound);
        }
        // Cancellations/sheds that land between attempts are final.
        if shed.load(Ordering::Relaxed) {
            if let Some(t) = &config.telemetry {
                t.trace("shed", &[("job", id.into()), ("attempt", attempt.into())]);
            }
            break BmcResult::Unknown("shed: memory pressure".into());
        }
        if config.cancel.is_cancelled() {
            break BmcResult::Unknown("service cancelled".into());
        }
        if job.budget.cancel.is_cancelled() {
            break BmcResult::Unknown("cancelled".into());
        }
        // The attempt runs under whatever the *original* budget has
        // left: retries carry forward consumed wall clock, so a job's
        // attempts can never outspend the budget it was submitted
        // with.
        let remaining = orig_timeout.map(|t| t.saturating_sub(consumed));
        if remaining == Some(Duration::ZERO) {
            break BmcResult::Unknown("budget exhausted".into());
        }
        let deadline_left = job_deadline.map(|d| d.saturating_duration_since(Instant::now()));
        if deadline_left == Some(Duration::ZERO) {
            break BmcResult::Unknown("deadline exceeded".into());
        }
        let mut attempt_timeout = remaining;
        // Which constraint clips the attempt decides whether running
        // into it is retryable (per-attempt cap) or final (whole-job
        // deadline).
        let mut attempt_clipped = false;
        let mut deadline_clipped = false;
        if let Some(at) = policy.attempt_timeout {
            if attempt_timeout.is_none_or(|r| at < r) {
                attempt_timeout = Some(at);
                attempt_clipped = true;
            }
        }
        if let Some(left) = deadline_left {
            if attempt_timeout.is_none_or(|r| left < r) {
                attempt_timeout = Some(left);
                attempt_clipped = false;
                deadline_clipped = true;
            }
        }

        let child = CancelToken::new();
        *lock_unpoisoned(slot) = Some(BridgeSlot {
            job_token: job.budget.cancel_token(),
            child: child.clone(),
            shed: shed.clone(),
        });
        let mut budget = job.budget.clone().with_cancel(child.clone());
        budget.max_formula_bytes = byte_cap;
        budget.timeout = attempt_timeout;
        budget.proof_out = proof_out.clone();
        // The service attempt dispatch is the third progress safe
        // point: every attempt's budget reports into the shared
        // telemetry (solver polls, engine bound transitions).
        if let Some(t) = &config.telemetry {
            budget.progress = t.progress_handle();
            t.trace(
                "attempt_start",
                &[
                    ("job", id.into()),
                    ("attempt", attempt.into()),
                    ("resume_bound", progress.next_bound.into()),
                ],
            );
        }

        let attempt_start = Instant::now();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // The service-layer fault-injection safe point: injected
            // panics land inside this catch and become retryable
            // failures, exactly like organic ones.
            let flag = budget.cancel.flag();
            if budget.fault.hit(FaultSite::Service, Some(&*flag)) == FaultVerdict::Oom {
                return BmcResult::Unknown("budget exhausted".into());
            }
            let built = engines.iter().map(EngineKind::build).collect();
            DeepeningPortfolio::start(&job.model, job.semantics, built, budget.clone())
                .sweep(&mut progress, job.max_bound)
        }));
        *lock_unpoisoned(slot) = None;
        let attempt_elapsed = attempt_start.elapsed();
        consumed += attempt_elapsed;

        let class = match run {
            Ok(BmcResult::Reachable(t)) => AttemptClass::Final(BmcResult::Reachable(t)),
            Ok(BmcResult::Unreachable) => AttemptClass::Final(BmcResult::Unreachable),
            Ok(BmcResult::Unknown(r)) => classify_unknown(
                r,
                &shed,
                config,
                &job,
                attempt_clipped,
                deadline_clipped,
                attempt_elapsed,
                attempt_timeout,
            ),
            Err(payload) => AttemptClass::Retry(format!(
                "worker panicked: {}",
                truncate_panic_payload(payload.as_ref())
            )),
        };
        match class {
            AttemptClass::Final(v) => {
                if let Some(t) = &config.telemetry {
                    t.trace(
                        "attempt_end",
                        &[
                            ("job", id.into()),
                            ("attempt", attempt.into()),
                            ("outcome", "final".into()),
                        ],
                    );
                }
                break v;
            }
            AttemptClass::Retry(reason) => {
                if let Some(t) = &config.telemetry {
                    t.trace(
                        "attempt_end",
                        &[
                            ("job", id.into()),
                            ("attempt", attempt.into()),
                            ("outcome", "retry".into()),
                            ("reason", reason.as_str().into()),
                        ],
                    );
                }
                failures.push(FailureReport {
                    attempt,
                    bound_reached: progress.last_decided(),
                    reason: reason.clone(),
                    stats: progress.stats.clone(),
                });
                if attempt >= max_attempts {
                    // The poison list: every attempt failed. The last
                    // failure's reason becomes the verdict; nothing is
                    // dropped.
                    quarantined = true;
                    if let Some(t) = &config.telemetry {
                        t.trace(
                            "quarantine",
                            &[
                                ("job", id.into()),
                                ("attempts", attempt.into()),
                                ("reason", reason.as_str().into()),
                            ],
                        );
                    }
                    break BmcResult::Unknown(reason);
                }
                // Exponential, jittered, *interruptible* backoff.
                let pause = policy.backoff_before(attempt);
                if let Some(t) = &config.telemetry {
                    t.trace(
                        "backoff",
                        &[
                            ("job", id.into()),
                            ("attempt", attempt.into()),
                            ("ms", (pause.as_millis() as u64).into()),
                        ],
                    );
                }
                let end = Instant::now() + pause;
                loop {
                    if job.budget.cancel.is_cancelled()
                        || config.cancel.is_cancelled()
                        || shed.load(Ordering::Relaxed)
                    {
                        break;
                    }
                    let left = end.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        break;
                    }
                    thread::sleep(left.min(BRIDGE_POLL));
                }
            }
        }
    };
    // Lift the winning witness from the reduced model back to the
    // original variable order before anything downstream (witness
    // streaming, certification replay) sees it.
    let mut verdict = match &recon {
        Some(recon) => lift_verdict(recon, verdict),
        None => verdict,
    };

    // Witness streaming: persist the trace and drop it from the
    // report. On a write error the in-memory trace is kept — a verdict
    // is never silently stripped of its evidence.
    let mut witness_path = None;
    let mut witness_steps = None;
    if let Some(dir) = &config.witness_dir {
        if let BmcResult::Reachable(slot @ Some(_)) = &mut verdict {
            let trace = slot.as_ref().expect("matched Some");
            if let Ok(path) = write_witness(dir, id, &job.name, trace) {
                witness_steps = Some(trace.len());
                witness_path = Some(path);
                *slot = None;
            }
        }
    }

    // Proof retention: keep the exported DRAT stream only for a clean
    // Unreachable sweep (the "Unsat-certified" case); anything else
    // leaves no partial proof file behind.
    let mut proof_path = None;
    if let Some(p) = &proof_out {
        if verdict.is_unreachable() && p.exists() {
            proof_path = Some(p.to_string_lossy().into_owned());
        } else {
            let _ = std::fs::remove_file(p);
        }
    }

    JobReport {
        job_id: id,
        name: job.name.clone(),
        model: job.model.name().to_string(),
        engines: engine_names,
        verdict,
        bound: progress.bound,
        bounds_checked: progress.checked,
        bounds_skipped: progress.skipped,
        winners: progress.winners,
        byte_cap,
        stats: progress.stats,
        certificate: progress.cert,
        witness_path,
        witness_steps,
        queue_wait,
        solve_time: run_start.elapsed(),
        attempts: attempt,
        resumed_from,
        deferrals,
        downgraded,
        quarantined,
        failures,
        proof_path,
        cached: false,
        priority: job.priority,
    }
}

/// Sorts an attempt's `Unknown` into final verdicts vs retryable
/// failures. Order matters: a shed or an external cancellation
/// *explains* a fired child token; only an unexplained one is the
/// injected/spurious kind worth retrying.
#[allow(clippy::too_many_arguments)]
fn classify_unknown(
    reason: String,
    shed: &Arc<AtomicBool>,
    config: &ServiceConfig,
    job: &Job,
    attempt_clipped: bool,
    deadline_clipped: bool,
    attempt_elapsed: Duration,
    attempt_timeout: Option<Duration>,
) -> AttemptClass {
    if reason == "cancelled" {
        if shed.load(Ordering::Relaxed) {
            return AttemptClass::Final(BmcResult::Unknown("shed: memory pressure".into()));
        }
        if config.cancel.is_cancelled() {
            return AttemptClass::Final(BmcResult::Unknown("service cancelled".into()));
        }
        if job.budget.cancel.is_cancelled() {
            return AttemptClass::Final(BmcResult::Unknown("cancelled".into()));
        }
        // The attempt's child token fired, but nobody legitimate fired
        // it: a spurious (injected or stray) cancellation.
        return AttemptClass::Retry("spurious cancellation".into());
    }
    if reason == "budget exhausted" {
        if deadline_clipped {
            return AttemptClass::Final(BmcResult::Unknown("deadline exceeded".into()));
        }
        // Retry only when the *per-attempt* cap was the binding
        // constraint and the attempt actually ran into it (a fast
        // "budget exhausted" is the byte cap, which no retry fixes).
        let ran_into_cap =
            attempt_timeout.is_some_and(|t| attempt_elapsed + Duration::from_millis(5) >= t);
        if attempt_clipped && ran_into_cap {
            return AttemptClass::Retry("attempt deadline exceeded".into());
        }
        return AttemptClass::Final(BmcResult::Unknown(reason));
    }
    if reason.starts_with("engine panicked") {
        return AttemptClass::Retry(reason);
    }
    AttemptClass::Final(BmcResult::Unknown(reason))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebmc::Budget;
    use sebmc_model::builders::{shift_register, token_ring, traffic_light};

    #[test]
    fn single_engine_job_deepens_to_the_first_reachable_bound() {
        let jobs = vec![Job::new(shift_register(4), vec![EngineKind::Jsat], 8)];
        let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
        assert_eq!(r.jobs.len(), 1);
        let j = &r.jobs[0];
        assert!(j.verdict.is_reachable());
        assert_eq!(j.bound, Some(4));
        assert_eq!(j.bounds_checked, 5, "bounds 0..=4 checked");
        assert_eq!(j.winners.len(), 5);
        assert!(j.stats.solver_effort > 0 || j.stats.bounds_checked == 5);
        assert_eq!(j.attempts, 1);
        assert!(j.failures.is_empty());
        assert_eq!(r.reachable, 1);
        assert_eq!(r.jobs_retried, 0);
    }

    #[test]
    fn portfolio_job_races_bounds_and_reports_winners() {
        let jobs = vec![Job::new(
            token_ring(4),
            vec![EngineKind::Jsat, EngineKind::Unroll],
            6,
        )];
        let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
        let j = &r.jobs[0];
        assert!(j.verdict.is_reachable(), "{}", j.verdict);
        assert_eq!(j.bound, Some(3));
        assert_eq!(j.engines.len(), 2);
        // Every checked bound has a recorded winner.
        assert_eq!(j.winners.len(), j.bounds_checked);
        assert!(j
            .winners
            .iter()
            .all(|(_, e)| *e == "jsat" || *e == "sat-unroll"));
    }

    #[test]
    fn unreachable_sweep_is_reported_as_unreachable() {
        let jobs = vec![Job::new(traffic_light(), vec![EngineKind::Unroll], 5)];
        let r = ServiceHandle::run_batch(ServiceConfig::with_workers(2), jobs);
        assert!(r.jobs[0].verdict.is_unreachable());
        assert_eq!(r.unreachable, 1);
    }

    #[test]
    fn admission_control_takes_the_min_of_job_and_service_caps() {
        let jobs = vec![
            Job::new(shift_register(4), vec![EngineKind::Unroll], 3)
                .with_budget(Budget::with_memory_bytes(50_000)),
            Job::new(shift_register(4), vec![EngineKind::Unroll], 3)
                .with_budget(Budget::with_memory_bytes(5_000)),
        ];
        let r = ServiceHandle::run_batch(
            ServiceConfig::with_workers(1).with_max_job_bytes(10_000),
            jobs,
        );
        assert_eq!(r.jobs[0].byte_cap, Some(10_000), "service cap tightens");
        assert_eq!(r.jobs[1].byte_cap, Some(5_000), "job cap kept when tighter");
    }

    #[test]
    fn budget_exhausted_jobs_are_reported_unknown_not_dropped() {
        let jobs = vec![
            // A byte cap far too small to encode bound 50.
            Job::new(shift_register(16), vec![EngineKind::Unroll], 50)
                .with_budget(Budget::with_memory_bytes(256)),
        ];
        let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
        assert_eq!(r.jobs.len(), 1);
        assert!(r.jobs[0].verdict.is_unknown(), "{}", r.jobs[0].verdict);
        assert_eq!(r.unknown, 1);
    }

    #[test]
    fn per_job_cancellation_before_start_skips_the_job() {
        let job = Job::new(shift_register(4), vec![EngineKind::Jsat], 6);
        job.budget.cancel_token().cancel();
        let jobs = vec![job, Job::new(token_ring(3), vec![EngineKind::Jsat], 4)];
        let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
        assert_eq!(
            r.jobs[0].verdict,
            BmcResult::Unknown("cancelled".into()),
            "pre-cancelled job reported, not run"
        );
        assert_eq!(r.jobs[0].solve_time, Duration::ZERO);
        assert!(r.jobs[1].verdict.is_reachable(), "siblings unaffected");
    }

    #[test]
    fn service_cancellation_fails_the_remaining_queue() {
        let config = ServiceConfig::with_workers(1);
        config.cancel.cancel();
        let jobs = vec![Job::new(token_ring(3), vec![EngineKind::Jsat], 4)];
        let r = ServiceHandle::run_batch(config, jobs);
        assert_eq!(
            r.jobs[0].verdict,
            BmcResult::Unknown("service cancelled".into())
        );
    }

    /// Witness streaming (ROADMAP open item): with a witness dir the
    /// trace lands in an HWMCC-format file and the report carries only
    /// the path and length — no in-memory trace.
    #[test]
    fn witness_streaming_replaces_the_in_memory_trace() {
        let dir = std::env::temp_dir().join(format!("sebmc-wit-{}", std::process::id()));
        let jobs = vec![
            Job::new(shift_register(4), vec![EngineKind::Unroll], 6),
            Job::new(traffic_light(), vec![EngineKind::Unroll], 3),
        ];
        let r =
            ServiceHandle::run_batch(ServiceConfig::with_workers(1).with_witness_dir(&dir), jobs);
        let j = &r.jobs[0];
        assert_eq!(j.verdict, BmcResult::Reachable(None), "trace dropped");
        assert_eq!(j.bound, Some(4));
        assert_eq!(j.witness_steps, Some(4));
        let path = j.witness_path.as_ref().expect("witness file path");
        let content = std::fs::read_to_string(path).expect("witness file exists");
        assert!(content.starts_with("1\nb0\n"), "HWMCC header: {content}");
        assert!(content.ends_with(".\n"));
        assert_eq!(
            content.lines().count(),
            2 + 1 + 4 + 1,
            "header + init + one input line per step + terminator"
        );
        // Unreachable jobs get no witness file.
        assert!(r.jobs[1].witness_path.is_none());
        let json = r.to_json().to_string();
        assert!(json.contains("\"witness_steps\":4"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Proof export (carried ROADMAP follow-up): with a proof dir a
    /// single-engine Unreachable job leaves a non-empty binary-DRAT
    /// file behind and reports its path; decided-reachable and
    /// portfolio jobs leave nothing.
    #[test]
    fn proof_export_keeps_drat_files_for_unreachable_jobs() {
        let dir = std::env::temp_dir().join(format!("sebmc-drat-{}", std::process::id()));
        let jobs = vec![
            Job::new(traffic_light(), vec![EngineKind::Unroll], 4),
            Job::new(shift_register(4), vec![EngineKind::Unroll], 6),
            Job::new(
                traffic_light(),
                vec![EngineKind::Unroll, EngineKind::Jsat],
                3,
            ),
        ];
        let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1).with_proof_dir(&dir), jobs);
        let unsat = &r.jobs[0];
        assert!(unsat.verdict.is_unreachable());
        let p = unsat.proof_path.as_ref().expect("proof path reported");
        let bytes = std::fs::read(p).expect("proof file exists");
        assert!(!bytes.is_empty(), "DRAT stream has content");
        // Reachable job: no proof kept.
        assert!(r.jobs[1].proof_path.is_none());
        // Portfolio job: export skipped entirely.
        assert!(r.jobs[2].proof_path.is_none());
        let kept: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(kept.len(), 1, "only the Unsat job's file remains: {kept:?}");
        let json = r.to_json().to_string();
        assert!(json.contains("\"proof_path\":\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Certification and proof export compose: the tee sink checks on
    /// the fly *and* writes the file.
    #[test]
    fn certify_and_proof_export_compose() {
        let dir = std::env::temp_dir().join(format!("sebmc-drat-tee-{}", std::process::id()));
        let jobs = vec![Job::new(traffic_light(), vec![EngineKind::Unroll], 4)
            .with_budget(Budget::none().with_certify(true))];
        let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1).with_proof_dir(&dir), jobs);
        let j = &r.jobs[0];
        assert!(j.verdict.is_unreachable());
        assert!(j.certificate.as_ref().unwrap().fully_certified());
        let p = j.proof_path.as_ref().expect("proof file kept");
        assert!(!std::fs::read(p).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A certified batch: every decided job carries a fully-certified
    /// certificate and the aggregate counts them.
    #[test]
    fn certified_jobs_carry_certificates() {
        let budget = Budget::none().with_certify(true);
        let jobs = vec![
            Job::new(traffic_light(), vec![EngineKind::Unroll], 4).with_budget(budget.clone()),
            Job::new(shift_register(4), vec![EngineKind::Jsat], 6).with_budget(budget.clone()),
            // A portfolio job: the winners' chain certifies the verdict.
            Job::new(token_ring(4), vec![EngineKind::Jsat, EngineKind::Unroll], 6)
                .with_budget(budget),
        ];
        let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
        for j in &r.jobs {
            let cert = j.certificate.as_ref().expect("certificate present");
            assert!(
                cert.fully_certified(),
                "job {} ({}): {cert:?}",
                j.job_id,
                j.name
            );
            assert_eq!(cert.bounds_attempted as usize, j.bounds_checked);
        }
        assert_eq!(r.jobs_certified, 3);
        assert!(r.certificate.as_ref().unwrap().fully_certified());
        assert!(r.total.peak_proof_bytes > 0, "proof bytes in the stats");
    }

    #[test]
    fn report_json_smoke() {
        let jobs = suite_jobs(true, &[EngineKind::Jsat], 2, &Budget::none());
        let r = ServiceHandle::run_batch(ServiceConfig::with_workers(2), jobs);
        assert_eq!(r.jobs.len(), 13);
        let json = r.to_json().to_string();
        assert!(json.contains("\"jobs_total\":13"));
        assert!(json.contains("\"workers\":2"));
        assert!(json.contains("\"jobs_quarantined\":0"));
    }
}
