//! The long-lived service handle: workers that outlive any one batch.
//!
//! The worker pool starts once ([`ServiceHandle::start`]) and stays
//! alive across jobs; submissions ([`ServiceHandle::submit`]) return
//! immediately with a job id; finished reports are picked up as they
//! land, from any client ([`ServiceHandle::next_report`]) or from one
//! ([`ServiceHandle::next_report_for`]); and the pool is torn down
//! exactly once, by an explicit [`ServiceHandle::shutdown`] that
//! either drains the queue ([`ShutdownMode::Graceful`]) or cancels it
//! ([`ShutdownMode::Now`]).
//! Either way **every accepted job ends in exactly one [`JobReport`]**
//! — shutdown returns the reports nobody collected. Batch mode
//! ([`ServiceHandle::run_batch`]) and the `sebmc serve` daemon are both
//! this one pool.
//!
//! Scheduling is the priority/deadline/fairness/aging order of the
//! [queue module](crate::queue); admission keeps PR 6's
//! defer → downgrade → shed ladder, with the memory governor's FIFO
//! gate following *pickup* order (so with all-default priorities the
//! drills' semantics are bit-for-bit those of the old FIFO). When
//! [`ServiceConfig::result_cache_bytes`] is set, a submission whose
//! [`CacheKey`] matches a decided verdict is answered at submit time —
//! the report lands in the done set with `cached: true` and zero
//! solver effort, and no worker ever sees the job.
//!
//! Duplicates are also merged at pickup, so one key is never solved
//! twice at once: a job whose key was cached since it was submitted is
//! answered from the cache, and a job whose key is running waits behind
//! that run. When the run ends, its waiting duplicates are answered
//! from the cache if its verdict was cacheable, and otherwise go back
//! to the queue with their original submission time and sequence
//! number. Each job counts once in the cache statistics: a hit when it
//! is answered from the cache, a miss when a worker runs it.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use sebmc::model_fingerprint;

use crate::cache::{CacheKey, ResultCache};
use crate::job::Job;
use crate::queue::{JobQueue, PendingJob};
use crate::report::{JobReport, ServiceReport};
use crate::{abort_report, lock_unpoisoned, process_job, MemGovernor, ServiceConfig, SHED_REASON};

/// Why a submission was refused (the job is handed back untouched
/// inside the error).
#[derive(Debug)]
pub enum SubmitError {
    /// The handle is shutting down (or already shut down); no new work
    /// is accepted.
    ShuttingDown(Box<Job>),
    /// The pending queue is at
    /// [`ServiceConfig::max_queue_depth`]; resubmit after the backlog
    /// drains.
    Overloaded(Box<Job>),
}

impl SubmitError {
    /// The refused job, handed back for resubmission.
    pub fn into_job(self) -> Job {
        match self {
            SubmitError::ShuttingDown(j) | SubmitError::Overloaded(j) => *j,
        }
    }
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::ShuttingDown(_) => write!(f, "shutting down"),
            SubmitError::Overloaded(_) => write!(f, "overloaded: queue full"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// How [`ServiceHandle::shutdown`] treats work still in the system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ShutdownMode {
    /// Stop accepting, *run every queued job to completion*, then stop
    /// the workers.
    Graceful,
    /// Stop accepting and fire the service cancel token: running jobs
    /// stop at their next safe point, queued jobs are reported
    /// `Unknown("service cancelled")` without running.
    Now,
}

/// Mutable scheduling state, all under one mutex so pickup decisions
/// (pop + governor enrollment + per-client accounting) are atomic.
struct QueueState {
    pending: JobQueue,
    /// Submissions accepted? Cleared by shutdown.
    accepting: bool,
    /// Workers exit once the queue is empty? Set by shutdown.
    draining: bool,
    /// Workers held back from picking up (batch mode: submit all, then
    /// release).
    paused: bool,
    next_id: usize,
    next_seq: u64,
    next_ticket: u64,
    /// Jobs currently on a worker, per client (the fairness input).
    running: HashMap<u64, usize>,
    /// Jobs currently on a worker, total.
    in_flight: usize,
    /// Cache keys on a worker now, each with the duplicates picked up
    /// meanwhile, which wait for its verdict.
    running_keys: HashMap<CacheKey, Vec<PendingJob>>,
}

impl QueueState {
    /// Jobs waiting behind a running duplicate.
    fn waiting(&self) -> usize {
        self.running_keys.values().map(Vec::len).sum()
    }
}

/// Everything the workers and the handle share.
struct Shared {
    config: ServiceConfig,
    queue: Mutex<QueueState>,
    /// Signalled on submit/resume/shutdown and when a job finishes
    /// (for [`ServiceHandle::outstanding`] watchers).
    queue_cv: Condvar,
    /// Finished reports awaiting pickup, by job id, each with its
    /// submitting client.
    done: Mutex<HashMap<usize, (u64, JobReport)>>,
    done_cv: Condvar,
    governor: MemGovernor,
    cache: Option<Mutex<ResultCache>>,
}

impl Shared {
    /// Hands `client` its finished report and wakes the report waiters.
    fn publish(&self, client: u64, report: JobReport) {
        lock_unpoisoned(&self.done).insert(report.job_id, (client, report));
        self.done_cv.notify_all();
    }

    /// Publishes a job answered from the result cache and counts the
    /// hit.
    fn answer_from_cache(&self, client: u64, priority: u8, mut hit: JobReport) {
        hit.priority = priority;
        let t = &self.config.telemetry;
        t.metrics.jobs_cached.inc();
        t.metrics.cache_hits.inc();
        t.trace(
            "cache_hit",
            &[
                ("job", hit.job_id.into()),
                ("name", hit.name.as_str().into()),
            ],
        );
        self.publish(client, hit);
    }

    /// Records the pending queue's depth after a push or a pop. Every
    /// change happens under the queue lock, so the gauge is exact.
    fn note_depth(&self, st: &QueueState) {
        let metrics = &self.config.telemetry.metrics;
        let depth = st.pending.len() as u64;
        metrics.queue_depth.set(depth);
        metrics.queue_depth_high_water.set_max(depth);
    }
}

/// A running checking service: a live worker pool behind a
/// submit/collect/shutdown API (see the module docs).
///
/// Dropping the handle without calling [`ServiceHandle::shutdown`]
/// shuts it down in [`ShutdownMode::Now`] (uncollected reports are
/// discarded); call `shutdown` yourself to keep them.
pub struct ServiceHandle {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl ServiceHandle {
    /// Starts the worker pool; submissions are picked up immediately.
    pub fn start(config: ServiceConfig) -> Self {
        Self::start_inner(config, false)
    }

    /// Starts with pickup *paused*: jobs queue but no worker takes one
    /// until [`ServiceHandle::resume`]. This is how batch mode
    /// guarantees the scheduler and the memory governor see the whole
    /// batch before the first admission decision.
    pub fn start_paused(config: ServiceConfig) -> Self {
        Self::start_inner(config, true)
    }

    fn start_inner(config: ServiceConfig, paused: bool) -> Self {
        let workers = config.workers.max(1);
        let cache = config
            .result_cache_bytes
            .map(|b| Mutex::new(ResultCache::new(b)));
        let governor = MemGovernor::new(config.max_total_bytes);
        let shared = Arc::new(Shared {
            config,
            queue: Mutex::new(QueueState {
                pending: JobQueue::default(),
                accepting: true,
                draining: false,
                paused,
                next_id: 0,
                next_seq: 0,
                next_ticket: 0,
                running: HashMap::new(),
                in_flight: 0,
                running_keys: HashMap::new(),
            }),
            queue_cv: Condvar::new(),
            done: Mutex::new(HashMap::new()),
            done_cv: Condvar::new(),
            governor,
            cache,
        });
        let mut pool = Vec::with_capacity(workers);
        for wid in 0..workers {
            let sh = Arc::clone(&shared);
            pool.push(
                thread::Builder::new()
                    .name(format!("sebmc-worker-{wid}"))
                    .spawn(move || worker_loop(&sh))
                    .expect("spawn service worker"),
            );
        }
        ServiceHandle {
            shared,
            workers: Mutex::new(pool),
        }
    }

    /// Runs `jobs` as one batch and returns the aggregate report, in
    /// submission order (a job's id is its index in `jobs`).
    ///
    /// The handle starts paused, so the scheduler and the memory
    /// governor see the whole batch before the first pickup; then the
    /// workers are released and the handle shuts down gracefully once
    /// every report is in.
    pub fn run_batch(config: ServiceConfig, jobs: Vec<Job>) -> ServiceReport {
        let workers = config.workers.max(1);
        let run_start = Instant::now();
        let handle = ServiceHandle::start_paused(config);
        let n_jobs = jobs.len();
        for job in jobs {
            handle
                .submit(job)
                .expect("a fresh handle accepts submissions");
        }
        handle.resume();
        let mut reports: Vec<JobReport> = (0..n_jobs)
            .map(|_| {
                handle
                    .next_report(None)
                    .expect("every submitted job produces a report")
            })
            .collect();
        let (queue_high_water, queue_pops) = handle.queue_telemetry();
        handle.shutdown(ShutdownMode::Graceful);
        reports.sort_by_key(|r| r.job_id);
        ServiceReport::new(workers, run_start.elapsed(), reports)
            .with_queue_telemetry(queue_high_water, queue_pops)
    }

    /// Releases a paused handle's workers.
    pub fn resume(&self) {
        lock_unpoisoned(&self.shared.queue).paused = false;
        self.shared.queue_cv.notify_all();
    }

    /// Submits a job and returns its id. A duplicate of a cached
    /// decided verdict is answered immediately (the report is already
    /// in the done set when this returns, `cached: true`); a duplicate
    /// of a running job is answered when that run ends (see the module
    /// docs).
    pub fn submit(&self, job: Job) -> Result<usize, SubmitError> {
        self.submit_for_client(job, 0)
    }

    /// [`ServiceHandle::submit`] on behalf of a specific client
    /// (client 0 is the in-process caller): the scheduler's fairness
    /// tie-break prefers clients with fewer jobs running.
    pub fn submit_for_client(&self, job: Job, client: u64) -> Result<usize, SubmitError> {
        self.submit_at(job, client, Instant::now())
    }

    /// Submission with an explicit queue-wait epoch (batch mode
    /// replays original submission times so wait accounting is
    /// unchanged).
    pub(crate) fn submit_at(
        &self,
        job: Job,
        client: u64,
        submitted: Instant,
    ) -> Result<usize, SubmitError> {
        let shared = &self.shared;
        // Fingerprinting walks the whole AIG — do it before taking the
        // queue lock.
        let cache_key = shared.cache.as_ref().map(|_| CacheKey {
            fingerprint: model_fingerprint(&job.model),
            semantics: job.semantics,
            max_bound: job.max_bound,
            certify: job.budget.certify,
            reduce: job.budget.reduce,
        });
        let t = &shared.config.telemetry;
        let mut st = lock_unpoisoned(&shared.queue);
        if !st.accepting {
            t.metrics.jobs_rejected.inc();
            return Err(SubmitError::ShuttingDown(Box::new(job)));
        }
        if let Some(depth) = shared.config.max_queue_depth {
            if st.pending.len() >= depth {
                t.metrics.jobs_rejected.inc();
                return Err(SubmitError::Overloaded(Box::new(job)));
            }
        }
        let id = st.next_id;
        st.next_id += 1;
        t.metrics.jobs_submitted.inc();
        // A miss is not counted here: the job looks again at pickup.
        if let (Some(cache), Some(key)) = (&shared.cache, &cache_key) {
            if let Some(hit) = lock_unpoisoned(cache).lookup(key, id, &job.name) {
                drop(st);
                shared.answer_from_cache(client, job.priority, hit);
                return Ok(id);
            }
        }
        let seq = st.next_seq;
        st.next_seq += 1;
        t.trace(
            "submit",
            &[
                ("job", id.into()),
                ("name", job.name.as_str().into()),
                ("priority", u64::from(job.priority).into()),
                ("client", client.into()),
            ],
        );
        st.pending.push(PendingJob {
            id,
            job,
            submitted,
            client,
            seq,
            cache_key,
        });
        shared.note_depth(&st);
        drop(st);
        self.shared.queue_cv.notify_all();
        Ok(id)
    }

    /// Takes the finished report with the smallest job id, waiting up
    /// to `timeout` (`None` = forever) for one to land. Returns `None`
    /// on timeout — callers are responsible for only waiting
    /// indefinitely when a report is certain to arrive.
    pub fn next_report(&self, timeout: Option<Duration>) -> Option<JobReport> {
        self.wait_report(timeout, |done| done.keys().min().copied())
    }

    /// [`ServiceHandle::next_report`] restricted to the jobs `client`
    /// submitted (see [`ServiceHandle::submit_for_client`]).
    pub fn next_report_for(&self, client: u64, timeout: Option<Duration>) -> Option<JobReport> {
        self.wait_report(timeout, |done| {
            done.iter()
                .filter(|(_, (c, _))| *c == client)
                .map(|(id, _)| *id)
                .min()
        })
    }

    fn wait_report(
        &self,
        timeout: Option<Duration>,
        pick: impl Fn(&HashMap<usize, (u64, JobReport)>) -> Option<usize>,
    ) -> Option<JobReport> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut done = lock_unpoisoned(&self.shared.done);
        loop {
            if let Some(id) = pick(&done) {
                return done.remove(&id).map(|(_, r)| r);
            }
            match deadline {
                None => {
                    done = self
                        .shared
                        .done_cv
                        .wait(done)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return None;
                    }
                    done = self
                        .shared
                        .done_cv
                        .wait_timeout(done, left)
                        .unwrap_or_else(PoisonError::into_inner)
                        .0;
                }
            }
        }
    }

    /// Jobs queued but not yet picked up.
    pub fn pending(&self) -> usize {
        lock_unpoisoned(&self.shared.queue).pending.len()
    }

    /// Jobs not yet finished: pending, in flight on a worker, or
    /// waiting behind a running duplicate (collected and
    /// cache-answered reports are not counted).
    pub fn outstanding(&self) -> usize {
        let st = lock_unpoisoned(&self.shared.queue);
        st.pending.len() + st.in_flight + st.waiting()
    }

    /// Whether submissions are still accepted (false once shutdown has
    /// begun).
    pub fn is_accepting(&self) -> bool {
        lock_unpoisoned(&self.shared.queue).accepting
    }

    /// `(hits, misses)` of the result cache, read from
    /// [`ServiceConfig::telemetry`]'s `cache_hits` and `cache_misses`;
    /// `None` when the cache is disabled.
    pub fn cache_stats(&self) -> Option<(u64, u64)> {
        let metrics = &self.shared.config.telemetry.metrics;
        self.shared
            .cache
            .as_ref()
            .map(|_| (metrics.cache_hits.get(), metrics.cache_misses.get()))
    }

    /// Queue scheduling telemetry, read from
    /// [`ServiceConfig::telemetry`]: the pending queue's high-water
    /// mark (`queue_depth_high_water`) and the pops per effective
    /// priority level (`queue_pops`).
    pub fn queue_telemetry(&self) -> (usize, [u64; 10]) {
        let metrics = &self.shared.config.telemetry.metrics;
        (
            metrics.queue_depth_high_water.get() as usize,
            std::array::from_fn(|level| metrics.queue_pops[level].get()),
        )
    }

    /// Stops the service and returns every finished-but-uncollected
    /// report, sorted by job id. Graceful mode runs the backlog to
    /// completion first; Now mode cancels it (every queued and running
    /// job still ends in a report — `Unknown("service cancelled")` for
    /// the ones that never got to run). Idempotent: a second call
    /// returns whatever landed since the first.
    pub fn shutdown(&self, mode: ShutdownMode) -> Vec<JobReport> {
        if mode == ShutdownMode::Now {
            self.shared.config.cancel.cancel();
        }
        {
            let mut st = lock_unpoisoned(&self.shared.queue);
            st.accepting = false;
            st.draining = true;
            st.paused = false;
        }
        self.shared.queue_cv.notify_all();
        let pool: Vec<_> = lock_unpoisoned(&self.workers).drain(..).collect();
        for w in pool {
            let _ = w.join();
        }
        let mut left: Vec<JobReport> = lock_unpoisoned(&self.shared.done)
            .drain()
            .map(|(_, (_, r))| r)
            .collect();
        left.sort_by_key(|r| r.job_id);
        left
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        if !lock_unpoisoned(&self.workers).is_empty() {
            self.shutdown(ShutdownMode::Now);
        }
    }
}

/// One worker: pick up → run supervised → publish the report. The
/// pickup block (pop, duplicate merging, governor enrollment,
/// per-client accounting) runs under the queue lock so scheduling
/// decisions are atomic.
fn worker_loop(shared: &Shared) {
    let t = &shared.config.telemetry;
    loop {
        let picked = {
            let mut st = lock_unpoisoned(&shared.queue);
            loop {
                if st.paused || (st.pending.is_empty() && !st.draining) {
                    st = shared
                        .queue_cv
                        .wait(st)
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
                if st.pending.is_empty() {
                    return; // draining and nothing left: worker exits
                }
                let now = Instant::now();
                let QueueState {
                    pending, running, ..
                } = &mut *st;
                let Some(p) = pending.pop(now, shared.config.priority_aging, running) else {
                    continue;
                };
                let eff = p.effective_priority(now, shared.config.priority_aging);
                t.metrics.queue_pops[usize::from(eff)].inc();
                shared.note_depth(&st);
                t.trace(
                    "pop",
                    &[
                        ("job", p.id.into()),
                        ("client", p.client.into()),
                        ("eff_priority", u64::from(eff).into()),
                    ],
                );
                if let (Some(cache), Some(key)) = (&shared.cache, p.cache_key) {
                    if let Some(waiting) = st.running_keys.get_mut(&key) {
                        waiting.push(p);
                        continue;
                    }
                    if let Some(hit) = lock_unpoisoned(cache).lookup(&key, p.id, &p.job.name) {
                        shared.answer_from_cache(p.client, p.job.priority, hit);
                        continue;
                    }
                    st.running_keys.insert(key, Vec::new());
                    t.metrics.cache_misses.inc();
                }
                let ticket = st.next_ticket;
                st.next_ticket += 1;
                shared.governor.enroll(p.id, ticket);
                *st.running.entry(p.client).or_insert(0) += 1;
                st.in_flight += 1;
                t.metrics.jobs_in_flight.add(1);
                break p;
            }
        };
        let id = picked.id;
        let client = picked.client;
        let cache_key = picked.cache_key;
        let queue_wait = picked.submitted.elapsed();
        // Identity captured up front: if the *service layer* panics
        // outside the per-attempt containment, the job still gets a
        // report.
        let name = picked.job.name.clone();
        let model = picked.job.model.name().to_string();
        let engines: Vec<&'static str> = picked
            .job
            .engines
            .iter()
            .map(|e| e.build().name())
            .collect();
        let byte_cap = picked.job.budget.max_formula_bytes;
        let priority = picked.job.priority;
        let report = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            process_job(picked, &shared.config, &shared.governor, queue_wait)
        }))
        .unwrap_or_else(|_| {
            let mut r = abort_report(
                id,
                name,
                model,
                engines,
                byte_cap,
                "service error: worker panicked outside attempt containment",
                queue_wait,
                0,
                priority,
            );
            r.quarantined = true;
            r
        });
        shared.governor.release(id);
        let mut evicted = 0usize;
        if let (Some(cache), Some(key)) = (&shared.cache, cache_key) {
            evicted = lock_unpoisoned(cache).insert(key, &report);
        }
        t.metrics.jobs_completed.inc();
        t.metrics.jobs_in_flight.sub(1);
        t.metrics.cache_evictions.add(evicted as u64);
        t.metrics
            .queue_wait_ms
            .record(queue_wait.as_millis() as u64);
        t.metrics
            .solve_latency_ms
            .record(report.solve_time.as_millis() as u64);
        t.metrics
            .jobs_retried
            .add(u64::from(report.attempts.saturating_sub(1)));
        if report.quarantined {
            t.metrics.jobs_quarantined.inc();
        }
        if matches!(&report.verdict, sebmc::BmcResult::Unknown(r) if r == SHED_REASON) {
            t.metrics.jobs_shed.inc();
        }
        t.metrics
            .peak_arena_bytes
            .set_max(report.stats.peak_formula_bytes as u64);
        t.metrics
            .peak_watch_bytes
            .set_max(report.stats.peak_watch_bytes as u64);
        t.metrics
            .peak_proof_bytes
            .set_max(report.stats.peak_proof_bytes as u64);
        {
            let mut st = lock_unpoisoned(&shared.queue);
            if let Some(n) = st.running.get_mut(&client) {
                *n -= 1;
                if *n == 0 {
                    st.running.remove(&client);
                }
            }
            st.in_flight -= 1;
            // The duplicates that waited for this run: answered from
            // the cache, or queued again when it holds no verdict.
            if let (Some(cache), Some(key)) = (&shared.cache, cache_key) {
                for w in st.running_keys.remove(&key).unwrap_or_default() {
                    match lock_unpoisoned(cache).lookup(&key, w.id, &w.job.name) {
                        Some(hit) => shared.answer_from_cache(w.client, w.job.priority, hit),
                        None => st.pending.push(w),
                    }
                }
                shared.note_depth(&st);
            }
        }
        // Wake outstanding() watchers and fellow workers alike.
        shared.queue_cv.notify_all();
        shared.publish(client, report);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::EngineKind;
    use sebmc::Budget;
    use sebmc_model::builders::traffic_light;
    use sebmc_telemetry::Telemetry;
    use std::io::Write;

    /// A `Write` the test reads back after the trace sink flushes.
    #[derive(Clone, Default)]
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            lock_unpoisoned(&self.0).extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn job(priority: u8) -> Job {
        Job::new(traffic_light(), vec![EngineKind::Jsat], 2).with_priority(priority)
    }

    fn num_field(line: &str, key: &str) -> u64 {
        let pat = format!("\"{key}\":");
        let at = line.find(&pat).expect("field present") + pat.len();
        line[at..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("numeric field")
    }

    /// `(job, eff_priority)` of every `"pop"` trace event, in order —
    /// the scheduler's actual pickup sequence, no timing involved.
    fn pop_order(buf: &SharedBuf) -> Vec<(usize, u64)> {
        let bytes = lock_unpoisoned(&buf.0).clone();
        String::from_utf8(bytes)
            .expect("trace is utf-8")
            .lines()
            .filter(|l| l.contains("\"ev\":\"pop\""))
            .map(|l| (num_field(l, "job") as usize, num_field(l, "eff_priority")))
            .collect()
    }

    fn budget_with_faults(plan: &str) -> Budget {
        let mut budget = Budget::none();
        budget.fault = plan.parse().expect("fault plan");
        budget
    }

    /// Waits until `n` jobs wait behind a running duplicate.
    fn wait_for_waiters(handle: &ServiceHandle, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(30);
        while lock_unpoisoned(&handle.shared.queue).waiting() < n {
            assert!(
                Instant::now() < deadline,
                "no job waited behind its duplicate"
            );
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// The reports of `ids`, in that order, collected as they land.
    fn reports_of(handle: &ServiceHandle, ids: &[usize]) -> Vec<JobReport> {
        let mut reports: Vec<JobReport> = ids
            .iter()
            .map(|_| {
                handle
                    .next_report(Some(Duration::from_secs(60)))
                    .expect("report lands")
            })
            .collect();
        reports.sort_by_key(|r| ids.iter().position(|&id| id == r.job_id));
        reports
    }

    #[test]
    fn a_duplicate_picked_up_while_its_original_runs_is_answered_from_the_cache() {
        let telemetry = Arc::new(Telemetry::new());
        let handle = ServiceHandle::start(
            ServiceConfig::with_workers(2)
                .with_result_cache_bytes(1 << 20)
                .with_telemetry(Arc::clone(&telemetry)),
        );
        // The original stalls 300 ms at its first bound, so the second
        // worker picks the duplicate up while it runs.
        let original = handle
            .submit(job(4).with_budget(budget_with_faults("delay@engine:1:300")))
            .expect("accepts");
        let duplicate = handle.submit(job(4)).expect("accepts");
        wait_for_waiters(&handle, 1);
        assert_eq!(
            handle.outstanding(),
            2,
            "the waiting duplicate is outstanding"
        );
        let reports = reports_of(&handle, &[original, duplicate]);
        assert!(!reports[0].cached, "the original runs");
        assert!(
            reports[1].cached,
            "the duplicate is answered from the cache"
        );
        assert_eq!(reports[1].stats.solver_effort, 0);
        assert_eq!(reports[1].verdict, reports[0].verdict);
        assert_eq!(telemetry.metrics.jobs_completed.get(), 1, "one job ran");
        assert_eq!(telemetry.metrics.jobs_cached.get(), 1);
        assert_eq!(handle.cache_stats(), Some((1, 1)));
        assert_eq!(telemetry.metrics.cache_hits.get(), 1);
        assert_eq!(telemetry.metrics.cache_misses.get(), 1);
        assert!(handle.shutdown(ShutdownMode::Graceful).is_empty());
    }

    #[test]
    fn a_duplicate_of_an_undecided_run_is_queued_again_and_runs_itself() {
        let handle =
            ServiceHandle::start(ServiceConfig::with_workers(2).with_result_cache_bytes(1 << 20));
        // The original stalls 300 ms, then panics at its first bound:
        // it ends quarantined, with no verdict to cache.
        let original = handle
            .submit(job(4).with_budget(budget_with_faults("delay@service:1:300,panic@engine:1")))
            .expect("accepts");
        let duplicate = handle.submit(job(4)).expect("accepts");
        wait_for_waiters(&handle, 1);
        let reports = reports_of(&handle, &[original, duplicate]);
        assert!(reports[0].quarantined, "{:?}", reports[0].verdict);
        assert!(matches!(reports[0].verdict, sebmc::BmcResult::Unknown(_)));
        assert!(!reports[1].cached, "the duplicate runs itself");
        assert!(
            !matches!(reports[1].verdict, sebmc::BmcResult::Unknown(_)),
            "and decides: {:?}",
            reports[1].verdict
        );
        assert_eq!(handle.cache_stats(), Some((0, 2)), "both ran");
        assert!(
            handle.shutdown(ShutdownMode::Graceful).is_empty(),
            "exactly one report per job"
        );
    }

    #[test]
    fn aging_lifts_a_starved_job_to_the_front_of_pickup() {
        let buf = SharedBuf::default();
        let telemetry = Arc::new(Telemetry::with_trace_writer(Box::new(buf.clone())));
        let handle = ServiceHandle::start_paused(
            ServiceConfig::with_workers(1)
                .with_priority_aging(Duration::from_millis(250))
                .with_telemetry(Arc::clone(&telemetry)),
        );
        // Backdated 10 s: the priority-0 job has aged 0 → 9, so it
        // must outrank the fresh priority-8 job submitted after it.
        let starved = handle
            .submit_at(job(0), 0, Instant::now() - Duration::from_secs(10))
            .expect("accepts");
        let fresh = handle
            .submit_at(job(8), 0, Instant::now())
            .expect("accepts");
        handle.resume();
        handle.shutdown(ShutdownMode::Graceful);
        telemetry.flush();
        let order = pop_order(&buf);
        assert_eq!(
            order,
            vec![(starved, 9), (fresh, 8)],
            "aged 0→9 is picked before fresh 8"
        );
        let (high_water, pops) = handle.queue_telemetry();
        assert_eq!(high_water, 2, "both jobs queued while paused");
        assert_eq!(pops[9], 1, "the starved job popped at its aged level");
        assert_eq!(pops[8], 1);
        assert_eq!(pops.iter().sum::<u64>(), 2);
    }

    #[test]
    fn pickup_prefers_the_less_loaded_client_at_equal_priority() {
        let buf = SharedBuf::default();
        let telemetry = Arc::new(Telemetry::with_trace_writer(Box::new(buf.clone())));
        let handle = ServiceHandle::start(
            ServiceConfig::with_workers(2)
                .with_priority_aging(Duration::ZERO)
                .with_telemetry(Arc::clone(&telemetry)),
        );
        // Client 1 occupies a worker: its job stalls 500 ms at the
        // first engine safe point (the delay polls its cancel token,
        // so shutdown stays prompt even if assertions fail).
        let mut held_budget = Budget::none();
        held_budget.fault = "delay@engine:1:500".parse().expect("fault plan");
        let held = handle
            .submit_for_client(job(4).with_budget(held_budget), 1)
            .expect("accepts");
        // Wait (not sleep-and-hope) until it is actually on a worker.
        while lock_unpoisoned(&handle.shared.queue).in_flight == 0 {
            thread::yield_now();
        }
        // Hold pickup while both contenders queue, so the tie-break is
        // decided by load, not by arrival timing.
        lock_unpoisoned(&handle.shared.queue).paused = true;
        let same_client = handle.submit_for_client(job(4), 1).expect("accepts");
        let other_client = handle.submit_for_client(job(4), 2).expect("accepts");
        handle.resume();
        handle.shutdown(ShutdownMode::Graceful);
        telemetry.flush();
        let order: Vec<usize> = pop_order(&buf).into_iter().map(|(id, _)| id).collect();
        assert_eq!(
            order,
            vec![held, other_client, same_client],
            "with client 1 already running a job, client 2's equal-priority \
             submission wins the tie-break despite its later sequence number"
        );
    }
}
