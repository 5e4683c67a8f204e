//! Reports: per-job results and the whole-service aggregate.
//!
//! Every submitted job produces exactly one [`JobReport`] — cancelled
//! and budget-exhausted jobs included (they carry
//! [`BmcResult::Unknown`], they are never dropped). The
//! [`ServiceReport`] folds all job stats with [`RunStats::absorb`]
//! (peaks maxed, durations and solver effort summed) and splits the
//! wall clock into queue wait and solve time.

use std::time::Duration;

use sebmc::{BmcResult, Certificate, RunStats};
use sebmc_logic::json::{obj, Json};

use crate::SHED_REASON;

/// One failed attempt of a job, preserved verbatim in the job's report
/// — a panic, spurious cancellation, or expired attempt deadline never
/// silently discards the work that led up to it.
#[derive(Clone, Debug)]
pub struct FailureReport {
    /// Which attempt failed (1-based).
    pub attempt: u32,
    /// The deepest bound *decided* before the failure (`None` when the
    /// attempt failed before deciding anything).
    pub bound_reached: Option<usize>,
    /// Why the attempt failed: the truncated panic payload, `"spurious
    /// cancellation"`, or `"attempt deadline exceeded"`.
    pub reason: String,
    /// Partial run stats accumulated by the failed attempt (per-bound
    /// outcomes absorbed as they were decided; at most the in-flight
    /// bound's effort is lost to a panic).
    pub stats: RunStats,
}

impl FailureReport {
    /// The failure as one JSON object (an entry of a job's
    /// `failures`).
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("attempt", self.attempt.into()),
            ("bound_reached", self.bound_reached.into()),
            ("reason", self.reason.as_str().into()),
            ("stats", self.stats.to_json()),
        ])
    }
}

/// Outcome and accounting of one job.
#[derive(Clone, Debug)]
pub struct JobReport {
    /// The id handed out by [`crate::ServiceHandle::submit`].
    pub job_id: usize,
    /// The job's label.
    pub name: String,
    /// The model's name.
    pub model: String,
    /// Engine names, in job order.
    pub engines: Vec<&'static str>,
    /// The job verdict: the first reachable bound's verdict, or
    /// `Unreachable` after a clean sweep to `max_bound`, or `Unknown`
    /// (budget exhausted / cancelled / service cancelled / skipped
    /// bounds).
    pub verdict: BmcResult,
    /// The decided bound, when `verdict` is `Reachable`.
    pub bound: Option<usize>,
    /// Bounds actually raced/checked.
    pub bounds_checked: usize,
    /// Bounds no selected engine supports (skipped, not failed).
    pub bounds_skipped: usize,
    /// Per-bound race winners `(bound, engine)` — for a single-engine
    /// job, every decided bound; for a portfolio, the engine whose
    /// verdict was shared at that bound.
    pub winners: Vec<(usize, &'static str)>,
    /// The byte cap the session actually ran under, after admission
    /// control (`min` of the job's and the service's caps).
    pub byte_cap: Option<usize>,
    /// Cumulative run stats — for a portfolio job this sums the racing
    /// effort of *all* engines, losers included.
    pub stats: RunStats,
    /// Certification summary across the job's decided bounds (present
    /// when the job ran under a certify budget on a proof-capable
    /// engine; for a portfolio, the chain of per-bound race winners).
    /// [`Certificate::fully_certified`] says whether every decided
    /// bound was machine-checked.
    pub certificate: Option<Certificate>,
    /// Path of the streamed witness file, when the service ran with a
    /// witness directory and this job was reachable — the in-memory
    /// trace is dropped in that case and `verdict` is
    /// `Reachable(None)`.
    pub witness_path: Option<String>,
    /// Steps of the streamed witness (the trace length the file holds).
    pub witness_steps: Option<usize>,
    /// Time spent queued before a worker picked the job up.
    pub queue_wait: Duration,
    /// Wall-clock time on the worker (encode + solve across bounds,
    /// plus any admission deferrals and retry backoff).
    pub solve_time: Duration,
    /// Attempts the job took (1 for an untroubled run).
    pub attempts: u32,
    /// The bound the *last* retry resumed the sweep at (`None` when the
    /// job never retried). Retries never restart from bound 0 once a
    /// bound was decided.
    pub resumed_from: Option<usize>,
    /// Admission deferrals under memory pressure before the job ran.
    pub deferrals: usize,
    /// Whether memory pressure downgraded a portfolio job to its single
    /// first-listed engine.
    pub downgraded: bool,
    /// Whether the job exhausted every attempt and was quarantined (its
    /// id is on [`ServiceReport::quarantined`]; the verdict carries the
    /// last failure's reason).
    pub quarantined: bool,
    /// Every failed attempt, in order. Empty for an untroubled run.
    pub failures: Vec<FailureReport>,
    /// Path of the exported DRAT proof file, when the service ran with
    /// a proof directory and this single-engine job swept to a clean
    /// `Unreachable` verdict.
    pub proof_path: Option<String>,
    /// Whether this report was answered from the result cache: the
    /// verdict, bound, winners, certificate and artifact paths are the
    /// cold run's, `stats.solver_effort` is zero (no solving
    /// happened), and `engines` names the engines of the run that
    /// produced the verdict, not the ones this submission asked for.
    pub cached: bool,
    /// The scheduling priority the job was submitted with (0..=9).
    pub priority: u8,
}

impl JobReport {
    /// `"reachable"` / `"unreachable"` / `"unknown"` plus the Unknown
    /// reason, if any.
    pub fn verdict_parts(&self) -> (&'static str, Option<&str>) {
        match &self.verdict {
            BmcResult::Reachable(_) => ("reachable", None),
            BmcResult::Unreachable => ("unreachable", None),
            BmcResult::Unknown(r) => ("unknown", Some(r.as_str())),
        }
    }

    /// The report as one JSON object — the shape the batch report
    /// embeds under `"jobs"` and the wire protocol pushes as the `job`
    /// of a `report` frame.
    pub fn to_json(&self) -> Json {
        let (verdict, reason) = self.verdict_parts();
        let winners = self
            .winners
            .iter()
            .map(|&(k, engine)| Json::Arr(vec![k.into(), engine.into()]));
        obj(vec![
            ("id", self.job_id.into()),
            ("name", self.name.as_str().into()),
            ("model", self.model.as_str().into()),
            (
                "engines",
                Json::Arr(self.engines.iter().map(|&e| e.into()).collect()),
            ),
            ("verdict", verdict.into()),
            ("reason", reason.into()),
            ("bound", self.bound.into()),
            ("bounds_checked", self.bounds_checked.into()),
            ("bounds_skipped", self.bounds_skipped.into()),
            ("byte_cap", self.byte_cap.into()),
            (
                "certificate",
                self.certificate.as_ref().map(Certificate::to_json).into(),
            ),
            ("witness_path", self.witness_path.as_deref().into()),
            ("witness_steps", self.witness_steps.into()),
            ("proof_path", self.proof_path.as_deref().into()),
            ("queue_wait_ms", self.queue_wait.as_millis().into()),
            ("solve_ms", self.solve_time.as_millis().into()),
            ("attempts", self.attempts.into()),
            ("resumed_from", self.resumed_from.into()),
            ("deferrals", self.deferrals.into()),
            ("downgraded", self.downgraded.into()),
            ("quarantined", self.quarantined.into()),
            ("cached", self.cached.into()),
            ("priority", self.priority.into()),
            (
                "failures",
                Json::Arr(self.failures.iter().map(FailureReport::to_json).collect()),
            ),
            ("winners", Json::Arr(winners.collect())),
            ("stats", self.stats.to_json()),
        ])
    }
}

/// Aggregate of one [`crate::ServiceHandle::run_batch`]: every job's
/// report plus the service-level accounting.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Worker threads the pool ran with.
    pub workers: usize,
    /// Wall-clock time of the whole `run` call.
    pub wall: Duration,
    /// One report per submitted job, in submission order.
    pub jobs: Vec<JobReport>,
    /// All job stats folded with [`RunStats::absorb`]: durations and
    /// solver effort summed, formula sizes and memory peaks maxed.
    pub total: RunStats,
    /// Sum of all jobs' queue waits.
    pub queue_wait_total: Duration,
    /// Sum of all jobs' solve times (≥ `wall` when workers > 1).
    pub solve_total: Duration,
    /// Jobs that ended `Reachable`.
    pub reachable: usize,
    /// Jobs that ended `Unreachable`.
    pub unreachable: usize,
    /// Jobs that ended `Unknown` (budget, cancellation, skips).
    pub unknown: usize,
    /// Jobs whose certificate is fully certified (every decided bound
    /// machine-checked).
    pub jobs_certified: usize,
    /// All job certificates folded with [`Certificate::absorb`]
    /// (`None` when no job carried one).
    pub certificate: Option<Certificate>,
    /// Jobs that needed more than one attempt.
    pub jobs_retried: usize,
    /// The poison list: ids of jobs that exhausted every attempt. Their
    /// reports are still present in [`ServiceReport::jobs`] — nothing
    /// is dropped — this is the index of what needs human attention.
    pub quarantined: Vec<usize>,
    /// Jobs cancelled by the memory-pressure shedder.
    pub jobs_shed: usize,
    /// Portfolio jobs downgraded to a single engine under memory
    /// pressure.
    pub jobs_downgraded: usize,
    /// Jobs answered from the result cache (no solver effort spent).
    pub jobs_cached: usize,
    /// Highest pending-queue depth the run ever reached (0 when the
    /// aggregate was built without queue telemetry).
    pub queue_high_water: usize,
    /// Queue pops by *effective* (post-aging) priority level 0..=9 —
    /// how the scheduler actually spent its pickups.
    pub queue_pops: [u64; 10],
}

impl ServiceReport {
    /// Builds the aggregate from finished job reports.
    pub fn new(workers: usize, wall: Duration, jobs: Vec<JobReport>) -> Self {
        let mut total = RunStats::default();
        let mut queue_wait_total = Duration::ZERO;
        let mut solve_total = Duration::ZERO;
        let (mut reachable, mut unreachable, mut unknown) = (0, 0, 0);
        let mut jobs_certified = 0;
        let mut certificate: Option<Certificate> = None;
        let mut jobs_retried = 0;
        let mut quarantined = Vec::new();
        let mut jobs_shed = 0;
        let mut jobs_downgraded = 0;
        let mut jobs_cached = 0;
        for j in &jobs {
            total.absorb(&j.stats);
            queue_wait_total += j.queue_wait;
            solve_total += j.solve_time;
            match &j.verdict {
                BmcResult::Reachable(_) => reachable += 1,
                BmcResult::Unreachable => unreachable += 1,
                BmcResult::Unknown(r) => {
                    unknown += 1;
                    if r == SHED_REASON {
                        jobs_shed += 1;
                    }
                }
            }
            if j.certificate
                .as_ref()
                .is_some_and(sebmc::Certificate::fully_certified)
            {
                jobs_certified += 1;
            }
            Certificate::fold_into(&mut certificate, j.certificate.as_ref());
            if j.attempts > 1 {
                jobs_retried += 1;
            }
            if j.quarantined {
                quarantined.push(j.job_id);
            }
            if j.downgraded {
                jobs_downgraded += 1;
            }
            if j.cached {
                jobs_cached += 1;
            }
        }
        ServiceReport {
            workers,
            wall,
            jobs,
            total,
            queue_wait_total,
            solve_total,
            reachable,
            unreachable,
            unknown,
            jobs_certified,
            certificate,
            jobs_retried,
            quarantined,
            jobs_shed,
            jobs_downgraded,
            jobs_cached,
            queue_high_water: 0,
            queue_pops: [0; 10],
        }
    }

    /// Attaches the scheduler's queue telemetry (see
    /// [`crate::ServiceHandle::queue_telemetry`]).
    #[must_use]
    pub fn with_queue_telemetry(mut self, high_water: usize, pops: [u64; 10]) -> Self {
        self.queue_high_water = high_water;
        self.queue_pops = pops;
        self
    }

    /// Jobs per second of wall clock (throughput of this run).
    pub fn jobs_per_sec(&self) -> f64 {
        if self.wall.is_zero() {
            return 0.0;
        }
        self.jobs.len() as f64 / self.wall.as_secs_f64()
    }

    /// The whole report as one JSON object (`sebmc batch --json`).
    /// `jobs_per_sec` is rounded to three decimals.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("workers", self.workers.into()),
            ("wall_ms", self.wall.as_millis().into()),
            ("jobs_total", self.jobs.len().into()),
            ("reachable", self.reachable.into()),
            ("unreachable", self.unreachable.into()),
            ("unknown", self.unknown.into()),
            ("jobs_certified", self.jobs_certified.into()),
            (
                "certificate",
                self.certificate.as_ref().map(Certificate::to_json).into(),
            ),
            ("jobs_retried", self.jobs_retried.into()),
            ("jobs_quarantined", self.quarantined.len().into()),
            (
                "quarantined",
                Json::Arr(self.quarantined.iter().map(|&id| id.into()).collect()),
            ),
            ("jobs_shed", self.jobs_shed.into()),
            ("jobs_downgraded", self.jobs_downgraded.into()),
            ("jobs_cached", self.jobs_cached.into()),
            ("queue_high_water", self.queue_high_water.into()),
            (
                "queue_pops",
                Json::Arr(self.queue_pops.iter().map(|&n| n.into()).collect()),
            ),
            (
                "queue_wait_ms_total",
                self.queue_wait_total.as_millis().into(),
            ),
            ("solve_ms_total", self.solve_total.as_millis().into()),
            (
                "jobs_per_sec",
                Json::Num((self.jobs_per_sec() * 1000.0).round() / 1000.0),
            ),
            ("total_stats", self.total.to_json()),
            (
                "jobs",
                Json::Arr(self.jobs.iter().map(JobReport::to_json).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(verdict: BmcResult) -> JobReport {
        JobReport {
            job_id: 0,
            name: "j".into(),
            model: "m".into(),
            engines: vec!["jsat"],
            verdict,
            bound: None,
            bounds_checked: 1,
            bounds_skipped: 0,
            winners: vec![],
            byte_cap: None,
            stats: RunStats {
                duration: Duration::from_millis(3),
                solver_effort: 5,
                peak_formula_bytes: 100,
                bounds_checked: 1,
                ..RunStats::default()
            },
            certificate: None,
            witness_path: None,
            witness_steps: None,
            queue_wait: Duration::from_millis(1),
            solve_time: Duration::from_millis(2),
            attempts: 1,
            resumed_from: None,
            deferrals: 0,
            downgraded: false,
            quarantined: false,
            failures: Vec::new(),
            proof_path: None,
            cached: false,
            priority: 4,
        }
    }

    #[test]
    fn aggregate_sums_effort_and_maxes_peaks() {
        let mut a = report(BmcResult::Unreachable);
        a.stats.peak_formula_bytes = 50;
        let b = report(BmcResult::Unknown("cancelled".into()));
        let r = ServiceReport::new(2, Duration::from_millis(10), vec![a, b]);
        assert_eq!(r.total.solver_effort, 10);
        assert_eq!(r.total.peak_formula_bytes, 100, "peaks maxed");
        assert_eq!(r.total.bounds_checked, 2);
        assert_eq!((r.reachable, r.unreachable, r.unknown), (0, 1, 1));
        assert_eq!(r.queue_wait_total, Duration::from_millis(2));
    }

    #[test]
    fn json_is_well_formed_and_escapes_reasons() {
        let j = report(BmcResult::Unknown("a \"quoted\" reason".into()));
        let r = ServiceReport::new(1, Duration::from_millis(5), vec![j]);
        let json = r.to_json().to_string();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"workers\":1"));
        assert!(json.contains("\\\"quoted\\\""));
        assert!(json.contains("\"total_stats\":{"));
        assert!(json.contains("\"jobs\":[{"));
        assert!(json.contains("\"peak_proof_bytes\":0"));
        assert!(json.contains("\"certificate\":null"));
        assert!(json.contains("\"witness_path\":null"));
    }

    #[test]
    fn failure_semantics_aggregate_and_render() {
        let mut retried = report(BmcResult::Unreachable);
        retried.attempts = 2;
        retried.resumed_from = Some(3);
        retried.failures.push(FailureReport {
            attempt: 1,
            bound_reached: Some(2),
            reason: "engine panicked: jsat: boom".into(),
            stats: RunStats::default(),
        });
        let mut quarantined = report(BmcResult::Unknown("engine panicked: jsat: boom".into()));
        quarantined.job_id = 1;
        quarantined.attempts = 3;
        quarantined.quarantined = true;
        let mut shed = report(BmcResult::Unknown("shed: memory pressure".into()));
        shed.job_id = 2;
        shed.deferrals = 4;
        let mut downgraded = report(BmcResult::Unreachable);
        downgraded.job_id = 3;
        downgraded.downgraded = true;
        let r = ServiceReport::new(
            2,
            Duration::from_millis(10),
            vec![retried, quarantined, shed, downgraded],
        );
        assert_eq!(r.jobs_retried, 2, "retried + quarantined both retried");
        assert_eq!(r.quarantined, vec![1]);
        assert_eq!(r.jobs_shed, 1);
        assert_eq!(r.jobs_downgraded, 1);
        let json = r.to_json().to_string();
        assert!(json.contains("\"jobs_quarantined\":1"));
        assert!(json.contains("\"quarantined\":[1]"));
        assert!(json.contains("\"jobs_shed\":1"));
        assert!(json.contains("\"jobs_downgraded\":1"));
        assert!(json.contains("\"resumed_from\":3"));
        assert!(json.contains("\"failures\":[{\"attempt\":1,\"bound_reached\":2"));
        assert!(json.contains("engine panicked: jsat: boom"));
    }

    #[test]
    fn cached_jobs_are_counted_and_rendered() {
        let mut hit = report(BmcResult::Unreachable);
        hit.cached = true;
        hit.priority = 9;
        let cold = report(BmcResult::Unreachable);
        let r = ServiceReport::new(1, Duration::from_millis(5), vec![hit, cold]);
        assert_eq!(r.jobs_cached, 1);
        let json = r.to_json().to_string();
        assert!(json.contains("\"jobs_cached\":1"));
        assert!(json.contains("\"cached\":true"));
        assert!(json.contains("\"priority\":9"));
    }

    #[test]
    fn queue_telemetry_rides_the_aggregate() {
        let r = ServiceReport::new(
            1,
            Duration::from_millis(5),
            vec![report(BmcResult::Unreachable)],
        );
        assert_eq!(r.queue_high_water, 0, "zero without telemetry attached");
        let mut pops = [0u64; 10];
        pops[4] = 3;
        pops[9] = 1;
        let r = r.with_queue_telemetry(7, pops);
        assert_eq!(r.queue_high_water, 7);
        let json = r.to_json().to_string();
        assert!(json.contains("\"queue_high_water\":7"));
        assert!(json.contains("\"queue_pops\":[0,0,0,0,3,0,0,0,0,1]"));
    }

    #[test]
    fn certificates_aggregate_across_jobs() {
        let mut a = report(BmcResult::Unreachable);
        a.certificate = Some(Certificate {
            bounds_attempted: 3,
            bounds_certified: 3,
            lemmas_checked: 10,
            proof_bytes: 500,
            ..Certificate::default()
        });
        let mut b = report(BmcResult::Unreachable);
        b.certificate = Some(Certificate {
            bounds_attempted: 2,
            bounds_certified: 1, // one bound escaped certification
            lemmas_checked: 4,
            proof_bytes: 200,
            ..Certificate::default()
        });
        let c = report(BmcResult::Unknown("cancelled".into())); // no cert
        let r = ServiceReport::new(1, Duration::from_millis(5), vec![a, b, c]);
        assert_eq!(r.jobs_certified, 1, "only the fully-certified job");
        let total = r.certificate.as_ref().expect("folded certificate");
        assert_eq!(total.bounds_attempted, 5);
        assert_eq!(total.bounds_certified, 4);
        assert_eq!(total.proof_bytes, 700);
        assert!(!total.fully_certified());
        let json = r.to_json().to_string();
        assert!(json.contains("\"jobs_certified\":1"));
        assert!(json.contains("\"certificate\":{\"certified\":false"));
    }
}
