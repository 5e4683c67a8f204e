//! Jobs: what the service checks, and how job lists are described.
//!
//! A [`Job`] names one bounded-reachability question — a model, a
//! semantics, an engine selection, a bound range to deepen through,
//! and a [`Budget`]. Job lists can be built programmatically
//! ([`suite_jobs`] wraps the built-in benchmark suite) or parsed from
//! a plain-text job file ([`parse_job_file`], a thin wrapper around
//! [`JobSpec::parse_line`](crate::JobSpec::parse_line) — the same
//! [`JobSpec`](crate::JobSpec) that the CLI builds and the wire
//! protocol transmits).

use std::time::Duration;

use sebmc::{
    Budget, CancelToken, Engine, JSat, QbfBackend, QbfLinear, QbfSquaring, Semantics, UnrollSat,
};
use sebmc_model::{suite, Model};

/// The priority a job gets when none is specified: the middle of the
/// 0..=9 range, leaving headroom in both directions.
pub const DEFAULT_PRIORITY: u8 = 4;

/// The engines a job may select. Unlike `Box<dyn Engine>`, the kind is
/// `Copy` and buildable on any worker thread, which is what a queued
/// job needs.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EngineKind {
    /// The paper's special-purpose jSAT procedure (formula (4)).
    Jsat,
    /// Incrementally unrolled classical BMC (formulation (1)).
    Unroll,
    /// Linear QBF encoding on the QDPLL back-end (formulation (2)).
    QbfLinear,
    /// Iterative squaring on the expansion back-end (formulation (3)).
    QbfSquaring,
}

impl EngineKind {
    /// All engine kinds, in CLI order.
    pub const ALL: [EngineKind; 4] = [
        EngineKind::Jsat,
        EngineKind::Unroll,
        EngineKind::QbfLinear,
        EngineKind::QbfSquaring,
    ];

    /// The CLI spelling of this kind.
    pub fn as_str(&self) -> &'static str {
        match self {
            EngineKind::Jsat => "jsat",
            EngineKind::Unroll => "unroll",
            EngineKind::QbfLinear => "qbf-linear",
            EngineKind::QbfSquaring => "qbf-squaring",
        }
    }

    /// Parses a CLI spelling.
    pub fn parse(s: &str) -> Result<EngineKind, String> {
        match s {
            "jsat" => Ok(EngineKind::Jsat),
            "unroll" => Ok(EngineKind::Unroll),
            "qbf-linear" => Ok(EngineKind::QbfLinear),
            "qbf-squaring" => Ok(EngineKind::QbfSquaring),
            other => Err(format!(
                "unknown engine '{other}' (expected jsat|unroll|qbf-linear|qbf-squaring)"
            )),
        }
    }

    /// Parses a comma-separated engine list (at least one entry).
    pub fn parse_list(s: &str) -> Result<Vec<EngineKind>, String> {
        let kinds: Vec<EngineKind> = s
            .split(',')
            .filter(|p| !p.is_empty())
            .map(EngineKind::parse)
            .collect::<Result<_, _>>()?;
        if kinds.is_empty() {
            return Err("empty engine list".into());
        }
        Ok(kinds)
    }

    /// Instantiates the engine.
    pub fn build(&self) -> Box<dyn Engine + Send> {
        match self {
            EngineKind::Jsat => Box::new(JSat::default()),
            EngineKind::Unroll => Box::new(UnrollSat),
            EngineKind::QbfLinear => Box::new(QbfLinear::new(QbfBackend::Qdpll)),
            EngineKind::QbfSquaring => Box::new(QbfSquaring::new(QbfBackend::Expansion)),
        }
    }
}

impl std::fmt::Display for EngineKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// When and how a failed job attempt is retried.
///
/// An attempt *fails* when the engine (or service plumbing) panics,
/// when a spurious cancellation fires the attempt's child token while
/// the job and service tokens are untouched, or when the per-attempt
/// deadline expires with job-level budget still left. Genuine verdicts
/// — decided bounds, job/service cancellations, exhausted job budgets —
/// are never retried.
///
/// Retries resume the deepening sweep at the first *undecided* bound
/// (bounds already decided by earlier attempts are not re-checked) and
/// run under the wall-clock budget *remaining* from the original
/// [`Budget`], so a job's attempts can never consume more than the
/// budget it was submitted with.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first run included); clamped to at least 1.
    pub max_attempts: u32,
    /// Base backoff before attempt `n+1`: `backoff * 2^(n-1)` plus
    /// jitter. The backoff sleep polls the job/service cancel tokens,
    /// so a waiting job stays promptly cancellable.
    pub backoff: Duration,
    /// Seed of the deterministic backoff jitter (SplitMix64); equal
    /// seeds give equal retry schedules.
    pub jitter_seed: u64,
    /// Per-attempt wall-clock cap. An attempt cut short by this (with
    /// job budget remaining) is retried, not failed.
    pub attempt_timeout: Option<Duration>,
    /// Whole-job deadline measured from the moment a worker picks the
    /// job up, backoff included. Expiry is final, never retried.
    pub job_deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::from_millis(10),
            jitter_seed: 0,
            attempt_timeout: None,
            job_deadline: None,
        }
    }
}

impl RetryPolicy {
    /// A policy with `retries` retries after the first attempt.
    pub fn with_retries(retries: u32) -> Self {
        RetryPolicy {
            max_attempts: retries.saturating_add(1),
            ..RetryPolicy::default()
        }
    }

    /// The backoff before the given retry (the delay between attempt
    /// `attempt` failing and attempt `attempt + 1` starting):
    /// exponential in the attempt number, plus up to 50% deterministic
    /// jitter derived from `jitter_seed` and the attempt.
    pub fn backoff_before(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        let base = self.backoff.saturating_mul(1u32 << shift);
        let mut rng =
            sebmc_logic::rng::SplitMix64::new(self.jitter_seed ^ u64::from(attempt) << 32);
        let jitter_ms = (base.as_millis() as u64 / 2).max(1);
        base + Duration::from_millis(rng.next_u64() % jitter_ms)
    }
}

/// One unit of service work: deepen `model` through bounds
/// `0..=max_bound` with the selected engines under `budget`.
///
/// One engine means a plain deepening session; several engines mean
/// **portfolio-level deepening** (every bound raced across live
/// sessions, first decided verdict shared).
///
/// The job's [`Budget::cancel`] token is the *per-job* kill switch:
/// keep a clone ([`Budget::cancel_token`]) before submitting and fire
/// it to abort just this job, whether it is still queued or already
/// running.
#[derive(Clone)]
pub struct Job {
    /// Free-form job label (defaults to the model name).
    pub name: String,
    /// The instance to check.
    pub model: Model,
    /// Exactly-`k` or within-`k` reachability.
    pub semantics: Semantics,
    /// Engine selection; two or more race per bound.
    pub engines: Vec<EngineKind>,
    /// Deepen bounds `0..=max_bound` (stopping at the first reachable).
    pub max_bound: usize,
    /// Per-job budget; the service may *lower* (never raise) its byte
    /// cap during admission.
    pub budget: Budget,
    /// Retry/deadline policy for failed attempts (default: one attempt,
    /// no deadlines).
    pub retry: RetryPolicy,
    /// Scheduling priority, `0` (lowest) ..= `9` (highest, default
    /// [`DEFAULT_PRIORITY`]). The queue ages waiting jobs upward so
    /// low-priority jobs cannot starve.
    pub priority: u8,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("name", &self.name)
            .field("model", &self.model.name())
            .field("semantics", &self.semantics)
            .field("engines", &self.engines)
            .field("max_bound", &self.max_bound)
            .field("budget", &self.budget)
            .finish()
    }
}

impl Job {
    /// A job named after its model, with `Semantics::Exactly` and no
    /// budget limits (fresh cancel token).
    pub fn new(model: Model, engines: Vec<EngineKind>, max_bound: usize) -> Self {
        Job {
            name: model.name().to_string(),
            model,
            semantics: Semantics::Exactly,
            engines,
            max_bound,
            budget: Budget::none(),
            retry: RetryPolicy::default(),
            priority: DEFAULT_PRIORITY,
        }
    }

    /// Returns `self` with the given budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Returns `self` with the given semantics.
    pub fn with_semantics(mut self, semantics: Semantics) -> Self {
        self.semantics = semantics;
        self
    }

    /// Returns `self` with the given retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns `self` with the given scheduling priority (clamped to
    /// 0..=9).
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority.min(9);
        self
    }
}

/// Builds one job per model of the built-in benchmark suite
/// ([`suite::suite13`] or the small ground-truth variant).
///
/// Every job gets a *clone* of `budget` re-armed with a **fresh**
/// cancel token, so firing one job's token never aborts its siblings
/// (a cloned budget would share the flag).
pub fn suite_jobs(
    small: bool,
    engines: &[EngineKind],
    max_bound: usize,
    budget: &Budget,
) -> Vec<Job> {
    let models = if small {
        suite::suite13_small()
    } else {
        suite::suite13()
    };
    models
        .into_iter()
        .map(|m| {
            Job::new(m, engines.to_vec(), max_bound)
                .with_budget(budget.clone().with_cancel(CancelToken::new()))
        })
        .collect()
}

/// Looks a model up by name in the built-in suites (the small
/// ground-truth suite first, then the paper-scale one).
pub fn suite_model(name: &str) -> Option<Model> {
    suite::suite13_small()
        .into_iter()
        .chain(suite::suite13())
        .find(|m| m.name() == name)
}

/// Parses one job per non-comment line of a job file.
///
/// ```text
/// # model            engines        max-bound  options…
/// suite:ring_4       jsat,unroll    6          timeout-ms=5000
/// designs/foo.aag    jsat           20         mem-mb=64 within name=foo-smoke
/// ```
///
/// * `suite:<name>` resolves a built-in suite model by name
///   (`ring_4`, `shift_16`, `traffic`, …); anything else is read as an
///   AIGER file path.
/// * `engines` is a comma-separated subset of
///   `jsat|unroll|qbf-linear|qbf-squaring`; two or more race per bound.
/// * options: `timeout-ms=N`, `mem-mb=N` (budget), `within`
///   (within-`k` semantics), `certify` (machine-check every decided
///   bound), `name=<label>`, `priority=N` (scheduling priority 0–9),
///   `retries=N` (extra attempts after a failed first one),
///   `backoff-ms=N` (base retry backoff), `deadline-ms=N` (whole-job
///   deadline), `attempt-timeout-ms=N` (per-attempt cap), `no-reduce`
///   (skip the static model reduction normally applied at admission).
///
/// Each line parses to a [`crate::JobSpec`] — the same description the
/// CLI builds and the `sebmc serve` wire protocol transmits — and is
/// materialised with [`crate::JobSpec::into_job`]. Malformed lines are
/// errors (with their line number), never silently skipped.
pub fn parse_job_file(text: &str) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let job = crate::JobSpec::parse_line(line)
            .and_then(crate::JobSpec::into_job)
            .map_err(|e| format!("job file line {}: {e}", lineno + 1))?;
        jobs.push(job);
    }
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_kind_round_trips() {
        for k in EngineKind::ALL {
            assert_eq!(EngineKind::parse(k.as_str()), Ok(k));
            assert!(!k.build().name().is_empty());
        }
        assert!(EngineKind::parse("bdd").is_err());
        assert_eq!(
            EngineKind::parse_list("jsat,unroll").unwrap(),
            vec![EngineKind::Jsat, EngineKind::Unroll]
        );
        assert!(EngineKind::parse_list("").is_err());
    }

    #[test]
    fn suite_jobs_have_independent_cancel_tokens() {
        let jobs = suite_jobs(true, &[EngineKind::Jsat], 4, &Budget::none());
        assert_eq!(jobs.len(), 13);
        jobs[0].budget.cancel.cancel();
        assert!(!jobs[1].budget.cancel.is_cancelled());
    }

    #[test]
    fn job_file_parses_suite_models_and_options() {
        let text = "\
# a comment
suite:ring_4 jsat,unroll 6 timeout-ms=5000
suite:traffic unroll 3 within mem-mb=8 name=tl certify
";
        let jobs = parse_job_file(text).unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].model.name(), "ring_4");
        assert_eq!(jobs[0].engines.len(), 2);
        assert_eq!(jobs[0].max_bound, 6);
        assert_eq!(jobs[0].budget.timeout, Some(Duration::from_millis(5000)));
        assert!(!jobs[0].budget.certify);
        assert_eq!(jobs[1].name, "tl");
        assert_eq!(jobs[1].semantics, Semantics::Within);
        assert_eq!(jobs[1].budget.max_formula_bytes, Some(8 * 1024 * 1024));
        assert!(jobs[1].budget.certify);
    }

    #[test]
    fn job_file_parses_retry_options() {
        let jobs = parse_job_file(
            "suite:ring_4 jsat 4 retries=2 deadline-ms=750 attempt-timeout-ms=100\n",
        )
        .unwrap();
        assert_eq!(jobs[0].retry.max_attempts, 3, "retries are extra attempts");
        assert_eq!(jobs[0].retry.job_deadline, Some(Duration::from_millis(750)));
        assert_eq!(
            jobs[0].retry.attempt_timeout,
            Some(Duration::from_millis(100))
        );
        assert!(parse_job_file("suite:ring_4 jsat 4 retries=x\n").is_err());
    }

    #[test]
    fn backoff_is_exponential_deterministic_and_jittered() {
        let p = RetryPolicy {
            max_attempts: 4,
            backoff: Duration::from_millis(8),
            jitter_seed: 7,
            ..RetryPolicy::default()
        };
        let a1 = p.backoff_before(1);
        let a3 = p.backoff_before(3);
        assert!(a1 >= Duration::from_millis(8) && a1 < Duration::from_millis(16));
        assert!(a3 >= Duration::from_millis(32) && a3 < Duration::from_millis(64));
        assert_eq!(a1, p.backoff_before(1), "same seed, same schedule");
        let other = RetryPolicy {
            jitter_seed: 8,
            ..p.clone()
        };
        // Different seeds may collide on one attempt, but not on all.
        assert!(
            (1..=3).any(|a| p.backoff_before(a) != other.backoff_before(a)),
            "jitter must depend on the seed"
        );
    }

    #[test]
    fn job_file_rejects_malformed_lines_with_line_numbers() {
        for (text, needle) in [
            ("suite:ring_4 jsat", "missing max bound"),
            ("suite:ring_4 bdd 4", "unknown engine"),
            ("suite:nope jsat 4", "no built-in suite model"),
            ("suite:ring_4 jsat four", "bad max bound"),
            ("suite:ring_4 jsat 4 frob=1", "unknown option"),
        ] {
            let err = parse_job_file(text).unwrap_err();
            assert!(err.contains("line 1"), "{err}");
            assert!(err.contains(needle), "{err} ~ {needle}");
        }
    }
}
