//! Fault-injection drills for the checking service: deterministic
//! failures (`FaultPlan`) driven through the supervisor /
//! retry / quarantine / shedding machinery, asserting the service's
//! failure-semantics contract — every submitted job is reported,
//! retries resume where the sweep stopped, budgets are never exceeded,
//! and degradation is graceful, not silent.

use std::time::Duration;

use sebmc_repro::bmc::{BmcResult, Budget};
use sebmc_repro::logic::fault::FaultPlan;
use sebmc_repro::model::builders::{shift_register, token_ring, traffic_light};
use sebmc_repro::service::{EngineKind, Job, RetryPolicy, ServiceConfig, ServiceHandle};

fn plan(spec: &str) -> FaultPlan {
    spec.parse().expect("valid fault plan")
}

fn budget_with_fault(spec: &str) -> Budget {
    let mut b = Budget::none();
    b.fault = plan(spec);
    b
}

/// A retry policy tuned for tests: immediate-ish backoff.
fn retries(n: u32) -> RetryPolicy {
    RetryPolicy {
        backoff: Duration::from_millis(1),
        ..RetryPolicy::with_retries(n)
    }
}

/// An injected engine panic is contained by the supervisor, the job is
/// retried, and the retry resumes at the first *undecided* bound —
/// bounds already swept are not re-checked. Sibling jobs in the queue
/// are untouched.
#[test]
fn injected_engine_panic_is_retried_and_resumes_at_last_decided_bound() {
    // Engine safe point fires once per check_bound: hits 1 and 2 decide
    // bounds 0 and 1; hit 3 panics at bound 2's entry.
    let crashing = |engine| {
        Job::new(shift_register(4), vec![engine], 8)
            .with_budget(budget_with_fault("panic@engine:3"))
            .with_retry(retries(2))
    };
    let jobs = vec![
        crashing(EngineKind::Unroll),
        Job::new(token_ring(3), vec![EngineKind::Jsat], 4),
        crashing(EngineKind::QbfLinear),
    ];
    let r = ServiceHandle::run_batch(ServiceConfig::with_workers(2), jobs);
    assert_eq!(r.jobs.len(), 3, "no job lost to the injected panic");
    for j in [&r.jobs[0], &r.jobs[2]] {
        let engine = &j.engines[0];
        assert!(
            j.verdict.is_reachable(),
            "{engine}: retry recovered: {}",
            j.verdict
        );
        assert_eq!(j.bound, Some(4), "{engine}");
        assert_eq!(j.attempts, 2, "{engine}: one crash, one clean retry");
        assert_eq!(
            j.resumed_from,
            Some(2),
            "{engine}: bounds 0..=1 were decided before the crash; the retry starts at 2"
        );
        assert_eq!(j.failures.len(), 1, "{engine}");
        assert_eq!(j.failures[0].attempt, 1, "{engine}");
        assert_eq!(j.failures[0].bound_reached, Some(1), "{engine}");
        assert!(
            j.failures[0].reason.contains("injected fault"),
            "{engine}: {}",
            j.failures[0].reason
        );
        assert!(!j.quarantined, "{engine}");
    }
    assert_eq!(r.jobs_retried, 2);
    assert!(r.quarantined.is_empty());
    assert!(r.jobs[1].verdict.is_reachable(), "sibling unaffected");
    assert!(r.jobs[1].failures.is_empty());
}

/// Retries run under whatever wall-clock budget the earlier attempts
/// left over: the job's total solve time stays within the budget it
/// was submitted with, crashes included.
#[test]
fn retries_never_exceed_the_original_budget() {
    let original = Duration::from_secs(5);
    let mut budget = Budget::with_timeout(original);
    budget.fault = plan("panic@engine:1,panic@engine:2");
    let jobs = vec![Job::new(shift_register(3), vec![EngineKind::Unroll], 6)
        .with_budget(budget)
        .with_retry(retries(3))];
    let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
    let j = &r.jobs[0];
    assert!(j.verdict.is_reachable(), "{}", j.verdict);
    assert_eq!(j.attempts, 3, "two injected crashes, then success");
    assert_eq!(j.failures.len(), 2);
    // Both crashes hit bound 0's entry: nothing was decided yet.
    assert_eq!(j.resumed_from, Some(0));
    assert!(
        j.solve_time < original,
        "cumulative attempts {:?} stay within the submitted budget {original:?}",
        j.solve_time
    );
}

/// A job whose every attempt fails is quarantined: reported with the
/// last failure's reason, listed on the service report's poison list,
/// and the rest of the queue keeps draining.
#[test]
fn exhausted_retries_quarantine_the_job() {
    let jobs = vec![
        Job::new(shift_register(4), vec![EngineKind::Unroll], 8)
            .with_budget(budget_with_fault(
                "panic@engine:1,panic@engine:2,panic@engine:3",
            ))
            .with_retry(retries(2)),
        Job::new(traffic_light(), vec![EngineKind::Unroll], 3),
    ];
    let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
    let j = &r.jobs[0];
    assert!(j.quarantined);
    assert_eq!(j.attempts, 3, "all attempts consumed");
    assert_eq!(j.failures.len(), 3, "every attempt left a failure report");
    assert!(
        matches!(&j.verdict, BmcResult::Unknown(reason) if reason.contains("injected fault")),
        "{}",
        j.verdict
    );
    assert_eq!(r.quarantined, vec![0]);
    assert_eq!(r.unknown, 1);
    assert!(r.jobs[1].verdict.is_unreachable(), "queue kept draining");
}

/// An injected *spurious* cancellation (the attempt's child token
/// fires with no shed, no job token, no service token) is retryable —
/// unlike a real cancellation, which is final.
#[test]
fn spurious_cancellation_is_retried_real_cancellation_is_final() {
    let jobs = vec![Job::new(shift_register(3), vec![EngineKind::Unroll], 6)
        .with_budget(budget_with_fault("cancel@engine:2"))
        .with_retry(retries(2))];
    let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
    let j = &r.jobs[0];
    assert!(j.verdict.is_reachable(), "{}", j.verdict);
    assert_eq!(j.attempts, 2);
    assert_eq!(j.failures[0].reason, "spurious cancellation");
    assert_eq!(r.jobs_retried, 1);
}

/// Injected byte-budget exhaustion (`oom`) is a *final* verdict, not a
/// retryable failure: no retry can un-exhaust a memory budget.
#[test]
fn injected_oom_is_reported_as_budget_exhausted_without_retries() {
    let jobs = vec![Job::new(shift_register(4), vec![EngineKind::Unroll], 8)
        .with_budget(budget_with_fault("oom@solver:5"))
        .with_retry(retries(3))];
    let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
    let j = &r.jobs[0];
    assert_eq!(j.verdict, BmcResult::Unknown("budget exhausted".into()));
    assert_eq!(j.attempts, 1, "oom is final, not retried");
    assert!(j.failures.is_empty());
    assert_eq!(r.unknown, 1);
}

/// Memory pressure: a small job blocked behind a stalled uncapped one
/// eventually sheds it. The victim is *reported* as
/// `Unknown("shed: memory pressure")` — never dropped — and the
/// blocked job then runs to a verdict.
#[test]
fn memory_pressure_sheds_the_youngest_running_job() {
    let config = ServiceConfig::with_workers(2).with_max_total_bytes(10_000);
    let jobs = vec![
        // Victim: uncapped (reserves the whole aggregate budget), stalled
        // at its first engine safe point by a 10 s injected delay. The
        // delay polls its cancel token, so the shed interrupts it promptly.
        Job::new(shift_register(4), vec![EngineKind::Unroll], 6)
            .with_budget(budget_with_fault("delay@engine:1:10000")),
        // Contender: capped, but nothing is free until the victim is shed.
        Job::new(token_ring(3), vec![EngineKind::Jsat], 4)
            .with_budget(Budget::with_memory_bytes(8_000)),
    ];
    let r = ServiceHandle::run_batch(config, jobs);
    assert_eq!(r.jobs.len(), 2);
    assert_eq!(
        r.jobs[0].verdict,
        BmcResult::Unknown("shed: memory pressure".into()),
        "victim reported, not dropped"
    );
    assert_eq!(r.jobs_shed, 1);
    let contender = &r.jobs[1];
    assert!(contender.verdict.is_reachable(), "{}", contender.verdict);
    assert!(
        contender.deferrals > 0,
        "the contender waited for admission"
    );
}

/// A portfolio job that cannot fit alongside running work is
/// downgraded to its first engine after repeated deferrals, then
/// admitted — degradation, not starvation.
#[test]
fn blocked_portfolio_job_is_downgraded_to_a_single_engine() {
    let config = ServiceConfig::with_workers(2).with_max_total_bytes(10_000);
    // Holder: capped at 7000 bytes, stalled ~300 ms at its first
    // engine safe point — long enough to force the contender through
    // the downgrade ladder (25 deferrals × 2 ms), short enough to
    // finish normally afterwards.
    let mut holder = Budget::with_memory_bytes(7_000);
    holder.fault = plan("delay@engine:1:300");
    let jobs = vec![
        Job::new(traffic_light(), vec![EngineKind::Unroll], 3).with_budget(holder),
        // Contender: two engines × 3000 bytes = 6000 > the 3000 free;
        // downgraded to one engine it fits.
        Job::new(token_ring(3), vec![EngineKind::Jsat, EngineKind::Unroll], 4)
            .with_budget(Budget::with_memory_bytes(3_000)),
    ];
    let r = ServiceHandle::run_batch(config, jobs);
    assert!(r.jobs[0].verdict.is_unreachable(), "{}", r.jobs[0].verdict);
    let j = &r.jobs[1];
    assert!(j.downgraded, "portfolio shrank under pressure");
    assert_eq!(j.engines.len(), 1, "only the first engine ran");
    assert!(j.verdict.is_reachable(), "{}", j.verdict);
    assert!(j.deferrals >= 25, "went through the deferral ladder");
    assert_eq!(r.jobs_downgraded, 1);
}

/// Satellite: a job cancelled while still queued is reported with its
/// queue wait and a zero solve wall-clock — it never ran.
#[test]
fn job_cancelled_while_queued_reports_wait_and_zero_solve_time() {
    // One worker, and a slow-ish first job so the second is still
    // queued when its token fires.
    let mut first = Budget::none();
    first.fault = plan("delay@engine:1:150");
    let victim = Job::new(shift_register(4), vec![EngineKind::Unroll], 6);
    victim.budget.cancel_token().cancel();
    let jobs = vec![
        Job::new(traffic_light(), vec![EngineKind::Unroll], 3).with_budget(first),
        victim,
    ];
    let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
    assert!(r.jobs[0].verdict.is_unreachable(), "{}", r.jobs[0].verdict);
    let j = &r.jobs[1];
    assert_eq!(j.verdict, BmcResult::Unknown("cancelled".into()));
    assert_eq!(j.solve_time, Duration::ZERO, "the job never ran");
    assert_eq!(j.attempts, 0, "no attempt was started");
    assert!(j.failures.is_empty());
    // Queue wait is reported (it sat behind the delayed first job).
    assert!(
        j.queue_wait >= Duration::from_millis(50),
        "{:?}",
        j.queue_wait
    );
}

/// Satellite: whole-service cancellation fails every still-queued job
/// the same way — reported, zero solve time, queue wait preserved.
#[test]
fn service_cancellation_reports_queued_jobs_with_zero_solve_time() {
    let config = ServiceConfig::with_workers(1);
    let service_token = config.cancel.clone();
    let mut first = Budget::none();
    first.fault = plan("delay@engine:1:10000");
    let jobs = vec![
        Job::new(traffic_light(), vec![EngineKind::Unroll], 3).with_budget(first),
        Job::new(shift_register(4), vec![EngineKind::Unroll], 6),
        Job::new(token_ring(3), vec![EngineKind::Jsat], 4),
    ];
    // Fire the kill switch shortly after the service starts chewing on
    // the stalled first job.
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        service_token.cancel();
    });
    let r = ServiceHandle::run_batch(config, jobs);
    killer.join().unwrap();
    assert_eq!(r.jobs.len(), 3, "every job reported");
    // The running job was interrupted at a safe point.
    assert_eq!(
        r.jobs[0].verdict,
        BmcResult::Unknown("service cancelled".into())
    );
    // The queued jobs never ran.
    for j in &r.jobs[1..] {
        assert_eq!(j.verdict, BmcResult::Unknown("service cancelled".into()));
        assert_eq!(j.solve_time, Duration::ZERO, "job {} never ran", j.job_id);
        assert!(j.queue_wait > Duration::ZERO);
    }
}

/// The ≥8-seed stress matrix: whatever a seeded plan injects — panics,
/// stalls, spurious cancels, byte-budget exhaustion, at any layer —
/// every job produces exactly one report and the service terminates.
/// Seeds can be overridden via `SEBMC_FAULT_SEEDS` (comma-separated)
/// to reproduce a CI failure locally.
#[test]
fn seeded_fault_matrix_never_loses_a_job() {
    let seeds: Vec<u64> = match std::env::var("SEBMC_FAULT_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| t.trim().parse().expect("SEBMC_FAULT_SEEDS: bad seed"))
            .collect(),
        Err(_) => (1..=8).collect(),
    };
    for seed in seeds {
        let plan = FaultPlan::seeded(seed);
        let spec = plan.to_string();
        let models: Vec<(Job, &str)> = vec![
            (
                Job::new(shift_register(4), vec![EngineKind::Unroll], 6),
                "shift",
            ),
            (
                Job::new(token_ring(3), vec![EngineKind::Jsat, EngineKind::Unroll], 4),
                "ring",
            ),
            (Job::new(traffic_light(), vec![EngineKind::Unroll], 3), "tl"),
            (
                Job::new(token_ring(3), vec![EngineKind::QbfLinear], 3),
                "ring-qbf",
            ),
        ];
        let n = models.len();
        let mut jobs = Vec::new();
        for (mut job, _) in models {
            // Each job arms its own copy: independent hit counters.
            job.budget.fault = plan.fresh_copy();
            // Keep injected 10 s+ delays from stalling the matrix: a
            // per-attempt cap turns them into retryable timeouts.
            job.budget.timeout = Some(Duration::from_millis(500));
            job = job.with_retry(RetryPolicy {
                backoff: Duration::from_millis(1),
                jitter_seed: seed,
                ..RetryPolicy::with_retries(2)
            });
            jobs.push(job);
        }
        let r = ServiceHandle::run_batch(ServiceConfig::with_workers(2), jobs);
        assert_eq!(
            r.jobs.len(),
            n,
            "seed {seed} (plan '{spec}') lost a job: {} reports",
            r.jobs.len()
        );
        for j in &r.jobs {
            // Every verdict is one of the documented outcomes; in
            // particular no empty reasons and no unreported panics.
            if let BmcResult::Unknown(reason) = &j.verdict {
                assert!(!reason.is_empty(), "seed {seed}: empty unknown reason");
            }
            assert!(
                j.attempts >= 1,
                "seed {seed} job {}: no attempt recorded",
                j.job_id
            );
        }
    }
}

/// Crash-mid-write drill for the DRAT export path (ISSUE 8): an
/// injected panic kills an attempt while the proof stream is partially
/// written to `--proof-out`; the retry's fresh session re-creates
/// (truncates) the file. The contract is all-or-nothing: either no
/// proof file survives the run, or the surviving file is a complete,
/// uncorrupted stream. Exported files are *standard* binary DRAT
/// (original clauses skipped, finalizations written as additions), so
/// the offline check is byte-level completeness — every byte decodes
/// and the stream ends at a record boundary — while semantic validity
/// comes from `--certify`'s on-the-fly checker teeing off the same
/// stream the file receives.
#[test]
fn proof_export_survives_a_crash_mid_write() {
    use sebmc_repro::proof::{decode_stream, DratDecoder, TAG_ADD, TAG_DELETE};
    let dir = std::env::temp_dir().join(format!("sebmc-drat-crash-{}", std::process::id()));
    // Engine safe point fires once per check_bound: hits 1 and 2
    // decide bounds 0 and 1 (writing proof records along the way);
    // hit 3 panics at bound 2's entry, mid-stream.
    let mut budget = budget_with_fault("panic@engine:3");
    budget.certify = true;
    let jobs = vec![Job::new(traffic_light(), vec![EngineKind::Unroll], 4)
        .with_budget(budget)
        .with_retry(retries(2))];
    let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1).with_proof_dir(&dir), jobs);
    let j = &r.jobs[0];
    assert!(j.verdict.is_unreachable(), "retry recovered: {}", j.verdict);
    assert_eq!(j.attempts, 2, "one crash, one clean retry");
    // The tee'd on-the-fly checker saw the same records the file got:
    // the retry's stream proves every bound it decided.
    let cert = j.certificate.as_ref().expect("certified run");
    assert!(cert.fully_certified(), "{cert:?}");
    let p = j
        .proof_path
        .as_ref()
        .expect("unreachable sweep keeps its proof file");
    let bytes = std::fs::read(p).expect("proof file readable");
    assert!(!bytes.is_empty());

    // Byte level: every byte decodes, nothing is truncated mid-record.
    let mut dec = DratDecoder::new();
    let mut records = 0usize;
    for &b in &bytes {
        if dec.feed(b) {
            records += 1;
            let lits = dec.take_lits();
            dec.recycle(lits);
        }
    }
    assert!(dec.at_boundary(), "stream truncated mid-record");
    assert_eq!(dec.corrupt_bytes(), 0, "stream contains corrupt bytes");
    assert!(records > 0);
    // Standard-DRAT shape: additions and deletions only.
    for (tag, _) in decode_stream(&bytes) {
        assert!(
            tag == TAG_ADD || tag == TAG_DELETE,
            "unexpected record tag {tag} in a standard-DRAT export"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// The complementary outcome of the crash drill: when the crashed
/// attempt is the *last* one (no retries left), the job ends Unknown
/// and the partially-written proof file must not survive — a
/// truncated stream on disk is worse than none.
#[test]
fn exhausted_retries_leave_no_partial_proof_file() {
    let dir = std::env::temp_dir().join(format!("sebmc-drat-crash-gone-{}", std::process::id()));
    let jobs = vec![Job::new(traffic_light(), vec![EngineKind::Unroll], 4)
        .with_budget(budget_with_fault("panic@engine:3,panic@engine:1"))];
    let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1).with_proof_dir(&dir), jobs);
    let j = &r.jobs[0];
    assert!(j.verdict.is_unknown(), "no retries: {}", j.verdict);
    assert!(j.proof_path.is_none());
    let leftovers: Vec<_> = std::fs::read_dir(&dir)
        .map(|d| d.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    assert!(
        leftovers.is_empty(),
        "partial proof left behind: {leftovers:?}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
