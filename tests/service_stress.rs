//! Seeded stress sweep of the checking service: random job mixes,
//! mid-run per-job and whole-service cancellation, and budget-starved
//! jobs — every submitted job must come back as exactly one report,
//! with decided verdicts matching the explicit-state oracle.

use std::time::{Duration, Instant};

use sebmc_repro::bmc::{BmcResult, Budget};
use sebmc_repro::logic::rng::SplitMix64;
use sebmc_repro::model::{builders, explicit, suite::suite13_small};
use sebmc_repro::service::{EngineKind, Job, ServiceConfig, ServiceHandle};

/// Random mixes of models, engine selections, bounds and byte caps,
/// drained on a 3-worker pool. Every job is reported (budget-starved
/// ones as `Unknown`, never dropped) and every decided verdict agrees
/// with the oracle.
#[test]
fn seeded_random_job_mixes_report_every_job_with_oracle_verdicts() {
    let models = suite13_small();
    let mut rng = SplitMix64::new(2005);
    for round in 0..3 {
        let mut jobs = Vec::new();
        let n_jobs = 6 + rng.below(5); // 6..=10
        let mut specs = Vec::new();
        for _ in 0..n_jobs {
            let model = models[rng.below(models.len())].clone();
            let engines = match rng.below(4) {
                0 => vec![EngineKind::Jsat],
                1 => vec![EngineKind::Unroll],
                2 => vec![EngineKind::Jsat, EngineKind::Unroll],
                _ => vec![EngineKind::Unroll, EngineKind::Jsat],
            };
            let max_bound = 1 + rng.below(4); // 1..=4

            // Every fourth job is starved: a byte cap no real encoding
            // fits in. It must surface as Unknown, not vanish.
            let starved = rng.below(4) == 0;
            let budget = if starved {
                Budget::with_memory_bytes(64)
            } else {
                Budget::none()
            };
            specs.push((model.clone(), max_bound, starved));
            jobs.push(Job::new(model, engines, max_bound).with_budget(budget));
        }
        let report = ServiceHandle::run_batch(ServiceConfig::with_workers(3), jobs);
        assert_eq!(
            report.jobs.len(),
            n_jobs,
            "round {round}: every job reported"
        );
        for (i, j) in report.jobs.iter().enumerate() {
            assert_eq!(j.job_id, i, "round {round}: reports in submission order");
            let (model, max_bound, starved) = &specs[i];
            match &j.verdict {
                BmcResult::Reachable(_) => {
                    let b = j.bound.expect("reachable verdicts carry their bound");
                    assert!(
                        explicit::reachable_in_exactly(model, b),
                        "round {round} job {i} ({}): bound {b} not reachable",
                        model.name()
                    );
                    // And it is the *first* reachable bound.
                    for earlier in 0..b {
                        assert!(
                            !explicit::reachable_in_exactly(model, earlier),
                            "round {round} job {i}: earlier bound {earlier} reachable"
                        );
                    }
                }
                BmcResult::Unreachable => {
                    for k in 0..=*max_bound {
                        assert!(
                            !explicit::reachable_in_exactly(model, k),
                            "round {round} job {i} ({}): oracle reaches at {k}",
                            model.name()
                        );
                    }
                }
                BmcResult::Unknown(reason) => {
                    assert!(
                        *starved,
                        "round {round} job {i} ({}): unexpected Unknown ({reason})",
                        model.name()
                    );
                }
            }
        }
        // Aggregate sanity: the wall-clock split covers every job.
        assert_eq!(report.jobs.len(), n_jobs);
        assert!(report.solve_total >= Duration::ZERO);
    }
}

/// Firing one job's own token mid-run aborts that job promptly and
/// leaves its siblings untouched.
#[test]
fn mid_run_job_cancellation_is_prompt_and_isolated() {
    // A genuinely long job: jsat on fifo(3) to bound 10 runs for
    // >100 ms even in release builds.
    let victim = Job::new(builders::fifo(3), vec![EngineKind::Jsat], 10);
    let token = victim.budget.cancel_token();
    let jobs = vec![
        victim,
        Job::new(builders::token_ring(3), vec![EngineKind::Jsat], 4),
    ];
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(25));
        token.cancel();
    });
    let start = Instant::now();
    let report = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
    canceller.join().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "cancellation was not prompt: {:?}",
        start.elapsed()
    );
    assert_eq!(
        report.jobs[0].verdict,
        BmcResult::Unknown("cancelled".into()),
        "the victim reports its cancellation"
    );
    assert!(
        report.jobs[1].verdict.is_reachable(),
        "the sibling is unaffected: {}",
        report.jobs[1].verdict
    );
}

/// Firing the service token mid-run stops the running job at its next
/// safe point and fails the whole remaining queue — with one report
/// per job, nothing dropped.
#[test]
fn mid_run_service_cancellation_reports_the_whole_queue() {
    let config = ServiceConfig::with_workers(1);
    let service_token = config.cancel.clone();
    let mut jobs = vec![Job::new(builders::fifo(3), vec![EngineKind::Jsat], 10)];
    for _ in 0..4 {
        jobs.push(Job::new(builders::token_ring(3), vec![EngineKind::Jsat], 4));
    }
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(25));
        service_token.cancel();
    });
    let start = Instant::now();
    let report = ServiceHandle::run_batch(config, jobs);
    canceller.join().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "service cancellation was not prompt: {:?}",
        start.elapsed()
    );
    assert_eq!(report.jobs.len(), 5, "every queued job reported");
    for j in &report.jobs {
        assert_eq!(
            j.verdict,
            BmcResult::Unknown("service cancelled".into()),
            "job {} verdict: {}",
            j.job_id,
            j.verdict
        );
    }
    // The running job burnt real time; the queued ones never started.
    assert!(report.jobs[0].solve_time > Duration::ZERO);
    assert_eq!(report.jobs[4].solve_time, Duration::ZERO);
}

/// A portfolio job under a starving byte budget still produces a
/// report: `Unknown("budget exhausted")`, not a dropped job and not a
/// hang.
#[test]
fn budget_exhausted_portfolio_jobs_surface_as_unknown() {
    let jobs = vec![
        // Two unrolling sessions race: both hit the byte cap while
        // *encoding* (deterministically — jSAT's constant formula might
        // never trip a byte cap and is no starvation subject).
        Job::new(
            builders::shift_register(16),
            vec![EngineKind::Unroll, EngineKind::Unroll],
            40,
        )
        .with_budget(Budget::with_memory_bytes(128)),
        Job::new(builders::token_ring(3), vec![EngineKind::Jsat], 4),
    ];
    let report = ServiceHandle::run_batch(ServiceConfig::with_workers(2), jobs);
    assert_eq!(report.jobs.len(), 2);
    match &report.jobs[0].verdict {
        BmcResult::Unknown(reason) => {
            assert!(
                reason.contains("budget") || reason.contains("cancelled"),
                "unexpected reason: {reason}"
            );
        }
        other => panic!("expected Unknown, got {other}"),
    }
    assert!(report.jobs[1].verdict.is_reachable());
    assert_eq!(report.unknown, 1);
}
