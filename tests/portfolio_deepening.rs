//! Portfolio-level deepening: per-bound races over live engine
//! sessions (`DeepeningPortfolio`) — verdict agreement against the
//! explicit-state oracle, loser-cancellation promptness, and honest
//! loser-stats accounting.

use std::time::{Duration, Instant};

use sebmc_repro::bmc::{
    BmcOutcome, BmcResult, Budget, CancelToken, DeepeningPortfolio, Engine, JSat, RunStats,
    Semantics, Session, UnrollSat,
};
use sebmc_repro::model::{builders::token_ring, explicit, suite::suite13_small, Model};
use sebmc_repro::service::{EngineKind, Job, ServiceConfig, ServiceHandle};

fn jsat_unroll() -> Vec<Box<dyn Engine + Send>> {
    vec![Box::new(JSat::default()), Box::new(UnrollSat)]
}

/// Every decided per-bound verdict — the winner's *and* every decided
/// loser entry — must match the explicit-state oracle, on every family
/// of the ground-truth suite.
#[test]
fn per_bound_verdicts_agree_with_the_oracle_across_the_suite() {
    for model in suite13_small() {
        let mut p =
            DeepeningPortfolio::start(&model, Semantics::Exactly, jsat_unroll(), Budget::none());
        for k in 0..=4usize {
            let out = p.check_bound(k);
            assert!(out.supported, "{}: bound {k} unsupported", model.name());
            let expect = explicit::reachable_in_exactly(&model, k);
            for e in &out.entries {
                match &e.outcome.result {
                    BmcResult::Reachable(_) => {
                        assert!(
                            expect,
                            "{} bound {k}: {} says reachable",
                            model.name(),
                            e.engine
                        );
                    }
                    BmcResult::Unreachable => {
                        assert!(
                            !expect,
                            "{} bound {k}: {} says unreachable",
                            model.name(),
                            e.engine
                        );
                    }
                    // Cancelled losers decided nothing — that is fine.
                    BmcResult::Unknown(_) => {}
                }
            }
            let winner = out
                .winning_entry()
                .unwrap_or_else(|| panic!("{} bound {k}: nobody decided", model.name()));
            assert_eq!(
                winner.outcome.result.is_reachable(),
                expect,
                "{} bound {k}: shared verdict wrong",
                model.name()
            );
        }
    }
}

/// A deliberately slow engine whose session survives cancellation: it
/// sleeps in 2 ms slices polling its budget, for up to 30 s per bound.
/// Its effort is its running check count, so a test can tell one
/// surviving session from fresh ones.
struct SlowEngine;
struct SlowSession {
    budget: Budget,
    started: Instant,
    total: RunStats,
}

impl Engine for SlowEngine {
    fn name(&self) -> &'static str {
        "slow"
    }
    fn start(&self, _m: &Model, _s: Semantics, budget: Budget) -> Box<dyn Session> {
        Box::new(SlowSession {
            budget,
            started: Instant::now(),
            total: RunStats::default(),
        })
    }
}

impl Session for SlowSession {
    fn name(&self) -> &'static str {
        "slow"
    }
    fn semantics(&self) -> Semantics {
        Semantics::Exactly
    }
    fn check_bound(&mut self, _k: usize) -> BmcOutcome {
        let call = Instant::now();
        let deadline = call + Duration::from_secs(30);
        let result = loop {
            if Instant::now() >= deadline {
                break BmcResult::Unreachable;
            }
            if self.budget.expired(self.started) {
                break BmcResult::Unknown(self.budget.unknown_reason());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let stats = RunStats {
            duration: call.elapsed(),
            solver_effort: self.total.bounds_checked as u64 + 1,
            bounds_checked: 1,
            ..RunStats::default()
        };
        self.total.absorb(&stats);
        BmcOutcome::new(result, stats)
    }
    fn set_cancel(&mut self, token: CancelToken) {
        self.budget.cancel = token;
    }
    fn cumulative_stats(&self) -> RunStats {
        self.total.clone()
    }
}

/// Loser-cancellation promptness: each raced bound must return in
/// roughly the fast engine's time (not the sleeper's 30 s), and the
/// cancelled sleeper must survive into the next bound with its session
/// state intact.
#[test]
fn losers_are_cancelled_promptly_and_survive_across_bounds() {
    let model = token_ring(4);
    let engines: Vec<Box<dyn Engine + Send>> = vec![Box::new(UnrollSat), Box::new(SlowEngine)];
    let mut p = DeepeningPortfolio::start(&model, Semantics::Exactly, engines, Budget::none());
    let mut slow_effort = 0;
    for k in 0..3usize {
        let start = Instant::now();
        let out = p.check_bound(k);
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(10),
            "bound {k} raced for {elapsed:?}: loser cancellation not prompt"
        );
        assert!(out.verdict().is_unreachable(), "bound {k}");
        assert_eq!(
            out.entries[1].outcome.result,
            BmcResult::Unknown("cancelled".into()),
            "bound {k}: the sleeper must have been cancelled, not finished"
        );
        // Its burnt time is visible in the entry the sweep folds.
        let loser = &out.entries[1];
        assert_eq!(loser.engine, "slow");
        assert!(loser.outcome.stats.duration > Duration::ZERO, "bound {k}");
        assert_eq!(loser.outcome.stats.bounds_checked, 1, "bound {k}");
        slow_effort = loser.outcome.stats.solver_effort;
    }
    // Three races → the *same* slow session made three checks (a fresh
    // session per bound would report one).
    assert_eq!(slow_effort, 3, "loser session survived");
}

/// Racing effort is accounted honestly end-to-end: a service job run
/// as a two-engine portfolio must report *more* bound checks than the
/// bounds it decided (the cancelled losers' work rides along).
#[test]
fn job_reports_count_the_losers_racing_effort() {
    let jobs = vec![Job::new(
        token_ring(4),
        vec![EngineKind::Jsat, EngineKind::Unroll],
        6,
    )];
    let r = ServiceHandle::run_batch(ServiceConfig::with_workers(1), jobs);
    let j = &r.jobs[0];
    assert!(j.verdict.is_reachable());
    assert_eq!(j.bound, Some(3));
    assert_eq!(j.bounds_checked, 4, "bounds 0..=3 raced");
    assert!(
        j.stats.bounds_checked > j.bounds_checked,
        "portfolio stats ({}) must include loser replies beyond the {} decided bounds",
        j.stats.bounds_checked,
        j.bounds_checked
    );
}
