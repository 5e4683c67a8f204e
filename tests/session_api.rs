//! Integration tests of the session API: cooperative cancellation,
//! session-vs-one-shot agreement, and the solver-state reuse that the
//! deepening loop buys.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sebmc_repro::bmc::{
    BmcResult, Budget, DeepeningPortfolio, Engine, JSat, QbfBackend, QbfLinear, QbfSquaring,
    Semantics, SweepProgress, UnrollSat,
};
use sebmc_repro::model::builders::{counter_with_enable, shift_register, token_ring};
use sebmc_repro::model::{explicit, suite13_small};
use sebmc_repro::telemetry::{Progress, ProgressHandle, ProgressSink};

/// Every engine must notice a token that fired *before* the check even
/// started, without doing any real work.
#[test]
fn pre_fired_token_returns_unknown_immediately() {
    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(UnrollSat),
        Box::new(JSat::default()),
        Box::new(QbfLinear::new(QbfBackend::Qdpll)),
        Box::new(QbfSquaring::new(QbfBackend::Expansion)),
    ];
    let model = shift_register(6);
    for engine in &engines {
        let budget = Budget::none();
        budget.cancel.cancel();
        let start = Instant::now();
        let mut session = engine.start(&model, Semantics::Exactly, budget);
        let out = session.check_bound(4);
        assert!(
            out.result.is_unknown(),
            "{}: expected Unknown, got {}",
            Engine::name(engine.as_ref()),
            out.result
        );
        assert!(
            start.elapsed() < Duration::from_secs(2),
            "{}: pre-fired token must not cost real work",
            Engine::name(engine.as_ref())
        );
    }
}

/// Counts the `bound` progress events, by engine label.
#[derive(Default)]
struct BoundCounter(Mutex<Vec<&'static str>>);

impl ProgressSink for BoundCounter {
    fn progress(&self, _p: &Progress) {}

    fn bound_start(&self, engine: &'static str, _k: usize) {
        self.0.lock().unwrap().push(engine);
    }
}

/// Every engine's `check_bound` passes the engine fault-injection safe
/// point (an injected `oom` ends the bound as `budget exhausted`) and
/// announces the bound to the progress sink exactly once, under the
/// engine's label.
#[test]
fn every_engine_hits_the_engine_safe_point_and_announces_each_bound() {
    let engines: Vec<(Box<dyn Engine>, &str)> = vec![
        (Box::new(UnrollSat), "unroll"),
        (Box::new(JSat::default()), "jsat"),
        (Box::new(QbfLinear::new(QbfBackend::Qdpll)), "qbf-linear"),
        (
            Box::new(QbfSquaring::new(QbfBackend::Expansion)),
            "qbf-squaring",
        ),
    ];
    let model = shift_register(2);
    for (engine, label) in &engines {
        let sink = Arc::new(BoundCounter::default());
        let budget = Budget {
            fault: "oom@engine:1".parse().expect("fault plan"),
            progress: ProgressHandle::new(sink.clone()),
            ..Budget::default()
        };
        let mut session = engine.start(&model, Semantics::Exactly, budget);
        assert_eq!(
            session.check_bound(1).result,
            BmcResult::Unknown("budget exhausted".into()),
            "{label}: the injected oom must stop the first bound"
        );
        assert!(session.check_bound(2).result.is_reachable(), "{label}");
        assert!(session.check_bound(1).result.is_unreachable(), "{label}");
        assert_eq!(*sink.0.lock().unwrap(), vec![*label; 3], "{label}");
    }
}

/// Fires the token 100 ms into a hard check and asserts the engine
/// backs out promptly with `Unknown("cancelled")`.
fn assert_cancels_mid_run(engine: &dyn Engine, model: &sebmc_repro::model::Model, k: usize) {
    // Generous fallback deadline so a broken cancellation path still
    // terminates the test (and fails the elapsed assertion).
    let budget = Budget::with_timeout(Duration::from_secs(120));
    let token = budget.cancel_token();
    let canceller = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(100));
        token.cancel();
    });
    let start = Instant::now();
    let mut session = engine.start(model, Semantics::Exactly, budget);
    let out = session.check_bound(k);
    let elapsed = start.elapsed();
    canceller.join().unwrap();
    assert_eq!(
        out.result,
        sebmc_repro::bmc::BmcResult::Unknown("cancelled".into()),
        "{} did not report cancellation (after {elapsed:?})",
        Engine::name(engine)
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "{} took {elapsed:?} to notice the token",
        Engine::name(engine)
    );
}

#[test]
fn unroll_cancels_mid_run() {
    // Exactly-100 on a 14-bit enable-counter: UNSAT but far beyond the
    // CDCL solver's quick reach.
    assert_cancels_mid_run(&UnrollSat, &counter_with_enable(14), 100);
}

#[test]
fn jsat_cancels_mid_run() {
    // Bound 200 on an 18-bit enable-counter: even a release build
    // needs seconds to decide it, so the token always fires mid-run.
    assert_cancels_mid_run(&JSat::default(), &counter_with_enable(18), 200);
}

#[test]
fn qbf_linear_cancels_mid_run() {
    // QDPLL needs far longer than the cancellation window here (the
    // CLI test relies on the same instance blowing a 50 ms budget).
    assert_cancels_mid_run(&QbfLinear::new(QbfBackend::Qdpll), &shift_register(8), 8);
}

#[test]
fn qbf_squaring_cancels_mid_run() {
    // Squaring at bound 4 carries 2 quantifier alternations; QDPLL
    // search over them is hopeless within the window.
    assert_cancels_mid_run(&QbfSquaring::new(QbfBackend::Qdpll), &shift_register(6), 4);
}

/// A deepening sweep over a session must observe cancellation between
/// bounds too.
#[test]
fn deepening_observes_cancellation() {
    let budget = Budget::none();
    budget.cancel.cancel();
    let model = counter_with_enable(8);
    let engines = vec![Box::new(UnrollSat) as _];
    let mut p = DeepeningPortfolio::start(&model, Semantics::Exactly, engines, budget);
    let verdict = p.sweep(&mut SweepProgress::default(), 1_000);
    assert_eq!(verdict, BmcResult::Unknown("cancelled".into()));
}

/// Session sweeps must give exactly the verdicts of fresh one-shot
/// checks on every model of the small suite, under both semantics —
/// persistent solver state (learnt clauses, caches, retired guards)
/// must never leak into a verdict.
#[test]
fn session_verdicts_match_oneshot_across_suite() {
    let engines: Vec<Box<dyn Engine>> = vec![Box::new(UnrollSat), Box::new(JSat::default())];
    for engine in &engines {
        for semantics in [Semantics::Exactly, Semantics::Within] {
            for model in suite13_small() {
                let mut session = engine.start(&model, semantics, Budget::none());
                for k in 0..=5 {
                    let sess = session.check_bound(k);
                    let oneshot = engine
                        .start(&model, semantics, Budget::none())
                        .check_bound(k);
                    assert!(
                        !sess.result.is_unknown() && !oneshot.result.is_unknown(),
                        "{} gave up on {} at {k}",
                        Engine::name(engine.as_ref()),
                        model.name()
                    );
                    assert_eq!(
                        sess.result.is_reachable(),
                        oneshot.result.is_reachable(),
                        "{} session/one-shot disagree on {} at bound {k} ({semantics})",
                        Engine::name(engine.as_ref()),
                        model.name()
                    );
                    let expect = match semantics {
                        Semantics::Exactly => explicit::reachable_in_exactly(&model, k),
                        Semantics::Within => explicit::reachable_within(&model, k),
                    };
                    assert_eq!(
                        sess.result.is_reachable(),
                        expect,
                        "{} session disagrees with oracle on {} at bound {k} ({semantics})",
                        Engine::name(engine.as_ref()),
                        model.name()
                    );
                    if let Some(t) = sess.result.witness() {
                        assert_eq!(model.check_trace(t), Ok(()));
                    }
                }
            }
        }
    }
}

/// The deepening acceptance criterion: one session over bounds `0..=k`
/// on a token-ring model encodes measurably fewer literals (and needs
/// no more conflicts) than `k + 1` independent one-shot checks, because
/// frames and learnt clauses are reused instead of rebuilt.
#[test]
fn deepening_session_reuses_solver_state() {
    let model = token_ring(4);
    let max_k = 8;

    let mut session = UnrollSat.start(&model, Semantics::Exactly, Budget::none());
    for k in 0..=max_k {
        let out = session.check_bound(k);
        assert!(!out.result.is_unknown());
    }
    let total = session.cumulative_stats();

    let mut oneshot_lits = 0usize;
    let mut oneshot_conflicts = 0u64;
    for k in 0..=max_k {
        let out = UnrollSat
            .start(&model, Semantics::Exactly, Budget::none())
            .check_bound(k);
        oneshot_lits += out.stats.encode_lits;
        oneshot_conflicts += out.stats.solver_effort;
    }

    println!(
        "session: {} lits / {} conflicts; one-shot: {} lits / {} conflicts",
        total.encode_lits, total.solver_effort, oneshot_lits, oneshot_conflicts
    );
    assert!(
        total.encode_lits * 2 < oneshot_lits,
        "session encoded {} lits, one-shots {} — reuse should at least halve it",
        total.encode_lits,
        oneshot_lits
    );
    assert!(
        total.solver_effort <= oneshot_conflicts,
        "session needed {} conflicts, one-shots {}",
        total.solver_effort,
        oneshot_conflicts
    );
}
