//! The certification oracle: one seeded sweep over the suite models
//! and the SAT-backed engines asserting that **both verdict
//! polarities** are machine-checked under [`Budget::certify`] —
//! every Unsat bound's streamed DRAT proof passes the internal
//! forward checker, and every Sat bound's witness trace replays
//! through `Model::check_trace`. Deepening sessions and one-shot
//! checks are both covered, plus seeded random models so the sweep is
//! not limited to the hand-built families.

use sebmc_repro::bmc::{BmcResult, Budget, Certificate, Engine, JSat, Semantics, UnrollSat};
use sebmc_repro::model::{builders, explicit, suite, Model};

const MAX_BOUND: usize = 5;

fn engines() -> Vec<Box<dyn Engine>> {
    vec![Box::new(JSat::default()), Box::new(UnrollSat)]
}

fn oracle(model: &Model, k: usize, semantics: Semantics) -> bool {
    match semantics {
        Semantics::Exactly => explicit::reachable_in_exactly(model, k),
        Semantics::Within => explicit::reachable_within(model, k),
    }
}

/// Checks one decided bound's outcome against the oracle and its
/// certificate against the verdict-polarity contract.
fn assert_certified(
    model: &Model,
    engine_name: &str,
    k: usize,
    semantics: Semantics,
    result: &BmcResult,
    cert: Option<&Certificate>,
) {
    let ctx = format!(
        "{} on {} bound {k} ({semantics})",
        engine_name,
        model.name()
    );
    assert!(!result.is_unknown(), "{ctx}: unexpectedly unknown");
    assert_eq!(
        result.is_reachable(),
        oracle(model, k, semantics),
        "{ctx}: verdict disagrees with the explicit-state oracle"
    );
    let cert = cert.unwrap_or_else(|| panic!("{ctx}: no certificate attached"));
    assert!(cert.fully_certified(), "{ctx}: {cert:?}");
    assert_eq!(cert.bounds_attempted, 1, "{ctx}");
    match result {
        BmcResult::Unreachable => {
            assert!(
                cert.unsat_proofs > 0,
                "{ctx}: an Unsat bound must finalize at least one core"
            );
        }
        BmcResult::Reachable(t) => {
            // The engine already certified the replay; re-check here so
            // the oracle test does not trust the flag alone.
            let trace = t.as_ref().expect("SAT engines produce witnesses");
            assert_eq!(model.check_trace(trace), Ok(()), "{ctx}");
        }
        BmcResult::Unknown(_) => unreachable!(),
    }
}

/// Every Unsat bound proof-checked, every Sat bound replayed — one
/// deepening session per (model, engine, semantics) over the small
/// ground-truth suite.
#[test]
fn suite_sweep_certifies_both_polarities_in_sessions() {
    for model in suite::suite13_small() {
        for engine in engines() {
            for semantics in [Semantics::Exactly, Semantics::Within] {
                let mut session =
                    engine.start(&model, semantics, Budget::none().with_certify(true));
                for k in 0..=MAX_BOUND {
                    let out = session.check_bound(k);
                    assert_certified(
                        &model,
                        engine.name(),
                        k,
                        semantics,
                        &out.result,
                        out.certificate.as_ref(),
                    );
                    assert!(
                        out.stats.peak_proof_bytes > 0,
                        "proof bytes reported for {} on {}",
                        engine.name(),
                        model.name()
                    );
                }
            }
        }
    }
}

/// One-shot checks (fresh session per bound) certify exactly like
/// deepening sessions.
#[test]
fn one_shot_checks_are_certified_too() {
    for model in suite::suite13_small() {
        for engine in engines() {
            let budget = Budget::none().with_certify(true);
            for k in [0, 2, 4] {
                let out = engine
                    .start(&model, Semantics::Exactly, budget.clone())
                    .check_bound(k);
                assert_certified(
                    &model,
                    engine.name(),
                    k,
                    Semantics::Exactly,
                    &out.result,
                    out.certificate.as_ref(),
                );
            }
        }
    }
}

/// Seeded random models: the certification contract must hold beyond
/// the hand-built families (random transition structure stresses the
/// proof logging differently — deeper conflicts, more learnt churn).
#[test]
fn seeded_random_models_certify() {
    for seed in [7u64, 1105, 90125] {
        let model = builders::random_fsm(10, 2, seed);
        for engine in engines() {
            let mut session = engine.start(
                &model,
                Semantics::Exactly,
                Budget::none().with_certify(true),
            );
            for k in 0..=4 {
                let out = session.check_bound(k);
                assert_certified(
                    &model,
                    engine.name(),
                    k,
                    Semantics::Exactly,
                    &out.result,
                    out.certificate.as_ref(),
                );
            }
        }
    }
}

/// A default budget keeps certificates off — certification is
/// strictly opt-in.
#[test]
fn certification_is_opt_in() {
    let model = builders::traffic_light();
    for engine in engines() {
        let out = engine
            .start(&model, Semantics::Exactly, Budget::default())
            .check_bound(3);
        assert!(out.result.is_unreachable());
        assert!(out.certificate.is_none(), "{}", engine.name());
        assert_eq!(out.stats.peak_proof_bytes, 0);
    }
}
