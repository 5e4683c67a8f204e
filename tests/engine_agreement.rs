//! Cross-engine agreement on the full small benchmark suite.
//!
//! Every engine must agree with the explicit-state ground truth (and
//! hence with every other engine) on all thirteen benchmark families at
//! small bounds, under both semantics. Engines with witness support
//! must produce traces that replay through the concrete simulator.

use sebmc_repro::bmc::{
    BmcOutcome, Budget, Engine, JSat, QbfBackend, QbfLinear, QbfSquaring, Semantics, UnrollSat,
};
use sebmc_repro::model::{explicit, suite13_small, Model};
use std::time::Duration;

const MAX_BOUND: usize = 6;

fn oracle(model: &Model, k: usize, semantics: Semantics) -> bool {
    match semantics {
        Semantics::Exactly => explicit::reachable_in_exactly(model, k),
        Semantics::Within => explicit::reachable_within(model, k),
    }
}

/// Decides one bound on a fresh session under `budget`.
fn check(
    engine: &dyn Engine,
    budget: &Budget,
    model: &Model,
    k: usize,
    semantics: Semantics,
) -> BmcOutcome {
    engine
        .start(model, semantics, budget.clone())
        .check_bound(k)
}

fn assert_engine_matches_oracle(
    engine: &dyn Engine,
    budget: &Budget,
    semantics: Semantics,
    bounds: impl Iterator<Item = usize> + Clone,
    skip_unknown: bool,
) {
    for model in suite13_small() {
        for k in bounds.clone() {
            let out = check(engine, budget, &model, k, semantics);
            if out.result.is_unknown() {
                assert!(
                    skip_unknown,
                    "{} unexpectedly gave up on {} at bound {k}",
                    engine.name(),
                    model.name()
                );
                continue;
            }
            let expect = oracle(&model, k, semantics);
            assert_eq!(
                out.result.is_reachable(),
                expect,
                "{} disagrees with ground truth on {} at bound {k} ({semantics})",
                engine.name(),
                model.name()
            );
            if let Some(trace) = out.result.witness() {
                assert_eq!(
                    model.check_trace(trace),
                    Ok(()),
                    "{} produced an invalid witness on {} at bound {k}",
                    engine.name(),
                    model.name()
                );
                match semantics {
                    Semantics::Exactly => assert_eq!(trace.len(), k),
                    Semantics::Within => assert!(trace.len() <= k),
                }
            }
        }
    }
}

#[test]
fn unroll_sat_matches_oracle_exactly() {
    let none = Budget::none();
    assert_engine_matches_oracle(&UnrollSat, &none, Semantics::Exactly, 0..=MAX_BOUND, false);
}

#[test]
fn unroll_sat_matches_oracle_within() {
    let none = Budget::none();
    assert_engine_matches_oracle(&UnrollSat, &none, Semantics::Within, 0..=MAX_BOUND, false);
}

#[test]
fn jsat_matches_oracle_exactly() {
    let (e, none) = (JSat::default(), Budget::none());
    assert_engine_matches_oracle(&e, &none, Semantics::Exactly, 0..=MAX_BOUND, false);
}

#[test]
fn jsat_matches_oracle_within() {
    let (e, none) = (JSat::default(), Budget::none());
    assert_engine_matches_oracle(&e, &none, Semantics::Within, 0..=MAX_BOUND, false);
}

/// 300 ms and 8 MB per check.
fn small_budget() -> Budget {
    Budget {
        timeout: Some(Duration::from_millis(300)),
        max_formula_bytes: Some(8_000_000),
        ..Budget::default()
    }
}

/// The general-purpose QBF engines are *sound but weak* (the paper's
/// point): whenever they do answer within a small budget, the answer
/// must match the oracle.
#[test]
fn qbf_linear_qdpll_sound_under_budget() {
    let e = QbfLinear::new(QbfBackend::Qdpll);
    let budget = Budget::with_timeout(Duration::from_millis(300));
    assert_engine_matches_oracle(&e, &budget, Semantics::Exactly, 0..=3, true);
}

#[test]
fn qbf_linear_expansion_sound_under_budget() {
    let e = QbfLinear::new(QbfBackend::Expansion);
    assert_engine_matches_oracle(&e, &small_budget(), Semantics::Exactly, 0..=3, true);
}

#[test]
fn qbf_squaring_sound_under_budget() {
    let e = QbfSquaring::new(QbfBackend::Expansion);
    let budget = small_budget();
    for k in [1usize, 2, 4] {
        for model in suite13_small() {
            let out = check(&e, &budget, &model, k, Semantics::Exactly);
            if out.result.is_unknown() {
                continue;
            }
            assert_eq!(
                out.result.is_reachable(),
                explicit::reachable_in_exactly(&model, k),
                "squaring disagrees on {} at bound {k}",
                model.name()
            );
        }
    }
}

/// jSAT and unrolled SAT — the two complete engines — must agree with
/// each other at larger bounds than the oracle can cover (cross-check
/// without ground truth).
#[test]
fn jsat_and_unroll_agree_on_larger_bounds() {
    let none = Budget::none();
    for model in suite13_small() {
        for k in [8usize, 10] {
            let a = check(&JSat::default(), &none, &model, k, Semantics::Exactly).result;
            let b = check(&UnrollSat, &none, &model, k, Semantics::Exactly).result;
            assert!(
                a.agrees_with(&b),
                "jsat={a} vs unroll={b} on {} at bound {k}",
                model.name()
            );
        }
    }
}
