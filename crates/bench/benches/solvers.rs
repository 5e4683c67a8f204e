//! Benches for the four engines on small instances (supports E1):
//! end-to-end check time per engine, SAT and UNSAT.

use sebmc::{
    BmcOutcome, Budget, Engine, JSat, QbfBackend, QbfLinear, QbfSquaring, Semantics, UnrollSat,
};
use sebmc_bench::microbench::run;
use sebmc_model::builders::{counter_with_reset, token_ring, traffic_light};
use sebmc_model::Model;
use std::time::Duration;

/// Decides one exactly-`k` bound on a fresh session under `budget`.
fn check(engine: &dyn Engine, model: &Model, k: usize, budget: Budget) -> BmcOutcome {
    engine
        .start(model, Semantics::Exactly, budget)
        .check_bound(k)
}

fn main() {
    // Reachable at exactly 3.
    let model = token_ring(4);
    run("solve_reachable_k3/sat_unroll", 3, 20, || {
        check(&UnrollSat, &model, 3, Budget::none())
    });
    run("solve_reachable_k3/jsat", 3, 20, || {
        check(&JSat::default(), &model, 3, Budget::none())
    });
    run("solve_reachable_k3/qbf_linear_qdpll", 3, 20, || {
        check(
            &QbfLinear::new(QbfBackend::Qdpll),
            &model,
            3,
            Budget::none(),
        )
    });
    run(
        "solve_reachable_k3/qbf_squaring_expansion_k4",
        3,
        20,
        || {
            check(
                &QbfSquaring::new(QbfBackend::Expansion),
                &model,
                4,
                Budget::none(),
            )
        },
    );

    // Unreachable at every bound.
    let model = traffic_light();
    run("solve_unsat_k6/sat_unroll", 3, 20, || {
        check(&UnrollSat, &model, 6, Budget::none())
    });
    run("solve_unsat_k6/jsat", 3, 20, || {
        check(&JSat::default(), &model, 6, Budget::none())
    });
    // Memory split of the SAT-backed engines on the UNSAT instance:
    // clause arena vs watch-structure bytes (both exact).
    for (name, engine) in [
        ("sat_unroll", Box::new(UnrollSat) as Box<dyn Engine>),
        ("jsat", Box::new(JSat::default())),
    ] {
        let out = check(engine.as_ref(), &model, 6, Budget::none());
        println!(
            "  {name}: peak clause-db {} B, peak watch storage {} B",
            out.stats.peak_formula_bytes, out.stats.peak_watch_bytes
        );
    }

    // The E1 harness spends most wall time on QBF timeouts; verify the
    // budget check itself is cheap.
    let model = counter_with_reset(4);
    run("qbf_budget_overhead/qdpll_10ms_budget", 2, 10, || {
        let budget = Budget::with_timeout(Duration::from_millis(10));
        check(&QbfLinear::new(QbfBackend::Qdpll), &model, 15, budget)
    });
}
