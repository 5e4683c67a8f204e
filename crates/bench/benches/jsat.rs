//! Benches for jSAT internals (supports E4/E5): cache ablation and
//! memory-relevant workloads.

use sebmc::{BmcOutcome, Budget, Engine, JSat, JSatConfig, Semantics, UnrollSat};
use sebmc_bench::microbench::run;
use sebmc_model::builders::{counter_with_reset, shift_register};
use sebmc_model::Model;

/// Decides one exactly-`k` bound on a fresh session.
fn check(engine: &dyn Engine, model: &Model, k: usize) -> BmcOutcome {
    engine
        .start(model, Semantics::Exactly, Budget::none())
        .check_bound(k)
}

fn main() {
    let model = counter_with_reset(3);
    run("jsat_unsat_exhaustion_k6/with_cache", 2, 10, || {
        check(&JSat::default(), &model, 6)
    });
    let without_cache = JSat::with_config(JSatConfig {
        use_failed_cache: false,
        ..JSatConfig::default()
    });
    run("jsat_unsat_exhaustion_k6/without_cache", 2, 10, || {
        check(&without_cache, &model, 6)
    });

    // E4 companion: the same instance at a deep bound, jSAT vs unroll.
    let model = shift_register(12);
    run("deep_bound_k32/jsat", 2, 10, || {
        check(&JSat::default(), &model, 32)
    });
    run("deep_bound_k32/sat_unroll", 2, 10, || {
        check(&UnrollSat, &model, 32)
    });
    // The paper's memory argument, now including access structures:
    // jSAT's clause database *and* its watch storage stay small at
    // deep bounds while unrolling grows with k.
    let jo = check(&JSat::default(), &model, 32);
    let uo = check(&UnrollSat, &model, 32);
    println!(
        "  k=32 peak bytes (clause-db + watch): jsat {} + {}, unroll {} + {}",
        jo.stats.peak_formula_bytes,
        jo.stats.peak_watch_bytes,
        uo.stats.peak_formula_bytes,
        uo.stats.peak_watch_bytes
    );
}
