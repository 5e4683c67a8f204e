//! E5 — jSAT design-choice ablation.
//!
//! Measures the two refinements jSAT adds to the paper's sketch (both
//! switchable in `JSatConfig`): the failed-state cache and the periodic
//! `simplify()` garbage collection of retired blocking clauses.
//! UNSAT instances are where both matter (full exhaustion).
//!
//! ```text
//! cargo run -p sebmc-bench --release --bin table_ablation -- \
//!     [--timeout-ms 10000] [--bound 10]
//! ```

use sebmc::{Budget, JSatConfig, JSatSession, Semantics, Session};
use sebmc_bench::{budget, flag_u64, Table};
use sebmc_model::builders::{counter_with_enable, peterson, traffic_light};

fn run(
    limits: &Budget,
    config: JSatConfig,
    model: &sebmc_model::Model,
    k: usize,
) -> (String, u64, u64, usize, u128) {
    let mut session = JSatSession::new(model, Semantics::Exactly, config, limits.clone());
    let out = session.check_bound(k);
    (
        out.result.to_string(),
        session.search_stats().sat_calls,
        session.search_stats().cache_hits,
        out.stats.peak_formula_lits,
        out.stats.duration.as_millis(),
    )
}

fn main() {
    let timeout_ms = flag_u64("timeout-ms", 10_000);
    let bound = flag_u64("bound", 10) as usize;
    let limits = budget(timeout_ms, 4096);

    let variants: Vec<(&str, JSatConfig)> = vec![
        ("default (cache + gc)", JSatConfig::default()),
        (
            "no failed-state cache",
            JSatConfig {
                use_failed_cache: false,
                ..JSatConfig::default()
            },
        ),
        (
            "no simplify gc",
            JSatConfig {
                simplify_interval: u64::MAX,
                ..JSatConfig::default()
            },
        ),
        (
            "eager simplify (every pop)",
            JSatConfig {
                simplify_interval: 1,
                ..JSatConfig::default()
            },
        ),
    ];

    for model in [traffic_light(), peterson(), counter_with_enable(6)] {
        println!(
            "\n# E5: jSAT ablation on '{}' at bound {bound} (UNSAT exhaustion)\n",
            model.name()
        );
        let mut table = Table::new([
            "variant",
            "verdict",
            "sat calls",
            "cache hits",
            "peak lits",
            "ms",
        ]);
        for (name, config) in &variants {
            let (verdict, calls, hits, peak, ms) = run(&limits, config.clone(), &model, bound);
            table.row([
                name.to_string(),
                verdict,
                calls.to_string(),
                hits.to_string(),
                peak.to_string(),
                ms.to_string(),
            ]);
        }
        table.print();
    }
    println!(
        "\nreading: without the cache, SAT calls explode combinatorially on UNSAT\n\
         instances; without gc, retired blocking clauses accumulate in peak lits."
    );
}
