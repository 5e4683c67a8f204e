//! E4 — peak solver memory vs bound: unrolled SAT vs jSAT.
//!
//! The title claim. Both engines decide the same exactly-k instances;
//! we record the peak *live* clause-database size each solver held —
//! since the arena refactor this is an exact byte figure (clause
//! headers included), not a literal-count approximation. Resident
//! memory additionally carries up to 20% not-yet-compacted garbage
//! between GC points (`Solver::clause_db_resident_bytes`). The
//! unrolled formula grows linearly in k; jSAT holds formula (4) plus
//! retired blocking clauses that `simplify()` physically reclaims via
//! the compacting collector.
//!
//! ```text
//! cargo run -p sebmc-bench --release --bin fig_memory -- \
//!     [--max-bound 64] [--step 8] [--timeout-ms 20000]
//! ```

use sebmc::{Engine, JSat, Semantics, UnrollSat};
use sebmc_bench::{budget, flag_u64, Table};
use sebmc_model::builders::{counter_with_reset, gray_counter};

fn main() {
    let max_bound = flag_u64("max-bound", 64) as usize;
    let step = flag_u64("step", 8) as usize;
    let timeout_ms = flag_u64("timeout-ms", 20_000);
    let limits = budget(timeout_ms, 4096);

    for model in [counter_with_reset(4), gray_counter(5)] {
        println!(
            "\n# E4: peak live clause-database bytes on '{}' (exactly-k)\n",
            model.name()
        );
        let mut table = Table::new([
            "k",
            "verdict",
            "unroll peak live B",
            "jsat peak live B",
            "ratio",
            "unroll ms",
            "jsat ms",
        ]);
        let mut k = step;
        while k <= max_bound {
            let uo = UnrollSat
                .start(&model, Semantics::Exactly, limits.clone())
                .check_bound(k);
            let jo = JSat::default()
                .start(&model, Semantics::Exactly, limits.clone())
                .check_bound(k);
            assert!(
                uo.result.agrees_with(&jo.result),
                "engines disagree on {} at {k}",
                model.name()
            );
            let verdict = if uo.result.is_unknown() {
                jo.result.to_string()
            } else {
                uo.result.to_string()
            };
            let ratio = if jo.stats.peak_formula_bytes > 0 {
                format!(
                    "{:.1}x",
                    uo.stats.peak_formula_bytes as f64 / jo.stats.peak_formula_bytes as f64
                )
            } else {
                "-".into()
            };
            table.row([
                k.to_string(),
                verdict,
                uo.stats.peak_formula_bytes.to_string(),
                jo.stats.peak_formula_bytes.to_string(),
                ratio,
                uo.stats.duration.as_millis().to_string(),
                jo.stats.duration.as_millis().to_string(),
            ]);
            k += step;
        }
        table.print();
    }
    println!(
        "\npaper claim (title): the unrolled formula's memory grows with k while\n\
         jSAT's stays near the size of one TR copy — the ratio column should rise\n\
         with k."
    );
}
