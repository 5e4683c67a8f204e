//! E1 — the paper's §3 solved-instance comparison.
//!
//! 13 models × 18 bounds = 234 instances, each attempted by four
//! engines under a per-instance time/memory budget. The paper reports
//! (300 s / 1 GB on 2005 hardware): SAT on (1) solved 184, jSAT solved
//! 143, general-purpose QBF solvers solved 3.
//!
//! ```text
//! cargo run -p sebmc-bench --release --bin table1 -- \
//!     [--timeout-ms 500] [--mem-mb 256] [--max-bound 18]
//! ```
//!
//! Use `--timeout-ms 300000 --mem-mb 1024` for the paper's full
//! protocol (slow).

use std::time::Instant;

use sebmc::Semantics;
use sebmc_bench::{budget, e1_engines, flag_u64, Table};
use sebmc_model::suite13;

fn main() {
    let timeout_ms = flag_u64("timeout-ms", 500);
    let mem_mib = flag_u64("mem-mb", 256);
    let max_bound = flag_u64("max-bound", 18) as usize;
    let limits = budget(timeout_ms, mem_mib);

    println!("# E1: solved instances (paper §3)\n");
    println!(
        "per-instance budget: {timeout_ms} ms / {mem_mib} MiB; bounds 1..={max_bound}; \
         semantics: exactly-k\n"
    );

    let suite = suite13();
    let engines = e1_engines();
    let engine_names: Vec<&'static str> = engines.iter().map(|e| e.name()).collect();
    let mut per_model: Vec<Vec<usize>> = vec![vec![0; engine_names.len()]; suite.len()];
    let mut totals = vec![0usize; engine_names.len()];
    let mut peak_bytes = vec![0usize; engine_names.len()];
    let mut conflicts_detected = 0usize;
    let start = Instant::now();

    for (mi, model) in suite.iter().enumerate() {
        let mut verdicts: Vec<Vec<Option<bool>>> = vec![Vec::new(); max_bound];
        for k in 1..=max_bound {
            for (ei, engine) in engines.iter().enumerate() {
                // A fresh session per instance keeps the runs independent.
                let out = engine
                    .start(model, Semantics::Exactly, limits.clone())
                    .check_bound(k);
                peak_bytes[ei] = peak_bytes[ei].max(out.stats.peak_formula_bytes);
                if !out.result.is_unknown() {
                    per_model[mi][ei] += 1;
                    totals[ei] += 1;
                    verdicts[k - 1].push(Some(out.result.is_reachable()));
                } else {
                    verdicts[k - 1].push(None);
                }
            }
        }
        // Soundness audit: all decided verdicts at a bound must agree.
        for v in &verdicts {
            let decided: Vec<bool> = v.iter().flatten().copied().collect();
            if decided.windows(2).any(|w| w[0] != w[1]) {
                conflicts_detected += 1;
            }
        }
        eprintln!(
            "[{:>5.1?}] {:<22} solved: {:?}",
            start.elapsed(),
            model.name(),
            per_model[mi]
        );
    }

    let mut table = Table::new(
        ["model"]
            .into_iter()
            .map(String::from)
            .chain(engine_names.iter().map(std::string::ToString::to_string)),
    );
    for (mi, model) in suite.iter().enumerate() {
        table.row(
            [model.name().to_string()]
                .into_iter()
                .chain(per_model[mi].iter().map(|c| format!("{c}/{max_bound}"))),
        );
    }
    let total_instances = suite.len() * max_bound;
    table.row(
        [format!("TOTAL (of {total_instances})")]
            .into_iter()
            .chain(totals.iter().map(std::string::ToString::to_string)),
    );
    // Exact peak clause-database bytes (arena-reported, headers
    // included, for the SAT-backed engines) — the paper's 1 GB axis.
    table.row(
        ["peak DB bytes".to_string()]
            .into_iter()
            .chain(peak_bytes.iter().map(std::string::ToString::to_string)),
    );
    println!();
    table.print();

    println!(
        "\npaper (234 instances, 300 s / 1 GB): sat-unroll 184, jsat 143, \
         general-purpose QBF 3"
    );
    println!(
        "shape check: solved(sat-unroll) ≥ solved(jsat) ≫ solved(qbf): {}",
        if totals[0] >= totals[1] && totals[1] > 4 * totals[2].max(totals[3]) {
            "HOLDS"
        } else {
            "REVIEW"
        }
    );
    assert_eq!(conflicts_detected, 0, "engines must never contradict");
    println!("cross-engine verdict conflicts: {conflicts_detected}");
    println!("total wall time: {:?}", start.elapsed());
}
