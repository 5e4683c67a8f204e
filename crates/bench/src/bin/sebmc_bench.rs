//! `sebmc_bench` — the CI perf-regression gate.
//!
//! Re-runs the propagation and watch-layout microbenches (the exact
//! workloads of `cargo bench --bench propagation`, built from
//! [`sebmc_bench::workloads`]) and compares the fresh medians against
//! the checked-in baselines (`BENCH_pr1.json`, `BENCH_pr3.json`,
//! `BENCH_pr5.json`, `BENCH_pr10.json`). Absolute nanoseconds drift
//! between machines, so
//! the tolerance is deliberately generous: the gate fails only on a
//! **> 1.5×** slowdown against the *slowest* checked-in baseline for
//! each bench.
//!
//! The proof-logging workloads (`proof/*`, PR 5) and the telemetry
//! workloads (`telemetry/*`, PR 10) are **record-only**: they predate
//! no baseline — their job is to document the cost of the feature on
//! vs. off, not to gate. They are measured, printed and written to
//! `--out`, but never fail the run and never exit 2 when a baseline
//! is missing. The **off** configurations are gated indirectly: the
//! propagation/watch workloads above run with no proof sink and no
//! progress sink installed, so a regression in either disabled hot
//! path trips the ordinary gate.
//!
//! ```text
//! sebmc_bench [--samples N] [--tolerance-pct P] [--out FILE]
//! ```
//!
//! * `--samples N` — timed iterations per bench (default 20).
//! * `--tolerance-pct P` — allowed slowdown in percent (default 150,
//!   i.e. fail above 1.5× the baseline median).
//! * `--out FILE` — also write the fresh samples as a JSON array
//!   (uploaded as a CI artifact so regressions can be bisected against
//!   real numbers, and new baselines can be minted from a green run).
//!
//! Exit code: 0 when every bench is within tolerance, 1 otherwise,
//! 2 when no baseline file provides a median for a bench (a rename
//! must update the baselines, not silently skip the gate).

use std::process::ExitCode;

use sebmc_bench::baseline::baseline_median;
use sebmc_bench::microbench::{json_array, run, Sample};
use sebmc_bench::workloads::{chain_instance, churn_instance, pigeonhole_instance};
use sebmc_bench::{flag, flag_u64};
use sebmc_proof::StreamingChecker;
use sebmc_sat::{Limits, SolveResult};
use sebmc_telemetry::Telemetry;

/// The checked-in baseline files, in the order they were minted.
const BASELINE_FILES: [&str; 4] = [
    "BENCH_pr1.json",
    "BENCH_pr3.json",
    "BENCH_pr5.json",
    "BENCH_pr10.json",
];

/// Benches that are measured and recorded but never gate: the PR 5
/// proof-logging and PR 10 telemetry workloads have no pre-feature
/// baseline to regress against (the feature did not exist), so their
/// medians inform only.
const RECORD_ONLY: [&str; 4] = [
    "proof/php76_log_off",
    "proof/php76_log_checked",
    "telemetry/chain30k_progress_off",
    "telemetry/chain30k_progress_on",
];

/// The slowest median any checked-in baseline records for `name`
/// (machines differ; the gate must not fail because the CI runner is
/// slower than the box that minted the tightest baseline).
fn slowest_baseline(docs: &[(String, String)], name: &str) -> Option<u128> {
    docs.iter()
        .filter_map(|(_, json)| baseline_median(json, name))
        .max()
}

fn main() -> ExitCode {
    let samples = flag_u64("samples", 20) as usize;
    let tolerance_pct = flag_u64("tolerance-pct", 150);
    let out_path = flag("out");

    // Locate the baselines from the workspace root or the crate dir.
    let docs: Vec<(String, String)> = BASELINE_FILES
        .iter()
        .filter_map(|f| {
            let candidates = [f.to_string(), format!("../../{f}")];
            candidates
                .iter()
                .find_map(|p| std::fs::read_to_string(p).ok())
                .map(|json| (f.to_string(), json))
        })
        .collect();
    if docs.is_empty() {
        eprintln!("sebmc_bench: no baseline file found (looked for {BASELINE_FILES:?})");
        return ExitCode::from(2);
    }
    eprintln!(
        "sebmc_bench: {} baseline file(s), {} samples/bench, tolerance {}%",
        docs.len(),
        samples,
        tolerance_pct
    );

    // The same three workloads the propagation bench measures.
    let (mut chain, chain_heads) = chain_instance(300, 100);
    assert_eq!(chain.solve_with(&chain_heads), SolveResult::Sat);
    let (mut dense, dense_heads) = chain_instance(1000, 20);
    assert_eq!(dense.solve_with(&dense_heads), SolveResult::Sat);
    let (mut churn, churn_heads) = churn_instance(4000, 8);
    assert_eq!(churn.solve_with(&churn_heads), SolveResult::Sat);
    // Record-only (PR 10): the chain workload again, once with the
    // default uninstalled progress handle and once with a live sink.
    let (mut tel_off, tel_off_heads) = chain_instance(300, 100);
    assert_eq!(tel_off.solve_with(&tel_off_heads), SolveResult::Sat);
    let (mut tel_on, tel_on_heads) = chain_instance(300, 100);
    let telemetry = std::sync::Arc::new(Telemetry::new());
    tel_on.set_limits(Limits {
        progress: telemetry.progress_handle(),
        ..Limits::none()
    });
    assert_eq!(tel_on.solve_with(&tel_on_heads), SolveResult::Sat);

    let fresh: Vec<Sample> = vec![
        run("propagation/binary_chain_30k", 3, samples, || {
            chain.solve_with(&chain_heads)
        }),
        run("propagation/binary_chain_dense_20k", 3, samples, || {
            dense.solve_with(&dense_heads)
        }),
        run("propagation/watch_churn_4k_w8", 3, samples, || {
            churn.solve_with(&churn_heads)
        }),
        // Record-only (PR 5): proof logging off vs. full streaming
        // checking on a conflict-heavy UNSAT instance.
        run("proof/php76_log_off", 3, samples, || {
            let mut s = pigeonhole_instance(7, 6, None);
            assert_eq!(s.solve(), SolveResult::Unsat);
        }),
        run("proof/php76_log_checked", 3, samples, || {
            let mut s = pigeonhole_instance(7, 6, Some(Box::new(StreamingChecker::new())));
            assert_eq!(s.solve(), SolveResult::Unsat);
            assert!(s.proof_certifies(&[]));
        }),
        // Record-only (PR 10): solver progress sampling off vs. on.
        run("telemetry/chain30k_progress_off", 3, samples, || {
            tel_off.solve_with(&tel_off_heads)
        }),
        run("telemetry/chain30k_progress_on", 3, samples, || {
            tel_on.solve_with(&tel_on_heads)
        }),
    ];

    if let Some(path) = &out_path {
        if let Err(e) = std::fs::write(path, format!("{}\n", json_array(&fresh))) {
            eprintln!("sebmc_bench: cannot write '{path}': {e}");
            return ExitCode::from(2);
        }
        eprintln!("sebmc_bench: fresh samples written to {path}");
    }

    let mut failed = false;
    for s in &fresh {
        let record_only = RECORD_ONLY.contains(&s.name.as_str());
        let Some(base) = slowest_baseline(&docs, &s.name) else {
            if record_only {
                eprintln!(
                    "sebmc_bench:  rec {:<40} fresh {:>10} ns (record-only, no baseline)",
                    s.name, s.median_ns
                );
                continue;
            }
            eprintln!(
                "sebmc_bench: FAIL {} — no baseline median in {:?} \
                 (renamed bench? update the baselines)",
                s.name,
                docs.iter().map(|(f, _)| f.as_str()).collect::<Vec<_>>()
            );
            return ExitCode::from(2);
        };
        let limit = base.saturating_mul(tolerance_pct as u128) / 100;
        let ratio = s.median_ns as f64 / base as f64;
        let verdict = if record_only {
            "rec" // measured against its recorded median, never gates
        } else if s.median_ns > limit {
            failed = true;
            "FAIL"
        } else {
            "ok"
        };
        eprintln!(
            "sebmc_bench: {verdict:>4} {:<40} fresh {:>10} ns vs baseline {:>10} ns ({ratio:.2}x, limit {:.2}x)",
            s.name,
            s.median_ns,
            base,
            tolerance_pct as f64 / 100.0
        );
    }
    if failed {
        eprintln!(
            "sebmc_bench: performance regression gate FAILED \
             (>{:.2}x slowdown vs checked-in baselines)",
            tolerance_pct as f64 / 100.0
        );
        ExitCode::from(1)
    } else {
        eprintln!("sebmc_bench: gate passed");
        ExitCode::SUCCESS
    }
}
