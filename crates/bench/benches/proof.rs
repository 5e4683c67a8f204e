//! Proof-logging overhead microbench (PR 5).
//!
//! Three variants of the same conflict-heavy UNSAT workload
//! (pigeonhole 7→6, built fresh per iteration so incremental state
//! never leaks between samples):
//!
//! * `log_off` — no proof sink: the baseline, and the configuration
//!   the existing perf-regression gate keeps honest (logging disabled
//!   must cost nothing but one `Option` branch at the hook sites);
//! * `log_drat` — a write-only binary-DRAT sink into `io::sink()`:
//!   the pure cost of encoding the event stream;
//! * `log_checked` — the full [`StreamingChecker`]: byte accounting
//!   plus on-the-fly forward checking in bounded batches.
//!
//! Results are recorded into `BENCH_pr5.json`; the perf gate treats
//! these workloads as **record-only** (no pre-PR baseline exists, so
//! they inform rather than gate — see `sebmc_bench`).

use sebmc_bench::microbench::{print_json, run};
use sebmc_bench::workloads::pigeonhole_instance;
use sebmc_proof::{DratWriter, StreamingChecker};
use sebmc_sat::SolveResult;

const PIGEONS: usize = 7;
const HOLES: usize = 6;
const SAMPLES: usize = 20;

fn main() {
    println!("# proof-logging overhead: pigeonhole {PIGEONS}->{HOLES}, build+solve per iteration");

    let off = run("proof/php76_log_off", 3, SAMPLES, || {
        let mut s = pigeonhole_instance(PIGEONS, HOLES, None);
        assert_eq!(s.solve(), SolveResult::Unsat);
        s.stats().conflicts
    });
    let drat = run("proof/php76_log_drat", 3, SAMPLES, || {
        let mut s = pigeonhole_instance(
            PIGEONS,
            HOLES,
            Some(Box::new(DratWriter::new(std::io::sink()))),
        );
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.proof_bytes() > 0);
        s.proof_bytes()
    });
    let checked = run("proof/php76_log_checked", 3, SAMPLES, || {
        let mut s = pigeonhole_instance(PIGEONS, HOLES, Some(Box::new(StreamingChecker::new())));
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.proof_certifies(&[]));
        s.proof_bytes()
    });

    println!(
        "# writer overhead {:.2}x, full checking {:.2}x over logging-off",
        drat.median_ns as f64 / off.median_ns as f64,
        checked.median_ns as f64 / off.median_ns as f64,
    );
    print_json(&[off, drat, checked]);
}
