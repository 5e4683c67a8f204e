//! Telemetry overhead microbench (PR 10).
//!
//! Two variants of the propagation gate's own workload
//! (`chain_instance(300, 100)` — the `propagation/binary_chain_30k`
//! instance, warmed once so every sample is pure BCP):
//!
//! * `progress_off` — default [`Limits`], no progress sink: the
//!   configuration every existing caller gets, and the one the perf
//!   gate keeps honest against the pre-telemetry `BENCH_pr3.json`
//!   baseline (an uninstalled [`ProgressHandle`] must cost one
//!   `Option` branch at the poll sites and nothing on the BCP loop);
//! * `progress_on` — a live [`Telemetry`] sink installed on the
//!   limits: the cost of sampling. The workload is conflict-free, so
//!   only the solve-exit poll fires — this measures the handle riding
//!   the hot path, which is exactly the regression the gate guards.
//!
//! Results are recorded into `BENCH_pr10.json`; the perf gate treats
//! these workloads as **record-only** (no pre-PR baseline exists for
//! them — the off-path is instead covered by the gated propagation
//! workloads themselves, which run with telemetry absent).

use std::sync::Arc;

use sebmc_bench::microbench::{print_json, run};
use sebmc_bench::workloads::chain_instance;
use sebmc_sat::{Limits, SolveResult};
use sebmc_telemetry::Telemetry;

const SAMPLES: usize = 20;

fn main() {
    println!("# telemetry overhead: binary_chain_30k BCP cascade, telemetry off vs on");

    let (mut s, heads) = chain_instance(300, 100);
    assert_eq!(s.solve_with(&heads), SolveResult::Sat);
    let off = run("telemetry/chain30k_progress_off", 5, SAMPLES, || {
        s.solve_with(&heads)
    });

    let telemetry = Arc::new(Telemetry::new());
    s.set_limits(Limits {
        progress: telemetry.progress_handle(),
        ..Limits::none()
    });
    let on = run("telemetry/chain30k_progress_on", 5, SAMPLES, || {
        s.solve_with(&heads)
    });
    assert!(
        telemetry.metrics.solver_propagations.get() > 0,
        "the sink saw progress samples"
    );

    println!(
        "# live sink {:.2}x over uninstalled handle",
        on.median_ns as f64 / off.median_ns as f64,
    );
    print_json(&[off, on]);
}
