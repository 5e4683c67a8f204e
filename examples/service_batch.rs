//! The checking service: a queue of jobs over engine sessions.
//!
//! Submits the small built-in suite twice — once as single-engine
//! deepening jobs, once as per-bound jsat/unroll portfolio races —
//! then drains everything on a 2-worker pool and prints the aggregate
//! `ServiceReport` accounting (queue wait vs solve time, racing effort
//! honestly summed over winners *and* cancelled losers).
//!
//! Run with:
//! ```text
//! cargo run --release --example service_batch
//! ```

use sebmc_repro::bmc::Budget;
use sebmc_repro::service::{suite_jobs, EngineKind, Job, ServiceConfig, ServiceHandle};

fn main() {
    // Single-engine jobs: one live jSAT session per model, deepened
    // bound-by-bound.
    let mut jobs = suite_jobs(true, &[EngineKind::Jsat], 6, &Budget::none());
    // Portfolio jobs: each bound raced across live jsat + unroll
    // sessions; the first decided verdict cancels that bound's loser,
    // whose session survives into the next bound.
    let portfolio = [EngineKind::Jsat, EngineKind::Unroll];
    jobs.extend(
        suite_jobs(true, &portfolio, 6, &Budget::none())
            .into_iter()
            .map(|job| Job {
                name: format!("{}-portfolio", job.name),
                ..job
            }),
    );

    println!("submitting {} jobs; running…\n", jobs.len());
    let config = ServiceConfig::with_workers(2).with_max_job_bytes(64 * 1024 * 1024);
    let report = ServiceHandle::run_batch(config, jobs);

    println!(
        "{:<28} {:<12} {:>7} {:>10} {:>10}  winners",
        "job", "verdict", "bound", "wait", "solve"
    );
    for j in &report.jobs {
        let (verdict, _) = j.verdict_parts();
        let winners: Vec<&str> = j.winners.iter().map(|(_, e)| *e).collect();
        println!(
            "{:<28} {:<12} {:>7} {:>9.1?} {:>9.1?}  {}",
            j.name,
            verdict,
            j.bound.map_or("—".into(), |b| b.to_string()),
            j.queue_wait,
            j.solve_time,
            if winners.is_empty() {
                "—".to_string()
            } else {
                winners.join(",")
            }
        );
    }
    println!(
        "\n{} jobs on {} workers in {:?} ({:.1} jobs/s): \
         {} reachable, {} unreachable, {} unknown",
        report.jobs.len(),
        report.workers,
        report.wall,
        report.jobs_per_sec(),
        report.reachable,
        report.unreachable,
        report.unknown
    );
    println!(
        "total racing effort: {} conflicts/decisions, {} bound checks, peak formula {} B",
        report.total.solver_effort, report.total.bounds_checked, report.total.peak_formula_bytes
    );
    assert_eq!(report.unknown, 0, "the small suite decides everywhere");
}
