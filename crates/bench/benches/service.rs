//! Service throughput microbench — jobs/sec vs worker count, and
//! per-bound portfolio deepening vs the whole-run portfolio.
//!
//! Three questions, all feeding `BENCH_pr4.json`:
//!
//! 1. **Scaling**: how does a queue of 8 comparable solver-bound jobs
//!    (jsat on `fifo(3)`, bounds 0..=10 — ~10⁸ ns of search each)
//!    scale across 1/2/4 workers? (The built-in suites are no scaling
//!    workload: one job dominates their wall clock a hundredfold.)
//! 2. **Overhead**: how fast does the pool drain the 13-job small
//!    suite where every job is trivial (queue/dispatch dominated)?
//! 3. **Portfolio deepening**: on one deepening run to the first
//!    reachable bound, how does racing *live* sessions per bound
//!    (one `DeepeningPortfolio` for the whole run) compare with
//!    whole-run races (a fresh `DeepeningPortfolio`, so fresh sessions,
//!    at every bound)?
//!
//! Run with `cargo bench --bench service`; pass `--json` for a
//! machine-readable summary.

use sebmc::{Budget, DeepeningPortfolio, Engine, JSat, Semantics, UnrollSat};
use sebmc_bench::microbench::{print_json, run, Sample};
use sebmc_model::builders::{fifo, token_ring};
use sebmc_service::{suite_jobs, EngineKind, Job, ServiceConfig, ServiceHandle};

/// Drains `n_jobs` equal-weight jsat jobs (fifo(3), bounds 0..=10, an
/// unreachable sweep with real DFS effort) on `workers` workers once.
fn drain_heavy(n_jobs: usize, workers: usize) -> usize {
    let jobs = (0..n_jobs)
        .map(|i| {
            let mut job = Job::new(fifo(3), vec![EngineKind::Jsat], 10);
            job.name = format!("fifo_3#{i}");
            job
        })
        .collect();
    let report = ServiceHandle::run_batch(ServiceConfig::with_workers(workers), jobs);
    assert_eq!(report.unknown, 0, "fifo(3) sweeps must decide");
    report.jobs.len()
}

/// Drains the 13-job small-suite batch on `workers` workers once.
fn drain_suite(workers: usize) -> usize {
    let jobs = suite_jobs(true, &[EngineKind::Jsat], 6, &Budget::none());
    let report = ServiceHandle::run_batch(ServiceConfig::with_workers(workers), jobs);
    assert_eq!(report.jobs.len(), 13);
    assert_eq!(report.unknown, 0, "the small suite decides everywhere");
    report.jobs.len()
}

fn jsat_unroll() -> Vec<Box<dyn Engine + Send>> {
    vec![Box::new(JSat::default()), Box::new(UnrollSat)]
}

/// One portfolio-level deepening run to the first reachable bound.
fn deepen_per_bound(max_bound: usize) -> usize {
    let model = token_ring(8); // first reachable at bound 7
    let mut p =
        DeepeningPortfolio::start(&model, Semantics::Exactly, jsat_unroll(), Budget::none());
    for k in 0..=max_bound {
        if p.check_bound(k).verdict().is_reachable() {
            return k;
        }
    }
    panic!("token_ring(8) must be reachable within {max_bound}");
}

/// Whole-run races: a fresh portfolio, so fresh sessions, per bound
/// (no state survives between bounds).
fn deepen_whole_run(max_bound: usize) -> usize {
    let model = token_ring(8);
    for k in 0..=max_bound {
        let mut p =
            DeepeningPortfolio::start(&model, Semantics::Exactly, jsat_unroll(), Budget::none());
        if p.check_bound(k).verdict().is_reachable() {
            return k;
        }
    }
    panic!("token_ring(8) must be reachable within {max_bound}");
}

fn main() {
    let json = std::env::args().any(|a| a == "--json");
    let mut samples: Vec<Sample> = Vec::new();

    println!("service scaling: 8 equal-weight jsat jobs (fifo_3, bounds 0..=10)");
    for workers in [1usize, 2, 4] {
        let s = run(&format!("service/heavy8_w{workers}"), 1, 5, || {
            drain_heavy(8, workers)
        });
        let jobs_per_sec = 8.0 * 1e9 / s.median_ns as f64;
        println!("  {workers} workers: {jobs_per_sec:.1} jobs/s (median)");
        samples.push(s);
    }

    println!("\nservice overhead: 13 trivial small-suite jsat jobs, bounds 0..=6");
    for workers in [1usize, 4] {
        let s = run(&format!("service/suite13_small_w{workers}"), 2, 12, || {
            drain_suite(workers)
        });
        let jobs_per_sec = 13.0 * 1e9 / s.median_ns as f64;
        println!("  {workers} workers: {jobs_per_sec:.0} jobs/s (median)");
        samples.push(s);
    }

    println!("\nportfolio deepening to first reachable bound, token_ring(8), jsat+unroll");
    let per_bound = run("portfolio/deepen_per_bound_ring8", 2, 12, || {
        assert_eq!(deepen_per_bound(8), 7);
    });
    let whole_run = run("portfolio/deepen_whole_run_ring8", 2, 12, || {
        assert_eq!(deepen_whole_run(8), 7);
    });
    println!(
        "  per-bound racing over live sessions is {:.2}x vs whole-run races",
        whole_run.median_ns as f64 / per_bound.median_ns as f64
    );
    samples.push(per_bound);
    samples.push(whole_run);

    if json {
        print_json(&samples);
    }
}
