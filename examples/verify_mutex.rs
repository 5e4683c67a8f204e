//! Bounded verification of Peterson's mutual-exclusion protocol.
//!
//! The workload the paper's introduction motivates: prove that a
//! protocol never reaches a bad state (here: both processes in their
//! critical section) for every bound up to a horizon, using the
//! space-efficient jSAT procedure, and cross-check with classical
//! SAT-based BMC. A deliberately broken variant shows what a
//! counterexample looks like.
//!
//! Run with:
//! ```text
//! cargo run --release --example verify_mutex
//! ```

use sebmc_repro::bmc::{Budget, Engine, JSat, Semantics, UnrollSat};
use sebmc_repro::model::{builders::peterson, Model, ModelBuilder};

/// A broken "mutex": both processes may enter whenever they like.
fn broken_mutex() -> Model {
    let mut b = ModelBuilder::new("broken-mutex");
    let c0 = b.state_var("crit0");
    let c1 = b.state_var("crit1");
    let want0 = b.input("want0");
    let want1 = b.input("want1");
    b.set_next(0, want0);
    b.set_next(1, want1);
    let both = b.aig_mut().and(c0, c1);
    b.set_target(both);
    b.build()
        .expect("broken mutex is (structurally) well-formed")
}

fn main() {
    let horizon = 12;

    println!("== Peterson's protocol: target = both processes in the critical section ==");
    let model = peterson();
    // One session per engine for the whole horizon: formula (4) plus
    // the failed-state cache persist for jSAT, frames and learnt
    // clauses persist for the incremental unroller.
    let mut jsat = JSat::default().start(&model, Semantics::Exactly, Budget::none());
    let mut unroll = UnrollSat.start(&model, Semantics::Exactly, Budget::none());
    let mut all_safe = true;
    for k in 0..=horizon {
        let a = jsat.check_bound(k);
        let b = unroll.check_bound(k);
        assert!(
            a.result.agrees_with(&b.result),
            "engines disagree at bound {k}"
        );
        if a.result.is_reachable() {
            all_safe = false;
            println!("  bound {k:>2}: VIOLATION");
        } else {
            println!(
                "  bound {k:>2}: safe (jsat: {} conflicts, unroll: {} conflicts)",
                a.stats.solver_effort, b.stats.solver_effort
            );
        }
    }
    assert!(all_safe);
    let (jt, ut) = (jsat.cumulative_stats(), unroll.cumulative_stats());
    println!(
        "  mutual exclusion holds for every bound up to {horizon} \
         (session totals: jsat {} conflicts / peak {} B, unroll {} conflicts / peak {} B).\n",
        jt.solver_effort, jt.peak_formula_bytes, ut.solver_effort, ut.peak_formula_bytes
    );

    println!("== Broken variant: no handshake at all ==");
    let broken = broken_mutex();
    let mut jsat = JSat::default().start(&broken, Semantics::Within, Budget::none());
    for k in 0..=4 {
        let out = jsat.check_bound(k);
        if let Some(trace) = out.result.witness() {
            println!("  bound {k}: violated, witness of length {}:", trace.len());
            for (i, s) in trace.states.iter().enumerate() {
                println!(
                    "    step {i}: crit0={} crit1={}",
                    u8::from(s[0]),
                    u8::from(s[1])
                );
            }
            broken
                .check_trace(trace)
                .expect("counterexample must replay");
            println!("  counterexample replayed through the simulator: OK");
            return;
        }
        println!("  bound {k}: safe so far");
    }
    unreachable!("the broken mutex must fail within 4 steps");
}
