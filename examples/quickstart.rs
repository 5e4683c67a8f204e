//! Quickstart: check one reachability property with all four engines.
//!
//! A 4-bit counter with reset must first reach its maximum value
//! (15) after exactly 15 steps. We ask each of the paper's four
//! procedures the same bounded question and print what they say.
//!
//! Run with:
//! ```text
//! cargo run --release --example quickstart
//! ```

use std::time::Duration;

use sebmc_repro::bmc::{
    Budget, Engine, JSat, QbfBackend, QbfLinear, QbfSquaring, Semantics, UnrollSat,
};
use sebmc_repro::model::builders::counter_with_reset;

fn main() {
    let model = counter_with_reset(4);
    println!(
        "model: {} ({} state bits, {} inputs, |TR| cone = {} AND gates)\n",
        model.name(),
        model.num_state_vars(),
        model.num_inputs(),
        model.tr_cone_size()
    );

    // The paper's per-instance budget, scaled down from 300 s.
    let budget = Budget {
        timeout: Some(Duration::from_secs(5)),
        max_formula_bytes: Some(40_000_000),
        ..Budget::default()
    };

    let engines: Vec<Box<dyn Engine>> = vec![
        Box::new(UnrollSat),
        Box::new(JSat::default()),
        Box::new(QbfLinear::new(QbfBackend::Qdpll)),
        Box::new(QbfSquaring::new(QbfBackend::Expansion)),
    ];

    for k in [8usize, 15, 16] {
        println!("bound k = {k} (exactly-k semantics):");
        for engine in &engines {
            // A fresh session per question: each gets the whole budget.
            let out = engine
                .start(&model, Semantics::Exactly, budget.clone())
                .check_bound(k);
            println!(
                "  {:<22} -> {:<22} [{:>8.1?}, formula {} lits, effort {}]",
                engine.name(),
                out.result.to_string(),
                out.stats.duration,
                out.stats.encode_lits,
                out.stats.solver_effort,
            );
            if let Some(trace) = out.result.witness() {
                println!("      witness states: {:?}", trace.packed_states());
                assert_eq!(model.check_trace(trace), Ok(()), "witness must replay");
            }
        }
        println!();
    }
    println!("note: the general-purpose QBF engines giving up is the paper's point —");
    println!("      its answer is the special-purpose jSAT procedure.");
}
