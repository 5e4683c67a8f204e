//! Unbounded proofs with k-induction.
//!
//! Bounded model checking alone never *proves* safety — the paper's
//! introduction discusses induction-based methods as the complementary
//! technique (warning that the induction depth can be exponential).
//! This example proves two protocols safe for **all** depths and shows
//! the depth difference the paper alludes to.
//!
//! Run with:
//! ```text
//! cargo run --release --example prove_safety
//! ```

use std::time::Instant;

use sebmc_repro::bmc::{k_induction_run, Budget, InductionResult};
use sebmc_repro::model::builders::{peterson, traffic_light};

fn main() {
    for model in [traffic_light(), peterson()] {
        println!(
            "proving '{}' safe (target: {} state bits)…",
            model.name(),
            model.num_state_vars()
        );
        let start = Instant::now();
        match k_induction_run(&model, 32, &Budget::none()).result {
            InductionResult::Proved { k } => {
                println!(
                    "  PROVED safe at every depth — induction depth {k}, {:?}\n",
                    start.elapsed()
                );
            }
            InductionResult::Falsified { cex } => {
                println!("  UNSAFE — counterexample of length {}\n", cex.len());
            }
            other => println!("  inconclusive: {other:?}\n"),
        }
    }
    println!(
        "note the depth gap: the interlocked traffic light is inductive almost\n\
         immediately, while Peterson needs depth 17 — the paper's caveat that\n\
         induction depth can grow with the model."
    );
}
