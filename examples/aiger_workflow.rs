//! HWMCC-style AIGER workflow.
//!
//! Exports a benchmark circuit to AIGER (both the ASCII `aag` and the
//! binary `aig` formats), re-imports it, runs bounded model checking on
//! the round-tripped circuit, and replays the witness. This is the
//! interoperability path a downstream user of this library would take
//! with real hardware designs.
//!
//! Run with:
//! ```text
//! cargo run --release --example aiger_workflow
//! ```

use sebmc_repro::aiger;
use sebmc_repro::bmc::{Budget, DeepeningPortfolio, JSat, Semantics, SweepProgress};
use sebmc_repro::model::builders::round_robin_arbiter;

fn main() {
    let model = round_robin_arbiter(4);
    println!(
        "exporting '{}' ({} latches, {} inputs) to AIGER…",
        model.name(),
        model.num_state_vars(),
        model.num_inputs()
    );

    let file = aiger::model_to_aiger(&model).expect("arbiter init is a constant cube");
    let ascii = aiger::to_ascii_string(&file);
    let binary = aiger::to_binary_vec(&file).expect("canonical order");
    println!(
        "  aag: {} bytes, aig: {} bytes ({} AND gates)\n",
        ascii.len(),
        binary.len(),
        file.ands.len()
    );
    println!("--- {} first lines of the aag file ---", 8);
    for line in ascii.lines().take(8) {
        println!("  {line}");
    }
    println!("  …\n");

    // Read the *binary* flavour back and check both parse to the same
    // circuit.
    let parsed_bin = aiger::parse_binary(&binary).expect("binary parses");
    let parsed_ascii = aiger::parse_ascii(&ascii).expect("ascii parses");
    assert_eq!(parsed_bin, parsed_ascii);
    let back = aiger::aiger_to_model(&parsed_bin, "arbiter-from-aiger").expect("convert");

    println!("running iterative-deepening BMC (one jSAT session) on the re-imported circuit…");
    let engines = vec![Box::new(JSat::default()) as _];
    let mut sweep = DeepeningPortfolio::start(&back, Semantics::Exactly, engines, Budget::none());
    let mut progress = SweepProgress::default();
    let verdict = sweep.sweep(&mut progress, 16);
    let trace = verdict.witness().expect("jsat yields a witness");
    let bound = progress.bound.expect("reachable");
    let total = &progress.stats;
    println!("  grant to the last client first reachable at bound {bound}");
    println!(
        "  session totals: {} bounds, {} solver conflicts, peak {} B",
        total.bounds_checked, total.solver_effort, total.peak_formula_bytes
    );
    println!("  witness (packed states): {:?}", trace.packed_states());
    back.check_trace(trace).expect("witness replays");
    println!("  witness replayed through the simulator: OK");
}
