//! The space argument, live: formula size as the bound grows.
//!
//! Prints the size of the formula each formulation keeps in memory for
//! bounds 1..=32 on one mid-size circuit — a miniature of the paper's
//! §2 analysis (experiment E2, `crates/bench`'s `fig_growth` binary,
//! runs the full version):
//!
//! * formulation (1) grows by one `TR` copy per bound,
//! * formulation (2) grows by `O(n)` per bound with a constant number
//!   of universals,
//! * formulation (3) exists only at power-of-two bounds, with `log₂ k`
//!   levels,
//! * jSAT's formula (4) does not grow at all.
//!
//! Run with:
//! ```text
//! cargo run --release --example space_demo
//! ```

use sebmc_repro::bmc::{
    encode_qbf_linear, encode_qbf_squaring, encode_unrolled, Budget, Engine, JSat, Semantics,
};
use sebmc_repro::model::builders::gray_counter;

fn main() {
    let model = gray_counter(5);
    println!(
        "model: {} (n = {} state bits, |TR| cone = {} AND gates)\n",
        model.name(),
        model.num_state_vars(),
        model.tr_cone_size()
    );
    println!(
        "{:>5} | {:>12} | {:>12} {:>6} | {:>12} {:>6} {:>6} | {:>12}",
        "k", "(1) unroll", "(2) linear", "#∀", "(3) squaring", "#∀", "alt", "(4) jSAT"
    );
    println!("{}", "-".repeat(92));

    // jSAT's static formula (4) is bound-independent: its size is in
    // the run stats of any one bound (unreduced, like the encodings).
    let unreduced = Budget {
        reduce: false,
        ..Budget::default()
    };
    let jsat_lits = JSat::default()
        .start(&model, Semantics::Exactly, unreduced)
        .check_bound(1)
        .stats
        .encode_lits;
    for k in 1..=32usize {
        let unrolled = encode_unrolled(&model, k);
        let linear = encode_qbf_linear(&model, k);
        let (sq_lits, sq_univ, sq_alt) = if k.is_power_of_two() {
            let sq = encode_qbf_squaring(&model, k);
            (
                format!("{}", sq.formula.matrix().num_literals()),
                format!("{}", sq.formula.num_universals()),
                format!("{}", sq.formula.num_alternations()),
            )
        } else {
            ("-".into(), "-".into(), "-".into())
        };
        println!(
            "{:>5} | {:>12} | {:>12} {:>6} | {:>12} {:>6} {:>6} | {:>12}",
            k,
            unrolled.num_literals(),
            linear.formula.matrix().num_literals(),
            linear.formula.num_universals(),
            sq_lits,
            sq_univ,
            sq_alt,
            jsat_lits,
        );
    }
    println!(
        "\nliterals ≈ bytes/4; note column (1) growing by a TR copy per row while\n(2) grows by O(n), (3) appears only at powers of two, and (4) is flat."
    );
}
