//! E2 — formula size vs bound per formulation (paper §2 "figure").
//!
//! Reproduces the paper's space analysis on a model in its stated
//! regime (`|TR|` much larger than the state width): formulation (1)
//! grows by one `TR` copy per bound, formulation (2) by `O(n)` with a
//! constant number of universal variables, and jSAT's formula (4) does
//! not grow at all.
//!
//! ```text
//! cargo run -p sebmc-bench --release --bin fig_growth -- [--max-bound 32]
//! ```

use sebmc::{encode_qbf_linear, encode_unrolled, Budget, Engine, JSat, Semantics};
use sebmc_bench::{flag_u64, Table};
use sebmc_model::builders::{dense_fsm, round_robin_arbiter};

fn main() {
    let max_bound = flag_u64("max-bound", 32) as usize;
    for model in [dense_fsm(10, 3, 600, 2005), round_robin_arbiter(8)] {
        println!(
            "\n# E2: formula growth on '{}' (n = {}, |TR| cone = {} ANDs)\n",
            model.name(),
            model.num_state_vars(),
            model.tr_cone_size()
        );
        let mut table = Table::new([
            "k",
            "unroll lits",
            "Δ unroll",
            "qbf(2) lits",
            "Δ qbf(2)",
            "#∀ qbf(2)",
            "jsat lits",
        ]);
        let mut prev_u = 0usize;
        let mut prev_q = 0usize;
        // Unreduced, like the encodings it is compared with.
        let unreduced = Budget {
            reduce: false,
            ..Budget::default()
        };
        let jsat_lits = JSat::default()
            .start(&model, Semantics::Exactly, unreduced)
            .check_bound(1)
            .stats
            .encode_lits;
        let mut deltas_u = Vec::new();
        let mut deltas_q = Vec::new();
        for k in 1..=max_bound {
            let u = encode_unrolled(&model, k).num_literals();
            let q = encode_qbf_linear(&model, k);
            let ql = q.formula.matrix().num_literals();
            let du = if k > 1 { u - prev_u } else { 0 };
            let dq = if k > 1 { ql - prev_q } else { 0 };
            if k > 1 {
                deltas_u.push(du);
                deltas_q.push(dq);
            }
            table.row([
                k.to_string(),
                u.to_string(),
                if k > 1 { du.to_string() } else { "-".into() },
                ql.to_string(),
                if k > 1 { dq.to_string() } else { "-".into() },
                q.formula.num_universals().to_string(),
                jsat_lits.to_string(),
            ]);
            prev_u = u;
            prev_q = ql;
        }
        table.print();
        let avg = |v: &[usize]| v.iter().sum::<usize>() as f64 / v.len().max(1) as f64;
        println!(
            "\nmean per-iteration growth: unroll {:.0} lits (≈ one TR copy), \
             qbf(2) {:.0} lits (O(n)), ratio {:.1}×; jSAT flat at {} lits",
            avg(&deltas_u),
            avg(&deltas_q),
            avg(&deltas_u) / avg(&deltas_q).max(1.0),
            jsat_lits
        );
    }
    println!(
        "\npaper claim: \"the formula increase from iteration to iteration does not\n\
         depend on the size of the transition relation\" — the Δ qbf(2) column is\n\
         constant and TR-independent, while Δ unroll tracks |TR|."
    );
}
