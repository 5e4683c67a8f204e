//! Benches for the three encodings (supports E2/E3): how long it takes
//! to *build* each formulation, per bound.

use sebmc::{encode_qbf_linear, encode_qbf_squaring, encode_unrolled};
use sebmc_bench::microbench::run;
use sebmc_model::builders::{dense_fsm, round_robin_arbiter};

fn main() {
    let model = round_robin_arbiter(6);
    for k in [4usize, 8, 16] {
        run(&format!("encode/unroll/{k}"), 3, 20, || {
            encode_unrolled(&model, k)
        });
        run(&format!("encode/qbf_linear/{k}"), 3, 20, || {
            encode_qbf_linear(&model, k)
        });
        if k.is_power_of_two() {
            run(&format!("encode/qbf_squaring/{k}"), 3, 20, || {
                encode_qbf_squaring(&model, k)
            });
        }
    }

    for gates in [200usize, 800] {
        let model = dense_fsm(8, 2, gates, 7);
        run(
            &format!("encode_tr_scaling/unroll_k8/{gates}"),
            3,
            20,
            || encode_unrolled(&model, 8),
        );
        run(
            &format!("encode_tr_scaling/qbf_linear_k8/{gates}"),
            3,
            20,
            || encode_qbf_linear(&model, 8),
        );
    }
}
