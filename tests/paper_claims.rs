//! Miniature versions of the paper's headline claims, asserted as
//! tests so regressions in the reproduction's *shape* are caught early.
//! The full-scale runs live in `crates/bench` (see EXPERIMENTS.md).

use sebmc_repro::bmc::{
    encode_qbf_linear, encode_qbf_squaring, encode_unrolled, Budget, Engine, JSat, QbfBackend,
    QbfLinear, Semantics, UnrollSat,
};
use sebmc_repro::model::{builders, suite13_small, Model};
use std::time::Duration;

/// The paper's raw encodings: no static model reduction.
fn unreduced() -> Budget {
    Budget {
        reduce: false,
        ..Budget::default()
    }
}

/// Builds a model in the paper's regime: a transition relation far
/// larger than the state width (`|TR| ≫ n`), as in industrial designs.
fn dense_model() -> Model {
    use sebmc_repro::model::ModelBuilder;
    let mut b = ModelBuilder::new("dense");
    let s = b.state_vars(6, "s");
    let ins = b.inputs(2, "i");
    let mut pool: Vec<_> = s.iter().chain(ins.iter()).copied().collect();
    for g in 0..300usize {
        let x = pool[(g * 7 + 3) % pool.len()];
        let y = pool[(g * 13 + 5) % pool.len()];
        let z = match g % 3 {
            0 => b.aig_mut().and(x, !y),
            1 => b.aig_mut().or(!x, y),
            _ => b.aig_mut().xor(x, y),
        };
        pool.push(z);
    }
    // Each next function folds over a sixth of the pool, so the whole
    // 300-gate cloud is in the transition cone.
    for i in 0..6 {
        let members: Vec<_> = pool.iter().copied().skip(i).step_by(6).collect();
        let mut f = members[0];
        for &g in &members[1..] {
            f = b.aig_mut().xor(f, g);
        }
        b.set_next(i, f);
    }
    let t = b.aig_mut().eq_const(&s, 0b101010);
    b.set_target(t);
    b.build().expect("dense model is well-formed")
}

/// §2 claim: formulation (1) grows by Θ(|TR|) per iteration while
/// formulation (2) grows by Θ(n); with a non-trivial transition
/// relation the unrolled growth must dominate.
#[test]
fn qbf_growth_is_smaller_than_unroll_growth() {
    let model = dense_model();
    assert!(
        model.tr_cone_size() > 40 * model.num_state_vars(),
        "test premise: |TR| must dwarf the state width"
    );
    let growth = |k: usize, f: &dyn Fn(usize) -> usize| f(k + 1) - f(k);
    let unroll_size = |k: usize| encode_unrolled(&model, k).num_literals();
    let qbf_size = |k: usize| encode_qbf_linear(&model, k).formula.matrix().num_literals();
    let gu = growth(6, &unroll_size);
    let gq = growth(6, &qbf_size);
    assert!(
        gq < gu,
        "per-iteration growth: qbf {gq} must be below unroll {gu}"
    );
    // And the QBF growth must be independent of |TR|: compare two models
    // with the same state count but very different TR sizes.
    let small_tr = builders::token_ring(8);
    let big_tr = builders::random_fsm(8, 2, 99);
    let g_small = encode_qbf_linear(&small_tr, 7)
        .formula
        .matrix()
        .num_literals()
        - encode_qbf_linear(&small_tr, 6)
            .formula
            .matrix()
            .num_literals();
    let g_big = encode_qbf_linear(&big_tr, 7)
        .formula
        .matrix()
        .num_literals()
        - encode_qbf_linear(&big_tr, 6)
            .formula
            .matrix()
            .num_literals();
    // Same state width ⇒ identical per-iteration growth, despite the
    // TR size difference.
    assert_eq!(g_small, g_big, "growth must not depend on |TR|");
}

/// §2 claim: the number of universally quantified variables in (2)
/// does not change from iteration to iteration; in (3) it grows with
/// the level count while iterations shrink to log₂ k.
#[test]
fn universal_counts_match_paper() {
    let model = builders::johnson_counter(5);
    let n = model.num_state_vars();
    for k in 2..10 {
        assert_eq!(encode_qbf_linear(&model, k).formula.num_universals(), 2 * n);
    }
    for (k, levels) in [(2usize, 1usize), (4, 2), (8, 3), (16, 4)] {
        let f = encode_qbf_squaring(&model, k).formula;
        assert_eq!(f.num_universals(), 2 * n * levels, "bound {k}");
    }
}

/// §3 claim (the headline table, miniaturized): under a uniform small
/// budget, SAT-based BMC solves at least as many instances as jSAT,
/// and both beat the general-purpose QBF solver by a wide margin.
#[test]
fn solver_ordering_matches_paper_shape() {
    let budget = Budget {
        timeout: Some(Duration::from_millis(150)),
        max_formula_bytes: Some(8_000_000),
        ..unreduced()
    };
    let solves = |engine: &dyn Engine, model: &Model, k: usize| {
        !engine
            .start(model, Semantics::Exactly, budget.clone())
            .check_bound(k)
            .result
            .is_unknown()
    };
    let qbf = QbfLinear::new(QbfBackend::Qdpll);

    let (mut sat_solved, mut jsat_solved, mut qbf_solved, mut total) = (0, 0, 0, 0);
    for model in suite13_small() {
        for k in 1..=6 {
            total += 1;
            sat_solved += usize::from(solves(&UnrollSat, &model, k));
            jsat_solved += usize::from(solves(&JSat::default(), &model, k));
            qbf_solved += usize::from(solves(&qbf, &model, k));
        }
    }
    assert!(
        sat_solved >= jsat_solved,
        "SAT ({sat_solved}) must solve at least as many as jSAT ({jsat_solved}) of {total}"
    );
    assert!(
        jsat_solved > qbf_solved,
        "jSAT ({jsat_solved}) must beat the general-purpose QBF solver ({qbf_solved}) of {total}"
    );
}

/// Title claim: jSAT's in-memory formula is independent of the bound,
/// while the unrolled formula grows linearly, so for large enough
/// bounds jSAT's peak memory is smaller on the same instance.
#[test]
fn jsat_memory_beats_unroll_at_large_bounds() {
    let model = builders::fifo(2);
    let k = 24;
    let stats = |engine: &dyn Engine| {
        engine
            .start(&model, Semantics::Exactly, unreduced())
            .check_bound(k)
            .stats
    };
    let (js, us) = (stats(&JSat::default()), stats(&UnrollSat));
    assert!(
        js.encode_lits < us.encode_lits / 4,
        "jSAT static formula ({}) must be far below the unrolled formula ({})",
        js.encode_lits,
        us.encode_lits
    );
}
