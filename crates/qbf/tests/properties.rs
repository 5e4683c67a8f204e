//! Property-based tests for the QBF subsystem: both solvers against
//! brute-force semantics, solver-vs-solver agreement, and QDIMACS
//! round-trips — all on seeded random formulae (dependency-free
//! property style; the case number on failure reproduces the input).

use sebmc_logic::rng::SplitMix64;
use sebmc_logic::{Cnf, Lit, Var};
use sebmc_qbf::{qdimacs, ExpansionSolver, QbfFormula, QbfResult, QdpllSolver, Quantifier};

/// A random closed prenex-CNF formula over 2–6 variables.
fn random_qbf(rng: &mut SplitMix64) -> QbfFormula {
    let vars = rng.range_inclusive(2, 6);
    let mut m = Cnf::with_vars(vars);
    for _ in 0..rng.range_inclusive(1, 9) {
        let len = rng.range_inclusive(1, 3);
        m.add_clause((0..len).map(|_| Var::new(rng.below(vars) as u32).lit(rng.coin())));
    }
    let mut qbf = QbfFormula::new(m);
    let mut quant = if rng.coin() {
        Quantifier::ForAll
    } else {
        Quantifier::Exists
    };
    let mut block = Vec::new();
    for v in 0..vars {
        block.push(Var::new(v as u32));
        if rng.coin() {
            qbf.push_block(quant, std::mem::take(&mut block));
            quant = quant.dual();
        }
    }
    qbf.push_block(quant, block);
    qbf
}

/// A random formula over 2–7 variables in shapes [`random_qbf`] never
/// makes: variables left out of the prefix (free), empty clauses,
/// clauses over universals only, repeated literals and tautologies.
fn random_open_qbf(rng: &mut SplitMix64) -> QbfFormula {
    let vars = rng.range_inclusive(2, 7);
    let mut blocks = Vec::new();
    let mut universals = Vec::new();
    let mut quant = if rng.coin() {
        Quantifier::ForAll
    } else {
        Quantifier::Exists
    };
    let mut block = Vec::new();
    for v in (0..vars).map(|v| Var::new(v as u32)) {
        if rng.below(4) == 0 {
            continue; // free
        }
        if quant == Quantifier::ForAll {
            universals.push(v);
        }
        block.push(v);
        if rng.coin() {
            blocks.push((quant, std::mem::take(&mut block)));
            quant = quant.dual();
        }
    }
    blocks.push((quant, block));
    let random_lit = |rng: &mut SplitMix64| Var::new(rng.below(vars) as u32).lit(rng.coin());
    let mut m = Cnf::with_vars(vars);
    for _ in 0..rng.range_inclusive(1, 9) {
        let len = rng.range_inclusive(1, 4);
        let clause: Vec<Lit> = match rng.below(16) {
            0 => Vec::new(),
            1 | 2 if !universals.is_empty() => (0..len)
                .map(|_| universals[rng.below(universals.len())].lit(rng.coin()))
                .collect(),
            3 => {
                let l = random_lit(rng);
                let mut c: Vec<Lit> = (0..len).map(|_| random_lit(rng)).collect();
                c.extend([l, !l]);
                c
            }
            // Drawn from at most 7 variables, repeats are common.
            _ => (0..len).map(|_| random_lit(rng)).collect(),
        };
        m.add_clause(clause);
    }
    let mut qbf = QbfFormula::new(m);
    for (q, vars) in blocks {
        qbf.push_block(q, vars);
    }
    qbf
}

fn sweep(seed: u64, cases: u64, check: impl Fn(&mut SplitMix64)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(seed ^ (case.wrapping_mul(0x9e37_79b9)));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&mut rng)));
        if let Err(e) = result {
            eprintln!("property failed on case {case} (seed {seed})");
            std::panic::resume_unwind(e);
        }
    }
}

fn bool_result(b: bool) -> QbfResult {
    if b {
        QbfResult::True
    } else {
        QbfResult::False
    }
}

#[test]
fn qdpll_matches_semantics() {
    sweep(0x0D11, 192, |rng| {
        let qbf = random_qbf(rng);
        let expect = qbf.eval_semantic();
        assert_eq!(QdpllSolver::new().solve(&qbf), bool_result(expect));
    });
    sweep(0x0D12, 384, |rng| {
        let qbf = random_open_qbf(rng);
        let expect = qbf.eval_semantic();
        assert_eq!(QdpllSolver::new().solve(&qbf), bool_result(expect));
    });
}

/// Also: existentials that occur in no clause, bound innermost, change
/// neither the truth nor the number of variables the expansion
/// duplicates.
#[test]
fn expansion_matches_semantics() {
    sweep(0xE4A5, 192, |rng| {
        let qbf = random_qbf(rng);
        let expect = bool_result(qbf.eval_semantic());
        let mut solver = ExpansionSolver::new();
        assert_eq!(solver.solve(&qbf), expect);
        let duplicated = solver.stats().duplicated_vars;
        let mut padded = qbf.clone();
        let vars = qbf.matrix().num_vars() as u32;
        padded.push_block(Quantifier::Exists, (vars..vars + 2).map(Var::new));
        assert_eq!(solver.solve(&padded), expect);
        assert_eq!(solver.stats().duplicated_vars, duplicated);
    });
}

#[test]
fn solvers_agree_with_each_other() {
    sweep(0xA64E, 192, |rng| {
        let qbf = random_qbf(rng);
        let a = QdpllSolver::new().solve(&qbf);
        let b = ExpansionSolver::new().solve(&qbf);
        assert_eq!(a, b);
    });
}

#[test]
fn qdimacs_round_trip() {
    sweep(0x4D17, 128, |rng| {
        let mut qbf = random_qbf(rng);
        qbf.close();
        let text = qdimacs::to_string(&qbf);
        let parsed = qdimacs::parse(&text).expect("own output parses");
        assert_eq!(parsed.matrix().clauses(), qbf.matrix().clauses());
        assert_eq!(parsed.prefix(), qbf.prefix());
    });
}

#[test]
fn qdimacs_round_trip_preserves_truth() {
    sweep(0x4D18, 96, |rng| {
        let mut qbf = random_qbf(rng);
        qbf.close();
        let parsed = qdimacs::parse(&qdimacs::to_string(&qbf)).expect("parses");
        assert_eq!(parsed.eval_semantic(), qbf.eval_semantic());
    });
}

/// Duality: prefixing a fresh universal variable that appears
/// nowhere never changes the truth value.
#[test]
fn vacuous_universal_is_neutral() {
    sweep(0xFA11, 128, |rng| {
        let qbf = random_qbf(rng);
        let vars = qbf.matrix().num_vars();
        let expect = qbf.eval_semantic();
        let mut extended = qbf.clone();
        let fresh = Var::new(vars as u32);
        extended.matrix_mut().ensure_vars(vars + 1);
        extended.push_block(Quantifier::ForAll, [fresh]);
        assert_eq!(QdpllSolver::new().solve(&extended), bool_result(expect));
    });
}
