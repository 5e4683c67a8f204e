//! Formulation (3): iterative squaring.
//!
//! `R_k(Z₀,Z_k) = ∃M ∀U,V.
//!    ((U↔Z₀ ∧ V↔M) ∨ (U↔M ∧ V↔Z_k)) → R_{k/2}(U,V)`
//!
//! with `R₁ = TR`. Each halving level shares its two recursive
//! occurrences through one `∀U,V` pair, so `TR` still appears once and
//! only `⌈log₂ k⌉` *iterations* are needed for a complete check — at
//! the price of a growing number of universal variables and one
//! quantifier alternation per level (experiment E3 tabulates this).
//!
//! Only power-of-two bounds are directly expressible; the paper's
//! self-loop trick ([`Model::with_self_loops`]) rounds other bounds up
//! under within-`k` semantics.

use sebmc_logic::{tseitin, Aig, AigRef, Cnf, Lit, Var, VarAlloc};
use sebmc_model::Model;
use sebmc_qbf::{QbfFormula, Quantifier};

use crate::engine::{Budget, Engine, Semantics, Session};
use crate::frame::input_map;
use crate::qbf_enc::{import_tr, QbfBackend, QbfEncoding, QbfSession, QbfShape};

/// Encodes "a target state is reachable in exactly `k` steps" by
/// iterative squaring.
///
/// # Panics
///
/// Panics if `k` is zero or not a power of two.
pub fn encode_qbf_squaring(model: &Model, k: usize) -> QbfEncoding {
    assert!(k >= 1 && k.is_power_of_two(), "squaring needs k = 2^d ≥ 1");
    let d = k.trailing_zeros() as usize;
    let n = model.num_state_vars();
    let m = model.num_inputs();
    let mut g = Aig::new();
    let z0 = g.inputs(n);
    let zk = g.inputs(n);

    struct Level {
        mid: Vec<AigRef>,
        u: Vec<AigRef>,
        v: Vec<AigRef>,
    }
    let levels: Vec<Level> = (0..d)
        .map(|_| Level {
            mid: g.inputs(n),
            u: g.inputs(n),
            v: g.inputs(n),
        })
        .collect();
    let w = g.inputs(m);

    // Innermost: one copy of TR over the deepest (U, V) pair.
    let (ta, tb) = if d == 0 {
        (&z0, &zk)
    } else {
        (&levels[d - 1].u, &levels[d - 1].v)
    };
    let ta = ta.clone();
    let tb = tb.clone();
    let mut body = import_tr(&mut g, model, &ta, &tb, &w);

    // Wrap the halving levels from the innermost out.
    for l in (0..d).rev() {
        let (pa, pb) = if l == 0 {
            (z0.clone(), zk.clone())
        } else {
            (levels[l - 1].u.clone(), levels[l - 1].v.clone())
        };
        let lv = &levels[l];
        let e1a = g.eq_words(&lv.u, &pa);
        let e1b = g.eq_words(&lv.v, &lv.mid);
        let first_half = g.and(e1a, e1b);
        let e2a = g.eq_words(&lv.u, &lv.mid);
        let e2b = g.eq_words(&lv.v, &pb);
        let second_half = g.and(e2a, e2b);
        let ante = g.or(first_half, second_half);
        body = g.implies(ante, body);
    }

    let init_map = input_map(model, &z0, None, AigRef::FALSE);
    let init_root = g.import(model.aig(), &[model.init_ref()], &init_map)[0];
    let target_map = input_map(model, &zk, None, AigRef::FALSE);
    let target_root = g.import(model.aig(), &[model.target_ref()], &target_map)[0];
    let with_init = g.and(body, init_root);
    let matrix_root = g.and(with_init, target_root);

    // Allocate variables in prefix order:
    // ∃(Z0, Zk, M₁) ∀(U₁,V₁) ∃(M₂) ∀(U₂,V₂) … ∃(M_d) ∀(U_d,V_d) ∃(W, aux).
    let mut alloc = VarAlloc::new();
    let mut input_lits: Vec<Lit> = Vec::new();
    let z0_lits = alloc.fresh_lits(n);
    let zk_lits = alloc.fresh_lits(n);
    input_lits.extend(&z0_lits);
    input_lits.extend(&zk_lits);
    // Block boundaries: (exists_vars, forall_vars) pairs per level.
    let mut blocks: Vec<(Quantifier, Vec<Var>)> = Vec::new();
    let mut outer_exists: Vec<Var> = (0..alloc.num_vars()).map(|i| Var::new(i as u32)).collect();
    for _lv in 0..d {
        let mid = alloc.fresh_lits(n);
        input_lits.extend(&mid);
        outer_exists.extend(mid.iter().map(|l| l.var()));
        blocks.push((Quantifier::Exists, std::mem::take(&mut outer_exists)));
        let u = alloc.fresh_lits(n);
        let v = alloc.fresh_lits(n);
        input_lits.extend(&u);
        input_lits.extend(&v);
        blocks.push((
            Quantifier::ForAll,
            u.iter().chain(v.iter()).map(|l| l.var()).collect(),
        ));
    }
    if !outer_exists.is_empty() {
        blocks.push((Quantifier::Exists, std::mem::take(&mut outer_exists)));
    }
    let w_lits = alloc.fresh_lits(m);
    input_lits.extend(&w_lits);
    let inner_start = alloc.num_vars() - m;

    let mut cnf = Cnf::new();
    let root = tseitin::encode(&g, &[matrix_root], &input_lits, &mut alloc, &mut cnf)[0];
    cnf.add_unit(root);
    cnf.ensure_vars(alloc.num_vars());

    let mut formula = QbfFormula::new(cnf);
    for (q, vars) in blocks {
        formula.push_block(q, vars);
    }
    formula.push_block(
        Quantifier::Exists,
        (inner_start..alloc.num_vars()).map(|i| Var::new(i as u32)),
    );
    debug_assert!(formula.validate().is_ok(), "{:?}", formula.validate());

    QbfEncoding {
        formula,
        z_lits: vec![z0_lits, zk_lits],
    }
}

/// Encodes the bound-0 case squaring cannot express, "some initial
/// state is a target state", as the purely existential QBF
/// `∃Z. I(Z) ∧ F(Z)`, so the same back-end decides it.
pub(crate) fn encode_initial_target(model: &Model) -> QbfFormula {
    let n = model.num_state_vars();
    let mut g = Aig::new();
    let z = g.inputs(n);
    let map = input_map(model, &z, None, AigRef::FALSE);
    let init_root = g.import(model.aig(), &[model.init_ref()], &map)[0];
    let target_root = g.import(model.aig(), &[model.target_ref()], &map)[0];
    let both = g.and(init_root, target_root);
    let mut alloc = VarAlloc::new();
    let lits = alloc.fresh_lits(n);
    let mut cnf = Cnf::new();
    let root = tseitin::encode(&g, &[both], &lits, &mut alloc, &mut cnf)[0];
    cnf.add_unit(root);
    cnf.ensure_vars(alloc.num_vars());
    QbfFormula::new(cnf)
}

/// Formulation (3) engine: iterative-squaring QBF solved by a
/// general-purpose QBF solver.
///
/// * [`Semantics::Exactly`]: only power-of-two bounds are checkable
///   (the paper's restriction); other bounds yield
///   [`BmcResult::Unknown`](crate::BmcResult::Unknown). Bound 0
///   degenerates to an initial-state intersection check, solved
///   directly.
/// * [`Semantics::Within`]: the model is given self-loops (so exact-`k`
///   reachability becomes within-`k`), which still only supports
///   power-of-two bounds — the iterative procedure of the paper checks
///   within-1, within-2, within-4, …
///
/// ```
/// use sebmc::{Budget, Engine, QbfBackend, QbfSquaring, Semantics};
/// use sebmc_model::builders::johnson_counter;
///
/// let model = johnson_counter(2); // all-ones at exactly 2 steps
/// let engine = QbfSquaring::new(QbfBackend::Expansion);
/// let mut session = engine.start(&model, Semantics::Exactly, Budget::none());
/// assert!(session.check_bound(2).result.is_reachable());
/// ```
#[derive(Debug)]
pub struct QbfSquaring {
    /// Which QBF solver to run.
    pub backend: QbfBackend,
}

impl QbfSquaring {
    /// Creates the engine on the given back-end.
    pub fn new(backend: QbfBackend) -> Self {
        QbfSquaring { backend }
    }
}

impl Engine for QbfSquaring {
    fn name(&self) -> &'static str {
        QbfShape::Squaring.name(self.backend)
    }

    fn start(&self, model: &Model, semantics: Semantics, budget: Budget) -> Box<dyn Session> {
        crate::session::open(model, semantics, budget, |m, sem, b| {
            QbfSession::new(QbfShape::Squaring, self.backend, m, sem, b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{BmcOutcome, BmcResult};
    use sebmc_model::builders::{fifo, johnson_counter, lfsr, token_ring, traffic_light};
    use sebmc_model::explicit;
    use sebmc_qbf::{ExpansionSolver, QbfResult};

    /// Decides one bound on a fresh session.
    fn check(engine: &dyn Engine, model: &Model, k: usize, semantics: Semantics) -> BmcOutcome {
        engine
            .start(model, semantics, Budget::none())
            .check_bound(k)
    }

    #[test]
    fn alternations_grow_logarithmically() {
        let m = token_ring(3);
        for (k, expected_foralls) in [(1usize, 0usize), (2, 1), (4, 2), (8, 3), (16, 4)] {
            let e = encode_qbf_squaring(&m, k);
            let foralls = e
                .formula
                .prefix()
                .iter()
                .filter(|b| b.quantifier == Quantifier::ForAll)
                .count();
            assert_eq!(foralls, expected_foralls, "bound {k}");
            assert_eq!(
                e.formula.num_universals(),
                2 * m.num_state_vars() * expected_foralls,
                "universal count grows with levels"
            );
        }
    }

    #[test]
    #[should_panic(expected = "squaring needs k = 2^d")]
    fn non_power_of_two_encode_panics() {
        let m = token_ring(3);
        let _ = encode_qbf_squaring(&m, 3);
    }

    #[test]
    fn base_case_matches_oracle() {
        let m = token_ring(3);
        let e = QbfSquaring::new(QbfBackend::Expansion);
        let got = check(&e, &m, 1, Semantics::Exactly).result;
        assert_eq!(got.is_reachable(), explicit::reachable_in_exactly(&m, 1));
    }

    #[test]
    fn squared_bounds_match_oracle_tiny() {
        let m = token_ring(3);
        let e = QbfSquaring::new(QbfBackend::Expansion);
        for k in [1usize, 2, 4] {
            let got = check(&e, &m, k, Semantics::Exactly).result;
            let expect = explicit::reachable_in_exactly(&m, k);
            assert_eq!(got.is_reachable(), expect, "bound {k}");
            assert!(!got.is_unknown(), "bound {k}");
        }
    }

    #[test]
    fn johnson_at_power_of_two() {
        // Johnson(2): 00 → 10 → 11 → 01 → 00 …; all-ones at exactly 2.
        let m = johnson_counter(2);
        let e = QbfSquaring::new(QbfBackend::Expansion);
        assert!(check(&e, &m, 2, Semantics::Exactly).result.is_reachable());
        assert!(check(&e, &m, 4, Semantics::Exactly).result.is_unreachable());
    }

    #[test]
    fn non_power_of_two_exact_is_unknown() {
        let m = token_ring(3);
        let e = QbfSquaring::new(QbfBackend::Expansion);
        let out = check(&e, &m, 5, Semantics::Exactly);
        assert!(out.result.is_unknown());
        assert!(matches!(
            out.result,
            BmcResult::Unknown(ref s) if s.contains("power-of-two")
        ));
    }

    #[test]
    fn within_power_of_two_uses_self_loops() {
        let m = lfsr(3, 4); // needle at exactly 4
        let e = QbfSquaring::new(QbfBackend::Expansion);
        assert!(check(&e, &m, 4, Semantics::Within).result.is_reachable());
        assert!(check(&e, &m, 2, Semantics::Within).result.is_unreachable());
        // Non-power-of-two within bounds are outside the technique.
        assert!(check(&e, &m, 5, Semantics::Within).result.is_unknown());
    }

    /// Pins the expansion back-end's verdict and counts on three
    /// squaring encodings: how the expansion stores its matrices must
    /// not change what it hands the SAT solver. At `traffic_light`
    /// bound 4 it also pins the watch bytes of the CDCL copy.
    #[test]
    fn expansion_counts_on_squaring_encodings() {
        let cases = [
            (traffic_light(), 2, QbfResult::False, 6, 22_176, 4_284, None),
            (
                traffic_light(),
                4,
                QbfResult::False,
                12,
                2_340_864,
                475_209,
                Some(24_905_336),
            ),
            (fifo(1), 2, QbfResult::True, 12, 3_594_240, 683_865, None),
        ];
        for (model, k, verdict, expanded, peak, duplicated, watch) in cases {
            let mut solver = ExpansionSolver::new();
            let got = solver.solve(&encode_qbf_squaring(&model, k).formula);
            let stats = solver.stats();
            assert_eq!(got, verdict, "bound {k}");
            assert_eq!(
                (
                    stats.expanded_universals,
                    stats.peak_matrix_literals,
                    stats.duplicated_vars
                ),
                (expanded, peak, duplicated),
                "bound {k}"
            );
            if let Some(watch) = watch {
                assert_eq!(stats.peak_watch_bytes, watch, "bound {k}");
            }
        }
    }

    #[test]
    fn bound_zero_initial_intersection() {
        let m = traffic_light();
        let e = QbfSquaring::new(QbfBackend::Qdpll);
        assert!(check(&e, &m, 0, Semantics::Exactly).result.is_unreachable());
        assert!(check(&e, &m, 0, Semantics::Within).result.is_unreachable());
    }
}
