//! Formulation (2): bounded reachability as QBF with one copy of `TR`.
//!
//! `R_k(Z₀,…,Z_k) = I(Z₀) ∧ F(Z_k) ∧
//!    ∀U,V. ⋀_{i<k} ((U↔Zᵢ ∧ V↔Zᵢ₊₁) → TR(U,V))`
//!
//! The transition relation appears **once**; raising the bound adds
//! only a new state copy `Z` and one implication — `O(n)` growth per
//! iteration, independent of `|TR|`, and a constant number of
//! universal variables. This is the paper's space argument, measured by
//! experiment E2.
//!
//! [`QbfLinear`] feeds the encoding to one of the general-purpose QBF
//! solvers (QDPLL search or universal expansion), reproducing the
//! paper's negative result about those solvers.

use std::time::Instant;

use sebmc_logic::{tseitin, Aig, AigRef, Cnf, Lit, Var, VarAlloc};
use sebmc_model::Model;
use sebmc_qbf::{ExpansionLimits, ExpansionSolver, QbfFormula, QbfResult, QdpllSolver, Quantifier};

use crate::engine::{BmcOutcome, BmcResult, Budget, Engine, RunStats, Semantics, Session};

/// Which general-purpose QBF solver an engine uses.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QbfBackend {
    /// Search-based QDPLL (QuBE/semprop class).
    Qdpll,
    /// Universal expansion to SAT (Quantor class).
    Expansion,
}

/// A QBF encoding plus the variable maps needed for statistics.
#[derive(Debug)]
pub struct QbfEncoding {
    /// The prenex-CNF formula.
    pub formula: QbfFormula,
    /// Literals of the frame state variables (`z_lits[t][i]`).
    pub z_lits: Vec<Vec<Lit>>,
}

/// Builds the full-input literal map for importing a model cone into a
/// scratch graph: state variables bound to `states`, free inputs to
/// `inputs` (or folded to constant false when the cone cannot mention
/// them, as validated for init/target predicates).
pub(crate) fn import_map(
    model: &Model,
    states: &[AigRef],
    inputs: Option<&[AigRef]>,
) -> Vec<AigRef> {
    let mut map = vec![AigRef::FALSE; model.aig().num_inputs()];
    for (i, &idx) in model.state_input_indices().iter().enumerate() {
        map[idx] = states[i];
    }
    if let Some(ins) = inputs {
        for (j, &idx) in model.free_input_indices().iter().enumerate() {
            map[idx] = ins[j];
        }
    }
    map
}

/// Imports `TR(u, v) = ∃w. constraints(u,w) ∧ ⋀ᵢ vᵢ ↔ nextᵢ(u,w)` into
/// the scratch graph, returning a single "TR holds" reference.
pub(crate) fn import_tr(
    g: &mut Aig,
    model: &Model,
    u: &[AigRef],
    v: &[AigRef],
    w: &[AigRef],
) -> AigRef {
    let map = import_map(model, u, Some(w));
    let mut roots: Vec<AigRef> = model.next_refs().to_vec();
    roots.extend_from_slice(model.constraint_refs());
    let imported = g.import(model.aig(), &roots, &map);
    let n = model.num_state_vars();
    let mut ok = AigRef::TRUE;
    for i in 0..n {
        let eq = g.iff(imported[i], v[i]);
        ok = g.and(ok, eq);
    }
    for &c in &imported[n..] {
        ok = g.and(ok, c);
    }
    ok
}

/// Encodes "a target state is reachable from an initial state in
/// exactly `k` steps" as the linear single-`TR` QBF (formulation (2)).
pub fn encode_qbf_linear(model: &Model, k: usize) -> QbfEncoding {
    let n = model.num_state_vars();
    let m = model.num_inputs();
    let mut g = Aig::new();
    let z: Vec<Vec<AigRef>> = (0..=k).map(|_| g.inputs(n)).collect();
    let u = g.inputs(n);
    let v = g.inputs(n);
    let w = g.inputs(m);

    let tr_ok = import_tr(&mut g, model, &u, &v, &w);
    let init_map = import_map(model, &z[0], None);
    let init_root = g.import(model.aig(), &[model.init_ref()], &init_map)[0];
    let target_map = import_map(model, &z[k], None);
    let target_root = g.import(model.aig(), &[model.target_ref()], &target_map)[0];

    let mut matrix_root = g.and(init_root, target_root);
    for i in 0..k {
        let eu = g.eq_words(&u, &z[i]);
        let ev = g.eq_words(&v, &z[i + 1]);
        let ante = g.and(eu, ev);
        let imp = g.implies(ante, tr_ok);
        matrix_root = g.and(matrix_root, imp);
    }

    // Allocate real variables in prefix order: ∃Z ∀U,V ∃W,aux.
    let mut alloc = VarAlloc::new();
    let mut input_lits: Vec<Lit> = Vec::with_capacity(g.num_inputs());
    let z_lits: Vec<Vec<Lit>> = z
        .iter()
        .map(|frame| {
            let lits = alloc.fresh_lits(frame.len());
            input_lits.extend(&lits);
            lits
        })
        .collect();
    let uv_first = alloc.num_vars();
    let u_lits = alloc.fresh_lits(n);
    input_lits.extend(&u_lits);
    let v_lits = alloc.fresh_lits(n);
    input_lits.extend(&v_lits);
    let uv_last = alloc.num_vars();
    let w_lits = alloc.fresh_lits(m);
    input_lits.extend(&w_lits);

    let mut cnf = Cnf::new();
    let root = tseitin::encode(&g, &[matrix_root], &input_lits, &mut alloc, &mut cnf)[0];
    cnf.add_unit(root);
    cnf.ensure_vars(alloc.num_vars());

    let mut formula = QbfFormula::new(cnf);
    formula.push_block(
        Quantifier::Exists,
        (0..uv_first).map(|i| Var::new(i as u32)),
    );
    formula.push_block(
        Quantifier::ForAll,
        (uv_first..uv_last).map(|i| Var::new(i as u32)),
    );
    formula.push_block(
        Quantifier::Exists,
        (uv_last..alloc.num_vars()).map(|i| Var::new(i as u32)),
    );
    debug_assert!(formula.validate().is_ok());

    QbfEncoding { formula, z_lits }
}

/// Runs a QBF backend under a session budget (deadline measured from
/// `start`, byte cap lowered to a matrix-literal cap at 4 bytes per
/// literal, cancellation polled at the solver's safe points); returns
/// the verdict, the solver effort and its peak formula size.
pub(crate) fn solve_qbf(
    backend: QbfBackend,
    formula: &QbfFormula,
    budget: &Budget,
    start: Instant,
) -> (QbfResult, u64, usize) {
    match backend {
        QbfBackend::Qdpll => {
            let mut solver = QdpllSolver::with_limits(budget.qbf_limits(start));
            let r = solver.solve(formula);
            let effort = solver.stats().decisions;
            (r, effort, formula.matrix().num_literals())
        }
        QbfBackend::Expansion => {
            let mut solver = ExpansionSolver::with_limits(ExpansionLimits {
                max_matrix_literals: budget
                    .max_formula_bytes
                    .map_or(10_000_000, |b| b / std::mem::size_of::<Lit>()),
                base: budget.qbf_limits(start),
            });
            let r = solver.solve(formula);
            let effort = solver.stats().expanded_universals;
            let peak = solver.stats().peak_matrix_literals;
            (r, effort, peak.max(formula.matrix().num_literals()))
        }
    }
}

/// Formulation (2) engine: single-`TR` QBF solved by a general-purpose
/// QBF solver.
///
/// Under [`Semantics::Within`] the model is first given self-loops
/// (paper §2), preserving the single-`TR` property.
///
/// ```
/// use sebmc::{Budget, Engine, QbfBackend, QbfLinear, Semantics};
/// use sebmc_model::builders::token_ring;
///
/// let model = token_ring(3);
/// let engine = QbfLinear::new(QbfBackend::Qdpll);
/// let out = engine
///     .start(&model, Semantics::Exactly, Budget::none())
///     .check_bound(2);
/// assert!(out.result.is_reachable());
/// ```
#[derive(Debug)]
pub struct QbfLinear {
    /// Which QBF solver to run.
    pub backend: QbfBackend,
}

impl QbfLinear {
    /// Creates the engine on the given back-end.
    pub fn new(backend: QbfBackend) -> Self {
        QbfLinear { backend }
    }
}

/// An open formulation-(2) session. The QBF encoding is monolithic per
/// bound, so the reusable state is the (possibly self-loop-transformed)
/// model, the budget clock and the cumulative statistics.
#[derive(Debug)]
pub struct QbfLinearSession {
    backend: QbfBackend,
    semantics: Semantics,
    /// Already self-loop-transformed under `Within` semantics — the
    /// transform runs once per session, not once per bound.
    model: Model,
    budget: Budget,
    started: Instant,
    total: RunStats,
}

impl QbfLinearSession {
    /// Opens a session; applies the self-loop transform now if needed.
    pub fn new(backend: QbfBackend, model: &Model, semantics: Semantics, budget: Budget) -> Self {
        let model = match semantics {
            Semantics::Exactly => model.clone(),
            Semantics::Within => model.with_self_loops(),
        };
        QbfLinearSession {
            backend,
            semantics,
            model,
            budget,
            started: Instant::now(),
            total: RunStats::default(),
        }
    }
}

impl Session for QbfLinearSession {
    fn name(&self) -> &'static str {
        match self.backend {
            QbfBackend::Qdpll => "qbf-linear-qdpll",
            QbfBackend::Expansion => "qbf-linear-expansion",
        }
    }

    fn semantics(&self) -> Semantics {
        self.semantics
    }

    fn check_bound(&mut self, k: usize) -> BmcOutcome {
        let call_start = Instant::now();
        if self.budget.expired(self.started) {
            let stats = RunStats {
                duration: call_start.elapsed(),
                bounds_checked: 1,
                ..RunStats::default()
            };
            self.total.absorb(&stats);
            return BmcOutcome::unknown(self.budget.unknown_reason(), stats);
        }
        let enc = encode_qbf_linear(&self.model, k);
        let mut stats = RunStats {
            encode_vars: enc.formula.matrix().num_vars(),
            encode_clauses: enc.formula.matrix().num_clauses(),
            encode_lits: enc.formula.matrix().num_literals(),
            bounds_checked: 1,
            ..RunStats::default()
        };
        let (r, effort, peak) = solve_qbf(self.backend, &enc.formula, &self.budget, self.started);
        stats.duration = call_start.elapsed();
        stats.solver_effort = effort;
        stats.peak_formula_lits = peak;
        stats.peak_formula_bytes = peak * std::mem::size_of::<sebmc_logic::Lit>();
        let result = match r {
            QbfResult::True => BmcResult::Reachable(None),
            QbfResult::False => BmcResult::Unreachable,
            QbfResult::Unknown => BmcResult::Unknown(self.budget.unknown_reason()),
        };
        self.total.absorb(&stats);
        BmcOutcome::new(result, stats)
    }

    fn set_cancel(&mut self, token: crate::engine::CancelToken) {
        self.budget.cancel = token;
    }

    fn cumulative_stats(&self) -> RunStats {
        self.total.clone()
    }
}

impl Engine for QbfLinear {
    fn name(&self) -> &'static str {
        match self.backend {
            QbfBackend::Qdpll => "qbf-linear-qdpll",
            QbfBackend::Expansion => "qbf-linear-expansion",
        }
    }

    fn start(&self, model: &Model, semantics: Semantics, budget: Budget) -> Box<dyn Session> {
        let backend = self.backend;
        crate::reduce::start_with_reduction(model, semantics, budget, |m, sem, b| {
            Box::new(QbfLinearSession::new(backend, m, sem, b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebmc_model::builders::{johnson_counter, lfsr, token_ring, traffic_light};
    use sebmc_model::explicit;

    /// Decides one bound on a fresh session.
    fn check(engine: &dyn Engine, model: &Model, k: usize, semantics: Semantics) -> BmcOutcome {
        engine
            .start(model, semantics, Budget::none())
            .check_bound(k)
    }

    #[test]
    fn constant_universal_count_and_linear_growth() {
        let m = johnson_counter(5);
        let e4 = encode_qbf_linear(&m, 4);
        let e5 = encode_qbf_linear(&m, 5);
        let e6 = encode_qbf_linear(&m, 6);
        assert_eq!(
            e4.formula.num_universals(),
            e5.formula.num_universals(),
            "number of universals does not change from iteration to iteration"
        );
        assert_eq!(e4.formula.num_universals(), 2 * m.num_state_vars());
        let d1 = e5.formula.matrix().num_literals() - e4.formula.matrix().num_literals();
        let d2 = e6.formula.matrix().num_literals() - e5.formula.matrix().num_literals();
        assert_eq!(d1, d2, "per-iteration growth is constant");
        // The per-iteration growth must not contain another TR copy:
        // it is O(n), far smaller than the base formula with its TR.
        assert!(d1 < e4.formula.matrix().num_literals());
    }

    #[test]
    fn prefix_shape_is_exists_forall_exists() {
        let m = token_ring(3);
        let e = encode_qbf_linear(&m, 3);
        let prefix = e.formula.prefix();
        assert_eq!(prefix.len(), 3);
        assert_eq!(prefix[0].quantifier, Quantifier::Exists);
        assert_eq!(prefix[1].quantifier, Quantifier::ForAll);
        assert_eq!(prefix[2].quantifier, Quantifier::Exists);
        assert_eq!(e.z_lits.len(), 4);
    }

    #[test]
    fn qdpll_backend_matches_oracle_on_tiny_models() {
        let m = token_ring(3);
        let e = QbfLinear::new(QbfBackend::Qdpll);
        for k in 0..4 {
            let got = check(&e, &m, k, Semantics::Exactly).result;
            let expect = explicit::reachable_in_exactly(&m, k);
            assert_eq!(got.is_reachable(), expect, "bound {k}");
            assert!(!got.is_unknown());
        }
    }

    #[test]
    fn expansion_backend_matches_oracle_on_tiny_models() {
        let m = token_ring(3);
        let e = QbfLinear::new(QbfBackend::Expansion);
        for k in 0..4 {
            let got = check(&e, &m, k, Semantics::Exactly).result;
            let expect = explicit::reachable_in_exactly(&m, k);
            assert_eq!(got.is_reachable(), expect, "bound {k}");
        }
    }

    #[test]
    fn within_semantics_via_self_loops() {
        let m = lfsr(3, 4);
        let e = QbfLinear::new(QbfBackend::Expansion);
        // Needle at exactly 4: within-5 must still be reachable.
        assert!(check(&e, &m, 5, Semantics::Within).result.is_reachable());
        assert!(check(&e, &m, 3, Semantics::Within).result.is_unreachable());
    }

    #[test]
    fn unsat_family_unreachable() {
        let m = traffic_light();
        let e = QbfLinear::new(QbfBackend::Qdpll);
        for k in 0..3 {
            assert!(
                check(&e, &m, k, Semantics::Exactly).result.is_unreachable(),
                "bound {k}"
            );
        }
    }

    #[test]
    fn tight_timeout_gives_unknown() {
        let m = sebmc_model::builders::random_fsm(10, 2, 3);
        let budget = Budget::with_timeout(std::time::Duration::from_nanos(1));
        let out = QbfLinear::new(QbfBackend::Qdpll)
            .start(&m, Semantics::Exactly, budget)
            .check_bound(8);
        assert!(out.result.is_unknown());
    }

    #[test]
    fn session_accumulates_and_caches_self_loops() {
        let m = lfsr(3, 4);
        let mut s =
            QbfLinearSession::new(QbfBackend::Expansion, &m, Semantics::Within, Budget::none());
        assert!(s.check_bound(3).result.is_unreachable());
        assert!(s.check_bound(5).result.is_reachable());
        let total = s.cumulative_stats();
        assert_eq!(total.bounds_checked, 2);
        assert!(total.encode_lits > 0);
    }
}
