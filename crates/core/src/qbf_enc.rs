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

use sebmc_logic::{tseitin, Aig, AigRef, Cnf, Lit, Var, VarAlloc};
use sebmc_model::Model;
use sebmc_qbf::{ExpansionLimits, ExpansionSolver, QbfFormula, QbfResult, QdpllSolver, Quantifier};

use crate::engine::{BmcOutcome, BmcResult, Budget, Engine, RunStats, Semantics, Session};
use crate::frame::input_map;
use crate::session::{Formulation, SessionCore};
use crate::squaring::{encode_initial_target, encode_qbf_squaring};

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

/// Imports `TR(u, v) = ∃w. constraints(u,w) ∧ ⋀ᵢ vᵢ ↔ nextᵢ(u,w)` into
/// the scratch graph, returning a single "TR holds" reference.
pub(crate) fn import_tr(
    g: &mut Aig,
    model: &Model,
    u: &[AigRef],
    v: &[AigRef],
    w: &[AigRef],
) -> AigRef {
    let map = input_map(model, u, Some(w), AigRef::FALSE);
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
    let init_map = input_map(model, &z[0], None, AigRef::FALSE);
    let init_root = g.import(model.aig(), &[model.init_ref()], &init_map)[0];
    let target_map = input_map(model, &z[k], None, AigRef::FALSE);
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

impl Engine for QbfLinear {
    fn name(&self) -> &'static str {
        QbfShape::Linear.name(self.backend)
    }

    fn start(&self, model: &Model, semantics: Semantics, budget: Budget) -> Box<dyn Session> {
        crate::session::open(model, semantics, budget, |m, sem, b| {
            QbfSession::new(QbfShape::Linear, self.backend, m, sem, b)
        })
    }
}

/// Which QBF formulation a [`QbfSession`] builds per bound.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub(crate) enum QbfShape {
    /// Formulation (2), [`encode_qbf_linear`].
    Linear,
    /// Formulation (3), [`encode_qbf_squaring`].
    Squaring,
}

impl QbfShape {
    /// The engine (and session) name of this shape on `backend`.
    pub(crate) fn name(self, backend: QbfBackend) -> &'static str {
        match (self, backend) {
            (QbfShape::Linear, QbfBackend::Qdpll) => "qbf-linear-qdpll",
            (QbfShape::Linear, QbfBackend::Expansion) => "qbf-linear-expansion",
            (QbfShape::Squaring, QbfBackend::Qdpll) => "qbf-squaring-qdpll",
            (QbfShape::Squaring, QbfBackend::Expansion) => "qbf-squaring-expansion",
        }
    }
}

/// An open session of formulation (2) or (3). The QBF encoding is
/// monolithic per bound, so the reusable state is the (possibly
/// self-loop-transformed) model, the budget clock and the cumulative
/// statistics.
#[derive(Debug)]
pub struct QbfSession {
    core: SessionCore,
    shape: QbfShape,
    backend: QbfBackend,
    /// Already self-loop-transformed under `Within` semantics — the
    /// transform runs once per session, not once per bound.
    model: Model,
}

impl QbfSession {
    /// Opens a session; applies the self-loop transform now if needed.
    pub(crate) fn new(
        shape: QbfShape,
        backend: QbfBackend,
        model: &Model,
        semantics: Semantics,
        budget: Budget,
    ) -> Self {
        let model = match semantics {
            Semantics::Exactly => model.clone(),
            Semantics::Within => model.with_self_loops(),
        };
        let label = match shape {
            QbfShape::Linear => "qbf-linear",
            QbfShape::Squaring => "qbf-squaring",
        };
        QbfSession {
            core: SessionCore::new(shape.name(backend), label, semantics, budget),
            shape,
            backend,
            model,
        }
    }

    /// Runs the back-end on `formula` under the session budget (byte
    /// cap lowered to a matrix-literal cap at 4 bytes per literal,
    /// cancellation polled at the solver's safe points): the verdict
    /// with the matrix sizes, the solver effort, its peak formula size
    /// and, for the expansion, the watch bytes of its CDCL copy.
    fn solve(&self, formula: &QbfFormula) -> BmcOutcome {
        let budget = &self.core.budget;
        let limits = budget.qbf_limits(self.core.started);
        let matrix = formula.matrix();
        let (r, effort, peak, peak_watch_bytes) = match self.backend {
            QbfBackend::Qdpll => {
                let mut solver = QdpllSolver::with_limits(limits);
                let r = solver.solve(formula);
                (r, solver.stats().decisions, matrix.num_literals(), 0)
            }
            QbfBackend::Expansion => {
                let mut solver = ExpansionSolver::with_limits(ExpansionLimits {
                    max_matrix_literals: budget
                        .max_formula_bytes
                        .map_or(ExpansionLimits::default().max_matrix_literals, |b| {
                            b / std::mem::size_of::<Lit>()
                        }),
                    base: limits,
                });
                let r = solver.solve(formula);
                let stats = solver.stats();
                (
                    r,
                    stats.expanded_universals,
                    stats.peak_matrix_literals.max(matrix.num_literals()),
                    stats.peak_watch_bytes,
                )
            }
        };
        let result = match r {
            QbfResult::True => BmcResult::Reachable(None),
            QbfResult::False => BmcResult::Unreachable,
            QbfResult::Unknown => BmcResult::Unknown(budget.unknown_reason()),
        };
        let stats = RunStats {
            encode_vars: matrix.num_vars(),
            encode_clauses: matrix.num_clauses(),
            encode_lits: matrix.num_literals(),
            peak_formula_lits: peak,
            peak_formula_bytes: peak * std::mem::size_of::<Lit>(),
            peak_watch_bytes,
            solver_effort: effort,
            ..RunStats::default()
        };
        BmcOutcome::new(result, stats)
    }
}

impl Formulation for QbfSession {
    fn core(&self) -> &SessionCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut SessionCore {
        &mut self.core
    }

    fn supports_bound(&self, k: usize) -> bool {
        self.shape == QbfShape::Linear || k == 0 || k.is_power_of_two()
    }

    fn decide(&mut self, k: usize, stop: Option<String>) -> BmcOutcome {
        if let Some(reason) = stop {
            return BmcOutcome::unknown(reason, RunStats::default());
        }
        let formula = match self.shape {
            QbfShape::Linear => encode_qbf_linear(&self.model, k).formula,
            QbfShape::Squaring if k == 0 => encode_initial_target(&self.model),
            QbfShape::Squaring if k.is_power_of_two() => {
                encode_qbf_squaring(&self.model, k).formula
            }
            QbfShape::Squaring => {
                let reason = format!("iterative squaring checks only power-of-two bounds, got {k}");
                return BmcOutcome::unknown(reason, RunStats::default());
            }
        };
        self.solve(&formula)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebmc_model::builders::{
        fifo, johnson_counter, lfsr, shift_register, token_ring, traffic_light,
    };
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

    /// The QDPLL search on formulation (2) over unreduced models: its
    /// verdict and its decision, conflict and satisfaction counts.
    #[test]
    fn qdpll_search_counts_on_linear_encodings() {
        let cases = [
            (shift_register(4), 1, QbfResult::False, 32, 1, 14),
            (shift_register(4), 2, QbfResult::False, 619, 16, 262),
            (shift_register(4), 3, QbfResult::False, 8_949, 256, 3_698),
            (johnson_counter(4), 3, QbfResult::False, 5_037, 256, 3_420),
            (token_ring(4), 1, QbfResult::False, 2_083, 8, 1_084),
            (fifo(1), 1, QbfResult::False, 275, 4, 120),
            (fifo(1), 2, QbfResult::True, 31_669, 104, 11_660),
        ];
        for (model, k, verdict, decisions, conflicts, satisfactions) in cases {
            let mut solver = QdpllSolver::new();
            let got = solver.solve(&encode_qbf_linear(&model, k).formula);
            let stats = solver.stats();
            assert_eq!(got, verdict, "{} bound {k}", model.name());
            assert_eq!(
                (stats.decisions, stats.conflicts, stats.satisfactions),
                (decisions, conflicts, satisfactions),
                "{} bound {k}",
                model.name()
            );
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
        let mut s = QbfSession::new(
            QbfShape::Linear,
            QbfBackend::Expansion,
            &m,
            Semantics::Within,
            Budget::none(),
        );
        assert!(s.check_bound(3).result.is_unreachable());
        assert!(s.check_bound(5).result.is_reachable());
        let total = s.cumulative_stats();
        assert_eq!(total.bounds_checked, 2);
        assert!(total.encode_lits > 0);
    }
}
