//! A search-based QDPLL solver for prenex-CNF QBF.
//!
//! This deliberately models the *general-purpose* QBF solvers the paper
//! evaluated in 2005 (QuBE/semprop/Quaffle class): DPLL search that
//! respects the quantifier prefix, with
//!
//! * unit propagation under universal reduction,
//! * pure-literal elimination (existential: satisfy; universal:
//!   falsify),
//! * chronological backtracking (existential decisions retried on
//!   conflict, universal decisions retried on satisfaction),
//! * decision/wall-clock budgets returning [`QbfResult::Unknown`].
//!
//! Each search step takes the unit closure, then assigns every pure
//! literal of the closed state at once, and repeats both until neither
//! applies. It then meets a conflict, a satisfied matrix, or decides the
//! first unassigned variable in prefix order.
//!
//! **Counters.** The solver never rescans the matrix. It keeps:
//!
//! * per clause, the number of its true literals and of its unassigned
//!   existential literals;
//! * per literal, the number of unsatisfied clauses it occurs in;
//! * the number of unsatisfied clauses.
//!
//! Each assignment updates them through its variable's occurrence
//! lists, and each backtrack undoes them. After an assignment only the
//! clauses in which it made a literal false are checked again for the
//! unit and conflict rules. The pure-literal rule reads the literal
//! counters of the variables whose count in one polarity fell to zero,
//! and the all-satisfied test reads one number. A decision scans the
//! order from the top decision's variable on, since every variable
//! before it is assigned.
//!
//! This is the same search as rescanning the whole matrix at every
//! step. Under universal reduction, unit propagation reaches the same
//! assignment in any order unless it ends in a conflict, and the
//! pure-literal rule reads that assignment. So the verdict and the
//! decision, conflict and satisfaction counts do not depend on how the
//! rules are found. Only [`QdpllStats::propagations`] does: which units
//! are set before a conflict is found depends on the order in which
//! clauses are checked.
//!
//! The paper's finding — that such solvers collapse on the BMC
//! formulations (2) and (3) — reproduces with this solver, and it shows
//! in the decision counts, which the counters leave unchanged; see
//! experiment E1.

use std::ops::Range;
use std::time::Instant;

use sebmc_logic::{Cnf, Lit, Var};

use crate::formula::{QbfFormula, Quantifier};

/// Verdict of a QBF solver.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum QbfResult {
    /// The formula is true (valid).
    True,
    /// The formula is false.
    False,
    /// A resource budget was exhausted.
    Unknown,
}

/// Resource budgets for a QBF solve call.
#[derive(Clone, Debug, Default)]
pub struct QbfLimits {
    /// Maximum number of decisions.
    pub max_decisions: Option<u64>,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Cooperative cancellation flag, polled at the same cadence as the
    /// deadline; a stored `true` aborts the solve with
    /// [`QbfResult::Unknown`].
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
}

impl QbfLimits {
    /// No limits.
    pub fn none() -> Self {
        QbfLimits::default()
    }
}

/// Search statistics of a QDPLL run.
#[derive(Clone, Debug, Default)]
pub struct QdpllStats {
    /// Decisions made.
    pub decisions: u64,
    /// Unit/pure propagations applied. Unlike the other counts, this
    /// one depends on the order in which clauses are checked: a search
    /// step that ends in a conflict stops at the first falsified clause,
    /// and which units were set before it depends on that order.
    pub propagations: u64,
    /// Conflicts (matrix falsified) encountered.
    pub conflicts: u64,
    /// Subtree satisfactions (matrix satisfied) encountered.
    pub satisfactions: u64,
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Prop {
    Conflict,
    AllSat,
    Open,
}

#[derive(Debug)]
struct Frame {
    var: Var,
    /// Position of `var` in the decision order.
    order_pos: usize,
    quantifier: Quantifier,
    phase: bool,
    flipped: bool,
    trail_mark: usize,
}

/// The QDPLL solver. Create one, optionally set limits, then call
/// [`QdpllSolver::solve`].
///
/// ```
/// use sebmc_logic::{Cnf, Var};
/// use sebmc_qbf::{QbfFormula, QbfResult, QdpllSolver, Quantifier};
///
/// // ∀x ∃y. (x ↔ y)
/// let (x, y) = (Var::new(0), Var::new(1));
/// let mut m = Cnf::new();
/// m.add_equiv(x.positive(), y.positive());
/// let mut qbf = QbfFormula::new(m);
/// qbf.push_block(Quantifier::ForAll, [x]);
/// qbf.push_block(Quantifier::Exists, [y]);
/// assert_eq!(QdpllSolver::new().solve(&qbf), QbfResult::True);
/// ```
#[derive(Debug, Default)]
pub struct QdpllSolver {
    limits: QbfLimits,
    stats: QdpllStats,
    // Per-solve state.
    /// Every clause's literals back to back, sorted, duplicates merged
    /// and tautologies dropped: clause `c` is
    /// `lits[starts[c]..starts[c + 1]]`.
    lits: Vec<Lit>,
    starts: Vec<usize>,
    /// The clauses containing literal `l` are
    /// `occs[occ_starts[l.code()]..occ_starts[l.code() + 1]]`.
    occs: Vec<u32>,
    occ_starts: Vec<usize>,
    /// Per clause: its true literals.
    true_lits: Vec<u32>,
    /// Per clause: its unassigned existential literals.
    open_exists: Vec<u32>,
    /// Per literal code: the unsatisfied clauses it occurs in.
    unsat_occs: Vec<u32>,
    /// Clauses with no true literal.
    unsatisfied: usize,
    level: Vec<usize>,
    quant: Vec<Quantifier>,
    assign: Vec<Option<bool>>,
    /// The true literal of every assignment, in assignment order.
    trail: Vec<Lit>,
    /// Trail entries before this one have had their clauses checked.
    qhead: usize,
    /// Variables that may have become pure since the last pure step:
    /// one of their literals left its last unsatisfied clause.
    pure_candidates: Vec<Var>,
    /// The literals the current pure step makes true.
    pure: Vec<Lit>,
    frames: Vec<Frame>,
    order: Vec<Var>,
}

impl QdpllSolver {
    /// Creates a solver with no limits.
    pub fn new() -> Self {
        QdpllSolver::default()
    }

    /// Creates a solver with the given budgets.
    pub fn with_limits(limits: QbfLimits) -> Self {
        QdpllSolver {
            limits,
            ..QdpllSolver::default()
        }
    }

    /// Sets the budgets for subsequent solves.
    pub fn set_limits(&mut self, limits: QbfLimits) {
        self.limits = limits;
    }

    /// Statistics of the most recent solve.
    pub fn stats(&self) -> &QdpllStats {
        &self.stats
    }

    /// Decides the truth of `qbf` (free variables are treated as
    /// outermost existentials).
    pub fn solve(&mut self, qbf: &QbfFormula) -> QbfResult {
        self.stats = QdpllStats::default();
        self.load(qbf);
        self.run()
    }

    /// Builds the per-solve state: prefix tables, decision order,
    /// clauses, occurrence lists and counters, with nothing assigned.
    fn load(&mut self, qbf: &QbfFormula) {
        let matrix = qbf.matrix();
        let n = matrix.num_vars();
        // Free variables become outermost existentials: close a copy of
        // the prefix alone, over no clauses.
        let mut closed = QbfFormula::new(Cnf::with_vars(n));
        for block in qbf.prefix() {
            closed.push_block(block.quantifier, block.vars.iter().copied());
        }
        closed.close();
        debug_assert!(closed.validate().is_ok());
        self.level = vec![0; n];
        self.quant = vec![Quantifier::Exists; n];
        for (i, block) in closed.prefix().iter().enumerate() {
            for v in &block.vars {
                self.level[v.index()] = i;
                self.quant[v.index()] = block.quantifier;
            }
        }
        // Decision order: outermost block first; stable within a block.
        self.order = closed
            .prefix()
            .iter()
            .flat_map(|b| b.vars.iter().copied())
            .collect();

        self.lits.clear();
        self.starts.clear();
        self.starts.push(0);
        for c in matrix.iter() {
            let mut clause = c.clone();
            // A tautological clause must never reach the
            // universal-reduction conflict rule.
            if !clause.normalize() {
                self.lits.extend_from_slice(clause.lits());
                self.starts.push(self.lits.len());
            }
        }
        let num_clauses = self.starts.len() - 1;

        self.occ_starts = vec![0; 2 * n + 1];
        for l in &self.lits {
            self.occ_starts[l.code() + 1] += 1;
        }
        for code in 0..2 * n {
            self.occ_starts[code + 1] += self.occ_starts[code];
        }
        let mut fill = self.occ_starts.clone();
        self.occs = vec![0; self.lits.len()];
        self.open_exists = vec![0; num_clauses];
        for c in 0..num_clauses {
            // A literal occurs at most once per clause, so every count
            // fits too.
            let id = u32::try_from(c).expect("a matrix in memory has fewer than 2^32 clauses");
            for &l in &self.lits[self.clause(c)] {
                self.occs[fill[l.code()]] = id;
                fill[l.code()] += 1;
                if self.quant[l.var().index()] == Quantifier::Exists {
                    self.open_exists[c] += 1;
                }
            }
        }
        self.true_lits = vec![0; num_clauses];
        self.unsat_occs = self
            .occ_starts
            .windows(2)
            .map(|w| (w[1] - w[0]) as u32)
            .collect();
        self.unsatisfied = num_clauses;

        self.assign = vec![None; n];
        self.trail.clear();
        self.qhead = 0;
        self.frames.clear();
        self.pure_candidates = (0..n).map(|i| Var::new(i as u32)).collect();
    }

    fn run(&mut self) -> QbfResult {
        loop {
            if self.budget_exhausted() {
                return QbfResult::Unknown;
            }
            match self.propagate() {
                Prop::Conflict => {
                    self.stats.conflicts += 1;
                    if !self.backtrack(Quantifier::Exists) {
                        return QbfResult::False;
                    }
                }
                Prop::AllSat => {
                    self.stats.satisfactions += 1;
                    if !self.backtrack(Quantifier::ForAll) {
                        return QbfResult::True;
                    }
                }
                Prop::Open => {
                    // Every variable before the top decision's in the
                    // order was assigned when it was decided.
                    let from = self.frames.last().map_or(0, |f| f.order_pos + 1);
                    let order_pos = (from..self.order.len())
                        .find(|&i| self.assign[self.order[i].index()].is_none())
                        .expect("open state must have an unassigned variable");
                    let v = self.order[order_pos];
                    self.stats.decisions += 1;
                    self.frames.push(Frame {
                        var: v,
                        order_pos,
                        quantifier: self.quant[v.index()],
                        phase: false,
                        flipped: false,
                        trail_mark: self.trail.len(),
                    });
                    self.assign_var(v.negative());
                }
            }
        }
    }

    /// Pops frames until a decision of quantifier `kind` can be flipped;
    /// returns `false` when the search space is exhausted.
    fn backtrack(&mut self, kind: Quantifier) -> bool {
        // A decision is made only in a state closed under the pure
        // rule, so none is pending once that state is restored.
        self.pure_candidates.clear();
        while let Some(mut frame) = self.frames.pop() {
            // Undo everything from this frame on (including its var).
            while self.trail.len() > frame.trail_mark {
                let l = self.trail.pop().expect("trail non-empty");
                self.unassign(l);
            }
            if frame.quantifier == kind && !frame.flipped {
                frame.phase = !frame.phase;
                frame.flipped = true;
                let l = frame.var.lit(frame.phase);
                self.qhead = frame.trail_mark;
                self.frames.push(frame);
                self.assign_var(l);
                return true;
            }
        }
        false
    }

    /// Where clause `c`'s literals sit in `lits`.
    fn clause(&self, c: usize) -> Range<usize> {
        self.starts[c]..self.starts[c + 1]
    }

    /// Where the clauses containing `l` sit in `occs`.
    fn occurrences(&self, l: Lit) -> Range<usize> {
        self.occ_starts[l.code()]..self.occ_starts[l.code() + 1]
    }

    /// Makes `l` true and updates the counters of every clause that
    /// contains its variable.
    fn assign_var(&mut self, l: Lit) {
        let v = l.var().index();
        debug_assert!(self.assign[v].is_none());
        self.assign[v] = Some(l.is_positive());
        self.trail.push(l);
        let exists = u32::from(self.quant[v] == Quantifier::Exists);
        for &c in &self.occs[self.occurrences(l)] {
            let c = c as usize;
            self.open_exists[c] -= exists;
            self.true_lits[c] += 1;
            if self.true_lits[c] == 1 {
                self.unsatisfied -= 1;
                for &m in &self.lits[self.clause(c)] {
                    self.unsat_occs[m.code()] -= 1;
                    if self.unsat_occs[m.code()] == 0 && self.assign[m.var().index()].is_none() {
                        self.pure_candidates.push(m.var());
                    }
                }
            }
        }
        if exists == 1 {
            for &c in &self.occs[self.occurrences(!l)] {
                self.open_exists[c as usize] -= 1;
            }
        }
    }

    /// Undoes [`Self::assign_var`]`(l)`.
    fn unassign(&mut self, l: Lit) {
        let v = l.var().index();
        self.assign[v] = None;
        let exists = u32::from(self.quant[v] == Quantifier::Exists);
        for &c in &self.occs[self.occurrences(l)] {
            let c = c as usize;
            self.open_exists[c] += exists;
            self.true_lits[c] -= 1;
            if self.true_lits[c] == 0 {
                self.unsatisfied += 1;
                for &m in &self.lits[self.clause(c)] {
                    self.unsat_occs[m.code()] += 1;
                }
            }
        }
        if exists == 1 {
            for &c in &self.occs[self.occurrences(!l)] {
                self.open_exists[c as usize] += 1;
            }
        }
    }

    /// Unit/pure propagation to fixpoint under universal reduction.
    fn propagate(&mut self) -> Prop {
        // At the root no assignment has touched a clause yet: one scan
        // finds the matrix's own units, empty and all-universal clauses.
        if self.frames.is_empty() && self.trail.is_empty() {
            for c in 0..self.true_lits.len() {
                if !self.check_clause(c) {
                    return Prop::Conflict;
                }
            }
        }
        loop {
            while let Some(&l) = self.trail.get(self.qhead) {
                self.qhead += 1;
                for i in self.occurrences(!l) {
                    if !self.check_clause(self.occs[i] as usize) {
                        return Prop::Conflict;
                    }
                }
            }
            if self.unsatisfied == 0 {
                return Prop::AllSat;
            }
            if !self.assign_pure_literals() {
                return Prop::Open;
            }
        }
    }

    /// The conflict and unit rules under universal reduction on clause
    /// `c`: returns `false` when `c` is falsified, and assigns its
    /// existential literal when it is unit.
    fn check_clause(&mut self, c: usize) -> bool {
        if self.true_lits[c] > 0 {
            return true;
        }
        match self.open_exists[c] {
            // Every unassigned literal is universal, hence reducible:
            // the clause is falsified.
            0 => false,
            1 => {
                if let Some(e) = self.reduced_unit(c) {
                    self.stats.propagations += 1;
                    self.assign_var(e);
                }
                true
            }
            _ => true,
        }
    }

    /// The one unassigned existential literal of the unsatisfied clause
    /// `c`, if every unassigned universal in `c` is inner to it (the
    /// clause is then unit under universal reduction).
    fn reduced_unit(&self, c: usize) -> Option<Lit> {
        let mut exists = None;
        let mut min_univ_level = usize::MAX;
        for &l in &self.lits[self.clause(c)] {
            let v = l.var().index();
            if self.assign[v].is_some() {
                continue;
            }
            match self.quant[v] {
                Quantifier::Exists => exists = Some(l),
                Quantifier::ForAll => min_univ_level = min_univ_level.min(self.level[v]),
            }
        }
        let e = exists.expect("one unassigned existential literal");
        (min_univ_level > self.level[e.var().index()]).then_some(e)
    }

    /// Pure-literal rule: assigns every variable that is pure in the
    /// current state at once; returns `true` if any assignment was made.
    fn assign_pure_literals(&mut self) -> bool {
        let mut pure = std::mem::take(&mut self.pure);
        pure.clear();
        // Every value is read from this state, before any is assigned.
        for &v in &self.pure_candidates {
            if self.assign[v.index()].is_some() {
                continue;
            }
            let appears_positive = self.unsat_occs[v.positive().code()] > 0;
            if appears_positive == (self.unsat_occs[v.negative().code()] > 0) {
                continue;
            }
            let value = match self.quant[v.index()] {
                // Existential: satisfy the occurrences.
                Quantifier::Exists => appears_positive,
                // Universal: falsify them (hardest case).
                Quantifier::ForAll => !appears_positive,
            };
            pure.push(v.lit(value));
        }
        self.pure_candidates.clear();
        let mut changed = false;
        for &l in &pure {
            // A variable can be a candidate twice.
            if self.assign[l.var().index()].is_none() {
                self.stats.propagations += 1;
                self.assign_var(l);
                changed = true;
            }
        }
        self.pure = pure;
        changed
    }

    fn budget_exhausted(&self) -> bool {
        if let Some(md) = self.limits.max_decisions {
            if self.stats.decisions >= md {
                return true;
            }
        }
        if let Some(ref c) = self.limits.cancel {
            if c.load(std::sync::atomic::Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(d) = self.limits.deadline {
            if self.stats.decisions.is_multiple_of(32) && Instant::now() >= d {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebmc_logic::Cnf;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    fn check_against_semantics(qbf: &QbfFormula) {
        let expect = qbf.eval_semantic();
        let got = QdpllSolver::new().solve(qbf);
        assert_eq!(
            got,
            if expect {
                QbfResult::True
            } else {
                QbfResult::False
            },
            "QDPLL disagrees with semantics on {qbf}\nmatrix: {:?}",
            qbf.matrix()
        );
    }

    #[test]
    fn forall_exists_copy_true() {
        let mut m = Cnf::new();
        m.add_equiv(v(0).positive(), v(1).positive());
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, [v(0)]);
        q.push_block(Quantifier::Exists, [v(1)]);
        check_against_semantics(&q);
    }

    #[test]
    fn exists_forall_copy_false() {
        let mut m = Cnf::new();
        m.add_equiv(v(0).positive(), v(1).positive());
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::Exists, [v(1)]);
        q.push_block(Quantifier::ForAll, [v(0)]);
        check_against_semantics(&q);
    }

    #[test]
    fn propositional_formulas_reduce_to_sat() {
        let mut m = Cnf::new();
        m.add_binary(v(0).positive(), v(1).positive());
        m.add_unit(v(0).negative());
        let q = QbfFormula::new(m);
        assert_eq!(QdpllSolver::new().solve(&q), QbfResult::True);

        let mut m2 = Cnf::new();
        m2.add_unit(v(0).positive());
        m2.add_unit(v(0).negative());
        let q2 = QbfFormula::new(m2);
        assert_eq!(QdpllSolver::new().solve(&q2), QbfResult::False);
    }

    #[test]
    fn universal_unit_clause_false() {
        let mut m = Cnf::new();
        m.add_unit(v(0).positive());
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, [v(0)]);
        check_against_semantics(&q);
    }

    #[test]
    fn universal_reduction_makes_unit() {
        // ∃e ∀u. (e ∨ u): reduction strips u ⇒ e must be true; formula true.
        let mut m = Cnf::new();
        m.add_binary(v(0).positive(), v(1).positive());
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::Exists, [v(0)]);
        q.push_block(Quantifier::ForAll, [v(1)]);
        check_against_semantics(&q);
        // And the occurrence is propagated, not decided.
        let mut s = QdpllSolver::new();
        s.solve(&q);
        assert!(s.stats().propagations > 0);
    }

    #[test]
    fn two_alternation_formula() {
        // ∀a ∃b ∀c ∃d. (a↔b) ∧ (c↔d): true.
        let mut m = Cnf::new();
        m.add_equiv(v(0).positive(), v(1).positive());
        m.add_equiv(v(2).positive(), v(3).positive());
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, [v(0)]);
        q.push_block(Quantifier::Exists, [v(1)]);
        q.push_block(Quantifier::ForAll, [v(2)]);
        q.push_block(Quantifier::Exists, [v(3)]);
        check_against_semantics(&q);
    }

    #[test]
    fn prefix_order_matters() {
        // ∃b ∀c. (b↔c) is false even though ∀c ∃b would be true.
        let mut m = Cnf::new();
        m.add_equiv(v(0).positive(), v(1).positive());
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::Exists, [v(0)]);
        q.push_block(Quantifier::ForAll, [v(1)]);
        check_against_semantics(&q);
    }

    #[test]
    fn decision_budget_yields_unknown() {
        // A formula needing search, with a zero-decision budget.
        let mut m = Cnf::new();
        // (a∨b)(¬a∨b)(a∨¬b): satisfiable (a=b=1) but needs a decision.
        m.add_binary(v(0).positive(), v(1).positive());
        m.add_binary(v(0).negative(), v(1).positive());
        m.add_binary(v(0).positive(), v(1).negative());
        let q = QbfFormula::new(m);
        let mut s = QdpllSolver::with_limits(QbfLimits {
            max_decisions: Some(0),
            ..QbfLimits::none()
        });
        assert_eq!(s.solve(&q), QbfResult::Unknown);
    }

    #[test]
    fn deadline_in_past_yields_unknown() {
        let mut m = Cnf::new();
        m.add_binary(v(0).positive(), v(1).positive());
        let q = QbfFormula::new(m);
        let mut s = QdpllSolver::with_limits(QbfLimits {
            deadline: Some(Instant::now()),
            ..QbfLimits::none()
        });
        assert_eq!(s.solve(&q), QbfResult::Unknown);
    }

    #[test]
    fn random_small_qbf_agrees_with_semantics() {
        let mut state = 0x51ed_2705u64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..200 {
            let n = 3 + (rnd() % 5) as usize; // 3..=7 vars
            let mut m = Cnf::new();
            let n_clauses = 2 + (rnd() % (2 * n as u64 + 1)) as usize;
            for _ in 0..n_clauses {
                let len = 1 + (rnd() % 3) as usize;
                let mut c = Vec::new();
                for _ in 0..len {
                    c.push(Var::new((rnd() % n as u64) as u32).lit(rnd() % 2 == 0));
                }
                m.add_clause(c);
            }
            m.ensure_vars(n);
            let mut q = QbfFormula::new(m);
            // Random prefix over all vars with random block boundaries.
            let mut quant = if rnd() % 2 == 0 {
                Quantifier::Exists
            } else {
                Quantifier::ForAll
            };
            let mut block = Vec::new();
            for i in 0..n {
                block.push(Var::new(i as u32));
                if rnd() % 3 == 0 {
                    q.push_block(quant, std::mem::take(&mut block));
                    quant = quant.dual();
                }
            }
            q.push_block(quant, block);
            check_against_semantics(&q);
        }
    }
}
