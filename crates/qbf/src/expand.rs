//! Expansion-based QBF solving (Quantor-style universal expansion).
//!
//! The second family of general-purpose QBF solvers available around
//! 2005 eliminated universal quantifiers by *expansion*:
//!
//! `Q… ∀u ∃E. M  ≡  Q… ∃E ∃E'. M[u:=0] ∧ M[u:=1, E:=E']`
//!
//! where `E` are the existential variables inner to `u`, which must be
//! duplicated in one copy. Every expanded universal doubles the inner
//! matrix, so the method is exponential in the number of universals —
//! on the paper's encodings (2) and (3) with `2n` universal state
//! variables this blows up immediately, which is exactly the observed
//! 2005 behaviour. A growth budget turns the blow-up into a clean
//! [`QbfResult::Unknown`]. Only the inner existentials that occur in
//! the matrix are duplicated: one that occurs in no clause needs no
//! second name, however many universals are expanded over it.
//!
//! **Storage.** The solver copies only the quantifier prefix of its
//! input. The first expansion reads the caller's matrix; every later
//! one reads the previous result. Expanded matrices live in two
//! reusable flat buffers, each holding every clause's literals back to
//! back plus one `u32` end offset per clause, which swap roles at each
//! expansion: one is read while the other is written. The last
//! expansion builds no matrix. It frees the idle buffer, sizes the
//! CDCL solver's per-variable arrays exactly with one `ensure_vars`
//! call, and streams its two copies clause by clause into one
//! [`ClauseBatch`](sebmc_sat::ClauseBatch). The largest matrix exists
//! only as the solver's own copy, and the batch's `finish` lays out
//! every watch list with exactly the room its clauses take, instead of
//! growing the lists one clause at a time. Both buffers are freed
//! before the search starts. [`ExpansionStats::peak_watch_bytes`]
//! reports the watch storage of that copy.
//!
//! **Growth guard.** Before each expansion the solver gives up with
//! [`QbfResult::Unknown`] when the next matrix could exceed
//! [`ExpansionLimits::max_matrix_literals`], that is when twice the
//! current literal count is over the cap, or over `u32::MAX`, the
//! largest clause end a buffer can hold. The guard counts only the
//! next copy's literals: not its clause ends, not the buffer it reads
//! and not the CDCL solver's copy.

use std::time::Instant;

use sebmc_logic::{Clause, Cnf, Lit, Var};
use sebmc_sat::{Limits as SatLimits, SolveResult, Solver};

use crate::formula::{QbfFormula, Quantifier};
use crate::qdpll::{QbfLimits, QbfResult};

/// Budgets for the expansion solver.
#[derive(Clone, Debug)]
pub struct ExpansionLimits {
    /// Maximum number of matrix literals the expansion may reach before
    /// giving up (the memory-explosion guard). Values above `u32::MAX`
    /// act as `u32::MAX`.
    pub max_matrix_literals: usize,
    /// Budgets passed to the final SAT call (and used for the deadline
    /// during expansion).
    pub base: QbfLimits,
}

impl Default for ExpansionLimits {
    fn default() -> Self {
        ExpansionLimits {
            max_matrix_literals: 10_000_000,
            base: QbfLimits::none(),
        }
    }
}

/// Statistics of an expansion run.
#[derive(Clone, Debug, Default)]
pub struct ExpansionStats {
    /// Universal variables expanded.
    pub expanded_universals: u64,
    /// Peak literal count of an expanded matrix. The last expansion's
    /// copies, streamed into the SAT solver, count in full, also past a
    /// top-level conflict.
    pub peak_matrix_literals: usize,
    /// Fresh variables introduced by duplication.
    pub duplicated_vars: u64,
    /// Peak bytes of the CDCL solver's watch storage (its
    /// [`Stats::peak_watch_bytes`](sebmc_sat::Stats::peak_watch_bytes)),
    /// over the hand-over of the last copy and the search. 0 when the
    /// expansion stopped before the hand-over.
    pub peak_watch_bytes: usize,
}

/// Expansion-based QBF solver: eliminates universals innermost-first,
/// then hands the purely existential matrix to the CDCL SAT solver.
///
/// ```
/// use sebmc_logic::{Cnf, Var};
/// use sebmc_qbf::{ExpansionSolver, QbfFormula, QbfResult, Quantifier};
///
/// // ∀x ∃y. (x ↔ y)
/// let (x, y) = (Var::new(0), Var::new(1));
/// let mut m = Cnf::new();
/// m.add_equiv(x.positive(), y.positive());
/// let mut qbf = QbfFormula::new(m);
/// qbf.push_block(Quantifier::ForAll, [x]);
/// qbf.push_block(Quantifier::Exists, [y]);
/// assert_eq!(ExpansionSolver::new().solve(&qbf), QbfResult::True);
/// ```
#[derive(Debug, Default)]
pub struct ExpansionSolver {
    limits: ExpansionLimits,
    stats: ExpansionStats,
}

impl ExpansionSolver {
    /// Creates a solver with default (large) growth budgets.
    pub fn new() -> Self {
        ExpansionSolver::default()
    }

    /// Creates a solver with the given budgets.
    pub fn with_limits(limits: ExpansionLimits) -> Self {
        ExpansionSolver {
            limits,
            stats: ExpansionStats::default(),
        }
    }

    /// Sets the budgets for subsequent solves.
    pub fn set_limits(&mut self, limits: ExpansionLimits) {
        self.limits = limits;
    }

    /// Statistics of the most recent solve.
    pub fn stats(&self) -> &ExpansionStats {
        &self.stats
    }

    /// Decides the truth of `qbf`.
    pub fn solve(&mut self, qbf: &QbfFormula) -> QbfResult {
        self.stats = ExpansionStats::default();
        let mut sat = Solver::new();
        sat.set_limits(SatLimits {
            deadline: self.limits.base.deadline,
            cancel: self.limits.base.cancel.clone(),
            ..SatLimits::none()
        });
        // The expansion's buffers are freed when it returns, before the
        // search starts.
        let result = match self.expand_into(qbf, &mut sat) {
            None => QbfResult::Unknown,
            Some(false) => QbfResult::False,
            Some(true) => match sat.solve() {
                SolveResult::Sat => QbfResult::True,
                SolveResult::Unsat => QbfResult::False,
                SolveResult::Unknown => QbfResult::Unknown,
            },
        };
        self.stats.peak_watch_bytes = sat.stats().peak_watch_bytes;
        result
    }

    /// Expands every universal of `qbf`, innermost first, and streams
    /// the purely existential result into `sat`. Returns `None` when
    /// the deadline, the cancel flag or the growth guard stops the
    /// expansion, else whether `sat` is free of a top-level conflict.
    fn expand_into(&mut self, qbf: &QbfFormula, sat: &mut Solver) -> Option<bool> {
        let cap = self.limits.max_matrix_literals.min(u32::MAX as usize);
        let input = qbf.matrix();
        // Free matrix variables are outermost existentials, never inner
        // to a universal, so the prefix needs no closing.
        let mut prefix = qbf.prefix().to_vec();
        let mut num_vars = input.num_vars();
        let (mut lits, mut clauses) = (input.num_literals(), input.num_clauses());
        // `rename[v]` is `v`'s name in the `u := 1` copy. Only inner
        // existentials are ever renamed, and the inner variables only
        // grow as the expansion moves outward, so every other variable
        // keeps its own name.
        let mut rename: Vec<Var> = (0..num_vars as u32).map(Var::new).collect();
        let mut occurs = Vec::new();
        let (mut cur, mut next) = (FlatMatrix::default(), FlatMatrix::default());
        let mut ok = true;
        while let Some(ub) = prefix
            .iter()
            .rposition(|b| b.quantifier == Quantifier::ForAll)
        {
            if self.deadline_passed() || 2 * lits > cap {
                return None;
            }
            let first = self.stats.expanded_universals == 0;
            // Every block after `ub` is existential. Its variables that
            // occur in the matrix get fresh names, numbered in prefix
            // order from `num_vars` on.
            occurs.clear();
            occurs.resize(num_vars, false);
            for l in source_clauses(input, &cur, first).flatten() {
                occurs[l.var().index()] = true;
            }
            let fresh = num_vars;
            for &e in prefix[ub + 1..].iter().flat_map(|b| &b.vars) {
                if occurs[e.index()] {
                    rename[e.index()] = Var::new(num_vars as u32);
                    num_vars += 1;
                }
            }
            rename.extend((fresh as u32..num_vars as u32).map(Var::new));
            let u = prefix[ub]
                .vars
                .pop()
                .expect("universal blocks are non-empty");
            if prefix[ub].vars.is_empty() {
                prefix.remove(ub);
            }
            let source = source_clauses(input, &cur, first);
            if prefix.iter().any(|b| b.quantifier == Quantifier::ForAll) {
                next.reset(2 * lits, 2 * clauses);
                expand(source, u, &rename, |c| next.push(c));
                (lits, clauses) = (next.lits.len(), next.ends.len());
                std::mem::swap(&mut cur, &mut next);
            } else {
                // The last expansion frees the idle buffer and streams
                // its copies straight into one clause batch of the SAT
                // solver, counting them also past a top-level conflict.
                next = FlatMatrix::default();
                sat.ensure_vars(num_vars);
                lits = 0;
                let mut batch = sat.batch();
                expand(source, u, &rename, |c| {
                    lits += c.len();
                    batch.add(c);
                });
                ok = batch.finish();
            }
            self.stats.expanded_universals += 1;
            self.stats.peak_matrix_literals = self.stats.peak_matrix_literals.max(lits);
            if num_vars > fresh {
                self.stats.duplicated_vars += (num_vars - fresh) as u64;
                // The fresh names join the innermost existential block.
                prefix
                    .last_mut()
                    .expect("renamed variables are inner to a universal")
                    .vars
                    .extend((fresh as u32..num_vars as u32).map(Var::new));
            }
        }
        if self.stats.expanded_universals == 0 {
            ok = sat.add_cnf(input);
        }
        Some(ok)
    }

    fn deadline_passed(&self) -> bool {
        if let Some(ref c) = self.limits.base.cancel {
            if c.load(std::sync::atomic::Ordering::Relaxed) {
                return true;
            }
        }
        self.limits
            .base
            .deadline
            .is_some_and(|d| Instant::now() >= d)
    }
}

/// A CNF matrix stored flat: every clause's literals back to back in
/// `lits`, and in `ends` the offset one past each clause's last literal.
#[derive(Debug, Default)]
struct FlatMatrix {
    lits: Vec<Lit>,
    ends: Vec<u32>,
}

impl FlatMatrix {
    /// Empties the matrix, keeping its buffers, and makes room for up
    /// to `lits` literals in `clauses` clauses.
    fn reset(&mut self, lits: usize, clauses: usize) {
        self.lits.clear();
        self.lits.reserve(lits);
        self.ends.clear();
        self.ends.reserve(clauses);
    }

    /// Appends one clause. The growth guard keeps the literal count
    /// within `u32::MAX`.
    fn push(&mut self, clause: &[Lit]) {
        self.lits.extend_from_slice(clause);
        self.ends.push(self.lits.len() as u32);
    }

    /// The clauses, in order.
    fn clauses(&self) -> impl Iterator<Item = &[Lit]> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let clause = &self.lits[start..end as usize];
            start = end as usize;
            clause
        })
    }
}

/// The clauses of the matrix about to be expanded: the caller's before
/// the `first` expansion, the last expansion's flat buffer after it.
fn source_clauses<'a>(
    input: &'a Cnf,
    cur: &'a FlatMatrix,
    first: bool,
) -> impl Iterator<Item = &'a [Lit]> + 'a {
    let from_input = if first { input.num_clauses() } else { 0 };
    input
        .iter()
        .take(from_input)
        .map(Clause::lits)
        .chain(cur.clauses())
}

/// Hands `emit` the two copies of every clause of `matrix`, in clause
/// order: under `u := 0` as it is, then under `u := 1` with each
/// variable `v` renamed to `rename[v]`. A copy the value of `u`
/// satisfies is dropped, and `u`'s falsified literal is left out.
fn expand<'a>(
    matrix: impl Iterator<Item = &'a [Lit]>,
    u: Var,
    rename: &[Var],
    mut emit: impl FnMut(&[Lit]),
) {
    let mut copy = Vec::new();
    for clause in matrix {
        let kept = clause.iter().filter(|l| l.var() != u);
        if !clause.contains(&u.negative()) {
            copy.clear();
            copy.extend(kept.clone());
            emit(&copy);
        }
        if !clause.contains(&u.positive()) {
            copy.clear();
            copy.extend(kept.map(|l| rename[l.var().index()].lit(l.is_positive())));
            emit(&copy);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    fn check(qbf: &QbfFormula) {
        let expect = qbf.eval_semantic();
        let mut solver = ExpansionSolver::new();
        let got = solver.solve(qbf);
        assert_eq!(
            got,
            if expect {
                QbfResult::True
            } else {
                QbfResult::False
            },
            "expansion disagrees with semantics on {qbf}"
        );
        assert_eq!(
            solver.stats().expanded_universals,
            qbf.num_universals() as u64,
            "every universal of {qbf} is expanded"
        );
    }

    #[test]
    fn forall_exists_copy() {
        let mut m = Cnf::new();
        m.add_equiv(v(0).positive(), v(1).positive());
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, [v(0)]);
        q.push_block(Quantifier::Exists, [v(1)]);
        check(&q);
    }

    #[test]
    fn exists_forall_copy() {
        let mut m = Cnf::new();
        m.add_equiv(v(0).positive(), v(1).positive());
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::Exists, [v(1)]);
        q.push_block(Quantifier::ForAll, [v(0)]);
        check(&q);
    }

    #[test]
    fn multiple_universals_expand() {
        // ∀a,b ∃c. (c ↔ a∧b) is true (c := a∧b) — expressed in CNF via
        // the three Tseitin clauses of c = a∧b.
        let (a, b, c) = (v(0), v(1), v(2));
        let mut m = Cnf::new();
        m.add_binary(c.negative(), a.positive());
        m.add_binary(c.negative(), b.positive());
        m.add_ternary(a.negative(), b.negative(), c.positive());
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, [a, b]);
        q.push_block(Quantifier::Exists, [c]);
        check(&q);
        let mut s = ExpansionSolver::new();
        s.solve(&q);
        assert_eq!(s.stats().expanded_universals, 2);
        assert!(s.stats().duplicated_vars > 0);
    }

    #[test]
    fn growth_budget_gives_unknown() {
        // Many universals over a chain: cap the matrix tightly.
        let n = 10;
        let mut m = Cnf::new();
        for i in 0..n {
            m.add_binary(v(i).positive(), v(i + 1).negative());
        }
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, (0..=n).map(v));
        let mut s = ExpansionSolver::with_limits(ExpansionLimits {
            max_matrix_literals: 8,
            base: QbfLimits::none(),
        });
        assert_eq!(s.solve(&q), QbfResult::Unknown);
    }

    #[test]
    fn propositional_falls_through_to_sat() {
        let mut m = Cnf::new();
        m.add_unit(v(0).positive());
        m.add_unit(v(0).negative());
        let q = QbfFormula::new(m);
        let mut s = ExpansionSolver::new();
        assert_eq!(s.solve(&q), QbfResult::False);
        // No universal: the matrix goes to CDCL as it is.
        assert_eq!(s.stats().expanded_universals, 0);
        assert_eq!(s.stats().peak_matrix_literals, 0);
        assert_eq!(s.stats().duplicated_vars, 0);
    }

    #[test]
    fn conflict_in_streamed_copy_still_counts_its_literals() {
        // ∀u ∃e. (e) ∧ (¬e) streams (e), (e'), (¬e), (¬e'): the third
        // clause is a top-level conflict, and the fourth still counts.
        let (u, e) = (v(0), v(1));
        let mut m = Cnf::new();
        m.add_unit(e.positive());
        m.add_unit(e.negative());
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, [u]);
        q.push_block(Quantifier::Exists, [e]);
        let mut s = ExpansionSolver::new();
        assert_eq!(s.solve(&q), QbfResult::False);
        assert_eq!(s.stats().expanded_universals, 1);
        assert_eq!(s.stats().peak_matrix_literals, 4);
        assert_eq!(s.stats().duplicated_vars, 1);
    }

    #[test]
    fn existentials_in_no_clause_are_not_duplicated() {
        // ∀u₁…u₁₂ ∃e₁…e₈ over an empty matrix is trivially true, and no
        // existential occurs, so none needs a second name.
        let mut q = QbfFormula::new(Cnf::new());
        q.push_block(Quantifier::ForAll, (0..12).map(v));
        q.push_block(Quantifier::Exists, (12..20).map(v));
        let mut s = ExpansionSolver::new();
        assert_eq!(s.solve(&q), QbfResult::True);
        assert_eq!(s.stats().expanded_universals, 12);
        assert_eq!(s.stats().duplicated_vars, 0);
    }

    #[test]
    fn cancel_before_the_call_expands_nothing() {
        let mut m = Cnf::new();
        m.add_equiv(v(0).positive(), v(1).positive());
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, [v(0)]);
        q.push_block(Quantifier::Exists, [v(1)]);
        let cancel = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
        let mut s = ExpansionSolver::with_limits(ExpansionLimits {
            base: QbfLimits {
                cancel: Some(cancel),
                ..QbfLimits::none()
            },
            ..ExpansionLimits::default()
        });
        assert_eq!(s.solve(&q), QbfResult::Unknown);
        assert_eq!(s.stats().expanded_universals, 0);
    }

    #[test]
    fn random_small_qbf_agrees_with_semantics() {
        let mut state = 0x00c0_ffeeu64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..150 {
            let n = 3 + (rnd() % 4) as usize;
            let mut m = Cnf::new();
            let n_clauses = 2 + (rnd() % (2 * n as u64)) as usize;
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
            check(&q);
        }
    }
}
