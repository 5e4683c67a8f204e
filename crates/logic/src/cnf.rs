//! Clause and CNF containers.
//!
//! These are *formula* containers used by encoders and by the harness to
//! account for formula size (the paper's space argument is about exactly
//! this quantity). The SAT solver keeps its own arena-based clause
//! storage; this type is the interchange format.

use std::fmt;

use crate::lit::Lit;

/// A disjunction of literals.
///
/// ```
/// use sebmc_logic::{Clause, Var};
/// let c = Clause::from_lits([Var::new(0).positive(), Var::new(1).negative()]);
/// assert_eq!(c.len(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Clause {
    lits: Vec<Lit>,
}

impl Clause {
    /// Creates an empty (unsatisfiable) clause.
    pub fn new() -> Self {
        Clause { lits: Vec::new() }
    }

    /// Creates a clause from an iterator of literals.
    pub fn from_lits<I: IntoIterator<Item = Lit>>(lits: I) -> Self {
        Clause {
            lits: lits.into_iter().collect(),
        }
    }

    /// Number of literals in the clause.
    pub fn len(&self) -> usize {
        self.lits.len()
    }

    /// Returns `true` for the empty clause.
    pub fn is_empty(&self) -> bool {
        self.lits.is_empty()
    }

    /// The literals of this clause.
    pub fn lits(&self) -> &[Lit] {
        &self.lits
    }

    /// Adds a literal to the clause.
    pub fn push(&mut self, lit: Lit) {
        self.lits.push(lit);
    }

    /// Iterates over the literals.
    pub fn iter(&self) -> std::slice::Iter<'_, Lit> {
        self.lits.iter()
    }

    /// Evaluates the clause under a total assignment indexed by
    /// variable (`assignment[v.index()]`).
    ///
    /// # Panics
    ///
    /// Panics if a literal's variable index is out of bounds.
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.lits
            .iter()
            .any(|l| l.apply(assignment[l.var().index()]))
    }

    /// Removes duplicate literals and reports whether the clause is a
    /// tautology (contains both polarities of some variable).
    pub fn normalize(&mut self) -> bool {
        self.lits.sort_unstable();
        self.lits.dedup();
        self.lits.windows(2).any(|w| w[0].var() == w[1].var())
    }
}

impl FromIterator<Lit> for Clause {
    fn from_iter<I: IntoIterator<Item = Lit>>(iter: I) -> Self {
        Clause::from_lits(iter)
    }
}

impl Extend<Lit> for Clause {
    fn extend<I: IntoIterator<Item = Lit>>(&mut self, iter: I) {
        self.lits.extend(iter);
    }
}

impl<'a> IntoIterator for &'a Clause {
    type Item = &'a Lit;
    type IntoIter = std::slice::Iter<'a, Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.iter()
    }
}

impl IntoIterator for Clause {
    type Item = Lit;
    type IntoIter = std::vec::IntoIter<Lit>;

    fn into_iter(self) -> Self::IntoIter {
        self.lits.into_iter()
    }
}

impl fmt::Debug for Clause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, l) in self.lits.iter().enumerate() {
            if i > 0 {
                write!(f, " | ")?;
            }
            write!(f, "{l:?}")?;
        }
        write!(f, ")")
    }
}

/// A formula in conjunctive normal form.
///
/// Tracks the number of variables mentioned and the total number of
/// literals, which the benchmark harness uses as the memory proxy when
/// reproducing the paper's formula-growth figures.
///
/// ```
/// use sebmc_logic::{Cnf, Var};
/// let mut cnf = Cnf::new();
/// let (a, b) = (Var::new(0).positive(), Var::new(1).positive());
/// cnf.add_clause([a, b]);
/// cnf.add_clause([!a]);
/// assert_eq!(cnf.num_clauses(), 2);
/// assert_eq!(cnf.num_literals(), 3);
/// assert_eq!(cnf.num_vars(), 2);
/// ```
#[derive(Clone, PartialEq, Eq, Default)]
pub struct Cnf {
    clauses: Vec<Clause>,
    num_vars: usize,
    num_literals: usize,
}

impl Cnf {
    /// Creates an empty formula (trivially true).
    pub fn new() -> Self {
        Cnf::default()
    }

    /// Creates an empty formula that already accounts for `num_vars`
    /// variables (useful when variables are allocated externally).
    pub fn with_vars(num_vars: usize) -> Self {
        Cnf {
            clauses: Vec::new(),
            num_vars,
            num_literals: 0,
        }
    }

    /// Adds a clause built from an iterator of literals.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) {
        self.push(Clause::from_lits(lits));
    }

    /// Adds a unit clause.
    pub fn add_unit(&mut self, lit: Lit) {
        self.push(Clause::from_lits([lit]));
    }

    /// Adds a binary clause.
    pub fn add_binary(&mut self, a: Lit, b: Lit) {
        self.push(Clause::from_lits([a, b]));
    }

    /// Adds a ternary clause.
    pub fn add_ternary(&mut self, a: Lit, b: Lit, c: Lit) {
        self.push(Clause::from_lits([a, b, c]));
    }

    /// Adds clauses asserting `a ↔ b`.
    pub fn add_equiv(&mut self, a: Lit, b: Lit) {
        self.add_binary(!a, b);
        self.add_binary(a, !b);
    }

    /// Adds an already-built clause.
    pub fn push(&mut self, clause: Clause) {
        for l in &clause {
            self.num_vars = self.num_vars.max(l.var().index() + 1);
        }
        self.num_literals += clause.len();
        self.clauses.push(clause);
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Number of variables (one past the highest mentioned index, or the
    /// externally declared count if larger).
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Declares that variables up to `n` exist even if unmentioned.
    pub fn ensure_vars(&mut self, n: usize) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Total number of literal occurrences across all clauses.
    pub fn num_literals(&self) -> usize {
        self.num_literals
    }

    /// The clauses of the formula.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// Iterates over the clauses.
    pub fn iter(&self) -> std::slice::Iter<'_, Clause> {
        self.clauses.iter()
    }

    /// Evaluates the formula under a total assignment indexed by
    /// variable.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than [`Cnf::num_vars`].
    pub fn eval(&self, assignment: &[bool]) -> bool {
        self.clauses.iter().all(|c| c.eval(assignment))
    }

    /// Appends all clauses of `other` to `self`.
    pub fn append(&mut self, other: &Cnf) {
        for c in other.iter() {
            self.push(c.clone());
        }
    }

    /// Exhaustively tests satisfiability by enumeration. Only intended
    /// for tests and tiny formulas.
    ///
    /// # Panics
    ///
    /// Panics if the formula has more than 24 variables.
    pub fn brute_force_satisfiable(&self) -> bool {
        let n = self.num_vars;
        assert!(n <= 24, "brute force limited to 24 variables, got {n}");
        let mut assignment = vec![false; n];
        for bits in 0u64..(1u64 << n) {
            for (i, slot) in assignment.iter_mut().enumerate() {
                *slot = bits >> i & 1 == 1;
            }
            if self.eval(&assignment) {
                return true;
            }
        }
        n == 0 && self.clauses.iter().all(|c| !c.is_empty())
    }
}

impl fmt::Debug for Cnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Cnf {{ vars: {}, clauses: {} }}",
            self.num_vars,
            self.clauses.len()
        )?;
        for c in &self.clauses {
            writeln!(f, "  {c:?}")?;
        }
        Ok(())
    }
}

impl FromIterator<Clause> for Cnf {
    fn from_iter<I: IntoIterator<Item = Clause>>(iter: I) -> Self {
        let mut cnf = Cnf::new();
        for c in iter {
            cnf.push(c);
        }
        cnf
    }
}

impl Extend<Clause> for Cnf {
    fn extend<I: IntoIterator<Item = Clause>>(&mut self, iter: I) {
        for c in iter {
            self.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    fn lit(i: u32, pos: bool) -> Lit {
        Var::new(i).lit(pos)
    }

    #[test]
    fn clause_eval() {
        let c = Clause::from_lits([lit(0, true), lit(1, false)]);
        assert!(c.eval(&[true, true]));
        assert!(c.eval(&[false, false]));
        assert!(!c.eval(&[false, true]));
    }

    #[test]
    fn clause_normalize_detects_tautology_and_dedups() {
        let mut c = Clause::from_lits([lit(0, true), lit(0, true), lit(1, false)]);
        assert!(!c.normalize());
        assert_eq!(c.len(), 2);

        let mut t = Clause::from_lits([lit(2, true), lit(2, false)]);
        assert!(t.normalize());
    }

    #[test]
    fn cnf_counts_vars_and_literals() {
        let mut cnf = Cnf::new();
        cnf.add_clause([lit(4, true)]);
        cnf.add_binary(lit(0, false), lit(2, true));
        assert_eq!(cnf.num_vars(), 5);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(cnf.num_literals(), 3);
    }

    #[test]
    fn cnf_eval_conjunction() {
        let mut cnf = Cnf::new();
        cnf.add_unit(lit(0, true));
        cnf.add_binary(lit(0, false), lit(1, true));
        assert!(cnf.eval(&[true, true]));
        assert!(!cnf.eval(&[true, false]));
        assert!(!cnf.eval(&[false, true]));
    }

    #[test]
    fn empty_cnf_is_true_empty_clause_is_false() {
        let cnf = Cnf::new();
        assert!(cnf.eval(&[]));
        assert!(cnf.brute_force_satisfiable());

        let mut cnf = Cnf::new();
        cnf.push(Clause::new());
        assert!(!cnf.eval(&[]));
        assert!(!cnf.brute_force_satisfiable());
    }

    #[test]
    fn brute_force_finds_satisfying_assignment() {
        // (x0 | x1) & (!x0) & (!x1 | x2) is satisfied by 011.
        let mut cnf = Cnf::new();
        cnf.add_binary(lit(0, true), lit(1, true));
        cnf.add_unit(lit(0, false));
        cnf.add_binary(lit(1, false), lit(2, true));
        assert!(cnf.brute_force_satisfiable());

        // Add !x2 to make it unsatisfiable.
        cnf.add_unit(lit(2, false));
        assert!(!cnf.brute_force_satisfiable());
    }

    #[test]
    fn equiv_clauses_enforce_equality() {
        let mut cnf = Cnf::new();
        cnf.add_equiv(lit(0, true), lit(1, true));
        assert!(cnf.eval(&[true, true]));
        assert!(cnf.eval(&[false, false]));
        assert!(!cnf.eval(&[true, false]));
        assert!(!cnf.eval(&[false, true]));
    }

    #[test]
    fn append_accumulates() {
        let mut a = Cnf::new();
        a.add_unit(lit(0, true));
        let mut b = Cnf::new();
        b.add_unit(lit(1, false));
        a.append(&b);
        assert_eq!(a.num_clauses(), 2);
        assert_eq!(a.num_vars(), 2);
    }

    #[test]
    fn collect_from_clauses() {
        let cnf: Cnf = vec![
            Clause::from_lits([lit(0, true)]),
            Clause::from_lits([lit(1, false)]),
        ]
        .into_iter()
        .collect();
        assert_eq!(cnf.num_clauses(), 2);
    }
}
