//! Prenex-CNF quantified Boolean formulae.
//!
//! A QBF here is a quantifier prefix (a sequence of ∃/∀ blocks, the
//! outermost first) over a CNF matrix. This is the shape produced by
//! the paper's encodings (2) and (3): the linear encoding has the
//! ∃∀∃ pattern, iterative squaring adds one alternation per level.

use std::fmt;

use sebmc_logic::{Cnf, Var};

/// A quantifier kind.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Quantifier {
    /// Existential (`∃`).
    Exists,
    /// Universal (`∀`).
    ForAll,
}

impl Quantifier {
    /// The other quantifier.
    pub fn dual(self) -> Quantifier {
        match self {
            Quantifier::Exists => Quantifier::ForAll,
            Quantifier::ForAll => Quantifier::Exists,
        }
    }
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quantifier::Exists => write!(f, "exists"),
            Quantifier::ForAll => write!(f, "forall"),
        }
    }
}

/// One block of identically quantified variables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QuantBlock {
    /// The block's quantifier.
    pub quantifier: Quantifier,
    /// The variables bound by this block.
    pub vars: Vec<Var>,
}

/// A prenex-CNF QBF: quantifier prefix (outermost first) over a CNF
/// matrix. Unquantified matrix variables are treated as outermost
/// existentials (the QDIMACS convention), made explicit by
/// [`QbfFormula::close`].
///
/// ```
/// use sebmc_logic::{Cnf, Var};
/// use sebmc_qbf::{QbfFormula, Quantifier};
///
/// // ∀x ∃y. (x ↔ y)   — true: y can copy x.
/// let (x, y) = (Var::new(0), Var::new(1));
/// let mut m = Cnf::new();
/// m.add_equiv(x.positive(), y.positive());
/// let mut qbf = QbfFormula::new(m);
/// qbf.push_block(Quantifier::ForAll, [x]);
/// qbf.push_block(Quantifier::Exists, [y]);
/// assert!(qbf.eval_semantic());
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QbfFormula {
    prefix: Vec<QuantBlock>,
    matrix: Cnf,
}

impl QbfFormula {
    /// Creates a QBF with an empty prefix over `matrix`.
    pub fn new(matrix: Cnf) -> Self {
        QbfFormula {
            prefix: Vec::new(),
            matrix,
        }
    }

    /// Appends a quantifier block (innermost position). Adjacent blocks
    /// with the same quantifier are merged; empty blocks are dropped.
    pub fn push_block<I: IntoIterator<Item = Var>>(&mut self, q: Quantifier, vars: I) {
        let vars: Vec<Var> = vars.into_iter().collect();
        if vars.is_empty() {
            return;
        }
        for v in &vars {
            self.matrix.ensure_vars(v.index() + 1);
        }
        if let Some(last) = self.prefix.last_mut() {
            if last.quantifier == q {
                last.vars.extend(vars);
                return;
            }
        }
        self.prefix.push(QuantBlock {
            quantifier: q,
            vars,
        });
    }

    /// The quantifier prefix, outermost block first.
    pub fn prefix(&self) -> &[QuantBlock] {
        &self.prefix
    }

    /// The CNF matrix.
    pub fn matrix(&self) -> &Cnf {
        &self.matrix
    }

    /// Mutable access to the matrix (for in-place strengthening).
    pub fn matrix_mut(&mut self) -> &mut Cnf {
        &mut self.matrix
    }

    /// Binds every matrix variable missing from the prefix in a new
    /// *outermost* existential block (the QDIMACS free-variable rule).
    pub fn close(&mut self) {
        let mut bound = vec![false; self.matrix.num_vars()];
        for b in &self.prefix {
            for v in &b.vars {
                bound[v.index()] = true;
            }
        }
        let free: Vec<Var> = (0..self.matrix.num_vars())
            .filter(|&i| !bound[i])
            .map(|i| Var::new(i as u32))
            .collect();
        if free.is_empty() {
            return;
        }
        if let Some(first) = self.prefix.first_mut() {
            if first.quantifier == Quantifier::Exists {
                first.vars.splice(0..0, free);
                return;
            }
        }
        self.prefix.insert(
            0,
            QuantBlock {
                quantifier: Quantifier::Exists,
                vars: free,
            },
        );
    }

    /// Number of universally quantified variables — the paper tracks
    /// this per encoding (constant for (2), growing for (3)).
    pub fn num_universals(&self) -> usize {
        self.prefix
            .iter()
            .filter(|b| b.quantifier == Quantifier::ForAll)
            .map(|b| b.vars.len())
            .sum()
    }

    /// Number of existentially quantified variables.
    pub fn num_existentials(&self) -> usize {
        self.prefix
            .iter()
            .filter(|b| b.quantifier == Quantifier::Exists)
            .map(|b| b.vars.len())
            .sum()
    }

    /// Number of quantifier alternations in the prefix (blocks − 1 after
    /// merging; 0 for a purely existential formula).
    pub fn num_alternations(&self) -> usize {
        self.prefix.len().saturating_sub(1)
    }

    /// Checks structural sanity: every bound variable declared, no
    /// variable bound twice, every matrix variable bound. Returns a
    /// description of the first violation in that order, naming the
    /// lowest offending variable of its kind.
    ///
    /// Works on a sorted copy of the prefix's variables, so it
    /// allocates in proportion to the prefix and never to the declared
    /// variable count (a QDIMACS header alone sets that count).
    pub fn validate(&self) -> Result<(), String> {
        let mut bound: Vec<Var> = self
            .prefix
            .iter()
            .flat_map(|b| b.vars.iter().copied())
            .collect();
        bound.sort_unstable();
        if let Some(v) = bound.iter().find(|v| v.index() >= self.matrix.num_vars()) {
            return Err(format!("prefix binds unknown variable {v}"));
        }
        if let Some(pair) = bound.windows(2).find(|pair| pair[0] == pair[1]) {
            return Err(format!("variable {} bound twice", pair[0]));
        }
        let unbound = self
            .matrix
            .iter()
            .flatten()
            .map(|l| l.var())
            .filter(|v| bound.binary_search(v).is_err())
            .min();
        match unbound {
            Some(v) => Err(format!("matrix variable {v} is unbound")),
            None => Ok(()),
        }
    }

    /// Semantic truth of the QBF by exhaustive two-player evaluation.
    /// Exponential; intended for tests and tiny formulae only.
    ///
    /// Unbound matrix variables are treated as outermost existentials.
    ///
    /// # Panics
    ///
    /// Panics if more than 24 variables would need enumeration.
    pub fn eval_semantic(&self) -> bool {
        let mut closed = self.clone();
        closed.close();
        assert!(
            closed.matrix.num_vars() <= 24,
            "semantic evaluation limited to 24 variables"
        );
        let order: Vec<(Var, Quantifier)> = closed
            .prefix
            .iter()
            .flat_map(|b| b.vars.iter().map(move |&v| (v, b.quantifier)))
            .collect();
        let mut assignment = vec![false; closed.matrix.num_vars()];
        eval_rec(&closed.matrix, &order, 0, &mut assignment)
    }
}

fn eval_rec(
    matrix: &Cnf,
    order: &[(Var, Quantifier)],
    i: usize,
    assignment: &mut Vec<bool>,
) -> bool {
    if i == order.len() {
        return matrix.eval(assignment);
    }
    let (v, q) = order[i];
    let mut result = q == Quantifier::ForAll;
    for value in [false, true] {
        assignment[v.index()] = value;
        let sub = eval_rec(matrix, order, i + 1, assignment);
        match q {
            Quantifier::Exists => result = result || sub,
            Quantifier::ForAll => result = result && sub,
        }
        // Short-circuit.
        if (q == Quantifier::Exists && result) || (q == Quantifier::ForAll && !result) {
            break;
        }
    }
    result
}

impl fmt::Display for QbfFormula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.prefix {
            let sym = match b.quantifier {
                Quantifier::Exists => "∃",
                Quantifier::ForAll => "∀",
            };
            write!(f, "{sym}")?;
            for v in &b.vars {
                write!(f, " {v}")?;
            }
            write!(f, ". ")?;
        }
        write!(
            f,
            "[{} vars, {} clauses]",
            self.matrix.num_vars(),
            self.matrix.num_clauses()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebmc_logic::Lit;

    fn v(i: u32) -> Var {
        Var::new(i)
    }

    fn pos(i: u32) -> Lit {
        v(i).positive()
    }

    #[test]
    fn push_block_merges_adjacent_same_quantifier() {
        let mut q = QbfFormula::new(Cnf::new());
        q.push_block(Quantifier::Exists, [v(0)]);
        q.push_block(Quantifier::Exists, [v(1)]);
        q.push_block(Quantifier::ForAll, [v(2)]);
        q.push_block(Quantifier::Exists, []);
        assert_eq!(q.prefix().len(), 2);
        assert_eq!(q.num_alternations(), 1);
        assert_eq!(q.num_existentials(), 2);
        assert_eq!(q.num_universals(), 1);
    }

    #[test]
    fn close_binds_free_vars_outermost() {
        let mut m = Cnf::new();
        m.add_binary(pos(0), pos(1));
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, [v(1)]);
        q.close();
        assert_eq!(q.prefix()[0].quantifier, Quantifier::Exists);
        assert_eq!(q.prefix()[0].vars, vec![v(0)]);
        assert!(q.validate().is_ok());
    }

    #[test]
    fn close_prepends_to_existing_exists_block() {
        let mut m = Cnf::new();
        m.add_binary(pos(0), pos(1));
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::Exists, [v(1)]);
        q.close();
        assert_eq!(q.prefix().len(), 1);
        assert_eq!(q.prefix()[0].vars, vec![v(0), v(1)]);
    }

    #[test]
    fn validate_rejects_double_binding_and_unbound() {
        let mut m = Cnf::new();
        m.add_unit(pos(0));
        let mut q = QbfFormula::new(m.clone());
        q.push_block(Quantifier::Exists, [v(0)]);
        q.push_block(Quantifier::ForAll, [v(0)]);
        assert!(q.validate().unwrap_err().contains("bound twice"));

        let q2 = QbfFormula::new(m);
        assert!(q2.validate().unwrap_err().contains("unbound"));
    }

    #[test]
    fn semantic_eval_forall_exists_copy() {
        // ∀x ∃y. (x ↔ y) is true.
        let mut m = Cnf::new();
        m.add_equiv(pos(0), pos(1));
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, [v(0)]);
        q.push_block(Quantifier::Exists, [v(1)]);
        assert!(q.eval_semantic());
    }

    #[test]
    fn semantic_eval_exists_forall_copy_is_false() {
        // ∃y ∀x. (x ↔ y) is false.
        let mut m = Cnf::new();
        m.add_equiv(pos(0), pos(1));
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::Exists, [v(1)]);
        q.push_block(Quantifier::ForAll, [v(0)]);
        assert!(!q.eval_semantic());
    }

    #[test]
    fn semantic_eval_universal_tautology() {
        // ∀x. (x ∨ ¬x) is true.
        let mut m = Cnf::new();
        m.add_binary(pos(0), !pos(0));
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, [v(0)]);
        assert!(q.eval_semantic());
    }

    #[test]
    fn semantic_eval_universal_unit_is_false() {
        // ∀x. x is false.
        let mut m = Cnf::new();
        m.add_unit(pos(0));
        let mut q = QbfFormula::new(m);
        q.push_block(Quantifier::ForAll, [v(0)]);
        assert!(!q.eval_semantic());
    }

    #[test]
    fn free_vars_are_existential_in_semantics() {
        // Matrix: x. Free x ⇒ ∃x. x ⇒ true.
        let mut m = Cnf::new();
        m.add_unit(pos(0));
        let q = QbfFormula::new(m);
        assert!(q.eval_semantic());
    }

    #[test]
    fn display_is_informative() {
        let mut q = QbfFormula::new(Cnf::with_vars(2));
        q.push_block(Quantifier::ForAll, [v(0)]);
        q.push_block(Quantifier::Exists, [v(1)]);
        let s = format!("{q}");
        assert!(s.contains('∀') && s.contains('∃'));
        assert_eq!(Quantifier::Exists.dual(), Quantifier::ForAll);
    }
}
