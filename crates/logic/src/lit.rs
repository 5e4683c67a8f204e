//! Solver variables and literals.
//!
//! Uses the MiniSat packed representation: a [`Var`] is a dense index,
//! and a [`Lit`] is `var << 1 | sign` so that a literal and its negation
//! are adjacent integers. This layout lets solvers index watch lists and
//! assignment tables directly by literal.

use std::fmt;
use std::ops::Not;

/// A propositional variable, identified by a dense non-negative index.
///
/// Variables are created by the owning solver or by a [`VarAlloc`]; the
/// index is used directly as a table offset throughout the workspace.
///
/// ```
/// use sebmc_logic::Var;
/// let v = Var::new(3);
/// assert_eq!(v.index(), 3);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Var(u32);

impl Var {
    /// Creates a variable from its dense index.
    #[inline]
    pub fn new(index: u32) -> Self {
        Var(index)
    }

    /// Returns the dense index of this variable.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the positive literal of this variable.
    #[inline]
    pub fn positive(self) -> Lit {
        Lit::new(self, true)
    }

    /// Returns the negative literal of this variable.
    #[inline]
    pub fn negative(self) -> Lit {
        Lit::new(self, false)
    }

    /// Returns the literal of this variable with the given polarity.
    ///
    /// `positive == true` yields the positive literal.
    #[inline]
    pub fn lit(self, positive: bool) -> Lit {
        Lit::new(self, positive)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A literal: a variable together with a polarity.
///
/// Packed as `var << 1 | sign`, where `sign == 1` means *negated*. The
/// packed code is exposed through [`Lit::code`] for table indexing.
///
/// ```
/// use sebmc_logic::{Lit, Var};
/// let l = Var::new(7).positive();
/// assert_eq!((!l).var(), l.var());
/// assert!(l.is_positive() && !(!l).is_positive());
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lit(u32);

impl Lit {
    /// The largest variable number a DIMACS literal may carry: the
    /// packed code has 31 bits for the variable index.
    pub const MAX_DIMACS_VAR: usize = 1 << 31;

    /// Creates a literal from a variable and polarity (`true` = positive).
    #[inline]
    pub fn new(var: Var, positive: bool) -> Self {
        debug_assert!(
            var.index() < Lit::MAX_DIMACS_VAR,
            "variable {var} has no literal"
        );
        Lit(var.0 << 1 | u32::from(!positive))
    }

    /// Returns the variable underlying this literal.
    #[inline]
    pub fn var(self) -> Var {
        Var(self.0 >> 1)
    }

    /// Returns `true` if this is the positive (unnegated) literal.
    #[inline]
    pub fn is_positive(self) -> bool {
        self.0 & 1 == 0
    }

    /// Returns `true` if this is the negative (negated) literal.
    #[inline]
    pub fn is_negative(self) -> bool {
        self.0 & 1 == 1
    }

    /// Returns the packed code (`var << 1 | sign`), usable as a dense
    /// table index over literals.
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a literal from its packed [`code`](Lit::code).
    #[inline]
    pub fn from_code(code: usize) -> Self {
        Lit(code as u32)
    }

    /// Applies an external truth value to this literal: returns the
    /// literal's value when its variable is assigned `value`.
    #[inline]
    pub fn apply(self, value: bool) -> bool {
        value ^ self.is_negative()
    }

    /// Converts to the signed DIMACS convention (`var + 1`, negative if
    /// the literal is negated).
    #[inline]
    pub fn to_dimacs(self) -> i64 {
        let v = (self.var().index() + 1) as i64;
        if self.is_positive() {
            v
        } else {
            -v
        }
    }

    /// Parses a literal from the signed DIMACS convention.
    ///
    /// Returns `None` for `0` (the DIMACS clause terminator).
    ///
    /// # Panics
    ///
    /// Panics if the variable number is above [`Lit::MAX_DIMACS_VAR`]
    /// (parsers reject such input before converting it).
    #[inline]
    pub fn from_dimacs(value: i64) -> Option<Self> {
        if value == 0 {
            return None;
        }
        let number = value.unsigned_abs();
        assert!(
            number <= Lit::MAX_DIMACS_VAR as u64,
            "DIMACS variable {number} is above 2^31"
        );
        Some(Lit::new(Var::new((number - 1) as u32), value > 0))
    }
}

impl Not for Lit {
    type Output = Lit;

    #[inline]
    fn not(self) -> Lit {
        Lit(self.0 ^ 1)
    }
}

impl fmt::Debug for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_negative() {
            write!(f, "!x{}", self.var().0)
        } else {
            write!(f, "x{}", self.var().0)
        }
    }
}

impl fmt::Display for Lit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A monotone allocator of fresh variables.
///
/// Encoders use a `VarAlloc` to create auxiliary (Tseitin) variables
/// without owning a solver. Solvers can resume allocation from an
/// existing count via [`VarAlloc::starting_at`].
///
/// ```
/// use sebmc_logic::VarAlloc;
/// let mut alloc = VarAlloc::new();
/// let a = alloc.fresh();
/// let b = alloc.fresh();
/// assert_ne!(a, b);
/// assert_eq!(alloc.num_vars(), 2);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VarAlloc {
    next: u32,
}

impl VarAlloc {
    /// Creates an allocator starting at variable index 0.
    pub fn new() -> Self {
        VarAlloc { next: 0 }
    }

    /// Creates an allocator whose first fresh variable has index
    /// `count`, for resuming after `count` existing variables.
    pub fn starting_at(count: usize) -> Self {
        VarAlloc { next: count as u32 }
    }

    /// Allocates and returns a fresh variable.
    #[inline]
    pub fn fresh(&mut self) -> Var {
        let v = Var(self.next);
        self.next += 1;
        v
    }

    /// Allocates a fresh variable and returns its positive literal.
    #[inline]
    pub fn fresh_lit(&mut self) -> Lit {
        self.fresh().positive()
    }

    /// Allocates `n` fresh variables, returning their positive literals.
    pub fn fresh_lits(&mut self, n: usize) -> Vec<Lit> {
        (0..n).map(|_| self.fresh_lit()).collect()
    }

    /// Returns how many variables have been allocated so far.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.next as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_packing_round_trips() {
        for idx in [0u32, 1, 2, 17, 1000] {
            let v = Var::new(idx);
            let p = v.positive();
            let n = v.negative();
            assert_eq!(p.var(), v);
            assert_eq!(n.var(), v);
            assert!(p.is_positive());
            assert!(n.is_negative());
            assert_eq!(!p, n);
            assert_eq!(!n, p);
            assert_eq!(Lit::from_code(p.code()), p);
            assert_eq!(Lit::from_code(n.code()), n);
        }
    }

    #[test]
    fn negation_is_involutive() {
        let l = Var::new(5).negative();
        assert_eq!(!!l, l);
    }

    #[test]
    fn apply_respects_polarity() {
        let v = Var::new(2);
        assert!(v.positive().apply(true));
        assert!(!v.positive().apply(false));
        assert!(!v.negative().apply(true));
        assert!(v.negative().apply(false));
    }

    #[test]
    fn dimacs_conversion_round_trips() {
        for code in 0..20usize {
            let l = Lit::from_code(code);
            assert_eq!(Lit::from_dimacs(l.to_dimacs()), Some(l));
        }
        assert_eq!(Lit::from_dimacs(0), None);
        assert_eq!(Lit::from_dimacs(-1), Some(Var::new(0).negative()));
        assert_eq!(Lit::from_dimacs(3), Some(Var::new(2).positive()));
    }

    #[test]
    fn var_lit_helper_matches_polarity() {
        let v = Var::new(9);
        assert_eq!(v.lit(true), v.positive());
        assert_eq!(v.lit(false), v.negative());
    }

    #[test]
    fn alloc_is_monotone_and_resumable() {
        let mut a = VarAlloc::starting_at(4);
        assert_eq!(a.fresh().index(), 4);
        assert_eq!(a.fresh().index(), 5);
        let lits = a.fresh_lits(3);
        assert_eq!(lits.len(), 3);
        assert_eq!(lits[2].var().index(), 8);
        assert_eq!(a.num_vars(), 9);
    }

    #[test]
    fn display_forms() {
        assert_eq!(format!("{}", Var::new(4)), "x4");
        assert_eq!(format!("{}", Var::new(4).negative()), "!x4");
        assert_eq!(format!("{:?}", Var::new(4).positive()), "x4");
    }
}
