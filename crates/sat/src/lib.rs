//! An incremental CDCL SAT solver, built from scratch for the
//! reproduction of *"Space-Efficient Bounded Model Checking"*
//! (DATE 2005).
//!
//! The paper's experiments need three things from a SAT solver:
//!
//! 1. a competitive DPLL/CDCL core to solve the classical unrolled BMC
//!    formulae (formulation (1) in the paper) — see [`Solver`];
//! 2. an *incremental* interface with assumptions, which the paper's
//!    special-purpose jSAT procedure drives frame by frame;
//! 3. accurate accounting of live formula memory, plus hard resource
//!    budgets ([`Limits`]), so the 300 s / 1 GB experiment protocol can
//!    be reproduced deterministically.
//!
//! # Example
//!
//! ```
//! use sebmc_sat::{SolveResult, Solver};
//!
//! let mut s = Solver::new();
//! let x = s.new_var();
//! let y = s.new_var();
//! s.add_clause([x.positive(), y.positive()]);
//! s.add_clause([x.negative(), y.positive()]);
//! assert_eq!(s.solve(), SolveResult::Sat);
//! assert_eq!(s.value(y), Some(true));
//!
//! // Incremental: the same solver, now with an extra constraint.
//! s.add_clause([y.negative()]);
//! assert_eq!(s.solve(), SolveResult::Unsat);
//! ```

#![forbid(unsafe_code)]

pub mod arena;
mod heap;
mod occlists;
mod solver;

pub use arena::{CRef, ClauseArena};
pub use solver::{ClauseBatch, Limits, SolveResult, Solver, Stats};
