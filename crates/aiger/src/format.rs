//! The AIGER in-memory representation.
//!
//! AIGER is the standard exchange format for and-inverter graphs used
//! by hardware model checkers (HWMCC). Literals are unsigned integers:
//! `0`/`1` are the constants, variable `v`'s positive literal is `2v`
//! and its negation `2v + 1`.

use std::collections::HashMap;
use std::fmt;

/// Reset behaviour of a latch (AIGER 1.9).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum AigerReset {
    /// Latch starts at 0 (the AIGER 1.0 default).
    Zero,
    /// Latch starts at 1.
    One,
    /// Latch starts nondeterministically.
    Uninitialized,
}

/// One latch: current-state literal, next-state literal, reset value.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AigerLatch {
    /// Even literal naming the latch output.
    pub lit: u32,
    /// Literal of the next-state function.
    pub next: u32,
    /// Reset value.
    pub reset: AigerReset,
}

/// One AND gate: `lhs = rhs0 & rhs1` with `lhs` even.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct AigerAnd {
    /// Even literal defined by this gate.
    pub lhs: u32,
    /// First operand literal.
    pub rhs0: u32,
    /// Second operand literal.
    pub rhs1: u32,
}

/// Which section a symbol-table entry names.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SymbolKind {
    /// An input (`i<pos>`).
    Input,
    /// A latch (`l<pos>`).
    Latch,
    /// An output (`o<pos>`).
    Output,
    /// A bad-state property (`b<pos>`).
    Bad,
    /// An invariant constraint (`c<pos>`).
    Constraint,
}

impl fmt::Display for SymbolKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let c = match self {
            SymbolKind::Input => 'i',
            SymbolKind::Latch => 'l',
            SymbolKind::Output => 'o',
            SymbolKind::Bad => 'b',
            SymbolKind::Constraint => 'c',
        };
        write!(f, "{c}")
    }
}

/// A parsed AIGER circuit (ASCII or binary source).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AigerFile {
    /// Maximum variable index (the header's `M`).
    pub max_var: u32,
    /// Input literals (even).
    pub inputs: Vec<u32>,
    /// Latches.
    pub latches: Vec<AigerLatch>,
    /// Output literals.
    pub outputs: Vec<u32>,
    /// Bad-state property literals (AIGER 1.9).
    pub bad: Vec<u32>,
    /// Invariant constraint literals (AIGER 1.9).
    pub constraints: Vec<u32>,
    /// AND gates.
    pub ands: Vec<AigerAnd>,
    /// Symbol table entries `(kind, position, name)`.
    pub symbols: Vec<(SymbolKind, usize, String)>,
    /// Trailing comment lines.
    pub comments: Vec<String>,
}

impl AigerFile {
    /// `true` when the file uses any AIGER 1.9 feature (bad states,
    /// constraints, or non-zero resets).
    pub fn is_aiger19(&self) -> bool {
        !self.bad.is_empty()
            || !self.constraints.is_empty()
            || self.latches.iter().any(|l| l.reset != AigerReset::Zero)
    }

    /// Checks structural well-formedness: literal ranges, even
    /// definitions, unique definitions, acyclic ANDs (each gate must be
    /// defined after its operands when sorted by lhs).
    pub fn validate(&self) -> Result<(), String> {
        let max_lit = 2 * self.max_var + 1;
        // Every defined variable, with the position of the AND gate
        // defining it (`None` for the constant, inputs and latches).
        // Keyed by variable, not sized by the header's `M`: a file
        // defines at most I + L + A variables, each on its own line.
        let mut defined: HashMap<u32, Option<usize>> =
            HashMap::with_capacity(1 + self.inputs.len() + self.latches.len() + self.ands.len());
        defined.insert(0, None); // constant
        let mut check_def = |lit: u32, what: &str, and: Option<usize>| -> Result<(), String> {
            if lit > max_lit {
                return Err(format!("{what} literal {lit} exceeds max {max_lit}"));
            }
            if lit & 1 == 1 {
                return Err(format!("{what} literal {lit} must be even"));
            }
            if lit == 0 {
                return Err(format!("{what} literal must not be constant"));
            }
            if defined.insert(lit >> 1, and).is_some() {
                return Err(format!("variable of {what} literal {lit} defined twice"));
            }
            Ok(())
        };
        for &i in &self.inputs {
            check_def(i, "input", None)?;
        }
        for l in &self.latches {
            check_def(l.lit, "latch", None)?;
        }
        for (i, a) in self.ands.iter().enumerate() {
            check_def(a.lhs, "and", Some(i))?;
        }
        let check_use = |lit: u32, what: &str| -> Result<(), String> {
            if lit > max_lit {
                return Err(format!("{what} literal {lit} exceeds max {max_lit}"));
            }
            if !defined.contains_key(&(lit >> 1)) {
                return Err(format!("{what} literal {lit} uses undefined variable"));
            }
            Ok(())
        };
        for l in &self.latches {
            check_use(l.next, "latch next")?;
        }
        for &o in &self.outputs {
            check_use(o, "output")?;
        }
        for &b in &self.bad {
            check_use(b, "bad")?;
        }
        for &c in &self.constraints {
            check_use(c, "constraint")?;
        }
        for a in &self.ands {
            check_use(a.rhs0, "and rhs0")?;
            check_use(a.rhs1, "and rhs1")?;
        }
        // Acyclicity: operands (all defined, as checked above) must be
        // inputs, latches, constants, or earlier-defined ANDs.
        for (i, a) in self.ands.iter().enumerate() {
            for rhs in [a.rhs0, a.rhs1] {
                if defined[&(rhs >> 1)].is_some_and(|j| j >= i) {
                    return Err(format!(
                        "and gate {} uses operand {rhs} not defined before it",
                        a.lhs
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> AigerFile {
        AigerFile {
            max_var: 3,
            inputs: vec![2],
            latches: vec![AigerLatch {
                lit: 4,
                next: 6,
                reset: AigerReset::Zero,
            }],
            outputs: vec![6],
            ands: vec![AigerAnd {
                lhs: 6,
                rhs0: 2,
                rhs1: 4,
            }],
            ..AigerFile::default()
        }
    }

    #[test]
    fn valid_file_passes() {
        assert_eq!(simple().validate(), Ok(()));
        assert!(!simple().is_aiger19());
    }

    #[test]
    fn aiger19_detection() {
        let mut f = simple();
        f.bad.push(6);
        assert!(f.is_aiger19());
        let mut g = simple();
        g.latches[0].reset = AigerReset::Uninitialized;
        assert!(g.is_aiger19());
    }

    #[test]
    fn odd_definition_rejected() {
        let mut f = simple();
        f.inputs[0] = 3;
        assert!(f.validate().unwrap_err().contains("even"));
    }

    #[test]
    fn double_definition_rejected() {
        let mut f = simple();
        f.inputs.push(4);
        assert!(f.validate().unwrap_err().contains("twice"));
    }

    #[test]
    fn out_of_range_rejected() {
        let mut f = simple();
        f.outputs.push(99);
        assert!(f.validate().unwrap_err().contains("exceeds"));
    }

    #[test]
    fn forward_reference_rejected() {
        let mut f = simple();
        f.ands = vec![
            AigerAnd {
                lhs: 6,
                rhs0: 2,
                rhs1: 8, // defined later
            },
            AigerAnd {
                lhs: 8,
                rhs0: 2,
                rhs1: 4,
            },
        ];
        f.max_var = 4;
        let err = f.validate().unwrap_err();
        assert!(err.contains("not defined before"), "{err}");
    }
}
