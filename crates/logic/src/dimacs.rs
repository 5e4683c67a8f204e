//! DIMACS CNF reading and writing.
//!
//! The standard interchange format for SAT problems: a header line
//! `p cnf <vars> <clauses>` followed by zero-terminated clauses of
//! signed variable numbers. Comment lines start with `c`.

use std::error::Error;
use std::fmt;
use std::io::{self, BufRead, Write};

use crate::cnf::{Clause, Cnf};
use crate::lit::Lit;

/// Error produced when parsing a DIMACS file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseDimacsError {
    /// 1-based line number where the error occurred (0 = end of input).
    pub line: usize,
    /// Description of the problem.
    pub message: String,
}

impl fmt::Display for ParseDimacsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "dimacs parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl Error for ParseDimacsError {}

impl ParseDimacsError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        ParseDimacsError {
            line,
            message: message.into(),
        }
    }
}

/// Parses a DIMACS CNF document from a string.
///
/// Tolerates clauses spanning multiple lines and extra whitespace, as
/// real-world DIMACS files do. The declared variable count is honoured
/// even if no clause mentions the last variable.
///
/// # Errors
///
/// Returns [`ParseDimacsError`] on missing/malformed headers, a variable
/// count above 2^31, non-integer tokens, literals out of the declared
/// range, unterminated clauses, or clause-count mismatches.
///
/// # Example
///
/// ```
/// # use sebmc_logic::dimacs;
/// let cnf = dimacs::parse("p cnf 3 2\n1 -2 0\n2 3 0\n")?;
/// assert_eq!(cnf.num_vars(), 3);
/// assert_eq!(cnf.num_clauses(), 2);
/// # Ok::<(), sebmc_logic::ParseDimacsError>(())
/// ```
pub fn parse(input: &str) -> Result<Cnf, ParseDimacsError> {
    let mut declared: Option<(usize, usize)> = None;
    let mut cnf = Cnf::new();
    let mut current = Clause::new();
    let mut last_line = 0;

    for (lineno, line) in input.lines().enumerate() {
        let lineno = lineno + 1;
        last_line = lineno;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('c') || trimmed.starts_with('%') {
            continue;
        }
        if trimmed.starts_with('p') {
            if declared.is_some() {
                return Err(ParseDimacsError::new(lineno, "duplicate header"));
            }
            let mut parts = trimmed.split_whitespace();
            let _p = parts.next();
            match parts.next() {
                Some("cnf") => {}
                other => {
                    return Err(ParseDimacsError::new(
                        lineno,
                        format!("expected 'cnf' format, got {other:?}"),
                    ))
                }
            }
            let nv: usize = parts
                .next()
                .ok_or_else(|| ParseDimacsError::new(lineno, "missing variable count"))?
                .parse()
                .map_err(|_| ParseDimacsError::new(lineno, "invalid variable count"))?;
            let nc: usize = parts
                .next()
                .ok_or_else(|| ParseDimacsError::new(lineno, "missing clause count"))?
                .parse()
                .map_err(|_| ParseDimacsError::new(lineno, "invalid clause count"))?;
            if parts.next().is_some() {
                return Err(ParseDimacsError::new(lineno, "trailing tokens in header"));
            }
            if nv > Lit::MAX_DIMACS_VAR {
                return Err(ParseDimacsError::new(
                    lineno,
                    format!("variable count {nv} exceeds 2^31"),
                ));
            }
            declared = Some((nv, nc));
            continue;
        }
        let (nv, _) = declared
            .ok_or_else(|| ParseDimacsError::new(lineno, "clause before 'p cnf' header"))?;
        for tok in trimmed.split_whitespace() {
            let value: i64 = tok.parse().map_err(|_| {
                ParseDimacsError::new(lineno, format!("invalid literal token '{tok}'"))
            })?;
            if value.unsigned_abs() > nv as u64 {
                return Err(ParseDimacsError::new(
                    lineno,
                    format!("literal {value} exceeds declared {nv} variables"),
                ));
            }
            match Lit::from_dimacs(value) {
                None => {
                    cnf.push(std::mem::take(&mut current));
                }
                Some(lit) => current.push(lit),
            }
        }
    }

    if !current.is_empty() {
        return Err(ParseDimacsError::new(last_line, "unterminated clause"));
    }
    let (nv, nc) = declared.ok_or_else(|| ParseDimacsError::new(0, "missing 'p cnf' header"))?;
    if cnf.num_clauses() != nc {
        return Err(ParseDimacsError::new(
            last_line,
            format!("declared {nc} clauses, found {}", cnf.num_clauses()),
        ));
    }
    cnf.ensure_vars(nv);
    Ok(cnf)
}

/// Parses a DIMACS CNF document from a reader.
///
/// A convenience wrapper over [`parse`]; note that a `&mut R` can be
/// passed wherever `R: BufRead` is expected.
///
/// # Errors
///
/// Returns an [`io::Error`] for read failures; parse failures are mapped
/// to `io::ErrorKind::InvalidData` with the [`ParseDimacsError`] as the
/// source.
pub fn read<R: BufRead>(mut reader: R) -> io::Result<Cnf> {
    let mut text = String::new();
    reader.read_to_string(&mut text)?;
    parse(&text).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

/// Writes `cnf` in DIMACS format.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
///
/// # Example
///
/// ```
/// # use sebmc_logic::{dimacs, Cnf, Var};
/// let mut cnf = Cnf::new();
/// cnf.add_binary(Var::new(0).positive(), Var::new(1).negative());
/// let mut out = Vec::new();
/// dimacs::write(&cnf, &mut out)?;
/// assert_eq!(String::from_utf8(out).unwrap(), "p cnf 2 1\n1 -2 0\n");
/// # Ok::<(), std::io::Error>(())
/// ```
pub fn write<W: Write>(cnf: &Cnf, mut writer: W) -> io::Result<()> {
    writeln!(writer, "p cnf {} {}", cnf.num_vars(), cnf.num_clauses())?;
    for clause in cnf.iter() {
        for lit in clause {
            write!(writer, "{} ", lit.to_dimacs())?;
        }
        writeln!(writer, "0")?;
    }
    Ok(())
}

/// Renders `cnf` as a DIMACS string.
pub fn to_string(cnf: &Cnf) -> String {
    let mut buf = Vec::new();
    write(cnf, &mut buf).expect("writing to a Vec cannot fail");
    String::from_utf8(buf).expect("dimacs output is ASCII")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    #[test]
    fn parse_simple() {
        let cnf = parse("c comment\np cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        assert_eq!(cnf.num_vars(), 3);
        assert_eq!(cnf.num_clauses(), 2);
        assert_eq!(
            cnf.clauses()[0].lits(),
            &[Var::new(0).positive(), Var::new(1).negative()]
        );
    }

    #[test]
    fn parse_multiline_clause() {
        let cnf = parse("p cnf 4 1\n1 2\n3\n-4 0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
        assert_eq!(cnf.clauses()[0].len(), 4);
    }

    #[test]
    fn parse_empty_clause() {
        let cnf = parse("p cnf 1 1\n0\n").unwrap();
        assert_eq!(cnf.num_clauses(), 1);
        assert!(cnf.clauses()[0].is_empty());
    }

    #[test]
    fn declared_vars_honoured_without_mention() {
        let cnf = parse("p cnf 10 1\n1 0\n").unwrap();
        assert_eq!(cnf.num_vars(), 10);
    }

    #[test]
    fn round_trip() {
        let text = "p cnf 3 3\n1 -2 0\n2 3 0\n-1 0\n";
        let cnf = parse(text).unwrap();
        assert_eq!(to_string(&cnf), text);
    }

    #[test]
    fn error_missing_header() {
        let err = parse("1 2 0\n").unwrap_err();
        assert!(err.message.contains("header"), "{err}");
    }

    #[test]
    fn error_duplicate_header() {
        let err = parse("p cnf 1 0\np cnf 1 0\n").unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn error_bad_token() {
        let err = parse("p cnf 2 1\n1 x 0\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("invalid literal"), "{err}");
    }

    #[test]
    fn error_out_of_range_literal() {
        for (input, line) in [
            ("p cnf 2 1\n3 0\n", 2),
            // Variable numbers above 2^31 have no literal: they must not
            // wrap onto a small variable.
            ("p cnf 2 1\n4294967297 0\n", 2),
            ("p cnf 2147483649 1\n2147483649 0\n", 1),
        ] {
            let err = parse(input).unwrap_err();
            assert!(err.message.contains("exceeds"), "{err}");
            assert_eq!(err.line, line, "{err}");
        }
        let cnf = parse("p cnf 2147483648 1\n-2147483648 0\n").unwrap();
        assert_eq!(cnf.clauses()[0].lits()[0].to_dimacs(), -2147483648);
    }

    #[test]
    fn error_unterminated_clause() {
        let err = parse("p cnf 2 1\n1 2\n").unwrap_err();
        assert!(err.message.contains("unterminated"), "{err}");
    }

    #[test]
    fn error_clause_count_mismatch() {
        let err = parse("p cnf 2 2\n1 0\n").unwrap_err();
        assert!(err.message.contains("declared"), "{err}");
    }

    #[test]
    fn error_non_cnf_format() {
        let err = parse("p sat 2 2\n").unwrap_err();
        assert!(err.message.contains("cnf"), "{err}");
    }

    #[test]
    fn read_from_reader() {
        let data = b"p cnf 1 1\n-1 0\n" as &[u8];
        let cnf = read(data).unwrap();
        assert_eq!(cnf.num_clauses(), 1);
    }

    #[test]
    fn read_maps_parse_error_to_invalid_data() {
        let data = b"garbage\n1 0\n" as &[u8];
        let err = read(data).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn display_includes_line() {
        let err = ParseDimacsError::new(7, "boom");
        assert_eq!(err.to_string(), "dimacs parse error at line 7: boom");
    }
}
