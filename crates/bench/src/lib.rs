//! Shared infrastructure for the benchmark harness binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper; this list is the index of experiments E1–E5:
//!
//! * `table1` — the §3 solved-instance comparison (E1),
//! * `fig_growth` — formula size vs bound per formulation (E2),
//! * `table_squaring` — iterative-squaring prefix statistics (E3),
//! * `fig_memory` — peak solver memory vs bound, unroll vs jSAT (E4),
//! * `table_ablation` — jSAT design-choice ablation (E5).

#![forbid(unsafe_code)]

pub mod baseline;
pub mod microbench;
pub mod workloads;

use std::time::Duration;

use sebmc::{Budget, Engine, JSat, QbfBackend, QbfLinear, QbfSquaring, UnrollSat};

/// A minimal command-line flag reader: `--name value`.
pub fn flag(name: &str) -> Option<String> {
    let mut args = std::env::args();
    while let Some(a) = args.next() {
        if a == format!("--{name}") {
            return args.next();
        }
    }
    None
}

/// Parses `--name value` as an integer, with a default.
pub fn flag_u64(name: &str, default: u64) -> u64 {
    flag(name).map_or(default, |v| {
        v.parse()
            .unwrap_or_else(|_| panic!("--{name} expects an integer, got '{v}'"))
    })
}

/// The paper's per-instance protocol, scaled: timeout in milliseconds
/// and a **byte-based** memory cap in MiB (compared against the SAT
/// solver's exact clause-arena accounting, headers included).
pub fn budget(timeout_ms: u64, mem_mib: u64) -> Budget {
    Budget {
        timeout: Some(Duration::from_millis(timeout_ms)),
        max_formula_bytes: Some((mem_mib as usize) * 1024 * 1024),
        // The experiment tables measure the paper's *raw* encodings;
        // static model reduction would shrink several suite models and
        // silently shift every baseline (including the CI perf gate's),
        // so the harness pins it off. The reduction itself is compared
        // against the unreduced oracle by `sebmc --no-reduce` and the
        // reduction_oracle test suite instead.
        reduce: false,
        ..Budget::default()
    }
}

/// The four engines of experiment E1.
pub fn e1_engines() -> Vec<Box<dyn Engine + Send>> {
    vec![
        Box::new(UnrollSat),
        Box::new(JSat::default()),
        Box::new(QbfLinear::new(QbfBackend::Qdpll)),
        Box::new(QbfSquaring::new(QbfBackend::Expansion)),
    ]
}

/// A plain Markdown table writer for the harness output.
#[derive(Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(headers: I) -> Self {
        Table {
            headers: headers.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row (must match the header width).
    pub fn row<I: IntoIterator<Item = S>, S: Into<String>>(&mut self, cells: I) {
        let row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.headers.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Renders the table as Markdown.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(std::string::String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:>w$} |"));
            }
            line
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push('|');
        for w in &widths {
            out.push_str(&format!("{}|", "-".repeat(w + 2)));
        }
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Prints the table to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new(["model", "solved"]);
        t.row(["counter", "18"]);
        t.row(["fifo_8", "9"]);
        let md = t.to_markdown();
        assert!(md.contains("| counter |"));
        assert!(md.lines().count() == 4);
        assert!(md.lines().nth(1).unwrap().starts_with("|-"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new(["a", "b"]);
        t.row(["only-one"]);
    }

    #[test]
    fn budget_converts_units() {
        let b = budget(500, 100);
        assert_eq!(b.timeout, Some(Duration::from_millis(500)));
        assert_eq!(b.max_formula_bytes, Some(100 * 1024 * 1024));
    }

    #[test]
    fn e1_engine_lineup() {
        let engines = e1_engines();
        let names: Vec<&str> = engines.iter().map(|e| e.name()).collect();
        assert_eq!(
            names,
            vec![
                "sat-unroll",
                "jsat",
                "qbf-linear-qdpll",
                "qbf-squaring-expansion"
            ]
        );
    }
}
