//! The hook interface the SAT solver drives.

use sebmc_logic::Lit;

use crate::cert::Certificate;

/// Receiver of the solver's proof events.
///
/// The CDCL solver calls these hooks at every point its logical clause
/// database changes:
///
/// * [`ProofSink::original`] for caller-asserted clauses (`add_clause`,
///   incremental additions included) — axioms, inserted unchecked;
/// * [`ProofSink::add`] for derived clauses: learnt clauses from
///   conflict analysis, filtered/strengthened rewrites (always emitted
///   *before* the deletion of the clause they replace, so the RUP
///   check can still use it), and the empty clause on a top-level
///   conflict;
/// * [`ProofSink::delete`] for clauses leaving the database
///   (`reduce_db`, `simplify`, subsumption), identified by literal
///   content — the solver's lazy watch deletion and arena compaction
///   are invisible at this level, which is what keeps the deletion log
///   impossible to desynchronise;
/// * [`ProofSink::finalize_unsat`] when a solve concludes Unsat: the
///   negated failed-assumption core (empty for a top-level conflict),
///   logged like an `add` but remembered so the verdict can later be
///   matched against the assumptions via [`ProofSink::certifies`].
///
/// Implementations: [`crate::StreamingChecker`] (check on the fly),
/// [`crate::DratWriter`] (encode only, e.g. to a file or to measure
/// pure logging overhead) and [`crate::TeeSink`] (both at once).
pub trait ProofSink: Send + std::fmt::Debug {
    /// Logs a caller-asserted (axiom) clause.
    fn original(&mut self, lits: &[Lit]);

    /// Logs a derived clause (must be RUP against the active set).
    fn add(&mut self, lits: &[Lit]);

    /// Logs the deletion of an active clause by content.
    fn delete(&mut self, lits: &[Lit]);

    /// Logs the finalization lemma of an Unsat solve: the negation of
    /// the failed-assumption core (empty for a top-level conflict).
    fn finalize_unsat(&mut self, neg_core: &[Lit]);

    /// Exact number of encoded proof-stream bytes emitted so far.
    fn bytes_emitted(&self) -> usize;

    /// Cumulative certification counters, if this sink checks what it
    /// writes (`None` for write-only sinks).
    fn summary(&mut self) -> Option<Certificate> {
        None
    }

    /// Whether a verified lemma establishes unsatisfiability under
    /// `assumptions`: either the empty clause was proved, or the last
    /// finalization lemma is a subclause of
    /// `{¬a | a ∈ assumptions}`. Write-only sinks certify nothing.
    fn certifies(&mut self, _assumptions: &[Lit]) -> bool {
        false
    }
}
