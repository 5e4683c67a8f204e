//! Certification summaries.

use sebmc_logic::json::{obj, Json};

/// Summary of one stretch of checked proof stream — the counters a
/// verdict carries so "machine-checked" is quantifiable.
///
/// A [`Certificate`] is either a *cumulative* snapshot of a checker
/// ([`crate::ProofSink::summary`]) or a *delta* between two
/// snapshots ([`Certificate::delta_since`], what the engines attach to
/// one bound's verdict). Deltas compose with [`Certificate::absorb`]
/// (everything summed, the active-clause peak maxed), so per-bound
/// certificates fold into per-session, per-job and per-service totals
/// exactly like `RunStats`.
///
/// The engine layers fill in the two `bounds_*` fields: a bound whose
/// verdict was decided *and* matched against the proof (Unsat bounds)
/// or replayed through the model simulator (Sat bounds) counts one
/// `bounds_attempted` and, on success, one `bounds_certified`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Certificate {
    /// Original (`o`) clauses inserted, unchecked, as axioms.
    pub originals: u64,
    /// Derived lemmas (`a` and `f` records) put through the RUP check.
    pub lemmas_checked: u64,
    /// Deletions (`d` records) applied to the active set.
    pub deletions: u64,
    /// RUP checks that failed, plus malformed records. Zero for a
    /// valid proof stream.
    pub failed_checks: u64,
    /// Deletions whose clause was not in the active set — a
    /// desynchronised deletion log. Zero for a valid stream.
    pub missing_deletes: u64,
    /// Verified finalization lemmas (`f` records): Unsat solves whose
    /// failed-assumption core was proof-checked.
    pub unsat_proofs: u64,
    /// Exact bytes of encoded proof stream covered by this summary.
    pub proof_bytes: u64,
    /// Peak number of clauses the checker held at once — the
    /// `O(active clauses)` figure of the streaming design.
    pub peak_active_clauses: u64,
    /// Decided bounds this certificate was asked to cover.
    pub bounds_attempted: u64,
    /// Decided bounds whose verdict was successfully machine-checked.
    pub bounds_certified: u64,
}

impl Certificate {
    /// Folds another certificate in: all counters summed, the
    /// active-clause peak maxed.
    pub fn absorb(&mut self, other: &Certificate) {
        self.originals += other.originals;
        self.lemmas_checked += other.lemmas_checked;
        self.deletions += other.deletions;
        self.failed_checks += other.failed_checks;
        self.missing_deletes += other.missing_deletes;
        self.unsat_proofs += other.unsat_proofs;
        self.proof_bytes += other.proof_bytes;
        self.peak_active_clauses = self.peak_active_clauses.max(other.peak_active_clauses);
        self.bounds_attempted += other.bounds_attempted;
        self.bounds_certified += other.bounds_certified;
    }

    /// Folds an optional certificate into an optional accumulator —
    /// the one folding rule shared by session drivers, the service's
    /// job/report aggregation and the CLI (`None` inputs are skipped,
    /// the first `Some` seeds the accumulator).
    pub fn fold_into(into: &mut Option<Certificate>, cert: Option<&Certificate>) {
        if let Some(c) = cert {
            match into {
                Some(t) => t.absorb(c),
                None => *into = Some(c.clone()),
            }
        }
    }

    /// The counters accumulated since `earlier` (an older snapshot of
    /// the same checker). Monotone counters subtract; the peak keeps
    /// the current value.
    pub fn delta_since(&self, earlier: &Certificate) -> Certificate {
        Certificate {
            originals: self.originals.saturating_sub(earlier.originals),
            lemmas_checked: self.lemmas_checked.saturating_sub(earlier.lemmas_checked),
            deletions: self.deletions.saturating_sub(earlier.deletions),
            failed_checks: self.failed_checks.saturating_sub(earlier.failed_checks),
            missing_deletes: self.missing_deletes.saturating_sub(earlier.missing_deletes),
            unsat_proofs: self.unsat_proofs.saturating_sub(earlier.unsat_proofs),
            proof_bytes: self.proof_bytes.saturating_sub(earlier.proof_bytes),
            peak_active_clauses: self.peak_active_clauses,
            bounds_attempted: self
                .bounds_attempted
                .saturating_sub(earlier.bounds_attempted),
            bounds_certified: self
                .bounds_certified
                .saturating_sub(earlier.bounds_certified),
        }
    }

    /// The summary as one JSON object: the `certificate` of the CLI's
    /// `--json` and of every job report.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("certified", self.fully_certified().into()),
            ("bounds_attempted", self.bounds_attempted.into()),
            ("bounds_certified", self.bounds_certified.into()),
            ("originals", self.originals.into()),
            ("lemmas_checked", self.lemmas_checked.into()),
            ("deletions", self.deletions.into()),
            ("failed_checks", self.failed_checks.into()),
            ("missing_deletes", self.missing_deletes.into()),
            ("unsat_proofs", self.unsat_proofs.into()),
            ("proof_bytes", self.proof_bytes.into()),
            ("peak_active_clauses", self.peak_active_clauses.into()),
        ])
    }

    /// Whether every check passed and every attempted bound was
    /// certified (and at least one bound was attempted at all).
    pub fn fully_certified(&self) -> bool {
        self.failed_checks == 0
            && self.missing_deletes == 0
            && self.bounds_attempted > 0
            && self.bounds_certified == self.bounds_attempted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(n: u64) -> Certificate {
        Certificate {
            originals: n,
            lemmas_checked: 2 * n,
            deletions: n / 2,
            failed_checks: 0,
            missing_deletes: 0,
            unsat_proofs: 1,
            proof_bytes: 100 * n,
            peak_active_clauses: 10 + n,
            bounds_attempted: 1,
            bounds_certified: 1,
        }
    }

    #[test]
    fn absorb_sums_and_maxes() {
        let mut total = sample(4);
        total.absorb(&sample(10));
        assert_eq!(total.originals, 14);
        assert_eq!(total.lemmas_checked, 28);
        assert_eq!(total.proof_bytes, 1400);
        assert_eq!(total.peak_active_clauses, 20, "peaks maxed");
        assert_eq!(total.bounds_attempted, 2);
        assert!(total.fully_certified());
    }

    #[test]
    fn delta_subtracts_monotone_counters() {
        let early = sample(4);
        let mut late = sample(4);
        late.absorb(&sample(6));
        let delta = late.delta_since(&early);
        assert_eq!(delta.originals, 6);
        assert_eq!(delta.lemmas_checked, 12);
        assert_eq!(delta.proof_bytes, 600);
        assert_eq!(delta.peak_active_clauses, late.peak_active_clauses);
    }

    #[test]
    fn fully_certified_requires_coverage() {
        let mut c = Certificate::default();
        assert!(!c.fully_certified(), "nothing attempted, nothing certified");
        c.bounds_attempted = 2;
        c.bounds_certified = 1;
        assert!(!c.fully_certified());
        c.bounds_certified = 2;
        assert!(c.fully_certified());
        c.failed_checks = 1;
        assert!(!c.fully_certified());
    }
}
