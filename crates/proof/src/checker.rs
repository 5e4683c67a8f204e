//! The forward proof checker and its streaming front-end.

use std::collections::HashMap;

use sebmc_logic::Lit;

use crate::cert::Certificate;
use crate::drat::{encoded_len, TAG_ADD, TAG_DELETE, TAG_FINAL, TAG_ORIG};
use crate::sink::ProofSink;

const UNASSIGNED: u8 = 0;
const TRUE: u8 = 1;
const FALSE: u8 = 2;

/// Buffered literals at which a [`StreamingChecker`] checks its
/// backlog. Checking each event as it arrives measured slower end to
/// end than checking in batches of this size.
const BATCH_LITS: usize = 16 * 1024;

/// One active clause: its literals and, when it participates in
/// propagation, the two watched literal codes.
///
/// A clause that was unit, satisfied-by-a-unit or falsified at insert
/// time carries no watches (its consequence, if any, was propagated
/// permanently on insert).
#[derive(Debug, Default)]
struct Slot {
    lits: Vec<Lit>,
    watch: Option<[usize; 2]>,
}

/// A forward (unit-propagation) proof checker over an explicit active
/// clause set.
///
/// The checker mirrors the solver's logical clause database: original
/// clauses are inserted as axioms, derived clauses are admitted only
/// after a **reverse-unit-propagation** (RUP) check — assume the
/// negation of every literal, propagate, demand a conflict — and
/// deletions remove clauses by literal content (a multiset, so
/// duplicate clauses are handled). Top-level units derived along the
/// way are kept permanently: everything ever verified is entailed by
/// the axioms, so deletions can never unsound them (see the
/// [crate docs](crate)).
///
/// Memory is `O(active clauses)`: the watch lists, the content index
/// and the slots all shrink on deletion, which is what lets
/// [`StreamingChecker`] certify an unbounded proof in bounded space.
#[derive(Debug, Default)]
struct ForwardChecker {
    /// Assignment by literal code (`UNASSIGNED`/`TRUE`/`FALSE`).
    vals: Vec<u8>,
    trail: Vec<Lit>,
    qhead: usize,
    clauses: Vec<Slot>,
    free: Vec<usize>,
    /// Content index: sorted literal codes → slots holding that clause
    /// (a multiset — the solver may hold identical clauses).
    index: HashMap<Box<[u32]>, Vec<usize>>,
    /// Watch lists by literal code: slots watching that literal.
    watches: Vec<Vec<usize>>,
    proved_unsat: bool,
    /// The last *verified* finalization lemma, as sorted literal codes.
    last_final: Option<Vec<u32>>,
    originals: u64,
    lemmas_checked: u64,
    deletions: u64,
    failed_checks: u64,
    missing_deletes: u64,
    unsat_proofs: u64,
    active: usize,
    peak_active: usize,
}

impl ForwardChecker {
    /// Cumulative counters (`proof_bytes` is counted by
    /// [`StreamingChecker`] and left 0 here).
    fn certificate(&self) -> Certificate {
        Certificate {
            originals: self.originals,
            lemmas_checked: self.lemmas_checked,
            deletions: self.deletions,
            failed_checks: self.failed_checks,
            missing_deletes: self.missing_deletes,
            unsat_proofs: self.unsat_proofs,
            proof_bytes: 0,
            peak_active_clauses: self.peak_active as u64,
            bounds_attempted: 0,
            bounds_certified: 0,
        }
    }

    /// Whether the proof so far establishes unsatisfiability under
    /// `assumptions`: the empty clause was verified, or the last
    /// verified finalization lemma is a subclause of
    /// `{¬a | a ∈ assumptions}`.
    fn certifies(&self, assumptions: &[Lit]) -> bool {
        if self.proved_unsat {
            return true;
        }
        let Some(lemma) = &self.last_final else {
            return false;
        };
        let mut neg: Vec<u32> = assumptions.iter().map(|&a| (!a).code() as u32).collect();
        neg.sort_unstable();
        lemma.iter().all(|c| neg.binary_search(c).is_ok())
    }

    /// Inserts an axiom clause (no check).
    fn original(&mut self, lits: &[Lit]) {
        self.originals += 1;
        if lits.is_empty() {
            self.proved_unsat = true;
            return;
        }
        self.insert(lits);
    }

    /// RUP-checks a derived clause and, when it passes, inserts it.
    /// With `finalize`, a passing clause is remembered as the stream's
    /// current finalization lemma. Returns whether the check passed;
    /// failures are counted and the clause is **not** inserted (only
    /// entailed clauses may enter the active set).
    fn add(&mut self, lits: &[Lit], finalize: bool) -> bool {
        self.lemmas_checked += 1;
        let ok = self.rup(lits);
        if ok {
            if finalize {
                self.unsat_proofs += 1;
                let mut codes: Vec<u32> = lits.iter().map(|&l| l.code() as u32).collect();
                codes.sort_unstable();
                self.last_final = Some(codes);
            }
            if lits.is_empty() {
                self.proved_unsat = true;
            } else {
                self.insert(lits);
            }
        } else {
            self.failed_checks += 1;
            if finalize {
                self.last_final = None;
            }
        }
        ok
    }

    /// Removes one active clause with exactly these literals (in any
    /// order). A clause not in the active set is counted as a missing
    /// delete — a desynchronised log.
    fn delete(&mut self, lits: &[Lit]) {
        self.deletions += 1;
        let key = clause_key(lits);
        let Some(ids) = self.index.get_mut(&key) else {
            self.missing_deletes += 1;
            return;
        };
        let id = ids.pop().expect("index entries are never empty");
        if ids.is_empty() {
            self.index.remove(&key);
        }
        if let Some(ws) = self.clauses[id].watch {
            for code in ws {
                self.watches[code].retain(|&c| c != id);
            }
        }
        self.clauses[id] = Slot::default();
        self.free.push(id);
        self.active -= 1;
    }

    // ----- internals -----------------------------------------------------

    fn ensure_lit(&mut self, l: Lit) {
        let need = l.code().max((!l).code()) + 1;
        if self.vals.len() < need {
            self.vals.resize(need, UNASSIGNED);
            self.watches.resize_with(need, Vec::new);
        }
    }

    #[inline]
    fn value(&self, l: Lit) -> u8 {
        self.vals.get(l.code()).copied().unwrap_or(UNASSIGNED)
    }

    #[inline]
    fn assign(&mut self, p: Lit) {
        debug_assert_eq!(self.value(p), UNASSIGNED);
        self.vals[p.code()] = TRUE;
        self.vals[(!p).code()] = FALSE;
        self.trail.push(p);
    }

    /// Unit propagation from the current queue head; `true` = conflict.
    fn propagate(&mut self) -> bool {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            let fcode = (!p).code();
            if fcode >= self.watches.len() {
                continue;
            }
            let mut i = 0;
            while i < self.watches[fcode].len() {
                let cid = self.watches[fcode][i];
                let ws = self.clauses[cid].watch.expect("watched clause has watches");
                let other_code = if ws[0] == fcode { ws[1] } else { ws[0] };
                let other = Lit::from_code(other_code);
                if self.value(other) == TRUE {
                    i += 1;
                    continue;
                }
                // Look for a non-falsified replacement watch.
                let mut repl: Option<usize> = None;
                for idx in 0..self.clauses[cid].lits.len() {
                    let l = self.clauses[cid].lits[idx];
                    let c = l.code();
                    if c != fcode && c != other_code && self.value(l) != FALSE {
                        repl = Some(c);
                        break;
                    }
                }
                match repl {
                    Some(code) => {
                        self.watches[fcode].swap_remove(i);
                        let ws = self.clauses[cid]
                            .watch
                            .as_mut()
                            .expect("watched clause has watches");
                        if ws[0] == fcode {
                            ws[0] = code;
                        } else {
                            ws[1] = code;
                        }
                        self.watches[code].push(cid);
                    }
                    None if self.value(other) == UNASSIGNED => {
                        self.assign(other);
                        i += 1;
                    }
                    None => return true, // both watches false: conflict
                }
            }
        }
        false
    }

    /// Unassigns everything past `mark` (the RUP probe).
    fn backtrack(&mut self, mark: usize) {
        for idx in mark..self.trail.len() {
            let l = self.trail[idx];
            self.vals[l.code()] = UNASSIGNED;
            self.vals[(!l).code()] = UNASSIGNED;
        }
        self.trail.truncate(mark);
        self.qhead = mark;
    }

    /// Reverse unit propagation: negate the clause, propagate, expect
    /// a conflict. Leaves the permanent assignment untouched.
    fn rup(&mut self, lits: &[Lit]) -> bool {
        if self.proved_unsat {
            return true; // ex falso: anything is entailed
        }
        debug_assert_eq!(self.qhead, self.trail.len(), "permanent fixpoint");
        let mark = self.trail.len();
        let mut conflict = false;
        for &l in lits {
            self.ensure_lit(l);
            match self.value(l) {
                TRUE => {
                    conflict = true; // ¬l contradicts an established unit
                    break;
                }
                FALSE => {}
                _ => self.assign(!l),
            }
        }
        let conflict = conflict || self.propagate();
        self.backtrack(mark);
        conflict
    }

    /// Inserts an entailed clause permanently, propagating its
    /// consequence if it is unit (or conflicting) under the permanent
    /// assignment.
    fn insert(&mut self, lits: &[Lit]) {
        for &l in lits {
            self.ensure_lit(l);
        }
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.clauses.push(Slot::default());
                self.clauses.len() - 1
            }
        };
        self.index.entry(clause_key(lits)).or_default().push(id);
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);

        // Pick up to two non-falsified literals to watch; fewer means
        // the clause acts now.
        let mut picks = [0usize; 2];
        let mut found = 0;
        for &l in lits {
            if self.value(l) != FALSE {
                picks[found] = l.code();
                found += 1;
                if found == 2 {
                    break;
                }
            }
        }
        let slot = &mut self.clauses[id];
        slot.lits = lits.to_vec();
        slot.watch = None;
        match found {
            2 => {
                slot.watch = Some(picks);
                self.watches[picks[0]].push(id);
                self.watches[picks[1]].push(id);
            }
            1 => {
                let u = Lit::from_code(picks[0]);
                if self.value(u) == UNASSIGNED {
                    self.assign(u);
                    if self.propagate() {
                        self.proved_unsat = true;
                    }
                }
                // `u` already TRUE: satisfied, nothing to do.
            }
            _ => self.proved_unsat = true, // fully falsified by units
        }
    }
}

/// Order-insensitive clause identity: sorted literal codes.
fn clause_key(lits: &[Lit]) -> Box<[u32]> {
    let mut codes: Vec<u32> = lits.iter().map(|&l| l.code() as u32).collect();
    codes.sort_unstable();
    codes.into_boxed_slice()
}

/// The streaming certifier: a [`ProofSink`] that checks every proof
/// event on the fly with a forward reverse-unit-propagation checker.
///
/// Events wait in a flat buffer (their literals back to back, plus a
/// tag and an end offset each) and are checked in one pass when 16,384
/// literals are buffered and before every query, so the unchecked
/// backlog is bounded and total memory is the checker's
/// `O(active clauses)` plus a constant. Byte accounting
/// ([`ProofSink::bytes_emitted`]) is exact: it counts the bytes of
/// every event's annotated binary-DRAT record, i.e. the size the
/// stream [`crate::DratWriter::new`] writes would have on disk.
#[derive(Debug)]
pub struct StreamingChecker {
    checker: ForwardChecker,
    /// Literals of the unchecked events, back to back.
    lits: Vec<Lit>,
    /// One `(tag, end)` per unchecked event: its record tag and the end
    /// of its literals in `lits`.
    events: Vec<(u8, usize)>,
    bytes: usize,
}

impl Default for StreamingChecker {
    fn default() -> Self {
        StreamingChecker::new()
    }
}

impl StreamingChecker {
    /// A checker with nothing checked yet.
    pub fn new() -> Self {
        StreamingChecker {
            checker: ForwardChecker::default(),
            lits: Vec::with_capacity(BATCH_LITS),
            events: Vec::new(),
            bytes: 0,
        }
    }

    fn push(&mut self, tag: u8, lits: &[Lit]) {
        self.bytes += encoded_len(lits);
        self.lits.extend_from_slice(lits);
        self.events.push((tag, self.lits.len()));
        if self.lits.len() >= BATCH_LITS {
            self.check_backlog();
        }
    }

    /// Runs every buffered event through the checker, in order.
    fn check_backlog(&mut self) {
        let mut start = 0;
        for &(tag, end) in &self.events {
            let lits = &self.lits[start..end];
            match tag {
                TAG_ORIG => self.checker.original(lits),
                TAG_ADD => {
                    self.checker.add(lits, false);
                }
                TAG_DELETE => self.checker.delete(lits),
                TAG_FINAL => {
                    self.checker.add(lits, true);
                }
                _ => unreachable!("only the sink hooks buffer events"),
            }
            start = end;
        }
        self.lits.clear();
        self.events.clear();
    }
}

impl ProofSink for StreamingChecker {
    fn original(&mut self, lits: &[Lit]) {
        self.push(TAG_ORIG, lits);
    }

    fn add(&mut self, lits: &[Lit]) {
        self.push(TAG_ADD, lits);
    }

    fn delete(&mut self, lits: &[Lit]) {
        self.push(TAG_DELETE, lits);
    }

    fn finalize_unsat(&mut self, neg_core: &[Lit]) {
        self.push(TAG_FINAL, neg_core);
    }

    fn bytes_emitted(&self) -> usize {
        self.bytes
    }

    fn summary(&mut self) -> Option<Certificate> {
        self.check_backlog();
        let mut cert = self.checker.certificate();
        cert.proof_bytes = self.bytes as u64;
        Some(cert)
    }

    fn certifies(&mut self, assumptions: &[Lit]) -> bool {
        self.check_backlog();
        self.checker.certifies(assumptions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(code: usize) -> Lit {
        Lit::from_code(code)
    }

    #[test]
    fn rup_accepts_resolvents_and_rejects_non_consequences() {
        let mut c = ForwardChecker::default();
        let (a, b, x) = (l(0), l(2), l(4));
        c.original(&[a, b]);
        c.original(&[!a, b]);
        assert!(c.add(&[b], false), "resolvent is RUP");
        assert!(!c.add(&[x], false), "x is not entailed");
        assert_eq!(c.certificate().failed_checks, 1);
        assert_eq!(c.certificate().lemmas_checked, 2);
    }

    #[test]
    fn empty_clause_proves_unsat_and_certifies_everything() {
        let mut c = ForwardChecker::default();
        let a = l(0);
        c.original(&[a]);
        c.original(&[!a]);
        assert!(c.add(&[], true));
        assert!(c.proved_unsat);
        assert!(c.certifies(&[]));
        assert!(c.certifies(&[l(6)]), "ex falso: any assumption set");
    }

    #[test]
    fn finalization_lemma_matches_assumption_supersets() {
        let mut c = ForwardChecker::default();
        let (a, b, s) = (l(0), l(2), l(4));
        c.original(&[!s, a]);
        c.original(&[!a, !b]);
        // Under assumptions s ∧ b: s → a → ¬b, conflict. Core {s, b}.
        assert!(c.add(&[!s, !b], true), "negated core is RUP");
        assert!(c.certifies(&[s, b]));
        assert!(c.certifies(&[s, b, l(8)]), "subclause of a larger set");
        assert!(!c.certifies(&[s]), "core literal missing");
        assert!(!c.certifies(&[]));
    }

    #[test]
    fn deletions_are_multiset_and_missing_deletes_are_counted() {
        let mut c = ForwardChecker::default();
        let (a, b) = (l(0), l(2));
        c.original(&[a, b]);
        c.original(&[b, a]); // identical content, different order
        assert_eq!(c.active, 2);
        c.delete(&[a, b]);
        assert_eq!(c.active, 1);
        c.delete(&[b, a]);
        assert_eq!(c.active, 0);
        c.delete(&[a, b]);
        let cert = c.certificate();
        assert_eq!(cert.deletions, 3);
        assert_eq!(cert.missing_deletes, 1);
    }

    #[test]
    fn deleted_clauses_stop_supporting_rup() {
        let mut c = ForwardChecker::default();
        let (a, b) = (l(0), l(2));
        c.original(&[a, b]);
        c.original(&[!a, b]);
        c.delete(&[a, b]);
        assert!(!c.add(&[b], false), "support clause gone");
        // But units already derived persist: re-add the clause, derive
        // b, delete everything, b stays.
        c.original(&[a, b]);
        assert!(c.add(&[b], false));
        c.delete(&[a, b]);
        c.delete(&[!a, b]);
        assert!(c.add(&[b], false), "permanent unit keeps b entailed");
    }

    #[test]
    fn unit_insert_propagates_permanently() {
        let mut c = ForwardChecker::default();
        let (a, b, x) = (l(0), l(2), l(4));
        c.original(&[a]);
        c.original(&[!a, b]);
        c.original(&[!b, x]);
        // a, b, x are all forced: the unit clause [x] must be RUP.
        assert!(c.add(&[x], false));
        assert!(!c.proved_unsat);
    }

    #[test]
    fn conflicting_axioms_prove_unsat_without_an_explicit_empty_clause() {
        let mut c = ForwardChecker::default();
        let a = l(0);
        c.original(&[a]);
        c.original(&[!a]);
        assert!(c.proved_unsat, "unit conflict detected on insert");
    }

    #[test]
    fn streaming_checker_matches_direct_checking() {
        let mut s = StreamingChecker::new();
        // Filler over fresh variables fills exactly one batch, so the
        // refutation below is checked after a mid-stream batch.
        let filler = BATCH_LITS / 2;
        for i in 0..filler {
            s.original(&[l(4 + 4 * i), l(6 + 4 * i)]);
        }
        let (a, b) = (l(0), l(2));
        s.original(&[a, b]);
        s.original(&[!a, b]);
        s.original(&[!b]);
        s.add(&[b]);
        s.finalize_unsat(&[]);
        assert!(s.certifies(&[]));
        let cert = s.summary().unwrap();
        assert_eq!(cert.originals, filler as u64 + 3);
        assert_eq!(cert.lemmas_checked, 2);
        assert_eq!(cert.failed_checks, 0);
        assert_eq!(cert.unsat_proofs, 1);
        assert_eq!(cert.proof_bytes as usize, s.bytes_emitted());
        assert!(cert.proof_bytes > 0);
        assert!(cert.peak_active_clauses >= 3);
    }

    #[test]
    fn streaming_checker_active_set_shrinks_on_deletion() {
        let mut s = StreamingChecker::new();
        let lits: Vec<Lit> = (0..6).map(|i| l(2 * i)).collect();
        for w in lits.windows(2) {
            s.original(w);
        }
        let high = s.summary().unwrap().peak_active_clauses;
        for w in lits.windows(2) {
            s.delete(w);
        }
        let cert = s.summary().unwrap();
        assert_eq!(cert.peak_active_clauses, high, "peak is sticky");
        assert_eq!(cert.deletions, 5);
        assert_eq!(cert.missing_deletes, 0);
    }
}
