//! Incremental unrolling: one solver, growing bound — the
//! [`Session`] behind [`UnrollSat`](crate::UnrollSat).
//!
//! The classical BMC loop re-encodes the whole unrolled formula at
//! every bound. With an incremental SAT solver the transition frames
//! can be *added* instead — only the target constraint moves, which is
//! handled with one activation literal per bound (assumed for the
//! bound being checked, retired afterwards). Learnt clauses survive
//! across bounds, which is where the speedup comes from.
//!
//! This is the engine a 2005 bounded model checker would actually run
//! in its deepening loop;
//! [`DeepeningPortfolio::sweep`](crate::DeepeningPortfolio::sweep)
//! drives it (or any other session) bound by bound.

use std::time::Instant;

use sebmc_logic::{Cnf, Lit, VarAlloc};
use sebmc_model::{Model, Trace};
use sebmc_proof::Certificate;
use sebmc_sat::{SolveResult, Solver};

use crate::engine::{BmcOutcome, BmcResult, Budget, RunStats, Semantics, Session};
use crate::frame::FrameEncoder;

/// An incremental unrolled-BMC session over one model.
///
/// Frames are appended on demand and never re-encoded; bounds may be
/// checked in any order and each query reuses every clause (and learnt
/// clause) from previous queries. The session's [`Budget`] wall clock
/// starts at construction and covers every `check_bound` call.
///
/// ```
/// use sebmc::inc_unroll::IncrementalUnroll;
/// use sebmc::Semantics;
/// use sebmc_model::builders::shift_register;
///
/// let model = shift_register(4);
/// let mut session = IncrementalUnroll::new(&model, Semantics::Exactly);
/// assert!(session.check_bound(3).result.is_unreachable());
/// assert!(session.check_bound(4).result.is_reachable());
/// ```
#[derive(Debug)]
pub struct IncrementalUnroll {
    model: Model,
    semantics: Semantics,
    solver: Solver,
    alloc: VarAlloc,
    state_lits: Vec<Vec<Lit>>,
    input_lits: Vec<Vec<Lit>>,
    /// `target_act[k]` activates "F holds at frame k".
    target_act: Vec<Lit>,
    /// Per-frame target literal (for Within witness truncation).
    target_lits: Vec<Lit>,
    budget: Budget,
    started: Instant,
    /// Problem clauses/literals encoded so far (the formula the session
    /// holds in memory — grows by one TR copy per frame).
    encoded_clauses: usize,
    encoded_lits: usize,
    total: RunStats,
}

impl IncrementalUnroll {
    /// Starts an unbudgeted session for `model` under `semantics`.
    pub fn new(model: &Model, semantics: Semantics) -> Self {
        Self::with_budget(model, semantics, Budget::none())
    }

    /// Starts a session whose budget covers all subsequent bounds.
    ///
    /// Under [`Budget::certify`] the solver streams a binary-DRAT
    /// proof through the bounded on-the-fly checker from the very
    /// first clause; every Unsat bound is then finalized via the
    /// failed-assumption core of its per-bound activation literal and
    /// matched against the proof, and every Sat bound's witness is
    /// replayed through [`Model::check_trace`].
    pub fn with_budget(model: &Model, semantics: Semantics, budget: Budget) -> Self {
        let mut solver = Solver::new();
        if let Some(sink) = budget.proof_sink() {
            solver.set_proof_sink(sink);
        }
        let mut s = IncrementalUnroll {
            model: model.clone(),
            semantics,
            solver,
            alloc: VarAlloc::new(),
            state_lits: Vec::new(),
            input_lits: Vec::new(),
            target_act: Vec::new(),
            target_lits: Vec::new(),
            budget,
            started: Instant::now(),
            encoded_clauses: 0,
            encoded_lits: 0,
            total: RunStats::default(),
        };
        // Frame 0: state variables + I(Z0) + F-at-0 activation.
        let n = s.model.num_state_vars();
        let frame0 = s.alloc.fresh_lits(n);
        s.state_lits.push(frame0);
        let mut cnf = Cnf::new();
        let mut enc = FrameEncoder::new(&s.model, &s.state_lits[0], None);
        let init_root = enc.init(&mut s.alloc, &mut cnf);
        cnf.add_unit(init_root);
        let f0 = enc.target(&mut s.alloc, &mut cnf);
        let act0 = s.alloc.fresh_lit();
        cnf.add_binary(!act0, f0);
        s.target_act.push(act0);
        s.target_lits.push(f0);
        cnf.ensure_vars(s.alloc.num_vars());
        s.encoded_clauses += cnf.num_clauses();
        s.encoded_lits += cnf.num_literals();
        s.solver.add_cnf(&cnf);
        s
    }

    /// Number of frames currently encoded (`highest bound + 1`).
    pub fn encoded_frames(&self) -> usize {
        self.state_lits.len()
    }

    /// Live-literal count of the underlying solver (the space proxy).
    pub fn live_lits(&self) -> usize {
        self.solver.stats().live_lits
    }

    /// Exact live clause-database bytes of the underlying solver
    /// (arena words × 4, headers included).
    pub fn live_bytes(&self) -> usize {
        self.solver.stats().live_bytes()
    }

    /// Appends one transition frame.
    fn extend(&mut self) {
        let t = self.state_lits.len() - 1;
        let n = self.model.num_state_vars();
        let m = self.model.num_inputs();
        self.input_lits.push(self.alloc.fresh_lits(m));
        let next_frame = self.alloc.fresh_lits(n);
        self.state_lits.push(next_frame);
        let mut cnf = Cnf::new();
        let mut frame =
            FrameEncoder::new(&self.model, &self.state_lits[t], Some(&self.input_lits[t]));
        frame.transition(&self.state_lits[t + 1], &mut self.alloc, &mut cnf);
        // F at the new frame, guarded.
        let f = FrameEncoder::new(&self.model, &self.state_lits[t + 1], None)
            .target(&mut self.alloc, &mut cnf);
        let act = self.alloc.fresh_lit();
        cnf.add_binary(!act, f);
        self.target_act.push(act);
        self.target_lits.push(f);
        cnf.ensure_vars(self.alloc.num_vars());
        self.encoded_clauses += cnf.num_clauses();
        self.encoded_lits += cnf.num_literals();
        self.solver.add_cnf(&cnf);
    }

    /// Checks the given bound, extending the encoding as needed.
    pub fn check_bound(&mut self, k: usize) -> BmcOutcome {
        let call_start = Instant::now();
        let conflicts_before = self.solver.stats().conflicts;
        let cert_before = if self.budget.certify {
            self.solver.proof_summary()
        } else {
            None
        };
        let (result, bound_certified) = self.check_bound_inner(k);
        let stats = RunStats {
            duration: call_start.elapsed(),
            encode_vars: self.alloc.num_vars(),
            encode_clauses: self.encoded_clauses,
            encode_lits: self.encoded_lits,
            peak_formula_lits: self.solver.stats().peak_live_lits,
            peak_formula_bytes: self.solver.stats().peak_bytes(),
            peak_watch_bytes: self.solver.stats().peak_watch_bytes,
            peak_proof_bytes: self.solver.stats().peak_proof_bytes,
            solver_effort: self.solver.stats().conflicts - conflicts_before,
            bounds_checked: 1,
            ..RunStats::default()
        };
        self.total.absorb(&stats);
        let certificate = self.bound_certificate(cert_before, bound_certified);
        BmcOutcome {
            result,
            stats,
            certificate,
        }
    }

    /// The per-bound certificate: checker counters accumulated during
    /// this call, plus whether this bound's verdict was covered.
    fn bound_certificate(
        &mut self,
        before: Option<Certificate>,
        bound_certified: Option<bool>,
    ) -> Option<Certificate> {
        if !self.budget.certify {
            return None;
        }
        let now = self.solver.proof_summary().unwrap_or_default();
        let mut cert = match before {
            Some(b) => now.delta_since(&b),
            None => now,
        };
        if let Some(ok) = bound_certified {
            cert.bounds_attempted = 1;
            cert.bounds_certified = u64::from(ok);
        }
        Some(cert)
    }

    fn check_bound_inner(&mut self, k: usize) -> (BmcResult, Option<bool>) {
        self.budget.progress.on_bound("unroll", k);
        if self.budget.fault_hit_engine() == sebmc_logic::fault::FaultVerdict::Oom {
            return (BmcResult::Unknown("budget exhausted".into()), None);
        }
        if self.budget.expired(self.started) {
            return (BmcResult::Unknown(self.budget.unknown_reason()), None);
        }
        while self.state_lits.len() <= k {
            // Enforce the byte cap (and deadline/cancellation) while
            // *encoding*, not just at solver safe points — a huge bound
            // must not blow past the budget before the first solve.
            if self.budget.expired(self.started)
                || self
                    .budget
                    .max_formula_bytes
                    .is_some_and(|cap| self.solver.stats().live_bytes() >= cap)
            {
                return (BmcResult::Unknown(self.budget.unknown_reason()), None);
            }
            self.extend();
        }
        self.solver.set_limits(self.budget.sat_limits(self.started));
        // Assumptions: F at frame k (exact) or F somewhere ≤ k (within,
        // via an OR over activation literals — expressed by assuming a
        // fresh selector that implies the disjunction). The assumption
        // literal doubles as the proof-level assumption an Unsat
        // verdict is finalized against.
        let (result, cert_assumption) = match self.semantics {
            Semantics::Exactly => (
                self.solver.solve_with(&[self.target_act[k]]),
                self.target_act[k],
            ),
            Semantics::Within => {
                // selector → (act0 ∨ … ∨ actk) is wrong (acts are
                // guards); instead: selector → (f0 ∨ … ∨ fk).
                let sel = self.alloc.fresh_lit();
                self.solver.ensure_vars(self.alloc.num_vars());
                let mut clause = vec![!sel];
                clause.extend(self.target_lits.iter().take(k + 1).copied());
                self.solver.add_clause(clause);
                let r = self.solver.solve_with(&[sel]);
                // Retire the selector so later bounds are unaffected
                // (the finalization lemma of the solve survives this).
                self.solver.add_clause([!sel]);
                (r, sel)
            }
        };
        match result {
            SolveResult::Sat => {
                let value = |l: Lit| self.solver.lit_value_model(l).unwrap_or(false);
                let mut trace = Trace {
                    states: self.state_lits[..=k]
                        .iter()
                        .map(|f| f.iter().map(|&l| value(l)).collect())
                        .collect(),
                    inputs: self.input_lits[..k]
                        .iter()
                        .map(|f| f.iter().map(|&l| value(l)).collect())
                        .collect(),
                };
                if self.semantics == Semantics::Within {
                    if let Some(t) = trace.states.iter().position(|s| self.model.eval_target(s)) {
                        trace.states.truncate(t + 1);
                        trace.inputs.truncate(t);
                    }
                }
                debug_assert_eq!(self.model.check_trace(&trace), Ok(()));
                let certified = self
                    .budget
                    .certify
                    .then(|| self.model.check_trace(&trace).is_ok());
                (BmcResult::Reachable(Some(trace)), certified)
            }
            SolveResult::Unsat => {
                let certified = self
                    .budget
                    .certify
                    .then(|| self.solver.proof_certifies(&[cert_assumption]));
                (BmcResult::Unreachable, certified)
            }
            SolveResult::Unknown => (BmcResult::Unknown(self.budget.unknown_reason()), None),
        }
    }
}

impl Session for IncrementalUnroll {
    fn name(&self) -> &'static str {
        "sat-unroll"
    }

    fn semantics(&self) -> Semantics {
        self.semantics
    }

    fn check_bound(&mut self, k: usize) -> BmcOutcome {
        IncrementalUnroll::check_bound(self, k)
    }

    fn set_cancel(&mut self, token: crate::engine::CancelToken) {
        self.budget.cancel = token;
    }

    fn cumulative_stats(&self) -> RunStats {
        self.total.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CancelToken;
    use sebmc_model::builders::{counter_with_reset, lfsr, shift_register, traffic_light};
    use sebmc_model::explicit;

    #[test]
    fn matches_oracle_across_increasing_bounds() {
        let model = counter_with_reset(3);
        let mut session = IncrementalUnroll::new(&model, Semantics::Exactly);
        for k in 0..10 {
            let got = session.check_bound(k).result;
            let expect = explicit::reachable_in_exactly(&model, k);
            assert_eq!(got.is_reachable(), expect, "bound {k}");
            if let Some(t) = got.witness() {
                assert_eq!(model.check_trace(t), Ok(()));
                assert_eq!(t.len(), k);
            }
        }
    }

    #[test]
    fn within_semantics_matches_oracle() {
        let model = lfsr(4, 6);
        let mut session = IncrementalUnroll::new(&model, Semantics::Within);
        for k in 0..10 {
            let got = session.check_bound(k).result;
            assert_eq!(
                got.is_reachable(),
                explicit::reachable_within(&model, k),
                "bound {k}"
            );
        }
    }

    #[test]
    fn frames_are_reused_not_reencoded() {
        let model = shift_register(6);
        let mut session = IncrementalUnroll::new(&model, Semantics::Exactly);
        session.check_bound(4);
        let frames_after_4 = session.encoded_frames();
        let lits_after_4 = session.cumulative_stats().encode_lits;
        session.check_bound(2); // lower bound: no new frames
        assert_eq!(session.encoded_frames(), frames_after_4);
        assert_eq!(session.cumulative_stats().encode_lits, lits_after_4);
        session.check_bound(8);
        assert_eq!(session.encoded_frames(), 9);
    }

    #[test]
    fn unsat_family_stays_unreachable_incrementally() {
        let model = traffic_light();
        let mut session = IncrementalUnroll::new(&model, Semantics::Within);
        for k in 0..8 {
            assert!(session.check_bound(k).result.is_unreachable(), "bound {k}");
        }
    }

    #[test]
    fn bounds_can_be_revisited() {
        let model = shift_register(4);
        let mut session = IncrementalUnroll::new(&model, Semantics::Exactly);
        assert!(session.check_bound(4).result.is_reachable());
        assert!(session.check_bound(3).result.is_unreachable());
        assert!(
            session.check_bound(4).result.is_reachable(),
            "re-query works"
        );
    }

    #[test]
    fn live_lits_grow_linearly_with_frames() {
        let model = counter_with_reset(4);
        let mut session = IncrementalUnroll::new(&model, Semantics::Exactly);
        session.check_bound(4);
        let l4 = session.live_lits();
        session.check_bound(8);
        let l8 = session.live_lits();
        assert!(l8 > l4, "more frames, more clauses");
    }

    #[test]
    fn cumulative_stats_aggregate_across_bounds() {
        let model = counter_with_reset(3);
        let mut session = IncrementalUnroll::new(&model, Semantics::Exactly);
        let mut effort = 0;
        for k in 0..6 {
            effort += session.check_bound(k).stats.solver_effort;
        }
        let total = session.cumulative_stats();
        assert_eq!(total.bounds_checked, 6);
        assert_eq!(total.solver_effort, effort);
        assert!(total.encode_lits > 0);
        assert!(
            total.peak_watch_bytes > 0,
            "watch-storage bytes join the session accounting"
        );
    }

    #[test]
    fn byte_cap_limits_encoding_not_just_solving() {
        // A huge bound must hit the memory cap while *encoding* frames,
        // not allocate them all first.
        let model = counter_with_reset(4);
        let mut session = IncrementalUnroll::with_budget(
            &model,
            Semantics::Exactly,
            Budget::with_memory_bytes(4096),
        );
        let out = session.check_bound(100_000);
        assert!(out.result.is_unknown(), "got {}", out.result);
        assert!(
            session.live_bytes() < 64 * 1024,
            "encoding stopped near the cap, held {} B",
            session.live_bytes()
        );
    }

    /// Under a certify budget, every decided bound must come back with
    /// a fully-certified certificate: Unsat bounds proof-checked via
    /// the per-bound activation assumption, Sat bounds replayed.
    #[test]
    fn certified_session_covers_both_polarities() {
        for semantics in [Semantics::Exactly, Semantics::Within] {
            let model = counter_with_reset(3);
            let mut session = IncrementalUnroll::with_budget(
                &model,
                semantics,
                Budget::none().with_certify(true),
            );
            for k in 0..=8 {
                let out = session.check_bound(k);
                assert!(!out.result.is_unknown());
                let cert = out.certificate.as_ref().expect("certificate attached");
                assert!(cert.fully_certified(), "bound {k} ({semantics}): {cert:?}");
                if out.result.is_unreachable() {
                    assert!(cert.unsat_proofs > 0, "Unsat bound finalized a core");
                }
                assert!(out.stats.peak_proof_bytes > 0, "proof bytes accounted");
            }
            let total = session.cumulative_stats();
            assert!(total.peak_proof_bytes > 0);
        }
    }

    /// Without the certify flag nothing is attached and no proof bytes
    /// accrue — logging off is really off.
    #[test]
    fn uncertified_session_attaches_nothing() {
        let model = counter_with_reset(3);
        let mut session = IncrementalUnroll::new(&model, Semantics::Exactly);
        let out = session.check_bound(3);
        assert!(out.certificate.is_none());
        assert_eq!(out.stats.peak_proof_bytes, 0);
    }

    #[test]
    fn fired_token_stops_the_session() {
        let model = shift_register(8);
        let token = CancelToken::new();
        let mut session = IncrementalUnroll::with_budget(
            &model,
            Semantics::Exactly,
            Budget::none().with_cancel(token.clone()),
        );
        assert!(session.check_bound(3).result.is_unreachable());
        token.cancel();
        let out = session.check_bound(8);
        assert_eq!(out.result, BmcResult::Unknown("cancelled".into()));
    }
}
