//! The per-bound protocol every engine session shares, written once.
//!
//! An engine's session state implements [`Formulation`]: it owns a
//! [`SessionCore`] and says how its formula decides one bound. The one
//! `impl<F: Formulation> Session for F` wraps every bound in the same
//! steps, in this order:
//!
//! 1. announce the bound to the budget's progress sink;
//! 2. pass the engine fault-injection safe point (an injected `oom`
//!    stops the bound as `"budget exhausted"`);
//! 3. check the budget (an expired one stops the bound with its
//!    [`Budget::unknown_reason`]);
//! 4. let the formulation decide the bound, or report the stop;
//! 5. time the call and count it as one bound;
//! 6. on a statically reduced model, stamp the reduction counters and
//!    lift a witness back to the original model;
//! 7. fold the bound's stats into the session total.
//!
//! [`open`] starts every session, on the reduced model when
//! [`Budget::reduce`] asks for it and the [`sebmc_analysis`] pipeline
//! finds something to remove. `Unreachable` verdicts transfer without
//! adjustment: the swept set is simultaneously inductive and removed
//! latches neither influence the target cone nor constrain the kept
//! initial states (see the soundness notes in the `sebmc-analysis`
//! crate docs), so the reachable-state projections of the reduced and
//! original models coincide.
//!
//! [`SolverMark`] is the one mapping from a SAT solver's counters to a
//! bound's [`RunStats`] and [`Certificate`].

use std::time::Instant;

use sebmc_analysis::{Reconstruction, Reduction};
use sebmc_logic::fault::FaultVerdict;
use sebmc_model::Model;
use sebmc_proof::Certificate;
use sebmc_sat::Solver;

use crate::engine::{BmcOutcome, BmcResult, Budget, CancelToken, RunStats, Semantics, Session};

/// What every session holds besides its formula: its names, semantics
/// and budget clock, the running total of its bounds, and the
/// reduction it runs under.
#[derive(Debug)]
pub(crate) struct SessionCore {
    /// [`Session::name`].
    name: &'static str,
    /// The engine label of the `bound` progress event.
    label: &'static str,
    /// The semantics the session was opened with.
    pub(crate) semantics: Semantics,
    /// The session budget; its wall clock runs from `started`.
    pub(crate) budget: Budget,
    /// When the budget clock started.
    pub(crate) started: Instant,
    total: RunStats,
    reduction: Option<Reduction>,
}

impl SessionCore {
    /// A core whose budget clock starts now.
    pub(crate) fn new(
        name: &'static str,
        label: &'static str,
        semantics: Semantics,
        budget: Budget,
    ) -> Self {
        SessionCore {
            name,
            label,
            semantics,
            budget,
            started: Instant::now(),
            total: RunStats::default(),
            reduction: None,
        }
    }

    /// Whether the budget's deadline has passed or its token fired.
    pub(crate) fn expired(&self) -> bool {
        self.budget.expired(self.started)
    }

    /// The budget lowered onto the SAT solver's limits.
    pub(crate) fn sat_limits(&self) -> sebmc_sat::Limits {
        self.budget.sat_limits(self.started)
    }

    /// Steps 1–3: why bound `k` must not be attempted, if anything.
    fn enter(&self, k: usize) -> Option<String> {
        self.budget.progress.on_bound(self.label, k);
        if self.budget.fault_hit_engine() == FaultVerdict::Oom {
            return Some("budget exhausted".into());
        }
        self.expired().then(|| self.budget.unknown_reason())
    }

    /// Steps 5–7: times and counts the bound, speaks about the original
    /// model, and folds the bound into the total.
    fn exit(&mut self, call_start: Instant, outcome: &mut BmcOutcome) {
        outcome.stats.duration = call_start.elapsed();
        outcome.stats.bounds_checked = 1;
        if let Some(reduction) = &self.reduction {
            stamp(&mut outcome.stats, reduction);
            if let BmcResult::Reachable(Some(_)) = outcome.result {
                let result = std::mem::replace(&mut outcome.result, BmcResult::Unreachable);
                outcome.result = lift_verdict(&reduction.recon, result);
                if outcome.result.is_unknown() {
                    outcome.certificate = None;
                }
            }
        }
        self.total.absorb(&outcome.stats);
    }
}

/// Writes the reduction counters into `stats`.
fn stamp(stats: &mut RunStats, reduction: &Reduction) {
    stats.latches_swept = reduction.analysis.latches_swept();
    stats.coi_latches = reduction.analysis.coi_latches;
    stats.inputs_removed = reduction.analysis.inputs_removed();
}

/// How one engine's formula decides a bound; the rest of a session is
/// the shared protocol of this module.
pub(crate) trait Formulation: Send {
    /// The shared session state.
    fn core(&self) -> &SessionCore;

    /// The shared session state, mutably.
    fn core_mut(&mut self) -> &mut SessionCore;

    /// Decides bound `k`. When `stop` holds a reason the bound is not
    /// attempted: the outcome is `Unknown(stop)` with the stats (and,
    /// under [`Budget::certify`], the certificate) of a bound that did
    /// no work. `duration` and `bounds_checked` are set by the caller.
    fn decide(&mut self, k: usize, stop: Option<String>) -> BmcOutcome;

    /// [`Session::supports_bound`].
    fn supports_bound(&self, _k: usize) -> bool {
        true
    }
}

impl<F: Formulation> Session for F {
    fn name(&self) -> &'static str {
        self.core().name
    }

    fn semantics(&self) -> Semantics {
        self.core().semantics
    }

    fn check_bound(&mut self, k: usize) -> BmcOutcome {
        let call_start = Instant::now();
        let stop = self.core().enter(k);
        let mut outcome = self.decide(k, stop);
        self.core_mut().exit(call_start, &mut outcome);
        outcome
    }

    fn supports_bound(&self, k: usize) -> bool {
        Formulation::supports_bound(self, k)
    }

    fn set_cancel(&mut self, token: CancelToken) {
        self.core_mut().budget.cancel = token;
    }

    fn cumulative_stats(&self) -> RunStats {
        self.core().total.clone()
    }
}

/// Opens a session: `build` gets the model to encode, which is the
/// statically reduced one when [`Budget::reduce`] is on and the
/// analysis finds something to remove. The session then stamps the
/// reduction counters into every bound and lifts every witness back to
/// `model`.
pub(crate) fn open<F: Formulation + 'static>(
    model: &Model,
    semantics: Semantics,
    budget: Budget,
    build: impl FnOnce(&Model, Semantics, Budget) -> F,
) -> Box<dyn Session> {
    let reduction = budget
        .reduce
        .then(|| sebmc_analysis::reduce(model))
        .flatten();
    let Some(reduction) = reduction else {
        return Box::new(build(model, semantics, budget));
    };
    let mut session = build(&reduction.model, semantics, budget);
    let core = session.core_mut();
    stamp(&mut core.total, &reduction);
    core.reduction = Some(reduction);
    Box::new(session)
}

/// Lifts a verdict on a reduced model back to the original model of
/// `recon`: a witness is mapped to the original variable order and
/// replayed through [`Model::check_trace`] on the original model. A
/// lift that fails degrades the verdict to
/// `Unknown("reduction lift failed: …")` rather than ever report a
/// witness the original model rejects. Other verdicts pass unchanged.
pub fn lift_verdict(recon: &Reconstruction, verdict: BmcResult) -> BmcResult {
    let BmcResult::Reachable(Some(reduced)) = &verdict else {
        return verdict;
    };
    let lifted = recon.lift_trace(reduced).and_then(|trace| {
        recon
            .original()
            .check_trace(&trace)
            .map(|()| trace)
            .map_err(|why| format!("{why}"))
    });
    match lifted {
        Ok(trace) => BmcResult::Reachable(Some(trace)),
        Err(why) => BmcResult::Unknown(format!("reduction lift failed: {why}")),
    }
}

/// A SAT solver's counters at the start of a bound, from which the
/// bound's stats and certificate are taken at its end.
pub(crate) struct SolverMark {
    conflicts: u64,
    proof: Option<Certificate>,
}

impl SolverMark {
    /// Marks `solver` now; the proof summary is read only under
    /// `certify`.
    pub(crate) fn new(solver: &mut Solver, certify: bool) -> Self {
        SolverMark {
            conflicts: solver.stats().conflicts,
            proof: certify.then(|| solver.proof_summary()).flatten(),
        }
    }

    /// The bound's stats: the formula sizes given, the solver's peaks,
    /// and the conflicts since the mark.
    pub(crate) fn stats(
        &self,
        solver: &Solver,
        vars: usize,
        clauses: usize,
        lits: usize,
    ) -> RunStats {
        let s = solver.stats();
        RunStats {
            encode_vars: vars,
            encode_clauses: clauses,
            encode_lits: lits,
            peak_formula_lits: s.peak_live_lits,
            peak_formula_bytes: s.peak_bytes(),
            peak_watch_bytes: s.peak_watch_bytes,
            peak_proof_bytes: s.peak_proof_bytes,
            solver_effort: s.conflicts - self.conflicts,
            ..RunStats::default()
        }
    }

    /// The bound's certificate under `certify`: the checker counters
    /// since the mark and, when the bound was decided, whether its
    /// verdict is `covered` by the proof or the witness replay.
    pub(crate) fn certificate(
        &self,
        solver: &mut Solver,
        certify: bool,
        covered: Option<bool>,
    ) -> Option<Certificate> {
        if !certify {
            return None;
        }
        let now = solver.proof_summary().unwrap_or_default();
        let mut cert = match &self.proof {
            Some(before) => now.delta_since(before),
            None => now,
        };
        if let Some(ok) = covered {
            cert.bounds_attempted = 1;
            cert.bounds_certified = u64::from(ok);
        }
        Some(cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, JSat, UnrollSat};
    use sebmc_model::builders;

    #[test]
    fn reduced_session_lifts_witnesses_to_the_original_model() {
        let model = builders::round_robin_arbiter(4);
        let engine = UnrollSat;
        let mut session = engine.start(&model, Semantics::Within, Budget::none());
        // Deepen until the grant fires; the witness must have the
        // *original* widths and pass the original checker.
        let mut found = None;
        for k in 0..8 {
            let out = session.check_bound(k);
            assert!(
                out.stats.coi_latches > 0 && out.stats.coi_latches < model.num_state_vars(),
                "arbiter reduces, so the counters must be stamped"
            );
            if let BmcResult::Reachable(Some(t)) = out.result {
                found = Some(t);
                break;
            }
        }
        let trace = found.expect("arbiter grant is reachable");
        assert_eq!(trace.states[0].len(), model.num_state_vars());
        assert_eq!(trace.inputs.first().map(Vec::len), Some(model.num_inputs()));
        model.check_trace(&trace).expect("lifted witness validates");
    }

    #[test]
    fn no_reduce_budget_bypasses_the_analysis() {
        let model = builders::round_robin_arbiter(4);
        let engine = JSat::default();
        let budget = Budget {
            reduce: false,
            ..Budget::default()
        };
        let mut session = engine.start(&model, Semantics::Within, budget);
        let out = session.check_bound(2);
        assert_eq!(out.stats.coi_latches, 0, "no reduction, no counters");
        assert_eq!(out.stats.latches_swept, 0);
    }

    #[test]
    fn irreducible_model_keeps_zero_counters() {
        let model = builders::counter_with_reset(4);
        let engine = UnrollSat;
        let mut session = engine.start(&model, Semantics::Within, Budget::none());
        let out = session.check_bound(3);
        assert_eq!(out.stats.coi_latches, 0);
        assert_eq!(out.stats.latches_swept, 0);
        assert_eq!(out.stats.inputs_removed, 0);
    }

    #[test]
    fn verdicts_agree_with_unreduced_oracle_on_reducible_models() {
        for model in [builders::round_robin_arbiter(4), builders::fifo(3)] {
            for k in 0..6 {
                let reduced = UnrollSat
                    .start(&model, Semantics::Within, Budget::none())
                    .check_bound(k);
                let oracle = UnrollSat
                    .start(
                        &model,
                        Semantics::Within,
                        Budget {
                            reduce: false,
                            ..Budget::default()
                        },
                    )
                    .check_bound(k);
                assert!(
                    reduced.result.agrees_with(&oracle.result),
                    "{} k={k}: {:?} vs {:?}",
                    model.name(),
                    reduced.result,
                    oracle.result
                );
                assert!(
                    !reduced.result.is_unknown() && !oracle.result.is_unknown(),
                    "both sides must decide"
                );
            }
        }
    }
}
