//! Static model reduction applied transparently at
//! [`Engine::start`](crate::engine::Engine::start).
//!
//! Every engine routes its `start` through
//! [`start_with_reduction`]: when [`Budget::reduce`] is on and the
//! [`sebmc_analysis`] pipeline finds something to remove, the inner
//! session is opened on the *reduced* model and wrapped in a
//! [`LiftingSession`] that
//!
//! * lifts every witness trace back to the original variable order
//!   (via [`sebmc_analysis::Reconstruction::lift_trace`]) and
//!   re-validates it with [`Model::check_trace`] against the
//!   **original** model — a failed lift degrades the verdict to
//!   `Unknown` rather than ever reporting an unsound `Reachable`;
//! * stamps the reduction counters (`latches_swept`, `coi_latches`,
//!   `inputs_removed`) into every outcome's stats and into
//!   [`Session::cumulative_stats`].
//!
//! `Unreachable` verdicts transfer without adjustment: the swept set
//! is simultaneously inductive and removed latches neither influence
//! the target cone nor constrain the kept initial states (see the
//! soundness notes in the `sebmc-analysis` crate docs), so the
//! reachable-state projections of the reduced and original models
//! coincide — bounded reachability, `Within`/`Exactly` semantics, and
//! k-induction conclusions all carry over.
//!
//! The inner budget always runs with `reduce = false` so a session
//! opened on the already-reduced model never re-enters the analysis.

use sebmc_analysis::Reduction;
use sebmc_model::Model;

use crate::engine::{BmcOutcome, BmcResult, Budget, CancelToken, RunStats, Semantics, Session};

/// Opens a session with static reduction applied when
/// [`Budget::reduce`] asks for it.
///
/// `open` is the engine's raw session constructor; it receives the
/// (possibly reduced) model and a budget whose `reduce` flag is
/// cleared.
pub fn start_with_reduction(
    model: &Model,
    semantics: Semantics,
    budget: Budget,
    open: impl FnOnce(&Model, Semantics, Budget) -> Box<dyn Session>,
) -> Box<dyn Session> {
    if !budget.reduce {
        return open(model, semantics, budget);
    }
    let mut inner_budget = budget;
    inner_budget.reduce = false;
    match sebmc_analysis::reduce(model) {
        Some(reduction) => {
            let inner = open(&reduction.model, semantics, inner_budget);
            Box::new(LiftingSession::new(inner, reduction))
        }
        None => open(model, semantics, inner_budget),
    }
}

/// A session wrapper that runs on a reduced model and lifts results
/// back to the original one.
pub struct LiftingSession {
    inner: Box<dyn Session>,
    reduction: Reduction,
}

impl LiftingSession {
    /// Wraps `inner` (a session on `reduction.model`) so its verdicts
    /// and witnesses speak about the original model.
    pub fn new(inner: Box<dyn Session>, reduction: Reduction) -> Self {
        LiftingSession { inner, reduction }
    }

    /// The reduction this session runs under.
    pub fn reduction(&self) -> &Reduction {
        &self.reduction
    }

    fn stamp(&self, stats: &mut RunStats) {
        stats.latches_swept = self.reduction.analysis.latches_swept();
        stats.coi_latches = self.reduction.analysis.coi_latches;
        stats.inputs_removed = self.reduction.analysis.inputs_removed();
    }
}

impl Session for LiftingSession {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn semantics(&self) -> Semantics {
        self.inner.semantics()
    }

    fn check_bound(&mut self, k: usize) -> BmcOutcome {
        let mut outcome = self.inner.check_bound(k);
        self.stamp(&mut outcome.stats);
        if let BmcResult::Reachable(Some(reduced_trace)) = &outcome.result {
            match self.reduction.recon.lift_trace(reduced_trace) {
                Ok(lifted) => match self.reduction.recon.original().check_trace(&lifted) {
                    Ok(()) => outcome.result = BmcResult::Reachable(Some(lifted)),
                    Err(why) => {
                        // Never surface a witness the original model
                        // rejects: degrade instead of mislead.
                        outcome.result =
                            BmcResult::Unknown(format!("reduction lift failed: {why}"));
                        outcome.certificate = None;
                    }
                },
                Err(why) => {
                    outcome.result = BmcResult::Unknown(format!("reduction lift failed: {why}"));
                    outcome.certificate = None;
                }
            }
        }
        outcome
    }

    fn supports_bound(&self, k: usize) -> bool {
        self.inner.supports_bound(k)
    }

    fn set_cancel(&mut self, token: CancelToken) {
        self.inner.set_cancel(token);
    }

    fn cumulative_stats(&self) -> RunStats {
        let mut stats = self.inner.cumulative_stats();
        self.stamp(&mut stats);
        stats
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
