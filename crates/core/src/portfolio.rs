//! Portfolio-level deepening: the one loop that drives engine sessions
//! over bounds.
//!
//! [`DeepeningPortfolio`] opens one *live* session per engine and
//! decides bounds one at a time. With several engines each bound is
//! raced, one scoped thread per session, on a fresh child
//! [`CancelToken`]: the first decided verdict cancels that bound's
//! losers *without killing their sessions* ([`Session::set_cancel`]
//! re-arms them before the next bound), so the losers keep their solver
//! state — learnt clauses, frames, failed-state caches — and stay
//! competitive at deeper bounds. With a single engine there is nothing
//! to race: its session runs inline on the caller's thread, keeps
//! [`Budget::proof_out`], and a panic in it unwinds into the caller.
//!
//! [`DeepeningPortfolio::sweep`] is the paper's deepening loop over
//! those sessions, recorded in a [`SweepProgress`] the caller keeps: a
//! service job attempt, a batch retry that resumes at the first
//! undecided bound, and `sebmc --deepen` all run it.
//!
//! A race runs on a [`CancelToken::child_of`] the caller's token (in
//! the passed [`Budget`]): the caller's `cancel()` reaches every racer
//! before it returns, while the portfolio never fires the caller's
//! token, so the budget stays reusable. The budget's deadline fires the
//! race token once, at the end of the one wait on the racers' replies.
//! A racing engine that panics is caught and surfaced as
//! [`BmcResult::Unknown`] rather than taking the whole portfolio down,
//! and cancelled losers report the partial [`RunStats`] of their bound,
//! which `sweep` folds into [`SweepProgress::stats`] with every other
//! entry's, so racing effort is accounted honestly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::thread;
use std::time::Instant;

use sebmc_model::Model;
use sebmc_proof::Certificate;

use crate::engine::{
    BmcOutcome, BmcResult, Budget, CancelToken, Engine, RunStats, Semantics, Session,
};

/// The outcome of one engine at one bound of a portfolio.
#[derive(Debug)]
pub struct PortfolioEntry {
    /// Engine name.
    pub engine: &'static str,
    /// The engine's outcome for the bound. Cancelled losers report
    /// `Unknown("cancelled")` with the stats of the work they did; a
    /// panicking racer reports `Unknown("engine panicked: …")`.
    pub outcome: BmcOutcome,
}

/// Renders a panic payload (the argument of `panic!`) as text.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Renders a contained engine panic as an *attributable* Unknown
/// reason: `engine panicked: <engine>: <payload>`, with the payload
/// truncated to a bounded length so a runaway `Debug` impl cannot
/// flood a JSON report. The `engine panicked:` prefix is a stable
/// contract relied on by the service layer's retry classification.
pub fn engine_panic_reason(engine: &str, payload: &(dyn std::any::Any + Send)) -> String {
    format!(
        "engine panicked: {engine}: {}",
        truncate_panic_payload(payload)
    )
}

/// The panic payload as text, truncated to ~120 bytes on a char
/// boundary with a trailing ellipsis.
pub fn truncate_panic_payload(payload: &(dyn std::any::Any + Send)) -> String {
    const MAX: usize = 120;
    let mut msg = panic_message(payload);
    if msg.len() > MAX {
        let mut cut = MAX;
        while !msg.is_char_boundary(cut) {
            cut -= 1;
        }
        msg.truncate(cut);
        msg.push('…');
    }
    msg
}

/// The outcome of one bound of a [`DeepeningPortfolio`].
#[derive(Debug)]
pub struct PortfolioBoundOutcome {
    /// Per-engine entries, in the portfolio's engine order. Losers
    /// report `Unknown("cancelled")` with their partial stats attached.
    pub entries: Vec<PortfolioEntry>,
    /// Index (into `entries`) of the engine whose decided verdict won
    /// the race, if any engine decided.
    pub winner: Option<usize>,
    /// Whether at least one engine supports this bound at all
    /// (a portfolio of only iterative squaring cannot decide bound 3;
    /// deepening loops should *skip* such bounds, not give up).
    pub supported: bool,
}

impl PortfolioBoundOutcome {
    /// The shared verdict of the bound: the winner's result, or the
    /// first entry's `Unknown` when nobody decided.
    pub fn verdict(&self) -> &BmcResult {
        &self.entries[self.winner.unwrap_or(0)].outcome.result
    }

    /// The winning entry, if any engine decided the bound.
    pub fn winning_entry(&self) -> Option<&PortfolioEntry> {
        self.winner.map(|i| &self.entries[i])
    }
}

/// What a [`DeepeningPortfolio::sweep`] has established so far.
///
/// The caller owns it, so it outlives the portfolio: a service retry
/// opens a fresh portfolio and resumes the same progress at
/// [`SweepProgress::next_bound`], keeping everything decided before
/// the failure.
#[derive(Debug, Default)]
pub struct SweepProgress {
    /// First bound the next sweep will look at.
    pub next_bound: usize,
    /// The reachable bound, once found.
    pub bound: Option<usize>,
    /// `(bound, engine)` for every decided bound: the single engine,
    /// or the winner of the bound's race.
    pub winners: Vec<(usize, &'static str)>,
    /// Bounds decided.
    pub checked: usize,
    /// Bounds no engine supports (skipped, not failed).
    pub skipped: usize,
    /// The decided bounds' certificates folded together; a bound that
    /// nobody decided folds every entry's partial certificate.
    pub cert: Option<Certificate>,
    /// Every entry's per-bound stats, absorbed as bounds finish: a
    /// panic can only lose the in-flight bound's effort. This is the
    /// one fold of per-bound stats above the sessions; job reports and
    /// the CLI's `--deepen` print it.
    pub stats: RunStats,
}

impl SweepProgress {
    /// The deepest decided bound, if any.
    pub fn last_decided(&self) -> Option<usize> {
        self.winners.last().map(|(k, _)| *k)
    }
}

/// The verdict of a clean deepening sweep that found nothing: a true
/// `Unreachable` only when no bound was skipped.
fn sweep_verdict(max_bound: usize, skipped: usize) -> BmcResult {
    if skipped > 0 {
        BmcResult::Unknown(format!(
            "unreachable at every supported bound 0..={max_bound}, \
             but {skipped} unsupported bounds were skipped"
        ))
    } else {
        BmcResult::Unreachable
    }
}

/// Checks bound `k` on one session, returning whether the engine
/// supports it. An unsupported bound is skipped, not checked: no
/// effort is burnt on (or accounted for) a bound the technique cannot
/// decide.
fn check_on(session: &mut dyn Session, k: usize) -> (bool, BmcOutcome) {
    if !session.supports_bound(k) {
        let reason = format!("bound {k} unsupported");
        return (false, BmcOutcome::unknown(reason, RunStats::default()));
    }
    (true, session.check_bound(k))
}

/// Portfolio-level deepening: one live session per engine, every bound
/// decided by the first engine to decide it (see the module docs).
///
/// An engine whose session panics in a race is retired for the rest of
/// the run (reported as `Unknown("engine panicked: …")` per bound); the
/// bounds it finished stay in the accounting.
///
/// The caller's [`Budget`] token is only *read*: an external
/// cancellation (or the budget deadline) aborts the current bound
/// promptly, but the portfolio never fires the caller's token.
///
/// ```
/// use sebmc::{Budget, DeepeningPortfolio, Engine, JSat, Semantics, UnrollSat};
/// use sebmc_model::builders::shift_register;
///
/// let model = shift_register(4);
/// let engines: Vec<Box<dyn Engine + Send>> =
///     vec![Box::new(UnrollSat), Box::new(JSat::default())];
/// let mut p = DeepeningPortfolio::start(&model, Semantics::Exactly, engines, Budget::none());
/// for k in 0..4 {
///     assert!(p.check_bound(k).verdict().is_unreachable());
/// }
/// assert!(p.check_bound(4).verdict().is_reachable());
/// ```
pub struct DeepeningPortfolio {
    names: Vec<&'static str>,
    /// One live session per engine, or why it was retired (its start
    /// or an earlier race panicked).
    sessions: Vec<Result<Box<dyn Session>, String>>,
    budget: Budget,
    started: Instant,
}

impl DeepeningPortfolio {
    /// Opens one live session per engine on the caller's thread and
    /// starts the shared budget clock. Several engines race without
    /// [`Budget::proof_out`] (N sessions cannot share one proof file),
    /// and an engine whose start panics is retired, not fatal.
    ///
    /// # Panics
    /// Panics if `engines` is empty, or if the only engine's start
    /// panics.
    pub fn start(
        model: &Model,
        semantics: Semantics,
        engines: Vec<Box<dyn Engine + Send>>,
        budget: Budget,
    ) -> Self {
        assert!(!engines.is_empty(), "a portfolio needs at least one engine");
        let started = Instant::now();
        let sessions: Vec<Result<Box<dyn Session>, String>> = if let [engine] = &engines[..] {
            vec![Ok(engine.start(model, semantics, budget.clone()))]
        } else {
            let racing = Budget {
                proof_out: None,
                ..budget.clone()
            };
            engines
                .iter()
                .map(|engine| {
                    catch_unwind(AssertUnwindSafe(|| {
                        engine.start(model, semantics, racing.clone())
                    }))
                    .map_err(|payload| engine_panic_reason(engine.name(), payload.as_ref()))
                })
                .collect()
        };
        DeepeningPortfolio {
            names: engines.iter().map(|e| e.name()).collect(),
            sessions,
            budget,
            started,
        }
    }

    /// Decides bound `k` on every live session and returns all entries
    /// plus the winner.
    ///
    /// A single engine checks the bound on the caller's thread. Several
    /// engines race it, one thread each, on a fresh child token: the
    /// first decided verdict fires the token, and the losers abort at
    /// their next safe point and *survive* into the next bound. If the
    /// caller's budget expires (deadline or external token) mid-race,
    /// the bound is aborted the same way.
    pub fn check_bound(&mut self, k: usize) -> PortfolioBoundOutcome {
        let (slots, winner) = if let [Ok(session)] = &mut self.sessions[..] {
            let (supported, outcome) = check_on(session.as_mut(), k);
            let winner = (!outcome.result.is_unknown()).then_some(0);
            (vec![(supported, outcome)], winner)
        } else {
            self.race(k)
        };
        let supported = slots.iter().any(|(sup, _)| *sup);
        let entries = slots
            .into_iter()
            .enumerate()
            .map(|(idx, (_, outcome))| PortfolioEntry {
                engine: self.names[idx],
                outcome,
            })
            .collect();
        PortfolioBoundOutcome {
            entries,
            winner,
            supported,
        }
    }

    /// Races bound `k` across the live sessions, one scoped thread
    /// each, returning every engine's `(supported, outcome)` and the
    /// winner.
    fn race(&mut self, k: usize) -> (Vec<(bool, BmcOutcome)>, Option<usize>) {
        // An external cancellation of the caller's token reaches the
        // racers through the tree; the portfolio's own deadline fires
        // this token below.
        let race = CancelToken::child_of(&[&self.budget.cancel]);
        let mut deadline = self.budget.deadline_from(self.started);
        let (tx, rx) = mpsc::channel();
        // A retired engine reports why; every live one replies below.
        let mut slots: Vec<(bool, BmcOutcome)> = self
            .sessions
            .iter()
            .map(|s| {
                let reason = s.as_ref().err().map_or("", String::as_str);
                (false, BmcOutcome::unknown(reason, RunStats::default()))
            })
            .collect();
        let mut winner = None;
        let mut retired = Vec::new();
        thread::scope(|scope| {
            let mut pending = 0;
            for (idx, slot) in self.sessions.iter_mut().enumerate() {
                let Ok(session) = slot else { continue };
                let (tx, race, name) = (tx.clone(), race.clone(), self.names[idx]);
                pending += 1;
                scope.spawn(move || {
                    // A panic anywhere in the session retires the
                    // engine instead of taking the race down.
                    let run = catch_unwind(AssertUnwindSafe(|| {
                        // Re-arm with this bound's child token: a
                        // cancellation here must not outlive the bound.
                        session.set_cancel(race);
                        check_on(session.as_mut(), k)
                    }));
                    let run = run.map_err(|payload| engine_panic_reason(name, payload.as_ref()));
                    let _ = tx.send((idx, run));
                });
            }
            while pending > 0 {
                let reply = match deadline {
                    Some(d) => rx
                        .recv_timeout(d.saturating_duration_since(Instant::now()))
                        .ok(),
                    None => Some(rx.recv().expect("the race keeps a sender")),
                };
                match reply {
                    Some((idx, Ok((supported, outcome)))) => {
                        if winner.is_none() && !outcome.result.is_unknown() {
                            winner = Some(idx);
                            // Decided: this bound's losers can stop.
                            race.cancel();
                        }
                        slots[idx] = (supported, outcome);
                        pending -= 1;
                    }
                    Some((idx, Err(reason))) => {
                        slots[idx].1 = BmcOutcome::unknown(reason.clone(), RunStats::default());
                        retired.push((idx, reason));
                        pending -= 1;
                    }
                    // The shared deadline passed: abort this bound once.
                    None => {
                        race.cancel();
                        deadline = None;
                    }
                }
            }
        });
        for (idx, reason) in retired {
            self.sessions[idx] = Err(reason);
        }
        (slots, winner)
    }

    /// Deepens from `progress.next_bound` through `max_bound`, stopping
    /// at the first reachable bound, a bound nobody decided, or the
    /// budget, and records every bound in `progress`.
    ///
    /// The budget is checked before each bound, so an expired budget
    /// never reaches an engine. Bounds no engine supports are skipped;
    /// a clean sweep with skips is `Unknown`, not `Unreachable`.
    ///
    /// ```
    /// use sebmc::{Budget, DeepeningPortfolio, Engine, Semantics, SweepProgress, UnrollSat};
    /// use sebmc_model::builders::shift_register;
    ///
    /// let model = shift_register(4);
    /// let engines: Vec<Box<dyn Engine + Send>> = vec![Box::new(UnrollSat)];
    /// let mut p = DeepeningPortfolio::start(&model, Semantics::Exactly, engines, Budget::none());
    /// let mut progress = SweepProgress::default();
    /// assert!(p.sweep(&mut progress, 10).is_reachable());
    /// assert_eq!(progress.bound, Some(4));
    /// assert_eq!(progress.stats.bounds_checked, 5); // bounds 0..=4
    /// ```
    pub fn sweep(&mut self, progress: &mut SweepProgress, max_bound: usize) -> BmcResult {
        for k in progress.next_bound..=max_bound {
            if self.budget.expired(self.started) {
                return BmcResult::Unknown(self.budget.unknown_reason());
            }
            let mut out = self.check_bound(k);
            for e in &out.entries {
                progress.stats.absorb(&e.outcome.stats);
            }
            if !out.supported {
                progress.skipped += 1;
                progress.next_bound = k + 1;
                continue;
            }
            let Some(i) = out.winner else {
                for e in &out.entries {
                    Certificate::fold_into(&mut progress.cert, e.outcome.certificate.as_ref());
                }
                // A deadline that expired mid-race reaches the racers
                // as a fired race token, so their entries all say
                // "cancelled": report the budget's own reason instead.
                return if self.budget.expired(self.started) && !self.budget.cancel.is_cancelled() {
                    BmcResult::Unknown(self.budget.unknown_reason())
                } else {
                    out.verdict().clone()
                };
            };
            let win = out.entries.swap_remove(i);
            progress.checked += 1;
            progress.next_bound = k + 1;
            progress.winners.push((k, win.engine));
            Certificate::fold_into(&mut progress.cert, win.outcome.certificate.as_ref());
            if let BmcResult::Reachable(trace) = win.outcome.result {
                progress.bound = Some(k);
                return BmcResult::Reachable(trace);
            }
        }
        sweep_verdict(max_bound, progress.skipped)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jsat::JSat;
    use crate::qbf_enc::{QbfBackend, QbfLinear};
    use crate::squaring::QbfSquaring;
    use crate::unroll::UnrollSat;
    use sebmc_model::builders::{shift_register, token_ring, traffic_light};
    use std::sync::{Arc, Mutex};
    use std::thread::ThreadId;
    use std::time::{Duration, Instant};

    fn start(engines: Vec<Box<dyn Engine + Send>>, budget: Budget) -> DeepeningPortfolio {
        DeepeningPortfolio::start(&token_ring(3), Semantics::Exactly, engines, budget)
    }

    #[test]
    fn portfolio_runs_all_engines_and_agrees() {
        let engines: Vec<Box<dyn Engine + Send>> = vec![
            Box::new(UnrollSat),
            Box::new(JSat::default()),
            Box::new(QbfLinear::new(QbfBackend::Qdpll)),
        ];
        let out = start(engines, Budget::none()).check_bound(2);
        assert_eq!(out.entries.len(), 3);
        for e in &out.entries {
            assert!(
                e.outcome.result.is_reachable() || e.outcome.result.is_unknown(),
                "{} disagrees: {}",
                e.engine,
                e.outcome.result
            );
        }
        let winner = out.winning_entry().expect("someone decides");
        assert!(winner.outcome.result.is_reachable());
    }

    /// A deliberately slow engine: sleeps in short slices, polling the
    /// cancel token, for up to 10 s before answering Unreachable. Its
    /// effort is its running check count, so a test can tell one
    /// surviving session from fresh ones.
    struct SlowEngine;
    struct SlowSession {
        budget: Budget,
        started: Instant,
        total: RunStats,
    }

    impl Engine for SlowEngine {
        fn name(&self) -> &'static str {
            "slow"
        }
        fn start(&self, _model: &Model, _semantics: Semantics, budget: Budget) -> Box<dyn Session> {
            Box::new(SlowSession {
                budget,
                started: Instant::now(),
                total: RunStats::default(),
            })
        }
    }

    impl Session for SlowSession {
        fn name(&self) -> &'static str {
            "slow"
        }
        fn semantics(&self) -> Semantics {
            Semantics::Exactly
        }
        fn check_bound(&mut self, _k: usize) -> BmcOutcome {
            let call_start = Instant::now();
            let deadline = Instant::now() + Duration::from_secs(10);
            let result = loop {
                if Instant::now() >= deadline {
                    break BmcResult::Unreachable;
                }
                if self.budget.expired(self.started) {
                    break BmcResult::Unknown(self.budget.unknown_reason());
                }
                std::thread::sleep(Duration::from_millis(2));
            };
            let stats = RunStats {
                duration: call_start.elapsed(),
                solver_effort: self.total.bounds_checked as u64 + 1,
                bounds_checked: 1,
                ..RunStats::default()
            };
            self.total.absorb(&stats);
            BmcOutcome::new(result, stats)
        }
        fn set_cancel(&mut self, token: CancelToken) {
            self.budget.cancel = token;
        }
        fn cumulative_stats(&self) -> RunStats {
            self.total.clone()
        }
    }

    /// With one fast decider and one 10 s sleeper, a bound must take
    /// roughly the fast engine's time because the winner cancels the
    /// sleeper.
    #[test]
    fn winner_cancels_the_losers() {
        let engines: Vec<Box<dyn Engine + Send>> = vec![Box::new(UnrollSat), Box::new(SlowEngine)];
        let mut p = start(engines, Budget::none());
        let begin = Instant::now();
        let out = p.check_bound(2);
        let elapsed = begin.elapsed();
        assert!(
            elapsed < Duration::from_secs(5),
            "race took {elapsed:?}, cancellation failed"
        );
        assert!(out.entries[0].outcome.result.is_reachable());
        assert_eq!(
            out.entries[1].outcome.result,
            BmcResult::Unknown("cancelled".into())
        );
    }

    /// The sleeper is listed first and gets cancelled by the winner:
    /// the bound's winner and verdict must skip its `Unknown` entry.
    #[test]
    fn first_decided_skips_unknowns() {
        let engines: Vec<Box<dyn Engine + Send>> = vec![Box::new(SlowEngine), Box::new(UnrollSat)];
        let out = start(engines, Budget::none()).check_bound(2);
        assert!(out.entries[0].outcome.result.is_unknown());
        assert_eq!(out.winner, Some(1));
        let w = out.winning_entry().expect("unroll decides");
        assert_eq!(w.engine, "sat-unroll");
        assert!(out.verdict().is_reachable());
    }

    /// A cancelled loser's effort must stay visible: its partial stats
    /// ride along in its entry and in the sweep's total.
    #[test]
    fn cancelled_losers_keep_their_partial_stats() {
        let engines: Vec<Box<dyn Engine + Send>> = vec![Box::new(UnrollSat), Box::new(SlowEngine)];
        let mut p = start(engines, Budget::none());
        let out = p.check_bound(2);
        let loser = &out.entries[1];
        assert!(loser.outcome.result.is_unknown());
        assert!(
            loser.outcome.stats.duration > Duration::ZERO,
            "the loser's burnt wall-clock must be accounted"
        );
        assert_eq!(loser.outcome.stats.bounds_checked, 1);
        let mut progress = SweepProgress {
            next_bound: 2,
            ..SweepProgress::default()
        };
        assert!(p.sweep(&mut progress, 2).is_reachable());
        let total = progress.stats;
        assert!(total.duration > Duration::ZERO);
        assert_eq!(total.bounds_checked, 2, "both engines' checks counted");
    }

    /// A race runs on a child token: the caller's budget (and its
    /// clones) stay un-fired and reusable after decided sweeps.
    #[test]
    fn portfolio_does_not_poison_the_callers_budget() {
        let budget = Budget::none();
        for round in 0..2 {
            let engines: Vec<Box<dyn Engine + Send>> =
                vec![Box::new(UnrollSat), Box::new(JSat::default())];
            let mut p = start(engines, budget.clone());
            let verdict = p.sweep(&mut SweepProgress::default(), 4);
            assert!(verdict.is_reachable(), "round {round}: {verdict}");
            assert!(
                !budget.cancel.is_cancelled(),
                "round {round}: the caller's token must never be fired by the portfolio"
            );
        }
    }

    /// Firing the caller's token externally must still stop the whole
    /// portfolio (the race token is its child).
    #[test]
    fn external_cancellation_stops_the_portfolio() {
        let budget = Budget::none();
        let token = budget.cancel_token();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        });
        let engines: Vec<Box<dyn Engine + Send>> = vec![Box::new(SlowEngine), Box::new(SlowEngine)];
        let mut p = start(engines, budget);
        let begin = Instant::now();
        let mut progress = SweepProgress::default();
        let verdict = p.sweep(&mut progress, 5);
        let elapsed = begin.elapsed();
        canceller.join().unwrap();
        assert!(
            elapsed < Duration::from_secs(5),
            "external cancel took {elapsed:?} to stop the portfolio"
        );
        assert_eq!(verdict, BmcResult::Unknown("cancelled".into()));
        assert_eq!(progress.checked, 0);
    }

    /// An engine whose start panics.
    struct PanicEngine;
    impl Engine for PanicEngine {
        fn name(&self) -> &'static str {
            "panicker"
        }
        fn start(
            &self,
            _model: &Model,
            _semantics: Semantics,
            _budget: Budget,
        ) -> Box<dyn Session> {
            panic!("intentional test panic");
        }
    }

    /// A racer's panic surfaces as an attributable Unknown, not a crash.
    #[test]
    fn engine_panic_is_contained() {
        let engines: Vec<Box<dyn Engine + Send>> = vec![Box::new(PanicEngine), Box::new(UnrollSat)];
        let out = start(engines, Budget::none()).check_bound(2);
        match &out.entries[0].outcome.result {
            BmcResult::Unknown(reason) => {
                assert!(
                    reason.starts_with("engine panicked:"),
                    "unexpected reason: {reason}"
                );
                // Attributable from JSON output: the reason names the
                // engine, not just the payload.
                assert!(reason.contains("panicker"), "no engine name in: {reason}");
                assert!(reason.contains("intentional test panic"));
            }
            other => panic!("expected Unknown, got {other}"),
        }
        assert!(out.entries[1].outcome.result.is_reachable());
        assert_eq!(
            out.winning_entry().expect("unroll still decides").engine,
            "sat-unroll"
        );
    }

    #[test]
    fn panic_payload_is_truncated_for_reports() {
        let long = "x".repeat(500);
        let reason = engine_panic_reason("jsat", &long as &(dyn std::any::Any + Send));
        assert!(reason.starts_with("engine panicked: jsat: "));
        assert!(
            reason.len() < 160,
            "payload not truncated: {}",
            reason.len()
        );
        assert!(reason.ends_with('…'));
    }

    #[test]
    fn deepening_portfolio_shares_verdicts_per_bound() {
        let m = token_ring(4); // first reachable at bound 3
        let engines: Vec<Box<dyn Engine + Send>> =
            vec![Box::new(UnrollSat), Box::new(JSat::default())];
        let mut p = DeepeningPortfolio::start(&m, Semantics::Exactly, engines, Budget::none());
        let mut checked = 0;
        for k in 0..3 {
            let out = p.check_bound(k);
            checked += out
                .entries
                .iter()
                .map(|e| e.outcome.stats.bounds_checked)
                .sum::<usize>();
            assert!(out.supported);
            assert!(
                out.verdict().is_unreachable(),
                "bound {k}: {}",
                out.verdict()
            );
        }
        let out = p.check_bound(3);
        checked += out
            .entries
            .iter()
            .map(|e| e.outcome.stats.bounds_checked)
            .sum::<usize>();
        assert!(out.verdict().is_reachable());
        let w = out.winning_entry().expect("someone wins");
        assert!(!w.engine.is_empty());
        assert!(checked >= 4, "all racing effort accounted");
    }

    /// The heart of per-bound racing: a loser cancelled at bound k must
    /// survive — solver state intact — and race again at bound k+1.
    #[test]
    fn cancelled_loser_survives_into_the_next_bound() {
        let engines: Vec<Box<dyn Engine + Send>> = vec![Box::new(UnrollSat), Box::new(SlowEngine)];
        let mut p = start(engines, Budget::none());
        let mut slow_effort = 0;
        for k in [2usize, 2, 2] {
            let begin = Instant::now();
            let out = p.check_bound(k);
            assert!(
                begin.elapsed() < Duration::from_secs(5),
                "per-bound race did not cancel the sleeper"
            );
            assert!(out.verdict().is_reachable());
            // The sleeper was cancelled *this bound* but its session is
            // still alive and replying (not a dead worker).
            assert_eq!(
                out.entries[1].outcome.result,
                BmcResult::Unknown("cancelled".into())
            );
            assert_eq!(out.entries[1].engine, "slow");
            slow_effort = out.entries[1].outcome.stats.solver_effort;
        }
        // Three races -> the slow session accumulated three checks.
        assert_eq!(slow_effort, 3);
    }

    #[test]
    fn deepening_portfolio_reports_unsupported_bounds() {
        let m = token_ring(3);
        let engines: Vec<Box<dyn Engine + Send>> =
            vec![Box::new(QbfSquaring::new(QbfBackend::Expansion))];
        let mut p = DeepeningPortfolio::start(&m, Semantics::Within, engines, Budget::none());
        let out = p.check_bound(3); // not a power of two
        assert!(!out.supported);
        assert!(out.verdict().is_unknown());
        let out = p.check_bound(4);
        assert!(out.supported);
    }

    #[test]
    fn deepening_portfolio_contains_session_panics() {
        // The first engine call of the race panics, in whichever racer
        // makes it; that racer is retired and the other one decides.
        let budget = Budget {
            fault: "panic@engine:1".parse().expect("fault plan"),
            ..Budget::default()
        };
        let engines: Vec<Box<dyn Engine + Send>> =
            vec![Box::new(JSat::default()), Box::new(UnrollSat)];
        let mut p = start(engines, budget);
        let mut retired = None;
        for _ in 0..2 {
            let out = p.check_bound(2);
            assert!(out.verdict().is_reachable(), "the survivor still decides");
            let panicked: Vec<&str> = out
                .entries
                .iter()
                .filter(|e| matches!(&e.outcome.result, BmcResult::Unknown(r) if r.starts_with("engine panicked:")))
                .map(|e| e.engine)
                .collect();
            assert_eq!(panicked.len(), 1, "{:?}", out.entries);
            assert_eq!(
                *retired.get_or_insert(panicked[0]),
                panicked[0],
                "retired for good"
            );
        }
    }

    #[test]
    fn deepening_portfolio_external_cancel_aborts_the_bound() {
        let budget = Budget::none();
        let token = budget.cancel_token();
        let engines: Vec<Box<dyn Engine + Send>> = vec![Box::new(SlowEngine), Box::new(SlowEngine)];
        let mut p = start(engines, budget);
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            token.cancel();
        });
        let begin = Instant::now();
        let out = p.check_bound(2);
        canceller.join().unwrap();
        assert!(
            begin.elapsed() < Duration::from_secs(5),
            "external cancel did not abort the raced bound"
        );
        assert!(out.verdict().is_unknown());
    }

    // ---- sweep ----

    /// Sweeps one engine over `model` from bound 0.
    fn sweep_one(
        engine: Box<dyn Engine + Send>,
        model: &Model,
        max_bound: usize,
        budget: Budget,
    ) -> (BmcResult, SweepProgress) {
        let mut p = DeepeningPortfolio::start(model, Semantics::Exactly, vec![engine], budget);
        let mut progress = SweepProgress::default();
        let verdict = p.sweep(&mut progress, max_bound);
        (verdict, progress)
    }

    #[test]
    fn finds_minimal_bound_with_unroll() {
        let (verdict, progress) =
            sweep_one(Box::new(UnrollSat), &shift_register(4), 10, Budget::none());
        assert!(verdict.is_reachable());
        assert_eq!(progress.bound, Some(4));
        assert_eq!(progress.checked, 5, "bounds 0..=4");
    }

    #[test]
    fn finds_minimal_bound_with_jsat() {
        let (verdict, progress) = sweep_one(
            Box::new(JSat::default()),
            &shift_register(4),
            10,
            Budget::none(),
        );
        assert_eq!(verdict.witness().expect("jsat gives witnesses").len(), 4);
        assert_eq!(progress.bound, Some(4));
        assert_eq!(progress.stats.bounds_checked, 5);
    }

    #[test]
    fn exhausts_bounds_on_unsat_instance() {
        let (verdict, progress) =
            sweep_one(Box::new(UnrollSat), &traffic_light(), 6, Budget::none());
        assert_eq!(verdict, BmcResult::Unreachable);
        assert_eq!(progress.bound, None);
        assert_eq!(progress.checked, 7);
        assert_eq!(progress.next_bound, 7);
    }

    /// An expired budget stops the sweep before any engine call.
    #[test]
    fn global_timeout_stops_early() {
        let (verdict, progress) = sweep_one(
            Box::new(UnrollSat),
            &traffic_light(),
            1000,
            Budget::with_timeout(Duration::ZERO),
        );
        assert_eq!(verdict, BmcResult::Unknown("budget exhausted".into()));
        assert_eq!(progress.stats.bounds_checked, 0);
    }

    #[test]
    fn cancellation_stops_the_loop() {
        let budget = Budget::none();
        budget.cancel.cancel();
        let (verdict, progress) =
            sweep_one(Box::new(JSat::default()), &traffic_light(), 1000, budget);
        assert_eq!(verdict, BmcResult::Unknown("cancelled".into()));
        assert_eq!(progress.checked, 0);
    }

    /// An engine whose sessions record, per bound, the bound and the
    /// thread that checked it.
    struct RecordingEngine(Arc<Mutex<Vec<(usize, ThreadId)>>>);
    struct RecordingSession(Arc<Mutex<Vec<(usize, ThreadId)>>>);

    impl Engine for RecordingEngine {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn start(
            &self,
            _model: &Model,
            _semantics: Semantics,
            _budget: Budget,
        ) -> Box<dyn Session> {
            Box::new(RecordingSession(Arc::clone(&self.0)))
        }
    }

    impl Session for RecordingSession {
        fn name(&self) -> &'static str {
            "recorder"
        }
        fn semantics(&self) -> Semantics {
            Semantics::Exactly
        }
        fn check_bound(&mut self, k: usize) -> BmcOutcome {
            self.0
                .lock()
                .unwrap()
                .push((k, std::thread::current().id()));
            BmcOutcome::new(BmcResult::Unreachable, RunStats::default())
        }
        fn set_cancel(&mut self, _token: CancelToken) {}
        fn cumulative_stats(&self) -> RunStats {
            RunStats::default()
        }
    }

    /// A retry resumes where the previous sweep stopped: bounds below
    /// `next_bound` are not re-checked and their winners are kept.
    #[test]
    fn sweep_resumes_at_next_bound_and_keeps_earlier_winners() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let engine = RecordingEngine(Arc::clone(&log));
        let mut p = start(vec![Box::new(engine)], Budget::none());
        let mut progress = SweepProgress {
            next_bound: 2,
            winners: vec![(0, "earlier"), (1, "earlier")],
            checked: 2,
            ..SweepProgress::default()
        };
        assert_eq!(p.sweep(&mut progress, 4), BmcResult::Unreachable);
        let bounds: Vec<usize> = log.lock().unwrap().iter().map(|(k, _)| *k).collect();
        assert_eq!(bounds, vec![2, 3, 4]);
        assert_eq!(
            progress.winners,
            vec![
                (0, "earlier"),
                (1, "earlier"),
                (2, "recorder"),
                (3, "recorder"),
                (4, "recorder")
            ]
        );
        assert_eq!((progress.checked, progress.next_bound), (5, 5));
    }

    #[test]
    fn sweep_skips_unsupported_bounds() {
        let (verdict, progress) = sweep_one(
            Box::new(QbfSquaring::new(QbfBackend::Expansion)),
            &traffic_light(),
            5,
            Budget::none(),
        );
        // Bounds 0, 1, 2 and 4 are decided; 3 and 5 are not powers of two.
        assert_eq!((progress.checked, progress.skipped), (4, 2));
        assert_eq!(
            verdict,
            BmcResult::Unknown(
                "unreachable at every supported bound 0..=5, \
                 but 2 unsupported bounds were skipped"
                    .into()
            )
        );
    }

    #[test]
    fn one_engine_runs_on_the_callers_thread() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let engine = RecordingEngine(Arc::clone(&log));
        let mut p = start(vec![Box::new(engine)], Budget::none());
        p.sweep(&mut SweepProgress::default(), 2);
        let here = std::thread::current().id();
        let log = log.lock().unwrap();
        assert_eq!(log.len(), 3);
        assert!(log.iter().all(|(_, id)| *id == here), "{log:?}");
    }

    /// One engine gets no panic containment: the panic is the caller's.
    #[test]
    fn one_engine_panic_unwinds_into_the_caller() {
        let budget = Budget {
            fault: "panic@engine:2".parse().expect("fault plan"),
            ..Budget::default()
        };
        let mut p = start(vec![Box::new(UnrollSat)], budget);
        let mut progress = SweepProgress::default();
        let run = catch_unwind(AssertUnwindSafe(|| p.sweep(&mut progress, 5)));
        assert!(run.is_err(), "the injected panic must reach the caller");
        assert_eq!(progress.checked, 1, "bound 0 was decided before the panic");
    }
}
