//! The common interface of all bounded-reachability engines.
//!
//! The central abstraction is the **session**: [`Engine::start`] binds
//! an engine to one model/semantics/[`Budget`] and returns a
//! [`Session`] whose [`Session::check_bound`] may be called for a
//! *sequence* of bounds. Engines keep their solver and encoding state
//! alive between calls — incremental unrolling keeps its CDCL solver
//! and learnt clauses, jSAT keeps formula (4) and its failed-state
//! cache, the QBF engines keep their (self-loop-transformed) model —
//! which is what makes the paper's bound-deepening loop cheap.
//!
//! ```
//! use sebmc::{Budget, Engine, Semantics, UnrollSat};
//! use sebmc_model::builders::shift_register;
//!
//! let model = shift_register(4);
//! let engine = UnrollSat;
//! let mut session = engine.start(&model, Semantics::Exactly, Budget::none());
//! // Deepen: every bound reuses the clauses (and learnt clauses) of
//! // the previous ones.
//! for k in 0..4 {
//!     assert!(session.check_bound(k).result.is_unreachable());
//! }
//! assert!(session.check_bound(4).result.is_reachable());
//! let total = session.cumulative_stats();
//! assert!(total.bounds_checked == 5 && total.encode_lits > 0);
//! ```

use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sebmc_logic::json::{obj, Json};
use sebmc_model::{Model, Trace};
use sebmc_proof::Certificate;

/// Which bounded-reachability question to decide.
///
/// The paper's formulations check reachability in *exactly* `k` steps;
/// the self-loop transformation (end of §2) turns this into *within*
/// `k` steps. Both are first-class here.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Semantics {
    /// Is a target state reachable in exactly `k` steps?
    Exactly,
    /// Is a target state reachable in at most `k` steps?
    Within,
}

impl fmt::Display for Semantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Semantics::Exactly => write!(f, "exactly"),
            Semantics::Within => write!(f, "within"),
        }
    }
}

/// Verdict of a bounded check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BmcResult {
    /// A target state is reachable; engines that construct concrete
    /// paths attach a witness (QBF back-ends cannot).
    Reachable(Option<Trace>),
    /// No target state is reachable under the given bound/semantics.
    Unreachable,
    /// The engine gave up (budget exhausted, cancelled, or unsupported
    /// bound); the string says why.
    Unknown(String),
}

impl BmcResult {
    /// `true` for [`BmcResult::Reachable`].
    pub fn is_reachable(&self) -> bool {
        matches!(self, BmcResult::Reachable(_))
    }

    /// `true` for [`BmcResult::Unreachable`].
    pub fn is_unreachable(&self) -> bool {
        matches!(self, BmcResult::Unreachable)
    }

    /// `true` for [`BmcResult::Unknown`].
    pub fn is_unknown(&self) -> bool {
        matches!(self, BmcResult::Unknown(_))
    }

    /// The witness trace, if one was produced.
    pub fn witness(&self) -> Option<&Trace> {
        match self {
            BmcResult::Reachable(t) => t.as_ref(),
            _ => None,
        }
    }

    /// Whether two verdicts agree (Unknown is compatible with anything).
    pub fn agrees_with(&self, other: &BmcResult) -> bool {
        !matches!(
            (self, other),
            (BmcResult::Reachable(_), BmcResult::Unreachable)
                | (BmcResult::Unreachable, BmcResult::Reachable(_))
        )
    }
}

impl fmt::Display for BmcResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BmcResult::Reachable(Some(t)) => write!(f, "reachable ({} steps)", t.len()),
            BmcResult::Reachable(None) => write!(f, "reachable"),
            BmcResult::Unreachable => write!(f, "unreachable"),
            BmcResult::Unknown(why) => write!(f, "unknown: {why}"),
        }
    }
}

/// A cooperative cancellation token shared between a session and
/// whoever wants to abort it (a portfolio harness, a service layer, a
/// ctrl-C handler).
///
/// Clones share the underlying flag. Engines poll the token at their
/// safe points — the SAT solver every 64 conflicts, the QDPLL solver
/// per decision, jSAT between incremental SAT calls — and return
/// [`BmcResult::Unknown`] ("cancelled") promptly after it fires.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Fires the token. All clones observe the cancellation; firing is
    /// idempotent and cannot be undone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Whether the token has fired.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Relaxed)
    }

    /// The raw shared flag, for plumbing into solver-level limit
    /// structs ([`sebmc_sat::Limits::cancel`],
    /// [`sebmc_qbf::QbfLimits::cancel`]).
    pub fn flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.flag)
    }
}

/// Unified resource budget for a whole session — the reproduction of
/// the paper's per-instance 300 s / 1 GB protocol, plus cooperative
/// cancellation.
///
/// The wall clock starts when [`Engine::start`] creates the session;
/// every later [`Session::check_bound`] call shares the same deadline.
/// The memory cap is **byte-based** and compared against the exact
/// clause-arena accounting of the SAT solver (headers included) — not
/// a literal-count approximation.
///
/// `Clone` shares the [`CancelToken`]: cloning a budget for several
/// portfolio engines lets one `cancel()` stop them all.
#[derive(Clone, Debug)]
pub struct Budget {
    /// Wall-clock budget for the whole session.
    pub timeout: Option<Duration>,
    /// Memory budget in bytes, applied to the dominant in-memory
    /// formula (the SAT clause arena's live bytes, or the QBF matrix at
    /// 4 bytes per literal).
    pub max_formula_bytes: Option<usize>,
    /// Certify verdicts: SAT-backed engines stream a binary-DRAT proof
    /// through the bounded on-the-fly checker and attach a
    /// [`Certificate`] to every decided bound (Unsat bounds are
    /// proof-checked, Sat bounds replayed through the model
    /// simulator). Engines without proof support (the QBF back-ends)
    /// attach nothing.
    pub certify: bool,
    /// Cooperative cancellation; fires for every clone of this budget.
    pub cancel: CancelToken,
    /// Stream the binary-DRAT proof of every Unsat bound to this file
    /// in addition to (or instead of) checking it on the fly. The file
    /// is created lazily by the first SAT-backed session; QBF engines
    /// ignore it.
    pub proof_out: Option<std::path::PathBuf>,
    /// Fault-injection plan, threaded down to the solver's safe points
    /// and consulted at engine `check_bound` entry. Inert by default.
    pub fault: sebmc_logic::fault::FaultPlan,
    /// Apply static model reduction (cone-of-influence, constant-latch
    /// sweeping, unused-input elimination) before the engine encodes
    /// anything, lifting any witness back to the original model. On by
    /// default; `--no-reduce` turns it off.
    pub reduce: bool,
    /// Progress sink, threaded down to the SAT solver's safe points
    /// and notified at engine `check_bound` entry. Inert by default —
    /// same one-branch contract as the proof hooks.
    pub progress: sebmc_telemetry::ProgressHandle,
}

impl Default for Budget {
    fn default() -> Self {
        Budget {
            timeout: None,
            max_formula_bytes: None,
            certify: false,
            cancel: CancelToken::default(),
            proof_out: None,
            fault: sebmc_logic::fault::FaultPlan::default(),
            reduce: true,
            progress: sebmc_telemetry::ProgressHandle::default(),
        }
    }
}

impl Budget {
    /// No limits (and a fresh, un-fired token).
    pub fn none() -> Self {
        Budget::default()
    }

    /// A budget with only a timeout.
    pub fn with_timeout(timeout: Duration) -> Self {
        Budget {
            timeout: Some(timeout),
            ..Budget::default()
        }
    }

    /// A budget with only a byte-based memory cap.
    pub fn with_memory_bytes(bytes: usize) -> Self {
        Budget {
            max_formula_bytes: Some(bytes),
            ..Budget::default()
        }
    }

    /// Returns `self` with its cancel token replaced by `token` (used
    /// to tie several budgets to one external kill switch).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// Returns `self` with verdict certification switched on or off.
    pub fn with_certify(mut self, certify: bool) -> Self {
        self.certify = certify;
        self
    }

    /// A clone of the session's cancel token.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The wall-clock deadline implied by [`Budget::timeout`], measured
    /// from `start`.
    pub fn deadline_from(&self, start: Instant) -> Option<Instant> {
        self.timeout.map(|t| start + t)
    }

    /// `true` once the deadline (measured from `start`) has passed or
    /// the token has fired.
    pub fn expired(&self, start: Instant) -> bool {
        self.cancel.is_cancelled()
            || self
                .deadline_from(start)
                .is_some_and(|d| Instant::now() >= d)
    }

    /// The canonical [`BmcResult::Unknown`] reason under this budget:
    /// `"cancelled"` if the token fired, `"budget exhausted"` otherwise.
    pub fn unknown_reason(&self) -> String {
        if self.cancel.is_cancelled() {
            "cancelled".into()
        } else {
            "budget exhausted".into()
        }
    }

    /// This budget lowered onto the SAT solver's per-solve limits, with
    /// the deadline measured from `start` and the memory cap applied to
    /// the arena's exact live bytes.
    pub fn sat_limits(&self, start: Instant) -> sebmc_sat::Limits {
        sebmc_sat::Limits {
            deadline: self.deadline_from(start),
            max_live_bytes: self.max_formula_bytes,
            cancel: Some(self.cancel.flag()),
            fault: self.fault.clone(),
            progress: self.progress.clone(),
            ..sebmc_sat::Limits::none()
        }
    }

    /// The proof sink implied by this budget, if any: the on-the-fly
    /// checker for `certify`, a [`sebmc_proof::DratWriter`] on
    /// [`Budget::proof_out`] for disk export, or a tee of both. Returns
    /// `None` (and leaves the solver sink-free) when neither is asked
    /// for, or when the export file cannot be created — a budget is not
    /// the place to fail a run over an unwritable path, so export
    /// errors degrade to "no file" while certification still runs.
    pub fn proof_sink(&self) -> Option<Box<dyn sebmc_proof::ProofSink>> {
        let writer: Option<Box<dyn sebmc_proof::ProofSink>> =
            self.proof_out.as_ref().and_then(|path| {
                let file = std::fs::File::create(path).ok()?;
                Some(
                    Box::new(sebmc_proof::DratWriter::standard(std::io::BufWriter::new(
                        file,
                    ))) as Box<dyn sebmc_proof::ProofSink>,
                )
            });
        match (self.certify, writer) {
            (true, Some(w)) => Some(Box::new(sebmc_proof::TeeSink::new(
                Box::new(sebmc_proof::StreamingChecker::new()),
                w,
            ))),
            (true, None) => Some(Box::new(sebmc_proof::StreamingChecker::new())),
            (false, Some(w)) => Some(w),
            (false, None) => None,
        }
    }

    /// Records a fault-injection safe-point hit at engine level,
    /// steering injected cancellations onto this budget's token.
    pub fn fault_hit_engine(&self) -> sebmc_logic::fault::FaultVerdict {
        if self.fault.is_none() {
            return sebmc_logic::fault::FaultVerdict::None;
        }
        let flag = self.cancel.flag();
        self.fault
            .hit(sebmc_logic::fault::FaultSite::Engine, Some(&*flag))
    }

    /// This budget lowered onto the QBF solvers' limits.
    pub fn qbf_limits(&self, start: Instant) -> sebmc_qbf::QbfLimits {
        sebmc_qbf::QbfLimits {
            deadline: self.deadline_from(start),
            max_decisions: None,
            cancel: Some(self.cancel.flag()),
        }
    }
}

/// Size and effort metrics for one engine run — the raw material of
/// the experiment tables (E1–E5, indexed in the `sebmc-bench` crate
/// docs, `crates/bench/src/lib.rs`).
///
/// For a [`Session`], the per-bound [`BmcOutcome::stats`] describe one
/// `check_bound` call while [`Session::cumulative_stats`] aggregates
/// across the whole session via [`RunStats::absorb`].
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Wall-clock time spent.
    pub duration: Duration,
    /// Variables in the encoded formula (0 if the engine does not build
    /// a monolithic formula).
    pub encode_vars: usize,
    /// Clauses in the encoded formula.
    pub encode_clauses: usize,
    /// Literals in the encoded formula — the paper's formula-size
    /// measure (E2).
    pub encode_lits: usize,
    /// Peak live literals held by the engine's solver(s) — the memory
    /// proxy of experiment E4.
    pub peak_formula_lits: usize,
    /// Peak clause-database size in bytes. For SAT-backed engines this
    /// is the solver arena's exact figure (headers included); QBF
    /// engines report `peak_formula_lits × 4` since their matrices are
    /// plain literal arrays.
    pub peak_formula_bytes: usize,
    /// Peak bytes held by the solver's *access structures* — the flat
    /// watch-list storage plus its per-literal range table — reported
    /// alongside `peak_formula_bytes` so the paper's memory accounting
    /// covers the whole clause database, not just the clauses. 0 for
    /// QBF engines (their matrices carry no watch structures).
    pub peak_watch_bytes: usize,
    /// Exact bytes of binary-DRAT proof stream emitted so far (0
    /// unless [`Budget::certify`] is on and the engine logs proofs).
    /// The stream only grows, so absorbing by maximum yields the
    /// session's total stream size.
    pub peak_proof_bytes: usize,
    /// Latches swept as constants by static reduction (0 when
    /// reduction is off or found nothing).
    pub latches_swept: usize,
    /// Latches kept in the cone of influence after static reduction
    /// (0 when reduction did not run or changed nothing).
    pub coi_latches: usize,
    /// Free inputs removed as unused by static reduction.
    pub inputs_removed: usize,
    /// Back-end solver conflicts (SAT) or decisions (QBF).
    pub solver_effort: u64,
    /// `check_bound` calls folded into this record (1 for a one-shot
    /// outcome; the session total in
    /// [`Session::cumulative_stats`]).
    pub bounds_checked: usize,
}

impl RunStats {
    /// Folds the stats of one more bounded check into a cumulative
    /// record: durations and solver effort add up, formula sizes and
    /// peaks take the maximum.
    pub fn absorb(&mut self, other: &RunStats) {
        self.duration += other.duration;
        self.encode_vars = self.encode_vars.max(other.encode_vars);
        self.encode_clauses = self.encode_clauses.max(other.encode_clauses);
        self.encode_lits = self.encode_lits.max(other.encode_lits);
        self.peak_formula_lits = self.peak_formula_lits.max(other.peak_formula_lits);
        self.peak_formula_bytes = self.peak_formula_bytes.max(other.peak_formula_bytes);
        self.peak_watch_bytes = self.peak_watch_bytes.max(other.peak_watch_bytes);
        self.peak_proof_bytes = self.peak_proof_bytes.max(other.peak_proof_bytes);
        self.latches_swept = self.latches_swept.max(other.latches_swept);
        self.coi_latches = self.coi_latches.max(other.coi_latches);
        self.inputs_removed = self.inputs_removed.max(other.inputs_removed);
        self.solver_effort += other.solver_effort;
        self.bounds_checked += other.bounds_checked;
    }

    /// The stats as one JSON object: the `stats` of the CLI's `--json`
    /// and of every job report.
    pub fn to_json(&self) -> Json {
        obj(vec![
            ("duration_ms", self.duration.as_millis().into()),
            ("encode_vars", self.encode_vars.into()),
            ("encode_clauses", self.encode_clauses.into()),
            ("encode_lits", self.encode_lits.into()),
            ("peak_formula_lits", self.peak_formula_lits.into()),
            ("peak_formula_bytes", self.peak_formula_bytes.into()),
            ("peak_watch_bytes", self.peak_watch_bytes.into()),
            ("peak_proof_bytes", self.peak_proof_bytes.into()),
            ("latches_swept", self.latches_swept.into()),
            ("coi_latches", self.coi_latches.into()),
            ("inputs_removed", self.inputs_removed.into()),
            ("solver_effort", self.solver_effort.into()),
            ("bounds_checked", self.bounds_checked.into()),
        ])
    }
}

/// Outcome of a bounded check: verdict plus metrics, plus — under
/// [`Budget::certify`] — the machine-check summary backing the
/// verdict.
#[derive(Clone, Debug)]
pub struct BmcOutcome {
    /// The verdict.
    pub result: BmcResult,
    /// Metrics of the run.
    pub stats: RunStats,
    /// Certification summary for this bound: present when the session
    /// ran under [`Budget::certify`] and the engine supports proof
    /// logging. [`Certificate::fully_certified`] says whether the
    /// verdict is actually covered.
    pub certificate: Option<Certificate>,
}

impl BmcOutcome {
    /// An outcome with no certificate attached.
    pub fn new(result: BmcResult, stats: RunStats) -> Self {
        BmcOutcome {
            result,
            stats,
            certificate: None,
        }
    }

    /// Convenience constructor for unknown verdicts.
    pub fn unknown(reason: impl Into<String>, stats: RunStats) -> Self {
        BmcOutcome::new(BmcResult::Unknown(reason.into()), stats)
    }
}

/// A bounded-reachability decision procedure, viewed as a session
/// factory.
///
/// Implementations: [`UnrollSat`](crate::UnrollSat) (formulation (1),
/// incrementally unrolled), [`QbfLinear`](crate::QbfLinear)
/// (formulation (2) via a general-purpose QBF solver),
/// [`QbfSquaring`](crate::QbfSquaring) (formulation (3)), and
/// [`JSat`](crate::JSat) (the paper's special-purpose procedure,
/// formula (4)).
///
/// See the [module docs](crate::engine) for a deepening example.
pub trait Engine {
    /// Short engine name for tables.
    fn name(&self) -> &'static str;

    /// Opens a session on `model` under `semantics` and `budget`. The
    /// budget's wall clock starts now and covers every subsequent
    /// [`Session::check_bound`] call.
    fn start(&self, model: &Model, semantics: Semantics, budget: Budget) -> Box<dyn Session>;
}

/// An open bounded-model-checking session: engine state bound to one
/// model, semantics and [`Budget`].
///
/// Bounds may be checked in any order; engines reuse whatever state
/// survives between bounds (clauses, learnt clauses, caches). All
/// sessions are `Send` so a portfolio can drive them from worker
/// threads.
pub trait Session: Send {
    /// Name of the engine that opened the session.
    fn name(&self) -> &'static str;

    /// The semantics the session was opened with.
    fn semantics(&self) -> Semantics;

    /// Decides reachability at bound `k`, reusing session state. The
    /// returned stats describe this call only.
    fn check_bound(&mut self, k: usize) -> BmcOutcome;

    /// Whether the engine's technique can decide this bound at all
    /// (iterative squaring checks only powers of two). `check_bound`
    /// on an unsupported bound returns [`BmcResult::Unknown`];
    /// deepening loops should skip it rather than give up.
    fn supports_bound(&self, _k: usize) -> bool {
        true
    }

    /// Replaces the session's [`CancelToken`] for all *subsequent*
    /// `check_bound` calls, leaving the rest of the budget (deadline,
    /// byte cap) untouched.
    ///
    /// A fired token can never be un-fired, so a harness that wants to
    /// abort *one* bounded check without killing the whole session must
    /// arm a fresh child token before each call — this is what makes
    /// **portfolio-level deepening** possible: the per-bound race token
    /// cancels this bound's losers, and the next bound re-arms every
    /// session with a new token, solver state intact.
    fn set_cancel(&mut self, token: CancelToken);

    /// Aggregate stats across every `check_bound` call so far:
    /// durations and solver effort summed, formula sizes and memory
    /// peaks maxed.
    fn cumulative_stats(&self) -> RunStats;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_predicates() {
        let r = BmcResult::Reachable(None);
        assert!(r.is_reachable() && !r.is_unreachable() && !r.is_unknown());
        assert!(r.witness().is_none());
        let u = BmcResult::Unreachable;
        assert!(u.is_unreachable());
        let q = BmcResult::Unknown("budget".into());
        assert!(q.is_unknown());
    }

    #[test]
    fn agreement_matrix() {
        let r = BmcResult::Reachable(None);
        let u = BmcResult::Unreachable;
        let q = BmcResult::Unknown("x".into());
        assert!(!r.agrees_with(&u));
        assert!(!u.agrees_with(&r));
        assert!(r.agrees_with(&r));
        assert!(u.agrees_with(&u));
        assert!(q.agrees_with(&r) && q.agrees_with(&u) && r.agrees_with(&q));
    }

    #[test]
    fn display_forms() {
        assert_eq!(BmcResult::Unreachable.to_string(), "unreachable");
        assert_eq!(
            BmcResult::Unknown("timeout".into()).to_string(),
            "unknown: timeout"
        );
        assert_eq!(Semantics::Exactly.to_string(), "exactly");
        assert_eq!(Semantics::Within.to_string(), "within");
    }

    #[test]
    fn deadline_computation() {
        let b = Budget::with_timeout(Duration::from_secs(1));
        let now = Instant::now();
        let d = b.deadline_from(now).unwrap();
        assert!(d > now);
        assert!(Budget::none().deadline_from(now).is_none());
    }

    #[test]
    fn cancel_token_is_shared_across_clones() {
        let b = Budget::none();
        let clone = b.clone();
        assert!(!clone.cancel.is_cancelled());
        b.cancel.cancel();
        assert!(clone.cancel.is_cancelled());
        assert!(clone.expired(Instant::now()));
        assert_eq!(clone.unknown_reason(), "cancelled");
        // A *fresh* budget has its own flag.
        assert!(!Budget::none().cancel.is_cancelled());
    }

    #[test]
    fn budget_lowers_onto_solver_limits() {
        let b = Budget {
            timeout: Some(Duration::from_secs(1)),
            max_formula_bytes: Some(4096),
            certify: false,
            cancel: CancelToken::new(),
            ..Budget::default()
        };
        let now = Instant::now();
        let sl = b.sat_limits(now);
        assert!(sl.deadline.is_some());
        assert_eq!(sl.max_live_bytes, Some(4096));
        assert!(sl.cancel.is_some());
        let ql = b.qbf_limits(now);
        assert!(ql.deadline.is_some() && ql.cancel.is_some());
        b.cancel.cancel();
        assert!(sl
            .cancel
            .unwrap()
            .load(std::sync::atomic::Ordering::Relaxed));
    }

    #[test]
    fn stats_absorb_sums_and_maxes() {
        let mut total = RunStats::default();
        total.absorb(&RunStats {
            duration: Duration::from_millis(5),
            encode_lits: 100,
            peak_formula_bytes: 400,
            peak_proof_bytes: 90,
            solver_effort: 7,
            bounds_checked: 1,
            ..RunStats::default()
        });
        total.absorb(&RunStats {
            duration: Duration::from_millis(3),
            encode_lits: 250,
            peak_formula_bytes: 300,
            peak_proof_bytes: 150,
            solver_effort: 2,
            bounds_checked: 1,
            ..RunStats::default()
        });
        assert_eq!(total.duration, Duration::from_millis(8));
        assert_eq!(total.encode_lits, 250);
        assert_eq!(total.peak_formula_bytes, 400);
        assert_eq!(total.peak_proof_bytes, 150, "proof stream size is maxed");
        assert_eq!(total.solver_effort, 9);
        assert_eq!(total.bounds_checked, 2);
    }

    #[test]
    fn unknown_reason_tracks_token() {
        let b = Budget::none();
        assert_eq!(b.unknown_reason(), "budget exhausted");
        b.cancel.cancel();
        assert_eq!(b.unknown_reason(), "cancelled");
    }
}
