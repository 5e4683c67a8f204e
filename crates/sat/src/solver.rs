//! The CDCL SAT solver.
//!
//! A from-scratch conflict-driven clause-learning solver in the
//! MiniSat/zChaff tradition — the same algorithm family as the
//! "state-of-the-art DPLL-based SAT solvers" the paper evaluated in
//! 2005, and the substrate its jSAT procedure was built on:
//!
//! * two-watched-literal propagation with blocker literals and an
//!   inline binary-clause fast path,
//! * first-UIP conflict analysis with basic clause minimization,
//! * VSIDS variable activities with phase saving,
//! * Luby-sequence restarts,
//! * activity-based learnt-clause database reduction,
//! * MiniSat-style assumptions with failed-assumption cores,
//! * conflict/propagation/wall-clock budgets (the paper's 300 s limit),
//! * `simplify()` — level-0 garbage collection that physically removes
//!   satisfied clauses, which is what lets jSAT retract blocking
//!   clauses and keep its memory proportional to the path length.
//!
//! # Clause storage: the arena and the flat watch lists
//!
//! All clauses live in a single flat [`ClauseArena`] (see
//! [`crate::arena`] for the record layout) and are referred to by
//! [`CRef`] word offsets. Learnt records carry two extra header words:
//! an activity (VSIDS-style) and an **LBD** ("glue") word — the number
//! of distinct decision levels among the clause's literals at learn
//! time, refreshed downwards whenever the clause re-appears as a
//! conflict. Watchers live in a second flat structure, the
//! [`OccLists`](crate::occlists): one `Vec` of watchers segmented by
//! per-literal `(start, len)` ranges, so a propagation cascade walks
//! contiguous memory instead of chasing one heap `Vec` per literal,
//! and watch storage is byte-accounted and compactable exactly like
//! the arena. A bulk load goes through a [`ClauseBatch`], which stores
//! its clauses unwatched and lays out every watch list once, with
//! exactly the room the batch takes, instead of growing the lists one
//! clause at a time.
//!
//! Three kinds of root references exist, and the solver maintains
//! these invariants for each:
//!
//! * **clause lists** (`clauses` for problem clauses, `learnt_refs`
//!   for learnt ones) hold every live clause exactly once and *never*
//!   hold a freed clause — `free` is always paired with removal from
//!   the owning list;
//! * **watch lists** hold exactly two watchers per live clause of
//!   length ≥ 2 (for clauses of length 2 the watcher carries the other
//!   literal inline and is tagged binary, so propagation never touches
//!   the arena for them). Deletion is **lazy**: freeing a clause
//!   outside `simplify()` smudges its two watch lists (a dirty bit)
//!   instead of scanning them, and a dirty list may contain watchers
//!   of freed clauses until its next `clean()` — which runs when
//!   propagation next looks the list up, and unconditionally for all
//!   dirty lists before arena compaction. `simplify()` still rebuilds
//!   every list from scratch;
//! * **reason references** (`VarData::reason`) exist only for
//!   currently-assigned non-decision variables on the trail; clauses
//!   locked as reasons are never freed (`reduce_db` checks
//!   `is_locked` — on *both* watched slots, since the binary fast
//!   path implies the watcher's blocker, which may sit at slot 0 or
//!   1 — `free_clause` debug-asserts it, and `simplify` runs at
//!   level 0 where reasons have been cleared).
//!
//! # Learnt-clause management
//!
//! `reduce_db` drops the weaker (activity-ordered) half of the learnt
//! database, sparing binary clauses, clauses locked as reasons, and
//! **glue clauses** (LBD ≤ [`GLUE_PROTECT`]), which empirically encode
//! the search's backbone. `simplify()` additionally runs one bounded
//! pass of on-the-fly subsumption over flat occurrence ranges: a
//! clause C deletes any clause it subsumes (a learnt C only deletes
//! learnt clauses, so the problem formula never depends on a clause
//! that reduction may later remove) and self-subsuming resolution
//! strips single literals (strengthening), which can cascade into new
//! units.
//!
//! # Compacting garbage collection
//!
//! `free`/`shrink` only *book* garbage; the words are reclaimed by
//! [`Solver::garbage_collect`], which first cleans every dirty watch
//! list (so no freed record's forwarding pointer is ever requested),
//! then copies live records into a fresh arena (in clause-list order,
//! restoring allocation locality) and rewrites all three
//! root-reference kinds through the arena's forwarding pointers.
//! Collection triggers automatically whenever the wasted share of the
//! arena exceeds [`GC_WASTE_FRACTION`] at a safe point: after
//! `simplify()` (jSAT's blocking-clause retirement) and after
//! `reduce_db()` (learnt-clause pruning). The watch storage compacts
//! at the same safe points once enough segments have been abandoned
//! by list growth. This is what turns the seed's tombstone leak into
//! physically-flat memory: retired clauses now shrink the resident
//! clause database, not just a counter.
//!
//! # Proof logging
//!
//! With a [`ProofSink`] installed ([`Solver::set_proof_sink`], before
//! the first clause), the solver narrates every change to its
//! *logical* clause database as a binary-DRAT event stream:
//!
//! * `add_clause` and [`ClauseBatch::add`] log the caller's clause as
//!   an **original**; when level-0 filtering strips falsified
//!   literals, the filtered clause is logged as a derived **add** (RUP
//!   via the top-level units) followed by a **delete** of the original;
//! * every clause learnt by `analyze` is logged as an **add** (the
//!   first-UIP clause with minimization is RUP by construction);
//! * `reduce_db`, `simplify` and the subsumption pass log a **delete**
//!   for every clause they free; in-place rewrites (literal stripping,
//!   self-subsuming strengthening) log the new clause *before*
//!   deleting the old one, so the RUP check can still lean on it;
//! * an Unsat verdict is **finalized**: a top-level conflict logs the
//!   empty clause, an assumption failure logs the negated
//!   failed-assumption core from `analyze_final` (itself RUP — the
//!   core's reason cone replays under unit propagation).
//!
//! The deletion log is keyed by clause *content*, never by [`CRef`] —
//! which is the invariant that makes the delicate parts of this
//! solver (lazy watch deletion leaves stale watchers in smudged lists;
//! arena compaction rewrites every `CRef`) invisible to the proof:
//! deletions are logged exactly once, at the `free_clause` call sites
//! where the clause leaves its owning list, and GC/watch hygiene
//! never touches the stream. A clause that is *rewritten to a unit*
//! is freed by the solver (the fact lives on as a trail assignment)
//! but **not** deleted from the proof, because the checker's unit is
//! that clause.
//!
//! [`Stats::peak_proof_bytes`] carries the exact encoded size of the
//! emitted stream, alongside the arena and watch byte accounting.

use std::time::Instant;

use sebmc_logic::{Cnf, Lit, Var};
use sebmc_proof::{Certificate, ProofSink};

use crate::arena::{CRef, ClauseArena};
use crate::heap::ActivityHeap;
use crate::occlists::{OccLists, Watcher};

/// Result of a [`Solver::solve`] call.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SolveResult {
    /// A satisfying assignment was found (see [`Solver::value`]).
    Sat,
    /// The formula (under the given assumptions) is unsatisfiable.
    Unsat,
    /// A resource budget was exhausted before a verdict.
    Unknown,
}

impl SolveResult {
    /// `true` for [`SolveResult::Sat`].
    pub fn is_sat(self) -> bool {
        self == SolveResult::Sat
    }
}

/// Resource budgets for a single `solve` call.
///
/// All fields default to "unlimited". The deadline is a wall-clock
/// instant, checked periodically during search.
#[derive(Clone, Debug, Default)]
pub struct Limits {
    /// Maximum number of conflicts before giving up.
    pub max_conflicts: Option<u64>,
    /// Maximum number of propagations before giving up.
    pub max_propagations: Option<u64>,
    /// Wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Maximum live clause-database bytes (exact arena accounting,
    /// clause headers included); exceeding it aborts the solve with
    /// `Unknown`, reproducing the paper's 1 GB memory limit. (The
    /// legacy `max_live_lits` literal-count proxy is gone: bytes are
    /// the one memory cap, so two limits can never silently disagree.)
    pub max_live_bytes: Option<usize>,
    /// Cooperative cancellation flag, polled at the same safe points as
    /// the deadline (every 64 conflicts and before each decision). When
    /// another thread stores `true`, the solve aborts with `Unknown`.
    pub cancel: Option<std::sync::Arc<std::sync::atomic::AtomicBool>>,
    /// Fault-injection plan, consulted at the same safe points as the
    /// cancel flag. Inert by default; see [`sebmc_logic::fault`].
    pub fault: sebmc_logic::fault::FaultPlan,
    /// Progress sink, polled at the per-64-conflicts safe point and
    /// once at solve exit. Inert by default: an uninstalled handle
    /// costs one `Option` branch per poll, same contract as the proof
    /// hooks.
    pub progress: sebmc_telemetry::ProgressHandle,
}

impl Limits {
    /// No limits at all.
    pub fn none() -> Self {
        Limits::default()
    }
}

/// Search and memory statistics, exposed for the paper's experiments.
#[derive(Clone, Debug, Default)]
pub struct Stats {
    /// Number of decisions made.
    pub decisions: u64,
    /// Number of conflicts encountered.
    pub conflicts: u64,
    /// Number of literal propagations.
    pub propagations: u64,
    /// Number of restarts performed.
    pub restarts: u64,
    /// Learnt clauses currently in the database.
    pub learnts: u64,
    /// Clauses removed by reduction or simplification.
    pub removed_clauses: u64,
    /// Clauses deleted because another clause subsumes them
    /// (on-the-fly subsumption during `simplify`).
    pub subsumed_clauses: u64,
    /// Literals removed by self-subsuming strengthening during
    /// `simplify`.
    pub strengthened_lits: u64,
    /// Arena compactions performed.
    pub gc_runs: u64,
    /// Current live literal count across all clauses (memory proxy).
    pub live_lits: usize,
    /// Peak live literal count ever observed (memory proxy; E4).
    pub peak_live_lits: usize,
    /// Current live clause-database size in arena words, clause
    /// headers included (exact memory measure).
    pub live_words: usize,
    /// Peak of [`Stats::live_words`] ever observed.
    pub peak_live_words: usize,
    /// Current resident bytes of the watch structures: the flat
    /// watcher storage (live, spare, and not-yet-compacted slots) plus
    /// the per-literal range table.
    pub watch_resident_bytes: usize,
    /// Peak of [`Stats::watch_resident_bytes`] ever observed.
    pub peak_watch_bytes: usize,
    /// Exact bytes of binary-DRAT proof stream emitted so far (0 when
    /// no [`ProofSink`] is installed). Monotone — the stream only
    /// grows — so its peak *is* its current value.
    pub peak_proof_bytes: usize,
}

impl Stats {
    /// Exact peak clause-database size in bytes: every live arena word
    /// at the high-water mark, clause headers and activity words
    /// included — not the seed's `peak_live_lits * 4` approximation.
    pub fn peak_bytes(&self) -> usize {
        self.peak_live_words * std::mem::size_of::<u32>()
    }

    /// Exact current live clause-database size in bytes.
    pub fn live_bytes(&self) -> usize {
        self.live_words * std::mem::size_of::<u32>()
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Value {
    True,
    False,
    Unassigned,
}

/// A variable's trail data in 8 bytes: its reason clause, or
/// [`NO_REASON`] for a decision, an assumption or a level-0 fact, and
/// its decision level.
#[derive(Copy, Clone, Debug)]
struct VarData {
    reason: CRef,
    level: u32,
}

/// `VarData::reason` of a variable that no clause implied. Arena
/// offsets stay below 2³¹, so no clause has this reference.
const NO_REASON: CRef = CRef(u32::MAX);

impl VarData {
    #[inline]
    fn reason(self) -> Option<CRef> {
        (self.reason != NO_REASON).then_some(self.reason)
    }
}

const VAR_DECAY: f64 = 0.95;
const CLA_DECAY: f32 = 0.999;
const RESTART_FIRST: u64 = 100;
const RESCALE_LIMIT: f64 = 1e100;
const CLA_RESCALE_LIMIT: f32 = 1e20;
/// Fraction of the arena that may be garbage before a safe point
/// triggers compaction.
const GC_WASTE_FRACTION: f64 = 0.20;
/// Learnt clauses with LBD at or below this are never removed by
/// `reduce_db` ("glue clauses").
const GLUE_PROTECT: u32 = 2;
/// Longest clause considered as a *subsumer* during the `simplify`
/// subsumption pass (longer clauses rarely subsume anything and make
/// the pass quadratic).
const SUBSUME_MAX_CLAUSE: usize = 30;
/// Occurrence lists longer than this are not scanned for subsumption
/// candidates (keeps the pass near-linear on pathological formulae).
const SUBSUME_OCC_LIMIT: usize = 400;

/// An incremental CDCL SAT solver.
///
/// ```
/// use sebmc_sat::{SolveResult, Solver};
/// use sebmc_logic::Lit;
///
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause([a, b]);
/// s.add_clause([!a]);
/// assert_eq!(s.solve(), SolveResult::Sat);
/// assert_eq!(s.value(b.var()), Some(true));
/// ```
#[derive(Debug)]
pub struct Solver {
    arena: ClauseArena,
    clauses: Vec<CRef>,
    learnt_refs: Vec<CRef>,
    watches: OccLists,
    /// Assignment table indexed by *literal code* (two entries per
    /// variable): `lit_value` is a single load with no polarity
    /// fixup, which is what the propagation loop does most.
    assigns: Vec<Value>,
    vardata: Vec<VarData>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f32,
    heap: ActivityHeap,
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    model: Vec<Option<bool>>,
    conflict_core: Vec<Lit>,
    limits: Limits,
    stats: Stats,
    max_learnts: f64,
    /// Stamp array indexed by decision level, used to count distinct
    /// levels (LBD) without clearing between clauses. It grows with the
    /// deepest decision level an LBD count has seen, not with the
    /// variables.
    lbd_stamp: Vec<u64>,
    lbd_counter: u64,
    /// Proof-event receiver; `None` (the default) costs one branch at
    /// the logging sites and nothing else.
    proof: Option<Box<dyn ProofSink>>,
    /// Reusable literal buffer for content-keyed deletion logging
    /// (`reduce_db`/`simplify` delete clauses in bulk; one fresh `Vec`
    /// per deletion would be needless churn).
    proof_scratch: Vec<Lit>,
    /// Reusable buffers of [`Solver::normalize`]: the caller's clause
    /// sorted and deduplicated, and the same without its level-0-false
    /// literals. Adding a clause allocates nothing per call.
    clause_buf: Vec<Lit>,
    filtered: Vec<Lit>,
    /// `(conflicts, propagations, restarts)` at the previous progress
    /// poll: samples carry deltas, so a sink can derive rates.
    progress_marks: (u64, u64, u64),
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            arena: ClauseArena::new(),
            clauses: Vec::new(),
            learnt_refs: Vec::new(),
            watches: OccLists::new(),
            assigns: Vec::new(),
            vardata: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: ActivityHeap::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            model: Vec::new(),
            conflict_core: Vec::new(),
            limits: Limits::none(),
            stats: Stats::default(),
            max_learnts: 4000.0,
            lbd_stamp: Vec::new(),
            lbd_counter: 0,
            proof: None,
            proof_scratch: Vec::new(),
            clause_buf: Vec::new(),
            filtered: Vec::new(),
            progress_marks: (0, 0, 0),
        }
    }

    /// Creates a fresh solver variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new((self.assigns.len() / 2) as u32);
        self.assigns.push(Value::Unassigned);
        self.assigns.push(Value::Unassigned);
        self.vardata.push(VarData {
            reason: NO_REASON,
            level: 0,
        });
        self.activity.push(0.0);
        self.phase.push(false);
        self.seen.push(false);
        self.watches.push_lit();
        self.watches.push_lit();
        self.heap.insert(v, &self.activity);
        v
    }

    /// Ensures at least `n` variables exist.
    ///
    /// A call that more than doubles the variable count (a fresh
    /// solver's [`Solver::add_cnf`], or the expansion back-end handing
    /// over its last copy) sizes every per-variable array, the decision
    /// heap and the watch range table exactly. Smaller growth stays
    /// amortized: jSAT adds one variable per frame push, and an exact
    /// reserve on every call would reallocate every time.
    pub fn ensure_vars(&mut self, n: usize) {
        let have = self.num_vars();
        if n > 2 * have {
            let add = n - have;
            self.assigns.reserve_exact(2 * add);
            self.vardata.reserve_exact(add);
            self.activity.reserve_exact(add);
            self.phase.reserve_exact(add);
            self.seen.reserve_exact(add);
            self.heap.reserve_exact(add);
            self.watches.reserve_codes_exact(2 * add);
        }
        while self.num_vars() < n {
            self.new_var();
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len() / 2
    }

    /// Number of live problem clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// Whether the solver is still consistent (no top-level conflict).
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Sets the resource budgets for subsequent `solve` calls.
    pub fn set_limits(&mut self, limits: Limits) {
        self.limits = limits;
    }

    /// Search statistics.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// Resident clause-database size in bytes: live records *plus*
    /// garbage not yet compacted away. This is what the process
    /// actually holds; it shrinks when [`Solver::garbage_collect`]
    /// runs.
    pub fn clause_db_resident_bytes(&self) -> usize {
        self.arena.resident_bytes()
    }

    /// Live clause-database size in bytes (headers included).
    pub fn clause_db_live_bytes(&self) -> usize {
        self.arena.live_bytes()
    }

    /// Resident bytes of the watch structures: the flat watcher
    /// storage plus the per-literal range table. The access-structure
    /// counterpart of [`Solver::clause_db_resident_bytes`].
    pub fn watch_db_resident_bytes(&self) -> usize {
        self.watches.resident_bytes()
    }

    /// Sets the learnt-clause count that triggers the next database
    /// reduction (default 4000; the threshold grows 15% per
    /// reduction). Exposed for tests and tuning — reduction always
    /// spares binary clauses, glue clauses (LBD ≤ 2), and clauses
    /// locked as reasons.
    pub fn set_max_learnts(&mut self, cap: f64) {
        self.max_learnts = cap;
    }

    /// Installs a proof-event receiver. Must be called on a pristine
    /// solver (no clauses, no assignments) — the proof stream has to
    /// witness every original clause from the very first one.
    ///
    /// # Panics
    /// Panics if the solver already holds clauses or assignments.
    pub fn set_proof_sink(&mut self, sink: Box<dyn ProofSink>) {
        assert!(
            self.arena.is_empty() && self.trail.is_empty() && self.ok,
            "install the proof sink before the first clause"
        );
        self.proof = Some(sink);
    }

    /// Exact bytes of proof stream emitted so far (0 without a sink).
    pub fn proof_bytes(&self) -> usize {
        self.proof.as_ref().map_or(0, |p| p.bytes_emitted())
    }

    /// The sink's cumulative certification counters, if it checks what
    /// it receives (`None` without a sink, or for write-only sinks).
    pub fn proof_summary(&mut self) -> Option<Certificate> {
        self.proof.as_mut().and_then(|p| p.summary())
    }

    /// Whether the proof certifies unsatisfiability under
    /// `assumptions` (see [`ProofSink::certifies`]). Always `false`
    /// without a checking sink.
    pub fn proof_certifies(&mut self, assumptions: &[Lit]) -> bool {
        self.proof
            .as_mut()
            .is_some_and(|p| p.certifies(assumptions))
    }

    // ----- proof-logging helpers (each a no-op without a sink) -----------

    fn proof_add(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.add(lits);
            self.stats.peak_proof_bytes = p.bytes_emitted();
        }
    }

    fn proof_delete(&mut self, lits: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.delete(lits);
            self.stats.peak_proof_bytes = p.bytes_emitted();
        }
    }

    /// Logs the deletion of a clause by its *current* arena content
    /// (through the reusable scratch buffer — no allocation per
    /// deletion).
    fn proof_delete_cref(&mut self, cref: CRef) {
        if self.proof.is_some() {
            let mut scratch = std::mem::take(&mut self.proof_scratch);
            scratch.clear();
            scratch.extend(self.arena.lits(cref));
            self.proof_delete(&scratch);
            self.proof_scratch = scratch;
        }
    }

    /// Logs the finalization lemma of an Unsat verdict: the negated
    /// failed-assumption core, or the empty clause for a top-level
    /// conflict.
    fn proof_finalize(&mut self, neg_core: &[Lit]) {
        if let Some(p) = self.proof.as_mut() {
            p.finalize_unsat(neg_core);
            self.stats.peak_proof_bytes = p.bytes_emitted();
        }
    }

    /// Adds a clause; returns `false` if the solver became inconsistent
    /// (the empty clause was derived).
    ///
    /// Tautologies are silently dropped and duplicate literals merged.
    /// May be called between `solve` calls for incremental use. To add
    /// many clauses at once, a [`Solver::batch`] leaves far less spare
    /// room in the watch storage.
    pub fn add_clause<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        if !self.normalize(lits) {
            return true;
        }
        match self.filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(self.filtered[0], None);
                self.ok = self.propagate().is_none();
                if !self.ok {
                    // Top-level conflict: the empty clause follows by
                    // unit propagation alone.
                    self.proof_add(&[]);
                }
                self.ok
            }
            _ => {
                let filtered = std::mem::take(&mut self.filtered);
                self.alloc_clause(&filtered, false);
                self.filtered = filtered;
                true
            }
        }
    }

    /// Opens a batch of problem clauses: the way to add many clauses
    /// at once, such as the expansion back-end's last copy.
    ///
    /// [`ClauseBatch::add`] takes each clause as [`Solver::add_clause`]
    /// does, with the same proof events, but leaves the watch storage
    /// alone: a unit is enqueued without being propagated, and a longer
    /// clause is stored unwatched. [`ClauseBatch::finish`] then watches
    /// every stored clause on two literals that are not false at level
    /// 0, lays out each watch list with exactly the room its new
    /// watchers take, attaches the clauses in order and propagates
    /// once. Clause by clause, every full list relocates with doubled
    /// capacity, which leaves about as much spare and abandoned room
    /// as live watchers.
    ///
    /// Level-0 filtering sees the batch's own units but not their
    /// consequences, so a clause that propagation would have satisfied
    /// or shortened is kept as it is. The guard borrows the solver
    /// mutably, so nothing else runs while a clause is unwatched, and
    /// dropping it without `finish` (also during a panic) finishes the
    /// batch.
    ///
    /// ```
    /// use sebmc_sat::{SolveResult, Solver};
    ///
    /// let mut s = Solver::new();
    /// let [a, b, c] = [(); 3].map(|()| s.new_var().positive());
    /// let mut batch = s.batch();
    /// batch.add(&[a, b, c]);
    /// batch.add(&[!a, b]);
    /// batch.add(&[!b]);
    /// assert!(batch.finish());
    /// assert_eq!(s.solve(), SolveResult::Sat);
    /// assert_eq!(s.value(c.var()), Some(true));
    /// ```
    pub fn batch(&mut self) -> ClauseBatch<'_> {
        self.cancel_until(0);
        let first = self.clauses.len();
        ClauseBatch {
            solver: self,
            first,
            finished: false,
        }
    }

    /// Level-0 normalization of a clause being added, shared by
    /// [`Solver::add_clause`] and [`ClauseBatch::add`]. Sorts the
    /// caller's literals into `clause_buf` and merges duplicates; drops
    /// a tautology or a clause already true at level 0 (silently: a
    /// missing axiom only *strengthens* what the proof certifies);
    /// otherwise leaves the literals that are not false at level 0 in
    /// `filtered` and logs the proof events. The caller's clause is the
    /// axiom; the filtered version, when different, is a derived add
    /// (RUP via the top-level units) that replaces it. Returns `false`
    /// when the clause is dropped.
    fn normalize<I: IntoIterator<Item = Lit>>(&mut self, lits: I) -> bool {
        let Solver {
            clause_buf: ls,
            filtered,
            assigns,
            proof,
            stats,
            ..
        } = self;
        ls.clear();
        ls.extend(lits);
        for l in ls.iter() {
            assert!(
                l.var().index() < assigns.len() / 2,
                "literal {l:?} references an unallocated variable"
            );
        }
        ls.sort_unstable();
        ls.dedup();
        if ls.windows(2).any(|w| w[0].var() == w[1].var()) {
            return false;
        }
        filtered.clear();
        for &l in ls.iter() {
            match lit_value(assigns, l) {
                Value::True => return false,
                Value::False => {}
                Value::Unassigned => filtered.push(l),
            }
        }
        if let Some(p) = proof.as_mut() {
            p.original(ls);
            if filtered.len() != ls.len() {
                p.add(filtered);
                p.delete(ls);
            }
            stats.peak_proof_bytes = p.bytes_emitted();
        }
        true
    }

    /// Ends a batch whose clauses start at `first` in the problem-clause
    /// list (see [`Solver::batch`]). Returns `false` if the solver is
    /// inconsistent.
    fn finish_batch(&mut self, first: usize) -> bool {
        if first < self.clauses.len() {
            // Watch two literals that are not false at level 0 where the
            // clause has them. A false watch is always one of the
            // batch's own units, which the propagation below visits.
            for &cref in &self.clauses[first..] {
                let lits = self.arena.lits_raw_mut(cref);
                let mut picked = 0;
                for k in 0..lits.len() {
                    if picked == 2 {
                        break;
                    }
                    if self.assigns[lits[k] as usize] != Value::False {
                        lits.swap(picked, k);
                        picked += 1;
                    }
                }
            }
            let Solver {
                arena,
                clauses,
                watches,
                ..
            } = self;
            watches.compact_with_room(
                clauses[first..]
                    .iter()
                    .flat_map(|&c| [(!arena.lit(c, 0)).code(), (!arena.lit(c, 1)).code()]),
            );
            for i in first..self.clauses.len() {
                self.attach_clause(self.clauses[i]);
            }
        }
        if self.ok && self.propagate().is_some() {
            self.ok = false;
            self.proof_add(&[]);
        }
        self.sync_word_stats();
        self.check_invariants();
        self.ok
    }

    /// Adds every clause of a [`Cnf`], creating variables as needed.
    ///
    /// Returns `false` if the solver became inconsistent.
    pub fn add_cnf(&mut self, cnf: &Cnf) -> bool {
        self.ensure_vars(cnf.num_vars());
        for clause in cnf.iter() {
            if !self.add_clause(clause.iter().copied()) {
                return false;
            }
        }
        true
    }

    /// Solves the current formula without assumptions.
    pub fn solve(&mut self) -> SolveResult {
        self.solve_with(&[])
    }

    /// Solves under the given assumption literals.
    ///
    /// On [`SolveResult::Unsat`], [`Solver::failed_assumptions`] holds a
    /// subset of the assumptions sufficient for the conflict.
    pub fn solve_with(&mut self, assumptions: &[Lit]) -> SolveResult {
        self.model.clear();
        self.conflict_core.clear();
        if !self.ok {
            return SolveResult::Unsat;
        }
        for a in assumptions {
            assert!(
                a.var().index() < self.num_vars(),
                "assumption {a:?} references an unallocated variable"
            );
        }
        self.cancel_until(0);
        // Solve entry is a safe point: reclaim watch segments
        // abandoned by list growth (cleans dirty lists first) so the
        // search starts on tightly-packed storage.
        let arena = &self.arena;
        self.watches.clean_all(|w| arena.is_freed(w.cref()));
        self.watches.maybe_compact();
        let mut curr_restarts = 0u64;
        let result = loop {
            let budget = luby(2.0, curr_restarts) * RESTART_FIRST as f64;
            match self.search(budget as u64, assumptions) {
                SearchOutcome::Sat => break SolveResult::Sat,
                SearchOutcome::Unsat => break SolveResult::Unsat,
                SearchOutcome::Unknown => break SolveResult::Unknown,
                SearchOutcome::Restart => {
                    curr_restarts += 1;
                    self.stats.restarts += 1;
                }
            }
        };
        self.cancel_until(0);
        // Tail sample: flush whatever accumulated since the last
        // 64-conflict poll, so short solves (or the final stretch of a
        // long one) still reach the sink.
        self.poll_progress();
        result
    }

    /// Model value of a variable after [`SolveResult::Sat`].
    ///
    /// Returns `None` if no model is available or the variable was
    /// created after the last solve.
    pub fn value(&self, v: Var) -> Option<bool> {
        self.model.get(v.index()).copied().flatten()
    }

    /// Model value of a literal after [`SolveResult::Sat`].
    pub fn lit_value_model(&self, l: Lit) -> Option<bool> {
        self.value(l.var()).map(|b| l.apply(b))
    }

    /// After an `Unsat` result of [`Solver::solve_with`], the subset of
    /// assumptions involved in the conflict.
    pub fn failed_assumptions(&self) -> &[Lit] {
        &self.conflict_core
    }

    /// Level-0 simplification: removes clauses satisfied at the top
    /// level, strips falsified literals, and runs one bounded pass of
    /// on-the-fly subsumption/strengthening over flat occurrence
    /// ranges, physically reclaiming memory (the arena is compacted
    /// when enough garbage has accumulated). Returns `false` if the
    /// formula became inconsistent.
    ///
    /// Even when an empty clause is derived mid-pass, every clause
    /// list still owns exactly its live clauses and the statistics
    /// stay synced with the arena — the solver is dead (`!ok`) but
    /// internally consistent.
    ///
    /// This is the operation jSAT uses to retract deactivated blocking
    /// clauses (see crate `sebmc`, module `jsat`).
    pub fn simplify(&mut self) -> bool {
        self.cancel_until(0);
        if !self.ok {
            return false;
        }
        if self.propagate().is_some() {
            self.ok = false;
            self.proof_add(&[]);
            return false;
        }
        // Top-level assignments never need reasons again.
        for &l in &self.trail {
            self.vardata[l.var().index()].reason = NO_REASON;
        }
        let proof_on = self.proof.is_some();
        // Every watch list is rebuilt from scratch at the end; until
        // then the kept clauses are detached.
        self.watches.clear_all();
        let mut enqueue: Vec<Lit> = Vec::new();
        let mut kept_problem: Vec<CRef> = Vec::new();
        let mut kept_learnt: Vec<CRef> = Vec::new();
        for which in [false, true] {
            let refs = std::mem::take(if which {
                &mut self.learnt_refs
            } else {
                &mut self.clauses
            });
            let kept = if which {
                &mut kept_learnt
            } else {
                &mut kept_problem
            };
            for &cref in &refs {
                let satisfied = self
                    .arena
                    .lits(cref)
                    .any(|l| lit_value(&self.assigns, l) == Value::True);
                if satisfied {
                    self.proof_delete_cref(cref);
                    self.free_clause(cref);
                    continue;
                }
                // Strip level-0-falsified literals in place. The
                // pre-strip copy feeds the proof's add-then-delete
                // pair, so it is only taken when a literal will
                // actually be stripped (most clauses lose nothing —
                // copying them all would be O(live lits) of allocation
                // churn per simplify pass).
                let old_lits: Option<Vec<Lit>> = (proof_on
                    && self
                        .arena
                        .lits(cref)
                        .any(|l| lit_value(&self.assigns, l) == Value::False))
                .then(|| self.arena.lits(cref).collect());
                let len = self.arena.len(cref);
                let mut kept_lits = 0;
                for i in 0..len {
                    let l = self.arena.lit(cref, i);
                    if lit_value(&self.assigns, l) != Value::False {
                        if i != kept_lits {
                            self.arena.set_lit(cref, kept_lits, l);
                        }
                        kept_lits += 1;
                    }
                }
                if kept_lits < len {
                    self.arena.shrink(cref, kept_lits.max(1));
                    self.stats.live_lits -= len - kept_lits.max(1);
                    // Proof: the stripped clause replaces the original
                    // (add first, so the RUP check can use the old
                    // clause; an empty result is the proof's end).
                    if let Some(old) = old_lits {
                        let new: Vec<Lit> = self.arena.lits(cref).take(kept_lits).collect();
                        self.proof_add(&new);
                        self.proof_delete(&old);
                    }
                }
                match kept_lits {
                    0 => {
                        // The formula is unsatisfiable at level 0.
                        // Keep processing so both clause lists end up
                        // owning exactly their live clauses and the
                        // stats stay synced with the arena (the old
                        // early return leaked every already-kept and
                        // not-yet-visited clause from its list).
                        self.ok = false;
                        self.free_clause(cref);
                    }
                    1 => {
                        enqueue.push(self.arena.lit(cref, 0));
                        self.free_clause(cref);
                    }
                    _ => kept.push(cref),
                }
            }
        }
        if self.ok {
            self.subsume_pass(&mut kept_problem, &mut kept_learnt, &mut enqueue);
        }
        // Re-attach the survivors and restore list ownership (also on
        // the `!ok` path, so invariants hold for the dead solver).
        for &cref in kept_problem.iter().chain(&kept_learnt) {
            self.attach_clause(cref);
        }
        self.clauses = kept_problem;
        self.learnt_refs = kept_learnt;
        self.sync_word_stats();
        if !self.ok {
            return false;
        }
        for l in enqueue {
            match lit_value(&self.assigns, l) {
                Value::True => {}
                Value::False => {
                    self.ok = false;
                    self.proof_add(&[]);
                    return false;
                }
                Value::Unassigned => self.unchecked_enqueue(l, None),
            }
        }
        self.qhead = 0;
        if self.propagate().is_some() {
            self.ok = false;
            self.proof_add(&[]);
            return false;
        }
        self.maybe_garbage_collect();
        self.ok
    }

    /// One bounded pass of subsumption and self-subsuming resolution
    /// over the detached survivors of `simplify`, driven by flat
    /// `(start, len)` occurrence ranges over every literal.
    ///
    /// For each subsumer candidate C (problem clauses first, so a
    /// problem clause wins ties against a learnt duplicate) the pass
    /// scans the occurrence range of C's rarest literal. A candidate D
    /// with all of C's literals is subsumed and freed — unless C is
    /// learnt and D is not: the problem formula must never depend on a
    /// clause that `reduce_db` may later drop. A candidate matching
    /// all but one literal, with that literal flipped, is strengthened
    /// by resolving on it (always sound: the resolvent both implies
    /// and is implied by the formula). Strengthening down to one
    /// literal turns into a pending unit.
    fn subsume_pass(
        &mut self,
        problem: &mut Vec<CRef>,
        learnt: &mut Vec<CRef>,
        enqueue: &mut Vec<Lit>,
    ) {
        let num_codes = 2 * self.num_vars();
        let all: Vec<(CRef, bool)> = problem
            .iter()
            .map(|&c| (c, false))
            .chain(learnt.iter().map(|&c| (c, true)))
            .collect();
        // Counting pass, then (start, len) ranges into one flat CRef
        // vector — the same layout discipline as the watch lists.
        let mut counts = vec![0u32; num_codes];
        for &(c, _) in &all {
            for l in self.arena.lits(c) {
                counts[l.code()] += 1;
            }
        }
        let mut starts = vec![0u32; num_codes + 1];
        for i in 0..num_codes {
            starts[i + 1] = starts[i] + counts[i];
        }
        let mut occ = vec![CRef(0); starts[num_codes] as usize];
        let mut fill: Vec<u32> = starts[..num_codes].to_vec();
        for &(c, _) in &all {
            for l in self.arena.lits(c) {
                occ[fill[l.code()] as usize] = c;
                fill[l.code()] += 1;
            }
        }
        // Literal-code marks, stamped per subsumer so the array never
        // needs clearing.
        let mut mark = vec![0u32; num_codes];
        let mut stamp = 0u32;
        for &(c, c_is_learnt) in &all {
            if self.arena.is_freed(c) {
                continue;
            }
            let clen = self.arena.len(c);
            if clen > SUBSUME_MAX_CLAUSE {
                continue;
            }
            let min_lit = self
                .arena
                .lits(c)
                .min_by_key(|l| counts[l.code()])
                .expect("kept clauses are non-empty");
            if counts[min_lit.code()] as usize > SUBSUME_OCC_LIMIT {
                continue;
            }
            stamp += 1;
            for l in self.arena.lits(c) {
                mark[l.code()] = stamp;
            }
            // Subsumption candidates all contain C's rarest literal;
            // strengthening candidates instead contain the *negation*
            // of the literal being resolved away, so each of C's
            // literals contributes one flipped occurrence range.
            let occ_range = |l: Lit| starts[l.code()] as usize..starts[l.code() + 1] as usize;
            let scans = std::iter::once(occ_range(min_lit)).chain(
                self.arena
                    .lits(c)
                    .map(|l| occ_range(!l))
                    .collect::<Vec<_>>(),
            );
            for range in scans {
                if range.len() > SUBSUME_OCC_LIMIT {
                    continue;
                }
                for k in range {
                    let d = occ[k];
                    if d == c || self.arena.is_freed(d) || self.arena.is_freed(c) {
                        continue;
                    }
                    let dlen = self.arena.len(d);
                    if dlen < clen {
                        continue;
                    }
                    // Count D's literals against C's marks: `matched`
                    // hits and at most one flipped hit decide the
                    // outcome.
                    let mut matched = 0usize;
                    let mut flipped = 0usize;
                    let mut flipped_idx = 0usize;
                    for idx in 0..dlen {
                        let dl = self.arena.lit(d, idx);
                        if mark[dl.code()] == stamp {
                            matched += 1;
                        } else if mark[(!dl).code()] == stamp {
                            flipped += 1;
                            flipped_idx = idx;
                        }
                    }
                    if matched == clen {
                        if c_is_learnt && !self.arena.is_learnt(d) {
                            continue;
                        }
                        self.proof_delete_cref(d);
                        self.free_clause(d);
                        self.stats.subsumed_clauses += 1;
                    } else if matched + 1 == clen && flipped == 1 {
                        // Self-subsuming resolution: drop the flipped
                        // literal from D. The resolvent is RUP against
                        // {C, D}, so the proof logs it before deleting
                        // the old D (add-then-delete).
                        let old_lits: Option<Vec<Lit>> =
                            self.proof.is_some().then(|| self.arena.lits(d).collect());
                        self.arena.swap_lits(d, flipped_idx, dlen - 1);
                        self.arena.shrink(d, dlen - 1);
                        self.stats.live_lits -= 1;
                        self.stats.strengthened_lits += 1;
                        if let Some(old) = old_lits {
                            let new: Vec<Lit> = self.arena.lits(d).collect();
                            self.proof_add(&new);
                            self.proof_delete(&old);
                        }
                        if dlen - 1 == 1 {
                            enqueue.push(self.arena.lit(d, 0));
                            self.free_clause(d);
                        }
                    }
                }
            }
        }
        problem.retain(|&c| !self.arena.is_freed(c));
        learnt.retain(|&c| !self.arena.is_freed(c));
    }

    /// Compacts the clause arena now: cleans every dirty watch list
    /// (freed records have no forwarding pointer to follow), then
    /// copies every live clause into a fresh arena and rewrites clause
    /// lists, watch lists, and reason references. Resident memory
    /// drops by exactly the booked garbage.
    pub fn garbage_collect(&mut self) {
        let arena = &self.arena;
        self.watches.clean_all(|w| arena.is_freed(w.cref()));
        if self.arena.wasted_words() == 0 {
            self.check_invariants();
            return;
        }
        let mut to = ClauseArena::with_capacity(self.arena.live_words());
        for c in &mut self.clauses {
            *c = self.arena.reloc(*c, &mut to);
        }
        for c in &mut self.learnt_refs {
            *c = self.arena.reloc(*c, &mut to);
        }
        let arena = &mut self.arena;
        self.watches.for_each_watcher_mut(|w| {
            let new = arena.reloc(w.cref(), &mut to);
            *w = if w.is_binary() {
                Watcher::binary(new, w.blocker)
            } else {
                Watcher::long(new, w.blocker)
            };
        });
        for i in 0..self.trail.len() {
            let v = self.trail[i].var();
            if let Some(r) = self.vardata[v.index()].reason() {
                self.vardata[v.index()].reason = self.arena.reloc(r, &mut to);
            }
        }
        self.arena = to;
        self.stats.gc_runs += 1;
        self.sync_word_stats();
        self.check_invariants();
    }

    /// Debug-build self-audit of the solver's cross-structure
    /// invariants, in the spirit of MiniSat's `checkWatches`.
    ///
    /// Verifies that the clause lists own exactly the live arena
    /// clauses (each once, learnt flag matching its list) and that the
    /// memory statistics agree with the arena; that every live clause
    /// is watched exactly once on the negation of each of its first
    /// two literals, tagged binary iff it has two, with a blocker
    /// drawn from the clause; that stale watchers (referencing freed
    /// clauses) only survive in lists marked dirty; that the trail,
    /// assignment table, decision-level stack and per-variable level
    /// bookkeeping are mutually consistent; that every reason clause
    /// is live and still implies exactly its trail literal; and that
    /// every unassigned variable is available to the decision heap.
    ///
    /// Compiled to a no-op in release builds (the body is behind a
    /// constant branch, so it never bit-rots). Called from the
    /// `simplify`/GC safe points and from the randomized sweep tests;
    /// any violation panics naming the broken invariant.
    pub fn check_invariants(&self) {
        if !cfg!(debug_assertions) {
            return;
        }
        // 1. Clause lists own exactly the live clauses, and the
        //    clause-database statistics agree with the arena. One mark
        //    byte per arena word, keyed by the clause's offset, records
        //    that a clause is listed and on which of its two watched
        //    literals a watcher was seen: the audit runs after every
        //    clause batch, and hash sets over a bulk load's clauses
        //    would cost more than the clauses.
        const LISTED: u8 = 1;
        const WATCHED: [u8; 2] = [2, 4];
        let mut marks = vec![0u8; self.arena.resident_words()];
        let mut live_lits = 0usize;
        for (&cref, learnt) in self
            .clauses
            .iter()
            .map(|c| (c, false))
            .chain(self.learnt_refs.iter().map(|c| (c, true)))
        {
            assert!(
                !self.arena.is_freed(cref),
                "clause list holds a freed clause"
            );
            assert_eq!(
                self.arena.is_learnt(cref),
                learnt,
                "clause sits in the wrong owning list"
            );
            let mark = &mut marks[cref.0 as usize];
            assert_eq!(*mark & LISTED, 0, "clause listed twice");
            *mark |= LISTED;
            let len = self.arena.len(cref);
            assert!(len >= 2, "live clause shorter than two literals");
            live_lits += len;
        }
        assert_eq!(
            self.stats.learnts as usize,
            self.learnt_refs.len(),
            "learnt-clause statistic disagrees with the learnt list"
        );
        assert_eq!(
            self.stats.live_lits, live_lits,
            "live-literal statistic disagrees with the clause lists"
        );
        assert_eq!(
            self.stats.live_words,
            self.arena.live_words(),
            "live-word statistic disagrees with the arena"
        );
        // 2. Watch lists, forward direction: every watcher in a clean
        //    list references a live clause that is watched on this
        //    list's literal, with the right binary tag and a blocker
        //    from the clause; stale watchers only survive in dirty
        //    lists.
        for code in 0..self.watches.num_codes() {
            let dirty = self.watches.is_dirty(code);
            for w in self.watches.watchers(code) {
                let cref = w.cref();
                if self.arena.is_freed(cref) {
                    assert!(dirty, "stale watcher survives in a clean watch list");
                    continue;
                }
                let mark = &mut marks[cref.0 as usize];
                assert_ne!(
                    *mark & LISTED,
                    0,
                    "watcher references a live clause missing from its list"
                );
                let len = self.arena.len(cref);
                assert_eq!(
                    w.is_binary(),
                    len == 2,
                    "watcher's binary tag disagrees with the clause length"
                );
                let slot = (0..2)
                    .find(|&i| (!self.arena.lit(cref, i)).code() == code)
                    .expect("watcher sits in a list its clause does not watch");
                assert!(
                    self.arena.lits(cref).any(|l| l == w.blocker),
                    "watcher's blocker is not a literal of its clause"
                );
                assert_eq!(
                    *mark & WATCHED[slot],
                    0,
                    "live clause is watched twice on one literal"
                );
                *mark |= WATCHED[slot];
            }
        }
        // 2b. Backward direction: each live clause is watched on each
        //     of `(!lit0, !lit1)`.
        for &cref in self.clauses.iter().chain(&self.learnt_refs) {
            assert_eq!(
                marks[cref.0 as usize],
                LISTED | WATCHED[0] | WATCHED[1],
                "live clause is not watched exactly on its first two literals"
            );
        }
        // 3. Trail and assignment table. Every trail literal is
        //    assigned true (and its negation false), appears once, and
        //    its recorded level matches its position relative to the
        //    decision-level stack; every assigned variable is on the
        //    trail; the level stack is monotone within the trail.
        let num_vars = self.num_vars();
        let mut on_trail = vec![false; num_vars];
        for (i, &l) in self.trail.iter().enumerate() {
            assert_eq!(
                lit_value(&self.assigns, l),
                Value::True,
                "trail literal is not assigned true"
            );
            assert_eq!(
                lit_value(&self.assigns, !l),
                Value::False,
                "negation of a trail literal is not assigned false"
            );
            let v = l.var().index();
            assert!(!on_trail[v], "variable appears twice on the trail");
            on_trail[v] = true;
            let level = self.trail_lim.iter().filter(|&&lim| lim <= i).count();
            assert_eq!(
                self.vardata[v].level as usize, level,
                "trail literal's recorded level disagrees with its position"
            );
        }
        for (j, &lim) in self.trail_lim.iter().enumerate() {
            assert!(
                lim <= self.trail.len(),
                "decision-level mark points past the trail"
            );
            if j > 0 {
                assert!(
                    self.trail_lim[j - 1] <= lim,
                    "decision-level marks are not monotone"
                );
            }
        }
        assert!(
            self.qhead <= self.trail.len(),
            "propagation head points past the trail"
        );
        for (v, &trailed) in on_trail.iter().enumerate() {
            let pos = Var::new(v as u32).positive();
            let assigned = lit_value(&self.assigns, pos) != Value::Unassigned;
            assert_eq!(
                assigned, trailed,
                "assignment table disagrees with trail membership"
            );
            // 5. Decision heap: every unassigned variable must be
            //    available for branching (`pick_branch_var` assigns
            //    what it pops; `cancel_until` and `new_var` insert).
            if !assigned {
                assert!(
                    self.heap.contains(pos.var()),
                    "unassigned variable missing from the decision heap"
                );
            }
        }
        // 4. Reasons: a trail literal's reason clause must be live,
        //    contain the literal itself (true), and have every other
        //    literal false — i.e. it still propagates the literal.
        for &l in &self.trail {
            let Some(r) = self.vardata[l.var().index()].reason() else {
                continue;
            };
            assert!(!self.arena.is_freed(r), "reason clause has been freed");
            let mut implied = 0usize;
            for cl in self.arena.lits(r) {
                if cl.var() == l.var() {
                    assert_eq!(cl, l, "reason clause contains the trail literal negated");
                    implied += 1;
                } else {
                    assert_eq!(
                        lit_value(&self.assigns, cl),
                        Value::False,
                        "non-implied literal of a reason clause is not false"
                    );
                }
            }
            assert_eq!(
                implied, 1,
                "reason clause does not mention its literal once"
            );
        }
    }

    // ----- internal machinery -------------------------------------------------

    /// Arena GC plus watch-storage compaction, each behind its own
    /// waste threshold. This is the shared safe point of `simplify`
    /// and `reduce_db`.
    fn maybe_garbage_collect(&mut self) {
        let resident = self.arena.resident_words();
        if resident > 0 && self.arena.wasted_words() as f64 >= resident as f64 * GC_WASTE_FRACTION {
            self.garbage_collect();
        }
        let arena = &self.arena;
        self.watches.clean_all(|w| arena.is_freed(w.cref()));
        self.watches.maybe_compact();
        self.sync_word_stats();
        self.check_invariants();
    }

    /// Refreshes the word-level memory statistics from the arena and
    /// the watch storage.
    fn sync_word_stats(&mut self) {
        self.stats.live_words = self.arena.live_words();
        self.stats.peak_live_words = self.stats.peak_live_words.max(self.stats.live_words);
        self.stats.watch_resident_bytes = self.watches.resident_bytes();
        self.stats.peak_watch_bytes = self
            .stats
            .peak_watch_bytes
            .max(self.stats.watch_resident_bytes);
    }

    fn decision_level(&self) -> usize {
        self.trail_lim.len()
    }

    fn new_decision_level(&mut self) {
        self.trail_lim.push(self.trail.len());
    }

    fn alloc_clause(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        let cref = self.store_clause(lits, learnt);
        self.attach_clause(cref);
        self.sync_word_stats();
        cref
    }

    /// Allocates a clause and lists it, without watching it (a batch
    /// attaches its clauses at `finish`). The word statistics are left
    /// to the caller's next `sync_word_stats`.
    fn store_clause(&mut self, lits: &[Lit], learnt: bool) -> CRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.arena.alloc(lits, learnt);
        self.stats.live_lits += lits.len();
        self.stats.peak_live_lits = self.stats.peak_live_lits.max(self.stats.live_lits);
        if learnt {
            self.learnt_refs.push(cref);
            self.stats.learnts += 1;
        } else {
            self.clauses.push(cref);
        }
        cref
    }

    fn attach_clause(&mut self, cref: CRef) {
        let w0 = self.arena.lit(cref, 0);
        let w1 = self.arena.lit(cref, 1);
        if self.arena.len(cref) == 2 {
            self.watches.push((!w0).code(), Watcher::binary(cref, w1));
            self.watches.push((!w1).code(), Watcher::binary(cref, w0));
        } else {
            self.watches.push((!w0).code(), Watcher::long(cref, w1));
            self.watches.push((!w1).code(), Watcher::long(cref, w0));
        }
    }

    /// Lazy detach: marks the clause's two watch lists dirty instead
    /// of scanning them. The stale watchers are dropped by the next
    /// `clean()` of each list — triggered by propagation's lookup or
    /// by the GC safe points — keyed on the arena's freed bit, so this
    /// must be followed by `free_clause` before the lists are next
    /// used.
    fn detach_clause_lazy(&mut self, cref: CRef) {
        let w0 = self.arena.lit(cref, 0);
        let w1 = self.arena.lit(cref, 1);
        self.watches.smudge((!w0).code());
        self.watches.smudge((!w1).code());
    }

    /// Books the clause as garbage and updates the statistics. The
    /// caller is responsible for the watch lists (either
    /// `detach_clause_lazy` first, or a wholesale rebuild as in
    /// `simplify`) and for removing the reference from its owning
    /// clause list.
    fn free_clause(&mut self, cref: CRef) {
        debug_assert!(
            !self.is_locked(cref),
            "freeing a clause that is the reason of a trail literal"
        );
        self.stats.live_lits -= self.arena.len(cref);
        self.stats.removed_clauses += 1;
        if self.arena.is_learnt(cref) {
            self.stats.learnts -= 1;
        }
        self.arena.free(cref);
        self.stats.live_words = self.arena.live_words();
    }

    #[inline]
    fn unchecked_enqueue(&mut self, p: Lit, reason: Option<CRef>) {
        enqueue_raw(
            &mut self.assigns,
            &mut self.vardata,
            &mut self.trail,
            self.trail_lim.len() as u32,
            p,
            reason.unwrap_or(NO_REASON),
        );
    }

    /// Unit propagation; returns the conflicting clause reference, if
    /// any.
    ///
    /// Binary watchers complete without touching the arena: the
    /// watcher's blocker *is* the other literal, so satisfied/unit/
    /// conflict are decided from the assignment table alone. Long
    /// clauses take the classic MiniSat path over the flat arena.
    ///
    /// The watched list is one contiguous segment of the flat
    /// [`OccLists`] storage, looked up through `lookup_clean` so a
    /// dirty list sheds its freed-clause watchers before the walk
    /// (nothing stale is ever enqueued as a reason). The walk borrows
    /// the segment as a plain slice and runs in two stages: while no
    /// watch has left the list, the scan performs no survivor copies
    /// at all (in the attach order binary watchers cluster at the
    /// segment front and never move, so clean lists finish without a
    /// single watcher store or length write-back); the first moved
    /// watch pushes into its new list — briefly unpinning the segment
    /// borrow, a bounds check and nothing more — and drops into the
    /// classic compacting walk. Long clauses are handled through one
    /// raw-literal slice per clause, so the record header is decoded
    /// once, not per literal visited.
    fn propagate(&mut self) -> Option<CRef> {
        let mut conflict = None;
        'queue: while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_code = (!p).code() as u32;
            let arena = &self.arena;
            let (start, len) = self
                .watches
                .lookup_clean(p.code(), |w| arena.is_freed(w.cref()));
            // Disjoint field borrows: the segment slice pins `watches`
            // during each walk stretch, enqueues go through the raw
            // parts.
            let Solver {
                arena,
                watches,
                assigns,
                vardata,
                trail,
                trail_lim,
                ..
            } = self;
            let level = trail_lim.len() as u32;
            let mut i = 0;
            // Stage A: the list is still intact — no compaction, no
            // stores except in-place blocker refreshes.
            let first_move = {
                let ws = watches.segment_mut(start, len);
                let mut first_move = None;
                while i < len {
                    let w = ws[i];
                    let blocker_val = lit_value(assigns, w.blocker);
                    // Cheapest exit: the blocker is already true.
                    if blocker_val == Value::True {
                        i += 1;
                        continue;
                    }
                    if w.is_binary() {
                        // The blocker is the whole rest of the clause.
                        if blocker_val == Value::Unassigned {
                            enqueue_raw(assigns, vardata, trail, level, w.blocker, w.cref());
                            i += 1;
                            continue;
                        }
                        self.qhead = trail.len();
                        conflict = Some(w.cref());
                        break 'queue;
                    }
                    let cref = w.cref();
                    // One raw slice per clause: the header is decoded
                    // here and never re-read during the scan.
                    let lits = arena.lits_raw_mut(cref);
                    // Make sure the false literal is at slot 1.
                    if lits[0] == false_code {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_code);
                    let first = Lit::from_code(lits[0] as usize);
                    let keep = Watcher::long(cref, first);
                    if first != w.blocker && lit_value(assigns, first) == Value::True {
                        ws[i] = keep;
                        i += 1;
                        continue;
                    }
                    // Look for a replacement watch.
                    let mut found = None;
                    for k in 2..lits.len() {
                        let lk = Lit::from_code(lits[k] as usize);
                        if lit_value(assigns, lk) != Value::False {
                            lits.swap(1, k);
                            found = Some((!lk).code());
                            break;
                        }
                    }
                    if let Some(code) = found {
                        first_move = Some((code, keep));
                        break;
                    }
                    // No replacement: the clause is unit or conflicting.
                    ws[i] = keep;
                    i += 1;
                    if lit_value(assigns, first) == Value::False {
                        self.qhead = trail.len();
                        conflict = Some(cref);
                        break 'queue;
                    }
                    enqueue_raw(assigns, vardata, trail, level, first, cref);
                }
                first_move
            };
            let Some((code, keep)) = first_move else {
                continue; // clean walk: the list is untouched
            };
            watches.push(code, keep);
            // Stage B: slot `i` just vacated — compact as we go. Every
            // further move unpins, pushes, and re-pins the segment.
            let mut j = i;
            i += 1;
            'moves: loop {
                let ws = watches.segment_mut(start, len);
                let pending;
                'watchers: loop {
                    if i >= len {
                        break 'moves;
                    }
                    let w = ws[i];
                    i += 1;
                    let blocker_val = lit_value(assigns, w.blocker);
                    if blocker_val == Value::True {
                        ws[j] = w;
                        j += 1;
                        continue;
                    }
                    if w.is_binary() {
                        ws[j] = w;
                        j += 1;
                        if blocker_val == Value::Unassigned {
                            enqueue_raw(assigns, vardata, trail, level, w.blocker, w.cref());
                        } else {
                            conflict = Some(w.cref());
                            ws.copy_within(i..len, j);
                            j += len - i;
                            break 'moves;
                        }
                        continue;
                    }
                    let cref = w.cref();
                    let lits = arena.lits_raw_mut(cref);
                    if lits[0] == false_code {
                        lits.swap(0, 1);
                    }
                    debug_assert_eq!(lits[1], false_code);
                    let first = Lit::from_code(lits[0] as usize);
                    let keep = Watcher::long(cref, first);
                    if first != w.blocker && lit_value(assigns, first) == Value::True {
                        ws[j] = keep;
                        j += 1;
                        continue;
                    }
                    let mut found = None;
                    for k in 2..lits.len() {
                        let lk = Lit::from_code(lits[k] as usize);
                        if lit_value(assigns, lk) != Value::False {
                            lits.swap(1, k);
                            found = Some((!lk).code());
                            break;
                        }
                    }
                    if let Some(code) = found {
                        pending = (code, keep);
                        break 'watchers;
                    }
                    ws[j] = keep;
                    j += 1;
                    if lit_value(assigns, first) == Value::False {
                        conflict = Some(cref);
                        ws.copy_within(i..len, j);
                        j += len - i;
                        break 'moves;
                    }
                    enqueue_raw(assigns, vardata, trail, level, first, cref);
                }
                let (code, keep) = pending;
                watches.push(code, keep);
            }
            self.watches.truncate(p.code(), j);
            if conflict.is_some() {
                self.qhead = self.trail.len();
                break;
            }
        }
        // Moving watches may have grown the flat storage.
        self.stats.watch_resident_bytes = self.watches.resident_bytes();
        self.stats.peak_watch_bytes = self
            .stats
            .peak_watch_bytes
            .max(self.stats.watch_resident_bytes);
        conflict
    }

    /// First-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first) and the backjump level.
    ///
    /// Reason clauses are iterated by value with the resolved variable
    /// skipped, so binary reasons work regardless of which arena slot
    /// the implied literal occupies.
    fn analyze(&mut self, mut confl: CRef) -> (Vec<Lit>, usize) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // slot 0 = UIP
        let mut path_c = 0usize;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        loop {
            if self.arena.is_learnt(confl) {
                self.bump_clause(confl);
                // A learnt clause back in a conflict: refresh its LBD
                // downwards (Glucose-style) so `reduce_db`'s glue
                // protection tracks how the clause behaves *now*.
                let glue = self.clause_lbd(confl);
                if glue > 0 && glue < self.arena.lbd(confl) {
                    self.arena.set_lbd(confl, glue);
                }
            }
            for idx in 0..self.arena.len(confl) {
                let q = self.arena.lit(confl, idx);
                if let Some(pl) = p {
                    if q.var() == pl.var() {
                        continue; // the resolved literal itself
                    }
                }
                let v = q.var();
                if !self.seen[v.index()] && self.vardata[v.index()].level > 0 {
                    self.seen[v.index()] = true;
                    self.bump_var(v);
                    if self.vardata[v.index()].level as usize >= self.decision_level() {
                        path_c += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Next literal to resolve on.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            self.seen[pl.var().index()] = false;
            path_c -= 1;
            p = Some(pl);
            if path_c == 0 {
                learnt[0] = !pl;
                break;
            }
            confl = self.vardata[pl.var().index()]
                .reason()
                .expect("non-decision literal on conflict path has a reason");
        }

        // Basic (non-recursive) clause minimization.
        let to_clear: Vec<Var> = learnt.iter().map(|l| l.var()).collect();
        let mut j = 1;
        for i in 1..learnt.len() {
            let x = learnt[i].var();
            let redundant = match self.vardata[x.index()].reason() {
                None => false,
                Some(r) => self.arena.lits(r).all(|q| {
                    q.var() == x
                        || self.seen[q.var().index()]
                        || self.vardata[q.var().index()].level == 0
                }),
            };
            if !redundant {
                learnt[j] = learnt[i];
                j += 1;
            }
        }
        learnt.truncate(j);
        for v in to_clear {
            self.seen[v.index()] = false;
        }

        // Find the backjump level and move its literal to slot 1 so the
        // clause watches stay correct after the backjump.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.vardata[learnt[i].var().index()].level
                    > self.vardata[learnt[max_i].var().index()].level
                {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
            self.vardata[learnt[1].var().index()].level as usize
        };
        (learnt, bt_level)
    }

    /// Number of distinct non-zero decision levels among `lits` — the
    /// LBD ("glue") of a clause about to be learnt. Uses a stamped
    /// level array, so no clearing between calls.
    fn lits_lbd(&mut self, lits: &[Lit]) -> u32 {
        let stamp = self.next_lbd_stamp();
        let mut glue = 0u32;
        for l in lits {
            let lvl = self.vardata[l.var().index()].level as usize;
            if lvl > 0 && self.lbd_stamp[lvl] != stamp {
                self.lbd_stamp[lvl] = stamp;
                glue += 1;
            }
        }
        glue
    }

    /// Recomputes the LBD of a (fully assigned) clause in the arena.
    fn clause_lbd(&mut self, cref: CRef) -> u32 {
        let stamp = self.next_lbd_stamp();
        let mut glue = 0u32;
        for idx in 0..self.arena.len(cref) {
            let lvl = self.vardata[self.arena.lit(cref, idx).var().index()].level as usize;
            if lvl > 0 && self.lbd_stamp[lvl] != stamp {
                self.lbd_stamp[lvl] = stamp;
                glue += 1;
            }
        }
        glue
    }

    /// A fresh stamp for one LBD count, with a stamp slot for every
    /// decision level up to the current one (the levels of the literals
    /// counted).
    fn next_lbd_stamp(&mut self) -> u64 {
        let levels = self.decision_level() + 1;
        if self.lbd_stamp.len() < levels {
            self.lbd_stamp.resize(levels, 0);
        }
        self.lbd_counter += 1;
        self.lbd_counter
    }

    fn bump_var(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > RESCALE_LIMIT {
            for a in &mut self.activity {
                *a *= 1.0 / RESCALE_LIMIT;
            }
            self.var_inc *= 1.0 / RESCALE_LIMIT;
            self.heap.rescaled();
        }
        self.heap.bumped(v, &self.activity);
    }

    fn bump_clause(&mut self, cref: CRef) {
        let act = self.arena.activity(cref) + self.cla_inc;
        self.arena.set_activity(cref, act);
        if act > CLA_RESCALE_LIMIT {
            for i in 0..self.learnt_refs.len() {
                let c = self.learnt_refs[i];
                let a = self.arena.activity(c);
                self.arena.set_activity(c, a / CLA_RESCALE_LIMIT);
            }
            self.cla_inc /= CLA_RESCALE_LIMIT;
        }
    }

    fn cancel_until(&mut self, level: usize) {
        if self.decision_level() <= level {
            return;
        }
        let target = self.trail_lim[level];
        for i in (target..self.trail.len()).rev() {
            let l = self.trail[i];
            let v = l.var();
            self.assigns[l.code()] = Value::Unassigned;
            self.assigns[(!l).code()] = Value::Unassigned;
            self.phase[v.index()] = l.is_positive();
            if !self.heap.contains(v) {
                self.heap.insert(v, &self.activity);
            }
        }
        self.trail.truncate(target);
        self.trail_lim.truncate(level);
        self.qhead = self.trail.len();
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.heap.pop_max(&self.activity) {
            if self.assigns[v.positive().code()] == Value::Unassigned {
                return Some(v);
            }
        }
        None
    }

    fn extract_model(&mut self) {
        self.model = self
            .assigns
            .chunks_exact(2)
            .map(|pair| match pair[0] {
                Value::True => Some(true),
                Value::False => Some(false),
                Value::Unassigned => None,
            })
            .collect();
    }

    fn analyze_final(&mut self, failing: Lit) {
        self.conflict_core.clear();
        self.conflict_core.push(failing);
        if self.decision_level() == 0 {
            return;
        }
        self.seen[failing.var().index()] = true;
        for i in (self.trail_lim[0]..self.trail.len()).rev() {
            let x = self.trail[i].var();
            if !self.seen[x.index()] {
                continue;
            }
            match self.vardata[x.index()].reason() {
                None => {
                    debug_assert!(self.vardata[x.index()].level > 0);
                    self.conflict_core.push(self.trail[i]);
                }
                Some(r) => {
                    for idx in 0..self.arena.len(r) {
                        let q = self.arena.lit(r, idx);
                        if q.var() != x && self.vardata[q.var().index()].level > 0 {
                            self.seen[q.var().index()] = true;
                        }
                    }
                }
            }
            self.seen[x.index()] = false;
        }
        self.seen[failing.var().index()] = false;
    }

    fn reduce_db(&mut self) {
        // Sort learnt clauses by activity, ascending; drop the weaker
        // half, sparing binary clauses, glue clauses (LBD ≤
        // GLUE_PROTECT), and locked clauses. Removal is lazy: the
        // freed clauses' watchers linger in smudged lists until the
        // next clean.
        let mut refs = std::mem::take(&mut self.learnt_refs);
        refs.sort_by(|&a, &b| {
            let ca = self.arena.activity(a);
            let cb = self.arena.activity(b);
            ca.partial_cmp(&cb).expect("activities are finite")
        });
        let half = refs.len() / 2;
        let mut kept = Vec::with_capacity(refs.len());
        for (i, &r) in refs.iter().enumerate() {
            let removable =
                self.arena.len(r) > 2 && self.arena.lbd(r) > GLUE_PROTECT && !self.is_locked(r);
            if i < half && removable {
                self.proof_delete_cref(r);
                self.detach_clause_lazy(r);
                self.free_clause(r);
            } else {
                kept.push(r);
            }
        }
        self.learnt_refs = kept;
        self.max_learnts *= 1.15;
        self.maybe_garbage_collect();
    }

    /// Whether the clause is the reason of a literal on the trail.
    ///
    /// The implied literal of a long reason clause always sits at slot
    /// 0 (`propagate` swaps it there before enqueueing), but the
    /// binary fast path enqueues the *watcher's blocker* without ever
    /// touching the arena — and the blocker may be either arena slot.
    /// Checking only slot 0 therefore missed locked binary reasons, a
    /// latent use-after-free for any reduction policy that can touch
    /// binary clauses.
    fn is_locked(&self, cref: CRef) -> bool {
        let slots = self.arena.len(cref).min(2);
        (0..slots).any(|i| {
            let l = self.arena.lit(cref, i);
            self.vardata[l.var().index()].reason == cref
                && lit_value(&self.assigns, l) == Value::True
        })
    }

    /// Reports a progress sample to the installed sink, if any.
    ///
    /// Shares the per-64-conflicts safe point with `budget_exhausted`
    /// (plus one call at solve exit to flush the tail), so the
    /// uninstalled cost is exactly one `Option` branch — no extra
    /// polling cadence, no timestamping.
    fn poll_progress(&mut self) {
        // Clone the sink out first: reporting borrows solver state
        // immutably while the marks update needs `&mut self`.
        let Some(sink) = self.limits.progress.sink() else {
            return;
        };
        let now = (
            self.stats.conflicts,
            self.stats.propagations,
            self.stats.restarts,
        );
        let marks = self.progress_marks;
        self.progress_marks = now;
        sink.progress(&sebmc_telemetry::Progress {
            conflicts: now.0 - marks.0,
            propagations: now.1 - marks.1,
            restarts: now.2 - marks.2,
            trail_depth: self.trail.len(),
            learnts: self.learnt_refs.len(),
            live_bytes: self.stats.live_bytes(),
        });
    }

    fn budget_exhausted(&self) -> bool {
        if !self.limits.fault.is_none() {
            use sebmc_logic::fault::{FaultSite, FaultVerdict};
            // The injected cancel lands on the same flag a supervisor
            // watches, so a spurious cancellation is indistinguishable
            // from a real one downstream — exactly what the fault
            // harness wants to exercise.
            let flag = self.limits.cancel.as_deref();
            if self.limits.fault.hit(FaultSite::Solver, flag) == FaultVerdict::Oom {
                return true;
            }
        }
        if let Some(mc) = self.limits.max_conflicts {
            if self.stats.conflicts >= mc {
                return true;
            }
        }
        if let Some(mp) = self.limits.max_propagations {
            if self.stats.propagations >= mp {
                return true;
            }
        }
        if let Some(mb) = self.limits.max_live_bytes {
            if self.stats.live_bytes() >= mb {
                return true;
            }
        }
        if let Some(ref c) = self.limits.cancel {
            if c.load(std::sync::atomic::Ordering::Relaxed) {
                return true;
            }
        }
        if let Some(d) = self.limits.deadline {
            if Instant::now() >= d {
                return true;
            }
        }
        false
    }

    fn search(&mut self, restart_budget: u64, assumptions: &[Lit]) -> SearchOutcome {
        let mut conflicts_here = 0u64;
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    // Conflict by top-level propagation alone: the
                    // empty clause is RUP and concludes the proof.
                    self.proof_finalize(&[]);
                    return SearchOutcome::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.proof_add(&learnt);
                // Glue is a property of the pre-backjump assignment:
                // compute it before `cancel_until` resets the levels.
                let glue = self.lits_lbd(&learnt);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], None);
                } else {
                    let asserting = learnt[0];
                    let cref = self.alloc_clause(&learnt, true);
                    self.arena.set_lbd(cref, glue);
                    self.bump_clause(cref);
                    self.unchecked_enqueue(asserting, Some(cref));
                }
                self.var_inc /= VAR_DECAY;
                self.cla_inc /= CLA_DECAY;
                if self.stats.conflicts.is_multiple_of(64) {
                    self.poll_progress();
                    if self.budget_exhausted() {
                        self.cancel_until(0);
                        return SearchOutcome::Unknown;
                    }
                }
            } else {
                if conflicts_here >= restart_budget {
                    self.cancel_until(0);
                    return SearchOutcome::Restart;
                }
                if self.budget_exhausted() {
                    self.cancel_until(0);
                    return SearchOutcome::Unknown;
                }
                if self.learnt_refs.len() as f64 >= self.max_learnts + (self.trail.len() as f64) {
                    self.reduce_db();
                }
                let dl = self.decision_level();
                if dl < assumptions.len() {
                    let p = assumptions[dl];
                    match lit_value(&self.assigns, p) {
                        Value::True => {
                            self.new_decision_level();
                        }
                        Value::False => {
                            self.analyze_final(p);
                            // Finalize with the negated core: assuming
                            // the core literals replays the conflict's
                            // reason cone under unit propagation.
                            if self.proof.is_some() {
                                let neg: Vec<Lit> =
                                    self.conflict_core.iter().map(|&a| !a).collect();
                                self.proof_finalize(&neg);
                            }
                            return SearchOutcome::Unsat;
                        }
                        Value::Unassigned => {
                            self.new_decision_level();
                            self.unchecked_enqueue(p, None);
                        }
                    }
                    continue;
                }
                self.stats.decisions += 1;
                match self.pick_branch_var() {
                    None => {
                        self.extract_model();
                        return SearchOutcome::Sat;
                    }
                    Some(v) => {
                        let phase = self.phase[v.index()];
                        self.new_decision_level();
                        self.unchecked_enqueue(v.lit(phase), None);
                    }
                }
            }
        }
    }
}

enum SearchOutcome {
    Sat,
    Unsat,
    Unknown,
    Restart,
}

/// A batch of problem clauses being added to a [`Solver`]; see
/// [`Solver::batch`]. Dropping it finishes it.
#[derive(Debug)]
pub struct ClauseBatch<'s> {
    solver: &'s mut Solver,
    /// Index in the problem-clause list of the batch's first clause.
    first: usize,
    finished: bool,
}

impl ClauseBatch<'_> {
    /// Adds a clause, normalized as [`Solver::add_clause`] does. A unit
    /// is enqueued without propagation, and a longer clause is stored
    /// unwatched until [`ClauseBatch::finish`]. Returns `false` if the
    /// solver is inconsistent (an empty clause was derived).
    pub fn add(&mut self, lits: &[Lit]) -> bool {
        let s = &mut *self.solver;
        if !s.ok {
            return false;
        }
        if !s.normalize(lits.iter().copied()) {
            return true;
        }
        match s.filtered.len() {
            0 => s.ok = false,
            1 => s.unchecked_enqueue(s.filtered[0], None),
            _ => {
                let filtered = std::mem::take(&mut s.filtered);
                s.store_clause(&filtered, false);
                s.filtered = filtered;
            }
        }
        s.ok
    }

    /// Watches and attaches every clause of the batch and propagates
    /// its units. Returns `false` if the solver is inconsistent; a
    /// conflict found here logs the empty clause.
    pub fn finish(mut self) -> bool {
        self.finished = true;
        self.solver.finish_batch(self.first)
    }
}

impl Drop for ClauseBatch<'_> {
    fn drop(&mut self) {
        if !self.finished {
            self.solver.finish_batch(self.first);
        }
    }
}

/// Assigns `p` and records its reason/level — the raw parts of
/// `unchecked_enqueue`, usable while other solver fields are borrowed
/// (propagation walks a watch segment as a slice).
#[inline]
fn enqueue_raw(
    assigns: &mut [Value],
    vardata: &mut [VarData],
    trail: &mut Vec<Lit>,
    level: u32,
    p: Lit,
    reason: CRef,
) {
    debug_assert_eq!(lit_value(assigns, p), Value::Unassigned);
    assigns[p.code()] = Value::True;
    assigns[(!p).code()] = Value::False;
    vardata[p.var().index()] = VarData { reason, level };
    trail.push(p);
}

#[inline]
fn lit_value(assigns: &[Value], l: Lit) -> Value {
    assigns[l.code()]
}

/// The Luby restart sequence: `luby(y, i)` is `y^k` where `k` follows
/// the classic 1,1,2,1,1,2,4,… pattern.
fn luby(y: f64, mut x: u64) -> f64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    y.powi(seq as i32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebmc_logic::dimacs;

    fn vars(s: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| s.new_var().positive()).collect()
    }

    #[test]
    fn luby_sequence_prefix() {
        let got: Vec<f64> = (0..15).map(|i| luby(2.0, i)).collect();
        let expect = [
            1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 1.0, 1.0, 2.0, 1.0, 1.0, 2.0, 4.0, 8.0,
        ];
        assert_eq!(got, expect);
    }

    #[test]
    fn trivial_sat_and_model() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[0].var()), Some(false));
        assert_eq!(s.value(v[1].var()), Some(true));
    }

    #[test]
    fn var_data_takes_eight_bytes() {
        assert_eq!(std::mem::size_of::<VarData>(), 8);
        let data = VarData {
            reason: NO_REASON,
            level: 0,
        };
        assert_eq!(data.reason(), None);
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn empty_clause_is_unsat() {
        let mut s = Solver::new();
        assert!(!s.add_clause([]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn contradictory_units_unsat() {
        let mut s = Solver::new();
        let v = vars(&mut s, 1);
        assert!(s.add_clause([v[0]]));
        assert!(!s.add_clause([!v[0]]));
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn tautologies_and_duplicates_are_harmless() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        assert!(s.add_clause([v[0], !v[0]]));
        assert!(s.add_clause([v[1], v[1], v[1]]));
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[1].var()), Some(true));
    }

    /// All binary clauses of an XOR chain: forces real search, and —
    /// post-arena — exercises the binary fast path exclusively.
    #[test]
    fn xor_chain_sat() {
        let mut s = Solver::new();
        let n = 20;
        let v = vars(&mut s, n);
        // v[i] xor v[i+1] = true  ⇔  (v[i] ∨ v[i+1]) ∧ (¬v[i] ∨ ¬v[i+1])
        for i in 0..n - 1 {
            s.add_clause([v[i], v[i + 1]]);
            s.add_clause([!v[i], !v[i + 1]]);
        }
        s.add_clause([v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        for (i, l) in v.iter().enumerate() {
            assert_eq!(s.value(l.var()), Some(i % 2 == 0), "position {i}");
        }
    }

    /// Pigeonhole principle PHP(n+1, n): n+1 pigeons into n holes is
    /// UNSAT and requires clause learning to finish quickly.
    fn pigeonhole(pigeons: usize, holes: usize) -> (Solver, Vec<Vec<Lit>>) {
        let mut s = Solver::new();
        let mut p = Vec::new();
        for _ in 0..pigeons {
            p.push(vars(&mut s, holes));
        }
        // Every pigeon in some hole.
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        // No two pigeons share a hole.
        #[allow(clippy::needless_range_loop)]
        for h in 0..holes {
            for i in 0..pigeons {
                for j in i + 1..pigeons {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        (s, p)
    }

    #[test]
    fn pigeonhole_unsat() {
        let (mut s, _) = pigeonhole(5, 4);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn pigeonhole_sat_when_enough_holes() {
        let (mut s, p) = pigeonhole(4, 4);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Verify the model is a valid assignment of pigeons to holes.
        for (i, row) in p.iter().enumerate() {
            let hole = row.iter().position(|&l| s.lit_value_model(l) == Some(true));
            assert!(hole.is_some(), "pigeon {i} unplaced");
        }
    }

    #[test]
    fn assumptions_flip_results() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[1], v[2]]);
        assert_eq!(s.solve_with(&[v[0], !v[2]]), SolveResult::Unsat);
        // Without the contradictory assumption pair it is satisfiable.
        assert_eq!(s.solve_with(&[v[0]]), SolveResult::Sat);
        assert_eq!(s.value(v[2].var()), Some(true));
        // The solver remains reusable after an assumption failure.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn failed_assumptions_form_a_core() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause([!v[0], !v[1]]);
        // v[2], v[3] are irrelevant.
        let r = s.solve_with(&[v[2], v[0], v[3], v[1]]);
        assert_eq!(r, SolveResult::Unsat);
        let core = s.failed_assumptions().to_vec();
        assert!(core.contains(&v[0]) || core.contains(&v[1]));
        assert!(!core.contains(&v[2]));
        assert!(!core.contains(&v[3]));
        // The core itself must be sufficient for UNSAT.
        assert_eq!(s.solve_with(&core), SolveResult::Unsat);
    }

    #[test]
    fn assumption_false_at_level_zero() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([!v[0]]);
        assert_eq!(s.solve_with(&[v[0]]), SolveResult::Unsat);
        assert_eq!(s.failed_assumptions(), &[v[0]]);
        assert_eq!(s.solve_with(&[v[1]]), SolveResult::Sat);
    }

    #[test]
    fn conflict_budget_yields_unknown() {
        // A hard pigeonhole instance with a 1-conflict budget.
        let (mut s, _) = pigeonhole(8, 7);
        s.set_limits(Limits {
            max_conflicts: Some(1),
            ..Limits::none()
        });
        assert_eq!(s.solve(), SolveResult::Unknown);
        // Removing the budget lets it finish.
        s.set_limits(Limits::none());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn deadline_in_past_yields_unknown() {
        let (mut s, _) = pigeonhole(9, 8);
        s.set_limits(Limits {
            deadline: Some(Instant::now()),
            ..Limits::none()
        });
        assert_eq!(s.solve(), SolveResult::Unknown);
    }

    #[test]
    fn simplify_removes_satisfied_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], v[2]]);
        s.add_clause([v[1], v[2]]);
        let before = s.stats().live_lits;
        s.add_clause([v[0]]); // unit: satisfies two clauses
        assert!(s.simplify());
        assert!(s.stats().live_lits < before, "memory must shrink");
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn activation_literal_group_retraction() {
        // The jSAT blocking-clause pattern: clauses guarded by an
        // activation literal, retracted by asserting its negation.
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        let act = s.new_var().positive();
        // Guarded constraint: act → (v0 ∧ v1 ∧ v2 each false)
        s.add_clause([!act, !v[0]]);
        s.add_clause([!act, !v[1]]);
        s.add_clause([!act, !v[2]]);
        s.add_clause([v[0], v[1], v[2]]);
        // Active: the guarded units contradict the ternary clause.
        assert_eq!(s.solve_with(&[act]), SolveResult::Unsat);
        // Inactive: satisfiable.
        assert_eq!(s.solve(), SolveResult::Sat);
        // Retract permanently and reclaim memory.
        let lits_before = s.stats().live_lits;
        s.add_clause([!act]);
        assert!(s.simplify());
        assert!(s.stats().live_lits < lits_before);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// The acceptance check of the arena refactor: retracting guarded
    /// clauses must shrink the *resident* clause database, not just a
    /// live-size counter — i.e. the compactor physically frees what the
    /// seed solver only tombstoned.
    #[test]
    fn gc_physically_reclaims_retired_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 64);
        let act = s.new_var().positive();
        // A permanent base formula.
        for w in v.windows(2) {
            s.add_clause([!w[0], w[1]]);
        }
        // Many wide guarded "blocking" clauses, jSAT style.
        for chunk in v.chunks(8) {
            let mut c = vec![!act];
            c.extend(chunk.iter().map(|&l| !l));
            s.add_clause(c);
        }
        let resident_full = s.clause_db_resident_bytes();
        let live_full = s.clause_db_live_bytes();
        assert_eq!(resident_full, live_full, "no garbage yet");
        // Retract the guard: every blocking clause dies.
        s.add_clause([!act]);
        assert!(s.simplify());
        let resident_after = s.clause_db_resident_bytes();
        assert!(
            resident_after < resident_full,
            "GC must shrink resident bytes ({resident_full} -> {resident_after})"
        );
        assert_eq!(
            s.clause_db_live_bytes(),
            resident_after,
            "post-GC arena is garbage-free"
        );
        assert!(s.stats().gc_runs > 0, "the compactor actually ran");
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// A solver that has just compacted must keep solving correctly
    /// (watchers, reasons, and clause lists were all rewritten).
    #[test]
    fn solving_continues_after_explicit_gc() {
        let (mut s, _) = pigeonhole(6, 5);
        assert_eq!(s.solve(), SolveResult::Unsat);
        let (mut s, p) = pigeonhole(4, 4);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Force garbage + compaction, then keep using the solver.
        s.add_clause([p[0][0]]);
        assert!(s.simplify());
        s.garbage_collect();
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.lit_value_model(p[0][0]), Some(true));
    }

    #[test]
    fn model_satisfies_formula() {
        // Deterministic random 3-SAT at ratio ~4, checked against the
        // model evaluator.
        let mut state = 0xdead_beefu64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for round in 0..30 {
            let n = 12 + (round % 5);
            let m = n * 4;
            let mut s = Solver::new();
            let v = vars(&mut s, n);
            let mut cnf = Cnf::new();
            for _ in 0..m {
                let mut c = Vec::new();
                for _ in 0..3 {
                    let var = (rnd() % n as u64) as usize;
                    let pos = rnd() % 2 == 0;
                    c.push(if pos { v[var] } else { !v[var] });
                }
                cnf.add_clause(c.iter().copied());
                s.add_clause(c);
            }
            if s.solve() == SolveResult::Sat {
                let assignment: Vec<bool> = (0..n)
                    .map(|i| s.value(Var::new(i as u32)).unwrap_or(false))
                    .collect();
                assert!(cnf.eval(&assignment), "model must satisfy the formula");
            }
        }
    }

    #[test]
    fn agrees_with_brute_force_on_small_random_instances() {
        let mut state = 0x0bad_cafeu64;
        let mut rnd = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..120 {
            let n = 4 + (rnd() % 5) as usize; // 4..8 vars
            let m = (rnd() % (3 * n as u64 + 1)) as usize + 1;
            let mut cnf = Cnf::new();
            for _ in 0..m {
                let len = 1 + (rnd() % 3) as usize;
                let mut c = Vec::new();
                for _ in 0..len {
                    let var = Var::new((rnd() % n as u64) as u32);
                    c.push(var.lit(rnd() % 2 == 0));
                }
                cnf.add_clause(c);
            }
            cnf.ensure_vars(n);
            let mut s = Solver::new();
            assert!(s.num_vars() == 0);
            let consistent = s.add_cnf(&cnf);
            let got = if consistent {
                s.solve()
            } else {
                SolveResult::Unsat
            };
            let expect = cnf.brute_force_satisfiable();
            assert_eq!(
                got.is_sat(),
                expect,
                "disagreement on {}",
                dimacs::to_string(&cnf)
            );
        }
    }

    #[test]
    fn incremental_clause_addition_after_solve() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause([v[0], v[1], v[2], v[3]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        // Progressive strengthening eventually makes it UNSAT.
        s.add_clause([!v[0]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([!v[1]]);
        s.add_clause([!v[2]]);
        assert_eq!(s.solve(), SolveResult::Sat);
        assert_eq!(s.value(v[3].var()), Some(true));
        s.add_clause([!v[3]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Once UNSAT without assumptions, always UNSAT.
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn learnt_db_reduction_keeps_soundness() {
        // A formula large enough to trigger reductions with a small cap.
        let (mut s, _) = pigeonhole(7, 6);
        s.max_learnts = 10.0;
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().removed_clauses > 0, "reduction should trigger");
    }

    #[test]
    fn peak_memory_is_tracked() {
        let (mut s, _) = pigeonhole(6, 5);
        let initial = s.stats().live_lits;
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().peak_live_lits >= initial);
        // Exact bytes include headers, so they exceed 4 bytes/literal.
        assert!(s.stats().peak_bytes() > s.stats().peak_live_lits * 4);
        assert!(s.stats().peak_live_words >= s.stats().live_words);
    }

    #[test]
    fn byte_limit_yields_unknown() {
        let (mut s, _) = pigeonhole(8, 7);
        let base = s.stats().live_bytes();
        s.set_limits(Limits {
            max_live_bytes: Some(base + 32),
            ..Limits::none()
        });
        // Learnt clauses quickly exceed the byte cap.
        assert_eq!(s.solve(), SolveResult::Unknown);
        s.set_limits(Limits::none());
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn cancel_flag_aborts_solve() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let (mut s, _) = pigeonhole(8, 7);
        let flag = Arc::new(AtomicBool::new(false));
        s.set_limits(Limits {
            cancel: Some(Arc::clone(&flag)),
            ..Limits::none()
        });
        // Un-fired flag: the solve completes normally.
        assert_eq!(s.solve(), SolveResult::Unsat);
        // Fired flag: a fresh (hard) solve aborts with Unknown.
        let (mut s2, _) = pigeonhole(9, 8);
        flag.store(true, Ordering::Relaxed);
        s2.set_limits(Limits {
            cancel: Some(flag),
            ..Limits::none()
        });
        assert_eq!(s2.solve(), SolveResult::Unknown);
    }

    #[test]
    fn ensure_vars_and_add_cnf() {
        let mut s = Solver::new();
        let cnf = dimacs::parse("p cnf 3 2\n1 -2 0\n2 3 0\n").unwrap();
        assert!(s.add_cnf(&cnf));
        assert_eq!(s.num_vars(), 3);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    /// Regression (ISSUE 3): the binary fast path enqueues the
    /// watcher's *blocker*, which may live at arena slot 1, but
    /// `is_locked` used to inspect slot 0 only — so a binary reason
    /// clause looked free and could be deleted under any reduction
    /// policy that touches binaries (LBD-aware reduction,
    /// subsumption). This test fails on the pre-PR solver.
    #[test]
    fn binary_reason_locked_via_fast_path() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause([a, b]);
        let cref = s.clauses[0];
        assert_eq!(s.arena.lit(cref, 0), a, "sorted: a sits at slot 0");
        // Decide ¬a; the fast path implies b with the clause as
        // reason, leaving the implied literal at slot 1.
        s.new_decision_level();
        s.unchecked_enqueue(!a, None);
        assert!(s.propagate().is_none());
        assert_eq!(s.arena.lit(cref, 1), b, "implied literal is at slot 1");
        assert_eq!(s.vardata[b.var().index()].reason(), Some(cref));
        assert!(
            s.is_locked(cref),
            "a binary clause implying via the fast path is locked"
        );
        s.cancel_until(0);
        assert!(!s.is_locked(cref), "unlocked once the trail is undone");
    }

    /// Regression (ISSUE 3): deriving the empty clause mid-`simplify`
    /// used to clear the taken refs vector and return, leaking every
    /// already-kept and not-yet-visited clause from its owning list
    /// and desyncing `Stats` from the arena. The solver must end up
    /// `!ok` but internally consistent.
    #[test]
    fn simplify_empty_clause_mid_pass_keeps_lists_consistent() {
        let mut s = Solver::new();
        let v = vars(&mut s, 6);
        s.add_clause([v[2], v[3], v[4]]); // kept before the empty one
        s.add_clause([v[0], v[1]]); // will become empty
        s.alloc_clause(&[v[4], v[5]], true); // learnt list processed after
                                             // Falsify v0 and v1 directly, behind propagation's back — the
                                             // only way a fully-falsified clause can survive to `simplify`
                                             // with intact watch invariants.
        s.assigns[v[0].code()] = Value::False;
        s.assigns[(!v[0]).code()] = Value::True;
        s.assigns[v[1].code()] = Value::False;
        s.assigns[(!v[1]).code()] = Value::True;
        assert!(!s.simplify());
        assert!(!s.is_ok());
        // Both lists still own exactly their live clauses...
        assert_eq!(s.clauses.len(), 1);
        assert_eq!(s.learnt_refs.len(), 1);
        for &c in s.clauses.iter().chain(&s.learnt_refs) {
            assert!(!s.arena.is_freed(c), "lists never hold freed clauses");
        }
        // ...and the stats agree with the arena.
        assert_eq!(s.stats.learnts as usize, s.learnt_refs.len());
        assert_eq!(s.stats.live_words, s.arena.live_words());
        let total_lits: usize = s
            .clauses
            .iter()
            .chain(&s.learnt_refs)
            .map(|&c| s.arena.len(c))
            .sum();
        assert_eq!(s.stats.live_lits, total_lits);
        assert_eq!(s.solve(), SolveResult::Unsat);
    }

    #[test]
    fn learnt_clauses_record_their_glue() {
        let (mut s, _) = pigeonhole(6, 5);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().learnts > 0 || !s.learnt_refs.is_empty());
        for &c in &s.learnt_refs {
            assert!(s.arena.lbd(c) >= 1, "every learnt clause has a glue");
        }
    }

    #[test]
    fn reduce_db_protects_glue_and_spares_locked() {
        let mut s = Solver::new();
        let v = vars(&mut s, 12);
        // Arena ballast so the reduction's safe point stays below the
        // GC threshold and the CRefs below remain stable.
        for w in v.windows(4).take(8) {
            s.add_clause(w.iter().copied());
        }
        // Three wide, high-LBD learnts with rising activity and one
        // zero-activity glue clause (LBD 2): the glue clause sorts
        // weakest but must survive the reduction.
        let mut wide = Vec::new();
        for (i, chunk) in v.chunks(3).take(3).enumerate() {
            let c = s.alloc_clause(chunk, true);
            s.arena.set_lbd(c, 5);
            s.arena.set_activity(c, 1.0 + i as f32);
            wide.push(c);
        }
        let glue = s.alloc_clause(&[v[9], v[10], v[11]], true);
        s.arena.set_lbd(glue, 2);
        s.reduce_db();
        assert!(s.learnt_refs.contains(&glue), "glue clause survives");
        assert!(!s.arena.is_freed(glue));
        assert!(
            s.arena.is_freed(wide[0]),
            "the weakest high-LBD clause is dropped"
        );
        assert_eq!(s.stats().removed_clauses, 1);
        // The lazily-detached watchers must not disturb later solving.
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn simplify_subsumes_superset_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], v[1], v[2]]); // subsumed
        s.add_clause([v[2], v[3]]);
        assert!(s.simplify());
        assert_eq!(s.num_clauses(), 2);
        assert_eq!(s.stats().subsumed_clauses, 1);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn simplify_strengthens_by_self_subsumption() {
        let mut s = Solver::new();
        let v = vars(&mut s, 4);
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[0], v[1], v[2]]); // resolves to (v1 ∨ v2)
        let lits_before = s.stats().live_lits;
        assert!(s.simplify());
        assert_eq!(s.stats().strengthened_lits, 1);
        assert_eq!(s.stats().live_lits, lits_before - 1);
        assert_eq!(s.num_clauses(), 2);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn strengthening_to_unit_propagates() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([v[0], v[1]]);
        s.add_clause([!v[0], v[1]]); // resolves to the unit (v1)
        s.add_clause([!v[1], v[2]]);
        assert!(s.simplify());
        // The strengthened unit fired and propagated through the
        // implication: v1 and v2 are now top-level facts.
        assert_eq!(lit_value(&s.assigns, v[1]), Value::True);
        assert_eq!(lit_value(&s.assigns, v[2]), Value::True);
        assert_eq!(s.solve(), SolveResult::Sat);
    }

    #[test]
    fn learnt_subsumer_never_deletes_problem_clauses() {
        let mut s = Solver::new();
        let v = vars(&mut s, 3);
        s.add_clause([v[0], v[1], v[2]]);
        // A learnt clause subsuming the problem clause must not delete
        // it (reduce_db may drop the learnt witness later).
        s.alloc_clause(&[v[0], v[1]], true);
        assert!(s.simplify());
        assert_eq!(s.num_clauses(), 1, "problem clause survives");
        assert_eq!(s.stats().subsumed_clauses, 0);
    }

    #[test]
    fn watch_storage_bytes_are_tracked() {
        let (mut s, _) = pigeonhole(6, 5);
        assert!(s.stats().watch_resident_bytes > 0);
        assert_eq!(
            s.stats().watch_resident_bytes,
            s.watch_db_resident_bytes(),
            "stats mirror the live structure"
        );
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.stats().peak_watch_bytes >= s.stats().watch_resident_bytes);
        assert!(s.stats().peak_watch_bytes > 0);
    }

    #[test]
    fn stats_accumulate() {
        let (mut s, _) = pigeonhole(5, 4);
        s.solve();
        let st = s.stats().clone();
        assert!(st.decisions > 0);
        assert!(st.conflicts > 0);
        assert!(st.propagations > 0);
    }

    // ----- proof logging ------------------------------------------------

    use sebmc_proof::{DratWriter, StreamingChecker};

    /// Pigeonhole with a streaming checker: the Unsat verdict must be
    /// fully machine-checked, and the byte accounting must be exact.
    #[test]
    fn unsat_proof_is_checked_on_the_fly() {
        let mut s = Solver::new();
        s.set_proof_sink(Box::new(StreamingChecker::new()));
        let mut p = Vec::new();
        for _ in 0..5 {
            p.push(vars(&mut s, 4));
        }
        for row in &p {
            s.add_clause(row.iter().copied());
        }
        #[allow(clippy::needless_range_loop)]
        for h in 0..4 {
            for i in 0..5 {
                for j in i + 1..5 {
                    s.add_clause([!p[i][h], !p[j][h]]);
                }
            }
        }
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.proof_certifies(&[]), "empty-assumption Unsat certified");
        let cert = s.proof_summary().expect("checking sink");
        assert_eq!(cert.failed_checks, 0, "every lemma RUP");
        assert_eq!(cert.missing_deletes, 0, "deletion log in sync");
        assert!(cert.lemmas_checked > 0, "conflicts produced lemmas");
        assert!(cert.originals > 0);
        assert_eq!(cert.proof_bytes as usize, s.proof_bytes());
        assert_eq!(s.stats().peak_proof_bytes, s.proof_bytes());
        assert!(s.proof_bytes() > 0);
    }

    /// Unsat under assumptions finalizes with the failed-assumption
    /// core; the certificate matches the assumption set (and supersets)
    /// while the solver stays incrementally usable.
    #[test]
    fn assumption_core_is_finalized_and_certified() {
        let mut s = Solver::new();
        s.set_proof_sink(Box::new(StreamingChecker::new()));
        let v = vars(&mut s, 4);
        s.add_clause([!v[0], v[1]]);
        s.add_clause([!v[1], v[2]]);
        assert_eq!(s.solve_with(&[v[0], !v[2]]), SolveResult::Unsat);
        assert!(
            s.proof_certifies(&[v[0], !v[2]]),
            "core clause covers the assumptions"
        );
        assert!(
            s.proof_certifies(&[v[0], !v[2], v[3]]),
            "supersets certified too"
        );
        assert!(
            !s.proof_certifies(&[v[3]]),
            "unrelated assumptions are not covered"
        );
        // Still usable, and the next Unsat re-finalizes.
        assert_eq!(s.solve_with(&[v[0]]), SolveResult::Sat);
        assert_eq!(s.solve_with(&[v[1], !v[2]]), SolveResult::Unsat);
        assert!(s.proof_certifies(&[v[1], !v[2]]));
        let cert = s.proof_summary().unwrap();
        assert_eq!(cert.failed_checks, 0);
        assert!(cert.unsat_proofs >= 2, "one finalization per Unsat solve");
    }

    /// The delicate interactions — lazy watch deletion (`reduce_db`),
    /// wholesale simplify rebuilds, subsumption/strengthening rewrites
    /// and compacting GC — must leave the deletion log keyed purely by
    /// content, with nothing missing and nothing failing.
    #[test]
    fn churny_solving_keeps_the_proof_stream_in_sync() {
        let mut s = Solver::new();
        s.set_proof_sink(Box::new(StreamingChecker::new()));
        let v = vars(&mut s, 12);
        // Subsumption + strengthening food.
        s.add_clause([v[0], v[1]]);
        s.add_clause([v[0], v[1], v[2]]); // subsumed
        s.add_clause([!v[0], v[1], v[3]]); // strengthened on v0
        for w in v.windows(4).take(8) {
            s.add_clause(w.iter().copied());
        }
        assert!(s.simplify());
        assert!(s.stats().subsumed_clauses > 0, "subsumption fired");
        assert!(s.stats().strengthened_lits > 0, "strengthening fired");
        // Learnt churn + reductions, then a unit that guts the formula
        // and forces GC.
        s.set_max_learnts(4.0);
        assert_eq!(s.solve(), SolveResult::Sat);
        s.add_clause([v[1]]);
        assert!(s.simplify());
        s.garbage_collect();
        assert_eq!(s.solve(), SolveResult::Sat);
        let cert = s.proof_summary().unwrap();
        assert_eq!(cert.failed_checks, 0, "all rewrites RUP");
        assert_eq!(
            cert.missing_deletes, 0,
            "content-keyed deletions survive lazy watches and GC"
        );
        assert!(cert.deletions > 0, "the churn actually deleted clauses");
    }

    /// jSAT-style activation-literal retraction under proof logging:
    /// guarded clauses retired by `simplify` must be deleted from the
    /// proof exactly once, and later Unsat calls still certify.
    #[test]
    fn activation_retraction_is_proof_logged() {
        let mut s = Solver::new();
        s.set_proof_sink(Box::new(StreamingChecker::new()));
        let v = vars(&mut s, 3);
        let act = s.new_var().positive();
        s.add_clause([!act, !v[0]]);
        s.add_clause([!act, !v[1]]);
        s.add_clause([!act, !v[2]]);
        s.add_clause([v[0], v[1], v[2]]);
        assert_eq!(s.solve_with(&[act]), SolveResult::Unsat);
        assert!(s.proof_certifies(&[act]));
        s.add_clause([!act]);
        assert!(s.simplify());
        assert_eq!(s.solve(), SolveResult::Sat);
        let cert = s.proof_summary().unwrap();
        assert_eq!(cert.failed_checks, 0);
        assert_eq!(cert.missing_deletes, 0);
    }

    /// A write-only DRAT sink accounts bytes but certifies nothing.
    #[test]
    fn write_only_sink_accounts_but_never_certifies() {
        let mut s = Solver::new();
        s.set_proof_sink(Box::new(DratWriter::new(std::io::sink())));
        let v = vars(&mut s, 2);
        s.add_clause([v[0]]);
        s.add_clause([!v[0]]);
        assert_eq!(s.solve(), SolveResult::Unsat);
        assert!(s.proof_bytes() > 0);
        assert!(s.proof_summary().is_none());
        assert!(!s.proof_certifies(&[]));
    }

    #[test]
    #[should_panic(expected = "before the first clause")]
    fn proof_sink_must_be_installed_first() {
        let mut s = Solver::new();
        let v = vars(&mut s, 2);
        s.add_clause([v[0], v[1]]);
        s.set_proof_sink(Box::new(StreamingChecker::new()));
    }
}
