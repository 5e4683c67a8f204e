//! jSAT — the paper's special-purpose decision procedure.
//!
//! Motivated by the failure of general-purpose QBF solvers on
//! formulation (2), the paper develops jSAT: a DPLL-based procedure
//! that only ever holds formula (4) in memory,
//!
//! `I(Z₀) ∧ TR(U, V) ∧ F(Z_k)`
//!
//! together with one concrete assignment per time frame. The pair
//! `(U, V)` is *implicitly* associated with the current/next state of
//! the frontier frame instead of carrying the `(U↔Zᵢ)∧(V↔Zᵢ₊₁)` terms
//! of (2). Operationally this is a depth-first search of the state
//! graph from the initial states toward the target:
//!
//! 1. decide `Z₀ ⊨ I` (a SAT call on `I(U)`);
//! 2. with `U` assumed equal to the frontier state, ask the incremental
//!    CDCL solver for a `TR` successor (`F`-constrained at the last
//!    frame);
//! 3. on success advance the frontier; on exhaustion *block* the
//!    refuted state behind a per-frame activation literal and
//!    backtrack, retiring the frame's blocking clauses so memory stays
//!    proportional to the path length.
//!
//! Two refinements beyond the paper's sketch are configurable
//! ([`JSatConfig`]) and ablated in experiment E5: a bounded
//! failed-state cache ("state σ cannot reach F in r steps") and the
//! periodic `simplify()` garbage collection of retired blocking
//! clauses.
//!
//! As a [`Session`], jSAT keeps formula (4), the solver's learnt
//! clauses *and* the failed-state cache alive across bounds — cached
//! "cannot reach F in r steps" facts are bound-independent, so a
//! deepening loop re-enters the search with everything it refuted at
//! smaller bounds already pruned.

use std::collections::{HashMap, HashSet};

use sebmc_logic::{Cnf, Lit, VarAlloc};
use sebmc_model::{Model, Trace};
use sebmc_sat::{SolveResult, Solver};

use crate::engine::{BmcOutcome, BmcResult, Budget, Engine, Semantics, Session};
use crate::frame::FrameEncoder;
use crate::session::{Formulation, SessionCore, SolverMark};

/// Tuning knobs of the jSAT procedure (ablated in experiment E5).
#[derive(Clone, Debug)]
pub struct JSatConfig {
    /// Cache "state σ cannot reach F within/in-exactly r steps" facts
    /// and prune repeat visits. The cache is the difference between
    /// exponential path enumeration and state-graph search on UNSAT
    /// instances.
    pub use_failed_cache: bool,
    /// Maximum cache entries before the cache is wholesale cleared
    /// (bounded memory, as the paper's space argument demands).
    pub max_cache_entries: usize,
    /// Run the solver's satisfied-clause garbage collection after this
    /// many frame pops (retired blocking clauses are physically freed).
    pub simplify_interval: u64,
}

impl Default for JSatConfig {
    fn default() -> Self {
        JSatConfig {
            use_failed_cache: true,
            max_cache_entries: 1 << 20,
            simplify_interval: 64,
        }
    }
}

/// Search statistics of a jSAT run (cumulative over a session).
#[derive(Clone, Debug, Default)]
pub struct JSatStats {
    /// Incremental SAT calls made.
    pub sat_calls: u64,
    /// Successor states enumerated.
    pub successors: u64,
    /// Frames popped (backtracks).
    pub backtracks: u64,
    /// Failed-state cache hits.
    pub cache_hits: u64,
    /// Maximum frontier depth reached.
    pub max_depth: usize,
    /// `simplify()` garbage-collection rounds run.
    pub simplify_runs: u64,
    /// Resident clause-database bytes physically reclaimed by those
    /// rounds (the arena compactor's doing — the seed solver tombstoned
    /// retired blocking clauses and this figure was unmeasurable).
    pub reclaimed_bytes: u64,
}

/// Packs a state into a hashable key.
fn state_key(state: &[bool]) -> Vec<u64> {
    let mut key = vec![0u64; state.len().div_ceil(64)];
    for (i, &b) in state.iter().enumerate() {
        if b {
            key[i / 64] |= 1 << (i % 64);
        }
    }
    key
}

/// Failed-state memory: exact mode records (state, remaining) pairs;
/// within mode records the largest remaining budget that failed. Both
/// kinds of fact are independent of the bound being checked, so the
/// cache survives across a session's bounds.
#[derive(Debug, Default)]
struct FailedCache {
    exact: HashSet<(Vec<u64>, u32)>,
    within: HashMap<Vec<u64>, u32>,
}

impl FailedCache {
    fn len(&self) -> usize {
        self.exact.len() + self.within.len()
    }

    fn clear(&mut self) {
        self.exact.clear();
        self.within.clear();
    }

    fn is_hopeless(&self, semantics: Semantics, state: &[bool], remaining: usize) -> bool {
        let key = state_key(state);
        match semantics {
            Semantics::Exactly => self.exact.contains(&(key, remaining as u32)),
            Semantics::Within => self
                .within
                .get(&key)
                .is_some_and(|&r| r >= remaining as u32),
        }
    }

    fn record(&mut self, semantics: Semantics, state: &[bool], remaining: usize) {
        let key = state_key(state);
        match semantics {
            Semantics::Exactly => {
                self.exact.insert((key, remaining as u32));
            }
            Semantics::Within => {
                let slot = self.within.entry(key).or_insert(0);
                *slot = (*slot).max(remaining as u32);
            }
        }
    }
}

/// One frontier frame of the DFS: a concrete state, the inputs that
/// produced it, and the activation literal guarding the blocking
/// clauses of its already-refuted successors.
#[derive(Debug)]
struct Frame {
    state: Vec<bool>,
    inputs_from_pred: Vec<bool>,
    act: Lit,
}

/// The jSAT engine (formula (4) + implicit `(U,V)` association).
///
/// ```
/// use sebmc::{Budget, Engine, JSat, Semantics};
/// use sebmc_model::builders::shift_register;
///
/// let model = shift_register(4);
/// let mut session = JSat::default().start(&model, Semantics::Exactly, Budget::none());
/// assert!(session.check_bound(3).result.is_unreachable());
/// assert!(session.check_bound(4).result.is_reachable());
/// ```
#[derive(Debug, Default)]
pub struct JSat {
    /// Algorithm configuration.
    pub config: JSatConfig,
}

impl JSat {
    /// Creates the engine with explicit configuration.
    pub fn with_config(config: JSatConfig) -> Self {
        JSat { config }
    }
}

impl Engine for JSat {
    fn name(&self) -> &'static str {
        "jsat"
    }

    fn start(&self, model: &Model, semantics: Semantics, budget: Budget) -> Box<dyn Session> {
        let config = self.config.clone();
        crate::session::open(model, semantics, budget, |m, sem, b| {
            JSatSession::new(m, sem, config, b)
        })
    }
}

/// The static formula (4) loaded into the incremental solver, plus the
/// variable maps jSAT drives it through.
#[derive(Debug)]
struct Formula4 {
    solver: Solver,
    u_lits: Vec<Lit>,
    v_lits: Vec<Lit>,
    w_lits: Vec<Lit>,
    /// Activates `I(U)`.
    act_init: Lit,
    /// Activates `F(V)`.
    act_target_v: Lit,
    /// Activates `F(U)` (for the k = 0 degenerate case).
    act_target_u: Lit,
    /// Guards the blocking clauses of refuted *initial* states. A
    /// bound's refuted-initial blocks are only valid for that bound, so
    /// each `check_bound` retires the old guard and allocates a fresh
    /// one.
    act_init_block: Lit,
    /// Size of the static formula, for the run statistics.
    base_vars: usize,
    base_clauses: usize,
    base_lits: usize,
}

fn build_formula4(model: &Model, budget: &Budget) -> Formula4 {
    let n = model.num_state_vars();
    let m = model.num_inputs();
    let mut alloc = VarAlloc::new();
    let u_lits = alloc.fresh_lits(n);
    let v_lits = alloc.fresh_lits(n);
    let w_lits = alloc.fresh_lits(m);
    let act_init = alloc.fresh_lit();
    let act_target_v = alloc.fresh_lit();
    let act_target_u = alloc.fresh_lit();
    let act_init_block = alloc.fresh_lit();
    let mut cnf = Cnf::new();

    // TR(U, W) → V: one copy, shared by every frame. I(U) and F(U)
    // share its encoder (neither can mention W).
    let mut enc = FrameEncoder::new(model, &u_lits, Some(&w_lits));
    enc.transition(&v_lits, &mut alloc, &mut cnf);
    // I(U), guarded.
    let init_root = enc.init(&mut alloc, &mut cnf);
    cnf.add_binary(!act_init, init_root);
    // F(U), guarded (k = 0 case).
    let fu_root = enc.target(&mut alloc, &mut cnf);
    cnf.add_binary(!act_target_u, fu_root);
    // F(V), guarded.
    let fv_root = FrameEncoder::new(model, &v_lits, None).target(&mut alloc, &mut cnf);
    cnf.add_binary(!act_target_v, fv_root);
    cnf.ensure_vars(alloc.num_vars());

    let mut solver = Solver::new();
    if let Some(sink) = budget.proof_sink() {
        // The proof must witness formula (4) from its first clause.
        solver.set_proof_sink(sink);
    }
    solver.add_cnf(&cnf);
    Formula4 {
        base_vars: cnf.num_vars(),
        base_clauses: cnf.num_clauses(),
        base_lits: cnf.num_literals(),
        solver,
        u_lits,
        v_lits,
        w_lits,
        act_init,
        act_target_v,
        act_target_u,
        act_init_block,
    }
}

impl Formula4 {
    fn read_state(&self, lits: &[Lit]) -> Vec<bool> {
        lits.iter()
            .map(|&l| self.solver.lit_value_model(l).unwrap_or(false))
            .collect()
    }

    fn read_inputs(&self) -> Vec<bool> {
        self.read_state(&self.w_lits)
    }

    /// Assumption literals pinning `U` to a concrete state.
    fn assume_u(&self, state: &[bool]) -> Vec<Lit> {
        state
            .iter()
            .zip(&self.u_lits)
            .map(|(&b, &l)| if b { l } else { !l })
            .collect()
    }

    /// Adds a guarded blocking clause excluding `state` on `lits`.
    fn block_state(&mut self, guard: Lit, lits: &[Lit], state: &[bool]) {
        let mut clause = Vec::with_capacity(state.len() + 1);
        clause.push(!guard);
        for (&b, &l) in state.iter().zip(lits) {
            clause.push(if b { !l } else { l });
        }
        self.solver.add_clause(clause);
    }
}

/// An open jSAT session: formula (4), the incremental solver with its
/// learnt clauses, and the failed-state cache, all persisting across
/// [`Session::check_bound`] calls.
#[derive(Debug)]
pub struct JSatSession {
    core: SessionCore,
    model: Model,
    config: JSatConfig,
    f4: Formula4,
    alloc: VarAlloc,
    cache: FailedCache,
    stats: JSatStats,
    /// Incremental Unsat SAT calls made while deciding the current
    /// bound (certification accounting; reset per `check_bound`).
    bound_unsat_calls: u64,
    /// How many of them the streaming proof checker certified.
    bound_unsat_certified: u64,
}

impl JSatSession {
    /// Opens a session on `model`; the budget's wall clock starts now.
    ///
    /// Under [`Budget::certify`], formula (4) is proof-logged from its
    /// first clause and **every incremental Unsat call** of the search
    /// (initial-state selection, successor exhaustion, the k = 0
    /// degenerate query) is finalized with its failed-assumption core
    /// and checked on the fly; an Unreachable bound is certified iff
    /// all of its Unsat calls were.
    pub fn new(model: &Model, semantics: Semantics, config: JSatConfig, budget: Budget) -> Self {
        let f4 = build_formula4(model, &budget);
        let alloc = VarAlloc::starting_at(f4.solver.num_vars());
        JSatSession {
            core: SessionCore::new("jsat", "jsat", semantics, budget),
            model: model.clone(),
            config,
            f4,
            alloc,
            cache: FailedCache::default(),
            stats: JSatStats::default(),
            bound_unsat_calls: 0,
            bound_unsat_certified: 0,
        }
    }

    /// Cumulative jSAT search statistics across all bounds checked.
    pub fn search_stats(&self) -> &JSatStats {
        &self.stats
    }

    /// Certification bookkeeping for one incremental Unsat call: the
    /// proof must have finalized a core covered by `assumptions`.
    fn note_unsat_call(&mut self, assumptions: &[Lit]) {
        if !self.core.budget.certify {
            return;
        }
        self.bound_unsat_calls += 1;
        if self.f4.solver.proof_certifies(assumptions) {
            self.bound_unsat_certified += 1;
        }
    }

    fn search(&mut self, k: usize, frames: &mut Vec<Frame>) -> BmcResult {
        let semantics = self.core.semantics;
        // Degenerate bound: is some initial state a target state?
        if k == 0 {
            self.stats.sat_calls += 1;
            let assumptions = [self.f4.act_init, self.f4.act_target_u];
            return match self.f4.solver.solve_with(&assumptions) {
                SolveResult::Sat => {
                    let s0 = self.f4.read_state(&self.f4.u_lits);
                    BmcResult::Reachable(Some(Trace {
                        states: vec![s0],
                        inputs: vec![],
                    }))
                }
                SolveResult::Unsat => {
                    self.note_unsat_call(&assumptions);
                    BmcResult::Unreachable
                }
                SolveResult::Unknown => BmcResult::Unknown(self.core.budget.unknown_reason()),
            };
        }

        // Refuted-initial-state blocks from earlier bounds don't apply
        // at this bound: retire the old guard, start a fresh one.
        let retired = self.f4.act_init_block;
        self.f4.solver.add_clause([!retired]);
        self.f4.act_init_block = self.alloc.fresh_lit();
        self.f4.solver.ensure_vars(self.alloc.num_vars());

        let mut pops_since_simplify = 0u64;

        loop {
            if !self.f4.solver.is_ok() {
                // Top-level inconsistency can only mean the instance is
                // globally unsatisfiable (e.g. unsatisfiable constraints).
                return BmcResult::Unreachable;
            }
            if self.core.expired() {
                return BmcResult::Unknown(self.core.budget.unknown_reason());
            }
            if frames.is_empty() {
                // Select a (new) initial state.
                self.stats.sat_calls += 1;
                let assumptions = [self.f4.act_init, self.f4.act_init_block];
                match self.f4.solver.solve_with(&assumptions) {
                    SolveResult::Sat => {
                        let s0 = self.f4.read_state(&self.f4.u_lits);
                        // Block it as an initial choice for when we return.
                        let guard = self.f4.act_init_block;
                        self.f4.block_state(guard, &self.f4.u_lits.clone(), &s0);
                        if semantics == Semantics::Within && self.model.eval_target(&s0) {
                            return BmcResult::Reachable(Some(Trace {
                                states: vec![s0],
                                inputs: vec![],
                            }));
                        }
                        if self.config.use_failed_cache && self.cache.is_hopeless(semantics, &s0, k)
                        {
                            self.stats.cache_hits += 1;
                            continue;
                        }
                        let act = self.alloc.fresh_lit();
                        self.f4.solver.ensure_vars(self.alloc.num_vars());
                        frames.push(Frame {
                            state: s0,
                            inputs_from_pred: Vec::new(),
                            act,
                        });
                        self.stats.max_depth = self.stats.max_depth.max(frames.len());
                    }
                    SolveResult::Unsat => {
                        // No unblocked initial state remains: the bound
                        // is exhausted. Certify this very call.
                        self.note_unsat_call(&assumptions);
                        return BmcResult::Unreachable;
                    }
                    SolveResult::Unknown => {
                        return BmcResult::Unknown(self.core.budget.unknown_reason())
                    }
                }
                continue;
            }

            let depth = frames.len() - 1; // steps taken so far
            let frontier_state = frames.last().expect("non-empty").state.clone();
            let frontier_act = frames.last().expect("non-empty").act;
            // Ask for a successor: U = σ_depth, this frame's blocking
            // clauses active, F(V) required at the final step.
            let mut assumptions = self.f4.assume_u(&frontier_state);
            assumptions.push(frontier_act);
            if depth + 1 == k {
                assumptions.push(self.f4.act_target_v);
            }
            self.stats.sat_calls += 1;
            match self.f4.solver.solve_with(&assumptions) {
                SolveResult::Sat => {
                    self.stats.successors += 1;
                    let succ = self.f4.read_state(&self.f4.v_lits);
                    let step_inputs = self.f4.read_inputs();
                    // Never offer this successor again at this frame.
                    self.f4
                        .block_state(frontier_act, &self.f4.v_lits.clone(), &succ);
                    let reached_target = if depth + 1 == k {
                        true // act_target_v was assumed
                    } else {
                        semantics == Semantics::Within && self.model.eval_target(&succ)
                    };
                    if reached_target {
                        let mut states: Vec<Vec<bool>> =
                            frames.iter().map(|f| f.state.clone()).collect();
                        let mut inputs: Vec<Vec<bool>> = frames
                            .iter()
                            .skip(1)
                            .map(|f| f.inputs_from_pred.clone())
                            .collect();
                        states.push(succ);
                        inputs.push(step_inputs);
                        return BmcResult::Reachable(Some(Trace { states, inputs }));
                    }
                    let remaining = k - (depth + 1);
                    if self.config.use_failed_cache
                        && self.cache.is_hopeless(semantics, &succ, remaining)
                    {
                        self.stats.cache_hits += 1;
                        continue;
                    }
                    let act = self.alloc.fresh_lit();
                    self.f4.solver.ensure_vars(self.alloc.num_vars());
                    frames.push(Frame {
                        state: succ,
                        inputs_from_pred: step_inputs,
                        act,
                    });
                    self.stats.max_depth = self.stats.max_depth.max(frames.len());
                }
                SolveResult::Unsat => {
                    // σ_depth is exhausted for its remaining budget.
                    self.note_unsat_call(&assumptions);
                    let popped = frames.pop().expect("non-empty");
                    self.stats.backtracks += 1;
                    if self.config.use_failed_cache {
                        if self.cache.len() >= self.config.max_cache_entries {
                            self.cache.clear();
                        }
                        self.cache.record(semantics, &popped.state, k - depth);
                    }
                    // Retire the frame's blocking clauses and
                    // periodically reclaim their memory.
                    self.f4.solver.add_clause([!popped.act]);
                    pops_since_simplify += 1;
                    if pops_since_simplify >= self.config.simplify_interval {
                        let before = self.f4.solver.clause_db_resident_bytes();
                        self.f4.solver.simplify();
                        let after = self.f4.solver.clause_db_resident_bytes();
                        self.stats.simplify_runs += 1;
                        self.stats.reclaimed_bytes += before.saturating_sub(after) as u64;
                        pops_since_simplify = 0;
                    }
                }
                SolveResult::Unknown => {
                    return BmcResult::Unknown(self.core.budget.unknown_reason())
                }
            }
        }
    }
}

impl Formulation for JSatSession {
    fn core(&self) -> &SessionCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut SessionCore {
        &mut self.core
    }

    fn decide(&mut self, k: usize, stop: Option<String>) -> BmcOutcome {
        let certify = self.core.budget.certify;
        let mark = SolverMark::new(&mut self.f4.solver, certify);
        self.bound_unsat_calls = 0;
        self.bound_unsat_certified = 0;
        let result = match stop {
            Some(reason) => BmcResult::Unknown(reason),
            None => {
                self.f4.solver.set_limits(self.core.sat_limits());
                let mut frames: Vec<Frame> = Vec::new();
                let result = self.search(k, &mut frames);
                // Retire the blocking clauses of whatever frames were
                // still on the stack when the search exited (witness
                // found or budget/cancellation abort) so they don't
                // linger into the session's next bound.
                for f in frames {
                    self.f4.solver.add_clause([!f.act]);
                }
                result
            }
        };
        if let BmcResult::Reachable(Some(ref t)) = result {
            debug_assert_eq!(self.model.check_trace(t), Ok(()));
        }
        let stats = mark.stats(
            &self.f4.solver,
            self.f4.base_vars,
            self.f4.base_clauses,
            self.f4.base_lits,
        );
        // An Unreachable bound is covered when every incremental Unsat
        // call was certified (or, for a top-level inconsistency, the
        // empty clause was verified); a Reachable one when its witness
        // replays.
        let covered = match &result {
            _ if !certify => None,
            BmcResult::Unreachable if self.bound_unsat_calls == 0 => {
                Some(self.f4.solver.proof_certifies(&[]))
            }
            BmcResult::Unreachable => Some(self.bound_unsat_calls == self.bound_unsat_certified),
            BmcResult::Reachable(Some(t)) => Some(self.model.check_trace(t).is_ok()),
            BmcResult::Reachable(None) => Some(false),
            BmcResult::Unknown(_) => None,
        };
        let certificate = mark.certificate(&mut self.f4.solver, certify, covered);
        BmcOutcome {
            result,
            stats,
            certificate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebmc_model::builders::{
        counter_with_reset, johnson_counter, lfsr, peterson, shift_register, token_ring,
        traffic_light,
    };
    use sebmc_model::explicit;

    /// Decides one bound on a fresh session, returning the outcome and
    /// the session's search statistics.
    fn check(
        model: &Model,
        k: usize,
        semantics: Semantics,
        config: JSatConfig,
    ) -> (BmcOutcome, JSatStats) {
        let mut session = JSatSession::new(model, semantics, config, Budget::none());
        let out = session.check_bound(k);
        (out, session.search_stats().clone())
    }

    fn no_cache() -> JSatConfig {
        JSatConfig {
            use_failed_cache: false,
            ..JSatConfig::default()
        }
    }

    fn check_all_bounds(model: &Model, max_k: usize, semantics: Semantics) {
        for k in 0..=max_k {
            let (got, _) = check(model, k, semantics, JSatConfig::default());
            let expect = match semantics {
                Semantics::Exactly => explicit::reachable_in_exactly(model, k),
                Semantics::Within => explicit::reachable_within(model, k),
            };
            assert_eq!(
                got.result.is_reachable(),
                expect,
                "model {} bound {k} ({semantics})",
                model.name()
            );
            assert!(!got.result.is_unknown());
            if let Some(t) = got.result.witness() {
                assert_eq!(model.check_trace(t), Ok(()), "witness at bound {k}");
                match semantics {
                    Semantics::Exactly => assert_eq!(t.len(), k),
                    Semantics::Within => assert!(t.len() <= k),
                }
            }
        }
    }

    #[test]
    fn counter_exact_matches_oracle() {
        check_all_bounds(&counter_with_reset(3), 9, Semantics::Exactly);
    }

    #[test]
    fn counter_within_matches_oracle() {
        check_all_bounds(&counter_with_reset(3), 9, Semantics::Within);
    }

    #[test]
    fn shift_register_both_semantics() {
        check_all_bounds(&shift_register(4), 6, Semantics::Exactly);
        check_all_bounds(&shift_register(4), 6, Semantics::Within);
    }

    #[test]
    fn lfsr_needle_exact() {
        check_all_bounds(&lfsr(4, 6), 8, Semantics::Exactly);
    }

    #[test]
    fn johnson_periodicity() {
        check_all_bounds(&johnson_counter(4), 13, Semantics::Exactly);
    }

    #[test]
    fn unsat_families_are_unreachable() {
        check_all_bounds(&traffic_light(), 6, Semantics::Exactly);
        check_all_bounds(&peterson(), 5, Semantics::Within);
    }

    #[test]
    fn token_ring_within() {
        check_all_bounds(&token_ring(4), 6, Semantics::Within);
    }

    /// The same sweep through one persistent session: the formula,
    /// learnt clauses and cache survive between bounds, and the
    /// verdicts must still match the oracle at every bound.
    #[test]
    fn session_sweep_matches_oracle() {
        for semantics in [Semantics::Exactly, Semantics::Within] {
            let m = counter_with_reset(3);
            let mut session =
                JSatSession::new(&m, semantics, JSatConfig::default(), Budget::none());
            for k in 0..=9 {
                let got = session.check_bound(k);
                let expect = match semantics {
                    Semantics::Exactly => explicit::reachable_in_exactly(&m, k),
                    Semantics::Within => explicit::reachable_within(&m, k),
                };
                assert_eq!(got.result.is_reachable(), expect, "bound {k} ({semantics})");
                if let Some(t) = got.result.witness() {
                    assert_eq!(m.check_trace(t), Ok(()));
                }
            }
            assert_eq!(session.cumulative_stats().bounds_checked, 10);
        }
    }

    /// Revisiting bounds in arbitrary order must stay sound even though
    /// refuted-initial-state blocks are retired per bound.
    #[test]
    fn session_bounds_any_order() {
        let m = lfsr(4, 6);
        let mut session = JSatSession::new(
            &m,
            Semantics::Exactly,
            JSatConfig::default(),
            Budget::none(),
        );
        assert!(session.check_bound(6).result.is_reachable());
        assert!(session.check_bound(5).result.is_unreachable());
        assert!(session.check_bound(6).result.is_reachable(), "re-query");
        assert!(session.check_bound(7).result.is_unreachable());
    }

    #[test]
    fn cache_ablation_agrees() {
        let m = counter_with_reset(3);
        for k in 0..8 {
            let (a, _) = check(&m, k, Semantics::Exactly, JSatConfig::default());
            let (b, _) = check(&m, k, Semantics::Exactly, no_cache());
            assert_eq!(
                a.result.is_reachable(),
                b.result.is_reachable(),
                "bound {k}"
            );
        }
    }

    #[test]
    fn cache_reduces_sat_calls_on_unsat() {
        let m = counter_with_reset(3);
        // Bound 6 < 7 is UNSAT and forces full exhaustion.
        let calls_with = check(&m, 6, Semantics::Exactly, JSatConfig::default())
            .1
            .sat_calls;
        let calls_without = check(&m, 6, Semantics::Exactly, no_cache()).1.sat_calls;
        assert!(
            calls_with <= calls_without,
            "cache must not increase SAT calls ({calls_with} vs {calls_without})"
        );
    }

    /// Deepening 0..=k in one session must not need more SAT calls
    /// than fresh one-shot runs: the cache carries refutations across
    /// bounds.
    #[test]
    fn session_reuse_prunes_on_unsat_sweep() {
        let m = counter_with_reset(3);
        let max_k = 6; // all UNSAT below 7
        let mut session = JSatSession::new(
            &m,
            Semantics::Exactly,
            JSatConfig::default(),
            Budget::none(),
        );
        for k in 0..=max_k {
            assert!(session.check_bound(k).result.is_unreachable());
        }
        let session_calls = session.search_stats().sat_calls;
        let mut oneshot_calls = 0;
        for k in 0..=max_k {
            let (out, stats) = check(&m, k, Semantics::Exactly, JSatConfig::default());
            assert!(out.result.is_unreachable());
            oneshot_calls += stats.sat_calls;
        }
        assert!(
            session_calls <= oneshot_calls,
            "session sweep used {session_calls} SAT calls vs {oneshot_calls} one-shot"
        );
    }

    /// A certified jSAT session: every incremental Unsat call of an
    /// Unreachable bound is proof-checked, Sat bounds replay, and the
    /// heavy blocking-clause churn (adds, retirements, simplify GC)
    /// keeps the deletion log perfectly in sync.
    #[test]
    fn certified_session_checks_every_unsat_call() {
        for semantics in [Semantics::Exactly, Semantics::Within] {
            let m = counter_with_reset(3);
            let mut session = JSatSession::new(
                &m,
                semantics,
                JSatConfig {
                    simplify_interval: 4, // eager GC: stress the log
                    ..JSatConfig::default()
                },
                Budget::none().with_certify(true),
            );
            for k in 0..=8 {
                let out = session.check_bound(k);
                assert!(!out.result.is_unknown());
                let cert = out.certificate.as_ref().expect("certificate attached");
                assert!(cert.fully_certified(), "bound {k} ({semantics}): {cert:?}");
                assert_eq!(cert.missing_deletes, 0, "deletion log in sync");
                if out.result.is_unreachable() {
                    assert!(cert.unsat_proofs > 0, "Unsat calls were finalized");
                }
            }
        }
    }

    #[test]
    fn uncertified_session_attaches_nothing() {
        let m = shift_register(4);
        let mut session = JSatSession::new(
            &m,
            Semantics::Exactly,
            JSatConfig::default(),
            Budget::none(),
        );
        let out = session.check_bound(4);
        assert!(out.certificate.is_none());
        assert_eq!(out.stats.peak_proof_bytes, 0);
    }

    #[test]
    fn timeout_gives_unknown() {
        let m = sebmc_model::builders::random_fsm(20, 2, 11);
        let budget = Budget::with_timeout(std::time::Duration::from_nanos(1));
        let mut session = JSatSession::new(&m, Semantics::Exactly, JSatConfig::default(), budget);
        assert!(session.check_bound(10).result.is_unknown());
    }

    /// The arena-refactor acceptance check at the jSAT level: an UNSAT
    /// sweep with heavy backtracking retires blocking clauses behind
    /// their activation literals, and the solver's compacting GC must
    /// *physically* reclaim them — shrinking the resident clause
    /// database, where the seed solver only tombstoned.
    #[test]
    fn retired_blocking_clauses_are_physically_reclaimed() {
        let m = counter_with_reset(8);
        // No failed-state cache: maximal path enumeration and therefore
        // maximal blocking-clause churn. Simplify eagerly so retirement
        // is observable per backtrack.
        let config = JSatConfig {
            simplify_interval: 8,
            ..no_cache()
        };
        let (out, st) = check(&m, 10, Semantics::Exactly, config);
        assert!(out.result.is_unreachable(), "8-bit counter needs 255 steps");
        assert!(st.backtracks > 0, "the sweep must backtrack");
        assert!(st.simplify_runs > 0, "simplify must have run");
        assert!(
            st.reclaimed_bytes > 0,
            "GC must shrink resident clause-database bytes \
             ({} simplify runs, {} backtracks)",
            st.simplify_runs,
            st.backtracks
        );
        assert!(out.stats.peak_formula_bytes > 0, "exact bytes reported");
        assert!(
            out.stats.peak_watch_bytes > 0,
            "watch-storage bytes reported alongside arena bytes"
        );
    }

    #[test]
    fn memory_stays_flat_across_bounds() {
        // The paper's headline: jSAT's formula does not grow with k.
        let m = counter_with_reset(3);
        let s1 = check(&m, 7, Semantics::Exactly, JSatConfig::default())
            .0
            .stats;
        let s2 = check(&m, 7 + 4, Semantics::Exactly, JSatConfig::default())
            .0
            .stats;
        assert_eq!(
            s1.encode_lits, s2.encode_lits,
            "formula (4) is independent of the bound"
        );
    }

    #[test]
    fn stats_populated() {
        let m = shift_register(4);
        let (out, stats) = check(&m, 4, Semantics::Exactly, JSatConfig::default());
        assert!(out.result.is_reachable());
        assert!(stats.sat_calls > 0);
        assert!(stats.max_depth >= 4);
        assert!(out.stats.peak_formula_lits > 0);
    }
}
