//! Formulation (1): classical BMC by unrolling the transition relation.
//!
//! `R_k(Z₀,…,Z_k) = I(Z₀) ∧ F(Z_k) ∧ ⋀_{i<k} TR(Zᵢ, Zᵢ₊₁)`
//!
//! The formula contains **k copies of `TR`** — the memory behaviour the
//! paper sets out to avoid. [`encode_unrolled`] builds the CNF (each
//! frame is an independent Tseitin instantiation of the transition
//! cone, exactly like a 2005 bounded model checker), and [`UnrollSat`]
//! solves it with the CDCL solver.

use sebmc_logic::{tseitin, Cnf, Lit, VarAlloc};
use sebmc_model::{Model, Trace};

use crate::engine::{Budget, Engine, Semantics, Session};
use crate::inc_unroll::IncrementalUnroll;

/// The unrolled CNF together with the variable maps needed to decode
/// witnesses.
#[derive(Debug)]
pub struct UnrolledCnf {
    /// The formula.
    pub cnf: Cnf,
    /// `state_lits[t][i]`: literal of state variable `i` at frame `t`
    /// (`t = 0..=k`).
    pub state_lits: Vec<Vec<Lit>>,
    /// `input_lits[t][j]`: literal of input `j` at step `t`
    /// (`t = 0..k`).
    pub input_lits: Vec<Vec<Lit>>,
}

impl UnrolledCnf {
    /// Number of frames (`k + 1`).
    pub fn num_frames(&self) -> usize {
        self.state_lits.len()
    }

    /// Decodes a witness trace from a satisfying assignment, truncating
    /// at the first target frame under [`Semantics::Within`].
    pub fn decode_trace(
        &self,
        model: &Model,
        semantics: Semantics,
        value: impl Fn(Lit) -> bool,
    ) -> Trace {
        let states: Vec<Vec<bool>> = self
            .state_lits
            .iter()
            .map(|frame| frame.iter().map(|&l| value(l)).collect())
            .collect();
        let inputs: Vec<Vec<bool>> = self
            .input_lits
            .iter()
            .map(|frame| frame.iter().map(|&l| value(l)).collect())
            .collect();
        let mut trace = Trace { states, inputs };
        if semantics == Semantics::Within {
            if let Some(t) = trace.states.iter().position(|s| model.eval_target(s)) {
                trace.states.truncate(t + 1);
                trace.inputs.truncate(t);
            }
        }
        trace
    }
}

/// Builds the input-literal map for one frame: state variables bound to
/// `states`, free inputs bound to `inputs` (or to a harmless dummy when
/// the cone cannot mention them).
fn frame_map(model: &Model, states: &[Lit], inputs: Option<&[Lit]>) -> Vec<Lit> {
    let dummy = states.first().copied().unwrap_or(Lit::from_code(0));
    let mut map = vec![dummy; model.aig().num_inputs()];
    for (i, &idx) in model.state_input_indices().iter().enumerate() {
        map[idx] = states[i];
    }
    if let Some(ins) = inputs {
        for (j, &idx) in model.free_input_indices().iter().enumerate() {
            map[idx] = ins[j];
        }
    }
    map
}

/// Encodes bounded reachability at bound `k` as the classical unrolled
/// CNF (formulation (1) of the paper).
///
/// Under [`Semantics::Within`] the target disjunction ranges over every
/// frame; under [`Semantics::Exactly`] only frame `k` is constrained.
pub fn encode_unrolled(model: &Model, k: usize, semantics: Semantics) -> UnrolledCnf {
    let n = model.num_state_vars();
    let m = model.num_inputs();
    let mut alloc = VarAlloc::new();
    let state_lits: Vec<Vec<Lit>> = (0..=k).map(|_| alloc.fresh_lits(n)).collect();
    let input_lits: Vec<Vec<Lit>> = (0..k).map(|_| alloc.fresh_lits(m)).collect();
    let mut cnf = Cnf::new();

    // I(Z0).
    {
        let map = frame_map(model, &state_lits[0], None);
        let mut enc = tseitin::Encoder::new(model.aig(), &map);
        let root = enc.encode_ref(model.init_ref(), &mut alloc, &mut cnf);
        cnf.add_unit(root);
    }

    let mut target_lits: Vec<Lit> = Vec::new();

    // One copy of TR per step: Z_{t+1} = next(Z_t, W_t) plus constraints.
    for t in 0..k {
        let map = frame_map(model, &state_lits[t], Some(&input_lits[t]));
        let mut enc = tseitin::Encoder::new(model.aig(), &map);
        let next_roots = enc.encode_roots(model.next_refs(), &mut alloc, &mut cnf);
        for (i, &nl) in next_roots.iter().enumerate() {
            cnf.add_equiv(nl, state_lits[t + 1][i]);
        }
        for &c in model.constraint_refs() {
            let cl = enc.encode_ref(c, &mut alloc, &mut cnf);
            cnf.add_unit(cl);
        }
        if semantics == Semantics::Within {
            let tl = enc.encode_ref(model.target_ref(), &mut alloc, &mut cnf);
            target_lits.push(tl);
        }
    }

    // F at the last frame (and, for Within, at every frame).
    {
        let map = frame_map(model, &state_lits[k], None);
        let mut enc = tseitin::Encoder::new(model.aig(), &map);
        let tl = enc.encode_ref(model.target_ref(), &mut alloc, &mut cnf);
        target_lits.push(tl);
    }
    match semantics {
        Semantics::Exactly => {
            let last = *target_lits.last().expect("frame k target encoded");
            cnf.add_unit(last);
        }
        Semantics::Within => {
            cnf.add_clause(target_lits);
        }
    }
    cnf.ensure_vars(alloc.num_vars());

    UnrolledCnf {
        cnf,
        state_lits,
        input_lits,
    }
}

/// Formulation (1) engine: unrolled CNF solved with CDCL — the paper's
/// classical-BMC baseline, incrementally unrolled.
///
/// [`Engine::start`] opens an [`IncrementalUnroll`] session: one CDCL
/// solver whose frames are appended as the bound grows, with per-bound
/// target activation literals, so a deepening loop never re-encodes.
/// The monolithic formulation-(1) formula remains available through
/// [`encode_unrolled`] for the paper's formula-size experiments.
///
/// ```
/// use sebmc::{Budget, Engine, Semantics, UnrollSat};
/// use sebmc_model::builders::shift_register;
///
/// let model = shift_register(4);
/// let mut session = UnrollSat.start(&model, Semantics::Exactly, Budget::none());
/// assert!(session.check_bound(3).result.is_unreachable());
/// assert!(session.check_bound(4).result.is_reachable());
/// ```
#[derive(Debug, Default)]
pub struct UnrollSat;

impl Engine for UnrollSat {
    fn name(&self) -> &'static str {
        "sat-unroll"
    }

    fn start(&self, model: &Model, semantics: Semantics, budget: Budget) -> Box<dyn Session> {
        crate::reduce::start_with_reduction(model, semantics, budget, |m, sem, b| {
            Box::new(IncrementalUnroll::with_budget(m, sem, b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::BmcOutcome;
    use sebmc_model::builders::{
        counter_with_reset, johnson_counter, lfsr, shift_register, traffic_light,
    };
    use sebmc_model::explicit;

    /// Decides one bound on a fresh session.
    fn check(engine: &dyn Engine, model: &Model, k: usize, semantics: Semantics) -> BmcOutcome {
        engine
            .start(model, semantics, Budget::none())
            .check_bound(k)
    }

    #[test]
    fn counter_exact_bounds_match_oracle() {
        let m = counter_with_reset(3);
        let e = UnrollSat;
        for k in 0..10 {
            let got = check(&e, &m, k, Semantics::Exactly).result.is_reachable();
            let expect = explicit::reachable_in_exactly(&m, k);
            assert_eq!(got, expect, "bound {k}");
        }
    }

    #[test]
    fn counter_within_bounds_match_oracle() {
        let m = counter_with_reset(3);
        let e = UnrollSat;
        for k in 0..10 {
            let got = check(&e, &m, k, Semantics::Within).result.is_reachable();
            assert_eq!(got, explicit::reachable_within(&m, k), "bound {k}");
        }
    }

    #[test]
    fn witnesses_validate_and_have_right_length() {
        let m = shift_register(5);
        let e = UnrollSat;
        let out = check(&e, &m, 7, Semantics::Exactly);
        let trace = out.result.witness().expect("witness").clone();
        assert_eq!(trace.len(), 7);
        assert_eq!(m.check_trace(&trace), Ok(()));

        let out = check(&e, &m, 7, Semantics::Within);
        let trace = out.result.witness().expect("witness").clone();
        assert!(trace.len() <= 7, "within-witness no longer than the bound");
        assert!(
            m.eval_target(trace.states.last().expect("non-empty")),
            "within-witness ends at the target"
        );
        assert!(
            trace.states[..trace.states.len() - 1]
                .iter()
                .all(|s| !m.eval_target(s)),
            "within-witness truncated at the first hit"
        );
        assert_eq!(m.check_trace(&trace), Ok(()));
    }

    #[test]
    fn unsat_family_is_unreachable() {
        let m = traffic_light();
        let e = UnrollSat;
        for k in 0..8 {
            assert!(
                check(&e, &m, k, Semantics::Within).result.is_unreachable(),
                "bound {k}"
            );
        }
    }

    #[test]
    fn autonomous_needle_is_exact() {
        let m = lfsr(4, 6);
        let e = UnrollSat;
        assert!(check(&e, &m, 6, Semantics::Exactly).result.is_reachable());
        assert!(check(&e, &m, 5, Semantics::Exactly).result.is_unreachable());
        assert!(check(&e, &m, 7, Semantics::Exactly).result.is_unreachable());
        assert!(check(&e, &m, 7, Semantics::Within).result.is_reachable());
    }

    #[test]
    fn k_zero_handled() {
        // Johnson counter: initial state (all zeros) is not the target.
        let m = johnson_counter(4);
        let e = UnrollSat;
        assert!(check(&e, &m, 0, Semantics::Exactly).result.is_unreachable());
        assert!(check(&e, &m, 0, Semantics::Within).result.is_unreachable());
    }

    #[test]
    fn formula_grows_by_tr_per_frame() {
        let m = counter_with_reset(4);
        let e4 = encode_unrolled(&m, 4, Semantics::Exactly);
        let e5 = encode_unrolled(&m, 5, Semantics::Exactly);
        let e6 = encode_unrolled(&m, 6, Semantics::Exactly);
        let d1 = e5.cnf.num_literals() - e4.cnf.num_literals();
        let d2 = e6.cnf.num_literals() - e5.cnf.num_literals();
        assert_eq!(d1, d2, "per-frame growth is constant (one TR copy)");
        assert!(d1 > 0);
    }

    #[test]
    fn timeout_gives_unknown() {
        // A SAT instance that needs real decisions (input choices), so
        // level-0 propagation cannot decide it before the deadline hits.
        let m = shift_register(16);
        let budget = Budget::with_timeout(std::time::Duration::from_nanos(1));
        let out = UnrollSat
            .start(&m, Semantics::Exactly, budget)
            .check_bound(16);
        assert!(out.result.is_unknown(), "got {}", out.result);
    }

    #[test]
    fn stats_are_populated() {
        let m = shift_register(4);
        let e = UnrollSat;
        let out = check(&e, &m, 4, Semantics::Exactly);
        assert!(out.stats.encode_clauses > 0);
        assert!(out.stats.encode_lits > 0);
        assert!(out.stats.peak_formula_lits > 0);
    }
}
