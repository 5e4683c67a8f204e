//! Formulation (1): classical BMC by unrolling the transition relation.
//!
//! `R_k(Z₀,…,Z_k) = I(Z₀) ∧ F(Z_k) ∧ ⋀_{i<k} TR(Zᵢ, Zᵢ₊₁)`
//!
//! The formula contains **k copies of `TR`** — the memory behaviour the
//! paper sets out to avoid. [`encode_unrolled`] builds the CNF (each
//! frame is an independent Tseitin instantiation of the transition
//! cone, exactly like a 2005 bounded model checker), and [`UnrollSat`]
//! solves it with the CDCL solver.

use sebmc_logic::{Cnf, VarAlloc};
use sebmc_model::Model;

use crate::engine::{Budget, Engine, Semantics, Session};
use crate::frame::{encode_path, FrameEncoder};
use crate::inc_unroll::IncrementalUnroll;

/// Encodes "a target state is reachable in exactly `k` steps" as the
/// classical unrolled CNF (formulation (1) of the paper): `I` on frame
/// 0, `F` on frame `k`, one copy of `TR` per step.
pub fn encode_unrolled(model: &Model, k: usize) -> Cnf {
    let mut alloc = VarAlloc::new();
    let mut cnf = Cnf::new();
    let states = encode_path(model, k, &mut alloc, &mut cnf);
    let init = FrameEncoder::new(model, &states[0], None).init(&mut alloc, &mut cnf);
    cnf.add_unit(init);
    let target = FrameEncoder::new(model, &states[k], None).target(&mut alloc, &mut cnf);
    cnf.add_unit(target);
    cnf.ensure_vars(alloc.num_vars());
    cnf
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
        crate::session::open(model, semantics, budget, IncrementalUnroll::with_budget)
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
        let e4 = encode_unrolled(&m, 4);
        let e5 = encode_unrolled(&m, 5);
        let e6 = encode_unrolled(&m, 6);
        let d1 = e5.num_literals() - e4.num_literals();
        let d2 = e6.num_literals() - e5.num_literals();
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
