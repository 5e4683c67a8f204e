//! Property-based cross-validation on random models.
//!
//! Seeded random transition systems; the symbolic engines must match
//! the explicit-state oracle on every sample, and witnesses must
//! replay. This is the widest soundness net in the repository: it
//! exercises the AIG, Tseitin, CDCL, jSAT and (small) QBF paths in one
//! property. Dependency-free property style — the case number printed
//! on failure reproduces the model.

use sebmc_repro::bmc::{
    BmcOutcome, Budget, Engine, JSat, QbfBackend, QbfLinear, Semantics, UnrollSat,
};
use sebmc_repro::logic::rng::SplitMix64;
use sebmc_repro::logic::AigRef;
use sebmc_repro::model::{explicit, Model, ModelBuilder};

/// Builds a small random model: 2–4 state bits, 1–2 inputs, a random
/// AIG cloud for the next functions, and a random target cube.
fn random_model(rng: &mut SplitMix64) -> Model {
    let bits = rng.range_inclusive(2, 4);
    let inputs = rng.range_inclusive(1, 2);
    let mut b = ModelBuilder::new("random");
    let state = b.state_vars(bits, "s");
    let ins = b.inputs(inputs, "i");
    let mut pool: Vec<AigRef> = state.iter().chain(ins.iter()).copied().collect();
    for _ in 0..rng.range_inclusive(1, 7) {
        let x = pool[rng.below(pool.len())];
        let y = pool[rng.below(pool.len())];
        let x = if rng.coin() { !x } else { x };
        let y = if rng.coin() { !y } else { y };
        let g = match rng.below(3) {
            0 => b.aig_mut().and(x, y),
            1 => b.aig_mut().or(x, y),
            _ => b.aig_mut().xor(x, y),
        };
        pool.push(g);
    }
    let nexts: Vec<AigRef> = (0..bits)
        .map(|_| {
            let g = pool[rng.below(pool.len())];
            if rng.coin() {
                !g
            } else {
                g
            }
        })
        .collect();
    b.set_next_all(&nexts);
    let init_value = rng.next_u64();
    let init = b.aig_mut().eq_const(&state, init_value & ((1 << bits) - 1));
    b.set_init(init);
    let mut target = AigRef::TRUE;
    for _ in 0..rng.range_inclusive(1, bits) {
        let s = state[rng.below(bits)];
        let lit = if rng.coin() { !s } else { s };
        target = b.aig_mut().and(target, lit);
    }
    b.set_target(target);
    b.build().expect("random models are well-formed")
}

fn sweep(seed: u64, cases: u64, check: impl Fn(&Model, usize)) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(seed ^ (case.wrapping_mul(0x9e37_79b9)));
        let model = random_model(&mut rng);
        let k = rng.below(5);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&model, k)));
        if let Err(e) = result {
            eprintln!("property failed on case {case} (seed {seed}, k {k})");
            std::panic::resume_unwind(e);
        }
    }
}

/// Decides one bound on a fresh, unbudgeted session.
fn check(engine: &dyn Engine, model: &Model, k: usize, semantics: Semantics) -> BmcOutcome {
    engine
        .start(model, semantics, Budget::none())
        .check_bound(k)
}

#[test]
fn unroll_and_jsat_match_oracle_on_random_models() {
    sweep(0x40D3, 48, |model, k| {
        let expect_exact = explicit::reachable_in_exactly(model, k);
        let expect_within = explicit::reachable_within(model, k);

        let out = check(&UnrollSat, model, k, Semantics::Exactly);
        assert_eq!(out.result.is_reachable(), expect_exact);
        if let Some(t) = out.result.witness() {
            assert_eq!(model.check_trace(t), Ok(()));
        }
        let out = check(&UnrollSat, model, k, Semantics::Within);
        assert_eq!(out.result.is_reachable(), expect_within);

        let out = check(&JSat::default(), model, k, Semantics::Exactly);
        assert_eq!(out.result.is_reachable(), expect_exact);
        if let Some(t) = out.result.witness() {
            assert_eq!(model.check_trace(t), Ok(()));
        }
        let out = check(&JSat::default(), model, k, Semantics::Within);
        assert_eq!(out.result.is_reachable(), expect_within);
    });
}

#[test]
fn qdpll_matches_oracle_on_tiny_random_models() {
    sweep(0x0D33, 48, |model, k| {
        let k = k.min(2);
        // Unbudgeted QDPLL on tiny bounds must terminate and be correct.
        let qbf = QbfLinear::new(QbfBackend::Qdpll);
        let out = check(&qbf, model, k, Semantics::Exactly);
        assert!(!out.result.is_unknown());
        assert_eq!(
            out.result.is_reachable(),
            explicit::reachable_in_exactly(model, k)
        );
    });
}

#[test]
fn aiger_round_trip_preserves_engine_verdicts() {
    sweep(0xA13E, 48, |model, k| {
        let file = sebmc_repro::aiger::model_to_aiger(model).expect("small cube init");
        let text = sebmc_repro::aiger::to_ascii_string(&file);
        let parsed = sebmc_repro::aiger::parse_ascii(&text).expect("round trip");
        let back = sebmc_repro::aiger::aiger_to_model(&parsed, "back").expect("convert");
        let a = check(&UnrollSat, model, k, Semantics::Exactly).result;
        let b = check(&UnrollSat, &back, k, Semantics::Exactly).result;
        let (a, b) = (a.is_reachable(), b.is_reachable());
        assert_eq!(a, b, "verdict changed across AIGER round-trip");
    });
}
