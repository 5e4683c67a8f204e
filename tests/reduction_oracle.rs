//! Reduction-vs-oracle property suite (ISSUE 8).
//!
//! The static model reduction (cone-of-influence, constant-latch
//! sweeping, unused-input elimination) runs by default inside every
//! `Engine::start`; these tests pin its soundness contract against the
//! *unreduced* engine as oracle:
//!
//! * on the whole small benchmark suite, all four engines under both
//!   semantics produce the same verdict with reduction on and off,
//!   and every reduced-run witness lifts to a trace the **original**
//!   model replays;
//! * the same property holds on seeded random models built to contain
//!   reduction fodder (observer latches, constant latches, dead
//!   inputs) around a live core;
//! * on reducible suite models the reduction is not a no-op: the
//!   reduced run's `peak_formula_bytes` is strictly below the
//!   unreduced run's at equal verdicts (the paper's whole metric).

use sebmc_repro::bmc::{
    BmcResult, Budget, Engine, JSat, QbfBackend, QbfLinear, QbfSquaring, Semantics, UnrollSat,
};
use sebmc_repro::logic::rng::SplitMix64;
use sebmc_repro::logic::AigRef;
use sebmc_repro::model::{builders, suite13_small, Model, ModelBuilder};
use std::time::Duration;

/// Each engine with its per-session wall clock. The SAT engines run
/// unlimited (they are fast on these models); the general-purpose QBF
/// engines are *sound but weak* and get the same short leash the
/// `engine_agreement` suite gives them — `agrees_with` is lenient on
/// `Unknown`, so a timeout never fakes agreement, it only skips the
/// bound.
fn engines() -> Vec<(&'static str, Box<dyn Engine>, Option<Duration>)> {
    let leash = Some(Duration::from_millis(300));
    vec![
        ("unroll", Box::new(UnrollSat) as Box<dyn Engine>, None),
        ("jsat", Box::new(JSat::default()), None),
        (
            "qbf-linear",
            Box::new(QbfLinear::new(QbfBackend::Qdpll)),
            leash,
        ),
        (
            "qbf-squaring",
            Box::new(QbfSquaring::new(QbfBackend::Expansion)),
            leash,
        ),
    ]
}

fn budget(reduce: bool, timeout: Option<Duration>) -> Budget {
    Budget {
        reduce,
        timeout,
        ..Budget::default()
    }
}

/// Checks bounds `0..=max_bound` of `model` on every engine under both
/// semantics, reduced against unreduced, asserting verdict agreement
/// and original-model witness replay. `label` names the model in
/// failure messages (random cases print their case number).
fn assert_reduction_agrees(model: &Model, max_bound: usize, label: &str) {
    for semantics in [Semantics::Exactly, Semantics::Within] {
        for (name, engine, timeout) in engines() {
            let mut reduced = engine.start(model, semantics, budget(true, timeout));
            let mut oracle = engine.start(model, semantics, budget(false, timeout));
            for k in 0..=max_bound {
                let r = reduced.check_bound(k);
                let o = oracle.check_bound(k);
                // QBF backends may give up on bounds they cannot
                // encode; reduction must not change *where*.
                assert!(
                    r.result.agrees_with(&o.result),
                    "{label}: {name} ({semantics}) diverges at k={k}: \
                     {:?} (reduced) vs {:?} (oracle)",
                    r.result,
                    o.result
                );
                if let BmcResult::Reachable(Some(trace)) = &r.result {
                    assert_eq!(
                        trace.states.first().map(Vec::len),
                        Some(model.num_state_vars()),
                        "{label}: {name} k={k}: witness not lifted to original width"
                    );
                    assert_eq!(
                        model.check_trace(trace),
                        Ok(()),
                        "{label}: {name} ({semantics}) k={k}: lifted witness rejected \
                         by the original model"
                    );
                }
            }
        }
    }
}

#[test]
fn suite_verdicts_and_witnesses_agree_with_the_unreduced_oracle() {
    for model in suite13_small() {
        assert_reduction_agrees(&model, 4, model.name());
    }
}

/// A random model with reduction fodder: a live random core (as in the
/// `random_models` suite) plus observer latches that read the core but
/// are never read back, a constant latch, and a dead input — exactly
/// the structures the analysis sweeps and removes.
fn random_reducible_model(rng: &mut SplitMix64) -> Model {
    let core_bits = rng.range_inclusive(2, 3);
    let obs_bits = rng.range_inclusive(1, 2);
    let bits = core_bits + obs_bits + 1; // + one constant latch
    let inputs = rng.range_inclusive(1, 2) + 1; // + one dead input
    let mut b = ModelBuilder::new("random-reducible");
    let state = b.state_vars(bits, "s");
    let ins = b.inputs(inputs, "i");
    // The gate cloud only draws from the live core and the live
    // inputs, so the observers/constant stay out of every cone.
    let mut pool: Vec<AigRef> = state[..core_bits]
        .iter()
        .chain(ins[..inputs - 1].iter())
        .copied()
        .collect();
    for _ in 0..rng.range_inclusive(1, 6) {
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
    let mut nexts: Vec<AigRef> = Vec::with_capacity(bits);
    for _ in 0..core_bits {
        let g = pool[rng.below(pool.len())];
        nexts.push(if rng.coin() { !g } else { g });
    }
    // Observers: read the core (or another observer), never read back.
    for i in 0..obs_bits {
        let src = if i == 0 {
            pool[rng.below(pool.len())]
        } else {
            state[core_bits + i - 1]
        };
        let own = state[core_bits + i];
        nexts.push(b.aig_mut().or(src, own));
    }
    // Constant latch: zero-initialised, feeds back its own AND with a
    // random (so possibly non-constant) signal — folds to FALSE.
    let cl = state[core_bits + obs_bits];
    let noise = pool[rng.below(pool.len())];
    nexts.push(b.aig_mut().and(cl, noise));
    b.set_next_all(&nexts);
    // All-zero init forces the constant latch (and everything else).
    let init = b.aig_mut().eq_const(&state, 0);
    b.set_init(init);
    // Target over the live core only.
    let mut target = AigRef::TRUE;
    for s in state.iter().take(core_bits) {
        if rng.coin() {
            let lit = if rng.coin() { !*s } else { *s };
            target = b.aig_mut().and(target, lit);
        }
    }
    if target == AigRef::TRUE {
        target = if rng.coin() { !state[0] } else { state[0] };
    }
    b.set_target(target);
    b.build().expect("random reducible model is well-formed")
}

#[test]
fn random_reducible_models_agree_with_the_unreduced_oracle() {
    for case in 0..25u64 {
        let mut rng = SplitMix64::new(0x5eed_0009 ^ case.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let model = random_reducible_model(&mut rng);
        assert_reduction_agrees(&model, 3, &format!("case {case}"));
    }
}

/// Acceptance: on reducible suite models the reduced run's peak
/// clause-database bytes are *strictly* below the unreduced run's, at
/// identical verdicts. (`round_robin_arbiter(8)` drops 7 grant
/// latches and 7 request inputs; `fifo(3)` drops its unread head
/// pointer.)
#[test]
fn reduction_strictly_shrinks_peak_formula_bytes_on_reducible_suite_models() {
    for (model, max_bound) in [
        (builders::round_robin_arbiter(8), 8),
        (builders::fifo(3), 6),
    ] {
        let mut reduced = UnrollSat.start(&model, Semantics::Within, budget(true, None));
        let mut oracle = UnrollSat.start(&model, Semantics::Within, budget(false, None));
        let mut r_peak = 0usize;
        let mut o_peak = 0usize;
        for k in 0..=max_bound {
            let r = reduced.check_bound(k);
            let o = oracle.check_bound(k);
            assert!(
                r.result.agrees_with(&o.result),
                "{} k={k}: {:?} vs {:?}",
                model.name(),
                r.result,
                o.result
            );
            r_peak = r_peak.max(r.stats.peak_formula_bytes);
            o_peak = o_peak.max(o.stats.peak_formula_bytes);
            assert!(r.stats.latches_swept > 0 || r.stats.coi_latches > 0);
            if r.result.is_reachable() {
                break;
            }
        }
        assert!(
            r_peak < o_peak,
            "{}: reduction did not shrink the formula ({r_peak} vs {o_peak} bytes)",
            model.name()
        );
    }
}
