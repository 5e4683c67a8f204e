//! Property-based tests for the CDCL solver: agreement with brute
//! force, model validity, incremental-interface laws, core minimality,
//! and clause-database GC transparency.
//!
//! The workspace is dependency-free, so instead of proptest these run
//! each property over a few hundred formulae drawn from a seeded
//! [`SplitMix64`] stream — fully deterministic and reproducible from
//! the case number printed on failure.

use std::io::Write;
use std::sync::{Arc, Mutex};

use sebmc_logic::rng::SplitMix64;
use sebmc_logic::{dimacs, Cnf, Lit, Var};
use sebmc_proof::{
    decode_stream, DratWriter, ProofSink, StreamingChecker, TeeSink, TAG_ADD, TAG_DELETE,
    TAG_FINAL, TAG_ORIG,
};
use sebmc_sat::{SolveResult, Solver};

/// A random CNF over at most `max_vars` variables with at most
/// `max_clauses` clauses of 1–3 literals.
fn random_cnf(rng: &mut SplitMix64, max_vars: usize, max_clauses: usize) -> Cnf {
    let mut cnf = Cnf::with_vars(max_vars);
    for _ in 0..rng.below(max_clauses + 1) {
        let len = rng.range_inclusive(1, 3);
        cnf.add_clause((0..len).map(|_| Var::new(rng.below(max_vars) as u32).lit(rng.coin())));
    }
    cnf
}

/// Runs `check` on `cases` seeded random CNFs, reporting the failing
/// formula in DIMACS on panic.
fn for_random_cnfs(
    seed: u64,
    cases: u64,
    max_vars: usize,
    max_clauses: usize,
    check: impl Fn(&Cnf, &mut SplitMix64),
) {
    for case in 0..cases {
        let mut rng = SplitMix64::new(seed ^ (case.wrapping_mul(0x9e37_79b9)));
        let cnf = random_cnf(&mut rng, max_vars, max_clauses);
        let result =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| check(&cnf, &mut rng)));
        if let Err(e) = result {
            eprintln!(
                "property failed on case {case} (seed {seed}):\n{}",
                dimacs::to_string(&cnf)
            );
            std::panic::resume_unwind(e);
        }
    }
}

fn model_of(s: &Solver, num_vars: usize) -> Vec<bool> {
    (0..num_vars)
        .map(|i| s.value(Var::new(i as u32)).unwrap_or(false))
        .collect()
}

#[test]
fn agrees_with_brute_force() {
    for_random_cnfs(0xA11CE, 256, 8, 24, |cnf, _| {
        let mut s = Solver::new();
        let consistent = s.add_cnf(cnf);
        let got = if consistent {
            s.solve()
        } else {
            SolveResult::Unsat
        };
        assert_eq!(got.is_sat(), cnf.brute_force_satisfiable());
    });
}

#[test]
fn models_satisfy_the_formula() {
    for_random_cnfs(0xB0B, 256, 10, 30, |cnf, _| {
        let mut s = Solver::new();
        if s.add_cnf(cnf) && s.solve() == SolveResult::Sat {
            assert!(cnf.eval(&model_of(&s, cnf.num_vars())));
        }
    });
}

/// Assumptions behave like temporary unit clauses.
#[test]
fn assumptions_equal_units() {
    for_random_cnfs(0xCAFE, 192, 7, 18, |cnf, rng| {
        let assumptions: Vec<_> = (0..cnf.num_vars().min(3))
            .map(|i| Var::new(i as u32).lit(rng.coin()))
            .collect();
        // Via assumptions:
        let mut s1 = Solver::new();
        if !s1.add_cnf(cnf) {
            return;
        }
        let r1 = s1.solve_with(&assumptions);
        // Via added units:
        let mut s2 = Solver::new();
        s2.add_cnf(cnf);
        let mut ok = true;
        for &a in &assumptions {
            ok &= s2.add_clause([a]);
        }
        let r2 = if ok { s2.solve() } else { SolveResult::Unsat };
        assert_eq!(r1.is_sat(), r2.is_sat());
    });
}

/// The failed-assumption set must itself be unsatisfiable with the
/// formula (it is a real core).
#[test]
fn failed_assumptions_are_a_core() {
    for_random_cnfs(0xC04E, 192, 7, 18, |cnf, rng| {
        let assumptions: Vec<_> = (0..cnf.num_vars().min(4))
            .map(|i| Var::new(i as u32).lit(rng.coin()))
            .collect();
        let mut s = Solver::new();
        if !s.add_cnf(cnf) {
            return;
        }
        if s.solve_with(&assumptions) == SolveResult::Unsat {
            let core = s.failed_assumptions().to_vec();
            for c in &core {
                assert!(assumptions.contains(c), "core must be a subset");
            }
            assert_eq!(s.solve_with(&core), SolveResult::Unsat);
        }
    });
}

/// Solving twice gives the same verdict (the solver is stateless
/// modulo learnt clauses, which must not change satisfiability).
#[test]
fn resolving_is_stable() {
    for_random_cnfs(0x57AB, 192, 8, 20, |cnf, _| {
        let mut s = Solver::new();
        if !s.add_cnf(cnf) {
            return;
        }
        let first = s.solve();
        let second = s.solve();
        assert_eq!(first, second);
    });
}

/// simplify() never changes satisfiability.
#[test]
fn simplify_preserves_satisfiability() {
    for_random_cnfs(0x51CC, 192, 8, 20, |cnf, _| {
        let mut s1 = Solver::new();
        let c1 = s1.add_cnf(cnf);
        let mut s2 = Solver::new();
        let c2 = s2.add_cnf(cnf);
        let r1 = if c1 { s1.solve() } else { SolveResult::Unsat };
        let r2 = if c2 && s2.simplify() {
            s2.solve()
        } else {
            SolveResult::Unsat
        };
        assert_eq!(r1.is_sat(), r2.is_sat());
    });
}

/// Interleaving `simplify()` (which triggers arena compaction) with
/// solving must be fully transparent: identical SAT/UNSAT verdicts,
/// and every model returned after compaction still satisfies the
/// original formula. This is the property jSAT relies on when it
/// retires blocking clauses mid-search.
#[test]
fn simplify_and_gc_preserve_verdicts_and_models() {
    for_random_cnfs(0x6C6C, 192, 9, 26, |cnf, rng| {
        // Reference verdict on a pristine solver.
        let mut reference = Solver::new();
        let verdict = if reference.add_cnf(cnf) {
            reference.solve()
        } else {
            SolveResult::Unsat
        };

        // Subject: same formula, with unit strengthenings and
        // simplify()/GC rounds interleaved between repeated solves.
        let mut s = Solver::new();
        let mut consistent = s.add_cnf(cnf);
        let mut strengthened = cnf.clone();
        for round in 0..3 {
            let got = if consistent && s.is_ok() {
                s.solve()
            } else {
                SolveResult::Unsat
            };
            if round == 0 {
                assert_eq!(
                    got.is_sat(),
                    verdict.is_sat(),
                    "verdict changed under simplify/GC"
                );
            } else {
                assert_eq!(got.is_sat(), strengthened.brute_force_satisfiable());
            }
            if got == SolveResult::Sat {
                let model = model_of(&s, cnf.num_vars());
                assert!(
                    strengthened.eval(&model),
                    "model after simplify/GC violates the formula"
                );
            }
            if got != SolveResult::Sat {
                break;
            }
            // Strengthen by a random unit, mirroring it in the oracle
            // copy, then force a simplify (and with it a compaction
            // opportunity).
            if cnf.num_vars() > 0 {
                let unit = Var::new(rng.below(cnf.num_vars()) as u32).lit(rng.coin());
                consistent &= s.add_clause([unit]);
                strengthened.add_unit(unit);
            }
            if consistent {
                consistent = s.simplify();
            }
        }
    });
}

/// Adding a satisfied model as a blocking clause makes the old
/// model infeasible (the enumeration pattern jSAT relies on).
#[test]
fn blocking_clauses_exclude_models() {
    for_random_cnfs(0xB10C, 128, 6, 14, |cnf, _| {
        let mut s = Solver::new();
        if !s.add_cnf(cnf) {
            return;
        }
        let mut models_seen = 0u32;
        while s.solve() == SolveResult::Sat && models_seen < 70 {
            models_seen += 1;
            let block: Vec<_> = (0..cnf.num_vars())
                .map(|i| {
                    let v = Var::new(i as u32);
                    v.lit(!s.value(v).unwrap_or(false))
                })
                .collect();
            if !s.add_clause(block) {
                break;
            }
        }
        // Full enumeration must terminate within 2^vars models.
        assert!(models_seen <= 1 << cnf.num_vars());
    });
}

/// A `Write` into a buffer the test keeps a handle on (the solver owns
/// its proof sink).
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The streaming checker checks exactly the stream a proof file would
/// hold: the annotated DRAT a tee'd writer received, replayed record
/// by record into a fresh checker, gives the same certificate, and
/// both checkers count the file's length in bytes.
#[test]
fn checker_input_replays_from_the_written_stream() {
    for_random_cnfs(0xD2A7, 128, 8, 30, |cnf, rng| {
        let file = SharedBuf::default();
        let mut s = Solver::new();
        s.set_proof_sink(Box::new(TeeSink::new(
            Box::new(StreamingChecker::new()),
            Box::new(DratWriter::new(file.clone())),
        )));
        // Solves under random assumptions log finalization lemmas too.
        let mut assumptions: Vec<Lit> = Vec::new();
        if s.add_cnf(cnf) {
            for _ in 0..3 {
                assumptions = (0..rng.below(3))
                    .map(|_| Var::new(rng.below(cnf.num_vars()) as u32).lit(rng.coin()))
                    .collect();
                s.solve_with(&assumptions);
            }
        }
        let live = s.proof_summary().expect("checking sink");
        let bytes = file.0.lock().unwrap().clone();
        let mut replay = StreamingChecker::new();
        for (tag, lits) in decode_stream(&bytes) {
            match tag {
                TAG_ORIG => replay.original(&lits),
                TAG_ADD => replay.add(&lits),
                TAG_DELETE => replay.delete(&lits),
                TAG_FINAL => replay.finalize_unsat(&lits),
                _ => unreachable!("decode_stream yields known tags only"),
            }
        }
        assert_eq!(replay.summary(), Some(live.clone()));
        assert_eq!(
            replay.certifies(&assumptions),
            s.proof_certifies(&assumptions)
        );
        assert_eq!(live.proof_bytes as usize, bytes.len());
        assert_eq!(replay.bytes_emitted(), bytes.len());
        assert_eq!(s.proof_bytes(), bytes.len());
    });
}

/// A random CNF with everything a clause batch must normalize mixed in:
/// units, repeated units, contradictory units, tautologies, duplicate
/// literals and, now and then, an empty clause.
fn messy_cnf(rng: &mut SplitMix64, max_vars: usize, max_clauses: usize) -> Cnf {
    let mut cnf = Cnf::with_vars(max_vars);
    let mut units: Vec<Lit> = Vec::new();
    for _ in 0..rng.below(max_clauses + 1) {
        let l = Var::new(rng.below(max_vars) as u32).lit(rng.coin());
        let m = Var::new(rng.below(max_vars) as u32).lit(rng.coin());
        let clause = match rng.below(24) {
            0 if rng.below(4) == 0 => Vec::new(),
            1 | 2 => {
                units.push(l);
                vec![l]
            }
            3 if !units.is_empty() => vec![units[rng.below(units.len())]],
            4 if !units.is_empty() => vec![!units[rng.below(units.len())]],
            5 => vec![l, !l, m],
            6 => vec![l, m, l, m],
            _ => (0..rng.range_inclusive(2, 4))
                .map(|_| Var::new(rng.below(max_vars) as u32).lit(rng.coin()))
                .collect(),
        };
        cnf.add_clause(clause);
    }
    cnf
}

/// Loads `cnf` clause by clause; returns whether the solver stayed
/// consistent.
fn load_each(s: &mut Solver, cnf: &Cnf) -> bool {
    s.ensure_vars(cnf.num_vars());
    cnf.iter().all(|c| s.add_clause(c.iter().copied()))
}

/// Loads `cnf` through one clause batch, finished or dropped; returns
/// whether the solver is consistent.
fn load_batch(s: &mut Solver, cnf: &Cnf, finish: bool) -> bool {
    s.ensure_vars(cnf.num_vars());
    let mut batch = s.batch();
    for c in cnf.iter() {
        batch.add(c.lits());
    }
    if finish {
        batch.finish()
    } else {
        drop(batch);
        s.is_ok()
    }
}

fn verdict(s: &mut Solver, consistent: bool) -> SolveResult {
    if consistent {
        s.solve()
    } else {
        SolveResult::Unsat
    }
}

/// A clause batch decides what adding its clauses one by one decides,
/// on a fresh solver and on one that already holds clauses, learnt
/// clauses and level-0 units, and it ends consistent exactly when
/// they do. Its models satisfy every clause, its
/// Unsat verdicts are certified by the streaming checker, and the
/// solver passes the invariant audit also when the batch is dropped
/// without `finish`.
#[test]
fn clause_batches_load_like_single_clauses() {
    const VARS: usize = 10;
    let (mut learnt_cases, mut sat_cases) = (0, 0);
    for case in 0..160u64 {
        let mut rng = SplitMix64::new(0xBA7C4 ^ case.wrapping_mul(0x9e37_79b9));
        let mut pre = Cnf::with_vars(VARS);
        for _ in 0..rng.range_inclusive(20, 44) {
            pre.add_clause((0..3).map(|_| Var::new(rng.below(VARS) as u32).lit(rng.coin())));
        }
        let mut units = Cnf::with_vars(VARS);
        for _ in 0..rng.below(3) {
            units.add_unit(Var::new(rng.below(VARS) as u32).lit(rng.coin()));
        }
        let cnf = messy_cnf(&mut rng, VARS, 30);
        let mut whole = pre.clone();
        whole.append(&units);
        whole.append(&cnf);
        let expect = whole.brute_force_satisfiable();
        sat_cases += usize::from(expect);
        for (preloaded, finish) in [(false, true), (true, true), (false, false), (true, false)] {
            let what = format!("case {case}, preloaded: {preloaded}, finish: {finish}");
            let mut each = Solver::new();
            let mut batched = Solver::new();
            batched.set_proof_sink(Box::new(StreamingChecker::new()));
            let consistent = if preloaded {
                let mut ok = [true, true];
                for (s, ok) in [&mut each, &mut batched].into_iter().zip(&mut ok) {
                    *ok = load_each(s, &pre) && s.solve() != SolveResult::Unsat;
                    *ok = load_each(s, &units) && *ok;
                }
                if batched.stats().learnts > 0 {
                    learnt_cases += 1;
                }
                [
                    load_each(&mut each, &cnf) && ok[0],
                    load_batch(&mut batched, &cnf, finish) && ok[1],
                ]
            } else {
                [
                    load_each(&mut each, &whole),
                    load_batch(&mut batched, &whole, finish),
                ]
            };
            // Level-0 propagation finds a conflict whatever order the
            // clauses arrive in, so both loads end equally consistent.
            assert_eq!(consistent[0], consistent[1], "consistency, {what}");
            batched.check_invariants();
            let got = [
                verdict(&mut each, consistent[0]),
                verdict(&mut batched, consistent[1]),
            ];
            assert_eq!(got[0].is_sat(), expect, "clause by clause, {what}");
            assert_eq!(got[1].is_sat(), expect, "batch, {what}");
            if expect {
                for s in [&each, &batched] {
                    assert!(
                        whole.eval(&model_of(s, VARS)),
                        "model violates a clause, {what}"
                    );
                }
            } else {
                assert!(
                    batched.proof_certifies(&[]),
                    "uncertified batch Unsat, {what}"
                );
            }
            batched.check_invariants();
        }
    }
    assert!(learnt_cases > 0, "no preloaded solver held learnt clauses");
    assert!(
        (1..160).contains(&sat_cases),
        "{sat_cases} of 160 cases satisfiable"
    );
}
