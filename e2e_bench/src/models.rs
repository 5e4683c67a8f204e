//! Benchmark models, their AIGER files, and the verdict oracle.
//!
//! Every job carries the bound at which its target first becomes
//! reachable (or `None`). The oracle never runs an engine: family
//! models use the builders' documented witness lengths, LFSRs and seeded
//! small `random_fsm` models are explored explicitly when built, and the
//! two models too wide for either carry values recorded once when jSAT
//! and unrolling agreed on them.

use std::path::{Path, PathBuf};

use sebmc_aiger::{model_to_aiger, model_to_aiger_with_resets, to_ascii_string, AigerReset};
use sebmc_model::builders;
use sebmc_model::explicit::reachable_sets;
use sebmc_model::{unpack_state, Model};

/// A model family together with what its documentation says about
/// reachability in *exactly* `k` steps.
#[derive(Clone, Debug)]
pub enum Family {
    Shift(usize),
    Johnson(usize),
    TokenRing(usize),
    CounterEnable(usize),
    CounterReset(usize),
    Fifo(usize),
    Elevator(usize),
    Arbiter(usize),
    Gray(usize),
    Traffic,
    Peterson,
    /// `lfsr(w, target_after)`, decided by explicit search (its one
    /// path is cheap to follow, and the period is not documented).
    Lfsr(usize, usize),
    /// `random_fsm(bits, inputs, seed)`, decided by explicit search.
    RandomSmall(usize, usize, u64),
    /// A model too wide for explicit search, with the first reachable
    /// bound recorded when jSAT and unrolling agreed.
    Recorded(RecordedModel),
}

/// The wide models whose verdicts are recorded values.
#[derive(Clone, Copy, Debug)]
pub enum RecordedModel {
    /// `random_fsm(40, 4, 11)`: first reachable at bound 8.
    Random40,
    /// `dense_fsm(32, 4, 3000, 7)`: first reachable at bound 2.
    Dense32,
}

/// A built model, its AIGER file, and its reachability oracle.
pub struct BenchModel {
    family: Family,
    pub model: Model,
    pub path: PathBuf,
    /// `reach[k]`: a target is reachable in exactly `k` steps, for
    /// every `k` up to the largest bound any job asks of this model.
    /// `None` for recorded models, whose only known fact is the first
    /// reachable bound.
    reach: Option<Vec<bool>>,
}

impl Family {
    fn build(&self) -> Model {
        match *self {
            Family::Shift(w) => builders::shift_register(w),
            Family::Johnson(w) => builders::johnson_counter(w),
            Family::TokenRing(n) => builders::token_ring(n),
            Family::CounterEnable(w) => builders::counter_with_enable(w),
            Family::CounterReset(w) => builders::counter_with_reset(w),
            Family::Fifo(p) => builders::fifo(p),
            Family::Elevator(w) => builders::elevator(w),
            Family::Arbiter(n) => builders::round_robin_arbiter(n),
            Family::Gray(w) => builders::gray_counter(w),
            Family::Traffic => builders::traffic_light(),
            Family::Peterson => builders::peterson(),
            Family::Lfsr(w, t) => builders::lfsr(w, t),
            Family::RandomSmall(bits, inputs, seed) => builders::random_fsm(bits, inputs, seed),
            Family::Recorded(RecordedModel::Random40) => builders::random_fsm(40, 4, 11),
            Family::Recorded(RecordedModel::Dense32) => builders::dense_fsm(32, 4, 3000, 7),
        }
    }

    /// Reachability in exactly `k` steps, from the builder docs.
    fn documented(&self, k: usize) -> bool {
        match *self {
            Family::Shift(w) => k >= w,
            // Period 2w, first reached after w steps.
            Family::Johnson(w) => k >= w && (k - w).is_multiple_of(2 * w),
            // The token can wait, so every k past the minimum works.
            Family::TokenRing(n) => k + 1 >= n,
            Family::CounterEnable(w) | Family::CounterReset(w) => k + 1 >= 1 << w,
            // Once full of ones the FIFO can idle.
            Family::Fifo(p) => k >= 1 << p,
            // At the top with the door open, holding `open` idles.
            Family::Elevator(w) => k >= 1 << w,
            Family::Arbiter(n) => k >= n && k.is_multiple_of(n),
            // Autonomous with period 2^w, first reached after 2^w − 1.
            Family::Gray(w) => k + 1 >= 1 << w && (k + 1).is_multiple_of(1 << w),
            Family::Traffic | Family::Peterson => false,
            Family::Lfsr(..) | Family::RandomSmall(..) | Family::Recorded(_) => {
                unreachable!("not a documented family")
            }
        }
    }

    /// Latch resets for models too wide for `model_to_aiger` to verify
    /// exhaustively: every builder starts all-zero except the token
    /// ring, whose token starts at station 0.
    fn resets(&self, latches: usize) -> Vec<AigerReset> {
        let mut r = vec![AigerReset::Zero; latches];
        if let Family::TokenRing(_) = self {
            r[0] = AigerReset::One;
        }
        r
    }
}

impl BenchModel {
    /// Builds the model, writes it as an ASCII AIGER file into `dir`,
    /// and computes its oracle up to bound `max_bound`.
    pub fn create(family: Family, dir: &Path, max_bound: usize) -> Result<BenchModel, String> {
        let model = family.build();
        let aiger = if model.num_state_vars() <= 22 {
            model_to_aiger(&model)
        } else {
            let resets = family.resets(model.num_state_vars());
            let init: Vec<bool> = resets.iter().map(|r| *r == AigerReset::One).collect();
            if !model.eval_init(&init) {
                return Err(format!(
                    "{}: assumed reset state is not initial",
                    model.name()
                ));
            }
            model_to_aiger_with_resets(&model, &resets)
        }
        .map_err(|e| format!("{}: AIGER export failed: {e}", model.name()))?;
        let path = dir.join(format!("{}.aag", model.name()));
        std::fs::write(&path, to_ascii_string(&aiger))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        let reach = match family {
            Family::Recorded(_) => None,
            Family::Lfsr(..) | Family::RandomSmall(..) => {
                let n = model.num_state_vars();
                Some(
                    reachable_sets(&model, max_bound)
                        .iter()
                        .map(|layer| {
                            layer
                                .iter()
                                .any(|&s| model.eval_target(&unpack_state(s, n)))
                        })
                        .collect(),
                )
            }
            _ => Some((0..=max_bound).map(|k| family.documented(k)).collect()),
        };
        Ok(BenchModel {
            family,
            model,
            path,
            reach,
        })
    }

    /// The first bound in `0..=max_bound` accepted by `supported` at
    /// which a target is reachable in exactly that many steps — the
    /// verdict a deepening sweep over those bounds must return.
    pub fn expected_first(
        &self,
        max_bound: usize,
        supported: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        match (&self.reach, &self.family) {
            (Some(reach), _) => (0..=max_bound).find(|&k| supported(k) && reach[k]),
            (None, Family::Recorded(which)) => {
                assert!(
                    (0..=max_bound).all(&supported),
                    "recorded verdicts only cover sweeps over every bound"
                );
                let first = match which {
                    RecordedModel::Random40 => 8,
                    RecordedModel::Dense32 => 2,
                };
                (first <= max_bound).then_some(first)
            }
            (None, _) => unreachable!("only recorded models lack a reach table"),
        }
    }
}
