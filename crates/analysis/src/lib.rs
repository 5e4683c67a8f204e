//! Static model analysis: cone-of-influence reduction, constant-latch
//! sweeping, and witness lifting.
//!
//! The paper's whole contribution is keeping the BMC formula small,
//! yet an engine that encodes the *full* transition cone pays arena
//! bytes and propagation time for latches the target can never
//! observe. This crate runs a static pass over a [`Model`]'s AIG
//! **before any engine starts** and produces:
//!
//! * a [`ModelAnalysis`] diagnostics report — cone-of-influence size
//!   per root, constant latches with their values, unused free
//!   inputs, a latch fan-in histogram, and the transition-relation
//!   cone size before/after reduction;
//! * a [`Reduction`]: a genuinely smaller [`Model`] plus a
//!   [`Reconstruction`] map that lifts traces found on the reduced
//!   model back to the original variable order, so
//!   [`Model::check_trace`] (and `--certify`) still validate against
//!   the **original** model.
//!
//! # The three reductions, and why they are sound
//!
//! **Constant-latch sweeping.** A latch is *swept* when its initial
//! value is forced by the init predicate and its next-state function
//! folds to that same constant once every already-swept latch is
//! substituted. Forced values are extracted by decomposing the init
//! predicate as a top-level AND tree and reading off state literals —
//! an under-approximation, but one that captures every conjunctive
//! init the in-tree builders (and the AIGER importer's zero-init
//! default) produce. The sweep runs the set of candidates *downward*
//! to a greatest fixpoint: start from every forced latch, repeatedly
//! drop candidates whose next function does not fold to their forced
//! constant under the surviving candidates, and stop when the set is
//! stable. The surviving set `S` is simultaneously inductive — every
//! latch of `S` holds its constant in every initial state (forced),
//! and if all of `S` hold their constants at step `t`, each folds to
//! its constant at `t + 1` — so replacing `S` by constants preserves
//! every reachable state projection exactly.
//!
//! **Cone of influence.** With swept latches substituted, each
//! latch's *dependencies* are the state variables occurring in its
//! (folded) next function. The COI is the least set of latches
//! containing the dependencies of `target` and every constraint and
//! closed under next-function dependencies. Latches outside the COI
//! can never influence a verdict through the transition structure —
//! but they can still constrain the *initial* states, so removal
//! additionally requires that the residual init predicate (swept and
//! forced-removed latches substituted) does not mention them; any
//! latch that init still couples to the kept set is promoted back
//! into the COI, to a fixpoint. After that, every removed latch
//! either has a forced init value (substituted into the residual
//! init, which is an equivalence because the literal is conjoined at
//! the top level) or does not occur in it at all (so any lifted value
//! extends an initial state).
//!
//! **Unused inputs.** Free inputs that occur in no kept next
//! function and no constraint (after sweeping) are dropped; lifted
//! traces fill them with `false`.
//!
//! # Trace lifting
//!
//! [`Reconstruction::lift_trace`] rebuilds a full-width trace: kept
//! latches copy from the reduced trace, swept latches replay their
//! constants, removed latches start from their forced (or `false`)
//! init value and are *replayed through the original next functions*
//! step by step — so the lifted trace is a genuine execution of the
//! original model, not just a projection, and passes
//! [`Model::check_trace`] including the successor check on every
//! removed latch.

#![forbid(unsafe_code)]

use std::collections::BTreeSet;

use sebmc_logic::json::{obj, Json};
use sebmc_logic::{Aig, AigRef};
use sebmc_model::{Model, ModelBuilder, Trace};

/// What became of one original latch under the reduction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LatchFate {
    /// In the cone of influence; maps to this reduced-model index.
    Kept(usize),
    /// Swept as a constant with this value.
    Swept(bool),
    /// Out of the cone of influence (and not constant); `forced` is
    /// its init-forced value when the init predicate pins it.
    Removed {
        /// Init-forced value, if any (`None` means init is
        /// insensitive to the latch and lifting fills `false`).
        forced: Option<bool>,
    },
}

/// What became of one original free input under the reduction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum InputFate {
    /// Still read somewhere; maps to this reduced-model input index.
    Kept(usize),
    /// Unused after reduction; lifted traces fill it with `false`.
    Filled,
}

/// Cone-of-influence size of one analysis root (the target or one
/// invariant constraint).
#[derive(Clone, Debug)]
pub struct CoiRoot {
    /// Root label (`target` or `constraint[i]`).
    pub name: String,
    /// Latches in this root's transitive cone of influence (computed
    /// with swept constants substituted).
    pub coi_latches: usize,
}

/// The diagnostics report of one static-analysis run.
#[derive(Clone, Debug)]
pub struct ModelAnalysis {
    /// Name of the analysed model.
    pub model: String,
    /// Original latch count.
    pub latches: usize,
    /// Original free-input count.
    pub inputs: usize,
    /// Latches kept (in the cone of influence of target+constraints).
    pub coi_latches: usize,
    /// Swept constant latches as `(original index, constant value)`.
    pub swept: Vec<(usize, bool)>,
    /// Latches removed as out-of-cone (original indices; disjoint
    /// from [`ModelAnalysis::swept`]).
    pub removed: Vec<usize>,
    /// Free inputs dropped as unused (original indices).
    pub unused_inputs: Vec<usize>,
    /// Per-root cone-of-influence sizes (target first, then each
    /// constraint).
    pub coi_roots: Vec<CoiRoot>,
    /// Histogram of latch fan-in: `(fan-in, latch count)`, ascending,
    /// where fan-in counts the distinct state variables and free
    /// inputs a latch's next function reads (before reduction).
    pub fanin_histogram: Vec<(usize, usize)>,
    /// AND gates in the transition-relation cone before reduction.
    pub tr_cone_before: usize,
    /// AND gates in the transition-relation cone after reduction
    /// (equals `tr_cone_before` when the reduction is trivial).
    pub tr_cone_after: usize,
}

impl ModelAnalysis {
    /// Whether the analysis found nothing to remove.
    pub fn is_trivial(&self) -> bool {
        self.swept.is_empty() && self.removed.is_empty() && self.unused_inputs.is_empty()
    }

    /// Latches swept as constants.
    pub fn latches_swept(&self) -> usize {
        self.swept.len()
    }

    /// Free inputs removed as unused.
    pub fn inputs_removed(&self) -> usize {
        self.unused_inputs.len()
    }

    /// The human-readable diagnostics report (the `sebmc analyze`
    /// output).
    pub fn render(&self, original: &Model) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "model {}", self.model);
        let _ = writeln!(
            out,
            "  latches {}  inputs {}  tr-cone {} ANDs",
            self.latches, self.inputs, self.tr_cone_before
        );
        for root in &self.coi_roots {
            let _ = writeln!(out, "  coi[{}] = {} latches", root.name, root.coi_latches);
        }
        let _ = writeln!(
            out,
            "  kept {} / {} latches in cone of influence",
            self.coi_latches, self.latches
        );
        for &(i, v) in &self.swept {
            let _ = writeln!(
                out,
                "  constant latch {} = {}",
                original.state_name(i),
                if v { 1 } else { 0 }
            );
        }
        for &i in &self.removed {
            let _ = writeln!(out, "  out-of-cone latch {}", original.state_name(i));
        }
        for &j in &self.unused_inputs {
            let _ = writeln!(out, "  unused input {}", original.input_name(j));
        }
        let hist: Vec<String> = self
            .fanin_histogram
            .iter()
            .map(|&(fanin, count)| format!("{fanin}:{count}"))
            .collect();
        let _ = writeln!(out, "  fan-in histogram {}", hist.join(" "));
        let _ = writeln!(
            out,
            "  tr-cone {} -> {} ANDs ({})",
            self.tr_cone_before,
            self.tr_cone_after,
            if self.is_trivial() {
                "no reduction"
            } else {
                "reduced"
            }
        );
        out
    }

    /// The report as a JSON object (for `sebmc analyze --json`).
    pub fn to_json(&self) -> Json {
        let indices = |xs: &[usize]| Json::Arr(xs.iter().map(|&x| x.into()).collect());
        let pair = |a: Json, b: Json| Json::Arr(vec![a, b]);
        let swept = self.swept.iter().map(|&(i, v)| pair(i.into(), v.into()));
        let roots = self.coi_roots.iter().map(|r| {
            obj(vec![
                ("name", r.name.as_str().into()),
                ("coi_latches", r.coi_latches.into()),
            ])
        });
        let hist = self
            .fanin_histogram
            .iter()
            .map(|&(fanin, count)| pair(fanin.into(), count.into()));
        obj(vec![
            ("model", self.model.as_str().into()),
            ("latches", self.latches.into()),
            ("inputs", self.inputs.into()),
            ("coi_latches", self.coi_latches.into()),
            ("latches_swept", self.swept.len().into()),
            ("inputs_removed", self.unused_inputs.len().into()),
            ("swept", Json::Arr(swept.collect())),
            ("removed", indices(&self.removed)),
            ("unused_inputs", indices(&self.unused_inputs)),
            ("coi_roots", Json::Arr(roots.collect())),
            ("fanin_histogram", Json::Arr(hist.collect())),
            ("tr_cone_before", self.tr_cone_before.into()),
            ("tr_cone_after", self.tr_cone_after.into()),
        ])
    }
}

/// Lifts traces on the reduced model back to the original variable
/// order. Owns a clone of the original model so lifted traces can be
/// replayed (and validated) without the caller keeping one around.
#[derive(Clone, Debug)]
pub struct Reconstruction {
    original: Model,
    latches: Vec<LatchFate>,
    inputs: Vec<InputFate>,
}

impl Reconstruction {
    /// The original (unreduced) model.
    pub fn original(&self) -> &Model {
        &self.original
    }

    /// Per-latch fate, indexed by original latch.
    pub fn latch_fates(&self) -> &[LatchFate] {
        &self.latches
    }

    /// Per-input fate, indexed by original free input.
    pub fn input_fates(&self) -> &[InputFate] {
        &self.inputs
    }

    /// Lifts a trace of the reduced model to the original variable
    /// order.
    ///
    /// Kept latches and inputs copy from the reduced trace; swept
    /// latches replay their constants; removed latches start from
    /// their forced init value (`false` when init does not mention
    /// them) and are replayed through the original next functions, so
    /// the result is a genuine original-model execution. Dropped
    /// inputs are filled with `false`.
    ///
    /// Fails (with a description) when the reduced trace has the
    /// wrong shape for the reduced model — the caller should treat
    /// that as a reduction bug and degrade the verdict rather than
    /// trust the trace.
    pub fn lift_trace(&self, reduced: &Trace) -> Result<Trace, String> {
        if reduced.states.len() != reduced.inputs.len() + 1 {
            return Err(format!(
                "reduced trace malformed: {} states, {} inputs",
                reduced.states.len(),
                reduced.inputs.len()
            ));
        }
        let n = self.latches.len();
        let m = self.inputs.len();
        let reduced_n = self
            .latches
            .iter()
            .filter(|f| matches!(f, LatchFate::Kept(_)))
            .count();
        let reduced_m = self
            .inputs
            .iter()
            .filter(|f| matches!(f, InputFate::Kept(_)))
            .count();
        for (t, s) in reduced.states.iter().enumerate() {
            if s.len() != reduced_n {
                return Err(format!(
                    "reduced state {t} has width {} (expected {reduced_n})",
                    s.len()
                ));
            }
        }
        for (t, iv) in reduced.inputs.iter().enumerate() {
            if iv.len() != reduced_m {
                return Err(format!(
                    "reduced input vector {t} has width {} (expected {reduced_m})",
                    iv.len()
                ));
            }
        }

        let inputs: Vec<Vec<bool>> = reduced
            .inputs
            .iter()
            .map(|riv| {
                let mut full = vec![false; m];
                for (j, fate) in self.inputs.iter().enumerate() {
                    if let InputFate::Kept(rj) = fate {
                        full[j] = riv[*rj];
                    }
                }
                full
            })
            .collect();

        let mut first = vec![false; n];
        for (i, fate) in self.latches.iter().enumerate() {
            first[i] = match fate {
                LatchFate::Kept(ri) => reduced.states[0][*ri],
                LatchFate::Swept(v) => *v,
                LatchFate::Removed { forced } => forced.unwrap_or(false),
            };
        }
        let mut states = vec![first];
        for (t, full_inputs) in inputs.iter().enumerate() {
            let prev = states.last().expect("states is non-empty");
            let mut next = self.original.step(prev, full_inputs);
            for (i, fate) in self.latches.iter().enumerate() {
                if let LatchFate::Kept(ri) = fate {
                    debug_assert_eq!(
                        next[i],
                        reduced.states[t + 1][*ri],
                        "kept latch {i} diverged from the reduced trace at step {t}"
                    );
                    next[i] = reduced.states[t + 1][*ri];
                }
            }
            states.push(next);
        }
        Ok(Trace { states, inputs })
    }
}

/// A successful reduction: the analysis report, the smaller model,
/// and the lifting map back to the original.
#[derive(Clone, Debug)]
pub struct Reduction {
    /// The diagnostics report.
    pub analysis: ModelAnalysis,
    /// The reduced model (strictly fewer latches and/or inputs than
    /// the original).
    pub model: Model,
    /// The lifting map (owns a clone of the original model).
    pub recon: Reconstruction,
}

/// Runs the full analysis pipeline and returns the diagnostics
/// report, without building a reduced model.
pub fn analyze(model: &Model) -> ModelAnalysis {
    run(model).0
}

/// Runs the full analysis pipeline and builds the reduced model.
///
/// Returns `None` when there is nothing to remove (the reduced model
/// would equal the original), when the cone of influence is empty
/// (a degenerate model no engine needs help with), or when the init
/// predicate was found contradictory during forced-literal extraction
/// (reduction stays out of the way of an empty state space).
pub fn reduce(model: &Model) -> Option<Reduction> {
    let (analysis, built) = run(model);
    let (reduced, recon) = built?;
    Some(Reduction {
        analysis,
        model: reduced,
        recon,
    })
}

/// AIG-input classification for one model: which primary input backs
/// which latch / free input.
struct InputRoles {
    /// AIG input index -> latch index.
    latch_of: Vec<Option<usize>>,
    /// AIG input index -> free-input index.
    free_of: Vec<Option<usize>>,
}

impl InputRoles {
    fn of(model: &Model) -> Self {
        let total = model.aig().num_inputs();
        let mut latch_of = vec![None; total];
        let mut free_of = vec![None; total];
        for (i, &p) in model.state_input_indices().iter().enumerate() {
            latch_of[p] = Some(i);
        }
        for (j, &p) in model.free_input_indices().iter().enumerate() {
            free_of[p] = Some(j);
        }
        InputRoles { latch_of, free_of }
    }
}

fn const_ref(v: bool) -> AigRef {
    if v {
        AigRef::TRUE
    } else {
        AigRef::FALSE
    }
}

/// Extracts init-forced latch values by decomposing the init
/// predicate as a top-level AND tree and reading state literals off
/// its leaves. Returns `None` when the decomposition proves init
/// contradictory (conjoined `x` and `!x`, or a `false` leaf).
fn forced_init_values(model: &Model, roles: &InputRoles) -> Option<Vec<Option<bool>>> {
    let aig = model.aig();
    let mut forced = vec![None; model.num_state_vars()];
    let init = model.init_ref();
    if init == AigRef::FALSE {
        return None;
    }
    let mut stack = vec![init];
    while let Some(r) = stack.pop() {
        if r == AigRef::TRUE {
            continue;
        }
        if r == AigRef::FALSE {
            return None;
        }
        let node = r.node();
        if let Some((a, b)) = aig.and_fanins(node) {
            // Only a *non-complemented* AND is a conjunction we can
            // decompose; a negated AND is an opaque leaf.
            if !r.is_complement() {
                stack.push(a);
                stack.push(b);
            }
            continue;
        }
        if let Some(p) = aig.input_index(node) {
            if let Some(latch) = roles.latch_of[p] {
                let v = !r.is_complement();
                match forced[latch] {
                    None => forced[latch] = Some(v),
                    Some(old) if old != v => return None,
                    Some(_) => {}
                }
            }
        }
    }
    Some(forced)
}

/// The primary-input indices (of `aig`) that `root` transitively
/// reads.
fn support(aig: &Aig, root: AigRef) -> BTreeSet<usize> {
    let mut out = BTreeSet::new();
    for node in aig.cone_topo(&[root]) {
        if let Some(i) = aig.input_index(node) {
            out.insert(i);
        }
    }
    out
}

/// A scratch import of a set of roots with swept latches substituted
/// by constants: maps every surviving AIG input to a fresh scratch
/// input and records the origin of each, so supports computed in the
/// scratch graph (where constant folding has run) map back to
/// original latch/input indices.
struct SweptView {
    scratch: Aig,
    /// Translated roots, in the order given to [`SweptView::import`].
    roots: Vec<AigRef>,
    /// Scratch input index -> original AIG input index.
    origin: Vec<usize>,
}

impl SweptView {
    fn import(model: &Model, swept: &[Option<bool>], roles: &InputRoles, roots: &[AigRef]) -> Self {
        let aig = model.aig();
        let mut scratch = Aig::new();
        let mut origin = Vec::new();
        let mut map = Vec::with_capacity(aig.num_inputs());
        for p in 0..aig.num_inputs() {
            let subst = roles.latch_of[p]
                .and_then(|latch| swept[latch])
                .map(const_ref);
            map.push(subst.unwrap_or_else(|| {
                origin.push(p);
                scratch.input()
            }));
        }
        let roots = scratch.import(aig, roots, &map);
        SweptView {
            scratch,
            roots,
            origin,
        }
    }

    /// The original latches the `idx`-th imported root depends on.
    fn latch_support(&self, idx: usize, roles: &InputRoles) -> BTreeSet<usize> {
        support(&self.scratch, self.roots[idx])
            .into_iter()
            .filter_map(|si| roles.latch_of[self.origin[si]])
            .collect()
    }

    /// The original free inputs the `idx`-th imported root depends on.
    fn free_support(&self, idx: usize, roles: &InputRoles) -> BTreeSet<usize> {
        support(&self.scratch, self.roots[idx])
            .into_iter()
            .filter_map(|si| roles.free_of[self.origin[si]])
            .collect()
    }
}

fn run(model: &Model) -> (ModelAnalysis, Option<(Model, Reconstruction)>) {
    let n = model.num_state_vars();
    let m = model.num_inputs();
    let aig = model.aig();
    let roles = InputRoles::of(model);

    // Fan-in histogram over the raw (unswept) next functions.
    let mut fanin_counts: Vec<usize> = Vec::with_capacity(n);
    for &next in model.next_refs() {
        fanin_counts.push(support(aig, next).len());
    }
    let mut histogram: Vec<(usize, usize)> = Vec::new();
    let mut sorted = fanin_counts.clone();
    sorted.sort_unstable();
    for fanin in sorted {
        match histogram.last_mut() {
            Some((f, c)) if *f == fanin => *c += 1,
            _ => histogram.push((fanin, 1)),
        }
    }

    let trivial_analysis = |tr_before: usize| ModelAnalysis {
        model: model.name().to_string(),
        latches: n,
        inputs: m,
        coi_latches: n,
        swept: Vec::new(),
        removed: Vec::new(),
        unused_inputs: Vec::new(),
        coi_roots: Vec::new(),
        fanin_histogram: histogram.clone(),
        tr_cone_before: tr_before,
        tr_cone_after: tr_before,
    };
    let tr_before = model.tr_cone_size();

    // 1. Init-forced values; a contradictory init means an empty
    // state space — leave the model alone.
    let Some(forced) = forced_init_values(model, &roles) else {
        return (trivial_analysis(tr_before), None);
    };

    // 2. Constant sweep, downward to a greatest fixpoint: candidates
    // start as every forced latch and shrink until each surviving
    // candidate's next function folds to its constant under all
    // surviving candidates.
    let mut swept: Vec<Option<bool>> = forced.clone();
    loop {
        let candidates: Vec<usize> = (0..n).filter(|&i| swept[i].is_some()).collect();
        if candidates.is_empty() {
            break;
        }
        let roots: Vec<AigRef> = candidates.iter().map(|&i| model.next_refs()[i]).collect();
        let view = SweptView::import(model, &swept, &roles, &roots);
        let mut changed = false;
        for (k, &i) in candidates.iter().enumerate() {
            let want = const_ref(swept[i].expect("candidate has a value"));
            if view.roots[k] != want {
                swept[i] = None;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // 3. Dependencies (swept constants substituted) and the cone of
    // influence of target + constraints.
    let mut dep_roots: Vec<AigRef> = model.next_refs().to_vec();
    dep_roots.push(model.target_ref());
    dep_roots.extend_from_slice(model.constraint_refs());
    let view = SweptView::import(model, &swept, &roles, &dep_roots);
    let latch_deps: Vec<BTreeSet<usize>> = (0..n).map(|i| view.latch_support(i, &roles)).collect();
    let closure = |seed: BTreeSet<usize>| -> BTreeSet<usize> {
        let mut kept = BTreeSet::new();
        let mut stack: Vec<usize> = seed.into_iter().collect();
        while let Some(i) = stack.pop() {
            if !kept.insert(i) {
                continue;
            }
            for &d in &latch_deps[i] {
                if !kept.contains(&d) {
                    stack.push(d);
                }
            }
        }
        kept
    };

    let mut coi_roots = Vec::new();
    let mut seed = BTreeSet::new();
    for (k, root) in dep_roots.iter().enumerate().skip(n) {
        let _ = root;
        let root_deps = view.latch_support(k, &roles);
        let root_coi = closure(root_deps.clone());
        coi_roots.push(CoiRoot {
            name: if k == n {
                "target".to_string()
            } else {
                format!("constraint[{}]", k - n - 1)
            },
            coi_latches: root_coi.len(),
        });
        seed.extend(root_deps);
    }
    let mut kept = closure(seed);
    // A swept latch can never be in the cone (it was substituted out
    // of every support).
    debug_assert!(kept.iter().all(|&i| swept[i].is_none()));

    // 4. Init-residual fixpoint: a removed latch must not constrain
    // the kept set through the init predicate. Substitute swept and
    // forced-removed latches in init; any *other* removed latch that
    // still occurs is promoted back into the cone.
    loop {
        let mut init_map = Vec::with_capacity(aig.num_inputs());
        let mut scratch = Aig::new();
        let mut origin = Vec::new();
        for p in 0..aig.num_inputs() {
            let subst = match roles.latch_of[p] {
                Some(i) if swept[i].is_some() => Some(const_ref(swept[i].expect("swept"))),
                Some(i) if !kept.contains(&i) => forced[i].map(const_ref),
                _ => None,
            };
            init_map.push(subst.unwrap_or_else(|| {
                origin.push(p);
                scratch.input()
            }));
        }
        let residual = scratch.import(aig, &[model.init_ref()], &init_map)[0];
        let promote: Vec<usize> = support(&scratch, residual)
            .into_iter()
            .filter_map(|si| roles.latch_of[origin[si]])
            .filter(|i| swept[*i].is_none() && !kept.contains(i))
            .collect();
        if promote.is_empty() {
            break;
        }
        let mut seed = kept.clone();
        seed.extend(promote);
        kept = closure(seed);
    }

    // 5. Unused free inputs: not read by any kept next function or
    // any constraint (after sweeping).
    let mut used_inputs: BTreeSet<usize> = BTreeSet::new();
    for &i in &kept {
        used_inputs.extend(view.free_support(i, &roles));
    }
    for k in (n + 1)..dep_roots.len() {
        used_inputs.extend(view.free_support(k, &roles));
    }
    let unused_inputs: Vec<usize> = (0..m).filter(|j| !used_inputs.contains(j)).collect();

    let swept_list: Vec<(usize, bool)> = (0..n).filter_map(|i| swept[i].map(|v| (i, v))).collect();
    let removed_list: Vec<usize> = (0..n)
        .filter(|i| swept[*i].is_none() && !kept.contains(i))
        .collect();

    let mut analysis = ModelAnalysis {
        model: model.name().to_string(),
        latches: n,
        inputs: m,
        coi_latches: kept.len(),
        swept: swept_list.clone(),
        removed: removed_list.clone(),
        unused_inputs: unused_inputs.clone(),
        coi_roots,
        fanin_histogram: histogram,
        tr_cone_before: tr_before,
        tr_cone_after: tr_before,
    };

    if analysis.is_trivial() || kept.is_empty() {
        // Nothing to remove, or a degenerate cone (a constant target
        // needs no engine help and a zero-latch model would only
        // invite edge cases downstream).
        return (analysis, None);
    }

    // 6. Build the reduced model.
    let kept_vec: Vec<usize> = kept.iter().copied().collect();
    let mut reduced_idx = vec![usize::MAX; n];
    for (ri, &i) in kept_vec.iter().enumerate() {
        reduced_idx[i] = ri;
    }
    let used_vec: Vec<usize> = used_inputs.iter().copied().collect();
    let mut reduced_input_idx = vec![usize::MAX; m];
    for (rj, &j) in used_vec.iter().enumerate() {
        reduced_input_idx[j] = rj;
    }

    let mut b = ModelBuilder::new(model.name());
    let state_refs: Vec<AigRef> = kept_vec
        .iter()
        .map(|&i| b.state_var(model.state_name(i)))
        .collect();
    let input_refs: Vec<AigRef> = used_vec
        .iter()
        .map(|&j| b.input(model.input_name(j)))
        .collect();

    // The general substitution: kept latches to reduced state vars,
    // swept latches to their constants, removed latches to `false`
    // (they cannot occur in any imported cone — the COI closure and
    // the unused-input computation guarantee it), used inputs to
    // reduced inputs, unused inputs to `false`.
    let mut general_map = Vec::with_capacity(aig.num_inputs());
    // Init keeps kept latches symbolic but substitutes swept and
    // forced-removed latches; unforced removed latches cannot occur
    // (the init-residual fixpoint promoted any that did).
    let mut init_map = Vec::with_capacity(aig.num_inputs());
    for p in 0..aig.num_inputs() {
        let (g, ini) = if let Some(i) = roles.latch_of[p] {
            if let Some(v) = swept[i] {
                (const_ref(v), const_ref(v))
            } else if kept.contains(&i) {
                (state_refs[reduced_idx[i]], state_refs[reduced_idx[i]])
            } else {
                (AigRef::FALSE, const_ref(forced[i].unwrap_or(false)))
            }
        } else if let Some(j) = roles.free_of[p] {
            if reduced_input_idx[j] != usize::MAX {
                (input_refs[reduced_input_idx[j]], AigRef::FALSE)
            } else {
                (AigRef::FALSE, AigRef::FALSE)
            }
        } else {
            // An AIG input backing neither a latch nor a free input
            // cannot occur in any model cone.
            (AigRef::FALSE, AigRef::FALSE)
        };
        general_map.push(g);
        init_map.push(ini);
    }

    let mut general_roots: Vec<AigRef> = kept_vec.iter().map(|&i| model.next_refs()[i]).collect();
    general_roots.push(model.target_ref());
    general_roots.extend_from_slice(model.constraint_refs());
    let imported = b.aig_mut().import(aig, &general_roots, &general_map);
    let imported_init = b.aig_mut().import(aig, &[model.init_ref()], &init_map)[0];

    for (ri, &f) in imported.iter().take(kept_vec.len()).enumerate() {
        b.set_next(ri, f);
    }
    b.set_target(imported[kept_vec.len()]);
    for &c in &imported[kept_vec.len() + 1..] {
        b.add_constraint(c);
    }
    b.set_init(imported_init);

    // A build error here would be a reduction bug (e.g. a cone that
    // still reads a dropped input); degrade to "no reduction" rather
    // than poison the run.
    let Ok(reduced) = b.build() else {
        analysis.swept.clear();
        analysis.removed.clear();
        analysis.unused_inputs.clear();
        analysis.coi_latches = n;
        return (analysis, None);
    };
    analysis.tr_cone_after = reduced.tr_cone_size();

    let latch_fates: Vec<LatchFate> = (0..n)
        .map(|i| {
            if let Some(v) = swept[i] {
                LatchFate::Swept(v)
            } else if kept.contains(&i) {
                LatchFate::Kept(reduced_idx[i])
            } else {
                LatchFate::Removed { forced: forced[i] }
            }
        })
        .collect();
    let input_fates: Vec<InputFate> = (0..m)
        .map(|j| {
            if reduced_input_idx[j] != usize::MAX {
                InputFate::Kept(reduced_input_idx[j])
            } else {
                InputFate::Filled
            }
        })
        .collect();
    let recon = Reconstruction {
        original: model.clone(),
        latches: latch_fates,
        inputs: input_fates,
    };
    (analysis, Some((reduced, recon)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sebmc_model::builders;

    /// A model with an observer latch chain hanging off the side: the
    /// target reads only a 3-bit counter, while `obs`-latches track
    /// the counter but feed nothing.
    fn counter_with_observers() -> Model {
        let mut b = ModelBuilder::new("counter_obs");
        let bits = b.state_vars(3, "c");
        let obs = b.state_vars(2, "obs");
        let aig = b.aig_mut();
        // 3-bit increment.
        let mut carry = AigRef::TRUE;
        let mut next = Vec::new();
        for &bit in &bits {
            next.push(aig.xor(bit, carry));
            carry = aig.and(bit, carry);
        }
        // Observers copy counter bits; nothing reads them. obs1
        // reads obs0, so its gate cannot strash-share with the
        // counter cone and the transition cone genuinely shrinks.
        let next_obs0 = bits[0];
        let next_obs1 = aig.and(obs[0], bits[1]);
        let target = aig.and_many(&bits.clone());
        for (i, f) in next.into_iter().enumerate() {
            b.set_next(i, f);
        }
        b.set_next(3, next_obs0);
        b.set_next(4, next_obs1);
        b.set_target(target);
        b.build().expect("valid model")
    }

    /// A model with a stuck-at-constant latch feeding the target: the
    /// enable latch starts 1 and its next function is itself, so it
    /// sweeps to constant true and the gate folds away.
    fn counter_with_constant_enable() -> Model {
        let mut b = ModelBuilder::new("counter_const_en");
        let bits = b.state_vars(3, "c");
        let en = b.state_var("en");
        let aig = b.aig_mut();
        let mut carry = en;
        let mut next = Vec::new();
        for &bit in &bits {
            next.push(aig.xor(bit, carry));
            carry = aig.and(bit, carry);
        }
        let target = aig.and_many(&bits.clone());
        // init: counter zero, enable one.
        let mut init = aig.eq_const(&bits, 0);
        init = aig.and(init, en);
        for (i, f) in next.into_iter().enumerate() {
            b.set_next(i, f);
        }
        b.set_next(3, en); // en' = en: constant-preserving
        b.set_init(init);
        b.set_target(target);
        b.build().expect("valid model")
    }

    #[test]
    fn observers_are_removed_and_traces_lift() {
        let model = counter_with_observers();
        let red = reduce(&model).expect("observers must be removable");
        assert_eq!(red.analysis.coi_latches, 3);
        assert_eq!(red.analysis.removed.len(), 2);
        assert!(red.analysis.swept.is_empty());
        assert_eq!(red.model.num_state_vars(), 3);
        assert!(red.analysis.tr_cone_after < red.analysis.tr_cone_before);

        // Drive the reduced model to its target and lift the trace.
        let mut state = vec![false; 3];
        let mut trace = Trace {
            states: vec![state.clone()],
            inputs: Vec::new(),
        };
        for _ in 0..7 {
            state = red.model.step(&state, &[]);
            trace.states.push(state.clone());
            trace.inputs.push(Vec::new());
        }
        red.model
            .check_trace(&trace)
            .expect("reduced trace replays");
        let lifted = red.recon.lift_trace(&trace).expect("lift succeeds");
        model
            .check_trace(&lifted)
            .expect("lifted trace validates against the original model");
    }

    #[test]
    fn constant_enable_is_swept() {
        let model = counter_with_constant_enable();
        let red = reduce(&model).expect("enable must sweep");
        assert_eq!(red.analysis.swept, vec![(3, true)]);
        assert_eq!(red.model.num_state_vars(), 3);
        assert!(red.analysis.tr_cone_after < red.analysis.tr_cone_before);
        // The reduced counter reaches 7 in exactly 7 steps, like the
        // original with the enable held high.
        let mut state = vec![false; 3];
        let mut trace = Trace {
            states: vec![state.clone()],
            inputs: Vec::new(),
        };
        for _ in 0..7 {
            state = red.model.step(&state, &[]);
            trace.states.push(state.clone());
            trace.inputs.push(Vec::new());
        }
        assert!(red.model.eval_target(trace.states.last().unwrap()));
        let lifted = red.recon.lift_trace(&trace).expect("lift succeeds");
        model.check_trace(&lifted).expect("lifted trace validates");
        // The swept latch replays its constant on every lifted state.
        assert!(lifted.states.iter().all(|s| s[3]));
    }

    #[test]
    fn arbiter_grants_leave_the_cone() {
        // round_robin_arbiter(n): only grant[n-1] is the target; the
        // other grant latches feed nothing and their request inputs
        // become unused.
        let model = builders::round_robin_arbiter(4);
        let red = reduce(&model).expect("arbiter reduces");
        assert!(
            red.analysis.removed.len() >= 3,
            "grants 0..2 leave the cone: {:?}",
            red.analysis
        );
        assert!(
            !red.analysis.unused_inputs.is_empty(),
            "their request inputs become unused"
        );
        assert!(red.model.num_state_vars() < model.num_state_vars());
    }

    #[test]
    fn fifo_head_pointer_leaves_the_cone() {
        let model = builders::fifo(3);
        let red = reduce(&model).expect("fifo reduces");
        assert!(
            red.model.num_state_vars() < model.num_state_vars(),
            "head pointer latches leave the cone: {:?}",
            red.analysis
        );
    }

    #[test]
    fn tight_models_do_not_reduce() {
        for model in [
            builders::counter_with_reset(4),
            builders::shift_register(6),
            builders::traffic_light(),
        ] {
            assert!(
                reduce(&model).is_none(),
                "{} has nothing to remove",
                model.name()
            );
            let a = analyze(&model);
            assert!(a.is_trivial(), "{}: {a:?}", model.name());
            assert_eq!(a.tr_cone_before, a.tr_cone_after);
        }
    }

    #[test]
    fn analysis_report_renders() {
        let model = builders::round_robin_arbiter(4);
        let a = analyze(&model);
        let text = a.render(&model);
        assert!(text.contains("cone of influence"));
        assert!(text.contains("fan-in histogram"));
        let json = a.to_json().to_string();
        assert!(json.contains("\"coi_latches\""));
        assert!(json.contains("\"tr_cone_before\""));
    }

    #[test]
    fn lift_rejects_malformed_reduced_traces() {
        let model = counter_with_observers();
        let red = reduce(&model).expect("reduces");
        let bad = Trace {
            states: vec![vec![false; 99]],
            inputs: Vec::new(),
        };
        assert!(red.recon.lift_trace(&bad).is_err());
        let shapeless = Trace {
            states: Vec::new(),
            inputs: vec![Vec::new()],
        };
        assert!(red.recon.lift_trace(&shapeless).is_err());
    }

    /// Reduced and original models agree on bounded reachability,
    /// checked exhaustively with the explicit-state oracle where
    /// feasible (small models).
    #[test]
    fn reduction_preserves_step_semantics_on_kept_latches() {
        let model = builders::round_robin_arbiter(4);
        let red = reduce(&model).expect("arbiter reduces");
        let kept: Vec<usize> = red
            .recon
            .latch_fates()
            .iter()
            .enumerate()
            .filter_map(|(i, f)| matches!(f, LatchFate::Kept(_)).then_some(i))
            .collect();
        let kept_inputs: Vec<usize> = red
            .recon
            .input_fates()
            .iter()
            .enumerate()
            .filter_map(|(j, f)| matches!(f, InputFate::Kept(_)).then_some(j))
            .collect();
        // Walk a few steps from the all-zero-ish init under varying
        // inputs; the kept-latch projection must evolve identically.
        let mut full = vec![false; model.num_state_vars()];
        for (i, f) in red.recon.latch_fates().iter().enumerate() {
            if let LatchFate::Swept(v) = f {
                full[i] = *v;
            }
        }
        let mut small: Vec<bool> = kept.iter().map(|&i| full[i]).collect();
        for step in 0..12u32 {
            let full_inputs: Vec<bool> = (0..model.num_inputs())
                .map(|j| (step.wrapping_mul(7).wrapping_add(j as u32)) % 3 == 0)
                .collect();
            let small_inputs: Vec<bool> = kept_inputs.iter().map(|&j| full_inputs[j]).collect();
            full = model.step(&full, &full_inputs);
            small = red.model.step(&small, &small_inputs);
            let projected: Vec<bool> = kept.iter().map(|&i| full[i]).collect();
            assert_eq!(small, projected, "divergence at step {step}");
        }
    }
}
