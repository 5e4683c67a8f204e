//! Conversion between [`AigerFile`] and the workspace [`Model`].
//!
//! AIGER's latch view matches the functional transition systems used
//! throughout this reproduction: latches are state variables, the
//! first bad-state property (or, for AIGER 1.0 files, the first
//! output) is the target predicate `F`, and invariant constraints map
//! directly.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use sebmc_logic::AigRef;
use sebmc_model::{Model, ModelBuilder};

use crate::format::{AigerAnd, AigerFile, AigerLatch, AigerReset, SymbolKind};

/// Error produced by the AIGER ↔ model conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConvertError {
    /// The AIGER file has neither bad-state properties nor outputs.
    NoProperty,
    /// The target (bad/output) cone depends on a primary input, which
    /// the paper's state-predicate `F` cannot express.
    InputDependentProperty(String),
    /// The model's initial predicate is not a cube of per-latch
    /// constants, or could not be verified to be one.
    UnsupportedInit(String),
}

impl fmt::Display for ConvertError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvertError::NoProperty => {
                write!(f, "aiger file has no bad-state property and no output")
            }
            ConvertError::InputDependentProperty(m) => {
                write!(f, "property depends on a primary input: {m}")
            }
            ConvertError::UnsupportedInit(m) => {
                write!(
                    f,
                    "initial predicate is not expressible as latch resets: {m}"
                )
            }
        }
    }
}

impl Error for ConvertError {}

/// Builds a [`Model`] from an AIGER file.
///
/// The target is the disjunction of the bad-state literals, falling
/// back to the disjunction of outputs for AIGER 1.0 files.
///
/// # Errors
///
/// * [`ConvertError::NoProperty`] when there is nothing to check;
/// * [`ConvertError::InputDependentProperty`] when the property cone
///   reads a primary input (inexpressible as a state predicate `F`).
pub fn aiger_to_model(file: &AigerFile, name: &str) -> Result<Model, ConvertError> {
    let mut b = ModelBuilder::new(name);
    // Both tables are keyed by the variables the file defines (at most
    // I + L + A), never sized by the header's `M`, which may leave
    // any number of variables unused.
    let mut names: HashMap<u32, &str> = HashMap::new();
    for (kind, pos, sym) in &file.symbols {
        let lit = match kind {
            SymbolKind::Input => file.inputs.get(*pos).copied(),
            SymbolKind::Latch => file.latches.get(*pos).map(|l| l.lit),
            _ => None,
        };
        if let Some(lit) = lit {
            names.insert(lit >> 1, sym);
        }
    }
    let name_of = |lit: u32| names.get(&(lit >> 1)).copied();

    // var index -> AigRef (positive form).
    let mut map: HashMap<u32, AigRef> =
        HashMap::with_capacity(1 + file.inputs.len() + file.latches.len() + file.ands.len());
    map.insert(0, AigRef::FALSE);
    for (i, &lit) in file.inputs.iter().enumerate() {
        let nm = name_of(lit).map_or_else(|| format!("i{i}"), str::to_string);
        map.insert(lit >> 1, b.input(nm));
    }
    for (i, l) in file.latches.iter().enumerate() {
        let nm = name_of(l.lit).map_or_else(|| format!("l{i}"), str::to_string);
        map.insert(l.lit >> 1, b.state_var(nm));
    }
    let tr = |map: &HashMap<u32, AigRef>, lit: u32| -> AigRef {
        let r = *map
            .get(&(lit >> 1))
            .expect("aiger literal defined (validated)");
        if lit & 1 == 1 {
            !r
        } else {
            r
        }
    };
    for a in &file.ands {
        let r0 = tr(&map, a.rhs0);
        let r1 = tr(&map, a.rhs1);
        map.insert(a.lhs >> 1, b.aig_mut().and(r0, r1));
    }

    for (i, l) in file.latches.iter().enumerate() {
        let next = tr(&map, l.next);
        b.set_next(i, next);
    }

    // Init: conjunction of per-latch reset constants.
    let mut init = AigRef::TRUE;
    for l in &file.latches {
        let r = tr(&map, l.lit);
        init = match l.reset {
            AigerReset::Zero => b.aig_mut().and(init, !r),
            AigerReset::One => b.aig_mut().and(init, r),
            AigerReset::Uninitialized => init,
        };
    }
    b.set_init(init);

    // Target: OR of bad literals, else OR of outputs.
    let props: &[u32] = if file.bad.is_empty() {
        &file.outputs
    } else {
        &file.bad
    };
    if props.is_empty() {
        return Err(ConvertError::NoProperty);
    }
    let mut target = AigRef::FALSE;
    for &p in props {
        let r = tr(&map, p);
        target = b.aig_mut().or(target, r);
    }
    b.set_target(target);

    for &c in &file.constraints {
        let r = tr(&map, c);
        b.add_constraint(r);
    }

    b.build()
        .map_err(|e| ConvertError::InputDependentProperty(e.message))
}

/// Exports a [`Model`] to an AIGER 1.9 file in canonical binary order.
///
/// The initial predicate must be a cube of per-latch constants; this is
/// verified exhaustively, which restricts the export to models with at
/// most 22 state bits. Use [`model_to_aiger_with_resets`] to supply
/// the resets yourself for larger models.
///
/// # Errors
///
/// [`ConvertError::UnsupportedInit`] when the initial predicate is not
/// a constant cube or the model is too large to verify.
pub fn model_to_aiger(model: &Model) -> Result<AigerFile, ConvertError> {
    let n = model.num_state_vars();
    if n > 22 {
        return Err(ConvertError::UnsupportedInit(format!(
            "cannot exhaustively verify the init cube of {n} state bits; \
             use model_to_aiger_with_resets"
        )));
    }
    let inits = model.enumerate_initial_states();
    if inits.is_empty() {
        return Err(ConvertError::UnsupportedInit(
            "model has no initial state".into(),
        ));
    }
    // Determine per-bit behaviour across all initial states.
    let mut resets = Vec::with_capacity(n);
    for i in 0..n {
        let first = inits[0][i];
        if inits.iter().all(|s| s[i] == first) {
            resets.push(if first {
                AigerReset::One
            } else {
                AigerReset::Zero
            });
        } else {
            resets.push(AigerReset::Uninitialized);
        }
    }
    // The init set must be exactly the cube implied by `resets`.
    let free_bits = resets
        .iter()
        .filter(|r| **r == AigerReset::Uninitialized)
        .count();
    if inits.len() != 1usize << free_bits {
        return Err(ConvertError::UnsupportedInit(format!(
            "{} initial states do not form a cube",
            inits.len()
        )));
    }
    model_to_aiger_with_resets(model, &resets)
}

/// Exports a [`Model`] with caller-supplied latch resets (the caller
/// asserts that the model's init predicate equals this cube).
///
/// # Errors
///
/// Currently infallible for well-formed models; returns `Result` for
/// forward compatibility.
///
/// # Panics
///
/// Panics if `resets` has the wrong length.
pub fn model_to_aiger_with_resets(
    model: &Model,
    resets: &[AigerReset],
) -> Result<AigerFile, ConvertError> {
    let n = model.num_state_vars();
    let m = model.num_inputs();
    assert_eq!(resets.len(), n, "one reset per state variable");
    let aig = model.aig();

    // Canonical variable numbering: inputs 1..=m, latches m+1..=m+n,
    // then AND gates in topological order.
    let mut var_of_node: Vec<Option<u32>> = vec![None; aig.num_nodes()];
    for (j, &idx) in model.free_input_indices().iter().enumerate() {
        let node = aig.input_ref(idx).node();
        var_of_node[node] = Some(j as u32 + 1);
    }
    for (i, &idx) in model.state_input_indices().iter().enumerate() {
        let node = aig.input_ref(idx).node();
        var_of_node[node] = Some(m as u32 + i as u32 + 1);
    }

    let mut roots: Vec<AigRef> = model.next_refs().to_vec();
    roots.push(model.target_ref());
    roots.extend_from_slice(model.constraint_refs());
    let mut ands: Vec<AigerAnd> = Vec::new();
    let mut next_var = (m + n) as u32 + 1;
    // cone_topo returns fan-ins before fan-outs.
    let lit_of = |var_of_node: &[Option<u32>], r: AigRef| -> u32 {
        let v = var_of_node[r.node()].expect("node numbered in topo order");
        v << 1 | u32::from(r.is_complement())
    };
    for node in aig.cone_topo(&roots) {
        if var_of_node[node].is_some() || aig.is_const_node(node) {
            continue;
        }
        if let Some((a, b)) = aig.and_fanins(node) {
            let r0 = lit_of(&var_of_node, a);
            let r1 = lit_of(&var_of_node, b);
            var_of_node[node] = Some(next_var);
            ands.push(AigerAnd {
                lhs: next_var << 1,
                rhs0: r0.max(r1),
                rhs1: r0.min(r1),
            });
            next_var += 1;
        }
    }
    let lit = |r: AigRef| -> u32 {
        if r == AigRef::FALSE {
            0
        } else if r == AigRef::TRUE {
            1
        } else {
            lit_of(&var_of_node, r)
        }
    };

    let latches: Vec<AigerLatch> = (0..n)
        .map(|i| AigerLatch {
            lit: (m as u32 + i as u32 + 1) << 1,
            next: lit(model.next_refs()[i]),
            reset: resets[i],
        })
        .collect();
    let target = lit(model.target_ref());
    let mut symbols: Vec<(SymbolKind, usize, String)> = Vec::new();
    for j in 0..m {
        symbols.push((SymbolKind::Input, j, model.input_name(j).to_string()));
    }
    for i in 0..n {
        symbols.push((SymbolKind::Latch, i, model.state_name(i).to_string()));
    }
    let file = AigerFile {
        max_var: next_var - 1,
        inputs: (1..=m as u32).map(|v| v << 1).collect(),
        latches,
        outputs: vec![target],
        bad: vec![target],
        constraints: model.constraint_refs().iter().map(|&c| lit(c)).collect(),
        ands,
        symbols,
        comments: vec![format!("exported from sebmc model '{}'", model.name())],
    };
    debug_assert_eq!(file.validate(), Ok(()));
    Ok(file)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::read::parse_ascii;
    use crate::write::{to_ascii_string, to_binary_vec};
    use sebmc_model::builders;

    /// Behavioural equivalence on random stimuli.
    fn assert_same_behaviour(a: &Model, b: &Model, steps: usize) {
        assert_eq!(a.num_state_vars(), b.num_state_vars());
        assert_eq!(a.num_inputs(), b.num_inputs());
        let mut state_a = a.enumerate_initial_states()[0].clone();
        let mut state_b = state_a.clone();
        let mut seed = 0x5eedu64;
        for step in 0..steps {
            assert_eq!(
                a.eval_target(&state_a),
                b.eval_target(&state_b),
                "step {step}"
            );
            let inputs: Vec<bool> = (0..a.num_inputs())
                .map(|_| {
                    seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                    seed >> 33 & 1 == 1
                })
                .collect();
            assert_eq!(
                a.eval_constraints(&state_a, &inputs),
                b.eval_constraints(&state_b, &inputs)
            );
            state_a = a.step(&state_a, &inputs);
            state_b = b.step(&state_b, &inputs);
            assert_eq!(state_a, state_b, "step {step}");
        }
    }

    #[test]
    fn aiger_to_model_toggle() {
        // Toggler with bad state when the latch is 1.
        let f = parse_ascii("aag 1 0 1 0 0 1\n2 3\n2\n").unwrap();
        let m = aiger_to_model(&f, "toggle").unwrap();
        assert_eq!(m.num_state_vars(), 1);
        assert!(!m.eval_target(&[false]));
        assert!(m.eval_target(&[true]));
        assert_eq!(m.step(&[false], &[]), vec![true]);
    }

    #[test]
    fn falls_back_to_outputs_for_aiger10() {
        let f = parse_ascii("aag 1 0 1 1 0\n2 3\n2\n").unwrap();
        let m = aiger_to_model(&f, "t").unwrap();
        assert!(m.eval_target(&[true]));
    }

    #[test]
    fn rejects_no_property() {
        let f = parse_ascii("aag 1 0 1 0 0\n2 3\n").unwrap();
        let e = aiger_to_model(&f, "x").unwrap_err();
        assert_eq!(e, ConvertError::NoProperty);
    }

    #[test]
    fn rejects_input_dependent_property() {
        let f = parse_ascii("aag 1 1 0 1 0\n2\n2\n").unwrap();
        let e = aiger_to_model(&f, "x").unwrap_err();
        assert!(matches!(e, ConvertError::InputDependentProperty(_)));
        assert!(e.to_string().contains("input"));
    }

    #[test]
    fn model_round_trips_through_aiger() {
        for model in [
            builders::counter_with_enable(3),
            builders::shift_register(4),
            builders::johnson_counter(4),
            builders::traffic_light(),
            builders::fifo(1),
            builders::peterson(),
        ] {
            let f = model_to_aiger(&model).expect("export");
            assert_eq!(f.validate(), Ok(()));
            let back = aiger_to_model(&f, model.name()).expect("import");
            assert_same_behaviour(&model, &back, 24);
        }
    }

    #[test]
    fn nonzero_init_round_trips() {
        let model = builders::lfsr(4, 6); // init = 0b0001
        let f = model_to_aiger(&model).expect("export");
        assert!(f.latches.iter().any(|l| l.reset == AigerReset::One));
        let back = aiger_to_model(&f, model.name()).expect("import");
        assert_same_behaviour(&model, &back, 20);
    }

    #[test]
    fn ascii_and_binary_exports_parse_back_equal() {
        let model = builders::gray_counter(3);
        let f = model_to_aiger(&model).unwrap();
        let ascii = to_ascii_string(&f);
        let binary = to_binary_vec(&f).unwrap();
        let fa = crate::read::parse_ascii(&ascii).unwrap();
        let fb = crate::read::parse_binary(&binary).unwrap();
        assert_eq!(fa, fb);
        assert_eq!(fa, f);
    }

    #[test]
    fn export_rejects_oversized_models() {
        let model = builders::random_fsm(28, 3, 2005);
        let e = model_to_aiger(&model).unwrap_err();
        assert!(matches!(e, ConvertError::UnsupportedInit(_)));
        // Explicit resets work for any size.
        let resets = vec![AigerReset::Zero; 28];
        let f = model_to_aiger_with_resets(&model, &resets).unwrap();
        assert_eq!(f.validate(), Ok(()));
    }

    #[test]
    fn one_hot_init_is_a_cube_of_constants() {
        let model = builders::token_ring(4);
        let f = model_to_aiger(&model).unwrap();
        let ones = f
            .latches
            .iter()
            .filter(|l| l.reset == AigerReset::One)
            .count();
        assert_eq!(ones, 1, "token starts at exactly one station");
    }
}
