//! Time frames: how one copy of a [`Model`]'s logic is bound to
//! variables and Tseitin-encoded.
//!
//! The paper's formulations (1)–(4) differ only in how many copies of
//! `TR` they instantiate and how those copies are tied together. Each
//! copy is a *frame*: the model's state inputs bound to one state
//! vector, its free inputs to one input vector, and the cones of
//! `next`, the constraints, `I` and `F` encoded over that binding.
//! Every encoder builds its frames here.

use sebmc_logic::{tseitin, Cnf, Lit, VarAlloc};
use sebmc_model::Model;

/// The model AIG's input vector for one frame: state input `i` bound
/// to `states[i]`, free input `j` to `inputs[j]`, and every other
/// input (all free inputs when `inputs` is `None`) to `fill`.
///
/// `fill` is never read by a cone that respects the model's contract:
/// `I` and `F` range over state variables only.
pub(crate) fn input_map<T: Copy>(
    model: &Model,
    states: &[T],
    inputs: Option<&[T]>,
    fill: T,
) -> Vec<T> {
    let mut map = vec![fill; model.aig().num_inputs()];
    for (&idx, &s) in model.state_input_indices().iter().zip(states) {
        map[idx] = s;
    }
    for (&idx, &w) in model.free_input_indices().iter().zip(inputs.unwrap_or(&[])) {
        map[idx] = w;
    }
    map
}

/// Tseitin-encodes the cones of one frame. Cones encoded through the
/// same `FrameEncoder` share their auxiliary variables.
pub(crate) struct FrameEncoder<'a> {
    model: &'a Model,
    enc: tseitin::Encoder<'a>,
}

impl<'a> FrameEncoder<'a> {
    /// A frame over state literals `states` and, for a transition,
    /// input literals `inputs`.
    pub(crate) fn new(model: &'a Model, states: &[Lit], inputs: Option<&[Lit]>) -> Self {
        let map = input_map(model, states, inputs, Lit::from_code(0));
        FrameEncoder {
            model,
            enc: tseitin::Encoder::new(model.aig(), &map),
        }
    }

    /// Encodes `TR` into `next`: each next-state function is set equal
    /// to its literal in `next`, then every constraint is asserted.
    pub(crate) fn transition(&mut self, next: &[Lit], alloc: &mut VarAlloc, cnf: &mut Cnf) {
        let roots = self.enc.encode_roots(self.model.next_refs(), alloc, cnf);
        for (&root, &v) in roots.iter().zip(next) {
            cnf.add_equiv(root, v);
        }
        for &c in self.model.constraint_refs() {
            let holds = self.enc.encode_ref(c, alloc, cnf);
            cnf.add_unit(holds);
        }
    }

    /// Encodes `I` over the frame's states; the literal is unasserted.
    pub(crate) fn init(&mut self, alloc: &mut VarAlloc, cnf: &mut Cnf) -> Lit {
        self.enc.encode_ref(self.model.init_ref(), alloc, cnf)
    }

    /// Encodes `F` over the frame's states; the literal is unasserted.
    pub(crate) fn target(&mut self, alloc: &mut VarAlloc, cnf: &mut Cnf) -> Lit {
        self.enc.encode_ref(self.model.target_ref(), alloc, cnf)
    }
}

/// Encodes a path of `k` transitions: allocates state literals for
/// frames `0..=k`, then input literals for steps `0..k`, then encodes
/// each step's `TR`. Returns the state literals, one vector per frame.
pub(crate) fn encode_path(
    model: &Model,
    k: usize,
    alloc: &mut VarAlloc,
    cnf: &mut Cnf,
) -> Vec<Vec<Lit>> {
    let states: Vec<Vec<Lit>> = (0..=k)
        .map(|_| alloc.fresh_lits(model.num_state_vars()))
        .collect();
    let inputs: Vec<Vec<Lit>> = (0..k)
        .map(|_| alloc.fresh_lits(model.num_inputs()))
        .collect();
    for (t, step_inputs) in inputs.iter().enumerate() {
        let mut frame = FrameEncoder::new(model, &states[t], Some(step_inputs));
        frame.transition(&states[t + 1], alloc, cnf);
    }
    states
}
