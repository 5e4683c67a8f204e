//! Tseitin transformation from AIG cones to CNF.
//!
//! The encoding is the *full* (biconditional) Tseitin transformation:
//! each AND node `n = a ∧ b` contributes the three clauses
//! `(¬n ∨ a)`, `(¬n ∨ b)` and `(¬a ∨ ¬b ∨ n)`, so the auxiliary
//! variable is *equal* to the node function rather than merely implied
//! by it. Equality matters here: the paper's QBF encodings place these
//! auxiliaries in the innermost existential block under universal
//! quantifiers, where the polarity-optimised (Plaisted–Greenbaum)
//! encoding would be unsound.

use crate::aig::{Aig, AigRef};
use crate::cnf::Cnf;
use crate::lit::{Lit, VarAlloc};

/// Encodes the cones of `roots` into `out`, returning one literal per
/// root that is constrained to equal the root function.
///
/// * `input_lits[i]` is the literal representing primary input `i`; the
///   caller chooses these (e.g. state variables of a time frame).
/// * Fresh auxiliary variables are taken from `alloc`.
/// * Clauses are appended to `out`; nothing is asserted about the root
///   literals themselves — callers add unit clauses or assumptions.
///
/// Constant roots are represented by a dedicated fresh variable
/// constrained to the constant, so the returned literal is always a real
/// literal.
///
/// # Panics
///
/// Panics if `input_lits` is shorter than `aig.num_inputs()` restricted
/// to the inputs that actually occur in the cones.
///
/// # Example
///
/// ```
/// use sebmc_logic::{Aig, Cnf, VarAlloc, tseitin};
/// let mut aig = Aig::new();
/// let a = aig.input();
/// let b = aig.input();
/// let f = aig.and(a, b);
/// let mut alloc = VarAlloc::new();
/// let ins = [alloc.fresh_lit(), alloc.fresh_lit()];
/// let mut cnf = Cnf::new();
/// let root = tseitin::encode(&aig, &[f], &ins, &mut alloc, &mut cnf)[0];
/// cnf.add_unit(root);
/// // f forced true ⇒ both inputs must be true.
/// assert!(cnf.eval(&[true, true, true]));
/// assert!(!cnf.eval(&[true, false, true]));
/// ```
pub fn encode(
    aig: &Aig,
    roots: &[AigRef],
    input_lits: &[Lit],
    alloc: &mut VarAlloc,
    out: &mut Cnf,
) -> Vec<Lit> {
    let mut enc = Encoder::new(aig, input_lits);
    let lits = enc.encode_roots(roots, alloc, out);
    out.ensure_vars(alloc.num_vars());
    lits
}

/// Incremental Tseitin encoder that remembers which nodes were already
/// encoded, so several cones over the same AIG can share auxiliaries.
///
/// The `sebmc` crate's frame module wraps one `Encoder` per time frame:
/// every BMC formulation builds its copies of a model's logic through
/// it, and cones encoded in the same frame share their auxiliaries.
#[derive(Debug)]
pub struct Encoder<'a> {
    aig: &'a Aig,
    /// Literal per node, `None` until encoded.
    map: Vec<Option<Lit>>,
    input_lits: Vec<Lit>,
}

impl<'a> Encoder<'a> {
    /// Creates an encoder over `aig`, with the primary inputs mapped to
    /// `input_lits`.
    pub fn new(aig: &'a Aig, input_lits: &[Lit]) -> Self {
        Encoder {
            aig,
            map: vec![None; aig.num_nodes()],
            input_lits: input_lits.to_vec(),
        }
    }

    /// Encodes (or reuses) the cones of `roots`, appending clauses to
    /// `out`; returns one literal per root.
    pub fn encode_roots(
        &mut self,
        roots: &[AigRef],
        alloc: &mut VarAlloc,
        out: &mut Cnf,
    ) -> Vec<Lit> {
        roots
            .iter()
            .map(|&r| self.encode_ref(r, alloc, out))
            .collect()
    }

    /// Encodes a single reference, returning its literal.
    pub fn encode_ref(&mut self, r: AigRef, alloc: &mut VarAlloc, out: &mut Cnf) -> Lit {
        let base = self.encode_node(r.node(), alloc, out);
        if r.is_complement() {
            !base
        } else {
            base
        }
    }

    fn encode_node(&mut self, node: usize, alloc: &mut VarAlloc, out: &mut Cnf) -> Lit {
        if let Some(l) = self.map[node] {
            return l;
        }
        // Encode the cone below `node` in topological order so that deep
        // circuits cannot overflow the call stack.
        let order = self.topo_from(node);
        for idx in order {
            if self.map[idx].is_some() {
                continue;
            }
            let lit = if self.aig.is_const_node(idx) {
                // A fresh variable pinned to false.
                let f = alloc.fresh_lit();
                out.add_unit(!f);
                f
            } else if let Some(i) = self.aig.input_index(idx) {
                assert!(
                    i < self.input_lits.len(),
                    "input {i} occurs in cone but only {} input literals were supplied",
                    self.input_lits.len()
                );
                self.input_lits[i]
            } else {
                let (a, b) = self.aig.and_fanins(idx).expect("AND node");
                let la = self.lit_of(a);
                let lb = self.lit_of(b);
                let n = alloc.fresh_lit();
                // n ↔ (la ∧ lb)
                out.add_binary(!n, la);
                out.add_binary(!n, lb);
                out.add_ternary(!la, !lb, n);
                n
            };
            self.map[idx] = Some(lit);
        }
        self.map[node].expect("node encoded")
    }

    fn lit_of(&self, r: AigRef) -> Lit {
        let l = self.map[r.node()].expect("fan-in encoded before fan-out");
        if r.is_complement() {
            !l
        } else {
            l
        }
    }

    /// Topological order of the not-yet-encoded part of the cone below
    /// `node`.
    fn topo_from(&self, node: usize) -> Vec<usize> {
        let mut order = Vec::new();
        let mut visited = vec![false; self.aig.num_nodes()];
        let mut stack = vec![(node, false)];
        while let Some((idx, expanded)) = stack.pop() {
            if expanded {
                order.push(idx);
                continue;
            }
            if visited[idx] || self.map[idx].is_some() {
                continue;
            }
            visited[idx] = true;
            stack.push((idx, true));
            if let Some((a, b)) = self.aig.and_fanins(idx) {
                stack.push((a.node(), false));
                stack.push((b.node(), false));
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lit::Var;

    /// Checks that for every input assignment, the CNF with the inputs
    /// pinned is satisfiable iff it can set the root literal to the AIG
    /// value (full Tseitin means aux values are forced, so we brute
    /// force over all variables).
    fn assert_encodes(aig: &Aig, root: AigRef, n_inputs: usize) {
        let mut alloc = VarAlloc::new();
        let ins: Vec<Lit> = alloc.fresh_lits(n_inputs);
        let mut cnf = Cnf::new();
        let rl = encode(aig, &[root], &ins, &mut alloc, &mut cnf);
        let rl = rl[0];
        let total = alloc.num_vars();
        for bits in 0..1u32 << n_inputs {
            let inputs: Vec<bool> = (0..n_inputs).map(|i| bits >> i & 1 == 1).collect();
            let expect = aig.eval(&inputs, &[root])[0];
            // Enumerate aux assignments: exactly one must satisfy the
            // definitional clauses, and it must give the root literal the
            // expected value.
            let mut found = 0;
            let mut root_val = false;
            for aux_bits in 0..1u32 << (total - n_inputs) {
                let mut assignment = inputs.clone();
                for i in 0..total - n_inputs {
                    assignment.push(aux_bits >> i & 1 == 1);
                }
                if cnf.eval(&assignment) {
                    found += 1;
                    root_val = rl.apply(assignment[rl.var().index()]);
                }
            }
            assert_eq!(found, 1, "full Tseitin forces a unique aux extension");
            assert_eq!(root_val, expect, "root value for inputs {bits:b}");
        }
    }

    #[test]
    fn encodes_single_and() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let f = aig.and(a, b);
        assert_encodes(&aig, f, 2);
    }

    #[test]
    fn encodes_xor_tree() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let x = aig.xor(a, b);
        let f = aig.xor(x, c);
        assert_encodes(&aig, f, 3);
    }

    #[test]
    fn encodes_complemented_root() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let f = aig.and(a, b);
        assert_encodes(&aig, !f, 2);
    }

    #[test]
    fn encodes_constant_roots() {
        let aig = Aig::new();
        let mut alloc = VarAlloc::new();
        let mut cnf = Cnf::new();
        let lits = encode(
            &aig,
            &[AigRef::TRUE, AigRef::FALSE],
            &[],
            &mut alloc,
            &mut cnf,
        );
        // Single aux var pinned false; TRUE is its negation.
        assert_eq!(lits[0], !lits[1]);
        assert!(cnf.eval(&[false]));
        assert!(!cnf.eval(&[true]));
    }

    #[test]
    fn input_passthrough_uses_caller_literals() {
        let mut aig = Aig::new();
        let a = aig.input();
        let mut alloc = VarAlloc::starting_at(10);
        let ins = [Var::new(3).positive()];
        let mut cnf = Cnf::new();
        let lits = encode(&aig, &[a, !a], &ins, &mut alloc, &mut cnf);
        assert_eq!(lits[0], Var::new(3).positive());
        assert_eq!(lits[1], Var::new(3).negative());
        assert_eq!(cnf.num_clauses(), 0, "inputs need no clauses");
    }

    #[test]
    fn shared_subcircuits_encoded_once() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let shared = aig.and(a, b);
        let f = aig.and(shared, a);
        let g = aig.and(shared, b);
        let mut alloc = VarAlloc::new();
        let ins: Vec<Lit> = alloc.fresh_lits(2);
        let mut cnf = Cnf::new();
        let mut enc = Encoder::new(&aig, &ins);
        let l1 = enc.encode_roots(&[f], &mut alloc, &mut cnf);
        let before = cnf.num_clauses();
        let l2 = enc.encode_roots(&[g], &mut alloc, &mut cnf);
        // Encoding g reuses the shared AND: only 3 new clauses.
        assert_eq!(cnf.num_clauses() - before, 3);
        assert_ne!(l1[0], l2[0]);
    }

    #[test]
    fn deep_chain_does_not_overflow_stack() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let mut f = a;
        for i in 0..200_000 {
            let other = if i % 2 == 0 { b } else { !b };
            f = aig.xor(f, other);
        }
        let mut alloc = VarAlloc::new();
        let ins: Vec<Lit> = alloc.fresh_lits(2);
        let mut cnf = Cnf::new();
        let _ = encode(&aig, &[f], &ins, &mut alloc, &mut cnf);
        assert!(cnf.num_clauses() > 0);
    }
}
