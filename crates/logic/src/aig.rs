//! And-Inverter Graphs (AIGs).
//!
//! An AIG represents Boolean functions as a DAG of two-input AND nodes
//! with optional inversion on every edge. This is the circuit format the
//! transition systems of the benchmark suite are built in (it is also the
//! semantic core of the AIGER exchange format handled by `sebmc-aiger`).
//!
//! The graph performs *structural hashing* (identical AND nodes are
//! shared) and constant folding on construction, so the node count is a
//! faithful proxy for circuit size — the quantity `|TR|` that drives the
//! paper's space analysis.

use std::collections::HashMap;
use std::fmt;
use std::ops::Not;

/// A reference to an AIG node with an optional inversion.
///
/// Packed as `node_index << 1 | complement`, mirroring the AIGER literal
/// convention. [`AigRef::FALSE`] and [`AigRef::TRUE`] refer to the
/// constant node 0.
///
/// ```
/// use sebmc_logic::{Aig, AigRef};
/// let mut aig = Aig::new();
/// let a = aig.input();
/// assert_eq!(!!a, a);
/// assert_ne!(!a, a);
/// assert_eq!(AigRef::TRUE, !AigRef::FALSE);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AigRef(u32);

impl AigRef {
    /// The constant-false function.
    pub const FALSE: AigRef = AigRef(0);
    /// The constant-true function.
    pub const TRUE: AigRef = AigRef(1);

    #[inline]
    fn new(node: usize, complement: bool) -> Self {
        AigRef((node as u32) << 1 | u32::from(complement))
    }

    /// Index of the referenced node.
    #[inline]
    pub fn node(self) -> usize {
        (self.0 >> 1) as usize
    }

    /// Whether the edge inverts the node's function.
    #[inline]
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// The packed code (`node << 1 | complement`).
    #[inline]
    pub fn code(self) -> usize {
        self.0 as usize
    }
}

impl Not for AigRef {
    type Output = AigRef;

    #[inline]
    fn not(self) -> AigRef {
        AigRef(self.0 ^ 1)
    }
}

impl fmt::Debug for AigRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == AigRef::FALSE {
            write!(f, "0")
        } else if *self == AigRef::TRUE {
            write!(f, "1")
        } else if self.is_complement() {
            write!(f, "!n{}", self.node())
        } else {
            write!(f, "n{}", self.node())
        }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
enum Node {
    /// The constant-false node (always node 0).
    False,
    /// Primary input with its input index.
    Input(u32),
    /// Two-input AND gate.
    And(AigRef, AigRef),
}

/// An And-Inverter Graph with structural hashing and constant folding.
///
/// ```
/// use sebmc_logic::Aig;
/// let mut aig = Aig::new();
/// let a = aig.input();
/// let b = aig.input();
/// let f = aig.or(a, b);
/// assert!(aig.eval(&[true, false], &[f])[0]);
/// assert!(!aig.eval(&[false, false], &[f])[0]);
/// ```
#[derive(Clone, Default)]
pub struct Aig {
    nodes: Vec<Node>,
    strash: HashMap<(AigRef, AigRef), u32>,
    inputs: Vec<u32>,
}

impl Aig {
    /// Creates an AIG containing only the constant node.
    pub fn new() -> Self {
        Aig {
            nodes: vec![Node::False],
            strash: HashMap::new(),
            inputs: Vec::new(),
        }
    }

    /// Adds a fresh primary input and returns its (positive) reference.
    pub fn input(&mut self) -> AigRef {
        let idx = self.nodes.len();
        let input_index = self.inputs.len() as u32;
        self.nodes.push(Node::Input(input_index));
        self.inputs.push(idx as u32);
        AigRef::new(idx, false)
    }

    /// Adds `n` fresh primary inputs.
    pub fn inputs(&mut self, n: usize) -> Vec<AigRef> {
        (0..n).map(|_| self.input()).collect()
    }

    /// Number of primary inputs created so far.
    pub fn num_inputs(&self) -> usize {
        self.inputs.len()
    }

    /// Reference to the `i`-th primary input.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn input_ref(&self, i: usize) -> AigRef {
        AigRef::new(self.inputs[i] as usize, false)
    }

    /// Total number of nodes (constant + inputs + AND gates).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of AND gates.
    pub fn num_ands(&self) -> usize {
        self.nodes.len() - 1 - self.inputs.len()
    }

    /// Conjunction of `a` and `b`, with constant folding and structural
    /// hashing.
    pub fn and(&mut self, a: AigRef, b: AigRef) -> AigRef {
        // Constant folding.
        if a == AigRef::FALSE || b == AigRef::FALSE || a == !b {
            return AigRef::FALSE;
        }
        if a == AigRef::TRUE {
            return b;
        }
        if b == AigRef::TRUE || a == b {
            return a;
        }
        // Normalize operand order for the structural hash.
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        if let Some(&idx) = self.strash.get(&(a, b)) {
            return AigRef::new(idx as usize, false);
        }
        let idx = self.nodes.len();
        self.nodes.push(Node::And(a, b));
        self.strash.insert((a, b), idx as u32);
        AigRef::new(idx, false)
    }

    /// Disjunction of `a` and `b`.
    pub fn or(&mut self, a: AigRef, b: AigRef) -> AigRef {
        !self.and(!a, !b)
    }

    /// Exclusive or of `a` and `b`.
    pub fn xor(&mut self, a: AigRef, b: AigRef) -> AigRef {
        let n1 = self.and(a, !b);
        let n2 = self.and(!a, b);
        self.or(n1, n2)
    }

    /// Biconditional (`a ↔ b`).
    pub fn iff(&mut self, a: AigRef, b: AigRef) -> AigRef {
        !self.xor(a, b)
    }

    /// Implication (`a → b`).
    pub fn implies(&mut self, a: AigRef, b: AigRef) -> AigRef {
        self.or(!a, b)
    }

    /// If-then-else (`c ? t : e`), the Boolean multiplexer.
    pub fn ite(&mut self, c: AigRef, t: AigRef, e: AigRef) -> AigRef {
        let pos = self.and(c, t);
        let neg = self.and(!c, e);
        self.or(pos, neg)
    }

    /// Conjunction of all references in `refs` (true if empty).
    pub fn and_many(&mut self, refs: &[AigRef]) -> AigRef {
        let mut acc = AigRef::TRUE;
        for &r in refs {
            acc = self.and(acc, r);
        }
        acc
    }

    /// Word equality: `⋀ aᵢ ↔ bᵢ`.
    ///
    /// # Panics
    ///
    /// Panics if the word widths differ.
    pub fn eq_words(&mut self, a: &[AigRef], b: &[AigRef]) -> AigRef {
        assert_eq!(a.len(), b.len(), "eq_words requires equal widths");
        let mut acc = AigRef::TRUE;
        for (&x, &y) in a.iter().zip(b) {
            let eq = self.iff(x, y);
            acc = self.and(acc, eq);
        }
        acc
    }

    /// Word equality against a constant (`bit i` of `value`).
    pub fn eq_const(&mut self, word: &[AigRef], value: u64) -> AigRef {
        let mut acc = AigRef::TRUE;
        for (i, &bit) in word.iter().enumerate() {
            let want = value >> i & 1 == 1;
            let term = if want { bit } else { !bit };
            acc = self.and(acc, term);
        }
        acc
    }

    /// Ripple-carry increment of a little-endian word; returns the
    /// incremented word (wrapping, same width).
    pub fn increment(&mut self, word: &[AigRef]) -> Vec<AigRef> {
        let mut carry = AigRef::TRUE;
        let mut out = Vec::with_capacity(word.len());
        for &bit in word {
            out.push(self.xor(bit, carry));
            carry = self.and(bit, carry);
        }
        out
    }

    /// Ripple-carry addition of two little-endian words of equal width
    /// (wrapping, same width).
    ///
    /// # Panics
    ///
    /// Panics if the word widths differ.
    pub fn add_words(&mut self, a: &[AigRef], b: &[AigRef]) -> Vec<AigRef> {
        assert_eq!(a.len(), b.len(), "add_words requires equal widths");
        let mut carry = AigRef::FALSE;
        let mut out = Vec::with_capacity(a.len());
        for (&x, &y) in a.iter().zip(b) {
            let xy = self.xor(x, y);
            out.push(self.xor(xy, carry));
            let gen = self.and(x, y);
            let prop = self.and(xy, carry);
            carry = self.or(gen, prop);
        }
        out
    }

    /// Evaluates `roots` under a concrete input assignment.
    ///
    /// `inputs[i]` is the value of primary input `i`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than [`Aig::num_inputs`].
    pub fn eval(&self, inputs: &[bool], roots: &[AigRef]) -> Vec<bool> {
        assert!(
            inputs.len() >= self.inputs.len(),
            "expected {} input values, got {}",
            self.inputs.len(),
            inputs.len()
        );
        let mut values = vec![false; self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            values[idx] = match *node {
                Node::False => false,
                Node::Input(i) => inputs[i as usize],
                Node::And(a, b) => {
                    (values[a.node()] ^ a.is_complement()) && (values[b.node()] ^ b.is_complement())
                }
            };
        }
        roots
            .iter()
            .map(|r| values[r.node()] ^ r.is_complement())
            .collect()
    }

    /// Bit-parallel evaluation: each input carries 64 independent
    /// assignments packed in a `u64`; returns one packed word per root.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is shorter than [`Aig::num_inputs`].
    pub fn eval_u64(&self, inputs: &[u64], roots: &[AigRef]) -> Vec<u64> {
        assert!(
            inputs.len() >= self.inputs.len(),
            "expected {} input words, got {}",
            self.inputs.len(),
            inputs.len()
        );
        let mut values = vec![0u64; self.nodes.len()];
        for (idx, node) in self.nodes.iter().enumerate() {
            values[idx] = match *node {
                Node::False => 0,
                Node::Input(i) => inputs[i as usize],
                Node::And(a, b) => {
                    let va = values[a.node()] ^ if a.is_complement() { !0 } else { 0 };
                    let vb = values[b.node()] ^ if b.is_complement() { !0 } else { 0 };
                    va & vb
                }
            };
        }
        roots
            .iter()
            .map(|r| values[r.node()] ^ if r.is_complement() { !0 } else { 0 })
            .collect()
    }

    /// Number of AND gates in the combined cone of `roots` — the size
    /// measure used when reporting `|TR|`.
    pub fn cone_size(&self, roots: &[AigRef]) -> usize {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<usize> = roots.iter().map(|r| r.node()).collect();
        let mut count = 0;
        while let Some(idx) = stack.pop() {
            if seen[idx] {
                continue;
            }
            seen[idx] = true;
            if let Node::And(a, b) = self.nodes[idx] {
                count += 1;
                stack.push(a.node());
                stack.push(b.node());
            }
        }
        count
    }

    /// The nodes (input indices or AND fan-ins) reachable from `roots`,
    /// in topological order (fan-ins before fan-outs). Used by the
    /// Tseitin encoder and the AIGER writer.
    pub fn cone_topo(&self, roots: &[AigRef]) -> Vec<usize> {
        let mut seen = vec![false; self.nodes.len()];
        let mut order = Vec::new();
        // Iterative post-order DFS.
        let mut stack: Vec<(usize, bool)> = roots.iter().map(|r| (r.node(), false)).collect();
        while let Some((idx, expanded)) = stack.pop() {
            if expanded {
                order.push(idx);
                continue;
            }
            if seen[idx] {
                continue;
            }
            seen[idx] = true;
            stack.push((idx, true));
            if let Node::And(a, b) = self.nodes[idx] {
                stack.push((a.node(), false));
                stack.push((b.node(), false));
            }
        }
        order
    }

    /// Returns the fan-ins of an AND node, or `None` for constants and
    /// inputs.
    pub fn and_fanins(&self, node: usize) -> Option<(AigRef, AigRef)> {
        match self.nodes[node] {
            Node::And(a, b) => Some((a, b)),
            _ => None,
        }
    }

    /// Returns the input index of an input node, or `None` otherwise.
    pub fn input_index(&self, node: usize) -> Option<usize> {
        match self.nodes[node] {
            Node::Input(i) => Some(i as usize),
            _ => None,
        }
    }

    /// Whether `node` is the constant node.
    pub fn is_const_node(&self, node: usize) -> bool {
        matches!(self.nodes[node], Node::False)
    }

    /// Copies the cones of `roots` from `other` into this graph,
    /// substituting `other`'s primary input `i` with `input_map[i]`.
    /// Returns the translated roots.
    ///
    /// Structural hashing and constant folding apply during the copy,
    /// so importing the same cone twice (or a cone that simplifies
    /// under the substitution) shares or eliminates nodes. This is how
    /// the BMC encoders instantiate a model's circuit over fresh
    /// variable sets (time frames, the paper's `U`/`V` state copies).
    ///
    /// # Panics
    ///
    /// Panics if `input_map` is shorter than an input index occurring
    /// in the imported cones.
    pub fn import(&mut self, other: &Aig, roots: &[AigRef], input_map: &[AigRef]) -> Vec<AigRef> {
        let mut translated: Vec<Option<AigRef>> = vec![None; other.num_nodes()];
        for idx in other.cone_topo(roots) {
            let new_ref = match other.nodes[idx] {
                Node::False => AigRef::FALSE,
                Node::Input(i) => {
                    assert!(
                        (i as usize) < input_map.len(),
                        "import: input {i} not covered by input_map (len {})",
                        input_map.len()
                    );
                    input_map[i as usize]
                }
                Node::And(a, b) => {
                    let ta = Self::translate(&translated, a);
                    let tb = Self::translate(&translated, b);
                    self.and(ta, tb)
                }
            };
            translated[idx] = Some(new_ref);
        }
        roots
            .iter()
            .map(|&r| Self::translate(&translated, r))
            .collect()
    }

    fn translate(translated: &[Option<AigRef>], r: AigRef) -> AigRef {
        let base = translated[r.node()].expect("cone node translated in topo order");
        if r.is_complement() {
            !base
        } else {
            base
        }
    }
}

impl fmt::Debug for Aig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Aig {{ inputs: {}, ands: {} }}",
            self.inputs.len(),
            self.num_ands()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Evaluates `f` on every assignment of `n` inputs and returns the
    /// truth table as a bit vector.
    fn truth_table(aig: &Aig, f: AigRef, n: usize) -> Vec<bool> {
        let mut table = Vec::new();
        for bits in 0..1u32 << n {
            let inputs: Vec<bool> = (0..n).map(|i| bits >> i & 1 == 1).collect();
            table.push(aig.eval(&inputs, &[f])[0]);
        }
        table
    }

    #[test]
    fn constants() {
        let aig = Aig::new();
        assert!(!aig.eval(&[], &[AigRef::FALSE])[0]);
        assert!(aig.eval(&[], &[AigRef::TRUE])[0]);
    }

    #[test]
    fn gate_semantics_match_truth_tables() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let and = aig.and(a, b);
        let or = aig.or(a, b);
        let xor = aig.xor(a, b);
        let iff = aig.iff(a, b);
        let imp = aig.implies(a, b);
        // Rows ordered 00, 10, 01, 11 (input 0 is the low bit).
        assert_eq!(truth_table(&aig, and, 2), [false, false, false, true]);
        assert_eq!(truth_table(&aig, or, 2), [false, true, true, true]);
        assert_eq!(truth_table(&aig, xor, 2), [false, true, true, false]);
        assert_eq!(truth_table(&aig, iff, 2), [true, false, false, true]);
        assert_eq!(truth_table(&aig, imp, 2), [true, false, true, true]);
    }

    #[test]
    fn ite_semantics() {
        let mut aig = Aig::new();
        let c = aig.input();
        let t = aig.input();
        let e = aig.input();
        let f = aig.ite(c, t, e);
        for bits in 0..8u32 {
            let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let expect = if vals[0] { vals[1] } else { vals[2] };
            assert_eq!(aig.eval(&vals, &[f])[0], expect);
        }
    }

    #[test]
    fn constant_folding() {
        let mut aig = Aig::new();
        let a = aig.input();
        assert_eq!(aig.and(a, AigRef::FALSE), AigRef::FALSE);
        assert_eq!(aig.and(AigRef::FALSE, a), AigRef::FALSE);
        assert_eq!(aig.and(a, AigRef::TRUE), a);
        assert_eq!(aig.and(AigRef::TRUE, a), a);
        assert_eq!(aig.and(a, a), a);
        assert_eq!(aig.and(a, !a), AigRef::FALSE);
        assert_eq!(aig.num_ands(), 0);
    }

    #[test]
    fn structural_hashing_shares_nodes() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let f1 = aig.and(a, b);
        let f2 = aig.and(b, a);
        assert_eq!(f1, f2);
        assert_eq!(aig.num_ands(), 1);
    }

    #[test]
    fn and_many_or_many_edge_cases() {
        let mut aig = Aig::new();
        assert_eq!(aig.and_many(&[]), AigRef::TRUE);
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let f = aig.and_many(&[a, b, c]);
        assert!(aig.eval(&[true, true, true], &[f])[0]);
        assert!(!aig.eval(&[true, false, true], &[f])[0]);
    }

    #[test]
    fn eq_words_and_eq_const() {
        let mut aig = Aig::new();
        let a: Vec<_> = aig.inputs(3);
        let b: Vec<_> = aig.inputs(3);
        let eq = aig.eq_words(&a, &b);
        assert!(aig.eval(&[true, false, true, true, false, true], &[eq])[0]);
        assert!(!aig.eval(&[true, false, true, true, true, true], &[eq])[0]);

        let k = aig.eq_const(&a, 0b101);
        assert!(aig.eval(&[true, false, true, false, false, false], &[k])[0]);
        assert!(!aig.eval(&[true, true, true, false, false, false], &[k])[0]);
    }

    #[test]
    fn increment_wraps() {
        let mut aig = Aig::new();
        let w: Vec<_> = aig.inputs(3);
        let inc = aig.increment(&w);
        for v in 0..8u64 {
            let inputs: Vec<bool> = (0..3).map(|i| v >> i & 1 == 1).collect();
            let out = aig.eval(&inputs, &inc);
            let got = out
                .iter()
                .enumerate()
                .fold(0u64, |acc, (i, &b)| acc | (u64::from(b) << i));
            assert_eq!(got, (v + 1) % 8, "increment of {v}");
        }
    }

    #[test]
    fn add_words_is_modular_addition() {
        let mut aig = Aig::new();
        let a: Vec<_> = aig.inputs(4);
        let b: Vec<_> = aig.inputs(4);
        let sum = aig.add_words(&a, &b);
        for x in 0..16u64 {
            for y in 0..16u64 {
                let mut inputs = Vec::new();
                for i in 0..4 {
                    inputs.push(x >> i & 1 == 1);
                }
                for i in 0..4 {
                    inputs.push(y >> i & 1 == 1);
                }
                let out = aig.eval(&inputs, &sum);
                let got = out
                    .iter()
                    .enumerate()
                    .fold(0u64, |acc, (i, &bit)| acc | (u64::from(bit) << i));
                assert_eq!(got, (x + y) % 16);
            }
        }
    }

    #[test]
    fn eval_u64_matches_eval() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let t = aig.xor(a, b);
        let f = aig.ite(c, t, a);
        // Pack all 8 assignments into one word per input.
        let mut words = [0u64; 3];
        for bits in 0..8u64 {
            for (i, w) in words.iter_mut().enumerate() {
                *w |= (bits >> i & 1) << bits;
            }
        }
        let packed = aig.eval_u64(&words, &[f])[0];
        for bits in 0..8u64 {
            let inputs: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let scalar = aig.eval(&inputs, &[f])[0];
            assert_eq!(packed >> bits & 1 == 1, scalar, "assignment {bits:03b}");
        }
    }

    #[test]
    fn cone_size_counts_only_reachable_ands() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let c = aig.input();
        let f = aig.and(a, b);
        let _unused = aig.and(b, c);
        assert_eq!(aig.cone_size(&[f]), 1);
        assert_eq!(aig.num_ands(), 2);
        assert_eq!(aig.cone_size(&[AigRef::TRUE]), 0);
        assert_eq!(aig.cone_size(&[a]), 0);
    }

    #[test]
    fn import_substitutes_inputs() {
        let mut src = Aig::new();
        let a = src.input();
        let b = src.input();
        let f = src.xor(a, b);

        let mut dst = Aig::new();
        let x = dst.input();
        let y = dst.input();
        let z = dst.input();
        // Import xor(a,b) twice with different substitutions.
        let g1 = dst.import(&src, &[f], &[x, y])[0];
        let g2 = dst.import(&src, &[f], &[y, z])[0];
        for bits in 0..8u32 {
            let vals: Vec<bool> = (0..3).map(|i| bits >> i & 1 == 1).collect();
            let out = dst.eval(&vals, &[g1, g2]);
            assert_eq!(out[0], vals[0] ^ vals[1]);
            assert_eq!(out[1], vals[1] ^ vals[2]);
        }
    }

    #[test]
    fn import_is_structurally_hashed() {
        let mut src = Aig::new();
        let a = src.input();
        let b = src.input();
        let f = src.and(a, b);

        let mut dst = Aig::new();
        let x = dst.input();
        let y = dst.input();
        let g1 = dst.import(&src, &[f], &[x, y])[0];
        let before = dst.num_ands();
        let g2 = dst.import(&src, &[f], &[x, y])[0];
        assert_eq!(g1, g2, "identical import shares nodes");
        assert_eq!(dst.num_ands(), before);
    }

    #[test]
    fn import_folds_constants() {
        let mut src = Aig::new();
        let a = src.input();
        let b = src.input();
        let f = src.and(a, b);

        let mut dst = Aig::new();
        let x = dst.input();
        // Substituting b := TRUE folds the AND away.
        let g = dst.import(&src, &[f], &[x, AigRef::TRUE])[0];
        assert_eq!(g, x);
        // Substituting b := FALSE folds to constant false.
        let g0 = dst.import(&src, &[f], &[x, AigRef::FALSE])[0];
        assert_eq!(g0, AigRef::FALSE);
    }

    #[test]
    fn import_complemented_substitution_and_roots() {
        let mut src = Aig::new();
        let a = src.input();
        let b = src.input();
        let f = src.or(a, b);

        let mut dst = Aig::new();
        let x = dst.input();
        let y = dst.input();
        let g = dst.import(&src, &[!f], &[!x, y])[0];
        for bits in 0..4u32 {
            let vals: Vec<bool> = (0..2).map(|i| bits >> i & 1 == 1).collect();
            let out = dst.eval(&vals, &[g])[0];
            assert_eq!(out, vals[0] && !vals[1]);
        }
    }

    #[test]
    fn cone_topo_orders_fanins_first() {
        let mut aig = Aig::new();
        let a = aig.input();
        let b = aig.input();
        let f = aig.and(a, b);
        let g = aig.and(f, a);
        let order = aig.cone_topo(&[g]);
        let pos = |n: usize| order.iter().position(|&x| x == n).expect("node in cone");
        assert!(pos(f.node()) < pos(g.node()));
        assert!(pos(a.node()) < pos(f.node()));
    }
}
