//! Indexed binary max-heap ordered by variable activity.
//!
//! The decision heuristic (VSIDS) needs a priority queue supporting
//! `increase-key` on arbitrary variables; this is the classic MiniSat
//! indexed heap. Activities live outside the heap (in the solver) and
//! are passed to every operation, which keeps the borrow checker happy
//! without `RefCell`s in the hot path.

use sebmc_logic::Var;

/// Max-heap over variables keyed by an external activity array.
#[derive(Debug, Clone, Default)]
pub struct ActivityHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `ABSENT`. Four bytes
    /// per variable: a heap holds at most one entry per variable, and
    /// variable indices fit in `u32`.
    pos: Vec<u32>,
}

const ABSENT: u32 = u32::MAX;

impl ActivityHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        ActivityHeap::default()
    }

    /// Grows the position table to cover variable index `n - 1`.
    pub fn grow(&mut self, n: usize) {
        if self.pos.len() < n {
            self.pos.resize(n, ABSENT);
        }
    }

    /// Reserves room for exactly `additional` more variables in the
    /// position table and the heap itself.
    pub fn reserve_exact(&mut self, additional: usize) {
        self.pos.reserve_exact(additional);
        self.heap.reserve_exact(additional);
    }

    /// Whether `v` is currently in the heap.
    pub fn contains(&self, v: Var) -> bool {
        self.pos.get(v.index()).is_some_and(|&p| p != ABSENT)
    }

    /// Number of queued variables.
    #[allow(dead_code)] // part of the heap API; exercised in tests
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap is empty.
    #[allow(dead_code)] // part of the heap API; exercised in tests
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Inserts `v` (no-op if already present).
    pub fn insert(&mut self, v: Var, act: &[f64]) {
        self.grow(v.index() + 1);
        if self.contains(v) {
            return;
        }
        self.pos[v.index()] = self.heap.len() as u32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    /// Removes and returns the variable with maximal activity.
    pub fn pop_max(&mut self, act: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.pos[top.index()] = ABSENT;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.pos[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    /// Restores the heap property after `v`'s activity increased.
    pub fn bumped(&mut self, v: Var, act: &[f64]) {
        if let Some(&p) = self.pos.get(v.index()) {
            if p != ABSENT {
                self.sift_up(p as usize, act);
            }
        }
    }

    /// Rebuilds the heap after a global activity rescale (order is
    /// preserved by uniform scaling, so this is a no-op kept for
    /// symmetry and future heuristics).
    pub fn rescaled(&mut self) {}

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) >> 1;
            if act[self.heap[i].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, i: usize, j: usize) {
        self.heap.swap(i, j);
        self.pos[self.heap[i].index()] = i as u32;
        self.pos[self.heap[j].index()] = j as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_activity_order() {
        let act = vec![0.5, 3.0, 1.0, 2.0];
        let mut h = ActivityHeap::new();
        for i in 0..4 {
            h.insert(Var::new(i), &act);
        }
        let order: Vec<usize> = std::iter::from_fn(|| h.pop_max(&act))
            .map(sebmc_logic::Var::index)
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn insert_is_idempotent() {
        let act = vec![1.0, 2.0];
        let mut h = ActivityHeap::new();
        h.insert(Var::new(0), &act);
        h.insert(Var::new(0), &act);
        assert_eq!(h.len(), 1);
    }

    #[test]
    fn bumped_reorders() {
        let mut act = vec![1.0, 2.0, 3.0];
        let mut h = ActivityHeap::new();
        for i in 0..3 {
            h.insert(Var::new(i), &act);
        }
        act[0] = 10.0;
        h.bumped(Var::new(0), &act);
        assert_eq!(h.pop_max(&act), Some(Var::new(0)));
    }

    #[test]
    fn contains_tracks_membership() {
        let act = vec![1.0; 4];
        let mut h = ActivityHeap::new();
        h.insert(Var::new(2), &act);
        assert!(h.contains(Var::new(2)));
        assert!(!h.contains(Var::new(1)));
        assert!(!h.contains(Var::new(99)));
        h.pop_max(&act);
        assert!(!h.contains(Var::new(2)));
        assert!(h.is_empty());
    }

    #[test]
    fn position_entries_take_four_bytes() {
        let mut h = ActivityHeap::new();
        h.grow(1);
        assert_eq!(std::mem::size_of_val(&h.pos[0]), 4);
    }

    #[test]
    fn interleaved_operations_keep_invariant() {
        // Deterministic pseudo-random stress of insert/pop/bump.
        let n = 64usize;
        let mut act = vec![0.0f64; n];
        let mut h = ActivityHeap::new();
        let mut state = 0x1234_5678u64;
        let mut rnd = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        for step in 0..2000 {
            let v = Var::new((rnd() % n as u64) as u32);
            match step % 3 {
                0 => h.insert(v, &act),
                1 => {
                    act[v.index()] += (rnd() % 100) as f64;
                    h.bumped(v, &act);
                }
                _ => {
                    if let Some(top) = h.pop_max(&act) {
                        // Top must have max activity among queued vars.
                        for i in 0..n {
                            if h.contains(Var::new(i as u32)) {
                                assert!(act[top.index()] >= act[i]);
                            }
                        }
                    }
                }
            }
        }
    }
}
