//! The synthetic benchmark families.
//!
//! The paper evaluates on "thirteen proprietary Intel model checking
//! test cases of different sizes". Those are not available, so this
//! module provides thirteen *parameterized* synthetic hardware models
//! with the same workload shape: synchronous sequential circuits with a
//! size-diverse mix of reachable (SAT) and unreachable (UNSAT)
//! reachability queries.
//!
//! Every builder returns a [`Model`] with a documented minimal witness
//! length (or a proof sketch of unreachability), so the explicit-state
//! oracle can confirm each family's behaviour in tests.

use sebmc_logic::rng::SplitMix64;
use sebmc_logic::{Aig, AigRef};

use crate::builder::ModelBuilder;
use crate::model::Model;

/// Per-bit multiplexer over equal-width words: `sel ? a : b`.
fn mux_words(aig: &mut Aig, sel: AigRef, a: &[AigRef], b: &[AigRef]) -> Vec<AigRef> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| aig.ite(sel, x, y)).collect()
}

/// 1. `w`-bit counter with synchronous reset.
///
/// `c' = reset ? 0 : c + 1`; target `c = 2^w − 1`.
/// Minimal witness: `2^w − 1` steps; reachable in exactly `k` steps for
/// every `k ≥ 2^w − 1` (reset restarts the count).
pub fn counter_with_reset(w: usize) -> Model {
    let mut b = ModelBuilder::new(format!("counter_reset_{w}"));
    let bits = b.state_vars(w, "c");
    let reset = b.input("reset");
    let inc = b.aig_mut().increment(&bits);
    let zero = vec![AigRef::FALSE; w];
    let nexts = mux_words(b.aig_mut(), reset, &zero, &inc);
    b.set_next_all(&nexts);
    let t = b.aig_mut().eq_const(&bits, (1u64 << w) - 1);
    b.set_target(t);
    b.build().expect("counter_with_reset is well-formed")
}

/// 2. `w`-bit counter with enable.
///
/// `c' = en ? c + 1 : c`; target `c = 2^w − 1`.
/// Reachable in exactly `k` steps for every `k ≥ 2^w − 1` (idling with
/// `en = 0` pads shorter paths).
pub fn counter_with_enable(w: usize) -> Model {
    let mut b = ModelBuilder::new(format!("counter_enable_{w}"));
    let bits = b.state_vars(w, "c");
    let en = b.input("en");
    let inc = b.aig_mut().increment(&bits);
    let nexts = mux_words(b.aig_mut(), en, &inc, &bits);
    b.set_next_all(&nexts);
    let t = b.aig_mut().eq_const(&bits, (1u64 << w) - 1);
    b.set_target(t);
    b.build().expect("counter_with_enable is well-formed")
}

/// 3. `w`-bit shift register fed by an input.
///
/// `s0' = d`, `sᵢ' = sᵢ₋₁`; target: all bits one.
/// Minimal witness: `w` steps (shift in `w` ones); reachable in exactly
/// `k` for every `k ≥ w`.
pub fn shift_register(w: usize) -> Model {
    let mut b = ModelBuilder::new(format!("shift_{w}"));
    let bits = b.state_vars(w, "s");
    let d = b.input("d");
    let mut nexts = vec![d];
    nexts.extend_from_slice(&bits[..w - 1]);
    b.set_next_all(&nexts);
    let t = b.aig_mut().and_many(&bits);
    b.set_target(t);
    b.build().expect("shift_register is well-formed")
}

/// 4. `w`-bit autonomous Fibonacci LFSR.
///
/// Feedback `f = s_{w-1} ⊕ s_{tap}` with `tap = w/2`; shift left from
/// seed `…001`. Target: the state the LFSR reaches after exactly
/// `target_after` steps (computed by simulation), so the instance is
/// SAT exactly at `k ∈ {target_after + m·period}` and UNSAT at every
/// other bound — a deterministic needle.
pub fn lfsr(w: usize, target_after: usize) -> Model {
    assert!(w >= 2, "lfsr needs at least 2 bits");
    let mut b = ModelBuilder::new(format!("lfsr_{w}_{target_after}"));
    let bits = b.state_vars(w, "s");
    let tap = w / 2;
    let feedback = b.aig_mut().xor(bits[w - 1], bits[tap]);
    let mut nexts = vec![feedback];
    nexts.extend_from_slice(&bits[..w - 1]);
    b.set_next_all(&nexts);
    let init = b.aig_mut().eq_const(&bits, 1);
    b.set_init(init);
    // Simulate to find the target value.
    let mut state = 1u64;
    for _ in 0..target_after {
        let fb = (state >> (w - 1) & 1) ^ (state >> tap & 1);
        state = (state << 1 | fb) & ((1 << w) - 1);
    }
    let t = b.aig_mut().eq_const(&bits, state);
    b.set_target(t);
    b.build().expect("lfsr is well-formed")
}

/// 5. `w`-bit autonomous Gray-code counter.
///
/// Internally converts Gray → binary, increments, converts back.
/// Target: the Gray encoding of `2^w − 1`, reached after exactly
/// `2^w − 1` steps (then periodically).
pub fn gray_counter(w: usize) -> Model {
    let mut b = ModelBuilder::new(format!("gray_{w}"));
    let g = b.state_vars(w, "g");
    // Gray to binary: b_{w-1} = g_{w-1}; b_i = g_i ⊕ b_{i+1}.
    let mut bin = vec![AigRef::FALSE; w];
    bin[w - 1] = g[w - 1];
    for i in (0..w - 1).rev() {
        bin[i] = b.aig_mut().xor(g[i], bin[i + 1]);
    }
    let inc = b.aig_mut().increment(&bin);
    // Binary to Gray: g_i = b_i ⊕ b_{i+1} (b_w = 0).
    let mut nexts = Vec::with_capacity(w);
    for i in 0..w {
        let hi = if i + 1 < w { inc[i + 1] } else { AigRef::FALSE };
        nexts.push(b.aig_mut().xor(inc[i], hi));
    }
    b.set_next_all(&nexts);
    let max = (1u64 << w) - 1;
    let t = b.aig_mut().eq_const(&g, max ^ (max >> 1));
    b.set_target(t);
    b.build().expect("gray_counter is well-formed")
}

/// 6. `w`-bit Johnson (twisted-ring) counter.
///
/// `s0' = ¬s_{w-1}`, `sᵢ' = sᵢ₋₁`; period `2w`; target: all ones,
/// reached after exactly `w` steps (then every `2w`).
pub fn johnson_counter(w: usize) -> Model {
    let mut b = ModelBuilder::new(format!("johnson_{w}"));
    let bits = b.state_vars(w, "j");
    let mut nexts = vec![!bits[w - 1]];
    nexts.extend_from_slice(&bits[..w - 1]);
    b.set_next_all(&nexts);
    let t = b.aig_mut().and_many(&bits);
    b.set_target(t);
    b.build().expect("johnson_counter is well-formed")
}

/// 7. Round-robin arbiter over `n` clients.
///
/// A one-hot token rotates each cycle; a grant latch records
/// `requestᵢ ∧ tokenᵢ`. Target: grant to client `n−1`. Minimal witness:
/// `n` steps (token reaches position `n−1` at step `n−1`, grant latches
/// one step later), then whenever `k ≡ 0 (mod n)`.
pub fn round_robin_arbiter(n: usize) -> Model {
    assert!(n >= 2, "arbiter needs at least 2 clients");
    let mut b = ModelBuilder::new(format!("arbiter_{n}"));
    let token = b.state_vars(n, "t");
    let grant = b.state_vars(n, "g");
    let req = b.inputs(n, "r");
    // Token rotates unconditionally.
    let mut nexts = Vec::with_capacity(2 * n);
    for i in 0..n {
        nexts.push(token[(i + n - 1) % n]);
    }
    for i in 0..n {
        nexts.push(b.aig_mut().and(req[i], token[i]));
    }
    b.set_next_all(&nexts);
    // Init: token at position 0, no grants.
    let mut init = token[0];
    for &t in &token[1..] {
        init = b.aig_mut().and(init, !t);
    }
    for &g in &grant {
        init = b.aig_mut().and(init, !g);
    }
    b.set_init(init);
    b.set_target(grant[n - 1]);
    b.build().expect("round_robin_arbiter is well-formed")
}

/// 8. Interlocked traffic-light pair (UNSAT family).
///
/// A token bit alternates; each light's green latch can only be set
/// while holding the token (`greenA' = token ∧ reqA`,
/// `greenB' = ¬token ∧ reqB`). Both-green is unreachable — but proving
/// it needs one step of reasoning, it is not syntactically false.
pub fn traffic_light() -> Model {
    let mut b = ModelBuilder::new("traffic");
    let token = b.state_var("token");
    let green_a = b.state_var("greenA");
    let green_b = b.state_var("greenB");
    let req_a = b.input("reqA");
    let req_b = b.input("reqB");
    let na = b.aig_mut().and(token, req_a);
    let nb = b.aig_mut().and(!token, req_b);
    b.set_next_all(&[!token, na, nb]);
    let t = b.aig_mut().and(green_a, green_b);
    b.set_target(t);
    b.build().expect("traffic_light is well-formed")
}

/// 9. Elevator over `2^w` floors.
///
/// State: floor (w bits), direction, door. Inputs: `move`, `open`.
/// The car moves one floor per `move` step while the door is shut;
/// direction flips at the extremes; `door' = open` and opening
/// suppresses movement. Target: top floor with the door open.
/// Minimal witness: `2^w` steps (`2^w − 1` moves, then one open).
pub fn elevator(w: usize) -> Model {
    let mut b = ModelBuilder::new(format!("elevator_{w}"));
    let floor = b.state_vars(w, "f");
    let dir = b.state_var("up");
    let door = b.state_var("door");
    let mv = b.input("move");
    let open = b.input("open");
    let top = (1u64 << w) - 1;
    let at_top = b.aig_mut().eq_const(&floor, top);
    let at_bottom = b.aig_mut().eq_const(&floor, 0);
    // Effective direction: forced up at the bottom, down at the top.
    let dir_mid = b.aig_mut().ite(at_bottom, AigRef::TRUE, dir);
    let eff_dir = b.aig_mut().ite(at_top, AigRef::FALSE, dir_mid);
    let inc = b.aig_mut().increment(&floor);
    let ones = vec![AigRef::TRUE; w];
    let dec = b.aig_mut().add_words(&floor, &ones); // floor − 1 (mod 2^w)
    let moved = mux_words(b.aig_mut(), eff_dir, &inc, &dec);
    let move_eff = b.aig_mut().and(mv, !open);
    let next_floor = mux_words(b.aig_mut(), move_eff, &moved, &floor);
    let mut nexts = next_floor;
    nexts.push(eff_dir);
    nexts.push(open);
    b.set_next_all(&nexts);
    let t2 = b.aig_mut().eq_const(&floor, top);
    let t = b.aig_mut().and(t2, door);
    b.set_target(t);
    b.build().expect("elevator is well-formed")
}

/// 10. Circular FIFO with `2^p` slots of one data bit each.
///
/// State: head (p), tail (p), count (p+1), data (2^p). Inputs: `push`,
/// `pop`, `din`. Pushes append `din` at `tail` when not full; pops
/// advance `head` when not empty. Target: full with all-ones data.
/// Minimal witness: `2^p` pushes of 1.
pub fn fifo(p: usize) -> Model {
    let depth = 1usize << p;
    let mut b = ModelBuilder::new(format!("fifo_{depth}"));
    let head = b.state_vars(p, "h");
    let tail = b.state_vars(p, "t");
    let count = b.state_vars(p + 1, "n");
    let data = b.state_vars(depth, "d");
    let push = b.input("push");
    let pop = b.input("pop");
    let din = b.input("din");
    let full = b.aig_mut().eq_const(&count, depth as u64);
    let empty = b.aig_mut().eq_const(&count, 0);
    let push_eff = b.aig_mut().and(push, !full);
    let pop_eff = b.aig_mut().and(pop, !empty);
    let inc_only = b.aig_mut().and(push_eff, !pop_eff);
    let dec_only = b.aig_mut().and(pop_eff, !push_eff);
    let count_inc = b.aig_mut().increment(&count);
    let ones = vec![AigRef::TRUE; p + 1];
    let count_dec = b.aig_mut().add_words(&count, &ones);
    let c1 = mux_words(b.aig_mut(), inc_only, &count_inc, &count);
    let next_count = mux_words(b.aig_mut(), dec_only, &count_dec, &c1);
    let tail_inc = b.aig_mut().increment(&tail);
    let next_tail = mux_words(b.aig_mut(), push_eff, &tail_inc, &tail);
    let head_inc = b.aig_mut().increment(&head);
    let next_head = mux_words(b.aig_mut(), pop_eff, &head_inc, &head);
    let mut next_data = Vec::with_capacity(depth);
    for (i, &slot) in data.iter().enumerate() {
        let here = b.aig_mut().eq_const(&tail, i as u64);
        let write = b.aig_mut().and(push_eff, here);
        next_data.push(b.aig_mut().ite(write, din, slot));
    }
    let mut nexts = next_head;
    nexts.extend(next_tail);
    nexts.extend(next_count);
    nexts.extend(next_data);
    b.set_next_all(&nexts);
    let all_ones = b.aig_mut().and_many(&data);
    let t = b.aig_mut().and(full, all_ones);
    b.set_target(t);
    b.build().expect("fifo is well-formed")
}

/// 11. Token ring of `n` stations.
///
/// The single token moves one station per step when `pass` is high.
/// Target: token at station `n−1`; minimal witness `n−1` steps.
pub fn token_ring(n: usize) -> Model {
    assert!(n >= 2, "token ring needs at least 2 stations");
    let mut b = ModelBuilder::new(format!("ring_{n}"));
    let t = b.state_vars(n, "t");
    let pass = b.input("pass");
    let mut nexts = Vec::with_capacity(n);
    for i in 0..n {
        let rotated = t[(i + n - 1) % n];
        nexts.push(b.aig_mut().ite(pass, rotated, t[i]));
    }
    b.set_next_all(&nexts);
    let mut init = t[0];
    for &bit in &t[1..] {
        init = b.aig_mut().and(init, !bit);
    }
    b.set_init(init);
    b.set_target(t[n - 1]);
    b.build().expect("token_ring is well-formed")
}

/// 12. Peterson's mutual-exclusion protocol (UNSAT family).
///
/// Two processes with 2-bit program counters (idle → want → wait →
/// crit), per-process flags and a turn bit; a scheduler input picks
/// which process steps. Target: both in the critical section — Peterson
/// guarantees this is unreachable at every bound.
pub fn peterson() -> Model {
    let mut b = ModelBuilder::new("peterson");
    let pc0 = b.state_vars(2, "pc0_"); // [lo, hi]
    let pc1 = b.state_vars(2, "pc1_");
    let f0 = b.state_var("flag0");
    let f1 = b.state_var("flag1");
    let turn = b.state_var("turn"); // whose turn it is (0 or 1)
    let sched = b.input("sched"); // 0: process 0 steps, 1: process 1

    struct Proc {
        lo: AigRef,
        hi: AigRef,
        flag: AigRef,
        scheduled: AigRef,
        can_enter: AigRef,
    }

    let build_next = |aig: &mut Aig, p: &Proc| -> (AigRef, AigRef, AigRef) {
        let is0 = aig.and(!p.hi, !p.lo);
        let is1 = aig.and(!p.hi, p.lo);
        let is2 = aig.and(p.hi, !p.lo);
        let is3 = aig.and(p.hi, p.lo);
        // Stepped: 0→1, 1→2, 2→(can ? 3 : 2), 3→0.
        let enter = aig.and(is2, p.can_enter);
        let lo_step = aig.or(is0, enter);
        let hi_step = aig.or(is1, is2);
        let lo_next = aig.ite(p.scheduled, lo_step, p.lo);
        let hi_next = aig.ite(p.scheduled, hi_step, p.hi);
        // Flag: set on 0→1, cleared on 3→0.
        let set = aig.and(p.scheduled, is0);
        let clear = aig.and(p.scheduled, is3);
        let keep = aig.and(p.flag, !clear);
        let flag_next = aig.or(set, keep);
        (lo_next, hi_next, flag_next)
    };

    let sched0 = !sched;
    // can_enter for p0: ¬flag1 ∨ turn = 0; for p1: ¬flag0 ∨ turn = 1.
    let ce0 = b.aig_mut().or(!f1, !turn);
    let ce1 = b.aig_mut().or(!f0, turn);
    let p0 = Proc {
        lo: pc0[0],
        hi: pc0[1],
        flag: f0,
        scheduled: sched0,
        can_enter: ce0,
    };
    let p1 = Proc {
        lo: pc1[0],
        hi: pc1[1],
        flag: f1,
        scheduled: sched,
        can_enter: ce1,
    };
    let (l0, h0, nf0) = build_next(b.aig_mut(), &p0);
    let (l1, h1, nf1) = build_next(b.aig_mut(), &p1);
    // Turn is set to the *other* process id on the want→wait step.
    let is1_0 = b.aig_mut().and(!pc0[1], pc0[0]);
    let is1_1 = b.aig_mut().and(!pc1[1], pc1[0]);
    let w0 = b.aig_mut().and(sched0, is1_0); // p0 sets turn := 1
    let w1 = b.aig_mut().and(sched, is1_1); // p1 sets turn := 0
    let t1 = b.aig_mut().ite(w1, AigRef::FALSE, turn);
    let next_turn = b.aig_mut().ite(w0, AigRef::TRUE, t1);

    b.set_next_all(&[l0, h0, l1, h1, nf0, nf1, next_turn]);
    let crit0 = b.aig_mut().and(pc0[1], pc0[0]);
    let crit1 = b.aig_mut().and(pc1[1], pc1[0]);
    let both = b.aig_mut().and(crit0, crit1);
    b.set_target(both);
    b.build().expect("peterson is well-formed")
}

/// 13. Seeded random FSM.
///
/// `bits` state variables whose next functions are random AIG
/// expressions over the state and `inputs` free inputs; the target is a
/// random cube of state literals. Reachability is whatever it is — the
/// explicit-state oracle decides in tests; in the paper-scale suite the
/// wide variants supply the *hard* instances.
pub fn random_fsm(bits: usize, inputs: usize, seed: u64) -> Model {
    let mut rng = SplitMix64::new(seed);
    let mut b = ModelBuilder::new(format!("random_{bits}_{inputs}_{seed}"));
    let state = b.state_vars(bits, "x");
    let ins = b.inputs(inputs, "i");
    let mut pool: Vec<AigRef> = state.iter().chain(ins.iter()).copied().collect();
    let gates = 3 * bits;
    for _ in 0..gates {
        let a = pool[rng.below(pool.len())];
        let bb = pool[rng.below(pool.len())];
        let aa = if rng.coin() { a } else { !a };
        let bbb = if rng.coin() { bb } else { !bb };
        let g = match rng.below(3) {
            0 => b.aig_mut().and(aa, bbb),
            1 => b.aig_mut().or(aa, bbb),
            _ => b.aig_mut().xor(aa, bbb),
        };
        pool.push(g);
    }
    let nexts: Vec<AigRef> = (0..bits)
        .map(|_| {
            let g = pool[rng.below(pool.len())];
            if rng.coin() {
                g
            } else {
                !g
            }
        })
        .collect();
    b.set_next_all(&nexts);
    // Target: a cube of ⌈bits/2⌉ random state literals, at least 2.
    let cube_len = (bits / 2).clamp(2, 6);
    let mut idx: Vec<usize> = (0..bits).collect();
    for i in (1..idx.len()).rev() {
        idx.swap(i, rng.below(i + 1));
    }
    let mut target = AigRef::TRUE;
    for &i in idx.iter().take(cube_len) {
        let lit = if rng.coin() { state[i] } else { !state[i] };
        target = b.aig_mut().and(target, lit);
    }
    b.set_target(target);
    b.build().expect("random_fsm is well-formed")
}

/// 13b. Seeded random FSM with an explicit gate budget.
///
/// Like [`random_fsm`] but the combinational cloud size is a parameter
/// and every gate is guaranteed to lie in the transition cone (each
/// next function folds over a slice of the cloud). Used by experiment
/// E2, which needs the paper's `|TR| ≫ n` regime.
pub fn dense_fsm(bits: usize, inputs: usize, gates: usize, seed: u64) -> Model {
    let mut rng = SplitMix64::new(seed);
    let mut b = ModelBuilder::new(format!("dense_{bits}_{gates}_{seed}"));
    let state = b.state_vars(bits, "x");
    let ins = b.inputs(inputs, "i");
    let mut pool: Vec<AigRef> = state.iter().chain(ins.iter()).copied().collect();
    for _ in 0..gates {
        let a = pool[rng.below(pool.len())];
        let bb = pool[rng.below(pool.len())];
        let aa = if rng.coin() { a } else { !a };
        let bbb = if rng.coin() { bb } else { !bb };
        let g = match rng.below(3) {
            0 => b.aig_mut().and(aa, bbb),
            1 => b.aig_mut().or(aa, bbb),
            _ => b.aig_mut().xor(aa, bbb),
        };
        pool.push(g);
    }
    for i in 0..bits {
        let members: Vec<AigRef> = pool.iter().copied().skip(i).step_by(bits).collect();
        let mut f = members[0];
        for &g in &members[1..] {
            f = b.aig_mut().xor(f, g);
        }
        b.set_next(i, f);
    }
    let target = {
        let cube_len = (bits / 2).clamp(2, 6);
        let mut t = AigRef::TRUE;
        for &s in state.iter().take(cube_len) {
            let lit = if rng.coin() { s } else { !s };
            t = b.aig_mut().and(t, lit);
        }
        t
    };
    b.set_target(target);
    b.build().expect("dense_fsm is well-formed")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit::{min_steps_to_target, reachable_in_exactly};

    #[test]
    fn counter_reset_minimum() {
        let m = counter_with_reset(3);
        assert_eq!(min_steps_to_target(&m, 10), Some(7));
        assert!(reachable_in_exactly(&m, 8), "reset allows longer paths");
    }

    #[test]
    fn counter_enable_minimum() {
        let m = counter_with_enable(3);
        assert_eq!(min_steps_to_target(&m, 10), Some(7));
        assert!(reachable_in_exactly(&m, 9), "idling pads paths");
    }

    #[test]
    fn shift_register_minimum() {
        let m = shift_register(4);
        assert_eq!(min_steps_to_target(&m, 8), Some(4));
    }

    #[test]
    fn lfsr_needle() {
        let m = lfsr(4, 6);
        assert_eq!(min_steps_to_target(&m, 12), Some(6));
        assert!(!reachable_in_exactly(&m, 5));
        assert!(!reachable_in_exactly(&m, 7), "autonomous: exact needle");
        assert!(reachable_in_exactly(&m, 6));
    }

    #[test]
    fn gray_counter_minimum() {
        let m = gray_counter(3);
        assert_eq!(min_steps_to_target(&m, 10), Some(7));
        // Autonomous with period 8.
        assert!(!reachable_in_exactly(&m, 8));
        assert!(reachable_in_exactly(&m, 15));
    }

    #[test]
    fn johnson_counter_minimum_and_period() {
        let m = johnson_counter(4);
        assert_eq!(min_steps_to_target(&m, 16), Some(4));
        assert!(reachable_in_exactly(&m, 12), "period 2w = 8");
        assert!(!reachable_in_exactly(&m, 6));
    }

    #[test]
    fn arbiter_grant_timing() {
        let m = round_robin_arbiter(3);
        // Token at position 2 at step 2; grant latched at step 3.
        assert_eq!(min_steps_to_target(&m, 9), Some(3));
        assert!(reachable_in_exactly(&m, 6));
        assert!(!reachable_in_exactly(&m, 4));
    }

    #[test]
    fn traffic_is_unreachable() {
        let m = traffic_light();
        for k in 0..8 {
            assert!(!reachable_in_exactly(&m, k), "bound {k}");
        }
    }

    #[test]
    fn elevator_minimum() {
        let m = elevator(2);
        // 3 moves to the top floor, then one step opening the door.
        assert_eq!(min_steps_to_target(&m, 10), Some(4));
    }

    #[test]
    fn fifo_minimum() {
        let m = fifo(1); // 2 slots
        assert_eq!(min_steps_to_target(&m, 6), Some(2));
    }

    #[test]
    fn token_ring_minimum() {
        let m = token_ring(4);
        assert_eq!(min_steps_to_target(&m, 8), Some(3));
        assert!(reachable_in_exactly(&m, 5), "token can wait");
    }

    #[test]
    fn peterson_mutual_exclusion_holds() {
        let m = peterson();
        for k in 0..10 {
            assert!(!reachable_in_exactly(&m, k), "mutex violated at bound {k}");
        }
    }

    #[test]
    fn peterson_progress_possible() {
        // Sanity: each process *can* reach its critical section alone.
        let m = peterson();
        // pc0 = 3 (crit) is state bits 0,1 both true; check via explicit
        // search over a modified target using simulation.
        let mut found = false;
        let mut states = vec![vec![false; 7]];
        for _ in 0..8 {
            let mut next_states = Vec::new();
            for s in &states {
                for sched in [false, true] {
                    let ns = m.step(s, &[sched]);
                    if ns[0] && ns[1] {
                        found = true;
                    }
                    next_states.push(ns);
                }
            }
            states = next_states;
            states.dedup();
            if found {
                break;
            }
        }
        assert!(found, "process 0 can reach its critical section");
    }

    #[test]
    fn dense_fsm_has_requested_cone() {
        let m = dense_fsm(6, 2, 300, 1);
        assert!(
            m.tr_cone_size() >= 250,
            "most of the 300-gate cloud must be in the cone, got {}",
            m.tr_cone_size()
        );
        // Deterministic for a fixed seed.
        let m2 = dense_fsm(6, 2, 300, 1);
        let s = vec![true, false, true, false, true, true];
        assert_eq!(m.step(&s, &[false, true]), m2.step(&s, &[false, true]));
    }

    #[test]
    fn random_fsm_is_deterministic() {
        let a = random_fsm(4, 1, 42);
        let b = random_fsm(4, 1, 42);
        assert_eq!(a.num_state_vars(), b.num_state_vars());
        let s = vec![true, false, true, false];
        assert_eq!(a.step(&s, &[true]), b.step(&s, &[true]));
        let c = random_fsm(4, 1, 43);
        // Different seeds give different dynamics with high probability;
        // at minimum the model must still be well-formed.
        assert_eq!(c.num_state_vars(), 4);
    }
}
