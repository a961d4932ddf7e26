//! Boundary-condition tests for the return address stack (overflow
//! wraparound, underflow) and the bimodal 2-bit counters (saturation at
//! both rails), including the same behaviors observed through the
//! [`Predictor`] facade the fetch stage drives.

use spear_bpred::{Bimodal, Prediction, Predictor, PredictorConfig, ReturnStack};
use spear_isa::reg::*;
use spear_isa::{Inst, Opcode};

// --- ReturnStack: overflow wraparound ---------------------------------

#[test]
fn ras_overflow_wraps_multiple_times() {
    // Depth 4, 11 pushes: the buffer wraps almost three times. Only the
    // last four entries are live, popped newest-first.
    let mut s = ReturnStack::new(4);
    for a in 1..=11u32 {
        s.push(a);
    }
    assert_eq!(s.depth(), 4, "depth saturates at capacity");
    for expect in [11, 10, 9, 8] {
        assert_eq!(s.pop(), Some(expect));
    }
    assert_eq!(s.pop(), None, "entries 1..=7 were overwritten");
}

#[test]
fn ras_depth_one_keeps_only_the_newest() {
    let mut s = ReturnStack::new(1);
    s.push(10);
    s.push(20);
    s.push(30);
    assert_eq!(s.depth(), 1);
    assert_eq!(s.pop(), Some(30));
    assert_eq!(s.pop(), None);
}

// --- ReturnStack: underflow -------------------------------------------

#[test]
fn ras_underflow_is_sticky_and_harmless() {
    let mut s = ReturnStack::new(4);
    s.push(5);
    assert_eq!(s.pop(), Some(5));
    // Repeated underflow: always None, never panics, depth stays 0.
    for _ in 0..10 {
        assert_eq!(s.pop(), None);
        assert_eq!(s.depth(), 0);
    }
    // The stack still works normally afterwards.
    s.push(7);
    s.push(8);
    assert_eq!(s.pop(), Some(8));
    assert_eq!(s.pop(), Some(7));
    assert_eq!(s.pop(), None);
}

#[test]
fn ras_interleaved_push_pop_across_the_wrap_point() {
    // Drive top past the physical end of the buffer with a push/pop mix
    // and check LIFO order survives the wrap.
    let mut s = ReturnStack::new(2);
    s.push(1);
    s.push(2); // buffer full, top wrapped to slot 0
    assert_eq!(s.pop(), Some(2));
    s.push(3); // reuses the slot 2 vacated
    s.push(4); // overwrites 1 (oldest)
    assert_eq!(s.pop(), Some(4));
    assert_eq!(s.pop(), Some(3));
    assert_eq!(s.pop(), None);
}

// --- ReturnStack through the Predictor facade -------------------------

fn call(target: u32) -> Inst {
    Inst::new(Opcode::Jal, R31, R0, R0, target as i64)
}

fn ret() -> Inst {
    Inst::new(Opcode::Jr, R0, R31, R0, 0)
}

#[test]
fn predictor_ras_overflow_loses_outermost_returns_only() {
    // Call depth 6 against a RAS of depth 4: the four innermost returns
    // predict correctly, the two outermost fall back to fall-through
    // (their stack entries were overwritten by the wrap).
    let cfg = PredictorConfig {
        ras_depth: 4,
        ..PredictorConfig::paper()
    };
    let mut p = Predictor::new(cfg);
    let call_pcs: Vec<u32> = (0..6).map(|i| 100 + 10 * i).collect();
    for &pc in &call_pcs {
        p.predict(pc, &call(pc + 1000));
    }
    // Innermost 4 returns: predicted return addresses are call_pc + 1.
    for &pc in call_pcs.iter().rev().take(4) {
        let got: Prediction = p.predict(2000, &ret());
        assert_eq!(got.next_pc, pc + 1, "inner return for call at {pc}");
    }
    // Outermost 2: stack empty (entries overwritten), falls back to
    // fall-through of the jr itself.
    for _ in 0..2 {
        let got = p.predict(2000, &ret());
        assert_eq!(got.next_pc, 2001, "overwritten return falls through");
    }
}

#[test]
fn predictor_ras_underflow_prefers_btb_then_fallthrough() {
    let mut p = Predictor::new(PredictorConfig::paper());
    // Empty RAS, cold BTB: jr predicts fall-through.
    assert_eq!(p.predict(50, &ret()).next_pc, 51);
    // Train the BTB for this jr, keep the RAS empty: BTB target wins.
    p.update(50, &ret(), true, 777, None);
    assert_eq!(p.predict(50, &ret()).next_pc, 777);
}

#[test]
fn predictor_restore_after_ras_wraparound_preserves_pop_order() {
    let cfg = PredictorConfig {
        ras_depth: 3,
        ..PredictorConfig::paper()
    };
    let mut warm = Predictor::new(cfg);
    for pc in 1..=8u32 {
        warm.predict(pc, &call(100)); // pushes pc + 1; wraps twice
    }
    // Live entries oldest-first: 7, 8, 9.
    let mut live = Predictor::new(cfg);
    live.restore(&warm).expect("same configuration");
    for expect in [9, 8, 7] {
        assert_eq!(live.predict(2000, &ret()).next_pc, expect);
    }
    assert_eq!(live.predict(2000, &ret()).next_pc, 2001, "stack drained");
}

// --- Bimodal: saturation at both rails --------------------------------

#[test]
fn bimodal_saturates_high_needs_exactly_two_not_takens_to_flip() {
    let mut b = Bimodal::new(64);
    // 100 taken updates pin the counter at 3 (strongly taken) — it must
    // not wrap or overflow past the 2-bit range.
    for _ in 0..100 {
        b.update(9, true);
    }
    assert!(b.predict(9));
    b.update(9, false); // 3 -> 2: hysteresis, still predicts taken
    assert!(
        b.predict(9),
        "one not-taken must not flip a saturated counter"
    );
    b.update(9, false); // 2 -> 1
    assert!(!b.predict(9), "the second not-taken flips it");
}

#[test]
fn bimodal_saturates_low_needs_exactly_two_takens_to_flip() {
    let mut b = Bimodal::new(64);
    for _ in 0..100 {
        b.update(9, false); // pins at 0 (strongly not-taken)
    }
    assert!(!b.predict(9));
    b.update(9, true); // 0 -> 1
    assert!(!b.predict(9), "one taken must not flip a saturated counter");
    b.update(9, true); // 1 -> 2
    assert!(b.predict(9), "the second taken flips it");
}

#[test]
fn bimodal_matches_reference_two_bit_counter_exactly() {
    // Drive one counter with a pseudo-random outcome stream and check
    // the table against a software model of a 2-bit saturating counter.
    let mut b = Bimodal::new(16);
    let mut model: i32 = 1; // reset state: weakly not-taken
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..2_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let taken = x & 1 == 1;
        assert_eq!(b.predict(5), model >= 2, "prediction diverged from model");
        b.update(5, taken);
        model = (model + if taken { 1 } else { -1 }).clamp(0, 3);
    }
}

#[test]
fn bimodal_counters_are_independent_across_non_aliasing_pcs() {
    let mut b = Bimodal::new(16);
    for _ in 0..4 {
        b.update(3, true);
        b.update(4, false);
    }
    assert!(b.predict(3));
    assert!(!b.predict(4), "neighbor counter untouched");
    // 3 and 3+16 alias (table has 16 entries); 4 does not alias 3.
    assert!(b.predict(3 + 16));
}
