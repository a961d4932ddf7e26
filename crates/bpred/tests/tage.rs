//! TAGE behavioural tests: provider/alt selection, allocation failure,
//! useful-bit aging, warm-state restore through the [`Predictor`]
//! facade, and bit-exact determinism — all through the public surface.

use spear_bpred::{Predictor, PredictorConfig, PredictorKind, Tage, TageConfig};
use spear_isa::reg::*;
use spear_isa::{Inst, Opcode};

fn fresh(cfg: TageConfig) -> Tage {
    Tage::new(2048, cfg)
}

fn counter(t: &Tage, name: &str) -> u64 {
    t.detail()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| panic!("no counter `{name}`"))
}

/// A periodic direction stream (period `period`, mixed bit pattern):
/// history-dependent, so tagged tables — not the base bimodal — must
/// carry the prediction. Returns the number of correct predictions.
fn drive_pattern(t: &mut Tage, pc: u32, rounds: usize, period: usize) -> usize {
    let mut correct = 0;
    for i in 0..rounds {
        let taken = (0xB5u32 >> (i % period)) & 1 == 1;
        if t.predict(pc) == taken {
            correct += 1;
        }
        t.update(pc, taken);
    }
    correct
}

/// A deterministic pseudorandom stream: unlearnable, so it applies
/// maximum allocation pressure.
fn drive_noise(t: &mut Tage, pc: u32, rounds: u32) {
    for i in 0..rounds {
        let taken = (i.wrapping_mul(2654435761)).count_ones() % 2 == 0;
        t.predict(pc);
        t.update(pc, taken);
    }
}

#[test]
fn provider_vs_altpred_selection_is_exercised_and_counted() {
    let mut t = fresh(TageConfig::default_spec());
    drive_pattern(&mut t, 0x4A31, 6000, 6);
    // Tagged entries were allocated, became providers, and for a while
    // (newly allocated, weak) the alternative prediction overrode them.
    assert!(counter(&t, "allocations") > 0, "mispredicts must allocate");
    assert!(
        counter(&t, "provider_tagged") > 0,
        "allocated entries must provide predictions"
    );
    assert!(
        counter(&t, "alt_used") > 0,
        "weak new providers must defer to the alternative at least once"
    );
    assert!(counter(&t, "provider_base") > 0, "cold start uses the base");
}

#[test]
fn allocation_failure_ages_candidate_useful_bits() {
    // One tiny single-entry table: once its entry is useful (u > 0),
    // further mispredicts cannot allocate and must age it back down.
    let cfg = TageConfig {
        tables: 1,
        table_bits: 1,
        ..TageConfig::default_spec()
    };
    let mut t = Tage::new(16, cfg);
    drive_noise(&mut t, 0x77, 4000);
    assert!(
        counter(&t, "allocation_fails") > 0,
        "a saturated table must report failed allocations"
    );
}

#[test]
fn useful_bits_decay_on_the_configured_period() {
    let cfg = TageConfig {
        u_decay_period: 64,
        ..TageConfig::default_spec()
    };
    let mut t = fresh(cfg);
    drive_pattern(&mut t, 0x9E1, 1000, 6);
    assert_eq!(
        counter(&t, "u_decays"),
        1000 / 64,
        "one halving per period of updates"
    );
}

fn tage(t: TageConfig) -> PredictorConfig {
    PredictorConfig {
        kind: PredictorKind::Tage,
        tage: t,
        ..PredictorConfig::paper()
    }
}

/// Predict then resolve one conditional branch through the facade;
/// returns whether the fetch-time direction was right.
fn step(p: &mut Predictor, pc: u32, taken: bool) -> bool {
    let b = Inst::new(Opcode::Bne, R0, R1, R0, 5);
    let pred = p.predict(pc, &b);
    p.update(pc, &b, taken, 5, Some(pred));
    pred.taken == Some(taken)
}

fn detail_counter(p: &Predictor, name: &str) -> u64 {
    let d = p.detail().expect("tage exports detail");
    d.counters.iter().find(|(n, _)| n == name).unwrap().1
}

#[test]
fn restore_is_lossless_and_zeroes_detail_counters() {
    let cfg = tage(TageConfig::default_spec());
    let mut a = Predictor::new(cfg);
    for i in 0..3000 {
        step(&mut a, 0xBEEF, (0xB5u32 >> (i % 7)) & 1 == 1);
    }
    assert!(detail_counter(&a, "provider_tagged") > 0);

    let mut b = Predictor::new(cfg);
    b.restore(&a).expect("same configuration restores");
    // Detail counters reset: a restored predictor measures only itself.
    for (name, v) in b.detail().unwrap().counters {
        assert_eq!(v, 0, "{name} after restore");
    }
    // Restoring `a` from a copy of itself zeroes its counters the same
    // way, leaving only the warm state to compare: it must be identical.
    a.restore(&a.clone()).unwrap();
    assert_eq!(a, b, "restore is lossless");

    // From here on, both predictors see the same stream and must agree
    // bit-for-bit — history (including the cross-word high bits) and
    // every table carried over.
    for i in 0..500u32 {
        let pc = 0xBEEF + (i % 3);
        let taken = i.count_ones() % 2 == 0;
        assert_eq!(
            step(&mut a, pc, taken),
            step(&mut b, pc, taken),
            "diverged at step {i}"
        );
    }
    assert_eq!(a, b);
}

#[test]
fn restore_rejects_wrong_geometry_loudly() {
    let warm = Predictor::new(tage(TageConfig::default_spec()));
    let refuse = |live: PredictorConfig| Predictor::new(live).restore(&warm).unwrap_err();
    // Different tagged-table count.
    let err = refuse(tage(TageConfig {
        tables: 3,
        ..TageConfig::default_spec()
    }));
    assert!(
        err.contains("tagged tables") && err.contains('4') && err.contains('3'),
        "{err}"
    );
    // Different per-table entry count.
    let err = refuse(tage(TageConfig {
        table_bits: 9,
        ..TageConfig::default_spec()
    }));
    assert!(err.contains("entries per table"), "{err}");
    // Different base sizing.
    let err = refuse(PredictorConfig {
        table_size: 1024,
        ..tage(TageConfig::default_spec())
    });
    assert!(err.contains("base entries"), "{err}");
    // Different useful-bit decay period (not a table size, but part of
    // the state's meaning).
    let err = refuse(tage(TageConfig {
        u_decay_period: 64,
        ..TageConfig::default_spec()
    }));
    assert!(err.contains("decay period"), "{err}");
    // Wrong kind entirely.
    let err = refuse(PredictorConfig::paper());
    assert!(err.contains("bimodal") && err.contains("tage"), "{err}");
}

#[test]
fn two_identical_runs_are_bit_identical() {
    let mut a = fresh(TageConfig::default_spec());
    let mut b = fresh(TageConfig::default_spec());
    for i in 0..5000u32 {
        let pc = (i.wrapping_mul(2654435761)) % 977;
        let taken = (i ^ (i >> 3)).count_ones() % 2 == 0;
        assert_eq!(a.predict(pc), b.predict(pc));
        a.update(pc, taken);
        b.update(pc, taken);
    }
    assert_eq!(a, b, "no hidden nondeterminism");
}

#[test]
fn facade_runs_tage_end_to_end_and_beats_bimodal_on_history() {
    let b = Inst::new(Opcode::Bne, R0, R1, R0, 5);
    let run = |kind: PredictorKind| {
        let cfg = PredictorConfig {
            kind,
            ..PredictorConfig::paper()
        };
        let mut p = Predictor::new(cfg);
        let pattern = [true, false, false, true, false, true];
        let mut correct = 0;
        for i in 0..3000 {
            let taken = pattern[i % pattern.len()];
            let pred = p.predict(100, &b);
            if pred.taken == Some(taken) {
                correct += 1;
            }
            p.update(100, &b, taken, 5, Some(pred));
        }
        correct
    };
    let tage = run(PredictorKind::Tage);
    let bimodal = run(PredictorKind::Bimodal);
    assert!(
        tage > bimodal + 500,
        "tage {tage} vs bimodal {bimodal} on a period-6 pattern"
    );
}
