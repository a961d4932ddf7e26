//! Checkpoint/predictor compatibility: a checkpoint carries the warm
//! state of the *specific* predictor that was configured when it was
//! captured. Restoring it into a core configured with a different
//! predictor kind — or the same kind at a different geometry — must fail
//! loudly instead of silently seeding garbage tables, because a campaign
//! resumed with an edited `--bpreds` list would otherwise produce
//! subtly-wrong hit rates with no error anywhere.

use spear_bpred::PredictorConfig;
use spear_campaign::checkpoint::capture_interval_checkpoints;
use spear_cpu::{Core, CoreConfig};
use spear_isa::asm::Asm;
use spear_isa::reg::*;
use spear_isa::{Program, SpearBinary};
use spear_mem::{HierConfig, LatencyConfig};

/// A short reduction loop: enough conditional branches to train warm
/// predictor state during the functional pass.
fn loop_program() -> Program {
    let mut a = Asm::new();
    let xs = a.alloc_u64("xs", &[3, 1, 4, 1, 5, 9, 2, 6]);
    a.li(R1, xs as i64);
    a.li(R3, 8);
    a.li(R5, 0);
    a.label("sum");
    a.ld(R4, R1, 0);
    a.add(R5, R5, R4);
    a.addi(R1, R1, 8);
    a.addi(R3, R3, -1);
    a.bne(R3, R0, "sum");
    a.halt();
    a.finish().unwrap()
}

/// Warm checkpoints of the loop captured under `bpred`.
fn checkpoint_with(bpred: PredictorConfig) -> spear_campaign::checkpoint::Checkpoint {
    let p = loop_program();
    let set = capture_interval_checkpoints(&p, "loop", HierConfig::paper(), bpred, 10, 1, 100_000)
        .expect("functional pass");
    set.checkpoints
        .last()
        .expect("checkpoints captured")
        .clone()
}

/// A fresh cycle core over the same program, configured with `bpred`.
fn core_with(binary: &SpearBinary, bpred: PredictorConfig) -> Core<'_> {
    let mut cfg = CoreConfig::baseline();
    cfg.bpred = bpred;
    Core::new(binary, cfg)
}

#[test]
fn matching_predictor_restores_cleanly() {
    let cp = checkpoint_with(PredictorConfig::paper());
    let binary = SpearBinary::plain(loop_program());
    let mut core = core_with(&binary, PredictorConfig::paper());
    cp.restore_into(&mut core)
        .expect("matching kind + geometry");
}

#[test]
fn kind_mismatch_is_rejected_loudly() {
    // Warm bimodal state must never seed a TAGE predictor (and vice
    // versa) — the error must name both kinds so the operator can see
    // which side is stale.
    let bimodal = PredictorConfig::paper();
    let tage = PredictorConfig::paper().with_spec("tage").unwrap();
    let binary = SpearBinary::plain(loop_program());

    let cp = checkpoint_with(bimodal);
    let mut core = core_with(&binary, tage);
    let err = cp.restore_into(&mut core).expect_err("bimodal -> tage");
    assert!(
        err.contains("predictor restore"),
        "error must come from the predictor layer: {err}"
    );
    assert!(
        err.contains("bimodal") && err.contains("tage"),
        "error must name both kinds: {err}"
    );

    let cp = checkpoint_with(tage);
    let mut core = core_with(&binary, bimodal);
    let err = cp.restore_into(&mut core).expect_err("tage -> bimodal");
    assert!(
        err.contains("bimodal") && err.contains("tage"),
        "error must name both kinds: {err}"
    );
}

#[test]
fn geometry_mismatch_within_a_kind_is_rejected_loudly() {
    // Same kind, different table sizing: a 1024-entry bimodal snapshot
    // must not restore into the paper's 2048-entry table.
    let small = PredictorConfig {
        table_size: 1024,
        ..PredictorConfig::paper()
    };
    let cp = checkpoint_with(small);
    let binary = SpearBinary::plain(loop_program());
    let mut core = core_with(&binary, PredictorConfig::paper());
    let err = cp
        .restore_into(&mut core)
        .expect_err("1024 -> 2048 bimodal");
    assert!(
        err.contains("predictor restore"),
        "error must come from the predictor layer: {err}"
    );
    assert!(
        err.contains("1024") && err.contains("2048"),
        "error must name both sizes: {err}"
    );
}

#[test]
fn tage_geometry_mismatch_is_rejected_loudly() {
    // Same TAGE kind, different tagged-table count.
    let fat = PredictorConfig::paper()
        .with_spec("tage:tables=6,bits=10,tag=8,hmin=4,hmax=64,decay=262144")
        .unwrap();
    let default = PredictorConfig::paper().with_spec("tage").unwrap();
    let cp = checkpoint_with(fat);
    let binary = SpearBinary::plain(loop_program());
    let mut core = core_with(&binary, default);
    let err = cp.restore_into(&mut core).expect_err("6-table -> 4-table");
    assert!(
        err.contains("tagged tables"),
        "error must point at the table-count mismatch: {err}"
    );
}

#[test]
fn one_checkpoint_seeds_every_latency_point_without_touching_latency() {
    // One warm shard serves every Figure 9 latency point, so restore
    // copies the warm caches and leaves the core's own latencies alone.
    let cp = checkpoint_with(PredictorConfig::paper());
    let binary = SpearBinary::plain(loop_program());
    let warm_lines = cp.l1d.valid_block_addrs();
    assert!(!warm_lines.is_empty(), "the loop warmed the L1D");
    for memory in [40, 200] {
        let mut cfg = CoreConfig::baseline();
        cfg.hier.latency = LatencyConfig::sweep_point(memory);
        let mut core = Core::new(&binary, cfg);
        cp.restore_into(&mut core).expect("same substrate");
        let hier = core.hierarchy();
        assert_eq!(hier.latency.memory, memory, "the core keeps its latency");
        assert_eq!(hier.l1d.valid_block_addrs(), warm_lines, "warm caches");
    }
}
