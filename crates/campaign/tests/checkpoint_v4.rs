//! The checkpoint's trace cursor: how many instructions had retired when
//! the checkpoint was captured — the exact record index a
//! [`spear_cpu::TraceSource`] must resume from when a campaign cell
//! replays a recorded trace instead of executing the program.

use spear_bpred::PredictorConfig;
use spear_campaign::checkpoint::{capture_interval_checkpoints, Checkpoint};
use spear_campaign::record_trace;
use spear_cpu::{Core, CoreConfig, RunExit, TraceSource};
use spear_isa::asm::Asm;
use spear_isa::reg::*;
use spear_isa::{Program, SpearBinary};
use spear_mem::HierConfig;

/// A short reduction loop: enough retired instructions that mid-run
/// checkpoints land at a nonzero trace cursor.
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

/// All warm checkpoints of the loop, boundaries every 10 instructions.
fn checkpoints() -> Vec<Checkpoint> {
    let p = loop_program();
    capture_interval_checkpoints(
        &p,
        "loop",
        HierConfig::paper(),
        PredictorConfig::paper(),
        10,
        1,
        100_000,
    )
    .expect("functional pass")
    .checkpoints
}

#[test]
fn cursor_tracks_the_instruction_index() {
    let cps = checkpoints();
    assert!(cps.len() > 1, "loop spans several intervals");
    for cp in &cps {
        assert_eq!(
            cp.trace_cursor, cp.inst_index,
            "capture pins the cursor to the retired-instruction count"
        );
    }
    // Mid-run checkpoints carry a genuinely nonzero cursor.
    assert!(cps.last().unwrap().trace_cursor > 0);
}

#[test]
fn restored_cursor_seeds_a_trace_replay_that_reaches_halt() {
    // End to end: record the loop's committed path, restore a mid-run
    // checkpoint into a trace-driven core positioned at the checkpoint's
    // cursor, and run to completion. A misaligned cursor would trip the
    // replay-divergence guard instead of halting.
    let binary = SpearBinary::plain(loop_program());
    let tf = record_trace("loop", &binary, 1_000_000).expect("record");
    let cps = checkpoints();
    let cp = &cps[cps.len() / 2];
    assert!(cp.trace_cursor > 0 && (cp.trace_cursor as usize) < tf.recs.len());

    let src = TraceSource::at_cursor(&tf, cp.trace_cursor).expect("cursor in range");
    let mut core = Core::with_source(&binary, CoreConfig::baseline(), Box::new(src));
    cp.restore_into(&mut core).expect("restore");
    let res = core
        .run(1_000_000, u64::MAX)
        .expect("replay from mid-run cursor");
    assert_eq!(
        res.exit,
        RunExit::Halted,
        "replay must reach the recorded halt"
    );

    // A cursor past the end of the recording is rejected up front.
    match TraceSource::at_cursor(&tf, tf.recs.len() as u64 + 1) {
        Ok(_) => panic!("cursor beyond trace end must be rejected"),
        Err(err) => assert!(err.contains("cursor"), "{err}"),
    }
}
