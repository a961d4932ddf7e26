//! Telemetry-layer tests: the CPI-stack slot invariant, per-d-load
//! prefetch profile partitions, JSON round-tripping of the full stats
//! block, and the JSONL trace sink — all on deterministic hand-built
//! programs.

use spear_cpu::{Core, CoreConfig, CoreStats, RunExit};
use spear_isa::asm::Asm;
use spear_isa::pthread::{PThreadEntry, PThreadTable};
use spear_isa::reg::*;
use spear_isa::{Program, SpearBinary};
use std::io::Write;
use std::sync::{Arc, Mutex};

fn run_core(binary: &SpearBinary, cfg: CoreConfig) -> spear_cpu::RunResult {
    let mut core = Core::new(binary, cfg);
    core.run(50_000_000, u64::MAX).expect("simulation error")
}

/// Pointer chase over a shuffled ring: one guaranteed miss per iteration.
fn pointer_chase(nodes: usize, steps: i64) -> Program {
    let mut a = Asm::new();
    let stride = 97u64;
    let mut bytes = vec![0u8; nodes * 64];
    for i in 0..nodes {
        let next = (((i as u64 + stride) % nodes as u64) * 64) % (nodes as u64 * 64);
        bytes[i * 64..i * 64 + 8].copy_from_slice(&next.to_le_bytes());
    }
    let base = a.alloc_bytes("ring", &bytes);
    a.li(R1, base as i64);
    a.li(R2, steps);
    a.li(R4, base as i64);
    a.label("loop");
    a.ld(R3, R1, 0);
    a.add(R1, R4, R3);
    a.addi(R2, R2, -1);
    a.bne(R2, R0, "loop");
    a.halt();
    a.finish().unwrap()
}

/// Indexed gather with a hand-built p-thread table (same shape as the
/// pipeline tests): the d-load misses on nearly every iteration.
fn gather_spear(x_elems: usize, iters: usize) -> SpearBinary {
    let mut a = Asm::new();
    let idx: Vec<u64> = (0..iters)
        .map(|i| {
            let mut v = i as u64 + 0x9E37;
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            v % x_elems as u64
        })
        .collect();
    let xs: Vec<u64> = (0..x_elems as u64).map(|i| i * 7 + 3).collect();
    let idx_base = a.alloc_u64("idx", &idx);
    let x_base = a.alloc_u64("x", &xs);
    a.li(R1, idx_base as i64);
    a.li(R2, x_base as i64);
    a.li(R3, iters as i64);
    a.li(R4, 0);
    a.li(R8, 3);
    a.label("loop");
    a.ld(R5, R1, 0);
    a.slli(R6, R5, 3);
    a.add(R6, R2, R6);
    a.ld(R7, R6, 0); // THE d-load
    a.add(R4, R4, R7);
    a.mul(R9, R4, R8);
    a.mul(R9, R9, R8);
    a.mul(R9, R9, R8);
    a.mul(R9, R9, R8);
    a.xor(R4, R4, R9);
    a.addi(R1, R1, 8);
    a.addi(R3, R3, -1);
    a.bne(R3, R0, "loop");
    a.halt();
    let program = a.finish().unwrap();
    let loop_pc = *program.labels.get("loop").unwrap();
    let table = PThreadTable {
        entries: vec![PThreadEntry {
            dload_pc: loop_pc + 3,
            members: vec![loop_pc, loop_pc + 1, loop_pc + 2, loop_pc + 3, loop_pc + 10],
            live_ins: vec![R1, R2],
            ..Default::default()
        }],
    };
    let b = SpearBinary { program, table };
    b.validate().expect("hand-built table is consistent");
    b
}

/// The slot invariant that makes the CPI stack trustworthy.
fn assert_slot_invariant(stats: &CoreStats, commit_width: usize) {
    let acct = &stats.cycle_account;
    assert_eq!(
        acct.useful_slots + acct.lost_slots(),
        stats.cycles * commit_width as u64,
        "every commit slot of every cycle must be accounted exactly once"
    );
    assert_eq!(
        acct.useful_slots, stats.committed,
        "useful slots are exactly the committed instructions"
    );
}

#[test]
fn cpi_stack_invariant_holds_on_baseline() {
    let cfg = CoreConfig::baseline();
    let width = cfg.commit_width;
    let res = run_core(&SpearBinary::plain(pointer_chase(4096, 3000)), cfg);
    assert_eq!(res.exit, RunExit::Halted);
    assert_slot_invariant(&res.stats, width);
    // A pointer chase is memory-bound: the d-load-miss bucket must
    // dominate the stack.
    let acct = &res.stats.cycle_account;
    assert!(
        acct.dload_miss > acct.lost_slots() / 2,
        "pointer chase should lose most slots to d-load misses: {acct:?}"
    );
    assert!(acct.branch_recovery > 0 || res.stats.recoveries == 0);
}

#[test]
fn cpi_stack_invariant_holds_under_spear() {
    let b = gather_spear(1 << 16, 4000);
    let cfg = CoreConfig::spear(128);
    let width = cfg.commit_width;
    let res = run_core(&b, cfg);
    assert_eq!(res.exit, RunExit::Halted);
    assert_slot_invariant(&res.stats, width);
    assert!(
        res.stats.cycle_account.dload_miss > 0,
        "the gather still has miss stalls"
    );
}

#[test]
fn spear_recovers_dload_miss_slot_cycles() {
    // The observability tentpole's point: the SPEAR speedup on a
    // memory-bound kernel shows up as a *smaller d-load-miss bucket*,
    // not just a bigger IPC.
    let b = gather_spear(1 << 16, 4000);
    let base = run_core(
        &SpearBinary::plain(b.program.clone()),
        CoreConfig::baseline(),
    );
    let spear = run_core(&b, CoreConfig::spear(128));
    assert!(
        spear.stats.cycle_account.dload_miss < base.stats.cycle_account.dload_miss,
        "pre-execution must shrink the d-load-miss bucket: base {} -> spear {}",
        base.stats.cycle_account.dload_miss,
        spear.stats.cycle_account.dload_miss
    );
}

#[test]
fn dload_profiles_partition_and_match_globals() {
    let b = gather_spear(1 << 16, 4000);
    let res = run_core(&b, CoreConfig::spear(128));
    let profiles = &res.stats.dload_profiles;
    assert_eq!(profiles.len(), 1, "one static d-load in the table");
    let p = &profiles[0];
    assert_eq!(
        p.timely_prefetches + p.late_prefetches + p.useless_prefetches,
        p.pthread_loads,
        "every p-thread load classifies exactly once: {p:?}"
    );
    assert!(p.pthread_loads > 0);
    assert!(p.timely_prefetches > 0, "the gather slice runs ahead");
    assert!(p.demand_misses > 0);
    // Episode tallies reconcile with the global counters.
    assert_eq!(p.episodes_triggered, res.stats.triggers_accepted);
    assert_eq!(p.episodes_completed, res.stats.preexec_completed);
    assert_eq!(
        p.episodes_aborted,
        res.stats.preexec_aborted_flush + res.stats.preexec_aborted_missed
    );
    // The per-profile classification totals also reconcile globally:
    // timely/late match the hierarchy-wide consumed-prefetch counters.
    assert_eq!(p.timely_prefetches, res.stats.useful_prefetches);
    assert_eq!(p.late_prefetches, res.stats.late_prefetches);
}

#[test]
fn core_stats_round_trip_through_json() {
    let b = gather_spear(1 << 15, 2000);
    let res = run_core(&b, CoreConfig::spear(128));
    let json = serde::json::to_string_pretty(&res.stats);
    let back: CoreStats = serde::json::from_str(&json).expect("valid JSON");
    assert_eq!(res.stats, back, "CoreStats must survive a JSON round trip");
}

/// Shared in-memory sink so the test can read what the core streamed.
#[derive(Clone, Default)]
struct Shared(Arc<Mutex<Vec<u8>>>);

impl Write for Shared {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn trace_sink_streams_parseable_jsonl() {
    let b = gather_spear(1 << 15, 1500);
    let mut core = Core::new(&b, CoreConfig::spear(128));
    let sink = Shared::default();
    core.probe_mut().set_sink(Box::new(sink.clone()));
    let res = core.run(50_000_000, u64::MAX).unwrap();
    assert_eq!(res.exit, RunExit::Halted);
    let bytes = sink.0.lock().unwrap().clone();
    let text = String::from_utf8(bytes).expect("utf-8 JSONL");
    let mut commits = 0u64;
    let mut fills = 0u64;
    let mut triggers = 0u64;
    for line in text.lines() {
        let v = serde::json::parse(line).expect("every line is valid JSON");
        let event = v.field("event").expect("tagged");
        match event {
            serde::Value::Str(s) => match s.as_str() {
                "commit" => commits += 1,
                "fill" => fills += 1,
                "trigger" => triggers += 1,
                _ => {}
            },
            other => panic!("event tag must be a string: {other:?}"),
        }
    }
    assert_eq!(
        commits, res.stats.committed,
        "one commit event per committed inst"
    );
    assert!(fills > 0, "cache fills must stream");
    assert_eq!(triggers, res.stats.triggers_accepted);
}

#[test]
fn windows_partition_the_run_exactly() {
    let b = gather_spear(1 << 16, 4000);
    let cfg = CoreConfig::spear(128);
    let width = cfg.commit_width;
    let mut core = Core::new(&b, cfg);
    core.probe_mut().enable_windows(1000);
    let res = core.run(50_000_000, u64::MAX).unwrap();
    assert_eq!(res.exit, RunExit::Halted);
    let windows = &res.stats.windows;
    assert!(windows.len() > 1, "a multi-thousand-cycle run has windows");
    assert_eq!(
        windows.iter().map(|w| w.cycles).sum::<u64>(),
        res.stats.cycles,
        "windows cover every cycle exactly once"
    );
    assert_eq!(
        windows.iter().map(|w| w.committed).sum::<u64>(),
        res.stats.committed,
        "per-window committed counts sum to the global total"
    );
    assert_eq!(
        windows.iter().map(|w| w.l1d_misses).sum::<u64>(),
        res.stats.l1d.read_misses + res.stats.l1d.write_misses,
        "per-window L1D misses sum to the cache totals"
    );
    assert_eq!(
        windows.iter().map(|w| w.triggers_accepted).sum::<u64>(),
        res.stats.triggers_accepted
    );
    for (i, w) in windows.iter().enumerate() {
        assert_eq!(w.index, i as u64, "window indices are contiguous");
        assert_eq!(
            w.cycle_account.total_slots(),
            w.cycles * width as u64,
            "the exact-slot invariant holds per window"
        );
    }
    for pair in windows.windows(2) {
        assert_eq!(
            pair[0].start_cycle + pair[0].cycles,
            pair[1].start_cycle,
            "windows tile the timeline without gaps"
        );
        assert_eq!(pair[0].cycles, 1000, "only the last window may be partial");
    }
    res.stats
        .check_invariants(width)
        .expect("window invariants are part of the standard check");
    // And the windowed stats still round-trip through the envelope.
    let json = serde::json::to_string(&res.stats);
    let back: CoreStats = serde::json::from_str(&json).unwrap();
    assert_eq!(res.stats, back);
}

#[test]
fn window_events_stream_to_the_sink() {
    let b = gather_spear(1 << 15, 1500);
    let mut core = Core::new(&b, CoreConfig::spear(128));
    let sink = Shared::default();
    let probe = core.probe_mut();
    probe.set_sink(Box::new(sink.clone()));
    probe.enable_windows(2000);
    let res = core.run(50_000_000, u64::MAX).unwrap();
    let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
    let mut window_rows = 0usize;
    for line in text.lines() {
        let v = serde::json::parse(line).expect("valid JSON");
        if v.field("event").unwrap() == &serde::Value::Str("window".into()) {
            let idx = match v.field("index").unwrap() {
                serde::Value::U64(n) => *n,
                other => panic!("index must be a u64: {other:?}"),
            };
            assert_eq!(idx, window_rows as u64, "rows stream in window order");
            window_rows += 1;
        }
    }
    assert_eq!(
        window_rows,
        res.stats.windows.len(),
        "every closed window streams exactly one JSONL row"
    );
}

#[test]
fn lifecycle_records_cover_the_run_with_ordered_stamps() {
    let b = gather_spear(1 << 16, 3000);
    let mut core = Core::new(&b, CoreConfig::spear(128));
    core.probe_mut().enable_lifecycle(1_000_000);
    let res = core.run(50_000_000, u64::MAX).unwrap();
    assert_eq!(res.exit, RunExit::Halted);
    let log = core
        .probe()
        .and_then(|p| p.lifecycle.as_ref())
        .expect("lifecycle enabled");
    assert_eq!(log.dropped, 0, "cap not hit at this size");
    let records = &log.records;
    let main_committed = records.iter().filter(|r| r.ctx == 0 && !r.squashed).count() as u64;
    assert_eq!(
        main_committed, res.stats.committed,
        "one record per committed main-thread instruction"
    );
    let squashed = records.iter().filter(|r| r.squashed).count() as u64;
    assert_eq!(squashed, res.stats.squashed, "one record per squash");
    // P-thread entries only leave the RUU through speculative
    // retirement; any still in flight at halt leave no record.
    let pthread = records.iter().filter(|r| r.ctx > 0).count() as u64;
    assert!(pthread > 0, "p-thread retirements are recorded too");
    assert!(pthread <= res.stats.pthread_insts);
    for r in records {
        assert!(r.fetch_cycle <= r.dispatch_cycle, "{r:?}");
        if r.issue_cycle > 0 {
            assert!(r.dispatch_cycle <= r.issue_cycle, "{r:?}");
        }
        if r.complete_cycle > 0 {
            assert!(r.issue_cycle > 0, "completion implies issue: {r:?}");
            assert!(r.issue_cycle < r.complete_cycle, "{r:?}");
            assert!(r.complete_cycle <= r.end_cycle, "{r:?}");
        }
        if !r.squashed {
            assert!(r.complete_cycle > 0, "retirement implies completion: {r:?}");
        }
        if r.ctx > 0 {
            assert!(r.episode > 0, "p-thread records carry an episode id");
        } else {
            assert_eq!(r.episode, 0, "main-context records carry none");
        }
    }
    // Episode ids are monotonically non-decreasing in retirement order
    // and cover every accepted trigger that retired instructions.
    let max_episode = records.iter().map(|r| r.episode).max().unwrap_or(0);
    assert!(max_episode as u64 <= res.stats.triggers_accepted);
    assert!(max_episode > 0, "the gather triggers episodes");
    assert!(!log.samples.is_empty(), "counter samples were collected");
}
