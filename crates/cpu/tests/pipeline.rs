//! Pipeline-level tests: architectural equivalence with the golden model,
//! baseline timing sanity, and SPEAR episode mechanics on hand-built
//! programs and p-thread tables.

use spear_compiler::{CompilerConfig, SpearCompiler};
use spear_cpu::{Core, CoreConfig, RunExit};
use spear_exec::Interp;
use spear_isa::asm::Asm;
use spear_isa::pthread::{PThreadEntry, PThreadTable};
use spear_isa::reg::*;
use spear_isa::{Program, SpearBinary};

fn run_core(binary: &SpearBinary, cfg: CoreConfig) -> spear_cpu::RunResult {
    let mut core = Core::new(binary, cfg);
    core.run(50_000_000, u64::MAX).expect("simulation error")
}

fn assert_equivalent(program: &Program, cfg: CoreConfig) -> spear_cpu::RunResult {
    let binary = SpearBinary::plain(program.clone());
    let mut core = Core::new(&binary, cfg);
    let res = core.run(50_000_000, u64::MAX).expect("simulation error");
    assert_eq!(res.exit, RunExit::Halted);

    let mut golden = Interp::new(program);
    golden.run(u64::MAX).expect("golden run");
    assert_eq!(
        res.stats.committed, golden.icount,
        "committed instruction count must match the golden model"
    );
    assert_eq!(
        core.state_checksum(),
        golden.state_checksum(),
        "architectural state must match the golden model"
    );
    res
}

/// Straight-line arithmetic, no branches.
fn straightline() -> Program {
    let mut a = Asm::new();
    a.alloc_u64("pad", &[0; 16]);
    a.li(R1, 10);
    a.li(R2, 32);
    a.add(R3, R1, R2);
    a.mul(R4, R3, R3);
    a.sub(R5, R4, R1);
    a.div(R6, R4, R2);
    a.li(R7, 0);
    a.sd(R6, R7, 0);
    a.halt();
    a.finish().unwrap()
}

/// A counted loop with independent memory traffic (well-predicted,
/// cache-friendly, plenty of ILP).
fn counted_loop(n: i64) -> Program {
    let mut a = Asm::new();
    let xs: Vec<u64> = (0..n as u64).map(|i| i * 3 + 1).collect();
    let src = a.alloc_u64("src", &xs);
    let dst = a.reserve("dst", (n as u64) * 8 + 8);
    a.li(R1, src as i64);
    a.li(R6, dst as i64);
    a.li(R2, 0); // i
    a.li(R3, n); // n
    a.li(R4, 0); // acc
    a.label("loop");
    a.ld(R5, R1, 0);
    a.add(R4, R4, R5);
    a.xor(R7, R5, R2);
    a.sd(R7, R6, 0);
    a.addi(R1, R1, 8);
    a.addi(R6, R6, 8);
    a.addi(R2, R2, 1);
    a.blt(R2, R3, "loop");
    a.halt();
    a.finish().unwrap()
}

/// A data-dependent branch pattern (mispredictions guaranteed).
fn noisy_branches() -> Program {
    let mut a = Asm::new();
    // xorshift-ish PRNG drives an unpredictable branch.
    a.li(R1, 0x9E3779B9);
    a.li(R2, 0); // even counter
    a.li(R3, 0); // odd counter
    a.li(R4, 200); // iterations
    a.label("loop");
    // r1 = r1 ^ (r1 << 13); r1 = r1 ^ (r1 >> 7)
    a.slli(R5, R1, 13);
    a.xor(R1, R1, R5);
    a.srli(R5, R1, 7);
    a.xor(R1, R1, R5);
    a.andi(R6, R1, 1);
    a.beq(R6, R0, "even");
    a.addi(R3, R3, 1);
    a.j("join");
    a.label("even");
    a.addi(R2, R2, 1);
    a.label("join");
    a.addi(R4, R4, -1);
    a.bne(R4, R0, "loop");
    a.halt();
    a.finish().unwrap()
}

/// Calls and returns through the RAS.
fn call_ret() -> Program {
    let mut a = Asm::new();
    a.li(R10, 0);
    a.li(R4, 50);
    a.label("loop");
    a.jal(R31, "fn");
    a.addi(R4, R4, -1);
    a.bne(R4, R0, "loop");
    a.halt();
    a.label("fn");
    a.addi(R10, R10, 7);
    a.jr(R31);
    a.finish().unwrap()
}

/// FP kernel (dot product).
fn fp_kernel() -> Program {
    let mut a = Asm::new();
    let n = 64usize;
    let xs: Vec<f64> = (0..n).map(|i| i as f64 * 0.5).collect();
    let ys: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let xa = a.alloc_f64("xs", &xs);
    let ya = a.alloc_f64("ys", &ys);
    let out = a.reserve("out", 8);
    a.li(R1, xa as i64);
    a.li(R2, ya as i64);
    a.li(R3, n as i64);
    a.fcvt_d_l(F1, R0); // acc = 0.0
    a.label("loop");
    a.fld(F2, R1, 0);
    a.fld(F3, R2, 0);
    a.fmul(F4, F2, F3);
    a.fadd(F1, F1, F4);
    a.addi(R1, R1, 8);
    a.addi(R2, R2, 8);
    a.addi(R3, R3, -1);
    a.bne(R3, R0, "loop");
    a.li(R4, out as i64);
    a.fsd(F1, R4, 0);
    a.halt();
    a.finish().unwrap()
}

/// Pointer chase over a large shuffled ring: guaranteed cache misses in a
/// single delinquent load, with a tiny backward slice — the SPEAR sweet
/// spot.
fn pointer_chase(nodes: usize, steps: i64) -> Program {
    let mut a = Asm::new();
    // node i holds the byte address of the next node, stride-permuted so
    // consecutive accesses land in different cache sets and exceed L1/L2.
    let mut next = vec![0u64; nodes];
    // A fixed odd stride coprime with `nodes` forms a single cycle.
    let stride = 97;
    assert_eq!(num_gcd(stride, nodes as u64), 1);
    for (i, n) in next.iter_mut().enumerate() {
        *n = (((i as u64 + stride) % nodes as u64) * 64) % (nodes as u64 * 64);
    }
    // Lay out nodes 64 bytes apart (one per L2 block).
    let mut bytes = vec![0u8; nodes * 64];
    for (i, &n) in next.iter().enumerate() {
        bytes[i * 64..i * 64 + 8].copy_from_slice(&n.to_le_bytes());
    }
    let base = a.alloc_bytes("ring", &bytes);
    a.li(R1, base as i64); // cursor
    a.li(R2, steps);
    a.li(R4, base as i64);
    a.label("loop");
    a.ld(R3, R1, 0); // the delinquent load: next pointer
    a.add(R1, R4, R3); // absolute address of next node
    a.addi(R2, R2, -1);
    a.bne(R2, R0, "loop");
    a.halt();
    a.finish().unwrap()
}

fn num_gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        num_gcd(b, a % b)
    }
}

/// Indexed gather with a compute body: `acc += x[idx[i]]` plus a chained
/// multiply tail. The gather load misses on nearly every iteration while
/// its backward slice (index load + address arithmetic) is tiny and
/// iteration-independent — the paper's delinquent-load pattern.
fn indexed_gather(x_elems: usize, iters: usize) -> Program {
    let mut a = Asm::new();
    // Pseudo-random indices spread over the (cache-exceeding) x array.
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
    a.li(R1, idx_base as i64); // index cursor
    a.li(R2, x_base as i64); // x base
    a.li(R3, iters as i64); // remaining
    a.li(R4, 0); // acc
    a.li(R8, 3); // multiplier for the compute body
    a.label("loop");
    a.ld(R5, R1, 0); // slice: index (sequential, hits)
    a.slli(R6, R5, 3); // slice: byte offset
    a.add(R6, R2, R6); // slice: address
    a.ld(R7, R6, 0); // slice: THE d-load (random, misses)
    a.add(R4, R4, R7);
    // Compute body: a dependent multiply chain the main thread must chew
    // through each iteration (the p-thread skips all of this).
    a.mul(R9, R4, R8);
    a.mul(R9, R9, R8);
    a.mul(R9, R9, R8);
    a.mul(R9, R9, R8);
    a.xor(R4, R4, R9);
    a.addi(R1, R1, 8);
    a.addi(R3, R3, -1);
    a.bne(R3, R0, "loop");
    a.halt();
    a.finish().unwrap()
}

/// The SPEAR binary for [`indexed_gather`]: slice = {index load, shift,
/// add, d-load, index-cursor increment}; live-ins = index cursor and x
/// base. The cursor increment must be in the slice — without it every
/// extracted instance would recompute the same address.
fn gather_spear(x_elems: usize, iters: usize) -> SpearBinary {
    let program = indexed_gather(x_elems, iters);
    let loop_pc = *program.labels.get("loop").unwrap();
    let addi_pc = loop_pc + 10; // addi r1, r1, 8
    let table = PThreadTable {
        entries: vec![PThreadEntry {
            dload_pc: loop_pc + 3,
            members: vec![loop_pc, loop_pc + 1, loop_pc + 2, loop_pc + 3, addi_pc],
            live_ins: vec![R1, R2],
            ..Default::default()
        }],
    };
    let b = SpearBinary { program, table };
    b.validate().expect("hand-built table is consistent");
    b
}

// ====================================================================
// Differential equivalence
// ====================================================================

#[test]
fn straightline_matches_golden() {
    assert_equivalent(&straightline(), CoreConfig::baseline());
}

#[test]
fn counted_loop_matches_golden() {
    assert_equivalent(&counted_loop(500), CoreConfig::baseline());
}

#[test]
fn noisy_branches_match_golden() {
    let res = assert_equivalent(&noisy_branches(), CoreConfig::baseline());
    assert!(
        res.stats.recoveries > 10,
        "mispredictions must occur: {}",
        res.stats.recoveries
    );
    assert!(res.stats.squashed > 0, "wrong-path work must be squashed");
}

#[test]
fn call_ret_matches_golden() {
    assert_equivalent(&call_ret(), CoreConfig::baseline());
}

#[test]
fn fp_kernel_matches_golden() {
    assert_equivalent(&fp_kernel(), CoreConfig::baseline());
}

#[test]
fn pointer_chase_matches_golden() {
    assert_equivalent(&pointer_chase(4096, 3000), CoreConfig::baseline());
}

// ====================================================================
// Baseline timing sanity
// ====================================================================

#[test]
fn superscalar_extracts_ilp_from_alu_loop() {
    // Six independent addis + induction + branch: 8 IntAlu-class ops per
    // iteration over 4 ALUs bounds the machine at IPC 4; it should land
    // well above scalar.
    let mut a = Asm::new();
    a.li(R2, 0);
    a.li(R3, 2000);
    a.label("loop");
    a.addi(R5, R2, 1);
    a.addi(R6, R2, 2);
    a.addi(R7, R2, 3);
    a.addi(R8, R2, 4);
    a.addi(R9, R2, 5);
    a.addi(R10, R2, 6);
    a.addi(R2, R2, 1);
    a.blt(R2, R3, "loop");
    a.halt();
    let p = a.finish().unwrap();
    let res = run_core(&SpearBinary::plain(p), CoreConfig::baseline());
    assert!(
        res.stats.ipc() > 2.5,
        "8-wide machine should exceed IPC 2.5 on independent ALU code, got {:.2}",
        res.stats.ipc()
    );
}

#[test]
fn cache_misses_hurt_ipc() {
    let hot = counted_loop(2000); // sequential, cache friendly
    let cold = pointer_chase(8192, 2000); // one miss per iteration
    let hot_ipc = run_core(&SpearBinary::plain(hot), CoreConfig::baseline())
        .stats
        .ipc();
    let cold_ipc = run_core(&SpearBinary::plain(cold), CoreConfig::baseline())
        .stats
        .ipc();
    assert!(
        cold_ipc < hot_ipc / 2.0,
        "pointer chase ({cold_ipc:.3}) should be much slower than streaming ({hot_ipc:.3})"
    );
}

#[test]
fn longer_memory_latency_reduces_ipc() {
    let p = pointer_chase(8192, 2000);
    let b = SpearBinary::plain(p);
    let short = {
        let mut cfg = CoreConfig::baseline();
        cfg.hier.latency = spear_mem::LatencyConfig::sweep_point(40);
        run_core(&b, cfg).stats.ipc()
    };
    let long = {
        let mut cfg = CoreConfig::baseline();
        cfg.hier.latency = spear_mem::LatencyConfig::sweep_point(200);
        run_core(&b, cfg).stats.ipc()
    };
    assert!(
        long < short,
        "IPC at 200-cycle memory ({long:.3}) must be below 40-cycle ({short:.3})"
    );
}

#[test]
fn branch_predictor_learns_loop() {
    let p = counted_loop(2000);
    let res = run_core(&SpearBinary::plain(p), CoreConfig::baseline());
    assert!(
        res.stats.branch_hit_ratio() > 0.99,
        "backward loop branch should be nearly perfect, got {:.4}",
        res.stats.branch_hit_ratio()
    );
}

// ====================================================================
// SPEAR mechanics
// ====================================================================

#[test]
fn spear_triggers_and_completes_episodes() {
    let b = gather_spear(1 << 16, 4000);
    let res = run_core(&b, CoreConfig::spear(128));
    assert!(
        res.stats.triggers_accepted > 0,
        "d-load detection must trigger"
    );
    assert!(
        res.stats.preexec_completed > 0,
        "episodes must run to d-load retirement: {:?}",
        (
            res.stats.triggers_accepted,
            res.stats.preexec_aborted_flush,
            res.stats.preexec_aborted_missed
        )
    );
    assert!(res.stats.pthread_insts > 0);
    assert!(res.stats.pthread_loads > 0, "prefetches must be issued");
}

#[test]
fn spear_preserves_architectural_state() {
    let b = gather_spear(1 << 15, 3000);
    let mut core = Core::new(&b, CoreConfig::spear(128));
    let res = core.run(50_000_000, u64::MAX).unwrap();
    assert_eq!(res.exit, RunExit::Halted);
    let mut golden = Interp::new(&b.program);
    golden.run(u64::MAX).unwrap();
    assert_eq!(res.stats.committed, golden.icount);
    assert_eq!(
        core.state_checksum(),
        golden.state_checksum(),
        "p-thread must never change the semantic state"
    );
}

#[test]
fn spear_speeds_up_gather() {
    let b = gather_spear(1 << 16, 4000);
    let base = {
        let plain = SpearBinary::plain(b.program.clone());
        run_core(&plain, CoreConfig::baseline())
    };
    let spear = run_core(&b, CoreConfig::spear(128));
    assert!(
        spear.stats.ipc() > base.stats.ipc(),
        "SPEAR ({:.4}) must beat baseline ({:.4}) on the gather",
        spear.stats.ipc(),
        base.stats.ipc()
    );
}

#[test]
fn spear_reduces_main_thread_misses() {
    let b = gather_spear(1 << 16, 4000);
    let base = {
        let plain = SpearBinary::plain(b.program.clone());
        run_core(&plain, CoreConfig::baseline())
    };
    let spear = run_core(&b, CoreConfig::spear(128));
    assert!(
        spear.stats.l1d_main_misses < base.stats.l1d_main_misses,
        "SPEAR main-thread misses ({}) must be below baseline ({})",
        spear.stats.l1d_main_misses,
        base.stats.l1d_main_misses
    );
}

#[test]
fn separate_fu_model_also_works() {
    let b = gather_spear(1 << 15, 2000);
    let res = run_core(&b, CoreConfig::spear_sf(128));
    assert!(res.stats.preexec_completed > 0);
    let mut golden = Interp::new(&b.program);
    golden.run(u64::MAX).unwrap();
    assert_eq!(res.stats.committed, golden.icount);
}

#[test]
fn idle_spear_front_end_is_the_baseline_cycle_for_cycle() {
    // With an empty p-thread table the SPEAR front end and the p-thread
    // context have nothing to do, so SPEAR and SPEAR.sf must time exactly
    // as the baseline running the compiled binary (whose table it
    // ignores): every counter, not only cycles.
    let mut ccfg = CompilerConfig::default();
    ccfg.slicer.dload_min_misses = 4;
    ccfg.slicer.dload_miss_fraction = 0.0;
    let (chase, _) = SpearCompiler::new(ccfg)
        .compile(&pointer_chase(4096, 2000))
        .expect("compile");
    for (input, b) in [("gather", gather_spear(1 << 15, 3000)), ("chase", chase)] {
        assert!(!b.table.entries.is_empty(), "{input}: table to ignore");
        let base = run_core(&b, CoreConfig::baseline());
        let plain = SpearBinary::plain(b.program.clone());
        for cfg in [CoreConfig::spear(128), CoreConfig::spear_sf(128)] {
            let name = cfg.model_name();
            let res = run_core(&plain, cfg);
            assert_eq!(res.exit, base.exit, "{input} {name}");
            assert_eq!(res.stats, base.stats, "{input} {name}");
        }
    }
}

#[test]
fn determinism_same_seed_same_cycles() {
    let b = gather_spear(1 << 15, 2000);
    let r1 = run_core(&b, CoreConfig::spear(256));
    let r2 = run_core(&b, CoreConfig::spear(256));
    assert_eq!(r1.stats.cycles, r2.stats.cycles);
    assert_eq!(r1.stats.l1d_main_misses, r2.stats.l1d_main_misses);
    assert_eq!(r1.stats.triggers_accepted, r2.stats.triggers_accepted);
}

/// An FP-dense kernel whose slice covers nearly the whole body — the
/// fft-like contention case.
fn fp_dense_gather(iters: i64) -> SpearBinary {
    let mut a = Asm::new();
    let xs: Vec<f64> = (0..(1 << 15)).map(|i| i as f64 * 0.01).collect();
    let xb = a.alloc_f64("x", &xs);
    a.li(R1, xb as i64);
    a.li(R3, iters);
    a.li(R5, 1);
    a.fcvt_d_l(F1, R0);
    a.label("loop");
    // Address chain (slice) mixed with an FP chain the main thread needs.
    a.muli(R5, R5, 6364136223846793005);
    a.srli(R6, R5, 17);
    a.andi(R6, R6, (1 << 15) - 1);
    a.slli(R6, R6, 3);
    a.add(R6, R1, R6);
    a.fld(F2, R6, 0); // d-load
    a.fmul(F3, F2, F2);
    a.fmul(F3, F3, F2);
    a.fadd(F1, F1, F3);
    a.addi(R3, R3, -1);
    a.bne(R3, R0, "loop");
    a.halt();
    let program = a.finish().unwrap();
    let loop_pc = *program.labels.get("loop").unwrap();
    // Slice = everything except the final fadd/loop control: the
    // compute-dense pathological case.
    let members: Vec<u32> = (loop_pc..loop_pc + 9).collect();
    let table = PThreadTable {
        entries: vec![PThreadEntry {
            dload_pc: loop_pc + 5,
            members,
            live_ins: vec![R1, R5],
            ..Default::default()
        }],
    };
    let b = SpearBinary { program, table };
    b.validate().unwrap();
    b
}

#[test]
fn full_priority_hurts_compute_dense_slices_and_sf_restores() {
    let b = fp_dense_gather(4000);
    let base = run_core(
        &SpearBinary::plain(b.program.clone()),
        CoreConfig::baseline(),
    )
    .stats
    .ipc();
    let mut full = CoreConfig::spear(128);
    full.spear.as_mut().unwrap().full_priority = true;
    let shared = run_core(&b, full.clone()).stats.ipc();
    let mut full_sf = CoreConfig::spear_sf(128);
    full_sf.spear.as_mut().unwrap().full_priority = true;
    let sf = run_core(&b, full_sf).stats.ipc();
    assert!(
        sf > shared,
        "dedicated FUs must relieve full-priority contention: shared {shared:.4}, sf {sf:.4}"
    );
    assert!(
        sf >= base * 0.95,
        "with its own units the p-thread must not hurt the main thread: base {base:.4}, sf {sf:.4}"
    );
}

#[test]
fn episode_histograms_populate() {
    let b = gather_spear(1 << 15, 3000);
    let res = run_core(&b, CoreConfig::spear(128));
    let episodes = res.stats.preexec_completed
        + res.stats.preexec_aborted_flush
        + res.stats.preexec_aborted_missed;
    assert_eq!(res.stats.episode_cycles.count(), episodes);
    assert_eq!(res.stats.episode_extractions.count(), episodes);
    assert!(res.stats.episode_extractions.mean() > 1.0);
    assert!(res.stats.episode_cycles.max() >= res.stats.episode_cycles.percentile_bound(0.5));
}

#[test]
fn prefetch_effectiveness_counters_consistent() {
    let b = gather_spear(1 << 16, 4000);
    let res = run_core(&b, CoreConfig::spear(256));
    let consumed = res.stats.useful_prefetches + res.stats.late_prefetches;
    assert!(consumed > 0, "some prefetches must be consumed");
    assert!(
        consumed <= res.stats.pthread_loads,
        "cannot consume more prefetches than were issued"
    );
}

#[test]
fn stride_prefetcher_accelerates_sequential_baseline() {
    // A long strided walk: the conventional prefetcher alone should gain.
    let mut a = Asm::new();
    let buf = a.reserve("buf", 1 << 22);
    a.li(R1, buf as i64);
    a.li(R2, 30_000);
    a.label("loop");
    a.ld(R3, R1, 0);
    a.add(R4, R4, R3);
    a.addi(R1, R1, 128);
    a.addi(R2, R2, -1);
    a.bne(R2, R0, "loop");
    a.halt();
    let b = SpearBinary::plain(a.finish().unwrap());
    let base = run_core(&b, CoreConfig::baseline()).stats.ipc();
    let mut cfg = CoreConfig::baseline();
    // A deep prefetch degree so fills land well ahead of the demand
    // stream (the default degree of 2 only shaves partial latency).
    cfg.hier.stride_prefetch = Some(spear_mem::StrideConfig {
        degree: 8,
        ..Default::default()
    });
    let pf = run_core(&b, cfg).stats.ipc();
    assert!(
        pf > base * 1.05,
        "stride prefetching must help a constant stride: {base:.4} -> {pf:.4}"
    );
}

#[test]
fn impossible_occupancy_threshold_rejects_all_triggers() {
    let b = gather_spear(1 << 15, 2000);
    let mut cfg = CoreConfig::spear(128);
    cfg.spear.as_mut().unwrap().trigger_fraction = 1.5; // > full queue
    let res = run_core(&b, cfg);
    assert_eq!(res.stats.triggers_accepted, 0);
    assert!(res.stats.triggers_rejected_occupancy > 0);
    assert_eq!(res.stats.pthread_insts, 0, "no episodes ever start");
}

#[test]
fn zero_livein_wait_limit_still_works() {
    // With no wait at all, the copy falls back to the freshest completed
    // values immediately — episodes must still run and stay correct.
    let b = gather_spear(1 << 15, 2000);
    let mut cfg = CoreConfig::spear(128);
    cfg.spear.as_mut().unwrap().livein_wait_limit = 0;
    let mut core = Core::new(&b, cfg);
    let res = core.run(50_000_000, u64::MAX).unwrap();
    assert!(res.stats.preexec_completed > 0);
    let mut golden = Interp::new(&b.program);
    golden.run(u64::MAX).unwrap();
    assert_eq!(core.state_checksum(), golden.state_checksum());
}

#[test]
fn pe_bandwidth_one_still_completes_episodes() {
    let b = gather_spear(1 << 15, 2000);
    let mut cfg = CoreConfig::spear(128);
    cfg.spear.as_mut().unwrap().pe_bandwidth = 1;
    let res = run_core(&b, cfg);
    assert!(
        res.stats.preexec_completed + res.stats.preexec_aborted_missed > 0,
        "episodes must at least be attempted"
    );
}

#[test]
fn trace_records_full_episode_lifecycle() {
    let b = gather_spear(1 << 15, 2000);
    let mut core = Core::new(&b, CoreConfig::spear(128));
    core.probe_mut().enable_ring(100_000);
    core.run(50_000_000, u64::MAX).unwrap();
    let ring = core.probe().and_then(|p| p.ring.as_ref()).unwrap();
    use spear_cpu::Event;
    let mut kinds = [0u64; 4];
    for e in ring.events() {
        match e {
            Event::Trigger { .. } => kinds[0] += 1,
            Event::LiveInsCopied { .. } => kinds[1] += 1,
            Event::Extract { .. } => kinds[2] += 1,
            Event::EpisodeComplete { .. } => kinds[3] += 1,
            _ => {}
        }
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "all lifecycle stages traced: {kinds:?}"
    );
    assert!(kinds[2] >= kinds[3], "extractions >= completions");
}

#[test]
fn cycle_budget_exit() {
    let p = counted_loop(100_000);
    let b = SpearBinary::plain(p);
    let mut core = Core::new(&b, CoreConfig::baseline());
    let res = core.run(1_000, u64::MAX).unwrap();
    assert_eq!(res.exit, RunExit::CycleBudget);
    assert_eq!(res.stats.cycles, 1_000);
}

#[test]
fn inst_budget_exit() {
    let p = counted_loop(100_000);
    let b = SpearBinary::plain(p);
    let mut core = Core::new(&b, CoreConfig::baseline());
    let res = core.run(u64::MAX, 5_000).unwrap();
    assert_eq!(res.exit, RunExit::InstBudget);
    assert!(res.stats.committed >= 5_000);
}
