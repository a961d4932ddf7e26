//! **Motivation experiment** (the paper's §1 claim, not a numbered
//! figure): "traditional prefetching methods strongly rely on the
//! predictability of memory access patterns and often fail when faced
//! with irregular patterns."
//!
//! Compares three machines on a regular-stride benchmark (matrix) and
//! three irregular ones (mcf, dm, nbh):
//!
//!   1. the baseline superscalar,
//!   2. the baseline + a conventional per-PC stride prefetcher,
//!   3. SPEAR-128 (speculative pre-execution).
//!
//! Expected shape: the stride prefetcher handles matrix's constant
//! column stride as well as (or better than) SPEAR, but does nothing for
//! the pointer-/hash-/gather-driven benchmarks — which is exactly the gap
//! speculative pre-execution exists to fill.
//!
//! Run with `cargo run --release -p spear --example motivation`.

use spear::runner::{compile_workload, run_custom, run_one};
use spear::Machine;
use spear_mem::StrideConfig;
use spear_workloads::by_name;

fn main() {
    println!("================================================================");
    println!("Motivation — stride prefetching vs speculative pre-execution");
    println!("================================================================");
    println!(
        "  {:<10} {:>10} {:>16} {:>12}",
        "benchmark", "baseline", "+stride-prefetch", "SPEAR-128"
    );
    for name in ["matrix", "field", "mcf", "dm", "nbh", "vpr"] {
        let w = by_name(name).expect("workload");
        let (table, _) = compile_workload(&w);
        let base = run_one(&w, &table, Machine::Baseline, None).ipc();
        let stride = {
            let mut cfg = Machine::Baseline.config(None);
            cfg.hier.stride_prefetch = Some(StrideConfig::default());
            run_custom(&w, &table, cfg, Machine::Baseline).ipc()
        };
        let spear = run_one(&w, &table, Machine::Spear128, None).ipc();
        println!(
            "  {:<10} {:>10.4} {:>9.4} ({:+5.1}%) {:>5.4} ({:+5.1}%)",
            name,
            base,
            stride,
            (stride / base - 1.0) * 100.0,
            spear,
            (spear / base - 1.0) * 100.0
        );
    }
    println!(
        "\n  (regular strides: the conventional prefetcher suffices; irregular\n\
         \x20  patterns: only pre-execution, which computes the addresses, helps)"
    );
}
