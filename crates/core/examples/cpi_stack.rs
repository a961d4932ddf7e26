//! **CPI-stack decomposition** (no paper counterpart — observability):
//! for each benchmark, where do the baseline's commit slots go, and
//! which buckets does SPEAR-128 recover? The paper's central claim —
//! speedup comes from hidden memory latency, not extra bandwidth — is
//! directly visible as the `d-load miss` bucket shrinking while
//! `p-thread contention` stays small.
//!
//! Run with `cargo run --release -p spear --example cpi_stack`.

use spear::runner::{compile_workload, run_one};
use spear::{report, Machine};
use spear_workloads::all;

fn main() {
    println!("================================================================");
    println!("CPI stacks — baseline vs SPEAR-128, per benchmark");
    println!("================================================================");
    let width = Machine::Baseline.config(None).commit_width;
    for w in all() {
        let (table, _) = compile_workload(&w);
        let base = run_one(&w, &table, Machine::Baseline, None);
        let spear = run_one(&w, &table, Machine::Spear128, None);
        println!(
            "\n{} — IPC {:.4} -> {:.4} ({:+.1}%)",
            w.name,
            base.ipc(),
            spear.ipc(),
            (spear.ipc() / base.ipc() - 1.0) * 100.0
        );
        println!(" baseline:");
        print!("{}", report::cpi_stack(&base.stats, width));
        println!(" SPEAR-128:");
        print!("{}", report::cpi_stack(&spear.stats, width));
        if !spear.stats.dload_profiles.is_empty() {
            println!(" d-load prefetch profiles (SPEAR-128):");
            print!("{}", report::dload_profiles(&spear.stats));
        }
    }
}
