//! **Figure 7** — adding the dedicated-functional-unit models
//! (SPEAR.sf-128 / SPEAR.sf-256, the CMP-like configuration).
//!
//! Paper: average +18.9% (sf-128) and +26.3% (sf-256); the longer queue
//! buys ~7.4% and dedicated units ~6.2% on top of either IFQ size.
//!
//! Run from the repository root with
//! `cargo run --release -p spear --example fig7`. The campaign lives in
//! `target/spear-results/fig7/` and is cleared first.

use spear::experiments::fig7;
use spear::report;
use spear::Machine;
use std::path::Path;

fn main() {
    let dir = Path::new("target/spear-results/fig7");
    let _ = std::fs::remove_dir_all(dir);
    let workloads = spear_workloads::all();
    let names: Vec<String> = workloads.iter().map(|w| w.name.to_string()).collect();
    let m = fig7(&names, dir).unwrap_or_else(|e| panic!("fig7 campaign: {e}"));
    let paper = m.columns(0..Machine::ALL.len());
    print!(
        "{}",
        report::header("Figure 7 — normalized IPC with dedicated p-thread FUs")
    );
    print!("{}", report::ipc_matrix(&paper));
    println!();
    for (mach, paper_mean) in [
        (Machine::Spear128, 12.7),
        (Machine::Spear256, 20.1),
        (Machine::SpearSf128, 18.9),
        (Machine::SpearSf256, 26.3),
    ] {
        let v = (paper.mean_normalized(paper.col(mach)) - 1.0) * 100.0;
        print!(
            "{}",
            report::summary_line(&format!("{} mean speedup", mach.name()), v, paper_mean)
        );
    }

    // The same four machines under the paper-literal §3.3 policy (every
    // p-thread instruction has issue priority): columns 5.. of the
    // campaign. This is where the `.sf` models earn their keep: a
    // compute-dense slice under full priority can capture a scarce
    // shared unit, and dedicated units restore it.
    print!(
        "{}",
        report::header("Figure 7 (paper-literal full p-thread priority)")
    );
    let spear_machines = [
        Machine::Spear128,
        Machine::Spear256,
        Machine::SpearSf128,
        Machine::SpearSf256,
    ];
    let first = Machine::ALL.len();
    print!("  {:<10} {:>10}", "benchmark", "base IPC");
    for mach in spear_machines {
        print!(" {:>14}", mach.name());
    }
    println!();
    let mut means = [0.0f64; 4];
    for (wi, w) in workloads.iter().enumerate() {
        let base = m.ipc(wi, 0);
        print!("  {:<10} {:>10.4}", w.name, base);
        for (ci, mean) in means.iter_mut().enumerate() {
            let norm = m.ipc(wi, first + ci) / base;
            *mean += norm;
            print!(" {:>14.4}", norm);
        }
        println!();
    }
    print!("  {:<10} {:>10}", "AVERAGE", "1.0000");
    for mean in means {
        print!(" {:>14.4}", mean / workloads.len() as f64);
    }
    println!();
    println!(
        "
  (under full priority, shared-FU losses like fft's are restored by the
            .sf models — the contention-relief effect Figure 7 demonstrates)"
    );
}
