//! **Figure 7** — adding the dedicated-functional-unit models
//! (SPEAR.sf-128 / SPEAR.sf-256, the CMP-like configuration).
//!
//! Paper: average +18.9% (sf-128) and +26.3% (sf-256); the longer queue
//! buys ~7.4% and dedicated units ~6.2% on top of either IFQ size.

use spear::experiments::{compile_all, fig7};
use spear::parallel_map;
use spear::report;
use spear::runner::run_custom;
use spear::Machine;

fn main() {
    let mut workloads = spear_workloads::all();
    if spear_bench::fast_mode() {
        // SPEAR_BENCH_FAST=1: a 4-benchmark smoke subset for CI.
        workloads.retain(|w| ["field", "mcf", "matrix", "fft"].contains(&w.name));
    }
    let compiled = compile_all(&workloads);
    let m = fig7(&compiled);
    print!(
        "{}",
        report::header("Figure 7 — normalized IPC with dedicated p-thread FUs")
    );
    print!("{}", report::ipc_matrix(&m));
    println!();
    for (mach, paper) in [
        (Machine::Spear128, 12.7),
        (Machine::Spear256, 20.1),
        (Machine::SpearSf128, 18.9),
        (Machine::SpearSf256, 26.3),
    ] {
        let v = (m.mean_normalized(m.col(mach)) - 1.0) * 100.0;
        print!(
            "{}",
            report::summary_line(&format!("{} mean speedup", mach.name()), v, paper)
        );
    }

    // The same four machines under the paper-literal §3.3 policy (every
    // p-thread instruction has issue priority). This is where the `.sf`
    // models earn their keep: a compute-dense slice under full priority
    // can capture a scarce shared unit, and dedicated units restore it.
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
    let jobs: Vec<(usize, usize)> = (0..workloads.len())
        .flat_map(|w| (0..spear_machines.len()).map(move |c| (w, c)))
        .collect();
    let flat = parallel_map(&jobs, 0, |&(wi, ci)| {
        let mut cfg = spear_machines[ci].config(None);
        cfg.spear.as_mut().unwrap().full_priority = true;
        run_custom(
            &compiled.workloads[wi],
            &compiled.tables[wi],
            cfg,
            spear_machines[ci],
        )
        .ipc()
    });
    print!("  {:<10} {:>10}", "benchmark", "base IPC");
    for mach in spear_machines {
        print!(" {:>14}", mach.name());
    }
    println!();
    let mut means = [0.0f64; 4];
    for (wi, w) in workloads.iter().enumerate() {
        let base = m.ipc(wi, 0);
        print!("  {:<10} {:>10.4}", w.name, base);
        for ci in 0..4 {
            let norm = flat[wi * 4 + ci] / base;
            means[ci] += norm;
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
