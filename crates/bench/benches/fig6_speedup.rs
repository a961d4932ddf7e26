//! **Figure 6** — normalized main-thread IPC: baseline superscalar vs
//! SPEAR-128 vs SPEAR-256 over all 15 benchmarks.
//!
//! Paper: SPEAR improves 11 of 15 applications; best mcf +87.6%; average
//! +12.7% (128-entry IFQ) and +20.1% (256-entry IFQ); tr/field/fft/gzip
//! see slight degradations (1–6.2%).
//!
//! This bench simulates every program in full; the sampled or SimPoint
//! matrix comes from `spear-sim campaign` (see EXPERIMENTS.md).

use spear::experiments::{compile_all, fig6};
use spear::report;
use spear::Machine;

fn main() {
    let mut workloads = spear_workloads::all();
    if spear_bench::fast_mode() {
        // SPEAR_BENCH_FAST=1: a 4-benchmark smoke subset for CI.
        workloads.retain(|w| ["field", "mcf", "matrix", "fft"].contains(&w.name));
    }
    let m = fig6(&compile_all(&workloads));
    // Machine-readable copy for plotting.
    let (header, rows) = report::ipc_matrix_csv(&m);
    let csv = std::path::Path::new("target/spear-results/fig6.csv");
    if report::write_csv(csv, &header, &rows).is_ok() {
        eprintln!("(csv written to {})", csv.display());
    }
    print!(
        "{}",
        report::header("Figure 6 — normalized IPC (baseline = 1.0)")
    );
    print!("{}", report::ipc_matrix(&m));
    println!();
    let s128 = (m.mean_normalized(m.col(Machine::Spear128)) - 1.0) * 100.0;
    let s256 = (m.mean_normalized(m.col(Machine::Spear256)) - 1.0) * 100.0;
    print!(
        "{}",
        report::summary_line("SPEAR-128 mean speedup", s128, 12.7)
    );
    print!(
        "{}",
        report::summary_line("SPEAR-256 mean speedup", s256, 20.1)
    );
    let best = (0..m.workloads.len())
        .max_by(|&a, &b| m.normalized(a, 2).partial_cmp(&m.normalized(b, 2)).unwrap())
        .unwrap();
    println!(
        "  best case: {} at +{:.1}% (paper: mcf at +87.6%)",
        m.workloads[best],
        (m.normalized(best, 2) - 1.0) * 100.0
    );
}
