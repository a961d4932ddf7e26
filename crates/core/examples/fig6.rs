//! **Figure 6**, **Table 3** and **Figure 8** from one whole-program
//! campaign: all 15 benchmarks on the baseline superscalar, SPEAR-128
//! and SPEAR-256.
//!
//! - Figure 6, normalized main-thread IPC. Paper: SPEAR improves 11 of
//!   15 applications; best mcf +87.6%; average +12.7% (128-entry IFQ)
//!   and +20.1% (256-entry IFQ); tr/field/fft/gzip see slight
//!   degradations (1–6.2%).
//! - Table 3, the longer IFQ: SPEAR-256 over SPEAR-128 per benchmark,
//!   against the branch hit ratio and instructions-per-branch. Paper:
//!   matrix gains the most (1.45, hit ratio 0.9942); update and tr lose
//!   slightly (0.94 and 0.99) — "the effectiveness of the long IFQ
//!   strongly depends on the branch prediction of the main thread".
//! - Figure 8, main-thread L1D miss reduction. Paper: best case art
//!   (−38.8%); on average SPEAR-256 removes 19.7% of all cache misses.
//!
//! Run from the repository root with
//! `cargo run --release -p spear --example fig6`. The campaign lives in
//! `target/spear-results/fig6/` and is cleared first, so a rebuilt
//! simulator never resumes stale cells. The sampled or SimPoint matrix
//! comes from `spear-sim campaign` (see EXPERIMENTS.md).

use spear::experiments::{fig6, fig8, stats_of, table3};
use spear::report;
use spear::Machine;
use std::path::Path;

fn main() {
    let dir = Path::new("target/spear-results/fig6");
    let _ = std::fs::remove_dir_all(dir);
    let names: Vec<String> = spear_workloads::all()
        .iter()
        .map(|w| w.name.to_string())
        .collect();
    let m = fig6(&names, dir).unwrap_or_else(|e| panic!("fig6 campaign: {e}"));

    // Machine-readable copy for plotting.
    let (header, rows) = report::ipc_matrix_csv(&m);
    let csv = Path::new("target/spear-results/fig6.csv");
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

    print!(
        "{}",
        report::header("Table 3 — longer-IFQ enhancement vs branch behaviour")
    );
    print!("{}", report::table3(&table3(&m)));

    print!(
        "{}",
        report::header("Figure 8 — L1D miss reduction (main thread)")
    );
    print!("{}", report::fig8(&fig8(&m)));
    println!("  (paper: best art -38.8%, average -19.7% with SPEAR-256)");

    // Extension (the paper's future work: "the actual effectiveness of
    // the p-thread execution will be investigated"): how many p-thread
    // prefetches the main thread actually consumed, split into timely
    // (full L1 hits) and late (merged into an in-flight fill).
    print!(
        "{}",
        report::header("Prefetch effectiveness (SPEAR-256, extension)")
    );
    println!(
        "  {:<10} {:>12} {:>12} {:>12} {:>10}",
        "benchmark", "prefetches", "timely", "late", "useful %"
    );
    for name in &m.workloads {
        let s = stats_of(&m, name, Machine::Spear256);
        let issued = s.pthread_loads.max(1);
        println!(
            "  {:<10} {:>12} {:>12} {:>12} {:>9.1}%",
            name,
            s.pthread_loads,
            s.useful_prefetches,
            s.late_prefetches,
            (s.useful_prefetches + s.late_prefetches) as f64 / issued as f64 * 100.0
        );
    }
}
