//! **Figure 9** — long-latency tolerance: IPC under memory latencies
//! 40/80/120/160/200 cycles (L2 at one tenth) for the six benchmarks the
//! paper sweeps (pointer, update, nbh, dm, mcf, vpr).
//!
//! Paper: at the longest latency SPEAR-128 loses 39.7% and SPEAR-256
//! 38.4% of their shortest-latency performance; the baseline superscalar
//! loses 48.5%.
//!
//! Run from the repository root with
//! `cargo run --release -p spear --example fig9`. The campaign lives in
//! `target/spear-results/fig9/` and is cleared first.

use spear::experiments::fig9;
use spear::report;
use spear_workloads::FIG9_SET;
use std::path::Path;

fn main() {
    let dir = Path::new("target/spear-results/fig9");
    let _ = std::fs::remove_dir_all(dir);
    let names: Vec<String> = FIG9_SET.iter().map(|n| n.to_string()).collect();
    let series = fig9(&names, dir).unwrap_or_else(|e| panic!("fig9 campaign: {e}"));
    print!(
        "{}",
        report::header("Figure 9 — IPC under memory-latency sweep")
    );
    print!("{}", report::fig9(&series));
    println!("  (paper averages: superscalar -48.5%, SPEAR-128 -39.7%, SPEAR-256 -38.4%)");
}
