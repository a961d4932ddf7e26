//! Quick Figure 6 + Table 3 + Figure 8 sweep in one shot — the fast way
//! to see the whole evaluation landscape after a change (the bench
//! targets print the same data with paper comparisons).
//!
//! Run with: `cargo run --release -p spear --example sweep`
//!
//! This is full-program simulation. The sampled (or SimPoint) Figure 6
//! matrix comes from the campaign engine instead:
//! `spear-sim campaign --dir DIR --interval 100000 --stride 10` (or
//! `--simpoint`), which is resumable and writes one aggregate envelope
//! per (workload, machine) cell.

use spear::experiments::{compile_all, fig6, fig8, table3};
use spear::report;

fn main() {
    let ws = spear_workloads::all();
    let t0 = std::time::Instant::now();
    let compiled = compile_all(&ws);
    eprintln!("compiled in {:?}", t0.elapsed());
    let t0 = std::time::Instant::now();
    let m = fig6(&compiled);
    eprintln!("fig6 matrix in {:?}", t0.elapsed());
    println!("{}", report::ipc_matrix(&m));
    println!("{}", report::table3(&table3(&m)));
    println!("{}", report::fig8(&fig8(&m)));
}
