//! **Table 1** — benchmark inventory with simulated instruction counts.
//!
//! The paper lists each benchmark's suite and simulated instruction count;
//! this harness prints the same inventory for our kernels (evaluation and
//! profiling inputs).
//!
//! Run with `cargo run --release -p spear --example table1`.

use spear::experiments::table1;
use spear::report;

fn main() {
    let workloads = spear_workloads::all();
    print!("{}", report::header("Table 1 — benchmark inventory"));
    let rows = table1(&workloads);
    print!("{}", report::table1(&rows));
    let total: u64 = rows.iter().map(|r| r.eval_insts).sum();
    println!("\n  total evaluation instructions: {total}");
}
