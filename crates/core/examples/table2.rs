//! **Table 2** — simulation parameters for every evaluated machine model.
//!
//! Run with `cargo run --release -p spear --example table2`.

use spear::report;
use spear::Machine;

fn main() {
    for m in Machine::ALL {
        print!("{}", report::header(&format!("Table 2 — {m}")));
        print!("{}", report::table2(&m.config(None)));
    }
}
