//! Quick Figure 6 + Table 3 + Figure 8 sweep in one shot — the fast way
//! to see the whole evaluation landscape after a change (the bench
//! targets print the same data with paper comparisons).
//!
//! Run with: `cargo run --release -p spear --example sweep`
//!
//! Set `SPEAR_SAMPLED=INTERVAL[:STRIDE]` (e.g. `SPEAR_SAMPLED=100000:10`)
//! to route the matrix through the checkpointed sampling campaign engine
//! instead of full-program simulation; `SPEAR_CAMPAIGN_DIR` picks the
//! campaign directory (resumable), defaulting to a per-process temp dir.

use spear::experiments::{
    compile_all, fig6, fig8, run_matrix_campaign, sample_spec_from_env, table3,
};
use spear::report;

fn main() {
    let ws = spear_workloads::all();
    let m = if let Some(sample) = sample_spec_from_env() {
        let dir = std::env::var("SPEAR_CAMPAIGN_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|_| {
                std::env::temp_dir().join(format!("spear-sweep-campaign-{}", std::process::id()))
            });
        eprintln!(
            "sampled sweep: interval {} stride {} (campaign dir {})",
            sample.interval_len,
            sample.stride,
            dir.display()
        );
        let t0 = std::time::Instant::now();
        let names: Vec<String> = ws.iter().map(|w| w.name.to_string()).collect();
        let m = run_matrix_campaign(&names, &spear::Machine::FIG6, None, sample, None, &dir)
            .unwrap_or_else(|e| {
                eprintln!("sweep: sampled campaign failed: {e}");
                std::process::exit(1)
            });
        eprintln!("sampled fig6 matrix in {:?}", t0.elapsed());
        m
    } else {
        let t0 = std::time::Instant::now();
        let compiled = compile_all(&ws);
        eprintln!("compiled in {:?}", t0.elapsed());
        let t0 = std::time::Instant::now();
        let m = fig6(&compiled);
        eprintln!("fig6 matrix in {:?}", t0.elapsed());
        m
    };
    println!("{}", report::ipc_matrix(&m));
    println!("{}", report::table3(&table3(&m)));
    println!("{}", report::fig8(&fig8(&m)));
}
