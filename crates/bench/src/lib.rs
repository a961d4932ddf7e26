//! # spear-bench — the evaluation harness
//!
//! One bench target per table and figure of the paper (custom harnesses
//! that print the same rows/series the paper reports), an `ablations`
//! target sweeping the design knobs DESIGN.md calls out, and a
//! `cpi_stack` target decomposing cycles by stall cause.
//!
//! Regenerate everything with `cargo bench --workspace`, or one artifact
//! with e.g. `cargo bench -p spear-bench --bench fig6_speedup`.
//! Simulator speed per layer is the repository benchmark's job
//! (`bash benchmark/run.sh`, see `benchmark/README.md`).

/// True when a bench target should down-scale (smoke mode for CI): set
/// `SPEAR_BENCH_FAST=1`.
pub fn fast_mode() -> bool {
    std::env::var("SPEAR_BENCH_FAST").is_ok_and(|v| v == "1")
}
