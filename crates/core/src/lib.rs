//! # spear — the SPEAR reproduction's top-level API
//!
//! Ties the whole stack together:
//!
//! - [`machines`] — the five evaluated machine models (baseline,
//!   SPEAR-128/256, SPEAR.sf-128/256),
//! - [`runner`] — compile-and-simulate plumbing,
//! - [`experiments`] — one entry point per table and figure of §5, each
//!   simulated figure a campaign (see `spear-campaign`),
//! - [`report`] — renderers matching the paper's row/series formats.
//!
//! The printers for every table and figure are this crate's examples
//! (`cargo run --release -p spear --example fig6`, and so on).
//!
//! ```no_run
//! use spear::experiments::fig6;
//! use spear::report;
//!
//! let names: Vec<String> = spear_workloads::all()
//!     .iter()
//!     .map(|w| w.name.to_string())
//!     .collect();
//! let dir = std::path::Path::new("target/spear-results/fig6");
//! let matrix = fig6(&names, dir).expect("fig6 campaign");
//! println!("{}", report::ipc_matrix(&matrix));
//! ```

pub mod experiments;
pub mod export;
pub mod machines;
pub mod obs;
pub mod report;
pub mod runner;

pub use export::{StatsExport, SCHEMA_VERSION};
pub use machines::Machine;
pub use runner::{compile_workload, run_one, RunOutcome};
pub use spear_campaign::parallel_map;
