//! # spear — the SPEAR reproduction's top-level API
//!
//! Ties the whole stack together:
//!
//! - [`machines`] — the five evaluated machine models (baseline,
//!   SPEAR-128/256, SPEAR.sf-128/256),
//! - [`runner`] — compile-and-simulate plumbing,
//! - [`experiments`] — one entry point per table and figure of §5,
//! - [`report`] — renderers matching the paper's row/series formats.
//!
//! ```no_run
//! use spear::experiments::{compile_all, fig6};
//! use spear::report;
//!
//! let workloads = spear_workloads::all();
//! let compiled = compile_all(&workloads);
//! let matrix = fig6(&compiled);
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
