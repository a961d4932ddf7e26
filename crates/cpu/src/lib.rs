//! # spear-cpu — the cycle-level SMT core with the SPEAR front end
//!
//! Models the machine of §3 and Table 2: an 8-wide out-of-order superscalar
//! with a Register-Update-Unit-style scheduler, a circular Instruction
//! Fetch Queue, bimodal branch prediction, split L1 caches over a unified
//! L2 — plus the SPEAR hardware: p-thread indicators written at pre-decode,
//! a d-load detector, trigger logic with the IFQ-occupancy condition and
//! live-in copying, the P-thread Extractor, priority issue for the
//! p-thread, and optional dedicated p-thread functional units (the `.sf`
//! models of Figure 7).
//!
//! Committed architectural state is bit-identical to the
//! [`spear_exec::Interp`] golden model by construction (execute-at-dispatch
//! oracle timing); the differential tests in `tests/` enforce this for
//! every workload.
//!
//! Simulated-time observability — the episode-event ring, the JSONL event
//! stream, per-instruction lifecycle records and windowed telemetry — is
//! one optional [`Probe`] on the pipeline (see [`probe`]), reached through
//! [`Core::probe_mut`]. It is off by default and costs one branch per
//! recording site.

pub mod config;
pub mod core;
pub mod ctx;
pub mod export;
pub mod frontend;
pub mod fu;
pub mod hist;
pub mod ifq;
pub mod machine;
pub mod overlay;
pub mod pipeline;
pub mod probe;
pub mod ruu;
pub mod source;
pub mod spear;
pub mod stage;
pub mod stats;

pub use crate::core::{Core, RunResult, SimError};
pub use config::{CoreConfig, OpLatencies, SpearConfig};
pub use ctx::{CtxId, HwContext, MAIN_CTX, PTHREAD_CTX};
pub use export::{SimPerf, SimpointBlock, StatsExport, SCHEMA_VERSION};
pub use frontend::{BaselineFrontEnd, FrontEndExt};
pub use hist::Histogram;
pub use machine::Machine;
pub use probe::{
    CounterSample, Event, LifeRecord, Probe, DEFAULT_LIFECYCLE_CAP, DEFAULT_WINDOW_CYCLES,
};
pub use ruu::{Ruu, SeqId};
pub use source::{ExecSource, ProgramSource, TraceSource};
pub use stats::{CoreStats, CycleAccount, DloadProfile, RunExit, StallCause, WindowStat};
