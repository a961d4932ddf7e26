//! Pipeline stages.
//!
//! Each stage of the per-cycle loop lives in its own module and operates
//! on the shared [`crate::pipeline::Pipeline`] state, communicating
//! across stage (and cycle) boundaries only through the typed latch and
//! port structs below:
//!
//! * [`DecodePort`] — extraction → dispatch, same cycle: how much decode
//!   bandwidth the front-end extension consumed.
//! * [`IssueLatch`] — issue → next cycle's commit-stall classification:
//!   what the p-thread issued.
//! * [`RecoveryPort`] — dispatch → writeback: the (single) unresolved
//!   mispredicted branch awaiting recovery.
//!
//! The cycle order is fixed by [`crate::core::Core::step_cycle`]:
//! commit → writeback → front-end update → issue → extraction →
//! dispatch → fetch.

pub mod commit;
pub mod dispatch;
pub mod fetch;
pub mod issue;
pub mod writeback;

use crate::ruu::SeqId;

/// Decode-bandwidth port between the front-end extension's extraction
/// step and main dispatch (§3.2: "extraction shares the decode
/// bandwidth") — written by extraction, read by dispatch the same cycle.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DecodePort {
    /// Decode slots the extractor consumed this cycle.
    pub pe_used: usize,
}

/// What the p-thread issued during the most recent issue
/// phase. Commit-stall classification runs *before* issue in the cycle
/// loop, so it reads the previous cycle's latch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IssueLatch {
    /// A speculative context issued a memory operation.
    pub spec_issued_mem: bool,
    /// A speculative context issued any operation.
    pub spec_issued_any: bool,
}

/// The single in-flight branch-misprediction recovery, set by dispatch
/// when a mispredicted branch executes and consumed by writeback once
/// that branch completes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryPort {
    /// The unresolved mispredicted branch, if any.
    pub pending: Option<Recovery>,
}

/// One pending branch recovery.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Recovery {
    /// The mispredicted branch's RUU entry.
    pub branch_seq: SeqId,
    /// The true target to refetch from.
    pub target: u32,
}
