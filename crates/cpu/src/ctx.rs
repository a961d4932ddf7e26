//! Hardware contexts.
//!
//! The paper's machine is an SMT processor whose p-thread runs on a
//! *spare hardware context* (§3): its own register file, rename table,
//! reorder buffer, and store isolation, sharing the fetch/decode/issue
//! bandwidth and the cache hierarchy with the main program. [`HwContext`]
//! is that replicated per-context state. The machine has exactly two:
//! [`MAIN_CTX`] runs the program and [`PTHREAD_CTX`] runs the SPEAR
//! p-thread (idle on the baseline). Every RUU entry carries the
//! [`CtxId`] it belongs to.

use crate::overlay::Overlay;
use crate::ruu::SeqId;
use spear_exec::RegFile;
use spear_isa::reg::NUM_REGS;
use std::collections::{BTreeSet, VecDeque};

/// Index of a hardware context: [`MAIN_CTX`] (the architectural
/// program) or [`PTHREAD_CTX`] (speculative).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CtxId(pub usize);

/// The main program's context.
pub const MAIN_CTX: CtxId = CtxId(0);

/// The context the SPEAR front end runs p-threads on.
pub const PTHREAD_CTX: CtxId = CtxId(1);

impl CtxId {
    /// True for the main (architectural) context.
    pub fn is_main(self) -> bool {
        self == MAIN_CTX
    }
}

impl std::fmt::Display for CtxId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ctx{}", self.0)
    }
}

/// The per-context replicated machine state.
///
/// The main context's `regs` are the *dispatch-order* register file
/// (execute-at-dispatch oracle state); commit-order state lives in the
/// pipeline's `commit_regs`. The p-thread context additionally isolates
/// its stores in a private byte `overlay` so it can only prefetch, never
/// change semantic state.
#[derive(Clone, Debug)]
pub struct HwContext {
    /// The context's register file.
    pub regs: RegFile,
    /// Register rename map: architectural register → youngest in-flight
    /// producer.
    pub rename: [Option<SeqId>; NUM_REGS],
    /// This context's `Ready` RUU entries (ordered by sequence — issue
    /// scans oldest-first).
    pub ready: BTreeSet<SeqId>,
    /// In-flight stores `(id, addr, width)` for store→load dependences.
    pub stores: Vec<(SeqId, u64, usize)>,
    /// This context's RUU in dispatch order (head = oldest).
    pub order: VecDeque<SeqId>,
    /// Private store overlay (the p-thread context only; the main
    /// context writes the shared memory image at dispatch instead).
    pub overlay: Overlay,
}

impl Default for HwContext {
    /// A fresh, empty context.
    fn default() -> HwContext {
        HwContext {
            regs: RegFile::new(),
            rename: [None; NUM_REGS],
            ready: BTreeSet::new(),
            stores: Vec::new(),
            order: VecDeque::new(),
            overlay: Overlay::new(),
        }
    }
}

impl HwContext {
    /// Reset the speculative state a front end re-seeds per episode
    /// (registers, rename map, store overlay). In-flight bookkeeping
    /// (`ready`/`stores`/`order`) is left to the pipeline.
    pub fn reset_spec_state(&mut self) {
        self.regs = RegFile::new();
        self.rename = [None; NUM_REGS];
        self.overlay.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_clears_episode_state_only() {
        let id = SeqId { seq: 1, slot: 0 };
        let mut c = HwContext::default();
        c.regs.write_u64(spear_isa::reg::R5, 7);
        c.rename[5] = Some(SeqId { seq: 42, slot: 3 });
        c.overlay.insert(0x10, 9);
        c.order.push_back(id);
        c.ready.insert(id);
        c.reset_spec_state();
        assert_eq!(c.regs.read_u64(spear_isa::reg::R5), 0);
        assert!(c.rename.iter().all(|r| r.is_none()));
        assert!(c.overlay.is_empty());
        assert_eq!(c.order.len(), 1, "in-flight bookkeeping survives");
        assert_eq!(c.ready.len(), 1);
    }

    #[test]
    fn ctx_id_display_and_main() {
        assert!(MAIN_CTX.is_main());
        assert!(!PTHREAD_CTX.is_main());
        assert_eq!(PTHREAD_CTX.to_string(), "ctx1");
    }
}
