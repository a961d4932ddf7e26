//! The pluggable front-end extension boundary.
//!
//! Everything SPEAR adds to the baseline superscalar — pre-decode
//! marking, the d-load detector, trigger/re-arm/retarget logic, the
//! episode state machine, the P-thread Extractor, episode accounting —
//! hangs off the pipeline through this trait. The stage modules call the
//! hooks at fixed points of the cycle; the baseline machine plugs in the
//! no-op [`BaselineFrontEnd`], so stage code carries no
//! `if cfg.spear.is_some()` special cases.

use crate::pipeline::{Pipeline, RuuEntry};
use crate::stage::DecodePort;
use crate::stats::DloadProfile;
use spear_mem::Hierarchy;

/// Pre-decode result for one fetched PC.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PreDecode {
    /// The p-thread indicator: the PC is in a p-thread member set.
    pub marked: bool,
    /// The PC is a delinquent load (a p-thread table trigger point).
    pub dload: bool,
}

/// A front-end extension driving the p-thread context.
///
/// Hook order within one cycle (see `Core::step_cycle`): `update` runs
/// between writeback and issue; `extract` runs between issue and
/// dispatch and returns the decode bandwidth it consumed; the `on_*`
/// hooks fire from inside the stages at the architectural events they
/// are named after.
pub trait FrontEndExt {
    /// Pre-decode tap: the indicator bits for a PC entering the IFQ.
    fn pre_decode(&self, pc: u32) -> PreDecode;

    /// Fetch pushed a delinquent load into the IFQ (`ifq_seq` is its
    /// fetch sequence number) — the PD's chance to trigger or re-arm.
    fn on_dload_fetched(&mut self, pipe: &mut Pipeline, ifq_seq: u64, pc: u32);

    /// Per-cycle state-machine update, between writeback and issue.
    fn update(&mut self, pipe: &mut Pipeline);

    /// Extraction step: dispatch instructions into the p-thread context,
    /// sharing decode bandwidth with the main thread.
    fn extract(&mut self, pipe: &mut Pipeline) -> DecodePort;

    /// Main decode consumed the IFQ entry with fetch sequence `seq`
    /// (`marked` is its indicator at consumption time).
    fn on_main_decode(&mut self, pipe: &mut Pipeline, seq: u64, marked: bool);

    /// A branch-misprediction recovery flushed the IFQ.
    fn on_flush(&mut self, pipe: &mut Pipeline);

    /// The p-thread context retired `entry` from its RUU.
    fn on_ctx_retired(&mut self, pipe: &mut Pipeline, entry: &RuuEntry);

    /// End-of-run harvest of the per-d-load effectiveness profiles,
    /// sorted by static PC.
    fn harvest_profiles(&self, hier: &Hierarchy) -> Vec<DloadProfile>;

    /// Short state name for viewers ("normal", or the active phase and
    /// target context, e.g. "preexec@ctx1").
    fn mode_name(&self) -> String;
}

/// The baseline superscalar's front end: no marking, no triggers, no
/// p-thread. Every hook is a no-op.
pub struct BaselineFrontEnd;

impl FrontEndExt for BaselineFrontEnd {
    fn pre_decode(&self, _pc: u32) -> PreDecode {
        PreDecode::default()
    }

    fn on_dload_fetched(&mut self, _pipe: &mut Pipeline, _ifq_seq: u64, _pc: u32) {}

    fn update(&mut self, _pipe: &mut Pipeline) {}

    fn extract(&mut self, _pipe: &mut Pipeline) -> DecodePort {
        DecodePort::default()
    }

    fn on_main_decode(&mut self, _pipe: &mut Pipeline, _seq: u64, _marked: bool) {}

    fn on_flush(&mut self, _pipe: &mut Pipeline) {}

    fn on_ctx_retired(&mut self, _pipe: &mut Pipeline, _entry: &RuuEntry) {}

    fn harvest_profiles(&self, _hier: &Hierarchy) -> Vec<DloadProfile> {
        Vec::new()
    }

    fn mode_name(&self) -> String {
        "normal".to_string()
    }
}
