//! Checkpoints: architectural + warm microarchitectural state captured
//! after a functional fast-forward, restorable into the cycle core.
//!
//! A checkpoint holds everything needed to start cycle-level simulation
//! mid-program:
//!
//! - **architectural state** — the register file, the full memory image
//!   and the next PC, produced by the functional [`Interp`];
//! - **warm microarchitectural state** — copies of the three [`Cache`]s
//!   (L1D, L1I, L2) of the [`Hierarchy`] and of the [`Predictor`] that a
//!   `Warmer` drives over every functionally executed instruction: cache
//!   contents (tags, validity, dirtiness, LRU order) and predictor state
//!   (direction tables, BTB, return stack).
//!
//! A checkpoint holds nothing else of the warmer: no latencies, fills in
//! flight, prefetch ownership or statistics. Restore copies the warm
//! state into the core's own hierarchy and predictor and resets the
//! rest, so a restored simulation measures only its own region, and the
//! core keeps its own latencies. The warm substrate (Table 2 cache
//! geometry + predictor sizing) is shared by all five evaluated machine
//! models and is independent of the memory-latency sweep, so one
//! functional pass per workload yields checkpoints reusable across every
//! (machine, latency) point of a campaign.

use crate::sample::SampleSpec;
use spear_bpred::{Predictor, PredictorConfig};
use spear_cpu::Core;
use spear_exec::{Interp, Memory, RegFile, StepInfo};
use spear_isa::Program;
use spear_mem::{AccessKind, Cache, HierConfig, Hierarchy};

/// A restorable simulation state at an instruction boundary.
#[derive(Clone, Debug)]
pub struct Checkpoint {
    /// Workload name this checkpoint belongs to.
    pub workload: String,
    /// Instructions retired before this point (the interval boundary).
    pub inst_index: u64,
    /// Replay cursor for a trace-driven front end: the record index a
    /// `.spt` replay must resume at. Equal to [`Checkpoint::inst_index`]
    /// by construction (a trace stores one record per retired
    /// instruction).
    pub trace_cursor: u64,
    /// Next PC.
    pub pc: u32,
    /// Architectural register file.
    pub regs: RegFile,
    /// Full data-memory image.
    pub mem: Memory,
    /// The warm L1 data cache.
    pub l1d: Cache,
    /// The warm L1 instruction cache.
    pub l1i: Cache,
    /// The warm unified L2.
    pub l2: Cache,
    /// The warm branch predictor.
    pub pred: Predictor,
}

impl Checkpoint {
    /// Capture the current state of a functional fast-forward.
    pub(crate) fn capture(workload: &str, interp: &Interp<'_>, warmer: &Warmer) -> Checkpoint {
        Checkpoint {
            workload: workload.to_string(),
            inst_index: interp.icount,
            trace_cursor: interp.icount,
            pc: interp.pc,
            regs: interp.regs.clone(),
            mem: interp.mem.clone(),
            l1d: warmer.hier.l1d.clone(),
            l1i: warmer.hier.l1i.clone(),
            l2: warmer.hier.l2.clone(),
            pred: warmer.pred.clone(),
        }
    }

    /// Seed a freshly built cycle core with this checkpoint: both
    /// register files, the memory image, the fetch PC, warm caches and
    /// warm predictor tables. The core must not have simulated a cycle
    /// yet; its statistics stay zeroed so a subsequent run measures
    /// exactly the restored interval.
    pub fn restore_into(&self, core: &mut Core<'_>) -> Result<(), String> {
        core.restore_arch_state(&self.regs, self.mem.clone(), self.pc);
        core.hierarchy_mut()
            .restore(&self.l1d, &self.l1i, &self.l2)
            .map_err(|e| format!("hierarchy restore: {e}"))?;
        core.predictor_mut()
            .restore(&self.pred)
            .map_err(|e| format!("predictor restore: {e}"))?;
        Ok(())
    }
}

/// Accumulates warm microarchitectural state during a functional
/// fast-forward, mirroring what the cycle core's front end and memory
/// system would have learned over the same instruction stream:
///
/// - every load/store is pushed through a scratch [`Hierarchy`] (demand
///   path, no p-thread traffic — functional warming predates any
///   pre-execution);
/// - instruction fetch touches the L1I once per block transition, the
///   same charging rule the core's fetch stage uses;
/// - every control instruction is predicted then resolved, so direction
///   counters, the BTB and the return stack track the true path.
///
/// Warming time advances by one "cycle" per instruction, so outstanding
/// fills expire after a bounded window and the final state is quiesced.
pub(crate) struct Warmer {
    hier: Hierarchy,
    pred: Predictor,
    last_fetch_block: Option<u64>,
    now: u64,
}

impl Warmer {
    /// A cold warmer over the given substrate configuration.
    pub fn new(hier_cfg: HierConfig, bpred_cfg: PredictorConfig) -> Warmer {
        Warmer {
            hier: Hierarchy::new(hier_cfg),
            pred: Predictor::new(bpred_cfg),
            last_fetch_block: None,
            now: 0,
        }
    }

    /// Observe one functionally executed instruction.
    pub fn observe(&mut self, si: &StepInfo) {
        self.now += 1;
        // Instruction side: one L1I access per block transition.
        let addr = Program::inst_addr(si.pc);
        let block = addr / self.hier.l1i.geometry().block_bytes as u64;
        if self.last_fetch_block != Some(block) {
            self.hier.access_inst(addr);
            self.last_fetch_block = Some(block);
        }
        // Branch predictor: predict (keeps the RAS in step with calls and
        // returns), then resolve with the architectural outcome.
        if si.inst.op.is_ctrl() {
            let pred = self.pred.predict(si.pc, &si.inst);
            let taken = si.outcome.taken.unwrap_or(true);
            self.pred
                .update(si.pc, &si.inst, taken, si.outcome.next_pc, Some(pred));
        }
        // Data side: demand accesses at functional time.
        if let Some(ea) = si.outcome.eff_addr {
            let kind = if si.inst.op.is_store() {
                AccessKind::Write
            } else {
                AccessKind::Read
            };
            self.hier.access_data(ea, kind, si.pc, false, self.now);
        }
    }
}

/// All checkpoints needed to cycle-simulate the sampled intervals of one
/// workload, plus the workload's true dynamic length.
#[derive(Clone, Debug)]
pub struct CheckpointSet {
    /// One checkpoint per *sampled* interval, at its start boundary,
    /// ascending by [`Checkpoint::inst_index`].
    pub checkpoints: Vec<Checkpoint>,
    /// Total dynamic instructions to `halt`.
    pub total_insts: u64,
}

impl CheckpointSet {
    /// The checkpoint at exactly `inst_index`, if one was captured.
    pub fn at(&self, inst_index: u64) -> Option<&Checkpoint> {
        self.checkpoints
            .binary_search_by_key(&inst_index, |c| c.inst_index)
            .ok()
            .map(|i| &self.checkpoints[i])
    }
}

/// Run one functional pass over `program`, capturing a checkpoint at the
/// start of every sampled interval of `SampleSpec { interval_len, stride }`
/// (see [`SampleSpec::starts_sampled_interval`]). The pass drives the
/// `Warmer` over every instruction (including the skipped intervals —
/// warming is continuous even where cycle simulation is not), so each
/// checkpoint carries fully warm state.
///
/// `max_insts` bounds runaway programs; reaching it is an error (a
/// campaign needs the true program length to weight its aggregate).
pub fn capture_interval_checkpoints(
    program: &Program,
    workload: &str,
    hier_cfg: HierConfig,
    bpred_cfg: PredictorConfig,
    interval_len: u64,
    stride: u64,
    max_insts: u64,
) -> Result<CheckpointSet, String> {
    assert!(interval_len > 0, "interval length must be nonzero");
    assert!(stride > 0, "stride must be nonzero");
    let spec = SampleSpec {
        interval_len,
        stride,
    };
    capture_where(program, workload, hier_cfg, bpred_cfg, max_insts, |i| {
        spec.starts_sampled_interval(i)
    })
}

/// Run one functional pass over `program`, capturing a checkpoint at each
/// of the explicitly named instruction `boundaries` (ascending, deduped by
/// the caller — typically the start instructions of SimPoint
/// representative intervals). Like [`capture_interval_checkpoints`], the
/// `Warmer` observes *every* instruction, so each checkpoint carries the
/// warm state of the whole prefix, not just the sampled regions.
///
/// Boundaries at or past the program's halt point are an error: a phase
/// representative must exist inside the dynamic stream that produced it.
pub fn capture_checkpoints_at(
    program: &Program,
    workload: &str,
    hier_cfg: HierConfig,
    bpred_cfg: PredictorConfig,
    boundaries: &[u64],
    max_insts: u64,
) -> Result<CheckpointSet, String> {
    debug_assert!(
        boundaries.windows(2).all(|w| w[0] < w[1]),
        "boundaries must be ascending and unique"
    );
    let mut next = 0usize;
    let set = capture_where(program, workload, hier_cfg, bpred_cfg, max_insts, |i| {
        let hit = boundaries.get(next) == Some(&i);
        next += usize::from(hit);
        hit
    })?;
    match boundaries.get(next) {
        Some(b) => Err(format!(
            "{workload}: checkpoint boundary {b} lies at or past the program's halt point ({})",
            set.total_insts
        )),
        None => Ok(set),
    }
}

/// The one warming loop: run `program` functionally to `halt`, driving a
/// `Warmer` over every instruction and capturing a checkpoint before
/// each instruction index `at` accepts (asked once per index, ascending).
fn capture_where(
    program: &Program,
    workload: &str,
    hier_cfg: HierConfig,
    bpred_cfg: PredictorConfig,
    max_insts: u64,
    mut at: impl FnMut(u64) -> bool,
) -> Result<CheckpointSet, String> {
    let mut interp = Interp::new(program);
    let mut warmer = Warmer::new(hier_cfg, bpred_cfg);
    let mut checkpoints = Vec::new();
    while !interp.halted {
        if interp.icount >= max_insts {
            return Err(format!(
                "{workload}: functional pass exceeded {max_insts} instructions without halting"
            ));
        }
        if at(interp.icount) {
            checkpoints.push(Checkpoint::capture(workload, &interp, &warmer));
        }
        let si = interp
            .step()
            .map_err(|e| format!("{workload}: functional pass failed: {e}"))?;
        warmer.observe(&si);
    }
    Ok(CheckpointSet {
        checkpoints,
        total_insts: interp.icount,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_isa::asm::Asm;
    use spear_isa::reg::*;

    /// A pointer-chase over an array large enough to leave warm cache
    /// state behind, with a loop branch for the predictor.
    fn chase_program(n: u64) -> Program {
        let mut a = Asm::new();
        let xs: Vec<u64> = (0..n).map(|i| i.wrapping_mul(2654435761) % 97).collect();
        let base = a.alloc_u64("xs", &xs);
        let out = a.reserve("out", 8);
        a.li(R1, base as i64);
        a.li(R2, 0);
        a.li(R3, n as i64);
        a.label("loop");
        a.ld(R4, R1, 0);
        a.add(R2, R2, R4);
        a.addi(R1, R1, 8);
        a.addi(R3, R3, -1);
        a.bne(R3, R0, "loop");
        a.li(R5, out as i64);
        a.sd(R2, R5, 0);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn capture_covers_sampled_intervals_and_total_length() {
        let p = chase_program(100);
        let set = capture_interval_checkpoints(
            &p,
            "chase",
            HierConfig::paper(),
            PredictorConfig::paper(),
            100,
            2,
            1_000_000,
        )
        .unwrap();
        // 100-iteration loop: 3 + 100*5 + 2 + 1 = 506 instructions.
        assert_eq!(set.total_insts, 506);
        // Intervals 0..6; sampled 0, 2, 4 (stride 2).
        let idx: Vec<u64> = set.checkpoints.iter().map(|c| c.inst_index).collect();
        assert_eq!(idx, vec![0, 200, 400]);
        assert!(set.at(200).is_some());
        assert!(set.at(100).is_none());
    }

    #[test]
    fn capture_at_explicit_boundaries_matches_interval_capture() {
        let p = chase_program(100);
        // The interval pass at (100, stride 2) captures at 0, 200, 400.
        let by_interval = capture_interval_checkpoints(
            &p,
            "chase",
            HierConfig::paper(),
            PredictorConfig::paper(),
            100,
            2,
            1_000_000,
        )
        .unwrap();
        let by_boundary = capture_checkpoints_at(
            &p,
            "chase",
            HierConfig::paper(),
            PredictorConfig::paper(),
            &[0, 200, 400],
            1_000_000,
        )
        .unwrap();
        assert_eq!(by_boundary.total_insts, by_interval.total_insts);
        assert_eq!(by_boundary.checkpoints.len(), 3);
        for (a, b) in by_boundary.checkpoints.iter().zip(&by_interval.checkpoints) {
            // Same boundary + same warming history => identical state.
            assert_eq!(a.inst_index, b.inst_index);
            assert_eq!(a.pc, b.pc);
            assert_eq!(a.regs, b.regs);
            assert_eq!(a.mem, b.mem);
            assert_eq!(a.l1d, b.l1d);
            assert_eq!(a.l1i, b.l1i);
            assert_eq!(a.l2, b.l2);
            assert_eq!(a.pred, b.pred);
        }
        // A boundary past halt is a loud error, not a silent omission.
        let err = capture_checkpoints_at(
            &p,
            "chase",
            HierConfig::paper(),
            PredictorConfig::paper(),
            &[0, 1_000_000 - 1],
            1_000_000,
        )
        .unwrap_err();
        assert!(err.contains("halt point"), "{err}");
    }

    #[test]
    fn checkpoint_resumes_functional_execution_exactly() {
        let p = chase_program(50);
        let set = capture_interval_checkpoints(
            &p,
            "chase",
            HierConfig::paper(),
            PredictorConfig::paper(),
            64,
            1,
            1_000_000,
        )
        .unwrap();
        // Reference: uninterrupted run.
        let mut whole = Interp::new(&p);
        whole.run(u64::MAX).unwrap();
        // Resume from the second checkpoint and run to halt: identical
        // final architectural state.
        let cp = &set.checkpoints[1];
        let mut resumed =
            Interp::from_state(&p, cp.regs.clone(), cp.mem.clone(), cp.pc, cp.inst_index);
        assert_eq!(resumed.icount, cp.inst_index);
        resumed.run(u64::MAX).unwrap();
        assert_eq!(resumed.icount, whole.icount);
        assert_eq!(resumed.state_checksum(), whole.state_checksum());
    }

    #[test]
    fn warm_checkpoint_carries_cache_and_predictor_state() {
        let p = chase_program(100);
        let set = capture_interval_checkpoints(
            &p,
            "chase",
            HierConfig::paper(),
            PredictorConfig::paper(),
            200,
            1,
            1_000_000,
        )
        .unwrap();
        let cold = &set.checkpoints[0];
        let warm = &set.checkpoints[1];
        assert_eq!(cold.inst_index, 0);
        // The cold checkpoint has empty caches; the warm one does not.
        assert!(cold.l1d.valid_block_addrs().is_empty());
        assert!(
            !warm.l1d.valid_block_addrs().is_empty(),
            "functional warming filled L1D lines"
        );
        // The loop branch trained the bimodal table away from its reset
        // state (weakly not-taken): the warm copy predicts it taken.
        let pc = p.insts.iter().position(|i| i.op.is_ctrl()).unwrap() as u32;
        let bne = p.insts[pc as usize];
        assert_eq!(cold.pred.clone().predict(pc, &bne).taken, Some(false));
        assert_eq!(warm.pred.clone().predict(pc, &bne).taken, Some(true));
    }

    #[test]
    fn warming_respects_the_configured_predictor_kind() {
        let p = chase_program(100);
        let cfg = PredictorConfig::paper().with_spec("tage").unwrap();
        let set =
            capture_interval_checkpoints(&p, "chase", HierConfig::paper(), cfg, 200, 1, 1_000_000)
                .unwrap();
        let warm = &set.checkpoints[1];
        assert_eq!(warm.pred.kind(), spear_bpred::PredictorKind::Tage);
    }
}
