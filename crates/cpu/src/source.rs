//! The instruction-supply boundary: where the pipeline gets
//! instructions and their committed-path effects from.
//!
//! The core is execution-driven with an execute-at-dispatch oracle (see
//! [`crate::core`]): fetch needs an *image lookup* (true path and wrong
//! path alike), and dispatch needs a *committed-path oracle* — the next
//! PC, the effective address, and memory effects of each true-path
//! instruction in program order. [`ExecSource`] abstracts exactly those
//! two capabilities, so the rest of the pipeline provably does not care
//! where instructions come from:
//!
//! * [`ProgramSource`] — today's behavior, bit-identical: the oracle is
//!   [`spear_exec::exec_inst`] over the live register file and memory
//!   image.
//! * [`TraceSource`] — replay of a recorded `.spt` committed path
//!   ([`spear_trace::TraceFile`]): the oracle pops pre-decoded records
//!   (next PC, effective address, store data) and applies recorded
//!   store data to the memory image, so architectural memory stays
//!   exact without re-executing semantics. Wrong-path fetch synthesizes
//!   from the embedded program image, so misprediction behavior is
//!   preserved. Register values are *not* tracked (they are
//!   timing-irrelevant to the baseline pipeline: `dst_val` feeds only
//!   commit-order register reconstruction and SPEAR live-in copies), so
//!   [`ExecSource::tracks_registers`] gates the dispatch-time register
//!   readback.
//!
//! The oracle's per-instruction cursor is the committed-instruction
//! index, which a checkpoint records as `trace_cursor` so a trace-backed
//! campaign cell can resume replay mid-stream.

use crate::core::SimError;
use spear_exec::{exec_inst, DataMem, ExecError, Memory, Outcome, RegFile};
use spear_isa::{Inst, Program};
use spear_trace::{Rec, TraceFile};

/// A pluggable supply of instructions and committed-path effects.
pub trait ExecSource {
    /// Fetch-image lookup at `pc` — consulted by the fetch stage for
    /// true-path and wrong-path instructions alike.
    fn fetch_inst(&self, pc: u32) -> Option<Inst>;

    /// Committed-path oracle: account one true-path main-context
    /// instruction in program order, applying its memory effects to
    /// `mem` (and, if this source tracks registers, its register
    /// effects to `regs`).
    fn step_main(
        &mut self,
        inst: &Inst,
        pc: u32,
        regs: &mut RegFile,
        mem: &mut Memory,
    ) -> Result<Outcome, SimError>;

    /// Whether `regs` carries live architectural values after
    /// [`ExecSource::step_main`] (gates dispatch's `dst_val` readback).
    fn tracks_registers(&self) -> bool;

    /// True-path instructions consumed so far — the replay cursor a
    /// checkpoint snapshot records.
    fn cursor(&self) -> u64;

    /// Short label for diagnostics ("program", "trace").
    fn name(&self) -> &'static str;
}

/// The execute-at-dispatch source: instructions come from the program
/// image and the oracle *is* the ISA semantics. Bit-identical to the
/// pre-`ExecSource` pipeline.
pub struct ProgramSource<'p> {
    program: &'p Program,
    stepped: u64,
}

impl<'p> ProgramSource<'p> {
    /// Source over `program`'s image and semantics.
    pub fn new(program: &'p Program) -> ProgramSource<'p> {
        ProgramSource {
            program,
            stepped: 0,
        }
    }
}

impl ExecSource for ProgramSource<'_> {
    fn fetch_inst(&self, pc: u32) -> Option<Inst> {
        self.program.fetch(pc).copied()
    }

    fn step_main(
        &mut self,
        inst: &Inst,
        pc: u32,
        regs: &mut RegFile,
        mem: &mut Memory,
    ) -> Result<Outcome, SimError> {
        self.stepped += 1;
        exec_inst(inst, pc, regs, mem).map_err(|fault| SimError::Exec(ExecError::Mem { pc, fault }))
    }

    fn tracks_registers(&self) -> bool {
        true
    }

    fn cursor(&self) -> u64 {
        self.stepped
    }

    fn name(&self) -> &'static str {
        "program"
    }
}

/// The trace-replay source: the committed path comes from recorded
/// `.spt` records; the fetch image is the program embedded in the trace.
pub struct TraceSource<'p> {
    program: &'p Program,
    recs: &'p [Rec],
    cursor: usize,
    /// PC the next record must dispatch at (`None` disables the check
    /// only before the first step of a cursor-0 source with no records).
    expect_pc: Option<u32>,
}

impl<'p> TraceSource<'p> {
    /// Replay `tf` from its first record.
    pub fn new(tf: &'p TraceFile) -> TraceSource<'p> {
        TraceSource {
            program: &tf.binary.program,
            recs: &tf.recs,
            cursor: 0,
            expect_pc: Some(tf.start_pc),
        }
    }

    /// Replay `tf` starting at record `cursor` — the checkpoint-restore
    /// entry point (`cursor` = instructions committed before the
    /// checkpoint). Fails if the trace is shorter than the cursor.
    pub fn at_cursor(tf: &'p TraceFile, cursor: u64) -> Result<TraceSource<'p>, String> {
        if cursor > tf.recs.len() as u64 {
            return Err(format!(
                "trace cursor {cursor} is beyond the trace's {} records",
                tf.recs.len()
            ));
        }
        let expect_pc = if cursor == 0 {
            Some(tf.start_pc)
        } else {
            Some(tf.recs[cursor as usize - 1].next_pc)
        };
        Ok(TraceSource {
            program: &tf.binary.program,
            recs: &tf.recs,
            cursor: cursor as usize,
            expect_pc,
        })
    }
}

impl ExecSource for TraceSource<'_> {
    fn fetch_inst(&self, pc: u32) -> Option<Inst> {
        // Wrong-path synthesis rule: any PC resolves against the
        // embedded image, exactly like hardware running ahead of a
        // mispredicted branch.
        self.program.fetch(pc).copied()
    }

    fn step_main(
        &mut self,
        inst: &Inst,
        pc: u32,
        _regs: &mut RegFile,
        mem: &mut Memory,
    ) -> Result<Outcome, SimError> {
        if let Some(exp) = self.expect_pc {
            if pc != exp {
                return Err(SimError::Trace(format!(
                    "committed path diverged from the trace at record {}: \
                     dispatching pc {pc}, trace expects pc {exp}",
                    self.cursor
                )));
            }
        }
        let Some(rec) = self.recs.get(self.cursor) else {
            return Err(SimError::Trace(format!(
                "trace exhausted after {} records (true path reached pc {pc})",
                self.cursor
            )));
        };
        self.cursor += 1;
        self.expect_pc = Some(rec.next_pc);
        if let (Some(ea), Some(v)) = (rec.eff_addr, rec.store) {
            mem.store(ea, inst.op.mem_width(), v).map_err(|fault| {
                SimError::Trace(format!("recorded store unreplayable at pc {pc}: {fault}"))
            })?;
        }
        Ok(Outcome {
            next_pc: rec.next_pc,
            eff_addr: rec.eff_addr,
            taken: Some(rec.taken),
            halted: rec.halted,
        })
    }

    fn tracks_registers(&self) -> bool {
        false
    }

    fn cursor(&self) -> u64 {
        self.cursor as u64
    }

    fn name(&self) -> &'static str {
        "trace"
    }
}
