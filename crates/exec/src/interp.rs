//! The in-order functional interpreter — the golden model.
//!
//! Executes a [`Program`] one instruction at a time with architectural
//! semantics only (no timing). Uses:
//!
//! - workload validation (did the kernel compute the right answer),
//! - the SPEAR compiler's profiler (which wraps [`Interp::step`] and watches
//!   [`StepInfo`]),
//! - differential testing: the cycle-level core's committed state must match
//!   this interpreter's final state instruction-for-instruction.

use crate::memory::Memory;
use crate::regfile::RegFile;
use crate::semantics::{exec_inst, MemFault, Outcome};
use spear_isa::{Inst, Program};
use std::fmt;

/// Everything observable about one executed instruction.
#[derive(Debug, Clone, Copy)]
pub struct StepInfo {
    /// PC the instruction executed at.
    pub pc: u32,
    /// The instruction itself.
    pub inst: Inst,
    /// Control/memory outcome.
    pub outcome: Outcome,
}

/// Why execution stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stop {
    /// `halt` retired.
    Halted,
    /// The instruction budget was exhausted.
    Budget,
}

/// Execution errors (always programming errors in the workload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// Data access out of bounds.
    Mem { pc: u32, fault: MemFault },
    /// PC ran outside the program text.
    PcOutOfRange(u32),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::Mem { pc, fault } => write!(f, "at pc {pc}: {fault}"),
            ExecError::PcOutOfRange(pc) => write!(f, "pc {pc} out of program text"),
        }
    }
}

impl std::error::Error for ExecError {}

/// The interpreter state.
pub struct Interp<'p> {
    /// Program under execution.
    pub program: &'p Program,
    /// Architectural registers.
    pub regs: RegFile,
    /// Data memory.
    pub mem: Memory,
    /// Next PC.
    pub pc: u32,
    /// Instructions retired so far.
    pub icount: u64,
    /// Set once `halt` retires.
    pub halted: bool,
}

impl<'p> Interp<'p> {
    /// Fresh state at the program entry with its initial data image.
    pub fn new(program: &'p Program) -> Interp<'p> {
        Interp {
            program,
            regs: RegFile::new(),
            mem: Memory::from_image(&program.data),
            pc: program.entry,
            icount: 0,
            halted: false,
        }
    }

    /// Resume from a previously captured architectural state — the
    /// checkpoint-restore entry point. `icount` is carried over so
    /// instruction budgets and interval boundaries keep their absolute
    /// meaning across the save/restore boundary.
    pub fn from_state(
        program: &'p Program,
        regs: RegFile,
        mem: Memory,
        pc: u32,
        icount: u64,
    ) -> Interp<'p> {
        Interp {
            program,
            regs,
            mem,
            pc,
            icount,
            halted: false,
        }
    }

    /// Execute one instruction. Returns what happened; errors are workload
    /// bugs (out-of-bounds access, runaway PC).
    pub fn step(&mut self) -> Result<StepInfo, ExecError> {
        debug_assert!(!self.halted, "stepping a halted interpreter");
        let pc = self.pc;
        let inst = *self.program.fetch(pc).ok_or(ExecError::PcOutOfRange(pc))?;
        let outcome = exec_inst(&inst, pc, &mut self.regs, &mut self.mem)
            .map_err(|fault| ExecError::Mem { pc, fault })?;
        self.pc = outcome.next_pc;
        self.icount += 1;
        self.halted = outcome.halted;
        Ok(StepInfo { pc, inst, outcome })
    }

    /// Run to `halt` or until `max_insts` retire.
    pub fn run(&mut self, max_insts: u64) -> Result<Stop, ExecError> {
        let budget_end = self.icount.saturating_add(max_insts);
        while !self.halted {
            if self.icount >= budget_end {
                return Ok(Stop::Budget);
            }
            self.step()?;
        }
        Ok(Stop::Halted)
    }

    /// Run with a per-instruction observer (the profiler's entry point).
    pub fn run_with(
        &mut self,
        max_insts: u64,
        mut hook: impl FnMut(&StepInfo, &RegFile),
    ) -> Result<Stop, ExecError> {
        let budget_end = self.icount.saturating_add(max_insts);
        while !self.halted {
            if self.icount >= budget_end {
                return Ok(Stop::Budget);
            }
            let si = self.step()?;
            hook(&si, &self.regs);
        }
        Ok(Stop::Halted)
    }

    /// Combined architectural checksum (registers + memory), for
    /// differential tests against the cycle-level core.
    pub fn state_checksum(&self) -> u64 {
        self.regs
            .checksum()
            .rotate_left(17)
            .wrapping_add(self.mem.checksum())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_isa::asm::Asm;
    use spear_isa::reg::*;

    fn sum_loop(n: u64) -> Program {
        let mut a = Asm::new();
        let xs: Vec<u64> = (1..=n).collect();
        let base = a.alloc_u64("xs", &xs);
        a.li(R1, base as i64);
        a.li(R2, 0);
        a.li(R3, n as i64);
        a.label("loop");
        a.ld(R4, R1, 0);
        a.add(R2, R2, R4);
        a.addi(R1, R1, 8);
        a.addi(R3, R3, -1);
        a.bne(R3, R0, "loop");
        let out = a.reserve("out", 8);
        a.li(R5, out as i64);
        a.sd(R2, R5, 0);
        a.halt();
        a.finish().unwrap()
    }

    #[test]
    fn computes_sum() {
        let p = sum_loop(10);
        let mut i = Interp::new(&p);
        assert_eq!(i.run(1_000_000).unwrap(), Stop::Halted);
        let out = p.data_addr("out").unwrap();
        assert_eq!(i.mem.read_u64(out), 55);
        assert_eq!(i.regs.read_i64(R2), 55);
    }

    #[test]
    fn budget_stops_runaway() {
        let mut a = Asm::new();
        a.label("spin");
        a.j("spin");
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        assert_eq!(i.run(100).unwrap(), Stop::Budget);
        assert_eq!(i.icount, 100);
    }

    #[test]
    fn icount_matches_dynamic_length() {
        let p = sum_loop(7);
        let mut i = Interp::new(&p);
        i.run(u64::MAX).unwrap();
        // 3 setup + 7*5 loop + 2 store setup + 1 halt
        assert_eq!(i.icount, 3 + 35 + 2 + 1);
    }

    #[test]
    fn hook_sees_every_instruction() {
        let p = sum_loop(3);
        let mut i = Interp::new(&p);
        let mut n = 0u64;
        let mut loads = 0u64;
        i.run_with(u64::MAX, |si, _| {
            n += 1;
            if si.inst.op.is_load() {
                loads += 1;
                assert!(si.outcome.eff_addr.is_some());
            }
        })
        .unwrap();
        assert_eq!(n, i.icount);
        assert_eq!(loads, 3);
    }

    #[test]
    fn checksum_deterministic() {
        let p = sum_loop(5);
        let mut i1 = Interp::new(&p);
        let mut i2 = Interp::new(&p);
        i1.run(u64::MAX).unwrap();
        i2.run(u64::MAX).unwrap();
        assert_eq!(i1.state_checksum(), i2.state_checksum());
    }

    #[test]
    fn mem_fault_reports_pc() {
        let mut a = Asm::new();
        a.li(R1, 1 << 40);
        a.ld(R2, R1, 0);
        a.halt();
        let p = a.finish().unwrap();
        let mut i = Interp::new(&p);
        match i.run(100) {
            Err(ExecError::Mem { pc: 1, .. }) => {}
            other => panic!("expected mem fault at pc 1, got {other:?}"),
        }
    }
}
