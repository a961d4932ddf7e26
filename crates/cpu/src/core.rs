//! The simulator façade: the per-cycle stage loop over a
//! [`crate::pipeline::Pipeline`] driven by a pluggable front-end
//! extension.
//!
//! # Pipeline model
//!
//! `fetch → pre-decode/IFQ → decode/rename/dispatch → issue → execute →
//! writeback → commit`, modelled execution-driven in the `sim-outorder`
//! style:
//!
//! * **Execute-at-dispatch oracle timing.** True-path main-context
//!   instructions execute functionally (via [`spear_exec::exec_inst`] — the
//!   same semantics as the golden model) in program order at dispatch;
//!   the rest of the pipeline provides timing. Branch outcomes are thus
//!   known at dispatch; *recovery timing* is charged at the branch's
//!   writeback, and the machine fetches and dispatches real wrong-path
//!   instructions in between (they consume resources but never execute
//!   functionally and never touch the D-cache).
//! * **Stores update the functional memory image at dispatch** (in program
//!   order), with commit-order architectural state reconstructed in
//!   `commit_regs` for live-in copies and final-state checks.
//!
//! The stages live in [`crate::stage`] as free functions over the shared
//! pipeline state; everything SPEAR-specific lives in [`crate::spear`]
//! behind the [`crate::frontend::FrontEndExt`] trait. A binary with
//! `cfg.spear == None` runs the no-op [`BaselineFrontEnd`] and behaves as
//! the baseline superscalar.

use crate::config::CoreConfig;
use crate::ctx::{MAIN_CTX, PTHREAD_CTX};
use crate::frontend::{BaselineFrontEnd, FrontEndExt};
use crate::pipeline::Pipeline;
use crate::probe::{self, Probe};
use crate::spear::SpearFrontEnd;
use crate::stage;
use crate::stats::{CoreStats, RunExit};
use spear_bpred::Predictor;
use spear_exec::{ExecError, Memory, RegFile};
use spear_isa::SpearBinary;
use spear_mem::Hierarchy;

/// Simulation errors — all indicate workload or harness bugs, not
/// architectural events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The main thread's functional execution faulted.
    Exec(ExecError),
    /// No main-thread instruction committed for a long time.
    Deadlock {
        /// Cycle at which the watchdog fired.
        cycle: u64,
    },
    /// The trace-replay instruction source could not supply the
    /// committed path (exhausted, diverged, or unreplayable record).
    Trace(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Exec(e) => write!(f, "functional execution failed: {e}"),
            SimError::Deadlock { cycle } => write!(f, "pipeline deadlock at cycle {cycle}"),
            SimError::Trace(msg) => write!(f, "trace replay failed: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Result of a completed run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Why the run stopped.
    pub exit: RunExit,
    /// All counters.
    pub stats: CoreStats,
}

/// Cycles without a main-thread commit after which the core reports a
/// deadlock (see [`CoreConfig::check_latency`] for the latencies this
/// window admits).
pub(crate) const DEADLOCK_CYCLES: u64 = 200_000;

/// The simulator: shared pipeline state plus the front-end extension
/// driving its p-thread context.
pub struct Core<'p> {
    pipe: Pipeline<'p>,
    fe: Box<dyn FrontEndExt + 'p>,
}

impl<'p> Core<'p> {
    /// Build a core for `binary` under `cfg`. A binary with an empty
    /// p-thread table (or `cfg.spear == None`) behaves as the baseline
    /// superscalar.
    pub fn new(binary: &'p SpearBinary, cfg: CoreConfig) -> Core<'p> {
        let source = Box::new(crate::source::ProgramSource::new(&binary.program));
        Core::with_source(binary, cfg, source)
    }

    /// Build a core whose instruction supply is an explicit
    /// [`crate::source::ExecSource`] — e.g. a
    /// [`crate::source::TraceSource`] replaying a recorded `.spt`
    /// committed path. `binary` must be the source's own image (for a
    /// trace, the binary embedded in the trace file): it seeds the entry
    /// PC, the initial data image, and the SPEAR p-thread table.
    pub fn with_source(
        binary: &'p SpearBinary,
        cfg: CoreConfig,
        source: Box<dyn crate::source::ExecSource + 'p>,
    ) -> Core<'p> {
        let fe: Box<dyn FrontEndExt + 'p> = match cfg.spear {
            Some(sp) => Box::new(SpearFrontEnd::new(
                sp,
                &binary.table.entries,
                binary.program.len(),
            )),
            None => Box::new(BaselineFrontEnd),
        };
        let is_spear = cfg.spear.is_some();
        let mut pipe = Pipeline::with_source(&binary.program, source, cfg);
        if is_spear {
            // Pre-size the hierarchy's per-d-load profile map: the key
            // set is exactly the table's d-load PCs, so seeding it here
            // keeps the hot classification paths from ever rehashing.
            pipe.hier
                .seed_dload_profiles(binary.table.entries.iter().map(|e| e.dload_pc));
        }
        Core { pipe, fe }
    }

    /// Run until the program halts or a budget is hit.
    pub fn run(&mut self, max_cycles: u64, max_insts: u64) -> Result<RunResult, SimError> {
        while !self.pipe.halted {
            if self.pipe.cycle >= max_cycles {
                return Ok(self.finish(RunExit::CycleBudget));
            }
            if self.pipe.stats.committed >= max_insts {
                return Ok(self.finish(RunExit::InstBudget));
            }
            self.step_cycle()?;
        }
        Ok(self.finish(RunExit::Halted))
    }

    /// Advance one cycle: commit → writeback → front-end update → issue →
    /// extraction → dispatch → fetch.
    pub fn step_cycle(&mut self) -> Result<(), SimError> {
        let pipe = &mut self.pipe;
        let fe = self.fe.as_mut();
        pipe.cycle += 1;
        pipe.stats.cycles = pipe.cycle;
        stage::commit::run(pipe, fe);
        stage::writeback::run(pipe, fe);
        fe.update(pipe);
        stage::issue::run(pipe);
        let port = fe.extract(pipe);
        stage::dispatch::run(pipe, fe, port)?;
        stage::fetch::run(pipe, fe);
        // End-of-cycle probe hook: fills, counter samples and window
        // boundaries. One branch when disabled.
        if pipe.probe.is_some() {
            probe::on_cycle_end(pipe);
        }
        if pipe.cycle - pipe.last_commit_cycle > DEADLOCK_CYCLES && !pipe.halted {
            return Err(SimError::Deadlock { cycle: pipe.cycle });
        }
        Ok(())
    }

    fn finish(&mut self, exit: RunExit) -> RunResult {
        let pipe = &mut self.pipe;
        // Close the in-progress partial telemetry window (before the
        // stats are cloned) so windows partition the run exactly.
        if pipe.probe.is_some() {
            probe::on_run_end(pipe);
        }
        // Prefetches still unclaimed when the run ends never helped
        // anyone — close the timely/late/useless partition.
        pipe.hier.drain_pending_prefetches();
        pipe.stats.bpred = pipe.predictor.stats;
        pipe.stats.bpred_detail = pipe.predictor.detail();
        pipe.stats.l1d = pipe.hier.l1d.stats;
        pipe.stats.l2 = pipe.hier.l2.stats;
        pipe.stats.l1d_main_misses = pipe.hier.pc_misses.total();
        pipe.stats.l1d_pthread_misses = pipe.hier.pthread_misses;
        pipe.stats.useful_prefetches = pipe.hier.useful_prefetches;
        pipe.stats.late_prefetches = pipe.hier.late_prefetches;
        pipe.stats.dload_profiles = self.fe.harvest_profiles(&pipe.hier);
        RunResult {
            exit,
            stats: pipe.stats.clone(),
        }
    }

    /// All counters.
    pub fn stats(&self) -> &CoreStats {
        &self.pipe.stats
    }

    /// Committed architectural register state (for differential tests).
    pub fn commit_regs(&self) -> &RegFile {
        &self.pipe.commit_regs
    }

    /// Instructions committed so far (for lockstep differential tests
    /// that advance a golden interpreter between cycles).
    pub fn committed(&self) -> u64 {
        self.pipe.stats.committed
    }

    /// Functional memory image (equals architectural memory at halt).
    pub fn memory(&self) -> &Memory {
        &self.pipe.mem
    }

    /// Architectural checksum comparable with
    /// `spear_exec::Interp::state_checksum`.
    pub fn state_checksum(&self) -> u64 {
        self.pipe
            .commit_regs
            .checksum()
            .rotate_left(17)
            .wrapping_add(self.pipe.mem.checksum())
    }

    /// The cache hierarchy (miss statistics).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.pipe.hier
    }

    /// Mutable hierarchy access, for seeding warm cache contents from a
    /// checkpoint before the first cycle (see `spear-campaign`).
    pub fn hierarchy_mut(&mut self) -> &mut Hierarchy {
        &mut self.pipe.hier
    }

    /// Mutable predictor access, for seeding warm branch-predictor state
    /// from a checkpoint before the first cycle.
    pub fn predictor_mut(&mut self) -> &mut Predictor {
        &mut self.pipe.predictor
    }

    /// Seed a freshly built core with a mid-program architectural state:
    /// both register files (dispatch-order and commit-order start equal —
    /// nothing is in flight), the memory image, and the fetch PC. The
    /// cycle counter and statistics stay at zero, so a subsequent
    /// [`Core::run`] measures exactly the restored region: the interval's
    /// instruction budget is simply `max_insts` and the exact-slot CPI
    /// invariant holds over the interval on its own.
    ///
    /// Panics if called after simulation has started — mid-flight restore
    /// is not a supported operation (checkpoints are quiesced states).
    pub fn restore_arch_state(&mut self, regs: &RegFile, mem: Memory, pc: u32) {
        assert_eq!(
            self.pipe.cycle, 0,
            "architectural restore must precede the first simulated cycle"
        );
        assert_eq!(
            mem.len(),
            self.pipe.mem.len(),
            "restored memory image must match the program's data size"
        );
        self.pipe.ctxs[MAIN_CTX.0].regs = regs.clone();
        self.pipe.commit_regs = regs.clone();
        self.pipe.mem = mem;
        self.pipe.fetch.pc = pc;
    }

    /// Current IFQ occupancy (observability for viewers/tests).
    pub fn ifq_len(&self) -> usize {
        self.pipe.ifq.len()
    }

    /// Main-context RUU occupancy.
    pub fn ruu_len(&self) -> usize {
        self.pipe.main_ctx().order.len()
    }

    /// P-thread-context RUU occupancy.
    pub fn pthread_ruu_len(&self) -> usize {
        self.pipe.ctxs[PTHREAD_CTX.0].order.len()
    }

    /// Short name of the front-end state ("normal", or the active phase
    /// and its target context, e.g. "preexec@ctx1").
    pub fn mode_name(&self) -> String {
        self.fe.mode_name()
    }

    /// Short label of the instruction supply ("program", "trace").
    pub fn source_name(&self) -> &'static str {
        self.pipe.source.name()
    }

    /// The instruction supply's replay cursor: true-path instructions
    /// its oracle has consumed (dispatch-order, so ≥ `committed()`).
    pub fn source_cursor(&self) -> u64 {
        self.pipe.source.cursor()
    }

    /// Cycles simulated so far.
    pub fn cycle(&self) -> u64 {
        self.pipe.cycle
    }

    /// True once the program's `halt` has committed.
    pub fn halted(&self) -> bool {
        self.pipe.halted
    }

    /// The observability probe, if one is attached.
    pub fn probe(&self) -> Option<&Probe> {
        self.pipe.probe.as_deref()
    }

    /// The observability probe, attached on first use; enable its parts
    /// before the first cycle. While a probe is attached the hierarchy
    /// logs cache-line fills for the JSONL sink.
    pub fn probe_mut(&mut self) -> &mut Probe {
        if self.pipe.probe.is_none() {
            self.pipe.hier.enable_fill_log();
        }
        self.pipe.probe.get_or_insert_with(Default::default)
    }
}
