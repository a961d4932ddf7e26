//! The shared pipeline state the stage modules operate on.
//!
//! [`Pipeline`] owns everything the machine's stages touch: the front
//! end (predictor, IFQ, fetch cursor), the functional state (memory
//! image, commit-order registers), the backend (RUU entries, the two
//! [`HwContext`]s, functional-unit pools, the cache hierarchy), and the
//! inter-stage latches. The stage modules in [`crate::stage`] are free
//! functions over this struct; the SPEAR front end
//! ([`crate::spear::SpearFrontEnd`]) receives `&mut Pipeline` at its
//! hook points.

use crate::config::CoreConfig;
use crate::ctx::{CtxId, HwContext, MAIN_CTX};
use crate::fu::FuPool;
use crate::ifq::Ifq;
use crate::probe::{Event, Probe};
use crate::ruu::Ruu;
use crate::source::{ExecSource, ProgramSource};
use crate::stage::{IssueLatch, RecoveryPort};
use crate::stats::CoreStats;
use spear_bpred::Predictor;
use spear_exec::{Memory, RegFile};
use spear_isa::{Inst, Program};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Scheduler state of an RUU entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EState {
    /// Waiting on producers.
    Waiting,
    /// All operands available; eligible for issue.
    Ready,
    /// Issued; completes at `complete_at`.
    Executing,
    /// Completed; awaiting in-order retirement.
    Done,
}

/// One RUU (reorder-buffer / scheduler) entry.
#[derive(Clone, Debug)]
pub struct RuuEntry {
    /// Globally unique, monotonically increasing sequence number.
    pub seq: u64,
    /// The hardware context this entry belongs to.
    pub ctx: CtxId,
    /// Instruction PC.
    pub pc: u32,
    /// The instruction word.
    pub inst: Inst,
    /// Scheduler state.
    pub state: EState,
    /// Producers still outstanding.
    pub pending: u32,
    /// Completion cycle (valid while `Executing`).
    pub complete_at: u64,
    /// Effective address of a memory op (known at dispatch on the true
    /// path — oracle disambiguation).
    pub eff_addr: Option<u64>,
    /// Fetched past an unresolved mispredicted branch.
    pub wrong_path: bool,
    /// The program's halt instruction.
    pub is_halt: bool,
    /// P-thread entry that terminates the pre-execution episode.
    pub is_trigger_dload: bool,
    /// Architectural result, applied to `commit_regs` at commit.
    pub dst_val: Option<(spear_isa::Reg, u64)>,
    /// Cycle the entry was dispatched into the RUU (cycle accounting:
    /// distinguishes "never had an issue opportunity" from contention).
    pub dispatch_cycle: u64,
    /// Set at issue if this memory operation's access went past the L1
    /// (or merged into an in-flight fill) — the commit-head signal for
    /// the d-load-miss CPI-stack bucket.
    pub mem_missed: bool,
    /// For speculative-context entries: the static d-load PC of the
    /// episode that extracted it, attributing its prefetches in the
    /// per-d-load effectiveness profiles.
    pub dload_owner: Option<u32>,
    /// Cycle the instruction entered the IFQ (lifecycle stamp; for
    /// p-thread entries, the cycle the copied instruction was originally
    /// fetched).
    pub fetch_cycle: u64,
    /// Cycle the entry issued to a functional unit (lifecycle stamp;
    /// 0 while unissued).
    pub issue_cycle: u64,
    /// SPEAR episode ordinal that owns this entry (1-based; 0 for
    /// main-context entries outside any episode).
    pub episode: u32,
}

/// The fetch stage's cursor.
#[derive(Clone, Copy, Debug)]
pub struct FetchState {
    /// Next PC to fetch.
    pub pc: u32,
    /// Fetch stalls until this cycle (I-cache miss repair).
    pub ready_at: u64,
    /// Fetch stopped at the program's halt.
    pub halted: bool,
    /// Last I-cache block charged (one access per block transition).
    pub last_block: Option<u64>,
}

/// All machine state shared between the pipeline stages.
pub struct Pipeline<'p> {
    /// Machine configuration.
    pub cfg: CoreConfig,
    /// The instruction supply: fetch-image lookup plus the
    /// committed-path oracle (see [`crate::source`]).
    pub source: Box<dyn ExecSource + 'p>,

    // ---- front end ----
    /// Branch predictor.
    pub predictor: Predictor,
    /// Instruction fetch queue.
    pub ifq: Ifq,
    /// Fetch cursor.
    pub fetch: FetchState,

    // ---- functional state ----
    /// Commit-order register state (live-in source; final arch state).
    pub commit_regs: RegFile,
    /// Shared functional memory image (written at dispatch).
    pub mem: Memory,

    // ---- backend ----
    /// All in-flight RUU entries (every context), in a generational
    /// slab with intrusive per-entry consumer lists (wakeup edges).
    pub ruu: Ruu,
    /// The two hardware contexts, indexed by [`MAIN_CTX`] and
    /// [`crate::ctx::PTHREAD_CTX`].
    pub ctxs: [HwContext; 2],
    /// The functional-unit pool: the main program's, and the p-thread's
    /// too unless the machine is `.sf`.
    pub pool: FuPool,
    /// The p-thread's own pool on `.sf` machines (`separate_fu`).
    pub pthread_pool: Option<FuPool>,
    /// The cache hierarchy.
    pub hier: spear_mem::Hierarchy,
    /// Completion calendar: `(complete_at, id)` pushed at issue, popped
    /// by writeback once due. Squashed entries leave stale ids behind;
    /// the slab's generation check filters them at pop time, so
    /// writeback never scans the whole RUU.
    pub exec_done: BinaryHeap<Reverse<(u64, crate::ruu::SeqId)>>,

    // ---- latches / control ----
    /// Issue → commit-classification latch (previous cycle's issues).
    pub issue_latch: IssueLatch,
    /// The single pending branch recovery.
    pub recovery: RecoveryPort,
    /// An unresolved mispredicted branch is in flight; dispatch tags
    /// younger main-context entries wrong-path.
    pub wrongpath: bool,
    /// The halt instruction has dispatched; everything younger is
    /// wrong-path.
    pub halt_dispatched: bool,
    /// Set by a misprediction flush, cleared when dispatch next inserts a
    /// main-context instruction: the window where an empty RUU is charged
    /// to the post-flush refill rather than generic front-end causes.
    pub post_flush_refill: bool,
    /// Current cycle.
    pub cycle: u64,
    /// Next sequence number (shared by fetch and both dispatch paths —
    /// only uniqueness and monotonicity matter).
    pub next_seq: u64,
    /// Cycle of the most recent main-context commit (deadlock watchdog).
    pub last_commit_cycle: u64,
    /// The program's halt has committed.
    pub halted: bool,

    /// Counters.
    pub stats: CoreStats,
    /// Optional observability probe (episode ring, JSONL sink, lifecycle
    /// records, windowed telemetry). Boxed so the disabled case costs one
    /// pointer and one branch per site.
    pub probe: Option<Box<Probe>>,
}

impl<'p> Pipeline<'p> {
    /// Fresh machine state for `program` under `cfg`, supplied by the
    /// execute-at-dispatch [`ProgramSource`] (today's default).
    pub fn new(program: &'p Program, cfg: CoreConfig) -> Pipeline<'p> {
        Pipeline::with_source(program, Box::new(ProgramSource::new(program)), cfg)
    }

    /// Fresh machine state for `program`'s image and initial data,
    /// supplied by an arbitrary [`ExecSource`]. `program` provides the
    /// entry PC and data image only; instructions and the committed-path
    /// oracle come from `source`.
    pub fn with_source(
        program: &'p Program,
        source: Box<dyn ExecSource + 'p>,
        cfg: CoreConfig,
    ) -> Pipeline<'p> {
        Pipeline {
            predictor: Predictor::new(cfg.bpred),
            ifq: Ifq::new(cfg.ifq_size),
            fetch: FetchState {
                pc: program.entry,
                ready_at: 0,
                halted: false,
                last_block: None,
            },
            commit_regs: RegFile::new(),
            mem: Memory::from_image(&program.data),
            ruu: Ruu::new(),
            ctxs: Default::default(),
            pool: FuPool::new(&cfg),
            pthread_pool: cfg.separate_fu.then(|| FuPool::new(&cfg)),
            hier: spear_mem::Hierarchy::new(cfg.hier),
            exec_done: BinaryHeap::new(),
            issue_latch: IssueLatch::default(),
            recovery: RecoveryPort::default(),
            wrongpath: false,
            halt_dispatched: false,
            post_flush_refill: false,
            cycle: 0,
            next_seq: 1,
            last_commit_cycle: 0,
            halted: false,
            stats: CoreStats::default(),
            probe: None,
            source,
            cfg,
        }
    }

    /// The main context.
    pub fn main_ctx(&self) -> &HwContext {
        &self.ctxs[MAIN_CTX.0]
    }

    /// The functional-unit pool serving context `ctx`.
    pub fn pool_mut(&mut self, ctx: CtxId) -> &mut FuPool {
        match &mut self.pthread_pool {
            Some(own) if !ctx.is_main() => own,
            _ => &mut self.pool,
        }
    }

    /// Reserve the next sequence number. Fetch and dispatch share the
    /// counter's namespace: fetch-sequence numbers order fetch time,
    /// dispatch re-numbers for the RUU, so only uniqueness and
    /// monotonicity matter.
    pub fn alloc_seq(&mut self) -> u64 {
        let s = self.next_seq;
        self.next_seq += 1;
        s
    }

    /// The freshest forwardable value of register `r`: the youngest
    /// *completed* in-flight main-context writer's result, falling back
    /// to the committed architectural value. If the youngest dispatched
    /// writer has completed this equals the dispatch-point value.
    pub fn freshest_value(&self, r: spear_isa::Reg) -> u64 {
        for &id in self.main_ctx().order.iter().rev() {
            let e = self.ruu.get(id).expect("order holds live entries");
            if let Some((dst, v)) = e.dst_val {
                if dst == r {
                    if e.state == EState::Done {
                        return v;
                    }
                    // Younger-but-incomplete writer: keep looking for an
                    // older completed one.
                    continue;
                }
            }
        }
        self.commit_regs.read_u64(r)
    }

    /// Record an event with the probe (no-op without one). The closure
    /// receives the current cycle and runs only when a probe is attached.
    #[inline]
    pub fn emit(&mut self, f: impl FnOnce(u64) -> Event) {
        if let Some(p) = &mut self.probe {
            p.emit(f(self.cycle));
        }
    }

    /// Record an instruction leaving the RUU — retirement (`squashed ==
    /// false`) or squash — with the probe. One branch without one.
    #[inline]
    pub fn retire(&mut self, e: &RuuEntry, squashed: bool) {
        if let Some(p) = &mut self.probe {
            p.retire(e, self.cycle, squashed);
        }
    }
}
