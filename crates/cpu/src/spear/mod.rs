//! The SPEAR front-end extension (§3).
//!
//! Everything that turns the baseline superscalar into the SPEAR machine
//! lives here, behind [`crate::frontend::FrontEndExt`]:
//!
//! * **Pre-decode (PD)** marks IFQ entries whose PC is in the p-thread
//!   table and detects delinquent loads.
//! * A d-load detection **triggers** pre-execution when the IFQ holds at
//!   least `trigger_fraction × ifq_size` instructions; the machine then
//!   waits for the at-trigger live-in producers to drain, copies live-ins
//!   (one cycle per register), and activates the P-thread Extractor.
//! * The **PE** scans from the IFQ head, extracting up to `pe_bandwidth`
//!   marked instructions per cycle into the p-thread context
//!   ([`crate::ctx::PTHREAD_CTX`]: own RUU, own rename table, private
//!   store overlay), sharing decode bandwidth with main decode.
//! * The **episode** ends when the triggering d-load retires from the
//!   p-thread RUU, or aborts on an IFQ flush or if main decode consumes
//!   the triggering d-load first — unless the `rearm_after_flush` /
//!   `retarget_missed` extensions re-arm it.

mod view;

pub use view::PthreadView;

use crate::config::SpearConfig;
use crate::ctx::{MAIN_CTX, PTHREAD_CTX};
use crate::frontend::{FrontEndExt, PreDecode};
use crate::ifq::IfqEntry;
use crate::pipeline::{EState, Pipeline, RuuEntry};
use crate::probe::{AbortReason, Event};
use crate::ruu::SeqId;
use crate::stage::DecodePort;
use crate::stats::DloadProfile;
use spear_exec::exec_inst;
use spear_isa::pthread::PThreadEntry;
use spear_mem::Hierarchy;
use std::collections::HashMap;

/// Cycles an in-progress episode may wait for its d-load to be refetched
/// after an IFQ flush before it is abandoned.
const RETARGET_WINDOW: u64 = 512;

/// SPEAR trigger/extraction state machine (§3.2).
#[derive(Clone, Debug, PartialEq, Eq)]
enum Mode {
    /// No episode in progress; the PD may accept a trigger.
    Normal,
    /// Waiting until the last producers of the live-in registers have
    /// completed (bounded by the live-in wait limit), so their
    /// dispatch-point values are available to copy.
    DrainWait {
        dload_seq: u64,
        dload_pc: u32,
        pt_idx: usize,
        deadline: u64,
    },
    /// Copying live-in registers, one cycle each.
    CopyLiveIns {
        remaining: u32,
        dload_seq: u64,
        dload_pc: u32,
        pt_idx: usize,
    },
    /// PE active (or drained after extracting the d-load).
    PreExec {
        dload_seq: u64,
        dload_pc: u32,
        extraction_done: bool,
    },
}

/// Per-d-load episode outcome tally (harvested into
/// [`crate::stats::DloadProfile`] at the end of a run).
#[derive(Clone, Copy, Debug, Default)]
struct EpisodeTally {
    triggered: u64,
    completed: u64,
    aborted: u64,
}

/// The SPEAR front end: owns the p-thread table view, the episode state
/// machine, and the per-d-load accounting; drives the speculative
/// context [`PTHREAD_CTX`].
pub struct SpearFrontEnd<'p> {
    cfg: SpearConfig,
    pt_entries: &'p [PThreadEntry],
    /// Per-PC: bit set if the PC is in any p-thread member set.
    marked_pcs: Vec<bool>,
    /// Per-PC: index into `pt_entries` if the PC is a delinquent load.
    dload_idx: HashMap<u32, usize>,
    mode: Mode,
    /// Cycle the current episode's trigger was accepted (for the episode
    /// duration histogram).
    episode_start: u64,
    /// Episode ordinal, incremented at each accepted trigger (1-based;
    /// stamps p-thread RUU entries for the lifecycle exporters).
    episode_id: u32,
    /// Instructions extracted so far in the current episode.
    episode_extracted: u64,
    /// Set after an IFQ flush while an episode is active: the episode's
    /// trigger must be re-armed onto a refetched d-load instance before
    /// this cycle, or the episode aborts.
    retarget_deadline: Option<u64>,
    /// Per-d-load episode outcomes.
    episode_tally: HashMap<u32, EpisodeTally>,
}

impl<'p> SpearFrontEnd<'p> {
    /// Build the front end for a p-thread table over a program of
    /// `program_len` instructions.
    pub fn new(
        cfg: SpearConfig,
        table: &'p [PThreadEntry],
        program_len: usize,
    ) -> SpearFrontEnd<'p> {
        let mut marked_pcs = vec![false; program_len];
        let mut dload_idx = HashMap::new();
        for (i, e) in table.iter().enumerate() {
            dload_idx.insert(e.dload_pc, i);
            for &m in &e.members {
                if let Some(slot) = marked_pcs.get_mut(m as usize) {
                    *slot = true;
                }
            }
        }
        SpearFrontEnd {
            cfg,
            pt_entries: table,
            marked_pcs,
            dload_idx,
            mode: Mode::Normal,
            episode_start: 0,
            episode_id: 0,
            episode_extracted: 0,
            retarget_deadline: None,
            episode_tally: HashMap::new(),
        }
    }

    /// The static d-load PC of the active episode, if any.
    fn mode_dload_pc(&self) -> Option<u32> {
        match self.mode {
            Mode::DrainWait { dload_pc, .. }
            | Mode::CopyLiveIns { dload_pc, .. }
            | Mode::PreExec { dload_pc, .. } => Some(dload_pc),
            Mode::Normal => None,
        }
    }

    /// Record the episode-duration and extraction histograms at episode
    /// end (completion or abort).
    fn record_episode_end(&mut self, pipe: &mut Pipeline) {
        let dur = pipe.cycle.saturating_sub(self.episode_start);
        pipe.stats.episode_cycles.record(dur);
        pipe.stats
            .episode_extractions
            .record(self.episode_extracted);
    }

    /// A d-load detection while no episode is active: accept the trigger
    /// if the IFQ occupancy condition holds.
    fn consider_trigger(&mut self, pipe: &mut Pipeline, ifq_seq: u64, pt_idx: usize) {
        if self.mode != Mode::Normal {
            pipe.stats.triggers_ignored_busy += 1;
            return;
        }
        let threshold = (pipe.ifq.capacity() as f64 * self.cfg.trigger_fraction) as usize;
        if pipe.ifq.len() < threshold {
            pipe.stats.triggers_rejected_occupancy += 1;
            return;
        }
        let dload_pc = self.pt_entries[pt_idx].dload_pc;
        let deadline = pipe.cycle + self.cfg.livein_wait_limit as u64;
        let occupancy = pipe.ifq.len();
        self.mode = Mode::DrainWait {
            dload_seq: ifq_seq,
            dload_pc,
            pt_idx,
            deadline,
        };
        pipe.stats.triggers_accepted += 1;
        self.episode_tally.entry(dload_pc).or_default().triggered += 1;
        self.episode_start = pipe.cycle;
        self.episode_id += 1;
        self.episode_extracted = 0;
        pipe.emit(|cycle| Event::Trigger {
            cycle,
            dload_pc,
            occupancy,
        });
    }

    /// Re-arm a flush-orphaned episode onto a freshly fetched instance of
    /// its d-load.
    fn rearm_trigger(&mut self, pipe: &mut Pipeline, seq: u64) {
        self.retarget_deadline = None;
        pipe.stats.preexec_retargets += 1;
        match self.mode {
            Mode::DrainWait {
                dload_pc,
                pt_idx,
                deadline,
                ..
            } => {
                self.mode = Mode::DrainWait {
                    dload_seq: seq,
                    dload_pc,
                    pt_idx,
                    deadline,
                };
            }
            Mode::CopyLiveIns {
                remaining,
                dload_pc,
                pt_idx,
                ..
            } => {
                self.mode = Mode::CopyLiveIns {
                    remaining,
                    dload_seq: seq,
                    dload_pc,
                    pt_idx,
                };
            }
            Mode::PreExec {
                dload_pc,
                extraction_done,
                ..
            } => {
                // If the d-load was already extracted the episode is just
                // waiting for retirement; no re-arm needed.
                if !extraction_done {
                    self.mode = Mode::PreExec {
                        dload_seq: seq,
                        dload_pc,
                        extraction_done,
                    };
                }
            }
            Mode::Normal => {}
        }
    }

    /// The main thread decoded the episode's triggering d-load before the
    /// PE could extract it. Paper behaviour: the episode aborts. With the
    /// `retarget_missed` extension the trigger logic re-targets the
    /// youngest still-marked instance of the same static d-load in the
    /// IFQ instead.
    fn retarget_or_abort(&mut self, pipe: &mut Pipeline, dload_pc: u32) {
        if !self.cfg.retarget_missed {
            self.episode_tally.entry(dload_pc).or_default().aborted += 1;
            self.mode = Mode::Normal;
            pipe.stats.preexec_aborted_missed += 1;
            self.record_episode_end(pipe);
            pipe.emit(|cycle| Event::EpisodeAborted {
                cycle,
                reason: AbortReason::MissedTrigger,
            });
            return;
        }
        let newest = pipe
            .ifq
            .iter()
            .filter(|e| e.is_dload && e.pc == dload_pc && e.marked)
            .map(|e| e.seq)
            .max();
        match newest {
            Some(seq) => match self.mode {
                Mode::DrainWait {
                    pt_idx, deadline, ..
                } => {
                    self.mode = Mode::DrainWait {
                        dload_seq: seq,
                        dload_pc,
                        pt_idx,
                        deadline,
                    };
                }
                Mode::CopyLiveIns {
                    remaining, pt_idx, ..
                } => {
                    self.mode = Mode::CopyLiveIns {
                        remaining,
                        dload_seq: seq,
                        dload_pc,
                        pt_idx,
                    };
                }
                Mode::PreExec {
                    extraction_done, ..
                } => {
                    self.mode = Mode::PreExec {
                        dload_seq: seq,
                        dload_pc,
                        extraction_done,
                    };
                }
                Mode::Normal => {}
            },
            None => {
                self.episode_tally.entry(dload_pc).or_default().aborted += 1;
                self.mode = Mode::Normal;
                pipe.stats.preexec_aborted_missed += 1;
                self.record_episode_end(pipe);
            }
        }
    }

    /// Dispatch one extracted instruction into the p-thread context.
    /// Functional execution runs against the p-thread register file and
    /// store overlay; faulting speculative accesses are simply dropped
    /// (no fault is ever raised architecturally by the p-thread).
    fn dispatch_pthread(&mut self, pipe: &mut Pipeline, fetched: &IfqEntry, is_trigger: bool) {
        let owner = self.mode_dload_pc();
        let outcome = {
            let ctx = &mut pipe.ctxs[PTHREAD_CTX.0];
            let mut view = PthreadView {
                overlay: &mut ctx.overlay,
                mem: &pipe.mem,
            };
            exec_inst(&fetched.inst, fetched.pc, &mut ctx.regs, &mut view)
        };
        let eff_addr = match outcome {
            Ok(o) => o.eff_addr,
            Err(_) => {
                pipe.stats.pthread_faults += 1;
                if is_trigger {
                    // The episode cannot prefetch its own d-load; give up.
                    if let Some(pc) = owner {
                        self.episode_tally.entry(pc).or_default().aborted += 1;
                    }
                    self.mode = Mode::Normal;
                    pipe.stats.preexec_aborted_missed += 1;
                    self.record_episode_end(pipe);
                    pipe.emit(|cycle| Event::EpisodeAborted {
                        cycle,
                        reason: AbortReason::Fault,
                    });
                }
                return;
            }
        };
        let seq = pipe.alloc_seq();
        pipe.stats.pthread_insts += 1;
        if fetched.inst.op.is_load() {
            pipe.stats.pthread_loads += 1;
        }
        let mut deps: Vec<SeqId> = Vec::new();
        for src in fetched.inst.live_srcs() {
            if let Some(p) = pipe.ctxs[PTHREAD_CTX.0].rename[src.index()] {
                if pipe.ruu.get(p).is_some_and(|pe| pe.state != EState::Done) {
                    deps.push(p);
                }
            }
        }
        if fetched.inst.op.is_load() {
            if let Some(addr) = eff_addr {
                let w = fetched.inst.op.mem_width() as u64;
                for &(sid, saddr, swidth) in &pipe.ctxs[PTHREAD_CTX.0].stores {
                    if addr < saddr + swidth as u64 && saddr < addr + w {
                        deps.push(sid);
                    }
                }
            }
        }
        deps.sort_unstable();
        deps.dedup();
        let pending = deps.len() as u32;
        let state = if pending == 0 {
            EState::Ready
        } else {
            EState::Waiting
        };
        let id = pipe.ruu.insert(RuuEntry {
            seq,
            ctx: PTHREAD_CTX,
            pc: fetched.pc,
            inst: fetched.inst,
            state,
            pending,
            complete_at: 0,
            eff_addr,
            wrong_path: false,
            is_halt: false,
            is_trigger_dload: is_trigger,
            dst_val: None,
            dispatch_cycle: pipe.cycle,
            mem_missed: false,
            dload_owner: owner,
            fetch_cycle: fetched.fetch_cycle,
            issue_cycle: 0,
            episode: self.episode_id,
        });
        if let Some(d) = fetched.inst.dst() {
            pipe.ctxs[PTHREAD_CTX.0].rename[d.index()] = Some(id);
        }
        if fetched.inst.op.is_store() {
            if let Some(addr) = eff_addr {
                pipe.ctxs[PTHREAD_CTX.0]
                    .stores
                    .push((id, addr, fetched.inst.op.mem_width()));
            }
        }
        for &d in &deps {
            pipe.ruu.add_consumer(d, id);
        }
        if state == EState::Ready {
            pipe.ctxs[PTHREAD_CTX.0].ready.insert(id);
        }
        pipe.ctxs[PTHREAD_CTX.0].order.push_back(id);
    }
}

impl FrontEndExt for SpearFrontEnd<'_> {
    fn pre_decode(&self, pc: u32) -> PreDecode {
        PreDecode {
            marked: self.marked_pcs.get(pc as usize).copied().unwrap_or(false),
            dload: self.dload_idx.contains_key(&pc),
        }
    }

    /// PD: a d-load detection may trigger pre-execution (§3.2), or re-arm
    /// a flush-orphaned episode onto this fresh instance.
    fn on_dload_fetched(&mut self, pipe: &mut Pipeline, ifq_seq: u64, pc: u32) {
        let threshold = (pipe.ifq.capacity() as f64 * self.cfg.trigger_fraction) as usize;
        if self.retarget_deadline.is_some() && self.mode_dload_pc() == Some(pc) {
            // Re-arm only once the queue again holds enough slack for the
            // refetched instance to be worth chasing.
            if pipe.ifq.len() >= threshold {
                self.rearm_trigger(pipe, ifq_seq);
            }
        } else {
            let pt_idx = self.dload_idx[&pc];
            self.consider_trigger(pipe, ifq_seq, pt_idx);
        }
    }

    fn update(&mut self, pipe: &mut Pipeline) {
        if let Some(deadline) = self.retarget_deadline {
            if pipe.cycle > deadline {
                self.retarget_deadline = None;
                if self.mode != Mode::Normal {
                    if let Some(pc) = self.mode_dload_pc() {
                        self.episode_tally.entry(pc).or_default().aborted += 1;
                    }
                    self.mode = Mode::Normal;
                    pipe.stats.preexec_aborted_flush += 1;
                    self.record_episode_end(pipe);
                }
            }
        }
        match self.mode.clone() {
            Mode::DrainWait {
                dload_seq,
                dload_pc,
                pt_idx,
                deadline,
            } => {
                let drained = self.pt_entries[pt_idx].live_ins.iter().all(|r| {
                    match pipe.ctxs[MAIN_CTX.0].rename[r.index()] {
                        None => true,
                        Some(p) => pipe.ruu.get(p).is_none_or(|e| e.state == EState::Done),
                    }
                });
                if drained || pipe.cycle >= deadline {
                    let n = self.pt_entries[pt_idx].live_ins.len() as u32;
                    let per = self.cfg.livein_cycles_per_reg;
                    self.mode = Mode::CopyLiveIns {
                        remaining: n * per,
                        dload_seq,
                        dload_pc,
                        pt_idx,
                    };
                }
            }
            Mode::CopyLiveIns {
                remaining,
                dload_seq,
                dload_pc,
                pt_idx,
            } => {
                if remaining > 0 {
                    pipe.stats.livein_copy_cycles += 1;
                    self.mode = Mode::CopyLiveIns {
                        remaining: remaining - 1,
                        dload_seq,
                        dload_pc,
                        pt_idx,
                    };
                } else {
                    // Copy each live-in's *freshest completed* value: the
                    // youngest completed in-flight writer's result (read
                    // from its physical register), else the committed
                    // architectural value. In-flight-but-incomplete
                    // writers have no forwardable value yet.
                    let entry = &self.pt_entries[pt_idx];
                    let vals: Vec<(spear_isa::Reg, u64)> = entry
                        .live_ins
                        .iter()
                        .map(|&r| (r, pipe.freshest_value(r)))
                        .collect();
                    let n = entry.live_ins.len();
                    let ctx = &mut pipe.ctxs[PTHREAD_CTX.0];
                    ctx.reset_spec_state();
                    for (r, v) in vals {
                        ctx.regs.write_u64(r, v);
                    }
                    pipe.ifq.reset_scan();
                    pipe.emit(|cycle| Event::LiveInsCopied { cycle, count: n });
                    self.mode = Mode::PreExec {
                        dload_seq,
                        dload_pc,
                        extraction_done: false,
                    };
                }
            }
            Mode::Normal | Mode::PreExec { .. } => {}
        }
    }

    /// PE extraction (§3.2): pull up to `pe_bandwidth` marked entries
    /// from the IFQ scan position into the p-thread RUU.
    fn extract(&mut self, pipe: &mut Pipeline) -> DecodePort {
        let Mode::PreExec {
            dload_seq,
            dload_pc,
            extraction_done,
        } = self.mode
        else {
            return DecodePort::default();
        };
        if extraction_done {
            return DecodePort::default();
        }
        let pth_cap = self.cfg.pthread_ruu_size;
        let mut used = 0;
        while used < self.cfg.pe_bandwidth {
            if pipe.ctxs[PTHREAD_CTX.0].order.len() >= pth_cap {
                break;
            }
            let Some(entry) = pipe.ifq.extract_next_marked() else {
                break;
            };
            used += 1;
            let is_trigger = entry.seq == dload_seq;
            let pc = entry.pc;
            self.episode_extracted += 1;
            pipe.emit(|cycle| Event::Extract {
                cycle,
                pc,
                is_trigger,
                ctx: PTHREAD_CTX.0,
            });
            self.dispatch_pthread(pipe, &entry, is_trigger);
            if is_trigger {
                if let Mode::PreExec { .. } = self.mode {
                    self.mode = Mode::PreExec {
                        dload_seq,
                        dload_pc,
                        extraction_done: true,
                    };
                }
                break;
            }
        }
        DecodePort { pe_used: used }
    }

    /// A marked instruction consumed by main decode while the PE is
    /// active was missed; if it is the triggering d-load, the episode can
    /// never finish — abort (or re-target) it.
    fn on_main_decode(&mut self, pipe: &mut Pipeline, seq: u64, marked: bool) {
        match self.mode {
            Mode::PreExec {
                dload_seq,
                dload_pc,
                extraction_done,
            } => {
                if marked {
                    pipe.stats.missed_extractions += 1;
                }
                if !extraction_done && seq == dload_seq {
                    self.retarget_or_abort(pipe, dload_pc);
                }
            }
            Mode::DrainWait {
                dload_seq,
                dload_pc,
                ..
            }
            | Mode::CopyLiveIns {
                dload_seq,
                dload_pc,
                ..
            } => {
                if seq == dload_seq {
                    self.retarget_or_abort(pipe, dload_pc);
                }
            }
            Mode::Normal => {}
        }
    }

    /// An active episode loses its IFQ entries, including the remembered
    /// trigger d-load entry. Paper behaviour: the episode dies with the
    /// queue. With the `rearm_after_flush` extension the p-thread context
    /// survives and the PD re-arms the trigger onto the next fetched
    /// instance of the same static d-load (abandoned if none shows up
    /// within the deadline).
    fn on_flush(&mut self, pipe: &mut Pipeline) {
        if self.mode == Mode::Normal {
            return;
        }
        if self.cfg.rearm_after_flush {
            self.retarget_deadline = Some(pipe.cycle + RETARGET_WINDOW);
        } else {
            if let Some(pc) = self.mode_dload_pc() {
                self.episode_tally.entry(pc).or_default().aborted += 1;
            }
            self.mode = Mode::Normal;
            pipe.stats.preexec_aborted_flush += 1;
            self.record_episode_end(pipe);
            pipe.emit(|cycle| Event::EpisodeAborted {
                cycle,
                reason: AbortReason::Flush,
            });
        }
    }

    /// The trigger d-load's retirement from the p-thread RUU completes
    /// the episode.
    fn on_ctx_retired(&mut self, pipe: &mut Pipeline, entry: &RuuEntry) {
        if !entry.is_trigger_dload {
            return;
        }
        if let Mode::PreExec { dload_pc, .. } = self.mode {
            self.mode = Mode::Normal;
            pipe.stats.preexec_completed += 1;
            self.episode_tally.entry(dload_pc).or_default().completed += 1;
            self.record_episode_end(pipe);
            pipe.emit(|cycle| Event::EpisodeComplete { cycle });
        }
    }

    /// Per-d-load effectiveness profiles, one row per p-thread table
    /// entry, sorted by static PC.
    fn harvest_profiles(&self, hier: &Hierarchy) -> Vec<DloadProfile> {
        let mut pcs: Vec<u32> = self.dload_idx.keys().copied().collect();
        pcs.sort_unstable();
        pcs.into_iter()
            .map(|pc| {
                let p = hier.dload_profile(pc);
                let t = self.episode_tally.get(&pc).copied().unwrap_or_default();
                DloadProfile {
                    dload_pc: pc,
                    demand_misses: hier.pc_misses.get(pc),
                    episodes_triggered: t.triggered,
                    episodes_completed: t.completed,
                    episodes_aborted: t.aborted,
                    pthread_loads: p.pthread_loads,
                    timely_prefetches: p.timely,
                    late_prefetches: p.late,
                    useless_prefetches: p.useless,
                }
            })
            .collect()
    }

    fn mode_name(&self) -> String {
        match self.mode {
            Mode::Normal => "normal".to_string(),
            Mode::DrainWait { .. } => format!("drain@{PTHREAD_CTX}"),
            Mode::CopyLiveIns { .. } => format!("copy@{PTHREAD_CTX}"),
            Mode::PreExec { .. } => format!("preexec@{PTHREAD_CTX}"),
        }
    }
}
