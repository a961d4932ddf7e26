//! Simulation statistics.

use crate::hist::Histogram;
use serde::{Deserialize, Serialize};
use spear_bpred::{PredStats, PredictorDetail};
use spear_mem::CacheStats;

/// Why commit slots went unused in a cycle. One cause is charged per
/// cycle for all of that cycle's lost slots, judged from the state of the
/// oldest in-flight instruction (the classic CPI-stack "blame the commit
/// head" rule), or from the front-end state when the window is empty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StallCause {
    /// Fetch blocked on an instruction-cache miss (empty window).
    IcacheStall,
    /// Window empty while the front end refills after a misprediction
    /// flush emptied the IFQ.
    IfqEmptyAfterFlush,
    /// Commit blocked on the unresolved mispredicted branch itself.
    BranchRecovery,
    /// Commit head is a memory operation waiting on a cache miss (the
    /// latency SPEAR exists to hide).
    DloadMiss,
    /// Commit head is executing a long-latency operation, or is ready but
    /// was denied a functional unit.
    FuBusy,
    /// Commit head is a ready memory operation that could not get a
    /// memory port.
    MemPortContention,
    /// Commit head was ready but the p-thread consumed the issue slots or
    /// ports it needed (the cost side of pre-execution).
    PthreadContention,
    /// Anything else: cold-start, decode/dispatch refill, post-halt
    /// drain, runaway wrong-path fetch.
    FrontendOther,
}

/// CPI-stack cycle accounting: every cycle has `commit_width` commit
/// slots; each is either used by a committing instruction
/// (`useful_slots`) or charged to exactly one [`StallCause`]. The strict
/// invariant `useful_slots + lost_slots() == cycles * commit_width` makes
/// SPEAR-vs-baseline IPC deltas decompose into recovered stall cycles.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CycleAccount {
    /// Commit slots filled by retiring main-thread instructions.
    pub useful_slots: u64,
    /// Slot-cycles lost to instruction-fetch stalls.
    pub icache_stall: u64,
    /// Slot-cycles lost refilling the pipe after a misprediction flush.
    pub ifq_empty_after_flush: u64,
    /// Slot-cycles lost waiting on the mispredicted branch to resolve.
    pub branch_recovery: u64,
    /// Slot-cycles lost to outstanding data-cache misses at commit head.
    pub dload_miss: u64,
    /// Slot-cycles lost to busy/denied functional units.
    pub fu_busy: u64,
    /// Slot-cycles lost to memory-port contention.
    pub mem_port_contention: u64,
    /// Slot-cycles lost to p-thread resource contention.
    pub pthread_contention: u64,
    /// Slot-cycles lost to other front-end causes (cold start, dispatch
    /// refill, post-halt drain).
    pub frontend_other: u64,
    /// Auxiliary (outside the slot-sum invariant): cycles dispatch was
    /// blocked by a full RUU with instructions waiting in the IFQ.
    pub ruu_full_cycles: u64,
}

impl CycleAccount {
    /// Charge `slots` lost commit slots to `cause`.
    pub fn charge(&mut self, cause: StallCause, slots: u64) {
        let field = match cause {
            StallCause::IcacheStall => &mut self.icache_stall,
            StallCause::IfqEmptyAfterFlush => &mut self.ifq_empty_after_flush,
            StallCause::BranchRecovery => &mut self.branch_recovery,
            StallCause::DloadMiss => &mut self.dload_miss,
            StallCause::FuBusy => &mut self.fu_busy,
            StallCause::MemPortContention => &mut self.mem_port_contention,
            StallCause::PthreadContention => &mut self.pthread_contention,
            StallCause::FrontendOther => &mut self.frontend_other,
        };
        *field += slots;
    }

    /// Lost slot-cycles summed over every cause (excludes the auxiliary
    /// `ruu_full_cycles` backpressure counter).
    pub fn lost_slots(&self) -> u64 {
        self.icache_stall
            + self.ifq_empty_after_flush
            + self.branch_recovery
            + self.dload_miss
            + self.fu_busy
            + self.mem_port_contention
            + self.pthread_contention
            + self.frontend_other
    }

    /// Total accounted slot-cycles; equals `cycles * commit_width`.
    pub fn total_slots(&self) -> u64 {
        self.useful_slots + self.lost_slots()
    }

    /// Add another account's slot-cycles to this one. The exact-slot
    /// invariant is preserved: if both inputs satisfy
    /// `useful_slots + lost_slots() == cycles * commit_width` for their
    /// own cycle counts, the sum satisfies it for the summed cycles.
    pub fn merge(&mut self, other: &CycleAccount) {
        self.useful_slots += other.useful_slots;
        self.icache_stall += other.icache_stall;
        self.ifq_empty_after_flush += other.ifq_empty_after_flush;
        self.branch_recovery += other.branch_recovery;
        self.dload_miss += other.dload_miss;
        self.fu_busy += other.fu_busy;
        self.mem_port_contention += other.mem_port_contention;
        self.pthread_contention += other.pthread_contention;
        self.frontend_other += other.frontend_other;
        self.ruu_full_cycles += other.ruu_full_cycles;
    }

    /// Add `weight` copies of another account's slot-cycles to this one
    /// (integer scale-then-sum; see [`CoreStats::merge_scaled`]). Because
    /// every field scales linearly, the exact-slot invariant is preserved
    /// for the weighted cycle total.
    pub fn merge_scaled(&mut self, other: &CycleAccount, weight: u64) {
        self.useful_slots += other.useful_slots * weight;
        self.icache_stall += other.icache_stall * weight;
        self.ifq_empty_after_flush += other.ifq_empty_after_flush * weight;
        self.branch_recovery += other.branch_recovery * weight;
        self.dload_miss += other.dload_miss * weight;
        self.fu_busy += other.fu_busy * weight;
        self.mem_port_contention += other.mem_port_contention * weight;
        self.pthread_contention += other.pthread_contention * weight;
        self.frontend_other += other.frontend_other * weight;
        self.ruu_full_cycles += other.ruu_full_cycles * weight;
    }

    /// `(label, slot-cycles)` for each lost-slot cause, in a stable
    /// reporting order (largest architectural causes first).
    pub fn causes(&self) -> [(&'static str, u64); 8] {
        [
            ("d-load miss", self.dload_miss),
            ("branch recovery", self.branch_recovery),
            ("IFQ empty after flush", self.ifq_empty_after_flush),
            ("I-cache stall", self.icache_stall),
            ("FU busy", self.fu_busy),
            ("memory-port contention", self.mem_port_contention),
            ("p-thread contention", self.pthread_contention),
            ("front-end other", self.frontend_other),
        ]
    }
}

/// Per-static-d-load prefetch effectiveness: how one p-thread's target
/// load fared over the run. Every p-thread load access lands in exactly
/// one of the timely/late/useless buckets, so
/// `timely + late + useless == pthread_loads`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct DloadProfile {
    /// Static PC of the delinquent load this p-thread targets.
    pub dload_pc: u32,
    /// Main-thread L1D demand misses at this PC.
    pub demand_misses: u64,
    /// Pre-execution episodes triggered for this d-load.
    pub episodes_triggered: u64,
    /// Episodes that ran to d-load retirement.
    pub episodes_completed: u64,
    /// Episodes aborted (flush, missed trigger, fault, re-arm timeout).
    pub episodes_aborted: u64,
    /// P-thread load accesses issued to the data cache for this d-load.
    pub pthread_loads: u64,
    /// Prefetched lines the main thread hit after the fill completed.
    pub timely_prefetches: u64,
    /// Prefetched lines the main thread touched while still in flight.
    pub late_prefetches: u64,
    /// Prefetches never used: redundant, evicted before use, or
    /// unclaimed at the end of the run.
    pub useless_prefetches: u64,
}

impl DloadProfile {
    /// Fraction of p-thread loads that helped (timely or late).
    pub fn accuracy(&self) -> f64 {
        if self.pthread_loads == 0 {
            0.0
        } else {
            (self.timely_prefetches + self.late_prefetches) as f64 / self.pthread_loads as f64
        }
    }
}

/// One closed telemetry window: deltas of the headline counters over a
/// fixed span of cycles (default 10k, `--window <n>`). Windows are the
/// substrate for time-series views of a run (IPC over time, CPI-stack
/// phases, MPKI spikes) and for SimPoint-style phase clustering.
///
/// Each window satisfies the exact-slot invariant on its own:
/// `cycle_account.total_slots() == cycles * commit_width`.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowStat {
    /// Window ordinal within its run (0-based).
    pub index: u64,
    /// First cycle covered by the window.
    pub start_cycle: u64,
    /// Cycles covered (the last window of a run may be partial).
    pub cycles: u64,
    /// Main-thread instructions committed inside the window.
    pub committed: u64,
    /// L1D misses (read + write) inside the window.
    pub l1d_misses: u64,
    /// L2 misses (read + write) inside the window.
    pub l2_misses: u64,
    /// Sum of per-cycle IFQ occupancy over the window (divide by
    /// `cycles` for the mean).
    pub ifq_occupancy_sum: u64,
    /// Pre-execution episodes started inside the window.
    pub triggers_accepted: u64,
    /// Episodes completed inside the window.
    pub episodes_completed: u64,
    /// Episodes aborted (flush, missed trigger, fault) inside the window.
    pub episodes_aborted: u64,
    /// CPI-stack slot deltas for the window.
    pub cycle_account: CycleAccount,
}

impl WindowStat {
    /// Committed instructions per cycle inside the window.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// L1D misses per kilo-instruction inside the window.
    pub fn l1d_mpki(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.l1d_misses as f64 * 1000.0 / self.committed as f64
        }
    }

    /// L2 misses per kilo-instruction inside the window.
    pub fn l2_mpki(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.l2_misses as f64 * 1000.0 / self.committed as f64
        }
    }

    /// Mean IFQ occupancy over the window.
    pub fn mean_ifq_occupancy(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.ifq_occupancy_sum as f64 / self.cycles as f64
        }
    }

    /// The stall cause that lost the most commit slots in this window.
    pub fn top_stall_cause(&self) -> (&'static str, u64) {
        self.cycle_account
            .causes()
            .into_iter()
            .max_by_key(|&(_, n)| n)
            .unwrap_or(("front-end other", 0))
    }
}

/// Counters accumulated by one simulation run.
///
/// The `windows` and `bpred_detail` fields are *omitted* from JSON when
/// empty so that runs without windowed telemetry or predictor internals
/// serialize byte-identically to the older schema (the golden envelopes
/// pin this), and default when absent on the way back in.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CoreStats {
    /// Cycles simulated.
    pub cycles: u64,
    /// Main-thread instructions committed.
    pub committed: u64,
    /// Main-thread loads committed.
    pub committed_loads: u64,
    /// Main-thread stores committed.
    pub committed_stores: u64,
    /// Main-thread control-flow instructions committed (for IPB).
    pub committed_branches: u64,
    /// Instructions fetched (true and wrong path).
    pub fetched: u64,
    /// Wrong-path instructions dispatched and later squashed.
    pub squashed: u64,
    /// Branch mispredictions recovered.
    pub recoveries: u64,

    // ---- SPEAR-specific ------------------------------------------------
    /// Triggers accepted (pre-execution episodes started).
    pub triggers_accepted: u64,
    /// D-load detections ignored because a pre-execution episode was
    /// already in progress (the paper's "excessive triggering" signal).
    pub triggers_ignored_busy: u64,
    /// D-load detections rejected by the IFQ-occupancy condition.
    pub triggers_rejected_occupancy: u64,
    /// Episodes abandoned after a branch-misprediction IFQ flush (no
    /// refetched d-load instance arrived within the re-arm window).
    pub preexec_aborted_flush: u64,
    /// Episodes re-armed onto a refetched d-load instance after a flush.
    pub preexec_retargets: u64,
    /// Episodes aborted because the main thread decoded the triggering
    /// d-load before the PE could extract it.
    pub preexec_aborted_missed: u64,
    /// Episodes that ran to d-load retirement.
    pub preexec_completed: u64,
    /// P-thread instructions extracted and executed.
    pub pthread_insts: u64,
    /// P-thread loads executed (prefetches issued).
    pub pthread_loads: u64,
    /// Marked instructions consumed by main decode before extraction.
    pub missed_extractions: u64,
    /// Cycles spent copying live-ins.
    pub livein_copy_cycles: u64,
    /// P-thread instructions dropped because their speculative address
    /// faulted.
    pub pthread_faults: u64,

    // ---- substrates ----------------------------------------------------
    /// Branch predictor statistics.
    pub bpred: PredStats,
    /// L1 data cache statistics.
    pub l1d: CacheStats,
    /// Unified L2 statistics.
    pub l2: CacheStats,
    /// L1D misses attributed to main-thread accesses.
    pub l1d_main_misses: u64,
    /// L1D misses incurred by p-thread prefetch accesses.
    pub l1d_pthread_misses: u64,
    /// Main-thread L1 hits on lines the p-thread prefetched (useful
    /// prefetches — the paper's future-work "actual effectiveness of the
    /// p-thread execution").
    pub useful_prefetches: u64,
    /// Main-thread accesses that merged into a still-in-flight p-thread
    /// fill (late prefetches: partially hidden latency).
    pub late_prefetches: u64,
    /// Distribution of episode durations (cycles from trigger acceptance
    /// to completion or abort).
    pub episode_cycles: Histogram,
    /// Distribution of instructions extracted per episode.
    pub episode_extractions: Histogram,

    // ---- telemetry -----------------------------------------------------
    /// CPI-stack cycle accounting (commit-slot attribution).
    pub cycle_account: CycleAccount,
    /// Per-static-d-load prefetch effectiveness profiles, sorted by PC.
    pub dload_profiles: Vec<DloadProfile>,
    /// Windowed interval telemetry (empty unless windows were enabled).
    /// Omitted from JSON when empty; see the type-level serde note.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub windows: Vec<WindowStat>,
    /// Predictor-internal counters (e.g. TAGE provider/allocation
    /// activity). `None` for predictors with no internals to report —
    /// including the paper's default bimodal — and omitted from JSON so
    /// default-config envelopes stay byte-identical to the pre-trait
    /// schema.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub bpred_detail: Option<PredictorDetail>,
}

impl CoreStats {
    /// Main-thread instructions per cycle — the paper's metric ("the
    /// performance is measured in terms of IPC of the main program
    /// thread").
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.committed as f64 / self.cycles as f64
        }
    }

    /// Instructions per branch (Table 3).
    pub fn ipb(&self) -> f64 {
        if self.committed_branches == 0 {
            self.committed as f64
        } else {
            self.committed as f64 / self.committed_branches as f64
        }
    }

    /// Branch direction hit ratio (Table 3).
    pub fn branch_hit_ratio(&self) -> f64 {
        self.bpred.hit_ratio()
    }

    /// Check the structural invariants every completed run must satisfy,
    /// independent of workload or configuration. Returns a description of
    /// the first violation found, or `Ok(())`.
    ///
    /// Checked:
    /// * exact-slot CPI accounting — `useful_slots + lost_slots()` must
    ///   equal `cycles * commit_width` (every commit slot of every cycle
    ///   is either used or charged to exactly one stall cause);
    /// * per-d-load prefetch partition — each profile's
    ///   `timely + late + useless` must equal its `pthread_loads` (every
    ///   p-thread load access lands in exactly one bucket);
    /// * profile ordering — `dload_profiles` sorted by PC with no
    ///   duplicates (merge and reporting rely on it);
    /// * committed breakdown — loads + stores + branches cannot exceed
    ///   the committed total;
    /// * global prefetch tallies — summed profile buckets cannot exceed
    ///   the global `pthread_loads`, and the run-wide useful/late
    ///   counters must match the profile sums (profiles partition all
    ///   p-thread prefetch traffic);
    /// * window partition — when windowed telemetry is present, the
    ///   windows partition the run exactly: per-window cycles and
    ///   committed counts sum to the global totals, and each window
    ///   satisfies the exact-slot invariant on its own.
    pub fn check_invariants(&self, commit_width: usize) -> Result<(), String> {
        let total = self.cycle_account.total_slots();
        let expect = self.cycles * commit_width as u64;
        if total != expect {
            return Err(format!(
                "CPI slot accounting broken: useful {} + lost {} = {} slots, \
                 but {} cycles x width {} = {}",
                self.cycle_account.useful_slots,
                self.cycle_account.lost_slots(),
                total,
                self.cycles,
                commit_width,
                expect
            ));
        }
        if self.committed_loads + self.committed_stores + self.committed_branches > self.committed {
            return Err(format!(
                "committed breakdown exceeds total: {} loads + {} stores + {} branches > {}",
                self.committed_loads,
                self.committed_stores,
                self.committed_branches,
                self.committed
            ));
        }
        let mut timely = 0u64;
        let mut late = 0u64;
        let mut useless = 0u64;
        let mut prev_pc: Option<u32> = None;
        for p in &self.dload_profiles {
            if let Some(prev) = prev_pc {
                if p.dload_pc <= prev {
                    return Err(format!(
                        "dload_profiles not strictly sorted by PC: {:#x} after {:#x}",
                        p.dload_pc, prev
                    ));
                }
            }
            prev_pc = Some(p.dload_pc);
            let sum = p.timely_prefetches + p.late_prefetches + p.useless_prefetches;
            if sum != p.pthread_loads {
                return Err(format!(
                    "d-load {:#x} prefetch partition broken: timely {} + late {} + useless {} \
                     = {} != pthread_loads {}",
                    p.dload_pc,
                    p.timely_prefetches,
                    p.late_prefetches,
                    p.useless_prefetches,
                    sum,
                    p.pthread_loads
                ));
            }
            timely += p.timely_prefetches;
            late += p.late_prefetches;
            useless += p.useless_prefetches;
        }
        if timely + late + useless > self.pthread_loads {
            return Err(format!(
                "profile buckets exceed global pthread_loads: {} + {} + {} > {}",
                timely, late, useless, self.pthread_loads
            ));
        }
        if timely != self.useful_prefetches {
            return Err(format!(
                "profile timely sum {} != run-wide useful_prefetches {}",
                timely, self.useful_prefetches
            ));
        }
        if late != self.late_prefetches {
            return Err(format!(
                "profile late sum {} != run-wide late_prefetches {}",
                late, self.late_prefetches
            ));
        }
        if !self.windows.is_empty() {
            let wcycles: u64 = self.windows.iter().map(|w| w.cycles).sum();
            if wcycles != self.cycles {
                return Err(format!(
                    "window partition broken: per-window cycles sum {} != total cycles {}",
                    wcycles, self.cycles
                ));
            }
            let wcommitted: u64 = self.windows.iter().map(|w| w.committed).sum();
            if wcommitted != self.committed {
                return Err(format!(
                    "window partition broken: per-window committed sum {} != total committed {}",
                    wcommitted, self.committed
                ));
            }
            for w in &self.windows {
                let total = w.cycle_account.total_slots();
                let expect = w.cycles * commit_width as u64;
                if total != expect {
                    return Err(format!(
                        "window {} CPI slot accounting broken: {} slots, \
                         but {} cycles x width {} = {}",
                        w.index, total, w.cycles, commit_width, expect
                    ));
                }
            }
        }
        Ok(())
    }

    /// Fold another run's counters into this one, as if the two simulated
    /// regions had been one run. Used by the sampling campaign to build a
    /// weighted aggregate over simulated intervals: every counter is a
    /// plain sum, histograms merge bucket-wise, and per-d-load profiles
    /// merge by static PC (the output stays sorted by PC). Because each
    /// interval satisfies the exact-slot CPI invariant on its own, the
    /// aggregate satisfies it over the summed cycles.
    ///
    /// Windowed telemetry merges by concatenation: `other`'s windows are
    /// appended after `self`'s in order, each keeping its own run-local
    /// `index`/`start_cycle`. The window partition invariant (cycles and
    /// committed sums match the global totals) is therefore exact across
    /// merges as long as either both sides carry windows or both are
    /// empty.
    pub fn merge(&mut self, other: &CoreStats) {
        self.cycles += other.cycles;
        self.committed += other.committed;
        self.committed_loads += other.committed_loads;
        self.committed_stores += other.committed_stores;
        self.committed_branches += other.committed_branches;
        self.fetched += other.fetched;
        self.squashed += other.squashed;
        self.recoveries += other.recoveries;
        self.triggers_accepted += other.triggers_accepted;
        self.triggers_ignored_busy += other.triggers_ignored_busy;
        self.triggers_rejected_occupancy += other.triggers_rejected_occupancy;
        self.preexec_aborted_flush += other.preexec_aborted_flush;
        self.preexec_retargets += other.preexec_retargets;
        self.preexec_aborted_missed += other.preexec_aborted_missed;
        self.preexec_completed += other.preexec_completed;
        self.pthread_insts += other.pthread_insts;
        self.pthread_loads += other.pthread_loads;
        self.missed_extractions += other.missed_extractions;
        self.livein_copy_cycles += other.livein_copy_cycles;
        self.pthread_faults += other.pthread_faults;
        self.bpred.cond_branches += other.bpred.cond_branches;
        self.bpred.cond_correct += other.bpred.cond_correct;
        self.bpred.indirect += other.bpred.indirect;
        self.bpred.indirect_correct += other.bpred.indirect_correct;
        for (mine, theirs) in [(&mut self.l1d, &other.l1d), (&mut self.l2, &other.l2)] {
            mine.reads += theirs.reads;
            mine.writes += theirs.writes;
            mine.read_misses += theirs.read_misses;
            mine.write_misses += theirs.write_misses;
            mine.writebacks += theirs.writebacks;
        }
        self.l1d_main_misses += other.l1d_main_misses;
        self.l1d_pthread_misses += other.l1d_pthread_misses;
        self.useful_prefetches += other.useful_prefetches;
        self.late_prefetches += other.late_prefetches;
        self.episode_cycles.merge(&other.episode_cycles);
        self.episode_extractions.merge(&other.episode_extractions);
        self.cycle_account.merge(&other.cycle_account);
        for p in &other.dload_profiles {
            match self
                .dload_profiles
                .binary_search_by_key(&p.dload_pc, |d| d.dload_pc)
            {
                Ok(i) => {
                    let d = &mut self.dload_profiles[i];
                    d.demand_misses += p.demand_misses;
                    d.episodes_triggered += p.episodes_triggered;
                    d.episodes_completed += p.episodes_completed;
                    d.episodes_aborted += p.episodes_aborted;
                    d.pthread_loads += p.pthread_loads;
                    d.timely_prefetches += p.timely_prefetches;
                    d.late_prefetches += p.late_prefetches;
                    d.useless_prefetches += p.useless_prefetches;
                }
                Err(i) => self.dload_profiles.insert(i, p.clone()),
            }
        }
        self.windows.extend(other.windows.iter().cloned());
        match (&mut self.bpred_detail, &other.bpred_detail) {
            (Some(mine), Some(theirs)) => mine.merge(theirs),
            (None, Some(theirs)) => self.bpred_detail = Some(theirs.clone()),
            _ => {}
        }
    }

    /// Fold `weight` copies of another run's counters into this one —
    /// exactly equivalent to calling [`CoreStats::merge`] with `other`
    /// `weight` times, but in O(1) integer arithmetic, so the result is
    /// bit-exact regardless of how the work was scheduled. This is the
    /// SimPoint reconstitution step: one representative interval's
    /// statistics stand in for every interval of its phase, so the
    /// whole-program aggregate is the phase-count-weighted sum of the
    /// representatives.
    ///
    /// Every counter scales linearly (including both histograms' value
    /// distributions and the per-d-load profiles), so all structural
    /// invariants checked by [`CoreStats::check_invariants`] — exact-slot
    /// CPI accounting over the scaled cycles, the prefetch partition, the
    /// committed breakdown — are preserved. The one non-linear statistic
    /// is the histogram `max`, an order statistic that is the same for 1
    /// copy or `weight` copies.
    ///
    /// Windowed telemetry does *not* scale: repeating a window `weight`
    /// times would need `weight` copies with shifted `start_cycle`s to
    /// keep the window partition exact, which is precisely the detail a
    /// blended estimate cannot reconstruct. Callers must not mix windows
    /// with weighted merging (the campaign engine rejects
    /// `--simpoint --window` up front); a weighted merge of windowed
    /// stats panics in debug builds.
    pub fn merge_scaled(&mut self, other: &CoreStats, weight: u64) {
        if weight == 1 {
            self.merge(other);
            return;
        }
        debug_assert!(
            other.windows.is_empty() || weight == 0,
            "windowed telemetry cannot be weight-blended"
        );
        if weight == 0 {
            return;
        }
        self.cycles += other.cycles * weight;
        self.committed += other.committed * weight;
        self.committed_loads += other.committed_loads * weight;
        self.committed_stores += other.committed_stores * weight;
        self.committed_branches += other.committed_branches * weight;
        self.fetched += other.fetched * weight;
        self.squashed += other.squashed * weight;
        self.recoveries += other.recoveries * weight;
        self.triggers_accepted += other.triggers_accepted * weight;
        self.triggers_ignored_busy += other.triggers_ignored_busy * weight;
        self.triggers_rejected_occupancy += other.triggers_rejected_occupancy * weight;
        self.preexec_aborted_flush += other.preexec_aborted_flush * weight;
        self.preexec_retargets += other.preexec_retargets * weight;
        self.preexec_aborted_missed += other.preexec_aborted_missed * weight;
        self.preexec_completed += other.preexec_completed * weight;
        self.pthread_insts += other.pthread_insts * weight;
        self.pthread_loads += other.pthread_loads * weight;
        self.missed_extractions += other.missed_extractions * weight;
        self.livein_copy_cycles += other.livein_copy_cycles * weight;
        self.pthread_faults += other.pthread_faults * weight;
        self.bpred.cond_branches += other.bpred.cond_branches * weight;
        self.bpred.cond_correct += other.bpred.cond_correct * weight;
        self.bpred.indirect += other.bpred.indirect * weight;
        self.bpred.indirect_correct += other.bpred.indirect_correct * weight;
        for (mine, theirs) in [(&mut self.l1d, &other.l1d), (&mut self.l2, &other.l2)] {
            mine.reads += theirs.reads * weight;
            mine.writes += theirs.writes * weight;
            mine.read_misses += theirs.read_misses * weight;
            mine.write_misses += theirs.write_misses * weight;
            mine.writebacks += theirs.writebacks * weight;
        }
        self.l1d_main_misses += other.l1d_main_misses * weight;
        self.l1d_pthread_misses += other.l1d_pthread_misses * weight;
        self.useful_prefetches += other.useful_prefetches * weight;
        self.late_prefetches += other.late_prefetches * weight;
        self.episode_cycles
            .merge_scaled(&other.episode_cycles, weight);
        self.episode_extractions
            .merge_scaled(&other.episode_extractions, weight);
        self.cycle_account
            .merge_scaled(&other.cycle_account, weight);
        for p in &other.dload_profiles {
            match self
                .dload_profiles
                .binary_search_by_key(&p.dload_pc, |d| d.dload_pc)
            {
                Ok(i) => {
                    let d = &mut self.dload_profiles[i];
                    d.demand_misses += p.demand_misses * weight;
                    d.episodes_triggered += p.episodes_triggered * weight;
                    d.episodes_completed += p.episodes_completed * weight;
                    d.episodes_aborted += p.episodes_aborted * weight;
                    d.pthread_loads += p.pthread_loads * weight;
                    d.timely_prefetches += p.timely_prefetches * weight;
                    d.late_prefetches += p.late_prefetches * weight;
                    d.useless_prefetches += p.useless_prefetches * weight;
                }
                Err(i) => {
                    let mut scaled = p.clone();
                    scaled.demand_misses *= weight;
                    scaled.episodes_triggered *= weight;
                    scaled.episodes_completed *= weight;
                    scaled.episodes_aborted *= weight;
                    scaled.pthread_loads *= weight;
                    scaled.timely_prefetches *= weight;
                    scaled.late_prefetches *= weight;
                    scaled.useless_prefetches *= weight;
                    self.dload_profiles.insert(i, scaled);
                }
            }
        }
        if let Some(theirs) = &other.bpred_detail {
            let mut scaled = theirs.clone();
            for (_, v) in &mut scaled.counters {
                *v *= weight;
            }
            match &mut self.bpred_detail {
                Some(m) => m.merge(&scaled),
                None => self.bpred_detail = Some(scaled),
            }
        }
    }
}

/// How a run ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RunExit {
    /// The program's `halt` committed.
    Halted,
    /// The cycle budget was exhausted first.
    CycleBudget,
    /// The committed-instruction budget was exhausted first.
    InstBudget,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_ipb() {
        let s = CoreStats {
            cycles: 100,
            committed: 250,
            committed_branches: 50,
            ..Default::default()
        };
        assert_eq!(s.ipc(), 2.5);
        assert_eq!(s.ipb(), 5.0);
    }

    #[test]
    fn zero_cycle_ipc_is_zero() {
        assert_eq!(CoreStats::default().ipc(), 0.0);
    }

    #[test]
    fn cycle_account_charges_and_sums() {
        let mut a = CycleAccount {
            useful_slots: 10,
            ..Default::default()
        };
        a.charge(StallCause::DloadMiss, 7);
        a.charge(StallCause::FrontendOther, 3);
        a.charge(StallCause::DloadMiss, 2);
        a.ruu_full_cycles = 99; // auxiliary: must not enter the sum
        assert_eq!(a.dload_miss, 9);
        assert_eq!(a.lost_slots(), 12);
        assert_eq!(a.total_slots(), 22);
        let total: u64 = a.causes().iter().map(|(_, n)| n).sum();
        assert_eq!(total, a.lost_slots(), "causes() must cover every cause");
    }

    #[test]
    fn dload_profile_accuracy() {
        let p = DloadProfile {
            pthread_loads: 10,
            timely_prefetches: 6,
            late_prefetches: 2,
            useless_prefetches: 2,
            ..Default::default()
        };
        assert!((p.accuracy() - 0.8).abs() < 1e-12);
        assert_eq!(DloadProfile::default().accuracy(), 0.0);
    }

    #[test]
    fn merge_sums_counters_and_keeps_slot_invariant() {
        let width = 8u64;
        let mut a = CoreStats {
            cycles: 10,
            committed: 40,
            l1d_main_misses: 3,
            ..Default::default()
        };
        a.cycle_account.useful_slots = 40;
        a.cycle_account.dload_miss = 40; // 40 + 40 = 10 * 8
        a.dload_profiles = vec![DloadProfile {
            dload_pc: 5,
            demand_misses: 2,
            ..Default::default()
        }];
        a.episode_cycles.record(16);
        let mut b = CoreStats {
            cycles: 5,
            committed: 12,
            l1d_main_misses: 1,
            ..Default::default()
        };
        b.cycle_account.useful_slots = 12;
        b.cycle_account.frontend_other = 28; // 12 + 28 = 5 * 8
        b.dload_profiles = vec![
            DloadProfile {
                dload_pc: 3,
                demand_misses: 1,
                ..Default::default()
            },
            DloadProfile {
                dload_pc: 5,
                pthread_loads: 4,
                ..Default::default()
            },
        ];
        a.merge(&b);
        assert_eq!(a.cycles, 15);
        assert_eq!(a.committed, 52);
        assert_eq!(a.l1d_main_misses, 4);
        assert_eq!(
            a.cycle_account.total_slots(),
            a.cycles * width,
            "exact-slot invariant survives merging"
        );
        assert_eq!(a.episode_cycles.count(), 1);
        let pcs: Vec<u32> = a.dload_profiles.iter().map(|d| d.dload_pc).collect();
        assert_eq!(pcs, vec![3, 5], "profiles merged by PC, sorted");
        let d5 = &a.dload_profiles[1];
        assert_eq!(d5.demand_misses, 2);
        assert_eq!(d5.pthread_loads, 4);
    }

    #[test]
    fn merge_scaled_matches_repeated_merges_exactly() {
        let width = 8u64;
        let mut interval = CoreStats {
            cycles: 10,
            committed: 40,
            committed_loads: 9,
            committed_stores: 4,
            committed_branches: 6,
            l1d_main_misses: 3,
            pthread_loads: 4,
            useful_prefetches: 1,
            late_prefetches: 1,
            ..Default::default()
        };
        interval.cycle_account.useful_slots = 40;
        interval.cycle_account.dload_miss = 40; // 40 + 40 = 10 * 8
        interval.bpred.cond_branches = 6;
        interval.bpred.cond_correct = 5;
        interval.l1d.reads = 9;
        interval.l1d.read_misses = 3;
        interval.dload_profiles = vec![DloadProfile {
            dload_pc: 5,
            demand_misses: 2,
            pthread_loads: 4,
            timely_prefetches: 1,
            late_prefetches: 1,
            useless_prefetches: 2,
            ..Default::default()
        }];
        interval.episode_cycles.record(16);
        interval.episode_extractions.record(3);
        interval.bpred_detail = Some(spear_bpred::PredictorDetail {
            kind: "tage".to_string(),
            counters: vec![("alloc".to_string(), 7)],
        });
        interval.check_invariants(width as usize).unwrap();

        let mut scaled = CoreStats::default();
        scaled.merge_scaled(&interval, 5);
        let mut repeated = CoreStats::default();
        for _ in 0..5 {
            repeated.merge(&interval);
        }
        assert_eq!(scaled, repeated, "scale-then-sum == sum of 5 merges");
        scaled
            .check_invariants(width as usize)
            .expect("exact-slot invariant survives weighting");

        // Weight 0 is a no-op, weight 1 a plain merge.
        let before = scaled.clone();
        scaled.merge_scaled(&interval, 0);
        assert_eq!(scaled, before);
        let mut one = CoreStats::default();
        one.merge_scaled(&interval, 1);
        let mut plain = CoreStats::default();
        plain.merge(&interval);
        assert_eq!(one, plain);
    }

    #[test]
    fn stats_json_round_trip() {
        let s = CoreStats {
            cycles: 123,
            committed: 456,
            cycle_account: CycleAccount {
                useful_slots: 456,
                dload_miss: 100,
                ..Default::default()
            },
            dload_profiles: vec![DloadProfile {
                dload_pc: 7,
                demand_misses: 3,
                pthread_loads: 2,
                timely_prefetches: 1,
                useless_prefetches: 1,
                ..Default::default()
            }],
            ..Default::default()
        };
        let json = serde::json::to_string(&s);
        let back: CoreStats = serde::json::from_str(&json).expect("round trip");
        assert_eq!(s, back);
    }

    fn window(index: u64, start_cycle: u64, cycles: u64, committed: u64, width: u64) -> WindowStat {
        WindowStat {
            index,
            start_cycle,
            cycles,
            committed,
            cycle_account: CycleAccount {
                useful_slots: committed,
                dload_miss: cycles * width - committed,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn windows_are_omitted_from_json_when_empty() {
        let s = CoreStats {
            cycles: 7,
            ..Default::default()
        };
        let json = serde::json::to_string(&s);
        assert!(
            !json.contains("windows"),
            "empty windows must not appear in the envelope: {json}"
        );
        let back: CoreStats = serde::json::from_str(&json).expect("pre-obs envelope parses");
        assert_eq!(s, back, "absent windows deserialize as empty");
    }

    #[test]
    fn windows_round_trip_when_present() {
        let s = CoreStats {
            cycles: 20,
            committed: 30,
            windows: vec![window(0, 0, 10, 14, 8), window(1, 10, 10, 16, 8)],
            ..Default::default()
        };
        let json = serde::json::to_string(&s);
        assert!(json.contains("\"windows\""), "{json}");
        let back: CoreStats = serde::json::from_str(&json).expect("round trip");
        assert_eq!(s, back);
        assert_eq!(back.windows.len(), 2);
        assert!((back.windows[1].ipc() - 1.6).abs() < 1e-12);
    }

    #[test]
    fn merge_concatenates_windows_exactly() {
        let width = 8u64;
        let mut a = CoreStats {
            cycles: 10,
            committed: 14,
            windows: vec![window(0, 0, 10, 14, width)],
            ..Default::default()
        };
        a.cycle_account.useful_slots = 14;
        a.cycle_account.dload_miss = 10 * width - 14;
        let mut b = CoreStats {
            cycles: 15,
            committed: 21,
            windows: vec![window(0, 0, 10, 13, width), window(1, 10, 5, 8, width)],
            ..Default::default()
        };
        b.cycle_account.useful_slots = 21;
        b.cycle_account.frontend_other = 15 * width - 21;
        a.merge(&b);
        assert_eq!(a.windows.len(), 3, "windows concatenate in order");
        assert_eq!(
            a.windows.iter().map(|w| w.committed).sum::<u64>(),
            a.committed,
            "per-window committed counts sum to the merged total"
        );
        assert_eq!(a.windows.iter().map(|w| w.cycles).sum::<u64>(), a.cycles);
        a.check_invariants(width as usize)
            .expect("window partition invariant survives merging");
    }

    #[test]
    fn window_invariant_catches_a_broken_partition() {
        let width = 8usize;
        let mut s = CoreStats {
            cycles: 10,
            committed: 14,
            windows: vec![window(0, 0, 10, 13, width as u64)], // 13 != 14
            ..Default::default()
        };
        s.cycle_account.useful_slots = 14;
        s.cycle_account.dload_miss = 10 * width as u64 - 14;
        // Patch the window's slot account so only the committed sum is off.
        s.windows[0].cycle_account.useful_slots = 13;
        s.windows[0].cycle_account.dload_miss = 10 * width as u64 - 13;
        let err = s.check_invariants(width).unwrap_err();
        assert!(err.contains("window partition"), "{err}");
    }

    #[test]
    fn window_top_stall_cause_and_rates() {
        let mut w = window(0, 0, 1000, 800, 8);
        w.l1d_misses = 40;
        w.ifq_occupancy_sum = 16_000;
        assert_eq!(w.top_stall_cause().0, "d-load miss");
        assert!((w.l1d_mpki() - 50.0).abs() < 1e-12);
        assert!((w.mean_ifq_occupancy() - 16.0).abs() < 1e-12);
    }

    #[test]
    fn run_exit_serializes_as_string() {
        let v = serde::json::to_string(&RunExit::CycleBudget);
        assert_eq!(v, "\"CycleBudget\"");
        let back: RunExit = serde::json::from_str(&v).unwrap();
        assert_eq!(back, RunExit::CycleBudget);
    }
}
