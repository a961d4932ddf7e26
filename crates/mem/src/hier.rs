//! The two-level memory hierarchy: L1I + L1D over a unified L2 over main
//! memory, with the access latencies of Table 2 (and the Figure 9 latency
//! sweep knobs).

use crate::cache::{Cache, CacheGeometry, ReplPolicy};
use crate::prefetch::{StrideConfig, StridePrefetcher};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Access latencies, in CPU cycles.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyConfig {
    /// L1 (data or instruction) hit latency.
    pub l1_hit: u32,
    /// Unified L2 hit latency.
    pub l2_hit: u32,
    /// Main-memory access latency.
    pub memory: u32,
}

impl LatencyConfig {
    /// Table 2: L1 = 1, L2 = 12, memory = 120.
    pub fn paper() -> LatencyConfig {
        LatencyConfig {
            l1_hit: 1,
            l2_hit: 12,
            memory: 120,
        }
    }

    /// One point of the Figure 9 sweep: `memory` ∈ {40,80,120,160,200}
    /// paired with `l2 = memory / 10`.
    pub fn sweep_point(memory: u32) -> LatencyConfig {
        LatencyConfig {
            l1_hit: 1,
            l2_hit: memory / 10,
            memory,
        }
    }
}

/// What kind of data access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store.
    Write,
}

/// Where an access was satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServedBy {
    /// L1 hit.
    L1,
    /// L1 miss, L2 hit.
    L2,
    /// Missed both caches.
    Memory,
}

/// One hierarchy access, with the total latency and where it was served.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemAccess {
    /// Total latency in cycles.
    pub latency: u32,
    /// Level that supplied the line.
    pub served_by: ServedBy,
}

/// Full hierarchy configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct HierConfig {
    /// L1 data cache geometry.
    pub l1d: CacheGeometry,
    /// L1 instruction cache geometry.
    pub l1i: CacheGeometry,
    /// Unified L2 geometry.
    pub l2: CacheGeometry,
    /// Replacement policy (applies to all levels).
    pub policy: ReplPolicy,
    /// Latencies.
    pub latency: LatencyConfig,
    /// Maximum outstanding L1D line fills (MSHRs). A miss issued while
    /// all MSHRs are busy queues behind the oldest outstanding fill
    /// (latency extends until an MSHR frees). `None` = unlimited, the
    /// default (`sim-outorder`'s default infinite-bandwidth memory).
    pub mshrs: Option<usize>,
    /// Attach a conventional per-PC stride prefetcher to the L1D (the
    /// "traditional prefetching" baseline of the paper's motivation;
    /// off by default and in every paper configuration).
    pub stride_prefetch: Option<StrideConfig>,
}

impl HierConfig {
    /// The paper's configuration (Table 2).
    pub fn paper() -> HierConfig {
        HierConfig {
            l1d: CacheGeometry::l1d_paper(),
            l1i: CacheGeometry::l1i_default(),
            l2: CacheGeometry::l2_paper(),
            policy: ReplPolicy::Lru,
            latency: LatencyConfig::paper(),
            mshrs: None,
            stride_prefetch: None,
        }
    }
}

/// Per-static-PC L1D miss accounting, used by the profiler to identify
/// delinquent loads and by the evaluation to report miss reductions.
#[derive(Clone, Debug, Default)]
pub struct PcMissCounts {
    map: HashMap<u32, u64>,
}

impl PcMissCounts {
    /// Record one miss at `pc`.
    pub fn record(&mut self, pc: u32) {
        *self.map.entry(pc).or_insert(0) += 1;
    }

    /// Misses recorded at `pc`.
    pub fn get(&self, pc: u32) -> u64 {
        self.map.get(&pc).copied().unwrap_or(0)
    }

    /// All (pc, misses) pairs, descending by miss count then ascending PC
    /// (stable for reporting).
    pub fn ranked(&self) -> Vec<(u32, u64)> {
        let mut v: Vec<_> = self.map.iter().map(|(&pc, &n)| (pc, n)).collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Total misses across all PCs.
    pub fn total(&self) -> u64 {
        self.map.values().sum()
    }
}

/// Per-owner prefetch effectiveness counters, keyed by the static PC of
/// the delinquent load a p-thread targets. Every p-thread load access is
/// eventually classified into exactly one of the timely/late/useless
/// buckets (after [`Hierarchy::drain_pending_prefetches`]), so
/// `timely + late + useless == pthread_loads`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrefetchCounts {
    /// P-thread load accesses issued to the data cache.
    pub pthread_loads: u64,
    /// Prefetched lines the main thread hit after the fill completed.
    pub timely: u64,
    /// Prefetched lines the main thread touched while still in flight.
    pub late: u64,
    /// Prefetches that never helped: redundant (line already present),
    /// evicted or displaced before use, or unclaimed at run end.
    pub useless: u64,
}

/// One cache-line fill, as logged when the fill log is enabled (the
/// `--trace-file` pipeline-event hook).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FillRecord {
    /// Byte address of the filled block.
    pub block_addr: u64,
    /// Total fill latency in cycles (including any MSHR queueing).
    pub latency: u32,
    /// True if the p-thread (a prefetch) requested the fill.
    pub pthread: bool,
}

/// The memory hierarchy.
///
/// Loads and stores go through [`Hierarchy::access_data`]; instruction
/// fetches through [`Hierarchy::access_inst`]. Misses propagate to the next
/// level; the returned latency is the sum along the walk. Dirty evictions
/// from L1D are installed in L2 (write-back), modelled as state changes
/// only (no extra latency, matching `sim-outorder`'s default bus model).
#[derive(Clone, Debug)]
pub struct Hierarchy {
    /// L1 data cache.
    pub l1d: Cache,
    /// L1 instruction cache.
    pub l1i: Cache,
    /// Unified L2.
    pub l2: Cache,
    /// Latency configuration.
    pub latency: LatencyConfig,
    /// L1D misses per static load/store PC.
    pub pc_misses: PcMissCounts,
    /// L1D misses incurred by p-thread accesses (prefetches).
    pub pthread_misses: u64,
    /// L1D accesses issued by the p-thread.
    pub pthread_accesses: u64,
    /// MSHR limit, from the configuration.
    mshr_limit: Option<usize>,
    /// In-flight line fills as `(L1D block address, arrival cycle)`.
    ///
    /// A tag array alone would let a second access to a just-missed block
    /// hit instantly; real hardware makes it wait on the outstanding fill
    /// (an MSHR merge). Accesses to a pending block are charged the
    /// *remaining* fill latency — this is also what makes a prefetch that
    /// is still in flight partially (rather than fully) hide the miss.
    ///
    /// Completed fills are retired eagerly on every new fill, so the
    /// steady-state occupancy is the number of genuinely outstanding
    /// lines (bounded by the MSHR count when one is configured) and a
    /// linear scan beats hashing.
    pending_fills: Vec<(u64, u64)>,
    /// Accesses that merged into an outstanding fill (delayed hits).
    pub delayed_hits: u64,
    /// Per-L1D-line prefetch ownership, indexed like the cache's line
    /// array (`set * assoc + way`). `Some(owner)` marks a line whose most
    /// recent fill was requested by the p-thread and that the main thread
    /// has not touched yet; `owner` is the static d-load PC whose
    /// p-thread issued the prefetch (`None` for p-thread stores, which
    /// warm the cache but are not counted in the per-d-load
    /// load-effectiveness profiles). Ownership follows the line: an
    /// eviction classifies the prefetch useless on the spot, so the
    /// table is fixed-size instead of growing with unique blocks.
    pthread_owner: Vec<Option<Option<u32>>>,
    /// The d-load PC owning p-thread accesses issued right now (set by
    /// the core per issued p-thread instruction; falls back to the
    /// accessing PC when unset).
    prefetch_owner: Option<u32>,
    /// Per-d-load prefetch effectiveness counters.
    dload_profiles: HashMap<u32, PrefetchCounts>,
    /// Fill log for pipeline-event tracing (`None` = disabled, the
    /// default: one branch per fill).
    fill_log: Option<Vec<FillRecord>>,
    /// Main-thread accesses that hit a line the p-thread prefetched
    /// (fully — an L1 hit) — the "useful prefetch" count.
    pub useful_prefetches: u64,
    /// Main-thread accesses that merged into a still-in-flight p-thread
    /// fill (a partially useful prefetch).
    pub late_prefetches: u64,
    /// Fills delayed because all MSHRs were busy.
    pub mshr_stalls: u64,
    /// The optional stride prefetcher.
    stride: Option<StridePrefetcher>,
    /// Lines filled by the stride prefetcher.
    pub hw_prefetch_fills: u64,
}

impl Hierarchy {
    /// Build an empty hierarchy.
    pub fn new(cfg: HierConfig) -> Hierarchy {
        Hierarchy {
            l1d: Cache::new(cfg.l1d, cfg.policy),
            l1i: Cache::new(cfg.l1i, cfg.policy),
            l2: Cache::new(cfg.l2, cfg.policy),
            latency: cfg.latency,
            mshr_limit: cfg.mshrs,
            pc_misses: PcMissCounts::default(),
            pthread_misses: 0,
            pthread_accesses: 0,
            pending_fills: Vec::new(),
            delayed_hits: 0,
            pthread_owner: vec![None; cfg.l1d.lines()],
            prefetch_owner: None,
            dload_profiles: HashMap::new(),
            fill_log: None,
            useful_prefetches: 0,
            late_prefetches: 0,
            mshr_stalls: 0,
            stride: cfg.stride_prefetch.map(StridePrefetcher::new),
            hw_prefetch_fills: 0,
        }
    }

    /// Fill a line on behalf of the hardware prefetcher: installs the tag
    /// in L1D (and L2 on the way) without touching the demand-miss
    /// statistics and with the usual in-flight-fill bookkeeping.
    fn hw_prefetch(&mut self, addr: u64, now: u64) {
        if self.l1d.probe(addr) {
            return;
        }
        let r1 = self.l1d.access(addr, false);
        debug_assert!(!r1.hit);
        // The fill may displace a still-unclaimed p-thread line.
        if let Some(prev) = self.pthread_owner[r1.line_idx].take() {
            self.classify_useless(prev);
        }
        if r1.writeback {
            if let Some(victim) = r1.evicted {
                self.l2.access(victim, true);
            }
        }
        let r2 = self.l2.access(addr, false);
        let raw = if r2.hit {
            self.latency.l1_hit + self.latency.l2_hit
        } else {
            self.latency.l1_hit + self.latency.l2_hit + self.latency.memory
        };
        self.note_fill(addr, now, raw, false);
        self.hw_prefetch_fills += 1;
        // Demand-stat hygiene: back out the access/miss this probe added.
        self.l1d.stats.reads -= 1;
        self.l1d.stats.read_misses -= 1;
        self.l2.stats.reads -= 1;
        if !r2.hit {
            self.l2.stats.read_misses -= 1;
        }
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr >> self.l1d.block_shift()
    }

    /// Remaining latency if `addr`'s block has an outstanding fill.
    fn pending_latency(&mut self, addr: u64, now: u64) -> Option<u32> {
        let block = self.block_of(addr);
        let i = self.pending_fills.iter().position(|&(b, _)| b == block)?;
        let fill_at = self.pending_fills[i].1;
        if fill_at > now {
            Some((fill_at - now) as u32)
        } else {
            self.pending_fills.swap_remove(i);
            None
        }
    }

    /// Fills currently outstanding (completed fills retire eagerly, so
    /// this is bounded by the MSHR count when one is configured).
    pub fn in_flight_fills(&self) -> usize {
        self.pending_fills.len()
    }

    fn note_fill(&mut self, addr: u64, now: u64, latency: u32, pthread: bool) -> u32 {
        // Retire every completed fill before admitting a new one: the
        // list only ever holds genuinely in-flight lines.
        self.pending_fills.retain(|&(_, t)| t > now);
        // Finite MSHRs: if every miss register is busy, this fill cannot
        // start until the soonest outstanding fill retires its MSHR.
        let mut start = now;
        if let Some(limit) = self.mshr_limit {
            if self.pending_fills.len() >= limit {
                let mut soonest: Vec<u64> = self.pending_fills.iter().map(|&(_, t)| t).collect();
                soonest.sort_unstable();
                start = soonest[soonest.len() - limit];
                self.mshr_stalls += 1;
            }
        }
        let done = start + latency as u64;
        let block = self.block_of(addr);
        // A block can re-miss while its earlier fill is still listed
        // (the line was evicted mid-flight): overwrite, as a map would.
        match self.pending_fills.iter_mut().find(|e| e.0 == block) {
            Some(e) => e.1 = done,
            None => self.pending_fills.push((block, done)),
        }
        let total = (done - now) as u32;
        if let Some(log) = &mut self.fill_log {
            let block_bytes = self.l1d.geometry().block_bytes as u64;
            log.push(FillRecord {
                block_addr: block * block_bytes,
                latency: total,
                pthread,
            });
        }
        total
    }

    /// Record every subsequent cache-line fill for pipeline tracing.
    pub fn enable_fill_log(&mut self) {
        self.fill_log = Some(Vec::new());
    }

    /// Take the fills logged since the last drain (empty when the log is
    /// disabled).
    pub fn drain_fills(&mut self) -> Vec<FillRecord> {
        self.fill_log
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    /// Attribute subsequent p-thread accesses to the p-thread targeting
    /// the d-load at `dload_pc` (the core sets this per issued p-thread
    /// memory operation). When unset, p-thread accesses fall back to
    /// their own PC as the profile key.
    pub fn set_prefetch_owner(&mut self, dload_pc: Option<u32>) {
        self.prefetch_owner = dload_pc;
    }

    /// Prefetch effectiveness counters for the p-thread targeting
    /// `dload_pc` (zeros if it never issued a load).
    pub fn dload_profile(&self, dload_pc: u32) -> PrefetchCounts {
        self.dload_profiles
            .get(&dload_pc)
            .copied()
            .unwrap_or_default()
    }

    /// All per-d-load profiles, sorted by d-load PC.
    pub fn dload_profiles(&self) -> Vec<(u32, PrefetchCounts)> {
        let mut v: Vec<_> = self
            .dload_profiles
            .iter()
            .map(|(&pc, &c)| (pc, c))
            .collect();
        v.sort_unstable_by_key(|&(pc, _)| pc);
        v
    }

    /// Pre-size the per-d-load profile map with one zeroed row per
    /// expected key (the attached p-thread table's d-load PCs).
    ///
    /// Seeding is invisible to reads — [`Hierarchy::dload_profile`]
    /// already answers zeros for an absent PC — but it puts the map at
    /// its steady-state key set up front, so the hot classification
    /// paths never rehash and a campaign cell does not re-grow the map
    /// PC by PC after every restore ([`Hierarchy::restore`] zeroes the
    /// seeded rows in place instead of dropping them).
    pub fn seed_dload_profiles(&mut self, pcs: impl IntoIterator<Item = u32>) {
        for pc in pcs {
            self.dload_profiles.entry(pc).or_default();
        }
    }

    fn classify_useless(&mut self, owner: Option<u32>) {
        if let Some(pc) = owner {
            self.dload_profiles.entry(pc).or_default().useless += 1;
        }
    }

    /// Classify every still-pending p-thread prefetch as useless: the
    /// main thread never claimed it. Call once at the end of a run so the
    /// per-d-load partition `timely + late + useless == pthread_loads`
    /// closes.
    pub fn drain_pending_prefetches(&mut self) {
        for i in 0..self.pthread_owner.len() {
            if let Some(owner) = self.pthread_owner[i].take() {
                self.classify_useless(owner);
            }
        }
    }

    /// A data access from thread `is_pthread` at static `pc`, issued at
    /// cycle `now` (used to merge accesses into outstanding line fills).
    pub fn access_data(
        &mut self,
        addr: u64,
        kind: AccessKind,
        pc: u32,
        is_pthread: bool,
        now: u64,
    ) -> MemAccess {
        let is_write = kind == AccessKind::Write;
        // Conventional stride prefetching observes main-thread loads.
        if !is_pthread && !is_write && self.stride.is_some() {
            let targets = self.stride.as_mut().expect("checked").observe(pc, addr);
            for t in targets {
                self.hw_prefetch(t, now);
            }
        }
        let r1 = self.l1d.access(addr, is_write);
        if is_pthread {
            self.pthread_accesses += 1;
        }
        // Per-d-load effectiveness: each p-thread *load* is attributed to
        // the d-load its episode targets and will be classified exactly
        // once (timely / late / useless).
        let owner = if is_pthread && !is_write {
            let o = self.prefetch_owner.unwrap_or(pc);
            self.dload_profiles.entry(o).or_default().pthread_loads += 1;
            Some(o)
        } else {
            None
        };
        if r1.hit {
            if is_pthread {
                // The line is already present (or already in flight):
                // this prefetch brought nothing new — redundant.
                self.classify_useless(owner);
            } else if let Some(prev) = self.pthread_owner[r1.line_idx].take() {
                // Prefetch-effectiveness accounting: the first
                // main-thread touch of a p-thread-fetched line is a
                // useful (or, if the fill is still in flight, late)
                // prefetch.
                let block = self.block_of(addr);
                let in_flight = self
                    .pending_fills
                    .iter()
                    .any(|&(b, t)| b == block && t > now);
                if in_flight {
                    self.late_prefetches += 1;
                    if let Some(pc) = prev {
                        self.dload_profiles.entry(pc).or_default().late += 1;
                    }
                } else {
                    self.useful_prefetches += 1;
                    if let Some(pc) = prev {
                        self.dload_profiles.entry(pc).or_default().timely += 1;
                    }
                }
            }
            // Tag hit, but the line may still be in flight.
            if let Some(remaining) = self.pending_latency(addr, now) {
                self.delayed_hits += 1;
                return MemAccess {
                    latency: remaining.max(self.latency.l1_hit),
                    served_by: ServedBy::L1,
                };
            }
            return MemAccess {
                latency: self.latency.l1_hit,
                served_by: ServedBy::L1,
            };
        }
        if is_pthread {
            self.pthread_misses += 1;
        } else {
            self.pc_misses.record(pc);
        }
        // The fill displaces whatever the victim line held: if that was
        // a still-unclaimed p-thread prefetch, it can no longer help.
        if let Some(prev) = self.pthread_owner[r1.line_idx].take() {
            self.classify_useless(prev);
        }
        // Write-back of the evicted dirty line into L2.
        if r1.writeback {
            if let Some(victim) = r1.evicted {
                self.l2.access(victim, true);
            }
        }
        let r2 = self.l2.access(addr, false);
        let (raw_latency, served_by) = if r2.hit {
            (self.latency.l1_hit + self.latency.l2_hit, ServedBy::L2)
        } else {
            (
                self.latency.l1_hit + self.latency.l2_hit + self.latency.memory,
                ServedBy::Memory,
            )
        };
        let latency = self.note_fill(addr, now, raw_latency, is_pthread);
        if is_pthread {
            // Mark the freshly filled line as an unclaimed prefetch; the
            // main thread's first touch (or the line's eviction, or the
            // end of the run) will classify it.
            self.pthread_owner[r1.line_idx] = Some(owner);
        }
        MemAccess { latency, served_by }
    }

    /// An instruction fetch of the block containing `addr`.
    pub fn access_inst(&mut self, addr: u64) -> MemAccess {
        let r1 = self.l1i.access(addr, false);
        if r1.hit {
            return MemAccess {
                latency: self.latency.l1_hit,
                served_by: ServedBy::L1,
            };
        }
        let r2 = self.l2.access(addr, false);
        if r2.hit {
            MemAccess {
                latency: self.latency.l1_hit + self.latency.l2_hit,
                served_by: ServedBy::L2,
            }
        } else {
            MemAccess {
                latency: self.latency.l1_hit + self.latency.l2_hit + self.latency.memory,
                served_by: ServedBy::Memory,
            }
        }
    }

    /// Check tag-store well-formedness of all three caches (no duplicate
    /// valid tags within a set, no dirty-but-invalid lines). Returns the
    /// first violation found, prefixed with the offending cache's name.
    pub fn check_structure(&self) -> Result<(), String> {
        self.l1d
            .check_structure()
            .map_err(|e| format!("l1d: {e}"))?;
        self.l1i
            .check_structure()
            .map_err(|e| format!("l1i: {e}"))?;
        self.l2.check_structure().map_err(|e| format!("l2: {e}"))?;
        Ok(())
    }

    /// Count L1 lines (data + instruction) whose block is absent from L2.
    ///
    /// This is a *diagnostic*, not an invariant: the model is non-
    /// inclusive by construction. L2 sees only L1-miss traffic, so a line
    /// that is hot in L1 ages out of L2's LRU without a back-invalidation,
    /// legitimately leaving L1-valid blocks with no L2 copy. The fuzz
    /// harness reports this count rather than asserting zero.
    pub fn inclusion_violations(&self) -> usize {
        self.l1d
            .valid_block_addrs()
            .into_iter()
            .chain(self.l1i.valid_block_addrs())
            .filter(|&b| !self.l2.probe(b))
            .count()
    }

    /// Copy the warm contents of three caches (tags, validity, dirtiness,
    /// replacement order) into this hierarchy's L1D, L1I and L2, each
    /// built under the same cache geometry and policy as its counterpart
    /// here. Nothing else is copied: this
    /// hierarchy's latencies, MSHR limit, stride prefetcher and seeded
    /// d-load profile keys stay its own, so one warm hierarchy seeds
    /// cores at every Figure 9 latency point. Statistics, pending fills
    /// and prefetch bookkeeping are reset, so the restored hierarchy
    /// observes only its own accesses.
    pub fn restore(&mut self, l1d: &Cache, l1i: &Cache, l2: &Cache) -> Result<(), String> {
        self.l1d.restore(l1d).map_err(|e| format!("l1d: {e}"))?;
        self.l1i.restore(l1i).map_err(|e| format!("l1i: {e}"))?;
        self.l2.restore(l2).map_err(|e| format!("l2: {e}"))?;
        self.pc_misses = PcMissCounts::default();
        self.pthread_misses = 0;
        self.pthread_accesses = 0;
        self.pending_fills.clear();
        self.delayed_hits = 0;
        self.pthread_owner.fill(None);
        self.prefetch_owner = None;
        // Zero the profile rows in place: the key set (seeded from the
        // p-thread table) survives the restore, so the next cell starts
        // from a full-size map instead of re-growing it per unique PC.
        for counts in self.dload_profiles.values_mut() {
            *counts = PrefetchCounts::default();
        }
        self.useful_prefetches = 0;
        self.late_prefetches = 0;
        self.mshr_stalls = 0;
        self.hw_prefetch_fills = 0;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hier() -> Hierarchy {
        Hierarchy::new(HierConfig::paper())
    }

    #[test]
    fn cold_miss_costs_full_walk() {
        let mut h = hier();
        let a = h.access_data(0x4000, AccessKind::Read, 7, false, 0);
        assert_eq!(a.served_by, ServedBy::Memory);
        assert_eq!(a.latency, 1 + 12 + 120);
        assert_eq!(h.pc_misses.get(7), 1);
    }

    #[test]
    fn second_access_merges_into_outstanding_fill() {
        let mut h = hier();
        h.access_data(0x4000, AccessKind::Read, 7, false, 0);
        // Same block, same cycle: the line is still in flight — the access
        // waits out the remaining fill latency (MSHR merge).
        let a = h.access_data(0x4008, AccessKind::Read, 7, false, 0);
        assert_eq!(a.served_by, ServedBy::L1);
        assert_eq!(a.latency, 133, "delayed hit pays the remaining latency");
        assert_eq!(h.delayed_hits, 1);
        assert_eq!(h.pc_misses.get(7), 1, "a merge is not a new miss");
    }

    #[test]
    fn second_access_hits_l1_after_fill_arrives() {
        let mut h = hier();
        h.access_data(0x4000, AccessKind::Read, 7, false, 0);
        let a = h.access_data(0x4008, AccessKind::Read, 7, false, 200);
        assert_eq!(a.served_by, ServedBy::L1);
        assert_eq!(a.latency, 1);
    }

    #[test]
    fn partial_fill_charges_remaining_cycles() {
        let mut h = hier();
        h.access_data(0x4000, AccessKind::Read, 7, false, 0); // fills at 133
        let a = h.access_data(0x4000, AccessKind::Read, 7, false, 100);
        assert_eq!(a.latency, 33, "33 cycles left on the fill");
    }

    #[test]
    fn l1_evict_l2_hit_path() {
        let mut h = hier();
        // Fill one L1D set (4 ways) with conflicting blocks: L1D stride for
        // the same set is sets*block = 256*32 = 8 KiB.
        for i in 0..5u64 {
            h.access_data(i * 8192, AccessKind::Read, 0, false, 0);
        }
        // Block 0 was evicted from L1 but still sits in L2
        // (L2 same-set stride is 1024*64 = 64 KiB, so no L2 conflicts).
        let a = h.access_data(0, AccessKind::Read, 0, false, 0);
        assert_eq!(a.served_by, ServedBy::L2);
        assert_eq!(a.latency, 1 + 12);
    }

    #[test]
    fn pthread_prefetch_warms_l1_for_main_thread() {
        let mut h = hier();
        let p = h.access_data(0x9000, AccessKind::Read, 3, true, 0);
        assert_eq!(p.served_by, ServedBy::Memory);
        assert_eq!(h.pthread_misses, 1);
        assert_eq!(
            h.pc_misses.total(),
            0,
            "p-thread misses are not main misses"
        );
        let m = h.access_data(0x9000, AccessKind::Read, 3, false, 0);
        assert_eq!(m.served_by, ServedBy::L1, "prefetched line hits");
    }

    #[test]
    fn writeback_installs_into_l2() {
        let mut h = hier();
        h.access_data(0, AccessKind::Write, 0, false, 0); // dirty in L1
        for i in 1..5u64 {
            h.access_data(i * 8192, AccessKind::Read, 0, false, 0); // evict block 0
        }
        assert_eq!(h.l1d.stats.writebacks, 1);
        // Block 0 must now hit in L2.
        let a = h.access_data(0, AccessKind::Read, 0, false, 0);
        assert_eq!(a.served_by, ServedBy::L2);
    }

    #[test]
    fn inst_fetches_use_l1i_then_l2() {
        let mut h = hier();
        let a = h.access_inst(0x100);
        assert_eq!(a.served_by, ServedBy::Memory);
        let b = h.access_inst(0x100);
        assert_eq!(b.served_by, ServedBy::L1);
        assert_eq!(h.l1d.stats.accesses(), 0, "instructions never touch L1D");
    }

    #[test]
    fn sweep_latencies() {
        let l = LatencyConfig::sweep_point(200);
        assert_eq!(l.l2_hit, 20);
        let l = LatencyConfig::sweep_point(40);
        assert_eq!(l.l2_hit, 4);
    }

    #[test]
    fn useful_and_late_prefetches_counted() {
        let mut h = hier();
        // P-thread fetches a line at t=0 (fill at 133).
        h.access_data(0x9000, AccessKind::Read, 3, true, 0);
        // Main touches it while in flight → late prefetch.
        let a = h.access_data(0x9000, AccessKind::Read, 3, false, 50);
        assert_eq!(h.late_prefetches, 1);
        assert!(a.latency > 1 && a.latency < 133);
        // P-thread fetches another line; main touches after the fill.
        h.access_data(0xA000, AccessKind::Read, 3, true, 0);
        let b = h.access_data(0xA000, AccessKind::Read, 3, false, 500);
        assert_eq!(h.useful_prefetches, 1);
        assert_eq!(b.latency, 1);
        // Second main touch is no longer counted (the line was claimed).
        h.access_data(0xA000, AccessKind::Read, 3, false, 501);
        assert_eq!(h.useful_prefetches, 1);
    }

    #[test]
    fn finite_mshrs_serialize_excess_misses() {
        let mut cfg = HierConfig::paper();
        cfg.mshrs = Some(2);
        let mut h = Hierarchy::new(cfg);
        // Three distinct-block misses in the same cycle: the third must
        // wait for the first fill's MSHR (completes at 133).
        let a = h.access_data(0x10000, AccessKind::Read, 0, false, 0);
        let b = h.access_data(0x20000, AccessKind::Read, 0, false, 0);
        let c = h.access_data(0x30000, AccessKind::Read, 0, false, 0);
        assert_eq!(a.latency, 133);
        assert_eq!(b.latency, 133);
        assert_eq!(c.latency, 266, "third miss queues behind an MSHR");
        assert_eq!(h.mshr_stalls, 1);
    }

    #[test]
    fn completed_fills_retire_eagerly() {
        let mut h = hier();
        // A long stream of distinct-block misses, each issued long after
        // the previous fill landed: occupancy must not grow with the
        // number of unique blocks touched.
        for i in 0..1000u64 {
            h.access_data(0x100000 + i * 4096, AccessKind::Read, 0, false, i * 1000);
        }
        assert!(h.in_flight_fills() <= 1, "completed fills are retired");
    }

    #[test]
    fn seeded_profiles_read_as_zeros_and_survive_restore() {
        let mut h = hier();
        h.seed_dload_profiles([7, 9]);
        assert_eq!(h.dload_profile(7), PrefetchCounts::default());
        // Accumulate into a seeded row, then restore from a warm copy:
        // the counts reset but the key set stays in place.
        h.set_prefetch_owner(Some(7));
        h.access_data(0x4000, AccessKind::Read, 7, true, 0);
        assert_eq!(h.dload_profile(7).pthread_loads, 1);
        let warm = h.clone();
        h.restore(&warm.l1d, &warm.l1i, &warm.l2).unwrap();
        assert_eq!(h.dload_profile(7), PrefetchCounts::default());
        assert_eq!(
            h.dload_profiles()
                .iter()
                .map(|&(pc, _)| pc)
                .collect::<Vec<_>>(),
            [7, 9],
            "restore zeroes the seeded rows instead of dropping them"
        );
    }

    #[test]
    fn eviction_classifies_prefetch_without_drain() {
        let mut h = hier();
        h.set_prefetch_owner(Some(9));
        h.access_data(0x0, AccessKind::Read, 3, true, 0);
        // Main-thread conflicts (5 blocks into the 4-way set) evict the
        // prefetched line; the eviction alone settles its classification.
        for i in 1..6u64 {
            h.access_data(i * 8192, AccessKind::Read, 0, false, 1000);
        }
        let p = h.dload_profile(9);
        assert_eq!(p.useless, 1, "classified at eviction, no drain needed");
    }

    #[test]
    fn unlimited_mshrs_never_stall() {
        let mut h = hier();
        for i in 0..64u64 {
            h.access_data(0x40000 + i * 4096, AccessKind::Read, 0, false, 0);
        }
        assert_eq!(h.mshr_stalls, 0);
    }

    #[test]
    fn main_thread_fills_are_not_prefetches() {
        let mut h = hier();
        h.access_data(0xB000, AccessKind::Read, 3, false, 0);
        h.access_data(0xB000, AccessKind::Read, 3, false, 500);
        assert_eq!(h.useful_prefetches, 0);
        assert_eq!(h.late_prefetches, 0);
    }

    #[test]
    fn dload_profile_partitions_every_pthread_load() {
        let mut h = hier();
        h.set_prefetch_owner(Some(77));
        // Timely: prefetched at 0, main touches at 500.
        h.access_data(0x9000, AccessKind::Read, 3, true, 0);
        h.access_data(0x9000, AccessKind::Read, 3, false, 500);
        // Late: prefetched at 600, main touches mid-flight.
        h.access_data(0xA000, AccessKind::Read, 3, true, 600);
        h.access_data(0xA000, AccessKind::Read, 3, false, 650);
        // Redundant: a second prefetch of an already-present line.
        h.access_data(0x9000, AccessKind::Read, 3, true, 900);
        // Never claimed: prefetched, main never touches it.
        h.access_data(0xB000, AccessKind::Read, 3, true, 900);
        h.drain_pending_prefetches();
        let p = h.dload_profile(77);
        assert_eq!(p.pthread_loads, 4);
        assert_eq!(p.timely, 1);
        assert_eq!(p.late, 1);
        assert_eq!(p.useless, 2, "redundant + unclaimed");
        assert_eq!(p.timely + p.late + p.useless, p.pthread_loads);
        // The global counters agree with the profile.
        assert_eq!(h.useful_prefetches, 1);
        assert_eq!(h.late_prefetches, 1);
    }

    #[test]
    fn evicted_prefetch_counts_as_useless() {
        let mut h = hier();
        h.set_prefetch_owner(Some(5));
        // Prefetch a block, then let main-thread conflicts evict it
        // (5 distinct blocks mapping to the same 4-way L1D set).
        h.access_data(0x0, AccessKind::Read, 3, true, 0);
        for i in 1..6u64 {
            h.access_data(i * 8192, AccessKind::Read, 0, false, 1000 + i);
        }
        // Main touches block 0 after eviction: a demand miss, and the
        // prefetch is classified useless on that path.
        h.access_data(0x0, AccessKind::Read, 0, false, 5000);
        let p = h.dload_profile(5);
        assert_eq!(p.pthread_loads, 1);
        assert_eq!(p.useless, 1);
        assert_eq!(p.timely + p.late + p.useless, p.pthread_loads);
    }

    #[test]
    fn unowned_pthread_access_falls_back_to_its_own_pc() {
        let mut h = hier();
        h.access_data(0x9000, AccessKind::Read, 3, true, 0);
        h.drain_pending_prefetches();
        let p = h.dload_profile(3);
        assert_eq!(p.pthread_loads, 1);
        assert_eq!(p.useless, 1);
    }

    #[test]
    fn fill_log_records_demand_and_prefetch_fills() {
        let mut h = hier();
        assert!(h.drain_fills().is_empty(), "disabled log drains empty");
        h.enable_fill_log();
        h.access_data(0x4000, AccessKind::Read, 7, false, 0);
        h.access_data(0x9000, AccessKind::Read, 3, true, 0);
        // An L1 hit must not log a fill.
        h.access_data(0x4000, AccessKind::Read, 7, false, 500);
        let fills = h.drain_fills();
        assert_eq!(fills.len(), 2);
        assert!(!fills[0].pthread);
        assert!(fills[1].pthread);
        assert_eq!(fills[0].latency, 133);
        assert_eq!(fills[0].block_addr, 0x4000);
        assert!(h.drain_fills().is_empty(), "drain takes the backlog");
    }

    #[test]
    fn hierarchy_restore_reproduces_hit_pattern() {
        let mut h = hier();
        // Warm a few data blocks and an instruction block.
        for i in 0..8u64 {
            h.access_data(0x4000 + i * 32, AccessKind::Read, 7, false, 0);
        }
        h.access_inst(0x100);

        let mut fresh = hier();
        fresh.restore(&h.l1d, &h.l1i, &h.l2).expect("same geometry");
        // Warm lines hit in the restored hierarchy; nothing is in flight
        // (pending fills are not copied), so hits cost exactly the L1
        // latency.
        let a = fresh.access_data(0x4000, AccessKind::Read, 7, false, 0);
        assert_eq!(a.served_by, ServedBy::L1);
        assert_eq!(a.latency, 1);
        let b = fresh.access_inst(0x100);
        assert_eq!(b.served_by, ServedBy::L1);
        // Statistics were reset: only the one access above is counted.
        assert_eq!(fresh.l1d.stats.accesses(), 1);
        assert_eq!(fresh.pc_misses.total(), 0);
    }

    #[test]
    fn ranked_pc_misses_sorted_desc() {
        let mut p = PcMissCounts::default();
        for _ in 0..3 {
            p.record(10);
        }
        p.record(5);
        assert_eq!(p.ranked(), vec![(10, 3), (5, 1)]);
        assert_eq!(p.total(), 4);
    }
}
