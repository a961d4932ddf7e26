//! A single set-associative cache (tag array + replacement state).
//!
//! This is a *timing* model: it tracks tags, validity, dirtiness and
//! replacement state, not data (the simulator's functional state lives in
//! `spear_exec::Memory`). Geometry and policy follow Table 2 of the paper:
//! L1D = 256 sets × 32-byte blocks × 4-way LRU, unified L2 = 1024 sets ×
//! 64-byte blocks × 4-way LRU.
//!
//! The line storage is structure-of-arrays: parallel `tags` / `flags` /
//! `stamps` vectors indexed by `set * assoc + way`. A set's tags are
//! contiguous, so the hit scan — the single hottest loop in the whole
//! simulator — touches one dense stride instead of striding over padded
//! per-line structs.

use serde::{Deserialize, Serialize};

/// `flags` bit 0: the line holds a valid tag.
const VALID: u8 = 1;
/// `flags` bit 1: the line has been written since it was filled.
const DIRTY: u8 = 2;

/// Cache shape.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Number of sets (power of two).
    pub sets: usize,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Block (line) size in bytes (power of two).
    pub block_bytes: usize,
}

impl CacheGeometry {
    /// Total capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.sets * self.assoc * self.block_bytes
    }

    /// Number of lines (`sets * assoc`).
    pub fn lines(&self) -> usize {
        self.sets * self.assoc
    }

    /// Table 2 L1 data cache: 256 sets, 32-byte block, 4-way.
    pub fn l1d_paper() -> CacheGeometry {
        CacheGeometry {
            sets: 256,
            assoc: 4,
            block_bytes: 32,
        }
    }

    /// Table 2 unified L2: 1024 sets, 64-byte block, 4-way.
    pub fn l2_paper() -> CacheGeometry {
        CacheGeometry {
            sets: 1024,
            assoc: 4,
            block_bytes: 64,
        }
    }

    /// L1 instruction cache (not specified in Table 2; a conventional
    /// 16 KiB 2-way configuration, documented in DESIGN.md).
    pub fn l1i_default() -> CacheGeometry {
        CacheGeometry {
            sets: 256,
            assoc: 2,
            block_bytes: 32,
        }
    }
}

/// Replacement policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ReplPolicy {
    /// Least-recently-used (the paper's policy).
    Lru,
    /// First-in-first-out (ablation).
    Fifo,
    /// Pseudo-random (xorshift; ablation).
    Random,
}

/// Result of one cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// True on a tag hit.
    pub hit: bool,
    /// True if the fill evicted a dirty line (write-back traffic).
    pub writeback: bool,
    /// Block-aligned address of an evicted line, if any.
    pub evicted: Option<u64>,
    /// Index of the line that served the access (`set * assoc + way`):
    /// the hit line, or the just-filled victim on a miss. Stable for the
    /// lifetime of the cache, so callers can keep per-line side tables.
    pub line_idx: usize,
}

/// Per-cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Read accesses.
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Dirty evictions.
    pub writebacks: u64,
}

impl CacheStats {
    /// All accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// All misses.
    pub fn misses(&self) -> u64 {
        self.read_misses + self.write_misses
    }

    /// Miss ratio over all accesses (0 when idle).
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            self.misses() as f64 / a as f64
        }
    }
}

/// Image of a cache's tag array and replacement state, used by the
/// checkpointing subsystem (`spear-campaign`) to carry *warm* cache
/// contents across a capture/restore boundary. Statistics are not part
/// of the snapshot: a restored cache starts counting from zero.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Geometry fingerprint (`sets`, `assoc`, `block_bytes`) — restore
    /// refuses a snapshot taken under a different shape.
    pub sets: u64,
    /// Ways per set at capture time.
    pub assoc: u64,
    /// Block size in bytes at capture time.
    pub block_bytes: u64,
    /// Per-line tags, set-major (`set * assoc + way`).
    pub tags: Vec<u64>,
    /// Per-line flag bytes: bit 0 = valid, bit 1 = dirty.
    pub flags: Vec<u8>,
    /// Per-line replacement stamps (LRU touch / FIFO fill order).
    pub stamps: Vec<u64>,
    /// Global access tick, so relative LRU ordering survives restore.
    pub tick: u64,
    /// Replacement RNG state (Random policy determinism across restore).
    pub rng: u64,
}

/// The cache proper. Write-back, write-allocate.
#[derive(Clone, Debug)]
pub struct Cache {
    geom: CacheGeometry,
    policy: ReplPolicy,
    /// Per-line tags, set-major (`set * assoc + way`).
    tags: Vec<u64>,
    /// Per-line [`VALID`] | [`DIRTY`] bits, same indexing.
    flags: Vec<u8>,
    /// Per-line replacement stamps (LRU: last touch; FIFO: fill).
    stamps: Vec<u64>,
    tick: u64,
    rng: u64,
    /// Access/miss counters.
    pub stats: CacheStats,
    block_shift: u32,
    set_mask: u64,
}

impl Cache {
    /// Build an empty cache. Panics unless sets and block size are powers
    /// of two and associativity is nonzero.
    pub fn new(geom: CacheGeometry, policy: ReplPolicy) -> Cache {
        assert!(geom.sets.is_power_of_two(), "sets must be a power of two");
        assert!(
            geom.block_bytes.is_power_of_two(),
            "block size must be a power of two"
        );
        assert!(geom.assoc > 0, "associativity must be nonzero");
        let n = geom.lines();
        Cache {
            geom,
            policy,
            tags: vec![0; n],
            flags: vec![0; n],
            stamps: vec![0; n],
            tick: 0,
            rng: 0x9E3779B97F4A7C15,
            stats: CacheStats::default(),
            block_shift: geom.block_bytes.trailing_zeros(),
            set_mask: (geom.sets - 1) as u64,
        }
    }

    /// Geometry this cache was built with.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// log2 of the block size, for shift-based block math in callers.
    pub fn block_shift(&self) -> u32 {
        self.block_shift
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        ((addr >> self.block_shift) & self.set_mask) as usize
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.block_shift >> self.geom.sets.trailing_zeros()
    }

    /// Block-aligned address for a (set, tag) pair.
    fn block_addr(&self, set: usize, tag: u64) -> u64 {
        ((tag << self.geom.sets.trailing_zeros()) | set as u64) << self.block_shift
    }

    fn next_rand(&mut self) -> u64 {
        // xorshift64
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// Access `addr`; on a miss the line is filled (write-allocate).
    /// Write hits and write fills mark the line dirty.
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.geom.assoc;
        let end = base + self.geom.assoc;

        if is_write {
            self.stats.writes += 1;
        } else {
            self.stats.reads += 1;
        }

        // Hit path: scan the set's ways in order.
        for i in base..end {
            if self.flags[i] & VALID != 0 && self.tags[i] == tag {
                if matches!(self.policy, ReplPolicy::Lru) {
                    self.stamps[i] = tick;
                }
                self.flags[i] |= (is_write as u8) << 1;
                return AccessResult {
                    hit: true,
                    writeback: false,
                    evicted: None,
                    line_idx: i,
                };
            }
        }

        // Miss: pick a victim — the first invalid way, else per policy
        // (first-of-minimum stamp for LRU/FIFO, xorshift for Random).
        if is_write {
            self.stats.write_misses += 1;
        } else {
            self.stats.read_misses += 1;
        }
        let victim = match (base..end).find(|&i| self.flags[i] & VALID == 0) {
            Some(i) => i,
            None => match self.policy {
                ReplPolicy::Lru | ReplPolicy::Fifo => {
                    let mut best = base;
                    for i in base + 1..end {
                        if self.stamps[i] < self.stamps[best] {
                            best = i;
                        }
                    }
                    best
                }
                ReplPolicy::Random => {
                    let assoc = self.geom.assoc;
                    base + (self.next_rand() % assoc as u64) as usize
                }
            },
        };
        let writeback = self.flags[victim] & (VALID | DIRTY) == VALID | DIRTY;
        if writeback {
            self.stats.writebacks += 1;
        }
        let evicted =
            (self.flags[victim] & VALID != 0).then(|| self.block_addr(set, self.tags[victim]));
        self.tags[victim] = tag;
        self.flags[victim] = VALID | ((is_write as u8) << 1);
        self.stamps[victim] = tick;
        AccessResult {
            hit: false,
            writeback,
            evicted,
            line_idx: victim,
        }
    }

    /// Block-aligned addresses of every valid line, set-major order
    /// (diagnostics: inclusion audits, fuzz-harness structure checks).
    pub fn valid_block_addrs(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for set in 0..self.geom.sets {
            let base = set * self.geom.assoc;
            for way in 0..self.geom.assoc {
                let i = base + way;
                if self.flags[i] & VALID != 0 {
                    out.push(self.block_addr(set, self.tags[i]));
                }
            }
        }
        out
    }

    /// Check structural well-formedness of the tag store: no set may hold
    /// the same tag in two valid ways (the hit path scans ways in order
    /// and would silently shadow the duplicate), and no invalid line may
    /// carry a dirty bit. Returns the first violation found.
    pub fn check_structure(&self) -> Result<(), String> {
        for set in 0..self.geom.sets {
            let base = set * self.geom.assoc;
            for way in 0..self.geom.assoc {
                let i = base + way;
                if self.flags[i] & VALID == 0 {
                    if self.flags[i] & DIRTY != 0 {
                        return Err(format!("set {set} way {way}: dirty bit on an invalid line"));
                    }
                    continue;
                }
                for later in way + 1..self.geom.assoc {
                    let j = base + later;
                    if self.flags[j] & VALID != 0 && self.tags[j] == self.tags[i] {
                        return Err(format!(
                            "set {set}: tag {:#x} valid in both way {way} and way {later}",
                            self.tags[i]
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    /// Would `addr` hit right now? Does not disturb replacement state or
    /// statistics (used by tests and by the profiler's peek).
    pub fn probe(&self, addr: u64) -> bool {
        let set = self.set_of(addr);
        let tag = self.tag_of(addr);
        let base = set * self.geom.assoc;
        (base..base + self.geom.assoc).any(|i| self.flags[i] & VALID != 0 && self.tags[i] == tag)
    }

    /// Invalidate everything (keeps statistics).
    pub fn flush(&mut self) {
        self.tags.fill(0);
        self.flags.fill(0);
        self.stamps.fill(0);
    }

    /// Capture the tag array and replacement state (not the statistics).
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            sets: self.geom.sets as u64,
            assoc: self.geom.assoc as u64,
            block_bytes: self.geom.block_bytes as u64,
            tags: self.tags.clone(),
            flags: self.flags.clone(),
            stamps: self.stamps.clone(),
            tick: self.tick,
            rng: self.rng,
        }
    }

    /// Load a snapshot captured from a cache of identical geometry,
    /// replacing current contents. Statistics are reset so a restored
    /// simulation counts only its own accesses.
    ///
    /// Returns an error naming the mismatch if the snapshot's geometry
    /// fingerprint disagrees with this cache.
    pub fn restore(&mut self, snap: &CacheSnapshot) -> Result<(), String> {
        let want = (
            self.geom.sets as u64,
            self.geom.assoc as u64,
            self.geom.block_bytes as u64,
        );
        let got = (snap.sets, snap.assoc, snap.block_bytes);
        if want != got {
            return Err(format!(
                "cache snapshot geometry {got:?} != cache geometry {want:?}"
            ));
        }
        let n = self.tags.len();
        if snap.tags.len() != n || snap.flags.len() != n || snap.stamps.len() != n {
            return Err(format!(
                "cache snapshot has {} lines, cache has {n}",
                snap.tags.len()
            ));
        }
        self.tags.clone_from(&snap.tags);
        self.flags.clone_from(&snap.flags);
        self.stamps.clone_from(&snap.stamps);
        self.tick = snap.tick;
        self.rng = snap.rng;
        self.stats = CacheStats::default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Cache {
        Cache::new(
            CacheGeometry {
                sets: 4,
                assoc: 2,
                block_bytes: 16,
            },
            ReplPolicy::Lru,
        )
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = small();
        assert!(!c.access(0x100, false).hit);
        assert!(c.access(0x100, false).hit);
        assert!(c.access(0x10F, false).hit, "same block");
        assert!(!c.access(0x110, false).hit, "next block");
        assert_eq!(c.stats.reads, 4);
        assert_eq!(c.stats.read_misses, 2);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds blocks whose addr = tag * 64 (4 sets * 16B).
        c.access(0, false); // tag 0
        c.access(64, false); // tag 1 — set full
        c.access(0, false); // touch tag 0, tag 1 is now LRU
        let r = c.access(128, false); // tag 2 evicts tag 1
        assert_eq!(r.evicted, Some(64));
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut c = Cache::new(
            CacheGeometry {
                sets: 4,
                assoc: 2,
                block_bytes: 16,
            },
            ReplPolicy::Fifo,
        );
        c.access(0, false);
        c.access(64, false);
        c.access(0, false); // touch does not refresh FIFO stamp
        let r = c.access(128, false);
        assert_eq!(r.evicted, Some(0), "oldest fill evicted despite touch");
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0, true); // fill dirty
        c.access(64, false);
        let r = c.access(128, false); // evicts one of them
                                      // tag 0 is LRU (written first, never touched again)
        assert!(r.writeback);
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small();
        c.access(0, false); // clean fill
        c.access(0, true); // dirty it
        c.access(64, false);
        c.access(128, false); // evict tag 0
        assert_eq!(c.stats.writebacks, 1);
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut c = small();
        c.access(0, false);
        c.access(64, false);
        assert!(c.probe(64));
        let before = c.stats;
        assert!(c.probe(0));
        assert_eq!(c.stats, before);
    }

    #[test]
    fn flush_invalidates() {
        let mut c = small();
        c.access(0, false);
        c.flush();
        assert!(!c.probe(0));
        assert!(!c.access(0, false).hit);
    }

    #[test]
    fn paper_geometries() {
        assert_eq!(CacheGeometry::l1d_paper().capacity(), 32 * 1024);
        assert_eq!(CacheGeometry::l2_paper().capacity(), 256 * 1024);
    }

    #[test]
    fn line_idx_is_stable_between_hit_and_fill() {
        let mut c = small();
        let fill = c.access(0x100, false);
        assert!(!fill.hit);
        let hit = c.access(0x100, false);
        assert!(hit.hit);
        assert_eq!(hit.line_idx, fill.line_idx, "same line serves both");
        assert!(hit.line_idx < c.geometry().lines());
        // A conflicting fill that evicts the line reuses its index.
        c.access(0x100 + 64, false);
        let evicting = c.access(0x100 + 128, false);
        assert_eq!(evicting.evicted, Some(0x100), "LRU line evicted");
        assert_eq!(evicting.line_idx, fill.line_idx, "victim reuses the slot");
    }

    #[test]
    fn snapshot_restore_preserves_contents_and_lru_order() {
        let mut c = small();
        c.access(0, false);
        c.access(64, true); // dirty
        c.access(0, false); // tag 1 now LRU in set 0
        let snap = c.snapshot();

        let mut fresh = small();
        fresh.restore(&snap).expect("matching geometry");
        assert!(fresh.probe(0) && fresh.probe(64));
        assert_eq!(fresh.stats, CacheStats::default(), "stats reset on restore");

        // LRU order carried over: filling a third tag evicts tag 1, and
        // because tag 1 was dirty the eviction is a writeback.
        let r = fresh.access(128, false);
        assert_eq!(r.evicted, Some(64));
        assert!(r.writeback);

        // The restored cache behaves identically to the original.
        let r2 = c.access(128, false);
        assert_eq!(r2.evicted, Some(64));
    }

    #[test]
    fn restore_rejects_geometry_mismatch() {
        let c = small();
        let snap = c.snapshot();
        let mut other = Cache::new(
            CacheGeometry {
                sets: 8,
                assoc: 2,
                block_bytes: 16,
            },
            ReplPolicy::Lru,
        );
        assert!(other.restore(&snap).is_err());
    }

    #[test]
    fn random_policy_fills_all_ways_before_evicting() {
        let mut c = Cache::new(
            CacheGeometry {
                sets: 1,
                assoc: 4,
                block_bytes: 16,
            },
            ReplPolicy::Random,
        );
        for i in 0..4 {
            assert!(!c.access(i * 16, false).hit);
        }
        for i in 0..4 {
            assert!(c.access(i * 16, false).hit, "all four resident");
        }
        c.access(4 * 16, false);
        let resident = (0..5).filter(|i| c.probe(i * 16)).count();
        assert_eq!(resident, 4, "exactly one block was evicted");
    }
}
