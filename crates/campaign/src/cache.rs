//! Byte-budget LRU caches for the expensive fixed costs of a campaign,
//! shared read-only across every cell of every job that needs them:
//!
//! * [`ShardCache`] — prepared [`WorkloadData`] shards (compiled binary,
//!   warm checkpoints, interval plan), keyed by [`ShardKey`]. Phase 1 of
//!   a campaign depends only on those parameters, never on the (machine,
//!   latency) grid, so a resident server running many jobs over the same
//!   workloads pays for each shard once, and a 10k–1M-cell grid runs in
//!   O(shards) memory.
//! * [`TraceCache`] — recorded `.spt` replay streams, keyed by workload
//!   alone: the committed path is architecture-defined, identical across
//!   machines, predictors, latencies and sampling plans.
//!
//! Eviction is least-recently-used under a byte budget (sizes estimated
//! by [`ApproxBytes`]). An entry being *used* by a running job is an
//! `Arc` clone, so eviction never invalidates in-flight work — it only
//! drops the cache's own reference.

use crate::engine::WorkloadData;
use crate::spec::ShardKey;
use spear_isa::SpearBinary;
use spear_trace::TraceFile;
use std::sync::{Arc, Mutex, PoisonError};

/// Estimated resident size of a cached value, for the LRU byte budget.
pub trait ApproxBytes {
    /// Approximate resident bytes.
    fn approx_bytes(&self) -> u64;
}

/// Estimated resident size of a decoded trace: the in-memory record
/// array dominates (the `Rec` struct is ~40 bytes against ~1 payload
/// byte per ALU instruction), plus the embedded image and a flat base.
impl ApproxBytes for TraceFile {
    fn approx_bytes(&self) -> u64 {
        const BASE_OVERHEAD: u64 = 64 * 1024;
        const PER_REC: u64 = 48;
        BASE_OVERHEAD + self.recs.len() as u64 * PER_REC + self.payload_bytes
    }
}

/// Cumulative cache counters, for `/metrics`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build the value.
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Estimated bytes currently resident.
    pub resident_bytes: u64,
    /// Entries currently resident.
    pub entries: u64,
}

/// The checkpoint-shard cache.
pub type ShardCache = Lru<ShardKey, WorkloadData>;
/// The replay-trace cache, keyed by workload spec.
pub type TraceCache = Lru<String, TraceFile>;

struct Inner<K, V> {
    /// `(key, value, bytes)`, most-recently-used last.
    entries: Vec<(K, Arc<V>, u64)>,
    stats: LruStats,
}

impl<K: PartialEq, V> Inner<K, V> {
    /// Move `key`'s entry to most-recently-used and return its value.
    fn touch(&mut self, key: &K) -> Option<Arc<V>> {
        let i = self.entries.iter().position(|(k, _, _)| k == key)?;
        let entry = self.entries.remove(i);
        let value = entry.1.clone();
        self.entries.push(entry);
        Some(value)
    }
}

/// A least-recently-used cache of shared values under a byte budget.
pub struct Lru<K, V> {
    budget: u64,
    inner: Mutex<Inner<K, V>>,
}

impl<K: PartialEq, V: ApproxBytes> Lru<K, V> {
    /// A cache that keeps at most ~`budget_bytes` of estimated state
    /// resident (a single value larger than the whole budget is still
    /// cached — the budget bounds the *sum*, evicting down to one entry
    /// at minimum).
    pub fn new(budget_bytes: u64) -> Self {
        Lru {
            budget: budget_bytes,
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                stats: LruStats::default(),
            }),
        }
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> u64 {
        self.budget
    }

    /// The cache state. Every update below leaves the entries and the
    /// counters consistent, so a panic elsewhere cannot leave them torn.
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<K, V>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetch the value for `key`, building it with `build` on a miss.
    /// Building happens *outside* the cache lock so a slow functional
    /// pass never blocks hits on other keys; if two threads race to
    /// build the same key, the first insert wins and the loser's copy is
    /// dropped. Build errors are returned and not cached.
    pub fn get_or_create(
        &self,
        key: K,
        build: impl FnOnce() -> Result<V, String>,
    ) -> Result<Arc<V>, String> {
        {
            let mut g = self.lock();
            if let Some(hit) = g.touch(&key) {
                g.stats.hits += 1;
                return Ok(hit);
            }
            g.stats.misses += 1;
        }
        let built = Arc::new(build()?);
        let bytes = built.approx_bytes();
        let mut g = self.lock();
        if let Some(incumbent) = g.touch(&key) {
            return Ok(incumbent);
        }
        g.entries.push((key, built.clone(), bytes));
        g.stats.resident_bytes += bytes;
        while g.stats.resident_bytes > self.budget && g.entries.len() > 1 {
            let (_, _, victim) = g.entries.remove(0);
            g.stats.resident_bytes -= victim;
            g.stats.evictions += 1;
        }
        Ok(built)
    }

    /// Current counters.
    pub fn stats(&self) -> LruStats {
        let g = self.lock();
        LruStats {
            entries: g.entries.len() as u64,
            ..g.stats
        }
    }
}

/// Record `binary`'s committed path and decode it back into a replayable
/// [`TraceFile`] — the same encode→decode round trip a `.spt` on disk
/// takes, so cached and file-loaded traces are indistinguishable.
pub fn record_trace(
    workload: &str,
    binary: &SpearBinary,
    max_insts: u64,
) -> Result<TraceFile, String> {
    let (bytes, stats) =
        spear_trace::record(binary, max_insts).map_err(|e| format!("{workload}: record: {e}"))?;
    if !stats.halted {
        return Err(format!(
            "{workload}: trace recording hit the {max_insts}-instruction budget before halt"
        ));
    }
    TraceFile::decode(&bytes).map_err(|e| format!("{workload}: re-decode of own trace: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample::SampleSpec;
    use spear_isa::asm::Asm;
    use spear_isa::reg::*;

    /// A value whose size is its payload.
    struct Blob(u64);

    impl ApproxBytes for Blob {
        fn approx_bytes(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn hits_after_first_build_and_counts() {
        let cache: Lru<&str, Blob> = Lru::new(u64::MAX);
        let a1 = cache.get_or_create("a", || Ok(Blob(10))).unwrap();
        let a2 = cache
            .get_or_create("a", || panic!("must not rebuild"))
            .unwrap();
        assert!(Arc::ptr_eq(&a1, &a2), "same shared value");
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.entries, s.resident_bytes),
            (1, 1, 1, 10)
        );
    }

    #[test]
    fn build_errors_are_propagated_and_not_cached() {
        let cache: Lru<&str, Blob> = Lru::new(u64::MAX);
        let err = cache
            .get_or_create("a", || Err("compile failed".to_string()))
            .err()
            .unwrap();
        assert!(err.contains("compile failed"));
        // A later attempt builds again (and can succeed).
        cache.get_or_create("a", || Ok(Blob(1))).unwrap();
        assert_eq!(cache.stats().misses, 2);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget_and_keeps_hot_entries() {
        // Budget for two entries: touching "a" makes "b" the victim.
        let cache: Lru<&str, Blob> = Lru::new(20);
        let held = cache.get_or_create("a", || Ok(Blob(10))).unwrap();
        cache.get_or_create("b", || Ok(Blob(10))).unwrap();
        cache.get_or_create("a", || panic!("cached")).unwrap();
        cache.get_or_create("c", || Ok(Blob(10))).unwrap();
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions, s.resident_bytes), (2, 1, 20));
        cache.get_or_create("a", || panic!("a stayed hot")).unwrap();
        let rebuilt = std::cell::Cell::new(false);
        cache
            .get_or_create("b", || {
                rebuilt.set(true);
                Ok(Blob(10))
            })
            .unwrap();
        assert!(rebuilt.get(), "the evicted entry rebuilds");
        // Zero budget still keeps the newest entry, and in-flight Arcs
        // survive eviction.
        let tiny: Lru<&str, Blob> = Lru::new(0);
        let first = tiny.get_or_create("a", || Ok(Blob(5))).unwrap();
        tiny.get_or_create("b", || Ok(Blob(5))).unwrap();
        assert_eq!(tiny.stats().entries, 1);
        assert_eq!(first.0, 5);
        assert_eq!(held.0, 10);
    }

    #[test]
    fn every_shard_key_axis_keys_shards_apart() {
        let base = ShardKey {
            workload: "a".into(),
            bpred: "bimodal".into(),
            trace: false,
            simpoint: None,
            sample: SampleSpec::full(1000),
        };
        let variants = [
            ShardKey {
                workload: "b".into(),
                ..base.clone()
            },
            ShardKey {
                bpred: "tage".into(),
                ..base.clone()
            },
            ShardKey {
                trace: true,
                ..base.clone()
            },
            ShardKey {
                simpoint: Some(crate::SimpointSpec { k: 4, seed: 42 }),
                ..base.clone()
            },
            ShardKey {
                sample: SampleSpec {
                    interval_len: 1000,
                    stride: 2,
                },
                ..base.clone()
            },
        ];
        let cache: Lru<ShardKey, Blob> = Lru::new(u64::MAX);
        cache.get_or_create(base.clone(), || Ok(Blob(1))).unwrap();
        for v in variants {
            cache.get_or_create(v, || Ok(Blob(1))).unwrap();
        }
        assert_eq!(cache.stats().misses, 6, "each axis is part of the key");
        cache.get_or_create(base, || panic!("cached")).unwrap();
    }

    fn tiny_binary(iters: i64) -> SpearBinary {
        let mut a = Asm::new();
        a.li(R3, iters);
        a.label("spin");
        a.addi(R3, R3, -1);
        a.bne(R3, R0, "spin");
        a.halt();
        SpearBinary::plain(a.finish().unwrap())
    }

    #[test]
    fn traces_record_once_then_hit() {
        let cache = TraceCache::new(u64::MAX);
        let b = tiny_binary(8);
        let record = || record_trace("spin", &b, u64::MAX);
        let t1 = cache.get_or_create("spin".into(), record).unwrap();
        let t2 = cache.get_or_create("spin".into(), record).unwrap();
        assert!(Arc::ptr_eq(&t1, &t2), "same shared trace");
        assert!(!t1.recs.is_empty());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.resident_bytes > 0);
    }

    #[test]
    fn runaway_recordings_error_instead_of_caching_a_torso() {
        let cache = TraceCache::new(u64::MAX);
        let b = tiny_binary(1000);
        let err = cache
            .get_or_create("spin".into(), || record_trace("spin", &b, 5))
            .err()
            .unwrap();
        assert!(err.contains("budget before halt"), "{err}");
        assert_eq!(cache.stats().entries, 0, "the failure was not cached");
    }
}
