//! # spear-mem — the cache hierarchy model
//!
//! Timing model of the paper's memory system (Table 2): split L1
//! instruction/data caches over a unified L2 over main memory, LRU
//! set-associative, write-back write-allocate. Provides the per-static-PC
//! miss accounting the SPEAR profiler uses to identify delinquent loads and
//! the latency knobs the Figure 9 sweep varies.

pub mod cache;
pub mod hier;
pub mod prefetch;

pub use cache::{AccessResult, Cache, CacheGeometry, CacheStats, ReplPolicy};
pub use hier::{
    AccessKind, FillRecord, HierConfig, Hierarchy, LatencyConfig, MemAccess, PcMissCounts,
    PrefetchCounts, ServedBy,
};
pub use prefetch::{StrideConfig, StridePrefetcher};
