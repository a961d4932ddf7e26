//! TAGE: TAgged GEometric-history-length branch prediction.
//!
//! A faithful, deterministic port of the Seznec/Michaud TAGE design
//! (JILP 2006): a bimodal base table plus `N` tagged tables indexed by
//! hashes of the PC with geometrically increasing slices of global
//! branch history. Each tagged entry carries a 3-bit prediction counter,
//! a partial tag, and a 2-bit "useful" counter that gates replacement;
//! the longest-history tag match provides the prediction, with a
//! next-longest (or base) alternative used when the provider is a newly
//! allocated weak entry.
//!
//! Deviations from the reference implementation, chosen for
//! checkpointability and determinism:
//!
//! * index/tag hashes *fold the history functionally* on every lookup
//!   instead of maintaining incremental circular-shift registers — the
//!   whole predictor state is then plain tables plus one history
//!   register, which snapshots and restores exactly;
//! * allocation on a mispredict takes the *first* `u == 0` table above
//!   the provider (the reference throws a biased coin between
//!   candidates) — no RNG, so two identical runs are bit-identical;
//! * useful-bit aging halves every `u` counter on a fixed tick period
//!   (the reference alternates column resets), with the tick counter
//!   part of the snapshot.
//!
//! History advances only in [`Tage::update`] (branch resolution on the
//! true path), matching the crate-wide discipline — no speculative
//! history, hence nothing to repair on a squash.

use crate::{BranchPredictor, DirSnapshot, PredictorDetail, PredictorKind};
use serde::{Deserialize, Serialize};

/// Geometry of the tagged side of a TAGE predictor. The bimodal base
/// table is sized by [`crate::PredictorConfig::table_size`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct TageConfig {
    /// Number of tagged tables.
    pub tables: usize,
    /// log2 entries per tagged table.
    pub table_bits: u32,
    /// Partial-tag width in bits (at most 16).
    pub tag_bits: u32,
    /// History length of the shortest tagged table.
    pub min_hist: u32,
    /// History length of the longest tagged table (at most 128).
    pub max_hist: u32,
    /// Updates between useful-counter halvings.
    pub u_decay_period: u32,
}

impl TageConfig {
    /// The default geometry: 4 tables × 1K entries, 8-bit tags,
    /// histories 4–64 — a small (~7 KB) predictor in the spirit of the
    /// original 2006 "TAGE 5-component" configuration, scaled to the
    /// paper's 2048-entry bimodal budget class.
    pub fn default_spec() -> TageConfig {
        TageConfig {
            tables: 4,
            table_bits: 10,
            tag_bits: 8,
            min_hist: 4,
            max_hist: 64,
            u_decay_period: 1 << 18,
        }
    }

    /// Validate the geometry bounds.
    pub fn validate(&self) -> Result<(), String> {
        if self.tables < 1 || self.tables > 16 {
            return Err(format!("tage tables must be 1..=16, got {}", self.tables));
        }
        if self.table_bits < 1 || self.table_bits > 20 {
            return Err(format!(
                "tage table bits must be 1..=20, got {}",
                self.table_bits
            ));
        }
        if self.tag_bits < 4 || self.tag_bits > 16 {
            return Err(format!(
                "tage tag bits must be 4..=16, got {}",
                self.tag_bits
            ));
        }
        if self.min_hist < 1 || self.max_hist > 128 || self.min_hist > self.max_hist {
            return Err(format!(
                "tage history must satisfy 1 <= hmin <= hmax <= 128, got {}..{}",
                self.min_hist, self.max_hist
            ));
        }
        if self.u_decay_period == 0 {
            return Err("tage decay period must be nonzero".to_string());
        }
        Ok(())
    }

    /// The geometric history lengths, shortest first:
    /// `L(i) = min_hist * (max_hist / min_hist) ^ (i / (N-1))`, rounded
    /// and forced strictly increasing.
    pub fn history_lengths(&self) -> Vec<u32> {
        let n = self.tables;
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            let len = if n == 1 {
                self.max_hist
            } else {
                let ratio = self.max_hist as f64 / self.min_hist as f64;
                let l = self.min_hist as f64 * ratio.powf(i as f64 / (n - 1) as f64);
                (l + 0.5) as u32
            };
            let prev = out.last().copied().unwrap_or(0);
            out.push(len.clamp(prev + 1, self.max_hist.max(prev + 1)));
        }
        out
    }
}

/// One tagged table: parallel counter/tag/useful arrays.
#[derive(Clone, Debug)]
struct TaggedTable {
    /// 3-bit prediction counters, 0..=7; taken when >= 4. Weak states
    /// are 3 and 4 (a newly allocated entry starts weak).
    ctr: Vec<u8>,
    /// Partial tags.
    tag: Vec<u16>,
    /// 2-bit useful counters, 0..=3.
    u: Vec<u8>,
    mask: u32,
    /// History length this table's hashes fold.
    hist_len: u32,
}

impl TaggedTable {
    fn new(bits: u32, hist_len: u32) -> TaggedTable {
        let size = 1usize << bits;
        TaggedTable {
            ctr: vec![3; size],
            tag: vec![0; size],
            u: vec![0; size],
            mask: (size - 1) as u32,
            hist_len,
        }
    }
}

/// What one lookup saw: the provider chain for a PC under the current
/// history.
struct Lookup {
    /// Index into `tables` of the longest matching table, if any.
    provider: Option<usize>,
    /// Per-table (index, tag) pairs, precomputed once.
    slots: Vec<(usize, u16)>,
    /// Direction from the provider entry (base prediction if none).
    provider_pred: bool,
    /// Direction from the next-longest match, or the base table.
    alt_pred: bool,
    /// Whether the provider entry is newly allocated (weak counter,
    /// `u == 0`), i.e. not yet trusted.
    provider_is_new: bool,
}

/// The TAGE predictor. See the module docs for the design and the
/// determinism/checkpointing deviations.
#[derive(Clone, Debug)]
pub struct Tage {
    cfg: TageConfig,
    /// Bimodal base: 2-bit counters, 0..=3, taken when >= 2.
    base: Vec<u8>,
    base_mask: u32,
    tables: Vec<TaggedTable>,
    /// Global direction history, newest outcome in bit 0 of `hist[0]`.
    hist: [u64; 2],
    /// Signed "use the alternative prediction for new entries" counter,
    /// -8..=7 (use alt when >= 0).
    use_alt_on_na: i8,
    /// Updates since the last useful-counter halving.
    tick: u32,
    // Internal counters for the stats envelope (reset on restore, never
    // part of the snapshot — a restored predictor counts only its own
    // resolutions).
    stat_provider_tagged: u64,
    stat_provider_base: u64,
    stat_alt_used: u64,
    stat_allocs: u64,
    stat_alloc_fails: u64,
    stat_u_decays: u64,
}

impl Tage {
    /// Build with a `base_size`-entry bimodal base (power of two) and
    /// the given tagged-table geometry.
    pub fn new(base_size: usize, cfg: TageConfig) -> Tage {
        assert!(base_size.is_power_of_two(), "tage base size must be 2^k");
        cfg.validate().expect("tage geometry");
        let lens = cfg.history_lengths();
        Tage {
            cfg,
            base: vec![1; base_size],
            base_mask: (base_size - 1) as u32,
            tables: lens
                .iter()
                .map(|&l| TaggedTable::new(cfg.table_bits, l))
                .collect(),
            hist: [0; 2],
            use_alt_on_na: 0,
            tick: 0,
            stat_provider_tagged: 0,
            stat_provider_base: 0,
            stat_alt_used: 0,
            stat_allocs: 0,
            stat_alloc_fails: 0,
            stat_u_decays: 0,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> TageConfig {
        self.cfg
    }

    /// Extract history bits `[from, from+n)` (newest outcome at 0).
    fn hist_slice(&self, from: u32, n: u32) -> u64 {
        debug_assert!(n <= 64 && from + n <= 128);
        let lo = if from < 64 { self.hist[0] >> from } else { 0 };
        let hi = if from < 64 {
            // Bits of hist[1] shifted in above the remainder of hist[0].
            if from == 0 {
                0 // avoid shift-by-64; n <= 64 bits all come from hist[0]
            } else {
                self.hist[1] << (64 - from)
            }
        } else {
            self.hist[1] >> (from - 64)
        };
        let v = lo | hi;
        if n == 64 {
            v
        } else {
            v & ((1u64 << n) - 1)
        }
    }

    /// Fold `len` history bits into a `bits`-wide value by XOR.
    fn fold_hist(&self, len: u32, bits: u32) -> u32 {
        let mut acc: u64 = 0;
        let mut from = 0;
        while from < len {
            let chunk = bits.min(len - from);
            acc ^= self.hist_slice(from, chunk);
            from += bits;
        }
        (acc as u32) & ((1u32 << bits) - 1)
    }

    /// (index, tag) for table `i` at `pc` under the current history.
    fn slot(&self, i: usize, pc: u32) -> (usize, u16) {
        let t = &self.tables[i];
        let bits = self.cfg.table_bits;
        let idx = (pc ^ (pc >> bits) ^ self.fold_hist(t.hist_len, bits)) & t.mask;
        let tb = self.cfg.tag_bits;
        let tag = (pc ^ self.fold_hist(t.hist_len, tb) ^ (self.fold_hist(t.hist_len, tb - 1) << 1))
            & ((1u32 << tb) - 1);
        (idx as usize, tag as u16)
    }

    fn base_pred(&self, pc: u32) -> bool {
        self.base[(pc & self.base_mask) as usize] >= 2
    }

    /// Run the provider/alt selection for `pc` under current history.
    fn lookup(&self, pc: u32) -> Lookup {
        let slots: Vec<(usize, u16)> = (0..self.tables.len()).map(|i| self.slot(i, pc)).collect();
        let mut provider = None;
        let mut alt = None;
        for i in (0..self.tables.len()).rev() {
            let (idx, tag) = slots[i];
            if self.tables[i].tag[idx] == tag {
                if provider.is_none() {
                    provider = Some(i);
                } else {
                    alt = Some(i);
                    break;
                }
            }
        }
        let base = self.base_pred(pc);
        let (provider_pred, provider_is_new) = match provider {
            Some(i) => {
                let (idx, _) = slots[i];
                let c = self.tables[i].ctr[idx];
                (c >= 4, (c == 3 || c == 4) && self.tables[i].u[idx] == 0)
            }
            None => (base, false),
        };
        let alt_pred = match alt {
            Some(i) => {
                let (idx, _) = slots[i];
                self.tables[i].ctr[idx] >= 4
            }
            None => base,
        };
        Lookup {
            provider,
            slots,
            provider_pred,
            alt_pred,
            provider_is_new,
        }
    }

    /// The final direction choice given a lookup.
    fn choose(&self, l: &Lookup) -> bool {
        if l.provider.is_some() && l.provider_is_new && self.use_alt_on_na >= 0 {
            l.alt_pred
        } else {
            l.provider_pred
        }
    }

    fn bump3(c: &mut u8, taken: bool) {
        if taken {
            *c = (*c + 1).min(7);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

impl BranchPredictor for Tage {
    fn kind(&self) -> PredictorKind {
        PredictorKind::Tage
    }

    fn predict(&self, pc: u32) -> bool {
        let l = self.lookup(pc);
        self.choose(&l)
    }

    fn update(&mut self, pc: u32, taken: bool) {
        // Recompute the provider chain under the resolution-time history
        // — the same idiom the gshare table uses (the hit/miss *stats*
        // are judged against the fetch-time prediction by the facade).
        let l = self.lookup(pc);
        let chosen = self.choose(&l);

        if let Some(p) = l.provider {
            self.stat_provider_tagged += 1;
            if chosen != l.provider_pred {
                self.stat_alt_used += 1;
            }
            let (idx, _) = l.slots[p];
            // Track whether trusting weak new entries beats their alt.
            if l.provider_is_new && l.provider_pred != l.alt_pred {
                let delta = if l.alt_pred == taken { 1 } else { -1 };
                self.use_alt_on_na = (self.use_alt_on_na + delta).clamp(-8, 7);
            }
            // The useful bit rewards a provider that disagreed with its
            // alternative and was right (and punishes the converse).
            if l.provider_pred != l.alt_pred {
                let u = &mut self.tables[p].u[idx];
                if l.provider_pred == taken {
                    *u = (*u + 1).min(3);
                } else {
                    *u = u.saturating_sub(1);
                }
            }
            Self::bump3(&mut self.tables[p].ctr[idx], taken);
            // A provider too short to be confident also trains the base,
            // keeping the fallback warm (reference "update both" rule for
            // the alt path when the provider is new).
            if l.provider_is_new {
                let b = &mut self.base[(pc & self.base_mask) as usize];
                if taken {
                    *b = (*b + 1).min(3);
                } else {
                    *b = b.saturating_sub(1);
                }
            }
        } else {
            self.stat_provider_base += 1;
            let b = &mut self.base[(pc & self.base_mask) as usize];
            if taken {
                *b = (*b + 1).min(3);
            } else {
                *b = b.saturating_sub(1);
            }
        }

        // Allocate a longer-history entry on a mispredict (when one
        // exists above the provider): deterministically take the first
        // u == 0 candidate; if none, age every candidate's u instead.
        if chosen != taken {
            let start = l.provider.map(|p| p + 1).unwrap_or(0);
            if start < self.tables.len() {
                let mut allocated = false;
                for i in start..self.tables.len() {
                    let (idx, tag) = l.slots[i];
                    if self.tables[i].u[idx] == 0 {
                        self.tables[i].tag[idx] = tag;
                        self.tables[i].ctr[idx] = if taken { 4 } else { 3 };
                        self.stat_allocs += 1;
                        allocated = true;
                        break;
                    }
                }
                if !allocated {
                    self.stat_alloc_fails += 1;
                    for i in start..self.tables.len() {
                        let (idx, _) = l.slots[i];
                        self.tables[i].u[idx] = self.tables[i].u[idx].saturating_sub(1);
                    }
                }
            }
        }

        // Periodic useful-counter aging, on a snapshotted tick.
        self.tick += 1;
        if self.tick >= self.cfg.u_decay_period {
            self.tick = 0;
            self.stat_u_decays += 1;
            for t in &mut self.tables {
                for u in &mut t.u {
                    *u >>= 1;
                }
            }
        }

        // Advance global history (resolution order, true path only).
        self.hist[1] = (self.hist[1] << 1) | (self.hist[0] >> 63);
        self.hist[0] = (self.hist[0] << 1) | taken as u64;
        if self.cfg.max_hist < 64 {
            self.hist[0] &= (1u64 << self.cfg.max_hist) - 1;
            self.hist[1] = 0;
        } else if self.cfg.max_hist < 128 {
            self.hist[1] &= (1u64 << (self.cfg.max_hist - 64)) - 1;
        }
    }

    fn snapshot(&self) -> DirSnapshot {
        DirSnapshot::Tage(TageSnapshot {
            base: self.base.clone(),
            ctrs: self.tables.iter().map(|t| t.ctr.clone()).collect(),
            tags: self.tables.iter().map(|t| t.tag.clone()).collect(),
            useful: self.tables.iter().map(|t| t.u.clone()).collect(),
            hist: self.hist.to_vec(),
            use_alt_on_na: self.use_alt_on_na,
            tick: self.tick,
        })
    }

    fn restore(&mut self, snap: &DirSnapshot) -> Result<(), String> {
        let DirSnapshot::Tage(s) = snap else {
            return Err(format!(
                "snapshot holds {} state, live predictor is tage",
                snap.kind().name()
            ));
        };
        if s.base.len() != self.base.len() {
            return Err(format!(
                "snapshot base table has {} counters, live table holds {}",
                s.base.len(),
                self.base.len()
            ));
        }
        if s.ctrs.len() != self.tables.len()
            || s.tags.len() != self.tables.len()
            || s.useful.len() != self.tables.len()
        {
            return Err(format!(
                "snapshot has {} tagged tables, live predictor has {}",
                s.ctrs.len(),
                self.tables.len()
            ));
        }
        for (i, t) in self.tables.iter().enumerate() {
            let want = t.ctr.len();
            if s.ctrs[i].len() != want || s.tags[i].len() != want || s.useful[i].len() != want {
                return Err(format!(
                    "snapshot tagged table {i} has {} entries, live table holds {want}",
                    s.ctrs[i].len()
                ));
            }
        }
        if s.hist.len() != 2 {
            return Err(format!(
                "snapshot history has {} words, expected 2",
                s.hist.len()
            ));
        }
        self.base.copy_from_slice(&s.base);
        for (i, t) in self.tables.iter_mut().enumerate() {
            t.ctr.copy_from_slice(&s.ctrs[i]);
            t.tag.copy_from_slice(&s.tags[i]);
            t.u.copy_from_slice(&s.useful[i]);
        }
        self.hist = [s.hist[0], s.hist[1]];
        self.use_alt_on_na = s.use_alt_on_na.clamp(-8, 7);
        self.tick = s.tick;
        self.stat_provider_tagged = 0;
        self.stat_provider_base = 0;
        self.stat_alt_used = 0;
        self.stat_allocs = 0;
        self.stat_alloc_fails = 0;
        self.stat_u_decays = 0;
        Ok(())
    }

    fn geometry(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("base_entries", self.base.len() as u64),
            ("tagged_tables", self.cfg.tables as u64),
            ("entries_per_table", 1u64 << self.cfg.table_bits),
            ("tag_bits", self.cfg.tag_bits as u64),
            ("min_history", self.cfg.min_hist as u64),
            ("max_history", self.cfg.max_hist as u64),
        ]
    }

    fn detail(&self) -> Option<PredictorDetail> {
        Some(PredictorDetail {
            kind: "tage".to_string(),
            counters: vec![
                ("provider_tagged".to_string(), self.stat_provider_tagged),
                ("provider_base".to_string(), self.stat_provider_base),
                ("alt_used".to_string(), self.stat_alt_used),
                ("allocations".to_string(), self.stat_allocs),
                ("allocation_fails".to_string(), self.stat_alloc_fails),
                ("u_decays".to_string(), self.stat_u_decays),
            ],
        })
    }

    fn clone_box(&self) -> Box<dyn BranchPredictor> {
        Box::new(self.clone())
    }
}

/// Warm TAGE state. Internal stat counters are deliberately absent — a
/// restored predictor counts only its own resolutions.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TageSnapshot {
    /// Bimodal base counters.
    pub base: Vec<u8>,
    /// Per-table 3-bit prediction counters.
    pub ctrs: Vec<Vec<u8>>,
    /// Per-table partial tags.
    pub tags: Vec<Vec<u16>>,
    /// Per-table 2-bit useful counters.
    pub useful: Vec<Vec<u8>>,
    /// Global history, `[low 64 bits, high 64 bits]`.
    pub hist: Vec<u64>,
    /// The use-alt-on-newly-allocated counter.
    pub use_alt_on_na: i8,
    /// Updates since the last useful-counter halving.
    pub tick: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn history_lengths_are_geometric_and_strictly_increasing() {
        let lens = TageConfig::default_spec().history_lengths();
        assert_eq!(lens.len(), 4);
        assert_eq!(*lens.first().unwrap(), 4);
        assert_eq!(*lens.last().unwrap(), 64);
        assert!(lens.windows(2).all(|w| w[0] < w[1]), "{lens:?}");
        // Degenerate single-table geometry still works.
        let one = TageConfig {
            tables: 1,
            ..TageConfig::default_spec()
        };
        assert_eq!(one.history_lengths(), vec![64]);
    }

    #[test]
    fn hist_slice_crosses_the_word_boundary() {
        let mut t = Tage::new(64, TageConfig::default_spec());
        t.cfg.max_hist = 128; // widen so nothing is masked away
        t.hist = [u64::MAX, 0b1011];
        assert_eq!(t.hist_slice(0, 8), 0xFF);
        assert_eq!(t.hist_slice(60, 8), 0b1011_1111);
        assert_eq!(t.hist_slice(64, 4), 0b1011);
        assert_eq!(t.hist_slice(0, 64), u64::MAX);
    }

    #[test]
    fn learns_a_long_alternation_that_defeats_bimodal() {
        // Pattern with period 8 on one PC: needs history, not bias.
        let mut t = Tage::new(2048, TageConfig::default_spec());
        let pattern = [true, true, false, true, false, false, true, false];
        let mut correct = 0;
        for i in 0..4000 {
            let taken = pattern[i % pattern.len()];
            if t.predict(100) == taken {
                correct += 1;
            }
            t.update(100, taken);
        }
        assert!(
            correct > 3400,
            "tage should learn a period-8 pattern, got {correct}/4000"
        );
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let base = TageConfig::default_spec();
        assert!(TageConfig { tables: 0, ..base }.validate().is_err());
        assert!(TageConfig {
            tag_bits: 2,
            ..base
        }
        .validate()
        .is_err());
        assert!(TageConfig {
            min_hist: 32,
            max_hist: 8,
            ..base
        }
        .validate()
        .is_err());
        assert!(TageConfig {
            max_hist: 1000,
            ..base
        }
        .validate()
        .is_err());
        assert!(TageConfig {
            u_decay_period: 0,
            ..base
        }
        .validate()
        .is_err());
    }
}
