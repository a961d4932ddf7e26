//! Direction tables and the branch target buffer.

/// 2-bit saturating counter states.
///
/// 0–1 predict not-taken, 2–3 predict taken; counters initialize to weakly
/// not-taken (1), matching SimpleScalar's bimodal reset state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bimodal {
    table: Vec<u8>,
    mask: u32,
}

impl Bimodal {
    /// `size` must be a power of two.
    pub fn new(size: usize) -> Bimodal {
        assert!(size.is_power_of_two(), "bimodal table size must be 2^k");
        Bimodal {
            table: vec![1; size],
            mask: (size - 1) as u32,
        }
    }

    #[inline]
    fn idx(&self, pc: u32) -> usize {
        (pc & self.mask) as usize
    }

    /// Predicted direction for the branch at `pc`.
    #[inline]
    pub fn predict(&self, pc: u32) -> bool {
        self.table[self.idx(pc)] >= 2
    }

    /// Train with the resolved direction.
    #[inline]
    pub fn update(&mut self, pc: u32, taken: bool) {
        let i = self.idx(pc);
        let c = &mut self.table[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }
}

/// Gshare: global history XOR PC indexes the counter table.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gshare {
    table: Vec<u8>,
    mask: u32,
    history: u32,
    hist_bits: u32,
}

impl Gshare {
    /// `size` must be a power of two; history length is `log2(size)`.
    pub fn new(size: usize) -> Gshare {
        assert!(size.is_power_of_two(), "gshare table size must be 2^k");
        Gshare {
            table: vec![1; size],
            mask: (size - 1) as u32,
            history: 0,
            hist_bits: size.trailing_zeros(),
        }
    }

    #[inline]
    fn idx(&self, pc: u32) -> usize {
        ((pc ^ self.history) & self.mask) as usize
    }

    /// Predicted direction under the current global history.
    #[inline]
    pub fn predict(&self, pc: u32) -> bool {
        self.table[self.idx(pc)] >= 2
    }

    /// Train and shift the resolved direction into the history register.
    #[inline]
    pub fn update(&mut self, pc: u32, taken: bool) {
        let i = self.idx(pc);
        let c = &mut self.table[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        self.history = ((self.history << 1) | taken as u32) & ((1 << self.hist_bits) - 1);
    }
}

/// Direct-mapped branch target buffer with tag check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Btb {
    entries: Vec<Option<(u32, u32)>>, // (tag pc, target)
    mask: u32,
}

impl Btb {
    /// `entries` must be a power of two.
    pub fn new(entries: usize) -> Btb {
        assert!(entries.is_power_of_two(), "BTB size must be 2^k");
        Btb {
            entries: vec![None; entries],
            mask: (entries - 1) as u32,
        }
    }

    /// Predicted target for the control instruction at `pc`, if cached.
    #[inline]
    pub fn lookup(&self, pc: u32) -> Option<u32> {
        match self.entries[(pc & self.mask) as usize] {
            Some((tag, target)) if tag == pc => Some(target),
            _ => None,
        }
    }

    /// Record the resolved target.
    #[inline]
    pub fn insert(&mut self, pc: u32, target: u32) {
        self.entries[(pc & self.mask) as usize] = Some((pc, target));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bimodal_saturates_both_ways() {
        let mut b = Bimodal::new(16);
        for _ in 0..10 {
            b.update(3, true);
        }
        assert!(b.predict(3));
        b.update(3, false); // 3 -> 2, still predicts taken (hysteresis)
        assert!(b.predict(3));
        b.update(3, false);
        assert!(!b.predict(3));
        for _ in 0..10 {
            b.update(3, false);
        }
        assert!(!b.predict(3));
    }

    #[test]
    fn bimodal_initial_state_weakly_not_taken() {
        let b = Bimodal::new(16);
        assert!(!b.predict(0));
        let mut b = b;
        b.update(0, true); // 1 -> 2
        assert!(b.predict(0), "one taken flips the weak state");
    }

    #[test]
    fn bimodal_aliasing_by_mask() {
        let mut b = Bimodal::new(16);
        for _ in 0..4 {
            b.update(0, true);
        }
        assert!(b.predict(16), "pc 16 aliases to the same counter");
    }

    #[test]
    fn btb_tag_rejects_aliases() {
        let mut t = Btb::new(8);
        t.insert(1, 100);
        assert_eq!(t.lookup(1), Some(100));
        assert_eq!(t.lookup(9), None, "same slot, different tag");
        t.insert(9, 200);
        assert_eq!(t.lookup(1), None, "displaced");
        assert_eq!(t.lookup(9), Some(200));
    }

    #[test]
    fn gshare_history_wraps_to_table_bits() {
        let mut g = Gshare::new(16);
        for i in 0..100 {
            g.update(5, i % 3 == 0);
        }
        // Just exercising saturation + history masking without panic.
        let _ = g.predict(5);
    }
}
