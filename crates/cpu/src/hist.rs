//! Power-of-two histograms for pipeline statistics.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A histogram with logarithmic (power-of-two) buckets: bucket `i` holds
/// values in `[2^i, 2^(i+1))`, with bucket 0 also catching value 0.
///
/// Cheap enough to keep hot-path counters in (one `leading_zeros` per
/// record), and compact enough to serialize with run results.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            (63 - v.leading_zeros()) as usize
        }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let b = Self::bucket_of(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Smallest bucket lower-bound `b` such that at least `p` (0..=1) of
    /// the values fall in buckets `<= b` — a bucket-granular percentile.
    pub fn percentile_bound(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (self.count as f64 * p).ceil() as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0 } else { 1 << i };
            }
        }
        self.max
    }

    /// Fold another histogram into this one, as if every value recorded
    /// in `other` had been recorded here. Used when aggregating sampled
    /// simulation intervals into one campaign-level statistic.
    pub fn merge(&mut self, other: &Histogram) {
        self.merge_scaled(other, 1);
    }

    /// Fold another histogram in `weight` times over, as if every value
    /// recorded in `other` had been recorded here `weight` times. The
    /// SimPoint aggregator uses this to blend one representative
    /// interval's statistics across every interval of its phase; the
    /// value *distribution* (buckets, count, sum) scales linearly, while
    /// `max` — an order statistic, not a sum — stays the observed
    /// maximum.
    pub fn merge_scaled(&mut self, other: &Histogram, weight: u64) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c * weight;
        }
        self.count += other.count * weight;
        self.sum += other.sum * weight;
        self.max = self.max.max(other.max);
    }

    /// Bucket contents as `(lower_bound, count)` pairs, skipping empties.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (if i == 0 { 0 } else { 1u64 << i }, c))
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.1} p50≥{} p90≥{} max={}",
            self.count,
            self.mean(),
            self.percentile_bound(0.5),
            self.percentile_bound(0.9),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1024] {
            h.record(v);
        }
        let buckets: Vec<_> = h.buckets().collect();
        // 0 and 1 share bucket 0's neighborhood: 0 → bucket0, 1 → bucket0.
        assert_eq!(buckets[0], (0, 2)); // values 0, 1
        assert!(buckets.contains(&(2, 2))); // values 2, 3
        assert!(buckets.contains(&(4, 2))); // values 4, 7
        assert!(buckets.contains(&(8, 1)));
        assert!(buckets.contains(&(1024, 1)));
    }

    #[test]
    fn mean_and_max() {
        let mut h = Histogram::new();
        for v in [10, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.max(), 30);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn percentile_bound_monotone() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v);
        }
        let p50 = h.percentile_bound(0.5);
        let p90 = h.percentile_bound(0.9);
        let p99 = h.percentile_bound(0.99);
        assert!(p50 <= p90 && p90 <= p99, "{p50} {p90} {p99}");
        assert!(p99 <= h.max().next_power_of_two());
    }

    #[test]
    fn merge_matches_recording_everything_in_one() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [0, 1, 5, 9, 300] {
            a.record(v);
            whole.record(v);
        }
        for v in [2, 7, 4096] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        let empty = Histogram::new();
        a.merge(&empty);
        assert_eq!(a, whole, "merging an empty histogram is a no-op");
    }

    #[test]
    fn merge_scaled_matches_repeated_merges() {
        let mut src = Histogram::new();
        for v in [0, 1, 5, 9, 300] {
            src.record(v);
        }
        let mut scaled = Histogram::new();
        scaled.record(7);
        let mut repeated = scaled.clone();
        scaled.merge_scaled(&src, 3);
        for _ in 0..3 {
            repeated.merge(&src);
        }
        assert_eq!(scaled, repeated);
        // Weight 1 is a plain merge; weight 0 is a no-op.
        let mut once = Histogram::new();
        once.merge_scaled(&src, 1);
        assert_eq!(once, src);
        once.merge_scaled(&src, 0);
        assert_eq!(once, src);
    }

    #[test]
    fn empty_histogram_is_calm() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile_bound(0.9), 0);
        assert_eq!(h.buckets().count(), 0);
    }
}
