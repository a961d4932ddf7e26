//! Summary statistics, the comparison rule, and the output digest.

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(xs, n=4)` does (its default "exclusive" method),
/// so the spreads the harness reports match the ones its users compute.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => return (0.0, 0.0, 0.0),
        1 => return (s[0], s[0], s[0]),
        _ => {}
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// Nearest-rank percentile `p` (in (0, 1]) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let s = sorted(xs);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// The highest of the usual reporting percentiles that has at least ten
/// samples beyond it, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|&p| n as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughputs).
    Higher,
}

impl Better {
    /// Parse the `better` field of `BENCHMARK.json`.
    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// True when `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// The outcome of comparing a change against its parent on one
/// (metric, workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine pairs in ten and the medians differ
    /// by more than the parent's interquartile range.
    Improved,
    /// No worse than the parent by more than the bound.
    Unchanged,
    /// Worse than the parent by more than the bound.
    Regressed,
    /// Too few pairs, or a run-to-run spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairs a comparison needs before it says anything.
pub const MIN_PAIRS: usize = 10;

/// Classify a change against its parent from runs paired in the order
/// they were made. `bound` is the share of the parent's median by which
/// the metric may worsen (end-to-end metrics); per-layer metrics have
/// none, and then a regression needs the same evidence a gain does.
pub fn classify(parent: &[f64], change: &[f64], better: Better, bound: Option<f64>) -> Verdict {
    let n = parent.len().min(change.len());
    if n < MIN_PAIRS {
        return Verdict::Unresolved;
    }
    let (parent, change) = (&parent[..n], &change[..n]);
    let wins = |a: &[f64], b: &[f64]| {
        a.iter()
            .zip(b)
            .filter(|&(&x, &y)| better.beats(x, y))
            .count()
    };
    let (p1, pm, p3) = quartiles(parent);
    let (c1, cm, c3) = quartiles(change);
    let gap = (cm - pm).abs();
    if wins(change, parent) * 10 >= 9 * n && better.beats(cm, pm) && gap > p3 - p1 {
        return Verdict::Improved;
    }
    let Some(bound) = bound else {
        if wins(parent, change) * 10 >= 9 * n && better.beats(pm, cm) && gap > p3 - p1 {
            return Verdict::Regressed;
        }
        return Verdict::Unchanged;
    };
    let spread = ((p3 - p1) / pm.abs()).max((c3 - c1) / cm.abs());
    if spread > bound {
        let all_better = change
            .iter()
            .all(|&c| parent.iter().all(|&p| better.beats(c, p)));
        return if all_better {
            Verdict::Unchanged
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = match better {
        Better::Lower => (cm - pm) / pm.abs(),
        Better::Higher => (pm - cm) / pm.abs(),
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Unchanged
    }
}

/// 64-bit FNV-1a, the digest the correctness gate records for output
/// bytes (stable across toolchains, unlike the std hasher).
fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a set of named files: each name and body, in order.
pub fn digest_files(files: &[(String, Vec<u8>)]) -> String {
    let mut h = FNV_SEED;
    for (name, body) in files {
        h = fnv1a(name.as_bytes(), h);
        h = fnv1a(&[0], h);
        h = fnv1a(body, h);
        h = fnv1a(&[0], h);
    }
    format!("{h:016x}")
}

/// Checks of the summary statistics and the comparison rule, run by
/// `--self-test`.
pub fn self_test() -> Result<(), String> {
    let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
    let check = |ok: bool, what: &str| if ok { Ok(()) } else { Err(what.to_string()) };
    check(median(&[3.0, 1.0, 2.0]) == 2.0, "odd median")?;
    check(median(&[4.0, 1.0, 3.0, 2.0]) == 2.5, "even median")?;
    // Reference values from Python's statistics.quantiles(xs, n=4).
    let ten: Vec<f64> = (1..=10).map(f64::from).collect();
    let (a, b, c) = quartiles(&ten);
    check(
        close(a, 2.75) && close(b, 5.5) && close(c, 8.25),
        "quartiles of 1..=10",
    )?;
    let (a, b, c) = quartiles(&[2.0, 1.0]);
    check(
        close(a, 0.75) && close(b, 1.5) && close(c, 2.25),
        "quartiles of two",
    )?;
    check(percentile(&ten, 0.9) == 9.0, "nearest-rank p90")?;
    // The reported tail is the highest percentile with ten samples
    // beyond it.
    let tails: Vec<Option<f64>> = [9, 19, 20, 99, 100, 999, 1000, 10_000]
        .iter()
        .map(|&n| tail_percentile(n))
        .collect();
    let want = [
        None,
        None,
        Some(0.5),
        Some(0.5),
        Some(0.9),
        Some(0.9),
        Some(0.99),
        Some(0.999),
    ];
    check(tails == want, &format!("tail percentiles {tails:?}"))?;
    // Bound and unresolved classification.
    let parent: Vec<f64> = (0..10).map(|i| 10.0 + 0.01 * i as f64).collect();
    let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
    let same: Vec<f64> = parent.iter().rev().copied().collect();
    let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
    let noisy: Vec<f64> = (0..10)
        .map(|i| if i % 2 == 0 { 5.0 } else { 15.0 })
        .collect();
    let cases = [
        (&parent, &faster, Some(0.1), Verdict::Improved),
        (&parent, &same, Some(0.1), Verdict::Unchanged),
        (&parent, &slower, Some(0.1), Verdict::Regressed),
        (&parent, &slower, Some(0.25), Verdict::Unchanged),
        (&noisy, &noisy, Some(0.1), Verdict::Unresolved),
        (&parent, &slower, None, Verdict::Regressed),
        (&parent, &same, None, Verdict::Unchanged),
    ];
    for (i, (p, c, bound, want)) in cases.iter().enumerate() {
        let got = classify(p, c, Better::Lower, *bound);
        check(got == *want, &format!("case {i}: {got:?}, want {want:?}"))?;
    }
    let got = classify(&parent, &slower, Better::Higher, Some(0.1));
    check(got == Verdict::Improved, "higher-is-better gain")?;
    let got = classify(&parent[..9], &faster[..9], Better::Lower, Some(0.1));
    check(got == Verdict::Unresolved, "nine pairs are too few")?;
    Ok(())
}
