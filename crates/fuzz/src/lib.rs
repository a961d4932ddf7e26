//! `spear-fuzz` — the differential fuzzing harness.
//!
//! Three layers (see `ARCHITECTURE.md` § "Differential fuzz harness"):
//!
//! * [`gen`] — a seeded, constrained random program generator whose
//!   output always terminates, biased toward the memory idioms SPEAR
//!   targets (pointer chases, strided sweeps, gathers over a 1 MiB
//!   array) plus branches, calls, and sub-word store/load overlap;
//! * [`oracle`] — the architectural-equivalence judge: golden
//!   interpreter vs the campaign engine's own cells over one table of
//!   15 validated configurations (the three Figure-6 machines with the
//!   default and TAGE predictors, SPEAR with an empty p-thread table,
//!   mid-run and strided checkpoints, SimPoint, and baseline trace
//!   replay), with structural invariants (exact CPI-stack slots,
//!   prefetch partition, window partition, cache tag-store
//!   well-formedness) on every cell, and two timing relations: trace
//!   replay equals the program-driven baseline, and SPEAR with nothing
//!   to pre-execute equals the baseline, cycle for cycle;
//! * [`shrink`] + [`corpus`] — ddmin-style minimization of any failure
//!   into a small reproducer stored as JSON under `tests/corpus/`,
//!   replayed forever after as a regression test.
//!
//! Entry points: [`fuzz`] (the `spear-sim fuzz` subcommand's engine) and
//! [`replay`] (corpus regression replay, also used by `tests/`).

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrink;

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Stop fuzzing after this many distinct divergences: each one is shrunk
/// (expensive) and almost certainly the same root cause.
const MAX_DIVERGENCES: usize = 5;
/// Oracle-evaluation budget per shrink.
const SHRINK_BUDGET: usize = 250;

/// One found-and-minimized divergence.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The minimized reproducer.
    pub repro: corpus::Reproducer,
    /// Where it was written, when a corpus directory was given.
    pub saved_to: Option<PathBuf>,
    /// Oracle evaluations the shrink consumed.
    pub shrink_evals: usize,
}

/// Outcome of a timed fuzz run.
#[derive(Clone, Debug, Default)]
pub struct FuzzSummary {
    /// Programs generated and judged.
    pub programs: u64,
    /// Golden instructions executed across all programs (throughput).
    pub golden_insts: u64,
    /// Pre-execution episodes completed across all SPEAR runs (generator
    /// health: should be well above zero).
    pub episodes_completed: u64,
    /// Non-inclusive-hierarchy diagnostic tally (see
    /// `Hierarchy::inclusion_violations`).
    pub inclusion_violations: u64,
    /// Divergences found (== `findings.len()`).
    pub divergences: usize,
    /// Minimized reproducers for each divergence.
    pub findings: Vec<Finding>,
    /// Wall-clock seconds spent.
    pub elapsed_secs: f64,
}

/// Fuzz for (at least) `seconds` wall-clock seconds starting from `seed`,
/// judging one generated program per iteration. Failures are shrunk and,
/// when `corpus_dir` is given, written there as reproducers. `log` gets
/// one line per notable event (progress, divergence, reproducer path).
pub fn fuzz(
    seconds: u64,
    seed: u64,
    corpus_dir: Option<&Path>,
    mut log: impl FnMut(&str),
) -> FuzzSummary {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut summary = FuzzSummary::default();
    let mut iter = 0u64;
    let mut last_report = Instant::now();

    while Instant::now() < deadline && summary.divergences < MAX_DIVERGENCES {
        let iter_seed = gen::iter_seed(seed, iter);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(iter_seed);
        let spec = gen::ProgramSpec::generate(&mut rng);
        summary.programs += 1;
        match oracle::check(&spec) {
            Ok(report) => {
                summary.golden_insts += report.golden_icount;
                summary.episodes_completed += report.episodes_completed;
                summary.inclusion_violations += report.inclusion_violations;
            }
            Err(failure) => {
                summary.divergences += 1;
                log(&format!(
                    "DIVERGENCE on iter {iter} (seed {iter_seed:#x}): {failure}"
                ));
                log("shrinking...");
                let shrunk = shrink::shrink(&spec, failure, SHRINK_BUDGET);
                log(&format!(
                    "minimized to {} segment(s), {} static / {} dynamic instructions \
                     ({} oracle evals): {}",
                    shrunk.spec.segments.len(),
                    shrunk.static_insts,
                    shrunk.golden_icount,
                    shrunk.evals,
                    shrunk.failure
                ));
                let repro = corpus::Reproducer {
                    origin: format!("seed{seed}/iter{iter}"),
                    found_config: shrunk.failure.config.clone(),
                    found_kind: shrunk.failure.kind.clone(),
                    found_detail: shrunk.failure.detail.clone(),
                    golden_icount: shrunk.golden_icount,
                    static_insts: shrunk.static_insts,
                    spec: shrunk.spec,
                };
                let saved_to = corpus_dir.map(|dir| match corpus::save(dir, &repro) {
                    Ok(path) => {
                        log(&format!("reproducer written to {}", path.display()));
                        path
                    }
                    Err(e) => {
                        log(&format!("cannot write reproducer: {e}"));
                        PathBuf::new()
                    }
                });
                summary.findings.push(Finding {
                    repro,
                    saved_to,
                    shrink_evals: shrunk.evals,
                });
            }
        }
        iter += 1;
        if last_report.elapsed() >= Duration::from_secs(5) {
            log(&format!(
                "{} programs, {} divergences, {:.0}s elapsed",
                summary.programs,
                summary.divergences,
                start.elapsed().as_secs_f64()
            ));
            last_report = Instant::now();
        }
    }
    summary.elapsed_secs = start.elapsed().as_secs_f64();
    summary
}

/// Outcome of a corpus replay.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    /// Reproducers replayed.
    pub replayed: usize,
    /// Entries that diverged again: `(path, failure)`. Corpus entries are
    /// fixed bugs — any entry here is a regression.
    pub regressions: Vec<(PathBuf, oracle::Failure)>,
}

/// Re-run the full oracle on every reproducer in `dir`. An error means
/// the corpus itself is unreadable; regressions are reported in the
/// return value, not as `Err`.
pub fn replay(dir: &Path, mut log: impl FnMut(&str)) -> Result<ReplayReport, String> {
    let entries = corpus::load_dir(dir)?;
    let mut report = ReplayReport::default();
    for (path, repro) in entries {
        report.replayed += 1;
        match oracle::check(&repro.spec) {
            Ok(_) => log(&format!("ok   {}", path.display())),
            Err(failure) => {
                log(&format!("FAIL {}: {failure}", path.display()));
                report.regressions.push((path, failure));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_second_smoke_finds_nothing_on_clean_tree() {
        let mut lines = Vec::new();
        let summary = fuzz(1, 42, None, |s| lines.push(s.to_string()));
        assert!(summary.programs >= 1);
        assert_eq!(summary.divergences, 0, "clean tree diverged: {lines:?}");
    }

    #[test]
    fn replay_of_empty_dir_is_empty() {
        let report = replay(Path::new("/nonexistent/corpus"), |_| {}).expect("empty");
        assert_eq!(report.replayed, 0);
        assert!(report.regressions.is_empty());
    }
}
