//! Interval sampling: split a workload's dynamic instruction stream into
//! fixed-length intervals, pick a deterministic subset to cycle-simulate,
//! and aggregate per-interval statistics into one weighted estimate.
//!
//! The scheme is systematic sampling in the SMARTS tradition: functional
//! execution (with continuous cache/predictor warming) covers every
//! instruction once per workload, and the expensive cycle model runs only
//! on every `stride`-th interval. Each simulated interval starts from a
//! warm checkpoint and satisfies the exact-slot CPI invariant
//! `useful_slots + lost_slots() == cycles * commit_width` on its own;
//! because aggregation is a plain sum over intervals (see
//! [`spear_cpu::CoreStats::merge`]), the invariant also holds on the
//! weighted aggregate. The aggregate IPC estimate is
//! `sum(committed) / sum(cycles)` over the sampled intervals.

use crate::engine::CellResult;
use crate::spec::CellKey;
use spear_cpu::{CoreStats, RunExit};
use spear_exec::BbvInterval;
use spear_simpoint::Clustering;

/// How to sample a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SampleSpec {
    /// Instructions per interval.
    pub interval_len: u64,
    /// Cycle-simulate every `stride`-th interval (1 = every interval,
    /// i.e. full coverage split into resumable cells).
    pub stride: u64,
}

impl SampleSpec {
    /// Every interval simulated — full coverage, checkpointed into
    /// resumable cells (no sampling bias at all).
    pub fn full(interval_len: u64) -> SampleSpec {
        SampleSpec {
            interval_len,
            stride: 1,
        }
    }

    /// One cold interval per workload, from instruction 0 to `halt`: a
    /// campaign under this spec simulates each program whole, exactly as
    /// a single full run does.
    pub fn whole_program() -> SampleSpec {
        SampleSpec::full(u64::MAX)
    }

    /// Does instruction `inst` start a sampled interval? Boundaries are
    /// multiples of `interval_len`, and interval `k` is sampled when
    /// `k % stride == 0`.
    pub fn starts_sampled_interval(&self, inst: u64) -> bool {
        inst.is_multiple_of(self.interval_len)
            && (inst / self.interval_len).is_multiple_of(self.stride)
    }
}

/// One sampled interval of a workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Interval {
    /// Interval index (over *all* intervals, sampled or not).
    pub index: u64,
    /// First instruction of the interval.
    pub start_inst: u64,
    /// Instructions to simulate (the final interval may be short).
    pub len: u64,
}

/// The sampled intervals of a workload of `total_insts` instructions.
pub fn plan_intervals(total_insts: u64, spec: &SampleSpec) -> Vec<Interval> {
    assert!(spec.interval_len > 0, "interval length must be nonzero");
    assert!(spec.stride > 0, "stride must be nonzero");
    (0..total_insts)
        .step_by(spec.interval_len as usize)
        .filter(|&start| spec.starts_sampled_interval(start))
        .map(|start| Interval {
            index: start / spec.interval_len,
            start_inst: start,
            len: spec.interval_len.min(total_insts - start),
        })
        .collect()
}

/// The SimPoint plan of a clustered workload: one representative interval
/// per phase, carrying the phase's population count as its aggregation
/// weight, ascending by start instruction (the order a warming pass
/// captures checkpoints in).
pub(crate) fn simpoint_plan(bbvs: &[BbvInterval], clustering: &Clustering) -> Vec<(Interval, u64)> {
    let mut plan: Vec<(Interval, u64)> = clustering
        .representatives
        .iter()
        .zip(&clustering.counts)
        .map(|(&r, &count)| {
            let b = &bbvs[r];
            let interval = Interval {
                index: b.index,
                start_inst: b.start_inst,
                len: b.len,
            };
            (interval, count)
        })
        .collect();
    plan.sort_by_key(|(iv, _)| iv.start_inst);
    plan
}

/// The weighted aggregate of one (workload, machine, predictor,
/// frontend, latency) group of cell results.
#[derive(Clone, Debug)]
pub struct Aggregate {
    /// The group's axes: the key of its first cell (every cell of the
    /// group shares all of it but the interval).
    pub key: CellKey,
    /// Whether the group contains the workload's final (halting)
    /// interval.
    pub halted: bool,
    /// Summed statistics over the group's sampled intervals.
    pub stats: CoreStats,
    /// Number of cells (simulated intervals) in the sum.
    pub cells: u64,
    /// Summed cell weights — the number of whole-program intervals the
    /// blend stands for. Equal to `cells` outside SimPoint campaigns.
    pub weight: u64,
    /// Instructions the cells were budgeted to simulate.
    pub target_insts: u64,
    /// Summed wall-clock time spent simulating the cells, in ms.
    pub wall_ms: u64,
}

impl Aggregate {
    /// The sampled IPC estimate: `sum(committed) / sum(cycles)`.
    pub fn ipc(&self) -> f64 {
        self.stats.ipc()
    }

    /// Simulation throughput over the group: committed
    /// kilo-instructions per host-second of summed cell wall time.
    /// Observational only (wall time varies run to run), so it is
    /// reported on stdout but never written into the deterministic
    /// aggregate envelope files.
    pub fn kips(&self) -> f64 {
        let secs = (self.wall_ms as f64 / 1000.0).max(1e-9);
        self.stats.committed as f64 / secs / 1000.0
    }
}

/// Fold per-cell results into one [`Aggregate`] per (workload, machine,
/// predictor, frontend, latency) group.
///
/// Deterministic by construction: cells are sorted by their full key
/// before merging, so the output is byte-identical no matter how many
/// worker threads produced the results or in what order the JSONL lines
/// landed on disk.
pub fn aggregate(results: &[CellResult]) -> Vec<Aggregate> {
    let mut keyed: Vec<(CellKey, &CellResult)> = results.iter().map(|c| (c.key(), c)).collect();
    keyed.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out: Vec<Aggregate> = Vec::new();
    for (key, cell) in keyed {
        if !out.last().is_some_and(|a| a.key.same_group(&key)) {
            out.push(Aggregate {
                key,
                halted: false,
                stats: CoreStats::default(),
                cells: 0,
                weight: 0,
                target_insts: 0,
                wall_ms: 0,
            });
        }
        let agg = out.last_mut().expect("pushed above");
        // A plain campaign cell has weight 1 and this is an exact merge;
        // a SimPoint representative carries the population count of its
        // phase and is scale-summed (bit-exact equivalent of merging the
        // cell `weight` times — see `CoreStats::merge_scaled`).
        agg.stats.merge_scaled(&cell.stats, cell.weight);
        agg.cells += 1;
        agg.weight += cell.weight;
        agg.target_insts += cell.target_insts * cell.weight;
        agg.wall_ms += cell.wall_ms;
        agg.halted |= cell.exit == RunExit::Halted;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_covers_every_instruction_at_stride_one() {
        let spec = SampleSpec::full(100);
        let ivs = plan_intervals(250, &spec);
        assert_eq!(ivs.len(), 3);
        assert_eq!(
            ivs[0],
            Interval {
                index: 0,
                start_inst: 0,
                len: 100
            }
        );
        assert_eq!(
            ivs[2],
            Interval {
                index: 2,
                start_inst: 200,
                len: 50
            }
        );
        let covered: u64 = ivs.iter().map(|i| i.len).sum();
        assert_eq!(covered, 250);
    }

    #[test]
    fn plan_samples_every_stride_th_interval() {
        let spec = SampleSpec {
            interval_len: 10,
            stride: 3,
        };
        let ivs = plan_intervals(95, &spec);
        let idx: Vec<u64> = ivs.iter().map(|i| i.index).collect();
        assert_eq!(idx, vec![0, 3, 6, 9]);
        assert_eq!(ivs.last().unwrap().len, 5, "tail interval is short");
    }

    #[test]
    fn empty_program_plans_nothing() {
        assert!(plan_intervals(0, &SampleSpec::full(64)).is_empty());
    }

    fn cell(w: &str, m: &str, lat: u32, iv: u64, cycles: u64, committed: u64) -> CellResult {
        CellResult {
            schema_version: crate::CELL_SCHEMA_VERSION,
            workload: w.to_string(),
            machine: m.to_string(),
            bpred: "bimodal".to_string(),
            frontend: "program".to_string(),
            mem_latency: lat,
            interval: iv,
            start_inst: iv * 100,
            target_insts: committed,
            weight: 1,
            exit: RunExit::InstBudget,
            wall_ms: 1,
            stats: CoreStats {
                cycles,
                committed,
                ..Default::default()
            },
        }
    }

    #[test]
    fn aggregate_groups_and_weights_by_cycles() {
        // Shuffled input order must not matter.
        let results = vec![
            cell("mcf", "baseline", 120, 2, 400, 100),
            cell("em3d", "baseline", 120, 0, 50, 100),
            cell("mcf", "baseline", 120, 0, 100, 100),
            cell("mcf", "SPEAR-128", 120, 0, 80, 100),
        ];
        let aggs = aggregate(&results);
        assert_eq!(aggs.len(), 3);
        // Sorted by (workload, machine, latency).
        assert_eq!(aggs[0].key.workload, "em3d");
        assert_eq!(aggs[1].key.machine, "SPEAR-128");
        let mcf_base = &aggs[2];
        assert_eq!(mcf_base.cells, 2);
        assert_eq!(mcf_base.stats.cycles, 500);
        assert_eq!(mcf_base.stats.committed, 200);
        assert!((mcf_base.ipc() - 0.4).abs() < 1e-12);
        // Throughput: 200 insts over 2 ms of wall time = 100 KIPS.
        assert_eq!(mcf_base.wall_ms, 2);
        assert!((mcf_base.kips() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_cells_blend_as_if_repeated() {
        // One representative with weight 3 must aggregate exactly like
        // three copies of the same weight-1 cell.
        let mut rep = cell("mcf", "baseline", 120, 0, 100, 100);
        rep.weight = 3;
        let weighted = aggregate(&[rep.clone(), cell("mcf", "baseline", 120, 3, 40, 100)]);
        let mut copy = rep;
        copy.weight = 1;
        let expanded = aggregate(&[
            copy.clone(),
            {
                let mut c = copy.clone();
                c.interval = 1;
                c
            },
            {
                let mut c = copy;
                c.interval = 2;
                c
            },
            cell("mcf", "baseline", 120, 3, 40, 100),
        ]);
        assert_eq!(weighted.len(), 1);
        assert_eq!(weighted[0].stats.cycles, expanded[0].stats.cycles);
        assert_eq!(weighted[0].stats.committed, expanded[0].stats.committed);
        assert_eq!(weighted[0].target_insts, expanded[0].target_insts);
        assert_eq!(weighted[0].target_insts, 400);
        assert!((weighted[0].ipc() - expanded[0].ipc()).abs() < 1e-15);
        // Cell count reflects cells actually simulated, not phase sizes.
        assert_eq!(weighted[0].cells, 2);
        assert_eq!(expanded[0].cells, 4);
    }

    #[test]
    fn aggregate_keeps_frontend_groups_apart() {
        let mut trace = cell("mcf", "baseline", 120, 0, 100, 100);
        trace.frontend = "trace".to_string();
        let results = vec![cell("mcf", "baseline", 120, 0, 100, 100), trace];
        let aggs = aggregate(&results);
        assert_eq!(aggs.len(), 2, "frontend is part of the group key");
        assert_eq!(aggs[0].key.frontend, "program");
        assert_eq!(aggs[1].key.frontend, "trace");
        assert_eq!(aggs[0].cells, 1);
    }

    #[test]
    fn aggregate_keeps_predictor_groups_apart() {
        let mut tage = cell("mcf", "baseline", 120, 0, 100, 100);
        tage.bpred = "tage".to_string();
        let results = vec![cell("mcf", "baseline", 120, 0, 100, 100), tage];
        let aggs = aggregate(&results);
        assert_eq!(aggs.len(), 2, "predictor is part of the group key");
        assert_eq!(aggs[0].key.bpred, "bimodal");
        assert_eq!(aggs[1].key.bpred, "tage");
        assert_eq!(aggs[0].cells, 1);
    }
}
