//! One entry point per table and figure of the paper's evaluation (§5).
//!
//! Every simulated figure is a campaign (see `spear-campaign`):
//! [`run_matrix_campaign`] runs a workload × machine-point grid through
//! the campaign engine and returns its aggregates as an [`IpcMatrix`].
//! Figures 6, 7 and 9 use [`SampleSpec::whole_program`], one cold
//! interval per workload from instruction 0 to `halt`, which yields
//! exactly the statistics of a full run. Each figure function takes the
//! workload specs to run (`mcf`, or `mcf@x100` for paper scale) and the
//! campaign directory, which a rerun resumes; `crate::report` renders
//! the results in the paper's row/series format.

use crate::machines::Machine;
use spear_campaign::{
    parallel_map, Campaign, CampaignSpec, MachinePoint, SampleSpec, SimpointSpec,
};
use spear_cpu::CoreStats;
use spear_exec::Interp;
use spear_mem::LatencyConfig;
use spear_workloads::Workload;
use std::path::Path;

/// A workload × machine-point matrix of statistics (the shape of
/// Figures 6 and 7).
pub struct IpcMatrix {
    /// The machine points, in column order.
    pub points: Vec<MachinePoint>,
    /// Workload specs, in row order.
    pub workloads: Vec<String>,
    /// `stats[row][col]` for workload `row` on point `col`.
    pub stats: Vec<Vec<CoreStats>>,
}

impl IpcMatrix {
    /// IPC of workload `row` on point `col`.
    pub fn ipc(&self, row: usize, col: usize) -> f64 {
        self.stats[row][col].ipc()
    }

    /// IPC normalized to the first column (the baseline), as the paper
    /// plots Figures 6 and 7. `None` when the baseline IPC is zero or
    /// not finite (a truncated or failed baseline run), where the ratio
    /// would be meaningless.
    pub fn try_normalized(&self, row: usize, col: usize) -> Option<f64> {
        let base = self.ipc(row, 0);
        if base > 0.0 && base.is_finite() {
            Some(self.ipc(row, col) / base)
        } else {
            None
        }
    }

    /// Like [`Self::try_normalized`], with degenerate baselines reported
    /// as 0.0 instead of propagating a NaN/infinity into means and plots.
    pub fn normalized(&self, row: usize, col: usize) -> f64 {
        self.try_normalized(row, col).unwrap_or(0.0)
    }

    /// Arithmetic mean of the normalized IPCs in a column (the paper's
    /// "on the average, a 12.7% speedup" numbers).
    pub fn mean_normalized(&self, col: usize) -> f64 {
        let n = self.workloads.len() as f64;
        (0..self.workloads.len())
            .map(|r| self.normalized(r, col))
            .sum::<f64>()
            / n
    }

    /// The first column labelled with machine `m`'s name.
    pub fn col(&self, m: Machine) -> usize {
        self.points
            .iter()
            .position(|p| p.machine == m.name())
            .expect("machine in matrix")
    }

    /// The matrix restricted to the columns in `cols`.
    pub fn columns(&self, cols: std::ops::Range<usize>) -> IpcMatrix {
        IpcMatrix {
            points: self.points[cols.clone()].to_vec(),
            workloads: self.workloads.clone(),
            stats: self
                .stats
                .iter()
                .map(|row| row[cols.clone()].to_vec())
                .collect(),
        }
    }
}

/// Run the workload × machine-point grid as one campaign in `dir` and
/// collect its aggregates: every `sample.stride`-th interval, or with
/// `simpoint` one weighted representative interval per phase, or under
/// [`SampleSpec::whole_program`] each program whole. `names` are
/// workload specs and become the matrix's row labels; each point's
/// `machine` label becomes a column label. Rerunning over the same
/// directory resumes instead of recomputing.
///
/// Each entry's statistics are the weighted aggregate over the simulated
/// intervals (`sum(committed) / sum(cycles)` for IPC).
pub fn run_matrix_campaign(
    names: &[String],
    points: &[MachinePoint],
    sample: SampleSpec,
    simpoint: Option<SimpointSpec>,
    dir: &Path,
) -> Result<IpcMatrix, String> {
    let spec = CampaignSpec {
        workloads: names.to_vec(),
        points: points.to_vec(),
        frontends: Vec::new(),
        sample,
        threads: 0,
        max_cells: None,
        window: None,
        simpoint,
    };
    let aggs = Campaign::new(dir, spec).run(None)?.aggregates();
    let stats = names
        .iter()
        .map(|name| {
            points
                .iter()
                .map(|p| {
                    aggs.iter()
                        .find(|a| {
                            a.key.workload == *name
                                && a.key.machine == p.machine
                                && a.key.bpred == p.config.bpred.spec_label()
                                && a.key.mem_latency == p.mem_latency
                        })
                        .map(|a| a.stats.clone())
                        .ok_or_else(|| {
                            format!("campaign produced no cells for {name} on {}", p.machine)
                        })
                })
                .collect()
        })
        .collect::<Result<_, String>>()?;
    Ok(IpcMatrix {
        points: points.to_vec(),
        workloads: names.to_vec(),
        stats,
    })
}

/// Each of `machines` at the Table 2 latencies.
fn paper_points(machines: &[Machine]) -> Vec<MachinePoint> {
    machines
        .iter()
        .map(|&m| MachinePoint::of(m, None))
        .collect()
}

/// **Figure 6** — normalized main-thread IPC of baseline vs SPEAR-128 vs
/// SPEAR-256, each program simulated whole.
pub fn fig6(workloads: &[String], dir: &Path) -> Result<IpcMatrix, String> {
    run_matrix_campaign(
        workloads,
        &paper_points(&Machine::FIG6),
        SampleSpec::whole_program(),
        None,
        dir,
    )
}

/// **Figure 7** — adds the dedicated-functional-unit models. Columns
/// 0..5 are [`Machine::ALL`]; columns 5..9 are its four SPEAR machines
/// again under the paper-literal full p-thread issue priority (§3.3),
/// labelled `<machine>-full-priority`.
pub fn fig7(workloads: &[String], dir: &Path) -> Result<IpcMatrix, String> {
    let mut points = paper_points(&Machine::ALL);
    for m in Machine::ALL.into_iter().filter(|m| m.is_spear()) {
        let mut p = MachinePoint::of(m, None);
        p.machine = format!("{}-full-priority", m.name());
        p.config
            .spear
            .as_mut()
            .expect("a SPEAR machine")
            .full_priority = true;
        points.push(p);
    }
    run_matrix_campaign(workloads, &points, SampleSpec::whole_program(), None, dir)
}

/// One row of **Table 3**.
pub struct Table3Row {
    /// Workload name.
    pub workload: String,
    /// SPEAR-256 IPC over SPEAR-128 IPC.
    pub ratio: f64,
    /// Branch direction hit ratio (measured on SPEAR-128, as the paper's
    /// table accompanies the SPEAR results).
    pub branch_hit: f64,
    /// Instructions per branch.
    pub ipb: f64,
}

/// **Table 3** — the longer-IFQ enhancement against branch predictability.
pub fn table3(matrix: &IpcMatrix) -> Vec<Table3Row> {
    let c128 = matrix.col(Machine::Spear128);
    let c256 = matrix.col(Machine::Spear256);
    (0..matrix.workloads.len())
        .map(|r| {
            let s128 = &matrix.stats[r][c128];
            Table3Row {
                workload: matrix.workloads[r].clone(),
                ratio: matrix.ipc(r, c256) / matrix.ipc(r, c128),
                branch_hit: s128.branch_hit_ratio(),
                ipb: s128.ipb(),
            }
        })
        .collect()
}

/// One row of **Figure 8**.
pub struct Fig8Row {
    /// Workload name.
    pub workload: String,
    /// Baseline main-thread L1D misses.
    pub base_misses: u64,
    /// Main-thread L1D misses under SPEAR-128 / SPEAR-256.
    pub spear128_misses: u64,
    /// Main-thread L1D misses under SPEAR-256.
    pub spear256_misses: u64,
}

impl Fig8Row {
    /// Fractional reduction for a SPEAR model (positive = fewer misses).
    pub fn reduction(&self, misses: u64) -> f64 {
        if self.base_misses == 0 {
            0.0
        } else {
            1.0 - misses as f64 / self.base_misses as f64
        }
    }
}

/// **Figure 8** — main-thread L1D miss reduction under SPEAR.
pub fn fig8(matrix: &IpcMatrix) -> Vec<Fig8Row> {
    let cb = matrix.col(Machine::Baseline);
    let c128 = matrix.col(Machine::Spear128);
    let c256 = matrix.col(Machine::Spear256);
    (0..matrix.workloads.len())
        .map(|r| Fig8Row {
            workload: matrix.workloads[r].clone(),
            base_misses: matrix.stats[r][cb].l1d_main_misses,
            spear128_misses: matrix.stats[r][c128].l1d_main_misses,
            spear256_misses: matrix.stats[r][c256].l1d_main_misses,
        })
        .collect()
}

/// The Figure 9 memory-latency sweep points: (memory, L2) cycles.
pub const FIG9_LATENCIES: [u32; 5] = [40, 80, 120, 160, 200];

/// One workload's **Figure 9** series.
pub struct Fig9Series {
    /// Workload name.
    pub workload: String,
    /// Machines, in series order.
    pub machines: Vec<Machine>,
    /// `ipc[m][l]` — IPC of machine `m` at `FIG9_LATENCIES[l]`.
    pub ipc: Vec<Vec<f64>>,
}

impl Fig9Series {
    /// Fractional IPC loss of machine `m` between the shortest and
    /// longest latency (the paper's 39.7%/38.4%/48.5% summary numbers).
    pub fn degradation(&self, m: usize) -> f64 {
        1.0 - self.ipc[m].last().unwrap() / self.ipc[m][0]
    }
}

/// **Figure 9** — IPC under memory latencies 40..200 for a workload set
/// (the paper uses pointer, update, nbh, dm, mcf, vpr): one campaign
/// over the Figure 6 machines at every [`FIG9_LATENCIES`] point.
pub fn fig9(workloads: &[String], dir: &Path) -> Result<Vec<Fig9Series>, String> {
    let machines = Machine::FIG6;
    let points: Vec<MachinePoint> = machines
        .iter()
        .flat_map(|&m| {
            FIG9_LATENCIES
                .iter()
                .map(move |&l| MachinePoint::of(m, Some(LatencyConfig::sweep_point(l))))
        })
        .collect();
    let m = run_matrix_campaign(workloads, &points, SampleSpec::whole_program(), None, dir)?;
    Ok((0..workloads.len())
        .map(|r| Fig9Series {
            workload: workloads[r].clone(),
            machines: machines.to_vec(),
            ipc: (0..machines.len())
                .map(|mi| {
                    (0..FIG9_LATENCIES.len())
                        .map(|l| m.ipc(r, mi * FIG9_LATENCIES.len() + l))
                        .collect()
                })
                .collect(),
        })
        .collect())
}

/// One row of **Table 1** — the benchmark inventory.
pub struct Table1Row {
    /// Suite label.
    pub suite: &'static str,
    /// Workload name.
    pub name: String,
    /// Dynamic instructions of the evaluation input.
    pub eval_insts: u64,
    /// Dynamic instructions of the profiling input.
    pub profile_insts: u64,
    /// Static memory-operation fraction of the kernel text.
    pub mem_fraction: f64,
    /// Kernel description.
    pub description: String,
}

/// **Table 1** — benchmark inventory with simulated instruction counts.
pub fn table1(workloads: &[Workload]) -> Vec<Table1Row> {
    parallel_map(workloads, 0, |w| {
        let count = |p: &spear_isa::Program| {
            let mut i = Interp::new(p);
            i.run(u64::MAX).expect("workload runs");
            i.icount
        };
        let eval = w.eval_program();
        let mem_fraction = eval.static_mix().mem_fraction();
        Table1Row {
            suite: w.suite.label(),
            name: w.name.to_string(),
            eval_insts: count(&eval),
            profile_insts: count(&w.profile_program()),
            mem_fraction,
            description: w.description.to_string(),
        }
    })
}

/// Summary statistics convenience: extract a stats field for a workload ×
/// machine pair from a matrix.
pub fn stats_of<'m>(matrix: &'m IpcMatrix, workload: &str, machine: Machine) -> &'m CoreStats {
    let r = matrix
        .workloads
        .iter()
        .position(|w| w == workload)
        .expect("workload in matrix");
    &matrix.stats[r][matrix.col(machine)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_workloads::by_name;

    /// Hand-build a matrix with known IPCs (cycles/committed chosen to
    /// produce them) to pin the normalization and summary math.
    fn synthetic_matrix(ipcs: &[(&str, [f64; 3])]) -> IpcMatrix {
        let stats = ipcs
            .iter()
            .map(|(_, vals)| {
                vals.iter()
                    .map(|&ipc| CoreStats {
                        cycles: 1_000_000,
                        committed: (ipc * 1_000_000.0) as u64,
                        ..Default::default()
                    })
                    .collect()
            })
            .collect();
        IpcMatrix {
            points: paper_points(&Machine::FIG6),
            workloads: ipcs.iter().map(|(n, _)| n.to_string()).collect(),
            stats,
        }
    }

    /// A fresh campaign directory for one test.
    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spear-experiments-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn normalization_math() {
        let m = synthetic_matrix(&[("a", [1.0, 1.5, 2.0]), ("b", [0.5, 0.5, 0.25])]);
        assert!((m.normalized(0, 1) - 1.5).abs() < 1e-9);
        assert!((m.normalized(1, 2) - 0.5).abs() < 1e-9);
        // Mean of {1.5, 1.0} and {2.0, 0.5}.
        assert!((m.mean_normalized(1) - 1.25).abs() < 1e-9);
        assert!((m.mean_normalized(2) - 1.25).abs() < 1e-9);
    }

    #[test]
    fn normalized_guards_degenerate_baseline() {
        // Row "dead" has a zero-IPC baseline (0 committed instructions):
        // the ratio is undefined, and must neither be NaN nor infinity.
        let m = synthetic_matrix(&[("live", [1.0, 2.0, 3.0]), ("dead", [0.0, 1.0, 1.0])]);
        assert_eq!(m.try_normalized(1, 1), None);
        assert_eq!(m.normalized(1, 1), 0.0);
        assert!(m.normalized(1, 2).is_finite());
        // The live row is unaffected...
        assert_eq!(m.try_normalized(0, 2), Some(3.0));
        // ...and the column mean stays finite despite the dead row.
        assert!(m.mean_normalized(1).is_finite());
        assert!((m.mean_normalized(1) - 1.0).abs() < 1e-9, "(2.0 + 0.0) / 2");
    }

    #[test]
    fn sampled_matrix_matches_full_shape() {
        let dir = temp_dir("sampled-shape");
        let m = run_matrix_campaign(
            &small_set(),
            &paper_points(&Machine::FIG6),
            SampleSpec::full(50_000),
            None,
            &dir,
        )
        .expect("sampled fig6");
        assert_eq!(m.points.len(), 3);
        assert_eq!(m.workloads, vec!["field", "mcf"]);
        for r in 0..2 {
            assert!((m.normalized(r, 0) - 1.0).abs() < 1e-12);
            for c in 0..3 {
                assert!(m.ipc(r, c) > 0.0);
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table3_ratio_math() {
        let m = synthetic_matrix(&[("a", [1.0, 2.0, 3.0])]);
        let t3 = table3(&m);
        assert!((t3[0].ratio - 1.5).abs() < 1e-9, "3.0 / 2.0");
    }

    #[test]
    fn fig8_reduction_math() {
        let row = Fig8Row {
            workload: "x".into(),
            base_misses: 1000,
            spear128_misses: 600,
            spear256_misses: 1100,
        };
        assert!((row.reduction(600) - 0.4).abs() < 1e-9);
        assert!(
            (row.reduction(1100) + 0.1).abs() < 1e-9,
            "negative = more misses"
        );
        let zero = Fig8Row {
            base_misses: 0,
            ..row
        };
        assert_eq!(zero.reduction(5), 0.0);
    }

    #[test]
    fn fig9_degradation_math() {
        let s = Fig9Series {
            workload: "x".into(),
            machines: Machine::FIG6.to_vec(),
            ipc: vec![vec![2.0, 1.5, 1.0, 0.8, 0.5]; 3],
        };
        assert!((s.degradation(0) - 0.75).abs() < 1e-9);
    }

    fn small_set() -> Vec<String> {
        vec!["field".to_string(), "mcf".to_string()]
    }

    /// Figure 6 over `names`, each program simulated whole.
    fn whole_program_fig6(tag: &str, names: &[String]) -> IpcMatrix {
        let dir = temp_dir(tag);
        let m = fig6(names, &dir).expect("fig6 campaign");
        let _ = std::fs::remove_dir_all(&dir);
        m
    }

    #[test]
    fn fig6_shape_and_normalization() {
        let m = whole_program_fig6("fig6-shape", &small_set());
        assert_eq!(m.points.len(), 3);
        assert_eq!(m.workloads, vec!["field", "mcf"]);
        for r in 0..2 {
            assert!(
                (m.normalized(r, 0) - 1.0).abs() < 1e-12,
                "baseline col is 1.0"
            );
        }
        // mcf must speed up under SPEAR (the paper's headline case).
        let row = m.workloads.iter().position(|w| w == "mcf").unwrap();
        assert!(
            m.normalized(row, m.col(Machine::Spear128)) > 1.05,
            "mcf SPEAR-128 speedup: {:.3}",
            m.normalized(row, m.col(Machine::Spear128))
        );
    }

    #[test]
    fn table3_rows_align() {
        let m = whole_program_fig6("table3-rows", &small_set());
        let t3 = table3(&m);
        assert_eq!(t3.len(), 2);
        for row in &t3 {
            assert!(
                row.ratio > 0.5 && row.ratio < 2.0,
                "{}: {}",
                row.workload,
                row.ratio
            );
            assert!(row.branch_hit > 0.5 && row.branch_hit <= 1.0);
            assert!(row.ipb > 1.0);
        }
    }

    #[test]
    fn fig8_mcf_misses_drop() {
        let m = whole_program_fig6("fig8-mcf", &["mcf".to_string()]);
        let f8 = fig8(&m);
        assert!(
            f8[0].reduction(f8[0].spear256_misses) > 0.05,
            "mcf misses must drop ≥5% under SPEAR-256: {:?}",
            (f8[0].base_misses, f8[0].spear256_misses)
        );
    }

    #[test]
    fn table1_counts_nonzero() {
        let ws: Vec<Workload> = small_set().iter().map(|n| by_name(n).unwrap()).collect();
        let rows = table1(&ws);
        for r in rows {
            assert!(r.eval_insts > 50_000, "{}: {}", r.name, r.eval_insts);
            assert!(r.profile_insts > 10_000);
            assert_ne!(r.eval_insts, r.profile_insts);
        }
    }
}
