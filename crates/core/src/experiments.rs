//! One entry point per table and figure of the paper's evaluation (§5).
//!
//! Every function takes the workload set to run (normally
//! `spear_workloads::all()`, but tests and quick looks can pass subsets)
//! and returns a structured result that `crate::report` renders in the
//! paper's row/series format.

use crate::machines::Machine;
use crate::runner::{compile_workload, run_one, RunOutcome};
use spear_campaign::{
    parallel_map, Campaign, CampaignSpec, MachinePoint, SampleSpec, SimpointSpec,
};
use spear_compiler::CompileReport;
use spear_cpu::CoreStats;
use spear_exec::Interp;
use spear_isa::pthread::PThreadTable;
use spear_mem::LatencyConfig;
use spear_workloads::Workload;

/// Compiled tables for a workload set (compile once, reuse across all
/// machines and latency points).
pub struct Compiled {
    /// The workloads, in input order.
    pub workloads: Vec<Workload>,
    /// One p-thread table per workload.
    pub tables: Vec<PThreadTable>,
    /// One compile report per workload.
    pub reports: Vec<CompileReport>,
}

/// Run the SPEAR compiler over every workload in parallel.
pub fn compile_all(workloads: &[Workload]) -> Compiled {
    let compiled = parallel_map(workloads, 0, compile_workload);
    let (tables, reports) = compiled.into_iter().unzip();
    Compiled {
        workloads: workloads.to_vec(),
        tables,
        reports,
    }
}

/// A workload × machine IPC matrix (the shape of Figures 6 and 7).
pub struct IpcMatrix {
    /// Machines, in column order.
    pub machines: Vec<Machine>,
    /// Workload names, in row order.
    pub workloads: Vec<String>,
    /// `outcomes[row][col]` for workload `row` on machine `col`.
    pub outcomes: Vec<Vec<RunOutcome>>,
}

impl IpcMatrix {
    /// IPC of workload `row` on machine `col`.
    pub fn ipc(&self, row: usize, col: usize) -> f64 {
        self.outcomes[row][col].ipc()
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

    /// The column index of a machine.
    pub fn col(&self, m: Machine) -> usize {
        self.machines
            .iter()
            .position(|&x| x == m)
            .expect("machine in matrix")
    }
}

/// Run a workload × machine matrix at the default (Table 2) latencies.
pub fn run_matrix(compiled: &Compiled, machines: &[Machine]) -> IpcMatrix {
    // Flatten into (row, col) jobs for the worker pool.
    let jobs: Vec<(usize, usize)> = (0..compiled.workloads.len())
        .flat_map(|r| (0..machines.len()).map(move |c| (r, c)))
        .collect();
    let flat = parallel_map(&jobs, 0, |&(r, c)| {
        run_one(
            &compiled.workloads[r],
            &compiled.tables[r],
            machines[c],
            None,
        )
    });
    let mut outcomes: Vec<Vec<RunOutcome>> = Vec::with_capacity(compiled.workloads.len());
    let mut it = flat.into_iter();
    for _ in 0..compiled.workloads.len() {
        outcomes.push((0..machines.len()).map(|_| it.next().unwrap()).collect());
    }
    IpcMatrix {
        machines: machines.to_vec(),
        workloads: compiled
            .workloads
            .iter()
            .map(|w| w.name.to_string())
            .collect(),
        outcomes,
    }
}

/// **Figure 6** — normalized main-thread IPC of baseline vs SPEAR-128 vs
/// SPEAR-256.
pub fn fig6(compiled: &Compiled) -> IpcMatrix {
    run_matrix(compiled, &Machine::FIG6)
}

/// Campaign-backed counterpart of [`run_matrix`]: route the workload ×
/// machine grid through the checkpointed campaign engine (see
/// `spear-campaign`) instead of full-program cycle simulation — every
/// `sample.stride`-th interval, or with `simpoint` one weighted
/// representative interval per phase. `names` are full workload specs
/// (`mcf`, or `mcf@x100` to scale the evaluation input — the paper-scale
/// knob) and become the matrix's workload labels. The campaign directory
/// `dir` holds per-cell results; rerunning over the same directory
/// resumes instead of recomputing.
///
/// The returned matrix has the same shape as [`run_matrix`]'s, but each
/// outcome's statistics are the weighted aggregate over the simulated
/// intervals (`sum(committed) / sum(cycles)` for IPC).
pub fn run_matrix_campaign(
    names: &[String],
    machines: &[Machine],
    latency: Option<LatencyConfig>,
    sample: SampleSpec,
    simpoint: Option<SimpointSpec>,
    dir: &std::path::Path,
) -> Result<IpcMatrix, String> {
    let mem_latency = latency.unwrap_or_else(LatencyConfig::paper).memory;
    let spec = CampaignSpec {
        workloads: names.to_vec(),
        points: machines
            .iter()
            .map(|&m| MachinePoint {
                machine: m.name().to_string(),
                mem_latency,
                config: m.config(latency),
            })
            .collect(),
        frontends: Vec::new(),
        sample,
        threads: 0,
        max_cells: None,
        window: None,
        simpoint,
    };
    let summary = Campaign::new(dir, spec).run(None)?;
    let aggs = summary.aggregates();
    let mut outcomes = Vec::with_capacity(names.len());
    for name in names {
        let mut row = Vec::with_capacity(machines.len());
        for &m in machines {
            let agg = aggs
                .iter()
                .find(|a| a.key.workload == *name && a.key.machine == m.name())
                .ok_or_else(|| format!("campaign produced no cells for {name} on {m}"))?;
            row.push(RunOutcome {
                workload: name.clone(),
                machine: m,
                latency,
                stats: agg.stats.clone(),
            });
        }
        outcomes.push(row);
    }
    Ok(IpcMatrix {
        machines: machines.to_vec(),
        workloads: names.to_vec(),
        outcomes,
    })
}

/// Parse the `SPEAR_SAMPLED` environment flag that routes figure sweeps
/// through the sampled path: `INTERVAL` or `INTERVAL:STRIDE` (e.g.
/// `100000:10` = simulate every 10th 100k-instruction interval). Unset,
/// empty, or malformed values mean "run the full simulation".
pub fn sample_spec_from_env() -> Option<SampleSpec> {
    let raw = std::env::var("SPEAR_SAMPLED").ok()?;
    parse_sample_spec(&raw)
}

/// The parsing behind [`sample_spec_from_env`], separated for testing.
pub fn parse_sample_spec(raw: &str) -> Option<SampleSpec> {
    let raw = raw.trim();
    if raw.is_empty() {
        return None;
    }
    let (ival, stride) = match raw.split_once(':') {
        Some((i, s)) => (i.parse().ok()?, s.parse().ok()?),
        None => (raw.parse().ok()?, 1),
    };
    if ival == 0 || stride == 0 {
        return None;
    }
    Some(SampleSpec {
        interval_len: ival,
        stride,
    })
}

/// **Figure 7** — adds the dedicated-functional-unit models.
pub fn fig7(compiled: &Compiled) -> IpcMatrix {
    run_matrix(compiled, &Machine::ALL)
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
            let s128 = &matrix.outcomes[r][c128].stats;
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
            base_misses: matrix.outcomes[r][cb].stats.l1d_main_misses,
            spear128_misses: matrix.outcomes[r][c128].stats.l1d_main_misses,
            spear256_misses: matrix.outcomes[r][c256].stats.l1d_main_misses,
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
/// (the paper uses pointer, update, nbh, dm, mcf, vpr).
pub fn fig9(compiled: &Compiled) -> Vec<Fig9Series> {
    let machines = Machine::FIG6;
    let jobs: Vec<(usize, usize, usize)> = (0..compiled.workloads.len())
        .flat_map(|w| {
            (0..machines.len()).flat_map(move |m| (0..FIG9_LATENCIES.len()).map(move |l| (w, m, l)))
        })
        .collect();
    let flat = parallel_map(&jobs, 0, |&(w, m, l)| {
        run_one(
            &compiled.workloads[w],
            &compiled.tables[w],
            machines[m],
            Some(LatencyConfig::sweep_point(FIG9_LATENCIES[l])),
        )
        .ipc()
    });
    let mut out = Vec::new();
    let mut it = flat.into_iter();
    for w in 0..compiled.workloads.len() {
        let mut ipc = Vec::new();
        for _ in 0..machines.len() {
            ipc.push(
                (0..FIG9_LATENCIES.len())
                    .map(|_| it.next().unwrap())
                    .collect(),
            );
        }
        out.push(Fig9Series {
            workload: compiled.workloads[w].name.to_string(),
            machines: machines.to_vec(),
            ipc,
        });
    }
    out
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
    &matrix.outcomes[r][matrix.col(machine)].stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use spear_workloads::by_name;

    /// Hand-build a matrix with known IPCs (cycles/committed chosen to
    /// produce them) to pin the normalization and summary math.
    fn synthetic_matrix(ipcs: &[(&str, [f64; 3])]) -> IpcMatrix {
        let machines = Machine::FIG6.to_vec();
        let outcomes = ipcs
            .iter()
            .map(|(name, vals)| {
                vals.iter()
                    .enumerate()
                    .map(|(c, &ipc)| {
                        let stats = CoreStats {
                            cycles: 1_000_000,
                            committed: (ipc * 1_000_000.0) as u64,
                            ..Default::default()
                        };
                        crate::runner::RunOutcome {
                            workload: name.to_string(),
                            machine: machines[c],
                            latency: None,
                            stats,
                        }
                    })
                    .collect()
            })
            .collect();
        IpcMatrix {
            machines,
            workloads: ipcs.iter().map(|(n, _)| n.to_string()).collect(),
            outcomes,
        }
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
    fn sample_spec_parsing() {
        use spear_campaign::SampleSpec;
        assert_eq!(
            parse_sample_spec("100000"),
            Some(SampleSpec {
                interval_len: 100_000,
                stride: 1
            })
        );
        assert_eq!(
            parse_sample_spec(" 50000:10 "),
            Some(SampleSpec {
                interval_len: 50_000,
                stride: 10
            })
        );
        for bad in ["", "0", "10:0", "abc", "10:xyz", "1:2:3"] {
            assert_eq!(parse_sample_spec(bad), None, "`{bad}` must be rejected");
        }
    }

    #[test]
    fn sampled_matrix_matches_full_shape() {
        let ws = small_set();
        let dir = std::env::temp_dir().join(format!("spear-sampled-shape-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let names: Vec<String> = ws.iter().map(|w| w.name.to_string()).collect();
        let m = run_matrix_campaign(
            &names,
            &Machine::FIG6,
            None,
            SampleSpec::full(50_000),
            None,
            &dir,
        )
        .expect("sampled fig6");
        assert_eq!(m.machines.len(), 3);
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

    fn small_set() -> Vec<Workload> {
        vec![by_name("field").unwrap(), by_name("mcf").unwrap()]
    }

    #[test]
    fn fig6_shape_and_normalization() {
        let compiled = compile_all(&small_set());
        let m = fig6(&compiled);
        assert_eq!(m.machines.len(), 3);
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
        let compiled = compile_all(&small_set());
        let m = fig6(&compiled);
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
        let compiled = compile_all(&[by_name("mcf").unwrap()]);
        let m = fig6(&compiled);
        let f8 = fig8(&m);
        assert!(
            f8[0].reduction(f8[0].spear256_misses) > 0.05,
            "mcf misses must drop ≥5% under SPEAR-256: {:?}",
            (f8[0].base_misses, f8[0].spear256_misses)
        );
    }

    #[test]
    fn table1_counts_nonzero() {
        let rows = table1(&small_set());
        for r in rows {
            assert!(r.eval_insts > 50_000, "{}: {}", r.name, r.eval_insts);
            assert!(r.profile_insts > 10_000);
            assert_ne!(r.eval_insts, r.profile_insts);
        }
    }
}
