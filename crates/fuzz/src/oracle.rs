//! The architectural-equivalence oracle.
//!
//! SPEAR's p-threads may only prefetch: no configuration may change the
//! main thread's architectural results. One fuzz case is judged by
//! running its rendered program through the reference interpreter (the
//! golden model) and through the campaign engine's own cell path —
//! [`prepare_shard`], then [`run_cell`] per interval — under every row
//! of one configuration `table`. Each row is a one-point,
//! one-front-end [`CampaignSpec`] that must pass
//! [`CampaignSpec::validate`], so the oracle judges only configurations
//! the system accepts:
//!
//! * the three Figure-6 machines, with the default and with TAGE
//!   prediction, each simulated whole-program;
//! * SPEAR-128 and SPEAR.sf-128 whole-program on the plain program (an
//!   empty p-thread table);
//! * SPEAR-128 at `full(icount / 2)` (a mid-run checkpoint restored and
//!   run to `halt`), at stride 1 and stride 2 over quarter-length
//!   intervals with windowed telemetry, and under SimPoint with k = 3;
//! * the baseline at stride 1, and the baseline under the `trace` front
//!   end, whole-program and at stride-1 checkpoint cursors.
//!
//! One judge checks every cell: the interval budget rule, the structural
//! invariants (exact CPI-stack slot accounting, the timely/late/useless
//! prefetch partition, the window partition, cache tag-store
//! well-formedness) and, for every cell that halts, the golden
//! registers, memory image and checksum (memory only under `trace`,
//! which tracks no register values). Per row it checks the aggregate's
//! invariants and its coverage of the golden instruction count. Two
//! timing relations compare a row's cells with a twin row's, exit and
//! [`CoreStats`] exactly: each trace cell must equal the program cell
//! with the same key, and each empty-table cell must equal the
//! baseline's whole-program cell, because a SPEAR front end with nothing
//! to pre-execute must be the baseline, cycle for cycle. One plain
//! `Core::new` run per Figure-6 machine must equal its whole-program
//! cell, so the single-run path equals the figure path.
//!
//! Cache *inclusion* is deliberately a diagnostic, not an assertion: the
//! model is non-inclusive by construction (L2 only sees L1-miss traffic,
//! so lines hot in L1 age out of L2 without back-invalidation). The
//! oracle reports the violation count so a future inclusive-hierarchy
//! change can promote it.

use crate::gen::ProgramSpec;
use spear_campaign::{
    aggregate, prepare_shard, run_cell, CampaignSpec, CellResult, MachinePoint, SampleSpec,
    ShardCache, SimpointSpec,
};
use spear_compiler::{CompilerConfig, SpearCompiler};
use spear_cpu::machine::Machine;
use spear_cpu::{Core, CoreStats, RunExit};
use spear_exec::{Interp, Memory, RegFile};
use spear_isa::SpearBinary;

/// Instruction budget for the golden interpreter (generated programs are
/// a few thousand dynamic instructions; anything near this bound is a
/// generator bug).
const GOLDEN_BUDGET: u64 = 20_000_000;
/// Cycle budget of each plain `Core::new` run.
const CYCLE_BUDGET: u64 = 50_000_000;
/// Workload name of the generated program in shard and cell keys.
const WORKLOAD: &str = "fuzz";
/// Workload name of the generated program with an empty p-thread table.
const WORKLOAD_PLAIN: &str = "fuzz-plain";
/// [`CampaignSpec::validate`] resolves workload names against the
/// registry, so every row names this registered workload; the generated
/// program takes its place in the shards.
const STAND_IN: &str = "field";

/// One oracle violation: which configuration diverged, what property
/// broke, and the details needed to triage it.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Configuration label, e.g. `SPEAR-128`, `SPEAR-128/stride2` or
    /// `SPEAR.sf-128/empty-table`.
    pub config: String,
    /// Property class: `spec`, `prepare`, `sim-error`, `exit`,
    /// `committed`, `registers`, `memory`, `checksum`, `invariants`,
    /// `windows`, `cache-structure`, `coverage`, `simpoint`, `trace`,
    /// `empty-table`, `plain-run`, `compile`.
    pub kind: String,
    /// Human-readable specifics (expected vs got).
    pub detail: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.config, self.kind, self.detail)
    }
}

/// What a passing oracle run observed (for summaries).
#[derive(Clone, Debug, Default)]
pub struct OracleReport {
    /// Golden dynamic instruction count.
    pub golden_icount: u64,
    /// Table rows whose every cell matched.
    pub configs_checked: usize,
    /// Pre-execution episodes completed across all cells (a health
    /// signal: the generator should keep producing programs that actually
    /// exercise the SPEAR machinery).
    pub episodes_completed: u64,
    /// Total L1-valid-but-absent-from-L2 lines observed at the end of
    /// each cell (diagnostic only; the hierarchy is non-inclusive by
    /// design).
    pub inclusion_violations: u64,
}

/// A property class and its specifics, before the row label is attached.
type Violation = (&'static str, String);

/// The golden model's final architectural state.
struct Golden {
    icount: u64,
    regs: RegFile,
    mem: Memory,
    checksum: u64,
}

fn golden(p: &spear_isa::Program) -> Golden {
    let mut i = Interp::new(p);
    i.run(GOLDEN_BUDGET).expect("golden execution");
    assert!(i.halted, "generated program must halt within budget");
    Golden {
        icount: i.icount,
        regs: i.regs.clone(),
        mem: i.mem.clone(),
        checksum: i.state_checksum(),
    }
}

/// One configuration: a one-point, one-front-end campaign over the
/// generated program.
struct Row {
    label: String,
    spec: CampaignSpec,
    /// Also run the point as one plain `Core::new` run, which must equal
    /// the row's single whole-program cell.
    plain_run: bool,
    /// Run the program with an empty p-thread table; every cell must
    /// equal the baseline's.
    empty_table: bool,
}

fn row(label: impl Into<String>, point: MachinePoint, sample: SampleSpec, frontend: &str) -> Row {
    Row {
        label: label.into(),
        spec: CampaignSpec {
            workloads: vec![STAND_IN.to_string()],
            points: vec![point],
            frontends: vec![frontend.to_string()],
            sample,
            threads: 1,
            max_cells: None,
            window: None,
            simpoint: None,
        },
        plain_run: false,
        empty_table: false,
    }
}

/// The configuration table for a program of `icount` golden
/// instructions. The predictor axis must be architecturally invisible:
/// it changes cycles, never committed state. A twin row precedes the
/// rows compared with it.
fn table(icount: u64) -> Vec<Row> {
    let whole = SampleSpec::whole_program();
    let quarter = (icount / 4).max(64);
    let stride = |stride| SampleSpec {
        interval_len: quarter,
        stride,
    };
    let windowed = |mut r: Row| {
        r.spec.window = Some((quarter / 4).max(16));
        r
    };
    let mut rows = Vec::new();
    for m in Machine::FIG6 {
        let point = MachinePoint::of(m, None);
        let mut tage = point.clone();
        tage.config.bpred = tage
            .config
            .bpred
            .with_spec("tage")
            .expect("default tage spec is valid");
        let name = m.name();
        rows.push(Row {
            plain_run: true,
            ..row(name, point, whole, "program")
        });
        rows.push(row(format!("{name}/tage"), tage, whole, "program"));
    }
    for m in [Machine::Spear128, Machine::SpearSf128] {
        let label = format!("{}/empty-table", m.name());
        rows.push(Row {
            empty_table: true,
            ..row(label, MachinePoint::of(m, None), whole, "program")
        });
    }
    let spear = || MachinePoint::of(Machine::Spear128, None);
    let baseline = || MachinePoint::of(Machine::Baseline, None);
    let mid = SampleSpec::full((icount / 2).max(1));
    rows.push(row("SPEAR-128/full-mid", spear(), mid, "program"));
    for n in [1, 2] {
        let label = format!("SPEAR-128/stride{n}");
        rows.push(windowed(row(label, spear(), stride(n), "program")));
    }
    let mut simpoint = row("SPEAR-128/simpoint", spear(), stride(1), "program");
    simpoint.spec.simpoint = Some(SimpointSpec {
        k: 3,
        ..SimpointSpec::default()
    });
    rows.push(simpoint);
    let label = "superscalar/stride1";
    rows.push(windowed(row(label, baseline(), stride(1), "program")));
    rows.push(row("superscalar/trace", baseline(), whole, "trace"));
    let label = "superscalar/trace/stride1";
    rows.push(windowed(row(label, baseline(), stride(1), "trace")));
    rows
}

fn first_byte_diff(a: &[u8], b: &[u8]) -> String {
    if a.len() != b.len() {
        return format!("length {} vs {}", a.len(), b.len());
    }
    match a.iter().zip(b).position(|(x, y)| x != y) {
        Some(i) => format!(
            "first diff at byte {:#x}: {:#04x} vs {:#04x}",
            i, a[i], b[i]
        ),
        None => "identical".to_string(),
    }
}

fn first_reg_diff(a: &RegFile, b: &RegFile) -> String {
    let (ab, bb) = (a.to_bits(), b.to_bits());
    match ab.iter().zip(bb.iter()).position(|(x, y)| x != y) {
        Some(i) => format!(
            "first diff at reg index {}: {:#x} vs {:#x}",
            i, ab[i], bb[i]
        ),
        None => "identical".to_string(),
    }
}

/// Windowed telemetry is on: the windows must exist and account for
/// every committed instruction exactly once.
fn check_windows(stats: &CoreStats) -> Result<(), Violation> {
    let sum: u64 = stats.windows.iter().map(|w| w.committed).sum();
    if stats.windows.is_empty() || sum != stats.committed {
        return Err((
            "windows",
            format!(
                "committed {} but its {} window(s) sum to {sum}",
                stats.committed,
                stats.windows.len()
            ),
        ));
    }
    Ok(())
}

/// The per-cell judge: the interval budget rule, the structural
/// invariants, and the golden final state wherever the cell halts.
fn judge_cell(
    cell: &CellResult,
    core: &Core<'_>,
    g: &Golden,
    width: usize,
    windowed: bool,
) -> Result<(), Violation> {
    // A cell commits exactly its share of the instruction stream:
    // `remaining` when the program ends inside it, else its budget plus
    // at most one commit cycle of overshoot (the budget is checked at
    // cycle boundaries and a cycle retires up to `width`), which may
    // itself reach the end. It halts exactly when it retires the last
    // instruction.
    let committed = cell.stats.committed;
    let remaining = g.icount - cell.start_inst;
    let overshoot = width as u64 - 1;
    let in_budget = if remaining <= cell.target_insts {
        committed == remaining
    } else {
        (cell.target_insts..=cell.target_insts + overshoot).contains(&committed)
            && committed <= remaining
    };
    if !in_budget {
        return Err((
            "committed",
            format!(
                "retired {committed}; budget {}, {remaining} remaining ({} golden - {} before the cell)",
                cell.target_insts, g.icount, cell.start_inst
            ),
        ));
    }
    if (cell.exit == RunExit::Halted) != (committed == remaining) {
        return Err((
            "exit",
            format!(
                "{:?} after retiring {committed} of {remaining} remaining",
                cell.exit
            ),
        ));
    }
    cell.stats
        .check_invariants(width)
        .map_err(|e| ("invariants", e))?;
    if windowed {
        check_windows(&cell.stats)?;
    }
    core.hierarchy()
        .check_structure()
        .map_err(|e| ("cache-structure", e))?;
    if cell.exit != RunExit::Halted {
        return Ok(());
    }
    // Trace replay applies recorded store data, so memory must land
    // exact; it tracks no register values (the `tracks_registers`
    // contract), so registers and the checksum are program-only.
    if core.memory() != &g.mem {
        return Err((
            "memory",
            first_byte_diff(core.memory().as_bytes(), g.mem.as_bytes()),
        ));
    }
    if cell.frontend == "trace" {
        return Ok(());
    }
    if core.commit_regs() != &g.regs {
        return Err(("registers", first_reg_diff(core.commit_regs(), &g.regs)));
    }
    if core.state_checksum() != g.checksum {
        return Err((
            "checksum",
            format!("{:#x} vs golden {:#x}", core.state_checksum(), g.checksum),
        ));
    }
    Ok(())
}

/// Run and judge one row through the engine's prepare and cell
/// functions, then judge the row as a whole. `judged` holds the rows
/// already run, where a trace or empty-table row finds its twin.
fn judge_row(
    row: &Row,
    compiled: &SpearBinary,
    plain: &SpearBinary,
    shards: &ShardCache,
    g: &Golden,
    judged: &[(Row, Vec<CellResult>)],
    report: &mut OracleReport,
) -> Result<Vec<CellResult>, Violation> {
    let spec = &row.spec;
    spec.validate().map_err(|e| ("spec", e))?;
    let point = &spec.points[0];
    let frontend = spec.frontends[0].as_str();
    let bpred = point.config.bpred;
    let (workload, binary) = if row.empty_table {
        (WORKLOAD_PLAIN, plain)
    } else {
        (WORKLOAD, compiled)
    };
    let key = spec.shard_key(workload, &bpred.spec_label());
    let wd = shards
        .get_or_create(key.clone(), || {
            prepare_shard(&key, binary.clone(), bpred, None)
        })
        .map_err(|e| ("prepare", e))?;
    if wd.set.total_insts != g.icount {
        return Err((
            "prepare",
            format!(
                "functional pass counted {} instructions, golden {}",
                wd.set.total_insts, g.icount
            ),
        ));
    }
    let width = point.config.commit_width;
    let mut cells = Vec::with_capacity(wd.intervals.len());
    for &(interval, weight) in &wd.intervals {
        let (cell, core) = run_cell(&wd, point, frontend, interval, weight, spec.window)
            .map_err(|e| ("sim-error", e))?;
        judge_cell(&cell, &core, g, width, spec.window.is_some())
            .map_err(|(kind, d)| (kind, format!("cell at {}: {d}", cell.start_inst)))?;
        report.episodes_completed += cell.stats.preexec_completed;
        report.inclusion_violations += core.hierarchy().inclusion_violations() as u64;
        cells.push(cell);
    }

    // One point and one front end make one aggregate group.
    let aggs = aggregate(&cells);
    let [agg] = &aggs[..] else {
        return Err((
            "invariants",
            format!("{} aggregate groups, want 1", aggs.len()),
        ));
    };
    agg.stats
        .check_invariants(width)
        .map_err(|e| ("invariants", format!("aggregate: {e}")))?;
    if spec.window.is_some() {
        check_windows(&agg.stats).map_err(|(kind, d)| (kind, format!("aggregate: {d}")))?;
    }
    let committed = agg.stats.committed;
    let overshoot = width as u64 - 1;
    if spec.simpoint.is_some() {
        // Each phase's representative stands for its population; the
        // tail interval may stand for, or be represented by, full-length
        // ones, so the blend lands within one interval per phase.
        let slack = agg.cells * (spec.sample.interval_len + overshoot);
        if committed.abs_diff(g.icount) > slack {
            return Err((
                "simpoint",
                format!(
                    "blended committed {committed}, golden {} (slack {slack})",
                    g.icount
                ),
            ));
        }
    } else if spec.sample.stride == 1
        && !(g.icount..=g.icount + overshoot * agg.cells).contains(&committed)
    {
        // Back-to-back intervals cover the whole program; overshoot can
        // only double-count, never skip.
        return Err((
            "coverage",
            format!(
                "back-to-back cells retired {committed} in total, golden {}",
                g.icount
            ),
        ));
    }

    // Timing relations against a twin row judged before: baseline
    // timing never reads register values, so trace replay must reproduce
    // the program-driven cells; a SPEAR front end with an empty p-thread
    // table has nothing to do, so it must be the baseline.
    let relation = match (frontend, row.empty_table) {
        ("trace", _) => Some(("trace", point.config.clone())),
        (_, true) => Some(("empty-table", Machine::Baseline.config(None))),
        _ => None,
    };
    if let Some((kind, config)) = relation {
        let grid = |s: &CampaignSpec| (s.sample, s.simpoint, s.window);
        let (label, twin) = judged
            .iter()
            .find(|(r, _)| {
                !r.empty_table
                    && r.spec.frontends == ["program"]
                    && grid(&r.spec) == grid(spec)
                    && r.spec.points[0].config == config
            })
            .map(|(r, cells)| (&r.label, cells))
            .ok_or((kind, "no twin program row with the same grid".to_string()))?;
        let key = |c: &CellResult| (c.interval, c.exit, c.stats.clone());
        if !cells.iter().map(key).eq(twin.iter().map(key)) {
            let cycles = |cs: &[CellResult]| cs.iter().map(|c| c.stats.cycles).collect::<Vec<_>>();
            return Err((
                kind,
                format!(
                    "cells (cycles {:?}) differ from twin {label} (cycles {:?})",
                    cycles(&cells),
                    cycles(twin)
                ),
            ));
        }
    }

    if row.plain_run {
        let mut core = Core::new(binary, point.config.clone());
        let res = core
            .run(CYCLE_BUDGET, u64::MAX)
            .map_err(|e| ("sim-error", e.to_string()))?;
        if res.exit != cells[0].exit || res.stats != cells[0].stats {
            return Err((
                "plain-run",
                format!(
                    "a plain run ({:?}, {} cycles) differs from the whole-program cell ({:?}, {} cycles)",
                    res.exit, res.stats.cycles, cells[0].exit, cells[0].stats.cycles
                ),
            ));
        }
    }
    Ok(cells)
}

/// Run the full oracle over one spec. `Ok` means every configuration
/// matched the golden model and satisfied every invariant.
pub fn check(spec: &ProgramSpec) -> Result<OracleReport, Failure> {
    let p = spec.render();
    let g = golden(&p);
    let mut report = OracleReport {
        golden_icount: g.icount,
        ..Default::default()
    };

    // One binary for every other row: the compiled table rides along
    // and the baseline front end simply ignores it, so every
    // configuration retires the identical instruction stream.
    // Aggressive slicer thresholds give even small programs real
    // p-threads.
    let mut ccfg = CompilerConfig::default();
    ccfg.slicer.dload_min_misses = 4;
    ccfg.slicer.dload_miss_fraction = 0.0;
    let binary = match SpearCompiler::new(ccfg).compile(&p) {
        Ok((b, _)) => b,
        Err(e) => {
            return Err(Failure {
                config: "compiler".to_string(),
                kind: "compile".to_string(),
                detail: format!("{e:?}"),
            })
        }
    };

    // The empty-table rows run the same program with no p-threads.
    let plain = SpearBinary::plain(binary.program.clone());
    // Rows with the same shard key (workload, predictor, sampling,
    // trace) share one prepared shard, as a campaign's cells do.
    let shards = ShardCache::new(u64::MAX);
    let mut judged: Vec<(Row, Vec<CellResult>)> = Vec::new();
    for row in table(g.icount) {
        match judge_row(&row, &binary, &plain, &shards, &g, &judged, &mut report) {
            Ok(cells) => {
                report.configs_checked += 1;
                judged.push((row, cells));
            }
            Err((kind, detail)) => {
                return Err(Failure {
                    config: row.label,
                    kind: kind.to_string(),
                    detail,
                })
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{SegKind, Segment};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clean_tree_passes_a_mixed_spec() {
        let spec = ProgramSpec {
            seed: 99,
            segments: vec![
                Segment {
                    kind: SegKind::Gather,
                    a: 100,
                    b: 3,
                },
                Segment {
                    kind: SegKind::Diamond,
                    a: 1,
                    b: 2,
                },
                Segment {
                    kind: SegKind::PointerChase,
                    a: 60,
                    b: 17,
                },
                Segment {
                    kind: SegKind::StoreLoadMix,
                    a: 0,
                    b: 9,
                },
            ],
        };
        let report = check(&spec).expect("clean tree must pass");
        assert!(report.golden_icount > 0);
        // 6 whole-program rows (3 machines x {bimodal, tage}) + SPEAR-128
        // and SPEAR.sf-128 with an empty table + full(mid) + SPEAR-128 at
        // stride 1 and 2 + the SimPoint blend + the baseline at stride 1
        // + trace whole-program and stride 1.
        assert_eq!(report.configs_checked, 15);
    }

    #[test]
    fn random_specs_pass_on_clean_tree() {
        let mut rng = StdRng::seed_from_u64(1234);
        for _ in 0..3 {
            let spec = ProgramSpec::generate(&mut rng);
            check(&spec).expect("clean tree must pass");
        }
    }
}
