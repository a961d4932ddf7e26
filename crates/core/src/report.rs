//! Render experiment results in the paper's row/series formats
//! (plain-text tables suitable for terminals and EXPERIMENTS.md).

use crate::experiments::{Fig8Row, Fig9Series, IpcMatrix, Table1Row, Table3Row, FIG9_LATENCIES};

use spear_campaign::{ProgressSnapshot, WorkloadTiming};
use spear_cpu::{CoreConfig, CoreStats};
use std::fmt::Write;

/// Format a millisecond count as a compact human duration.
fn human_ms(ms: u64) -> String {
    if ms >= 60_000 {
        format!("{}m{:02}s", ms / 60_000, (ms % 60_000) / 1000)
    } else if ms >= 1000 {
        format!("{:.1}s", ms as f64 / 1000.0)
    } else {
        format!("{ms}ms")
    }
}

/// One-line campaign progress: cells done/total with percentage, cells
/// executed by this invocation, elapsed wall time, and the ETA derived
/// from the mean per-cell time (blank until the first cell lands).
pub fn campaign_progress(p: &ProgressSnapshot) -> String {
    let pct = if p.total > 0 {
        p.done as f64 / p.total as f64 * 100.0
    } else {
        100.0
    };
    let eta = match p.eta_ms {
        Some(ms) => format!("ETA {}", human_ms(ms)),
        None => "ETA --".to_string(),
    };
    format!(
        "cells {}/{} ({:.1}%) | executed {} | elapsed {} | {}",
        p.done,
        p.total,
        pct,
        p.executed,
        human_ms(p.elapsed_ms),
        eta
    )
}

/// Per-workload campaign timing table: cells recorded, summed simulation
/// wall time, and mean time per cell.
pub fn campaign_timings(timings: &[WorkloadTiming]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  {:<12} {:>8} {:>12} {:>12}",
        "workload", "cells", "sim time", "per cell"
    );
    let mut total_cells = 0;
    let mut total_ms = 0;
    for t in timings {
        total_cells += t.cells;
        total_ms += t.wall_ms;
        let _ = writeln!(
            s,
            "  {:<12} {:>8} {:>12} {:>12}",
            t.workload,
            t.cells,
            human_ms(t.wall_ms),
            human_ms(t.wall_ms / t.cells.max(1))
        );
    }
    let _ = writeln!(
        s,
        "  {:<12} {:>8} {:>12} {:>12}",
        "TOTAL",
        total_cells,
        human_ms(total_ms),
        human_ms(total_ms / total_cells.max(1))
    );
    s
}

/// Render the CPI-stack cycle account: where every commit slot of every
/// cycle went. `commit_width` is the machine's commit width (the slot
/// count per cycle). Shares are of total slot-cycles; the per-cause CPI
/// column is `slot-cycles / commit_width / committed`, so the column sums
/// to the run's overall CPI.
pub fn cpi_stack(stats: &CoreStats, commit_width: usize) -> String {
    let acct = &stats.cycle_account;
    let total = acct.total_slots().max(1);
    let committed = stats.committed.max(1);
    let w = commit_width.max(1) as f64;
    let cpi = |slots: u64| slots as f64 / w / committed as f64;
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  {:<24} {:>14} {:>7} {:>8}",
        "cause", "slot-cycles", "share", "CPI"
    );
    let _ = writeln!(
        s,
        "  {:<24} {:>14} {:>6.1}% {:>8.4}",
        "useful (committed)",
        acct.useful_slots,
        acct.useful_slots as f64 / total as f64 * 100.0,
        cpi(acct.useful_slots)
    );
    for (label, slots) in acct.causes() {
        if slots == 0 {
            continue;
        }
        let _ = writeln!(
            s,
            "  {:<24} {:>14} {:>6.1}% {:>8.4}",
            label,
            slots,
            slots as f64 / total as f64 * 100.0,
            cpi(slots)
        );
    }
    let _ = writeln!(
        s,
        "  {:<24} {:>14} {:>6} {:>8.4}",
        "TOTAL",
        acct.total_slots(),
        "100.0%",
        cpi(acct.total_slots())
    );
    if acct.ruu_full_cycles > 0 {
        let _ = writeln!(
            s,
            "  (RUU full with work waiting: {} cycles)",
            acct.ruu_full_cycles
        );
    }
    s
}

/// Render the per-static-d-load prefetch effectiveness profiles: for each
/// p-thread target load, how its episodes fared and how its prefetches
/// divided into timely / late / useless.
pub fn dload_profiles(stats: &CoreStats) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  {:<10} {:>8} {:>14} {:>8} {:>8} {:>8} {:>8} {:>9}",
        "d-load PC", "misses", "epi trg/cpl/ab", "loads", "timely", "late", "useless", "accuracy"
    );
    for p in &stats.dload_profiles {
        let _ = writeln!(
            s,
            "  {:<10} {:>8} {:>6}/{:>3}/{:>3} {:>8} {:>8} {:>8} {:>8} {:>8.1}%",
            format!("{:#06x}", p.dload_pc),
            p.demand_misses,
            p.episodes_triggered,
            p.episodes_completed,
            p.episodes_aborted,
            p.pthread_loads,
            p.timely_prefetches,
            p.late_prefetches,
            p.useless_prefetches,
            p.accuracy() * 100.0
        );
    }
    if stats.dload_profiles.is_empty() {
        let _ = writeln!(s, "  (no p-thread target loads)");
    }
    s
}

/// Render the Table 2 simulation parameters for a configuration.
pub fn table2(cfg: &CoreConfig) -> String {
    let mut s = String::new();
    let mut row = |k: &str, v: String| {
        let _ = writeln!(s, "  {k:<34} {v}");
    };
    row("Branch predict mode", "Bimodal".into());
    row("Branch table size", format!("{}", cfg.bpred.table_size));
    row("Issue width", format!("{}", cfg.issue_width));
    row("Commit width", format!("{}", cfg.commit_width));
    row("Instruction fetch queue size", format!("{}", cfg.ifq_size));
    row(
        "Reorder buffer size",
        format!("{} instructions", cfg.ruu_size),
    );
    row(
        "Integer functional units",
        format!("ALU(x{}), MUL/DIV(x{})", cfg.int_alu, cfg.int_muldiv),
    );
    row(
        "Floating point functional units",
        format!("ALU(x{}), MUL/DIV(x{})", cfg.fp_alu, cfg.fp_muldiv),
    );
    row("Number of memory ports", format!("{}", cfg.mem_ports));
    row(
        "Data L1 cache configuration",
        format!(
            "{} sets, {} block, {}-way set associative, LRU",
            cfg.hier.l1d.sets, cfg.hier.l1d.block_bytes, cfg.hier.l1d.assoc
        ),
    );
    row(
        "Data L1 cache latency",
        format!("{} CPU clock cycle", cfg.hier.latency.l1_hit),
    );
    row(
        "Unified L2 cache configuration",
        format!(
            "{} sets, {} block, {}-way set associative, LRU",
            cfg.hier.l2.sets, cfg.hier.l2.block_bytes, cfg.hier.l2.assoc
        ),
    );
    row(
        "Unified L2 cache latency",
        format!("{} CPU clock cycles", cfg.hier.latency.l2_hit),
    );
    row(
        "Memory access latency",
        format!("{} CPU clock cycles", cfg.hier.latency.memory),
    );
    s
}

/// Render Table 1 (benchmark inventory).
pub fn table1(rows: &[Table1Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  {:<16} {:<10} {:>14} {:>14} {:>7}  description",
        "suite", "name", "eval insts", "profile insts", "mem%"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:<16} {:<10} {:>14} {:>14} {:>6.1}%  {}",
            r.suite,
            r.name,
            r.eval_insts,
            r.profile_insts,
            r.mem_fraction * 100.0,
            r.description
        );
    }
    s
}

/// Render a Figure 6/7-style normalized-IPC matrix.
pub fn ipc_matrix(m: &IpcMatrix) -> String {
    let mut s = String::new();
    let _ = write!(s, "  {:<10} {:>10}", "benchmark", "base IPC");
    for p in m.points.iter().skip(1) {
        let _ = write!(s, " {:>14}", p.machine);
    }
    let _ = writeln!(s);
    for r in 0..m.workloads.len() {
        let _ = write!(s, "  {:<10} {:>10.4}", m.workloads[r], m.ipc(r, 0));
        for c in 1..m.points.len() {
            let _ = write!(s, " {:>14.4}", m.normalized(r, c));
        }
        let _ = writeln!(s);
    }
    let _ = write!(s, "  {:<10} {:>10}", "AVERAGE", "1.0000");
    for c in 1..m.points.len() {
        let _ = write!(s, " {:>14.4}", m.mean_normalized(c));
    }
    let _ = writeln!(s);
    s
}

/// Render Table 3.
pub fn table3(rows: &[Table3Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  {:<10} {:>22} {:>18} {:>8}",
        "benchmark", "SPEAR-256 / SPEAR-128", "branch hit ratio", "IPB"
    );
    for r in rows {
        let _ = writeln!(
            s,
            "  {:<10} {:>22.2} {:>18.4} {:>8.2}",
            r.workload, r.ratio, r.branch_hit, r.ipb
        );
    }
    s
}

/// Render Figure 8 (miss reductions).
pub fn fig8(rows: &[Fig8Row]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "  {:<10} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "benchmark", "base misses", "SPEAR-128", "SPEAR-256", "red. 128", "red. 256"
    );
    let mut sum128 = 0.0;
    let mut sum256 = 0.0;
    for r in rows {
        let r128 = r.reduction(r.spear128_misses);
        let r256 = r.reduction(r.spear256_misses);
        sum128 += r128;
        sum256 += r256;
        let _ = writeln!(
            s,
            "  {:<10} {:>12} {:>12} {:>12} {:>9.1}% {:>9.1}%",
            r.workload,
            r.base_misses,
            r.spear128_misses,
            r.spear256_misses,
            r128 * 100.0,
            r256 * 100.0
        );
    }
    let n = rows.len().max(1) as f64;
    let _ = writeln!(
        s,
        "  {:<10} {:>12} {:>12} {:>12} {:>9.1}% {:>9.1}%",
        "AVERAGE",
        "",
        "",
        "",
        sum128 / n * 100.0,
        sum256 / n * 100.0
    );
    s
}

/// Render Figure 9 (latency sweep series).
pub fn fig9(series: &[Fig9Series]) -> String {
    let mut s = String::new();
    for sr in series {
        let _ = writeln!(s, "  {}:", sr.workload);
        let _ = write!(s, "    {:<14}", "mem latency");
        for l in FIG9_LATENCIES {
            let _ = write!(s, " {:>8}", l);
        }
        let _ = writeln!(s, " {:>9}", "degr.");
        for (mi, m) in sr.machines.iter().enumerate() {
            let _ = write!(s, "    {:<14}", m.name());
            for l in 0..FIG9_LATENCIES.len() {
                let _ = write!(s, " {:>8.4}", sr.ipc[mi][l]);
            }
            let _ = writeln!(s, " {:>8.1}%", sr.degradation(mi) * 100.0);
        }
    }
    // Per-machine average degradation (the paper's 48.5/39.7/38.4 line).
    if !series.is_empty() {
        let machines = &series[0].machines;
        let _ = writeln!(s, "  average degradation at the longest latency:");
        for (mi, m) in machines.iter().enumerate() {
            let avg: f64 =
                series.iter().map(|sr| sr.degradation(mi)).sum::<f64>() / series.len() as f64;
            let _ = writeln!(s, "    {:<14} {:>6.1}%", m.name(), avg * 100.0);
        }
    }
    s
}

/// A single summary line comparing a measured mean speedup against the
/// paper's reported number.
pub fn summary_line(label: &str, measured: f64, paper: f64) -> String {
    format!("  {label:<34} measured {measured:>7.1}%   (paper: {paper:>5.1}%)\n")
}

/// Write rows as CSV (plain std, no extra dependencies). Fields
/// containing commas or quotes are quoted.
pub fn write_csv(
    path: &std::path::Path,
    header: &[&str],
    rows: &[Vec<String>],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let esc = |f: &str| {
        if f.contains(',') || f.contains('"') || f.contains('\n') {
            format!("\"{}\"", f.replace('"', "\"\""))
        } else {
            f.to_string()
        }
    };
    let mut out = String::new();
    out.push_str(&header.iter().map(|h| esc(h)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|f| esc(f)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    std::fs::write(path, out)
}

/// CSV rows for an IPC matrix (normalized to the first column).
pub fn ipc_matrix_csv(m: &IpcMatrix) -> (Vec<&'static str>, Vec<Vec<String>>) {
    let mut rows = Vec::new();
    for r in 0..m.workloads.len() {
        for c in 0..m.points.len() {
            rows.push(vec![
                m.workloads[r].clone(),
                m.points[c].machine.clone(),
                format!("{:.6}", m.ipc(r, c)),
                format!("{:.6}", m.normalized(r, c)),
            ]);
        }
    }
    (vec!["benchmark", "machine", "ipc", "normalized"], rows)
}

/// Header printed by every table and figure example.
pub fn header(title: &str) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "\n================================================================"
    );
    let _ = writeln!(s, "{title}");
    let _ = writeln!(
        s,
        "================================================================"
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machines::Machine;

    #[test]
    fn table2_mentions_every_parameter() {
        let s = table2(&Machine::Spear256.config(None));
        for needle in [
            "Bimodal",
            "2048",
            "Issue width",
            "256 sets, 32 block, 4-way",
            "1024 sets, 64 block, 4-way",
            "120 CPU clock cycles",
        ] {
            assert!(s.contains(needle), "missing `{needle}` in:\n{s}");
        }
    }

    #[test]
    fn csv_escaping_and_round_shape() {
        let dir = std::env::temp_dir().join("spear_csv_test");
        let path = dir.join("t.csv");
        write_csv(
            &path,
            &["a", "b"],
            &[
                vec!["plain".into(), "with,comma".into()],
                vec!["with\"quote".into(), "x".into()],
            ],
        )
        .unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("a,b\n"));
        assert!(text.contains("\"with,comma\""));
        assert!(text.contains("\"with\"\"quote\""));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn summary_line_formats() {
        let s = summary_line("Figure 6 SPEAR-128 mean speedup", 14.2, 12.7);
        assert!(s.contains("14.2%"));
        assert!(s.contains("12.7%"));
    }

    #[test]
    fn campaign_progress_line() {
        let s = campaign_progress(&spear_campaign::ProgressSnapshot {
            done: 30,
            total: 120,
            executed: 12,
            elapsed_ms: 4_500,
            eta_ms: Some(95_000),
        });
        assert!(s.contains("cells 30/120 (25.0%)"), "{s}");
        assert!(s.contains("executed 12"), "{s}");
        assert!(s.contains("elapsed 4.5s"), "{s}");
        assert!(s.contains("ETA 1m35s"), "{s}");
        let cold = campaign_progress(&spear_campaign::ProgressSnapshot {
            done: 0,
            total: 10,
            executed: 0,
            elapsed_ms: 3,
            eta_ms: None,
        });
        assert!(cold.contains("ETA --"), "{cold}");
    }

    #[test]
    fn campaign_progress_survives_an_empty_campaign() {
        // A degenerate zero-cell campaign (e.g. every cell already done
        // in a directory being re-aggregated) must render 100% complete
        // with no ETA, never NaN% or a bogus 0ms estimate.
        let s = campaign_progress(&spear_campaign::ProgressSnapshot {
            done: 0,
            total: 0,
            executed: 0,
            elapsed_ms: 0,
            eta_ms: spear_campaign::eta_ms(0, 0, 0, 4),
        });
        assert!(s.contains("cells 0/0 (100.0%)"), "{s}");
        assert!(s.contains("ETA --"), "{s}");
        assert!(!s.contains("NaN"), "{s}");
    }

    #[test]
    fn campaign_timings_table() {
        let s = campaign_timings(&[
            spear_campaign::WorkloadTiming {
                workload: "mcf".into(),
                cells: 4,
                wall_ms: 8_000,
            },
            spear_campaign::WorkloadTiming {
                workload: "vpr".into(),
                cells: 2,
                wall_ms: 1_000,
            },
        ]);
        assert!(s.contains("mcf"), "{s}");
        assert!(s.contains("2.0s"), "per-cell mean of mcf: {s}");
        assert!(s.contains("TOTAL"), "{s}");
        assert!(s.contains("9.0s"), "summed time: {s}");
    }
}
