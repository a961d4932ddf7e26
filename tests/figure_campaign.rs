//! The paper's figures are whole-program campaigns: a campaign under
//! `SampleSpec::whole_program()` runs each workload as one cold interval
//! from instruction 0 to `halt`, so every aggregate must carry exactly
//! the statistics a single full run produces (`runner::run_custom`, the
//! reference the runner keeps for this comparison).
//!
//! Covered: all 15 kernels on the five Figure 7 machines (which include
//! Figure 6's three), the same kernels on Figure 7's four SPEAR machines
//! under full p-thread priority, and the Figure 9 set at its five
//! memory latencies. The rendered Figure 6 matrix, Table 3 and Figure 8
//! are pinned by length and 64-bit FNV-1a digest.

use spear_cpu::CoreStats;
use spear_mem::LatencyConfig;
use spear_repro::campaign::{Campaign, CampaignSpec, MachinePoint, SampleSpec};
use spear_repro::spear::experiments::{fig6, fig8, table3, FIG9_LATENCIES};
use spear_repro::spear::runner::{compile_workload, run_custom};
use spear_repro::spear::{parallel_map, report, Machine};
use spear_workloads::{all, by_name, FIG9_SET};

/// Length and FNV-1a digest of the rendered Figure 6 matrix, Table 3
/// and Figure 8, concatenated, over all 15 kernels.
const FIG6_REPORT: (usize, u64) = (3200, 0x14db_3bb3_df40_7dd6);

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spear-figure-campaign-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Machine `m` at `latency` (`None` = Table 2), labelled `label`.
fn point(m: Machine, latency: Option<LatencyConfig>, label: String) -> MachinePoint {
    MachinePoint {
        machine: label,
        mem_latency: latency.unwrap_or_else(LatencyConfig::paper).memory,
        config: m.config(latency),
    }
}

/// Run `names` × `points` as one whole-program campaign and as one full
/// run per cell, and require identical statistics everywhere.
fn assert_campaign_equals_full_runs(tag: &str, names: &[&str], points: &[(Machine, MachinePoint)]) {
    let dir = temp_dir(tag);
    let spec = CampaignSpec {
        workloads: names.iter().map(|n| n.to_string()).collect(),
        points: points.iter().map(|(_, p)| p.clone()).collect(),
        frontends: Vec::new(),
        sample: SampleSpec::whole_program(),
        threads: 0,
        max_cells: None,
        window: None,
        simpoint: None,
    };
    let summary = Campaign::new(&dir, spec).run(None).expect("campaign");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        summary.results.len(),
        names.len() * points.len(),
        "one cell per workload and point"
    );
    let aggs = summary.aggregates();

    let tables = parallel_map(names, 0, |n| compile_workload(&by_name(n).unwrap()).0);
    let jobs: Vec<(usize, usize)> = (0..names.len())
        .flat_map(|w| (0..points.len()).map(move |p| (w, p)))
        .collect();
    let full: Vec<CoreStats> = parallel_map(&jobs, 0, |&(w, p)| {
        let (machine, point) = &points[p];
        run_custom(
            &by_name(names[w]).unwrap(),
            &tables[w],
            point.config.clone(),
            *machine,
        )
        .stats
    });

    for (&(w, p), want) in jobs.iter().zip(&full) {
        let point = &points[p].1;
        let agg = aggs
            .iter()
            .find(|a| {
                a.key.workload == names[w]
                    && a.key.machine == point.machine
                    && a.key.mem_latency == point.mem_latency
            })
            .unwrap_or_else(|| panic!("no aggregate for {} on {}", names[w], point.machine));
        assert!(agg.halted, "{} on {}: ran to halt", names[w], point.machine);
        assert!(
            agg.stats == *want,
            "{} on {} at {}: campaign stats differ from the full run \
             (cycles {} vs {}, committed {} vs {})",
            names[w],
            point.machine,
            point.mem_latency,
            agg.stats.cycles,
            want.cycles,
            agg.stats.committed,
            want.committed
        );
    }
}

fn every_kernel() -> Vec<&'static str> {
    all().iter().map(|w| w.name).collect()
}

#[test]
fn whole_program_campaign_equals_full_runs_on_the_fig7_machines() {
    let points: Vec<(Machine, MachinePoint)> = Machine::ALL
        .iter()
        .map(|&m| (m, point(m, None, m.name().to_string())))
        .collect();
    assert_campaign_equals_full_runs("fig7", &every_kernel(), &points);
}

#[test]
fn whole_program_campaign_equals_full_runs_under_full_priority() {
    let points: Vec<(Machine, MachinePoint)> = Machine::ALL
        .iter()
        .filter(|m| m.is_spear())
        .map(|&m| {
            let mut p = point(m, None, format!("{}-full-priority", m.name()));
            p.config.spear.as_mut().unwrap().full_priority = true;
            (m, p)
        })
        .collect();
    assert_campaign_equals_full_runs("full-priority", &every_kernel(), &points);
}

#[test]
fn whole_program_campaign_equals_full_runs_across_the_fig9_latencies() {
    let points: Vec<(Machine, MachinePoint)> = Machine::FIG6
        .iter()
        .flat_map(|&m| {
            FIG9_LATENCIES.iter().map(move |&l| {
                (
                    m,
                    point(m, Some(LatencyConfig::sweep_point(l)), m.name().to_string()),
                )
            })
        })
        .collect();
    assert_campaign_equals_full_runs("fig9", &FIG9_SET, &points);
}

#[test]
fn fig6_table3_and_fig8_render_as_pinned() {
    let names: Vec<String> = every_kernel().iter().map(|n| n.to_string()).collect();
    let dir = temp_dir("fig6");
    let m = fig6(&names, &dir).expect("fig6 campaign");
    let _ = std::fs::remove_dir_all(&dir);
    let text = report::ipc_matrix(&m) + &report::table3(&table3(&m)) + &report::fig8(&fig8(&m));
    let got = (text.len(), fnv1a(text.as_bytes()));
    assert_eq!(
        got, FIG6_REPORT,
        "rendered Figure 6 / Table 3 / Figure 8 changed (len, digest):\n{text}"
    );
}
