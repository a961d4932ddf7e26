//! Run-to-run determinism: the whole pipeline (input generation,
//! profiling, slicing, cycle simulation, parallel sweep scheduling) must
//! be bit-reproducible — a requirement for the evaluation numbers in
//! EXPERIMENTS.md to be meaningful.

use spear_cpu::{CoreConfig, RunExit};
use spear_repro::campaign::{Campaign, CampaignSpec, MachinePoint, SampleSpec};
use spear_repro::spear::experiments::{fig6, IpcMatrix};
use spear_repro::spear::export::StatsExport;
use spear_repro::spear::report;
use spear_repro::spear::runner::{compile_workload, run_one};
use spear_workloads::by_name;

/// Figure 6 over `names` as a whole-program campaign in a fresh
/// directory tagged `tag`.
fn whole_program_fig6(tag: &str, names: &[&str]) -> IpcMatrix {
    let dir = std::env::temp_dir().join(format!("spear-det-fig6-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let names: Vec<String> = names.iter().map(|n| n.to_string()).collect();
    let m = fig6(&names, &dir).expect("fig6 campaign");
    let _ = std::fs::remove_dir_all(&dir);
    m
}

#[test]
fn matrix_runs_are_bit_identical() {
    for name in ["field", "mcf"] {
        let w = by_name(name).unwrap();
        assert_eq!(
            compile_workload(&w).0,
            compile_workload(&w).0,
            "compilation is deterministic"
        );
    }

    let m1 = whole_program_fig6("a", &["field", "mcf"]);
    let m2 = whole_program_fig6("b", &["field", "mcf"]);
    for r in 0..m1.workloads.len() {
        for c in 0..m1.points.len() {
            let s1 = &m1.stats[r][c];
            let s2 = &m2.stats[r][c];
            assert_eq!(s1.cycles, s2.cycles, "{} col {c}", m1.workloads[r]);
            assert_eq!(s1.committed, s2.committed);
            assert_eq!(s1.l1d_main_misses, s2.l1d_main_misses);
            assert_eq!(s1.triggers_accepted, s2.triggers_accepted);
            assert_eq!(s1.preexec_completed, s2.preexec_completed);
            assert_eq!(s1.pthread_loads, s2.pthread_loads);
        }
    }
    // The rendered reports are therefore identical too.
    assert_eq!(report::ipc_matrix(&m1), report::ipc_matrix(&m2));
}

/// The `--stats-json` envelope — schema version, exit, and every stats
/// counter — must serialize to the same bytes on repeated runs.
#[test]
fn stats_json_is_byte_identical_across_runs() {
    let w = by_name("field").unwrap();
    let (table, _) = compile_workload(&w);
    let machine = spear_repro::spear::Machine::Spear128;
    let j1 = run_one(&w, &table, machine, None).export().to_json();
    let j2 = run_one(&w, &table, machine, None).export().to_json();
    assert_eq!(j1, j2, "stats-json must be byte-identical across runs");
    // And the document round-trips through the versioned schema.
    let doc = StatsExport::from_json(&j1).expect("valid envelope");
    assert_eq!(doc.machine, "SPEAR-128");
}

/// Campaign aggregates — and the stats envelopes built from them — must
/// not depend on how many worker threads executed the cells or in what
/// order the per-cell JSONL records landed on disk.
#[test]
fn campaign_stats_json_identical_across_thread_counts() {
    let spec = |threads| CampaignSpec {
        workloads: vec!["field".into()],
        points: vec![
            MachinePoint {
                machine: "superscalar".into(),
                mem_latency: 120,
                config: CoreConfig::baseline(),
            },
            MachinePoint {
                machine: "SPEAR-128".into(),
                mem_latency: 120,
                config: CoreConfig::spear(128),
            },
        ],
        frontends: Vec::new(),
        sample: SampleSpec::full(25_000),
        threads,
        max_cells: None,
        window: None,
        simpoint: None,
    };
    let base = std::env::temp_dir().join(format!("spear-det-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let envelopes = |threads: usize, tag: &str| -> Vec<String> {
        let dir = base.join(tag);
        let summary = Campaign::new(&dir, spec(threads))
            .run(None)
            .expect("campaign");
        summary
            .aggregates()
            .iter()
            .map(|a| {
                StatsExport::new(
                    a.key.workload.clone(),
                    &a.key.machine,
                    a.key.mem_latency,
                    RunExit::Halted,
                    a.stats.clone(),
                )
                .to_json()
            })
            .collect()
    };
    let serial = envelopes(1, "t1");
    let parallel = envelopes(4, "t4");
    assert_eq!(
        serial, parallel,
        "aggregate envelopes must be byte-identical"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn reports_render_all_rows() {
    let m = whole_program_fig6("render", &["field"]);
    let text = report::ipc_matrix(&m);
    assert!(text.contains("field"));
    assert!(text.contains("AVERAGE"));
    assert_eq!(text.lines().count(), 3, "header + one row + average");
    let (header, rows) = report::ipc_matrix_csv(&m);
    assert_eq!(header.len(), 4);
    assert_eq!(rows.len(), 3, "one row per (workload, machine)");
}
