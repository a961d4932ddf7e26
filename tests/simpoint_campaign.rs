//! Acceptance test for SimPoint phase-clustered simulation: the
//! simpoint Figure-6 estimate — one weighted representative interval
//! per phase instead of every interval — must agree with the full-run
//! matrix (column means within 5% relative tolerance, the paper-scale
//! error bound recorded in EXPERIMENTS.md) while doing less cycle
//! simulation work, and its aggregate envelopes must be byte-identical
//! whether the campaign ran on one worker thread or four.

use spear_repro::campaign::{
    write_aggregate_envelopes, Campaign, CampaignSpec, MachinePoint, SampleSpec, SimpointSpec,
};
use spear_repro::cpu::CoreConfig;
use spear_repro::spear::experiments::{compile_all, fig6, run_matrix_campaign};
use spear_repro::spear::Machine;
use spear_workloads::by_name;
use std::time::Instant;

/// Three Figure-6 workloads spanning the paper's behavior classes:
/// strided field traversal, dependent pointer chasing, and scattered
/// read-modify-write updates.
fn trio() -> Vec<spear_workloads::Workload> {
    ["field", "pointer", "update"]
        .iter()
        .map(|n| by_name(n).unwrap())
        .collect()
}

#[test]
fn simpoint_fig6_matches_full_run_and_is_faster() {
    let ws = trio();

    // Full path: whole-program cycle simulation of every workload on
    // every Figure-6 machine. Compilation is hoisted out of the timed
    // section so the comparison is purely the cost simpoint cuts.
    let compiled = compile_all(&ws);
    let t0 = Instant::now();
    let full = fig6(&compiled);
    let full_elapsed = t0.elapsed();

    // SimPoint path: BBV collection, clustering into at most 3 phases,
    // warm checkpoints at the representative boundaries, one weighted
    // cell per phase. The timed section includes all of that — the
    // honest end-to-end cost of the phase-clustered estimate.
    let dir = std::env::temp_dir().join(format!("spear-accept-simpoint-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let names: Vec<String> = ws.iter().map(|w| w.name.to_string()).collect();
    let simpoint = run_matrix_campaign(
        &names,
        &Machine::FIG6,
        None,
        SampleSpec::full(25_000),
        Some(SimpointSpec { k: 3, seed: 42 }),
        &dir,
    )
    .expect("simpoint campaign");
    let simpoint_elapsed = t0.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!("full fig6 matrix:     {full_elapsed:?}");
    eprintln!("simpoint fig6 matrix: {simpoint_elapsed:?}");

    assert_eq!(simpoint.workloads, full.workloads);
    assert_eq!(simpoint.machines.len(), full.machines.len());

    // Column means (the paper's "on the average" numbers) within the 5%
    // bound stated in EXPERIMENTS.md.
    for c in 0..full.machines.len() {
        let f = full.mean_normalized(c);
        let s = simpoint.mean_normalized(c);
        let rel = (s - f).abs() / f;
        eprintln!(
            "col {} ({}): full {:.4}  simpoint {:.4}  rel err {:.2}%",
            c,
            full.machines[c].name(),
            f,
            s,
            rel * 100.0
        );
        assert!(
            rel <= 0.05,
            "column {c} mean off by {:.2}% (> 5%)",
            rel * 100.0
        );
    }

    // And per-cell IPC must also hold the bound, not just the means.
    for r in 0..full.workloads.len() {
        for c in 0..full.machines.len() {
            let rel = (simpoint.ipc(r, c) - full.ipc(r, c)).abs() / full.ipc(r, c);
            assert!(
                rel <= 0.05,
                "{} on {}: simpoint IPC {:.4} vs full {:.4} ({:.2}% > 5%)",
                full.workloads[r],
                full.machines[c].name(),
                simpoint.ipc(r, c),
                full.ipc(r, c),
                rel * 100.0
            );
        }
    }

    // The shortcut must actually be a shortcut.
    assert!(
        simpoint_elapsed < full_elapsed,
        "simpoint path must be measurably faster: simpoint {simpoint_elapsed:?} vs full {full_elapsed:?}"
    );
}

#[test]
fn simpoint_aggregates_are_byte_identical_across_thread_counts() {
    let spec = |threads| CampaignSpec {
        workloads: vec!["field".into(), "pointer".into()],
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
        sample: SampleSpec {
            interval_len: 25_000,
            stride: 1,
        },
        threads,
        max_cells: None,
        window: None,
        simpoint: Some(SimpointSpec { k: 3, seed: 42 }),
    };
    let base = std::env::temp_dir().join(format!("spear-simpoint-det-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let envelopes = |threads: usize, tag: &str| -> Vec<(String, Vec<u8>)> {
        let dir = base.join(tag);
        let spec = spec(threads);
        let sp = spec.simpoint.map(|s| (s, spec.sample.interval_len));
        let summary = Campaign::new(&dir, spec).run(None).expect("campaign");
        let files = write_aggregate_envelopes(&dir, &summary.results, sp).expect("envelopes");
        let mut out: Vec<(String, Vec<u8>)> = files
            .iter()
            .map(|p| {
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(p).unwrap(),
                )
            })
            .collect();
        out.sort();
        out
    };
    let one = envelopes(1, "t1");
    let four = envelopes(4, "t4");
    let _ = std::fs::remove_dir_all(&base);

    assert_eq!(one.len(), four.len());
    assert!(!one.is_empty());
    for ((n1, b1), (n4, b4)) in one.iter().zip(&four) {
        assert_eq!(n1, n4);
        assert_eq!(b1, b4, "{n1} differs between --threads 1 and --threads 4");
    }
    // Every envelope of a simpoint campaign carries the provenance
    // block; it names the clustering that produced the blend.
    for (name, bytes) in &one {
        let text = String::from_utf8(bytes.clone()).unwrap();
        assert!(
            text.contains("\"simpoint\"") && text.contains("\"interval_len\": 25000"),
            "{name} lacks the simpoint provenance block"
        );
    }
}
