//! Acceptance test for checkpointed sampled simulation: the sampled
//! Figure-6 estimate must agree with the full-run matrix — column means
//! within 2% relative tolerance — while doing a fraction of the cycle
//! simulation work (the timing of both paths is logged and compared).

use spear_repro::campaign::SampleSpec;
use spear_repro::spear::experiments::{compile_all, fig6, run_matrix_campaign};
use spear_repro::spear::Machine;
use spear_workloads::by_name;
use std::time::Instant;

#[test]
fn sampled_fig6_matches_full_run_and_is_faster() {
    let ws = vec![by_name("pointer").unwrap(), by_name("mcf").unwrap()];

    // Full path. Compilation is done up front so the timed section is
    // purely cycle simulation — the cost sampling is meant to cut.
    let compiled = compile_all(&ws);
    let t0 = Instant::now();
    let full = fig6(&compiled);
    let full_elapsed = t0.elapsed();

    // Sampled path: every 3rd 25k-instruction interval, from warm
    // checkpoints. The timed section includes the campaign's own
    // compilation and functional warming pass — the honest end-to-end
    // cost of the sampled estimate.
    let dir = std::env::temp_dir().join(format!("spear-accept-campaign-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = Instant::now();
    let names: Vec<String> = ws.iter().map(|w| w.name.to_string()).collect();
    let sampled = run_matrix_campaign(
        &names,
        &Machine::FIG6,
        None,
        SampleSpec {
            interval_len: 25_000,
            stride: 3,
        },
        None,
        &dir,
    )
    .expect("sampled campaign");
    let sampled_elapsed = t0.elapsed();
    let _ = std::fs::remove_dir_all(&dir);

    eprintln!("full fig6 matrix:    {full_elapsed:?}");
    eprintln!("sampled fig6 matrix: {sampled_elapsed:?}");

    assert_eq!(sampled.workloads, full.workloads);
    assert_eq!(sampled.machines.len(), full.machines.len());

    // Column means (the paper's "on the average" numbers) within 2%.
    for c in 0..full.machines.len() {
        let f = full.mean_normalized(c);
        let s = sampled.mean_normalized(c);
        let rel = (s - f).abs() / f;
        eprintln!(
            "col {} ({}): full {:.4}  sampled {:.4}  rel err {:.2}%",
            c,
            full.machines[c].name(),
            f,
            s,
            rel * 100.0
        );
        assert!(
            rel <= 0.02,
            "column {c} mean off by {:.2}% (> 2%)",
            rel * 100.0
        );
    }

    // And the shortcut must actually be a shortcut.
    assert!(
        sampled_elapsed < full_elapsed,
        "sampled path must be measurably faster: sampled {sampled_elapsed:?} vs full {full_elapsed:?}"
    );
}
