//! Acceptance test for checkpointed sampled simulation: the sampled
//! Figure-6 estimate must agree with the whole-program matrix — column
//! means within 2% relative tolerance — while doing a fraction of the
//! cycle simulation work (the timing of both paths is logged and
//! compared).

use spear_repro::campaign::{MachinePoint, SampleSpec};
use spear_repro::spear::experiments::{fig6, run_matrix_campaign};
use spear_repro::spear::Machine;
use std::time::Instant;

#[test]
fn sampled_fig6_matches_full_run_and_is_faster() {
    let names: Vec<String> = vec!["pointer".into(), "mcf".into()];
    let dir = |tag: &str| {
        let d = std::env::temp_dir().join(format!("spear-accept-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    };

    // Full path: each program simulated whole, as one cold interval.
    // Both timed sections include the campaign's compilation and
    // functional pass, so they differ only in how much is cycle
    // simulated — the cost sampling is meant to cut.
    let full_dir = dir("full");
    let t0 = Instant::now();
    let full = fig6(&names, &full_dir).expect("whole-program campaign");
    let full_elapsed = t0.elapsed();
    let _ = std::fs::remove_dir_all(&full_dir);

    // Sampled path: every 3rd 25k-instruction interval, from warm
    // checkpoints.
    let dir = dir("campaign");
    let t0 = Instant::now();
    let points: Vec<MachinePoint> = Machine::FIG6
        .iter()
        .map(|&m| MachinePoint::of(m, None))
        .collect();
    let sampled = run_matrix_campaign(
        &names,
        &points,
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
    assert_eq!(sampled.points.len(), full.points.len());

    // Column means (the paper's "on the average" numbers) within 2%.
    for c in 0..full.points.len() {
        let f = full.mean_normalized(c);
        let s = sampled.mean_normalized(c);
        let rel = (s - f).abs() / f;
        eprintln!(
            "col {} ({}): full {:.4}  sampled {:.4}  rel err {:.2}%",
            c,
            full.points[c].machine,
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
