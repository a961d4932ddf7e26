//! The record/replay loop through the real binary: `spear-sim record`
//! writes a `.spt`, `--frontend trace:FILE` replays it, and the baseline
//! stats envelope must match the program-driven run byte-for-byte once
//! the wall-clock `sim_perf` block is stripped. Hostile trace files must
//! exit with the runtime code (3) and a one-line diagnostic.

use serde::Value;
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_spear-sim");

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spear-record-cli-{tag}-{}", std::process::id()))
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run spear-sim");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Parse a stats envelope and drop the wall-clock-dependent `sim_perf`
/// block and the `frontend` label (asserting the label matches `want`),
/// leaving the deterministic simulation results.
fn deterministic_envelope(path: &PathBuf, want_frontend: Option<&str>) -> Value {
    let text = std::fs::read_to_string(path).expect("read envelope");
    let v = serde::json::parse(&text).expect("valid JSON envelope");
    match v {
        Value::Object(fields) => {
            let got = fields.iter().find_map(|(k, v)| match (k.as_str(), v) {
                ("frontend", Value::Str(s)) => Some(s.clone()),
                _ => None,
            });
            assert_eq!(
                got.as_deref(),
                want_frontend,
                "frontend label in {}",
                path.display()
            );
            Value::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| k != "sim_perf" && k != "frontend")
                    .collect(),
            )
        }
        other => other,
    }
}

#[test]
fn record_then_replay_is_envelope_identical() {
    let spt = temp_path("field.spt");
    let prog_json = temp_path("prog.json");
    let trace_json = temp_path("trace.json");

    let (code, stdout, stderr) = run(&[
        "record",
        "workload:field",
        "--trace-out",
        spt.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "record failed: {stderr}");
    assert!(
        stdout.contains("bits/inst"),
        "record summary line reports compression: {stdout}"
    );

    let (code, _, stderr) = run(&[
        "workload:field",
        "--quiet",
        "--stats-json",
        prog_json.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "program run failed: {stderr}");

    let frontend = format!("trace:{}", spt.display());
    let (code, _, stderr) = run(&[
        "workload:field",
        "--frontend",
        &frontend,
        "--quiet",
        "--stats-json",
        trace_json.to_str().unwrap(),
    ]);
    assert_eq!(code, 0, "trace run failed: {stderr}");

    assert_eq!(
        deterministic_envelope(&prog_json, None),
        deterministic_envelope(&trace_json, Some("trace")),
        "baseline envelope must not depend on the instruction source"
    );
    for p in [&spt, &prog_json, &trace_json] {
        let _ = std::fs::remove_file(p);
    }
}

/// One-line runtime diagnostics, exit code 3, never a panic — for every
/// flavour of hostile trace input.
#[test]
fn corrupt_traces_exit_3_with_one_line_diagnostics() {
    let spt = temp_path("hostile.spt");
    let (code, _, _) = run(&[
        "record",
        "workload:field",
        "--trace-out",
        spt.to_str().unwrap(),
    ]);
    assert_eq!(code, 0);
    let good = std::fs::read(&spt).expect("trace bytes");

    let check = |tag: &str, bytes: &[u8], needle: &str| {
        let bad = temp_path(&format!("{tag}.spt"));
        std::fs::write(&bad, bytes).unwrap();
        let frontend = format!("trace:{}", bad.display());
        let (code, _, stderr) = run(&["workload:field", "--frontend", &frontend, "--quiet"]);
        assert_eq!(code, 3, "{tag}: runtime exit code, got {code}: {stderr}");
        assert_eq!(
            stderr.trim_end().lines().count(),
            1,
            "{tag}: one-line diagnostic: {stderr:?}"
        );
        assert!(
            stderr.contains(needle),
            "{tag}: diagnostic names the problem ({needle}): {stderr}"
        );
        assert!(
            !stderr.contains("panicked"),
            "{tag}: must not panic: {stderr}"
        );
        let _ = std::fs::remove_file(&bad);
    };

    let mut flipped = good.clone();
    flipped[0] ^= 0xff;
    check("bad-magic", &flipped, "bad magic");

    let mut versioned = good.clone();
    versioned[8..12].copy_from_slice(&99u32.to_le_bytes());
    check("bad-version", &versioned, "version 99");

    check("eof-mid-image", &good[..100], "truncated");
    check("eof-mid-payload", &good[..good.len() - 1], "truncated");

    let _ = std::fs::remove_file(&spt);
}

#[test]
fn missing_trace_is_a_runtime_error() {
    let (code, _, stderr) = run(&[
        "workload:field",
        "--frontend",
        "trace:/nonexistent/path.spt",
        "--quiet",
    ]);
    assert_eq!(code, 3, "{stderr}");
    assert!(stderr.contains("cannot read trace"), "{stderr}");
}

#[test]
fn bad_frontend_spec_is_a_usage_error() {
    let (code, _, stderr) = run(&["workload:field", "--frontend", "bogus", "--quiet"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--frontend expects"), "{stderr}");
}

#[test]
fn record_without_trace_out_is_a_usage_error() {
    let (code, _, stderr) = run(&["record", "workload:field"]);
    assert_eq!(code, 2, "{stderr}");
    assert!(stderr.contains("--trace-out"), "{stderr}");
}

/// Every output path is opened before any simulation time is spent: a
/// path in a missing directory exits with the runtime code, names the
/// path, and prints no results. Where a run can carry a JSONL witness
/// (`--trace-file`), the witness must stay empty: not one cycle ran. The
/// directory-rooted commands, `campaign --dir` and `serve --dir`, fail
/// the same way before simulating or binding when the directory cannot
/// be created (it lies under a regular file, which even a root user
/// cannot get past), leaving no `cells.jsonl` or `server.addr` behind.
#[test]
fn unwritable_output_paths_fail_before_simulating() {
    let bad = "/nonexistent-dir/out";
    let witness = temp_path("witness.jsonl");
    let w = witness.to_str().unwrap();
    let blocker = temp_path("dir-blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let bad_dir = blocker.join("sub");
    let d = bad_dir.to_str().unwrap();
    let sim = ["workload:field", "--max-insts", "20000", "--trace-file", w];
    let campaign = [
        "campaign",
        "--workloads",
        "field",
        "--machines",
        "baseline",
        "--interval",
        "25000",
        "--quiet",
    ];
    let serve = ["serve", "--addr", "127.0.0.1:0", "--workers", "1"];
    let cases: [(&[&str], &[&str]); 7] = [
        (&sim, &["--stats-json", bad]),
        (&sim, &["--pipeview", bad]),
        (&sim, &["--perfetto", bad]),
        (&["workload:field"], &["--trace-file", bad]),
        (&["record", "workload:field"], &["--trace-out", bad]),
        (&campaign, &["--dir", d]),
        (&serve, &["--dir", d]),
    ];
    for (base, flag) in cases {
        let _ = std::fs::remove_file(&witness);
        let args = [base, flag].concat();
        let path = flag[1];
        let (code, stdout, stderr) = run(&args);
        assert_eq!(code, 3, "{args:?}: runtime exit code, got {code}: {stderr}");
        assert!(stderr.contains("cannot create"), "{args:?}: {stderr}");
        assert!(stderr.contains(path), "{args:?}: names the path: {stderr}");
        assert!(
            !stdout.lines().any(|l| l.starts_with("cycles")),
            "{args:?}: no results printed: {stdout}"
        );
        assert!(
            !stdout.contains("recorded"),
            "{args:?}: failed before recording: {stdout}"
        );
        let streamed = std::fs::metadata(&witness).map_or(0, |m| m.len());
        assert_eq!(streamed, 0, "{args:?}: failed before simulating");
        for output in ["cells.jsonl", "server.addr"] {
            let p = std::path::Path::new(path).join(output);
            assert!(!p.exists(), "{args:?}: wrote {}", p.display());
        }
    }
    let _ = std::fs::remove_file(&witness);
    let _ = std::fs::remove_file(&blocker);
}
