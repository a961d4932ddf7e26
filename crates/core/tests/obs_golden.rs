//! Byte-level regression for every simulated-time observability output,
//! driven through the real `spear-sim` binary so the test depends only on
//! the CLI surface, never on the recording API behind it.
//!
//! Each output of two pinned runs is reduced to its byte length and a
//! 64-bit FNV-1a digest, stored in `golden/obs_digests.txt`:
//!
//! * `full` — `--trace 40 --trace-file --window 2000 --pipeview
//!   --perfetto`: stdout (stats block plus the episode-trace dump), the
//!   JSONL stream, the Kanata log, the Perfetto trace, and the
//!   `obs-summary` rendering of the JSONL;
//! * `stream` — `--trace-file` alone: stdout and the JSONL stream.
//!
//! To re-record after an *intentional* output change, run:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p spear --test obs_golden
//! ```
//!
//! and commit the updated file together with the change that justifies it.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_spear-sim");

/// The pinned simulation both runs share.
const BASE_ARGS: [&str; 5] = [
    "workload:pointer",
    "-m",
    "spear-128",
    "--max-insts",
    "20000",
];

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/obs_digests.txt")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("spear-obs-golden-{}-{tag}", std::process::id()))
}

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
    })
}

fn line(name: &str, bytes: &[u8]) -> String {
    format!("{name} {} {:016x}\n", bytes.len(), fnv1a(bytes))
}

/// Run `spear-sim` and return its stdout, failing on a non-zero exit.
fn run(args: &[&str]) -> Vec<u8> {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("run spear-sim");
    assert!(
        out.status.success(),
        "spear-sim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

fn read(path: &Path) -> Vec<u8> {
    let bytes = std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let _ = std::fs::remove_file(path);
    bytes
}

/// The digest file's contents for the current binary.
fn digests() -> String {
    let (jsonl, kanata, perfetto) = (
        temp_path("full.jsonl"),
        temp_path("full.kanata"),
        temp_path("full.perfetto.json"),
    );
    let mut args = BASE_ARGS.to_vec();
    args.extend([
        "--trace",
        "40",
        "--trace-file",
        jsonl.to_str().unwrap(),
        "--window",
        "2000",
        "--pipeview",
        kanata.to_str().unwrap(),
        "--perfetto",
        perfetto.to_str().unwrap(),
    ]);
    let stdout = run(&args);
    let summary = run(&["obs-summary", jsonl.to_str().unwrap()]);
    let mut out = line("full/stdout", &stdout);
    out += &line("full/jsonl", &read(&jsonl));
    out += &line("full/kanata", &read(&kanata));
    out += &line("full/perfetto", &read(&perfetto));
    out += &line("full/obs-summary", &summary);

    let jsonl = temp_path("stream.jsonl");
    let mut args = BASE_ARGS.to_vec();
    args.extend(["--trace-file", jsonl.to_str().unwrap()]);
    let stdout = run(&args);
    out += &line("stream/stdout", &stdout);
    out += &line("stream/jsonl", &read(&jsonl));
    out
}

#[test]
fn observability_outputs_match_golden_digests() {
    let got = digests();
    if std::env::var_os("GOLDEN_BLESS").is_some() {
        std::fs::write(digest_path(), &got).expect("write golden digests");
        return;
    }
    let want = std::fs::read_to_string(digest_path())
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", digest_path().display()));
    let diffs: Vec<String> = got
        .lines()
        .zip(want.lines())
        .filter(|(g, w)| g != w)
        .map(|(g, w)| format!("got {g}, want {w}"))
        .collect();
    assert!(
        diffs.is_empty() && got.lines().count() == want.lines().count(),
        "observability outputs diverged from {}:\n  {}",
        digest_path().display(),
        diffs.join("\n  ")
    );
}
