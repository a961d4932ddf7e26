//! Byte-level regression for the campaign engine, driven through the real
//! `spear-sim` binary so the test depends only on the CLI surface, never
//! on the engine's internals.
//!
//! Two pinned campaigns are run, and each of their outputs is reduced to
//! its byte length and a 64-bit FNV-1a digest, stored in
//! `golden/campaign_digests.txt`:
//!
//! * `stride` — two workloads × two machines × two predictors on the
//!   program front end, stride-2 sampled;
//! * `simpoint` — three workloads × three machines under `--simpoint-k 3`.
//!
//! Per run, every `aggregates/*.json` envelope and `manifest.json` are
//! digested as written; `cells.jsonl` is digested with each record's
//! `wall_ms` set to 0 and its lines sorted, since completion order and
//! host time are the only things allowed to vary between runs.
//!
//! To re-record after an *intentional* output change, run:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p spear --test campaign_golden
//! ```
//!
//! and commit the updated file together with the change that justifies it.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_spear-sim");

const STRIDE_ARGS: [&str; 15] = [
    "--workloads",
    "pointer,update",
    "--machines",
    "baseline,spear-128",
    "--bpreds",
    "bimodal,tage",
    "--frontends",
    "program",
    "--interval",
    "20000",
    "--stride",
    "2",
    "--threads",
    "2",
    "--quiet",
];

const SIMPOINT_ARGS: [&str; 12] = [
    "--workloads",
    "field,pointer,mcf",
    "--machines",
    "baseline,spear-128,spear-256",
    "--interval",
    "25000",
    "--simpoint",
    "--simpoint-k",
    "3",
    "--threads",
    "2",
    "--quiet",
];

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/campaign_digests.txt")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "spear-campaign-golden-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
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

/// Run `spear-sim campaign` into `dir` with `args` then `extra`, and
/// return the exit code and stderr.
fn campaign(dir: &Path, args: &[&str], extra: &[&str]) -> (i32, String) {
    let out = Command::new(BIN)
        .arg("campaign")
        .arg("--dir")
        .arg(dir)
        .args(args)
        .args(extra)
        .output()
        .expect("run spear-sim");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn read(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `line` with the value of its `"wall_ms":` field replaced by 0.
fn zero_wall_ms(line: &str) -> String {
    const KEY: &str = "\"wall_ms\":";
    let Some(at) = line.find(KEY) else {
        return line.to_string();
    };
    let value = at + KEY.len();
    let end = line[value..]
        .find(|c: char| !c.is_ascii_digit())
        .map_or(line.len(), |n| value + n);
    format!("{}0{}", &line[..value], &line[end..])
}

/// `cells.jsonl` with host time zeroed and records in sorted order.
fn normalized_cells(path: &Path) -> Vec<u8> {
    let text = String::from_utf8(read(path)).expect("cells.jsonl is UTF-8");
    let mut lines: Vec<String> = text.lines().map(zero_wall_ms).collect();
    lines.sort();
    (lines.join("\n") + "\n").into_bytes()
}

/// The digest lines of one completed campaign run.
fn run_digests(tag: &str, args: &[&str]) -> String {
    let dir = temp_dir(tag);
    let (code, stderr) = campaign(&dir, args, &[]);
    assert_eq!(code, 0, "campaign {tag} failed: {stderr}");
    let mut aggregates: Vec<PathBuf> = std::fs::read_dir(dir.join("aggregates"))
        .expect("aggregates/ written")
        .map(|e| e.expect("read aggregates/").path())
        .collect();
    aggregates.sort();
    assert!(!aggregates.is_empty(), "campaign {tag} wrote no aggregates");
    let mut out = String::new();
    for path in &aggregates {
        let name = path.file_name().unwrap().to_str().unwrap();
        out += &line(&format!("{tag}/aggregates/{name}"), &read(path));
    }
    out += &line(
        &format!("{tag}/manifest.json"),
        &read(&dir.join("manifest.json")),
    );
    out += &line(
        &format!("{tag}/cells.jsonl"),
        &normalized_cells(&dir.join("cells.jsonl")),
    );
    let _ = std::fs::remove_dir_all(&dir);
    out
}

#[test]
fn zero_wall_ms_rewrites_only_the_value() {
    assert_eq!(
        zero_wall_ms(r#"{"exit":"Halted","wall_ms":1234,"stats":{}}"#),
        r#"{"exit":"Halted","wall_ms":0,"stats":{}}"#
    );
    assert_eq!(zero_wall_ms(r#"{"a":1}"#), r#"{"a":1}"#);
}

#[test]
fn campaign_outputs_match_golden_digests() {
    let got = run_digests("stride", &STRIDE_ARGS) + &run_digests("simpoint", &SIMPOINT_ARGS);
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
        "campaign outputs diverged from {}:\n  {}",
        digest_path().display(),
        diffs.join("\n  ")
    );
}

/// `--max-cells` is an exact budget even with several workers racing for
/// cells: the run stops resumably (exit 4) with exactly that many records,
/// and writes no aggregate envelopes, since a sum over part of the cells
/// would look like a complete one.
#[test]
fn max_cells_stops_with_exactly_that_many_records() {
    let dir = temp_dir("max-cells");
    let (code, stderr) = campaign(&dir, &STRIDE_ARGS, &["--max-cells", "3"]);
    assert_eq!(code, 4, "interrupted campaign exit code: {stderr}");
    let cells = std::fs::read_to_string(dir.join("cells.jsonl")).expect("cells.jsonl written");
    assert_eq!(cells.lines().count(), 3, "{cells}");
    assert!(
        !dir.join("aggregates").exists(),
        "an interrupted campaign wrote aggregates/"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
