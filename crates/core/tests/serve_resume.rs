//! Crash-safe resume, end to end through the real binary: a campaign
//! server is SIGKILLed mid-job, restarted on the same root, and the
//! final aggregates must be byte-identical to an uninterrupted
//! `spear-sim campaign` run of the same grid. A SIGTERMed server must
//! drain to exit 0 and leave its job resumable.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const BIN: &str = env!("CARGO_BIN_EXE_spear-sim");

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spear-serve-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_server(root: &Path) -> Child {
    Command::new(BIN)
        .args([
            "serve",
            "--dir",
            root.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn server")
}

/// Wait for `<root>/server.addr` to appear (the server writes it after
/// binding, before accepting).
fn wait_for_addr(root: &Path) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let path = root.join("server.addr");
    while !path.exists() {
        assert!(
            Instant::now() < deadline,
            "server never advertised an address"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn client(root: &Path, args: &[&str]) -> (i32, String) {
    let out = Command::new(BIN)
        .args(["client"])
        .args(args)
        .args(["--dir", root.to_str().unwrap()])
        .output()
        .expect("run client");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

fn read_lines(path: &Path) -> usize {
    std::fs::read_to_string(path)
        .map(|t| t.lines().count())
        .unwrap_or(0)
}

fn sorted_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
        .into_iter()
        .map(|n| {
            let bytes = std::fs::read(dir.join(&n)).unwrap();
            (n, bytes)
        })
        .collect()
}

#[test]
fn sigkilled_server_resumes_and_matches_uninterrupted_cli_run() {
    // Reference: one uninterrupted CLI campaign over the same grid.
    let ref_dir = temp_dir("ref");
    let status = Command::new(BIN)
        .args([
            "campaign",
            "--dir",
            ref_dir.to_str().unwrap(),
            "--workloads",
            "pointer,update",
            "--machines",
            "baseline,spear-128,spear-256",
            "--interval",
            "20000",
            "--stride",
            "1",
            "--threads",
            "2",
            "--quiet",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("run reference campaign");
    assert_eq!(status.code(), Some(0), "reference campaign failed");

    // Server run of the same grid, SIGKILLed mid-job.
    let root = temp_dir("srv");
    let mut server = start_server(&root);
    wait_for_addr(&root);
    let (code, body) = client(
        &root,
        &[
            "submit",
            "--spec",
            "{\"workloads\":[\"pointer\",\"update\"],\
             \"machines\":[\"baseline\",\"spear-128\",\"spear-256\"],\
             \"interval\":20000,\"stride\":1}",
        ],
    );
    assert_eq!(code, 0, "submit failed: {body}");
    assert!(body.contains("job-0001"), "{body}");

    // Let it execute a few cells, then kill -9: the append-only cell
    // log may at worst carry a torn trailing record.
    let cells = root.join("jobs/job-0001/campaign/cells.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    while read_lines(&cells) < 3 {
        assert!(
            Instant::now() < deadline,
            "server never executed cells (is the job running?)"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    server.kill().expect("SIGKILL server");
    let _ = server.wait();
    let done_before = read_lines(&cells);
    assert!(done_before >= 3);
    assert!(
        !root.join("jobs/job-0001/done.json").exists(),
        "job must not be marked done at kill time"
    );

    // Restart on the same root: the rescan re-enqueues the job and the
    // campaign resumes from cells.jsonl.
    let _ = std::fs::remove_file(root.join("server.addr"));
    let mut server = start_server(&root);
    wait_for_addr(&root);
    let (code, body) = client(&root, &["wait", "job-0001", "--timeout-s", "180"]);
    assert_eq!(code, 0, "wait failed: {body}");

    // Byte-identical aggregates, file for file.
    let served = sorted_files(&root.join("jobs/job-0001/campaign/aggregates"));
    let reference = sorted_files(&ref_dir.join("aggregates"));
    assert_eq!(served.len(), 6, "2 workloads x 3 machines");
    assert_eq!(
        served, reference,
        "server aggregates after kill -9 + resume must be byte-identical to the CLI run"
    );

    // Graceful shutdown: exit code 0.
    let (code, _) = client(&root, &["shutdown"]);
    assert_eq!(code, 0);
    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "server did not drain after shutdown"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(status.code(), Some(0), "graceful shutdown must exit 0");

    let _ = std::fs::remove_dir_all(ref_dir);
    let _ = std::fs::remove_dir_all(root);
}

/// SIGTERM drains: the running job is cancelled cooperatively, the
/// server exits 0 and withdraws its address, and the job is left
/// without a terminal marker so the next start resumes it.
#[test]
fn sigterm_drains_and_leaves_the_job_resumable() {
    let root = temp_dir("sigterm");
    let mut server = start_server(&root);
    wait_for_addr(&root);
    let (code, body) = client(
        &root,
        &[
            "submit",
            "--spec",
            "{\"workloads\":[\"pointer\",\"update\"],\
             \"machines\":[\"baseline\",\"spear-128\",\"spear-256\"],\
             \"interval\":20000,\"stride\":1}",
        ],
    );
    assert_eq!(code, 0, "submit failed: {body}");

    let cells = root.join("jobs/job-0001/campaign/cells.jsonl");
    let deadline = Instant::now() + Duration::from_secs(60);
    while read_lines(&cells) < 1 {
        assert!(Instant::now() < deadline, "server never executed a cell");
        std::thread::sleep(Duration::from_millis(20));
    }
    let status = Command::new("kill")
        .args(["-TERM", &server.id().to_string()])
        .status()
        .expect("run kill");
    assert!(status.success(), "kill -TERM failed");

    let deadline = Instant::now() + Duration::from_secs(30);
    let status = loop {
        if let Some(status) = server.try_wait().expect("try_wait") {
            break status;
        }
        assert!(Instant::now() < deadline, "server did not drain on SIGTERM");
        std::thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(status.code(), Some(0), "a SIGTERM drain must exit 0");
    assert!(
        !root.join("server.addr").exists(),
        "server.addr must be removed"
    );
    assert!(
        !root.join("jobs/job-0001/done.json").exists(),
        "a drained job must stay resumable"
    );
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn exit_code_contract_usage_and_interrupted() {
    // Usage errors exit 2.
    let out = Command::new(BIN)
        .args(["campaign", "--dir"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "missing flag value is usage");
    let out = Command::new(BIN)
        .args(["campaign", "--dir", "/tmp/x", "--machines", "cray-1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown machine is usage");

    // Runtime errors exit 3.
    let out = Command::new(BIN)
        .args(["/no/such/file.spear"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(3), "unreadable input is runtime");

    // An interrupted (max-cells-limited) campaign exits 4 and resumes
    // to exit 0.
    let dir = temp_dir("exitcode");
    let base = [
        "campaign",
        "--dir",
        dir.to_str().unwrap(),
        "--workloads",
        "pointer",
        "--machines",
        "baseline",
        "--interval",
        "20000",
        "--stride",
        "2",
        "--threads",
        "2",
        "--quiet",
    ];
    let out = Command::new(BIN)
        .args(base)
        .args(["--max-cells", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "interrupted campaign exits 4");
    let out = Command::new(BIN).args(base).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "resumed campaign exits 0");
    let _ = std::fs::remove_dir_all(dir);
}
