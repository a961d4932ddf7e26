//! One table of invalid campaign specs, checked at every entry point:
//! `spear-sim campaign` exits 2 and creates no `--dir`, `POST /jobs`
//! answers 400 and queues nothing, and the engine's `Campaign::run`
//! returns `Err` before creating its directory — each with the same
//! diagnostic, because all three reach the one `CampaignSpec::validate`.

use spear_campaign::{Campaign, CampaignSpec, JobSpec, SimpointSpec};
use spear_serve::{client, ServeConfig, Server};
use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_spear-sim");

struct Case {
    what: &'static str,
    /// The mistake, made on a valid job spec (CLI flags and HTTP body).
    job: fn(&mut JobSpec),
    /// The same mistake made on the resolved engine spec; `None` where
    /// the mistake is a name the engine never sees.
    engine: Option<fn(&mut CampaignSpec)>,
    /// Substring every entry point's diagnostic carries.
    needle: &'static str,
}

const CASES: &[Case] = &[
    Case {
        what: "duplicate workload",
        job: |j| j.workloads = vec!["field".into(), "field".into()],
        engine: Some(|s| s.workloads.push("field".into())),
        needle: "workload `field` listed more than once",
    },
    Case {
        what: "duplicate predictor",
        job: |j| j.bpreds = vec!["bimodal".into(), "bimodal".into()],
        engine: Some(|s| s.points.push(s.points[0].clone())),
        needle: "`superscalar/bimodal/120` listed more than once",
    },
    Case {
        what: "duplicate machine",
        job: |j| j.machines = vec!["baseline".into(), "baseline".into()],
        engine: Some(|s| s.points.push(s.points[0].clone())),
        needle: "`superscalar/bimodal/120` listed more than once",
    },
    Case {
        what: "unknown front end",
        job: |j| j.frontends = vec!["oracle".into()],
        engine: Some(|s| s.frontends = vec!["oracle".into()]),
        needle: "unknown front end `oracle`",
    },
    Case {
        what: "duplicate front end",
        job: |j| j.frontends = vec!["trace".into(), "trace".into()],
        engine: Some(|s| s.frontends = vec!["trace".into(), "trace".into()]),
        needle: "front end `trace` listed more than once",
    },
    Case {
        what: "simpoint with a window",
        job: |j| {
            j.simpoint = true;
            j.window = Some(5000);
        },
        engine: Some(|s| {
            s.simpoint = Some(SimpointSpec::default());
            s.window = Some(5000);
        }),
        needle: "simpoint is incompatible with window",
    },
    Case {
        what: "simpoint with stride 2",
        job: |j| {
            j.simpoint_k = Some(3);
            j.stride = 2;
        },
        engine: Some(|s| {
            s.simpoint = Some(SimpointSpec::default());
            s.sample.stride = 2;
        }),
        needle: "simpoint requires stride 1",
    },
    Case {
        what: "zero interval",
        job: |j| j.interval = 0,
        engine: Some(|s| s.sample.interval_len = 0),
        needle: "interval and stride must be nonzero",
    },
    Case {
        what: "unknown workload",
        job: |j| j.workloads = vec!["nope".into()],
        engine: Some(|s| s.workloads = vec!["nope".into()]),
        needle: "unknown workload `nope`",
    },
    Case {
        what: "zero scale multiplier",
        job: |j| j.workloads = vec!["pointer@x0".into()],
        engine: Some(|s| s.workloads = vec!["pointer@x0".into()]),
        needle: "unknown workload `pointer@x0`",
    },
    Case {
        what: "bad predictor spec",
        job: |j| j.bpreds = vec!["tage:tables=zero".into()],
        engine: None,
        needle: "bad predictor spec `tage:tables=zero`",
    },
    Case {
        what: "unknown machine",
        job: |j| j.machines = vec!["cray-1".into()],
        engine: None,
        needle: "unknown machine `cray-1`",
    },
];

/// A valid one-cell-per-interval spec every case starts from.
fn base_job() -> JobSpec {
    JobSpec {
        workloads: vec!["field".into()],
        machines: vec!["baseline".into()],
        interval: 25_000,
        ..JobSpec::default()
    }
}

/// The `spear-sim campaign` flags that fill `job`.
fn cli_flags(job: &JobSpec) -> Vec<String> {
    let mut flags: Vec<String> = Vec::new();
    let mut flag = |name: &str, value: String| {
        flags.push(name.to_string());
        flags.push(value);
    };
    for (name, list) in [
        ("--workloads", &job.workloads),
        ("--machines", &job.machines),
        ("--bpreds", &job.bpreds),
        ("--frontends", &job.frontends),
    ] {
        if !list.is_empty() {
            flag(name, list.join(","));
        }
    }
    flag("--interval", job.interval.to_string());
    flag("--stride", job.stride.to_string());
    for (name, value) in [
        ("--window", job.window),
        ("--simpoint-k", job.simpoint_k),
        ("--simpoint-seed", job.simpoint_seed),
    ] {
        if let Some(v) = value {
            flag(name, v.to_string());
        }
    }
    if job.simpoint {
        flags.push("--simpoint".into());
    }
    flags
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spear-invalid-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn every_entry_point_rejects_every_invalid_spec_with_one_diagnostic() {
    let base = base_job().resolve(1).expect("the base spec is valid");
    let root = temp_dir("serve");
    let server = Server::bind(&ServeConfig {
        workers: 1,
        ..ServeConfig::new(&root)
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    for case in CASES {
        let what = case.what;
        let mut job = base_job();
        (case.job)(&mut job);

        // CLI: usage exit code, the diagnostic, and no directory.
        let dir = temp_dir("cli");
        let out = Command::new(BIN)
            .args(["campaign", "--dir", dir.to_str().unwrap(), "--quiet"])
            .args(cli_flags(&job))
            .output()
            .expect("run spear-sim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{what}: CLI exit code: {stderr}"
        );
        assert!(stderr.contains(case.needle), "{what}: CLI said {stderr}");
        assert!(!dir.exists(), "{what}: CLI created {}", dir.display());

        // HTTP: 400 at submission, not a job that fails later.
        let body = serde::json::to_string(&job);
        let (status, reply) = client::request(&addr, "POST", "/jobs", Some(&body)).expect("submit");
        assert_eq!(status, 400, "{what}: HTTP status: {reply}");
        assert!(reply.contains(case.needle), "{what}: server said {reply}");

        // Engine: an error before the campaign directory exists.
        if let Some(mistake) = case.engine {
            let mut spec = base.clone();
            mistake(&mut spec);
            let dir = temp_dir("engine");
            let err = Campaign::new(&dir, spec).run(None).err();
            let err = err.unwrap_or_else(|| panic!("{what}: the engine ran the campaign"));
            assert!(err.contains(case.needle), "{what}: engine said {err}");
            assert!(!dir.exists(), "{what}: engine created {}", dir.display());
        }
    }

    // Nothing reached the job registry.
    let (_, list) = client::request(&addr, "GET", "/jobs", None).unwrap();
    assert!(list.contains("\"jobs\":[]"), "{list}");
    let (status, _) = client::request(&addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    handle.join().expect("server thread");
    let _ = std::fs::remove_dir_all(root);
}
